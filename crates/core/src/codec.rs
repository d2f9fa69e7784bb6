//! The self-verifying binary codec and durable-file frame of the one
//! durable format, the persistent artifact store ([`crate::store`],
//! magic `M3DSTOR1`).
//!
//! The wire discipline: little-endian integers, `f64` as IEEE-754 bit
//! patterns (so round-trips are bit-exact, NaN payloads included), and
//! length-prefixed strings, written by the append-only [`Enc`] and read
//! by the cursor-based [`Dec`] with typed [`DecodeError`] failure.
//!
//! Files share one frame, built by [`frame`] and verified by
//! [`unframe`]:
//!
//! ```text
//! file    := magic (8 bytes) payload_len (u64 LE) payload_hash (u64 LE) payload
//! payload := section*
//! section := tag (u8) body_len (u64 LE) body_hash (u64 LE) body
//! ```
//!
//! Both hashes are FNV-1a 64 ([`content_hash`]). A file verifies only if
//! the magic matches, the payload is exactly `payload_len` bytes with
//! nothing after it, both hashes match, and the sections carry exactly
//! the expected tags in order.
//!
//! Files land through [`write_atomic`] (temp file, `sync_all`, rename),
//! failed files are moved aside by [`quarantine_file`], and the chaos
//! harness damages them with [`flip_byte`]. The store owns the magic,
//! the section tags, the payload codecs and the corruption policy
//! (quarantine and miss).

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use m3d_netlist::{BenchScale, Benchmark};
use m3d_route::LayerUsage;
use m3d_tech::{DesignStyle, NodeId, StackKind};

/// FNV-1a 64 content hash — small, dependency-free, and stable across
/// platforms; collision resistance is not a goal (corruption detection
/// is).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------

/// Append-only encoder over a byte buffer.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Bit-exact f64 (NaN payloads included).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
    pub(crate) fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
}

/// Cursor-based decoder with typed failure.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A malformed durable payload: what failed to parse. The store
/// quarantines on any decode failure without reading the message; it
/// is there for the `Debug` output of a failing codec test.
#[derive(Debug)]
pub(crate) struct DecodeError(#[allow(dead_code)] pub(crate) String);

pub(crate) type DecResult<T> = Result<T, DecodeError>;

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        // `pos <= len` always holds, so this cannot overflow the way
        // `pos + n` can for a length field read from a damaged file.
        if n > self.buf.len() - self.pos {
            return Err(DecodeError(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub(crate) fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    pub(crate) fn i64(&mut self) -> DecResult<i64> {
        Ok(self.u64()? as i64)
    }
    pub(crate) fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError(format!("length {v} overflows usize")))
    }
    pub(crate) fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> DecResult<String> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| DecodeError(format!("invalid utf-8: {e}")))
    }
    pub(crate) fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> DecResult<T>,
    ) -> DecResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(DecodeError(format!("bad Option tag {t}"))),
        }
    }

    pub(crate) fn finish(&self) -> DecResult<()> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after decode",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Enum codecs (stable on-disk discriminants — do not reorder)
// ---------------------------------------------------------------------

pub(crate) fn enc_benchmark(e: &mut Enc, v: Benchmark) {
    e.u8(match v {
        Benchmark::Fpu => 0,
        Benchmark::Aes => 1,
        Benchmark::Ldpc => 2,
        Benchmark::Des => 3,
        Benchmark::M256 => 4,
    });
}

pub(crate) fn dec_benchmark(d: &mut Dec) -> DecResult<Benchmark> {
    Ok(match d.u8()? {
        0 => Benchmark::Fpu,
        1 => Benchmark::Aes,
        2 => Benchmark::Ldpc,
        3 => Benchmark::Des,
        4 => Benchmark::M256,
        t => return Err(DecodeError(format!("bad Benchmark tag {t}"))),
    })
}

pub(crate) fn enc_style(e: &mut Enc, v: DesignStyle) {
    e.u8(match v {
        DesignStyle::TwoD => 0,
        DesignStyle::Tmi => 1,
    });
}

pub(crate) fn dec_style(d: &mut Dec) -> DecResult<DesignStyle> {
    Ok(match d.u8()? {
        0 => DesignStyle::TwoD,
        1 => DesignStyle::Tmi,
        t => return Err(DecodeError(format!("bad DesignStyle tag {t}"))),
    })
}

pub(crate) fn enc_node(e: &mut Enc, v: NodeId) {
    // Nodes are identified by their registry name, not an enum tag, so
    // a plug-in PDK round-trips without touching the codec — and two
    // PDKs can never collide on a tag.
    e.str(v.label());
}

pub(crate) fn dec_node(d: &mut Dec) -> DecResult<NodeId> {
    // Interning never fails: an id for a since-unregistered PDK still
    // decodes, and the stored-key equality / `TechNode::try_for_id`
    // checks downstream turn it into a miss or a decode error.
    Ok(NodeId::intern(&d.str()?))
}

pub(crate) fn enc_scale(e: &mut Enc, v: BenchScale) {
    e.u8(match v {
        BenchScale::Paper => 0,
        BenchScale::Small => 1,
    });
}

pub(crate) fn enc_stack_kind(e: &mut Enc, v: StackKind) {
    e.u8(match v {
        StackKind::TwoD => 0,
        StackKind::Tmi => 1,
        StackKind::TmiPlusM => 2,
    });
}

// ---------------------------------------------------------------------
// Struct codecs
// ---------------------------------------------------------------------

pub(crate) fn enc_layer_usage(e: &mut Enc, u: &LayerUsage) {
    e.f64(u.m1_um);
    e.f64(u.local_um);
    e.f64(u.intermediate_um);
    e.f64(u.global_um);
    for v in u.peak_utilization {
        e.f64(v);
    }
    for v in u.mean_utilization {
        e.f64(v);
    }
    e.f64(u.overflow_ratio);
}

pub(crate) fn dec_layer_usage(d: &mut Dec) -> DecResult<LayerUsage> {
    let mut u = LayerUsage {
        m1_um: d.f64()?,
        local_um: d.f64()?,
        intermediate_um: d.f64()?,
        global_um: d.f64()?,
        peak_utilization: [0.0; 3],
        mean_utilization: [0.0; 3],
        overflow_ratio: 0.0,
    };
    for v in u.peak_utilization.iter_mut() {
        *v = d.f64()?;
    }
    for v in u.mean_utilization.iter_mut() {
        *v = d.f64()?;
    }
    u.overflow_ratio = d.f64()?;
    Ok(u)
}

// ---------------------------------------------------------------------
// The durable-file frame
// ---------------------------------------------------------------------

/// Bytes before the payload: magic, payload length, payload hash.
const HEADER_LEN: usize = 24;

/// Appends one tagged section: `tag (u8) body_len (u64 LE) body_hash
/// (u64 LE, FNV-1a 64) body`.
fn write_section(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&content_hash(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Reads the section that must come next, verifying its tag and content
/// hash.
fn read_section<'a>(d: &mut Dec<'a>, want_tag: u8) -> DecResult<&'a [u8]> {
    let tag = d.u8()?;
    if tag != want_tag {
        return Err(DecodeError(format!(
            "expected section {want_tag}, found {tag}"
        )));
    }
    let len = d.usize()?;
    let hash = d.u64()?;
    let body = d.take(len)?;
    let actual = content_hash(body);
    if actual != hash {
        return Err(DecodeError(format!(
            "section {want_tag} content hash mismatch: stored {hash:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(body)
}

/// The whole file image: `magic`, the payload length and hash, then one
/// section per `(tag, body)` in order.
pub(crate) fn frame(magic: &[u8; 8], sections: &[(u8, &[u8])]) -> Vec<u8> {
    // Each section adds its tag, body length and body hash: 17 bytes.
    let payload_len: usize = sections.iter().map(|(_, body)| 17 + body.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(magic);
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    for &(tag, body) in sections {
        write_section(&mut out, tag, body);
    }
    let hash = content_hash(&out[HEADER_LEN..]);
    out[16..HEADER_LEN].copy_from_slice(&hash.to_le_bytes());
    out
}

/// Verifies a whole file image built by [`frame`] — magic, exact length,
/// payload hash, every section's tag and hash, no trailing bytes — and
/// returns the section bodies, borrowed from `bytes`, in `tags` order.
pub(crate) fn unframe<'a, const N: usize>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    tags: [u8; N],
) -> DecResult<[&'a [u8]; N]> {
    let mut d = Dec::new(bytes);
    if d.take(magic.len())? != magic {
        return Err(DecodeError(format!(
            "bad magic: want {}",
            String::from_utf8_lossy(magic)
        )));
    }
    let len = d.usize()?;
    let hash = d.u64()?;
    let payload = d.take(len)?;
    d.finish()?;
    let actual = content_hash(payload);
    if actual != hash {
        return Err(DecodeError(format!(
            "payload hash mismatch: stored {hash:#018x}, computed {actual:#018x}"
        )));
    }
    let mut p = Dec::new(payload);
    let mut bodies: [&[u8]; N] = [&[]; N];
    for (body, tag) in bodies.iter_mut().zip(tags) {
        *body = read_section(&mut p, tag)?;
    }
    p.finish()?;
    Ok(bodies)
}

/// The pid-unique temp file [`write_atomic`] writes `path` through, in
/// the same directory so the rename never crosses a filesystem.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.{}.tmp", std::process::id()))
}

/// Writes `bytes` to `path` crash-only: temp file, `sync_all`, then
/// rename, so a kill at any byte leaves the old file or the new one,
/// never a half-written file under `path`. The temp file is removed on
/// any error.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let written = fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Moves `src` into `quarantine_dir` preserving its filename (a
/// numeric suffix disambiguates collisions), creating the directory if
/// needed, so every quarantined durable file lands with the same naming
/// discipline.
pub(crate) fn quarantine_file(src: &Path, quarantine_dir: &Path) -> io::Result<PathBuf> {
    fs::create_dir_all(quarantine_dir)?;
    let name = src
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "source has no file name"))?
        .to_string_lossy()
        .into_owned();
    let mut dest = quarantine_dir.join(&name);
    let mut n = 1u32;
    while dest.exists() && n < 1000 {
        dest = quarantine_dir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs::rename(src, &dest)?;
    Ok(dest)
}

/// Flips the middle payload byte of a framed file in place — the
/// injected bit rot that verification must catch. Best-effort: a file
/// that cannot be read or carries no payload is left alone.
pub(crate) fn flip_byte(path: &Path) {
    if let Ok(mut bytes) = fs::read(path) {
        if bytes.len() > HEADER_LEN {
            let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
            bytes[mid] ^= 0xFF;
            let _ = fs::write(path, &bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_stable() {
        // Offset basis for the empty input; one-byte avalanche differs.
        assert_eq!(content_hash(b""), 0xcbf29ce484222325);
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(1usize << 40);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.str("héllo");
        e.opt(&Some(3u8), |e, v| e.u8(*v));
        e.opt(&None::<u8>, |e, v| e.u8(*v));
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().expect("u8"), 7);
        assert_eq!(d.u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(d.u64().expect("u64"), u64::MAX);
        assert_eq!(d.i64().expect("i64"), -42);
        assert_eq!(d.usize().expect("usize"), 1usize << 40);
        assert_eq!(d.f64().expect("f64").to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().expect("f64").is_nan());
        assert_eq!(d.str().expect("str"), "héllo");
        assert_eq!(d.opt(|d| d.u8()).expect("opt"), Some(3));
        assert_eq!(d.opt(|d| d.u8()).expect("opt"), None);
        d.finish().expect("no trailing bytes");
    }

    #[test]
    fn section_detects_tag_and_hash_mismatch() {
        let mut payload = Vec::new();
        write_section(&mut payload, 3, b"body bytes");
        // Happy path.
        let mut d = Dec::new(&payload);
        assert_eq!(read_section(&mut d, 3).expect("reads"), b"body bytes");
        // Wrong tag wanted.
        let mut d = Dec::new(&payload);
        assert!(read_section(&mut d, 4).is_err());
        // One flipped body byte breaks the section hash.
        let mut bad = payload.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut d = Dec::new(&bad);
        assert!(read_section(&mut d, 3).is_err());
    }

    #[test]
    fn take_rejects_a_length_that_would_overflow_the_cursor() {
        let buf = [0u8; 32];
        let mut d = Dec::new(&buf);
        d.take(16).expect("in bounds");
        assert!(d.take(usize::MAX).is_err(), "overflowing length is typed");
        assert!(d.take(17).is_err(), "one past the end is typed");
        assert_eq!(d.take(16).expect("the rest").len(), 16);
    }

    #[test]
    fn frame_round_trips_and_rejects_every_kind_of_damage() {
        const MAGIC: &[u8; 8] = b"M3DTEST1";
        let file = frame(MAGIC, &[(1, b"key"), (2, b"artifact body")]);
        let [key, artifact] = unframe(&file, MAGIC, [1, 2]).expect("verifies");
        assert_eq!((key, artifact), (&b"key"[..], &b"artifact body"[..]));
        // The bodies are borrowed from the file image, not copied.
        assert!(file.as_ptr_range().contains(&artifact.as_ptr()));

        assert!(unframe(&file, b"M3DOTHER", [1, 2]).is_err(), "magic");
        assert!(unframe(&file, MAGIC, [2, 1]).is_err(), "tag order");
        assert!(unframe(&file, MAGIC, [1]).is_err(), "unread section");
        assert!(unframe(&file, MAGIC, [1, 2, 3]).is_err(), "missing section");
        let mut trailing = file.clone();
        trailing.push(0);
        assert!(unframe(&trailing, MAGIC, [1, 2]).is_err(), "trailing byte");
        for cut in 0..file.len() {
            assert!(unframe(&file[..cut], MAGIC, [1, 2]).is_err(), "cut {cut}");
        }
        for pos in 0..file.len() {
            let mut bad = file.clone();
            bad[pos] ^= 0x01;
            assert!(unframe(&bad, MAGIC, [1, 2]).is_err(), "flip at {pos}");
        }
        // A payload length near u64::MAX is a typed error, not a panic.
        let mut huge = file.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(unframe(&huge, MAGIC, [1, 2]).is_err());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("m3d-codec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        let path = dir.join("entry.m3d");
        write_atomic(&path, b"old").expect("first write");
        write_atomic(&path, b"new").expect("overwrite");
        assert_eq!(fs::read(&path).expect("reads"), b"new");
        // A rename onto a non-empty directory fails after the temp file
        // is written; the temp file must not outlive the error.
        let occupied = dir.join("occupied.m3d");
        fs::create_dir_all(occupied.join("child")).expect("blocking dir");
        assert!(write_atomic(&occupied, b"x").is_err());
        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["entry.m3d", "occupied.m3d"], "temp file left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_file_disambiguates_collisions() {
        let root = temp_dir("qf");
        let q = root.join("quarantine");
        for i in 0..3 {
            let src = root.join("entry.m3d");
            fs::write(&src, format!("payload {i}")).expect("write");
            quarantine_file(&src, &q).expect("quarantine");
        }
        let mut names: Vec<String> = fs::read_dir(&q)
            .expect("quarantine dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["entry.m3d", "entry.m3d.1", "entry.m3d.2"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_enum_discriminant_round_trips() {
        for b in [
            Benchmark::Fpu,
            Benchmark::Aes,
            Benchmark::Ldpc,
            Benchmark::Des,
            Benchmark::M256,
        ] {
            let mut e = Enc::default();
            enc_benchmark(&mut e, b);
            assert_eq!(dec_benchmark(&mut Dec::new(&e.buf)).expect("dec"), b);
        }
        for s in [DesignStyle::TwoD, DesignStyle::Tmi] {
            let mut e = Enc::default();
            enc_style(&mut e, s);
            assert_eq!(dec_style(&mut Dec::new(&e.buf)).expect("dec"), s);
        }
        for n in [NodeId::N45, NodeId::N7] {
            let mut e = Enc::default();
            enc_node(&mut e, n);
            assert_eq!(dec_node(&mut Dec::new(&e.buf)).expect("dec"), n);
        }
        // Unknown discriminants are typed errors, not panics.
        assert!(dec_benchmark(&mut Dec::new(&[99])).is_err());
    }
}
