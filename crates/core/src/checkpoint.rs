//! Durable, crash-only checkpoints for the flow supervisor.
//!
//! A supervised run with checkpointing enabled writes one self-contained
//! snapshot file after every completed stage (and at every degradation-
//! ladder escalation). A snapshot carries everything
//! `FlowSupervisor::resume_from` needs to restart a killed process at
//! the first incomplete stage: the run identity (benchmark, style, full
//! [`FlowConfig`]), the supervisor cursor (rung, round, next stage), the
//! effective environment knobs after any ladder relaxations, the full
//! attempt log, and the durable design artifacts (netlist, wire-load
//! model, placement, extracted RC models).
//!
//! # File format
//!
//! `ckpt-<seq>.m3d` is the durable frame built by `codec::frame`
//! (DESIGN.md §9) under the magic `M3DCKPT1`, with five sections:
//! identity, supervisor cursor, artifacts, round-1 best and routing
//! checkpoint. Every section carries its own FNV-1a 64 content hash in
//! addition to the whole-file hash, so corruption is attributed to the
//! artifact it hit. `f64` values are stored as their IEEE-754 bit
//! patterns, which is what makes a resumed run *bit-identical* to an
//! uninterrupted one — there is no text round-trip anywhere.
//!
//! Writes go through `codec::write_atomic`, so a crash mid-write leaves
//! either the old set of checkpoints or the new one, never a
//! half-written file under a checkpoint name. A file that still fails
//! verification (truncation by the filesystem, bit rot, or the chaos
//! harness's planted corruption) is moved to the `quarantine/`
//! subdirectory and surfaced as [`FlowError::CorruptCheckpoint`];
//! resume then falls back to the next older snapshot, which simply
//! re-runs the affected stage.
//!
//! The cell library is deliberately *not* serialized: it is a pure,
//! memoized function of the config (see [`crate::ArtifactCache`]), so
//! resume re-derives it from its content key instead of storing
//! megabytes of characterization tables. The routed design is not an
//! artifact at all: no stage consumes a predecessor's routing (sign-off
//! re-routes the final netlist), so each stage drops its own.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use m3d_netlist::{Benchmark, Instance, Net, NetDriver, NetId, Netlist, PinRef};
use m3d_place::Placement;
use m3d_sta::NetModel;
use m3d_synth::WireLoadModel;
use m3d_tech::DesignStyle;

use m3d_cells::CellId;
use m3d_geom::{Point, Rect};
use m3d_netlist::InstId;

use crate::artifacts::Artifacts;
use crate::codec::{
    dec_benchmark, dec_node, dec_scale, dec_stack_kind, dec_stage, dec_style, enc_benchmark,
    enc_node, enc_scale, enc_stack_kind, enc_stage, enc_style, flip_byte, frame, quarantine_file,
    unframe, write_atomic, Dec, DecResult, DecodeError, Enc,
};
use crate::error::FlowError;
use crate::flow::FlowConfig;
use crate::observe::{self, EventKind, Recorder};
use crate::supervisor::{AttemptRecord, Relaxation};

pub use crate::codec::content_hash;

/// File magic of a checkpoint snapshot (version 1).
const MAGIC: &[u8; 8] = b"M3DCKPT1";

// ---------------------------------------------------------------------
// Struct codecs
// ---------------------------------------------------------------------

/// Shared with `govern`'s plan-remainder codec, so a drained plan's
/// points round-trip through the exact same field order as supervisor
/// checkpoints.
pub(crate) fn enc_config(e: &mut Enc, c: &FlowConfig) {
    enc_node(e, c.node_id);
    enc_scale(e, c.bench_scale);
    e.opt(&c.stack_kind, |e, s| enc_stack_kind(e, *s));
    e.opt(&c.clock_ps, |e, v| e.f64(*v));
    e.opt(&c.utilization, |e, v| e.f64(*v));
    e.bool(c.tmi_wlm);
    e.f64(c.pin_cap_scale);
    e.bool(c.lower_metal_rho);
    e.f64(c.alpha_ff);
    e.bool(c.mb1_routing);
    e.usize(c.opt_passes);
    e.usize(c.place_iterations);
    e.f64(c.clock_scale);
}

pub(crate) fn dec_config(d: &mut Dec) -> DecResult<FlowConfig> {
    let node_id = dec_node(d)?;
    let mut cfg = FlowConfig::new(node_id);
    cfg.bench_scale = dec_scale(d)?;
    cfg.stack_kind = d.opt(dec_stack_kind)?;
    cfg.clock_ps = d.opt(|d| d.f64())?;
    cfg.utilization = d.opt(|d| d.f64())?;
    cfg.tmi_wlm = d.bool()?;
    cfg.pin_cap_scale = d.f64()?;
    cfg.lower_metal_rho = d.bool()?;
    cfg.alpha_ff = d.f64()?;
    cfg.mb1_routing = d.bool()?;
    cfg.opt_passes = d.usize()?;
    cfg.place_iterations = d.usize()?;
    cfg.clock_scale = d.f64()?;
    Ok(cfg)
}

fn enc_netlist(e: &mut Enc, n: &Netlist) {
    e.str(&n.name);
    e.usize(n.instances().len());
    for i in n.instances() {
        e.u32(i.cell.0);
        e.usize(i.pins.len());
        for p in &i.pins {
            e.u32(p.0);
        }
        e.bool(i.is_repeater);
    }
    e.usize(n.nets().len());
    for net in n.nets() {
        match net.driver {
            NetDriver::Port(p) => {
                e.u8(0);
                e.u32(p);
            }
            NetDriver::Cell { inst, pin } => {
                e.u8(1);
                e.u32(inst.0);
                e.u8(pin);
            }
            NetDriver::None => e.u8(2),
        }
        e.usize(net.sinks.len());
        for s in &net.sinks {
            e.u32(s.inst.0);
            e.u8(s.pin);
        }
        e.bool(net.is_output);
    }
    e.usize(n.primary_inputs.len());
    for p in &n.primary_inputs {
        e.u32(p.0);
    }
    e.usize(n.primary_outputs.len());
    for p in &n.primary_outputs {
        e.u32(p.0);
    }
    e.opt(&n.clock, |e, c| e.u32(c.0));
}

fn dec_netlist(d: &mut Dec) -> DecResult<Netlist> {
    let name = d.str()?;
    let n_inst = d.usize()?;
    let mut instances = Vec::with_capacity(n_inst.min(1 << 24));
    for _ in 0..n_inst {
        let cell = CellId(d.u32()?);
        let n_pins = d.usize()?;
        let mut pins = Vec::with_capacity(n_pins.min(1 << 16));
        for _ in 0..n_pins {
            pins.push(NetId(d.u32()?));
        }
        let is_repeater = d.bool()?;
        instances.push(Instance {
            cell,
            pins,
            is_repeater,
        });
    }
    let n_nets = d.usize()?;
    let mut nets = Vec::with_capacity(n_nets.min(1 << 24));
    for _ in 0..n_nets {
        let driver = match d.u8()? {
            0 => NetDriver::Port(d.u32()?),
            1 => NetDriver::Cell {
                inst: InstId(d.u32()?),
                pin: d.u8()?,
            },
            2 => NetDriver::None,
            t => return Err(DecodeError(format!("bad NetDriver tag {t}"))),
        };
        let n_sinks = d.usize()?;
        let mut sinks = Vec::with_capacity(n_sinks.min(1 << 16));
        for _ in 0..n_sinks {
            sinks.push(PinRef {
                inst: InstId(d.u32()?),
                pin: d.u8()?,
            });
        }
        let is_output = d.bool()?;
        nets.push(Net {
            driver,
            sinks,
            is_output,
        });
    }
    let n_pi = d.usize()?;
    let mut primary_inputs = Vec::with_capacity(n_pi.min(1 << 20));
    for _ in 0..n_pi {
        primary_inputs.push(NetId(d.u32()?));
    }
    let n_po = d.usize()?;
    let mut primary_outputs = Vec::with_capacity(n_po.min(1 << 20));
    for _ in 0..n_po {
        primary_outputs.push(NetId(d.u32()?));
    }
    let clock = d.opt(|d| Ok(NetId(d.u32()?)))?;
    Ok(Netlist::from_parts(
        name,
        instances,
        nets,
        primary_inputs,
        primary_outputs,
        clock,
    ))
}

fn enc_point(e: &mut Enc, p: Point) {
    e.i64(p.x);
    e.i64(p.y);
}

fn dec_point(d: &mut Dec) -> DecResult<Point> {
    Ok(Point {
        x: d.i64()?,
        y: d.i64()?,
    })
}

fn enc_placement(e: &mut Enc, p: &Placement) {
    enc_point(e, p.core.lo());
    enc_point(e, p.core.hi());
    e.usize(p.positions.len());
    for pt in &p.positions {
        enc_point(e, *pt);
    }
    e.usize(p.port_positions.len());
    for pt in &p.port_positions {
        enc_point(e, *pt);
    }
    e.i64(p.row_height);
    e.f64(p.utilization);
}

fn dec_placement(d: &mut Dec) -> DecResult<Placement> {
    let lo = dec_point(d)?;
    let hi = dec_point(d)?;
    let n_pos = d.usize()?;
    let mut positions = Vec::with_capacity(n_pos.min(1 << 24));
    for _ in 0..n_pos {
        positions.push(dec_point(d)?);
    }
    let n_port = d.usize()?;
    let mut port_positions = Vec::with_capacity(n_port.min(1 << 20));
    for _ in 0..n_port {
        port_positions.push(dec_point(d)?);
    }
    let row_height = d.i64()?;
    let utilization = d.f64()?;
    Ok(Placement {
        core: Rect::new(lo, hi),
        positions,
        port_positions,
        row_height,
        utilization,
    })
}

fn enc_wlm(e: &mut Enc, w: &WireLoadModel) {
    let curve = w.curve();
    e.usize(curve.len());
    for v in curve {
        e.f64(*v);
    }
    e.f64(w.slope_um());
}

fn dec_wlm(d: &mut Dec) -> DecResult<WireLoadModel> {
    let n = d.usize()?;
    let mut curve = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        curve.push(d.f64()?);
    }
    let slope = d.f64()?;
    Ok(WireLoadModel::from_parts(curve, slope))
}

/// Encodes [`Artifacts`].
fn enc_artifacts(e: &mut Enc, a: &Artifacts) {
    e.opt(&a.netlist, enc_netlist);
    e.opt(&a.wlm, enc_wlm);
    e.f64(a.tau_ps);
    e.opt(&a.placement, enc_placement);
    e.usize(a.models.len());
    for m in &a.models {
        e.f64(m.c_wire);
        e.f64(m.r_wire);
    }
    e.f64(a.wns_after_opt);
}

fn dec_artifacts(d: &mut Dec) -> DecResult<Artifacts> {
    let netlist = d.opt(dec_netlist)?;
    let wlm = d.opt(dec_wlm)?;
    let tau_ps = d.f64()?;
    let placement = d.opt(dec_placement)?;
    let n_models = d.usize()?;
    let mut models = Vec::with_capacity(n_models.min(1 << 24));
    for _ in 0..n_models {
        models.push(NetModel {
            c_wire: d.f64()?,
            r_wire: d.f64()?,
        });
    }
    let wns_after_opt = d.f64()?;
    Ok(Artifacts {
        netlist,
        wlm,
        tau_ps,
        placement,
        models,
        wns_after_opt,
    })
}

fn enc_relaxation(e: &mut Enc, r: &Relaxation) {
    match r {
        Relaxation::ExtraOptPasses { added } => {
            e.u8(0);
            e.usize(*added);
        }
        Relaxation::RelaxedUtilization { from, to } => {
            e.u8(1);
            e.f64(*from);
            e.f64(*to);
        }
        Relaxation::ClockBackoff { from_ps, to_ps } => {
            e.u8(2);
            e.f64(*from_ps);
            e.f64(*to_ps);
        }
    }
}

fn dec_relaxation(d: &mut Dec) -> DecResult<Relaxation> {
    Ok(match d.u8()? {
        0 => Relaxation::ExtraOptPasses { added: d.usize()? },
        1 => Relaxation::RelaxedUtilization {
            from: d.f64()?,
            to: d.f64()?,
        },
        2 => Relaxation::ClockBackoff {
            from_ps: d.f64()?,
            to_ps: d.f64()?,
        },
        t => return Err(DecodeError(format!("bad Relaxation tag {t}"))),
    })
}

fn enc_records(e: &mut Enc, records: &[AttemptRecord]) {
    e.usize(records.len());
    for r in records {
        enc_stage(e, r.stage);
        e.u32(r.rung);
        e.u32(r.attempt);
        // The typed error does not round-trip; its attribution and
        // rendering do (FlowError::Restored).
        e.opt(&r.error, |e, err| {
            e.opt(&err.stage(), |e, s| enc_stage(e, *s));
            e.str(&err.to_string());
        });
    }
}

fn dec_records(d: &mut Dec) -> DecResult<Vec<AttemptRecord>> {
    let n = d.usize()?;
    let mut records = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let stage = dec_stage(d)?;
        let rung = d.u32()?;
        let attempt = d.u32()?;
        let error = d.opt(|d| {
            let stage = d.opt(|d| dec_stage(d))?;
            let message = d.str()?;
            Ok(FlowError::Restored { stage, message })
        })?;
        records.push(AttemptRecord {
            stage,
            rung,
            attempt,
            error,
        });
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// Persisted supervisor state
// ---------------------------------------------------------------------

/// Where a resumed run re-enters the current degradation rung: the next
/// step to execute. `Decide` is the pure floorplan-round decision after
/// post-route optimization — it re-runs on resume (it is a deterministic
/// function of the checkpointed artifacts), so only stage executions
/// consume wall-clock on the resume path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cursor {
    /// Run synthesis next (start of a non-resumed rung).
    Synth,
    /// Run placement next (start of floorplan round `state.round`).
    Place,
    /// Run pre-route optimization next.
    Preroute,
    /// Run routing next.
    Route,
    /// Run post-route optimization next.
    Postroute,
    /// Re-run the floorplan-round decision next.
    Decide,
    /// Run sign-off next.
    Signoff,
}

impl Cursor {
    /// Stable short name for event traces (the stage the resumed run
    /// executes next; `"decide"` is the pure floorplan-round decision).
    pub(crate) fn key(self) -> &'static str {
        match self {
            Cursor::Synth => "synth",
            Cursor::Place => "place",
            Cursor::Preroute => "preroute",
            Cursor::Route => "route",
            Cursor::Postroute => "postroute",
            Cursor::Decide => "decide",
            Cursor::Signoff => "signoff",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Cursor::Synth => 0,
            Cursor::Place => 1,
            Cursor::Preroute => 2,
            Cursor::Route => 3,
            Cursor::Postroute => 4,
            Cursor::Decide => 5,
            Cursor::Signoff => 6,
        }
    }

    fn from_tag(t: u8) -> DecResult<Self> {
        Ok(match t {
            0 => Cursor::Synth,
            1 => Cursor::Place,
            2 => Cursor::Preroute,
            3 => Cursor::Route,
            4 => Cursor::Postroute,
            5 => Cursor::Decide,
            6 => Cursor::Signoff,
            t => return Err(DecodeError(format!("bad Cursor tag {t}"))),
        })
    }
}

/// The effective environment knobs the degradation ladder mutates —
/// checkpointed bit-exactly so a resumed rung runs under identical
/// pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnvKnobs {
    pub(crate) clock_ps: f64,
    pub(crate) utilization: f64,
    pub(crate) opt_passes: usize,
}

/// One complete supervisor snapshot: everything `resume_from` needs.
#[derive(Debug, Clone)]
pub(crate) struct PersistedState {
    /// Monotonic snapshot number within the run (file name key).
    pub(crate) seq: u64,
    pub(crate) bench: Benchmark,
    pub(crate) style: DesignStyle,
    pub(crate) config: FlowConfig,
    /// Degradation rung in progress.
    pub(crate) rung: u32,
    /// Floorplan round in progress within the rung.
    pub(crate) round: u32,
    /// Whether this rung was entered via the routing-checkpoint resume
    /// (ladder rung 1): it skips straight to post-route work.
    pub(crate) resumed_rung: bool,
    /// The next step to execute.
    pub(crate) cursor: Cursor,
    /// Effective knobs after ladder relaxations (`None` until the
    /// library stage has run).
    pub(crate) env: Option<EnvKnobs>,
    pub(crate) relaxations: Vec<Relaxation>,
    pub(crate) records: Vec<AttemptRecord>,
    /// Working design state (durable subset).
    pub(crate) art: Artifacts,
    /// Round-1 best netlist/placement/WNS, kept across the floorplan
    /// round boundary.
    pub(crate) round1_best: Option<(Netlist, Placement, f64)>,
    /// The post-routing snapshot the ladder's first rung resumes from.
    pub(crate) routing_ckpt: Option<Artifacts>,
}

/// Section tags inside a snapshot payload.
const SEC_IDENTITY: u8 = 1;
const SEC_SUPERVISOR: u8 = 2;
const SEC_ARTIFACTS: u8 = 3;
const SEC_ROUND1_BEST: u8 = 4;
const SEC_ROUTING_CKPT: u8 = 5;

impl PersistedState {
    /// Serializes the snapshot to the full file image (the shared frame
    /// under [`MAGIC`]).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut identity = Enc::default();
        identity.u64(self.seq);
        enc_benchmark(&mut identity, self.bench);
        enc_style(&mut identity, self.style);
        enc_config(&mut identity, &self.config);

        let mut sup = Enc::default();
        sup.u32(self.rung);
        sup.u32(self.round);
        sup.bool(self.resumed_rung);
        sup.u8(self.cursor.tag());
        sup.opt(&self.env, |e, k| {
            e.f64(k.clock_ps);
            e.f64(k.utilization);
            e.usize(k.opt_passes);
        });
        sup.usize(self.relaxations.len());
        for r in &self.relaxations {
            enc_relaxation(&mut sup, r);
        }
        enc_records(&mut sup, &self.records);

        let mut art = Enc::default();
        enc_artifacts(&mut art, &self.art);

        let mut best = Enc::default();
        best.opt(&self.round1_best, |e, (n, p, w)| {
            enc_netlist(e, n);
            enc_placement(e, p);
            e.f64(*w);
        });

        let mut rckpt = Enc::default();
        rckpt.opt(&self.routing_ckpt, enc_artifacts);

        frame(
            MAGIC,
            &[
                (SEC_IDENTITY, &identity.buf),
                (SEC_SUPERVISOR, &sup.buf),
                (SEC_ARTIFACTS, &art.buf),
                (SEC_ROUND1_BEST, &best.buf),
                (SEC_ROUTING_CKPT, &rckpt.buf),
            ],
        )
    }

    fn from_bytes(bytes: &[u8]) -> DecResult<Self> {
        let [identity, sup, art, best, rckpt] = unframe(
            bytes,
            MAGIC,
            [
                SEC_IDENTITY,
                SEC_SUPERVISOR,
                SEC_ARTIFACTS,
                SEC_ROUND1_BEST,
                SEC_ROUTING_CKPT,
            ],
        )?;

        let mut di = Dec::new(identity);
        let seq = di.u64()?;
        let bench = dec_benchmark(&mut di)?;
        let style = dec_style(&mut di)?;
        let config = dec_config(&mut di)?;
        di.finish()?;

        let mut ds = Dec::new(sup);
        let rung = ds.u32()?;
        let round = ds.u32()?;
        let resumed_rung = ds.bool()?;
        let cursor = Cursor::from_tag(ds.u8()?)?;
        let env = ds.opt(|d| {
            Ok(EnvKnobs {
                clock_ps: d.f64()?,
                utilization: d.f64()?,
                opt_passes: d.usize()?,
            })
        })?;
        let n_relax = ds.usize()?;
        let mut relaxations = Vec::with_capacity(n_relax.min(16));
        for _ in 0..n_relax {
            relaxations.push(dec_relaxation(&mut ds)?);
        }
        let records = dec_records(&mut ds)?;
        ds.finish()?;

        let mut da = Dec::new(art);
        let art = dec_artifacts(&mut da)?;
        da.finish()?;

        let mut db = Dec::new(best);
        let round1_best = db.opt(|d| {
            let n = dec_netlist(d)?;
            let p = dec_placement(d)?;
            let w = d.f64()?;
            Ok((n, p, w))
        })?;
        db.finish()?;

        let mut dr = Dec::new(rckpt);
        let routing_ckpt = dr.opt(dec_artifacts)?;
        dr.finish()?;

        Ok(PersistedState {
            seq,
            bench,
            style,
            config,
            rung,
            round,
            resumed_rung,
            cursor,
            env,
            relaxations,
            records,
            art,
            round1_best,
            routing_ckpt,
        })
    }
}

// ---------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------

/// A per-run checkpoint directory: snapshot files, plus a `quarantine/`
/// subdirectory for files that failed verification.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Files moved to quarantine — shared across clones so every
    /// handle counts into one tally. A quarantine is an *observed*
    /// incident, never a silently swallowed one.
    quarantines: Arc<AtomicU64>,
    /// The sink quarantine events are reported to (defaults to the
    /// disabled null recorder; the supervisor attaches its resolved
    /// recorder at run start).
    recorder: Arc<RwLock<Arc<dyn Recorder>>>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("quarantines", &self.quarantines.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CorruptCheckpoint`] when the directory
    /// cannot be created (the only checkpoint error type; the path names
    /// the directory).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, FlowError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| FlowError::CorruptCheckpoint {
            path: dir.display().to_string(),
            detail: format!("cannot create checkpoint directory: {e}"),
        })?;
        Ok(CheckpointStore {
            dir,
            quarantines: Arc::new(AtomicU64::new(0)),
            recorder: Arc::new(RwLock::new(observe::null())),
        })
    }

    /// Attaches the event sink quarantines are reported to (shared
    /// with every clone of this store). Pass [`observe::null()`] to
    /// detach.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        *self.recorder.write().expect("recorder slot") = recorder;
    }

    /// How many files this store (and its clones) moved to quarantine.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// The directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where corrupt files are moved.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:08}.m3d"))
    }

    /// Snapshot files currently present, sorted by ascending sequence
    /// number.
    pub fn snapshot_paths(&self) -> Vec<PathBuf> {
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".m3d"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                found.push((seq, path));
            }
        }
        found.sort_by_key(|(seq, _)| *seq);
        found.into_iter().map(|(_, p)| p).collect()
    }

    /// Writes one snapshot durably through `codec::write_atomic`, so no
    /// crash leaves a half-written file under a checkpoint name. Returns
    /// the final path and the encoded size (what a `checkpoint_written`
    /// trace event reports).
    pub(crate) fn save(&self, state: &PersistedState) -> Result<(PathBuf, u64), FlowError> {
        let bytes = state.to_bytes();
        let final_path = self.path_for(state.seq);
        write_atomic(&final_path, &bytes).map_err(|e| FlowError::CorruptCheckpoint {
            path: final_path.display().to_string(),
            detail: format!("checkpoint write failed: {e}"),
        })?;
        Ok((final_path, bytes.len() as u64))
    }

    /// Moves a failed file into `quarantine/` via the shared
    /// `codec::quarantine_file` (filename preserved, numeric suffix on
    /// collision). When even the move fails the file is removed instead,
    /// so it cannot shadow older, valid snapshots. Either way the
    /// incident is *counted and traced* — a quarantine must never be
    /// silent.
    fn quarantine(&self, path: &Path) {
        if quarantine_file(path, &self.quarantine_dir()).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        let rec = self.recorder.read().expect("recorder slot");
        if rec.enabled() {
            rec.record(EventKind::DiskQuarantined { what: "checkpoint" });
        }
    }

    /// Loads the newest snapshot that verifies, quarantining every newer
    /// file that does not. Returns the state plus one
    /// [`FlowError::CorruptCheckpoint`] per quarantined file (for the
    /// caller's report); `Ok(None)` when the directory holds no
    /// snapshot files at all.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::CorruptCheckpoint`] when snapshots exist but
    /// none verifies — the caller should start the run from scratch.
    pub(crate) fn load_latest(
        &self,
    ) -> Result<Option<(PersistedState, Vec<FlowError>)>, FlowError> {
        let mut paths = self.snapshot_paths();
        if paths.is_empty() {
            return Ok(None);
        }
        let mut corruptions: Vec<FlowError> = Vec::new();
        while let Some(path) = paths.pop() {
            let verdict = match fs::read(&path) {
                Err(e) => Err(DecodeError(format!("unreadable: {e}"))),
                Ok(bytes) => PersistedState::from_bytes(&bytes),
            };
            match verdict {
                Ok(state) => return Ok(Some((state, corruptions))),
                Err(DecodeError(detail)) => {
                    self.quarantine(&path);
                    corruptions.push(FlowError::CorruptCheckpoint {
                        path: path.display().to_string(),
                        detail,
                    });
                }
            }
        }
        // Every snapshot failed; surface the newest failure.
        Err(corruptions
            .into_iter()
            .next()
            .unwrap_or(FlowError::CorruptCheckpoint {
                path: self.dir.display().to_string(),
                detail: "no snapshot survived verification".to_string(),
            }))
    }

    /// Flips one payload byte of the newest snapshot in place — the
    /// chaos harness's checkpoint-corruption fault.
    pub fn corrupt_newest(&self) {
        if let Some(path) = self.snapshot_paths().pop() {
            flip_byte(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FlowStage;
    use m3d_tech::NodeId;

    fn state() -> PersistedState {
        let mut netlist = Netlist::new("t");
        // A tiny but non-trivial netlist exercising every codec branch.
        let nets = vec![
            Net {
                driver: NetDriver::Port(0),
                sinks: vec![PinRef {
                    inst: InstId(0),
                    pin: 0,
                }],
                is_output: false,
            },
            Net {
                driver: NetDriver::Cell {
                    inst: InstId(0),
                    pin: 0,
                },
                sinks: vec![],
                is_output: true,
            },
            Net {
                driver: NetDriver::None,
                sinks: vec![],
                is_output: false,
            },
        ];
        let instances = vec![Instance {
            cell: CellId(3),
            pins: vec![NetId(0), NetId(1)],
            is_repeater: true,
        }];
        netlist = Netlist::from_parts(
            netlist.name,
            instances,
            nets,
            vec![NetId(0)],
            vec![NetId(1)],
            Some(NetId(2)),
        );
        let placement = Placement {
            core: Rect::new(Point::new(0, 0), Point::new(1000, 2000)),
            positions: vec![Point::new(5, 7)],
            port_positions: vec![Point::new(0, 9)],
            row_height: 140,
            utilization: 0.73,
        };
        PersistedState {
            seq: 4,
            bench: Benchmark::Aes,
            style: DesignStyle::Tmi,
            config: FlowConfig::new(NodeId::N45),
            rung: 1,
            round: 1,
            resumed_rung: true,
            cursor: Cursor::Postroute,
            env: Some(EnvKnobs {
                clock_ps: 1234.5,
                utilization: 0.6,
                opt_passes: 6,
            }),
            relaxations: vec![
                Relaxation::ExtraOptPasses { added: 2 },
                Relaxation::ClockBackoff {
                    from_ps: 100.0,
                    to_ps: 125.0,
                },
            ],
            records: vec![
                AttemptRecord {
                    stage: FlowStage::Library,
                    rung: 0,
                    attempt: 1,
                    error: None,
                },
                AttemptRecord {
                    stage: FlowStage::Routing,
                    rung: 0,
                    attempt: 1,
                    error: Some(FlowError::Injected {
                        stage: FlowStage::Routing,
                        detail: "planted".to_string(),
                    }),
                },
            ],
            art: Artifacts {
                netlist: Some(netlist.clone()),
                wlm: Some(WireLoadModel::uniform(3.0, 0.5)),
                tau_ps: 42.0,
                placement: Some(placement.clone()),
                models: vec![
                    NetModel {
                        c_wire: 1.5,
                        r_wire: 0.25,
                    },
                    NetModel {
                        c_wire: 0.0,
                        r_wire: -0.0,
                    },
                ],
                wns_after_opt: -3.25,
            },
            round1_best: Some((netlist, placement, -1.0)),
            routing_ckpt: Some(Artifacts::default()),
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let s = state();
        let bytes = s.to_bytes();
        let back = PersistedState::from_bytes(&bytes).expect("decodes");
        // Spot-check the pieces that carry numerics; Netlist/Placement
        // derive PartialEq so the comparison is exact.
        assert_eq!(back.seq, s.seq);
        assert_eq!(back.bench, s.bench);
        assert_eq!(back.style, s.style);
        assert_eq!(back.config, s.config);
        assert_eq!(back.cursor, s.cursor);
        assert_eq!(back.env, s.env);
        assert_eq!(back.relaxations, s.relaxations);
        assert_eq!(back.art.netlist, s.art.netlist);
        assert_eq!(back.art.placement, s.art.placement);
        assert_eq!(
            back.art.wlm.as_ref().map(|w| w.curve().to_vec()),
            s.art.wlm.as_ref().map(|w| w.curve().to_vec())
        );
        assert_eq!(back.art.models, s.art.models);
        assert_eq!(back.art.tau_ps.to_bits(), s.art.tau_ps.to_bits());
        assert_eq!(
            back.art.wns_after_opt.to_bits(),
            s.art.wns_after_opt.to_bits()
        );
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(back.art.models[1].r_wire.to_bits(), (-0.0f64).to_bits());
        assert!(back.round1_best.is_some());
        assert!(back.routing_ckpt.is_some());
        // Errors degrade to their rendering, attribution intact.
        match &back.records[1].error {
            Some(FlowError::Restored { stage, message }) => {
                assert_eq!(*stage, Some(FlowStage::Routing));
                assert!(message.contains("planted"), "message: {message}");
            }
            other => panic!("expected Restored, got {other:?}"),
        }
    }

    /// Pins the whole snapshot file image: any change to the frame, a
    /// section or a field codec moves this hash.
    #[test]
    fn snapshot_file_image_is_pinned() {
        let dir = std::env::temp_dir().join(format!("m3d-ckpt-pin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let (path, len) = store.save(&state()).expect("saves");
        let bytes = fs::read(&path).expect("reads back");
        assert_eq!(bytes.len() as u64, len);
        assert_eq!(content_hash(&bytes), 0x059a_35c0_2291_a7f5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_flipped_payload_byte_is_detected() {
        let bytes = state().to_bytes();
        // Flip a handful of positions across the file (every byte would
        // be slow); header, section hash, and artifact bytes included.
        for pos in [8, 16, 24, 40, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                PersistedState::from_bytes(&bad).is_err(),
                "flip at {pos} went undetected"
            );
        }
        // Truncation at any boundary is detected too.
        for cut in [0, 7, 23, bytes.len() / 3, bytes.len() - 1] {
            assert!(
                PersistedState::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn store_quarantines_corrupt_files_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("m3d-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let mut s = state();
        s.seq = 1;
        store.save(&s).expect("saves");
        s.seq = 2;
        s.rung = 3;
        store.save(&s).expect("saves");
        assert_eq!(store.snapshot_paths().len(), 2);

        // Corrupt the newest; load must fall back to seq 1 and
        // quarantine the bad file.
        store.corrupt_newest();
        let (loaded, corruptions) = store
            .load_latest()
            .expect("load succeeds via fallback")
            .expect("a snapshot exists");
        assert_eq!(loaded.seq, 1);
        assert_eq!(corruptions.len(), 1);
        assert!(matches!(
            corruptions[0],
            FlowError::CorruptCheckpoint { .. }
        ));
        assert_eq!(store.snapshot_paths().len(), 1);
        let quarantined: Vec<_> = fs::read_dir(store.quarantine_dir())
            .expect("quarantine dir exists")
            .collect();
        assert_eq!(quarantined.len(), 1);

        // Corrupt the survivor too: now loading errs.
        store.corrupt_newest();
        assert!(matches!(
            store.load_latest(),
            Err(FlowError::CorruptCheckpoint { .. })
        ));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_counted_and_traced_never_silent() {
        use crate::observe::VecRecorder;
        let dir = std::env::temp_dir().join(format!("m3d-ckpt-qtrace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let sink = Arc::new(VecRecorder::new());
        // A clone shares the counter and sink with the original — the
        // supervisor hands clones around.
        let handle = store.clone();
        handle.set_recorder(Arc::clone(&sink) as Arc<dyn Recorder>);
        let mut s = state();
        s.seq = 1;
        store.save(&s).expect("saves");
        store.corrupt_newest();
        assert!(store.load_latest().is_err(), "only snapshot is corrupt");
        assert_eq!(store.quarantines(), 1, "quarantine counted");
        assert_eq!(handle.quarantines(), 1, "count shared across clones");
        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::DiskQuarantined { what: "checkpoint" })),
            "quarantine traced, not swallowed: {events:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = std::env::temp_dir().join(format!("m3d-ckpt-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        assert!(store.load_latest().expect("ok").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
