//! Memo classes: the one description of an artifact class that the
//! memory tier ([`crate::ArtifactCache`]) and the disk tier
//! ([`crate::DiskStore`]) share.
//!
//! A class is a [`MemoClass`] `impl`: its [`CacheKind`] (which names its
//! events, its counters and, through [`CacheKind::dir`], its store
//! directory), its key bytes and its value codec. The cache runs one
//! generic memo over a class (memory, then a verified disk entry, then
//! a traced miss), and the store one generic `load`/`store` pair.
//!
//! The key bytes both address a store entry (their FNV hash names the
//! file) and are embedded in it for the read-back equality check, so
//! they and the value codecs must stay stable: `store`'s unit tests pin
//! one entry file image per class.

use std::fmt::Debug;
use std::hash::Hash;

use m3d_cells::characterize::SpiceTables;
use m3d_cells::{Cell, CellFunction, CellLibrary, Nldm, Pin, PinDir, SeqSpec};
use m3d_netlist::NetlistStats;
use m3d_power::PowerReport;
use m3d_synth::WireLoadModel;

use crate::cache::{FlowKey, LibraryKey, NetlistKey, SpiceKey, WlmKey};
use crate::codec::{
    dec_benchmark, dec_layer_usage, dec_node, dec_style, enc_benchmark, enc_layer_usage, enc_node,
    enc_scale, enc_stack_kind, enc_style, Dec, DecResult, DecodeError, Enc,
};
use crate::error::FlowStage;
use crate::flow::{default_clock_scale_at, FlowResult};
use crate::gmi::GmiResult;
use crate::observe::CacheKind;
use crate::stage::OPT_PASSES;

/// One memoized artifact class.
pub(crate) trait MemoClass {
    /// The cache key: its `Hash` routes the memory tier, its
    /// [`MemoClass::key_bytes`] address the disk tier.
    type Key: Clone + Eq + Hash + Debug;
    /// The memoized artifact.
    type Value: Debug;
    /// The class's kind.
    const KIND: CacheKind;
    /// The stage a request for this class serves: a request cancelled
    /// while it waits on another's build names it.
    const STAGE: FlowStage;
    /// The key's stable encoding.
    fn key_bytes(key: &Self::Key) -> Vec<u8>;
    /// The artifact's stable encoding.
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// Decodes an artifact stored under `key`. A corrupt or mismatched
    /// artifact is a typed error (the store quarantines the entry),
    /// never a panic.
    fn decode(key: &Self::Key, bytes: &[u8]) -> DecResult<Self::Value>;
}

/// Characterized cell libraries, per [`LibraryKey`].
#[derive(Debug)]
pub(crate) struct LibraryClass;

/// Completed flow results, per [`FlowKey`].
#[derive(Debug)]
pub(crate) struct FlowClass;

/// One cell's SPICE tables, per [`SpiceKey`].
#[derive(Debug)]
pub(crate) struct SpiceClass;

/// G-MI sign-off results, per the [`FlowKey`] of their 2D reference
/// point.
#[derive(Debug)]
pub(crate) struct GmiClass;

impl MemoClass for LibraryClass {
    type Key = LibraryKey;
    type Value = CellLibrary;
    const KIND: CacheKind = CacheKind::Library;
    const STAGE: FlowStage = FlowStage::Library;

    fn key_bytes(k: &LibraryKey) -> Vec<u8> {
        let mut e = Enc::default();
        enc_node(&mut e, k.node_id);
        enc_style(&mut e, k.style);
        e.bool(k.lower_metal_rho);
        e.u64(k.pin_cap_scale_bits);
        e.buf
    }

    /// The cells in [`m3d_cells::CellId`] order, which the rebuild
    /// preserves. The tech node is not persisted: it is pure config.
    fn encode(lib: &CellLibrary) -> Vec<u8> {
        let mut e = Enc::default();
        e.usize(lib.len());
        for (_, cell) in lib.iter() {
            enc_cell(&mut e, cell);
        }
        e.buf
    }

    /// Rebuilds the library around the persisted cells on the key's tech
    /// node. The pin-cap scale is already baked into the cells.
    fn decode(key: &LibraryKey, bytes: &[u8]) -> DecResult<CellLibrary> {
        let mut d = Dec::new(bytes);
        let cells = dec_seq(&mut d, 1 << 16, dec_cell)?;
        d.finish()?;
        let node = key.node().ok_or_else(|| {
            DecodeError(format!(
                "library keyed to unregistered node '{}'",
                key.node_id.label()
            ))
        })?;
        CellLibrary::try_from_parts(node, key.style, cells)
            .map_err(|e| DecodeError(format!("library failed validation: {e}")))
    }
}

impl MemoClass for FlowClass {
    type Key = FlowKey;
    type Value = FlowResult;
    const KIND: CacheKind = CacheKind::Flow;
    const STAGE: FlowStage = FlowStage::Library;

    /// The consumed knobs in a fixed order. Three slots hold what were
    /// knobs once and are fixed or derived now, so entries stored
    /// before keep their keys: a 0 byte (no utilization override),
    /// [`OPT_PASSES`] and the calibrated clock scale.
    fn key_bytes(k: &FlowKey) -> Vec<u8> {
        let mut e = Enc::default();
        enc_benchmark(&mut e, k.bench);
        enc_style(&mut e, k.style);
        enc_node(&mut e, k.node_id);
        enc_scale(&mut e, k.bench_scale);
        enc_stack_kind(&mut e, k.stack_kind);
        e.opt(&k.clock_ps_bits, |e, v| e.u64(*v));
        e.u8(0);
        e.bool(k.tmi_wlm);
        e.u64(k.pin_cap_scale_bits);
        e.bool(k.lower_metal_rho);
        e.u64(k.alpha_ff_bits);
        e.bool(k.mb1_routing);
        e.usize(OPT_PASSES);
        e.usize(k.place_iterations);
        e.f64(default_clock_scale_at(k.bench, k.node_id));
        e.buf
    }

    fn encode(r: &FlowResult) -> Vec<u8> {
        let mut e = Enc::default();
        enc_benchmark(&mut e, r.bench);
        enc_style(&mut e, r.style);
        enc_node(&mut e, r.node_id);
        e.f64(r.clock_ps);
        e.f64(r.footprint_um2);
        e.f64(r.core_um.0);
        e.f64(r.core_um.1);
        e.usize(r.cell_count);
        e.usize(r.buffer_count);
        e.f64(r.utilization);
        e.f64(r.wirelength_um);
        e.f64(r.wns_ps);
        e.f64(r.hold_wns_ps);
        e.f64(r.power.cell_mw);
        e.f64(r.power.wire_mw);
        e.f64(r.power.pin_mw);
        e.f64(r.power.leakage_mw);
        e.f64(r.power.wire_cap_pf);
        e.f64(r.power.pin_cap_pf);
        enc_layer_usage(&mut e, &r.layer_usage);
        enc_f64s(&mut e, &r.wlm_curve);
        e.buf
    }

    fn decode(_: &FlowKey, bytes: &[u8]) -> DecResult<FlowResult> {
        let mut d = Dec::new(bytes);
        // Fields decode in the order written, which is the encode order.
        let r = FlowResult {
            bench: dec_benchmark(&mut d)?,
            style: dec_style(&mut d)?,
            node_id: dec_node(&mut d)?,
            clock_ps: d.f64()?,
            footprint_um2: d.f64()?,
            core_um: (d.f64()?, d.f64()?),
            cell_count: d.usize()?,
            buffer_count: d.usize()?,
            utilization: d.f64()?,
            wirelength_um: d.f64()?,
            wns_ps: d.f64()?,
            hold_wns_ps: d.f64()?,
            power: PowerReport {
                cell_mw: d.f64()?,
                wire_mw: d.f64()?,
                pin_mw: d.f64()?,
                leakage_mw: d.f64()?,
                wire_cap_pf: d.f64()?,
                pin_cap_pf: d.f64()?,
            },
            layer_usage: dec_layer_usage(&mut d)?,
            wlm_curve: dec_f64s(&mut d)?,
        };
        d.finish()?;
        Ok(r)
    }
}

impl MemoClass for SpiceClass {
    type Key = SpiceKey;
    type Value = SpiceTables;
    const KIND: CacheKind = CacheKind::Spice;
    const STAGE: FlowStage = FlowStage::Library;

    fn key_bytes(k: &SpiceKey) -> Vec<u8> {
        let mut e = Enc::default();
        enc_node(&mut e, k.node_id);
        enc_style(&mut e, k.style);
        enc_function(&mut e, k.function);
        e.u8(k.drive);
        for axis in [&k.slew_bits, &k.load_bits] {
            e.usize(axis.len());
            for &b in axis {
                e.u64(b);
            }
        }
        e.buf
    }

    fn encode(t: &SpiceTables) -> Vec<u8> {
        let mut e = Enc::default();
        enc_nldm(&mut e, &t.delay);
        enc_nldm(&mut e, &t.out_slew);
        enc_nldm(&mut e, &t.energy);
        e.buf
    }

    /// Decodes the tables and checks that they span exactly the key's
    /// grid.
    fn decode(key: &SpiceKey, bytes: &[u8]) -> DecResult<SpiceTables> {
        let mut d = Dec::new(bytes);
        let tables = SpiceTables {
            delay: dec_nldm(&mut d)?,
            out_slew: dec_nldm(&mut d)?,
            energy: dec_nldm(&mut d)?,
        };
        d.finish()?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let on_grid =
            |t: &Nldm| bits(t.slews()) == key.slew_bits && bits(t.loads()) == key.load_bits;
        if [&tables.delay, &tables.out_slew, &tables.energy]
            .into_iter()
            .all(on_grid)
        {
            Ok(tables)
        } else {
            Err(DecodeError("SPICE tables span another grid".into()))
        }
    }
}

impl MemoClass for GmiClass {
    type Key = FlowKey;
    type Value = GmiResult;
    const KIND: CacheKind = CacheKind::Gmi;
    const STAGE: FlowStage = FlowStage::Library;

    fn key_bytes(k: &FlowKey) -> Vec<u8> {
        FlowClass::key_bytes(k)
    }

    fn encode(r: &GmiResult) -> Vec<u8> {
        let mut e = Enc::default();
        e.f64(r.footprint_um2);
        e.f64(r.wirelength_um);
        e.usize(r.miv_nets);
        e.f64(r.wns_ps);
        e.f64(r.total_power_mw);
        e.buf
    }

    fn decode(_: &FlowKey, bytes: &[u8]) -> DecResult<GmiResult> {
        let mut d = Dec::new(bytes);
        let r = GmiResult {
            footprint_um2: d.f64()?,
            wirelength_um: d.f64()?,
            miv_nets: d.usize()?,
            wns_ps: d.f64()?,
            total_power_mw: d.f64()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// Wire-load models, per [`WlmKey`].
#[derive(Debug)]
pub(crate) struct WlmClass;

impl MemoClass for WlmClass {
    type Key = WlmKey;
    type Value = WireLoadModel;
    const KIND: CacheKind = CacheKind::Wlm;
    const STAGE: FlowStage = FlowStage::Synthesis;

    /// The netlist key's bytes, then the benchmark's utilization, which
    /// entries stored before it was fixed keep in their keys.
    fn key_bytes(k: &WlmKey) -> Vec<u8> {
        let mut e = Enc {
            buf: NetlistClass::key_bytes(&k.netlist),
        };
        e.f64(k.netlist.bench.target_utilization());
        e.buf
    }

    fn encode(w: &WireLoadModel) -> Vec<u8> {
        let mut e = Enc::default();
        enc_f64s(&mut e, w.curve());
        e.f64(w.slope_um());
        e.buf
    }

    /// Decodes the curve and slope; a curve of the wrong length or with
    /// a non-finite number is corruption.
    fn decode(_: &WlmKey, bytes: &[u8]) -> DecResult<WireLoadModel> {
        let mut d = Dec::new(bytes);
        let curve = dec_seq(&mut d, WireLoadModel::MAX_FANOUT + 1, |d| d.f64())?;
        let slope = d.f64()?;
        d.finish()?;
        WireLoadModel::from_parts(curve, slope)
            .ok_or_else(|| DecodeError("malformed wire-load model".into()))
    }
}

/// Generated netlists' statistics, per [`NetlistKey`].
#[derive(Debug)]
pub(crate) struct NetlistClass;

impl MemoClass for NetlistClass {
    type Key = NetlistKey;
    type Value = NetlistStats;
    const KIND: CacheKind = CacheKind::Netlist;
    const STAGE: FlowStage = FlowStage::Synthesis;

    fn key_bytes(k: &NetlistKey) -> Vec<u8> {
        let mut e = Enc::default();
        enc_benchmark(&mut e, k.bench);
        enc_scale(&mut e, k.bench_scale);
        e.buf.extend(LibraryClass::key_bytes(&k.lib));
        e.buf
    }

    fn encode(s: &NetlistStats) -> Vec<u8> {
        let mut e = Enc::default();
        e.usize(s.cell_count);
        e.f64(s.cell_area_um2);
        e.usize(s.net_count);
        e.f64(s.average_fanout);
        e.usize(s.flop_count);
        e.usize(s.buffer_count);
        e.buf
    }

    /// Decodes the statistics; a non-finite or negative area or fanout
    /// is corruption.
    fn decode(_: &NetlistKey, bytes: &[u8]) -> DecResult<NetlistStats> {
        let mut d = Dec::new(bytes);
        let s = NetlistStats {
            cell_count: d.usize()?,
            cell_area_um2: d.f64()?,
            net_count: d.usize()?,
            average_fanout: d.f64()?,
            flop_count: d.usize()?,
            buffer_count: d.usize()?,
        };
        d.finish()?;
        let plausible = |v: f64| v.is_finite() && v >= 0.0;
        if plausible(s.cell_area_um2) && plausible(s.average_fanout) {
            Ok(s)
        } else {
            Err(DecodeError("implausible netlist statistics".into()))
        }
    }
}

/// A length-prefixed sequence.
fn enc_seq<T>(e: &mut Enc, items: &[T], mut item: impl FnMut(&mut Enc, &T)) {
    e.usize(items.len());
    for x in items {
        item(e, x);
    }
}

/// A length-prefixed sequence of at most `max` items; a longer prefix
/// is corruption, not an allocation request.
fn dec_seq<T>(
    d: &mut Dec,
    max: usize,
    mut item: impl FnMut(&mut Dec) -> DecResult<T>,
) -> DecResult<Vec<T>> {
    let n = d.usize()?;
    if n > max {
        return Err(DecodeError(format!("implausible sequence length {n}")));
    }
    // Exact capacity: a decoded artifact lives as long as the cache.
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(item(d)?);
    }
    Ok(v)
}

fn enc_f64s(e: &mut Enc, v: &[f64]) {
    enc_seq(e, v, |e, &x| e.f64(x));
}

fn dec_f64s(d: &mut Dec) -> DecResult<Vec<f64>> {
    dec_seq(d, 1 << 24, |d| d.f64())
}

fn enc_function(e: &mut Enc, f: CellFunction) {
    let idx = CellFunction::ALL
        .iter()
        .position(|&x| x == f)
        .expect("CellFunction::ALL enumerates every variant");
    e.u8(idx as u8);
}

fn dec_function(d: &mut Dec) -> DecResult<CellFunction> {
    let t = d.u8()?;
    CellFunction::ALL
        .get(t as usize)
        .copied()
        .ok_or_else(|| DecodeError(format!("bad CellFunction tag {t}")))
}

fn enc_nldm(e: &mut Enc, t: &Nldm) {
    enc_f64s(e, t.slews());
    enc_f64s(e, t.loads());
    enc_f64s(e, t.values());
}

/// Decodes an NLDM, *pre-validating* the invariants [`Nldm::new`]
/// asserts — a corrupt grid must surface as a typed decode failure
/// (⇒ quarantine), never a panic.
fn dec_nldm(d: &mut Dec) -> DecResult<Nldm> {
    let slews = dec_f64s(d)?;
    let loads = dec_f64s(d)?;
    let values = dec_f64s(d)?;
    if slews.is_empty() || loads.is_empty() {
        return Err(DecodeError("empty NLDM axis".into()));
    }
    let increasing = |a: &[f64]| a.windows(2).all(|w| w[0] < w[1]);
    if !increasing(&slews) || !increasing(&loads) {
        return Err(DecodeError("NLDM axis not strictly increasing".into()));
    }
    if values.len() != slews.len() * loads.len() {
        return Err(DecodeError(format!(
            "NLDM grid size {} != {}x{}",
            values.len(),
            slews.len(),
            loads.len()
        )));
    }
    Ok(Nldm::new(slews, loads, values))
}

fn enc_pin(e: &mut Enc, p: &Pin) {
    e.str(&p.name);
    e.u8(match p.dir {
        PinDir::Input => 0,
        PinDir::Output => 1,
    });
    e.f64(p.cap_ff);
}

fn dec_pin(d: &mut Dec) -> DecResult<Pin> {
    Ok(Pin {
        name: d.str()?,
        dir: match d.u8()? {
            0 => PinDir::Input,
            1 => PinDir::Output,
            t => return Err(DecodeError(format!("bad PinDir tag {t}"))),
        },
        cap_ff: d.f64()?,
    })
}

fn enc_cell(e: &mut Enc, c: &Cell) {
    e.str(&c.name);
    enc_function(e, c.function);
    e.u8(c.drive);
    e.i64(c.width_nm);
    e.i64(c.height_nm);
    enc_seq(e, &c.pins, enc_pin);
    enc_nldm(e, &c.delay);
    enc_nldm(e, &c.out_slew);
    enc_nldm(e, &c.energy);
    e.f64(c.leakage_mw);
    e.opt(&c.seq, |e, s| {
        e.f64(s.setup_ps);
        e.f64(s.hold_ps);
        e.f64(s.clk_energy_fj);
    });
    e.u32(c.miv_count);
    e.f64(c.r_drive);
}

fn dec_cell(d: &mut Dec) -> DecResult<Cell> {
    Ok(Cell {
        name: d.str()?,
        function: dec_function(d)?,
        drive: d.u8()?,
        width_nm: d.i64()?,
        height_nm: d.i64()?,
        pins: dec_seq(d, 64, dec_pin)?,
        delay: dec_nldm(d)?,
        out_slew: dec_nldm(d)?,
        energy: dec_nldm(d)?,
        leakage_mw: d.f64()?,
        seq: d.opt(|d| {
            Ok(SeqSpec {
                setup_ps: d.f64()?,
                hold_ps: d.f64()?,
                clk_energy_fj: d.f64()?,
            })
        })?,
        miv_count: d.u32()?,
        r_drive: d.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use m3d_netlist::BenchScale;

    use super::*;
    use crate::codec::content_hash;
    use crate::experiments::plan_for;

    /// Pins the flow and WLM key bytes of every point a flow driver
    /// plans, at both scales: a key change on any reachable point (a
    /// Fig. 4 clock, a Table 15 "-n" WLM, a Table 17 stack) would orphan
    /// its store entries, and moves this hash. The point count tells a
    /// changed plan from a changed key.
    #[test]
    fn every_planned_point_keeps_its_key_bytes() {
        let mut image = Vec::new();
        let mut points = 0;
        for scale in [BenchScale::Small, BenchScale::Paper] {
            for name in [
                "table4", "table5", "table7", "table8", "table9", "table15", "table16", "table17",
                "fig3", "fig4", "fig10", "fig11", "s5", "summary", "gmi",
            ] {
                for p in plan_for(name, scale).points() {
                    let flow = FlowKey::of(p.bench, p.style, &p.config);
                    let wlm = WlmKey::of(p.bench, p.style, &p.config);
                    image.extend(FlowClass::key_bytes(&flow));
                    image.extend(WlmClass::key_bytes(&wlm));
                    points += 1;
                }
            }
        }
        assert_eq!((points, content_hash(&image)), (200, 0x7ea1_37ff_8fdd_8641));
    }
}
