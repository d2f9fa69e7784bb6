//! Full-flow layout experiments (Tables 4/5/7/12/13/14/16; Figs. 3, 6).

use std::fmt::Write as _;
use std::sync::Arc;

use m3d_netlist::{BenchScale, Benchmark, NetlistStats};
use m3d_tech::{DesignStyle, NodeId};

use super::Row;
use crate::cache::{ArtifactCache, LibraryKey, NetlistKey, Request, WlmKey};
use crate::stage::wire_load_model;
use crate::{FlowConfig, FlowError, FlowResult};

/// The LDPC-vs-DES wiring-character contrast pair (Fig. 3, Table 16).
const CONTRAST_BENCHES: [Benchmark; 2] = [Benchmark::Ldpc, Benchmark::Des];

/// The circuits Table 5 compares against prior published work.
const TABLE5_BENCHES: [Benchmark; 3] = [Benchmark::Aes, Benchmark::Ldpc, Benchmark::Des];

fn detail_row(r: &FlowResult) -> String {
    format!(
        "  {:3} fp {:9.0} um2  cells {:7} bufs {:6} util {:4.2} WL {:7.3} m WNS {:+6.0} ps  \
         P {:8.2} mW (cell {:7.2} net {:7.2} leak {:6.3})",
        r.style.label(),
        r.footprint_um2,
        r.cell_count,
        r.buffer_count,
        r.utilization,
        r.wirelength_m(),
        r.wns_ps,
        r.total_power_mw(),
        r.power.cell_mw,
        r.power.net_mw(),
        r.power.leakage_mw
    )
}

/// A paper layout table's per-circuit percentage changes: footprint,
/// wirelength, total, cell, net and leakage power.
type PaperRows = [(&'static str, [f64; 6]); 5];

/// The paper's Table 4 (45 nm) or Table 7 (7 nm) title and rows; `None`
/// at any other registered node.
fn layout_paper(node: NodeId) -> Option<(&'static str, PaperRows)> {
    if node == NodeId::N45 {
        Some((
            "Table 4 / Table 13 - 45 nm layout results",
            [
                ("FPU", [-41.7, -26.3, -14.5, -9.4, -19.5, -11.1]),
                ("AES", [-42.4, -23.6, -10.9, -7.6, -13.9, -9.5]),
                ("LDPC", [-43.2, -33.6, -32.1, -12.8, -39.2, -21.7]),
                ("DES", [-40.9, -21.5, -4.1, -1.6, -7.7, -1.4]),
                ("M256", [-43.4, -28.4, -17.5, -10.7, -22.2, -12.9]),
            ],
        ))
    } else if node == NodeId::N7 {
        Some((
            "Table 7 / Table 14 - 7 nm layout results",
            [
                ("FPU", [-47.0, -34.2, -37.3, -32.4, -44.4, -21.0]),
                ("AES", [-62.0, -47.8, -19.8, -10.3, -28.4, -28.5]),
                ("LDPC", [-42.9, -27.7, -19.1, -3.7, -26.6, -3.5]),
                ("DES", [-40.8, -21.9, -3.4, -1.3, -7.3, -3.0]),
                ("M256", [-44.6, -23.0, -17.8, -14.1, -23.0, -2.4]),
            ],
        ))
    } else {
        None
    }
}

/// The layout comparison's rows: every circuit as a 2D/T-MI pair.
pub(crate) fn layout_rows(node: NodeId, scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(node).scale(scale);
    Benchmark::ALL
        .into_iter()
        .map(|bench| Row::pair((), bench, cfg.clone()))
        .collect()
}

/// Tables 4/13 (45 nm) and 7/14 (7 nm): the iso-performance layout
/// comparison for all five benchmarks. Any other registered node (the
/// `--node` CLI path) renders the same comparison without paper
/// reference rows.
pub fn layout_results(node: NodeId, scale: BenchScale) -> Result<String, FlowError> {
    let paper = layout_paper(node);
    let mut out = match paper {
        Some((title, _)) => format!("{title}\n"),
        None => format!("Layout results - {} node\n", node.label()),
    };
    let _ = writeln!(
        out,
        "circuit  footprint wirelen    total     cell      net    leakage   (percent change, T-MI over 2D)"
    );
    let mut details = String::new();
    for row in layout_rows(node, scale) {
        let cmp = row.compare()?;
        let _ = writeln!(out, "{}", cmp.table_row());
        let p = paper
            .as_ref()
            .and_then(|(_, rows)| rows.iter().find(|(n, _)| *n == row.bench.name()));
        if let Some((_, p)) = p {
            let _ = writeln!(
                out,
                "  paper: {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%  {:+7.1}%",
                p[0], p[1], p[2], p[3], p[4], p[5]
            );
        }
        details.push_str(&detail_row(&cmp.two_d));
        details.push('\n');
        details.push_str(&detail_row(&cmp.tmi));
        details.push('\n');
    }
    out.push_str("detailed rows (Tables 13/14 layout):\n");
    out.push_str(&details);
    Ok(out)
}

/// Table 5's rows: the circuits compared against prior published work.
pub(crate) fn table5_rows(scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);
    TABLE5_BENCHES
        .into_iter()
        .map(|bench| Row::pair((), bench, cfg.clone()))
        .collect()
}

/// Table 5: our AES/LDPC/DES results alongside the published numbers of
/// the prior monolithic-3D works the paper compares against
/// (Bobba et al. \[2\] CELONCEL; Lee et al. \[7\]).
pub fn table5_prior_work(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5 - comparison with prior works (wirelength m / power mW / reduction)"
    );
    for row in table5_rows(scale) {
        let cmp = row.compare()?;
        let _ = writeln!(
            out,
            "{:5} ours-2D  WL {:6.3} m  P {:8.2} mW",
            row.bench.name(),
            cmp.two_d.wirelength_m(),
            cmp.two_d.total_power_mw()
        );
        let _ = writeln!(
            out,
            "      ours-3D  WL {:6.3} m ({:+5.1}%)  P {:8.2} mW ({:+5.1}%)",
            cmp.tmi.wirelength_m(),
            cmp.wirelength_pct(),
            cmp.tmi.total_power_mw(),
            cmp.total_power_pct()
        );
    }
    out.push_str(
        "published prior results (their setups; not directly comparable):\n\
         AES : paper-2D 0.260 m/13.69 mW, paper-3D -23.5%/-10.9% | [7]-3D -21.0%/-6.6%\n\
         LDPC: paper-2D 3.806 m/54.79 mW, paper-3D -33.6%/-32.1% | [2]-3D -12.6%/-6.0%\n\
         DES : paper-2D 0.611 m/63.88 mW, paper-3D -21.6%/-4.1%  | [2]-3D -13.4%/-1.9% | [7]-3D -19.7%/-3.1%\n",
    );
    Ok(out)
}

/// Fig. 3's rows: the contrast pair's 2D designs.
pub(crate) fn fig3_rows(node: NodeId, scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(node).scale(scale);
    CONTRAST_BENCHES
        .into_iter()
        .map(|bench| Row::single((), bench, DesignStyle::TwoD, cfg.clone()))
        .collect()
}

/// Fig. 3: the LDPC vs DES layout-character contrast (Section 4.3) —
/// average net length, footprint and the wire/pin capacitance split that
/// explains their opposite power benefits. The paper's figure is at
/// 45 nm; any other node (the `--node` CLI path) renders the same rows
/// without the paper reference footer.
pub fn fig3_circuit_character(node: NodeId, scale: BenchScale) -> Result<String, FlowError> {
    let paper = node == NodeId::N45;
    let mut out = String::new();
    if paper {
        let _ = writeln!(
            out,
            "Fig. 3 - LDPC vs DES layout character (2D designs, 45 nm)"
        );
    } else {
        let _ = writeln!(
            out,
            "Fig. 3 - LDPC vs DES layout character (2D designs, {} node)",
            node.label()
        );
    }
    for row in fig3_rows(node, scale) {
        let r = row.run()?;
        let avg_net = r.wirelength_um / (r.cell_count as f64).max(1.0);
        let _ = writeln!(
            out,
            "{:5}: footprint {:7.0} um2 ({:5.1} x {:5.1} um), WL {:6.3} m, \
             ~{:5.1} um/cell, wire cap {:7.1} pF vs pin cap {:7.1} pF ({})",
            row.bench.name(),
            r.footprint_um2,
            r.core_um.0,
            r.core_um.1,
            r.wirelength_m(),
            avg_net,
            r.power.wire_cap_pf,
            r.power.pin_cap_pf,
            if r.power.wire_cap_pf > r.power.pin_cap_pf {
                "wire-dominated"
            } else {
                "pin-dominated"
            }
        );
    }
    if paper {
        out.push_str(
            "paper: LDPC 457x456 um, 3.806 m, 72.0 um avg net, wire 558 pF >> pin 134 pF;\n\
             DES 331x330 um, 0.611 m, 10.5 um avg net, wire 64 pF << pin 127 pF\n",
        );
    }
    Ok(out)
}

/// Table 12's rows: each node's benchmarks and the statistics of their
/// generated netlists, memoized per [`NetlistKey`]. A node's 2D library
/// is fetched on its first miss only, so a warm table loads no library
/// and generates no netlist.
fn table12_rows(
    cache: &ArtifactCache,
    scale: BenchScale,
) -> Result<Vec<(NodeId, Benchmark, Arc<NetlistStats>)>, FlowError> {
    let mut rows = Vec::new();
    for node_id in [NodeId::N45, NodeId::N7] {
        let lib_key = LibraryKey::new(node_id, DesignStyle::TwoD, false, 1.0);
        let mut lib = None;
        for bench in Benchmark::ALL {
            let stats = cache.netlist_stats(&NetlistKey::new(bench, scale, lib_key), || {
                let lib = match &mut lib {
                    Some(lib) => lib,
                    None => lib.insert(cache.library_for(&lib_key, Request::Caller)?),
                };
                Ok(bench.generate(lib, scale).stats(lib))
            })?;
            rows.push((node_id, bench, stats));
        }
    }
    Ok(rows)
}

/// Table 12: the benchmark circuits and the statistics of their
/// generated (pre-synthesis) netlists at both nodes.
pub fn table12_benchmarks(scale: BenchScale) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 12 - benchmark circuits and synthesis results\n\
         node circuit  clk(ns)  #cells   area(um2)   #nets   fanout  #flops"
    );
    for (node_id, bench, s) in table12_rows(&ArtifactCache::global(), scale)? {
        let _ = writeln!(
            out,
            "{:4} {:7} {:7.2} {:8} {:11.1} {:7} {:7.2} {:7}",
            node_id,
            bench.name(),
            bench.target_clock_ps(node_id) * 1e-3,
            s.cell_count,
            s.cell_area_um2,
            s.net_count,
            s.average_fanout,
            s.flop_count
        );
    }
    out.push_str(
        "paper 45nm: FPU 9694/19123, AES 13891/16756, LDPC 38289/60590, DES 51162/85526, M256 202877/293636\n\
         (generators are structurally faithful; counts match to first order)\n",
    );
    Ok(out)
}

/// Table 16's rows: the contrast pair, each as a 2D/T-MI pair.
pub(crate) fn table16_rows(node: NodeId, scale: BenchScale) -> Vec<Row> {
    let cfg = FlowConfig::new(node).scale(scale);
    CONTRAST_BENCHES
        .into_iter()
        .map(|bench| Row::pair((), bench, cfg.clone()))
        .collect()
}

/// Table 16: wire vs pin capacitance/power decomposition of LDPC and DES
/// at 45 nm — the quantitative core of the paper's Section 4.3 argument.
/// Any other node (the `--node` CLI path) renders the same rows without
/// the paper reference footer.
pub fn table16_net_breakdown(node: NodeId, scale: BenchScale) -> Result<String, FlowError> {
    let paper = node == NodeId::N45;
    let mut out = String::new();
    if paper {
        out.push_str("Table 16 - wire vs pin capacitance and power (whole circuit)\n");
    } else {
        let _ = writeln!(
            out,
            "Table 16 - wire vs pin capacitance and power (whole circuit, {} node)",
            node.label()
        );
    }
    out.push_str("design     wire cap(pF)  pin cap(pF)  wire P(mW)  pin P(mW)\n");
    for row in table16_rows(node, scale) {
        let cmp = row.compare()?;
        for r in [&cmp.two_d, &cmp.tmi] {
            let _ = writeln!(
                out,
                "{:5}-{:3} {:12.1} {:12.1} {:11.2} {:10.2}",
                row.bench.name(),
                r.style.label(),
                r.power.wire_cap_pf,
                r.power.pin_cap_pf,
                r.power.wire_mw,
                r.power.pin_mw
            );
        }
    }
    if paper {
        out.push_str(
            "paper: LDPC-2D 558.0/134.4 pF 30.73/9.04 mW -> 3D 310.3/123.6, 15.88/8.32;\n\
             DES-2D 64.4/127.4 pF 8.88/17.80 mW -> 3D 50.1/126.6, 6.87/17.76\n",
        );
    }
    Ok(out)
}

/// Fig. 6: the fanout-vs-wirelength wire-load-model curves per benchmark.
pub fn fig6_wlm_curves(scale: BenchScale) -> Result<String, FlowError> {
    let cfg = FlowConfig::new(NodeId::N45).scale(scale);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6 - fanout vs wirelength in the 2D wire load models (um)\n\
         fanout:      1      2      4      8     16"
    );
    for bench in Benchmark::ALL {
        // The WLM each 45 nm 2D flow synthesizes against.
        let key = WlmKey::of(bench, DesignStyle::TwoD, &cfg);
        let wlm = wire_load_model(&ArtifactCache::global(), &key, None)?;
        let _ = writeln!(
            out,
            "{:5}  {:8.1} {:6.1} {:6.1} {:6.1} {:6.1}",
            bench.name(),
            wlm.estimate_um(1),
            wlm.estimate_um(2),
            wlm.estimate_um(4),
            wlm.estimate_um(8),
            wlm.estimate_um(16)
        );
    }
    out.push_str("paper shape: LDPC's curve is by far the steepest (up to ~400 um at fanout 20); DES the flattest\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{MemoClass, NetlistClass};

    #[test]
    fn fig6_orders_ldpc_above_des() {
        let t = fig6_wlm_curves(BenchScale::Small).expect("fig6 renders");
        assert!(t.contains("LDPC"));
        assert!(t.contains("DES"));
    }

    /// Every Table 12 row, built cold and then read back from the disk
    /// tier by a fresh cache, equals a fresh generation bit for bit.
    #[test]
    fn memoized_table12_stats_equal_a_fresh_generation() {
        let root = std::env::temp_dir().join(format!("m3d-table12-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let caches = [ArtifactCache::default(), ArtifactCache::default()];
        for cache in &caches {
            cache.attach_disk(crate::DiskStore::open(&root));
        }
        let cold = table12_rows(&caches[0], BenchScale::Small).expect("cold rows");
        let warm = table12_rows(&caches[1], BenchScale::Small).expect("warm rows");
        let s = caches[1].stats();
        assert_eq!((s.netlist_builds, s.netlist_hits, s.disk_hits), (0, 10, 10));
        assert_eq!(
            s.library_builds + s.library_hits,
            0,
            "a warm table loads no library"
        );
        assert_eq!(cold.len(), 10);
        for ((node_id, bench, built), (.., loaded)) in cold.iter().zip(&warm) {
            let lib = caches[0]
                .library(*node_id, DesignStyle::TwoD, false, 1.0)
                .expect("library builds");
            let fresh = bench.generate(&lib, BenchScale::Small).stats(&lib);
            // The class encoding writes every f64 as its bits.
            for memoized in [built, loaded] {
                assert_eq!(
                    NetlistClass::encode(memoized),
                    NetlistClass::encode(&fresh),
                    "{node_id} {bench}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn table12_reports_both_nodes() {
        let t = table12_benchmarks(BenchScale::Small).expect("table12 renders");
        assert!(t.contains("45nm"));
        assert!(t.contains("7nm"));
        assert!(t.contains("M256"));
    }
}
