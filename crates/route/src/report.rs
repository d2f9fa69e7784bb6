use serde::{Deserialize, Serialize};

use m3d_tech::MetalClass;

use crate::RoutedDesign;

/// Per-class metal usage summary — the data behind the paper's Fig. 10
/// (local/intermediate/global usage snapshots) and the MB1-share claim of
/// Section 3.3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerUsage {
    /// Wirelength on M1/MB1 pin-access metal, µm.
    pub m1_um: f64,
    /// Wirelength on local layers, µm.
    pub local_um: f64,
    /// Wirelength on intermediate layers, µm.
    pub intermediate_um: f64,
    /// Wirelength on global layers, µm.
    pub global_um: f64,
    /// Peak demand/capacity per class (local, intermediate, global).
    pub peak_utilization: [f64; 3],
    /// Mean demand/capacity over used bins per class.
    pub mean_utilization: [f64; 3],
    /// Fraction of used (class, bin) pairs over capacity.
    pub overflow_ratio: f64,
}

impl LayerUsage {
    /// Gathers the usage report from a routed design.
    pub fn of(routed: &RoutedDesign) -> Self {
        LayerUsage {
            m1_um: routed.class_wirelength_um(MetalClass::M1),
            local_um: routed.class_wirelength_um(MetalClass::Local),
            intermediate_um: routed.class_wirelength_um(MetalClass::Intermediate),
            global_um: routed.class_wirelength_um(MetalClass::Global),
            peak_utilization: [
                routed.grid.peak_utilization(MetalClass::Local),
                routed.grid.peak_utilization(MetalClass::Intermediate),
                routed.grid.peak_utilization(MetalClass::Global),
            ],
            mean_utilization: [
                routed.grid.mean_utilization(MetalClass::Local),
                routed.grid.mean_utilization(MetalClass::Intermediate),
                routed.grid.mean_utilization(MetalClass::Global),
            ],
            overflow_ratio: routed.grid.overflow_ratio(),
        }
    }

    /// Total wirelength, µm.
    pub fn total_um(&self) -> f64 {
        self.m1_um + self.local_um + self.intermediate_um + self.global_um
    }

    /// Formats the usage as the table rows the paper's figures show.
    pub fn to_table(&self) -> String {
        let t = self.total_um().max(1e-12);
        format!(
            "layer class    length(um)   share   peak-util mean-util\n\
             M1/MB1       {:12.1}  {:6.2}%\n\
             local        {:12.1}  {:6.2}%  {:8.2}  {:8.2}\n\
             intermediate {:12.1}  {:6.2}%  {:8.2}  {:8.2}\n\
             global       {:12.1}  {:6.2}%  {:8.2}  {:8.2}\n\
             overflow ratio: {:.3}",
            self.m1_um,
            100.0 * self.m1_um / t,
            self.local_um,
            100.0 * self.local_um / t,
            self.peak_utilization[0],
            self.mean_utilization[0],
            self.intermediate_um,
            100.0 * self.intermediate_um / t,
            self.peak_utilization[1],
            self.mean_utilization[1],
            self.global_um,
            100.0 * self.global_um / t,
            self.peak_utilization[2],
            self.mean_utilization[2],
            self.overflow_ratio,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_cells::CellLibrary;
    use m3d_netlist::{BenchScale, Benchmark};
    use m3d_place::Placer;
    use m3d_tech::{DesignStyle, MetalStack, StackKind, TechNode};

    #[test]
    fn usage_sums_to_total() {
        let node = TechNode::n45();
        let lib = CellLibrary::build(&node, DesignStyle::TwoD);
        let n = Benchmark::Des.generate(&lib, BenchScale::Small);
        let p = Placer::new(&lib).try_place(&n).expect("placement succeeds");
        let stack = MetalStack::new(&node, StackKind::TwoD);
        let r = crate::Router::new(&node, &stack)
            .try_route(&n, &p, &lib)
            .expect("routing succeeds");
        let usage = LayerUsage::of(&r);
        assert!((usage.total_um() - r.total_wirelength_um()).abs() < 1e-6);
        let table = usage.to_table();
        assert!(table.contains("local"));
        assert!(table.contains("overflow"));
    }
}
