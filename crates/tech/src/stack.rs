use m3d_geom::Nm;
use serde::{Deserialize, Serialize};

use crate::{MetalClass, MetalLayer, TechNode, Tier};

/// Which metal stack variant a design uses (paper Table 3 and Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackKind {
    /// Conventional 2D stack: M1, M2-M3 local, M4-M6 intermediate,
    /// M7-M8 global (8 layers).
    TwoD,
    /// T-MI stack: MB1 on the bottom tier, M1, M2-M6 local (three extra
    /// local layers to absorb the ~1.7-2x higher pin density), M7-M9
    /// intermediate, M10-M11 global (12 layers).
    Tmi,
    /// The modified T-MI stack of Table 17 / Fig. 9(c): two extra local
    /// *and* two extra intermediate layers instead of three local ones:
    /// MB1, M1-M5 local, M6-M10 intermediate, M11-M12 global (13 layers).
    TmiPlusM,
}

impl StackKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            StackKind::TwoD => "2D",
            StackKind::Tmi => "T-MI",
            StackKind::TmiPlusM => "T-MI+M",
        }
    }
}

impl std::fmt::Display for StackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cross-section dimensions for a metal class at a node, nm.
fn class_dims(node: &TechNode, class: MetalClass) -> (Nm, Nm, Nm) {
    // Base 45 nm dimensions of Table 3 (width, spacing, thickness),
    // shrunk geometrically for other nodes.
    let (w, s, t) = match class {
        MetalClass::M1 => (70, 65, 130),
        MetalClass::Local => (70, 70, 140),
        MetalClass::Intermediate => (140, 140, 280),
        MetalClass::Global => (400, 400, 800),
    };
    let k = node.dimension_scale();
    let sc = |v: Nm| ((v as f64 * k).round() as Nm).max(1);
    (sc(w), sc(s), sc(t))
}

/// An ordered routing metal stack: the layers from MB1/M1 up to the top
/// global layer.
///
/// ```
/// use m3d_tech::{MetalStack, StackKind, TechNode};
/// let node = TechNode::n45();
/// let s2d = MetalStack::new(&node, StackKind::TwoD);
/// assert_eq!(s2d.layers().len(), 8);
/// assert_eq!(s2d.layers()[0].name, "M1");
/// let tmi = MetalStack::new(&node, StackKind::Tmi);
/// assert_eq!(tmi.layers()[0].name, "MB1");
/// assert_eq!(tmi.layers().len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetalStack {
    kind: StackKind,
    layers: Vec<MetalLayer>,
}

impl MetalStack {
    /// Builds the stack variant for a node.
    pub fn new(node: &TechNode, kind: StackKind) -> Self {
        // (name, class, tier) from bottom to top.
        let mut plan: Vec<(String, MetalClass, Tier)> = Vec::new();
        let push_range =
            |plan: &mut Vec<(String, MetalClass, Tier)>, lo: u32, hi: u32, class: MetalClass| {
                for i in lo..=hi {
                    plan.push((format!("M{i}"), class, Tier::Top));
                }
            };
        match kind {
            StackKind::TwoD => {
                plan.push(("M1".into(), MetalClass::M1, Tier::Top));
                push_range(&mut plan, 2, 3, MetalClass::Local);
                push_range(&mut plan, 4, 6, MetalClass::Intermediate);
                push_range(&mut plan, 7, 8, MetalClass::Global);
            }
            StackKind::Tmi => {
                plan.push(("MB1".into(), MetalClass::M1, Tier::Bottom));
                plan.push(("M1".into(), MetalClass::M1, Tier::Top));
                push_range(&mut plan, 2, 6, MetalClass::Local);
                push_range(&mut plan, 7, 9, MetalClass::Intermediate);
                push_range(&mut plan, 10, 11, MetalClass::Global);
            }
            StackKind::TmiPlusM => {
                plan.push(("MB1".into(), MetalClass::M1, Tier::Bottom));
                plan.push(("M1".into(), MetalClass::M1, Tier::Top));
                push_range(&mut plan, 2, 5, MetalClass::Local);
                push_range(&mut plan, 6, 10, MetalClass::Intermediate);
                push_range(&mut plan, 11, 12, MetalClass::Global);
            }
        }
        let layers = plan
            .into_iter()
            .enumerate()
            .map(|(i, (name, class, tier))| {
                let (width, spacing, thickness) = class_dims(node, class);
                MetalLayer {
                    name,
                    index: i as u16,
                    class,
                    tier,
                    width,
                    spacing,
                    thickness,
                    // Alternate preferred directions going up the stack.
                    horizontal: i % 2 == 1,
                }
            })
            .collect();
        MetalStack { kind, layers }
    }

    /// The stack variant.
    pub fn kind(&self) -> StackKind {
        self.kind
    }

    /// All layers, bottom to top.
    pub fn layers(&self) -> &[MetalLayer] {
        &self.layers
    }

    /// Layers of a class.
    pub fn layers_of(&self, class: MetalClass) -> impl Iterator<Item = &MetalLayer> {
        self.layers.iter().filter(move |l| l.class == class)
    }

    /// Looks a layer up by name.
    pub fn by_name(&self, name: &str) -> Option<&MetalLayer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Total routing track supply per µm of die edge, summed over signal
    /// layers of a class: 1000 / pitch(nm) tracks per µm per layer.
    pub fn track_supply_per_um(&self, class: MetalClass) -> f64 {
        self.layers_of(class)
            .map(|l| 1000.0 / l.pitch() as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TechNode;

    #[test]
    fn two_d_stack_matches_table3() {
        let s = MetalStack::new(&TechNode::n45(), StackKind::TwoD);
        assert_eq!(s.layers().len(), 8);
        assert_eq!(s.layers_of(MetalClass::Local).count(), 2);
        assert_eq!(s.layers_of(MetalClass::Intermediate).count(), 3);
        assert_eq!(s.layers_of(MetalClass::Global).count(), 2);
        let m2 = s.by_name("M2").expect("M2 exists");
        assert_eq!((m2.width, m2.spacing, m2.thickness), (70, 70, 140));
        let m8 = s.by_name("M8").expect("M8 exists");
        assert_eq!((m8.width, m8.spacing, m8.thickness), (400, 400, 800));
        let m1 = s.by_name("M1").expect("M1 exists");
        assert_eq!((m1.width, m1.spacing, m1.thickness), (70, 65, 130));
    }

    #[test]
    fn tmi_stack_adds_mb1_and_three_local_layers() {
        let s = MetalStack::new(&TechNode::n45(), StackKind::Tmi);
        assert_eq!(s.layers().len(), 12);
        assert_eq!(s.layers()[0].name, "MB1");
        assert_eq!(s.layers()[0].tier, Tier::Bottom);
        assert_eq!(s.layers_of(MetalClass::Local).count(), 5);
        assert_eq!(s.layers_of(MetalClass::Intermediate).count(), 3);
        assert_eq!(s.layers_of(MetalClass::Global).count(), 2);
        assert!(s.by_name("M10").is_some());
        assert_eq!(s.by_name("M10").map(|l| l.class), Some(MetalClass::Global));
    }

    #[test]
    fn tmi_plus_m_trades_local_for_intermediate() {
        let s = MetalStack::new(&TechNode::n45(), StackKind::TmiPlusM);
        assert_eq!(s.layers().len(), 13);
        assert_eq!(s.layers_of(MetalClass::Local).count(), 4);
        assert_eq!(s.layers_of(MetalClass::Intermediate).count(), 5);
        assert_eq!(s.by_name("M11").map(|l| l.class), Some(MetalClass::Global));
    }

    #[test]
    fn n7_dimensions_shrink_by_0_156() {
        let s = MetalStack::new(&TechNode::n7(), StackKind::TwoD);
        let m2 = s.by_name("M2").expect("M2 exists");
        // 70 * 7/45 = 10.9 -> rounds to 11.
        assert_eq!(m2.width, 11);
        let m8 = s.by_name("M8").expect("M8 exists");
        assert_eq!(m8.width, 62);
    }

    #[test]
    fn track_supply_reflects_extra_local_layers() {
        let node = TechNode::n45();
        let s2 = MetalStack::new(&node, StackKind::TwoD);
        let s3 = MetalStack::new(&node, StackKind::Tmi);
        // 5 local layers vs 2 -> 2.5x the local track supply.
        let ratio =
            s3.track_supply_per_um(MetalClass::Local) / s2.track_supply_per_um(MetalClass::Local);
        assert!((ratio - 2.5).abs() < 1e-9);
        // Intermediate/global supply is unchanged.
        assert_eq!(
            s3.track_supply_per_um(MetalClass::Global),
            s2.track_supply_per_um(MetalClass::Global)
        );
    }

    #[test]
    fn directions_alternate() {
        let s = MetalStack::new(&TechNode::n45(), StackKind::Tmi);
        for pair in s.layers().windows(2) {
            assert_ne!(pair[0].horizontal, pair[1].horizontal);
        }
    }
}
