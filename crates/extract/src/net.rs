use serde::{Deserialize, Serialize};

use m3d_tech::{MetalClass, MetalStack, TechNode, WireRc};

/// Lumped parasitics of one routed net.
///
/// The per-class length breakdown feeds the layer-usage reports (paper
/// Fig. 10) and the MB1-usage statistics of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetParasitics {
    /// Total wire capacitance, fF.
    pub c_wire: f64,
    /// Total wire resistance driver-to-sink along the main trunk, kΩ.
    pub r_wire: f64,
    /// Wire length per metal class `[M1, local, intermediate, global]`, µm.
    pub class_len_um: [f64; 4],
    /// Number of via cuts on the net.
    pub via_count: u32,
}

impl NetParasitics {
    /// Total routed length, µm.
    pub fn length_um(&self) -> f64 {
        self.class_len_um.iter().sum()
    }

    /// Elmore delay contribution of the wire alone driving `c_load` fF:
    /// `R_wire * (C_wire/2 + C_load)`, ps.
    pub fn elmore_into(&self, c_load: f64) -> f64 {
        self.r_wire * (0.5 * self.c_wire + c_load)
    }

    /// Accumulates another segment bundle (used when a net is routed in
    /// several passes).
    pub fn merge(&mut self, other: &NetParasitics) {
        self.c_wire += other.c_wire;
        self.r_wire += other.r_wire;
        for (a, b) in self.class_len_um.iter_mut().zip(other.class_len_um) {
            *a += b;
        }
        self.via_count += other.via_count;
    }
}

/// Net-extraction failure: a routed segment the extractor cannot turn
/// into parasitics.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// A segment referenced a layer index outside the metal stack.
    LayerOutOfRange {
        /// The referenced stack layer index.
        layer: u16,
        /// Number of layers the stack actually has.
        stack_len: usize,
    },
    /// A segment length was negative or non-finite.
    BadSegmentLength {
        /// The segment's stack layer index.
        layer: u16,
        /// The offending length, µm.
        len_um: f64,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::LayerOutOfRange { layer, stack_len } => write!(
                f,
                "segment references layer {layer} but the stack has {stack_len} layers"
            ),
            ExtractError::BadSegmentLength { layer, len_um } => {
                write!(f, "segment on layer {layer} has invalid length {len_um} um")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

fn class_slot(class: MetalClass) -> usize {
    match class {
        MetalClass::M1 => 0,
        MetalClass::Local => 1,
        MetalClass::Intermediate => 2,
        MetalClass::Global => 3,
    }
}

/// Extracts lumped RC for a net routed as `segments` — `(stack layer index,
/// length in µm)` pairs — with `via_count` inter-layer cuts.
///
/// Resistance sums all segments in series (the trunk-path approximation:
/// multi-fanout nets are mostly trunk + short stubs on the routing grid);
/// capacitance sums all segments. Via resistance uses the node's per-cut
/// value.
///
/// # Errors
///
/// Returns [`ExtractError`] when a segment references a layer outside the
/// stack or carries a negative / non-finite length.
pub fn try_extract_net(
    node: &TechNode,
    stack: &MetalStack,
    segments: impl IntoIterator<Item = (u16, f64)>,
    via_count: u32,
) -> Result<NetParasitics, ExtractError> {
    let mut p = NetParasitics {
        via_count,
        r_wire: node.via_resistance * via_count as f64,
        ..Default::default()
    };
    let layers = stack.layers();
    for (layer_idx, len_um) in segments {
        let layer = layers
            .get(layer_idx as usize)
            .ok_or(ExtractError::LayerOutOfRange {
                layer: layer_idx,
                stack_len: layers.len(),
            })?;
        if !len_um.is_finite() || len_um < 0.0 {
            return Err(ExtractError::BadSegmentLength {
                layer: layer_idx,
                len_um,
            });
        }
        let rc = WireRc::for_layer(node, layer);
        p.c_wire += rc.capacitance(len_um);
        p.r_wire += rc.resistance(len_um);
        p.class_len_um[class_slot(layer.class)] += len_um;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::StackKind;

    fn ctx() -> (TechNode, MetalStack) {
        let node = TechNode::n45();
        let stack = MetalStack::new(&node, StackKind::Tmi);
        (node, stack)
    }

    #[test]
    fn empty_net_has_only_via_resistance() {
        let (node, stack) = ctx();
        let p = try_extract_net(&node, &stack, [], 3).expect("extraction succeeds");
        assert_eq!(p.c_wire, 0.0);
        assert!((p.r_wire - 3.0 * node.via_resistance).abs() < 1e-12);
        assert_eq!(p.length_um(), 0.0);
    }

    #[test]
    fn capacitance_scales_linearly_with_length() {
        let (node, stack) = ctx();
        let m2 = stack.by_name("M2").expect("M2").index;
        let p1 = try_extract_net(&node, &stack, [(m2, 10.0)], 0).expect("extraction succeeds");
        let p2 = try_extract_net(&node, &stack, [(m2, 20.0)], 0).expect("extraction succeeds");
        assert!((p2.c_wire / p1.c_wire - 2.0).abs() < 1e-9);
        assert!((p2.r_wire / p1.r_wire - 2.0).abs() < 1e-9);
    }

    #[test]
    fn class_breakdown_matches_segments() {
        let (node, stack) = ctx();
        let mb1 = stack.by_name("MB1").expect("MB1").index;
        let m4 = stack.by_name("M4").expect("M4").index;
        let m8 = stack.by_name("M8").expect("M8").index;
        let m10 = stack.by_name("M10").expect("M10").index;
        let p = try_extract_net(
            &node,
            &stack,
            [(mb1, 1.0), (m4, 5.0), (m8, 7.0), (m10, 40.0)],
            6,
        )
        .expect("extraction succeeds");
        assert_eq!(p.class_len_um, [1.0, 5.0, 7.0, 40.0]);
        assert_eq!(p.length_um(), 53.0);
    }

    #[test]
    fn global_wire_has_lower_r_than_local() {
        let (node, stack) = ctx();
        let m2 = stack.by_name("M2").expect("M2").index;
        let m10 = stack.by_name("M10").expect("M10").index;
        let local = try_extract_net(&node, &stack, [(m2, 100.0)], 0).expect("extraction succeeds");
        let global =
            try_extract_net(&node, &stack, [(m10, 100.0)], 0).expect("extraction succeeds");
        assert!(global.r_wire < local.r_wire / 10.0);
    }

    #[test]
    fn elmore_grows_with_load() {
        let (node, stack) = ctx();
        let m4 = stack.by_name("M4").expect("M4").index;
        let p = try_extract_net(&node, &stack, [(m4, 50.0)], 2).expect("extraction succeeds");
        assert!(p.elmore_into(5.0) > p.elmore_into(1.0));
        assert!(p.elmore_into(0.0) > 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let (node, stack) = ctx();
        let m2 = stack.by_name("M2").expect("M2").index;
        let mut a = try_extract_net(&node, &stack, [(m2, 10.0)], 1).expect("extraction succeeds");
        let b = try_extract_net(&node, &stack, [(m2, 5.0)], 2).expect("extraction succeeds");
        a.merge(&b);
        assert_eq!(a.via_count, 3);
        assert!((a.class_len_um[1] - 15.0).abs() < 1e-12);
    }
}
