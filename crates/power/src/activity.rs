use serde::{Deserialize, Serialize};

use m3d_cells::{CellFunction, CellLibrary};
use m3d_netlist::{levelize, NetDriver, Netlist};

/// Per-net signal statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Static probability of the signal being 1.
    pub p_one: f64,
    /// Expected transitions per clock cycle.
    pub alpha: f64,
}

impl Default for Activity {
    fn default() -> Self {
        Activity {
            p_one: 0.5,
            alpha: 0.0,
        }
    }
}

/// Most inputs of a library function (AOI22/OAI22).
const MAX_INPUTS: usize = 4;
/// Most outputs of a library function (the adders).
const MAX_OUTPUTS: usize = 2;

/// A combinational function's outputs per input mask: bit `o` of
/// `table[mask]` is output `o` when input `i` is bit `i` of `mask`.
fn truth_table(function: CellFunction) -> [u8; 1 << MAX_INPUTS] {
    let n_in = function.input_count();
    assert!(
        n_in <= MAX_INPUTS && function.output_count() <= MAX_OUTPUTS,
        "{function:?} exceeds the activity propagator's arity"
    );
    let mut table = [0u8; 1 << MAX_INPUTS];
    for (mask, row) in table.iter_mut().enumerate().take(1 << n_in) {
        let bits: Vec<bool> = (0..n_in).map(|i| mask & (1 << i) != 0).collect();
        for (o, &v) in function.eval(&bits).iter().enumerate() {
            *row |= u8::from(v) << o;
        }
    }
    table
}

/// The probability of input mask `mask` under independent inputs,
/// leaving input `skip` out: the product in input order from 1.0.
fn mask_prob(inputs: &[Activity], mask: usize, skip: Option<usize>) -> f64 {
    inputs
        .iter()
        .enumerate()
        .filter(|&(k, _)| Some(k) != skip)
        .map(|(k, a)| {
            if mask & (1 << k) != 0 {
                a.p_one
            } else {
                1.0 - a.p_one
            }
        })
        .product()
}

/// Propagates static probabilities and transition densities from the
/// primary inputs (`alpha_pi`) and flop outputs (`alpha_ff`) through the
/// combinational network.
///
/// For each gate output the propagation uses the exact Boolean difference
/// under an input-independence assumption:
/// `alpha_out = sum_i alpha_i * P(f flips when input i flips)`, evaluated
/// by enumerating the (<= 2^4) input combinations of the library
/// functions against each function's truth table, built once per call.
/// The clock net carries `alpha = 2` (both edges every cycle).
pub fn propagate_activity(
    netlist: &Netlist,
    lib: &CellLibrary,
    alpha_pi: f64,
    alpha_ff: f64,
) -> Vec<Activity> {
    let mut act = vec![Activity::default(); netlist.net_count()];
    for &pi in &netlist.primary_inputs {
        act[pi.0 as usize] = Activity {
            p_one: 0.5,
            alpha: alpha_pi,
        };
    }
    if let Some(clk) = netlist.clock {
        act[clk.0 as usize] = Activity {
            p_one: 0.5,
            alpha: 2.0,
        };
    }

    let mut tables = [None; CellFunction::ALL.len()];
    let (_, order) = levelize(netlist, lib).expect("combinational cycle in design");
    for inst_id in order {
        let inst = netlist.inst(inst_id);
        let cell = lib.cell(inst.cell);
        let function = cell.function;
        let n_in = cell.input_count();
        if function.is_sequential() {
            let q = inst.pins[n_in];
            act[q.0 as usize] = Activity {
                p_one: 0.5,
                alpha: alpha_ff,
            };
            continue;
        }
        let table = *tables[function as usize].get_or_insert_with(|| truth_table(function));
        // Gather input stats (an undriven input keeps the default 0.5/0).
        let mut gathered = [Activity::default(); MAX_INPUTS];
        for (a, net) in gathered.iter_mut().zip(&inst.pins[..n_in]) {
            *a = act[net.0 as usize];
        }
        let inputs = &gathered[..n_in];
        let combos = 1usize << n_in;
        let n_out = function.output_count();
        let mut p_one = [0.0f64; MAX_OUTPUTS];
        let mut alpha = [0.0f64; MAX_OUTPUTS];
        // P(out = 1).
        for (mask, &row) in table.iter().enumerate().take(combos) {
            let prob = mask_prob(inputs, mask, None);
            if prob == 0.0 {
                continue;
            }
            for (o, p) in p_one.iter_mut().enumerate().take(n_out) {
                if row >> o & 1 != 0 {
                    *p += prob;
                }
            }
        }
        // Boolean difference per input.
        for (i, input_stat) in inputs.iter().enumerate() {
            if input_stat.alpha == 0.0 {
                continue;
            }
            // P(f(x_i=0) != f(x_i=1)) over the other inputs.
            let mut diff = [0.0f64; MAX_OUTPUTS];
            for mask in 0..combos {
                if mask & (1 << i) != 0 {
                    continue; // enumerate with x_i = 0; flip below
                }
                let prob = mask_prob(inputs, mask, Some(i));
                if prob == 0.0 {
                    continue;
                }
                let flips = table[mask] ^ table[mask | 1 << i];
                for (o, d) in diff.iter_mut().enumerate().take(n_out) {
                    if flips >> o & 1 != 0 {
                        *d += prob;
                    }
                }
            }
            for (a, d) in alpha.iter_mut().zip(diff).take(n_out) {
                *a += input_stat.alpha * d;
            }
        }
        for (o, &out_net) in inst.pins[n_in..].iter().enumerate() {
            let idx = out_net.0 as usize;
            // A net driven by this output (keep the larger alpha if the
            // net somehow already carries one -- cannot happen for
            // well-formed netlists).
            act[idx] = Activity {
                p_one: p_one[o],
                // Cap: a signal cannot flip more often than its inputs
                // combined; in practice glitching is filtered by inertial
                // delays, cap at 2 transitions per cycle.
                alpha: alpha[o].min(2.0),
            };
        }
    }
    // Undriven nets keep defaults.
    for id in netlist.net_ids() {
        if matches!(netlist.net(id).driver, NetDriver::None) {
            act[id.0 as usize].alpha = 0.0;
        }
    }
    act
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{BenchScale, Benchmark, NetId, NetlistBuilder};
    use m3d_tech::{DesignStyle, TechNode};
    use proptest::prelude::*;

    fn lib() -> CellLibrary {
        CellLibrary::build(&TechNode::n45(), DesignStyle::TwoD)
    }

    /// The propagator that allocated per gate and per input mask,
    /// kept verbatim as the bit-exact reference for the table-driven
    /// one.
    fn reference_propagate_activity(
        netlist: &Netlist,
        lib: &CellLibrary,
        alpha_pi: f64,
        alpha_ff: f64,
    ) -> Vec<Activity> {
        let mut act = vec![Activity::default(); netlist.net_count()];
        for &pi in &netlist.primary_inputs {
            act[pi.0 as usize] = Activity {
                p_one: 0.5,
                alpha: alpha_pi,
            };
        }
        if let Some(clk) = netlist.clock {
            act[clk.0 as usize] = Activity {
                p_one: 0.5,
                alpha: 2.0,
            };
        }
        let (_, order) = levelize(netlist, lib).expect("combinational cycle in design");
        for inst_id in order {
            let inst = netlist.inst(inst_id);
            let cell = lib.cell(inst.cell);
            let function = cell.function;
            let n_in = cell.input_count();
            if function.is_sequential() {
                let q = inst.pins[n_in];
                act[q.0 as usize] = Activity {
                    p_one: 0.5,
                    alpha: alpha_ff,
                };
                continue;
            }
            let inputs: Vec<Activity> = (0..n_in).map(|p| act[inst.pins[p].0 as usize]).collect();
            let combos = 1usize << n_in;
            let n_out = function.output_count();
            let mut p_one = vec![0.0f64; n_out];
            let mut alpha = vec![0.0f64; n_out];
            for mask in 0..combos {
                let bits: Vec<bool> = (0..n_in).map(|i| mask & (1 << i) != 0).collect();
                let prob: f64 = bits
                    .iter()
                    .zip(&inputs)
                    .map(|(&b, a)| if b { a.p_one } else { 1.0 - a.p_one })
                    .product();
                if prob == 0.0 {
                    continue;
                }
                let out = function.eval(&bits);
                for (o, &v) in out.iter().enumerate() {
                    if v {
                        p_one[o] += prob;
                    }
                }
            }
            for (i, input_stat) in inputs.iter().enumerate() {
                if input_stat.alpha == 0.0 {
                    continue;
                }
                let mut diff = vec![0.0f64; n_out];
                for mask in 0..combos {
                    if mask & (1 << i) != 0 {
                        continue;
                    }
                    let bits0: Vec<bool> = (0..n_in).map(|k| mask & (1 << k) != 0).collect();
                    let mut bits1 = bits0.clone();
                    bits1[i] = true;
                    let prob: f64 = bits0
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != i)
                        .map(|(k, &b)| {
                            if b {
                                inputs[k].p_one
                            } else {
                                1.0 - inputs[k].p_one
                            }
                        })
                        .product();
                    if prob == 0.0 {
                        continue;
                    }
                    let f0 = function.eval(&bits0);
                    let f1 = function.eval(&bits1);
                    for o in 0..n_out {
                        if f0[o] != f1[o] {
                            diff[o] += prob;
                        }
                    }
                }
                for o in 0..n_out {
                    alpha[o] += input_stat.alpha * diff[o];
                }
            }
            for (o, &out_net) in inst.pins[n_in..].iter().enumerate() {
                act[out_net.0 as usize] = Activity {
                    p_one: p_one[o],
                    alpha: alpha[o].min(2.0),
                };
            }
        }
        for id in netlist.net_ids() {
            if matches!(netlist.net(id).driver, NetDriver::None) {
                act[id.0 as usize].alpha = 0.0;
            }
        }
        act
    }

    fn bits(act: &[Activity]) -> Vec<(u64, u64)> {
        act.iter()
            .map(|a| (a.p_one.to_bits(), a.alpha.to_bits()))
            .collect()
    }

    /// A seeded acyclic netlist: each gate (flops included) of a random
    /// library function reads random earlier nets, so every function,
    /// repeated inputs and flop-fed logic all occur.
    fn random_netlist(lib: &CellLibrary, seed: u64, gates: usize) -> Netlist {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut b = NetlistBuilder::new(lib, "random");
        let inputs = 1 + rnd(6);
        let mut nets: Vec<NetId> = b.inputs(inputs);
        for _ in 0..gates {
            let function = CellFunction::ALL[rnd(CellFunction::ALL.len())];
            if function.is_sequential() {
                let d = nets[rnd(nets.len())];
                nets.push(b.dff(d));
                continue;
            }
            let ins: Vec<NetId> = (0..function.input_count())
                .map(|_| nets[rnd(nets.len())])
                .collect();
            nets.extend(b.gate_outputs(function, &ins));
        }
        let last = *nets.last().expect("at least one net");
        b.output(last);
        b.finish()
    }

    #[test]
    fn benchmark_circuits_match_the_reference_bit_for_bit() {
        let lib = lib();
        for bench in Benchmark::ALL {
            let n = bench.generate(&lib, BenchScale::Small);
            for (alpha_pi, alpha_ff) in [(0.2, 0.1), (0.0, 0.3)] {
                assert_eq!(
                    bits(&propagate_activity(&n, &lib, alpha_pi, alpha_ff)),
                    bits(&reference_propagate_activity(&n, &lib, alpha_pi, alpha_ff)),
                    "{bench:?} at alpha_pi {alpha_pi}, alpha_ff {alpha_ff}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_netlists_match_the_reference_bit_for_bit(
            seed in 0u64..u64::MAX,
            gates in 1usize..160,
            alpha_pi in 0.0f64..1.0,
            alpha_ff in 0.0f64..1.0,
            // Bit 0 zeroes `alpha_pi`, bit 1 `alpha_ff`: zero activity
            // takes the skip paths.
            zeroed in 0u8..4,
        ) {
            static LIB: std::sync::OnceLock<CellLibrary> = std::sync::OnceLock::new();
            let lib = LIB.get_or_init(lib);
            let alpha_pi = if zeroed & 1 != 0 { 0.0 } else { alpha_pi };
            let alpha_ff = if zeroed & 2 != 0 { 0.0 } else { alpha_ff };
            let n = random_netlist(lib, seed, gates);
            prop_assert_eq!(
                bits(&propagate_activity(&n, lib, alpha_pi, alpha_ff)),
                bits(&reference_propagate_activity(&n, lib, alpha_pi, alpha_ff))
            );
        }
    }

    #[test]
    fn inverter_preserves_activity() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.gate(CellFunction::Inv, &[x]);
        let n = b.finish();
        let act = propagate_activity(&n, &lib, 0.2, 0.1);
        assert!((act[y.0 as usize].alpha - 0.2).abs() < 1e-12);
        assert!((act[y.0 as usize].p_one - 0.5).abs() < 1e-12);
    }

    #[test]
    fn and_gate_attenuates_activity() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.input();
        let z = b.gate(CellFunction::And2, &[x, y]);
        let n = b.finish();
        let act = propagate_activity(&n, &lib, 0.2, 0.1);
        let a = act[z.0 as usize];
        // P(1) = 0.25; alpha = 0.2*0.5 + 0.2*0.5 = 0.2... per Boolean
        // difference: flipping x matters only when y=1 (p=0.5).
        assert!((a.p_one - 0.25).abs() < 1e-12);
        assert!((a.alpha - 0.2).abs() < 1e-12);
    }

    #[test]
    fn xor_gate_propagates_fully() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let y = b.input();
        let z = b.gate(CellFunction::Xor2, &[x, y]);
        let n = b.finish();
        let act = propagate_activity(&n, &lib, 0.2, 0.1);
        // XOR flips whenever any input flips: alpha = 0.4.
        assert!((act[z.0 as usize].alpha - 0.4).abs() < 1e-12);
    }

    #[test]
    fn flop_outputs_get_ff_alpha_and_clock_gets_two() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let x = b.input();
        let q = b.dff(x);
        let n = b.finish();
        let act = propagate_activity(&n, &lib, 0.2, 0.1);
        assert!((act[q.0 as usize].alpha - 0.1).abs() < 1e-12);
        let clk = n.clock.expect("clock");
        assert!((act[clk.0 as usize].alpha - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deep_logic_activity_stays_bounded() {
        let lib = lib();
        let mut b = NetlistBuilder::new(&lib, "t");
        let ins = b.inputs(16);
        let out = b.xor_tree(&ins);
        let n = b.finish();
        let act = propagate_activity(&n, &lib, 0.3, 0.1);
        let a = act[out.0 as usize].alpha;
        assert!(a <= 2.0 + 1e-12, "alpha {a} exceeds cap");
        assert!(a > 0.3, "xor tree should amplify activity");
    }
}
