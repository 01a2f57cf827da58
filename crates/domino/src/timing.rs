//! First-order Elmore delay estimation for domino gates.
//!
//! The paper deliberately maps with *counts* (transistors, levels) and
//! leaves "technology-specific optimization" to a later step, noting that
//! reordering "changes delay, but since diffusion capacitances are
//! relatively low, we ignore them as a first order approximation" and that
//! its wide/tall pull-down networks (`W = 5`, `H = 8`) "are valid for SOI
//! due to the reduced source and drain capacitances". This module provides
//! the quantitative backing for both remarks: an RC (Elmore) estimate of a
//! gate's evaluate delay from its pull-down topology under a set of
//! [`TechParams`], with bulk-CMOS and SOI parameter presets that differ in
//! junction capacitance.
//!
//! The model is first-order on purpose: one on-resistance per conducting
//! device, lumped junction/gate/wire capacitances per net, worst single
//! conducting finger through every parallel section (the slowest realistic
//! discharge path), and a fixed output-stage term plus fanout loading. It
//! is meant for *relative* comparisons — bulk vs SOI, area vs depth
//! mappings, protected vs unprotected — not for signoff.

use crate::{DominoCircuit, GateRef, JunctionRef, PdnGraph, PdnNode, PdnRef, Signal};

/// Technology parameters for the RC model. Units are arbitrary but
/// consistent (think kΩ, fF, ps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// On-resistance of one nmos device.
    pub r_on: f64,
    /// Gate capacitance presented by one transistor input.
    pub c_gate: f64,
    /// Source/drain junction capacitance per device terminal — the knob
    /// that separates bulk from SOI.
    pub c_junction: f64,
    /// Fixed wiring capacitance per internal net.
    pub c_wire: f64,
    /// Output-stage delay (inverter + keeper fight), added per gate.
    pub output_stage: f64,
    /// Incremental output delay per fanout load.
    pub load_factor: f64,
}

impl TechParams {
    /// Partially-depleted SOI: junction capacitance roughly a quarter of
    /// bulk (shallow-trench-isolated bodies over buried oxide).
    pub fn soi() -> TechParams {
        TechParams {
            r_on: 1.0,
            c_gate: 1.0,
            c_junction: 0.25,
            c_wire: 0.3,
            output_stage: 3.0,
            load_factor: 0.4,
        }
    }

    /// Bulk CMOS: full junction capacitance to the substrate.
    pub fn bulk() -> TechParams {
        TechParams {
            c_junction: 1.0,
            ..TechParams::soi()
        }
    }
}

/// Elmore estimate of one gate's evaluate delay: the worst root-to-ground
/// discharge path of the pull-down network (one conducting finger per
/// parallel section), with every traversed net's capacitance charged
/// through the resistance below it, plus the output stage and fanout
/// loading.
///
/// Pre-discharge transistors add junction capacitance to the nets they
/// protect — the "slight performance penalty" the paper accepts (§VI
/// footnote) and the reason `SOI_Domino_Map` minimizes their number.
pub fn gate_delay<'a>(gate: impl Into<GateRef<'a>>, fanout: usize, tech: &TechParams) -> f64 {
    let gate = gate.into();
    let graph = gate.pdn().flatten();
    // Capacitance per net.
    let mut cap = vec![tech.c_wire; graph.net_count()];
    for t in &graph.transistors {
        cap[t.upper.index()] += tech.c_junction;
        cap[t.lower.index()] += tech.c_junction;
    }
    for junction in gate.discharge() {
        let net = graph.junction_net(junction).expect("validated junction");
        cap[net.index()] += tech.c_junction;
    }
    // The dynamic node carries the precharge and keeper junctions and the
    // output inverter's gate.
    cap[PdnGraph::TOP.index()] += 2.0 * tech.c_junction + 2.0 * tech.c_gate;
    // The foot carries the n-clock junction when footed.
    if gate.is_footed() {
        cap[PdnGraph::FOOT.index()] += tech.c_junction;
    }

    let foot_r = if gate.is_footed() { tech.r_on } else { 0.0 };
    let (delay, r) = worst_path(gate.pdn(), &graph, &cap, tech, foot_r);
    // The dynamic node itself discharges through the full path resistance
    // (the foot's is already folded into the walk's starting resistance).
    let top_term = cap[PdnGraph::TOP.index()] * r;
    delay + top_term + tech.output_stage + tech.load_factor * fanout as f64
}

/// Walks the PDN tree bottom-up along the worst conducting finger.
/// Returns `(Σ C·R_below, total path resistance including the start)`.
fn worst_path(
    pdn: PdnRef<'_>,
    graph: &PdnGraph,
    cap: &[f64],
    tech: &TechParams,
    r_start: f64,
) -> (f64, f64) {
    match pdn.root() {
        PdnNode::Transistor(_) => (0.0, r_start + tech.r_on),
        PdnNode::Parallel(children) => {
            let mut worst = (0.0, r_start + tech.r_on);
            for child in children {
                let candidate = worst_path(child, graph, cap, tech, r_start);
                if candidate.0 + candidate.1 > worst.0 + worst.1 {
                    worst = candidate;
                }
            }
            worst
        }
        PdnNode::Series(children) => {
            // Bottom to top: resistance accumulates; every junction net's
            // capacitance is charged through the resistance below it.
            let children: Vec<PdnRef<'_>> = children.collect();
            let mut delay = 0.0;
            let mut r = r_start;
            for (i, child) in children.into_iter().enumerate().rev() {
                let (d, r_after) = worst_path(child, graph, cap, tech, r);
                delay += d;
                r = r_after;
                if i > 0 {
                    // Net above this child: junction (i - 1) of this series.
                    let junction = JunctionRef::new(pdn.offset(), (i - 1) as u32);
                    let net = graph
                        .junction_net(&junction)
                        .expect("series junction exists");
                    delay += cap[net.index()] * r;
                }
            }
            (delay, r)
        }
    }
}

/// Per-gate delays and the critical path of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Evaluate delay of each gate.
    pub gate_delay: Vec<f64>,
    /// Arrival time at each gate output (inputs arrive at 0).
    pub arrival: Vec<f64>,
    /// The critical-path delay over all primary outputs.
    pub critical: f64,
}

/// Static timing over the domino circuit: arrival at a gate is the latest
/// feeding arrival plus the gate's own evaluate delay.
pub fn analyze(circuit: &DominoCircuit, tech: &TechParams) -> TimingReport {
    let mut fanouts = vec![0usize; circuit.gate_count()];
    for (_, gate) in circuit.iter() {
        for signal in gate.pdn().signals() {
            if let Signal::Gate(g) = signal {
                fanouts[g.index()] += 1;
            }
        }
    }
    for binding in circuit.outputs() {
        fanouts[binding.gate.index()] += 1;
    }

    let mut delays = Vec::with_capacity(circuit.gate_count());
    let mut arrival = Vec::with_capacity(circuit.gate_count());
    for (id, gate) in circuit.iter() {
        let d = gate_delay(gate, fanouts[id.index()], tech);
        let mut at = 0.0f64;
        for signal in gate.pdn().signals() {
            if let Signal::Gate(g) = signal {
                at = at.max(arrival[g.index()]);
            }
        }
        delays.push(d);
        arrival.push(at + d);
    }
    let critical = circuit
        .outputs()
        .iter()
        .map(|b| arrival[b.gate.index()])
        .fold(0.0, f64::max);
    TimingReport {
        gate_delay: delays,
        arrival,
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DominoGate, Pdn};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    #[test]
    fn taller_stacks_are_slower() {
        let tech = TechParams::soi();
        let mut prev = 0.0;
        for height in 1..=8 {
            let pdn = Pdn::series((0..height).map(t).collect::<Vec<_>>());
            let gate = DominoGate::footed(if height == 1 { t(0) } else { pdn });
            let d = gate_delay(&gate, 1, &tech);
            assert!(d > prev, "height {height}: {d} !> {prev}");
            prev = d;
        }
    }

    #[test]
    fn wider_parallel_adds_only_capacitance() {
        let tech = TechParams::soi();
        let narrow = DominoGate::footed(Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(4)]));
        let wide = DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1), t(2), t(3)]),
            t(4),
        ]));
        let dn = gate_delay(&narrow, 1, &tech);
        let dw = gate_delay(&wide, 1, &tech);
        assert!(
            dw > dn,
            "junction cap of extra fingers must show: {dw} !> {dn}"
        );
        // ... but far less than doubling the height would.
        let tall = DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1)]),
            t(4),
            t(2),
            t(3),
        ]));
        let dt = gate_delay(&tall, 1, &tech);
        assert!(dw - dn < dt - dn);
    }

    #[test]
    fn discharge_device_costs_delay() {
        let tech = TechParams::soi();
        let pdn = Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]);
        let bare = DominoGate::footed(pdn.clone());
        let mut protected = DominoGate::footed(pdn);
        protected.add_discharge(JunctionRef::new(0, 0));
        assert!(gate_delay(&protected, 1, &tech) > gate_delay(&bare, 1, &tech));
    }

    #[test]
    fn soi_tall_stack_penalty_smaller_than_bulk() {
        // The paper's §VI justification for W=5/H=8: tall stacks cost much
        // less in SOI because junction capacitance is low.
        let short = DominoGate::footed(Pdn::series(vec![t(0), t(1)]));
        let tall = DominoGate::footed(Pdn::series((0..8).map(t).collect::<Vec<_>>()));
        let soi_penalty =
            gate_delay(&tall, 1, &TechParams::soi()) / gate_delay(&short, 1, &TechParams::soi());
        let bulk_penalty =
            gate_delay(&tall, 1, &TechParams::bulk()) / gate_delay(&short, 1, &TechParams::bulk());
        assert!(
            soi_penalty < bulk_penalty,
            "soi {soi_penalty:.2}x vs bulk {bulk_penalty:.2}x"
        );
    }

    #[test]
    fn footless_is_faster() {
        let pdn = Pdn::series(vec![t(0), t(1)]);
        let tech = TechParams::soi();
        let footed = gate_delay(&DominoGate::footed(pdn.clone()), 1, &tech);
        let footless = gate_delay(&DominoGate::footless(pdn), 1, &tech);
        assert!(footless < footed);
    }

    #[test]
    fn fanout_loads_the_output() {
        let gate = DominoGate::footed(t(0));
        let tech = TechParams::soi();
        assert!(gate_delay(&gate, 4, &tech) > gate_delay(&gate, 1, &tech));
    }

    #[test]
    fn critical_path_accumulates() {
        let tech = TechParams::soi();
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let g0 = c.add_gate(DominoGate::footed(Pdn::series(vec![t(0), t(1)])));
        let g1 = c.add_gate(DominoGate::footed(Pdn::series(vec![
            Pdn::transistor(Signal::Gate(g0)),
            t(1),
        ])));
        c.add_output("f", g1);
        let report = analyze(&c, &tech);
        assert_eq!(report.gate_delay.len(), 2);
        assert!(report.arrival[1] > report.arrival[0]);
        assert!((report.critical - report.arrival[1]).abs() < 1e-9);
        assert!((report.arrival[1] - report.arrival[0] - report.gate_delay[1]).abs() < 1e-9);
    }

    /// A chain of `depth` two-input gates, each feeding the next.
    fn chain(depth: usize) -> DominoCircuit {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let mut prev = c.add_gate(DominoGate::footed(Pdn::series(vec![t(0), t(1)])));
        for _ in 1..depth {
            prev = c.add_gate(DominoGate::footed(Pdn::series(vec![
                Pdn::transistor(Signal::Gate(prev)),
                t(1),
            ])));
        }
        c.add_output("f", prev);
        c
    }

    #[test]
    fn critical_path_is_strictly_monotone_in_depth() {
        for tech in [TechParams::soi(), TechParams::bulk()] {
            let mut prev = 0.0;
            for depth in 1..=8 {
                let report = analyze(&chain(depth), &tech);
                assert!(
                    report.critical > prev,
                    "depth {depth}: critical {} did not grow past {prev}",
                    report.critical
                );
                // Each added level costs at least one full gate delay.
                assert!(report.critical >= depth as f64 * report.gate_delay[0]);
                prev = report.critical;
            }
        }
    }

    #[test]
    fn arrival_times_are_monotone_along_the_chain() {
        let report = analyze(&chain(6), &TechParams::soi());
        for w in report.arrival.windows(2) {
            assert!(w[1] > w[0], "arrival must grow along the chain: {w:?}");
        }
        // Arrival at any gate is never before its own evaluate delay.
        for (at, d) in report.arrival.iter().zip(&report.gate_delay) {
            assert!(at >= d);
        }
    }

    #[test]
    fn stack_order_changes_delay() {
        // The paper's first-order approximation ignores this; the model
        // quantifies it: the wide section near the dynamic node puts its
        // junction capacitance behind more resistance.
        let tech = TechParams::bulk();
        let stack_top = DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1), t(2)]),
            t(3),
        ]));
        let stack_bottom = DominoGate::footed(Pdn::series(vec![
            t(3),
            Pdn::parallel(vec![t(0), t(1), t(2)]),
        ]));
        let d_top = gate_delay(&stack_top, 1, &tech);
        let d_bottom = gate_delay(&stack_bottom, 1, &tech);
        assert!(
            (d_top - d_bottom).abs() > 1e-9,
            "ordering should move the estimate"
        );
    }
}
