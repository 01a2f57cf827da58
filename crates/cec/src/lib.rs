//! # soi-cec
//!
//! Scale-proof verification for the SOI domino mapping flow: SAT-based
//! combinational equivalence checking (CEC) of mapped circuits against
//! their source networks, and SAT-formulated parasitic-bipolar safety
//! proofs — self-contained, no external solver.
//!
//! The crate stacks four layers:
//!
//! * [`cnf`] + [`solver`] — packed literals and a CDCL SAT solver with
//!   two watched literals, first-UIP clause learning, activity-ordered
//!   decisions, phase saving, restarts, incremental assumption queries,
//!   conflict budgets (budget exhaustion is a typed
//!   [`SatResult::Unknown`], never a wrong answer) and an
//!   allocation-keeping reset for reuse across queries;
//! * [`encode`] — Tseitin CNF construction with constant folding and
//!   structural-hash sharing for all eight netlist gate kinds, each gate
//!   definition stored once and read by a whole-formula solver and a
//!   reusable cone solver;
//! * [`wordsim`] — 64-lane bit-parallel simulation producing per-node
//!   signatures from guided (walking-one/zero + corner) and seeded
//!   random vectors, with complement-aware canonical signatures;
//! * the checkers — [`check_networks`] sweeps a shared-input miter
//!   (simulation filters candidate-equivalent cones, structural hashing
//!   merges them for free, cone-local SAT queries on one reusable solver
//!   close what remains, every satisfying model of an internal pair is
//!   fed back as a simulation lane that filters later candidates, and
//!   every output counterexample is replayed through the scalar
//!   simulator before it is believed); [`check_mapped`] proves a mapped
//!   [`DominoCircuit`] against its source by checking the unate root
//!   every gate records as a certificate, with no SAT call, and falls
//!   back to lowering the circuit with [`lower::circuit_to_network`] and
//!   sweeping when the certificate is absent or fails; and [`pbe_sat`]
//!   decides junction excitability under declared input constraints by
//!   SAT: [`prune_discharge`] removes the pre-discharge transistors it
//!   proves unneeded and [`verify_safe_sat`] proves the rest of a
//!   circuit safe, with [`soi_pbe::excite`]'s bounded enumeration kept
//!   as their test oracle.
//!
//! Everything is instrumented through [`soi_trace`]: `cec_sat_calls`,
//! `cec_sim_filtered`, `conflicts`, `cec_refinements`, `cex_replays`,
//! `cec_certified_gates` and `cec_fallbacks`.

mod cec;
mod certify;
pub mod cnf;
pub mod encode;
pub mod lower;
pub mod pbe_sat;
pub mod solver;
pub mod wordsim;

pub use cec::{
    check_networks, check_networks_traced, CecError, CecOptions, CecPath, CecReport, CecVerdict,
    Counterexample,
};
pub use cnf::{Lit, Var};
pub use encode::{Encoder, NetworkLits};
pub use pbe_sat::{
    junction_excitability_sat, prune_discharge, verify_safe_sat, verify_safe_sat_traced,
    PbeSafetyReport,
};
pub use solver::{SatResult, Solver};

use soi_domino_ir::DominoCircuit;
use soi_netlist::Network;
use soi_trace::{Counter, Stage, TraceHandle};

/// Checks a mapped domino circuit against its source network.
///
/// A circuit that carries a root table ([`DominoCircuit::roots`], recorded
/// by every mapper) is proved by checking that table as a certificate, in
/// time linear in the circuit and with no SAT call: the source is
/// converted to its unate network again, the conversion is proved equal
/// to the source one 2-input gate at a time, each gate's pull-down
/// network is proved equal to the unate cone at its root by comparing
/// AND/OR normal forms, and each output must bind its driver's image.
/// Nothing in the table is trusted: when it is absent or any claim fails,
/// the circuit is lowered with [`lower::circuit_to_network`] and
/// [`check_networks`] sweeps the pair, exactly as for a hand-built
/// circuit. A certificate only ever proves equivalence, so every
/// [`CecVerdict::NotEquivalent`] comes from the sweep's replayed
/// counterexamples. [`CecReport::path`] records which path decided.
///
/// # Errors
///
/// See [`CecError`]; inequivalence is a verdict, not an error.
pub fn check_mapped(
    network: &Network,
    circuit: &DominoCircuit,
    opts: &CecOptions,
) -> Result<CecReport, CecError> {
    check_mapped_traced(network, circuit, opts, TraceHandle::off())
}

/// [`check_mapped`] with a trace handle: the certificate check runs in a
/// [`Stage::CecCertify`] span, which holds one span each for the
/// re-conversion ([`Stage::CecCertifyConvert`]), claim 1
/// ([`Stage::CecCertifySource`]), and claims 2 and 3
/// ([`Stage::CecCertifyGates`]), and counts `cec_certified_gates`, or one
/// `cec_fallbacks` before the sweep's own counters.
///
/// # Errors
///
/// See [`CecError`].
pub fn check_mapped_traced(
    network: &Network,
    circuit: &DominoCircuit,
    opts: &CecOptions,
    trace: TraceHandle,
) -> Result<CecReport, CecError> {
    let certified = {
        let _span = trace.span(Stage::CecCertify);
        certify::certify(network, circuit, trace)
    };
    if certified {
        trace.count(Counter::CecCertifiedGates, circuit.gate_count() as u64);
        let outputs = network.outputs().len();
        return Ok(CecReport {
            outputs_proved: outputs,
            ..CecReport::new(outputs, CecPath::Certificate)
        });
    }
    trace.count(Counter::CecFallbacks, 1);
    let lowered = lower::circuit_to_network(circuit);
    check_networks_traced(network, &lowered, opts, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{Pdn, Signal};

    /// Map-free smoke: a hand-built domino circuit for `(a + b) * c`
    /// checks against the network for the same function, and not against
    /// a different one.
    #[test]
    fn check_mapped_smoke() {
        let circuit = DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into()],
            Pdn::series(vec![
                Pdn::parallel(vec![
                    Pdn::transistor(Signal::input(0)),
                    Pdn::transistor(Signal::input(1)),
                ]),
                Pdn::transistor(Signal::input(2)),
            ]),
        );
        let mut good = Network::new("good");
        let a = good.add_input("a");
        let b = good.add_input("b");
        let c = good.add_input("c");
        let ab = good.or2(a, b);
        let f = good.and2(ab, c);
        good.add_output("f", f);
        let report = check_mapped(&good, &circuit, &CecOptions::default()).unwrap();
        assert!(report.is_equivalent(), "{report:?}");

        let mut bad = Network::new("bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let c = bad.add_input("c");
        let ab = bad.and2(a, b);
        let f = bad.or2(ab, c);
        bad.add_output("f", f);
        let report = check_mapped(&bad, &circuit, &CecOptions::default()).unwrap();
        assert!(matches!(report.verdict, CecVerdict::NotEquivalent(_)));
    }
}
