//! Discharge-transistor insertion as a post-processing step.
//!
//! This is the bulk-CMOS-style flow the paper argues against: map first
//! (PBE-blind), then walk every gate and attach a pmos pre-discharge
//! transistor to each junction that the point calculus marks *committed*.
//! Grounded-bottom potential points are absolved — every evaluate cycle
//! drains them through the foot.
//!
//! Both baselines (`Domino_Map` and `RS_Map`) finish with this pass; the
//! paper's own algorithm instead folds the count into the mapping cost and
//! produces circuits that need far fewer of these transistors.

use soi_domino_ir::DominoCircuit;

use crate::points;

/// Inserts the required pre-discharge transistors into every gate of the
/// circuit, replacing any existing discharge set. Returns the number of
/// transistors inserted.
///
/// # Example
///
/// ```rust
/// use soi_domino_ir::{DominoCircuit, Pdn, Signal};
/// use soi_pbe::postprocess;
///
/// // (A+B)*C with the parallel stack on top needs one discharge transistor.
/// let mut c = DominoCircuit::single_gate(
///     vec!["a".into(), "b".into(), "c".into()],
///     Pdn::series(vec![
///         Pdn::parallel(vec![
///             Pdn::transistor(Signal::input(0)),
///             Pdn::transistor(Signal::input(1)),
///         ]),
///         Pdn::transistor(Signal::input(2)),
///     ]),
/// );
/// let added = postprocess::insert_discharge(&mut c);
/// assert_eq!(added, 1);
/// assert_eq!(c.counts().discharge, 1);
/// ```
pub fn insert_discharge(circuit: &mut DominoCircuit) -> u32 {
    insert_discharge_traced(circuit, soi_trace::TraceHandle::off())
}

/// [`insert_discharge`] with an instrumentation handle: reports the total
/// inserted count through [`soi_trace::Counter::DischargesInserted`] so
/// observability tests can balance it against the circuit's accounting.
/// With `TraceHandle::off()` this is exactly `insert_discharge`.
pub fn insert_discharge_traced(circuit: &mut DominoCircuit, trace: soi_trace::TraceHandle) -> u32 {
    let mut added = 0;
    let mut analyzer = points::Analyzer::default();
    for idx in 0..circuit.gate_count() {
        let id = soi_domino_ir::GateId::from_index(idx);
        analyzer.run(circuit.gate(id).pdn());
        added += analyzer.committed().len() as u32;
        circuit.set_discharge(id, analyzer.committed());
    }
    trace.count(soi_trace::Counter::DischargesInserted, u64::from(added));
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{DominoGate, Pdn, Signal};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    #[test]
    fn multi_gate_insertion() {
        let mut c = DominoCircuit::new((0..6).map(|i| format!("i{i}")).collect());
        // gate 0: (a+b)*c — 1 committed point.
        let g0 = c.add_gate(DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1)]),
            t(2),
        ])));
        // gate 1: pure parallel over gate 0's output and d — nothing.
        let _g1 = c.add_gate(DominoGate::footed(Pdn::parallel(vec![
            Pdn::transistor(Signal::Gate(g0)),
            t(3),
        ])));
        let added = insert_discharge(&mut c);
        assert_eq!(added, 1);
        assert_eq!(c.counts().discharge, 1);
        c.validate().unwrap();
    }

    #[test]
    fn insertion_is_idempotent() {
        let mut c = DominoCircuit::single_gate(
            (0..4).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![
                Pdn::parallel(vec![t(0), t(1)]),
                Pdn::parallel(vec![t(2), t(3)]),
            ]),
        );
        let first = insert_discharge(&mut c);
        let second = insert_discharge(&mut c);
        assert_eq!(first, second);
        assert_eq!(c.counts().discharge, first);
    }

    #[test]
    fn traced_insertion_reports_the_inserted_count() {
        let (rec, trace) = soi_trace::Recorder::install();
        let mut c = DominoCircuit::single_gate(
            (0..4).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![
                Pdn::parallel(vec![t(0), t(1)]),
                Pdn::parallel(vec![t(2), t(3)]),
            ]),
        );
        let added = insert_discharge_traced(&mut c, trace);
        assert_eq!(
            rec.counter(soi_trace::Counter::DischargesInserted),
            u64::from(added)
        );
        assert_eq!(u64::from(c.counts().discharge), u64::from(added));
    }

    #[test]
    fn function_is_unchanged() {
        let mut c = DominoCircuit::single_gate(
            (0..4).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2), t(3)]),
        );
        let before: Vec<_> = (0..16u32)
            .map(|bits| {
                let v: Vec<bool> = (0..4).map(|k| bits & (1 << k) != 0).collect();
                c.evaluate(&v).unwrap()
            })
            .collect();
        insert_discharge(&mut c);
        for (bits, expect) in before.iter().enumerate() {
            let v: Vec<bool> = (0..4).map(|k| bits & (1 << k) != 0).collect();
            assert_eq!(&c.evaluate(&v).unwrap(), expect);
        }
    }
}
