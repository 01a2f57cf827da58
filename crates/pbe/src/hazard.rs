//! Static PBE-safety checking.
//!
//! A mapped circuit is *PBE-safe* when every committed discharge point of
//! every gate carries a pre-discharge transistor. The body simulator
//! ([`bodysim`](crate::bodysim)) validates the same property dynamically;
//! this checker is the fast structural version used in tests and as a
//! post-mapping assertion.

use std::fmt;

use soi_domino_ir::{DominoCircuit, GateId, JunctionRef};

use crate::points;

/// A PBE hazard: a junction that can float high and later be yanked low,
/// with no pre-discharge transistor protecting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// The gate containing the junction.
    pub gate: GateId,
    /// The unprotected junction.
    pub junction: JunctionRef,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate {}: unprotected junction {}",
            self.gate, self.junction
        )
    }
}

/// Returns every hazard in the circuit (empty when PBE-safe).
///
/// # Example
///
/// ```rust
/// use soi_domino_ir::{DominoCircuit, Pdn, Signal};
/// use soi_pbe::{hazard, postprocess};
///
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
/// assert_eq!(hazard::check(&c).len(), 1);
/// postprocess::insert_discharge(&mut c);
/// assert!(hazard::is_safe(&c));
/// ```
pub fn check(circuit: &DominoCircuit) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    let mut analyzer = points::Analyzer::default();
    for (id, gate) in circuit.iter() {
        analyzer.run(gate.pdn());
        for &junction in analyzer.committed() {
            if !gate.discharge().contains(&junction) {
                hazards.push(Hazard { gate: id, junction });
            }
        }
    }
    hazards
}

/// Whether the circuit has no PBE hazards.
pub fn is_safe(circuit: &DominoCircuit) -> bool {
    check(circuit).is_empty()
}

/// Returns discharge transistors that protect nothing (attached to junctions
/// the analysis does not require) — useful to assert mappers are not
/// over-protecting.
pub fn redundant_discharge(circuit: &DominoCircuit) -> Vec<Hazard> {
    let mut redundant = Vec::new();
    let mut analyzer = points::Analyzer::default();
    for (id, gate) in circuit.iter() {
        analyzer.run(gate.pdn());
        for &junction in gate.discharge() {
            if !analyzer.committed().contains(&junction) {
                redundant.push(Hazard { gate: id, junction });
            }
        }
    }
    redundant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess;
    use soi_domino_ir::{Pdn, Signal};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    fn risky_circuit() -> DominoCircuit {
        DominoCircuit::single_gate(
            (0..4).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![
                Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
                t(3),
            ]),
        )
    }

    #[test]
    fn detects_every_committed_point() {
        let c = risky_circuit();
        // (A*B + C) on top of D: A-B junction + stack bottom commit.
        assert_eq!(check(&c).len(), 2);
        assert!(!is_safe(&c));
    }

    #[test]
    fn postprocess_clears_hazards() {
        let mut c = risky_circuit();
        postprocess::insert_discharge(&mut c);
        assert!(is_safe(&c));
        assert!(redundant_discharge(&c).is_empty());
    }

    #[test]
    fn partial_protection_reports_remainder() {
        let mut c = risky_circuit();
        let needed = points::analyze(c.gate(GateId::from_index(0)).pdn()).committed;
        c.set_discharge(GateId::from_index(0), &needed[..1]);
        assert_eq!(check(&c).len(), 1);
    }

    #[test]
    fn over_protection_is_flagged() {
        let mut c = DominoCircuit::single_gate(
            (0..2).map(|i| format!("i{i}")).collect(),
            Pdn::series(vec![t(0), t(1)]),
        );
        // A pure series chain needs nothing; protecting it is redundant.
        c.set_discharge(GateId::from_index(0), &[JunctionRef::new(0, 0)]);
        assert!(is_safe(&c));
        assert_eq!(redundant_discharge(&c).len(), 1);
    }

    #[test]
    fn safe_gate_passes() {
        let c = DominoCircuit::single_gate(
            (0..3).map(|i| format!("i{i}")).collect(),
            Pdn::parallel(vec![t(0), t(1), t(2)]),
        );
        assert!(is_safe(&c));
    }
}
