//! The cross-stage audit: end-to-end consistency checks over a completed
//! pipeline run.
//!
//! [`check_pipeline`] re-derives everything the flow claims from first
//! principles and compares, in this order:
//!
//! 1. the mapped circuit is structurally valid
//!    ([`DominoCircuit::validate`](soi_domino_ir::DominoCircuit::validate));
//! 2. the circuit is PBE-safe in the worst case: no committed discharge
//!    point is left unprotected ([`soi_pbe::hazard::check`]);
//! 3. the transistor accounting is consistent: the reported
//!    [`TransistorCounts`] match a recount from the circuit, and the
//!    repo's accounting invariant `total == logic + discharge` holds.
//!    (The paper's tables tally `T_clock` as a *separate, overlapping*
//!    column — clock devices are already inside the per-gate overhead that
//!    `logic` includes — so the invariant here is deliberately **not**
//!    `total == logic + discharge + clock`.)
//! 4. the mapped circuit computes the source netlist's function:
//!    [`soi_cec::check_mapped`] proves it, by the certificate the mapper
//!    recorded or, when that fails, by the SAT sweep.
//!
//! Every check is exact; nothing is sampled. Each violation is a distinct
//! [`AuditError`] variant, so a fault-injection harness can assert not
//! just *that* corruption is caught but *which* check catches it.

use std::error::Error;
use std::fmt;

use soi_cec::{CecError, CecOptions, CecReport, CecVerdict, Counterexample};
use soi_domino_ir::{DominoError, TransistorCounts};
use soi_mapper::{MappingResult, PartialMapping};
use soi_netlist::Network;
use soi_pbe::hazard::{self, Hazard};
use soi_trace::TraceHandle;

/// A violated cross-stage invariant.
#[derive(Debug)]
pub enum AuditError {
    /// The mapped circuit is structurally invalid.
    CircuitInvalid(DominoError),
    /// The circuit's discharge set leaves committed points unprotected.
    Hazards {
        /// Number of unprotected points.
        count: usize,
        /// The first of them.
        first: Hazard,
    },
    /// The reported counts disagree with a recount from the circuit.
    CountsMismatch {
        /// Counts recomputed from the circuit.
        recomputed: TransistorCounts,
        /// Counts the mapping result reported.
        reported: TransistorCounts,
    },
    /// The accounting identity `total == logic + discharge` is broken.
    AccountingBroken {
        /// The recomputed counts that violate the identity.
        counts: TransistorCounts,
    },
    /// The equivalence checker could not compare the circuit with the
    /// source (mismatched interfaces, typically a corrupted circuit).
    Cec(CecError),
    /// The mapped circuit is **not** equivalent to the source netlist: a
    /// replay-confirmed counterexample.
    NotEquivalent(Counterexample),
    /// The equivalence proof left output miters open within its conflict
    /// budget — a failure, never a pass.
    Unproven {
        /// Number of unproven output miters.
        unproven: usize,
    },
    /// A salvaged [`PartialMapping`] violates its own accounting
    /// invariants.
    PartialInconsistent {
        /// The violated invariant.
        what: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::CircuitInvalid(e) => write!(f, "mapped circuit is invalid: {e}"),
            AuditError::Hazards { count, first } => write!(
                f,
                "{count} PBE-susceptible junction(s) left unprotected, first at gate {} junction {}",
                first.gate, first.junction
            ),
            AuditError::CountsMismatch {
                recomputed,
                reported,
            } => write!(
                f,
                "transistor accounting drifted: recomputed [{recomputed}] != reported [{reported}]"
            ),
            AuditError::AccountingBroken { counts } => write!(
                f,
                "accounting identity total == logic + discharge broken: [{counts}]"
            ),
            AuditError::Cec(e) => write!(f, "equivalence check failed: {e}"),
            AuditError::NotEquivalent(cex) => write!(
                f,
                "mapped circuit differs from the source at output {} (source {}, circuit {})",
                cex.output, cex.lhs, cex.rhs
            ),
            AuditError::Unproven { unproven } => {
                write!(f, "{unproven} output miter(s) unproven within budget")
            }
            AuditError::PartialInconsistent { what } => {
                write!(f, "salvaged partial mapping is inconsistent: {what}")
            }
        }
    }
}

impl Error for AuditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuditError::CircuitInvalid(e) => Some(e),
            AuditError::Cec(e) => Some(e),
            _ => None,
        }
    }
}

/// Runs every cross-stage check; see the module docs for the list. The
/// report is the equivalence proof's: which path decided it, and what
/// it cost.
///
/// # Errors
///
/// Returns the first violated invariant as an [`AuditError`].
pub fn check_pipeline(
    network: &Network,
    result: &MappingResult,
    opts: &CecOptions,
) -> Result<CecReport, AuditError> {
    audit(network, result, opts, TraceHandle::off())
}

/// [`check_pipeline`] with the equivalence proof traced
/// ([`soi_cec::check_mapped_traced`]).
pub(crate) fn audit(
    network: &Network,
    result: &MappingResult,
    opts: &CecOptions,
    trace: TraceHandle,
) -> Result<CecReport, AuditError> {
    // 1. Structural validity of the mapped circuit.
    result
        .circuit
        .validate()
        .map_err(AuditError::CircuitInvalid)?;

    // 2. PBE safety.
    let hazards = hazard::check(&result.circuit);
    if let Some(first) = hazards.first() {
        return Err(AuditError::Hazards {
            count: hazards.len(),
            first: first.clone(),
        });
    }

    // 3. Transistor accounting.
    let recomputed = result.circuit.counts();
    if recomputed != result.counts {
        return Err(AuditError::CountsMismatch {
            recomputed,
            reported: result.counts,
        });
    }
    if recomputed.total != recomputed.logic + recomputed.discharge {
        return Err(AuditError::AccountingBroken { counts: recomputed });
    }

    // 4. The mapped circuit computes the source function.
    let report = soi_cec::check_mapped_traced(network, &result.circuit, opts, trace)
        .map_err(AuditError::Cec)?;
    match report.verdict {
        CecVerdict::Equivalent => Ok(report),
        CecVerdict::NotEquivalent(cex) => Err(AuditError::NotEquivalent(cex)),
        CecVerdict::Undecided { unproven } => Err(AuditError::Unproven { unproven }),
    }
}

/// Checks a salvaged [`PartialMapping`]'s internal accounting: unit counts
/// are conserved and the frontier is exactly the cut between completed and
/// unfinished work.
///
/// Invariants checked:
///
/// * `completed ≤ total`;
/// * the frontier is empty exactly when every unit completed (an interrupt
///   observed after the last unit finished);
/// * the frontier fits in the unfinished remainder, and its indices are
///   in range, sorted, and distinct.
///
/// # Errors
///
/// Returns [`AuditError::PartialInconsistent`] naming the first violated
/// invariant.
pub fn check_partial(partial: &PartialMapping) -> Result<(), AuditError> {
    let fail = |what: String| Err(AuditError::PartialInconsistent { what });
    let total = partial.total_units();
    let completed = partial.completed_units();
    if completed > total {
        return fail(format!("{completed} completed units out of {total}"));
    }
    let frontier = partial.frontier();
    if frontier.is_empty() != (completed == total) {
        return fail(format!(
            "frontier of {} units with {completed}/{total} completed",
            frontier.len()
        ));
    }
    if frontier.len() > total - completed {
        return fail(format!(
            "frontier of {} units exceeds the {} unfinished",
            frontier.len(),
            total - completed
        ));
    }
    if let Some(&u) = frontier.iter().find(|&&u| u >= total) {
        return fail(format!("frontier unit {u} out of range ({total} units)"));
    }
    if let Some(w) = frontier.windows(2).find(|w| w[0] >= w[1]) {
        return fail(format!("frontier not sorted-unique at {}..{}", w[0], w[1]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_cec::CecPath;
    use soi_domino_ir::GateId;
    use soi_mapper::{MapConfig, Mapper};

    fn mapped() -> (Network, MappingResult) {
        let mut n = Network::new("aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.and2(a, b);
        let f = n.nor2(ab, c);
        n.add_output("f", f);
        let result = Mapper::soi(MapConfig::default()).run(&n).expect("maps");
        (n, result)
    }

    #[test]
    fn clean_run_passes_by_certificate() {
        let (n, r) = mapped();
        let report = check_pipeline(&n, &r, &CecOptions::default()).expect("audit passes");
        assert_eq!(report.path, CecPath::Certificate);
        assert_eq!(report.sat_calls, 0);
    }

    #[test]
    fn stripped_protection_is_caught_as_hazard() {
        // The baseline mapper leans on post-inserted discharge transistors
        // (the SOI mapper often needs none, by construction), so its output
        // is the right victim for a protection-stripping fault.
        let mut n = Network::new("oa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let t = n.or2(a, b);
        let f = n.and2(t, c);
        n.add_output("f", f);
        let mut r = Mapper::baseline(MapConfig::default())
            .run(&n)
            .expect("maps");
        let mut stripped = false;
        for id in 0..r.circuit.gate_count() {
            let id = GateId::from_index(id);
            if !r.circuit.gate(id).discharge().is_empty() {
                r.circuit.set_discharge_unchecked(id, &[]);
                stripped = true;
            }
        }
        assert!(stripped, "the bulk-typical OA mapping needs protection");
        // Keep the reported counts in sync so the *hazard* check is what
        // trips, not the accounting comparison.
        r.counts = r.circuit.counts();
        assert!(matches!(
            check_pipeline(&n, &r, &CecOptions::default()),
            Err(AuditError::Hazards { .. })
        ));
    }

    #[test]
    fn stale_counts_are_caught() {
        let (n, mut r) = mapped();
        r.counts.total += 1;
        assert!(matches!(
            check_pipeline(&n, &r, &CecOptions::default()),
            Err(AuditError::CountsMismatch { .. })
        ));
    }

    #[test]
    fn an_inverted_output_is_refuted_with_a_counterexample() {
        let (n, mut r) = mapped();
        let inverted = r.circuit.outputs()[0].inverted;
        r.circuit.set_output_inverted(0, !inverted);
        // Keep the books in sync (the boundary inverter is counted) so the
        // equivalence proof is what trips.
        r.counts = r.circuit.counts();
        let err = check_pipeline(&n, &r, &CecOptions::default()).unwrap_err();
        let AuditError::NotEquivalent(cex) = err else {
            panic!("expected a refutation, got {err}");
        };
        let source = n.simulate(&cex.inputs).unwrap();
        let circuit = r.circuit.evaluate(&cex.inputs).unwrap();
        assert_eq!(source[cex.output], cex.lhs);
        assert_eq!(circuit[cex.output], cex.rhs);
        assert_ne!(cex.lhs, cex.rhs);
    }

    #[test]
    fn a_circuit_with_the_wrong_interface_cannot_be_compared() {
        let (n, mut r) = mapped();
        let (_, other) = {
            let mut m = Network::new("wide");
            let inputs: Vec<_> = (0..4).map(|i| m.add_input(format!("i{i}"))).collect();
            let g = m.and2(inputs[0], inputs[3]);
            m.add_output("f", g);
            let result = Mapper::soi(MapConfig::default()).run(&m).expect("maps");
            (m, result)
        };
        r.circuit = other.circuit;
        r.counts = other.counts;
        assert!(matches!(
            check_pipeline(&n, &r, &CecOptions::default()),
            Err(AuditError::Cec(_))
        ));
    }
}
