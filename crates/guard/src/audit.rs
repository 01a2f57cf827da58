//! The cross-stage audit: end-to-end consistency checks over a completed
//! pipeline run.
//!
//! [`check_pipeline`] re-derives everything the flow claims from first
//! principles and compares:
//!
//! 1. the unate network is functionally equivalent to the source netlist
//!    (randomized simulation, [`soi_unate::verify::equivalent`]);
//! 2. the mapped circuit is structurally valid
//!    ([`DominoCircuit::validate`](soi_domino_ir::DominoCircuit::validate));
//! 3. the circuit is PBE-safe: no committed discharge point is left
//!    unprotected ([`soi_pbe::hazard::check`]);
//! 4. the transistor accounting is consistent: the reported
//!    [`TransistorCounts`] match a recount from the circuit, and the
//!    repo's accounting invariant `total == logic + discharge` holds.
//!    (The paper's tables tally `T_clock` as a *separate, overlapping*
//!    column — clock devices are already inside the per-gate overhead that
//!    `logic` includes — so the invariant here is deliberately **not**
//!    `total == logic + discharge + clock`.)
//! 5. the mapped circuit computes the same function as the source netlist
//!    on corner and seeded-random vectors (differential simulation).
//!
//! Each violation is a distinct [`AuditError`] variant, so a fault-injection
//! harness can assert not just *that* corruption is caught but *which*
//! check catches it.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soi_domino_ir::{DominoError, TransistorCounts};
use soi_mapper::{MappingResult, PartialMapping};
use soi_netlist::{Network, NetworkError};
use soi_pbe::hazard;
use soi_unate::{verify, UnateError, UnateNetwork};

/// Effort and seeding knobs for the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Rounds of 64-wide random vectors for the unate-equivalence check.
    pub equivalence_rounds: usize,
    /// Number of seeded-random vectors for the differential functional
    /// check (corner vectors are always included on top).
    pub functional_vectors: usize,
    /// Seed for both randomized checks.
    pub seed: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            equivalence_rounds: 8,
            functional_vectors: 64,
            seed: 0x5001_d0e5,
        }
    }
}

/// A violated cross-stage invariant.
#[derive(Debug)]
pub enum AuditError {
    /// Random simulation distinguished the unate network from the source.
    UnateMismatch {
        /// How many rounds were tried before the mismatch surfaced.
        rounds: usize,
    },
    /// The equivalence checker itself failed (arity mismatch, typically a
    /// corrupted intermediate).
    Equivalence(UnateError),
    /// The mapped circuit is structurally invalid.
    CircuitInvalid(DominoError),
    /// The circuit's discharge set leaves committed points unprotected.
    Hazards {
        /// Number of unprotected points.
        count: usize,
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
    /// The mapped circuit disagrees with the source netlist on a vector.
    FunctionalMismatch {
        /// The distinguishing input vector.
        vector: Vec<bool>,
        /// What the source netlist computes.
        expected: Vec<bool>,
        /// What the mapped circuit computes.
        got: Vec<bool>,
    },
    /// Simulating the source netlist failed.
    NetworkSim(NetworkError),
    /// Evaluating the mapped circuit failed.
    CircuitEval(DominoError),
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
            AuditError::UnateMismatch { rounds } => write!(
                f,
                "unate network is not equivalent to the source netlist ({rounds} rounds)"
            ),
            AuditError::Equivalence(e) => write!(f, "equivalence check failed: {e}"),
            AuditError::CircuitInvalid(e) => write!(f, "mapped circuit is invalid: {e}"),
            AuditError::Hazards { count } => {
                write!(f, "{count} PBE-susceptible junction(s) left unprotected")
            }
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
            AuditError::FunctionalMismatch {
                vector,
                expected,
                got,
            } => write!(
                f,
                "mapped circuit disagrees with the source on {vector:?}: expected {expected:?}, got {got:?}"
            ),
            AuditError::NetworkSim(e) => write!(f, "source simulation failed: {e}"),
            AuditError::CircuitEval(e) => write!(f, "circuit evaluation failed: {e}"),
            AuditError::PartialInconsistent { what } => {
                write!(f, "salvaged partial mapping is inconsistent: {what}")
            }
        }
    }
}

impl Error for AuditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuditError::Equivalence(e) => Some(e),
            AuditError::CircuitInvalid(e) | AuditError::CircuitEval(e) => Some(e),
            AuditError::NetworkSim(e) => Some(e),
            _ => None,
        }
    }
}

/// What a passing audit actually exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Rounds of 64-wide vectors used by the equivalence check.
    pub equivalence_rounds: usize,
    /// Vectors used by the differential functional check.
    pub vectors_checked: usize,
}

/// Runs every cross-stage check; see the module docs for the list.
///
/// # Errors
///
/// Returns the first violated invariant as an [`AuditError`].
pub fn check_pipeline(
    network: &Network,
    unate: &UnateNetwork,
    result: &MappingResult,
    cfg: &AuditConfig,
) -> Result<AuditReport, AuditError> {
    // 1. Unate network still computes the source function.
    match verify::equivalent(network, unate, cfg.equivalence_rounds, cfg.seed) {
        Ok(true) => {}
        Ok(false) => {
            return Err(AuditError::UnateMismatch {
                rounds: cfg.equivalence_rounds,
            })
        }
        Err(e) => return Err(AuditError::Equivalence(e)),
    }

    // 2. Structural validity of the mapped circuit.
    result
        .circuit
        .validate()
        .map_err(AuditError::CircuitInvalid)?;

    // 3. PBE safety.
    let hazards = hazard::check(&result.circuit);
    if !hazards.is_empty() {
        return Err(AuditError::Hazards {
            count: hazards.len(),
        });
    }

    // 4. Transistor accounting.
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

    // 5. Differential function check: source netlist vs mapped circuit.
    let arity = network.inputs().len();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut vectors_checked = 0;
    let check = |vector: Vec<bool>| -> Result<(), AuditError> {
        let expected = network.simulate(&vector).map_err(AuditError::NetworkSim)?;
        let got = result
            .circuit
            .evaluate(&vector)
            .map_err(AuditError::CircuitEval)?;
        if expected != got {
            return Err(AuditError::FunctionalMismatch {
                vector,
                expected,
                got,
            });
        }
        Ok(())
    };
    check(vec![false; arity])?;
    check(vec![true; arity])?;
    vectors_checked += 2;
    for _ in 0..cfg.functional_vectors {
        check((0..arity).map(|_| rng.gen()).collect())?;
        vectors_checked += 1;
    }

    Ok(AuditReport {
        equivalence_rounds: cfg.equivalence_rounds,
        vectors_checked,
    })
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
    use soi_domino_ir::GateId;
    use soi_mapper::{MapConfig, Mapper};
    use soi_unate::{convert, Options};

    fn mapped() -> (Network, UnateNetwork, MappingResult) {
        let mut n = Network::new("aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.and2(a, b);
        let f = n.nor2(ab, c);
        n.add_output("f", f);
        let unate = convert(&n, &Options::default()).expect("converts");
        let result = Mapper::soi(MapConfig::default())
            .run_unate(&unate)
            .expect("maps");
        (n, unate, result)
    }

    #[test]
    fn clean_run_passes_and_reports_effort() {
        let (n, u, r) = mapped();
        let report = check_pipeline(&n, &u, &r, &AuditConfig::default()).expect("audit passes");
        assert_eq!(report.vectors_checked, 66);
        assert_eq!(report.equivalence_rounds, 8);
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
        let u = convert(&n, &Options::default()).expect("converts");
        let mut r = Mapper::baseline(MapConfig::default())
            .run_unate(&u)
            .expect("maps");
        let mut stripped = false;
        for id in 0..r.circuit.gate_count() {
            let gate = r.circuit.gate_mut(GateId::from_index(id));
            if !gate.discharge().is_empty() {
                gate.set_discharge_unchecked(Vec::new());
                stripped = true;
            }
        }
        assert!(stripped, "the bulk-typical OA mapping needs protection");
        // Keep the reported counts in sync so the *hazard* check is what
        // trips, not the accounting comparison.
        r.counts = r.circuit.counts();
        assert!(matches!(
            check_pipeline(&n, &u, &r, &AuditConfig::default()),
            Err(AuditError::Hazards { .. })
        ));
    }

    #[test]
    fn stale_counts_are_caught() {
        let (n, u, mut r) = mapped();
        r.counts.total += 1;
        assert!(matches!(
            check_pipeline(&n, &u, &r, &AuditConfig::default()),
            Err(AuditError::CountsMismatch { .. })
        ));
    }

    #[test]
    fn retargeted_output_is_caught_functionally_or_structurally() {
        let (n, u, mut r) = mapped();
        // Point the output at gate 0 instead of the final gate; with more
        // than one gate this either breaks validation or the function.
        if r.circuit.gate_count() < 2 {
            return;
        }
        r.circuit
            .set_output_gate_unchecked(0, GateId::from_index(0));
        let err = check_pipeline(&n, &u, &r, &AuditConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            AuditError::FunctionalMismatch { .. } | AuditError::CircuitInvalid(_)
        ));
    }
}
