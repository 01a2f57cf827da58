//! Job control for a mapping run: cooperative cancellation and
//! partial-result salvage.
//!
//! A long mapping can be interrupted three ways — an external
//! [`CancelToken`] trips, the wall-clock [`Limits::deadline`](crate::Limits)
//! expires, or a worker panics on a poisoned cone unit. All three surface
//! as a typed [`MapError`](crate::MapError) variant carrying a
//! [`PartialMapping`]: the DP solutions of every cone unit the run
//! finished, the combine steps each one charged, the unfinished frontier,
//! and a digest of what the solutions depend on. A resumed run
//! ([`Mapper::with_salvage`](crate::Mapper::with_salvage)) seeds the
//! finished units straight into its solution table and only solves what
//! was lost — bit-identically to an uninterrupted run.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

use soi_netlist::fx::FxBuildHasher;
use soi_unate::{UId, UnateNetwork};

use crate::tuple::NodeSol;
use crate::{Algorithm, MapConfig};

/// A shared flag for cancelling an in-flight mapping run from another
/// thread.
///
/// The token is `Copy` like [`TraceHandle`](crate::TraceHandle): it wraps a
/// leaked `&'static AtomicBool`, so handing it to a config struct and to a
/// controller thread needs no reference counting. [`CancelToken::none`]
/// (the default) can never trip and costs one branch per check.
///
/// Equality and hashing are by identity — two tokens are equal when they
/// share the same flag.
#[derive(Clone, Copy)]
pub struct CancelToken {
    flag: Option<&'static AtomicBool>,
}

impl CancelToken {
    /// A token that can never be cancelled (the default).
    pub const fn none() -> CancelToken {
        CancelToken { flag: None }
    }

    /// Creates a fresh, untripped token.
    ///
    /// The backing flag is leaked: tokens are tiny and meant to be created
    /// per long-running job, mirroring the recorder-installation idiom in
    /// `soi-trace`.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Box::leak(Box::new(AtomicBool::new(false)))),
        }
    }

    /// Trips the token. Every run sharing it observes the cancellation at
    /// its next check; a no-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(flag) = self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Identity of the backing flag, for [`Eq`]/[`Hash`].
    fn addr(&self) -> usize {
        self.flag.map_or(0, |f| f as *const AtomicBool as usize)
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::none()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.flag {
            None => write!(f, "CancelToken::none"),
            Some(flag) => f
                .debug_struct("CancelToken")
                .field("cancelled", &flag.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        self.addr() == other.addr()
    }
}

impl Eq for CancelToken {}

impl Hash for CancelToken {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.addr().hash(state);
    }
}

/// What an interrupted mapping run managed to finish.
///
/// Carried by the interrupt variants of [`MapError`](crate::MapError)
/// (`Cancelled`, `DeadlineExceeded`, `WorkerPanicked`). It holds the DP
/// solutions of every completed cone unit, so resuming is re-running with
/// [`Mapper::with_salvage`](crate::Mapper::with_salvage): the completed
/// units are seeded instead of solved, and the result is bit-identical to
/// an uninterrupted run. A partial only resumes the network and
/// algorithm it was recorded under, with the same [`MapConfig`] apart
/// from `parallelism`, `cone_cache_min_gates`, `poison_node`, `trace` and
/// the job-control limits (`deadline`, `cancel`, `cancel_after_steps`);
/// anything else is refused with
/// [`MapError::InvalidConfig`](crate::MapError::InvalidConfig).
#[derive(Clone)]
pub struct PartialMapping {
    total_units: usize,
    frontier: Vec<usize>,
    combine_steps: u64,
    /// [`digest`] of the interrupted run.
    pub(crate) digest: u64,
    /// The completed units, ascending by unit index.
    pub(crate) units: Vec<SalvagedUnit>,
}

/// One completed cone unit of an interrupted run.
#[derive(Clone)]
pub(crate) struct SalvagedUnit {
    /// Index in the run's cone partition.
    pub unit: usize,
    /// Combine steps the unit charged.
    pub steps: u64,
    /// The unit's solutions, aligned with its `ConeUnit::nodes`.
    pub sols: Vec<NodeSol>,
    /// The unit's nodes where the degradation fallback fired.
    pub degraded: Vec<UId>,
}

impl PartialMapping {
    pub(crate) fn new(
        total_units: usize,
        frontier: Vec<usize>,
        combine_steps: u64,
        digest: u64,
        units: Vec<SalvagedUnit>,
    ) -> PartialMapping {
        PartialMapping {
            total_units,
            frontier,
            combine_steps,
            digest,
            units,
        }
    }

    /// Cone units in the run's partition.
    pub fn total_units(&self) -> usize {
        self.total_units
    }

    /// Cone units the run finished before the interrupt — every one of
    /// them is salvaged.
    pub fn completed_units(&self) -> usize {
        self.units.len()
    }

    /// Unfinished cone units whose dependencies all completed — the work
    /// the interrupt actually cut off. Empty only when every unit finished
    /// (an interrupt observed after the last unit).
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// Combine steps charged before the interrupt.
    pub fn combine_steps(&self) -> u64 {
        self.combine_steps
    }

    /// Whether the interrupt arrived before any unit completed.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

impl fmt::Debug for PartialMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartialMapping")
            .field("total_units", &self.total_units)
            .field("completed_units", &self.completed_units())
            .field("frontier", &self.frontier)
            .field("combine_steps", &self.combine_steps)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for PartialMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} cone units completed ({} on the frontier) after {} combine steps",
            self.completed_units(),
            self.total_units,
            self.frontier.len(),
            self.combine_steps
        )
    }
}

/// Digest of everything a run's DP solutions depend on: the unate
/// network's structure, the semantic [`MapConfig`] fields and the
/// algorithm ([`fingerprint`]). A salvaged partial resumes only a run with
/// the same digest.
pub(crate) fn digest(unate: &UnateNetwork, config: &MapConfig, algorithm: Algorithm) -> u64 {
    let mut h = FxBuildHasher::with_seed(0).build_hasher();
    fingerprint(config, algorithm).hash(&mut h);
    unate.input_names().len().hash(&mut h);
    for (_, node) in unate.iter() {
        node.hash(&mut h);
    }
    for out in unate.outputs() {
        out.signal.hash(&mut h);
        out.inverted.hash(&mut h);
    }
    h.finish()
}

/// Everything [`MapConfig`] + [`Algorithm`] contribute to DP results.
/// The scheduling knobs (`parallelism`, `cone_cache_min_gates`), the
/// trace handle and the fault-injection knob are deliberately excluded:
/// they change how solutions are found, never what they are, so a resume
/// may change them.
fn fingerprint(config: &MapConfig, algorithm: Algorithm) -> u64 {
    // Pinned-seed Fx, not `DefaultHasher` or the default `FxBuildHasher`:
    // the digest must ignore the fx test-seed hook, or a partial recorded
    // under one seed would not resume under another.
    let mut h = FxBuildHasher::with_seed(0).build_hasher();
    algorithm.hash(&mut h);
    config.w_max.hash(&mut h);
    config.h_max.hash(&mut h);
    config.objective.hash(&mut h);
    config.clock_weight.hash(&mut h);
    config.footing.hash(&mut h);
    config.and_order.hash(&mut h);
    config.max_candidates.hash(&mut h);
    config.output_phase.hash(&mut h);
    config.allow_duplication.hash(&mut h);
    config.degrade_unmappable.hash(&mut h);
    // Of the limits, only the semantic budgets participate: the job-control
    // fields (deadline, cancel token, step trip) interrupt a run without
    // changing any solution, and a resume must digest identically to the
    // interrupted run it is reviving.
    config.limits.max_gates.hash(&mut h);
    config.limits.max_tuples_per_node.hash(&mut h);
    config.limits.max_combine_steps.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_trips() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled());
        assert_eq!(t, CancelToken::default());
    }

    #[test]
    fn fresh_token_trips_once_for_every_copy() {
        let t = CancelToken::new();
        let copy = t;
        assert!(!copy.is_cancelled());
        t.cancel();
        assert!(copy.is_cancelled());
        assert_eq!(t, copy);
        assert_ne!(t, CancelToken::new());
        assert_ne!(t, CancelToken::none());
    }

    #[test]
    fn partial_mapping_reports_progress() {
        let unit = |unit| SalvagedUnit {
            unit,
            steps: 7,
            sols: Vec::new(),
            degraded: Vec::new(),
        };
        let p = PartialMapping::new(10, vec![4, 7], 1234, 0, (0..4).map(unit).collect());
        assert_eq!(p.total_units(), 10);
        assert_eq!(p.completed_units(), 4);
        assert_eq!(p.frontier(), &[4, 7]);
        assert_eq!(p.combine_steps(), 1234);
        assert!(!p.is_empty());
        let s = p.to_string();
        assert!(s.contains("4/10"), "{s}");
        assert!(s.contains("2 on the frontier"), "{s}");
        assert!(format!("{p:?}").contains("completed_units: 4"));
    }

    #[test]
    fn fingerprint_tracks_semantic_config_changes() {
        let base = MapConfig::default();
        let f = fingerprint(&base, Algorithm::SoiDominoMap);
        assert_eq!(f, fingerprint(&base, Algorithm::SoiDominoMap));
        assert_ne!(f, fingerprint(&base, Algorithm::DominoMap));
        let depth = MapConfig {
            objective: crate::Objective::Depth,
            ..base
        };
        assert_ne!(f, fingerprint(&depth, Algorithm::SoiDominoMap));
        let narrow = MapConfig { w_max: 3, ..base };
        assert_ne!(f, fingerprint(&narrow, Algorithm::SoiDominoMap));
        let tighter = MapConfig {
            limits: crate::Limits {
                max_tuples_per_node: 17,
                ..base.limits
            },
            ..base
        };
        assert_ne!(f, fingerprint(&tighter, Algorithm::SoiDominoMap));
    }

    #[test]
    fn fingerprint_ignores_scheduling_and_job_control() {
        // A resume clears the interrupt knobs and may change the schedule;
        // its fingerprint must match the interrupted run's.
        let base = MapConfig::default();
        let f = fingerprint(&base, Algorithm::SoiDominoMap);
        let controlled = MapConfig {
            parallelism: crate::Parallelism::Threads(7),
            cone_cache_min_gates: 0,
            limits: crate::Limits {
                deadline: Some(std::time::Duration::from_millis(5)),
                cancel: CancelToken::new(),
                cancel_after_steps: Some(100),
                ..base.limits
            },
            poison_node: Some(3),
            trace: soi_trace::Recorder::install().1,
            ..base
        };
        assert_eq!(f, fingerprint(&controlled, Algorithm::SoiDominoMap));
    }

    #[test]
    fn digest_tracks_network_structure() {
        use soi_unate::{Literal, Phase, USignal};

        let build = |or_gate: bool, inverted: bool| {
            let mut u = UnateNetwork::new(vec!["a".into(), "b".into()]);
            let lit = |input| Literal {
                input,
                phase: Phase::Pos,
            };
            let a = u.add_literal(lit(0));
            let b = u.add_literal(lit(1));
            let g = if or_gate {
                u.add_or(a, b)
            } else {
                u.add_and(a, b)
            };
            u.add_output("f", USignal::Node(g), inverted);
            u
        };
        let config = MapConfig::default();
        let d = |u: &UnateNetwork| digest(u, &config, Algorithm::SoiDominoMap);
        let base = d(&build(false, false));
        assert_eq!(base, d(&build(false, false)));
        assert_ne!(base, d(&build(true, false)));
        assert_ne!(base, d(&build(false, true)));
    }
}
