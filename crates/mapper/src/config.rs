use std::time::Duration;

use soi_trace::TraceHandle;
use soi_unate::OutputPhase;

use crate::job::CancelToken;

/// Which mapping algorithm a [`Mapper`](crate::Mapper) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `Domino_Map`: the ICCAD'98 PBE-blind DP; discharge transistors are
    /// added by post-processing.
    DominoMap,
    /// `RS_Map`: `Domino_Map` plus series-stack rearrangement before the
    /// discharge post-processing.
    RsMap,
    /// `SOI_Domino_Map`: the paper's PBE-aware DP.
    SoiDominoMap,
}

impl Algorithm {
    /// The name used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::DominoMap => "Domino_Map",
            Algorithm::RsMap => "RS_Map",
            Algorithm::SoiDominoMap => "SOI_Domino_Map",
        }
    }
}

/// Mapping objective (the DP cost function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize transistors (Tables I–III).
    #[default]
    Area,
    /// Minimize domino-gate levels; the SOI variant folds the discharge
    /// count into the cost as §VI-D describes (Table IV).
    Depth,
}

/// When domino gates receive a foot n-clock transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Footing {
    /// Foot only gates whose PDN is driven by a primary input (the paper's
    /// Listing 2; inputs may be high during precharge, internal domino
    /// outputs are guaranteed low).
    #[default]
    AtPrimaryInputs,
    /// Foot every gate (conservative bulk-CMOS style).
    Always,
}

/// How the AND combination orders its two operands in the series stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AndOrder {
    /// The paper's heuristic: a parallel-bottomed operand goes to the
    /// bottom; if both qualify, the one with more potential discharge
    /// points. Used by `SOI_Domino_Map`.
    #[default]
    PaperHeuristic,
    /// Explore both orders inside the DP (strictly subsumes the heuristic;
    /// ablation A2 in DESIGN.md).
    Exhaustive,
    /// Always put the first operand on top (a neutral PBE-blind order).
    FirstOnTop,
}

/// How the DP schedules its work across threads.
///
/// The parallel schedule partitions the unate network into fanout-free
/// cone units, which join only at multi-fanout boundaries, and walks the
/// partition's dependency levels in order: the workers share out each
/// level's units and meet at a barrier before the next level. Results are
/// bit-identical across all modes: every per-node computation is a pure
/// function of its fanins' solutions and candidate enumeration order is
/// deterministic, so the only thing parallelism changes is wall-clock
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the hardware threads when the estimated DP work is above the
    /// threading break-even; stay serial below it. The cutoff is a cost
    /// model over the gate count (per-gate DP work dwarfs per-unit
    /// scheduling overhead only once the network is big enough) and the
    /// cone-unit count (each worker needs a few units to itself).
    #[default]
    Auto,
    /// Single-threaded topological walk (the reference schedule).
    Serial,
    /// Exactly this many worker threads, regardless of network size
    /// (values are clamped to at least 1).
    Threads(usize),
}

impl Parallelism {
    /// Networks with fewer 2-input gates than this run serially under
    /// [`Parallelism::Auto`]. The break-even comes from the schedule's
    /// fixed costs — thread spawning (tens of microseconds each) plus a
    /// barrier per level — against per-gate DP work in the hundreds of
    /// nanoseconds: below roughly a thousand gates the whole DP finishes
    /// in well under a millisecond and threads cannot pay for themselves.
    pub const AUTO_MIN_PARALLEL_GATES: usize = 1024;

    /// Under [`Parallelism::Auto`], each worker must have at least this
    /// many cone units on average; otherwise the schedule has too little
    /// independent work to share out.
    pub const AUTO_UNITS_PER_THREAD: usize = 4;

    /// The worker-thread count for a network of `gates` 2-input gates
    /// partitioned into `units` cone units, on a machine with `hw`
    /// hardware threads. Pure so the cutoff is unit-testable; the DP
    /// passes `std::thread::available_parallelism` for `hw`.
    pub fn resolved_threads(self, hw: usize, gates: usize, units: usize) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                if hw <= 1 || gates < Self::AUTO_MIN_PARALLEL_GATES {
                    return 1;
                }
                let t = hw.min(units / Self::AUTO_UNITS_PER_THREAD);
                if t < 2 {
                    1
                } else {
                    t
                }
            }
        }
    }
}

/// Deterministic resource budget for one mapping run.
///
/// Untrusted or adversarial networks can blow up the tuple DP — wide
/// fanin cones multiply candidate sets, and a hostile shape mix makes the
/// per-node combination loop quadratic in them. The limits below turn
/// "the mapper hangs" into either a typed
/// [`MapError::BudgetExceeded`](crate::MapError::BudgetExceeded) (hard
/// budgets) or a documented precision loss (the per-node tuple cap, which
/// falls back to tighter Pareto capping instead of failing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Maximum number of unate nodes the DP will accept. Exceeding it
    /// fails fast with `BudgetExceeded` before any DP work happens.
    pub max_gates: usize,
    /// Cap on the *total* exported candidates of a single node, across all
    /// `(W, H)` shapes. Exceeding it is not an error: the node's sets are
    /// re-pruned with a tighter per-shape Pareto cap (and, if the shape
    /// count alone exceeds the cap, only the cheapest shapes survive).
    pub max_tuples_per_node: usize,
    /// Maximum number of candidate-combination steps summed over the whole
    /// run. Exceeding it aborts with `BudgetExceeded`.
    pub max_combine_steps: u64,
    /// Wall-clock allowance for one run, measured from DP entry. Expiring
    /// aborts with
    /// [`MapError::DeadlineExceeded`](crate::MapError::DeadlineExceeded)
    /// carrying a salvaged [`PartialMapping`](crate::PartialMapping).
    /// `None` (the default) never trips.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token shared with a controller thread.
    /// Tripping it aborts the run with
    /// [`MapError::Cancelled`](crate::MapError::Cancelled) carrying a
    /// salvaged [`PartialMapping`](crate::PartialMapping). The default
    /// [`CancelToken::none`] never trips.
    pub cancel: CancelToken,
    /// Deterministic cancellation trip for tests: cancel once the global
    /// combine-step count reaches this value. Unlike the wall-clock
    /// deadline this interrupts at a schedule-independent point, which is
    /// what the salvage bit-identity suite keys on. `None` (the default)
    /// never trips.
    pub cancel_after_steps: Option<u64>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_gates: 1_000_000,
            max_tuples_per_node: 1024,
            max_combine_steps: 100_000_000,
            deadline: None,
            cancel: CancelToken::none(),
            cancel_after_steps: None,
        }
    }
}

impl Limits {
    /// Validates the budget bounds.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`](crate::MapError::InvalidConfig)
    /// if any budget is zero.
    pub fn validate(&self) -> Result<(), crate::MapError> {
        if self.max_gates == 0 || self.max_tuples_per_node == 0 || self.max_combine_steps == 0 {
            return Err(crate::MapError::InvalidConfig {
                what: "limits must all be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Full mapper configuration.
///
/// The defaults reproduce the paper's experimental setup: `W_max = 5`,
/// `H_max = 8`, area objective, unweighted clock transistors, footing at
/// primary inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapConfig {
    /// Maximum pull-down-network width (parallel transistors).
    pub w_max: u32,
    /// Maximum pull-down-network height (series transistors).
    pub h_max: u32,
    /// DP objective.
    pub objective: Objective,
    /// Cost multiplier `k` for clock-connected transistors (p-clock,
    /// n-clock and pre-discharge). `1` = plain transistor counting
    /// (Tables I/II); Table III uses `2`.
    pub clock_weight: u32,
    /// Foot n-clock policy.
    pub footing: Footing,
    /// AND stack-order policy for `SOI_Domino_Map`. The PBE-blind
    /// baselines always use the bulk-typical orientation (see
    /// `Domino_Map`'s DP).
    pub and_order: AndOrder,
    /// Maximum Pareto candidates kept per `(W, H)` tuple in the SOI DP.
    pub max_candidates: usize,
    /// Output-phase policy of the unate conversion front end.
    pub output_phase: OutputPhase,
    /// Allow the DP to *duplicate* multi-fanout logic into its consumers
    /// when that is cheaper than forming a shared gate (each consumer pays
    /// the full subtree cost). The paper's mapper never duplicates beyond
    /// the unate conversion — this is the replication idea of its §III-C
    /// item 3, exposed as an extension and studied in ablation A5.
    pub allow_duplication: bool,
    /// Deterministic resource budget the DP is charged against.
    pub limits: Limits,
    /// Thread schedule of the DP (results are identical in every mode).
    pub parallelism: Parallelism,
    /// Minimum unate gate count before a mapping run builds its gate
    /// memo, which solves each distinct (gate kind, fanout, fanin cost
    /// profiles) step once and replays it onto every repeat. On large
    /// repetitive netlists most gate solves are replays (`synth-mult136`
    /// replays 325,473 of its 328,984); on small circuits the hashing and
    /// capture overhead outruns the re-solve it saves, so the memo stays
    /// off below this size. An adaptive bypass also latches it off mid-run
    /// when its hit rate is too low to pay. `0` forces the memo on
    /// regardless of size; `usize::MAX` turns it off. Results are
    /// bit-identical either way.
    pub cone_cache_min_gates: usize,
    /// Fault-injection knob for the containment test suite: panic the
    /// worker solving whichever cone unit contains this unate node index.
    /// The panic is contained by the scheduler and surfaces as
    /// [`MapError::WorkerPanicked`](crate::MapError::WorkerPanicked). Never
    /// set in production configs; `None` by default.
    pub poison_node: Option<u32>,
    /// When a node has no `(W ≤ w_max, H ≤ h_max)` combination, force a
    /// gate boundary there by combining the children's single-gate
    /// candidates even though the resulting shape violates the limits, and
    /// record the node as degraded in the
    /// [`MappingResult`](crate::MappingResult) instead of failing with
    /// [`MapError::Unmappable`](crate::MapError::Unmappable). Off by
    /// default: the strict behaviour is the error.
    pub degrade_unmappable: bool,
    /// Instrumentation handle ([`soi_trace`]): stage spans, counters and
    /// gauges flow to its sink when enabled. Purely observational — a
    /// salvaged partial resumes under any handle, and results are
    /// bit-identical with tracing on or off. Off by default (one dead
    /// branch per emission site).
    pub trace: TraceHandle,
}

impl Default for MapConfig {
    fn default() -> MapConfig {
        MapConfig {
            w_max: 5,
            h_max: 8,
            objective: Objective::Area,
            clock_weight: 1,
            footing: Footing::AtPrimaryInputs,
            and_order: AndOrder::PaperHeuristic,
            max_candidates: 4,
            output_phase: OutputPhase::Positive,
            allow_duplication: false,
            limits: Limits::default(),
            parallelism: Parallelism::default(),
            cone_cache_min_gates: MapConfig::DEFAULT_CONE_CACHE_MIN_GATES,
            poison_node: None,
            degrade_unmappable: false,
            trace: TraceHandle::off(),
        }
    }
}

impl MapConfig {
    /// Default [`MapConfig::cone_cache_min_gates`]: every registry
    /// benchmark sits below it (the largest, `des`, converts to a few
    /// thousand unate gates); forcing the memo onto them maps 1.07–1.09×
    /// slower.
    pub const DEFAULT_CONE_CACHE_MIN_GATES: usize = 10_000;

    /// The paper's depth-objective configuration.
    pub fn depth() -> MapConfig {
        MapConfig {
            objective: Objective::Depth,
            ..MapConfig::default()
        }
    }

    /// The paper's Table III configuration with clock weight `k`.
    pub fn with_clock_weight(k: u32) -> MapConfig {
        MapConfig {
            clock_weight: k,
            ..MapConfig::default()
        }
    }

    /// Validates the configuration bounds.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`](crate::MapError::InvalidConfig)
    /// if a limit is zero or the candidate cap is zero.
    pub fn validate(&self) -> Result<(), crate::MapError> {
        if self.w_max == 0 || self.h_max == 0 {
            return Err(crate::MapError::InvalidConfig {
                what: "w_max and h_max must be at least 1".into(),
            });
        }
        if self.max_candidates == 0 {
            return Err(crate::MapError::InvalidConfig {
                what: "max_candidates must be at least 1".into(),
            });
        }
        if self.clock_weight == 0 {
            return Err(crate::MapError::InvalidConfig {
                what: "clock_weight must be at least 1".into(),
            });
        }
        self.limits.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MapConfig::default();
        assert_eq!(c.w_max, 5);
        assert_eq!(c.h_max, 8);
        assert_eq!(c.objective, Objective::Area);
        assert_eq!(c.clock_weight, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn auto_parallelism_stays_serial_below_break_even() {
        let auto = MapConfig::default().parallelism;
        assert_eq!(auto, Parallelism::Auto);
        // Small networks resolve to 1 thread no matter the hardware.
        assert_eq!(auto.resolved_threads(8, 90, 40), 1);
        assert_eq!(auto.resolved_threads(64, 1023, 4096), 1);
        // One hardware thread is always serial.
        assert_eq!(auto.resolved_threads(1, 1_000_000, 100_000), 1);
        // Too few units per worker is serial even past the gate cutoff.
        assert_eq!(auto.resolved_threads(8, 5000, 7), 1);
    }

    #[test]
    fn auto_parallelism_scales_with_hardware_and_units() {
        let auto = Parallelism::Auto;
        assert_eq!(auto.resolved_threads(8, 5000, 400), 8);
        // Unit-starved schedules get fewer workers than the hardware has.
        assert_eq!(auto.resolved_threads(8, 5000, 12), 3);
        assert_eq!(Parallelism::Serial.resolved_threads(8, 5000, 400), 1);
        assert_eq!(Parallelism::Threads(3).resolved_threads(8, 10, 1), 3);
        assert_eq!(Parallelism::Threads(0).resolved_threads(8, 10, 1), 1);
    }

    #[test]
    fn job_control_is_inert_by_default() {
        let c = MapConfig::default();
        assert_eq!(
            c.cone_cache_min_gates,
            MapConfig::DEFAULT_CONE_CACHE_MIN_GATES
        );
        assert!(c.poison_node.is_none());
        assert!(c.limits.deadline.is_none());
        assert!(c.limits.cancel_after_steps.is_none());
        assert!(!c.limits.cancel.is_cancelled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = MapConfig {
            w_max: 0,
            ..MapConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MapConfig {
            max_candidates: 0,
            ..MapConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MapConfig {
            clock_weight: 0,
            ..MapConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MapConfig {
            limits: Limits {
                max_combine_steps: 0,
                ..Limits::default()
            },
            ..MapConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_limits_are_generous_and_valid() {
        let l = Limits::default();
        assert!(l.validate().is_ok());
        assert!(l.max_gates >= 100_000);
        assert!(l.max_tuples_per_node >= 64);
    }

    #[test]
    fn paper_names() {
        assert_eq!(Algorithm::DominoMap.paper_name(), "Domino_Map");
        assert_eq!(Algorithm::RsMap.paper_name(), "RS_Map");
        assert_eq!(Algorithm::SoiDominoMap.paper_name(), "SOI_Domino_Map");
    }
}
