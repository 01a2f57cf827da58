use std::fmt;

use soi_unate::{Literal, UId};

use crate::Cost;

/// A `(W, H)` pull-down-network shape — the index of the paper's tuple
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleKey {
    /// Width (parallel transistors).
    pub w: u32,
    /// Height (series transistors).
    pub h: u32,
}

impl TupleKey {
    /// The unit shape of a single transistor.
    pub const UNIT: TupleKey = TupleKey { w: 1, h: 1 };

    /// Shape of a series (AND) combination.
    pub fn and(self, other: TupleKey) -> TupleKey {
        TupleKey {
            w: self.w.max(other.w),
            h: self.h + other.h,
        }
    }

    /// Shape of a parallel (OR) combination.
    pub fn or(self, other: TupleKey) -> TupleKey {
        TupleKey {
            w: self.w + other.w,
            h: self.h.max(other.h),
        }
    }

    /// Whether the shape fits the configured limits.
    pub fn fits(self, w_max: u32, h_max: u32) -> bool {
        self.w <= w_max && self.h <= h_max
    }
}

impl fmt::Display for TupleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.w, self.h)
    }
}

/// Reference to an exported candidate of a node: `idx` into the node's
/// exported list under `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CandRef {
    pub node: UId,
    pub key: TupleKey,
    pub idx: u32,
}

/// How a candidate structure was formed — the DP back-pointer used to
/// materialize the pull-down network.
///
/// Forms are flat: combinations store [`CandRef`] back-pointers into the
/// children's exported sets, never owned subtrees, so a `Form` (and with it
/// a whole [`Cand`]) is `Copy` — candidate pruning and gate formation move
/// plain words instead of cloning heap structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// A single transistor driven by a primary-input literal.
    Lit(Literal),
    /// A single transistor driven by the formed gate of node `UId`.
    ChildGate(UId),
    /// Series stack: `top` above `bottom`.
    And { top: CandRef, bottom: CandRef },
    /// Parallel stack.
    Or { a: CandRef, b: CandRef },
}

/// A DP candidate: costs, PBE bookkeeping and the back-pointer.
///
/// Potential discharge points are tracked in two flavours — the paper's
/// single `p_dis` conflates them, but its Fig. 4(a) prose ("if A·B were …
/// combined with other transistors in series, there would be no need to
/// discharge this point") requires the distinction:
///
/// * **spine** points are series junctions on the structure's
///   bottom-reaching path. Stacking the structure on top of something
///   merely extends the spine, so they stay potential and are absolved
///   when the final gate grounds its chain;
/// * **branch** points sit inside parallel branches. They are absolved
///   only by grounding *this* structure's bottom; on top of a stack they
///   must be discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cand {
    /// Cost if the structure's bottom is eventually grounded.
    pub g: Cost,
    /// Cost if it is stacked on top of something (`g` plus the discharge
    /// of all branch points and the parallel bottom). Equal to `g` in the
    /// PBE-blind baseline.
    pub u: Cost,
    /// Potential points on the series spine.
    pub p_spine: u32,
    /// Potential points inside parallel branches.
    pub p_branch: u32,
    /// Whether the bottom is a parallel-stack bottom (the paper's `par_b`).
    pub par_b: bool,
    /// Whether any transistor is driven directly by a primary input.
    pub touches_pi: bool,
    pub form: Form,
}

impl Cand {
    /// The paper's `p_dis`: all potential points.
    pub fn p_dis(&self) -> u32 {
        self.p_spine + self.p_branch
    }

    /// Recomputes `u` from `g` under clock weight `k`: branch points and
    /// the parallel bottom commit when the structure sits on top; spine
    /// points join the outer spine for free.
    pub fn derive_ungrounded(mut self, k: u32) -> Cand {
        self.u = self
            .g
            .with_discharge(self.p_branch + u32::from(self.par_b), k);
        self
    }
}

/// The formed-gate solution of a node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateSol {
    /// Full gate cost: PDN + overhead; `level` is the gate's level.
    pub cost: Cost,
    /// Whether the gate carries a foot n-clock transistor.
    pub footed: bool,
    /// The winning tuple's structure.
    pub form: Form,
    /// Shape of the winning PDN (diagnostics).
    pub shape: TupleKey,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_algebra() {
        let a = TupleKey { w: 2, h: 1 };
        let b = TupleKey { w: 1, h: 3 };
        assert_eq!(a.and(b), TupleKey { w: 2, h: 4 });
        assert_eq!(a.or(b), TupleKey { w: 3, h: 3 });
        assert!(a.fits(5, 8));
        assert!(!a.and(b).fits(5, 3));
        assert_eq!(TupleKey::UNIT.to_string(), "{1, 1}");
    }

    #[test]
    fn derive_ungrounded_counts_parallel_bottom() {
        let cand = Cand {
            g: Cost::transistors(4),
            u: Cost::default(),
            p_spine: 1,
            p_branch: 2,
            par_b: true,
            touches_pi: false,
            form: Form::Lit(Literal {
                input: 0,
                phase: soi_unate::Phase::Pos,
            }),
        };
        let cand = cand.derive_ungrounded(3);
        assert_eq!(cand.p_dis(), 3);
        // Only branch points and the parallel bottom commit on top: 3.
        assert_eq!(cand.u.tx, 4 + 3);
        assert_eq!(cand.u.wtx, 4 + 9);
        assert_eq!(cand.u.disch, 3);
    }
}
