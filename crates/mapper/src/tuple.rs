use std::fmt;
use std::ops::Index;

use soi_unate::{Literal, UId};

use crate::arena::CandArena;
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
#[derive(Debug, Clone)]
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

/// One shape's contiguous candidate run inside an [`ExportMap`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeRun {
    key: TupleKey,
    start: u32,
    len: u32,
}

/// A node's exported candidate sets, keyed by shape.
///
/// Runs are kept sorted by [`TupleKey`], so iteration order is
/// deterministic — a requirement for the parallel DP to be bit-identical
/// to the serial one (a per-node `HashMap` would enumerate candidates in
/// seed-dependent order and let hash order decide cost ties). Lookup is a
/// binary search over a handful of shapes.
///
/// All candidates live in one flat arena (`cands`), with per-shape runs
/// described by `(start, len)` — most shapes hold fewer than eight
/// candidates, so per-shape `Vec<Cand>` allocations would cost one heap
/// allocation per shape per node. The flat layout makes an `ExportMap`
/// exactly two allocations regardless of shape count.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExportMap {
    runs: Vec<ShapeRun>,
    cands: Vec<Cand>,
}

impl ExportMap {
    /// Builds an export set from per-shape runs of staged handles into a
    /// [`CandArena`], in run order. `shapes` must be sorted by key with no
    /// duplicates; each `(key, start, len)` selects
    /// `staged[start..start + len]`. The runs may leave holes in
    /// `staged`; the copy compacts them while materializing the arena
    /// rows into the export's own row-major storage (exports are
    /// read whole-candidate-at-a-time by consumers, so they stay AoS —
    /// see DESIGN.md §7.1).
    ///
    /// The solvers now always export the gate-as-input tuple alongside
    /// the bare runs and so call [`from_runs_with_unit`] instead; this
    /// plain variant remains as the reference constructor its oracle
    /// test compares against.
    ///
    /// [`from_runs_with_unit`]: ExportMap::from_runs_with_unit
    #[cfg(test)]
    pub fn from_runs(
        shapes: &[(TupleKey, u32, u32)],
        staged: &[u32],
        arena: &CandArena,
    ) -> ExportMap {
        debug_assert!(shapes.windows(2).all(|w| w[0].0 < w[1].0));
        let total: usize = shapes.iter().map(|&(_, _, len)| len as usize).sum();
        let mut map = ExportMap {
            runs: Vec::with_capacity(shapes.len()),
            cands: Vec::with_capacity(total),
        };
        for &(key, start, len) in shapes {
            map.runs.push(ShapeRun {
                key,
                start: map.cands.len() as u32,
                len,
            });
            map.cands.extend(
                staged[start as usize..(start + len) as usize]
                    .iter()
                    .map(|&h| arena.get(h)),
            );
        }
        map
    }

    /// An export set holding exactly one `{1,1}` candidate — what a
    /// shared node exports (its formed gate as an input transistor). A
    /// dedicated constructor so the hot solver path never goes through
    /// [`push`](ExportMap::push)'s general insert machinery.
    pub fn unit(cand: Cand) -> ExportMap {
        ExportMap {
            runs: vec![ShapeRun {
                key: TupleKey::UNIT,
                start: 0,
                len: 1,
            }],
            cands: vec![cand],
        }
    }

    /// [`from_runs`](ExportMap::from_runs) plus an appended `{1,1}` extra
    /// candidate (the node's gate-as-input tuple), fused into the single
    /// copy pass: produces byte-for-byte what
    /// `from_runs(..).push(TupleKey::UNIT, extra)` would — the extra
    /// candidate lands at the *end* of the unit run — without `push`'s
    /// front-of-arena `Vec::insert`, which memmoved the entire candidate
    /// arena once per solved node.
    pub fn from_runs_with_unit(
        shapes: &[(TupleKey, u32, u32)],
        staged: &[u32],
        arena: &CandArena,
        extra: Cand,
    ) -> ExportMap {
        debug_assert!(shapes.windows(2).all(|w| w[0].0 < w[1].0));
        let total: usize = shapes.iter().map(|&(_, _, len)| len as usize).sum();
        let mut map = ExportMap {
            runs: Vec::with_capacity(shapes.len() + 1),
            cands: Vec::with_capacity(total + 1),
        };
        // `{1,1}` is the minimum shape, so an existing unit run can only
        // be the first one; otherwise the extra forms a new leading run.
        let extend_first = shapes
            .first()
            .is_some_and(|&(key, _, _)| key == TupleKey::UNIT);
        if !extend_first {
            map.runs.push(ShapeRun {
                key: TupleKey::UNIT,
                start: 0,
                len: 1,
            });
            map.cands.push(extra);
        }
        for (i, &(key, start, len)) in shapes.iter().enumerate() {
            let run_start = map.cands.len() as u32;
            map.cands.extend(
                staged[start as usize..(start + len) as usize]
                    .iter()
                    .map(|&h| arena.get(h)),
            );
            let mut run_len = len;
            if i == 0 && extend_first {
                map.cands.push(extra);
                run_len += 1;
            }
            map.runs.push(ShapeRun {
                key,
                start: run_start,
                len: run_len,
            });
        }
        map
    }

    /// The candidates exported under `key`, if any.
    ///
    /// A node rarely exports more than a few dozen shapes, so a forward
    /// scan comparing packed `(w, h)` words (the same order as
    /// `TupleKey`'s derived `Ord`) beats a binary search's unpredictable
    /// probes — this lookup runs once per fanin edge during reconstruct.
    pub fn get(&self, key: &TupleKey) -> Option<&[Cand]> {
        let want = (u64::from(key.w) << 32) | u64::from(key.h);
        for (i, r) in self.runs.iter().enumerate() {
            let have = (u64::from(r.key.w) << 32) | u64::from(r.key.h);
            if have >= want {
                return (have == want).then(|| self.run(i));
            }
        }
        None
    }

    fn run(&self, i: usize) -> &[Cand] {
        let r = self.runs[i];
        &self.cands[r.start as usize..(r.start + r.len) as usize]
    }

    /// Appends a candidate under `key`, creating the run when missing.
    pub fn push(&mut self, key: TupleKey, cand: Cand) {
        match self.runs.binary_search_by_key(&key, |r| r.key) {
            Ok(i) => {
                let at = (self.runs[i].start + self.runs[i].len) as usize;
                self.cands.insert(at, cand);
                self.runs[i].len += 1;
                for r in &mut self.runs[i + 1..] {
                    r.start += 1;
                }
            }
            Err(i) => {
                let at = self
                    .runs
                    .get(i)
                    .map_or(self.cands.len(), |r| r.start as usize);
                self.cands.insert(at, cand);
                self.runs.insert(
                    i,
                    ShapeRun {
                        key,
                        start: at as u32,
                        len: 1,
                    },
                );
                for r in &mut self.runs[i + 1..] {
                    r.start += 1;
                }
            }
        }
    }

    /// Number of distinct shapes (exercised by tests; the DP itself only
    /// needs the flat iteration and totals).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Total candidate count across all shapes.
    pub fn total_candidates(&self) -> usize {
        self.cands.len()
    }

    /// Iterator over `(shape, candidate)` pairs in shape order.
    pub fn flat(&self) -> impl Iterator<Item = (TupleKey, &Cand)> + '_ {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(i, r)| self.run(i).iter().map(move |c| (r.key, c)))
    }

    /// Mutable access to the whole candidate arena — used by the gate
    /// memo to rewrite `Form` back-pointers when rebinding a memoized
    /// solution onto a new gate.
    pub fn cands_mut(&mut self) -> &mut [Cand] {
        &mut self.cands
    }

    /// Iterator over `(shape, run)` pairs in shape order.
    pub fn shape_runs(&self) -> impl Iterator<Item = (TupleKey, &[Cand])> + '_ {
        self.runs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key, self.run(i)))
    }
}

impl Index<&TupleKey> for ExportMap {
    type Output = [Cand];

    fn index(&self, key: &TupleKey) -> &[Cand] {
        self.get(key).expect("no candidates exported for shape")
    }
}

/// Per-node DP state.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSol {
    /// Candidates visible to consumers (bare tuples for fanout-1 nodes,
    /// plus the gate-as-input tuple).
    pub exported: ExportMap,
    /// The formed-gate solution (every node has one; it is only
    /// materialized when referenced).
    pub gate: Option<GateSol>,
    /// Gate-memo profile of `exported`: `(digest of the full candidate
    /// list with levels taken relative to their minimum, that minimum
    /// level)`. Computed once when the solution is published (only while a
    /// run's memo is live; `(0, 0)` otherwise) so memo probes hash a pair
    /// per fanin instead of re-walking every candidate. The digest half is
    /// invariant under uniform level shifts; rebinding shifts the minimum
    /// along with the levels.
    pub profile: (u64, u32),
}

impl NodeSol {
    /// Flat iterator over all exported candidates with their references,
    /// in deterministic shape order.
    pub fn exported_refs<'a>(
        &'a self,
        node: UId,
    ) -> impl Iterator<Item = (CandRef, &'a Cand)> + 'a {
        self.exported
            .runs
            .iter()
            .enumerate()
            .flat_map(move |(i, r)| {
                self.exported
                    .run(i)
                    .iter()
                    .enumerate()
                    .map(move |(idx, c)| {
                        (
                            CandRef {
                                node,
                                key: r.key,
                                idx: idx as u32,
                            },
                            c,
                        )
                    })
            })
    }
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

    fn cand(tx: u32) -> Cand {
        Cand {
            g: Cost::transistors(tx),
            u: Cost::transistors(tx),
            p_spine: 0,
            p_branch: 0,
            par_b: false,
            touches_pi: false,
            form: Form::Lit(Literal {
                input: 0,
                phase: soi_unate::Phase::Pos,
            }),
        }
    }

    #[test]
    fn export_map_push_keeps_runs_sorted_and_contiguous() {
        let (k1, k2, k3) = (
            TupleKey { w: 1, h: 2 },
            TupleKey { w: 2, h: 1 },
            TupleKey::UNIT,
        );
        let mut m = ExportMap::default();
        m.push(k2, cand(20));
        m.push(k1, cand(10));
        m.push(k3, cand(1));
        m.push(k1, cand(11));
        assert_eq!(m.len(), 3);
        assert_eq!(m.total_candidates(), 4);
        let keys: Vec<TupleKey> = m.flat().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![k3, k1, k1, k2], "shape order, run order");
        assert_eq!(m.get(&k1).unwrap().len(), 2);
        assert_eq!(m.get(&k1).unwrap()[1].g.tx, 11);
        assert_eq!(m[&k2][0].g.tx, 20);
    }

    #[test]
    fn export_map_from_runs_compacts_holes() {
        // Staging handles with a shortened middle run: the copy drops the
        // hole.
        let mut arena = CandArena::default();
        let staged: Vec<u32> = [1, 2, 3, 4]
            .iter()
            .map(|&tx| arena.push(cand(tx)))
            .collect();
        let shapes = vec![
            (TupleKey::UNIT, 0u32, 1u32),
            (TupleKey { w: 1, h: 2 }, 1, 1), // skips staged[2]
            (TupleKey { w: 2, h: 2 }, 3, 1),
        ];
        let m = ExportMap::from_runs(&shapes, &staged, &arena);
        assert_eq!(m.total_candidates(), 3);
        let txs: Vec<u32> = m.flat().map(|(_, c)| c.g.tx).collect();
        assert_eq!(txs, vec![1, 2, 4]);
    }

    #[test]
    fn from_runs_with_unit_matches_from_runs_plus_push() {
        // The fused constructor must be byte-for-byte what the reference
        // two-step build produces, whether or not a `{1,1}` run already
        // exists in the staged shapes.
        let mut arena = CandArena::default();
        let staged: Vec<u32> = [1, 2, 3].iter().map(|&tx| arena.push(cand(tx))).collect();
        let with_unit = vec![
            (TupleKey::UNIT, 0u32, 1u32),
            (TupleKey { w: 2, h: 1 }, 1, 2),
        ];
        let without_unit = vec![
            (TupleKey { w: 1, h: 2 }, 0u32, 2u32),
            (TupleKey { w: 2, h: 1 }, 2, 1),
        ];
        for shapes in [with_unit, without_unit] {
            let extra = cand(99);
            let fused = ExportMap::from_runs_with_unit(&shapes, &staged, &arena, extra);
            let mut reference = ExportMap::from_runs(&shapes, &staged, &arena);
            reference.push(TupleKey::UNIT, extra);
            let a: Vec<(TupleKey, u32)> = fused.flat().map(|(k, c)| (k, c.g.tx)).collect();
            let b: Vec<(TupleKey, u32)> = reference.flat().map(|(k, c)| (k, c.g.tx)).collect();
            assert_eq!(a, b);
            assert_eq!(fused.len(), reference.len());
            for (key, run) in reference.shape_runs() {
                assert_eq!(fused.get(&key).unwrap(), run);
            }
        }
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
