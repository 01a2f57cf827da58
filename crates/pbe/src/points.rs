//! Potential-discharge-point analysis over pull-down networks.
//!
//! This is the paper's `p_dis` / `par_b` calculus (§V) applied to concrete
//! pull-down networks. Two kinds of internal junctions matter:
//!
//! * **committed** points must carry a pre-discharge transistor no matter
//!   what: they sit inside or directly below structure that can never be
//!   connected to ground (everything above the bottom element of a series
//!   stack);
//! * **potential** points need one only if the structure's bottom is *not*
//!   eventually connected to ground — grounding the bottom lets every
//!   evaluate cycle drain them, so the paper absolves them.
//!
//! `par_b` records whether the structure's own bottom node is the shared
//! bottom of a parallel stack; that node is accounted by the *enclosing*
//! context (it becomes a committed junction when the structure is stacked on
//! top of something else).

use soi_domino_ir::{JunctionRef, PdnNode, PdnRef};

/// Result of analysing a pull-down network.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointAnalysis {
    /// Junctions needing discharge iff the structure's bottom is never
    /// grounded (the paper's `p_dis` count, with concrete locations).
    pub potential: Vec<JunctionRef>,
    /// Junctions needing discharge regardless of grounding.
    pub committed: Vec<JunctionRef>,
    /// Whether the bottom node is a parallel-stack bottom (the paper's
    /// `par_b`).
    pub par_b: bool,
}

impl PointAnalysis {
    /// The paper's `p_dis` value.
    pub fn p_dis(&self) -> u32 {
        self.potential.len() as u32
    }

    /// Discharge count if the bottom is grounded.
    pub fn grounded_count(&self) -> u32 {
        self.committed.len() as u32
    }

    /// Discharge count if the bottom is *not* grounded: committed plus all
    /// potential points plus the parallel-stack bottom itself when present.
    ///
    /// (The parallel bottom is not a junction of this tree — in an enclosing
    /// series it becomes one — so only the count is meaningful here.)
    pub fn ungrounded_count(&self) -> u32 {
        self.committed.len() as u32 + self.p_dis() + u32::from(self.par_b)
    }
}

/// Analyses a pull-down network, returning its potential and committed
/// discharge points.
///
/// See the paper's Fig. 4 and Fig. 5; both worked examples are reproduced in
/// this module's tests.
pub fn analyze<'a>(pdn: impl Into<PdnRef<'a>>) -> PointAnalysis {
    let mut analyzer = Analyzer::default();
    let par_b = analyzer.run(pdn);
    PointAnalysis {
        potential: analyzer.potential,
        committed: analyzer.committed,
        par_b,
    }
}

/// The analysis with reusable buffers: after the first few networks,
/// analysing another allocates nothing. Reconstruct and the whole-circuit
/// passes run one per gate, so they keep one of these.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    potential: Vec<JunctionRef>,
    committed: Vec<JunctionRef>,
    /// Recycled buffers for a series top-child's potential points.
    pool: Vec<Vec<JunctionRef>>,
    /// Child offsets of the series nodes being folded, innermost last.
    kids: Vec<u32>,
}

impl Analyzer {
    /// Analyses `pdn`, replacing the previous result, and returns its
    /// `par_b`.
    pub fn run<'a>(&mut self, pdn: impl Into<PdnRef<'a>>) -> bool {
        self.potential.clear();
        self.committed.clear();
        analyze_into(
            pdn.into(),
            &mut self.potential,
            &mut self.committed,
            &mut self.pool,
            &mut self.kids,
        )
    }

    /// The last network's committed points.
    pub fn committed(&self) -> &[JunctionRef] {
        &self.committed
    }

    /// The last network's potential points.
    pub fn potential(&self) -> &[JunctionRef] {
        &self.potential
    }
}

/// Appends `pdn`'s potential and committed points directly to the caller's
/// sinks and returns its `par_b`. Subtrees write into the final lists
/// instead of building per-level results that get merged and dropped on
/// the way up.
///
/// `pool` recycles the scratch buffers that hold a series top-child's
/// potential points on their way into `committed` (a top's potential
/// points cannot go to `potential` directly, but its committed points
/// can — and must keep ordering ahead of them). `kids` holds each series
/// node's child offsets while it is folded bottom-up.
fn analyze_into(
    pdn: PdnRef<'_>,
    potential: &mut Vec<JunctionRef>,
    committed: &mut Vec<JunctionRef>,
    pool: &mut Vec<Vec<JunctionRef>>,
    kids: &mut Vec<u32>,
) -> bool {
    match pdn.root() {
        PdnNode::Transistor(_) => false,
        PdnNode::Parallel(children) => {
            // Branch bottoms merge with the shared bottom node; each branch's
            // internal points remain potential, resolved by the context.
            // Each child's par_b is absorbed: the branch's parallel bottom
            // *is* this stack's bottom node.
            for child in children {
                analyze_into(child, potential, committed, pool, kids);
            }
            true
        }
        PdnNode::Series(children) => {
            // Fold bottom-up. The bottom child keeps its potential points
            // and determines par_b; every child above is never grounded, so
            // its potential points commit, and the junction directly below
            // it commits too when it ends in a parallel stack (otherwise the
            // junction is a plain series point and stays potential).
            let base = kids.len();
            kids.extend(children.map(PdnRef::offset));
            let last = kids.len() - 1;
            let child = |kids: &[u32], i: usize| pdn.at(kids[i]).expect("child offset");
            let par_b = analyze_into(child(kids, last), potential, committed, pool, kids);
            let mut scratch = pool.pop().unwrap_or_default();
            for i in (base..last).rev() {
                let top_par_b = analyze_into(child(kids, i), &mut scratch, committed, pool, kids);
                committed.append(&mut scratch);
                let junction = JunctionRef::new(pdn.offset(), (i - base) as u32);
                if top_par_b {
                    committed.push(junction);
                } else {
                    potential.push(junction);
                }
            }
            pool.push(scratch);
            kids.truncate(base);
            par_b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{Pdn, Signal};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// Fig. 4(a): `A*B + C` — one potential point (the A-B junction),
    /// parallel bottom.
    #[test]
    fn fig4a_ab_or_c() {
        let pdn = Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]);
        let a = analyze(&pdn);
        assert_eq!(a.p_dis(), 1);
        assert!(a.par_b);
        assert!(a.committed.is_empty());
        assert_eq!(a.potential[0], JunctionRef::new(1, 0));
        assert_eq!(a.grounded_count(), 0);
        // Ungrounded: the internal junction plus the stack bottom.
        assert_eq!(a.ungrounded_count(), 2);
    }

    /// Fig. 4(b): `(A*B + C) * (D*E + F)` — the top structure commits its
    /// internal junction and the junction between the two stacks; the bottom
    /// structure keeps one potential point and `par_b`.
    #[test]
    fn fig4b_two_stacks_in_series() {
        let top = Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]);
        let bottom = Pdn::parallel(vec![Pdn::series(vec![t(3), t(4)]), t(5)]);
        let pdn = Pdn::series(vec![top, bottom]);
        let a = analyze(&pdn);
        // Committed: A-B junction (inside top) + the inter-stack junction.
        assert_eq!(a.committed.len(), 2);
        assert!(a.committed.contains(&JunctionRef::new(2, 0)));
        assert!(a.committed.contains(&JunctionRef::new(0, 0)));
        // Potential: D-E junction inside the bottom stack.
        assert_eq!(a.p_dis(), 1);
        assert_eq!(a.potential[0], JunctionRef::new(7, 0));
        assert!(a.par_b);
        assert_eq!(a.grounded_count(), 2);
    }

    /// Fig. 5 left: `(A*B + C)` stacked on top of `E` — two immediate
    /// discharge transistors.
    #[test]
    fn fig5_stack_on_top() {
        let stack = Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]);
        let pdn = Pdn::series(vec![stack, t(4)]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 2);
        assert_eq!(a.p_dis(), 0);
        assert!(!a.par_b);
    }

    /// Fig. 5 right: `E` on top, parallel stack at the bottom — no immediate
    /// discharge, two potential points.
    #[test]
    fn fig5_stack_at_bottom() {
        let stack = Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]);
        let pdn = Pdn::series(vec![t(4), stack]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 0);
        assert_eq!(a.p_dis(), 2);
        assert!(a.par_b);
        // Ungrounded both potentials and the bottom commit: 3.
        assert_eq!(a.ungrounded_count(), 3);
    }

    /// A pure series chain has potential junctions but nothing committed —
    /// grounding the bottom absolves everything.
    #[test]
    fn pure_series_chain() {
        let pdn = Pdn::series(vec![t(0), t(1), t(2), t(3)]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 0);
        assert_eq!(a.p_dis(), 3);
        assert!(!a.par_b);
    }

    /// A single parallel stack connected to ground needs nothing.
    #[test]
    fn single_parallel_stack() {
        let pdn = Pdn::parallel(vec![t(0), t(1), t(2)]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 0);
        assert_eq!(a.p_dis(), 0);
        assert!(a.par_b);
        assert_eq!(a.ungrounded_count(), 1);
    }

    /// The paper's Fig. 2(a) example `(A+B+C)*D` with the stack on top:
    /// the junction below the stack commits.
    #[test]
    fn fig2a_needs_one_discharge() {
        let pdn = Pdn::series(vec![Pdn::parallel(vec![t(0), t(1), t(2)]), t(3)]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 1);
        assert_eq!(a.committed[0], JunctionRef::new(0, 0));
        assert_eq!(a.p_dis(), 0);
        assert!(!a.par_b);
    }

    /// Reordered Fig. 2(a): `D*(A+B+C)` with the stack at the bottom needs
    /// nothing when grounded — the reordering fix of §III-C item 4.
    #[test]
    fn fig2a_reordered_is_free() {
        let pdn = Pdn::series(vec![t(3), Pdn::parallel(vec![t(0), t(1), t(2)])]);
        let a = analyze(&pdn);
        assert_eq!(a.grounded_count(), 0);
        assert!(a.par_b);
    }

    /// Committed and potential points exactly partition the internal
    /// junction nets, under every permutation of a series chain — only the
    /// split between the two buckets moves.
    #[test]
    fn series_permutation_invariant() {
        let elems = [
            Pdn::parallel(vec![t(0), t(1)]),
            Pdn::series(vec![t(2), t(3)]),
            t(4),
        ];
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            let pdn = Pdn::series(vec![
                elems[p[0]].clone(),
                elems[p[1]].clone(),
                elems[p[2]].clone(),
            ]);
            let a = analyze(&pdn);
            let junction_nets = pdn.flatten().junctions().count();
            assert_eq!(
                a.committed.len() + a.potential.len(),
                junction_nets,
                "perm {p:?}"
            );
        }
        // Grounded cost is minimized by putting the parallel stack at the
        // bottom (perm ending in element 0).
        let best = analyze(&Pdn::series(vec![
            elems[1].clone(),
            elems[2].clone(),
            elems[0].clone(),
        ]));
        let worst = analyze(&Pdn::series(vec![
            elems[0].clone(),
            elems[1].clone(),
            elems[2].clone(),
        ]));
        assert!(best.grounded_count() < worst.grounded_count());
    }

    /// Every reported junction must resolve to a net in the flattened graph.
    #[test]
    fn junctions_resolve() {
        let pdn = Pdn::series(vec![
            Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
            Pdn::parallel(vec![t(3), Pdn::series(vec![t(4), t(5), t(6)])]),
            t(7),
        ]);
        let a = analyze(&pdn);
        let graph = pdn.flatten();
        for j in a.committed.iter().chain(&a.potential) {
            assert!(graph.junction_net(j).is_some(), "unresolved {j}");
        }
        // No junction is reported twice across the two sets.
        let mut all: Vec<_> = a.committed.iter().chain(&a.potential).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), a.committed.len() + a.potential.len());
    }
}
