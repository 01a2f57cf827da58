//! Series-stack rearrangement — the `RS_Map` transformation (§VI-A).
//!
//! Reordering the elements of a series stack does not change its logic
//! function, but it changes which discharge points commit: everything above
//! the bottom element is never grounded. Moving the element with the most
//! potential discharge points (and a parallel bottom) to the ground side
//! converts committed points back into potential ones, which the grounded
//! gate bottom then absolves.
//!
//! The total number of PBE-relevant points in a chain is invariant under
//! permutation; only the committed/potential split moves (see the
//! `series_permutation_invariant` test in [`points`]), so it
//! suffices to pick the best *bottom* element — the relative order of the
//! rest is irrelevant and preserved for stability.

use soi_domino_ir::{DominoCircuit, Pdn, PdnRef, PdnWord};

use crate::points;

/// Rearranges every series stack in the PDN, moving parallel-bearing,
/// high-`p_dis` elements toward ground. `grounded` says whether the PDN's
/// bottom terminal is (eventually) connected to ground; for a complete gate
/// PDN it is `true`. An ungrounded PDN is returned unchanged: only a
/// grounded bottom absolves anything.
///
/// Junction references into the old tree are invalidated; run this *before*
/// [`postprocess::insert_discharge`](crate::postprocess::insert_discharge).
pub fn rearrange_pdn(pdn: &Pdn, grounded: bool) -> Pdn {
    if !grounded {
        return pdn.clone();
    }
    let mut words = pdn.words().to_vec();
    rearrange_words(&mut words, 0, &mut points::Analyzer::default());
    Pdn::from_words(words).expect("a reordered tree is a tree")
}

/// Rearranges the grounded subtree at word offset `at`, in place. The
/// reordering is a permutation of sibling subtrees, so every node keeps
/// its length and the tree stays normalized.
fn rearrange_words(words: &mut [PdnWord], at: usize, analyzer: &mut points::Analyzer) {
    let head = words[at];
    if head.is_transistor() {
        return;
    }
    let end = at + head.span();
    if head.is_parallel() {
        // All branch bottoms share this node's (grounded) bottom terminal.
        let mut child = at + 1;
        while child < end {
            let span = words[child].span();
            rearrange_words(words, child, analyzer);
            child += span;
        }
        return;
    }
    // Series: only the bottom position is grounded. Pick the child whose
    // grounding recovers the most points — ties keep the later (already
    // lower) element to minimize churn — move it to the bottom, keeping
    // the others' order, and rearrange it as grounded.
    let (mut child, mut best) = (at + 1, (0, 0, at + 1));
    let mut i = 0;
    while child < end {
        let span = words[child].span();
        let tree = PdnRef::new(&words[child..child + span]).expect("a subtree is a tree");
        let par_b = analyzer.run(tree);
        let score = analyzer.potential().len() as u32 + u32::from(par_b);
        if (score, i) >= (best.0, best.1) {
            best = (score, i, child);
        }
        child += span;
        i += 1;
    }
    let chosen = best.2;
    let span = words[chosen].span();
    words[chosen..end].rotate_left(span);
    rearrange_words(words, end - span, analyzer);
}

/// Applies [`rearrange_pdn`] to every gate of the circuit, clearing any
/// existing discharge transistors (they refer to the old trees). Returns the
/// number of gates whose PDN changed. Each gate is reordered in a reused
/// buffer and written back in place.
pub fn rearrange_stacks(circuit: &mut DominoCircuit) -> u32 {
    let mut changed = 0;
    let mut words = Vec::new();
    let mut analyzer = points::Analyzer::default();
    for idx in 0..circuit.gate_count() {
        let id = soi_domino_ir::GateId::from_index(idx);
        let old = circuit.gate(id).pdn().words();
        words.clear();
        words.extend_from_slice(old);
        rearrange_words(&mut words, 0, &mut analyzer);
        if words != old {
            changed += 1;
        }
        let new_pdn = PdnRef::new(&words).expect("a reordered tree is a tree");
        circuit.set_pdn(id, new_pdn);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess;
    use soi_domino_ir::{DominoCircuit, Signal};

    fn t(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// Fig. 2(a): `(A+B+C) * D` → rearranged to `D * (A+B+C)`, removing the
    /// committed junction.
    #[test]
    fn moves_parallel_stack_to_ground() {
        let pdn = Pdn::series(vec![Pdn::parallel(vec![t(0), t(1), t(2)]), t(3)]);
        assert_eq!(points::analyze(&pdn).grounded_count(), 1);
        let better = rearrange_pdn(&pdn, true);
        assert_eq!(points::analyze(&better).grounded_count(), 0);
        // Function preserved.
        for bits in 0..16u32 {
            let v = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(bits & (1 << index) != 0),
                Signal::Gate(_) => unreachable!(),
            };
            assert_eq!(pdn.conducts(&v), better.conducts(&v), "bits {bits:04b}");
        }
    }

    /// Fig. 5: `(A*B + C) * E` → the parallel stack (score 2) goes to the
    /// bottom, eliminating both committed discharges.
    #[test]
    fn fig5_chooses_high_pdis_bottom() {
        let stack = Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]);
        let pdn = Pdn::series(vec![stack, t(4)]);
        assert_eq!(points::analyze(&pdn).grounded_count(), 2);
        let better = rearrange_pdn(&pdn, true);
        assert_eq!(points::analyze(&better).grounded_count(), 0);
    }

    /// When not grounded, order is irrelevant and the tree is left alone.
    #[test]
    fn ungrounded_series_keeps_order() {
        let pdn = Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]);
        let same = rearrange_pdn(&pdn, false);
        assert_eq!(pdn, same);
    }

    /// Rearrangement is recursive: nested grounded series chains improve too.
    #[test]
    fn nested_chains_improve() {
        // ((A+B)*C) in parallel with D, all on top of E:
        // top-level chain: [par([ser([par(a,b), c]), d]), e]
        let inner = Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]);
        let pdn = Pdn::series(vec![Pdn::parallel(vec![inner, t(3)]), t(4)]);
        let before = points::analyze(&pdn).grounded_count();
        let better = rearrange_pdn(&pdn, true);
        let after = points::analyze(&better).grounded_count();
        assert!(after < before, "{after} !< {before}");
    }

    /// Never increases the grounded discharge count, on a corpus of shapes.
    #[test]
    fn never_worse() {
        let shapes = vec![
            Pdn::series(vec![t(0), t(1), t(2)]),
            Pdn::series(vec![
                Pdn::parallel(vec![t(0), t(1)]),
                Pdn::parallel(vec![t(2), t(3)]),
            ]),
            Pdn::series(vec![
                Pdn::parallel(vec![Pdn::series(vec![t(0), t(1)]), t(2)]),
                Pdn::parallel(vec![t(3), t(4)]),
                t(5),
            ]),
            Pdn::parallel(vec![
                Pdn::series(vec![Pdn::parallel(vec![t(0), t(1)]), t(2)]),
                Pdn::series(vec![t(3), Pdn::parallel(vec![t(4), t(5)])]),
            ]),
        ];
        for pdn in shapes {
            let before = points::analyze(&pdn).grounded_count();
            let after = points::analyze(&rearrange_pdn(&pdn, true)).grounded_count();
            assert!(after <= before, "worse on {pdn}");
        }
    }

    #[test]
    fn circuit_pass_counts_changes() {
        let mut c = DominoCircuit::new((0..5).map(|i| format!("i{i}")).collect());
        let g0 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            Pdn::parallel(vec![t(0), t(1)]),
            t(2),
        ])));
        let _g1 = c.add_gate(soi_domino_ir::DominoGate::footed(Pdn::series(vec![
            t(3),
            Pdn::transistor(Signal::Gate(g0)),
        ])));
        let changed = rearrange_stacks(&mut c);
        assert_eq!(changed, 1);
        let added = postprocess::insert_discharge(&mut c);
        assert_eq!(added, 0);
    }
}
