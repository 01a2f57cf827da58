//! `SOI_Domino_Map`: the paper's PBE-aware dynamic program (§V).
//!
//! Tuples carry, beyond shape and cost, the potential-discharge-point
//! counts (split into series-*spine* and parallel-*branch* points, see
//! [`Cand`]), the parallel-bottom flag `par_b`, and *two* costs — grounded
//! (`g`) and on-top (`u = g + k·(p_branch + par_b)`). Combination rules:
//!
//! ```text
//! OR(a, b):          g = g_a + g_b
//!                    branch = p_dis_a + p_dis_b     spine = 0   par_b = true
//! AND(top, bottom):  g = u_top + g_bottom                       par_b = par_b_bottom
//!                    spine  = spine_bottom + spine_top + (par_b_top ? 0 : 1)
//!                    branch = branch_bottom
//! ```
//!
//! The AND rule charges the top structure's on-top cost — its branch points
//! can never be grounded, and the junction under a parallel bottom commits —
//! exactly reproducing the paper's Fig. 4(b) and Fig. 5 worked examples
//! (see this module's tests). The spine/branch split formalizes the paper's
//! "conditionally increment" remark and its Fig. 4(a) note that a series
//! junction combined further in series never needs a discharge device.
//!
//! Per `(W, H)` shape we keep a small Pareto set over `(g, u, par_b)`
//! instead of the paper's "two costs"; this keeps the tree DP exact while
//! staying tiny in practice (see DESIGN.md §2.2).

use soi_unate::{UId, UNode, UnateNetwork};

use crate::arena::{skyline_prune, CandArena};
use crate::dp::{self, NodeCtx, NodeOutcome, Scratch, SolView};
use crate::memo::NodeMemo;
use crate::tuple::{Cand, CandRef, ExportMap, Form, NodeSol, TupleKey};
use crate::{Algorithm, AndOrder, Cost, CostModel, MapConfig, MapError, PartialMapping};

/// Runs the SOI DP, producing one [`NodeSol`] per unate node.
pub(crate) fn solve(
    unate: &UnateNetwork,
    config: &MapConfig,
    salvage: Option<&PartialMapping>,
    memo: Option<&NodeMemo>,
) -> Result<dp::Solution, MapError> {
    dp::run_dp(
        unate,
        config,
        Algorithm::SoiDominoMap,
        solve_node,
        salvage,
        memo,
    )
}

/// Solves one unate node given its fanins' solutions: accumulate all
/// in-limit combinations into the scratch arena, Pareto-prune per shape,
/// then form the node's gate and export set.
fn solve_node(
    ctx: &NodeCtx<'_>,
    view: &SolView<'_>,
    scratch: &mut Scratch,
    id: UId,
    node: UNode,
) -> Result<NodeOutcome, MapError> {
    let config = ctx.config;
    let (a, b, is_and) = match node {
        UNode::Lit(l) => return Ok((dp::literal_sol(id, l, config, ctx.model), false)),
        UNode::And(a, b) => (a, b, true),
        UNode::Or(a, b) => (a, b, false),
    };
    let (sol_a, sol_b) = (view.get(a), view.get(b));
    let Scratch {
        cands,
        left,
        right,
        right_runs,
        buckets,
        order,
        keyed,
        kept,
        shapes,
        staged,
        ..
    } = scratch;
    cands.clear();
    // Materialize both export lists once: the quadratic loop below then
    // streams two dense slices instead of re-walking the right-hand side's
    // nested run iterator on every outer candidate. The right side also
    // keeps its shape-run boundaries — all candidates of a run share one
    // `TupleKey`, so the combined shape (symmetric in the operands for
    // both AND and OR) and its limit check hoist to the run level,
    // skipping whole runs whose combinations cannot fit.
    left.clear();
    left.extend(sol_a.exported_refs(a).map(|(r, c)| (r, *c)));
    right.clear();
    right_runs.clear();
    for (key, run) in sol_b.exported.shape_runs() {
        let start = right.len() as u32;
        right.extend(run.iter().enumerate().map(|(idx, c)| {
            (
                CandRef {
                    node: b,
                    key,
                    idx: idx as u32,
                },
                *c,
            )
        }));
        right_runs.push((key, start, run.len() as u32));
    }
    // Candidates land in per-shape buckets as they are generated — bucket
    // `(w-1)·h_grid + (h-1)` in generation order, which is exactly the
    // (shape-lexicographic, then insertion-ordered) sequence the old
    // stable sort over a flat pair list produced. The grid spans the
    // configured limits widened to 2 so the degraded fallback's
    // out-of-limit unit combinations (`{1,2}`/`{2,1}`) always have a slot.
    let w_grid = config.w_max.max(2) as usize;
    let h_grid = config.h_max.max(2) as usize;
    if buckets.len() < w_grid * h_grid {
        buckets.resize_with(w_grid * h_grid, Vec::new);
    }
    for bucket in &mut buckets[..w_grid * h_grid] {
        bucket.clear();
    }
    let mut generated = 0u64;
    // One bulk budget charge for the whole cross-product — same
    // cumulative total (and so the same trip point) as the old
    // charge-per-pair, without an atomic add in the inner loop.
    ctx.charge_many(left.len() as u64 * right.len() as u64, id)?;
    for &(ra, ca) in left.iter() {
        for &(kb, rstart, rlen) in right_runs.iter() {
            // One shape and one limit check per (candidate, run) pair —
            // `TupleKey::and`/`or` are symmetric, so every orientation of
            // every pair in this run lands on the same combined shape.
            let key = if is_and {
                ra.key.and(kb)
            } else {
                ra.key.or(kb)
            };
            if !key.fits(config.w_max, config.h_max) {
                continue;
            }
            let bucket = &mut buckets[(key.w as usize - 1) * h_grid + key.h as usize - 1];
            for &(rb, cb) in &right[rstart as usize..(rstart + rlen) as usize] {
                if is_and {
                    let (orders, n) = and_orders(config.and_order, ra, &ca, rb, &cb);
                    for &(rt, ct, rbm, cbm) in &orders[..n] {
                        generated += 1;
                        bucket.push(cands.push(combine_and(config, rt, ct, rbm, cbm)));
                    }
                } else {
                    generated += 1;
                    bucket.push(cands.push(combine_or(config, ra, &ca, rb, &cb)));
                }
            }
        }
    }
    let mut degraded = false;
    if generated == 0 && config.degrade_unmappable {
        // Forced gate boundary: reduce both children to their single-gate
        // `{1,1}` candidates and combine those, accepting the
        // out-of-limits shape. The gate formed here exceeds
        // `(W_max, H_max)`; the node is recorded as degraded.
        let units_a = left
            .iter()
            .filter(|&&(r, _)| r.key == TupleKey::UNIT)
            .count();
        let units_b = right
            .iter()
            .filter(|&&(r, _)| r.key == TupleKey::UNIT)
            .count();
        ctx.charge_many(units_a as u64 * units_b as u64, id)?;
        for &(ra, ca) in left.iter() {
            if ra.key != TupleKey::UNIT {
                continue;
            }
            for &(rb, cb) in right.iter() {
                if rb.key != TupleKey::UNIT {
                    continue;
                }
                generated += 1;
                let (key, cand) = if is_and {
                    let key = ra.key.and(rb.key);
                    (key, combine_and(config, ra, &ca, rb, &cb))
                } else {
                    let key = ra.key.or(rb.key);
                    (key, combine_or(config, ra, &ca, rb, &cb))
                };
                buckets[(key.w as usize - 1) * h_grid + key.h as usize - 1].push(cands.push(cand));
            }
        }
        degraded = true;
    }
    if generated == 0 {
        return Err(MapError::Unmappable {
            what: format!(
                "node {id} has no (W ≤ {}, H ≤ {}) combination",
                config.w_max, config.h_max
            ),
        });
    }
    // Candidate-balance bookkeeping (`generated == pruned + exported` per
    // solved node): `generated` is everything that entered the frontier;
    // drops are tallied independently at each site so the balance is a
    // genuine cross-check, not an identity.
    let mut pruned = 0u64;
    shapes.clear();
    staged.clear();
    let mut prune_batches = 0u64;
    let mut skyline_survivors = 0u64;
    // Bucket order (w ascending, then h) is exactly `TupleKey`'s
    // lexicographic order, so the staged runs come out key-sorted.
    for w in 1..=w_grid {
        for h in 1..=h_grid {
            let group = &buckets[(w - 1) * h_grid + (h - 1)];
            if group.is_empty() {
                continue;
            }
            let key = TupleKey {
                w: w as u32,
                h: h as u32,
            };
            skyline_survivors += skyline_prune(
                cands,
                group,
                order,
                keyed,
                kept,
                ctx.model,
                config.max_candidates,
            ) as u64;
            prune_batches += 1;
            pruned += (group.len() - kept.len()) as u64;
            let start = staged.len() as u32;
            staged.append(kept);
            shapes.push((key, start, staged.len() as u32 - start));
        }
    }
    enforce_tuple_cap(
        shapes,
        staged,
        cands,
        ctx.model,
        config.limits.max_tuples_per_node,
    );
    let survivors: u64 = shapes.iter().map(|&(_, _, len)| u64::from(len)).sum();
    pruned += staged.len() as u64 - survivors;
    // The gate is formed straight off the staged runs — the same
    // candidates in the same order an ExportMap copy would hold — so a
    // shared node (which discards its bare survivors) never pays for
    // materializing an export set it won't publish.
    let mut sol = NodeSol {
        gate: dp::form_gate(
            config,
            ctx.model,
            shapes.iter().flat_map(|&(key, start, len)| {
                let arena = &*cands;
                staged[start as usize..(start + len) as usize]
                    .iter()
                    .map(move |&h| (key, arena.get(h)))
            }),
        ),
        ..NodeSol::default()
    };
    let gate = sol.gate.as_ref().expect("nonempty bare set");
    let gate_cand = dp::exported_gate_cand(id, gate, ctx.fanouts[id.index()], config);
    let mut bare_exported = survivors;
    if ctx.fanouts[id.index()] <= 1 || config.allow_duplication {
        sol.exported = ExportMap::from_runs_with_unit(shapes, staged, cands, gate_cand);
    } else {
        // A shared node exports only its formed gate: the bare survivors
        // are discarded here, not exported.
        pruned += bare_exported;
        bare_exported = 0;
        sol.exported = ExportMap::unit(gate_cand);
    }
    let trace = config.trace;
    if trace.enabled() {
        trace.count(soi_trace::Counter::CandidatesGenerated, generated);
        trace.count(soi_trace::Counter::CandidatesPruned, pruned);
        trace.count(soi_trace::Counter::CandidatesExported, bare_exported);
        trace.count(soi_trace::Counter::PruneBatches, prune_batches);
        trace.count(soi_trace::Counter::SkylineSurvivors, skyline_survivors);
    }
    Ok((sol, degraded))
}

/// Enforces [`crate::Limits::max_tuples_per_node`]: when a node's total
/// candidate count (across all shapes) exceeds the cap, fall back to a
/// tighter per-shape Pareto cap; when the shape count alone exceeds it,
/// keep only the cheapest shapes. Never an error — precision degrades, the
/// run continues.
///
/// Operates on the staged runs in place: shortening a run leaves a hole in
/// `staged`, which [`ExportMap::from_runs`] compacts when copying out.
pub(crate) fn enforce_tuple_cap(
    shapes: &mut Vec<(TupleKey, u32, u32)>,
    staged: &[u32],
    arena: &CandArena,
    model: &CostModel,
    cap: usize,
) {
    let total: usize = shapes.iter().map(|&(_, _, len)| len as usize).sum();
    if total <= cap {
        return;
    }
    // The prune left each shape's run sorted by the model's grounded key,
    // so truncation keeps the best candidates.
    let per_shape = (cap / shapes.len()).max(1) as u32;
    for run in shapes.iter_mut() {
        run.2 = run.2.min(per_shape);
    }
    if shapes.len() > cap {
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        order.sort_by_key(|&i| {
            let (key, start, _) = shapes[i];
            (model.key(&arena.g(staged[start as usize])), key.w, key.h)
        });
        order.truncate(cap);
        // Restore shape order among the survivors.
        order.sort_unstable();
        let survivors: Vec<(TupleKey, u32, u32)> = order.iter().map(|&i| shapes[i]).collect();
        *shapes = survivors;
    }
}

/// The paper's `combine_or`: bottoms merge and the shared bottom becomes a
/// parallel-stack bottom. Every potential point of either branch — spine
/// junctions included — now sits inside a parallel branch of the result.
fn combine_or(config: &MapConfig, ra: CandRef, ca: &Cand, rb: CandRef, cb: &Cand) -> Cand {
    Cand {
        g: ca.g.combine(cb.g),
        u: Cost::default(),
        p_spine: 0,
        p_branch: ca.p_dis() + cb.p_dis(),
        par_b: true,
        touches_pi: ca.touches_pi || cb.touches_pi,
        form: Form::Or { a: ra, b: rb },
    }
    .derive_ungrounded(config.clock_weight)
}

/// The paper's `combine_and` with a fixed (top, bottom) orientation: the
/// top's branch points (and its parallel bottom, which becomes the new
/// junction) commit now — that is `cost_u(top)`; the top's spine junctions
/// and the new junction (when the top is spine-like) extend the result's
/// spine and stay potential.
fn combine_and(config: &MapConfig, rt: CandRef, ct: &Cand, rb: CandRef, cb: &Cand) -> Cand {
    Cand {
        g: ct.u.combine(cb.g),
        u: Cost::default(),
        p_spine: cb.p_spine + ct.p_spine + u32::from(!ct.par_b),
        p_branch: cb.p_branch,
        par_b: cb.par_b,
        touches_pi: ct.touches_pi || cb.touches_pi,
        form: Form::And {
            top: rt,
            bottom: rb,
        },
    }
    .derive_ungrounded(config.clock_weight)
}

/// Grounding benefit of placing a candidate at the bottom of a stack: the
/// branch points and parallel bottom that would otherwise commit. Spine
/// junctions are absolved by the gate's grounded chain either way.
fn score(c: &Cand) -> u32 {
    c.p_branch + u32::from(c.par_b)
}

type Orientation<'c> = (CandRef, &'c Cand, CandRef, &'c Cand);

/// Yields the (top, bottom) orientations to try for an AND combination:
/// a fixed-size buffer plus the count of valid entries, so the inner DP
/// loop never heap-allocates per candidate pair.
fn and_orders<'c>(
    order: AndOrder,
    ra: CandRef,
    ca: &'c Cand,
    rb: CandRef,
    cb: &'c Cand,
) -> ([Orientation<'c>; 2], usize) {
    let fwd = (ra, ca, rb, cb);
    let rev = (rb, cb, ra, ca);
    match order {
        AndOrder::FirstOnTop => ([fwd, rev], 1),
        AndOrder::Exhaustive => ([fwd, rev], 2),
        AndOrder::PaperHeuristic => {
            // The operand with a parallel bottom — or, between two such
            // operands, the one with more potential points — goes to the
            // bottom, in the hope it will eventually be grounded.
            if score(ca) >= score(cb) {
                ([rev, fwd], 1)
            } else {
                ([fwd, rev], 1)
            }
        }
    }
}

/// The original quadratic Pareto prune over `(g, u, par_b)` with
/// component-wise cost dominance, then a cap at `max` candidates ordered by
/// the model's grounded key. Kept as the reference semantics the batched
/// [`skyline_prune`] must reproduce bit-identically; the in-crate
/// equivalence proptest drives both over random candidate clouds.
#[cfg(test)]
pub(crate) fn prune_reference(
    cands: impl Iterator<Item = Cand>,
    kept: &mut Vec<Cand>,
    model: &CostModel,
    max: usize,
) {
    let dominates = |x: &Cand, y: &Cand| -> bool {
        // x dominates y: no worse on every coordinate that can influence
        // any future cost — including `touches_pi`, which decides whether
        // the eventual gate needs a foot n-clock — and at least as good a
        // par_b.
        x.g.tx <= y.g.tx
            && x.g.wtx <= y.g.wtx
            && x.g.disch <= y.g.disch
            && x.g.level <= y.g.level
            && x.u.tx <= y.u.tx
            && x.u.wtx <= y.u.wtx
            && x.u.disch <= y.u.disch
            && x.u.level <= y.u.level
            && x.p_spine <= y.p_spine
            && x.p_branch <= y.p_branch
            && (x.par_b || !y.par_b)
            && (!x.touches_pi || y.touches_pi)
    };
    kept.clear();
    // Stable insertion order keeps earlier (already-sorted-ish) candidates.
    for cand in cands {
        if kept.iter().any(|k| dominates(k, &cand)) {
            continue;
        }
        kept.retain(|k| !dominates(&cand, k));
        kept.push(cand);
    }
    kept.sort_by_key(|c| model.key(&c.g));
    kept.truncate(max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_unate::{Literal, Phase, USignal};

    fn lit(u: &mut UnateNetwork, i: usize) -> soi_unate::UId {
        u.add_literal(Literal {
            input: i,
            phase: Phase::Pos,
        })
    }

    fn cfg() -> MapConfig {
        MapConfig::default()
    }

    /// Fig. 4(a): building `A*B + C` yields one potential point, `par_b`.
    #[test]
    fn fig4a_tuple_values() {
        let mut u = UnateNetwork::new((0..3).map(|i| format!("i{i}")).collect());
        let a = lit(&mut u, 0);
        let b = lit(&mut u, 1);
        let c = lit(&mut u, 2);
        let ab = u.add_and(a, b);
        let f = u.add_or(ab, c);
        u.add_output("f", USignal::Node(f), false);
        let sols = solve(&u, &cfg(), None, None).unwrap().sols;
        let or_sol = &sols[4];
        let cands = &or_sol.exported[&TupleKey { w: 2, h: 2 }];
        let best = &cands[0];
        assert_eq!(best.p_dis(), 1);
        assert!(best.par_b);
        assert_eq!(best.g.tx, 3);
        assert_eq!(best.g.disch, 0);
        // Ungrounded: both the internal junction and the stack bottom.
        assert_eq!(best.u.tx, 5);
    }

    /// Fig. 4(b): `(A*B + C) * (D*E + F)` commits two discharge
    /// transistors; one point stays potential on the grounded side.
    #[test]
    fn fig4b_committed_discharges() {
        let mut u = UnateNetwork::new((0..6).map(|i| format!("i{i}")).collect());
        let lits: Vec<_> = (0..6).map(|i| lit(&mut u, i)).collect();
        let ab = u.add_and(lits[0], lits[1]);
        let abc = u.add_or(ab, lits[2]);
        let de = u.add_and(lits[3], lits[4]);
        let def = u.add_or(de, lits[5]);
        let f = u.add_and(abc, def);
        u.add_output("f", USignal::Node(f), false);
        let sols = solve(&u, &cfg(), None, None).unwrap().sols;
        let and_sol = &sols[10];
        let cands = &and_sol.exported[&TupleKey { w: 2, h: 4 }];
        let best = cands.iter().min_by_key(|c| (c.g.tx, c.p_dis())).unwrap();
        // 6 logic transistors + 2 committed discharges.
        assert_eq!(best.g.tx, 8);
        assert_eq!(best.g.disch, 2);
        assert_eq!(best.p_dis(), 1);
        assert!(best.par_b);
    }

    /// Fig. 5: ANDing `(A*B + C)` with `E` puts the parallel stack at the
    /// bottom — no committed discharge, two potential points.
    #[test]
    fn fig5_heuristic_orders_stack_to_ground() {
        let mut u = UnateNetwork::new((0..4).map(|i| format!("i{i}")).collect());
        let a = lit(&mut u, 0);
        let b = lit(&mut u, 1);
        let c = lit(&mut u, 2);
        let e = lit(&mut u, 3);
        let ab = u.add_and(a, b);
        let abc = u.add_or(ab, c);
        let f = u.add_and(abc, e);
        u.add_output("f", USignal::Node(f), false);
        let sols = solve(&u, &cfg(), None, None).unwrap().sols;
        let and_sol = &sols[6];
        let cands = &and_sol.exported[&TupleKey { w: 2, h: 3 }];
        let best = cands.iter().min_by_key(|c| (c.g.tx, c.p_dis())).unwrap();
        assert_eq!(best.g.disch, 0, "no committed discharge");
        assert_eq!(best.p_dis(), 2, "two potential points");
        assert!(best.par_b);
        assert_eq!(best.g.tx, 4);
        // The wrong order would cost 2 discharges:
        if let Form::And { top, bottom } = &best.form {
            // top must be the plain literal E (a {1,1} tuple).
            assert_eq!(top.key, TupleKey::UNIT);
            assert_eq!(bottom.key, TupleKey { w: 2, h: 2 });
        } else {
            panic!("expected an AND form");
        }
    }

    /// Exhaustive ordering can never do worse than the heuristic.
    #[test]
    fn exhaustive_at_least_as_good() {
        let mut u = UnateNetwork::new((0..6).map(|i| format!("i{i}")).collect());
        let lits: Vec<_> = (0..6).map(|i| lit(&mut u, i)).collect();
        let ab = u.add_and(lits[0], lits[1]);
        let abc = u.add_or(ab, lits[2]);
        let de = u.add_and(lits[3], lits[4]);
        let def = u.add_or(de, lits[5]);
        let f = u.add_and(abc, def);
        u.add_output("f", USignal::Node(f), false);

        let heuristic = solve(&u, &cfg(), None, None).unwrap().sols;
        let exhaustive = solve(
            &u,
            &MapConfig {
                and_order: AndOrder::Exhaustive,
                ..cfg()
            },
            None,
            None,
        )
        .unwrap()
        .sols;
        let hg = heuristic[10].gate.as_ref().unwrap().cost;
        let eg = exhaustive[10].gate.as_ref().unwrap().cost;
        assert!(eg.tx <= hg.tx);
    }

    /// Pruning keeps non-dominated candidates and respects the cap — and
    /// the batched skyline path agrees bit-for-bit with the quadratic
    /// reference on both the dominance-tie and cap cases.
    #[test]
    fn prune_respects_dominance_and_cap() {
        let config = cfg();
        let model = CostModel::new(&config, Algorithm::SoiDominoMap);
        let mk = |gtx: u32, utx: u32, par_b: bool| Cand {
            g: Cost::transistors(gtx),
            u: Cost::transistors(utx),
            p_spine: 0,
            p_branch: utx - gtx,
            par_b,
            touches_pi: false,
            form: Form::Lit(Literal {
                input: 0,
                phase: Phase::Pos,
            }),
        };
        // Runs both prunes over the same cloud and returns the skyline
        // survivors materialized, after checking they match the reference.
        let both = |cands: &[Cand], max: usize| -> Vec<Cand> {
            let mut reference = Vec::new();
            prune_reference(cands.iter().copied(), &mut reference, &model, max);
            let mut arena = CandArena::default();
            let group: Vec<u32> = cands.iter().map(|&c| arena.push(c)).collect();
            let (mut order, mut keyed, mut kept) = (Vec::new(), Vec::new(), Vec::new());
            let survivors = skyline_prune(
                &arena, &group, &mut order, &mut keyed, &mut kept, &model, max,
            );
            assert!(survivors >= kept.len());
            let sky: Vec<Cand> = kept.iter().map(|&h| arena.get(h)).collect();
            assert_eq!(sky, reference);
            sky
        };
        // (10, 10, T) dominates (10, 10, F) and (11, 12, F).
        let cands = vec![
            mk(10, 10, true),
            mk(10, 10, false),
            mk(11, 12, false),
            mk(8, 13, false),
        ];
        let kept = both(&cands, 4);
        assert_eq!(kept.len(), 2);
        // The cheap-g/expensive-u candidate survives.
        assert!(kept.iter().any(|c| c.g.tx == 8));
        assert!(kept.iter().any(|c| c.g.tx == 10 && c.par_b));

        let many: Vec<Cand> = (0..10).map(|i| mk(10 + i, 40 - i, false)).collect();
        let kept = both(&many, 3);
        assert_eq!(kept.len(), 3);
        // Cap keeps the best grounded costs.
        assert!(kept.iter().all(|c| c.g.tx <= 12));
    }

    /// The SOI gate for Fig. 2(a)'s function picks the discharge-free
    /// structure (stack at the bottom).
    #[test]
    fn fig2a_gate_has_no_discharge() {
        let mut u = UnateNetwork::new((0..4).map(|i| format!("i{i}")).collect());
        let a = lit(&mut u, 0);
        let b = lit(&mut u, 1);
        let c = lit(&mut u, 2);
        let d = lit(&mut u, 3);
        let ab = u.add_or(a, b);
        let abc = u.add_or(ab, c);
        let f = u.add_and(abc, d);
        u.add_output("f", USignal::Node(f), false);
        let sols = solve(&u, &cfg(), None, None).unwrap().sols;
        let gate = sols[6].gate.as_ref().unwrap();
        assert_eq!(gate.cost.disch, 0);
        assert_eq!(gate.cost.tx, 4 + 5);
    }
}
