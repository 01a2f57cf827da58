//! The `Domino_Map` baseline: the Zhao–Sapatnekar ICCAD'98 dynamic program
//! over `{W, H, cost}` tuples, blind to the parasitic bipolar effect.
//!
//! Each unate node accumulates the cheapest cost for every feasible
//! pull-down shape `(W, H)`; AND stacks combine as
//! `{max(W1,W2), H1+H2}` and OR stacks as `{W1+W2, max(H1,H2)}` (§IV,
//! Listing 1). Stack order inside an AND is the bulk-CMOS-typical
//! parallel-toward-the-dynamic-node orientation of the paper's §III-B,
//! which is exactly what excites the PBE. The consequences are somebody
//! else's problem, namely `soi_pbe::postprocess` (and `soi_pbe::rearrange`
//! for `RS_Map`).

use soi_unate::{UId, UNode, UnateNetwork};

use crate::arena::CandArena;
use crate::dp::{self, NodeCtx, Scratch};
use crate::table::{NodeSol, SegWriter, SolTable};
use crate::tuple::{Cand, CandRef, Form, TupleKey};
use crate::{Algorithm, CostModel, MapConfig, MapError, PartialMapping};

/// Runs the baseline DP, producing one [`NodeSol`] per unate node.
pub(crate) fn solve(
    unate: &UnateNetwork,
    config: &MapConfig,
    salvage: Option<&PartialMapping>,
    memo: bool,
) -> Result<dp::Solution, MapError> {
    dp::run_dp(
        unate,
        config,
        Algorithm::DominoMap,
        solve_node,
        salvage,
        memo,
    )
}

/// Records `cand` in the key-sorted best-per-shape list, keeping the
/// cheaper of it and any incumbent (first seen wins ties, as the model's
/// strict `better` demands). Returns whether a candidate was dropped (the
/// loser of an incumbent comparison) — candidate-balance bookkeeping.
fn consider(
    best: &mut Vec<(TupleKey, u32)>,
    arena: &mut CandArena,
    model: &CostModel,
    key: TupleKey,
    cand: Cand,
) -> bool {
    match best.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => {
            if model.better(&cand.g, &arena.g(best[i].1)) {
                best[i].1 = arena.push(cand);
            }
            true
        }
        Err(i) => {
            best.insert(i, (key, arena.push(cand)));
            false
        }
    }
}

/// Solves one unate node: keep the single best candidate per shape.
fn solve_node(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    scratch: &mut Scratch,
    out: &mut SegWriter,
    id: UId,
    node: UNode,
) -> Result<NodeSol, MapError> {
    let config = ctx.config;
    let model = ctx.model;
    let (a, b, is_and) = match node {
        UNode::Lit(l) => return Ok(dp::literal_sol(table, out, l, config, model)),
        UNode::And(a, b) => (a, b, true),
        UNode::Or(a, b) => (a, b, false),
    };
    let (sol_a, sol_b) = (table.node_exports(a), table.node_exports(b));
    // Best candidate per shape, accumulated key-sorted in the reused
    // scratch arena (a handful of shapes — binary search + insert beats
    // hashing at this size, and the order is deterministic for free).
    let Scratch {
        cands,
        pairs: bare,
        left,
        right,
        right_runs,
        shapes,
        staged,
        ..
    } = scratch;
    cands.clear();
    bare.clear();
    // Materialize both export lists once (dense slices for the quadratic
    // loop, with run boundaries on the right so the shape-limit check
    // hoists to run granularity) and bulk-charge the whole cross-product
    // upfront — identical cumulative budget totals, one atomic add per
    // node.
    left.clear();
    left.extend(sol_a.refs(a).map(|(r, c)| (r, *c)));
    right.clear();
    right_runs.clear();
    for (key, run) in sol_b.shape_runs() {
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
    // Candidate-balance bookkeeping (`generated == pruned + exported` per
    // solved node): every constructed candidate counts as generated, every
    // incumbent comparison drops exactly one.
    let mut generated = 0u64;
    let mut pruned = 0u64;
    ctx.charge_many(left.len() as u64 * right.len() as u64, id)?;
    for &(ra, ca) in left.iter() {
        for &(kb, rstart, rlen) in right_runs.iter() {
            let key = if is_and {
                ra.key.and(kb)
            } else {
                ra.key.or(kb)
            };
            if !key.fits(config.w_max, config.h_max) {
                continue;
            }
            for &(rb, cb) in &right[rstart as usize..(rstart + rlen) as usize] {
                let cand = combine(is_and, ra, &ca, rb, &cb);
                generated += 1;
                pruned += u64::from(consider(bare, cands, model, key, cand));
            }
        }
    }
    shapes.clear();
    staged.clear();
    for (i, &(key, h)) in bare.iter().enumerate() {
        staged.push(h);
        shapes.push((key, i as u32, 1));
    }
    // Gate formation runs straight off the staged runs; a shared node
    // never copies the bare survivors it is about to discard. As in the
    // SOI DP, validated limits always fit the AND or OR of the fanins'
    // `{1,1}` candidates: a node without a gate is unreachable.
    let gate = dp::form_gate(
        config,
        model,
        shapes.iter().flat_map(|&(key, start, len)| {
            let arena = &*cands;
            staged[start as usize..(start + len) as usize]
                .iter()
                .map(move |&h| (key, arena.get(h)))
        }),
    )
    .expect("an in-limit combination exists");
    let gate_cand = dp::exported_gate_cand(id, &gate, ctx.fanouts[id.index()], config);
    let mut bare_exported = bare.len() as u64;
    let exports = if ctx.fanouts[id.index()] <= 1 || config.allow_duplication {
        out.runs_with_unit(table, shapes, staged, cands, gate_cand)
    } else {
        // A shared node exports only its formed gate: the bare survivors
        // are discarded here, not exported.
        pruned += bare_exported;
        bare_exported = 0;
        out.unit(table, gate_cand)
    };
    let trace = config.trace;
    if trace.enabled() {
        trace.count(soi_trace::Counter::CandidatesGenerated, generated);
        trace.count(soi_trace::Counter::CandidatesPruned, pruned);
        trace.count(soi_trace::Counter::CandidatesExported, bare_exported);
    }
    Ok(NodeSol {
        exports,
        gate,
        profile: (0, 0),
    })
}

/// PBE-blind combination. Potential-point bookkeeping (`p_dis`, `par_b`)
/// is still tracked — not to influence the cost, which stays pure logic,
/// but to drive the bulk-typical stack orientation.
fn combine(is_and: bool, ra: CandRef, ca: &Cand, rb: CandRef, cb: &Cand) -> Cand {
    let g = ca.g.combine(cb.g);
    let touches_pi = ca.touches_pi || cb.touches_pi;
    if !is_and {
        return Cand {
            g,
            u: g,
            p_spine: 0,
            p_branch: ca.p_dis() + cb.p_dis(),
            par_b: true,
            touches_pi,
            form: Form::Or { a: ra, b: rb },
        };
    }
    // Bulk practice: the parallel-bearing, junction-rich operand goes
    // toward the dynamic node (§III-B "typical configuration": wide
    // sections at the top minimize the internal diffusion capacitance
    // exposed to charge sharing in bulk).
    let a_on_top = ca.p_branch + u32::from(ca.par_b) >= cb.p_branch + u32::from(cb.par_b);
    let (rt, ct, rbm, cbm) = if a_on_top {
        (ra, ca, rb, cb)
    } else {
        (rb, cb, ra, ca)
    };
    Cand {
        g,
        u: g,
        p_spine: cbm.p_spine + ct.p_spine + u32::from(!ct.par_b),
        p_branch: cbm.p_branch,
        par_b: cbm.par_b,
        touches_pi,
        form: Form::And {
            top: rt,
            bottom: rbm,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_unate::{Literal, Phase, USignal};

    /// The paper's Fig. 3 network: two 2-input ANDs feeding an OR,
    /// `W_max = H_max = 4`.
    fn fig3_unate() -> UnateNetwork {
        let mut u = UnateNetwork::new((0..4).map(|i| format!("i{i}")).collect());
        let lits: Vec<_> = (0..4)
            .map(|i| {
                u.add_literal(Literal {
                    input: i,
                    phase: Phase::Pos,
                })
            })
            .collect();
        let and1 = u.add_and(lits[0], lits[1]);
        let and2 = u.add_and(lits[2], lits[3]);
        let or = u.add_or(and1, and2);
        u.add_output("f", USignal::Node(or), false);
        u
    }

    fn fig3_config() -> MapConfig {
        MapConfig {
            w_max: 4,
            h_max: 4,
            ..MapConfig::default()
        }
    }

    #[test]
    fn fig3_and_node_tuples() {
        let u = fig3_unate();
        let sols = solve(&u, &fig3_config(), None, false).unwrap();
        // AND node (index 4): bare {1,2} with cost 2, gate cost 7.
        let and_sol = sols.exports(4);
        let bare = &and_sol[&TupleKey { w: 1, h: 2 }];
        assert_eq!(bare[0].g.tx, 2);
        let gate = sols.gate(4);
        assert_eq!(gate.cost.tx, 7); // 2 + 5 (footed: PIs)
                                     // Exported gate tuple carries cost 8 = 7 + the driven transistor.
        let unit = &and_sol[&TupleKey::UNIT];
        assert_eq!(unit[0].g.tx, 8);
    }

    #[test]
    fn fig3_or_node_selects_cost_4_and_gate_cost_9() {
        let u = fig3_unate();
        let sols = solve(&u, &fig3_config(), None, false).unwrap();
        let or_sol = sols.exports(6);
        // {2,2}: both ANDs absorbed, cost 4.
        let best = &or_sol[&TupleKey { w: 2, h: 2 }];
        assert_eq!(best[0].g.tx, 4);
        // {2,1}: both as gates, cost 16.
        let gates = &or_sol[&TupleKey { w: 2, h: 1 }];
        assert_eq!(gates[0].g.tx, 16);
        // Final gate: 4 + 5 = 9 (the paper's result).
        assert_eq!(sols.gate(6).cost.tx, 9);
    }

    #[test]
    fn fig3_mixed_combination_cost_10() {
        // gate + bare = {2,2} cost 10, dominated by the 4.
        // Verify by re-running with H_max = 2 blocking... the {2,2}
        // all-bare solution needs H=2, which fits; instead check the mixed
        // entry loses: the kept {2,2} candidate must cost 4, not 10.
        let u = fig3_unate();
        let sols = solve(&u, &fig3_config(), None, false).unwrap();
        let or_sol = sols.exports(6);
        assert_eq!(or_sol[&TupleKey { w: 2, h: 2 }][0].g.tx, 4);
    }

    #[test]
    fn shallow_limits_force_gate_boundaries() {
        // f = (a·b)·(c·d) at the smallest admitted limits: the two bare
        // `{1,2}` stacks would need H = 4, so the top AND can only stack
        // its fanins' formed gates.
        let mut u = UnateNetwork::new((0..4).map(|i| format!("i{i}")).collect());
        let lits: Vec<_> = (0..4)
            .map(|i| {
                u.add_literal(Literal {
                    input: i,
                    phase: Phase::Pos,
                })
            })
            .collect();
        let and1 = u.add_and(lits[0], lits[1]);
        let and2 = u.add_and(lits[2], lits[3]);
        let f = u.add_and(and1, and2);
        u.add_output("f", USignal::Node(f), false);
        let config = MapConfig {
            w_max: 2,
            h_max: 2,
            ..MapConfig::default()
        };
        let sols = solve(&u, &config, None, false).unwrap();
        let top = sols.exports(f.index());
        let shapes: Vec<TupleKey> = top.shape_runs().map(|(k, _)| k).collect();
        assert_eq!(shapes, [TupleKey::UNIT, TupleKey { w: 1, h: 2 }]);
        for cand in &top[&TupleKey { w: 1, h: 2 }] {
            assert!(
                matches!(cand.form, Form::And { top, bottom }
                    if top.key == TupleKey::UNIT && bottom.key == TupleKey::UNIT),
                "{:?}",
                cand.form
            );
        }
    }

    #[test]
    fn multi_fanout_node_exports_only_gate() {
        let mut u = UnateNetwork::new((0..3).map(|i| format!("i{i}")).collect());
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        let b = u.add_literal(Literal {
            input: 1,
            phase: Phase::Pos,
        });
        let c = u.add_literal(Literal {
            input: 2,
            phase: Phase::Pos,
        });
        let shared = u.add_and(a, b);
        let f1 = u.add_or(shared, c);
        let f2 = u.add_and(shared, c);
        u.add_output("f1", USignal::Node(f1), false);
        u.add_output("f2", USignal::Node(f2), false);
        let sols = solve(&u, &MapConfig::default(), None, false).unwrap();
        let shared_sol = sols.exports(3);
        assert_eq!(shared_sol.len(), 1);
        let unit = &shared_sol[&TupleKey::UNIT];
        assert_eq!(unit.len(), 1);
        // Shared: consumers see only the driven transistor.
        assert_eq!(unit[0].g.tx, 1);
    }

    #[test]
    fn depth_objective_prefers_flat_structures() {
        let u = fig3_unate();
        let config = MapConfig {
            objective: crate::Objective::Depth,
            w_max: 4,
            h_max: 4,
            ..MapConfig::default()
        };
        let sols = solve(&u, &config, None, false).unwrap();
        // Single-gate solution: level 1.
        assert_eq!(sols.gate(6).cost.level, 1);
    }
}
