//! Shared pieces of the two tuple DPs, including the driver that walks a
//! unate network — serially, or level by level across the independent
//! fanout-free cones of its cone partition — and hands each node to an
//! algorithm-specific solver, replaying repeated gates from the worker's
//! [`NodeMemo`] along the way.
//!
//! Nothing on the per-node path is shared between workers except what a
//! node reads from earlier levels: each worker writes its nodes' exports
//! to its own segments of the [`SolTable`], probes its own memo and keeps
//! its own step tally, which it adds to the run's [`Budget`] once per
//! [`CHECK_STRIDE`] steps and at the end of each cone unit.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soi_trace::{Counter, Gauge, Stage, TraceHandle};
use soi_unate::{ConePartition, Literal, UId, UNode, UnateNetwork};

use crate::arena::CandArena;
use crate::job::{self, CancelToken, PartialMapping, SalvagedUnit};
use crate::memo::{self, MemoLatch, NodeEntry, NodeMemo};
use crate::table::{NodeSol, SegWriter, SolTable};
use crate::tuple::{Cand, CandRef, Form, GateSol, TupleKey};
use crate::{Algorithm, Cost, CostModel, Footing, MapConfig, MapError};

/// The product of one DP run over a unate network.
pub(crate) struct Solution {
    /// One solution per unate node.
    pub(crate) table: SolTable,
    /// Largest exported-candidate count any single node reached — the
    /// memory high-water mark of the DP (diagnostics; deterministic).
    pub(crate) peak_candidates: usize,
    /// Worker threads the schedule actually used.
    pub(crate) threads_used: usize,
    /// Memo hits and misses of this run (both 0 with the memo off).
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    /// Candidate-combination steps the run charged against its budget —
    /// identical across serial, parallel, memoized and resumed schedules
    /// (memo hits and salvaged units bulk-charge the step count their
    /// solution originally cost).
    pub(crate) combine_steps: u64,
}

#[cfg(test)]
impl Solution {
    /// The exports of node `i`.
    pub(crate) fn exports(&self, i: usize) -> crate::table::Exports<'_> {
        self.table.node_exports(UId::from_index(i))
    }

    /// The gate solution of node `i`.
    pub(crate) fn gate(&self, i: usize) -> GateSol {
        self.table.get(UId::from_index(i)).gate
    }
}

/// Running charge against the per-run combine-step budget
/// ([`crate::Limits::max_combine_steps`]).
///
/// The counter is a shared atomic so cone workers running on different
/// threads charge the same global allowance: the budget stays a single
/// deterministic limit on the *total* amount of combination work, not a
/// per-thread one. Each worker tallies its steps locally
/// ([`NodeCtx::charge_many`]) and adds them here at least once per
/// [`CHECK_STRIDE`] steps and at the end of every cone unit, so by the
/// end of a run every step is charged. Whether a run trips the budget is
/// therefore identical between serial and parallel execution, and between
/// memoized and unmemoized execution (a memo hit charges the exact step
/// count the solver would have performed); only which node reports the
/// exhaustion first may differ between schedules.
///
/// The budget doubles as the run's **interrupt poll point**: the shared
/// cancellation token, the deterministic step trip and the wall-clock
/// deadline from [`crate::Limits`] are checked on every charge — once per
/// [`CHECK_STRIDE`] combine steps of a worker, plus at every cone-unit
/// boundary — so every worker observes an interrupt within a bounded
/// amount of work without putting an `Instant::now()` on the hot path.
pub(crate) struct Budget {
    steps: AtomicU64,
    max_steps: u64,
    cancel: CancelToken,
    /// `Limits::cancel_after_steps`, or `u64::MAX` when unset.
    cancel_after: u64,
    /// `(fire instant, configured allowance)` when a deadline is set.
    deadline: Option<(Instant, Duration)>,
    started: Instant,
    /// First-trip latch so `cancels_observed` counts interrupts, not polls.
    tripped: AtomicBool,
    trace: TraceHandle,
}

/// Combine steps a worker tallies between charges to the shared budget,
/// each of which polls the interrupts. Coarse enough that the charge (an
/// atomic add, a few loads, occasionally a clock read) vanishes next to
/// the candidate combination work of a stride; fine enough that a cancel
/// or deadline is observed within microseconds on every schedule.
const CHECK_STRIDE: u64 = 1024;

impl Budget {
    pub(crate) fn new(config: &MapConfig) -> Budget {
        let started = Instant::now();
        Budget {
            steps: AtomicU64::new(0),
            max_steps: config.limits.max_combine_steps,
            cancel: config.limits.cancel,
            cancel_after: config.limits.cancel_after_steps.unwrap_or(u64::MAX),
            deadline: config.limits.deadline.map(|d| (started + d, d)),
            started,
            tripped: AtomicBool::new(false),
            trace: config.trace,
        }
    }

    /// Single-step charge — test convenience over
    /// [`charge_many`](Budget::charge_many).
    #[cfg(test)]
    pub(crate) fn charge(&self, node: UId) -> Result<u64, MapError> {
        self.charge_many(1, node)
    }

    /// Adds `n` steps a worker tallied to the shared total and polls the
    /// interrupts; returns the new total. Fails when the total passes the
    /// budget, or when an interrupt is pending — including the
    /// deterministic trip, which this charge may be the one to cross.
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<u64, MapError> {
        let steps = self.steps.fetch_add(n, Ordering::Relaxed) + n;
        if steps > self.max_steps {
            return Err(MapError::BudgetExceeded {
                what: format!(
                    "combine-step budget of {} exhausted at node {node}",
                    self.max_steps
                ),
            });
        }
        self.poll(steps)?;
        Ok(steps)
    }

    /// Polls the run's interrupt sources: the cancellation token, the
    /// deterministic step trip, then the wall-clock deadline. Called from
    /// the charge stride, at cone-unit boundaries, and by the scheduler's
    /// worker loop.
    pub(crate) fn check_interrupt(&self) -> Result<(), MapError> {
        // The shared total is read only when a trip is set: the workers
        // add to it, so reading it costs a cache-line transfer.
        let steps = if self.cancel_after == u64::MAX {
            0
        } else {
            self.steps.load(Ordering::Relaxed)
        };
        self.poll(steps)
    }

    /// [`check_interrupt`](Budget::check_interrupt) against a known
    /// total of `steps`.
    fn poll(&self, steps: u64) -> Result<(), MapError> {
        if self.cancel.is_cancelled() {
            self.trip();
            return Err(MapError::Cancelled {
                what: "cancellation token tripped".into(),
                partial: None,
            });
        }
        if steps >= self.cancel_after {
            self.trip();
            return Err(MapError::Cancelled {
                what: format!("deterministic trip at {} combine steps", self.cancel_after),
                partial: None,
            });
        }
        if let Some((at, allowance)) = self.deadline {
            if Instant::now() >= at {
                self.trip();
                return Err(MapError::DeadlineExceeded {
                    elapsed: self.started.elapsed(),
                    deadline: allowance,
                    partial: None,
                });
            }
        }
        Ok(())
    }

    /// Counts the first observed interrupt (workers racing to the same
    /// trip report one cancellation, not one per worker).
    fn trip(&self) {
        if !self.tripped.swap(true, Ordering::Relaxed) {
            self.trace.count(Counter::CancelsObserved, 1);
        }
    }

    /// Total steps charged so far across all workers.
    pub(crate) fn total(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }
}

/// Rejects, before any DP work, networks larger than the gate budget and
/// networks whose worst-case [`cost_bound`] at the configured clock weight
/// does not fit the DP's `u32` costs, which the hot path adds unchecked.
pub(crate) fn check_gate_budget(unate: &UnateNetwork, config: &MapConfig) -> Result<(), MapError> {
    if unate.len() > config.limits.max_gates {
        return Err(MapError::BudgetExceeded {
            what: format!(
                "network has {} unate nodes, budget allows {}",
                unate.len(),
                config.limits.max_gates
            ),
        });
    }
    let bound = cost_bound(unate.len(), config);
    if bound > u64::from(u32::MAX) {
        return Err(MapError::BudgetExceeded {
            what: format!(
                "clock weight {} on {} unate nodes can reach a cost of {bound}, past the \
                 DP's 32-bit limit {}",
                config.clock_weight,
                unate.len(),
                u32::MAX
            ),
        });
    }
    Ok(())
}

/// Worst-case value of any [`Cost`] field the DP builds for a network of
/// `nodes` unate nodes: `(nodes + 1) · (3k + 7)` at clock weight `k`,
/// times `W_max · H_max` with duplication. Computed in `u64`, saturating.
///
/// * Every field is at most `wtx`: a transistor counts 1 in `tx` and 1 or
///   `k ≥ 1` in `wtx`, discharges are transistors, and levels grow by at
///   most one per node.
/// * One node adds at most `3k + 7` to a structure's `wtx`: its gate
///   periphery, at most `2k + 3` ([`gate_overhead`]); one discharge point
///   — an AND junction or an OR bottom, each committed at most once —
///   worth `k` ([`Cost::with_discharge`]); and two operand transistors,
///   each a literal or a child's gate input (the `+ 1` of
///   [`exported_gate_cand`]), plus 1 each where a duplication share
///   `⌈c / f⌉` rounds up.
/// * Without duplication a shared node exports only its input transistor,
///   so a structure covers a fanout-free cone and charges each node at
///   most once: `nodes · (3k + 7)` bounds every field.
/// * With duplication a shared node's gate is split into shares over its
///   `f` consumers, but its bare structures are exported whole, so a
///   consumer may cover it once per path. A pull-down network of shape
///   `(w, h)` has at most `w · h` transistors, so a structure holds at
///   most `W_max · H_max` gate inputs, each at most one gate
///   (`nodes · (3k + 7)`) plus its transistor, and `W_max · H_max − 1`
///   discharge points; `1 + k ≤ 3k + 7` gives the `nodes + 1`. This holds
///   for `SOI_Domino_Map` under the area objective, where a gate is the
///   cheapest by `wtx` and so never costlier than the gate that takes
///   both operands as inputs. Where a gate is picked for its transistor
///   count or its level instead, it may repeat paths itself, and the
///   factor is a margin rather than a proof.
fn cost_bound(nodes: usize, config: &MapConfig) -> u64 {
    let k = u64::from(config.clock_weight);
    let paths = if config.allow_duplication {
        u64::from(config.w_max) * u64::from(config.h_max)
    } else {
        1
    };
    (nodes as u64 + 1)
        .saturating_mul(3 * k + 7)
        .saturating_mul(paths)
}

/// Per-worker context for solver invocations: the shared read-only run
/// state plus this worker's step tally.
pub(crate) struct NodeCtx<'a> {
    pub config: &'a MapConfig,
    pub model: &'a CostModel,
    pub fanouts: &'a [u32],
    budget: &'a Budget,
    /// Steps this worker charged, added to the budget or not (prices memo
    /// entries and completed units).
    steps: Cell<u64>,
    /// Steps charged here and not yet added to the budget.
    pending: Cell<u64>,
    /// The budget's total after this worker's last charge to it. With one
    /// worker, `seen + pending` is the exact total.
    seen: Cell<u64>,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(
        config: &'a MapConfig,
        model: &'a CostModel,
        fanouts: &'a [u32],
        budget: &'a Budget,
    ) -> NodeCtx<'a> {
        NodeCtx {
            config,
            model,
            fanouts,
            budget,
            steps: Cell::new(0),
            pending: Cell::new(0),
            seen: Cell::new(0),
        }
    }

    /// Charges `n` steps at `node` to this worker's tally. Used by memo
    /// hits and salvaged units paying for the work their solution
    /// originally cost, and by the solvers' combination loops, which
    /// charge a node's whole candidate cross-product upfront. The tally
    /// goes to the shared budget once [`CHECK_STRIDE`] steps are pending,
    /// or at once when the total as this worker knows it could cross the
    /// budget or the deterministic trip — so with one worker both trip at
    /// the exact charge they would trip at if every charge went straight
    /// to the budget.
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<(), MapError> {
        self.steps.set(self.steps.get() + n);
        let pending = self.pending.get() + n;
        self.pending.set(pending);
        let known = self.seen.get() + pending;
        if pending >= CHECK_STRIDE
            || known > self.budget.max_steps
            || known >= self.budget.cancel_after
        {
            self.flush(node)?;
        }
        Ok(())
    }

    /// Adds the pending steps to the shared budget, polling the
    /// interrupts (see [`Budget::charge_many`]).
    fn flush(&self, node: UId) -> Result<(), MapError> {
        let n = self.pending.replace(0);
        if n > 0 {
            self.seen.set(self.budget.charge_many(n, node)?);
        }
        Ok(())
    }

    fn steps_so_far(&self) -> u64 {
        self.steps.get()
    }

    /// Polls the run's interrupt sources (see [`Budget::check_interrupt`]).
    pub(crate) fn check_interrupt(&self) -> Result<(), MapError> {
        self.budget.check_interrupt()
    }
}

/// Per-worker scratch arenas, reused across nodes so per-node accumulation
/// and pruning never allocate in steady state. All candidate payloads live
/// in the row-major [`CandArena`]; the vectors around it carry only `u32`
/// handles. The SOI solver copies both fanins' export lists into
/// `left`/`right`, buckets every combination by shape as it is generated
/// (`buckets`, replacing a stable sort over the whole pair list), prunes
/// each bucket with the batched skyline prune
/// ([`crate::arena::skyline_prune`]) via `order`/`keyed`/`kept`, and
/// stages the survivors in `staged` with their runs described by `shapes`.
/// The baseline keeps its key-sorted best-per-shape list in `pairs`.
/// Everything is cleared — never dropped — between nodes, so capacity is
/// retained across nodes *and* cone units for the lifetime of the worker.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Struct-of-arrays storage for every candidate of the current node.
    pub cands: CandArena,
    /// Key-sorted best-per-shape accumulation list (baseline DP).
    pub pairs: Vec<(TupleKey, u32)>,
    /// Materialized fanin export lists: copied once per node so the
    /// quadratic combination loop reads two dense slices instead of
    /// re-walking nested run iterators on every outer iteration.
    pub left: Vec<(CandRef, Cand)>,
    pub right: Vec<(CandRef, Cand)>,
    /// Shape runs of `right`: `(key, start, len)` — lets the combination
    /// loop test shape limits once per run instead of once per pair.
    pub right_runs: Vec<(TupleKey, u32, u32)>,
    /// Per-shape generation-order candidate buckets, indexed
    /// `(w-1)·h_grid + (h-1)` (SOI DP).
    pub buckets: Vec<Vec<u32>>,
    /// Skyline sweep ordering scratch: `(lex-prefix key, position)`.
    pub order: Vec<(u64, u32)>,
    /// Skyline final-ranking scratch: `(packed model key, position)`.
    pub keyed: Vec<(u128, u32)>,
    /// Pareto-pruning keep buffer for one shape run (handles).
    pub kept: Vec<u32>,
    /// Per-shape survivor runs: `(key, start, len)` into `staged`.
    pub shapes: Vec<(TupleKey, u32, u32)>,
    /// Survivor staging list (handles).
    pub staged: Vec<u32>,
}

/// A per-node DP step: solves `node` given the solutions of its fanins in
/// `table`, writing its exports through the worker's open segment `out`.
/// The returned header's profile is `(0, 0)`; the driver fills it in when
/// the memo needs it.
pub(crate) trait NodeSolver: Sync {
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        table: &SolTable,
        scratch: &mut Scratch,
        out: &mut SegWriter,
        id: UId,
        node: UNode,
    ) -> Result<NodeSol, MapError>;
}

impl<F> NodeSolver for F
where
    F: Fn(
            &NodeCtx<'_>,
            &SolTable,
            &mut Scratch,
            &mut SegWriter,
            UId,
            UNode,
        ) -> Result<NodeSol, MapError>
        + Sync,
{
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        table: &SolTable,
        scratch: &mut Scratch,
        out: &mut SegWriter,
        id: UId,
        node: UNode,
    ) -> Result<NodeSol, MapError> {
        self(ctx, table, scratch, out, id, node)
    }
}

/// One cone unit a worker finished, with the combine steps it charged —
/// the unit of account for partial-result salvage.
#[derive(Clone, Copy)]
pub(crate) struct CompletedUnit {
    pub unit: u32,
    pub steps: u64,
}

/// Per-worker accumulator merged into the [`Solution`] at the end.
#[derive(Default)]
pub(crate) struct UnitAcc {
    pub peak_candidates: usize,
    /// Largest candidate count the worker's scratch arena held for one
    /// node (pre-prune frontier high-water; see `Gauge::ScratchHighWater`).
    pub scratch_high_water: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Units this worker completed, in completion order.
    pub completed: Vec<CompletedUnit>,
}

/// A worker's mutable state: scratch arenas, the accumulator, its memo
/// and its open segment.
pub(crate) struct WorkerState {
    pub scratch: Scratch,
    pub acc: UnitAcc,
    /// This worker's gate memo, when the run builds memos.
    memo: Option<NodeMemo>,
    out: SegWriter,
}

impl WorkerState {
    fn new(table: &SolTable, worker: usize, memo: bool) -> WorkerState {
        WorkerState {
            scratch: Scratch::default(),
            acc: UnitAcc::default(),
            memo: memo.then(NodeMemo::default),
            out: table.writer(worker),
        }
    }
}

/// What every worker of a run reads: the network, its partition, the
/// solution table, the solver, the salvage seeds and the memo latch.
struct Run<'a, S> {
    unate: &'a UnateNetwork,
    partition: &'a ConePartition,
    table: &'a SolTable,
    solver: &'a S,
    /// Per unit, the salvage that stands in for solving it.
    seeds: &'a [Option<&'a SalvagedUnit>],
    latch: &'a MemoLatch,
}

/// Solves the given nodes in order, publishing each solution. With a live
/// memo, each gate is probed on (kind, fanout, fanin profiles), rebound on
/// a hit, and solved and captured on a miss. Literals are always solved
/// directly (they cost less than a probe).
fn solve_nodes<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    run: &Run<'_, S>,
    nodes: &[UId],
    state: &mut WorkerState,
) -> Result<(), MapError> {
    let trace = ctx.config.trace;
    let table = run.table;
    let WorkerState {
        scratch,
        acc,
        memo,
        out,
    } = state;
    for &id in nodes {
        let node = run.unate.node(id);
        // Once the latch is up nothing probes again, so solutions stop
        // computing the profiles only probes read.
        let memo = memo.as_mut().filter(|_| !run.latch.is_raised());
        let mut capture = None;
        let sol = match memo {
            Some(memo) if node.is_gate() => {
                let (key, level_base, hit) = memo.probe(node, ctx.fanouts[id.index()], table);
                trace.count(Counter::NodeTierProbes, 1);
                if memo.note_probe(hit.is_some(), run.latch) {
                    trace.count(Counter::TierBypasses, 1);
                }
                if let Some(entry) = hit {
                    trace.count(Counter::NodeTierHits, 1);
                    acc.cache_hits += 1;
                    ctx.charge_many(entry.steps, id)?;
                    entry.rebind(table, out, id, node, level_base)
                } else {
                    trace.count(Counter::NodeTierMisses, 1);
                    acc.cache_misses += 1;
                    let steps_before = ctx.steps_so_far();
                    let mut sol = run.solver.solve_node(ctx, table, scratch, out, id, node)?;
                    sol.profile = memo::profile(out.exports(table, &sol.exports));
                    let steps = ctx.steps_so_far() - steps_before;
                    capture = Some((memo, key, NodeEntry::capture(id, node, steps, level_base)));
                    sol
                }
            }
            memo => {
                let mut sol = run.solver.solve_node(ctx, table, scratch, out, id, node)?;
                if memo.is_some() {
                    // Literal solutions feed gate probes: they need
                    // profiles too (all-level-0 candidates, so the min
                    // pins base 0).
                    sol.profile = memo::profile(out.exports(table, &sol.exports));
                }
                sol
            }
        };
        acc.peak_candidates = acc.peak_candidates.max(sol.exports.candidates());
        acc.scratch_high_water = acc.scratch_high_water.max(scratch.cands.len());
        out.set(table, id, sol);
        // An entry points at its capture's header, so it goes in after
        // the header is published.
        if let Some((memo, key, entry)) = capture {
            memo.insert(key, entry);
        }
    }
    Ok(())
}

/// Runs one cone unit with full job control: an interrupt poll at the
/// unit boundary, panic containment around the solve, and completion
/// tracking for salvage. A salvaged unit (already in the table) is
/// accounted for instead of solved. Both schedules funnel through here.
fn run_unit_isolated<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    run: &Run<'_, S>,
    state: &mut WorkerState,
    u: usize,
) -> Result<(), MapError> {
    let unit = run.partition.unit(u);
    if let Some(seed) = run.seeds.get(u).copied().flatten() {
        // Recorded as completed before the charge, so an interrupt the
        // charge observes still salvages the unit again.
        state.acc.completed.push(CompletedUnit {
            unit: u as u32,
            steps: seed.steps,
        });
        for sol in &seed.sols.sols {
            state.acc.peak_candidates = state.acc.peak_candidates.max(sol.exports.candidates());
        }
        ctx.charge_many(seed.steps, unit.root())?;
        return ctx.flush(unit.root());
    }
    ctx.check_interrupt()?;
    let steps_before = ctx.steps_so_far();
    // AssertUnwindSafe: on a caught panic the worker's in-progress unit
    // state (scratch arenas, part of its open segment, the unit's
    // unpublished headers) is abandoned — the salvage pass only ever reads
    // units recorded as completed.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(poisoned) = ctx.config.poison_node {
            // Fault injection (see `MapConfig::poison_node`): blow up
            // before any solving, on every schedule alike, so the
            // containment path is exercised deterministically.
            if unit
                .nodes()
                .iter()
                .any(|&id| id.index() == poisoned as usize)
            {
                panic!("injected fault: poisoned unate node {poisoned}");
            }
        }
        solve_nodes(ctx, run, unit.nodes(), state)
    }));
    match outcome {
        Ok(Ok(())) => {
            // The unit's steps reach the budget before it counts as
            // completed.
            ctx.flush(unit.root())?;
            state.acc.completed.push(CompletedUnit {
                unit: u as u32,
                steps: ctx.steps_so_far() - steps_before,
            });
            Ok(())
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            ctx.config.trace.count(Counter::PanicsContained, 1);
            Err(MapError::WorkerPanicked {
                unit: u,
                payload: panic_text(payload.as_ref()),
                partial: None,
            })
        }
    }
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs a per-node solver over the whole network, serially or on parallel
/// workers according to [`MapConfig::parallelism`], through per-worker
/// memos when `memo` is set, and resuming from `salvage` when given.
///
/// Both paths iterate cone units ([`UnateNetwork::cone_partition`]); the
/// serial path walks them in index order (a valid topological order, and
/// the reference schedule), the parallel path lets [`crate::sched`] walk
/// the partition's levels behind a barrier. Because every per-node
/// computation is a pure function of its fanins' solutions — and sorted
/// shape runs make candidate enumeration order deterministic — the result
/// is bit-identical across all schedules, with the memo ([`crate::memo`])
/// on or off, and whether a unit was solved here or seeded from a salvage.
pub(crate) fn run_dp<S: NodeSolver>(
    unate: &UnateNetwork,
    config: &MapConfig,
    algorithm: Algorithm,
    solver: S,
    salvage: Option<&PartialMapping>,
    memo: bool,
) -> Result<Solution, MapError> {
    check_gate_budget(unate, config)?;
    let trace = config.trace;
    let model = CostModel::new(config, algorithm);
    let fanouts = fanouts(unate);
    let budget = Budget::new(config);
    let partition = {
        let _span = trace.span(Stage::ConePartition);
        unate.cone_partition()
    };
    let units = partition.units().len();
    let gates = unate.iter().filter(|(_, n)| n.is_gate()).count();
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = config
        .parallelism
        .resolved_threads(hw, gates, units, partition.levels().len())
        .clamp(1, units.max(1));
    let table = SolTable::new(unate.len(), threads);
    let seeds = match salvage {
        Some(partial) => seed_table(unate, config, algorithm, &partition, &table, partial, memo)?,
        None => Vec::new(),
    };
    let latch = MemoLatch::default();
    let run = Run {
        unate,
        partition: &partition,
        table: &table,
        solver: &solver,
        seeds: &seeds,
        latch: &latch,
    };

    // Each worker's accumulator, and the steps an interrupt left in its
    // tally (a completed unit leaves none).
    let (accs, outcome): (Vec<(UnitAcc, u64)>, Result<(), MapError>) = if threads <= 1 {
        let ctx = NodeCtx::new(config, &model, &fanouts, &budget);
        let mut state = WorkerState::new(&table, 0, memo);
        let outcome = (0..units).try_for_each(|u| run_unit_isolated(&ctx, &run, &mut state, u));
        (vec![(state.acc, ctx.pending.get())], outcome)
    } else {
        let run = &run;
        let (workers, outcome) = crate::sched::run_units(
            &partition,
            threads,
            |w| {
                (
                    NodeCtx::new(config, &model, &fanouts, &budget),
                    WorkerState::new(&table, w, memo),
                )
            },
            |(ctx, state): &mut (NodeCtx<'_>, WorkerState), u: usize| {
                run_unit_isolated(ctx, run, state, u)
            },
            || budget.check_interrupt(),
            trace,
        );
        (
            workers
                .into_iter()
                .map(|(ctx, state)| (state.acc, ctx.pending.get()))
                .collect(),
            outcome,
        )
    };
    let threads_used = accs.len();

    let mut completed: Vec<CompletedUnit> = Vec::new();
    let mut peak_candidates = 0usize;
    let mut scratch_high_water = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut unflushed = 0u64;
    for (acc, pending) in accs {
        unflushed += pending;
        completed.extend(acc.completed);
        peak_candidates = peak_candidates.max(acc.peak_candidates);
        scratch_high_water = scratch_high_water.max(acc.scratch_high_water);
        cache_hits += acc.cache_hits;
        cache_misses += acc.cache_misses;
    }
    completed.sort_unstable_by_key(|c| c.unit);

    let combine_steps = budget.total() + unflushed;

    if let Err(err) = outcome {
        return Err(match err {
            MapError::Cancelled { .. }
            | MapError::DeadlineExceeded { .. }
            | MapError::WorkerPanicked { .. } => {
                let salvage = build_salvage(
                    job::digest(unate, config, algorithm),
                    &partition,
                    &completed,
                    &table,
                    combine_steps,
                    trace,
                );
                err.with_partial(Arc::new(salvage))
            }
            // Deterministic failures (budget trips) recur identically on
            // a resume — no salvage.
            other => other,
        });
    }

    if trace.enabled() {
        trace.count(Counter::CombineSteps, combine_steps);
        trace.gauge(Gauge::PeakCandidates, peak_candidates as u64);
        trace.gauge(Gauge::ThreadsUsed, threads_used as u64);
        trace.gauge(Gauge::ScratchHighWater, scratch_high_water as u64);
    }

    Ok(Solution {
        table,
        peak_candidates,
        threads_used,
        cache_hits,
        cache_misses,
        combine_steps,
    })
}

/// Seeds the completed units of an interrupted run's `partial` into a
/// fresh run's solution table, in one segment written before any worker
/// starts. Returns, per unit of `partition`, the salvage that stands in
/// for solving it.
///
/// # Errors
///
/// [`MapError::InvalidConfig`] when `partial` was recorded for a different
/// network, algorithm or semantic configuration: its solutions would be
/// wrong here.
fn seed_table<'p>(
    unate: &UnateNetwork,
    config: &MapConfig,
    algorithm: Algorithm,
    partition: &ConePartition,
    table: &SolTable,
    partial: &'p PartialMapping,
    memo: bool,
) -> Result<Vec<Option<&'p SalvagedUnit>>, MapError> {
    let units = partition.units().len();
    let fits = |s: &SalvagedUnit| {
        s.unit < units && s.sols.sols.len() == partition.unit(s.unit).nodes().len()
    };
    if partial.digest != job::digest(unate, config, algorithm)
        || partial.total_units() != units
        || !partial.units.iter().all(fits)
    {
        return Err(MapError::InvalidConfig {
            what: "the salvaged partial mapping was recorded for a different network, \
                   algorithm or configuration"
                .into(),
        });
    }
    let mut seeds = vec![None; units];
    let mut out = table.seed_writer(partial.units.iter().map(|s| s.sols.candidates()).sum());
    for salvaged in &partial.units {
        let nodes = partition.unit(salvaged.unit).nodes();
        for (i, (&id, sol)) in nodes.iter().zip(&salvaged.sols.sols).enumerate() {
            let exports = salvaged.sols.exports(i);
            let mut sol = NodeSol {
                exports: out.copy(table, exports, |c| c),
                ..*sol
            };
            if memo {
                // Memo probes read their fanins' profiles, and the
                // interrupted run may not have computed them.
                sol.profile = memo::profile(exports);
            }
            out.set(table, id, sol);
        }
        seeds[salvaged.unit] = Some(salvaged);
    }
    Ok(seeds)
}

/// Collects everything an interrupted run finished into the
/// [`PartialMapping`] that rides on the interrupt error: owned copies of
/// the solutions of every completed unit, the steps each charged, and the
/// frontier the interrupt cut off.
fn build_salvage(
    digest: u64,
    partition: &ConePartition,
    completed: &[CompletedUnit],
    table: &SolTable,
    combine_steps: u64,
    trace: TraceHandle,
) -> PartialMapping {
    let total = partition.units().len();
    let mut done = vec![false; total];
    for c in completed {
        done[c.unit as usize] = true;
    }
    // The frontier: unfinished units whose dependencies all finished — the
    // exact work the interrupt cut off, under any schedule.
    let frontier: Vec<usize> = (0..total)
        .filter(|&u| !done[u] && partition.unit(u).deps().iter().all(|&d| done[d]))
        .collect();
    let units = completed
        .iter()
        .map(|c| SalvagedUnit {
            unit: c.unit as usize,
            steps: c.steps,
            sols: table.copy_out(partition.unit(c.unit as usize).nodes()),
        })
        .collect();
    trace.count(Counter::UnitsSalvaged, completed.len() as u64);
    PartialMapping::new(total, frontier, combine_steps, digest, units)
}

/// Gate-periphery cost: p-clock + output inverter (2) + keeper, plus the
/// foot n-clock when required. Clock-connected devices weigh
/// `config.clock_weight`.
pub(crate) fn gate_overhead(touches_pi: bool, config: &MapConfig) -> (Cost, bool) {
    let footed = matches!(config.footing, Footing::Always) || touches_pi;
    let k = config.clock_weight;
    let cost = Cost {
        tx: 4 + u32::from(footed),
        wtx: k + 2 + 1 + if footed { k } else { 0 },
        disch: 0,
        level: 0,
    };
    (cost, footed)
}

/// Picks the cheapest bare tuple (by the model's grounded key, ties broken
/// toward fewer potential discharge points, then smaller shape) and wraps it
/// into a formed-gate solution. Iterates the candidates in place — no
/// flattened copy of the bare sets is ever built.
pub(crate) fn form_gate(
    config: &MapConfig,
    model: &CostModel,
    bare: impl IntoIterator<Item = (TupleKey, Cand)>,
) -> Option<GateSol> {
    let mut best: Option<(Cost, u32, TupleKey, Cand)> = None;
    for (key, cand) in bare {
        let (overhead, _) = gate_overhead(cand.touches_pi, config);
        let mut cost = cand.g.combine(overhead);
        cost.level = cand.g.level + 1;
        let better = match &best {
            None => true,
            Some((bcost, bp, bkey, _)) => {
                let (ka, kb) = (model.key(&cost), model.key(bcost));
                ka < kb
                    || (ka == kb
                        && (cand.p_dis() < *bp
                            || (cand.p_dis() == *bp && (key.w, key.h) < (bkey.w, bkey.h))))
            }
        };
        if better {
            best = Some((cost, cand.p_dis(), key, cand));
        }
    }
    best.map(|(cost, _, shape, cand)| {
        let (_, footed) = gate_overhead(cand.touches_pi, config);
        GateSol {
            cost,
            footed,
            form: cand.form,
            shape,
        }
    })
}

/// The gate-as-input candidate a node exports to its consumers: a single
/// transistor at `{1,1}` driven by the node's formed gate. A fanout-1 node
/// carries the gate's whole cost (it is paid exactly once, here); shared
/// nodes charge their gate cost globally and expose only the transistor —
/// unless duplication is allowed, in which case each consumer sees an
/// *amortized* share so that replicating the logic can compete fairly
/// (final counts are always recomputed from the materialized circuit).
pub(crate) fn exported_gate_cand(
    node: UId,
    gate: &GateSol,
    fanout: u32,
    config: &MapConfig,
) -> Cand {
    let g = if fanout <= 1 {
        gate.cost.combine(Cost::transistors(1))
    } else if config.allow_duplication {
        Cost {
            tx: gate.cost.tx.div_ceil(fanout) + 1,
            wtx: gate.cost.wtx.div_ceil(fanout) + 1,
            disch: gate.cost.disch.div_ceil(fanout),
            level: gate.cost.level,
        }
    } else {
        Cost {
            tx: 1,
            wtx: 1,
            disch: 0,
            level: gate.cost.level,
        }
    };
    Cand {
        g,
        u: g,
        p_spine: 0,
        p_branch: 0,
        par_b: false,
        touches_pi: false,
        form: Form::ChildGate(node),
    }
}

/// The single candidate of a literal leaf: one transistor driven by a
/// primary input.
pub(crate) fn literal_cand(literal: Literal) -> Cand {
    let g = Cost::transistors(1);
    Cand {
        g,
        u: g,
        p_spine: 0,
        p_branch: 0,
        par_b: false,
        touches_pi: true,
        form: Form::Lit(literal),
    }
}

/// Builds the literal node's solution (exported literal tuple plus a
/// buffer-style gate for the rare case a literal drives a primary output).
pub(crate) fn literal_sol(
    table: &SolTable,
    out: &mut SegWriter,
    literal: Literal,
    config: &MapConfig,
    model: &CostModel,
) -> NodeSol {
    let cand = literal_cand(literal);
    NodeSol {
        exports: out.unit(table, cand),
        gate: form_gate(config, model, [(TupleKey::UNIT, cand)])
            .expect("a single candidate forms a gate"),
        profile: (0, 0),
    }
}

/// Fanout counts of every node, where primary outputs count as consumers.
pub(crate) fn fanouts(unate: &UnateNetwork) -> Vec<u32> {
    unate.fanout_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Mapper};
    use soi_unate::Phase;

    fn lit() -> Literal {
        Literal {
            input: 0,
            phase: Phase::Pos,
        }
    }

    #[test]
    fn overhead_footed_vs_footless() {
        let config = MapConfig::default();
        let (c, footed) = gate_overhead(true, &config);
        assert!(footed);
        assert_eq!(c.tx, 5);
        let (c, footed) = gate_overhead(false, &config);
        assert!(!footed);
        assert_eq!(c.tx, 4);
    }

    #[test]
    fn overhead_clock_weighting() {
        let config = MapConfig::with_clock_weight(3);
        let (c, _) = gate_overhead(true, &config);
        assert_eq!(c.tx, 5);
        assert_eq!(c.wtx, 3 + 2 + 1 + 3);
    }

    #[test]
    fn always_footed_policy() {
        let config = MapConfig {
            footing: Footing::Always,
            ..MapConfig::default()
        };
        let (c, footed) = gate_overhead(false, &config);
        assert!(footed);
        assert_eq!(c.tx, 5);
    }

    #[test]
    fn literal_gate_is_buffer() {
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        let table = SolTable::new(1, 1);
        let sol = literal_sol(&table, &mut table.writer(0), lit(), &config, &model);
        let gate = sol.gate;
        // 1 transistor + 5 overhead (touches a PI), level 1.
        assert_eq!(gate.cost.tx, 6);
        assert_eq!(gate.cost.level, 1);
        assert!(gate.footed);
    }

    #[test]
    fn budget_charges_and_trips() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 2;
        let b = Budget::new(&config);
        assert!(b.charge(UId::from_index(0)).is_ok());
        assert!(b.charge(UId::from_index(0)).is_ok());
        assert!(matches!(
            b.charge(UId::from_index(0)),
            Err(MapError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn budget_charge_many_matches_singles() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 10;
        let singles = Budget::new(&config);
        let bulk = Budget::new(&config);
        for _ in 0..7 {
            singles.charge(UId::from_index(0)).unwrap();
        }
        bulk.charge_many(7, UId::from_index(0)).unwrap();
        // Both have 3 steps left: a 4-step bulk charge trips either.
        assert!(singles.charge_many(3, UId::from_index(1)).is_ok());
        assert!(bulk.charge_many(3, UId::from_index(1)).is_ok());
        assert!(singles.charge_many(1, UId::from_index(2)).is_err());
        assert!(bulk.charge(UId::from_index(2)).is_err());
    }

    #[test]
    fn budget_is_shareable_across_threads() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 100;
        let b = Budget::new(&config);
        let trips: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .filter(|_| b.charge(UId::from_index(0)).is_err())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // 200 charges against a budget of 100: exactly 100 must fail,
        // regardless of interleaving.
        assert_eq!(trips, 100);
    }

    #[test]
    fn shared_gate_exports_unit_cost() {
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        let table = SolTable::new(1, 1);
        let sol = literal_sol(&table, &mut table.writer(0), lit(), &config, &model);
        let gate = &sol.gate;
        let shared = exported_gate_cand(UId::from_index(0), gate, 3, &config);
        assert_eq!(shared.g.tx, 1);
        assert_eq!(shared.g.level, gate.cost.level);
        let exclusive = exported_gate_cand(UId::from_index(0), gate, 1, &config);
        assert_eq!(exclusive.g.tx, gate.cost.tx + 1);
    }

    #[test]
    fn sol_table_round_trips() {
        let table = SolTable::new(2, 1);
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        let mut out = table.writer(0);
        let sol = literal_sol(&table, &mut out, lit(), &config, &model);
        assert!(!table.is_solved(UId::from_index(1)));
        out.set(&table, UId::from_index(1), sol);
        assert_eq!(table.node_exports(UId::from_index(1)).flat().count(), 1);
    }

    #[test]
    #[should_panic(expected = "solved before its consumer")]
    fn sol_table_refuses_unsolved_reads() {
        SolTable::new(2, 1).get(UId::from_index(0));
    }

    #[test]
    fn one_worker_tally_trips_at_the_exact_charge() {
        // The worker tally only reaches the budget every CHECK_STRIDE
        // steps, but a charge that could cross the budget or the
        // deterministic trip goes through at once.
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 3 * CHECK_STRIDE;
        config.limits.cancel_after_steps = Some(2 * CHECK_STRIDE + 5);
        let model = CostModel::new(&config, Algorithm::SoiDominoMap);
        let budget = Budget::new(&config);
        let ctx = NodeCtx::new(&config, &model, &[], &budget);
        let node = UId::from_index(0);
        for _ in 0..CHECK_STRIDE - 1 {
            ctx.charge_many(1, node).unwrap();
        }
        assert_eq!(budget.total(), 0, "below the stride nothing is charged");
        ctx.charge_many(1, node).unwrap();
        assert_eq!(budget.total(), CHECK_STRIDE);
        ctx.charge_many(CHECK_STRIDE + 4, node).unwrap();
        assert!(matches!(
            ctx.charge_many(1, node),
            Err(MapError::Cancelled { .. })
        ));
        assert_eq!(budget.total(), 2 * CHECK_STRIDE + 5);

        let tight = MapConfig {
            limits: crate::Limits {
                max_combine_steps: 10,
                ..Default::default()
            },
            ..config
        };
        let budget = Budget::new(&tight);
        let ctx = NodeCtx::new(&tight, &model, &[], &budget);
        ctx.charge_many(10, node).unwrap();
        assert!(matches!(
            ctx.charge_many(1, node),
            Err(MapError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn worker_tallies_reach_the_budget_by_the_unit_end() {
        // Two workers' tallies stay local until they flush; after the
        // flushes the shared total is exact.
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::SoiDominoMap);
        let budget = Budget::new(&config);
        let node = UId::from_index(0);
        let (a, b) = (
            NodeCtx::new(&config, &model, &[], &budget),
            NodeCtx::new(&config, &model, &[], &budget),
        );
        a.charge_many(7, node).unwrap();
        b.charge_many(5, node).unwrap();
        assert_eq!(budget.total(), 0);
        a.flush(node).unwrap();
        b.flush(node).unwrap();
        assert_eq!(budget.total(), 12);
        assert_eq!((a.steps_so_far(), b.steps_so_far()), (7, 5));
    }

    /// `tests/job_control.rs` cancels this seeded control network at nine
    /// tenths of its combine steps, serially, and resumes it, to cover a
    /// salvage taken from several segments. Networks of this profile
    /// export more candidates per node than a worker's first segment is
    /// sized for; pinned here: the units that trip completes lie in at
    /// least two segments of the clean run (the serial walk places them
    /// the same way in both runs).
    #[test]
    fn a_control_network_salvage_spans_several_segments() {
        use soi_circuits::misc::random::{generate, RandomSpec};

        let network = generate(&RandomSpec::control("jc-segments", 16, 8, 1_500, 9));
        let unate = soi_unate::convert(&network, &soi_unate::Options::default()).unwrap();
        let config = MapConfig {
            parallelism: crate::Parallelism::Serial,
            ..MapConfig::default()
        };
        let memo = unate.stats().gates() >= config.cone_cache_min_gates;
        let clean = crate::soi::solve(&unate, &config, None, memo).unwrap();
        let tripped = MapConfig {
            limits: crate::Limits {
                cancel_after_steps: Some(clean.combine_steps * 9 / 10),
                ..config.limits
            },
            ..config
        };
        let Err(MapError::Cancelled {
            partial: Some(partial),
            ..
        }) = crate::soi::solve(&unate, &tripped, None, memo)
        else {
            panic!("the trip must cancel the run");
        };
        let partition = unate.cone_partition();
        let mut segments: Vec<u32> = partial
            .units
            .iter()
            .flat_map(|s| partition.unit(s.unit).nodes())
            .map(|&id| clean.table.get(id).exports.segment())
            .collect();
        segments.sort_unstable();
        segments.dedup();
        assert!(segments.len() >= 2, "salvage in segments {segments:?}");
    }

    /// The largest clock weight [`check_gate_budget`] admits for `unate`.
    fn largest_admitted_weight(unate: &UnateNetwork, config: MapConfig) -> u32 {
        let admits = |clock_weight| {
            check_gate_budget(
                unate,
                &MapConfig {
                    clock_weight,
                    ..config
                },
            )
            .is_ok()
        };
        let (mut lo, mut hi) = (1u32, u32::MAX);
        assert!(admits(lo) && !admits(hi));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if admits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Mapping at the largest admitted clock weight must not overflow a
    /// `u32` cost — in a debug build an overflow panics inside the DP and
    /// comes back as `WorkerPanicked` — and one above it is a typed budget
    /// error before any DP work.
    #[test]
    fn largest_admitted_clock_weight_maps_without_overflow() {
        use soi_circuits::misc::random::{generate, RandomSpec};
        use soi_circuits::registry;

        let networks = [
            registry::benchmark("c880").expect("registered"),
            registry::benchmark("des").expect("registered"),
            generate(&RandomSpec::control("ctl", 24, 8, 1_500, 0x5eed)),
        ];
        for network in &networks {
            let unate = soi_unate::convert(network, &soi_unate::Options::default()).unwrap();
            for allow_duplication in [false, true] {
                let config = MapConfig {
                    allow_duplication,
                    ..MapConfig::default()
                };
                let k = largest_admitted_weight(&unate, config);
                for make in [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi] {
                    let run = |clock_weight| {
                        make(MapConfig {
                            clock_weight,
                            ..config
                        })
                        .run(network)
                    };
                    let at = run(k);
                    assert!(
                        at.is_ok(),
                        "{}: k = {k}, duplication {allow_duplication}: {:?}",
                        network.name(),
                        at.err()
                    );
                    assert!(
                        matches!(run(k + 1), Err(MapError::BudgetExceeded { .. })),
                        "{}: k = {} must exceed the budget",
                        network.name(),
                        k + 1
                    );
                }
            }
        }
    }
}
