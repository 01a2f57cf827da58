//! Shared pieces of the two tuple DPs, including the driver that walks a
//! unate network — serially, or level by level across the independent
//! fanout-free cones of its cone partition — and hands each node to an
//! algorithm-specific solver, replaying repeated gates from the per-run
//! [`NodeMemo`] along the way.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soi_netlist::fx::FxHashSet;
use soi_trace::{Counter, Gauge, Stage, TraceHandle};
use soi_unate::{ConePartition, ConeUnit, Literal, UId, UNode, UnateNetwork};

use crate::arena::CandArena;
use crate::job::{self, CancelToken, PartialMapping, SalvagedUnit};
use crate::memo::{self, NodeEntry, NodeMemo};
use crate::tuple::{Cand, CandRef, Form, GateSol, NodeSol, TupleKey};
use crate::{Algorithm, Cost, CostModel, Footing, MapConfig, MapError};

/// The product of one DP run over a unate network.
pub(crate) struct Solution {
    /// One solution per unate node.
    pub(crate) sols: Vec<NodeSol>,
    /// Nodes where the degradation fallback forced a gate boundary (empty
    /// unless [`MapConfig::degrade_unmappable`] is set and triggered).
    pub(crate) degraded: Vec<UId>,
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

/// Running charge against the per-run combine-step budget
/// ([`crate::Limits::max_combine_steps`]).
///
/// The counter is a shared atomic so cone workers running on different
/// threads charge the same global allowance: the budget stays a single
/// deterministic limit on the *total* amount of combination work, not a
/// per-thread one. Whether a run trips the budget is therefore identical
/// between serial and parallel execution, and between memoized and
/// unmemoized execution (a memo hit charges the exact step count the
/// solver would have performed); only which node reports the exhaustion
/// first may differ under contention.
///
/// The budget doubles as the run's **interrupt poll point**: the shared
/// cancellation token, the deterministic step trip and the wall-clock
/// deadline from [`crate::Limits`] are checked here — once per
/// [`CHECK_STRIDE`] combine steps inside the inner loop, plus at every
/// cone-unit boundary — so every worker observes an interrupt within a
/// bounded amount of work without putting an `Instant::now()` on the hot
/// path.
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

/// Combine steps between interrupt polls. Coarse enough that the poll
/// (an atomic load, occasionally a clock read) vanishes next to the
/// candidate combination work of a stride; fine enough that a cancel or
/// deadline is observed within microseconds on every schedule.
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
    pub(crate) fn charge(&self, node: UId) -> Result<(), MapError> {
        self.charge_many(1, node)
    }

    /// Charges `n` candidate-combination steps at once — how a memo hit or
    /// a salvaged unit pays for the combination work its solution
    /// originally cost, and how the solvers charge a node's candidate
    /// cross-product, keeping the cumulative total (and with it budget-trip
    /// behaviour) identical across all paths.
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<(), MapError> {
        let before = self.steps.fetch_add(n, Ordering::Relaxed);
        let steps = before + n;
        if steps > self.max_steps {
            return Err(MapError::BudgetExceeded {
                what: format!(
                    "combine-step budget of {} exhausted at node {node}",
                    self.max_steps
                ),
            });
        }
        // Poll interrupts once per stride — and always when this charge
        // crossed the deterministic test trip, so `cancel_after_steps`
        // interrupts at the exact step count regardless of stride phase.
        if before / CHECK_STRIDE != steps / CHECK_STRIDE || steps >= self.cancel_after {
            self.check_interrupt()?;
        }
        Ok(())
    }

    /// Polls the run's interrupt sources: the cancellation token, the
    /// deterministic step trip, then the wall-clock deadline. Called from
    /// the charge stride, at cone-unit boundaries, and by the scheduler's
    /// worker loop.
    pub(crate) fn check_interrupt(&self) -> Result<(), MapError> {
        if self.cancel.is_cancelled() {
            self.trip();
            return Err(MapError::Cancelled {
                what: "cancellation token tripped".into(),
                partial: None,
            });
        }
        if self.steps.load(Ordering::Relaxed) >= self.cancel_after {
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
/// state plus this worker's running step count (used to price memo
/// entries and completed units).
pub(crate) struct NodeCtx<'a> {
    pub config: &'a MapConfig,
    pub model: &'a CostModel,
    pub fanouts: &'a [u32],
    budget: &'a Budget,
    steps: Cell<u64>,
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
        }
    }

    /// Bulk-charges `n` steps at `node`, keeping the worker tally in step
    /// with the global budget so memo captures and completed units price
    /// correctly. Used by memo hits and salvaged units paying for the work
    /// their solution originally cost, and by the solvers' combination
    /// loops, which charge a node's whole candidate cross-product upfront
    /// — one atomic add per node instead of one per pair, with an
    /// identical cumulative total (so budget-trip behaviour is unchanged).
    pub(crate) fn charge_many(&self, n: u64, node: UId) -> Result<(), MapError> {
        self.steps.set(self.steps.get() + n);
        self.budget.charge_many(n, node)
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

/// The published per-node solutions of one DP run.
///
/// Slots are written exactly once — by the single worker that solves the
/// owning cone, or by the driver seeding a salvaged cone before any worker
/// starts — and only read by workers whose cone depends on that one. Such
/// a cone sits in a later level of the cone partition, and the scheduler's
/// barrier between levels orders the write before the read. That
/// write-once/read-after discipline is what makes the `UnsafeCell` sound
/// and buys the O(1) fanin lookup that replaced the old worker-local
/// overlay scan.
pub(crate) struct SolTable {
    slots: Box<[std::cell::UnsafeCell<Option<NodeSol>>]>,
}

// SAFETY: see the type docs — each slot has exactly one writer, and every
// reader is ordered after that write by the barrier that ends the
// writer's level (or, for a seeded slot, by the spawn of the workers).
unsafe impl Sync for SolTable {}

impl SolTable {
    pub(crate) fn new(nodes: usize) -> SolTable {
        SolTable {
            slots: (0..nodes)
                .map(|_| std::cell::UnsafeCell::new(None))
                .collect(),
        }
    }

    /// Publishes the solution of `id`. Must be called at most once per id,
    /// by the worker owning the containing cone, or by the driver seeding
    /// it before any worker starts.
    pub(crate) fn set(&self, id: UId, sol: NodeSol) {
        // SAFETY: single writer per slot (scheduler invariant; a seeded
        // unit is never solved, so its slots are never written again).
        unsafe { *self.slots[id.index()].get() = Some(sol) };
    }

    /// The solution of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved — a scheduling bug.
    pub(crate) fn get(&self, id: UId) -> &NodeSol {
        // SAFETY: readers run strictly after the slot's unique write.
        unsafe { &*self.slots[id.index()].get() }
            .as_ref()
            .expect("fanin solved before its consumer")
    }

    /// Unwraps the table after a fully successful run.
    fn into_sols(self) -> Vec<NodeSol> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| slot.into_inner().expect("every node solved"))
            .collect()
    }

    /// Moves a solved slot out — the salvage pass uses it to collect the
    /// solutions of completed units after an interrupted run (when the
    /// workers are gone and the table may be only partially filled, so
    /// [`into_sols`](SolTable::into_sols) is off the table).
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved.
    fn take(&mut self, id: UId) -> NodeSol {
        self.slots[id.index()]
            .get_mut()
            .take()
            .expect("every node of a completed unit is solved")
    }
}

/// View of the already-solved nodes a solver may read. A thin wrapper over
/// [`SolTable`] — fanin lookup is a direct indexed read.
pub(crate) struct SolView<'a> {
    table: &'a SolTable,
}

impl SolView<'_> {
    /// The solution of fanin `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved — a scheduling bug.
    pub fn get(&self, id: UId) -> &NodeSol {
        self.table.get(id)
    }
}

/// What a per-node solver returns: the node's solution plus whether the
/// degradation fallback fired.
pub(crate) type NodeOutcome = (NodeSol, bool);

/// A per-node DP step: solves `node` given the solutions of its fanins.
pub(crate) trait NodeSolver: Sync {
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        view: &SolView<'_>,
        scratch: &mut Scratch,
        id: UId,
        node: UNode,
    ) -> Result<NodeOutcome, MapError>;
}

impl<F> NodeSolver for F
where
    F: Fn(&NodeCtx<'_>, &SolView<'_>, &mut Scratch, UId, UNode) -> Result<NodeOutcome, MapError>
        + Sync,
{
    fn solve_node(
        &self,
        ctx: &NodeCtx<'_>,
        view: &SolView<'_>,
        scratch: &mut Scratch,
        id: UId,
        node: UNode,
    ) -> Result<NodeOutcome, MapError> {
        self(ctx, view, scratch, id, node)
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
    pub degraded: Vec<UId>,
    pub peak_candidates: usize,
    /// Largest candidate count the worker's scratch arena held for one
    /// node (pre-prune frontier high-water; see `Gauge::ScratchHighWater`).
    pub scratch_high_water: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Units this worker completed, in completion order.
    pub completed: Vec<CompletedUnit>,
}

/// A worker's mutable state: scratch arenas plus the accumulator.
#[derive(Default)]
pub(crate) struct WorkerState {
    pub scratch: Scratch,
    pub acc: UnitAcc,
}

/// Solves the given nodes in order, publishing each solution. With a live
/// memo, each gate is probed on (kind, fanout, fanin profiles), rebound on
/// a hit, and solved and captured on a miss. Literals are always solved
/// directly (they cost less than a probe).
fn solve_nodes<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    unate: &UnateNetwork,
    solver: &S,
    nodes: &[UId],
    state: &mut WorkerState,
    memo: Option<&NodeMemo>,
) -> Result<(), MapError> {
    let trace = ctx.config.trace;
    for &id in nodes {
        let node = unate.node(id);
        let memo = memo.filter(|m| m.enabled());
        let (sol, deg) = match memo {
            Some(memo) if node.is_gate() => {
                let (key, level_base, hit) = memo.probe(node, ctx.fanouts[id.index()], table);
                trace.count(Counter::NodeTierProbes, 1);
                if memo.note_probe(hit.is_some()) {
                    trace.count(Counter::TierBypasses, 1);
                }
                if let Some(entry) = hit {
                    trace.count(Counter::NodeTierHits, 1);
                    state.acc.cache_hits += 1;
                    ctx.charge_many(entry.steps, id)?;
                    entry.rebind(id, node, level_base)
                } else {
                    trace.count(Counter::NodeTierMisses, 1);
                    state.acc.cache_misses += 1;
                    let steps_before = ctx.steps_so_far();
                    let view = SolView { table };
                    let (mut sol, deg) =
                        solver.solve_node(ctx, &view, &mut state.scratch, id, node)?;
                    sol.profile = memo::profile(&sol.exported);
                    let steps = ctx.steps_so_far() - steps_before;
                    memo.insert(
                        key,
                        NodeEntry::capture(id, node, &sol, deg, steps, level_base),
                    );
                    (sol, deg)
                }
            }
            _ => {
                let view = SolView { table };
                let (mut sol, deg) = solver.solve_node(ctx, &view, &mut state.scratch, id, node)?;
                if memo.is_some() {
                    // Literal solutions feed gate probes: they need
                    // profiles too (all-level-0 candidates, so the min
                    // pins base 0). Once the memo is latched off nothing
                    // reads profiles again, so the digest walk stops too.
                    sol.profile = memo::profile(&sol.exported);
                }
                (sol, deg)
            }
        };
        state.acc.peak_candidates = state
            .acc
            .peak_candidates
            .max(sol.exported.total_candidates());
        state.acc.scratch_high_water = state.acc.scratch_high_water.max(state.scratch.cands.len());
        if deg {
            state.acc.degraded.push(id);
        }
        table.set(id, sol);
    }
    Ok(())
}

/// Runs one cone unit with full job control: an interrupt poll at the
/// unit boundary, panic containment around the solve, and completion
/// tracking for salvage. A `seed` (the unit's salvage from an interrupted
/// run, already in the table) is accounted for instead of solved. Both
/// schedules funnel through here.
#[allow(clippy::too_many_arguments)]
fn run_unit_isolated<S: NodeSolver>(
    ctx: &NodeCtx<'_>,
    table: &SolTable,
    unate: &UnateNetwork,
    unit: &ConeUnit,
    solver: &S,
    memo: Option<&NodeMemo>,
    seed: Option<&SalvagedUnit>,
    state: &mut WorkerState,
    u: usize,
) -> Result<(), MapError> {
    if let Some(seed) = seed {
        // Recorded as completed before the charge, so an interrupt the
        // charge observes still salvages the unit again.
        state.acc.completed.push(CompletedUnit {
            unit: u as u32,
            steps: seed.steps,
        });
        state.acc.degraded.extend_from_slice(&seed.degraded);
        for sol in &seed.sols {
            state.acc.peak_candidates = state
                .acc
                .peak_candidates
                .max(sol.exported.total_candidates());
        }
        return ctx.charge_many(seed.steps, unit.root());
    }
    ctx.check_interrupt()?;
    let steps_before = ctx.steps_so_far();
    // AssertUnwindSafe: on a caught panic the worker's in-progress unit
    // state (scratch arenas, partially filled table slots) is abandoned —
    // the salvage pass only ever reads units recorded as completed.
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
        solve_nodes(ctx, table, unate, solver, unit.nodes(), state, memo)
    }));
    match outcome {
        Ok(Ok(())) => {
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
/// workers according to [`MapConfig::parallelism`], through `memo` when
/// given, and resuming from `salvage` when given.
///
/// Both paths iterate cone units ([`UnateNetwork::cone_partition`]); the
/// serial path walks them in index order (a valid topological order, and
/// the reference schedule), the parallel path lets [`crate::sched`] walk
/// the partition's levels behind a barrier. Because every per-node
/// computation is a pure function of its fanins' solutions — and the
/// sorted [`crate::tuple::ExportMap`] makes candidate enumeration order
/// deterministic — the result is bit-identical across all schedules, with
/// the memo ([`crate::memo`]) on or off, and whether a unit was solved
/// here or seeded from a salvage.
pub(crate) fn run_dp<S: NodeSolver>(
    unate: &UnateNetwork,
    config: &MapConfig,
    algorithm: Algorithm,
    solver: S,
    salvage: Option<&PartialMapping>,
    memo: Option<&NodeMemo>,
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
    let gates = unate.iter().filter(|(_, n)| n.is_gate()).count();
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = config
        .parallelism
        .resolved_threads(hw, gates, partition.units().len())
        .clamp(1, partition.units().len().max(1));
    let mut table = SolTable::new(unate.len());
    let seeds = match salvage {
        Some(partial) => seed_table(
            unate,
            config,
            algorithm,
            &partition,
            &table,
            partial,
            memo.is_some(),
        )?,
        None => Vec::new(),
    };
    let seed = |u: usize| seeds.get(u).copied().flatten();

    let (accs, outcome): (Vec<UnitAcc>, Result<(), MapError>) = if threads <= 1 {
        let ctx = NodeCtx::new(config, &model, &fanouts, &budget);
        let mut state = WorkerState::default();
        let mut outcome = Ok(());
        for (u, unit) in partition.units().iter().enumerate() {
            if let Err(e) = run_unit_isolated(
                &ctx,
                &table,
                unate,
                unit,
                &solver,
                memo,
                seed(u),
                &mut state,
                u,
            ) {
                outcome = Err(e);
                break;
            }
        }
        (vec![state.acc], outcome)
    } else {
        let table_ref = &table;
        let partition_ref = &partition;
        let solver = &solver;
        let budget_ref = &budget;
        let (workers, outcome) = crate::sched::run_units(
            &partition,
            threads,
            |_| {
                (
                    NodeCtx::new(config, &model, &fanouts, &budget),
                    WorkerState::default(),
                )
            },
            |(ctx, state): &mut (NodeCtx<'_>, WorkerState), u: usize| {
                run_unit_isolated(
                    ctx,
                    table_ref,
                    unate,
                    partition_ref.unit(u),
                    solver,
                    memo,
                    seed(u),
                    state,
                    u,
                )
            },
            || budget_ref.check_interrupt(),
            trace,
        );
        (
            workers.into_iter().map(|(_, state)| state.acc).collect(),
            outcome,
        )
    };

    let mut degraded: Vec<UId> = Vec::new();
    let mut completed: Vec<CompletedUnit> = Vec::new();
    let mut peak_candidates = 0usize;
    let mut scratch_high_water = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for acc in accs {
        degraded.extend(acc.degraded);
        completed.extend(acc.completed);
        peak_candidates = peak_candidates.max(acc.peak_candidates);
        scratch_high_water = scratch_high_water.max(acc.scratch_high_water);
        cache_hits += acc.cache_hits;
        cache_misses += acc.cache_misses;
    }
    // Workers report degradations in unit-completion order; restore the
    // global topological order (what a serial walk produces).
    degraded.sort_unstable();
    completed.sort_unstable_by_key(|c| c.unit);

    let combine_steps = budget.total();

    if let Err(err) = outcome {
        return Err(match err {
            MapError::Cancelled { .. }
            | MapError::DeadlineExceeded { .. }
            | MapError::WorkerPanicked { .. } => {
                let salvage = build_salvage(
                    job::digest(unate, config, algorithm),
                    &partition,
                    &completed,
                    &degraded,
                    &mut table,
                    combine_steps,
                    trace,
                );
                err.with_partial(Arc::new(salvage))
            }
            // Deterministic failures (budget trips, unmappable nodes)
            // recur identically on a resume — no salvage.
            other => other,
        });
    }

    if trace.enabled() {
        trace.count(Counter::CombineSteps, combine_steps);
        trace.count(Counter::DegradedNodes, degraded.len() as u64);
        trace.gauge(Gauge::PeakCandidates, peak_candidates as u64);
        trace.gauge(Gauge::ThreadsUsed, threads as u64);
        trace.gauge(Gauge::ScratchHighWater, scratch_high_water as u64);
    }

    Ok(Solution {
        sols: table.into_sols(),
        degraded,
        peak_candidates,
        threads_used: threads,
        cache_hits,
        cache_misses,
        combine_steps,
    })
}

/// Seeds the completed units of an interrupted run's `partial` into a
/// fresh run's solution table, before any worker starts. Returns, per unit
/// of `partition`, the salvage that stands in for solving it.
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
    let units = partition.units();
    let fits =
        |s: &SalvagedUnit| s.unit < units.len() && s.sols.len() == units[s.unit].nodes().len();
    if partial.digest != job::digest(unate, config, algorithm)
        || partial.total_units() != units.len()
        || !partial.units.iter().all(fits)
    {
        return Err(MapError::InvalidConfig {
            what: "the salvaged partial mapping was recorded for a different network, \
                   algorithm or configuration"
                .into(),
        });
    }
    let mut seeds = vec![None; units.len()];
    for salvaged in &partial.units {
        for (&id, sol) in units[salvaged.unit].nodes().iter().zip(&salvaged.sols) {
            let mut sol = sol.clone();
            if memo {
                // Memo probes read their fanins' profiles, and the
                // interrupted run may not have computed them.
                sol.profile = memo::profile(&sol.exported);
            }
            table.set(id, sol);
        }
        seeds[salvaged.unit] = Some(salvaged);
    }
    Ok(seeds)
}

/// Collects everything an interrupted run finished into the
/// [`PartialMapping`] that rides on the interrupt error: the solutions of
/// every completed unit (moved out of the table), the steps each charged,
/// its degraded nodes, and the frontier the interrupt cut off.
fn build_salvage(
    digest: u64,
    partition: &ConePartition,
    completed: &[CompletedUnit],
    degraded: &[UId],
    table: &mut SolTable,
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
    let degraded: FxHashSet<UId> = degraded.iter().copied().collect();
    let units = completed
        .iter()
        .map(|c| {
            let nodes = partition.unit(c.unit as usize).nodes();
            SalvagedUnit {
                unit: c.unit as usize,
                steps: c.steps,
                sols: nodes.iter().map(|&id| table.take(id)).collect(),
                degraded: nodes
                    .iter()
                    .copied()
                    .filter(|id| degraded.contains(id))
                    .collect(),
            }
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
    _node: UId,
    literal: Literal,
    config: &MapConfig,
    model: &CostModel,
) -> NodeSol {
    let mut sol = NodeSol::default();
    let cand = literal_cand(literal);
    sol.gate = form_gate(config, model, [(TupleKey::UNIT, cand)]);
    sol.exported.push(TupleKey::UNIT, cand);
    sol
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
        let sol = literal_sol(UId::from_index(0), lit(), &config, &model);
        let gate = sol.gate.expect("literal has a gate");
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
        let sol = literal_sol(UId::from_index(0), lit(), &config, &model);
        let gate = sol.gate.as_ref().unwrap();
        let shared = exported_gate_cand(UId::from_index(0), gate, 3, &config);
        assert_eq!(shared.g.tx, 1);
        assert_eq!(shared.g.level, gate.cost.level);
        let exclusive = exported_gate_cand(UId::from_index(0), gate, 1, &config);
        assert_eq!(exclusive.g.tx, gate.cost.tx + 1);
    }

    #[test]
    fn sol_table_round_trips() {
        let table = SolTable::new(2);
        let config = MapConfig::default();
        let model = CostModel::new(&config, Algorithm::DominoMap);
        table.set(
            UId::from_index(1),
            literal_sol(UId::from_index(1), lit(), &config, &model),
        );
        let view = SolView { table: &table };
        assert_eq!(view.get(UId::from_index(1)).exported.total_candidates(), 1);
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
