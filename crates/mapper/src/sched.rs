//! Level-synchronous scheduler for the cone-unit DP.
//!
//! The DP solves each fanout-free cone as a tree and joins cones only at
//! multi-fanout nodes, so the dependency levels of the cone partition
//! ([`ConePartition::levels`]) are a complete parallel schedule: the units
//! of a level are mutually independent and read only earlier levels.
//! [`run_units`] spawns its workers once per run and walks the levels in
//! order. Within a level each worker claims the next unit from one shared
//! atomic index, the units ordered largest first by node count (ties by
//! index) so the long units start early; a [`Barrier`] ends each level.
//! The scheduler decides only *when* and *where* a unit runs, never what
//! it reads, so results are bit-identical to the serial walk.
//!
//! **Order.** The barrier is what makes the walk a schedule: every unit of
//! a level has finished before any unit of the next is claimed, so every
//! fanin a unit reads is solved. The DP's solution table (`crate::table`)
//! publishes each node through its own index word, so those reads see the
//! writes they read however the units were ordered.
//!
//! **Spawn failure.** Workers are started with
//! [`std::thread::Builder::spawn_scoped`], so a thread the OS refuses is
//! an error, not a panic. Spawning stops at the first refusal; the barrier
//! is sized only then, by the workers that started, which wait for it
//! before their first claim. With no extra worker the calling thread walks
//! alone, without a barrier.
//!
//! **Drain.** A task error, a task panic and an interrupt seen by `check`
//! all go to [`Walk::fail`]: the first failure takes the error slot,
//! stamps the drain start and raises the abort flag. After an abort,
//! workers claim nothing more but still wait at every remaining barrier,
//! so no worker waits on a peer that has returned. Every task call runs
//! inside `catch_unwind`, since behind a barrier an escaped panic would
//! hang the peers; it surfaces as [`MapError::WorkerPanicked`], and the
//! caller always gets every started worker's state back for salvage. The
//! time from the first failure to the last worker's return is a
//! [`Stage::Drain`] span.

use std::cell::Cell;
use std::cmp::Reverse;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Instant;

use soi_trace::{Counter, Event, Stage, TraceHandle, WorkerStats};
use soi_unate::ConePartition;

use crate::MapError;

/// Shared state of one walk.
struct Walk {
    /// Every level's units, level after level, each level largest first
    /// by node count (ties by index).
    order: Vec<usize>,
    /// Start of each level in `order`, plus its end.
    level_starts: Vec<usize>,
    /// Position of each level's next unit to claim, relative to its start.
    next: Vec<AtomicUsize>,
    /// Separates the levels; set once the workers are started, `None`
    /// with one worker.
    barrier: OnceLock<Option<Barrier>>,
    /// Set on the first failure; workers stop claiming.
    abort: AtomicBool,
    /// The first failure and when it was recorded (the drain start).
    failure: Mutex<Option<(MapError, Instant)>>,
}

impl Walk {
    /// Records the first failure and stops further claims.
    fn fail(&self, e: MapError) {
        let mut slot = self.failure.lock().expect("failure lock poisoned");
        if slot.is_none() {
            *slot = Some((e, Instant::now()));
        }
        self.abort.store(true, Ordering::Release);
    }
}

/// One worker's walk over every level. Its tallies (units run, barrier
/// waits) accumulate in `stats`, worker-locally.
fn work<W>(
    walk: &Walk,
    state: &mut W,
    stats: &mut WorkerStats,
    task: &(impl Fn(&mut W, usize) -> Result<(), MapError> + Sync),
    check: &(impl Fn() -> Result<(), MapError> + Sync),
    trace: TraceHandle,
) {
    // Spawned workers start before the barrier exists; the spawner sets it
    // and unparks them (an unpark before the park makes the park return).
    let barrier = loop {
        match walk.barrier.get() {
            Some(barrier) => break barrier.as_ref(),
            None => std::thread::park(),
        }
    };
    for (level, next) in walk.level_starts.windows(2).zip(&walk.next) {
        let level = &walk.order[level[0]..level[1]];
        while !walk.abort.load(Ordering::Acquire) {
            // Poll before every claim, so an interrupt reaches a worker
            // whose peers hold the level's last units. The claim is
            // Relaxed: it publishes nothing; the barrier orders the slots.
            if let Err(e) = check() {
                walk.fail(e);
                break;
            }
            let Some(&unit) = level.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            stats.units += 1;
            // The DP isolates its own panics per unit; this catch is for
            // tasks that unwind past that. AssertUnwindSafe: a failed run
            // abandons all task state, and salvage only reads units
            // recorded as completed.
            match std::panic::catch_unwind(AssertUnwindSafe(|| task(state, unit))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => walk.fail(e),
                Err(payload) => {
                    trace.count(Counter::PanicsContained, 1);
                    walk.fail(MapError::WorkerPanicked {
                        unit,
                        payload: crate::dp::panic_text(payload.as_ref()),
                        partial: None,
                    });
                }
            }
        }
        if let Some(barrier) = barrier {
            barrier.wait();
            stats.parks += 1;
        }
    }
}

thread_local! {
    /// Test hook behind [`refuse_worker_spawns`]: the number of the first
    /// extra worker whose spawn counts as refused, or 0 for none.
    static REFUSE_SPAWN_FROM: Cell<usize> = const { Cell::new(0) };
}

/// Test hook for the spawn-failure path: every later run started on the
/// calling thread treats the spawn of its `n`-th extra worker (1-based)
/// as refused by the OS, as if thread creation failed; `None` restores
/// normal spawning. No thread is asked for.
#[doc(hidden)]
pub fn refuse_worker_spawns(n: Option<usize>) {
    REFUSE_SPAWN_FROM.with(|from| from.set(n.unwrap_or(0)));
}

/// Runs `task` over every unit of `partition` on up to `threads` workers
/// (the calling thread is worker 0), level by level, with `make_worker(i)`
/// as worker `i`'s state and `check` polled before every claim. A worker
/// the OS refuses to start is left out, and so is every worker after it.
///
/// Always returns the state of every worker that ran, for salvage, with
/// the outcome: `Ok(())`, or the first task error, interrupt or contained
/// panic ([`MapError::WorkerPanicked`]). With `trace` on, it emits each
/// worker's [`WorkerStats`], the `sched_parks` barrier waits (`workers ×
/// levels` when more than one ran) and, after a failure, a
/// [`Stage::Drain`] span from the first failure to the last worker's
/// return.
pub(crate) fn run_units<W: Send>(
    partition: &ConePartition,
    threads: usize,
    make_worker: impl Fn(usize) -> W,
    task: impl Fn(&mut W, usize) -> Result<(), MapError> + Sync,
    check: impl Fn() -> Result<(), MapError> + Sync,
    trace: TraceHandle,
) -> (Vec<W>, Result<(), MapError>) {
    let threads = threads.clamp(1, partition.units().len().max(1));
    let mut order = Vec::with_capacity(partition.units().len());
    let mut level_starts = Vec::with_capacity(partition.levels().len() + 1);
    level_starts.push(0);
    for level in partition.levels() {
        let start = order.len();
        order.extend_from_slice(level);
        order[start..].sort_by_key(|&u| (Reverse(partition.unit(u).nodes().len()), u));
        level_starts.push(order.len());
    }
    let walk = Walk {
        next: (0..partition.levels().len())
            .map(|_| AtomicUsize::new(0))
            .collect(),
        order,
        level_starts,
        barrier: OnceLock::new(),
        abort: AtomicBool::new(false),
        failure: Mutex::new(None),
    };
    let mut states: Vec<W> = (0..threads).map(&make_worker).collect();
    let mut stats: Vec<WorkerStats> = (0..threads)
        .map(|worker| WorkerStats {
            worker,
            ..WorkerStats::default()
        })
        .collect();
    let refuse_from = REFUSE_SPAWN_FROM.with(Cell::get);
    let started = std::thread::scope(|s| {
        let (walk, task, check) = (&walk, &task, &check);
        let mut pairs = states.iter_mut().zip(stats.iter_mut());
        let (first, first_stats) = pairs.next().expect("at least one worker");
        let mut spawned = Vec::with_capacity(threads - 1);
        for (extra, (state, stat)) in pairs.enumerate() {
            let worker = move || work(walk, state, stat, task, check, trace);
            let handle = if refuse_from != 0 && extra + 1 >= refuse_from {
                Err(std::io::Error::other(
                    "worker spawn refused by the test hook",
                ))
            } else {
                std::thread::Builder::new().spawn_scoped(s, worker)
            };
            match handle {
                Ok(handle) => spawned.push(handle),
                Err(_) => break,
            }
        }
        let started = spawned.len() + 1;
        walk.barrier
            .set((started > 1).then(|| Barrier::new(started)))
            .expect("the barrier is set once");
        for handle in &spawned {
            handle.thread().unpark();
        }
        work(walk, first, first_stats, task, check, trace);
        started
    });
    states.truncate(started);
    stats.truncate(started);
    let failure = walk.failure.into_inner().expect("failure lock poisoned");
    if trace.enabled() {
        if let Some((_, at)) = &failure {
            trace.emit(&Event::Span {
                stage: Stage::Drain,
                nanos: at.elapsed().as_nanos() as u64,
            });
        }
        for &s in &stats {
            trace.worker(s);
        }
        trace.count(Counter::SchedParks, stats.iter().map(|s| s.parks).sum());
    }
    (states, failure.map_or(Ok(()), |(e, _)| Err(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_unate::{Literal, Phase, USignal, UnateNetwork};

    /// A diamond of shared nodes: enough units, levels and cross-unit
    /// dependencies to exercise claiming and the barriers.
    fn diamond(width: usize) -> UnateNetwork {
        let mut u = UnateNetwork::new((0..width).map(|i| format!("i{i}")).collect());
        let lits: Vec<_> = (0..width)
            .map(|i| {
                u.add_literal(Literal {
                    input: i,
                    phase: Phase::Pos,
                })
            })
            .collect();
        // Shared pairwise ANDs (multi-fanout: each feeds two ORs).
        let ands: Vec<_> = (0..width)
            .map(|i| u.add_and(lits[i], lits[(i + 1) % width]))
            .collect();
        for i in 0..width {
            let f = u.add_or(ands[i], ands[(i + 1) % width]);
            u.add_output(format!("f{i}"), USignal::Node(f), false);
        }
        u
    }

    #[test]
    fn walk_visits_every_unit_exactly_once_in_dependency_order() {
        let network = diamond(16);
        let partition = network.cone_partition();
        let n = partition.units().len();
        for threads in [1, 2, 4] {
            let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let visits = AtomicUsize::new(0);
            let (states, outcome) = run_units(
                &partition,
                threads,
                |i| i,
                |_, u| {
                    for &d in partition.unit(u).deps() {
                        assert!(
                            done[d].load(Ordering::SeqCst),
                            "unit {u} ran before its dependency {d}"
                        );
                    }
                    assert!(!done[u].swap(true, Ordering::SeqCst), "unit {u} ran twice");
                    visits.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
                || Ok(()),
                TraceHandle::off(),
            );
            outcome.expect("no task errors");
            assert_eq!(states.len(), threads.min(n));
            assert_eq!(visits.load(Ordering::SeqCst), n, "{threads} threads");
        }
    }

    #[test]
    fn walk_propagates_the_first_error_and_drains() {
        let network = diamond(12);
        let partition = network.cone_partition();
        let (states, outcome) = run_units(
            &partition,
            4,
            |_| (),
            |_, u| {
                if u % 5 == 3 {
                    Err(MapError::BudgetExceeded {
                        what: format!("synthetic failure at unit {u}"),
                    })
                } else {
                    Ok(())
                }
            },
            || Ok(()),
            TraceHandle::off(),
        );
        assert_eq!(states.len(), 4);
        assert!(matches!(outcome, Err(MapError::BudgetExceeded { .. })));
    }

    #[test]
    fn walk_clamps_thread_count_to_unit_count() {
        let mut u = UnateNetwork::new(vec!["a".into()]);
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        u.add_output("f", USignal::Node(a), false);
        let partition = u.cone_partition();
        let (states, outcome) = run_units(
            &partition,
            8,
            |i| i,
            |_, _| Ok(()),
            || Ok(()),
            TraceHandle::off(),
        );
        outcome.expect("runs");
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn walk_contains_task_panics_and_returns_states() {
        let network = diamond(12);
        let partition = network.cone_partition();
        let target = partition.units().len() - 1;
        let (recorder, trace) = soi_trace::Recorder::install();
        let (states, outcome) = run_units(
            &partition,
            4,
            |_| 0u64,
            |ran, u| {
                if u == target {
                    panic!("synthetic panic at unit {u}");
                }
                *ran += 1;
                Ok(())
            },
            || Ok(()),
            trace,
        );
        // Worker states survive the panic for salvage.
        assert_eq!(states.len(), 4);
        match outcome {
            Err(MapError::WorkerPanicked { unit, payload, .. }) => {
                assert_eq!(unit, target);
                assert!(payload.contains("synthetic panic"), "{payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(recorder.counter(Counter::PanicsContained), 1);
        // The drain was timed.
        assert!(recorder.stage_nanos(Stage::Drain).is_some());
    }

    #[test]
    fn walk_observes_interrupts_from_the_check_hook() {
        let network = diamond(12);
        let partition = network.cone_partition();
        let (_, outcome) = run_units(
            &partition,
            2,
            |_| (),
            |_, _| Ok(()),
            || {
                Err(MapError::Cancelled {
                    what: "pre-tripped token".into(),
                    partial: None,
                })
            },
            TraceHandle::off(),
        );
        assert!(matches!(outcome, Err(MapError::Cancelled { .. })));
    }

    #[test]
    fn worker_stats_account_for_every_unit() {
        let network = diamond(16);
        let partition = network.cone_partition();
        let n = partition.units().len() as u64;
        let (recorder, trace) = soi_trace::Recorder::install();
        let (_, outcome) = run_units(&partition, 3, |_| (), |_, _| Ok(()), || Ok(()), trace);
        outcome.expect("runs");
        let workers = recorder.workers();
        assert_eq!(workers.len(), 3);
        // Every unit ran on exactly one worker.
        assert_eq!(workers.iter().map(|w| w.units).sum::<u64>(), n);
        // Every worker waited once at the barrier ending each level.
        let levels = partition.levels().len() as u64;
        assert!(levels > 1);
        assert!(workers.iter().all(|w| w.parks == levels));
        assert_eq!(recorder.counter(Counter::SchedParks), 3 * levels);
        assert_eq!(recorder.counter(Counter::SchedSteals), 0);
    }

    #[test]
    fn one_worker_walks_without_a_barrier() {
        let network = diamond(8);
        let partition = network.cone_partition();
        let (recorder, trace) = soi_trace::Recorder::install();
        let (_, outcome) = run_units(&partition, 1, |_| (), |_, _| Ok(()), || Ok(()), trace);
        outcome.expect("runs");
        assert_eq!(recorder.counter(Counter::SchedParks), 0);
        assert_eq!(recorder.workers()[0].parks, 0);
    }

    #[test]
    fn every_earlier_level_finishes_before_a_later_one_starts() {
        let network = diamond(16);
        let partition = network.cone_partition();
        let levels: Vec<&[usize]> = partition.levels().collect();
        assert!(levels.len() > 1);
        let mut level_of = vec![0; partition.units().len()];
        for (l, units) in levels.iter().enumerate() {
            for &u in *units {
                level_of[u] = l;
            }
        }
        for threads in [1, 2, 4] {
            let finished: Vec<AtomicUsize> = levels.iter().map(|_| AtomicUsize::new(0)).collect();
            let (_, outcome) = run_units(
                &partition,
                threads,
                |_| (),
                |_, u| {
                    let l = level_of[u];
                    for (k, units) in levels[..l].iter().enumerate() {
                        assert_eq!(
                            finished[k].load(Ordering::SeqCst),
                            units.len(),
                            "{threads} threads: unit {u} of level {l} ran before level {k} finished"
                        );
                    }
                    finished[l].fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
                || Ok(()),
                TraceHandle::off(),
            );
            outcome.expect("no task errors");
        }
    }

    #[test]
    fn each_level_is_claimed_largest_first() {
        // A wide level whose units differ in size: a chain of 1..=6 ANDs
        // per output, all reading the same shared literal pair.
        let mut u = UnateNetwork::new(vec!["a".into(), "b".into()]);
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        let b = u.add_literal(Literal {
            input: 1,
            phase: Phase::Pos,
        });
        let shared = u.add_and(a, b);
        for len in [2, 5, 1, 6, 3] {
            let mut x = shared;
            for _ in 0..len {
                x = u.add_or(x, b);
            }
            u.add_output(format!("f{len}"), USignal::Node(x), false);
        }
        let partition = u.cone_partition();
        let order = Mutex::new(Vec::new());
        let (_, outcome) = run_units(
            &partition,
            1,
            |_| (),
            |_, unit| {
                order.lock().unwrap().push(unit);
                Ok(())
            },
            || Ok(()),
            TraceHandle::off(),
        );
        outcome.expect("runs");
        let order = order.into_inner().unwrap();
        let last = partition.levels().next_back().unwrap();
        let sizes: Vec<usize> = order[order.len() - last.len()..]
            .iter()
            .map(|&unit| partition.unit(unit).nodes().len())
            .collect();
        assert_eq!(sizes, [6, 5, 3, 2, 1]);
    }

    #[test]
    fn a_refused_spawn_runs_on_the_workers_that_started() {
        let network = diamond(16);
        let partition = network.cone_partition();
        let n = partition.units().len();
        let levels = partition.levels().len() as u64;
        // Refusing the second extra worker leaves two; refusing the first
        // leaves the calling thread alone, without a barrier.
        for (refuse, workers) in [(2, 2), (1, 1)] {
            refuse_worker_spawns(Some(refuse));
            let (recorder, trace) = soi_trace::Recorder::install();
            let visits = AtomicUsize::new(0);
            let (states, outcome) = run_units(
                &partition,
                3,
                |i| i,
                |_, _| {
                    visits.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
                || Ok(()),
                trace,
            );
            refuse_worker_spawns(None);
            outcome.expect("runs");
            assert_eq!(states, (0..workers).collect::<Vec<_>>());
            assert_eq!(visits.load(Ordering::SeqCst), n);
            assert_eq!(recorder.workers().len(), workers);
            let parks = if workers > 1 {
                workers as u64 * levels
            } else {
                0
            };
            assert_eq!(recorder.counter(Counter::SchedParks), parks);
        }
    }
}
