//! # soi-trace
//!
//! Zero-cost-when-disabled instrumentation for the mapping pipeline:
//! hierarchical stage spans, typed counters and gauges, and pluggable
//! sinks.
//!
//! The pipeline threads a [`TraceHandle`] — a `Copy` wrapper over an
//! optional `&'static dyn Sink` — through every stage. With the handle
//! off (the default), every emission site is a single `None` branch and
//! no clock is ever read; with a sink attached, events flow to it as
//! they happen. Because the handle only *observes*, results are
//! bit-identical with tracing on or off; the test suite asserts this
//! across serial, parallel and memoized runs.
//!
//! One sink ships with the crate: [`Recorder`] — lock-free counter/gauge
//! aggregation plus span and per-worker logs, for tests, metric oracles
//! and the benchmark's per-layer metrics — with
//! [`Recorder::summary_table`] as a human-readable rollup of whatever it
//! saw.
//!
//! The typed vocabulary ([`Stage`], [`Counter`], [`Gauge`]) is the
//! contract that turns metrics into *oracles*: e.g. for every node the
//! DP actually solves, `candidates_generated ==
//! candidates_pruned + candidates_exported`, and the gate memo's
//! `node_tier_probes == node_tier_hits + node_tier_misses`. See
//! `tests/trace_invariants.rs` at the workspace root.
//!
//! # Example
//!
//! ```rust
//! use soi_trace::{Counter, Recorder, Stage};
//!
//! let (recorder, trace) = Recorder::install();
//! {
//!     let _span = trace.span(Stage::Dp);
//!     trace.count(Counter::CandidatesGenerated, 3);
//! }
//! assert_eq!(recorder.counter(Counter::CandidatesGenerated), 3);
//! assert_eq!(recorder.spans().len(), 1);
//! ```

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A named pipeline stage, in flow order. Spans are emitted when a stage
/// finishes, carrying its wall-clock duration; nested stages (the DP span
/// encloses the cone-partition span) simply emit both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// BLIF text parsing (only flows that start from text emit this).
    Parse,
    /// Structural netlist validation (guard pipeline).
    NetlistValidate,
    /// Binate-to-unate conversion.
    UnateConvert,
    /// Fanout-free cone partitioning inside the DP driver.
    ConePartition,
    /// The whole mapping stage as the guard pipeline sees it.
    Map,
    /// The tuple dynamic program proper.
    Dp,
    /// Gate materialization from DP back-pointers.
    Reconstruct,
    /// Baseline discharge insertion (`Domino_Map`/`RS_Map` only).
    PbePostprocess,
    /// The cross-stage audit (guard pipeline): structural validity, PBE
    /// coverage, accounting and the equivalence proof.
    Audit,
    /// Scheduler drain after an interrupt or contained panic: from the
    /// first failure observation until the last worker returned.
    Drain,
    /// The certificate check of a mapped circuit: re-deriving the unate
    /// network and proving each gate against the unate root it records
    /// (emitted by `soi_cec::check_mapped_traced`, fallback sweep
    /// excluded).
    CecCertify,
    /// Inside [`Stage::CecCertify`]: converting the source to its unate
    /// network again.
    CecCertifyConvert,
    /// Inside [`Stage::CecCertify`]: proving the conversion equal to the
    /// source, one source node at a time (claim 1).
    CecCertifySource,
    /// Inside [`Stage::CecCertify`]: proving each gate equal to the unate
    /// cone at its root and each output bound to its driver's image
    /// (claims 2 and 3).
    CecCertifyGates,
}

impl Stage {
    /// Every stage, in flow order.
    pub const ALL: [Stage; 14] = [
        Stage::Parse,
        Stage::NetlistValidate,
        Stage::UnateConvert,
        Stage::ConePartition,
        Stage::Map,
        Stage::Dp,
        Stage::Reconstruct,
        Stage::PbePostprocess,
        Stage::Audit,
        Stage::Drain,
        Stage::CecCertify,
        Stage::CecCertifyConvert,
        Stage::CecCertifySource,
        Stage::CecCertifyGates,
    ];

    /// The stage's kebab-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::NetlistValidate => "netlist-validate",
            Stage::UnateConvert => "unate-convert",
            Stage::ConePartition => "cone-partition",
            Stage::Map => "map",
            Stage::Dp => "dp",
            Stage::Reconstruct => "reconstruct",
            Stage::PbePostprocess => "pbe-postprocess",
            Stage::Audit => "audit",
            Stage::Drain => "drain",
            Stage::CecCertify => "cec-certify",
            Stage::CecCertifyConvert => "cec-certify-convert",
            Stage::CecCertifySource => "cec-certify-source",
            Stage::CecCertifyGates => "cec-certify-gates",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A monotone counter. Emission sites add deltas; sinks accumulate.
///
/// The counters are designed to satisfy balance invariants (asserted in
/// `tests/trace_invariants.rs`):
///
/// * `CandidatesGenerated == CandidatesPruned + CandidatesExported`,
///   summed over the nodes the per-node solver actually ran on (memo
///   hits rebind a memoized solution and generate nothing).
/// * `NodeTierProbes == NodeTierHits + NodeTierMisses`, and the hits and
///   misses equal the run's reported memo hits and misses.
/// * `CombineSteps` is identical across serial, parallel, memoized and
///   resumed schedules (memo hits and salvaged units bulk-charge their
///   original step count).
/// * `DischargesInserted` equals the circuit's `counts.discharge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Bare tuple candidates that entered a node's frontier.
    CandidatesGenerated,
    /// Candidates dropped by Pareto pruning or by a multi-fanout boundary
    /// discarding the bare set.
    CandidatesPruned,
    /// Bare candidates a node exports to its consumers (the `{1,1}`
    /// formed-gate candidate is bookkept separately).
    CandidatesExported,
    /// Candidate-combination steps charged against the run budget.
    CombineSteps,
    /// Gate-memo probes.
    NodeTierProbes,
    /// Gate-memo hits (the gate's solution was rebound from a memoized
    /// structurally equal gate).
    NodeTierHits,
    /// Gate-memo misses (the gate was solved and captured).
    NodeTierMisses,
    /// Retired, always 0: it counted units a worker took from another
    /// worker's queue, and the level-synchronous scheduler steals
    /// nothing. It stays so that readers of `sched_steals` (perfbench)
    /// keep working.
    SchedSteals,
    /// Barrier waits of the DP's scheduler workers: one per worker per
    /// cone-partition level when a run uses more than one worker.
    SchedParks,
    /// Pre-discharge transistors inserted (DP-attached or post-processed).
    DischargesInserted,
    /// Interrupts (cancellation, deterministic trip, deadline) a run
    /// observed — latched to one per trip, however many workers race to it.
    CancelsObserved,
    /// Worker panics caught and converted to typed errors.
    PanicsContained,
    /// Completed cone units an interrupted run salvaged into its partial
    /// mapping.
    UnitsSalvaged,
    /// Per-shape candidate groups the batched skyline prune processed.
    PruneBatches,
    /// Candidates the skyline sweep kept (before the per-shape cap).
    SkylineSurvivors,
    /// Times the adaptive bypass latched the gate memo off mid-run (at
    /// most one per run).
    TierBypasses,
    /// SAT queries the equivalence/PBE-safety checkers issued (miter
    /// closures, excitability proofs).
    CecSatCalls,
    /// Candidate equivalences the bit-parallel simulation filter
    /// discharged without a SAT call (signature-distinct pairs plus
    /// output miters settled by a simulated counterexample).
    CecSimFiltered,
    /// CDCL conflicts across every SAT query of a run — the solver-effort
    /// analogue of `combine_steps`.
    Conflicts,
    /// SAT counterexamples replayed through the scalar simulator before
    /// being believed (every cex is replayed; the count equals the
    /// counterexamples reported).
    CexReplays,
    /// Counterexample lanes the equivalence sweep fed back into
    /// simulation (satisfying models of internal node-pair queries).
    CecRefinements,
    /// Gates of a mapped circuit the certificate check proved equal to
    /// their unate roots (every gate, or none when the check fell back).
    CecCertifiedGates,
    /// Mapped-circuit checks whose certificate was absent or failed a
    /// claim, so the SAT sweep decided the verdict.
    CecFallbacks,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 23] = [
        Counter::CandidatesGenerated,
        Counter::CandidatesPruned,
        Counter::CandidatesExported,
        Counter::CombineSteps,
        Counter::NodeTierProbes,
        Counter::NodeTierHits,
        Counter::NodeTierMisses,
        Counter::SchedSteals,
        Counter::SchedParks,
        Counter::DischargesInserted,
        Counter::CancelsObserved,
        Counter::PanicsContained,
        Counter::UnitsSalvaged,
        Counter::PruneBatches,
        Counter::SkylineSurvivors,
        Counter::TierBypasses,
        Counter::CecSatCalls,
        Counter::CecSimFiltered,
        Counter::Conflicts,
        Counter::CexReplays,
        Counter::CecRefinements,
        Counter::CecCertifiedGates,
        Counter::CecFallbacks,
    ];

    /// The counter's snake_case display name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CandidatesGenerated => "candidates_generated",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::CandidatesExported => "candidates_exported",
            Counter::CombineSteps => "combine_steps",
            Counter::NodeTierProbes => "node_tier_probes",
            Counter::NodeTierHits => "node_tier_hits",
            Counter::NodeTierMisses => "node_tier_misses",
            Counter::SchedSteals => "sched_steals",
            Counter::SchedParks => "sched_parks",
            Counter::DischargesInserted => "discharges_inserted",
            Counter::CancelsObserved => "cancels_observed",
            Counter::PanicsContained => "panics_contained",
            Counter::UnitsSalvaged => "units_salvaged",
            Counter::PruneBatches => "prune_batches",
            Counter::SkylineSurvivors => "skyline_survivors",
            Counter::TierBypasses => "tier_bypasses",
            Counter::CecSatCalls => "cec_sat_calls",
            Counter::CecSimFiltered => "cec_sim_filtered",
            Counter::Conflicts => "conflicts",
            Counter::CexReplays => "cex_replays",
            Counter::CecRefinements => "cec_refinements",
            Counter::CecCertifiedGates => "cec_certified_gates",
            Counter::CecFallbacks => "cec_fallbacks",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A high-water-mark gauge. Sinks keep the maximum of all emitted values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Largest exported-candidate count any single node reached — the
    /// tuple-frontier high-water mark.
    PeakCandidates,
    /// Worker threads the DP schedule actually used.
    ThreadsUsed,
    /// Largest candidate count a worker's scratch arena held for one node
    /// — the pre-prune frontier high-water mark (capacity the reused
    /// arenas retain across nodes and cone units).
    ScratchHighWater,
}

impl Gauge {
    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; 3] = [
        Gauge::PeakCandidates,
        Gauge::ThreadsUsed,
        Gauge::ScratchHighWater,
    ];

    /// The gauge's snake_case display name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PeakCandidates => "peak_candidates",
            Gauge::ThreadsUsed => "threads_used",
            Gauge::ScratchHighWater => "scratch_high_water",
        }
    }
}

impl fmt::Display for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduler worker's tallies for a single DP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index (0 is the calling thread).
    pub worker: usize,
    /// Units this worker executed.
    pub units: u64,
    /// Times it waited at the barrier that ends a level.
    pub parks: u64,
}

/// One instrumentation event, as delivered to a [`Sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `delta` added to a monotone counter.
    Counter {
        /// Which counter.
        id: Counter,
        /// The amount added.
        delta: u64,
    },
    /// A gauge observation (sinks keep the maximum).
    Gauge {
        /// Which gauge.
        id: Gauge,
        /// The observed value.
        value: u64,
    },
    /// A finished stage span with its wall-clock duration.
    Span {
        /// Which stage finished.
        stage: Stage,
        /// Duration in nanoseconds.
        nanos: u64,
    },
    /// One scheduler worker's per-run tallies.
    Worker(WorkerStats),
}

/// Where events go. Implementations must be cheap and thread-safe: the DP
/// emits from every worker concurrently.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);
}

/// The `Copy` handle the pipeline threads through every stage.
///
/// Disabled (the [`TraceHandle::off`] default) it is a `None` and every
/// emission method returns after one branch — no clock reads, no
/// allocation, no atomics. Enabled, it forwards to a `&'static dyn Sink`.
///
/// The `'static` bound is what keeps the handle `Copy` and lets it live
/// inside `MapConfig` (itself `Copy`); [`Recorder::install`] leaks one
/// small allocation per recorder to provide it, which is bounded in
/// practice (tests and benches install a few dozen recorders per
/// process).
#[derive(Clone, Copy)]
pub struct TraceHandle {
    sink: Option<&'static dyn Sink>,
}

impl TraceHandle {
    /// The disabled handle (the default everywhere).
    pub const fn off() -> TraceHandle {
        TraceHandle { sink: None }
    }

    /// A handle forwarding to `sink`.
    pub fn to_sink(sink: &'static dyn Sink) -> TraceHandle {
        TraceHandle { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits a raw event.
    pub fn emit(&self, event: &Event) {
        if let Some(sink) = self.sink {
            sink.record(event);
        }
    }

    /// Adds `delta` to `id`.
    pub fn count(&self, id: Counter, delta: u64) {
        if let Some(sink) = self.sink {
            sink.record(&Event::Counter { id, delta });
        }
    }

    /// Observes `value` on gauge `id`.
    pub fn gauge(&self, id: Gauge, value: u64) {
        if let Some(sink) = self.sink {
            sink.record(&Event::Gauge { id, value });
        }
    }

    /// Reports one scheduler worker's tallies.
    pub fn worker(&self, stats: WorkerStats) {
        if let Some(sink) = self.sink {
            sink.record(&Event::Worker(stats));
        }
    }

    /// Starts a stage span. The span records its duration when dropped
    /// (or on [`Span::finish`]); with the handle off, no clock is read.
    pub fn span(&self, stage: Stage) -> Span {
        Span {
            armed: self.sink.map(|sink| (sink, stage, Instant::now())),
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sink {
            None => f.write_str("TraceHandle(off)"),
            Some(sink) => write!(f, "TraceHandle({:p})", sink as *const dyn Sink),
        }
    }
}

/// Handles compare by sink identity: two handles are equal when both are
/// off or both forward to the same sink object.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &TraceHandle) -> bool {
        match (self.sink, other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                // Compare data pointers only: vtable pointers may differ
                // across codegen units for the same object.
                std::ptr::eq(
                    a as *const dyn Sink as *const u8,
                    b as *const dyn Sink as *const u8,
                )
            }
            _ => false,
        }
    }
}

impl Eq for TraceHandle {}

impl Default for TraceHandle {
    fn default() -> TraceHandle {
        TraceHandle::off()
    }
}

/// A live stage timer returned by [`TraceHandle::span`]. Dropping it (or
/// calling [`Span::finish`]) emits the [`Event::Span`].
#[must_use = "a span measures until it is dropped; binding it to `_` drops it immediately"]
pub struct Span {
    armed: Option<(&'static dyn Sink, Stage, Instant)>,
}

impl Span {
    /// Ends the span now, emitting its duration.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        if let Some((sink, stage, start)) = self.armed.take() {
            sink.record(&Event::Span {
                stage,
                nanos: start.elapsed().as_nanos() as u64,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit();
    }
}

/// In-memory aggregating sink: atomic counters, max-gauges, and span and
/// worker logs behind mutexes. The workhorse of the instrumentation test
/// suite and the benchmark's per-layer metrics.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    spans: Mutex<Vec<(Stage, u64)>>,
    workers: Mutex<Vec<WorkerStats>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Leaks a fresh recorder into a `'static` allocation and returns it
    /// together with a [`TraceHandle`] forwarding to it.
    ///
    /// The leak is the price of a `Copy` handle with no lifetime; it is
    /// one small struct per call, reusable across any number of runs via
    /// [`Recorder::reset`].
    pub fn install() -> (&'static Recorder, TraceHandle) {
        let recorder: &'static Recorder = Box::leak(Box::new(Recorder::new()));
        (recorder, TraceHandle::to_sink(recorder))
    }

    /// The accumulated value of `id`.
    pub fn counter(&self, id: Counter) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// The maximum observed value of `id` (0 if never observed).
    pub fn gauge(&self, id: Gauge) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// All finished spans, in completion order, as `(stage, nanos)`.
    pub fn spans(&self) -> Vec<(Stage, u64)> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// The total time spent in `stage` across all its spans, or `None`
    /// if the stage never finished a span.
    pub fn stage_nanos(&self, stage: Stage) -> Option<u64> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut total = None;
        for &(s, nanos) in spans.iter() {
            if s == stage {
                *total.get_or_insert(0) += nanos;
            }
        }
        total
    }

    /// All reported scheduler worker tallies, sorted by worker index.
    pub fn workers(&self) -> Vec<WorkerStats> {
        let mut w = self.workers.lock().expect("worker log poisoned").clone();
        w.sort_by_key(|s| s.worker);
        w
    }

    /// Clears every counter, gauge, span and worker record, making the
    /// recorder ready for the next run.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        self.spans.lock().expect("span log poisoned").clear();
        self.workers.lock().expect("worker log poisoned").clear();
    }

    /// A human-readable rollup: stage timings, then non-zero counters and
    /// gauges, then per-worker scheduler tallies.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str("stage                 total_ms\n");
        for stage in Stage::ALL {
            if let Some(nanos) = self.stage_nanos(stage) {
                let _ = writeln!(out, "  {:<20} {:.3}", stage.name(), nanos as f64 / 1e6);
            }
        }
        out.push_str("counter                          value\n");
        for counter in Counter::ALL {
            let v = self.counter(counter);
            if v != 0 {
                let _ = writeln!(out, "  {:<30} {v}", counter.name());
            }
        }
        for gauge in Gauge::ALL {
            let v = self.gauge(gauge);
            if v != 0 {
                let _ = writeln!(out, "  {:<30} {v} (max)", gauge.name());
            }
        }
        let workers = self.workers();
        if !workers.is_empty() {
            out.push_str("worker  units  parks\n");
            for w in workers {
                let _ = writeln!(out, "  {:<5} {:>6} {:>6}", w.worker, w.units, w.parks);
            }
        }
        out
    }
}

impl Sink for Recorder {
    fn record(&self, event: &Event) {
        match *event {
            Event::Counter { id, delta } => {
                self.counters[id as usize].fetch_add(delta, Ordering::Relaxed);
            }
            Event::Gauge { id, value } => {
                self.gauges[id as usize].fetch_max(value, Ordering::Relaxed);
            }
            Event::Span { stage, nanos } => {
                self.spans
                    .lock()
                    .expect("span log poisoned")
                    .push((stage, nanos));
            }
            Event::Worker(stats) => {
                self.workers
                    .lock()
                    .expect("worker log poisoned")
                    .push(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert_and_default() {
        let t = TraceHandle::off();
        assert!(!t.enabled());
        assert_eq!(t, TraceHandle::default());
        // Emissions on an off handle are no-ops (and must not panic).
        t.count(Counter::CombineSteps, 5);
        t.gauge(Gauge::PeakCandidates, 5);
        t.span(Stage::Dp).finish();
        t.worker(WorkerStats::default());
    }

    #[test]
    fn recorder_accumulates_counters_and_max_gauges() {
        let (r, t) = Recorder::install();
        t.count(Counter::CandidatesGenerated, 2);
        t.count(Counter::CandidatesGenerated, 3);
        t.gauge(Gauge::PeakCandidates, 7);
        t.gauge(Gauge::PeakCandidates, 4);
        assert_eq!(r.counter(Counter::CandidatesGenerated), 5);
        assert_eq!(r.counter(Counter::CandidatesPruned), 0);
        assert_eq!(r.gauge(Gauge::PeakCandidates), 7);
    }

    #[test]
    fn spans_record_stage_and_duration() {
        let (r, t) = Recorder::install();
        {
            let _dp = t.span(Stage::Dp);
            t.span(Stage::ConePartition).finish();
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Inner span finishes first.
        assert_eq!(spans[0].0, Stage::ConePartition);
        assert_eq!(spans[1].0, Stage::Dp);
        assert!(r.stage_nanos(Stage::Dp).is_some());
        assert!(r.stage_nanos(Stage::Audit).is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let (r, t) = Recorder::install();
        t.count(Counter::CombineSteps, 9);
        t.gauge(Gauge::ThreadsUsed, 4);
        t.span(Stage::Map).finish();
        t.worker(WorkerStats {
            worker: 1,
            units: 3,
            ..WorkerStats::default()
        });
        r.reset();
        assert_eq!(r.counter(Counter::CombineSteps), 0);
        assert_eq!(r.gauge(Gauge::ThreadsUsed), 0);
        assert!(r.spans().is_empty());
        assert!(r.workers().is_empty());
    }

    #[test]
    fn handle_equality_is_sink_identity() {
        let (r1, t1) = Recorder::install();
        let (_r2, t2) = Recorder::install();
        assert_eq!(t1, TraceHandle::to_sink(r1));
        assert_ne!(t1, t2);
        assert_ne!(t1, TraceHandle::off());
    }

    #[test]
    fn recorder_is_thread_safe() {
        let (r, t) = Recorder::install();
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.count(Counter::SchedParks, 1);
                    }
                    t.worker(WorkerStats {
                        worker: w,
                        units: 1000,
                        ..WorkerStats::default()
                    });
                });
            }
        });
        assert_eq!(r.counter(Counter::SchedParks), 4000);
        let workers = r.workers();
        assert_eq!(workers.len(), 4);
        // `workers()` sorts by index regardless of completion order.
        assert!(workers.windows(2).all(|w| w[0].worker < w[1].worker));
    }

    #[test]
    fn summary_table_names_what_it_saw() {
        let (r, t) = Recorder::install();
        t.count(Counter::DischargesInserted, 12);
        t.gauge(Gauge::PeakCandidates, 9);
        t.span(Stage::Dp).finish();
        let table = r.summary_table();
        assert!(table.contains("dp"));
        assert!(table.contains("discharges_inserted"));
        assert!(table.contains("12"));
        assert!(table.contains("peak_candidates"));
        // Untouched counters stay out of the rollup.
        assert!(!table.contains("cancels_observed"));
    }

    #[test]
    fn vocabulary_is_complete_and_distinct() {
        // `ALL` drives array sizing: indices must be dense and unique.
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Stage::ALL.iter().map(|s| s.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
