//! Wall-clock baseline for the mapping hot path.
//!
//! Maps the union of the Table I and Table II benchmark lists with
//! `SOI_Domino_Map` three ways — DP forced serial with the gate memo off
//! (the PR 2 baseline configuration), `Parallelism::Auto` with the memo
//! off (the cost-model cutoff must never lose to serial), and `Auto` with
//! the memo forced on past its size gate (`cone_cache_min_gates: 0`) —
//! and writes `BENCH_pr10.json` with per-circuit timings, the thread
//! count each mode actually used, the memo hit rate, and cross-mode
//! equality checks (every mode must be bit-identical).
//!
//! The timed runs are untraced (the handle costs one branch per emission
//! site even when armed, and the numbers track the shipped configuration).
//! After timing, each circuit gets one *traced* run per mode through a
//! shared [`soi_trace::Recorder`]: the scheduler's steal/wakeup/park
//! counters and per-worker unit counts, the gate memo's hit rate,
//! the candidate-pruning funnel, and the discharge count land in a
//! `metrics` block per circuit — and the traced results are asserted
//! bit-identical to the untraced ones. The slowest circuit additionally
//! streams a full JSON-lines event trace next to the report.
//!
//! After the registry section, the report gets a size-bucketed `corpus`
//! section: every `soi_circuits::corpus` entry — vendored AIGER files up
//! through the ≥100k-gate synthetic tiers — is timed in the same three
//! modes, with repetitions scaled down as circuits grow. The huge tier is
//! where the parallel scheduler and the memo's size gate
//! (`cone_cache_min_gates`, currently 10k) earn or lose their defaults;
//! each row records `cached_vs_parallel` so the gate stays re-justified by
//! data. A corpus entry that fails to load is a **typed error row** in the
//! report and fails the run — never a silent skip.
//!
//! Every registry circuit and corpus row also carries a `stages` block: a
//! per-stage wall-time breakdown (`ingest`, `unate_convert`,
//! `cone_partition`, `dp` exclusive of the nested partition span,
//! `reconstruct`, `pbe_post`) read from one traced serial run — where the
//! milliseconds actually go, row by row.
//!
//! Every corpus row additionally gets a `cec` block: the serial mapping
//! is SAT-proved equivalent to its source network with `soi-cec`
//! (`cec_ms` wall time, miter/solver counters, and the unproven count —
//! which must be zero). A non-equivalent or undecided verdict fails the
//! run like a counts mismatch would.
//!
//! Usage:
//!   cargo run --release -p soi-bench --bin bench [OUT.json]
//!     (default output: `BENCH_pr10.json` in the working directory;
//!      the event trace lands at `OUT.json` + `.trace.jsonl`)
//!   cargo run --release -p soi-bench --bin bench -- --corpus-dir DIR [OUT.json]
//!     additionally benches every `.aag`/`.aig`/`.blif` file in DIR as
//!     extra corpus rows; an unreadable or malformed file is an error row
//!     and a non-zero exit.
//!   cargo run --release -p soi-bench --bin bench -- --smoke
//!     CI gate: maps three small circuits serial vs forced 2-thread DP
//!     (best of 5) and fails if the scheduler loses by more than 1.5x on
//!     the largest — the PR 2 spawn-per-level regression must stay dead.
//!   cargo run --release -p soi-bench --bin bench -- --corpus-smoke
//!     CI gate for the AIGER/corpus path: parses and maps every vendored
//!     corpus AIG end-to-end, then races the shipped default config
//!     against serial/uncached on both ≥100k-gate synthetics — the
//!     default must stay within a wall-clock envelope and must not lose
//!     to serial — and asserts each synthetic's traced stage breakdown
//!     is present and sums to no more than the traced run's total (run
//!     under `timeout` in CI; any failure is fatal).
//!   cargo run --release -p soi-bench --bin bench -- --cec-smoke
//!     CI gate for the equivalence checker at scale: maps both ≥100k-gate
//!     synthetics with the shipped default config and SAT-proves each
//!     mapped circuit equivalent to its source network — the default and
//!     serial mappings must agree (`counts_match`), the verdict must be
//!     `Equivalent`, and there must be zero unproven miters (run under a
//!     hard `timeout` in CI; any failure is fatal).

use std::fmt::Write as _;
use std::time::Instant;

use soi_cec::{check_mapped, CecOptions, CecReport};
use soi_circuits::corpus::{self, SizeBucket};
use soi_circuits::registry;
use soi_mapper::{MapConfig, Mapper, MappingResult, Parallelism, TraceHandle};
use soi_netlist::Network;
use soi_trace::{Counter, Gauge, JsonLines, Recorder, Stage};

/// Timing repetitions per circuit and mode; the minimum is reported.
const REPS: u32 = 7;

/// Repetitions in `--smoke` mode (cheap circuits, noisy CI hosts).
const SMOKE_REPS: u32 = 5;

/// The `--smoke` circuits, smallest first; the gate applies to the last.
const SMOKE_CIRCUITS: [&str; 3] = ["cm150", "b9", "c880"];

/// Largest tolerated parallel/serial ratio on the last smoke circuit.
const SMOKE_MAX_RATIO: f64 = 1.5;

/// The ≥100k-gate synthetics the `--corpus-smoke` CI gate maps, with the
/// PR 8 serial/uncached baseline (milliseconds, 1-thread host) each must
/// stay within [`CORPUS_SMOKE_WALL_MULTIPLE`] of. The repetitive
/// multiplier is where the gate memo wins; the low-repetition control
/// netlist is where the adaptive bypass has to keep it from losing.
const CORPUS_SMOKE_HUGE: [(&str, f64); 2] =
    [("synth-mult136", 657.0), ("synth-control-120k", 1628.2)];

/// Generous wall-clock envelope for the huge-bucket smoke circuits: the
/// serial baseline may drift with the host, but an order-of-magnitude
/// blowup is a regression, not noise.
const CORPUS_SMOKE_WALL_MULTIPLE: f64 = 8.0;

/// The shipped default config must not lose to serial/uncached on any
/// huge-bucket circuit by more than this ratio (noise margin included) —
/// the memo's size gate plus its adaptive bypass exist precisely so the
/// default is never the slow configuration.
const CORPUS_SMOKE_DEFAULT_MAX_RATIO: f64 = 1.15;

/// Timing repetitions per corpus row, scaled down as circuits grow: a huge
/// circuit's serial pass runs for seconds, and two interleaved reps already
/// separate a real regression from host noise.
fn corpus_reps(bucket: SizeBucket) -> u32 {
    match bucket {
        SizeBucket::Small | SizeBucket::Medium => 5,
        SizeBucket::Large => 3,
        SizeBucket::Huge => 2,
    }
}

/// Per-stage wall-time breakdown of one traced serial/uncached run, in
/// milliseconds. The DP driver's span encloses the cone-partition span, so
/// `dp_ms` here is *exclusive* — partition time is subtracted back out and
/// the listed stages are disjoint slices of the run. Their sum can only
/// fall short of `traced_total_ms` (validation, audit, and glue are not
/// broken out), never exceed it; `--corpus-smoke` asserts exactly that.
struct Stages {
    /// Reading + parsing the source artifact into a `Network`. Timed by
    /// the harness around the corpus load (the mapper never sees I/O);
    /// zero for rows whose ingest was not separately traced.
    ingest_ms: f64,
    unate_convert_ms: f64,
    cone_partition_ms: f64,
    /// DP proper, exclusive of the nested cone-partition span.
    dp_ms: f64,
    reconstruct_ms: f64,
    /// Baseline discharge insertion — structurally zero for `SOI_Domino_Map`,
    /// which places discharges during reconstruction instead.
    pbe_post_ms: f64,
    /// Wall clock of the traced mapping run the breakdown came from
    /// (ingest excluded — it happens before the mapper runs).
    traced_total_ms: f64,
}

impl Stages {
    /// Reads the breakdown out of a recorder that observed exactly one
    /// serial mapping run.
    fn read(rec: &Recorder, ingest_ms: f64, traced_total_ms: f64) -> Stages {
        let ms = |stage| rec.stage_nanos(stage).map_or(0.0, |n| n as f64 / 1e6);
        let cone_partition_ms = ms(Stage::ConePartition);
        Stages {
            ingest_ms,
            unate_convert_ms: ms(Stage::UnateConvert),
            cone_partition_ms,
            dp_ms: (ms(Stage::Dp) - cone_partition_ms).max(0.0),
            reconstruct_ms: ms(Stage::Reconstruct),
            pbe_post_ms: ms(Stage::PbePostprocess),
            traced_total_ms,
        }
    }

    /// Sum of the disjoint mapping stages (ingest excluded — it is not
    /// part of the mapping run the total measures).
    fn sum_ms(&self) -> f64 {
        self.unate_convert_ms
            + self.cone_partition_ms
            + self.dp_ms
            + self.reconstruct_ms
            + self.pbe_post_ms
    }

    /// The breakdown as a JSON object literal.
    fn json(&self) -> String {
        format!(
            "{{\"ingest_ms\": {:.3}, \"unate_convert_ms\": {:.3}, \"cone_partition_ms\": {:.3}, \
             \"dp_ms\": {:.3}, \"reconstruct_ms\": {:.3}, \"pbe_post_ms\": {:.3}, \
             \"stage_sum_ms\": {:.3}, \"traced_total_ms\": {:.3}}}",
            self.ingest_ms,
            self.unate_convert_ms,
            self.cone_partition_ms,
            self.dp_ms,
            self.reconstruct_ms,
            self.pbe_post_ms,
            self.sum_ms(),
            self.traced_total_ms,
        )
    }
}

/// Wall time and solver counters from one SAT equivalence proof of a
/// corpus row's serial mapping against its source network.
struct CecRow {
    cec_ms: f64,
    equivalent: bool,
    unproven: usize,
    outputs_proved: usize,
    outputs_total: usize,
    sim_filtered: u64,
    sat_calls: u64,
    conflicts: u64,
    cex_replays: u64,
}

impl CecRow {
    fn from_report(report: &CecReport, cec_ms: f64) -> CecRow {
        CecRow {
            cec_ms,
            equivalent: report.is_equivalent(),
            unproven: report.unproven(),
            outputs_proved: report.outputs_proved,
            outputs_total: report.outputs_total,
            sim_filtered: report.sim_filtered,
            sat_calls: report.sat_calls,
            conflicts: report.conflicts,
            cex_replays: report.cex_replays,
        }
    }

    /// The proof as a JSON object literal.
    fn json(&self) -> String {
        format!(
            "{{\"cec_ms\": {:.3}, \"equivalent\": {}, \"unproven\": {}, \"outputs_proved\": {}, \
             \"outputs_total\": {}, \"sim_filtered\": {}, \"sat_calls\": {}, \"conflicts\": {}, \
             \"cex_replays\": {}}}",
            self.cec_ms,
            self.equivalent,
            self.unproven,
            self.outputs_proved,
            self.outputs_total,
            self.sim_filtered,
            self.sat_calls,
            self.conflicts,
            self.cex_replays,
        )
    }
}

struct Entry {
    name: &'static str,
    tables: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    cached_ms: f64,
    serial_threads: usize,
    parallel_threads: usize,
    cached_threads: usize,
    cache_hits: u64,
    cache_misses: u64,
    peak_candidates: usize,
    total_transistors: u32,
    counts_match: bool,
    metrics: Metrics,
}

/// Instrumentation read-out from the traced (non-timed) runs of one
/// circuit.
struct Metrics {
    combine_steps: u64,
    candidates_generated: u64,
    candidates_pruned: u64,
    candidates_exported: u64,
    discharges_inserted: u64,
    prune_batches: u64,
    skyline_survivors: u64,
    scratch_high_water: u64,
    sched_steals: u64,
    sched_wakeups: u64,
    sched_parks: u64,
    worker_units: Vec<u64>,
    node_tier_probes: u64,
    node_tier_hits: u64,
    node_tier_misses: u64,
    dp_ms: f64,
    stages: Stages,
    traced_match: bool,
}

/// Runs each mode once with the shared recorder attached and reads the
/// counters back. The traced results must be bit-identical to the untraced
/// timing runs — tracing is observational.
fn collect_metrics(
    rec: &'static Recorder,
    trace: TraceHandle,
    network: &Network,
    untraced_serial: &MappingResult,
    ingest_ms: f64,
) -> Metrics {
    let traced = |parallelism, memo| {
        Mapper::soi(MapConfig {
            trace,
            ..*soi_mapper(parallelism, memo).config()
        })
    };

    // Serial pass: the candidate funnel, combine-step totals, and the
    // per-stage wall-time breakdown.
    rec.reset();
    let serial_start = Instant::now();
    let s = traced(Parallelism::Serial, false)
        .run(network)
        .expect("registry circuit maps");
    let traced_total_ms = serial_start.elapsed().as_secs_f64() * 1e3;
    let stages = Stages::read(rec, ingest_ms, traced_total_ms);
    let mut traced_match = same_outcome(untraced_serial, &s);
    let combine_steps = rec.counter(Counter::CombineSteps);
    let candidates_generated = rec.counter(Counter::CandidatesGenerated);
    let candidates_pruned = rec.counter(Counter::CandidatesPruned);
    let candidates_exported = rec.counter(Counter::CandidatesExported);
    let discharges_inserted = rec.counter(Counter::DischargesInserted);
    let prune_batches = rec.counter(Counter::PruneBatches);
    let skyline_survivors = rec.counter(Counter::SkylineSurvivors);
    let scratch_high_water = rec.gauge(Gauge::ScratchHighWater);
    let dp_ms = rec
        .stage_nanos(soi_trace::Stage::Dp)
        .map_or(0.0, |n| n as f64 / 1e6);

    // Parallel pass: scheduler behavior.
    rec.reset();
    let p = traced(Parallelism::Auto, false)
        .run(network)
        .expect("registry circuit maps");
    traced_match &= same_outcome(untraced_serial, &p)
        && p.combine_steps == combine_steps
        && rec.counter(Counter::CombineSteps) == combine_steps;
    let sched_steals = rec.counter(Counter::SchedSteals);
    let sched_wakeups = rec.counter(Counter::SchedWakeups);
    let sched_parks = rec.counter(Counter::SchedParks);
    let worker_units = rec.workers().iter().map(|w| w.units).collect();

    // Cached pass: the gate memo.
    rec.reset();
    let c = traced(Parallelism::Auto, true)
        .run(network)
        .expect("registry circuit maps");
    traced_match &= same_outcome(untraced_serial, &c) && c.combine_steps == combine_steps;
    let node_tier_probes = rec.counter(Counter::NodeTierProbes);
    let node_tier_hits = rec.counter(Counter::NodeTierHits);
    let node_tier_misses = rec.counter(Counter::NodeTierMisses);
    traced_match &= node_tier_hits == c.cone_cache_hits && node_tier_misses == c.cone_cache_misses;

    Metrics {
        combine_steps,
        candidates_generated,
        candidates_pruned,
        candidates_exported,
        discharges_inserted,
        prune_batches,
        skyline_survivors,
        scratch_high_water,
        sched_steals,
        sched_wakeups,
        sched_parks,
        worker_units,
        node_tier_probes,
        node_tier_hits,
        node_tier_misses,
        dp_ms,
        stages,
        traced_match,
    }
}

/// One timed run in milliseconds.
fn time_once(mapper: &Mapper, network: &Network) -> (f64, MappingResult) {
    let start = Instant::now();
    let result = mapper.run(network).expect("registry circuit maps");
    (start.elapsed().as_secs_f64() * 1e3, result)
}

/// Best-of-`reps` for several modes at once, interleaved round-robin so a
/// host-load or frequency drift hits every mode equally instead of biasing
/// whichever mode happened to run in the quiet window.
fn best_ms_interleaved<const N: usize>(
    mappers: [&Mapper; N],
    network: &Network,
    reps: u32,
) -> [(f64, MappingResult); N] {
    let mut out = mappers.map(|m| time_once(m, network));
    for _ in 1..reps {
        for (i, m) in mappers.iter().enumerate() {
            let (ms, result) = time_once(m, network);
            if ms < out[i].0 {
                out[i] = (ms, result);
            } else {
                out[i].1 = result;
            }
        }
    }
    out
}

fn membership(name: &str) -> &'static str {
    match (
        registry::TABLE1.contains(&name),
        registry::TABLE2.contains(&name),
    ) {
        (true, true) => "I+II",
        (true, false) => "I",
        _ => "II",
    }
}

/// `SOI_Domino_Map` under `parallelism`, with the gate memo forced on
/// (bench circuits mostly sit below its production size gate) or off.
fn soi_mapper(parallelism: Parallelism, memo: bool) -> Mapper {
    Mapper::soi(MapConfig {
        parallelism,
        cone_cache_min_gates: if memo { 0 } else { usize::MAX },
        ..MapConfig::default()
    })
}

fn same_outcome(a: &MappingResult, b: &MappingResult) -> bool {
    a.counts == b.counts
        && a.peak_candidates == b.peak_candidates
        && a.degraded_nodes == b.degraded_nodes
}

/// CI gate: the work-stealing scheduler must not lose badly to serial on
/// small circuits even when forced to multithread on a small host.
fn smoke(host_threads: usize) {
    let serial = soi_mapper(Parallelism::Serial, false);
    let forced = soi_mapper(Parallelism::Threads(2), false);
    let mut last_ratio = 0.0;
    for name in SMOKE_CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        let [(serial_ms, s), (parallel_ms, p)] =
            best_ms_interleaved([&serial, &forced], &network, SMOKE_REPS);
        assert!(
            same_outcome(&s, &p),
            "{name}: 2-thread DP diverged from serial"
        );
        last_ratio = parallel_ms / serial_ms.max(1e-9);
        eprintln!(
            "  {name}: serial {serial_ms:.3} ms / 2-thread {parallel_ms:.3} ms (ratio {last_ratio:.2})"
        );
    }
    let largest = SMOKE_CIRCUITS[SMOKE_CIRCUITS.len() - 1];
    assert!(
        last_ratio <= SMOKE_MAX_RATIO,
        "scheduler overhead regression: forced 2-thread DP is {last_ratio:.2}x serial on \
         {largest} (limit {SMOKE_MAX_RATIO}x, host_threads {host_threads})"
    );
    eprintln!(
        "smoke ok: 2-thread/serial ratio on {largest} is {last_ratio:.2}x <= {SMOKE_MAX_RATIO}x"
    );
}

/// One size-bucketed corpus measurement, or the typed load failure that
/// kept the row from being timed.
enum CorpusRow {
    Ok {
        name: String,
        bucket: SizeBucket,
        gates: usize,
        serial_ms: f64,
        parallel_ms: f64,
        cached_ms: f64,
        parallel_threads: usize,
        cached_threads: usize,
        cache_hits: u64,
        cache_misses: u64,
        counts_match: bool,
        /// Per-stage breakdown from one traced serial/uncached run
        /// (`ingest_ms` timed by the harness around the corpus load).
        stages: Stages,
        /// SAT equivalence proof of the serial mapping vs the source.
        cec: CecRow,
    },
    Err {
        name: String,
        error: String,
    },
}

/// The three standard corpus timing modes.
struct Modes {
    serial: Mapper,
    auto: Mapper,
    cached: Mapper,
}

fn bench_corpus_network(
    name: &str,
    network: &Network,
    modes: &Modes,
    rec: &'static Recorder,
    trace: TraceHandle,
    ingest_ms: f64,
) -> CorpusRow {
    let Modes {
        serial,
        auto,
        cached,
    } = modes;
    let gates = network.stats().binary_gates;
    let bucket = SizeBucket::of(gates);
    let reps = corpus_reps(bucket);
    let [(serial_ms, s), (parallel_ms, p), (cached_ms, c)] =
        best_ms_interleaved([serial, auto, cached], network, reps);
    let mut counts_match = same_outcome(&s, &p) && same_outcome(&s, &c);

    // One traced serial run for the per-stage wall-time breakdown (timed
    // runs stay untraced; tracing is observational and must not diverge).
    rec.reset();
    let traced_serial = Mapper::soi(MapConfig {
        trace,
        ..*serial.config()
    });
    let traced_start = Instant::now();
    let ts = traced_serial.run(network).expect("traced corpus run maps");
    let traced_total_ms = traced_start.elapsed().as_secs_f64() * 1e3;
    counts_match &= same_outcome(&s, &ts);
    let stages = Stages::read(rec, ingest_ms, traced_total_ms);

    // SAT equivalence proof of the serial mapping against the source
    // network. A wrong or undecided verdict fails the run exactly like a
    // counts mismatch: the row's numbers would be timings of a miscompile.
    let cec_start = Instant::now();
    let cec = match check_mapped(network, &s.circuit, &CecOptions::default()) {
        Ok(report) => CecRow::from_report(&report, cec_start.elapsed().as_secs_f64() * 1e3),
        Err(e) => panic!("{name}: equivalence check failed: {e}"),
    };
    counts_match &= cec.equivalent && cec.unproven == 0;

    eprintln!(
        "  [{bucket}] {name}: {gates} gates, serial {serial_ms:.1} ms / auto({}t) \
         {parallel_ms:.1} ms / cached({}t) {cached_ms:.1} ms, hit rate {:.0}%{}",
        p.threads_used,
        c.threads_used,
        c.cone_cache_hit_rate().unwrap_or(0.0) * 100.0,
        if counts_match { "" } else { "  ** MISMATCH **" }
    );
    eprintln!(
        "           stages: ingest {:.1} / unate {:.1} / cone {:.1} / dp {:.1} / reconstruct \
         {:.1} / pbe-post {:.1} ms (sum {:.1} of {:.1} ms traced)",
        stages.ingest_ms,
        stages.unate_convert_ms,
        stages.cone_partition_ms,
        stages.dp_ms,
        stages.reconstruct_ms,
        stages.pbe_post_ms,
        stages.sum_ms(),
        stages.traced_total_ms,
    );
    eprintln!(
        "           cec: {:.1} ms, {}/{} outputs proved, {} sat calls ({} conflicts), \
         {} sim-filtered, {} replays{}",
        cec.cec_ms,
        cec.outputs_proved,
        cec.outputs_total,
        cec.sat_calls,
        cec.conflicts,
        cec.sim_filtered,
        cec.cex_replays,
        if cec.equivalent && cec.unproven == 0 {
            ""
        } else {
            "  ** NOT PROVED **"
        }
    );
    CorpusRow::Ok {
        name: name.to_string(),
        bucket,
        gates,
        serial_ms,
        parallel_ms,
        cached_ms,
        parallel_threads: p.threads_used,
        cached_threads: c.threads_used,
        cache_hits: c.cone_cache_hits,
        cache_misses: c.cone_cache_misses,
        counts_match,
        stages,
        cec,
    }
}

/// Benches the built-in corpus (smallest bucket first) plus any extra files
/// from `--corpus-dir`. A load failure produces a typed error row and stops
/// the sweep — an unreadable corpus file must fail the run, not shrink it.
fn bench_corpus(corpus_dir: Option<&str>) -> Vec<CorpusRow> {
    let modes = Modes {
        serial: soi_mapper(Parallelism::Serial, false),
        auto: soi_mapper(Parallelism::Auto, false),
        cached: soi_mapper(Parallelism::Auto, true),
    };
    let (rec, trace) = Recorder::install();
    let mut rows = Vec::new();

    // The harness owns corpus I/O, so it owns the ingest span: each load
    // runs inside `Stage::Ingest` and the measured time heads that row's
    // stage table.
    let timed_load = |load: &dyn Fn() -> Result<Network, corpus::CorpusError>| {
        rec.reset();
        let result = {
            let _ingest = trace.span(Stage::Ingest);
            load()
        };
        let ingest_ms = rec
            .stage_nanos(Stage::Ingest)
            .map_or(0.0, |n| n as f64 / 1e6);
        (result, ingest_ms)
    };

    let mut entries: Vec<&corpus::CorpusEntry> = corpus::ENTRIES.iter().collect();
    entries.sort_by_key(|e| e.approx_gates);
    for entry in entries {
        let (loaded, ingest_ms) = timed_load(&|| corpus::load(entry.name));
        match loaded {
            Ok(network) => {
                rows.push(bench_corpus_network(
                    entry.name, &network, &modes, rec, trace, ingest_ms,
                ));
            }
            Err(e) => {
                eprintln!("  ERROR loading corpus entry `{}`: {e}", entry.name);
                rows.push(CorpusRow::Err {
                    name: entry.name.to_string(),
                    error: e.to_string(),
                });
                return rows;
            }
        }
    }

    if let Some(dir) = corpus_dir {
        let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
            Ok(rd) => rd.filter_map(|e| e.ok()).map(|e| e.path()).collect(),
            Err(e) => {
                eprintln!("  ERROR reading corpus dir `{dir}`: {e}");
                rows.push(CorpusRow::Err {
                    name: dir.to_string(),
                    error: format!("unreadable corpus directory: {e}"),
                });
                return rows;
            }
        };
        paths.retain(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("aag" | "aig" | "blif")
            )
        });
        paths.sort();
        for path in paths {
            let name = path.display().to_string();
            let (loaded, ingest_ms) = timed_load(&|| corpus::load_path(&path));
            match loaded {
                Ok(network) => {
                    rows.push(bench_corpus_network(
                        &name, &network, &modes, rec, trace, ingest_ms,
                    ));
                }
                Err(e) => {
                    eprintln!("  ERROR loading `{name}`: {e}");
                    rows.push(CorpusRow::Err {
                        name,
                        error: e.to_string(),
                    });
                    return rows;
                }
            }
        }
    }
    rows
}

/// CI gate for the AIGER/corpus path: every vendored corpus AIG must parse
/// and map end-to-end with the shipped default config, and one ≥100k-gate
/// synthetic must materialize and map. Run under `timeout` in CI; any
/// failure aborts with a typed error message.
fn corpus_smoke() {
    let mapper = Mapper::soi(MapConfig::default());
    for entry in corpus::ENTRIES {
        if matches!(entry.source, corpus::Source::Synthetic) {
            continue;
        }
        let start = Instant::now();
        let network = match corpus::load(entry.name) {
            Ok(n) => n,
            Err(e) => panic!("corpus smoke: `{}` failed to load: {e}", entry.name),
        };
        let result = match mapper.run(&network) {
            Ok(r) => r,
            Err(e) => panic!("corpus smoke: `{}` failed to map: {e}", entry.name),
        };
        eprintln!(
            "  {}: parsed + mapped in {:.1} ms ({} transistors)",
            entry.name,
            start.elapsed().as_secs_f64() * 1e3,
            result.counts.total
        );
    }
    // Huge tier: the default config (Auto + gated memo + adaptive bypass)
    // races serial/uncached on both ≥100k-gate synthetics. The
    // default losing on *any* huge circuit means a shipped knob is
    // mis-tuned — that is a failure, not a data point.
    let serial = soi_mapper(Parallelism::Serial, false);
    for (name, baseline_ms) in CORPUS_SMOKE_HUGE {
        let huge = corpus::load(name)
            .unwrap_or_else(|e| panic!("corpus smoke: `{name}` failed to load: {e}"));
        let gates = huge.stats().binary_gates;
        assert!(
            gates >= 100_000,
            "corpus smoke: `{name}` shrank below the 100k-gate tier ({gates} gates)"
        );
        let [(serial_ms, s), (default_ms, d)] = best_ms_interleaved([&serial, &mapper], &huge, 2);
        assert!(
            same_outcome(&s, &d),
            "corpus smoke: `{name}`: default config diverged from serial/uncached"
        );
        let wall_limit = baseline_ms * CORPUS_SMOKE_WALL_MULTIPLE;
        assert!(
            serial_ms <= wall_limit && default_ms <= wall_limit,
            "corpus smoke: `{name}` blew the wall-clock envelope (serial {serial_ms:.1} ms, \
             default {default_ms:.1} ms, limit {wall_limit:.0} ms = {CORPUS_SMOKE_WALL_MULTIPLE}x \
             the {baseline_ms:.1} ms baseline)"
        );
        let ratio = default_ms / serial_ms.max(1e-9);
        assert!(
            ratio <= CORPUS_SMOKE_DEFAULT_MAX_RATIO,
            "corpus smoke: `{name}`: default config is {ratio:.2}x serial/uncached \
             (limit {CORPUS_SMOKE_DEFAULT_MAX_RATIO}x) — the memo's size gate or its adaptive \
             bypass stopped paying for itself"
        );
        // Stage breakdown: one traced serial run per synthetic must
        // produce every mapping stage, the stages must sum to no more
        // than the traced total (they are disjoint slices of the run),
        // and tracing must stay observational.
        let (rec, trace) = Recorder::install();
        rec.reset();
        let traced_start = Instant::now();
        let t = Mapper::soi(MapConfig {
            trace,
            ..*serial.config()
        })
        .run(&huge)
        .unwrap_or_else(|e| panic!("corpus smoke: traced `{name}` failed to map: {e}"));
        let traced_total_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            same_outcome(&s, &t),
            "corpus smoke: `{name}`: traced serial run diverged from untraced"
        );
        let stages = Stages::read(rec, 0.0, traced_total_ms);
        for (stage, ms) in [
            ("unate-convert", stages.unate_convert_ms),
            ("cone-partition", stages.cone_partition_ms),
            ("dp", stages.dp_ms),
            ("reconstruct", stages.reconstruct_ms),
        ] {
            assert!(
                ms > 0.0,
                "corpus smoke: `{name}`: stage `{stage}` missing from the traced breakdown"
            );
        }
        assert!(
            stages.sum_ms() <= traced_total_ms,
            "corpus smoke: `{name}`: stage sum {:.1} ms exceeds the traced total \
             {traced_total_ms:.1} ms — the breakdown double-counts a span",
            stages.sum_ms()
        );
        eprintln!(
            "corpus smoke ok: {name} ({gates} gates) serial {serial_ms:.1} ms / default \
             {default_ms:.1} ms (ratio {ratio:.2}, {} transistors); stages unate {:.1} / cone \
             {:.1} / dp {:.1} / reconstruct {:.1} ms (sum {:.1} of {traced_total_ms:.1} ms traced)",
            d.counts.total,
            stages.unate_convert_ms,
            stages.cone_partition_ms,
            stages.dp_ms,
            stages.reconstruct_ms,
            stages.sum_ms(),
        );
    }
}

/// CI gate for the equivalence checker at scale: both ≥100k-gate
/// synthetics, mapped with the shipped default config, must SAT-prove
/// equivalent to their source networks with zero unproven miters — and
/// the default mapping must agree with serial/uncached (`counts_match`),
/// so the proof covers the configuration that actually ships. Run under a
/// hard `timeout` in CI; any failure is fatal.
fn cec_smoke() {
    let opts = CecOptions::default();
    let serial = soi_mapper(Parallelism::Serial, false);
    let default = Mapper::soi(MapConfig::default());
    for (name, _) in CORPUS_SMOKE_HUGE {
        let network = corpus::load(name)
            .unwrap_or_else(|e| panic!("cec smoke: `{name}` failed to load: {e}"));
        let gates = network.stats().binary_gates;
        assert!(
            gates >= 100_000,
            "cec smoke: `{name}` shrank below the 100k-gate tier ({gates} gates)"
        );
        let map_start = Instant::now();
        let s = serial
            .run(&network)
            .unwrap_or_else(|e| panic!("cec smoke: `{name}` failed to map serially: {e}"));
        let d = default
            .run(&network)
            .unwrap_or_else(|e| panic!("cec smoke: `{name}` failed to map: {e}"));
        let map_ms = map_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            same_outcome(&s, &d),
            "cec smoke: `{name}`: default config diverged from serial/uncached"
        );
        let cec_start = Instant::now();
        let report = check_mapped(&network, &d.circuit, &opts)
            .unwrap_or_else(|e| panic!("cec smoke: `{name}` equivalence check failed: {e}"));
        let cec_ms = cec_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            report.is_equivalent(),
            "cec smoke: `{name}`: mapped circuit NOT proved equivalent: {:?}",
            report.verdict
        );
        assert_eq!(
            report.unproven(),
            0,
            "cec smoke: `{name}`: unproven output miters remain"
        );
        eprintln!(
            "cec smoke ok: {name} ({gates} gates) mapped in {map_ms:.1} ms, proved in \
             {cec_ms:.1} ms — {}/{} outputs, {} internal merges, {} sat calls ({} conflicts), \
             {} sim-filtered, {} refinements, {} replays",
            report.outputs_proved,
            report.outputs_total,
            report.internal_merges,
            report.sat_calls,
            report.conflicts,
            report.sim_filtered,
            report.refinements,
            report.cex_replays,
        );
    }
}

fn main() {
    // The one honest source for the host's thread count: every report row
    // derives from this call (PR 2 recorded `host_threads: 1` while timing
    // a 2-thread schedule).
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut out_path: Option<String> = None;
    let mut corpus_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                smoke(host_threads);
                return;
            }
            "--corpus-smoke" => {
                corpus_smoke();
                return;
            }
            "--cec-smoke" => {
                cec_smoke();
                return;
            }
            "--corpus-dir" => {
                corpus_dir = Some(args.next().expect("--corpus-dir needs a directory"));
            }
            other => out_path = Some(other.to_string()),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_pr10.json".into());

    let mut names: Vec<&'static str> = registry::TABLE2.to_vec();
    for name in registry::TABLE1 {
        if !names.contains(name) {
            names.push(name);
        }
    }

    eprintln!(
        "timing {} circuits on a {host_threads}-thread host: serial/uncached vs Auto/uncached vs \
         Auto/cached (best of {REPS})...",
        names.len()
    );
    let wall = Instant::now();
    let serial = soi_mapper(Parallelism::Serial, false);
    let auto = soi_mapper(Parallelism::Auto, false);
    let cached = soi_mapper(Parallelism::Auto, true);
    let (rec, trace) = Recorder::install();
    let mut entries = Vec::new();
    for name in names {
        let ingest_start = Instant::now();
        let network = registry::benchmark(name).expect("registered benchmark");
        let ingest_ms = ingest_start.elapsed().as_secs_f64() * 1e3;
        let [(serial_ms, s), (parallel_ms, p), (cached_ms, c)] =
            best_ms_interleaved([&serial, &auto, &cached], &network, REPS);
        let counts_match = same_outcome(&s, &p) && same_outcome(&s, &c);
        let hit_rate = c.cone_cache_hit_rate().unwrap_or(0.0);
        let metrics = collect_metrics(rec, trace, &network, &s, ingest_ms);
        eprintln!(
            "  {name}: serial {serial_ms:.2} ms / auto({}t) {parallel_ms:.2} ms / cached \
             {cached_ms:.2} ms, hit rate {:.0}%, {} combines, {} steals{}",
            p.threads_used,
            hit_rate * 100.0,
            metrics.combine_steps,
            metrics.sched_steals,
            if counts_match && metrics.traced_match {
                ""
            } else {
                "  ** MISMATCH **"
            }
        );
        entries.push(Entry {
            name,
            tables: membership(name),
            serial_ms,
            parallel_ms,
            cached_ms,
            serial_threads: s.threads_used,
            parallel_threads: p.threads_used,
            cached_threads: c.threads_used,
            cache_hits: c.cone_cache_hits,
            cache_misses: c.cone_cache_misses,
            peak_candidates: s.peak_candidates,
            total_transistors: s.counts.total,
            counts_match,
            metrics,
        });
    }
    eprintln!("corpus sweep (size-bucketed, reps 5/3/2 by bucket)...");
    let corpus_rows = bench_corpus(corpus_dir.as_deref());
    let corpus_ok = corpus_rows.iter().all(|r| {
        matches!(
            r,
            CorpusRow::Ok {
                counts_match: true,
                ..
            }
        )
    });
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // Stream a full event trace of the slowest circuit's default-config run
    // next to the report — the JSON-lines sink exercised end to end.
    let trace_path = format!("{out_path}.trace.jsonl");
    if let Some(slowest) = entries
        .iter()
        .max_by(|a, b| a.serial_ms.total_cmp(&b.serial_ms))
        .map(|e| e.name)
    {
        let file = std::fs::File::create(&trace_path).expect("create trace file");
        let sink: &'static JsonLines<std::fs::File> = Box::leak(Box::new(JsonLines::new(file)));
        let mapper = Mapper::soi(MapConfig {
            trace: TraceHandle::to_sink(sink),
            ..MapConfig::default()
        });
        let network = registry::benchmark(slowest).expect("registered benchmark");
        mapper.run(&network).expect("registry circuit maps");
        eprintln!("streamed {slowest} event trace to {trace_path}");
    }

    let total_serial: f64 = entries.iter().map(|e| e.serial_ms).sum();
    let total_parallel: f64 = entries.iter().map(|e| e.parallel_ms).sum();
    let total_cached: f64 = entries.iter().map(|e| e.cached_ms).sum();
    let all_match = entries
        .iter()
        .all(|e| e.counts_match && e.metrics.traced_match);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"description\": \"SOI_Domino_Map wall-clock over the Table I+II registry (best of \
         {REPS} runs, W<=5 H<=8): serial/uncached baseline vs Parallelism::Auto uncached vs the \
         Auto with the gate memo forced on; per-circuit metrics from one traced run per mode \
         (timed runs stay untraced)\","
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(
        json,
        "  \"auto_policy\": {{\"description\": \"how Parallelism::Auto resolved on this host: \
         serial below {} gates or on a 1-thread host, otherwise min(host_threads, units / {}); \
         each row's *_threads_used fields record what every mode actually ran with — a 1 under \
         `parallel_threads_used` on this host means Auto judged multithreading a loss, not that \
         the scheduler was skipped\", \"min_parallel_gates\": {}, \"units_per_thread\": {}}},",
        Parallelism::AUTO_MIN_PARALLEL_GATES,
        Parallelism::AUTO_UNITS_PER_THREAD,
        Parallelism::AUTO_MIN_PARALLEL_GATES,
        Parallelism::AUTO_UNITS_PER_THREAD,
    );
    let _ = writeln!(
        json,
        "  \"modes\": {{\"serial\": \"Parallelism::Serial, gate memo off\", \"parallel\": \
         \"Parallelism::Auto, gate memo off\", \"cached\": \"Parallelism::Auto, gate memo forced \
         on (cone_cache_min_gates 0, adaptive bypass active)\"}},"
    );
    let _ = writeln!(json, "  \"circuits\": [");
    let last = entries.len().saturating_sub(1);
    for (i, e) in entries.iter().enumerate() {
        let total = e.cache_hits + e.cache_misses;
        let hit_rate = if total > 0 {
            e.cache_hits as f64 / total as f64
        } else {
            0.0
        };
        let m = &e.metrics;
        let node_total = m.node_tier_hits + m.node_tier_misses;
        let node_rate = if node_total > 0 {
            m.node_tier_hits as f64 / node_total as f64
        } else {
            0.0
        };
        let workers = m
            .worker_units
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"tables\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": \
             {:.3}, \"cached_ms\": {:.3}, \"serial_threads_used\": {}, \
             \"parallel_threads_used\": {}, \"cached_threads_used\": {}, \"speedup_parallel\": \
             {:.3}, \"speedup_cached\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_hit_rate\": {:.3}, \"peak_candidates\": {}, \"total_transistors\": {}, \
             \"counts_match\": {},",
            e.name,
            e.tables,
            e.serial_ms,
            e.parallel_ms,
            e.cached_ms,
            e.serial_threads,
            e.parallel_threads,
            e.cached_threads,
            e.serial_ms / e.parallel_ms.max(1e-9),
            e.serial_ms / e.cached_ms.max(1e-9),
            e.cache_hits,
            e.cache_misses,
            hit_rate,
            e.peak_candidates,
            e.total_transistors,
            e.counts_match,
        );
        let _ = writeln!(
            json,
            "     \"metrics\": {{\"combine_steps\": {}, \"candidates_generated\": {}, \
             \"candidates_pruned\": {}, \"candidates_exported\": {}, \"discharges_inserted\": {}, \
             \"prune_batches\": {}, \"skyline_survivors\": {}, \"scratch_high_water\": {}, \
             \"dp_ms\": {:.3}, \"sched_steals\": {}, \"sched_wakeups\": {}, \"sched_parks\": {}, \
             \"worker_units\": [{}], \"node_tier_probes\": {}, \"node_tier_hits\": {}, \
             \"node_tier_misses\": {}, \"node_tier_hit_rate\": {:.3}, \"stages\": {}, \
             \"traced_match\": {}}}}}{}",
            m.combine_steps,
            m.candidates_generated,
            m.candidates_pruned,
            m.candidates_exported,
            m.discharges_inserted,
            m.prune_batches,
            m.skyline_survivors,
            m.scratch_high_water,
            m.dp_ms,
            m.sched_steals,
            m.sched_wakeups,
            m.sched_parks,
            workers,
            m.node_tier_probes,
            m.node_tier_hits,
            m.node_tier_misses,
            node_rate,
            m.stages.json(),
            m.traced_match,
            if i == last { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"corpus\": {{\n    \"description\": \"size-bucketed sweep of the soi-circuits corpus \
         (vendored AIGER entries through the >=100k-gate synthetic tiers) in the same three \
         modes; cached_vs_parallel re-justifies the memo's cone_cache_min_gates gate (10k): the \
         memo must pay for itself where it is enabled. A row with an `error` field is a corpus entry \
         that failed to load — the run fails rather than skip it. Each row's `cec` block is a SAT \
         equivalence proof of the serial mapping against the source network (soi-cec); \
         `equivalent` must be true with zero `unproven` miters or the run fails.\","
    );
    let _ = writeln!(
        json,
        "    \"reps_by_bucket\": {{\"small\": 5, \"medium\": 5, \"large\": 3, \"huge\": 2}},"
    );
    let _ = writeln!(json, "    \"rows\": [");
    let corpus_last = corpus_rows.len().saturating_sub(1);
    for (i, row) in corpus_rows.iter().enumerate() {
        let sep = if i == corpus_last { "" } else { "," };
        match row {
            CorpusRow::Ok {
                name,
                bucket,
                gates,
                serial_ms,
                parallel_ms,
                cached_ms,
                parallel_threads,
                cached_threads,
                cache_hits,
                cache_misses,
                counts_match,
                stages,
                cec,
            } => {
                let total = cache_hits + cache_misses;
                let hit_rate = if total > 0 {
                    *cache_hits as f64 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    json,
                    "      {{\"name\": \"{name}\", \"bucket\": \"{bucket}\", \"gates\": {gates}, \
                     \"serial_ms\": {serial_ms:.3}, \"parallel_ms\": {parallel_ms:.3}, \
                     \"cached_ms\": {cached_ms:.3}, \"parallel_threads_used\": \
                     {parallel_threads}, \"cached_threads_used\": {cached_threads}, \
                     \"speedup_parallel\": {:.3}, \"speedup_cached\": {:.3}, \
                     \"cached_vs_parallel\": {:.3}, \"cache_hits\": {cache_hits}, \
                     \"cache_misses\": {cache_misses}, \"cache_hit_rate\": {hit_rate:.3}, \
                     \"stages\": {}, \"cec\": {}, \"counts_match\": {counts_match}}}{sep}",
                    serial_ms / parallel_ms.max(1e-9),
                    serial_ms / cached_ms.max(1e-9),
                    parallel_ms / cached_ms.max(1e-9),
                    stages.json(),
                    cec.json(),
                );
            }
            CorpusRow::Err { name, error } => {
                let _ = writeln!(
                    json,
                    "      {{\"name\": \"{name}\", \"error\": \"{}\"}}{sep}",
                    error.replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
        }
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"ok\": {corpus_ok}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"total_serial_ms\": {total_serial:.3},");
    let _ = writeln!(json, "  \"total_parallel_ms\": {total_parallel:.3},");
    let _ = writeln!(json, "  \"total_cached_ms\": {total_cached:.3},");
    let _ = writeln!(
        json,
        "  \"overall_parallel_speedup\": {:.3},",
        total_serial / total_parallel.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"overall_speedup\": {:.3},",
        total_serial / total_cached.max(1e-9)
    );
    let _ = writeln!(json, "  \"all_counts_match\": {all_match},");
    let _ = writeln!(json, "  \"wall_clock_ms\": {wall_ms:.1}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, json).expect("write benchmark json");
    eprintln!(
        "wrote {out_path}: default-config speedup {:.2}x (parallel-only {:.2}x), counts match: \
         {all_match}",
        total_serial / total_cached.max(1e-9),
        total_serial / total_parallel.max(1e-9)
    );
    assert!(
        all_match,
        "parallel/cached/traced DP diverged from untraced serial counts"
    );
    if let Some(CorpusRow::Err { name, error }) = corpus_rows
        .iter()
        .find(|r| matches!(r, CorpusRow::Err { .. }))
    {
        eprintln!("corpus entry `{name}` failed to load: {error}");
        std::process::exit(1);
    }
    assert!(corpus_ok, "a corpus mode diverged from serial counts");
}
