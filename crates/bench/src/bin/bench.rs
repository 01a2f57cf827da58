//! The three CI performance gates. Each one passes or fails; none of them
//! is a measurement. Performance is measured by the repository benchmark,
//! `perfbench/` (see `BENCHMARK.json`), which records the host and the
//! spread and attributes time per layer.
//!
//! Usage — exactly one gate flag; anything else prints the usage line and
//! exits 2:
//!   cargo run --release -p soi-bench --bin bench -- --smoke
//!     Maps three small circuits serial vs forced 2-thread DP (best of 5)
//!     and fails if the level schedule loses by more than 1.5x on the
//!     largest, so its cost per level stays a barrier, not a thread spawn.
//!   cargo run --release -p soi-bench --bin bench -- --corpus-smoke
//!     Parses and maps every vendored corpus AIG end to end, then races
//!     the shipped default config against serial with the memo off
//!     (median of 5 interleaved runs each) on both ≥100k-gate synthetics:
//!     each must stay within 8x its recorded serial baseline, the default
//!     must stay within 1.15x of serial, and one traced serial run must
//!     report every mapping stage, with the stages summing to no more than
//!     the traced total.
//!   cargo run --release -p soi-bench --bin bench -- --cec-smoke
//!     Maps both ≥100k-gate synthetics with the shipped default config and
//!     proves each mapped circuit equivalent to its source network three
//!     times: by `check_mapped`, which its certificate must decide, once
//!     against the conversion the mapping carries and once, with that
//!     removed, against a re-conversion of the source; and by the SAT
//!     sweep (`check_networks` on the lowered circuit), which keeps the
//!     sweep exercised at scale. The default and serial mappings must
//!     agree, every verdict must be `Equivalent`, and no miter may stay
//!     unproven.
//!
//! CI runs `--corpus-smoke` and `--cec-smoke` under a hard `timeout`; any
//! failed check panics.

use std::process::ExitCode;
use std::time::Instant;

use soi_cec::{check_mapped, check_networks, lower, CecOptions, CecPath};
use soi_circuits::{corpus, registry};
use soi_domino_ir::DominoCircuit;
use soi_mapper::{MapConfig, Mapper, MappingResult, Parallelism};
use soi_netlist::Network;
use soi_trace::{Recorder, Stage};

/// Repetitions in `--smoke` mode (cheap circuits, noisy CI hosts).
const SMOKE_REPS: u32 = 5;

/// Interleaved repetitions per mode on each huge `--corpus-smoke` row;
/// the gate compares their medians.
const CORPUS_SMOKE_REPS: u32 = 5;

/// The `--smoke` circuits, smallest first; the gate applies to the last.
const SMOKE_CIRCUITS: [&str; 3] = ["cm150", "b9", "c880"];

/// Largest tolerated parallel/serial ratio on the last smoke circuit.
const SMOKE_MAX_RATIO: f64 = 1.5;

/// The ≥100k-gate synthetics the `--corpus-smoke` and `--cec-smoke` gates
/// map, with the serial, memo-off baseline (milliseconds, 1-thread host,
/// recorded when the gate was introduced) each must stay within
/// [`CORPUS_SMOKE_WALL_MULTIPLE`] of.
const CORPUS_SMOKE_HUGE: [(&str, f64); 2] =
    [("synth-mult136", 657.0), ("synth-control-120k", 1628.2)];

/// Generous wall-clock envelope for the huge smoke circuits: the serial
/// baseline may drift with the host, but an order-of-magnitude blowup is a
/// regression, not noise.
const CORPUS_SMOKE_WALL_MULTIPLE: f64 = 8.0;

/// The shipped default config must not lose to serial with the memo off
/// on any huge circuit by more than this ratio (noise margin included),
/// comparing the medians of [`CORPUS_SMOKE_REPS`] interleaved runs per
/// mode, which no single slow run moves. On a 2-thread host
/// `synth-mult136` sits near the limit: its default 2-thread DP, memo on,
/// runs about as fast as the serial DP with the memo off, so the gate
/// fails there whenever the host's noise pushes the median ratio past
/// the limit, until ROADMAP item 1 speeds up the parallel schedule.
const CORPUS_SMOKE_DEFAULT_MAX_RATIO: f64 = 1.15;

/// Per-stage wall-time breakdown of one traced serial run, in
/// milliseconds. The DP driver's span encloses the cone-partition span, so
/// `dp_ms` here is *exclusive* — partition time is subtracted back out and
/// the listed stages are disjoint slices of the run. Their sum can only
/// fall short of the run's wall clock (validation and glue are not broken
/// out), never exceed it; `--corpus-smoke` asserts exactly that.
struct Stages {
    unate_convert_ms: f64,
    cone_partition_ms: f64,
    /// DP proper, exclusive of the nested cone-partition span.
    dp_ms: f64,
    reconstruct_ms: f64,
    /// Baseline discharge insertion — structurally zero for `SOI_Domino_Map`,
    /// which places discharges during reconstruction instead.
    pbe_post_ms: f64,
}

impl Stages {
    /// Reads the breakdown out of a recorder that observed exactly one
    /// mapping run.
    fn read(rec: &Recorder) -> Stages {
        let ms = |stage| rec.stage_nanos(stage).map_or(0.0, |n| n as f64 / 1e6);
        let cone_partition_ms = ms(Stage::ConePartition);
        Stages {
            unate_convert_ms: ms(Stage::UnateConvert),
            cone_partition_ms,
            dp_ms: (ms(Stage::Dp) - cone_partition_ms).max(0.0),
            reconstruct_ms: ms(Stage::Reconstruct),
            pbe_post_ms: ms(Stage::PbePostprocess),
        }
    }

    /// Sum of the disjoint mapping stages.
    fn sum_ms(&self) -> f64 {
        self.unate_convert_ms
            + self.cone_partition_ms
            + self.dp_ms
            + self.reconstruct_ms
            + self.pbe_post_ms
    }
}

/// One timed run in milliseconds.
fn time_once(mapper: &Mapper, network: &Network) -> (f64, MappingResult) {
    let start = Instant::now();
    let result = mapper.run(network).expect("benchmark circuit maps");
    (start.elapsed().as_secs_f64() * 1e3, result)
}

/// `reps` timed runs of several modes, interleaved round-robin so a
/// host-load or frequency drift hits every mode equally instead of biasing
/// whichever mode happened to run in the quiet window. Returns each mode's
/// run times and its last result.
fn time_interleaved<const N: usize>(
    mappers: [&Mapper; N],
    network: &Network,
    reps: u32,
) -> [(Vec<f64>, MappingResult); N] {
    let mut out = mappers.map(|m| {
        let (ms, result) = time_once(m, network);
        (vec![ms], result)
    });
    for _ in 1..reps {
        for (i, m) in mappers.iter().enumerate() {
            let (ms, result) = time_once(m, network);
            out[i].0.push(ms);
            out[i].1 = result;
        }
    }
    out
}

/// The fastest of `times`.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `times` (the upper one of an even count).
fn median(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// `SOI_Domino_Map` under `parallelism` with the gate memo off.
fn soi_mapper(parallelism: Parallelism) -> Mapper {
    Mapper::soi(MapConfig {
        parallelism,
        cone_cache_min_gates: usize::MAX,
        ..MapConfig::default()
    })
}

/// Two schedules agree when they map to the same circuit, gate for gate,
/// with the same counts and candidate high-water mark.
fn same_outcome(a: &MappingResult, b: &MappingResult) -> bool {
    a.counts == b.counts && a.peak_candidates == b.peak_candidates && a.circuit == b.circuit
}

/// `--smoke`: the level schedule (workers spawned once per run, a barrier
/// per level) must not lose badly to serial on small circuits even when
/// forced to multithread on a small host.
fn smoke() {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = soi_mapper(Parallelism::Serial);
    let forced = soi_mapper(Parallelism::Threads(2));
    let mut last_ratio = 0.0;
    for name in SMOKE_CIRCUITS {
        let network = registry::benchmark(name).expect("registered benchmark");
        let [(serial_ms, s), (parallel_ms, p)] =
            time_interleaved([&serial, &forced], &network, SMOKE_REPS);
        let (serial_ms, parallel_ms) = (best(&serial_ms), best(&parallel_ms));
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

/// `--corpus-smoke`: every vendored corpus AIG must parse and map end to
/// end with the shipped default config, and on both ≥100k-gate synthetics
/// the default must stay inside the wall-clock envelope and within
/// [`CORPUS_SMOKE_DEFAULT_MAX_RATIO`] of serial (medians of
/// [`CORPUS_SMOKE_REPS`] interleaved runs each), with a complete traced
/// stage breakdown. A load failure is an error, never a skip.
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
    let serial = soi_mapper(Parallelism::Serial);
    let (rec, trace) = Recorder::install();
    let traced_serial = Mapper::soi(MapConfig {
        trace,
        ..*serial.config()
    });
    for (name, baseline_ms) in CORPUS_SMOKE_HUGE {
        let huge = corpus::load(name)
            .unwrap_or_else(|e| panic!("corpus smoke: `{name}` failed to load: {e}"));
        let gates = huge.stats().binary_gates;
        assert!(
            gates >= 100_000,
            "corpus smoke: `{name}` shrank below the 100k-gate tier ({gates} gates)"
        );
        let [(serial_ms, s), (default_ms, d)] =
            time_interleaved([&serial, &mapper], &huge, CORPUS_SMOKE_REPS);
        let (serial_ms, default_ms) = (median(&serial_ms), median(&default_ms));
        assert!(
            same_outcome(&s, &d),
            "corpus smoke: `{name}`: default config diverged from serial"
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
            "corpus smoke: `{name}`: default config is {ratio:.2}x serial \
             (limit {CORPUS_SMOKE_DEFAULT_MAX_RATIO}x) — the default's parallel DP schedule \
             lost to the serial DP; see ROADMAP item 1"
        );
        // Stage breakdown: one traced serial run per synthetic must
        // produce every mapping stage, the stages must sum to no more
        // than the traced total (they are disjoint slices of the run),
        // and tracing must stay observational.
        rec.reset();
        let traced_start = Instant::now();
        let t = traced_serial
            .run(&huge)
            .unwrap_or_else(|e| panic!("corpus smoke: traced `{name}` failed to map: {e}"));
        let traced_total_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            same_outcome(&s, &t),
            "corpus smoke: `{name}`: traced serial run diverged from untraced"
        );
        let stages = Stages::read(rec);
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
             {default_ms:.1} ms (medians of {CORPUS_SMOKE_REPS}, ratio {ratio:.2}, {} \
             transistors); stages unate {:.1} / cone \
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

/// `--cec-smoke`: both ≥100k-gate synthetics, mapped with the shipped
/// default config, must prove equivalent to their source networks with
/// zero unproven miters three times: by `check_mapped`, decided by the
/// mapping's certificate against the conversion the mapping carries and
/// again, with that attachment removed, against a re-conversion of the
/// source; and by the SAT sweep on the lowered circuit, which
/// `check_mapped` does not run on these rows. The default mapping must
/// agree with serial, so the proof covers the configuration that ships.
fn cec_smoke() {
    let opts = CecOptions::default();
    let serial = soi_mapper(Parallelism::Serial);
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
            "cec smoke: `{name}`: default config diverged from serial"
        );
        // The certificate against the conversion the mapping carries, then
        // against a re-conversion of the source: the only path for
        // circuits mapped from a unate network or built by hand.
        let certify = |circuit: &DominoCircuit, how: &str| {
            let start = Instant::now();
            let report = check_mapped(&network, circuit, &opts).unwrap_or_else(|e| {
                panic!("cec smoke: `{name}` equivalence check ({how}) failed: {e}")
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                report.is_equivalent() && report.path == CecPath::Certificate,
                "cec smoke: `{name}`: certificate ({how}) did not prove the mapping: {:?} via {:?}",
                report.verdict,
                report.path
            );
            assert_eq!(
                report.unproven(),
                0,
                "cec smoke: `{name}`: unproven output miters remain ({how})"
            );
            ms
        };
        let attached_ms = certify(&d.circuit, "attached conversion");
        let mut bare = d.circuit.clone();
        bare.set_conversion(None);
        let derived_ms = certify(&bare, "re-converted");
        let sweep_start = Instant::now();
        let lowered = lower::circuit_to_network(&d.circuit);
        let sweep = check_networks(&network, &lowered, &opts)
            .unwrap_or_else(|e| panic!("cec smoke: `{name}` sweep failed: {e}"));
        let sweep_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
        assert!(
            sweep.is_equivalent(),
            "cec smoke: `{name}`: mapped circuit NOT proved equivalent by the sweep: {:?}",
            sweep.verdict
        );
        assert_eq!(
            sweep.unproven(),
            0,
            "cec smoke: `{name}`: unproven output miters remain"
        );
        eprintln!(
            "cec smoke ok: {name} ({gates} gates) mapped in {map_ms:.1} ms; certificate proved \
             all {} domino gates (0 fallbacks) in {attached_ms:.1} ms against the attached \
             conversion and in {derived_ms:.1} ms re-converted; sweep proved in \
             {sweep_ms:.1} ms — {}/{} outputs, {} internal merges, {} sat calls ({} conflicts), \
             {} sim-filtered, {} refinements, {} replays",
            d.circuit.gate_count(),
            sweep.outputs_proved,
            sweep.outputs_total,
            sweep.internal_merges,
            sweep.sat_calls,
            sweep.conflicts,
            sweep.sim_filtered,
            sweep.refinements,
            sweep.cex_replays,
        );
    }
}

/// The gate a command line selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Smoke,
    CorpusSmoke,
    CecSmoke,
}

const USAGE: &str = "usage: bench --smoke | --corpus-smoke | --cec-smoke";

/// Exactly one gate flag selects a gate; no argument, an unknown one or an
/// extra one selects nothing.
fn parse_gate(args: &[String]) -> Option<Gate> {
    match args {
        [flag] => match flag.as_str() {
            "--smoke" => Some(Gate::Smoke),
            "--corpus-smoke" => Some(Gate::CorpusSmoke),
            "--cec-smoke" => Some(Gate::CecSmoke),
            _ => None,
        },
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_gate(&args) {
        Some(Gate::Smoke) => smoke(),
        Some(Gate::CorpusSmoke) => corpus_smoke(),
        Some(Gate::CecSmoke) => cec_smoke(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<Gate> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_gate(&args)
    }

    #[test]
    fn exactly_one_gate_flag_selects_a_gate() {
        assert_eq!(parse(&["--smoke"]), Some(Gate::Smoke));
        assert_eq!(parse(&["--corpus-smoke"]), Some(Gate::CorpusSmoke));
        assert_eq!(parse(&["--cec-smoke"]), Some(Gate::CecSmoke));
        for bad in [
            &[][..],
            &["--smoek"],
            &["out.json"],
            &["--corpus-dir", "corpus"],
            &["--smoke", "--smoke"],
            &["--smoke", "--cec-smoke"],
            &["--cec-smoke", "extra"],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }
}
