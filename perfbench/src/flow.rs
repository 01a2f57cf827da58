//! One flow — parse binary AIGER, map, prove — run three ways: untraced
//! with the shipped default configuration (the end-to-end numbers), mapped
//! only (under `Parallelism::Serial`, the determinism reference and the
//! serial baseline), and traced layer by layer (the per-layer numbers).

use std::collections::BTreeMap;
use std::time::Instant;

use soi_cec::{lower, CecOptions, CecReport, CecVerdict, PbeSafetyReport};
use soi_mapper::{Algorithm, MapConfig, Mapper, MappingResult, Parallelism};
use soi_netlist::{aiger, Network};
use soi_pbe::excite::InputConstraints;
use soi_trace::{Counter, Recorder, Stage, TraceHandle};
use soi_unate::{convert, Options};

/// Raw per-layer observations of one traced flow, keyed by metric name.
pub type Sample = BTreeMap<&'static str, f64>;

/// Per-layer times of a traced flow that do not contain one another;
/// `mapper.run_unate_ms` is left out because it holds the four mapper
/// layers.
const DISJOINT_LAYERS: [&str; 9] = [
    "netlist.parse_ms",
    "unate.convert_ms",
    "unate.partition_ms",
    "mapper.dp_ms",
    "mapper.reconstruct_ms",
    "mapper.pbe_post_ms",
    "cec.lower_ms",
    "cec.check_ms",
    "pbe.safety_ms",
];

/// Timings and mapping of one untraced flow.
pub struct Untraced {
    pub flow_ms: f64,
    pub map_ms: f64,
    pub prove_ms: f64,
    pub result: MappingResult,
}

fn mapper(algorithm: Algorithm, config: MapConfig) -> Mapper {
    match algorithm {
        Algorithm::DominoMap => Mapper::baseline(config),
        Algorithm::RsMap => Mapper::rearrange_stacks(config),
        Algorithm::SoiDominoMap => Mapper::soi(config),
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn parse(bytes: &[u8]) -> Result<Network, String> {
    aiger::parse_binary(bytes).map_err(|e| format!("parse: {e}"))
}

/// The PBE-safety proof as `guard::Pipeline::with_cec` runs it.
fn prove_safe(result: &MappingResult, opts: &CecOptions) -> PbeSafetyReport {
    soi_cec::verify_safe_sat(
        &result.circuit,
        &InputConstraints::none(),
        opts.output_conflict_budget,
    )
}

/// A proof counts only when the verdict is `Equivalent` with no unproven
/// miter and every uncovered junction is proven unexcitable.
fn check_proofs(eq: &CecReport, safety: &PbeSafetyReport) -> Result<(), String> {
    match eq.verdict {
        CecVerdict::Equivalent if eq.unproven() == 0 => {}
        CecVerdict::NotEquivalent(ref cex) => {
            return Err(format!("cec: not equivalent at output {}", cex.output))
        }
        _ => return Err(format!("cec: {} unproven output miters", eq.unproven())),
    }
    if !safety.safe || safety.unknown > 0 {
        return Err(format!(
            "pbe: {} excitable and {} unknown junctions",
            safety.excitable, safety.unknown
        ));
    }
    Ok(())
}

/// parse → `Mapper::run` (default config) → `check_mapped` +
/// `verify_safe_sat`, timed as a user would see it.
pub fn untraced(bytes: &[u8], algorithm: Algorithm, opts: &CecOptions) -> Result<Untraced, String> {
    let start = Instant::now();
    let network = parse(bytes)?;
    let map_start = Instant::now();
    let result = mapper(algorithm, MapConfig::default())
        .run(&network)
        .map_err(|e| format!("map: {e}"))?;
    let map_ms = ms_since(map_start);
    let prove_start = Instant::now();
    let eq =
        soi_cec::check_mapped(&network, &result.circuit, opts).map_err(|e| format!("cec: {e}"))?;
    let safety = prove_safe(&result, opts);
    let prove_ms = ms_since(prove_start);
    let flow_ms = ms_since(start);
    check_proofs(&eq, &safety)?;
    Ok(Untraced {
        flow_ms,
        map_ms,
        prove_ms,
        result,
    })
}

/// `Mapper::run` with `MapConfig::default()` under `Parallelism::Serial`
/// on the parsed input, unproven; only the mapping is timed.
pub fn map_serial(bytes: &[u8], algorithm: Algorithm) -> Result<(f64, MappingResult), String> {
    let network = parse(bytes)?;
    let config = MapConfig {
        parallelism: Parallelism::Serial,
        ..MapConfig::default()
    };
    let start = Instant::now();
    let result = mapper(algorithm, config)
        .run(&network)
        .map_err(|e| format!("map: {e}"))?;
    Ok((ms_since(start), result))
}

/// The flow with each layer called and timed separately, and the mapper's
/// own stage spans and counters collected by `recorder` (which `trace`
/// forwards to). The recorder is reset first, so it sees this flow only.
pub fn traced(
    bytes: &[u8],
    algorithm: Algorithm,
    opts: &CecOptions,
    recorder: &Recorder,
    trace: TraceHandle,
) -> Result<(Sample, MappingResult), String> {
    recorder.reset();
    let config = MapConfig {
        trace,
        ..MapConfig::default()
    };
    let mut s = Sample::new();
    let start = Instant::now();
    let mut lap = Instant::now();
    let mut split = |s: &mut Sample, key: &'static str| {
        s.insert(key, ms_since(lap));
        lap = Instant::now();
    };

    let network = parse(bytes)?;
    split(&mut s, "netlist.parse_ms");
    let unate = convert(
        &network,
        &Options {
            output_phase: config.output_phase,
        },
    )
    .map_err(|e| format!("unate: {e}"))?;
    split(&mut s, "unate.convert_ms");
    let result = mapper(algorithm, config)
        .run_unate(&unate)
        .map_err(|e| format!("traced map: {e}"))?;
    split(&mut s, "mapper.run_unate_ms");
    let lowered = lower::circuit_to_network(&result.circuit);
    split(&mut s, "cec.lower_ms");
    let eq = soi_cec::check_networks(&network, &lowered, opts).map_err(|e| format!("cec: {e}"))?;
    split(&mut s, "cec.check_ms");
    let safety = prove_safe(&result, opts);
    split(&mut s, "pbe.safety_ms");
    let flow_ms = ms_since(start);
    check_proofs(&eq, &safety)?;

    // The mapper's own spans split `run_unate`: the cone partition, the DP
    // (which contains the partition), reconstruct and PBE post-processing.
    let span_ms = |stage| recorder.stage_nanos(stage).map_or(0.0, |n| n as f64 / 1e6);
    let partition = span_ms(Stage::ConePartition);
    s.insert("unate.partition_ms", partition);
    s.insert("mapper.dp_ms", span_ms(Stage::Dp) - partition);
    s.insert("mapper.reconstruct_ms", span_ms(Stage::Reconstruct));
    s.insert("mapper.pbe_post_ms", span_ms(Stage::PbePostprocess));
    s.insert("trace.flow_ms", flow_ms);
    // The reported layers that do not contain one another. The spans come
    // from the recorder and the rest from this function's clock, so the
    // sum exceeds the flow if a span is misattributed or overlaps another.
    let layers: f64 = DISJOINT_LAYERS.iter().map(|k| s[k]).sum();
    if layers > flow_ms {
        return Err(format!(
            "disjoint layer times sum to {layers} ms > traced flow {flow_ms} ms"
        ));
    }

    // Counted outside the timed flow; `run_unate` partitions on its own.
    let units = unate.cone_partition().units().len();
    let ustats = unate.stats();
    s.insert("unate.gates", ustats.gates() as f64);
    s.insert("unate.units", units as f64);
    s.insert("mapper.threads_used", result.threads_used as f64);
    s.insert("mapper.combine_steps", result.combine_steps as f64);
    s.insert("mapper.peak_candidates", result.peak_candidates as f64);
    let counter = |c| recorder.counter(c) as f64;
    s.insert(
        "mapper.candidates_generated",
        counter(Counter::CandidatesGenerated),
    );
    s.insert(
        "mapper.candidates_exported",
        counter(Counter::CandidatesExported),
    );
    s.insert("mapper.sched_steals", counter(Counter::SchedSteals));
    s.insert("mapper.sched_parks", counter(Counter::SchedParks));
    // Per-worker unit counts exist only when the DP ran on the pool.
    let workers = recorder.workers();
    let (max_units, total_units) = workers
        .iter()
        .fold((0, 0), |(m, t), w| (m.max(w.units), t + w.units));
    s.insert("mapper.worker_max_units", max_units as f64);
    s.insert(
        "mapper.worker_mean_units",
        crate::stats::ratio(total_units as f64, workers.len() as f64).unwrap_or(0.0),
    );
    s.insert("domino.gates", f64::from(result.counts.gates));
    s.insert("domino.levels", f64::from(result.counts.levels));
    s.insert("cec.sat_calls", eq.sat_calls as f64);
    s.insert("cec.conflicts", eq.conflicts as f64);
    s.insert("cec.sim_filtered", eq.sim_filtered as f64);
    s.insert("cec.internal_merges", eq.internal_merges as f64);
    s.insert("pbe.junctions_checked", safety.junctions_checked as f64);
    s.insert("pbe.sat_calls", safety.sat_calls as f64);
    Ok((s, result))
}

/// Why two mappings of one input differ, if they do.
pub fn same_mapping(a: &MappingResult, b: &MappingResult, what: &str) -> Option<String> {
    (a.counts != b.counts || a.combine_steps != b.combine_steps || a.circuit != b.circuit)
        .then(|| format!("{what} mapping differs from the default one"))
}
