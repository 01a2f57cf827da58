//! The metrics the benchmark reports, with the end-to-end metric and
//! workload each per-layer metric should move. `BENCHMARK.json` at the
//! repository root lists the same names, units and directions; a test
//! keeps the two in step.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported with `--trace 0`: timings are per-flow medians over the run's
/// untraced repetitions, summed over the workload's flows.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "median of the run's set-ups"),
    m("flow_ms", "ms", "lower", "parse + map + prove"),
    m("map_ms", "ms", "lower", "time in Mapper::run"),
    m("prove_ms", "ms", "lower", "check_mapped + verify_safe_sat"),
    m("transistors", "count", "lower", "total transistors"),
    m(
        "discharge_transistors",
        "count",
        "lower",
        "the paper's PBE cost",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "VmHWM after set-up and the first proving pass",
    ),
    m(
        "pass_share",
        "ratio",
        "higher",
        "1 - failed flows / attempted flows",
    ),
];

/// Reported with `--trace 1`, from the traced repetitions.
pub const PER_LAYER: &[Metric] = &[
    m("netlist.parse_ms", "ms", "lower", "flow_ms on mult136"),
    m("unate.convert_ms", "ms", "lower", "map_ms on mult136"),
    m("unate.partition_ms", "ms", "lower", "map_ms on mult136"),
    m("unate.gates", "count", "lower", "map_ms on all workloads"),
    m("unate.units", "count", "lower", "map_ms on all workloads"),
    m(
        "mapper.run_unate_ms",
        "ms",
        "lower",
        "map_ms on all workloads",
    ),
    m("mapper.dp_ms", "ms", "lower", "map_ms on control"),
    m("mapper.reconstruct_ms", "ms", "lower", "map_ms on mult136"),
    m("mapper.pbe_post_ms", "ms", "lower", "map_ms on tables only"),
    m(
        "mapper.serial_ms",
        "ms",
        "lower",
        "the serial baseline of map_ms",
    ),
    m(
        "mapper.parallel_gain",
        "ratio",
        "higher",
        "map_ms on mult136 and control",
    ),
    m(
        "mapper.threads_used",
        "count",
        "higher",
        "map_ms on mult136 and control",
    ),
    m(
        "mapper.combine_steps",
        "count",
        "lower",
        "map_ms on all workloads",
    ),
    m("mapper.peak_candidates", "count", "lower", "peak_rss_mb"),
    m(
        "mapper.candidates_generated",
        "count",
        "lower",
        "map_ms on control",
    ),
    m(
        "mapper.candidate_survival",
        "ratio",
        "higher",
        "map_ms on control",
    ),
    m(
        "mapper.sched_steals",
        "count",
        "lower",
        "map_ms on mult136 and control",
    ),
    m(
        "mapper.sched_parks",
        "count",
        "lower",
        "map_ms on mult136 and control",
    ),
    m(
        "mapper.worker_imbalance",
        "ratio",
        "lower",
        "map_ms on mult136 and control",
    ),
    m("domino.gates", "count", "lower", "transistors"),
    m("domino.levels", "count", "lower", "transistors"),
    m("cec.lower_ms", "ms", "lower", "prove_ms on mult136"),
    m("cec.check_ms", "ms", "lower", "prove_ms on control"),
    m("cec.sat_calls", "count", "lower", "prove_ms on control"),
    m("cec.conflicts", "count", "lower", "prove_ms on control"),
    m("cec.sim_filtered", "count", "higher", "prove_ms on mult136"),
    m(
        "cec.internal_merges",
        "count",
        "higher",
        "prove_ms on mult136",
    ),
    m("cec.ms_per_sat_call", "ms", "lower", "prove_ms on control"),
    m(
        "cec.conflicts_per_call",
        "ratio",
        "lower",
        "prove_ms on control",
    ),
    m("pbe.safety_ms", "ms", "lower", "prove_ms on mult136"),
    m(
        "pbe.junctions_checked",
        "count",
        "lower",
        "prove_ms on mult136",
    ),
    m("pbe.sat_calls", "count", "lower", "prove_ms on mult136"),
    m(
        "trace.overhead",
        "ratio",
        "lower",
        "traced flow_ms / untraced flow_ms",
    ),
];

/// Raw sample keys reduced by maximum over flows; every other key is
/// summed over flows.
pub const MAX_OVER_FLOWS: &[&str] = &["mapper.threads_used", "mapper.peak_candidates"];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric appears in `BENCHMARK.json` with the same unit and
    /// direction, and names are unique.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let mut names: Vec<&str> = Vec::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            names.push(metric.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(json.matches("\"unit\"").count(), total);
    }
}
