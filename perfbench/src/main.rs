//! End-to-end benchmark of the SOI domino flow: parse binary AIGER
//! (`aiger::parse_binary`), map (`Mapper::run` with
//! `MapConfig::default()`), then prove the mapping equivalent
//! (`soi_cec::check_mapped`) and PBE-safe (`soi_cec::verify_safe_sat`).
//!
//! ```text
//! perfbench --workload <tables|mult136|control> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Set-up materialises the workload's networks and serialises them to
//! binary AIGER in memory, so the timed flows start from bytes like a
//! user's file; it runs before the first pass and again after each one.
//! One untimed warm-up pass runs every flow, proofs included, and maps it
//! again under `Parallelism::Serial` to check that the mappings agree; a
//! process's first pass runs slower than its later ones, so it is never
//! timed.
//! Then passes repeat for `--seconds` (at least `MIN_REPS`): untraced only
//! with `--trace 0`; with `--trace 1` also serial and traced, both checked
//! against the untraced mapping. Single process, one flow at a time (a
//! closed loop), at most `available_parallelism` mapper threads.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. The line before it records the host,
//! the repetition count and the spread of every timing. The exit code is 1
//! when any flow failed its checks (after printing everything), 2 on bad
//! arguments.

mod flow;
mod metrics;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use soi_cec::CecOptions;
use soi_circuits::misc::random::{generate, RandomSpec};
use soi_circuits::{corpus, registry};
use soi_domino_ir::TransistorCounts;
use soi_mapper::Algorithm;
use soi_netlist::aiger;
use soi_trace::{Recorder, TraceHandle};

use flow::Sample;
use metrics::{Metric, END_TO_END, MAX_OVER_FLOWS, PER_LAYER};
use stats::{json_number, json_string, median, ratio, Spread, Tally};

/// Seed used when `--seed` is absent; it is the corpus seed of
/// `synth-control-25k`.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// The `control` workload is this many circuits of the `synth-control-25k`
/// profile (128 inputs, 32 outputs, 25k target gates, XOR ratio 0.02).
/// Each converts to about 45k unate gates, well above the size at which
/// the default configuration builds a per-run cone cache. The cost of one
/// circuit swings by several percent from seed to seed; summing over two
/// narrows that, and a run still fits its three passes well inside its
/// time limit on a slow host.
const CONTROL_CIRCUITS: u64 = 2;
const CONTROL_GATES: usize = 25_000;
/// Timed passes per run, however short `--seconds` is. A traced pass costs
/// about two untraced ones plus a serial mapping, so fewer are required;
/// more would push a slow host's traced `control` run toward its time
/// limit.
const MIN_REPS: usize = 3;
const MIN_TRACED_REPS: usize = 1;

const USAGE: &str =
    "usage: perfbench --workload <tables|mult136|control> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// The 21 Table II circuits under all three algorithms.
    Tables,
    /// `synth-mult136`, 109,888 gates, `SOI_Domino_Map`.
    Mult136,
    /// `CONTROL_CIRCUITS` seeded random control circuits in the
    /// `synth-control-25k` profile, `SOI_Domino_Map`.
    Control,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tables" => Some(Workload::Tables),
            "mult136" => Some(Workload::Mult136),
            "control" => Some(Workload::Control),
            _ => None,
        }
    }

    /// The workload's input networks, serialised to binary AIGER.
    fn inputs(self, seed: u64) -> Vec<Input> {
        let input = |name: &str, network| Input {
            name: name.to_string(),
            aiger: aiger::write_binary(&network),
        };
        match self {
            Workload::Tables => registry::TABLE2
                .iter()
                .map(|&name| {
                    input(
                        name,
                        registry::benchmark(name).expect("Table II names are registered"),
                    )
                })
                .collect(),
            Workload::Mult136 => {
                let network =
                    corpus::load("synth-mult136").expect("synth-mult136 is in the corpus");
                vec![input("synth-mult136", network)]
            }
            Workload::Control => (0..CONTROL_CIRCUITS)
                .map(|k| {
                    let spec = RandomSpec {
                        xor_ratio: 0.02,
                        ..RandomSpec::control(
                            "synth-control-25k",
                            128,
                            32,
                            CONTROL_GATES,
                            control_seed(seed, k),
                        )
                    };
                    input(&format!("control-{k}"), generate(&spec))
                })
                .collect(),
        }
    }

    fn algorithms(self) -> &'static [Algorithm] {
        match self {
            Workload::Tables => &[
                Algorithm::DominoMap,
                Algorithm::RsMap,
                Algorithm::SoiDominoMap,
            ],
            Workload::Mult136 | Workload::Control => &[Algorithm::SoiDominoMap],
        }
    }
}

/// Generator seed of `control` circuit `k` in the run seeded with `seed`;
/// circuit 0 takes the run's seed itself.
fn control_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(PartialEq)]
struct Input {
    name: String,
    aiger: Vec<u8>,
}

struct Flow {
    name: String,
    input: usize,
    algorithm: Algorithm,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Tables,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Everything measured for one flow over the run.
#[derive(Default)]
struct FlowRecord {
    flow_ms: Vec<f64>,
    map_ms: Vec<f64>,
    prove_ms: Vec<f64>,
    serial_ms: Vec<f64>,
    traced: Vec<Sample>,
    /// Counts of the first mapping; every later one must repeat them.
    counts: Option<TransistorCounts>,
}

/// What one pass over the workload's flows runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pass {
    /// The untraced flow and the serial mapping, checked against each
    /// other; nothing is timed.
    Warmup,
    /// The untraced flow only, timed.
    Timed,
    /// Also the serial mapping and the traced flow, both checked against
    /// the untraced mapping; everything timed.
    Traced,
}

struct Bench<'a> {
    flows: &'a [Flow],
    inputs: &'a [Input],
    opts: CecOptions,
    recorder: &'static Recorder,
    trace: TraceHandle,
    records: Vec<FlowRecord>,
    tally: Tally,
}

impl Bench<'_> {
    /// Runs every flow once, as `pass` asks.
    fn pass(&mut self, pass: Pass) {
        for (flow, rec) in self.flows.iter().zip(&mut self.records) {
            let bytes = &self.inputs[flow.input].aiger;
            let mut problems = Vec::new();
            let mapped = flow::untraced(bytes, flow.algorithm, &self.opts).map(|run| {
                if pass != Pass::Warmup {
                    rec.flow_ms.push(run.flow_ms);
                    rec.map_ms.push(run.map_ms);
                    rec.prove_ms.push(run.prove_ms);
                }
                run.result
            });
            match mapped {
                Err(e) => problems.push(e),
                Ok(result) => {
                    let counts = *rec.counts.get_or_insert(result.counts);
                    if counts != result.counts {
                        problems.push("transistor counts changed between repetitions".into());
                    }
                    if pass != Pass::Timed {
                        match flow::map_serial(bytes, flow.algorithm) {
                            Err(e) => problems.push(format!("serial {e}")),
                            Ok((ms, serial)) => {
                                problems.extend(flow::same_mapping(&result, &serial, "serial"));
                                if pass == Pass::Traced {
                                    rec.serial_ms.push(ms);
                                }
                            }
                        }
                    }
                    if pass == Pass::Traced {
                        let traced = flow::traced(
                            bytes,
                            flow.algorithm,
                            &self.opts,
                            self.recorder,
                            self.trace,
                        );
                        match traced {
                            Err(e) => problems.push(e),
                            Ok((sample, traced)) => {
                                problems.extend(flow::same_mapping(&result, &traced, "traced"));
                                rec.traced.push(sample);
                            }
                        }
                    }
                }
            }
            self.tally.record(&flow.name, &problems);
        }
    }

    /// Per-flow median of `pick`, summed over flows.
    fn sum_of_medians(&self, pick: impl Fn(&FlowRecord) -> &[f64]) -> f64 {
        self.records.iter().filter_map(|r| median(pick(r))).sum()
    }

    /// Per-flow median of a traced sample key, summed over flows (or the
    /// maximum over flows, for the keys in `MAX_OVER_FLOWS`).
    fn layer(&self, key: &str) -> f64 {
        let per_flow = self.records.iter().filter_map(|r| {
            let xs: Vec<f64> = r
                .traced
                .iter()
                .filter_map(|s| s.get(key).copied())
                .collect();
            median(&xs)
        });
        if MAX_OVER_FLOWS.contains(&key) {
            per_flow.fold(0.0, f64::max)
        } else {
            per_flow.sum()
        }
    }

    /// The workload's total of `pick` in each timed pass.
    fn pass_totals(&self, pick: impl Fn(&FlowRecord) -> Vec<f64>) -> Vec<f64> {
        let per_flow: Vec<Vec<f64>> = self.records.iter().map(pick).collect();
        let passes = per_flow.iter().map(Vec::len).min().unwrap_or(0);
        (0..passes)
            .map(|k| per_flow.iter().map(|xs| xs[k]).sum())
            .collect()
    }

    fn counts_total(&self, pick: impl Fn(&TransistorCounts) -> u32) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.counts.as_ref())
            .map(|c| f64::from(pick(c)))
            .sum()
    }

    fn end_to_end(&self, setup_s: &[f64], peak_rss_mb: Option<f64>) -> Vec<Option<f64>> {
        let value = |name: &str| match name {
            "setup_s" => median(setup_s),
            "flow_ms" => Some(self.sum_of_medians(|r| &r.flow_ms)),
            "map_ms" => Some(self.sum_of_medians(|r| &r.map_ms)),
            "prove_ms" => Some(self.sum_of_medians(|r| &r.prove_ms)),
            "transistors" => Some(self.counts_total(|c| c.total)),
            "discharge_transistors" => Some(self.counts_total(|c| c.discharge)),
            "peak_rss_mb" => peak_rss_mb,
            "pass_share" => self.tally.failed_share().map(|f| 1.0 - f),
            other => unreachable!("no reduction for end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|m| value(m.name)).collect()
    }

    fn per_layer(&self) -> Vec<Option<f64>> {
        let map_ms = self.sum_of_medians(|r| &r.map_ms);
        let serial_ms = self.sum_of_medians(|r| &r.serial_ms);
        let value = |name: &str| match name {
            "mapper.serial_ms" => Some(serial_ms),
            "mapper.parallel_gain" => ratio(serial_ms, map_ms),
            "mapper.candidate_survival" => ratio(
                self.layer("mapper.candidates_exported"),
                self.layer("mapper.candidates_generated"),
            ),
            "mapper.worker_imbalance" => ratio(
                self.layer("mapper.worker_max_units"),
                self.layer("mapper.worker_mean_units"),
            ),
            "cec.ms_per_sat_call" => ratio(self.layer("cec.check_ms"), self.layer("cec.sat_calls")),
            "cec.conflicts_per_call" => {
                ratio(self.layer("cec.conflicts"), self.layer("cec.sat_calls"))
            }
            "trace.overhead" => ratio(
                self.layer("trace.flow_ms"),
                self.sum_of_medians(|r| &r.flow_ms),
            ),
            key => Some(self.layer(key)),
        };
        PER_LAYER.iter().map(|m| value(m.name)).collect()
    }

    /// Spreads over passes of the workload totals behind each timing.
    fn spreads(&self, setup_s: &[f64], traced: bool) -> Vec<(&'static str, Option<Spread>)> {
        let mut out = vec![
            ("setup_s", Spread::of(setup_s)),
            (
                "flow_ms",
                Spread::of(&self.pass_totals(|r| r.flow_ms.clone())),
            ),
            (
                "map_ms",
                Spread::of(&self.pass_totals(|r| r.map_ms.clone())),
            ),
            (
                "prove_ms",
                Spread::of(&self.pass_totals(|r| r.prove_ms.clone())),
            ),
        ];
        if traced {
            out.push((
                "mapper.serial_ms",
                Spread::of(&self.pass_totals(|r| r.serial_ms.clone())),
            ));
            let timings = PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|n| {
                    n.ends_with("_ms") && !["mapper.serial_ms", "cec.ms_per_sat_call"].contains(n)
                })
                .chain(["trace.flow_ms"]);
            for key in timings {
                let totals = self.pass_totals(|r| r.traced.iter().map(|s| s[key]).collect());
                out.push((key, Spread::of(&totals)));
            }
        }
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU model, `nproc` (CPUs this process may run on) and
/// `available_parallelism`, as a JSON object.
fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let nproc = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| cpu_list_len(list.trim()));
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {}, \"available_parallelism\": {available}}}",
        json_string(model),
        json_number(nproc.map(|n| n as f64)),
    )
}

/// Number of CPUs in a kernel CPU list such as `0-3,8,10-11`.
fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => part.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn metrics_json(list: &[Metric], values: &[Option<f64>]) -> String {
    let fields: Vec<String> = list
        .iter()
        .zip(values)
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set-up runs once before the first pass and again after every pass,
    // so its median samples the host over the whole run, as the flow
    // timings do, rather than in the run's first half second.
    let set_up = || {
        let start = Instant::now();
        let inputs = args.workload.inputs(args.seed);
        (inputs, start.elapsed().as_secs_f64())
    };
    let (inputs, first_setup_s) = set_up();
    let mut setup_s = vec![first_setup_s];
    let flows: Vec<Flow> = inputs
        .iter()
        .enumerate()
        .flat_map(|(input, i)| {
            args.workload
                .algorithms()
                .iter()
                .map(move |&algorithm| Flow {
                    name: format!("{}/{}", i.name, algorithm.paper_name()),
                    input,
                    algorithm,
                })
        })
        .collect();

    // One recorder for the whole run, reset before each traced flow:
    // `Recorder::install` leaks its recorder, so it is never called per
    // repetition.
    let (recorder, trace) = Recorder::install();
    let mut bench = Bench {
        flows: &flows,
        inputs: &inputs,
        opts: CecOptions {
            seed: args.seed,
            ..CecOptions::default()
        },
        recorder,
        trace,
        records: flows.iter().map(|_| FlowRecord::default()).collect(),
        tally: Tally::default(),
    };
    bench.pass(Pass::Warmup);
    // Taken after the warm-up pass: allocator fragmentation lets the peak
    // creep up with every pass, so the whole run's peak would depend on how
    // many passes fit in `--seconds`.
    let peak_rss = peak_rss_mb();
    let (pass, min_reps) = if args.trace {
        (Pass::Traced, MIN_TRACED_REPS)
    } else {
        (Pass::Timed, MIN_REPS)
    };
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        bench.pass(pass);
        reps += 1;
        let (again, s) = set_up();
        assert!(
            again == inputs,
            "set-up made other inputs from the same seed"
        );
        setup_s.push(s);
    }

    let (list, values) = if args.trace {
        (PER_LAYER, bench.per_layer())
    } else {
        (END_TO_END, bench.end_to_end(&setup_s, peak_rss))
    };
    for (m, v) in list.iter().zip(&values) {
        eprintln!(
            "{:<28} {:>18} {:<6} {:<6} {}",
            m.name,
            json_number(*v),
            m.unit,
            m.better,
            m.moves
        );
    }
    for reason in &bench.tally.reasons {
        eprintln!("FAILED {reason}");
    }
    let spreads: Vec<String> = bench
        .spreads(&setup_s, args.trace)
        .into_iter()
        .map(|(name, s)| format!("\"{name}\": {}", s.map_or("null".into(), |s| s.json())))
        .collect();
    let reasons: Vec<String> = bench.tally.reasons.iter().map(|r| json_string(r)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"flows\": {}, \"reps\": {reps}, \"failed_share\": {}, \
         \"host\": {}, \"spread\": {{{}}}, \"failures\": [{}]}}",
        json_string(&format!("{:?}", args.workload).to_lowercase()),
        args.seed,
        flows.len(),
        json_number(bench.tally.failed_share()),
        host_json(),
        spreads.join(", "),
        reasons.join(", "),
    );
    let correct = bench.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        bench.tally.attempted,
        bench.tally.failed,
        metrics_json(list, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload control --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Control, 7, 12.0, true)
        );
        let a = args("--workload tables").unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        assert!(args("").is_err());
        assert!(args("--workload big").is_err());
        assert!(args("--workload tables --trace 2").is_err());
        assert!(args("--workload tables --seconds").is_err());
        assert!(args("--workload tables --seconds -1").is_err());
        assert!(args("--workload tables --color red").is_err());
    }

    #[test]
    fn cpu_lists_count_cpus() {
        assert_eq!(cpu_list_len("0-1"), 2);
        assert_eq!(cpu_list_len("0-3,8,10-11"), 7);
        assert_eq!(cpu_list_len("5"), 1);
    }

    #[test]
    fn metrics_line_uses_null_for_missing_values() {
        let json = metrics_json(&END_TO_END[..2], &[Some(0.5), None]);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"flow_ms\": {\"value\": null, \"unit\": \"ms\"}}"
        );
    }
}
