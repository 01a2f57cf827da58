//! The staged pipeline runner with unified, typed stage errors.
//!
//! [`Pipeline::run`] executes the full flow — `netlist-validate` → `map`
//! → `audit` — and converts every failure into a [`StageError`] that names
//! the [`Stage`] and wraps the underlying crate error, so a caller can
//! always tell *where* the flow broke and *why*, without any stage being
//! able to panic its way out. The `map` stage is [`Mapper::run`] itself,
//! unate conversion included, so the pipeline maps exactly as the mapper
//! does. Every run is audited: the `audit` stage proves the mapping
//! equivalent to the source and checks its protection and accounting
//! ([`check_pipeline`](crate::check_pipeline)).
//! [`Pipeline::run_blif`] prepends a `parse` stage that reads BLIF text.
//!
//! Each stage is wrapped in a `soi-trace` span derived from the mapper's
//! [`MapConfig::trace`](soi_mapper::MapConfig) handle (the mapper's own
//! `unate-convert`, `dp`, `reconstruct` and `pbe-postprocess` spans nest
//! inside `map`), and the audit's equivalence proof reports its own
//! counters inside the `audit` span — attach a [`soi_trace::Recorder`] to
//! the config to observe the flow.

use std::error::Error;
use std::fmt;

use soi_cec::{CecOptions, CecReport};
use soi_mapper::{Algorithm, MapError, Mapper, MappingResult};
use soi_netlist::{Network, NetworkError};
use soi_trace::Stage as TraceStage;

use crate::audit::{self, AuditError};

/// The named stages of the hardened flow, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// BLIF text parsing (only in [`Pipeline::run_blif`] flows).
    Parse,
    /// Structural validation of the input [`Network`].
    NetlistValidate,
    /// The technology mapping, [`Mapper::run`]: configuration check,
    /// unate conversion and the tuple DP.
    Map,
    /// The cross-stage audit ([`crate::audit::check_pipeline`]).
    Audit,
}

impl Stage {
    /// The stage's kebab-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::NetlistValidate => "netlist-validate",
            Stage::Map => "map",
            Stage::Audit => "audit",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The underlying cause of a stage failure: one wrapper per layer of the
/// flow, so no information is lost crossing the stage boundary.
#[derive(Debug)]
pub enum StageFailure {
    /// A [`NetworkError`] from the netlist layer.
    Network(NetworkError),
    /// A [`MapError`] from the mapper.
    Map(MapError),
    /// The cross-stage audit failed.
    Audit(AuditError),
}

impl fmt::Display for StageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailure::Network(e) => write!(f, "{e}"),
            StageFailure::Map(e) => write!(f, "{e}"),
            StageFailure::Audit(e) => write!(f, "{e}"),
        }
    }
}

/// A failure of one named pipeline stage.
#[derive(Debug)]
pub struct StageError {
    /// The stage that failed.
    pub stage: Stage,
    /// What the stage was working on (network name, typically).
    pub context: String,
    /// The wrapped cause.
    pub failure: StageFailure,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {} failed on `{}`: {}",
            self.stage, self.context, self.failure
        )
    }
}

impl Error for StageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.failure {
            StageFailure::Network(e) => Some(e),
            StageFailure::Map(e) => Some(e),
            StageFailure::Audit(e) => Some(e),
        }
    }
}

/// Everything a successful pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The mapping itself.
    pub result: MappingResult,
    /// Interrupted map attempts recovered by resuming from their salvaged
    /// partial results (0 on a clean first attempt).
    pub salvage_retries: u32,
    /// The audit's equivalence proof: always
    /// [`Equivalent`](soi_cec::CecVerdict::Equivalent), with the path that
    /// decided it and what it cost.
    pub cec: CecReport,
}

/// The hardened flow runner. Build one around a [`Mapper`] and feed it
/// networks; see the crate-level example.
#[derive(Debug, Clone)]
pub struct Pipeline {
    mapper: Mapper,
    salvage_retries: u32,
}

impl Pipeline {
    /// Creates a pipeline around a mapper, with no salvage retries.
    pub fn new(mapper: Mapper) -> Pipeline {
        Pipeline {
            mapper,
            salvage_retries: 0,
        }
    }

    /// Allows up to `retries` map-stage resumes from salvaged partial
    /// results: when the map stage is interrupted (cancellation trip,
    /// deadline, contained worker panic) and the error carries a non-empty
    /// [`PartialMapping`](soi_mapper::PartialMapping), the stage reruns
    /// from it ([`Mapper::with_salvage`]) — converting the network again,
    /// deterministically, and solving only what the interrupt cut off —
    /// instead of failing the flow. The deterministic
    /// `cancel_after_steps` test trip is cleared on resume (it would
    /// re-fire identically); a wall-clock deadline grants each attempt a
    /// fresh allowance over strictly less work, and a tripped
    /// [`CancelToken`](soi_mapper::CancelToken) stays honored — the resume
    /// fails fast.
    pub fn with_salvage_retry(mut self, retries: u32) -> Pipeline {
        self.salvage_retries = retries;
        self
    }

    /// The audit's equivalence-check options, with conflict budgets
    /// derived from the mapper's [`Limits`](soi_mapper::Limits): the
    /// output-miter budget scales with `max_combine_steps` (the knob that
    /// already expresses how much compute the caller will spend on this
    /// flow), clamped to a sane band, and the per-node budget is a small
    /// fraction of it.
    pub fn cec_options(&self) -> CecOptions {
        let limits = &self.mapper.config().limits;
        let output_conflict_budget = (limits.max_combine_steps / 1_000).clamp(10_000, 10_000_000);
        CecOptions {
            output_conflict_budget,
            node_conflict_budget: (output_conflict_budget / 500).clamp(50, 2_000),
            ..CecOptions::default()
        }
    }

    /// Runs the full flow on `network`.
    ///
    /// # Errors
    ///
    /// Returns the first [`StageError`], naming the stage that rejected the
    /// input and wrapping the layer's own typed error.
    pub fn run(&self, network: &Network) -> Result<PipelineReport, StageError> {
        let trace = self.mapper.config().trace;
        let ctx = |stage: Stage, failure: StageFailure| StageError {
            stage,
            context: network.name().to_string(),
            failure,
        };

        // Stage 1: netlist-validate.
        {
            let _span = trace.span(TraceStage::NetlistValidate);
            network
                .validate()
                .map_err(|e| ctx(Stage::NetlistValidate, StageFailure::Network(e)))?;
        }

        // Stage 2: map, with the optional salvage retries. The span covers
        // the whole stage; the mapper opens its own `unate-convert` / `dp` /
        // `reconstruct` / `pbe-postprocess` child spans inside it.
        let map_span = trace.span(TraceStage::Map);
        let rebuild = |algorithm: Algorithm, config| match algorithm {
            Algorithm::DominoMap => Mapper::baseline(config),
            Algorithm::RsMap => Mapper::rearrange_stacks(config),
            Algorithm::SoiDominoMap => Mapper::soi(config),
        };
        let mut mapper = self.mapper.clone();
        let mut salvage_retries = 0u32;
        let result = loop {
            match mapper.run(network) {
                Ok(result) => break result,
                Err(e) => {
                    let salvage = e.partial().filter(|p| !p.is_empty()).cloned();
                    match salvage {
                        Some(partial) if salvage_retries < self.salvage_retries => {
                            salvage_retries += 1;
                            let mut config = *mapper.config();
                            // The deterministic test trip would re-fire at
                            // the same step count; the deadline and token
                            // stay honored (see `with_salvage_retry`).
                            config.limits.cancel_after_steps = None;
                            mapper = rebuild(mapper.algorithm(), config).with_salvage(partial);
                        }
                        _ => return Err(ctx(Stage::Map, StageFailure::Map(e))),
                    }
                }
            }
        };
        map_span.finish();

        // Stage 3: audit — validity, PBE coverage, accounting and the
        // equivalence proof.
        let cec = {
            let _span = trace.span(TraceStage::Audit);
            audit::audit(network, &result, &self.cec_options(), trace)
                .map_err(|e| ctx(Stage::Audit, StageFailure::Audit(e)))?
        };

        Ok(PipelineReport {
            result,
            salvage_retries,
            cec,
        })
    }

    /// Parses BLIF text and runs the full flow on the resulting network —
    /// [`Pipeline::run`] with a leading `parse` stage, so text-driven
    /// callers get the same typed stage errors (and a `parse` trace span)
    /// instead of handling the parser separately.
    ///
    /// # Errors
    ///
    /// Parse failures surface as [`Stage::Parse`] with the netlist layer's
    /// [`NetworkError`]; everything after parsing behaves exactly like
    /// [`Pipeline::run`].
    pub fn run_blif(&self, text: &str) -> Result<PipelineReport, StageError> {
        let trace = self.mapper.config().trace;
        let network = {
            let _span = trace.span(TraceStage::Parse);
            soi_netlist::blif::parse(text).map_err(|e| StageError {
                stage: Stage::Parse,
                context: "<blif>".to_string(),
                failure: StageFailure::Network(e),
            })?
        };
        self.run(&network)
    }

    /// Parses an AIGER document (ASCII `aag` or binary `aig`, sniffed from
    /// the magic) and runs the full flow on the resulting network — the
    /// AIGER counterpart of [`Pipeline::run_blif`].
    ///
    /// # Errors
    ///
    /// Parse failures surface as [`Stage::Parse`] with the netlist layer's
    /// [`NetworkError`] (including [`NetworkError::TooManyNodes`] for
    /// headers past the id space); everything after parsing behaves exactly
    /// like [`Pipeline::run`].
    pub fn run_aiger(&self, bytes: &[u8]) -> Result<PipelineReport, StageError> {
        let trace = self.mapper.config().trace;
        let network = {
            let _span = trace.span(TraceStage::Parse);
            soi_netlist::aiger::parse_bytes(bytes).map_err(|e| StageError {
                stage: Stage::Parse,
                context: "<aiger>".to_string(),
                failure: StageFailure::Network(e),
            })?
        };
        self.run(&network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_cec::CecPath;
    use soi_mapper::MapConfig;
    use soi_netlist::NodeId;
    use soi_trace::Counter;

    fn nand_or() -> Network {
        let mut n = Network::new("nand-or");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.nand2(a, b);
        let f = n.or2(g, c);
        n.add_output("f", f);
        n
    }

    #[test]
    fn healthy_network_passes_all_stages() {
        let report = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run(&nand_or())
            .expect("pipeline passes");
        assert!(report.cec.is_equivalent());
        assert_eq!(report.cec.path, CecPath::Certificate);
    }

    #[test]
    fn corrupt_network_fails_at_validate_stage() {
        let mut n = nand_or();
        n.set_output_driver_unchecked(0, NodeId::from_index(999));
        let err = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run(&n)
            .expect_err("must fail");
        assert_eq!(err.stage, Stage::NetlistValidate);
        assert!(matches!(
            err.failure,
            StageFailure::Network(NetworkError::DanglingOutput { .. })
        ));
        assert!(err.to_string().contains("netlist-validate"));
    }

    #[test]
    fn invalid_limits_fail_the_map_stage() {
        let config = MapConfig {
            w_max: 1,
            h_max: 1,
            ..MapConfig::default()
        };
        let err = Pipeline::new(Mapper::soi(config))
            .run(&nand_or())
            .expect_err("1 × 1 limits are rejected");
        assert_eq!(err.stage, Stage::Map);
        assert!(matches!(
            err.failure,
            StageFailure::Map(MapError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn stage_error_exposes_source() {
        let mut n = nand_or();
        n.set_output_driver_unchecked(0, NodeId::from_index(999));
        let err = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run(&n)
            .unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn traced_run_emits_stage_spans_and_proof_counters() {
        let (rec, trace) = soi_trace::Recorder::install();
        let config = MapConfig {
            trace,
            ..MapConfig::default()
        };
        let report = Pipeline::new(Mapper::soi(config))
            .run(&nand_or())
            .expect("pipeline passes");
        for stage in [
            TraceStage::NetlistValidate,
            TraceStage::UnateConvert,
            TraceStage::Map,
            TraceStage::Dp,
            TraceStage::Reconstruct,
            TraceStage::Audit,
            TraceStage::CecCertify,
        ] {
            assert!(
                rec.stage_nanos(stage).is_some(),
                "missing span for {stage:?}"
            );
        }
        // The mapper's conversion span nests inside `map`: it completes
        // after `netlist-validate` and before `map`.
        let order: Vec<TraceStage> = rec.spans().iter().map(|&(s, _)| s).collect();
        let at = |stage| order.iter().position(|&s| s == stage).unwrap();
        assert!(at(TraceStage::NetlistValidate) < at(TraceStage::UnateConvert));
        assert!(at(TraceStage::UnateConvert) < at(TraceStage::Map));
        // The certificate decided: every gate certified, no fallback and
        // no SAT call.
        assert_eq!(report.cec.path, CecPath::Certificate);
        assert_eq!(
            rec.counter(Counter::CecCertifiedGates),
            report.result.circuit.gate_count() as u64
        );
        assert_eq!(rec.counter(Counter::CecFallbacks), 0);
        assert_eq!(rec.counter(Counter::CecSatCalls), 0);
    }

    #[test]
    fn run_blif_parses_and_spans_the_parse_stage() {
        let (rec, trace) = soi_trace::Recorder::install();
        let config = MapConfig {
            trace,
            ..MapConfig::default()
        };
        let text = "\
.model blif-t
.inputs a b c
.outputs f
.names a b g
11 1
.names g c f
1- 1
-1 1
.end
";
        let report = Pipeline::new(Mapper::soi(config))
            .run_blif(text)
            .expect("blif flow passes");
        assert!(rec.stage_nanos(TraceStage::Parse).is_some());
        assert!(report.cec.is_equivalent());
    }

    #[test]
    fn run_blif_surfaces_parse_failures_as_the_parse_stage() {
        let err = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run_blif(".model broken\n.names ghost f\n1 1\n.end\n")
            .expect_err("unparsable BLIF must fail");
        assert_eq!(err.stage, Stage::Parse);
        assert!(err.to_string().contains("parse"));
    }

    /// Several disjoint output cones, so an interrupt midway through the
    /// serial unit walk leaves completed units to salvage.
    fn many_cones(outputs: usize) -> Network {
        let mut n = Network::new("many-cones");
        let inputs: Vec<_> = (0..outputs + 3)
            .map(|i| n.add_input(format!("i{i}")))
            .collect();
        for o in 0..outputs {
            let a = n.and2(inputs[o], inputs[o + 1]);
            let b = n.or2(a, inputs[o + 2]);
            let c = n.and2(b, inputs[o + 3]);
            n.add_output(format!("f{o}"), c);
        }
        n
    }

    #[test]
    fn salvage_retry_resumes_an_interrupted_map_stage() {
        let network = many_cones(8);
        let clean = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run(&network)
            .expect("clean run passes");
        assert_eq!(clean.salvage_retries, 0);
        let steps = clean.result.combine_steps;
        assert!(steps > 4, "test circuit must do real combination work");

        let mut config = MapConfig::default();
        config.limits.cancel_after_steps = Some(steps / 2);
        let interruptible = Pipeline::new(Mapper::soi(config));

        // Without the retry the interrupt fails the stage (typed).
        let err = interruptible.run(&network).expect_err("trip fails the map");
        assert_eq!(err.stage, Stage::Map);
        match &err.failure {
            StageFailure::Map(e @ MapError::Cancelled { .. }) => {
                let partial = e.partial().expect("interrupts carry salvage");
                assert!(!partial.is_empty(), "midway trip must complete units");
            }
            other => panic!("expected a cancelled map failure, got {other}"),
        }

        // With it, the stage resumes from the salvage and the flow (audit
        // included) completes identically to the clean run.
        let report = interruptible
            .with_salvage_retry(2)
            .run(&network)
            .expect("salvage retry recovers the flow");
        assert_eq!(report.salvage_retries, 1);
        assert_eq!(report.result.combine_steps, clean.result.combine_steps);
        assert_eq!(report.result.counts, clean.result.counts);
        assert_eq!(report.cec.path, CecPath::Certificate);
    }

    #[test]
    fn salvage_retry_honors_a_tripped_cancel_token() {
        let token = soi_mapper::CancelToken::new();
        token.cancel();
        let mut config = MapConfig::default();
        config.limits.cancel = token;
        let err = Pipeline::new(Mapper::soi(config))
            .with_salvage_retry(3)
            .run(&many_cones(4))
            .expect_err("a tripped token is a command, not a hiccup");
        assert_eq!(err.stage, Stage::Map);
        assert!(matches!(
            err.failure,
            StageFailure::Map(MapError::Cancelled { .. })
        ));
    }

    #[test]
    fn cec_budgets_derive_from_limits() {
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 5_000_000_000;
        let opts = Pipeline::new(Mapper::soi(config)).cec_options();
        assert_eq!(opts.output_conflict_budget, 5_000_000);
        assert_eq!(opts.node_conflict_budget, 2_000);
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 1;
        let opts = Pipeline::new(Mapper::soi(config)).cec_options();
        assert_eq!(opts.output_conflict_budget, 10_000);
        assert_eq!(opts.node_conflict_budget, 50);
    }
}
