//! The staged pipeline runner with unified, typed stage errors.
//!
//! [`Pipeline::run`] executes the full flow — `netlist-validate` →
//! `unate-convert` → `map` → `discharge-protect` → `audit` — and converts
//! every failure into a [`StageError`] that names the [`Stage`] and wraps
//! the underlying crate error, so a caller can always tell *where* the flow
//! broke and *why*, without any stage being able to panic its way out.
//! [`Pipeline::run_blif`] prepends a `parse` stage that reads BLIF text.
//!
//! Each stage is wrapped in a `soi-trace` span derived from the mapper's
//! [`MapConfig::trace`](soi_mapper::MapConfig) handle, and the audit stage
//! reports its vector count through
//! [`soi_trace::Counter::AuditVectors`] — attach a
//! [`soi_trace::Recorder`] to the config to observe the flow.

use std::error::Error;
use std::fmt;

use soi_cec::{CecError, CecOptions, CecReport, CecVerdict, Counterexample, PbeSafetyReport};
use soi_domino_ir::DominoError;
use soi_mapper::{Algorithm, MapError, Mapper, MappingResult};
use soi_netlist::{Network, NetworkError};
use soi_pbe::excite::InputConstraints;
use soi_pbe::{hazard, PbeError};
use soi_trace::{Counter, Stage as TraceStage};
use soi_unate::{convert, Options, UnateError, UnateNetwork};

use crate::audit::{self, AuditConfig, AuditError, AuditReport};

/// The named stages of the hardened flow, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// BLIF text parsing (only in [`Pipeline::run_blif`] flows).
    Parse,
    /// Structural validation of the input [`Network`].
    NetlistValidate,
    /// Binate-to-unate conversion.
    UnateConvert,
    /// The tuple-DP technology mapping.
    Map,
    /// Verification that the mapped circuit is structurally valid and that
    /// its pre-discharge set covers every PBE-susceptible junction.
    DischargeProtect,
    /// The cross-stage consistency audit ([`crate::audit::check_pipeline`]).
    Audit,
    /// SAT-based combinational equivalence of the mapped circuit against
    /// the source network, plus the SAT-formulated PBE-safety proof
    /// (opt-in via [`Pipeline::with_cec`]).
    Cec,
}

impl Stage {
    /// The stage's kebab-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::NetlistValidate => "netlist-validate",
            Stage::UnateConvert => "unate-convert",
            Stage::Map => "map",
            Stage::DischargeProtect => "discharge-protect",
            Stage::Audit => "audit",
            Stage::Cec => "cec",
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
    /// A [`UnateError`] from the unate-conversion layer.
    Unate(UnateError),
    /// A [`MapError`] from the mapper.
    Map(MapError),
    /// A [`DominoError`] from the circuit layer.
    Domino(DominoError),
    /// A [`PbeError`] from the PBE analysis layer.
    Pbe(PbeError),
    /// The discharge set left PBE-susceptible junctions uncovered.
    Hazards {
        /// Number of unprotected committed discharge points.
        count: usize,
        /// `gate/junction` description of the first one.
        first: String,
    },
    /// The cross-stage audit failed.
    Audit(AuditError),
    /// The equivalence checker could not run ([`CecError`]).
    Cec(CecError),
    /// The mapped circuit is **not** equivalent to the source network: a
    /// replay-confirmed counterexample.
    CecMismatch(Counterexample),
    /// The equivalence check left output miters unproven within the
    /// conflict budget — treated as a failure, never silently passed.
    CecUnproven {
        /// Number of unproven output miters.
        unproven: usize,
    },
    /// The SAT PBE-safety proof flagged unprotected committed junctions.
    CecUnsafe {
        /// Junctions that failed the proof (excitable or unknown).
        count: usize,
        /// `gate/junction` description of the first one.
        first: String,
    },
}

impl fmt::Display for StageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageFailure::Network(e) => write!(f, "{e}"),
            StageFailure::Unate(e) => write!(f, "{e}"),
            StageFailure::Map(e) => write!(f, "{e}"),
            StageFailure::Domino(e) => write!(f, "{e}"),
            StageFailure::Pbe(e) => write!(f, "{e}"),
            StageFailure::Hazards { count, first } => {
                write!(
                    f,
                    "{count} unprotected discharge point(s), first at {first}"
                )
            }
            StageFailure::Audit(e) => write!(f, "{e}"),
            StageFailure::Cec(e) => write!(f, "{e}"),
            StageFailure::CecMismatch(cex) => write!(
                f,
                "mapped circuit differs from the source at output {} (lhs {}, rhs {})",
                cex.output, cex.lhs, cex.rhs
            ),
            StageFailure::CecUnproven { unproven } => {
                write!(f, "{unproven} output miter(s) unproven within budget")
            }
            StageFailure::CecUnsafe { count, first } => {
                write!(
                    f,
                    "{count} junction(s) failed the PBE-safety proof, first at {first}"
                )
            }
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
            StageFailure::Unate(e) => Some(e),
            StageFailure::Map(e) => Some(e),
            StageFailure::Domino(e) => Some(e),
            StageFailure::Pbe(e) => Some(e),
            StageFailure::Audit(e) => Some(e),
            StageFailure::Cec(e) => Some(e),
            StageFailure::Hazards { .. }
            | StageFailure::CecMismatch(_)
            | StageFailure::CecUnproven { .. }
            | StageFailure::CecUnsafe { .. } => None,
        }
    }
}

/// What the opt-in CEC stage proved.
#[derive(Debug, Clone)]
pub struct CecVerification {
    /// The miter-based equivalence report (verdict is
    /// [`CecVerdict::Equivalent`] on a successful run).
    pub equivalence: CecReport,
    /// The SAT PBE-safety report (`safe` on a successful run).
    pub safety: PbeSafetyReport,
}

/// Everything a successful pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The unate network the mapper consumed (kept for re-auditing).
    pub unate: UnateNetwork,
    /// The mapping itself.
    pub result: MappingResult,
    /// Whether the run needed the graceful-degradation retry (or the
    /// mapper's own in-config degradation fired).
    pub degraded: bool,
    /// Interrupted map attempts recovered by resuming from their salvaged
    /// partial results (0 on a clean first attempt).
    pub salvage_retries: u32,
    /// The audit report, when auditing was enabled.
    pub audit: Option<AuditReport>,
    /// The CEC + PBE-safety proofs, when the CEC stage was enabled.
    pub cec: Option<CecVerification>,
}

/// The hardened flow runner. Build one around a [`Mapper`] and feed it
/// networks; see the crate-level example.
#[derive(Debug, Clone)]
pub struct Pipeline {
    mapper: Mapper,
    unate_options: Options,
    degrade_on_unmappable: bool,
    salvage_retries: u32,
    audit: Option<AuditConfig>,
    cec: Option<CecOptions>,
}

impl Pipeline {
    /// Creates a pipeline around a mapper, with default unate-conversion
    /// options, auditing enabled at [`AuditConfig::default`], and no
    /// degradation or salvage retries.
    pub fn new(mapper: Mapper) -> Pipeline {
        Pipeline {
            mapper,
            unate_options: Options::default(),
            degrade_on_unmappable: false,
            salvage_retries: 0,
            audit: Some(AuditConfig::default()),
            cec: None,
        }
    }

    /// Replaces the unate-conversion options.
    pub fn with_unate_options(mut self, options: Options) -> Pipeline {
        self.unate_options = options;
        self
    }

    /// Enables or disables the graceful-degradation retry: when the map
    /// stage fails with [`MapError::Unmappable`], rerun it with
    /// [`degrade_unmappable`](soi_mapper::MapConfig::degrade_unmappable)
    /// set, forcing gate boundaries at
    /// the offending nodes instead of failing the flow.
    pub fn with_degradation(mut self, enabled: bool) -> Pipeline {
        self.degrade_on_unmappable = enabled;
        self
    }

    /// Allows up to `retries` map-stage resumes from salvaged partial
    /// results: when the map stage is interrupted (cancellation trip,
    /// deadline, contained worker panic) and the error carries a non-empty
    /// [`PartialMapping`](soi_mapper::PartialMapping), the stage reruns
    /// from it ([`Mapper::with_salvage`]) — solving only what the
    /// interrupt cut off — instead of failing the flow. The deterministic
    /// `cancel_after_steps` test trip is cleared on resume (it would
    /// re-fire identically); a wall-clock deadline grants each attempt a
    /// fresh allowance over strictly less work, and a tripped
    /// [`CancelToken`](soi_mapper::CancelToken) stays honored — the resume
    /// fails fast.
    pub fn with_salvage_retry(mut self, retries: u32) -> Pipeline {
        self.salvage_retries = retries;
        self
    }

    /// Sets the audit configuration; `None` disables the audit stage.
    pub fn with_audit(mut self, audit: Option<AuditConfig>) -> Pipeline {
        self.audit = audit;
        self
    }

    /// Enables the opt-in post-map `cec` stage: SAT-based equivalence of
    /// the mapped circuit against the source network plus the
    /// SAT-formulated PBE-safety proof. `None` (the default) skips the
    /// stage; use [`Pipeline::cec_options`] for budgets derived from the
    /// mapper's [`Limits`](soi_mapper::Limits).
    pub fn with_cec(mut self, cec: Option<CecOptions>) -> Pipeline {
        self.cec = cec;
        self
    }

    /// CEC options with conflict budgets derived from the mapper's
    /// limits: the output-miter budget scales with `max_combine_steps`
    /// (the knob that already expresses how much compute the caller will
    /// spend on this flow), clamped to a sane band, and the per-node
    /// budget is a small fraction of it.
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

        // Stage 2: unate-convert.
        let unate = {
            let _span = trace.span(TraceStage::UnateConvert);
            convert(network, &self.unate_options)
                .map_err(|e| ctx(Stage::UnateConvert, StageFailure::Unate(e)))?
        };

        // Stage 3: map, with the optional degradation and salvage retries.
        // The span covers the whole stage; the mapper opens its own `dp` /
        // `reconstruct` / `pbe-postprocess` child spans inside it.
        let map_span = trace.span(TraceStage::Map);
        let rebuild = |algorithm: Algorithm, config| match algorithm {
            Algorithm::DominoMap => Mapper::baseline(config),
            Algorithm::RsMap => Mapper::rearrange_stacks(config),
            Algorithm::SoiDominoMap => Mapper::soi(config),
        };
        let mut mapper = self.mapper.clone();
        let mut degrade_retried = false;
        let mut salvage_retries = 0u32;
        let result = loop {
            match mapper.run_unate(&unate) {
                Ok(result) => break result,
                Err(MapError::Unmappable { .. })
                    if self.degrade_on_unmappable && !mapper.config().degrade_unmappable =>
                {
                    // Graceful degradation: force gate boundaries at the
                    // offending nodes instead of failing the flow.
                    let mut config = *mapper.config();
                    config.degrade_unmappable = true;
                    mapper = rebuild(mapper.algorithm(), config);
                    degrade_retried = true;
                }
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
        let retried = degrade_retried;

        // Stage 4: discharge-protect — the circuit must be structurally
        // sound and every committed discharge point covered.
        {
            let _span = trace.span(TraceStage::DischargeProtect);
            result
                .circuit
                .validate()
                .map_err(|e| ctx(Stage::DischargeProtect, StageFailure::Domino(e)))?;
            let hazards = hazard::check(&result.circuit);
            if !hazards.is_empty() {
                let h = &hazards[0];
                return Err(ctx(
                    Stage::DischargeProtect,
                    StageFailure::Hazards {
                        count: hazards.len(),
                        first: format!("gate {} junction {}", h.gate, h.junction),
                    },
                ));
            }
        }

        // Stage 5: audit.
        let audit_report = match &self.audit {
            Some(cfg) => {
                let _span = trace.span(TraceStage::Audit);
                let report = audit::check_pipeline(network, &unate, &result, cfg)
                    .map_err(|e| ctx(Stage::Audit, StageFailure::Audit(e)))?;
                trace.count(Counter::AuditVectors, report.vectors_checked as u64);
                Some(report)
            }
            None => None,
        };

        // Stage 6 (opt-in): cec — SAT equivalence of the mapped circuit
        // against the source network, then the SAT PBE-safety proof.
        let cec_report = match &self.cec {
            Some(opts) => {
                let _span = trace.span(TraceStage::Cec);
                let equivalence =
                    soi_cec::check_mapped_traced(network, &result.circuit, opts, trace)
                        .map_err(|e| ctx(Stage::Cec, StageFailure::Cec(e)))?;
                match equivalence.verdict {
                    CecVerdict::Equivalent => {}
                    CecVerdict::NotEquivalent(ref cex) => {
                        return Err(ctx(Stage::Cec, StageFailure::CecMismatch(cex.clone())));
                    }
                    CecVerdict::Undecided { unproven } => {
                        return Err(ctx(Stage::Cec, StageFailure::CecUnproven { unproven }));
                    }
                }
                let safety = soi_cec::verify_safe_sat_traced(
                    &result.circuit,
                    &InputConstraints::none(),
                    opts.output_conflict_budget,
                    trace,
                );
                if !safety.safe {
                    let first = safety
                        .first_flagged
                        .as_ref()
                        .map(|(g, j)| format!("gate {g} junction {j}"))
                        .unwrap_or_else(|| "<unknown>".to_string());
                    return Err(ctx(
                        Stage::Cec,
                        StageFailure::CecUnsafe {
                            count: safety.excitable + safety.unknown,
                            first,
                        },
                    ));
                }
                Some(CecVerification {
                    equivalence,
                    safety,
                })
            }
            None => None,
        };

        let degraded = retried || result.is_degraded();
        Ok(PipelineReport {
            unate,
            result,
            degraded,
            salvage_retries,
            audit: audit_report,
            cec: cec_report,
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
    use soi_mapper::MapConfig;
    use soi_netlist::NodeId;

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
        assert!(!report.degraded);
        let audit = report.audit.expect("audit ran");
        assert!(audit.vectors_checked > 0);
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
    fn unmappable_fails_map_stage_then_degrades_when_asked() {
        let config = MapConfig {
            w_max: 1,
            h_max: 1,
            ..MapConfig::default()
        };
        let strict = Pipeline::new(Mapper::soi(config));
        let err = strict.run(&nand_or()).expect_err("h_max 1 is unmappable");
        assert_eq!(err.stage, Stage::Map);
        assert!(matches!(
            err.failure,
            StageFailure::Map(MapError::Unmappable { .. })
        ));

        let report = strict
            .with_degradation(true)
            .run(&nand_or())
            .expect("degradation recovers the flow");
        assert!(report.degraded);
        assert!(report.result.is_degraded());
        assert!(report.audit.is_some());
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
    fn traced_run_emits_stage_spans_and_audit_vectors() {
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
            TraceStage::DischargeProtect,
            TraceStage::Audit,
        ] {
            assert!(
                rec.stage_nanos(stage).is_some(),
                "missing span for {stage:?}"
            );
        }
        let audit = report.audit.expect("audit ran");
        assert_eq!(
            rec.counter(Counter::AuditVectors),
            audit.vectors_checked as u64
        );
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
        assert!(!report.degraded);
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
        assert!(report.audit.is_some());
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
    fn cec_stage_proves_a_healthy_flow_and_spans() {
        let (rec, trace) = soi_trace::Recorder::install();
        let config = MapConfig {
            trace,
            ..MapConfig::default()
        };
        let pipeline = Pipeline::new(Mapper::soi(config));
        let opts = pipeline.cec_options();
        let report = pipeline
            .with_cec(Some(opts))
            .run(&nand_or())
            .expect("pipeline passes with cec");
        let cec = report.cec.expect("cec ran");
        assert!(cec.equivalence.is_equivalent());
        assert_eq!(cec.equivalence.unproven(), 0);
        assert!(cec.safety.safe);
        assert!(rec.stage_nanos(TraceStage::Cec).is_some());
        // The equivalence and safety counters both land in the recorder.
        assert_eq!(
            rec.counter(Counter::CecSatCalls),
            cec.equivalence.sat_calls + cec.safety.sat_calls
        );
    }

    #[test]
    fn cec_stage_is_off_by_default() {
        let report = Pipeline::new(Mapper::soi(MapConfig::default()))
            .run(&nand_or())
            .expect("pipeline passes");
        assert!(report.cec.is_none());
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

    #[test]
    fn cec_stage_catches_a_corrupted_mapping() {
        // Run the normal flow, then corrupt the mapped circuit and
        // re-check it through the same stage logic via check_mapped.
        let network = nand_or();
        let pipeline = Pipeline::new(Mapper::soi(MapConfig::default()));
        let report = pipeline.run(&network).expect("clean run");
        let (circuit, witness) = crate::inject::retarget_fanin(&report.result.circuit, 7)
            .expect("mutator applies to this circuit");
        let verdict = soi_cec::check_mapped(&network, &circuit, &pipeline.cec_options())
            .expect("checker runs");
        match verdict.verdict {
            soi_cec::CecVerdict::NotEquivalent(cex) => {
                // The injected witness is itself a distinguishing input.
                let lhs = network.simulate(&witness).unwrap();
                let rhs = circuit.evaluate(&witness).unwrap();
                assert_ne!(lhs, rhs, "witness distinguishes");
                let _ = cex;
            }
            other => panic!("corruption must be caught, got {other:?}"),
        }
    }

    #[test]
    fn audit_can_be_disabled() {
        let report = Pipeline::new(Mapper::baseline(MapConfig::default()))
            .with_audit(None)
            .run(&nand_or())
            .expect("pipeline passes");
        assert!(report.audit.is_none());
    }
}
