//! # soi-guard
//!
//! Hardening layer for the SOI domino technology-mapping flow: everything
//! needed to *trust* a mapping, and to prove that corrupted inputs cannot
//! slip through it silently.
//!
//! Three pieces:
//!
//! * [`pipeline`] — a staged runner (`netlist-validate → unate-convert →
//!   map → audit`) whose failures all surface as one typed
//!   [`StageError`], naming the stage and wrapping the underlying crate
//!   error. Every run is audited. Optional graceful degradation retries an
//!   `Unmappable` mapping with forced gate boundaries, and optional
//!   salvage retries resume an interrupted map stage.
//! * [`audit`] — the cross-stage check [`check_pipeline`]: circuit
//!   structural validity, worst-case PBE coverage, transistor-accounting
//!   consistency, and a proof that the mapped circuit computes the source
//!   netlist's function ([`soi_cec::check_mapped`]: the mapping's
//!   certificate, or the SAT sweep when that fails). Nothing is sampled.
//! * [`inject`] — a seeded fault-injection harness: deterministic mutators
//!   that corrupt each intermediate representation (netlist graphs, BLIF
//!   bytes, domino circuits) so the test suite can assert that every
//!   corruption is caught by a typed error or by the audit — never by a
//!   panic, and never silently.
//!
//! # Example
//!
//! ```rust
//! use soi_guard::{Pipeline, StageError};
//! use soi_mapper::{MapConfig, Mapper};
//! use soi_netlist::Network;
//!
//! # fn main() -> Result<(), StageError> {
//! let mut n = Network::new("t");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.nand2(a, b);
//! n.add_output("f", g);
//!
//! let report = Pipeline::new(Mapper::soi(MapConfig::default())).run(&n)?;
//! assert!(report.cec.is_equivalent()); // the audit proved the mapping
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod inject;
pub mod pipeline;

pub use audit::{check_partial, check_pipeline, AuditError};
pub use pipeline::{Pipeline, PipelineReport, Stage, StageError, StageFailure};
