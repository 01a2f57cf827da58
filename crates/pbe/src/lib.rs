//! # soi-pbe
//!
//! Parasitic Bipolar Effect (PBE) analysis for SOI domino circuits.
//!
//! In partially-depleted SOI, the body of an nmos transistor floats. When a
//! device sits *off* with both source and drain high for a while, its body
//! charges up; if the source is then yanked low (by the evaluate clock or an
//! input), the body-source junction forward-biases and the lateral parasitic
//! bipolar transistor conducts — discharging the dynamic node of a domino
//! gate and producing a wrong `1` at its output (§III-B of the paper).
//!
//! This crate provides the complete toolbox around that effect:
//!
//! * [`points`] — the *potential discharge point* calculus over pull-down
//!   networks: which internal junctions can float high and must be tied low
//!   by pmos pre-discharge transistors (the paper's `p_dis`/`par_b`
//!   bookkeeping, applied to concrete structures);
//! * [`postprocess`] — the bulk-CMOS-style flow: insert discharge
//!   transistors into an already-mapped circuit (used by the `Domino_Map`
//!   baseline);
//! * [`rearrange`] — the `RS_Map` transformation: reorder series stacks to
//!   move parallel sections toward ground before inserting discharge
//!   transistors;
//! * [`hazard`] — a static checker that a circuit's discharge set actually
//!   covers every PBE-susceptible node;
//! * [`excite`] — the §VII extension's input constraints (one-hot groups,
//!   tied-off pins) and a bounded exact oracle for whether a junction can
//!   see the charge-then-yank sequence under them; `soi-cec` proves the
//!   same question by SAT for whole circuits and prunes by it;
//! * [`bodysim`] — a two-phase switch-level simulator with per-transistor
//!   floating-body state that *demonstrates* the mis-evaluation dynamically
//!   and validates that protected circuits do not exhibit it.
//!
//! # Example
//!
//! ```rust
//! use soi_domino_ir::{Pdn, Signal};
//! use soi_pbe::points;
//!
//! // (A*B + C): the junction between A and B is a potential discharge
//! // point (paper Fig. 4a).
//! let pdn = Pdn::parallel(vec![
//!     Pdn::series(vec![
//!         Pdn::transistor(Signal::input(0)),
//!         Pdn::transistor(Signal::input(1)),
//!     ]),
//!     Pdn::transistor(Signal::input(2)),
//! ]);
//! let analysis = points::analyze(&pdn);
//! assert_eq!(analysis.potential.len(), 1);
//! assert!(analysis.par_b);
//! assert!(analysis.committed.is_empty());
//! ```

pub mod bodysim;
mod error;
pub mod excite;
pub mod hazard;
pub mod points;
pub mod postprocess;
pub mod rearrange;

pub use error::PbeError;
pub use points::PointAnalysis;
