//! # soi-domino-ir
//!
//! Transistor-level model of domino logic circuits — the output
//! representation of the technology mappers and the unit of measurement for
//! every table in the paper.
//!
//! The central types are:
//!
//! * [`Pdn`] — a pull-down network: a series/parallel tree of nmos
//!   transistors, each driven by a [`Signal`] (a primary-input literal or
//!   another gate's output), packed as pre-order [`PdnWord`]s and read
//!   through [`PdnRef`] views;
//! * [`DominoGate`] — a PDN plus its peripheral transistors (precharge
//!   p-clock, optional foot n-clock, keeper, output inverter) and the pmos
//!   pre-discharge transistors attached to internal nets;
//! * [`DominoCircuit`] — a network of domino gates with named primary
//!   outputs, all of whose PDN words live in one array and whose gates
//!   are read as [`GateRef`] views;
//! * [`TransistorCounts`] — the `T_logic` / `T_disch` / `T_total` /
//!   `T_clock` / `#G` / `L` accounting used throughout the paper's
//!   evaluation.
//!
//! # Example
//!
//! Build the paper's running example `(A + B + C) * D` (Fig. 2a) by hand:
//!
//! ```rust
//! use soi_domino_ir::{DominoCircuit, DominoGate, Pdn, Signal};
//!
//! let mut c = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into(), "d".into()]);
//! let pdn = Pdn::series(vec![
//!     Pdn::parallel(vec![
//!         Pdn::transistor(Signal::input(0)),
//!         Pdn::transistor(Signal::input(1)),
//!         Pdn::transistor(Signal::input(2)),
//!     ]),
//!     Pdn::transistor(Signal::input(3)),
//! ]);
//! let g = c.add_gate(DominoGate::footed(pdn));
//! c.add_output("f", g);
//! let counts = c.counts();
//! assert_eq!(counts.logic, 4 + 5); // 4 pdn transistors + 5 overhead
//! assert_eq!(counts.gates, 1);
//! ```

mod circuit;
mod count;
mod error;
pub mod export;
mod gate;
mod pdn;
pub mod timing;

pub use circuit::{DominoCircuit, GateId, OutputBinding};
pub use count::TransistorCounts;
pub use error::DominoError;
pub use gate::{DominoGate, GateRef};
pub use pdn::{
    Children, JunctionRef, NetId, Pdn, PdnGraph, PdnNode, PdnRef, PdnTransistor, PdnWord, Phase,
    Signal,
};
