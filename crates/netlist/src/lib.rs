//! # soi-netlist
//!
//! Gate-level logic network substrate for the SOI domino technology-mapping
//! flow. A [`Network`] is a directed acyclic graph of two-input logic gates,
//! inverters and buffers over a set of named primary inputs and outputs.
//!
//! This crate provides:
//!
//! * the network data model ([`Network`], [`Node`], [`NodeId`]) and a
//!   validity checker ([`Network::validate`]),
//! * construction helpers ([`builder::NetworkBuilder`] and the gate methods
//!   on [`Network`]),
//! * topological traversal ([`topo`]), logic cones ([`cone`]) and structural
//!   statistics ([`stats`]),
//! * functional simulation, both single-vector and batched 64-way bit-parallel
//!   ([`sim`]),
//! * a BLIF-subset reader/writer ([`blif`]), an AIGER reader/writer for
//!   ASCII `.aag` and binary `.aig` and-inverter graphs ([`aiger`]), and
//!   DOT export ([`dot`]).
//!
//! # Example
//!
//! ```rust
//! use soi_netlist::Network;
//!
//! # fn main() -> Result<(), soi_netlist::NetworkError> {
//! let mut n = Network::new("majority");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let ab = n.and2(a, b);
//! let bc = n.and2(b, c);
//! let ca = n.and2(c, a);
//! let t = n.or2(ab, bc);
//! let maj = n.or2(t, ca);
//! n.add_output("maj", maj);
//! n.validate()?;
//! assert_eq!(n.simulate(&[true, true, false])?, vec![true]);
//! # Ok(())
//! # }
//! ```

pub mod aiger;
pub mod blif;
pub mod builder;
pub mod cone;
pub mod dot;
mod error;
pub mod fx;
mod id;
pub mod intern;
mod network;
mod node;
pub mod restructure;
pub mod sim;
pub mod stats;
pub mod topo;

pub use error::NetworkError;
pub use fx::{FxHashMap, FxHashSet};
pub use id::NodeId;
pub use intern::{Sym, SymbolTable};
pub use network::{Network, OutputPort};
pub use node::{BinOp, Node, UnOp};
pub use sim::SimError;
pub use stats::NetworkStats;
