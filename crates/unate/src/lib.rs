//! # soi-unate
//!
//! Binate-to-unate network conversion — the front end of the domino mapping
//! flow (§IV of the paper).
//!
//! Domino logic is monotonic: gate outputs can only rise during evaluation,
//! so only *unate* (inverter-free) networks of AND/OR gates can be mapped.
//! This crate converts an arbitrary [`Network`](soi_netlist::Network) into a
//! [`UnateNetwork`] by the paper's bubble-pushing recipe: inverters are
//! pushed toward the primary inputs with De Morgan's laws, duplicating logic
//! where both phases of an internal signal are required. Inversions survive
//! only at the boundary, as input literals ([`Literal`]) and optional
//! output-side inverters.
//!
//! # Example
//!
//! ```rust
//! use soi_netlist::Network;
//! use soi_unate::{convert, Options};
//!
//! # fn main() -> Result<(), soi_unate::UnateError> {
//! // f = !(a & b) | c — binate in a and b.
//! let mut n = Network::new("t");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let g = n.nand2(a, b);
//! let f = n.or2(g, c);
//! n.add_output("f", f);
//!
//! let u = convert(&n, &Options::default())?;
//! assert!(u.is_inverter_free());
//! assert_eq!(soi_netlist::sim::exhaustive_equivalent(&n, &u.to_network()), Ok(true));
//! # Ok(())
//! # }
//! ```
//!
//! [`UnateNetwork::to_network`] lowers the result back to a netlist, so
//! any netlist equivalence check applies: `sim::exhaustive_equivalent`
//! on small networks, as above, and `soi_cec::check_networks` at scale.

mod convert;
mod error;
mod network;

pub use convert::{convert, convert_in_phases, Options, OutputPhase};
pub use error::UnateError;
pub use network::{
    ConePartition, ConeUnit, Literal, Phase, UId, UNode, USignal, UnateNetwork, UnateOutput,
    UnateStats, Units,
};
