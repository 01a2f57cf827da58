//! # soi-mapper
//!
//! Library-free technology mapping of unate logic networks into domino
//! circuits — the paper's core contribution and both baselines it compares
//! against:
//!
//! * **`Domino_Map`** ([`Mapper::baseline`]) — the Zhao–Sapatnekar
//!   (ICCAD'98) dynamic program over `{W, H, cost}` tuples, blind to the
//!   parasitic bipolar effect; pre-discharge transistors are inserted by a
//!   post-processing pass.
//! * **`RS_Map`** ([`Mapper::rearrange_stacks`]) — `Domino_Map` followed by
//!   series-stack rearrangement before discharge insertion (§VI-A).
//! * **`SOI_Domino_Map`** ([`Mapper::soi`]) — the paper's algorithm: tuples
//!   are extended with the potential-discharge-point count `p_dis`, the
//!   parallel-bottom flag `par_b`, and grounded/ungrounded costs, so the DP
//!   minimizes implementation cost *including* the discharge transistors it
//!   will need (§V).
//!
//! The mapping pipeline is [`Mapper::run`]: configuration check →
//! binate network → unate conversion (`soi-unate`) → tuple DP → gate
//! materialization → (baselines only) discharge post-processing. The check,
//! [`MapConfig::validate`], refuses shape limits below 2 and a per-node
//! candidate bound above [`MapConfig::MAX_NODE_CANDIDATES`] before any
//! work, so every admitted configuration maps every node and the DP has
//! no fallback path. Every mapped circuit is PBE-safe by construction;
//! `soi-pbe`'s hazard checker and body simulator validate this in the
//! test suite.
//!
//! The DP itself runs over the network's fanout-free cone partition — level
//! by level, with a barrier between the partition's dependency levels, when
//! [`MapConfig::parallelism`] resolves to more than one thread, and, on
//! networks of at least [`MapConfig::cone_cache_min_gates`] gates, through
//! per-worker gate memos that solve each distinct gate-over-fanin-profiles
//! step once, so repetitive netlists (array multipliers, adders) skip most
//! of their DP work. Each worker writes its nodes' candidates to solution
//! segments it owns, so the per-node path allocates nothing and shares
//! nothing but what a node reads from earlier levels. Both are pure
//! scheduling concerns: results are bit-identical across thread counts and
//! with the memo on or off.
//!
//! The whole pipeline is observable through `soi-trace`: attach a sink
//! via [`MapConfig::trace`] (e.g. a [`soi_trace::Recorder`]) to receive
//! stage spans, candidate/memo/scheduler counters and per-worker stats.
//! Instrumentation is purely observational — results are bit-identical
//! with tracing on or off, and a detached handle costs one branch per
//! emission site.
//!
//! Long runs are under **job control**: a [`CancelToken`] and a wall-clock
//! deadline ([`Limits`]) interrupt the DP cooperatively, worker panics are
//! contained per cone unit, and all three interrupts surface as typed
//! [`MapError`] variants carrying a [`PartialMapping`] — the DP solutions
//! of the completed cone units, so a resumed run
//! ([`Mapper::with_salvage`]) seeds them into its solution table and only
//! solves what was lost.
//!
//! # Example
//!
//! ```rust
//! use soi_netlist::Network;
//! use soi_mapper::{MapConfig, Mapper};
//!
//! # fn main() -> Result<(), soi_mapper::MapError> {
//! // The paper's Fig. 2(a) function: f = (a + b + c) * d.
//! let mut n = Network::new("fig2a");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let d = n.add_input("d");
//! let ab = n.or2(a, b);
//! let abc = n.or2(ab, c);
//! let f = n.and2(abc, d);
//! n.add_output("f", f);
//!
//! let baseline = Mapper::baseline(MapConfig::default()).run(&n)?;
//! let soi = Mapper::soi(MapConfig::default()).run(&n)?;
//! // The SOI mapper never needs more total transistors than the baseline.
//! assert!(soi.counts.total <= baseline.counts.total);
//! # Ok(())
//! # }
//! ```

mod arena;
mod baseline;
mod config;
mod cost;
mod dp;
mod error;
mod job;
mod map;
mod memo;
mod pages;
mod reconstruct;
mod report;
mod sched;
mod soi;
mod table;
mod tuple;

pub use config::{Algorithm, AndOrder, Footing, Limits, MapConfig, Objective, Parallelism};
pub use cost::{Cost, CostModel};
pub use error::MapError;
pub use job::{CancelToken, PartialMapping};
pub use map::Mapper;
pub use report::MappingResult;
#[doc(hidden)]
pub use sched::refuse_worker_spawns;
pub use soi_trace::TraceHandle;
pub use tuple::TupleKey;
