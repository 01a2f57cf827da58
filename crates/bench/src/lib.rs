//! # soi-bench
//!
//! The experiment harness: regenerates every table of the paper's
//! evaluation section against the benchmark stand-ins from `soi-circuits`
//! and prints the measured numbers side by side with the published ones.
//!
//! Binaries (run with `--release`; the large circuits are slow in debug):
//!
//! * `table1` — `Domino_Map` vs `RS_Map`, area objective (Table I),
//! * `table2` — `Domino_Map` vs `SOI_Domino_Map`, area objective
//!   (Table II),
//! * `table3` — `SOI_Domino_Map` under clock-transistor weights `k = 1`
//!   and `k = 2` (Table III),
//! * `table4` — depth objective (Table IV),
//! * `ablation` — the design-choice studies indexed in `DESIGN.md`,
//! * `bench` — the three CI performance gates (`--smoke`,
//!   `--corpus-smoke`, `--cec-smoke`), each pass or fail.
//!
//! Performance is measured by the repository benchmark in `perfbench/`.

pub mod harness;
pub mod paper;

pub use harness::{
    run_table1, run_table2, run_table3, run_table4, RowMeasure, RowResult, Table1Row, Table2Row,
    Table3Row, Table4Row,
};
