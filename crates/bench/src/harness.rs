//! Table-regeneration harness.
//!
//! Each `run_table*` function maps the corresponding benchmark list with
//! the paper's configuration and returns per-circuit rows pairing measured
//! counts with the published ones; the `render_*` functions format them the
//! way the paper prints them, followed by a paper-vs-measured summary.
//!
//! Mapping failures never panic the harness: every table cell is a
//! [`RowResult`] carrying either the measured counts or the typed
//! [`MapError`], and a circuit that trips the shape limits is retried with
//! [`MapConfig::degrade_unmappable`] before its error is recorded. The
//! benchmark list is fanned out across scoped threads; rows come back in
//! list order.

use std::fmt::Write as _;

use soi_circuits::registry;
use soi_domino_ir::TransistorCounts;
use soi_mapper::{MapConfig, MapError, Mapper};
use soi_netlist::Network;

use crate::paper;

/// One successful mapping inside a table row.
#[derive(Debug, Clone)]
pub struct RowMeasure {
    /// The transistor accounting.
    pub counts: TransistorCounts,
    /// Whether the mapper had to relax the shape limits to finish (see
    /// `MapConfig::degrade_unmappable`).
    pub degraded: bool,
    /// Depth of the unate 2-input network (the paper's `L` column in
    /// Table IV).
    pub depth: u32,
}

/// A table cell: the measured counts, or the typed error that stopped the
/// circuit. Errors are rendered in place and excluded from averages.
pub type RowResult = Result<RowMeasure, MapError>;

/// Maps one network, retrying with graceful degradation if the strict
/// shape limits make it unmappable.
fn map_one(make: impl Fn(MapConfig) -> Mapper, config: MapConfig, network: &Network) -> RowResult {
    let first = make(config).run(network);
    let result = match first {
        Err(MapError::Unmappable { .. }) if !config.degrade_unmappable => {
            let relaxed = MapConfig {
                degrade_unmappable: true,
                ..config
            };
            make(relaxed).run(network)
        }
        other => other,
    };
    result.map(|r| RowMeasure {
        counts: r.counts,
        degraded: r.is_degraded(),
        depth: r.unate_depth,
    })
}

/// Runs `f` over every name, fanned out over scoped threads in contiguous
/// chunks (in order on this thread when the host has one). Results keep
/// input order.
fn run_rows<R: Send>(names: &[&'static str], f: impl Fn(&'static str) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(names.len())
        .max(1);
    if threads <= 1 {
        return names.iter().map(|&n| f(n)).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(names.len(), || None);
    let chunk = names.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (slots, chunk_names) in out.chunks_mut(chunk).zip(names.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, &name) in slots.iter_mut().zip(chunk_names) {
                    *slot = Some(f(name));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

fn describe(cell: &RowResult) -> String {
    match cell {
        Ok(m) if m.degraded => format!("{} [degraded]", m.counts),
        Ok(m) => m.counts.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// A measured Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured `Domino_Map` counts.
    pub base: RowResult,
    /// Measured `RS_Map` counts.
    pub rs: RowResult,
}

/// Maps the Table I benchmark list with `Domino_Map` and `RS_Map`.
pub fn run_table1() -> Vec<Table1Row> {
    let config = MapConfig::default();
    run_rows(registry::TABLE1, |name| {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = map_one(Mapper::baseline, config, &network);
        let rs = map_one(Mapper::rearrange_stacks, config, &network);
        eprintln!("  {name}: base {} / rs {}", describe(&base), describe(&rs));
        Table1Row { name, base, rs }
    })
}

/// A measured Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured `Domino_Map` counts.
    pub base: RowResult,
    /// Measured `SOI_Domino_Map` counts.
    pub soi: RowResult,
}

/// Maps the Table II benchmark list with `Domino_Map` and
/// `SOI_Domino_Map`.
pub fn run_table2() -> Vec<Table2Row> {
    let config = MapConfig::default();
    run_rows(registry::TABLE2, |name| {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = map_one(Mapper::baseline, config, &network);
        let soi = map_one(Mapper::soi, config, &network);
        eprintln!(
            "  {name}: base {} / soi {}",
            describe(&base),
            describe(&soi)
        );
        Table2Row { name, base, soi }
    })
}

/// A measured Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured counts at `k = 1`.
    pub k1: RowResult,
    /// Measured counts at `k = 2`.
    pub k2: RowResult,
}

/// Maps the Table III benchmark list with `SOI_Domino_Map` at clock
/// weights 1 and 2.
pub fn run_table3() -> Vec<Table3Row> {
    run_rows(registry::TABLE3, |name| {
        let network = registry::benchmark(name).expect("registered benchmark");
        let k1 = map_one(Mapper::soi, MapConfig::with_clock_weight(1), &network);
        let k2 = map_one(Mapper::soi, MapConfig::with_clock_weight(2), &network);
        eprintln!("  {name}: k1 {} / k2 {}", describe(&k1), describe(&k2));
        Table3Row { name, k1, k2 }
    })
}

/// A measured Table IV row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured `Domino_Map` counts under the depth objective (its
    /// [`RowMeasure::depth`] is the paper's `L` column).
    pub base: RowResult,
    /// Measured `SOI_Domino_Map` counts under the depth objective.
    pub soi: RowResult,
}

/// Maps the Table IV benchmark list under the depth objective.
pub fn run_table4() -> Vec<Table4Row> {
    let config = MapConfig::depth();
    run_rows(registry::TABLE4, |name| {
        let network = registry::benchmark(name).expect("registered benchmark");
        let base = map_one(Mapper::baseline, config, &network);
        let soi = map_one(Mapper::soi, config, &network);
        eprintln!(
            "  {name}: base {} / soi {}",
            describe(&base),
            describe(&soi)
        );
        Table4Row { name, base, soi }
    })
}

fn pct(old: u32, new: u32) -> f64 {
    if old == 0 {
        0.0
    } else {
        100.0 * (f64::from(old) - f64::from(new)) / f64::from(old)
    }
}

/// Writes the standard error line for a row whose mapping failed.
fn render_error_row(out: &mut String, name: &str, row: &RowResult, other: &RowResult) {
    let msg = match (row, other) {
        (Err(e), _) => e.to_string(),
        (_, Err(e)) => e.to_string(),
        _ => unreachable!("render_error_row called on an all-Ok row"),
    };
    let _ = writeln!(out, "{name:<8} | unmapped: {msg}");
}

/// Formats Table I with the paper's columns and a comparison footer.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — Domino_Map vs RS_Map (area objective, W≤5, H≤8)"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>8} {:>8} | paper",
        "circuit", "Tlogic", "Tdisch", "Ttotal", "Tlogic", "Tdisch", "Ttotal", "dDisch%", "dTotal%"
    );
    let mut disch_sum = 0.0;
    let mut total_sum = 0.0;
    let mut ok_rows = 0usize;
    for row in rows {
        let (base, rs) = match (&row.base, &row.rs) {
            (Ok(base), Ok(rs)) => (base, rs),
            _ => {
                render_error_row(&mut out, row.name, &row.base, &row.rs);
                continue;
            }
        };
        let dd = pct(base.counts.discharge, rs.counts.discharge);
        let dt = pct(base.counts.total, rs.counts.total);
        disch_sum += dd;
        total_sum += dt;
        ok_rows += 1;
        let paper = paper::TABLE1.iter().find(|p| p.name == row.name);
        let paper_txt = paper
            .map(|p| format!("{}+{} → {}+{}", p.base.0, p.base.1, p.rs.0, p.rs.1))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<8} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>8.2} {:>8.2} | {}",
            row.name,
            base.counts.logic,
            base.counts.discharge,
            base.counts.total,
            rs.counts.logic,
            rs.counts.discharge,
            rs.counts.total,
            dd,
            dt,
            paper_txt
        );
    }
    let n = ok_rows.max(1) as f64;
    let _ = writeln!(
        out,
        "Average: dDisch {:.2}% (paper {:.2}%), dTotal {:.2}% (paper {:.2}%)",
        disch_sum / n,
        paper::TABLE1_AVG.0,
        total_sum / n,
        paper::TABLE1_AVG.1
    );
    out
}

/// Formats Table II with the paper's columns and a comparison footer.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — Domino_Map vs SOI_Domino_Map (area objective, W≤5, H≤8)"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>8} {:>8} | paper",
        "circuit", "Tlogic", "Tdisch", "Ttotal", "Tlogic", "Tdisch", "Ttotal", "dDisch%", "dTotal%"
    );
    let mut disch_sum = 0.0;
    let mut total_sum = 0.0;
    let mut ok_rows = 0usize;
    for row in rows {
        let (base, soi) = match (&row.base, &row.soi) {
            (Ok(base), Ok(soi)) => (base, soi),
            _ => {
                render_error_row(&mut out, row.name, &row.base, &row.soi);
                continue;
            }
        };
        let dd = pct(base.counts.discharge, soi.counts.discharge);
        let dt = pct(base.counts.total, soi.counts.total);
        disch_sum += dd;
        total_sum += dt;
        ok_rows += 1;
        let paper = paper::TABLE2.iter().find(|p| p.name == row.name);
        let paper_txt = paper
            .map(|p| format!("{}+{} → {}+{}", p.base.0, p.base.1, p.soi.0, p.soi.1))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<8} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>8.2} {:>8.2} | {}",
            row.name,
            base.counts.logic,
            base.counts.discharge,
            base.counts.total,
            soi.counts.logic,
            soi.counts.discharge,
            soi.counts.total,
            dd,
            dt,
            paper_txt
        );
    }
    let n = ok_rows.max(1) as f64;
    let _ = writeln!(
        out,
        "Average: dDisch {:.2}% (paper {:.2}%), dTotal {:.2}% (paper {:.2}%)",
        disch_sum / n,
        paper::TABLE2_AVG.0,
        total_sum / n,
        paper::TABLE2_AVG.1
    );
    out
}

/// Formats Table III with the paper's columns and a comparison footer.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III — SOI_Domino_Map under clock-transistor weights k=1 / k=2"
    );
    let _ =
        writeln!(
        out,
        "{:<8} | {:>6} {:>6} {:>6} {:>4} {:>6} | {:>6} {:>6} {:>6} {:>4} {:>6} | {:>8} | paper%",
        "circuit", "Tlog", "Tdis", "Ttot", "#G", "Tclk", "Tlog", "Tdis", "Ttot", "#G", "Tclk",
        "dTclk%"
    );
    let mut imp_sum = 0.0;
    let mut ok_rows = 0usize;
    for row in rows {
        let (k1, k2) = match (&row.k1, &row.k2) {
            (Ok(k1), Ok(k2)) => (k1, k2),
            _ => {
                render_error_row(&mut out, row.name, &row.k1, &row.k2);
                continue;
            }
        };
        let imp = pct(k1.counts.clock, k2.counts.clock);
        imp_sum += imp;
        ok_rows += 1;
        let paper = paper::TABLE3.iter().find(|p| p.name == row.name);
        let _ =
            writeln!(
            out,
            "{:<8} | {:>6} {:>6} {:>6} {:>4} {:>6} | {:>6} {:>6} {:>6} {:>4} {:>6} | {:>8.2} | {}",
            row.name,
            k1.counts.logic,
            k1.counts.discharge,
            k1.counts.total,
            k1.counts.gates,
            k1.counts.clock,
            k2.counts.logic,
            k2.counts.discharge,
            k2.counts.total,
            k2.counts.gates,
            k2.counts.clock,
            imp,
            paper.map(|p| format!("{:.2}", p.improvement)).unwrap_or_default()
        );
    }
    let n = ok_rows.max(1) as f64;
    let _ = writeln!(
        out,
        "Average T_clock improvement: {:.2}% (paper {:.2}%)",
        imp_sum / n,
        paper::TABLE3_AVG
    );
    out
}

/// Formats Table IV with the paper's columns and a comparison footer.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table IV — depth objective");
    let _ = writeln!(
        out,
        "{:<8} {:>4} | {:>6} {:>6} {:>6} {:>3} | {:>6} {:>6} {:>6} {:>3} | {:>8} {:>7} | paper L",
        "circuit", "L", "Tlog", "Tdis", "Ttot", "L", "Tlog", "Tdis", "Ttot", "L", "dDisch%", "dL%"
    );
    let mut disch_sum = 0.0;
    let mut level_sum = 0.0;
    let mut ok_rows = 0usize;
    for row in rows {
        let (base, soi) = match (&row.base, &row.soi) {
            (Ok(base), Ok(soi)) => (base, soi),
            _ => {
                render_error_row(&mut out, row.name, &row.base, &row.soi);
                continue;
            }
        };
        let dd = pct(base.counts.discharge, soi.counts.discharge);
        let dl = pct(base.counts.levels, soi.counts.levels);
        disch_sum += dd;
        level_sum += dl;
        ok_rows += 1;
        let paper = paper::TABLE4.iter().find(|p| p.name == row.name);
        let _ = writeln!(
            out,
            "{:<8} {:>4} | {:>6} {:>6} {:>6} {:>3} | {:>6} {:>6} {:>6} {:>3} | {:>8.2} {:>7.2} | {}",
            row.name,
            base.depth,
            base.counts.logic,
            base.counts.discharge,
            base.counts.total,
            base.counts.levels,
            soi.counts.logic,
            soi.counts.discharge,
            soi.counts.total,
            soi.counts.levels,
            dd,
            dl,
            paper
                .map(|p| format!("{} → {}", p.base.3, p.soi.3))
                .unwrap_or_default()
        );
    }
    let n = ok_rows.max(1) as f64;
    let _ = writeln!(
        out,
        "Average: dDisch {:.2}% (paper {:.2}%), dL {:.2}% (paper {:.2}%)",
        disch_sum / n,
        paper::TABLE4_AVG.0,
        level_sum / n,
        paper::TABLE4_AVG.1
    );
    out
}

/// Average discharge-reduction percentage of a measured Table II run —
/// the paper's headline number (53%). Rows that failed to map are
/// excluded.
pub fn table2_average_discharge_reduction(rows: &[Table2Row]) -> f64 {
    let oks: Vec<f64> = rows
        .iter()
        .filter_map(|r| match (&r.base, &r.soi) {
            (Ok(base), Ok(soi)) => Some(pct(base.counts.discharge, soi.counts.discharge)),
            _ => None,
        })
        .collect();
    oks.iter().sum::<f64>() / (oks.len().max(1) as f64)
}

/// Average discharge-reduction percentage of a measured Table I run (the
/// paper reports 25.4%). Rows that failed to map are excluded.
pub fn table1_average_discharge_reduction(rows: &[Table1Row]) -> f64 {
    let oks: Vec<f64> = rows
        .iter()
        .filter_map(|r| match (&r.base, &r.rs) {
            (Ok(base), Ok(rs)) => Some(pct(base.counts.discharge, rs.counts.discharge)),
            _ => None,
        })
        .collect();
    oks.iter().sum::<f64>() / (oks.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_mapper::Algorithm;

    fn measure(counts: TransistorCounts) -> RowResult {
        Ok(RowMeasure {
            counts,
            degraded: false,
            depth: 2,
        })
    }

    /// A miniature version of the table pipeline on the three smallest
    /// benchmarks, checking the qualitative shape without the cost of a
    /// full run (the binaries do that).
    #[test]
    fn small_circuit_shape() {
        let config = MapConfig::default();
        for name in ["cm150", "mux", "z4ml"] {
            let network = registry::benchmark(name).unwrap();
            let base = Mapper::baseline(config).run(&network).unwrap();
            let rs = Mapper::rearrange_stacks(config).run(&network).unwrap();
            let soi = Mapper::soi(config).run(&network).unwrap();
            assert_eq!(base.algorithm, Algorithm::DominoMap);
            assert!(
                rs.counts.discharge <= base.counts.discharge,
                "{name}: RS worse than baseline"
            );
            assert!(
                soi.counts.discharge <= rs.counts.discharge,
                "{name}: SOI worse than RS"
            );
            assert!(
                soi.counts.total <= base.counts.total,
                "{name}: SOI total worse than baseline"
            );
        }
    }

    #[test]
    fn renderers_include_every_circuit() {
        let rows = vec![Table1Row {
            name: "cm150",
            base: measure(TransistorCounts {
                logic: 76,
                discharge: 31,
                total: 107,
                clock: 41,
                gates: 5,
                levels: 2,
            }),
            rs: measure(TransistorCounts {
                logic: 76,
                discharge: 0,
                total: 76,
                clock: 10,
                gates: 5,
                levels: 2,
            }),
        }];
        let text = render_table1(&rows);
        assert!(text.contains("cm150"));
        assert!(text.contains("100.00"));
        assert!(text.contains("paper 25.41"));
    }

    #[test]
    fn renderers_survive_and_mark_error_rows() {
        let ok_counts = TransistorCounts {
            logic: 10,
            discharge: 4,
            total: 14,
            clock: 3,
            gates: 2,
            levels: 1,
        };
        let rows = vec![
            Table2Row {
                name: "good",
                base: measure(ok_counts),
                soi: measure(ok_counts),
            },
            Table2Row {
                name: "bad",
                base: measure(ok_counts),
                soi: Err(MapError::Unmappable {
                    what: "node 7 exceeds H_max".into(),
                }),
            },
        ];
        let text = render_table2(&rows);
        assert!(text.contains("good"));
        assert!(text.contains("bad"));
        assert!(text.contains("unmapped: no feasible tuple"));
        // The failed row contributes nothing to the average (0% change on
        // the identical good row).
        assert_eq!(table2_average_discharge_reduction(&rows), 0.0);
    }

    #[test]
    fn averages_of_all_error_rows_are_zero_not_nan() {
        let rows = vec![Table1Row {
            name: "bad",
            base: Err(MapError::InvalidConfig { what: "w".into() }),
            rs: Err(MapError::InvalidConfig { what: "w".into() }),
        }];
        assert_eq!(table1_average_discharge_reduction(&rows), 0.0);
        let text = render_table1(&rows);
        assert!(text.contains("unmapped"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn row_runner_keeps_input_order() {
        let names = registry::TABLE2;
        let sequential: Vec<(&str, usize)> = names.iter().map(|&n| (n, n.len())).collect();
        assert_eq!(run_rows(names, |n| (n, n.len())), sequential);
    }

    #[test]
    fn map_one_retries_unmappable_with_degradation() {
        // No 2-input node fits W≤1, H≤1; the harness must come back with
        // a degraded measurement instead of an error.
        let network = registry::benchmark("mux").unwrap();
        let config = MapConfig {
            w_max: 1,
            h_max: 1,
            ..MapConfig::default()
        };
        let row = map_one(Mapper::soi, config, &network);
        match row {
            Ok(m) => assert!(m.degraded, "expected the degraded retry to be recorded"),
            Err(e) => panic!("expected degraded success, got {e}"),
        }
    }

    #[test]
    fn pct_handles_zero_baseline() {
        assert_eq!(pct(0, 5), 0.0);
        assert_eq!(pct(10, 5), 50.0);
    }
}
