use std::fmt;

use crate::DominoCircuit;

/// The transistor accounting used by every table in the paper.
///
/// * `logic` — `T_logic`: PDN transistors plus per-gate overhead (p-clock,
///   output inverter, keeper, and the n-clock of footed gates),
/// * `discharge` — `T_disch`: pmos pre-discharge transistors,
/// * `total` — `T_total = T_logic + T_disch`,
/// * `clock` — `T_clock`: clock-connected transistors (p-clocks, n-clocks
///   and pre-discharge transistors),
/// * `gates` — `#G`,
/// * `levels` — `L`, the depth in domino-gate levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransistorCounts {
    /// `T_logic`.
    pub logic: u32,
    /// `T_disch`.
    pub discharge: u32,
    /// `T_total`.
    pub total: u32,
    /// `T_clock`.
    pub clock: u32,
    /// `#G`.
    pub gates: u32,
    /// `L`.
    pub levels: u32,
}

impl TransistorCounts {
    /// Reduction of `T_disch` relative to a baseline, in percent (the
    /// paper's "Reduction in T_disch" columns). Returns 0 when the baseline
    /// has no discharge transistors.
    pub fn discharge_reduction_pct(&self, baseline: &TransistorCounts) -> f64 {
        if baseline.discharge == 0 {
            0.0
        } else {
            100.0 * (f64::from(baseline.discharge) - f64::from(self.discharge))
                / f64::from(baseline.discharge)
        }
    }

    /// Reduction of `T_total` relative to a baseline, in percent.
    pub fn total_reduction_pct(&self, baseline: &TransistorCounts) -> f64 {
        if baseline.total == 0 {
            0.0
        } else {
            100.0 * (f64::from(baseline.total) - f64::from(self.total)) / f64::from(baseline.total)
        }
    }

    /// Reduction of `T_clock` relative to a baseline, in percent.
    pub fn clock_reduction_pct(&self, baseline: &TransistorCounts) -> f64 {
        if baseline.clock == 0 {
            0.0
        } else {
            100.0 * (f64::from(baseline.clock) - f64::from(self.clock)) / f64::from(baseline.clock)
        }
    }

    /// Reduction of `L` relative to a baseline, in percent (may be negative,
    /// as in the paper's Table IV).
    pub fn level_reduction_pct(&self, baseline: &TransistorCounts) -> f64 {
        if baseline.levels == 0 {
            0.0
        } else {
            100.0 * (f64::from(baseline.levels) - f64::from(self.levels))
                / f64::from(baseline.levels)
        }
    }
}

impl fmt::Display for TransistorCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T_logic={} T_disch={} T_total={} T_clock={} #G={} L={}",
            self.logic, self.discharge, self.total, self.clock, self.gates, self.levels
        )
    }
}

pub(crate) fn collect(circuit: &DominoCircuit) -> TransistorCounts {
    let mut counts = TransistorCounts {
        gates: circuit.gate_count() as u32,
        levels: circuit.levels(),
        ..TransistorCounts::default()
    };
    for (_, gate) in circuit.iter() {
        counts.logic += gate.logic_transistors();
        counts.discharge += gate.discharge_transistors();
        counts.clock += gate.clock_transistors();
    }
    // Boundary inverters at inverted outputs are part of the logic cost.
    counts.logic += 2 * circuit.outputs().iter().filter(|o| o.inverted).count() as u32;
    counts.total = counts.logic + counts.discharge;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DominoGate, JunctionRef, Pdn, Signal};

    #[test]
    fn counts_with_discharge() {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into()]);
        let pdn = Pdn::series(vec![
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(0)),
                Pdn::transistor(Signal::input(1)),
            ]),
            Pdn::transistor(Signal::input(2)),
        ]);
        let mut gate = DominoGate::footed(pdn);
        gate.add_discharge(JunctionRef::new(0, 0));
        let g = c.add_gate(gate);
        c.add_output("f", g);
        let counts = c.counts();
        assert_eq!(counts.logic, 3 + 5);
        assert_eq!(counts.discharge, 1);
        assert_eq!(counts.total, 9);
        assert_eq!(counts.clock, 3); // p-clock + n-clock + discharge
        assert_eq!(counts.levels, 1);
    }

    #[test]
    fn reduction_percentages() {
        let base = TransistorCounts {
            logic: 100,
            discharge: 20,
            total: 120,
            clock: 30,
            gates: 10,
            levels: 8,
        };
        let ours = TransistorCounts {
            logic: 104,
            discharge: 10,
            total: 114,
            clock: 27,
            gates: 10,
            levels: 9,
        };
        assert!((ours.discharge_reduction_pct(&base) - 50.0).abs() < 1e-9);
        assert!((ours.total_reduction_pct(&base) - 5.0).abs() < 1e-9);
        assert!((ours.clock_reduction_pct(&base) - 10.0).abs() < 1e-9);
        assert!(ours.level_reduction_pct(&base) < 0.0);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let z = TransistorCounts::default();
        assert_eq!(z.discharge_reduction_pct(&z), 0.0);
        assert_eq!(z.total_reduction_pct(&z), 0.0);
    }

    #[test]
    fn inverted_output_adds_inverter() {
        let mut c = DominoCircuit::new(vec!["a".into()]);
        let g = c.add_gate(DominoGate::footed(Pdn::transistor(Signal::input(0))));
        c.bind_output("f", g, true);
        assert_eq!(c.counts().logic, 1 + 5 + 2);
    }
}
