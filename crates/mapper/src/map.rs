use std::sync::Arc;

use soi_netlist::Network;
use soi_trace::Stage;
use soi_unate::{convert, Options, UnateNetwork};

use crate::{
    baseline, reconstruct, soi, Algorithm, MapConfig, MapError, MappingResult, PartialMapping,
};

/// A configured technology mapper.
///
/// Construct one per algorithm with [`Mapper::baseline`],
/// [`Mapper::rearrange_stacks`] or [`Mapper::soi`], then call
/// [`Mapper::run`] on a logic network (or [`Mapper::run_unate`] on an
/// already-converted unate network).
///
/// # Example
///
/// ```rust
/// use soi_netlist::Network;
/// use soi_mapper::{MapConfig, Mapper};
///
/// # fn main() -> Result<(), soi_mapper::MapError> {
/// let mut n = Network::new("t");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let g1 = n.and2(a, b);
/// let f = n.or2(g1, c);
/// n.add_output("f", f);
///
/// let result = Mapper::soi(MapConfig::default()).run(&n)?;
/// assert_eq!(result.counts.gates, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mapper {
    algorithm: Algorithm,
    config: MapConfig,
    /// Salvage of an interrupted run to resume from, when attached.
    salvage: Option<Arc<PartialMapping>>,
}

impl Mapper {
    /// The PBE-blind `Domino_Map` baseline with discharge post-processing.
    pub fn baseline(config: MapConfig) -> Mapper {
        Mapper {
            algorithm: Algorithm::DominoMap,
            config,
            salvage: None,
        }
    }

    /// `RS_Map`: the baseline plus series-stack rearrangement before
    /// discharge insertion.
    pub fn rearrange_stacks(config: MapConfig) -> Mapper {
        Mapper {
            algorithm: Algorithm::RsMap,
            config,
            salvage: None,
        }
    }

    /// The paper's `SOI_Domino_Map`.
    pub fn soi(config: MapConfig) -> Mapper {
        Mapper {
            algorithm: Algorithm::SoiDominoMap,
            config,
            salvage: None,
        }
    }

    /// Resumes an interrupted run: the completed cone units of `partial`
    /// (from the error that interrupted it, see [`MapError::partial`]) are
    /// seeded into the DP's solution table instead of being solved, and
    /// charge the combine steps they originally cost, so the result is
    /// bit-identical to an uninterrupted run. Runs of any network,
    /// algorithm or semantic configuration other than the interrupted
    /// one's fail with [`MapError::InvalidConfig`] (see
    /// [`PartialMapping`]).
    pub fn with_salvage(mut self, partial: Arc<PartialMapping>) -> Mapper {
        self.salvage = Some(partial);
        self
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configuration.
    pub fn config(&self) -> &MapConfig {
        &self.config
    }

    /// Maps an arbitrary logic network: unate conversion, then the tuple
    /// DP, then gate materialization and discharge protection.
    ///
    /// The result's circuit carries the conversion
    /// ([`DominoCircuit::conversion`](soi_domino_ir::DominoCircuit::conversion)),
    /// so an equivalence checker can prove the mapping against it without
    /// converting the source again.
    ///
    /// # Errors
    ///
    /// Returns a [`MapError`] for invalid configurations (checked before
    /// any conversion or DP work), networks that fail validation, constant
    /// outputs, exhausted budgets, interrupts, or an attached salvage
    /// recorded for a different run.
    pub fn run(&self, network: &Network) -> Result<MappingResult, MapError> {
        self.config.validate()?;
        let unate = {
            let _span = self.config.trace.span(Stage::UnateConvert);
            convert(
                network,
                &Options {
                    output_phase: self.config.output_phase,
                },
            )?
        };
        let unate = Arc::new(unate);
        let mut result = self.run_unate(&unate)?;
        result.circuit.set_conversion(Some(unate));
        Ok(result)
    }

    /// Maps an already-unate network. The result's circuit carries no
    /// conversion: there is no source network to have converted.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::run`], minus the unate-conversion failures.
    pub fn run_unate(&self, unate: &UnateNetwork) -> Result<MappingResult, MapError> {
        self.config.validate()?;
        let salvage = self.salvage.as_deref();
        let memo = unate.stats().gates() >= self.config.cone_cache_min_gates;
        let trace = self.config.trace;
        let solution = {
            let _span = trace.span(Stage::Dp);
            match self.algorithm {
                Algorithm::DominoMap | Algorithm::RsMap => {
                    baseline::solve(unate, &self.config, salvage, memo)?
                }
                Algorithm::SoiDominoMap => soi::solve(unate, &self.config, salvage, memo)?,
            }
        };
        let attach_discharge = matches!(self.algorithm, Algorithm::SoiDominoMap);
        let mut circuit = {
            let _span = trace.span(Stage::Reconstruct);
            reconstruct::materialize(unate, &solution.table, &self.config, attach_discharge)?
        };
        match self.algorithm {
            Algorithm::DominoMap => {
                let _span = trace.span(Stage::PbePostprocess);
                soi_pbe::postprocess::insert_discharge_traced(&mut circuit, trace);
            }
            Algorithm::RsMap => {
                let _span = trace.span(Stage::PbePostprocess);
                soi_pbe::rearrange::rearrange_stacks(&mut circuit);
                soi_pbe::postprocess::insert_discharge_traced(&mut circuit, trace);
            }
            Algorithm::SoiDominoMap => {}
        }
        let counts = circuit.counts();
        let ustats = unate.stats();
        Ok(MappingResult {
            algorithm: self.algorithm,
            circuit,
            counts,
            unate_gates: ustats.gates(),
            unate_depth: ustats.depth,
            peak_candidates: solution.peak_candidates,
            threads_used: solution.threads_used,
            cone_cache_hits: solution.cache_hits,
            cone_cache_misses: solution.cache_misses,
            combine_steps: solution.combine_steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_pbe::hazard;

    fn fig2a_network() -> Network {
        let mut n = Network::new("fig2a");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let ab = n.or2(a, b);
        let abc = n.or2(ab, c);
        let f = n.and2(abc, d);
        n.add_output("f", f);
        n
    }

    #[test]
    fn all_three_mappers_are_pbe_safe() {
        let n = fig2a_network();
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::rearrange_stacks(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let result = mapper.run(&n).unwrap();
            result.circuit.validate().unwrap();
            assert!(
                hazard::is_safe(&result.circuit),
                "{:?} left hazards",
                mapper.algorithm()
            );
        }
    }

    /// `run` attaches the conversion it mapped, image table included, and
    /// `run_unate` attaches none; the circuits are the same.
    #[test]
    fn run_attaches_its_conversion() {
        let n = fig2a_network();
        for output_phase in [
            soi_unate::OutputPhase::Positive,
            soi_unate::OutputPhase::Cheapest,
        ] {
            let config = MapConfig {
                output_phase,
                ..MapConfig::default()
            };
            let unate = convert(&n, &Options { output_phase }).unwrap();
            let run = Mapper::soi(config).run(&n).unwrap();
            let from_unate = Mapper::soi(config).run_unate(&unate).unwrap();
            assert_eq!(run.circuit.conversion().map(|u| &**u), Some(&unate));
            assert!(from_unate.circuit.conversion().is_none());
            assert_eq!(run.circuit, from_unate.circuit);
        }
    }

    #[test]
    fn fig2a_discharge_counts_per_algorithm() {
        let n = fig2a_network();
        let base = Mapper::baseline(MapConfig::default()).run(&n).unwrap();
        let rs = Mapper::rearrange_stacks(MapConfig::default())
            .run(&n)
            .unwrap();
        let soi = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        // The baseline puts the OR stack on top (first operand), needing a
        // discharge transistor; RS and SOI reorder it away.
        assert_eq!(base.counts.discharge, 1);
        assert_eq!(rs.counts.discharge, 0);
        assert_eq!(soi.counts.discharge, 0);
        assert_eq!(soi.counts.total, 9);
        assert_eq!(base.counts.total, 10);
    }

    #[test]
    fn mapped_circuit_computes_the_function() {
        let n = fig2a_network();
        for mapper in [
            Mapper::baseline(MapConfig::default()),
            Mapper::soi(MapConfig::default()),
        ] {
            let result = mapper.run(&n).unwrap();
            for bits in 0..16u32 {
                let v: Vec<bool> = (0..4).map(|k| bits & (1 << k) != 0).collect();
                let want = n.simulate(&v).unwrap();
                let got = result.circuit.evaluate(&v).unwrap();
                assert_eq!(got, want, "bits {bits:04b}");
            }
        }
    }

    #[test]
    fn soi_total_never_exceeds_baseline_plus_discharge() {
        // On this example the SOI total is strictly smaller.
        let n = fig2a_network();
        let base = Mapper::baseline(MapConfig::default()).run(&n).unwrap();
        let soi = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        assert!(soi.counts.total <= base.counts.total);
    }

    #[test]
    fn dp_cost_matches_materialized_counts() {
        let n = fig2a_network();
        let soi = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        // One gate: 4 PDN + 5 overhead + 0 discharge.
        assert_eq!(soi.counts.logic, 9);
        assert_eq!(soi.counts.discharge, 0);
        assert_eq!(soi.counts.gates, 1);
        assert_eq!(soi.counts.levels, 1);
    }

    #[test]
    fn tiny_limits_are_invalid_config() {
        let n = fig2a_network();
        let unate = convert(&n, &Options::default()).unwrap();
        for (w_max, h_max) in [(0, 8), (1, 1), (1, 8), (5, 1)] {
            let config = MapConfig {
                w_max,
                h_max,
                ..MapConfig::default()
            };
            for mapper in [
                Mapper::baseline(config),
                Mapper::rearrange_stacks(config),
                Mapper::soi(config),
            ] {
                assert!(matches!(
                    mapper.run(&n),
                    Err(MapError::InvalidConfig { .. })
                ));
                assert!(matches!(
                    mapper.run_unate(&unate),
                    Err(MapError::InvalidConfig { .. })
                ));
            }
        }
    }

    #[test]
    fn gate_budget_rejects_oversized_networks() {
        let n = fig2a_network();
        let mut config = MapConfig::default();
        config.limits.max_gates = 2;
        assert!(matches!(
            Mapper::soi(config).run(&n),
            Err(MapError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn combine_budget_trips_on_small_allowance() {
        let n = fig2a_network();
        let mut config = MapConfig::default();
        config.limits.max_combine_steps = 3;
        for mapper in [Mapper::baseline(config), Mapper::soi(config)] {
            assert!(matches!(
                mapper.run(&n),
                Err(MapError::BudgetExceeded { .. })
            ));
        }
    }

    #[test]
    fn binate_network_maps_via_unate_conversion() {
        let mut n = Network::new("binate");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let f = n.nand2(x, c);
        n.add_output("f", f);
        let result = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        assert!(hazard::is_safe(&result.circuit));
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|k| bits & (1 << k) != 0).collect();
            assert_eq!(
                result.circuit.evaluate(&v).unwrap(),
                n.simulate(&v).unwrap(),
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn duplication_replicates_cheap_shared_logic() {
        let mut n = Network::new("shared");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let shared = n.and2(a, b);
        let f1 = n.or2(shared, c);
        let f2 = n.and2(shared, c);
        n.add_output("f1", f1);
        n.add_output("f2", f2);
        let plain = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        let dup = Mapper::soi(MapConfig {
            allow_duplication: true,
            ..MapConfig::default()
        })
        .run(&n)
        .unwrap();
        // Duplicating the tiny shared AND beats paying a whole gate.
        assert_eq!(plain.counts.gates, 3);
        assert_eq!(dup.counts.gates, 2);
        assert!(dup.counts.total < plain.counts.total);
        assert!(hazard::is_safe(&dup.circuit));
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|k| bits & (1 << k) != 0).collect();
            assert_eq!(
                dup.circuit.evaluate(&v).unwrap(),
                n.simulate(&v).unwrap(),
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn shared_node_becomes_one_gate() {
        let mut n = Network::new("shared");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let shared = n.and2(a, b);
        let f1 = n.or2(shared, c);
        let f2 = n.and2(shared, c);
        n.add_output("f1", f1);
        n.add_output("f2", f2);
        let result = Mapper::soi(MapConfig::default()).run(&n).unwrap();
        // shared AND forms its own gate, plus one per output = 3.
        assert_eq!(result.counts.gates, 3);
        assert_eq!(result.counts.levels, 2);
    }

    #[test]
    fn constant_output_is_a_typed_error() {
        let mut n = Network::new("stuck");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.add_const(true);
        let f = n.and2(a, b);
        n.add_output("f", f); // a real function, maps fine on its own
        n.add_output("g", one); // stuck-at-1: must be refused, not mapped
        let err = Mapper::soi(MapConfig::default()).run(&n).unwrap_err();
        assert!(
            matches!(err, MapError::ConstantOutput { ref name } if name == "g"),
            "{err}"
        );
    }
}
