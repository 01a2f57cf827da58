use crate::{Algorithm, MapConfig, Objective};

/// Additive cost vector carried by every DP tuple.
///
/// * `tx` — raw transistor count (logic plus committed discharge),
/// * `wtx` — the same with clock-connected transistors weighted by `k`,
/// * `disch` — committed discharge transistors only,
/// * `level` — domino-gate levels (combines by `max`, not `+`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Cost {
    /// Raw transistors.
    pub tx: u32,
    /// Clock-weighted transistors.
    pub wtx: u32,
    /// Committed discharge transistors.
    pub disch: u32,
    /// Gate levels below (and including) the structure.
    pub level: u32,
}

impl Cost {
    /// Cost of `n` plain transistors at level 0.
    pub fn transistors(n: u32) -> Cost {
        Cost {
            tx: n,
            wtx: n,
            disch: 0,
            level: 0,
        }
    }

    /// Series/parallel combination: transistors add, levels take the max.
    #[must_use]
    pub fn combine(self, other: Cost) -> Cost {
        Cost {
            tx: self.tx + other.tx,
            wtx: self.wtx + other.wtx,
            disch: self.disch + other.disch,
            level: self.level.max(other.level),
        }
    }

    /// Adds `n` committed discharge transistors (clock-connected, weight
    /// `k`).
    #[must_use]
    pub fn with_discharge(self, n: u32, k: u32) -> Cost {
        Cost {
            tx: self.tx + n,
            wtx: self.wtx + n * k,
            disch: self.disch + n,
            level: self.level,
        }
    }
}

/// Total ordering over [`Cost`] according to the configured objective and
/// algorithm, as a lexicographic key. Lower is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    objective: Objective,
    algorithm: Algorithm,
}

impl CostModel {
    /// λ of the `SOI_Domino_Map` depth key (§VI-D): the weight of one gate
    /// level against one discharge transistor, so the DP accepts one extra
    /// level if it saves more than this many discharge transistors.
    pub const DEPTH_LEVEL_WEIGHT: u64 = 4;

    /// Builds the model for an algorithm under a configuration.
    pub fn new(config: &MapConfig, algorithm: Algorithm) -> CostModel {
        CostModel {
            objective: config.objective,
            algorithm,
        }
    }

    /// The comparison key (lower is better).
    ///
    /// * Area, `Domino_Map`/`RS_Map`: `(tx, level)` — plain transistor
    ///   minimization.
    /// * Area, `SOI_Domino_Map`: `(wtx, tx, level)` — clock-weighted cost
    ///   including committed discharges.
    /// * Depth, `Domino_Map`/`RS_Map`: `(level, tx)` — levels first.
    /// * Depth, `SOI_Domino_Map`: `(level·λ + disch, wtx, tx)` with
    ///   λ = [`DEPTH_LEVEL_WEIGHT`](CostModel::DEPTH_LEVEL_WEIGHT) — the
    ///   paper's "combination of delay and
    ///   number of discharge transistors" (§VI-D), which may trade a level
    ///   for enough discharge savings.
    pub fn key(&self, cost: &Cost) -> (u64, u64, u64) {
        match (self.objective, self.algorithm) {
            (Objective::Area, Algorithm::DominoMap | Algorithm::RsMap) => {
                (u64::from(cost.tx), u64::from(cost.level), 0)
            }
            (Objective::Area, Algorithm::SoiDominoMap) => (
                u64::from(cost.wtx),
                u64::from(cost.tx),
                u64::from(cost.level),
            ),
            (Objective::Depth, Algorithm::DominoMap | Algorithm::RsMap) => {
                (u64::from(cost.level), u64::from(cost.tx), 0)
            }
            (Objective::Depth, Algorithm::SoiDominoMap) => (
                u64::from(cost.level) * Self::DEPTH_LEVEL_WEIGHT + u64::from(cost.disch),
                u64::from(cost.wtx),
                u64::from(cost.tx),
            ),
        }
    }

    /// The comparison key packed into a single `u128` word, ordering
    /// exactly like [`key`](CostModel::key): the second and third tuple
    /// components are always `u32`-valued (they come straight from `Cost`
    /// fields), so `(a << 64) | (b << 32) | c` is order-preserving. The
    /// prune's final sort ranks every surviving candidate of a node;
    /// comparing one precomputed scalar there beats rebuilding a
    /// three-word tuple per comparison.
    pub fn packed_key(&self, cost: &Cost) -> u128 {
        let (a, b, c) = self.key(cost);
        debug_assert!(b >> 32 == 0 && c >> 32 == 0);
        (u128::from(a) << 64) | (u128::from(b) << 32) | u128::from(c)
    }

    /// Whether `a` is strictly better than `b`.
    pub fn better(&self, a: &Cost, b: &Cost) -> bool {
        self.key(a) < self.key(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MapConfig {
        MapConfig::default()
    }

    #[test]
    fn combine_adds_and_maxes() {
        let a = Cost {
            tx: 3,
            wtx: 4,
            disch: 1,
            level: 2,
        };
        let b = Cost {
            tx: 5,
            wtx: 5,
            disch: 0,
            level: 3,
        };
        let c = a.combine(b);
        assert_eq!(c.tx, 8);
        assert_eq!(c.wtx, 9);
        assert_eq!(c.disch, 1);
        assert_eq!(c.level, 3);
    }

    #[test]
    fn discharge_weighting() {
        let c = Cost::transistors(4).with_discharge(2, 3);
        assert_eq!(c.tx, 6);
        assert_eq!(c.wtx, 4 + 6);
        assert_eq!(c.disch, 2);
    }

    #[test]
    fn area_baseline_ignores_weighting() {
        let m = CostModel::new(&cfg(), Algorithm::DominoMap);
        let cheap_raw = Cost {
            tx: 5,
            wtx: 50,
            disch: 0,
            level: 9,
        };
        let heavy_raw = Cost {
            tx: 6,
            wtx: 6,
            disch: 0,
            level: 0,
        };
        assert!(m.better(&cheap_raw, &heavy_raw));
    }

    #[test]
    fn area_soi_uses_weighted() {
        let m = CostModel::new(&cfg(), Algorithm::SoiDominoMap);
        let a = Cost {
            tx: 10,
            wtx: 12,
            disch: 2,
            level: 1,
        };
        let b = Cost {
            tx: 11,
            wtx: 11,
            disch: 0,
            level: 1,
        };
        assert!(m.better(&b, &a));
    }

    #[test]
    fn depth_soi_trades_levels_for_discharges() {
        let cfg = MapConfig {
            objective: Objective::Depth,
            ..MapConfig::default()
        };
        let m = CostModel::new(&cfg, Algorithm::SoiDominoMap);
        let shallow_heavy = Cost {
            tx: 20,
            wtx: 20,
            disch: 6,
            level: 3,
        };
        let deep_light = Cost {
            tx: 22,
            wtx: 22,
            disch: 0,
            level: 4,
        };
        // 3*4+6 = 18 > 4*4+0 = 16 — the extra level wins.
        assert!(m.better(&deep_light, &shallow_heavy));
    }

    #[test]
    fn depth_baseline_is_level_lexicographic() {
        let cfg = MapConfig {
            objective: Objective::Depth,
            ..MapConfig::default()
        };
        let m = CostModel::new(&cfg, Algorithm::DominoMap);
        let a = Cost {
            tx: 100,
            wtx: 100,
            disch: 9,
            level: 3,
        };
        let b = Cost {
            tx: 5,
            wtx: 5,
            disch: 0,
            level: 4,
        };
        assert!(m.better(&a, &b));
    }
}
