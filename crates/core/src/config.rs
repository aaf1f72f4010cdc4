//! Evolution configuration.

use cdp_metrics::ScoreAggregator;

use crate::{EvoError, Result};

/// Island-model knobs shared by both optimizers: how many islands a run
/// splits into and how they exchange members (see [`crate::islands`] for
/// the scheduler and its determinism contract). The default (`count` = 1)
/// is the legacy single-population run, bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandConfig {
    /// Number of islands `K`; `1` disables the island machinery entirely.
    pub count: usize,
    /// Generations between migration barriers `M`.
    pub migration_interval: usize,
    /// Members each island exports per migration; `0` disables migration
    /// (islands still run independently and merge at the end).
    pub migration_size: usize,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            count: 1,
            migration_interval: 10,
            migration_size: 2,
        }
    }
}

impl IslandConfig {
    /// Validate ranges (at least one island, a positive migration
    /// interval).
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.count == 0 {
            return Err(EvoError::InvalidConfig(
                "islands count must be at least 1".into(),
            ));
        }
        if self.migration_interval == 0 {
            return Err(EvoError::InvalidConfig(
                "migration_interval must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The knobs of Algorithm 1 plus the island split.
///
/// Selection (score-proportional, Eq. 3), the leader group `Nb` and the
/// parent–child crowding pairing are fixed: the paper gives one of each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvoConfig {
    /// RNG seed; the whole run is deterministic given seed + population.
    pub seed: u64,
    /// Fitness aggregator (the paper's Eq. 1 `Mean` or Eq. 2 `Max`).
    pub aggregator: ScoreAggregator,
    /// Probability of a mutation generation (vs crossover); 0.5 in the
    /// paper.
    pub mutation_rate: f64,
    /// Iteration budget: the paper leaves `stopping(P(t))` abstract; the
    /// loop runs exactly this many generations.
    pub iterations: usize,
    /// Island-model split (see [`crate::islands`]); the default single
    /// island runs the legacy loop untouched.
    pub islands: IslandConfig,
}

impl Default for EvoConfig {
    fn default() -> Self {
        EvoConfig {
            seed: 0,
            aggregator: ScoreAggregator::Max,
            mutation_rate: 0.5,
            iterations: 1000,
            islands: IslandConfig::default(),
        }
    }
}

impl EvoConfig {
    /// Start a builder from the defaults.
    pub fn builder() -> EvoConfigBuilder {
        EvoConfigBuilder {
            cfg: EvoConfig::default(),
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(EvoError::InvalidConfig(format!(
                "mutation_rate must lie in [0,1], got {}",
                self.mutation_rate
            )));
        }
        if self.iterations == 0 {
            return Err(EvoError::InvalidConfig(
                "iterations must be at least 1".into(),
            ));
        }
        self.islands.validate()?;
        Ok(())
    }
}

/// Fluent builder for [`EvoConfig`].
#[derive(Debug, Clone)]
pub struct EvoConfigBuilder {
    cfg: EvoConfig,
}

impl EvoConfigBuilder {
    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Fitness aggregator.
    pub fn aggregator(mut self, agg: ScoreAggregator) -> Self {
        self.cfg.aggregator = agg;
        self
    }

    /// Iteration budget.
    pub fn iterations(mut self, n: usize) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Probability of a mutation generation.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.cfg.mutation_rate = rate;
        self
    }

    /// Number of islands (`1`, the default, = the legacy single loop).
    pub fn islands(mut self, k: usize) -> Self {
        self.cfg.islands.count = k;
        self
    }

    /// Generations between migration barriers.
    pub fn migration_interval(mut self, m: usize) -> Self {
        self.cfg.islands.migration_interval = m;
        self
    }

    /// Members each island exports per migration (`0` = no migration).
    pub fn migration_size(mut self, s: usize) -> Self {
        self.cfg.islands.migration_size = s;
        self
    }

    /// Finish. Panics on invalid ranges (builder misuse is a programming
    /// error); use [`EvoConfig::validate`] for data-driven configs.
    pub fn build(self) -> EvoConfig {
        self.cfg
            .validate()
            .unwrap_or_else(|e| panic!("invalid EvoConfig: {e}"));
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        assert_eq!(EvoConfig::default().islands, IslandConfig::default());
        assert_eq!(IslandConfig::default().count, 1);
        let cfg = EvoConfig::builder()
            .seed(42)
            .aggregator(ScoreAggregator::Mean)
            .iterations(123)
            .mutation_rate(0.7)
            .islands(4)
            .migration_interval(25)
            .migration_size(3)
            .build();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.aggregator, ScoreAggregator::Mean);
        assert_eq!(cfg.iterations, 123);
        assert_eq!(cfg.mutation_rate, 0.7);
        assert_eq!(cfg.islands.count, 4);
        assert_eq!(cfg.islands.migration_interval, 25);
        assert_eq!(cfg.islands.migration_size, 3);
    }

    #[test]
    fn validate_rejects_bad_island_configs() {
        let mut cfg = EvoConfig::default();
        cfg.islands.count = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = EvoConfig::default();
        cfg.islands.migration_interval = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid EvoConfig")]
    fn builder_panics_on_bad_rate() {
        let _ = EvoConfig::builder().mutation_rate(1.5).build();
    }

    #[test]
    fn validate_rejects_zero_iterations() {
        let cfg = EvoConfig {
            iterations: 0,
            ..EvoConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
