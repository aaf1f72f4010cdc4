//! Evolution configuration.

use cdp_metrics::ScoreAggregator;

use crate::adaptive::OperatorSchedule;
use crate::replacement::ReplacementPolicy;
use crate::selection::SelectionWeighting;
use crate::stop::StopCondition;
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

/// All knobs of Algorithm 1 plus this implementation's extensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvoConfig {
    /// RNG seed; the whole run is deterministic given seed + population.
    pub seed: u64,
    /// Fitness aggregator (the paper's Eq. 1 `Mean` or Eq. 2 `Max`).
    pub aggregator: ScoreAggregator,
    /// Probability of a mutation generation (vs crossover); 0.5 in the
    /// paper. The starting rate when `operator_schedule` is adaptive.
    pub mutation_rate: f64,
    /// Fixed rate (paper) or adaptive pursuit (extension).
    pub operator_schedule: OperatorSchedule,
    /// Leader-group size `Nb` as a fraction of the population (`Nb =
    /// max(2, ⌈N·f⌉)`); the paper leaves `Nb` unspecified.
    pub leader_fraction: f64,
    /// Resolution of the Eq. 3 ambiguity.
    pub selection: SelectionWeighting,
    /// Crossover offspring/parent pairing.
    pub replacement: ReplacementPolicy,
    /// Termination.
    pub stop: StopCondition,
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
            operator_schedule: OperatorSchedule::Fixed,
            leader_fraction: 0.1,
            selection: SelectionWeighting::InverseScore,
            replacement: ReplacementPolicy::IndexPairedCrowding,
            stop: StopCondition::default(),
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
        if !(self.leader_fraction > 0.0 && self.leader_fraction <= 1.0) {
            return Err(EvoError::InvalidConfig(format!(
                "leader_fraction must lie in (0,1], got {}",
                self.leader_fraction
            )));
        }
        if self.stop.max_iterations == 0 {
            return Err(EvoError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        self.islands.validate()?;
        Ok(())
    }

    /// Leader-group size for a population of `n`.
    pub fn leader_group(&self, n: usize) -> usize {
        ((n as f64 * self.leader_fraction).ceil() as usize).clamp(2.min(n), n.max(1))
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
        self.cfg.stop.max_iterations = n;
        self
    }

    /// Early-stop stagnation window.
    pub fn stagnation(mut self, window: usize) -> Self {
        self.cfg.stop.stagnation = Some(window);
        self
    }

    /// Probability of a mutation generation.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.cfg.mutation_rate = rate;
        self
    }

    /// Operator schedule (fixed by default, adaptive as an extension).
    pub fn operator_schedule(mut self, schedule: OperatorSchedule) -> Self {
        self.cfg.operator_schedule = schedule;
        self
    }

    /// Leader-group fraction.
    pub fn leader_fraction(mut self, f: f64) -> Self {
        self.cfg.leader_fraction = f;
        self
    }

    /// Selection weighting.
    pub fn selection(mut self, s: SelectionWeighting) -> Self {
        self.cfg.selection = s;
        self
    }

    /// Crossover replacement pairing.
    pub fn replacement(mut self, r: ReplacementPolicy) -> Self {
        self.cfg.replacement = r;
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
            .stagnation(17)
            .mutation_rate(0.7)
            .leader_fraction(0.2)
            .selection(SelectionWeighting::Rank)
            .replacement(ReplacementPolicy::DistancePairedCrowding)
            .islands(4)
            .migration_interval(25)
            .migration_size(3)
            .build();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.stop.max_iterations, 123);
        assert_eq!(cfg.stop.stagnation, Some(17));
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
    fn leader_group_bounds() {
        let cfg = EvoConfig::default(); // fraction 0.1
        assert_eq!(cfg.leader_group(110), 11);
        assert_eq!(cfg.leader_group(10), 2); // at least 2 when possible
        assert_eq!(cfg.leader_group(1), 1);
    }

    #[test]
    #[should_panic(expected = "invalid EvoConfig")]
    fn builder_panics_on_bad_rate() {
        let _ = EvoConfig::builder().mutation_rate(1.5).build();
    }

    #[test]
    fn validate_rejects_zero_iterations() {
        let mut cfg = EvoConfig::default();
        cfg.stop.max_iterations = 0;
        assert!(cfg.validate().is_err());
    }
}
