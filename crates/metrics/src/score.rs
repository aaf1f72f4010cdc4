//! Score aggregation: collapsing (IL, DR) into a single fitness value.

/// How information loss and disclosure risk combine into one score
/// (smaller is better in both variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreAggregator {
    /// The paper's Eq. 1: `(IL + DR) / 2`. Allows perfect trade-offs —
    /// `(0, 40)` scores like `(20, 20)` — which §3.1 shows is undesirable
    /// for categorical data.
    Mean,
    /// The paper's Eq. 2: `max(IL, DR)`. Penalizes unbalanced protections;
    /// the paper's preferred choice.
    Max,
}

impl ScoreAggregator {
    /// Aggregate an (IL, DR) pair.
    pub fn score(self, il: f64, dr: f64) -> f64 {
        match self {
            ScoreAggregator::Mean => (il + dr) / 2.0,
            ScoreAggregator::Max => il.max(dr),
        }
    }

    /// Short identifier used in reports and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            ScoreAggregator::Mean => "mean",
            ScoreAggregator::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_allows_perfect_tradeoff() {
        let a = ScoreAggregator::Mean.score(0.0, 40.0);
        let b = ScoreAggregator::Mean.score(20.0, 20.0);
        assert_eq!(a, b);
    }

    #[test]
    fn max_prefers_balance() {
        let unbalanced = ScoreAggregator::Max.score(0.0, 40.0);
        let balanced = ScoreAggregator::Max.score(20.0, 20.0);
        assert!(balanced < unbalanced);
    }

    #[test]
    fn all_aggregators_are_zero_at_ideal() {
        for agg in [ScoreAggregator::Mean, ScoreAggregator::Max] {
            assert_eq!(agg.score(0.0, 0.0), 0.0);
        }
    }

    #[test]
    fn monotone_in_both_arguments() {
        for agg in [ScoreAggregator::Mean, ScoreAggregator::Max] {
            assert!(agg.score(10.0, 20.0) <= agg.score(15.0, 20.0));
            assert!(agg.score(10.0, 20.0) <= agg.score(10.0, 25.0));
        }
    }
}
