//! Run telemetry: exactly the data behind the paper's two figure families —
//! (IL, DR) dispersion snapshots and max/mean/min score evolution series.

use cdp_metrics::ObjectiveVector;

use crate::individual::Individual;
use crate::operators::OperatorKind;

/// One population snapshot point: an individual's (IL, DR) pair, as plotted
/// in the paper's dispersion figures (Figs. 1, 3, 5, 7, 9, 11, 13, 15, 17,
/// 18), plus its full objective vector (identical to the pair under the
/// canonical objective set).
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterPoint {
    /// Individual's provenance label.
    pub name: String,
    /// Information loss.
    pub il: f64,
    /// Disclosure risk.
    pub dr: f64,
    /// Aggregated score under the run's aggregator.
    pub score: f64,
    /// The full objective vector (leads with `il, dr`; extended sets
    /// append their extra measures).
    pub objectives: ObjectiveVector,
}

impl ScatterPoint {
    /// Capture an individual.
    pub fn of(ind: &Individual) -> Self {
        ScatterPoint {
            name: ind.name.clone(),
            il: ind.il(),
            dr: ind.dr(),
            score: ind.score(),
            objectives: ind.objectives(),
        }
    }

    /// A 2-objective point from its parts (test/plot helper; `objectives`
    /// is the canonical pair).
    pub fn from_pair(name: String, il: f64, dr: f64, score: f64) -> Self {
        ScatterPoint {
            name,
            il,
            dr,
            score,
            objectives: ObjectiveVector::pair(il, dr),
        }
    }
}

/// How many fitness evaluations a run performed, split by path.
///
/// `full` counts complete [`cdp_metrics::Evaluator::assess`] passes
/// (initial population included); `incremental` counts patch-based
/// re-assessments ([`cdp_metrics::Evaluator::reassess`] /
/// `reassess_into`). Only the initial population is fully assessed; every
/// offspring is a patch of its parent's state, so `full` is the initial
/// population size and `incremental` the number of offspring scored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Full assessments.
    pub full: usize,
    /// Patch-based re-assessments.
    pub incremental: usize,
}

impl EvalCounts {
    /// Total evaluations of either kind.
    pub fn total(&self) -> usize {
        self.full + self.incremental
    }
}

/// Per-iteration population statistics, as plotted in the paper's evolution
/// figures (Figs. 2, 4, 6, 8, 10, 12, 14, 16, 19, 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStats {
    /// Iteration index (0 = initial population).
    pub iteration: usize,
    /// Best (minimum) score.
    pub min: f64,
    /// Mean score.
    pub mean: f64,
    /// Worst (maximum) score.
    pub max: f64,
    /// Operator applied this iteration (`None` for the initial snapshot).
    pub operator: Option<OperatorKind>,
    /// Whether an offspring survived (the population changed).
    pub accepted: bool,
}

/// The evolution series of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One entry per iteration, plus the initial snapshot at index 0.
    pub generations: Vec<GenerationStats>,
}

impl Trace {
    /// Record a population's score statistics.
    pub fn record(
        &mut self,
        iteration: usize,
        scores: &[f64],
        operator: Option<OperatorKind>,
        accepted: bool,
    ) {
        let n = scores.len().max(1) as f64;
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = scores.iter().sum::<f64>() / n;
        self.generations.push(GenerationStats {
            iteration,
            min,
            mean,
            max,
            operator,
            accepted,
        });
    }

    /// The initial snapshot.
    pub fn initial(&self) -> Option<&GenerationStats> {
        self.generations.first()
    }

    /// The final snapshot.
    pub fn last(&self) -> Option<&GenerationStats> {
        self.generations.last()
    }

    /// Count of iterations whose offspring were accepted.
    pub fn accepted_count(&self) -> usize {
        self.generations.iter().filter(|g| g.accepted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_min_mean_max() {
        let mut t = Trace::default();
        t.record(0, &[10.0, 20.0, 30.0], None, false);
        let g = t.initial().unwrap();
        assert_eq!(g.min, 10.0);
        assert_eq!(g.max, 30.0);
        assert!((g.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn accepted_count_filters() {
        let mut t = Trace::default();
        t.record(0, &[1.0], None, false);
        t.record(1, &[1.0], Some(OperatorKind::Mutation), true);
        t.record(2, &[1.0], Some(OperatorKind::Crossover), false);
        t.record(3, &[1.0], Some(OperatorKind::Mutation), true);
        assert_eq!(t.accepted_count(), 2);
        assert_eq!(t.last().unwrap().iteration, 3);
    }
}
