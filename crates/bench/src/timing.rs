//! The paper's in-text timing table (§3.2 end): average cost of a mutation
//! generation vs a crossover generation, and the share consumed by the
//! fitness function.
//!
//! The paper reports 120.34 s per mutation generation (120.32 s fitness)
//! and 242.48 s per crossover generation (242.46 s fitness) on its testbed.
//! Absolute numbers are hardware-bound; the *shape* is what we reproduce:
//! fitness dominates (> 99%) and a crossover generation costs ≈ 2× a
//! mutation generation (two offspring evaluations instead of one).
//!
//! Each generation kind runs one loop that times the whole generation
//! (selection, operator, fitness, duel) and, nested inside it, the fitness
//! calls, both on the thread's CPU clock ([`CpuStopwatch`]), so time spent
//! descheduled counts in neither. A fitness share is a ratio of one loop's
//! own two times and is at most 1 by construction. The table has two rows:
//!
//! * **full** — the paper's method: every child is scored by a full
//!   [`Evaluator::evaluate`];
//! * **patched** — what the optimizer runs: every child is re-assessed from
//!   its parent's state by [`Evaluator::reassess_into`] with a
//!   [`Patch::cell`] (mutation) or a [`Patch::flat_range`] (crossover).
//!
//! Parents are drawn from a fixed population whose states are assessed
//! untimed first; the duel's verdict is computed but no child replaces its
//! parent, so both rows draw from the same population. The two children of
//! a crossover are scored one after the other on the timing thread.

use std::time::Duration;

use cdp_core::clock::CpuStopwatch;
use cdp_core::operators::{crossover, mutate};
use cdp_core::select_proportional;
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::SubTable;
use cdp_metrics::{EvalState, Evaluator, MetricConfig, Patch, ScoreAggregator};
use cdp_sdc::{build_population, SuiteConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::markdown_table;

/// The average cost of one generation of one kind (milliseconds of thread
/// CPU time).
#[derive(Debug, Clone, Copy)]
pub struct GenerationCost {
    /// One whole generation: selection, operator, fitness and duel.
    pub generation_ms: f64,
    /// The fitness calls inside it (one for mutation, two for crossover).
    pub fitness_ms: f64,
}

impl GenerationCost {
    fn per_generation(generation: Duration, fitness: Duration, generations: usize) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / generations as f64;
        GenerationCost {
            generation_ms: ms(generation),
            fitness_ms: ms(fitness),
        }
    }

    /// Fraction of the generation spent in the fitness function.
    pub fn fitness_share(&self) -> f64 {
        self.fitness_ms / self.generation_ms
    }

    /// The generation's cost outside the fitness function.
    pub fn remainder_ms(&self) -> f64 {
        self.generation_ms - self.fitness_ms
    }
}

/// Mutation and crossover generation costs under one scoring method.
#[derive(Debug, Clone, Copy)]
pub struct TimingRow {
    /// Single-cell mutation, one child.
    pub mutation: GenerationCost,
    /// Two-point crossover, two children.
    pub crossover: GenerationCost,
}

impl TimingRow {
    /// Crossover-to-mutation generation cost ratio (paper: ≈ 2.0).
    pub fn crossover_to_mutation_ratio(&self) -> f64 {
        self.crossover.generation_ms / self.mutation.generation_ms
    }
}

/// The generation-cost table: the paper's method and the optimizer's.
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Every child scored by a full evaluation.
    pub full: TimingRow,
    /// Every child re-assessed from its parent's state by a patch.
    pub patched: TimingRow,
}

impl TimingReport {
    /// Markdown table juxtaposing the paper's testbed numbers with both
    /// rows of ours.
    pub fn to_markdown(&self) -> String {
        let (full, patched) = (&self.full, &self.patched);
        let both = |f: &dyn Fn(&TimingRow) -> String| [f(full), f(patched)];
        let row = |quantity: &str, paper: &str, ours: [String; 2]| {
            let [a, b] = ours;
            vec![quantity.to_string(), paper.to_string(), a, b]
        };
        let fitness = |g: &GenerationCost| {
            format!("{:.3} ms ({:.2}%)", g.fitness_ms, 100.0 * g.fitness_share())
        };
        let rows = vec![
            row(
                "mutation generation",
                "120.34 s",
                both(&|r| format!("{:.3} ms", r.mutation.generation_ms)),
            ),
            row(
                "… of which fitness",
                "120.32 s (99.98%)",
                both(&|r| fitness(&r.mutation)),
            ),
            row(
                "crossover generation",
                "242.48 s",
                both(&|r| format!("{:.3} ms", r.crossover.generation_ms)),
            ),
            row(
                "… of which fitness",
                "242.46 s (99.99%)",
                both(&|r| fitness(&r.crossover)),
            ),
            row(
                "non-fitness remainder (mut / xover)",
                "0.02 s / 0.02 s",
                both(&|r| {
                    format!(
                        "{:.4} ms / {:.4} ms",
                        r.mutation.remainder_ms(),
                        r.crossover.remainder_ms()
                    )
                }),
            ),
            row(
                "crossover / mutation ratio",
                "2.02",
                both(&|r| format!("{:.2}", r.crossover_to_mutation_ratio())),
            ),
        ];
        markdown_table(
            &[
                "quantity",
                "paper (testbed)",
                "full evaluation",
                "patched (as run)",
            ],
            &rows,
        )
    }
}

/// The population the generations draw parents from, with each member's
/// assessed state.
struct Parents {
    evaluator: Evaluator,
    data: Vec<SubTable>,
    states: Vec<EvalState>,
    scores: Vec<f64>,
}

impl Parents {
    /// Score a child of parent `i`: by `patch` from the parent's state
    /// into `scratch` when one is given, by a full evaluation otherwise.
    /// The call is timed into `fitness`.
    fn score(
        &self,
        i: usize,
        child: &SubTable,
        patch: Option<&Patch>,
        scratch: &mut EvalState,
        fitness: &mut Duration,
    ) -> f64 {
        let clock = CpuStopwatch::start();
        let assessment = match patch {
            Some(patch) => {
                self.evaluator
                    .reassess_into(&self.states[i], child, patch, scratch);
                scratch.assessment
            }
            None => self.evaluator.evaluate(child),
        };
        *fitness += clock.elapsed();
        assessment.score(ScoreAggregator::Max)
    }

    /// `generations` mutation generations: proportional selection,
    /// single-cell mutation, parent/offspring duel.
    fn mutation(&self, patched: bool, generations: usize, rng: &mut StdRng) -> GenerationCost {
        let mut scratch = self.states[0].clone();
        let mut fitness = Duration::ZERO;
        let clock = CpuStopwatch::start();
        for _ in 0..generations {
            let i = select_proportional(&self.scores, rng);
            let mut child = self.data[i].clone();
            let Some(mu) = mutate(&mut child, rng) else {
                continue;
            };
            let patch = patched.then(|| Patch::cell(mu.row, mu.attr, mu.old));
            let score = self.score(i, &child, patch.as_ref(), &mut scratch, &mut fitness);
            std::hint::black_box(score < self.scores[i]);
        }
        GenerationCost::per_generation(clock.elapsed(), fitness, generations)
    }

    /// `generations` crossover generations: two proportional selections,
    /// two-point crossover, Deterministic Crowding duels.
    fn crossover(&self, patched: bool, generations: usize, rng: &mut StdRng) -> GenerationCost {
        let mut scratch = self.states[0].clone();
        let mut fitness = Duration::ZERO;
        let clock = CpuStopwatch::start();
        for _ in 0..generations {
            let i = select_proportional(&self.scores, rng);
            let j = select_proportional(&self.scores, rng);
            let (x, y) = (&self.data[i], &self.data[j]);
            let (z1, z2, (s, r)) = crossover(x, y, rng);
            let patch = |parent: &SubTable| {
                patched
                    .then(|| Patch::flat_range(s, r, (s..=r).map(|p| parent.get_flat(p)).collect()))
            };
            let (patch1, patch2) = (patch(x), patch(y));
            let score1 = self.score(i, &z1, patch1.as_ref(), &mut scratch, &mut fitness);
            let score2 = self.score(j, &z2, patch2.as_ref(), &mut scratch, &mut fitness);
            std::hint::black_box((score1 < self.scores[i], score2 < self.scores[j]));
        }
        GenerationCost::per_generation(clock.elapsed(), fitness, generations)
    }

    fn row(&self, patched: bool, generations: usize, rng: &mut StdRng) -> TimingRow {
        TimingRow {
            mutation: self.mutation(patched, generations, rng),
            crossover: self.crossover(patched, generations, rng),
        }
    }
}

/// Measure both rows of the table on one dataset's paper-suite population,
/// `generations` generations per loop.
pub fn measure_timing(
    kind: DatasetKind,
    records: Option<usize>,
    generations: usize,
    seed: u64,
) -> TimingReport {
    let mut gc = GeneratorConfig::seeded(seed);
    if let Some(n) = records {
        gc = gc.with_records(n);
    }
    let ds = kind.generate(&gc);
    let pop = build_population(&ds, &SuiteConfig::paper(kind), seed).expect("paper suite");
    let evaluator =
        Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    // untimed: every parent's state, which also puts the population's
    // patterns into the evaluator's per-original tables
    let states: Vec<EvalState> = pop.iter().map(|m| evaluator.assess(&m.data)).collect();
    let parents = Parents {
        evaluator,
        scores: states
            .iter()
            .map(|s| s.assessment.score(ScoreAggregator::Max))
            .collect(),
        data: pop.into_iter().map(|m| m.data).collect(),
        states,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let generations = generations.max(1);
    TimingReport {
        full: parents.row(false, generations, &mut rng),
        patched: parents.row(true, generations, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_claims() {
        // Small instance, enough to see the structural ratios; thread CPU
        // time, so the rest of the suite running alongside steals nothing
        // from the figures. The paper's claims are about its own method,
        // the full row; every share of both rows is an in-loop fraction.
        let report = measure_timing(DatasetKind::Adult, Some(150), 8, 1);
        let t = report.full;
        assert!(
            t.mutation.fitness_share() > 0.5,
            "fitness must dominate a mutation generation: {:.3}",
            t.mutation.fitness_share()
        );
        let ratio = t.crossover_to_mutation_ratio();
        assert!(
            (1.0..=5.0).contains(&ratio),
            "crossover should cost ≈2x a mutation generation, got {ratio:.2}"
        );
        assert!(t.mutation.remainder_ms() < t.mutation.fitness_ms);
        for row in [report.full, report.patched] {
            for g in [row.mutation, row.crossover] {
                let share = g.fitness_share();
                assert!((0.0..=1.0).contains(&share), "share {share}");
            }
        }
    }

    #[test]
    fn markdown_mentions_paper_numbers() {
        let cost = |generation_ms, fitness_ms| GenerationCost {
            generation_ms,
            fitness_ms,
        };
        let row = TimingRow {
            mutation: cost(10.1, 10.0),
            crossover: cost(20.3, 20.0),
        };
        let md = TimingReport {
            full: row,
            patched: row,
        }
        .to_markdown();
        assert!(md.contains("120.34 s"));
        assert!(md.contains("242.48 s"));
        assert!(md.contains("2.0")); // ratio column
        assert!(md.contains("patched (as run)"));
    }
}
