//! The paper's in-text timing table (§3.2 end): average cost of a mutation
//! generation vs a crossover generation, and the share consumed by the
//! fitness function.
//!
//! The paper reports 120.34 s per mutation generation (120.32 s fitness)
//! and 242.48 s per crossover generation (242.46 s fitness) on its testbed.
//! Absolute numbers are hardware-bound; the *shape* is what we reproduce:
//! fitness dominates (> 99%) and a crossover generation costs ≈ 2× a
//! mutation generation (two offspring evaluations instead of one).

use std::time::Instant;

use cdp_core::operators::{crossover, mutate};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_metrics::{Evaluator, MetricConfig};
use cdp_sdc::{build_population, SuiteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::markdown_table;

/// Measured generation-cost decomposition (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct TimingReport {
    /// Average cost of one full fitness evaluation.
    pub fitness_ms: f64,
    /// Average cost of one complete mutation generation
    /// (selection + operator + 1 evaluation + duel).
    pub mutation_gen_ms: f64,
    /// Average cost of one complete crossover generation
    /// (selection + operator + 2 evaluations + duels).
    pub crossover_gen_ms: f64,
    /// Operator-only cost of a mutation (clone + cell change).
    pub mutation_op_ms: f64,
    /// Operator-only cost of a crossover (two clones + segment swap).
    pub crossover_op_ms: f64,
}

impl TimingReport {
    /// Fraction of a mutation generation spent in the fitness function.
    pub fn fitness_share_mutation(&self) -> f64 {
        (self.fitness_ms / self.mutation_gen_ms).min(1.0)
    }

    /// Fraction of a crossover generation spent in the fitness function.
    pub fn fitness_share_crossover(&self) -> f64 {
        (2.0 * self.fitness_ms / self.crossover_gen_ms).min(1.0)
    }

    /// Crossover-to-mutation generation cost ratio (paper: ≈ 2.0).
    pub fn crossover_to_mutation_ratio(&self) -> f64 {
        self.crossover_gen_ms / self.mutation_gen_ms
    }

    /// Markdown table juxtaposing the paper's testbed numbers with ours.
    pub fn to_markdown(&self) -> String {
        let rows = vec![
            vec![
                "mutation generation".to_string(),
                "120.34 s".to_string(),
                format!("{:.2} ms", self.mutation_gen_ms),
            ],
            vec![
                "… of which fitness".to_string(),
                "120.32 s (99.98%)".to_string(),
                format!(
                    "{:.2} ms ({:.2}%)",
                    self.fitness_ms,
                    100.0 * self.fitness_share_mutation()
                ),
            ],
            vec![
                "crossover generation".to_string(),
                "242.48 s".to_string(),
                format!("{:.2} ms", self.crossover_gen_ms),
            ],
            vec![
                "… of which fitness".to_string(),
                "242.46 s (99.99%)".to_string(),
                format!(
                    "{:.2} ms ({:.2}%)",
                    2.0 * self.fitness_ms,
                    100.0 * self.fitness_share_crossover()
                ),
            ],
            vec![
                "non-fitness remainder".to_string(),
                "0.02 s".to_string(),
                format!(
                    "{:.4} ms (mut op) / {:.4} ms (xover op)",
                    self.mutation_op_ms, self.crossover_op_ms
                ),
            ],
            vec![
                "crossover / mutation ratio".to_string(),
                "2.02".to_string(),
                format!("{:.2}", self.crossover_to_mutation_ratio()),
            ],
        ];
        markdown_table(
            &["quantity", "paper (testbed)", "this implementation"],
            &rows,
        )
    }
}

/// Measure the decomposition on one dataset.
pub fn measure_timing(
    kind: DatasetKind,
    records: Option<usize>,
    reps: usize,
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
    let mut rng = StdRng::seed_from_u64(seed);
    let reps = reps.max(1);

    // untimed warm-up: every member's patterns enter the evaluator's
    // per-original tables, so no timed loop pays first fills the loops
    // before it have already paid
    for member in &pop {
        std::hint::black_box(evaluator.evaluate(&member.data));
    }

    // fitness alone
    let t0 = Instant::now();
    for i in 0..reps {
        let masked = &pop[i % pop.len()].data;
        std::hint::black_box(evaluator.evaluate(masked));
    }
    let fitness_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // operators alone
    let t0 = Instant::now();
    for i in 0..reps {
        let mut child = pop[i % pop.len()].data.clone();
        std::hint::black_box(mutate(&mut child, &mut rng));
    }
    let mutation_op_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    let t0 = Instant::now();
    for i in 0..reps {
        let a = &pop[i % pop.len()].data;
        let b = &pop[(i + 1) % pop.len()].data;
        std::hint::black_box(crossover(a, b, &mut rng));
    }
    let crossover_op_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // full mutation generation: selection + operator + 1 eval + duel
    let scores: Vec<f64> = pop.iter().map(|_| rng.gen::<f64>() * 50.0).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        let i = rng.gen_range(0..pop.len());
        let mut child = pop[i].data.clone();
        if mutate(&mut child, &mut rng).is_some() {
            let a = evaluator.evaluate(&child);
            std::hint::black_box(a.il() < scores[i]);
        }
    }
    let mutation_gen_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // full crossover generation: selection + operator + 2 evals + duels
    let t0 = Instant::now();
    for _ in 0..reps {
        let i = rng.gen_range(0..pop.len());
        let j = rng.gen_range(0..pop.len());
        let (z1, z2, _) = crossover(&pop[i].data, &pop[j].data, &mut rng);
        let a1 = evaluator.evaluate(&z1);
        let a2 = evaluator.evaluate(&z2);
        std::hint::black_box(a1.il() + a2.dr());
    }
    let crossover_gen_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

    TimingReport {
        fitness_ms,
        mutation_gen_ms,
        crossover_gen_ms,
        mutation_op_ms,
        crossover_op_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_claims() {
        // Small instance, enough to see the structural ratios. Thresholds
        // are loose because the whole test suite runs in parallel and
        // steals cycles; the contention-free numbers come from the
        // `generation_cost` Criterion bench.
        let t = measure_timing(DatasetKind::Adult, Some(150), 8, 1);
        assert!(
            t.fitness_share_mutation() > 0.5,
            "fitness must dominate a mutation generation: {:.3}",
            t.fitness_share_mutation()
        );
        let ratio = t.crossover_to_mutation_ratio();
        assert!(
            (1.0..=5.0).contains(&ratio),
            "crossover should cost ≈2x a mutation generation, got {ratio:.2}"
        );
        assert!(t.mutation_op_ms < t.fitness_ms);
    }

    #[test]
    fn markdown_mentions_paper_numbers() {
        let t = TimingReport {
            fitness_ms: 10.0,
            mutation_gen_ms: 10.1,
            crossover_gen_ms: 20.3,
            mutation_op_ms: 0.05,
            crossover_op_ms: 0.09,
        };
        let md = t.to_markdown();
        assert!(md.contains("120.34 s"));
        assert!(md.contains("242.48 s"));
        assert!(md.contains("2.0")); // ratio column
    }
}
