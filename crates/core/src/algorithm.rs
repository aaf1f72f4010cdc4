//! Algorithm 1 of the paper: the evolutionary loop.

use cdp_dataset::SubTable;
use cdp_metrics::{EvalState, Evaluator, Patch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::ParetoArchive;
use crate::config::EvoConfig;
use crate::individual::Individual;
use crate::islands::{IslandEvent, IslandRunner};
use crate::operators::{crossover, mutate, OperatorKind};
use crate::parallel::{cross_check, evaluate_all, evaluate_offspring, EvalTask};
use crate::population::Population;
use crate::replacement::offspring_wins;
use crate::selection::{select_leader, select_proportional};
use crate::telemetry::{EvalCounts, GenerationStats, ScatterPoint, Trace};
use crate::{EvoError, Result};

/// Mutable per-run evaluation bookkeeping threaded through the generation
/// steps: the full/incremental call counters and the reusable scratch state
/// of the mutation path.
struct StepCtx {
    evals: EvalCounts,
    scratch: Option<EvalState>,
}

impl StepCtx {
    fn new() -> Self {
        StepCtx {
            evals: EvalCounts::default(),
            scratch: None,
        }
    }
}

/// A configured evolutionary run.
///
/// Construction is a two-step builder: [`Evolution::new`] binds the fitness
/// evaluator and configuration, [`Evolution::with_named_population`] loads
/// and evaluates the initial protections, [`Evolution::run`] executes
/// Algorithm 1.
pub struct Evolution {
    evaluator: Evaluator,
    config: EvoConfig,
    population: Option<Population>,
    initial_evaluations: usize,
}

impl Evolution {
    /// Bind evaluator and configuration.
    pub fn new(evaluator: Evaluator, config: EvoConfig) -> Self {
        Evolution {
            evaluator,
            config,
            population: None,
            initial_evaluations: 0,
        }
    }

    /// Load the initial population of named protections; every individual
    /// is evaluated here, on the executor ([`crate::parallel`]).
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] or [`EvoError::IncompatibleIndividual`].
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.config.validate()?;
        let items: Vec<(String, SubTable)> = items.into_iter().map(Into::into).collect();
        if items.is_empty() {
            return Err(EvoError::EmptyPopulation);
        }
        for (name, data) in &items {
            self.evaluator
                .prepared()
                .check_compatible(data)
                .map_err(|source| EvoError::IncompatibleIndividual {
                    name: name.clone(),
                    source,
                })?;
        }
        let states = evaluate_all(&self.evaluator, &items, true);
        self.initial_evaluations = items.len();
        let members = items
            .into_iter()
            .zip(states)
            .map(|((name, data), state)| Individual::new(name, data, state, self.config.aggregator))
            .collect();
        self.population = Some(Population::new(members));
        Ok(self)
    }

    /// Drop the best fraction of the (already loaded) initial population —
    /// the §3.3 robustness experiment.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] when called before loading.
    pub fn drop_best_fraction(mut self, fraction: f64) -> Result<Self> {
        let pop = self.population.as_mut().ok_or(EvoError::EmptyPopulation)?;
        pop.drop_best_fraction(fraction);
        Ok(self)
    }

    /// Size of the loaded population (0 before loading).
    pub(crate) fn population_len(&self) -> usize {
        self.population.as_ref().map_or(0, Population::len)
    }

    /// Disassemble for the island scheduler: evaluator, config, the
    /// loaded population (if any), and the initial-evaluation count.
    pub(crate) fn into_parts(self) -> (Evaluator, EvoConfig, Option<Population>, usize) {
        (
            self.evaluator,
            self.config,
            self.population,
            self.initial_evaluations,
        )
    }

    /// Bind an already-evaluated population. The island scheduler
    /// evaluates the full initial population once, partitions the
    /// resulting members, and hands each island its share through here;
    /// `initial_evaluations` is the number of full assessments attributed
    /// to these members in the outcome's [`EvalCounts`].
    pub(crate) fn with_population(mut self, pop: Population, initial_evaluations: usize) -> Self {
        self.population = Some(pop);
        self.initial_evaluations = initial_evaluations;
        self
    }

    /// Run Algorithm 1 to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> EvolutionOutcome {
        self.run_with(|_| {})
    }

    /// Run with a per-iteration observer (receives the trace entry just
    /// recorded; useful for progress reporting in long experiments).
    pub fn run_with<F>(self, mut observer: F) -> EvolutionOutcome
    where
        F: FnMut(&GenerationStats),
    {
        let mut runner = EvolutionRunner::start(self);
        while runner.step(&mut observer) {}
        runner.finish()
    }

    /// One mutation generation: proportional selection, single-cell
    /// mutation, parent/offspring elitism. Returns whether the offspring
    /// survived.
    ///
    /// The child is scored by patching the parent's cached state into the
    /// run's scratch buffer — rejected offspring pay no state-sized
    /// allocations (only the rank rebuild's O(c) scratch inside the
    /// evaluator), accepted ones pay one state clone. The patched
    /// assessment is bit-identical to a full one; debug builds assert
    /// exactly that at a fixed cadence ([`cross_check`]).
    fn mutation_step(
        &self,
        pop: &mut Population,
        archive: &mut ParetoArchive,
        rng: &mut StdRng,
        ctx: &mut StepCtx,
    ) -> bool {
        let i = select_proportional(pop.scores(), rng);
        let parent = pop.get(i);
        let mut child_data = parent.data.clone();
        let Some(mu) = mutate(&mut child_data, rng) else {
            return false;
        };
        let agg = self.config.aggregator;
        let patch = Patch::cell(mu.row, mu.attr, mu.old);
        let parent_score = parent.score();
        let name = parent.name.clone();
        let assessment = match ctx.scratch.as_mut() {
            Some(s) => {
                self.evaluator
                    .reassess_into(parent.state(), &child_data, &patch, s);
                s.assessment
            }
            None => {
                ctx.scratch = Some(self.evaluator.reassess(parent.state(), &child_data, &patch));
                ctx.scratch.as_ref().expect("just set").assessment
            }
        };
        ctx.evals.incremental += 1;
        cross_check(
            &self.evaluator,
            ctx.evals.incremental,
            &child_data,
            &assessment,
        );
        let score = assessment.score(agg);
        archive.offer(ScatterPoint::from_pair(
            name.clone(),
            assessment.il(),
            assessment.dr(),
            score,
        ));
        if offspring_wins(parent_score, score) {
            let state = ctx.scratch.as_ref().expect("scratch just filled");
            let child = Individual::from_scratch(name, child_data, state, agg);
            pop.replace(i, child);
            true
        } else {
            false
        }
    }

    /// One crossover generation: leader + proportional selection, 2-point
    /// crossover, Deterministic Crowding duels. Returns whether any
    /// offspring survived.
    ///
    /// Each child is re-assessed from its frame parent's cached state via a
    /// flat-range [`Patch`] instead of a full pass — bit-identical to
    /// the full pass (debug builds assert it at a fixed cadence,
    /// [`cross_check`]). The two offspring evaluate as one executor batch
    /// when the file is large enough to amortize the hand-off
    /// ([`crate::parallel::MIN_PARALLEL_EVAL_ROWS`]). Unlike the mutation
    /// path, each child pays one state clone inside
    /// [`cdp_metrics::Evaluator::reassess`]: both children may enter the
    /// population, so owned states are required either way. The clone is a
    /// fixed number of flat copies (36 at three attributes) whatever the
    /// pattern or joint-cell count; its only O(n) parts are two `u32` row
    /// maps (the masked pattern ids and the joint cell ids), small beside
    /// the segment's relink work.
    fn crossover_step(
        &self,
        pop: &mut Population,
        archive: &mut ParetoArchive,
        rng: &mut StdRng,
        ctx: &mut StepCtx,
    ) -> bool {
        let i1 = select_leader(pop.len(), rng);
        let i2 = select_proportional(pop.scores(), rng);

        let (z1_data, z2_data, (s, r)) = crossover(&pop.get(i1).data, &pop.get(i2).data, rng);
        // each child shares its frame parent's file outside [s, r]: patch
        // the parent's cached state with the swapped-in segment
        let old1: Vec<_> = (s..=r).map(|p| pop.get(i1).data.get_flat(p)).collect();
        let old2: Vec<_> = (s..=r).map(|p| pop.get(i2).data.get_flat(p)).collect();
        let patch1 = Patch::flat_range(s, r, old1);
        let patch2 = Patch::flat_range(s, r, old2);
        let tasks = [
            EvalTask::Patch {
                prev: pop.get(i1).state(),
                masked: &z1_data,
                patch: &patch1,
            },
            EvalTask::Patch {
                prev: pop.get(i2).state(),
                masked: &z2_data,
                patch: &patch2,
            },
        ];
        let mut states = evaluate_offspring(&self.evaluator, &tasks);
        ctx.evals.incremental += 2;
        let n = ctx.evals.incremental;
        cross_check(&self.evaluator, n - 1, &z1_data, &states[0].assessment);
        cross_check(&self.evaluator, n, &z2_data, &states[1].assessment);
        let z2_state = states.pop().expect("two states");
        let z1_state = states.pop().expect("two states");
        let c1 = Individual::new(
            pop.get(i1).name.clone(),
            z1_data,
            z1_state,
            self.config.aggregator,
        );
        let c2 = Individual::new(
            pop.get(i2).name.clone(),
            z2_data,
            z2_state,
            self.config.aggregator,
        );

        archive.offer(ScatterPoint::of(&c1));
        archive.offer(ScatterPoint::of(&c2));

        // Deterministic Crowding: each child duels the parent whose frame
        // it carries
        if i1 == i2 {
            // degenerate draw: both offspring duel the same parent; the
            // better offspring gets the single slot if it wins
            let best_child = if c1.score() <= c2.score() { c1 } else { c2 };
            if offspring_wins(pop.get(i1).score(), best_child.score()) {
                pop.replace(i1, best_child);
                return true;
            }
            return false;
        }

        let win1 = offspring_wins(pop.get(i1).score(), c1.score());
        let win2 = offspring_wins(pop.get(i2).score(), c2.score());
        if win1 {
            pop.replace_unsorted(i1, c1);
        }
        if win2 {
            pop.replace_unsorted(i2, c2);
        }
        if win1 || win2 {
            pop.resort();
            true
        } else {
            false
        }
    }
}

/// The resumable state of a running Algorithm 1 loop: everything the
/// one-shot [`Evolution::run_with`] used to keep in local variables,
/// factored out so the island scheduler ([`crate::islands`]) can advance a
/// run in bounded chunks, exchange members at migration barriers, and
/// finish it later. `start` + `while step()` + `finish` replays the exact
/// RNG stream of the historical one-shot loop — the engine's bit-exactness
/// tests pin this.
pub(crate) struct EvolutionRunner {
    evolution: Evolution,
    pop: Population,
    rng: StdRng,
    trace: Trace,
    initial: Vec<ScatterPoint>,
    archive: ParetoArchive,
    t: usize,
    ctx: StepCtx,
}

impl EvolutionRunner {
    /// Snapshot the initial population and seed the loop state.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub(crate) fn start(mut evolution: Evolution) -> EvolutionRunner {
        let pop = evolution
            .population
            .take()
            .expect("population must be loaded before run()");
        let rng = StdRng::seed_from_u64(evolution.config.seed ^ 0xE70_A160);
        let mut trace = Trace::default();
        let initial = pop.scatter();
        let mut archive = ParetoArchive::new();
        for point in &initial {
            archive.offer(point.clone());
        }
        trace.record(0, pop.scores(), None, false);
        EvolutionRunner {
            evolution,
            pop,
            rng,
            trace,
            initial,
            archive,
            t: 0,
            ctx: StepCtx::new(),
        }
    }

    /// Assemble the outcome; identical to what the one-shot loop returned.
    pub(crate) fn finish(self) -> EvolutionOutcome {
        let mut eval_counts = self.ctx.evals;
        eval_counts.full += self.evolution.initial_evaluations;
        EvolutionOutcome {
            initial: self.initial,
            final_points: self.pop.scatter(),
            trace: self.trace,
            iterations_run: self.t,
            pareto_front: self.archive.front(),
            eval_counts,
            population: self.pop,
        }
    }
}

impl IslandRunner for EvolutionRunner {
    type Stats = GenerationStats;

    fn event(island: usize, stats: GenerationStats) -> IslandEvent {
        IslandEvent::Generation { island, stats }
    }

    /// Whether the iteration budget is spent.
    fn finished(&self) -> bool {
        self.t >= self.evolution.config.iterations
    }

    /// Execute one iteration unless the budget is spent; returns whether
    /// an iteration ran.
    fn step<F: FnMut(&GenerationStats)>(&mut self, observer: &mut F) -> bool {
        if self.finished() {
            return false;
        }
        let (op, accepted) = if self.rng.gen::<f64>() < self.evolution.config.mutation_rate {
            (
                OperatorKind::Mutation,
                self.evolution.mutation_step(
                    &mut self.pop,
                    &mut self.archive,
                    &mut self.rng,
                    &mut self.ctx,
                ),
            )
        } else {
            (
                OperatorKind::Crossover,
                self.evolution.crossover_step(
                    &mut self.pop,
                    &mut self.archive,
                    &mut self.rng,
                    &mut self.ctx,
                ),
            )
        };
        self.t += 1;
        self.trace
            .record(self.t, self.pop.scores(), Some(op), accepted);
        observer(self.trace.last().expect("just recorded"));
        true
    }

    fn generations_run(&self) -> usize {
        self.t
    }

    /// Clones of the `count` best members (the population is score-sorted,
    /// ties by insertion order — deterministic).
    fn export(&self, count: usize) -> Vec<Individual> {
        (0..count.min(self.pop.len()))
            .map(|i| self.pop.get(i).clone())
            .collect()
    }

    /// Replace the worst members with `immigrants` (at most `len - 1`, so
    /// at least one native always survives), then resort.
    fn migrate_in(&mut self, immigrants: Vec<Individual>) {
        let n = self.pop.len();
        let take = immigrants.len().min(n.saturating_sub(1));
        for (j, immigrant) in immigrants.into_iter().take(take).enumerate() {
            self.pop.replace_unsorted(n - 1 - j, immigrant);
        }
        self.pop.resort();
    }
}

/// Summary of the score statistics the paper reports in §3.1/§3.2: initial
/// and final max/mean/min with percentage improvements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreSummary {
    /// Initial worst score.
    pub initial_max: f64,
    /// Final worst score.
    pub final_max: f64,
    /// Initial mean score.
    pub initial_mean: f64,
    /// Final mean score.
    pub final_mean: f64,
    /// Initial best score.
    pub initial_min: f64,
    /// Final best score.
    pub final_min: f64,
}

impl ScoreSummary {
    fn improvement(initial: f64, fin: f64) -> f64 {
        if initial.abs() < 1e-12 {
            0.0
        } else {
            100.0 * (initial - fin) / initial
        }
    }

    /// Percentage improvement of the max score.
    pub fn improvement_max(&self) -> f64 {
        Self::improvement(self.initial_max, self.final_max)
    }

    /// Percentage improvement of the mean score.
    pub fn improvement_mean(&self) -> f64 {
        Self::improvement(self.initial_mean, self.final_mean)
    }

    /// Percentage improvement of the min score.
    pub fn improvement_min(&self) -> f64 {
        Self::improvement(self.initial_min, self.final_min)
    }
}

/// Everything a run produces: the figure data and the final population.
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// Initial (IL, DR) snapshot (the paper's dispersion plots, "initial").
    pub initial: Vec<ScatterPoint>,
    /// Final (IL, DR) snapshot.
    pub final_points: Vec<ScatterPoint>,
    /// Max/mean/min score series (the paper's evolution plots).
    pub trace: Trace,
    /// Non-dominated (IL, DR) points over everything evaluated in the run
    /// (extension; sorted by IL ascending).
    pub pareto_front: Vec<ScatterPoint>,
    /// Fitness evaluations performed, split into full assessments (initial
    /// population included) and patch-based re-assessments.
    pub eval_counts: EvalCounts,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// Final population, sorted by score.
    pub population: Population,
}

impl EvolutionOutcome {
    /// Best initial point (minimum score).
    pub fn initial_best(&self) -> &ScatterPoint {
        self.initial
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite"))
            .expect("non-empty population")
    }

    /// Best final point.
    pub fn final_best(&self) -> &ScatterPoint {
        self.final_points
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite"))
            .expect("non-empty population")
    }

    /// The §3.1/§3.2 summary table row.
    pub fn summary(&self) -> ScoreSummary {
        let first = self.trace.initial().expect("trace has initial snapshot");
        let last = self.trace.last().expect("trace has final snapshot");
        ScoreSummary {
            initial_max: first.max,
            final_max: last.max,
            initial_mean: first.mean,
            final_mean: last.mean,
            initial_min: first.min,
            final_min: last.min,
        }
    }
}
