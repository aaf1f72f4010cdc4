//! NSGA-II: true multi-objective optimization over (IL, DR).
//!
//! The paper collapses information loss and disclosure risk into one scalar
//! (Eq. 1/Eq. 2) and §4 notes the approach "can be adapted to other fitness
//! functions" — this module is that adaptation taken to its logical end:
//! instead of a scalar, selection works directly on Pareto dominance
//! (non-dominated sorting) with crowding-distance tie-breaking, as in
//! Deb et al.'s NSGA-II. The outcome is a *front* of protections covering
//! the whole IL/DR trade-off curve in one run, rather than one winner per
//! aggregator choice.
//!
//! The genetic operators are exactly the paper's (§2.2): single-cell
//! mutation and 2-point crossover at the value level, chosen per offspring
//! with the same 0.5 rate. Only the selection/replacement scheme differs,
//! which makes the scalar-vs-Pareto comparison in the `multi_objective`
//! example and the extension bench a clean ablation. Each offspring is
//! scored by patching its primary parent's cached state (mutation: one
//! cell; crossover: the swapped flat segment), which equals a full
//! assessment bit for bit.
//!
//! Since the objective-vector refactor, selection is generic over an
//! [`ObjectiveSet`]: dominance, crowding, and hypervolume all run over
//! N-dimensional [`ObjectiveVector`]s ([`non_dominated_sort_vec`],
//! [`crowding_distance_vec`], [`hypervolume_vec`]). The 2-D tuple
//! [`hypervolume`] sweep remains as the exact N=2 kernel, and the
//! canonical `il,dr` set reproduces the hard-wired pair bit for bit —
//! same comparisons, same RNG stream, same front.

use cdp_dataset::SubTable;
use cdp_metrics::{
    Evaluator, ObjectiveContext, ObjectiveSet, ObjectiveVector, Patch, ScoreAggregator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::ParetoArchive;
use crate::individual::Individual;
use crate::islands::{IslandEvent, IslandRunner};
use crate::operators::{crossover, mutate};
use crate::parallel::{cross_check, evaluate_all, evaluate_offspring, EvalTask};
use crate::telemetry::{EvalCounts, ScatterPoint};
use crate::{EvoError, Result};

/// Configuration of an NSGA-II run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsgaConfig {
    /// Number of generations.
    pub generations: usize,
    /// Offspring produced per generation; `0` means "population size".
    pub offspring: usize,
    /// Probability an offspring pair comes from crossover rather than
    /// mutation (the paper's operator coin, 0.5).
    pub crossover_prob: f64,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Island-model split (see [`crate::islands`]); the default single
    /// island runs the legacy loop untouched.
    pub islands: crate::config::IslandConfig,
}

impl Default for NsgaConfig {
    fn default() -> Self {
        NsgaConfig {
            generations: 100,
            offspring: 0,
            crossover_prob: 0.5,
            seed: 0,
            islands: crate::config::IslandConfig::default(),
        }
    }
}

impl NsgaConfig {
    /// Validate ranges (at least one generation, crossover probability in
    /// `[0,1]`).
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.generations == 0 {
            return Err(EvoError::InvalidConfig(
                "NSGA-II needs at least one generation".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_prob) {
            return Err(EvoError::InvalidConfig(format!(
                "crossover_prob must lie in [0,1], got {}",
                self.crossover_prob
            )));
        }
        self.islands.validate()?;
        Ok(())
    }
}

/// Fast non-dominated sort (Deb et al. 2002) over N-dim objective vectors:
/// partition points into fronts `F0, F1, …` where `F0` is the non-dominated
/// set, `F1` the non-dominated set after removing `F0`, and so on. All
/// objectives are minimized.
pub fn non_dominated_sort_vec(objs: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if objs[i].dominates(&objs[j]) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if objs[j].dominates(&objs[i]) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each member of one front (aligned with `front`'s
/// order), over N-dim objective vectors. Boundary points get
/// `f64::INFINITY`; interior points the sum of normalized neighbour gaps
/// per objective.
pub fn crowding_distance_vec(objs: &[ObjectiveVector], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    let mut dist = vec![0f64; m];
    if m <= 2 {
        dist.iter_mut().for_each(|d| *d = f64::INFINITY);
        return dist;
    }
    let dims = objs.first().map_or(0, ObjectiveVector::len);
    // `obj` is a dimension index into each inner vector, not an index
    // into `objs` — the iterator rewrite the lint wants doesn't apply
    #[allow(clippy::needless_range_loop)]
    for obj in 0..dims {
        let value = |i: usize| objs[i][obj];
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            value(front[a])
                .partial_cmp(&value(front[b]))
                .expect("objectives are finite")
        });
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        let span = value(front[order[m - 1]]) - value(front[order[0]]);
        if span <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let gap = value(front[order[w + 1]]) - value(front[order[w - 1]]);
            dist[order[w]] += gap / span;
        }
    }
    dist
}

/// 2-D hypervolume (area dominated between the front and a reference point,
/// minimization): the standard quality indicator for comparing fronts.
/// Points at or beyond the reference contribute nothing. This sweep is the
/// exact N=2 kernel of [`hypervolume_vec`] — the vector path delegates
/// here, so 2-objective hypervolumes are bit-identical either way.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut front: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(x, y)| x < reference.0 && y < reference.1)
        .collect();
    if front.is_empty() {
        return 0.0;
    }
    front.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));
    let mut hv = 0.0;
    let mut prev_y = reference.1;
    for (x, y) in front {
        if y < prev_y {
            hv += (reference.0 - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv
}

/// N-D hypervolume via recursive slicing: sweep the first objective
/// ascending and integrate the (N−1)-D hypervolume of the points active in
/// each slab. N=2 delegates to the exact [`hypervolume`] sweep (same
/// floats, same additions); N=1 is the span to the reference.
pub fn hypervolume_vec(points: &[ObjectiveVector], reference: &ObjectiveVector) -> f64 {
    let d = reference.len();
    let inside: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            assert_eq!(p.len(), d, "point/reference dimensions differ");
            (0..d).all(|k| p[k] < reference[k])
        })
        .map(|p| p.as_slice().to_vec())
        .collect();
    if inside.is_empty() {
        return 0.0;
    }
    hv_slices(&inside, reference.as_slice())
}

/// Recursive kernel of [`hypervolume_vec`]; `points` are strictly inside
/// `reference` on every dimension.
fn hv_slices(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    match reference.len() {
        0 => 0.0,
        1 => {
            let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            reference[0] - best
        }
        2 => {
            let pts: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
            hypervolume(&pts, (reference[0], reference[1]))
        }
        _ => {
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| points[a][0].partial_cmp(&points[b][0]).expect("finite"));
            let mut hv = 0.0;
            let mut active: Vec<Vec<f64>> = Vec::with_capacity(points.len());
            let mut k = 0;
            while k < order.len() {
                let x = points[order[k]][0];
                while k < order.len() && points[order[k]][0] == x {
                    active.push(points[order[k]][1..].to_vec());
                    k += 1;
                }
                let next_x = if k < order.len() {
                    points[order[k]][0]
                } else {
                    reference[0]
                };
                if next_x > x {
                    hv += (next_x - x) * hv_slices(&active, &reference[1..]);
                }
            }
            hv
        }
    }
}

/// Indices of a population's non-dominated members, first-objective
/// (IL) ascending.
fn front_indices(pop: &[Individual]) -> Vec<usize> {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut idx = fronts.into_iter().next().unwrap_or_default();
    idx.sort_by(|&a, &b| {
        objs[a]
            .first()
            .partial_cmp(&objs[b].first())
            .expect("finite")
    });
    idx
}

/// The non-dominated members of a population, as scatter points sorted by
/// IL ascending.
pub fn pareto_front_of(pop: &[Individual]) -> Vec<ScatterPoint> {
    front_indices(pop)
        .into_iter()
        .map(|i| ScatterPoint::of(&pop[i]))
        .collect()
}

/// Non-dominated filter of arbitrary objective points, first-objective
/// (IL) ascending with ties kept in input order (stable) — the rule the
/// island scheduler applies when merging per-island fronts into one global
/// front.
pub fn non_dominated_points(points: &[ScatterPoint]) -> Vec<ScatterPoint> {
    let objs: Vec<ObjectiveVector> = points.iter().map(|p| p.objectives).collect();
    let mut idx = non_dominated_sort_vec(&objs)
        .into_iter()
        .next()
        .unwrap_or_default();
    idx.sort_by(|&a, &b| {
        objs[a]
            .first()
            .partial_cmp(&objs[b].first())
            .expect("finite")
    });
    idx.into_iter().map(|i| points[i].clone()).collect()
}

/// Per-generation front progress, streamed to [`Nsga2::run_with`]
/// observers (the multi-objective counterpart of
/// [`crate::GenerationStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontStats {
    /// Generation index, 1-based (aligned with
    /// [`NsgaOutcome::hypervolume_series`], whose index 0 is the initial
    /// population).
    pub generation: usize,
    /// Size of the population's non-dominated front after the generation.
    pub front_size: usize,
    /// Hypervolume of that front w.r.t. the objective set's reference
    /// point ([`HV_REFERENCE`] for the canonical pair).
    pub hypervolume: f64,
    /// The front's ideal point: the per-objective minimum over the front
    /// — the vector observers stream alongside the scalar summary.
    pub ideal: ObjectiveVector,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct NsgaOutcome {
    /// Non-dominated front of the *final population*, IL-ascending.
    pub front: Vec<ScatterPoint>,
    /// The front's members with their protected files, aligned with
    /// [`NsgaOutcome::front`] (what a consumer publishes after picking a
    /// trade-off point).
    pub front_members: Vec<Individual>,
    /// Non-dominated front of the *initial population*.
    pub initial_front: Vec<ScatterPoint>,
    /// All-time front across every individual ever evaluated (monotone in
    /// hypervolume by construction).
    pub archive_front: Vec<ScatterPoint>,
    /// Hypervolume of the population front after each generation
    /// (index 0 = initial population), reference point (100, 100).
    pub hypervolume_series: Vec<f64>,
    /// Total fitness evaluations performed (initial population included);
    /// always `eval_counts.total()` — derived at construction, never
    /// counted separately.
    pub evaluations: usize,
    /// The same evaluations split into full assessments and patch-based
    /// re-assessments.
    pub eval_counts: EvalCounts,
    /// The objective set the run minimized (canonical `il,dr` unless
    /// extended via [`Nsga2::with_objectives`]).
    pub objectives: ObjectiveSet,
}

/// The hypervolume reference point: measures live in `[0, 100]²`.
pub const HV_REFERENCE: (f64, f64) = (100.0, 100.0);

/// A configured NSGA-II run over protections of one file.
pub struct Nsga2 {
    evaluator: Evaluator,
    config: NsgaConfig,
    objectives: ObjectiveSet,
    population: Option<Vec<Individual>>,
}

impl Nsga2 {
    /// Bind evaluator and configuration (canonical `il,dr` objectives).
    pub fn new(evaluator: Evaluator, config: NsgaConfig) -> Self {
        Nsga2 {
            evaluator,
            config,
            objectives: ObjectiveSet::canonical(),
            population: None,
        }
    }

    /// Replace the objective set. With the canonical `il,dr` set (the
    /// default) every selection decision — and therefore every RNG draw —
    /// is bit-identical to the historical hard-wired pair; extended sets
    /// append measures that selection then minimizes jointly. Call before
    /// loading the population so member vectors are computed once.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        if let Some(pop) = &mut self.population {
            for ind in pop.iter_mut() {
                assign_objectives(&self.objectives, &self.evaluator, ind);
            }
        }
        self
    }

    /// The objective set of this run.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// Load and evaluate the initial population of named protections.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`], [`EvoError::IncompatibleIndividual`],
    /// or [`EvoError::InvalidConfig`].
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
        // the scalar score is unused by NSGA selection; Max is stored so
        // ScatterPoint labels remain meaningful in mixed reports
        let members = items
            .into_iter()
            .zip(states)
            .map(|((name, data), state)| {
                let mut ind = Individual::new(name, data, state, ScoreAggregator::Max);
                assign_objectives(&self.objectives, &self.evaluator, &mut ind);
                ind
            })
            .collect();
        self.population = Some(members);
        Ok(self)
    }

    /// Run to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> NsgaOutcome {
        self.run_with(|_| {})
    }

    /// Run to completion, streaming per-generation [`FrontStats`] to
    /// `observer`. The observer draws nothing from the RNG stream: a run
    /// with an observer is bit-identical to one without.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with<F: FnMut(&FrontStats)>(self, mut observer: F) -> NsgaOutcome {
        let mut runner = NsgaRunner::start(self);
        while runner.step(&mut observer) {}
        runner.finish()
    }

    /// Bind an already-evaluated population (see
    /// [`crate::algorithm::Evolution::with_population`]): the island
    /// scheduler evaluates once and partitions the members.
    pub(crate) fn with_population(mut self, members: Vec<Individual>) -> Self {
        self.population = Some(members);
        self
    }

    /// Size of the loaded population (0 before loading).
    pub(crate) fn population_len(&self) -> usize {
        self.population.as_ref().map_or(0, Vec::len)
    }

    /// Disassemble for the island scheduler.
    pub(crate) fn into_parts(
        self,
    ) -> (Evaluator, NsgaConfig, ObjectiveSet, Option<Vec<Individual>>) {
        (
            self.evaluator,
            self.config,
            self.objectives,
            self.population,
        )
    }
}

/// Cache an individual's objective vector under `set`. The canonical set
/// short-circuits: [`Individual::new`] already cached the exact
/// `(il, dr)` pair, so the default path computes nothing extra.
fn assign_objectives(set: &ObjectiveSet, evaluator: &Evaluator, ind: &mut Individual) {
    if set.is_canonical() {
        return;
    }
    let vector = set.vector_of(&ObjectiveContext {
        state: ind.state(),
        prepared: evaluator.prepared(),
    });
    ind.set_objectives(vector);
}

/// The resumable state of a running NSGA-II loop, factored out of the
/// one-shot [`Nsga2::run_with`] so the island scheduler
/// ([`crate::islands`]) can advance a run in bounded generation chunks,
/// exchange elites at migration barriers, and finish it later. `start` +
/// `while step()` + `finish` replays the exact RNG stream of the
/// historical one-shot loop.
pub(crate) struct NsgaRunner {
    nsga: Nsga2,
    pop: Vec<Individual>,
    n: usize,
    lambda: usize,
    rng: StdRng,
    eval_counts: EvalCounts,
    archive: ParetoArchive,
    initial_front: Vec<ScatterPoint>,
    hv_series: Vec<f64>,
    gen: usize,
    halted: bool,
}

impl NsgaRunner {
    /// Snapshot the initial population and seed the loop state.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub(crate) fn start(mut nsga: Nsga2) -> NsgaRunner {
        let pop = nsga
            .population
            .take()
            .expect("population must be loaded before run()");
        let cfg = nsga.config;
        let n = pop.len();
        let lambda = if cfg.offspring == 0 { n } else { cfg.offspring };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x0045_A6A2);
        let eval_counts = EvalCounts {
            full: n,
            incremental: 0,
        };
        let mut archive = ParetoArchive::new();
        for ind in &pop {
            archive.offer(ScatterPoint::of(ind));
        }
        let initial_front = pareto_front_of(&pop);
        let hv_series = vec![front_metrics(&pop, &nsga.objectives.reference()).1];
        NsgaRunner {
            nsga,
            pop,
            n,
            lambda,
            rng,
            eval_counts,
            archive,
            initial_front,
            hv_series,
            gen: 0,
            halted: false,
        }
    }

    /// Assemble the outcome; identical to what the one-shot loop returned.
    pub(crate) fn finish(self) -> NsgaOutcome {
        let mut archive_front = self.archive.front();
        archive_front.sort_by(|a, b| a.il.partial_cmp(&b.il).expect("finite"));
        let front_idx = front_indices(&self.pop);
        NsgaOutcome {
            front: front_idx
                .iter()
                .map(|&i| ScatterPoint::of(&self.pop[i]))
                .collect(),
            front_members: front_idx.into_iter().map(|i| self.pop[i].clone()).collect(),
            initial_front: self.initial_front,
            archive_front,
            hypervolume_series: self.hv_series,
            evaluations: self.eval_counts.total(),
            eval_counts: self.eval_counts,
            objectives: self.nsga.objectives,
        }
    }
}

impl IslandRunner for NsgaRunner {
    type Stats = FrontStats;

    fn event(island: usize, stats: FrontStats) -> IslandEvent {
        IslandEvent::Front { island, stats }
    }

    /// Whether every generation ran (or the schema degenerated).
    fn finished(&self) -> bool {
        self.halted || self.gen >= self.nsga.config.generations
    }

    /// Execute one generation unless the run is finished; returns whether
    /// a generation ran.
    fn step<F: FnMut(&FrontStats)>(&mut self, observer: &mut F) -> bool {
        if self.finished() {
            return false;
        }
        let cfg = self.nsga.config;
        let gen = self.gen;
        let pop = &mut self.pop;
        let (rank_of, crowd_of) = rank_and_crowd(pop);
        let rng = &mut self.rng;
        let tournament = |rng: &mut StdRng, pop: &[Individual]| -> usize {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            pick(a, b, &rank_of, &crowd_of, rng)
        };

        // each pending child remembers its primary parent and the patch
        // relating it to that parent
        let mut children: Vec<(String, SubTable, Patch, usize)> =
            Vec::with_capacity(self.lambda + 1);
        while children.len() < self.lambda {
            let use_crossover = pop.len() >= 2 && rng.gen::<f64>() < cfg.crossover_prob;
            if use_crossover {
                let p1 = tournament(rng, pop);
                let mut p2 = tournament(rng, pop);
                if p2 == p1 {
                    p2 = (p1 + 1) % pop.len();
                }
                let (z1, z2, (s, r)) = crossover(&pop[p1].data, &pop[p2].data, rng);
                let old1: Vec<_> = (s..=r).map(|p| pop[p1].data.get_flat(p)).collect();
                let old2: Vec<_> = (s..=r).map(|p| pop[p2].data.get_flat(p)).collect();
                let patch1 = Patch::flat_range(s, r, old1);
                let patch2 = Patch::flat_range(s, r, old2);
                children.push((format!("nsga-x{gen}"), z1, patch1, p1));
                children.push((format!("nsga-x{gen}"), z2, patch2, p2));
            } else {
                let p = tournament(rng, pop);
                let mut data = pop[p].data.clone();
                if let Some(mu) = mutate(&mut data, rng) {
                    let patch = Patch::cell(mu.row, mu.attr, mu.old);
                    children.push((format!("nsga-m{gen}"), data, patch, p));
                } else {
                    // degenerate schema (all attributes single-category):
                    // crossover cannot help either; stop producing
                    break;
                }
            }
        }
        children.truncate(self.lambda);
        if children.is_empty() {
            self.halted = true;
            return false;
        }

        let tasks: Vec<EvalTask<'_>> = children
            .iter()
            .map(|(_, data, patch, parent)| EvalTask::Patch {
                prev: pop[*parent].state(),
                masked: data,
                patch,
            })
            .collect();
        let states = evaluate_offspring(&self.nsga.evaluator, &tasks);
        drop(tasks);
        for (((_, data, _, _), state), ordinal) in children
            .iter()
            .zip(&states)
            .zip(self.eval_counts.incremental + 1..)
        {
            cross_check(&self.nsga.evaluator, ordinal, data, &state.assessment);
        }
        self.eval_counts.incremental += children.len();
        for ((name, data, _, _), state) in children.into_iter().zip(states) {
            let mut ind = Individual::new(name, data, state, ScoreAggregator::Max);
            assign_objectives(&self.nsga.objectives, &self.nsga.evaluator, &mut ind);
            self.archive.offer(ScatterPoint::of(&ind));
            pop.push(ind);
        }
        self.pop = environmental_selection(std::mem::take(&mut self.pop), self.n);
        self.gen += 1;
        let (front_size, hv, ideal) = front_stats(&self.pop, &self.nsga.objectives.reference());
        self.hv_series.push(hv);
        observer(&FrontStats {
            generation: self.gen,
            front_size,
            hypervolume: hv,
            ideal,
        });
        true
    }

    fn generations_run(&self) -> usize {
        self.gen
    }

    /// Clones of the `count` best members by (rank ascending, crowding
    /// descending, index ascending) — the deterministic elite.
    fn export(&self, count: usize) -> Vec<Individual> {
        let (rank_of, crowd_of) = rank_and_crowd(&self.pop);
        let mut order: Vec<usize> = (0..self.pop.len()).collect();
        order.sort_by(|&a, &b| {
            rank_of[a]
                .cmp(&rank_of[b])
                .then_with(|| {
                    crowd_of[b]
                        .partial_cmp(&crowd_of[a])
                        .expect("crowding comparable")
                })
                .then_with(|| a.cmp(&b))
        });
        order
            .into_iter()
            .take(count.min(self.pop.len()))
            .map(|i| self.pop[i].clone())
            .collect()
    }

    /// Replace the worst members (rank descending, crowding ascending,
    /// index descending — the deterministic anti-elite) with `immigrants`;
    /// at most `len - 1` are replaced so a native always survives.
    fn migrate_in(&mut self, immigrants: Vec<Individual>) {
        if immigrants.is_empty() {
            return;
        }
        let n = self.pop.len();
        let take = immigrants.len().min(n.saturating_sub(1));
        let (rank_of, crowd_of) = rank_and_crowd(&self.pop);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            rank_of[b]
                .cmp(&rank_of[a])
                .then_with(|| {
                    crowd_of[a]
                        .partial_cmp(&crowd_of[b])
                        .expect("crowding comparable")
                })
                .then_with(|| b.cmp(&a))
        });
        for (&slot, immigrant) in order.iter().zip(immigrants.into_iter().take(take)) {
            self.archive.offer(ScatterPoint::of(&immigrant));
            self.pop[slot] = immigrant;
        }
    }
}

/// Size and hypervolume of a population's non-dominated front.
pub(crate) fn front_metrics(pop: &[Individual], reference: &ObjectiveVector) -> (usize, f64) {
    let (size, hv, _) = front_stats(pop, reference);
    (size, hv)
}

/// Size, hypervolume, and ideal point of a population's non-dominated
/// front.
fn front_stats(pop: &[Individual], reference: &ObjectiveVector) -> (usize, f64, ObjectiveVector) {
    let pts: Vec<ObjectiveVector> = pareto_front_of(pop).iter().map(|p| p.objectives).collect();
    (
        pts.len(),
        hypervolume_vec(&pts, reference),
        ideal_point(&pts, reference.len()),
    )
}

/// Per-objective minimum over a set of points (the reference point itself
/// for an empty set).
pub(crate) fn ideal_point(points: &[ObjectiveVector], dims: usize) -> ObjectiveVector {
    let mut best = vec![f64::INFINITY; dims];
    for p in points {
        for (slot, k) in best.iter_mut().zip(0..dims) {
            *slot = slot.min(p[k]);
        }
    }
    if points.is_empty() {
        best.fill(100.0);
    }
    ObjectiveVector::from_slice(&best)
}

fn rank_and_crowd(pop: &[Individual]) -> (Vec<usize>, Vec<f64>) {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut rank_of = vec![0usize; pop.len()];
    let mut crowd_of = vec![0f64; pop.len()];
    for (r, front) in fronts.iter().enumerate() {
        let crowd = crowding_distance_vec(&objs, front);
        for (&i, &c) in front.iter().zip(&crowd) {
            rank_of[i] = r;
            crowd_of[i] = c;
        }
    }
    (rank_of, crowd_of)
}

fn pick(a: usize, b: usize, rank_of: &[usize], crowd_of: &[f64], rng: &mut StdRng) -> usize {
    match rank_of[a].cmp(&rank_of[b]) {
        std::cmp::Ordering::Less => a,
        std::cmp::Ordering::Greater => b,
        std::cmp::Ordering::Equal => {
            if crowd_of[a] > crowd_of[b] {
                a
            } else if crowd_of[b] > crowd_of[a] {
                b
            } else if rng.gen() {
                a
            } else {
                b
            }
        }
    }
}

/// Keep the `n` best of `pop` by (rank, crowding): whole fronts first, the
/// overflowing front truncated by descending crowding distance.
fn environmental_selection(pop: Vec<Individual>, n: usize) -> Vec<Individual> {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut keep: Vec<usize> = Vec::with_capacity(n);
    for front in fronts {
        if keep.len() + front.len() <= n {
            keep.extend(front);
        } else {
            let crowd = crowding_distance_vec(&objs, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&x, &y| {
                crowd[y]
                    .partial_cmp(&crowd[x])
                    .expect("crowding comparable")
            });
            keep.extend(order.into_iter().take(n - keep.len()).map(|w| front[w]));
            break;
        }
    }
    keep.sort_unstable();
    let mut keep_flags = vec![false; pop.len()];
    for &i in &keep {
        keep_flags[i] = true;
    }
    pop.into_iter()
        .zip(keep_flags)
        .filter_map(|(ind, k)| k.then_some(ind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::MetricConfig;
    use cdp_sdc::{build_population, SuiteConfig};

    fn pairs(objs: &[(f64, f64)]) -> Vec<ObjectiveVector> {
        objs.iter()
            .map(|&(il, dr)| ObjectiveVector::pair(il, dr))
            .collect()
    }

    #[test]
    fn sort_splits_fronts_correctly() {
        // (1,1) dominates everything; (2,3) and (3,2) incomparable; (4,4) last
        let objs = pairs(&[(2.0, 3.0), (1.0, 1.0), (3.0, 2.0), (4.0, 4.0)]);
        let fronts = non_dominated_sort_vec(&objs);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![1]);
        assert_eq!(
            {
                let mut f = fronts[1].clone();
                f.sort();
                f
            },
            vec![0, 2]
        );
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_of_identical_points_is_one_front() {
        let objs = pairs(&[(1.0, 1.0); 5]);
        let fronts = non_dominated_sort_vec(&objs);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 5);
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let objs = pairs(&[(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]);
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distance_vec(&objs, &front);
        assert!(d[0].is_infinite());
        assert!(d[4].is_infinite());
        for x in &d[1..4] {
            assert!(x.is_finite());
            assert!(*x > 0.0);
        }
        // evenly spaced interior points share the same crowding
        assert!((d[1] - d[3]).abs() < 1e-12);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let objs = pairs(&[(1.0, 2.0), (2.0, 1.0)]);
        let d = crowding_distance_vec(&objs, &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn hypervolume_basics() {
        let r = (100.0, 100.0);
        assert_eq!(hypervolume(&[], r), 0.0);
        assert_eq!(hypervolume(&[(100.0, 0.0)], r), 0.0); // at reference edge
        assert!((hypervolume(&[(0.0, 0.0)], r) - 10_000.0).abs() < 1e-9);
        // two incomparable points: union of rectangles
        let hv = hypervolume(&[(20.0, 40.0), (40.0, 20.0)], r);
        // (80*60) + (60*20) = 4800 + 1200
        assert!((hv - 6000.0).abs() < 1e-9);
        // dominated point adds nothing
        let hv2 = hypervolume(&[(20.0, 40.0), (40.0, 20.0), (50.0, 50.0)], r);
        assert!((hv2 - hv).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let r = (100.0, 100.0);
        let worse = hypervolume(&[(30.0, 30.0)], r);
        let better = hypervolume(&[(20.0, 20.0)], r);
        assert!(better > worse);
    }

    #[test]
    fn hypervolume_vec_matches_the_2d_sweep_bitwise() {
        let pts = [(20.0, 40.0), (40.0, 20.0), (50.0, 50.0), (3.25, 97.5)];
        let tuple = hypervolume(&pts, (100.0, 100.0));
        let vecs: Vec<ObjectiveVector> = pts
            .iter()
            .map(|&(a, b)| ObjectiveVector::pair(a, b))
            .collect();
        let vec = hypervolume_vec(&vecs, &ObjectiveVector::pair(100.0, 100.0));
        assert_eq!(tuple.to_bits(), vec.to_bits());
    }

    #[test]
    fn hypervolume_3d_by_recursive_slicing() {
        let r = ObjectiveVector::from_slice(&[100.0, 100.0, 100.0]);
        assert_eq!(hypervolume_vec(&[], &r), 0.0);
        // one box: 100³
        let one = hypervolume_vec(&[ObjectiveVector::from_slice(&[0.0, 0.0, 0.0])], &r);
        assert!((one - 1_000_000.0).abs() < 1e-6);
        // union of two boxes minus their intersection:
        // 80·60·50 + 60·80·50 − 60·60·50 = 300000
        let two = hypervolume_vec(
            &[
                ObjectiveVector::from_slice(&[20.0, 40.0, 50.0]),
                ObjectiveVector::from_slice(&[40.0, 20.0, 50.0]),
            ],
            &r,
        );
        assert!((two - 300_000.0).abs() < 1e-6, "got {two}");
        // a dominated point adds nothing
        let three = hypervolume_vec(
            &[
                ObjectiveVector::from_slice(&[20.0, 40.0, 50.0]),
                ObjectiveVector::from_slice(&[40.0, 20.0, 50.0]),
                ObjectiveVector::from_slice(&[60.0, 60.0, 60.0]),
            ],
            &r,
        );
        assert!((three - two).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_1d_is_the_span() {
        let r = ObjectiveVector::from_slice(&[100.0]);
        let pts = [
            ObjectiveVector::from_slice(&[30.0]),
            ObjectiveVector::from_slice(&[70.0]),
        ];
        assert_eq!(hypervolume_vec(&pts, &r), 70.0);
    }

    #[test]
    fn three_objective_run_minimizes_jointly_and_stays_deterministic() {
        let run = || {
            let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(31).with_records(60));
            let pop = build_population(&ds, &SuiteConfig::small(), 31).unwrap();
            let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
            let cfg = NsgaConfig {
                generations: 5,
                seed: 31,
                ..NsgaConfig::default()
            };
            Nsga2::new(ev, cfg)
                .with_objectives(cdp_metrics::ObjectiveSet::parse("il,dr,eps").unwrap())
                .with_named_population(pop)
                .unwrap()
                .run()
        };
        let out = run();
        assert_eq!(out.objectives.keys(), ["il", "dr", "eps"]);
        // every front point carries a 3-D vector whose prefix is (il, dr)
        for p in &out.front {
            assert_eq!(p.objectives.len(), 3);
            assert_eq!(p.objectives[0].to_bits(), p.il.to_bits());
            assert_eq!(p.objectives[1].to_bits(), p.dr.to_bits());
            assert!((0.0..100.0).contains(&p.objectives[2]));
        }
        // mutual non-dominance in the full 3-D space
        for a in &out.front {
            for b in &out.front {
                assert!(!a.objectives.dominates(&b.objectives));
            }
        }
        // a front may keep 2-D-dominated points that win on the third axis;
        // the run stays bit-deterministic per seed
        let again = run();
        assert_eq!(out.front, again.front);
        assert_eq!(out.hypervolume_series, again.hypervolume_series);
    }

    fn small_run(seed: u64, generations: usize) -> NsgaOutcome {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(60));
        let pop = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let cfg = NsgaConfig {
            generations,
            seed,
            ..NsgaConfig::default()
        };
        Nsga2::new(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run()
    }

    #[test]
    fn run_produces_mutually_nondominated_front() {
        let out = small_run(11, 8);
        for a in &out.front {
            for b in &out.front {
                let dominates = a.il <= b.il && a.dr <= b.dr && (a.il < b.il || a.dr < b.dr);
                assert!(!dominates, "front contains dominated point");
            }
            assert!((0.0..=100.0).contains(&a.il));
            assert!((0.0..=100.0).contains(&a.dr));
        }
        assert_eq!(out.hypervolume_series.len(), 9);
    }

    #[test]
    fn archive_hypervolume_never_regresses() {
        let out = small_run(12, 8);
        let initial: Vec<(f64, f64)> = out.initial_front.iter().map(|p| (p.il, p.dr)).collect();
        let archive: Vec<(f64, f64)> = out.archive_front.iter().map(|p| (p.il, p.dr)).collect();
        let hv_initial = hypervolume(&initial, HV_REFERENCE);
        let hv_archive = hypervolume(&archive, HV_REFERENCE);
        assert!(
            hv_archive >= hv_initial - 1e-9,
            "archive {hv_archive} < initial {hv_initial}"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = small_run(13, 5);
        let b = small_run(13, 5);
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.il, y.il);
            assert_eq!(x.dr, y.dr);
        }
        assert_eq!(a.hypervolume_series, b.hypervolume_series);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn patched_offspring_keep_the_front_exact_and_the_split_exact() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(15).with_records(60));
        let pop = build_population(&ds, &SuiteConfig::small(), 15).unwrap();
        let n = pop.len();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let generations = 6;
        let cfg = NsgaConfig {
            generations,
            seed: 15,
            ..NsgaConfig::default()
        };
        let out = Nsga2::new(ev.clone(), cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        // only the initial population pays a full assessment; every
        // offspring (λ = n per generation) is patched
        assert_eq!(out.eval_counts.full, n);
        assert_eq!(out.eval_counts.incremental, generations * n);
        assert_eq!(out.eval_counts.total(), out.evaluations);
        // patches of patches reproduce a fresh assessment bit for bit
        assert!(!out.front_members.is_empty());
        for (member, point) in out.front_members.iter().zip(&out.front) {
            let fresh = ev.assess(&member.data).assessment;
            assert_eq!(*member.assessment(), fresh);
            assert_eq!(point.il.to_bits(), fresh.il().to_bits());
            assert_eq!(point.dr.to_bits(), fresh.dr().to_bits());
        }
    }

    #[test]
    fn config_guards() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let bad = NsgaConfig {
            generations: 0,
            ..NsgaConfig::default()
        };
        let item: Vec<(String, SubTable)> = vec![("a".into(), ds.protected_subtable())];
        assert!(Nsga2::new(ev, bad).with_named_population(item).is_err());
    }

    #[test]
    fn empty_population_is_rejected() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let none: Vec<(String, SubTable)> = vec![];
        assert!(matches!(
            Nsga2::new(ev, NsgaConfig::default()).with_named_population(none),
            Err(EvoError::EmptyPopulation)
        ));
    }
}
