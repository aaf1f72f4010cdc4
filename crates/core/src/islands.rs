//! Island-model parallel evolution: K independent optimizer instances,
//! one executor task each per epoch, synchronized only at migration
//! barriers.
//!
//! An [`IslandModel`] splits the evaluated initial population round-robin
//! across `K` islands ([`IslandConfig::count`]). Each island is a full
//! [`Evolution`] (scalar mode) or [`Nsga2`] (nsga mode) with its own RNG
//! stream derived as `seed ⊕ island_hash(k)`, where `island_hash(0) = 0`
//! — so island 0 of any run, and the single island of a `K = 1` run,
//! replays the legacy single-population stream bit for bit. Every
//! [`IslandConfig::migration_interval`] generations the islands stop at a
//! barrier and exchange members along a directed ring: island `k` exports
//! its [`IslandConfig::migration_size`] best/elite members to island
//! `(k + 1) mod K`, which replaces its worst members, all tie-breaks
//! deterministic. When every island exhausts its
//! budget the results merge deterministically, in island-index order:
//! scalar mode concatenates the final populations (the global best is the
//! merged population's minimum, ties kept in island order) and unions the
//! per-island Pareto archives; nsga mode filters the union of island
//! fronts down to its non-dominated subset
//! ([`crate::nsga::non_dominated_points`] is the same rule) and
//! recomputes the hypervolume on the merged front.
//!
//! # Determinism contract
//!
//! * Each epoch runs every island as one task of the crate's executor
//!   ([`crate::parallel`]), and islands synchronize **only** at migration
//!   barriers; all cross-island effects (migration, event replay, final
//!   merge) happen on the calling thread in island-index order. An
//!   island's offspring batches run inline in its task, so islands never
//!   nest threads. The outcome for a given `(seed, K, M)` is therefore
//!   identical across runs regardless of thread scheduling or core count.
//! * `K = 1` is exactly the legacy single-population run: same RNG
//!   stream, same outcome, bit for bit (the engine's reproduction tests
//!   pin this). Its single island runs on the calling thread and streams
//!   each generation's event as it finishes.
//! * Observers see island events in a deterministic order: each epoch's
//!   generation stats replay island by island, then migrations fire in
//!   source-island order. Only [`IslandTiming`] (wall-clock and
//!   critical-path measurements) varies between runs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cdp_dataset::SubTable;
use cdp_metrics::Evaluator;

use crate::algorithm::{Evolution, EvolutionOutcome, EvolutionRunner};
use crate::archive::ParetoArchive;
use crate::clock::CpuStopwatch;
use crate::config::{EvoConfig, IslandConfig};
use crate::individual::Individual;
use crate::parallel::run_indexed;
use cdp_metrics::{ObjectiveSet, ObjectiveVector};

use crate::nsga::{
    hypervolume_vec, non_dominated_sort_vec, pareto_front_of, FrontStats, Nsga2, NsgaConfig,
    NsgaOutcome, NsgaRunner,
};
use crate::population::Population;
use crate::telemetry::{EvalCounts, GenerationStats, ScatterPoint, Trace};
use crate::{EvoError, Result};

/// Deterministic per-island seed perturbation (`seed ⊕ island_hash(k)`).
/// Weyl-sequence constant (the golden-ratio multiplier) spreads island
/// streams apart; `island_hash(0) = 0` keeps island 0 on the legacy
/// stream.
pub fn island_hash(k: usize) -> u64 {
    (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One observer event of an island-model run. Delivery order is
/// deterministic (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum IslandEvent {
    /// A scalar island finished one iteration.
    Generation {
        /// Island index.
        island: usize,
        /// The iteration's trace entry (per-island population statistics).
        stats: GenerationStats,
    },
    /// An nsga island finished one generation.
    Front {
        /// Island index.
        island: usize,
        /// The generation's front statistics (per-island).
        stats: FrontStats,
    },
    /// An island exported members to its ring neighbour at a barrier.
    Migration {
        /// Generations the source island had completed at the barrier.
        generation: usize,
        /// Source island index.
        island: usize,
        /// Members exported (≤ [`IslandConfig::migration_size`]).
        emigrants: usize,
    },
}

/// Timing measurements of an island run. `critical_path` sums, over the
/// migration epochs, the busiest island's *CPU* time in each epoch — the
/// wall time a machine with ≥ K free cores would see. Per-island busy
/// times are taken from the thread CPU clock (where available), so the
/// projection stays faithful even when K islands share fewer than K
/// cores; an island's task runs all of its work on one thread, so the
/// clock sees all of it. `wall` is what this machine actually observed.
/// A single-island run has one epoch, timed by wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct IslandTiming {
    /// Elapsed wall-clock time of the whole run.
    pub wall: Duration,
    /// Sum over epochs of the maximum per-island busy time.
    pub critical_path: Duration,
}

/// One island's resumable optimizer run, as the epoch loop drives it.
pub(crate) trait IslandRunner: Send {
    /// What one generation reports to observers.
    type Stats: Copy + Send + Sync;

    /// Island `island`'s event for one generation.
    fn event(island: usize, stats: Self::Stats) -> IslandEvent;

    /// Whether the run's budget is spent.
    fn finished(&self) -> bool;

    /// Run one generation unless [`IslandRunner::finished`]; returns
    /// whether one ran.
    fn step<F: FnMut(&Self::Stats)>(&mut self, observer: &mut F) -> bool;

    /// Generations run so far.
    fn generations_run(&self) -> usize;

    /// Clones of the `count` members this island sends at a barrier.
    fn export(&self, count: usize) -> Vec<Individual>;

    /// Take in another island's exports in place of the worst members.
    fn migrate_in(&mut self, immigrants: Vec<Individual>);

    /// Run at most `max` generations.
    fn run_chunk<F: FnMut(&Self::Stats)>(&mut self, max: usize, observer: &mut F) {
        let mut ran = 0;
        while ran < max && self.step(observer) {
            ran += 1;
        }
    }
}

/// Deal members round-robin into `k` parts: part `j` gets members `j`,
/// `j + K`, … — with a score-sorted input, every island starts with a
/// stratified slice of the quality range.
fn deal<T>(members: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let mut parts: Vec<Vec<T>> = (0..k).map(|_| Vec::new()).collect();
    for (i, m) in members.into_iter().enumerate() {
        parts[i % k].push(m);
    }
    parts
}

/// The epoch loop both optimizers share; returns the critical path.
///
/// A single island runs to completion on the calling thread and streams
/// each generation's event as it finishes. K ≥ 2 islands advance one
/// migration interval per epoch, one executor task per island; then, on
/// the calling thread and in island order, their events replay and
/// migrants move one step along the ring.
fn run_epochs<R: IslandRunner>(
    runners: &mut [R],
    islands: IslandConfig,
    observer: &mut impl FnMut(&IslandEvent),
) -> Duration {
    if let [runner] = runners {
        let started = Instant::now();
        runner.run_chunk(usize::MAX, &mut |s: &R::Stats| observer(&R::event(0, *s)));
        return started.elapsed();
    }
    let k = runners.len();
    let mut critical_path = Duration::ZERO;
    while runners.iter().any(|r| !r.finished()) {
        let tasks: Vec<Mutex<&mut R>> = runners.iter_mut().map(Mutex::new).collect();
        let epochs = run_indexed(k, |j| {
            let mut runner = tasks[j].lock().expect("only island j's task locks it");
            let busy = CpuStopwatch::start();
            let mut events = Vec::new();
            runner.run_chunk(islands.migration_interval, &mut |s: &R::Stats| {
                events.push(*s)
            });
            (events, busy.elapsed())
        });
        drop(tasks);
        critical_path += epochs.iter().map(|(_, d)| *d).max().unwrap_or_default();
        for (island, (events, _)) in epochs.into_iter().enumerate() {
            for stats in events {
                observer(&R::event(island, stats));
            }
        }
        if islands.migration_size > 0 && runners.iter().any(|r| !r.finished()) {
            // snapshot every export before any import: migration is a
            // simultaneous exchange, not a chain
            let exports: Vec<Vec<Individual>> = runners
                .iter()
                .map(|r| r.export(islands.migration_size))
                .collect();
            for (src, exported) in exports.into_iter().enumerate() {
                let dst = (src + 1) % k;
                let emigrants = exported.len();
                runners[dst].migrate_in(exported);
                observer(&IslandEvent::Migration {
                    generation: runners[src].generations_run(),
                    island: src,
                    emigrants,
                });
            }
        }
    }
    critical_path
}

/// Entry points of the island scheduler: bind an evaluator and a config,
/// then load the population and run, exactly like the underlying
/// optimizers.
pub struct IslandModel;

impl IslandModel {
    /// An island-model run of the scalar evolutionary algorithm
    /// (Algorithm 1). With `config.islands.count == 1` this is the legacy
    /// [`Evolution`] run, bit for bit.
    pub fn scalar(evaluator: Evaluator, config: EvoConfig) -> ScalarIslands {
        ScalarIslands {
            islands: config.islands,
            evolution: Evolution::new(evaluator, config),
        }
    }

    /// An island-model NSGA-II run. With `config.islands.count == 1` this
    /// is the legacy [`Nsga2`] run, bit for bit.
    pub fn nsga(evaluator: Evaluator, config: NsgaConfig) -> NsgaIslands {
        NsgaIslands {
            islands: config.islands,
            nsga: Nsga2::new(evaluator, config),
        }
    }
}

/// A configured scalar island run (see [`IslandModel::scalar`]).
pub struct ScalarIslands {
    evolution: Evolution,
    islands: IslandConfig,
}

impl ScalarIslands {
    /// Load and evaluate the initial population (once, for all islands).
    ///
    /// # Errors
    /// Everything [`Evolution::with_named_population`] rejects, plus an
    /// [`EvoError::InvalidConfig`] when there are fewer members than
    /// islands.
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.evolution = self.evolution.with_named_population(items)?;
        let len = self.evolution.population_len();
        if self.islands.count > len {
            return Err(EvoError::InvalidConfig(format!(
                "islands count {} exceeds population size {len}",
                self.islands.count
            )));
        }
        Ok(self)
    }

    /// Drop the best fraction of the full (pre-split) population — the
    /// §3.3 robustness experiment.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] when called before loading.
    pub fn drop_best_fraction(mut self, fraction: f64) -> Result<Self> {
        self.evolution = self.evolution.drop_best_fraction(fraction)?;
        Ok(self)
    }

    /// Run to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> EvolutionOutcome {
        self.run_with(|_| {})
    }

    /// Run to completion, streaming [`IslandEvent`]s to `observer` (which
    /// draws nothing from any RNG stream).
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with<F: FnMut(&IslandEvent)>(self, observer: F) -> EvolutionOutcome {
        self.run_with_timing(observer).0
    }

    /// [`ScalarIslands::run_with`], also measuring [`IslandTiming`].
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with_timing<F: FnMut(&IslandEvent)>(
        self,
        mut observer: F,
    ) -> (EvolutionOutcome, IslandTiming) {
        let wall_start = Instant::now();
        let (evaluator, config, population, initial_evaluations) = self.evolution.into_parts();
        let pop = population.expect("population must be loaded before run()");
        // dropping leaders may have shrunk the population below K
        let k = config.islands.count.min(pop.len()).max(1);
        let initial = pop.scatter();
        let initial_scores = pop.scores().to_vec();
        let n = pop.len();
        let parts = deal(pop.into_members(), k);
        // equal total budget: the configured iteration count splits across
        // islands (remainder to the low indices)
        let total_iters = config.iterations;
        let shares: Vec<usize> = parts.iter().map(Vec::len).collect();
        let mut runners: Vec<EvolutionRunner> = parts
            .into_iter()
            .enumerate()
            .map(|(j, part)| {
                let mut island_cfg = config;
                island_cfg.seed = config.seed ^ island_hash(j);
                island_cfg.iterations = (total_iters / k + usize::from(j < total_iters % k)).max(1);
                island_cfg.islands.count = 1;
                // island 0 absorbs the evaluations of members dropped
                // before the split so the aggregate matches the legacy
                // accounting exactly
                let share = if j == 0 {
                    initial_evaluations - (shares.iter().sum::<usize>() - shares[0])
                } else {
                    shares[j]
                };
                EvolutionRunner::start(
                    Evolution::new(evaluator.clone(), island_cfg)
                        .with_population(Population::new(part), share),
                )
            })
            .collect();
        let critical_path = run_epochs(&mut runners, config.islands, &mut observer);
        if k == 1 {
            let outcome = runners.pop().expect("one island").finish();
            let wall = wall_start.elapsed();
            return (
                outcome,
                IslandTiming {
                    wall,
                    critical_path,
                },
            );
        }

        // merge, in island-index order
        let outcomes: Vec<EvolutionOutcome> =
            runners.into_iter().map(EvolutionRunner::finish).collect();
        let mut eval_counts = EvalCounts::default();
        let mut iterations_run = 0usize;
        let mut archive = ParetoArchive::new();
        let mut members: Vec<Individual> = Vec::with_capacity(n);
        for o in outcomes {
            eval_counts.full += o.eval_counts.full;
            eval_counts.incremental += o.eval_counts.incremental;
            iterations_run += o.iterations_run;
            for point in o.pareto_front {
                archive.offer(point);
            }
            members.extend(o.population.into_members());
        }
        let merged = Population::new(members);
        // the merged trace keeps the endpoints only: the initial full
        // population and the merged final one (per-island series stream to
        // the observer as IslandEvent::Generation)
        let mut trace = Trace::default();
        trace.record(0, &initial_scores, None, false);
        trace.record(iterations_run, merged.scores(), None, false);
        let outcome = EvolutionOutcome {
            initial,
            final_points: merged.scatter(),
            trace,
            iterations_run,
            pareto_front: archive.front(),
            eval_counts,
            population: merged,
        };
        let wall = wall_start.elapsed();
        (
            outcome,
            IslandTiming {
                wall,
                critical_path,
            },
        )
    }
}

/// A configured NSGA-II island run (see [`IslandModel::nsga`]).
pub struct NsgaIslands {
    nsga: Nsga2,
    islands: IslandConfig,
}

impl NsgaIslands {
    /// Replace the objective set every island minimizes (defaults to the
    /// canonical `il, dr` pair). Forwarded to [`Nsga2::with_objectives`];
    /// the merge rule is unchanged — island fronts union under dominance
    /// over whatever vector the set produces.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.nsga = self.nsga.with_objectives(objectives);
        self
    }

    /// Load and evaluate the initial population (once, for all islands).
    ///
    /// # Errors
    /// Everything [`Nsga2::with_named_population`] rejects, plus an
    /// [`EvoError::InvalidConfig`] when there are fewer members than
    /// islands.
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.nsga = self.nsga.with_named_population(items)?;
        let len = self.nsga.population_len();
        if self.islands.count > len {
            return Err(EvoError::InvalidConfig(format!(
                "islands count {} exceeds population size {len}",
                self.islands.count
            )));
        }
        Ok(self)
    }

    /// Run to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> NsgaOutcome {
        self.run_with(|_| {})
    }

    /// Run to completion, streaming [`IslandEvent`]s to `observer`.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with<F: FnMut(&IslandEvent)>(self, observer: F) -> NsgaOutcome {
        self.run_with_timing(observer).0
    }

    /// [`NsgaIslands::run_with`], also measuring [`IslandTiming`].
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with_timing<F: FnMut(&IslandEvent)>(
        self,
        mut observer: F,
    ) -> (NsgaOutcome, IslandTiming) {
        let wall_start = Instant::now();
        let (evaluator, config, objectives, population) = self.nsga.into_parts();
        let members = population.expect("population must be loaded before run()");
        let k = config.islands.count.min(members.len()).max(1);
        let reference = objectives.reference();
        let initial_front = pareto_front_of(&members);
        let initial_pts: Vec<ObjectiveVector> =
            initial_front.iter().map(|p| p.objectives).collect();
        let initial_hv = hypervolume_vec(&initial_pts, &reference);
        // equal total budget: every island runs the full generation count
        // on its 1/K-sized subpopulation, so the per-generation offspring
        // batch (λ = subpopulation size when `offspring` is 0) shrinks by
        // K and the total evaluation count matches the K = 1 run
        let mut runners: Vec<NsgaRunner> = deal(members, k)
            .into_iter()
            .enumerate()
            .map(|(j, part)| {
                let mut island_cfg = config;
                island_cfg.seed = config.seed ^ island_hash(j);
                island_cfg.islands.count = 1;
                if config.offspring > 0 {
                    island_cfg.offspring =
                        (config.offspring / k + usize::from(j < config.offspring % k)).max(1);
                }
                NsgaRunner::start(
                    Nsga2::new(evaluator.clone(), island_cfg)
                        .with_objectives(objectives.clone())
                        .with_population(part),
                )
            })
            .collect();
        let critical_path = run_epochs(&mut runners, config.islands, &mut observer);
        if k == 1 {
            let outcome = runners.pop().expect("one island").finish();
            let wall = wall_start.elapsed();
            return (
                outcome,
                IslandTiming {
                    wall,
                    critical_path,
                },
            );
        }

        // merge, in island-index order
        let outcomes: Vec<NsgaOutcome> = runners.into_iter().map(NsgaRunner::finish).collect();
        let mut eval_counts = EvalCounts::default();
        let mut archive = ParetoArchive::new();
        let mut union: Vec<Individual> = Vec::new();
        let mut series: Vec<Vec<f64>> = Vec::new();
        for o in outcomes {
            eval_counts.full += o.eval_counts.full;
            eval_counts.incremental += o.eval_counts.incremental;
            for point in o.archive_front {
                archive.offer(point);
            }
            union.extend(o.front_members);
            series.push(o.hypervolume_series);
        }
        // the merged front is the non-dominated filter of the union of
        // island fronts, IL-ascending (ties keep island order)
        let objs: Vec<ObjectiveVector> = union.iter().map(Individual::objectives).collect();
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
        let front: Vec<ScatterPoint> = idx.iter().map(|&i| ScatterPoint::of(&union[i])).collect();
        let front_members: Vec<Individual> = idx.into_iter().map(|i| union[i].clone()).collect();
        // merged hypervolume series: the initial full-population front,
        // then the per-generation maximum across islands, with the final
        // entry recomputed on the merged front
        let max_len = series.iter().map(Vec::len).max().unwrap_or(1);
        let mut hv_series = Vec::with_capacity(max_len);
        hv_series.push(initial_hv);
        for g in 1..max_len {
            let best = series
                .iter()
                .filter_map(|s| s.get(g))
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            hv_series.push(best);
        }
        let merged_pts: Vec<ObjectiveVector> = front.iter().map(|p| p.objectives).collect();
        let merged_hv = hypervolume_vec(&merged_pts, &reference);
        if hv_series.len() > 1 {
            *hv_series.last_mut().expect("non-empty") = merged_hv;
        }
        let mut archive_front = archive.front();
        archive_front.sort_by(|a, b| a.il.partial_cmp(&b.il).expect("finite"));
        let outcome = NsgaOutcome {
            front,
            front_members,
            initial_front,
            archive_front,
            hypervolume_series: hv_series,
            evaluations: eval_counts.total(),
            eval_counts,
            objectives,
        };
        let wall = wall_start.elapsed();
        (
            outcome,
            IslandTiming {
                wall,
                critical_path,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsga::{hypervolume, non_dominated_points, HV_REFERENCE};
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::MetricConfig;
    use cdp_sdc::{build_population, SuiteConfig};

    fn setup(seed: u64, records: usize) -> (Vec<(String, SubTable)>, Evaluator) {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(records));
        let pop = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        (pop.into_iter().map(Into::into).collect(), ev)
    }

    fn scalar_cfg(seed: u64, iters: usize, islands: IslandConfig) -> EvoConfig {
        let mut cfg = EvoConfig::builder().seed(seed).iterations(iters).build();
        cfg.islands = islands;
        cfg
    }

    #[test]
    fn island_hash_spreads_streams_and_pins_island_zero() {
        assert_eq!(island_hash(0), 0);
        let hashes: Vec<u64> = (0..8).map(island_hash).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn k1_matches_the_legacy_scalar_run_bit_for_bit() {
        let (pop, ev) = setup(21, 40);
        let cfg = scalar_cfg(21, 25, IslandConfig::default());
        let legacy = Evolution::new(ev.clone(), cfg)
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandModel::scalar(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(legacy.final_points, islands.final_points);
        assert_eq!(legacy.trace.generations, islands.trace.generations);
        assert_eq!(legacy.pareto_front, islands.pareto_front);
        assert_eq!(legacy.eval_counts, islands.eval_counts);
        assert_eq!(legacy.iterations_run, islands.iterations_run);
    }

    #[test]
    fn k1_matches_the_legacy_nsga_run_bit_for_bit() {
        let (pop, ev) = setup(22, 40);
        let cfg = NsgaConfig {
            generations: 6,
            seed: 22,
            ..NsgaConfig::default()
        };
        let legacy = Nsga2::new(ev.clone(), cfg)
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(legacy.front, islands.front);
        assert_eq!(legacy.initial_front, islands.initial_front);
        assert_eq!(legacy.archive_front, islands.archive_front);
        assert_eq!(legacy.hypervolume_series, islands.hypervolume_series);
        assert_eq!(legacy.eval_counts, islands.eval_counts);
        for (a, b) in legacy.front_members.iter().zip(&islands.front_members) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn same_seed_k4_scalar_runs_are_bit_identical() {
        let run = || {
            let (pop, ev) = setup(23, 40);
            let islands = IslandConfig {
                count: 4,
                migration_interval: 5,
                ..IslandConfig::default()
            };
            let cfg = scalar_cfg(23, 40, islands);
            let mut events = Vec::new();
            let outcome = IslandModel::scalar(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run_with(|e| events.push(e.clone()));
            (outcome, events)
        };
        let (a, ae) = run();
        let (b, be) = run();
        assert_eq!(a.final_points, b.final_points);
        assert_eq!(a.trace.generations, b.trace.generations);
        assert_eq!(a.pareto_front, b.pareto_front);
        assert_eq!(a.eval_counts, b.eval_counts);
        assert_eq!(ae, be, "event streams must be deterministic");
        assert!(ae
            .iter()
            .any(|e| matches!(e, IslandEvent::Migration { .. })));
    }

    #[test]
    fn same_seed_k3_nsga_runs_are_bit_identical() {
        let run = || {
            let (pop, ev) = setup(24, 40);
            let mut cfg = NsgaConfig {
                generations: 6,
                seed: 24,
                ..NsgaConfig::default()
            };
            cfg.islands.count = 3;
            cfg.islands.migration_interval = 2;
            let mut events = Vec::new();
            let outcome = IslandModel::nsga(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run_with(|e| events.push(e.clone()));
            (outcome, events)
        };
        let (a, ae) = run();
        let (b, be) = run();
        assert_eq!(a.front, b.front);
        assert_eq!(a.archive_front, b.archive_front);
        assert_eq!(a.hypervolume_series, b.hypervolume_series);
        assert_eq!(a.eval_counts, b.eval_counts);
        assert_eq!(ae, be, "event streams must be deterministic");
    }

    #[test]
    fn k4_scalar_budget_matches_k1_and_preserves_population() {
        let (pop, ev) = setup(25, 40);
        let n = pop.len();
        let iters = 30;
        let k1 = IslandModel::scalar(ev.clone(), scalar_cfg(25, iters, IslandConfig::default()))
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandConfig {
            count: 4,
            migration_interval: 4,
            ..IslandConfig::default()
        };
        let k4 = IslandModel::scalar(ev, scalar_cfg(25, iters, islands))
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(
            k4.population.len(),
            n,
            "merge must preserve the population size"
        );
        assert_eq!(
            k4.iterations_run, k1.iterations_run,
            "equal iteration budget"
        );
        assert_eq!(k4.initial.len(), n);
        for p in k4.final_points.iter() {
            assert!(p.score.is_finite());
            assert!((0.0..=100.0).contains(&p.il));
            assert!((0.0..=100.0).contains(&p.dr));
        }
    }

    #[test]
    fn nsga_merged_front_is_the_nondominated_filter_of_island_fronts() {
        let (pop, ev) = setup(26, 40);
        let mut cfg = NsgaConfig {
            generations: 5,
            seed: 26,
            ..NsgaConfig::default()
        };
        cfg.islands.count = 2;
        cfg.islands.migration_interval = 2;
        let out = IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        // the merged front must be mutually non-dominated …
        for a in &out.front {
            for b in &out.front {
                let dominates = a.il <= b.il && a.dr <= b.dr && (a.il < b.il || a.dr < b.dr);
                assert!(!dominates, "merged front contains a dominated point");
            }
        }
        // … aligned with its members, IL-ascending, and idempotent under
        // the published merge rule
        assert_eq!(out.front.len(), out.front_members.len());
        for w in out.front.windows(2) {
            assert!(w[0].il <= w[1].il);
        }
        assert_eq!(non_dominated_points(&out.front), out.front);
        // the final hypervolume entry is the merged front's
        let pts: Vec<(f64, f64)> = out.front.iter().map(|p| (p.il, p.dr)).collect();
        let expect = hypervolume(&pts, HV_REFERENCE);
        assert_eq!(*out.hypervolume_series.last().unwrap(), expect);
    }

    #[test]
    fn more_islands_than_members_is_rejected() {
        let (pop, ev) = setup(27, 40);
        let n = pop.len();
        let islands = IslandConfig {
            count: n + 1,
            ..IslandConfig::default()
        };
        let err = IslandModel::scalar(ev.clone(), scalar_cfg(27, 10, islands))
            .with_named_population(pop.clone())
            .err();
        assert!(matches!(err, Some(EvoError::InvalidConfig(_))));
        let mut cfg = NsgaConfig::default();
        cfg.islands.count = n + 1;
        assert!(IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .is_err());
    }

    #[test]
    fn migration_size_zero_runs_isolated_islands() {
        let (pop, ev) = setup(28, 40);
        let islands = IslandConfig {
            count: 2,
            migration_size: 0,
            ..IslandConfig::default()
        };
        let mut events = Vec::new();
        let out = IslandModel::scalar(ev, scalar_cfg(28, 16, islands))
            .with_named_population(pop)
            .unwrap()
            .run_with(|e| events.push(e.clone()));
        assert!(events
            .iter()
            .all(|e| !matches!(e, IslandEvent::Migration { .. })));
        assert_eq!(out.iterations_run, 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Migration invariants over random island configurations: the
        /// merged population keeps its size, every member stays a valid
        /// evaluated protection, and the budget split is exact.
        #[test]
        fn migration_preserves_population_over_random_configs(
            k in 1usize..=4,
            interval in 1usize..=3,
            size in 0usize..=2,
            seed in 0u64..1000,
        ) {
            let (pop, ev) = setup(29, 30);
            let n = pop.len();
            let islands = IslandConfig {
                count: k,
                migration_interval: interval,
                migration_size: size,
            };
            let iters = 12;
            let out = IslandModel::scalar(ev, scalar_cfg(seed, iters, islands))
                .with_named_population(pop)
                .unwrap()
                .run();
            proptest::prop_assert_eq!(out.population.len(), n);
            proptest::prop_assert_eq!(out.iterations_run, iters);
            for p in &out.final_points {
                proptest::prop_assert!(p.score.is_finite());
            }
        }

        /// The merge rule: `non_dominated_points` of a union of fronts
        /// returns exactly the union members not dominated by any other
        /// union member, IL-ascending.
        #[test]
        fn merged_front_equals_nondominated_filter_of_union(
            points in proptest::collection::vec((0u32..100, 0u32..100), 1..40),
        ) {
            let union: Vec<ScatterPoint> = points
                .iter()
                .enumerate()
                .map(|(i, &(il, dr))| ScatterPoint::from_pair(
                    format!("p{i}"),
                    f64::from(il),
                    f64::from(dr),
                    f64::from(il.max(dr)),
                ))
                .collect();
            let merged = non_dominated_points(&union);
            let dominated = |p: &ScatterPoint| {
                union.iter().any(|q| {
                    q.il <= p.il && q.dr <= p.dr && (q.il < p.il || q.dr < p.dr)
                })
            };
            for p in &union {
                let in_merged = merged.iter().any(|m| m.name == p.name);
                proptest::prop_assert_eq!(
                    in_merged, !dominated(p),
                    "{} must be kept iff non-dominated", p.name.clone()
                );
            }
            for w in merged.windows(2) {
                proptest::prop_assert!(w[0].il <= w[1].il);
            }
        }
    }
}
