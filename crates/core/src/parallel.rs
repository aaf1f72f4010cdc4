//! The one executor of `cdp_core`: the initial population, each
//! generation's offspring batch and each island epoch all run on it.
//!
//! Fitness evaluation dominates a run, and every piece of parallel work in
//! this crate has one shape: run N independent tasks and return their
//! results in order. `run_indexed` is that shape. Threads claim task
//! indices from one counter, so tasks of unequal cost balance across the
//! cores, and each result lands in its own index's slot, so the output
//! never depends on scheduling. Evaluation draws no RNG, so a parallel
//! batch is bit-identical to a serial one. [`evaluate_tasks`] scores a
//! mixed batch of full assessments and patch-based re-assessments
//! ([`EvalTask`]) on it.
//!
//! Offspring are always scored by patching a parent's cached state; the
//! patched assessment equals a full one bit for bit. Debug builds check
//! that on every 16th patched offspring of a run.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use cdp_dataset::SubTable;
use cdp_metrics::{Assessment, EvalState, Evaluator, Patch};

/// Row count under which an offspring batch runs inline: handing a task
/// to another thread costs about as much as assessing a file this small.
pub const MIN_PARALLEL_EVAL_ROWS: usize = 256;

/// Debug builds re-score every this-many-th patched offspring of a run
/// with a full assessment and assert the two agree bit for bit.
pub(crate) const CROSS_CHECK_EVERY: usize = 16;

/// Debug builds only: when `ordinal` (the 1-based count of patched
/// offspring so far in this run) is a multiple of [`CROSS_CHECK_EVERY`],
/// assert that the patched `assessment` of `masked` equals a full
/// assessment bit for bit. The extra assessment is not counted in
/// [`crate::EvalCounts`], so debug and release runs report the same
/// counts; release builds compile the check away.
///
/// # Panics
/// Panics when the patched assessment diverged from the full one.
pub(crate) fn cross_check(
    evaluator: &Evaluator,
    ordinal: usize,
    masked: &SubTable,
    assessment: &Assessment,
) {
    if cfg!(debug_assertions) && ordinal.is_multiple_of(CROSS_CHECK_EVERY) {
        assert_eq!(
            *assessment,
            evaluator.assess(masked).assessment,
            "patched offspring {ordinal} diverged from the full assessment"
        );
    }
}

/// One fitness evaluation to perform.
pub enum EvalTask<'a> {
    /// Full assessment of a masked file.
    Full(&'a SubTable),
    /// Patch-based re-assessment from a cached parent state.
    Patch {
        /// The parent's cached evaluation state.
        prev: &'a EvalState,
        /// The offspring file (already carrying the new values).
        masked: &'a SubTable,
        /// The cells the operator changed.
        patch: &'a Patch,
    },
}

impl EvalTask<'_> {
    fn run(&self, evaluator: &Evaluator) -> EvalState {
        match self {
            EvalTask::Full(data) => evaluator.assess(data),
            EvalTask::Patch {
                prev,
                masked,
                patch,
            } => evaluator.reassess(prev, masked, patch),
        }
    }
}

thread_local! {
    /// Whether this thread is running a task of a parallel batch.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Clears [`IN_BATCH`] when dropped, also when a task unwinds.
struct InBatch;

impl Drop for InBatch {
    fn drop(&mut self) {
        IN_BATCH.set(false);
    }
}

/// The cores this process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Run tasks `0..n` and return their results in index order.
///
/// The calling thread and `min(cores, n) - 1` scoped workers each claim
/// the next unclaimed index until none is left, and each result lands in
/// its index's slot. A batch of fewer than two tasks or on one core runs
/// inline on the calling thread, and so does a batch submitted from inside
/// a task of a running batch: its parent already occupies every core.
///
/// # Panics
/// Re-raises a task's panic once every thread of the batch has stopped.
pub(crate) fn run_indexed<T, F>(n: usize, task: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let threads = if IN_BATCH.get() { 1 } else { cores().min(n) };
    if threads < 2 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let work = || {
        IN_BATCH.set(true);
        let _in_batch = InBatch;
        loop {
            // the counter only hands out indices; the results travel
            // through the slots and the scope's joins
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            assert!(slots[i].set(task(i)).is_ok(), "index {i} claimed twice");
        }
    };
    crossbeam::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|_| work());
        }
        work();
    })
    .expect("the scope re-raises a worker's panic instead of returning it");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed"))
        .collect()
}

/// Evaluate a batch of tasks, preserving order: on the executor, or in a
/// serial loop when `parallel` is false.
pub fn evaluate_tasks(
    evaluator: &Evaluator,
    tasks: &[EvalTask<'_>],
    parallel: bool,
) -> Vec<EvalState> {
    if !parallel {
        return tasks.iter().map(|t| t.run(evaluator)).collect();
    }
    run_indexed(tasks.len(), |i| tasks[i].run(evaluator))
}

/// Evaluate one generation's offspring: on the executor when the file has
/// at least [`MIN_PARALLEL_EVAL_ROWS`] rows, inline otherwise.
pub(crate) fn evaluate_offspring(evaluator: &Evaluator, tasks: &[EvalTask<'_>]) -> Vec<EvalState> {
    let parallel = evaluator.prepared().n_rows() >= MIN_PARALLEL_EVAL_ROWS;
    evaluate_tasks(evaluator, tasks, parallel)
}

/// Evaluate every named protection, preserving order. `parallel = false`
/// degrades to a serial loop (the reference the tests hold the executor
/// to).
pub fn evaluate_all(
    evaluator: &Evaluator,
    items: &[(String, SubTable)],
    parallel: bool,
) -> Vec<EvalState> {
    let tasks: Vec<EvalTask<'_>> = items.iter().map(|(_, d)| EvalTask::Full(d)).collect();
    evaluate_tasks(evaluator, &tasks, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvoConfig, Evolution};
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::MetricConfig;
    use cdp_sdc::{build_population, SuiteConfig};

    proptest::proptest! {
        /// Batches below, at and above the core count: the output is the
        /// serial map in index order, and every task runs exactly once.
        #[test]
        fn executor_output_is_the_serial_map_and_runs_each_task_once(n in 0usize..=17) {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = run_indexed(n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i * i + 1
            });
            let serial: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
            proptest::prop_assert_eq!(out, serial);
            for (i, count) in runs.iter().enumerate() {
                proptest::prop_assert_eq!(count.load(Ordering::Relaxed), 1, "task {}", i);
            }
        }
    }

    #[test]
    fn a_batch_submitted_from_a_task_runs_on_that_tasks_thread() {
        let nested_inline = run_indexed(4, |_| {
            let outer = std::thread::current().id();
            run_indexed(3, |_| std::thread::current().id())
                .into_iter()
                .all(|inner| inner == outer)
        });
        assert_eq!(nested_inline, vec![true; 4]);
    }

    #[test]
    fn a_panicking_task_panics_the_caller() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(8, |i| {
                assert_ne!(i, 5, "task 5 fails");
                i
            })
        });
        assert!(result.is_err());
        // the caller leaves the batch even when a task unwinds
        assert!(!IN_BATCH.get());
    }

    #[test]
    fn executor_offspring_are_bit_identical_to_inline_offspring() {
        // large enough that crossover offspring go to the executor at top
        // level; inside an executor task the same pairs run inline
        let rows = MIN_PARALLEL_EVAL_ROWS + 14;
        let run = || {
            let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(19).with_records(rows));
            let pop = build_population(&ds, &SuiteConfig::small(), 19).unwrap();
            let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
            assert!(ev.prepared().n_rows() >= MIN_PARALLEL_EVAL_ROWS);
            let cfg = EvoConfig::builder()
                .iterations(14)
                .mutation_rate(0.0)
                .seed(19)
                .build();
            Evolution::new(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run()
        };
        let top = run();
        for nested in run_indexed(2, |_| run()) {
            assert_eq!(top.population.scores(), nested.population.scores());
            assert_eq!(top.eval_counts, nested.eval_counts);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(3).with_records(60));
        let pop = build_population(&ds, &SuiteConfig::small(), 3).unwrap();
        let items: Vec<(String, SubTable)> = pop.into_iter().map(Into::into).collect();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let serial = evaluate_all(&ev, &items, false);
        let par = evaluate_all(&ev, &items, true);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(par.iter()) {
            assert_eq!(a.assessment, b.assessment);
        }
    }

    #[test]
    fn mixed_task_batch_matches_direct_calls() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(4).with_records(80));
        let sub = ds.protected_subtable();
        let ev = Evaluator::new(&sub, MetricConfig::default()).unwrap();
        let state = ev.assess(&sub);
        let mut mutated = sub.clone();
        let old = mutated.get(7, 1);
        let cats = sub.attr(1).n_categories() as cdp_dataset::Code;
        mutated.set(7, 1, (old + 1) % cats);
        let patch = Patch::cell(7, 1, old);
        let tasks = [
            EvalTask::Full(&mutated),
            EvalTask::Patch {
                prev: &state,
                masked: &mutated,
                patch: &patch,
            },
        ];
        for parallel in [false, true] {
            let out = evaluate_tasks(&ev, &tasks, parallel);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].assessment, ev.assess(&mutated).assessment);
            assert_eq!(
                out[1].assessment,
                ev.reassess(&state, &mutated, &patch).assessment
            );
        }
    }

    #[test]
    fn single_item_short_circuits() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let sub = ds.protected_subtable();
        let ev = Evaluator::new(&sub, MetricConfig::default()).unwrap();
        let items = vec![("id".to_string(), sub)];
        let out = evaluate_all(&ev, &items, true);
        assert_eq!(out.len(), 1);
        assert!(out[0].assessment.il() < 1e-9);
    }
}
