//! Parallel fitness evaluation: the initial population, and per-generation
//! offspring batches.
//!
//! Evaluating ~100 protections at ~O(n²) each dominates experiment startup;
//! the evaluator is immutable after construction, so the work parallelizes
//! embarrassingly with crossbeam's scoped threads (no `'static` bounds, no
//! cloning of the evaluator). The same property covers the per-generation
//! work: [`evaluate_tasks`] scores a mixed batch of full assessments and
//! patch-based re-assessments ([`EvalTask`]), which is how the two
//! crossover offspring of a scalar generation and the λ offspring of an
//! NSGA-II generation run concurrently. Evaluation draws no RNG, so a
//! parallel run is bit-identical to a serial one.
//!
//! Offspring are always scored by patching a parent's cached state; the
//! patched assessment equals a full one bit for bit. Debug builds check
//! that on every 16th patched offspring of a run.

use cdp_dataset::SubTable;
use cdp_metrics::{Assessment, EvalState, Evaluator, Patch};

/// Row count under which spawning threads for an offspring pair costs more
/// than it saves (thread startup is ~tens of µs; an assessment of a file
/// this small is of the same order).
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
    /// Full O(n²) assessment of a masked file.
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

/// Evaluate a batch of tasks, preserving order. `parallel = false` (or a
/// batch of one) degrades to a serial loop.
pub fn evaluate_tasks(
    evaluator: &Evaluator,
    tasks: &[EvalTask<'_>],
    parallel: bool,
) -> Vec<EvalState> {
    if !parallel || tasks.len() < 2 {
        return tasks.iter().map(|t| t.run(evaluator)).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(tasks.len());
    let chunk = tasks.len().div_ceil(workers);
    let mut out: Vec<Option<EvalState>> = Vec::with_capacity(tasks.len());
    out.resize_with(tasks.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (slot_chunk, task_chunk) in out.chunks_mut(chunk).zip(tasks.chunks(chunk)) {
            scope.spawn(move |_| {
                for (slot, task) in slot_chunk.iter_mut().zip(task_chunk.iter()) {
                    *slot = Some(task.run(evaluator));
                }
            });
        }
    })
    .expect("evaluation workers must not panic");
    out.into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Evaluate every named protection, preserving order. `parallel = false`
/// degrades to a serial loop (used by the ablation bench as the baseline).
/// A thin wrapper over [`evaluate_tasks`]: one chunked scoped-thread
/// engine serves both the initial population and per-generation batches.
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
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::MetricConfig;
    use cdp_sdc::{build_population, SuiteConfig};

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
