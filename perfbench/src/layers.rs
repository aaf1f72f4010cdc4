//! Direct calls into each layer's public functions, timed one by one.
//!
//! The traced run drives one job's pieces by hand — resolve the source,
//! prepare the evaluator, mask the population, assess and reassess — so
//! each layer's cost is measured where its work happens, outside the
//! pipeline's own bookkeeping.

use std::error::Error;
use std::time::{Duration, Instant};

use cdp::core::evaluate_all;
use cdp::dataset::{Code, PatternIndex, SubTable};
use cdp::metrics::{Assessment, Evaluator, Patch};
use cdp::pipeline::{ProtectionJob, SharedSession, SourceData};

use crate::alloc;
use crate::seeds::Rng;
use crate::stats::{median, secs};

/// Repetitions of the cheap whole-population calls (median reported).
const REPS: usize = 3;
/// Single-cell reassessments sampled.
const CELL_SAMPLES: usize = 25;
/// Crossover-segment reassessments sampled.
const SEGMENT_SAMPLES: usize = 9;

/// One job's pieces, built through the public calls a hand-wired run uses.
pub struct Probe {
    pub src: SourceData,
    pub original: SubTable,
    pub evaluator: Evaluator,
    pub population: Vec<(String, SubTable)>,
}

/// Per-layer timings and sizes from the direct calls.
pub struct LayerFigures {
    pub metrics_prepare_s: f64,
    pub sdc_mask_s: f64,
    pub core_init_eval_s: f64,
    pub metrics_assess_s: f64,
    pub core_init_speedup: f64,
    pub metrics_reassess_cell_s: f64,
    pub metrics_reassess_segment_s: f64,
    pub metrics_prepared_bytes: f64,
    pub metrics_state_bytes: f64,
    /// Distinct record patterns of the original (an input property).
    pub original_patterns: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Resolve, prepare and mask `job` by hand, timing each layer on the way.
pub fn probe(job: &ProtectionJob, seed: u64) -> Result<(Probe, LayerFigures), Box<dyn Error>> {
    let src = job.resolve_source()?;
    let original = src.original();
    let original_patterns = PatternIndex::build(&original).n_patterns();

    let mut prepare = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (evaluator, t) = timed(|| Evaluator::new(&original, job.metrics()));
        evaluator?;
        prepare.push(t);
    }
    let (evaluator, _) = SharedSession::new().evaluator_for(&original, job.metrics())?;

    let mut mask = Vec::with_capacity(REPS);
    let mut population = Vec::new();
    for _ in 0..REPS {
        let (pop, t) = timed(|| job.seed_population(&src));
        population = pop?;
        mask.push(t);
    }

    let mut init = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (states, t) = timed(|| evaluate_all(&evaluator, &population, true));
        drop(states);
        init.push(t);
    }
    let mut assess = Vec::with_capacity(population.len());
    let mut states = Vec::with_capacity(population.len());
    for (_, data) in &population {
        let (state, t) = timed(|| evaluator.assess(data));
        states.push(state);
        assess.push(t);
    }
    let serial_s: f64 = secs(&assess).iter().sum();

    // the benchmark is single-threaded here, so the live-byte delta is
    // exactly what one retained state holds on the heap
    let before = alloc::live();
    let state = evaluator.assess(&population[0].1);
    let state_bytes = alloc::live().saturating_sub(before);
    drop(state);

    let mut rng = Rng::new(seed);
    let mut cell = Vec::with_capacity(CELL_SAMPLES);
    while cell.len() < CELL_SAMPLES {
        let m = rng.below(population.len());
        let data = &population[m].1;
        let (row, k) = (rng.below(data.n_rows()), rng.below(data.n_attrs()));
        let cats = data.attr(k).n_categories();
        if cats < 2 {
            continue;
        }
        let old = data.get(row, k);
        let new = ((usize::from(old) + 1 + rng.below(cats - 1)) % cats) as Code;
        let mut mutated = data.clone();
        mutated.set(row, k, new);
        let patch = Patch::cell(row, k, old);
        let (_, t) = timed(|| evaluator.reassess(&states[m], &mutated, &patch));
        cell.push(t);
    }

    let mut segment = Vec::with_capacity(SEGMENT_SAMPLES);
    for _ in 0..SEGMENT_SAMPLES {
        // the two-point crossover's shape: y's flat segment [s, r] in x
        let x = rng.below(population.len());
        let y = rng.below(population.len());
        let (xd, yd) = (&population[x].1, &population[y].1);
        let len = xd.flat_len();
        let s = rng.below(len);
        let r = s + rng.below(len - s);
        let mut child = xd.clone();
        let old: Vec<Code> = (s..=r).map(|p| xd.get_flat(p)).collect();
        for p in s..=r {
            child.set_flat(p, yd.get_flat(p));
        }
        let patch = Patch::flat_range(s, r, old);
        let (_, t) = timed(|| evaluator.reassess(&states[x], &child, &patch));
        segment.push(t);
    }

    let init_eval_s = median(&secs(&init));
    let figures = LayerFigures {
        metrics_prepare_s: median(&secs(&prepare)),
        sdc_mask_s: median(&secs(&mask)),
        core_init_eval_s: init_eval_s,
        metrics_assess_s: median(&secs(&assess)),
        core_init_speedup: serial_s / init_eval_s,
        metrics_reassess_cell_s: median(&secs(&cell)),
        metrics_reassess_segment_s: median(&secs(&segment)),
        metrics_prepared_bytes: evaluator.approx_bytes() as f64,
        metrics_state_bytes: state_bytes as f64,
        original_patterns,
    };
    let probe = Probe {
        src,
        original,
        evaluator,
        population,
    };
    Ok((probe, figures))
}

/// Re-assess a published winner with a fresh evaluator and require the
/// bit-identical assessment.
pub fn reassess_fresh(
    original: &SubTable,
    job: &ProtectionJob,
    data: &SubTable,
    claimed: &Assessment,
) -> Result<(), String> {
    let fresh = Evaluator::new(original, job.metrics())
        .map_err(|e| e.to_string())?
        .assess(data)
        .assessment;
    if same_bits(&fresh, claimed) {
        Ok(())
    } else {
        Err(format!(
            "fresh assessment {fresh:?} differs from the reported {claimed:?}"
        ))
    }
}

/// Bit equality of every measure of two assessments.
pub fn same_bits(a: &Assessment, b: &Assessment) -> bool {
    let parts = |x: &Assessment| {
        [
            x.il_parts.ctbil,
            x.il_parts.dbil,
            x.il_parts.ebil,
            x.dr_parts.id,
            x.dr_parts.dbrl,
            x.dr_parts.prl,
            x.dr_parts.rsrl,
        ]
        .map(f64::to_bits)
    };
    parts(a) == parts(b)
}
