//! Delta-vs-full evaluation benchmark: the perf baseline for the
//! `Evaluator::assess` / `Evaluator::reassess` hot path.
//!
//! Seven sections, written as `BENCH_evaluator.json`:
//!
//! 1. **micro** — per-dataset-size cost of a full assessment vs a
//!    single-cell and a quarter-segment patch re-assessment (ns/op and the
//!    resulting speedups), across 1k/5k/20k/50k/100k rows (full
//!    assessments run the default blocked linkage). The full assessment is
//!    timed *cold* (a fresh evaluator, its DBRL link table empty) and
//!    *warm* (the table already holds every pattern of the file), so the
//!    table's saving is not misattributed; patch re-assessments run on a
//!    warm evaluator, as inside an evolution, and their speedups are
//!    against the warm full assessment. Each row also records the
//!    assessed state's size (`state_bytes`, from `EvalState::approx_bytes`)
//!    and whether its linkage parts equal the oracle scans (gate e).
//! 2. **linkage** — all-pairs vs blocked DBRL credit scans per size, with
//!    the distinct-pattern counts behind the blocked complexity bound. The
//!    blocked scan is timed cold (fresh preparations) and warm.
//!    The all-pairs scan (and the credit-equality cross-check over DBRL
//!    *and* RSRL) runs only up to 20k rows — beyond that O(n²·a) is the
//!    wall this section exists to document. The pattern-table check
//!    (`tables_equal`) runs at every size.
//! 3. **evolution** — a 250-iteration paper-suite evolution run: wall
//!    time, the full/incremental assessment split, and whether the
//!    published best point equals a fresh full assessment of the winner.
//! 4. **objectives** — the objective-vector overhead: the same NSGA-II
//!    run over the canonical (IL, DR) pair vs the 3-component
//!    (IL, DR, eps) vector, with per-generation wall cost and the
//!    N=3/N=2 ratio (dominance, crowding, and hypervolume all scale
//!    with the vector length; the canonical path must stay at its
//!    pre-refactor cost).
//! 5. **mask_audit** — the two row-level stages outside the evaluator:
//!    the population builder's time on each family's share of the Adult
//!    paper suite (48 microaggregations, 12 bottom/top codings, 6 global
//!    recodings, 11 rank swaps, 9 PRAMs) and one privacy audit of a masked
//!    variant against the original, at 1k/20k/100k rows (best of a few
//!    repetitions).
//! 6. **measures** — the public building blocks of one assessment, timed
//!    one by one on a masked Adult file at 1k/20k/100k rows: the masked
//!    `PatternIndex::build`, `PatternCensus::build` and
//!    `PrlModel::fit_from_counts`. Each is timed *cold* (every repetition
//!    against its own fresh preparation, so its per-original table starts
//!    empty) and *warm* (the table already holds every pattern of the
//!    file); each figure is the best of a few repetitions. The per-record
//!    credit scans are oracles no assessment runs, so they are not timed
//!    here; timing each block *inside* `assess` waits for the detail
//!    timing switch of ROADMAP item 5.
//! 7. **timing** — the paper's in-text generation-cost table
//!    (`cdp_bench::measure_timing`) on Adult, 1k rows, the paper suite:
//!    per generation kind, the generation's and its fitness calls' thread
//!    CPU time, the fitness share and the crossover/mutation ratio, for
//!    the paper's method (a full evaluation per child, `full`) and for
//!    what the optimizer runs (a patch from the parent's state, `patched`).
//!
//! ```text
//! cargo run --release -p cdp_bench --bin evaluator_bench -- \
//!     [--quick] [--check-drift] [--rows N] [--no-evolution] \
//!     [--out PATH] [--seed S]
//! ```
//!
//! `--quick` shrinks sizes and budgets for CI smoke runs (~seconds).
//! `--rows N` replaces the size ladder with the single size `N` (scaling
//! smoke runs). `--no-evolution` skips section 3.
//! `--check-drift` exits nonzero unless (a) the evolution run's published
//! best point equals a fresh full assessment of the winner's file bit for
//! bit (every offspring of the run was patched, so this is the
//! evolution-level patched ≡ full contract, checked in release builds),
//! (b) the patch-vs-full exactness delta is exactly zero, (c) every
//! blocked-vs-all-pairs credit comparison is `==`-equal, and (d) at every
//! size, every live masked pattern's PRL histogram served from the
//! per-original link table equals a fresh scan and its RSRL box count
//! equals the posting-list count, and (e) at every size, the assessment's
//! DBRL, PRL and RSRL parts equal `credits_value` of the per-record oracle
//! scans (`dbrl_credits_blocked`, `PatternCensus::credits`,
//! `rsrl_credits_blocked`) — the evaluator sums per-cell credits over the
//! records instead of keeping those vectors. All five are bit-exactness
//! contracts, so any difference at all is a regression.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cdp_bench::{measure_timing, TimingRow};
use cdp_core::{EvoConfig, Evolution, EvolutionOutcome, Nsga2, NsgaConfig};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::{Code, PatternIndex, SubTable};
use cdp_metrics::linkage::{
    credits_value, dbrl_credits, dbrl_credits_blocked, pattern_table_mismatches, rsrl_credits,
    rsrl_credits_blocked, PatternCensus, PrlModel,
};
use cdp_metrics::{
    EvalState, Evaluator, MaskedStats, MetricConfig, ObjectiveSet, Patch, PreparedOriginal,
};
use cdp_sdc::{build_population, build_population_from, SuiteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    quick: bool,
    check_drift: bool,
    rows: Option<usize>,
    no_evolution: bool,
    out: PathBuf,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check_drift: false,
        rows: None,
        no_evolution: false,
        out: PathBuf::from("BENCH_evaluator.json"),
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check-drift" => args.check_drift = true,
            "--rows" => args.rows = it.next().and_then(|v| v.parse().ok()),
            "--no-evolution" => args.no_evolution = true,
            "--out" => args.out = it.next().map(PathBuf::from).unwrap_or(args.out),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    args
}

/// Largest row count at which the O(n²·a) all-pairs scans still run in
/// reasonable bench time; beyond it the linkage section reports the
/// blocked numbers alone.
const PAIRS_CEILING: usize = 20_000;

/// A masked variant with ~30% of cells re-drawn (a realistic distance from
/// the original, so linkage work is neither trivial nor degenerate).
fn masked_variant(original: &SubTable, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE9C);
    let mut m = original.clone();
    for k in 0..m.n_attrs() {
        let c = m.attr(k).n_categories() as Code;
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.3) {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
    }
    m
}

struct MicroRow {
    rows: usize,
    ns_assess_cold: f64,
    ns_assess_warm: f64,
    ns_reassess_cell: f64,
    ns_reassess_segment: f64,
    /// [`cdp_metrics::EvalState::approx_bytes`] of the assessed file.
    state_bytes: usize,
    /// The assessment's DBRL, PRL and RSRL parts equal the oracle credit
    /// vectors' values bit for bit.
    parts_equal: bool,
}

/// Whether `state`'s DBRL, PRL and RSRL parts equal [`credits_value`] of
/// the per-record oracle scans (`dbrl_credits_blocked`,
/// `PatternCensus::credits`, `rsrl_credits_blocked`) on `masked`, bit for
/// bit: the evaluator sums per-cell credits instead of keeping per-record
/// vectors, and must reproduce the vectors' sums exactly.
fn parts_match_oracles(ev: &Evaluator, masked: &SubTable, state: &EvalState) -> bool {
    let prep = ev.prepared();
    let cfg = ev.config();
    let index = PatternIndex::build(masked);
    let census = PatternCensus::build(prep, &index);
    let model = PrlModel::fit_from_counts(prep, census.counts(), cfg.prl_em_iters);
    let stats = MaskedStats::build(prep, masked);
    let window = (cfg.rsrl_window_fraction * prep.n_rows() as f64).max(1.0);
    let dr = state.assessment.dr_parts;
    let oracles = [
        (dr.dbrl, dbrl_credits_blocked(prep, masked, &index)),
        (dr.prl, census.credits(&model, prep, masked, &index)),
        (dr.rsrl, rsrl_credits_blocked(prep, &stats, &index, window)),
    ];
    oracles
        .iter()
        .all(|(part, credits)| part.to_bits() == credits_value(credits).to_bits())
}

fn micro_row(rows: usize, assess_reps: usize, seed: u64) -> MicroRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();
    let mut masked = masked_variant(&original, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);

    // cold: every rep on its own fresh evaluator (empty link table)
    let fresh: Vec<Evaluator> = (0..assess_reps)
        .map(|_| Evaluator::new(&original, MetricConfig::default()).expect("evaluator"))
        .collect();
    let t0 = Instant::now();
    for ev in &fresh {
        std::hint::black_box(ev.assess(&masked));
    }
    let ns_assess_cold = t0.elapsed().as_nanos() as f64 / assess_reps as f64;

    // warm: the first evaluator's table now holds every pattern of `masked`
    let ev = fresh.into_iter().next().expect("at least one rep");
    let t0 = Instant::now();
    for _ in 0..assess_reps {
        std::hint::black_box(ev.assess(&masked));
    }
    let ns_assess_warm = t0.elapsed().as_nanos() as f64 / assess_reps as f64;

    // single-cell patches into a reused scratch (the mutation path's shape)
    let state = ev.assess(&masked);
    let state_bytes = state.approx_bytes();
    let parts_equal = parts_match_oracles(&ev, &masked, &state);
    let mut scratch = state.clone();
    let cell_reps = (assess_reps * 16).max(32);
    let t0 = Instant::now();
    for _ in 0..cell_reps {
        let row = rng.gen_range(0..masked.n_rows());
        let k = rng.gen_range(0..masked.n_attrs());
        let c = masked.attr(k).n_categories() as Code;
        let old = masked.get(row, k);
        masked.set(row, k, rng.gen_range(0..c));
        ev.reassess_into(&state, &masked, &Patch::cell(row, k, old), &mut scratch);
        masked.set(row, k, old); // revert so `state` stays the baseline
    }
    let ns_reassess_cell = t0.elapsed().as_nanos() as f64 / cell_reps as f64;

    // quarter-of-the-file flat segments (the crossover path's shape); the
    // donor is assessed untimed first, so the loop meets warm pattern
    // tables as a crossover between two population members does
    let other = masked_variant(&original, seed ^ 0x5EC);
    std::hint::black_box(ev.assess(&other));
    let seg_reps = (assess_reps * 4).max(8);
    let seg_len = (masked.flat_len() / 4).max(1);
    let t0 = Instant::now();
    for _ in 0..seg_reps {
        let s = rng.gen_range(0..masked.flat_len() - seg_len + 1);
        let r = s + seg_len - 1;
        let old_values: Vec<Code> = (s..=r).map(|p| masked.get_flat(p)).collect();
        let mut child = masked.clone();
        for p in s..=r {
            child.set_flat(p, other.get_flat(p));
        }
        std::hint::black_box(ev.reassess(&state, &child, &Patch::flat_range(s, r, old_values)));
    }
    let ns_reassess_segment = t0.elapsed().as_nanos() as f64 / seg_reps as f64;

    MicroRow {
        rows,
        ns_assess_cold,
        ns_assess_warm,
        ns_reassess_cell,
        ns_reassess_segment,
        state_bytes,
        parts_equal,
    }
}

struct LinkageRow {
    rows: usize,
    patterns_original: usize,
    patterns_masked: usize,
    ns_blocked_cold: f64,
    ns_blocked_warm: f64,
    /// `None` above `PAIRS_CEILING` — the all-pairs scan is skipped there.
    ns_pairs: Option<f64>,
    /// DBRL *and* RSRL credit vectors `==`-equal across backends
    /// (`None` when the all-pairs reference was skipped).
    credits_equal: Option<bool>,
    /// Every live masked pattern's PRL histogram served from the link
    /// table equals a fresh scan, and its RSRL box count equals the
    /// posting-list count (checked at every size).
    tables_equal: bool,
}

/// Time the blocked DBRL credit scan against the all-pairs reference on the
/// same (original, masked) pair and cross-check bit-equality of the DBRL
/// and RSRL credit vectors. The all-pairs side runs only up to
/// `PAIRS_CEILING` rows.
fn linkage_row(rows: usize, seed: u64) -> LinkageRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();
    let masked = masked_variant(&original, seed);
    let index = PatternIndex::build(&masked);

    let blocked_reps = 5;
    let fresh: Vec<PreparedOriginal> = (0..blocked_reps)
        .map(|_| PreparedOriginal::new(&original))
        .collect();
    let t0 = Instant::now();
    for prep in &fresh {
        std::hint::black_box(dbrl_credits_blocked(prep, &masked, &index));
    }
    let ns_blocked_cold = t0.elapsed().as_nanos() as f64 / blocked_reps as f64;
    let prep = fresh.into_iter().next().expect("at least one rep");
    let t0 = Instant::now();
    for _ in 0..blocked_reps {
        std::hint::black_box(dbrl_credits_blocked(&prep, &masked, &index));
    }
    let ns_blocked_warm = t0.elapsed().as_nanos() as f64 / blocked_reps as f64;

    let stats = MaskedStats::build(&prep, &masked);
    let window = (MetricConfig::default().rsrl_window_fraction * rows as f64).max(1.0);
    let tables_equal = pattern_table_mismatches(&prep, &stats, &index, window) == 0;
    let (ns_pairs, credits_equal) = if rows <= PAIRS_CEILING {
        let t0 = Instant::now();
        let pairs_dbrl = dbrl_credits(&prep, &masked);
        let ns_pairs = t0.elapsed().as_nanos() as f64;
        let blocked_dbrl = dbrl_credits_blocked(&prep, &masked, &index);
        let equal = blocked_dbrl == pairs_dbrl
            && rsrl_credits_blocked(&prep, &stats, &index, window)
                == rsrl_credits(&prep, &stats, &masked, window);
        (Some(ns_pairs), Some(equal))
    } else {
        (None, None)
    };

    LinkageRow {
        rows,
        patterns_original: prep.pattern_index().n_patterns(),
        patterns_masked: index.n_patterns(),
        ns_blocked_cold,
        ns_blocked_warm,
        ns_pairs,
        credits_equal,
        tables_equal,
    }
}

/// Largest absolute difference across **all seven measures** between a
/// multi-cell patch re-assessment and the full recompute (the delta engine
/// is bit-exact, PRL/RSRL included, so this must be exactly zero).
fn exactness_delta(seed: u64) -> f64 {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(400))
        .protected_subtable();
    let ev = Evaluator::new(&original, MetricConfig::default()).expect("evaluator");
    let mut masked = masked_variant(&original, seed);
    let state = ev.assess(&masked);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE44C7);
    let mut cells = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while cells.len() < 60 {
        let row = rng.gen_range(0..masked.n_rows());
        let k = rng.gen_range(0..masked.n_attrs());
        if !seen.insert((row, k)) {
            continue;
        }
        let c = masked.attr(k).n_categories() as Code;
        let old = masked.get(row, k);
        masked.set(row, k, rng.gen_range(0..c));
        cells.push(cdp_metrics::PatchCell { row, attr: k, old });
    }
    let patched = ev.reassess(&state, &masked, &Patch::from_cells(cells));
    let full = ev.assess(&masked);
    let (p, f) = (patched.assessment, full.assessment);
    [
        p.il_parts.ctbil - f.il_parts.ctbil,
        p.il_parts.dbil - f.il_parts.dbil,
        p.il_parts.ebil - f.il_parts.ebil,
        p.dr_parts.id - f.dr_parts.id,
        p.dr_parts.dbrl - f.dr_parts.dbrl,
        p.dr_parts.prl - f.dr_parts.prl,
        p.dr_parts.rsrl - f.dr_parts.rsrl,
    ]
    .into_iter()
    .map(f64::abs)
    .fold(0.0, f64::max)
}

struct EvoRun {
    wall_ms: f64,
    outcome: EvolutionOutcome,
    /// Whether the published best point's IL, DR and score equal a fresh
    /// full assessment of the winner's file, bit for bit.
    exact: bool,
}

fn evolution_run(
    kind: DatasetKind,
    records: usize,
    iterations: usize,
    paper_suite: bool,
    seed: u64,
) -> EvoRun {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let suite = if paper_suite {
        SuiteConfig::paper(kind)
    } else {
        SuiteConfig::small()
    };
    let pop = build_population(&ds, &suite, seed).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let cfg = EvoConfig::builder()
        .iterations(iterations)
        .seed(seed)
        .build();
    let t0 = Instant::now();
    let outcome = Evolution::new(ev.clone(), cfg)
        .with_named_population(pop)
        .expect("compatible population")
        .run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let best = outcome.final_best();
    let fresh = ev.assess(&outcome.population.best().data).assessment;
    let exact = best.il.to_bits() == fresh.il().to_bits()
        && best.dr.to_bits() == fresh.dr().to_bits()
        && best.score.to_bits() == fresh.score(cfg.aggregator).to_bits();
    EvoRun {
        wall_ms,
        exact,
        outcome,
    }
}

struct ObjRun {
    n: usize,
    wall_ms: f64,
    ms_per_generation: f64,
    front_size: usize,
    final_hypervolume: f64,
    evaluations: usize,
}

/// One NSGA-II run over `il,dr` plus `extra` objective keys, timed
/// wall-to-wall (evaluator preparation excluded — the vector length only
/// touches selection, so that is what the section isolates).
fn objectives_run(extra: &[&str], records: usize, generations: usize, seed: u64) -> ObjRun {
    let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let pop = build_population(&ds, &SuiteConfig::small(), seed).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let mut keys = vec!["il", "dr"];
    keys.extend_from_slice(extra);
    let objectives = ObjectiveSet::from_keys(&keys).expect("valid objective keys");
    let cfg = NsgaConfig {
        generations,
        seed,
        ..NsgaConfig::default()
    };
    let t0 = Instant::now();
    let outcome = Nsga2::new(ev, cfg)
        .with_objectives(objectives)
        .with_named_population(pop)
        .expect("compatible population")
        .run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ObjRun {
        n: 2 + extra.len(),
        wall_ms,
        ms_per_generation: wall_ms / generations as f64,
        front_size: outcome.front.len(),
        final_hypervolume: *outcome.hypervolume_series.last().expect("series non-empty"),
        evaluations: outcome.evaluations,
    }
}

fn obj_json(run: &ObjRun) -> String {
    format!(
        "{{\"n\": {}, \"wall_ms\": {:.1}, \"ms_per_generation\": {:.2}, \
         \"front_size\": {}, \"hypervolume\": {:.1}, \"evaluations\": {}}}",
        run.n,
        run.wall_ms,
        run.ms_per_generation,
        run.front_size,
        run.final_hypervolume,
        run.evaluations
    )
}

fn evo_json(run: &EvoRun) -> String {
    let best = run.outcome.final_best();
    format!(
        "{{\"wall_ms\": {:.1}, \"assess_full\": {}, \"assess_incremental\": {}, \
         \"best_il\": {:.4}, \"best_dr\": {:.4}, \"best_score\": {:.4}}}",
        run.wall_ms,
        run.outcome.eval_counts.full,
        run.outcome.eval_counts.incremental,
        best.il,
        best.dr,
        best.score
    )
}

/// Rows of the generation-cost table's Adult file (the paper's size).
const TIMING_ROWS: usize = 1000;

fn timing_json(row: &TimingRow) -> String {
    let (m, x) = (&row.mutation, &row.crossover);
    format!(
        "{{\"ms_mutation\": {:.4}, \"ms_mutation_fitness\": {:.4}, \
         \"fitness_share_mutation\": {:.4}, \"ms_crossover\": {:.4}, \
         \"ms_crossover_fitness\": {:.4}, \"fitness_share_crossover\": {:.4}, \
         \"crossover_over_mutation\": {:.2}}}",
        m.generation_ms,
        m.fitness_ms,
        m.fitness_share(),
        x.generation_ms,
        x.fitness_ms,
        x.fitness_share(),
        row.crossover_to_mutation_ratio()
    )
}

struct MaskAuditRow {
    rows: usize,
    /// Masking ms per family, for the family's whole paper-suite sweep.
    ms_family: Vec<(&'static str, f64)>,
    ms_audit: f64,
}

/// The Adult paper suite split into one sweep per masking family (bottom
/// and top coding share one), keyed for the report.
fn family_sweeps() -> Vec<(&'static str, SuiteConfig)> {
    let paper = SuiteConfig::paper(DatasetKind::Adult);
    let none = SuiteConfig {
        microagg_ks: vec![],
        microagg_variants: vec![],
        coding_fractions: vec![],
        recoding_levels: vec![],
        rank_swap_ps: vec![],
        pram_thetas: vec![],
        pram_mode: paper.pram_mode,
    };
    vec![
        (
            "microaggregation",
            SuiteConfig {
                microagg_ks: paper.microagg_ks.clone(),
                microagg_variants: paper.microagg_variants.clone(),
                ..none.clone()
            },
        ),
        (
            "coding",
            SuiteConfig {
                coding_fractions: paper.coding_fractions.clone(),
                ..none.clone()
            },
        ),
        (
            "recoding",
            SuiteConfig {
                recoding_levels: paper.recoding_levels.clone(),
                ..none.clone()
            },
        ),
        (
            "rank_swap",
            SuiteConfig {
                rank_swap_ps: paper.rank_swap_ps.clone(),
                ..none.clone()
            },
        ),
        (
            "pram",
            SuiteConfig {
                pram_thetas: paper.pram_thetas.clone(),
                ..none
            },
        ),
    ]
}

/// Time the population builder on each family's paper-suite sweep, and
/// one privacy audit (k-anonymity, prosecutor and journalist risk) of a
/// masked variant against the original. Each figure is the best of `reps`.
fn mask_audit_row(rows: usize, reps: usize, seed: u64) -> MaskAuditRow {
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(seed).with_records(rows));
    let original = ds.protected_subtable();
    let hierarchies = ds.protected_hierarchies();
    let masked = masked_variant(&original, seed);
    let best_of = |f: &dyn Fn()| {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let ms_family = family_sweeps()
        .into_iter()
        .map(|(key, cfg)| {
            let ms = best_of(&|| {
                let pop = build_population_from(&original, &hierarchies, &cfg, seed);
                std::hint::black_box(pop.expect("suite"));
            });
            (key, ms)
        })
        .collect();
    let ms_audit = best_of(&|| {
        let report = cdp_privacy::report::audit(&masked, Some(&original), &[]);
        std::hint::black_box(report.expect("audit"));
    });
    MaskAuditRow {
        rows,
        ms_family,
        ms_audit,
    }
}

/// The per-measure timings of one masked file: `(key, ns cold, ns warm)`
/// per building block, in assessment order.
struct MeasureRow {
    rows: usize,
    ns: Vec<(&'static str, f64, f64)>,
}

/// Time each building block of an assessment on its own. Cold: each of the
/// `reps` repetitions gets a fresh preparation (built untimed), so every
/// per-original table starts empty. Warm: one preparation that already ran
/// every block, `4 * reps` repetitions. Each figure is the best repetition.
fn measures_row(rows: usize, reps: usize, seed: u64) -> MeasureRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();
    let masked = masked_variant(&original, seed);
    let cfg = MetricConfig::default();
    let index = PatternIndex::build(&masked);
    let warm = PreparedOriginal::new(&original);
    let census = PatternCensus::build(&warm, &index);

    type Block<'a> = Box<dyn Fn(&PreparedOriginal) + 'a>;
    let blocks: Vec<(&'static str, Block)> = vec![
        (
            "pattern_index",
            Box::new(|_| {
                std::hint::black_box(PatternIndex::build(&masked));
            }),
        ),
        (
            "census",
            Box::new(|p| {
                std::hint::black_box(PatternCensus::build(p, &index));
            }),
        ),
        (
            "prl_fit",
            Box::new(|p| {
                std::hint::black_box(PrlModel::fit_from_counts(
                    p,
                    census.counts(),
                    cfg.prl_em_iters,
                ));
            }),
        ),
    ];
    let time = |f: &Block, p: &PreparedOriginal| {
        let t0 = Instant::now();
        f(p);
        t0.elapsed().as_nanos() as f64
    };
    for (_, f) in &blocks {
        f(&warm);
    }
    let ns = blocks
        .iter()
        .map(|(key, f)| {
            let cold = (0..reps)
                .map(|_| time(f, &PreparedOriginal::new(&original)))
                .fold(f64::INFINITY, f64::min);
            let warm = (0..4 * reps)
                .map(|_| time(f, &warm))
                .fold(f64::INFINITY, f64::min);
            (*key, cold, warm)
        })
        .collect();
    MeasureRow { rows, ns }
}

fn main() {
    let args = parse_args();
    let sizes: Vec<(usize, usize)> = if let Some(rows) = args.rows {
        vec![(rows, if rows <= 20_000 { 2 } else { 1 })] // (rows, assess reps)
    } else if args.quick {
        vec![(1000, 2)]
    } else {
        vec![(1000, 6), (5000, 3), (20000, 2), (50000, 1), (100000, 1)]
    };

    let mut micro = Vec::new();
    let mut linkage = Vec::new();
    for &(rows, reps) in &sizes {
        eprintln!("micro: {rows} rows …");
        micro.push(micro_row(rows, reps, args.seed));
        eprintln!("linkage: {rows} rows …");
        linkage.push(linkage_row(rows, args.seed));
    }
    let exact_delta = exactness_delta(args.seed);

    let mask_audit_sizes: Vec<(usize, usize)> = if let Some(rows) = args.rows {
        vec![(rows, 1)] // (rows, reps)
    } else if args.quick {
        vec![(1000, 1)]
    } else {
        vec![(1000, 5), (20000, 3), (100000, 3)]
    };
    let mut mask_audit = Vec::new();
    for &(rows, reps) in &mask_audit_sizes {
        eprintln!("mask_audit: {rows} rows …");
        mask_audit.push(mask_audit_row(rows, reps, args.seed));
    }

    let mut measures = Vec::new();
    for &(rows, reps) in &mask_audit_sizes {
        eprintln!("measures: {rows} rows …");
        measures.push(measures_row(rows, reps, args.seed));
    }

    let timing_generations = if args.quick { 50 } else { 1000 };
    eprintln!("timing: {TIMING_ROWS} rows …");
    let timing = measure_timing(
        DatasetKind::Adult,
        Some(TIMING_ROWS),
        timing_generations,
        args.seed,
    );

    // the acceptance-criteria run: paper suite, 250 iterations (reduced
    // under --quick so CI smoke stays in seconds)
    let (records, iterations, paper_suite) = if args.quick {
        (300, 80, false)
    } else {
        (1000, 250, true)
    };
    let evolution = if args.no_evolution {
        None
    } else {
        eprintln!("evolution …");
        Some(evolution_run(
            DatasetKind::Adult,
            records,
            iterations,
            paper_suite,
            args.seed,
        ))
    };

    let objectives_bench = if args.no_evolution {
        None
    } else {
        let (obj_records, obj_gens) = if args.quick { (200, 10) } else { (500, 40) };
        eprintln!("objectives: N=2 …");
        let two = objectives_run(&[], obj_records, obj_gens, args.seed);
        eprintln!("objectives: N=3 …");
        let three = objectives_run(&["eps"], obj_records, obj_gens, args.seed);
        Some((two, three, obj_records, obj_gens))
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"micro\": [");
    for (i, row) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"ns_assess_cold\": {:.0}, \"ns_assess_warm\": {:.0}, \
             \"ns_reassess_cell\": {:.0}, \"ns_reassess_segment\": {:.0}, \
             \"speedup_cell\": {:.1}, \"speedup_segment\": {:.1}, \"state_bytes\": {}, \
             \"parts_equal\": {}}}{comma}",
            row.rows,
            row.ns_assess_cold,
            row.ns_assess_warm,
            row.ns_reassess_cell,
            row.ns_reassess_segment,
            row.ns_assess_warm / row.ns_reassess_cell,
            row.ns_assess_warm / row.ns_reassess_segment,
            row.state_bytes,
            row.parts_equal,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"linkage\": [");
    for (i, row) in linkage.iter().enumerate() {
        let comma = if i + 1 < linkage.len() { "," } else { "" };
        let ns_pairs = row
            .ns_pairs
            .map_or("null".to_string(), |v| format!("{v:.0}"));
        let speedup = row.ns_pairs.map_or("null".to_string(), |v| {
            format!("{:.1}", v / row.ns_blocked_cold)
        });
        let equal = row
            .credits_equal
            .map_or("null".to_string(), |e| e.to_string());
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"patterns_original\": {}, \"patterns_masked\": {}, \
             \"ns_dbrl_blocked_cold\": {:.0}, \"ns_dbrl_blocked_warm\": {:.0}, \
             \"ns_dbrl_pairs\": {ns_pairs}, \"pairs_over_blocked\": {speedup}, \
             \"credits_equal\": {equal}, \"tables_equal\": {}}}{comma}",
            row.rows,
            row.patterns_original,
            row.patterns_masked,
            row.ns_blocked_cold,
            row.ns_blocked_warm,
            row.tables_equal,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"mask_audit\": [");
    for (i, row) in mask_audit.iter().enumerate() {
        let comma = if i + 1 < mask_audit.len() { "," } else { "" };
        let families: String = row
            .ms_family
            .iter()
            .map(|(k, ms)| format!("\"ms_{k}\": {ms:.2}, "))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, {families}\"ms_mask_total\": {:.2}, \"ms_audit\": {:.2}}}{comma}",
            row.rows,
            row.ms_family.iter().map(|(_, ms)| ms).sum::<f64>(),
            row.ms_audit,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"measures\": [");
    for (i, row) in measures.iter().enumerate() {
        let comma = if i + 1 < measures.len() { "," } else { "" };
        let blocks: Vec<String> = row
            .ns
            .iter()
            .map(|(k, cold, warm)| {
                format!("\"ns_{k}_cold\": {cold:.0}, \"ns_{k}_warm\": {warm:.0}")
            })
            .collect();
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, {}}}{comma}",
            row.rows,
            blocks.join(", ")
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"timing\": {{");
    let _ = writeln!(
        json,
        "    \"dataset\": \"adult\", \"records\": {TIMING_ROWS}, \"suite\": \"paper\", \
         \"generations\": {timing_generations}, \"clock\": \"thread_cpu\","
    );
    let _ = writeln!(json, "    \"full\": {},", timing_json(&timing.full));
    let _ = writeln!(json, "    \"patched\": {}", timing_json(&timing.patched));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"exactness_max_abs_delta\": {exact_delta:e},");
    if let Some((two, three, obj_records, obj_gens)) = &objectives_bench {
        let _ = writeln!(json, "  \"objectives\": {{");
        let _ = writeln!(
            json,
            "    \"dataset\": \"german\", \"records\": {obj_records}, \
             \"generations\": {obj_gens},"
        );
        let _ = writeln!(json, "    \"n2\": {},", obj_json(two));
        let _ = writeln!(json, "    \"n3\": {},", obj_json(three));
        let _ = writeln!(
            json,
            "    \"n3_over_n2_ms_per_generation\": {:.2}",
            three.ms_per_generation / two.ms_per_generation.max(1e-9)
        );
        let _ = writeln!(json, "  }},");
    } else {
        let _ = writeln!(json, "  \"objectives\": null,");
    }
    let winner_exact = if let Some(run) = &evolution {
        let _ = writeln!(json, "  \"evolution\": {{");
        let _ = writeln!(
            json,
            "    \"dataset\": \"adult\", \"records\": {records}, \"iterations\": {iterations}, \
             \"suite\": \"{}\",",
            if paper_suite { "paper" } else { "small" }
        );
        let _ = writeln!(json, "    \"run\": {},", evo_json(run));
        let _ = writeln!(json, "    \"best_exact\": {}", run.exact);
        let _ = writeln!(json, "  }}");
        Some(run.exact)
    } else {
        let _ = writeln!(json, "  \"evolution\": null");
        None
    };
    let _ = writeln!(json, "}}");

    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write BENCH_evaluator.json");
    print!("{json}");
    eprintln!("wrote {}", args.out.display());

    // five bit-exactness contracts: under --check-drift any difference at
    // all (not merely above a tolerance) fails the run — after the JSON is
    // on disk, so CI still uploads the failing numbers
    if args.check_drift {
        let mut failed = false;
        if winner_exact == Some(false) {
            eprintln!(
                "DRIFT CHECK FAILED: the published best point diverged from a \
                 fresh full assessment of the winner; the patched offspring \
                 path must be bit-exact"
            );
            failed = true;
        }
        if exact_delta != 0.0 {
            eprintln!(
                "DRIFT CHECK FAILED: patch re-assessment diverged from the \
                 full recompute (max |Δ| = {exact_delta:e})"
            );
            failed = true;
        }
        for row in &micro {
            if !row.parts_equal {
                eprintln!(
                    "DRIFT CHECK FAILED: an assessment's DBRL, PRL or RSRL part \
                     differs from the oracle credit vectors' value at {} rows; \
                     the per-cell credit sums must be bit-exact",
                    row.rows
                );
                failed = true;
            }
        }
        for row in &linkage {
            if row.credits_equal == Some(false) {
                eprintln!(
                    "DRIFT CHECK FAILED: blocked vs all-pairs credit mismatch \
                     at {} rows; the blocked scans must be bit-exact",
                    row.rows
                );
                failed = true;
            }
            if !row.tables_equal {
                eprintln!(
                    "DRIFT CHECK FAILED: a served PRL histogram or an RSRL box \
                     count differs from its scan at {} rows; the pattern \
                     tables must be bit-exact",
                    row.rows
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
