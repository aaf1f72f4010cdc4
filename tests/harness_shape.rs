//! Integration tests of the experiment harness: every paper artifact is
//! regenerable and produces well-formed output (run here at smoke scale).

use cdp::dataset::generators::DatasetKind;
use cdp::metrics::ScoreAggregator;
use cdp_bench::{figure_spec, measure_timing, ExperimentConfig, Harness, ALL_FIGURES};

fn smoke_harness(tag: &str) -> Harness {
    Harness::new(ExperimentConfig {
        records: Some(60),
        iterations: 10,
        seed: 3,
        out_dir: std::env::temp_dir().join(format!("cdp_harness_{tag}")),
    })
}

#[test]
fn every_figure_id_resolves_and_pairs_with_a_run() {
    for id in ALL_FIGURES {
        let spec = figure_spec(id).expect("figure id");
        assert_eq!(spec.id, id);
    }
}

#[test]
fn scatter_csv_has_initial_and_final_phases() {
    let mut h = smoke_harness("scatter");
    let fig = h.figure(1).unwrap();
    let text = std::fs::read_to_string(&fig.csv_path).unwrap();
    assert!(text.starts_with("phase,protection,il,dr,score"));
    assert!(text.contains("initial,"));
    assert!(text.contains("final,"));
    // Adult's paper population = 86 protections, both phases present
    let lines = text.lines().count() - 1;
    assert_eq!(lines, 2 * 86);
    std::fs::remove_dir_all(h.config().out_dir.clone()).ok();
}

#[test]
fn evolution_csv_covers_every_iteration() {
    let mut h = smoke_harness("evolution");
    let fig = h.figure(2).unwrap();
    let text = std::fs::read_to_string(&fig.csv_path).unwrap();
    // header + initial snapshot + 10 iterations
    assert_eq!(text.lines().count(), 1 + 1 + 10);
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("10,"));
    std::fs::remove_dir_all(h.config().out_dir.clone()).ok();
}

#[test]
fn robustness_figures_shrink_the_population() {
    let mut h = smoke_harness("robust");
    let full = h.figure(15).unwrap(); // Flare Eq.2, full population
    let trunc = h.figure(17).unwrap(); // same but best 5% removed
    let count = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .unwrap()
            .lines()
            .filter(|l| l.starts_with("initial,"))
            .count()
    };
    assert!(count(&trunc.csv_path) < count(&full.csv_path));
    std::fs::remove_dir_all(h.config().out_dir.clone()).ok();
}

#[test]
fn summaries_report_non_regressing_scores() {
    let mut h = smoke_harness("summary");
    for agg in [ScoreAggregator::Mean, ScoreAggregator::Max] {
        for row in h.summary(agg) {
            let s = row.summary;
            assert!(
                s.final_max <= s.initial_max + 1e-9,
                "{}",
                row.dataset.name()
            );
            assert!(
                s.final_min <= s.initial_min + 1e-9,
                "{}",
                row.dataset.name()
            );
            assert!(s.improvement_max() >= -1e-9);
        }
    }
    std::fs::remove_dir_all(h.config().out_dir.clone()).ok();
}

#[test]
fn timing_reproduces_the_papers_structure() {
    // The report reads the thread's CPU clock and times the fitness calls
    // inside the generations they belong to, so the suite running alongside
    // steals nothing from either figure and one measurement suffices; the
    // committed figures come from the `timing` section of `evaluator_bench`
    // and the `reproduce timing` target.
    let report = measure_timing(DatasetKind::Adult, Some(120), 8, 1);
    let t = &report.full;
    assert!(
        t.mutation.fitness_share() > 0.5,
        "fitness share {:.2}",
        t.mutation.fitness_share()
    );
    assert!(
        t.crossover_to_mutation_ratio() > 1.0,
        "ratio {:.2}",
        t.crossover_to_mutation_ratio()
    );
    let md = report.to_markdown();
    assert!(md.contains("120.34 s")); // the paper column is present
}
