//! Initial-population builder.
//!
//! The paper seeds the evolutionary algorithm with a population of
//! protections per dataset:
//!
//! | Dataset | Total | Microagg | Bottom | Top | Recoding | Rank swap | PRAM |
//! |---------|-------|----------|--------|-----|----------|-----------|------|
//! | Housing | 110   | 72       | 6      | 6   | 6        | 11        | 9    |
//! | German  | 104   | 72       | 4      | 4   | 4        | 11        | 9    |
//! | Flare   | 104   | 72       | 4      | 4   | 4        | 11        | 9    |
//! | Adult   |  86   | 48       | 6      | 6   | 6        | 11        | 9    |
//!
//! [`SuiteConfig::paper`] reproduces these counts exactly through parameter
//! sweeps. The paper does not list the individual parameters, so the grids
//! here are our choice: evenly spaced values of each method's parameter,
//! as many per family as the paper counts.

use cdp_dataset::generators::{Dataset, DatasetKind};
use cdp_dataset::{Hierarchy, SubTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::microaggregation::Plane;
use crate::{
    BottomCoding, GlobalRecoding, MethodContext, MethodFamily, MicroVariant, Microaggregation,
    Pram, PramMode, ProtectionMethod, RankSwapping, Result, TopCoding,
};

/// One protected file with its provenance.
#[derive(Debug, Clone)]
pub struct NamedProtection {
    /// Method identifier including parameters.
    pub name: String,
    /// Method family for report grouping.
    pub family: MethodFamily,
    /// The masked protected columns.
    pub data: SubTable,
}

impl From<NamedProtection> for (String, SubTable) {
    fn from(p: NamedProtection) -> Self {
        (p.name, p.data)
    }
}

/// Parameter sweep defining an initial population.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Microaggregation group sizes (crossed with `microagg_variants`).
    pub microagg_ks: Vec<usize>,
    /// Microaggregation grouping/aggregate variants.
    pub microagg_variants: Vec<MicroVariant>,
    /// Tail fractions used by bottom *and* top coding.
    pub coding_fractions: Vec<f64>,
    /// Per-attribute hierarchy-level combinations for global recoding.
    pub recoding_levels: Vec<Vec<usize>>,
    /// Rank-swapping windows (percent of records).
    pub rank_swap_ps: Vec<usize>,
    /// PRAM retention probabilities.
    pub pram_thetas: Vec<f64>,
    /// PRAM matrix construction.
    pub pram_mode: PramMode,
}

impl SuiteConfig {
    /// The sweep reproducing the paper's population composition for `kind`.
    pub fn paper(kind: DatasetKind) -> Self {
        let microagg_ks: Vec<usize> = match kind {
            // 12 k-values x 6 variants = 72 protections
            DatasetKind::Housing | DatasetKind::German | DatasetKind::Flare => {
                vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20]
            }
            // 8 x 6 = 48
            DatasetKind::Adult => vec![2, 3, 4, 5, 6, 8, 10, 15],
        };
        let coding_fractions = match kind {
            DatasetKind::Housing | DatasetKind::Adult => {
                vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
            }
            DatasetKind::German | DatasetKind::Flare => vec![0.05, 0.10, 0.20, 0.30],
        };
        let recoding_levels = match kind {
            DatasetKind::Housing | DatasetKind::Adult => vec![
                vec![1, 1, 1],
                vec![1, 1, 2],
                vec![1, 2, 1],
                vec![2, 1, 1],
                vec![2, 2, 1],
                vec![2, 2, 2],
            ],
            DatasetKind::German | DatasetKind::Flare => {
                vec![vec![1, 1, 1], vec![1, 2, 1], vec![2, 1, 2], vec![2, 2, 2]]
            }
        };
        SuiteConfig {
            microagg_ks,
            microagg_variants: MicroVariant::all().to_vec(),
            coding_fractions,
            recoding_levels,
            rank_swap_ps: (1..=11).collect(),
            pram_thetas: (0..9).map(|i| 0.5 + 0.05 * i as f64).collect(),
            pram_mode: PramMode::Proportional,
        }
    }

    /// A tiny sweep for tests, examples and doc snippets (12 protections).
    pub fn small() -> Self {
        SuiteConfig {
            microagg_ks: vec![3, 6],
            microagg_variants: vec![MicroVariant::all()[0], MicroVariant::all()[3]],
            coding_fractions: vec![0.1, 0.25],
            recoding_levels: vec![vec![1]],
            rank_swap_ps: vec![2, 8],
            pram_thetas: vec![0.7],
            pram_mode: PramMode::Proportional,
        }
    }

    /// Total number of protections the sweep will produce.
    pub fn total(&self) -> usize {
        self.microagg_ks.len() * self.microagg_variants.len()
            + 2 * self.coding_fractions.len()
            + self.recoding_levels.len()
            + self.rank_swap_ps.len()
            + self.pram_thetas.len()
    }
}

/// Materialize the sweep into named protections, in the paper's family
/// order (microaggregation, bottom, top, recoding, rank swapping, PRAM).
///
/// # Errors
/// Propagates the first method failure (invalid parameters for the dataset
/// size, hierarchy mismatches, …).
pub fn build_population(
    ds: &Dataset,
    cfg: &SuiteConfig,
    seed: u64,
) -> Result<Vec<NamedProtection>> {
    let original = ds.protected_subtable();
    let hierarchies = ds.protected_hierarchies();
    build_population_from(&original, &hierarchies, cfg, seed)
}

/// [`build_population`] for an arbitrary original sub-table (a loaded CSV,
/// a masked file, …) with caller-supplied hierarchies — the entry point the
/// `cdp::pipeline` layer uses when the data did not come from a generator.
///
/// The RNG stream is identical to [`build_population`]'s for the same seed,
/// so both paths produce the same protections for the same original.
///
/// # Errors
/// Propagates the first method failure, as in [`build_population`].
pub fn build_population_from(
    original: &SubTable,
    hierarchies: &[&Hierarchy],
    cfg: &SuiteConfig,
    seed: u64,
) -> Result<Vec<NamedProtection>> {
    let ctx = MethodContext { hierarchies };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5DC0_15EB);
    let mut out = Vec::with_capacity(cfg.total());

    let run = |method: &dyn ProtectionMethod,
               rng: &mut StdRng,
               out: &mut Vec<NamedProtection>|
     -> Result<()> {
        let data = method.protect(original, &ctx, rng)?;
        out.push(NamedProtection {
            name: method.name(),
            family: method.family(),
            data,
        });
        Ok(())
    };

    // microaggregation draws no randomness, and every one of them orders
    // the same original: its pattern plane is computed once for all
    let mut plane = None;
    for &k in &cfg.microagg_ks {
        for &variant in &cfg.microagg_variants {
            let method = Microaggregation::new(k, variant);
            let plane = plane.get_or_insert_with(|| Plane::of(original));
            out.push(NamedProtection {
                name: method.name(),
                family: method.family(),
                data: method.protect_on(original, plane)?,
            });
        }
    }
    for &q in &cfg.coding_fractions {
        run(&BottomCoding { fraction: q }, &mut rng, &mut out)?;
    }
    for &q in &cfg.coding_fractions {
        run(&TopCoding { fraction: q }, &mut rng, &mut out)?;
    }
    for levels in &cfg.recoding_levels {
        run(
            &GlobalRecoding::per_attr(levels.clone()),
            &mut rng,
            &mut out,
        )?;
    }
    for &p in &cfg.rank_swap_ps {
        run(&RankSwapping::new(p), &mut rng, &mut out)?;
    }
    for &theta in &cfg.pram_thetas {
        run(&Pram::new(theta, cfg.pram_mode), &mut rng, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::GeneratorConfig;

    fn counts_by_family(pop: &[NamedProtection]) -> Vec<(MethodFamily, usize)> {
        MethodFamily::all()
            .iter()
            .map(|&f| (f, pop.iter().filter(|p| p.family == f).count()))
            .collect()
    }

    #[test]
    fn paper_counts_housing() {
        let ds = DatasetKind::Housing.generate(&GeneratorConfig::seeded(1).with_records(120));
        let pop = build_population(&ds, &SuiteConfig::paper(ds.kind), 1).unwrap();
        assert_eq!(pop.len(), 110);
        let counts = counts_by_family(&pop);
        assert_eq!(
            counts.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![72, 6, 6, 6, 11, 9]
        );
    }

    #[test]
    fn paper_counts_german_flare() {
        for kind in [DatasetKind::German, DatasetKind::Flare] {
            let ds = kind.generate(&GeneratorConfig::seeded(1).with_records(120));
            let pop = build_population(&ds, &SuiteConfig::paper(kind), 1).unwrap();
            assert_eq!(pop.len(), 104, "{}", kind.name());
            let counts = counts_by_family(&pop);
            assert_eq!(
                counts.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
                vec![72, 4, 4, 4, 11, 9]
            );
        }
    }

    #[test]
    fn paper_counts_adult() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(120));
        let pop = build_population(&ds, &SuiteConfig::paper(ds.kind), 1).unwrap();
        assert_eq!(pop.len(), 86);
        let counts = counts_by_family(&pop);
        assert_eq!(
            counts.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![48, 6, 6, 6, 11, 9]
        );
    }

    #[test]
    fn total_predicts_length() {
        let cfg = SuiteConfig::paper(DatasetKind::Adult);
        assert_eq!(cfg.total(), 86);
        assert_eq!(SuiteConfig::paper(DatasetKind::Housing).total(), 110);
        assert_eq!(SuiteConfig::small().total(), 12);
    }

    #[test]
    fn names_are_unique() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(100));
        let pop = build_population(&ds, &SuiteConfig::paper(ds.kind), 1).unwrap();
        let mut names: Vec<&str> = pop.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pop.len());
    }

    #[test]
    fn every_protection_is_valid_and_shaped() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(2).with_records(150));
        let pop = build_population(&ds, &SuiteConfig::small(), 2).unwrap();
        let original = ds.protected_subtable();
        for p in &pop {
            p.data.validate().unwrap();
            assert_eq!(p.data.n_rows(), original.n_rows());
            assert_eq!(p.data.n_attrs(), original.n_attrs());
        }
    }

    #[test]
    fn population_is_seed_deterministic() {
        let ds = DatasetKind::Flare.generate(&GeneratorConfig::seeded(3).with_records(120));
        let a = build_population(&ds, &SuiteConfig::small(), 9).unwrap();
        let b = build_population(&ds, &SuiteConfig::small(), 9).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.data, y.data);
        }
    }

    #[test]
    fn protections_actually_differ_from_each_other() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(4).with_records(200));
        let pop = build_population(&ds, &SuiteConfig::small(), 4).unwrap();
        let distinct = pop
            .iter()
            .enumerate()
            .flat_map(|(i, a)| pop.iter().skip(i + 1).map(move |b| a.data.hamming(&b.data)))
            .filter(|&d| d > 0)
            .count();
        assert!(distinct > pop.len(), "population lacks diversity");
    }
}
