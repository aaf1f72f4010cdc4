//! Seeded synthetic generators for the four datasets of the paper's
//! evaluation.
//!
//! The original experiments used UCI files (US Housing Survey '93, German
//! Credit, Solar Flare, Adult) which are not redistributable here. Instead,
//! each generator emits a dataset with **exactly** the paper's shape —
//! record count, attribute count, and the category cardinalities of the
//! protected attributes — and with skewed, correlated marginals typical of
//! the real data. Every measure reads only the protected attributes'
//! categories, frequencies and associations, so a file that matches those
//! stands in for the UCI one. All generators are deterministic per seed.

mod adult;
mod flare;
mod german;
mod housing;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sample::{
    column_from_weights, correlated_code, peaked_weights, weighted_index, zipf_weights,
};
use crate::{AttrKind, Attribute, Code, Hierarchy, Result, Schema, SubTable, Table};

/// Which of the paper's four evaluation datasets to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// U.S. Housing Survey 1993 — 1000 records × 11 attributes; protected:
    /// BUILT (25), DEGREE (8), GRADE1 (21).
    Housing,
    /// German Credit — 1000 × 13; protected: EXISTACC (5), SAVINGS (6),
    /// PRESEMPLOY (6).
    German,
    /// Solar Flare — 1066 × 13; protected: CLASS (8), LARGSPOT (7),
    /// SPOTDIST (5).
    Flare,
    /// Adult — 1000 × 8; protected: EDUCATION (16), MARITAL-STATUS (7),
    /// OCCUPATION (14).
    Adult,
}

impl DatasetKind {
    /// All four datasets in the paper's presentation order.
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Housing,
            DatasetKind::German,
            DatasetKind::Flare,
            DatasetKind::Adult,
        ]
    }

    /// Human-readable dataset name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Housing => "Housing",
            DatasetKind::German => "German",
            DatasetKind::Flare => "Flare",
            DatasetKind::Adult => "Adult",
        }
    }

    /// Record count used in the paper.
    pub fn default_records(self) -> usize {
        match self {
            DatasetKind::Flare => 1066,
            _ => 1000,
        }
    }

    /// Generate the dataset.
    pub fn generate(self, cfg: &GeneratorConfig) -> Dataset {
        let spec = match self {
            DatasetKind::Housing => housing::spec(),
            DatasetKind::German => german::spec(),
            DatasetKind::Flare => flare::spec(),
            DatasetKind::Adult => adult::spec(),
        };
        build(self, &spec, cfg).expect("generator specs are statically valid")
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; every column and correlation draw derives from it.
    pub seed: u64,
    /// Override the paper's record count (useful for fast tests/benches).
    pub n_records: Option<usize>,
}

impl GeneratorConfig {
    /// Config with the paper's record counts.
    pub fn seeded(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            n_records: None,
        }
    }

    /// Override the number of records.
    pub fn with_records(mut self, n: usize) -> Self {
        self.n_records = Some(n);
        self
    }
}

/// A generated dataset: the table, which attributes the paper protects, and
/// a generalization hierarchy per attribute (used by recoding methods).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which of the four datasets this is.
    pub kind: DatasetKind,
    /// The full original file.
    pub table: Table,
    /// Indices of the protected attributes (3 per dataset in the paper).
    pub protected: Vec<usize>,
    /// One hierarchy per attribute of the schema.
    pub hierarchies: Vec<Hierarchy>,
}

impl Dataset {
    /// The sub-table of protected columns (the evolutionary genotype's
    /// original reference).
    pub fn protected_subtable(&self) -> SubTable {
        self.table
            .subtable(&self.protected)
            .expect("protected indices are valid by construction")
    }

    /// Hierarchies of the protected attributes, in protected order.
    pub fn protected_hierarchies(&self) -> Vec<&Hierarchy> {
        self.protected
            .iter()
            .map(|&a| &self.hierarchies[a])
            .collect()
    }
}

/// Marginal distribution shape for one generated attribute.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Marginal {
    /// Heavy-tailed, frequency-ranked categories.
    Zipf(f64),
    /// Unimodal around `peak` (fraction of range) with width `spread`.
    Peaked { peak: f64, spread: f64 },
    /// All categories equally likely.
    Uniform,
}

impl Marginal {
    fn weights(self, n: usize) -> Vec<f64> {
        match self {
            Marginal::Zipf(s) => zipf_weights(n, s),
            Marginal::Peaked { peak, spread } => peaked_weights(n, peak, spread),
            Marginal::Uniform => vec![1.0; n],
        }
    }
}

/// Correlation link to an earlier attribute in the spec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParentLink {
    /// Index of the parent attribute (must precede the child).
    pub parent: usize,
    /// Tightness of the association (small = tight), see
    /// [`crate::sample::correlated_code`].
    pub spread: f64,
    /// Probability of drawing the correlated value rather than the marginal.
    pub mix: f64,
}

/// Declarative description of one attribute.
#[derive(Debug, Clone)]
pub(crate) struct AttrSpec {
    pub name: &'static str,
    pub kind: AttrKind,
    pub labels: Vec<String>,
    pub marginal: Marginal,
    pub link: Option<ParentLink>,
}

impl AttrSpec {
    pub(crate) fn ordinal(name: &'static str, n: usize, marginal: Marginal) -> Self {
        AttrSpec {
            name,
            kind: AttrKind::Ordinal,
            labels: (0..n).map(|i| format!("{name}_{i}")).collect(),
            marginal,
            link: None,
        }
    }

    pub(crate) fn nominal(name: &'static str, n: usize, marginal: Marginal) -> Self {
        AttrSpec {
            kind: AttrKind::Nominal,
            ..AttrSpec::ordinal(name, n, marginal)
        }
    }

    pub(crate) fn with_labels(mut self, labels: &[&str]) -> Self {
        assert_eq!(labels.len(), self.labels.len(), "label count mismatch");
        self.labels = labels.iter().map(|s| (*s).to_string()).collect();
        self
    }

    pub(crate) fn linked(mut self, parent: usize, spread: f64, mix: f64) -> Self {
        self.link = Some(ParentLink {
            parent,
            spread,
            mix,
        });
        self
    }
}

/// Full declarative dataset description.
#[derive(Debug, Clone)]
pub(crate) struct DatasetSpec {
    pub n_records: usize,
    pub attrs: Vec<AttrSpec>,
    pub protected: Vec<usize>,
}

/// Materialize a spec into a dataset.
pub(crate) fn build(
    kind: DatasetKind,
    spec: &DatasetSpec,
    cfg: &GeneratorConfig,
) -> Result<Dataset> {
    let n = cfg.n_records.unwrap_or(spec.n_records);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE ^ (kind as u64) << 32);

    let attrs = spec
        .attrs
        .iter()
        .map(|a| Attribute::new(a.name, a.kind, a.labels.clone()))
        .collect::<Result<Vec<_>>>()?;
    let schema = Arc::new(Schema::new(attrs)?);

    let mut columns: Vec<Vec<Code>> = Vec::with_capacity(spec.attrs.len());
    for (j, aspec) in spec.attrs.iter().enumerate() {
        let c = aspec.labels.len();
        let weights = aspec.marginal.weights(c);
        let col = match aspec.link {
            None => column_from_weights(&weights, n, &mut rng),
            Some(link) => {
                assert!(link.parent < j, "parent links must point backwards");
                let parent_cats = spec.attrs[link.parent].labels.len();
                let parent_col = &columns[link.parent];
                (0..n)
                    .map(|i| {
                        if rng.gen_bool(link.mix) {
                            correlated_code(parent_col[i], parent_cats, c, link.spread, &mut rng)
                        } else {
                            weighted_index(&weights, &mut rng) as Code
                        }
                    })
                    .collect()
            }
        };
        columns.push(col);
    }

    // Hierarchies: ordinal attributes get range merging, nominal ones
    // frequency folding based on the generated counts.
    let mut hierarchies = Vec::with_capacity(spec.attrs.len());
    for (j, aspec) in spec.attrs.iter().enumerate() {
        let attr = schema.attr(j);
        let h = match aspec.kind {
            AttrKind::Ordinal => Hierarchy::ordinal_auto(attr),
            AttrKind::Nominal => {
                let mut counts = vec![0usize; attr.n_categories()];
                for &code in &columns[j] {
                    counts[code as usize] += 1;
                }
                Hierarchy::nominal_from_counts(attr, &counts)?
            }
        };
        hierarchies.push(h);
    }

    let table = Table::from_columns(schema, columns)?;
    Ok(Dataset {
        kind,
        table,
        protected: spec.protected.clone(),
        hierarchies,
    })
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_match_paper_shape() {
        let expect = [
            (DatasetKind::Housing, 1000, 11, vec![25, 8, 21]),
            (DatasetKind::German, 1000, 13, vec![5, 6, 6]),
            (DatasetKind::Flare, 1066, 13, vec![8, 7, 5]),
            (DatasetKind::Adult, 1000, 8, vec![16, 7, 14]),
        ];
        for (kind, rows, attrs, cats) in expect {
            let ds = kind.generate(&GeneratorConfig::seeded(11));
            assert_eq!(ds.table.n_rows(), rows, "{}", kind.name());
            assert_eq!(ds.table.n_attrs(), attrs, "{}", kind.name());
            let got: Vec<usize> = ds
                .protected
                .iter()
                .map(|&a| ds.table.schema().attr(a).n_categories())
                .collect();
            assert_eq!(got, cats, "{}", kind.name());
            assert_eq!(ds.protected.len(), 3);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = DatasetKind::Adult.generate(&GeneratorConfig::seeded(5));
        let b = DatasetKind::Adult.generate(&GeneratorConfig::seeded(5));
        for j in 0..a.table.n_attrs() {
            assert_eq!(a.table.column(j), b.table.column(j));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetKind::Flare.generate(&GeneratorConfig::seeded(1));
        let b = DatasetKind::Flare.generate(&GeneratorConfig::seeded(2));
        let same = (0..a.table.n_attrs()).all(|j| a.table.column(j) == b.table.column(j));
        assert!(!same);
    }

    #[test]
    fn record_override_is_honoured() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(3).with_records(64));
        assert_eq!(ds.table.n_rows(), 64);
    }

    #[test]
    fn hierarchies_cover_every_attribute() {
        let ds = DatasetKind::Housing.generate(&GeneratorConfig::seeded(9));
        assert_eq!(ds.hierarchies.len(), ds.table.n_attrs());
        for (j, h) in ds.hierarchies.iter().enumerate() {
            let c = ds.table.schema().attr(j).n_categories() as Code;
            for code in 0..c {
                assert!(h.level(0).map(code) == code);
            }
        }
    }

    #[test]
    fn protected_subtable_matches_columns() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(21));
        let sub = ds.protected_subtable();
        assert_eq!(sub.n_attrs(), 3);
        for (k, &a) in ds.protected.iter().enumerate() {
            assert_eq!(sub.column(k), ds.table.column(a));
        }
    }

    #[test]
    fn protected_attributes_are_correlated() {
        // Adult links OCCUPATION to EDUCATION; verify a dependence signal:
        // mean occupation code differs between low/high education halves.
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(33));
        let edu = ds.table.column(ds.protected[0]);
        let occ = ds.table.column(ds.protected[2]);
        let (mut low, mut ln, mut high, mut hn) = (0f64, 0usize, 0f64, 0usize);
        for i in 0..edu.len() {
            if edu[i] < 8 {
                low += occ[i] as f64;
                ln += 1;
            } else {
                high += occ[i] as f64;
                hn += 1;
            }
        }
        let (ml, mh) = (low / ln.max(1) as f64, high / hn.max(1) as f64);
        assert!(
            (ml - mh).abs() > 0.3,
            "expected association, got {ml} vs {mh}"
        );
    }

    #[test]
    fn marginals_are_skewed_not_uniform() {
        let ds = DatasetKind::Flare.generate(&GeneratorConfig::seeded(4));
        let col = ds.table.column(ds.protected[0]);
        let c = ds.table.schema().attr(ds.protected[0]).n_categories();
        let mut counts = vec![0usize; c];
        for &v in col {
            counts[v as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 3 * (min + 1), "expected skew, counts {counts:?}");
    }
}
