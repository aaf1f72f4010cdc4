//! The declarative job description and its builder.

use std::fmt;

use cdp_core::{EvoConfig, NsgaConfig};
use cdp_dataset::generators::{Dataset, DatasetKind, GeneratorConfig};
use cdp_dataset::{stats, AttrKind, Hierarchy, SubTable, Table};
use cdp_metrics::{MetricConfig, ObjectiveSet, ScoreAggregator};
use cdp_sdc::{build_population_from, MethodContext, Pram, ProtectionMethod, SuiteConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::report::JobReport;
use super::shared::SharedSession;
use super::stages::JobEvent;
use super::{PipelineError, Result};

/// Where the original file comes from.
///
/// The `Debug` representation is a compact summary (method lists and
/// tables are large).
pub enum DataSource {
    /// One of the paper's four evaluation datasets, generated on demand.
    Generated {
        /// Which dataset to generate.
        kind: DatasetKind,
        /// Record-count override (`None` = the paper's 1000/1066).
        records: Option<usize>,
        /// Generator seed (`None` = the job seed).
        seed: Option<u64>,
    },
    /// An already-generated dataset (reuses its hierarchies verbatim).
    Dataset(Dataset),
    /// A loaded table (CSV ingest, upstream pipeline output, …).
    Table {
        /// The full original file.
        table: Table,
        /// Indices of the attributes to protect.
        protected: Vec<usize>,
        /// One generalization hierarchy per protected attribute, in
        /// protected order; `None` auto-builds them (range merging for
        /// ordinal attributes, frequency folding for nominal ones).
        hierarchies: Option<Vec<Hierarchy>>,
    },
}

/// A resolved data source: the concrete table a job will run against.
pub struct SourceData {
    /// The evaluation dataset kind, when the source was generated.
    pub kind: Option<DatasetKind>,
    /// The full original file.
    pub table: Table,
    /// Indices of the protected attributes.
    pub protected: Vec<usize>,
    /// One hierarchy per protected attribute, in protected order. Empty
    /// when the pipeline resolved a table source for a pre-masked
    /// ([`PopulationSpec::Named`]) job, which never masks;
    /// [`ProtectionJob::resolve_source`] always fills it.
    pub hierarchies: Vec<Hierarchy>,
}

impl SourceData {
    /// The sub-table of protected columns (what methods mask and measures
    /// score).
    pub fn original(&self) -> SubTable {
        self.table
            .subtable(&self.protected)
            .expect("protected indices validated at resolve time")
    }

    /// Hierarchy references in the layout protection methods expect.
    pub fn hierarchy_refs(&self) -> Vec<&Hierarchy> {
        self.hierarchies.iter().collect()
    }
}

impl fmt::Debug for DataSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataSource::Generated {
                kind,
                records,
                seed,
            } => f
                .debug_struct("Generated")
                .field("kind", kind)
                .field("records", records)
                .field("seed", seed)
                .finish(),
            DataSource::Dataset(ds) => f.debug_tuple("Dataset").field(&ds.kind).finish(),
            DataSource::Table {
                table, protected, ..
            } => f
                .debug_struct("Table")
                .field("rows", &table.n_rows())
                .field("attrs", &table.n_attrs())
                .field("protected", protected)
                .finish(),
        }
    }
}

impl fmt::Debug for PopulationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopulationSpec::Suite(kind) => f.debug_tuple("Suite").field(kind).finish(),
            PopulationSpec::Custom(cfg) => f
                .debug_struct("Custom")
                .field("total", &cfg.total())
                .finish(),
            PopulationSpec::Methods(methods) => {
                let names: Vec<String> = methods.iter().map(|m| m.name()).collect();
                f.debug_tuple("Methods").field(&names).finish()
            }
            PopulationSpec::Named(items) => f
                .debug_struct("Named")
                .field("count", &items.len())
                .finish(),
        }
    }
}

impl fmt::Debug for ProtectionJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let optimizer = match &self.mode {
            OptimizerMode::Scalar(cfg) => format!("scalar({})", cfg.aggregator.name()),
            OptimizerMode::Nsga(_) => "nsga".to_string(),
        };
        f.debug_struct("ProtectionJob")
            .field("source", &self.source)
            .field("population", &self.population)
            .field("copies", &self.copies)
            .field("extra", &self.extra.len())
            .field("optimizer", &optimizer)
            .field("objectives", &self.objectives)
            .field("pram_epsilon", &self.pram_epsilon)
            .field("iterations", &self.iterations)
            .field("drop_best_fraction", &self.drop_best_fraction)
            .field("audit", &self.audit)
            .field("seed", &self.seed)
            .finish()
    }
}

impl DataSource {
    /// `need_hierarchies = false` skips auto-building hierarchies for a
    /// table source (used when the population recipe never masks — e.g. a
    /// pre-masked [`PopulationSpec::Named`] job like `cdp evaluate`).
    pub(crate) fn resolve(&self, default_seed: u64, need_hierarchies: bool) -> Result<SourceData> {
        match self {
            DataSource::Generated {
                kind,
                records,
                seed,
            } => {
                let mut cfg = GeneratorConfig::seeded(seed.unwrap_or(default_seed));
                if let Some(n) = records {
                    cfg = cfg.with_records(*n);
                }
                let ds = kind.generate(&cfg);
                Ok(SourceData {
                    kind: Some(*kind),
                    hierarchies: ds.protected_hierarchies().into_iter().cloned().collect(),
                    table: ds.table,
                    protected: ds.protected,
                })
            }
            DataSource::Dataset(ds) => Ok(SourceData {
                kind: Some(ds.kind),
                hierarchies: ds.protected_hierarchies().into_iter().cloned().collect(),
                table: ds.table.clone(),
                protected: ds.protected.clone(),
            }),
            DataSource::Table {
                table,
                protected,
                hierarchies,
            } => {
                if protected.is_empty() {
                    return Err(PipelineError::InvalidJob(
                        "a table source needs at least one protected attribute".into(),
                    ));
                }
                for &j in protected {
                    if j >= table.n_attrs() {
                        return Err(PipelineError::InvalidJob(format!(
                            "protected attribute index {j} out of range (table has {} attributes)",
                            table.n_attrs()
                        )));
                    }
                }
                let hierarchies = match hierarchies {
                    Some(hs) => {
                        if hs.len() != protected.len() {
                            return Err(PipelineError::InvalidJob(format!(
                                "{} hierarchies supplied for {} protected attributes",
                                hs.len(),
                                protected.len()
                            )));
                        }
                        hs.clone()
                    }
                    None if need_hierarchies => auto_hierarchies(table, protected)?,
                    None => Vec::new(),
                };
                Ok(SourceData {
                    kind: None,
                    table: table.clone(),
                    protected: protected.clone(),
                    hierarchies,
                })
            }
        }
    }
}

/// Build one hierarchy per selected attribute from the observed data:
/// merged runs for ordinal attributes, fold-into-mode for nominal ones.
fn auto_hierarchies(table: &Table, indices: &[usize]) -> Result<Vec<Hierarchy>> {
    indices
        .iter()
        .map(|&j| {
            let attr = table.schema().attr(j);
            match attr.kind() {
                AttrKind::Ordinal => Ok(Hierarchy::ordinal_auto(attr)),
                AttrKind::Nominal => {
                    let counts = stats::marginal_counts(table.column(j), attr.n_categories());
                    Ok(Hierarchy::nominal_from_counts(attr, &counts)?)
                }
            }
        })
        .collect()
}

/// Which optimizer drives a job's evolve stage.
///
/// Scalar and Pareto runs share every other part of the job shape — source,
/// population recipe, metrics, seed, audit — so the paper-vs-NSGA-II
/// ablation is a one-flag flip ([`ProtectionJobBuilder::nsga`]) on an
/// otherwise identical job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerMode {
    /// The paper's Algorithm 1: scalarized fitness (Eq. 1 mean / Eq. 2
    /// max), one winner per run.
    Scalar(EvoConfig),
    /// NSGA-II over Pareto dominance on (IL, DR) (the §4 "other fitness
    /// functions" extension): one run, the whole trade-off front.
    Nsga(NsgaConfig),
}

/// Which predefined masking sweep seeds the initial population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// [`SuiteConfig::small`] — 12 protections, fast.
    Small,
    /// [`SuiteConfig::paper`] — the paper's per-dataset composition
    /// (86–110 protections); requires a generated-dataset source.
    Paper,
}

impl SuiteKind {
    /// The CLI spelling of the suite (`small` / `paper`).
    pub fn name(self) -> &'static str {
        match self {
            SuiteKind::Small => "small",
            SuiteKind::Paper => "paper",
        }
    }
}

/// How the initial population of protections is produced.
pub enum PopulationSpec {
    /// A predefined sweep, resolved against the source's dataset kind.
    Suite(SuiteKind),
    /// An explicit sweep configuration.
    Custom(SuiteConfig),
    /// A list of protection methods, each applied `copies` times with a
    /// shared seeded RNG stream.
    Methods(Vec<Box<dyn ProtectionMethod>>),
    /// Pre-masked files supplied by the caller.
    Named(Vec<(String, SubTable)>),
}

/// Optional privacy-audit stage configuration.
#[derive(Debug, Clone, Default)]
pub struct AuditSpec {
    /// Names of sensitive attributes (columns of the *full* table) to
    /// audit for l-diversity / t-closeness within the winner's classes.
    pub sensitive: Vec<String>,
}

/// A declarative protection job: the paper's whole workflow in one value.
///
/// Build with [`ProtectionJob::builder`]; execute with
/// [`ProtectionJob::run`] (one-shot) or [`SharedSession::run`] (amortizing
/// evaluator preparation across jobs). A job is immutable and reusable:
/// running it twice produces identical reports.
pub struct ProtectionJob {
    pub(crate) source: DataSource,
    pub(crate) population: PopulationSpec,
    pub(crate) copies: usize,
    pub(crate) extra: Vec<(String, SubTable)>,
    pub(crate) metrics: MetricConfig,
    pub(crate) mode: OptimizerMode,
    pub(crate) objectives: ObjectiveSet,
    pub(crate) pram_epsilon: Option<f64>,
    pub(crate) iterations: usize,
    pub(crate) drop_best_fraction: f64,
    pub(crate) audit: Option<AuditSpec>,
    pub(crate) seed: u64,
}

impl ProtectionJob {
    /// Start describing a job.
    pub fn builder() -> ProtectionJobBuilder {
        ProtectionJobBuilder::default()
    }

    /// Execute in a throwaway [`SharedSession`].
    ///
    /// # Errors
    /// Any [`PipelineError`] raised by a stage.
    pub fn run(&self) -> Result<JobReport> {
        SharedSession::new().run(self)
    }

    /// Execute in a throwaway [`SharedSession`] with a progress observer.
    ///
    /// # Errors
    /// Any [`PipelineError`] raised by a stage.
    pub fn run_with<F: FnMut(&JobEvent)>(&self, observer: F) -> Result<JobReport> {
        SharedSession::new().run_with(self, observer)
    }

    /// Resolve the data source into the concrete table the job runs
    /// against (generation happens here for generated sources; table
    /// sources get their hierarchies auto-built when not supplied).
    ///
    /// # Errors
    /// [`PipelineError::InvalidJob`] for inconsistent table sources.
    pub fn resolve_source(&self) -> Result<SourceData> {
        self.source.resolve(self.seed, true)
    }

    /// Resolution as the run engine performs it: hierarchy auto-building
    /// is skipped when the population recipe is pre-masked and therefore
    /// never needs them.
    pub(crate) fn resolve_for_run(&self) -> Result<SourceData> {
        let population_masks = !matches!(self.population, PopulationSpec::Named(_));
        self.source.resolve(self.seed, population_masks)
    }

    /// Materialize the initial population against a resolved source.
    ///
    /// The RNG streams match the free-form entry points
    /// ([`cdp_sdc::build_population`] for suites), so a job reproduces the
    /// exact population a hand-wired experiment with the same seed built.
    ///
    /// # Errors
    /// Method failures while masking, or [`PipelineError::InvalidJob`] for
    /// an empty population / a paper suite without a dataset kind.
    pub fn seed_population(&self, src: &SourceData) -> Result<Vec<(String, SubTable)>> {
        let original = src.original();
        let refs = src.hierarchy_refs();
        let from_suite = |cfg: &SuiteConfig| -> Result<Vec<(String, SubTable)>> {
            Ok(build_population_from(&original, &refs, cfg, self.seed)?
                .into_iter()
                .map(Into::into)
                .collect())
        };
        let mut pop = match &self.population {
            PopulationSpec::Suite(SuiteKind::Small) => from_suite(&SuiteConfig::small())?,
            PopulationSpec::Suite(SuiteKind::Paper) => {
                let kind = src.kind.ok_or_else(|| {
                    PipelineError::InvalidJob(
                        "the paper suite is defined per evaluation dataset; \
                         use a generated-dataset source or a custom suite"
                            .into(),
                    )
                })?;
                from_suite(&SuiteConfig::paper(kind))?
            }
            PopulationSpec::Custom(cfg) => from_suite(cfg)?,
            PopulationSpec::Methods(methods) => {
                let ctx = MethodContext { hierarchies: &refs };
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x000C_EA11);
                let mut out = Vec::with_capacity(methods.len() * self.copies);
                for method in methods {
                    for copy in 0..self.copies {
                        let data = method.protect(&original, &ctx, &mut rng)?;
                        let name = if self.copies == 1 {
                            method.name()
                        } else {
                            format!("{}#{copy}", method.name())
                        };
                        out.push((name, data));
                    }
                }
                out
            }
            PopulationSpec::Named(items) => items.clone(),
        };
        pop.extend(self.extra.iter().cloned());
        if let Some(eps) = self.pram_epsilon {
            // the ε member draws from its own seeded stream so that
            // adding (or removing) it never perturbs the recipe's or the
            // optimizer's RNG streams
            let ctx = MethodContext { hierarchies: &refs };
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x00E5_0CA1);
            let method = Pram::epsilon_calibrated(eps);
            let data = method.protect(&original, &ctx, &mut rng)?;
            pop.push((method.name(), data));
        }
        if pop.is_empty() {
            return Err(PipelineError::InvalidJob(
                "the population recipe produced no protections".into(),
            ));
        }
        Ok(pop)
    }

    /// Which optimizer drives the evolve stage, with its full
    /// configuration (the job seed and iteration budget already applied).
    pub fn optimizer(&self) -> OptimizerMode {
        self.mode
    }

    /// The scalar evolution configuration the job runs with. In NSGA-II
    /// mode this is the *scalar view* of the shared knobs (seed, budget and
    /// islands at their job values; everything else at its default) —
    /// what an otherwise-identical scalar job would use.
    pub fn evo_config(&self) -> EvoConfig {
        match self.mode {
            OptimizerMode::Scalar(cfg) => cfg,
            OptimizerMode::Nsga(cfg) => EvoConfig {
                seed: self.seed,
                iterations: self.iterations.max(1),
                islands: cfg.islands,
                ..EvoConfig::default()
            },
        }
    }

    /// The NSGA-II configuration, when the job runs in that mode.
    pub fn nsga_config(&self) -> Option<NsgaConfig> {
        match self.mode {
            OptimizerMode::Scalar(_) => None,
            OptimizerMode::Nsga(cfg) => Some(cfg),
        }
    }

    /// The objective vector the NSGA-II mode minimizes (the canonical
    /// `il, dr` pair unless [`ProtectionJobBuilder::objective`] appended
    /// extras).
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// The ε budget of the calibrated-PRAM population member, when
    /// [`ProtectionJobBuilder::epsilon_pram`] requested one.
    pub fn pram_epsilon(&self) -> Option<f64> {
        self.pram_epsilon
    }

    /// Metric configuration.
    pub fn metrics(&self) -> MetricConfig {
        self.metrics
    }

    /// The data source description.
    pub fn source(&self) -> &DataSource {
        &self.source
    }

    /// The population recipe.
    pub fn population(&self) -> &PopulationSpec {
        &self.population
    }

    /// Copies per method for [`PopulationSpec::Methods`].
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Extra protections appended on top of the population recipe.
    pub fn extras(&self) -> &[(String, SubTable)] {
        &self.extra
    }

    /// Iteration budget: scalar iterations, or NSGA-II generations. `0`
    /// means mask-and-score only (scalar mode; NSGA-II needs at least one
    /// generation).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Master seed (population masking and evolution).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fraction of best initial protections dropped before evolving.
    pub fn drop_fraction(&self) -> f64 {
        self.drop_best_fraction
    }

    /// The audit stage, when enabled.
    pub fn audit_spec(&self) -> Option<&AuditSpec> {
        self.audit.as_ref()
    }
}

/// Fluent builder for [`ProtectionJob`]; see the module docs for the
/// one-chain quickstart.
pub struct ProtectionJobBuilder {
    source: Option<DataSource>,
    records: Option<usize>,
    generator_seed: Option<u64>,
    hierarchies: Option<Vec<Hierarchy>>,
    population: Option<PopulationSpec>,
    copies: usize,
    extra: Vec<(String, SubTable)>,
    metrics: MetricConfig,
    evo: EvoConfig,
    multi_objective: bool,
    objectives: Vec<String>,
    pram_epsilon: Option<f64>,
    offspring: Option<usize>,
    crossover_prob: Option<f64>,
    iterations: usize,
    drop_best_fraction: f64,
    audit: Option<AuditSpec>,
    seed: u64,
}

impl Default for ProtectionJobBuilder {
    fn default() -> Self {
        ProtectionJobBuilder {
            source: None,
            records: None,
            generator_seed: None,
            hierarchies: None,
            population: None,
            copies: 2,
            extra: Vec::new(),
            metrics: MetricConfig::default(),
            evo: EvoConfig::default(),
            multi_objective: false,
            objectives: Vec::new(),
            pram_epsilon: None,
            offspring: None,
            crossover_prob: None,
            iterations: 300,
            drop_best_fraction: 0.0,
            audit: None,
            seed: 42,
        }
    }
}

impl ProtectionJobBuilder {
    /// Source: generate one of the paper's evaluation datasets.
    pub fn dataset(mut self, kind: DatasetKind) -> Self {
        self.source = Some(DataSource::Generated {
            kind,
            records: None,
            seed: None,
        });
        self
    }

    /// Record-count override for a generated source.
    pub fn records(mut self, n: usize) -> Self {
        self.records = Some(n);
        self
    }

    /// Generator seed override (defaults to the job seed).
    pub fn generator_seed(mut self, seed: u64) -> Self {
        self.generator_seed = Some(seed);
        self
    }

    /// Source: an already-generated dataset.
    pub fn generated(mut self, ds: Dataset) -> Self {
        self.source = Some(DataSource::Dataset(ds));
        self
    }

    /// Source: a loaded table with the given protected attribute indices.
    pub fn table(mut self, table: Table, protected: Vec<usize>) -> Self {
        self.source = Some(DataSource::Table {
            table,
            protected,
            hierarchies: None,
        });
        self
    }

    /// Hierarchies for a table source (protected order); auto-built when
    /// omitted.
    pub fn hierarchies(mut self, hierarchies: Vec<Hierarchy>) -> Self {
        self.hierarchies = Some(hierarchies);
        self
    }

    /// Any [`DataSource`] value (escape hatch).
    pub fn source(mut self, source: DataSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Population: the small 12-protection sweep (default).
    pub fn suite_small(mut self) -> Self {
        self.population = Some(PopulationSpec::Suite(SuiteKind::Small));
        self
    }

    /// Population: the paper's per-dataset sweep.
    pub fn suite_paper(mut self) -> Self {
        self.population = Some(PopulationSpec::Suite(SuiteKind::Paper));
        self
    }

    /// Population: a predefined suite by tag.
    pub fn suite_kind(mut self, kind: SuiteKind) -> Self {
        self.population = Some(PopulationSpec::Suite(kind));
        self
    }

    /// Population: an explicit sweep configuration.
    pub fn suite(mut self, cfg: SuiteConfig) -> Self {
        self.population = Some(PopulationSpec::Custom(cfg));
        self
    }

    /// Population: explicit protection methods, `copies()` each.
    pub fn methods(mut self, methods: Vec<Box<dyn ProtectionMethod>>) -> Self {
        self.population = Some(PopulationSpec::Methods(methods));
        self
    }

    /// Masked copies per method for [`ProtectionJobBuilder::methods`]
    /// (default 2).
    pub fn copies(mut self, copies: usize) -> Self {
        self.copies = copies;
        self
    }

    /// Population: caller-supplied pre-masked files.
    pub fn named_population<I>(mut self, items: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.population = Some(PopulationSpec::Named(
            items.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Append one extra protection on top of whatever the population
    /// recipe produces (custom methods, MDAV, hand-tuned files, …).
    pub fn add_protection(mut self, name: impl Into<String>, data: SubTable) -> Self {
        self.extra.push((name.into(), data));
        self
    }

    /// Measure parameters (interval fraction, RSRL window, EM iterations).
    pub fn metrics(mut self, cfg: MetricConfig) -> Self {
        self.metrics = cfg;
        self
    }

    /// Fitness aggregator (the paper's Eq. 1 `Mean` or Eq. 2 `Max`).
    /// Scalar mode only: NSGA-II selection works on Pareto dominance and
    /// never aggregates.
    pub fn aggregator(mut self, agg: ScoreAggregator) -> Self {
        self.evo.aggregator = agg;
        self
    }

    /// Optimize with NSGA-II (Pareto dominance over (IL, DR)) instead of
    /// the paper's scalarized fitness. [`ProtectionJobBuilder::iterations`]
    /// then counts *generations*; the report carries a
    /// [`super::Front`] instead of a scalar winner.
    pub fn nsga(mut self) -> Self {
        self.multi_objective = true;
        self
    }

    /// Append one more minimized objective (registry key `eps` or
    /// `util`) to the NSGA-II objective vector, after the canonical
    /// `il, dr` pair. NSGA-II mode only: Pareto dominance, crowding and
    /// the published front then work over the extended vector; the
    /// default pair keeps the run bit-identical to the hard-wired
    /// two-objective engine.
    pub fn objective(mut self, key: impl Into<String>) -> Self {
        self.objectives.push(key.into());
        self
    }

    /// Append an ε-calibrated invariant-PRAM protection
    /// ([`Pram::epsilon_calibrated`]) to the initial population, drawn
    /// from its own seeded stream (so the rest of the run's RNG streams
    /// are untouched). The budget is surfaced in the audit report's
    /// `epsilon` field when the audit stage is enabled.
    pub fn epsilon_pram(mut self, epsilon: f64) -> Self {
        self.pram_epsilon = Some(epsilon);
        self
    }

    /// NSGA-II offspring per generation (`0` = population size; the
    /// default). NSGA-II mode only.
    pub fn offspring(mut self, n: usize) -> Self {
        self.offspring = Some(n);
        self
    }

    /// NSGA-II probability that an offspring pair comes from crossover
    /// rather than mutation (the paper's operator coin, 0.5). NSGA-II mode
    /// only.
    pub fn crossover_prob(mut self, p: f64) -> Self {
        self.crossover_prob = Some(p);
        self
    }

    /// Any [`OptimizerMode`] value (escape hatch): adopts the mode and its
    /// whole configuration, resetting the other mode's knobs — so a reused
    /// builder ends up in the same state regardless of what was set before.
    /// The job seed still overrides the config's embedded seed at
    /// [`ProtectionJobBuilder::build`] time, keeping one master seed per
    /// job.
    pub fn optimizer(mut self, mode: OptimizerMode) -> Self {
        match mode {
            OptimizerMode::Scalar(cfg) => {
                self.multi_objective = false;
                self.offspring = None;
                self.crossover_prob = None;
                self.objectives.clear();
                self.iterations = cfg.iterations;
                self.evo = cfg;
            }
            OptimizerMode::Nsga(cfg) => {
                self.multi_objective = true;
                self.iterations = cfg.generations;
                self.offspring = Some(cfg.offspring);
                self.crossover_prob = Some(cfg.crossover_prob);
                self.evo = EvoConfig {
                    islands: cfg.islands,
                    ..EvoConfig::default()
                };
                self.drop_best_fraction = 0.0;
            }
        }
        self
    }

    /// Iteration budget; `0` skips evolution (mask-and-score only).
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Probability of a mutation generation (vs crossover).
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.evo.mutation_rate = rate;
        self
    }

    /// Number of islands for the island-model scheduler (default 1 =
    /// single-population legacy run, bit-identical streams). A shared
    /// knob: it applies to both the scalar and NSGA-II optimizers; see
    /// [`cdp_core::islands`] for the determinism contract.
    pub fn islands(mut self, count: usize) -> Self {
        self.evo.islands.count = count;
        self
    }

    /// Generations between migration epochs when `islands > 1`
    /// (default 10). Shared between the scalar and NSGA-II modes.
    pub fn migration_interval(mut self, interval: usize) -> Self {
        self.evo.islands.migration_interval = interval;
        self
    }

    /// Individuals exchanged per migration epoch (default 2; `0` runs
    /// fully isolated islands). Shared between the two modes.
    pub fn migration_size(mut self, size: usize) -> Self {
        self.evo.islands.migration_size = size;
        self
    }

    /// Drop the best fraction of the initial population before evolving
    /// (the §3.3 robustness experiment).
    pub fn drop_best_fraction(mut self, fraction: f64) -> Self {
        self.drop_best_fraction = fraction;
        self
    }

    /// Enable the privacy-audit stage (k-anonymity, prosecutor/journalist
    /// risk) on the winning protection.
    pub fn audit(mut self) -> Self {
        self.audit.get_or_insert_with(AuditSpec::default);
        self
    }

    /// Enable the audit stage and name sensitive attributes (full-table
    /// column names) to additionally check for l-diversity / t-closeness.
    pub fn audit_sensitive<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let spec = self.audit.get_or_insert_with(AuditSpec::default);
        spec.sensitive.extend(names.into_iter().map(Into::into));
        self
    }

    /// Master seed: population masking, evolution, and the generator
    /// (unless overridden with [`ProtectionJobBuilder::generator_seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate and finish.
    ///
    /// # Errors
    /// [`PipelineError::InvalidJob`] when no source was given, `copies` is
    /// zero, the drop fraction is out of range, or the evolution knobs are
    /// invalid; [`PipelineError::Evolution`] wraps the latter.
    pub fn build(mut self) -> Result<ProtectionJob> {
        let mut source = self.source.take().ok_or_else(|| {
            PipelineError::InvalidJob(
                "a data source is required (dataset(), table() or source())".into(),
            )
        })?;
        if let DataSource::Generated { records, seed, .. } = &mut source {
            if self.records.is_some() {
                *records = self.records;
            }
            if self.generator_seed.is_some() {
                *seed = self.generator_seed;
            }
        }
        if let Some(hs) = self.hierarchies.take() {
            match &mut source {
                DataSource::Table { hierarchies, .. } => *hierarchies = Some(hs),
                _ => {
                    return Err(PipelineError::InvalidJob(
                        "hierarchies() only applies to a table source".into(),
                    ))
                }
            }
        }
        if self.copies == 0 {
            return Err(PipelineError::InvalidJob(
                "copies must be at least 1".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.drop_best_fraction) {
            return Err(PipelineError::InvalidJob(format!(
                "drop_best_fraction must lie in [0,1), got {}",
                self.drop_best_fraction
            )));
        }
        let mut objectives = ObjectiveSet::canonical();
        for key in &self.objectives {
            objectives
                .push_key(key)
                .map_err(|e| PipelineError::InvalidJob(e.to_string()))?;
        }
        if !objectives.is_canonical() && !self.multi_objective {
            return Err(PipelineError::InvalidJob(
                "objective() extends the NSGA-II objective vector; call nsga() first".into(),
            ));
        }
        if let Some(eps) = self.pram_epsilon {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(PipelineError::InvalidJob(format!(
                    "epsilon_pram() needs a positive finite budget, got {eps}"
                )));
            }
        }
        let mode = if self.multi_objective {
            // scalar-only knobs have no effect under Pareto selection;
            // reject them instead of silently dropping them
            let scalar_view = EvoConfig {
                islands: self.evo.islands,
                ..EvoConfig::default()
            };
            if self.evo != scalar_view {
                return Err(PipelineError::InvalidJob(
                    "scalar-only evolution knobs (aggregator(), mutation_rate()) \
                     do not apply to the NSGA-II mode"
                        .into(),
                ));
            }
            if self.drop_best_fraction != 0.0 {
                return Err(PipelineError::InvalidJob(
                    "drop_best_fraction() is the §3.3 scalar robustness knob; \
                     it does not apply to the NSGA-II mode"
                        .into(),
                ));
            }
            let defaults = NsgaConfig::default();
            let cfg = NsgaConfig {
                generations: self.iterations,
                offspring: self.offspring.unwrap_or(defaults.offspring),
                crossover_prob: self.crossover_prob.unwrap_or(defaults.crossover_prob),
                seed: self.seed,
                islands: self.evo.islands,
            };
            cfg.validate()?;
            OptimizerMode::Nsga(cfg)
        } else {
            if self.offspring.is_some() {
                return Err(PipelineError::InvalidJob(
                    "offspring() applies to the NSGA-II mode; call nsga() first".into(),
                ));
            }
            if self.crossover_prob.is_some() {
                return Err(PipelineError::InvalidJob(
                    "crossover_prob() applies to the NSGA-II mode; call nsga() first".into(),
                ));
            }
            let evo = EvoConfig {
                seed: self.seed,
                iterations: self.iterations.max(1),
                ..self.evo
            };
            evo.validate()?;
            OptimizerMode::Scalar(evo)
        };
        Ok(ProtectionJob {
            source,
            population: self
                .population
                .unwrap_or(PopulationSpec::Suite(SuiteKind::Small)),
            copies: self.copies,
            extra: self.extra,
            metrics: self.metrics,
            mode,
            objectives,
            pram_epsilon: self.pram_epsilon,
            iterations: self.iterations,
            drop_best_fraction: self.drop_best_fraction,
            audit: self.audit,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_a_source() {
        let err = ProtectionJob::builder().build().unwrap_err();
        assert!(err.to_string().contains("data source"));
    }

    #[test]
    fn builder_rejects_bad_knobs() {
        for (what, result) in [
            (
                "copies",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .copies(0)
                    .build()
                    .map(|_| ()),
            ),
            (
                "drop",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .drop_best_fraction(1.0)
                    .build()
                    .map(|_| ()),
            ),
            (
                "mutation rate",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .mutation_rate(1.5)
                    .build()
                    .map(|_| ()),
            ),
            (
                "hierarchies",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .hierarchies(Vec::new())
                    .build()
                    .map(|_| ()),
            ),
        ] {
            assert!(result.is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn nsga_mode_builds_its_config_from_the_shared_knobs() {
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .nsga()
            .iterations(40)
            .offspring(6)
            .crossover_prob(0.8)
            .seed(11)
            .build()
            .unwrap();
        let cfg = job.nsga_config().expect("nsga mode");
        assert_eq!(cfg.generations, 40);
        assert_eq!(cfg.offspring, 6);
        assert_eq!(cfg.crossover_prob, 0.8);
        assert_eq!(cfg.seed, 11);
        assert!(matches!(job.optimizer(), OptimizerMode::Nsga(_)));
        // the scalar view keeps the shared knobs
        assert_eq!(job.evo_config().seed, 11);
    }

    #[test]
    fn optimizer_escape_hatch_round_trips_both_modes() {
        let nsga = NsgaConfig {
            generations: 7,
            offspring: 3,
            crossover_prob: 0.25,
            seed: 2,
            islands: cdp_core::IslandConfig::default(),
        };
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .optimizer(OptimizerMode::Nsga(nsga))
            .seed(9)
            .build()
            .unwrap();
        // job seed wins over the embedded one; everything else is adopted
        assert_eq!(job.nsga_config(), Some(NsgaConfig { seed: 9, ..nsga }));

        let scalar = EvoConfig {
            mutation_rate: 0.7,
            ..EvoConfig::default()
        };
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .optimizer(OptimizerMode::Scalar(scalar))
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(job.evo_config().mutation_rate, 0.7);
        assert_eq!(job.evo_config().seed, 9);

        // switching modes resets the other mode's knobs: a reused builder
        // template cannot poison the new mode
        use cdp_metrics::ScoreAggregator;
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .aggregator(ScoreAggregator::Mean)
            .drop_best_fraction(0.1)
            .optimizer(OptimizerMode::Nsga(nsga))
            .seed(9)
            .build()
            .expect("nsga escape hatch clears scalar-only knobs");
        assert_eq!(job.nsga_config(), Some(NsgaConfig { seed: 9, ..nsga }));
    }

    #[test]
    fn nsga_mode_rejects_scalar_only_knobs() {
        use cdp_metrics::ScoreAggregator;
        for (what, result) in [
            (
                "aggregator",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .nsga()
                    .aggregator(ScoreAggregator::Mean)
                    .build()
                    .map(|_| ()),
            ),
            (
                "drop_best_fraction",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .nsga()
                    .drop_best_fraction(0.05)
                    .build()
                    .map(|_| ()),
            ),
            (
                "mutation_rate",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .nsga()
                    .mutation_rate(0.7)
                    .build()
                    .map(|_| ()),
            ),
            (
                "zero generations",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .nsga()
                    .iterations(0)
                    .build()
                    .map(|_| ()),
            ),
        ] {
            assert!(result.is_err(), "{what} must be rejected under nsga");
        }
    }

    #[test]
    fn scalar_mode_rejects_nsga_only_knobs() {
        for (what, result) in [
            (
                "offspring",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .offspring(4)
                    .build()
                    .map(|_| ()),
            ),
            (
                "crossover_prob",
                ProtectionJob::builder()
                    .dataset(DatasetKind::Adult)
                    .crossover_prob(0.9)
                    .build()
                    .map(|_| ()),
            ),
        ] {
            let err = result.unwrap_err();
            assert!(err.to_string().contains("NSGA-II mode"), "{what}: {err}");
        }
    }

    #[test]
    fn island_knobs_are_shared_between_both_modes() {
        // scalar mode: knobs land on EvoConfig::islands
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .islands(4)
            .migration_interval(25)
            .migration_size(3)
            .build()
            .unwrap();
        let islands = job.evo_config().islands;
        assert_eq!(islands.count, 4);
        assert_eq!(islands.migration_interval, 25);
        assert_eq!(islands.migration_size, 3);

        // nsga mode: the same knobs land on NsgaConfig::islands instead of
        // being rejected as scalar-only
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .nsga()
            .iterations(5)
            .islands(2)
            .migration_interval(3)
            .build()
            .unwrap();
        let cfg = job.nsga_config().expect("nsga mode");
        assert_eq!(cfg.islands.count, 2);
        assert_eq!(cfg.islands.migration_interval, 3);
        // and the scalar view reflects them too
        assert_eq!(job.evo_config().islands.count, 2);

        // invalid island configs are rejected at build time in both modes
        assert!(ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .islands(0)
            .build()
            .is_err());
        assert!(ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .nsga()
            .iterations(5)
            .migration_interval(0)
            .build()
            .is_err());
    }

    #[test]
    fn generated_source_defaults_to_job_seed() {
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(50)
            .seed(9)
            .build()
            .unwrap();
        let a = job.resolve_source().unwrap();
        let direct = DatasetKind::German.generate(&GeneratorConfig::seeded(9).with_records(50));
        assert_eq!(a.table.column(0), direct.table.column(0));
        assert_eq!(a.kind, Some(DatasetKind::German));
    }

    #[test]
    fn suite_population_matches_free_form_entry_point() {
        let ds = DatasetKind::Flare.generate(&GeneratorConfig::seeded(3).with_records(60));
        let direct: Vec<(String, SubTable)> =
            cdp_sdc::build_population(&ds, &SuiteConfig::small(), 3)
                .unwrap()
                .into_iter()
                .map(Into::into)
                .collect();
        let job = ProtectionJob::builder()
            .generated(ds)
            .suite_small()
            .seed(3)
            .build()
            .unwrap();
        let src = job.resolve_source().unwrap();
        let pop = job.seed_population(&src).unwrap();
        assert_eq!(pop.len(), direct.len());
        for ((an, ad), (bn, bd)) in pop.iter().zip(direct.iter()) {
            assert_eq!(an, bn);
            assert_eq!(ad, bd);
        }
    }

    #[test]
    fn paper_suite_requires_dataset_kind() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let job = ProtectionJob::builder()
            .table(ds.table.clone(), ds.protected.clone())
            .suite_paper()
            .build()
            .unwrap();
        let src = job.resolve_source().unwrap();
        let err = job.seed_population(&src).unwrap_err();
        assert!(err.to_string().contains("paper suite"));
    }

    #[test]
    fn table_source_auto_builds_hierarchies() {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(2).with_records(60));
        let job = ProtectionJob::builder()
            .table(ds.table.clone(), ds.protected.clone())
            .build()
            .unwrap();
        let src = job.resolve_source().unwrap();
        assert_eq!(src.hierarchies.len(), ds.protected.len());
        assert!(src.kind.is_none());
    }

    #[test]
    fn objective_extension_is_nsga_only_and_validated() {
        // extras build under nsga()
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .nsga()
            .iterations(5)
            .objective("eps")
            .build()
            .unwrap();
        assert_eq!(job.objectives().keys(), ["il", "dr", "eps"]);
        // default stays canonical
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .nsga()
            .iterations(5)
            .build()
            .unwrap();
        assert!(job.objectives().is_canonical());
        // scalar mode rejects extras
        let err = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .objective("eps")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nsga"), "{err}");
        // unknown keys and duplicates are named
        for bad in ["warp", "il"] {
            let err = ProtectionJob::builder()
                .dataset(DatasetKind::German)
                .nsga()
                .iterations(5)
                .objective(bad)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("objective"), "{bad}: {err}");
        }
    }

    #[test]
    fn epsilon_pram_member_joins_the_population() {
        let base = || {
            ProtectionJob::builder()
                .dataset(DatasetKind::German)
                .records(40)
                .seed(7)
        };
        let plain = base().build().unwrap();
        let with_eps = base().epsilon_pram(1.0).build().unwrap();
        assert_eq!(with_eps.pram_epsilon(), Some(1.0));
        let src = plain.resolve_source().unwrap();
        let pop_plain = plain.seed_population(&src).unwrap();
        let pop_eps = with_eps.seed_population(&src).unwrap();
        // exactly one extra member, appended last, and the recipe's
        // members are untouched (dedicated RNG stream)
        assert_eq!(pop_eps.len(), pop_plain.len() + 1);
        for ((an, ad), (bn, bd)) in pop_plain.iter().zip(&pop_eps) {
            assert_eq!(an, bn);
            assert_eq!(ad, bd);
        }
        assert_eq!(pop_eps.last().unwrap().0, "pram(eps=1.00,inv)");
        // invalid budgets are rejected at build time
        assert!(base().epsilon_pram(0.0).build().is_err());
        assert!(base().epsilon_pram(f64::NAN).build().is_err());
    }

    #[test]
    fn overflowing_epsilon_budget_runs_to_completion() {
        // e^1000 overflows f64: the calibrated retention saturates at 1
        // (identity PRAM) instead of a NaN matrix panicking the sampler
        let report = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(40)
            .nsga()
            .iterations(1)
            .epsilon_pram(1000.0)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let front = report.front().expect("nsga jobs produce a front");
        assert!(front
            .points
            .iter()
            .all(|p| p.il.is_finite() && p.dr.is_finite()));
    }

    #[test]
    fn table_source_validates_indices() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(30));
        let job = ProtectionJob::builder()
            .table(ds.table.clone(), vec![999])
            .build()
            .unwrap();
        assert!(job.resolve_source().is_err());
        let job = ProtectionJob::builder()
            .table(ds.table, vec![])
            .build()
            .unwrap();
        assert!(job.resolve_source().is_err());
    }
}
