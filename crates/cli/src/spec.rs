//! Protection specifications: the CLI's two mini-grammars.
//!
//! * [`parse_method`] — the `--method name:param` grammar mapping CLI
//!   strings onto [`cdp_sdc::ProtectionMethod`] values.
//! * [`JobSpec`] — the `key=value` job grammar that deserializes a whole
//!   `cdp optimize` invocation straight into a
//!   [`cdp::pipeline::ProtectionJob`], and serializes one back, so CLI
//!   jobs and library jobs cannot drift.

use cdp::pipeline::{DataSource, OptimizerMode, PopulationSpec, ProtectionJob, SuiteKind};
use cdp_core::NsgaConfig;
use cdp_dataset::generators::DatasetKind;
use cdp_metrics::ScoreAggregator;
use cdp_sdc::{
    Aggregate, BottomCoding, GlobalRecoding, Grouping, LocalSuppression, MicroVariant,
    Microaggregation, Pram, PramMode, ProtectionMethod, RandomSwap, RankSwapping, TopCoding,
};

use crate::commands::generate::dataset_kind;
use crate::error::{CliError, Result};

/// Grammar accepted by [`JobSpec::parse`]: whitespace-separated
/// `key=value` tokens, order-insensitive. Scalar-only keys under
/// `mode=nsga` (and vice versa) are rejected with the offending key named.
pub const JOB_GRAMMAR: &str = "\
  dataset=<adult|housing|german|flare>   evaluation dataset (required)
  records=<n>                            record-count override
  suite=<small|paper>                    initial population sweep
  mode=<scalar|nsga>                     optimizer (default scalar)
  seed=<u64>                             master seed
  audit=<true|false>                     privacy-audit the winner
  islands=<k>                            island-model parallel run with k
                                         islands (default 1 = the legacy
                                         single-population streams)
  mig=<n>                                generations between migration
                                         epochs when islands>1 (default 10)
  -- scalar mode only --
  fitness=<mean|max>                     scalar aggregator
  iters=<n>                              evolution budget (0 = mask only)
  drop=<fraction>                        drop best initial fraction (§3.3)
  -- nsga mode only --
  gens=<n>                               NSGA-II generations
  offspring=<n>                          offspring per generation (0 = population size)
  xprob=<p>                              crossover probability
  obj=il,dr[,eps|util]                   objective vector (leads with the
                                         canonical il,dr pair; extras: eps
                                         empirical-LDP leakage, util
                                         task-utility gap)
  eps=<budget>                           add an ε-calibrated invariant-PRAM
                                         member to the initial population";

/// The optimizer selector of the job grammar (`mode=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMode {
    /// The paper's scalar algorithm (default).
    Scalar,
    /// NSGA-II over Pareto dominance.
    Nsga,
}

impl SpecMode {
    /// The CLI spelling (`scalar` / `nsga`).
    pub fn name(self) -> &'static str {
        match self {
            SpecMode::Scalar => "scalar",
            SpecMode::Nsga => "nsga",
        }
    }
}

/// A `cdp optimize` dataset-mode invocation as data: the textual job
/// format the CLI exchanges with [`ProtectionJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Evaluation dataset.
    pub dataset: DatasetKind,
    /// Record-count override.
    pub records: Option<usize>,
    /// Initial population sweep.
    pub suite: SuiteKind,
    /// Which optimizer drives the run.
    pub mode: SpecMode,
    /// Scalar fitness aggregator.
    pub fitness: ScoreAggregator,
    /// Scalar evolution budget (0 = mask and score only).
    pub iters: usize,
    /// NSGA-II generations.
    pub gens: usize,
    /// NSGA-II offspring per generation (0 = population size).
    pub offspring: usize,
    /// NSGA-II crossover probability.
    pub xprob: f64,
    /// Master seed.
    pub seed: u64,
    /// Fraction of best initial protections dropped before evolving
    /// (scalar).
    pub drop: f64,
    /// Whether to privacy-audit the winner.
    pub audit: bool,
    /// Island count (`islands=` key; default 1 = the legacy
    /// single-population run). Shared between the two modes.
    pub islands: usize,
    /// Migration interval in generations (`mig=` key; default 10).
    pub mig: usize,
    /// Extra objective keys beyond the canonical leading `il, dr` pair
    /// (`obj=` key; nsga mode only — the scalar optimizer aggregates the
    /// fixed pair).
    pub obj: Vec<String>,
    /// ε-calibrated invariant-PRAM population member: the budget of the
    /// `eps=` key (nsga mode only).
    pub eps: Option<f64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        let nsga = NsgaConfig::default();
        JobSpec {
            dataset: DatasetKind::Adult,
            records: None,
            suite: SuiteKind::Small,
            mode: SpecMode::Scalar,
            fitness: ScoreAggregator::Max,
            iters: 300,
            // match the scalar `iters` default, so a budget-less CLI run
            // spends the same 300 steps in either mode
            gens: 300,
            offspring: nsga.offspring,
            xprob: nsga.crossover_prob,
            seed: 42,
            drop: 0.0,
            audit: false,
            islands: 1,
            mig: cdp_core::IslandConfig::default().migration_interval,
            obj: Vec::new(),
            eps: None,
        }
    }
}

impl JobSpec {
    /// Parse the `key=value` grammar.
    ///
    /// Mode consistency is validated after all tokens are read (the
    /// grammar is order-insensitive, so `mode=` may come last): scalar-only
    /// keys under `mode=nsga` — and nsga-only keys under the (default)
    /// scalar mode — are usage errors naming the offending key.
    ///
    /// # Errors
    /// [`CliError::Usage`] with the offending token and the grammar.
    pub fn parse(text: &str) -> Result<JobSpec> {
        let bad = |msg: String| CliError::Usage(format!("{msg}\njob spec keys:\n{JOB_GRAMMAR}"));
        let mut spec = JobSpec::default();
        let mut saw_dataset = false;
        let mut seen: Vec<&str> = Vec::new();
        for token in text.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got `{token}`")))?;
            match key {
                "dataset" => {
                    spec.dataset = dataset_kind(value)?;
                    saw_dataset = true;
                }
                "records" => {
                    spec.records = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("records: bad count `{value}`")))?,
                    );
                }
                "suite" => {
                    spec.suite = parse_suite(value)?;
                }
                "mode" => {
                    spec.mode = parse_mode(value)?;
                }
                "fitness" => {
                    spec.fitness = parse_fitness(value)?;
                    seen.push("fitness");
                }
                "iters" => {
                    spec.iters = value
                        .parse()
                        .map_err(|_| bad(format!("iters: bad count `{value}`")))?;
                    seen.push("iters");
                }
                "gens" => {
                    spec.gens = value
                        .parse()
                        .map_err(|_| bad(format!("gens: bad count `{value}`")))?;
                    seen.push("gens");
                }
                "offspring" => {
                    spec.offspring = value
                        .parse()
                        .map_err(|_| bad(format!("offspring: bad count `{value}`")))?;
                    seen.push("offspring");
                }
                "xprob" => {
                    spec.xprob = value
                        .parse()
                        .map_err(|_| bad(format!("xprob: bad probability `{value}`")))?;
                    seen.push("xprob");
                }
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| bad(format!("seed: bad value `{value}`")))?;
                }
                "drop" => {
                    spec.drop = value
                        .parse()
                        .map_err(|_| bad(format!("drop: bad fraction `{value}`")))?;
                    seen.push("drop");
                }
                "audit" => {
                    spec.audit = value
                        .parse()
                        .map_err(|_| bad(format!("audit: expected true/false, got `{value}`")))?;
                }
                "islands" => {
                    spec.islands = value
                        .parse()
                        .map_err(|_| bad(format!("islands: bad count `{value}`")))?;
                }
                "mig" => {
                    spec.mig = value
                        .parse()
                        .map_err(|_| bad(format!("mig: bad interval `{value}`")))?;
                }
                "obj" => {
                    // the metrics registry owns the key grammar; the CLI
                    // stores only the extension beyond the canonical pair
                    let set = cdp_metrics::ObjectiveSet::parse(value)
                        .map_err(|e| bad(format!("obj: {e}")))?;
                    spec.obj = set.keys()[2..].iter().map(|k| (*k).to_string()).collect();
                    seen.push("obj");
                }
                "eps" => {
                    spec.eps = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("eps: bad budget `{value}`")))?,
                    );
                    seen.push("eps");
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        if !saw_dataset {
            return Err(bad("a dataset= key is required".into()));
        }
        let (wrong, right_mode): (&[&str], &str) = match spec.mode {
            SpecMode::Scalar => (&["gens", "offspring", "xprob", "obj", "eps"], "mode=nsga"),
            SpecMode::Nsga => (&["fitness", "iters", "drop"], "the (default) scalar mode"),
        };
        if let Some(key) = seen.iter().find(|k| wrong.contains(k)) {
            return Err(bad(format!(
                "`{key}` applies to {right_mode} (this spec runs {})",
                spec.mode.name()
            )));
        }
        Ok(spec)
    }

    /// Canonical serialization: fixed order, mode-appropriate keys only,
    /// re-parses to an equal spec (`parse ∘ to_spec_string = id`).
    pub fn to_spec_string(&self) -> String {
        let defaults = JobSpec::default();
        let mut out = match self.mode {
            SpecMode::Scalar => format!(
                "dataset={} suite={} fitness={} iters={} seed={}",
                self.dataset.name().to_ascii_lowercase(),
                self.suite.name(),
                self.fitness.name(),
                self.iters,
                self.seed,
            ),
            SpecMode::Nsga => format!(
                "dataset={} suite={} mode=nsga gens={} seed={}",
                self.dataset.name().to_ascii_lowercase(),
                self.suite.name(),
                self.gens,
                self.seed,
            ),
        };
        if let Some(n) = self.records {
            out.push_str(&format!(" records={n}"));
        }
        match self.mode {
            SpecMode::Scalar => {
                if self.drop > 0.0 {
                    out.push_str(&format!(" drop={}", self.drop));
                }
            }
            SpecMode::Nsga => {
                if self.offspring != defaults.offspring {
                    out.push_str(&format!(" offspring={}", self.offspring));
                }
                if self.xprob != defaults.xprob {
                    out.push_str(&format!(" xprob={}", self.xprob));
                }
                if !self.obj.is_empty() {
                    out.push_str(&format!(" obj=il,dr,{}", self.obj.join(",")));
                }
                if let Some(eps) = self.eps {
                    out.push_str(&format!(" eps={eps}"));
                }
            }
        }
        if self.islands != defaults.islands {
            out.push_str(&format!(" islands={}", self.islands));
        }
        if self.mig != defaults.mig {
            out.push_str(&format!(" mig={}", self.mig));
        }
        if self.audit {
            out.push_str(" audit=true");
        }
        out
    }

    /// Deserialize into a runnable [`ProtectionJob`].
    ///
    /// # Errors
    /// [`CliError::Usage`] for inconsistent knob combinations.
    pub fn to_job(&self) -> Result<ProtectionJob> {
        let mut builder = ProtectionJob::builder()
            .dataset(self.dataset)
            .suite_kind(self.suite)
            .seed(self.seed)
            .islands(self.islands)
            .migration_interval(self.mig);
        builder = match self.mode {
            SpecMode::Scalar => builder
                .aggregator(self.fitness)
                .iterations(self.iters)
                .drop_best_fraction(self.drop),
            SpecMode::Nsga => builder
                .nsga()
                .iterations(self.gens)
                .offspring(self.offspring)
                .crossover_prob(self.xprob),
        };
        for key in &self.obj {
            builder = builder.objective(key.clone());
        }
        if let Some(eps) = self.eps {
            builder = builder.epsilon_pram(eps);
        }
        if let Some(n) = self.records {
            builder = builder.records(n);
        }
        if self.audit {
            builder = builder.audit();
        }
        Ok(builder.build()?)
    }

    /// Recover the spec from a [`ProtectionJob`], when the job is
    /// expressible in the CLI grammar (generated source, suite
    /// population, default knobs) — both optimizer modes round-trip. The
    /// exact inverse of [`JobSpec::to_job`]:
    /// `from_job(spec.to_job()?) == spec`.
    ///
    /// # Errors
    /// [`CliError::Usage`] for jobs carrying values the textual format
    /// cannot represent: loaded tables, custom suites, explicit method
    /// lists, pre-masked populations, `add_protection` extras, a
    /// generator-seed override, named sensitive audit attributes, or
    /// non-default metric/evolution knobs.
    pub fn from_job(job: &ProtectionJob) -> Result<JobSpec> {
        let unrepresentable =
            |what: &str| CliError::Usage(format!("{what} is not expressible as a CLI job spec"));
        let (dataset, records) = match job.source() {
            DataSource::Generated {
                kind,
                records,
                seed,
            } => {
                if seed.is_some() && *seed != Some(job.seed()) {
                    return Err(unrepresentable("a generator-seed override"));
                }
                (*kind, *records)
            }
            _ => return Err(unrepresentable("a non-generated data source")),
        };
        let suite = match job.population() {
            PopulationSpec::Suite(kind) => *kind,
            _ => return Err(unrepresentable("a non-suite population recipe")),
        };
        if !job.extras().is_empty() {
            return Err(unrepresentable("an add_protection extra"));
        }
        if job
            .audit_spec()
            .is_some_and(|spec| !spec.sensitive.is_empty())
        {
            return Err(unrepresentable("a named sensitive audit attribute"));
        }
        // the grammar carries no metric knob
        if job.metrics() != cdp_metrics::MetricConfig::default() {
            return Err(unrepresentable("a non-default metric configuration"));
        }
        let mut spec = JobSpec {
            dataset,
            records,
            suite,
            seed: job.seed(),
            audit: job.audit_spec().is_some(),
            ..JobSpec::default()
        };
        match job.optimizer() {
            OptimizerMode::Scalar(evo) => {
                // the grammar keeps obj=/eps= nsga-only, so a scalar job
                // carrying an ε-PRAM member has no spelling (the builder
                // already forbids a non-canonical objective set here)
                if job.pram_epsilon().is_some() {
                    return Err(unrepresentable(
                        "an ε-PRAM member under the scalar optimizer",
                    ));
                }
                // the grammar carries fitness/iters/drop/seed plus the
                // islands/mig pair; every other evolution knob must sit at
                // its default
                let mut expected = cdp_core::EvoConfig {
                    aggregator: evo.aggregator,
                    seed: job.seed(),
                    islands: cdp_core::IslandConfig {
                        count: evo.islands.count,
                        migration_interval: evo.islands.migration_interval,
                        ..cdp_core::IslandConfig::default()
                    },
                    ..cdp_core::EvoConfig::default()
                };
                expected.stop.max_iterations = job.iterations().max(1);
                if evo != expected {
                    return Err(unrepresentable("a non-default evolution knob"));
                }
                spec.mode = SpecMode::Scalar;
                spec.fitness = evo.aggregator;
                spec.iters = job.iterations();
                spec.drop = job.drop_fraction();
                spec.islands = evo.islands.count;
                spec.mig = evo.islands.migration_interval;
            }
            OptimizerMode::Nsga(cfg) => {
                if !cfg.parallel_init {
                    return Err(unrepresentable("a parallel_init override"));
                }
                let expected_islands = cdp_core::IslandConfig {
                    count: cfg.islands.count,
                    migration_interval: cfg.islands.migration_interval,
                    ..cdp_core::IslandConfig::default()
                };
                if cfg.islands != expected_islands {
                    return Err(unrepresentable("a migration_size/topology override"));
                }
                spec.mode = SpecMode::Nsga;
                spec.gens = cfg.generations;
                spec.offspring = cfg.offspring;
                spec.xprob = cfg.crossover_prob;
                spec.islands = cfg.islands.count;
                spec.mig = cfg.islands.migration_interval;
                spec.obj = job.objectives().keys()[2..]
                    .iter()
                    .map(|k| (*k).to_string())
                    .collect();
                spec.eps = job.pram_epsilon();
            }
        }
        Ok(spec)
    }
}

/// Parse a `--mode` / `mode=` value.
pub fn parse_mode(value: &str) -> Result<SpecMode> {
    match value {
        "scalar" => Ok(SpecMode::Scalar),
        "nsga" => Ok(SpecMode::Nsga),
        other => Err(CliError::Usage(format!(
            "unknown mode `{other}` (scalar, nsga)"
        ))),
    }
}

/// Parse a `--suite` / `suite=` value.
pub fn parse_suite(value: &str) -> Result<SuiteKind> {
    match value {
        "small" => Ok(SuiteKind::Small),
        "paper" => Ok(SuiteKind::Paper),
        other => Err(CliError::Usage(format!(
            "unknown suite `{other}` (small, paper)"
        ))),
    }
}

/// Parse a `--fitness` / `fitness=` value.
pub fn parse_fitness(value: &str) -> Result<ScoreAggregator> {
    match value {
        "mean" => Ok(ScoreAggregator::Mean),
        "max" => Ok(ScoreAggregator::Max),
        other => Err(CliError::Usage(format!(
            "unknown fitness `{other}` (mean, max)"
        ))),
    }
}

/// Grammar accepted by [`parse_method`], one line per method.
pub const METHOD_GRAMMAR: &str = "\
  microagg:<k>[:uni|multi|bi][:median|mode]   categorical microaggregation
  bottomcode:<fraction>                       bottom coding
  topcode:<fraction>                          top coding
  recode:<level>                              global recoding (uniform level)
  rankswap:<p>                                rank swapping, window p% of n
  pram:<theta>[:unif|prop|inv]                PRAM, retention probability theta
  suppress:<k>                                local suppression of classes < k
  randomswap:<fraction>                       uncontrolled random swapping";

/// Parse a method spec like `pram:0.2:inv` into a boxed method.
///
/// # Errors
/// [`CliError::Usage`] with the offending token and the grammar.
pub fn parse_method(spec: &str) -> Result<Box<dyn ProtectionMethod>> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default();
    let params: Vec<&str> = parts.collect();
    let bad = |msg: String| CliError::Usage(format!("{msg}\naccepted methods:\n{METHOD_GRAMMAR}"));

    let one_param = |what: &str| -> Result<&str> {
        match params.as_slice() {
            [p] => Ok(*p),
            _ => Err(bad(format!("{name} needs exactly one parameter ({what})"))),
        }
    };

    match name {
        "microagg" => {
            if params.is_empty() || params.len() > 3 {
                return Err(bad("microagg:<k>[:grouping][:aggregate]".into()));
            }
            let k: usize = params[0]
                .parse()
                .map_err(|_| bad(format!("microagg: bad k `{}`", params[0])))?;
            let grouping = match params.get(1).copied() {
                None | Some("uni") => Grouping::Univariate,
                Some("multi") => Grouping::Multivariate,
                Some("bi") => Grouping::Bivariate,
                Some(other) => return Err(bad(format!("microagg: bad grouping `{other}`"))),
            };
            let aggregate = match params.get(2).copied() {
                None | Some("median") => Aggregate::Median,
                Some("mode") => Aggregate::Mode,
                Some(other) => return Err(bad(format!("microagg: bad aggregate `{other}`"))),
            };
            Ok(Box::new(Microaggregation::new(
                k,
                MicroVariant {
                    grouping,
                    aggregate,
                },
            )))
        }
        "bottomcode" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("bottomcode: bad fraction".into()))?;
            Ok(Box::new(BottomCoding { fraction }))
        }
        "topcode" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("topcode: bad fraction".into()))?;
            Ok(Box::new(TopCoding { fraction }))
        }
        "recode" => {
            let level: usize = one_param("level")?
                .parse()
                .map_err(|_| bad("recode: bad level".into()))?;
            Ok(Box::new(GlobalRecoding::uniform(level)))
        }
        "rankswap" => {
            let p: usize = one_param("p")?
                .parse()
                .map_err(|_| bad("rankswap: bad p".into()))?;
            Ok(Box::new(RankSwapping::new(p)))
        }
        "pram" => {
            if params.is_empty() || params.len() > 2 {
                return Err(bad("pram:<theta>[:mode]".into()));
            }
            let theta: f64 = params[0]
                .parse()
                .map_err(|_| bad(format!("pram: bad theta `{}`", params[0])))?;
            let mode = match params.get(1).copied() {
                None | Some("unif") => PramMode::Uniform,
                Some("prop") => PramMode::Proportional,
                Some("inv") => PramMode::Invariant,
                Some(other) => return Err(bad(format!("pram: bad mode `{other}`"))),
            };
            Ok(Box::new(Pram::new(theta, mode)))
        }
        "suppress" => {
            let min_class_size: usize = one_param("k")?
                .parse()
                .map_err(|_| bad("suppress: bad k".into()))?;
            Ok(Box::new(LocalSuppression { min_class_size }))
        }
        "randomswap" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("randomswap: bad fraction".into()))?;
            Ok(Box::new(RandomSwap { fraction }))
        }
        other => Err(bad(format!("unknown method `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_method_family() {
        for (spec, expected) in [
            ("microagg:3", "microagg"),
            ("microagg:5:multi:mode", "microagg"),
            ("bottomcode:0.1", "bottom"),
            ("topcode:0.2", "top"),
            ("recode:1", "grec"),
            ("rankswap:5", "rank"),
            ("pram:0.8", "pram"),
            ("pram:0.8:inv", "pram"),
            ("suppress:3", "suppress"),
            ("randomswap:0.25", "random"),
        ] {
            let m = parse_method(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                m.name().to_lowercase().contains(expected),
                "{spec} -> {}",
                m.name()
            );
        }
    }

    #[test]
    fn job_spec_round_trips_through_protection_job() {
        // spec text -> JobSpec -> ProtectionJob -> JobSpec -> spec text:
        // CLI jobs and library jobs cannot drift — in either mode
        for text in [
            "dataset=adult suite=small fitness=max iters=300 seed=42",
            "dataset=flare suite=paper fitness=mean iters=250 seed=7 records=120 drop=0.05",
            "dataset=german suite=small fitness=max iters=0 seed=1 audit=true",
            "dataset=housing suite=paper fitness=max iters=10 seed=3 records=80 drop=0.1 audit=true",
            "dataset=adult suite=small mode=nsga gens=100 seed=42",
            "dataset=german suite=paper mode=nsga gens=25 seed=9 records=100 offspring=6",
            "dataset=flare suite=small mode=nsga gens=12 seed=3 xprob=0.8 audit=true",
            "dataset=adult suite=small fitness=max iters=200 seed=13 islands=4",
            "dataset=german suite=small fitness=mean iters=120 seed=14 islands=2 mig=5",
            "dataset=housing suite=small mode=nsga gens=20 seed=15 islands=3",
            "dataset=flare suite=paper mode=nsga gens=30 seed=16 islands=2 mig=4 audit=true",
            "dataset=german suite=small mode=nsga gens=12 seed=17 obj=il,dr,eps eps=1.5",
            "dataset=adult suite=small mode=nsga gens=10 seed=18 obj=il,dr,util",
            "dataset=flare suite=small mode=nsga gens=8 seed=19 obj=il,dr,eps,util eps=0.75 audit=true",
            "dataset=housing suite=small mode=nsga gens=6 seed=20 eps=2.5",
        ] {
            let spec = JobSpec::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let job = spec.to_job().unwrap_or_else(|e| panic!("{text}: {e}"));
            let back = JobSpec::from_job(&job).unwrap();
            assert_eq!(spec, back, "{text}");
            assert_eq!(spec.to_spec_string(), back.to_spec_string());
            // the canonical string re-parses to the same spec
            assert_eq!(JobSpec::parse(&spec.to_spec_string()).unwrap(), spec);
        }
    }

    #[test]
    fn cross_mode_keys_are_rejected_with_the_key_named() {
        // scalar-only keys under mode=nsga …
        for (text, key) in [
            ("dataset=adult mode=nsga fitness=max", "fitness"),
            ("dataset=adult mode=nsga iters=10", "iters"),
            ("dataset=adult mode=nsga drop=0.05", "drop"),
            // … and mode= may come after the offending key
            ("dataset=adult iters=10 mode=nsga", "iters"),
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains(&format!("`{key}`")), "{text}: {err}");
            assert!(err.contains("scalar"), "{text}: {err}");
        }
        // nsga-only keys under the default scalar mode
        for (text, key) in [
            ("dataset=adult gens=10", "gens"),
            ("dataset=adult offspring=4", "offspring"),
            ("dataset=adult mode=scalar xprob=0.5", "xprob"),
            // the objective vector (even spelled canonically) and the
            // ε-PRAM member only exist under the multi-objective optimizer
            ("dataset=adult obj=il,dr", "obj"),
            ("dataset=adult obj=il,dr,eps", "obj"),
            ("dataset=adult eps=1.5", "eps"),
            ("dataset=adult eps=1.5 mode=scalar", "eps"),
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains(&format!("`{key}`")), "{text}: {err}");
            assert!(err.contains("mode=nsga"), "{text}: {err}");
        }
    }

    #[test]
    fn removed_evaluation_mode_keys_are_rejected_by_name() {
        // offspring scoring and the linkage scans have one implementation
        // each, so their former selectors are unknown keys now: a usage
        // error naming the key, never a panic or a silently ignored token
        for (text, key) in [
            ("dataset=german inc=off", "inc"),
            ("dataset=german link=pairs", "link"),
            ("dataset=german mode=nsga inc=xover", "inc"),
            ("dataset=german link=blocked mode=nsga", "link"),
        ] {
            match JobSpec::parse(text) {
                Err(CliError::Usage(msg)) => {
                    assert!(
                        msg.contains(&format!("unknown key `{key}`")),
                        "{text}: {msg}"
                    )
                }
                other => panic!("{text}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn job_spec_is_order_insensitive_and_defaulted() {
        let a = JobSpec::parse("seed=9 dataset=adult").unwrap();
        let b = JobSpec::parse("dataset=adult seed=9").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.suite, cdp::pipeline::SuiteKind::Small);
        assert_eq!(a.iters, 300);
        // the objective keys participate in the order-insensitive grammar:
        // mode= may trail the keys it licenses
        let c = JobSpec::parse("eps=1.5 obj=il,dr,eps gens=5 mode=nsga dataset=adult").unwrap();
        let d = JobSpec::parse("dataset=adult mode=nsga gens=5 obj=il,dr,eps eps=1.5").unwrap();
        assert_eq!(c, d);
        assert_eq!(c.obj, vec!["eps".to_string()]);
        assert_eq!(c.eps, Some(1.5));
        // a spelled-out canonical obj= list is accepted and renders away
        let e = JobSpec::parse("dataset=adult mode=nsga gens=5 obj=il,dr").unwrap();
        assert!(e.obj.is_empty());
        assert!(!e.to_spec_string().contains("obj="));
    }

    #[test]
    fn job_spec_rejects_malformed_input() {
        for text in [
            "",                                               // dataset missing
            "dataset=iris",                                   // unknown dataset
            "dataset=adult suite=huge",                       // unknown suite
            "dataset=adult fitness=min",                      // unknown fitness
            "dataset=adult iters=many",                       // bad number
            "dataset=adult audit=yes",                        // bad bool
            "dataset=adult unknown=1",                        // unknown key
            "dataset=adult records",                          // not key=value
            "dataset=adult drop=1.5",                         // builder rejects the fraction
            "dataset=adult mode=annealing",                   // unknown mode
            "dataset=adult mode=nsga gens=x",                 // bad count
            "dataset=adult mode=nsga gens=0",                 // builder rejects 0 generations
            "dataset=adult mode=nsga xprob=2",                // builder rejects the probability
            "dataset=adult islands=many",                     // bad count
            "dataset=adult islands=0",                        // builder rejects 0 islands
            "dataset=adult mig=0",                            // builder rejects 0 interval
            "dataset=adult mode=nsga obj=dr,il",              // must lead il,dr
            "dataset=adult mode=nsga obj=il",                 // canonical pair incomplete
            "dataset=adult mode=nsga obj=il,dr,warp",         // unknown objective
            "dataset=adult mode=nsga obj=il,dr,eps,eps",      // duplicate
            "dataset=adult mode=nsga obj=il,dr,eps,util,eps", // over MAX_OBJECTIVES
            "dataset=adult mode=nsga eps=fast",               // bad float
            "dataset=adult mode=nsga eps=0",                  // builder rejects zero budget
            "dataset=adult mode=nsga eps=-1.5",               // builder rejects negatives
        ] {
            let result = JobSpec::parse(text).and_then(|s| s.to_job().map(|_| ()));
            assert!(result.is_err(), "`{text}` should be rejected");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// parse ∘ to_spec_string = id, and from_job ∘ to_job = id, over
        /// randomly drawn specs of *both* optimizer modes.
        #[test]
        fn job_spec_grammar_round_trips_both_modes(
            dataset_i in 0usize..4,
            records_set in proptest::prelude::any::<bool>(),
            records_n in 30usize..200,
            paper_suite in proptest::prelude::any::<bool>(),
            nsga_mode in proptest::prelude::any::<bool>(),
            mean_fitness in proptest::prelude::any::<bool>(),
            iters in 0usize..400,
            gens in 1usize..200,
            offspring in 0usize..40,
            xprob_pct in 0u8..=100,
            seed in proptest::prelude::any::<u64>(),
            drop_20th in 0u8..20,
            audit in proptest::prelude::any::<bool>(),
            islands in 1usize..=8,
            mig in 1usize..=50,
            obj_i in 0usize..4,
            eps_set in proptest::prelude::any::<bool>(),
            eps_20th in 1u8..=80,
        ) {
            let mut spec = JobSpec {
                dataset: [
                    DatasetKind::Adult,
                    DatasetKind::Housing,
                    DatasetKind::German,
                    DatasetKind::Flare,
                ][dataset_i],
                records: records_set.then_some(records_n),
                suite: if paper_suite { SuiteKind::Paper } else { SuiteKind::Small },
                seed,
                audit,
                islands,
                mig,
                ..JobSpec::default()
            };
            if nsga_mode {
                spec.mode = SpecMode::Nsga;
                spec.gens = gens;
                spec.offspring = offspring;
                spec.xprob = f64::from(xprob_pct) / 100.0;
                // every legal extension of the canonical pair, plus the
                // ε-PRAM member knob (exact 20ths survive the float trip)
                const EXTENSIONS: [&[&str]; 4] = [&[], &["eps"], &["util"], &["eps", "util"]];
                spec.obj = EXTENSIONS[obj_i].iter().map(|k| (*k).to_string()).collect();
                spec.eps = eps_set.then(|| f64::from(eps_20th) / 20.0);
            } else {
                spec.fitness = if mean_fitness {
                    ScoreAggregator::Mean
                } else {
                    ScoreAggregator::Max
                };
                spec.iters = iters;
                spec.drop = f64::from(drop_20th) / 20.0;
            }
            let text = spec.to_spec_string();
            let reparsed = JobSpec::parse(&text)
                .unwrap_or_else(|e| panic!("canonical `{text}` must parse: {e}"));
            proptest::prop_assert_eq!(&reparsed, &spec, "parse ∘ render: {}", text);
            let job = spec.to_job()
                .unwrap_or_else(|e| panic!("canonical `{text}` must build: {e}"));
            let back = JobSpec::from_job(&job)
                .unwrap_or_else(|e| panic!("job from `{text}` must serialize: {e}"));
            proptest::prop_assert_eq!(&back, &spec, "from_job ∘ to_job: {}", text);
        }
    }

    #[test]
    fn non_cli_expressible_jobs_are_reported() {
        let ds = cdp_dataset::generators::DatasetKind::Adult
            .generate(&cdp_dataset::generators::GeneratorConfig::seeded(1).with_records(30));
        let job = ProtectionJob::builder()
            .table(ds.table, ds.protected)
            .build()
            .unwrap();
        assert!(JobSpec::from_job(&job).is_err());

        let job = ProtectionJob::builder()
            .dataset(cdp_dataset::generators::DatasetKind::Adult)
            .methods(vec![Box::new(Pram::new(0.8, PramMode::Uniform))])
            .build()
            .unwrap();
        assert!(JobSpec::from_job(&job).is_err());

        // knobs outside the grammar must be reported, not silently dropped
        let adult = cdp_dataset::generators::DatasetKind::Adult;
        for (what, job) in [
            (
                "generator seed override",
                ProtectionJob::builder()
                    .dataset(adult)
                    .generator_seed(5)
                    .seed(42)
                    .build()
                    .unwrap(),
            ),
            (
                "sensitive audit attribute",
                ProtectionJob::builder()
                    .dataset(adult)
                    .audit_sensitive(["INCOME"])
                    .build()
                    .unwrap(),
            ),
            (
                "mutation rate",
                ProtectionJob::builder()
                    .dataset(adult)
                    .mutation_rate(0.9)
                    .build()
                    .unwrap(),
            ),
            (
                "metric config",
                ProtectionJob::builder()
                    .dataset(adult)
                    .metrics(cdp_metrics::MetricConfig {
                        prl_em_iters: 3,
                        ..cdp_metrics::MetricConfig::default()
                    })
                    .build()
                    .unwrap(),
            ),
        ] {
            let err = JobSpec::from_job(&job).unwrap_err();
            assert!(err.to_string().contains("not expressible"), "{what}: {err}");
        }
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        for spec in [
            "nope:1",
            "microagg",
            "microagg:x",
            "microagg:3:diag",
            "microagg:3:uni:avg",
            "pram",
            "pram:0.5:weird",
            "rankswap:0.5:extra",
            "suppress:abc",
        ] {
            match parse_method(spec) {
                Ok(m) => panic!("{spec} unexpectedly parsed as {}", m.name()),
                Err(err) => assert!(
                    err.to_string().contains("accepted methods"),
                    "{spec} should fail with grammar help"
                ),
            }
        }
    }
}
