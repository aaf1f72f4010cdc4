//! Protection specifications: the CLI's two mini-grammars.
//!
//! * [`parse_method`] — the `--method name:param` grammar mapping CLI
//!   strings onto [`cdp_sdc::ProtectionMethod`] values.
//! * [`JobSpec`] — the `key=value` job grammar that deserializes a whole
//!   `cdp optimize` invocation straight into a
//!   [`cdp::pipeline::ProtectionJob`], and serializes one back, so CLI
//!   jobs and library jobs cannot drift. One table of keys (`KEYS`)
//!   drives its parser, canonical form, grammar help, builder mapping,
//!   `from_job` copy and the `cdp optimize` dataset-mode flags.

use cdp::pipeline::{
    DataSource, OptimizerMode, PopulationSpec, ProtectionJob, ProtectionJobBuilder, SuiteKind,
};
use cdp_core::NsgaConfig;
use cdp_dataset::generators::DatasetKind;
use cdp_metrics::{ObjectiveSet, ScoreAggregator};
use cdp_sdc::{
    Aggregate, BottomCoding, GlobalRecoding, Grouping, LocalSuppression, MicroVariant,
    Microaggregation, Pram, PramMode, ProtectionMethod, RandomSwap, RankSwapping, TopCoding,
};

use crate::args::Args;
use crate::commands::generate::dataset_kind;
use crate::error::{CliError, Result};

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
///
/// The grammar is whitespace-separated `key=value` tokens in any order,
/// each key at most once; [`job_grammar`] lists the keys. Keys of the other
/// optimizer mode are rejected with the key named.
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

/// A parsed value, or what is wrong with it.
type Parsed<T> = std::result::Result<T, String>;

/// When a key appears in the canonical form.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// Always, and a spec without it is rejected.
    Required,
    /// Always.
    Always,
    /// Only when its value differs from the default.
    Changed,
}

/// One key of the job grammar.
struct Key {
    name: &'static str,
    /// The one optimizer mode the key applies to (`None`: both).
    scope: Option<SpecMode>,
    emit: Emit,
    /// The `cdp optimize` dataset-mode flag that sets the key, if any.
    flag: Option<&'static str>,
    /// Value placeholder and description, for [`job_grammar`].
    help: (&'static str, &'static str),
    parse: fn(&mut JobSpec, &str) -> Parsed<()>,
    /// The value in canonical form (`None`: the key is unset).
    render: fn(&JobSpec) -> Option<String>,
    apply: fn(&JobSpec, ProtectionJobBuilder) -> ProtectionJobBuilder,
    /// Copy the key's value from a job `from_job` accepted.
    read: fn(&ProtectionJob, &mut JobSpec),
}

impl Key {
    fn admits(&self, mode: SpecMode) -> bool {
        self.scope.is_none_or(|m| m == mode)
    }
}

/// Every key, in canonical order. `mode` precedes every key it scopes, so
/// a reader walking the table knows the mode before it meets them. One key
/// per block, kept out of rustfmt, which would spread each over a dozen
/// lines.
#[rustfmt::skip]
static KEYS: [Key; 16] = [
    Key { name: "dataset", scope: None, emit: Emit::Required, flag: Some("dataset"),
        help: ("<adult|housing|german|flare>", "evaluation dataset (required)"),
        parse: |s, v| dataset_kind(v).map(|d| s.dataset = d),
        render: |s| Some(s.dataset.name().to_ascii_lowercase()),
        apply: |s, b| b.dataset(s.dataset),
        read: |j, s| if let DataSource::Generated { kind, .. } = j.source() { s.dataset = *kind } },
    Key { name: "suite", scope: None, emit: Emit::Always, flag: Some("suite"),
        help: ("<small|paper>", "initial population sweep"),
        parse: |s, v| choice(v, &[SuiteKind::Small, SuiteKind::Paper], SuiteKind::name).map(|k| s.suite = k),
        render: |s| Some(s.suite.name().into()),
        apply: |s, b| b.suite_kind(s.suite),
        read: |j, s| if let PopulationSpec::Suite(kind) = j.population() { s.suite = *kind } },
    Key { name: "mode", scope: None, emit: Emit::Changed, flag: Some("mode"),
        help: ("<scalar|nsga>", "optimizer (default scalar)"),
        parse: |s, v| choice(v, &[SpecMode::Scalar, SpecMode::Nsga], SpecMode::name).map(|m| s.mode = m),
        render: |s| Some(s.mode.name().into()),
        apply: |s, b| if s.mode == SpecMode::Nsga { b.nsga() } else { b },
        read: |j, s| s.mode = j.nsga_config().map_or(SpecMode::Scalar, |_| SpecMode::Nsga) },
    Key { name: "fitness", scope: Some(SpecMode::Scalar), emit: Emit::Always, flag: Some("fitness"),
        help: ("<mean|max>", "scalar aggregator"),
        parse: |s, v| choice(v, &[ScoreAggregator::Mean, ScoreAggregator::Max], ScoreAggregator::name).map(|f| s.fitness = f),
        render: |s| Some(s.fitness.name().into()),
        apply: |s, b| b.aggregator(s.fitness),
        read: |j, s| s.fitness = j.evo_config().aggregator },
    Key { name: "iters", scope: Some(SpecMode::Scalar), emit: Emit::Always, flag: Some("iters"),
        help: ("<n>", "evolution budget (0 = mask only)"),
        parse: |s, v| parse_value(v).map(|n| s.iters = n),
        render: |s| Some(s.iters.to_string()),
        apply: |s, b| b.iterations(s.iters),
        read: |j, s| s.iters = j.iterations() },
    // the historical flag spelling: under --mode nsga, --iters counts generations
    Key { name: "gens", scope: Some(SpecMode::Nsga), emit: Emit::Always, flag: Some("iters"),
        help: ("<n>", "NSGA-II generations"),
        parse: |s, v| parse_value(v).map(|n| s.gens = n),
        render: |s| Some(s.gens.to_string()),
        apply: |s, b| b.iterations(s.gens),
        read: |j, s| s.gens = j.iterations() },
    Key { name: "seed", scope: None, emit: Emit::Always, flag: Some("seed"),
        help: ("<u64>", "master seed"),
        parse: |s, v| parse_value(v).map(|n| s.seed = n),
        render: |s| Some(s.seed.to_string()),
        apply: |s, b| b.seed(s.seed),
        read: |j, s| s.seed = j.seed() },
    Key { name: "records", scope: None, emit: Emit::Changed, flag: Some("records"),
        help: ("<n>", "record-count override"),
        parse: |s, v| parse_value(v).map(|n| s.records = Some(n)),
        render: |s| s.records.map(|n| n.to_string()),
        apply: |s, b| match s.records { Some(n) => b.records(n), None => b },
        read: |j, s| if let DataSource::Generated { records, .. } = j.source() { s.records = *records } },
    Key { name: "drop", scope: Some(SpecMode::Scalar), emit: Emit::Changed, flag: Some("drop"),
        help: ("<fraction>", "drop best initial fraction (§3.3)"),
        parse: |s, v| finite(v).map(|x| s.drop = x),
        render: |s| Some(s.drop.to_string()),
        apply: |s, b| b.drop_best_fraction(s.drop),
        read: |j, s| s.drop = j.drop_fraction() },
    Key { name: "offspring", scope: Some(SpecMode::Nsga), emit: Emit::Changed, flag: Some("offspring"),
        help: ("<n>", "offspring per generation (0 = population size)"),
        parse: |s, v| parse_value(v).map(|n| s.offspring = n),
        render: |s| Some(s.offspring.to_string()),
        apply: |s, b| b.offspring(s.offspring),
        read: |j, s| s.offspring = j.nsga_config().map_or(s.offspring, |c| c.offspring) },
    Key { name: "xprob", scope: Some(SpecMode::Nsga), emit: Emit::Changed, flag: Some("xprob"),
        help: ("<p>", "crossover probability"),
        parse: |s, v| finite(v).map(|x| s.xprob = x),
        render: |s| Some(s.xprob.to_string()),
        apply: |s, b| b.crossover_prob(s.xprob),
        read: |j, s| s.xprob = j.nsga_config().map_or(s.xprob, |c| c.crossover_prob) },
    // extras beyond il,dr: eps (empirical-LDP leakage), util (task-utility
    // gap); the metrics registry owns the key grammar
    Key { name: "obj", scope: Some(SpecMode::Nsga), emit: Emit::Changed, flag: None,
        help: ("il,dr[,eps|util]", "objective vector (leads with il,dr)"),
        parse: |s, v| ObjectiveSet::parse(v).map(|set| s.obj = extras(&set)).map_err(|e| e.to_string()),
        render: |s| (!s.obj.is_empty()).then(|| format!("il,dr,{}", s.obj.join(","))),
        apply: |s, b| s.obj.iter().fold(b, |b, key| b.objective(key.clone())),
        read: |j, s| s.obj = extras(j.objectives()) },
    Key { name: "eps", scope: Some(SpecMode::Nsga), emit: Emit::Changed, flag: None,
        help: ("<budget>", "add an ε-calibrated invariant-PRAM member"),
        parse: |s, v| finite(v).map(|x| s.eps = Some(x)),
        render: |s| s.eps.map(|x| x.to_string()),
        apply: |s, b| match s.eps { Some(x) => b.epsilon_pram(x), None => b },
        read: |j, s| s.eps = j.pram_epsilon() },
    Key { name: "islands", scope: None, emit: Emit::Changed, flag: None,
        help: ("<k>", "island-model run with k islands (default 1)"),
        parse: |s, v| parse_value(v).map(|n| s.islands = n),
        render: |s| Some(s.islands.to_string()),
        apply: |s, b| b.islands(s.islands),
        read: |j, s| s.islands = j.evo_config().islands.count },
    Key { name: "mig", scope: None, emit: Emit::Changed, flag: None,
        help: ("<n>", "generations between migrations (default 10)"),
        parse: |s, v| parse_value(v).map(|n| s.mig = n),
        render: |s| Some(s.mig.to_string()),
        apply: |s, b| b.migration_interval(s.mig),
        read: |j, s| s.mig = j.evo_config().islands.migration_interval },
    Key { name: "audit", scope: None, emit: Emit::Changed, flag: None,
        help: ("<true|false>", "privacy-audit the winner"),
        parse: |s, v| parse_value(v).map(|x| s.audit = x),
        render: |s| Some(s.audit.to_string()),
        apply: |s, b| if s.audit { b.audit() } else { b },
        read: |j, s| s.audit = j.audit_spec().is_some() },
];

/// The `options` member named `value`.
fn choice<T: Copy>(value: &str, options: &[T], name: fn(T) -> &'static str) -> Parsed<T> {
    let names: Vec<&str> = options.iter().map(|&o| name(o)).collect();
    let i = names.iter().position(|&n| n == value);
    i.map(|i| options[i])
        .ok_or_else(|| format!("unknown value `{value}` ({})", names.join(", ")))
}

/// A value of any `FromStr` type (counts, seeds, booleans).
fn parse_value<T: std::str::FromStr>(value: &str) -> Parsed<T> {
    value.parse().map_err(|_| format!("bad value `{value}`"))
}

/// A finite float: NaN and infinities have no use in any knob.
fn finite(value: &str) -> Parsed<f64> {
    parse_value(value)
        .ok()
        .filter(|x: &f64| x.is_finite())
        .ok_or_else(|| format!("bad value `{value}` (a finite number)"))
}

/// The objective keys beyond the canonical leading `il, dr` pair.
fn extras(set: &ObjectiveSet) -> Vec<String> {
    set.keys()[2..].iter().map(|k| (*k).to_string()).collect()
}

/// Grammar help for [`JobSpec::parse`], one line per key: the shared keys,
/// then each mode's own.
pub fn job_grammar() -> String {
    let mut lines = Vec::new();
    for scope in [None, Some(SpecMode::Scalar), Some(SpecMode::Nsga)] {
        if let Some(mode) = scope {
            lines.push(format!("  -- {} mode only --", mode.name()));
        }
        for key in KEYS.iter().filter(|k| k.scope == scope) {
            let token = format!("{}={}", key.name, key.help.0);
            lines.push(format!("  {token:<38} {}", key.help.1));
        }
    }
    lines.join("\n")
}

/// Where tokens come from, for the wording of errors.
#[derive(Clone, Copy)]
enum Syntax {
    /// `key=value` tokens of a job spec.
    Spec,
    /// `cdp optimize` flags.
    Flags,
}

impl Syntax {
    fn key(self, key: &Key) -> String {
        match self {
            Syntax::Spec => format!("`{}`", key.name),
            Syntax::Flags => format!("--{}", key.flag.unwrap_or(key.name)),
        }
    }

    fn mode(self, mode: SpecMode) -> String {
        match self {
            Syntax::Spec => format!("mode={}", mode.name()),
            Syntax::Flags => format!("--mode {}", mode.name()),
        }
    }

    fn usage(self, msg: String) -> CliError {
        match self {
            Syntax::Spec => CliError::Usage(format!("{msg}\njob spec keys:\n{}", job_grammar())),
            Syntax::Flags => CliError::Usage(msg),
        }
    }
}

/// Read each key's value, walking the table in order, into a spec;
/// `value_of(i, mode)` yields the raw value given for `KEYS[i]` under the
/// mode read so far. A key outside that mode is rejected with the right
/// mode named.
fn read_keys<'a>(
    syntax: Syntax,
    value_of: impl Fn(usize, SpecMode) -> Option<&'a str>,
) -> Result<JobSpec> {
    let mut spec = JobSpec::default();
    for (i, key) in KEYS.iter().enumerate() {
        let Some(value) = value_of(i, spec.mode) else {
            continue;
        };
        if let Some(right) = key.scope.filter(|&m| m != spec.mode) {
            let hint = match right {
                SpecMode::Nsga => syntax.mode(right),
                SpecMode::Scalar => "the (default) scalar mode".into(),
            };
            return Err(syntax.usage(format!(
                "{} applies to {hint}, not {}",
                syntax.key(key),
                syntax.mode(spec.mode)
            )));
        }
        (key.parse)(&mut spec, value)
            .map_err(|msg| syntax.usage(format!("{}: {msg}", syntax.key(key))))?;
    }
    Ok(spec)
}

impl JobSpec {
    /// Parse the `key=value` grammar.
    ///
    /// Mode consistency is validated against the final mode (the grammar
    /// is order-insensitive, so `mode=` may come last): scalar-only keys
    /// under `mode=nsga` — and nsga-only keys under the (default) scalar
    /// mode — are usage errors naming the offending key, as is a key given
    /// twice.
    ///
    /// # Errors
    /// [`CliError::Usage`] with the offending token and the grammar.
    pub fn parse(text: &str) -> Result<JobSpec> {
        let bad = |msg: String| Syntax::Spec.usage(msg);
        let mut values: [Option<&str>; KEYS.len()] = [None; KEYS.len()];
        for token in text.split_whitespace() {
            let (name, value) = token
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got `{token}`")))?;
            let i = KEYS
                .iter()
                .position(|k| k.name == name)
                .ok_or_else(|| bad(format!("unknown key `{name}`")))?;
            if values[i].replace(value).is_some() {
                return Err(bad(format!("`{name}` is given twice")));
            }
        }
        if let Some(key) = KEYS
            .iter()
            .zip(&values)
            .find_map(|(k, v)| (k.emit == Emit::Required && v.is_none()).then_some(k))
        {
            return Err(bad(format!("a {}= key is required", key.name)));
        }
        read_keys(Syntax::Spec, |i, _| values[i])
    }

    /// Read `cdp optimize`'s dataset-mode flags as a spec: each flag named
    /// in a key's `flag` column sets that key, and errors name the flag.
    /// `--dataset` is not required here (input mode reads a file instead).
    ///
    /// # Errors
    /// [`CliError::Usage`] for a bad value or a flag of the other mode.
    pub(crate) fn from_flags(args: &Args) -> Result<JobSpec> {
        read_keys(Syntax::Flags, |i, mode| {
            let flag = KEYS[i].flag?;
            // two keys of different modes share `--iters`: it sets the one
            // the mode admits
            let other_owner = (KEYS.iter().enumerate())
                .any(|(j, k)| j != i && k.flag == Some(flag) && k.admits(mode));
            if other_owner {
                None
            } else {
                args.get(flag)
            }
        })
    }

    /// Every `cdp optimize` flag that sets a key (`--iters` sets two).
    pub(crate) fn flags() -> impl Iterator<Item = &'static str> {
        KEYS.iter().filter_map(|k| k.flag)
    }

    /// The keys of this spec's mode, in canonical order.
    fn keys(&self) -> impl Iterator<Item = &'static Key> + '_ {
        KEYS.iter().filter(|k| k.admits(self.mode))
    }

    /// Canonical serialization: fixed order, mode-appropriate keys only,
    /// re-parses to an equal spec (`parse ∘ to_spec_string = id`).
    pub fn to_spec_string(&self) -> String {
        let defaults = JobSpec::default();
        let tokens: Vec<String> = self
            .keys()
            .filter_map(|key| {
                let value = (key.render)(self)?;
                let shown =
                    key.emit != Emit::Changed || Some(&value) != (key.render)(&defaults).as_ref();
                shown.then(|| format!("{}={value}", key.name))
            })
            .collect();
        tokens.join(" ")
    }

    /// The builder every key of the spec's mode has been applied to.
    pub(crate) fn builder(&self) -> ProtectionJobBuilder {
        self.keys()
            .fold(ProtectionJob::builder(), |b, key| (key.apply)(self, b))
    }

    /// Deserialize into a runnable [`ProtectionJob`].
    ///
    /// # Errors
    /// [`CliError::Usage`] for inconsistent knob combinations.
    pub fn to_job(&self) -> Result<ProtectionJob> {
        Ok(self.builder().build()?)
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
        match job.source() {
            DataSource::Generated { seed, .. } => {
                if seed.is_some() && *seed != Some(job.seed()) {
                    return Err(unrepresentable("a generator-seed override"));
                }
            }
            _ => return Err(unrepresentable("a non-generated data source")),
        }
        if !matches!(job.population(), PopulationSpec::Suite(_)) {
            return Err(unrepresentable("a non-suite population recipe"));
        }
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
                // islands/mig pair; the other two evolution knobs (the
                // mutation rate, the migration size) must sit at their
                // defaults
                let expected = cdp_core::EvoConfig {
                    aggregator: evo.aggregator,
                    seed: job.seed(),
                    iterations: job.iterations().max(1),
                    islands: cdp_core::IslandConfig {
                        count: evo.islands.count,
                        migration_interval: evo.islands.migration_interval,
                        ..cdp_core::IslandConfig::default()
                    },
                    ..cdp_core::EvoConfig::default()
                };
                if evo != expected {
                    return Err(unrepresentable("a non-default evolution knob"));
                }
            }
            OptimizerMode::Nsga(cfg) => {
                let expected_islands = cdp_core::IslandConfig {
                    count: cfg.islands.count,
                    migration_interval: cfg.islands.migration_interval,
                    ..cdp_core::IslandConfig::default()
                };
                if cfg.islands != expected_islands {
                    return Err(unrepresentable("a migration_size override"));
                }
            }
        }
        let mut spec = JobSpec::default();
        for key in &KEYS {
            // `mode` is read before any key it scopes
            if key.admits(spec.mode) {
                (key.read)(job, &mut spec);
            }
        }
        Ok(spec)
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
            // every corpus line is already canonical: rendering is byte-exact
            assert_eq!(spec.to_spec_string(), text);
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
            "dataset=adult seed=1 seed=2",                    // repeated key
            "dataset=adult mode=nsga gens=5 mode=scalar",     // repeated mode
        ] {
            let result = JobSpec::parse(text).and_then(|s| s.to_job().map(|_| ()));
            assert!(result.is_err(), "`{text}` should be rejected");
        }
        // a repeated key is a usage error naming it, never last-wins
        for (text, key) in [
            ("dataset=adult seed=1 seed=2", "seed"),
            ("dataset=adult mode=nsga gens=5 mode=scalar", "mode"),
        ] {
            match JobSpec::parse(text) {
                Err(CliError::Usage(msg)) => {
                    assert!(
                        msg.contains(&format!("`{key}` is given twice")),
                        "{text}: {msg}"
                    )
                }
                other => panic!("{text}: expected a usage error, got {other:?}"),
            }
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Token soups over the key names and hostile values never panic
        /// the parsers: each spec is `Ok` or a usage error, and every `Ok`
        /// spec builds without a panic and survives its canonical form.
        /// Three tokens in four come from a list of legal ones, and most
        /// soups lead with a dataset, so a fair share of them parse.
        #[test]
        fn job_spec_parsers_never_panic(
            lead in 0usize..3,
            tokens in proptest::collection::vec((0u8..4, 0usize..30, 0usize..21, 0usize..34), 0..6),
        ) {
            const LEGAL: [&str; 30] = [
                "suite=paper", "suite=small", "mode=nsga", "mode=scalar", "gens=1",
                "fitness=mean", "iters=0", "iters=7", "gens=3", "seed=1",
                "seed=18446744073709551615", "records=50", "records=0", "drop=0.25", "drop=-0",
                "offspring=0", "offspring=4", "xprob=0.8", "xprob=1e308", "obj=il,dr",
                "obj=il,dr,util", "obj=il,dr,eps,util", "eps=1000", "eps=0.5", "eps=1e308",
                "islands=2", "mig=4", "audit=true", "audit=false", "dataset=Flare",
            ];
            const NAMES: [&str; 21] = [
                "dataset", "suite", "mode", "fitness", "iters", "gens", "seed", "records",
                "drop", "offspring", "xprob", "obj", "eps", "islands", "mig", "audit",
                "", "inc", "link", "DATASET", "=",
            ];
            const VALUES: [&str; 34] = [
                "", "-1", "NaN", "inf", "-inf", "1e308", "123456789012345678901234567890",
                "=x", ",", "-0", "0", "1", "3", "0.5", "1000", "true", "false", "nsga",
                "NSGA", "scalar", "adult", "German", "paper", "small", "max", "mean",
                "il,dr", "il,dr,eps", "il,dr,util", "il,dr,eps,util", "dr,il", " ",
                "18446744073709551616", "x=y",
            ];
            let soup: Vec<String> = tokens
                .iter()
                .map(|&(legal, l, k, v)| match legal {
                    0 => format!("{}={}", NAMES[k], VALUES[v]),
                    _ => LEGAL[l].to_string(),
                })
                .collect();
            // most soups lead with a dataset, half of those in nsga mode
            let lead = ["", "dataset=german", "dataset=german mode=nsga"][lead];
            let text = format!("{lead} {}", soup.join(" "));
            let parsed = JobSpec::parse(&text);
            let request = crate::protocol::Request::parse(&format!("JOB {text}"));
            match (&parsed, &request) {
                (Ok(spec), Ok(crate::protocol::Request::Job(wire))) => {
                    proptest::prop_assert_eq!(spec, wire);
                }
                (Err(CliError::Usage(_)), Err(CliError::Usage(_))) => {}
                other => panic!("`{text}`: Ok or a usage error on both paths, got {other:?}"),
            }
            if let Ok(spec) = parsed {
                let _ = spec.to_job();
                let canonical = spec.to_spec_string();
                proptest::prop_assert_eq!(&JobSpec::parse(&canonical).unwrap(), &spec);
                let line = crate::protocol::Request::Job(spec.clone()).to_line();
                proptest::prop_assert_eq!(
                    crate::protocol::Request::parse(&line).unwrap(),
                    crate::protocol::Request::Job(spec)
                );
            }
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
