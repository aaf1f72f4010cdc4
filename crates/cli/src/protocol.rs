//! The `cdp serve` wire protocol: line-delimited UTF-8, lossless both ways.
//!
//! One request per line, one response kind per line. A client sends
//! [`Request`] lines (`JOB <canonical job spec>`, `STATS`, `SHUTDOWN`);
//! the server answers a `JOB` with a stream of `EVENT …` lines — one per
//! [`JobEvent`], in execution order — terminated by exactly one `DONE …`
//! ([`DoneSummary`]: winner IL/DR breakdown, eval counts, cache-hit flag)
//! or `ERR …` line. `STATS` answers with one `STATS …` line carrying the
//! session's [`SessionStats`]; `SHUTDOWN` is acknowledged with `OK bye`.
//!
//! Everything round-trips: `parse(encode(x)) == x` for every request and
//! response, property-tested alongside the job-spec grammar. Numbers use
//! Rust's shortest-round-trip float formatting, so a summary that crossed
//! the wire compares **bit-identical** to one computed in-process — the
//! determinism contract the server e2e tests assert. Free-form text
//! (protection names, error messages) is percent-escaped so spaces and
//! newlines cannot break the framing.

use cdp::pipeline::{CacheEntryStats, JobEvent, JobReport, SessionStats};
use cdp_core::{ObjectiveVector, OperatorKind};

use crate::error::{CliError, Result};
use crate::spec::JobSpec;

/// One client → server line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `JOB <spec>` — run a job described in the CLI's canonical
    /// `key=value` grammar ([`JobSpec`]).
    Job(JobSpec),
    /// `STATS` — report the shared session's cache counters.
    Stats,
    /// `SHUTDOWN` — stop accepting connections and exit cleanly.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    /// [`CliError::Usage`] for unknown verbs or an invalid job spec.
    pub fn parse(line: &str) -> Result<Request> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((verb, rest)) => (verb, rest),
            None => (line, ""),
        };
        match verb {
            "JOB" => Ok(Request::Job(JobSpec::parse(rest)?)),
            "STATS" if rest.is_empty() => Ok(Request::Stats),
            "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
            _ => Err(CliError::Usage(format!(
                "unknown request `{line}` (JOB <spec> | STATS | SHUTDOWN)"
            ))),
        }
    }

    /// The canonical line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Job(spec) => format!("JOB {}", spec.to_spec_string()),
            Request::Stats => "STATS".into(),
            Request::Shutdown => "SHUTDOWN".into(),
        }
    }
}

/// The final summary of a served job: everything a client needs to verify
/// the run against an in-process [`cdp::pipeline::SharedSession::run`] of the
/// same spec.
///
/// Built by [`DoneSummary::from_report`] on both sides of the wire, so
/// equality of two summaries is equality of the underlying winners —
/// the seven-measure breakdown is carried at full precision.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneSummary {
    /// Winner's provenance label.
    pub name: String,
    /// Winner's contingency-table IL.
    pub ctbil: f64,
    /// Winner's distance-based IL.
    pub dbil: f64,
    /// Winner's entropy-based IL.
    pub ebil: f64,
    /// Winner's interval-disclosure DR.
    pub id: f64,
    /// Winner's distance-based record-linkage DR.
    pub dbrl: f64,
    /// Winner's probabilistic record-linkage DR.
    pub prl: f64,
    /// Winner's rank-swapping record-linkage DR.
    pub rsrl: f64,
    /// Records in the original file.
    pub rows: usize,
    /// Protections that entered the run.
    pub population: usize,
    /// Iterations (scalar) or generations (NSGA-II) executed; 0 for
    /// mask-and-score jobs.
    pub iterations: usize,
    /// Full assessments performed.
    pub evals_full: usize,
    /// Patch-based re-assessments performed.
    pub evals_incremental: usize,
    /// Whether the session served a cached evaluator preparation.
    pub cache_hit: bool,
}

impl DoneSummary {
    /// Summarize a finished job.
    pub fn from_report(report: &JobReport) -> DoneSummary {
        use cdp::pipeline::JobOutcome;
        let (iterations, counts) = match &report.outcome {
            JobOutcome::Scored => (0, Default::default()),
            JobOutcome::Scalar(o) => (o.iterations_run, o.eval_counts),
            JobOutcome::Pareto(f) => (f.generations_run(), f.eval_counts),
        };
        let a = &report.best.assessment;
        DoneSummary {
            name: report.best.name.clone(),
            ctbil: a.il_parts.ctbil,
            dbil: a.il_parts.dbil,
            ebil: a.il_parts.ebil,
            id: a.dr_parts.id,
            dbrl: a.dr_parts.dbrl,
            prl: a.dr_parts.prl,
            rsrl: a.dr_parts.rsrl,
            rows: report.table.n_rows(),
            population: report.population_size,
            iterations,
            evals_full: counts.full,
            evals_incremental: counts.incremental,
            cache_hit: report.evaluator_reused,
        }
    }

    /// Aggregated information loss (mean of the three IL measures).
    pub fn il(&self) -> f64 {
        (self.ctbil + self.dbil + self.ebil) / 3.0
    }

    /// Aggregated disclosure risk (mean of the four DR measures).
    pub fn dr(&self) -> f64 {
        (self.id + self.dbrl + self.prl + self.rsrl) / 4.0
    }
}

/// One server → client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `EVENT <kind> <fields…>` — one job progress event.
    Event(JobEvent),
    /// `DONE <fields…>` — the job finished; its summary.
    Done(DoneSummary),
    /// `ERR <message>` — the request failed; no further lines follow it.
    Err(String),
    /// `STATS <fields…>` — the session's cache counters.
    Stats(SessionStats),
    /// `OK <message>` — acknowledgement (shutdown).
    Ok(String),
}

impl Response {
    /// The canonical line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Event(event) => format!("EVENT {}", encode_event(event)),
            Response::Done(d) => format!(
                "DONE name={} ctbil={} dbil={} ebil={} id={} dbrl={} prl={} rsrl={} \
                 rows={} population={} iterations={} evals_full={} evals_incremental={} \
                 cache_hit={}",
                escape(&d.name),
                d.ctbil,
                d.dbil,
                d.ebil,
                d.id,
                d.dbrl,
                d.prl,
                d.rsrl,
                d.rows,
                d.population,
                d.iterations,
                d.evals_full,
                d.evals_incremental,
                d.cache_hit,
            ),
            Response::Err(msg) => format!("ERR {}", escape(msg)),
            Response::Stats(s) => format!("STATS {}", encode_stats(s)),
            Response::Ok(msg) => format!("OK {}", escape(msg)),
        }
    }

    /// Parse one response line.
    ///
    /// # Errors
    /// [`CliError::Usage`] for unknown verbs or malformed fields.
    pub fn parse(line: &str) -> Result<Response> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((verb, rest)) => (verb, rest),
            None => (line, ""),
        };
        match verb {
            "EVENT" => Ok(Response::Event(decode_event(rest)?)),
            "DONE" => {
                let f = Fields::parse(rest);
                Ok(Response::Done(DoneSummary {
                    name: unescape(f.require("name")?),
                    ctbil: f.num("ctbil")?,
                    dbil: f.num("dbil")?,
                    ebil: f.num("ebil")?,
                    id: f.num("id")?,
                    dbrl: f.num("dbrl")?,
                    prl: f.num("prl")?,
                    rsrl: f.num("rsrl")?,
                    rows: f.num("rows")?,
                    population: f.num("population")?,
                    iterations: f.num("iterations")?,
                    evals_full: f.num("evals_full")?,
                    evals_incremental: f.num("evals_incremental")?,
                    cache_hit: f.num("cache_hit")?,
                }))
            }
            "ERR" => Ok(Response::Err(unescape(rest))),
            "STATS" => Ok(Response::Stats(decode_stats(&Fields::parse(rest))?)),
            "OK" => Ok(Response::Ok(unescape(rest))),
            _ => Err(CliError::Usage(format!(
                "unknown response line `{line}` (EVENT | DONE | ERR | STATS | OK)"
            ))),
        }
    }
}

/// Percent-escape free-form text so it survives the space-separated,
/// line-delimited framing (`%`, space, `=`, CR, LF).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3D"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    // an empty token would vanish from the field grammar
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

/// Invert [`escape`]. Unknown or truncated `%` sequences pass through
/// verbatim (the encoder never emits them).
pub fn unescape(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.clone().take(2).collect();
        match hex.as_str() {
            "25" => out.push('%'),
            "20" => out.push(' '),
            "3D" => out.push('='),
            "0A" => out.push('\n'),
            "0D" => out.push('\r'),
            "00" => {} // the empty-token marker
            _ => {
                out.push('%');
                continue;
            }
        }
        chars.next();
        chars.next();
    }
    out
}

/// Space-separated `key=value` fields of one line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(rest: &'a str) -> Fields<'a> {
        Fields {
            pairs: rest
                .split_whitespace()
                .filter_map(|tok| tok.split_once('='))
                .collect(),
        }
    }

    fn require(&self, key: &str) -> Result<&'a str> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| CliError::Usage(format!("protocol line missing field `{key}`")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        let raw = self.require(key)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("protocol field {key}: cannot parse `{raw}`")))
    }

    /// Every value of a repeated key, in line order (`entry=` fields).
    fn all(&self, key: &str) -> Vec<&'a str> {
        self.pairs
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .collect()
    }
}

fn encode_stats(s: &SessionStats) -> String {
    let mut out = format!(
        "preparations={} hits={} cached={} approx_bytes={}",
        s.preparations, s.hits, s.cached, s.approx_bytes
    );
    for e in &s.entries {
        out.push_str(&format!(
            " entry={}:{}:{}:{}:{}",
            e.rows, e.attrs, e.hits, e.approx_bytes, e.prepared
        ));
    }
    out
}

fn decode_entry(raw: &str) -> Result<CacheEntryStats> {
    let bad = || CliError::Usage(format!("protocol field entry: cannot parse `{raw}`"));
    let parts: Vec<&str> = raw.split(':').collect();
    let [rows, attrs, hits, approx_bytes, prepared] = parts.as_slice() else {
        return Err(bad());
    };
    Ok(CacheEntryStats {
        rows: rows.parse().map_err(|_| bad())?,
        attrs: attrs.parse().map_err(|_| bad())?,
        hits: hits.parse().map_err(|_| bad())?,
        approx_bytes: approx_bytes.parse().map_err(|_| bad())?,
        prepared: prepared.parse().map_err(|_| bad())?,
    })
}

fn decode_stats(f: &Fields<'_>) -> Result<SessionStats> {
    Ok(SessionStats {
        preparations: f.num("preparations")?,
        hits: f.num("hits")?,
        cached: f.num("cached")?,
        approx_bytes: f.num("approx_bytes")?,
        entries: f
            .all("entry")
            .into_iter()
            .map(decode_entry)
            .collect::<Result<_>>()?,
    })
}

/// Encode an objective vector as colon-joined shortest-round-trip floats
/// (`ideal=12.5:40.25:3.75`); component count = run's objective count.
fn encode_vector(v: &ObjectiveVector) -> String {
    v.as_slice()
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(":")
}

fn decode_vector(raw: &str) -> Result<ObjectiveVector> {
    let bad = || CliError::Usage(format!("protocol field ideal: cannot parse `{raw}`"));
    let vals: Vec<f64> = raw
        .split(':')
        .map(|t| t.parse().map_err(|_| bad()))
        .collect::<Result<_>>()?;
    if vals.is_empty() || vals.len() > cdp_metrics::MAX_OBJECTIVES {
        return Err(bad());
    }
    Ok(ObjectiveVector::from_slice(&vals))
}

fn encode_generation_stats(g: &cdp_core::GenerationStats) -> String {
    format!(
        "iteration={} min={} mean={} max={} operator={} accepted={}",
        g.iteration,
        g.min,
        g.mean,
        g.max,
        g.operator.map_or("none", OperatorKind::name),
        g.accepted,
    )
}

fn decode_generation_stats(f: &Fields<'_>) -> Result<cdp_core::GenerationStats> {
    Ok(cdp_core::GenerationStats {
        iteration: f.num("iteration")?,
        min: f.num("min")?,
        mean: f.num("mean")?,
        max: f.num("max")?,
        operator: match f.require("operator")? {
            "none" => None,
            "mutation" => Some(OperatorKind::Mutation),
            "crossover" => Some(OperatorKind::Crossover),
            other => {
                return Err(CliError::Usage(format!(
                    "protocol field operator: unknown value `{other}`"
                )))
            }
        },
        accepted: f.num("accepted")?,
    })
}

/// Serialize one [`JobEvent`] as `<kind> <fields…>` (the part after
/// `EVENT `).
pub fn encode_event(event: &JobEvent) -> String {
    match event {
        JobEvent::SourceReady {
            rows,
            attrs,
            protected,
        } => format!("source rows={rows} attrs={attrs} protected={protected}"),
        JobEvent::EvaluatorReady { reused } => format!("evaluator reused={reused}"),
        JobEvent::CacheStats(stats) => format!("cache {}", encode_stats(stats)),
        JobEvent::PopulationReady { size } => format!("population size={size}"),
        JobEvent::Generation(g) => format!("generation {}", encode_generation_stats(g)),
        JobEvent::FrontAdvanced {
            generation,
            front_size,
            hypervolume,
            ideal,
        } => format!(
            "front generation={generation} front_size={front_size} hypervolume={hypervolume} \
             ideal={}",
            encode_vector(ideal)
        ),
        JobEvent::IslandGeneration { island, stats } => format!(
            "island_generation island={island} {}",
            encode_generation_stats(stats)
        ),
        JobEvent::IslandFront {
            island,
            generation,
            front_size,
            hypervolume,
            ideal,
        } => format!(
            "island_front island={island} generation={generation} \
             front_size={front_size} hypervolume={hypervolume} ideal={}",
            encode_vector(ideal)
        ),
        JobEvent::Migration {
            generation,
            island,
            emigrants,
        } => format!("migration generation={generation} island={island} emigrants={emigrants}"),
        JobEvent::EvolutionFinished {
            iterations,
            evaluations,
        } => format!(
            "finished iterations={iterations} evals_full={} evals_incremental={}",
            evaluations.full, evaluations.incremental
        ),
        JobEvent::AuditReady => "audit".into(),
    }
}

/// Invert [`encode_event`].
///
/// # Errors
/// [`CliError::Usage`] for unknown kinds or malformed fields.
pub fn decode_event(rest: &str) -> Result<JobEvent> {
    let (kind, fields) = match rest.split_once(' ') {
        Some((kind, fields)) => (kind, fields),
        None => (rest, ""),
    };
    let f = Fields::parse(fields);
    match kind {
        "source" => Ok(JobEvent::SourceReady {
            rows: f.num("rows")?,
            attrs: f.num("attrs")?,
            protected: f.num("protected")?,
        }),
        "evaluator" => Ok(JobEvent::EvaluatorReady {
            reused: f.num("reused")?,
        }),
        "cache" => Ok(JobEvent::CacheStats(decode_stats(&f)?)),
        "population" => Ok(JobEvent::PopulationReady {
            size: f.num("size")?,
        }),
        "generation" => Ok(JobEvent::Generation(decode_generation_stats(&f)?)),
        "front" => Ok(JobEvent::FrontAdvanced {
            generation: f.num("generation")?,
            front_size: f.num("front_size")?,
            hypervolume: f.num("hypervolume")?,
            ideal: decode_vector(f.require("ideal")?)?,
        }),
        "island_generation" => Ok(JobEvent::IslandGeneration {
            island: f.num("island")?,
            stats: decode_generation_stats(&f)?,
        }),
        "island_front" => Ok(JobEvent::IslandFront {
            island: f.num("island")?,
            generation: f.num("generation")?,
            front_size: f.num("front_size")?,
            hypervolume: f.num("hypervolume")?,
            ideal: decode_vector(f.require("ideal")?)?,
        }),
        "migration" => Ok(JobEvent::Migration {
            generation: f.num("generation")?,
            island: f.num("island")?,
            emigrants: f.num("emigrants")?,
        }),
        "finished" => Ok(JobEvent::EvolutionFinished {
            iterations: f.num("iterations")?,
            evaluations: cdp_core::EvalCounts {
                full: f.num("evals_full")?,
                incremental: f.num("evals_incremental")?,
            },
        }),
        "audit" => Ok(JobEvent::AuditReady),
        other => Err(CliError::Usage(format!(
            "unknown event kind `{other}` in `{rest}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_core::{EvalCounts, GenerationStats};

    fn roundtrip_response(r: &Response) {
        let line = r.to_line();
        let back = Response::parse(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert_eq!(&back, r, "{line}");
        // the canonical line is a fixed point
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn requests_round_trip() {
        for line in [
            "JOB dataset=adult suite=small fitness=max iters=300 seed=42",
            "JOB dataset=german suite=paper mode=nsga gens=25 seed=9 records=100",
            "STATS",
            "SHUTDOWN",
        ] {
            let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.to_line(), line);
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "NOPE",
            "JOB",                 // missing dataset
            "JOB dataset=iris",    // unknown dataset
            "STATS now",           // trailing operand
            "SHUTDOWN please",     // trailing operand
            "job dataset=adult",   // verbs are case-sensitive
            "EVENT source rows=1", // response, not request
        ] {
            assert!(Request::parse(line).is_err(), "`{line}` must be rejected");
        }
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = [
            JobEvent::SourceReady {
                rows: 1000,
                attrs: 13,
                protected: 3,
            },
            JobEvent::EvaluatorReady { reused: true },
            JobEvent::CacheStats(SessionStats {
                preparations: 1,
                hits: 3,
                cached: 1,
                approx_bytes: 32_768,
                entries: vec![CacheEntryStats {
                    rows: 1000,
                    attrs: 3,
                    hits: 3,
                    approx_bytes: 32_768,
                    prepared: true,
                }],
            }),
            JobEvent::PopulationReady { size: 110 },
            JobEvent::Generation(GenerationStats {
                iteration: 17,
                min: 12.25,
                mean: 30.125,
                max: 97.0625,
                operator: Some(OperatorKind::Crossover),
                accepted: true,
            }),
            JobEvent::Generation(GenerationStats {
                iteration: 0,
                min: 0.1,
                mean: 0.2,
                max: 0.3,
                operator: None,
                accepted: false,
            }),
            JobEvent::FrontAdvanced {
                generation: 3,
                front_size: 9,
                hypervolume: 9123.0625,
                ideal: ObjectiveVector::pair(18.15625, 43.890625),
            },
            // a three-objective front line: the ideal vector's length is
            // the run's objective count, not always 2
            JobEvent::FrontAdvanced {
                generation: 4,
                front_size: 11,
                hypervolume: 712_831.25,
                ideal: ObjectiveVector::from_slice(&[18.15625, 43.890625, 12.5]),
            },
            JobEvent::IslandGeneration {
                island: 3,
                stats: GenerationStats {
                    iteration: 42,
                    min: 11.5,
                    mean: 23.75,
                    max: 88.0625,
                    operator: Some(OperatorKind::Mutation),
                    accepted: false,
                },
            },
            JobEvent::IslandFront {
                island: 1,
                generation: 7,
                front_size: 5,
                hypervolume: 8127.5,
                ideal: ObjectiveVector::pair(9.03125, 61.25),
            },
            JobEvent::Migration {
                generation: 10,
                island: 2,
                emigrants: 2,
            },
            JobEvent::EvolutionFinished {
                iterations: 250,
                evaluations: EvalCounts {
                    full: 120,
                    incremental: 500,
                },
            },
            JobEvent::AuditReady,
        ];
        for event in events {
            roundtrip_response(&Response::Event(event));
        }
    }

    #[test]
    fn done_err_ok_round_trip_with_hostile_text() {
        for name in [
            "pram(0.8)",
            "microagg(k=5,multi,median)",
            "a name with spaces",
            "percent % equals = newline \n cr \r end",
            "",
        ] {
            roundtrip_response(&Response::Done(DoneSummary {
                name: name.into(),
                ctbil: 1.0625,
                dbil: 2.5,
                ebil: 3.25,
                id: 4.125,
                dbrl: 5.75,
                prl: 6.5,
                rsrl: 7.875,
                rows: 120,
                population: 110,
                iterations: 250,
                evals_full: 130,
                evals_incremental: 490,
                cache_hit: true,
            }));
            roundtrip_response(&Response::Err(name.into()));
            roundtrip_response(&Response::Ok(name.into()));
        }
        // every escaped line stays single-line
        let r = Response::Err("two\nlines".into());
        assert_eq!(r.to_line().lines().count(), 1);
    }

    #[test]
    fn stats_round_trip() {
        // without per-entry detail …
        roundtrip_response(&Response::Stats(SessionStats {
            preparations: 2,
            hits: 40,
            cached: 2,
            approx_bytes: 1 << 20,
            entries: Vec::new(),
        }));
        // … and with: repeated `entry=` fields, order-preserving
        roundtrip_response(&Response::Stats(SessionStats {
            preparations: 2,
            hits: 40,
            cached: 2,
            approx_bytes: 1 << 20,
            entries: vec![
                CacheEntryStats {
                    rows: 1000,
                    attrs: 3,
                    hits: 39,
                    approx_bytes: 1 << 19,
                    prepared: true,
                },
                CacheEntryStats {
                    rows: 500,
                    attrs: 4,
                    hits: 1,
                    approx_bytes: 1 << 19,
                    prepared: false,
                },
            ],
        }));
    }

    #[test]
    fn malformed_responses_are_rejected() {
        for line in [
            "WHAT 1",
            "EVENT",
            "EVENT warp speed=9",
            "EVENT source rows=1 attrs=2",        // protected missing
            "EVENT generation iteration=1 min=a", // bad float
            "EVENT generation iteration=1 operator=warp", // unknown operator
            "EVENT migration generation=1 island=0", // emigrants missing
            "EVENT island_front island=0 generation=1", // front fields missing
            // ideal vector: missing, empty, unparsable, over-long
            "EVENT front generation=1 front_size=2 hypervolume=3",
            "EVENT front generation=1 front_size=2 hypervolume=3 ideal=",
            "EVENT front generation=1 front_size=2 hypervolume=3 ideal=1:x",
            "EVENT front generation=1 front_size=2 hypervolume=3 ideal=1:2:3:4:5",
            // short entry list
            "STATS preparations=1 hits=0 cached=1 approx_bytes=8 entry=1:2:3",
            // a mandatory counter missing
            "STATS preparations=1 hits=0 approx_bytes=8",
            "DONE name=x", // breakdown missing
        ] {
            assert!(Response::parse(line).is_err(), "`{line}` must be rejected");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// parse ∘ to_line = id over randomly drawn DONE summaries —
        /// float fields at full precision (shortest-round-trip encoding),
        /// names over an adversarial alphabet (spaces, `%`, `=`,
        /// newlines — every character the framing must defend against).
        #[test]
        fn done_summary_round_trips_losslessly(
            name_bits in proptest::prelude::any::<u64>(),
            name_len in 0usize..16,
            ctbil in 0.0f64..100.0, dbil in 0.0f64..100.0, ebil in 0.0f64..100.0,
            id in 0.0f64..100.0, dbrl in 0.0f64..100.0,
            prl in 0.0f64..100.0, rsrl in 0.0f64..100.0,
            rows in 0usize..1_000_000, population in 0usize..4096,
            iterations in 0usize..100_000,
            evals_full in 0usize..1_000_000, evals_incremental in 0usize..1_000_000,
            cache_hit in proptest::prelude::any::<bool>(),
        ) {
            const ALPHABET: &[char] =
                &['a', 'Z', '0', '(', ')', ',', '.', '+', ' ', '%', '=', '\n', '\r', '-', ':', '_'];
            let name: String = (0..name_len)
                .map(|i| ALPHABET[((name_bits >> (i * 4)) & 0xF) as usize])
                .collect();
            let done = Response::Done(DoneSummary {
                name, ctbil, dbil, ebil, id, dbrl, prl, rsrl,
                rows, population, iterations, evals_full, evals_incremental, cache_hit,
            });
            let line = done.to_line();
            proptest::prop_assert_eq!(line.lines().count(), 1, "framing: one line");
            proptest::prop_assert_eq!(&Response::parse(&line).unwrap(), &done);
        }

        /// Generation events carry raw float telemetry; the wire encoding
        /// must preserve every bit.
        #[test]
        fn generation_events_round_trip_losslessly(
            iteration in 0usize..100_000,
            min_bits in proptest::prelude::any::<f64>(),
            mean_bits in proptest::prelude::any::<f64>(),
            max_bits in proptest::prelude::any::<f64>(),
            operator in 0u8..3,
            accepted in proptest::prelude::any::<bool>(),
        ) {
            // finite floats only: the pipeline never emits NaN/inf scores,
            // and NaN would break the PartialEq comparison below
            let finite = |v: f64| if v.is_finite() { v } else { 0.5 };
            let event = Response::Event(JobEvent::Generation(GenerationStats {
                iteration,
                min: finite(min_bits),
                mean: finite(mean_bits),
                max: finite(max_bits),
                operator: [None, Some(OperatorKind::Mutation), Some(OperatorKind::Crossover)]
                    [operator as usize],
                accepted,
            }));
            let line = event.to_line();
            proptest::prop_assert_eq!(&Response::parse(&line).unwrap(), &event);
        }

        /// `STATS` lines (and the identical `EVENT cache` payload) carry
        /// the full counter set losslessly, for any entry list.
        #[test]
        fn session_stats_round_trip_losslessly(
            preparations in 0usize..1_000, hits in 0usize..1_000_000,
            approx_bytes in proptest::prelude::any::<usize>(),
            entry_rows in proptest::collection::vec(0usize..1_000_000, 0..4),
            entry_hits in 0usize..1_000,
            entry_prepared in proptest::prelude::any::<bool>(),
        ) {
            let entries: Vec<CacheEntryStats> = entry_rows
                .iter()
                .map(|&rows| CacheEntryStats {
                    rows,
                    attrs: rows % 7,
                    hits: entry_hits,
                    approx_bytes: rows * 13,
                    prepared: entry_prepared,
                })
                .collect();
            let stats = Response::Stats(SessionStats {
                preparations, hits, cached: entries.len(), approx_bytes, entries,
            });
            let line = stats.to_line();
            proptest::prop_assert_eq!(line.lines().count(), 1);
            let parsed = Response::parse(&line).unwrap();
            proptest::prop_assert_eq!(&parsed, &stats);
            // hit_rate is None at zero lookups and finite otherwise —
            // never NaN, on either side of the wire
            if let Response::Stats(s) = &parsed {
                match s.hit_rate() {
                    None => proptest::prop_assert_eq!(s.hits + s.preparations, 0),
                    Some(r) => proptest::prop_assert!(r.is_finite() && (0.0..=1.0).contains(&r)),
                }
            }
        }

        /// `JOB` framing: any canonical job-spec line survives the trip
        /// through a request line (both optimizer modes are drawn by the
        /// sibling spec proptest; here the framing itself is the subject).
        #[test]
        fn job_request_framing_round_trips(
            dataset_i in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
            records_set in proptest::prelude::any::<bool>(),
            records_n in 30usize..500,
            nsga in proptest::prelude::any::<bool>(),
        ) {
            use cdp_dataset::generators::DatasetKind;
            let mut spec = JobSpec {
                dataset: [
                    DatasetKind::Adult,
                    DatasetKind::Housing,
                    DatasetKind::German,
                    DatasetKind::Flare,
                ][dataset_i],
                seed,
                records: records_set.then_some(records_n),
                ..JobSpec::default()
            };
            if nsga {
                spec.mode = crate::spec::SpecMode::Nsga;
            }
            let req = Request::Job(spec);
            let line = req.to_line();
            proptest::prop_assert_eq!(line.lines().count(), 1);
            proptest::prop_assert_eq!(&Request::parse(&line).unwrap(), &req);
        }
    }
}
