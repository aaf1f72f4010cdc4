//! The job execution context: one in-memory evaluator cache that any
//! number of threads share, plus the [`SessionStats`] observability
//! counters.
//!
//! Preparing an [`Evaluator`] computes the original file's ranks,
//! marginals, contingency tables and chance-agreement probabilities —
//! work that depends only on the original, not on the job. A
//! [`SharedSession`] keeps one prepared evaluator per distinct
//! `(original, MetricConfig)` pair and hands each job a clone, so sweeps
//! (many jobs over one original) and the protection server (`cdp serve`:
//! many requests over few originals) pay that cost once per process.
//!
//! The cache is a list of slots behind one registry lock, which is held
//! only to find or insert a slot, never across a preparation. A slot
//! prepares its evaluator in a [`OnceLock`]: the first caller prepares,
//! callers racing it on the same key wait for that preparation and then
//! share it, and nobody else waits for it — not a caller on another
//! original, and not [`SharedSession::stats`]. A hot original is prepared
//! exactly once however many threads ask for it; distinct originals
//! prepare in parallel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cdp_dataset::{Code, SubTable};
use cdp_metrics::{Evaluator, MetricConfig};

use super::job::ProtectionJob;
use super::report::JobReport;
use super::stages::{run_job, JobEvent};
use super::Result;

/// Cache observability counters of a session ([`SharedSession::stats`]):
/// how much preparation work the evaluator cache amortized. Under server
/// load, `hits / (hits + preparations)` — the cache hit rate — is the
/// headline metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Evaluator preparations started (the expensive cold path: ranks,
    /// marginals, contingency tables, PRL census, pattern index): one per
    /// request that registered a new slot, i.e. one per cache miss.
    pub preparations: usize,
    /// Requests served from an already-registered slot. A request that
    /// arrives while the first one is still preparing counts as a hit —
    /// it waits for that preparation instead of repeating it.
    pub hits: usize,
    /// Distinct `(original, MetricConfig)` slots currently cached.
    pub cached: usize,
    /// Approximate resident size of the cache, in bytes: the retained
    /// original arenas plus, per prepared slot, every component of the
    /// prepared state — marginal counts/probabilities, rank statistics,
    /// contingency tables, the pattern index with its postings and row
    /// groups, and the
    /// evaluator's retained copy of the original.
    pub approx_bytes: usize,
    /// Per-slot detail, in registration order — one entry per cached
    /// `(original, MetricConfig)` pair (`entries.len() == cached`).
    pub entries: Vec<CacheEntryStats>,
}

/// Observability detail of one cache slot (one element of
/// [`SessionStats::entries`]): which original it holds, how often it was
/// hit, and what it costs to keep resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEntryStats {
    /// Records of the cached original.
    pub rows: usize,
    /// Protected attributes of the cached original.
    pub attrs: usize,
    /// Requests served from this slot after its registration.
    pub hits: usize,
    /// Approximate resident bytes of this slot (same accounting as
    /// [`SessionStats::approx_bytes`]).
    pub approx_bytes: usize,
    /// Whether the slot's evaluator is prepared (`false` while the first
    /// arrival is still preparing it).
    pub prepared: bool,
}

impl SessionStats {
    /// Cache hit rate in `[0, 1]`; `None` before the first request.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.preparations;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// One cached preparation: the key it was registered under, and its
/// evaluator, prepared by the first caller to reach it.
struct CacheSlot {
    original: SubTable,
    cfg: MetricConfig,
    hits: AtomicUsize,
    evaluator: OnceLock<Evaluator>,
}

impl CacheSlot {
    /// The slot's [`SessionStats::entries`] element. Never waits: a slot
    /// still being prepared reports `prepared: false`.
    fn entry_stats(&self) -> CacheEntryStats {
        let evaluator = self.evaluator.get();
        let arena_bytes = self.original.flat_len() * std::mem::size_of::<Code>();
        CacheEntryStats {
            rows: self.original.n_rows(),
            attrs: self.original.n_attrs(),
            hits: self.hits.load(Ordering::Relaxed),
            approx_bytes: arena_bytes + evaluator.map_or(0, Evaluator::approx_bytes),
            prepared: evaluator.is_some(),
        }
    }
}

/// The shared state behind every clone of one [`SharedSession`].
#[derive(Default)]
struct SharedCache {
    slots: Mutex<Vec<Arc<CacheSlot>>>,
    preparations: AtomicUsize,
    hits: AtomicUsize,
}

/// A cloneable, thread-safe job execution context that caches prepared
/// originals (see the module docs).
///
/// Clones are shallow — every clone sees (and feeds) the same cache and
/// the same [`SessionStats`] counters. All methods take `&self`, so one
/// `SharedSession` can drive jobs from many worker threads concurrently;
/// jobs against the same original trigger exactly one preparation.
///
/// ```
/// use cdp::prelude::*;
///
/// let job = ProtectionJob::builder()
///     .dataset(DatasetKind::German)
///     .records(80)
///     .iterations(5)
///     .seed(3)
///     .build()
///     .unwrap();
/// let session = SharedSession::new();
/// std::thread::scope(|scope| {
///     for _ in 0..2 {
///         let session = session.clone();
///         let job = &job;
///         scope.spawn(move || session.run(job).unwrap());
///     }
/// });
/// session.run(&job).unwrap(); // same original: no further preparation
/// let stats = session.stats();
/// assert_eq!(stats.preparations, 1); // the racing job waited, then hit
/// assert_eq!(stats.hits, 2);
/// ```
#[derive(Clone, Default)]
pub struct SharedSession {
    cache: Arc<SharedCache>,
}

impl SharedSession {
    /// An empty session.
    pub fn new() -> Self {
        SharedSession::default()
    }

    fn registry(&self) -> MutexGuard<'_, Vec<Arc<CacheSlot>>> {
        self.cache.slots.lock().expect("cache registry lock")
    }

    /// Current cache counters. Cheap (one lock acquisition, no
    /// preparation work, never waits for a preparation); safe to poll per
    /// request.
    pub fn stats(&self) -> SessionStats {
        let slots = self.registry();
        let entries: Vec<CacheEntryStats> = slots.iter().map(|s| s.entry_stats()).collect();
        SessionStats {
            preparations: self.cache.preparations.load(Ordering::Relaxed),
            hits: self.cache.hits.load(Ordering::Relaxed),
            cached: slots.len(),
            approx_bytes: entries.iter().map(|e| e.approx_bytes).sum(),
            entries,
        }
    }

    /// Drop every cached preparation. Counters are cumulative and survive
    /// the clear (they describe session history, not cache contents).
    pub fn clear(&self) {
        self.registry().clear();
    }

    /// The evaluator for an original, preparing it on first sight.
    /// Returns the evaluator and whether it came from the cache.
    ///
    /// Concurrent calls for the *same* `(original, cfg)` key prepare
    /// once: the rest wait for that preparation and receive a clone
    /// (`reused = true`). Calls for distinct keys prepare in parallel.
    ///
    /// # Errors
    /// [`cdp_metrics::MetricError`] for an invalid metric configuration;
    /// such a call leaves the cache untouched.
    pub fn evaluator_for(
        &self,
        original: &SubTable,
        cfg: MetricConfig,
    ) -> Result<(Evaluator, bool)> {
        cfg.validate()?;
        let (slot, registered) = self.slot_for(original, cfg);
        let evaluator = slot.evaluator.get_or_init(|| {
            Evaluator::new(&slot.original, cfg).expect("a validated config always prepares")
        });
        Ok((evaluator.clone(), !registered))
    }

    /// Find the slot of `(original, cfg)`, or register a new one, and
    /// count the request as a hit or as a preparation. Returns the slot
    /// and whether this call registered it.
    fn slot_for(&self, original: &SubTable, cfg: MetricConfig) -> (Arc<CacheSlot>, bool) {
        let mut slots = self.registry();
        if let Some(slot) = slots
            .iter()
            .find(|s| s.cfg == cfg && s.original == *original)
        {
            slot.hits.fetch_add(1, Ordering::Relaxed);
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(slot), false);
        }
        let slot = Arc::new(CacheSlot {
            original: original.clone(),
            cfg,
            hits: AtomicUsize::new(0),
            evaluator: OnceLock::new(),
        });
        slots.push(Arc::clone(&slot));
        self.cache.preparations.fetch_add(1, Ordering::Relaxed);
        (slot, true)
    }

    /// Execute a job.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run(&self, job: &ProtectionJob) -> Result<JobReport> {
        self.run_with(job, |_| {})
    }

    /// Execute a job, streaming [`JobEvent`]s to `observer`.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run_with<F: FnMut(&JobEvent)>(
        &self,
        job: &ProtectionJob,
        mut observer: F,
    ) -> Result<JobReport> {
        run_job(self, job, &mut observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use std::sync::mpsc;
    use std::time::Duration;

    fn tiny_job(kind: DatasetKind, seed: u64, iterations: usize) -> ProtectionJob {
        ProtectionJob::builder()
            .dataset(kind)
            .records(60)
            .iterations(iterations)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn original(kind: DatasetKind, n: usize) -> SubTable {
        kind.generate(&GeneratorConfig::seeded(9).with_records(n))
            .protected_subtable()
    }

    fn invalid_config() -> MetricConfig {
        MetricConfig {
            prl_em_iters: 0, // rejected by `MetricConfig::validate`
            ..MetricConfig::default()
        }
    }

    #[test]
    fn second_job_reuses_the_preparation() {
        let session = SharedSession::new();
        let a = tiny_job(DatasetKind::Adult, 7, 5);
        let b = tiny_job(DatasetKind::Adult, 7, 8); // same original, new budget
        let ra = session.run(&a).unwrap();
        let rb = session.run(&b).unwrap();
        assert!(!ra.evaluator_reused);
        assert!(rb.evaluator_reused);
        let stats = session.stats();
        assert_eq!(stats.preparations, 1);
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn different_original_prepares_again() {
        let session = SharedSession::new();
        session.run(&tiny_job(DatasetKind::Adult, 7, 5)).unwrap();
        session.run(&tiny_job(DatasetKind::German, 7, 5)).unwrap();
        // same dataset, different generator seed -> different original
        session.run(&tiny_job(DatasetKind::Adult, 8, 5)).unwrap();
        assert_eq!(session.stats().preparations, 3);
    }

    #[test]
    fn clear_forgets_preparations() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Flare, 3, 5);
        session.run(&job).unwrap();
        session.clear();
        let r = session.run(&job).unwrap();
        assert!(!r.evaluator_reused);
        assert_eq!(session.stats().preparations, 2);
    }

    #[test]
    fn shared_clone_feeds_the_same_cache() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Adult, 9, 3);
        session.run(&job).unwrap();
        let report = session.clone().run(&job).unwrap();
        assert!(report.evaluator_reused, "clone sees the session's cache");
        assert_eq!(session.stats().preparations, 1);
        assert_eq!(session.stats().hits, 1);
    }

    #[test]
    fn concurrent_jobs_on_one_original_prepare_once() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Adult, 7, 3);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = session.clone();
                let (job, barrier) = (&job, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    session.run(job).unwrap();
                });
            }
        });
        let stats = session.stats();
        assert_eq!(stats.preparations, 1, "one hot original, one preparation");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.hit_rate(), Some(0.75));
    }

    #[test]
    fn concurrent_distinct_originals_prepare_independently() {
        let session = SharedSession::new();
        let kinds = [DatasetKind::Adult, DatasetKind::German, DatasetKind::Flare];
        std::thread::scope(|scope| {
            for kind in kinds {
                let session = session.clone();
                scope.spawn(move || session.run(&tiny_job(kind, 5, 2)).unwrap());
            }
        });
        let stats = session.stats();
        assert_eq!(stats.preparations, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.cached, 3);
    }

    #[test]
    fn racing_requests_on_one_key_register_it_once() {
        let session = SharedSession::new();
        let cfg = MetricConfig::default();
        let original = original(DatasetKind::German, 40);
        let fresh = Evaluator::new(&original, cfg).unwrap();
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<(Evaluator, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let session = session.clone();
                    let (original, barrier) = (&original, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        session.evaluator_for(original, cfg).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let registrations = results.iter().filter(|(_, reused)| !reused).count();
        assert_eq!(registrations, 1, "exactly one caller registers the key");
        // the callers that waited received the registrant's preparation
        for (evaluator, _) in &results {
            assert_eq!(evaluator.evaluate(&original), fresh.evaluate(&original));
        }
        let stats = session.stats();
        assert_eq!((stats.preparations, stats.hits), (1, 3));
        assert_eq!(stats.entries.len(), 1);
        assert_eq!(stats.entries[0].hits, 3);
    }

    #[test]
    fn concurrent_runs_match_a_serial_run_bit_for_bit() {
        let job = tiny_job(DatasetKind::German, 11, 6);
        let serial = SharedSession::new().run(&job).unwrap();
        let session = SharedSession::new();
        let reports: Vec<JobReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let session = session.clone();
                    let job = &job;
                    scope.spawn(move || session.run(job).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(session.stats().preparations, 1);
        assert_eq!(
            reports.iter().filter(|r| !r.evaluator_reused).count(),
            1,
            "one run prepared, the others hit"
        );
        for report in &reports {
            assert_eq!(report.best.assessment, serial.best.assessment);
            assert_eq!(report.best.name, serial.best.name);
            assert_eq!(report.best.data, serial.best.data);
            assert_eq!(report.points, serial.points);
        }
    }

    #[test]
    fn distinct_configs_on_one_original_prepare_separately() {
        let session = SharedSession::new();
        let original = original(DatasetKind::Adult, 40);
        let default = MetricConfig::default();
        let wide = MetricConfig {
            interval_fraction: 0.3,
            ..default
        };
        let (_, reused) = session.evaluator_for(&original, default).unwrap();
        assert!(!reused);
        let (wide_evaluator, reused) = session.evaluator_for(&original, wide).unwrap();
        assert!(!reused, "the config is part of the key");
        let (_, reused) = session.evaluator_for(&original, default).unwrap();
        assert!(reused);
        // the slot prepared under `wide` really uses `wide`
        assert_eq!(
            wide_evaluator.evaluate(&original),
            Evaluator::new(&original, wide).unwrap().evaluate(&original)
        );
        let stats = session.stats();
        assert_eq!(stats.cached, 2);
        assert_eq!((stats.preparations, stats.hits), (2, 1));
        assert_eq!((stats.entries[0].hits, stats.entries[1].hits), (1, 0));
    }

    #[test]
    fn a_fresh_session_reports_no_hit_rate() {
        let session = SharedSession::new();
        let stats = session.stats();
        assert_eq!(stats, SessionStats::default());
        assert_eq!(stats.hit_rate(), None);
        // a rejected request is not a request the cache served or missed
        let original = original(DatasetKind::Flare, 30);
        assert!(session.evaluator_for(&original, invalid_config()).is_err());
        assert_eq!(session.stats().hit_rate(), None);
    }

    /// A slot held mid-preparation must stall neither `stats()` nor a
    /// request for another, already-prepared original: every job calls
    /// both right after its evaluator stage, so either wait would freeze
    /// all concurrent server jobs behind one cold original.
    #[test]
    fn a_preparing_slot_stalls_neither_stats_nor_hot_originals() {
        let session = SharedSession::new();
        let cfg = MetricConfig::default();
        let hot = original(DatasetKind::German, 40);
        let cold = original(DatasetKind::Adult, 40);
        session.evaluator_for(&hot, cfg).unwrap();

        let (slot, registered) = session.slot_for(&cold, cfg);
        assert!(registered);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let preparing = Arc::clone(&slot);
            scope.spawn(move || {
                preparing.evaluator.get_or_init(|| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Evaluator::new(&preparing.original, cfg).unwrap()
                });
            });
            entered_rx.recv().unwrap();

            let (done_tx, done_rx) = mpsc::channel();
            let probe = session.clone();
            let hot = &hot;
            scope.spawn(move || {
                let stats = probe.stats();
                done_tx.send(("stats", stats.entries[1].prepared)).unwrap();
                let (_, reused) = probe.evaluator_for(hot, cfg).unwrap();
                done_tx.send(("hot evaluator_for", reused)).unwrap();
            });
            let wait = Duration::from_secs(3);
            let stats = done_rx.recv_timeout(wait);
            let hot_call = done_rx.recv_timeout(wait);
            release_tx.send(()).unwrap();
            assert_eq!(
                stats,
                Ok(("stats", false)),
                "stats() waited on a preparation"
            );
            assert_eq!(
                hot_call,
                Ok(("hot evaluator_for", true)),
                "a hot original waited on another original's preparation"
            );
        });
        let stats = session.stats();
        assert!(stats.entries.iter().all(|e| e.prepared));
    }

    #[test]
    fn clear_drops_slots_but_keeps_history() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Flare, 3, 2);
        session.run(&job).unwrap();
        assert_eq!(session.stats().cached, 1);
        session.clear();
        let stats = session.stats();
        assert_eq!(stats.cached, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert_eq!(stats.preparations, 1, "history survives the clear");
        session.run(&job).unwrap();
        assert_eq!(session.stats().preparations, 2);
    }

    #[test]
    fn clear_leaves_handed_out_evaluators_intact() {
        let session = SharedSession::new();
        let cfg = MetricConfig::default();
        let original = original(DatasetKind::German, 40);
        let (held, _) = session.evaluator_for(&original, cfg).unwrap();
        session.clear();
        // a job that already holds its evaluator keeps scoring correctly
        let fresh = Evaluator::new(&original, cfg).unwrap();
        assert_eq!(held.evaluate(&original), fresh.evaluate(&original));
        // and the next request registers the original again
        let (_, reused) = session.evaluator_for(&original, cfg).unwrap();
        assert!(!reused);
        assert_eq!(session.stats().preparations, 2);
    }

    #[test]
    fn invalid_config_registers_no_slot() {
        let session = SharedSession::new();
        let original = original(DatasetKind::Adult, 30);
        assert!(session.evaluator_for(&original, invalid_config()).is_err());
        let stats = session.stats();
        assert_eq!(stats.cached, 0, "a rejected config must not occupy a slot");
        assert_eq!((stats.preparations, stats.hits), (0, 0));
        // a corrected call on the same original works
        let (_, reused) = session
            .evaluator_for(&original, MetricConfig::default())
            .unwrap();
        assert!(!reused);
        assert_eq!(session.stats().cached, 1);
    }

    #[test]
    fn stats_report_nonzero_footprint() {
        let session = SharedSession::new();
        session.run(&tiny_job(DatasetKind::Adult, 2, 0)).unwrap();
        let stats = session.stats();
        assert!(stats.approx_bytes > 0);
        assert!(stats.hit_rate().is_some());
    }

    #[test]
    fn per_entry_stats_track_slot_hits_and_footprint() {
        let session = SharedSession::new();
        let adult = tiny_job(DatasetKind::Adult, 7, 0);
        let german = tiny_job(DatasetKind::German, 7, 0);
        session.run(&adult).unwrap();
        session.run(&adult).unwrap();
        session.run(&adult).unwrap();
        session.run(&german).unwrap();
        let stats = session.stats();
        assert_eq!(stats.entries.len(), stats.cached);
        assert_eq!(stats.entries.len(), 2);
        // registration order: the adult slot first, hit twice after its miss
        let (a, g) = (&stats.entries[0], &stats.entries[1]);
        assert_eq!(a.hits, 2);
        assert_eq!(g.hits, 0);
        assert!(a.prepared && g.prepared);
        assert_eq!(a.rows, 60);
        assert!(a.attrs > 0);
        // the aggregate footprint is exactly the sum of the entries
        assert_eq!(
            stats.approx_bytes,
            stats.entries.iter().map(|e| e.approx_bytes).sum::<usize>()
        );
        // per-slot hits partition the session-wide hit counter
        assert_eq!(
            stats.hits,
            stats.entries.iter().map(|e| e.hits).sum::<usize>()
        );
    }

    mod counter_property {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random session history.
        #[derive(Debug, Clone, Copy)]
        enum Step {
            /// `evaluator_for` on original `i`, with a valid config or not.
            Request {
                original: usize,
                valid: bool,
            },
            Clear,
        }

        /// Decode a drawn `(original, op)` pair: six in eight ops are
        /// valid requests, one an invalid request, one a clear.
        fn step((original, op): (usize, usize)) -> Step {
            match op {
                0..=5 => Step::Request {
                    original,
                    valid: true,
                },
                6 => Step::Request {
                    original,
                    valid: false,
                },
                _ => Step::Clear,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 16 })]
            #[test]
            fn counters_agree_with_the_request_history(
                ops in proptest::collection::vec((0usize..3, 0usize..8), 1..16),
            ) {
                let pool = [
                    original(DatasetKind::Adult, 40),
                    original(DatasetKind::German, 40),
                    original(DatasetKind::Flare, 40),
                ];
                let fresh: Vec<Evaluator> = pool
                    .iter()
                    .map(|o| Evaluator::new(o, MetricConfig::default()).unwrap())
                    .collect();
                let session = SharedSession::new();
                let mut successes = 0usize;
                let mut registrations = 0usize;
                let mut hits_at_clear = 0usize;
                let mut keys: Vec<usize> = Vec::new(); // distinct since the last clear
                for op in ops {
                    match step(op) {
                        Step::Request { original, valid } => {
                            let cfg = if valid { MetricConfig::default() } else { invalid_config() };
                            match session.evaluator_for(&pool[original], cfg) {
                                Ok((evaluator, reused)) => {
                                    prop_assert!(valid);
                                    successes += 1;
                                    prop_assert_eq!(reused, keys.contains(&original));
                                    if !reused {
                                        keys.push(original);
                                        registrations += 1;
                                    }
                                    prop_assert_eq!(
                                        evaluator.evaluate(&pool[original]),
                                        fresh[original].evaluate(&pool[original])
                                    );
                                }
                                Err(_) => prop_assert!(!valid),
                            }
                        }
                        Step::Clear => {
                            session.clear();
                            hits_at_clear = session.stats().hits;
                            keys.clear();
                        }
                    }
                    let stats = session.stats();
                    prop_assert_eq!(stats.preparations, registrations);
                    prop_assert_eq!(stats.hits + stats.preparations, successes);
                    prop_assert_eq!(
                        stats.hits - hits_at_clear,
                        stats.entries.iter().map(|e| e.hits).sum::<usize>()
                    );
                    prop_assert_eq!(stats.cached, keys.len());
                    prop_assert!(stats.entries.iter().all(|e| e.prepared));
                }
            }
        }
    }

    fn tag_of(e: &JobEvent) -> &'static str {
        match e {
            JobEvent::SourceReady { .. } => "source",
            JobEvent::EvaluatorReady { .. } => "evaluator",
            JobEvent::CacheStats(_) => "cache",
            JobEvent::PopulationReady { .. } => "population",
            JobEvent::Generation(_) => "generation",
            JobEvent::FrontAdvanced { .. } => "front",
            JobEvent::IslandGeneration { .. } => "island-generation",
            JobEvent::IslandFront { .. } => "island-front",
            JobEvent::Migration { .. } => "migration",
            JobEvent::EvolutionFinished { .. } => "finished",
            JobEvent::AuditReady => "audit",
        }
    }

    #[test]
    fn events_stream_in_stage_order() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::German, 5, 6);
        let mut tags = Vec::new();
        session.run_with(&job, |e| tags.push(tag_of(e))).unwrap();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert_eq!(tags.iter().filter(|t| **t == "generation").count(), 6);
        assert!(!tags.contains(&"front"), "scalar jobs emit no front events");
        assert_eq!(*tags.last().unwrap(), "finished");
    }

    #[test]
    fn cache_stats_event_reports_the_session_counters() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Adult, 6, 2);
        let mut snapshots = Vec::new();
        for _ in 0..2 {
            session
                .run_with(&job, |e| {
                    if let JobEvent::CacheStats(s) = e {
                        snapshots.push(s.clone());
                    }
                })
                .unwrap();
        }
        assert_eq!(snapshots.len(), 2);
        // first job: fresh miss, one preparation; second: pure hit
        assert_eq!((snapshots[0].preparations, snapshots[0].hits), (1, 0));
        assert_eq!((snapshots[1].preparations, snapshots[1].hits), (1, 1));
        assert_eq!(snapshots[1].hit_rate(), Some(0.5));
        assert_eq!(snapshots[1], session.stats(), "final snapshot is current");
    }

    #[test]
    fn cache_stats_event_after_clear_reports_a_new_miss() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::German, 4, 2);
        session.run(&job).unwrap();
        session.clear();
        let mut reused = None;
        let mut snapshot = None;
        session
            .run_with(&job, |e| match e {
                JobEvent::EvaluatorReady { reused: r } => reused = Some(*r),
                JobEvent::CacheStats(s) => snapshot = Some(s.clone()),
                _ => {}
            })
            .unwrap();
        assert_eq!(reused, Some(false), "the cleared slot is prepared again");
        let snapshot = snapshot.expect("every job streams its cache counters");
        assert_eq!((snapshot.preparations, snapshot.hits), (2, 0));
        assert_eq!(snapshot.cached, 1);
        assert_eq!(snapshot.entries.len(), 1);
        assert_eq!(snapshot.entries[0].hits, 0);
        assert!(snapshot.entries[0].prepared);
    }

    #[test]
    fn nsga_job_streams_front_events_on_the_same_channel() {
        let session = SharedSession::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .nsga()
            .iterations(4)
            .seed(5)
            .build()
            .unwrap();
        let mut tags = Vec::new();
        let mut fronts = Vec::new();
        session
            .run_with(&job, |e| {
                tags.push(tag_of(e));
                if let JobEvent::FrontAdvanced {
                    generation,
                    front_size,
                    hypervolume,
                    ideal,
                } = e
                {
                    // the ideal point leads with the canonical pair and
                    // is a per-objective lower bound of the front
                    assert_eq!(ideal.len(), 2, "default jobs keep the pair");
                    fronts.push((*generation, *front_size, *hypervolume));
                }
            })
            .unwrap();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert_eq!(tags.iter().filter(|t| **t == "front").count(), 4);
        assert!(!tags.contains(&"generation"), "nsga emits front events");
        assert_eq!(*tags.last().unwrap(), "finished");
        let report = session.run(&job).unwrap();
        let front = report.front().expect("nsga outcome");
        // event stream and report trajectory agree
        for (generation, front_size, hv) in fronts {
            assert_eq!(front.hypervolume[generation], hv);
            assert!(front_size >= 1);
        }
        assert_eq!(front.generations_run(), 4);
    }

    #[test]
    fn island_job_streams_per_island_events_deterministically() {
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .iterations(24)
            .islands(3)
            .migration_interval(4)
            .seed(5)
            .build()
            .unwrap();
        let run = || {
            let session = SharedSession::new();
            let mut tags = Vec::new();
            let mut events = Vec::new();
            let report = session
                .run_with(&job, |e| {
                    tags.push(tag_of(e));
                    events.push(e.clone());
                })
                .unwrap();
            (tags, events, report)
        };
        let (tags, events, report) = run();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert!(
            !tags.contains(&"generation"),
            "island jobs emit per-island events instead of the legacy kind"
        );
        assert_eq!(
            tags.iter().filter(|t| **t == "island-generation").count(),
            24,
            "the iteration budget is split across islands, not multiplied"
        );
        assert!(tags.contains(&"migration"));
        assert_eq!(*tags.last().unwrap(), "finished");

        // same job, fresh session: bit-identical events and winner
        let (_, events2, report2) = run();
        assert_eq!(events, events2);
        assert_eq!(report.best.data, report2.best.data);
    }

    #[test]
    fn island_nsga_job_streams_island_front_events() {
        let session = SharedSession::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .nsga()
            .iterations(4)
            .islands(2)
            .migration_interval(2)
            .seed(5)
            .build()
            .unwrap();
        let mut tags = Vec::new();
        session.run_with(&job, |e| tags.push(tag_of(e))).unwrap();
        // each island runs the full generation count on its subpopulation
        assert_eq!(tags.iter().filter(|t| **t == "island-front").count(), 8);
        assert!(!tags.contains(&"front"), "island jobs use per-island kinds");
        assert!(tags.contains(&"migration"));
        assert_eq!(*tags.last().unwrap(), "finished");
    }

    #[test]
    fn mask_only_job_scores_without_evolving() {
        let session = SharedSession::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .records(60)
            .iterations(0)
            .seed(4)
            .build()
            .unwrap();
        let report = session.run(&job).unwrap();
        assert!(report.outcome.is_scored_only());
        assert_eq!(report.points.len(), report.population_size);
        let best_score = report
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::INFINITY, f64::min);
        let agg = job.evo_config().aggregator;
        assert!((report.best.assessment.score(agg) - best_score).abs() < 1e-12);
    }
}
