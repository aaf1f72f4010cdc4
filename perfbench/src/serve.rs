//! The server workload: `cdp serve --workers 2` as a child process and two
//! client connections in a closed loop over loopback.
//!
//! Every job is `dataset=german mode=nsga gens=60` at one seed, so the
//! server holds one hot original; `xprob` steps per job, so no two specs
//! are alike. The first (cold) job of a fresh server is set-up.

use std::error::Error;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cdp::dataset::generators::{DatasetKind, GeneratorConfig};
use cdp::pipeline::{JobEvent, Session};
use cdp_cli::protocol::{DoneSummary, Request, Response};
use cdp_cli::spec::JobSpec;

use crate::host::{self, HostTimes};
use crate::report::{EndToEnd, Outcome, PerLayer};
use crate::stats::{median, secs};
use crate::timeline::{Stage, Timeline};
use crate::{layers, seeds, Opts};

const CLIENTS: usize = 2;
const GENERATIONS: usize = 60;
/// Servers started per run; `setup_s` is the median of their set-ups (a
/// lone cold job is short and noisy, and a set-up costs only ~0.2 s).
const SETUP_REPS: usize = 7;
/// Leading jobs whose fronts give the quality medians; every run
/// completes them, so those medians depend on the seed alone.
const QUALITY_JOBS: usize = 20;
/// Spec index of the cold set-up jobs, apart from the timed ones.
const COLD: usize = 1 << 20;

/// The job seed, and with it the original: one for every run, so that
/// runs differ only in their `xprob` sequence.
const JOB_SEED: u64 = 42;

/// The job with index `j`: one seed for all, a distinct `xprob` each.
/// Steps of 618/10^4 (mod 0.1) spread any window of jobs evenly over
/// [0.45, 0.55) and repeat only after 500 jobs.
fn spec(offset: usize, j: usize) -> Result<JobSpec, String> {
    let xprob = (4500 + (offset + 618 * j) % 1000) as f64 / 10_000.0;
    JobSpec::parse(&format!(
        "dataset=german mode=nsga gens={GENERATIONS} seed={JOB_SEED} xprob={xprob}"
    ))
    .map_err(|e| e.to_string())
}

/// A running `cdp serve`; dropping it kills the process if it still runs
/// and waits for it.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path) -> Result<Server, Box<dyn Error>> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("no stdout from cdp serve".into());
        };
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // "listening on 127.0.0.1:PORT (2 workers)"
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected first line from cdp serve: {line:?}"))?;
        Ok(server)
    }

    /// Ask the server to stop and wait for it to exit.
    fn shutdown(mut self) -> Result<(), Box<dyn Error>> {
        let mut client = Client::connect(self.addr)?;
        match client.request(&Request::Shutdown)? {
            Response::Ok(_) => {}
            other => return Err(format!("SHUTDOWN answered {other:?}").into()),
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err("cdp serve did not exit after SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One served job as the client saw it.
struct Served {
    index: usize,
    traced: bool,
    latency: Duration,
    first_event: Duration,
    first_progress: Duration,
    events: usize,
    bytes: usize,
    decode: Duration,
    /// Traced jobs only: stage timestamps, taken client-side.
    timeline: Timeline,
    done: DoneSummary,
    hypervolume: f64,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Read one line into `self.line`; returns its byte count.
    fn read(&mut self) -> Result<usize, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("the server hung up".into()),
            Ok(n) => Ok(n),
            Err(e) => Err(e.to_string()),
        }
    }

    /// A request answered by one line (`STATS`, `SHUTDOWN`).
    fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request).map_err(|e| e.to_string())?;
        self.read()?;
        Response::parse(&self.line).map_err(|e| e.to_string())
    }

    /// Submit one job and read its stream to the terminal line. Untraced,
    /// only the line kinds are looked at until `DONE`; traced, every line
    /// is decoded and stage events are timestamped.
    fn job(&mut self, index: usize, spec: &JobSpec, traced: bool) -> Result<Served, String> {
        self.send(&Request::Job(spec.clone()))
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (mut events, mut bytes, mut decode) = (0, 0, Duration::ZERO);
        let (mut first_event, mut first_progress) = (None, None);
        let mut timeline = Timeline::default();
        let mut last_front = String::new();
        loop {
            bytes += self.read()?;
            let t = t0.elapsed();
            let line = self.line.trim_end();
            if let Some(event) = line.strip_prefix("EVENT ") {
                events += 1;
                first_event.get_or_insert(t);
                if event.starts_with("front ") {
                    first_progress.get_or_insert(t);
                    last_front.clear();
                    last_front.push_str(line);
                }
                if traced {
                    let td = Instant::now();
                    let parsed = Response::parse(line).map_err(|e| e.to_string())?;
                    decode += td.elapsed();
                    if let Some(stage) = match &parsed {
                        Response::Event(event) => Stage::of(event),
                        _ => None,
                    } {
                        timeline.push(stage, t);
                    }
                }
                continue;
            }
            let td = Instant::now();
            let parsed = Response::parse(line).map_err(|e| e.to_string())?;
            if traced {
                decode += td.elapsed();
            }
            let done = match parsed {
                Response::Done(done) => done,
                Response::Err(msg) => return Err(format!("ERR {msg}")),
                other => return Err(format!("unexpected reply {other:?}")),
            };
            let hypervolume = match Response::parse(&last_front) {
                Ok(Response::Event(JobEvent::FrontAdvanced { hypervolume, .. })) => hypervolume,
                _ => return Err("the job streamed no front".into()),
            };
            return Ok(Served {
                index,
                traced,
                latency: t,
                first_event: first_event.unwrap_or(t),
                first_progress: first_progress.unwrap_or(t),
                events,
                bytes,
                decode,
                timeline,
                done,
                hypervolume,
            });
        }
    }
}

/// Spawn a server and run its first (cold) job; returns the server and
/// the spawn-to-`DONE` time.
fn start_server(bin: &Path, cold: &JobSpec) -> Result<(Server, Duration), Box<dyn Error>> {
    let t = Instant::now();
    let server = Server::spawn(bin)?;
    let served = Client::connect(server.addr)?.job(COLD, cold, false)?;
    if served.done.cache_hit {
        return Err("the cold job hit a cache".into());
    }
    Ok((server, t.elapsed()))
}

pub fn run(bin: &Path, opts: &Opts) -> Result<Outcome, Box<dyn Error>> {
    let host0 = HostTimes::now()?;
    let mut out = Outcome::default();
    let offset = seeds::derive(opts.seed, seeds::JOBS) as usize;
    let cold = spec(offset, COLD)?;

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (started, t) = start_server(bin, &cold)?;
        setup.push(t);
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let pid = server.child.id().to_string();

    // the timed loop: two connections, each with one job in flight
    let budget = Duration::from_secs_f64(opts.seconds);
    let next = AtomicUsize::new(0);
    let cpu0 = host::cpu_seconds(&pid)?;
    let start = Instant::now();
    let per_client: Vec<Vec<Result<Served, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut results = Vec::new();
                    let mut client = match Client::connect(server.addr) {
                        Ok(client) => client,
                        Err(e) => {
                            results.push(Err(e.to_string()));
                            return results;
                        }
                    };
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= QUALITY_JOBS && start.elapsed() >= budget {
                            return results;
                        }
                        let result = spec(offset, j)
                            .and_then(|s| client.job(j, &s, opts.trace && j % 2 == 1));
                        let broken = result.is_err();
                        results.push(result);
                        if broken {
                            return results; // the connection state is unknown
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("client thread panicked".into())])
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds(&pid)? - cpu0;

    let mut stats_client = Client::connect(server.addr)?;
    let stats = match stats_client.request(&Request::Stats)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("STATS answered {other:?}").into()),
    };
    drop(stats_client);
    let hwm = host::vm_hwm_bytes(&pid)?;
    server.shutdown()?;

    // verification: each connection's first job against an in-process run
    // of the same spec; every job must be a hot-cache, full-length run
    let mut served = Vec::new();
    let mut reference = None;
    for results in per_client {
        let mut first = true;
        for result in results {
            let record = match result {
                Ok(record) => record,
                Err(e) => {
                    out.check("served job", Err(e));
                    continue;
                }
            };
            let mut verdict = if record.done.iterations != GENERATIONS || !record.done.cache_hit {
                Err(format!(
                    "job {} was not a hot {GENERATIONS}-generation run",
                    record.index
                ))
            } else {
                Ok(())
            };
            if first && verdict.is_ok() {
                let job = spec(offset, record.index)?.to_job()?;
                let report = Session::new().run(&job)?;
                let mut expected = DoneSummary::from_report(&report);
                expected.cache_hit = record.done.cache_hit;
                if expected != record.done {
                    verdict = Err(format!(
                        "job {} DONE {:?} differs from the in-process {expected:?}",
                        record.index, record.done
                    ));
                }
                reference.get_or_insert((job, report));
            }
            first = false;
            out.check(&format!("served job {}", record.index), verdict);
            served.push(record);
        }
    }
    if stats.preparations != 1 {
        out.check(
            "one shared preparation",
            Err(format!("{} preparations", stats.preparations)),
        );
    }
    let (job, report) = reference.ok_or("no served job verified")?;

    out.note(format!(
        "input: {} rows, {} protections, NSGA-II {GENERATIONS} generations, closed loop \
         with {CLIENTS} clients, {} jobs",
        report.table.n_rows(),
        report.population_size,
        served.len()
    ));
    out.note(format!(
        "host: steal_frac {:.4}, nproc {}",
        HostTimes::now()?.steal_frac_since(&host0),
        host::nproc()
    ));
    let quality: Vec<&Served> = served.iter().filter(|s| s.index < QUALITY_JOBS).collect();
    let n = served.len().max(1) as f64;

    if !opts.trace {
        EndToEnd {
            setup_s: median(&secs(&setup)),
            job_latencies_s: served.iter().map(|s| s.latency.as_secs_f64()).collect(),
            jobs_per_s: served.len() as f64 / wall,
            cpu_per_job_s: cpu / n,
            first_progress_s: served
                .iter()
                .map(|s| s.first_progress.as_secs_f64())
                .collect(),
            peak_mem_bytes: hwm as f64,
            winner_score: median(
                &quality
                    .iter()
                    .map(|s| s.done.il().max(s.done.dr()))
                    .collect::<Vec<_>>(),
            ),
            front_hv: median(&quality.iter().map(|s| s.hypervolume).collect::<Vec<_>>()),
            success_rate: (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        }
        .report(&mut out);
        return Ok(out);
    }

    let traced: Vec<&Served> = served.iter().filter(|s| s.traced).collect();
    let of_traced = |f: &dyn Fn(&Served) -> f64| -> f64 {
        median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let untraced_p50 = median(
        &served
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.latency.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let config = GeneratorConfig::seeded(JOB_SEED);
    let mut generate = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        drop(DatasetKind::German.generate(&config));
        generate.push(t.elapsed());
    }
    let t = Instant::now();
    report.published_best()?;
    let publish = t.elapsed();
    let (probe, figures) = layers::probe(&job, seeds::derive(opts.seed, seeds::PROBE))?;
    let t = Instant::now();
    cdp::privacy::report::audit(&report.best.data, Some(&probe.original), &[])?;
    let audit = t.elapsed();
    out.note(format!(
        "input: original has {} distinct patterns, population {}",
        figures.original_patterns,
        probe.population.len()
    ));

    PerLayer {
        dataset_generate_s: median(&secs(&generate)),
        pipeline_publish_s: publish.as_secs_f64(),
        pipeline_cache_hit_rate: stats.hit_rate().unwrap_or(0.0),
        core_evals_full: of_traced(&|s| s.done.evals_full as f64),
        core_evals_incremental: of_traced(&|s| s.done.evals_incremental as f64),
        privacy_audit_s: audit.as_secs_f64(),
        cli_first_event_s: of_traced(&|s| s.first_event.as_secs_f64()),
        cli_events_per_job: median(&served.iter().map(|s| s.events as f64).collect::<Vec<_>>()),
        cli_wire_bytes_per_job: median(&served.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
        cli_decode_s: of_traced(&|s| s.decode.as_secs_f64()),
        host_steal_frac: HostTimes::now()?.steal_frac_since(&host0),
        trace_overhead_ratio: of_traced(&|s| s.latency.as_secs_f64()) / untraced_p50,
        ..PerLayer::from_timelines(&traced.iter().map(|s| &s.timeline).collect::<Vec<_>>())
    }
    .report(&figures, &mut out);
    Ok(out)
}
