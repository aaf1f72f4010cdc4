//! `cdp serve` — the protection server: job specs in, event streams out.
//!
//! A long-lived TCP service over one [`SharedSession`]: every worker
//! thread runs jobs against the same shared evaluator cache, so N
//! concurrent clients submitting jobs for the same original trigger
//! exactly **one** preparation — the cache hit rate (`STATS`) is the
//! headline metric. The wire format is the line-delimited grammar of
//! [`crate::protocol`]; job specs are the CLI's canonical `key=value`
//! grammar ([`JobSpec`]), so any `cdp optimize --job` line can be sent to
//! a server verbatim.
//!
//! The transport is hand-rolled over `std::net` — no HTTP dependency, a
//! fixed pool of accept workers (each connection is served start to
//! finish by one worker; concurrency = many connections). Determinism
//! holds across the wire: a served job produces the bit-identical
//! [`DoneSummary`] to [`SharedSession::run`] on the same spec, which `--once`
//! smoke mode (and the e2e suite) asserts.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use cdp::pipeline::{SessionStats, SharedSession};

use crate::args::Args;
use crate::error::{CliError, Result};
use crate::protocol::{DoneSummary, Request, Response};
use crate::spec::JobSpec;

/// Usage text.
pub const USAGE: &str = "\
cdp serve [--addr <host:port>]  listen address (default 127.0.0.1:7171;
                                port 0 picks a free one)
          [--workers <n>]       fixed worker-pool size (default: CPU
                                cores, clamped to 2..=8)
          [--once]              smoke mode: serve two concurrent clients
                                submitting the same job over loopback,
                                assert one shared preparation and a
                                bit-identical in-process rerun, then exit
          [--job '<spec>']      smoke-mode job (canonical key=value spec;
                                default a mask-and-score Adult job)

Line-delimited protocol (UTF-8, one request per line):
  JOB <key=value spec>   run a job; streams `EVENT <kind> <fields>` lines
                         (one per JobEvent) and ends with one `DONE
                         <winner IL/DR breakdown, eval counts, cache_hit>`
                         or `ERR <message>` line
  STATS                  one `STATS <preparations/hits/cached/
                         approx_bytes>` line for the shared cache, plus
                         one `entry=rows:attrs:hits:bytes:prepared` field
                         of per-slot detail per cached original
  SHUTDOWN               acknowledge with `OK bye` and stop the server

A request line longer than 64 KiB draws `ERR request line too long` and
the connection is closed; the server keeps serving other clients.

Jobs served over the wire are bit-identical to `SharedSession::run` on the
same spec — same seed, same RNG stream, same winner.";

/// Longest request line the server reads, newline excluded. A longer line
/// draws `ERR request line too long` and the connection is dropped, so a
/// client cannot make a worker buffer an unbounded line.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Fallback smoke-mode job: mask-and-score (no evolution), small enough
/// to finish in well under a second, big enough that preparation cost is
/// observable.
const SMOKE_SPEC: &str = "dataset=adult records=120 iters=0 seed=42";

/// Run the command.
pub fn run(args: &Args) -> Result<()> {
    args.expect_only(&["addr", "workers", "once", "job"])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let workers = args.get_or("workers", default_workers())?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    let once = args.get_parse::<bool>("once")?.unwrap_or(false);
    if once {
        return run_once(addr, args.get("job"));
    }
    if args.get("job").is_some() {
        return Err(CliError::Usage("--job applies to --once smoke mode".into()));
    }

    let listener = TcpListener::bind(addr)?;
    println!(
        "listening on {} ({workers} workers)",
        listener.local_addr()?
    );
    let session = SharedSession::new();
    let stop = AtomicBool::new(false);
    serve_on(&listener, workers, &session, &stop)?;
    let stats = session.stats();
    println!("server stopped: {}", stats_headline(&stats));
    Ok(())
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// The human-readable cache summary printed at shutdown and by `--once`:
/// the headline counters, then one line of per-slot detail per cached
/// entry ([`cdp::pipeline::CacheEntryStats`]).
fn stats_headline(stats: &SessionStats) -> String {
    let mut out = format!(
        "cache hit rate {} (preparations={}, hits={}, cached={}, \
         ~{} KiB resident)",
        match stats.hit_rate() {
            Some(rate) => format!("{:.0}%", rate * 100.0),
            None => "n/a".into(),
        },
        stats.preparations,
        stats.hits,
        stats.cached,
        stats.approx_bytes / 1024,
    );
    for (i, e) in stats.entries.iter().enumerate() {
        out.push_str(&format!(
            "\n  slot {i}: {} rows x {} attrs, hits={}, ~{} KiB{}",
            e.rows,
            e.attrs,
            e.hits,
            e.approx_bytes / 1024,
            if e.prepared { "" } else { " (preparing)" },
        ));
    }
    out
}

/// Accept-and-serve loop: `workers` threads block on `accept` and each
/// serves its connection start to finish. Returns after a `SHUTDOWN`
/// request (the receiving worker wakes its siblings with dummy connects).
fn serve_on(
    listener: &TcpListener,
    workers: usize,
    session: &SharedSession,
    stop: &AtomicBool,
) -> Result<()> {
    let local = listener.local_addr()?;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    if stop.load(Ordering::SeqCst) {
                        break; // a wake-up connect, not a client
                    }
                    if handle_connection(stream, session) {
                        stop.store(true, Ordering::SeqCst);
                        for _ in 0..workers {
                            let _ = TcpStream::connect(local);
                        }
                        break;
                    }
                }
            });
        }
    });
    Ok(())
}

/// Serve one connection until the client hangs up. Returns `true` when
/// the client requested a server shutdown.
fn handle_connection(stream: TcpStream, session: &SharedSession) -> bool {
    // every event is one small flushed write: without NODELAY, Nagle holds
    // each one back until the client's delayed ACK of the previous one
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf) {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let _ = send(&mut writer, &Response::Err("request line too long".into()));
                break; // the rest of the line is unread: drop the connection
            }
            Ok(RequestLine::End) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match Request::parse(line) {
            Ok(Request::Job(spec)) => stream_job(&spec, session, &mut writer),
            Ok(Request::Stats) => send(&mut writer, &Response::Stats(session.stats())),
            Ok(Request::Shutdown) => {
                let _ = send(&mut writer, &Response::Ok("bye".into()));
                return true;
            }
            Err(e) => send(&mut writer, &Response::Err(e.to_string())),
        };
        if outcome.is_err() {
            break; // client gone; drop the connection, keep the worker
        }
    }
    false
}

/// One read from a connection by [`read_request_line`].
enum RequestLine<'a> {
    /// A request line, line ending stripped as [`BufRead::lines`] does.
    Line(&'a str),
    /// A line over [`MAX_REQUEST_LINE`]; at most one byte more than the
    /// cap was read.
    TooLong,
    /// The client closed its side.
    End,
}

/// Read one `\n`-terminated request line of at most [`MAX_REQUEST_LINE`]
/// bytes into `buf`. A line that is not UTF-8 is an error.
fn read_request_line<'a, R: BufRead>(
    reader: &mut R,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<RequestLine<'a>> {
    buf.clear();
    if reader
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_until(b'\n', buf)?
        == 0
    {
        return Ok(RequestLine::End);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    std::str::from_utf8(buf)
        .map(RequestLine::Line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Run one job, streaming each [`cdp::pipeline::JobEvent`] as an `EVENT`
/// line, then the terminal `DONE`/`ERR` line.
fn stream_job<W: Write>(
    spec: &JobSpec,
    session: &SharedSession,
    out: &mut W,
) -> std::io::Result<()> {
    let job = match spec.to_job() {
        Ok(job) => job,
        Err(e) => return send(out, &Response::Err(e.to_string())),
    };
    let mut write_err: Option<std::io::Error> = None;
    let result = session.run_with(&job, |event| {
        // a vanished client must not abort the job mid-run (the cache
        // still profits); remember the failure and go quiet
        if write_err.is_none() {
            if let Err(e) = send(out, &Response::Event(event.clone())) {
                write_err = Some(e);
            }
        }
    });
    if let Some(e) = write_err {
        return Err(e);
    }
    match result {
        Ok(report) => send(out, &Response::Done(DoneSummary::from_report(&report))),
        Err(e) => send(out, &Response::Err(e.to_string())),
    }
}

fn send<W: Write>(out: &mut W, response: &Response) -> std::io::Result<()> {
    writeln!(out, "{}", response.to_line())?;
    out.flush() // events must stream, not sit in the BufWriter
}

/// One client exchange: connect, send `request`, read responses until the
/// terminal line (`DONE`/`ERR`/`STATS`/`OK`). Shared by `--once`, the
/// e2e suite, and anyone scripting a client in Rust.
///
/// # Errors
/// Connection failures, or a response line the protocol cannot parse.
pub fn request(addr: SocketAddr, request: &Request) -> Result<Vec<Response>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    writeln!(writer, "{}", request.to_line())?;
    writer.flush()?;
    let reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = Response::parse(&line)?;
        let terminal = !matches!(response, Response::Event(_));
        responses.push(response);
        if terminal {
            break;
        }
    }
    Ok(responses)
}

/// The terminal [`DoneSummary`] of a `JOB` exchange.
///
/// # Errors
/// [`CliError::Server`] when the exchange ended in `ERR` or hung up
/// without a terminal line.
fn done_of(responses: &[Response]) -> Result<DoneSummary> {
    match responses.last() {
        Some(Response::Done(done)) => Ok(done.clone()),
        Some(Response::Err(msg)) => Err(CliError::Server(format!("job failed: {msg}"))),
        other => Err(CliError::Server(format!(
            "job ended without DONE: {other:?}"
        ))),
    }
}

/// `--once` smoke mode: spin up the server on `addr`, run two concurrent
/// clients submitting the *same* job, and verify the subsystem's two
/// contracts end to end —
///
/// 1. **amortization**: the hot original is prepared exactly once
///    (`preparations == 1`, `hits >= 1`);
/// 2. **determinism**: both wire summaries are bit-identical to
///    [`SharedSession::run`] on the same spec, in-process.
fn run_once(addr: &str, spec_text: Option<&str>) -> Result<()> {
    let spec = JobSpec::parse(spec_text.unwrap_or(SMOKE_SPEC))?;
    let canonical = spec.to_spec_string();

    // the in-process reference: same spec through a fresh session
    let reference = DoneSummary::from_report(&SharedSession::new().run(&spec.to_job()?)?);

    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    println!("smoke: listening on {local}, job `{canonical}`");
    let session = SharedSession::new();
    let stop = AtomicBool::new(false);

    let (replies, stats) = std::thread::scope(|scope| -> Result<_> {
        let server = {
            let (session, stop) = (&session, &stop);
            scope.spawn(move || serve_on(&listener, 2, session, stop))
        };
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let spec = spec.clone();
                scope.spawn(move || request(local, &Request::Job(spec)))
            })
            .collect();
        let mut replies = Vec::new();
        for client in clients {
            replies.push(client.join().expect("smoke client thread")?);
        }
        let stats_reply = request(local, &Request::Stats)?;
        request(local, &Request::Shutdown)?;
        server.join().expect("server thread")?;
        Ok((replies, stats_reply))
    })?;

    let fail = |msg: String| CliError::Server(format!("smoke failed: {msg}"));
    let dones: Vec<DoneSummary> = replies.iter().map(|r| done_of(r)).collect::<Result<_>>()?;
    let stats = match stats.as_slice() {
        [Response::Stats(stats)] => stats.clone(),
        other => return Err(fail(format!("unexpected STATS reply: {other:?}"))),
    };
    if stats.preparations != 1 {
        return Err(fail(format!(
            "expected exactly one shared preparation, got {}",
            stats.preparations
        )));
    }
    if stats.hits == 0 {
        return Err(fail("expected at least one cache hit".into()));
    }
    for done in &dones {
        let mut normalized = done.clone();
        normalized.cache_hit = reference.cache_hit;
        if normalized != reference {
            return Err(fail(format!(
                "wire summary diverged from the in-process run:\n  wire:     {done:?}\n  in-proc:  {reference:?}"
            )));
        }
    }
    println!(
        "smoke: ok — 2 concurrent clients, winner `{}` (IL {:.2}, DR {:.2}), {}",
        dones[0].name,
        dones[0].il(),
        dones[0].dr(),
        stats_headline(&stats),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bind an ephemeral loopback listener + fresh session for one test.
    fn test_server() -> (TcpListener, SocketAddr, SharedSession) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr, SharedSession::new())
    }

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn once_smoke_mode_verifies_both_contracts() {
        run(&args(&[
            "--once",
            "--addr",
            "127.0.0.1:0",
            "--job",
            "dataset=german records=60 iters=0 seed=5",
        ]))
        .unwrap();
    }

    #[test]
    fn repeat_job_reports_a_cache_hit_and_identical_summary() {
        let (listener, addr, session) = test_server();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| serve_on(&listener, 2, &session, &stop).unwrap());

            let spec = JobSpec::parse("dataset=german records=60 iters=3 seed=8").unwrap();
            let first = done_of(&request(addr, &Request::Job(spec.clone())).unwrap()).unwrap();
            let second = done_of(&request(addr, &Request::Job(spec)).unwrap()).unwrap();
            assert!(!first.cache_hit, "first job prepares");
            assert!(second.cache_hit, "second job hits the cache");
            let mut normalized = second.clone();
            normalized.cache_hit = first.cache_hit;
            assert_eq!(normalized, first, "reruns are bit-identical");

            let stats = request(addr, &Request::Stats).unwrap();
            match stats.as_slice() {
                [Response::Stats(s)] => {
                    assert_eq!((s.preparations, s.hits), (1, 1));
                    assert_eq!(s.hit_rate(), Some(0.5));
                    // per-slot detail crosses the wire too
                    assert_eq!(s.entries.len(), 1);
                    assert_eq!(s.entries[0].hits, 1);
                    assert_eq!(s.entries[0].rows, 60);
                    assert!(s.entries[0].prepared);
                }
                other => panic!("unexpected STATS reply: {other:?}"),
            }
            request(addr, &Request::Shutdown).unwrap();
        });
    }

    #[test]
    fn job_exchange_streams_events_in_order() {
        let (listener, addr, session) = test_server();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| serve_on(&listener, 1, &session, &stop).unwrap());

            let spec = JobSpec::parse("dataset=flare records=60 iters=2 seed=3").unwrap();
            let responses = request(addr, &Request::Job(spec)).unwrap();
            let kinds: Vec<String> = responses
                .iter()
                .map(|r| match r {
                    Response::Event(e) => crate::protocol::encode_event(e)
                        .split(' ')
                        .next()
                        .unwrap()
                        .to_string(),
                    Response::Done(_) => "done".into(),
                    other => panic!("unexpected response {other:?}"),
                })
                .collect();
            assert_eq!(&kinds[..4], &["source", "evaluator", "cache", "population"]);
            assert_eq!(kinds[kinds.len() - 2], "finished");
            assert_eq!(kinds[kinds.len() - 1], "done");
            assert!(kinds.iter().any(|k| k == "generation"));

            request(addr, &Request::Shutdown).unwrap();
        });
    }

    #[test]
    fn bad_lines_get_err_replies_and_the_connection_survives() {
        let (listener, addr, session) = test_server();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| serve_on(&listener, 1, &session, &stop).unwrap());

            // one connection, several bad requests, then a good one; the
            // block drops the connection so the single worker is free to
            // accept the SHUTDOWN exchange afterwards
            {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = BufWriter::new(stream.try_clone().unwrap());
                let mut reader = BufReader::new(stream);
                let mut exchange = |line: &str| -> Response {
                    writeln!(writer, "{line}").unwrap();
                    writer.flush().unwrap();
                    let mut reply = String::new();
                    loop {
                        reply.clear();
                        reader.read_line(&mut reply).unwrap();
                        let response = Response::parse(&reply).unwrap();
                        if !matches!(response, Response::Event(_)) {
                            return response;
                        }
                    }
                };
                for bad in ["HELLO", "JOB dataset=iris", "JOB records=60"] {
                    let reply = exchange(bad);
                    assert!(matches!(reply, Response::Err(_)), "{bad}: {reply:?}");
                }
                let good = exchange("JOB dataset=german records=60 iters=0 seed=5");
                assert!(matches!(good, Response::Done(_)), "{good:?}");
            }

            request(addr, &Request::Shutdown).unwrap();
        });
    }

    #[test]
    fn flag_validation() {
        assert!(run(&args(&["--workers", "0"])).is_err());
        assert!(
            run(&args(&["--job", "dataset=adult"])).is_err(),
            "--job needs --once"
        );
        assert!(run(&args(&["--port", "1"])).is_err(), "unknown flag");
        assert!(
            matches!(run(&args(&["--cache-dir", "x"])), Err(CliError::Usage(_))),
            "there is no snapshot cache to point at a directory"
        );
    }
}
