//! End-to-end: the real `cdp` binary serving real TCP clients.
//!
//! Proves the subsystem's two contracts at the process boundary:
//!
//! 1. **amortization** — two concurrent clients submitting jobs against
//!    the same original trigger exactly one evaluator preparation
//!    (`SessionStats.preparations == 1`, `hits >= 1`);
//! 2. **determinism** — a wire-submitted job's summary is bit-identical
//!    to the same spec run through [`Session::run`] in-process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

use cdp::pipeline::Session;
use cdp_cli::commands::serve::request;
use cdp_cli::protocol::{DoneSummary, Request, Response};
use cdp_cli::spec::JobSpec;

/// A `cdp serve` child on an ephemeral loopback port, killed on drop if
/// a test fails before its clean `SHUTDOWN`.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    // held open so the server's shutdown headline has somewhere to go
    stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    fn spawn() -> ServerProcess {
        ServerProcess::spawn_with_workers(2)
    }

    fn spawn_with_workers(workers: usize) -> ServerProcess {
        let workers = workers.to_string();
        let mut child = Command::new(env!("CARGO_BIN_EXE_cdp"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", &workers])
            .stdout(Stdio::piped())
            .spawn()
            .expect("cdp binary spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("server banner");
        // "listening on 127.0.0.1:<port> (2 workers)"
        let addr = banner
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unexpected banner `{banner}`"));
        ServerProcess {
            child,
            addr,
            stdout,
        }
    }

    /// `SHUTDOWN`, then assert the process exits cleanly after printing
    /// its cache headline.
    fn shutdown(mut self) {
        let replies = request(self.addr, &Request::Shutdown).expect("shutdown exchange");
        assert!(
            matches!(replies.as_slice(), [Response::Ok(_)]),
            "shutdown ack: {replies:?}"
        );
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "clean exit, got {status}");
        let mut headline = String::new();
        self.stdout.read_line(&mut headline).expect("headline");
        assert!(
            headline.starts_with("server stopped: cache hit rate"),
            "stats headline on shutdown, got `{headline}`"
        );
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

fn done_of(replies: &[Response]) -> &DoneSummary {
    match replies.last() {
        Some(Response::Done(done)) => done,
        other => panic!("job must end in DONE, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_share_one_preparation_and_match_in_process() {
    let server = ServerProcess::spawn();
    let spec = JobSpec::parse("dataset=adult records=100 iters=4 seed=11").unwrap();

    // two concurrent clients, same original, same spec
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| request(server.addr, &Request::Job(spec.clone())).unwrap());
        let hb = scope.spawn(|| request(server.addr, &Request::Job(spec.clone())).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    let (done_a, done_b) = (done_of(&a), done_of(&b));

    // exactly one preparation was paid between the two of them
    let stats = match request(server.addr, &Request::Stats).unwrap().as_slice() {
        [Response::Stats(stats)] => stats.clone(),
        other => panic!("unexpected STATS reply: {other:?}"),
    };
    assert_eq!(stats.preparations, 1, "one hot original, one preparation");
    assert!(stats.hits >= 1, "the racing client must hit: {stats:?}");
    assert_eq!(stats.hits + stats.preparations, 2, "two requests seen");
    assert_eq!(stats.cached, 1);
    assert!(
        u8::from(done_a.cache_hit) + u8::from(done_b.cache_hit) == 1,
        "exactly one client paid the miss: {done_a:?} vs {done_b:?}"
    );

    // wire summaries are bit-identical to the in-process run of the spec
    let report = Session::new().run(&spec.to_job().unwrap()).unwrap();
    let reference = DoneSummary::from_report(&report);
    for done in [done_a, done_b] {
        let mut normalized = done.clone();
        normalized.cache_hit = reference.cache_hit;
        assert_eq!(normalized, reference, "wire vs in-process");
    }

    server.shutdown();
}

#[test]
fn event_stream_arrives_in_stage_order_with_cache_stats() {
    let server = ServerProcess::spawn();
    let spec = JobSpec::parse("dataset=german records=80 iters=5 seed=3").unwrap();
    let replies = request(server.addr, &Request::Job(spec)).unwrap();

    let mut saw_cache_stats = false;
    let mut first_kinds = Vec::new();
    for reply in &replies {
        match reply {
            Response::Event(event) => {
                if let cdp::pipeline::JobEvent::CacheStats(stats) = event {
                    saw_cache_stats = true;
                    assert_eq!(stats.preparations, 1, "this job's own request is counted");
                }
                if first_kinds.len() < 4 {
                    first_kinds.push(cdp_cli::protocol::encode_event(event));
                }
            }
            Response::Done(done) => assert!(!done.cache_hit, "fresh server, fresh original"),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(saw_cache_stats, "CacheStats must stream per job");
    let kinds: Vec<&str> = first_kinds
        .iter()
        .map(|s| s.split(' ').next().unwrap())
        .collect();
    assert_eq!(kinds, ["source", "evaluator", "cache", "population"]);

    server.shutdown();
}

#[test]
fn wire_errors_are_one_line_and_do_not_kill_the_server() {
    let server = ServerProcess::spawn();

    let replies = request(server.addr, &Request::Stats).unwrap();
    match replies.as_slice() {
        [Response::Stats(stats)] => assert_eq!(stats.preparations, 0, "fresh server"),
        other => panic!("unexpected STATS reply: {other:?}"),
    }

    // a malformed spec draws ERR, then the server keeps serving
    let spec = JobSpec::parse("dataset=flare records=60 iters=0 seed=2").unwrap();
    let bad = Request::Job(spec.clone());
    // corrupt the line at the wire level: send a raw unknown verb instead
    {
        use std::io::Write;
        let stream = std::net::TcpStream::connect(server.addr).unwrap();
        let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
        writeln!(writer, "OPTIMIZE HARDER").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(
            matches!(Response::parse(&reply).unwrap(), Response::Err(_)),
            "unknown verb must draw ERR: {reply}"
        );
    }
    let replies = request(server.addr, &bad).unwrap();
    assert!(
        matches!(replies.last(), Some(Response::Done(_))),
        "the server survives bad lines: {replies:?}"
    );

    server.shutdown();
}

#[test]
fn an_oversized_request_line_is_refused_and_the_worker_survives() {
    use std::io::Write;
    // one worker: the next job can only be served if the worker that met
    // the oversized line lived on
    let server = ServerProcess::spawn_with_workers(1);
    {
        let mut stream = std::net::TcpStream::connect(server.addr).unwrap();
        // 1 MiB with no newline; the server stops reading after 64 KiB, so
        // the write may fail once it drops the connection
        let _ = stream.write_all(&vec![b'x'; 1 << 20]);
        let mut reply = String::new();
        if BufReader::new(stream).read_line(&mut reply).unwrap_or(0) > 0 {
            assert_eq!(
                Response::parse(&reply).unwrap(),
                Response::Err("request line too long".into())
            );
        }
    }

    let spec = JobSpec::parse("dataset=german records=60 iters=2 seed=4").unwrap();
    let replies = request(server.addr, &Request::Job(spec.clone())).unwrap();
    let reference = DoneSummary::from_report(&Session::new().run(&spec.to_job().unwrap()).unwrap());
    assert_eq!(done_of(&replies), &reference, "served after the bad client");

    server.shutdown();
}
