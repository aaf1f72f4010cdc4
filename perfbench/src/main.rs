//! End-to-end benchmark of the protection pipeline.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-adult-1k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `paper-adult-1k` and `adult-100k-audit` run `ProtectionJob`s
//! in this process; `serve-german-nsga` builds the `cdp` binary and drives
//! a `cdp serve` child over loopback. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones. The last line of standard
//! output is the JSON result; `perfbench/README.md` defines every metric.

mod alloc;
mod batch;
mod host;
mod layers;
mod report;
mod seeds;
mod serve;
mod stats;
mod timeline;

use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Build the `cdp` binary of the repository this runs in, with the
/// repository's own profile, and return its path.
fn build_cdp() -> Result<PathBuf, Box<dyn Error>> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "cdp-cli",
            "--bin",
            "cdp",
        ])
        .status()?;
    if !status.success() {
        return Err(format!("building cdp failed: {status}").into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Ok(PathBuf::from(target).join("release").join("cdp"))
}

fn run(opts: &Opts) -> Result<report::Outcome, Box<dyn Error>> {
    // every workload builds the server binary, so whichever runs first in
    // a fresh checkout pays the whole build
    let cdp = build_cdp()?;
    match opts.workload.as_str() {
        "paper-adult-1k" => batch::run(&batch::PAPER_ADULT_1K, opts),
        "adult-100k-audit" => batch::run(&batch::ADULT_100K_AUDIT, opts),
        "serve-german-nsga" => serve::run(&cdp, opts),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
