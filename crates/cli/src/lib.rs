//! `cdp_cli` — the library behind the `cdp` binary.
//!
//! Everything the command-line tool does lives here so integration tests
//! (and the `cdp serve` protocol round-trip suite) can exercise it
//! in-process: argument parsing ([`args`]), the `key=value` job grammar
//! ([`spec`]), the line-delimited server protocol ([`protocol`]), the
//! subcommands ([`commands`]) and the shared error type ([`error`]). The
//! binary in `main.rs` is a thin `dispatch` wrapper.

pub mod args;
pub mod commands;
pub mod data;
pub mod error;
pub mod protocol;
pub mod spec;

use args::Args;
use error::{CliError, Result};

/// Top-level `cdp help` text.
pub const TOP_USAGE: &str = "\
cdp — categorical data protection toolkit

commands:
  generate   write a synthetic evaluation dataset as CSV
  protect    mask a CSV file with one SDC method
  evaluate   information-loss / disclosure-risk measures of a masked file
  analyze    privacy-model audit (k-anonymity, risk, diversity)
  optimize   evolutionary optimization of a protection population
  hierarchy  export editable generalization-hierarchy files
  serve      protection server: JobSpec lines over TCP, streamed events
  help       this text (or `cdp help <command>`)

run `cdp help <command>` for flags.";

/// The usage text of a subcommand, if `command` names one.
pub fn usage_of(command: &str) -> Option<String> {
    match command {
        "generate" => Some(commands::generate::USAGE.to_string()),
        "protect" => Some(commands::protect::usage()),
        "evaluate" => Some(commands::evaluate::USAGE.to_string()),
        "analyze" => Some(commands::analyze::USAGE.to_string()),
        "optimize" => Some(commands::optimize::USAGE.to_string()),
        "hierarchy" => Some(commands::hierarchy::USAGE.to_string()),
        "serve" => Some(commands::serve::USAGE.to_string()),
        _ => None,
    }
}

/// Route one invocation to its subcommand.
///
/// # Errors
/// Whatever the subcommand raises; unknown commands are
/// [`CliError::Usage`].
pub fn dispatch(command: &str, rest: Vec<String>) -> Result<()> {
    match command {
        "generate" => commands::generate::run(&Args::parse(rest)?),
        "protect" => commands::protect::run(&Args::parse(rest)?),
        "evaluate" => commands::evaluate::run(&Args::parse(rest)?),
        "analyze" => commands::analyze::run(&Args::parse(rest)?),
        "optimize" => commands::optimize::run(&Args::parse(rest)?),
        "hierarchy" => commands::hierarchy::run(&Args::parse(rest)?),
        "serve" => commands::serve::run(&Args::parse(rest)?),
        "help" | "--help" | "-h" => {
            match rest.first().and_then(|c| usage_of(c)) {
                Some(text) => println!("{text}"),
                None => println!("{TOP_USAGE}"),
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{TOP_USAGE}"
        ))),
    }
}
