//! A minimal `--flag value` argument parser.
//!
//! The workspace deliberately avoids an argument-parsing dependency; the
//! CLI grammar is flat (`cdp <command> --flag value …`), so ~100 lines
//! cover it, including `--flag=value`, boolean flags, and typed accessors.

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::error::{CliError, Result};

/// Parsed flags of one subcommand invocation.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse `--key value` / `--key=value` / bare `--switch` sequences.
    /// Positional arguments are rejected (the command name is consumed by
    /// the dispatcher before this runs), and so is a flag given twice.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self> {
        let mut flags = BTreeMap::new();
        let mut iter = argv.into_iter().peekable();
        while let Some(token) = iter.next() {
            let Some(stripped) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            if stripped.is_empty() {
                return Err(CliError::Usage("empty flag `--`".into()));
            }
            let (key, value) = if let Some((key, value)) = stripped.split_once('=') {
                (key.to_string(), value.to_string())
            } else if iter
                .peek()
                .map(|next| !next.starts_with("--"))
                .unwrap_or(false)
            {
                (stripped.to_string(), iter.next().expect("peeked"))
            } else {
                // bare switch
                (stripped.to_string(), "true".to_string())
            };
            if flags.contains_key(&key) {
                return Err(CliError::Usage(format!("flag --{key} given twice")));
            }
            flags.insert(key, value);
        }
        Ok(Args { flags })
    }

    /// Raw flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required flag value.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Parse a flag into `T`, with a default when absent.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse `{raw}`"))),
        }
    }

    /// Parse an optional flag into `T`; absent flags yield `None`.
    pub fn get_parse<T: FromStr>(&self, key: &str) -> Result<Option<T>> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse `{raw}`"))),
        }
    }

    /// Comma-separated list flag.
    pub fn list(&self, key: &str) -> Option<Vec<String>> {
        self.get(key).map(|raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
    }

    /// Reject unknown flags (catches typos early).
    pub fn expect_only(&self, known: &[&str]) -> Result<()> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key} (expected one of: {})",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn key_value_pairs() {
        let a = parse(&["--seed", "42", "--out", "x.csv"]);
        assert_eq!(a.get("seed"), Some("42"));
        assert_eq!(a.get("out"), Some("x.csv"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn equals_form() {
        let a = parse(&["--seed=7", "--method=pram:0.2"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("method"), Some("pram:0.2"));
    }

    #[test]
    fn bare_switch_records_true() {
        let a = parse(&["--verbose", "--seed", "1"]);
        assert_eq!(a.get("verbose"), Some("true"));
        assert_eq!(a.get("seed"), Some("1"));
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["--k", "5"]);
        assert_eq!(a.get_or("k", 2usize).unwrap(), 5);
        assert_eq!(a.get_or("missing", 2usize).unwrap(), 2);
        assert_eq!(a.get_parse::<usize>("k").unwrap(), Some(5));
        assert_eq!(a.get_parse::<usize>("missing").unwrap(), None);
        let bad = parse(&["--k", "five"]);
        assert!(bad.get_or::<usize>("k", 0).is_err());
        assert!(bad.get_parse::<usize>("k").is_err());
    }

    #[test]
    fn list_flag() {
        let a = parse(&["--attrs", "A, B,C"]);
        assert_eq!(a.list("attrs").unwrap(), vec!["A", "B", "C"]);
        assert!(a.list("none").is_none());
    }

    #[test]
    fn positional_rejected() {
        assert!(Args::parse(vec!["stray".to_string()]).is_err());
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }

    #[test]
    fn unknown_flag_detection() {
        let a = parse(&["--seed", "1", "--typo", "x"]);
        assert!(a.expect_only(&["seed"]).is_err());
        assert!(a.expect_only(&["seed", "typo"]).is_ok());
    }

    #[test]
    fn repeated_flag_is_rejected_by_name() {
        for tokens in [
            &["--seed", "1", "--seed", "2"][..],
            &["--seed=1", "--seed=2"],
            &["--seed", "1", "--seed=2"],
            &["--verbose", "--verbose"],
        ] {
            let err = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{tokens:?}");
            let flag = tokens[0]
                .trim_start_matches("--")
                .split('=')
                .next()
                .unwrap();
            assert!(err.to_string().contains(&format!("--{flag}")), "{err}");
        }
    }

    #[test]
    fn missing_required_flag() {
        let a = parse(&[]);
        assert!(matches!(a.require("input"), Err(CliError::Usage(_))));
    }
}
