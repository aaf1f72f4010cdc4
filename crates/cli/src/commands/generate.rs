//! `cdp generate` — emit a synthetic evaluation dataset as CSV.

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::io::write_table_path;

use crate::args::Args;
use crate::error::{CliError, Result};

/// Usage text.
pub const USAGE: &str = "\
cdp generate --dataset <adult|housing|german|flare> --out <file.csv>
             [--seed <u64>] [--records <n>]

Writes a seeded synthetic stand-in for one of the paper's four evaluation
datasets (same record counts, attribute counts and category cardinalities).";

/// Parse a dataset name (ASCII case-insensitive); the error is the
/// message.
pub fn dataset_kind(name: &str) -> std::result::Result<DatasetKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "adult" => Ok(DatasetKind::Adult),
        "housing" => Ok(DatasetKind::Housing),
        "german" => Ok(DatasetKind::German),
        "flare" => Ok(DatasetKind::Flare),
        other => Err(format!(
            "unknown dataset `{other}` (adult, housing, german, flare)"
        )),
    }
}

/// Run the command.
pub fn run(args: &Args) -> Result<()> {
    args.expect_only(&["dataset", "out", "seed", "records"])?;
    let kind = dataset_kind(args.require("dataset")?).map_err(CliError::Usage)?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut cfg = GeneratorConfig::seeded(seed);
    if let Some(n) = args.get_parse::<usize>("records")? {
        cfg = cfg.with_records(n);
    }

    let ds = kind.generate(&cfg);
    write_table_path(&ds.table, out)?;

    let protected: Vec<&str> = ds
        .protected
        .iter()
        .map(|&j| ds.table.schema().attr(j).name())
        .collect();
    println!(
        "wrote {} ({} records x {} attributes, seed {seed})",
        out,
        ds.table.n_rows(),
        ds.table.n_attrs()
    );
    println!("paper-protected attributes: {}", protected.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_names_resolve() {
        assert_eq!(dataset_kind("adult").unwrap(), DatasetKind::Adult);
        assert_eq!(dataset_kind("HOUSING").unwrap(), DatasetKind::Housing);
        assert_eq!(dataset_kind("german").unwrap(), DatasetKind::German);
        assert_eq!(dataset_kind("flare").unwrap(), DatasetKind::Flare);
        assert!(dataset_kind("iris").is_err());
    }

    #[test]
    fn generate_writes_csv() {
        let dir = std::env::temp_dir().join("cdp_cli_generate");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("adult.csv");
        let args = Args::parse(
            [
                "--dataset",
                "adult",
                "--out",
                out.to_str().unwrap(),
                "--seed",
                "7",
                "--records",
                "50",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        run(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text.lines().count(), 51); // header + 50 records
        assert!(text.starts_with("AGE") || text.contains(','));
    }

    #[test]
    fn generate_rejects_bad_flags() {
        let args = Args::parse(
            ["--dataset", "adult", "--out", "x.csv", "--oops", "1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&args).is_err());
    }
}
