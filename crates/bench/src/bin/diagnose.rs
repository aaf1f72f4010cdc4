//! Dataset diagnostics: verify that the synthetic stand-ins carry the
//! structure that lets them replace the UCI files (skewed, associated
//! marginals at the paper's cardinalities: all the measures read).
//!
//! For each of the paper's four datasets, prints per-protected-attribute
//! cardinalities, marginal entropy, skew, the pairwise Cramér's V
//! associations, and the raw disclosure indicators (uniqueness,
//! k-anonymity) of the protected sub-table.
//!
//! ```text
//! cargo run --release -p cdp_bench --bin diagnose [--records N] [--seed S]
//! ```

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::stats::{entropy, k_anonymity, table_association, uniqueness};

fn main() {
    let mut records = None;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--records" => {
                records = args.next().and_then(|v| v.parse().ok());
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }

    for kind in DatasetKind::all() {
        let mut gc = GeneratorConfig::seeded(seed);
        if let Some(n) = records {
            gc = gc.with_records(n);
        }
        let ds = kind.generate(&gc);
        let schema = ds.table.schema();
        println!(
            "== {} — {} records × {} attributes ==",
            kind.name(),
            ds.table.n_rows(),
            ds.table.n_attrs()
        );
        println!("protected attributes:");
        for &a in &ds.protected {
            let attr = schema.attr(a);
            let col = ds.table.column(a);
            let h = entropy(col, attr.n_categories());
            let h_max = (attr.n_categories() as f64).log2();
            println!(
                "  {:<16} {:>2} categories ({:?}), H = {:.2}/{:.2} bits",
                attr.name(),
                attr.n_categories(),
                attr.kind(),
                h,
                h_max
            );
        }
        println!("protected-pair associations (Cramér's V):");
        for (i, &a) in ds.protected.iter().enumerate() {
            for &b in ds.protected.iter().skip(i + 1) {
                println!(
                    "  {:<16} x {:<16} V = {:.3}",
                    schema.attr(a).name(),
                    schema.attr(b).name(),
                    table_association(&ds.table, a, b)
                );
            }
        }
        let sub = ds.protected_subtable();
        println!(
            "raw disclosure indicators: uniqueness = {:.1}%, k-anonymity = {}\n",
            100.0 * uniqueness(&sub),
            k_anonymity(&sub)
        );
    }
}
