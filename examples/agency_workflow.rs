//! A statistical agency's end-to-end workflow, as one [`ProtectionJob`]:
//!
//! 1. ingest a raw survey file from disk (CSV),
//! 2. seed a population of protections (built-ins + MDAV),
//! 3. evolve it under Eq. 2,
//! 4. audit the winner — IL/DR breakdown, attribute disclosure (the risk
//!    notion the paper names but does not evaluate), the built-in privacy
//!    audit (k-anonymity, prosecutor/journalist risk),
//! 5. publish the protected file.
//!
//! ```sh
//! cargo run --release --example agency_workflow
//! ```

use std::sync::Arc;

use cdp::dataset::io::{read_table_path, write_table_path, SchemaSource};
use cdp::metrics::dr::attribute_disclosure_avg;
use cdp::prelude::*;
use cdp::sdc::{Mdav, MethodContext, ProtectionMethod};

fn main() {
    let dir = std::env::temp_dir().join("cdp_agency");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // -- 1. the "raw survey" arrives as a CSV file ------------------------
    let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(77).with_records(400));
    let raw_path = dir.join("survey_raw.csv");
    write_table_path(&ds.table, &raw_path).expect("write raw file");
    // the agency knows the codebook, so it parses against the fixed schema
    // (attribute kinds and category order matter to the measures)
    let table = read_table_path(
        SchemaSource::Fixed(Arc::clone(ds.table.schema())),
        &raw_path,
    )
    .expect("ingest");
    println!(
        "ingested {} records x {} attributes from {}",
        table.n_rows(),
        table.n_attrs(),
        raw_path.display()
    );

    // -- 2.+3. describe the whole job declaratively -----------------------
    // extra candidates beyond the built-in sweep: three MDAV protections
    let original = table.subtable(&ds.protected).expect("protected columns");
    let hierarchies = ds.protected_hierarchies();
    let ctx = MethodContext {
        hierarchies: &hierarchies,
    };
    let mut builder = ProtectionJob::builder()
        .table(table, ds.protected.clone())
        .suite_small()
        .aggregator(ScoreAggregator::Max)
        .iterations(200)
        .seed(77)
        .audit();
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(77);
    for k in [3, 5, 10] {
        let mdav = Mdav::new(k);
        let data = mdav.protect(&original, &ctx, &mut rng).expect("mdav");
        builder = builder.add_protection(mdav.name(), data);
    }
    let job = builder.build().expect("valid job");

    let session = Session::new();
    let report = session
        .run_with(&job, |event| match event {
            JobEvent::PopulationReady { size } => println!("candidate protections: {size}"),
            JobEvent::EvolutionFinished {
                iterations,
                evaluations,
            } => {
                println!(
                    "evolved {iterations} iterations ({} full / {} incremental evaluations)",
                    evaluations.full, evaluations.incremental
                );
            }
            _ => {}
        })
        .expect("job runs");

    // -- 4. audit the winner ----------------------------------------------
    let best = &report.best;
    let assessment = &best.assessment;
    println!("\naudit of `{}`:", best.name);
    println!(
        "  information loss  {:.2}  (CTBIL {:.2}, DBIL {:.2}, EBIL {:.2})",
        assessment.il(),
        assessment.il_parts.ctbil,
        assessment.il_parts.dbil,
        assessment.il_parts.ebil
    );
    println!(
        "  disclosure risk   {:.2}  (ID {:.2}, DBRL {:.2}, PRL {:.2}, RSRL {:.2})",
        assessment.dr(),
        assessment.dr_parts.id,
        assessment.dr_parts.dbrl,
        assessment.dr_parts.prl,
        assessment.dr_parts.rsrl
    );
    // ad-hoc extra measures reuse the session's prepared evaluator
    let (audit_eval, reused) = session
        .evaluator_for(&report.original(), MetricConfig::default())
        .expect("evaluator");
    assert!(reused, "the job already prepared this original");
    println!(
        "  attribute disclosure (extension): {:.2}",
        attribute_disclosure_avg(audit_eval.prepared(), &best.data, 0.1)
    );
    println!("{}", report.privacy.as_ref().expect("audit enabled"));

    // -- 5. publish ---------------------------------------------------------
    let published = report.published_best().expect("same shape");
    let out_path = dir.join("survey_protected.csv");
    write_table_path(&published, &out_path).expect("publish");
    println!("\nprotected file published to {}", out_path.display());
}
