//! Cost of the privacy-model layer: equivalence partitioning, model
//! assessment, and the two lattice search strategies.
//!
//! Two claims are measured:
//! * partitioning is one O(n·a) hashing pass plus a sort of the distinct
//!   patterns (at most 1568 for the Adult selection, at any row count), so
//!   it is dwarfed by the paper's linkage measures and adding a
//!   k-anonymity audit to a fitness function is nearly free;
//! * predictive tagging (the imprecision-cost search) computes strictly
//!   fewer partitions than the exhaustive discernibility search, and
//!   Samarati's binary search fewer still.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_privacy::{models, CostKind, LatticeSearch, Partition, Recoder};

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("privacy_partition");
    for records in [100usize, 300, 1000] {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(records));
        let sub = ds.protected_subtable();
        group.bench_with_input(
            BenchmarkId::new("of_subtable", records),
            &records,
            |b, _| b.iter(|| std::hint::black_box(Partition::of_subtable(&sub).unwrap())),
        );
        let partition = Partition::of_subtable(&sub).unwrap();
        group.bench_with_input(
            BenchmarkId::new("k_anonymity", records),
            &records,
            |b, _| b.iter(|| std::hint::black_box(models::k_anonymity(&partition))),
        );
        let sensitive = ds.table.column(0);
        let n_cats = ds.table.schema().attr(0).n_categories();
        group.bench_with_input(
            BenchmarkId::new("l_diversity", records),
            &records,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        models::l_diversity(&partition, sensitive, n_cats).unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_lattice_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("privacy_lattice_search");
    group.sample_size(10);
    for records in [300usize, 1000] {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(records));
        let sub = ds.protected_subtable();
        let hierarchies = ds.protected_hierarchies();
        let recoder = Recoder::new(&sub, hierarchies).unwrap();
        let search = LatticeSearch::new(&sub, &recoder);

        group.bench_with_input(
            BenchmarkId::new("samarati_k3", records),
            &records,
            |b, _| b.iter(|| std::hint::black_box(search.samarati_minimal(3).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("optimal_tagged_k3", records),
            &records,
            |b, _| {
                b.iter(|| std::hint::black_box(search.optimal(3, CostKind::Imprecision).unwrap()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("optimal_full_k3", records),
            &records,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(search.optimal(3, CostKind::Discernibility).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_partition, bench_lattice_search);
criterion_main!(benches);
