//! Protection-method cost at paper scale.
//!
//! The six SDC methods build the initial population once per experiment;
//! this bench documents their relative cost (microaggregation's
//! bucket-ordered grouping vs PRAM's per-cell sampling vs the O(n·c)
//! recodings).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_sdc::{
    Aggregate, BottomCoding, GlobalRecoding, Grouping, MethodContext, MicroVariant,
    Microaggregation, Pram, PramMode, ProtectionMethod, RankSwapping, TopCoding,
};

fn bench_methods(c: &mut Criterion) {
    let ds = DatasetKind::Housing.generate(&GeneratorConfig::seeded(1));
    let sub = ds.protected_subtable();
    let hierarchies = ds.protected_hierarchies();
    let ctx = MethodContext {
        hierarchies: &hierarchies,
    };

    let methods: Vec<Box<dyn ProtectionMethod>> = vec![
        Box::new(Microaggregation::new(
            5,
            MicroVariant {
                grouping: Grouping::Univariate,
                aggregate: Aggregate::Median,
            },
        )),
        Box::new(Microaggregation::new(
            5,
            MicroVariant {
                grouping: Grouping::Multivariate,
                aggregate: Aggregate::Mode,
            },
        )),
        Box::new(BottomCoding { fraction: 0.1 }),
        Box::new(TopCoding { fraction: 0.1 }),
        Box::new(GlobalRecoding::uniform(1)),
        Box::new(RankSwapping::new(5)),
        Box::new(Pram::new(0.8, PramMode::Proportional)),
        Box::new(Pram::new(0.8, PramMode::Invariant)),
    ];

    let mut group = c.benchmark_group("protection_methods");
    group.sample_size(20);
    for method in &methods {
        group.bench_function(method.name(), |b| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| std::hint::black_box(method.protect(&sub, &ctx, &mut rng).expect("protect")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
