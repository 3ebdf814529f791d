//! Criterion benchmarks for the end-to-end hot paths: pair vectorization
//! (the dominant cost of materializing `C`), parallel blocking-rule
//! application over `A × B`, and crowd vote resolution.

use bench::make_task;
use corleone::source::{CandidateSource, CartesianScan};
use corleone::CandidateSet;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use crowd::voting::{resolve, Scheme};
use crowd::{PairKey, WorkerPool};
use datagen::{products, GenConfig};
use forest::{Op, Predicate, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pipeline(c: &mut Criterion) {
    let ds = products::generate(GenConfig { scale: 0.02, seed: 5 });
    let (task, _gold) = make_task(&ds);

    let mut g = c.benchmark_group("pipeline");
    let n_pairs = 2000usize;
    let pairs: Vec<PairKey> = (0..n_pairs as u32)
        .map(|i| PairKey::new(i % task.table_a.len() as u32, i % task.table_b.len() as u32))
        .collect();
    g.throughput(Throughput::Elements(n_pairs as u64));
    g.bench_function("vectorize_2k_product_pairs", |b| {
        b.iter(|| CandidateSet::build(black_box(&task), pairs.clone()))
    });

    // A realistic 2-predicate blocking rule on cheap features.
    let names = task.feature_names();
    let brand_exact = names.iter().position(|n| n == "brand_exact").unwrap();
    let name_jac = names.iter().position(|n| n == "name_jac_w").unwrap();
    let rule = Rule {
        predicates: vec![
            Predicate { feature: brand_exact, op: Op::Le, threshold: 0.5, nan_satisfies: false },
            Predicate { feature: name_jac, op: Op::Le, threshold: 0.2, nan_satisfies: true },
        ],
        label: false,
        tree: 0,
        leaf: 0,
        n_pos: 0,
        n_neg: 0,
    };
    g.throughput(Throughput::Elements(task.cartesian_size()));
    let scan = CartesianScan::new(&task, vec![rule]);
    g.bench_function("block_full_cartesian", |b| {
        b.iter(|| black_box(&scan).generate(corleone::Threads::auto()))
    });
    g.finish();

    let mut g = c.benchmark_group("crowd");
    let pool = WorkerPool::uniform(25, 0.1);
    for (label, scheme) in [
        ("vote_2plus1", Scheme::TwoPlusOne),
        ("vote_strong", Scheme::StrongMajority),
        ("vote_hybrid", Scheme::Hybrid),
    ] {
        g.bench_function(label, |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| resolve(scheme, &pool, black_box(true), &mut rng))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
