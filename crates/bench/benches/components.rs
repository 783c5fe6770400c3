//! Component micro-benchmarks: the building blocks whose costs the design
//! choices of DESIGN.md trade off — sequential cube algorithms, sketch
//! construction, lattice traversal, the Zipf sampler, and a raw engine
//! round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spcube_agg::AggSpec;
use spcube_common::{Group, Mask, Tuple, Value};
use spcube_core::{build_exact_sketch, build_sampled_sketch, SketchConfig};
use spcube_cubealg::{buc, naive_cube, pipesort, BucConfig};
use spcube_datagen::{gen_zipf, Zipf};
use spcube_lattice::{BfsOrder, TupleLattice};
use spcube_mapreduce::ClusterConfig;

fn bench_sequential_cube(c: &mut Criterion) {
    let rel = gen_zipf(10_000, 4, 1);
    let mut group = c.benchmark_group("sequential_cube");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(rel.len() as u64));
    group.bench_function("buc", |b| {
        b.iter(|| buc(&rel, AggSpec::Count, &BucConfig::default()).len())
    });
    group.bench_function("buc_iceberg_minsup16", |b| {
        b.iter(|| {
            let mut count = 0usize;
            let mut refs: Vec<&Tuple> = rel.tuples().iter().collect();
            spcube_cubealg::buc_from(
                &mut refs,
                4,
                Mask::EMPTY,
                AggSpec::Count,
                &BucConfig { min_support: 16 },
                &|_, _| true,
                &mut |_, _| count += 1,
            );
            count
        })
    });
    group.bench_function("pipesort", |b| {
        b.iter(|| pipesort(&rel, AggSpec::Count).len())
    });
    group.bench_function("naive_hash", |b| {
        b.iter(|| naive_cube(&rel, AggSpec::Count).len())
    });
    group.finish();
}

fn bench_sketch_build(c: &mut Criterion) {
    let rel = gen_zipf(50_000, 4, 2);
    let cluster = ClusterConfig::new(20, 2_500);
    let mut group = c.benchmark_group("sketch_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.bench_function("exact_utopian", |b| {
        b.iter(|| build_exact_sketch(&rel, &cluster).skew_count())
    });
    group.bench_function("sampled_algorithm2", |b| {
        b.iter(|| {
            build_sampled_sketch(&rel, &cluster, &SketchConfig::default())
                .unwrap()
                .0
                .skew_count()
        })
    });
    group.finish();
}

fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice");
    for d in [4usize, 8, 12] {
        let bfs = BfsOrder::new(d);
        let t = Tuple::new((0..d).map(|i| Value::Int(i as i64)).collect(), 1.0);
        group.bench_with_input(BenchmarkId::new("walk_and_mark", d), &d, |b, _| {
            b.iter(|| {
                // The mapper's inner loop: walk unmarked nodes, mark the
                // anchor's ancestors.
                let mut lat = TupleLattice::new(&t, &bfs);
                let mut visited = 0u32;
                let mut rank = 0u32;
                while let Some((mask, at)) = lat.next_unmarked(rank) {
                    rank = at;
                    visited += 1;
                    if mask.arity() == 1 {
                        lat.mark_with_ancestors(mask);
                    } else {
                        lat.mark(mask);
                    }
                }
                visited
            })
        });
        group.bench_with_input(BenchmarkId::new("project_all", d), &d, |b, _| {
            b.iter(|| {
                bfs.order()
                    .iter()
                    .map(|&m| Group::of_tuple(&t, m).key.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(1000, 1.1);
    let mut group = c.benchmark_group("zipf_sampler");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("sample_10k", |b| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| (0..10_000).map(|_| z.sample(&mut rng)).sum::<usize>())
    });
    group.finish();
}

fn bench_engine_round(c: &mut Criterion) {
    // A raw engine round with a trivial job: measures the simulator's own
    // overhead per record.
    use spcube_mapreduce::{run_job, MapContext, MrJob, ReduceContext};
    struct Ident;
    impl MrJob for Ident {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        type Output = u64;
        fn name(&self) -> String {
            "ident".into()
        }
        fn map_split(&self, ctx: &mut MapContext<'_, u64, u64>, split: &[u64]) {
            for &x in split {
                ctx.emit(x % 1024, x);
            }
        }
        fn reduce(&self, ctx: &mut ReduceContext<'_, u64>, _k: u64, values: Vec<u64>) {
            ctx.emit(values.iter().sum());
        }
        fn key_bytes(&self, _: &u64) -> u64 {
            8
        }
        fn value_bytes(&self, _: &u64) -> u64 {
            8
        }
        fn output_bytes(&self, _: &u64) -> u64 {
            8
        }
    }
    let inputs: Vec<u64> = (0..200_000).collect();
    let cluster = ClusterConfig::new(20, 100_000);
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(inputs.len() as u64));
    group.bench_function("round_200k_records", |b| {
        b.iter(|| {
            run_job(&cluster, &Ident, &inputs, 20)
                .unwrap()
                .metrics
                .map_output_records
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_cube,
    bench_sketch_build,
    bench_lattice,
    bench_zipf,
    bench_engine_round
);
criterion_main!(benches);
