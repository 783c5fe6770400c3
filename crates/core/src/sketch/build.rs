//! Sketch construction: the exact ("utopian") builder and the sampled
//! MapReduce builder of Algorithm 2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spcube_agg::{AggSpec, AggState};
use spcube_common::{Mask, Relation, Result, Tuple, Value};
use spcube_cubealg::{buc_from, BucConfig};
use spcube_mapreduce::{run_job, ClusterConfig, JobMetrics, MapContext, MrJob, ReduceContext};

use super::node::SketchNode;
use super::SpSketch;

/// How a cuboid's partition elements are chosen from the (sampled) tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Balance the tuples that will actually be *routed* to each cuboid —
    /// those anchored there (first non-skewed unmarked lattice node, the
    /// same rule the mapper applies). A cuboid's ranges then receive equal
    /// work. This is our default: it realizes the paper's goal of
    /// "effectively partitioning the workload between the machines"; the
    /// literal Definition 4.1 (below) balances each cuboid's projection of
    /// *all* tuples, which mis-balances cuboids whose anchored tuples are
    /// anti-correlated with the hot ranges (hot-valued tuples are aggregated
    /// map-side and never arrive).
    Anchored,
    /// The paper's Definition 4.1, verbatim: positions `i·n/k` of
    /// `sorted(R, C)` over all tuples. Kept as an ablation.
    AllTuples,
}

/// Knobs for the sampled sketch (Algorithm 2). Defaults follow the paper:
/// sampling probability `α = ln(nk)/m`, skew threshold in the sample
/// `β = ln(nk)`.
#[derive(Debug, Clone)]
pub struct SketchConfig {
    /// RNG seed for the Bernoulli sampling (per-mapper streams are derived
    /// from it, so runs are reproducible).
    pub seed: u64,
    /// Override `α` (clamped to `[0, 1]`); `None` uses `ln(nk)/m`.
    pub alpha_override: Option<f64>,
    /// Override `β`; `None` uses `ln(nk)`.
    pub beta_override: Option<f64>,
    /// Partition-element strategy (see [`PartitionStrategy`]).
    pub partition: PartitionStrategy,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            seed: 0x5b_c0de,
            alpha_override: None,
            beta_override: None,
            partition: PartitionStrategy::Anchored,
        }
    }
}

impl SketchConfig {
    /// The paper's `α = ln(nk)/m` (Proposition 4.4), clamped to `[0, 1]`.
    pub fn alpha(&self, n: usize, k: usize, m: usize) -> f64 {
        self.alpha_override
            .unwrap_or_else(|| ((n * k).max(2) as f64).ln() / m as f64)
            .clamp(0.0, 1.0)
    }

    /// The paper's `β = ln(nk)` (Section 4.2).
    pub fn beta(&self, n: usize, k: usize) -> f64 {
        self.beta_override
            .unwrap_or_else(|| ((n * k).max(2) as f64).ln())
    }
}

/// Build a sketch from a set of tuples: skews are groups whose tuple count
/// strictly exceeds `skew_threshold`; partition elements are the projected
/// keys at positions `i·n'/k` of each cuboid's sorted order.
///
/// Used with the full relation and `threshold = m` for the exact sketch,
/// and with the sample and `threshold = β` inside Algorithm 2's reducer.
pub fn build_sketch_from(tuples: &[&Tuple], d: usize, k: usize, skew_threshold: f64) -> SpSketch {
    build_sketch_with(tuples, d, k, skew_threshold, PartitionStrategy::Anchored)
}

/// [`build_sketch_from`] with an explicit partition-element strategy.
pub fn build_sketch_with(
    tuples: &[&Tuple],
    d: usize,
    k: usize,
    skew_threshold: f64,
    partition: PartitionStrategy,
) -> SpSketch {
    let mut nodes: Vec<SketchNode> = (0..(1u32 << d)).map(|m| SketchNode::new(Mask(m))).collect();

    // Skews: iceberg BUC with count — only partitions larger than the
    // threshold can contain (or be) skewed groups, so min_support prunes
    // the rest and the scan is near-linear for realistic thresholds.
    let min_support = (skew_threshold.floor() as usize + 1).max(1);
    let mut refs: Vec<&Tuple> = tuples.to_vec();
    buc_from(
        &mut refs,
        d,
        Mask::EMPTY,
        AggSpec::Count,
        &BucConfig { min_support },
        &|_, _| true,
        &mut |g, state| {
            if let AggState::Count(c) = state {
                if c as f64 > skew_threshold {
                    nodes[g.mask.0 as usize].add_skew(g.key);
                }
            }
        },
    );

    // Partition elements: k-1 positions per cuboid in sorted order.
    let n = tuples.len();
    if n > 0 && k > 1 {
        match partition {
            PartitionStrategy::AllTuples => {
                let mut sorted: Vec<&Tuple> = tuples.to_vec();
                for mask in (0..(1u32 << d)).map(Mask) {
                    sorted.sort_by(|a, b| spcube_common::order::cmp_under_mask(a, b, mask));
                    set_elements(&mut nodes[mask.0 as usize], &sorted, mask, k);
                }
            }
            PartitionStrategy::Anchored => {
                // Replay the mapper's anchor walk (Algorithm 3) over the
                // sample, using the just-computed skew sets, and balance
                // each cuboid over the tuples it would actually receive.
                let bfs = spcube_lattice::BfsOrder::new(d);
                let mut buckets: Vec<Vec<&Tuple>> = vec![Vec::new(); 1usize << d];
                for &t in tuples {
                    let mut lat = spcube_lattice::TupleLattice::new(t, &bfs);
                    let mut rank = 0u32;
                    while let Some((mask, at)) = lat.next_unmarked(rank) {
                        rank = at;
                        let key = t.project(mask);
                        if nodes[mask.0 as usize].is_skewed(&key) {
                            lat.mark(mask);
                        } else {
                            buckets[mask.0 as usize].push(t);
                            lat.mark_with_ancestors(mask);
                        }
                    }
                }
                // A bucket much smaller than ~2 samples per range carries
                // more sampling noise than signal; fall back to Definition
                // 4.1's all-tuples elements for those cuboids so every
                // cuboid always has usable boundaries.
                let min_bucket = 2 * k;
                let mut all_sorted: Vec<&Tuple> = tuples.to_vec();
                for mask in (0..(1u32 << d)).map(Mask) {
                    let bucket = &mut buckets[mask.0 as usize];
                    if bucket.len() >= min_bucket {
                        bucket.sort_by(|a, b| spcube_common::order::cmp_under_mask(a, b, mask));
                        set_elements(&mut nodes[mask.0 as usize], bucket, mask, k);
                    } else {
                        all_sorted.sort_by(|a, b| spcube_common::order::cmp_under_mask(a, b, mask));
                        set_elements(&mut nodes[mask.0 as usize], &all_sorted, mask, k);
                    }
                }
            }
        }
    }

    SpSketch::new(d, k, nodes)
}

fn set_elements(node: &mut SketchNode, sorted: &[&Tuple], mask: Mask, k: usize) {
    let n = sorted.len();
    if n == 0 {
        return;
    }
    let elements: Vec<Box<[Value]>> = (1..k)
        .map(|i| (i * n) / k)
        .filter(|&idx| idx < n)
        .map(|idx| sorted[idx].project(mask).into_boxed_slice())
        .collect();
    node.set_partition_elements(elements);
}

/// The exact ("utopian") SP-Sketch of Section 4.2: skews and partition
/// elements computed from the full relation with the true threshold `m`.
/// Too expensive for production (it sorts `R` per cuboid) but the ground
/// truth the sampled sketch is validated against.
pub fn build_exact_sketch(rel: &Relation, cluster: &ClusterConfig) -> SpSketch {
    let refs: Vec<&Tuple> = rel.tuples().iter().collect();
    build_sketch_from(
        &refs,
        rel.arity(),
        cluster.machines,
        cluster.skew_threshold() as f64,
    )
}

/// Algorithm 2: the sampled sketch as a MapReduce round. Mappers sample
/// each tuple independently with probability `α`; the single reducer runs
/// the in-memory builder over the sample with threshold `β`.
///
/// Returns the sketch and the round's metrics (the sample traffic and the
/// sketch-build time are part of SP-Cube's reported cost).
pub fn build_sampled_sketch(
    rel: &Relation,
    cluster: &ClusterConfig,
    cfg: &SketchConfig,
) -> Result<(SpSketch, JobMetrics)> {
    let n = rel.len();
    let k = cluster.machines;
    let m = cluster.skew_threshold();
    let job = SketchJob {
        d: rel.arity(),
        k,
        alpha: cfg.alpha(n, k, m),
        beta: cfg.beta(n, k),
        seed: cfg.seed,
        partition: cfg.partition,
    };
    let mut result = run_job(cluster, &job, rel.tuples(), 1)?;
    // An empty sample (tiny or empty relation) never invokes the reducer;
    // fall back to the empty sketch in that case.
    let sketch = result
        .outputs
        .pop()
        .and_then(|mut o| o.pop())
        .unwrap_or_else(|| build_sketch_from(&[], rel.arity(), k, job.beta));
    Ok((sketch, result.metrics))
}

/// The MapReduce job of Algorithm 2.
struct SketchJob {
    d: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
    partition: PartitionStrategy,
}

impl MrJob for SketchJob {
    type Input = Tuple;
    type Key = u8;
    type Value = Tuple;
    type Output = SpSketch;

    fn name(&self) -> String {
        "sp-sketch".into()
    }

    fn map_split(&self, ctx: &mut MapContext<'_, u8, Tuple>, split: &[Tuple]) {
        // Per-task RNG stream: deterministic and independent across tasks.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (ctx.task() as u64).wrapping_mul(0x9e37_79b9));
        for t in split {
            ctx.charge(1);
            if rng.gen::<f64>() <= self.alpha {
                ctx.emit(0, t.clone());
            }
        }
    }

    fn reduce(&self, ctx: &mut ReduceContext<'_, SpSketch>, _key: u8, values: Vec<Tuple>) {
        let refs: Vec<&Tuple> = values.iter().collect();
        ctx.charge(refs.len() as u64 * (1u64 << self.d));
        ctx.emit(build_sketch_with(
            &refs,
            self.d,
            self.k,
            self.beta,
            self.partition,
        ));
    }

    fn key_bytes(&self, _key: &u8) -> u64 {
        1
    }

    fn value_bytes(&self, value: &Tuple) -> u64 {
        value.wire_bytes()
    }

    fn output_bytes(&self, output: &SpSketch) -> u64 {
        output.serialized_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::Schema;

    /// n tuples; value `v` in dim 0 occurs `hot` times, the rest distinct.
    fn skewed_rel(n: usize, hot: usize) -> Relation {
        let mut r = Relation::empty(Schema::synthetic(2));
        for i in 0..n {
            let a = if i < hot { 1 } else { 1000 + i as i64 };
            r.push_row(vec![Value::Int(a), Value::Int(i as i64)], 1.0);
        }
        r
    }

    #[test]
    fn exact_sketch_finds_planted_skew() {
        let rel = skewed_rel(1000, 300);
        let cluster = ClusterConfig::new(10, 100); // m = 100 < 300
        let s = build_exact_sketch(&rel, &cluster);
        assert!(s.is_skewed(Mask(0b01), &[Value::Int(1)]));
        // The apex has all 1000 tuples > m.
        assert!(s.is_skewed(Mask::EMPTY, &[]));
        // A cold value is not skewed.
        assert!(!s.is_skewed(Mask(0b01), &[Value::Int(1500)]));
        // Full-cuboid groups are all singletons except none: (1, i) occurs once.
        assert!(!s.is_skewed(Mask(0b11), &[Value::Int(1), Value::Int(5)]));
    }

    #[test]
    fn all_tuples_partitioning_balances_each_cuboid() {
        // Proposition 4.2(2) for the literal Definition 4.1 strategy:
        // omitting skewed members, partitions of each cuboid's projection
        // of the whole relation are O(m).
        let rel = skewed_rel(1000, 300);
        let k = 10;
        let refs: Vec<&Tuple> = rel.tuples().iter().collect();
        let s = build_sketch_with(&refs, 2, k, 100.0, PartitionStrategy::AllTuples);
        for mask in (0..4u32).map(Mask) {
            let mut counts = vec![0usize; k];
            for t in rel.tuples() {
                let key = t.project(mask);
                if !s.is_skewed(mask, &key) {
                    counts[s.partition_of(mask, &key)] += 1;
                }
            }
            // Each partition holds at most ~n/k plus one group's slack.
            for &c in &counts {
                assert!(c <= 2 * (rel.len() / k) + 1, "mask {mask:?}: {counts:?}");
            }
        }
    }

    #[test]
    fn anchored_partitioning_balances_routed_tuples() {
        // The default strategy balances what each cuboid actually
        // *receives*: replay the anchor walk over the full relation and
        // check that every cuboid's routed tuples spread across ranges.
        use spcube_lattice::{BfsOrder, TupleLattice};
        let rel = skewed_rel(1000, 300);
        let k = 10;
        let cluster = ClusterConfig::new(k, 100);
        let s = build_exact_sketch(&rel, &cluster);
        let bfs = BfsOrder::new(2);
        let mut routed = vec![vec![0usize; k]; 4];
        for t in rel.tuples() {
            let mut lat = TupleLattice::new(t, &bfs);
            let mut rank = 0u32;
            while let Some((mask, at)) = lat.next_unmarked(rank) {
                rank = at;
                let key = t.project(mask);
                if s.is_skewed(mask, &key) {
                    lat.mark(mask);
                } else {
                    routed[mask.0 as usize][s.partition_of(mask, &key)] += 1;
                    lat.mark_with_ancestors(mask);
                }
            }
        }
        for (mask, counts) in routed.iter().enumerate() {
            let total: usize = counts.iter().sum();
            if total < k {
                continue; // nothing meaningful routed to this cuboid
            }
            let max = *counts.iter().max().unwrap();
            assert!(
                max <= 2 * total / k + 2,
                "mask {mask:b}: routed partitions unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn sampled_with_alpha_one_matches_exact() {
        let rel = skewed_rel(500, 200);
        let cluster = ClusterConfig::new(5, 100);
        let cfg = SketchConfig {
            alpha_override: Some(1.0),
            beta_override: Some(cluster.skew_threshold() as f64),
            ..Default::default()
        };
        let (sampled, _m) = build_sampled_sketch(&rel, &cluster, &cfg).unwrap();
        let exact = build_exact_sketch(&rel, &cluster);
        for mask in (0..4u32).map(Mask) {
            let mut sk_s: Vec<_> = sampled.node(mask).skews().collect();
            let mut sk_e: Vec<_> = exact.node(mask).skews().collect();
            sk_s.sort();
            sk_e.sort();
            assert_eq!(sk_s, sk_e, "mask {mask:?}");
        }
    }

    #[test]
    fn sampled_sketch_detects_big_skews_with_default_parameters() {
        // Prop 4.5 in miniature: a group 5x over the threshold is found.
        let n = 20_000;
        let rel = skewed_rel(n, 5_000);
        let cluster = ClusterConfig::new(20, 1000); // m = n/k = 1000
        let (s, metrics) = build_sampled_sketch(&rel, &cluster, &SketchConfig::default()).unwrap();
        assert!(s.is_skewed(Mask(0b01), &[Value::Int(1)]));
        assert!(s.is_skewed(Mask::EMPTY, &[]));
        // Sample is small: O(m ln(nk))-ish records, far below n.
        assert!(metrics.map_output_records < (n / 2) as u64);
    }

    #[test]
    fn sample_size_is_near_alpha_n() {
        // Prop 4.4: sample size concentrates around α·n = ln(nk)/m · n.
        let n = 50_000;
        let rel = skewed_rel(n, 0);
        let cluster = ClusterConfig::new(10, 5000);
        let cfg = SketchConfig::default();
        let alpha = cfg.alpha(n, 10, 5000);
        let (_s, metrics) = build_sampled_sketch(&rel, &cluster, &cfg).unwrap();
        let expect = alpha * n as f64;
        let got = metrics.map_output_records as f64;
        assert!(
            got > expect * 0.5 && got < expect * 1.5,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn sketch_is_small_relative_to_input() {
        // The paper reports sketches orders of magnitude below the input.
        let rel = skewed_rel(20_000, 4_000);
        let cluster = ClusterConfig::new(20, 1000);
        let (s, _) = build_sampled_sketch(&rel, &cluster, &SketchConfig::default()).unwrap();
        assert!(s.serialized_bytes() * 20 < rel.wire_bytes());
    }

    #[test]
    fn empty_relation_builds_empty_sketch() {
        let rel = Relation::empty(Schema::synthetic(2));
        let cluster = ClusterConfig::new(4, 10);
        let (s, _) = build_sampled_sketch(&rel, &cluster, &SketchConfig::default()).unwrap();
        assert_eq!(s.skew_count(), 0);
        assert_eq!(s.partition_of(Mask(0b01), &[Value::Int(1)]), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let rel = skewed_rel(5_000, 1_000);
        let cluster = ClusterConfig::new(10, 200);
        let cfg = SketchConfig::default();
        let (a, _) = build_sampled_sketch(&rel, &cluster, &cfg).unwrap();
        let (b, _) = build_sampled_sketch(&rel, &cluster, &cfg).unwrap();
        assert_eq!(
            a.to_bytes().expect("encode a"),
            b.to_bytes().expect("encode b")
        );
    }
}
