//! MRCube's sampling/annotation round.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spcube_agg::{AggSpec, AggState};
use spcube_common::{Mask, Relation, Result, Tuple};
use spcube_cubealg::{buc_from, BucConfig};
use spcube_mapreduce::{run_job, ClusterConfig, JobMetrics, MapContext, MrJob, ReduceContext};

use super::MrCubeConfig;

/// The annotated lattice: for each cuboid, the partition factor `pf` the
/// plan assigns (`1` = reducer-friendly, `>1` = value-partitioned). The
/// paper's critique is precisely that this decision lives at cuboid — not
/// c-group — granularity.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    pf: std::collections::HashMap<Mask, usize>,
}

impl Annotations {
    /// Mark a cuboid unfriendly with a partition factor.
    pub fn set_pf(&mut self, mask: Mask, pf: usize) {
        assert!(pf >= 2);
        self.pf.insert(mask, pf);
    }

    /// Partition factor of a cuboid (1 = friendly).
    pub fn pf_of(&self, mask: Mask) -> usize {
        self.pf.get(&mask).copied().unwrap_or(1)
    }

    /// Whether any cuboid is value-partitioned.
    pub fn any_unfriendly(&self) -> bool {
        !self.pf.is_empty()
    }

    /// Number of unfriendly cuboids.
    pub fn unfriendly_count(&self) -> usize {
        self.pf.len()
    }
}

/// Run the annotation round: Bernoulli-sample the relation, cube the sample
/// with counts, and flag every cuboid whose *estimated* largest group
/// exceeds a reducer's capacity `m`.
pub(super) fn annotate(
    rel: &Relation,
    cluster: &ClusterConfig,
    cfg: &MrCubeConfig,
) -> Result<(Annotations, JobMetrics)> {
    let n = rel.len();
    let k = cluster.machines;
    let m = cluster.skew_threshold();
    // Same sampling rate family as the paper's Algorithm 2 (both descend
    // from the TKDE'12 sampling analysis): expected β = ln(nk) hits per
    // borderline group.
    let alpha = (((n * k).max(2) as f64).ln() / m as f64).clamp(0.0, 1.0);
    let beta = ((n * k).max(2) as f64).ln();
    let job = AnnotateJob {
        d: rel.arity(),
        k,
        m,
        alpha,
        beta,
        seed: cfg.seed,
    };
    let mut result = run_job(cluster, &job, rel.tuples(), 1)?;
    let ann = result
        .outputs
        .pop()
        .and_then(|mut o| o.pop())
        .unwrap_or_default();
    Ok((ann, result.metrics))
}

struct AnnotateJob {
    d: usize,
    k: usize,
    m: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
}

impl MrJob for AnnotateJob {
    type Input = Tuple;
    type Key = u8;
    type Value = Tuple;
    type Output = Annotations;

    fn name(&self) -> String {
        "mrcube-annotate".into()
    }

    fn map_split(&self, ctx: &mut MapContext<'_, u8, Tuple>, split: &[Tuple]) {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (ctx.task() as u64).wrapping_mul(0x51_7cc1));
        for t in split {
            ctx.charge(1);
            if rng.gen::<f64>() <= self.alpha {
                ctx.emit(0, t.clone());
            }
        }
    }

    fn reduce(&self, ctx: &mut ReduceContext<'_, Annotations>, _key: u8, values: Vec<Tuple>) {
        // Max sampled group count per cuboid, via iceberg BUC.
        let mut max_count: std::collections::HashMap<Mask, u64> = Default::default();
        let min_support = (self.beta.floor() as usize).max(1);
        let mut refs: Vec<&Tuple> = values.iter().collect();
        ctx.charge(refs.len() as u64 * (1u64 << self.d));
        buc_from(
            &mut refs,
            self.d,
            Mask::EMPTY,
            AggSpec::Count,
            &BucConfig { min_support },
            &|_, _| true,
            &mut |g, state| {
                if let AggState::Count(c) = state {
                    let e = max_count.entry(g.mask).or_insert(0);
                    *e = (*e).max(c);
                }
            },
        );
        let mut ann = Annotations::default();
        for (mask, count) in max_count {
            let estimated = count as f64 / self.alpha.max(f64::MIN_POSITIVE);
            if estimated > self.m as f64 {
                let pf = ((estimated / self.m as f64).ceil() as usize + 1).clamp(2, self.k.max(2));
                ann.set_pf(mask, pf);
            }
        }
        ctx.emit(ann);
    }

    fn key_bytes(&self, _key: &u8) -> u64 {
        1
    }

    fn value_bytes(&self, value: &Tuple) -> u64 {
        value.wire_bytes()
    }

    fn output_bytes(&self, output: &Annotations) -> u64 {
        16 * output.unfriendly_count() as u64 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::{Schema, Value};

    #[test]
    fn annotations_default_friendly() {
        let ann = Annotations::default();
        assert_eq!(ann.pf_of(Mask(0b11)), 1);
        assert!(!ann.any_unfriendly());
    }

    #[test]
    fn set_pf_roundtrip() {
        let mut ann = Annotations::default();
        ann.set_pf(Mask(0b01), 4);
        assert_eq!(ann.pf_of(Mask(0b01)), 4);
        assert_eq!(ann.unfriendly_count(), 1);
        assert!(ann.any_unfriendly());
    }

    #[test]
    #[should_panic]
    fn pf_below_two_rejected() {
        Annotations::default().set_pf(Mask(0b1), 1);
    }

    #[test]
    fn annotate_flags_skewed_cuboids() {
        // Half the relation is one pattern: every cuboid containing it is
        // unfriendly (including the apex).
        let mut r = Relation::empty(Schema::synthetic(2));
        for i in 0..10_000usize {
            let dims = if i % 2 == 0 {
                vec![Value::Int(1), Value::Int(1)]
            } else {
                vec![Value::Int(i as i64), Value::Int((i * 3) as i64)]
            };
            r.push_row(dims, 1.0);
        }
        let cluster = ClusterConfig::new(10, 500); // m = 500 << 5000
        let cfg = MrCubeConfig::new(AggSpec::Count);
        let (ann, _metrics) = annotate(&r, &cluster, &cfg).unwrap();
        assert!(
            ann.pf_of(Mask::EMPTY) >= 2,
            "apex cuboid must be unfriendly"
        );
        assert!(ann.pf_of(Mask(0b01)) >= 2);
        assert!(ann.pf_of(Mask(0b10)) >= 2);
        assert!(
            ann.pf_of(Mask(0b11)) >= 2,
            "the (1,1) group is half the data"
        );
    }

    #[test]
    fn annotate_leaves_uniform_data_friendly() {
        let mut r = Relation::empty(Schema::synthetic(2));
        for i in 0..10_000usize {
            r.push_row(vec![Value::Int(i as i64), Value::Int((i * 7) as i64)], 1.0);
        }
        let cluster = ClusterConfig::new(10, 1000);
        let cfg = MrCubeConfig::new(AggSpec::Count);
        let (ann, _metrics) = annotate(&r, &cluster, &cfg).unwrap();
        // Only the apex (10k tuples > m) should be unfriendly.
        assert!(ann.pf_of(Mask::EMPTY) >= 2);
        assert_eq!(ann.pf_of(Mask(0b01)), 1);
        assert_eq!(ann.pf_of(Mask(0b10)), 1);
        assert_eq!(ann.pf_of(Mask(0b11)), 1);
    }
}
