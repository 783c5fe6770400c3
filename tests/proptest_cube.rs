//! Property-based tests: on arbitrary random relations, the distributed
//! algorithms agree with the sequential reference, and the core invariants
//! of the lattice/anchor machinery hold.

use proptest::prelude::*;

use sp_cube_repro::agg::{AggOutput, AggSpec};
use sp_cube_repro::baselines::{mr_cube, naive_mr_cube, MrCubeConfig};
use sp_cube_repro::common::{Group, Mask, Relation, Schema, Tuple, Value};
use sp_cube_repro::core::{build_exact_sketch, sp_cube, SpCube, SpCubeConfig};
use sp_cube_repro::cubealg::{buc, buc_from, naive_cube, pipesort, BucConfig, Cube};
use sp_cube_repro::lattice::{anchor_mask, is_anchor};
use sp_cube_repro::mapreduce::ClusterConfig;

/// Strategy: a small relation with clustered values (small domains force
/// shared groups and skew) and 1-4 dimensions.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=4, 1usize..=60).prop_flat_map(|(d, n)| {
        let tuple = proptest::collection::vec(0i64..4, d);
        proptest::collection::vec((tuple, -10i64..10), n).prop_map(move |rows| {
            let mut rel = Relation::empty(Schema::synthetic(d));
            for (dims, m) in rows {
                rel.push_row(dims.into_iter().map(Value::Int).collect(), m as f64);
            }
            rel
        })
    })
}

/// A random skew oracle over (mask, projected key): `seed`'s bit at a
/// position hashed from the group marks it skewed. Arbitrary on purpose —
/// not upward-closed, not tied to group sizes — so the pruning law is
/// checked for every skew profile, not only the ones a sketch produces.
fn seeded_skew(seed: u64, mask: Mask, key: &[Value]) -> bool {
    let pos = key.iter().fold(u64::from(mask.0) * 0x9e37, |h, v| {
        h.wrapping_mul(31)
            .wrapping_add(v.as_int().unwrap_or(0) as u64)
    });
    (seed >> (pos % 64)) & 1 == 1
}

/// BUC from cuboid `fixed` over `tuples`, with `keep`, as sorted
/// `(group, output)` pairs.
fn buc_pairs(
    tuples: &[&Tuple],
    d: usize,
    fixed: Mask,
    keep: &impl Fn(Mask, &Tuple) -> bool,
) -> Vec<(Group, AggOutput)> {
    let mut refs = tuples.to_vec();
    let mut out = Vec::new();
    buc_from(
        &mut refs,
        d,
        fixed,
        AggSpec::Sum,
        &BucConfig::default(),
        keep,
        &mut |g, s| out.push((g, s.finalize())),
    );
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn buc_equals_naive(rel in arb_relation()) {
        for agg in [AggSpec::Count, AggSpec::Sum, AggSpec::Min, AggSpec::Max] {
            let a = buc(&rel, agg, &BucConfig::default());
            let b = naive_cube(&rel, agg);
            prop_assert!(a.approx_eq(&b, 1e-9), "{agg:?}: {:?}", a.diff(&b, 1e-9, 3));
        }
    }

    #[test]
    fn pipesort_equals_naive(rel in arb_relation()) {
        for agg in [AggSpec::Count, AggSpec::Sum, AggSpec::CountDistinct] {
            let a = pipesort(&rel, agg);
            let b = naive_cube(&rel, agg);
            prop_assert!(a.approx_eq(&b, 1e-9), "{agg:?}: {:?}", a.diff(&b, 1e-9, 3));
        }
    }

    #[test]
    fn spcube_equals_naive(rel in arb_relation(), k in 1usize..8, m in 1usize..30) {
        let cluster = ClusterConfig::new(k, m);
        let run = sp_cube(&rel, &cluster, AggSpec::Sum).unwrap();
        let expect = naive_cube(&rel, AggSpec::Sum);
        prop_assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "k={k} m={m}: {:?}",
            run.cube.diff(&expect, 1e-9, 3)
        );
    }

    #[test]
    fn baselines_equal_naive(rel in arb_relation(), k in 1usize..6) {
        let cluster = ClusterConfig::new(k, 10);
        let expect = naive_cube(&rel, AggSpec::Count);
        let pig = mr_cube(&rel, &cluster, &MrCubeConfig::new(AggSpec::Count)).unwrap();
        prop_assert!(pig.cube.approx_eq(&expect, 1e-9));
        let nv = naive_mr_cube(&rel, &cluster, AggSpec::Count).unwrap();
        prop_assert!(nv.cube.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn exact_sketch_skews_are_exactly_the_large_groups(rel in arb_relation(), m in 1usize..20) {
        let cluster = ClusterConfig::new(4, m);
        let sketch = build_exact_sketch(&rel, &cluster);
        let counts = naive_cube(&rel, AggSpec::Count);
        for (g, out) in counts.iter() {
            let expected_skew = out.number() as usize > m;
            prop_assert_eq!(
                sketch.is_skewed_group(g),
                expected_skew,
                "group {} count {}",
                g,
                out.number()
            );
        }
    }

    #[test]
    fn group_projection_commutes(dims in proptest::collection::vec(0i64..5, 1..5)) {
        let d = dims.len();
        let t = Tuple::new(dims.into_iter().map(Value::Int).collect(), 1.0);
        for mask in Mask::full(d).subsets() {
            let g = Group::of_tuple(&t, mask);
            for sub in mask.subsets() {
                prop_assert_eq!(g.project(sub), Group::of_tuple(&t, sub));
            }
        }
    }

    #[test]
    fn anchor_assignment_is_consistent(skew_bits in 0u32..256) {
        // Treat the bitset as a skew oracle over a 3-bit lattice (8 masks).
        let oracle = |m: Mask| skew_bits & (1 << m.0) != 0;
        for h in (0u32..8).map(Mask) {
            if let Some(a) = anchor_mask(h, oracle) {
                // The anchor is a subset, non-skewed, and itself an anchor.
                prop_assert!(a.is_subset_of(h));
                prop_assert!(!oracle(a));
                prop_assert!(is_anchor(a, oracle));
                // No BFS-earlier non-skewed subset exists.
                for sub in h.subsets() {
                    if !oracle(sub) {
                        let key = |m: Mask| (m.arity(), m.0);
                        prop_assert!(key(a) <= key(sub));
                    }
                }
            } else {
                // Every subset (including h) is skewed.
                for sub in h.subsets() {
                    prop_assert!(oracle(sub));
                }
            }
        }
    }

    #[test]
    fn cube_group_count_is_sum_of_distinct_projections(rel in arb_relation()) {
        let cube = naive_cube(&rel, AggSpec::Count);
        let d = rel.arity();
        let expected: usize = Mask::full(d)
            .subsets()
            .map(|m| {
                let mut keys: Vec<_> = rel.tuples().iter().map(|t| t.project(m)).collect();
                keys.sort();
                keys.dedup();
                keys.len()
            })
            .sum();
        prop_assert_eq!(cube.len(), expected);
    }

    #[test]
    fn assignment_pruned_buc_equals_filtered_buc(rel in arb_relation(), seed in 0..u64::MAX) {
        let d = rel.arity();
        let assigned = |h: Mask, anchor: Mask, t: &Tuple| {
            anchor_mask(h, |sub| seeded_skew(seed, sub, &t.project(sub))) == Some(anchor)
        };
        for anchor in Mask::full(d).subsets() {
            let mut keys: Vec<Vec<Value>> = rel.tuples().iter().map(|t| t.project(anchor)).collect();
            keys.sort();
            keys.dedup();
            for key in keys {
                let group: Vec<&Tuple> =
                    rel.tuples().iter().filter(|t| t.project(anchor) == key).collect();
                let pruned = buc_pairs(&group, d, anchor, &|h, t| assigned(h, anchor, t));
                let mut filtered = buc_pairs(&group, d, anchor, &|_, _| true);
                filtered.retain(|(g, _)| {
                    anchor_mask(g.mask, |sub| seeded_skew(seed, sub, &g.project(sub).key))
                        == Some(anchor)
                });
                prop_assert_eq!(pruned, filtered, "anchor {:?} key {:?}", anchor, key);
            }
        }
        // With nothing pruned, buc_from from the apex is the whole cube.
        let all: Vec<&Tuple> = rel.tuples().iter().collect();
        let unpruned = Cube::from_pairs(buc_pairs(&all, d, Mask::EMPTY, &|_, _| true));
        let expect = buc(&rel, AggSpec::Sum, &BucConfig::default());
        prop_assert!(unpruned.approx_eq(&expect, 0.0), "{:?}", unpruned.diff(&expect, 0.0, 3));
    }

    #[test]
    fn pruned_spcube_equals_buc_under_iceberg_and_ablations(
        rel in arb_relation(),
        k in 1usize..8,
        m_support in (1usize..30).prop_flat_map(|m| (m..=m, 1..=m + 1)),
        ablation in 0u8..4,
    ) {
        let (m, min_support) = m_support;
        let (factorize, skew_agg) = (ablation & 1 == 0, ablation & 2 == 0);
        let mut cfg = SpCubeConfig::new(AggSpec::Sum);
        cfg.min_support = min_support;
        cfg.factorize_ancestors = factorize;
        cfg.map_side_skew_aggregation = skew_agg;
        let run = SpCube::run(&rel, &ClusterConfig::new(k, m), &cfg).unwrap();
        let expect = buc(&rel, AggSpec::Sum, &BucConfig { min_support });
        prop_assert!(
            run.cube.approx_eq(&expect, 1e-9),
            "k={} m={} min_support={} factorize={} skew_agg={}: {:?}",
            k,
            m,
            min_support,
            factorize,
            skew_agg,
            run.cube.diff(&expect, 1e-9, 3)
        );
    }
}
