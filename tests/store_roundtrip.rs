//! Store-vs-memory round-trip guarantees of the CubeStore subsystem.
//!
//! The contract under test: a cube persisted with [`write_store`] and read
//! back through [`CubeStore`]'s [`CubeRead`] interface answers every query
//! exactly as the in-memory [`CubeQuery`] over the original cube does —
//! across data families, aggregates, and iceberg thresholds — and a
//! corrupted segment degrades to a BUC recompute instead of a wrong (or
//! missing) answer. The lattice-edge tests pin down behaviour at the
//! degenerate ends of the cuboid lattice: the apex, the base cuboid, and
//! cuboids no group survives into.

use std::sync::Arc;

use proptest::prelude::*;

use sp_cube_repro::agg::AggSpec;
use sp_cube_repro::common::{Group, Mask, Relation, Schema, Value};
use sp_cube_repro::cubealg::{buc, naive_cube, BucConfig, CubeQuery, CubeRead};
use sp_cube_repro::cubestore::{segment_path, write_store, BlobStore, CubeStore, Segment};
use sp_cube_repro::datagen;
use sp_cube_repro::mapreduce::Dfs;

/// Persist `rel`'s cube and open it back through the store.
fn stored(
    rel: &Relation,
    agg: AggSpec,
    min_support: usize,
) -> (sp_cube_repro::cubealg::Cube, CubeStore) {
    let cube = buc(rel, agg, &BucConfig { min_support });
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "t", &cube, rel.arity(), agg, min_support).unwrap();
    let store = CubeStore::open(dfs as Arc<dyn BlobStore>, "t").unwrap();
    (cube, store)
}

/// Assert the store and the in-memory view agree on every cuboid, every
/// point, and every top-k ranking.
fn assert_equivalent(rel: &Relation, agg: AggSpec, min_support: usize) {
    let (cube, store) = stored(rel, agg, min_support);
    let d = rel.arity();
    let mem = CubeQuery::new(&cube, d);
    assert_eq!(store.dims(), d);
    for mask in Mask::full(d).subsets() {
        let from_store = store.cuboid_rows(mask).unwrap();
        let from_mem: Vec<(Group, _)> = mem
            .cuboid(mask)
            .iter()
            .map(|(g, v)| ((*g).clone(), (*v).clone()))
            .collect();
        assert_eq!(from_store, from_mem, "cuboid {mask} differs");
        for (g, v) in &from_mem {
            assert_eq!(
                store.point(mask, &g.key).unwrap().as_ref(),
                Some(v),
                "point {g:?} differs"
            );
        }
        let ranked = store.top(mask, 5).unwrap();
        let expected: Vec<(Group, f64)> = mem
            .top(mask, 5)
            .into_iter()
            .map(|(g, s)| (g.clone(), s))
            .collect();
        assert_eq!(ranked, expected, "top-5 of {mask} differs");
    }
}

#[test]
fn round_trip_across_datagen_families() {
    let cases: Vec<Relation> = vec![
        datagen::gen_zipf(600, 3, 0xa1),
        datagen::gen_binomial(600, 3, 0.4, 0xa2),
        datagen::wikipedia_like(500, 0xa3),
        datagen::usagov_like(500, 0xa4),
        datagen::retail(400, 0.3, 0xa5),
        datagen::apex_only_skew(300, 3, 0xa6),
    ];
    for rel in &cases {
        assert_equivalent(rel, AggSpec::Count, 1);
    }
    // Iceberg threshold and a non-trivial aggregate on one skewed family.
    assert_equivalent(&datagen::gen_zipf(600, 3, 0xa7), AggSpec::Sum, 3);
    assert_equivalent(&datagen::gen_binomial(600, 3, 0.5, 0xa8), AggSpec::Avg, 2);
}

#[test]
fn corrupt_segment_degrades_to_recompute() {
    let rel = datagen::gen_zipf(500, 3, 0xbad);
    let cube = buc(&rel, AggSpec::Count, &BucConfig::default());
    let dfs = Arc::new(Dfs::new());
    write_store(dfs.as_ref(), "t", &cube, 3, AggSpec::Count, 1).unwrap();

    // Flip one bit in the base cuboid's segment: the checksum must catch
    // it and the store must fall back to recomputing from the relation.
    let victim = segment_path("t", 1, 3, Mask::full(3));
    dfs.corrupt_byte(&victim, 40).unwrap();
    let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "t")
        .unwrap()
        .with_recovery(rel.clone());

    let mem = CubeQuery::new(&cube, 3);
    let recomputed = store.cuboid_rows(Mask::full(3)).unwrap();
    let expected: Vec<(Group, _)> = mem
        .cuboid(Mask::full(3))
        .iter()
        .map(|(g, v)| ((*g).clone(), (*v).clone()))
        .collect();
    assert_eq!(
        recomputed, expected,
        "degraded answer differs from the truth"
    );
    assert_eq!(store.stats().degraded_recomputes, 1);

    // Without a recovery relation the corruption is a hard error.
    let blind = CubeStore::open(dfs as Arc<dyn BlobStore>, "t").unwrap();
    assert!(blind.cuboid_rows(Mask::full(3)).is_err());
}

#[test]
fn roll_up_at_the_apex_and_from_the_base() {
    let rel = datagen::retail(300, 0.2, 7);
    let (cube, store) = stored(&rel, AggSpec::Count, 1);
    let mem = CubeQuery::new(&cube, 3);

    // From the base cuboid (all bits set), rolling up any dimension
    // matches the in-memory answer.
    let base = Mask::full(3);
    let (g, _) = store.cuboid_rows(base).unwrap().into_iter().next().unwrap();
    for dim in 0..3 {
        let from_store = store.roll_up(&g, dim).unwrap();
        let from_mem = mem
            .roll_up(&g, dim)
            .unwrap()
            .map(|(rg, rv)| (rg.clone(), rv.clone()));
        assert_eq!(from_store, from_mem);
    }

    // At the apex there is nothing left to roll up: every dimension is
    // already ungrouped, so the call is an error on both backends.
    let apex = Group::new(Mask::EMPTY, Vec::new());
    for dim in 0..3 {
        assert!(store.roll_up(&apex, dim).is_err());
        assert!(mem.roll_up(&apex, dim).is_err());
    }
    // And a single-dimension group rolls up *to* the apex.
    let (g1, _) = store
        .cuboid_rows(Mask::single(0))
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let (apex_g, apex_v) = store.roll_up(&g1, 0).unwrap().expect("apex exists");
    assert_eq!(apex_g.mask, Mask::EMPTY);
    assert_eq!(Some(&apex_v), mem.group(Mask::EMPTY, &[]));
}

#[test]
fn drill_down_at_the_base_cuboid_is_an_error() {
    let rel = datagen::retail(300, 0.2, 7);
    let (cube, store) = stored(&rel, AggSpec::Count, 1);
    let mem = CubeQuery::new(&cube, 3);
    let base = Mask::full(3);
    let (g, _) = store.cuboid_rows(base).unwrap().into_iter().next().unwrap();
    // Every dimension is already grouped: no finer cuboid exists.
    for dim in 0..3 {
        assert!(store.drill_down(&g, dim).is_err());
        assert!(mem.drill_down(&g, dim).is_err());
    }
}

#[test]
fn slice_on_an_empty_cuboid_is_empty() {
    // With an iceberg threshold larger than any partition, fine cuboids
    // lose all their groups; slicing one must answer [] rather than err.
    let mut rel = Relation::empty(Schema::synthetic(2));
    for i in 0..6i64 {
        rel.push_row(vec![Value::Int(i), Value::Int(i)], 1.0);
    }
    let (cube, store) = stored(&rel, AggSpec::Count, 2);
    let base = Mask::full(2);
    assert_eq!(
        store.cuboid_len(base).unwrap(),
        0,
        "iceberg pruned the base cuboid"
    );
    assert!(store.slice(base, 0, &Value::Int(1)).unwrap().is_empty());
    assert!(CubeQuery::new(&cube, 2)
        .slice(base, 0, &Value::Int(1))
        .unwrap()
        .is_empty());
    // Slicing on an ungrouped dimension stays an error even when empty.
    assert!(store.slice(Mask::single(0), 1, &Value::Int(1)).is_err());
}

/// 64-bit FNV-1a of a whole blob, for pinning encoded bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(path, length, checksum)` of every segment blob `write_store` writes
/// for `rel`'s cube, in listing order.
fn segment_fingerprints(
    rel: &Relation,
    agg: AggSpec,
    min_support: usize,
) -> Vec<(String, u64, u64)> {
    let cube = buc(rel, agg, &BucConfig { min_support });
    let dfs = Dfs::new();
    write_store(&dfs, "pin", &cube, rel.arity(), agg, min_support).unwrap();
    dfs.list("pin")
        .unwrap()
        .into_iter()
        .filter(|(path, _)| path.ends_with(".cseg"))
        .map(|(path, _)| {
            let bytes = dfs.get(&path).unwrap();
            (path, bytes.len() as u64, fnv64(&bytes))
        })
        .collect()
}

/// The CSEG1 encoding is a persisted format: the bytes a cube writes are
/// pinned, for integer dimensions (gen-zipf) and for string dimensions
/// mixed with an integer one (retail).
#[test]
fn cseg1_bytes_are_pinned() {
    // (cuboid mask, blob length, FNV-1a) of every `.cseg` in generation 1.
    const ZIPF: &[(&str, u64, u64)] = &[
        ("0000", 42, 0x36f2e6a42c0ac4ec),
        ("0001", 11439, 0x98ce67f979efb38e),
        ("0010", 11857, 0x86c7ed3fd67026a0),
        ("0011", 45455, 0xc3a2dabd922579cb),
        ("0100", 20815, 0x32f3ba4386d661a3),
        ("0101", 61855, 0xc9df5f4fe5896069),
        ("0110", 61721, 0xa0e479ae00c1f914),
        ("0111", 81876, 0xfa14280a889d2c84),
        ("1000", 21079, 0xd73f81f7adbc80d6),
        ("1001", 61912, 0xc2bba755111930ea),
        ("1010", 62066, 0x320e4f3b2391d33e),
        ("1011", 81921, 0xa2cc64a2ca0f4b51),
        ("1100", 68718, 0xe36db51da97b7036),
        ("1101", 85818, 0xda4886ad58f22276),
        ("1110", 85989, 0x1fa6f703b34f3fee),
        ("1111", 103004, 0xd2f066de9dc8b8da),
    ];
    const RETAIL: &[(&str, u64, u64)] = &[
        ("000", 42, 0xf847ac80a0690ed0),
        ("001", 303, 0x8e4565c3a3369a15),
        ("010", 237, 0xcddc5f8cd78d8a38),
        ("011", 1632, 0x2d42d00970f2c124),
        ("100", 397, 0xc989b71d7201aa96),
        ("101", 2656, 0x3dfee4149a970072),
        ("110", 2328, 0x50edd1c308ad43b7),
        ("111", 2406, 0x5bd341570013cde3),
    ];
    let cases = [
        (
            "zipf",
            segment_fingerprints(&datagen::gen_zipf(3000, 4, 0x5eed), AggSpec::Sum, 1),
            ZIPF,
        ),
        (
            "retail",
            segment_fingerprints(&datagen::retail(800, 0.3, 0x5eed), AggSpec::Avg, 2),
            RETAIL,
        ),
    ];
    for (name, got, want) in cases {
        let want: Vec<(String, u64, u64)> = want
            .iter()
            .map(|&(mask, len, sum)| (format!("pin/gen-00000001/cuboid-{mask}.cseg"), len, sum))
            .collect();
        assert_eq!(got, want, "{name} segment bytes changed");
    }
}

/// `Segment::build` sorts its input: a shuffled copy of a cuboid's rows
/// encodes to exactly the bytes of the sorted rows.
#[test]
fn segment_bytes_do_not_depend_on_row_order() {
    let rel = datagen::retail(800, 0.3, 0x5eed);
    let cube = buc(&rel, AggSpec::Sum, &BucConfig::default());
    let mem = CubeQuery::new(&cube, 3);
    for mask in Mask::full(3).subsets() {
        let sorted: Vec<(Box<[Value]>, _)> = mem
            .cuboid(mask)
            .iter()
            .map(|(g, v)| (g.key.clone(), (*v).clone()))
            .collect();
        // A seeded Fisher-Yates shuffle (xorshift64).
        let mut shuffled = sorted.clone();
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(mask.0);
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let a = Segment::build(3, mask, sorted).encode().unwrap();
        let b = Segment::build(3, mask, shuffled).encode().unwrap();
        assert_eq!(a, b, "cuboid {mask}: row order changed the bytes");
    }
}

/// Strategy: a small relation with clustered values (small domains force
/// shared groups) and 1-3 dimensions.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=3, 1usize..=40).prop_flat_map(|(d, n)| {
        let tuple = proptest::collection::vec(0i64..3, d);
        proptest::collection::vec((tuple, -5i64..5), n).prop_map(move |rows| {
            let mut rel = Relation::empty(Schema::synthetic(d));
            for (dims, m) in rows {
                rel.push_row(dims.into_iter().map(Value::Int).collect(), m as f64);
            }
            rel
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_matches_memory_on_arbitrary_relations(rel in arb_relation()) {
        for (agg, ms) in [(AggSpec::Count, 1), (AggSpec::Sum, 1), (AggSpec::Max, 2)] {
            let (cube, store) = stored(&rel, agg, ms);
            let d = rel.arity();
            let mem = CubeQuery::new(&cube, d);
            for mask in Mask::full(d).subsets() {
                let got = store.cuboid_rows(mask).unwrap();
                let want: Vec<(Group, _)> = mem
                    .cuboid(mask)
                    .iter()
                    .map(|(g, v)| ((*g).clone(), (*v).clone()))
                    .collect();
                prop_assert_eq!(got, want, "{:?}/{} cuboid {} differs", agg, ms, mask);
            }
        }
        // And the sequential reference agrees that what we stored at
        // min_support 1 is the full cube.
        let (cube, _) = stored(&rel, AggSpec::Count, 1);
        prop_assert!(cube.approx_eq(&naive_cube(&rel, AggSpec::Count), 1e-9));
    }
}
