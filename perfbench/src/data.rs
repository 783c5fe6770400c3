//! Seeded inputs and the helpers every workload shares: relations, query
//! lists, answer fingerprints, byte accounting and peak memory.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use spcube_agg::AggOutput;
use spcube_common::io::write_tsv;
use spcube_common::{Group, Mask, Relation, Result};
use spcube_cubestore::{gen_prefix, manifest_path, BlobStore, Request, Response};
use spcube_datagen::{gen_query_workload, gen_zipf, QuerySpec, Zipf};

/// Dimensions of every relation (the paper's gen-zipf instance).
pub const D: usize = 4;

/// Queries drawn from one `gen_query_workload` call.
const SESSION_QUERIES: usize = 256;

/// Cuboid popularity: `Zipf(16, SKEW)` over [`ranking`], the model
/// `gen_query_workload` uses at this skew.
const SKEW: f64 = 1.0;

/// Seed of the cuboid popularity ranking. It is fixed, not taken from
/// the workload seed: which cuboids are hot is part of the workload, so
/// every seed measures the same ones, and the seed picks only the data
/// and the queries' keys.
const RANKING_SEED: u64 = 0x005e_ed0f_c0b0;

/// Queries in one cycle of a query list, before rounding.
const CYCLE: f64 = 500.0;

/// Share of each kind in the generator's mix: point, slice, top-k,
/// roll-up and length probes.
const KIND_SHARE: [f64; 5] = [0.40, 0.25, 0.15, 0.10, 0.10];

/// Sessions tried before a cycle is given up as complete.
const MAX_SESSIONS: u64 = 20_000;

/// A sub-seed of `seed` for input stream `stream` (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// gen-zipf with `n` rows and `D` dimensions. The generator gives every
/// row measure 1; here each row gets an integer measure in `1..=100`
/// instead, so SUM and AVG answers differ from counts, while every sum
/// stays exact in `f64` whatever the order of addition.
pub fn zipf_relation(n: usize, seed: u64) -> Relation {
    let base = gen_zipf(n, D, mix(seed, 1));
    let mut rel = Relation::empty(base.schema().clone());
    let mut state = mix(seed, 2);
    for t in base.tuples() {
        state = mix(state, 3);
        rel.push_row(t.dims.to_vec(), (state % 100 + 1) as f64);
    }
    rel
}

/// The rows of `rels` as one relation.
pub fn concat(rels: &[&Relation]) -> Result<Relation> {
    let mut out = Relation::empty(rels[0].schema().clone());
    for rel in rels {
        for t in rel.tuples() {
            out.push(t.clone())?;
        }
    }
    Ok(out)
}

/// All cuboids, hottest first: a seeded shuffle with [`RANKING_SEED`].
fn ranking() -> Vec<Mask> {
    let mut ranked: Vec<Mask> = Mask::full(D).subsets().collect();
    for i in (1..ranked.len()).rev() {
        let j = (mix(RANKING_SEED, i as u64) % (i as u64 + 1)) as usize;
        ranked.swap(i, j);
    }
    ranked
}

/// Queries of each (kind, target cuboid) in one cycle of a query list:
/// `CYCLE` × the cuboid's `Zipf(16, SKEW)` weight × the kind's share,
/// rounded. Slices need a grouped dimension, so none go to the apex;
/// a roll-up reads a coarser cuboid than its group's, so none target the
/// base cuboid.
fn cycle_quota() -> BTreeMap<(usize, Mask), usize> {
    let full = Mask::full(D);
    let ranked = ranking();
    let zipf = Zipf::new(ranked.len(), SKEW);
    let mut quota = BTreeMap::new();
    for (rank, &mask) in ranked.iter().enumerate() {
        for (kind, share) in KIND_SHARE.iter().enumerate() {
            let feasible = match kind {
                1 => mask != Mask(0),
                3 => mask != full,
                _ => true,
            };
            let n = (CYCLE * zipf.pmf(rank + 1) * share).round() as usize;
            if feasible && n > 0 {
                quota.insert((kind, mask), n);
            }
        }
    }
    quota
}

/// A query list over `rel` of `cycles` cycles. Each cycle holds exactly
/// the queries of [`cycle_quota`], so the list follows the Zipf
/// popularity of the cuboids and the kind mix at every cycle boundary,
/// and the cost of a run does not hang on how many top-k queries on
/// large cuboids one seed happens to draw. The queries themselves come
/// from consecutive seeded `gen_query_workload` sessions, drawn uniformly
/// over the cuboids: a query is kept while its quota is open. Each cycle
/// is then shuffled, so its kinds and cuboids interleave.
pub fn queries(rel: &Relation, cycles: usize, seed: u64) -> Vec<Request> {
    let mut out = Vec::new();
    let mut session = 0;
    for cycle in 0..cycles as u64 {
        let mut quota = cycle_quota();
        let mut picked = Vec::new();
        while !quota.is_empty() && session < MAX_SESSIONS {
            for spec in gen_query_workload(rel, SESSION_QUERIES, 0.0, mix(seed, 100 + session)) {
                let key = (kind_of(&spec), spec.target_mask());
                if let Some(left) = quota.get_mut(&key) {
                    *left -= 1;
                    if *left == 0 {
                        quota.remove(&key);
                    }
                    picked.push(to_request(spec));
                }
            }
            session += 1;
        }
        for i in (1..picked.len()).rev() {
            let j = (mix(mix(seed, cycle), i as u64) % (i as u64 + 1)) as usize;
            picked.swap(i, j);
        }
        out.extend(picked);
    }
    out
}

fn kind_of(spec: &QuerySpec) -> usize {
    match spec {
        QuerySpec::Point { .. } => 0,
        QuerySpec::Slice { .. } => 1,
        QuerySpec::TopK { .. } => 2,
        QuerySpec::RollUp { .. } => 3,
        QuerySpec::CuboidLen { .. } => 4,
    }
}

fn to_request(spec: QuerySpec) -> Request {
    match spec {
        QuerySpec::Point { mask, key } => Request::Point { mask, key },
        QuerySpec::Slice { mask, dim, value } => Request::Slice { mask, dim, value },
        QuerySpec::TopK { mask, n } => Request::TopK { mask, n },
        QuerySpec::RollUp { group, dim } => Request::RollUp { group, dim },
        QuerySpec::CuboidLen { mask } => Request::CuboidLen { mask },
    }
}

/// Point, roll-up and length queries are lookups; slices and top-k are
/// scans.
pub fn is_lookup(req: &Request) -> bool {
    matches!(
        req,
        Request::Point { .. } | Request::RollUp { .. } | Request::CuboidLen { .. }
    )
}

/// For each request, the index of the first request in `reqs` equal to
/// it. Reference answers are computed once per distinct request: a query
/// list repeats every top-k request and many slices.
pub fn first_equal(reqs: &[Request]) -> Vec<usize> {
    let mut first: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    reqs.iter()
        .enumerate()
        .map(|(i, r)| *first.entry(format!("{r:?}")).or_insert(i))
        .collect()
}

/// A 64-bit digest of a response, exact over every float's bit pattern.
pub fn fingerprint(resp: &Response) -> u64 {
    fn output(h: &mut DefaultHasher, out: &AggOutput) {
        match out {
            AggOutput::Number(x) => x.to_bits().hash(h),
            AggOutput::TopK(pairs) => {
                pairs.len().hash(h);
                for (v, c) in pairs {
                    v.to_bits().hash(h);
                    c.hash(h);
                }
            }
        }
    }
    fn rows(h: &mut DefaultHasher, rows: &[(Group, AggOutput)]) {
        rows.len().hash(h);
        for (g, out) in rows {
            g.hash(h);
            output(h, out);
        }
    }
    let mut h = DefaultHasher::new();
    std::mem::discriminant(resp).hash(&mut h);
    match resp {
        Response::Value(v) => {
            if let Some(out) = v {
                output(&mut h, out);
            }
        }
        Response::Rolled(v) => {
            if let Some((g, out)) = v {
                g.hash(&mut h);
                output(&mut h, out);
            }
        }
        Response::Rows(r) => rows(&mut h, r),
        Response::Ranked(r) => {
            r.len().hash(&mut h);
            for (g, x) in r {
                g.hash(&mut h);
                x.to_bits().hash(&mut h);
            }
        }
        Response::Len(n) => n.hash(&mut h),
        Response::Failed(msg) => msg.hash(&mut h),
    }
    h.finish()
}

struct Counter(u64);

impl Write for Counter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bytes of `rel`'s rows written as TSV, header excluded.
pub fn tsv_bytes(rel: &Relation) -> Result<u64> {
    let mut all = Counter(0);
    write_tsv(rel, &mut all)?;
    let mut header = Counter(0);
    write_tsv(&Relation::empty(rel.schema().clone()), &mut header)?;
    Ok(all.0 - header.0)
}

/// Bytes of the blobs a reader of `prefix` depends on: the root manifest
/// plus every blob of the live generations `gens`.
pub fn live_bytes(blobs: &dyn BlobStore, prefix: &str, gens: &[u64]) -> Result<u64> {
    let root = manifest_path(prefix);
    let dirs: Vec<String> = gens.iter().map(|&g| gen_prefix(prefix, g) + "/").collect();
    Ok(blobs
        .list(prefix)?
        .into_iter()
        .filter(|(p, _)| *p == root || dirs.iter().any(|d| p.starts_with(d.as_str())))
        .map(|(_, size)| size)
        .sum())
}

/// The highest resident set size of this process seen while it runs,
/// sampled every [`RSS_PERIOD`] on a background thread.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<std::result::Result<u64, String>>,
}

const RSS_PERIOD: Duration = Duration::from_millis(5);

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut peak = rss_kb()?;
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(RSS_PERIOD);
                peak = peak.max(rss_kb()?);
            }
            Ok(peak)
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling; the peak in MiB.
    pub fn stop(self) -> std::result::Result<f64, String> {
        self.stop.store(true, Ordering::Relaxed);
        let kb = self
            .handle
            .join()
            .map_err(|_| "RSS sampler panicked".to_string())??;
        Ok(kb as f64 / 1024.0)
    }
}

/// Resident set size of this process in KiB (`VmRSS`).
fn rss_kb() -> std::result::Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_and_target(req: &Request) -> (usize, Mask) {
        match req {
            Request::Point { mask, .. } => (0, *mask),
            Request::Slice { mask, .. } => (1, *mask),
            Request::TopK { mask, .. } => (2, *mask),
            Request::RollUp { group, dim } => (3, group.mask.without(*dim)),
            Request::CuboidLen { mask } => (4, *mask),
        }
    }

    #[test]
    fn every_cycle_holds_exactly_the_zipf_quota() {
        let rel = zipf_relation(2_000, 3);
        let quota = cycle_quota();
        let per_cycle: usize = quota.values().sum();
        let list = queries(&rel, 3, 11);
        assert_eq!(list.len(), 3 * per_cycle);
        for cycle in list.chunks(per_cycle) {
            let mut seen: BTreeMap<(usize, Mask), usize> = BTreeMap::new();
            for req in cycle {
                *seen.entry(kind_and_target(req)).or_default() += 1;
            }
            assert_eq!(seen, quota);
        }
        assert_eq!(list, queries(&rel, 3, 11));
        assert_ne!(list, queries(&rel, 3, 12));
    }

    #[test]
    fn cuboid_traffic_follows_the_ranking() {
        let quota = cycle_quota();
        let total: usize = quota.values().sum();
        let ranked = ranking();
        let of = |mask: Mask| -> usize {
            quota
                .iter()
                .filter(|((_, m), _)| *m == mask)
                .map(|(_, &n)| n)
                .sum()
        };
        let top4: usize = ranked[..4].iter().map(|&m| of(m)).sum();
        // Zipf(16, 1.0) gives the four hottest cuboids about 61% of reads.
        let share = top4 as f64 / total as f64;
        assert!((0.55..0.67).contains(&share), "top-4 share {share}");
        assert!(of(ranked[0]) > 4 * of(ranked[15]));
    }

    #[test]
    fn first_equal_points_every_repeat_at_its_first_occurrence() {
        let rel = zipf_relation(2_000, 3);
        let reqs = queries(&rel, 2, 9);
        let first = first_equal(&reqs);
        for (i, &f) in first.iter().enumerate() {
            assert!(f <= i);
            assert_eq!(reqs[f], reqs[i]);
            assert!(reqs[..f].iter().all(|r| *r != reqs[i]));
        }
        // Top-k requests carry no key, so a list repeats them.
        assert!(first.iter().enumerate().any(|(i, &f)| f < i));
    }
}
