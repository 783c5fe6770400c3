//! The two serving workloads.
//!
//! * `serve-hot`: a full store built from the SP-Cube of gen-zipf 50k,
//!   cached whole and warmed, driven by two closed-loop clients.
//! * `serve-ingest`: an AVG delta store under a writer committing
//!   2,000-row batches back to back, read by one closed-loop client
//!   through a cold 4-segment cache that every commit replaces.
//!
//! Both drive a 2-worker `CubeServer` through a `ResilientClient`; the
//! traced window uses `query_profiled` for the per-phase split and a
//! `TimedBlobs` under the store for blob traffic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use spcube_agg::AggSpec;
use spcube_common::{Group, Mask, Relation};
use spcube_core::{SpCube, SpCubeConfig};
use spcube_cubealg::{Cube, CubeQuery, CubeRead};
use spcube_cubestore::{
    answer, ingest_batch, state_cube, write_store, BlobStore, ClientConfig, CompactionPolicy,
    CubeServer, CubeStore, IngestConfig, IngestOutcome, IngestSession, Request, ResilientClient,
    Response, ServeError, ServerConfig, StoreStats,
};
use spcube_mapreduce::{ClusterConfig, Dfs};
use spcube_obs::{ObsHandle, PhaseBreakdown};

use crate::blobs::{BlobCounts, TimedBlobs};
use crate::data::{
    concat, fingerprint, first_equal, is_lookup, live_bytes, mix, queries, tsv_bytes,
    zipf_relation, RssSampler, D,
};
use crate::report::Report;
use crate::stats::Dist;

const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const SETUPS: usize = 3;
const ALL_CUBOIDS: usize = 1 << D;

/// One answered query.
struct Sample {
    idx: usize,
    lookup: bool,
    us: f64,
    phases: Option<PhaseBreakdown>,
    layers: usize,
}

/// What the clients of one measured window saw.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    seconds: f64,
    first_error: Option<String>,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.seconds += other.seconds;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.seconds
    }

    fn latencies(&self, lookup: bool) -> Dist {
        Dist::new(
            self.samples
                .iter()
                .filter(|s| s.lookup == lookup)
                .map(|s| s.us)
                .collect(),
        )
    }

    fn phase(&self, f: impl Fn(&PhaseBreakdown) -> u64) -> Dist {
        Dist::new(
            self.samples
                .iter()
                .filter_map(|s| s.phases.as_ref().map(|p| f(p) as f64))
                .collect(),
        )
    }

    /// Client latency not covered by the profiled phases, as a share of
    /// all client latency.
    fn residual(&self) -> f64 {
        let (mut gap, mut total) = (0.0, 0.0);
        for s in &self.samples {
            if let Some(p) = &s.phases {
                gap += s.us - p.phase_sum_us() as f64;
                total += s.us;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            gap.abs() / total
        }
    }

    /// Record one query's outcome; `expected` is the answer's fingerprint
    /// when the workload knows it in advance.
    fn record(
        &mut self,
        idx: usize,
        req: &Request,
        outcome: Outcome,
        expected: Option<u64>,
        layers: usize,
    ) {
        self.attempted += 1;
        let (result, phases, us) = outcome;
        let error = match result {
            Ok(Response::Failed(msg)) => Some(format!("failed response: {msg}")),
            Err(e) => Some(format!("typed error: {e}")),
            Ok(resp) if expected.is_some_and(|fp| fp != fingerprint(&resp)) => {
                Some(format!("wrong answer to {req:?}"))
            }
            Ok(_) => None,
        };
        if let Some(error) = error {
            self.failed += 1;
            self.first_error.get_or_insert(error);
            return;
        }
        self.samples.push(Sample {
            idx,
            lookup: is_lookup(req),
            us,
            phases,
            layers,
        });
    }
}

type Outcome = (Result<Response, ServeError>, Option<PhaseBreakdown>, f64);

fn client_for(store: Arc<CubeStore>) -> Result<ResilientClient, String> {
    let server = CubeServer::start(
        store,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            ..ServerConfig::default()
        },
    );
    ResilientClient::new(Arc::new(server), ClientConfig::default()).map_err(|e| e.to_string())
}

/// One query and its client-observed latency in microseconds.
fn issue(client: &ResilientClient, req: &Request, profiled: bool) -> Outcome {
    let t0 = Instant::now();
    let (result, phases) = if profiled {
        let p = client.query_profiled(req.clone(), None);
        (p.result, Some(p.phases))
    } else {
        (client.query(req.clone(), None), None)
    };
    (result, phases, t0.elapsed().as_secs_f64() * 1e6)
}

fn stats_since(now: StoreStats, before: StoreStats) -> (u64, u64) {
    (
        now.cache_hits - before.cache_hits,
        now.cache_misses - before.cache_misses,
    )
}

fn set_phase_layers(report: &mut Report, w: &Window) {
    let queue = w.phase(|p| p.queue_us);
    let exec = w.phase(|p| p.finalize_us);
    report.set("server.queue_us_p50", queue.median());
    report.set("server.queue_us_p99", queue.percentile(99));
    report.set("cubestore.exec_us_p50", exec.median());
    report.set("cubestore.exec_us_p99", exec.percentile(99));
    report.set(
        "cubestore.decode_us_p99",
        w.phase(|p| p.decode_us).percentile(99),
    );
    report.set("delta.merge_us_p99", w.phase(|p| p.merge_us).percentile(99));
    report.set("trace.residual", w.residual());
    report.named(
        "server.queue_us_p99",
        queue.percentile(99),
        "us",
        queue.note(99),
    );
    report.named(
        "cubestore.exec_us_p99",
        exec.percentile(99),
        "us",
        exec.note(99),
    );
}

fn set_cache_layers(
    report: &mut Report,
    hits: u64,
    misses: u64,
    blobs: BlobCounts,
    queries: usize,
) {
    let accesses = (hits + misses).max(1);
    report.set("cubestore.cache.hit_rate", hits as f64 / accesses as f64);
    report.set("cubestore.cache.misses", misses as f64);
    report.set("cubestore.blob.get_count", blobs.gets as f64);
    report.set("cubestore.blob.get_bytes", blobs.get_bytes as f64);
    report.set("cubestore.blob.get_s", blobs.get_s);
    report.set(
        "cubestore.blob.reads_per_query",
        blobs.gets as f64 / queries.max(1) as f64,
    );
}

/// Count a window's reads; every one must have been answered correctly.
fn record_reads(report: &mut Report, label: &str, w: &Window) {
    let first = w
        .first_error
        .as_ref()
        .map(|e| format!("; first failure: {e}"))
        .unwrap_or_default();
    report.tally(
        format!(
            "{label}: {} of {} queries answered correctly{first}",
            w.attempted - w.failed,
            w.attempted
        ),
        w.attempted,
        w.failed,
    );
}

/// The user-facing serving metrics of the untraced window.
fn set_serving_e2e(report: &mut Report, w: &Window) {
    record_reads(report, "untraced window", w);
    report.set("ops_per_s", w.qps());
    report.named(
        "qps",
        w.qps(),
        "1/s",
        format!("{} queries in {:.3} s", w.samples.len(), w.seconds),
    );
    for (class, lookup) in [("lookup", true), ("scan", false)] {
        let dist = w.latencies(lookup);
        report.named(
            &format!("{class}_p50_us"),
            dist.median(),
            "us",
            dist.note(50),
        );
        let (pct, tail) = dist.tail();
        report.named(&format!("{class}_p{pct}_us"), tail, "us", dist.note(pct));
    }
}

fn warm(store: &CubeStore) -> Result<(), String> {
    for mask in Mask::full(D).subsets() {
        store.segment(mask).map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------- serve-hot

const HOT_ROWS: usize = 50_000;
const HOT_CYCLES: usize = 4;
const HOT_CLIENTS: usize = 2;
const HOT_PREFIX: &str = "hot";

struct HotSetup {
    dfs: Arc<Dfs>,
    store: Arc<CubeStore>,
    reqs: Vec<Request>,
    live_bytes: u64,
    tsv_bytes: u64,
}

/// Generate the relation and the query list, cube the relation with
/// SP-Cube, write the store and warm its cache with every cuboid. The
/// cube comes back beside the set-up: it is only the reference answers'
/// source, and the caller drops it before the measured windows.
fn hot_setup(seed: u64) -> Result<(HotSetup, Cube), String> {
    let rel = zipf_relation(HOT_ROWS, mix(seed, 10));
    let cfg = SpCubeConfig::new(AggSpec::Sum);
    let run = SpCube::run(&rel, &ClusterConfig::for_input(20, HOT_ROWS), &cfg)
        .map_err(|e| e.to_string())?;
    let dfs = Arc::new(Dfs::new());
    let written = write_store(dfs.as_ref(), HOT_PREFIX, &run.cube, D, cfg.agg, 1)
        .map_err(|e| e.to_string())?;
    let store = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, HOT_PREFIX)
        .map_err(|e| e.to_string())?
        .with_cache_capacity(ALL_CUBOIDS);
    warm(&store)?;
    let setup = HotSetup {
        live_bytes: live_bytes(dfs.as_ref(), HOT_PREFIX, &[written.generation])
            .map_err(|e| e.to_string())?,
        tsv_bytes: tsv_bytes(&rel).map_err(|e| e.to_string())?,
        dfs,
        store: Arc::new(store),
        reqs: queries(&rel, HOT_CYCLES, mix(seed, 11)),
    };
    Ok((setup, run.cube))
}

/// Two closed-loop clients issue the query list round-robin for
/// `seconds`, checking every answer against `expected`.
fn hot_window(
    store: Arc<CubeStore>,
    reqs: &[Request],
    expected: &[u64],
    seconds: f64,
    profiled: bool,
) -> Result<Window, String> {
    let client = client_for(store)?;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let parts: Vec<Window> = thread::scope(|s| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut w = Window::default();
                    while Instant::now() < end {
                        let idx = next.fetch_add(1, Ordering::Relaxed) % reqs.len();
                        let outcome = issue(&client, &reqs[idx], profiled);
                        w.record(idx, &reqs[idx], outcome, Some(expected[idx]), 0);
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window {
        seconds: t0.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for part in parts {
        window.absorb(part);
    }
    Ok(window)
}

/// Fingerprints of `answer()` over `CubeQuery` on the in-memory cube for
/// every query, computed once per distinct query on two threads, and
/// whether none of them failed.
fn reference_fingerprints(cube: &Cube, reqs: &[Request]) -> (Vec<u64>, bool) {
    let query = CubeQuery::new(cube, D);
    let first = first_equal(reqs);
    let distinct: Vec<usize> = (0..reqs.len()).filter(|&i| first[i] == i).collect();
    let parts: Vec<Vec<(usize, u64, bool)>> = thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(distinct.len().div_ceil(2).max(1))
            .map(|chunk| {
                let query = &query;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| {
                            let resp = answer(query, &reqs[i]);
                            (i, fingerprint(&resp), !matches!(resp, Response::Failed(_)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut fp = vec![0; reqs.len()];
    let mut ok = true;
    for (i, f, answered) in parts.into_iter().flatten() {
        fp[i] = f;
        ok &= answered;
    }
    (first.iter().map(|&i| fp[i]).collect(), ok)
}

/// Concurrent service time (latency minus queue wait) minus the serial,
/// uncontended `answer()` time of the same query on the same warm store,
/// timed once per distinct query.
fn contention(traced: &Window, store: &CubeStore, reqs: &[Request]) -> Dist {
    let first = first_equal(reqs);
    let mut serial: BTreeMap<usize, f64> = BTreeMap::new();
    for sample in &traced.samples {
        let idx = first[sample.idx];
        serial.entry(idx).or_insert_with(|| {
            let t0 = Instant::now();
            std::hint::black_box(answer(store, &reqs[idx]));
            t0.elapsed().as_secs_f64() * 1e6
        });
    }
    Dist::new(
        traced
            .samples
            .iter()
            .filter_map(|x| {
                let p = x.phases.as_ref()?;
                Some((p.total_us - p.queue_us) as f64 - serial[&first[x.idx]])
            })
            .collect(),
    )
}

pub fn run_hot(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("serve-hot");
    let t0 = Instant::now();
    let (s, cube) = hot_setup(seed)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    crate::progress("set-up", t0);

    let t0 = Instant::now();
    let (expected, reference_ok) = reference_fingerprints(&cube, &s.reqs);
    drop(cube);
    report.check(
        format!(
            "all {} queries have a non-failed reference answer on the in-memory cube",
            s.reqs.len()
        ),
        reference_ok,
    );
    crate::progress("reference answers", t0);

    let peak_rss;
    // Untimed warm-up of the client path (the cache is already warm).
    {
        let client = client_for(Arc::clone(&s.store))?;
        for req in &s.reqs {
            let _ = issue(&client, req, false);
        }
    }
    if !trace {
        let rss = RssSampler::start();
        let plain = hot_window(Arc::clone(&s.store), &s.reqs, &expected, seconds, false)?;
        peak_rss = rss.stop()?;
        set_serving_e2e(&mut report, &plain);
    } else {
        // Untraced and traced quarter-windows alternate, so both halves
        // see the same warm-up and the same drift of the host.
        let timed = Arc::new(TimedBlobs::new(Arc::clone(&s.dfs) as Arc<dyn BlobStore>));
        let store = CubeStore::open(Arc::clone(&timed) as Arc<dyn BlobStore>, HOT_PREFIX)
            .map_err(|e| e.to_string())?
            .with_cache_capacity(ALL_CUBOIDS)
            .with_obs(ObsHandle::wall());
        warm(&store)?;
        let store = Arc::new(store);
        let (blobs0, stats0) = (timed.counts(), store.stats());
        let (mut plain, mut traced) = (Window::default(), Window::default());
        let rss = RssSampler::start();
        for _ in 0..2 {
            let quarter = seconds / 4.0;
            plain.absorb(hot_window(
                Arc::clone(&s.store),
                &s.reqs,
                &expected,
                quarter,
                false,
            )?);
            traced.absorb(hot_window(
                Arc::clone(&store),
                &s.reqs,
                &expected,
                quarter,
                true,
            )?);
        }
        peak_rss = rss.stop()?;
        let (hits, misses) = stats_since(store.stats(), stats0);
        set_serving_e2e(&mut report, &plain);
        record_reads(&mut report, "traced window", &traced);
        set_phase_layers(&mut report, &traced);
        set_cache_layers(
            &mut report,
            hits,
            misses,
            timed.counts().since(&blobs0),
            traced.samples.len(),
        );
        report.set("trace.overhead", plain.qps() / traced.qps());
        let t0 = Instant::now();
        let contention = contention(&traced, &s.store, &s.reqs);
        crate::progress("serial replay", t0);
        report.set("cubestore.contention_us_p99", contention.percentile(99));
        report.named(
            "cubestore.contention_us_p99",
            contention.percentile(99),
            "us",
            contention.note(99),
        );
    }

    // The remaining set-ups only time set-up; they run after the windows
    // so their garbage does not sit in the windows' memory.
    let space_amp = s.live_bytes as f64 / s.tsv_bytes as f64;
    let (live, tsv) = (s.live_bytes, s.tsv_bytes);
    drop(s);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        drop(hot_setup(seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = Dist::new(setup_s);
    report.set("setup_s", setup_s.median());
    report.set("peak_rss_mb", peak_rss);
    report.set("space_amp", space_amp);
    report.named("setup_s", setup_s.median(), "s", setup_s.note(50));
    report.named(
        "space_amp",
        space_amp,
        "ratio",
        format!("{live} live bytes / {tsv} TSV bytes"),
    );
    report.named(
        "peak_rss_mb",
        peak_rss,
        "MB",
        "highest RSS sampled in the measured windows",
    );
    Ok(report)
}

// ------------------------------------------------------------- serve-ingest

const BASE_ROWS: usize = 20_000;
const BATCH_ROWS: usize = 2_000;
/// Most reads the reader serves on one store version: past them it waits
/// for the writer's next version, so a slow writer cannot let the reader
/// settle into a warm cache.
const READS_PER_VERSION: u64 = 8;
/// Batches generated per second of window: more than the writer lands on
/// a 2-core host (about 2.7 per second).
const BATCHES_PER_SECOND: f64 = 6.0;
/// The commit after which `write_amp` and `space_amp` are taken, so that
/// they depend on the seed only.
const SNAPSHOT_AT: usize = 24;
const INGEST_CACHE: usize = 4;
const MAX_LAYERS: usize = 4;
const INGEST_CYCLES: usize = 4;
const INGEST_PREFIX: &str = "inc";
/// Issued scans re-answered by the final-state check.
const CHECKED_SCANS: usize = 16;
/// Batch prefixes whose served answers are checked after a window.
const CHECKED_PREFIXES: usize = 3;

struct IngestSetup {
    base: Relation,
    batches: Vec<Relation>,
    dfs: Arc<Dfs>,
    reqs: Vec<Request>,
}

/// Generate the base, `batches` batches and the query list, and seed the
/// delta store with the base as its first layer.
fn ingest_setup(seed: u64, batches: usize) -> Result<IngestSetup, String> {
    let base = zipf_relation(BASE_ROWS, mix(seed, 20));
    let batches = (0..batches as u64)
        .map(|i| zipf_relation(BATCH_ROWS, mix(seed, 1_000 + i)))
        .collect();
    let dfs = Arc::new(Dfs::new());
    ingest_batch(dfs.as_ref(), INGEST_PREFIX, &base, AggSpec::Avg).map_err(|e| e.to_string())?;
    Ok(IngestSetup {
        reqs: queries(&base, INGEST_CYCLES, mix(seed, 21)),
        base,
        batches,
        dfs,
    })
}

/// What the writer of one window did.
#[derive(Default)]
struct Writes {
    applied: Vec<usize>,
    commit_ms: Vec<f64>,
    ingest_s: f64,
    compact_s: f64,
    open_s: f64,
    compactions: u64,
    ingest_bytes: u64,
    compact_bytes: u64,
    attempted: u64,
    failed: u64,
    /// Time spent waiting for the reader to move to a published store.
    wait_s: f64,
    /// Blob bytes put and live store bytes right after the snapshot
    /// commit: counts that depend only on the seed.
    snapshot: Option<(u64, u64)>,
    /// For each published store version, how many batches it holds.
    version_applied: Vec<usize>,
}

/// One answer the reader was served, kept for the check after the window.
struct Served {
    idx: usize,
    version: u64,
    fingerprint: u64,
}

/// What the reader saw, plus the cache counters of every store it used.
struct IngestWindow {
    reads: Window,
    /// Time the reader spent waiting for the writer's next version.
    reader_wait_s: f64,
    served: Vec<Served>,
    writes: Writes,
    hits: u64,
    misses: u64,
    read_blobs: BlobCounts,
    write_blobs: BlobCounts,
}

/// One writer commits batches back to back (ingest, then a compaction
/// pass, reopening the store for readers after each commit) until
/// `seconds` have passed and at least [`SNAPSHOT_AT`] batches have
/// landed; one closed-loop reader moves to each store as it is published
/// and serves at most [`READS_PER_VERSION`] reads on it.
fn ingest_window(setup: &IngestSetup, seconds: f64, traced: bool) -> Result<IngestWindow, String> {
    let dfs = Arc::clone(&setup.dfs) as Arc<dyn BlobStore>;
    let read_timed = Arc::new(TimedBlobs::new(Arc::clone(&dfs)));
    let write_timed = Arc::new(TimedBlobs::new(Arc::clone(&dfs)));
    let (read_blobs, write_blobs): (Arc<dyn BlobStore>, Arc<dyn BlobStore>) = if traced {
        (Arc::clone(&read_timed) as _, Arc::clone(&write_timed) as _)
    } else {
        (Arc::clone(&dfs), Arc::clone(&dfs))
    };
    let obs = ObsHandle::wall();
    let open = || -> Result<Arc<CubeStore>, String> {
        let store = CubeStore::open(Arc::clone(&read_blobs), INGEST_PREFIX)
            .map_err(|e| e.to_string())?
            .with_cache_capacity(INGEST_CACHE);
        Ok(Arc::new(if traced {
            store.with_obs(obs.clone())
        } else {
            store
        }))
    };
    let session = IngestSession::new(
        write_blobs,
        INGEST_PREFIX,
        AggSpec::Avg,
        IngestConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let policy = CompactionPolicy {
        max_layers: MAX_LAYERS,
    };
    let published = Mutex::new(open()?);
    let version = AtomicU64::new(0);
    // The version the reader serves; it moves past every version when the
    // reader stops, so the writer never waits on a reader that is gone.
    let acked = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    let (writes, reader) = thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = Writes {
                version_applied: vec![0],
                ..Writes::default()
            };
            // A reader's store survives exactly one later commit, so each
            // commit waits until the reader has moved to the store the
            // commit before it published.
            let publish = |w: &mut Writes| -> Option<Arc<CubeStore>> {
                let c0 = Instant::now();
                let opened = open();
                w.open_s += c0.elapsed().as_secs_f64();
                let Ok(store) = opened else {
                    w.failed += 1;
                    return None;
                };
                *published.lock().expect("publication lock poisoned") = Arc::clone(&store);
                w.version_applied.push(w.applied.len());
                let v = version.fetch_add(1, Ordering::AcqRel) + 1;
                let c0 = Instant::now();
                while acked.load(Ordering::Acquire) < v {
                    thread::sleep(Duration::from_micros(50));
                }
                w.wait_s += c0.elapsed().as_secs_f64();
                Some(store)
            };
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            for (i, batch) in setup.batches.iter().enumerate() {
                if w.snapshot.is_some() && Instant::now() >= end {
                    break;
                }
                w.attempted += 1;
                let c0 = Instant::now();
                let outcome = session.ingest(batch);
                let commit_s = c0.elapsed().as_secs_f64();
                w.ingest_s += commit_s;
                match outcome {
                    Ok(IngestOutcome::Applied(r)) => {
                        w.applied.push(i);
                        w.commit_ms.push(commit_s * 1e3);
                        w.ingest_bytes += r.bytes;
                    }
                    Ok(IngestOutcome::AlreadyApplied { .. }) | Err(_) => w.failed += 1,
                }
                let mut latest = publish(&mut w);
                let c0 = Instant::now();
                let compacted = session.compact(&policy);
                w.compact_s += c0.elapsed().as_secs_f64();
                match compacted {
                    Ok(Some(r)) => {
                        w.compactions += 1;
                        w.compact_bytes += r.bytes;
                        latest = publish(&mut w);
                    }
                    Ok(None) => {}
                    Err(_) => w.failed += 1,
                }
                if w.applied.len() == SNAPSHOT_AT && w.snapshot.is_none() {
                    let live = latest.map(|store| {
                        live_bytes(setup.dfs.as_ref(), INGEST_PREFIX, &store.layers())
                    });
                    match live {
                        Some(Ok(live)) => {
                            w.snapshot = Some((w.ingest_bytes + w.compact_bytes, live))
                        }
                        _ => w.failed += 1,
                    }
                }
            }
            done.store(true, Ordering::Release);
            w
        });
        let reader = s.spawn(|| {
            let read = || -> Result<(Window, Vec<Served>, u64, u64, f64), String> {
                let mut w = Window::default();
                let mut served = Vec::new();
                let (mut hits, mut misses) = (0, 0);
                let mut current: Option<(u64, Arc<CubeStore>, ResilientClient)> = None;
                let (mut on_version, mut waited) = (0, 0.0);
                let t0 = Instant::now();
                while !done.load(Ordering::Acquire) {
                    let v = version.load(Ordering::Acquire);
                    if current.as_ref().is_none_or(|(cv, _, _)| *cv != v) {
                        if let Some((_, old, client)) = current.take() {
                            drop(client);
                            let (h, m) = stats_since(old.stats(), StoreStats::default());
                            hits += h;
                            misses += m;
                        }
                        let store =
                            Arc::clone(&published.lock().expect("publication lock poisoned"));
                        current = Some((v, Arc::clone(&store), client_for(store)?));
                        acked.store(v, Ordering::Release);
                        on_version = 0;
                    } else if on_version >= READS_PER_VERSION {
                        let c0 = Instant::now();
                        thread::sleep(Duration::from_micros(50));
                        waited += c0.elapsed().as_secs_f64();
                        continue;
                    }
                    on_version += 1;
                    let (version, store, client) = current.as_ref().expect("a store is published");
                    let idx = w.attempted as usize % setup.reqs.len();
                    let outcome = issue(client, &setup.reqs[idx], traced);
                    // Failed responses are counted by `record`; only
                    // answers are checked against the reference.
                    let answered = outcome.0.as_ref().ok();
                    if let Some(resp) = answered.filter(|r| !matches!(r, Response::Failed(_))) {
                        served.push(Served {
                            idx,
                            version: *version,
                            fingerprint: fingerprint(resp),
                        });
                    }
                    w.record(idx, &setup.reqs[idx], outcome, None, store.layer_count());
                }
                w.seconds = t0.elapsed().as_secs_f64();
                if let Some((_, store, client)) = current.take() {
                    drop(client);
                    let (h, m) = stats_since(store.stats(), StoreStats::default());
                    hits += h;
                    misses += m;
                }
                Ok((w, served, hits, misses, waited))
            };
            let result = read();
            acked.store(u64::MAX, Ordering::Release);
            result
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (reads, served, hits, misses, reader_wait_s) = reader?;
    Ok(IngestWindow {
        reads,
        reader_wait_s,
        served,
        writes,
        hits,
        misses,
        read_blobs: read_timed.counts(),
        write_blobs: write_timed.counts(),
    })
}

/// A from-scratch state cube over the base and the batches `applied`.
fn reference_cube(setup: &IngestSetup, applied: &[usize]) -> Result<Cube, String> {
    let mut parts = vec![&setup.base];
    parts.extend(applied.iter().map(|&i| &setup.batches[i]));
    let all = concat(&parts).map_err(|e| e.to_string())?;
    let mut cube = Cube::new();
    for (mask, rows) in state_cube(&all, AggSpec::Avg).map_err(|e| e.to_string())? {
        for (key, state) in rows {
            cube.insert(Group::new(mask, key.into_vec()), state.finalize());
        }
    }
    Ok(cube)
}

/// The checks after a window. The layered store must hold exactly a
/// from-scratch state cube over base plus the applied batches: every
/// cuboid compared row for row, and the queries the reader issued
/// answered identically. And the answers the reader was actually served
/// under the store versions of [`CHECKED_PREFIXES`] batch prefixes,
/// spread over the window, must equal the state cube of the prefix each
/// version held.
fn ingest_check(
    setup: &IngestSetup,
    window: &IngestWindow,
    report: &mut Report,
) -> Result<(), String> {
    let t0 = Instant::now();
    let applied = &window.writes.applied;
    let store = CubeStore::open(Arc::clone(&setup.dfs) as Arc<dyn BlobStore>, INGEST_PREFIX)
        .map_err(|e| e.to_string())?
        .with_cache_capacity(ALL_CUBOIDS);
    let cube = reference_cube(setup, applied)?;
    let query = CubeQuery::new(&cube, D);
    crate::progress("from-scratch state cube", t0);
    let same = Mask::full(D).subsets().all(|m| {
        matches!(
            (store.cuboid_rows(m), CubeRead::cuboid_rows(&query, m)),
            (Ok(a), Ok(b)) if a == b
        )
    });
    report.check(
        format!(
            "every cuboid of the layered store equals a from-scratch state cube over base + {} batches",
            applied.len()
        ),
        same,
    );
    // Slices and top-k are derived from `cuboid_rows`, compared above in
    // full, so only the first issued scans are re-answered; every issued
    // lookup is.
    let first = first_equal(&setup.reqs);
    let issued: Vec<&Request> = (0..(window.reads.attempted as usize).min(setup.reqs.len()))
        .filter(|&i| first[i] == i)
        .map(|i| &setup.reqs[i])
        .collect();
    let reqs: Vec<&Request> = issued
        .iter()
        .copied()
        .filter(|r| is_lookup(r))
        .chain(
            issued
                .iter()
                .copied()
                .filter(|r| !is_lookup(r))
                .take(CHECKED_SCANS),
        )
        .collect();
    let wrong = reqs
        .iter()
        .filter(|&&r| answer(&store, r) != answer(&query, r))
        .count();
    report.check(
        format!(
            "{} of {} distinct issued lookups and first scans answer as on the from-scratch cube",
            reqs.len() - wrong,
            reqs.len()
        ),
        wrong == 0,
    );
    crate::progress("final-state check", t0);

    // Served answers, which came through the reader's small cache: each
    // one under its version's batch prefix.
    let t0 = Instant::now();
    let prefix_of = |s: &Served| window.writes.version_applied[s.version as usize];
    let mut prefixes: Vec<usize> = window.served.iter().map(prefix_of).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    let picks = CHECKED_PREFIXES.min(prefixes.len());
    let picked: Vec<usize> = (0..picks)
        .map(|i| prefixes[i * (prefixes.len() - 1) / (picks - 1).max(1)])
        .collect();
    let (mut checked, mut wrong) = (0, 0);
    for &k in &picked {
        let other;
        let reference = if k == applied.len() {
            &query
        } else {
            other = reference_cube(setup, &applied[..k])?;
            &CubeQuery::new(&other, D)
        };
        let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
        for s in window.served.iter().filter(|s| prefix_of(s) == k) {
            let idx = first[s.idx];
            let fp = *expected
                .entry(idx)
                .or_insert_with(|| fingerprint(&answer(reference, &setup.reqs[idx])));
            checked += 1;
            if fp != s.fingerprint {
                wrong += 1;
            }
        }
    }
    // The served reads are already counted as attempted operations.
    report.tally(
        format!(
            "{} of {checked} answers served under batch prefixes {picked:?} equal the from-scratch state cube of their prefix",
            checked - wrong
        ),
        0,
        wrong,
    );
    crate::progress("served-answer check", t0);
    Ok(())
}

fn record_writes(report: &mut Report, label: &str, w: &Writes) {
    report.tally(
        format!(
            "{label}: {} of {} batches committed, every compaction and reopen succeeded",
            w.applied.len(),
            w.attempted
        ),
        w.attempted,
        w.failed,
    );
}

pub fn run_ingest(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("serve-ingest");
    let window_s = if trace { seconds / 2.0 } else { seconds };
    let batches = ((window_s * BATCHES_PER_SECOND).ceil() as usize).max(SNAPSHOT_AT);

    let t0 = Instant::now();
    let s = ingest_setup(seed, batches)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    crate::progress("set-up", t0);

    let rss = RssSampler::start();
    let plain = ingest_window(&s, window_s, false)?;
    let peak_rss = rss.stop()?;
    set_serving_e2e(&mut report, &plain.reads);
    record_writes(&mut report, "untraced window", &plain.writes);
    ingest_check(&s, &plain, &mut report)?;
    let (put_bytes, live) = plain
        .writes
        .snapshot
        .ok_or("the writer never reached the snapshot commit")?;
    let mut held = vec![&s.base];
    held.extend(&s.batches[..SNAPSHOT_AT]);
    let tsv = |rels: &[&Relation]| -> Result<u64, String> {
        rels.iter()
            .map(|r| tsv_bytes(r).map_err(|e| e.to_string()))
            .sum()
    };
    let ingested_tsv = tsv(&held[1..])?;
    let held_tsv = tsv(&held)?;
    let write_amp = put_bytes as f64 / ingested_tsv as f64;
    let space_amp = live as f64 / held_tsv as f64;
    let commit = Dist::new(plain.writes.commit_ms.clone());
    report.named("commit_p50_ms", commit.median(), "ms", commit.note(50));
    report.named(
        "write_amp",
        write_amp,
        "ratio",
        format!("{put_bytes} blob bytes put / {ingested_tsv} TSV bytes ingested, after {SNAPSHOT_AT} commits"),
    );
    report.named(
        "space_amp",
        space_amp,
        "ratio",
        format!("{live} live bytes / {held_tsv} TSV bytes held, after {SNAPSHOT_AT} commits"),
    );
    report.named(
        "reader_wait_s",
        plain.reader_wait_s,
        "s",
        format!(
            "{} commits; the writer waited {:.3} s for the reader",
            plain.writes.applied.len(),
            plain.writes.wait_s
        ),
    );

    if trace {
        let s2 = ingest_setup(seed, batches)?;
        let traced = ingest_window(&s2, window_s, true)?;
        record_reads(&mut report, "traced window", &traced.reads);
        record_writes(&mut report, "traced window", &traced.writes);
        ingest_check(&s2, &traced, &mut report)?;
        let r = &traced.reads;
        set_phase_layers(&mut report, r);
        set_cache_layers(
            &mut report,
            traced.hits,
            traced.misses,
            traced.read_blobs,
            r.samples.len(),
        );
        let layers =
            r.samples.iter().map(|x| x.layers as f64).sum::<f64>() / r.samples.len().max(1) as f64;
        let w = &traced.writes;
        report.set("delta.layers_per_read", layers);
        report.set("delta.ingest_s", w.ingest_s);
        report.set("delta.compact_s", w.compact_s);
        report.set("delta.compactions", w.compactions as f64);
        report.set("delta.bytes_rewritten", w.compact_bytes as f64);
        report.set("cubestore.open_s", w.open_s);
        report.set("cubestore.blob.put_count", traced.write_blobs.puts as f64);
        report.set(
            "cubestore.blob.put_bytes",
            traced.write_blobs.put_bytes as f64,
        );
        report.set("cubestore.blob.put_s", traced.write_blobs.put_s);
        report.set("trace.overhead", plain.reads.qps() / r.qps());
    }

    drop(s);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        drop(ingest_setup(seed, batches)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = Dist::new(setup_s);
    report.set("setup_s", setup_s.median());
    report.set("peak_rss_mb", peak_rss);
    report.set("space_amp", space_amp);
    report.named("setup_s", setup_s.median(), "s", setup_s.note(50));
    report.named(
        "peak_rss_mb",
        peak_rss,
        "MB",
        "highest RSS sampled in the measured windows",
    );
    Ok(report)
}
