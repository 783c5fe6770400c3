//! `batch-zipf`: gen-zipf (d=4, 200k rows, SUM) cubed by `SpCube::run` on
//! 20 simulated machines with m = n/20, written to the in-memory DFS by
//! `write_store`, then dropped.

use std::sync::Arc;
use std::time::Instant;

use spcube_agg::{AggOutput, AggSpec};
use spcube_common::{Mask, Relation};
use spcube_core::{SpCube, SpCubeConfig, SpCubeRun};
use spcube_cubealg::{Cube, CubeQuery, CubeRead};
use spcube_cubestore::{write_store, BlobStore, CubeStore};
use spcube_mapreduce::{ClusterConfig, Dfs, JobMetrics};

use crate::blobs::{BlobCounts, TimedBlobs};
use crate::data::{live_bytes, tsv_bytes, zipf_relation, RssSampler, D};
use crate::report::Report;
use crate::stats::Dist;

const ROWS: usize = 200_000;
const MACHINES: usize = 20;
const SETUPS: usize = 15;
const PREFIX: &str = "cube";

/// One round of run + write + drop, with everything the layers reported.
struct Round {
    traced: bool,
    /// Wall time of run, store write and drop; checks are not in it.
    wall_s: f64,
    run_s: f64,
    write_s: f64,
    drop_s: f64,
    sketch_round_s: f64,
    cube_round_s: f64,
    sim_s: f64,
    sim_map_s: f64,
    sim_shuffle_s: f64,
    sim_reduce_s: f64,
    map_output_records: u64,
    map_output_bytes: u64,
    spilled_bytes: u64,
    imbalance: f64,
    skew_reducer_bytes: u64,
    sketch_bytes: u64,
    skewed_groups: u64,
    cube_groups: u64,
    write_bytes: u64,
    live_bytes: u64,
    blobs: BlobCounts,
}

impl Round {
    fn batch_s(&self) -> f64 {
        self.wall_s
    }

    /// The counts that must repeat exactly from round to round.
    fn deterministic(&self) -> (u64, u64, u64, u64) {
        (
            self.sim_s.to_bits(),
            self.map_output_bytes,
            self.cube_groups,
            self.live_bytes,
        )
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("batch-zipf");
    let mut setup = Vec::with_capacity(SETUPS);
    let mut rel = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        rel = Some(zipf_relation(ROWS, seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let rel = rel.expect("at least one setup");
    let input_tsv = tsv_bytes(&rel).map_err(|e| e.to_string())?;
    let cluster = ClusterConfig::for_input(MACHINES, ROWS);
    let cfg = SpCubeConfig::new(AggSpec::Sum);

    // Untraced runs time every round untraced. Traced runs alternate an
    // untraced and a traced round, so both see the same machine state.
    // The round that ends the window carries the correctness checks. They
    // run after the memory sampler stops and before the cube is dropped,
    // outside the round's time, so neither their time nor their memory is
    // measured.
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut rss = Some(RssSampler::start());
    let mut peak_rss = 0.0;
    loop {
        let traced = trace && rounds.len() % 2 == 1;
        let (mut r, run, dfs) = match round(&rel, &cluster, &cfg, traced) {
            Ok(built) => built,
            Err(e) => {
                report.check(format!("round {} failed: {e}", rounds.len()), false);
                break;
            }
        };
        report.attempted += 1;
        let last =
            measured + r.wall_s >= seconds && (!trace || traced || rounds.iter().any(|r| r.traced));
        if let Some(rss) = rss.take_if(|_| last) {
            peak_rss = rss.stop()?;
            let t0 = Instant::now();
            verify_round(&rel, &run, &dfs, &mut report);
            crate::progress("checks on the last round", t0);
        }
        let t0 = Instant::now();
        drop(run);
        r.drop_s = t0.elapsed().as_secs_f64();
        r.wall_s += r.drop_s;
        eprintln!(
            "perfbench: round {}{} took {:.3} s",
            rounds.len(),
            if r.traced { " (traced)" } else { "" },
            r.batch_s()
        );
        measured += r.batch_s();
        rounds.push(r);
        if last {
            break;
        }
    }
    if let Some(rss) = rss {
        peak_rss = rss.stop()?;
    }
    let Some(r0) = rounds.first() else {
        return Err("no batch round completed".into());
    };
    let first = r0.deterministic();
    report.check(
        "sim_cluster_s, map_output_bytes, cube_groups and store bytes repeat exactly in every round",
        rounds.iter().all(|r| r.deterministic() == first),
    );

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let batch = Dist::new(untraced.iter().map(|r| r.batch_s()).collect());
    let setup = Dist::new(setup);
    let space_amp = r0.live_bytes as f64 / input_tsv as f64;
    report.set("setup_s", setup.median());
    report.set("ops_per_s", 1.0 / batch.median());
    report.set("peak_rss_mb", peak_rss);
    report.set("space_amp", space_amp);
    report.named("setup_s", setup.median(), "s", setup.note(50));
    report.named("batch_s", batch.median(), "s", batch.note(50));
    report.named("sim_cluster_s", r0.sim_s, "sim_s", "deterministic");
    report.named(
        "mapreduce.map_output_bytes",
        r0.map_output_bytes as f64,
        "bytes",
        "deterministic",
    );
    report.named(
        "cubealg.cube_groups",
        r0.cube_groups as f64,
        "count",
        "deterministic",
    );
    report.named(
        "space_amp",
        space_amp,
        "ratio",
        format!("{} live bytes / {input_tsv} TSV bytes", r0.live_bytes),
    );
    report.named(
        "peak_rss_mb",
        peak_rss,
        "MB",
        "highest RSS sampled over the rounds",
    );

    if trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let mean = |f: &dyn Fn(&Round) -> f64| -> f64 {
            traced.iter().map(|r| f(r)).sum::<f64>() / traced.len() as f64
        };
        let run_s = mean(&|r| r.run_s);
        let sketch_s = mean(&|r| r.sketch_round_s);
        let cube_s = mean(&|r| r.cube_round_s);
        let self_s = run_s - sketch_s - cube_s;
        let write_s = mean(&|r| r.write_s);
        let drop_s = mean(&|r| r.drop_s);
        let total = mean(&|r| r.batch_s());
        let blobs = traced[0].blobs;
        report.set("core.spcube.run_s", run_s);
        report.set("core.spcube.self_s", self_s);
        report.set("core.sketch.round_s", sketch_s);
        report.set("core.sketch.bytes", r0.sketch_bytes as f64);
        report.set("core.sketch.skewed_groups", r0.skewed_groups as f64);
        report.set("mapreduce.cube_round_s", cube_s);
        report.set("mapreduce.map_output_records", r0.map_output_records as f64);
        report.set("mapreduce.map_output_bytes", r0.map_output_bytes as f64);
        report.set("mapreduce.reducer_imbalance", r0.imbalance);
        report.set("mapreduce.skew_reducer_bytes", r0.skew_reducer_bytes as f64);
        report.set("mapreduce.spilled_bytes", r0.spilled_bytes as f64);
        report.set("mapreduce.sim_map_s", r0.sim_map_s);
        report.set("mapreduce.sim_shuffle_s", r0.sim_shuffle_s);
        report.set("mapreduce.sim_reduce_s", r0.sim_reduce_s);
        report.set(
            "mapreduce.sim_overhead_s",
            r0.sim_s - r0.sim_map_s - r0.sim_shuffle_s - r0.sim_reduce_s,
        );
        report.set("cubealg.cube_groups", r0.cube_groups as f64);
        report.set("cubealg.drop_s", drop_s);
        report.set("cubestore.write_s", write_s);
        report.set("cubestore.write_bytes", r0.write_bytes as f64);
        report.set("cubestore.blob.put_count", blobs.puts as f64);
        report.set("cubestore.blob.put_bytes", blobs.put_bytes as f64);
        report.set("cubestore.blob.put_s", mean(&|r| r.blobs.put_s));
        report.set("trace.overhead", total / batch.mean());
        let residual = total - (sketch_s + cube_s + self_s + write_s + drop_s);
        report.set("trace.residual", residual.abs() / total);
    }
    Ok(report)
}

/// Run SP-Cube and write the store: one round up to the drop of its cube,
/// which the caller times after any checks. The round's `wall_s` covers
/// run and write; `drop_s` is the caller's to add.
fn round(
    rel: &Relation,
    cluster: &ClusterConfig,
    cfg: &SpCubeConfig,
    traced: bool,
) -> Result<(Round, SpCubeRun, Arc<Dfs>), String> {
    let dfs = Arc::new(Dfs::new());
    let timed = traced.then(|| Arc::new(TimedBlobs::new(Arc::clone(&dfs) as Arc<dyn BlobStore>)));
    let blobs: &dyn BlobStore = match &timed {
        Some(t) => t.as_ref(),
        None => dfs.as_ref(),
    };

    let t0 = Instant::now();
    let run = SpCube::run(rel, cluster, cfg).map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let written = write_store(blobs, PREFIX, &run.cube, D, cfg.agg, cfg.min_support)
        .map_err(|e| e.to_string())?;
    let write_s = t1.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    let rounds = &run.metrics.rounds;
    let wall_of = |name: &str| -> f64 {
        rounds
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.wall_seconds)
            .sum()
    };
    let cube_round = rounds
        .iter()
        .find(|r| r.name == "sp-cube")
        .ok_or("the cube round did not run with a sketch")?;
    let (imbalance, skew_reducer_bytes) = range_imbalance(cube_round);
    let sim = |f: &dyn Fn(&JobMetrics) -> f64| -> f64 { rounds.iter().map(f).sum() };
    let r = Round {
        traced,
        wall_s,
        run_s,
        write_s,
        drop_s: 0.0,
        sketch_round_s: wall_of("sp-sketch"),
        cube_round_s: wall_of("sp-cube"),
        sim_s: run.metrics.total_seconds(),
        sim_map_s: sim(&|m| m.map_times.iter().copied().fold(0.0, f64::max)),
        sim_shuffle_s: sim(&|m| m.shuffle_seconds),
        sim_reduce_s: sim(&|m| m.reduce_times.iter().copied().fold(0.0, f64::max)),
        map_output_records: run.metrics.map_output_records(),
        map_output_bytes: run.metrics.map_output_bytes(),
        spilled_bytes: run.metrics.spilled_bytes(),
        imbalance,
        skew_reducer_bytes,
        sketch_bytes: run.sketch_bytes,
        skewed_groups: run.sketch.skew_count() as u64,
        cube_groups: run.cube.len() as u64,
        write_bytes: written.bytes,
        live_bytes: live_bytes(dfs.as_ref(), PREFIX, &[written.generation])
            .map_err(|e| e.to_string())?,
        blobs: timed.as_ref().map(|t| t.counts()).unwrap_or_default(),
    };
    Ok((r, run, dfs))
}

/// Max over mean of the range reducers' input bytes (reducer 0, the skew
/// reducer, excluded), and the skew reducer's own input bytes.
fn range_imbalance(round: &JobMetrics) -> (f64, u64) {
    let loads = &round.reducer_input_bytes;
    let skew = loads.first().copied().unwrap_or(0);
    let range = loads.get(1..).unwrap_or(&[]);
    let max = range.iter().copied().max().unwrap_or(0) as f64;
    let mean = range.iter().sum::<u64>() as f64 / range.len().max(1) as f64;
    (if mean == 0.0 { 1.0 } else { max / mean }, skew)
}

/// The correctness checks of one round, made outside its timed parts.
fn verify_round(rel: &Relation, run: &SpCubeRun, dfs: &Arc<Dfs>, report: &mut Report) {
    let cube: &Cube = &run.cube;
    let query = CubeQuery::new(cube, D);
    let total: f64 = rel.tuples().iter().map(|t| t.measure).sum();
    let mut counts_ok = true;
    let mut sums_ok = true;
    for mask in Mask::full(D).subsets() {
        let distinct: std::collections::HashSet<Vec<_>> =
            rel.tuples().iter().map(|t| t.project(mask)).collect();
        counts_ok &= distinct.len() == query.cuboid_len(mask);
        let sum: f64 = query
            .cuboid(mask)
            .iter()
            .map(|(_, v)| match v {
                AggOutput::Number(x) => *x,
                AggOutput::TopK(_) => f64::NAN,
            })
            .sum();
        sums_ok &= sum == total;
    }
    report.check(
        "every cuboid holds one group per distinct projection of the input",
        counts_ok,
    );
    report.check(
        "every cuboid's SUM total equals the relation total",
        sums_ok,
    );

    let reopened = CubeStore::open(Arc::clone(dfs) as Arc<dyn BlobStore>, PREFIX)
        .map(|s| s.with_cache_capacity(1));
    let same = match &reopened {
        Ok(store) => Mask::full(D).subsets().all(|mask| {
            matches!(
                (store.cuboid_rows(mask), CubeRead::cuboid_rows(&query, mask)),
                (Ok(a), Ok(b)) if a == b
            )
        }),
        Err(_) => false,
    };
    report.check(
        "the reopened store equals the in-memory cube bit-exactly",
        same,
    );
}
