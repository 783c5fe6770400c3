//! The metrics a run reports and the way it prints them: a human-readable
//! table first, then one JSON object as the last line of standard output.

use std::collections::BTreeMap;

/// Gated end-to-end metrics: every workload reports each of them, none of
/// them reads zero, and all come from the untraced window.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics of the traced window. A layer the workload does not
/// exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.spcube.run_s", "s"),
    ("core.spcube.self_s", "s"),
    ("core.sketch.round_s", "s"),
    ("core.sketch.bytes", "bytes"),
    ("core.sketch.skewed_groups", "count"),
    ("mapreduce.cube_round_s", "s"),
    ("mapreduce.map_output_records", "count"),
    ("mapreduce.map_output_bytes", "bytes"),
    ("mapreduce.reducer_imbalance", "ratio"),
    ("mapreduce.skew_reducer_bytes", "bytes"),
    ("mapreduce.spilled_bytes", "bytes"),
    ("mapreduce.sim_map_s", "sim_s"),
    ("mapreduce.sim_shuffle_s", "sim_s"),
    ("mapreduce.sim_reduce_s", "sim_s"),
    ("mapreduce.sim_overhead_s", "sim_s"),
    ("cubealg.cube_groups", "count"),
    ("cubealg.drop_s", "s"),
    ("cubestore.write_s", "s"),
    ("cubestore.write_bytes", "bytes"),
    ("cubestore.open_s", "s"),
    ("server.queue_us_p50", "us"),
    ("server.queue_us_p99", "us"),
    ("cubestore.exec_us_p50", "us"),
    ("cubestore.exec_us_p99", "us"),
    ("cubestore.contention_us_p99", "us"),
    ("cubestore.cache.hit_rate", "ratio"),
    ("cubestore.cache.misses", "count"),
    ("cubestore.blob.get_count", "count"),
    ("cubestore.blob.get_bytes", "bytes"),
    ("cubestore.blob.get_s", "s"),
    ("cubestore.blob.reads_per_query", "count/query"),
    ("cubestore.decode_us_p99", "us"),
    ("delta.merge_us_p99", "us"),
    ("delta.layers_per_read", "count"),
    ("delta.ingest_s", "s"),
    ("delta.compact_s", "s"),
    ("delta.compactions", "count"),
    ("delta.bytes_rewritten", "bytes"),
    ("cubestore.blob.put_count", "count"),
    ("cubestore.blob.put_bytes", "bytes"),
    ("cubestore.blob.put_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.residual", "ratio"),
];

/// The largest share of end-to-end time the traced per-layer self times
/// may leave unaccounted for.
pub const MAX_RESIDUAL: f64 = 0.05;

/// What one run measured and checked.
pub struct Report {
    workload: &'static str,
    /// Operations attempted (queries, commits, batch rounds).
    pub attempted: u64,
    /// Typed errors, failed responses and wrong answers.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    /// Metrics only this workload measures, printed for people.
    named: Vec<(String, f64, &'static str, String)>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            named: Vec::new(),
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }

    /// Record a correctness check as one attempted operation; a failed one
    /// makes the run incorrect and counts as a failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.into(), ok));
    }

    /// Count `attempted` operations of which `failed` failed, under a
    /// line saying what they were; any failure makes the run incorrect.
    pub fn tally(&mut self, what: impl Into<String>, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.checks.push((what.into(), failed == 0));
    }

    /// A metric printed in the table only, with a note such as its sample
    /// count.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named
            .push((name.to_string(), value, unit, note.into()));
    }

    /// Set a gated end-to-end or per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Check that the traced breakdown accounts for end-to-end time to
    /// within [`MAX_RESIDUAL`].
    pub fn check_residual(&mut self) {
        let residual = self.values["trace.residual"];
        self.check(
            format!("trace.residual {residual:.4} is at most {MAX_RESIDUAL}"),
            residual <= MAX_RESIDUAL,
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Print the table and, as the last line, the JSON result holding the
    /// end-to-end metrics (`trace == false`) or the per-layer ones.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        println!("workload {}", self.workload);
        println!(
            "  error_rate = {:.6} (failed {} of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (what, ok) in &self.checks {
            println!("  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for (name, value, unit, note) in &self.named {
            println!("  {name} = {value} {unit}  ({note})");
        }
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("  [{name}] = {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(())
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json` must
    /// name the same metrics, with the same units, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("field closes")].to_string()
        };
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            body[..body.find(']').expect("section closes")]
                .split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }
}
