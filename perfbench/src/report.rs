//! What one run prints: a context line, then the result line the contract
//! asks for (`correct`, `attempted`, `failed`, `metrics`).

use crate::stats;
use std::fmt::Write as _;

/// Unit of every end-to-end metric, in `BENCHMARK.json` order. Medians,
/// tails and throughput are printed in the context line instead: on this
/// benchmark's host they moved between runs of the same code by more than
/// any bound allows (see `README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("query_latency_s", "s"),
    ("write_latency_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Unit of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("exec.busy_s", "s"),
    ("exec.tuples", "count"),
    ("exec.rewrites_evicted", "count"),
    ("intern.busy_s", "s"),
    ("intern.nodes", "count"),
    ("cache.hit_ratio", "1"),
    ("cache.arena_hit_ratio", "1"),
    ("cache.evicted_by_delta", "count"),
    ("cache.kept_by_delta", "count"),
    ("cache.bytes", "B"),
    ("compile.busy_s", "s"),
    ("compile.dtree_nodes", "count"),
    ("compile.shannon_expansions", "count"),
    ("compile.independent_splits", "count"),
    ("compile.factorings", "count"),
    ("compile.pruned_conditionals", "count"),
    ("arena.flatten_s", "s"),
    ("arena.eval_s", "s"),
    ("arena.nodes", "count"),
    ("arena.bytes", "B"),
    ("kernel.conv_dense", "count"),
    ("kernel.conv_sparse", "count"),
    ("kernel.conv_fft", "count"),
    ("kernel.support_cells", "count"),
    ("kernel.dense_chain_breaks", "count"),
    ("engine.step2_s", "s"),
    ("pool.queue_wait_s", "s"),
    ("pool.run_s", "s"),
    ("pool.jobs", "count"),
    ("serve.dispatch_wait_s", "s"),
    ("serve.drain_s", "s"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.delta_busy_retries", "count"),
    ("serve.compactions", "count"),
    ("persist.wal_append_s", "s"),
    ("persist.wal_bytes_per_delta", "B"),
    ("persist.snapshots", "count"),
    ("persist.snapshot_s", "s"),
    ("persist.snapshot_bytes", "B"),
    ("ledger.coverage", "1"),
    ("trace.overhead_ratio", "1"),
    ("loadgen.late_p99_s", "s"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, rejections, timeouts, abandoned writes).
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run context: key and JSON value.
    pub context: Vec<(String, String)>,
    /// Why a per-layer metric is 0 on this workload.
    pub not_applicable: Vec<(&'static str, &'static str)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a context entry (`value` is JSON).
    pub fn context(&mut self, key: &str, value: impl Into<String>) {
        self.context.push((key.to_string(), value.into()));
    }

    /// Record a per-layer metric the workload does not exercise: it is
    /// reported as 0, with the reason in the context line.
    pub fn not_applicable(&mut self, names: &[&'static str], why: &'static str) {
        for &name in names {
            self.metrics.push((name, 0.0));
            self.not_applicable.push((name, why));
        }
    }

    /// Print the context line and the result line. The result carries exactly
    /// the metrics of `wanted`, in that order. `Err`, with nothing printed,
    /// when one of them was not recorded or is not a finite number (as when
    /// every operation failed).
    pub fn print(&self, wanted: &[(&str, &str)]) -> Result<(), String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let mut context = String::from("{\"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(context, "{sep}\"{k}\": {v}");
        }
        context.push_str("}, \"not_applicable\": {");
        for (i, (k, why)) in self.not_applicable.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(context, "{sep}\"{k}\": \"{why}\"");
        }
        context.push_str("}}");
        println!("{context}");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
        Ok(())
    }
}

/// Record a run's latencies. `query_latency_s` and `write_latency_s` are
/// the `reference` percentile of the read and write latencies; the context
/// line gets that percentile, each median and tail, and each sample's shape.
pub fn latencies(out: &mut Outcome, reads: &[f64], writes: &[f64], reference: f64) {
    out.metric("query_latency_s", stats::percentile(reads, reference));
    out.metric("write_latency_s", stats::percentile(writes, reference));
    out.context("reference_percentile", reference.to_string());
    for (name, sample) in [("query", reads), ("write", writes)] {
        out.context(&format!("{name}_p50_s"), stats::median(sample).to_string());
        let tail = stats::Tail::of(sample).map_or("null".into(), |t| t.json());
        out.context(&format!("{name}_tail_s"), tail);
        out.context(&format!("{name}_shape_s"), stats::shape_json(sample));
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
