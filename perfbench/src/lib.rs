//! The pvc-suite benchmark: three workloads, each run in its own process from
//! a seed, printing end-to-end metrics untraced and per-layer metrics traced.
//! See `README.md` in this directory.

pub mod check;
pub mod cold;
pub mod gen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
pub const TRACE_DIR: &str = ".bench_trace";

/// Write a traced run's spans to `TRACE_DIR/<workload>-<seed>.jsonl`. A
/// failure to write is reported and otherwise ignored: the spans are a
/// by-product, the metrics are already computed.
pub fn write_trace(workload: &str, seed: u64, rec: &trace::Recorder) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{workload}-{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, rec.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
