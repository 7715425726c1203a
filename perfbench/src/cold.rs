//! The two cold workloads, `cold_compile` and `tpch_cold`.
//!
//! One operation builds a fresh [`Engine`] over the workload database, runs
//! its reads with `threads = 1`, then applies one write. Nothing is cached
//! across operations, so every read pays step I and the whole of step II.

use crate::check;
use crate::gen::{self, Reweight};
use crate::report::{self, Outcome};
use crate::stats::{self, median};
use crate::trace::Recorder;
use pvc_core::{obs, CacheConfig, Compiler, DTreeArena, SharedArtifacts};
use pvc_db::{
    try_evaluate, CacheStats, Database, DeltaStats, Engine, EvalOptions, ProbTuple, Query, Value,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One operation: reads on a fresh engine, then a write.
#[derive(Debug, Clone)]
pub struct ColdOp {
    /// The reads, run in order.
    pub reads: Vec<Query>,
    /// The write that follows them.
    pub write: Reweight,
}

/// A cold workload: how to build its database and its operations.
pub struct ColdWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Builds the database from the seed.
    pub database: fn(u64) -> Database,
    /// The endless operation sequence of a seed.
    pub ops: fn(u64) -> Box<dyn Iterator<Item = ColdOp>>,
    /// Every read the operations can issue.
    pub reads: fn() -> Vec<Query>,
    /// Context entries describing the input size.
    pub describe: fn() -> Vec<(&'static str, String)>,
}

/// `cold_compile`: the paper's Q2 shape, where Algorithm 1 does almost all
/// the work.
pub fn cold_compile() -> ColdWorkload {
    ColdWorkload {
        name: "cold_compile",
        database: |seed| gen::shop_db(seed, gen::COLD_SHOPS, gen::COLD_PER_SHOP),
        ops: |seed| {
            Box::new(gen::cold_compile_ops(seed).map(|op| ColdOp {
                reads: vec![op.query()],
                write: op.write,
            }))
        },
        reads: gen::cold_compile_reads,
        describe: || {
            vec![
                ("shops", gen::COLD_SHOPS.to_string()),
                ("per_shop", gen::COLD_PER_SHOP.to_string()),
            ]
        },
    }
}

/// `tpch_cold`: Experiment F's Q1 then Q2, where the convolution kernel does
/// most of the work.
pub fn tpch_cold() -> ColdWorkload {
    ColdWorkload {
        name: "tpch_cold",
        database: |seed| gen::tpch_db(seed, gen::TPCH_SCALE),
        ops: |seed| {
            let lineitems = pvc_tpch::Cardinalities::for_scale(gen::TPCH_SCALE).lineitems;
            Box::new(gen::tpch_ops(seed, lineitems).map(|op| ColdOp {
                reads: op.queries().to_vec(),
                write: op.write,
            }))
        },
        reads: gen::tpch_reads,
        describe: || vec![("scale_factor", gen::TPCH_SCALE.to_string())],
    }
}

/// The percentile of read and write latency the cold workloads report. One
/// operation runs at a time, and the host's slow stretches, which come in
/// every run, set the high percentiles; the low ones depend on whether a run
/// met a fast stretch.
const REFERENCE_PERCENTILE: f64 = 95.0;

/// What one operation did.
struct OpRecord {
    read_s: f64,
    write_s: f64,
    rewrite_s: f64,
    step2_s: f64,
    cache: CacheStats,
    delta: DeltaStats,
    /// Ran with the program's metrics on and harness spans recorded.
    traced: bool,
}

/// Blank the expression cells of an answer: they are step-I output, and the
/// distributions carry the answer.
fn strip(mut tuples: Vec<ProbTuple>) -> Vec<ProbTuple> {
    for t in &mut tuples {
        for v in &mut t.values {
            if matches!(v, Value::Agg(_)) {
                *v = Value::Int(0);
            }
        }
    }
    tuples
}

/// Reference answers from the uncached [`Engine::execute_once`], one per
/// read the workload can issue, computed before the timed window. Answers are
/// checked as they arrive and then dropped, so the harness's memory does not
/// grow with the run.
struct References {
    /// Per read: the reference, and whether the FFT kernel ran.
    by_query: BTreeMap<String, (Vec<ProbTuple>, bool)>,
}

impl References {
    fn new(base: &Database, reads: &[Query]) -> Result<References, String> {
        let was_enabled = pvc_prob::kernel_stats_enabled();
        pvc_prob::set_kernel_stats_enabled(true);
        let mut by_query = BTreeMap::new();
        for q in reads {
            let before = pvc_prob::kernel_stats().conv_fft;
            let reference = Engine::execute_once(base, q, &EvalOptions::default().with_threads(1))
                .map_err(|e| format!("reference evaluation of {q:?} failed: {e}"));
            let fft_ran = pvc_prob::kernel_stats().conv_fft > before;
            by_query.insert(format!("{q:?}"), (strip(reference?.tuples), fft_ran));
        }
        pvc_prob::set_kernel_stats_enabled(was_enabled);
        Ok(References { by_query })
    }

    fn check(&self, q: &Query, answer: Vec<ProbTuple>) -> Result<(), String> {
        let (want, fft_ran) = self
            .by_query
            .get(&format!("{q:?}"))
            .ok_or(format!("no reference for {q:?}"))?;
        check::compare(&strip(answer), want, *fft_ran).map_err(|e| format!("{q:?}: {e}"))
    }
}

/// One set-up: generate the workload's database from the seed and start an
/// engine over it. Returns the engine and how long that took.
fn setup(workload: &ColdWorkload, seed: u64) -> (Engine, f64) {
    let start = Instant::now();
    let engine = Engine::new((workload.database)(seed));
    (engine, start.elapsed().as_secs_f64())
}

/// Run one operation on `engine`, fresh from [`setup`]; `Err` when the
/// engine refused any call.
fn run_op(
    mut engine: Engine,
    op: &ColdOp,
    mut rec: Option<(&mut Recorder, u64)>,
) -> Result<(OpRecord, Vec<Vec<ProbTuple>>), pvc_db::Error> {
    let options = EvalOptions::default().with_threads(1);
    let span = |rec: &mut Option<(&mut Recorder, u64)>, name: &'static str| {
        rec.as_mut().map(|(r, id)| r.begin(name, *id))
    };
    let end = |rec: &mut Option<(&mut Recorder, u64)>, s: Option<usize>| {
        if let (Some((r, _)), Some(s)) = (rec.as_mut(), s) {
            r.end(s);
        }
    };
    let op_span = span(&mut rec, "op");
    let start = Instant::now();
    let mut answers = Vec::with_capacity(op.reads.len());
    let (mut rewrite_s, mut step2_s) = (0.0, 0.0);
    for q in &op.reads {
        let s = span(&mut rec, "engine.prepare");
        let prepared = engine.prepare(q);
        end(&mut rec, s);
        let s = span(&mut rec, "engine.execute");
        let result = prepared.and_then(|p| p.execute(&options));
        end(&mut rec, s);
        let result = result?;
        rewrite_s += result.rewrite_time.as_secs_f64();
        step2_s += result.probability_time.as_secs_f64();
        answers.push(result.tuples);
    }
    let read_s = start.elapsed().as_secs_f64();
    let cache = engine.cache_stats();
    let s = span(&mut rec, "engine.apply_delta");
    let start = Instant::now();
    let delta = engine.apply_delta(op.write.delta());
    let write_s = start.elapsed().as_secs_f64();
    end(&mut rec, s);
    end(&mut rec, op_span);
    let delta = delta?;
    drop(engine);
    let record = OpRecord {
        read_s,
        write_s,
        rewrite_s,
        step2_s,
        cache,
        delta,
        traced: false,
    };
    Ok((record, answers))
}

/// Operations of one timed window.
struct Window {
    /// Set-up time before each operation.
    setups: Vec<f64>,
    records: Vec<OpRecord>,
    ops: Vec<ColdOp>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first wrong answer, if any.
    wrong: Option<String>,
}

/// Run operations until their reads and writes have taken `seconds`. Each
/// operation starts with a set-up of its own, timed apart from it, so that
/// `setup_s` samples the host over the whole window like the reads do.
fn run_window(
    workload: &ColdWorkload,
    seed: u64,
    ops: &mut dyn Iterator<Item = ColdOp>,
    seconds: f64,
    refs: &References,
    mut rec: Option<&mut Recorder>,
) -> Window {
    let mut window = Window {
        setups: Vec::new(),
        records: Vec::new(),
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        wrong: None,
    };
    let mut busy = 0.0;
    while busy < seconds {
        let op = ops.next().expect("operation sequences are endless");
        let id = window.attempted;
        window.attempted += 1;
        // A traced run alternates plain and traced operations, so both halves
        // see the same mix and their medians give the tracing overhead.
        let traced = rec.as_deref_mut().filter(|_| id % 2 == 1).map(|r| (r, id));
        let tracing = traced.is_some();
        let (engine, setup_s) = setup(workload, seed);
        window.setups.push(setup_s);
        obs::set_metrics_enabled(tracing);
        let attempt = Instant::now();
        let result = run_op(engine, &op, traced);
        obs::set_metrics_enabled(false);
        match result {
            Ok((mut record, answers)) => {
                busy += record.read_s + record.write_s;
                record.traced = tracing;
                if window.wrong.is_none() {
                    window.wrong = check_op(refs, &op, answers, &record)
                        .err()
                        .map(|e| format!("operation {id}: {e}"));
                }
                window.records.push(record);
                window.ops.push(op);
            }
            Err(e) => {
                busy += attempt.elapsed().as_secs_f64();
                if let Some(r) = rec.as_deref_mut() {
                    r.close_open();
                }
                window.failed += 1;
                window.errors.push(e.to_string());
            }
        }
    }
    window
}

/// Check one operation's answers and write.
fn check_op(
    refs: &References,
    op: &ColdOp,
    answers: Vec<Vec<ProbTuple>>,
    record: &OpRecord,
) -> Result<(), String> {
    for (q, answer) in op.reads.iter().zip(answers) {
        refs.check(q, answer)?;
    }
    if record.delta.reprobed != 1 {
        return Err(format!(
            "write reweighted {} rows, expected 1",
            record.delta.reprobed
        ));
    }
    Ok(())
}

fn window_summary(out: &mut Outcome, window: &Window) {
    let reads: Vec<f64> = window.records.iter().map(|r| r.read_s).collect();
    let writes: Vec<f64> = window.records.iter().map(|r| r.write_s).collect();
    let busy: f64 = reads.iter().chain(&writes).sum();
    out.context(
        "throughput_qps",
        (reads.len() as f64 / busy.max(1e-12)).to_string(),
    );
    report::latencies(out, &reads, &writes, REFERENCE_PERCENTILE);
    out.context("setup_shape_s", stats::shape_json(&window.setups));
}

/// The workload's references; `None`, after reporting why, when the
/// reference path itself fails.
fn references(workload: &ColdWorkload, base: &Database) -> Option<References> {
    References::new(base, &(workload.reads)())
        .map_err(|e| eprintln!("{}: {e}", workload.name))
        .ok()
}

/// Run a cold workload untraced: every end-to-end metric.
pub fn run(workload: &ColdWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let base = (workload.database)(seed);
    let Some(refs) = references(workload, &base) else {
        return out;
    };
    let mut ops = (workload.ops)(seed);
    let window = run_window(workload, seed, &mut *ops, seconds, &refs, None);
    out.metric("setup_s", median(&window.setups));
    window_summary(&mut out, &window);
    out.metric("peak_rss_mb", report::peak_rss_mb());
    finish(&mut out, workload, seed, &refs, &window);
    out
}

/// Shared bookkeeping: counts, context and the answer check.
fn finish(
    out: &mut Outcome,
    workload: &ColdWorkload,
    seed: u64,
    refs: &References,
    window: &Window,
) {
    out.attempted = window.attempted;
    out.failed = window.failed;
    for e in window.errors.iter().take(3) {
        eprintln!("{}: operation failed: {e}", workload.name);
    }
    out.correct = match &window.wrong {
        None => true,
        Some(e) => {
            eprintln!("{}: wrong answer: {e}", workload.name);
            false
        }
    };
    out.context("workload", format!("\"{}\"", workload.name));
    out.context("seed", seed.to_string());
    out.context("nproc", report::nproc().to_string());
    out.context("engine_threads", "1");
    out.context(
        "loop",
        "\"closed, one operation at a time on a fresh engine\"",
    );
    out.context("durability", "\"none (no write-ahead log attached)\"");
    out.context("distinct_reads", refs.by_query.len().to_string());
    out.context(
        "failed_ratio",
        format!("{}", out.failed as f64 / out.attempted.max(1) as f64),
    );
    for (k, v) in (workload.describe)() {
        out.context(k, v);
    }
}

/// What the layer-by-layer replay measured.
#[derive(Default)]
struct Replay {
    ops: usize,
    tuples: u64,
    dtree_nodes: u64,
    shannon: u64,
    independent: u64,
    factorings: u64,
    pruned: u64,
    arena_nodes: u64,
    arena_bytes: u64,
    traced_read_s: f64,
}

/// Replay one operation's reads through the public calls of each layer in
/// pipeline order: step I, interning, Algorithm 1, flattening, arena
/// evaluation. It compiles whole annotations, where the engine first splits
/// them into independent groups, so its work is close to, not equal to, the
/// engine's.
fn replay_op(
    base: &Database,
    op: &ColdOp,
    id: u64,
    rec: &mut Recorder,
    acc: &mut Replay,
) -> Result<(), String> {
    let artifacts = SharedArtifacts::new(CacheConfig::default());
    let root = rec.begin("replay", id);
    for q in &op.reads {
        let table = rec
            .span("exec", id, || try_evaluate(base, q))
            .map_err(|e| e.to_string())?;
        acc.tuples += table.tuples.len() as u64;
        for tuple in &table.tuples {
            rec.span("intern", id, || artifacts.intern(&tuple.annotation));
            let mut compiler = Compiler::new(&base.vars, base.kind);
            let tree = rec
                .span("compile", id, || {
                    compiler.compile_semiring(&tuple.annotation)
                })
                .map_err(|e| e.to_string())?;
            let arena = rec.span("flatten", id, || DTreeArena::from_tree(&tree));
            rec.span("eval", id, || {
                arena.semiring_distribution(&base.vars, base.kind)
            })
            .map_err(|e| format!("{e:?}"))?;
            acc.add(compiler.stats(), &tree, &arena);
            for value in &tuple.values {
                let Value::Agg(expr) = value else { continue };
                rec.span("intern", id, || artifacts.intern_semimodule(expr));
                let mut compiler = Compiler::new(&base.vars, base.kind);
                let tree = rec
                    .span("compile", id, || compiler.compile_semimodule(expr))
                    .map_err(|e| e.to_string())?;
                let arena = rec.span("flatten", id, || DTreeArena::from_tree(&tree));
                rec.span("eval", id, || {
                    arena.monoid_distribution(&base.vars, base.kind)
                })
                .map_err(|e| format!("{e:?}"))?;
                acc.add(compiler.stats(), &tree, &arena);
            }
        }
    }
    rec.end(root);
    acc.ops += 1;
    Ok(())
}

impl Replay {
    fn add(&mut self, stats: &pvc_core::CompileStats, tree: &pvc_core::DTree, arena: &DTreeArena) {
        self.dtree_nodes += tree.num_nodes() as u64;
        self.shannon += stats.exclusive_expansions as u64;
        self.independent += (stats.independent_sums + stats.independent_products) as u64;
        self.factorings += stats.factorings as u64;
        self.pruned += stats.pruned_conditionals as u64;
        self.arena_nodes += arena.len() as u64;
        self.arena_bytes += arena.approx_bytes() as u64;
    }
}

/// Layers of the replay ledger, by span name.
const REPLAY_LAYERS: [&str; 5] = ["exec", "intern", "compile", "flatten", "eval"];

/// Run a cold workload traced: plain and traced operations alternate in one
/// window (the program's metrics are on only for the traced ones), then the
/// traced operations are replayed layer by layer. Prints every per-layer
/// metric, each a mean per traced operation.
pub fn run_traced(workload: &ColdWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let base = (workload.database)(seed);
    let Some(refs) = references(workload, &base) else {
        return out;
    };
    let mut ops = (workload.ops)(seed);
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    obs::reset();
    let window = run_window(workload, seed, &mut *ops, seconds, &refs, Some(&mut rec));
    let snap = obs::snapshot();
    let traced: Vec<(&OpRecord, &ColdOp)> = window
        .records
        .iter()
        .zip(&window.ops)
        .filter(|(r, _)| r.traced)
        .collect();

    // Replay the traced operations, within a budget of half the window.
    let mut replay = Replay::default();
    let mut replay_rec = Recorder::new(epoch);
    let budget = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    for (i, (record, op)) in traced.iter().enumerate() {
        if Instant::now() >= budget {
            break;
        }
        if let Err(e) = replay_op(&base, op, i as u64, &mut replay_rec, &mut replay) {
            eprintln!("{}: replay failed: {e}", workload.name);
            break;
        }
        replay.traced_read_s += record.read_s;
    }

    let n = traced.len().max(1) as f64;
    let sum = |f: fn(&OpRecord) -> f64| traced.iter().map(|(r, _)| f(r)).sum::<f64>() / n;
    let r = replay.ops.max(1) as f64;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64 / n;
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };

    out.metric("exec.busy_s", sum(|o| o.rewrite_s));
    out.metric("exec.tuples", replay.tuples as f64 / r);
    out.metric(
        "exec.rewrites_evicted",
        sum(|o| o.delta.evicted_rewrites as f64),
    );
    out.metric("intern.busy_s", replay_rec.self_seconds("intern") / r);
    out.metric("intern.nodes", sum(|o| o.cache.interned as f64));
    out.metric(
        "cache.hit_ratio",
        ratio(sum(|o| o.cache.hits as f64), sum(|o| o.cache.misses as f64)),
    );
    out.metric(
        "cache.arena_hit_ratio",
        ratio(
            sum(|o| o.cache.arena_hits as f64),
            sum(|o| o.cache.arena_misses as f64),
        ),
    );
    out.metric(
        "cache.evicted_by_delta",
        sum(|o| o.delta.evicted_artifacts as f64),
    );
    out.metric(
        "cache.kept_by_delta",
        sum(|o| o.delta.kept_artifacts as f64),
    );
    out.metric("cache.bytes", sum(|o| o.cache.bytes as f64));
    out.metric("compile.busy_s", replay_rec.self_seconds("compile") / r);
    out.metric("compile.dtree_nodes", replay.dtree_nodes as f64 / r);
    out.metric("compile.shannon_expansions", replay.shannon as f64 / r);
    out.metric("compile.independent_splits", replay.independent as f64 / r);
    out.metric("compile.factorings", replay.factorings as f64 / r);
    out.metric("compile.pruned_conditionals", replay.pruned as f64 / r);
    out.metric("arena.flatten_s", replay_rec.self_seconds("flatten") / r);
    out.metric("arena.eval_s", replay_rec.self_seconds("eval") / r);
    out.metric("arena.nodes", replay.arena_nodes as f64 / r);
    out.metric("arena.bytes", replay.arena_bytes as f64 / r);
    out.metric("kernel.conv_dense", counter("kernel.conv.dense"));
    out.metric("kernel.conv_sparse", counter("kernel.conv.sparse"));
    out.metric("kernel.conv_fft", counter("kernel.conv.fft"));
    out.metric(
        "kernel.support_cells",
        snap.histograms
            .get("kernel.conv.support")
            .map_or(0.0, |h| h.sum as f64 / n),
    );
    out.metric(
        "kernel.dense_chain_breaks",
        counter("kernel.dense_chain.breaks"),
    );
    out.metric("engine.step2_s", sum(|o| o.step2_s));
    out.not_applicable(
        &["pool.queue_wait_s", "pool.run_s", "pool.jobs"],
        "threads = 1 runs step II in the calling thread; no worker pool",
    );
    out.not_applicable(
        &[
            "serve.dispatch_wait_s",
            "serve.drain_s",
            "serve.batches",
            "serve.batch_size_mean",
            "serve.rejected",
            "serve.delta_busy_retries",
            "serve.compactions",
        ],
        "the engine is called directly; no server",
    );
    out.not_applicable(
        &[
            "persist.wal_append_s",
            "persist.wal_bytes_per_delta",
            "persist.snapshots",
            "persist.snapshot_s",
            "persist.snapshot_bytes",
        ],
        "no write-ahead log or snapshot directory is attached",
    );
    out.not_applicable(&["loadgen.late_p99_s"], "closed loop; nothing is scheduled");
    let ledger: f64 = REPLAY_LAYERS
        .iter()
        .map(|l| replay_rec.self_seconds(l))
        .sum();
    out.metric("ledger.coverage", ledger / replay.traced_read_s.max(1e-12));
    let reads = |traced: bool| -> Vec<f64> {
        let records = window.records.iter().filter(|r| r.traced == traced);
        records.map(|r| r.read_s).collect()
    };
    let (plain_reads, traced_reads) = (reads(false), reads(true));
    out.metric(
        "trace.overhead_ratio",
        median(&traced_reads) / median(&plain_reads),
    );

    out.context("per_layer_basis", "\"mean per operation\"");
    out.context("traced_ops", traced.len().to_string());
    out.context("replayed_ops", replay.ops.to_string());
    let layers: Vec<String> = REPLAY_LAYERS
        .iter()
        .map(|l| format!("\"{l}\": {}", replay_rec.self_seconds(l) / r))
        .collect();
    out.context("replay_self_s_per_op", format!("{{{}}}", layers.join(", ")));
    rec.merge(replay_rec);
    crate::write_trace(workload.name, seed, &rec);
    finish(&mut out, workload, seed, &refs, &window);
    out
}
