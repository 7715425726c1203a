//! `serve_mixed`: open-loop mixed traffic against a [`Server`].
//!
//! Two tenants, each with its own seeded database, share a 2-thread worker
//! pool. Requests are due on a fixed schedule at three offered rates in turn
//! (a quarter, a half, then all of the nominal rate), whether or not earlier
//! ones have finished; each is timed from when it was due. One request in
//! [`gen::SERVE_WRITE_EVERY`] is a write through [`Server::apply_delta`].
//! Write-ahead logs and snapshots go to a directory under the working
//! directory with [`Durability::Batch`].

use crate::check;
use crate::gen::{self, Request};
use crate::report::{self, Outcome};
use crate::stats::{self, median, Tail};
use crate::trace::Recorder;
use pvc_core::{obs, Durability};
use pvc_db::{Delta, DeltaStats, Engine, EvalOptions, Query};
use pvc_serve::{loadgen, ServeConfig, ServeError, Server};
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker-pool width of the server, and step-II threads per query.
pub const POOL_THREADS: usize = 2;
/// The nominal offered rate, in requests per second. Closed-loop capacity
/// with reads only is several times higher on a 2-core host, so every phase
/// runs below saturation.
pub const NOMINAL_RATE: f64 = 400.0;
/// Offered-rate phases: (share of the nominal rate, share of the window).
/// The end-to-end metrics come from the last, nominal phase.
pub const PHASES: [(f64, f64); 3] = [(0.25, 0.15), (0.5, 0.15), (1.0, 0.7)];
/// The latency limit on `query_tail_s` that `max_rate_qps` is judged by.
pub const LATENCY_LIMIT_S: f64 = 0.05;
/// A read not dispatched within this long is abandoned and counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// A write still refused with `TenantBusy` this long after it was due is
/// abandoned and counts as failed.
const WRITE_GIVE_UP: Duration = Duration::from_secs(1);
/// Snapshot interval: a few passes complete in every run. Each pass holds a
/// tenant's engine lock across an `fsync`, so with shorter intervals every
/// tail window contains one and `query_tail_s` measures the host's disk.
const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(10);
/// Scheduler batches between artifact-store compactions. A compaction holds
/// the tenant's engine lock; every 32 batches, the requests it delayed were
/// about as many as the tail percentile leaves out, and the tail flipped
/// between runs. At 256, a few still complete in every run.
const COMPACT_EVERY: u64 = 256;
/// Server set-ups in each group. `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 5;
/// Groups of set-ups: the first before the traffic, whose last server the
/// traffic runs against, the others after it.
const SETUP_GROUPS: usize = 4;
/// In a traced run, the program's metrics are on in every other block of
/// this length; requests due in those blocks are the traced ones.
const TRACE_BLOCK: Duration = Duration::from_millis(250);

/// The percentile of read and write latency `serve_mixed` reports. Requests
/// take well under a millisecond, so a few milliseconds of preemption by the
/// host set the high percentiles, and how often that happens changes from
/// run to run; the fastest tenth is the program's own speed.
const REFERENCE_PERCENTILE: f64 = 10.0;

/// Write bookkeeping of one tenant, shared by the generator threads.
struct TenantWrites {
    /// Writes whose `apply_delta` call has begun: a read can see at most
    /// this many.
    started: AtomicU64,
    /// Writes applied: a read submitted now sees at least this many.
    applied: AtomicU64,
    /// Index of the next write, held for the whole write so that a
    /// tenant's writes apply in order.
    next: Mutex<usize>,
    deltas: Vec<Delta>,
}

/// What happened to one scheduled request.
#[derive(Debug, Default, Clone)]
struct Sample {
    phase: usize,
    /// Position in the phase's schedule, which is due order.
    index: usize,
    write: bool,
    traced: bool,
    /// How late the generator sent it.
    late_s: f64,
    /// Due-to-done latency; `None` when it failed.
    latency_s: Option<f64>,
    /// When it finished, in seconds since its phase started.
    done_s: f64,
    tenant: usize,
    query: usize,
    /// Versions (writes applied) the read may have seen.
    versions: (u64, u64),
    digests: Vec<u64>,
    dispatch_wait_s: f64,
    drain_s: f64,
    busy_retries: u64,
    delta: DeltaStats,
}

struct Ctx {
    server: Server,
    mix: Vec<Query>,
    writes: Vec<TenantWrites>,
    tenants: Vec<String>,
}

/// Run a read; `Err` when it failed.
fn read(
    ctx: &Ctx,
    s: &mut Sample,
    due: Instant,
    rec: &mut Option<Recorder>,
    id: u64,
) -> Result<(), ()> {
    let w = &ctx.writes[s.tenant];
    let lo = w.applied.load(Ordering::SeqCst);
    let root = rec.as_mut().map(|r| r.begin("request", id));
    let submitted = Instant::now();
    let ticket = match rec.as_mut() {
        Some(r) => r.span("submit", id, || {
            ctx.server
                .submit(&ctx.tenants[s.tenant], ctx.mix[s.query].clone())
        }),
        None => ctx
            .server
            .submit(&ctx.tenants[s.tenant], ctx.mix[s.query].clone()),
    };
    let waited = ticket.and_then(|t| match rec.as_mut() {
        Some(r) => r.span("dispatch_wait", id, || t.wait_timeout(READ_TIMEOUT)),
        None => t.wait_timeout(READ_TIMEOUT),
    });
    let dispatched = Instant::now();
    let drained = waited.map_err(|_| ()).and_then(|stream| {
        let collect = || stream.collect::<Result<Vec<_>, _>>();
        match rec.as_mut() {
            Some(r) => r.span("drain", id, collect),
            None => collect(),
        }
        .map_err(|_| ())
    });
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.end(root);
    }
    let answer = drained?;
    let now = Instant::now();
    s.versions = (lo, w.started.load(Ordering::SeqCst));
    s.digests = check::tuple_digests(&answer);
    s.dispatch_wait_s = (dispatched - submitted).as_secs_f64();
    s.drain_s = (now - dispatched).as_secs_f64();
    s.latency_s = Some((now - due).as_secs_f64());
    Ok(())
}

/// Apply the tenant's next write, retrying while the tenant is busy.
fn write(
    ctx: &Ctx,
    s: &mut Sample,
    due: Instant,
    rec: &mut Option<Recorder>,
    id: u64,
) -> Result<(), ()> {
    let w = &ctx.writes[s.tenant];
    let mut next = w.next.lock().expect("write lock poisoned");
    let k = *next;
    let Some(delta) = w.deltas.get(k) else {
        return Err(());
    };
    w.started.store(k as u64 + 1, Ordering::SeqCst);
    let root = rec.as_mut().map(|r| r.begin("write", id));
    let result = loop {
        let attempt = || {
            ctx.server
                .apply_delta(&ctx.tenants[s.tenant], delta.clone())
        };
        let outcome = match rec.as_mut() {
            Some(r) => r.span("apply_delta", id, attempt),
            None => attempt(),
        };
        match outcome {
            Err(ServeError::TenantBusy { .. }) if due.elapsed() < WRITE_GIVE_UP => {
                s.busy_retries += 1;
                std::thread::yield_now();
            }
            other => break other,
        }
    };
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.end(root);
    }
    match result {
        Ok(stats) => {
            w.applied.store(k as u64 + 1, Ordering::SeqCst);
            *next = k + 1;
            s.delta = stats;
            s.latency_s = Some(due.elapsed().as_secs_f64());
            Ok(())
        }
        Err(_) => {
            w.started.store(k as u64, Ordering::SeqCst);
            Err(())
        }
    }
}

/// One generator thread's share of a phase: requests `g`, `g + gens`, ….
#[allow(clippy::too_many_arguments)]
fn generate(
    ctx: &Ctx,
    phase: usize,
    rate: f64,
    start: Instant,
    schedule: &[Request],
    g: usize,
    gens: usize,
    trace_epoch: Option<Instant>,
) -> (Vec<Sample>, Option<Recorder>) {
    let mut samples = Vec::with_capacity(schedule.len() / gens + 1);
    let mut rec = trace_epoch.map(Recorder::new);
    for i in (g..schedule.len()).step_by(gens) {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        wait_until(due);
        let traced = trace_epoch.is_some_and(|epoch| in_traced_block(epoch, due));
        let mut s = Sample {
            phase,
            index: i,
            traced,
            late_s: due.elapsed().as_secs_f64(),
            ..Sample::default()
        };
        let id = ((phase as u64) << 32) | i as u64;
        let mut no_rec = None;
        let r = if traced { &mut rec } else { &mut no_rec };
        let _ = match schedule[i] {
            Request::Read { tenant, query } => {
                s.tenant = tenant;
                s.query = query;
                read(ctx, &mut s, due, r, id)
            }
            Request::Write { tenant } => {
                s.tenant = tenant;
                s.write = true;
                write(ctx, &mut s, due, r, id)
            }
        };
        s.done_s = (Instant::now() - start).as_secs_f64();
        samples.push(s);
    }
    (samples, rec)
}

/// Sleep until shortly before `due`, then yield until it passes: a plain
/// sleep wakes up to a timer slack late, which would add the generator's own
/// wake-up delay to every request's latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn in_traced_block(epoch: Instant, at: Instant) -> bool {
    let since = at.saturating_duration_since(epoch).as_secs_f64();
    (since / TRACE_BLOCK.as_secs_f64()) as u64 % 2 == 1
}

fn serve_config(dir: PathBuf) -> ServeConfig {
    ServeConfig::default()
        .with_threads(POOL_THREADS)
        .with_compact_every(COMPACT_EVERY)
        .with_snapshot_dir(dir)
        .with_snapshot_interval(SNAPSHOT_INTERVAL)
        .with_durability(Durability::Batch)
}

/// Start a server over fresh tenant databases and warm its caches with one
/// pass of the query mix per tenant.
fn start_server(seed: u64, dir: PathBuf, mix: &[Query]) -> Result<Server, ServeError> {
    let tenants = (0..gen::SERVE_TENANTS)
        .map(|t| (format!("t{t}"), gen::serve_db(seed, t)))
        .collect();
    let server = Server::start(tenants, serve_config(dir))?;
    for t in 0..gen::SERVE_TENANTS {
        for q in mix {
            let stream = server.submit(&format!("t{t}"), q.clone())?.wait()?;
            stream.collect::<Result<Vec<_>, _>>()?;
        }
    }
    Ok(server)
}

/// Per-process directory for the logs and snapshots of set-up `k` of group
/// `group`.
fn state_dir(group: usize, k: usize) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("serve-{}-{group}-{k}", std::process::id()))
}

/// Start [`SETUP_REPEATS`] servers one after another, each over fresh
/// tenant databases and warmed, pushing each start's time to `times`. Every
/// server is shut down and its directory removed, except the last when
/// `keep` is set: that one is returned.
fn setup_group(
    seed: u64,
    mix: &[Query],
    group: usize,
    keep: bool,
    times: &mut Vec<f64>,
) -> Result<Option<Server>, ServeError> {
    let mut server: Option<Server> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            drop(previous);
            let _ = std::fs::remove_dir_all(state_dir(group, k - 1));
        }
        let start = Instant::now();
        match start_server(seed, state_dir(group, k), mix) {
            Ok(s) => server = Some(s),
            Err(e) => {
                let _ = std::fs::remove_dir_all(state_dir(group, k));
                return Err(e);
            }
        }
        times.push(start.elapsed().as_secs_f64());
    }
    if keep {
        return Ok(server);
    }
    drop(server);
    let _ = std::fs::remove_dir_all(state_dir(group, SETUP_REPEATS - 1));
    Ok(None)
}

/// Check every completed read, tuple by tuple and bit for bit, against a
/// fresh engine (empty caches, one thread, no server) over the tenant's
/// database with as many writes applied as the read may have seen. A read
/// that raced a write may match either side of it.
///
/// A tuple may also carry the bits of the query's other union rendering:
/// the engine shares compiled artifacts between the two (a cross-query cache
/// hit), and on the tractable fast path they round differently once a
/// product has three alternatives. The reference runs the engine's own
/// step II, not [`Engine::execute_once`], which rounds the grouped MAX of the
/// mix differently again; the cold workloads check `execute_once`.
fn check_reads(
    seed: u64,
    mix: &[Query],
    writes: &[TenantWrites],
    samples: &[Sample],
) -> Result<usize, String> {
    let renderings: Vec<Vec<usize>> = mix
        .iter()
        .map(|q| {
            let form = check::union_form(q);
            (0..mix.len())
                .filter(|&r| check::union_form(&mix[r]) == form)
                .collect()
        })
        .collect();
    let was_enabled = pvc_prob::kernel_stats_enabled();
    pvc_prob::set_kernel_stats_enabled(true);
    let mut checked = 0;
    let result = (|| {
        for (t, w) in writes.iter().enumerate() {
            let applied = w.applied.load(Ordering::SeqCst);
            let reads: Vec<&Sample> = samples
                .iter()
                .filter(|s| !s.write && s.tenant == t && s.latency_s.is_some())
                .collect();
            let mut needed = BTreeSet::new();
            for s in &reads {
                for v in s.versions.0..=s.versions.1.min(applied) {
                    needed.extend(renderings[s.query].iter().map(|&r| (v, r)));
                }
            }
            let mut engine = Engine::new(gen::serve_db(seed, t));
            let mut version = 0u64;
            let mut references = HashMap::new();
            for &(v, q) in &needed {
                while version < v {
                    engine
                        .apply_delta(w.deltas[version as usize].clone())
                        .map_err(|e| format!("reference write {version} failed: {e}"))?;
                    version += 1;
                }
                let before = pvc_prob::kernel_stats().conv_fft;
                let fresh = Engine::new(engine.database().clone());
                let reference = fresh
                    .prepare(&mix[q])
                    .and_then(|p| p.execute(&EvalOptions::default()))
                    .map_err(|e| format!("reference evaluation failed: {e}"))?;
                if pvc_prob::kernel_stats().conv_fft > before {
                    return Err(format!(
                        "the FFT kernel ran for query {q}; this check keeps only bit-exact digests"
                    ));
                }
                references.insert((v, q), check::tuple_digests(&reference.tuples));
            }
            for s in &reads {
                let range = s.versions.0..=s.versions.1.min(applied);
                let matches = |v: u64| {
                    let refs: Vec<&Vec<u64>> = renderings[s.query]
                        .iter()
                        .map(|&r| &references[&(v, r)])
                        .collect();
                    refs.iter().all(|r| r.len() == s.digests.len())
                        && s.digests
                            .iter()
                            .enumerate()
                            .all(|(i, d)| refs.iter().any(|r| r[i] == *d))
                };
                if !range.clone().any(matches) {
                    return Err(format!(
                        "tenant t{t}, query {} at versions {range:?}: answer differs from the reference",
                        s.query
                    ));
                }
                checked += 1;
            }
        }
        Ok(())
    })();
    pvc_prob::set_kernel_stats_enabled(was_enabled);
    result.map(|()| checked)
}

/// The 99th percentile (nearest rank) of how late requests were sent.
fn late_p99<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> f64 {
    let mut late: Vec<f64> = samples.into_iter().map(|s| s.late_s).collect();
    late.sort_by(f64::total_cmp);
    let rank = (late.len() as f64 * 0.99).ceil() as usize;
    late.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// Run `serve_mixed`; traced runs print the per-layer metrics instead.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mix = loadgen::query_mix();

    let mut setups = Vec::with_capacity(SETUP_REPEATS * SETUP_GROUPS);
    let server = match setup_group(seed, &mix, 0, true, &mut setups) {
        Ok(server) => server.expect("the kept server is returned"),
        Err(e) => {
            eprintln!("serve_mixed: server set-up failed: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let dir = state_dir(0, SETUP_REPEATS - 1);

    // Schedules are fixed by the seed: the same requests every run.
    let schedules: Vec<(f64, Vec<Request>)> = PHASES
        .iter()
        .enumerate()
        .map(|(p, &(share, time))| {
            let rate = NOMINAL_RATE * share;
            let count = (rate * seconds * time).round() as usize;
            (rate, gen::serve_schedule(seed, p, count, mix.len()))
        })
        .collect();
    let writes = (0..gen::SERVE_TENANTS)
        .map(|t| {
            let count = schedules
                .iter()
                .flat_map(|(_, s)| s)
                .filter(|r| matches!(r, Request::Write { tenant } if *tenant == t))
                .count();
            TenantWrites {
                started: AtomicU64::new(0),
                applied: AtomicU64::new(0),
                next: Mutex::new(0),
                deltas: gen::serve_writes(seed, t, count, gen::SERVE_SHOPS, gen::SERVE_PER_SHOP),
            }
        })
        .collect();
    let ctx = Ctx {
        server,
        mix: mix.clone(),
        writes,
        tenants: (0..gen::SERVE_TENANTS).map(|t| format!("t{t}")).collect(),
    };

    let gens = report::nproc().clamp(1, 2);
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let stop = AtomicBool::new(false);
    if traced {
        obs::reset();
        obs::set_tracing_enabled(true);
    }
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        // Flip the program's metrics on and off with the trace blocks.
        let toggler = traced.then(|| {
            scope.spawn(|| {
                let mut block = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    obs::set_metrics_enabled(block % 2 == 1);
                    block += 1;
                    let next = epoch + TRACE_BLOCK * block as u32;
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    }
                }
                obs::set_metrics_enabled(false);
            })
        });
        for (p, (rate, schedule)) in schedules.iter().enumerate() {
            let start = Instant::now() + Duration::from_millis(10);
            let trace_epoch = traced.then_some(epoch);
            let handles: Vec<_> = (0..gens)
                .map(|g| {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        generate(ctx, p, *rate, start, schedule, g, gens, trace_epoch)
                    })
                })
                .collect();
            for h in handles {
                let (s, r) = h.join().expect("generator thread panicked");
                samples.extend(s);
                if let Some(r) = r {
                    rec.merge(r);
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(t) = toggler {
            t.join().expect("metrics toggler panicked");
        }
    });
    samples.sort_by_key(|s| (s.phase, s.index));
    let snap = obs::snapshot();
    obs::set_tracing_enabled(false);
    let stats = ctx.server.stats();
    let cache: Vec<_> = ctx
        .tenants
        .iter()
        .filter_map(|t| ctx.server.cache_stats(t).ok())
        .collect();
    let Ctx { server, writes, .. } = ctx;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    // More set-ups once the traffic is over, so that `setup_s` samples the
    // host at both ends of the run. They come after the server's shutdown,
    // so they add nothing to its peak memory.
    let mut setup_failed = false;
    for group in 1..SETUP_GROUPS {
        if let Err(e) = setup_group(seed, &mix, group, false, &mut setups) {
            eprintln!("serve_mixed: server set-up failed: {e}");
            setup_failed = true;
            break;
        }
    }

    out.attempted = samples.len() as u64 + setup_failed as u64;
    out.failed =
        samples.iter().filter(|s| s.latency_s.is_none()).count() as u64 + setup_failed as u64;
    out.correct = match check_reads(seed, &mix, &writes, &samples) {
        Ok(checked) => {
            out.context("reads_checked", checked.to_string());
            true
        }
        Err(e) => {
            eprintln!("serve_mixed: wrong answer: {e}");
            false
        }
    };

    // Per-phase latency, and the highest rate that met the limit.
    let nominal = PHASES.len() - 1;
    let mut max_rate = 0.0;
    let mut phases_json = Vec::new();
    for (p, (rate, _)) in schedules.iter().enumerate() {
        let of_phase: Vec<&Sample> = samples.iter().filter(|s| s.phase == p).collect();
        let reads: Vec<f64> = of_phase
            .iter()
            .filter(|s| !s.write)
            .filter_map(|s| s.latency_s)
            .collect();
        let failed = of_phase.iter().filter(|s| s.latency_s.is_none()).count();
        let tail = Tail::of(&reads);
        let late = late_p99(of_phase.iter().copied());
        let met = failed == 0
            && late <= LATENCY_LIMIT_S
            && tail.is_some_and(|t| t.value <= LATENCY_LIMIT_S);
        if met {
            max_rate = *rate;
        }
        phases_json.push(format!(
            "{{\"offered_qps\": {rate}, \"requests\": {}, \"failed\": {failed}, \"query_p50_s\": {}, \"query_tail_s\": {}, \"tail\": {}, \"late_p99_s\": {late}, \"meets_limit\": {met}}}",
            of_phase.len(),
            median(&reads),
            tail.map_or("null".into(), |t| t.value.to_string()),
            tail.map_or("null".into(), |t| t.json()),
        ));
    }

    let nominal_samples: Vec<&Sample> = samples.iter().filter(|s| s.phase == nominal).collect();
    if traced {
        traced_metrics(&mut out, seed, &samples, &rec, &snap, &stats, &cache);
    } else {
        let reads: Vec<f64> = nominal_samples
            .iter()
            .filter(|s| !s.write)
            .filter_map(|s| s.latency_s)
            .collect();
        let writes_l: Vec<f64> = nominal_samples
            .iter()
            .filter(|s| s.write)
            .filter_map(|s| s.latency_s)
            .collect();
        let window = nominal_samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        out.metric("setup_s", median(&setups));
        out.context(
            "throughput_qps",
            (reads.len() as f64 / window.max(1e-9)).to_string(),
        );
        report::latencies(&mut out, &reads, &writes_l, REFERENCE_PERCENTILE);
        out.metric("peak_rss_mb", report::peak_rss_mb());
        out.context("setup_shape_s", stats::shape_json(&setups));
    }

    out.context("workload", "\"serve_mixed\"");
    out.context("seed", seed.to_string());
    out.context("nproc", report::nproc().to_string());
    out.context("pool_threads", POOL_THREADS.to_string());
    out.context("engine_threads", POOL_THREADS.to_string());
    out.context("generator_threads", gens.to_string());
    out.context(
        "loop",
        "\"open: requests due on a fixed schedule, timed from when due\"",
    );
    out.context("nominal_rate_qps", NOMINAL_RATE.to_string());
    out.context("latency_limit_s", LATENCY_LIMIT_S.to_string());
    out.context("phases", format!("[{}]", phases_json.join(", ")));
    out.context("max_rate_qps", max_rate.to_string());
    out.context(
        "durability",
        format!(
            "\"batch (snapshot every {} ms, compaction every {COMPACT_EVERY} batches)\"",
            SNAPSHOT_INTERVAL.as_millis()
        ),
    );
    out.context("write_every", gen::SERVE_WRITE_EVERY.to_string());
    out.context("tenants", gen::SERVE_TENANTS.to_string());
    out.context("snapshots", stats.snapshots.to_string());
    out.context("compactions", stats.compactions.to_string());
    out.context("late_p99_s", late_p99(&samples).to_string());
    out.context(
        "failed_ratio",
        (out.failed as f64 / out.attempted.max(1) as f64).to_string(),
    );
    out.context(
        "failures",
        format!(
            "{{\"reads\": {}, \"writes\": {}, \"server_rejected\": {}, \"server_engine_errors\": {}}}",
            samples.iter().filter(|s| !s.write && s.latency_s.is_none()).count(),
            samples.iter().filter(|s| s.write && s.latency_s.is_none()).count(),
            stats.rejected,
            stats.engine_errors
        ),
    );
    out
}

/// Per-layer metrics of a traced run. Counts are per traced request (per
/// write for the effects of writes), times are means per event, and the
/// server's run-level events (batches, compactions, snapshots, rejections,
/// busy retries) are totals over the run.
fn traced_metrics(
    out: &mut Outcome,
    seed: u64,
    samples: &[Sample],
    rec: &Recorder,
    snap: &obs::MetricsSnapshot,
    stats: &pvc_serve::ServerStats,
    cache: &[pvc_db::CacheStats],
) {
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let n = traced.len().max(1) as f64;
    let reads: Vec<&Sample> = traced
        .iter()
        .copied()
        .filter(|s| !s.write && s.latency_s.is_some())
        .collect();
    let writes: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.write && s.latency_s.is_some())
        .collect();
    let nr = reads.len().max(1) as f64;
    let nw = writes.len().max(1) as f64;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let hist = |name: &str| {
        snap.histograms
            .get(name)
            .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
    };
    let mean = |(sum, count): (f64, f64)| if count > 0.0 { sum / count } else { 0.0 };
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    let per_tenant = |f: fn(&pvc_db::CacheStats) -> usize| {
        cache.iter().map(|c| f(c) as f64).sum::<f64>() / cache.len().max(1) as f64
    };

    out.not_applicable(
        &["exec.busy_s", "intern.busy_s", "compile.busy_s", "arena.flatten_s", "arena.eval_s", "engine.step2_s"],
        "runs inside the server's scheduler and pool, where the harness cannot time it; see cold_compile and tpch_cold",
    );
    out.metric(
        "exec.tuples",
        reads.iter().map(|s| s.digests.len() as f64).sum::<f64>() / nr,
    );
    out.metric(
        "exec.rewrites_evicted",
        writes
            .iter()
            .map(|s| s.delta.evicted_rewrites as f64)
            .sum::<f64>()
            / nw,
    );
    out.metric("intern.nodes", per_tenant(|c| c.interned));
    let hits = counter("cache.semiring.hit") + counter("cache.aggregate.hit");
    let misses = counter("cache.semiring.miss") + counter("cache.aggregate.miss");
    out.metric("cache.hit_ratio", ratio(hits, misses));
    out.metric(
        "cache.arena_hit_ratio",
        ratio(counter("cache.arena.hit"), counter("cache.arena.miss")),
    );
    out.metric(
        "cache.evicted_by_delta",
        writes
            .iter()
            .map(|s| s.delta.evicted_artifacts as f64)
            .sum::<f64>()
            / nw,
    );
    out.metric(
        "cache.kept_by_delta",
        writes
            .iter()
            .map(|s| s.delta.kept_artifacts as f64)
            .sum::<f64>()
            / nw,
    );
    out.metric("cache.bytes", per_tenant(|c| c.bytes));
    // Every compiled d-tree is flattened into one arena of the same size.
    out.metric("compile.dtree_nodes", hist("arena.nodes").0 / n);
    out.not_applicable(
        &["compile.shannon_expansions", "compile.independent_splits", "compile.factorings", "compile.pruned_conditionals", "arena.bytes"],
        "kept by the compiler instance inside the server, which the harness cannot read; see cold_compile and tpch_cold",
    );
    out.metric("arena.nodes", hist("arena.nodes").0 / n);
    out.metric("kernel.conv_dense", counter("kernel.conv.dense") / n);
    out.metric("kernel.conv_sparse", counter("kernel.conv.sparse") / n);
    out.metric("kernel.conv_fft", counter("kernel.conv.fft") / n);
    out.metric("kernel.support_cells", hist("kernel.conv.support").0 / n);
    out.metric(
        "kernel.dense_chain_breaks",
        counter("kernel.dense_chain.breaks") / n,
    );
    out.metric("pool.queue_wait_s", mean(hist("pool.queue_wait_us")) / 1e6);
    out.metric("pool.run_s", mean(hist("pool.run_us")) / 1e6);
    out.metric("pool.jobs", hist("pool.run_us").1 / n);
    out.metric(
        "serve.dispatch_wait_s",
        reads.iter().map(|s| s.dispatch_wait_s).sum::<f64>() / nr,
    );
    out.metric(
        "serve.drain_s",
        reads.iter().map(|s| s.drain_s).sum::<f64>() / nr,
    );
    out.metric("serve.batches", stats.batches as f64);
    out.metric("serve.batch_size_mean", mean(hist("serve.batch.size")));
    out.metric("serve.rejected", stats.rejected as f64);
    out.metric(
        "serve.delta_busy_retries",
        samples.iter().map(|s| s.busy_retries as f64).sum(),
    );
    out.metric("serve.compactions", stats.compactions as f64);
    out.metric(
        "persist.wal_append_s",
        mean(hist("persist.wal.append.us")) / 1e6,
    );
    out.metric(
        "persist.wal_bytes_per_delta",
        mean(hist("persist.wal.append.bytes")),
    );
    out.metric("persist.snapshots", stats.snapshots as f64);
    out.metric("persist.snapshot_s", mean(hist("persist.save.us")) / 1e6);
    out.metric("persist.snapshot_bytes", mean(hist("persist.save.bytes")));
    let layers = ["submit", "dispatch_wait", "drain", "apply_delta"];
    let covered: f64 = layers.iter().map(|l| rec.self_seconds(l)).sum();
    let wall = rec.total_seconds("request") + rec.total_seconds("write");
    out.metric("ledger.coverage", covered / wall.max(1e-12));
    let nominal = PHASES.len() - 1;
    let p50 = |t: bool| {
        let l: Vec<f64> = samples
            .iter()
            .filter(|s| s.phase == nominal && !s.write && s.traced == t)
            .filter_map(|s| s.latency_s)
            .collect();
        median(&l)
    };
    out.metric("trace.overhead_ratio", p50(true) / p50(false));
    out.metric("loadgen.late_p99_s", late_p99(samples));
    out.context("per_layer_basis", "\"counts per traced request (per write for delta effects); times mean per event; serve.batches, serve.compactions, serve.rejected, serve.delta_busy_retries and persist.snapshots total per run\"");
    out.context("traced_requests", traced.len().to_string());
    crate::write_trace("serve_mixed", seed, rec);
}
