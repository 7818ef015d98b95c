//! memhier benchmark harness.
//!
//! Drives memhier's public entry points on four workloads and checks
//! every output against blessed digests:
//!
//! * `sim-hits`, `sim-misses` — `Scenario::run` over hit- and
//!   miss-dominated scenario lists;
//! * `record-fit` — `record_scenario` in setup, `run_fit` in the window;
//! * `advisor-serve` — a `memhier serve` child over HTTP.
//!
//! ```text
//! memhier-perfbench --workload W --seed N --seconds S --trace 0|1
//!                   --memhier PATH --work DIR --expected FILE
//! memhier-perfbench --self-test --memhier PATH --work DIR --expected FILE
//! memhier-perfbench --bless --memhier PATH --work DIR --expected FILE
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run.  The last line of standard output
//! is the result object.  See `perfbench/README.md`.

mod digest;
mod fit;
mod host;
mod serve;
mod sim;
mod spans;
mod window;

use digest::Digests;
use sim::ScenarioList;
use spans::SpanLog;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use window::{median, Metrics, Window};

/// Length of the advisor burst that measures the `serve.*` layer in a
/// traced run of a workload that does not drive memhierd itself.
const COMPANION_SERVE_S: f64 = 2.0;

/// Requests of the mix (beyond the hot set) the advisor-layer probes use.
const PROBE_REQUESTS: u64 = 200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    SimHits,
    SimMisses,
    RecordFit,
    AdvisorServe,
}

const WORKLOADS: [Workload; 4] = [
    Workload::SimHits,
    Workload::SimMisses,
    Workload::RecordFit,
    Workload::AdvisorServe,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SimHits => "sim-hits",
            Workload::SimMisses => "sim-misses",
            Workload::RecordFit => "record-fit",
            Workload::AdvisorServe => "advisor-serve",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }

    /// Set-ups per untraced run; `setup_s` is their median.  Starting
    /// memhierd is cheap and jittery, so it is repeated more often.
    fn setups(self) -> usize {
        match self {
            Workload::AdvisorServe => 5,
            _ => 3,
        }
    }

    /// The scenarios this workload simulates or records.
    fn scenarios(self) -> &'static [&'static str] {
        match self {
            Workload::SimHits => &sim::SIM_HITS,
            Workload::SimMisses => &sim::SIM_MISSES,
            Workload::RecordFit => &fit::RECORD_FIT,
            Workload::AdvisorServe => &[],
        }
    }
}

/// Everything a run needs besides the workload.
struct Ctx {
    seed: u64,
    seconds: f64,
    /// Self-test scale: every scenario at the `small` size tier.
    tiny: bool,
    memhier: PathBuf,
    work: PathBuf,
    digests: Digests,
}

impl Ctx {
    fn list(&self, specs: &[&str], tiny: bool) -> Result<ScenarioList, String> {
        let specs: Vec<String> = specs.iter().map(|s| sim::scaled(s, tiny)).collect();
        ScenarioList::build(&specs)
    }
}

/// A workload after setup, ready for its timed window.
enum Ready {
    Sim(ScenarioList),
    Fit {
        traces: Vec<fit::Recorded>,
        list: ScenarioList,
        record_time: Duration,
    },
    Serve(serve::Memhierd),
}

/// Set `w` up: parse its scenarios and run one untimed warm-up pass
/// (sim-*), record its traces (record-fit), or start memhierd and prime
/// the hot set (advisor-serve).
fn setup(w: Workload, ctx: &Ctx, log: &mut SpanLog) -> Result<Ready, String> {
    let open = log.open("bench.setup", 0);
    let id = open.id();
    let ready = match w {
        Workload::SimHits | Workload::SimMisses => {
            let list = ctx.list(w.scenarios(), ctx.tiny)?;
            let mut warm = Window::default();
            sim::pass(&list, &ctx.digests, ctx.seed, u64::MAX, log, id, &mut warm);
            Ready::Sim(list)
        }
        Workload::RecordFit => {
            let list = ctx.list(w.scenarios(), ctx.tiny)?;
            let dir = ctx.work.join("traces");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let (traces, record_time) = fit::record_all(&list, &dir, &ctx.digests, log, id)?;
            Ready::Fit {
                traces,
                list,
                record_time,
            }
        }
        Workload::AdvisorServe => {
            let server = serve::Memhierd::spawn(&ctx.memhier, &ctx.work)?;
            server.prime(&ctx.digests)?;
            Ready::Serve(server)
        }
    };
    log.close(open);
    Ok(ready)
}

/// Run timed window number `window` of the run: whole passes until
/// `seconds` have gone by, or the closed-loop advisor mix for `seconds`.
fn measure(
    ready: &Ready,
    ctx: &Ctx,
    window: u64,
    log: &mut SpanLog,
) -> (Window, Option<serve::ServeRun>) {
    let open = log.open("bench.window", 0);
    let id = open.id();
    let out = match ready {
        Ready::Sim(list) => (
            window::whole_passes(ctx.seconds, |p, w| {
                sim::pass(list, &ctx.digests, ctx.seed, p, log, id, w)
            }),
            None,
        ),
        Ready::Fit { traces, .. } => (
            window::whole_passes(ctx.seconds, |p, w| {
                fit::pass(traces, &ctx.digests, ctx.seed, p, log, id, w)
            }),
            None,
        ),
        Ready::Serve(server) => {
            let mut run = serve::drive(
                &server.addr,
                ctx.seed,
                window,
                ctx.seconds,
                &ctx.digests,
                log,
                id,
            );
            let window = std::mem::take(&mut run.window);
            (window, Some(run))
        }
    };
    log.close(open);
    out
}

/// A finished run: what the result line reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Everything else worth keeping about the run.
    notes: serde_json::Value,
}

/// Host diagnostics over a run that started at `cpu0`.
fn host_metrics(cpu0: Option<(u64, u64)>, m: &mut Metrics) {
    m.put(
        "host.steal_pct",
        host::steal_pct(cpu0, host::cpu_jiffies()),
        "%",
    );
    m.put("host.alu_ops_per_s", host::alu_ops_per_s(), "1/s");
    m.put("host.chase_ns", host::chase_ns(), "ns");
}

/// An untraced run: several set-ups (median reported), then the timed
/// window, end-to-end metrics only.
fn run_untraced(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let cpu0 = host::cpu_jiffies();
    let mut log = SpanLog::new(false);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..w.setups() {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(setup(w, ctx, &mut log)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up ran");
    let steal_before = host::cpu_jiffies();
    let (win, _) = measure(&ready, ctx, 0, &mut log);
    let window_steal = host::steal_pct(steal_before, host::cpu_jiffies());
    let peak_rss_mb = match &ready {
        Ready::Serve(server) => server.peak_rss_mb(),
        _ => host::peak_rss_mb("self").unwrap_or(0.0),
    };
    drop(ready);

    let mut m = Metrics::default();
    let (p50, p99) = win.latency_ms();
    m.put("ops_per_s", win.ops_per_s(), "1/s");
    m.put("p50_ms", p50, "ms");
    m.put("p99_ms", p99, "ms");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    let mut diag = Metrics::default();
    host_metrics(cpu0, &mut diag);
    // Keep the pass times; an advisor window has too many requests.
    let pass_ms = match w {
        Workload::AdvisorServe => Vec::new(),
        _ => win.latencies_ms.clone(),
    };
    let notes = serde_json::json!({
        "setups_s": setups,
        "pass_ms": pass_ms,
        "window_steal_pct": window_steal,
        "window_s": win.elapsed.as_secs_f64(),
        "samples": win.latencies_ms.len(),
        "host": diag.to_json(),
    });
    Ok(Outcome {
        attempted: win.attempted,
        failed: win.failed,
        metrics: m,
        notes,
    })
}

/// A traced run: one set-up, an untraced window, the same window traced,
/// then the layer probes.  Layers the workload drives are probed on its
/// own inputs; the others on a small companion input (recordings of the
/// workload's scenarios at the `small` tier, a short advisor burst).
fn run_traced(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let cpu0 = host::cpu_jiffies();
    let mut log = SpanLog::new(true);
    let ready = setup(w, ctx, &mut log)?;
    let (plain, _) = measure(&ready, ctx, 0, &mut SpanLog::new(false));
    let (traced, serve_run) = measure(&ready, ctx, 1, &mut log);
    let mut failed = plain.failed + traced.failed;
    let mut attempted = plain.attempted + traced.attempted;

    let mut m = Metrics::default();
    let open = log.open("bench.probes", 0);
    let id = open.id();
    let probe_dir = ctx.work.join("probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
    let hot_list;
    let sim_list = match &ready {
        Ready::Sim(list) | Ready::Fit { list, .. } => list,
        Ready::Serve(_) => {
            let specs: Vec<String> = serve::HOT
                .iter()
                .filter(|(p, _)| *p == "/v1/simulate")
                .map(|(_, b)| b.to_string())
                .collect();
            hot_list = ScenarioList::build(&specs)?;
            &hot_list
        }
    };
    failed += sim::probe(sim_list, &mut log, id, &mut m);

    let recorded;
    let (traces, record_time) = match &ready {
        Ready::Fit {
            traces,
            record_time,
            ..
        } => (traces.as_slice(), *record_time),
        _ => {
            let small = match w {
                Workload::AdvisorServe => sim_list.clone(),
                _ => ctx.list(w.scenarios(), true)?,
            };
            let (t, took) = fit::record_all(&small, &probe_dir, &ctx.digests, &mut log, id)?;
            recorded = t;
            (recorded.as_slice(), took)
        }
    };
    failed += fit::probe(traces, record_time, &probe_dir, &mut log, id, &mut m)?;

    serve::probe(ctx.seed, PROBE_REQUESTS, &mut log, id, &mut m)?;
    let serve_run = match serve_run {
        Some(run) => run,
        None => {
            let server = serve::Memhierd::spawn(&ctx.memhier, &ctx.work)?;
            server.prime(&ctx.digests)?;
            let seconds = COMPANION_SERVE_S.min(ctx.seconds.max(0.5));
            let run = serve::drive(
                &server.addr,
                ctx.seed,
                0,
                seconds,
                &ctx.digests,
                &mut log,
                id,
            );
            failed += run.window.failed;
            attempted += run.window.attempted;
            run
        }
    };
    serve_run.metrics(&mut m);
    log.close(open);
    drop(ready);

    host_metrics(cpu0, &mut m);
    let (untraced_ops, traced_ops) = (plain.ops_per_s(), traced.ops_per_s());
    m.put("bench.traced_ops_per_s", traced_ops, "1/s");
    m.put(
        "bench.trace_overhead_pct",
        100.0 * window::ratio(untraced_ops - traced_ops, untraced_ops),
        "%",
    );

    let run_id = format!("{}-seed{}-{}", w.name(), ctx.seed, std::process::id());
    let spans_path = ctx.work.join(format!("spans-{run_id}.jsonl"));
    log.write_jsonl(&spans_path, &run_id)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let notes = serde_json::json!({
        "spans": spans_path.to_string_lossy().into_owned(),
        "span_count": log.spans().len(),
        "untraced_ops_per_s": untraced_ops,
    });
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

fn run(w: Workload, trace: bool, ctx: &Ctx) -> Result<Outcome, String> {
    if trace {
        run_traced(w, ctx)
    } else {
        run_untraced(w, ctx)
    }
}

/// The result object, printed as the last line of standard output.
fn result(o: &Outcome) -> serde_json::Value {
    serde_json::json!({
        "correct": o.failed == 0,
        "attempted": o.attempted.max(1),
        "failed": o.failed,
        "metrics": o.metrics.to_json(),
    })
}

/// Command-line options.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    memhier: PathBuf,
    work: PathBuf,
    expected: PathBuf,
    self_test: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        memhier: PathBuf::new(),
        work: PathBuf::new(),
        expected: PathBuf::new(),
        self_test: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--memhier" => a.memhier = value()?.into(),
            "--work" => a.work = value()?.into(),
            "--expected" => a.expected = value()?.into(),
            "--self-test" => a.self_test = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.memhier.as_os_str().is_empty()
        || a.work.as_os_str().is_empty()
        || a.expected.as_os_str().is_empty()
    {
        return Err("--memhier, --work and --expected are required".to_string());
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(a)
}

fn main() {
    // Pin the classic engine: CI sets MEMHIER_SIM_THREADS, and every
    // scenario without an explicit `sim_threads` would follow it.
    std::env::remove_var("MEMHIER_SIM_THREADS");
    let code = match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn main_inner() -> Result<i32, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    if args.bless {
        return bless(&args);
    }
    let digests = Digests::load(&args.expected)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
        memhier: args.memhier.clone(),
        work: args.work.clone(),
        digests,
    };
    if args.self_test {
        return self_test(ctx);
    }
    let w = args.workload.ok_or("--workload is required")?;
    let outcome = run(w, args.trace, &ctx)?;
    let record = serde_json::json!({
        "workload": w.name(),
        "seed": args.seed,
        "trace": args.trace,
        "engine": "classic",
        "result": result(&outcome),
        "notes": outcome.notes,
    });
    let record_path = args.work.join(format!(
        "run-{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(
        &record_path,
        serde_json::to_string_pretty(&record).expect("serializes"),
    )
    .map_err(|e| format!("{}: {e}", record_path.display()))?;
    eprintln!(
        "perfbench: {} seed {} engine classic; run record {}",
        w.name(),
        args.seed,
        record_path.display()
    );
    println!(
        "{}",
        serde_json::to_string(&result(&outcome)).expect("the result serializes")
    );
    Ok(0)
}

/// Record the digest of every checked output: each workload once at
/// full scale and once at self-test scale, traced so that the probe
/// recordings are covered too.
fn bless(args: &Args) -> Result<i32, String> {
    let mut table = std::collections::BTreeMap::new();
    for tiny in [false, true] {
        for w in WORKLOADS {
            let ctx = Ctx {
                seed: args.seed,
                seconds: 0.0,
                tiny,
                memhier: args.memhier.clone(),
                work: args.work.clone(),
                digests: Digests::blessing(),
            };
            run_traced(w, &ctx)?;
            table.extend(ctx.digests.recorded());
            eprintln!("perfbench: blessed {} (tiny: {tiny})", w.name());
        }
    }
    digest::save(&args.expected, &table)?;
    eprintln!(
        "perfbench: wrote {} digests to {}",
        table.len(),
        args.expected.display()
    );
    Ok(0)
}

/// A metric list of `BENCHMARK.json`: (name, unit) pairs.
fn declared(doc: &serde_json::Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let unit = m.get("unit").and_then(|v| v.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json `{key}` entry without name or unit")),
            }
        })
        .collect()
}

/// Run every workload at tiny scale and check that (1) each run emits
/// every declared metric with its declared unit and no other, and (2) a
/// corrupted expected digest is counted as failed ops.
fn self_test(ctx: Ctx) -> Result<i32, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = declared(&doc, "end_to_end")?;
    let per_layer = declared(&doc, "per_layer")?;
    let mut ctx = Ctx {
        seconds: 0.5,
        tiny: true,
        ..ctx
    };
    let mut problems = Vec::new();
    for w in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let o = run(w, trace, &ctx)?;
            let got: Vec<(String, String)> = o
                .metrics
                .0
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .collect();
            for m in want.iter().filter(|m| !got.contains(m)) {
                problems.push(format!(
                    "{} trace {}: missing {} [{}]",
                    w.name(),
                    trace as u8,
                    m.0,
                    m.1
                ));
            }
            for m in got.iter().filter(|m| !want.contains(m)) {
                problems.push(format!(
                    "{} trace {}: undeclared {} [{}]",
                    w.name(),
                    trace as u8,
                    m.0,
                    m.1
                ));
            }
            if o.failed != 0 {
                problems.push(format!(
                    "{} trace {}: {} failed ops",
                    w.name(),
                    trace as u8,
                    o.failed
                ));
            }
            eprintln!(
                "perfbench: self-test {} trace {}: {} metrics",
                w.name(),
                trace as u8,
                got.len()
            );
        }
        let key = match w {
            Workload::AdvisorServe => ctx
                .digests
                .keys()
                .find(|k| k.starts_with("serve:"))
                .cloned(),
            Workload::RecordFit => Some(format!("fit:{}", sim::scaled(fit::RECORD_FIT[0], true))),
            _ => Some(format!("sim:{}", sim::scaled(w.scenarios()[0], true))),
        }
        .ok_or("no digest to corrupt")?;
        let bad = ctx.digests.corrupted(&key);
        let good = std::mem::replace(&mut ctx.digests, bad);
        let o = run(w, false, &ctx)?;
        ctx.digests = good;
        if o.failed == 0 || o.failed > o.attempted {
            problems.push(format!(
                "{}: corrupted digest `{key}` gave {} failed of {}",
                w.name(),
                o.failed,
                o.attempted
            ));
        } else {
            eprintln!(
                "perfbench: self-test {}: corrupted `{key}` -> {} of {} ops failed",
                w.name(),
                o.failed,
                o.attempted
            );
        }
    }
    for p in &problems {
        eprintln!("perfbench: self-test: {p}");
    }
    println!(
        "self-test: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(if problems.is_empty() { 0 } else { 1 })
}
