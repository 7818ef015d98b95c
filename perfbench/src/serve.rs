//! The advisor-serve workload: a `memhier serve` child driven over HTTP
//! by closed-loop clients, and the probes of the layers behind it
//! (scenario parsing, model evaluation, the cost optimizer and the HTTP
//! parser).
//!
//! Each client holds one keep-alive connection and sends its next
//! request only after the previous reply, as advisor callers (scripts,
//! optimization loops) do.  The mix is about 70% warmed hits over four
//! routes, 25% distinct analytic misses and 5% distinct small
//! simulations.

use crate::digest::Digests;
use crate::spans::SpanLog;
use crate::window::{mix64, quantile, ratio, Metrics, Window};
use memhier_bench::{paper_params, run_optimize, LoadClient, Scenario};
use memhier_core::machine::MachineSpec;
use memhier_core::model::AnalyticModel;
use memhier_core::platform::ClusterSpec;
use memhier_cost::wire::OptimizeRequest;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads, one keep-alive connection each.
pub const CLIENTS: u64 = 2;

/// The warmed hot set: four bodies on each cached route.  Their replies
/// are checked against blessed digests.
pub const HOT: [(&str, &str); 16] = [
    ("/v1/model", r#"{"config": "C5", "workload": "FFT"}"#),
    ("/v1/model", r#"{"config": "C8", "workload": "LU"}"#),
    ("/v1/model", r#"{"config": "C10", "workload": "Radix"}"#),
    ("/v1/model", r#"{"config": "C14", "workload": "EDGE"}"#),
    ("/v1/recommend", r#"{"workload": "FFT"}"#),
    ("/v1/recommend", r#"{"workload": "Radix"}"#),
    (
        "/v1/recommend",
        r#"{"workload": "LU", "budget": 20000, "top": 3}"#,
    ),
    ("/v1/recommend", r#"{"workload": "EDGE", "budget": 9000}"#),
    ("/v1/optimize", r#"{"workload": "FFT", "budget": 9000}"#),
    ("/v1/optimize", r#"{"workload": "LU", "budget": 30000}"#),
    (
        "/v1/optimize",
        r#"{"workload": "Radix", "budget": 9000, "confirm": 2}"#,
    ),
    ("/v1/optimize", r#"{"workload": "EDGE", "budget": 15000}"#),
    (
        "/v1/simulate",
        r#"{"config": "C5", "workload": "FFT", "size": "small"}"#,
    ),
    (
        "/v1/simulate",
        r#"{"config": "C8", "workload": "LU", "size": "small"}"#,
    ),
    (
        "/v1/simulate",
        r#"{"config": "C1", "workload": "Radix", "size": "small"}"#,
    ),
    (
        "/v1/simulate",
        r#"{"config": "N4", "workload": "Stencil4D", "size": "small"}"#,
    ),
];

const KERNELS: [&str; 3] = ["FFT", "LU", "Radix"];

/// Digest key of a hot body's reply.
fn hot_key(path: &str, body: &str) -> String {
    format!("serve:{path} {body}")
}

/// One request of the mix.
pub struct Req {
    /// Index into [`HOT`] for a hot body; `None` for a distinct miss.
    pub hot: Option<usize>,
    pub path: &'static str,
    pub body: String,
}

/// Request `seq` of client `client` in window `window` (0 or 1) of the
/// mix for `seed`.  Distinct misses never repeat within a run: their
/// parameters are unique per (client, seq) and offset by the seed, and
/// window 1 shifts them by a fraction, so the two windows of a traced run
/// share no miss yet ask for the same amount of work.
pub fn request(seed: u64, window: u64, client: u64, seq: u64) -> Req {
    let h = mix64(mix64(seed ^ window << 56) ^ (client << 48) ^ seq);
    let offset = (mix64(seed ^ 0x5eed) % 1000) as f64;
    let distinct = offset + (seq * CLIENTS + client) as f64 + window as f64 / 2.0;
    let clock_mhz = 200.0 + 0.25 * distinct;
    let kernel = KERNELS[((h >> 8) % 3) as usize];
    let spec = |procs: u32, cache_kb: u64, memory_mb: u64| {
        let cluster = ClusterSpec::single(MachineSpec::new(procs, cache_kb, memory_mb, clock_mhz));
        serde_json::to_value(&cluster).expect("a ClusterSpec serializes")
    };
    let (hot, path, body) = match h % 100 {
        0..=69 => {
            let i = ((h >> 16) % HOT.len() as u64) as usize;
            (Some(i), HOT[i].0, HOT[i].1.to_string())
        }
        70..=94 if (h >> 12) & 1 == 0 => {
            let procs = 1 << ((h >> 20) % 3);
            let body = serde_json::json!({"config": spec(procs, 256, 128), "workload": kernel});
            (None, "/v1/model", body_string(&body))
        }
        70..=94 => {
            let body = serde_json::json!({"workload": kernel, "budget": 5000.0 + distinct});
            (None, "/v1/optimize", body_string(&body))
        }
        _ => {
            let procs = if (h >> 20) & 1 == 0 { 2 } else { 4 };
            let body = serde_json::json!({
                "config": spec(procs, 128, 64),
                "workload": kernel,
                "size": "small"
            });
            (None, "/v1/simulate", body_string(&body))
        }
    };
    Req { hot, path, body }
}

fn body_string(v: &serde_json::Value) -> String {
    serde_json::to_string(v).expect("a JSON value serializes")
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// A running `memhier serve` child, killed and reaped on drop.
pub struct Memhierd {
    child: Child,
    pub addr: String,
}

impl Memhierd {
    /// Start `memhier serve --workers 2` on an ephemeral port and wait
    /// until `/readyz` answers 200.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Memhierd, String> {
        let addr_file: PathBuf = dir.join(format!("memhierd-{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
            ])
            .arg(&addr_file)
            .env_remove("MEMHIER_SIM_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Memhierd {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.addr.is_empty() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("memhierd exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("memhierd did not bind within 30 s".to_string());
            }
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if s.trim().parse::<std::net::SocketAddr>().is_ok() => {
                    server.addr = s.trim().to_string()
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        let _ = std::fs::remove_file(&addr_file);
        let mut client = LoadClient::new(server.addr.clone(), Duration::from_secs(10));
        loop {
            if let Ok(r) = client.exchange(&get("/readyz")) {
                if r.status == 200 {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("memhierd never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Send every hot body once (each a miss that fills the cache).  A
    /// reply that fails its digest is reported here and counted as a
    /// failed op by every window request that repeats it.
    pub fn prime(&self, digests: &Digests) -> Result<(), String> {
        let mut client = LoadClient::new(self.addr.clone(), Duration::from_secs(60));
        for (path, body) in HOT {
            let reply = client
                .exchange(&post(path, body))
                .map_err(|e| format!("priming {path} {body}: {e}"))?;
            if reply.status != 200 {
                return Err(format!("priming {path} {body}: status {}", reply.status));
            }
            if !digests.check(&hot_key(path, body), &reply.body) {
                eprintln!("perfbench: reply to {path} {body} does not match its digest");
            }
        }
        Ok(())
    }

    /// The child's peak resident set, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for Memhierd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Per-route latencies of one client (µs), by how the cache answered.
#[derive(Default)]
struct Tally {
    hits_us: Vec<f64>,
    ok_replies: u64,
    miss_us: [Vec<f64>; 3],
}

/// The closed-loop window and the statistics behind the `serve.*`
/// metrics.
pub struct ServeRun {
    pub window: Window,
    hits_us: Vec<f64>,
    ok_replies: u64,
    miss_us: [Vec<f64>; 3],
    pub queue_depth_max: u64,
    pub shed_429: u64,
    pub requeued: u64,
}

/// Is a reply correct?  A hot body must match its digest; a miss must
/// be a 200 with a JSON body.
fn check(req: &Req, status: u16, body: &[u8], digests: &Digests) -> bool {
    if status != 200 {
        return false;
    }
    match req.hot {
        Some(i) => digests.check(&hot_key(HOT[i].0, HOT[i].1), body),
        None => std::str::from_utf8(body)
            .ok()
            .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok())
            .is_some(),
    }
}

/// `GET /metrics` as JSON.
fn scrape(addr: &str) -> Option<serde_json::Value> {
    let mut client = LoadClient::new(addr.to_string(), Duration::from_secs(10));
    let reply = client.exchange(&get("/metrics")).ok()?;
    serde_json::from_str(std::str::from_utf8(&reply.body).ok()?).ok()
}

fn counter(doc: &Option<serde_json::Value>, group: &str, key: &str) -> u64 {
    let doc = match doc {
        Some(d) => d,
        None => return 0,
    };
    let v = if group.is_empty() {
        doc.get(key)
    } else {
        doc.get(group).and_then(|g| g.get(key))
    };
    v.and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Drive window `window` of the mix from [`CLIENTS`] closed-loop
/// clients for `seconds`.  A traced run records one span per request
/// and samples `/metrics` for the queue depth.
pub fn drive(
    addr: &str,
    seed: u64,
    window: u64,
    seconds: f64,
    digests: &Digests,
    log: &mut SpanLog,
    parent: u64,
) -> ServeRun {
    let traced = log.enabled();
    let before = if traced { scrape(addr) } else { None };
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = traced.then(|| {
        let (addr, stop) = (addr.to_string(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(counter(&scrape(&addr), "queue", "depth"));
                std::thread::sleep(Duration::from_millis(50));
            }
            max
        })
    });
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Window, Tally, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut clog = log.fork();
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut t = Tally::default();
                    let mut client = LoadClient::new(addr.to_string(), Duration::from_secs(60));
                    let mut seq = 0;
                    while Instant::now() < end {
                        let req = request(seed, window, c, seq);
                        seq += 1;
                        let wire = post(req.path, &req.body);
                        let mut open = clog.open("serve.request", parent);
                        let t0 = Instant::now();
                        let reply = client.exchange(&wire);
                        let took = t0.elapsed();
                        let (ok, cache) = match &reply {
                            Ok(r) => (
                                check(&req, r.status, &r.body, digests),
                                r.header("x-cache").map(str::to_string),
                            ),
                            Err(e) => {
                                eprintln!("perfbench: {} failed: {e}", req.path);
                                (false, None)
                            }
                        };
                        let us = took.as_secs_f64() * 1e6;
                        let hit = matches!(cache.as_deref(), Some("hit") | Some("stale"));
                        if ok {
                            t.ok_replies += 1;
                        }
                        let route = match req.path {
                            "/v1/model" => Some(0),
                            "/v1/optimize" => Some(1),
                            "/v1/simulate" => Some(2),
                            _ => None,
                        };
                        open.rename(match (hit, route) {
                            (true, _) => "serve.hit",
                            (false, Some(0)) => "serve.miss.model",
                            (false, Some(1)) => "serve.miss.optimize",
                            (false, Some(2)) => "serve.miss.simulate",
                            (false, _) => "serve.miss.other",
                        });
                        clog.close(open);
                        if hit {
                            t.hits_us.push(us);
                        } else if let (true, Some(r)) = (cache.is_some(), route) {
                            t.miss_us[r].push(us);
                        }
                        w.record(1, ok);
                        w.latencies_ms.push(took.as_secs_f64() * 1e3);
                    }
                    (w, t, clog)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let queue_depth_max = sampler
        .map(|h| h.join().expect("the /metrics sampler panicked"))
        .unwrap_or(0);
    let after = if traced { scrape(addr) } else { None };

    let mut run = ServeRun {
        window: Window::default(),
        hits_us: Vec::new(),
        ok_replies: 0,
        miss_us: Default::default(),
        queue_depth_max,
        shed_429: counter(&after, "requests", "rejected_busy").saturating_sub(counter(
            &before,
            "requests",
            "rejected_busy",
        )),
        requeued: counter(&after, "", "requeued_jobs").saturating_sub(counter(
            &before,
            "",
            "requeued_jobs",
        )),
    };
    for (w, t, clog) in results {
        run.window.ops += w.ops;
        run.window.attempted += w.attempted;
        run.window.failed += w.failed;
        run.window.latencies_ms.extend(w.latencies_ms);
        run.hits_us.extend(t.hits_us);
        run.ok_replies += t.ok_replies;
        for (all, mine) in run.miss_us.iter_mut().zip(t.miss_us) {
            all.extend(mine);
        }
        log.merge(clog);
    }
    run.window.elapsed = elapsed;
    run
}

impl ServeRun {
    /// The `serve.*` metrics of this window.
    pub fn metrics(&self, m: &mut Metrics) {
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        let hits = sorted(&self.hits_us);
        m.put("serve.hit_p50_us", quantile(&hits, 0.50), "us");
        m.put("serve.hit_p99_us", quantile(&hits, 0.99), "us");
        m.put(
            "serve.hit_ratio",
            ratio(hits.len() as f64, self.ok_replies as f64),
            "ratio",
        );
        for (route, v) in ["model", "optimize", "simulate"].iter().zip(&self.miss_us) {
            m.put(
                format!("serve.miss_p50_ms.{route}"),
                quantile(&sorted(v), 0.50) / 1e3,
                "ms",
            );
        }
        m.put(
            "serve.queue_depth_max",
            self.queue_depth_max as f64,
            "count",
        );
        m.put("serve.shed_429", self.shed_429 as f64, "count");
        m.put("serve.requeued", self.requeued as f64, "count");
    }
}

/// Probe the layers behind the advisor on the mix's bodies: the hot set
/// and the first `n` requests of client 0.  Times `Scenario::from_json`,
/// `AnalyticModel::evaluate`, `run_optimize` and `http::try_parse`.
pub fn probe(
    seed: u64,
    n: u64,
    log: &mut SpanLog,
    parent: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    const REPS: usize = 200;
    let mut reqs: Vec<(&str, String)> = HOT.iter().map(|&(p, b)| (p, b.to_string())).collect();
    reqs.extend(
        (0..n)
            .map(|i| request(seed, 0, 0, i))
            .map(|r| (r.path, r.body)),
    );
    let parsed: Vec<(&str, serde_json::Value)> = reqs
        .iter()
        .map(|(p, b)| {
            serde_json::from_str(b)
                .map(|v| (*p, v))
                .map_err(|e| format!("{b}: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let scenario_bodies: Vec<&serde_json::Value> = parsed
        .iter()
        .filter(|(p, _)| *p == "/v1/model" || *p == "/v1/simulate")
        .map(|(_, v)| v)
        .collect();
    let (_, took) = log.time("bench.scenario_parse", parent, || {
        for _ in 0..REPS {
            for v in &scenario_bodies {
                black_box(Scenario::from_json(v).ok());
            }
        }
    });
    m.put(
        "bench.scenario_parse_us",
        ratio(
            took.as_secs_f64() * 1e6,
            (REPS * scenario_bodies.len()) as f64,
        ),
        "us",
    );

    let model_inputs: Vec<Scenario> = parsed
        .iter()
        .filter(|(p, _)| *p == "/v1/model")
        .map(|(_, v)| Scenario::from_json(v).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let model = AnalyticModel::default();
    let (_, took) = log.time("core.model_eval", parent, || {
        for _ in 0..REPS {
            for s in &model_inputs {
                black_box(model.evaluate(&s.config, &paper_params(s.workload)).ok());
            }
        }
    });
    m.put(
        "core.model_eval_us",
        ratio(took.as_secs_f64() * 1e6, (REPS * model_inputs.len()) as f64),
        "us",
    );

    let optimize: Vec<OptimizeRequest> = parsed
        .iter()
        .filter(|(p, _)| *p == "/v1/optimize")
        .map(|(_, v)| OptimizeRequest::from_json(v).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (mut candidates, mut confirmed) = (0u64, 0u64);
    let open = log.open("cost.optimize", parent);
    for req in &optimize {
        let report = run_optimize(req).map_err(|e| e.to_string())?;
        candidates += report.search.candidates as u64;
        confirmed += report.search.confirmed as u64;
    }
    let took = log.close(open);
    m.put(
        "cost.candidates_per_s",
        ratio(candidates as f64, took.as_secs_f64()),
        "1/s",
    );
    m.put(
        "cost.pruning_ratio",
        ratio((candidates - confirmed) as f64, candidates as f64),
        "ratio",
    );

    let wires: Vec<Vec<u8>> = reqs.iter().map(|(p, b)| post(p, b)).collect();
    let (parsed_ok, took) = log.time("serve.parse", parent, || {
        let mut ok = 0usize;
        for _ in 0..REPS {
            for w in &wires {
                ok += matches!(memhier_serve::http::try_parse(w), Ok(Some(_))) as usize;
            }
        }
        ok
    });
    if parsed_ok != REPS * wires.len() {
        return Err("http::try_parse rejected a request of the mix".to_string());
    }
    m.put(
        "serve.parse_ns",
        ratio(took.as_secs_f64() * 1e9, (REPS * wires.len()) as f64),
        "ns",
    );
    Ok(())
}
