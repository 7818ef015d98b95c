//! Parallel, memoizing sweep runner for the experiment harness.
//!
//! Every figure/table experiment is a *sweep*: a grid of
//! `(workload kind × cluster config)` points, each point one full
//! program-driven simulation.  This module makes that grid explicit
//! ([`SweepPlan`]), fans the points out over a rayon pool ([`run_sweep`]),
//! and memoizes the expensive single-processor characterizations
//! ([`characterize_cached`]) so each address stream is generated and
//! stack-distance-analyzed exactly once per process, no matter how many
//! experiments ask for it.
//!
//! Determinism contract: `run_sweep` returns results **ordered by grid
//! index**, and each simulation is itself deterministic (fixed workload
//! seeds, single-threaded event engine per point).  Serializing the
//! results of a `--jobs 1` run and a `--jobs 8` run therefore yields
//! byte-identical JSON — `crates/bench/tests/determinism.rs` locks this
//! in.
//!
//! Worker count resolution, highest priority first:
//! 1. [`set_jobs`] (the binaries' `--jobs N` flag via
//!    [`configure_from_args`]);
//! 2. the `MEMHIER_JOBS` environment variable;
//! 3. the host's available parallelism.

use crate::faults::{FaultAction, FaultPlan, FaultSite};
use crate::runner::{
    characterize, simulate_workload_observed, Characterization, ObservedRun, ObserverConfig,
    SimRun, Sizes,
};
use memhier_core::machine::LatencyParams;
use memhier_core::platform::ClusterSpec;
use memhier_sim::observe::{MetricsSeries, TraceLog};
use memhier_sim::report::SimReport;
use memhier_workloads::registry::{Workload, WorkloadKind};
use memhier_workloads::spmd::ProcCounters;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Process-wide `--jobs` override (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Fix the worker count for every subsequent sweep (0 clears the
/// override).
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Resolve the worker count: [`set_jobs`] override, else `MEMHIER_JOBS`,
/// else available parallelism.
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("MEMHIER_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse `--jobs N` / `--jobs=N` from a binary's argument list and
/// install the override (also exported through `MEMHIER_JOBS` so library
/// code that sizes its own rayon pools — e.g. the cost optimizer — sees
/// the same setting).  Returns the resolved worker count.
pub fn configure_from_args(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parsed = if a == "--jobs" {
            it.next().and_then(|v| v.parse::<usize>().ok())
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            v.parse::<usize>().ok()
        } else {
            continue;
        };
        match parsed {
            Some(n) if n > 0 => {
                set_jobs(n);
                std::env::set_var("MEMHIER_JOBS", n.to_string());
            }
            _ => eprintln!("warning: ignoring malformed --jobs (want a positive integer)"),
        }
    }
    jobs()
}

/// One grid point: a workload kind on a cluster configuration.  The
/// problem size and latency table live on the [`SweepPlan`] so a plan
/// stays a plain cross-product.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Which kernel to run.
    pub kind: WorkloadKind,
    /// Where to run it.
    pub cluster: ClusterSpec,
}

/// An ordered grid of simulation points.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Label used in progress output and artifacts.
    pub name: String,
    /// Problem-size tier applied to every point.
    pub sizes: Sizes,
    /// Memory-hierarchy latency table applied to every point.
    pub latency: LatencyParams,
    /// Observer configuration applied to every point (default: none —
    /// the engine's hot loop stays snapshot-free).
    pub observers: ObserverConfig,
    points: Vec<GridPoint>,
}

impl SweepPlan {
    /// Empty plan at `sizes` with the paper's latency table.
    pub fn new(name: impl Into<String>, sizes: Sizes) -> Self {
        SweepPlan {
            name: name.into(),
            sizes,
            latency: LatencyParams::paper(),
            observers: ObserverConfig::default(),
            points: Vec::new(),
        }
    }

    /// Replace the latency table.
    pub fn with_latency(mut self, latency: LatencyParams) -> Self {
        self.latency = latency;
        self
    }

    /// Attach observers to every point: each worker builds its own
    /// `SimSession` from this config, so observer state never crosses
    /// threads and grid-order determinism is preserved.
    pub fn with_observers(mut self, observers: ObserverConfig) -> Self {
        self.observers = observers;
        self
    }

    /// Append the full `clusters × kinds` cross-product, cluster-major
    /// (matching the reading order of the paper's figures: all kernels on
    /// C1, then all on C2, ...).
    pub fn cross(mut self, clusters: &[ClusterSpec], kinds: &[WorkloadKind]) -> Self {
        for cluster in clusters {
            for &kind in kinds {
                self.points.push(GridPoint {
                    kind,
                    cluster: cluster.clone(),
                });
            }
        }
        self
    }

    /// Append a single point.
    pub fn point(mut self, cluster: &ClusterSpec, kind: WorkloadKind) -> Self {
        self.points.push(GridPoint {
            kind,
            cluster: cluster.clone(),
        });
        self
    }

    /// The grid, in index order.
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// One completed grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Index into the plan's grid.
    pub index: usize,
    /// The point that ran.
    pub point: GridPoint,
    /// Simulation outputs.
    pub run: SimRun,
    /// Windowed metrics, when the plan's observers requested them.
    pub metrics: Option<memhier_sim::observe::MetricsSeries>,
    /// Bounded event trace, when the plan's observers requested it.
    pub trace: Option<memhier_sim::observe::TraceLog>,
}

/// Execute every point of `plan` on a rayon pool of [`jobs`] workers and
/// return the results **in grid order** (independent of scheduling).
/// Per-point progress and total wall-clock go to stderr; stdout stays
/// clean for tables.
///
/// When a process-wide [`CheckpointConfig`] is installed (the binaries'
/// `--checkpoint`/`--resume`/`--max-retries`/`--faults` flags via
/// [`Matches::apply_sweep_config`](crate::flags::Matches::apply_sweep_config)),
/// the sweep routes through [`run_sweep_checkpointed`]: completed points
/// are journaled, quarantined points are dropped from the result with a
/// stderr warning, and a fingerprint mismatch on `--resume` aborts the
/// process.  With no config installed this is the plain in-memory path.
pub fn run_sweep(plan: &SweepPlan) -> Vec<PointResult> {
    if let Some(cfg) = checkpoint_config().filter(CheckpointConfig::is_active) {
        match run_sweep_checkpointed(plan, &cfg) {
            Ok(outcome) => {
                let quarantined = outcome.quarantined();
                if quarantined > 0 {
                    eprintln!(
                        "[sweep {}] warning: dropping {quarantined} quarantined point(s) \
                         from the result set",
                        plan.name
                    );
                }
                return outcome.into_results();
            }
            Err(e) => {
                eprintln!("error: checkpointed sweep `{}` failed: {e}", plan.name);
                std::process::exit(2);
            }
        }
    }
    run_sweep_direct(plan)
}

/// The plain in-memory sweep: no journal, no retries, panics propagate.
fn run_sweep_direct(plan: &SweepPlan) -> Vec<PointResult> {
    let n = plan.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs().min(n);
    let t0 = Instant::now();
    eprintln!("[sweep {}] {n} point(s) on {workers} worker(s)", plan.name);
    let done = AtomicUsize::new(0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("sweep thread pool");
    let mut results: Vec<PointResult> = pool.install(|| {
        plan.points
            .iter()
            .cloned()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(index, point)| {
                let tp = Instant::now();
                let workload = plan.sizes.workload(point.kind);
                let ObservedRun {
                    run,
                    metrics,
                    trace,
                } = simulate_workload_observed(
                    &workload,
                    &point.cluster,
                    &plan.latency,
                    &plan.observers,
                );
                let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                eprintln!(
                    "[sweep {}] {finished}/{n}: {} on {} ({:.2}s)",
                    plan.name,
                    point.kind.name(),
                    point.cluster.name.as_deref().unwrap_or("unnamed"),
                    tp.elapsed().as_secs_f64(),
                );
                PointResult {
                    index,
                    point,
                    run,
                    metrics,
                    trace,
                }
            })
            .collect()
    });
    // The shim pool already preserves order; sort anyway so the contract
    // holds under any work-stealing scheduler (including real rayon).
    results.sort_unstable_by_key(|r| r.index);
    eprintln!(
        "[sweep {}] finished {n} point(s) in {:.2}s",
        plan.name,
        t0.elapsed().as_secs_f64()
    );
    results
}

/// Key of one memoized characterization.  A [`Workload`] value carries
/// kind, problem size, and decomposition, so `(workload, granularity)`
/// pins down the address stream exactly (the internal sharing probe's
/// 4-process decomposition is part of `characterize`'s definition).
type CharKey = (Workload, u64);

static CHAR_CACHE: OnceLock<Mutex<HashMap<CharKey, Arc<Characterization>>>> = OnceLock::new();

fn char_cache() -> &'static Mutex<HashMap<CharKey, Arc<Characterization>>> {
    CHAR_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Lock a mutex, recovering from poisoning.  Every critical section in
/// this module leaves its data structurally valid at every await-free
/// step (a `HashMap` insert, a journal line append), so a panic that
/// poisoned the lock — e.g. an injected `point:panic` unwinding through a
/// worker — does not invalidate the data.  Refusing the lock forever
/// (the `.unwrap()` default) would turn one quarantined point into a
/// process-wide brick.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Memoized [`characterize`]: the first caller pays for trace generation
/// and stack-distance analysis; everyone after gets the cached result.
/// `characterize` is deterministic, so a racing double-computation (the
/// lock is not held across the analysis) is wasted work, never a wrong
/// answer.
pub fn characterize_cached(workload: &Workload, granularity: u64) -> Arc<Characterization> {
    let key = (*workload, granularity);
    if let Some(hit) = lock_unpoisoned(char_cache()).get(&key) {
        return Arc::clone(hit);
    }
    let t0 = Instant::now();
    let fresh = Arc::new(characterize(workload, granularity));
    eprintln!(
        "[characterize] {} ({:.2}s, cached)",
        fresh.name,
        t0.elapsed().as_secs_f64()
    );
    lock_unpoisoned(char_cache())
        .entry(key)
        .or_insert(fresh)
        .clone()
}

/// Characterize several kinds in parallel (each via the cache), returned
/// in input order.
pub fn characterize_many(
    sizes: Sizes,
    kinds: &[WorkloadKind],
    granularity: u64,
) -> Vec<Characterization> {
    let workers = jobs().min(kinds.len().max(1));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("characterization thread pool");
    pool.install(|| {
        kinds
            .to_vec()
            .into_par_iter()
            .map(|kind| (*characterize_cached(&sizes.workload(kind), granularity)).clone())
            .collect()
    })
}

/// Number of distinct characterizations currently memoized (test hook).
pub fn char_cache_len() -> usize {
    lock_unpoisoned(char_cache()).len()
}

// ---------------------------------------------------------------------------
// Crash-safe checkpointing + panic quarantine
// ---------------------------------------------------------------------------

/// Deterministic retry backoff: `BACKOFF_BASE_MS << (attempt - 1)` before
/// retry `attempt` (1-based).  Pure function of the attempt number — a
/// resumed run waits exactly as long as the original would have.
const BACKOFF_BASE_MS: u64 = 25;

/// Default bound on per-point retries after a failure or panic.
pub const DEFAULT_MAX_RETRIES: u32 = 1;

/// How [`run_sweep_checkpointed`] journals, resumes, retries, and injects
/// faults.  The default config is fully inert: no journal, no resume,
/// [`DEFAULT_MAX_RETRIES`] retries, empty fault plan.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Append-only JSONL journal path (`--checkpoint PATH`).  `None`
    /// keeps the sweep in memory (retries and faults still apply).
    pub path: Option<PathBuf>,
    /// Verify the journal fingerprint and skip completed grid indices
    /// (`--resume`).
    pub resume: bool,
    /// Retries per point after a failure or panic (`--max-retries N`).
    pub max_retries: u32,
    /// Fault-injection plan (`--faults SPEC` / `MEMHIER_FAULTS`).
    pub faults: FaultPlan,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            path: None,
            resume: false,
            max_retries: DEFAULT_MAX_RETRIES,
            faults: FaultPlan::default(),
        }
    }
}

impl CheckpointConfig {
    /// Whether this config changes anything relative to the plain
    /// in-memory sweep (used by [`run_sweep`] to decide whether to route
    /// through the checkpointed path).
    pub fn is_active(&self) -> bool {
        self.path.is_some() || self.resume || !self.faults.is_empty()
    }
}

/// Process-wide checkpoint config installed by the binaries' flag layer
/// (same pattern as the `--jobs` override: sweep entry points are called
/// from deep inside experiment code that predates these flags).
static CKPT_CONFIG: Mutex<Option<CheckpointConfig>> = Mutex::new(None);

/// Install (or clear, with `None`) the process-wide checkpoint config
/// that [`run_sweep`] picks up.
pub fn set_checkpoint_config(cfg: Option<CheckpointConfig>) {
    *lock_unpoisoned(&CKPT_CONFIG) = cfg;
}

/// The installed process-wide checkpoint config, if any.
pub fn checkpoint_config() -> Option<CheckpointConfig> {
    lock_unpoisoned(&CKPT_CONFIG).clone()
}

/// Terminal state of one grid point after retries.
// `Ok` dwarfs the error variants, but it is also the overwhelmingly
// common case; boxing it would cost an allocation per healthy point.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// The point completed (possibly after retries).
    Ok {
        /// The completed result.
        result: PointResult,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Every attempt returned an error (today only injected `point:io`
    /// faults produce this; real simulation failures panic).
    Failed {
        /// Index into the plan's grid.
        index: usize,
        /// The point that failed.
        point: GridPoint,
        /// The final attempt's error.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Every attempt panicked; the point is quarantined instead of
    /// aborting the sweep.
    Panicked {
        /// Index into the plan's grid.
        index: usize,
        /// The point that panicked.
        point: GridPoint,
        /// The final panic payload (stringified).
        message: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl PointOutcome {
    /// Index into the plan's grid.
    pub fn index(&self) -> usize {
        match self {
            PointOutcome::Ok { result, .. } => result.index,
            PointOutcome::Failed { index, .. } | PointOutcome::Panicked { index, .. } => *index,
        }
    }

    /// Attempts consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            PointOutcome::Ok { attempts, .. }
            | PointOutcome::Failed { attempts, .. }
            | PointOutcome::Panicked { attempts, .. } => *attempts,
        }
    }

    /// The completed result, if the point succeeded.
    pub fn result(&self) -> Option<&PointResult> {
        match self {
            PointOutcome::Ok { result, .. } => Some(result),
            _ => None,
        }
    }

    /// The quarantine reason, if the point did not succeed.
    pub fn error(&self) -> Option<&str> {
        match self {
            PointOutcome::Ok { .. } => None,
            PointOutcome::Failed { error, .. } => Some(error),
            PointOutcome::Panicked { message, .. } => Some(message),
        }
    }
}

/// Everything [`run_sweep_checkpointed`] produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One outcome per grid point, in grid order.
    pub outcomes: Vec<PointOutcome>,
    /// Points loaded from the journal instead of re-executed.
    pub resumed: usize,
    /// Journal appends that failed (real I/O errors or injected
    /// `ckpt:io` faults); the affected points completed but will re-run
    /// on resume.
    pub checkpoint_errors: usize,
}

impl SweepOutcome {
    /// Completed results in grid order (quarantined points omitted).
    pub fn results(&self) -> Vec<&PointResult> {
        self.outcomes
            .iter()
            .filter_map(PointOutcome::result)
            .collect()
    }

    /// Consume into completed results in grid order.
    pub fn into_results(self) -> Vec<PointResult> {
        self.outcomes
            .into_iter()
            .filter_map(|o| match o {
                PointOutcome::Ok { result, .. } => Some(result),
                _ => None,
            })
            .collect()
    }

    /// Number of quarantined (non-Ok) points.
    pub fn quarantined(&self) -> usize {
        self.outcomes.len() - self.results().len()
    }
}

/// Journal format version (bumped on incompatible record changes).
const JOURNAL_VERSION: u64 = 1;

/// Terminal status recorded in a journal line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum JournalStatus {
    /// Point completed; payload fields are populated.
    Ok,
    /// Point failed with an error on every attempt.
    Failed,
    /// Point panicked on every attempt.
    Panicked,
}

/// One journal line: the terminal outcome of one grid point, with the
/// full result payload for `Ok` so a resumed run can reproduce the
/// original output byte for byte without re-simulating.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalRecord {
    index: usize,
    status: JournalStatus,
    attempts: u32,
    error: Option<String>,
    report: Option<SimReport>,
    counters: Option<ProcCounters>,
    metrics: Option<MetricsSeries>,
    trace: Option<TraceLog>,
}

impl JournalRecord {
    fn from_outcome(outcome: &PointOutcome) -> JournalRecord {
        match outcome {
            PointOutcome::Ok { result, attempts } => JournalRecord {
                index: result.index,
                status: JournalStatus::Ok,
                attempts: *attempts,
                error: None,
                report: Some(result.run.report.clone()),
                counters: Some(result.run.counters),
                metrics: result.metrics.clone(),
                trace: result.trace.clone(),
            },
            PointOutcome::Failed {
                index,
                error,
                attempts,
                ..
            } => JournalRecord {
                index: *index,
                status: JournalStatus::Failed,
                attempts: *attempts,
                error: Some(error.clone()),
                report: None,
                counters: None,
                metrics: None,
                trace: None,
            },
            PointOutcome::Panicked {
                index,
                message,
                attempts,
                ..
            } => JournalRecord {
                index: *index,
                status: JournalStatus::Panicked,
                attempts: *attempts,
                error: Some(message.clone()),
                report: None,
                counters: None,
                metrics: None,
                trace: None,
            },
        }
    }

    /// Rebuild the in-memory outcome for a completed record (`None` for
    /// non-`Ok` records and for `Ok` records missing their payload —
    /// both re-run).
    fn into_outcome(self, plan: &SweepPlan) -> Option<PointOutcome> {
        if self.status != JournalStatus::Ok || self.index >= plan.len() {
            return None;
        }
        let point = plan.points()[self.index].clone();
        Some(PointOutcome::Ok {
            result: PointResult {
                index: self.index,
                point,
                run: SimRun {
                    report: self.report?,
                    counters: self.counters?,
                },
                metrics: self.metrics,
                trace: self.trace,
            },
            attempts: self.attempts,
        })
    }
}

/// FNV-1a 64-bit, the journal's fingerprint hash: tiny, dependency-free,
/// and stable across platforms and runs (unlike `DefaultHasher`, whose
/// algorithm is explicitly unspecified).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of everything that determines a sweep's output: crate
/// version, plan name, sizes, latency table, observers, and every grid
/// point (kind + full cluster spec).  The fault plan is deliberately
/// excluded — faults perturb *execution*, not the work's identity, so a
/// faulty run may be resumed with faults off to finish cleanly.
pub fn plan_fingerprint(plan: &SweepPlan) -> u64 {
    let mut desc = String::new();
    desc.push_str(env!("CARGO_PKG_VERSION"));
    desc.push('|');
    desc.push_str(&plan.name);
    desc.push('|');
    desc.push_str(&format!("{:?}", plan.sizes));
    desc.push('|');
    desc.push_str(&serde_json::to_string(&plan.latency).expect("latency serializes"));
    desc.push('|');
    desc.push_str(&format!("{:?}", plan.observers));
    desc.push('|');
    // A constant token: journals written by earlier builds hash it, so
    // dropping it would stop them from resuming.
    desc.push_str("engine:classic");
    for p in plan.points() {
        desc.push('|');
        desc.push_str(p.kind.name());
        desc.push('|');
        desc.push_str(&serde_json::to_string(&p.cluster).expect("cluster serializes"));
    }
    fnv1a(desc.as_bytes())
}

/// What `load_journal` found on disk.
struct LoadedJournal {
    /// Last record per grid index (later lines win).
    records: HashMap<usize, JournalRecord>,
    /// Whether a valid, fingerprint-matching header line was present.
    header_ok: bool,
}

/// Read a journal, tolerating a torn trailing line (the SIGKILL case):
/// parsing stops at the first malformed line with a warning.  A
/// fingerprint mismatch is an error when `resume` is set (silently
/// continuing would merge two different experiments into one artifact)
/// and a fresh start otherwise.
fn load_journal(path: &Path, fingerprint: u64, resume: bool) -> Result<LoadedJournal, String> {
    let empty = LoadedJournal {
        records: HashMap::new(),
        header_ok: false,
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(empty),
        Err(e) => return Err(format!("cannot read checkpoint `{}`: {e}", path.display())),
    };
    let mut lines = std::io::BufReader::new(file).lines();
    let header_line = match lines.next() {
        Some(Ok(l)) if !l.trim().is_empty() => l,
        _ => return Ok(empty), // empty or unreadable file: fresh start
    };
    let header: serde_json::Value = match serde_json::from_str(header_line.trim()) {
        Ok(v) => v,
        Err(_) if !resume => return Ok(empty),
        Err(e) => {
            return Err(format!(
                "checkpoint `{}` has a malformed header: {e}",
                path.display()
            ))
        }
    };
    let found_version = header["memhier_journal"].as_u64();
    let found_fp = header["fingerprint"]
        .as_str()
        .unwrap_or_default()
        .to_string();
    let want_fp = format!("{fingerprint:016x}");
    if found_version != Some(JOURNAL_VERSION) || found_fp != want_fp {
        if resume {
            return Err(format!(
                "checkpoint `{}` does not match this sweep (journal fingerprint {found_fp}, \
                 plan fingerprint {want_fp}): refusing to resume across a changed plan, \
                 sizes, latency table, or crate version",
                path.display()
            ));
        }
        return Ok(empty);
    }
    let mut records = HashMap::new();
    for (lineno, line) in lines.enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!(
                    "[checkpoint] warning: stopping at unreadable line {}: {e}",
                    lineno + 2
                );
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalRecord>(line.trim()) {
            Ok(rec) => {
                records.insert(rec.index, rec);
            }
            Err(e) => {
                // A torn final append from a killed process is expected;
                // anything after it is unreachable by construction.
                eprintln!(
                    "[checkpoint] warning: stopping at malformed line {} (torn write?): {e}",
                    lineno + 2
                );
                break;
            }
        }
    }
    Ok(LoadedJournal {
        records,
        header_ok: true,
    })
}

/// The open journal: appends completed-point records, one flushed line
/// per record, so a SIGKILL loses at most the record being written.
struct JournalWriter {
    file: std::fs::File,
    /// Records appended so far (drives `ckpt` fault indices).
    seq: u64,
}

impl JournalWriter {
    fn open(
        path: &Path,
        fingerprint: u64,
        plan: &SweepPlan,
        append: bool,
        initial_seq: u64,
    ) -> Result<JournalWriter, String> {
        let mut opts = std::fs::OpenOptions::new();
        if append {
            opts.append(true);
        } else {
            opts.write(true).create(true).truncate(true);
        }
        let mut file = opts
            .create(true)
            .open(path)
            .map_err(|e| format!("cannot open checkpoint `{}`: {e}", path.display()))?;
        if !append {
            let header = serde_json::json!({
                "memhier_journal": JOURNAL_VERSION,
                "plan": plan.name.as_str(),
                "points": plan.len() as u64,
                "fingerprint": format!("{fingerprint:016x}"),
            });
            let line = serde_json::to_string(&header).expect("header serializes");
            file.write_all(line.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.flush())
                .map_err(|e| format!("cannot write checkpoint header: {e}"))?;
        }
        Ok(JournalWriter {
            file,
            seq: initial_seq,
        })
    }

    /// Append one record (with `ckpt` fault injection applied first).
    fn append(&mut self, record: &JournalRecord, faults: &FaultPlan) -> std::io::Result<()> {
        let seq = self.seq;
        self.seq += 1;
        faults.maybe_io_error(FaultSite::Ckpt, seq, 0)?;
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::other(format!("record serialization: {e}")))?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// Stringify a `catch_unwind` payload (panics carry `&str` or `String`
/// in practice; anything else is reported as opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one point to its terminal outcome: up to `1 + max_retries`
/// attempts, each under `catch_unwind`, with deterministic exponential
/// backoff between attempts.  Fault checks draw fresh decisions per
/// attempt, so a `rate=`-injected fault can clear on retry while an
/// `nth=`-injected one (or a real bug) keeps failing until quarantined.
fn run_point_with_retries(
    plan: &SweepPlan,
    index: usize,
    point: &GridPoint,
    cfg: &CheckpointConfig,
) -> PointOutcome {
    let mut last: Option<PointOutcome> = None;
    for attempt in 0..=cfg.max_retries {
        if attempt > 0 {
            let backoff = Duration::from_millis(BACKOFF_BASE_MS << (attempt - 1));
            eprintln!(
                "[sweep {}] point {index}: retry {attempt}/{} after {backoff:?}",
                plan.name, cfg.max_retries
            );
            std::thread::sleep(backoff);
        }
        let attempt_run = catch_unwind(AssertUnwindSafe(|| -> Result<PointResult, String> {
            match cfg.faults.check(FaultSite::Point, index as u64, attempt) {
                Some(FaultAction::Panic) => {
                    panic!("injected fault: point:panic (index {index}, attempt {attempt})")
                }
                Some(FaultAction::Io) => {
                    return Err(format!(
                        "injected fault: point:io (index {index}, attempt {attempt})"
                    ))
                }
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            let workload = plan.sizes.workload(point.kind);
            let ObservedRun {
                run,
                metrics,
                trace,
            } = simulate_workload_observed(
                &workload,
                &point.cluster,
                &plan.latency,
                &plan.observers,
            );
            Ok(PointResult {
                index,
                point: point.clone(),
                run,
                metrics,
                trace,
            })
        }));
        last = Some(match attempt_run {
            Ok(Ok(result)) => {
                return PointOutcome::Ok {
                    result,
                    attempts: attempt + 1,
                }
            }
            Ok(Err(error)) => PointOutcome::Failed {
                index,
                point: point.clone(),
                error,
                attempts: attempt + 1,
            },
            Err(payload) => PointOutcome::Panicked {
                index,
                point: point.clone(),
                message: panic_message(payload),
                attempts: attempt + 1,
            },
        });
    }
    last.expect("at least one attempt ran")
}

/// [`run_sweep`] with crash safety and panic quarantine.
///
/// * Every point runs under `catch_unwind` with bounded retry
///   ([`CheckpointConfig::max_retries`]) and deterministic backoff; a
///   point that keeps failing is quarantined as
///   [`PointOutcome::Failed`]/[`PointOutcome::Panicked`] instead of
///   aborting the sweep.
/// * With [`CheckpointConfig::path`] set, completed points append to a
///   JSONL journal (header = [`plan_fingerprint`]; one flushed line per
///   point), so a killed process loses at most one in-flight record.
/// * With [`CheckpointConfig::resume`], the journal's fingerprint is
///   verified (mismatch = error) and journaled `Ok` points are loaded
///   instead of re-executed — the serde shim's exact f64 round-trip
///   makes the combined output byte-identical to an uninterrupted run.
///
/// With faults off and no journal, the outcome's results are
/// byte-identical to [`run_sweep`]'s at any `--jobs` width
/// (`crates/bench/tests/checkpoint.rs` locks this in).
pub fn run_sweep_checkpointed(
    plan: &SweepPlan,
    cfg: &CheckpointConfig,
) -> Result<SweepOutcome, String> {
    let n = plan.len();
    let fingerprint = plan_fingerprint(plan);
    let mut outcomes: Vec<Option<PointOutcome>> = (0..n).map(|_| None).collect();
    let mut resumed = 0usize;
    let mut writer: Option<Mutex<JournalWriter>> = None;
    if let Some(path) = &cfg.path {
        let loaded = load_journal(path, fingerprint, cfg.resume)?;
        if cfg.resume {
            let record_count = loaded.records.len() as u64;
            for (_, rec) in loaded.records {
                let index = rec.index;
                if let Some(outcome) = rec.into_outcome(plan) {
                    outcomes[index] = Some(outcome);
                    resumed += 1;
                }
            }
            writer = Some(Mutex::new(JournalWriter::open(
                path,
                fingerprint,
                plan,
                loaded.header_ok,
                record_count,
            )?));
        } else {
            if loaded.header_ok || !loaded.records.is_empty() {
                eprintln!(
                    "[sweep {}] checkpoint `{}` exists; starting fresh (pass --resume to \
                     continue it)",
                    plan.name,
                    path.display()
                );
            }
            writer = Some(Mutex::new(JournalWriter::open(
                path,
                fingerprint,
                plan,
                false,
                0,
            )?));
        }
    }

    let pending: Vec<(usize, GridPoint)> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| (i, plan.points()[i].clone()))
        .collect();
    let workers = jobs().min(pending.len().max(1));
    let t0 = Instant::now();
    eprintln!(
        "[sweep {}] {n} point(s), {} pending ({resumed} resumed) on {workers} worker(s)",
        plan.name,
        pending.len()
    );
    let done = AtomicUsize::new(0);
    let checkpoint_errors = AtomicUsize::new(0);
    let fresh: Vec<PointOutcome> = if pending.is_empty() {
        Vec::new()
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("sweep thread pool");
        let total_pending = pending.len();
        pool.install(|| {
            pending
                .into_par_iter()
                .map(|(index, point)| {
                    let tp = Instant::now();
                    let outcome = run_point_with_retries(plan, index, &point, cfg);
                    if let Some(w) = &writer {
                        let record = JournalRecord::from_outcome(&outcome);
                        if let Err(e) = lock_unpoisoned(w).append(&record, &cfg.faults) {
                            checkpoint_errors.fetch_add(1, Ordering::SeqCst);
                            eprintln!(
                                "[sweep {}] warning: checkpoint append for point {index} \
                                 failed ({e}); the point will re-run on resume",
                                plan.name
                            );
                        }
                    }
                    let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                    let verdict = match &outcome {
                        PointOutcome::Ok { .. } => "ok".to_string(),
                        PointOutcome::Failed { .. } => "FAILED (quarantined)".to_string(),
                        PointOutcome::Panicked { .. } => "PANICKED (quarantined)".to_string(),
                    };
                    eprintln!(
                        "[sweep {}] {finished}/{total_pending}: {} on {} — {verdict} ({:.2}s)",
                        plan.name,
                        point.kind.name(),
                        point.cluster.name.as_deref().unwrap_or("unnamed"),
                        tp.elapsed().as_secs_f64(),
                    );
                    outcome
                })
                .collect()
        })
    };
    for outcome in fresh {
        let index = outcome.index();
        outcomes[index] = Some(outcome);
    }
    let outcomes: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every grid index resolved"))
        .collect();
    let quarantined = outcomes.iter().filter(|o| o.result().is_none()).count();
    eprintln!(
        "[sweep {}] finished: {} ok, {quarantined} quarantined, {resumed} resumed ({:.2}s)",
        plan.name,
        n - quarantined,
        t0.elapsed().as_secs_f64()
    );
    if let Some(w) = writer {
        drop(w); // make the flush-ordering explicit: journal closes before return
    }
    Ok(SweepOutcome {
        outcomes,
        resumed,
        checkpoint_errors: checkpoint_errors.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_core::machine::MachineSpec;

    fn tiny_cluster(name: &str, procs: u32) -> ClusterSpec {
        ClusterSpec::single(MachineSpec::new(procs, 256, 64, 200.0)).named(name)
    }

    #[test]
    fn jobs_resolution_prefers_override() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn configure_from_args_parses_both_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(configure_from_args(&args(&["--jobs", "2"])), 2);
        assert_eq!(configure_from_args(&args(&["--jobs=5"])), 5);
        set_jobs(0);
        std::env::remove_var("MEMHIER_JOBS");
    }

    #[test]
    fn sweep_returns_grid_order() {
        let clusters = [tiny_cluster("A", 1), tiny_cluster("B", 2)];
        let kinds = [WorkloadKind::Fft, WorkloadKind::Lu];
        let plan = SweepPlan::new("order", Sizes::Small).cross(&clusters, &kinds);
        assert_eq!(plan.len(), 4);
        let results = run_sweep(&plan);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.point.kind, plan.points()[i].kind);
            assert_eq!(r.point.cluster, plan.points()[i].cluster);
            assert!(r.run.report.wall_cycles > 0);
        }
        // Cluster-major order: first two points run on A.
        assert_eq!(results[0].point.cluster.name.as_deref(), Some("A"));
        assert_eq!(results[1].point.cluster.name.as_deref(), Some("A"));
        assert_eq!(results[2].point.cluster.name.as_deref(), Some("B"));
    }

    #[test]
    fn char_cache_survives_poisoning() {
        // Panic while holding the cache lock (what an unwinding worker
        // used to do), then prove later callers still get answers
        // instead of a poisoned-lock panic cascade.
        let poison = std::thread::spawn(|| {
            let _guard = char_cache().lock().unwrap_or_else(PoisonError::into_inner);
            panic!("deliberate poison");
        });
        assert!(poison.join().is_err(), "poisoning thread must panic");
        let w = Sizes::Small.workload(WorkloadKind::Fft);
        let a = characterize_cached(&w, 64);
        let b = characterize_cached(&w, 64);
        assert!(Arc::ptr_eq(&a, &b), "cache still memoizes after poisoning");
        let _ = char_cache_len();
    }

    #[test]
    fn checkpoint_config_global_roundtrip() {
        // Uninstalled by default in this process…
        let prior = checkpoint_config();
        let cfg = CheckpointConfig {
            max_retries: 7,
            ..CheckpointConfig::default()
        };
        assert!(!cfg.is_active(), "retries alone do not activate routing");
        set_checkpoint_config(Some(cfg));
        assert_eq!(checkpoint_config().map(|c| c.max_retries), Some(7));
        set_checkpoint_config(prior);
    }

    #[test]
    fn fingerprint_tracks_plan_identity() {
        let base =
            SweepPlan::new("fp", Sizes::Small).point(&tiny_cluster("A", 1), WorkloadKind::Fft);
        let same =
            SweepPlan::new("fp", Sizes::Small).point(&tiny_cluster("A", 1), WorkloadKind::Fft);
        assert_eq!(plan_fingerprint(&base), plan_fingerprint(&same));
        let renamed =
            SweepPlan::new("fp2", Sizes::Small).point(&tiny_cluster("A", 1), WorkloadKind::Fft);
        assert_ne!(plan_fingerprint(&base), plan_fingerprint(&renamed));
        let regrown =
            SweepPlan::new("fp", Sizes::Small).point(&tiny_cluster("B", 2), WorkloadKind::Fft);
        assert_ne!(plan_fingerprint(&base), plan_fingerprint(&regrown));
        let resized =
            SweepPlan::new("fp", Sizes::Medium).point(&tiny_cluster("A", 1), WorkloadKind::Fft);
        assert_ne!(plan_fingerprint(&base), plan_fingerprint(&resized));
    }

    #[test]
    fn characterization_cache_hits() {
        let w = Sizes::Small.workload(WorkloadKind::Lu);
        let a = characterize_cached(&w, 64);
        let before = char_cache_len();
        let b = characterize_cached(&w, 64);
        assert_eq!(
            char_cache_len(),
            before,
            "second call must not grow the cache"
        );
        assert!(Arc::ptr_eq(&a, &b), "second call must be the cached Arc");
        // A different granularity is a different stream.
        let c = characterize_cached(&w, 256);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.name, c.name);
    }
}
