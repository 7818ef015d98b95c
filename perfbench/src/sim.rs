//! The simulator workloads (sim-hits, sim-misses) and the probes of the
//! `workloads` and `sim` layers.
//!
//! A pass runs `Scenario::run` once on every scenario of the list, in a
//! seeded order, and checks each `SimReport` against its blessed digest.

use crate::digest::Digests;
use crate::spans::SpanLog;
use crate::window::{ratio, Metrics, Window};
use memhier_bench::Scenario;
use memhier_core::machine::LatencyParams;
use memhier_sim::backend::{ClusterBackend, ProtocolParams};
use memhier_sim::cache::{LineState, SetAssocCache};
use memhier_sim::engine::{ProcSource, SimSession};
use memhier_sim::report::{LevelCounts, SimReport};
use memhier_sim::{DirEntry, DirTable, MemEvent};
use memhier_workloads::spmd::{collect_events, home_map_for};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// About 97% of references hit L1 (SMP, CLUMP, NUMA and COW platforms):
/// address generation, the cache hit path and engine dispatch do the work.
pub const SIM_HITS: [&str; 4] = [
    "C6:LU:medium",
    "C14:LU:medium",
    "N4:Stencil4D:paper",
    "C10:Radix:paper",
];

/// About 32% of references leave L1 and up to 6.9% go remote: the
/// directory, home map and bus/switch/fat-tree back-ends do the work.
pub const SIM_MISSES: [&str; 4] = [
    "C11:GraphWalk:paper",
    "FT8:GraphWalk:medium",
    "C5:FFT:paper",
    "FT8:Stream:paper",
];

/// A scenario spec at the requested scale: the self-test runs every
/// scenario at the `small` size tier.
pub fn scaled(spec: &str, tiny: bool) -> String {
    match (tiny, spec.rsplit_once(':')) {
        (true, Some((head, _))) => format!("{head}:small"),
        _ => spec.to_string(),
    }
}

/// A parsed scenario list, each scenario pinned to the classic engine.
#[derive(Clone)]
pub struct ScenarioList(pub Vec<(String, Scenario)>);

impl ScenarioList {
    /// Parse `specs`.  The environment carries no `MEMHIER_SIM_THREADS`
    /// (cleared at start-up), so every scenario resolves to the classic
    /// engine; anything else is an error.
    pub fn build(specs: &[String]) -> Result<Self, String> {
        let mut list = Vec::new();
        for spec in specs {
            let scenario: Scenario = spec.parse().map_err(|e| format!("scenario {spec}: {e}"))?;
            if scenario.resolved_sim_threads() != 0 {
                return Err(format!(
                    "scenario {spec} does not resolve to the classic engine"
                ));
            }
            list.push((spec.clone(), scenario));
        }
        Ok(ScenarioList(list))
    }
}

/// Digest key of a scenario's report.
fn report_key(spec: &str) -> String {
    format!("sim:{spec}")
}

fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("a SimReport always serializes")
}

/// Run one scenario and check its report.  Returns the report.
fn run_checked(
    spec: &str,
    scenario: &Scenario,
    digests: &Digests,
    log: &mut SpanLog,
    parent: u64,
    w: &mut Window,
) -> SimReport {
    let (out, _) = log.time("bench.scenario_run", parent, || scenario.run());
    let report = out.run.report;
    let ok = digests.check(&report_key(spec), report_json(&report).as_bytes());
    w.record(report.total_refs.max(1), ok);
    report
}

/// One pass over the list in the seed's order for pass `pass`.
pub fn pass(
    list: &ScenarioList,
    digests: &Digests,
    seed: u64,
    pass: u64,
    log: &mut SpanLog,
    parent: u64,
    w: &mut Window,
) {
    let open = log.open("bench.pass", parent);
    for i in crate::window::permutation(list.0.len(), seed, pass) {
        let (spec, scenario) = &list.0[i];
        run_checked(spec, scenario, digests, log, open.id(), w);
    }
    log.close(open);
}

/// Totals the `workloads` and `sim` layer probes accumulate.
#[derive(Default)]
struct SimProbe {
    refs: u64,
    gen: Duration,
    replay: Duration,
    run: Duration,
    cache_ops: u64,
    cache: Duration,
    dir_ops: u64,
    dir: Duration,
    home_ops: u64,
    home: Duration,
    levels: LevelCounts,
    failed: u64,
}

/// Probe the `workloads` and `sim` layers on `list`: per scenario, one
/// `Scenario::run`, then generation (`Workload::instantiate` +
/// `collect_events`), classic replay of the collected traces, and the
/// cache, directory and home-map operations those traces drive.  The
/// replayed report must equal the end-to-end one.  Returns the failed
/// reference count.
pub fn probe(list: &ScenarioList, log: &mut SpanLog, parent: u64, m: &mut Metrics) -> u64 {
    let mut p = SimProbe::default();
    for (spec, scenario) in &list.0 {
        let open = log.open("probe.scenario", parent);
        let id = open.id();
        let (out, run) = log.time("bench.scenario_run", id, || scenario.run());
        let report = out.run.report;
        p.run += run;
        p.levels = add_levels(p.levels, report.levels);

        let cluster = &scenario.config;
        let workload = scenario.resolved_workload();
        let procs = cluster.total_procs() as usize;
        let (program, instantiate) = log.time("workloads.gen", id, || workload.instantiate(procs));
        let home = home_map_for(
            &*program,
            cluster.machines as usize,
            cluster.machine.n_procs as usize,
            256,
        );
        let (collected, gen) = log.time("workloads.gen", id, || collect_events(program));
        p.gen += instantiate + gen;
        let refs: u64 = collected.iter().map(|(_, c)| c.mem_refs()).sum();
        p.refs += refs;

        // Cache probe: each processor's own addresses through a cache of
        // its geometry; the blocks that miss drive the directory and
        // home-map probes.
        let geometry = ProtocolParams::default();
        let block_shift = geometry.block_bytes.trailing_zeros();
        let open_cache = log.open("sim.cache_probe", id);
        let mut misses: Vec<(u64, usize)> = Vec::new();
        let mut evictions: Vec<u64> = Vec::new();
        for (pid, (events, _)) in collected.iter().enumerate() {
            let mut cache = SetAssocCache::new(
                cluster.machine.cache_bytes,
                geometry.ways,
                geometry.line_bytes,
            );
            for ev in events {
                let (addr, write) = match *ev {
                    MemEvent::Read(a) => (a, false),
                    MemEvent::Write(a) => (a, true),
                    _ => continue,
                };
                p.cache_ops += 1;
                if cache.lookup(addr).is_none() {
                    let state = if write {
                        LineState::Modified
                    } else {
                        LineState::Shared
                    };
                    if let Some(ev) = cache.insert(addr, state) {
                        evictions.push(ev.addr >> block_shift);
                    }
                    p.cache_ops += 1;
                    misses.push((addr, pid));
                }
            }
        }
        p.cache += log.close(open_cache);

        let open_dir = log.open("sim.dir_op", id);
        let mut dir = DirTable::default();
        for &(addr, pid) in &misses {
            let block = addr >> block_shift;
            let next = match dir.get(block) {
                None => DirEntry::Exclusive(pid),
                Some(DirEntry::Exclusive(o)) if o == pid => DirEntry::Exclusive(pid),
                Some(DirEntry::Exclusive(o)) => DirEntry::Shared(1 << (o % 64) | 1 << (pid % 64)),
                Some(DirEntry::Shared(mask)) => DirEntry::Shared(mask | 1 << (pid % 64)),
            };
            dir.insert(block, next);
        }
        for &block in &evictions {
            black_box(dir.remove(block));
        }
        p.dir_ops += 2 * misses.len() as u64 + evictions.len() as u64;
        p.dir += log.close(open_dir);

        let (homes, home_took) = log.time("sim.homemap", id, || {
            misses
                .iter()
                .fold(0usize, |acc, &(addr, _)| acc ^ home.home(addr))
        });
        black_box(homes);
        p.home_ops += misses.len() as u64;
        p.home += home_took;
        drop(misses);

        let backend = ClusterBackend::new(cluster, LatencyParams::paper(), home);
        let sources = collected
            .into_iter()
            .map(|(events, _)| ProcSource::shared(Arc::from(events)))
            .collect();
        let (replayed, replay) = log.time("sim.replay", id, || {
            SimSession::new(backend)
                .with_sources(sources)
                .sim_threads(0)
                .run()
                .report
        });
        p.replay += replay;
        if replayed != report {
            eprintln!("perfbench: {spec}: replayed report differs from Scenario::run");
            p.failed += refs;
        }
        log.close(open);
    }
    let secs = |d: Duration| d.as_secs_f64();
    let l = p.levels;
    let total = l.total_refs() as f64;
    m.put(
        "workloads.gen_refs_per_s",
        ratio(p.refs as f64, secs(p.gen)),
        "1/s",
    );
    m.put(
        "sim.replay_refs_per_s",
        ratio(p.refs as f64, secs(p.replay)),
        "1/s",
    );
    m.put(
        "sim.pipeline_overlap",
        ratio(secs(p.gen) + secs(p.replay), secs(p.run)),
        "ratio",
    );
    m.put(
        "sim.cache_probe_ns",
        ratio(secs(p.cache) * 1e9, p.cache_ops as f64),
        "ns",
    );
    m.put(
        "sim.dir_op_ns",
        ratio(secs(p.dir) * 1e9, p.dir_ops as f64),
        "ns",
    );
    m.put(
        "sim.homemap_ns",
        ratio(secs(p.home) * 1e9, p.home_ops as f64),
        "ns",
    );
    m.put("sim.l1_hit_ratio", ratio(l.l1_hits as f64, total), "ratio");
    m.put(
        "sim.leave_l1_ratio",
        ratio(total - l.l1_hits as f64, total),
        "ratio",
    );
    m.put(
        "sim.remote_ratio",
        ratio((l.remote_clean + l.remote_dirty) as f64, total),
        "ratio",
    );
    p.failed
}

fn add_levels(a: LevelCounts, b: LevelCounts) -> LevelCounts {
    LevelCounts {
        l1_hits: a.l1_hits + b.l1_hits,
        cache_to_cache: a.cache_to_cache + b.cache_to_cache,
        local_memory: a.local_memory + b.local_memory,
        remote_clean: a.remote_clean + b.remote_clean,
        remote_dirty: a.remote_dirty + b.remote_dirty,
        disk: a.disk + b.disk,
        upgrades: a.upgrades + b.upgrades,
    }
}
