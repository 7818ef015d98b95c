//! The program-driven SPMD execution engine.
//!
//! Each logical processor's instruction stream arrives as a sequence of
//! [`MemEvent`]s, either in memory or over a bounded crossbeam channel from
//! a live workload thread.  The engine advances processors in **simulated
//! time order** (a conservative discrete-event loop keyed on per-processor
//! clocks), so shared-resource queueing in the backend sees requests in the
//! order the simulated machine would issue them.
//!
//! The hot loop replays events in **chunks**: each processor's stream is a
//! flat buffer consumed by cursor (no per-event queue traffic), and the
//! scheduler is a linear scan over per-processor ready clocks that also
//! returns the *runner-up* — the winning processor then replays a whole run
//! of events inline until its clock catches up with the runner-up, which
//! amortizes scheduling across the run.  Because no other processor's
//! clock can change while it runs, the event order is exactly the one the
//! old per-event priority queue produced (min `(clock, index)` first).
//!
//! The entry point is the [`SimSession`] builder: backend + one source per
//! processor + any number of [`SimObserver`] taps.  With no observers the
//! hot loop takes no snapshots at all — observability is strictly
//! pay-for-what-you-use.
//!
//! **Barrier contract:** a workload thread must emit
//! [`MemEvent::Barrier`] (and flush its batch) *before* blocking on any
//! real synchronization.  The engine parks a process at a barrier and
//! releases all of them — clocks aligned to the latest arrival — once every
//! unfinished process has arrived.  Violating the contract can deadlock the
//! engine against the workload threads (see `memhier-workloads`' `SpmdCtx`,
//! which upholds it).

use crate::backend::ClusterBackend;
use crate::event::MemEvent;
use crate::observe::{AccessObservation, BarrierObservation, ServiceLevel, SimObserver};
use crate::report::{LevelCounts, SimReport};
use crossbeam::channel::Receiver;
use std::sync::Arc;

/// Where a logical processor's events come from.
pub enum ProcSource {
    /// A pre-materialized event list (tests, small traces).
    InMemory(Vec<MemEvent>),
    /// A pre-materialized event list shared by reference count — replaying
    /// the same trace across many runs (benchmarks, sweeps over platform
    /// configurations) costs a pointer copy instead of cloning the whole
    /// buffer each time.
    Shared(Arc<[MemEvent]>),
    /// Batches streamed from a live workload thread.
    ///
    /// **Each channel must have its own producer thread** (the `spmd`
    /// harness guarantees this).  The engine consumes processors in
    /// simulated-time order and *blocks* on the laggard's channel; a single
    /// producer feeding several bounded channels can deadlock against that
    /// order when another processor's queue fills.
    Channel(Receiver<Vec<MemEvent>>),
}

impl ProcSource {
    /// Wrap an event vector.
    pub fn from_events(events: Vec<MemEvent>) -> Self {
        ProcSource::InMemory(events)
    }

    /// Wrap a shared event buffer (cheap to clone per replay).
    pub fn shared(events: Arc<[MemEvent]>) -> Self {
        ProcSource::Shared(events)
    }
}

/// A replay buffer the engine consumes by cursor — either an owned batch
/// or a refcounted shared trace.  Never popped element-by-element.
enum ReplayBuf {
    Owned(Vec<MemEvent>),
    Shared(Arc<[MemEvent]>),
}

impl ReplayBuf {
    #[inline]
    fn as_slice(&self) -> &[MemEvent] {
        match self {
            ReplayBuf::Owned(v) => v,
            ReplayBuf::Shared(s) => s,
        }
    }
}

struct ProcState {
    /// Live producer channel; dropped once it disconnects.
    channel: Option<Receiver<Vec<MemEvent>>>,
    /// Current replay buffer, consumed by cursor.
    buf: ReplayBuf,
    pos: usize,
    clock: u64,
    instructions: u64,
    refs: u64,
    finished: bool,
    at_barrier: bool,
}

impl ProcState {
    fn new(source: ProcSource) -> Self {
        let (channel, buf) = match source {
            ProcSource::InMemory(events) => (None, ReplayBuf::Owned(events)),
            ProcSource::Shared(events) => (None, ReplayBuf::Shared(events)),
            ProcSource::Channel(rx) => (Some(rx), ReplayBuf::Owned(Vec::new())),
        };
        ProcState {
            channel,
            buf,
            pos: 0,
            clock: 0,
            instructions: 0,
            refs: 0,
            finished: false,
            at_barrier: false,
        }
    }

    /// Next event, refilling the buffer from the channel when it runs dry;
    /// `None` = stream exhausted.
    #[inline]
    fn next_event(&mut self) -> Option<MemEvent> {
        loop {
            if let Some(&e) = self.buf.as_slice().get(self.pos) {
                self.pos += 1;
                return Some(e);
            }
            let rx = self.channel.as_ref()?;
            match rx.recv() {
                Ok(batch) => {
                    // Empty batches (a producer-side flush with nothing
                    // pending) are skipped by looping.
                    self.buf = ReplayBuf::Owned(batch);
                    self.pos = 0;
                }
                Err(_) => {
                    self.channel = None;
                    return None;
                }
            }
        }
    }
}

/// Builder for one simulated run: a backend, one event source per
/// processor, and optional [`SimObserver`] taps.
///
/// ```no_run
/// use memhier_sim::{ProcSource, SimSession, TimeSeriesCollector};
/// # fn demo(backend: memhier_sim::ClusterBackend, sources: Vec<ProcSource>) {
/// let out = SimSession::new(backend)
///     .with_sources(sources)
///     .observe(TimeSeriesCollector::new(100_000))
///     .run();
/// println!("wall = {} cycles", out.report.wall_cycles);
/// let series = out.observer::<TimeSeriesCollector>().unwrap().series();
/// println!("{} windows", series.windows.len());
/// # }
/// ```
pub struct SimSession {
    backend: ClusterBackend,
    sources: Vec<ProcSource>,
    observers: Vec<Box<dyn SimObserver>>,
}

impl SimSession {
    /// Start a session on `backend` with no sources and no observers.
    pub fn new(backend: ClusterBackend) -> Self {
        SimSession {
            backend,
            sources: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// Set the event sources; length must equal the backend's processor
    /// count by the time [`SimSession::run`] is called.
    pub fn with_sources(mut self, sources: Vec<ProcSource>) -> Self {
        self.sources = sources;
        self
    }

    /// Append a single event source.
    pub fn source(mut self, source: ProcSource) -> Self {
        self.sources.push(source);
        self
    }

    /// Attach an observer.  Observers receive read-only snapshots and can
    /// never perturb simulated time.
    pub fn observe<O: SimObserver>(mut self, observer: O) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attach an already-boxed observer (for dynamic configurations).
    pub fn observe_boxed(mut self, observer: Box<dyn SimObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Accepts only `0`, the classic engine, which is the only engine.
    /// Kept for the benchmark harness in `perfbench/`, which calls it.
    #[doc(hidden)]
    pub fn sim_threads(self, threads: usize) -> Self {
        assert_eq!(threads, 0, "the classic engine is the only engine");
        self
    }

    /// Run to completion.  Panics unless `sources.len()` equals the
    /// backend's processor count.
    pub fn run(self) -> SessionOutput {
        let engine = Engine::build(self.backend, self.sources, self.observers);
        let (report, observers) = engine.run_inner();
        SessionOutput { report, observers }
    }
}

/// Result of [`SimSession::run`]: the final report plus the observers,
/// ready to be downcast back to their concrete types.
pub struct SessionOutput {
    /// The end-of-run aggregate report.
    pub report: SimReport,
    observers: Vec<Box<dyn SimObserver>>,
}

impl SessionOutput {
    /// Borrow the first attached observer of concrete type `T`.
    pub fn observer<T: SimObserver>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| o.as_any().downcast_ref())
    }

    /// Mutably borrow the first attached observer of concrete type `T`.
    pub fn observer_mut<T: SimObserver>(&mut self) -> Option<&mut T> {
        self.observers
            .iter_mut()
            .find_map(|o| o.as_any_mut().downcast_mut())
    }

    /// Remove and return the first attached observer of concrete type
    /// `T`, yielding ownership — the escape hatch for observers holding
    /// resources that must be finalized (an open trace file, a socket).
    pub fn take_observer<T: SimObserver>(&mut self) -> Option<Box<T>> {
        let idx = self.observers.iter().position(|o| o.as_any().is::<T>())?;
        self.observers.swap_remove(idx).into_any().downcast().ok()
    }
}

/// Sentinel ready-clock for a processor that cannot run (finished or
/// parked at a barrier).  Simulated clocks never reach it.
const PARKED: u64 = u64::MAX;

/// Why a replay run ended.
enum RunEnd {
    /// Clock passed the runner-up; the processor stays runnable.
    Yield,
    /// Parked at a barrier.
    Barrier,
    /// Event stream exhausted.
    Finished,
}

/// The simulation engine: a backend plus one event source per processor.
/// Internal — drive it through [`SimSession`].
struct Engine {
    backend: ClusterBackend,
    procs: Vec<ProcState>,
    barriers: u64,
    barrier_wait: u64,
    observers: Vec<Box<dyn SimObserver>>,
    last_counts: LevelCounts,
}

impl Engine {
    fn build(
        backend: ClusterBackend,
        sources: Vec<ProcSource>,
        observers: Vec<Box<dyn SimObserver>>,
    ) -> Self {
        assert_eq!(
            sources.len(),
            backend.total_procs(),
            "one event source per simulated processor"
        );
        let procs = sources.into_iter().map(ProcState::new).collect();
        Engine {
            backend,
            procs,
            barriers: 0,
            barrier_wait: 0,
            observers,
            last_counts: LevelCounts::default(),
        }
    }

    /// Release a resolved barrier: align every parked clock to the latest
    /// arrival and resume (ready clocks in `keys` updated to match).
    fn release_barrier(&mut self, keys: &mut [u64]) {
        let max = self
            .procs
            .iter()
            .filter(|p| p.at_barrier)
            .map(|p| p.clock)
            .max()
            .expect("at least one process at the barrier");
        self.barriers += 1;
        let mut waits: Vec<(usize, u64)> = Vec::new();
        let observing = !self.observers.is_empty();
        for (i, p) in self.procs.iter_mut().enumerate() {
            if p.at_barrier {
                self.barrier_wait += max - p.clock;
                if observing {
                    waits.push((i, max - p.clock));
                }
                p.clock = max;
                p.at_barrier = false;
                keys[i] = max;
            }
        }
        if observing {
            let obs = BarrierObservation {
                release_clock: max,
                waits: &waits,
            };
            for o in &mut self.observers {
                o.on_barrier(&obs);
            }
        }
    }

    /// Whether every unfinished process is parked at the barrier.
    fn barrier_ready(&self) -> bool {
        let mut any = false;
        for p in &self.procs {
            if p.finished {
                continue;
            }
            if !p.at_barrier {
                return false;
            }
            any = true;
        }
        any
    }

    /// Snapshot the backend around the access just completed and fan it
    /// out to every observer.  Only called when observers are attached.
    fn notify_access(&mut self, proc: usize, addr: u64, write: bool, issue_clock: u64, lat: u64) {
        let counts = self.backend.counts();
        let obs = AccessObservation {
            proc,
            addr,
            write,
            issue_clock,
            complete_clock: issue_clock + 1 + lat,
            mem_cycles: lat,
            level: ServiceLevel::classify(&self.last_counts, &counts),
            paged: counts.disk > self.last_counts.disk,
            upgraded: counts.upgrades > self.last_counts.upgrades,
            counts,
            traffic: self.backend.traffic(),
            bus_busy_cycles: self.backend.total_bus_busy_cycles(),
            network_busy_cycles: self.backend.network_busy_cycles(),
            io_busy_cycles: self.backend.total_io_busy_cycles(),
        };
        self.last_counts = counts;
        for o in &mut self.observers {
            o.on_access(&obs);
        }
    }

    fn run_inner(mut self) -> (SimReport, Vec<Box<dyn SimObserver>>) {
        let observing = !self.observers.is_empty();
        // `keys[i]` is the simulated time at which processor i may next
        // act, or PARKED.  Processor count is small (the paper's platforms
        // top out at a few dozen), so a linear scan beats a heap — and one
        // scan yields both the lexicographic minimum of (clock, index) and
        // the runner-up, which bounds how long the winner may replay
        // events inline before any other processor could act.
        let mut keys: Vec<u64> = vec![0; self.procs.len()];
        loop {
            let mut bi = 0usize;
            let mut bc = PARKED;
            let mut si = 0usize;
            let mut sc = PARKED;
            for (j, &c) in keys.iter().enumerate() {
                if c < bc {
                    sc = bc;
                    si = bi;
                    bc = c;
                    bi = j;
                } else if c < sc {
                    sc = c;
                    si = j;
                }
            }
            if bc == PARKED {
                break;
            }
            let i = bi;
            debug_assert_eq!(self.procs[i].clock, bc);
            // Replay a run: processor i stays first in (clock, index)
            // order until its clock passes the runner-up's — no other
            // clock moves meanwhile, so this is exactly the order a
            // per-event priority queue would produce.
            let end = if observing {
                self.run_observed(i, si, sc)
            } else {
                self.run_fast(i, si, sc)
            };
            match end {
                RunEnd::Yield => keys[i] = self.procs[i].clock,
                RunEnd::Barrier | RunEnd::Finished => {
                    keys[i] = PARKED;
                    // A finishing process may complete a pending barrier.
                    if self.barrier_ready() {
                        self.release_barrier(&mut keys);
                    }
                }
            }
        }
        self.finish()
    }

    /// The observer-free hot loop: replay processor `i`'s events until it
    /// can no longer be first in `(clock, index)` order, with the proc
    /// state hoisted into locals and the buffer viewed as one slice.
    ///
    /// The lexicographic continuation test `(clock, i) < (sc, si)`
    /// collapses to `clock <= limit` with `limit = sc` when `i < si` and
    /// `sc - 1` otherwise.  `sc - 1` cannot underflow: the scan only
    /// leaves `si < i` when the runner-up was a displaced earlier winner,
    /// which forces `sc` strictly above the winning clock, hence `sc >= 1`.
    #[inline(always)]
    fn run_fast(&mut self, i: usize, si: usize, sc: u64) -> RunEnd {
        let backend = &mut self.backend;
        let p = &mut self.procs[i];
        let mut clock = p.clock;
        let mut instructions = p.instructions;
        let mut refs = p.refs;
        let limit = if i < si { sc } else { sc - 1 };
        let end = 'run: loop {
            let slice = p.buf.as_slice();
            let mut pos = p.pos;
            while let Some(&e) = slice.get(pos) {
                pos += 1;
                // Memory references dominate the stream, so test for them
                // with one compare-chain branch instead of letting the
                // four-way match become an indirect jump-table dispatch
                // (which mispredicts on mixed read/write/compute runs).
                match e {
                    // A memory instruction costs 1 cycle to execute (the
                    // paper's "one instruction execution: 1") plus the
                    // memory time returned by the backend (which includes
                    // the 1-cycle cache access) — exactly the model's
                    // `1/S + ρ·T` split.
                    MemEvent::Read(a) | MemEvent::Write(a) => {
                        let write = matches!(e, MemEvent::Write(_));
                        let lat = backend.access(i, a, write, clock);
                        clock += 1 + lat;
                        instructions += 1;
                        refs += 1;
                    }
                    MemEvent::Compute(k) => {
                        clock += k as u64;
                        instructions += k as u64;
                    }
                    MemEvent::Barrier => {
                        p.pos = pos;
                        p.at_barrier = true;
                        break 'run RunEnd::Barrier;
                    }
                }
                if clock > limit {
                    p.pos = pos;
                    break 'run RunEnd::Yield;
                }
            }
            p.pos = pos;
            match p.channel.as_ref() {
                None => {
                    p.finished = true;
                    break RunEnd::Finished;
                }
                Some(rx) => match rx.recv() {
                    Ok(batch) => {
                        // Empty batches (a producer-side flush with nothing
                        // pending) fall through to the next recv.
                        p.buf = ReplayBuf::Owned(batch);
                        p.pos = 0;
                    }
                    Err(_) => {
                        p.channel = None;
                        p.finished = true;
                        break RunEnd::Finished;
                    }
                },
            }
        };
        p.clock = clock;
        p.instructions = instructions;
        p.refs = refs;
        end
    }

    /// The same run loop with per-access observer snapshots.  Kept as a
    /// separate per-event path because snapshotting borrows the whole
    /// engine; simulated results are identical to [`Engine::run_fast`].
    fn run_observed(&mut self, i: usize, si: usize, sc: u64) -> RunEnd {
        loop {
            let clock = self.procs[i].clock;
            match self.procs[i].next_event() {
                None => {
                    self.procs[i].finished = true;
                    return RunEnd::Finished;
                }
                Some(MemEvent::Compute(k)) => {
                    let p = &mut self.procs[i];
                    p.clock += k as u64;
                    p.instructions += k as u64;
                }
                Some(MemEvent::Read(a)) => {
                    let lat = self.backend.access(i, a, false, clock);
                    let p = &mut self.procs[i];
                    p.clock += 1 + lat;
                    p.instructions += 1;
                    p.refs += 1;
                    self.notify_access(i, a, false, clock, lat);
                }
                Some(MemEvent::Write(a)) => {
                    let lat = self.backend.access(i, a, true, clock);
                    let p = &mut self.procs[i];
                    p.clock += 1 + lat;
                    p.instructions += 1;
                    p.refs += 1;
                    self.notify_access(i, a, true, clock, lat);
                }
                Some(MemEvent::Barrier) => {
                    self.procs[i].at_barrier = true;
                    return RunEnd::Barrier;
                }
            }
            let c = self.procs[i].clock;
            if !(c < sc || (c == sc && i < si)) {
                return RunEnd::Yield;
            }
        }
    }

    fn finish(mut self) -> (SimReport, Vec<Box<dyn SimObserver>>) {
        let proc_cycles: Vec<u64> = self.procs.iter().map(|p| p.clock).collect();
        let wall = proc_cycles.iter().copied().max().unwrap_or(0);
        let total_instructions: u64 = self.procs.iter().map(|p| p.instructions).sum();
        let total_refs: u64 = self.procs.iter().map(|p| p.refs).sum();
        let e_cycles = if total_instructions == 0 {
            0.0
        } else {
            wall as f64 / total_instructions as f64
        };
        let report = SimReport {
            wall_cycles: wall,
            proc_cycles,
            total_instructions,
            total_refs,
            e_instr_cycles: e_cycles,
            e_instr_seconds: e_cycles / self.backend.clock_hz(),
            levels: self.backend.counts(),
            traffic: self.backend.traffic(),
            barriers: self.barriers,
            barrier_wait_cycles: self.barrier_wait,
            bus_busy_cycles: self.backend.bus_busy_cycles(),
            network_busy_cycles: self.backend.network_busy_cycles(),
            io_busy_cycles: self.backend.io_busy_cycles(),
        };
        for o in &mut self.observers {
            o.on_finish(&report);
        }
        (report, self.observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homemap::HomeMap;
    use crate::observe::{EventTracer, NopObserver, TimeSeriesCollector, TraceKind};
    use crossbeam::channel;
    use memhier_core::machine::{LatencyParams, MachineSpec};
    use memhier_core::platform::ClusterSpec;

    fn smp_backend(n: u32) -> ClusterBackend {
        let c = ClusterSpec::single(MachineSpec::new(n, 256, 64, 200.0));
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256))
    }

    fn run_sim(backend: ClusterBackend, sources: Vec<ProcSource>) -> SimReport {
        SimSession::new(backend).with_sources(sources).run().report
    }

    #[test]
    fn compute_only_stream() {
        let backend = smp_backend(1);
        let src = ProcSource::from_events(vec![MemEvent::Compute(100), MemEvent::Compute(50)]);
        let r = run_sim(backend, vec![src]);
        assert_eq!(r.wall_cycles, 150);
        assert_eq!(r.total_instructions, 150);
        assert_eq!(r.e_instr_cycles, 1.0);
        assert_eq!(r.total_refs, 0);
    }

    #[test]
    fn memory_latency_accumulates() {
        let backend = smp_backend(1);
        // Cold read: 1 + 50 + 2000; warm same-line read: 1.
        let src = ProcSource::from_events(vec![MemEvent::Read(0), MemEvent::Read(0)]);
        let r = run_sim(backend, vec![src]);
        // Cold: 1 (instr) + 2051 (mem).  Warm: 1 (instr) + 1 (hit).
        assert_eq!(r.wall_cycles, 2052 + 2);
        assert_eq!(r.total_refs, 2);
        assert_eq!(r.levels.l1_hits, 1);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let backend = smp_backend(2);
        // Proc 0 computes 1000, proc 1 computes 10; both barrier, then
        // each computes 5 more.
        let s0 = ProcSource::from_events(vec![
            MemEvent::Compute(1000),
            MemEvent::Barrier,
            MemEvent::Compute(5),
        ]);
        let s1 = ProcSource::from_events(vec![
            MemEvent::Compute(10),
            MemEvent::Barrier,
            MemEvent::Compute(5),
        ]);
        let r = run_sim(backend, vec![s0, s1]);
        assert_eq!(r.wall_cycles, 1005);
        assert_eq!(r.proc_cycles, vec![1005, 1005]);
        assert_eq!(r.barriers, 1);
        assert_eq!(r.barrier_wait_cycles, 990);
    }

    #[test]
    fn unbalanced_finish_releases_barrier() {
        // Proc 1 ends without reaching the barrier; proc 0 must still
        // complete (the barrier degenerates to a self-barrier).
        let backend = smp_backend(2);
        let s0 = ProcSource::from_events(vec![
            MemEvent::Compute(10),
            MemEvent::Barrier,
            MemEvent::Compute(1),
        ]);
        let s1 = ProcSource::from_events(vec![MemEvent::Compute(3)]);
        let r = run_sim(backend, vec![s0, s1]);
        assert_eq!(r.proc_cycles[0], 11);
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn channel_sources_stream() {
        // One producer thread per channel — the engine's documented
        // requirement (a single producer for several bounded channels can
        // deadlock against the engine's time-ordered consumption).
        let backend = smp_backend(2);
        let (tx0, rx0) = channel::bounded(4);
        let (tx1, rx1) = channel::bounded(4);
        let f0 = std::thread::spawn(move || {
            for i in 0..10u64 {
                tx0.send(vec![MemEvent::Read(i * 64), MemEvent::Compute(3)])
                    .unwrap();
            }
        });
        let f1 = std::thread::spawn(move || {
            for i in 0..10u64 {
                tx1.send(vec![MemEvent::Read(i * 64 + 8192), MemEvent::Compute(3)])
                    .unwrap();
            }
        });
        let r = run_sim(
            backend,
            vec![ProcSource::Channel(rx0), ProcSource::Channel(rx1)],
        );
        f0.join().unwrap();
        f1.join().unwrap();
        assert_eq!(r.total_refs, 20);
        assert_eq!(r.total_instructions, 20 + 60);
    }

    #[test]
    fn contention_visible_in_wall_clock() {
        // Two processors issuing simultaneous misses must take longer than
        // one processor issuing the same misses alone (bus queueing),
        // per-processor.  Address regions are disjoint (1 MB apart) so no
        // page or line is shared between processors.
        let mk = |n: u32, procs: usize| {
            let backend = smp_backend(n);
            let sources: Vec<ProcSource> = (0..procs)
                .map(|p| {
                    ProcSource::from_events(
                        (0..200u64)
                            .map(|i| MemEvent::Read(p as u64 * (1 << 20) + i * 64))
                            .collect(),
                    )
                })
                .collect();
            run_sim(backend, sources)
        };
        let solo = mk(1, 1);
        let duo = mk(2, 2);
        // Per-proc time in the contended run exceeds the solo run.
        assert!(
            duo.proc_cycles[0] > solo.proc_cycles[0],
            "duo {} vs solo {}",
            duo.proc_cycles[0],
            solo.proc_cycles[0]
        );
    }

    #[test]
    fn e_instr_seconds_uses_clock() {
        let backend = smp_backend(1);
        let src = ProcSource::from_events(vec![MemEvent::Compute(100)]);
        let r = run_sim(backend, vec![src]);
        assert!((r.e_instr_seconds - 1.0 / 2e8).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "one event source per")]
    fn source_count_checked() {
        let backend = smp_backend(2);
        let _ = SimSession::new(backend)
            .source(ProcSource::from_events(vec![]))
            .run();
    }

    #[test]
    fn chunk_size_invariance() {
        // Results must not depend on how the event stream is batched:
        // chunk=1 over a channel ≡ chunk=4096 ≡ one in-memory vector.
        let events = |p: u64| -> Vec<MemEvent> {
            (0..500u64)
                .map(|i| match i % 4 {
                    0 => MemEvent::Write(p * (1 << 20) + i * 8),
                    1 => MemEvent::Compute(7),
                    _ => MemEvent::Read(p * (1 << 20) + i * 32),
                })
                .chain([MemEvent::Barrier])
                .chain((0..100u64).map(|i| MemEvent::Read(i * 64)))
                .collect()
        };
        let chunked = |chunk: usize| -> SimReport {
            let mut sources = Vec::new();
            let mut handles = Vec::new();
            for p in 0..2u64 {
                let (tx, rx) = channel::bounded::<Vec<MemEvent>>(4);
                let evs = events(p);
                handles.push(std::thread::spawn(move || {
                    for piece in evs.chunks(chunk) {
                        tx.send(piece.to_vec()).unwrap();
                    }
                    // An empty trailing flush must be invisible.
                    tx.send(Vec::new()).unwrap();
                }));
                sources.push(ProcSource::Channel(rx));
            }
            let r = run_sim(smp_backend(2), sources);
            for h in handles {
                h.join().unwrap();
            }
            r
        };
        let in_memory = run_sim(
            smp_backend(2),
            vec![
                ProcSource::from_events(events(0)),
                ProcSource::from_events(events(1)),
            ],
        );
        assert_eq!(chunked(1), in_memory);
        assert_eq!(chunked(4096), in_memory);
        // A refcount-shared buffer replays identically to an owned one.
        let shared = run_sim(
            smp_backend(2),
            vec![
                ProcSource::shared(events(0).into()),
                ProcSource::shared(events(1).into()),
            ],
        );
        assert_eq!(shared, in_memory);
    }

    #[test]
    fn chunk_size_invariance_with_timeseries_observer() {
        // The observed path (slow loop) must be batching-invariant too:
        // with a TimeSeriesCollector attached, both the report and the
        // emitted windowed series must not depend on chunk size.
        let events = |p: u64| -> Vec<MemEvent> {
            (0..800u64)
                .map(|i| match i % 5 {
                    0 => MemEvent::Write(p * (1 << 21) + i * 16),
                    1 => MemEvent::Compute(3),
                    _ => MemEvent::Read(p * (1 << 21) + i * 64),
                })
                .chain([MemEvent::Barrier])
                .chain((0..200u64).map(|i| MemEvent::Read(i * 128)))
                .collect()
        };
        let observed = |sources: Vec<ProcSource>| {
            let out = SimSession::new(smp_backend(2))
                .with_sources(sources)
                .observe(TimeSeriesCollector::new(1_000))
                .run();
            let series = out
                .observer::<TimeSeriesCollector>()
                .expect("collector attached")
                .series()
                .clone();
            (out.report, series)
        };
        let chunked = |chunk: usize| {
            let mut sources = Vec::new();
            let mut handles = Vec::new();
            for p in 0..2u64 {
                let (tx, rx) = channel::bounded::<Vec<MemEvent>>(4);
                let evs = events(p);
                handles.push(std::thread::spawn(move || {
                    for piece in evs.chunks(chunk) {
                        tx.send(piece.to_vec()).unwrap();
                    }
                }));
                sources.push(ProcSource::Channel(rx));
            }
            let out = observed(sources);
            for h in handles {
                h.join().unwrap();
            }
            out
        };
        let (report, series) = observed(vec![
            ProcSource::from_events(events(0)),
            ProcSource::from_events(events(1)),
        ]);
        assert!(!series.windows.is_empty(), "series should have windows");
        assert_eq!(chunked(1), (report.clone(), series.clone()));
        assert_eq!(chunked(4096), (report, series));
    }

    #[test]
    fn nop_observer_changes_nothing() {
        let mk_sources = || {
            vec![ProcSource::from_events(
                (0..100u64)
                    .map(|i| {
                        if i % 3 == 0 {
                            MemEvent::Write(i * 64)
                        } else {
                            MemEvent::Read(i * 32)
                        }
                    })
                    .collect(),
            )]
        };
        let bare = run_sim(smp_backend(1), mk_sources());
        let observed = SimSession::new(smp_backend(1))
            .with_sources(mk_sources())
            .observe(NopObserver)
            .run();
        assert_eq!(bare, observed.report);
    }

    #[test]
    fn collector_reconciles_with_report() {
        let sources = vec![
            ProcSource::from_events(
                (0..300u64)
                    .map(|i| MemEvent::Read(i * 64))
                    .chain([MemEvent::Barrier, MemEvent::Compute(10)])
                    .collect(),
            ),
            ProcSource::from_events(
                (0..50u64)
                    .map(|i| MemEvent::Write(i * 64))
                    .chain([MemEvent::Barrier, MemEvent::Compute(10)])
                    .collect(),
            ),
        ];
        let out = SimSession::new(smp_backend(2))
            .with_sources(sources)
            .observe(TimeSeriesCollector::new(1000))
            .run();
        let series = out.observer::<TimeSeriesCollector>().unwrap().series();
        let sum = |f: fn(&crate::observe::MetricsWindow) -> u64| -> u64 {
            series.windows.iter().map(f).sum()
        };
        assert_eq!(sum(|w| w.refs), out.report.total_refs);
        assert_eq!(sum(|w| w.l1_hits), out.report.levels.l1_hits);
        assert_eq!(sum(|w| w.local_memory), out.report.levels.local_memory);
        assert_eq!(sum(|w| w.upgrades), out.report.levels.upgrades);
        assert_eq!(sum(|w| w.data_bytes), out.report.traffic.data_bytes);
        assert_eq!(
            sum(|w| w.coherence_bytes),
            out.report.traffic.coherence_bytes
        );
        assert_eq!(
            sum(|w| w.barrier_wait_cycles),
            out.report.barrier_wait_cycles
        );
        assert_eq!(
            sum(|w| w.bus_busy_cycles),
            out.report.bus_busy_cycles.iter().sum::<u64>()
        );
        // Per-proc refs reconcile too.
        let proc_refs: u64 = series.per_proc.iter().map(|p| p.refs).sum();
        assert_eq!(proc_refs, out.report.total_refs);
        assert_eq!(series.totals.wall_cycles, out.report.wall_cycles);
    }

    #[test]
    fn tracer_records_accesses_and_barriers() {
        let sources = vec![
            ProcSource::from_events(vec![
                MemEvent::Read(0),
                MemEvent::Barrier,
                MemEvent::Read(64),
            ]),
            ProcSource::from_events(vec![
                MemEvent::Compute(5),
                MemEvent::Barrier,
                MemEvent::Read(8192),
            ]),
        ];
        let out = SimSession::new(smp_backend(2))
            .with_sources(sources)
            .observe(EventTracer::new(64))
            .run();
        let log = out.observer::<EventTracer>().unwrap().log();
        let accesses = log
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Access)
            .count();
        let barriers = log
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Barrier)
            .count();
        assert_eq!(accesses as u64, out.report.total_refs);
        assert_eq!(barriers as u64, out.report.barriers);
        assert_eq!(log.dropped, 0);
        // JSONL round-trips through the parser.
        for line in log.to_jsonl().lines() {
            let _: serde_json::Value = serde_json::from_str(line).unwrap();
        }
    }
}
