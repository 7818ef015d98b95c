//! The crash-safety contracts of `run_sweep_checkpointed`:
//!
//! * with faults off, its results are **byte-identical** to `run_sweep`
//!   at any `--jobs` width;
//! * injected faults quarantine individual points without perturbing the
//!   rest of the grid;
//! * a journal written by one run lets a resumed run skip completed
//!   points and still reproduce the uninterrupted output byte for byte
//!   (including attached observer artifacts);
//! * a fingerprint mismatch refuses to resume; a torn trailing line (the
//!   SIGKILL case) is tolerated;
//! * the fingerprint of a fixed plan never changes, so journals written
//!   by earlier builds still resume.

use memhier_bench::faults::FaultPlan;
use memhier_bench::runner::{ObserverConfig, Sizes};
use memhier_bench::sweeprun::{
    plan_fingerprint, run_sweep, run_sweep_checkpointed, set_jobs, CheckpointConfig, PointOutcome,
    PointResult, SweepPlan,
};
use memhier_core::machine::{MachineSpec, NetworkKind};
use memhier_core::platform::ClusterSpec;
use memhier_workloads::registry::WorkloadKind;
use std::path::{Path, PathBuf};

/// `set_jobs` is process-global, so tests touching it must not overlap.
static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn plan() -> SweepPlan {
    let clusters = [
        ClusterSpec::single(MachineSpec::new(2, 256, 64, 200.0)).named("smp2"),
        ClusterSpec::cluster(
            MachineSpec::new(1, 256, 32, 200.0),
            2,
            NetworkKind::Ethernet100,
        )
        .named("cow2"),
    ];
    let kinds = [WorkloadKind::Fft, WorkloadKind::Lu];
    SweepPlan::new("checkpoint", Sizes::Small).cross(&clusters, &kinds)
}

fn observed_plan() -> SweepPlan {
    plan().with_observers(ObserverConfig {
        metrics_window: Some(50_000),
        trace_capacity: Some(128),
    })
}

/// Serialize everything a sweep produces, the way the experiment
/// binaries do: report + counters + any observer artifacts.
fn render(results: &[&PointResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&serde_json::to_string_pretty(&r.run.report).unwrap());
        out.push_str(&serde_json::to_string(&r.run.counters).unwrap());
        if let Some(m) = &r.metrics {
            out.push_str(&serde_json::to_string_pretty(m).unwrap());
        }
        if let Some(t) = &r.trace {
            out.push_str(&t.to_jsonl());
        }
        out.push('\n');
    }
    out
}

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("memhier-ckpt-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Keep the header plus the first `keep` records of a journal (what the
/// file looks like after a kill partway through the grid).
fn truncate_journal(path: &Path, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap().to_string();
    let kept: Vec<&str> = lines.take(keep).collect();
    std::fs::write(path, format!("{header}\n{}\n", kept.join("\n"))).unwrap();
}

fn faults(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap()
}

#[test]
fn faults_off_checkpointed_is_byte_identical_to_run_sweep() {
    let _guard = JOBS_LOCK.lock().unwrap();
    set_jobs(1);
    let baseline = run_sweep(&plan());
    set_jobs(8);
    let outcome = run_sweep_checkpointed(&plan(), &CheckpointConfig::default()).unwrap();
    set_jobs(0);
    assert_eq!(outcome.resumed, 0);
    assert_eq!(outcome.checkpoint_errors, 0);
    assert_eq!(outcome.quarantined(), 0);
    assert!(outcome.outcomes.iter().all(|o| o.attempts() == 1));
    let base_refs: Vec<&PointResult> = baseline.iter().collect();
    assert!(
        render(&base_refs) == render(&outcome.results()),
        "checkpointed --jobs 8 output must be byte-identical to run_sweep --jobs 1"
    );
}

#[test]
fn nth_panic_faults_quarantine_only_their_points() {
    let _guard = JOBS_LOCK.lock().unwrap();
    set_jobs(2);
    let baseline = run_sweep(&plan());
    // nth fires on grid index alone, so retries cannot clear it: indices
    // 1 and 3 stay quarantined no matter the retry budget.
    let cfg = CheckpointConfig {
        faults: faults("point:panic:nth=2"),
        max_retries: 1,
        ..CheckpointConfig::default()
    };
    let outcome = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    set_jobs(0);
    assert_eq!(outcome.outcomes.len(), 4);
    assert_eq!(outcome.quarantined(), 2);
    for (i, o) in outcome.outcomes.iter().enumerate() {
        if i % 2 == 1 {
            match o {
                PointOutcome::Panicked {
                    message, attempts, ..
                } => {
                    assert!(message.contains("injected fault: point:panic"), "{message}");
                    assert_eq!(*attempts, 2, "one try + one retry before quarantine");
                }
                other => panic!("index {i} should be quarantined, got {other:?}"),
            }
        } else {
            assert!(o.result().is_some(), "index {i} should succeed");
        }
    }
    // The surviving points are untouched by their neighbors' panics.
    let survivors = outcome.results();
    let expected: Vec<&PointResult> = baseline.iter().step_by(2).collect();
    assert!(render(&survivors) == render(&expected));
}

#[test]
fn io_faults_quarantine_as_failed_with_the_injected_error() {
    let _guard = JOBS_LOCK.lock().unwrap();
    set_jobs(1);
    let cfg = CheckpointConfig {
        faults: faults("point:io:nth=4"),
        max_retries: 0,
        ..CheckpointConfig::default()
    };
    let outcome = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    set_jobs(0);
    match &outcome.outcomes[3] {
        PointOutcome::Failed {
            error, attempts, ..
        } => {
            assert!(error.contains("injected fault: point:io"), "{error}");
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(outcome.quarantined(), 1);
}

#[test]
fn rate_faults_with_retries_still_complete_deterministically() {
    let _guard = JOBS_LOCK.lock().unwrap();
    set_jobs(2);
    let cfg = CheckpointConfig {
        faults: faults("point:panic:rate=0.5:seed=11"),
        max_retries: 4,
        ..CheckpointConfig::default()
    };
    let a = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    let b = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    set_jobs(0);
    // Fault decisions are pure functions of (seed, site, index, attempt):
    // two runs agree exactly on which points survived and when.
    let shape = |o: &memhier_bench::sweeprun::SweepOutcome| -> Vec<(usize, bool, u32)> {
        o.outcomes
            .iter()
            .map(|p| (p.index(), p.result().is_some(), p.attempts()))
            .collect()
    };
    assert_eq!(shape(&a), shape(&b));
    assert!(render(&a.results()) == render(&b.results()));
    // With 5 attempts at rate 0.5 the chance a point stays quarantined is
    // ~3% — and whatever the draw, it is frozen by the seed.  At seed=11
    // every point completes.
    assert_eq!(a.quarantined(), 0);
}

#[test]
fn resume_skips_completed_points_and_reproduces_output() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let path = temp_journal("resume");
    set_jobs(1);
    let full = run_sweep_checkpointed(
        &observed_plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    let uninterrupted = render(&full.results());
    assert!(
        uninterrupted.contains("window_cycles"),
        "observers attached"
    );

    // Resume over the complete journal: nothing re-runs.
    let resumed = run_sweep_checkpointed(
        &observed_plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.resumed, 4);
    assert!(
        render(&resumed.results()) == uninterrupted,
        "journal-loaded results must round-trip byte-identically"
    );

    // Kill simulation: keep the first 2 records, resume the rest.
    truncate_journal(&path, 2);
    let partial = run_sweep_checkpointed(
        &observed_plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    set_jobs(0);
    assert_eq!(partial.resumed, 2, "only unfinished points re-execute");
    assert!(
        render(&partial.results()) == uninterrupted,
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_trailing_line_is_tolerated_on_resume() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let path = temp_journal("torn");
    set_jobs(1);
    let full = run_sweep_checkpointed(
        &plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    let uninterrupted = render(&full.results());
    // A process killed mid-append leaves a torn final line.
    truncate_journal(&path, 3);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("{\"index\":3,\"status\":\"Ok\",\"att");
    std::fs::write(&path, text).unwrap();
    let resumed = run_sweep_checkpointed(
        &plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    set_jobs(0);
    assert_eq!(resumed.resumed, 3, "the torn record re-runs");
    assert!(render(&resumed.results()) == uninterrupted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fingerprint_mismatch_refuses_resume_but_restarts_fresh() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let path = temp_journal("fp");
    set_jobs(1);
    run_sweep_checkpointed(
        &plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    // A different plan (extra point) may not resume this journal…
    let other = plan().point(
        &ClusterSpec::single(MachineSpec::new(4, 256, 64, 200.0)).named("smp4"),
        WorkloadKind::Radix,
    );
    let err = run_sweep_checkpointed(
        &other,
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("refusing to resume"), "{err}");
    // …but without --resume it starts the journal over for the new plan.
    let fresh = run_sweep_checkpointed(
        &other,
        &CheckpointConfig {
            path: Some(path.clone()),
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    set_jobs(0);
    assert_eq!(fresh.resumed, 0);
    assert_eq!(fresh.outcomes.len(), 5);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text.lines().count(),
        6,
        "journal restarted: header + one record per point"
    );
    let _ = std::fs::remove_file(&path);
}

/// Journals written by earlier builds of this version must keep
/// resuming, so the fingerprint of a fixed plan is pinned as a literal.
/// A change to what `plan_fingerprint` hashes (or to how a plan
/// serializes) shows up here before it silently invalidates every
/// journal on disk.
#[test]
fn plan_fingerprint_of_a_fixed_plan_is_pinned() {
    assert_eq!(plan_fingerprint(&plan()), 0x8226_c4ac_5b0b_7446);
}

#[test]
fn injected_checkpoint_io_errors_are_counted_and_recovered_on_resume() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let path = temp_journal("ckptio");
    set_jobs(1);
    let cfg = CheckpointConfig {
        path: Some(path.clone()),
        faults: faults("ckpt:io:nth=2"),
        ..CheckpointConfig::default()
    };
    let first = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    let uninterrupted = render(&first.results());
    assert_eq!(first.checkpoint_errors, 2, "every 2nd journal append fails");
    assert_eq!(first.quarantined(), 0, "points still complete in memory");
    // The journal is missing the faulted records, so a resume re-runs
    // exactly those points — with faults off, to finish cleanly.
    let resumed = run_sweep_checkpointed(
        &plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    set_jobs(0);
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.checkpoint_errors, 0);
    assert!(render(&resumed.results()) == uninterrupted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn quarantined_points_are_journaled_but_rerun_on_resume() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let path = temp_journal("quarantine");
    set_jobs(1);
    let cfg = CheckpointConfig {
        path: Some(path.clone()),
        faults: faults("point:panic:nth=3"),
        max_retries: 0,
        ..CheckpointConfig::default()
    };
    let faulty = run_sweep_checkpointed(&plan(), &cfg).unwrap();
    assert_eq!(faulty.quarantined(), 1);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"Panicked\""),
        "quarantine is recorded for postmortems:\n{text}"
    );
    // Resuming with faults off re-runs only the quarantined point and
    // completes the grid.
    let resumed = run_sweep_checkpointed(
        &plan(),
        &CheckpointConfig {
            path: Some(path.clone()),
            resume: true,
            ..CheckpointConfig::default()
        },
    )
    .unwrap();
    set_jobs(0);
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.quarantined(), 0);
    let _ = std::fs::remove_file(&path);
}
