//! Differential and resource-bound tests of the out-of-core streaming
//! pipeline: the streaming engine must agree **exactly** (same f64 bits)
//! with the in-memory analyzer on any stream, at any chunk size, and its
//! resident state must stay bounded however long the trace grows.  A
//! golden fixture pins the `FitReport` wire schema byte-for-byte.

use memhier_trace::{
    fit_locality_checked, run_fit, FitReport, FitRequest, StackDistanceAnalyzer, StreamAnalyzer,
    SyntheticTrace, TraceWriter,
};
use std::fs;
use std::path::PathBuf;

/// Deterministic heavy-tailed address stream (α=1.3, β=90 B).
fn synthetic_addrs(n: usize, seed: u64) -> Vec<u64> {
    SyntheticTrace::new(1.3, 90.0, 64, seed).take(n).collect()
}

/// Write `addrs` to a fresh `.mtr` file under the target tmp dir.
fn write_trace(name: &str, addrs: &[u64], total_instructions: u64) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(name);
    let mut w = TraceWriter::create(&path, 1).expect("create trace");
    for &a in addrs {
        w.record(a).expect("record");
    }
    w.finish(total_instructions).expect("finish");
    path
}

/// The streaming engine and the one-shot in-memory analyzer are the same
/// computation: identical α/β/R² bits, identical histogram totals.
#[test]
fn streaming_matches_in_memory_exactly() {
    let addrs = synthetic_addrs(50_000, 11);

    let mut inmem = StackDistanceAnalyzer::new(64);
    for &a in &addrs {
        inmem.access(a);
    }
    let reference = fit_locality_checked(&inmem.histogram().cdf_points()).expect("fit");

    let mut stream = StreamAnalyzer::new(64);
    stream.push_chunk(&addrs);
    assert_eq!(stream.unique_blocks(), inmem.unique_blocks());
    let report = stream.finish(100_000).expect("fit");

    assert_eq!(report.alpha.to_bits(), reference.alpha.to_bits());
    assert_eq!(report.beta.to_bits(), reference.beta.to_bits());
    assert_eq!(report.r_squared.to_bits(), reference.r_squared.to_bits());
    assert_eq!(report.records, addrs.len() as u64);
    assert_eq!(report.rho, 0.5);
}

/// `run_fit` over a real file is byte-identical at 1 KiB chunks, 64 KiB
/// chunks, and whole-trace chunks — the out-of-core path introduces no
/// chunk-boundary artifacts.
#[test]
fn chunk_size_is_invisible_through_the_file_path() {
    let addrs = synthetic_addrs(150_000, 23);
    let path = write_trace("chunks.mtr", &addrs, 300_000);
    let trace = path.to_str().expect("utf8 path").to_string();

    let report_at = |chunk_records: u64| {
        let mut req = FitRequest::new(trace.clone());
        req.chunk_records = chunk_records;
        let report = run_fit(&req).expect("fit");
        (
            serde_json::to_string_pretty(&report.to_json()).expect("json"),
            report,
        )
    };

    let (whole_json, whole) = report_at(addrs.len() as u64);
    for chunk_records in [1024, 64 * 1024] {
        let (json, report) = report_at(chunk_records);
        assert_eq!(json, whole_json, "chunk_records={chunk_records} diverged");
        assert_eq!(report, whole);
    }
    assert_eq!(whole.records, addrs.len() as u64);
    assert_eq!(whole.rho, 0.5);
    // The stationary stream has long since converged at this length.
    assert!(whole.converged, "150k-record stationary stream converged");
}

/// A trace 4× larger than the chunk budget streams through with peak
/// resident state (analysis structures + chunk buffer) bounded well
/// below the file size — and growing the trace further does not grow
/// the peak at all once the working set saturates.
#[test]
fn out_of_core_trace_fits_in_bounded_state() {
    // Footprint-capped stream: the live-block set saturates early, so
    // resident state stops growing while the file keeps getting longer.
    let gen = |n: usize| -> Vec<u64> {
        SyntheticTrace::new(1.3, 90.0, 64, 31)
            .with_footprint((1u64 << 14) as f64)
            .take(n)
            .collect()
    };
    const CHUNK_RECORDS: u64 = 8 * 1024;

    let peak_of = |name: &str, addrs: &[u64]| -> (u64, u64) {
        let path = write_trace(name, addrs, 0);
        let file_bytes = fs::metadata(&path).expect("stat").len();
        let mut reader = memhier_trace::TraceReader::open(&path).expect("open");
        let mut an = StreamAnalyzer::new(64);
        let mut chunk = Vec::with_capacity(CHUNK_RECORDS as usize);
        loop {
            chunk.clear();
            while (chunk.len() as u64) < CHUNK_RECORDS {
                match reader.next_record().expect("read") {
                    Some(a) => chunk.push(a),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }
            an.push_chunk(&chunk);
        }
        assert_eq!(an.records(), addrs.len() as u64);
        (an.peak_state_bytes(), file_bytes)
    };

    // 4x the chunk budget, then 16x that again (the analyzer's initial
    // 2^16-slot index and slot map take ~30 KiB, so the file must be
    // comfortably past that to demonstrate the bound).
    let small = gen((4 * CHUNK_RECORDS) as usize);
    let large = gen((64 * CHUNK_RECORDS) as usize);
    let (peak_small, _) = peak_of("bounded_small.mtr", &small);
    let (peak_large, file_large) = peak_of("bounded_large.mtr", &large);

    // Saturated working set: a 4x longer trace costs zero extra state.
    assert_eq!(
        peak_small, peak_large,
        "peak resident state grew with trace length"
    );
    // The whole resident footprint (analysis state + chunk buffer) is a
    // small fraction of the trace being digested.
    let resident = peak_large + CHUNK_RECORDS * 8;
    assert!(
        resident * 2 < file_large,
        "resident {resident} B is not bounded below file size {file_large} B"
    );
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the
/// fixture when `MEMHIER_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, actual).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` diverged from the golden schema fixture.\n\
         If the schema change is intentional, re-bless with\n\
         MEMHIER_BLESS=1 and call it out in the PR."
    );
}

/// The exact bytes `memhier fit --trace --json` prints (and `/v1/fit`
/// serves) for a fixed synthetic stream: schema, field order, and float
/// spelling all pinned.
#[test]
fn golden_fit_report_schema() {
    let mut an = StreamAnalyzer::new(64);
    an.push_chunk(&synthetic_addrs(40_000, 3));
    let report = an.finish(80_000).expect("fit");
    let body = format!(
        "{}\n",
        serde_json::to_string_pretty(&report.to_json()).expect("json")
    );
    check_golden("fit_report.json", &body);

    // The pinned body parses back into an identical report: the wire
    // format is a fixed point on responses too.
    let v: serde_json::Value = serde_json::from_str(body.trim()).expect("parse");
    let parsed = FitReport::from_json(&v).expect("fixture parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), report.to_json());
}
