//! The record-fit workload and the probes of the `trace` layer.
//!
//! Setup records one `.mtr` trace per scenario with `record_scenario`;
//! a pass runs `run_fit` once on every trace, in a seeded order, and
//! checks each `FitReport` against its blessed digest.

use crate::digest::Digests;
use crate::sim::ScenarioList;
use crate::spans::SpanLog;
use crate::window::{ratio, Metrics, Window};
use memhier_bench::record_scenario;
use memhier_trace::stream::{run_fit, FitRequest, StreamAnalyzer};
use memhier_trace::{TraceReader, TraceWriter};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Traces of four locality shapes, from 14.7M records (Radix, the
/// longest fit) down to 0.4M (the pointer-chasing GraphWalk).
pub const RECORD_FIT: [&str; 4] = [
    "C3:Radix:paper",
    "C1:FFT:medium",
    "C5:Stream:medium",
    "C5:GraphWalk:medium",
];

/// Records per `push_chunk` call, as `run_fit` chunks by default.
const CHUNK: usize = 65_536;

/// A recorded trace file.
pub struct Recorded {
    pub spec: String,
    pub path: PathBuf,
    pub records: u64,
    /// Did the file match its digest?  Fits of a file that did not are
    /// failed ops.
    pub ok: bool,
}

/// File name of a scenario's trace inside `dir`.
fn trace_path(dir: &Path, spec: &str) -> PathBuf {
    let stem: String = spec
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("{stem}.mtr"))
}

/// Record every scenario of `list` into `dir`, checking each file
/// against its digest.  Returns the traces and the recording time.
pub fn record_all(
    list: &ScenarioList,
    dir: &Path,
    digests: &Digests,
    log: &mut SpanLog,
    parent: u64,
) -> Result<(Vec<Recorded>, Duration), String> {
    let mut out = Vec::new();
    let mut took = Duration::ZERO;
    for (spec, scenario) in &list.0 {
        let path = trace_path(dir, spec);
        let (summary, t) = log.time("bench.record", parent, || record_scenario(scenario, &path));
        took += t;
        let summary = summary.map_err(|e| format!("record {spec}: {e}"))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let ok = digests.check(&format!("mtr:{spec}"), &bytes);
        if !ok {
            eprintln!("perfbench: recorded trace of {spec} does not match its digest");
        }
        out.push(Recorded {
            spec: spec.clone(),
            path,
            records: summary.records,
            ok,
        });
    }
    Ok((out, took))
}

/// One pass of `run_fit` over the traces in the seed's order.
pub fn pass(
    traces: &[Recorded],
    digests: &Digests,
    seed: u64,
    pass: u64,
    log: &mut SpanLog,
    parent: u64,
    w: &mut Window,
) {
    let open = log.open("bench.pass", parent);
    for i in crate::window::permutation(traces.len(), seed, pass) {
        let t = &traces[i];
        let req = FitRequest::new(t.path.to_string_lossy());
        let (report, _) = log.time("trace.run_fit", open.id(), || run_fit(&req));
        let ok = match report {
            Ok(r) => {
                let json = serde_json::to_string(&r.to_json()).expect("a FitReport serializes");
                t.ok && r.records == t.records
                    && digests.check(&format!("fit:{}", t.spec), json.as_bytes())
            }
            Err(e) => {
                eprintln!("perfbench: fit {}: {e}", t.spec);
                false
            }
        };
        w.record(t.records.max(1), ok);
    }
    log.close(open);
}

/// Probe the `trace` layer on recorded traces: decode each file with
/// `TraceReader`, feed the records to `StreamAnalyzer::push_chunk`,
/// `finish` the fit, and re-encode the records with `TraceWriter`
/// (whose output must equal the original file byte for byte).  Also
/// reports `bench.record_refs_per_s` from the recording time.  Returns
/// the failed record count.
pub fn probe(
    traces: &[Recorded],
    record_time: Duration,
    scratch: &Path,
    log: &mut SpanLog,
    parent: u64,
    m: &mut Metrics,
) -> Result<u64, String> {
    let (mut decode, mut stackdist, mut fit, mut encode) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut records = 0u64;
    let mut peak_state = 0u64;
    let mut failed = 0u64;
    for t in traces {
        let open = log.open("probe.trace", parent);
        let id = open.id();
        let io = |e: memhier_trace::TraceError| format!("{}: {e}", t.path.display());
        let (decoded, took) = log.time("trace.decode", id, || -> Result<_, String> {
            let mut reader = TraceReader::open(&t.path).map_err(io)?;
            let header = reader.header().clone();
            let mut addrs = Vec::with_capacity(header.record_count.min(1 << 26) as usize);
            while let Some(a) = reader.next_record().map_err(io)? {
                addrs.push(a);
            }
            Ok((header, addrs))
        });
        let (header, addrs) = decoded?;
        decode += took;
        records += addrs.len() as u64;

        let mut analyzer = StreamAnalyzer::new(FitRequest::new("").granularity);
        let open_sd = log.open("trace.stackdist", id);
        for chunk in addrs.chunks(CHUNK) {
            analyzer.push_chunk(chunk);
        }
        stackdist += log.close(open_sd);
        peak_state = peak_state.max(analyzer.peak_state_bytes());
        let (report, took) = log.time("trace.fit", id, || {
            analyzer.finish(header.total_instructions)
        });
        fit += took;
        if let Err(e) = report {
            eprintln!("perfbench: fit {}: {e}", t.spec);
            failed += t.records;
        }

        let copy = scratch.join("reencoded.mtr");
        let (written, took) = log.time("trace.encode", id, || -> Result<u64, String> {
            let mut w = TraceWriter::create(&copy, header.granularity).map_err(io)?;
            for &a in &addrs {
                w.record(a).map_err(io)?;
            }
            w.finish(header.total_instructions).map_err(io)
        });
        written?;
        encode += took;
        let same = std::fs::read(&copy).ok() == std::fs::read(&t.path).ok();
        let _ = std::fs::remove_file(&copy);
        if !same {
            eprintln!(
                "perfbench: re-encoding {} does not reproduce the file",
                t.spec
            );
            failed += t.records;
        }
        log.close(open);
    }
    let secs = |d: Duration| d.as_secs_f64();
    let n = records as f64;
    m.put("trace.decode_records_per_s", ratio(n, secs(decode)), "1/s");
    m.put(
        "trace.stackdist_records_per_s",
        ratio(n, secs(stackdist)),
        "1/s",
    );
    m.put("trace.fit_s", secs(fit), "s");
    m.put("trace.encode_records_per_s", ratio(n, secs(encode)), "1/s");
    m.put("trace.peak_state_bytes", peak_state as f64, "bytes");
    m.put(
        "bench.record_refs_per_s",
        ratio(n, secs(record_time)),
        "1/s",
    );
    Ok(failed)
}
