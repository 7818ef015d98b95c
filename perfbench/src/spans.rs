//! In-memory span recorder for the traced run.
//!
//! A span is one timed call from the harness into a memhier layer: its
//! name, start, end, the span that caused it and the run it belongs to.
//! Spans are kept in memory while the run measures and written out once
//! at the end, with each span's self time (its duration minus the part
//! of it that its children cover).  A disabled log records nothing, so
//! the untraced run goes through the same code.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished span.  Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has been opened and not yet closed.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Name the span after the fact (a request is a hit or a miss only
    /// once its reply arrives).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

/// One thread's span buffer.  Buffers made by [`SpanLog::fork`] share
/// the id counter and origin, so they can be merged after the threads
/// join.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty buffer for another thread of the same run.
    pub fn fork(&self) -> SpanLog {
        SpanLog {
            enabled: self.enabled,
            origin: self.origin,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Take back the spans a forked buffer recorded.
    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Start a span under `parent` (0 for none).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        let id = if self.enabled {
            self.ids.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// End a span and return its duration.  The duration is measured
    /// whether or not the log is enabled.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name.to_string(),
                start_ns: nanos(open.start - self.origin),
                end_ns: nanos(end - self.origin),
            });
        }
        took
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path, run_id: &str) -> std::io::Result<()> {
        let selves = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(selves) {
            let line = serde_json::json!({
                "run": run_id,
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
                "self_ns": self_ns,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).map_err(std::io::Error::other)?
            )?;
        }
        out.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Each span's duration minus the union of its children's intervals
/// (children on different threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 70, 80),
            span(5, 2, 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 18, 30, 10, 2]);
    }
}
