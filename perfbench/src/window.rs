//! What every workload shares: the timed window of whole passes, seeded
//! permutations, latency quantiles and the metric list a run prints.

use std::time::{Duration, Instant};

/// splitmix64 finalizer: a well-mixed 64-bit hash of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order of `n` items in pass `pass` of a run with `seed`: a seeded
/// Fisher–Yates shuffle, so the seed changes the order within a pass and
/// never the work in it.
pub fn permutation(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut z = mix64(seed ^ mix64(pass));
    for i in (1..n).rev() {
        z = mix64(z);
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
    order
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The outcome of a timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Work completed correctly (references, records or requests).
    pub ops: u64,
    /// Work attempted.
    pub attempted: u64,
    /// Attempted work whose output failed its check.
    pub failed: u64,
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Latency of each unit of user-visible work, milliseconds: a whole
    /// pass (sim-*, record-fit) or one request (advisor-serve).
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// Count one call of `work` units.
    pub fn record(&mut self, work: u64, ok: bool) {
        self.attempted += work;
        if ok {
            self.ops += work;
        } else {
            self.failed += work;
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank (p50, p99) of the latencies, milliseconds.
    pub fn latency_ms(&self) -> (f64, f64) {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.50), quantile(&v, 0.99))
    }
}

/// Run whole passes until at least `seconds` have gone by.
pub fn whole_passes(seconds: f64, mut pass: impl FnMut(u64, &mut Window)) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    for n in 0.. {
        let t = Instant::now();
        pass(n, &mut w);
        w.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.elapsed = start.elapsed();
    w
}

/// Metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.0
                .iter()
                .map(|(n, v, u)| (n.clone(), serde_json::json!({"value": *v, "unit": *u})))
                .collect(),
        )
    }
}

/// Ratio with a zero-safe denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(8, 7, 0);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(p, permutation(8, 7, 0));
        assert_ne!(p, permutation(8, 8, 0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
