//! Host diagnostics: CPU steal, peak resident memory and two calibration
//! loops.  They explain a noisy run; no end-to-end metric is ever divided
//! by them (neither loop follows the simulator's swings).

use std::hint::black_box;
use std::time::Instant;

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Steal time between two [`cpu_jiffies`] readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// ALU-bound calibration: splitmix64 steps per second.
pub fn alu_ops_per_s() -> f64 {
    const STEPS: u64 = 1 << 25;
    let mut z = black_box(0x1234_5678);
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..STEPS {
        acc ^= splitmix(&mut z);
    }
    black_box(acc);
    STEPS as f64 / t.elapsed().as_secs_f64()
}

/// Memory-bound calibration: nanoseconds per dependent load while
/// chasing one random cycle through a 64 MB table.
pub fn chase_ns() -> f64 {
    const CELLS: usize = 64 << 17; // 8 Mi u64 = 64 MB
    const HOPS: usize = 1 << 22;
    // Sattolo's shuffle: one cycle through every cell.
    let mut next: Vec<u32> = (0..CELLS as u32).collect();
    let mut z = 0x9e37_79b9;
    for i in (1..CELLS).rev() {
        let j = (splitmix(&mut z) % i as u64) as usize;
        next.swap(i, j);
    }
    let table: Vec<u64> = next.into_iter().map(u64::from).collect();
    let mut at = 0usize;
    let t = Instant::now();
    for _ in 0..HOPS {
        at = table[at] as usize;
    }
    black_box(at);
    t.elapsed().as_nanos() as f64 / HOPS as f64
}
