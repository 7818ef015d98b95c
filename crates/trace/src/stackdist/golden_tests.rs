//! Golden stack-distance fixtures: three address streams, each analyzed
//! at granularity 1 and 64, pinned as the exact distance sequence (an
//! FNV-1a digest) plus the full [`DistanceHistogram`].  Regenerate with
//! `MEMHIER_BLESS=1` only when a change to the distances is intended.

use super::*;
use crate::synthetic::SyntheticTrace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::{Number, Value};
use std::path::PathBuf;

/// Distinct hot words interleaved with the synthetic stream.
const HOT_WORDS: u64 = 64;
/// Hot references after each synthetic reference.
const HOT_PER_SYNTHETIC: usize = 7;
/// Hot words live far above every synthetic address.
const HOT_BASE: u64 = 1 << 40;

/// A heavy-tailed `SyntheticTrace` (α = 1.02, so most draws are new
/// blocks) whose footprint grows past 50k blocks, each reference followed
/// by seven references to a 64-word hot set so the live set grows slowly
/// across many records.
fn synthetic_stream() -> Vec<u64> {
    let mut gen = SyntheticTrace::new(1.02, 64.0, 64, 5);
    let mut out = Vec::new();
    let mut hot = 0u64;
    while gen.unique_blocks() <= 50_000 {
        out.push(gen.next_address());
        for _ in 0..HOT_PER_SYNTHETIC {
            out.push(HOT_BASE + (hot % HOT_WORDS) * 8);
            hot += 1;
        }
    }
    out
}

/// A sequential scan of 100k 64-byte blocks in 16-byte steps, run twice.
fn scan_stream() -> Vec<u64> {
    let steps = 100_000 * 4;
    (0..2).flat_map(|_| (0..steps).map(|i| i * 16)).collect()
}

/// Two passes over 400k words (50k 64-byte blocks), each pass a fresh
/// random permutation.
fn permutation_stream() -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut words: Vec<u64> = (0..400_000u64).map(|w| w * 8).collect();
    let mut out = Vec::with_capacity(2 * words.len());
    for _ in 0..2 {
        for i in (1..words.len()).rev() {
            let j = rng.gen_range(0..=i);
            words.swap(i, j);
        }
        out.extend_from_slice(&words);
    }
    out
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Analyze `addrs` at `granularity` and compare with (or, under
/// `MEMHIER_BLESS`, rewrite) `tests/golden/stackdist_<name>_g<granularity>.json`.
fn check(name: &str, addrs: &[u64], granularity: u64) {
    let mut an = StackDistanceAnalyzer::new(granularity);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut live_at_compaction = Vec::new();
    let mut grows = 0;
    for &a in addrs {
        if an.next_slot == an.index.slots() {
            live_at_compaction.push(an.unique_blocks());
        }
        let entries = an.map.entries.len();
        // Cold references hash as u64::MAX, which no distance reaches.
        digest = fnv1a(digest, an.access(a).unwrap_or(u64::MAX));
        grows += usize::from(an.map.entries.len() != entries);
    }
    // Each stream exercises table growth and compaction while the live
    // set grows, so the fixture covers the renumbering, not just the
    // steady state.
    assert!(grows >= 5, "{name} g{granularity}: {grows} table grows");
    assert!(
        live_at_compaction.len() >= 2 && live_at_compaction[0] < live_at_compaction[1],
        "{name} g{granularity}: live blocks at compactions {live_at_compaction:?}"
    );
    let u64_value = |v: u64| Value::Number(Number::U64(v));
    let fixture = Value::Object(vec![
        ("records".to_string(), u64_value(addrs.len() as u64)),
        (
            "unique_blocks".to_string(),
            u64_value(u64::from(an.unique_blocks())),
        ),
        (
            "distances_fnv1a".to_string(),
            Value::String(format!("{digest:#018x}")),
        ),
        (
            "histogram".to_string(),
            serde_json::to_value(&an.histogram()).expect("histogram serializes"),
        ),
    ]);
    let actual = format!("{}\n", serde_json::to_string(&fixture).expect("json"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("stackdist_{name}_g{granularity}.json"));
    if std::env::var_os("MEMHIER_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture {}; generate it with MEMHIER_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "stack distances of `{name}` at granularity {granularity} diverged from the fixture"
    );
}

#[test]
fn golden_synthetic() {
    let addrs = synthetic_stream();
    check("synthetic", &addrs, 1);
    check("synthetic", &addrs, 64);
}

#[test]
fn golden_scan() {
    let addrs = scan_stream();
    check("scan", &addrs, 1);
    check("scan", &addrs, 64);
}

#[test]
fn golden_permutation() {
    let addrs = permutation_stream();
    check("permutation", &addrs, 1);
    check("permutation", &addrs, 64);
}
