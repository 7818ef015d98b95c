//! Expected-output digests.
//!
//! Every output the benchmark checks (a scenario's `SimReport` JSON, a
//! recorded `.mtr` file, its `FitReport`, a hot advisor reply body) is
//! reduced to a 64-bit FNV-1a digest and compared with the digest stored
//! under `perfbench/expected/digests.json`.  The stored table is blessed
//! from a known-good commit with `run.py --bless`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The digest table, either checking outputs against stored digests or
/// (when blessing) recording them.
pub struct Digests {
    table: BTreeMap<String, String>,
    bless: bool,
    /// Recorded while blessing.
    seen: Mutex<BTreeMap<String, String>>,
}

impl Digests {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let serde_json::Value::Object(fields) = doc else {
            return Err(format!("{}: expected a JSON object", path.display()));
        };
        let mut table = BTreeMap::new();
        for (k, v) in &fields {
            let v = v
                .as_str()
                .ok_or_else(|| format!("{}: digest of `{k}` is not a string", path.display()))?;
            table.insert(k.clone(), v.to_string());
        }
        Ok(Digests {
            table,
            bless: false,
            seen: Mutex::new(BTreeMap::new()),
        })
    }

    /// An empty table that records every digest it is asked to check.
    pub fn blessing() -> Self {
        Digests {
            table: BTreeMap::new(),
            bless: true,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    /// Does `bytes` match the digest stored under `key`?  A key with no
    /// stored digest does not match.  While blessing, every output
    /// matches and is recorded.
    pub fn check(&self, key: &str, bytes: &[u8]) -> bool {
        let got = fnv64(bytes);
        if self.bless {
            self.seen
                .lock()
                .expect("digest recorder poisoned by a panicking thread")
                .insert(key.to_string(), got);
            return true;
        }
        self.table.get(key) == Some(&got)
    }

    /// The digests recorded while blessing.
    pub fn recorded(&self) -> BTreeMap<String, String> {
        self.seen
            .lock()
            .expect("digest recorder poisoned by a panicking thread")
            .clone()
    }

    /// A copy whose digest for `key` is wrong (the self-test's corrupted
    /// expectation).
    pub fn corrupted(&self, key: &str) -> Digests {
        let mut table = self.table.clone();
        table.insert(key.to_string(), "0000000000000000".to_string());
        Digests {
            table,
            bless: false,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.table.keys()
    }
}

/// Write a digest table as pretty JSON with sorted keys.
pub fn save(path: &Path, table: &BTreeMap<String, String>) -> Result<(), String> {
    let obj = serde_json::Value::Object(
        table
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
            .collect(),
    );
    let text = serde_json::to_string_pretty(&obj).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
