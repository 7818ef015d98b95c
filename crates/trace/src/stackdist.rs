//! Exact LRU stack-distance computation.
//!
//! The stack distance of a reference is the number of **distinct other
//! blocks** referenced since the previous reference to the same block
//! (∞ for a block's first reference).  A reference hits in a
//! fully-associative LRU store of capacity `C` blocks iff its stack
//! distance is `< C`.
//!
//! [`StackDistanceAnalyzer`] implements the Bennett–Kruskal algorithm.
//! Every reference takes the next *time slot*, and each live block keeps
//! a mark at the slot of its most recent access; the distance of a reuse
//! is the number of marks after the block's previous slot.  Two
//! structures hold this state:
//!
//! - a **slot map**, an open-addressed `(block, slot + 1)` table with
//!   splitmix64 hashing and linear probing (a slot field of 0 marks an
//!   empty entry, so every `u64` block is a valid key);
//! - a **slot index**, one bit per slot plus a Fenwick tree over the
//!   popcounts of 64-slot words.  The marks at or before slot `s` in word
//!   `w` are `prefix(words before w) + popcount(word w up to s)`.
//!
//! When the slots run out, compaction renumbers every live block to its
//! *rank* among the marks: one pass over the bitmap gives each word's
//! prefix popcount, one sequential pass over the slot map rewrites each
//! slot to its rank, and the new bitmap is the first `live` bits.  Ranks
//! keep the marks' relative order, so distances do not depend on when
//! compaction runs.  The slot space is then `max(8 × live, 2^16)` slots,
//! so memory is `O(live blocks)` and time is `O(log(live))` per reference
//! plus `O(1)` amortized compaction.
//!
//! [`NaiveStackDistance`] is the obviously-correct `O(M · B)` reference
//! implementation (an explicit LRU stack) used by the property tests.

use crate::histogram::DistanceHistogram;

/// Slots per bitmap word.
const WORD: usize = 64;

/// Smallest slot space; compaction sizes it at `max(8 × live, MIN_SLOTS)`.
const MIN_SLOTS: usize = 1 << 16;

/// Open-addressed block → slot map (see the module docs).
struct SlotMap {
    /// `(block, slot + 1)`; a slot field of 0 marks an empty entry.
    entries: Vec<(u64, usize)>,
    /// Entry-count mask (`entries.len() - 1`; the length is a power of two).
    mask: usize,
    /// Occupied entries.
    len: usize,
}

impl SlotMap {
    const INITIAL_ENTRIES: usize = 1 << 10;

    fn new() -> Self {
        SlotMap {
            entries: vec![(0, 0); Self::INITIAL_ENTRIES],
            mask: Self::INITIAL_ENTRIES - 1,
            len: 0,
        }
    }

    /// splitmix64 finalizer, as in the simulator's directory table.
    #[inline]
    fn hash(block: u64) -> usize {
        let mut z = block ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }

    /// First entry on `block`'s probe path that holds `block` or is empty.
    #[inline]
    fn find(&self, block: u64) -> usize {
        let mut i = Self::hash(block) & self.mask;
        loop {
            let (b, s) = self.entries[i];
            if s == 0 || b == block {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The slot field (`slot + 1`, 0 when absent) of `block`, inserting an
    /// empty entry for it when absent.  The caller must set a new entry's
    /// field to nonzero before the next call.
    #[inline]
    fn slot_mut(&mut self, block: u64) -> &mut usize {
        let mut i = self.find(block);
        if self.entries[i].1 == 0 {
            // Growing past ¾ load keeps an empty entry on every probe path.
            if (self.len + 1) * 4 > self.entries.len() * 3 {
                self.grow();
                i = self.find(block);
            }
            self.len += 1;
            self.entries[i].0 = block;
        }
        &mut self.entries[i].1
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.entries, vec![(0, 0); 2 * (self.mask + 1)]);
        self.mask = self.entries.len() - 1;
        for (block, slot) in old {
            if slot != 0 {
                let i = self.find(block);
                self.entries[i] = (block, slot);
            }
        }
    }
}

/// One bit per time slot plus a Fenwick tree over per-word popcounts.
struct SlotIndex {
    bits: Vec<u64>,
    /// Fenwick tree (1-based) over `bits[w].count_ones()`.
    tree: Vec<u32>,
}

impl SlotIndex {
    /// An index of at least `slots` slots whose first `live` bits are set.
    fn with_prefix(slots: usize, live: usize) -> Self {
        let words = slots.div_ceil(WORD);
        let mut bits = vec![0u64; words];
        bits[..live / WORD].fill(u64::MAX);
        if let Some(partial) = bits.get_mut(live / WORD) {
            *partial = (1u64 << (live % WORD)) - 1;
        }
        // Linear-time Fenwick construction: push each node into its parent.
        let mut tree = vec![0u32; words + 1];
        for (node, w) in tree[1..].iter_mut().zip(&bits) {
            *node = w.count_ones();
        }
        for i in 1..=words {
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                tree[parent] += tree[i];
            }
        }
        SlotIndex { bits, tree }
    }

    fn slots(&self) -> usize {
        self.bits.len() * WORD
    }

    /// Add `delta` to word `w`'s count.
    #[inline]
    fn add(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Set bits in words `0..w`.
    #[inline]
    fn words_before(&self, w: usize) -> u32 {
        let mut i = w;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Set bits at slots `0..=s`.
    #[inline]
    fn rank(&self, s: usize) -> u32 {
        let up_to = u64::MAX >> (WORD - 1 - s % WORD);
        self.words_before(s / WORD) + (self.bits[s / WORD] & up_to).count_ones()
    }

    #[inline]
    fn set(&mut self, s: usize) {
        self.bits[s / WORD] |= 1 << (s % WORD);
        self.add(s / WORD, 1);
    }

    /// Move the bit at slot `from` to slot `to`.
    #[inline]
    fn relocate(&mut self, from: usize, to: usize) {
        self.bits[from / WORD] &= !(1 << (from % WORD));
        self.bits[to / WORD] |= 1 << (to % WORD);
        if from / WORD != to / WORD {
            self.add(from / WORD, -1);
            self.add(to / WORD, 1);
        }
    }

    /// Each word's count of set bits in the words before it.
    fn word_ranks(&self) -> Vec<u32> {
        let mut acc = 0;
        self.bits
            .iter()
            .map(|w| {
                let before = acc;
                acc += w.count_ones();
                before
            })
            .collect()
    }
}

/// Streaming exact stack-distance analyzer over block addresses.
///
/// Addresses are mapped to blocks of `granularity` bytes before analysis;
/// distances are counted in **blocks** and can be converted to bytes with
/// [`StackDistanceAnalyzer::granularity`].
pub struct StackDistanceAnalyzer {
    granularity: u64,
    /// `log2(granularity)`: an address's block is `addr >> shift`.
    shift: u32,
    /// Block → slot of its most recent access.
    map: SlotMap,
    /// Marks at each live block's latest slot.
    index: SlotIndex,
    next_slot: usize,
    live: u32,
    hist: DistanceHistogram,
}

impl StackDistanceAnalyzer {
    /// Create an analyzer mapping addresses to `granularity`-byte blocks
    /// (`granularity` must be a power of two; 64 = cache-line granularity).
    pub fn new(granularity: u64) -> Self {
        assert!(
            granularity.is_power_of_two(),
            "granularity must be a power of two"
        );
        StackDistanceAnalyzer {
            granularity,
            shift: granularity.trailing_zeros(),
            map: SlotMap::new(),
            index: SlotIndex::with_prefix(MIN_SLOTS, 0),
            next_slot: 0,
            live: 0,
            hist: DistanceHistogram::new(granularity),
        }
    }

    /// The block size in bytes distances are counted in.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Process one reference to byte address `addr`.  Returns the stack
    /// distance in blocks, or `None` for a cold (first) reference.
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        if self.next_slot == self.index.slots() {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        let field = self.map.slot_mut(addr >> self.shift);
        let d = match std::mem::replace(field, slot + 1) {
            0 => {
                self.live += 1;
                self.index.set(slot);
                None
            }
            old => {
                // Distinct blocks touched strictly after the previous
                // access: every live block's mark sits at its latest slot,
                // so count marks in (old, now) = live − rank(old).
                let old = old - 1;
                let d = self.live - self.index.rank(old);
                self.index.relocate(old, slot);
                Some(u64::from(d))
            }
        };
        self.hist.record(d);
        d
    }

    /// Renumber every live block to its rank among the marks and resize
    /// the slot space to `max(8 × live, 2^16)`.  Amortized O(1) per
    /// reference: at least `7 × live` references pass between compactions.
    fn compact(&mut self) {
        let ranks = self.index.word_ranks();
        let bits = &self.index.bits;
        for (_, field) in &mut self.map.entries {
            if *field != 0 {
                let s = *field - 1;
                let below = bits[s / WORD] & ((1u64 << (s % WORD)) - 1);
                *field = ranks[s / WORD] as usize + below.count_ones() as usize + 1;
            }
        }
        let live = self.live as usize;
        self.index = SlotIndex::with_prefix((8 * live).max(MIN_SLOTS), live);
        self.next_slot = live;
    }

    /// Number of distinct blocks seen so far.
    pub fn unique_blocks(&self) -> u32 {
        self.live
    }

    /// Deterministic size of the analyzer's resident state in bytes (slot
    /// bitmap, Fenwick nodes, slot-map entries and histogram buckets),
    /// computed from container lengths so identical inputs report
    /// identical sizes.  This is what the out-of-core pipeline's
    /// memory-bound assertions measure: it scales with *live blocks*,
    /// never with trace length.
    pub fn state_bytes(&self) -> u64 {
        let index = self.index.bits.len() as u64 * 8 + self.index.tree.len() as u64 * 4;
        let map = (self.map.entries.len() * std::mem::size_of::<(u64, usize)>()) as u64;
        index + map + self.hist.state_bytes()
    }

    /// The accumulated distance histogram (distances in blocks; the
    /// histogram knows the byte granularity for CDF conversion).
    pub fn histogram(&self) -> DistanceHistogram {
        self.hist.clone()
    }

    /// Consume the analyzer, returning the histogram without cloning.
    pub fn into_histogram(self) -> DistanceHistogram {
        self.hist
    }
}

/// Reference `O(M · B)` implementation: an explicit LRU stack of blocks.
pub struct NaiveStackDistance {
    granularity: u64,
    /// Stack, most recently used first.
    stack: Vec<u64>,
}

impl NaiveStackDistance {
    /// See [`StackDistanceAnalyzer::new`].
    pub fn new(granularity: u64) -> Self {
        assert!(granularity.is_power_of_two());
        NaiveStackDistance {
            granularity,
            stack: Vec::new(),
        }
    }

    /// Process one reference; returns the stack distance in blocks
    /// (`None` = cold).
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let block = addr / self.granularity;
        match self.stack.iter().position(|&b| b == block) {
            Some(pos) => {
                self.stack.remove(pos);
                self.stack.insert(0, block);
                Some(pos as u64)
            }
            None => {
                self.stack.insert(0, block);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn simple_sequence() {
        // Blocks: A B A C B A D A (granularity 1 byte-block = 1)
        let mut an = StackDistanceAnalyzer::new(1);
        assert_eq!(an.access(0), None); // A cold
        assert_eq!(an.access(1), None); // B cold
        assert_eq!(an.access(0), Some(1)); // A: {B} in between
        assert_eq!(an.access(2), None); // C cold
        assert_eq!(an.access(1), Some(2)); // B: {A, C}
        assert_eq!(an.access(0), Some(2)); // A: {C, B}
        assert_eq!(an.access(3), None); // D cold
        assert_eq!(an.access(0), Some(1)); // A: {D}
        assert_eq!(an.unique_blocks(), 4);
    }

    #[test]
    fn repeated_same_block_distance_zero() {
        let mut an = StackDistanceAnalyzer::new(64);
        an.access(0);
        for _ in 0..10 {
            assert_eq!(an.access(32), Some(0)); // same 64-byte block as 0
        }
    }

    #[test]
    fn granularity_maps_addresses() {
        let mut an = StackDistanceAnalyzer::new(64);
        assert_eq!(an.access(0), None);
        assert_eq!(an.access(63), Some(0)); // same block
        assert_eq!(an.access(64), None); // next block
        assert_eq!(an.access(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_granularity() {
        StackDistanceAnalyzer::new(48);
    }

    #[test]
    fn matches_naive_on_random_trace() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut fast = StackDistanceAnalyzer::new(1);
        let mut slow = NaiveStackDistance::new(1);
        for _ in 0..20_000 {
            // Skewed toward small addresses for realistic reuse.
            let addr = (rng.gen::<f64>().powi(3) * 500.0) as u64;
            assert_eq!(fast.access(addr), slow.access(addr));
        }
    }

    #[test]
    fn matches_naive_across_compactions() {
        // Drive 3 × 2^16 references through the minimum slot space while
        // the address range widens from 300 to ~2,300 blocks, so the live
        // set grows across every compaction.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut fast = StackDistanceAnalyzer::new(1);
        let mut slow = NaiveStackDistance::new(1);
        let mut compactions = 0;
        let mut live_at_compaction = Vec::new();
        for i in 0..(MIN_SLOTS as u64 * 3) {
            let addr = rng.gen_range(0..300 + i / 100);
            if fast.next_slot == fast.index.slots() {
                compactions += 1;
                live_at_compaction.push(fast.unique_blocks());
            }
            assert_eq!(fast.access(addr), slow.access(addr));
        }
        assert_eq!(compactions, 3);
        assert!(
            live_at_compaction.windows(2).all(|w| w[0] < w[1]),
            "{live_at_compaction:?}"
        );
    }

    #[test]
    fn extreme_blocks_match_naive() {
        // At granularity 1 every u64 is a block, including u64::MAX; the
        // slot map's empty marker lives in the slot field, not the key.
        let blocks = [0, u64::MAX, u64::MAX - 1];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut fast = StackDistanceAnalyzer::new(1);
        let mut slow = NaiveStackDistance::new(1);
        for i in 0..3_000u64 {
            let addr = if i % 2 == 0 {
                blocks[(i / 2 % 3) as usize]
            } else {
                blocks[rng.gen_range(0..3usize)]
            };
            assert_eq!(fast.access(addr), slow.access(addr));
        }
        assert_eq!(fast.unique_blocks(), 3);
    }

    #[test]
    fn sequential_scan_distances() {
        // A scan never reuses: all cold.
        let mut an = StackDistanceAnalyzer::new(1);
        for i in 0..1000u64 {
            assert_eq!(an.access(i), None);
        }
        // Second scan of the same data: every distance = unique − 1 = 999.
        for i in 0..1000u64 {
            assert_eq!(an.access(i), Some(999));
        }
    }

    #[test]
    fn histogram_totals_match() {
        let mut an = StackDistanceAnalyzer::new(1);
        for i in 0..100u64 {
            an.access(i % 10);
        }
        let h = an.histogram();
        assert_eq!(h.total_refs(), 100);
        assert_eq!(h.cold_refs(), 10);
    }
}

#[cfg(test)]
mod golden_tests;
