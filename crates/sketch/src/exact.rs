//! Exact local stores: a frequency map and an order-statistic B+tree.
//!
//! The basic protocols of the paper assume each site "maintains the exact
//! frequency of each x ∈ U at site Sj" (§2.1) and can answer exact rank and
//! range-count polls (§3.1 step 1–2). [`ExactFrequencies`] and
//! [`ExactOrdered`] provide those with O(log n) (or O(1)) operations.
//!
//! Both structures sit on the per-arrival hot path (every site store and
//! the differential oracle are built from them), so they avoid the two
//! classic per-item taxes: [`ExactFrequencies`] hashes with the
//! deterministic Fx hash instead of SipHash, and [`ExactOrdered`] is a
//! *counted B+tree* whose wide nodes live in two `Vec` arenas and link by
//! `u32` index. A descent visits a few levels of a few cache lines each,
//! where a binary tree over the same keys takes one dependent cache miss
//! per level, and an insert allocates only for the first key or a split.

use dtrack_hash::FxHashMap;

/// Exact per-item frequency counts for a site's local stream.
#[derive(Debug, Clone, Default)]
pub struct ExactFrequencies {
    counts: FxHashMap<u64, u64>,
    total: u64,
}

impl ExactFrequencies {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence of `x`; returns the new count of `x`.
    #[inline]
    pub fn observe(&mut self, x: u64) -> u64 {
        self.total += 1;
        let c = self.counts.entry(x).or_insert(0);
        *c += 1;
        *c
    }

    /// Exact count of `x`.
    #[inline]
    pub fn count(&self, x: u64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    /// Total number of items observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct items observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterate over `(item, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }
}

/// Distinct keys per leaf.
const LEAF_CAP: usize = 32;
/// Children per inner node.
const FANOUT: usize = 16;
/// Most inner levels a tree can reach. A split leaves both halves with at
/// least `FANOUT / 2` children and the root has at least two, so a tree
/// with `h` inner levels has at least `2 · 8^(h−1)` leaves. Leaf indices
/// are `u32` values below [`NIL`], so `2 · 8^(h−1) < 2^32`, i.e. `h ≤ 11`.
const MAX_HEIGHT: usize = 11;
/// Sentinel leaf index: "no next leaf".
const NIL: u32 = u32::MAX;

/// A leaf: `len` distinct keys in ascending order with their
/// multiplicities, and the leaf holding the next larger keys.
#[derive(Debug, Clone)]
struct Leaf {
    keys: [u64; LEAF_CAP],
    mults: [u64; LEAF_CAP],
    len: usize,
    next: u32,
}

/// An inner node with `len` children. Keys under `children[i]` are
/// `< seps[i]` and keys under `children[i + 1]` are `≥ seps[i]`;
/// `counts[i]` is the number of items (with multiplicity) under
/// `children[i]`. Children index the leaf arena on the lowest inner level
/// and the inner arena above it.
#[derive(Debug, Clone)]
struct Inner {
    seps: [u64; FANOUT - 1],
    counts: [u64; FANOUT],
    children: [u32; FANOUT],
    len: usize,
}

/// A node split off to the right: its lowest key, its item count, its
/// index.
type Sibling = (u64, u64, u32);

impl Leaf {
    const EMPTY: Leaf = Leaf {
        keys: [0; LEAF_CAP],
        mults: [0; LEAF_CAP],
        len: 0,
        next: NIL,
    };

    /// Put a new key `x` at `pos`; the leaf must have room.
    fn insert(&mut self, pos: usize, x: u64) {
        self.keys.copy_within(pos..self.len, pos + 1);
        self.mults.copy_within(pos..self.len, pos + 1);
        self.keys[pos] = x;
        self.mults[pos] = 1;
        self.len += 1;
    }
}

impl Inner {
    const EMPTY: Inner = Inner {
        seps: [0; FANOUT - 1],
        counts: [0; FANOUT],
        children: [0; FANOUT],
        len: 0,
    };

    /// The child whose key range holds `x`. A branch-free count over at
    /// most 15 separators beats a binary search's mispredicted branches.
    #[inline]
    fn slot(&self, x: u64) -> usize {
        self.seps[..self.len - 1]
            .iter()
            .filter(|&&s| s <= x)
            .count()
    }

    /// Put a new child at position `at ≥ 1`; the node must have room.
    fn insert(&mut self, at: usize, (sep, count, child): Sibling) {
        self.seps.copy_within(at - 1..self.len - 1, at);
        self.counts.copy_within(at..self.len, at + 1);
        self.children.copy_within(at..self.len, at + 1);
        self.seps[at - 1] = sep;
        self.counts[at] = count;
        self.children[at] = child;
        self.len += 1;
    }
}

/// Index of the entry that holds rank `*r` in a run of entries with
/// `weights`, leaving in `*r` the rank within that entry.
#[inline]
fn locate(weights: &[u64], r: &mut u64) -> usize {
    let mut i = 0;
    while *r >= weights[i] {
        *r -= weights[i];
        i += 1;
    }
    i
}

/// The next free index of an arena of `len` nodes.
fn arena_index(len: usize) -> u32 {
    assert!(len < NIL as usize, "ExactOrdered arena exceeds u32 indices");
    len as u32
}

/// An order-statistic counted B+tree over a multiset of `u64` values.
///
/// Supports the exact queries quantile-tracking sites must answer:
/// * `rank_lt(x)` — number of stored items strictly less than `x`;
/// * `rank_le(x)` — number of stored items ≤ `x`;
/// * `select(r)` — the item of multiset rank `r` (0-based);
/// * `range_count(lo, hi)` — items in the inclusive range `[lo, hi]`.
///
/// Insert, rank and select are one iterative root-to-leaf descent each,
/// O(log n) in the worst case and independent of insertion order; every
/// answer is a function of the multiset alone. Nodes live in two arenas
/// that grow by one node per split; `new` allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ExactOrdered {
    leaves: Vec<Leaf>,
    inners: Vec<Inner>,
    /// A leaf when `height == 0`, an inner node otherwise.
    root: u32,
    /// Inner levels above the leaves.
    height: usize,
    len: u64,
    distinct: usize,
}

impl ExactOrdered {
    /// Empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items (with multiplicity).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys stored.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Remove every item, keeping the arenas' capacity for reuse.
    pub fn clear(&mut self) {
        self.leaves.clear();
        self.inners.clear();
        self.root = 0;
        self.height = 0;
        self.len = 0;
        self.distinct = 0;
    }

    /// Insert one occurrence of `x`.
    pub fn insert(&mut self, x: u64) {
        if self.leaves.is_empty() {
            self.leaves.push(Leaf::EMPTY);
        }
        self.len += 1;
        let mut path = [(0u32, 0usize); MAX_HEIGHT];
        let mut node = self.root;
        for step in &mut path[..self.height] {
            let inner = &mut self.inners[node as usize];
            let slot = inner.slot(x);
            inner.counts[slot] += 1;
            *step = (node, slot);
            node = inner.children[slot];
        }
        let leaf = &mut self.leaves[node as usize];
        let pos = leaf.keys[..leaf.len].partition_point(|&k| k < x);
        if pos < leaf.len && leaf.keys[pos] == x {
            leaf.mults[pos] += 1;
            return;
        }
        self.distinct += 1;
        if leaf.len < LEAF_CAP {
            leaf.insert(pos, x);
            return;
        }
        let sibling = self.split_leaf(node, pos, x);
        self.push_up(&path[..self.height], sibling);
    }

    /// Move the upper half of full leaf `idx` to a new leaf and put `x` at
    /// `pos` in whichever half covers it.
    fn split_leaf(&mut self, idx: u32, pos: usize, x: u64) -> Sibling {
        const HALF: usize = LEAF_CAP / 2;
        let new = arena_index(self.leaves.len());
        let left = &mut self.leaves[idx as usize];
        let mut right = Leaf::EMPTY;
        right.keys[..HALF].copy_from_slice(&left.keys[HALF..]);
        right.mults[..HALF].copy_from_slice(&left.mults[HALF..]);
        right.len = HALF;
        right.next = left.next;
        left.len = HALF;
        left.next = new;
        if pos <= HALF {
            left.insert(pos, x);
        } else {
            right.insert(pos - HALF, x);
        }
        let sibling = (right.keys[0], right.mults[..right.len].iter().sum(), new);
        self.leaves.push(right);
        sibling
    }

    /// Hang `sibling` to the right of the node the descent `path` ended
    /// at, splitting full ancestors bottom-up; a split root grows the tree
    /// by one level.
    fn push_up(&mut self, path: &[(u32, usize)], mut sibling: Sibling) {
        for &(node, slot) in path.iter().rev() {
            let inner = &mut self.inners[node as usize];
            inner.counts[slot] -= sibling.1;
            if inner.len < FANOUT {
                inner.insert(slot + 1, sibling);
                return;
            }
            sibling = self.split_inner(node, slot + 1, sibling);
        }
        let (sep, count, child) = sibling;
        let mut root = Inner::EMPTY;
        root.seps[0] = sep;
        root.counts[..2].copy_from_slice(&[self.len - count, count]);
        root.children[..2].copy_from_slice(&[self.root, child]);
        root.len = 2;
        self.root = arena_index(self.inners.len());
        self.inners.push(root);
        self.height += 1;
    }

    /// Move the upper half of full inner node `idx` to a new node, put
    /// `sibling` at child position `at` in whichever half covers it, and
    /// return the new node as the sibling for the level above.
    fn split_inner(&mut self, idx: u32, at: usize, sibling: Sibling) -> Sibling {
        const HALF: usize = FANOUT / 2;
        let new = arena_index(self.inners.len());
        let left = &mut self.inners[idx as usize];
        let mut right = Inner::EMPTY;
        right.seps[..HALF - 1].copy_from_slice(&left.seps[HALF..]);
        right.counts[..HALF].copy_from_slice(&left.counts[HALF..]);
        right.children[..HALF].copy_from_slice(&left.children[HALF..]);
        right.len = HALF;
        left.len = HALF;
        let sep = left.seps[HALF - 1];
        if at <= HALF {
            left.insert(at, sibling);
        } else {
            right.insert(at - HALF, sibling);
        }
        let count = right.counts[..right.len].iter().sum();
        self.inners.push(right);
        (sep, count, new)
    }

    /// Number of items strictly less than `x`.
    pub fn rank_lt(&self, x: u64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let mut acc = 0;
        let mut node = self.root;
        for _ in 0..self.height {
            let inner = &self.inners[node as usize];
            let slot = inner.slot(x);
            acc += inner.counts[..slot].iter().sum::<u64>();
            node = inner.children[slot];
        }
        let leaf = &self.leaves[node as usize];
        let pos = leaf.keys[..leaf.len].partition_point(|&k| k < x);
        acc + leaf.mults[..pos].iter().sum::<u64>()
    }

    /// Number of items less than or equal to `x`.
    pub fn rank_le(&self, x: u64) -> u64 {
        if x == u64::MAX {
            return self.len;
        }
        self.rank_lt(x + 1)
    }

    /// Exact multiplicity of `x`.
    pub fn count(&self, x: u64) -> u64 {
        self.rank_le(x) - self.rank_lt(x)
    }

    /// Number of items in the inclusive range `[lo, hi]`; 0 when `lo > hi`.
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        self.rank_le(hi) - self.rank_lt(lo)
    }

    /// The item of multiset rank `r` (0-based); `None` when `r >= len`.
    pub fn select(&self, r: u64) -> Option<u64> {
        if r >= self.len {
            return None;
        }
        let mut r = r;
        let mut node = self.root;
        for _ in 0..self.height {
            let inner = &self.inners[node as usize];
            node = inner.children[locate(&inner.counts[..inner.len], &mut r)];
        }
        let leaf = &self.leaves[node as usize];
        Some(leaf.keys[locate(&leaf.mults[..leaf.len], &mut r)])
    }

    /// Iterate over `(value, multiplicity)` in ascending value order.
    pub fn iter(&self) -> ExactOrderedIter<'_> {
        // Leaf 0 is the leftmost leaf: a split keeps the lower half in place.
        ExactOrderedIter {
            leaves: &self.leaves,
            leaf: 0,
            pos: 0,
        }
    }
}

/// In-order iterator over an [`ExactOrdered`] multiset: walks the leaves
/// along their `next` links.
pub struct ExactOrderedIter<'a> {
    leaves: &'a [Leaf],
    leaf: u32,
    pos: usize,
}

impl Iterator for ExactOrderedIter<'_> {
    type Item = (u64, u64);
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // `NIL` is past the end of every arena, so the walk stops there.
            let leaf = self.leaves.get(self.leaf as usize)?;
            if self.pos < leaf.len {
                self.pos += 1;
                return Some((leaf.keys[self.pos - 1], leaf.mults[self.pos - 1]));
            }
            self.leaf = leaf.next;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_count_and_total() {
        let mut f = ExactFrequencies::new();
        for x in [5, 5, 7, 5, 9] {
            f.observe(x);
        }
        assert_eq!(f.count(5), 3);
        assert_eq!(f.count(7), 1);
        assert_eq!(f.count(42), 0);
        assert_eq!(f.total(), 5);
        assert_eq!(f.distinct(), 3);
        let mut pairs: Vec<_> = f.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(5, 3), (7, 1), (9, 1)]);
    }

    #[test]
    fn ordered_rank_select_roundtrip() {
        let mut t = ExactOrdered::new();
        let vals = [50u64, 10, 30, 30, 90, 70, 30];
        for v in vals {
            t.insert(v);
        }
        // Sorted: 10, 30, 30, 30, 50, 70, 90
        assert_eq!(t.len(), 7);
        assert_eq!(t.distinct(), 5);
        assert_eq!(t.rank_lt(10), 0);
        assert_eq!(t.rank_lt(30), 1);
        assert_eq!(t.rank_le(30), 4);
        assert_eq!(t.rank_lt(100), 7);
        assert_eq!(t.count(30), 3);
        assert_eq!(t.count(11), 0);
        assert_eq!(t.select(0), Some(10));
        assert_eq!(t.select(3), Some(30));
        assert_eq!(t.select(4), Some(50));
        assert_eq!(t.select(6), Some(90));
        assert_eq!(t.select(7), None);
    }

    #[test]
    fn range_count_inclusive() {
        let mut t = ExactOrdered::new();
        for v in 0..100u64 {
            t.insert(v * 2); // evens 0..198
        }
        assert_eq!(t.range_count(0, 198), 100);
        assert_eq!(t.range_count(10, 20), 6); // 10,12,14,16,18,20
        assert_eq!(t.range_count(11, 11), 0);
        assert_eq!(t.range_count(20, 10), 0);
        assert_eq!(t.range_count(197, u64::MAX), 1);
    }

    #[test]
    fn extreme_keys() {
        let mut t = ExactOrdered::new();
        t.insert(0);
        t.insert(u64::MAX);
        t.insert(u64::MAX);
        assert_eq!(t.rank_lt(0), 0);
        assert_eq!(t.rank_le(0), 1);
        assert_eq!(t.rank_le(u64::MAX), 3);
        assert_eq!(t.rank_lt(u64::MAX), 1);
        assert_eq!(t.count(u64::MAX), 2);
        assert_eq!(t.select(2), Some(u64::MAX));
    }

    #[test]
    fn iter_is_sorted_with_multiplicity() {
        let mut t = ExactOrdered::new();
        assert_eq!(t.iter().next(), None);
        for v in [9u64, 1, 5, 5, 9, 9] {
            t.insert(v);
        }
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(1, 1), (5, 2), (9, 3)]);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        let mut t = ExactOrdered::new();
        for v in 0..200u64 {
            t.insert(v % 70);
        }
        let (leaves, inners) = (t.leaves.capacity(), t.inners.capacity());
        assert!(t.height > 0);
        t.clear();
        assert!(t.is_empty() && t.leaves.is_empty() && t.inners.is_empty());
        assert_eq!(t.distinct(), 0);
        assert_eq!(t.select(0), None);
        assert_eq!(t.rank_lt(5), 0);
        assert_eq!(t.iter().next(), None);
        assert_eq!((t.leaves.capacity(), t.inners.capacity()), (leaves, inners));
        // Re-inserting after clear behaves like a fresh store.
        t.insert(9);
        t.insert(4);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(4, 1), (9, 1)]);
        assert_eq!(t.select(1), Some(9));
    }

    #[test]
    fn matches_sorted_vec_on_dense_input() {
        let mut t = ExactOrdered::new();
        // 2000 deterministic pseudo-random inserts over 500 values: splits
        // at both levels, and duplicates in every leaf.
        let mut v: Vec<u64> = (0..2000).map(|i| dtrack_hash::hash_u64(i) % 500).collect();
        for &x in &v {
            t.insert(x);
        }
        v.sort_unstable();
        assert!(t.height >= 2, "height {}", t.height);
        for probe in (0..500).step_by(7) {
            let lt = v.partition_point(|&y| y < probe) as u64;
            let le = v.partition_point(|&y| y <= probe) as u64;
            assert_eq!(t.rank_lt(probe), lt, "rank_lt({probe})");
            assert_eq!(t.rank_le(probe), le, "rank_le({probe})");
        }
        for r in (0..v.len()).step_by(13) {
            assert_eq!(t.select(r as u64), Some(v[r]), "select({r})");
        }
    }

    #[test]
    fn sorted_input_height_is_logarithmic() {
        // Sorted input leaves every split node half full, a B+tree's worst
        // case. A tree with h inner levels has at least 2·(FANOUT/2)^(h−1)
        // leaves, and n distinct keys in half-full leaves fill n/(LEAF_CAP/2).
        let n = 4096u64;
        for keys in [(0..n).collect::<Vec<_>>(), (0..n).rev().collect()] {
            let mut t = ExactOrdered::new();
            for &k in &keys {
                t.insert(k);
            }
            let min_leaves = 2 * (FANOUT as u64 / 2).pow(t.height as u32 - 1);
            assert!(
                min_leaves <= n / (LEAF_CAP as u64 / 2),
                "height {} too large for {n} sorted keys",
                t.height
            );
            assert_eq!(t.select(n / 3), Some(n / 3));
        }
    }
}
