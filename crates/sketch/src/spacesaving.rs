//! SpaceSaving (Metwally, Agrawal, El Abbadi — the paper's citation \[26\]).
//!
//! Maintains `capacity` counters over a stream of n items with the classic
//! guarantees:
//!
//! * every monitored item's counter **overestimates** its true frequency by
//!   at most its recorded `error`, and `error <= n / capacity`;
//! * every item with true frequency `> n / capacity` is monitored;
//! * the minimum counter value is at most `n / capacity`.
//!
//! Used by the O(1/ε)-space heavy-hitter site of §2.1 ("Implementing with
//! small space"): with `capacity = ⌈1/ε'⌉` the sketch gives local
//! frequencies with absolute error at most ε'·|Sj|.
//!
//! Each counter also carries a protocol-owned `tag` word. The tracking site
//! uses it to store the number of unreported arrivals of the monitored
//! item; the sketch never interprets it, but returns it on eviction so the
//! protocol can account for the unreported mass it loses.
//!
//! Implementation: an indexed binary min-heap keyed by count, with a
//! deterministic fast-hash map from item to heap slot — O(log capacity)
//! per update.

use dtrack_hash::FxHashMap;

/// A monitored counter as seen by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterView {
    /// The monitored item.
    pub item: u64,
    /// The (over-)estimated count.
    pub count: u64,
    /// Maximum overestimation: `count - error <= true <= count`.
    pub error: u64,
    /// Protocol-owned tag (see module docs).
    pub tag: u64,
}

/// A counter returned when its item is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The item that lost its counter.
    pub item: u64,
    /// Its count at eviction.
    pub count: u64,
    /// Its error at eviction.
    pub error: u64,
    /// Its protocol tag at eviction.
    pub tag: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    item: u64,
    count: u64,
    error: u64,
    tag: u64,
}

/// The SpaceSaving sketch.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    heap: Vec<Slot>,
    pos: FxHashMap<u64, usize>,
    total: u64,
}

impl SpaceSaving {
    /// Sketch with the given number of counters.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            capacity,
            heap: Vec::with_capacity(capacity),
            pos: FxHashMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            total: 0,
        }
    }

    /// Sketch sized for absolute frequency error `epsilon * n`:
    /// `capacity = ⌈1/epsilon⌉`.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in (0, 1].
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of counters currently in use.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no items have been observed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of observed items.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Record one occurrence of `x`. Returns the counter evicted to make
    /// room, if any.
    pub fn observe(&mut self, x: u64) -> Option<Evicted> {
        self.total += 1;
        if let Some(&i) = self.pos.get(&x) {
            self.heap[i].count += 1;
            self.sift_down(i);
            return None;
        }
        if self.heap.len() < self.capacity {
            let i = self.heap.len();
            self.heap.push(Slot {
                item: x,
                count: 1,
                error: 0,
                tag: 0,
            });
            self.pos.insert(x, i);
            self.sift_up(i);
            return None;
        }
        // Take over the minimum counter (heap root).
        let old = self.heap[0].clone();
        self.pos.remove(&old.item);
        self.pos.insert(x, 0);
        self.heap[0] = Slot {
            item: x,
            count: old.count + 1,
            error: old.count,
            tag: 0,
        };
        self.sift_down(0);
        Some(Evicted {
            item: old.item,
            count: old.count,
            error: old.error,
            tag: old.tag,
        })
    }

    /// Merge another sketch into this one (Agarwal et al., "Mergeable
    /// Summaries"). For items monitored on both sides, counts and errors
    /// add; an item monitored on one side only gets the other side's
    /// `min_count` added to both its count and its error (the other
    /// side's upper bound on what it may have missed). The combined
    /// counters are then truncated to the `capacity` largest, ties broken
    /// by item id so that merging is exactly commutative.
    ///
    /// Merged guarantees, for the concatenated stream of n = n₁+n₂ items:
    ///
    /// * `count` still overestimates and `count − error` still
    ///   underestimates every monitored item's true frequency;
    /// * `error <= n / capacity`;
    /// * every item with true frequency `> 2n / capacity` stays monitored
    ///   (the merge doubles the miss threshold, matching the cited
    ///   analysis).
    ///
    /// Protocol `tag`s are reset to zero: a merge produces a fresh
    /// summary-level object, not a tracking-site state.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: &SpaceSaving) {
        assert_eq!(
            self.capacity, other.capacity,
            "can only merge equal-capacity SpaceSaving sketches"
        );
        let min_self = self.min_count();
        let min_other = other.min_count();
        // item -> (count, error)
        let mut merged: FxHashMap<u64, (u64, u64)> =
            FxHashMap::with_capacity_and_hasher(2 * self.capacity, Default::default());
        for s in &self.heap {
            merged.insert(s.item, (s.count, s.error));
        }
        for o in &other.heap {
            merged
                .entry(o.item)
                .and_modify(|(c, e)| {
                    *c += o.count;
                    *e += o.error;
                })
                .or_insert((o.count + min_self, o.error + min_self));
        }
        for s in &self.heap {
            if !other.pos.contains_key(&s.item) {
                let entry = merged.get_mut(&s.item).expect("inserted above");
                entry.0 += min_other;
                entry.1 += min_other;
            }
        }
        let mut all: Vec<(u64, (u64, u64))> = merged.into_iter().collect();
        all.sort_unstable_by(|a, b| (b.1 .0.cmp(&a.1 .0)).then(a.0.cmp(&b.0)));
        all.truncate(self.capacity);
        self.total += other.total;
        self.heap.clear();
        self.pos.clear();
        for (item, (count, error)) in all {
            let i = self.heap.len();
            self.heap.push(Slot {
                item,
                count,
                error,
                tag: 0,
            });
            self.pos.insert(item, i);
            self.sift_up(i);
        }
    }

    /// The counter for `x`, if monitored.
    pub fn get(&self, x: u64) -> Option<CounterView> {
        self.pos.get(&x).map(|&i| {
            let s = &self.heap[i];
            CounterView {
                item: s.item,
                count: s.count,
                error: s.error,
                tag: s.tag,
            }
        })
    }

    /// Mutable access to the protocol tag of a monitored item.
    pub fn tag_mut(&mut self, x: u64) -> Option<&mut u64> {
        let i = *self.pos.get(&x)?;
        Some(&mut self.heap[i].tag)
    }

    /// Upper bound on the true frequency of `x` (valid for every `x`,
    /// monitored or not).
    pub fn upper_bound(&self, x: u64) -> u64 {
        match self.get(x) {
            Some(c) => c.count,
            None => self.min_count(),
        }
    }

    /// Lower bound on the true frequency of `x` (0 when not monitored).
    pub fn lower_bound(&self, x: u64) -> u64 {
        self.get(x).map_or(0, |c| c.count - c.error)
    }

    /// The smallest counter value (0 while the sketch is not full). This is
    /// at most `total / capacity`.
    pub fn min_count(&self) -> u64 {
        if self.heap.len() < self.capacity {
            0
        } else {
            self.heap.first().map_or(0, |s| s.count)
        }
    }

    /// Iterate over all monitored counters in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = CounterView> + '_ {
        self.heap.iter().map(|s| CounterView {
            item: s.item,
            count: s.count,
            error: s.error,
            tag: s.tag,
        })
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].count < self.heap[parent].count {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].count < self.heap[smallest].count {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].count < self.heap[smallest].count {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos.insert(self.heap[a].item, a);
        self.pos.insert(self.heap[b].item, b);
    }

    #[cfg(test)]
    fn check_heap_invariants(&self) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.heap[parent].count <= self.heap[i].count,
                "heap order violated at {i}"
            );
        }
        for (i, s) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[&s.item], i, "stale position for {}", s.item);
        }
        assert_eq!(self.pos.len(), self.heap.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn truth_and_sketch(stream: &[u64], cap: usize) -> (HashMap<u64, u64>, SpaceSaving) {
        let mut truth = HashMap::new();
        let mut ss = SpaceSaving::new(cap);
        for &x in stream {
            *truth.entry(x).or_insert(0u64) += 1;
            ss.observe(x);
            ss.check_heap_invariants();
        }
        (truth, ss)
    }

    #[test]
    fn exact_below_capacity() {
        let stream = [1u64, 2, 3, 1, 2, 1];
        let (truth, ss) = truth_and_sketch(&stream, 8);
        for (&x, &c) in &truth {
            let v = ss.get(x).unwrap();
            assert_eq!(v.count, c);
            assert_eq!(v.error, 0);
        }
        assert_eq!(ss.total(), 6);
        assert_eq!(ss.min_count(), 0, "not full yet");
    }

    #[test]
    fn overestimate_bounded_by_error_and_n_over_c() {
        // Skewed stream: item 0 is very frequent, plus a tail.
        let mut stream = Vec::new();
        let mut st = 7u64;
        for i in 0..5000u64 {
            if i % 3 == 0 {
                stream.push(0);
            } else {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                stream.push(1 + st % 400);
            }
        }
        let cap = 50;
        let (truth, ss) = truth_and_sketch(&stream, cap);
        let n = stream.len() as u64;
        for c in ss.iter() {
            let t = truth.get(&c.item).copied().unwrap_or(0);
            assert!(c.count >= t, "count must overestimate");
            assert!(c.count - c.error <= t, "lower bound must hold");
            assert!(c.error <= n / cap as u64, "error bound n/c violated");
        }
        assert!(ss.min_count() <= n / cap as u64);
        // The heavy item is monitored and tightly estimated.
        let heavy = ss.get(0).unwrap();
        let true_heavy = truth[&0];
        assert!(heavy.count >= true_heavy);
        assert!(heavy.count - true_heavy <= n / cap as u64);
    }

    #[test]
    fn heavy_items_always_monitored() {
        // Any item with frequency > n / capacity must be present.
        let mut stream = Vec::new();
        for round in 0..100u64 {
            stream.push(42); // frequency 100 out of 300, cap 10 => 30 < 100
            stream.push(round * 2 + 1000);
            stream.push(round * 2 + 1001);
        }
        let (truth, ss) = truth_and_sketch(&stream, 10);
        let n = stream.len() as u64;
        for (&x, &c) in &truth {
            if c > n / 10 {
                assert!(ss.get(x).is_some(), "heavy item {x} evicted");
            }
        }
    }

    #[test]
    fn eviction_returns_old_counter_with_tag() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(1);
        ss.observe(2);
        *ss.tag_mut(1).unwrap() = 99;
        // 3 evicts the min counter (1 or 2, both count 1).
        let ev = ss.observe(3).unwrap();
        assert_eq!(ev.count, 1);
        assert_eq!(ev.error, 0);
        if ev.item == 1 {
            assert_eq!(ev.tag, 99);
        }
        // New counter starts with count = min + 1, error = min, tag = 0.
        let c = ss.get(3).unwrap();
        assert_eq!(c.count, 2);
        assert_eq!(c.error, 1);
        assert_eq!(c.tag, 0);
    }

    #[test]
    fn bounds_for_unmonitored_items() {
        let mut ss = SpaceSaving::new(2);
        for _ in 0..10 {
            ss.observe(1);
            ss.observe(2);
        }
        assert_eq!(ss.lower_bound(777), 0);
        assert_eq!(ss.upper_bound(777), ss.min_count());
        assert!(ss.min_count() > 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SpaceSaving::new(0);
    }

    #[test]
    fn with_epsilon_sizes_capacity() {
        let ss = SpaceSaving::with_epsilon(0.01);
        assert_eq!(ss.capacity(), 100);
        let ss = SpaceSaving::with_epsilon(0.03);
        assert_eq!(ss.capacity(), 34);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn bad_epsilon_panics() {
        SpaceSaving::with_epsilon(0.0);
    }
}
