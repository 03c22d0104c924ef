//! Communication metering: counts messages and words, per direction and per
//! message kind.
//!
//! The paper's theorems bound the *total number of words* exchanged over the
//! whole tracking period, where a word is Θ(log u) bits. The meter tallies
//! both words and messages (the lower bound of Theorem 2.4 is in fact a
//! bound on the number of messages), and keeps a per-kind breakdown so
//! experiments can attribute cost to protocol phases (e.g. how much of the
//! heavy-hitter budget goes to `all` signals vs. item updates vs. re-sync
//! polls).
//!
//! ## Hot-path design
//!
//! `record_up`/`record_down` run once per metered hop — tens of millions of
//! times in a large scenario — so the per-kind breakdown must not cost a
//! tree walk per message. Kinds are interned into a small array-backed
//! registry on first sight; after that a record is two array adds. Kind
//! labels are `&'static str` literals, so the fast path resolves the index
//! by *pointer* identity (one `(addr, len)` compare against a one-entry
//! cache, then a short linear scan), falling back to a by-value scan only
//! when a label reaches us through a different literal address. Interning
//! order is arrival order; [`MessageMeter::report`] sorts by label so the
//! rendered breakdown stays deterministic regardless of which message kind
//! happened to arrive first.

/// Message/word tallies for one message kind in one direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCost {
    /// Number of messages.
    pub messages: u64,
    /// Total words across those messages.
    pub words: u64,
}

impl KindCost {
    #[inline]
    fn add(&mut self, words: u64) {
        self.messages += 1;
        self.words += words;
    }
}

/// Interned identity of a `&'static str` kind label: data address + length.
/// Stored as plain integers so the meter stays `Send` (raw pointers would
/// drop the auto trait, and the pool keeps each site's meter behind a
/// mutex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LabelKey {
    addr: usize,
    len: usize,
}

impl LabelKey {
    #[inline]
    fn of(s: &'static str) -> Self {
        LabelKey {
            addr: s.as_ptr() as usize,
            len: s.len(),
        }
    }
}

/// Accumulates communication cost during a run.
#[derive(Debug, Clone, Default)]
pub struct MessageMeter {
    up: KindCost,
    down: KindCost,
    /// Interned kind labels, in interning (first-seen) order.
    kinds: Vec<&'static str>,
    /// Pointer identities parallel to `kinds` (fast-path resolution).
    keys: Vec<LabelKey>,
    /// Per-kind tallies parallel to `kinds`.
    by_kind: Vec<KindCost>,
    /// One-entry most-recently-used cache: (label identity, index).
    mru: Option<(LabelKey, usize)>,
}

impl MessageMeter {
    /// A fresh meter with all tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `kind` to its registry index, interning it on first sight.
    #[inline]
    fn kind_index(&mut self, kind: &'static str) -> usize {
        let key = LabelKey::of(kind);
        if let Some((k, i)) = self.mru {
            if k == key {
                return i;
            }
        }
        let i = self.kind_index_slow(key, kind);
        self.mru = Some((key, i));
        i
    }

    #[cold]
    fn kind_index_slow(&mut self, key: LabelKey, kind: &'static str) -> usize {
        // Pointer-identity scan first: literals resolve without touching
        // string bytes. Registries hold a handful of kinds, so linear is
        // faster than any hashed structure here.
        if let Some(i) = self.keys.iter().position(|&k| k == key) {
            return i;
        }
        // Same label text via a different literal address (possible across
        // codegen units): merge by value so the report never splits a kind.
        if let Some(i) = self.kinds.iter().position(|&k| k == kind) {
            return i;
        }
        self.kinds.push(kind);
        self.keys.push(key);
        self.by_kind.push(KindCost::default());
        self.kinds.len() - 1
    }

    /// Record one upstream (site -> coordinator) message of `words` words.
    #[inline]
    pub fn record_up(&mut self, kind: &'static str, words: u64) {
        self.up.add(words);
        let i = self.kind_index(kind);
        self.by_kind[i].add(words);
    }

    /// Record one downstream (coordinator -> site) message of `words` words.
    #[inline]
    pub fn record_down(&mut self, kind: &'static str, words: u64) {
        self.down.add(words);
        let i = self.kind_index(kind);
        self.by_kind[i].add(words);
    }

    /// Total messages in both directions.
    pub fn total_messages(&self) -> u64 {
        self.up.messages + self.down.messages
    }

    /// Total words in both directions — the paper's cost measure.
    pub fn total_words(&self) -> u64 {
        self.up.words + self.down.words
    }

    /// Upstream tallies.
    pub fn up(&self) -> KindCost {
        self.up
    }

    /// Downstream tallies.
    pub fn down(&self) -> KindCost {
        self.down
    }

    /// Cost attributed to a message kind (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindCost {
        self.kinds
            .iter()
            .position(|&k| k == kind)
            .map(|i| self.by_kind[i])
            .unwrap_or_default()
    }

    /// Snapshot of the full per-kind breakdown, sorted by kind label.
    ///
    /// The registry stores kinds in first-seen order, which depends on the
    /// message schedule; sorting here keeps the report (and everything
    /// diffed against it) independent of interning order. The ordering is
    /// [`dtrack_trace::canonical_kind_order`] — the same one
    /// `TraceSummary` sorts with, so meter and trace breakdowns can never
    /// disagree on label order.
    pub fn report(&self) -> CostReport {
        let mut by_kind: Vec<(String, KindCost)> = self
            .kinds
            .iter()
            .zip(&self.by_kind)
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect();
        by_kind.sort_unstable_by(|a, b| dtrack_trace::canonical_kind_order(&a.0, &b.0));
        CostReport {
            up: self.up,
            down: self.down,
            by_kind,
        }
    }

    /// Fold another meter's tallies into this one, matching kinds by
    /// label (by pointer identity when possible, by value otherwise — two
    /// threads metering the same kind through different literal addresses
    /// still land in one entry).
    ///
    /// This is how the pool aggregates its per-site meters: each site
    /// tallies locally with zero sharing, and the runtime merges on
    /// snapshot/shutdown.
    pub fn merge(&mut self, other: &MessageMeter) {
        self.up.messages += other.up.messages;
        self.up.words += other.up.words;
        self.down.messages += other.down.messages;
        self.down.words += other.down.words;
        for (&kind, cost) in other.kinds.iter().zip(&other.by_kind) {
            let i = self.kind_index(kind);
            self.by_kind[i].messages += cost.messages;
            self.by_kind[i].words += cost.words;
        }
    }

    /// Reset all tallies to zero (e.g. to exclude a warm-up phase).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// An owned snapshot of a [`MessageMeter`], suitable for storing in
/// experiment records after the run has been torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Upstream tallies.
    pub up: KindCost,
    /// Downstream tallies.
    pub down: KindCost,
    /// Per-kind tallies, sorted by label.
    pub by_kind: Vec<(String, KindCost)>,
}

impl CostReport {
    /// Total words in both directions.
    pub fn total_words(&self) -> u64 {
        self.up.words + self.down.words
    }

    /// Total messages in both directions.
    pub fn total_messages(&self) -> u64 {
        self.up.messages + self.down.messages
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total: {} msgs / {} words (up {}/{}, down {}/{})",
            self.total_messages(),
            self.total_words(),
            self.up.messages,
            self.up.words,
            self.down.messages,
            self.down.words,
        )?;
        for (kind, c) in &self.by_kind {
            writeln!(
                f,
                "  {kind:<24} {:>10} msgs {:>12} words",
                c.messages, c.words
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_per_direction() {
        let mut m = MessageMeter::new();
        m.record_up("a", 2);
        m.record_up("a", 3);
        m.record_down("b", 1);
        assert_eq!(
            m.up(),
            KindCost {
                messages: 2,
                words: 5
            }
        );
        assert_eq!(
            m.down(),
            KindCost {
                messages: 1,
                words: 1
            }
        );
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_words(), 6);
    }

    #[test]
    fn kind_breakdown() {
        let mut m = MessageMeter::new();
        m.record_up("x/update", 2);
        m.record_down("x/update", 2);
        m.record_up("x/sync", 1);
        assert_eq!(
            m.kind("x/update"),
            KindCost {
                messages: 2,
                words: 4
            }
        );
        assert_eq!(
            m.kind("x/sync"),
            KindCost {
                messages: 1,
                words: 1
            }
        );
        assert_eq!(m.kind("missing"), KindCost::default());
    }

    #[test]
    fn report_snapshot_matches_meter() {
        let mut m = MessageMeter::new();
        m.record_up("u", 4);
        m.record_down("d", 6);
        let r = m.report();
        assert_eq!(r.total_words(), m.total_words());
        assert_eq!(r.total_messages(), m.total_messages());
        assert_eq!(r.by_kind.len(), 2);
        // Sorted by label.
        assert_eq!(r.by_kind[0].0, "d");
        assert_eq!(r.by_kind[1].0, "u");
        let text = r.to_string();
        assert!(text.contains("total: 2 msgs / 10 words"));
    }

    #[test]
    fn report_order_independent_of_interning_order() {
        // Same tallies recorded in opposite kind order must render the
        // same sorted report, even though the array registry interned the
        // kinds differently.
        let mut fwd = MessageMeter::new();
        fwd.record_up("hh/all", 2);
        fwd.record_up("hh/item", 3);
        fwd.record_down("hh/new-count", 2);
        let mut rev = MessageMeter::new();
        rev.record_down("hh/new-count", 2);
        rev.record_up("hh/item", 3);
        rev.record_up("hh/all", 2);
        assert_eq!(fwd.report(), rev.report());
        let report = fwd.report();
        let labels: Vec<&str> = report.by_kind.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn duplicate_label_text_merges() {
        // The same label text arriving via different `&'static str`
        // addresses must land in one registry entry. Leaked boxes give us
        // two distinct addresses with identical bytes.
        let a: &'static str = Box::leak("dup/kind".to_owned().into_boxed_str());
        let b: &'static str = Box::leak("dup/kind".to_owned().into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        let mut m = MessageMeter::new();
        m.record_up(a, 1);
        m.record_up(b, 2);
        assert_eq!(
            m.kind("dup/kind"),
            KindCost {
                messages: 2,
                words: 3
            }
        );
        assert_eq!(m.report().by_kind.len(), 1);
    }

    #[test]
    fn mru_cache_survives_alternating_kinds() {
        let mut m = MessageMeter::new();
        for _ in 0..1000 {
            m.record_up("alt/a", 1);
            m.record_down("alt/b", 2);
        }
        assert_eq!(m.kind("alt/a").messages, 1000);
        assert_eq!(m.kind("alt/b").words, 2000);
    }

    #[test]
    fn merge_folds_totals_and_kinds() {
        let mut a = MessageMeter::new();
        a.record_up("m/item", 2);
        a.record_down("m/ack", 1);
        let mut b = MessageMeter::new();
        b.record_up("m/item", 3);
        b.record_up("m/poll", 5);
        a.merge(&b);
        assert_eq!(
            a.kind("m/item"),
            KindCost {
                messages: 2,
                words: 5
            }
        );
        assert_eq!(
            a.kind("m/poll"),
            KindCost {
                messages: 1,
                words: 5
            }
        );
        assert_eq!(a.total_messages(), 4);
        assert_eq!(a.total_words(), 11);
        assert_eq!(
            a.up(),
            KindCost {
                messages: 3,
                words: 10
            }
        );
    }

    #[test]
    fn merge_matches_sequential_recording() {
        // Splitting a message sequence across two meters and merging must
        // equal recording the whole sequence on one meter.
        let mut whole = MessageMeter::new();
        let mut left = MessageMeter::new();
        let mut right = MessageMeter::new();
        for i in 0..100u64 {
            let (kind, words) = match i % 3 {
                0 => ("s/a", 1),
                1 => ("s/b", 2),
                _ => ("s/c", 3),
            };
            whole.record_up(kind, words);
            if i < 50 {
                left.record_up(kind, words);
            } else {
                right.record_up(kind, words);
            }
        }
        left.merge(&right);
        assert_eq!(left.report(), whole.report());
    }

    #[test]
    fn merge_unifies_duplicate_label_addresses() {
        let a: &'static str = Box::leak("merge/dup".to_owned().into_boxed_str());
        let b: &'static str = Box::leak("merge/dup".to_owned().into_boxed_str());
        let mut m1 = MessageMeter::new();
        m1.record_up(a, 1);
        let mut m2 = MessageMeter::new();
        m2.record_down(b, 2);
        m1.merge(&m2);
        assert_eq!(m1.report().by_kind.len(), 1);
        assert_eq!(
            m1.kind("merge/dup"),
            KindCost {
                messages: 2,
                words: 3
            }
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = MessageMeter::new();
        m.record_up("u", 4);
        m.reset();
        assert_eq!(m.total_words(), 0);
        assert_eq!(m.report().by_kind.len(), 0);
    }

    #[test]
    fn meter_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MessageMeter>();
    }
}
