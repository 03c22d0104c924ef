//! §4 — Tracking all quantiles simultaneously with
//! O(k/ε · log n · log²(1/ε)) communication (Theorem 4.1).
//!
//! ## The data structure (the paper's Figure 1)
//!
//! A binary tree `T` over the universe with Θ(1/ε) leaves:
//!
//! * each internal node `u` stores a **splitting element** `x_u` dividing
//!   its interval `I_u` such that each side holds a constant fraction of
//!   the items (built at 3/8..5/8, maintained within 1/4..3/4 — the
//!   paper's conditions (5) and (6));
//! * each node carries `s_u`, an underestimate of `|A ∩ I_u|` with error
//!   at most `θm`, where `θ = ε/2h` and `h = Θ(log 1/ε)` bounds the tree
//!   height;
//! * each leaf holds at most `εm/2` items.
//!
//! Any rank query descends root-to-leaf, summing left-sibling counts: `h`
//! partial sums each off by ≤ θm plus one leaf, totalling ≤ εm. This makes
//! the structure an ε-approximate rank oracle — equivalently an equi-depth
//! histogram — from which any φ-quantile and (per the paper's reference to
//! Cormode et al. \[7\]) the 2ε-approximate heavy hitters can be read off
//! with **zero** additional communication.
//!
//! ## Maintenance
//!
//! * Sites report per-node increments every `θm/k` local arrivals in the
//!   node's interval (each arrival lies in ≤ h intervals).
//! * When a node pair violates condition (6) (`s_u/4 ≤ s_v ≤ 3s_u/4`),
//!   the coordinator rebuilds the subtree at the *highest* violated node
//!   from range-restricted per-site summaries — cost O(k·|A ∩ I_u| / εm),
//!   amortized against the Ω(|A ∩ I_u|) growth since the node was built.
//! * A leaf exceeding `(ε/2 − θ)m` is split the same way.
//! * When the tracked total doubles, the round restarts with a fresh tree.

use dtrack_hash::FxHashSet;

use dtrack_sim::{
    Answer, Coordinator, MessageSize, Outbox, Protocol, Query, QueryError, Site, SiteId, PROBE_PHIS,
};
use dtrack_sketch::{EquiDepthSummary, ExactOrdered, GreenwaldKhanna, MergedSummary, OrderStore};
use dtrack_wire::{
    put_bool, put_u32, put_u64, put_u8, put_vec_u64, DecodeError, WireMessage, WireReader,
};

use crate::common::{check_epsilon, check_phi, check_sites, CoreError, KCollector, ValueRange};

/// Parameters of the all-quantiles protocol.
#[derive(Debug, Clone, Copy)]
pub struct AllQConfig {
    /// Number of sites k (>= 2).
    pub k: u32,
    /// Approximation error ε ∈ (0, 0.5].
    pub epsilon: f64,
    /// Stream size at which tracking starts (raw forwarding before).
    /// Defaults to ⌈2hk/ε⌉ so per-node thresholds are at least one item.
    pub warmup_target: u64,
}

impl AllQConfig {
    /// Standard configuration.
    pub fn new(k: u32, epsilon: f64) -> Result<Self, CoreError> {
        check_sites(k)?;
        check_epsilon(epsilon)?;
        let h = h_bound(epsilon) as f64;
        Ok(AllQConfig {
            k,
            epsilon,
            warmup_target: (2.0 * h * k as f64 / epsilon).ceil() as u64,
        })
    }

    /// Override the warm-up length.
    pub fn with_warmup_target(mut self, warmup_target: u64) -> Self {
        self.warmup_target = warmup_target.max(4);
        self
    }

    /// The height bound h = Θ(log 1/ε) used for θ.
    pub fn height_bound(&self) -> u32 {
        h_bound(self.epsilon)
    }

    /// θ = ε / 2h.
    pub fn theta(&self) -> f64 {
        self.epsilon / (2.0 * self.height_bound() as f64)
    }

    /// Per-site, per-node reporting threshold `θm/k`.
    fn node_site_threshold(&self, m: u64) -> u64 {
        ((self.theta() * m as f64 / self.k as f64).floor() as u64).max(1)
    }

    /// Leaf-split trigger `(ε/2 − θ)m`.
    fn leaf_split_threshold(&self, m: u64) -> u64 {
        (((self.epsilon / 2.0 - self.theta()) * m as f64).floor() as u64).max(2)
    }

    /// Target leaf size at builds: `3εm/8` (the paper's initialization
    /// guarantees leaves in [εm/8, 3εm/8]).
    fn build_leaf_limit(&self, m: u64) -> u64 {
        ((3.0 * self.epsilon * m as f64 / 8.0).floor() as u64).max(1)
    }
}

/// Height bound: builds split at worst 3/8–5/8, so depth until a leaf of
/// εm/2 items is at most log_{8/5}(2/ε); within-round leaf splits can add
/// up to log2(4/ε) more levels. This bound covers both with slack.
pub fn h_bound(epsilon: f64) -> u32 {
    let build = (2.0 / epsilon).log2() / (8.0f64 / 5.0).log2();
    let splits = (4.0 / epsilon).log2();
    (build + splits).ceil() as u32 + 4
}

// ---------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------

/// A node of the quantile tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The value interval `I_u`.
    pub range: ValueRange,
    /// Splitting element (internal nodes only).
    pub split: Option<u64>,
    /// Left child index (valid when `split` is `Some`).
    pub left: u32,
    /// Right child index (valid when `split` is `Some`).
    pub right: u32,
    /// Parent index (`None` at the root).
    pub parent: Option<u32>,
}

impl TreeNode {
    fn leaf(range: ValueRange) -> Self {
        TreeNode {
            range,
            split: None,
            left: 0,
            right: 0,
            parent: None,
        }
    }
}

/// The binary tree shared (structurally) by the coordinator and all sites.
///
/// Nodes are stored in an append-only arena; subtree replacement orphans
/// the old nodes rather than reusing indices, so in-flight count reports
/// for replaced nodes land in dead slots instead of corrupting live ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
    root: u32,
}

impl Tree {
    /// Number of node slots (including orphaned ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root index.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, id: u32) -> &TreeNode {
        &self.nodes[id as usize]
    }

    /// Wire size: three words per node plus the root pointer.
    pub fn wire_words(&self) -> u64 {
        3 * self.nodes.len() as u64 + 1
    }

    /// Walk the root-to-leaf path of `x`, invoking `f` on every node index
    /// along it (root first). Returns the leaf index.
    pub fn visit_path(&self, x: u64, mut f: impl FnMut(u32)) -> u32 {
        let mut cur = self.root;
        loop {
            f(cur);
            let n = &self.nodes[cur as usize];
            match n.split {
                Some(s) => cur = if x < s { n.left } else { n.right },
                None => return cur,
            }
        }
    }

    /// Indices of nodes reachable from the root.
    pub fn live_nodes(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            let n = &self.nodes[id as usize];
            if n.split.is_some() {
                stack.push(n.left);
                stack.push(n.right);
            }
        }
        out
    }

    /// Indices of live leaves.
    pub fn leaves(&self) -> Vec<u32> {
        self.live_nodes()
            .into_iter()
            .filter(|&id| self.nodes[id as usize].split.is_none())
            .collect()
    }

    /// Height of the live tree (a single leaf has height 1).
    pub fn height(&self) -> u32 {
        fn depth(t: &Tree, id: u32) -> u32 {
            let n = &t.nodes[id as usize];
            match n.split {
                None => 1,
                Some(_) => 1 + depth(t, n.left).max(depth(t, n.right)),
            }
        }
        depth(self, self.root)
    }

    /// Build a tree over `range` from a merged range-local summary,
    /// splitting at estimated medians until nodes hold at most
    /// `leaf_limit` items (or cannot be split further).
    pub fn build(merged: &MergedSummary, range: ValueRange, leaf_limit: u64) -> Tree {
        let mut nodes = Vec::new();
        let total = merged.total();
        let root = build_rec(merged, range, 0, total, leaf_limit.max(1), &mut nodes, None);
        Tree { nodes, root }
    }

    /// Graft `sub` in place of node `at`: appends all of `sub`'s nodes,
    /// repoints `at`'s parent (or the root) to the new subtree root, and
    /// returns the appended indices in order. `at` and its old descendants
    /// become orphans.
    pub fn graft(&mut self, at: u32, sub: &Tree) -> Vec<u32> {
        let offset = self.nodes.len() as u32;
        let mut appended = Vec::with_capacity(sub.nodes.len());
        for n in &sub.nodes {
            let mut n = n.clone();
            if n.split.is_some() {
                n.left += offset;
                n.right += offset;
            }
            n.parent = n.parent.map(|p| p + offset);
            appended.push(offset + appended.len() as u32);
            self.nodes.push(n);
        }
        let new_root = offset + sub.root;
        let old_parent = self.nodes[at as usize].parent;
        self.nodes[new_root as usize].parent = old_parent;
        match old_parent {
            None => self.root = new_root,
            Some(p) => {
                let pn = &mut self.nodes[p as usize];
                if pn.left == at {
                    pn.left = new_root;
                } else {
                    debug_assert_eq!(pn.right, at, "grafted node is not its parent's child");
                    pn.right = new_root;
                }
            }
        }
        appended
    }
}

impl WireMessage for TreeNode {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.range.wire_encode(out);
        put_bool(out, self.split.is_some());
        if let Some(split) = self.split {
            put_u64(out, split);
        }
        put_u32(out, self.left);
        put_u32(out, self.right);
        put_bool(out, self.parent.is_some());
        if let Some(parent) = self.parent {
            put_u32(out, parent);
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let range = ValueRange::wire_decode(r)?;
        let split = if r.bool()? { Some(r.u64()?) } else { None };
        let left = r.u32()?;
        let right = r.u32()?;
        let parent = if r.bool()? { Some(r.u32()?) } else { None };
        Ok(TreeNode {
            range,
            split,
            left,
            right,
            parent,
        })
    }
}

impl WireMessage for Tree {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.nodes.len() as u32);
        for n in &self.nodes {
            n.wire_encode(out);
        }
        put_u32(out, self.root);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        // Minimum node footprint: 9 bytes of range + 1 split tag + 8 of
        // child indices + 1 parent tag.
        let len = r.vec_len(19)?;
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            nodes.push(TreeNode::wire_decode(r)?);
        }
        let root = r.u32()?;
        Ok(Tree { nodes, root })
    }
}

#[allow(clippy::too_many_arguments)]
fn build_rec(
    merged: &MergedSummary,
    range: ValueRange,
    rank_lo: u64,
    rank_hi: u64,
    leaf_limit: u64,
    nodes: &mut Vec<TreeNode>,
    parent: Option<u32>,
) -> u32 {
    let id = nodes.len() as u32;
    let count = rank_hi.saturating_sub(rank_lo);
    let width_one = range.hi.is_some_and(|h| h == range.lo + 1);
    let mut node = TreeNode::leaf(range);
    node.parent = parent;
    nodes.push(node);
    if count <= leaf_limit || width_one {
        return id;
    }
    let target = rank_lo + count / 2;
    let split = merged.select(target).and_then(|v| {
        // Must be strictly inside the range; for duplicate-saturated
        // ranges fall back to isolating the heavy value at lo into its
        // own unit leaf. That only helps when the estimate puts mass at
        // lo: otherwise the left child is empty and the right one keeps
        // the whole rank interval on a range one value narrower, so past
        // the last separator the build would walk the tail one value per
        // node.
        if v > range.lo && range.hi.is_none_or(|h| v < h) {
            Some(v)
        } else if v <= range.lo
            && range.hi.is_none_or(|h| range.lo + 1 < h)
            && merged.rank_estimate(range.lo + 1) > rank_lo
        {
            Some(range.lo + 1)
        } else {
            None
        }
    });
    let Some(split) = split else {
        return id; // unsplittable; stays a (possibly oversized) leaf
    };
    let rank_split = merged.rank_estimate(split).clamp(rank_lo, rank_hi);
    let left = build_rec(
        merged,
        ValueRange::new(range.lo, Some(split)),
        rank_lo,
        rank_split,
        leaf_limit,
        nodes,
        Some(id),
    );
    let right = build_rec(
        merged,
        ValueRange {
            lo: split,
            hi: range.hi,
        },
        rank_split,
        rank_hi,
        leaf_limit,
        nodes,
        Some(id),
    );
    let n = &mut nodes[id as usize];
    n.split = Some(split);
    n.left = left;
    n.right = right;
    id
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Upstream messages (site → coordinator).
#[derive(Debug, Clone, PartialEq)]
pub enum AqUp {
    /// Warm-up: forward the raw item.
    Raw { item: u64 },
    /// Node `node` gained `delta` items at this site (tagged with the
    /// round so reports against a stale tree are discarded).
    NodeDelta { round: u32, node: u32, delta: u64 },
    /// Reply to [`AqDown::SummaryPoll`].
    FullSummary(EquiDepthSummary),
    /// Reply to [`AqDown::InstallTree`]: exact count per node index.
    NodeCounts(Vec<u64>),
    /// Reply to [`AqDown::RangeSummaryPoll`].
    RangeSummary(EquiDepthSummary),
    /// Reply to [`AqDown::ReplaceSubtree`]: exact counts for the appended
    /// nodes, in append order.
    SubtreeCounts(Vec<u64>),
}

impl MessageSize for AqUp {
    fn size_words(&self) -> u64 {
        match self {
            AqUp::Raw { .. } => 2,
            AqUp::NodeDelta { .. } => 4,
            AqUp::FullSummary(s) => s.wire_words(),
            AqUp::NodeCounts(v) => v.len() as u64 + 1,
            AqUp::RangeSummary(s) => s.wire_words(),
            AqUp::SubtreeCounts(v) => v.len() as u64 + 1,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            AqUp::Raw { .. } => "aq/raw",
            AqUp::NodeDelta { .. } => "aq/node-delta",
            AqUp::FullSummary(_) => "aq/full-summary",
            AqUp::NodeCounts(_) => "aq/node-counts",
            AqUp::RangeSummary(_) => "aq/range-summary",
            AqUp::SubtreeCounts(_) => "aq/subtree-counts",
        }
    }
}

/// Downstream messages (coordinator → site).
#[derive(Debug, Clone, PartialEq)]
pub enum AqDown {
    /// Request an equi-depth summary of the whole local stream.
    SummaryPoll,
    /// Install a fresh tree for a new round.
    InstallTree {
        /// Round number after this install.
        round: u32,
        /// The tree.
        tree: Tree,
        /// Round-start cardinality, for threshold computation.
        m: u64,
    },
    /// Request an equi-depth summary of the items in `range`.
    RangeSummaryPoll {
        /// The range to summarize.
        range: ValueRange,
    },
    /// Replace the subtree at node `at` with `sub`.
    ReplaceSubtree {
        /// Node index being replaced.
        at: u32,
        /// Replacement subtree (indices local to `sub`).
        sub: Tree,
    },
}

impl MessageSize for AqDown {
    fn size_words(&self) -> u64 {
        match self {
            AqDown::SummaryPoll => 1,
            AqDown::InstallTree { tree, .. } => tree.wire_words() + 2,
            AqDown::RangeSummaryPoll { range } => 1 + range.words(),
            AqDown::ReplaceSubtree { sub, .. } => sub.wire_words() + 2,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            AqDown::SummaryPoll => "aq/summary-poll",
            AqDown::InstallTree { .. } => "aq/install-tree",
            AqDown::RangeSummaryPoll { .. } => "aq/range-summary-poll",
            AqDown::ReplaceSubtree { .. } => "aq/replace-subtree",
        }
    }
}

impl WireMessage for AqUp {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            AqUp::Raw { item } => {
                put_u8(out, 0);
                put_u64(out, *item);
            }
            AqUp::NodeDelta { round, node, delta } => {
                put_u8(out, 1);
                put_u32(out, *round);
                put_u32(out, *node);
                put_u64(out, *delta);
            }
            AqUp::FullSummary(s) => {
                put_u8(out, 2);
                s.wire_encode(out);
            }
            AqUp::NodeCounts(v) => {
                put_u8(out, 3);
                put_vec_u64(out, v);
            }
            AqUp::RangeSummary(s) => {
                put_u8(out, 4);
                s.wire_encode(out);
            }
            AqUp::SubtreeCounts(v) => {
                put_u8(out, 5);
                put_vec_u64(out, v);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(AqUp::Raw { item: r.u64()? }),
            1 => Ok(AqUp::NodeDelta {
                round: r.u32()?,
                node: r.u32()?,
                delta: r.u64()?,
            }),
            2 => Ok(AqUp::FullSummary(EquiDepthSummary::wire_decode(r)?)),
            3 => Ok(AqUp::NodeCounts(r.vec_u64()?)),
            4 => Ok(AqUp::RangeSummary(EquiDepthSummary::wire_decode(r)?)),
            5 => Ok(AqUp::SubtreeCounts(r.vec_u64()?)),
            tag => Err(DecodeError::BadTag {
                context: "AqUp",
                tag,
                offset,
            }),
        }
    }
}

impl WireMessage for AqDown {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            AqDown::SummaryPoll => put_u8(out, 0),
            AqDown::InstallTree { round, tree, m } => {
                put_u8(out, 1);
                put_u32(out, *round);
                tree.wire_encode(out);
                put_u64(out, *m);
            }
            AqDown::RangeSummaryPoll { range } => {
                put_u8(out, 2);
                range.wire_encode(out);
            }
            AqDown::ReplaceSubtree { at, sub } => {
                put_u8(out, 3);
                put_u32(out, *at);
                sub.wire_encode(out);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let (tag, offset) = r.tag()?;
        match tag {
            0 => Ok(AqDown::SummaryPoll),
            1 => Ok(AqDown::InstallTree {
                round: r.u32()?,
                tree: Tree::wire_decode(r)?,
                m: r.u64()?,
            }),
            2 => Ok(AqDown::RangeSummaryPoll {
                range: ValueRange::wire_decode(r)?,
            }),
            3 => Ok(AqDown::ReplaceSubtree {
                at: r.u32()?,
                sub: Tree::wire_decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "AqDown",
                tag,
                offset,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Site
// ---------------------------------------------------------------------

/// Per-round site state.
#[derive(Debug, Clone)]
struct AqSiteTracking {
    tree: Tree,
    round: u32,
    unrep: Vec<u64>,
    threshold: u64,
}

/// An all-quantiles site, generic over its local ordered store.
#[derive(Debug, Clone)]
pub struct AllQSite<S = ExactOrdered> {
    config: AllQConfig,
    store: S,
    tracking: Option<AqSiteTracking>,
}

/// Exact-store site.
pub type ExactAllQSite = AllQSite<ExactOrdered>;
/// Greenwald–Khanna-backed small-space site.
pub type SketchAllQSite = AllQSite<GreenwaldKhanna>;

impl AllQSite<ExactOrdered> {
    /// Site with exact local state.
    pub fn exact(config: AllQConfig) -> Self {
        AllQSite::with_store(config, ExactOrdered::new())
    }
}

impl AllQSite<GreenwaldKhanna> {
    /// Site with a Greenwald–Khanna store of error θ/4 — the
    /// O(1/θ · log(θn)) = O(1/ε · log(1/ε) · log(εn))-space variant.
    pub fn sketched(config: AllQConfig) -> Self {
        let store = GreenwaldKhanna::new((config.theta() / 4.0).max(1e-6));
        AllQSite::with_store(config, store)
    }
}

impl<S: OrderStore> AllQSite<S> {
    /// Site with a caller-provided store.
    pub fn with_store(config: AllQConfig, store: S) -> Self {
        AllQSite {
            config,
            store,
            tracking: None,
        }
    }

    /// The local store (oracle access).
    pub fn store(&self) -> &S {
        &self.store
    }

    fn range_count(&self, range: &ValueRange) -> u64 {
        let hi_rank = range
            .hi
            .map_or(self.store.total(), |h| self.store.rank_lt(h));
        hi_rank.saturating_sub(self.store.rank_lt(range.lo))
    }
}

impl<S: OrderStore> Site for AllQSite<S> {
    type Item = u64;
    type Up = AqUp;
    type Down = AqDown;

    fn on_item(&mut self, item: u64, out: &mut Vec<AqUp>) {
        self.store.insert(item);
        let t = match self.tracking.as_mut() {
            None => {
                out.push(AqUp::Raw { item });
                return;
            }
            Some(t) => t,
        };
        t.tree.visit_path(item, |id| {
            let slot = &mut t.unrep[id as usize];
            *slot += 1;
            if *slot >= t.threshold {
                out.push(AqUp::NodeDelta {
                    round: t.round,
                    node: id,
                    delta: *slot,
                });
                *slot = 0;
            }
        });
    }

    fn on_message(&mut self, msg: &AqDown, out: &mut Vec<AqUp>) {
        match msg {
            AqDown::SummaryPoll => {
                let step = ((self.config.epsilon * self.store.total() as f64 / 32.0).floor()
                    as u64)
                    .max(1);
                out.push(AqUp::FullSummary(self.store.summary(step)));
            }
            AqDown::InstallTree { round, tree, m } => {
                let counts: Vec<u64> = tree
                    .nodes
                    .iter()
                    .map(|n| self.range_count(&n.range))
                    .collect();
                self.tracking = Some(AqSiteTracking {
                    tree: tree.clone(),
                    round: *round,
                    unrep: vec![0; counts.len()],
                    threshold: self.config.node_site_threshold(*m),
                });
                out.push(AqUp::NodeCounts(counts));
            }
            AqDown::RangeSummaryPoll { range } => {
                let cnt = self.range_count(range);
                let step = (cnt / 32).max(1);
                out.push(AqUp::RangeSummary(
                    self.store.summary_range(range.lo, range.hi, step),
                ));
            }
            AqDown::ReplaceSubtree { at, sub } => {
                let ranges: Option<Vec<ValueRange>> = self.tracking.as_mut().map(|t| {
                    let appended = t.tree.graft(*at, sub);
                    t.unrep.resize(t.tree.len(), 0);
                    appended.iter().map(|&id| t.tree.node(id).range).collect()
                });
                if let Some(ranges) = ranges {
                    let counts: Vec<u64> = ranges.iter().map(|r| self.range_count(r)).collect();
                    out.push(AqUp::SubtreeCounts(counts));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Structural operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllQStats {
    /// Full rebuilds (round restarts), O(log n).
    pub rebuilds: u64,
    /// Partial subtree rebuilds from condition-(6) violations.
    pub partial_rebuilds: u64,
    /// Leaf splits.
    pub leaf_splits: u64,
}

#[derive(Debug, Clone)]
enum AqPending {
    Rebuild(KCollector<EquiDepthSummary>),
    InstallWait {
        tree: Tree,
        collector: KCollector<Vec<u64>>,
    },
    PartialSummaries {
        at: u32,
        is_leaf_split: bool,
        collector: KCollector<EquiDepthSummary>,
    },
    PartialWait {
        appended: Vec<u32>,
        collector: KCollector<Vec<u64>>,
    },
}

/// The all-quantiles coordinator: maintains the tree of Figure 1 and
/// answers rank, quantile, and heavy-hitter queries locally.
#[derive(Debug, Clone)]
pub struct AllQCoordinator {
    config: AllQConfig,
    warmup: Option<ExactOrdered>,
    pending: Option<AqPending>,
    tree: Tree,
    /// `s_u` estimates, indexed like the tree arena.
    s: Vec<u64>,
    round: u32,
    m_round: u64,
    no_split: FxHashSet<u32>,
    stats: AllQStats,
}

impl AllQCoordinator {
    /// Fresh coordinator.
    pub fn new(config: AllQConfig) -> Self {
        AllQCoordinator {
            config,
            warmup: Some(ExactOrdered::new()),
            pending: None,
            tree: Tree {
                nodes: vec![TreeNode::leaf(ValueRange::all())],
                root: 0,
            },
            s: vec![0],
            round: 0,
            m_round: 0,
            no_split: FxHashSet::default(),
            stats: AllQStats::default(),
        }
    }

    /// True while the protocol is still forwarding raw items.
    pub fn in_warmup(&self) -> bool {
        self.warmup.is_some()
    }

    /// Structural operation counters.
    pub fn stats(&self) -> AllQStats {
        self.stats
    }

    /// The live tree (introspection for the Figure 1 experiment).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The tracked count of node `id`.
    pub fn node_count(&self, id: u32) -> u64 {
        self.s[id as usize]
    }

    /// Estimated total stream size n̂ (= s at the root).
    pub fn n_estimate(&self) -> u64 {
        match &self.warmup {
            Some(store) => store.len(),
            None => self.s[self.tree.root() as usize],
        }
    }

    /// Estimate of `rank_lt(x)` with error at most ε·n.
    pub fn rank_lt(&self, x: u64) -> u64 {
        if let Some(store) = &self.warmup {
            return store.rank_lt(x);
        }
        let mut acc = 0u64;
        let mut cur = self.tree.root();
        loop {
            let n = self.tree.node(cur);
            match n.split {
                Some(split) => {
                    if x < split {
                        cur = n.left;
                    } else {
                        acc += self.s[n.left as usize];
                        cur = n.right;
                    }
                }
                None => {
                    if x > n.range.lo {
                        acc += self.s[cur as usize] / 2;
                    }
                    return acc;
                }
            }
        }
    }

    /// An ε-approximate φ-quantile.
    pub fn quantile(&self, phi: f64) -> Result<Option<u64>, CoreError> {
        check_phi(phi)?;
        if let Some(store) = &self.warmup {
            let n = store.len();
            if n == 0 {
                return Ok(None);
            }
            let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
            return Ok(store.select(target - 1));
        }
        let mut target = (phi * self.s[self.tree.root() as usize] as f64).round() as u64;
        let mut cur = self.tree.root();
        loop {
            let n = self.tree.node(cur);
            match n.split {
                Some(_) => {
                    let left = self.s[n.left as usize];
                    if target <= left {
                        cur = n.left;
                    } else {
                        target -= left;
                        cur = n.right;
                    }
                }
                None => return Ok(Some(n.range.lo)),
            }
        }
    }

    /// The 2ε-approximate φ-heavy hitters extracted from the structure
    /// (the paper's observation via \[7\]): report `x` when the tracked
    /// frequency `rank(x+1) − rank(x)` is at least `(φ − ε)·n̂`. Candidate
    /// items are the live leaf boundaries — any item heavier than εm/2
    /// ends up isolated in its own unit-width leaf by the split rule.
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<u64>, CoreError> {
        check_phi(phi)?;
        let n_hat = self.n_estimate();
        if n_hat == 0 {
            return Ok(Vec::new());
        }
        let thresh = (phi - self.config.epsilon) * n_hat as f64;
        let mut candidates: Vec<u64> = Vec::new();
        if let Some(store) = &self.warmup {
            candidates.extend(store.iter().map(|(v, _)| v));
        } else {
            for leaf in self.tree.leaves() {
                candidates.push(self.tree.node(leaf).range.lo);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut out = Vec::new();
        for x in candidates {
            let hi = if x == u64::MAX {
                n_hat
            } else {
                self.rank_lt(x + 1)
            };
            let f = hi.saturating_sub(self.rank_lt(x));
            if f as f64 >= thresh {
                out.push(x);
            }
        }
        Ok(out)
    }

    /// Upper bound θm on any single node-count error (experiment E12).
    pub fn node_error_bound(&self) -> u64 {
        (self.config.theta() * self.m_round as f64).ceil() as u64 + self.config.k as u64
    }

    /// Leaf-size ceiling εm/2 for the current round (experiment E12).
    pub fn leaf_bound(&self) -> u64 {
        (self.config.epsilon * self.m_round as f64 / 2.0).ceil() as u64
    }

    fn violates(&self, parent: u32, child: u32) -> bool {
        let pn = self.tree.node(parent);
        // A unit-width child is duplicate-saturated: no choice of splitting
        // element can move its mass, so condition (6) is unenforceable for
        // this pair (the paper assumes distinct items). Its count is still
        // tracked exactly for rank queries, and it is already a leaf, so
        // exempting it does not affect the height bound.
        let unit = |id: u32| {
            let r = self.tree.node(id).range;
            r.hi.is_some_and(|h| h == r.lo + 1)
        };
        if unit(pn.left) || unit(pn.right) {
            return false;
        }
        let su = self.s[parent as usize];
        let sv = self.s[child as usize];
        if su < 8 {
            return false;
        }
        4 * sv < su || 4 * sv > 3 * su
    }

    /// Highest node whose child pair violates condition (6) along the
    /// ancestor path of `w` (including `w` itself as a parent).
    fn find_violation(&self, w: u32) -> Option<u32> {
        let mut hit = None;
        let n = self.tree.node(w);
        if n.split.is_some() && (self.violates(w, n.left) || self.violates(w, n.right)) {
            hit = Some(w);
        }
        let mut cur = w;
        while let Some(p) = self.tree.node(cur).parent {
            let pn = self.tree.node(p);
            if self.violates(p, pn.left) || self.violates(p, pn.right) {
                hit = Some(p);
            }
            cur = p;
        }
        hit
    }

    /// Evaluate triggers after a delta landed on node `w`.
    fn maybe_trigger(&mut self, w: u32, out: &mut Outbox<AqDown>) {
        debug_assert!(self.pending.is_none());
        if self.warmup.is_some() {
            return;
        }
        // 1. Round restart when the tracked total doubles.
        if self.s[self.tree.root() as usize] >= 2 * self.m_round {
            self.pending = Some(AqPending::Rebuild(KCollector::new(self.config.k)));
            out.broadcast(AqDown::SummaryPoll);
            return;
        }
        // 2. Balance violation: partial rebuild at the highest violated
        //    node.
        if let Some(at) = self.find_violation(w) {
            if !self.no_split.contains(&at) {
                self.start_partial(at, false, out);
                return;
            }
        }
        // 3. Leaf split.
        let node = self.tree.node(w);
        if node.split.is_none()
            && self.s[w as usize] >= self.config.leaf_split_threshold(self.m_round)
            && !self.no_split.contains(&w)
        {
            self.start_partial(w, true, out);
        }
    }

    fn start_partial(&mut self, at: u32, is_leaf_split: bool, out: &mut Outbox<AqDown>) {
        let range = self.tree.node(at).range;
        self.pending = Some(AqPending::PartialSummaries {
            at,
            is_leaf_split,
            collector: KCollector::new(self.config.k),
        });
        out.broadcast(AqDown::RangeSummaryPoll { range });
    }

    fn begin_install(&mut self, merged: &MergedSummary, m: u64, out: &mut Outbox<AqDown>) {
        let m = m.max(1);
        let tree = Tree::build(merged, ValueRange::all(), self.config.build_leaf_limit(m));
        self.round += 1;
        self.m_round = m;
        self.no_split.clear();
        out.broadcast(AqDown::InstallTree {
            round: self.round,
            tree: tree.clone(),
            m,
        });
        self.pending = Some(AqPending::InstallWait {
            tree,
            collector: KCollector::new(self.config.k),
        });
    }
}

impl Coordinator for AllQCoordinator {
    type Up = AqUp;
    type Down = AqDown;

    fn on_message(&mut self, from: SiteId, msg: AqUp, out: &mut Outbox<AqDown>) {
        match msg {
            AqUp::Raw { item } => {
                if let Some(store) = self.warmup.as_mut() {
                    store.insert(item);
                    if store.len() >= self.config.warmup_target && self.pending.is_none() {
                        let n = store.len();
                        let step =
                            ((self.config.epsilon * n as f64 / 32.0).floor() as u64).clamp(1, 64);
                        let summary = EquiDepthSummary::from_sorted_counts(store.iter(), n, step);
                        let merged = MergedSummary::new(vec![summary]);
                        self.begin_install(&merged, n, out);
                    }
                }
            }
            AqUp::NodeDelta { round, node, delta } => {
                if round == self.round && (node as usize) < self.s.len() {
                    self.s[node as usize] += delta;
                    if self.pending.is_none() {
                        self.maybe_trigger(node, out);
                    }
                }
            }
            AqUp::FullSummary(s) => {
                if let Some(AqPending::Rebuild(c)) = self.pending.as_mut() {
                    if c.put(from.index(), s) {
                        let Some(AqPending::Rebuild(c)) = self.pending.take() else {
                            unreachable!("pending variant checked above");
                        };
                        let merged = MergedSummary::new(c.take());
                        let m = merged.total();
                        self.begin_install(&merged, m, out);
                    }
                }
            }
            AqUp::NodeCounts(v) => {
                if let Some(AqPending::InstallWait { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), v) {
                        let Some(AqPending::InstallWait { tree, collector }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let per_site = collector.take();
                        let mut s = vec![0u64; tree.len()];
                        for site_counts in &per_site {
                            for (i, c) in site_counts.iter().enumerate().take(s.len()) {
                                s[i] += c;
                            }
                        }
                        self.tree = tree;
                        self.s = s;
                        self.m_round = self.s[self.tree.root() as usize].max(1);
                        self.warmup = None;
                        self.pending = None;
                        self.stats.rebuilds += 1;
                    }
                }
            }
            AqUp::RangeSummary(s) => {
                if let Some(AqPending::PartialSummaries { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), s) {
                        let Some(AqPending::PartialSummaries {
                            at,
                            is_leaf_split,
                            collector,
                        }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let merged = MergedSummary::new(collector.take());
                        let range = self.tree.node(at).range;
                        let sub =
                            Tree::build(&merged, range, self.config.build_leaf_limit(self.m_round));
                        if sub.len() == 1 {
                            // Could not subdivide (duplicate saturation):
                            // remember and carry on with the old node.
                            self.no_split.insert(at);
                            self.pending = None;
                            return;
                        }
                        let appended = self.tree.graft(at, &sub);
                        self.s.resize(self.tree.len(), 0);
                        if is_leaf_split {
                            self.stats.leaf_splits += 1;
                        } else {
                            self.stats.partial_rebuilds += 1;
                        }
                        out.broadcast(AqDown::ReplaceSubtree { at, sub });
                        self.pending = Some(AqPending::PartialWait {
                            appended,
                            collector: KCollector::new(self.config.k),
                        });
                    }
                }
            }
            AqUp::SubtreeCounts(v) => {
                if let Some(AqPending::PartialWait { collector, .. }) = self.pending.as_mut() {
                    if collector.put(from.index(), v) {
                        let Some(AqPending::PartialWait {
                            appended,
                            collector,
                        }) = self.pending.take()
                        else {
                            unreachable!("pending variant checked above");
                        };
                        let per_site = collector.take();
                        for (i, &id) in appended.iter().enumerate() {
                            let total: u64 = per_site
                                .iter()
                                .map(|v| v.get(i).copied().unwrap_or(0))
                                .sum();
                            self.s[id as usize] = total;
                        }
                        self.pending = None;
                        if let Some(&new_root) = appended.first() {
                            // If the freshly rebuilt subtree still violates
                            // (6) at its own root, no rebuild can fix it
                            // (duplicate saturation) — suppress further
                            // attempts until the round restarts.
                            let n = self.tree.node(new_root);
                            if n.split.is_some()
                                && (self.violates(new_root, n.left)
                                    || self.violates(new_root, n.right))
                            {
                                self.no_split.insert(new_root);
                            }
                            // Ancestors may legitimately need maintenance
                            // now that this subtree's count is exact.
                            self.maybe_trigger(new_root, out);
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: build a full exact-store cluster.
pub fn exact_cluster(
    config: AllQConfig,
) -> Result<dtrack_sim::Cluster<ExactAllQSite, AllQCoordinator>, CoreError> {
    let sites = (0..config.k).map(|_| AllQSite::exact(config)).collect();
    dtrack_sim::Cluster::new(sites, AllQCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// Convenience: build a full sketch-store cluster.
pub fn sketched_cluster(
    config: AllQConfig,
) -> Result<dtrack_sim::Cluster<SketchAllQSite, AllQCoordinator>, CoreError> {
    let sites = (0..config.k).map(|_| AllQSite::sketched(config)).collect();
    dtrack_sim::Cluster::new(sites, AllQCoordinator::new(config))
        .map_err(|_| CoreError::BadSiteCount(config.k))
}

/// [`Protocol`] adapter: the §4 all-quantiles tree with exact sites, for
/// the [`dtrack_sim::Tracker`] facade. Answers arbitrary quantile, rank,
/// and (2ε-error) heavy-hitter queries from one structure.
#[derive(Debug, Clone, Copy)]
pub struct AllQExactProtocol {
    config: AllQConfig,
}

impl AllQExactProtocol {
    /// Wrap a validated [`AllQConfig`].
    pub fn new(config: AllQConfig) -> Self {
        AllQExactProtocol { config }
    }
}

impl Protocol for AllQExactProtocol {
    type Site = ExactAllQSite;
    type Up = AqUp;
    type Down = AqDown;
    type Coordinator = AllQCoordinator;

    fn label(&self) -> &'static str {
        "allq-exact"
    }

    fn sites_hint(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn build(&self, k: u32) -> Result<(Vec<ExactAllQSite>, AllQCoordinator), String> {
        let sites = (0..k).map(|_| AllQSite::exact(self.config)).collect();
        Ok((sites, AllQCoordinator::new(self.config)))
    }

    fn query(&self, c: &AllQCoordinator, query: Query) -> Result<Answer, QueryError> {
        match query {
            Query::Count => Ok(Answer::LengthEstimate(c.n_estimate())),
            Query::Quantile { phi } => {
                let value = c
                    .quantile(phi)
                    .map_err(|e| QueryError::Protocol(e.to_string()))?;
                Ok(Answer::QuantileAt { phi, value })
            }
            Query::RankLt { x } => Ok(Answer::RankLt {
                x,
                rank: c.rank_lt(x),
            }),
            Query::HeavyHitters { phi } => {
                let mut items = c
                    .heavy_hitters(phi)
                    .map_err(|e| QueryError::Protocol(e.to_string()))?;
                items.sort_unstable();
                Ok(Answer::HeavyHitters { phi, items })
            }
            other => Err(self.unsupported(other)),
        }
    }

    fn answers(&self, c: &AllQCoordinator) -> Result<Vec<Answer>, QueryError> {
        let mut out = vec![Answer::LengthEstimate(c.n_estimate())];
        for phi in PROBE_PHIS {
            let value = c
                .quantile(phi)
                .map_err(|e| QueryError::Protocol(e.to_string()))?;
            out.push(Answer::QuantileAt { phi, value });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn uniform_stream(n: u64, seed: u64, universe: u64) -> Vec<u64> {
        let mut st = seed;
        (0..n).map(|_| xorshift(&mut st) % universe).collect()
    }

    #[test]
    fn h_bound_is_reasonable() {
        assert!(h_bound(0.1) >= 8);
        assert!(h_bound(0.01) > h_bound(0.1));
        assert!(h_bound(0.001) < 64);
    }

    #[test]
    fn tree_build_and_path() {
        // A summary over 0..1000 with uniform mass.
        let vals: Vec<u64> = (0..1000).collect();
        let s = EquiDepthSummary::from_sorted(&vals, 10);
        let merged = MergedSummary::new(vec![s]);
        let tree = Tree::build(&merged, ValueRange::all(), 100);
        assert!(tree.leaves().len() >= 8, "expected ~10 leaves");
        assert!(tree.height() <= 12);
        // Every value lands in exactly one leaf whose range contains it.
        for x in [0u64, 123, 999, 5_000_000] {
            let leaf = tree.visit_path(x, |_| {});
            assert!(tree.node(leaf).range.contains(x));
        }
        // Live leaves partition the universe.
        let mut leaves: Vec<ValueRange> = tree
            .leaves()
            .iter()
            .map(|&id| tree.node(id).range)
            .collect();
        leaves.sort_by_key(|r| r.lo);
        assert_eq!(leaves.first().unwrap().lo, 0);
        assert_eq!(leaves.last().unwrap().hi, None);
        for w in leaves.windows(2) {
            assert_eq!(w[0].hi, Some(w[1].lo), "leaf ranges must tile");
        }
    }

    #[test]
    fn tree_graft_replaces_subtree() {
        let vals: Vec<u64> = (0..1000).collect();
        let merged = MergedSummary::new(vec![EquiDepthSummary::from_sorted(&vals, 10)]);
        let mut tree = Tree::build(&merged, ValueRange::all(), 200);
        let leaf = tree.leaves()[0];
        let range = tree.node(leaf).range;
        // Build a small subtree for that leaf's range.
        let in_range: Vec<u64> = vals
            .iter()
            .copied()
            .filter(|v| range.contains(*v))
            .collect();
        let sub_summary = EquiDepthSummary::from_sorted(&in_range, 5);
        let sub = Tree::build(&MergedSummary::new(vec![sub_summary]), range, 50);
        let before = tree.len();
        let appended = tree.graft(leaf, &sub);
        assert_eq!(appended.len(), sub.len());
        assert_eq!(tree.len(), before + sub.len());
        // The old leaf is orphaned.
        assert!(!tree.live_nodes().contains(&leaf));
        // Ranges still tile.
        let mut leaves: Vec<ValueRange> = tree
            .leaves()
            .iter()
            .map(|&id| tree.node(id).range)
            .collect();
        leaves.sort_by_key(|r| r.lo);
        for w in leaves.windows(2) {
            assert_eq!(w[0].hi, Some(w[1].lo));
        }
    }

    #[test]
    fn tree_build_stops_past_the_last_separator() {
        // 1,024 values summarized at step 25: 40 separators, and an
        // estimated 12 items past the last one, above the leaf limit of
        // 10. No split can divide that tail, so it stays one oversized
        // leaf, and the tree has two internal nodes per separator: 161
        // nodes. Splitting the tail at lo + 1 over and over, one value
        // per node, made 399 on this bounded range and overflows the
        // stack on `ValueRange::all()`.
        let mut st = 5u64;
        let mut vals: Vec<u64> = (0..1024).map(|_| xorshift(&mut st) % 4096).collect();
        vals.sort_unstable();
        let s = EquiDepthSummary::from_sorted(&vals, 25);
        let seps = s.separators().len();
        let merged = MergedSummary::new(vec![s]);
        let tree = Tree::build(&merged, ValueRange::new(0, Some(4096)), 10);
        assert!(
            tree.len() <= 4 * seps + 1,
            "{} nodes for {seps} separators",
            tree.len()
        );
    }

    fn check_all_quantiles(
        coord: &AllQCoordinator,
        oracle: &ExactOracle,
        eps_slack: f64,
        ctx: &str,
    ) {
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = coord.quantile(phi).unwrap().expect("nonempty");
            assert!(
                oracle.quantile_ok(q, phi, eps_slack),
                "{ctx}: {q} not an ε-approx {phi}-quantile (rank {} of {})",
                oracle.rank_lt(q),
                oracle.total()
            );
        }
    }

    #[test]
    fn all_quantiles_track_uniform_stream() {
        let k = 4;
        let epsilon = 0.1;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in uniform_stream(40_000, 31, 1 << 40).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            if i % 50 == 0 {
                check_all_quantiles(
                    cluster.coordinator(),
                    &oracle,
                    epsilon,
                    &format!("item {i}"),
                );
            }
        }
        assert!(cluster.coordinator().stats().rebuilds >= 1);
    }

    #[test]
    fn rank_queries_within_epsilon() {
        let k = 3;
        let epsilon = 0.1;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        let universe = 1u64 << 30;
        for (i, x) in uniform_stream(30_000, 77, universe).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
        }
        let n = oracle.total();
        for probe in (0..universe).step_by((universe / 23) as usize) {
            let truth = oracle.rank_lt(probe);
            let est = cluster.coordinator().rank_lt(probe);
            assert!(
                est.abs_diff(truth) as f64 <= epsilon * n as f64,
                "rank({probe}): est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn skewed_stream_forces_partial_rebuilds() {
        // Mass concentrates in a drifting narrow band, imbalancing the
        // tree and forcing condition-(6) rebuilds.
        let k = 4;
        let epsilon = 0.1;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        let mut st = 9u64;
        let n = 60_000u64;
        for i in 0..n {
            let band = (i / 4000) * (1 << 34);
            let x = band + xorshift(&mut st) % (1 << 30);
            oracle.observe(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
            if i % 500 == 0 && i > 0 {
                check_all_quantiles(
                    cluster.coordinator(),
                    &oracle,
                    epsilon,
                    &format!("item {i}"),
                );
            }
        }
        let stats = cluster.coordinator().stats();
        assert!(
            stats.partial_rebuilds + stats.leaf_splits > 0,
            "drifting band must force structural maintenance: {stats:?}"
        );
    }

    #[test]
    fn heavy_hitters_extracted_from_structure() {
        let k = 4;
        let epsilon = 0.05;
        let phi = 0.3;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        let mut st = 3u64;
        for i in 0..50_000u64 {
            // Item 42 gets ~40% of the stream.
            let x = if i % 5 < 2 {
                42
            } else {
                xorshift(&mut st) % (1 << 30)
            };
            oracle.observe(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
        }
        let reported = cluster.coordinator().heavy_hitters(phi).unwrap();
        assert!(reported.contains(&42), "missed the 40% item");
        // No false positives below (φ − 2ε)n — the paper's 2ε guarantee.
        let n = oracle.total() as f64;
        for &x in &reported {
            assert!(
                oracle.frequency(x) as f64 >= (phi - 2.0 * epsilon) * n,
                "false positive {x} at freq {}",
                oracle.frequency(x)
            );
        }
    }

    #[test]
    fn figure1_invariants_hold() {
        // The Figure 1 invariants: bounded height, bounded leaf size,
        // bounded per-node count error.
        let k = 4;
        let epsilon = 0.1;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in uniform_stream(50_000, 55, 1 << 40).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
            if i % 5000 != 4999 {
                continue;
            }
            let coord = cluster.coordinator();
            if coord.in_warmup() {
                continue;
            }
            let tree = coord.tree();
            assert!(
                tree.height() <= config.height_bound(),
                "height {} exceeds bound {}",
                tree.height(),
                config.height_bound()
            );
            let err_bound = coord.node_error_bound();
            let range_truth = |r: &ValueRange| -> u64 {
                let hi_rank = r.hi.map_or(oracle.total(), |h| oracle.rank_lt(h));
                hi_rank - oracle.rank_lt(r.lo)
            };
            for id in tree.live_nodes() {
                let truth = range_truth(&tree.node(id).range);
                let est = coord.node_count(id);
                assert!(est <= truth, "node {id} overestimates: {est} > {truth}");
                assert!(
                    truth - est <= err_bound,
                    "node {id} error {} exceeds θm bound {err_bound}",
                    truth - est
                );
            }
            for leaf in tree.leaves() {
                let r = tree.node(leaf).range;
                if r.hi.is_some_and(|h| h == r.lo + 1) {
                    continue; // unit-width leaves may legitimately saturate
                }
                let truth = range_truth(&r);
                assert!(
                    truth <= coord.leaf_bound() + err_bound,
                    "leaf {leaf} holds {truth} > εm/2 = {}",
                    coord.leaf_bound()
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_stream_stays_valid() {
        let k = 3;
        let epsilon = 0.1;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = exact_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        let mut st = 23u64;
        for i in 0..40_000u64 {
            let x = if i % 2 == 0 {
                999
            } else {
                xorshift(&mut st) % (1 << 20)
            };
            oracle.observe(x);
            cluster.feed(SiteId((i % k as u64) as u32), x).unwrap();
            if i % 400 == 0 && i > 0 {
                check_all_quantiles(
                    cluster.coordinator(),
                    &oracle,
                    epsilon,
                    &format!("item {i}"),
                );
            }
        }
    }

    #[test]
    fn cost_grows_logarithmically_in_n() {
        let config = AllQConfig::new(4, 0.1).unwrap();
        let run = |n: u64| {
            let mut cluster = exact_cluster(config).unwrap();
            for (i, x) in uniform_stream(n, 3, 1 << 40).into_iter().enumerate() {
                cluster.feed(SiteId((i % 4) as u32), x).unwrap();
            }
            cluster.meter().total_words()
        };
        let w1 = run(30_000);
        let w2 = run(300_000);
        assert!(w2 < w1 * 5, "cost not logarithmic: {w1} -> {w2}");
        assert!(w2 > w1);
    }

    #[test]
    fn sketched_sites_track_within_doubled_epsilon() {
        let k = 3;
        let epsilon = 0.15;
        let config = AllQConfig::new(k, epsilon).unwrap();
        let mut cluster = sketched_cluster(config).unwrap();
        let mut oracle = ExactOracle::new();
        for (i, x) in uniform_stream(25_000, 41, 1 << 35).into_iter().enumerate() {
            oracle.observe(x);
            cluster.feed(SiteId((i % k as usize) as u32), x).unwrap();
        }
        check_all_quantiles(cluster.coordinator(), &oracle, 2.0 * epsilon, "final");
    }

    #[test]
    fn config_validation() {
        assert!(AllQConfig::new(1, 0.1).is_err());
        assert!(AllQConfig::new(4, 0.9).is_err());
        let c = AllQConfig::new(4, 0.1).unwrap();
        assert!(c.theta() > 0.0 && c.theta() < c.epsilon);
    }
}
