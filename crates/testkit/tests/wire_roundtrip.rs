//! Wire-codec properties over the real protocol message vocabulary.
//!
//! No runtime routes messages through the codec (DESIGN.md, "The wire
//! codec"): this suite is its only caller. It pins three contracts over
//! *arbitrary* values of every message kind the workspace meters:
//!
//! 1. **Roundtrip identity**: `decode(encode(x)) == x`. A transport that
//!    forwards the decoded value therefore delivers the very message the
//!    protocol sent, so it cannot move a transcript.
//! 2. **Totality**: truncated, corrupted, or outright garbage bytes decode
//!    to a typed [`DecodeError`] or to a value they are the exact
//!    encoding of — never a panic, never an overallocation.
//! 3. **Honest word counts**: a message encodes in at most
//!    [`BYTES_PER_WORD`] bytes per metered word (`MessageSize::size_words`).
//!    Every cost the experiments report is a sum of those hand-written
//!    counts, so a kind whose count leaves out a vector or a summary fails
//!    here once that part dominates the message.
//!
//! Each property draws one value of *every* variant per case ([`every!`])
//! and asserts that the kinds it checked are exactly its family's, so all
//! 46 metered kinds reach [`check`] in every run, whatever the runner's
//! seeds. Like `properties.rs`, this runs under the offline proptest
//! runner's fixed RNG: fresh values every run, deterministically.

use std::collections::BTreeSet;
use std::fmt::Debug;

use dtrack_baseline::cgmr::{CgmrDown, CgmrUp};
use dtrack_baseline::naive::{FwdDown, FwdItem, PollRequest, PollUp};
use dtrack_core::allq::{AqDown, AqUp, Tree};
use dtrack_core::counter::{CountDelta, NoDown};
use dtrack_core::hh::{HhDown, HhUp};
use dtrack_core::quantile::{QDown, QUp};
use dtrack_core::sampling::{Sampled, SetLevel};
use dtrack_core::window::{NewEpoch, WUp, WqUp};
use dtrack_core::ValueRange;
use dtrack_sim::MessageSize;
use dtrack_sketch::{EquiDepthSummary, MergedSummary};
use dtrack_wire::{decode, encode, DecodeError, WireMessage};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// The most bytes a message may encode to per metered word. A word
/// stands for one 8-byte field; on top of that the codec spends one tag
/// byte per enum, `Option` or bool, and a 4-byte prefix per vector. The
/// densest layout is an all-quantile tree node: 39 bytes (a bounded range
/// 17, a split 9, two child indices 8, a parent 5) for its 3 words.
const BYTES_PER_WORD: u64 = 13;

// ---------------------------------------------------------------------
// The metered kinds, by property
// ---------------------------------------------------------------------

const HH: [&str; 7] = [
    "hh/raw",
    "hh/all",
    "hh/item",
    "hh/count-reply",
    "hh/start",
    "hh/sync-poll",
    "hh/new-count",
];

const COUNTER_AND_SAMPLING: [&str; 3] = ["count/delta", "samp/item", "samp/set-level"];

const QUANTILE: [&str; 16] = [
    "q/raw",
    "q/interval-delta",
    "q/side-delta",
    "q/full-summary",
    "q/interval-counts",
    "q/side-counts",
    "q/range-count",
    "q/range-summary",
    "q/split-counts",
    "q/summary-poll",
    "q/install",
    "q/side-poll",
    "q/range-poll",
    "q/set-pivot",
    "q/range-summary-poll",
    "q/split-install",
];

const ALLQ: [&str; 10] = [
    "aq/raw",
    "aq/node-delta",
    "aq/full-summary",
    "aq/node-counts",
    "aq/range-summary",
    "aq/subtree-counts",
    "aq/summary-poll",
    "aq/install-tree",
    "aq/range-summary-poll",
    "aq/replace-subtree",
];

const WINDOW: [&str; 5] = [
    "whh/count",
    "whh/item",
    "wq/count",
    "wq/epoch-summary",
    "whh/new-epoch",
];

const BASELINE: [&str; 5] = [
    "cgmr/summary",
    "fwd/item",
    "poll/count-delta",
    "poll/summary",
    "poll/request",
];

// ---------------------------------------------------------------------
// Value strategies
// ---------------------------------------------------------------------

/// One value from *each* arm per draw: the every-variant counterpart of
/// `prop_oneof!`, so no variant depends on the seeds to be drawn.
struct Every<V>(Vec<Box<dyn Strategy<Value = V>>>);

impl<V> Strategy for Every<V> {
    type Value = Vec<V>;
    fn generate(&self, rng: &mut TestRng) -> Vec<V> {
        self.0.iter().map(|arm| arm.generate(rng)).collect()
    }
}

macro_rules! every {
    ($($arm:expr),+ $(,)?) => {
        Every(vec![$(Box::new($arm) as Box<dyn Strategy<Value = _>>),+])
    };
}

fn summary() -> impl Strategy<Value = EquiDepthSummary> {
    (vec(any::<u64>(), 0..32), 1u64..8, 0u64..6).prop_map(|(mut vals, step, sep_error)| {
        vals.sort_unstable();
        EquiDepthSummary::from_sorted(&vals, step).with_sep_error(sep_error)
    })
}

fn range() -> impl Strategy<Value = ValueRange> {
    (any::<u64>(), proptest::option::of(any::<u64>())).prop_map(|(lo, hi)| ValueRange { lo, hi })
}

fn tree() -> impl Strategy<Value = Tree> {
    // Arbitrary *valid* trees: build from a fuzzed summary the same way
    // the all-quantile coordinator does. Leaf limits below the summary
    // total force real splits, so internal nodes (split/left/right and
    // parent links) go over the wire, not just single-leaf arenas.
    (summary(), 1u64..12).prop_map(|(s, leaf_limit)| {
        Tree::build(&MergedSummary::new(vec![s]), ValueRange::all(), leaf_limit)
    })
}

fn hh_ups() -> Every<HhUp> {
    every![
        any::<u64>().prop_map(|item| HhUp::Raw { item }),
        any::<u64>().prop_map(|delta| HhUp::AllSignal { delta }),
        (any::<u64>(), any::<u64>()).prop_map(|(item, delta)| HhUp::ItemSignal { item, delta }),
        any::<u64>().prop_map(|local| HhUp::CountReply { local }),
    ]
}

fn hh_downs() -> Every<HhDown> {
    every![
        any::<u64>().prop_map(|m| HhDown::Start { m }),
        Just(HhDown::SyncPoll),
        any::<u64>().prop_map(|m| HhDown::NewCount { m }),
    ]
}

fn q_ups() -> Every<QUp> {
    every![
        any::<u64>().prop_map(|item| QUp::Raw { item }),
        (any::<u32>(), any::<u64>()).prop_map(|(id, delta)| QUp::IntervalDelta { id, delta }),
        (any::<u32>(), any::<bool>(), any::<u64>())
            .prop_map(|(epoch, left, delta)| QUp::SideDelta { epoch, left, delta }),
        summary().prop_map(QUp::FullSummary),
        vec(any::<u64>(), 0..24).prop_map(QUp::IntervalCounts),
        (any::<u64>(), any::<u64>()).prop_map(|(left, right)| QUp::SideCounts { left, right }),
        any::<u64>().prop_map(|count| QUp::RangeCount { count }),
        summary().prop_map(QUp::RangeSummary),
        (any::<u64>(), any::<u64>()).prop_map(|(left, right)| QUp::SplitCounts { left, right }),
    ]
}

fn q_downs() -> Every<QDown> {
    every![
        Just(QDown::SummaryPoll),
        (
            any::<u32>(),
            vec(any::<u64>(), 0..24),
            vec(any::<u32>(), 0..25),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(epoch, seps, ids, pivot, m)| QDown::Install {
                epoch,
                seps,
                ids,
                pivot,
                m
            }),
        Just(QDown::SidePoll),
        range().prop_map(|range| QDown::RangePoll { range }),
        (any::<u32>(), any::<u64>()).prop_map(|(epoch, pivot)| QDown::SetPivot { epoch, pivot }),
        range().prop_map(|range| QDown::RangeSummaryPoll { range }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(sep, left_id, right_id)| {
            QDown::SplitInstall {
                sep,
                left_id,
                right_id,
            }
        }),
    ]
}

fn aq_ups() -> Every<AqUp> {
    every![
        any::<u64>().prop_map(|item| AqUp::Raw { item }),
        (any::<u32>(), any::<u32>(), any::<u64>())
            .prop_map(|(round, node, delta)| AqUp::NodeDelta { round, node, delta }),
        summary().prop_map(AqUp::FullSummary),
        vec(any::<u64>(), 0..24).prop_map(AqUp::NodeCounts),
        summary().prop_map(AqUp::RangeSummary),
        vec(any::<u64>(), 0..24).prop_map(AqUp::SubtreeCounts),
    ]
}

fn aq_downs() -> Every<AqDown> {
    every![
        Just(AqDown::SummaryPoll),
        (any::<u32>(), tree(), any::<u64>()).prop_map(|(round, tree, m)| AqDown::InstallTree {
            round,
            tree,
            m
        }),
        range().prop_map(|range| AqDown::RangeSummaryPoll { range }),
        (any::<u32>(), tree()).prop_map(|(at, sub)| AqDown::ReplaceSubtree { at, sub }),
    ]
}

fn w_ups() -> Every<WUp> {
    every![
        any::<u64>().prop_map(|delta| WUp::CountDelta { delta }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(epoch, item, delta)| WUp::ItemDelta { epoch, item, delta }),
    ]
}

fn wq_ups() -> Every<WqUp> {
    every![
        any::<u64>().prop_map(|delta| WqUp::CountDelta { delta }),
        (any::<u64>(), summary())
            .prop_map(|(epoch, summary)| WqUp::EpochSummary { epoch, summary }),
    ]
}

fn poll_ups() -> Every<PollUp> {
    every![
        any::<u64>().prop_map(PollUp::CountDelta),
        summary().prop_map(PollUp::Summary),
    ]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Roundtrip one value, bound its encoding by its metered words, and
/// sweep every truncation: identity on the whole bytes, a typed error on
/// any prefix. Returns the value's kind label.
fn check<M>(msg: M) -> &'static str
where
    M: WireMessage + MessageSize + PartialEq + Debug,
{
    let kind = msg.kind();
    let bytes = encode(&msg);
    let words = msg.size_words();
    assert!(
        bytes.len() as u64 <= BYTES_PER_WORD * words,
        "{kind}: {} bytes for {words} metered word(s): {msg:?}",
        bytes.len()
    );
    for cut in 0..bytes.len() {
        assert!(
            decode::<M>(&bytes[..cut]).is_err(),
            "{kind}: truncation at {cut} decoded"
        );
    }
    assert_eq!(decode::<M>(&bytes), Ok(msg), "{kind}: roundtrip changed it");
    kind
}

/// Check each message in order, returning their kind labels.
fn check_all<M>(msgs: Vec<M>) -> Vec<&'static str>
where
    M: WireMessage + MessageSize + PartialEq + Debug,
{
    msgs.into_iter().map(check).collect()
}

/// Decode arbitrary bytes as `M`: an error is typed by construction, and
/// a value must re-encode to exactly the bytes it came from.
fn decodes_canonically<M>(bytes: &[u8]) -> Result<(), TestCaseError>
where
    M: WireMessage + Debug,
{
    if let Ok(msg) = decode::<M>(bytes) {
        prop_assert_eq!(encode(&msg), bytes, "{:?} has another encoding", msg);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn hh_messages_roundtrip(ups in hh_ups(), downs in hh_downs()) {
        let kinds = [check_all(ups), check_all(downs)].concat();
        prop_assert_eq!(kinds, HH);
    }

    #[test]
    fn counter_and_sampling_messages_roundtrip(
        delta in any::<u64>(),
        item in any::<u64>(),
        level in any::<u32>(),
    ) {
        let kinds = [
            check(CountDelta(delta)),
            check(Sampled { item, level }),
            check(SetLevel(level)),
        ];
        prop_assert_eq!(kinds, COUNTER_AND_SAMPLING);
    }

    #[test]
    fn quantile_messages_roundtrip(ups in q_ups(), downs in q_downs()) {
        let kinds = [check_all(ups), check_all(downs)].concat();
        prop_assert_eq!(kinds, QUANTILE);
    }

    #[test]
    fn allq_messages_roundtrip(ups in aq_ups(), downs in aq_downs()) {
        let kinds = [check_all(ups), check_all(downs)].concat();
        prop_assert_eq!(kinds, ALLQ);
    }

    #[test]
    fn window_messages_roundtrip(ups in w_ups(), wqs in wq_ups(), epoch in any::<u64>()) {
        let kinds = [check_all(ups), check_all(wqs), vec![check(NewEpoch(epoch))]].concat();
        prop_assert_eq!(kinds, WINDOW);
    }

    #[test]
    fn baseline_messages_roundtrip(s in summary(), item in any::<u64>(), polls in poll_ups()) {
        let kinds = [
            vec![check(CgmrUp(s)), check(FwdItem(item))],
            check_all(polls),
            vec![check(PollRequest)],
        ]
        .concat();
        prop_assert_eq!(kinds, BASELINE);
    }

    /// Single-byte corruption anywhere in a valid encoding either decodes
    /// to the value those bytes encode (payload bytes are honest data) or
    /// fails with a typed error — it never panics and never hangs on an
    /// absurd allocation.
    #[test]
    fn corrupted_frames_never_panic(downs in q_downs(), pos_seed in any::<usize>(), xor in 1u16..256) {
        for down in downs {
            let mut bytes = encode(&down);
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= xor as u8;
            decodes_canonically::<QDown>(&bytes)?;
        }
    }

    /// Arbitrary garbage decodes to a typed error, or to the value it is
    /// the exact encoding of, as every message type. Pinning the first
    /// byte to a valid enum tag most of the time gets decoding past the
    /// tag into each variant's fields.
    #[test]
    fn garbage_is_a_typed_error(bytes in vec(any::<u8>(), 0..96), tag in proptest::option::of(0u8..9)) {
        let mut bytes = bytes;
        if let (Some(tag), Some(first)) = (tag, bytes.first_mut()) {
            *first = tag;
        }
        decodes_canonically::<HhUp>(&bytes)?;
        decodes_canonically::<HhDown>(&bytes)?;
        decodes_canonically::<CountDelta>(&bytes)?;
        decodes_canonically::<Sampled>(&bytes)?;
        decodes_canonically::<SetLevel>(&bytes)?;
        decodes_canonically::<QUp>(&bytes)?;
        decodes_canonically::<QDown>(&bytes)?;
        decodes_canonically::<AqUp>(&bytes)?;
        decodes_canonically::<AqDown>(&bytes)?;
        decodes_canonically::<WUp>(&bytes)?;
        decodes_canonically::<WqUp>(&bytes)?;
        decodes_canonically::<NewEpoch>(&bytes)?;
        decodes_canonically::<CgmrUp>(&bytes)?;
        decodes_canonically::<FwdItem>(&bytes)?;
        decodes_canonically::<PollUp>(&bytes)?;
        decodes_canonically::<PollRequest>(&bytes)?;
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases the fuzz axes above cannot hit
// ---------------------------------------------------------------------

/// The property families name every metered kind exactly once.
#[test]
fn families_name_each_of_the_46_kinds_once() {
    let all = [
        &HH[..],
        &COUNTER_AND_SAMPLING,
        &QUANTILE,
        &ALLQ,
        &WINDOW,
        &BASELINE,
    ]
    .concat();
    let distinct: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!((all.len(), distinct.len()), (46, 46));
}

/// Bytes can claim to carry a message for a protocol whose downstream
/// direction is uninhabited (`NoDown`, `FwdDown`, `CgmrDown`); decoding
/// must surface that as a typed error, since no value can exist.
#[test]
fn uninhabited_message_types_decode_to_typed_errors() {
    for bytes in [&[][..], &[1]] {
        for err in [
            decode::<NoDown>(bytes).unwrap_err(),
            decode::<FwdDown>(bytes).unwrap_err(),
            decode::<CgmrDown>(bytes).unwrap_err(),
        ] {
            assert!(
                matches!(err, DecodeError::Uninhabited { offset: 0, .. }),
                "expected Uninhabited, got {err:?}"
            );
        }
    }
}

/// A fieldless message encodes to no bytes and decodes from none; one
/// stray byte after it is `Trailing`, not silently ignored.
#[test]
fn exact_frame_boundaries_are_enforced() {
    assert!(encode(&PollRequest).is_empty());
    assert_eq!(decode::<PollRequest>(&[]), Ok(PollRequest));
    assert_eq!(
        decode::<PollRequest>(&[0]),
        Err(DecodeError::Trailing {
            unread: 1,
            offset: 0
        })
    );
}
