//! Per-node deterministic RNG streams.
//!
//! Every random decision of a run — timer stagger, link loss, mobility
//! steps, state corruption — is drawn from the stream of the node it
//! concerns: each `(node, purpose)` pair owns an independent ChaCha8 stream
//! whose seed is a pure function of `(run_seed, node_id, tag)`, so a node's
//! draws are identical no matter when the stream is first touched or what
//! the rest of the population does.
//!
//! Streams live in one dense column per [`StreamTag`], indexed by slot (see
//! [`crate::arena`]), and are created lazily — a `LazyStream` not before
//! its first draw — so the *set* of streams a run materialises may depend
//! on the schedule but their contents never do.
//! Seeds are the canonical SHA-256 the trace digests use
//! ([`CanonicalHasher`]) of `(run_seed, node, tag)`, keeping the derivation
//! stable across platforms and refactors. Everything in that message but
//! the node id is fixed per run and tag, so a [`NodeStreams`] hashes the
//! fixed part once (`SeedMidstate`) and a stream's seed costs the
//! remaining rounds of two compressions.

use crate::digest::{
    sha256_feed_forward, sha256_rounds, sha256_schedule, CanonicalHasher, SHA256_IV,
};
use dyngraph::NodeId;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// What a per-node stream is for. Each purpose is its own column of
/// [`NodeStreams`]; the name is what the stream's seed is derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamTag {
    /// The initial timer-phase stagger draws.
    Phase,
    /// Channel/link decisions (drawn on the *sender's* stream).
    Channel,
    /// Mobility-model draws.
    Mobility,
    /// Fault-injection (state and message corruption) draws.
    Fault,
}

impl StreamTag {
    /// The tag's name as hashed into [`stream_seed`].
    pub const fn name(self) -> &'static str {
        match self {
            StreamTag::Phase => "phase",
            StreamTag::Channel => "channel",
            StreamTag::Mobility => "mobility",
            StreamTag::Fault => "fault",
        }
    }
}

/// Derive the seed of one per-node stream. Pure function of its inputs:
/// the canonical SHA-256 of `(domain, run_seed, node, tag name)`, truncated
/// to the first eight bytes little-endian. [`NodeStreams`] seeds its
/// streams through the same `SeedMidstate`, built once per run.
pub fn stream_seed(run_seed: u64, node: NodeId, tag: StreamTag) -> u64 {
    SeedMidstate::new(run_seed).seed(node, tag)
}

/// Every tag, in declaration order.
const TAGS: [StreamTag; 4] = [
    StreamTag::Phase,
    StreamTag::Channel,
    StreamTag::Mobility,
    StreamTag::Fault,
];

/// The domain string that opens every seed message.
const DOMAIN: &str = "netsim-rng-stream";

/// The message words before the node id: the encoding version, the
/// domain and the run seed fill exactly 44 bytes of the first block.
const PREFIX_WORDS: usize = 11;

/// The SHA-256 of one run's seed messages, computed as far as the node id.
///
/// The message is [`CanonicalHasher`]'s encoding of `(version, DOMAIN,
/// run_seed, node, tag name)`: 67 to 70 bytes, so two blocks once padded.
/// Words 0–10 of the first block are the same for every stream of a run,
/// and round `i` reads word `i` alone, so the state after rounds 0–10 is
/// kept. The rest of the message depends on the node and the tag only:
/// its node-free part is [`TagBlocks`], built once per process. A seed
/// then costs the schedule and the last 53 rounds of the first block and
/// the 64 rounds of the second.
#[derive(Debug)]
pub(crate) struct SeedMidstate {
    /// Words 0–10 of the first block.
    prefix: [u32; PREFIX_WORDS],
    /// The working variables after the rounds of those words.
    vars: [u32; 8],
    tags: &'static [TagBlocks; 4],
}

/// What one tag's seed messages hold after the prefix, the node aside.
#[derive(Debug)]
struct TagBlocks {
    /// Bytes 44–63 of the first block: the node id's encoding, with its
    /// eight bytes zero, and the head of the tag name's.
    head: [u8; 64 - 4 * PREFIX_WORDS],
    /// The message schedule of the second block: the name's tail, the
    /// padding and the bit length.
    schedule: [u32; 64],
}

impl TagBlocks {
    /// Every tag's blocks, in [`StreamTag`] order: the same for every run.
    fn all() -> &'static [TagBlocks; 4] {
        static ALL: OnceLock<[TagBlocks; 4]> = OnceLock::new();
        ALL.get_or_init(|| TAGS.map(TagBlocks::new))
    }

    fn new(tag: StreamTag) -> Self {
        // the message after the prefix for node 0, padded: 0x80, zeros,
        // the bit length
        let mut rest = CanonicalHasher::u64_encoding(0).to_vec();
        rest.extend(CanonicalHasher::str_encoding(tag.name()));
        let len = 4 * PREFIX_WORDS + rest.len();
        assert!(len > 64 && len < 120, "the message fills two blocks");
        rest.push(0x80);
        rest.resize(120 - 4 * PREFIX_WORDS, 0);
        rest.extend((8 * len as u64).to_be_bytes());
        let (head, second) = rest.split_at(64 - 4 * PREFIX_WORDS);
        let mut schedule = [0; 64];
        schedule[..16].copy_from_slice(&be_words::<16>(second));
        sha256_schedule(&mut schedule);
        TagBlocks {
            head: first_bytes(head),
            schedule,
        }
    }
}

/// The big-endian words of `bytes`.
fn be_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    std::array::from_fn(|i| u32::from_be_bytes(first_bytes(&bytes[4 * i..])))
}

/// The first `N` bytes of `bytes`.
fn first_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    std::array::from_fn(|i| bytes[i])
}

impl SeedMidstate {
    /// Hash the part of `run_seed`'s seed messages that precedes the node.
    pub(crate) fn new(run_seed: u64) -> Self {
        let mut prefix = CanonicalHasher::u64_encoding(CanonicalHasher::VERSION).to_vec();
        prefix.extend(CanonicalHasher::str_encoding(DOMAIN));
        prefix.extend(CanonicalHasher::u64_encoding(run_seed));
        assert_eq!(
            prefix.len(),
            4 * PREFIX_WORDS,
            "the prefix fills whole words"
        );
        let prefix = be_words::<PREFIX_WORDS>(&prefix);
        let mut w = [0; 64];
        w[..PREFIX_WORDS].copy_from_slice(&prefix);
        let mut vars = SHA256_IV;
        sha256_rounds(&mut vars, &w, 0..PREFIX_WORDS);
        SeedMidstate {
            prefix,
            vars,
            tags: TagBlocks::all(),
        }
    }

    /// The seed of `node`'s stream `tag`: [`stream_seed`] of this run.
    pub(crate) fn seed(&self, node: NodeId, tag: StreamTag) -> u64 {
        let TagBlocks { head, schedule } = &self.tags[tag as usize];
        let mut head = *head;
        // after the encoding's type tag byte
        head[1..9].copy_from_slice(&node.raw().to_le_bytes());
        let mut w = [0; 64];
        w[..PREFIX_WORDS].copy_from_slice(&self.prefix);
        w[PREFIX_WORDS..16].copy_from_slice(&be_words::<5>(&head));
        sha256_schedule(&mut w);
        let mut vars = self.vars;
        sha256_rounds(&mut vars, &w, PREFIX_WORDS..64);
        let mut state = SHA256_IV;
        sha256_feed_forward(&mut state, &vars);
        let mut vars = state;
        sha256_rounds(&mut vars, schedule, 0..64);
        sha256_feed_forward(&mut state, &vars);
        // digest bytes 0-7 are words 0 and 1, big-endian; read little-endian
        u64::from(state[0].swap_bytes()) | u64::from(state[1].swap_bytes()) << 32
    }

    /// A fresh stream of `node` for `tag`.
    fn stream(&self, node: NodeId, tag: StreamTag) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed(node, tag))
    }
}

/// Lazily-materialised per-node streams for one run: a `[tag][slot]` table.
///
/// A stream is addressed by its slot and seeded from its NodeId on first
/// use, so streams are independent of the order in which the engine first
/// touches them. A column is indexed by the slots of whoever draws from it:
/// [`StreamTag::Mobility`] by the mobility model's position slots,
/// [`StreamTag::Channel`] and [`StreamTag::Fault`] by the simulator's node
/// slots (the two coincide whenever every positioned id has a node). The
/// simulator keeps no [`StreamTag::Phase`] stream: a node's two phase
/// draws come from a copy the table never holds. A column grows to
/// the highest slot touched and costs nothing until then.
#[derive(Debug)]
pub struct NodeStreams {
    seeds: SeedMidstate,
    columns: [Vec<Option<ChaCha8Rng>>; 4],
}

impl NodeStreams {
    /// Create the (empty) stream set for a run seed.
    pub fn new(run_seed: u64) -> Self {
        NodeStreams {
            seeds: SeedMidstate::new(run_seed),
            columns: Default::default(),
        }
    }

    /// A copy of `node`'s stream `tag` at its start, not kept in the table:
    /// for draws the table need not remember.
    pub(crate) fn detached(&self, tag: StreamTag, node: NodeId) -> ChaCha8Rng {
        self.seeds.stream(node, tag)
    }

    /// Number of streams of the column `tag` created so far.
    #[cfg(test)]
    pub(crate) fn seeded(&self, tag: StreamTag) -> usize {
        self.columns[tag as usize].iter().flatten().count()
    }

    /// Borrow the stream of `node`, which sits at `slot`, creating it at
    /// its derived seed on first use.
    pub fn stream(&mut self, tag: StreamTag, slot: usize, node: NodeId) -> &mut ChaCha8Rng {
        let column = &mut self.columns[tag as usize];
        if column.len() <= slot {
            column.resize_with(slot + 1, || None);
        }
        let seeds = &self.seeds;
        column[slot].get_or_insert_with(|| seeds.stream(node, tag))
    }

    /// The stream of `node`, which sits at `slot`, as a bit source that
    /// creates it on its first draw: a caller that may draw nothing (a
    /// loss-free link decision) leaves no stream behind.
    pub(crate) fn lazy(&mut self, tag: StreamTag, slot: usize, node: NodeId) -> LazyStream<'_> {
        LazyStream {
            streams: self,
            tag,
            slot,
            node,
        }
    }

    /// The streams of the nodes `ids`, which occupy consecutive slots from
    /// `first_slot`, one after the other — the walk a mobility model makes
    /// in lockstep with its position array.
    pub fn lockstep<'a>(
        &'a mut self,
        tag: StreamTag,
        first_slot: usize,
        ids: impl ExactSizeIterator<Item = NodeId> + 'a,
    ) -> impl Iterator<Item = &'a mut ChaCha8Rng> + 'a {
        let seeds = &self.seeds;
        let end = first_slot + ids.len();
        let column = &mut self.columns[tag as usize];
        if column.len() < end {
            column.resize_with(end, || None);
        }
        column[first_slot..end]
            .iter_mut()
            .zip(ids)
            .map(move |(cell, node)| cell.get_or_insert_with(|| seeds.stream(node, tag)))
    }

    /// A node was inserted at `slot` of the table `tag`'s column follows:
    /// open an untouched entry there and move every later stream one slot
    /// up with its node.
    pub fn open_slot(&mut self, tag: StreamTag, slot: usize) {
        let column = &mut self.columns[tag as usize];
        if slot < column.len() {
            column.insert(slot, None);
        }
    }
}

/// One node's stream, created at its derived seed on the first draw (see
/// [`NodeStreams::lazy`]). Draws are those of the stream itself, so a lazy
/// and an eagerly created stream give the same values.
pub(crate) struct LazyStream<'a> {
    streams: &'a mut NodeStreams,
    tag: StreamTag,
    slot: usize,
    node: NodeId,
}

impl RngCore for LazyStream<'_> {
    fn next_u32(&mut self) -> u32 {
        self.streams
            .stream(self.tag, self.slot, self.node)
            .next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.streams
            .stream(self.tag, self.slot, self.node)
            .next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// [`stream_seed`] spelled through the canonical hasher, field by
    /// field: the oracle the midstate path is checked against.
    fn hasher_seed(run_seed: u64, node: NodeId, tag: StreamTag) -> u64 {
        let mut hasher = CanonicalHasher::new();
        hasher.feed_str("netsim-rng-stream");
        hasher.feed_u64(run_seed);
        hasher.feed_u64(node.raw());
        hasher.feed_str(tag.name());
        let digest = hasher.finalize();
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&digest.0[..8]);
        u64::from_le_bytes(bytes)
    }

    #[test]
    fn derived_seeds_equal_the_hasher_spelling() {
        for run_seed in [0, 1, 2010, u64::MAX] {
            let seeds = SeedMidstate::new(run_seed);
            for node in [0, 1, 255, 256, 1 << 32, u64::MAX] {
                for tag in TAGS {
                    let want = hasher_seed(run_seed, NodeId(node), tag);
                    assert_eq!(
                        seeds.seed(NodeId(node), tag),
                        want,
                        "{run_seed} {node} {tag:?}"
                    );
                    assert_eq!(stream_seed(run_seed, NodeId(node), tag), want);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_derived_seed_equals_the_hasher_spelling(
            run_seed in 0u64..u64::MAX,
            node in 0u64..u64::MAX,
            tag in 0usize..4,
        ) {
            let tag = TAGS[tag];
            let want = hasher_seed(run_seed, NodeId(node), tag);
            prop_assert_eq!(SeedMidstate::new(run_seed).seed(NodeId(node), tag), want);
        }
    }

    #[test]
    fn stream_seed_is_a_pure_function() {
        let a = stream_seed(7, NodeId(3), StreamTag::Channel);
        let b = stream_seed(7, NodeId(3), StreamTag::Channel);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_seed_separates_nodes_tags_and_runs() {
        let base = stream_seed(7, NodeId(3), StreamTag::Channel);
        assert_ne!(base, stream_seed(7, NodeId(4), StreamTag::Channel));
        assert_ne!(base, stream_seed(7, NodeId(3), StreamTag::Mobility));
        assert_ne!(base, stream_seed(8, NodeId(3), StreamTag::Channel));
    }

    #[test]
    fn streams_are_independent_of_first_touch_order() {
        // touching B before A must not change A's draws
        let mut forward = NodeStreams::new(42);
        let a_first: u64 = forward.stream(StreamTag::Channel, 1, NodeId(1)).gen();

        let mut reversed = NodeStreams::new(42);
        let _ = reversed
            .stream(StreamTag::Channel, 2, NodeId(2))
            .gen::<u64>();
        let _ = reversed
            .stream(StreamTag::Mobility, 2, NodeId(2))
            .gen::<u64>();
        let a_second: u64 = reversed.stream(StreamTag::Channel, 1, NodeId(1)).gen();

        assert_eq!(a_first, a_second);
    }

    #[test]
    fn opening_a_slot_moves_later_streams_with_their_nodes() {
        let mut streams = NodeStreams::new(3);
        let _ = streams.stream(StreamTag::Phase, 0, NodeId(10)).gen::<u64>();
        let before: u64 = streams.stream(StreamTag::Phase, 1, NodeId(20)).gen();
        // node 15 arrives between them: 20 moves to slot 2
        streams.open_slot(StreamTag::Phase, 1);
        let mut replay = ChaCha8Rng::seed_from_u64(stream_seed(3, NodeId(20), StreamTag::Phase));
        assert_eq!(before, replay.gen::<u64>());
        let after: u64 = streams.stream(StreamTag::Phase, 2, NodeId(20)).gen();
        assert_eq!(after, replay.gen::<u64>(), "20's stream kept its position");
        let mut fresh = ChaCha8Rng::seed_from_u64(stream_seed(3, NodeId(15), StreamTag::Phase));
        let newcomer: u64 = streams.stream(StreamTag::Phase, 1, NodeId(15)).gen();
        assert_eq!(newcomer, fresh.gen::<u64>());
    }
}
