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
//! Seeds are derived through the same canonical SHA-256 the trace digests
//! use ([`CanonicalHasher`]), keeping the derivation stable across
//! platforms and refactors.

use crate::digest::CanonicalHasher;
use dyngraph::NodeId;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
/// to the first eight bytes little-endian.
pub fn stream_seed(run_seed: u64, node: NodeId, tag: StreamTag) -> u64 {
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
    run_seed: u64,
    columns: [Vec<Option<ChaCha8Rng>>; 4],
}

impl NodeStreams {
    /// Create the (empty) stream set for a run seed.
    pub fn new(run_seed: u64) -> Self {
        NodeStreams {
            run_seed,
            columns: Default::default(),
        }
    }

    fn fresh(run_seed: u64, node: NodeId, tag: StreamTag) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(stream_seed(run_seed, node, tag))
    }

    /// A copy of `node`'s stream `tag` at its start, not kept in the table:
    /// for draws the table need not remember.
    pub(crate) fn detached(&self, tag: StreamTag, node: NodeId) -> ChaCha8Rng {
        Self::fresh(self.run_seed, node, tag)
    }

    /// Number of streams of the column `tag` created so far.
    #[cfg(test)]
    pub(crate) fn seeded(&self, tag: StreamTag) -> usize {
        self.columns[tag as usize].iter().flatten().count()
    }

    fn cell(&mut self, tag: StreamTag, slot: usize) -> &mut Option<ChaCha8Rng> {
        let column = &mut self.columns[tag as usize];
        if column.len() <= slot {
            column.resize_with(slot + 1, || None);
        }
        &mut column[slot]
    }

    /// Borrow the stream of `node`, which sits at `slot`, creating it at
    /// its derived seed on first use.
    pub fn stream(&mut self, tag: StreamTag, slot: usize, node: NodeId) -> &mut ChaCha8Rng {
        let run_seed = self.run_seed;
        self.cell(tag, slot)
            .get_or_insert_with(|| Self::fresh(run_seed, node, tag))
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
        let run_seed = self.run_seed;
        let end = first_slot + ids.len();
        let column = &mut self.columns[tag as usize];
        if column.len() < end {
            column.resize_with(end, || None);
        }
        column[first_slot..end]
            .iter_mut()
            .zip(ids)
            .map(move |(cell, node)| cell.get_or_insert_with(|| Self::fresh(run_seed, node, tag)))
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
    use rand::Rng;

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
