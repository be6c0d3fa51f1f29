//! Canonical event digests for golden-trace regression testing.
//!
//! A scenario run is *reproducible* when the same manifest and seed produce
//! byte-identical observable behaviour. This module provides the hashing
//! substrate for that check: a dependency-free SHA-256 implementation plus a
//! [`CanonicalHasher`] that folds simulation artifacts (times, topologies,
//! message statistics, node views) into the hash through one fixed, typed,
//! platform-independent encoding:
//!
//! * integers are hashed as 8-byte little-endian `u64`s (never `usize`);
//! * every composite value is length-prefixed and type-tagged, so `[1, 23]`
//!   and `[12, 3]` hash differently;
//! * graphs are hashed as their sorted node list plus their sorted edge
//!   list (`a < b`), which is exactly the deterministic iteration order
//!   `dyngraph::Graph` already guarantees.
//!
//! `grp_core::observers::SnapshotRecorder` feeds a recorded run through it
//! (topologies and statistics under `"trace"`, views under `"views"`); the
//! `scenarios` crate folds that into the golden digests checked in CI.

use crate::time::SimTime;
use crate::trace::MessageStats;
use dyngraph::{Graph, NodeId};
use std::fmt;

/// SHA-256 (FIPS 180-4), implemented locally because the build environment
/// cannot fetch a crypto crate. Not intended for adversarial settings —
/// only for change detection in golden-trace tests.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length padding).
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The FIPS 180-4 initial hash value.
pub(crate) const SHA256_IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Expand a block's 16 message words, in `w[..16]`, into the whole
/// 64-word message schedule.
#[inline(always)]
pub(crate) fn sha256_schedule(w: &mut [u32; 64]) {
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
}

/// Run `rounds` of the compression function on the working variables
/// `vars`, reading the message schedule `w`. Round `i` reads `w[i]`
/// alone, so the rounds of a block's fixed leading words can run once and
/// the rest later, from where they stopped.
#[inline(always)]
pub(crate) fn sha256_rounds(vars: &mut [u32; 8], w: &[u32; 64], rounds: std::ops::Range<usize>) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *vars;
    for i in rounds {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = ((f ^ g) & e) ^ g;
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = ((a ^ b) & (b ^ c)) ^ b;
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    *vars = [a, b, c, d, e, f, g, h];
}

/// Add the working variables `vars` a block's rounds left into the hash
/// state `state` (the end of one compression).
#[inline(always)]
pub(crate) fn sha256_feed_forward(state: &mut [u32; 8], vars: &[u32; 8]) {
    for (s, v) in state.iter_mut().zip(vars) {
        *s = s.wrapping_add(*v);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: SHA256_IV,
            length: 0,
            buffer: [0; 64],
            buffered: 0,
        }
    }
}

impl Sha256 {
    /// A fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Self::default()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            // detlint::allow(D004): chunks_exact(4) yields 4-byte slices
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        sha256_schedule(&mut w);
        let mut vars = self.state;
        sha256_rounds(&mut vars, &w, 0..64);
        sha256_feed_forward(&mut self.state, &vars);
    }

    /// Absorb `data` into the running hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            } else {
                // buffer still partial ⇒ the input is exhausted
                return;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            // detlint::allow(D004): chunks_exact(64) yields 64-byte slices
            self.compress(block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pad and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_length = self.length.wrapping_mul(8);
        // 0x80, then zeros up to the length field — of the next block when
        // this one has no room left for it
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0; 64];
        }
        self.buffer[56..64].copy_from_slice(&bit_length.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Domain-separation tags for the canonical encoding. Hashing the tag before
/// each value keeps differently-typed but equal-width values distinct.
#[repr(u8)]
enum Tag {
    U64 = 1,
    Str = 5,
    Bool = 6,
    Graph = 7,
    Stats = 8,
    Time = 9,
    NodeSet = 10,
    ListStart = 11,
    ListEnd = 12,
}

/// The fixed-size summary of one ordered node set: the count and inner
/// hash [`CanonicalHasher::feed_node_set`] folds into the outer stream.
/// Cacheable per `Arc`-shared set — the substrate of the delta-encoded
/// digest feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSetDigest {
    count: u64,
    body: [u8; 32],
}

/// A 32-byte digest rendered as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceDigest(pub [u8; 32]);

impl TraceDigest {
    /// Lowercase hex string (64 chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incrementally folds simulation artifacts into a canonical SHA-256 hash.
///
/// The encoding is versioned: bump [`CanonicalHasher::VERSION`] whenever the
/// encoding of any feed method changes, so stale golden digests fail loudly
/// rather than silently comparing incompatible encodings.
#[derive(Clone)]
pub struct CanonicalHasher {
    inner: Sha256,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    /// Encoding version, hashed into every digest.
    pub const VERSION: u64 = 1;

    /// A fresh hasher, seeded with the encoding [`VERSION`](Self::VERSION).
    pub fn new() -> Self {
        let mut hasher = CanonicalHasher {
            inner: Sha256::new(),
        };
        hasher.feed_u64(Self::VERSION);
        hasher
    }

    fn tag(&mut self, tag: Tag) {
        self.inner.update(&[tag as u8]);
    }

    /// Hash an unsigned integer (8-byte little-endian, type-tagged).
    pub fn feed_u64(&mut self, value: u64) {
        self.inner.update(&Self::u64_encoding(value));
    }

    /// The bytes [`feed_u64`](Self::feed_u64) hashes.
    pub(crate) fn u64_encoding(value: u64) -> [u8; 9] {
        let mut out = [0; 9];
        out[0] = Tag::U64 as u8;
        out[1..].copy_from_slice(&value.to_le_bytes());
        out
    }

    /// Hash a boolean as one type-tagged byte.
    pub fn feed_bool(&mut self, value: bool) {
        self.tag(Tag::Bool);
        self.inner.update(&[value as u8]);
    }

    /// Hash a length-prefixed UTF-8 string.
    pub fn feed_str(&mut self, s: &str) {
        self.tag(Tag::Str);
        self.inner.update(&(s.len() as u64).to_le_bytes());
        self.inner.update(s.as_bytes());
    }

    /// The bytes [`feed_str`](Self::feed_str) hashes, as an owned buffer.
    pub(crate) fn str_encoding(s: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + s.len());
        out.push(Tag::Str as u8);
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
        out
    }

    /// Hash a simulation time as its tick count.
    pub fn feed_time(&mut self, t: SimTime) {
        self.tag(Tag::Time);
        self.inner.update(&t.ticks().to_le_bytes());
    }

    /// Hash a topology: sorted nodes, then sorted `a < b` edges. Streams
    /// straight into the hasher (no buffering — this runs once per round
    /// on every trace-digest path); `graph_encoding` materialises the
    /// identical byte stream for callers that cache it per `Arc`, and
    /// `graph_encoding_matches_streaming_feed` pins the two against each
    /// other.
    pub fn feed_graph(&mut self, g: &Graph) {
        self.tag(Tag::Graph);
        self.inner.update(&(g.node_count() as u64).to_le_bytes());
        for node in g.nodes() {
            self.inner.update(&node.raw().to_le_bytes());
        }
        self.inner.update(&(g.edge_count() as u64).to_le_bytes());
        for (a, b) in g.edges() {
            self.inner.update(&a.raw().to_le_bytes());
            self.inner.update(&b.raw().to_le_bytes());
        }
    }

    /// The exact byte stream [`feed_graph`](Self::feed_graph) hashes, as an
    /// owned buffer. Digest folders that see the same `Arc<Graph>` round
    /// after round (the delta-encoded `SnapshotRecorder` feed) encode it
    /// once and replay the bytes.
    pub fn graph_encoding(g: &Graph) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + 8 * (g.node_count() + 2 * g.edge_count()));
        out.push(Tag::Graph as u8);
        out.extend_from_slice(&(g.node_count() as u64).to_le_bytes());
        for node in g.nodes() {
            out.extend_from_slice(&node.raw().to_le_bytes());
        }
        out.extend_from_slice(&(g.edge_count() as u64).to_le_bytes());
        for (a, b) in g.edges() {
            out.extend_from_slice(&a.raw().to_le_bytes());
            out.extend_from_slice(&b.raw().to_le_bytes());
        }
        out
    }

    /// Feed bytes previously produced by
    /// [`graph_encoding`](Self::graph_encoding) — byte-identical to calling
    /// [`feed_graph`](Self::feed_graph) on the same graph.
    pub fn feed_graph_encoding(&mut self, encoding: &[u8]) {
        self.inner.update(encoding);
    }

    /// Hash the message counters in their declaration order.
    pub fn feed_stats(&mut self, stats: &MessageStats) {
        self.tag(Tag::Stats);
        for v in [
            stats.broadcasts,
            stats.attempted,
            stats.delivered,
            stats.dropped,
            stats.delivered_bytes,
        ] {
            self.inner.update(&v.to_le_bytes());
        }
    }

    /// Hash an ordered set of node ids (callers must pass sorted iterators;
    /// `BTreeSet` / `dyngraph` iteration orders already are).
    pub fn feed_node_set<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) {
        let digest = Self::node_set_digest(nodes);
        self.feed_node_set_digest(&digest);
    }

    /// Pre-hash an ordered node set into the fixed-size summary
    /// [`feed_node_set`](Self::feed_node_set) folds in. A digest folder
    /// that sees the same `Arc`-shared set across rounds computes this once
    /// and replays it.
    pub fn node_set_digest<I: IntoIterator<Item = NodeId>>(nodes: I) -> NodeSetDigest {
        let mut count: u64 = 0;
        let mut body = Sha256::new();
        for n in nodes {
            body.update(&n.raw().to_le_bytes());
            count += 1;
        }
        NodeSetDigest {
            count,
            body: body.finalize(),
        }
    }

    /// Feed a pre-hashed node set — byte-identical to
    /// [`feed_node_set`](Self::feed_node_set) on the set it summarises.
    pub fn feed_node_set_digest(&mut self, digest: &NodeSetDigest) {
        self.tag(Tag::NodeSet);
        self.inner.update(&digest.count.to_le_bytes());
        self.inner.update(&digest.body);
    }

    /// Bracket a variable-length sequence of heterogeneous feeds.
    pub fn begin_list(&mut self, label: &str) {
        self.tag(Tag::ListStart);
        self.feed_str(label);
    }

    /// Close a sequence opened by [`begin_list`](Self::begin_list).
    pub fn end_list(&mut self) {
        self.tag(Tag::ListEnd);
    }

    /// Produce the final digest.
    pub fn finalize(self) -> TraceDigest {
        TraceDigest(self.inner.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_of(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        TraceDigest(h.finalize()).to_hex()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex_of(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex_of(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex_of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_handles_block_boundaries() {
        // 55/56/57/63/64/65 bytes cross the padding edge cases
        for n in [55usize, 56, 57, 63, 64, 65, 127, 128, 1000] {
            let data = vec![0x61u8; n];
            let whole = hex_of(&data);
            let mut split = Sha256::new();
            split.update(&data[..n / 2]);
            split.update(&data[n / 2..]);
            assert_eq!(whole, TraceDigest(split.finalize()).to_hex(), "n={n}");
        }
        // reference: 1,000 'a' bytes
        assert_eq!(
            hex_of(&vec![b'a'; 1000]),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn canonical_encoding_separates_shapes() {
        let digest_of = |values: &[u64]| {
            let mut h = CanonicalHasher::new();
            for &v in values {
                h.feed_u64(v);
            }
            h.finalize()
        };
        assert_ne!(digest_of(&[1, 23]), digest_of(&[12, 3]));
        assert_ne!(digest_of(&[]), digest_of(&[0]));

        let mut a = CanonicalHasher::new();
        a.feed_str("ab");
        let mut b = CanonicalHasher::new();
        b.begin_list("ab");
        assert_ne!(
            a.finalize(),
            b.finalize(),
            "a str and a list are tagged apart"
        );
    }

    /// The cached-bytes feed and the streaming feed must be byte-identical
    /// — the delta-encoded `SnapshotRecorder` digest relies on it.
    #[test]
    fn graph_encoding_matches_streaming_feed() {
        use dyngraph::Graph;
        let g = Graph::from_edges(
            [],
            (0..20u64).map(|i| (NodeId(i), NodeId((i * 7 + 3) % 20))),
        );
        let mut streamed = CanonicalHasher::new();
        streamed.feed_graph(&g);
        let mut replayed = CanonicalHasher::new();
        replayed.feed_graph_encoding(&CanonicalHasher::graph_encoding(&g));
        assert_eq!(streamed.finalize(), replayed.finalize());
    }

    #[test]
    fn graph_digest_tracks_structure() {
        use dyngraph::{Graph, TopologyEvent};
        let g1 = Graph::from_edges([], [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(3))]);
        let g2 = g1.clone();
        let digest = |g: &Graph| {
            let mut h = CanonicalHasher::new();
            h.feed_graph(g);
            h.finalize()
        };
        assert_eq!(digest(&g1), digest(&g2));
        let g2 = g2
            .apply(TopologyEvent::LinkDown(NodeId(2), NodeId(3)))
            .apply(TopologyEvent::LinkUp(NodeId(1), NodeId(3)));
        assert_ne!(digest(&g1), digest(&g2));
    }

    #[test]
    fn hex_roundtrip() {
        let mut h = CanonicalHasher::new();
        h.feed_u64(42);
        let d = h.finalize();
        let hex = d.to_hex();
        assert_eq!(hex, d.to_string());
        assert!(hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
        let parsed: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert_eq!(parsed, d.0);
    }
}
