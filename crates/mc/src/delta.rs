//! Per-machine delta compression for canonical state encodings.
//!
//! A successor state differs from its parent in one machine and a couple
//! of channel queues, and consecutive frontier-arena entries (BFS
//! siblings) share most of their bytes too — so storing every frontier
//! state as a full [`crate::SysState::encode`] string wastes most of the
//! arena on repetition. This module exploits the encoding's *sectioned*
//! structure instead of running a generic byte matcher: a flat encoding for
//! `n` caches is, in order, `n` cache-block sections, one directory
//! section, `(n+1)²` channel-queue sections, and the one-byte ghost
//! value, and every section's length is recoverable from its own bytes
//! (the length prefixes [`crate::SysState::encode_permuted_to`] emits).
//! A leveled encoding ([`crate::HierChecker`]) is the same four groups
//! with different counts, so the walker is parameterized by a
//! [`SectionMap`] derived from either topology rather than hard-coding
//! the flat `n + 2 + (n+1)²` layout.
//!
//! The delta of `target` against `base` is a section bitmask (one bit per
//! section, set = changed) followed by the raw bytes of exactly the
//! changed target sections. Applying a delta walks `base` section by
//! section, copying unchanged sections and splicing changed ones from the
//! payload — `O(len)` in both directions, no searching. When states
//! differ in one machine the delta is the bitmask (`⌈S/8⌉` bytes, S ≈ 50
//! at 6 caches) plus a handful of section bytes, typically 4–8× smaller
//! than the full encoding. The codec is lossless by construction, so the
//! checker's determinism contract is untouched; `delta_prop` pins
//! `apply_delta(base, encode_delta(base, target)) == target` over
//! reachable protocol states, with [`crate::SysState::decode`] as the
//! end-to-end inverse.

/// Which kind of section the walker is positioned on (the kinds have
/// different length rules).
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One cache block: 7 fixed bytes (u16 state, data, acks received,
    /// acks expected, pending, chain-slot count) + 2 per chain slot.
    Cache,
    /// One directory entry: 6 fixed bytes + 2 per chain slot.
    Dir,
    /// One `(src, dst)` channel queue: 1 length byte + 7 per message.
    Channel,
    /// The ghost-memory value: 1 byte.
    Ghost,
}

/// Length of the section of `kind` starting at `bytes[pos]`.
fn section_len(bytes: &[u8], pos: usize, kind: Kind) -> usize {
    match kind {
        Kind::Cache => 7 + 2 * bytes[pos + 6] as usize,
        Kind::Dir => 6 + 2 * bytes[pos + 5] as usize,
        Kind::Channel => 1 + 7 * bytes[pos] as usize,
        Kind::Ghost => 1,
    }
}

/// The section layout of one encoding family. Both the flat encoding
/// ([`crate::SysState::encode`]) and the leveled one
/// ([`crate::HierChecker`]) group their sections the same way — every
/// cache block first, then every directory entry, then every channel
/// queue, then the ghost byte — so a layout is fully described by three
/// counts. Copy-sized by design: the delta hot path builds one per call
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionMap {
    caches: usize,
    dirs: usize,
    channels: usize,
}

impl SectionMap {
    /// The flat `n`-cache layout: `n` cache sections, one directory,
    /// `(n+1)²` channels.
    pub fn flat(n_caches: usize) -> Self {
        SectionMap { caches: n_caches, dirs: 1, channels: (n_caches + 1) * (n_caches + 1) }
    }

    /// A leveled layout: `cache_counts[jm]` blocks per machine level and
    /// one `(parents, fanout)` subnet shape per protocol level, each
    /// contributing `parents` directory sections and `parents·(fanout+1)²`
    /// channel sections. `SectionMap::leveled(&[n], &[(1, n)])` equals
    /// [`SectionMap::flat`]`(n)` — the layouts coincide by construction.
    pub fn leveled(cache_counts: &[usize], subnets: &[(usize, usize)]) -> Self {
        SectionMap {
            caches: cache_counts.iter().sum(),
            dirs: subnets.iter().map(|&(p, _)| p).sum(),
            channels: subnets.iter().map(|&(p, f)| p * (f + 1) * (f + 1)).sum(),
        }
    }

    /// Number of sections in an encoding of this layout.
    pub fn section_count(&self) -> usize {
        self.caches + self.dirs + self.channels + 1
    }

    /// Section kinds in encoding order.
    fn kinds(&self) -> impl Iterator<Item = Kind> {
        std::iter::repeat_n(Kind::Cache, self.caches)
            .chain(std::iter::repeat_n(Kind::Dir, self.dirs))
            .chain(std::iter::repeat_n(Kind::Channel, self.channels))
            .chain(std::iter::once(Kind::Ghost))
    }

    /// Appends to `out` the delta that rewrites `base` into `target`.
    /// Both must be complete encodings of this layout. Returns the
    /// delta's length in bytes — callers fall back to storing `target`
    /// verbatim when the delta is not actually smaller.
    pub fn encode_delta(&self, base: &[u8], target: &[u8], out: &mut Vec<u8>) -> usize {
        let mask_start = out.len();
        out.resize(mask_start + self.section_count().div_ceil(8), 0);
        let (mut bp, mut tp) = (0usize, 0usize);
        for (i, kind) in self.kinds().enumerate() {
            let bl = section_len(base, bp, kind);
            let tl = section_len(target, tp, kind);
            if base[bp..bp + bl] != target[tp..tp + tl] {
                out[mask_start + i / 8] |= 1 << (i % 8);
                out.extend_from_slice(&target[tp..tp + tl]);
            }
            bp += bl;
            tp += tl;
        }
        debug_assert_eq!(bp, base.len(), "base is not a complete encoding");
        debug_assert_eq!(tp, target.len(), "target is not a complete encoding");
        out.len() - mask_start
    }

    /// Appends to `out` the full encoding reconstructed from `base` and a
    /// `delta` produced by [`SectionMap::encode_delta`] against that same
    /// base.
    ///
    /// # Panics
    ///
    /// Panics (via slice bounds) when `delta` was not produced against
    /// `base` under this layout — deltas only ever travel inside the
    /// checker's frontier arenas, so a mismatch is a checker bug, not an
    /// input condition.
    pub fn apply_delta(&self, base: &[u8], delta: &[u8], out: &mut Vec<u8>) {
        let mask_len = self.section_count().div_ceil(8);
        let (mut bp, mut dp) = (0usize, mask_len);
        for (i, kind) in self.kinds().enumerate() {
            let bl = section_len(base, bp, kind);
            if delta[i / 8] & (1 << (i % 8)) != 0 {
                let tl = section_len(delta, dp, kind);
                out.extend_from_slice(&delta[dp..dp + tl]);
                dp += tl;
            } else {
                out.extend_from_slice(&base[bp..bp + bl]);
            }
            bp += bl;
        }
        debug_assert_eq!(bp, base.len(), "base is not a complete encoding");
        debug_assert_eq!(dp, delta.len(), "trailing bytes after a complete delta");
    }
}

/// [`SectionMap::encode_delta`] over the flat `n`-cache layout — the
/// explorer's hot-path entry point.
pub fn encode_delta(n_caches: usize, base: &[u8], target: &[u8], out: &mut Vec<u8>) -> usize {
    SectionMap::flat(n_caches).encode_delta(base, target, out)
}

/// [`SectionMap::apply_delta`] over the flat `n`-cache layout.
pub fn apply_delta(n_caches: usize, base: &[u8], delta: &[u8], out: &mut Vec<u8>) {
    SectionMap::flat(n_caches).apply_delta(base, delta, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SysState;
    use protogen_runtime::{Msg, NodeId};
    use protogen_spec::{Access, MsgId};

    fn roundtrip(n: usize, base: &SysState, target: &SysState) -> usize {
        let (eb, et) = (base.encode(), target.encode());
        let mut delta = Vec::new();
        let dlen = encode_delta(n, &eb, &et, &mut delta);
        assert_eq!(dlen, delta.len());
        let mut rebuilt = Vec::new();
        apply_delta(n, &eb, &delta, &mut rebuilt);
        assert_eq!(rebuilt, et, "delta did not reconstruct the target");
        assert_eq!(&SysState::decode(&rebuilt, n), target);
        dlen
    }

    #[test]
    fn identical_states_delta_to_the_bare_mask() {
        for n in 2..=6usize {
            let s = SysState::initial(n);
            let dlen = roundtrip(n, &s, &s);
            assert_eq!(dlen, SectionMap::flat(n).section_count().div_ceil(8), "n={n}");
        }
    }

    #[test]
    fn leveled_one_level_layout_equals_flat() {
        for n in 1..=6usize {
            assert_eq!(SectionMap::leveled(&[n], &[(1, n)]), SectionMap::flat(n), "n={n}");
        }
        // A 2×2 two-level stack: 4+2 caches, 2+1 dirs, 2·9+9 channels.
        let m = SectionMap::leveled(&[4, 2], &[(2, 2), (1, 2)]);
        assert_eq!(m.section_count(), 6 + 3 + 27 + 1);
    }

    #[test]
    fn single_machine_changes_stay_small() {
        let n = 4;
        let base = SysState::initial(n);
        let mut target = base.clone();
        target.caches[2].data = Some(1);
        target.caches[2].pending = Some(Access::Store);
        let dlen = roundtrip(n, &base, &target);
        // Mask + the one rewritten cache section (7 bytes).
        assert_eq!(dlen, SectionMap::flat(n).section_count().div_ceil(8) + 7);
        assert!(dlen < base.encode().len() / 2, "delta not smaller than full encoding");
    }

    #[test]
    fn variable_length_sections_round_trip() {
        // Queue growth, chain slots, and ghost flips all shift section
        // boundaries — the walker must resynchronize from content alone.
        let n = 3;
        let mut base = SysState::initial(n);
        base.send(Msg {
            mtype: MsgId(4),
            src: NodeId(0),
            dst: NodeId(3),
            req: NodeId(0),
            ack_count: Some(1),
            data: Some(1),
        });
        let mut target = base.clone();
        target.send(Msg {
            mtype: MsgId(2),
            src: NodeId(0),
            dst: NodeId(3),
            req: NodeId(2),
            ack_count: None,
            data: None,
        });
        target.dir.chain_slots.push((NodeId(1), 2));
        target.caches[0].chain_slots.push((NodeId(2), 1));
        target.ghost = 1;
        roundtrip(n, &base, &target);
        // And the reverse direction (sections shrink).
        roundtrip(n, &target, &base);
    }
}
