//! Property tests for the sectioned delta codec (ISSUE 6): over random
//! *reachable* system states of real generated protocols at 2–4 caches,
//! `apply_delta(base, encode_delta(base, target))` must reproduce the
//! target's full encoding byte-for-byte, `SysState::decode` of the
//! reconstruction must equal the target state exactly (the end-to-end
//! inverse the frontier read path relies on), and chained deltas — each
//! entry diffed against its predecessor, the way frontier arenas store
//! them — must reconstruct every link of the chain.

use proptest::prelude::*;
use protogen_core::{compose, generate, GenConfig};
use protogen_mc::{
    apply_delta, encode_delta, reference_bfs, HierChecker, HierConfig, McConfig, ModelChecker,
    SectionMap, SysState, TransitionSystem,
};
use std::sync::OnceLock;

/// The sampled corpora: for MSI and MESI (non-stalling — the richer
/// machines) at 2, 3, and 4 caches, a deterministic BFS prefix of the
/// reachable canonical representatives.
fn corpora() -> &'static Vec<(usize, Vec<SysState>)> {
    static CORPORA: OnceLock<Vec<(usize, Vec<SysState>)>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let mut out = Vec::new();
        for ssp in [protogen_protocols::msi(), protogen_protocols::mesi()] {
            let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
            for n in 2..=4usize {
                let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(n));
                out.push((n, mc.sample_states(250)));
            }
        }
        out
    })
}

/// Delta `base → target`, reconstruct, and check both the byte-level and
/// the decoded-state inverse. Returns the delta length.
fn assert_roundtrip(n: usize, base: &SysState, target: &SysState) -> usize {
    let (eb, et) = (base.encode(), target.encode());
    let mut delta = Vec::new();
    let dlen = encode_delta(n, &eb, &et, &mut delta);
    assert_eq!(dlen, delta.len(), "reported delta length disagrees with the buffer");
    let mut rebuilt = Vec::new();
    apply_delta(n, &eb, &delta, &mut rebuilt);
    assert_eq!(rebuilt, et, "delta did not reconstruct the target encoding");
    assert_eq!(&SysState::decode(&rebuilt, n), target, "decode is not the end-to-end inverse");
    dlen
}

/// A composed-protocol corpus: reachable canonical encodings of the
/// 2×2 MSI-under-MSI stack, paired with the leveled section map derived
/// from the checker's topology.
fn hier_corpus() -> &'static (SectionMap, Vec<Vec<u8>>) {
    static CORPUS: OnceLock<(SectionMap, Vec<Vec<u8>>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let comp = protogen_protocols::msi_under_msi(2, 2);
        let composed = compose(&comp, &GenConfig::stalling()).unwrap();
        let hc = HierChecker::new(&composed, HierConfig::default());
        (hc.section_map(), reference_bfs(&hc, 250).0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any reachable state deltas against any other (same cache count)
    /// and reconstructs exactly — including self-deltas (bare mask) and
    /// unrelated pairs, not just parent/child edges.
    #[test]
    fn delta_round_trips_between_reachable_states(
        corpus in 0usize..6,
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (n, states) = &corpora()[corpus];
        let base = &states[a % states.len()];
        let target = &states[b % states.len()];
        assert_roundtrip(*n, base, target);
        assert_roundtrip(*n, target, base);
        let self_len = assert_roundtrip(*n, base, base);
        // A self-delta is the bare section bitmask: strictly smaller than
        // any non-trivial encoding.
        assert!(self_len < base.encode().len(), "self-delta not compressed");
    }

    /// Chained deltas — the frontier-arena layout, where entry i is
    /// diffed against entry i-1 — reconstruct every link sequentially.
    #[test]
    fn chained_deltas_reconstruct_sequentially(
        corpus in 0usize..6,
        start in any::<usize>(),
        chain_len in 2usize..=12,
    ) {
        let (n, states) = &corpora()[corpus];
        let n = *n;
        let mut prev_full = states[start % states.len()].encode();
        for k in 1..chain_len {
            let target = &states[(start + k) % states.len()];
            let et = target.encode();
            let mut delta = Vec::new();
            encode_delta(n, &prev_full, &et, &mut delta);
            let mut rebuilt = Vec::new();
            apply_delta(n, &prev_full, &delta, &mut rebuilt);
            assert_eq!(rebuilt, et, "link {k} of the chain diverged");
            assert_eq!(&SysState::decode(&rebuilt, n), target);
            prev_full = rebuilt;
        }
    }

    /// The leveled section map deltas composed-protocol encodings with
    /// the same lossless contract as the flat one: any reachable state of
    /// the 2×2 MSI-under-MSI stack reconstructs byte-for-byte from a
    /// delta against any other.
    #[test]
    fn composed_deltas_round_trip_between_reachable_states(
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (map, encs) = hier_corpus();
        let base = &encs[a % encs.len()];
        let target = &encs[b % encs.len()];
        let mut delta = Vec::new();
        let dlen = map.encode_delta(base, target, &mut delta);
        assert_eq!(dlen, delta.len());
        let mut rebuilt = Vec::new();
        map.apply_delta(base, &delta, &mut rebuilt);
        assert_eq!(&rebuilt, target, "leveled delta did not reconstruct the target");
        // Self-deltas compress to the bare mask.
        let mut self_delta = Vec::new();
        let self_len = map.encode_delta(base, base, &mut self_delta);
        assert_eq!(self_len, map.section_count().div_ceil(8));
    }
}
