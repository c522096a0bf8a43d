//! Property tests for the composed stacks' orbit-pruned canonicalizer
//! (ISSUE 17), over reachable states of five stacks up to a symmetry group
//! of 128. The group action used here is this file's own — it permutes a
//! materialised [`HierState`] field by field and shares no code with the
//! checker's streamed `encode_permuted` — and the oracle is the rule the
//! checker started with: encode under every group element, keep the
//! byte-minimal encoding.
//!
//! * **Orbit stability** — for random group elements π, the canonical
//!   bytes and fingerprint of `decode(encode(π·s))` are those of `s`.
//! * **Exactness** — over each corpus, pruned representative ↦ oracle
//!   representative is a bijection: the orbit partition, hence every
//!   pinned count, is the exhaustive sweep's.
//! * **Decode stability** — `canonical(decode(canonical(s)))` is
//!   `canonical(s)`: the explorer stores canonical bytes and steps from
//!   what they decode to.
//! * **The pruning prunes** — a count, not a timing: the mean number of
//!   candidates enumerated per reachable state stays near 1. A sort key
//!   that stops discriminating keeps every property above and fails here.

use proptest::prelude::*;
use protogen_core::{compose, GenConfig};
use protogen_mc::{
    permutations, reference_bfs, HierChecker, HierConfig, HierScratch, HierState, TransitionSystem,
};
use protogen_runtime::{Msg, NodeId};
use protogen_spec::Composition;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One stack under test: the checker, its symmetry-off twin (whose
/// "canonical" encoding is the plain encoding of the state as it stands —
/// the oracle's encoder, and the stepper for the walks), and the corpus.
struct Stack {
    name: &'static str,
    fanouts: Vec<usize>,
    hc: HierChecker,
    raw: HierChecker,
    states: Vec<HierState>,
}

fn tower() -> Composition {
    let mut comp = protogen_protocols::msi_under_msi(2, 2);
    comp.levels.insert(1, comp.levels[0].clone());
    comp.levels[1].label = "l2".into();
    comp
}

/// SplitMix64, independent of the proptest RNG.
fn draw(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The plain encoding of `s` as it stands.
fn encode(raw: &HierChecker, s: &HierState, sc: &mut HierScratch) -> Vec<u8> {
    let mut out = Vec::new();
    raw.canonical_fp(s, sc);
    out.extend_from_slice(raw.canonical_bytes(sc));
    out
}

/// The canonical fingerprint and bytes the checker selects for `s`.
fn canonical(hc: &HierChecker, s: &HierState, sc: &mut HierScratch) -> (u64, Vec<u8>) {
    let mut out = Vec::new();
    let fp = hc.canonical_fp(s, sc);
    out.extend_from_slice(hc.canonical_bytes(sc));
    (fp, out)
}

/// The stacks and their corpora: a BFS prefix of canonical
/// representatives, plus the ends of random walks (the prefix alone
/// under-samples late transients and loaded channels) — walked on the
/// symmetry-off twin, so they arrive in whatever arrangement the steps
/// left them in.
fn stacks() -> &'static Vec<Stack> {
    static STACKS: OnceLock<Vec<Stack>> = OnceLock::new();
    STACKS.get_or_init(|| {
        let comps = [
            ("msi_under_msi 1x3", protogen_protocols::msi_under_msi(1, 3)),
            ("msi_under_msi 2x2", protogen_protocols::msi_under_msi(2, 2)),
            ("msi_under_msi 3x2", protogen_protocols::msi_under_msi(3, 2)),
            ("msi_under_mesi 2x2", protogen_protocols::msi_under_mesi(2, 2)),
            ("msi tower 2x2x2", tower()),
        ];
        comps.into_iter().map(|(name, comp)| build_stack(name, &comp)).collect()
    })
}

fn build_stack(name: &'static str, comp: &Composition) -> Stack {
    let composed = compose(comp, &GenConfig::stalling()).unwrap();
    let cfg = HierConfig { threads: 1, ..HierConfig::default() };
    let hc = HierChecker::new(&composed, cfg.clone());
    let raw = HierChecker::new(&composed, HierConfig { symmetry: false, ..cfg });
    let mut sc = hc.scratch();
    let mut states: Vec<HierState> = reference_bfs(&hc, 120)
        .0
        .iter()
        .map(|enc| {
            let mut s = hc.initial();
            hc.decode_into(enc, &mut s, &mut sc);
            s
        })
        .collect();
    let (mut steps, mut seed) = (Vec::new(), 17u64);
    for walk in 0..80 {
        let (mut state, mut succ, mut sc) = (raw.initial(), raw.initial(), raw.scratch());
        for _ in 0..8 + walk % 40 {
            raw.steps_into(&state, &mut steps);
            let from = draw(&mut seed) as usize;
            let next = (0..steps.len()).map(|i| steps[(from + i) % steps.len()]).find(|&step| {
                matches!(raw.successor_into(&state, step, &mut succ, &mut sc), Ok(true))
                    && raw.check_state(&succ).is_none()
            });
            if next.is_none() {
                break;
            }
            let enc = encode(&raw, &succ, &mut sc);
            raw.decode_into(&enc, &mut state, &mut sc);
        }
        states.push(state);
    }
    Stack { name, fanouts: comp.levels.iter().map(|l| l.fanout).collect(), hc, raw, states }
}

/// One element of the wreath-product group as `maps[jm][old] = new` per
/// machine level, root last: every parent's children are permuted by the
/// `pick(f!)`-th permutation of `0..f` and land under the parent's own new
/// position.
fn element(fanouts: &[usize], mut pick: impl FnMut(usize) -> usize) -> Vec<Vec<u8>> {
    let mut maps = vec![vec![0u8]];
    for &f in fanouts.iter().rev() {
        let sigmas = permutations(f);
        // Old-parent order, `f` children each: `map[p·f + c]`.
        let mut map = Vec::new();
        for &parent_to in &maps[0] {
            let sigma = &sigmas[pick(sigmas.len())];
            map.extend(sigma.iter().map(|&c| parent_to * f as u8 + c));
        }
        maps.insert(0, map);
    }
    maps
}

/// The whole group, by counting `pick`'s answers in mixed radix.
fn group(fanouts: &[usize]) -> Vec<Vec<Vec<u8>>> {
    let mut all = Vec::new();
    for index in 0.. {
        let mut rest = index;
        let maps = element(fanouts, |radix| {
            let digit = rest % radix;
            rest /= radix;
            digit
        });
        if rest > 0 {
            break; // `index` ran past the product of the radices
        }
        all.push(maps);
    }
    all
}

/// π·s, materialised: node `g` of machine level `jm` becomes node
/// `maps[jm][g]`, and every subnet-local id inside its subnet — chain
/// slots, owner, sharer bits, message endpoints, channel indices — is
/// renamed with it (the directory id `f` is fixed).
fn permuted(s: &HierState, maps: &[Vec<u8>], fanouts: &[usize]) -> HierState {
    let mut out = s.clone();
    for (j, &f) in fanouts.iter().enumerate() {
        // Renames subnet-local `id` of the subnet whose *old* parent is `p`.
        let local = |p: usize, id: NodeId| match id.as_usize() {
            c if c < f => NodeId(maps[j][p * f + c] % f as u8),
            _ => id,
        };
        let slots = |p: usize, slots: &[(NodeId, u8)]| {
            slots.iter().map(|&(node, a)| (local(p, node), a)).collect::<Vec<_>>()
        };
        for (g, block) in s.caches[j].iter().enumerate() {
            let to = &mut out.caches[j][maps[j][g] as usize];
            to.clone_from(block);
            to.chain_slots = slots(g / f, &block.chain_slots);
        }
        for (p, dir) in s.dirs[j].iter().enumerate() {
            let p2 = maps[j + 1][p] as usize;
            let to = &mut out.dirs[j][p2];
            to.clone_from(dir);
            to.owner = dir.owner.map(|o| local(p, o));
            to.chain_slots = slots(p, &dir.chain_slots);
            to.sharers = (0..f as u8)
                .filter(|&c| dir.is_sharer(NodeId(c)))
                .fold(0, |mask, c| mask | 1 << local(p, NodeId(c)).0);
            for src in 0..=f {
                for dst in 0..=f {
                    let (src2, dst2) = (local(p, NodeId(src as u8)), local(p, NodeId(dst as u8)));
                    out.chans[j][p2][src2.as_usize()][dst2.as_usize()] = s.chans[j][p][src][dst]
                        .iter()
                        .map(|m| Msg {
                            src: local(p, m.src),
                            dst: local(p, m.dst),
                            req: local(p, m.req),
                            ..*m
                        })
                        .collect();
                }
            }
        }
    }
    out
}

#[test]
fn the_test_group_has_the_checkers_order() {
    for (stack, order) in stacks().iter().zip([6, 8, 72, 8, 128]) {
        assert_eq!(stack.hc.group_size(), order, "{}", stack.name);
        assert_eq!(group(&stack.fanouts).len(), order, "{}", stack.name);
        assert_eq!(stack.raw.group_size(), 1, "{}", stack.name);
    }
}

/// Exactness. Every corpus state and one permuted copy of it (so that
/// every orbit present is present twice, in two arrangements) is mapped
/// to its pruned and to its oracle representative; the two must pair up
/// one to one. A sort key that is not invariant splits an orbit here; a
/// candidate that is not a group element merges two.
#[test]
fn pruned_partition_equals_the_exhaustive_sweeps() {
    for stack in stacks() {
        let Stack { name, fanouts, hc, raw, states } = stack;
        let group = group(fanouts);
        let (mut sc, mut raw_sc, mut seed) = (hc.scratch(), raw.scratch(), 5u64);
        let (mut to_oracle, mut to_pruned) = (HashMap::new(), HashMap::new());
        for s in states {
            let twin = permuted(s, &group[draw(&mut seed) as usize % group.len()], fanouts);
            for s in [s, &twin] {
                let pruned = canonical(hc, s, &mut sc).1;
                let oracle = group
                    .iter()
                    .map(|maps| encode(raw, &permuted(s, maps, fanouts), &mut raw_sc))
                    .min()
                    .expect("a group has its identity");
                assert_eq!(
                    to_oracle.entry(pruned.clone()).or_insert(oracle.clone()),
                    &oracle,
                    "{name}: one pruned representative for two orbits"
                );
                assert_eq!(
                    to_pruned.entry(oracle).or_insert(pruned.clone()),
                    &pruned,
                    "{name}: two pruned representatives for one orbit"
                );
            }
        }
        assert!(to_oracle.len() > 100, "{name}: only {} orbits sampled", to_oracle.len());
    }
}

/// The count guard, over every canonicalization an exploration performs
/// (each enabled successor of each state): an exhaustive sweep enumerates
/// 6 and 8 candidates on these two stacks; recorded when the pruning
/// landed, 1.0407 over the whole 1×3 space and 1.5063 over the first
/// 60,000 states of 2×2 — on both, exactly the mean order of the states'
/// stabilisers, the floor for any key.
#[test]
fn pruning_leaves_few_candidates_per_canonicalization() {
    for (stack, limit, bound) in [(&stacks()[0], usize::MAX, 1.1), (&stacks()[1], 60_000, 1.6)] {
        let hc = &stack.hc;
        let (mut state, mut succ, mut sc) = (hc.initial(), hc.initial(), hc.scratch());
        let (mut steps, mut calls, mut candidates) = (Vec::new(), 0usize, 0usize);
        for enc in &reference_bfs(hc, limit).0 {
            hc.decode_into(enc, &mut state, &mut sc);
            hc.steps_into(&state, &mut steps);
            for &step in &steps {
                if let Ok(true) = hc.successor_into(&state, step, &mut succ, &mut sc) {
                    candidates += hc.pruned_candidates(&succ, &mut sc);
                    calls += 1;
                }
            }
        }
        let mean = candidates as f64 / calls as f64;
        assert!(mean <= bound, "{}: {mean:.4} candidates over {calls} calls", stack.name);
        assert!(mean > 1.0, "{}: some reachable state is symmetric", stack.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Orbit and decode stability on one state under one random group
    /// element, the permuted copy taken through `decode(encode(·))` the
    /// way a shipped successor is.
    #[test]
    fn representative_is_stable_across_the_orbit_and_under_decode(
        stack in 0usize..5,
        pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let Stack { name, fanouts, hc, raw, states } = &stacks()[stack];
        let s = &states[pick % states.len()];
        let (mut sc, mut raw_sc, mut seed) = (hc.scratch(), raw.scratch(), seed);
        let (fp, bytes) = canonical(hc, s, &mut sc);

        let maps = element(fanouts, |radix| draw(&mut seed) as usize % radix);
        let moved = permuted(s, &maps, fanouts);
        let mut decoded = hc.initial();
        hc.decode_into(&encode(raw, &moved, &mut raw_sc), &mut decoded, &mut sc);
        prop_assert!(decoded == moved, "{name}: decode(encode) is not the identity");
        let from_orbit = canonical(hc, &decoded, &mut sc);
        prop_assert!(from_orbit == (fp, bytes.clone()), "{name}: representative drifts under {maps:?}");

        hc.decode_into(&bytes, &mut decoded, &mut sc);
        let again = canonical(hc, &decoded, &mut sc);
        prop_assert!(again == (fp, bytes), "{name}: canonical bytes are not decode-stable");
    }
}
