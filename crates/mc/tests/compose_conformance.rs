//! Conformance tests for hierarchical composition (DESIGN.md §12).
//!
//! Three classes of evidence that the leveled checker means what the flat
//! checker means:
//!
//! 1. **Flat identity** — a one-level composition is the *same system* as
//!    the flat checker's `n` caches + directory, so its canonical state
//!    and transition counts must match exactly (glue never fires, parent
//!    semantics never engage, and the wreath group degenerates to the
//!    full symmetric group) — and, both canonicalizers following one
//!    representative rule, so must the canonical bytes and fingerprint
//!    they select on every reachable state.
//! 2. **End-to-end stack verification** — the bundled two-level stacks
//!    (2 L1s per L2, 2 L2s) pass per-level SWMR, leaf-level data-value,
//!    and deadlock freedom over their whole reachable space.
//! 3. **The determinism spine** — composed stacks run on the flat
//!    checker's explorer, so the same contract holds: results are
//!    byte-identical at any thread count, store mode and memory budget,
//!    and the 64-bit fingerprint store agrees with the exact-dedup
//!    reference walker.

use protogen_core::{compose, generate, GenConfig};
use protogen_mc::{
    permutations, reference_bfs, Canonicalizer, HierChecker, HierConfig, HierState, McConfig,
    ModelChecker, ResourceLimit, StoreMode, SysState, TransitionSystem,
};

fn checker(comp: &protogen_spec::Composition) -> HierChecker {
    let composed = compose(comp, &GenConfig::stalling()).unwrap();
    HierChecker::new(&composed, HierConfig::default())
}

fn checked(comp: &protogen_spec::Composition) -> protogen_mc::HierResult {
    checker(comp).check()
}

/// Flat-vs-composed identity at the same cache count, for every protocol
/// that satisfies the composition interface: the same counts, and the same
/// canonical bytes and fingerprint on every reachable state.
fn assert_identity(name: &str, n: usize) {
    let ssp = protogen_protocols::by_name(name).unwrap();
    let g = generate(&ssp, &GenConfig::stalling()).unwrap();
    let mut cfg = McConfig::with_caches(n);
    cfg.ordered = ssp.network_ordered;
    let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
    let flat = mc.run();
    assert!(flat.passed(), "flat {name}: {:?}", flat.violation);

    let hc = checker(&protogen_protocols::flat_composition(name, n).unwrap());
    let res = hc.check();
    assert!(res.passed(), "composed {name}: {:?}", res.violation);
    assert_eq!(res.states, flat.states, "{name}@{n}: state counts diverge");
    assert_eq!(res.transitions, flat.transitions, "{name}@{n}: transition counts diverge");

    // Every state of the flat BFS, handed to both canonicalizers out of
    // canonical arrangement (a different permutation each), must come
    // back as the flat BFS's own bytes with the flat fingerprint.
    let encs = reference_bfs(&mc, usize::MAX).0;
    assert_eq!(encs.len(), flat.states);
    let perms = permutations(n);
    let (mut canon, mut scratch) = (Canonicalizer::new(n, true), hc.scratch());
    let (mut flat_bytes, mut stack_bytes) = (Vec::new(), Vec::new());
    for (i, enc) in encs.iter().enumerate() {
        let s = SysState::decode(enc, n).permuted(&perms[i % perms.len()]);
        let stacked = HierState {
            caches: vec![s.caches.clone()],
            dirs: vec![vec![s.dir.clone()]],
            chans: vec![vec![s.channels.clone()]],
            ghost: s.ghost,
        };
        flat_bytes.clear();
        stack_bytes.clear();
        let flat_fp = canon.encode_canonical_into(&s, &mut flat_bytes);
        let stack_fp = hc.canonical_fp(&stacked, &mut scratch);
        hc.encode_canonical_into(&scratch, &mut stack_bytes);
        assert_eq!(&flat_bytes, enc, "{name}@{n}: state {i} left its orbit");
        assert_eq!((stack_fp, &stack_bytes), (flat_fp, &flat_bytes), "{name}@{n}: state {i}");
    }
}

#[test]
fn one_level_msi_is_state_count_identical_to_flat() {
    assert_identity("msi", 2);
}

#[test]
fn one_level_mesi_is_state_count_identical_to_flat() {
    assert_identity("mesi", 2);
}

#[test]
fn one_level_stacks_are_flat_byte_for_byte_at_three_caches() {
    assert_identity("msi", 3);
    assert_identity("mesi", 3);
    assert_identity("mosi", 2);
}

#[test]
fn msi_under_msi_verifies_end_to_end() {
    let res = checked(&protogen_protocols::msi_under_msi(2, 2));
    assert!(res.passed(), "{:?}", res.violation);
    // Pin the canonical counts: any semantic drift in glue generation,
    // parent data transparency, or per-level symmetry shows up here first.
    assert_eq!(res.states, 343_838);
    assert_eq!(res.transitions, 1_584_992);
}

#[test]
fn msi_under_mesi_verifies_end_to_end() {
    let res = checked(&protogen_protocols::msi_under_mesi(2, 2));
    assert!(res.passed(), "{:?}", res.violation);
    // Identical to MSI-under-MSI by design: exclusive-at-parent glue never
    // issues outer Loads, so MESI's E state is unreachable at the outer
    // level and the reachable outer subgraph coincides with MSI's.
    assert_eq!(res.states, 343_838);
}

#[test]
fn three_level_stack_explores_without_violations_in_budget() {
    // A 2-1-1 three-level stack (two leaves, one mid, one outer) checks
    // clean — depth beyond two levels exercises the recursive glue rules
    // (a mid-level node is simultaneously a directory host and a gated
    // cache).
    let comp = protogen_spec::Composition {
        name: "msi3".into(),
        levels: vec![
            protogen_spec::LevelSpec {
                label: "l1".into(),
                ssp: protogen_protocols::msi(),
                fanout: 2,
            },
            protogen_spec::LevelSpec {
                label: "l2".into(),
                ssp: protogen_protocols::msi(),
                fanout: 1,
            },
            protogen_spec::LevelSpec {
                label: "l3".into(),
                ssp: protogen_protocols::msi(),
                fanout: 1,
            },
        ],
    };
    let res = checked(&comp);
    assert!(res.passed(), "{:?}", res.violation);
    assert!(res.states > 1_000);
}

/// The determinism contract on composed stacks: `msi_under_msi(1,3)` and
/// the 2×2 stack give identical states / transitions / limit at threads
/// {1,2,4} × store {full,delta,fp-only} × {no budget, forced 1-byte spill
/// budget}. The full matrix runs under a state budget (so the `limit`
/// outcome is compared too, and the debug-profile suite stays short);
/// 1×3 is then exhausted at the matrix's corners, and the pinned
/// exhaustive 2×2 counts are above.
#[test]
fn composed_results_are_identical_across_threads_stores_and_budgets() {
    use StoreMode::{Delta, FpOnly, Full};
    let run = |fanout: (usize, usize), max_states, threads, store, budget| {
        let comp = protogen_protocols::msi_under_msi(fanout.0, fanout.1);
        let cfg = HierConfig {
            max_states,
            threads,
            store,
            mem_budget_bytes: budget,
            spill_chunk_bytes: 1, // clamps up to one page
            ..HierConfig::default()
        };
        HierChecker::new(&compose(&comp, &GenConfig::stalling()).unwrap(), cfg).check()
    };
    let matrix: Vec<(usize, StoreMode, usize)> = [1, 2, 4]
        .into_iter()
        .flat_map(|t| [Full, Delta, FpOnly].map(|s| [(t, s, 0), (t, s, 1)]))
        .flatten()
        .collect();
    let corners = vec![(2, Delta, 1), (4, FpOnly, 0), (4, Full, 1)];
    for (fanout, max_states, configs) in
        [((1, 3), 8_000, &matrix), ((2, 2), 8_000, &matrix), ((1, 3), usize::MAX, &corners)]
    {
        let reference = run(fanout, max_states, 1, Full, 0);
        assert!(reference.violation.is_none(), "{fanout:?}: {:?}", reference.violation);
        let want_limit = (max_states != usize::MAX).then_some(ResourceLimit::StateBudget);
        assert_eq!(reference.limit, want_limit, "{fanout:?}");
        for &(threads, store, budget) in configs {
            let r = run(fanout, max_states, threads, store, budget);
            let label = format!("{fanout:?}/{max_states} ({threads}t, {store:?}, budget {budget})");
            assert_eq!(r.states, reference.states, "{label}: states diverge");
            assert_eq!(r.transitions, reference.transitions, "{label}: transitions diverge");
            assert_eq!(r.limit, reference.limit, "{label}: limit diverges");
            assert!(r.violation.is_none(), "{label}: {:?}", r.violation);
            if budget == 1 && store != FpOnly && cfg!(unix) {
                assert!(r.spill_bytes > 0, "{label}: forced budget never spilled");
            }
        }
    }
}

/// The collision oracle: the explorer dedups by 64-bit fingerprint, the
/// reference walker by exact canonical encoding. Their exhaustive counts
/// must agree on a flat 2-cache space, a flat 3-cache space, and a
/// composed stack — which is what keeps the fingerprint store honest.
#[test]
fn explorer_counts_equal_the_exact_dedup_reference() {
    let flat = |name: &str, n: usize| {
        let g = generate(&protogen_protocols::by_name(name).unwrap(), &GenConfig::stalling());
        let g = g.unwrap();
        let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(n));
        let (r, (encs, transitions)) = (mc.run(), reference_bfs(&mc, usize::MAX));
        assert!(r.passed(), "{name}@{n}: {:?}", r.violation);
        assert_eq!((r.states, r.transitions), (encs.len(), transitions), "{name}@{n}");
    };
    flat("msi", 2);
    flat("mesi", 3);
    let hc = checker(&protogen_protocols::msi_under_msi(1, 2));
    let (r, (encs, transitions)) = (hc.check(), reference_bfs(&hc, usize::MAX));
    assert!(r.passed(), "{:?}", r.violation);
    assert_eq!((r.states, r.transitions), (encs.len(), transitions), "msi_under_msi(1,2)");
}
