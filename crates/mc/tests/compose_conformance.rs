//! Conformance tests for hierarchical composition (DESIGN.md §12).
//!
//! Three classes of evidence that the leveled checker means what the flat
//! checker means:
//!
//! 1. **Flat identity** — a one-level composition is the *same system* as
//!    the flat checker's `n` caches + directory, so its canonical state
//!    and transition counts must match exactly (glue never fires, parent
//!    semantics never engage, and the wreath group degenerates to the
//!    full symmetric group) — and, both checkers stepping through one
//!    subnet kernel and canonicalizing with one sweep, so must the
//!    canonical bytes and fingerprint they select on every reachable
//!    state, and the outcome of every candidate step from it.
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
    permutations, reference_bfs, Canonicalizer, HStep, HierChecker, HierConfig, HierLevel,
    HierState, McConfig, ModelChecker, PropertySet, ResourceLimit, Step, StoreMode, SysState,
    TransitionSystem,
};
use protogen_runtime::MachineTag;

fn checker(comp: &protogen_spec::Composition) -> HierChecker {
    let composed = compose(comp, &GenConfig::stalling()).unwrap();
    HierChecker::new(&composed, HierConfig::default())
}

fn checked(comp: &protogen_spec::Composition) -> protogen_mc::HierResult {
    checker(comp).check()
}

/// Flat-vs-composed identity at the same cache count, for every protocol
/// that satisfies the composition interface: the same counts, the same
/// canonical bytes and fingerprint on every reachable state, and the same
/// outcome for every candidate step of every reachable state.
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
        let level = HierLevel {
            fanout: n,
            caches: s.caches.clone(),
            dirs: vec![s.dir.clone()],
            chans: s.channels.clone(),
        };
        let stacked = HierState { levels: vec![level], ghost: s.ghost };
        flat_bytes.clear();
        stack_bytes.clear();
        let flat_fp = canon.encode_canonical_into(&s, &mut flat_bytes);
        let stack_fp = hc.canonical_fp(&stacked, &mut scratch);
        stack_bytes.extend_from_slice(hc.canonical_bytes(&scratch));
        assert_eq!(&flat_bytes, enc, "{name}@{n}: state {i} left its orbit");
        assert_eq!((stack_fp, &stack_bytes), (flat_fp, &flat_bytes), "{name}@{n}: state {i}");
    }

    assert_steps_agree(&mc, &hc, &encs, &format!("{name}@{n}"));
}

/// Step for step: from every state of `encs` (flat canonical encodings),
/// every candidate step has the same outcome on the flat system and the
/// one-level stack — enabled with the same canonical successor bytes,
/// disabled, or the same kind of violation — in `steps_into` order.
fn assert_steps_agree(mc: &ModelChecker, hc: &HierChecker, encs: &[Vec<u8>], what: &str) {
    let (mut flat_bytes, mut stack_bytes) = (Vec::new(), Vec::new());
    let (mut fsc, mut hsc) = (mc.scratch(), hc.scratch());
    let (mut fstate, mut fsucc, mut hstate, mut hsucc) =
        (mc.initial(), mc.initial(), hc.initial(), hc.initial());
    let (mut fsteps, mut hsteps) = (Vec::new(), Vec::new());
    for (i, enc) in encs.iter().enumerate() {
        mc.decode_into(enc, &mut fstate, &mut fsc);
        hc.decode_into(enc, &mut hstate, &mut hsc);
        mc.steps_into(&fstate, &mut fsteps);
        hc.steps_into(&hstate, &mut hsteps);
        let as_stack = |step: &Step| match *step {
            Step::Deliver { src, dst, idx } => {
                HStep::Deliver { level: 0, parent: 0, src, dst, idx }
            }
            Step::IssueAccess { cache, access } => HStep::Issue { mlevel: 0, node: cache, access },
        };
        assert_eq!(fsteps.iter().map(as_stack).collect::<Vec<_>>(), hsteps, "{what}: {i}");
        for (&fstep, &hstep) in fsteps.iter().zip(&hsteps) {
            let at = format!("{what}: state {i}, {fstep}");
            match (
                mc.successor_into(&fstate, fstep, &mut fsucc, &mut fsc),
                hc.successor_into(&hstate, hstep, &mut hsucc, &mut hsc),
            ) {
                (Ok(true), Ok(true)) => {
                    assert_eq!(
                        mc.canonical_fp(&fsucc, &mut fsc),
                        hc.canonical_fp(&hsucc, &mut hsc)
                    );
                    flat_bytes.clear();
                    stack_bytes.clear();
                    flat_bytes.extend_from_slice(mc.canonical_bytes(&fsc));
                    stack_bytes.extend_from_slice(hc.canonical_bytes(&hsc));
                    assert_eq!(flat_bytes, stack_bytes, "{at}: successors differ");
                }
                (Ok(false), Ok(false)) => {}
                (Err(f), Err(h)) => {
                    let same = std::mem::discriminant(&f) == std::mem::discriminant(&h);
                    assert!(same, "{at}: {f} vs {h}");
                }
                (f, h) => panic!("{at}: {f:?} vs {h:?}"),
            }
        }
    }
}

/// The flat system and the one-level stack step alike beyond the two
/// cases `assert_identity` walks whole: on a breadth-first sample of
/// MESI stalling at 3 caches, MSI non-stalling at 3 and TSO-CC (which
/// violates SC, so steps fail) at 2, all under the SC properties.
#[test]
fn one_level_stacks_step_as_the_flat_system_does() {
    for (name, n, stalling) in [("mesi", 3, true), ("msi", 3, false), ("tso-cc", 2, false)] {
        let gen = if stalling { GenConfig::stalling() } else { GenConfig::non_stalling() };
        let ssp = protogen_protocols::by_name(name).unwrap();
        let g = generate(&ssp, &gen).unwrap();
        let cfg = McConfig {
            ordered: ssp.network_ordered,
            properties: PropertySet::sc(),
            ..McConfig::with_caches(n)
        };
        let mc = ModelChecker::new(&g.cache, &g.directory, cfg);
        let comp = protogen_protocols::flat_composition(name, n).unwrap();
        let composed = compose(&comp, &gen).unwrap();
        let hc = HierChecker::new(&composed, HierConfig::default());
        let encs = reference_bfs(&mc, 1500).0;
        assert!(encs.len() >= 800, "{name}@{n}: sampled only {}", encs.len());
        assert_steps_agree(&mc, &hc, &encs, &format!("{name}@{n} stalling={stalling}"));
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

/// Both checkers evaluate one property path, so a one-level stack must
/// reach the flat checker's verdict on every cell: all bundled protocols ×
/// the named property sets × both generator configs at 2 caches agree on
/// the verdict, the counts, the kind of violation (the wording differs:
/// `cache n0` flat, `level l1 node 0` composed) and the pair coverage. A
/// few cells are pinned.
#[test]
fn one_level_stacks_reach_the_flat_verdict_under_every_property_set() {
    let mut pinned = 0;
    for name in protogen_protocols::NAMES {
        let ssp = protogen_protocols::by_name(name).unwrap();
        let comp = protogen_protocols::flat_composition(name, 2).unwrap();
        for (config, gen) in
            [("stalling", GenConfig::stalling()), ("non-stalling", GenConfig::non_stalling())]
        {
            let g = generate(&ssp, &gen).unwrap();
            let composed = compose(&comp, &gen).unwrap();
            for properties in
                [PropertySet::sc(), PropertySet::tso(), PropertySet::weak(), PropertySet::none()]
            {
                let cfg = McConfig {
                    properties,
                    ordered: ssp.network_ordered,
                    ..McConfig::with_caches(2)
                };
                let flat = ModelChecker::new(&g.cache, &g.directory, cfg.clone()).run();
                let stack = HierChecker::new(&composed, cfg).check();
                let label = format!("{name} ({config}) under {properties}");
                let kind = |r: &protogen_mc::CheckResult| {
                    r.violation.as_ref().map(|v| std::mem::discriminant(&v.kind))
                };
                assert_eq!(stack.passed(), flat.passed(), "{label}: verdicts diverge");
                assert_eq!(
                    (stack.states, stack.transitions),
                    (flat.states, flat.transitions),
                    "{label}: counts diverge"
                );
                assert_eq!(
                    kind(&stack),
                    kind(&flat),
                    "{label}: {:?} vs {:?}",
                    stack.violation,
                    flat.violation
                );
                assert_eq!(stack.coverage, flat.coverage, "{label}: pair coverage diverges");
                let want = match (name, config, properties.to_string().as_str()) {
                    ("tso-cc", _, "sc") => Some((false, 64, 132)),
                    ("si-sd", _, "sc") => Some((false, 55, 127)),
                    ("si-sd", _, "tso") => Some((false, 56, 127)),
                    ("tso-cc", "non-stalling", "tso") => Some((true, 980, 2922)),
                    ("tso-cc", "stalling", "tso") => Some((true, 872, 2586)),
                    _ => None,
                };
                if let Some(want) = want {
                    assert_eq!((flat.passed(), flat.states, flat.transitions), want, "{label}");
                    pinned += 1;
                }
            }
        }
    }
    assert_eq!(pinned, 8, "every pinned cell ran");
}

#[test]
fn msi_under_msi_verifies_end_to_end() {
    let res = checked(&protogen_protocols::msi_under_msi(2, 2));
    assert!(res.passed(), "{:?}", res.violation);
    // Pin the canonical counts: any semantic drift in glue generation,
    // parent data transparency, or per-level symmetry shows up here first.
    assert_eq!(res.states, 343_838);
    assert_eq!(res.transitions, 1_584_992);
    // Coverage is recorded per level: both sides of both levels dispatched.
    let tags: std::collections::BTreeSet<MachineTag> =
        res.coverage.iter().map(|&(tag, ..)| tag).collect();
    let (c, d) = (MachineTag::cache, MachineTag::directory);
    assert_eq!(tags, [c(0), d(0), c(1), d(1)].into());
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
