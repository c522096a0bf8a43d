//! The dirty-tracked successor scratch is indistinguishable from a whole
//! copy of the parent per step (ISSUE 15): over random walks of real
//! generated protocols, stepping *every* candidate step of each visited
//! state through one long-lived `(succ, scratch)` pair — disabled steps,
//! stalled heads, violating steps and enabled ones interleaved in
//! canonical order — yields, step for step, the same `Result` and the
//! same successor as a fresh pair, whose first step is the full copy.

use proptest::prelude::*;
use protogen_core::{compose, generate, GenConfig};
use protogen_mc::{
    HierChecker, HierConfig, McConfig, ModelChecker, Step, TransitionSystem, ViolationKind,
};

/// Walks up to `depth` random enabled, invariant-clean steps from the
/// initial state, checking every candidate step of every visited state
/// against a fresh pair. New parents are loaded the way the explorer
/// loads them: canonical encoding, then `decode_into` on the long-lived
/// scratch. `on_step` sees each step with its outcome.
fn assert_scratch_matches_full_copy<S>(
    sys: &S,
    depth: usize,
    mut seed: u64,
    mut on_step: impl FnMut(S::Step, &Result<bool, ViolationKind>),
) where
    S: TransitionSystem,
    S::State: PartialEq + std::fmt::Debug,
    S::Step: std::fmt::Debug,
{
    // SplitMix64, independent of the proptest RNG.
    let mut draw = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut scratch = sys.scratch();
    let (mut state, mut succ) = (sys.initial(), sys.initial());
    let (mut steps, mut next) = (Vec::new(), Vec::new());
    for _ in 0..depth {
        sys.steps_into(&state, &mut steps);
        next.clear();
        let mut candidates = 0;
        for &step in &steps {
            let got = sys.successor_into(&state, step, &mut succ, &mut scratch);
            let (mut fresh_succ, mut fresh) = (sys.initial(), sys.scratch());
            let want = sys.successor_into(&state, step, &mut fresh_succ, &mut fresh);
            assert_eq!(got, want, "outcome of {step:?} from {state:?}");
            on_step(step, &got);
            if got == Ok(true) {
                assert_eq!(succ, fresh_succ, "successor of {step:?} from {state:?}");
                if sys.check_state(&succ).is_none() {
                    // Reservoir-sample the next parent.
                    candidates += 1;
                    if draw() % candidates == 0 {
                        sys.canonical_fp(&succ, &mut scratch);
                        next.clear();
                        next.extend_from_slice(sys.canonical_bytes(&scratch));
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        sys.decode_into(&next, &mut state, &mut scratch);
    }
}

/// The flat systems walked: MSI / MESI / MOSI (non-stalling, the richer
/// machines) and `msi_unordered` on its unordered network, so deliveries
/// at `idx > 0` occur. A tight `channel_cap` makes some steps overflow —
/// an `Err` raised from inside `route`, after part of the step was
/// written.
fn flat_case<R>(protocol: usize, n: usize, cap: usize, run: impl FnOnce(&ModelChecker) -> R) -> R {
    let ssp = match protocol % 4 {
        0 => protogen_protocols::msi(),
        1 => protogen_protocols::mesi(),
        2 => protogen_protocols::mosi(),
        _ => protogen_protocols::msi_unordered(),
    };
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let cfg = McConfig {
        ordered: ssp.network_ordered,
        channel_cap: cap,
        ..McConfig::with_caches_and_threads(n, 1)
    };
    run(&ModelChecker::new(&g.cache, &g.directory, cfg))
}

#[test]
fn the_walks_reach_every_kind_of_exit() {
    // Not vacuous: fixed walks of the unordered system see disabled,
    // violating (one-message channels overflow) and enabled steps, and
    // (roomy channels) deliveries from behind a queue's head.
    let (mut disabled, mut violating, mut enabled, mut deep) = (0, 0, 0, 0);
    for (seed, cap) in [(0, 1), (1, 1), (2, 8), (3, 8)] {
        flat_case(3, 3, cap, |mc| {
            assert_scratch_matches_full_copy(mc, 40, seed, |step, outcome| {
                match outcome {
                    Ok(false) => disabled += 1,
                    Ok(true) => enabled += 1,
                    Err(_) => violating += 1,
                }
                deep += matches!(step, Step::Deliver { idx, .. } if idx > 0) as usize;
            })
        });
    }
    assert!(
        disabled > 0 && violating > 0 && enabled > 0 && deep > 0,
        "{disabled} disabled, {violating} violating, {enabled} enabled, {deep} at idx > 0"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_scratch_stepping_matches_a_full_copy_per_step(
        protocol in 0usize..4,
        n in 2usize..=4,
        cap in 1usize..=8,
        depth in 4usize..=24,
        seed in any::<u64>(),
    ) {
        flat_case(protocol, n, cap, |mc| assert_scratch_matches_full_copy(mc, depth, seed, |_, _| ()));
    }

    /// The composed stack: deliveries into an inner directory and into a
    /// parent's cache side also write the data field their neighbour
    /// mirrors, which the restore must cover.
    #[test]
    fn composed_scratch_stepping_matches_a_full_copy_per_step(
        cap in 1usize..=8,
        depth in 4usize..=32,
        seed in any::<u64>(),
    ) {
        let comp = protogen_protocols::msi_under_msi(1, 2);
        let composed = compose(&comp, &GenConfig::non_stalling()).unwrap();
        let cfg = HierConfig { channel_cap: cap, threads: 1, ..HierConfig::default() };
        let hc = HierChecker::new(&composed, cfg);
        assert_scratch_matches_full_copy(&hc, depth, seed, |_, _| ());
    }
}
