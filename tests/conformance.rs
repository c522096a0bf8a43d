//! Cross-protocol conformance matrix.
//!
//! Every bundled protocol — from the programmatic builders *and* from the
//! bundled DSL sources — must, in both concurrency configurations,
//! generate successfully and pass the model checker at 2 caches for the
//! full invariant set: SWMR, the data-value invariant, deadlock freedom,
//! and completeness. TSO-CC trades physical SWMR and data-value freshness
//! by design (§VI-D), so its row checks the invariants TSO-CC actually
//! promises (single writer at the directory's owner, deadlock freedom,
//! completeness) and separately asserts the traded invariants *do* fail —
//! a conformance matrix that silently relaxed checks would be worthless.

use protogen::gen::{generate, Concurrency, GenConfig};
use protogen::mc::{McConfig, ModelChecker, PropertySet};
use protogen::spec::Ssp;

fn config_label(cfg: &GenConfig) -> &'static str {
    match cfg.concurrency {
        Concurrency::Stalling => "stalling",
        Concurrency::NonStalling => "non-stalling",
    }
}

fn mc_config_for(ssp: &Ssp) -> McConfig {
    let mut mc = McConfig::with_caches(2);
    mc.ordered = ssp.network_ordered;
    // Each protocol is held to the contract its spec declares: SC
    // protocols get the full SWMR + data-value set, TSO-CC gets
    // single-writer, SI/SD gets deadlock freedom only.
    mc.properties = PropertySet::promised(ssp.consistency);
    mc
}

fn assert_conformance(ssp: &Ssp, origin: &str) {
    for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
        let g = generate(ssp, &cfg)
            .unwrap_or_else(|e| panic!("{} [{origin}] ({}): {e}", ssp.name, config_label(&cfg)));
        let r = ModelChecker::new(&g.cache, &g.directory, mc_config_for(ssp)).run();
        assert!(r.passed(), "{} [{origin}] ({}): {:?}", ssp.name, config_label(&cfg), r.violation);
        assert!(r.states > 0, "{} [{origin}]: checker explored no states", ssp.name);
    }
}

/// The builder matrix: every `protogen::protocols::all()` entry × both
/// concurrency configurations generates and verifies at 2 caches.
#[test]
fn all_builder_protocols_conform() {
    let protocols = protogen::protocols::all();
    assert_eq!(protocols.len(), 7, "the bundled protocol suite grew or shrank");
    for ssp in &protocols {
        assert_conformance(ssp, "builder");
    }
}

/// The DSL matrix: every bundled `.pgen` source parses, generates, and
/// verifies at 2 caches in both configurations — the full §IV-A input
/// path, not just the three protocols the equivalence tests cover.
#[test]
fn all_dsl_protocols_conform() {
    for (name, src) in [
        ("MSI", protogen::dsl::MSI_PGEN),
        ("MESI", protogen::dsl::MESI_PGEN),
        ("MOSI", protogen::dsl::MOSI_PGEN),
        ("MSI_Upgrade", protogen::dsl::MSI_UPGRADE_PGEN),
        ("MSI_unordered", protogen::dsl::MSI_UNORDERED_PGEN),
        ("TSO_CC", protogen::dsl::TSO_CC_PGEN),
        ("SI_SD", protogen::dsl::SI_SD_PGEN),
    ] {
        let ssp = protogen::dsl::parse_protocol(src)
            .unwrap_or_else(|e| panic!("bundled {name} source: {e}"));
        assert_eq!(ssp.name, name, "bundled source name drifted");
        assert_conformance(&ssp, "dsl");
    }
}

/// Builder and DSL front-ends agree for *every* bundled protocol: same
/// generated state and transition counts for both machines in both
/// configurations.
#[test]
fn dsl_and_builder_agree_for_every_protocol() {
    for (built, src) in [
        (protogen::protocols::msi(), protogen::dsl::MSI_PGEN),
        (protogen::protocols::mesi(), protogen::dsl::MESI_PGEN),
        (protogen::protocols::mosi(), protogen::dsl::MOSI_PGEN),
        (protogen::protocols::msi_upgrade(), protogen::dsl::MSI_UPGRADE_PGEN),
        (protogen::protocols::msi_unordered(), protogen::dsl::MSI_UNORDERED_PGEN),
        (protogen::protocols::tso_cc(), protogen::dsl::TSO_CC_PGEN),
        (protogen::protocols::si_sd(), protogen::dsl::SI_SD_PGEN),
    ] {
        let from_dsl = protogen::dsl::parse_protocol(src).unwrap();
        for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let g1 = generate(&from_dsl, &cfg).unwrap();
            let g2 = generate(&built, &cfg).unwrap();
            for (m1, m2, which) in
                [(&g1.cache, &g2.cache, "cache"), (&g1.directory, &g2.directory, "directory")]
            {
                assert_eq!(
                    m1.state_count(),
                    m2.state_count(),
                    "{} ({}) {which} states",
                    built.name,
                    config_label(&cfg)
                );
                assert_eq!(
                    m1.transition_count(),
                    m2.transition_count(),
                    "{} ({}) {which} transitions",
                    built.name,
                    config_label(&cfg)
                );
            }
        }
    }
}

/// Minimization is behaviour-preserving: for every bundled protocol in
/// both concurrency configurations, the model-check *verdict* at 2 caches
/// is identical with minimization on and off, and re-minimizing the raw
/// machines reproduces the minimized machines' explored state and
/// transition counts exactly — the IMAS = SMAS merge logic of
/// `crates/core/src/minimize.rs` may only fold states whose behaviour is
/// indistinguishable, never change what the protocol does. (The raw run
/// itself legitimately visits *more* system states: controller-state
/// identity enters the checker's encoding, so two bisimilar-but-unmerged
/// controller states split one orbit in two.)
#[test]
fn minimization_preserves_model_checked_behaviour() {
    use protogen::gen::minimize;
    for ssp in protogen::protocols::all() {
        for base in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let minimized = generate(&ssp, &base).unwrap();
            let mut raw_cfg = base.clone();
            raw_cfg.minimize = false;
            let raw = generate(&ssp, &raw_cfg).unwrap();
            let label = format!("{} ({})", ssp.name, config_label(&base));
            assert!(
                raw.cache.state_count() >= minimized.cache.state_count()
                    && raw.directory.state_count() >= minimized.directory.state_count(),
                "{label}: minimization grew a machine"
            );
            let rm = ModelChecker::new(&minimized.cache, &minimized.directory, mc_config_for(&ssp))
                .run();
            let rr = ModelChecker::new(&raw.cache, &raw.directory, mc_config_for(&ssp)).run();
            assert_eq!(
                rm.violation.as_ref().map(|v| &v.kind),
                rr.violation.as_ref().map(|v| &v.kind),
                "{label}: verdict differs with minimization off"
            );
            assert!(rr.states >= rm.states, "{label}: raw run explored fewer states");
            // The quotient is exact: folding the raw machines yields the
            // same explored behaviour as generating with minimization on.
            let (qc, _) = minimize(&raw.cache);
            let (qd, _) = minimize(&raw.directory);
            assert_eq!(qc.state_count(), minimized.cache.state_count(), "{label}: cache quotient");
            assert_eq!(
                qd.state_count(),
                minimized.directory.state_count(),
                "{label}: directory quotient"
            );
            let rq = ModelChecker::new(&qc, &qd, mc_config_for(&ssp)).run();
            assert_eq!(rq.states, rm.states, "{label}: quotient state count differs");
            assert_eq!(rq.transitions, rm.transitions, "{label}: quotient transitions differ");
            assert_eq!(
                rq.violation.as_ref().map(|v| &v.kind),
                rm.violation.as_ref().map(|v| &v.kind),
                "{label}: quotient verdict differs"
            );
        }
    }
}

/// The traded invariants really are traded: running the *full* invariant
/// set against TSO-CC must find a violation (otherwise the relaxed rows
/// in the matrix above would be vacuous).
#[test]
fn tso_cc_relaxation_is_load_bearing() {
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let r = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(2)).run();
    assert!(
        r.violation.is_some(),
        "TSO-CC passed full SWMR + data-value checks; the conformance relaxation is stale"
    );
}

/// The property system selects what each protocol promises (ISSUE 8's
/// acceptance check): TSO-CC *fails* SWMR under the SC contract and
/// *passes* under its own TSO contract — same machines, different
/// [`PropertySet`].
#[test]
fn property_sets_select_what_each_protocol_promises() {
    use protogen::mc::ViolationKind;
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let run = |properties: PropertySet| {
        let mut mc = McConfig::with_caches(2);
        mc.properties = properties;
        ModelChecker::new(&g.cache, &g.directory, mc).run()
    };
    let sc = run(PropertySet::sc());
    assert!(
        matches!(
            sc.violation.as_ref().map(|v| &v.kind),
            Some(ViolationKind::Swmr(_) | ViolationKind::DataValue(_))
        ),
        "TSO-CC under the SC contract should fail SWMR/data-value, got {:?}",
        sc.violation
    );
    let tso = run(PropertySet::tso());
    assert!(tso.passed(), "TSO-CC under its own contract failed: {:?}", tso.violation);
    // The promised-set resolution is what the conformance matrix uses.
    assert_eq!(PropertySet::promised(ssp.consistency), PropertySet::tso());
}

/// The sharded explorer is thread-count-invariant: for every bundled
/// protocol (both generator configurations) at 2 caches, a 1-worker run
/// and a 4-worker run report identical `states`/`transitions` counts and
/// the same outcome — including the TSO-CC negative control, where both
/// must select the *same* violation kind.
#[test]
fn parallel_and_single_threaded_runs_agree() {
    for ssp in protogen::protocols::all() {
        for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let g = generate(&ssp, &cfg).unwrap();
            let run = |threads: usize| {
                let mut mc = mc_config_for(&ssp);
                mc.threads = threads;
                ModelChecker::new(&g.cache, &g.directory, mc).run()
            };
            let (r1, r4) = (run(1), run(4));
            let label = format!("{} ({})", ssp.name, config_label(&cfg));
            assert_eq!(r1.states, r4.states, "{label}: states diverge across thread counts");
            assert_eq!(r1.transitions, r4.transitions, "{label}: transitions diverge");
            assert_eq!(
                r1.violation.as_ref().map(|v| &v.kind),
                r4.violation.as_ref().map(|v| &v.kind),
                "{label}: violation kind diverges"
            );
            assert_eq!(r1.limit, r4.limit, "{label}: limit diverges");
        }
    }
    // The negative control: TSO-CC under the *full* invariant set fails
    // identically at any thread count.
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let run = |threads: usize| {
        let mut mc = McConfig::with_caches(2);
        mc.threads = threads;
        ModelChecker::new(&g.cache, &g.directory, mc).run()
    };
    let (r1, r4) = (run(1), run(4));
    let v1 = r1.violation.expect("TSO-CC control must fail");
    let v4 = r4.violation.expect("TSO-CC control must fail");
    assert_eq!(v1.kind, v4.kind, "negative control selects different violations");
    assert_eq!(r1.states, r4.states, "negative control: states diverge");
    assert_eq!(r1.transitions, r4.transitions, "negative control: transitions diverge");
}

/// The tiered store is result-invariant (ISSUE 6): for every bundled
/// protocol, verify results are byte-identical across store modes
/// (full / delta / fp-only), across thread counts, and across memory
/// budgets — including a budget tiny enough to force the spill tier on
/// every epoch. Spilling must actually have happened in the forced run,
/// or the "spill-on equals spill-off" half of the claim is vacuous.
#[test]
fn store_tiers_and_memory_budgets_preserve_results() {
    use protogen::mc::StoreMode;
    for ssp in protogen::protocols::all() {
        let cfg = GenConfig::non_stalling();
        let g = generate(&ssp, &cfg).unwrap();
        let run = |threads: usize, store: StoreMode, budget: usize| {
            let mut mc = mc_config_for(&ssp);
            mc.threads = threads;
            mc.store = store;
            mc.mem_budget_bytes = budget;
            mc.spill_chunk_bytes = 1; // clamps up to one page
            ModelChecker::new(&g.cache, &g.directory, mc).run()
        };
        let reference = run(1, StoreMode::Full, 0);
        assert!(reference.passed(), "{}: reference run failed", ssp.name);
        for (threads, store, budget) in [
            (1, StoreMode::Delta, 0),
            (1, StoreMode::FpOnly, 0),
            (4, StoreMode::Delta, 0),
            (1, StoreMode::Full, 1),
            (1, StoreMode::Delta, 1),
            (4, StoreMode::Delta, 1),
            (4, StoreMode::FpOnly, 1),
        ] {
            let r = run(threads, store, budget);
            let label = format!("{} ({threads}t, {store:?}, budget {budget})", ssp.name);
            assert_eq!(reference.states, r.states, "{label}: states diverge");
            assert_eq!(reference.transitions, r.transitions, "{label}: transitions diverge");
            assert_eq!(reference.limit, r.limit, "{label}: limit diverges");
            assert!(r.passed(), "{label}: verdict diverges");
            // Fp-only keeps no records and these 2-cache frontiers stay
            // under one spill chunk, so only the record-keeping modes are
            // guaranteed to spill under a forced budget.
            if budget == 1 && store != StoreMode::FpOnly && cfg!(unix) {
                assert!(r.spill_bytes > 0, "{label}: forced budget never spilled");
            }
            if budget == 0 {
                assert_eq!(r.spill_bytes, 0, "{label}: spilled without a budget");
            }
        }
    }
}

/// Counterexample traces survive the store tiers: the TSO-CC negative
/// control selects the identical violation and byte-identical trace with
/// delta compression on and with a budget forcing visited records to
/// spill (trace reconstruction then reads the spill tier). Fp-only keeps
/// the violation kind but explicitly reports that no trace exists.
#[test]
fn counterexample_traces_survive_store_tiers() {
    use protogen::mc::StoreMode;
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let run = |store: StoreMode, budget: usize| {
        let mut mc = McConfig::with_caches(2);
        mc.threads = 4;
        mc.store = store;
        mc.mem_budget_bytes = budget;
        mc.spill_chunk_bytes = 1;
        ModelChecker::new(&g.cache, &g.directory, mc).run().violation.expect("control fails")
    };
    let reference = run(StoreMode::Full, 0);
    for (store, budget) in [(StoreMode::Delta, 0), (StoreMode::Full, 1), (StoreMode::Delta, 1)] {
        let v = run(store, budget);
        assert_eq!(v.kind, reference.kind, "({store:?}, budget {budget}): kind diverges");
        assert_eq!(v.trace, reference.trace, "({store:?}, budget {budget}): trace diverges");
    }
    let fp = run(StoreMode::FpOnly, 0);
    assert_eq!(fp.kind, reference.kind, "fp-only: violation kind diverges");
    assert_eq!(fp.trace.len(), 1, "fp-only: expected the no-trace notice");
    assert!(fp.trace[0].contains("no counterexample trace"), "{:?}", fp.trace);
}

/// Counterexample traces are byte-identical run to run at any thread
/// count: the end-of-level minimum-selection of violations and the
/// deterministic parent-edge resolution make the trace a pure function of
/// the protocol, not of scheduling.
#[test]
fn counterexample_traces_are_deterministic() {
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let run = |threads: usize| {
        let mut mc = McConfig::with_caches(2);
        mc.threads = threads;
        ModelChecker::new(&g.cache, &g.directory, mc).run().violation.expect("control fails")
    };
    let reference = run(4);
    for attempt in 0..3 {
        let v = run(4);
        assert_eq!(v.kind, reference.kind, "violation kind drifted on attempt {attempt}");
        assert_eq!(v.trace, reference.trace, "trace bytes drifted on attempt {attempt}");
    }
    let single = run(1);
    assert_eq!(single.kind, reference.kind, "violation kind differs at 1 thread");
    assert_eq!(single.trace, reference.trace, "trace bytes differ at 1 thread");
    assert!(!reference.trace.is_empty(), "violation carries no trace");
}

/// The TSO-CC-under-`sc` counterexample, pinned to the text the commit
/// before ISSUE 15's hot-path rework printed: the same SWMR violation and
/// the same six lines at 1, 2 and 4 threads, full and delta stores. A
/// change to the encoding layout, the fingerprint, the canonical
/// representative or a tie-break shows up here as a different trace, so
/// it can only be made deliberately.
#[test]
fn tso_cc_counterexample_trace_is_pinned() {
    use protogen::mc::{StoreMode, ViolationKind};
    let ssp = protogen::protocols::tso_cc();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    for threads in [1, 2, 4] {
        for store in [StoreMode::Full, StoreMode::Delta] {
            let cfg = McConfig { threads, store, ..McConfig::with_caches(2) };
            let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
            let label = format!("{threads} threads, {store:?}");
            assert_eq!((r.states, r.transitions), (64, 132), "{label}");
            let v = r.violation.expect("control fails");
            assert_eq!(
                v.kind,
                ViolationKind::Swmr(
                    "cache n0 holds write permission while n1 holds read permission".into()
                ),
                "{label}"
            );
            assert_eq!(
                v.trace,
                [
                    "n0[I] load",
                    "n0[I] store",
                    "GetS m0[n1→n2 req=n1] -> dir[I]",
                    "GetM m1[n0→n2 req=n0] -> dir[S]",
                    "Data m5[n2→n1 req=n1 data=0] -> n1[IM_D]",
                    "Data m5[n2→n1 req=n1 data=0] -> n1[IS_D]",
                ],
                "{label}"
            );
        }
    }
}

/// A counterexample sixteen steps long, pinned at 1, 2 and 4 threads, in
/// full and delta stores, with and without a memory budget that freezes
/// the visited records to disk: mutant 28 of `fuzz --seed 1 --mutants
/// 500` (MESI non-stalling under three mutations), which the checker
/// catches only at depth 16. A visited state keeps only its parent's id, so
/// every line but the last is a step re-derived from its parent on replay;
/// the text is the one the checker printed when each record stored its
/// step.
#[test]
fn a_sixteen_step_counterexample_is_pinned_across_threads_stores_and_budgets() {
    use protogen::fuzz::{mutate::apply_all, Script};
    use protogen::mc::{StoreMode, ViolationKind};
    let script = Script::parse(
        "protocol mesi\nconfig non-stalling\nmutate swap-transition-target 4\n\
         mutate duplicate-dir-reaction 1\nmutate reorder-wait-arcs 3\n",
    )
    .unwrap();
    let ssp = apply_all(&protogen::protocols::mesi(), &script.mutations).unwrap();
    let g = generate(&ssp, &script.gen_config()).unwrap();
    for threads in [1, 2, 4] {
        for store in [StoreMode::Full, StoreMode::Delta] {
            for budget in [0, 64 << 10] {
                let cfg = McConfig {
                    threads,
                    store,
                    mem_budget_bytes: budget,
                    ..McConfig::with_caches(2)
                };
                let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
                let label = format!("{threads} threads, {store:?}, budget {budget}");
                assert_eq!((r.states, r.transitions), (1069, 2399), "{label}");
                // The budget is below one shard's first record chunk, so
                // the trace walk reads records back from the spill tier.
                assert_eq!(r.visited_spill_bytes > 0, budget > 0 && cfg!(unix), "{label}");
                let v = r.violation.expect("the mutant fails");
                let unexpected = "m6[n2→n0 req=n1] at cache n0 in I";
                assert_eq!(v.kind, ViolationKind::UnexpectedMessage(unexpected.into()), "{label}");
                assert_eq!(
                    v.trace,
                    [
                        "n0[I] load",
                        "n1[I] load",
                        "GetS m0[n0→n2 req=n0] -> dir[I]",
                        "DataE m9[n2→n0 req=n0 data=0] -> n0[IS_D]",
                        "GetS m0[n0→n2 req=n0] -> dir[EM]",
                        "Fwd_GetS m5[n2→n0 req=n1] -> n0[E]",
                        "Data m8[n1→n0 req=n0 data=0] -> n0[IS_D]",
                        "n0[S] store",
                        "GetM m1[n0→n2 req=n0] -> dir[EMS_D]",
                        "Inv m7[n2→n0 req=n1] -> n0[S]",
                        "Data m8[n0→n2 req=n0 data=0] -> dir[EMS_D_EM]",
                        "Inv_Ack m10[n1→n0 req=n0] -> n0[SI_AD]",
                        "Data m8[n2→n0 req=n0 acks=1 data=0] -> n0[SI_AD]",
                        "n0[I] store",
                        "GetM m1[n0→n2 req=n0] -> dir[EM]",
                        &format!("Fwd_GetM m6[n2→n0 req=n1] -> n0[I] => unexpected message: {unexpected}"),
                    ],
                    "{label}"
                );
            }
        }
    }
}

/// Every generated machine, pinned: the digest of the `Debug` text of both
/// controllers and the report (the construction the checkpoint identity
/// hash already trusts) for every bundled protocol × {stalling,
/// non-stalling} × {minimized, raw}, and for each non-default `GenConfig`
/// value the experiment and property tests exercise, on MSI and MOSI.
/// State ids are interning order and arc order is emission order, so any
/// reordering inside the generator — not only a behavioural change — shows
/// up here in seconds. Recorded on the commit before ISSUE 19 moved the
/// generators onto one kernel; a mismatch prints the whole actual table.
#[test]
fn generated_machines_are_pinned() {
    use protogen::gen::{ResponsePolicy, TransientAccessPolicy};
    // (protocol, what is varied, configuration)
    let mut rows: Vec<(&str, String, GenConfig)> = Vec::new();
    for name in protogen::protocols::NAMES {
        for base in [GenConfig::stalling(), GenConfig::non_stalling()] {
            for minimize in [true, false] {
                let what =
                    format!("{} {}", config_label(&base), if minimize { "min" } else { "raw" });
                rows.push((name, what, GenConfig { minimize, ..base.clone() }));
            }
        }
    }
    let d = GenConfig::default;
    let variants: [(&str, GenConfig); 7] = [
        (
            "conservative",
            GenConfig { transient_access: TransientAccessPolicy::Conservative, ..d() },
        ),
        ("immediate", GenConfig { response_policy: ResponsePolicy::Immediate, ..d() }),
        ("L=1", GenConfig { pending_limit: 1, ..d() }),
        ("L=2", GenConfig { pending_limit: 2, ..d() }),
        ("L=4", GenConfig { pending_limit: 4, ..d() }),
        ("no-cleanup", GenConfig { dir_stale_put_cleanup: false, ..d() }),
        ("no-defensive", GenConfig { defensive_stable_handlers: false, ..d() }),
    ];
    for name in ["msi", "mosi"] {
        for (what, cfg) in &variants {
            rows.push((name, what.to_string(), cfg.clone()));
        }
    }
    let actual: Vec<(String, u64)> = rows
        .into_iter()
        .map(|(name, what, cfg)| {
            let label = format!("{name} {what}");
            let ssp = protogen::protocols::by_name(name).expect("bundled protocol");
            let g = generate(&ssp, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            let text = format!("{:?}{:?}{:?}", g.cache, g.directory, g.report);
            (label, protogen::mc::fingerprint_bytes(text.as_bytes()))
        })
        .collect();
    let table: String =
        actual.iter().map(|(l, fp)| format!("        (\"{l}\", {fp:#018x}),\n")).collect();
    assert!(
        actual.iter().map(|(label, fp)| (label.as_str(), *fp)).eq(GENERATED_DIGESTS),
        "generated machines changed; actual table:\n{table}"
    );
}

const GENERATED_DIGESTS: [(&str, u64); 42] = [
    ("msi stalling min", 0x7c5fd0d7a6e567fb),
    ("msi stalling raw", 0x60e9562afdd421ad),
    ("msi non-stalling min", 0xffe19b323930e104),
    ("msi non-stalling raw", 0x348eafd1862dac91),
    ("mesi stalling min", 0xe468f5b87a9dd4ee),
    ("mesi stalling raw", 0xb2706f52d5c61b17),
    ("mesi non-stalling min", 0xc8a151f8a0a361fc),
    ("mesi non-stalling raw", 0xa31e7e92ee2e2ca0),
    ("mosi stalling min", 0x28ffb1f3ab148ab7),
    ("mosi stalling raw", 0x3c58710e9efd3a9d),
    ("mosi non-stalling min", 0xda35c27b370c1383),
    ("mosi non-stalling raw", 0x55c350f5cbb0ebf2),
    ("msi-upgrade stalling min", 0xf1024ee5bf023ad1),
    ("msi-upgrade stalling raw", 0x2c411f2d31a9bb26),
    ("msi-upgrade non-stalling min", 0xfc6e866f3629c61c),
    ("msi-upgrade non-stalling raw", 0xbcc34a2107458e9b),
    ("msi-unordered stalling min", 0xfa0d0127c2291d53),
    ("msi-unordered stalling raw", 0x5eaa01fd691cfdb7),
    ("msi-unordered non-stalling min", 0x26094ec1e07b67c4),
    ("msi-unordered non-stalling raw", 0xebd0ddc9a71d5657),
    ("tso-cc stalling min", 0xd9dc6d07b4d1dc66),
    ("tso-cc stalling raw", 0xd9dc6d07b4d1dc66),
    ("tso-cc non-stalling min", 0x33b7fa9099c478a1),
    ("tso-cc non-stalling raw", 0x8039a840ce14673a),
    ("si-sd stalling min", 0xdce8dba97902826f),
    ("si-sd stalling raw", 0xdce8dba97902826f),
    ("si-sd non-stalling min", 0xdce8dba97902826f),
    ("si-sd non-stalling raw", 0xdce8dba97902826f),
    ("msi conservative", 0x802aef74839ebd05),
    ("msi immediate", 0xffe19b323930e104),
    ("msi L=1", 0x4d97d030488d3603),
    ("msi L=2", 0x46c9a74f3d97a241),
    ("msi L=4", 0x9cad6b60239cd643),
    ("msi no-cleanup", 0x5b462c1d2eda9ad1),
    ("msi no-defensive", 0xfc63f05f1482fea6),
    ("mosi conservative", 0x08dd2e25ddda19d7),
    ("mosi immediate", 0xda35c27b370c1383),
    ("mosi L=1", 0xcde4936d0c0a0751),
    ("mosi L=2", 0x5e08baa973b0a48c),
    ("mosi L=4", 0x5641bb4197a042a2),
    ("mosi no-cleanup", 0xb01101c3e1d16b05),
    ("mosi no-defensive", 0x714ab437d6e72b45),
];

/// The front end and the table renderer, pinned the same way: the digest
/// of the `Debug` text of the SSP each bundled `.pgen` source parses to,
/// and of every table the renderer draws from the machines generated from
/// it — cache and directory, in aligned, Markdown and show-defensive mode,
/// stalling and non-stalling. Recorded on the commit before the lexer
/// moved to bytes and tables to one grouping pass; a mismatch prints the
/// whole actual table.
#[test]
fn front_end_outputs_are_pinned() {
    use protogen::backend::{render_table, TableOptions};
    use protogen::dsl;
    let sources = [
        ("msi.pgen", dsl::MSI_PGEN),
        ("mesi.pgen", dsl::MESI_PGEN),
        ("mosi.pgen", dsl::MOSI_PGEN),
        ("msi_upgrade.pgen", dsl::MSI_UPGRADE_PGEN),
        ("msi_unordered.pgen", dsl::MSI_UNORDERED_PGEN),
        ("tso_cc.pgen", dsl::TSO_CC_PGEN),
        ("si_sd.pgen", dsl::SI_SD_PGEN),
    ];
    let modes = [
        TableOptions::default(),
        TableOptions { markdown: true, ..TableOptions::default() },
        TableOptions { hide_defensive: false, ..TableOptions::default() },
    ];
    let fp = |text: String| protogen::mc::fingerprint_bytes(text.as_bytes());
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (file, src) in sources {
        let ssp = dsl::parse_protocol(src).unwrap_or_else(|e| panic!("{file}: {e}"));
        actual.push((format!("{file} parse"), fp(format!("{ssp:?}"))));
        for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let g = generate(&ssp, &cfg).unwrap_or_else(|e| panic!("{file}: {e}"));
            for (machine, fsm) in [("cache", &g.cache), ("dir", &g.directory)] {
                let text = modes.iter().map(|o| render_table(fsm, o)).collect();
                actual.push((format!("{file} {} {machine}", config_label(&cfg)), fp(text)));
            }
        }
    }
    let table: String =
        actual.iter().map(|(l, fp)| format!("        (\"{l}\", {fp:#018x}),\n")).collect();
    assert!(
        actual.iter().map(|(label, fp)| (label.as_str(), *fp)).eq(FRONT_END_DIGESTS),
        "front-end output changed; actual table:\n{table}"
    );
}

const FRONT_END_DIGESTS: [(&str, u64); 35] = [
    ("msi.pgen parse", 0x98d75246e8bb9790),
    ("msi.pgen stalling cache", 0x4982a90aabc75825),
    ("msi.pgen stalling dir", 0x75621fbacb303595),
    ("msi.pgen non-stalling cache", 0x6f438d517d8982b8),
    ("msi.pgen non-stalling dir", 0x211e6a4b3ea07c10),
    ("mesi.pgen parse", 0x85584b4ece23ae1a),
    ("mesi.pgen stalling cache", 0x82ddad3fed72827d),
    ("mesi.pgen stalling dir", 0xf00dc7fff1c1de53),
    ("mesi.pgen non-stalling cache", 0x37b5abd7d0dd233b),
    ("mesi.pgen non-stalling dir", 0x572ca200a1481cb5),
    ("mosi.pgen parse", 0xa3717d85ffa25f43),
    ("mosi.pgen stalling cache", 0x06d572e3f85290f4),
    ("mosi.pgen stalling dir", 0x989857decdf60c0f),
    ("mosi.pgen non-stalling cache", 0x956b059b26ad7431),
    ("mosi.pgen non-stalling dir", 0x989857decdf60c0f),
    ("msi_upgrade.pgen parse", 0x18a06072fbb95ea3),
    ("msi_upgrade.pgen stalling cache", 0x763fc5c994cdb919),
    ("msi_upgrade.pgen stalling dir", 0x1e511b5d844c4a06),
    ("msi_upgrade.pgen non-stalling cache", 0xe3459c84150698b3),
    ("msi_upgrade.pgen non-stalling dir", 0x4f9cd8c7f483578f),
    ("msi_unordered.pgen parse", 0xdef16a91b0d95dfe),
    ("msi_unordered.pgen stalling cache", 0xf1c36b299e2dbcf1),
    ("msi_unordered.pgen stalling dir", 0x5138d37329ac55ba),
    ("msi_unordered.pgen non-stalling cache", 0x49425fb592edfe03),
    ("msi_unordered.pgen non-stalling dir", 0x5138d37329ac55ba),
    ("tso_cc.pgen parse", 0xd7a441a9f75bd2e3),
    ("tso_cc.pgen stalling cache", 0xba7a62b9b5790941),
    ("tso_cc.pgen stalling dir", 0x5fbc306fad4516f3),
    ("tso_cc.pgen non-stalling cache", 0xd80e93b3902cfe26),
    ("tso_cc.pgen non-stalling dir", 0x11d0bca00aa03d98),
    ("si_sd.pgen parse", 0x3a362e41532ac472),
    ("si_sd.pgen stalling cache", 0x08accc082a0b862a),
    ("si_sd.pgen stalling dir", 0x37f5ab9d0e2c68ff),
    ("si_sd.pgen non-stalling cache", 0x08accc082a0b862a),
    ("si_sd.pgen non-stalling dir", 0x37f5ab9d0e2c68ff),
];

/// The same determinism spine on a composed stack: the fuzz campaign's
/// glue-weakened control (2×2 MSI-under-MSI, `GetM` gate `ReadWrite →
/// Read`) yields the byte-identical SWMR violation and counterexample
/// trace at 1, 2 and 4 threads, with delta compression on, and through
/// the spilled-record path (a 1-byte budget freezes visited records to
/// disk, so trace reconstruction reads the spill tier).
#[test]
fn composed_counterexample_traces_are_deterministic() {
    use protogen::mc::{HierChecker, HierConfig, StoreMode, ViolationKind};
    let (comp, mutation) = protogen::fuzz::glue_control();
    let mut composed = protogen::gen::compose(&comp, &GenConfig::stalling()).unwrap();
    protogen::fuzz::apply_glue(&mut composed, mutation).unwrap();
    let run = |threads: usize, store: StoreMode, budget: usize| {
        let cfg = HierConfig {
            threads,
            store,
            mem_budget_bytes: budget,
            spill_chunk_bytes: 1,
            ..HierConfig::default()
        };
        let r = HierChecker::new(&composed, cfg).check();
        assert_eq!(r.spill_bytes > 0, budget > 0 && cfg!(unix), "({threads}t, budget {budget})");
        (r.states, r.transitions, r.violation.expect("the glue control must fail"))
    };
    let reference = run(1, StoreMode::Full, 0);
    assert!(matches!(reference.2.kind, ViolationKind::Swmr(_)), "{:?}", reference.2.kind);
    assert!(reference.2.trace.len() > 1, "violation carries no trace");
    for (threads, store, budget) in [
        (2, StoreMode::Full, 0),
        (4, StoreMode::Full, 0),
        (4, StoreMode::Delta, 0),
        (2, StoreMode::Full, 1),
    ] {
        let r = run(threads, store, budget);
        let label = format!("({threads}t, {store:?}, budget {budget})");
        assert_eq!((r.0, r.1), (reference.0, reference.1), "{label}: counts diverge");
        assert_eq!(r.2.kind, reference.2.kind, "{label}: violation kind diverges");
        assert_eq!(r.2.trace, reference.2.trace, "{label}: trace bytes diverge");
    }
}

/// Litmus verdicts follow the same discipline as `verify`: the full
/// classification report — outcome sets and explored state counts
/// included — is identical for any worker count. Enumeration is
/// exhaustive, so shard scheduling may never change what a protocol can
/// observably do. The subset here is the weak-memory pair on the tests
/// that separate the models (the full matrix is PR CI's litmus job).
#[test]
fn litmus_verdicts_are_thread_count_invariant() {
    use protogen::litmus::{bundled, run_suite, Verdict, MAX_STATES};
    let ssps = vec![protogen::protocols::tso_cc(), protogen::protocols::si_sd()];
    let tests: Vec<_> =
        bundled().into_iter().filter(|t| matches!(t.name.as_str(), "SB" | "MP")).collect();
    assert_eq!(tests.len(), 2, "the bundled litmus suite lost SB or MP");
    let reference = run_suite(&ssps, &tests, MAX_STATES, 1).unwrap();
    for workers in [2, 3, 4] {
        let r = run_suite(&ssps, &tests, MAX_STATES, workers).unwrap();
        assert_eq!(reference, r, "litmus report diverged at workers={workers}");
    }
    // The subset is not vacuous: TSO-CC shows store buffering on SB and
    // SI/SD breaks message passing.
    assert_eq!(reference.protocols[0].verdict(), Verdict::Tso);
    assert_eq!(reference.protocols[1].verdict(), Verdict::Weak);
}

/// `ModelChecker::steps` enumerates scheduling decisions in a canonical
/// order — deliveries by `(src, dst, idx)` before accesses by `(cache,
/// access)` — that depends only on the state, never on thread
/// interleaving.
#[test]
fn step_enumeration_order_is_canonical() {
    use protogen::mc::Step;
    let ssp = protogen::protocols::msi();
    let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
    let mc = ModelChecker::new(&g.cache, &g.directory, McConfig::with_caches(3));
    let mut state = protogen::mc::SysState::initial(3);
    // Seed a few in-flight messages out of enumeration order.
    for (src, dst) in [(2u8, 3u8), (0, 3), (3, 1)] {
        state.send(protogen::runtime::Msg {
            mtype: protogen::spec::MsgId(0),
            src: protogen::runtime::NodeId(src),
            dst: protogen::runtime::NodeId(dst),
            req: protogen::runtime::NodeId(src),
            ack_count: None,
            data: None,
        });
    }
    let steps = mc.steps(&state);
    assert_eq!(steps, mc.steps(&state), "steps() is not stable");
    let mut sorted = steps.clone();
    sorted.sort();
    assert_eq!(steps, sorted, "steps() is not in canonical sorted order");
    let first_access = steps.iter().position(|s| matches!(s, Step::IssueAccess { .. }));
    let last_delivery = steps.iter().rposition(|s| matches!(s, Step::Deliver { .. }));
    if let (Some(a), Some(d)) = (first_access, last_delivery) {
        assert!(d < a, "a delivery was enumerated after an access");
    }
    // 3 deliveries + 3 caches × 3 accesses.
    assert_eq!(steps.len(), 3 + 9);
}
