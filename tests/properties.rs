//! Property-based tests on generator and runtime invariants.

use proptest::prelude::*;
use protogen::gen::{generate, minimize, preprocess, GenConfig};
use protogen::mc::{permutations, SysState};
use protogen::sim::{simulate, NetworkConfig, SimConfig, Workload};
use protogen_runtime::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn any_gen_config() -> impl Strategy<Value = GenConfig> {
    (any::<bool>(), any::<bool>(), any::<bool>(), 1usize..=4).prop_map(
        |(stalling, conservative, cleanup, limit)| {
            let mut cfg = if stalling { GenConfig::stalling() } else { GenConfig::non_stalling() };
            cfg.transient_access = if conservative {
                protogen::gen::TransientAccessPolicy::Conservative
            } else {
                protogen::gen::TransientAccessPolicy::Paper
            };
            cfg.dir_stale_put_cleanup = cleanup;
            cfg.pending_limit = limit;
            cfg
        },
    )
}

fn protocol_index() -> impl Strategy<Value = usize> {
    0usize..protogen::protocols::all().len()
}

fn any_workload() -> impl Strategy<Value = Workload> {
    (0usize..6, 0u8..=100).prop_map(|(kind, store_pct)| match kind {
        0 => Workload::Uniform { store_pct },
        1 => Workload::Zipfian { store_pct },
        2 => Workload::ProducerConsumer,
        3 => Workload::Migratory,
        4 => Workload::FalseSharing,
        _ => Workload::Private,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generation never panics or errors over the whole configuration
    /// space, and always yields well-formed machines: state 0 stable,
    /// every arc in range, every stall a self-loop.
    #[test]
    fn generation_is_total_and_wellformed(cfg in any_gen_config(), pi in protocol_index()) {
        let ssp = &protogen::protocols::all()[pi];
        let g = generate(ssp, &cfg).expect("generation succeeds");
        for fsm in [&g.cache, &g.directory] {
            prop_assert!(fsm.state(protogen::spec::FsmStateId(0)).is_stable());
            for a in &fsm.arcs {
                prop_assert!(a.from.as_usize() < fsm.state_count());
                prop_assert!(a.to.as_usize() < fsm.state_count());
                if a.kind == protogen::spec::ArcKind::Stall {
                    prop_assert_eq!(a.from, a.to);
                    prop_assert!(a.actions.is_empty());
                }
            }
        }
    }

    /// Preprocessing is idempotent: the renamed protocol needs no further
    /// renames.
    #[test]
    fn preprocessing_is_idempotent(pi in protocol_index()) {
        let ssp = &protogen::protocols::all()[pi];
        let (once, _) = preprocess(ssp).expect("preprocess");
        let (twice, renames) = preprocess(&once).expect("preprocess again");
        prop_assert!(renames.is_empty());
        prop_assert_eq!(once, twice);
    }

    /// Minimization is idempotent and never grows the machine.
    #[test]
    fn minimization_is_idempotent(cfg in any_gen_config(), pi in protocol_index()) {
        let ssp = &protogen::protocols::all()[pi];
        let g = generate(ssp, &cfg).expect("generation succeeds");
        for fsm in [&g.cache, &g.directory] {
            let (again, merges) = minimize(fsm);
            prop_assert!(merges.is_empty(), "{:?}", merges);
            prop_assert_eq!(again.state_count(), fsm.state_count());
        }
    }

    /// Symmetry canonicalization: permuting cache identities never changes
    /// the canonical encoding (the Murϕ scalarset property).
    #[test]
    fn canonical_encoding_is_permutation_invariant(
        owner in 0u8..3,
        sharers in 0u8..8,
        ghost in 0u8..2,
        perm_idx in 0usize..6,
    ) {
        let perms = permutations(3);
        let mut s = SysState::initial(3);
        s.dir.owner = Some(NodeId(owner));
        s.dir.sharers = sharers;
        s.ghost = ghost;
        let permuted = s.permuted(&perms[perm_idx]);
        prop_assert_eq!(
            s.canonical_encoding(&perms),
            permuted.canonical_encoding(&perms)
        );
    }

    /// Every verified protocol completes every workload in simulation —
    /// no livelock, no lost accesses — under random parameters.
    #[test]
    fn simulation_always_completes(
        pi in protocol_index(),
        stalling in any::<bool>(),
        seed in any::<u64>(),
        workload in any_workload(),
        latency in 1u64..20,
    ) {
        let ssp = &protogen::protocols::all()[pi];
        let cfg = if stalling { GenConfig::stalling() } else { GenConfig::non_stalling() };
        let g = generate(ssp, &cfg).expect("generation succeeds");
        let sim_cfg = SimConfig {
            n_caches: 3,
            n_addrs: 3,
            accesses_per_core: 30,
            workload,
            seed,
            network: NetworkConfig::ordered(latency),
            ..SimConfig::default()
        };
        let r = simulate(&g.cache, &g.directory, &sim_cfg).expect("simulation completes");
        prop_assert_eq!(r.completed, 90);
    }

    /// Every bundled DSL source — the SI/SD and TSO-CC weak-memory specs
    /// included — is blind to formatting noise: comment lines injected at
    /// random line boundaries of the source itself leave the parsed AST
    /// and the lowered SSP unchanged.
    #[test]
    fn dsl_sources_round_trip_through_parse_lower_render(
        pi in 0usize..7,
        noise in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..8),
    ) {
        let src = [
            protogen::dsl::MSI_PGEN,
            protogen::dsl::MESI_PGEN,
            protogen::dsl::MOSI_PGEN,
            protogen::dsl::MSI_UPGRADE_PGEN,
            protogen::dsl::MSI_UNORDERED_PGEN,
            protogen::dsl::TSO_CC_PGEN,
            protogen::dsl::SI_SD_PGEN,
        ][pi];
        let ast = protogen::dsl::parse(src).expect("bundled source parses");
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        for (pos, text) in &noise {
            let at = (*pos as usize) % (lines.len() + 1);
            lines.insert(at, format!("// noise {text:016x}"));
        }
        let noisy = lines.join("\n");
        let again = protogen::dsl::parse(&noisy).expect("source parses under comment noise");
        prop_assert_eq!(&ast, &again, "comment noise changed the AST");
        let direct = protogen::dsl::lower(&ast).expect("bundled source lowers");
        let round = protogen::dsl::lower(&again).expect("noisy source lowers");
        prop_assert_eq!(direct, round);
    }

    /// Every synthetic workload generator emits only operations that are
    /// valid for the configured system — addresses within `n_addrs`, one
    /// schedule per core of exactly the requested length — and expansion
    /// is a pure function of the seed.
    #[test]
    fn workload_generators_emit_only_valid_ops(
        workload in any_workload(),
        n_caches in 1usize..=8,
        n_addrs in 1usize..=16,
        accesses in 0usize..=60,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedules = workload
            .schedules(n_caches, n_addrs, accesses, &mut rng)
            .expect("synthetic workloads expand for any non-empty system");
        prop_assert_eq!(schedules.len(), n_caches);
        for ops in &schedules {
            prop_assert_eq!(ops.len(), accesses);
            for op in ops {
                prop_assert!(
                    (op.addr as usize) < n_addrs,
                    "{} emitted address {} with n_addrs {}",
                    workload.label(),
                    op.addr,
                    n_addrs
                );
            }
        }
        let mut rng2 = StdRng::seed_from_u64(seed);
        let replay = workload.schedules(n_caches, n_addrs, accesses, &mut rng2).unwrap();
        prop_assert_eq!(schedules, replay);
    }
}
