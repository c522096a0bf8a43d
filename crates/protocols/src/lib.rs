//! The stable state protocols evaluated by the ProtoGen paper.
//!
//! Every protocol here is an *atomic* specification — just the stable
//! states, as an architect would write them on a whiteboard. Feeding one to
//! `protogen_core::generate` produces the full concurrent protocol.
//!
//! Each protocol is written once, in the paper's DSL (§IV-A): the bundled
//! `.pgen` source in `crates/dsl/protocols/`. The functions below return
//! that source parsed, parsing it at most once per process.
//!
//! | Function | Source | Protocol | Paper section |
//! |---|---|---|---|
//! | [`msi`] | `msi.pgen` | Three-state MSI (Tables I/II) | §VI-A/B |
//! | [`mesi`] | `mesi.pgen` | MESI with exclusive-clean state and silent upgrade | §VI-A/B |
//! | [`mosi`] | `mosi.pgen` | MOSI with owned state (preprocessing demo, Tables III/IV) | §VI-A/B |
//! | [`msi_upgrade`] | `msi_upgrade.pgen` | MSI + Upgrade requests (reinterpretation) | §V-D1 |
//! | [`msi_unordered`] | `msi_unordered.pgen` | MSI with handshakes for unordered networks | §VI-C |
//! | [`tso_cc`] | `tso_cc.pgen` | Simplified TSO-CC (no sharer tracking) | §VI-D |
//! | [`si_sd`] | `si_sd.pgen` | Self-invalidate/self-downgrade (VIPS-M family) | related work |
//!
//! # Example
//!
//! ```
//! let ssp = protogen_protocols::msi();
//! assert_eq!(ssp.cache.states.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod sanity;

pub use compose::{flat_composition, msi_under_mesi, msi_under_msi};
pub use sanity::{sim_sanity, SimSanity};

use protogen_spec::Ssp;
use std::sync::OnceLock;

/// The CLI names of the built-in protocols, in [`all`]'s order.
pub const NAMES: [&str; 7] =
    ["msi", "mesi", "mosi", "msi-upgrade", "msi-unordered", "tso-cc", "si-sd"];

/// The DSL source of each built-in protocol, in [`NAMES`] order.
const SOURCES: [&str; 7] = [
    protogen_dsl::MSI_PGEN,
    protogen_dsl::MESI_PGEN,
    protogen_dsl::MOSI_PGEN,
    protogen_dsl::MSI_UPGRADE_PGEN,
    protogen_dsl::MSI_UNORDERED_PGEN,
    protogen_dsl::TSO_CC_PGEN,
    protogen_dsl::SI_SD_PGEN,
];

/// The built-in protocol at `index` in [`NAMES`] order: parsed on the first
/// call, cloned on every call after it.
fn bundled(index: usize) -> Ssp {
    static PARSED: [OnceLock<Ssp>; 7] = [const { OnceLock::new() }; 7];
    PARSED[index]
        .get_or_init(|| {
            protogen_dsl::parse_protocol(SOURCES[index])
                .unwrap_or_else(|e| panic!("bundled protocol {}: {e}", NAMES[index]))
        })
        .clone()
}

/// The atomic MSI protocol: Tables I and II of the paper.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::msi();
/// assert_eq!(ssp.cache.states.len(), 3);
/// assert_eq!(ssp.directory.states.len(), 3);
/// ```
pub fn msi() -> Ssp {
    bundled(0)
}

/// The atomic MESI protocol: MSI plus an exclusive-clean E state that
/// upgrades to M silently, so the directory tracks E and M as one EM state.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::mesi();
/// assert_eq!(ssp.cache.states.len(), 4);
/// assert_eq!(ssp.directory.states.len(), 3);
/// ```
pub fn mesi() -> Ssp {
    bundled(1)
}

/// The atomic MOSI protocol: MSI plus an owned O state. `Fwd_GetS` arrives
/// at M and O, the paper's preprocessing example (Tables III and IV).
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::mosi();
/// assert_eq!(ssp.cache.states.len(), 4);
/// assert_eq!(ssp.directory.states.len(), 4);
/// ```
pub fn mosi() -> Ssp {
    bundled(2)
}

/// The atomic MSI+Upgrade protocol (§V-D1): stores from S issue `Upgrade`,
/// which the generated directory reinterprets as a GetM once the upgrader
/// has lost its copy.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::msi_upgrade();
/// assert!(ssp.msg_by_name("Upgrade").is_some());
/// ```
pub fn msi_upgrade() -> Ssp {
    bundled(3)
}

/// The atomic MSI protocol for unordered networks (§VI-C): the ownership
/// handoff is a directory transaction confirmed by `Fwd_Ack`.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::msi_unordered();
/// assert!(!ssp.network_ordered);
/// assert!(ssp.msg_by_name("Fwd_Ack").is_some());
/// ```
pub fn msi_unordered() -> Ssp {
    bundled(4)
}

/// The simplified TSO-CC protocol (§VI-D): no invalidations and no sharer
/// tracking; shared copies self-invalidate as whole-cache epochs.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::tso_cc();
/// // No invalidation message exists: stores are acknowledgment-free.
/// assert!(ssp.msg_by_name("Inv").is_none());
/// ```
pub fn tso_cc() -> Ssp {
    bundled(5)
}

/// The self-invalidate/self-downgrade protocol (VIPS-M family): the
/// directory is an owner registry that never forwards, invalidates or
/// stalls, so the protocol promises only weak consistency.
///
/// # Example
///
/// ```
/// let ssp = protogen_protocols::si_sd();
/// // The directory never forwards or invalidates: no forward-class
/// // message exists at all.
/// assert!(ssp.messages.iter().all(|m| m.class != protogen_spec::MsgClass::Forward));
/// assert_eq!(ssp.consistency, protogen_spec::MemoryModel::Weak);
/// ```
pub fn si_sd() -> Ssp {
    bundled(6)
}

/// All built-in protocols, in [`NAMES`] order, for sweeps and benchmarks.
pub fn all() -> Vec<Ssp> {
    (0..NAMES.len()).map(bundled).collect()
}

/// Looks a protocol up by its CLI name (see [`NAMES`]).
pub fn by_name(name: &str) -> Option<Ssp> {
    NAMES.iter().position(|&n| n == name).map(bundled)
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_protocols_validate() {
        for ssp in super::all() {
            ssp.validate().unwrap_or_else(|e| panic!("{}: {e}", ssp.name));
        }
    }
}

// The unit tests of each protocol, one module per protocol, so every test
// is named `<protocol>::tests::<test>`.

#[cfg(test)]
mod msi {
    mod tests {
        use crate::msi;
        use protogen_spec::{MsgClass, Trigger};

        #[test]
        fn msi_is_valid() {
            let ssp = msi();
            assert_eq!(ssp.name, "MSI");
            assert!(ssp.network_ordered);
        }

        #[test]
        fn forwards_arrive_at_unique_states() {
            // Table I: Fwd-GetS and Fwd-GetM at M only; Inv at S only. The
            // SSP already satisfies the §V-A invariant without preprocessing.
            let ssp = msi();
            for (name, state) in [("Fwd_GetS", "M"), ("Fwd_GetM", "M"), ("Inv", "S")] {
                let m = ssp.msg_by_name(name).unwrap();
                let arrivals: Vec<_> = ssp
                    .cache
                    .state_ids()
                    .filter(|&s| ssp.cache.handles(s, Trigger::Msg(m)))
                    .collect();
                assert_eq!(arrivals.len(), 1, "{name}");
                assert_eq!(arrivals[0], ssp.cache.state_by_name(state).unwrap(), "{name}");
            }
        }

        #[test]
        fn message_classes_match_roles() {
            let ssp = msi();
            assert_eq!(ssp.msg(ssp.msg_by_name("GetS").unwrap()).class, MsgClass::Request);
            assert_eq!(ssp.msg(ssp.msg_by_name("Inv").unwrap()).class, MsgClass::Forward);
            assert_eq!(ssp.msg(ssp.msg_by_name("Data").unwrap()).class, MsgClass::Response);
            assert!(ssp.msg(ssp.msg_by_name("Data").unwrap()).carries_data);
            assert!(ssp.msg(ssp.msg_by_name("PutM").unwrap()).carries_data);
            assert!(!ssp.msg(ssp.msg_by_name("PutS").unwrap()).carries_data);
        }
    }
}

#[cfg(test)]
mod mesi {
    mod tests {
        use crate::mesi;
        use protogen_spec::{Access, Effect, Trigger};

        #[test]
        fn mesi_is_valid() {
            let ssp = mesi();
            assert_eq!(ssp.name, "MESI");
        }

        #[test]
        fn forwards_arrive_at_e_and_m() {
            let ssp = mesi();
            let f = ssp.msg_by_name("Fwd_GetS").unwrap();
            let arrivals: Vec<_> = ssp
                .cache
                .state_ids()
                .filter(|&s| ssp.cache.handles(s, Trigger::Msg(f)))
                .map(|s| ssp.cache.state(s).name.clone())
                .collect();
            assert_eq!(arrivals, vec!["E".to_string(), "M".to_string()]);
        }

        #[test]
        fn silent_upgrade_is_a_local_store() {
            let ssp = mesi();
            let e = ssp.cache.state_by_name("E").unwrap();
            let m = ssp.cache.state_by_name("M").unwrap();
            let entries = ssp.cache.entries_for(e, Trigger::Access(Access::Store));
            assert_eq!(entries.len(), 1);
            match &entries[0].effect {
                Effect::Local { next, .. } => assert_eq!(*next, Some(m)),
                other => panic!("expected silent upgrade, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod mosi {
    mod tests {
        use crate::mosi;
        use protogen_spec::{Access, Effect, Trigger};

        #[test]
        fn mosi_is_valid() {
            let ssp = mosi();
            assert_eq!(ssp.name, "MOSI");
        }

        #[test]
        fn fwd_gets_arrives_at_m_and_o_before_preprocessing() {
            // Tables III/IV: the natural SSP lets Fwd_GetS arrive at both M
            // and O; preprocessing (tested in protogen-core) renames O's copy.
            let ssp = mosi();
            let f = ssp.msg_by_name("Fwd_GetS").unwrap();
            let arrivals: Vec<_> = ssp
                .cache
                .state_ids()
                .filter(|&s| ssp.cache.handles(s, Trigger::Msg(f)))
                .map(|s| ssp.cache.state(s).name.clone())
                .collect();
            assert_eq!(arrivals, vec!["O".to_string(), "M".to_string()]);
        }

        #[test]
        fn owner_upgrade_awaits_count_not_data() {
            let ssp = mosi();
            let o = ssp.cache.state_by_name("O").unwrap();
            let entries = ssp.cache.entries_for(o, Trigger::Access(Access::Store));
            let Effect::Issue { chain, .. } = &entries[0].effect else {
                panic!("O store should issue");
            };
            assert_eq!(chain.nodes[0].tag, "AC");
        }
    }
}

#[cfg(test)]
mod msi_upgrade {
    mod tests {
        use crate::msi_upgrade;
        use protogen_spec::{Access, Action, Effect, Trigger};

        #[test]
        fn upgrade_is_valid() {
            msi_upgrade().validate().unwrap();
        }

        #[test]
        fn store_from_s_issues_upgrade_not_getm() {
            let ssp = msi_upgrade();
            let s = ssp.cache.state_by_name("S").unwrap();
            let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Store));
            let Effect::Issue { request, .. } = &entries[0].effect else {
                panic!("S store should issue");
            };
            let upgrade = ssp.msg_by_name("Upgrade").unwrap();
            assert!(request.iter().any(|a| matches!(a, Action::Send(sp) if sp.msg == upgrade)));
        }

        #[test]
        fn upgrade_wait_accepts_count_or_data() {
            // The upgrader may receive AckCount (it won) or Data (it lost and
            // the directory reinterpreted the Upgrade as a GetM).
            let ssp = msi_upgrade();
            let s = ssp.cache.state_by_name("S").unwrap();
            let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Store));
            let Effect::Issue { chain, .. } = &entries[0].effect else {
                panic!("S store should issue");
            };
            let msgs: Vec<_> = chain.nodes[0].arcs.iter().map(|a| a.msg).collect();
            assert!(msgs.contains(&ssp.msg_by_name("AckCount").unwrap()));
            assert!(msgs.contains(&ssp.msg_by_name("Data").unwrap()));
        }
    }
}

#[cfg(test)]
mod msi_unordered {
    mod tests {
        use crate::msi_unordered;
        use protogen_spec::{Effect, Trigger};

        #[test]
        fn unordered_is_valid() {
            let ssp = msi_unordered();
            assert!(!ssp.network_ordered);
        }

        #[test]
        fn handoff_blocks_for_confirmation() {
            let ssp = msi_unordered();
            let dm = ssp.directory.state_by_name("M").unwrap();
            let get_m = ssp.msg_by_name("GetM").unwrap();
            let entries = ssp.directory.entries_for(dm, Trigger::Msg(get_m));
            assert!(matches!(entries[0].effect, Effect::Issue { .. }));
        }
    }
}

#[cfg(test)]
mod tso_cc {
    mod tests {
        use crate::tso_cc;
        use protogen_spec::{Access, Action, Effect, Trigger};

        #[test]
        fn tso_cc_is_valid() {
            tso_cc().validate().unwrap();
        }

        #[test]
        fn no_invalidations_or_sharer_tracking() {
            let ssp = tso_cc();
            assert!(ssp.msg_by_name("Inv").is_none());
            assert!(ssp.msg_by_name("Inv_Ack").is_none());
            // No directory action ever touches a sharer list.
            for e in &ssp.directory.entries {
                let actions = match &e.effect {
                    Effect::Local { actions, .. } => actions,
                    Effect::Issue { request, .. } => request,
                };
                for a in actions {
                    assert!(
                        !matches!(
                            a,
                            Action::AddReqToSharers
                                | Action::AddOwnerToSharers
                                | Action::RemoveReqFromSharers
                                | Action::ClearSharers
                        ),
                        "sharer tracking found: {a}"
                    );
                }
            }
        }

        #[test]
        fn shared_eviction_is_silent() {
            let ssp = tso_cc();
            let s = ssp.cache.state_by_name("S").unwrap();
            let entries = ssp.cache.entries_for(s, Trigger::Access(Access::Replacement));
            assert_eq!(entries.len(), 1);
            match &entries[0].effect {
                Effect::Local { actions, next } => {
                    assert!(actions.iter().all(|a| !matches!(a, Action::Send(_))));
                    assert_eq!(*next, Some(ssp.cache.state_by_name("I").unwrap()));
                }
                other => panic!("expected silent eviction, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod si_sd {
    mod tests {
        use crate::si_sd;
        use protogen_spec::{
            Access, Action, Dst, Effect, EntryNote, MemoryModel, MsgClass, Trigger,
        };

        #[test]
        fn si_sd_is_valid() {
            si_sd().validate().unwrap();
        }

        #[test]
        fn declares_weak_per_line_semantics() {
            let ssp = si_sd();
            assert_eq!(ssp.consistency, MemoryModel::Weak);
            assert!(!ssp.si_epoch);
        }

        #[test]
        fn si_and_sd_entries_carry_their_notes() {
            let ssp = si_sd();
            let s = ssp.cache.state_by_name("S").unwrap();
            let m = ssp.cache.state_by_name("M").unwrap();
            let si = ssp.cache.entries_for(s, Trigger::Access(Access::Replacement));
            assert_eq!(si.len(), 1);
            assert_eq!(si[0].note, EntryNote::SelfInvalidate);
            let sd = ssp.cache.entries_for(m, Trigger::Access(Access::Replacement));
            assert_eq!(sd.len(), 1);
            assert_eq!(sd[0].note, EntryNote::SelfDowngrade);
            // SD is a transaction (the writeback awaits its ack), SI is local.
            assert!(matches!(sd[0].effect, Effect::Issue { .. }));
            assert!(matches!(si[0].effect, Effect::Local { .. }));
        }

        #[test]
        fn directory_never_forwards_or_invalidates() {
            let ssp = si_sd();
            assert!(ssp.messages.iter().all(|m| m.class != MsgClass::Forward));
            // Every directory entry is Local (no transient directory states)
            // and never sends to anyone but the requestor.
            for e in &ssp.directory.entries {
                match &e.effect {
                    Effect::Local { actions, .. } => {
                        for a in actions {
                            if let Action::Send(sp) = a {
                                assert_eq!(sp.dst, Dst::Req, "directory sent {a}");
                            }
                        }
                    }
                    other => panic!("directory has a transient effect: {other:?}"),
                }
            }
        }
    }
}
