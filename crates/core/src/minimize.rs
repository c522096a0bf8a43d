//! FSM minimization: merge behaviourally identical transient states.
//!
//! §VI-B observes that ProtoGen "was able to merge some states that were
//! kept separate in the primer like IMAS = SMAS". We implement Moore-machine
//! partition refinement over guarded transition rows: two transient states
//! merge when their outgoing arcs (events, guards, kinds, actions) are
//! identical up to the partition of their targets. Stable states are never
//! merged (they are the directory-visible anchor points and the SSP's
//! interface).
//!
//! Refinement keys on interned structure, never on text: each arc's
//! target-free part (event, kind, guards, actions) is interned once to a
//! row id, and a round compares states by their sorted (row id, target
//! class) pairs.

use crate::fx::{FxMap, FxSet};
use crate::report::Merge;
use protogen_spec::{Action, Arc, ArcKind, ArcNote, Event, Fsm, FsmStateId, Guard};

/// An arc's target-free part: what it reacts to and what it does.
type Row<'f> = (Event, ArcKind, &'f [Guard], &'f [Action]);

/// A state's class and its sorted (row id, target class) pairs: equal
/// keys stay in one class for the next round.
type Split<'s> = (u32, &'s [(u32, u32)]);

/// Minimizes `fsm`, returning the reduced machine and the merges performed.
///
/// State 0 (the initial state) is stable and therefore always survives with
/// its identity intact. Surviving states keep the name of their
/// first-generated member; the other members' names are recorded in
/// [`protogen_spec::FsmState::merged_names`] and reported.
pub fn minimize(fsm: &Fsm) -> (Fsm, Vec<Merge>) {
    let n = fsm.states.len();
    let mut interned: FxMap<Row, u32> = FxMap::default();
    let row: Vec<u32> = fsm
        .arcs
        .iter()
        .map(|a| {
            let fresh = interned.len() as u32;
            *interned.entry((a.event, a.kind, &a.guards, &a.actions)).or_insert(fresh)
        })
        .collect();

    // Arc indices grouped by source, in arc order (the sort is stable):
    // state `i` owns `by_state[start[i]..start[i + 1]]`.
    let mut by_state: Vec<usize> = (0..fsm.arcs.len()).collect();
    by_state.sort_by_key(|&k| fsm.arcs[k].from);
    let mut start = vec![0usize; n + 1];
    for a in &fsm.arcs {
        start[a.from.as_usize() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }

    // Initial partition: every stable state is its own class (never merged);
    // transient states start in one class and get refined apart.
    let mut class: Vec<u32> =
        (0..n).map(|i| if fsm.states[i].is_stable() { i } else { n } as u32).collect();
    let mut classes = usize::MAX;
    // Each state's behaviour under the current partition: the multiset of
    // its (row id, target class) pairs, laid out like `by_state` and
    // sorted within each state.
    let mut sig: Vec<(u32, u32)> = vec![(0, 0); fsm.arcs.len()];
    loop {
        for (slot, &k) in sig.iter_mut().zip(&by_state) {
            *slot = (row[k], class[fsm.arcs[k].to.as_usize()]);
        }
        for i in 0..n {
            sig[start[i]..start[i + 1]].sort_unstable();
        }
        // Classes are numbered by first member, so a class id is also the
        // surviving state's new id once the partition is stable.
        let mut next: FxMap<Split, u32> = FxMap::with_capacity_and_hasher(n, Default::default());
        let next_class: Vec<u32> = (0..n)
            .map(|i| {
                let fresh = next.len() as u32;
                *next.entry((class[i], &sig[start[i]..start[i + 1]])).or_insert(fresh)
            })
            .collect();
        class = next_class;
        // Each round only splits classes: the same count is the same
        // partition.
        if next.len() == classes {
            break;
        }
        classes = next.len();
    }

    // The representative of class `c` is its first member, `reps[c]`.
    let mut reps = Vec::with_capacity(classes);
    let mut merged: Vec<Vec<String>> = Vec::with_capacity(classes);
    for (i, &c) in class.iter().enumerate() {
        if c as usize == reps.len() {
            reps.push(i);
            merged.push(Vec::new());
        } else {
            merged[c as usize].push(fsm.states[i].name.clone());
        }
    }
    let mut merges = Vec::new();
    let mut states = Vec::with_capacity(classes);
    for (&rep, names) in reps.iter().zip(merged) {
        let mut st = fsm.states[rep].clone();
        if !names.is_empty() {
            merges.push(Merge { kept: st.name.clone(), merged: names.clone() });
            st.merged_names = names;
        }
        states.push(st);
    }

    // A state's arcs are its representative's; two of them that differ
    // only in a target merged away are the same arc.
    let mut arcs = Vec::new();
    let mut seen: FxSet<(u32, ArcNote, u32, u32)> = FxSet::default();
    for (c, &rep) in reps.iter().enumerate() {
        let from = c as u32;
        for &k in &by_state[start[rep]..start[rep + 1]] {
            let a = &fsm.arcs[k];
            let to = class[a.to.as_usize()];
            if seen.insert((row[k], a.note, from, to)) {
                arcs.push(Arc {
                    from: FsmStateId(from),
                    to: FsmStateId(to),
                    guards: a.guards.clone(),
                    actions: a.actions.clone(),
                    ..*a
                });
            }
        }
    }

    let out = Fsm {
        protocol: fsm.protocol.clone(),
        machine: fsm.machine,
        messages: fsm.messages.clone(),
        states,
        arcs,
    };
    (out, merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use protogen_spec::{
        Access, Dst, FsmState, FsmStateKind, MachineKind, MsgId, Perm, SendSpec, StableId,
        TransientMeta,
    };
    use std::collections::HashMap;

    /// The refinement this module shipped with before rows were interned:
    /// each round renders every state's rows to bytes, actions through
    /// `Debug`, and output arcs are deduplicated by a linear scan. Kept
    /// verbatim as the oracle for [`minimize`].
    fn reference(fsm: &Fsm) -> (Fsm, Vec<Merge>) {
        let n = fsm.states.len();
        let stable_count = fsm.states.iter().filter(|s| s.is_stable()).count();
        let mut class: Vec<usize> =
            (0..n).map(|i| if fsm.states[i].is_stable() { i } else { stable_count }).collect();
        let mut arcs_by_state: Vec<Vec<&Arc>> = vec![Vec::new(); n];
        for a in &fsm.arcs {
            arcs_by_state[a.from.as_usize()].push(a);
        }
        loop {
            let mut sig_to_class: HashMap<(usize, Vec<u8>), usize> = HashMap::new();
            let mut next_class = vec![0usize; n];
            for i in 0..n {
                let key = (class[i], signature(&arcs_by_state[i], &class));
                let fresh = sig_to_class.len();
                next_class[i] = *sig_to_class.entry(key).or_insert(fresh);
            }
            let changed = next_class != class;
            class = next_class;
            if !changed {
                break;
            }
        }
        let mut rep_of_class: HashMap<usize, usize> = HashMap::new();
        for (i, &c) in class.iter().enumerate() {
            rep_of_class.entry(c).or_insert(i);
        }
        let mut reps: Vec<usize> = rep_of_class.values().copied().collect();
        reps.sort_unstable();
        let new_id_of_rep: HashMap<usize, usize> =
            reps.iter().enumerate().map(|(new, &old)| (old, new)).collect();
        let new_id = |old: usize| new_id_of_rep[&rep_of_class[&class[old]]];
        let mut merges = Vec::new();
        let mut states = Vec::with_capacity(reps.len());
        for &rep in &reps {
            let mut st = fsm.states[rep].clone();
            let merged: Vec<String> = (0..n)
                .filter(|&i| i != rep && class[i] == class[rep])
                .map(|i| fsm.states[i].name.clone())
                .collect();
            if !merged.is_empty() {
                merges.push(Merge { kept: st.name.clone(), merged: merged.clone() });
                st.merged_names = merged;
            }
            states.push(st);
        }
        let mut arcs = Vec::new();
        for &rep in &reps {
            for a in &arcs_by_state[rep] {
                let mut a2 = (*a).clone();
                a2.from = FsmStateId::from_usize(new_id(rep));
                a2.to = FsmStateId::from_usize(new_id(a.to.as_usize()));
                if !arcs.contains(&a2) {
                    arcs.push(a2);
                }
            }
        }
        let out = Fsm {
            protocol: fsm.protocol.clone(),
            machine: fsm.machine,
            messages: fsm.messages.clone(),
            states,
            arcs,
        };
        (out, merges)
    }

    fn signature(arcs: &[&Arc], class: &[usize]) -> Vec<u8> {
        let mut rows: Vec<Vec<u8>> = arcs
            .iter()
            .map(|a| {
                let mut row = Vec::new();
                match a.event {
                    Event::Access(acc) => {
                        row.push(0);
                        row.push(acc.index() as u8);
                    }
                    Event::Msg(m) => {
                        row.push(1);
                        row.extend_from_slice(&m.0.to_le_bytes());
                    }
                }
                row.push(match a.kind {
                    ArcKind::Normal => 0,
                    ArcKind::Stall => 1,
                });
                if a.guards.is_empty() {
                    row.push(0xff);
                } else {
                    for g in &a.guards {
                        row.push(*g as u8);
                    }
                }
                row.extend_from_slice(format!("{:?}", a.actions).as_bytes());
                row.extend_from_slice(&(class[a.to.as_usize()] as u64).to_le_bytes());
                row
            })
            .collect();
        rows.sort();
        rows.concat()
    }

    fn state(name: &str, stable: bool) -> FsmState {
        FsmState {
            name: name.into(),
            kind: if stable {
                FsmStateKind::Stable(StableId(0))
            } else {
                FsmStateKind::Transient(TransientMeta {
                    own_from: StableId(0),
                    own_to: StableId(0),
                    wait_tag: "D".into(),
                    chain: vec![],
                })
            },
            state_sets: vec![],
            perm: Perm::None,
            data_valid: false,
            merged_names: vec![],
        }
    }

    fn arc(from: u32, to: u32, acc: Access) -> Arc {
        Arc {
            from: FsmStateId(from),
            event: Event::Access(acc),
            guards: vec![],
            actions: vec![],
            to: FsmStateId(to),
            kind: ArcKind::Normal,
            note: ArcNote::Step2,
        }
    }

    fn fsm(states: Vec<FsmState>, arcs: Vec<Arc>) -> Fsm {
        Fsm { protocol: "t".into(), machine: MachineKind::Cache, messages: vec![], states, arcs }
    }

    #[test]
    fn merges_identical_transients() {
        // 0 stable; 1 and 2 transient with identical rows pointing at 0.
        let fsm = fsm(
            vec![state("I", true), state("A", false), state("B", false)],
            vec![arc(1, 0, Access::Load), arc(2, 0, Access::Load)],
        );
        let (out, merges) = minimize(&fsm);
        assert_eq!(out.states.len(), 2);
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].kept, "A");
        assert_eq!(merges[0].merged, vec!["B".to_string()]);
        assert_eq!(out.state_by_name("B"), out.state_by_name("A"));
    }

    #[test]
    fn distinguishes_differing_rows() {
        let fsm = fsm(
            vec![state("I", true), state("A", false), state("B", false)],
            vec![arc(1, 0, Access::Load), arc(2, 0, Access::Store)],
        );
        let (out, merges) = minimize(&fsm);
        assert_eq!(out.states.len(), 3);
        assert!(merges.is_empty());
    }

    #[test]
    fn never_merges_stable_states() {
        // Two stable states with identical (empty) rows must survive.
        let fsm = fsm(vec![state("I", true), state("S", true)], vec![]);
        let (out, merges) = minimize(&fsm);
        assert_eq!(out.states.len(), 2);
        assert!(merges.is_empty());
    }

    /// The generators intern stable states first, but a stable state
    /// listed after a transient one is still never merged into it.
    #[test]
    fn never_merges_a_stable_state_listed_late() {
        let fsm = fsm(vec![state("I", true), state("A", false), state("S", true)], vec![]);
        let (out, merges) = minimize(&fsm);
        assert_eq!(out.states.len(), 3);
        assert!(merges.is_empty());
    }

    #[test]
    fn refines_through_targets() {
        // 1→3, 2→4; 3 and 4 differ, so 1 and 2 must not merge.
        let fsm = fsm(
            vec![
                state("I", true),
                state("A", false),
                state("B", false),
                state("C", false),
                state("D", false),
            ],
            vec![
                arc(1, 3, Access::Load),
                arc(2, 4, Access::Load),
                arc(3, 0, Access::Load),
                arc(4, 0, Access::Store),
            ],
        );
        let (out, _) = minimize(&fsm);
        assert_eq!(out.states.len(), 5);
    }

    /// Two arcs of one state that become equal once their targets merge
    /// collapse into one; if they differ in their note, both stay.
    #[test]
    fn merged_targets_dedup_arcs_but_keep_distinct_notes() {
        for (note, kept) in [(ArcNote::Step2, 2), (ArcNote::Case2, 3)] {
            let mut twin = arc(1, 3, Access::Load);
            twin.note = note;
            let fsm = fsm(
                vec![state("I", true), state("A", false), state("B", false), state("C", false)],
                vec![
                    arc(1, 2, Access::Load),
                    twin,
                    arc(2, 0, Access::Store),
                    arc(3, 0, Access::Store),
                ],
            );
            let (out, merges) = minimize(&fsm);
            assert_eq!(merges, [Merge { kept: "B".into(), merged: vec!["C".into()] }]);
            assert_eq!(out.arcs.len(), kept, "{:?}", out.arcs);
            assert_eq!(out, reference(&fsm).0);
        }
    }

    /// Random machines, stable states first as the generators lay them out:
    /// transient states come in twins with copied rows, arcs are
    /// re-pointed between twins and doubled with a random note, so merges
    /// are common and merged arcs often differ in their note alone.
    struct RandomFsm;

    impl Strategy for RandomFsm {
        type Value = Fsm;

        fn sample(&self, rng: &mut TestRng) -> Fsm {
            const GUARDS: [Guard; 3] =
                [Guard::AcksComplete, Guard::AcksIncomplete, Guard::ReqIsOwner];
            const NOTES: [ArcNote; 3] = [ArcNote::Step2, ArcNote::Case1, ArcNote::Case2];
            let actions = [
                Action::PerformAccess,
                Action::IncAcksReceived,
                Action::Send(SendSpec::new(MsgId(0), Dst::Dir)),
                Action::Send(SendSpec::new(MsgId(1), Dst::Req)),
            ];
            let stable = (1usize..=3).sample(rng);
            let transient = (0usize..=6).sample(rng);
            let n = stable + transient;
            let mut states: Vec<FsmState> =
                (0..n).map(|i| state(&format!("s{i}"), i < stable)).collect();
            let mut arcs = Vec::new();
            for from in 0..n {
                for _ in 0..(0usize..=3).sample(rng) {
                    let event = match (0u16..5).sample(rng) {
                        0 => Event::Access(Access::Load),
                        1 => Event::Access(Access::Store),
                        m => Event::Msg(MsgId(m - 2)),
                    };
                    let stall = (0u8..5).sample(rng) == 0;
                    let guards = (0..(0usize..=2).sample(rng))
                        .map(|_| GUARDS[(0usize..GUARDS.len()).sample(rng)])
                        .collect();
                    let actions = match stall {
                        true => vec![],
                        false => (0..(0usize..=2).sample(rng))
                            .map(|_| actions[(0usize..actions.len()).sample(rng)])
                            .collect(),
                    };
                    arcs.push(Arc {
                        from: FsmStateId::from_usize(from),
                        event,
                        guards,
                        actions,
                        to: FsmStateId::from_usize(if stall { from } else { (0..n).sample(rng) }),
                        kind: if stall { ArcKind::Stall } else { ArcKind::Normal },
                        note: NOTES[(0usize..NOTES.len()).sample(rng)],
                    });
                }
            }
            // Twins: a copy of a transient state's rows under a new name.
            let mut twin_of: Vec<Option<usize>> = vec![None; n];
            for (orig, twin) in twin_of.iter_mut().enumerate().skip(stable) {
                if any::<bool>().sample(rng) {
                    let t = states.len();
                    *twin = Some(t);
                    states.push(state(&format!("s{orig}'"), false));
                    let copies: Vec<Arc> = arcs
                        .iter()
                        .filter(|a| a.from.as_usize() == orig)
                        .map(|a| {
                            let to = if a.to == a.from { t } else { a.to.as_usize() };
                            Arc {
                                from: FsmStateId::from_usize(t),
                                to: FsmStateId::from_usize(to),
                                ..a.clone()
                            }
                        })
                        .collect();
                    arcs.extend(copies);
                }
            }
            twin_of.resize(states.len(), None);
            for i in 0..arcs.len() {
                let Some(t) = twin_of[arcs[i].to.as_usize()] else { continue };
                match (0u8..4).sample(rng) {
                    0 => arcs[i].to = FsmStateId::from_usize(t),
                    1 => {
                        let note = NOTES[(0usize..NOTES.len()).sample(rng)];
                        arcs.push(Arc { to: FsmStateId::from_usize(t), note, ..arcs[i].clone() });
                    }
                    _ => {}
                }
            }
            // Arcs need not arrive grouped by source.
            for i in (1..arcs.len()).rev() {
                arcs.swap(i, (0..=i).sample(rng));
            }
            fsm(states, arcs)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Interned rows refine exactly like the `Debug`-text reference.
        #[test]
        fn minimize_matches_the_text_reference(fsm in RandomFsm) {
            prop_assert_eq!(minimize(&fsm), reference(&fsm), "{:?}", fsm);
        }
    }
}
