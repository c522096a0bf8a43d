//! The dispatch kernel against the primitive it is built on: for every
//! bundled protocol × both configurations × every `(state, event)` of both
//! machines — over a spread of guard operands — [`Machine::select`] picks
//! the arc [`select_arc_indexed`] picks and classifies "no transition" and
//! "stall" identically, whether the machine borrows or owns its FSM.

use protogen_core::{generate, GenConfig};
use protogen_runtime::{
    select_arc_indexed, CacheBlock, DirEntry, FsmIndex, Line, Machine, Msg, NodeId, Selected, Slot,
};
use protogen_spec::{Access, Arc, ArcKind, Event, Fsm, FsmStateId, MsgId};

fn arc_index(fsm: &Fsm, arc: &Arc) -> usize {
    fsm.arcs.iter().position(|a| std::ptr::eq(a, arc)).expect("arc belongs to the fsm")
}

/// One controller under test: the primitive's operands, and the kernel
/// holding the same FSM both ways.
struct Subject<'f> {
    fsm: &'f Fsm,
    index: FsmIndex,
    borrowed: Machine<&'f Fsm>,
    owned: Machine<Fsm>,
    /// `(none, stall, arc)` classifications seen.
    tally: [usize; 3],
}

impl Subject<'_> {
    fn check(&mut self, slot: Slot<'_>, event: Event, msg: Option<&Msg>) {
        let (cache, dir) = match slot {
            Slot::Cache(b) => (Some(b), None),
            Slot::Dir(e) => (None, Some(e)),
        };
        let fsm = self.fsm;
        let want = select_arc_indexed(fsm, &self.index, slot.state(), event, msg, cache, dir);
        let at = format!("{} {} state {} on {event}", fsm.protocol, fsm.machine, slot.state());
        for (got, arcs_of) in [
            (self.borrowed.select(slot, event, msg), self.borrowed.fsm()),
            (self.owned.select(slot, event, msg), self.owned.fsm()),
        ] {
            match (want, got) {
                (None, Selected::None) => self.tally[0] += 1,
                (Some(w), Selected::Stall) => {
                    assert_eq!(w.kind, ArcKind::Stall, "{at}");
                    self.tally[1] += 1;
                }
                (Some(w), Selected::Arc(g)) => {
                    assert_ne!(w.kind, ArcKind::Stall, "{at}");
                    assert_eq!(arc_index(fsm, w), arc_index(arcs_of, g), "{at}");
                    self.tally[2] += 1;
                }
                (w, g) => panic!("{at}: primitive chose {w:?}, kernel {g:?}"),
            }
        }
    }
}

#[test]
fn select_agrees_with_the_indexed_primitive_on_every_state_and_event() {
    // Guard operands: acknowledgment bookkeeping on the cache side, owner /
    // sharer shapes on the directory side, and messages from either cache
    // with every ack-count shape.
    let blocks = [(0, None), (2, None), (1, Some(2)), (2, Some(2))].map(|(got, want)| CacheBlock {
        acks_received: got,
        acks_expected: want,
        ..CacheBlock::new()
    });
    let entries = [(None, 0b00), (Some(0), 0b00), (None, 0b01), (None, 0b11), (Some(1), 0b10)]
        .map(|(owner, sharers)| DirEntry { owner: owner.map(NodeId), sharers, ..DirEntry::new(0) });
    let mut tally = [0usize; 3];
    for ssp in protogen_protocols::all() {
        for cfg in [GenConfig::stalling(), GenConfig::non_stalling()] {
            let g = generate(&ssp, &cfg).expect("bundled protocol generates");
            for (fsm, is_dir) in [(&g.cache, false), (&g.directory, true)] {
                let mut subject = Subject {
                    fsm,
                    index: FsmIndex::new(fsm),
                    borrowed: Machine::new(fsm),
                    owned: Machine::new(fsm.clone()),
                    tally: [0; 3],
                };
                let msgs: Vec<Msg> = (0..fsm.messages.len())
                    .flat_map(|m| {
                        [(0, None), (1, Some(0)), (1, Some(2))].map(move |(req, ack_count)| Msg {
                            mtype: MsgId(m as u16),
                            src: NodeId(req),
                            dst: NodeId(2),
                            req: NodeId(req),
                            ack_count,
                            data: Some(0),
                        })
                    })
                    .collect();
                for state in (0..fsm.state_count()).map(|s| FsmStateId(s as u32)) {
                    let blocks = blocks.clone().map(|b| CacheBlock { state, ..b });
                    let entries = entries.clone().map(|e| DirEntry { state, ..e });
                    // A cache FSM is dispatched on blocks, a directory FSM
                    // on entries.
                    let slots: Vec<Slot<'_>> = if is_dir {
                        entries.iter().map(Line::slot).collect()
                    } else {
                        blocks.iter().map(Line::slot).collect()
                    };
                    for slot in slots {
                        for access in Access::ALL {
                            subject.check(slot, Event::Access(access), None);
                        }
                        for msg in &msgs {
                            subject.check(slot, Event::Msg(msg.mtype), Some(msg));
                        }
                    }
                }
                for (total, n) in tally.iter_mut().zip(subject.tally) {
                    *total += n;
                }
            }
        }
    }
    // Not vacuous: all three classifications occurred, many times.
    assert!(tally.iter().all(|&n| n > 1_000), "{tally:?}");
}
