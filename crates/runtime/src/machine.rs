//! The dispatch kernel: select → stall-test → apply, written once.
//!
//! Every executor of a generated protocol — the flat and composed model
//! checkers, the simulator, the live service, the litmus machine — drives
//! its controllers through a [`Machine`]. The executor says *which* line an
//! event lands on ([`Slot`], a read view that supplies the FSM state and
//! the guard operands itself); the kernel says what happens:
//! [`Machine::select`] classifies the dispatch as [`Selected::None`] (the
//! FSM has no transition), [`Selected::Stall`] (retry later) or an arc to
//! fire, and [`Machine::apply`] fires it.
//!
//! The two stay separate calls because every executor does something
//! between them: the checkers select on the *parent* state and only then
//! restore their scratch successor and apply to it; the simulator and the
//! service apply to a scratch copy and commit it only if the outgoing
//! messages fit their channels.

use crate::exec::{apply_into, select_arc_indexed, ApplyOutcome, ExecError, MachineCtx};
use crate::index::FsmIndex;
use crate::msg::{Msg, NodeId, Val};
use crate::state::{CacheBlock, DirEntry};
use protogen_spec::{Arc, ArcKind, Event, Fsm, FsmStateId};
use std::borrow::Borrow;
use std::fmt::Display;

/// A generated controller ready to execute: the FSM together with its
/// [`FsmIndex`], built in one place so an index is never paired with the
/// wrong FSM. `F` is how the FSM is held: `&Fsm` by the executors that
/// borrow the generator's output, `Fsm` by the one that outlives it.
#[derive(Debug)]
pub struct Machine<F> {
    fsm: F,
    index: FsmIndex,
}

/// The line an event is dispatched on, as [`Machine::select`] reads it.
#[derive(Debug, Clone, Copy)]
pub enum Slot<'s> {
    /// A cache controller's block.
    Cache(&'s CacheBlock),
    /// The directory's entry.
    Dir(&'s DirEntry),
}

impl Slot<'_> {
    /// The line's FSM state.
    pub fn state(self) -> FsmStateId {
        match self {
            Slot::Cache(block) => block.state,
            Slot::Dir(entry) => entry.state,
        }
    }
}

/// What [`Machine::select`] found for a `(line, event)` dispatch.
#[derive(Debug, Clone, Copy)]
pub enum Selected<'m> {
    /// The FSM has no transition for the event. For a message this means
    /// the protocol is incomplete ([`Machine::unexpected`] words the
    /// report); for an access, that the access needs nothing.
    None,
    /// The first matching arc is a stall: nothing happens, the event must
    /// be retried.
    Stall,
    /// The arc to fire with [`Machine::apply`].
    Arc(&'m Arc),
}

/// A line the kernel can drive — [`CacheBlock`] or [`DirEntry`] — for the
/// executors whose stepping is generic over which of the two a node holds.
pub trait Line: Clone {
    /// The read view [`Machine::select`] takes.
    fn slot(&self) -> Slot<'_>;
    /// The write view [`Machine::apply`] takes. A directory entry is its
    /// own directory: it takes `self_id` and ignores `dir_id`.
    fn ctx(&mut self, self_id: NodeId, dir_id: NodeId) -> MachineCtx<'_>;
}

/// `n` copies of `initial`, one per block, allocated fallibly: `Err`
/// words the refusal when the memory for them cannot be had, so a block
/// count beyond memory is a refused configuration instead of an abort.
pub fn block_table<L: Line>(initial: L, n: usize) -> Result<Vec<L>, String> {
    let mut table = Vec::new();
    table.try_reserve_exact(n).map_err(|_| format!("no memory for the lines of {n} blocks"))?;
    table.resize(n, initial);
    Ok(table)
}

impl Line for CacheBlock {
    fn slot(&self) -> Slot<'_> {
        Slot::Cache(self)
    }

    fn ctx(&mut self, self_id: NodeId, dir_id: NodeId) -> MachineCtx<'_> {
        MachineCtx::Cache { block: self, self_id, dir_id }
    }
}

impl Line for DirEntry {
    fn slot(&self) -> Slot<'_> {
        Slot::Dir(self)
    }

    fn ctx(&mut self, self_id: NodeId, _dir_id: NodeId) -> MachineCtx<'_> {
        MachineCtx::Dir { entry: self, self_id }
    }
}

impl<F: Borrow<Fsm>> Machine<F> {
    /// Indexes `fsm` for execution.
    ///
    /// # Panics
    ///
    /// Panics on a malformed FSM, as [`FsmIndex::new`] does.
    pub fn new(fsm: F) -> Self {
        let index = FsmIndex::new(fsm.borrow());
        Machine { fsm, index }
    }

    /// The controller this machine executes.
    pub fn fsm(&self) -> &Fsm {
        self.fsm.borrow()
    }

    /// Selects the first arc out of `slot`'s state for `event` whose guards
    /// all pass. Guarded SSP entries come before synthesized fallbacks in
    /// arc order, so first-match gives the "else" semantics the generator
    /// relies on.
    #[inline]
    pub fn select(&self, slot: Slot<'_>, event: Event, msg: Option<&Msg>) -> Selected<'_> {
        let (cache, dir) = match slot {
            Slot::Cache(block) => (Some(block), None),
            Slot::Dir(entry) => (None, Some(entry)),
        };
        match select_arc_indexed(self.fsm(), &self.index, slot.state(), event, msg, cache, dir) {
            None => Selected::None,
            Some(arc) if arc.kind == ArcKind::Stall => Selected::Stall,
            Some(arc) => Selected::Arc(arc),
        }
    }

    /// Fires `arc` (one [`Machine::select`] returned) on the machine behind
    /// `ctx`; see [`apply_into`] for `store_value`, `out` and the errors.
    #[inline]
    pub fn apply(
        &self,
        arc: &Arc,
        msg: Option<&Msg>,
        ctx: MachineCtx<'_>,
        store_value: Val,
        out: &mut ApplyOutcome,
    ) -> Result<(), ExecError> {
        apply_into(self.fsm(), arc, msg, ctx, store_value, out)
    }

    /// The one wording of "`who` received `msg` and [`Machine::select`]
    /// found no transition for it in `slot`'s state".
    pub fn unexpected(&self, who: impl Display, slot: Slot<'_>, msg: impl Display) -> String {
        format!("{msg} at {who} in {}", self.fsm().state(slot.state()).full_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tables_beyond_memory_are_refused_not_aborted() {
        let table = block_table(DirEntry::new(0), 3).unwrap();
        assert_eq!(table, vec![DirEntry::new(0); 3]);
        let n = usize::MAX;
        assert_eq!(
            block_table(CacheBlock::new(), n),
            Err(format!("no memory for the lines of {n} blocks"))
        );
    }
}
