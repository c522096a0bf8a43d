//! Hierarchical model checking: a composed protocol stack explored as one
//! leveled system (DESIGN.md §12).
//!
//! The flat checker ([`crate::ModelChecker`]) verifies one protocol level:
//! `n` caches under one directory. This module verifies a
//! [`protogen_core::Composed`] stack — every *machine level* `jm` hosts
//! `counts[jm]` nodes, each running the cache side of protocol level `jm`
//! against its parent's directory, while (for `jm ≥ 1`) also hosting the
//! directory of protocol level `jm - 1` for its own children. The cache
//! side of level N *is* the directory side of level N+1. [`HierChecker`]
//! is a [`TransitionSystem`] — states, steps, glue, canonicalization and
//! properties live here; the search itself is the shared explorer's
//! (`explore.rs`), with every flag, store tier and the
//! checkpoint format of the flat checker.
//!
//! The glue between levels is never hand-specified; it is synthesized here
//! from the [`protogen_core::GlueSpec`] needed-permission table:
//!
//! * **acquire** (outer-miss → inner-request forwarding): a request into
//!   an inner directory is deliverable only while the hosting node's
//!   *outer* block is in a stable state with at least the needed
//!   permission; while it is not, the hosting node issues the
//!   corresponding access (`Store` under the exclusive-at-parent
//!   discipline) on its outer machine;
//! * **release** (copy draining): a forward-class outer message into a
//!   node is deliverable only once the node's inner subnet holds no data —
//!   no child block and no in-flight inner message carries a value — so a
//!   parent never gives up permission its children still use;
//! * **writeback** (inner-eviction → outer-writeback): a node whose inner
//!   subnet is fully quiescent may issue `Replacement` on its outer
//!   machine, carrying the (synced) data back out.
//!
//! Parents are *data-transparent*: the ghost-memory discipline — store
//! values cycle through the domain, the data-value invariant compares
//! copies against the latest store — applies at machine level 0 (the
//! leaves) only. A parent performing its glue `Store` keeps the data value
//! delivered by the outer protocol instead of minting a new one, and data
//! is synced between a node's outer block and its inner directory in both
//! directions, so a value written by a leaf in one subnet flows up through
//! writebacks and back down into another subnet unchanged. SWMR is checked
//! per level (it is a per-protocol invariant); data-value and load-hit
//! checks are leaf-only.
//!
//! Symmetry reduction uses the *wreath product* of per-level sibling
//! permutations: children may be permuted within a parent and parents
//! within their own level (children moving with them), but never across
//! subtrees. Canonicalization is the flat checker's orbit pruning
//! (`canon.rs`, DESIGN.md §8) applied per parent: every node below the
//! root gets a permutation-invariant *subtree key* — the flat sort key
//! over its own subnet, absorbed with the scalar fields of the inner
//! directory it hosts and its children's keys in sorted order — the
//! canonical arrangement lists siblings in ascending key order under
//! every parent, and only the arrangements *within equal-key sibling
//! runs* are enumerated; the representative is the minimum-fingerprint
//! candidate, ties by enumeration order. The orbit partition is exact, so
//! a one-level composition visits exactly as many canonical states as the
//! flat checker at the same cache count — and, the rule being the same
//! one, selects the same canonical bytes and fingerprint on every state
//! (pinned by the conformance tests). A stack whose group order exceeds
//! [`MAX_GROUP`] runs unreduced: a fully symmetric state still enumerates
//! its whole tie product, so the cap bounds the worst case.

use crate::canon::{queue_hash, subnet_sort_key};
use crate::checkpoint::CheckpointError;
use crate::delta::SectionMap;
use crate::explore::{
    exec_violation, explore, resume, CheckResult, Resources, TransitionSystem, ViolationKind,
};
use crate::flat::McConfig;
use crate::property::LevelBlocks;
use crate::store::{absorb, fingerprint_bytes};
use crate::system::{put_block, put_dir, put_queue, Decoder};
use protogen_core::Composed;
use protogen_runtime::{
    ApplyOutcome, CacheBlock, DirEntry, Line, Machine, Msg, NodeId, Selected, Slot, Val,
};
use protogen_spec::{Access, Arc, Event, Fsm, FsmStateId, MsgClass, Perm};
use std::fmt;

/// Largest wreath-product group the canonicalizer reduces under; stacks
/// whose group is bigger run without symmetry reduction (a fully symmetric
/// state enumerates its whole group). 8! covers every single-level system
/// the flat checker handles and all the bundled compositions (2×2
/// MSI-under-MSI has a group of 8).
pub const MAX_GROUP: usize = 40_320;

/// A composed stack is checked under the flat checker's configuration.
/// What a stack takes from its composition instead is ignored here:
/// [`McConfig::n_caches`] (the fanouts), [`McConfig::ordered`] (channel
/// ordering is per level, from each level's SSP) and the flat-only
/// [`McConfig::collect_pair_coverage`]. `swmr`/`single_writer` are checked
/// per level, `data_value` at the leaves (stores are leaf-only; parents are
/// data-transparent), and `deadlock_free` counts glue issues and
/// copy-draining evictions as progress.
pub type HierConfig = McConfig;

/// One protocol level at runtime.
struct LevelRt {
    label: String,
    fanout: usize,
    ordered: bool,
    cache: Machine<Fsm>,
    dir: Machine<Fsm>,
    /// Message class by `MsgId`, for glue gating.
    classes: Vec<MsgClass>,
    /// Needed outer permission by `MsgId` — `None` for the root level,
    /// whose directory is never gated.
    needed: Option<Vec<Perm>>,
}

/// A complete configuration of the leveled system (one explored state).
///
/// Indexing: `caches[jm][g]` is the outer block of machine-level-`jm` node
/// `g`; `dirs[j][p]` is the directory of protocol level `j` serving subnet
/// `p` (hosted by machine-level-`j+1` node `p`); `chans[j][p][src][dst]`
/// is the subnet-local FIFO, where ids `0..fanout` are the children and
/// `fanout` is the directory.
#[derive(Debug, PartialEq, Eq)]
pub struct HierState {
    /// Outer cache blocks per machine level.
    pub caches: Vec<Vec<CacheBlock>>,
    /// Directory entries per protocol level.
    pub dirs: Vec<Vec<DirEntry>>,
    /// Subnet channels per protocol level.
    pub chans: Vec<Vec<Vec<Vec<Vec<Msg>>>>>,
    /// Ghost memory: the value of the most recent *leaf* store.
    pub ghost: Val,
}

impl Clone for HierState {
    fn clone(&self) -> Self {
        HierState {
            caches: self.caches.clone(),
            dirs: self.dirs.clone(),
            chans: self.chans.clone(),
            ghost: self.ghost,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.caches.clone_from(&src.caches);
        self.dirs.clone_from(&src.dirs);
        self.chans.clone_from(&src.chans);
        self.ghost = src.ghost;
    }
}

impl HierState {
    /// Total in-flight messages across every subnet.
    pub fn messages_in_flight(&self) -> usize {
        self.chans.iter().flatten().flatten().flatten().map(|q| q.len()).sum()
    }

    /// Whether any node at any level has an outstanding transaction.
    pub fn has_pending_access(&self) -> bool {
        self.caches.iter().flatten().any(|c| c.pending.is_some())
    }
}

/// The most nodes one machine level may hold: [`HStep`] names a node or a
/// subnet, and the symmetry maps index one, with a `u8`
/// ([`HierChecker::check_size`]).
pub const MAX_LEVEL_NODES: usize = 1 << u8::BITS;

/// One step of the leveled system. The derived ordering is the canonical
/// step order (deliveries, then leaf accesses, then glue issues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HStep {
    /// Deliver `chans[level][parent][src][dst][idx]`.
    Deliver {
        /// Protocol level of the subnet.
        level: u8,
        /// Subnet (= hosting parent) index.
        parent: u8,
        /// Subnet-local source id.
        src: u8,
        /// Subnet-local destination id (`fanout` = the directory).
        dst: u8,
        /// Queue position.
        idx: u8,
    },
    /// Node `node` at machine level `mlevel` issues `access` on its outer
    /// cache machine. Leaf issues model core accesses; parent issues are
    /// glue (acquire/writeback).
    Issue {
        /// Machine level of the issuing node.
        mlevel: u8,
        /// Node index within the level.
        node: u8,
        /// The access issued.
        access: Access,
    },
}

impl fmt::Display for HStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HStep::Deliver { level, parent, src, dst, idx } => {
                write!(f, "deliver L{level}/p{parent}: n{src} -> n{dst} [{idx}]")
            }
            HStep::Issue { mlevel, node, access } => {
                write!(f, "node L{mlevel}.{node} issues {access:?}")
            }
        }
    }
}

/// One element of the wreath-product symmetry group: a node-index map per
/// machine level (the root's is trivially `[0]`), with children always
/// moving with their parents.
#[derive(Debug)]
struct HierPerm {
    /// `maps[jm][old] = new` node index at machine level `jm`.
    maps: Vec<Vec<u8>>,
    /// `invs[jm][new] = old`.
    invs: Vec<Vec<u8>>,
}

impl HierPerm {
    fn identity(counts: &[usize]) -> Self {
        let maps: Vec<Vec<u8>> =
            counts.iter().map(|&n| (0..n).map(|g| g as u8).collect()).collect();
        HierPerm { invs: maps.clone(), maps }
    }
}

/// Outcome of a hierarchical checking run: the shared explorer's.
pub type HierResult = CheckResult;

/// The composed system's per-worker scratch: the canonicalizer's buffers
/// (`best` holds the encoding the last `canonical_fp` selected), the
/// reusable apply outcome, and the record of what the previous step wrote
/// into its successor scratch — restored from the parent before the next
/// step instead of copying the whole state (the flat checker's
/// discipline, see `flat.rs`).
#[derive(Debug)]
pub struct HierScratch {
    best: Vec<u8>,
    cur: Vec<u8>,
    /// `keys[jm][g]`: the subtree key of machine-level-`jm` node `g`.
    keys: Vec<Vec<u64>>,
    /// `base[jm][p·f..(p+1)·f]`: the children of machine-level-`jm+1` node
    /// `p`, sorted by `(key, index)` — the base arrangement.
    base: Vec<Vec<u8>>,
    /// `base` with the current candidate's within-run permutations applied.
    order: Vec<Vec<u8>>,
    /// Equal-key sibling runs of two or more in `base`, as `(level, start,
    /// len)`, in enumeration order.
    ties: Vec<(usize, usize, usize)>,
    /// Mixed-radix counter over within-run permutations.
    counters: Vec<u32>,
    /// Per-run-length permutation tables, built on first use (the layout
    /// of [`crate::Canonicalizer`]'s).
    perm_tables: Vec<Vec<u8>>,
    /// The candidate group element being encoded; the identity until the
    /// first sweep, and for good when the stack runs unreduced.
    perm: HierPerm,
    outcome: ApplyOutcome,
    /// Whether the successor scratch equals the parent everywhere but in
    /// what `touched` names. False when fresh and after `decode_into`.
    synced: bool,
    touched: Option<Touched>,
}

/// What one step may write, recorded before anything fallible runs: a
/// step acts inside one subnet — it removes from one of its queues and
/// routes the outcome's outgoing messages onto others — and applies an arc
/// to one machine of it, whose data a hosting / hosted neighbour mirrors.
#[derive(Debug, Clone, Copy)]
struct Touched {
    /// The subnet `(protocol level, parent)` acted in.
    level: usize,
    parent: usize,
    /// The machine-level-`level` node whose cache side ran the arc; `None`
    /// = the subnet's directory did.
    cache: Option<usize>,
    /// The subnet-local queue delivered from.
    delivered: Option<(usize, usize)>,
}

impl HierScratch {
    /// Makes `succ` equal `state`: one whole copy when unsynced, otherwise
    /// a restore of exactly what the previous step wrote — its subnet's
    /// delivered and routed-into queues (the latter read back from
    /// `outcome.outgoing`, a superset of what `route` pushed on any exit),
    /// the machine `Machine::apply` borrowed, the one data field a glue sync
    /// mirrors it into, and the ghost.
    fn sync(&mut self, state: &HierState, succ: &mut HierState) {
        if self.synced {
            if let Some(t) = self.touched.take() {
                let (j, p) = (t.level, t.parent);
                let (from, to) = (&state.chans[j][p], &mut succ.chans[j][p]);
                if let Some((src, dst)) = t.delivered {
                    to[src][dst].clone_from(&from[src][dst]);
                }
                for m in &self.outcome.outgoing {
                    let (src, dst) = (m.src.as_usize(), m.dst.as_usize());
                    to[src][dst].clone_from(&from[src][dst]);
                }
                match t.cache {
                    Some(g) => {
                        succ.caches[j][g].clone_from(&state.caches[j][g]);
                        if j >= 1 {
                            succ.dirs[j - 1][g].data = state.dirs[j - 1][g].data;
                        }
                    }
                    None => {
                        succ.dirs[j][p].clone_from(&state.dirs[j][p]);
                        if j + 1 < state.caches.len() {
                            succ.caches[j + 1][p].data = state.caches[j + 1][p].data;
                        }
                    }
                }
                succ.ghost = state.ghost;
            }
        } else {
            succ.clone_from(state);
            self.synced = true;
        }
        debug_assert!(succ == state, "restored successor scratch differs from its parent");
    }
}

/// Explicit-state checker for a composed protocol stack.
pub struct HierChecker {
    levels: Vec<LevelRt>,
    /// Node count per machine level (`counts[depth()] == 1`, the root).
    counts: Vec<usize>,
    cfg: HierConfig,
    /// The order of the stack's whole symmetry group: `Π fanout[jm]!` over
    /// every parent. A float because 36 subnets of 8 overflow any integer;
    /// exact far past [`MAX_GROUP`], which is all it is compared against.
    group_order: f64,
}

impl HierChecker {
    /// Refuses a stack with more than [`MAX_LEVEL_NODES`] nodes at one
    /// machine level, naming the level and its node count:
    /// `Composition::validate` bounds each fanout, not their product.
    pub fn check_size(composed: &Composed) -> Result<(), String> {
        for (jm, level) in composed.levels.iter().enumerate() {
            let nodes = composed.node_count(jm);
            if nodes > MAX_LEVEL_NODES {
                return Err(format!(
                    "level {jm} ({}) has {nodes} nodes; a stack may hold at most \
                     {MAX_LEVEL_NODES} per level (steps name a node with one byte)",
                    level.label
                ));
            }
        }
        Ok(())
    }

    /// Builds a checker for `composed` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when [`Self::check_size`] refuses the stack: node indices
    /// would wrap.
    pub fn new(composed: &Composed, cfg: HierConfig) -> Self {
        if let Err(e) = Self::check_size(composed) {
            panic!("{e}");
        }
        let k = composed.depth();
        let levels: Vec<LevelRt> = composed
            .levels
            .iter()
            .enumerate()
            .map(|(j, l)| {
                let g = &l.generated;
                LevelRt {
                    label: l.label.clone(),
                    fanout: l.fanout,
                    ordered: g.ssp.network_ordered,
                    cache: Machine::new(g.cache.clone()),
                    dir: Machine::new(g.directory.clone()),
                    classes: g.ssp.messages.iter().map(|m| m.class).collect(),
                    needed: (j + 1 < k).then(|| composed.glue[j].needed_perm.clone()),
                }
            })
            .collect();
        let counts: Vec<usize> = (0..=k).map(|jm| composed.node_count(jm)).collect();
        let group_order = (0..k)
            .map(|jm| {
                ((1..=levels[jm].fanout).product::<usize>() as f64).powi(counts[jm + 1] as i32)
            })
            .product();
        HierChecker { levels, counts, cfg, group_order }
    }

    /// Number of protocol levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Node counts per machine level, leaves first (the last entry is the
    /// root's 1).
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Size of the symmetry group actually in use (1 when reduction is off
    /// or the group exceeded [`MAX_GROUP`]).
    pub fn group_size(&self) -> usize {
        if self.reduces() {
            self.group_order as usize
        } else {
            1
        }
    }

    /// The order of the stack's whole symmetry group, in use or not — what
    /// [`MAX_GROUP`] is compared against.
    pub fn group_order(&self) -> f64 {
        self.group_order
    }

    /// Whether states are canonicalized under the group at all.
    fn reduces(&self) -> bool {
        self.cfg.symmetry && self.group_order <= MAX_GROUP as f64
    }

    /// The node's effective outer permission for glue gating: its stable
    /// permission, or `None` while in a transient state. Gating on stable
    /// states only keeps children from being granted copies mid-parent-
    /// transaction.
    fn eff_perm(&self, s: &HierState, jm: usize, node: usize) -> Perm {
        let st = self.levels[jm].cache.fsm().state(s.caches[jm][node].state);
        if st.is_stable() {
            st.perm
        } else {
            Perm::None
        }
    }

    /// Whether any data lives in the subnet of protocol level `j` under
    /// parent `p` — in a child block or in any in-flight message. One
    /// level down suffices: a node only drops its own data after its own
    /// subnet drained, so "child data-free" implies "subtree data-free".
    fn has_copies(&self, s: &HierState, j: usize, p: usize) -> bool {
        let f = self.levels[j].fanout;
        s.caches[j][p * f..(p + 1) * f].iter().any(|c| c.data.is_some())
            || s.chans[j][p].iter().flatten().flatten().any(|m| m.data.is_some())
    }

    /// Whether node `node` (machine level `jm ≥ 1`) may write its line
    /// back out: every child block back to initial, no in-flight inner
    /// message, and its inner directory stable with no owner or sharers.
    fn inner_quiescent(&self, s: &HierState, jm: usize, node: usize) -> bool {
        let j = jm - 1;
        let f = self.levels[j].fanout;
        let initial = CacheBlock::new();
        let dir = &s.dirs[j][node];
        s.caches[j][node * f..(node + 1) * f].iter().all(|c| *c == initial)
            && s.chans[j][node].iter().flatten().all(|q| q.is_empty())
            && self.levels[j].dir.fsm().state(dir.state).is_stable()
            && dir.owner.is_none()
            && dir.sharers == 0
            && dir.chain_slots.is_empty()
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_into(
        &self,
        state: &HierState,
        j: usize,
        p: usize,
        src: usize,
        dst: usize,
        idx: usize,
        succ: &mut HierState,
        scratch: &mut HierScratch,
    ) -> Result<bool, ViolationKind> {
        let lvl = &self.levels[j];
        let f = lvl.fanout;
        let msg = state.chans[j][p][src][dst][idx];
        let class = lvl.classes[msg.mtype.as_usize()];
        // The receiver: the level-j directory, hosted by machine-level-(j+1)
        // node p, or the cache side of machine-level-j node g.
        let to_dir = dst == f;
        let g = p * f + dst;
        let (machine, slot) = if to_dir {
            // Acquire gating: below the root, a request needs the hosting
            // node to hold enough outer permission.
            if j + 1 < self.depth()
                && class == MsgClass::Request
                && lvl.needed.as_ref().expect("non-root level has glue")[msg.mtype.as_usize()]
                    > self.eff_perm(state, j + 1, p)
            {
                return Ok(false);
            }
            (&lvl.dir, Slot::Dir(&state.dirs[j][p]))
        } else {
            // Release gating: a forward must wait until g's inner subnet
            // holds no data.
            if j >= 1 && class == MsgClass::Forward && self.has_copies(state, j - 1, g) {
                return Ok(false);
            }
            (&lvl.cache, Slot::Cache(&state.caches[j][g]))
        };
        let arc = match machine.select(slot, Event::Msg(msg.mtype), Some(&msg)) {
            Selected::Arc(arc) => arc,
            Selected::Stall => return Ok(false),
            Selected::None => {
                let who = if to_dir {
                    format!("{} directory p{p}", lvl.label)
                } else {
                    format!("node L{j}.{g}")
                };
                return Err(ViolationKind::UnexpectedMessage(machine.unexpected(who, slot, msg)));
            }
        };
        let cache = (!to_dir).then_some(g);
        let touched = Touched { level: j, parent: p, cache, delivered: Some((src, dst)) };
        self.fire(state, touched, arc, Some((idx, &msg)), succ, scratch)?;
        self.route(succ, j, p, &scratch.outcome)?;
        Ok(true)
    }

    fn issue_into(
        &self,
        state: &HierState,
        jm: usize,
        node: usize,
        access: Access,
        succ: &mut HierState,
        scratch: &mut HierScratch,
    ) -> Result<bool, ViolationKind> {
        let lvl = &self.levels[jm];
        let block = &state.caches[jm][node];
        let Selected::Arc(arc) = lvl.cache.select(block.slot(), Event::Access(access), None) else {
            return Ok(false);
        };
        let is_hit = arc.actions.iter().any(|a| matches!(a, protogen_spec::Action::PerformAccess));
        if !is_hit && block.pending.is_some() {
            // One outstanding transaction per block per node (§V-F).
            return Ok(false);
        }
        let parent = node / lvl.fanout;
        let touched = Touched { level: jm, parent, cache: Some(node), delivered: None };
        self.fire(state, touched, arc, None, succ, scratch)?;
        // Parents are data-transparent: only leaf hits are checked.
        if let (0, Some((Access::Load, Some(v)))) = (jm, scratch.outcome.performed) {
            if let Some(kind) = self.cfg.properties.check_load_hit(node, v, state.ghost, true) {
                return Err(kind);
            }
        }
        self.route(succ, jm, parent, &scratch.outcome)?;
        Ok(true)
    }

    /// The second half of a step, once `arc` was selected on the parent
    /// `state`: restores the scratch successor, records `t` — what is about
    /// to be written — takes the delivered message (`(idx, msg)`, if the
    /// step is a delivery) off its queue, applies `arc` to the machine `t`
    /// names and mirrors the data it moved across the hosting boundary.
    fn fire(
        &self,
        state: &HierState,
        t: Touched,
        arc: &Arc,
        delivered: Option<(usize, &Msg)>,
        succ: &mut HierState,
        scratch: &mut HierScratch,
    ) -> Result<(), ViolationKind> {
        let (j, p) = (t.level, t.parent);
        let lvl = &self.levels[j];
        let dir_id = NodeId(lvl.fanout as u8);
        scratch.sync(state, succ);
        scratch.touched = Some(t);
        let outcome = &mut scratch.outcome;
        if let (Some((src, dst)), Some((idx, _))) = (t.delivered, delivered) {
            succ.chans[j][p][src][dst].remove(idx);
        }
        let msg = delivered.map(|(_, msg)| msg);
        let store_value = (state.ghost + 1) % self.cfg.value_domain;
        // Parents are data-transparent: only a leaf store mints a value.
        let (machine, ctx, value) = match t.cache {
            None => (&lvl.dir, succ.dirs[j][p].ctx(dir_id, dir_id), store_value),
            Some(g) => (
                &lvl.cache,
                succ.caches[j][g].ctx(NodeId((g % lvl.fanout) as u8), dir_id),
                if j == 0 { store_value } else { state.ghost },
            ),
        };
        machine.apply(arc, msg, ctx, value, outcome).map_err(exec_violation)?;
        let stored = matches!(outcome.performed, Some((Access::Store, _)));
        match t.cache {
            // Writebacks landing in the directory refresh the hosting
            // node's outer copy, so the value rides outer evictions and
            // forwards unchanged.
            None => {
                if j + 1 < self.depth()
                    && succ.dirs[j][p].data != state.dirs[j][p].data
                    && succ.caches[j + 1][p].data.is_some()
                {
                    succ.caches[j + 1][p].data = Some(succ.dirs[j][p].data);
                }
            }
            Some(_) if j == 0 => {
                if stored {
                    succ.ghost = store_value;
                }
            }
            // A completed glue Store keeps the value the outer protocol
            // delivered (or the node already held) instead of the minted
            // store value, and never advances the ghost.
            Some(g) => {
                let pre_data = state.caches[j][g].data;
                let blk = &mut succ.caches[j][g];
                if stored {
                    blk.data = msg.and_then(|m| m.data).or(pre_data);
                }
                if blk.data != pre_data {
                    if let Some(v) = blk.data {
                        succ.dirs[j - 1][g].data = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Injects the outcome's outgoing messages into the acting machine's
    /// subnet, checking the capacity bound.
    fn route(
        &self,
        succ: &mut HierState,
        j: usize,
        p: usize,
        outcome: &ApplyOutcome,
    ) -> Result<(), ViolationKind> {
        for i in 0..outcome.outgoing.len() {
            let m = outcome.outgoing[i];
            let q = &mut succ.chans[j][p][m.src.as_usize()][m.dst.as_usize()];
            q.push(m);
            if q.len() > self.cfg.channel_cap {
                return Err(ViolationKind::ChannelOverflow(format!(
                    "channel L{j}/p{p} n{}→n{} exceeded {}",
                    m.src.0, m.dst.0, self.cfg.channel_cap
                )));
            }
        }
        Ok(())
    }

    /// Appends the byte encoding of the state under `perm` to `sink`.
    /// Sections are laid out exactly like the flat encoding — all cache
    /// blocks (levels leaf-first), then all directory entries, then all
    /// channels, then the ghost byte, through the same per-section codecs
    /// — so the delta store's section map generalizes over both.
    fn encode_permuted(&self, s: &HierState, perm: &HierPerm, sink: &mut Vec<u8>) {
        let k = self.depth();
        // Subnet-local id renaming inside the level-`j` subnet whose
        // *old* parent index is `p` (the directory id `f` is fixed).
        let local = |j: usize, p: usize| {
            let f = self.levels[j].fanout;
            move |id: NodeId| match id.as_usize() {
                c if c < f => perm.maps[j][p * f + c] % f as u8,
                _ => id.0,
            }
        };
        for jm in 0..k {
            let f = self.levels[jm].fanout;
            for &g in &perm.invs[jm] {
                put_block(sink, &s.caches[jm][g as usize], local(jm, g as usize / f));
            }
        }
        for j in 0..k {
            for &p in &perm.invs[j + 1] {
                let (dir, map) = (&s.dirs[j][p as usize], local(j, p as usize));
                let sharers = (0..self.levels[j].fanout as u8)
                    .filter(|c| dir.sharers & (1 << c) != 0)
                    .fold(0u8, |acc, c| acc | 1 << map(NodeId(c)));
                put_dir(sink, dir, sharers, map);
            }
        }
        for j in 0..k {
            let f = self.levels[j].fanout;
            for (p2, &p) in perm.invs[j + 1].iter().enumerate() {
                let map = local(j, p as usize);
                let inv_local =
                    |c2: usize| if c2 < f { perm.invs[j][p2 * f + c2] as usize % f } else { c2 };
                for s2 in 0..=f {
                    for d2 in 0..=f {
                        let q = &s.chans[j][p as usize][inv_local(s2)][inv_local(d2)];
                        put_queue(sink, q, map);
                    }
                }
            }
        }
        sink.push(s.ghost);
    }

    /// Fills `keys` leaves-first with every node's subtree key and `base`
    /// with every parent's children in ascending `(key, index)` order.
    ///
    /// A node's key is the flat sort key over its own subnet, absorbed —
    /// above the leaves — with the scalar fields of the inner directory it
    /// hosts (which child that directory names is in the children's keys)
    /// and with its children's keys in sorted order. Nothing in it hashes
    /// a concrete sibling index, so `key(g, s) == key(π(g), π·s)` for
    /// every group element π: the contract that makes the pruning exact.
    fn sort_siblings(&self, s: &HierState, keys: &mut [Vec<u64>], base: &mut [Vec<u8>]) {
        for jm in 0..self.depth() {
            let f = self.levels[jm].fanout;
            let (below, at) = keys.split_at_mut(jm);
            for g in 0..self.counts[jm] {
                let p = g / f;
                let sibs = &s.caches[jm][p * f..(p + 1) * f];
                let mut h = subnet_sort_key(sibs, &s.dirs[jm][p], &s.chans[jm][p], g % f);
                if jm >= 1 {
                    let fi = self.levels[jm - 1].fanout;
                    let d = &s.dirs[jm - 1][g];
                    let dir = (d.state.0 as u64)
                        | (d.data as u64) << 32
                        | (d.owner.is_some() as u64) << 40
                        | (d.sharers.count_ones() as u64) << 41
                        | (d.chain_slots.len() as u64) << 45;
                    h = absorb(h, dir);
                    for (_, a) in &d.chain_slots {
                        h = absorb(h, *a as u64);
                    }
                    h = absorb(h, queue_hash(&s.chans[jm - 1][g][fi][fi], fi, fi));
                    for &c in &base[jm - 1][g * fi..(g + 1) * fi] {
                        h = absorb(h, below[jm - 1][c as usize]);
                    }
                }
                at[0][g] = h;
            }
            let keys = &at[0];
            for (p, sibs) in base[jm].chunks_mut(f).enumerate() {
                for (off, slot) in sibs.iter_mut().enumerate() {
                    *slot = (p * f + off) as u8;
                }
                sibs.sort_unstable_by_key(|&c| (keys[c as usize], c));
            }
        }
    }

    /// The number of group elements the canonicalizer enumerates for `s`
    /// (an exhaustive sweep enumerates [`Self::group_size`]): the product
    /// of the factorials of its equal-key sibling runs. Exposed for tests
    /// and measurements, like [`crate::Canonicalizer::pruned_candidates`].
    pub fn pruned_candidates(&self, s: &HierState, scratch: &mut HierScratch) -> usize {
        if !self.reduces() {
            return 1;
        }
        self.canonical_fp(s, scratch);
        scratch.ties.iter().map(|&(_, _, len)| (1..=len).product::<usize>()).product()
    }

    /// Runs breadth-first exploration on the shared explorer until
    /// exhaustion, a violation, or a resource limit. Deterministic at any
    /// thread count, store mode, and memory budget.
    pub fn check(&self) -> HierResult {
        explore(self, None).0
    }

    /// Resumes from the newest committed checkpoint under
    /// [`HierConfig::checkpoint_dir`], with the flat checker's contract:
    /// a hard [`CheckpointError`] unless it was written by this exact
    /// stack and configuration, byte-identical results otherwise.
    pub fn resume(&self) -> Result<HierResult, CheckpointError> {
        resume(self).map(|out| out.0)
    }
}

impl TransitionSystem for HierChecker {
    type State = HierState;
    type Step = HStep;
    type Scratch = HierScratch;

    fn resources(&self) -> Resources<'_> {
        self.cfg.resources()
    }

    fn identity_fp(&self) -> (u64, u64) {
        let c = &self.cfg;
        // `canon=` names the representative rule: a checkpoint's stored
        // states are canonical under the rule that wrote them, so one
        // written under another rule (the byte-minimal sweep this checker
        // started with) is a configuration mismatch, not resumable input.
        let desc = format!(
            "hier counts={:?} domain={} cap={} symmetry={} canon=sorted-siblings store={:?} \
             props={}",
            self.counts, c.value_domain, c.channel_cap, c.symmetry, c.store, c.properties,
        );
        let mut machines = String::new();
        for l in &self.levels {
            machines += &format!(
                "{} {} {} {:?} {:?} {:?}\x1f",
                l.label,
                l.fanout,
                l.ordered,
                l.cache.fsm(),
                l.dir.fsm(),
                l.needed
            );
        }
        (fingerprint_bytes(desc.as_bytes()), fingerprint_bytes(machines.as_bytes()))
    }

    /// Cache counts per machine level, and one `(parents, fanout)` subnet
    /// shape per protocol level.
    fn section_map(&self) -> SectionMap {
        let k = self.depth();
        let subnets: Vec<_> = (0..k).map(|j| (self.counts[j + 1], self.levels[j].fanout)).collect();
        SectionMap::leveled(&self.counts[..k], &subnets)
    }

    /// The initial state: every block invalid, every directory initial
    /// holding value 0, no messages.
    fn initial(&self) -> HierState {
        let k = self.depth();
        HierState {
            caches: (0..k).map(|jm| vec![CacheBlock::new(); self.counts[jm]]).collect(),
            dirs: (0..k).map(|j| vec![DirEntry::new(0); self.counts[j + 1]]).collect(),
            chans: (0..k)
                .map(|j| {
                    let total = self.levels[j].fanout + 1;
                    vec![vec![vec![Vec::new(); total]; total]; self.counts[j + 1]]
                })
                .collect(),
            ghost: 0,
        }
    }

    fn scratch(&self) -> HierScratch {
        let below_root = &self.counts[..self.depth()];
        HierScratch {
            best: Vec::new(),
            cur: Vec::new(),
            keys: below_root.iter().map(|&n| vec![0; n]).collect(),
            base: below_root.iter().map(|&n| vec![0; n]).collect(),
            order: Vec::new(),
            ties: Vec::new(),
            counters: Vec::new(),
            perm_tables: vec![Vec::new(); protogen_spec::MAX_FANOUT + 1],
            perm: HierPerm::identity(&self.counts),
            outcome: ApplyOutcome::default(),
            synced: false,
            touched: None,
        }
    }

    /// All candidate steps from `state`, in canonical order: deliveries by
    /// `(level, parent, src, dst, idx)`, then leaf accesses by
    /// `(node, access)`, then glue issues by `(mlevel, node)`. A pure
    /// function of `state`, so traces are identical run to run. For a
    /// one-level composition this is exactly the flat checker's order.
    fn steps_into(&self, s: &HierState, out: &mut Vec<HStep>) {
        out.clear();
        let k = self.depth();
        for j in 0..k {
            let lvl = &self.levels[j];
            let total = lvl.fanout + 1;
            for p in 0..self.counts[j + 1] {
                for src in 0..total {
                    for dst in 0..total {
                        let q = &s.chans[j][p][src][dst];
                        if q.is_empty() {
                            continue;
                        }
                        let last = if lvl.ordered { 1 } else { q.len() };
                        for idx in 0..last {
                            out.push(HStep::Deliver {
                                level: j as u8,
                                parent: p as u8,
                                src: src as u8,
                                dst: dst as u8,
                                idx: idx as u8,
                            });
                        }
                    }
                }
            }
        }
        for node in 0..self.counts[0] {
            for access in Access::ALL {
                out.push(HStep::Issue { mlevel: 0, node: node as u8, access });
            }
        }
        // Glue issues: acquires for gated inner requests, writebacks for
        // quiescent subnets. One outstanding outer transaction per node.
        for jm in 1..k {
            let j = jm - 1;
            let f = self.levels[j].fanout;
            let needed = self.levels[j].needed.as_ref().expect("non-root level has glue");
            for node in 0..self.counts[jm] {
                let block = &s.caches[jm][node];
                if block.pending.is_some() {
                    continue;
                }
                let eff = self.eff_perm(s, jm, node);
                let (mut want_load, mut want_store) = (false, false);
                for src in 0..=f {
                    for m in &s.chans[j][node][src][f] {
                        if self.levels[j].classes[m.mtype.as_usize()] != MsgClass::Request {
                            continue;
                        }
                        match needed[m.mtype.as_usize()] {
                            need if need <= eff => {}
                            Perm::Read => want_load = true,
                            Perm::ReadWrite => want_store = true,
                            Perm::None => {}
                        }
                    }
                }
                if want_load {
                    out.push(HStep::Issue {
                        mlevel: jm as u8,
                        node: node as u8,
                        access: Access::Load,
                    });
                }
                if want_store {
                    out.push(HStep::Issue {
                        mlevel: jm as u8,
                        node: node as u8,
                        access: Access::Store,
                    });
                }
                let st = self.levels[jm].cache.fsm().state(block.state);
                if st.is_stable()
                    && block.state != FsmStateId(0)
                    && self.inner_quiescent(s, jm, node)
                {
                    out.push(HStep::Issue {
                        mlevel: jm as u8,
                        node: node as u8,
                        access: Access::Replacement,
                    });
                }
            }
        }
    }

    /// Computes the successor of `state` for `step` into the scratch state
    /// `succ`. Returns `Ok(false)` when the step is not enabled — gated by
    /// glue, stalled, absent arc, busy node — and `succ` is garbage then.
    fn successor_into(
        &self,
        state: &HierState,
        step: HStep,
        succ: &mut HierState,
        scratch: &mut HierScratch,
    ) -> Result<bool, ViolationKind> {
        match step {
            HStep::Deliver { level, parent, src, dst, idx } => self.deliver_into(
                state,
                level as usize,
                parent as usize,
                src as usize,
                dst as usize,
                idx as usize,
                succ,
                scratch,
            ),
            HStep::Issue { mlevel, node, access } => {
                self.issue_into(state, mlevel as usize, node as usize, access, succ, scratch)
            }
        }
    }

    /// Deliveries always; in a real stack also glue issues (they unblock
    /// gated work) and a leaf eviction draining a copy a gated forward
    /// waits on. Fresh leaf demands only add transactions.
    fn is_progress(&self, state: &HierState, step: HStep) -> bool {
        match step {
            HStep::Deliver { .. } => true,
            HStep::Issue { mlevel, node, access } => {
                self.depth() > 1
                    && (mlevel >= 1
                        || (access == Access::Replacement
                            && state.caches[0][node as usize].data.is_some()))
            }
        }
    }

    /// State-level properties: per-level SWMR / single-writer, leaf-level
    /// data-value.
    fn check_state(&self, s: &HierState) -> Option<ViolationKind> {
        let levels = self.levels.iter().zip(&s.caches).map(|(l, blocks)| LevelBlocks {
            fsm: l.cache.fsm(),
            blocks,
            label: Some(&l.label),
        });
        self.cfg.properties.check_state(levels, s.ghost)
    }

    fn check_quiescence(&self, state: &HierState) -> Option<ViolationKind> {
        self.cfg
            .properties
            .check_quiescence(|| state.messages_in_flight() > 0 || state.has_pending_access())
    }

    /// The canonical fingerprint of `s`, its encoding left in `sc.best` for
    /// the encode call: among the group elements that list siblings in
    /// ascending key order under every parent, the one whose encoding has
    /// the minimum fingerprint, ties by enumeration order —
    /// [`crate::Canonicalizer`]'s rule and, for one level, its exact
    /// enumeration order: runs in ascending slot order (top level first in
    /// a taller stack), the last varying fastest, `slot[start + off] =
    /// base[start + σ[off]]`.
    fn canonical_fp(&self, s: &HierState, sc: &mut HierScratch) -> u64 {
        let HierScratch { best, cur, keys, base, order, ties, counters, perm_tables, perm, .. } =
            sc;
        if !self.reduces() {
            best.clear();
            self.encode_permuted(s, perm, best);
            return fingerprint_bytes(best);
        }
        self.sort_siblings(s, keys, base);
        ties.clear();
        for jm in (0..self.depth()).rev() {
            let f = self.levels[jm].fanout;
            let key = |slot: usize| keys[jm][base[jm][slot] as usize];
            let mut start = 0;
            for end in 1..=self.counts[jm] {
                if end % f == 0 || key(end) != key(start) {
                    let len = end - start;
                    if len > 1 {
                        ties.push((jm, start, len));
                        if perm_tables[len].is_empty() {
                            perm_tables[len] = crate::system::permutations(len).concat();
                        }
                    }
                    start = end;
                }
            }
        }
        order.clone_from(base);
        counters.clear();
        counters.resize(ties.len(), 0);
        let mut best_fp = u64::MAX;
        best.clear();
        loop {
            for (&(jm, start, len), &at) in ties.iter().zip(counters.iter()) {
                let sigma = &perm_tables[len][at as usize * len..][..len];
                for (off, &k) in sigma.iter().enumerate() {
                    order[jm][start + off] = base[jm][start + k as usize];
                }
            }
            // Top-down: a parent's slot decides where its children's run
            // of slots starts.
            for jm in (0..self.depth()).rev() {
                let f = self.levels[jm].fanout;
                let (lo, hi) = perm.invs.split_at_mut(jm + 1);
                for (p2, &p) in hi[0].iter().enumerate() {
                    for off in 0..f {
                        let old = order[jm][p as usize * f + off];
                        lo[jm][p2 * f + off] = old;
                        perm.maps[jm][old as usize] = (p2 * f + off) as u8;
                    }
                }
            }
            cur.clear();
            self.encode_permuted(s, perm, cur);
            let fp = fingerprint_bytes(cur);
            // `best` is empty only before the first candidate, which must
            // win even at `fp == u64::MAX`.
            if fp < best_fp || best.is_empty() {
                best_fp = fp;
                std::mem::swap(best, cur);
            }
            // Advance the counter; done when it wraps.
            let mut gi = ties.len();
            loop {
                if gi == 0 {
                    return best_fp;
                }
                gi -= 1;
                let len = ties[gi].2;
                counters[gi] += 1;
                if (counters[gi] as usize) < perm_tables[len].len() / len {
                    break;
                }
                counters[gi] = 0;
            }
        }
    }

    fn encode_canonical_into(&self, scratch: &HierScratch, out: &mut Vec<u8>) {
        out.extend_from_slice(&scratch.best);
    }

    /// Decodes an identity-permutation encoding back into `s` (shaped by
    /// [`Self::initial`]): sections arrive in `s`'s own nesting order.
    fn decode_into(&self, bytes: &[u8], s: &mut HierState, scratch: &mut HierScratch) {
        scratch.synced = false;
        let mut d = Decoder::new(bytes);
        s.caches.iter_mut().flatten().for_each(|c| d.block(c));
        s.dirs.iter_mut().flatten().for_each(|e| d.dir(e));
        s.chans.iter_mut().flatten().flatten().flatten().for_each(|q| d.queue(q));
        s.ghost = d.ghost();
    }

    /// Preserves [`HStep`]'s derived ordering (the order `steps_into`
    /// generates them in): bit 31 tags an issue; node ids are subnet-local
    /// (≤ `MAX_FANOUT`) so four bits each suffice.
    fn pack_step(step: HStep) -> u32 {
        match step {
            HStep::Deliver { level, parent, src, dst, idx } => {
                debug_assert!(level < 0x80 && src < 16 && dst < 16);
                (level as u32) << 24
                    | (parent as u32) << 16
                    | (src as u32) << 12
                    | (dst as u32) << 8
                    | idx as u32
            }
            HStep::Issue { mlevel, node, access } => {
                1 << 31 | (mlevel as u32) << 16 | (node as u32) << 8 | access.index() as u32
            }
        }
    }

    fn unpack_step(p: u32) -> HStep {
        if p >> 31 == 0 {
            HStep::Deliver {
                level: (p >> 24) as u8,
                parent: (p >> 16) as u8,
                src: (p >> 12 & 0xf) as u8,
                dst: (p >> 8 & 0xf) as u8,
                idx: p as u8,
            }
        } else {
            HStep::Issue {
                mlevel: (p >> 16) as u8,
                node: (p >> 8) as u8,
                access: Access::ALL[(p & 0xff) as usize],
            }
        }
    }

    fn describe(&self, _: &HierState, step: HStep) -> String {
        step.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{compose, GenConfig};
    use protogen_protocols::{flat_composition, msi_under_msi};
    use std::collections::HashMap;

    fn checker(comp: &protogen_spec::Composition, cfg: HierConfig) -> HierChecker {
        let composed = compose(comp, &GenConfig::stalling()).unwrap();
        HierChecker::new(&composed, cfg)
    }

    fn tower() -> protogen_spec::Composition {
        let mut comp = msi_under_msi(2, 2);
        comp.levels.insert(1, comp.levels[0].clone());
        comp
    }

    /// The oracle's group: every element of the wreath product over the
    /// stack's topology, materialised — for each machine level below the
    /// root, independently permute the children of every parent, composing
    /// with the parent's own (already chosen) new position.
    fn wreath_group(hc: &HierChecker) -> Vec<HierPerm> {
        // Partial maps, root-first: start with the trivial root map and
        // extend downward one machine level at a time.
        let mut partials: Vec<Vec<Vec<u8>>> = vec![vec![vec![0]]];
        for jm in (0..hc.depth()).rev() {
            let f = hc.levels[jm].fanout;
            let sigmas = crate::system::permutations(f);
            let parents = hc.counts[jm + 1];
            let mut next = Vec::new();
            for partial in &partials {
                // One sibling permutation per parent: a mixed-radix
                // counter over `sigmas`, `partial[0]` being the parents' map.
                for mut choice in 0..sigmas.len().pow(parents as u32) {
                    let mut map = vec![0u8; hc.counts[jm]];
                    for p in 0..parents {
                        let sigma = &sigmas[choice % sigmas.len()];
                        choice /= sigmas.len();
                        for c in 0..f {
                            map[p * f + c] = partial[0][p] * f as u8 + sigma[c];
                        }
                    }
                    next.push([vec![map], partial.clone()].concat());
                }
            }
            partials = next;
        }
        partials
            .into_iter()
            .map(|maps| HierPerm {
                invs: maps.iter().map(|m| crate::system::invert(m)).collect(),
                maps,
            })
            .collect()
    }

    /// The oracle's representative (this checker's first rule): encode
    /// under every group element, keep the byte-minimal encoding.
    fn sweep_min(hc: &HierChecker, group: &[HierPerm], s: &HierState) -> Vec<u8> {
        let encode = |perm| {
            let mut enc = Vec::new();
            hc.encode_permuted(s, perm, &mut enc);
            enc
        };
        group.iter().map(encode).min().expect("a group has its identity")
    }

    fn canonical(hc: &HierChecker, s: &HierState, sc: &mut HierScratch) -> Vec<u8> {
        hc.canonical_fp(s, sc);
        sc.best.clone()
    }

    #[test]
    fn wreath_group_size_matches_topology() {
        let hc = checker(&msi_under_msi(2, 2), HierConfig::default());
        // 2 sibling swaps per L2 subnet × 2 subnets × 1 swap of the L2s.
        assert_eq!(hc.group_size(), 8);
        assert_eq!(hc.counts(), &[4, 2, 1]);
        // The arithmetic order is the enumerated group's.
        for (comp, order) in [
            (msi_under_msi(2, 2), 8),
            (msi_under_msi(1, 3), 6),
            (msi_under_msi(3, 2), 72),
            (tower(), 128),
        ] {
            let hc = checker(&comp, HierConfig::default());
            assert_eq!((hc.group_size(), wreath_group(&hc).len()), (order, order), "{}", comp.name);
        }
        // Past the cap, and with symmetry off, the group in use is trivial.
        let wide = checker(&msi_under_msi(4, 3), HierConfig::default());
        assert_eq!((wide.group_size(), wide.group_order()), (1, 82_944.0));
        let off = HierConfig { symmetry: false, ..HierConfig::default() };
        assert_eq!(checker(&msi_under_msi(2, 2), off).group_size(), 1);
    }

    #[test]
    fn encode_decode_round_trips() {
        let hc = checker(&msi_under_msi(2, 2), HierConfig::default());
        let encs = crate::explore::reference_bfs(&hc, 50).0;
        assert!(encs.len() > 10, "sampled only {}", encs.len());
        let (mut s, mut sc) = (hc.initial(), hc.scratch());
        for enc in &encs {
            hc.decode_into(enc, &mut s, &mut sc);
            assert_eq!(
                &canonical(&hc, &s, &mut sc),
                enc,
                "canonical encodings must be decode-stable"
            );
        }
    }

    #[test]
    fn symmetric_states_share_a_canonical_encoding() {
        let hc = checker(&msi_under_msi(2, 2), HierConfig::default());
        let mut sc = hc.scratch();
        let mut a = hc.initial();
        a.caches[0][0].data = Some(1);
        let mut b = hc.initial();
        b.caches[0][3].data = Some(1);
        assert_eq!(canonical(&hc, &a, &mut sc), canonical(&hc, &b, &mut sc));
        // But a leaf and an L2 holding data are NOT symmetric.
        let mut c = hc.initial();
        c.caches[1][0].data = Some(1);
        assert_ne!(canonical(&hc, &a, &mut sc), canonical(&hc, &c, &mut sc));
    }

    /// Every successor of a BFS prefix — orbit members as the explorer
    /// meets them, not yet canonical — against the exhaustive sweep: the
    /// two representative rules must induce the same partition, and the
    /// candidate left in the scratch must be an element of the group.
    #[test]
    fn pruned_partition_equals_the_exhaustive_sweeps() {
        for (comp, limit) in [(msi_under_msi(2, 2), 150), (tower(), 40)] {
            let hc = checker(&comp, HierConfig::default());
            let group = wreath_group(&hc);
            let (mut state, mut succ, mut sc) = (hc.initial(), hc.initial(), hc.scratch());
            let (mut steps, mut seen) = (Vec::new(), 0usize);
            let (mut to_sweep, mut to_pruned) = (HashMap::new(), HashMap::new());
            for enc in &crate::explore::reference_bfs(&hc, limit).0 {
                hc.decode_into(enc, &mut state, &mut sc);
                hc.steps_into(&state, &mut steps);
                for &step in &steps {
                    if !matches!(hc.successor_into(&state, step, &mut succ, &mut sc), Ok(true)) {
                        continue;
                    }
                    let pruned = canonical(&hc, &succ, &mut sc);
                    for jm in 0..hc.depth() {
                        let f = hc.levels[jm].fanout;
                        assert_eq!(crate::system::invert(&sc.perm.maps[jm]), sc.perm.invs[jm]);
                        for (g, &to) in sc.perm.maps[jm].iter().enumerate() {
                            let parent = sc.perm.maps[jm + 1][g / f];
                            assert_eq!(to / f as u8, parent, "a child left its parent");
                        }
                    }
                    let sweep = sweep_min(&hc, &group, &succ);
                    assert_eq!(to_sweep.entry(pruned.clone()).or_insert(sweep.clone()), &sweep);
                    assert_eq!(to_pruned.entry(sweep).or_insert(pruned.clone()), &pruned);
                    seen += 1;
                }
            }
            assert!(seen > 5 * to_sweep.len() / 4, "{}: too few repeated orbits", comp.name);
        }
    }

    #[test]
    fn hstep_packing_round_trips_and_preserves_order() {
        let (pack_hstep, unpack_hstep) = (HierChecker::pack_step, HierChecker::unpack_step);
        let steps = [
            HStep::Deliver { level: 0, parent: 0, src: 0, dst: 2, idx: 0 },
            HStep::Deliver { level: 0, parent: 1, src: 0, dst: 1, idx: 3 },
            HStep::Deliver { level: 0, parent: 1, src: 8, dst: 0, idx: 0 },
            HStep::Deliver { level: 0, parent: 255, src: 0, dst: 0, idx: 0 },
            HStep::Deliver { level: 1, parent: 0, src: 0, dst: 0, idx: 0 },
            HStep::Issue { mlevel: 0, node: 0, access: Access::Load },
            HStep::Issue { mlevel: 0, node: 255, access: Access::Replacement },
            HStep::Issue { mlevel: 1, node: 0, access: Access::Store },
        ];
        for w in steps.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
            assert!(pack_hstep(w[0]) < pack_hstep(w[1]), "packed order broken at {:?}", w[0]);
        }
        for s in steps {
            assert_eq!(unpack_hstep(pack_hstep(s)), s);
            assert_ne!(pack_hstep(s), crate::store::STEP_NONE);
        }
    }

    /// A 2×2 state with work in both subnets and at the outer level, out
    /// of canonical arrangement: the busier subnet sits second, and inside
    /// it the busier leaf second.
    fn busy_state(hc: &HierChecker) -> HierState {
        let msg = |mtype, src, dst, req, data| Msg {
            mtype: protogen_spec::MsgId(mtype),
            src: NodeId(src),
            dst: NodeId(dst),
            req: NodeId(req),
            ack_count: None,
            data,
        };
        let mut s = hc.initial();
        s.caches[0][3].state = FsmStateId(2);
        s.caches[0][3].data = Some(1);
        s.caches[0][2].pending = Some(Access::Load);
        s.caches[0][0].pending = Some(Access::Store);
        s.caches[1][1].state = FsmStateId(2);
        s.caches[1][1].data = Some(1);
        s.dirs[0][1].owner = Some(NodeId(1));
        s.dirs[0][1].data = 1;
        s.dirs[1][0].owner = Some(NodeId(1));
        s.chans[0][1][0][2].push(msg(0, 0, 2, 0, None));
        s.chans[0][0][0][2].push(msg(1, 0, 2, 0, None));
        s.chans[1][0][2][0].push(msg(3, 2, 0, 1, Some(1)));
        s.ghost = 1;
        s
    }

    /// The representative rule is what a stored checkpoint and every
    /// composed trace depend on: change it deliberately, with
    /// `identity_fp`'s `canon=` tag, or not at all.
    #[test]
    fn canonical_encodings_are_pinned() {
        let hc = checker(&msi_under_msi(2, 2), HierConfig::default());
        let mut sc = hc.scratch();
        assert_eq!(hc.canonical_fp(&hc.initial(), &mut sc), 0x164db6fbd8dd592e);
        let mut initial = [0u8; 88];
        for block in 0..6 {
            initial[block * 7..block * 7 + 7].copy_from_slice(&[0, 0, 255, 0, 255, 255, 0]);
        }
        for dir in 0..3 {
            initial[42 + dir * 6 + 2] = 255; // no owner
        }
        assert_eq!(sc.best, initial);
        assert_eq!(hc.pruned_candidates(&hc.initial(), &mut sc), 8, "fully symmetric");

        assert_eq!(hc.canonical_fp(&busy_state(&hc), &mut sc), 0x9089a806ee4224bc);
        assert_eq!(
            sc.best,
            [
                0, 0, 255, 0, 255, 255, 0, 0, 0, 255, 0, 255, 1, 0, 0, 0, 255, 0, 255, 0, 0, 2, 0,
                1, 0, 255, 255, 0, 0, 0, 255, 0, 255, 255, 0, 2, 0, 1, 0, 255, 255, 0, 0, 0, 255,
                0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 2, 1, 255,
                255, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                1, 3, 0, 2, 0, 1, 255, 1, 0, 0, 1,
            ]
        );
        assert_eq!(hc.pruned_candidates(&busy_state(&hc), &mut sc), 1, "all keys distinct");
    }

    #[test]
    fn one_level_composition_checks_clean() {
        let comp = flat_composition("msi", 2).unwrap();
        let hc = checker(&comp, HierConfig::default());
        let res = hc.check();
        assert!(res.passed(), "{:?}", res.violation);
        assert!(res.states > 100);
    }

    /// The widest level `HStep`'s `u8`s can index is accepted and steps;
    /// one fanout more is refused by name instead of wrapping an index.
    #[test]
    fn level_node_counts_are_bounded_by_the_step_index() {
        let stack = |top| {
            let mut comp = tower();
            for (level, fanout) in comp.levels.iter_mut().zip([8, 8, top]) {
                level.fanout = fanout;
            }
            compose(&comp, &GenConfig::stalling()).unwrap()
        };
        let widest =
            HierChecker::new(&stack(4), HierConfig { max_states: 50, ..HierConfig::default() });
        assert_eq!((widest.counts()[0], widest.group_size()), (MAX_LEVEL_NODES, 1));
        let res = widest.check();
        assert!(res.violation.is_none(), "{:?}", res.violation);
        assert_eq!(res.limit, Some(crate::ResourceLimit::StateBudget));
        let err = HierChecker::check_size(&stack(5)).unwrap_err();
        assert!(err.contains("level 0 (l1) has 320 nodes"), "{err}");
        let refused =
            std::panic::catch_unwind(|| HierChecker::new(&stack(5), HierConfig::default()));
        assert!(refused.is_err(), "an oversized stack must not construct");
    }
}
