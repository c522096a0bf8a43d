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

use crate::canon::{queue_hash, subnet_sort_key, Sweep};
use crate::checkpoint::CheckpointError;
use crate::delta::SectionMap;
use crate::explore::{explore, resume, CheckResult, TransitionSystem, ViolationKind};
use crate::flat::{mint, McConfig, Step, VALUE_DOMAIN};
use crate::property::LevelBlocks;
use crate::store::{absorb, fingerprint_bytes};
use crate::subnet::{At, Kernel, Naming, StepScratch, Subnet, SubnetMut, Subnets};
use crate::system::{put_block, put_chans_renamed, put_dir_renamed, rename, Decoder};
use protogen_core::Composed;
use protogen_runtime::{ApplyOutcome, CacheBlock, Coverage, DirEntry, Machine, Msg, Val};
use protogen_spec::{Access, Fsm, FsmStateId, MsgClass, Perm};

/// Largest wreath-product group the canonicalizer reduces under; stacks
/// whose group is bigger run without symmetry reduction (a fully symmetric
/// state enumerates its whole group). 8! covers every single-level system
/// the flat checker handles and all the bundled compositions (2×2
/// MSI-under-MSI has a group of 8).
pub const MAX_GROUP: usize = 40_320;

/// A composed stack is checked under the flat checker's configuration.
/// What a stack takes from its composition instead is ignored here:
/// [`McConfig::n_caches`] (the fanouts) and [`McConfig::ordered`] (channel
/// ordering is per level, from each level's SSP). Pair coverage is
/// recorded per level, tagged with it, as the flat checker records its one
/// level. `swmr`/`single_writer` are checked per level, `data_value` at the
/// leaves (stores are leaf-only; parents are data-transparent), and
/// `deadlock_free` counts glue issues and copy-draining evictions as
/// progress.
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

/// One element of the wreath-product symmetry group, as the tables the
/// encoder renames through: where every node goes, children always moving
/// with their parents, and how each subnet's local ids rename.
#[derive(Debug)]
struct HierPerm {
    /// Fanout per machine level below the root.
    fanouts: Vec<usize>,
    /// `invs[jm][new] = old` node index at machine level `jm` (the root's
    /// is trivially `[0]`).
    invs: Vec<Vec<u8>>,
    /// `local[jm][old]`: node `old`'s new subnet-local id — read from
    /// `p·f`, the renaming table of the subnet under old parent `p`.
    local: Vec<Vec<u8>>,
    /// `back[jm][p·f + new]`: the old local id at new local id `new` under
    /// old parent `p` — that table's inverse.
    back: Vec<Vec<u8>>,
}

impl HierPerm {
    /// The identity of a stack of `counts` nodes per machine level.
    fn identity(counts: &[usize], fanouts: &[usize]) -> Self {
        let ident: Vec<Vec<u8>> =
            counts.iter().map(|&n| (0..n).map(|g| g as u8).collect()).collect();
        let mut perm = HierPerm {
            fanouts: fanouts.to_vec(),
            invs: ident.clone(),
            local: ident.clone(),
            back: ident.clone(),
        };
        perm.arrange(&ident);
        perm
    }

    /// Fills the tables for the arrangement `order` (`order[jm][p·f + off]`
    /// is the child of old parent `p` placed at sibling offset `off`, as
    /// [`Sweep`] lists it), top-down: a parent's new slot decides where its
    /// children's run of slots starts.
    fn arrange(&mut self, order: &[Vec<u8>]) {
        for jm in (0..self.fanouts.len()).rev() {
            let f = self.fanouts[jm];
            let (lo, hi) = self.invs.split_at_mut(jm + 1);
            for (p2, &p) in hi[0].iter().enumerate() {
                let first = p as usize * f;
                for off in 0..f {
                    let old = order[jm][first + off];
                    lo[jm][p2 * f + off] = old;
                    self.local[jm][old as usize] = off as u8;
                    self.back[jm][first + off] = old - first as u8;
                }
            }
        }
    }

    /// The renaming table of the level-`j` subnet under old parent `p`,
    /// and its inverse.
    fn tables(&self, j: usize, p: usize) -> (&[u8], &[u8]) {
        let at = p * self.fanouts[j]..(p + 1) * self.fanouts[j];
        (&self.local[j][at.clone()], &self.back[j][at])
    }
}

/// Outcome of a hierarchical checking run: the shared explorer's.
pub type HierResult = CheckResult;

/// The composed system's per-worker scratch: the orbit-pruned sweep (its
/// `best` holds the encoding the last `canonical_fp` selected), the
/// candidate group element, and the subnet kernel's stepping scratch
/// (with the worker's coverage recorders, two per level).
#[derive(Debug)]
pub struct HierScratch {
    sweep: Sweep,
    /// The candidate group element being encoded; the identity until the
    /// first sweep, and for good when the stack runs unreduced.
    perm: HierPerm,
    step: StepScratch,
}

impl Subnets for HierState {
    fn subnet(&self, (j, p): At) -> Subnet<'_> {
        let f = self.chans[j][p].len() - 1;
        Subnet {
            caches: &self.caches[j][p * f..(p + 1) * f],
            dir: &self.dirs[j][p],
            chans: &self.chans[j][p],
            ghost: self.ghost,
        }
    }

    fn subnet_mut(&mut self, (j, p): At) -> SubnetMut<'_> {
        let f = self.chans[j][p].len() - 1;
        SubnetMut {
            caches: &mut self.caches[j][p * f..(p + 1) * f],
            dir: &mut self.dirs[j][p],
            chans: &mut self.chans[j][p],
            ghost: &mut self.ghost,
        }
    }

    /// The one data field `HierChecker::mirror` copies a step's line
    /// into: the inner directory a parent's cache side hosts, or the outer
    /// block of the node hosting a directory.
    fn restore_outside(&mut self, from: &Self, (j, p): At, node: usize) {
        let f = self.chans[j][p].len() - 1;
        if node < f {
            if j >= 1 {
                let g = p * f + node;
                self.dirs[j - 1][g].data = from.dirs[j - 1][g].data;
            }
        } else if j + 1 < self.caches.len() {
            self.caches[j + 1][p].data = from.caches[j + 1][p].data;
        }
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
    /// Panics when [`Self::check_size`] refuses the stack (node indices
    /// would wrap), or when [`McConfig::channel_cap`] is over
    /// [`crate::MAX_CHANNEL_CAP`] (queue lengths and delivery indices
    /// would).
    pub fn new(composed: &Composed, cfg: HierConfig) -> Self {
        if let Err(e) = Self::check_size(composed) {
            panic!("{e}");
        }
        cfg.assert_channel_cap();
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
        let net = s.subnet((j, p));
        net.caches.iter().any(|c| c.data.is_some())
            || net.chans.iter().flatten().flatten().any(|m| m.data.is_some())
    }

    /// Whether node `node` (machine level `jm ≥ 1`) may write its line
    /// back out: every child block back to initial, no in-flight inner
    /// message, and its inner directory stable with no owner or sharers.
    fn inner_quiescent(&self, s: &HierState, jm: usize, node: usize) -> bool {
        let (net, initial) = (s.subnet((jm - 1, node)), CacheBlock::new());
        net.caches.iter().all(|c| *c == initial)
            && net.chans.iter().flatten().all(|q| q.is_empty())
            && self.levels[jm - 1].dir.fsm().state(net.dir.state).is_stable()
            && net.dir.owner.is_none()
            && net.dir.sharers == 0
            && net.dir.chain_slots.is_empty()
    }

    /// The subnet kernel over protocol level `j`'s machines.
    fn kernel(&self, j: usize) -> Kernel<'_, Fsm> {
        let lvl = &self.levels[j];
        let naming = Naming::Level(&lvl.label);
        Kernel { cache: &lvl.cache, dir: &lvl.dir, cfg: &self.cfg, naming }
    }

    /// Glue gating: whether `msg`, headed for node `dst` of subnet `(j,
    /// p)`, must wait. Acquire: below the root, a request into the
    /// directory needs the hosting node to hold enough outer permission.
    /// Release: a forward into a parent's cache side waits until that
    /// node's inner subnet holds no data.
    fn gated(&self, s: &HierState, (j, p): At, dst: usize, msg: &Msg) -> bool {
        let lvl = &self.levels[j];
        let class = lvl.classes[msg.mtype.as_usize()];
        if dst == lvl.fanout {
            j + 1 < self.depth()
                && class == MsgClass::Request
                && lvl.needed.as_ref().expect("non-root level has glue")[msg.mtype.as_usize()]
                    > self.eff_perm(s, j + 1, p)
        } else {
            j >= 1 && class == MsgClass::Forward && self.has_copies(s, j - 1, p * lvl.fanout + dst)
        }
    }

    /// Parents are data-transparent: after the kernel applied a step to
    /// node `node` of subnet `(j, p)` (`delivered`, if it was a delivery),
    /// mirrors the data it moved across the hosting boundary. A writeback
    /// landing in a directory refreshes the hosting node's outer copy, so
    /// the value rides outer evictions and forwards unchanged; a completed
    /// glue Store keeps the value the outer protocol delivered (or the node
    /// already held) instead of a minted one, and the inner directory the
    /// node hosts follows its outer block.
    fn mirror(
        &self,
        state: &HierState,
        (j, p): At,
        node: usize,
        delivered: Option<Msg>,
        succ: &mut HierState,
        outcome: &ApplyOutcome,
    ) {
        let f = self.levels[j].fanout;
        if node == f {
            if j + 1 < self.depth()
                && succ.dirs[j][p].data != state.dirs[j][p].data
                && succ.caches[j + 1][p].data.is_some()
            {
                succ.caches[j + 1][p].data = Some(succ.dirs[j][p].data);
            }
        } else if j >= 1 {
            let g = p * f + node;
            let pre_data = state.caches[j][g].data;
            let blk = &mut succ.caches[j][g];
            if matches!(outcome.performed, Some((Access::Store, _))) {
                blk.data = delivered.and_then(|m| m.data).or(pre_data);
            }
            if blk.data != pre_data {
                if let Some(v) = blk.data {
                    succ.dirs[j - 1][g].data = v;
                }
            }
        }
    }

    /// Appends the byte encoding of the state under `perm` to `sink`.
    /// Sections are laid out exactly like the flat encoding — all cache
    /// blocks (levels leaf-first), then all directory entries, then all
    /// channels, then the ghost byte, through the same per-section codecs
    /// — so the delta store's section map generalizes over both. Every
    /// subnet renames its local ids through its own table in `perm`.
    fn encode_permuted(&self, s: &HierState, perm: &HierPerm, sink: &mut Vec<u8>) {
        let k = self.depth();
        for jm in 0..k {
            let f = self.levels[jm].fanout;
            for (p2, &p) in perm.invs[jm + 1].iter().enumerate() {
                let (local, _) = perm.tables(jm, p as usize);
                for &g in &perm.invs[jm][p2 * f..(p2 + 1) * f] {
                    put_block(sink, &s.caches[jm][g as usize], rename(local));
                }
            }
        }
        for j in 0..k {
            for &p in &perm.invs[j + 1] {
                put_dir_renamed(sink, &s.dirs[j][p as usize], perm.tables(j, p as usize).0);
            }
        }
        for j in 0..k {
            for &p in &perm.invs[j + 1] {
                let (local, back) = perm.tables(j, p as usize);
                put_chans_renamed(sink, &s.chans[j][p as usize], local, back);
            }
        }
        sink.push(s.ghost);
    }

    /// Fills the sweep's keys leaves-first with every node's subtree key,
    /// sorting every parent's children by them level by level.
    ///
    /// A node's key is the flat sort key over its own subnet, absorbed —
    /// above the leaves — with the scalar fields of the inner directory it
    /// hosts (which child that directory names is in the children's keys)
    /// and with its children's keys in sorted order. Nothing in it hashes
    /// a concrete sibling index, so `key(g, s) == key(π(g), π·s)` for
    /// every group element π: the contract that makes the pruning exact.
    fn sort_siblings(&self, s: &HierState, sweep: &mut Sweep) {
        for jm in 0..self.depth() {
            let f = self.levels[jm].fanout;
            let (below, at) = sweep.keys.split_at_mut(jm);
            for (g, key) in at[0].iter_mut().enumerate() {
                let mut h = subnet_sort_key(&s.subnet((jm, g / f)), g % f);
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
                    for &c in &sweep.base[jm - 1][g * fi..(g + 1) * fi] {
                        h = absorb(h, below[jm - 1][c as usize]);
                    }
                }
                *key = h;
            }
            sweep.sort(jm);
        }
    }

    /// The number of group elements the canonicalizer enumerates for `s`
    /// (an exhaustive sweep enumerates [`Self::group_size`]): the product
    /// of the factorials of its equal-key sibling runs. Exposed for tests
    /// and measurements, like [`crate::Canonicalizer::pruned_candidates`].
    pub fn pruned_candidates(&self, s: &HierState, scratch: &mut HierScratch) -> usize {
        self.canonical_fp(s, scratch);
        scratch.sweep.candidates()
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
        resume(self)
    }
}

impl TransitionSystem for HierChecker {
    type State = HierState;
    type Step = HStep;
    type Scratch = HierScratch;

    fn config(&self) -> &McConfig {
        &self.cfg
    }

    fn identity_fp(&self) -> (u64, u64) {
        let c = &self.cfg;
        // `canon=` names the representative rule: a checkpoint's stored
        // states are canonical under the rule that wrote them, so one
        // written under another rule (the byte-minimal sweep this checker
        // started with) is a configuration mismatch, not resumable input.
        let desc = format!(
            "hier counts={:?} domain={VALUE_DOMAIN} cap={} symmetry={} canon=sorted-siblings \
             store={:?} props={}",
            self.counts, c.channel_cap, c.symmetry, c.store, c.properties,
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
        SectionMap::leveled(&self.counts[..k], &subnets, 1)
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
        let fanouts: Vec<usize> = self.levels.iter().map(|l| l.fanout).collect();
        let shape: Vec<_> = self.counts.iter().copied().zip(fanouts.iter().copied()).collect();
        HierScratch {
            sweep: Sweep::new(&shape),
            perm: HierPerm::identity(&self.counts, &fanouts),
            step: StepScratch::new(self.levels.iter().map(|l| (l.cache.fsm(), l.dir.fsm()))),
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
            for p in 0..self.counts[j + 1] {
                s.subnet((j, p)).deliveries(self.levels[j].ordered, |src, dst, idx| {
                    out.push(HStep::Deliver {
                        level: j as u8,
                        parent: p as u8,
                        src: src as u8,
                        dst: dst as u8,
                        idx: idx as u8,
                    });
                });
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
    /// `succ` through the subnet kernel: glue gating before it, data
    /// mirroring after it. Returns `Ok(false)` when the step is not
    /// enabled — gated by glue, stalled, absent arc, busy node — and `succ`
    /// is garbage then.
    fn successor_into(
        &self,
        state: &HierState,
        step: HStep,
        succ: &mut HierState,
        scratch: &mut HierScratch,
    ) -> Result<bool, ViolationKind> {
        let st = &mut scratch.step;
        let (at, node, delivered) = match step {
            HStep::Deliver { level, parent, src, dst, idx } => {
                let at = (level as usize, parent as usize);
                let pos = (src as usize, dst as usize, idx as usize);
                let (msg, value) =
                    (state.chans[at.0][at.1][pos.0][pos.1][pos.2], mint(state.ghost, at.0));
                if self.gated(state, at, pos.1, &msg)
                    || !self.kernel(at.0).deliver(state, at, pos, value, succ, st)?
                {
                    return Ok(false);
                }
                (at, pos.1, Some(msg))
            }
            HStep::Issue { mlevel, node, access } => {
                let (j, f) = (mlevel as usize, self.levels[mlevel as usize].fanout);
                let (at, cache) = ((j, node as usize / f), node as usize % f);
                let value = mint(state.ghost, j);
                if !self.kernel(j).issue(state, at, (cache, access), value, succ, st)? {
                    return Ok(false);
                }
                (at, cache, None)
            }
        };
        self.mirror(state, at, node, delivered, succ, &st.outcome);
        Ok(true)
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

    /// The canonical fingerprint of `s`, its encoding left in the sweep for
    /// `canonical_bytes` to lend: among the group elements that list siblings in
    /// ascending key order under every parent, the one whose encoding has
    /// the minimum fingerprint, ties by enumeration order — the one
    /// `Sweep` [`crate::Canonicalizer`] runs too, so a one-level stack
    /// selects the flat checker's bytes.
    fn canonical_fp(&self, s: &HierState, sc: &mut HierScratch) -> u64 {
        let HierScratch { sweep, perm, .. } = sc;
        if !self.reduces() {
            return sweep.keep(|out| self.encode_permuted(s, perm, out));
        }
        self.sort_siblings(s, sweep);
        sweep.minimize(|order, out| {
            perm.arrange(order);
            self.encode_permuted(s, perm, out);
        })
    }

    fn canonical_bytes<'s>(&self, scratch: &'s HierScratch) -> &'s [u8] {
        scratch.sweep.best()
    }

    /// Decodes an identity-permutation encoding back into `s` (shaped by
    /// [`Self::initial`]): sections arrive in `s`'s own nesting order.
    fn decode_into(&self, bytes: &[u8], s: &mut HierState, scratch: &mut HierScratch) {
        scratch.step.unsync();
        let mut d = Decoder::new(bytes);
        s.caches.iter_mut().flatten().for_each(|c| d.block(c));
        s.dirs.iter_mut().flatten().for_each(|e| d.dir(e));
        s.chans.iter_mut().flatten().flatten().flatten().for_each(|q| d.queue(q));
        s.ghost = d.ghost_section(1)[0];
    }

    fn coverage(scratch: &HierScratch) -> &[Coverage] {
        &scratch.step.coverage
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

    /// The subnet kernel's line for the step as its subnet sees it.
    fn describe(&self, state: &HierState, step: HStep) -> String {
        match step {
            HStep::Deliver { level, parent, src, dst, idx } => {
                let at = (level as usize, parent as usize);
                self.kernel(at.0).describe(state, at, Step::Deliver { src, dst, idx })
            }
            HStep::Issue { mlevel, node, access } => {
                let (j, f) = (mlevel as usize, self.levels[mlevel as usize].fanout);
                let step = Step::IssueAccess { cache: (node as usize % f) as u8, access };
                self.kernel(j).describe(state, (j, node as usize / f), step)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{compose, GenConfig};
    use protogen_protocols::{flat_composition, msi_under_msi};
    use protogen_runtime::NodeId;
    use std::collections::HashMap;

    fn checker(comp: &protogen_spec::Composition, cfg: HierConfig) -> HierChecker {
        let composed = compose(comp, &GenConfig::stalling()).unwrap();
        HierChecker::new(&composed, cfg)
    }

    fn tower() -> protogen_spec::Composition {
        let mut comp = msi_under_msi(2, 2);
        comp.levels.insert(1, comp.levels[0].clone());
        comp.levels[1].label = "l2".into();
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
        let fanouts: Vec<usize> = hc.levels.iter().map(|l| l.fanout).collect();
        let element = |maps: Vec<Vec<u8>>| {
            // The checker's own tables, from the arrangement that puts old
            // child `g` of old parent `p` at sibling offset `maps[g] % f`.
            let mut order = maps.clone();
            for (jm, &f) in fanouts.iter().enumerate() {
                for (g, &to) in maps[jm].iter().enumerate() {
                    order[jm][g / f * f + to as usize % f] = g as u8;
                }
            }
            let mut perm = HierPerm::identity(&hc.counts, &fanouts);
            perm.arrange(&order);
            let invs: Vec<_> = maps.iter().map(|m| crate::system::invert(m)).collect();
            assert_eq!(perm.invs, invs, "the tables place every node where `maps` does");
            perm
        };
        partials.into_iter().map(element).collect()
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
        sc.sweep.best().to_vec()
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
                        let maps = crate::system::invert(&sc.perm.invs[jm]);
                        let parents = crate::system::invert(&sc.perm.invs[jm + 1]);
                        for (g, &to) in maps.iter().enumerate() {
                            assert_eq!(to / f as u8, parents[g / f], "a child left its parent");
                            assert_eq!(sc.perm.local[jm][g], to % f as u8, "local table");
                            let back = sc.perm.back[jm][g / f * f + (to as usize % f)];
                            assert_eq!(back as usize, g % f, "inverse local table");
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
        assert_eq!(sc.sweep.best(), initial);
        assert_eq!(hc.pruned_candidates(&hc.initial(), &mut sc), 8, "fully symmetric");

        assert_eq!(hc.canonical_fp(&busy_state(&hc), &mut sc), 0x9089a806ee4224bc);
        assert_eq!(
            sc.sweep.best(),
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

    /// A composed counterexample names what each delivery carried and
    /// whom it reached — `L0/p0: GetS m0[n1→n2 req=n1] -> l1 directory
    /// p0[I]` — and each issuing node's state, as the flat trace does.
    #[test]
    fn composed_trace_lines_name_the_message_and_the_receiving_state() {
        let comp = flat_composition("tso-cc", 2).unwrap();
        let composed = compose(&comp, &GenConfig::non_stalling()).unwrap();
        let hc = HierChecker::new(&composed, HierConfig::default());
        let trace = hc.check().violation.expect("tso-cc is not SC").trace;
        let g = &composed.levels[0].generated;
        let delivery = trace.iter().find(|l| l.starts_with("L0/p0: ")).expect("a delivery");
        let (msg, receiver) = delivery["L0/p0: ".len()..].split_once(" -> ").unwrap();
        let (name, fields) = msg.split_once(' ').unwrap();
        assert!(g.cache.messages.iter().any(|m| m.name == name), "{delivery}");
        assert!(fields.contains(" req=n") && fields.ends_with(']'), "{delivery}");
        let (who, state) = receiver.strip_suffix(']').unwrap().rsplit_once('[').unwrap();
        assert!(who.starts_with("node L0.") || who == "l1 directory p0", "{delivery}");
        let fsm = if who.starts_with("node") { &g.cache } else { &g.directory };
        assert!(fsm.states.iter().any(|st| st.full_name() == state), "{delivery}");
        assert!(trace.iter().any(|l| l.starts_with("node L0.0[I] ")), "{trace:?}");
    }
}
