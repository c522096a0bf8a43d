//! Composition pass: generate every level of a hierarchical protocol
//! stack and derive the glue between adjacent levels (DESIGN.md §12).
//!
//! The glue is *derived*, never hand-specified. For each non-root level
//! the pass answers one question per request message of the inner
//! protocol: **what outer permission must the hosting node hold before
//! its inner directory may serve this request?** Demand requests (those
//! issued by a `Load` or `Store`) need `ReadWrite` at the parent, and
//! eviction traffic (issued by `Replacement`) needs nothing, because
//! children only hold copies while the parent already holds the line.
//!
//! The demand answer is deliberately *exclusive-at-parent*: even a
//! read-only inner request requires the parent to hold the line in
//! `ReadWrite`. Allowing parents to hold `Read` while children keep
//! copies is unsound without recall machinery — a parent upgrading
//! S→M while a child holds an S copy blocks the outer invalidation on
//! the child's copy, while that child's own upgrade request is blocked
//! on the parent's permission, closing a wait cycle. Recall-based
//! read-sharing glue is future work (DESIGN.md §12).
//!
//! From that single table the hierarchical checker synthesizes both glue
//! behaviours:
//!
//! * **outer-miss → inner-request forwarding**: a request whose needed
//!   permission exceeds the parent's current outer permission stays
//!   queued, and the parent issues the corresponding access (`Load` for
//!   `Read`, `Store` for `ReadWrite`) on its outer cache machine;
//! * **inner-eviction → outer-writeback**: once a parent's inner subnet
//!   is fully quiescent, the parent may issue `Replacement` on its outer
//!   machine, carrying the (synced) data back out.

use crate::{generate, GenConfig, GenError, Generated};
use protogen_spec::{Access, Action, Composition, Effect, MsgClass, Perm, Trigger};

/// One generated level of a composition.
#[derive(Debug, Clone)]
pub struct ComposedLevel {
    /// The level's display label (`"l1"`, `"llc"`, …).
    pub label: String,
    /// Children per directory of this level.
    pub fanout: usize,
    /// The generated concurrent protocol for this level.
    pub generated: Generated,
}

/// Derived glue between an inner protocol level and the cache side of
/// the level above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlueSpec {
    /// Minimum outer permission the hosting node needs before its inner
    /// directory may be sent each message, indexed by the inner
    /// protocol's `MsgId`. `Perm::None` means always deliverable.
    pub needed_perm: Vec<Perm>,
}

impl GlueSpec {
    /// The access a non-holding parent issues on its outer machine to
    /// acquire enough permission for `msg`, or `None` when the message
    /// needs no outer permission.
    pub fn acquire_access(&self, msg: protogen_spec::MsgId) -> Option<Access> {
        match self.needed_perm[msg.as_usize()] {
            Perm::None => None,
            Perm::Read => Some(Access::Load),
            Perm::ReadWrite => Some(Access::Store),
        }
    }
}

/// A fully generated hierarchical protocol: one [`Generated`] per level
/// plus the derived glue between adjacent levels.
#[derive(Debug, Clone)]
pub struct Composed {
    /// Composition name.
    pub name: String,
    /// Generated levels, leaf-first.
    pub levels: Vec<ComposedLevel>,
    /// `glue[j]` relates level `j`'s directory to level `j+1`'s cache
    /// side; empty for a one-level composition.
    pub glue: Vec<GlueSpec>,
}

impl Composed {
    /// Number of protocol levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of machine-level-`j` nodes (see
    /// [`protogen_spec::Composition::node_count`]).
    pub fn node_count(&self, machine_level: usize) -> usize {
        self.levels[machine_level..].iter().map(|l| l.fanout).product()
    }
}

/// Generates every level of `comp` and derives the inter-level glue.
///
/// # Errors
///
/// Returns a [`GenError`] when the composition is structurally invalid
/// (see [`protogen_spec::Composition::validate`]) or any level fails to
/// generate.
pub fn compose(comp: &Composition, config: &GenConfig) -> Result<Composed, GenError> {
    comp.validate()?;
    let mut levels = Vec::with_capacity(comp.levels.len());
    for level in &comp.levels {
        levels.push(ComposedLevel {
            label: level.label.clone(),
            fanout: level.fanout,
            generated: generate(&level.ssp, config)?,
        });
    }
    // Glue exists below every non-root boundary: the needed-permission
    // table of level j gates deliveries into level j's directories, which
    // are hosted by machine-level-(j+1) nodes — nodes that have an outer
    // cache machine for every j except the root.
    let glue = levels.iter().take(levels.len() - 1).map(|l| derive_glue(&l.generated)).collect();
    Ok(Composed { name: comp.name.clone(), levels, glue })
}

/// Derives the needed-permission table of one inner level from its
/// (preprocessed) SSP: for every request-class message, the maximum
/// permission implied by the accesses whose transactions send it.
fn derive_glue(inner: &Generated) -> GlueSpec {
    let ssp = &inner.ssp;
    let mut needed = vec![Perm::None; ssp.messages.len()];
    for entry in &ssp.cache.entries {
        let Trigger::Access(access) = entry.trigger else { continue };
        let perm = match access {
            // Exclusive-at-parent: demand requests (even read-only ones)
            // require the parent to hold the line in ReadWrite; see the
            // module docs for the wait cycle that read-holding opens.
            Access::Load | Access::Store => Perm::ReadWrite,
            // Eviction traffic only exists while the parent already holds
            // the line, so it never needs the parent to acquire.
            Access::Replacement => Perm::None,
        };
        let mut note = |actions: &[Action]| {
            for action in actions {
                if let Action::Send(sp) = action {
                    if ssp.msg(sp.msg).class == MsgClass::Request {
                        let slot = &mut needed[sp.msg.as_usize()];
                        *slot = (*slot).max(perm);
                    }
                }
            }
        };
        match &entry.effect {
            Effect::Local { actions, .. } => note(actions),
            Effect::Issue { request, chain } => {
                note(request);
                for node in &chain.nodes {
                    for arc in &node.arcs {
                        note(&arc.actions);
                    }
                }
            }
        }
    }
    GlueSpec { needed_perm: needed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_spec::LevelSpec;

    fn msi_under_msi() -> Composition {
        Composition {
            name: "msi_under_msi".into(),
            levels: vec![
                LevelSpec { label: "l1".into(), ssp: protogen_protocols::msi(), fanout: 2 },
                LevelSpec { label: "l2".into(), ssp: protogen_protocols::msi(), fanout: 2 },
            ],
        }
    }

    #[test]
    fn msi_glue_maps_requests_to_access_perms() {
        let composed = compose(&msi_under_msi(), &GenConfig::default()).unwrap();
        assert_eq!(composed.depth(), 2);
        assert_eq!(composed.glue.len(), 1);
        let inner = &composed.levels[0].generated.ssp;
        let glue = &composed.glue[0];
        let need = |name: &str| glue.needed_perm[inner.msg_by_name(name).unwrap().as_usize()];
        // Exclusive-at-parent: both demand requests need ReadWrite.
        assert_eq!(need("GetS"), Perm::ReadWrite);
        assert_eq!(need("GetM"), Perm::ReadWrite);
        assert_eq!(need("PutM"), Perm::None);
        assert_eq!(glue.acquire_access(inner.msg_by_name("GetM").unwrap()), Some(Access::Store));
    }

    #[test]
    fn node_counts_follow_fanouts() {
        let composed = compose(&msi_under_msi(), &GenConfig::default()).unwrap();
        assert_eq!(composed.node_count(0), 4);
        assert_eq!(composed.node_count(1), 2);
        assert_eq!(composed.node_count(2), 1);
    }
}
