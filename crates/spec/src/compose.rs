//! Hierarchical protocol composition (DESIGN.md §12).
//!
//! A [`Composition`] stacks stable state protocols into a tree: level 0 is
//! the leaf protocol run by private caches, and the cache side of level
//! `j` is hosted by the same physical node that serves as the directory
//! side of level `j-1`. A two-level `MSI-under-MESI` composition, for
//! instance, runs MSI between L1s and their L2, and MESI between the L2s
//! and the root directory — each L2 is simultaneously an MSI directory
//! (downward) and a MESI cache (upward).
//!
//! The composition declares *which* protocols stack and with what fanout;
//! the glue behaviour (when an inner miss forces an outer acquisition,
//! when inner quiescence permits an outer writeback) is derived by
//! `protogen-core`'s composition pass, not hand-specified here.

use crate::error::SpecError;
use crate::ssp::{Access, Perm, Trigger};
use crate::Ssp;
use serde::{Deserialize, Serialize};

/// The largest fanout a level may declare: the directory sharer list is a
/// `u8` bitmask, so one subnet can track at most 8 children.
pub const MAX_FANOUT: usize = 8;

/// One level of a composition: a protocol plus how many children each of
/// its directories serves.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelSpec {
    /// Display label for the level (`"l1"`, `"llc"`, …).
    pub label: String,
    /// The stable state protocol this level runs.
    pub ssp: Ssp,
    /// Children per directory of this level (caches per subnet).
    pub fanout: usize,
}

/// A stack of protocol levels, leaf-first: `levels[0]` runs between the
/// leaf caches and the innermost directories, `levels.last()` between the
/// outermost caches and the single root directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Composition {
    /// Composition name, e.g. `"msi_under_mesi"`.
    pub name: String,
    /// Protocol levels, leaf-first.
    pub levels: Vec<LevelSpec>,
}

impl Composition {
    /// Number of protocol levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of machine-level-`j` nodes (machine level `j` hosts the
    /// cache side of protocol level `j`; machine level `depth()` is the
    /// root directory). The node count at machine level `j` is the product
    /// of the fanouts of levels `j..`.
    pub fn node_count(&self, machine_level: usize) -> usize {
        self.levels[machine_level..].iter().map(|l| l.fanout).product()
    }

    /// Validates the stack: every protocol must be individually valid, and
    /// adjacent levels must have compatible interfaces (see
    /// [`validate_interface`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the offending level.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.levels.is_empty() {
            return Err(SpecError::Invalid("composition has no levels".into()));
        }
        for (j, level) in self.levels.iter().enumerate() {
            let at = |m: &str| SpecError::Invalid(format!("level {j} ({}): {m}", level.label));
            if level.fanout == 0 || level.fanout > MAX_FANOUT {
                return Err(at(&format!("fanout {} out of range 1..={MAX_FANOUT}", level.fanout)));
            }
            level
                .ssp
                .validate()
                .map_err(|e| at(&format!("invalid protocol {}: {e}", level.ssp.name)))?;
            // Levels above the leaf have their cache side driven by the
            // glue: the node hosting an inner directory acquires and
            // releases copies through its *outer* cache machine, so that
            // machine must expose the acquire/release interface.
            if j > 0 {
                validate_interface(&level.ssp).map_err(|m| at(&m))?;
            }
        }
        Ok(())
    }
}

/// Checks that `ssp`'s cache side exposes the interface the glue pass
/// needs from a *parent* node (the directory side of the level below it in
/// the stack hosts this cache machine):
///
/// * a stable state granting [`Perm::ReadWrite`] must exist (the *hold*
///   state a parent occupies while its children own the line), and
/// * the initial state must handle `Store` (so a non-holding parent can
///   acquire on behalf of a blocked inner write request), and
/// * every read/write-capable stable state must handle `Replacement` (so
///   a quiescent parent can always write the line back out).
///
/// Returning `Err` carries a human-readable description of the mismatch.
pub fn validate_interface(ssp: &Ssp) -> Result<(), String> {
    let cache = &ssp.cache;
    if !cache.states.iter().any(|s| s.perm == Perm::ReadWrite) {
        return Err(format!(
            "cache side of {} has no read-write stable state to hold a subtree's copies in",
            ssp.name
        ));
    }
    let initial = crate::ids::StableId(0);
    if !cache.handles(initial, Trigger::Access(Access::Store)) {
        return Err(format!(
            "cache side of {} cannot issue a store from its initial state {}",
            ssp.name,
            cache.state(initial).name
        ));
    }
    for id in cache.state_ids() {
        let decl = cache.state(id);
        if decl.perm != Perm::None && !cache.handles(id, Trigger::Access(Access::Replacement)) {
            return Err(format!(
                "cache side of {} cannot replace out of state {} (perm {})",
                ssp.name, decl.name, decl.perm
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgClass, SspBuilder};

    fn toy() -> Ssp {
        let mut b = SspBuilder::new("toy");
        let get = b.message("Get", MsgClass::Request);
        let data = b.data_message("Data", MsgClass::Response);
        let i = b.cache_state("I", Perm::None);
        let v = b.cache_state("V", Perm::Read);
        let di = b.dir_state("I");
        let dv = b.dir_state("V");
        b.cache_hit(v, Access::Load);
        let req = b.send_req(get);
        let chain = b.await_data(data, v);
        b.cache_issue(i, Access::Load, req, chain);
        let send = b.send_data_to_req(data);
        b.dir_react(di, get, vec![send], Some(dv));
        b.build().unwrap()
    }

    #[test]
    fn node_counts_multiply_fanouts() {
        let c = Composition {
            name: "t".into(),
            levels: vec![
                LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
                LevelSpec { label: "l2".into(), ssp: toy(), fanout: 3 },
            ],
        };
        assert_eq!(c.node_count(0), 6);
        assert_eq!(c.node_count(1), 3);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn toy_protocol_fails_interface_validation() {
        // The toy protocol has no read-write state and no store handling:
        // fine as a one-level composition, rejected as a stacked level.
        let flat = Composition {
            name: "flat".into(),
            levels: vec![LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 }],
        };
        flat.validate().unwrap();
        let stacked = Composition {
            name: "stack".into(),
            levels: vec![
                LevelSpec { label: "l1".into(), ssp: toy(), fanout: 2 },
                LevelSpec { label: "l2".into(), ssp: toy(), fanout: 2 },
            ],
        };
        assert!(stacked.validate().is_err());
    }

    #[test]
    fn fanout_bounds_are_enforced() {
        let mut c = Composition {
            name: "t".into(),
            levels: vec![LevelSpec { label: "l1".into(), ssp: toy(), fanout: 9 }],
        };
        assert!(c.validate().is_err());
        c.levels[0].fanout = 0;
        assert!(c.validate().is_err());
    }
}
