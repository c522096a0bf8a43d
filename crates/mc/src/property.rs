//! The correctness properties a run enforces, evaluated in one place for
//! both checkers.
//!
//! The checker originally hard-wired SWMR, data-value coherence, and
//! deadlock freedom — correct for SC protocols and wrong for everything
//! else: TSO-CC *intentionally* breaks physical SWMR (stale shared copies
//! are its whole trade), and SI/SD protocols break even the single-writer
//! discipline between sync points. Holding every protocol to SC's
//! invariants would reject the weak-memory families as buggy; holding none
//! would verify nothing.
//!
//! [`PropertySet`] selects the built-ins a run enforces. The set a
//! protocol *promises* is derived from its declared [`MemoryModel`] via
//! [`PropertySet::promised`]:
//!
//! | model | properties |
//! |---|---|
//! | `sc`   | SWMR + data-value + deadlock-free |
//! | `tso`  | single-writer + deadlock-free |
//! | `weak` | deadlock-free |
//!
//! The flat checker and the composed one reach the invariants through the
//! three checks here and nothing else — `check_state` over every level's
//! cache blocks, `check_load_hit` on a leaf load hit, `check_quiescence`
//! on a state where no step makes progress — which evaluate in one fixed
//! order: swmr, single-writer, data-value, deadlock. A new built-in is one
//! `PropertySet` field plus one arm in the check that evaluates it.

use crate::explore::ViolationKind;
use protogen_runtime::{CacheBlock, Val};
use protogen_spec::{Fsm, MemoryModel, Perm};
use std::fmt;

/// Which built-in properties a run enforces. Cloneable/Copy so it travels
/// in [`crate::McConfig`]; flat and composed runs evaluate it alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropertySet {
    /// Physical single-writer/multiple-reader over permission states.
    pub swmr: bool,
    /// Readable copies and load hits must equal the latest store.
    pub data_value: bool,
    /// At most one cache holds write permission (no constraint on stale
    /// readers) — what TSO-CC actually promises.
    pub single_writer: bool,
    /// Non-quiescent states must have a deliverable message.
    pub deadlock_free: bool,
}

impl PropertySet {
    /// The SC contract: SWMR + data-value + deadlock freedom.
    pub fn sc() -> Self {
        PropertySet { swmr: true, data_value: true, single_writer: false, deadlock_free: true }
    }

    /// The TSO contract: single writer + deadlock freedom. SWMR and
    /// data-value are deliberately absent — stale shared copies are legal.
    pub fn tso() -> Self {
        PropertySet { swmr: false, data_value: false, single_writer: true, deadlock_free: true }
    }

    /// The weak contract: deadlock freedom only. Coherence is promised only
    /// at SI/SD sync points, which the litmus harness (not the state
    /// checker) verifies.
    pub fn weak() -> Self {
        PropertySet { swmr: false, data_value: false, single_writer: false, deadlock_free: true }
    }

    /// No properties at all (completeness/overflow checking still applies).
    pub fn none() -> Self {
        PropertySet { swmr: false, data_value: false, single_writer: false, deadlock_free: false }
    }

    /// The property set a protocol promises, from its declared memory
    /// model. This is the `--property auto` resolution.
    pub fn promised(model: MemoryModel) -> Self {
        match model {
            MemoryModel::Sc => PropertySet::sc(),
            MemoryModel::Tso => PropertySet::tso(),
            MemoryModel::Weak => PropertySet::weak(),
        }
    }

    /// The enabled properties in check order, `,`-joined. This is the flat
    /// checker's checkpoint identity, so committed checkpoints pin it; it
    /// is not [`Display`](fmt::Display)'s `+`-joined order, which the
    /// composed checker's identity pins in turn.
    pub(crate) fn check_order(&self) -> String {
        let names = [
            (self.swmr, "swmr"),
            (self.single_writer, "single-writer"),
            (self.data_value, "data-value"),
            (self.deadlock_free, "deadlock"),
        ];
        names.iter().filter(|(on, _)| *on).map(|(_, name)| *name).collect::<Vec<_>>().join(",")
    }

    /// The state checks over every level's cache blocks, leaves first:
    /// swmr or single-writer per level, then data-value over the leaves
    /// against `ghost`. The first violation found is the state's.
    pub(crate) fn check_state<'a, L>(&self, mut levels: L, ghost: Val) -> Option<ViolationKind>
    where
        L: Iterator<Item = LevelBlocks<'a>> + Clone,
    {
        if self.swmr || self.single_writer {
            // Two writers are found before a writer/reader pair, so the
            // SWMR scan reports every single-writer conflict verbatim.
            for l in levels.clone() {
                let conflict = perm_conflict(l.fsm, l.blocks, self.swmr, l.label);
                if conflict.is_some() {
                    return conflict;
                }
            }
        }
        let leaves = levels.next().filter(|_| self.data_value)?;
        stale_copy(leaves.fsm, leaves.blocks, ghost, leaves.label.is_some())
    }

    /// The load-hit check: leaf cache `cache` hit a load returning `value`
    /// while the ghost memory holds `ghost`. Completion loads read the
    /// response data by construction and are not routed here. `composed`
    /// selects the composed stack's wording.
    pub(crate) fn check_load_hit(
        &self,
        cache: usize,
        value: Val,
        ghost: Val,
        composed: bool,
    ) -> Option<ViolationKind> {
        (self.data_value && value != ghost).then(|| {
            let who = leaf_name(cache, composed);
            ViolationKind::DataValue(format!("{who} load hit returned {value}, expected {ghost}"))
        })
    }

    /// The quiescence check, on a state where no step makes progress:
    /// deadlock freedom fails when the state is `busy` — messages in flight
    /// or accesses pending. New accesses can only add transactions, never
    /// unblock existing ones, so they do not count as progress.
    pub(crate) fn check_quiescence(&self, busy: impl FnOnce() -> bool) -> Option<ViolationKind> {
        (self.deadlock_free && busy()).then_some(ViolationKind::Deadlock)
    }
}

impl Default for PropertySet {
    fn default() -> Self {
        PropertySet::sc()
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PropertySet::sc() {
            return f.write_str("sc");
        }
        if *self == PropertySet::tso() {
            return f.write_str("tso");
        }
        if *self == PropertySet::weak() {
            return f.write_str("weak");
        }
        if *self == PropertySet::none() {
            return f.write_str("none");
        }
        let mut parts = Vec::new();
        if self.swmr {
            parts.push("swmr");
        }
        if self.data_value {
            parts.push("data-value");
        }
        if self.single_writer {
            parts.push("single-writer");
        }
        if self.deadlock_free {
            parts.push("deadlock");
        }
        f.write_str(&parts.join("+"))
    }
}

impl std::str::FromStr for PropertySet {
    type Err = String;

    /// Parses a named contract (`sc`, `tso`, `weak`, `none`) or a
    /// `+`-joined combination of individual properties (`swmr`,
    /// `data-value`, `single-writer`, `deadlock`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sc" => return Ok(PropertySet::sc()),
            "tso" => return Ok(PropertySet::tso()),
            "weak" => return Ok(PropertySet::weak()),
            "none" => return Ok(PropertySet::none()),
            _ => {}
        }
        let mut set = PropertySet::none();
        for part in s.split('+') {
            match part {
                "swmr" => set.swmr = true,
                "data-value" => set.data_value = true,
                "single-writer" => set.single_writer = true,
                "deadlock" => set.deadlock_free = true,
                other => {
                    return Err(format!(
                        "unknown property `{other}` (expected sc|tso|weak|none or a \
                         +-combination of swmr|data-value|single-writer|deadlock)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

/// One level's cache blocks as the state checks see them: the FSM they
/// run and, in a composed stack, the level's label — which only shapes the
/// messages (`None` words them for a flat system).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelBlocks<'a> {
    pub(crate) fsm: &'a Fsm,
    pub(crate) blocks: &'a [CacheBlock],
    pub(crate) label: Option<&'a str>,
}

/// How a violation names leaf cache `i`.
fn leaf_name(i: usize, composed: bool) -> String {
    if composed {
        format!("leaf node L0.{i}")
    } else {
        format!("cache n{i}")
    }
}

/// The first permission conflict among `blocks` (all running `fsm`): two
/// writers, or — when `readers_too` — a writer and a reader. `level` names
/// the protocol level of a composed stack (`None` for a flat system); it
/// only shapes the message.
fn perm_conflict(
    fsm: &Fsm,
    blocks: &[CacheBlock],
    readers_too: bool,
    level: Option<&str>,
) -> Option<ViolationKind> {
    let noun = || level.map_or("cache".to_string(), |l| format!("level {l} node"));
    let p = if level.is_some() { "" } else { "n" };
    let (mut writer, mut reader) = (None, None);
    for (i, c) in blocks.iter().enumerate() {
        match fsm.state(c.state).perm {
            Perm::ReadWrite => {
                if let Some(w) = writer {
                    let noun = noun();
                    return Some(ViolationKind::Swmr(format!(
                        "{noun}s {p}{w} and {p}{i} both hold write permission"
                    )));
                }
                writer = Some(i);
            }
            Perm::Read => reader = Some(i),
            Perm::None => {}
        }
    }
    let (w, r) = (writer?, reader.filter(|_| readers_too)?);
    let noun = noun();
    Some(ViolationKind::Swmr(format!(
        "{noun} {p}{w} holds write permission while {p}{r} holds read permission"
    )))
}

/// The first stable, readable, data-valid copy among `blocks` that does
/// not hold `ghost`. `composed` selects the composed-stack wording.
fn stale_copy(
    fsm: &Fsm,
    blocks: &[CacheBlock],
    ghost: Val,
    composed: bool,
) -> Option<ViolationKind> {
    blocks.iter().enumerate().find_map(|(i, c)| {
        let st = fsm.state(c.state);
        let stale =
            st.is_stable() && st.perm >= Perm::Read && st.data_valid && c.data != Some(ghost);
        stale.then(|| {
            let who = leaf_name(i, composed);
            let name = st.full_name();
            ViolationKind::DataValue(format!(
                "{who} in {name} holds {:?}, expected {ghost}",
                c.data
            ))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_sets_round_trip_through_strings() {
        for name in ["sc", "tso", "weak", "none"] {
            let set: PropertySet = name.parse().unwrap();
            assert_eq!(set.to_string(), name);
        }
    }

    #[test]
    fn combinations_parse() {
        let set: PropertySet = "swmr+deadlock".parse().unwrap();
        assert!(set.swmr && set.deadlock_free && !set.data_value && !set.single_writer);
        assert!("swmr+bogus".parse::<PropertySet>().is_err());
    }

    #[test]
    fn promised_follows_the_model() {
        assert_eq!(PropertySet::promised(MemoryModel::Sc), PropertySet::sc());
        assert_eq!(PropertySet::promised(MemoryModel::Tso), PropertySet::tso());
        assert_eq!(PropertySet::promised(MemoryModel::Weak), PropertySet::weak());
    }

    #[test]
    fn check_order_is_safety_before_liveness() {
        assert_eq!(PropertySet::sc().check_order(), "swmr,data-value,deadlock");
        let all: PropertySet = "deadlock+data-value+single-writer+swmr".parse().unwrap();
        assert_eq!(all.check_order(), "swmr,single-writer,data-value,deadlock");
        assert_eq!(all.to_string(), "swmr+data-value+single-writer+deadlock");
        assert_eq!(PropertySet::none().check_order(), "");
    }

    #[test]
    fn only_enabled_checks_fire() {
        let hit = |set: PropertySet| set.check_load_hit(1, 0, 1, false);
        let hit = hit(PropertySet::sc()).expect("a stale hit breaks data-value");
        assert_eq!(
            hit.to_string(),
            "data-value violation: cache n1 load hit returned 0, expected 1"
        );
        assert_eq!(PropertySet::tso().check_load_hit(1, 0, 1, true), None);
        assert_eq!(PropertySet::weak().check_quiescence(|| true), Some(ViolationKind::Deadlock));
        assert_eq!(PropertySet::weak().check_quiescence(|| false), None);
        assert_eq!(PropertySet::none().check_quiescence(|| unreachable!("not evaluated")), None);
    }
}
