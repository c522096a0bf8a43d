//! Pluggable correctness properties.
//!
//! The checker originally hard-wired SWMR, data-value coherence, and
//! deadlock freedom — correct for SC protocols and wrong for everything
//! else: TSO-CC *intentionally* breaks physical SWMR (stale shared copies
//! are its whole trade), and SI/SD protocols break even the single-writer
//! discipline between sync points. Holding every protocol to SC's
//! invariants would reject the weak-memory families as buggy; holding none
//! would verify nothing.
//!
//! This module makes the invariant layer pluggable: each invariant is a
//! [`Property`] implementation, and [`PropertySet`] selects the built-ins a
//! run enforces. The set a protocol *promises* is derived from its declared
//! [`MemoryModel`] via [`PropertySet::promised`]:
//!
//! | model | properties |
//! |---|---|
//! | `sc`   | SWMR + data-value + deadlock-free |
//! | `tso`  | single-writer + deadlock-free |
//! | `weak` | deadlock-free |
//!
//! Custom properties (per-litmus assertions, experiment-specific
//! predicates) implement [`Property`] directly — or use [`Predicate`] for
//! closure-based one-offs — and are attached with
//! [`crate::ModelChecker::add_property`].

use crate::explore::ViolationKind;
use crate::system::SysState;
use protogen_runtime::{CacheBlock, Val};
use protogen_spec::{Fsm, MemoryModel, Perm};
use std::fmt;

/// Read-only context handed to property checks: the FSMs give permission
/// and stability information for the states a [`SysState`] references.
#[derive(Debug, Clone, Copy)]
pub struct PropertyCtx<'a> {
    /// The generated cache controller.
    pub cache_fsm: &'a Fsm,
    /// The generated directory controller.
    pub dir_fsm: &'a Fsm,
}

/// A correctness property checked during exploration.
///
/// Hooks default to "no violation"; a property implements the ones it
/// needs. All three are called on the exploration hot path, so
/// implementations should be cheap and allocation-free until they actually
/// find a violation.
pub trait Property: fmt::Debug + Send + Sync {
    /// Short name for reports and taxonomy labels (e.g. `"swmr"`).
    fn name(&self) -> &str;

    /// Checked on every newly reached state.
    fn check_state(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        let _ = (cx, state);
        None
    }

    /// Checked when a load *hits* in cache `cache` returning `value` while
    /// the ghost memory holds `ghost`. (Completion loads read the response
    /// data by construction and are not routed here.)
    fn check_load_hit(
        &self,
        cx: &PropertyCtx<'_>,
        cache: u8,
        value: u8,
        ghost: u8,
    ) -> Option<ViolationKind> {
        let _ = (cx, cache, value, ghost);
        None
    }

    /// Checked on states where no message delivery is possible — the
    /// liveness hook. `state` still has whatever in-flight work exists.
    fn check_quiescence(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        let _ = (cx, state);
        None
    }
}

/// Which built-in properties a run enforces. Cloneable/Copy so it travels
/// in [`crate::McConfig`]; the checker materializes it into boxed
/// [`Property`] objects at construction.
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

/// Materializes the built-in [`Property`] objects a [`PropertySet`]
/// selects, in deterministic check order (safety before liveness).
pub fn materialize(set: PropertySet) -> Vec<Box<dyn Property>> {
    let mut props: Vec<Box<dyn Property>> = Vec::new();
    if set.swmr {
        props.push(Box::new(Swmr));
    }
    if set.single_writer {
        props.push(Box::new(SingleWriter));
    }
    if set.data_value {
        props.push(Box::new(DataValue));
    }
    if set.deadlock_free {
        props.push(Box::new(DeadlockFree));
    }
    props
}

/// The first permission conflict among `blocks` (all running `fsm`): two
/// writers, or — when `readers_too` — a writer and a reader. `level` names
/// the protocol level of a composed stack (`None` for a flat system); it
/// only shapes the message.
pub(crate) fn perm_conflict(
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
/// not hold `ghost`. `leaf` selects the composed-stack wording.
pub(crate) fn stale_copy(
    fsm: &Fsm,
    blocks: &[CacheBlock],
    ghost: Val,
    leaf: bool,
) -> Option<ViolationKind> {
    blocks.iter().enumerate().find_map(|(i, c)| {
        let st = fsm.state(c.state);
        let stale =
            st.is_stable() && st.perm >= Perm::Read && st.data_valid && c.data != Some(ghost);
        stale.then(|| {
            let who = if leaf { format!("leaf node L0.{i}") } else { format!("cache n{i}") };
            let name = st.full_name();
            ViolationKind::DataValue(format!(
                "{who} in {name} holds {:?}, expected {ghost}",
                c.data
            ))
        })
    })
}

/// Single-writer/multiple-reader: no cache holds write permission while
/// any other cache holds any permission.
#[derive(Debug, Clone, Copy)]
pub struct Swmr;

impl Property for Swmr {
    fn name(&self) -> &str {
        "swmr"
    }

    fn check_state(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        perm_conflict(cx.cache_fsm, &state.caches, true, None)
    }
}

/// At most one cache holds write permission at a time; read copies may be
/// stale. The half of SWMR that lazy-coherence protocols keep: writes stay
/// serialized even though readers are not invalidated.
#[derive(Debug, Clone, Copy)]
pub struct SingleWriter;

impl Property for SingleWriter {
    fn name(&self) -> &str {
        "single-writer"
    }

    fn check_state(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        perm_conflict(cx.cache_fsm, &state.caches, false, None)
    }
}

/// Data-value coherence: every readable stable copy, and every load hit,
/// returns the latest store (tracked by the ghost memory).
#[derive(Debug, Clone, Copy)]
pub struct DataValue;

impl Property for DataValue {
    fn name(&self) -> &str {
        "data-value"
    }

    fn check_state(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        stale_copy(cx.cache_fsm, &state.caches, state.ghost, false)
    }

    fn check_load_hit(
        &self,
        _cx: &PropertyCtx<'_>,
        cache: u8,
        value: u8,
        ghost: u8,
    ) -> Option<ViolationKind> {
        if value != ghost {
            return Some(ViolationKind::DataValue(format!(
                "cache n{cache} load hit returned {value}, expected {ghost}"
            )));
        }
        None
    }
}

/// Deadlock freedom: a state with in-flight messages or pending accesses
/// must have at least one deliverable message. New accesses can only add
/// transactions, never unblock existing ones, so they do not count as
/// progress.
#[derive(Debug, Clone, Copy)]
pub struct DeadlockFree;

impl Property for DeadlockFree {
    fn name(&self) -> &str {
        "deadlock"
    }

    fn check_quiescence(&self, _cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        if state.messages_in_flight() > 0 || state.has_pending_access() {
            return Some(ViolationKind::Deadlock);
        }
        None
    }
}

/// A closure-based custom property over whole states — the per-litmus
/// assertion hook. Returns `Some(detail)` to report a violation.
pub struct Predicate {
    name: String,
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(&PropertyCtx<'_>, &SysState) -> Option<String> + Send + Sync>,
}

impl Predicate {
    /// Builds a predicate property named `name`.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&PropertyCtx<'_>, &SysState) -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        Predicate { name: name.into(), f: Box::new(f) }
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Predicate").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Property for Predicate {
    fn name(&self) -> &str {
        &self.name
    }

    fn check_state(&self, cx: &PropertyCtx<'_>, state: &SysState) -> Option<ViolationKind> {
        (self.f)(cx, state)
            .map(|detail| ViolationKind::Property { property: self.name.clone(), detail })
    }
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
    fn materialize_orders_safety_before_liveness() {
        let props = materialize(PropertySet::sc());
        let names: Vec<&str> = props.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["swmr", "data-value", "deadlock"]);
    }
}
