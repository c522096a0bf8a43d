//! Transition guards.

use std::fmt;

/// A predicate restricting when a transition may fire.
///
/// Guards are evaluated against the incoming message and the machine's
/// auxiliary state (acknowledgment counters for caches; owner and sharer list
/// for directories). The vocabulary is deliberately small: it is exactly what
/// the paper's SSPs need, and every guard is executable by both the model
/// checker and the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// The incoming message's acknowledgment count is zero.
    AckCountIsZero,
    /// The incoming message's acknowledgment count is non-zero.
    AckCountNonZero,
    /// Consuming this message makes the received acknowledgments equal the
    /// expected count (the "Last Inv-Ack" column of the primer tables). Also
    /// true when a message carrying the expected count finds that count
    /// already satisfied by early acknowledgments (footnote 2 of the paper).
    AcksComplete,
    /// Consuming this message still leaves acknowledgments outstanding.
    AcksIncomplete,
    /// The requestor recorded in the message is the directory's owner.
    ReqIsOwner,
    /// The requestor recorded in the message is not the directory's owner.
    ReqIsNotOwner,
    /// The requestor is a member of the directory's sharer list.
    ReqInSharers,
    /// The requestor is not a member of the directory's sharer list.
    ReqNotInSharers,
    /// The requestor is the *only* member of the sharer list.
    ReqIsLastSharer,
    /// The sharer list contains members other than the requestor.
    ReqIsNotLastSharer,
    /// The sharer list is empty.
    SharersEmpty,
    /// The sharer list is non-empty.
    SharersNonEmpty,
    /// The sharer list is empty once the requestor is excluded (so a request
    /// needs no invalidations).
    NoSharersExceptReq,
    /// The sharer list contains at least one cache other than the requestor.
    SomeSharersExceptReq,
}

impl Guard {
    /// Returns the logical negation of this guard, used when synthesizing
    /// "else" fallbacks (e.g. the stale-Put rule).
    pub fn negate(self) -> Guard {
        use Guard::*;
        match self {
            AckCountIsZero => AckCountNonZero,
            AckCountNonZero => AckCountIsZero,
            AcksComplete => AcksIncomplete,
            AcksIncomplete => AcksComplete,
            ReqIsOwner => ReqIsNotOwner,
            ReqIsNotOwner => ReqIsOwner,
            ReqInSharers => ReqNotInSharers,
            ReqNotInSharers => ReqInSharers,
            ReqIsLastSharer => ReqIsNotLastSharer,
            ReqIsNotLastSharer => ReqIsLastSharer,
            SharersEmpty => SharersNonEmpty,
            SharersNonEmpty => SharersEmpty,
            NoSharersExceptReq => SomeSharersExceptReq,
            SomeSharersExceptReq => NoSharersExceptReq,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Guard::AckCountIsZero => "ack=0",
            Guard::AckCountNonZero => "ack>0",
            Guard::AcksComplete => "last-ack",
            Guard::AcksIncomplete => "acks-pending",
            Guard::ReqIsOwner => "req=owner",
            Guard::ReqIsNotOwner => "req!=owner",
            Guard::ReqInSharers => "req in sharers",
            Guard::ReqNotInSharers => "req not in sharers",
            Guard::ReqIsLastSharer => "req is last sharer",
            Guard::ReqIsNotLastSharer => "req not last sharer",
            Guard::SharersEmpty => "no sharers",
            Guard::SharersNonEmpty => "sharers present",
            Guard::NoSharersExceptReq => "no other sharers",
            Guard::SomeSharersExceptReq => "other sharers",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation_is_involutive() {
        use Guard::*;
        for g in [
            AckCountIsZero,
            AckCountNonZero,
            AcksComplete,
            AcksIncomplete,
            ReqIsOwner,
            ReqIsNotOwner,
            ReqInSharers,
            ReqNotInSharers,
            ReqIsLastSharer,
            ReqIsNotLastSharer,
            SharersEmpty,
            SharersNonEmpty,
            NoSharersExceptReq,
            SomeSharersExceptReq,
        ] {
            assert_eq!(g.negate().negate(), g, "{g}");
        }
    }
}
