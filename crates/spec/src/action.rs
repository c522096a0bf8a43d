//! Transition actions: message sends and auxiliary-state updates.

use crate::ids::MsgId;
use std::fmt;

/// Destination of an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dst {
    /// The directory.
    Dir,
    /// The requestor recorded in the message being processed (for forwarded
    /// requests this is the cache that initiated the racing transaction).
    Req,
    /// The node that physically sent the message being processed.
    Sender,
    /// The directory's current owner.
    Owner,
    /// Every cache in the sharer list except the requestor.
    SharersExceptReq,
    /// The requestor stored in deferred-obligation slot `i` of the current
    /// transient state's chain (transient auxiliary state generated by
    /// ProtoGen for deferred responses, §V-D2).
    ChainReq(usize),
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dst::Dir => f.write_str("Dir"),
            Dst::Req => f.write_str("Req"),
            Dst::Sender => f.write_str("Sender"),
            Dst::Owner => f.write_str("Owner"),
            Dst::SharersExceptReq => f.write_str("Sharers\\Req"),
            Dst::ChainReq(i) => write!(f, "DefReq{i}"),
        }
    }
}

/// Where the data payload of an outgoing message comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSrc {
    /// The machine's own copy of the block (for the directory this is the
    /// memory/LLC copy).
    OwnBlock,
    /// The data carried by the message being processed.
    FromMsg,
}

impl fmt::Display for DataSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataSrc::OwnBlock => f.write_str("block"),
            DataSrc::FromMsg => f.write_str("msg.data"),
        }
    }
}

/// Where the acknowledgment count of an outgoing message comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AckSrc {
    /// `|sharers \ {requestor}|` — the number of invalidations the directory
    /// sends on behalf of this request.
    SharersExceptReqCount,
    /// A literal zero.
    Zero,
    /// The acknowledgment count captured when the deferred-obligation slot
    /// addressed by the send's [`Dst::ChainReq`] destination was recorded.
    /// Deferred responses must report the invalidation count as of their
    /// *serialization* time, not their (later) send time.
    Captured,
    /// The acknowledgment count carried by the message being processed
    /// (piggybacking: MOSI's `O_Fwd_GetM` carries the invalidation count so
    /// the owner's data response can pass it through to the requestor).
    FromMsg,
}

impl fmt::Display for AckSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AckSrc::SharersExceptReqCount => f.write_str("|sharers\\req|"),
            AckSrc::Zero => f.write_str("0"),
            AckSrc::Captured => f.write_str("captured"),
            AckSrc::FromMsg => f.write_str("msg.acks"),
        }
    }
}

/// What goes in the `requestor` field of an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReqField {
    /// The sending node itself (used by initial requests).
    #[default]
    SelfNode,
    /// Propagate the requestor of the message being processed (used by
    /// forwarded requests and by responses addressed to a third party).
    FromMsg,
    /// The requestor stored in deferred-obligation slot `i`.
    Chain(usize),
}

impl fmt::Display for ReqField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReqField::SelfNode => f.write_str("self"),
            ReqField::FromMsg => f.write_str("msg.req"),
            ReqField::Chain(i) => write!(f, "def{i}"),
        }
    }
}

/// A fully specified message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SendSpec {
    /// Message type to send.
    pub msg: MsgId,
    /// Destination.
    pub dst: Dst,
    /// Data payload, if the message carries one.
    pub data: Option<DataSrc>,
    /// Acknowledgment count, if the message carries one.
    pub ack_count: Option<AckSrc>,
    /// Contents of the requestor field.
    pub req: ReqField,
}

impl SendSpec {
    /// Creates a send with no payload fields and a self requestor.
    pub fn new(msg: MsgId, dst: Dst) -> Self {
        SendSpec { msg, dst, data: None, ack_count: None, req: ReqField::SelfNode }
    }

    /// Sets the data source.
    pub fn data(mut self, src: DataSrc) -> Self {
        self.data = Some(src);
        self
    }

    /// Sets the acknowledgment-count source.
    pub fn acks(mut self, src: AckSrc) -> Self {
        self.ack_count = Some(src);
        self
    }

    /// Sets the requestor field source.
    pub fn req_field(mut self, r: ReqField) -> Self {
        self.req = r;
        self
    }
}

/// One primitive effect of a transition.
///
/// The action vocabulary is fixed and small; the DSL front-end lowers the
/// free-form statements of the paper's Listing 1 into this set, and the
/// runtime executes it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Send a message.
    Send(SendSpec),
    /// Directory: `Owner = requestor`.
    SetOwnerToReq,
    /// Directory: clear the owner.
    ClearOwner,
    /// Directory: add the requestor to the sharer list.
    AddReqToSharers,
    /// Directory: add the current owner to the sharer list.
    AddOwnerToSharers,
    /// Directory: remove the requestor from the sharer list.
    RemoveReqFromSharers,
    /// Directory: clear the sharer list.
    ClearSharers,
    /// Cache: `acksExpected = msg.ack_count` (Listing 1, line 26).
    SetExpectedAcksFromMsg,
    /// Cache: `acksReceived += 1` (Listing 1, line 35).
    IncAcksReceived,
    /// Cache: reset both acknowledgment counters.
    ResetAcks,
    /// Copy the data carried by the message into the local block copy.
    CopyDataFromMsg,
    /// Invalidate the local data copy.
    InvalidateData,
    /// Perform the pending core access (serves the load/store that started
    /// the transaction; for `IS -> ISI` this is the single access permitted
    /// after an invalidation, the well-known livelock fix of §VI-B).
    PerformAccess,
    /// Record the current message's requestor in the next free
    /// deferred-obligation slot (generated transient auxiliary state).
    RecordChainReq,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Send(s) => {
                write!(f, "send {} to {}", s.msg, s.dst)?;
                if let Some(d) = s.data {
                    write!(f, " [{d}]")?;
                }
                if let Some(a) = s.ack_count {
                    write!(f, " [acks={a}]")?;
                }
                Ok(())
            }
            Action::SetOwnerToReq => f.write_str("owner=req"),
            Action::ClearOwner => f.write_str("owner=none"),
            Action::AddReqToSharers => f.write_str("sharers+=req"),
            Action::AddOwnerToSharers => f.write_str("sharers+=owner"),
            Action::RemoveReqFromSharers => f.write_str("sharers-=req"),
            Action::ClearSharers => f.write_str("sharers={}"),
            Action::SetExpectedAcksFromMsg => f.write_str("acksExpected=msg.acks"),
            Action::IncAcksReceived => f.write_str("acksReceived+=1"),
            Action::ResetAcks => f.write_str("acks=0"),
            Action::CopyDataFromMsg => f.write_str("block=msg.data"),
            Action::InvalidateData => f.write_str("block=invalid"),
            Action::PerformAccess => f.write_str("perform access"),
            Action::RecordChainReq => f.write_str("record deferred req"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_spec_builder_chains() {
        let s = SendSpec::new(MsgId(1), Dst::Req)
            .data(DataSrc::OwnBlock)
            .acks(AckSrc::Zero)
            .req_field(ReqField::FromMsg);
        assert_eq!(s.data, Some(DataSrc::OwnBlock));
        assert_eq!(s.ack_count, Some(AckSrc::Zero));
        assert_eq!(s.req, ReqField::FromMsg);
    }

    #[test]
    fn display_mentions_destination() {
        let a = Action::Send(SendSpec::new(MsgId(0), Dst::Dir));
        assert!(a.to_string().contains("Dir"));
    }
}
