//! Interconnect models: timed per-`(src, dst)` channels with ordered or
//! unordered delivery, latency distributions, and bounded buffers.

use crate::config::{NetModel, NetworkConfig};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// A coherence message tagged with the block it concerns. The runtime's
/// [`protogen_runtime::Msg`] is per-block (coherence is specified per
/// block, §IV-A); the network carries many blocks' traffic over shared
/// channels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimMsg {
    /// The block the message belongs to.
    pub addr: u32,
    /// The message itself.
    pub msg: protogen_runtime::Msg,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    ready: u64,
    msg: SimMsg,
}

/// The simulated interconnect: one timed queue per `(src, dst)` pair.
///
/// * **Ordered** — delivery commits in send order per `(src, dst, block)`:
///   sampled latencies are made monotone within a channel, and the
///   deliverable candidates are each block's oldest queued message. A
///   stalled candidate blocks only its own block's traffic, not other
///   blocks sharing the channel (separate virtual channels per block, the
///   standard head-of-line-blocking fix).
/// * **Unordered** — every ripe message is a candidate, so latency jitter
///   reorders delivery arbitrarily.
///
/// What the engine asks every cycle — is anything queued, can anything be
/// delivered *to this node* yet, which channels into it hold anything — is
/// answered from a count, a per-node earliest `ready` and a per-node set of
/// non-empty inbound channels kept by [`Network::send`] and
/// [`Network::take`], not by walking the queues.
#[derive(Debug)]
pub(crate) struct Network {
    cfg: NetworkConfig,
    n_nodes: usize,
    /// Channel `src → dst` is `chans[dst * n_nodes + src]`: the channels
    /// into one node, which a delivery scans together, sit together.
    chans: Vec<VecDeque<Entry>>,
    /// Per destination node, the earliest `ready` among the messages queued
    /// for it (`NEVER` when none is): before that cycle the node has no
    /// candidate, ordered or not.
    earliest: Vec<u64>,
    /// Per destination node, bit `src` set exactly when channel `src → dst`
    /// holds a message: delivery and the earliest-`ready` upkeep visit only
    /// these channels, in ascending source order.
    sources: Vec<u32>,
    /// Messages queued anywhere.
    queued: usize,
    /// Scratch for the ordered candidate scan (reused across calls).
    seen_addrs: Vec<u32>,
    /// Deepest any channel ever grew.
    pub peak_depth: usize,
}

/// The `ready` of a message that is not there.
const NEVER: u64 = u64::MAX;

impl Network {
    pub fn new(n_nodes: usize, cfg: NetworkConfig) -> Network {
        assert!(n_nodes <= 32, "a source set is a u32 bitmask, got {n_nodes} nodes");
        Network {
            cfg,
            n_nodes,
            chans: (0..n_nodes * n_nodes).map(|_| VecDeque::new()).collect(),
            earliest: vec![NEVER; n_nodes],
            sources: vec![0; n_nodes],
            queued: 0,
            seen_addrs: Vec::new(),
            peak_depth: 0,
        }
    }

    fn index(&self, src: usize, dst: usize) -> usize {
        dst * self.n_nodes + src
    }

    fn chan(&self, src: usize, dst: usize) -> &VecDeque<Entry> {
        &self.chans[self.index(src, dst)]
    }

    /// Whether channels have a capacity at all (a send can be refused).
    pub fn is_bounded(&self) -> bool {
        self.cfg.capacity != 0
    }

    /// Whether every message of `outgoing` fits its channel's bounded
    /// buffer (always true with unbounded buffers).
    pub fn accepts(&self, outgoing: &[protogen_runtime::Msg]) -> bool {
        if !self.is_bounded() {
            return true;
        }
        for (i, m) in outgoing.iter().enumerate() {
            let same_channel_before =
                outgoing[..i].iter().filter(|p| p.src == m.src && p.dst == m.dst).count();
            let q = self.chan(m.src.as_usize(), m.dst.as_usize());
            if q.len() + same_channel_before + 1 > self.cfg.capacity {
                return false;
            }
        }
        true
    }

    /// Enqueues one message at time `now`, sampling its delivery latency.
    pub fn send(&mut self, now: u64, sm: SimMsg, rng: &mut StdRng) {
        // Saturating, and short of the one value that means "no message".
        let mut ready = now.saturating_add(self.cfg.latency.sample(rng).max(1)).min(NEVER - 1);
        let (src, dst) = (sm.msg.src.as_usize(), sm.msg.dst.as_usize());
        let index = self.index(src, dst);
        let q = &mut self.chans[index];
        if self.cfg.model == NetModel::Ordered {
            // FIFO commit order: jitter may widen gaps, never reorder.
            if let Some(back) = q.back() {
                ready = ready.max(back.ready);
            }
        }
        q.push_back(Entry { ready, msg: sm });
        self.peak_depth = self.peak_depth.max(q.len());
        self.earliest[dst] = self.earliest[dst].min(ready);
        self.sources[dst] |= 1 << src;
        self.queued += 1;
    }

    /// The first cycle at which `dst` can have a candidate: the earliest
    /// `ready` among the messages queued for it, `u64::MAX` with none.
    pub fn ripens_at(&self, dst: usize) -> u64 {
        self.earliest[dst]
    }

    /// The sources whose channel into `dst` holds a message, ascending: the
    /// set as it stands now, not as later sends and takes change it.
    pub fn sources(&self, dst: usize) -> impl Iterator<Item = usize> {
        let mut set = self.sources[dst];
        std::iter::from_fn(move || {
            let src = (set != 0).then(|| set.trailing_zeros() as usize)?;
            set &= set - 1;
            Some(src)
        })
    }

    /// Collects the queue indices deliverable from `src` to `dst` at time
    /// `now` into `buf`, in queue (send) order.
    pub fn candidates(&mut self, src: usize, dst: usize, now: u64, buf: &mut Vec<usize>) {
        buf.clear();
        let q = &self.chans[self.index(src, dst)];
        match self.cfg.model {
            NetModel::Unordered => {
                buf.extend((0..q.len()).filter(|&i| q[i].ready <= now));
            }
            NetModel::Ordered => {
                // The oldest queued message of each block is that block's
                // head; younger same-block messages wait behind it. Ready
                // times are monotone along an ordered channel: behind the
                // first unripe message (an unripe front, mostly) nothing
                // is ripe.
                if q.front().is_none_or(|e| e.ready > now) {
                    return;
                }
                self.seen_addrs.clear();
                for (i, e) in q.iter().enumerate() {
                    if e.ready > now {
                        break;
                    }
                    if self.seen_addrs.contains(&e.msg.addr) {
                        continue;
                    }
                    self.seen_addrs.push(e.msg.addr);
                    buf.push(i);
                }
            }
        }
    }

    /// The message at queue position `idx` of channel `src → dst`.
    pub fn peek(&self, src: usize, dst: usize, idx: usize) -> SimMsg {
        self.chan(src, dst)[idx].msg
    }

    /// Removes and returns the message at queue position `idx`.
    pub fn take(&mut self, src: usize, dst: usize, idx: usize) -> SimMsg {
        let index = self.index(src, dst);
        let q = &mut self.chans[index];
        let e = if idx == 0 { q.pop_front() } else { q.remove(idx) };
        let e = e.expect("valid candidate index");
        if q.is_empty() {
            self.sources[dst] &= !(1 << src);
        }
        self.queued -= 1;
        // A later message leaves the earliest where it was.
        if e.ready == self.earliest[dst] {
            self.earliest[dst] = self.earliest_from(dst, 0);
        }
        e.msg
    }

    /// The earliest `ready` at or after `from` among the messages queued for
    /// `dst` (`NEVER` with none), from the queues themselves.
    fn earliest_from(&self, dst: usize, from: u64) -> u64 {
        let first = |q: &VecDeque<Entry>| {
            let mut ready = q.iter().map(|e| e.ready).filter(|&r| r >= from);
            match self.cfg.model {
                // Monotone: the first is the earliest.
                NetModel::Ordered => ready.next(),
                NetModel::Unordered => ready.min(),
            }
        };
        self.sources(dst).filter_map(|src| first(self.chan(src, dst))).min().unwrap_or(NEVER)
    }

    /// Whether no message is in flight anywhere.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The earliest time after `now` at which a queued message ripens, if
    /// any is still unripe.
    pub fn next_ripening(&self, now: u64) -> Option<u64> {
        let next = |dst: usize| match self.earliest[dst] {
            // Nothing for `dst` is ripe yet: its earliest is its next.
            at if at > now => at,
            // Ripe messages are waiting (stalled, backpressured, or behind
            // this cycle's delivery): look past them.
            _ => self.earliest_from(dst, now.saturating_add(1)),
        };
        (0..self.n_nodes).map(next).min().filter(|&at| at != NEVER)
    }

    /// The non-empty channels as `(src, dst, depth, front message)`, in
    /// delivery-scan order.
    pub fn backlog(&self) -> impl Iterator<Item = (usize, usize, usize, SimMsg)> + '_ {
        self.chans.iter().enumerate().filter_map(move |(i, q)| {
            q.front().map(|e| (i % self.n_nodes, i / self.n_nodes, q.len(), e.msg))
        })
    }

    /// Whether the counters and source sets agree with a full recount of
    /// the queues they summarise (what `debug_assert!` holds them to every
    /// cycle). The recount reads every channel, never the sets.
    pub fn counters_agree(&self) -> bool {
        let inbound_agree = |dst: usize| {
            let inbound = &self.chans[dst * self.n_nodes..][..self.n_nodes];
            let sources = (0..self.n_nodes)
                .filter(|&src| !inbound[src].is_empty())
                .fold(0, |set, src| set | 1 << src);
            let earliest = inbound.iter().flatten().map(|e| e.ready).min().unwrap_or(NEVER);
            self.sources[dst] == sources && self.earliest[dst] == earliest
        };
        self.queued == self.chans.iter().map(VecDeque::len).sum::<usize>()
            && (0..self.n_nodes).all(inbound_agree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyDist;
    use protogen_runtime::{Msg, NodeId};
    use protogen_spec::MsgId;
    use rand::SeedableRng;

    fn msg(src: u8, dst: u8) -> Msg {
        Msg {
            mtype: MsgId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            req: NodeId(src),
            ack_count: None,
            data: None,
        }
    }

    #[test]
    fn ordered_channel_never_reorders_despite_jitter() {
        let cfg = NetworkConfig {
            model: NetModel::Ordered,
            latency: LatencyDist::Uniform { lo: 1, hi: 30 },
            capacity: 0,
        };
        let mut net = Network::new(2, cfg);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            net.send(0, SimMsg { addr: 0, msg: msg(0, 1) }, &mut rng);
        }
        // At any instant the single candidate is the queue head.
        let mut buf = Vec::new();
        for now in 0..100 {
            net.candidates(0, 1, now, &mut buf);
            assert!(buf.len() <= 1, "t={now}: {buf:?}");
            if buf.first() == Some(&0) {
                net.take(0, 1, 0);
            }
        }
        assert!(net.is_empty());
    }

    #[test]
    fn ordered_blocks_are_independent_candidate_classes() {
        let mut net = Network::new(2, NetworkConfig::ordered(1));
        let mut rng = StdRng::seed_from_u64(0);
        net.send(0, SimMsg { addr: 7, msg: msg(0, 1) }, &mut rng);
        net.send(0, SimMsg { addr: 7, msg: msg(0, 1) }, &mut rng);
        net.send(0, SimMsg { addr: 3, msg: msg(0, 1) }, &mut rng);
        let mut buf = Vec::new();
        net.candidates(0, 1, 10, &mut buf);
        // Head of block 7 and head of block 3 — not the second block-7 msg.
        assert_eq!(buf, vec![0, 2]);
    }

    #[test]
    fn unordered_jitter_exposes_ripe_messages_out_of_order() {
        let cfg = NetworkConfig {
            model: NetModel::Unordered,
            latency: LatencyDist::Uniform { lo: 1, hi: 50 },
            capacity: 0,
        };
        let mut net = Network::new(2, cfg);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            net.send(0, SimMsg { addr: 0, msg: msg(0, 1) }, &mut rng);
        }
        let mut buf = Vec::new();
        let mut saw_non_head = false;
        for now in 0..60 {
            net.candidates(0, 1, now, &mut buf);
            if buf.first().is_some_and(|&i| i != 0) {
                saw_non_head = true;
            }
            if let Some(&i) = buf.first() {
                net.take(0, 1, i);
            }
        }
        assert!(saw_non_head, "jitter should make a non-head message ripe first");
    }

    #[test]
    fn bounded_buffers_reject_overflowing_sends() {
        let cfg =
            NetworkConfig { model: NetModel::Ordered, latency: LatencyDist::Fixed(1), capacity: 2 };
        let mut net = Network::new(2, cfg);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(net.accepts(&[msg(0, 1), msg(0, 1)]));
        assert!(!net.accepts(&[msg(0, 1), msg(0, 1), msg(0, 1)]));
        net.send(0, SimMsg { addr: 0, msg: msg(0, 1) }, &mut rng);
        assert!(net.accepts(&[msg(0, 1)]));
        assert!(!net.accepts(&[msg(0, 1), msg(0, 1)]));
        assert_eq!(net.peak_depth, 1);
    }

    #[test]
    fn counters_follow_sends_and_takes() {
        for model in [NetModel::Ordered, NetModel::Unordered] {
            let cfg = NetworkConfig {
                model,
                latency: LatencyDist::Uniform { lo: 1, hi: 9 },
                capacity: 0,
            };
            let mut net = Network::new(3, cfg);
            let mut rng = StdRng::seed_from_u64(4);
            assert!(net.is_empty() && net.next_ripening(0).is_none());
            for i in 0..12u8 {
                net.send(
                    u64::from(i),
                    SimMsg { addr: u32::from(i % 3), msg: msg(i % 2, 2) },
                    &mut rng,
                );
                assert!(net.counters_agree());
            }
            assert_eq!((net.ripens_at(0), net.ripens_at(1)), (NEVER, NEVER));
            assert_eq!(net.next_ripening(0), Some(net.ripens_at(2)));
            assert_eq!(
                net.backlog().map(|(src, dst, depth, _)| (src, dst, depth)).collect::<Vec<_>>(),
                [(0, 2, 6), (1, 2, 6)]
            );
            let mut buf = Vec::new();
            let mut now = 0;
            while !net.is_empty() {
                // The next ripening is exactly when the next candidate shows.
                let wake = net.next_ripening(now).expect("unripe messages are queued");
                for src in 0..2 {
                    net.candidates(src, 2, wake - 1, &mut buf);
                    assert!(buf.is_empty(), "{model}: ripe before the announced time {wake}");
                }
                now = wake;
                for src in 0..2 {
                    net.candidates(src, 2, now, &mut buf);
                    while let Some(idx) = buf.pop() {
                        net.take(src, 2, idx);
                        assert!(net.counters_agree());
                    }
                }
            }
            assert_eq!(net.ripens_at(2), NEVER);
            assert!(net.next_ripening(now).is_none());
        }
    }

    #[test]
    fn a_source_stays_set_until_its_channel_empties() {
        for model in [NetModel::Ordered, NetModel::Unordered] {
            let cfg = NetworkConfig { model, latency: LatencyDist::Fixed(1), capacity: 0 };
            let mut net = Network::new(3, cfg);
            let mut rng = StdRng::seed_from_u64(0);
            let sources = |net: &Network| net.sources(0).collect::<Vec<_>>();
            net.send(0, SimMsg { addr: 0, msg: msg(2, 0) }, &mut rng);
            net.send(0, SimMsg { addr: 1, msg: msg(2, 0) }, &mut rng);
            net.send(0, SimMsg { addr: 0, msg: msg(1, 0) }, &mut rng);
            assert_eq!((sources(&net), net.sources(1).count()), (vec![1, 2], 0), "{model}");
            let mut buf = Vec::new();
            net.candidates(2, 0, 1, &mut buf);
            assert_eq!(buf, [0, 1], "{model}");
            // A message behind the head goes; one is left, and so is the bit.
            net.take(2, 0, 1);
            assert_eq!(sources(&net), [1, 2], "{model}");
            assert!(net.counters_agree());
            // The last message goes, and the bit with it.
            net.take(2, 0, 0);
            assert_eq!(sources(&net), [1], "{model}");
            assert!(net.counters_agree());
            net.take(1, 0, 0);
            assert!(sources(&net).is_empty() && net.is_empty() && net.counters_agree());
        }
    }

    #[test]
    fn the_recount_catches_a_stale_source_set() {
        let mut net = Network::new(2, NetworkConfig::ordered(1));
        let mut rng = StdRng::seed_from_u64(0);
        net.send(0, SimMsg { addr: 0, msg: msg(0, 1) }, &mut rng);
        assert!(net.counters_agree());
        net.sources[1] = 0;
        assert!(!net.counters_agree(), "a set bit missing");
        net.sources[1] = 0b11;
        assert!(!net.counters_agree(), "a bit set for an empty channel");
    }

    #[test]
    fn an_unripe_ordered_front_hides_the_whole_channel() {
        let mut net = Network::new(2, NetworkConfig::ordered(5));
        let mut rng = StdRng::seed_from_u64(0);
        for addr in 0..4 {
            net.send(0, SimMsg { addr, msg: msg(0, 1) }, &mut rng);
        }
        let mut buf = vec![9];
        net.candidates(0, 1, 4, &mut buf);
        assert!(buf.is_empty());
        net.candidates(0, 1, 5, &mut buf);
        assert_eq!(buf, [0, 1, 2, 3]);
    }

    #[test]
    fn ready_times_saturate() {
        let mut net = Network::new(2, NetworkConfig::ordered(u64::MAX));
        let mut rng = StdRng::seed_from_u64(0);
        net.send(7, SimMsg { addr: 0, msg: msg(0, 1) }, &mut rng);
        assert_eq!(net.next_ripening(7), Some(NEVER - 1));
        assert!(net.counters_agree());
    }
}
