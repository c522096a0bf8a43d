//! Deterministic fault injection for the live service.
//!
//! Every fault decision a [`FaultConfig`] makes — whether an edge's next
//! message is delayed and for how many passes, whether a worker stalls
//! this window, how much mailbox capacity a squeeze withholds, at which
//! schedule position a cache crashes — is a *pure function* of the config
//! and the run's topology, derived by hashing `(seed, site, sequence)`
//! with the checker's splitmix64 finalizer (`protogen_mc::mix64`). Equal
//! configs ⇒ identical decisions (pinned by a test), and a replayed run
//! injects exactly the same faults at the same logical points.
//!
//! The injected faults are, by construction, faults the verified
//! envelope must tolerate (DESIGN.md §13 carries the argument per fault
//! class):
//!
//! * **Delivery delays** hold the *head* of one in-edge for a bounded
//!   number of passes. The whole edge waits behind its head, so per-edge
//!   FIFO — the ordered-channel assumption the checker verified under —
//!   is preserved; a delayed message is still counted in flight, so
//!   quiescence cannot be declared around it.
//! * **Worker stalls** are bounded sleeps — pure scheduling jitter,
//!   indistinguishable from an overloaded core.
//! * **Capacity squeezes** make a producer *believe* an output ring has
//!   fewer free slots than it does. The check becomes strictly more
//!   conservative, so the publish-after-check soundness argument is
//!   untouched; the message parks and retries, exactly like real
//!   backpressure.
//! * **Cache crashes** are graceful-evacuation crashes: the cache stops
//!   issuing, drains its outstanding transaction, writes back or
//!   invalidates every held line through ordinary `Replacement`
//!   transitions of the verified FSM, then rejoins and resumes its
//!   schedule from all-invalid state. Every recovery step is an
//!   in-envelope `(state, event)` pair, so conformance (`escapes: 0`)
//!   must survive any crash schedule.
//!
//! [`FaultConfig::unsafe_reset`] flips the crash path into a *planted
//! recovery bug* — the cache drops its lines without telling the
//! directory — used as the fuzz campaign's seventh negative control: the
//! conformance oracle must flag the run (an out-of-envelope pair or an
//! unexpected message), proving the oracle would catch a real recovery
//! bug.

use protogen_mc::mix64;

/// Which faults to inject into a [`crate::serve`] run, and the seed that
/// makes the schedule replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for every fault decision (independent of the workload seed).
    pub seed: u64,
    /// Inject per-edge delivery delay windows (FIFO-preserving).
    pub delays: bool,
    /// Inject bounded worker stalls/jitter.
    pub stalls: bool,
    /// Inject transient mailbox-capacity squeezes.
    pub squeezes: bool,
    /// How many caches crash and recover (clamped to the cache count;
    /// caches `0..crashes` crash once each).
    pub crashes: usize,
    /// Crash at exactly this schedule position instead of the
    /// seed-derived one. A position past the end of the schedule means
    /// the crash never triggers: the run completes with its fault plan
    /// unfinished and reports [`crate::StopReason::Fault`].
    pub crash_at_op: Option<usize>,
    /// Plant the recovery bug: on crash, drop all lines *without* the
    /// write-back/invalidate traffic. This deliberately breaks coherence
    /// so the conformance oracle can prove it notices (the fuzz
    /// campaign's seeded negative control). Never set this expecting a
    /// clean run.
    pub unsafe_reset: bool,
}

impl FaultConfig {
    /// No faults at all (equivalent to `faults: None` in the config).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delays: false,
            stalls: false,
            squeezes: false,
            crashes: 0,
            crash_at_op: None,
            unsafe_reset: false,
        }
    }

    /// The full fault matrix: delays + stalls + squeezes + one cache
    /// crash with proper recovery.
    pub fn all(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            delays: true,
            stalls: true,
            squeezes: true,
            crashes: 1,
            crash_at_op: None,
            unsafe_reset: false,
        }
    }

    /// The classes a comma list names — `delay`, `stall`, `squeeze`,
    /// `crash`, or `all` for every one — under `seed`.
    ///
    /// # Errors
    ///
    /// The first item that names no class, with the names that do.
    pub fn parse(classes: &str, seed: u64) -> Result<FaultConfig, String> {
        let mut fc = FaultConfig::none(seed);
        for class in classes.split(',') {
            match class.trim() {
                "all" => fc = FaultConfig::all(seed),
                "delay" => fc.delays = true,
                "stall" => fc.stalls = true,
                "squeeze" => fc.squeezes = true,
                "crash" => fc.crashes = fc.crashes.max(1),
                other => {
                    return Err(format!("item `{other}` (delay, stall, squeeze, crash, or all)"))
                }
            }
        }
        Ok(fc)
    }
}

/// Domain-separation tags so the same counter never feeds two different
/// fault decisions.
const TAG_DELAY: u64 = 0xD1;
const TAG_STALL: u64 = 0x57;
const TAG_SQUEEZE: u64 = 0x5C;
const TAG_CRASH: u64 = 0xC4;

/// The fault decisions: pure functions of the config and their arguments.
impl FaultConfig {
    /// Passes the head of in-edge `src` at node `node` must wait before
    /// its `seq`-th message may be applied. Roughly 1 in 16 messages is
    /// held, for 1–7 passes — enough to shuffle cross-edge arrival orders
    /// without wedging throughput.
    pub fn delay(&self, node: usize, src: usize, seq: u64) -> u32 {
        if !self.delays {
            return 0;
        }
        let h = mix64(self.seed ^ TAG_DELAY ^ ((node as u64) << 48) ^ ((src as u64) << 32) ^ seq);
        if h % 16 == 0 {
            1 + ((h >> 8) % 7) as u32
        } else {
            0
        }
    }

    /// Microseconds node `node` sleeps in pass-window `window` (None for
    /// most windows; 20–200 µs roughly every 8th window).
    pub fn stall_us(&self, node: usize, window: u64) -> Option<u64> {
        if !self.stalls {
            return None;
        }
        let h = mix64(self.seed ^ TAG_STALL ^ ((node as u64) << 48) ^ window);
        (h % 8 == 0).then(|| 20 + (h >> 8) % 180)
    }

    /// Output-ring slots node `node` must pretend are occupied during
    /// pass-window `window` (a transient capacity squeeze; at most half
    /// of the `mailbox_cap`-slot ring, so forward progress is never lost
    /// entirely).
    pub fn squeeze(&self, node: usize, window: u64, mailbox_cap: usize) -> usize {
        if !self.squeezes {
            return 0;
        }
        let h = mix64(self.seed ^ TAG_SQUEEZE ^ ((node as u64) << 48) ^ window);
        if h % 4 == 0 {
            ((h >> 8) as usize) % (mailbox_cap / 2).max(1)
        } else {
            0
        }
    }

    /// The schedule position at which `cache` crashes, if it does (caches
    /// `0..crashes` do). Derived crash points land in the middle half of
    /// the schedule so the run always exercises both pre-crash traffic and
    /// post-recovery rejoin; an explicit [`FaultConfig::crash_at_op`] is
    /// used verbatim (even past the schedule end — see its docs).
    pub fn crash_cursor(&self, cache: usize, schedule_len: usize) -> Option<usize> {
        if cache >= self.crashes {
            return None;
        }
        if let Some(at) = self.crash_at_op {
            return Some(at);
        }
        let h = mix64(self.seed ^ TAG_CRASH ^ cache as u64);
        let quarter = (schedule_len / 4).max(1);
        Some(quarter + (h as usize % (2 * quarter).max(1)))
    }
}

/// Structured fault/recovery counters for a [`crate::ServeReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cache crashes the plan scheduled.
    pub planned_crashes: u64,
    /// Crashes whose recovery (drain + flush + rejoin) completed.
    pub crashes_completed: u64,
    /// Lines evacuated through a launched `Replacement` transaction
    /// during crash recovery (clean drops complete on the spot and are
    /// not counted here).
    pub recovery_writebacks: u64,
    /// Writable lines dropped *without* write-back — nonzero only under
    /// the planted [`FaultConfig::unsafe_reset`] bug.
    pub lines_lost: u64,
    /// Messages whose delivery was delayed.
    pub delays_injected: u64,
    /// Worker stall windows actually slept.
    pub stalls_injected: u64,
    /// Commit attempts parked while a capacity squeeze was active.
    pub squeeze_parks: u64,
}

impl FaultStats {
    /// Accumulates a worker's counters into the run total.
    pub(crate) fn absorb(&mut self, other: &FaultStats) {
        self.crashes_completed += other.crashes_completed;
        self.recovery_writebacks += other.recovery_writebacks;
        self.lines_lost += other.lines_lost;
        self.delays_injected += other.delays_injected;
        self.stalls_injected += other.stalls_injected;
        self.squeeze_parks += other.squeeze_parks;
    }
}

/// Per-edge delivery-delay state for one worker (the mutable cursor the
/// immutable [`FaultConfig`] is consulted through).
#[derive(Debug, Default, Clone)]
pub(crate) struct EdgeDelay {
    /// Messages consumed from this edge so far (the delay draw's index).
    seq: u64,
    /// Remaining passes the current head is held.
    hold: u32,
    /// Whether `hold` was drawn for the current head.
    armed: bool,
}

/// Per-worker fault bookkeeping: pass/window counters, edge-delay
/// cursors, and the current squeeze. One per worker thread; all decisions
/// delegate to the shared immutable config.
#[derive(Debug)]
pub(crate) struct FaultState {
    delays: Vec<EdgeDelay>,
    pass: u64,
    last_stall_window: u64,
    /// Output-ring slots currently withheld by an active squeeze.
    pub(crate) withheld: usize,
    pub(crate) stats: FaultStats,
}

/// Passes per stall/squeeze window (windows change every ~millisecond at
/// typical pass rates).
const WINDOW_SHIFT: u32 = 10;

impl FaultState {
    pub(crate) fn new(n_edges: usize) -> FaultState {
        FaultState {
            delays: vec![EdgeDelay::default(); n_edges],
            pass: 0,
            last_stall_window: u64::MAX,
            withheld: 0,
            stats: FaultStats::default(),
        }
    }

    /// Starts a worker pass: advances the window, applies at most one
    /// stall per window, and refreshes the active squeeze.
    pub(crate) fn begin_pass(&mut self, faults: &FaultConfig, node: usize, mailbox_cap: usize) {
        self.pass += 1;
        let window = self.pass >> WINDOW_SHIFT;
        self.withheld = faults.squeeze(node, window, mailbox_cap);
        if window != self.last_stall_window {
            self.last_stall_window = window;
            if let Some(us) = faults.stall_us(node, window) {
                self.stats.stalls_injected += 1;
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
        }
    }

    /// Whether edge `src`'s head is held by a delivery delay this pass.
    /// Draws the delay lazily per head; each held head is counted once.
    pub(crate) fn edge_held(&mut self, faults: &FaultConfig, node: usize, src: usize) -> bool {
        let d = &mut self.delays[src];
        if !d.armed {
            d.armed = true;
            d.hold = faults.delay(node, src, d.seq);
            if d.hold > 0 {
                self.stats.delays_injected += 1;
            }
        }
        if d.hold > 0 {
            d.hold -= 1;
            true
        } else {
            false
        }
    }

    /// Marks one message consumed from edge `src` (the next head gets a
    /// fresh delay draw).
    pub(crate) fn consumed(&mut self, src: usize) {
        let d = &mut self.delays[src];
        d.seq += 1;
        d.armed = false;
        d.hold = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_seed_and_topology() {
        let (a, b) = (FaultConfig::all(42), FaultConfig::all(42));
        // Every decision replays identically.
        for node in 0..6 {
            for src in 0..6 {
                for seq in 0..200 {
                    assert_eq!(a.delay(node, src, seq), b.delay(node, src, seq));
                }
            }
            for w in 0..50 {
                assert_eq!(a.stall_us(node, w), b.stall_us(node, w));
                assert_eq!(a.squeeze(node, w, 1024), b.squeeze(node, w, 1024));
            }
        }
        assert_eq!(a.crash_cursor(0, 1000), b.crash_cursor(0, 1000));
        // A different seed actually changes the schedule.
        let c = FaultConfig::all(43);
        let differs = (0..64u64).any(|s| a.delay(0, 1, s) != c.delay(0, 1, s))
            || a.crash_cursor(0, 1000) != c.crash_cursor(0, 1000);
        assert!(differs, "seed must influence the schedule");
    }

    #[test]
    fn faults_actually_fire_and_stay_bounded() {
        let faults = FaultConfig::all(7);
        let mut delayed = 0u32;
        for seq in 0..4096 {
            let d = faults.delay(0, 1, seq);
            assert!(d <= 7);
            delayed += (d > 0) as u32;
        }
        // ~1/16 of 4096 ≈ 256; allow wide slack but require presence.
        assert!(delayed > 64, "delays must fire ({delayed})");
        let stalls = (0..4096).filter(|&w| faults.stall_us(0, w).is_some()).count();
        assert!(stalls > 128, "stalls must fire ({stalls})");
        for w in 0..4096 {
            assert!(faults.squeeze(0, w, 64) < 32, "squeeze bounded by half the ring");
        }
        let squeezes = (0..4096).filter(|&w| faults.squeeze(0, w, 64) > 0).count();
        assert!(squeezes > 256, "squeezes must fire ({squeezes})");
    }

    #[test]
    fn crash_cursor_lands_in_the_middle_half() {
        for seed in 0..64 {
            let faults = FaultConfig { crashes: 2, ..FaultConfig::all(seed) };
            for cache in 0..2 {
                let at = faults.crash_cursor(cache, 1000).unwrap();
                assert!((250..750).contains(&at), "seed {seed} cache {cache}: {at}");
            }
            assert_eq!(faults.crash_cursor(2, 1000), None);
            assert_eq!(faults.crash_cursor(3, 1000), None);
        }
    }

    #[test]
    fn explicit_crash_at_op_is_used_verbatim() {
        let faults = FaultConfig { crash_at_op: Some(123_456), ..FaultConfig::all(1) };
        assert_eq!(faults.crash_cursor(0, 100), Some(123_456));
    }

    #[test]
    fn edge_delay_state_holds_then_releases_fifo_heads() {
        let faults = FaultConfig::all(3);
        let mut st = FaultState::new(4);
        // Find a (node, src, seq) that delays, then verify the state
        // machine holds for exactly that many passes and re-draws after
        // consumption.
        let mut seen_hold = false;
        for _ in 0..2000 {
            let mut passes_held = 0u32;
            while st.edge_held(&faults, 0, 1) {
                passes_held += 1;
                assert!(passes_held <= 7, "holds are bounded");
            }
            seen_hold |= passes_held > 0;
            st.consumed(1);
        }
        assert!(seen_hold, "some head must have been held");
        assert!(st.stats.delays_injected > 0);
    }
}
