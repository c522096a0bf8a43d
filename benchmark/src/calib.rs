//! How fast is the host running right now?
//!
//! The hosts this benchmark runs on are shared: for tens of seconds to
//! minutes at a time everything runs 20 % to 120 % slower (the same
//! 254k-state verification took 1.36 s and 3.03 s within a quarter of an
//! hour, with CPU time equal to wall time in both — the guest cannot see
//! why). No estimator over a run's units removes that, so the harness times
//! a fixed reference between units and divides each unit's wall time by how
//! much slower than on a quiet host the reference ran around it. Gated
//! timings are then in seconds of a quiet host. The factor is a correction,
//! not a measurement: the raw reading and the factor of every unit stay in
//! the record, and per-layer timings are never divided.
//!
//! The reference is this file's own code — nothing a change to the
//! repository can speed up — and is a geometric mean over three kernels
//! that stress what the workloads stress: dependent loads past the private
//! caches, integer arithmetic in registers, and branchy byte work in L1 (no
//! single kernel did as well on every workload). Over ten 10 s runs per
//! workload in a loud half hour, the spread (IQR ÷ median) of a run's
//! lower-quartile unit time went from 30 % to 15 % on `verify_flat`, 30 % to
//! 21 % on `verify_par`, 10 % to 3 % on `verify_spill`, 24 % to 7 % on
//! `gen_many` and 16 % to 2 % on `sim_long`. On the serve workloads, whose
//! spinning worker threads a single-threaded reference tracks least, unit
//! times gained nothing on average (three sets of ten runs: 6→8, 15→13 and
//! 10→13 % on `serve_miss`), but their set-up — protocol generation and a
//! model check, on one thread — went from 25 % to 10 % and from 12 % to 5 %,
//! and raw medians of it 26 % apart between two sets were seen. One rule for
//! every workload is the simpler one. Dividing by a power of the factor
//! other than 1, or timing the reference on as many threads as the workload
//! runs, did no better.

use std::hint::black_box;
use std::time::Instant;

/// Words of the table the load kernel walks: 4 MiB.
const WORDS: usize = 1 << 19;

/// Seconds each kernel takes on the quiet reference host (2.1 GHz Xeon
/// guest, the fastest of several hundred samples). On another CPU every
/// timing is off by one constant factor, which no comparison notices.
const QUIET_S: [f64; 3] = [0.004_95, 0.002_39, 0.013_7];

pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference { table }
    }

    /// How many times slower than on a quiet host the kernels run now
    /// (1.0 = quiet). Takes about 20 ms.
    pub fn slowdown(&mut self) -> f64 {
        let now = [self.loads(), alu(), bytes()];
        now.iter().zip(QUIET_S).map(|(t, q)| t / q).product::<f64>().cbrt()
    }

    /// A chain of dependent loads over the table.
    fn loads(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = 0usize;
        let mut acc = 0u64;
        for i in 0..100_000usize {
            let v = self.table[at];
            acc = (acc ^ v).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(23);
            at = (acc as usize ^ i) & (WORDS - 1);
        }
        self.table[0] ^= black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Four independent multiply-xorshift chains in registers.
fn alu() -> f64 {
    let t = Instant::now();
    let mut a = [1u64, 2, 3, 4];
    for i in 0..1_000_000u64 {
        for x in a.iter_mut() {
            *x = (*x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            *x ^= *x >> 29;
        }
    }
    black_box(a);
    t.elapsed().as_secs_f64()
}

/// Data-dependent branches over a 256-byte buffer, as an encoder does.
fn bytes() -> f64 {
    let t = Instant::now();
    let mut buf = [0u8; 256];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..10_000u64 {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (h >> (i & 7)) as u8 ^ round as u8;
            if *b & 1 == 0 {
                h = (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3);
            } else {
                h = h.rotate_left(5) ^ *b as u64;
            }
        }
    }
    black_box((buf, h));
    t.elapsed().as_secs_f64()
}
