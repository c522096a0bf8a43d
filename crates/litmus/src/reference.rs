//! Reference memory models: the outcome sets a litmus test can produce
//! under sequential consistency and under TSO.
//!
//! Both are small operational models enumerated exhaustively:
//!
//! * **SC** — threads interleave whole operations against a single memory;
//!   a load returns the current memory value (Lamport's definition).
//! * **TSO** — each thread owns a FIFO store buffer. A store enqueues
//!   locally; an enqueued store drains to memory at any later point, in
//!   FIFO order. A load first forwards from the newest same-address store
//!   in its *own* buffer, else reads memory (the standard x86-TSO
//!   operational model). SC executions are the subset that drains every
//!   store immediately, so `sc ⊆ tso` by construction.
//!
//! Outcomes are register tuples in [`LitmusTest::registers`] order.

use crate::machine::{exhaust, Limits};
use crate::test::{LitmusTest, Op, Val};
use std::collections::BTreeSet;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RefState {
    cursor: Vec<u8>,
    mem: Vec<Val>,
    regs: Vec<Val>,
    /// Per-thread FIFO store buffers; always empty in the SC model.
    buffers: Vec<Vec<(u8, Val)>>,
}

fn enumerate(test: &LitmusTest, buffered: bool) -> BTreeSet<Vec<Val>> {
    let n = test.threads.len();
    let init = RefState {
        cursor: vec![0; n],
        mem: vec![0; test.addrs.len()],
        regs: vec![0; test.registers.len()],
        buffers: vec![Vec::new(); n],
    };
    let successors = |st: &RefState, succs: &mut Vec<RefState>| {
        for t in 0..n {
            // Execute the thread's next operation.
            if let Some(&op) = test.threads[t].get(st.cursor[t] as usize) {
                let mut s = st.clone();
                s.cursor[t] += 1;
                match op {
                    Op::Load { addr, reg } => {
                        let fwd = s.buffers[t].iter().rev().find(|&&(a, _)| a == addr);
                        s.regs[reg as usize] = fwd.map_or(s.mem[addr as usize], |&(_, v)| v);
                    }
                    Op::Store { addr, val } => {
                        if buffered {
                            s.buffers[t].push((addr, val));
                        } else {
                            s.mem[addr as usize] = val;
                        }
                    }
                }
                succs.push(s);
            }
            // Drain the thread's oldest buffered store to memory.
            if !st.buffers[t].is_empty() {
                let mut s = st.clone();
                let (addr, val) = s.buffers[t].remove(0);
                s.mem[addr as usize] = val;
                succs.push(s);
            }
        }
        Ok(())
    };
    let outcome = |st: &RefState| {
        let done = (0..n).all(|t| st.cursor[t] as usize == test.threads[t].len())
            && st.buffers.iter().all(Vec::is_empty);
        done.then(|| st.regs.clone())
    };
    // A state with work left always has a step, and no bound applies.
    let limits = Limits { max_states: usize::MAX, seed: 0 };
    exhaust(test, init, &limits, successors, outcome).expect("reference models never get stuck")
}

/// All outcomes the test admits under sequential consistency.
pub fn sc_outcomes(test: &LitmusTest) -> BTreeSet<Vec<Val>> {
    enumerate(test, false)
}

/// All outcomes the test admits under TSO (store buffers with own-buffer
/// forwarding). Always a superset of [`sc_outcomes`].
pub fn tso_outcomes(test: &LitmusTest) -> BTreeSet<Vec<Val>> {
    enumerate(test, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::{bundled, parse_litmus, CORR, IRIW, LB, MP, SB};

    fn outs(src: &str, buffered: bool) -> BTreeSet<Vec<Val>> {
        enumerate(&parse_litmus(src).unwrap(), buffered)
    }

    #[test]
    fn sb_separates_sc_from_tso() {
        let sc = outs(SB, false);
        let tso = outs(SB, true);
        assert!(!sc.contains(&vec![0, 0]), "SC forbids both loads missing both stores");
        assert!(tso.contains(&vec![0, 0]), "TSO's buffered stores allow (0,0)");
        assert_eq!(sc.len(), 3);
        assert_eq!(tso.len(), 4);
    }

    #[test]
    fn mp_and_iriw_hold_under_tso() {
        // TSO keeps message passing intact: r0=1 (flag seen) forces r1=1.
        assert!(!outs(MP, true).contains(&vec![1, 0]));
        // …and is multi-copy atomic: readers agree on the write order.
        assert!(!outs(IRIW, true).contains(&vec![1, 0, 1, 0]));
    }

    #[test]
    fn lb_and_corr_exotic_outcomes_never_appear() {
        assert!(!outs(LB, true).contains(&vec![1, 1]));
        assert!(!outs(CORR, true).contains(&vec![1, 0]));
    }

    #[test]
    fn sc_is_always_a_subset_of_tso() {
        for test in bundled() {
            let sc = sc_outcomes(&test);
            let tso = tso_outcomes(&test);
            assert!(sc.is_subset(&tso), "{}: SC ⊄ TSO", test.name);
        }
    }
}
