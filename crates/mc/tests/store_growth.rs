//! The visited store must not grow as one block: a second verification in
//! the same process has to fit in the memory the first one left behind.
//! When the fingerprint map and the record vector each doubled as one
//! block, the blocks they freed were too small for anything that came
//! next, and MESI stalling @4 peaked 10.7 MiB higher the second time in
//! the dev profile.
//!
//! One test in this file, so that it owns its process: `VmHWM` is the
//! process-wide resident high-water mark.

#![cfg(target_os = "linux")]

use protogen_core::{generate, GenConfig};
use protogen_mc::{McConfig, ModelChecker};

/// The process's peak resident set so far, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

#[test]
fn a_second_verification_fits_in_the_first_ones_peak() {
    let g = generate(&protogen_protocols::mesi(), &GenConfig::stalling()).unwrap();
    let verify = || {
        let mut cfg = McConfig::with_caches(4);
        cfg.threads = 1;
        let r = ModelChecker::new(&g.cache, &g.directory, cfg).run();
        assert!(r.passed(), "{:?}", r.violation);
        assert_eq!(r.states, 254_130);
        vm_hwm_kib()
    };
    let first = verify();
    let second = verify();
    assert!(
        second <= first + 2048,
        "the second run raised VmHWM by {} KiB ({first} -> {second} KiB); at most 2 MiB allowed",
        second - first
    );
}
