//! Deterministic batch fan-out, shared by the simulator's sweep, the fuzz
//! campaign and the litmus suite: jobs `0..n` run on a fixed number of
//! workers, job `i` on worker `i % threads`, and the results come back in
//! index order. A job that draws random numbers seeds them with
//! [`job_seed`] — the run's seed and the job's index, never a thread's
//! identity — so every report is byte-identical at any thread count.

/// The worker count for `jobs` jobs when `requested` were asked for: 0 is
/// every available core; never more workers than jobs, never fewer than one.
pub fn threads(requested: usize, jobs: usize) -> usize {
    let t = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    t.clamp(1, jobs.max(1))
}

/// `f(0) … f(jobs - 1)` on [`threads`]`(threads, jobs)` workers, results in
/// index order. Job `i` runs on worker `i % threads`; worker 0 is the
/// calling thread. A panic in a job is resumed on the caller.
pub fn map_indexed<T: Send>(jobs: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = self::threads(threads, jobs);
    let f = &f;
    let worker = move |w: usize| (w..jobs).step_by(threads).map(f).collect::<Vec<T>>();
    let per_worker: Vec<Vec<T>> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|w| s.spawn(move || worker(w))).collect();
        let joined =
            spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        std::iter::once(worker(0)).chain(joined).collect()
    });
    let mut per_worker: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
    (0..jobs)
        .map(|i| per_worker[i % threads].next().expect("worker i % threads ran job i"))
        .collect()
}

/// SplitMix64 of `seed` and `index`: job `index`'s seed, a function of the
/// run's seed and the job's position alone.
pub fn job_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        let one = map_indexed(23, 1, |i| i * i);
        assert_eq!(one, (0..23).map(|i| i * i).collect::<Vec<_>>());
        for t in [0, 2, 3, 4, 64] {
            assert_eq!(map_indexed(23, t, |i| i * i), one, "{t} threads");
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn job_i_runs_on_worker_i_mod_threads_and_worker_zero_is_the_caller() {
        let caller = std::thread::current().id();
        let ran = map_indexed(9, 3, |_| std::thread::current().id());
        for (i, id) in ran.iter().enumerate() {
            assert_eq!(*id, ran[i % 3], "job {i}");
            assert_eq!(*id == caller, i % 3 == 0, "job {i}");
        }
        assert_ne!(ran[1], ran[2]);
    }

    #[test]
    fn thread_counts_resolve_and_clamp() {
        assert!(threads(0, 1000) >= 1);
        assert_eq!(threads(8, 3), 3);
        assert_eq!(threads(2, 0), 1);
        assert_eq!(threads(2, 5), 2);
    }

    /// The first two cells of the default `sweep` grid (seed `0xC0FFEE`)
    /// carry these seeds in every `sweep.json` since the sweep was
    /// written: a change here re-seeds every sweep and fuzz report.
    #[test]
    fn job_seeds_are_pinned() {
        assert_eq!(job_seed(0xC0FFEE, 0), 0x0f0d_f74b_5773_412a);
        assert_eq!(job_seed(0xC0FFEE, 1), 0xe332_df7f_7589_5c71);
        assert_ne!(job_seed(1, 0), job_seed(1, 1));
        assert_ne!(job_seed(1, 0), job_seed(2, 0));
    }
}
