//! Deterministic parallel Monte-Carlo repetition runner.

use crate::RunOptions;

/// Runs `f(rep_seed)` for every repetition in parallel and collects the
/// results in repetition order.
///
/// Seeding is per-repetition (`options.seed + rep`), so the output is
/// identical regardless of thread count — the property the pinned
/// figure outputs in `crates/bench/tests/figure_regression.rs` rely
/// on. Fan-out rides the same deterministic chunking as the
/// estimators' parallel paths ([`crowd_core::parallel_index_map`]).
pub fn parallel_reps<T: Send>(options: &RunOptions, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    crowd_core::parallel_index_map(
        options.reps,
        options.threads,
        |i| f(options.seed + i as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_seed_once_in_order() {
        let opts = RunOptions {
            reps: 23,
            seed: 100,
            threads: 4,
        };
        let out = parallel_reps(&opts, |s| s);
        let expect: Vec<u64> = (100..123).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |s: u64| s.wrapping_mul(6364136223846793005).wrapping_add(1) % 997;
        let a = parallel_reps(
            &RunOptions {
                reps: 50,
                seed: 7,
                threads: 1,
            },
            work,
        );
        let b = parallel_reps(
            &RunOptions {
                reps: 50,
                seed: 7,
                threads: 8,
            },
            work,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_reps_is_empty() {
        let out = parallel_reps(
            &RunOptions {
                reps: 0,
                seed: 0,
                threads: 4,
            },
            |s| s,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_reps_is_fine() {
        let out = parallel_reps(
            &RunOptions {
                reps: 3,
                seed: 5,
                threads: 64,
            },
            |s| s * 2,
        );
        assert_eq!(out, vec![10, 12, 14]);
    }
}
