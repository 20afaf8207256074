//! Deterministic scoped-thread fan-out.

/// Runs `f(i)` for every index in `0..count` across `threads` scoped
/// threads, returning results in index order.
///
/// Indices are split into contiguous chunks, so the output is
/// identical to the serial loop regardless of thread count — the
/// chunking scheme the bench harness's repetition runner relies on.
pub fn parallel_index_map<T: Send>(
    count: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, count);
    if threads == 1 {
        return (0..count).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(t * chunk + i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_worker_in_order() {
        for threads in [1usize, 2, 3, 8, 64] {
            let out = parallel_index_map(23, threads, |i| i * 2);
            let expect: Vec<usize> = (0..23).map(|i| i * 2).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn zero_workers_is_empty() {
        assert!(parallel_index_map(0, 4, |i| i).is_empty());
    }
}
