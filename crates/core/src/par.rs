//! Deterministic fork-join helper for the crate's single fan-out.
//!
//! S1 sanitize is the only engine stage that measured a gain from worker
//! threads (1.6x on 2 cores at Internet scale); every other stage runs
//! on the calling thread. The fan-out splits the work into contiguous
//! chunks, processes each chunk independently, and returns the per-chunk
//! results **in chunk order**. Because each chunk's result depends only
//! on its input (never on scheduling), the assembled output is
//! bit-identical for every thread count — the guarantee the
//! `parallel_determinism` integration test pins down.

use asrank_types::Parallelism;

/// Map `f` over contiguous chunks of `items` (each at least `min_chunk`
/// long), returning per-chunk results in chunk order.
pub fn map_chunks<T, R, F>(par: Parallelism, min_chunk: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = par.chunk_size(items.len(), min_chunk);
    if chunk >= items.len() {
        return vec![f(items)];
    }
    crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let f = &f;
                scope.spawn(move |_| f(c))
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panics, re-raises a child panic on the caller thread; swallowing it would return truncated results)
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
    // lint: allow(panics, scope only errs when a worker panicked; the join above already re-raised it)
    .expect("crossbeam scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_preserve_order() {
        let items: Vec<u64> = (0..1000).collect();
        for par in [
            Parallelism::sequential(),
            Parallelism::threads(3),
            Parallelism::auto(),
        ] {
            let sums = map_chunks(par, 1, &items, |c| c.iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 499_500);
            // First chunk must be the lowest items: order is positional.
            let first_len = items.len().div_ceil(par.effective()).max(1);
            let expected_first: u64 = items[..first_len.min(items.len())].iter().sum();
            assert_eq!(sums[0], expected_first);
        }
    }

    #[test]
    fn empty_inputs_yield_no_chunks() {
        let out: Vec<u32> = map_chunks(Parallelism::auto(), 1, &[] as &[u8], |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u32> = (0..777).map(|i| i * 7 % 253).collect();
        let run = |par| {
            map_chunks(par, 5, &items, |c| {
                c.iter().map(|&x| x as u64 * x as u64).collect::<Vec<u64>>()
            })
            .concat()
        };
        let seq = run(Parallelism::sequential());
        let par4 = run(Parallelism::threads(4));
        let auto = run(Parallelism::auto());
        assert_eq!(seq, par4);
        assert_eq!(seq, auto);
    }
}
