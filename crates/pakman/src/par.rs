//! Crate-internal parallel primitives for the packed-u64 hot path (§4.5 of the
//! paper: parallel sort and merge over pre-allocated per-thread buffers).
//!
//! * [`fork_join`] is the one fork-join primitive every short-lived
//!   data-parallel loop of stages B–D goes through: the caller works chunk 0,
//!   helpers are spawned for chunks 1.. only, results come back in chunk order.
//!   [`plan`] decides how many chunks a phase gets from its length, the thread
//!   budget and the grain constant, so a phase too small to repay a
//!   spawn runs inline on the caller (DESIGN.md, "Fork-join and grain").
//!   [`fork_join_into`] is the same for chunks that emit runs of one stream
//!   (P1's rank hand-off): chunk 0 writes the stream itself.
//! * [`merge_two`] is the sequential two-run merge of the k-mer counter's
//!   folds, the per-bucket pairwise merges of a run with a memory bound.

/// The grain: the fewest items a spawned helper is handed, for every site whose
/// item is node-sized work (a counted k-mer of stage C, a P1 check — 75–170 ns
/// each, so ≥ 0.6 ms: several times a scope's 68 µs).
pub(crate) const GRAIN: usize = 8_192;
/// The same share in stage B's much smaller item, the k-mer window (13–37 ns).
pub(crate) const COUNT_GRAIN: usize = 8 * GRAIN;

/// How far ahead stage D hints the cache at a slot it already knows it will
/// read, in items of the list that names it: the streamed pass's destinations
/// (the hand-off), its sources (`invalidated`) and P1's frontier (`recheck`).
/// Each item is one miss into the slot vector that the hint overlaps with the
/// work of the items before it. Sized by a sweep on `asm_1t` (400 kbp,
/// `threads = 1`, 2-core host): P1 + P2 0.649 s without hints, 0.546 s with
/// the destinations', 0.483 s adding the sources', 0.459 s adding the
/// frontier's (DESIGN.md, "Memory-level parallelism").
pub(crate) const DEST_LOOKAHEAD: usize = 32;
/// See [`DEST_LOOKAHEAD`]: a source's visit (extraction and its deliveries)
/// is long, so fewer of them cover a miss.
pub(crate) const SOURCE_LOOKAHEAD: usize = 8;
/// See [`DEST_LOOKAHEAD`]: one P1 check, per chunk.
pub(crate) const CHECK_LOOKAHEAD: usize = 24;

/// How many chunks a phase over `len` items is cut into: at most `threads`, and
/// only as many as leave every chunk at least `grain` items — so a spawned
/// helper always gets well over the cost of its spawn in work, and a phase
/// shorter than two grains is one chunk, which [`fork_join`] runs inline. A
/// function of `len`, `threads` and a constant only; every chunked output is
/// position-aligned or re-joined in chunk order, so the plan cannot reach a result.
pub(crate) fn plan(len: usize, threads: usize, grain: usize) -> usize {
    threads.min(len / grain).max(1)
}

#[cfg(test)]
thread_local! {
    /// Helpers this thread has spawned through [`fork_join`]: lets a test pin
    /// "`threads = 1` spawns nothing" on a whole stage entry point.
    pub(crate) static HELPERS_SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `work` on every task and returns the results in task order. The first
/// task runs on the calling thread — after the helpers for tasks 1.. have been
/// spawned, one scoped thread each — so a single task spawns nothing, allocates
/// in the caller's allocator arena, and may write where a serial loop would.
/// Every helper is joined before this returns or unwinds; a helper's panic
/// resurfaces on the caller with its own payload.
pub(crate) fn fork_join<T: Send, R: Send>(
    tasks: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Vec::new();
    };
    let Some(second) = tasks.next() else {
        return vec![work(first)];
    };
    std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = std::iter::once(second)
            .chain(tasks)
            .map(|task| scope.spawn(move || work(task)))
            .collect();
        #[cfg(test)]
        HELPERS_SPAWNED.with(|spawned| spawned.set(spawned.get() + helpers.len()));
        let mut results = Vec::with_capacity(helpers.len() + 1);
        results.push(work(first));
        // Unwinding out of the scope still waits for the helpers not yet joined.
        results.extend(helpers.into_iter().map(|helper| {
            helper
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        results
    })
}

/// [`fork_join`] for tasks that each emit a run of one output stream: task 0
/// appends to `out` itself — where a serial loop would write — and task `i`
/// fills the reused `helper_outs[i - 1]`, appended to `out` in task order after
/// the join (which leaves every helper buffer empty, its capacity kept).
pub(crate) fn fork_join_into<T: Send, E: Send>(
    tasks: impl ExactSizeIterator<Item = T>,
    out: &mut Vec<E>,
    helper_outs: &mut Vec<Vec<E>>,
    work: impl Fn(T, &mut Vec<E>) + Sync,
) {
    if helper_outs.len() + 1 < tasks.len() {
        helper_outs.resize_with(tasks.len() - 1, Vec::new);
    }
    fork_join(
        tasks.zip(std::iter::once(&mut *out).chain(helper_outs.iter_mut())),
        |(task, buffer)| work(task, buffer),
    );
    for buffer in helper_outs.iter_mut() {
        out.append(buffer);
    }
}

/// Merges two sorted runs into one sorted vector (stable: ties take from `a`
/// first). Its one user is the k-mer counter's fold.
pub(crate) fn merge_two<T: Ord + Copy>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn plan_gives_every_chunk_a_grain_and_never_more_than_threads() {
        assert_eq!(plan(0, 8, 100), 1, "len = 0");
        assert_eq!(plan(99, 8, 100), 1);
        assert_eq!(plan(199, 8, 100), 1, "len < 2 × grain");
        assert_eq!(plan(200, 8, 100), 2);
        assert_eq!(plan(1_000_000, 1, 100), 1, "threads = 1");
        assert_eq!(plan(350, 8, 100), 3, "threads > len / grain");
        assert_eq!(plan(1_000_000, 4, 100), 4);
        assert_eq!(plan(10, 0, 100), 1, "never zero chunks");
    }

    #[test]
    fn fork_join_returns_results_in_task_order_and_works_chunk_0_on_the_caller() {
        let caller = thread::current().id();
        let ids = fork_join(0..5usize, |task| (task, thread::current().id()));
        assert_eq!(
            ids.iter().map(|&(task, _)| task).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(ids[0].1, caller);
        assert!(ids[1..].iter().all(|&(_, id)| id != caller));

        // A one-chunk plan (and an empty one) spawns nothing.
        let spawned_before = HELPERS_SPAWNED.get();
        let chunk = 10usize.div_ceil(plan(10, 8, 100));
        let data: Vec<u32> = (0..10).collect();
        let ids = fork_join(data.chunks(chunk), |_| thread::current().id());
        assert_eq!(ids, vec![caller]);
        assert!(fork_join(data[..0].chunks(chunk), |_| ()).is_empty());
        assert_eq!(HELPERS_SPAWNED.get(), spawned_before);
    }

    #[test]
    fn a_helper_panic_surfaces_on_the_caller_after_every_helper_is_joined() {
        let finished = AtomicUsize::new(0);
        // Helper 2 cannot finish before helper 1 is about to panic.
        let barrier = std::sync::Barrier::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fork_join(0..3usize, |task| {
                if task > 0 {
                    barrier.wait();
                }
                if task == 1 {
                    panic!("helper {task} failed");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("helper 1 failed")
        );
        assert_eq!(finished.load(Ordering::SeqCst), 2, "chunk 0 and helper 2");
    }

    #[test]
    fn threads_1_spawns_nothing_at_any_stage_entry_point() {
        use crate::compaction::compact;
        use crate::config::{PakmanConfig, SpillConfig};
        use crate::graph::PakGraph;
        use crate::kmer_count::{count_kmers, count_kmers_spilled, KmerCounterConfig};
        use crate::shard::{compact_sharded, ShardedGraph};

        // Every stage over the same 20 kbp read set, on the test's own thread:
        // returns how many helpers the stages spawned between them.
        let reads = crate::test_util::reads_for(20_000, 15.0, 0x7411);
        let helpers_at = |threads: usize| {
            let before = HELPERS_SPAWNED.get();
            let counter = KmerCounterConfig {
                k: 17,
                min_count: 1,
                threads,
            };
            let (counted, _) = count_kmers(&reads, counter).unwrap();
            let spill = SpillConfig::bounded(1 << 20);
            let (spilled, _, _) = count_kmers_spilled(&reads, counter, &spill).unwrap();
            assert_eq!(spilled, counted);
            let config = PakmanConfig {
                k: 17,
                min_kmer_count: 1,
                compaction_node_threshold: 10,
                threads,
                ..PakmanConfig::default()
            };
            let mut graph = PakGraph::from_counted_kmers(&counted, 17, threads);
            compact(&mut graph, &config);
            let mut sharded = ShardedGraph::from_counted_kmers(&counted, 17, 4, threads);
            compact_sharded(&mut sharded, &config);
            HELPERS_SPAWNED.get() - before
        };
        assert_eq!(helpers_at(1), 0);
        // The same stages do fork at `threads = 2`: the input crosses their grains.
        let helpers = helpers_at(2);
        assert!(helpers >= 6, "{helpers} helpers");
    }

    #[test]
    fn merge_two_is_a_stable_union() {
        let merged = merge_two(vec![1u64, 3, 5, 5], vec![2, 3, 4]);
        assert_eq!(merged, vec![1, 2, 3, 3, 4, 5, 5]);
        assert_eq!(merge_two(Vec::<u64>::new(), vec![7]), vec![7]);
        assert_eq!(merge_two(vec![7u64], Vec::new()), vec![7]);
    }
}
