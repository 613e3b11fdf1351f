//! Model-checked races on [`ShardedLru`], the lock-striped, weight-budgeted
//! map behind the compile and fixpoint caches.
//!
//! Only built under `RUSTFLAGS="--cfg lsml_loom"` — the CI `model-check`
//! leg. Each model body builds a *fresh* `ShardedLru` (the process-wide
//! `OnceLock` caches are not modeled; see the `loom` crate docs) over the
//! same stripes and shadow `Mutex`es the global caches run on, set up the
//! way each cache sets it up: graphs weighed in estimated bytes like the
//! compile cache, and unit entries of a fixed weight like the fixpoint
//! cache.
#![cfg(lsml_loom)]

use loom::{model, thread};
use lsml_aig::lru::{shard_index, ShardedLru};
use lsml_aig::Aig;
use std::sync::Arc;

/// The compile cache's shape: graphs weighed by the same footprint
/// estimate (`num_nodes * 48 + 160` bytes).
fn compile_lru(budget: usize) -> ShardedLru<Arc<Aig>> {
    ShardedLru::new(budget, |g: &Arc<Aig>| g.num_nodes() * 48 + 160)
}

/// The fixpoint cache's shape: unit entries of 64 bytes, `cap` of them.
fn fixpoint_lru(cap: usize) -> ShardedLru<()> {
    ShardedLru::new(cap * 64, |_| 64)
}

/// A pair of keys that land on **distinct** shards (panics if the stripe
/// hash ever degenerates to a single stripe for small keys).
fn cross_shard_keys() -> ((u128, u64), (u128, u64)) {
    let a = (0u128, 0u64);
    for raw in 1..1024u128 {
        let b = (raw, 0u64);
        if shard_index(b) != shard_index(a) {
            return (a, b);
        }
    }
    panic!("no second shard reachable");
}

/// A key colliding with `a`'s shard but under a different map key.
fn same_shard_other_key(a: (u128, u64)) -> (u128, u64) {
    for raw in 1..4096u128 {
        let b = (raw, 1u64);
        if b != a && shard_index(b) == shard_index(a) {
            return b;
        }
    }
    panic!("no same-shard sibling found");
}

/// A tiny graph with `ands` AND gates (distinct sizes → distinct entry
/// footprints, so byte accounting is actually exercised).
fn tiny_aig(ands: usize) -> Arc<Aig> {
    let mut g = Aig::new(2);
    let (a, b) = (g.input(0), g.input(1));
    let mut cur = a;
    for i in 0..ands {
        let rhs = if i % 2 == 0 { b } else { a };
        cur = g.and(cur, !rhs);
    }
    g.add_output(cur);
    Arc::new(g)
}

/// Two threads insert different-size entries under a budget that forces
/// eviction, racing a reader. Across every interleaving the byte accounting
/// must equal the sum of resident entries.
#[test]
fn concurrent_insert_evict_accounting() {
    // Budget fits ~2 tiny entries: the third insert must evict.
    let budget = 900;
    let report = model(move || {
        let cache = Arc::new(compile_lru(budget));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let g = tiny_aig(2 + w * 3);
                    cache.insert((w as u128, 0), g);
                    cache.verify().unwrap();
                })
            })
            .collect();
        let g = tiny_aig(8);
        cache.insert((99, 0), g);
        cache.verify().unwrap();
        let _ = cache.probe((0, 0));
        for t in writers {
            t.join().unwrap();
        }
        cache.verify().unwrap();
        // Conservation, not liveness: concurrent cross-stripe sweeps can
        // each observe the combined over-budget total and drain the other
        // thread's stripe, so `entries == 0` is a legal quiescent state.
        // What must hold is that all 3 distinct inserts are either
        // resident or counted as evicted — never silently lost.
        let (entries, bytes, evictions) = cache.totals();
        assert_eq!(
            entries as u64 + evictions,
            3,
            "lost entries: {entries} resident + {evictions} evicted ({bytes} bytes)"
        );
    });
    println!(
        "concurrent_insert_evict_accounting: {} interleavings explored (max depth {})",
        report.iterations, report.max_depth
    );
    assert!(report.iterations > 1);
}

/// Insert/lookup race on one key: a probe concurrent with the insert either
/// misses or hits, but a hit must never corrupt accounting, and the entry
/// must be resident afterwards.
#[test]
fn insert_lookup_race() {
    let report = model(|| {
        let cache = Arc::new(compile_lru(1 << 20));
        let reader = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.probe((7, 7)).is_some())
        };
        let g = tiny_aig(3);
        cache.insert((7, 7), g);
        let _hit_before = reader.join().unwrap();
        assert!(
            cache.probe((7, 7)).is_some(),
            "inserted entry must be resident"
        );
        cache.verify().unwrap();
    });
    println!(
        "insert_lookup_race: {} interleavings explored",
        report.iterations
    );
}

/// Same-key double insert (two threads compile the same candidate): the
/// replacement path must refund the old entry's bytes exactly once.
#[test]
fn same_key_double_insert_refunds_bytes() {
    let report = model(|| {
        let cache = Arc::new(compile_lru(1 << 20));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    // Different graph sizes under the SAME key.
                    let g = tiny_aig(1 + w * 4);
                    cache.insert((1, 1), g);
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        cache.verify().unwrap();
        let (entries, _bytes, _) = cache.totals();
        assert_eq!(entries, 1);
    });
    println!(
        "same_key_double_insert: {} interleavings explored",
        report.iterations
    );
}

/// Cross-shard byte-budget accounting race: two threads insert into
/// **distinct stripes** under a budget that forces eviction, so the shared
/// atomic byte total is mutated from both stripes concurrently (including
/// the cross-stripe pressure sweep). Accounting must stay exact across
/// every interleaving — the all-locks `verify` snapshot is sound even
/// mid-race.
#[test]
fn cross_shard_budget_accounting_race() {
    let (ka, kb) = cross_shard_keys();
    // Roomy enough for one entry, tight enough that two force the sweep.
    let budget = 500;
    let report = model(move || {
        let cache = Arc::new(compile_lru(budget));
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.insert(kb, tiny_aig(5));
                cache.verify().unwrap();
            })
        };
        cache.insert(ka, tiny_aig(2));
        cache.verify().unwrap();
        writer.join().unwrap();
        cache.verify().unwrap();
        // Dueling sweeps may legally drain both stripes (each observed the
        // combined total while over budget); conservation must still hold.
        let (entries, bytes, evictions) = cache.totals();
        assert_eq!(
            entries as u64 + evictions,
            2,
            "lost entries: {entries} resident + {evictions} evicted"
        );
        assert!(entries > 0 || bytes == 0, "empty cache with residual bytes");
    });
    println!(
        "cross_shard_budget_accounting_race: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// Concurrent insert and evict on distinct shards: one stripe inserts
/// within budget while the other is forced over budget and sweeps —
/// the sweep drains *other* stripes one lock at a time, racing the
/// first stripe's insert. No deadlock, no lost or double-counted bytes.
#[test]
fn concurrent_insert_evict_on_distinct_shards() {
    let (ka, kb) = cross_shard_keys();
    let ka2 = same_shard_other_key(ka);
    let budget = 700;
    let report = model(move || {
        let cache = Arc::new(compile_lru(budget));
        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                // Two same-stripe inserts: the second one's budget check
                // can trigger the cross-stripe sweep into ka's shard while
                // the main thread is inserting there.
                cache.insert(kb, tiny_aig(4));
                cache.insert(same_shard_other_key(kb), tiny_aig(6));
            })
        };
        cache.insert(ka, tiny_aig(2));
        cache.insert(ka2, tiny_aig(3));
        writer.join().unwrap();
        cache.verify().unwrap();
        let (entries, _bytes, evictions) = cache.totals();
        assert_eq!(
            entries as u64 + evictions,
            4,
            "lost entries: {entries} resident + {evictions} evicted"
        );
    });
    println!(
        "concurrent_insert_evict_on_distinct_shards: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}

/// The fixpoint cache's shape under concurrent over-capacity inserts: the
/// shared weight must track the per-stripe maps exactly and never exceed
/// the capacity once quiescent.
#[test]
fn fixpoint_cache_concurrent_inserts_respect_capacity() {
    // Keys on at least two stripes.
    let mut keys: Vec<(u128, u64)> = Vec::new();
    let first = (0u128, 0u64);
    keys.push(first);
    for raw in 1..1024u128 {
        let k = (raw, 0u64);
        if shard_index(k) != shard_index(first) {
            keys.push(k);
            break;
        }
    }
    assert_eq!(keys.len(), 2, "need two stripes");
    let report = model(move || {
        let cache = Arc::new(fixpoint_lru(2));
        let writer = {
            let cache = Arc::clone(&cache);
            let k = keys[1];
            // No mid-race verify here: capacity is a *quiescent* guarantee
            // (the lock is dropped between a stripe's own-phase and the
            // cross-stripe sweep, so the count can transiently exceed the
            // cap while another thread races). Byte/count drift is checked
            // mid-race in the compile-cache models; the cap only after join.
            thread::spawn(move || {
                cache.insert(k, ());
                cache.insert((k.0 + 4096, 0), ());
            })
        };
        cache.insert(keys[0], ());
        assert!(
            cache.probe(keys[0]).is_some() || {
                // The racing writer's capacity sweep may have evicted us.
                let (entries, _, _) = cache.totals();
                entries <= 2
            }
        );
        writer.join().unwrap();
        let (_, weight) = cache.verify().unwrap();
        assert!(weight <= cache.budget(), "{weight} bytes over the cap");
        let (entries, _weight, _evictions) = cache.totals();
        assert!(entries >= 1 && entries <= 2, "resident {entries}");
    });
    println!(
        "fixpoint_cache_concurrent_inserts_respect_capacity: {} interleavings explored",
        report.iterations
    );
    assert!(report.iterations > 1);
}
