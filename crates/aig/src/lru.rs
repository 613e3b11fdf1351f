//! The lock-striped, weight-budgeted LRU map behind the process-wide memo
//! caches: the compile cache (`lsml-core`, `compile` module) and the
//! pipeline fixpoint cache ([`crate::opt`]).
//!
//! Both caches are keyed by a (structural fingerprint, configuration
//! fingerprint) pair. A [`ShardedLru`] splits its entries over 16
//! independently locked maps that share one atomic weight total, so probes
//! and inserts on different stripes never contend while the budget stays
//! global. An insert that pushes the total over budget evicts the
//! inserting stripe's least-recently-touched quarter until the total fits
//! (always keeping that stripe's newest entry), then sweeps the other
//! stripes one lock at a time — never two at once, so lock order cannot
//! deadlock. Every lock and atomic goes through the `loom::sync` facade:
//! the `loom_lru` models check the same code the caches run.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Mutex;
use std::collections::HashMap;

/// A cache key: (structural fingerprint, configuration fingerprint).
pub type Key = (u128, u64);

/// Lock stripes per cache. A power of two: the stripe index is the top
/// bits of the multiplicatively mixed key hash.
const SHARDS: usize = 16;

/// The stripe a key lives in: both key halves are folded together and
/// Fibonacci-mixed so structurally close fingerprints spread evenly.
pub fn shard_index(key: Key) -> usize {
    let folded = (key.0 as u64) ^ ((key.0 >> 64) as u64) ^ key.1;
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (SHARDS - 1)
}

/// A cache budget from the environment variable `var`: a positive integer,
/// surrounding whitespace allowed. Unset, `0` or unparsable values give
/// `default`. Callers latch the result; the knobs are listed in the
/// [`crate::par`] module docs.
pub fn budget_from_env(var: &str, default: usize) -> usize {
    parse_budget(std::env::var(var).ok().as_deref(), default)
}

fn parse_budget(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(default)
}

/// One resident value, its weight when inserted, and its last-touch tick.
struct Entry<V> {
    value: V,
    weight: usize,
    tick: u64,
}

/// One lock stripe: an LRU-stamped map. Its weight lives in the owning
/// [`ShardedLru`]'s shared atomic.
struct Stripe<V> {
    map: HashMap<Key, Entry<V>>,
    tick: u64,
    evictions: u64,
}

impl<V> Stripe<V> {
    /// Evicts the least-recently-touched quarter of this stripe in one O(n)
    /// selection (not a sort, so eviction stays cheap when a sweep floods
    /// the cache); returns the weight freed.
    fn evict_quarter(&mut self) -> usize {
        let mut ticks: Vec<u64> = self.map.values().map(|e| e.tick).collect();
        let cut = ticks.len() / 4;
        let (_, &mut threshold, _) = ticks.select_nth_unstable(cut);
        let before = self.map.len();
        let mut freed = 0usize;
        self.map.retain(|_, e| {
            if e.tick > threshold {
                true
            } else {
                freed += e.weight;
                false
            }
        });
        self.evictions += (before - self.map.len()) as u64;
        freed
    }
}

/// A lock-striped LRU map with a global weight budget (see the module
/// docs for the eviction policy).
pub struct ShardedLru<V> {
    stripes: [Mutex<Stripe<V>>; SHARDS],
    /// Total weight of the resident entries across all stripes.
    weight: AtomicU64,
    budget: usize,
    weigh: fn(&V) -> usize,
}

impl<V: Clone> ShardedLru<V> {
    /// An empty map holding at most `budget` total weight, each entry
    /// weighing `weigh(&value)`.
    pub fn new(budget: usize, weigh: fn(&V) -> usize) -> ShardedLru<V> {
        ShardedLru {
            stripes: std::array::from_fn(|_| {
                Mutex::new(Stripe {
                    map: HashMap::new(),
                    tick: 0,
                    evictions: 0,
                })
            }),
            weight: AtomicU64::new(0),
            budget,
            weigh,
        }
    }

    /// The weight budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn over_budget(&self) -> bool {
        self.weight.load(Ordering::Relaxed) > self.budget as u64
    }

    /// LRU-refreshing lookup in the key's stripe.
    pub fn probe(&self, key: Key) -> Option<V> {
        let mut st = self.stripes[shard_index(key)]
            .lock()
            .expect("lru stripe lock");
        st.tick += 1;
        let tick = st.tick;
        st.map.get_mut(&key).map(|e| {
            e.tick = tick;
            e.value.clone()
        })
    }

    /// Inserts (or replaces) `key`, then enforces the weight budget: the
    /// inserting stripe evicts its oldest quarter while the total is over
    /// budget and it holds more than one entry, and any remaining pressure
    /// is relieved by sweeping the other stripes one lock at a time,
    /// draining a stripe entirely if need be.
    pub fn insert(&self, key: Key, value: V) {
        let idx = shard_index(key);
        let weight = (self.weigh)(&value);
        {
            let mut st = self.stripes[idx].lock().expect("lru stripe lock");
            st.tick += 1;
            let tick = st.tick;
            let replaced = st
                .map
                .insert(
                    key,
                    Entry {
                        value,
                        weight,
                        tick,
                    },
                )
                .map_or(0, |old| old.weight);
            // Apply the net change in one step, so a same-weight
            // replacement never shows a transient overshoot to other
            // stripes' budget checks.
            if weight >= replaced {
                self.weight
                    .fetch_add((weight - replaced) as u64, Ordering::Relaxed);
            } else {
                self.weight
                    .fetch_sub((replaced - weight) as u64, Ordering::Relaxed);
            }
            while self.over_budget() && st.map.len() > 1 {
                let freed = st.evict_quarter();
                self.weight.fetch_sub(freed as u64, Ordering::Relaxed);
            }
        }
        let mut i = (idx + 1) % SHARDS;
        while self.over_budget() && i != idx {
            let mut st = self.stripes[i].lock().expect("lru stripe lock");
            while self.over_budget() && !st.map.is_empty() {
                let freed = st.evict_quarter();
                self.weight.fetch_sub(freed as u64, Ordering::Relaxed);
            }
            drop(st);
            i = (i + 1) % SHARDS;
        }
    }

    /// Empties every stripe (eviction counters keep running).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut st = stripe.lock().expect("lru stripe lock");
            let freed: usize = st.map.values().map(|e| e.weight).sum();
            st.map.clear();
            self.weight.fetch_sub(freed as u64, Ordering::Relaxed);
        }
    }

    /// `(resident entries, accounted weight, evictions)` over all stripes.
    pub fn totals(&self) -> (usize, usize, u64) {
        let mut entries = 0usize;
        let mut evictions = 0u64;
        for stripe in &self.stripes {
            let st = stripe.lock().expect("lru stripe lock");
            entries += st.map.len();
            evictions += st.evictions;
        }
        (
            entries,
            self.weight.load(Ordering::Relaxed) as usize,
            evictions,
        )
    }

    /// Checks that the weight accounting has not drifted: each entry's
    /// recorded weight must match `weigh` of its value, and the shared
    /// atomic must equal their sum. Returns the `(entries, weight)` it
    /// checked. Holds **every** stripe lock while reading: mutations only
    /// happen under one stripe lock at a time, so this sees a consistent
    /// state even while inserts race, and cannot deadlock.
    pub fn verify(&self) -> Result<(usize, usize), String> {
        let guards: Vec<_> = self
            .stripes
            .iter()
            .map(|s| s.lock().expect("lru stripe lock"))
            .collect();
        let mut entries = 0usize;
        let mut sum = 0usize;
        for st in &guards {
            for (key, e) in &st.map {
                let expect = (self.weigh)(&e.value);
                if e.weight != expect {
                    return Err(format!(
                        "entry {key:?} records weight {}, its value weighs {expect}",
                        e.weight
                    ));
                }
                sum += e.weight;
            }
            entries += st.map.len();
        }
        let accounted = self.weight.load(Ordering::Relaxed) as usize;
        if sum != accounted {
            return Err(format!(
                "weight drifted: accounted {accounted} != resident sum {sum}"
            ));
        }
        Ok((entries, sum))
    }

    /// Every resident entry, sorted by key, so identical contents export
    /// identically. Holds one stripe lock at a time.
    pub fn export(&self) -> Vec<(Key, V)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let st = stripe.lock().expect("lru stripe lock");
            out.extend(st.map.iter().map(|(&k, e)| (k, e.value.clone())));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parser_trims_and_falls_back() {
        assert_eq!(parse_budget(None, 77), 77);
        assert_eq!(parse_budget(Some("0"), 77), 77);
        assert_eq!(parse_budget(Some(" 4096 "), 77), 4096);
        assert_eq!(parse_budget(Some("junk"), 77), 77);
    }

    /// Keys that all land on one stripe, so the quarter eviction order is
    /// observable without cross-stripe sweeps.
    fn same_stripe_keys(n: usize) -> Vec<Key> {
        let stripe = shard_index((0, 0));
        (0..u128::MAX)
            .map(|g| (g, 0))
            .filter(|&k| shard_index(k) == stripe)
            .take(n)
            .collect()
    }

    #[test]
    fn over_budget_insert_evicts_the_least_recently_touched() {
        let keys = same_stripe_keys(5);
        let lru: ShardedLru<usize> = ShardedLru::new(40, |&w| w);
        for &k in &keys[..4] {
            lru.insert(k, 10);
        }
        // Touch the oldest entry, then overflow: the quarter cut of five
        // entries drops the two least recently touched.
        assert_eq!(lru.probe(keys[0]), Some(10));
        lru.insert(keys[4], 10);
        for k in [keys[1], keys[2]] {
            assert_eq!(lru.probe(k), None);
        }
        for k in [keys[0], keys[3], keys[4]] {
            assert_eq!(lru.probe(k), Some(10));
        }
        assert_eq!(lru.totals(), (3, 30, 2));
        assert_eq!(lru.verify(), Ok((3, 30)));
        // Replacing a key refunds the old weight.
        lru.insert(keys[0], 5);
        assert_eq!(lru.verify(), Ok((3, 25)));
        let exported: Vec<Key> = lru.export().into_iter().map(|(k, _)| k).collect();
        let mut sorted = exported.clone();
        sorted.sort_unstable();
        assert_eq!(exported, sorted);
        lru.clear();
        assert_eq!(lru.totals(), (0, 0, 2));
    }

    #[test]
    fn an_oversized_entry_stays_alone() {
        let lru: ShardedLru<usize> = ShardedLru::new(8, |&w| w);
        lru.insert((1, 0), 3);
        lru.insert((2, 0), 50);
        assert_eq!(lru.probe((2, 0)), Some(50));
        assert_eq!(lru.totals().0, 1);
        assert_eq!(lru.verify(), Ok((1, 50)));
    }
}
