//! The concurrent plan cache: lock-striped, memoizing, counter-instrumented.
//!
//! A [`PlanCache`] maps [`ProfileKey`]s to solved plans. It is designed for
//! the sharded replay path, where many worker threads look up mostly-equal
//! keys concurrently:
//!
//! * **Lock striping.** Keys are spread over independently locked stripes
//!   by the high bits of a cheap, deterministic multiply-rotate fold of
//!   the key's integer fields, so a bounded cache lays out (and evicts)
//!   alike in every process. A stripe's lock covers the map operation and
//!   the copy out of a solved entry, never a solve.
//! * **Keyed maps.** Each stripe's `HashMap` keeps the per-process random
//!   hasher: keys come from callers, and an unkeyed hash would let crafted
//!   profiles pile into one bucket chain. The fold only picks among a
//!   fixed set of stripes, where the worst case is one shared lock.
//! * **Single-flight solves.** Each entry is a [`OnceLock`] slot: the first
//!   thread to request a key inserts the slot and solves into it; any other
//!   thread requesting the same key — even while the solve is still running
//!   — receives the same slot and blocks only on that one entry. A distinct
//!   profile is therefore solved **exactly once** per cache lifetime, which
//!   also makes the hit/miss counters deterministic: misses equal the
//!   number of distinct keys requested, independent of thread scheduling.
//! * **Counters.** Hits, misses and evictions accumulate in relaxed atomics
//!   and are exposed as a [`CacheStats`] snapshot; `CacheStats::since`
//!   computes the delta over a measured region (one replay, one batch).
//!
//! The cache stores failed solves too: an infeasible profile is negative —
//! cached, so a trace full of hopeless jobs pays the infeasibility proof
//! once per class instead of once per job.

use crate::key::ProfileKey;
use crate::planner::PlanResult;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The stripe picker: one rotate-xor-multiply round (by an odd constant)
/// per integer field the derived `Hash` feeds it, so the **high** bits are
/// well mixed. Deterministic and unkeyed: it picks stripes, never buckets.
struct StripeFold(u64);

impl Hasher for StripeFold {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(byte.into()));
    }

    fn write_u32(&mut self, field: u32) {
        self.write_u64(field.into());
    }

    fn write_u64(&mut self, field: u64) {
        self.0 = (self.0.rotate_left(5) ^ field).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A single-flight entry: solved at most once, shared by all requesters.
type Slot = Arc<OnceLock<PlanResult>>;

/// A resident entry plus its second-chance reference bit.
#[derive(Debug)]
struct Resident {
    slot: Slot,
    /// Set on every hit, cleared (once) by the eviction scan: an entry hit
    /// since the scan last passed it survives one more round.
    referenced: bool,
}

impl Resident {
    /// The entry's memory footprint in bytes: the fixed slot overhead plus
    /// whatever the resolved result keeps on the heap. `Plan` is `Copy`
    /// (all-inline), so successful solves weigh the floor; a negative-cached
    /// error additionally owns its message bytes. An in-flight entry reads
    /// as the floor too — its final size is unknown and evicting a solve
    /// that threads are blocked on would waste the work in progress.
    fn footprint(&self) -> usize {
        let floor = std::mem::size_of::<Resident>() + std::mem::size_of::<PlanResult>();
        match self.slot.get() {
            Some(Err(err)) => floor + err.to_string().len(),
            Some(Ok(_)) | None => floor,
        }
    }
}

/// One lock stripe: the entry map plus the FIFO scan order the
/// second-chance eviction walks. `order` contains exactly the resident
/// keys, oldest insertion first.
#[derive(Debug, Default)]
struct Stripe {
    map: HashMap<ProfileKey, Resident>,
    order: VecDeque<ProfileKey>,
}

impl Stripe {
    /// Evicts one entry by the size-aware clock/second-chance rule: scan
    /// one lap of the FIFO order, give each referenced entry its second
    /// chance (clear the bit), and among the unreferenced entries victimize
    /// the one with the **largest [`Resident::footprint`]** — under
    /// capacity pressure, evicting the heaviest cold entry frees the most
    /// memory per eviction. Equal footprints (the common case: every
    /// successful solve weighs the same) tie-break toward the **smallest
    /// key**, which is deterministic across runs and hosts — never the
    /// map's per-process iteration order. A lap that finds every entry
    /// referenced clears all the bits, so the second lap always yields a
    /// victim.
    fn evict_one(&mut self) {
        for _lap in 0..2 {
            let mut victim: Option<(usize, ProfileKey, usize)> = None;
            for (position, key) in self.order.iter().enumerate() {
                // Invariant: every insert and removal updates `map` and `order` together.
                #[allow(clippy::expect_used)]
                let resident = self
                    .map
                    .get_mut(key)
                    .expect("order contains exactly the resident keys");
                if resident.referenced {
                    resident.referenced = false;
                    continue;
                }
                let weight = resident.footprint();
                let heavier = match &victim {
                    None => true,
                    Some((best_weight, best_key, _)) => {
                        weight > *best_weight || (weight == *best_weight && *key < *best_key)
                    }
                };
                if heavier {
                    victim = Some((weight, *key, position));
                }
            }
            if let Some((_, key, position)) = victim {
                self.map.remove(&key);
                self.order.remove(position);
                return;
            }
        }
        unreachable!("a bit-cleared lap over a non-empty stripe yields a victim");
    }
}

/// Snapshot of a [`PlanCache`]'s counters.
///
/// Obtained from [`PlanCache::stats`]; two snapshots around a measured
/// region subtract via [`CacheStats::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found an existing entry (including entries whose solve
    /// was still in flight on another thread).
    pub hits: u64,
    /// Lookups that inserted a new entry. With an unbounded cache this
    /// equals the number of distinct profiles requested.
    pub misses: u64,
    /// Entries removed to respect a configured capacity.
    pub evictions: u64,
    /// Entries resident at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when there were no
    /// lookups).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Exports the snapshot into a
    /// [`MetricsRegistry`](chronos_obs::MetricsRegistry) under the
    /// `chronos_plan_cache_*` namespace. Totals are worker-count-invariant
    /// for the single-flight cache: each distinct key misses exactly once
    /// no matter which worker took the miss, so the exported registry of a
    /// sharded run needs no further normalization.
    pub fn export_metrics(&self, registry: &mut chronos_obs::MetricsRegistry) {
        registry.counter_add(
            "chronos_plan_cache_hits_total",
            "Plan-cache lookups served from the cache",
            self.hits,
        );
        registry.counter_add(
            "chronos_plan_cache_misses_total",
            "Plan-cache lookups that computed a fresh plan",
            self.misses,
        );
        registry.counter_add(
            "chronos_plan_cache_evictions_total",
            "Plan-cache entries evicted under capacity pressure",
            self.evictions,
        );
        registry.gauge_add(
            "chronos_plan_cache_entries",
            "Plan-cache entries resident at snapshot time",
            i64::try_from(self.entries).unwrap_or(i64::MAX),
        );
    }

    /// The counter deltas accumulated since `earlier` was snapshotted.
    /// `entries` is not a counter and keeps this snapshot's value.
    ///
    /// # Contract
    ///
    /// `earlier` must be an **earlier snapshot of the same cache**. The
    /// monotone counters (`hits`, `misses`, `evictions`) never decrease
    /// over a cache's lifetime — [`PlanCache::clear`] deliberately
    /// preserves them exactly so that a snapshot taken before a `clear`
    /// stays a valid `earlier` afterwards — so a componentwise-greater
    /// `earlier` can only mean the arguments were swapped or the snapshots
    /// come from two different caches. Debug builds reject that with a
    /// panic; release builds saturate each delta to zero rather than
    /// underflow.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        debug_assert!(
            earlier.hits <= self.hits
                && earlier.misses <= self.misses
                && earlier.evictions <= self.evictions,
            "CacheStats::since: `earlier` ({earlier:?}) is not componentwise <= `self` \
             ({self:?}); snapshots must come from the same cache, oldest passed as `earlier`"
        );
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.2}% hit rate), {} entries, {} evictions",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries,
            self.evictions
        )
    }
}

/// The sharded, lock-striped concurrent plan cache. See the [module
/// docs](self) for the concurrency and determinism contract.
///
/// # Examples
///
/// ```
/// use chronos_plan::prelude::*;
///
/// let cache = PlanCache::new();
/// assert!(cache.is_empty());
/// assert_eq!(cache.stats().lookups(), 0);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    stripes: Vec<Mutex<Stripe>>,
    /// Maximum entries per stripe (`None` = unbounded, the default).
    stripe_capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Stripe count of [`PlanCache::new`]: enough that a worker pool of
    /// typical width rarely contends on one stripe lock.
    pub const DEFAULT_STRIPES: usize = 16;

    /// An unbounded cache with [`PlanCache::DEFAULT_STRIPES`] stripes.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::with_stripes(Self::DEFAULT_STRIPES)
    }

    /// An unbounded cache with an explicit stripe count (clamped to ≥ 1).
    #[must_use]
    pub fn with_stripes(stripes: usize) -> Self {
        let stripes = stripes.max(1);
        PlanCache {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            stripe_capacity: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bounds the cache to roughly `capacity` entries (split evenly across
    /// stripes, at least one per stripe). When a stripe is full, an entry
    /// is evicted by a **size-aware clock/second-chance** policy: eviction
    /// scans the stripe's insertion-order FIFO, spares (once) every entry
    /// hit since the scan last passed it, and among the rest removes the
    /// one with the largest footprint — negative-cached errors carry their
    /// message bytes, so they go before same-aged fixed-size plans. Equal
    /// footprints tie-break toward the smallest key. Hot profiles therefore
    /// stay resident under skewed request streams. The choice depends only
    /// on the keys, the stripe's hit/insert sequence and the entries'
    /// contents, never on a map's per-process hash seed, so single-threaded
    /// workloads replay their eviction sequence exactly; the `evictions`
    /// counter records each removal. Note that under eviction the hit/miss
    /// counts of a *concurrent* workload are no longer
    /// scheduling-independent — production replays should size the capacity
    /// above the distinct profile count (or leave it unbounded, the
    /// default).
    #[must_use]
    pub fn with_capacity_limit(mut self, capacity: usize) -> Self {
        let per_stripe = capacity.div_ceil(self.stripes.len()).max(1);
        self.stripe_capacity = Some(per_stripe);
        self
    }

    /// Wraps the cache for sharing across planners and worker threads.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(PlanCache::new())
    }

    fn stripe_of(&self, key: &ProfileKey) -> &Mutex<Stripe> {
        // The high word of fold × stripes: the fold's well-mixed high bits.
        // The maps keep a per-process random state (module docs), which is
        // why eviction scans the insertion-order FIFO, never the map.
        let mut fold = StripeFold(0);
        key.hash(&mut fold);
        let index = (u128::from(fold.finish()) * self.stripes.len() as u128) >> 64;
        &self.stripes[index as usize]
    }

    /// Returns the memoized result for `key`, solving it with `compute` on
    /// the first request. Concurrent requests for the same key block on the
    /// in-flight solve instead of re-solving (see the module docs).
    pub fn get_or_compute<F>(&self, key: ProfileKey, compute: F) -> PlanResult
    where
        F: FnOnce() -> PlanResult,
    {
        let slot = {
            // Invariant: no code panics while holding a stripe lock (solves run outside it).
            #[allow(clippy::expect_used)]
            let mut stripe = self
                .stripe_of(&key)
                .lock()
                .expect("plan cache stripe poisoned");
            if let Some(resident) = stripe.map.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Second-chance bookkeeping: a hit marks the entry so the
                // next eviction scan spares it once.
                resident.referenced = true;
                // A solved entry is copied out under the lock; only an
                // in-flight one needs its slot, to wait outside the lock.
                if let Some(result) = resident.slot.get() {
                    return result.clone();
                }
                Arc::clone(&resident.slot)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(capacity) = self.stripe_capacity {
                    while stripe.map.len() >= capacity {
                        stripe.evict_one();
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let slot: Slot = Arc::new(OnceLock::new());
                stripe.map.insert(
                    key,
                    Resident {
                        slot: Arc::clone(&slot),
                        referenced: false,
                    },
                );
                stripe.order.push_back(key);
                slot
            }
        };
        slot.get_or_init(compute).clone()
    }

    /// The already-memoized result for `key`, if any (never solves; an
    /// in-flight entry reads as absent). Does not touch the hit/miss
    /// counters **or the entry's eviction recency** — this is an
    /// inspection API, not a lookup.
    #[must_use]
    pub fn peek(&self, key: &ProfileKey) -> Option<PlanResult> {
        // Invariant: no code panics while holding a stripe lock (solves run outside it).
        #[allow(clippy::expect_used)]
        let stripe = self
            .stripe_of(key)
            .lock()
            .expect("plan cache stripe poisoned");
        stripe
            .map
            .get(key)
            .and_then(|resident| resident.slot.get().cloned())
    }

    /// Number of resident entries (including in-flight ones).
    #[must_use]
    // Invariant: no code panics while holding a stripe lock (solves run outside it).
    #[allow(clippy::expect_used)]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| stripe.lock().expect("plan cache stripe poisoned").map.len())
            .sum()
    }

    /// True when no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry. Counters are preserved — they are lifetime
    /// totals, which keeps every previously taken [`CacheStats`] snapshot
    /// a valid `earlier` argument to [`CacheStats::since`] even across a
    /// clear (resetting them here would make such deltas silently
    /// saturate to zero).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            // Invariant: no code panics while holding a stripe lock (solves run outside it).
            #[allow(clippy::expect_used)]
            let mut stripe = stripe.lock().expect("plan cache stripe poisoned");
            stripe.map.clear();
            stripe.order.clear();
        }
    }

    /// Snapshot of the counters and the resident entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Plan;
    use chronos_core::{JobProfile, OptimizerConfig, StrategyParams, UtilityModel};
    use chronos_core::{OptimizationOutcome, StrategyKind};

    fn key(deadline: f64) -> ProfileKey {
        let job = JobProfile::builder().deadline(deadline).build().unwrap();
        ProfileKey::new(
            &job,
            &StrategyParams::clone_strategy(40.0),
            &UtilityModel::default(),
            &OptimizerConfig::default(),
        )
    }

    fn plan(r: u32) -> PlanResult {
        Ok(Plan {
            outcome: OptimizationOutcome {
                strategy: StrategyKind::Clone,
                r,
                utility: -0.1,
                pocd: 0.9,
                machine_time: 100.0,
                dollar_cost: 100.0,
            },
            baseline_pocd: 0.5,
            baseline_machine_time: 80.0,
            baseline_dollar_cost: 80.0,
        })
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = PlanCache::new();
        let mut solves = 0;
        for _ in 0..3 {
            let result = cache.get_or_compute(key(100.0), || {
                solves += 1;
                plan(2)
            });
            assert_eq!(result.unwrap().outcome.r, 2);
        }
        assert_eq!(solves, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_share_entries() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(120.0), || plan(7)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&key(120.0)).unwrap().unwrap().outcome.r, 7);
        assert_eq!(cache.peek(&key(100.0)).unwrap().unwrap().outcome.r, 1);
        assert!(cache.peek(&key(140.0)).is_none());
    }

    #[test]
    fn errors_are_negative_cached() {
        let cache = PlanCache::new();
        let mut solves = 0;
        for _ in 0..2 {
            let result = cache.get_or_compute(key(100.0), || {
                solves += 1;
                Err(chronos_core::ChronosError::infeasible("hopeless"))
            });
            assert!(result.is_err());
        }
        assert_eq!(solves, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn capacity_limit_evicts_fifo_when_nothing_is_rehit() {
        // One stripe so the capacity applies to a single map. With no
        // re-hits and equal footprints (all successful solves), the
        // smallest-key tie-break is the whole policy; these keys ascend
        // with insertion, so eviction runs oldest-first —
        // deterministically, never an artifact of the map's per-process
        // iteration order.
        let cache = PlanCache::with_stripes(1).with_capacity_limit(2);
        for (index, deadline) in [100.0, 110.0, 120.0, 130.0].iter().enumerate() {
            cache
                .get_or_compute(key(*deadline), || plan(index as u32))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
        // The two oldest insertions were evicted; the two newest survive.
        assert!(cache.peek(&key(100.0)).is_none());
        assert!(cache.peek(&key(110.0)).is_none());
        assert!(cache.peek(&key(120.0)).is_some());
        assert!(cache.peek(&key(130.0)).is_some());
    }

    #[test]
    fn eviction_spares_recently_hit_entries() {
        // Regression: the old policy evicted the smallest resident *key* —
        // an arbitrary victim that thrashed on skewed streams, evicting the
        // hot profile (smallest key 100) here. Second chance must spare the
        // entry that was hit and evict the cold one instead.
        let cache = PlanCache::with_stripes(1).with_capacity_limit(2);
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(110.0), || plan(2)).unwrap();
        // Re-hit the oldest (and smallest-keyed) entry: it is now hot.
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        // The insert that forces an eviction must victimize the cold 110.
        cache.get_or_compute(key(120.0), || plan(3)).unwrap();
        assert!(cache.peek(&key(100.0)).is_some(), "hot entry was evicted");
        assert!(cache.peek(&key(110.0)).is_none());
        assert!(cache.peek(&key(120.0)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn eviction_grants_each_entry_one_second_chance_per_scan() {
        // Every resident is hot: the scan clears each reference bit once,
        // laps, and then evicts in FIFO order — it must terminate and pick
        // the oldest insertion.
        let cache = PlanCache::with_stripes(1).with_capacity_limit(2);
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(110.0), || plan(2)).unwrap();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(110.0), || plan(2)).unwrap();
        cache.get_or_compute(key(120.0), || plan(3)).unwrap();
        assert!(cache.peek(&key(100.0)).is_none(), "oldest should go first");
        assert!(cache.peek(&key(110.0)).is_some());
        assert!(cache.peek(&key(120.0)).is_some());
        assert_eq!(cache.stats().evictions, 1);

        // The lap consumed 110's second chance; an untouched follow-up
        // insert evicts it without another grace round.
        cache.get_or_compute(key(130.0), || plan(4)).unwrap();
        assert!(cache.peek(&key(110.0)).is_none());
        assert!(cache.peek(&key(120.0)).is_some());
        assert!(cache.peek(&key(130.0)).is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn peek_does_not_refresh_eviction_recency() {
        // peek is an inspection API: it must not mark an entry referenced,
        // or observability would perturb the eviction sequence.
        let cache = PlanCache::with_stripes(1).with_capacity_limit(2);
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(110.0), || plan(2)).unwrap();
        assert!(cache.peek(&key(100.0)).is_some());
        cache.get_or_compute(key(120.0), || plan(3)).unwrap();
        // Despite the peek, 100 (oldest, never re-hit) was the victim.
        assert!(cache.peek(&key(100.0)).is_none());
        assert!(cache.peek(&key(110.0)).is_some());
    }

    #[test]
    fn eviction_weighs_entry_footprint_under_pressure() {
        // Regression against the unweighted clock policy: the scan reaches
        // the unreferenced small `Ok` entry first (oldest insertion) and
        // would evict it. The size-aware policy must instead victimize the
        // negative-cached error, whose message bytes make it the heaviest
        // cold entry — even though it is newer.
        let cache = PlanCache::with_stripes(1).with_capacity_limit(2);
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let heavy = cache.get_or_compute(key(110.0), || {
            Err(chronos_core::ChronosError::infeasible(
                "a deliberately long infeasibility explanation whose message bytes \
                 dominate the fixed per-entry footprint of a successful plan",
            ))
        });
        assert!(heavy.is_err());
        cache.get_or_compute(key(120.0), || plan(3)).unwrap();
        assert!(
            cache.peek(&key(100.0)).is_some(),
            "the small old entry must survive under size-aware eviction"
        );
        assert!(
            cache.peek(&key(110.0)).is_none(),
            "the heavy negative-cached error must be the victim"
        );
        assert!(cache.peek(&key(120.0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stripes_and_eviction_depend_only_on_the_keys() {
        // Every map draws its own random hasher state, yet two bounded
        // caches fed one stream (every third request re-hits one of 20 hot
        // profiles) must evict the same entries: the stripe and the victim
        // are functions of the keys and the request order alone.
        let stream = (0..500u32).map(|step| match step % 3 {
            0 => 100.0 + f64::from(step / 3 % 20),
            _ => 200.0 + f64::from(step),
        });
        let caches = [0, 1].map(|_| PlanCache::new().with_capacity_limit(64));
        for deadline in stream.clone() {
            for cache in &caches {
                cache.get_or_compute(key(deadline), || plan(1)).unwrap();
            }
        }
        let stats = caches[0].stats();
        assert!(stats.evictions > 0 && stats.hits > 0, "{stats}");
        assert_eq!(stats, caches[1].stats());
        for deadline in stream {
            let resident = caches.each_ref().map(|cache| cache.peek(&key(deadline)));
            assert_eq!(resident[0], resident[1], "deadline {deadline}");
        }

        // The fold spreads 1,024 distinct keys over all 16 stripes, none
        // holding more than twice the mean.
        let cache = PlanCache::new();
        for id in 0..1_024u32 {
            let _ = cache.get_or_compute(key(100.0 + f64::from(id)), || plan(1));
        }
        let loads = cache.stripes.iter().map(|s| s.lock().unwrap().map.len());
        let loads: Vec<usize> = loads.collect();
        assert!(loads.iter().all(|n| (1..=128).contains(n)), "{loads:?}");
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
        // A re-request is a fresh miss.
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_delta_and_display() {
        let cache = PlanCache::new();
        let before = cache.stats();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (1, 1, 1));
        let text = delta.to_string();
        assert!(text.contains("1 hits"), "{text}");
        assert!(text.contains("50.00% hit rate"), "{text}");
    }

    #[test]
    fn snapshots_taken_before_clear_stay_valid_for_since() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let before = cache.stats();
        assert_eq!((before.hits, before.misses, before.entries), (1, 1, 1));

        // clear() drops the entries but preserves the counters, so the
        // pre-clear snapshot still subtracts correctly afterwards.
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_compute(key(100.0), || plan(2)).unwrap(); // re-solved: miss
        cache.get_or_compute(key(120.0), || plan(3)).unwrap(); // new key: miss
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (0, 2, 2));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "componentwise")]
    fn since_rejects_a_backwards_snapshot_in_debug() {
        let cache = PlanCache::new();
        cache.get_or_compute(key(100.0), || plan(1)).unwrap();
        let later = cache.stats();
        // Swapped arguments: `earlier` has more misses than `self`.
        let _ = CacheStats::default().since(&later);
    }

    #[test]
    fn concurrent_same_key_solves_once() {
        let cache = Arc::new(PlanCache::new());
        let solves = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let result = cache.get_or_compute(key(100.0), || {
                        solves.fetch_add(1, Ordering::Relaxed);
                        plan(3)
                    });
                    assert_eq!(result.unwrap().outcome.r, 3);
                });
            }
        });
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }
}
