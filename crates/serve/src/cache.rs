//! The server's profile cache: one content-fingerprint-keyed LRU.
//!
//! Two lookups hit the same cache:
//!
//! * **By content fingerprint** — a `Synthesize`/`Stats` request names a
//!   profile by the fingerprint a `FitResult` reported.
//! * **By fit key** — a repeat `FitProfile` upload (same trace bytes,
//!   same config) maps through an alias to the profile it produced last
//!   time, so refitting is skipped entirely. This is sound because
//!   fitting is deterministic: equal inputs produce bit-identical
//!   profiles at any thread count.
//!
//! A resident profile is immutable and content-addressed, so it never
//! goes stale: entries leave only by least-recently-*used* eviction
//! under the capacity bound, and a fit-key alias leaves with its entry.
//! Every resident profile has passed `Profile::validate` once, on its
//! way in. A profile is held in the layout synthesis reads, so every
//! stream of it shares it through `Profile::synth_plan`.
//! The server keeps one cache behind one mutex; every operation is a
//! few ordered-map updates, far shorter than the fit or chunk encode
//! around it.

use std::collections::BTreeMap;
use std::sync::Arc;

use mocktails_core::Profile;

/// One resident profile.
#[derive(Debug)]
struct Entry {
    profile: Arc<Profile>,
    /// Recency stamp; key into the recency index.
    last_tick: u64,
    /// The fit key aliased to this profile, if it arrived via a fit.
    fit_key: Option<u64>,
}

/// A bounded LRU cache of fitted profiles.
#[derive(Debug)]
pub struct ProfileCache {
    capacity: usize,
    entries: BTreeMap<u64, Entry>,
    /// tick → fingerprint, ordered oldest-first for LRU eviction.
    recency: BTreeMap<u64, u64>,
    /// fit key → fingerprint.
    aliases: BTreeMap<u64, u64>,
    tick: u64,
    evictions: u64,
}

impl ProfileCache {
    /// A cache holding at most `capacity` profiles.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            aliases: BTreeMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Profiles currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Profiles evicted by capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a profile by content fingerprint, refreshing its recency.
    pub fn get(&mut self, fingerprint: u64) -> Option<Arc<Profile>> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(&fingerprint)?;
        self.recency.remove(&entry.last_tick);
        entry.last_tick = tick;
        self.recency.insert(tick, fingerprint);
        Some(Arc::clone(&entry.profile))
    }

    /// Looks up a profile by fit key (trace bytes + config digest),
    /// returning its content fingerprint alongside it.
    pub fn get_by_fit_key(&mut self, fit_key: u64) -> Option<(u64, Arc<Profile>)> {
        let fingerprint = *self.aliases.get(&fit_key)?;
        let profile = self.get(fingerprint)?;
        Some((fingerprint, profile))
    }

    /// Inserts a profile under its content fingerprint, optionally
    /// aliasing `fit_key` to it, evicting the least recently used entry
    /// if the cache is full, and returns the resident profile.
    /// Re-inserting an existing fingerprint refreshes its recency and
    /// alias and keeps the resident profile: equal fingerprints are equal
    /// profiles. The caller validates a profile before inserting it.
    pub fn insert(
        &mut self,
        fingerprint: u64,
        profile: Arc<Profile>,
        fit_key: Option<u64>,
    ) -> Arc<Profile> {
        let resident = self.entries.get(&fingerprint);
        // A re-insert without a fit key (e.g. the same profile arriving
        // inline) must not sever an existing fit-key alias.
        let fit_key = fit_key.or_else(|| resident.and_then(|entry| entry.fit_key));
        let profile = resident.map_or(profile, |entry| Arc::clone(&entry.profile));
        if self.capacity == 0 {
            return profile;
        }
        self.remove(fingerprint);
        while self.entries.len() >= self.capacity {
            // Oldest tick = least recently used.
            let Some((&tick, &victim)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&tick);
            self.drop_entry(victim);
            self.evictions += 1;
        }
        let tick = self.next_tick();
        if let Some(key) = fit_key {
            self.aliases.insert(key, fingerprint);
        }
        self.recency.insert(tick, fingerprint);
        self.entries.insert(
            fingerprint,
            Entry {
                profile: Arc::clone(&profile),
                last_tick: tick,
                fit_key,
            },
        );
        profile
    }

    /// Removes `fingerprint` if resident (not counted as an eviction).
    pub fn remove(&mut self, fingerprint: u64) {
        if let Some(entry) = self.entries.get(&fingerprint) {
            self.recency.remove(&entry.last_tick);
            self.drop_entry(fingerprint);
        }
    }

    fn drop_entry(&mut self, fingerprint: u64) {
        if let Some(entry) = self.entries.remove(&fingerprint) {
            if let Some(key) = entry.fit_key {
                // Only clear the alias if it still points here.
                if self.aliases.get(&key) == Some(&fingerprint) {
                    self.aliases.remove(&key);
                }
            }
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use mocktails_core::HierarchyConfig;
    use mocktails_trace::{Request, Trace};

    fn profile(n: u64) -> Arc<Profile> {
        let trace = Trace::from_requests(
            (0..50u64)
                .map(|i| Request::read(i * 3 + n, 0x1000 + (i % 8) * 64, 64))
                .collect(),
        );
        Arc::new(Profile::fit(&trace, &HierarchyConfig::two_level_ts(100)))
    }

    #[test]
    fn get_returns_inserted_profile() {
        let mut cache = ProfileCache::new(4);
        let p = profile(1);
        cache.insert(11, Arc::clone(&p), None);
        assert_eq!(cache.get(11), Some(Arc::clone(&p)));
        assert!(cache.get(99).is_none());
    }

    /// Every lookup, and a re-insert of the same fingerprint, shares the
    /// resident profile and so its synthesis plan.
    #[test]
    fn a_resident_profile_shares_one_plan() {
        let mut cache = ProfileCache::new(4);
        let p = profile(1);
        let inserted = cache.insert(11, Arc::clone(&p), None);
        let plan = cache.get(11).unwrap().synth_plan();
        assert!(Arc::ptr_eq(&plan, &inserted.synth_plan()));
        let copy = Arc::new(Profile::clone(&p));
        let reinserted = cache.insert(11, copy, Some(5));
        assert!(Arc::ptr_eq(&plan, &reinserted.synth_plan()));
        let (_, by_key) = cache.get_by_fit_key(5).unwrap();
        assert!(Arc::ptr_eq(&plan, &by_key.synth_plan()));
        assert_eq!(plan.total_requests(), p.total_requests());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ProfileCache::new(2);
        cache.insert(1, profile(1), None);
        cache.insert(2, profile(2), None);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, profile(3), None);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "2 was LRU and must be gone");
        assert!(cache.get(3).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    /// The capacity bound is the whole cache's: fingerprints that an
    /// eight-way split by `fingerprint % 8` would put in one slot all
    /// stay resident, and only the fifth insert evicts, taking exactly
    /// the least recently used entry.
    #[test]
    fn capacity_is_honoured_exactly_whatever_the_fingerprints() {
        let mut cache = ProfileCache::new(4);
        for fp in [0u64, 8, 16, 24] {
            cache.insert(fp, profile(fp), Some(fp + 1000));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 0);
        for fp in [0u64, 8, 16, 24] {
            assert!(cache.get(fp).is_some(), "{fp} must be resident");
        }
        // Refresh 0, so 8 is now the least recently used.
        assert!(cache.get(0).is_some());
        cache.insert(32, profile(32), Some(1032));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(8).is_none(), "8 was LRU and must be gone");
        assert!(cache.get_by_fit_key(1008).is_none(), "its alias went too");
        for fp in [0u64, 16, 24, 32] {
            assert!(cache.get(fp).is_some(), "{fp} must survive");
            assert_eq!(cache.get_by_fit_key(fp + 1000).map(|(f, _)| f), Some(fp));
        }
    }

    #[test]
    fn fit_key_alias_finds_profile_and_dies_with_it() {
        let mut cache = ProfileCache::new(1);
        cache.insert(10, profile(1), Some(777));
        let (fp, _) = cache.get_by_fit_key(777).unwrap();
        assert_eq!(fp, 10);
        // Evict by inserting another profile into the 1-slot cache.
        cache.insert(20, profile(2), Some(888));
        assert!(cache.get_by_fit_key(777).is_none());
        assert!(cache.get_by_fit_key(888).is_some());
    }

    #[test]
    fn reinsert_without_a_fit_key_keeps_the_alias() {
        let mut cache = ProfileCache::new(4);
        let p = profile(1);
        cache.insert(6, Arc::clone(&p), Some(9));
        // The same profile arriving inline carries no fit key.
        cache.insert(6, Arc::clone(&p), None);
        let (fp, found) = cache.get_by_fit_key(9).unwrap();
        assert_eq!(fp, 6);
        assert_eq!(found, p);
        assert!(cache.get_by_fit_key(10).is_none());
        assert_eq!(cache.len(), 1);
    }

    /// A hit refreshes recency, which redirects the next capacity
    /// eviction to the other resident; the victim's alias dies with it
    /// while the survivors' aliases still resolve.
    #[test]
    fn get_refreshes_recency_and_redirects_the_eviction() {
        let mut cache = ProfileCache::new(2);
        cache.insert(10, profile(1), Some(100));
        cache.insert(20, profile(2), Some(200));
        assert!(cache.get(10).is_some());
        cache.insert(30, profile(3), Some(300));
        assert!(cache.get(10).is_some());
        assert!(cache.get(30).is_some());
        assert!(cache.get(20).is_none());
        assert!(cache.get_by_fit_key(200).is_none());
        assert!(cache.get_by_fit_key(100).is_some());
        assert!(cache.get_by_fit_key(300).is_some());
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = ProfileCache::new(0);
        cache.insert(1, profile(1), Some(2));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        assert!(cache.get_by_fit_key(2).is_none());
    }

    #[test]
    fn remove_is_not_an_eviction() {
        let mut cache = ProfileCache::new(4);
        cache.insert(1, profile(1), Some(5));
        cache.remove(1);
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get_by_fit_key(5).is_none());
    }

    #[test]
    fn tallies_are_deterministic_at_any_thread_count() {
        // The same disjoint inserts split over 1, 2 and 8 threads sharing
        // one locked cache leave identical tallies: which entries remain
        // depends on the interleaving, how many were evicted does not.
        let profiles: Vec<_> = (0..64u64).map(profile).collect();
        let run = |threads: usize| {
            let cache = Mutex::new(ProfileCache::new(16));
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (cache, profiles) = (&cache, &profiles);
                    scope.spawn(move || {
                        for key in (t as u64..64).step_by(threads) {
                            let mut cache = cache.lock().unwrap();
                            cache.insert(
                                key,
                                Arc::clone(&profiles[key as usize]),
                                Some(key + 1000),
                            );
                            assert!(cache.get(key).is_some());
                            assert!(cache.get_by_fit_key(key + 1000).is_some());
                        }
                    });
                }
            });
            let cache = cache.into_inner().unwrap();
            (cache.len(), cache.evictions())
        };
        let baseline = run(1);
        assert_eq!(baseline, (16, 48));
        assert_eq!(run(2), baseline);
        assert_eq!(run(8), baseline);
    }
}
