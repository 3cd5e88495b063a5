//! A single set-associative cache level.

use std::collections::HashSet;

use mocktails_trace::Op;

/// Replacement policy of one cache level.
///
/// The paper's §V methodology uses LRU; §VI names replacement-policy
/// research as a Mocktails use case, which the other variants support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict the least-recently-used line (paper default).
    #[default]
    Lru,
    /// Evict the oldest-inserted line.
    Fifo,
    /// Evict a pseudo-random line (deterministic xorshift).
    Random,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Replacement policy (LRU unless overridden).
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `block_bytes` and `ways` are non-zero, the capacity is
    /// a multiple of `ways * block_bytes`, and the resulting set count is a
    /// power of two (required for bit-sliced indexing).
    pub fn new(size_bytes: u64, ways: usize, block_bytes: u64) -> Self {
        assert!(block_bytes > 0 && ways > 0, "degenerate cache geometry");
        assert!(
            size_bytes.is_multiple_of(ways as u64 * block_bytes),
            "capacity must divide evenly into sets"
        );
        let sets = size_bytes / (ways as u64 * block_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            size_bytes,
            ways,
            block_bytes,
            replacement: Replacement::Lru,
        }
    }

    /// Returns the same geometry with a different replacement policy
    /// (builder-style).
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.block_bytes)
    }
}

/// The result of a single block access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// Block address of a line evicted to make room, with its dirty bit,
    /// if the access caused a replacement.
    pub evicted: Option<(u64, bool)>,
}

/// Counters for one cache level (the §V metrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total block accesses.
    pub accesses: u64,
    /// Block hits.
    pub hits: u64,
    /// Block misses.
    pub misses: u64,
    /// Valid lines evicted to make room (replacements).
    pub replacements: u64,
    /// Dirty lines written back on eviction.
    pub write_backs: u64,
    /// Distinct blocks touched × block size (the cache footprint).
    pub footprint_bytes: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]` (0 when no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    last_use: u64,
    /// Monotonic insertion stamp for FIFO.
    inserted: u64,
}

/// One set-associative, write-back, write-allocate cache level with LRU
/// replacement, simulated in atomic mode (order only).
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    touched: HashSet<u64>,
    stats: CacheStats,
    /// xorshift64 state for [`Replacement::Random`].
    rng_state: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets() as usize],
            clock: 0,
            touched: HashSet::new(),
            stats: CacheStats::default(),
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats.clone();
        s.footprint_bytes = self.touched.len() as u64 * self.cfg.block_bytes;
        s
    }

    /// Accesses the block containing `addr`. Writes mark the line dirty
    /// (write-allocate on miss). Returns the hit/eviction outcome so a
    /// hierarchy can propagate fills and write-backs.
    pub fn access(&mut self, addr: u64, op: Op) -> AccessOutcome {
        let block = addr / self.cfg.block_bytes;
        let set_idx = (block % self.cfg.sets()) as usize;
        let tag = block / self.cfg.sets();
        self.clock += 1;
        self.stats.accesses += 1;
        self.touched.insert(block);

        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_use = self.clock;
            if op.is_write() {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.stats.misses += 1;
        let mut evicted = None;
        if set.len() >= self.cfg.ways {
            let victim_idx = match self.cfg.replacement {
                Replacement::Lru => {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.last_use)
                        .expect("set non-empty") // lint: allow(L001, associativity is at least 1 so a set is never empty)
                        .0
                }
                Replacement::Fifo => {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.inserted)
                        .expect("set non-empty") // lint: allow(L001, associativity is at least 1 so a set is never empty)
                        .0
                }
                Replacement::Random => {
                    // xorshift64: deterministic, dependency-free.
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    (self.rng_state % set.len() as u64) as usize
                }
            };
            let victim = set.swap_remove(victim_idx);
            self.stats.replacements += 1;
            if victim.dirty {
                self.stats.write_backs += 1;
            }
            let victim_block = victim.tag * self.cfg.sets() + set_idx as u64;
            evicted = Some((victim_block * self.cfg.block_bytes, victim.dirty));
        }
        set.push(Line {
            tag,
            dirty: op.is_write(),
            last_use: self.clock,
            inserted: self.clock,
        });
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// The block addresses an `(addr, size)` request touches. A span
    /// running past the top of the address space ends at `u64::MAX`. The
    /// iterator does not borrow the cache, so it can drive accesses.
    pub fn blocks_of(&self, addr: u64, size: u32) -> impl Iterator<Item = u64> {
        let block_bytes = self.cfg.block_bytes;
        let first = addr / block_bytes;
        let last = addr.saturating_add(u64::from(size.max(1)) - 1) / block_bytes;
        (first..=last).map(move |b| b * block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(32 << 10, 4, 64);
        assert_eq!(c.sets(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3 * 64 * 2, 2, 64);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_capacity_rejected() {
        let _ = CacheConfig::new(1000, 2, 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, Op::Read).hit);
        assert!(c.access(0x100, Op::Read).hit);
        assert!(c.access(0x13f, Op::Read).hit, "same block");
        assert!(!c.access(0x140, Op::Read).hit, "next block");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(); // 2 ways
                            // Three blocks mapping to set 0: block addresses 0, 256, 512.
        c.access(0, Op::Read);
        c.access(256, Op::Read);
        c.access(0, Op::Read); // refresh block 0
        let out = c.access(512, Op::Read); // evicts 256 (LRU)
        assert_eq!(out.evicted, Some((256, false)));
        assert!(c.access(0, Op::Read).hit, "block 0 retained");
        assert!(!c.access(256, Op::Read).hit, "block 256 evicted");
    }

    #[test]
    fn write_back_on_dirty_eviction_only() {
        let mut c = tiny();
        c.access(0, Op::Write); // dirty
        c.access(256, Op::Read); // clean
        c.access(512, Op::Read); // evicts 0 (dirty)
        c.access(768, Op::Read); // evicts 256 (clean)
        let s = c.stats();
        assert_eq!(s.replacements, 2);
        assert_eq!(s.write_backs, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, Op::Read);
        c.access(0, Op::Write); // hit, now dirty
        c.access(256, Op::Read);
        c.access(512, Op::Read); // evicts 0
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn stats_conservation() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.access(i * 64, Op::Read);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.accesses, 100);
    }

    #[test]
    fn footprint_counts_distinct_blocks() {
        let mut c = tiny();
        c.access(0, Op::Read);
        c.access(32, Op::Read); // same block
        c.access(64, Op::Read);
        assert_eq!(c.stats().footprint_bytes, 2 * 64);
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, Op::Read);
        assert_eq!(c.stats().miss_rate(), 1.0);
        c.access(0, Op::Read);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    fn blocks_of_spanning_request() {
        let c = tiny();
        let blocks: Vec<u64> = c.blocks_of(0x3c, 16).collect();
        assert_eq!(blocks, vec![0, 64]);
        let blocks: Vec<u64> = c.blocks_of(0x40, 64).collect();
        assert_eq!(blocks, vec![0x40]);
        // A span past the top of the address space ends at `u64::MAX`
        // instead of wrapping to an empty range.
        let blocks: Vec<u64> = c.blocks_of(u64::MAX - 15, 64).collect();
        assert_eq!(blocks, vec![u64::MAX - 63]);
    }

    #[test]
    fn fifo_ignores_recency() {
        let cfg = CacheConfig::new(512, 2, 64).with_replacement(Replacement::Fifo);
        let mut c = Cache::new(cfg);
        c.access(0, Op::Read);
        c.access(256, Op::Read);
        c.access(0, Op::Read); // refresh block 0: irrelevant under FIFO
        let out = c.access(512, Op::Read); // evicts 0 (oldest insert)
        assert_eq!(out.evicted, Some((0, false)));
        assert!(c.access(256, Op::Read).hit);
    }

    #[test]
    fn random_replacement_is_deterministic_and_legal() {
        let mk = || {
            let cfg = CacheConfig::new(512, 2, 64).with_replacement(Replacement::Random);
            let mut c = Cache::new(cfg);
            let mut log = Vec::new();
            for i in 0..50u64 {
                let out = c.access((i % 5) * 256, Op::Read);
                log.push((out.hit, out.evicted));
            }
            (log, c.stats())
        };
        let (log_a, stats_a) = mk();
        let (log_b, stats_b) = mk();
        assert_eq!(log_a, log_b, "xorshift replacement must be deterministic");
        assert_eq!(stats_a.hits + stats_a.misses, stats_a.accesses);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn random_differs_from_lru_under_cyclic_thrash() {
        // A cyclic scan of ways+1 conflicting blocks: LRU misses always,
        // random keeps some.
        let run = |replacement: Replacement| {
            let cfg = CacheConfig::new(512, 2, 64).with_replacement(replacement);
            let mut c = Cache::new(cfg);
            for round in 0..40u64 {
                let _ = round;
                for b in 0..3u64 {
                    c.access(b * 256, Op::Read);
                }
            }
            c.stats().miss_rate()
        };
        let lru = run(Replacement::Lru);
        let random = run(Replacement::Random);
        assert!(lru > 0.99, "LRU thrash expected, got {lru}");
        assert!(random < lru, "random {random} should beat LRU {lru}");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 512 B total
                            // Cyclic scan of 1 KiB: misses every time under LRU.
        for round in 0..4 {
            for i in 0..16u64 {
                let out = c.access(i * 64, Op::Read);
                if round > 0 {
                    assert!(!out.hit, "cyclic over-capacity scan must thrash");
                }
            }
        }
    }
}
