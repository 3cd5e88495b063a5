//! A two-level write-back cache hierarchy.

use mocktails_trace::{Op, Trace};

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Statistics of a two-level hierarchy run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
}

/// An L1 + L2 write-back hierarchy simulated in atomic mode.
///
/// L1 misses fetch through the L2; dirty L1 victims write back into the
/// L2 (marking the L2 line dirty). This matches the §V methodology: a
/// write-back L1 of varying size/associativity over a 256 KiB 8-way L2
/// with 64 B blocks and LRU replacement.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the two levels have different block sizes (mixed-block
    /// hierarchies are out of scope, as in the paper).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert_eq!(
            l1.block_bytes, l2.block_bytes,
            "levels must share a block size"
        );
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }

    /// The paper's §V baseline: a configurable L1 over a 256 KiB 8-way L2,
    /// 64 B blocks.
    pub fn paper_config(l1_bytes: u64, l1_ways: usize) -> Self {
        Self::new(
            CacheConfig::new(l1_bytes, l1_ways, 64),
            CacheConfig::new(256 << 10, 8, 64),
        )
    }

    /// Performs one request's worth of accesses (each touched block is
    /// accessed in order).
    pub fn access(&mut self, addr: u64, size: u32, op: Op) {
        for block in self.l1.blocks_of(addr, size) {
            let outcome = self.l1.access(block, op);
            if !outcome.hit {
                // Fill path: the L2 sees a read for the missing block.
                self.l2.access(block, Op::Read);
            }
            if let Some((victim, dirty)) = outcome.evicted {
                if dirty {
                    // Write-back into the L2.
                    self.l2.access(victim, Op::Write);
                }
            }
        }
    }

    /// Replays a trace in order (timestamps ignored — atomic mode) and
    /// returns both levels' statistics.
    pub fn run_trace(&mut self, trace: &Trace) -> HierarchyStats {
        for r in trace.iter() {
            self.access(r.address, r.size, r.op);
        }
        self.stats()
    }

    /// Current statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::Request;

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = CacheHierarchy::paper_config(32 << 10, 4);
        // A small loop: first pass misses, later passes hit in L1.
        let mut reqs = Vec::new();
        for round in 0..10u64 {
            for i in 0..64u64 {
                reqs.push(Request::read(round * 64 + i, i * 64, 8));
            }
        }
        let stats = h.run_trace(&Trace::from_requests(reqs));
        assert_eq!(stats.l1.accesses, 640);
        assert_eq!(stats.l1.misses, 64, "only the cold pass misses");
        assert_eq!(stats.l2.accesses, 64);
    }

    #[test]
    fn dirty_l1_victims_write_back_to_l2() {
        // L1 of 512 B (8 blocks, 2-way), L2 large.
        let mut h = CacheHierarchy::new(
            CacheConfig::new(512, 2, 64),
            CacheConfig::new(64 << 10, 8, 64),
        );
        // Write 32 distinct blocks: 24 dirty evictions from L1.
        for i in 0..32u64 {
            h.access(i * 64, 8, Op::Write);
        }
        let stats = h.stats();
        assert_eq!(stats.l1.write_backs, 24);
        // The L2 absorbed 32 fills + 24 write-backs.
        assert_eq!(stats.l2.accesses, 32 + 24);
    }

    #[test]
    fn requests_spanning_blocks_touch_both() {
        let mut h = CacheHierarchy::paper_config(16 << 10, 2);
        h.access(0x3c, 16, Op::Read); // spans blocks 0 and 64
        let stats = h.stats();
        assert_eq!(stats.l1.accesses, 2);
        assert_eq!(stats.l1.misses, 2);
    }

    #[test]
    fn atomic_mode_ignores_timestamps() {
        let a = Trace::from_requests(vec![Request::read(0, 0, 8), Request::read(1, 64, 8)]);
        let b = Trace::from_requests(vec![
            Request::read(1_000_000, 0, 8),
            Request::read(2_000_000, 64, 8),
        ]);
        let sa = CacheHierarchy::paper_config(16 << 10, 2).run_trace(&a);
        let sb = CacheHierarchy::paper_config(16 << 10, 2).run_trace(&b);
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "share a block size")]
    fn mismatched_block_sizes_rejected() {
        let _ = CacheHierarchy::new(
            CacheConfig::new(512, 2, 32),
            CacheConfig::new(64 << 10, 8, 64),
        );
    }

    #[test]
    fn bigger_l1_misses_less() {
        let zipfish: Vec<Request> = (0..20_000u64)
            .map(|i| {
                // A working set of 1024 blocks with a hot head.
                let block = if i % 4 != 0 {
                    i % 64
                } else {
                    (i * 7919) % 1024
                };
                Request::read(i, block * 64, 8)
            })
            .collect();
        let trace = Trace::from_requests(zipfish);
        let small = CacheHierarchy::paper_config(16 << 10, 2).run_trace(&trace);
        let large = CacheHierarchy::paper_config(64 << 10, 2).run_trace(&trace);
        assert!(large.l1.miss_rate() < small.l1.miss_rate());
    }
}
