//! The full memory system: crossbar + per-channel controllers, with replay
//! (Option A) and coupled-synthesizer (Option B) front-ends.

use mocktails_core::Synthesizer;
use mocktails_trace::{Request, Trace};

use crate::channel::{Channel, Packet};
use crate::config::DramConfig;
use crate::stats::DramStats;

/// A multi-channel memory system behind a crossbar.
///
/// Requests are split into DRAM bursts, routed by the address mapping and
/// queued at their channel. Full queues exert backpressure: in trace replay
/// the injector simply stalls; when driven by a [`Synthesizer`] the stall
/// is reported through [`Synthesizer::add_delay`] so pending synthetic
/// requests shift in time, exactly as §III-C describes.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stall_cycles: u64,
    /// Per-port link occupancy: when each device's link frees up.
    link_free_at: Vec<u64>,
}

impl MemorySystem {
    /// Creates a memory system with the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels).map(|_| Channel::new(cfg)).collect();
        Self {
            cfg,
            channels,
            stall_cycles: 0,
            link_free_at: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Injects one request from `port`; returns the backpressure stall in
    /// cycles.
    fn inject_from(&mut self, request: &Request, port: u16) -> u64 {
        let mapping = self.cfg.mapping();
        // Link serialization: the request occupies its device's link for
        // size / bandwidth cycles before crossing the crossbar.
        if self.link_free_at.len() <= usize::from(port) {
            self.link_free_at.resize(usize::from(port) + 1, 0);
        }
        let link = &mut self.link_free_at[usize::from(port)];
        let link_start = request.timestamp.max(*link);
        let link_wait = link_start - request.timestamp;
        let occupancy = if self.cfg.link_bytes_per_cycle == 0 {
            0
        } else {
            u64::from(request.size).div_ceil(self.cfg.link_bytes_per_cycle)
        };
        *link = link_start + occupancy;
        let at_xbar = link_start + occupancy;

        let mut stall_total = 0u64;
        for burst_addr in mapping.bursts(request.address, request.size) {
            let (channel, bank, row) = mapping.decode(burst_addr);
            let packet = Packet {
                arrival: at_xbar + self.cfg.xbar_latency + stall_total,
                injected: request.timestamp,
                op: request.op,
                bank,
                row,
                port,
            };
            stall_total += self.channels[channel].enqueue(packet);
        }
        self.stall_cycles += stall_total;
        // Queue backpressure also holds the link.
        self.link_free_at[usize::from(port)] += stall_total;
        stall_total + link_wait
    }

    /// Injects one untagged request (port 0); returns the backpressure
    /// stall in cycles.
    ///
    /// This is the incremental entry point for closed-loop drivers that
    /// interleave synthesis and injection themselves (e.g. a serving
    /// stream pacing chunks against simulator occupancy). Batch callers
    /// should prefer [`MemorySystem::run_trace`] /
    /// [`MemorySystem::run_synthesizer`], which also drain the queues and
    /// extract statistics.
    pub fn inject(&mut self, request: &Request) -> u64 {
        self.inject_from(request, 0)
    }

    /// Total backpressure stall cycles accumulated so far across all
    /// injected requests.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Replays a complete trace (Fig. 1, Option A) and returns the final
    /// statistics. Consumes the system's accumulated state.
    pub fn run_trace(&mut self, trace: &Trace) -> DramStats {
        for request in trace.iter() {
            self.inject(request);
        }
        self.finish()
    }

    /// Replays several devices' traces into the shared memory system,
    /// tagging each with its index as the port id so
    /// [`DramStats::port_stats`] attributes service per device — the
    /// heterogeneous-SoC scenario of the paper's introduction.
    ///
    /// Requests are interleaved globally by timestamp (stable across
    /// equal cycles, in argument order).
    pub fn run_traces(&mut self, traces: &[&Trace]) -> DramStats {
        let mut cursors: Vec<std::iter::Peekable<std::slice::Iter<'_, Request>>> = traces
            .iter()
            .map(|t| t.requests().iter().peekable())
            .collect();
        loop {
            let next = cursors
                .iter_mut()
                .enumerate()
                .filter_map(|(port, c)| c.peek().map(|r| (r.timestamp, port)))
                .min();
            let Some((_, port)) = next else { break };
            let request = *cursors[port].next().expect("peeked"); // lint: allow(L001, peek on this cursor just returned Some)
            self.inject_from(&request, port as u16);
        }
        self.finish()
    }

    /// Runs a coupled synthesizer (Fig. 1, Option B): every stall is fed
    /// back so pending synthetic requests shift in time.
    pub fn run_synthesizer(&mut self, synth: &mut Synthesizer) -> DramStats {
        while let Some(request) = synth.next_request() {
            let stall = self.inject(&request);
            if stall > 0 {
                synth.add_delay(stall);
            }
        }
        self.finish()
    }

    /// Drains all queues and extracts the statistics.
    fn finish(&mut self) -> DramStats {
        for ch in &mut self.channels {
            ch.drain();
        }
        let stats = self
            .channels
            .iter()
            .map(|c| c.stats.clone())
            .collect::<Vec<_>>();
        DramStats::new(stats, self.stall_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_core::{HierarchyConfig, Profile};
    use mocktails_trace::Op;

    fn linear_trace(n: u64, gap: u64, size: u32) -> Trace {
        Trace::from_requests(
            (0..n)
                .map(|i| Request::read(i * gap, i * u64::from(size), size))
                .collect(),
        )
    }

    #[test]
    fn burst_conservation() {
        // 64 B requests = 2 bursts each; all serviced.
        let trace = linear_trace(500, 10, 64);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(stats.total_read_bursts(), 1000);
        assert_eq!(stats.total_write_bursts(), 0);
    }

    #[test]
    fn burst_conservation_at_the_top_of_the_address_space() {
        // The first request's span saturates at `u64::MAX` (one burst)
        // instead of wrapping to an empty burst range.
        let trace = Trace::from_requests(vec![
            Request::read(0, u64::MAX - 15, 64),
            Request::read(10, 0, 64),
        ]);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(stats.total_read_bursts(), 3);
    }

    #[test]
    fn bursts_spread_across_channels() {
        let trace = linear_trace(400, 10, 128);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        for ch in stats.channels() {
            assert_eq!(ch.read_bursts, 400, "channel imbalance");
        }
    }

    #[test]
    fn linear_stream_enjoys_row_hits() {
        let trace = linear_trace(1000, 10, 64);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let hits = stats.total_read_row_hits();
        let total = stats.total_read_bursts();
        assert!(
            hits as f64 / total as f64 > 0.9,
            "hit rate {}",
            hits as f64 / total as f64
        );
    }

    #[test]
    fn random_rows_mostly_conflict() {
        use mocktails_trace::rng::{Prng, Rng};
        let mut rng = Prng::seed_from_u64(0);
        let trace = Trace::from_requests(
            (0..1000u64)
                .map(|i| Request::read(i * 10, rng.gen_range(0..1u64 << 30) & !31, 32))
                .collect(),
        );
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let hits = stats.total_read_row_hits();
        let total = stats.total_read_bursts();
        assert!(
            (hits as f64 / total as f64) < 0.3,
            "hit rate {}",
            hits as f64 / total as f64
        );
    }

    #[test]
    fn writes_accumulate_then_drain() {
        let trace = Trace::from_requests(
            (0..2000u64)
                .map(|i| {
                    if i % 2 == 0 {
                        Request::read(i * 4, i * 64, 64)
                    } else {
                        Request::write(i * 4, 0x100_0000 + i * 64, 64)
                    }
                })
                .collect(),
        );
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(stats.total_write_bursts(), 2000);
        // Write queue runs long (write drain defers writes), read queue short.
        assert!(stats.avg_write_queue_len() > stats.avg_read_queue_len());
    }

    #[test]
    fn saturation_creates_backpressure() {
        // Requests every cycle: far beyond service rate.
        let trace =
            Trace::from_requests((0..5000u64).map(|i| Request::read(i, i * 32, 32)).collect());
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert!(stats.stall_cycles > 0);
        assert_eq!(stats.total_read_bursts(), 5000);
    }

    #[test]
    fn idle_trace_has_low_latency_and_no_stall() {
        let trace = linear_trace(100, 10_000, 32);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(stats.stall_cycles, 0);
        let t = DramConfig::default().timing;
        let min = (t.t_cl + t.t_burst + DramConfig::default().xbar_latency) as f64;
        assert!(stats.avg_access_latency() >= min);
        assert!(stats.avg_access_latency() < min + 40.0);
    }

    #[test]
    fn synthesizer_coupling_applies_feedback() {
        // A profile of a saturating trace: coupled mode must finish and
        // accumulate delay in the synthesizer.
        let trace = Trace::from_requests(
            (0..3000u64)
                .map(|i| Request::read(i, (i % 512) * 32, 32))
                .collect(),
        );
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let mut synth = profile.synthesizer(1);
        let stats = MemorySystem::new(DramConfig::default()).run_synthesizer(&mut synth);
        assert_eq!(stats.total_read_bursts(), 3000);
        assert!(synth.accumulated_delay() > 0);
    }

    #[test]
    fn incremental_inject_matches_run_synthesizer() {
        // The public per-request API, driven by hand with the same
        // feedback rule, must leave simulator and synthesizer in exactly
        // the state the batch Option B loop produces.
        let trace = Trace::from_requests(
            (0..3000u64)
                .map(|i| Request::read(i, (i % 512) * 32, 32))
                .collect(),
        );
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let mut batch_synth = profile.synthesizer(7);
        let batch = MemorySystem::new(DramConfig::default()).run_synthesizer(&mut batch_synth);
        let mut synth = profile.synthesizer(7);
        let mut mem = MemorySystem::new(DramConfig::default());
        while let Some(request) = synth.next_request() {
            let stall = mem.inject(&request);
            if stall > 0 {
                synth.add_delay(stall);
            }
        }
        assert_eq!(mem.stall_cycles(), batch.stall_cycles);
        assert_eq!(synth.accumulated_delay(), batch_synth.accumulated_delay());
        assert!(
            synth.accumulated_delay() > 0,
            "saturating profile must stall"
        );
    }

    #[test]
    fn per_bank_counts_sum_to_totals() {
        let trace = linear_trace(700, 7, 64);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        for ch in stats.channels() {
            assert_eq!(ch.read_bursts_per_bank.iter().sum::<u64>(), ch.read_bursts);
        }
    }

    #[test]
    fn row_hits_plus_misses_equal_bursts() {
        let trace = linear_trace(900, 6, 64);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        for ch in stats.channels() {
            assert_eq!(ch.read_row_hits + ch.read_row_misses, ch.read_bursts);
            assert_eq!(ch.write_row_hits + ch.write_row_misses, ch.write_bursts);
        }
    }

    #[test]
    fn writes_to_small_region_leave_banks_untouched() {
        // The Fig. 12b effect: a write stream confined to one region leaves
        // most banks with zero writes.
        let mut reqs: Vec<Request> = (0..2000u64)
            .map(|i| Request::read(i * 8, i * 64, 64))
            .collect();
        reqs.extend(
            (0..200u64).map(|i| Request::write(i * 80 + 3, 0x2000_0000 + (i % 32) * 64, 64)),
        );
        let trace = Trace::from_requests(reqs);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let untouched: usize = stats
            .channels()
            .iter()
            .flat_map(|c| c.write_bursts_per_bank.iter())
            .filter(|&&n| n == 0)
            .count();
        assert!(untouched >= 16, "only {untouched} bank slots write-free");
    }

    #[test]
    fn tagged_traces_attribute_per_port() {
        let a = linear_trace(200, 10, 64); // port 0
        let b = Trace::from_requests(
            (0..100u64)
                .map(|i| Request::write(i * 20 + 5, 0x4000_0000 + i * 64, 64))
                .collect(),
        ); // port 1
        let stats = MemorySystem::new(DramConfig::default()).run_traces(&[&a, &b]);
        let ports = stats.port_stats();
        assert_eq!(ports.len(), 2);
        assert_eq!(ports[&0].read_bursts, 400);
        assert_eq!(ports[&0].write_bursts, 0);
        assert_eq!(ports[&1].write_bursts, 200);
        assert!(ports[&0].avg_latency() > 0.0);
        // Port totals reconcile with channel totals.
        let total: u64 = ports.values().map(|p| p.read_bursts + p.write_bursts).sum();
        assert_eq!(
            total,
            stats.total_read_bursts() + stats.total_write_bursts()
        );
    }

    #[test]
    fn run_traces_matches_manual_merge_for_untagged_metrics() {
        let a = linear_trace(150, 9, 64);
        let b = Trace::from_requests(
            (0..150u64)
                .map(|i| Request::read(i * 9 + 4, 0x100_0000 + i * 64, 64))
                .collect(),
        );
        let tagged = MemorySystem::new(DramConfig::default()).run_traces(&[&a, &b]);
        let mut merged: Vec<Request> = a.requests().iter().chain(b.requests()).copied().collect();
        merged.sort_by_key(|r| r.timestamp);
        let manual = MemorySystem::new(DramConfig::default())
            .run_trace(&Trace::from_sorted_requests(merged));
        assert_eq!(tagged.total_read_bursts(), manual.total_read_bursts());
        assert_eq!(tagged.total_read_row_hits(), manual.total_read_row_hits());
    }

    #[test]
    fn same_trace_same_stats() {
        let trace = linear_trace(300, 9, 64);
        let a = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let b = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_op_same_region_interleaves() {
        // Read-modify-write to the same lines exercises direction switches.
        let mut reqs = Vec::new();
        for i in 0..500u64 {
            reqs.push(Request::new(i * 20, i * 64, Op::Read, 64));
            reqs.push(Request::new(i * 20 + 10, i * 64, Op::Write, 64));
        }
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&Trace::from_requests(reqs));
        let turnarounds: usize = stats.channels().iter().map(|c| c.turnarounds.len()).sum();
        assert!(turnarounds > 0, "no read/write switches observed");
    }
}
