//! Equivalence of the counting channel with the scan-based scheduler it
//! replaced. The reference below is that scheduler and its front end,
//! kept verbatim: the open-adaptive page check collects the bank's queued
//! bursts on every service, FR-FCFS scans the queue for the first row
//! hit, and requests are split into a `Vec` of bursts and decoded by
//! plain division. Random
//! traces run through both under every page policy, scheduling policy and
//! mapping scheme, with tiny queues (stalls and forced write drains) and
//! fast, default and disabled refresh; the full `Debug` text of the
//! resulting [`DramStats`] must match, as must the coupled synthesizer's
//! accumulated delay.
//!
//! The reference records into the crate's own statistics types, compiled
//! here from `src/stats.rs`, so both sides render the same `Debug` text
//! exactly when every counter, histogram and per-port entry agrees.

use std::collections::VecDeque;

use mocktails_core::{HierarchyConfig, Profile, Synthesizer};
use mocktails_dram::{DramConfig, MappingScheme, MemorySystem, PagePolicy, SchedulingPolicy};
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Op, Request, Trace};

// The reference needs only the constructors and recorders; the public
// accessors go unused in this test crate. The module's own unit tests run
// here as well.
#[allow(dead_code)]
#[path = "../src/stats.rs"]
mod stats;

use stats::{ChannelStats, DramStats};

/// One DRAM burst in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    /// Cycle the burst reached the controller.
    arrival: u64,
    /// Cycle the originating request left the device (for latency).
    injected: u64,
    op: Op,
    bank: usize,
    row: u64,
    /// Injecting device port (0 for single-device runs).
    port: u16,
}

/// Per-bank state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// The scheduling state of one memory channel, as the scan-based
/// scheduler kept it.
#[derive(Debug)]
struct ScanChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    read_q: VecDeque<Packet>,
    write_q: VecDeque<Packet>,
    /// Decision clock: the time of the last scheduling decision.
    now: u64,
    /// When the data bus frees up.
    bus_free_at: u64,
    draining_writes: bool,
    writes_this_drain: usize,
    /// Reads serviced since the last switch to reads.
    reads_this_turn: u64,
    last_op: Option<Op>,
    /// Next all-bank refresh deadline (tREFI cadence).
    next_refresh: u64,
    stats: ChannelStats,
}

impl ScanChannel {
    fn new(cfg: DramConfig) -> Self {
        let banks = vec![Bank::default(); cfg.banks];
        let stats = ChannelStats::new(cfg.banks, cfg.read_queue, cfg.write_queue);
        Self {
            cfg,
            banks,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            now: 0,
            bus_free_at: 0,
            draining_writes: false,
            writes_this_drain: 0,
            reads_this_turn: 0,
            last_op: None,
            next_refresh: cfg.timing.t_refi,
            stats,
        }
    }

    /// Applies any refreshes due by `now`: every bank precharges and is
    /// unavailable for tRFC after each refresh point. Long idle spans are
    /// collapsed into the last missed refresh.
    fn refresh_due(&mut self, now: u64) {
        let t = self.cfg.timing;
        if t.t_refi == 0 || now < self.next_refresh {
            return;
        }
        let missed = (now - self.next_refresh) / t.t_refi + 1;
        let last = self.next_refresh + (missed - 1) * t.t_refi;
        for bank in &mut self.banks {
            bank.open_row = None;
            bank.ready_at = bank.ready_at.max(last + t.t_rfc);
        }
        self.next_refresh = last + t.t_refi;
        self.stats.refreshes += missed;
    }

    /// Services queued bursts whose scheduling decision happens strictly
    /// before `t` (the controller cannot anticipate future arrivals).
    fn advance_to(&mut self, t: u64) {
        while !self.read_q.is_empty() || !self.write_q.is_empty() {
            let start = self.now.max(self.bus_free_at);
            if start >= t {
                break;
            }
            self.service_one(start);
        }
        self.now = self.now.max(t);
    }

    /// Enqueues a burst arriving at `packet.arrival`, stalling (servicing
    /// in place) while the target queue is full. Returns the stall in
    /// cycles, which the injector must absorb as backpressure.
    fn enqueue(&mut self, mut packet: Packet) -> u64 {
        self.advance_to(packet.arrival);
        let capacity = match packet.op {
            Op::Read => self.cfg.read_queue,
            Op::Write => self.cfg.write_queue,
        };
        let mut stall = 0u64;
        while self.queue_len(packet.op) >= capacity {
            let start = self.now.max(self.bus_free_at);
            self.service_one(start);
            // The freeing service happened at `start`; time has moved.
            stall = self.now.saturating_sub(packet.arrival);
        }
        if stall > 0 {
            packet.arrival += stall;
            self.now = self.now.max(packet.arrival);
        }
        // Observe queue occupancy as seen by the arriving burst (Fig. 8).
        self.stats
            .observe_queues(packet.op, self.read_q.len(), self.write_q.len());
        match packet.op {
            Op::Read => self.read_q.push_back(packet),
            Op::Write => self.write_q.push_back(packet),
        }
        stall
    }

    /// Services everything still queued.
    fn drain(&mut self) {
        while !self.read_q.is_empty() || !self.write_q.is_empty() {
            let start = self.now.max(self.bus_free_at);
            self.service_one(start);
        }
    }

    fn queue_len(&self, op: Op) -> usize {
        match op {
            Op::Read => self.read_q.len(),
            Op::Write => self.write_q.len(),
        }
    }

    /// Picks a direction per the write-drain policy, selects a burst with
    /// FR-FCFS, models its timing, updates page state and records stats.
    fn service_one(&mut self, start: u64) {
        debug_assert!(!self.read_q.is_empty() || !self.write_q.is_empty());
        self.refresh_due(start);

        // Write-drain policy (gem5-style): start draining at the high mark
        // or when there is nothing else to do; stop at the low mark once
        // the minimum writes per switch are done.
        if self.draining_writes {
            let below_low = self.write_q.len() <= self.cfg.write_low_mark();
            if self.write_q.is_empty()
                || (below_low
                    && self.writes_this_drain >= self.cfg.min_writes_per_switch
                    && !self.read_q.is_empty())
            {
                self.draining_writes = false;
            }
        }
        if !self.draining_writes {
            let must_drain = self.write_q.len() >= self.cfg.write_high_mark()
                || (self.read_q.is_empty() && !self.write_q.is_empty());
            if must_drain {
                self.draining_writes = true;
                self.writes_this_drain = 0;
            }
        }
        let op = if self.draining_writes {
            Op::Write
        } else {
            Op::Read
        };
        // Fall back if the chosen queue is empty (can occur mid-policy).
        let op = match op {
            Op::Read if self.read_q.is_empty() => Op::Write,
            Op::Write if self.write_q.is_empty() => Op::Read,
            other => other,
        };

        // Scheduling: FR-FCFS pulls the first row hit forward; FCFS takes
        // strict arrival order.
        let queue = match op {
            Op::Read => &self.read_q,
            Op::Write => &self.write_q,
        };
        let idx = match self.cfg.scheduling {
            SchedulingPolicy::FrFcfs => queue
                .iter()
                .position(|p| self.banks[p.bank].open_row == Some(p.row))
                .unwrap_or(0),
            SchedulingPolicy::Fcfs => 0,
        };
        let packet = match op {
            Op::Read => self.read_q.remove(idx).expect("index valid"), // lint: allow(L001, idx was produced by scanning this very queue)
            Op::Write => self.write_q.remove(idx).expect("index valid"), // lint: allow(L001, idx was produced by scanning this very queue)
        };

        // Timing.
        let bank = &mut self.banks[packet.bank];
        let t = self.cfg.timing;
        let row_hit = bank.open_row == Some(packet.row);
        let access = if row_hit {
            t.t_cl
        } else if bank.open_row.is_some() {
            t.t_rp + t.t_rcd + t.t_cl
        } else {
            t.t_rcd + t.t_cl
        };
        let switch = match self.last_op {
            Some(prev) if prev != packet.op => t.t_switch,
            _ => 0,
        };
        let begin = start.max(bank.ready_at);
        let completion = begin + switch + access + t.t_burst;
        bank.open_row = Some(packet.row);
        bank.ready_at = completion;
        self.bus_free_at = completion;
        self.now = start;

        // Page policy: decide whether to leave the row open.
        let precharge = match self.cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::Closed => true,
            PagePolicy::OpenAdaptive => {
                // Precharge early when no queued burst hits this row but
                // one conflicts with it.
                let same_bank: Vec<&Packet> = self
                    .read_q
                    .iter()
                    .chain(self.write_q.iter())
                    .filter(|p| p.bank == packet.bank)
                    .collect();
                let any_hit = same_bank.iter().any(|p| p.row == packet.row);
                let any_conflict = same_bank.iter().any(|p| p.row != packet.row);
                !any_hit && any_conflict
            }
        };
        if precharge {
            let bank = &mut self.banks[packet.bank];
            bank.open_row = None;
            bank.ready_at = completion + t.t_rp;
        }

        // Turnaround accounting (Fig. 11): reads serviced before each
        // switch to writes.
        match packet.op {
            Op::Read => {
                if self.last_op == Some(Op::Write) {
                    self.reads_this_turn = 0;
                }
                self.reads_this_turn += 1;
            }
            Op::Write => {
                if self.last_op == Some(Op::Read) {
                    self.stats.record_turnaround(self.reads_this_turn);
                }
                self.writes_this_drain += 1;
            }
        }
        self.last_op = Some(packet.op);

        self.stats.record_service(
            packet.op,
            packet.bank,
            row_hit,
            completion - packet.injected,
            packet.port,
        );
    }
}

/// The address decoder the scan-based scheduler used: plain division by
/// the geometry and a `Vec` of burst addresses per request.
struct ScanMapping {
    channels: u64,
    banks: u64,
    burst_bytes: u64,
    bursts_per_row: u64,
    scheme: MappingScheme,
}

impl ScanMapping {
    fn new(cfg: &DramConfig) -> Self {
        Self {
            channels: cfg.channels as u64,
            banks: cfg.banks as u64,
            burst_bytes: cfg.burst_bytes,
            bursts_per_row: cfg.row_bytes / cfg.burst_bytes,
            scheme: cfg.mapping_scheme,
        }
    }

    /// Decodes `addr` to `(channel, bank, row)`.
    fn decode(&self, addr: u64) -> (usize, usize, u64) {
        let burst = addr / self.burst_bytes;
        let (channel, x) = match self.scheme {
            MappingScheme::ChannelInterleaved => {
                let channel = (burst % self.channels) as usize;
                (channel, burst / self.channels / self.bursts_per_row)
            }
            MappingScheme::RowInterleaved => {
                let x = burst / self.bursts_per_row; // drop the column
                ((x % self.channels) as usize, x / self.channels)
            }
        };
        let bank = (x % self.banks) as usize;
        let row = x / self.banks;
        (channel, bank, row)
    }

    /// Splits `[addr, addr + size)` into the starting addresses of the
    /// DRAM bursts it touches. The random traces stay in the lower half
    /// of the address space, below where this unsaturated end would wrap.
    fn bursts(&self, addr: u64, size: u32) -> Vec<u64> {
        let first = addr / self.burst_bytes;
        let last = (addr + u64::from(size) - 1) / self.burst_bytes;
        (first..=last).map(|b| b * self.burst_bytes).collect()
    }
}

/// The memory-system front end over scan-based channels: link
/// serialization, burst splitting, crossbar and the three drivers, as in
/// [`MemorySystem`].
struct ScanSystem {
    cfg: DramConfig,
    channels: Vec<ScanChannel>,
    stall_cycles: u64,
    link_free_at: Vec<u64>,
}

impl ScanSystem {
    fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            channels: (0..cfg.channels).map(|_| ScanChannel::new(cfg)).collect(),
            stall_cycles: 0,
            link_free_at: Vec::new(),
        }
    }

    fn inject_from(&mut self, request: &Request, port: u16) -> u64 {
        let mapping = ScanMapping::new(&self.cfg);
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
        self.link_free_at[usize::from(port)] += stall_total;
        stall_total + link_wait
    }

    fn run_trace(&mut self, trace: &Trace) -> DramStats {
        for request in trace.iter() {
            self.inject_from(request, 0);
        }
        self.finish()
    }

    fn run_traces(&mut self, traces: &[&Trace]) -> DramStats {
        let mut cursors: Vec<_> = traces
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
            let request = *cursors[port].next().expect("peeked");
            self.inject_from(&request, port as u16);
        }
        self.finish()
    }

    fn run_synthesizer(&mut self, synth: &mut Synthesizer) -> DramStats {
        while let Some(request) = synth.next_request() {
            let stall = self.inject_from(&request, 0);
            if stall > 0 {
                synth.add_delay(stall);
            }
        }
        self.finish()
    }

    fn finish(&mut self) -> DramStats {
        for ch in &mut self.channels {
            ch.drain();
        }
        let stats = self.channels.iter().map(|c| c.stats.clone()).collect();
        DramStats::new(stats, self.stall_cycles)
    }
}

/// Random traces per grid configuration: 5,400 runs over the grid.
const TRACES_PER_CONFIG: u64 = 50;
/// Random `run_traces` cases, each of two to four ports.
const MULTI_PORT_CASES: u64 = 120;
/// Random coupled `run_synthesizer` cases.
const COUPLED_CASES: u64 = 40;

/// Every page policy × scheduling policy × mapping scheme × queue sizes
/// × refresh interval combination.
fn grid() -> Vec<DramConfig> {
    let mut configs = Vec::new();
    for page_policy in [
        PagePolicy::OpenAdaptive,
        PagePolicy::Open,
        PagePolicy::Closed,
    ] {
        for scheduling in [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs] {
            for mapping_scheme in [
                MappingScheme::ChannelInterleaved,
                MappingScheme::RowInterleaved,
            ] {
                for (read_queue, write_queue) in [(32, 64), (2, 4), (4, 8)] {
                    for t_refi in [3_900, 500, 0] {
                        let mut cfg = DramConfig {
                            read_queue,
                            write_queue,
                            page_policy,
                            scheduling,
                            mapping_scheme,
                            ..DramConfig::default()
                        };
                        cfg.timing.t_refi = t_refi;
                        configs.push(cfg);
                    }
                }
            }
        }
    }
    configs
}

/// A trace mixing back-to-back bursts with idle spans longer than the
/// refresh interval, over a few hot rows of every bank plus rare far
/// addresses in the lower half of the address space, at a per-trace
/// write share.
fn rand_trace(rng: &mut Prng) -> Trace {
    let n = rng.gen_range(1..=200usize);
    let write_share = rng.gen_range(0..=4u64) as f64 / 4.0;
    let mut t = 0u64;
    let requests = (0..n)
        .map(|_| {
            t += match rng.gen_range(0..20u32) {
                0..=5 => 0,
                6..=13 => rng.gen_range(1..8u64),
                14..=18 => rng.gen_range(8..200u64),
                _ => rng.gen_range(1_000..20_000u64),
            };
            let address = if rng.gen_bool(0.05) {
                rng.next_u64() >> 1
            } else {
                rng.gen_range(0..1u64 << 18) & !15
            };
            let op = if rng.gen_bool(write_share) {
                Op::Write
            } else {
                Op::Read
            };
            let size = [16u32, 32, 64, 128, 256][rng.gen_range(0..5usize)];
            Request::new(t, address, op, size)
        })
        .collect();
    Trace::from_requests(requests)
}

/// Which rare paths the random cases reached, so a weakened generator
/// cannot pass vacuously.
#[derive(Debug, Default)]
struct Seen {
    read_hits: bool,
    write_hits: bool,
    stalls: bool,
    refreshes: bool,
    turnarounds: bool,
}

impl Seen {
    fn record(&mut self, stats: &mocktails_dram::DramStats) {
        self.read_hits |= stats.total_read_row_hits() > 0;
        self.write_hits |= stats.total_write_row_hits() > 0;
        self.stalls |= stats.stall_cycles > 0;
        for ch in stats.channels() {
            self.refreshes |= ch.refreshes > 0;
            self.turnarounds |= !ch.turnarounds.is_empty();
        }
    }

    fn assert_all(&self) {
        assert!(
            self.read_hits && self.write_hits && self.stalls && self.refreshes && self.turnarounds,
            "random cases missed a path: {self:?}"
        );
    }
}

#[test]
fn replay_matches_the_scan_reference_across_the_grid() {
    let mut rng = Prng::seed_from_u64(0x5CA7_0001);
    let mut seen = Seen::default();
    let mut traces = 0;
    for (c, cfg) in grid().into_iter().enumerate() {
        for case in 0..TRACES_PER_CONFIG {
            let trace = rand_trace(&mut rng);
            let got = MemorySystem::new(cfg).run_trace(&trace);
            let want = ScanSystem::new(cfg).run_trace(&trace);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "config {c} case {case}: {cfg:?}"
            );
            seen.record(&got);
            traces += 1;
        }
    }
    assert!(traces >= 1_000);
    seen.assert_all();
}

#[test]
fn multi_port_replay_matches_the_scan_reference() {
    let mut rng = Prng::seed_from_u64(0x5CA7_0002);
    let configs = grid();
    let mut seen = Seen::default();
    for case in 0..MULTI_PORT_CASES {
        let cfg = configs[rng.gen_range(0..configs.len())];
        let traces: Vec<Trace> = (0..rng.gen_range(2..=4usize))
            .map(|_| rand_trace(&mut rng))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let got = MemorySystem::new(cfg).run_traces(&refs);
        let want = ScanSystem::new(cfg).run_traces(&refs);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "case {case}: {cfg:?}"
        );
        seen.record(&got);
    }
    seen.assert_all();
}

#[test]
fn coupled_runs_match_the_scan_reference() {
    let mut rng = Prng::seed_from_u64(0x5CA7_0003);
    let configs = grid();
    let mut delayed = false;
    for case in 0..COUPLED_CASES {
        let cfg = configs[rng.gen_range(0..configs.len())];
        let profile = Profile::fit(
            &rand_trace(&mut rng),
            &HierarchyConfig::two_level_ts(rng.gen_range(100..5_000u64)),
        );
        let seed = rng.next_u64();
        let (mut a, mut b) = (profile.synthesizer(seed), profile.synthesizer(seed));
        let got = MemorySystem::new(cfg).run_synthesizer(&mut a);
        let want = ScanSystem::new(cfg).run_synthesizer(&mut b);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "case {case}: {cfg:?}"
        );
        assert_eq!(a.accumulated_delay(), b.accumulated_delay(), "case {case}");
        delayed |= a.accumulated_delay() > 0;
    }
    assert!(delayed, "no coupled case stalled the synthesizer");
}
