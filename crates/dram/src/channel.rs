//! One memory channel: queues, banks, FR-FCFS scheduling, page policy and
//! write drain.
//!
//! Scheduling never scans the queues per burst. The channel keeps per-bank
//! counts of queued bursts and of queued bursts that hit the bank's open
//! row, so the FR-FCFS pick and the open-adaptive page check read counters;
//! a bank's hit counts are recounted only when its open row changes.

use std::collections::VecDeque;

use mocktails_trace::Op;

use crate::config::DramConfig;
use crate::stats::ChannelStats;

/// One DRAM burst in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packet {
    /// Cycle the burst reached the controller.
    pub arrival: u64,
    /// Cycle the originating request left the device (for latency).
    pub injected: u64,
    pub op: Op,
    pub bank: usize,
    pub row: u64,
    /// Injecting device port (0 for single-device runs).
    pub port: u16,
}

/// Per-bank state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

/// The scheduling state of one memory channel.
#[derive(Debug)]
pub(crate) struct Channel {
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
    /// Bursts queued per bank, in either queue.
    queued: Vec<usize>,
    /// Per queue (read, write) and bank: queued bursts whose row is the
    /// bank's open row (0 while the bank is precharged).
    hits: [Vec<usize>; 2],
    /// Per queue: `hits` summed over banks.
    hit_total: [usize; 2],
    pub(crate) stats: ChannelStats,
}

/// The index of `op`'s queue in the per-queue counters.
fn slot(op: Op) -> usize {
    match op {
        Op::Read => 0,
        Op::Write => 1,
    }
}

impl Channel {
    pub(crate) fn new(cfg: DramConfig) -> Self {
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
            queued: vec![0; cfg.banks],
            hits: [vec![0; cfg.banks], vec![0; cfg.banks]],
            hit_total: [0; 2],
            stats,
        }
    }

    /// Sets `bank`'s open row, recounting its queued hits when it changes.
    fn set_open_row(&mut self, bank: usize, row: Option<u64>) {
        if self.banks[bank].open_row == row {
            return;
        }
        self.banks[bank].open_row = row;
        for (s, queue) in [&self.read_q, &self.write_q].into_iter().enumerate() {
            let n = row.map_or(0, |r| {
                queue
                    .iter()
                    .filter(|p| p.bank == bank && p.row == r)
                    .count()
            });
            self.hit_total[s] = self.hit_total[s] - self.hits[s][bank] + n;
            self.hits[s][bank] = n;
        }
    }

    /// Whether the counters agree with the queues: each queue's hit total
    /// is both the number of its bursts on an open row and the sum of its
    /// per-bank hits, and the per-bank queued counts add up to both queues.
    fn counts_agree(&self) -> bool {
        let on_open_row = |queue: &VecDeque<Packet>| {
            queue
                .iter()
                .filter(|p| self.banks[p.bank].open_row == Some(p.row))
                .count()
        };
        self.queued.iter().sum::<usize>() == self.read_q.len() + self.write_q.len()
            && self.hit_total == [on_open_row(&self.read_q), on_open_row(&self.write_q)]
            && self.hit_total == [self.hits[0].iter().sum(), self.hits[1].iter().sum()]
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
        for hits in &mut self.hits {
            hits.fill(0);
        }
        self.hit_total = [0; 2];
        self.next_refresh = last + t.t_refi;
        self.stats.refreshes += missed;
    }

    /// Services queued bursts whose scheduling decision happens strictly
    /// before `t` (the controller cannot anticipate future arrivals).
    pub(crate) fn advance_to(&mut self, t: u64) {
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
    pub(crate) fn enqueue(&mut self, mut packet: Packet) -> u64 {
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
        self.queued[packet.bank] += 1;
        if self.banks[packet.bank].open_row == Some(packet.row) {
            self.hits[slot(packet.op)][packet.bank] += 1;
            self.hit_total[slot(packet.op)] += 1;
        }
        match packet.op {
            Op::Read => self.read_q.push_back(packet),
            Op::Write => self.write_q.push_back(packet),
        }
        stall
    }

    /// Services everything still queued.
    pub(crate) fn drain(&mut self) {
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
        // strict arrival order. With no hit queued the oldest burst wins.
        let queue = match op {
            Op::Read => &self.read_q,
            Op::Write => &self.write_q,
        };
        let idx = match self.cfg.scheduling {
            crate::config::SchedulingPolicy::FrFcfs if self.hit_total[slot(op)] > 0 => queue
                .iter()
                .position(|p| self.banks[p.bank].open_row == Some(p.row))
                .unwrap_or(0),
            _ => 0,
        };
        let packet = match op {
            Op::Read => self.read_q.remove(idx).expect("index valid"), // lint: allow(L001, idx was produced by scanning this very queue)
            Op::Write => self.write_q.remove(idx).expect("index valid"), // lint: allow(L001, idx was produced by scanning this very queue)
        };

        // Timing.
        let bank = self.banks[packet.bank];
        let t = self.cfg.timing;
        let row_hit = bank.open_row == Some(packet.row);
        self.queued[packet.bank] -= 1;
        if row_hit {
            self.hits[slot(op)][packet.bank] -= 1;
            self.hit_total[slot(op)] -= 1;
        }
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
        self.banks[packet.bank].ready_at = completion;
        self.bus_free_at = completion;
        self.now = start;

        // Page policy: decide whether to leave the row open.
        let precharge = match self.cfg.page_policy {
            crate::config::PagePolicy::Open => false,
            crate::config::PagePolicy::Closed => true,
            crate::config::PagePolicy::OpenAdaptive => {
                // Precharge early when no queued burst hits this row but
                // one conflicts with it.
                self.set_open_row(packet.bank, Some(packet.row));
                let hits = self.hits[0][packet.bank] + self.hits[1][packet.bank];
                hits == 0 && self.queued[packet.bank] > 0
            }
        };
        if precharge {
            self.set_open_row(packet.bank, None);
            self.banks[packet.bank].ready_at = completion + t.t_rp;
        } else {
            self.set_open_row(packet.bank, Some(packet.row));
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
        debug_assert!(self.counts_agree(), "queue counts drifted");

        self.stats.record_service(
            packet.op,
            packet.bank,
            row_hit,
            completion - packet.injected,
            packet.port,
        );
    }

    #[cfg(test)]
    pub(crate) fn queue_lens(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    fn read_packet(arrival: u64, bank: usize, row: u64) -> Packet {
        Packet {
            arrival,
            injected: arrival,
            op: Op::Read,
            bank,
            row,
            port: 0,
        }
    }

    fn write_packet(arrival: u64, bank: usize, row: u64) -> Packet {
        Packet {
            arrival,
            injected: arrival,
            op: Op::Write,
            bank,
            row,
            port: 0,
        }
    }

    #[test]
    fn services_everything_on_drain() {
        let mut ch = Channel::new(cfg());
        for i in 0..10 {
            ch.enqueue(read_packet(i, 0, 0));
        }
        ch.drain();
        assert_eq!(ch.queue_lens(), (0, 0));
        assert_eq!(ch.stats.read_bursts, 10);
    }

    #[test]
    fn row_hits_for_same_row_stream() {
        let mut ch = Channel::new(cfg());
        for i in 0..20 {
            ch.enqueue(read_packet(i, 2, 7));
        }
        ch.drain();
        // First access opens the row; the rest hit.
        assert_eq!(ch.stats.read_row_hits, 19);
        assert_eq!(ch.stats.read_row_misses, 1);
    }

    #[test]
    fn row_conflicts_for_alternating_rows() {
        let mut ch = Channel::new(cfg());
        for i in 0..20 {
            ch.enqueue(read_packet(i, 0, i % 2));
        }
        ch.drain();
        // FR-FCFS reorders hits together: far better than zero hits, but
        // conflicts still occur between the two groups.
        assert!(ch.stats.read_row_hits > 10);
        assert!(ch.stats.read_row_misses >= 2);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut ch = Channel::new(cfg());
        // First a row-0 access, then a conflicting row-1, then another
        // row-0 which FR-FCFS should pull forward.
        ch.enqueue(read_packet(0, 0, 0));
        ch.enqueue(read_packet(0, 0, 1));
        ch.enqueue(read_packet(0, 0, 0));
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 1, "second row-0 jumped the queue");
    }

    #[test]
    fn write_drain_waits_for_high_mark() {
        let mut ch = Channel::new(cfg());
        // A few writes below the high mark plus a steady read stream: the
        // reads should be serviced first while writes sit in their queue.
        for i in 0..4 {
            ch.enqueue(write_packet(i, 0, 0));
        }
        for i in 4..12 {
            ch.enqueue(read_packet(i, 1, 0));
        }
        ch.advance_to(100_000);
        // Reads done, writes drained only after the read queue emptied.
        assert_eq!(ch.stats.read_bursts, 8);
        assert_eq!(ch.stats.write_bursts, 4);
    }

    #[test]
    fn turnarounds_record_reads_per_switch() {
        let mut ch = Channel::new(cfg());
        for i in 0..6 {
            ch.enqueue(read_packet(i, 0, 0));
        }
        ch.drain(); // services 6 reads
        for i in 100..104 {
            ch.enqueue(write_packet(i, 0, 0));
        }
        ch.drain(); // forced drain: switch read -> write
        assert_eq!(ch.stats.turnarounds, vec![6]);
    }

    #[test]
    fn backpressure_stalls_when_read_queue_full() {
        let mut ch = Channel::new(cfg());
        // Flood with same-cycle arrivals beyond the queue capacity.
        let mut total_stall = 0;
        for _ in 0..40 {
            total_stall += ch.enqueue(read_packet(0, 0, 0));
        }
        assert!(total_stall > 0, "33rd+ packet must stall");
        ch.drain();
        assert_eq!(ch.stats.read_bursts, 40);
    }

    #[test]
    fn queue_observation_sees_prior_occupancy() {
        let mut ch = Channel::new(cfg());
        for _ in 0..5 {
            ch.enqueue(read_packet(0, 0, 0));
        }
        // Five same-cycle arrivals: the fifth sees 4 queued.
        assert_eq!(ch.stats.read_queue_seen.mean(), 10.0 / 5.0);
    }

    #[test]
    fn latency_is_positive_and_grows_under_congestion() {
        let sparse = {
            let mut ch = Channel::new(cfg());
            for i in 0..50u64 {
                ch.enqueue(read_packet(i * 1000, 0, i)); // all conflicts, but idle
            }
            ch.drain();
            ch.stats.read_latency_sum as f64 / ch.stats.read_bursts as f64
        };
        let congested = {
            let mut ch = Channel::new(cfg());
            for i in 0..50u64 {
                ch.enqueue(read_packet(i, 0, i));
            }
            ch.drain();
            ch.stats.read_latency_sum as f64 / ch.stats.read_bursts as f64
        };
        assert!(sparse > 0.0);
        assert!(congested > sparse, "{congested} vs {sparse}");
    }

    #[test]
    fn adaptive_policy_precharges_on_pending_conflict() {
        let mut ch = Channel::new(cfg());
        // Service a row-0 burst while a row-1 burst waits on the same bank:
        // the controller should close row 0 eagerly; the row-1 access then
        // pays activation but not an extra full precharge at access time.
        ch.enqueue(read_packet(0, 0, 0));
        ch.enqueue(read_packet(0, 0, 1));
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 0);
        assert_eq!(ch.stats.read_row_misses, 2);
    }

    #[test]
    fn fcfs_services_in_arrival_order() {
        use crate::config::SchedulingPolicy;
        let mut cfg = cfg();
        cfg.scheduling = SchedulingPolicy::Fcfs;
        let mut ch = Channel::new(cfg);
        // Under FCFS the later row-0 request cannot jump the row-1 one.
        ch.enqueue(read_packet(0, 0, 0));
        ch.enqueue(read_packet(0, 0, 1));
        ch.enqueue(read_packet(0, 0, 0));
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 0, "no reordering allowed");
    }

    #[test]
    fn closed_page_policy_kills_row_hits() {
        use crate::config::PagePolicy;
        let mut cfg = cfg();
        cfg.page_policy = PagePolicy::Closed;
        let mut ch = Channel::new(cfg);
        for i in 0..20 {
            ch.enqueue(read_packet(i, 2, 7));
        }
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 0);
    }

    #[test]
    fn open_page_policy_never_precharges_early() {
        use crate::config::PagePolicy;
        let mut cfg = cfg();
        cfg.page_policy = PagePolicy::Open;
        let mut ch = Channel::new(cfg);
        // Same single-conflict scenario as the adaptive test: with a plain
        // open policy the row stays open, so the second access pays a
        // conflict (precharge + activate) rather than a pre-cleared bank,
        // but the hit/miss counts are the same; distinguish via timing.
        ch.enqueue(read_packet(0, 0, 0));
        ch.enqueue(read_packet(0, 0, 1));
        ch.enqueue(read_packet(1_000, 0, 1)); // row 1 again: a hit now
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 1);
    }

    #[test]
    fn decision_clock_never_sees_future_arrivals() {
        // Disable refresh so the row genuinely stays open across the gap.
        let mut cfg = cfg();
        cfg.timing.t_refi = 0;
        let mut ch = Channel::new(cfg);
        ch.enqueue(read_packet(0, 0, 0));
        ch.enqueue(read_packet(1_000_000, 0, 0));
        ch.drain();
        // Both service fine; the second is a hit only if the row stayed
        // open (no conflicting traffic), which it did.
        assert_eq!(ch.stats.read_row_hits, 1);
    }

    #[test]
    fn refresh_closes_rows_and_is_counted() {
        let mut ch = Channel::new(cfg());
        ch.enqueue(read_packet(0, 0, 7));
        ch.drain();
        // Next access lands after several refresh intervals: row closed.
        ch.enqueue(read_packet(20_000, 0, 7));
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 0);
        assert_eq!(ch.stats.read_row_misses, 2);
        // Idle spans collapse into one catch-up application, but every
        // missed interval is counted.
        assert!(ch.stats.refreshes >= 5, "refreshes {}", ch.stats.refreshes);
    }

    #[test]
    fn refresh_disabled_keeps_rows_open() {
        let mut cfg = cfg();
        cfg.timing.t_refi = 0;
        let mut ch = Channel::new(cfg);
        ch.enqueue(read_packet(0, 0, 7));
        ch.enqueue(read_packet(20_000, 0, 7));
        ch.drain();
        assert_eq!(ch.stats.read_row_hits, 1);
        assert_eq!(ch.stats.refreshes, 0);
    }
}
