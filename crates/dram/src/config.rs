//! Memory system configuration (paper Table III) and address mapping.

/// DRAM timing parameters, in controller clock cycles.
///
/// These are simplified but representative LPDDR-class numbers; the paper's
/// validation argument needs only that the original and synthetic streams
/// run through *identical* timing, not any particular absolute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate-to-column delay (tRCD).
    pub t_rcd: u64,
    /// Column access latency (tCL).
    pub t_cl: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Data-bus occupancy per burst (tBURST).
    pub t_burst: u64,
    /// Bus turnaround penalty when switching between reads and writes.
    pub t_switch: u64,
    /// Refresh interval (tREFI); all banks refresh this often. `0`
    /// disables refresh.
    pub t_refi: u64,
    /// Refresh cycle time (tRFC): how long a refresh blocks the banks.
    pub t_rfc: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        Self {
            t_rcd: 14,
            t_cl: 14,
            t_rp: 14,
            t_burst: 4,
            t_switch: 10,
            t_refi: 3_900,
            t_rfc: 140,
        }
    }
}

/// Row-buffer management policy.
///
/// The paper's evaluation uses the open **adaptive** policy and points at
/// policy exploration as a primary Mocktails use case (§VI); the other
/// variants exist for exactly that kind of study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open, but precharge early when only conflicting requests
    /// are pending for the bank (gem5's `open_adaptive`; paper default).
    #[default]
    OpenAdaptive,
    /// Keep rows open until a conflicting access forces a precharge.
    Open,
    /// Precharge after every column access.
    Closed,
}

/// How physical addresses spread across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingScheme {
    /// Consecutive bursts rotate across channels (fine-grained
    /// interleaving, gem5's multi-channel default; used by the paper's
    /// evaluation here).
    #[default]
    ChannelInterleaved,
    /// Whole rows live in one channel; consecutive rows rotate channels
    /// (coarse-grained interleaving — trades stream parallelism for
    /// longer per-channel row runs).
    RowInterleaved,
}

/// Request scheduling policy within a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// First-ready, first-come-first-serve: row hits jump the queue
    /// (paper default).
    #[default]
    FrFcfs,
    /// Strict arrival order.
    Fcfs,
}

/// The memory configuration of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of memory channels (Table III: 4).
    pub channels: usize,
    /// Banks per rank (Table III: 8 banks, 1 rank).
    pub banks: usize,
    /// DRAM burst size in bytes (Table III: 32).
    pub burst_bytes: u64,
    /// Row-buffer size per bank in bytes.
    pub row_bytes: u64,
    /// Read queue capacity in bursts (Table III: 32).
    pub read_queue: usize,
    /// Write queue capacity in bursts (Table III: 64).
    pub write_queue: usize,
    /// Write-drain high threshold as a fraction of the write queue
    /// (Table III: 85 %). Reaching it switches the controller to writes.
    pub write_high_threshold: f64,
    /// Write-drain low threshold (Table III: 50 %). Draining stops here.
    pub write_low_threshold: f64,
    /// Minimum writes serviced per drain episode (gem5's
    /// `min_writes_per_switch`).
    pub min_writes_per_switch: usize,
    /// Crossbar latency from the device to the controller, in cycles.
    pub xbar_latency: u64,
    /// Per-device link bandwidth into the crossbar, in bytes per cycle.
    /// A request occupies its port's link for `size / bandwidth` cycles
    /// before traversing the crossbar; `0` disables link serialization.
    pub link_bytes_per_cycle: u64,
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Queue scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Channel interleaving scheme.
    pub mapping_scheme: MappingScheme,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 4,
            banks: 8,
            burst_bytes: 32,
            row_bytes: 2048,
            read_queue: 32,
            write_queue: 64,
            write_high_threshold: 0.85,
            write_low_threshold: 0.50,
            min_writes_per_switch: 16,
            xbar_latency: 20,
            link_bytes_per_cycle: 32,
            timing: DramTiming::default(),
            page_policy: PagePolicy::OpenAdaptive,
            scheduling: SchedulingPolicy::FrFcfs,
            mapping_scheme: MappingScheme::ChannelInterleaved,
        }
    }
}

impl DramConfig {
    /// Write-queue occupancy (in bursts) that triggers a drain.
    pub fn write_high_mark(&self) -> usize {
        ((self.write_queue as f64 * self.write_high_threshold).round() as usize)
            .clamp(1, self.write_queue)
    }

    /// Write-queue occupancy at which a drain stops.
    pub fn write_low_mark(&self) -> usize {
        ((self.write_queue as f64 * self.write_low_threshold).round() as usize)
            .min(self.write_high_mark().saturating_sub(1))
    }

    /// The address decoder for this configuration.
    pub fn mapping(&self) -> AddressMapping {
        AddressMapping {
            channels: self.channels as u64,
            banks: self.banks as u64,
            burst_bytes: self.burst_bytes,
            bursts_per_row: self.row_bytes / self.burst_bytes,
            scheme: self.mapping_scheme,
        }
    }

    /// Formats the configuration as the rows of Table III.
    pub fn table3(&self) -> String {
        format!(
            "Number of Channels               {}\n\
             Ranks per Channel & Banks/Rank   1 & {}\n\
             Burst Size                       {} bytes\n\
             Read & Write Queue Size          {} & {} bursts\n\
             High & Low Write Threshold       {:.0}% & {:.0}%",
            self.channels,
            self.banks,
            self.burst_bytes,
            self.read_queue,
            self.write_queue,
            self.write_high_threshold * 100.0,
            self.write_low_threshold * 100.0
        )
    }
}

/// Decodes byte addresses into `(channel, bank, row)` coordinates.
///
/// Bursts interleave across channels at burst granularity (low-order
/// interleaving, gem5's default for multi-channel systems), then walk the
/// columns of a row, then banks, then rows:
///
/// ```text
/// addr / burst_bytes = burst_id
/// burst_id = (((row * banks) + bank) * bursts_per_row + column) * channels + channel
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    channels: u64,
    banks: u64,
    burst_bytes: u64,
    bursts_per_row: u64,
    scheme: MappingScheme,
}

impl AddressMapping {
    /// Decodes `addr` to `(channel, bank, row)`.
    pub fn decode(&self, addr: u64) -> (usize, usize, u64) {
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

    /// The starting addresses of the DRAM bursts that `[addr, addr +
    /// size)` touches, in address order. A span running past the top of
    /// the address space ends at `u64::MAX`, as
    /// [`Request::end_address`](mocktails_trace::Request::end_address)
    /// saturates; a zero size touches the burst holding `addr`.
    pub fn bursts(&self, addr: u64, size: u32) -> impl Iterator<Item = u64> {
        let burst_bytes = self.burst_bytes;
        let first = addr / burst_bytes;
        let last = addr.saturating_add(u64::from(size.max(1)) - 1) / burst_bytes;
        (first..=last).map(move |b| b * burst_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = DramConfig::default();
        assert_eq!(c.channels, 4);
        assert_eq!(c.banks, 8);
        assert_eq!(c.burst_bytes, 32);
        assert_eq!(c.read_queue, 32);
        assert_eq!(c.write_queue, 64);
        assert_eq!(c.write_high_mark(), 54);
        assert_eq!(c.write_low_mark(), 32);
        let t3 = c.table3();
        assert!(t3.contains("85%"));
        assert!(t3.contains("32 & 64"));
    }

    #[test]
    fn consecutive_bursts_interleave_channels() {
        let m = DramConfig::default().mapping();
        let chans: Vec<usize> = (0..8u64).map(|i| m.decode(i * 32).0).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn same_row_for_a_contiguous_region() {
        let m = DramConfig::default().mapping();
        // One row per channel spans row_bytes; across 4 channels a
        // contiguous 8 KiB region maps to one (bank, row) per channel.
        let (_, b0, r0) = m.decode(0);
        for addr in (0..8192u64).step_by(32) {
            let (_, b, r) = m.decode(addr);
            assert_eq!((b, r), (b0, r0), "addr {addr}");
        }
        let (_, b1, r1) = m.decode(8192);
        assert_ne!((b0, r0), (b1, r1));
    }

    #[test]
    fn banks_rotate_before_rows() {
        let m = DramConfig::default().mapping();
        // Stepping by one row's worth of interleaved data (8 KiB) advances
        // the bank; after 8 banks the row advances.
        let mut banks = Vec::new();
        for i in 0..9u64 {
            let (_, b, r) = m.decode(i * 8192);
            banks.push((b, r));
        }
        assert_eq!(banks[0].1, banks[7].1, "first 8 share a row index");
        assert_eq!(banks[8].0, banks[0].0, "bank wraps");
        assert_eq!(banks[8].1, banks[0].1 + 1, "row advances");
    }

    #[test]
    fn burst_splitting() {
        let m = DramConfig::default().mapping();
        let bursts = |addr, size| m.bursts(addr, size).collect::<Vec<_>>();
        assert_eq!(bursts(0, 32), vec![0]);
        assert_eq!(bursts(0, 64), vec![0, 32]);
        assert_eq!(bursts(16, 32), vec![0, 32], "unaligned spans two");
        assert_eq!(bursts(0, 1), vec![0]);
        assert_eq!(bursts(96, 128), vec![96, 128, 160, 192]);
        // Spans past the top of the address space end at `u64::MAX`
        // instead of wrapping to an empty range.
        let top = u64::MAX - 31;
        assert_eq!(bursts(u64::MAX - 15, 64), vec![top]);
        assert_eq!(bursts(u64::MAX - 47, 4096), vec![top - 32, top]);
        assert_eq!(bursts(u64::MAX, 1), vec![top]);
    }

    #[test]
    fn row_interleaving_keeps_rows_in_one_channel() {
        let cfg = DramConfig {
            mapping_scheme: MappingScheme::RowInterleaved,
            ..DramConfig::default()
        };
        let m = cfg.mapping();
        // The first row's worth of bursts (2 KiB) all land on channel 0.
        let (ch0, bank0, row0) = m.decode(0);
        for addr in (0..2048u64).step_by(32) {
            assert_eq!(m.decode(addr), (ch0, bank0, row0), "addr {addr}");
        }
        // The next row moves to the next channel.
        let (ch1, _, _) = m.decode(2048);
        assert_eq!(ch1, (ch0 + 1) % 4);
    }

    #[test]
    fn schemes_cover_all_channels() {
        for scheme in [
            MappingScheme::ChannelInterleaved,
            MappingScheme::RowInterleaved,
        ] {
            let cfg = DramConfig {
                mapping_scheme: scheme,
                ..DramConfig::default()
            };
            let m = cfg.mapping();
            let channels: std::collections::HashSet<usize> =
                (0..1024u64).map(|i| m.decode(i * 32).0).collect();
            assert_eq!(channels.len(), 4, "{scheme:?}");
        }
    }

    #[test]
    fn decode_is_a_bijection_over_coordinates() {
        // Distinct aligned bursts within one channel+bank+row never alias
        // with other rows: count distinct (ch, bank, row) for a large span.
        let m = DramConfig::default().mapping();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            seen.insert(m.decode(i * 32));
        }
        // 4096 bursts / (64 bursts per row) = 64 distinct coordinates.
        assert_eq!(seen.len(), 64);
    }
}
