//! An event-driven DRAM memory controller + crossbar simulator.
//!
//! The paper validates Mocktails by replaying traces into gem5's DRAM
//! controller model (Hansson et al., ISPASS 2014) behind a crossbar. gem5
//! itself is out of scope for a Rust workspace, so this crate reimplements
//! the controller model the paper relies on:
//!
//! * per-channel **read and write queues** sized in DRAM bursts (Table III:
//!   32 / 64), with backpressure to the injector when full;
//! * requests split into **32 B bursts** matched to the DRAM interface;
//! * **FR-FCFS** scheduling (row hits first, then oldest);
//! * an **open-adaptive page policy** (keep rows open while hits are
//!   pending, precharge early when only conflicts remain);
//! * a **write-drain** mode with high/low thresholds (85 % / 50 %) and
//!   read→write turnaround tracking.
//!
//! Every metric of the paper's §IV evaluation is a first-class output of
//! [`DramStats`]: DRAM bursts per op, queue lengths seen by arriving
//! requests (average and full distribution), row hits per op, reads per
//! turnaround, per-bank burst counts and memory access latency.
//!
//! # Example
//!
//! ```
//! use mocktails_dram::{DramConfig, MemorySystem};
//! use mocktails_trace::{Request, Trace};
//!
//! let trace = Trace::from_requests(
//!     (0..1000u64).map(|i| Request::read(i * 8, 0x1000 + i * 64, 64)).collect(),
//! );
//! let mut system = MemorySystem::new(DramConfig::default());
//! let stats = system.run_trace(&trace);
//! assert_eq!(stats.total_read_bursts(), 2000); // 64 B = two 32 B bursts
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod config;
mod stats;
mod system;

pub use config::{
    AddressMapping, DramConfig, DramTiming, MappingScheme, PagePolicy, SchedulingPolicy,
};
pub use stats::{ChannelStats, DramStats, Histogram, PortStats};
pub use system::MemorySystem;
