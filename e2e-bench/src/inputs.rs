//! Seeded inputs.
//!
//! Seed 0 reproduces the paper's evaluation inputs exactly: every Table II
//! trace at its catalog seed, synthesis at the `EvalOptions` and
//! `CacheEvalOptions` default seed, and the SPEC-like traces at the seed
//! the cache harness uses. Seed `s` XORs `s` into each of those seeds. The
//! program under test only ever sees the generated traces.

use mocktails_sim::harness::{CacheEvalOptions, EvalOptions};
use mocktails_trace::codec::{write_trace, RecordEncoder};
use mocktails_trace::Trace;
use mocktails_workloads::{catalog, cpu, dpu, gpu, vpu, Device};

use crate::Scale;

/// Seed `mocktails_sim::harness::cache_trace_set` generates SPEC-like
/// traces with.
const SPEC_SEED: u64 = 1;

/// One Table II trace: its generator and catalog seed.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// Table II name.
    pub name: &'static str,
    /// The device that produced it.
    pub device: Device,
    /// Catalog seed (the generator seed at benchmark seed 0).
    pub seed: u64,
    /// The generator.
    pub generator: fn(u64) -> Trace,
}

impl CatalogEntry {
    /// The trace at benchmark seed `seed`, cut to the scale's length.
    pub fn generate(&self, seed: u64, scale: Scale) -> Trace {
        scale.cut((self.generator)(self.seed ^ seed))
    }
}

/// The benchmark's own copy of the Table II generator table, so that the
/// generator seed can be varied. [`check_catalog_table`] proves it equal
/// to `mocktails_workloads::catalog` at seed 0.
pub fn catalog_table() -> [CatalogEntry; 18] {
    fn entry(
        name: &'static str,
        device: Device,
        seed: u64,
        generator: fn(u64) -> Trace,
    ) -> CatalogEntry {
        CatalogEntry {
            name,
            device,
            seed,
            generator,
        }
    }
    let crypto: fn(u64) -> Trace = |s| cpu::crypto(s, &cpu::CryptoParams::default());
    let fbc_linear: fn(u64) -> Trace = |s| dpu::fbc_linear(s, &dpu::FbcParams::default());
    let fbc_tiled: fn(u64) -> Trace = |s| dpu::fbc_tiled(s, &dpu::FbcParams::default());
    let opencl: fn(u64) -> Trace = |s| gpu::opencl(s, &gpu::OpenClParams::default());
    let hevc: fn(u64) -> Trace = |s| vpu::hevc(s, &vpu::HevcParams::default());
    [
        entry("Crypto1", Device::Cpu, 101, crypto),
        entry("Crypto2", Device::Cpu, 102, crypto),
        entry("CPU-D", Device::Cpu, 103, |s| {
            cpu::companion(s, 0, &cpu::CompanionParams::default())
        }),
        entry("CPU-G", Device::Cpu, 104, |s| {
            cpu::companion(s, 1, &cpu::CompanionParams::default())
        }),
        entry("CPU-V", Device::Cpu, 105, |s| {
            cpu::companion(s, 2, &cpu::CompanionParams::default())
        }),
        entry("FBC-Linear1", Device::Dpu, 201, fbc_linear),
        entry("FBC-Linear2", Device::Dpu, 202, fbc_linear),
        entry("FBC-Tiled1", Device::Dpu, 203, fbc_tiled),
        entry("FBC-Tiled2", Device::Dpu, 204, fbc_tiled),
        entry("Multi-layer", Device::Dpu, 205, |s| {
            dpu::multi_layer(s, &dpu::MultiLayerParams::default())
        }),
        entry("T-Rex1", Device::Gpu, 301, gpu::trex),
        entry("T-Rex2", Device::Gpu, 302, gpu::trex),
        entry("Manhattan", Device::Gpu, 303, gpu::manhattan),
        entry("OpenCL1", Device::Gpu, 304, opencl),
        entry("OpenCL2", Device::Gpu, 305, opencl),
        entry("HEVC1", Device::Vpu, 401, hevc),
        entry("HEVC2", Device::Vpu, 402, hevc),
        entry("HEVC3", Device::Vpu, 403, hevc),
    ]
}

/// The table entry named `name`.
///
/// # Panics
///
/// Panics on a name outside Table II (a bug in the caller).
pub fn catalog_entry(name: &str) -> CatalogEntry {
    *catalog_table()
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not a Table II trace"))
}

/// Mismatches between [`catalog_table`] at seed 0 and
/// `mocktails_workloads::catalog`, one message each.
pub fn check_catalog_table() -> Vec<String> {
    let table = catalog_table();
    let mut failures = Vec::new();
    if table.len() != catalog::all().len() {
        failures.push(format!(
            "generator table has {} traces, the catalog {}",
            table.len(),
            catalog::all().len()
        ));
    }
    for entry in &table {
        match catalog::by_name(entry.name) {
            Some(spec)
                if spec.device() == entry.device
                    && spec.generate() == entry.generate(0, Scale::Full) => {}
            _ => failures.push(format!(
                "generator table entry {} does not reproduce the catalog",
                entry.name
            )),
        }
    }
    failures
}

/// Synthesis seed of the DRAM evaluations (`EvalOptions`).
pub fn synth_seed(seed: u64) -> u64 {
    EvalOptions::default().seed ^ seed
}

/// Synthesis seed of the cache evaluations (`CacheEvalOptions`).
pub fn cache_synth_seed(seed: u64) -> u64 {
    CacheEvalOptions::default().seed ^ seed
}

/// Generator seed of the SPEC-like cache traces.
pub fn spec_seed(seed: u64) -> u64 {
    SPEC_SEED ^ seed
}

/// A trace's whole encoding (header and records).
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("encoding to memory cannot fail");
    bytes
}

/// A trace's record section only: what a served synthesis stream carries.
pub fn encode_records(trace: &Trace) -> Vec<u8> {
    let mut encoder = RecordEncoder::new();
    let mut bytes = Vec::new();
    for request in trace.iter() {
        encoder
            .encode(&mut bytes, request)
            .expect("a trace's requests are in timestamp order");
    }
    bytes
}
