//! `validate`: the SoC architect's path (paper Fig. 1).
//!
//! Set-up fits the Table II profiles, synthesizes their Option A traces
//! and replays the original traces as baselines. Each pass then replays
//! the 18 Option A traces through DRAM, runs the 18 profiles coupled to
//! DRAM (Option B, `run_synthesizer`), and replays the Dynamic synthetic
//! traces of four SPEC-like benchmarks through L1/L2. There is no fitting
//! or codec work here: a fit or decode gain must leave this workload flat.

use mocktails_cache::{CacheHierarchy, HierarchyStats};
use mocktails_core::{HierarchyConfig, Profile};
use mocktails_dram::{DramConfig, DramStats, MemorySystem};
use mocktails_pool::Parallelism;
use mocktails_sim::error::{geo_mean, pct_error};
use mocktails_sim::harness::{CacheEvalOptions, EvalOptions};
use mocktails_trace::Trace;
use mocktails_workloads::{spec, Device};

use crate::common::median_secs;
use crate::spans::Scope;
use crate::{golden, inputs, Bench, Config, Layers, Outcome, Pass, Timed, FIT_THREADS};

/// The SPEC-like benchmarks whose Dynamic traces go through L1/L2.
const CACHE_BENCHMARKS: [&str; 4] = ["gcc", "mcf", "hmmer", "libquantum"];

/// The L1 configuration replayed: 32 KiB, 4-way (the second Fig. 14
/// configuration).
const L1_BYTES: u64 = 32 << 10;
const L1_WAYS: usize = 4;

pub(crate) struct Validate {
    names: Vec<&'static str>,
    devices: Vec<Device>,
    profiles: Vec<Profile>,
    option_a: Vec<Trace>,
    base: Vec<DramStats>,
    spec_synthetic: Vec<Trace>,
    spec_base: Vec<HierarchyStats>,
    synth_seed: u64,
    requests: u64,
    reference: Option<Outputs>,
    /// Invariant violations found during set-up.
    setup_failures: Vec<String>,
}

#[derive(PartialEq)]
struct Outputs {
    option_a: Vec<DramStats>,
    option_b: Vec<DramStats>,
    cache: Vec<HierarchyStats>,
}

fn dram() -> MemorySystem {
    MemorySystem::new(DramConfig::default())
}

fn caches() -> CacheHierarchy {
    CacheHierarchy::paper_config(L1_BYTES, L1_WAYS)
}

impl Bench for Validate {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let table = inputs::catalog_table();
        let eval = EvalOptions::default();
        let config = HierarchyConfig::two_level_ts(eval.cycles_per_phase);
        let synth_seed = inputs::synth_seed(cfg.seed);
        let mut setup_failures = Vec::new();
        let mut check_synthetic = |name: &str, original: &Trace, synthetic: &Trace| {
            if synthetic.len() != original.len() || synthetic.reads() != original.reads() {
                setup_failures.push(format!(
                    "{name}: synthetic trace has {} requests ({} reads), input {} ({})",
                    synthetic.len(),
                    synthetic.reads(),
                    original.len(),
                    original.reads()
                ));
            }
        };

        let (mut profiles, mut option_a, mut base) = (Vec::new(), Vec::new(), Vec::new());
        for entry in &table {
            let trace = entry.generate(cfg.seed, cfg.scale);
            let profile = Profile::fit_with(&trace, &config, Parallelism::new(FIT_THREADS));
            let synthetic = profile.synthesize(synth_seed);
            check_synthetic(entry.name, &trace, &synthetic);
            base.push(dram().run_trace(&trace));
            profiles.push(profile);
            option_a.push(synthetic);
        }

        let cache = CacheEvalOptions::default();
        let dynamic = HierarchyConfig::two_level_requests_dynamic(cache.requests_per_phase);
        let (mut spec_synthetic, mut spec_base) = (Vec::new(), Vec::new());
        for name in CACHE_BENCHMARKS {
            let trace = spec::generate_n(name, inputs::spec_seed(cfg.seed), cache.requests)
                .map_err(|e| format!("{name}: {e}"))?;
            let trace = cfg.scale.cut(trace);
            let synthetic = Profile::fit_with(&trace, &dynamic, Parallelism::new(FIT_THREADS))
                .synthesize(inputs::cache_synth_seed(cfg.seed));
            check_synthetic(name, &trace, &synthetic);
            spec_base.push(caches().run_trace(&trace));
            spec_synthetic.push(synthetic);
        }

        let requests = option_a.iter().map(|t| t.len() as u64).sum::<u64>()
            + profiles.iter().map(Profile::total_requests).sum::<u64>()
            + spec_synthetic.iter().map(|t| t.len() as u64).sum::<u64>();
        Ok(Self {
            names: table.iter().map(|e| e.name).collect(),
            devices: table.iter().map(|e| e.device).collect(),
            profiles,
            option_a,
            base,
            spec_synthetic,
            spec_base,
            synth_seed,
            requests,
            reference: None,
            setup_failures,
        })
    }

    fn pass(&mut self, scope: Scope<'_>) -> Pass {
        scope.span("bench.pass", |s| {
            let mut pass = Pass {
                requests: self.requests,
                ..Pass::default()
            };
            // Each replay is one call; `f` returns the requests it moved.
            let mut timed = |name: &'static str, call: usize, f: &mut dyn FnMut() -> u64| {
                let started = std::time::Instant::now();
                s.with_call(call as u64).counted(name, |_| ((), f()));
                pass.latencies.push(started.elapsed().as_secs_f64());
            };
            let mut outputs = Outputs {
                option_a: Vec::new(),
                option_b: Vec::new(),
                cache: Vec::new(),
            };
            for (i, trace) in self.option_a.iter().enumerate() {
                timed("dram.replay", i, &mut || {
                    outputs.option_a.push(dram().run_trace(trace));
                    trace.len() as u64
                });
            }
            let mut emitted = Vec::new();
            for (i, profile) in self.profiles.iter().enumerate() {
                timed("dram.coupled", i, &mut || {
                    let mut synth = profile.synthesizer(self.synth_seed);
                    outputs.option_b.push(dram().run_synthesizer(&mut synth));
                    emitted.push(synth.emitted());
                    synth.emitted()
                });
            }
            for (i, trace) in self.spec_synthetic.iter().enumerate() {
                timed("cache.replay", i, &mut || {
                    outputs.cache.push(caches().run_trace(trace));
                    trace.len() as u64
                });
            }
            s.span("bench.check", |_| {
                for ((name, profile), emitted) in self.names.iter().zip(&self.profiles).zip(emitted)
                {
                    if emitted != profile.total_requests() {
                        pass.mismatches.push(format!(
                            "{name}: coupled run emitted {emitted} of {} requests",
                            profile.total_requests()
                        ));
                    }
                }
                match &self.reference {
                    None => self.reference = Some(outputs),
                    Some(reference) if *reference == outputs => {}
                    Some(_) => pass
                        .mismatches
                        .push("DRAM or cache statistics differ from the warm-up pass".into()),
                }
            });
            pass
        })
    }

    fn check_reference(&mut self, cfg: &Config, out: &mut Outcome) {
        out.failures.append(&mut self.setup_failures);
        let Some(reference) = &self.reference else {
            return;
        };
        if golden::applies(cfg) {
            out.failures.extend(inputs::check_catalog_table());
            for (i, &(key, want_a, want_b)) in golden::DRAM.iter().enumerate() {
                out.check(key == self.names[i], || {
                    format!("golden DRAM table out of order at {key}")
                });
                golden::check(
                    out,
                    "Option A DRAM stats",
                    key,
                    want_a,
                    golden::of_debug(&reference.option_a[i]),
                );
                golden::check(
                    out,
                    "Option B DRAM stats",
                    key,
                    want_b,
                    golden::of_debug(&reference.option_b[i]),
                );
            }
            for (i, &(key, want)) in golden::CACHE.iter().enumerate() {
                out.check(key == CACHE_BENCHMARKS[i], || {
                    format!("golden cache table out of order at {key}")
                });
                golden::check(
                    out,
                    "cache stats",
                    key,
                    want,
                    golden::of_debug(&reference.cache[i]),
                );
            }
        }
        for stats in &reference.cache {
            out.check(stats.l1.accesses > 0, || {
                "a cache replay made no L1 accesses".into()
            });
        }
        out.line(format!(
            "row_hit_err_pct {:.6} (worst-device geometric mean of McC read row-hit error, Fig. 9)",
            self.row_hit_err_pct(reference)
        ));
        out.line(format!(
            "l1_miss_err_pct {:.6} (mean Dynamic L1 miss-rate error, 32 KiB 4-way, Fig. 14)",
            self.l1_miss_err_pct(reference)
        ));
    }

    fn finish(self, cfg: &Config, timed: &Timed<'_>, layers: &mut Layers, out: &mut Outcome) {
        let Some(reference) = &self.reference else {
            return;
        };
        if !cfg.trace {
            return;
        }
        // Option B spans cover synthesis as well as DRAM; the synthesis
        // share is the same profiles synthesized alone, timed here.
        let synth_s: f64 = self
            .profiles
            .iter()
            .map(|p| median_secs(3, || p.synthesize(self.synth_seed)))
            .sum();
        let coupled_requests: u64 = self.profiles.iter().map(Profile::total_requests).sum();
        let replay_s = timed.per_pass("dram.replay");
        let cache_s = timed.per_pass("cache.replay");
        let (misses, accesses) = reference
            .cache
            .iter()
            .fold((0, 0), |(m, a), s| (m + s.l1.misses, a + s.l1.accesses));
        out.line(format!(
            "synthesis alone takes {synth_s:.6} s of the {:.6} s coupled runs per pass",
            timed.per_pass("dram.coupled")
        ));
        for (name, value) in [
            ("synth.self_s", synth_s),
            ("synth.requests_per_s", coupled_requests as f64 / synth_s),
            ("dram.replay_s", replay_s),
            (
                "dram.replay_requests_per_s",
                timed.items_per_pass("dram.replay") / replay_s,
            ),
            (
                "dram.coupled_self_s",
                timed.per_pass("dram.coupled") - synth_s,
            ),
            (
                "dram.read_row_hits",
                reference
                    .option_a
                    .iter()
                    .map(DramStats::total_read_row_hits)
                    .sum::<u64>() as f64,
            ),
            (
                "dram.stall_cycles",
                reference
                    .option_b
                    .iter()
                    .map(|s| s.stall_cycles)
                    .sum::<u64>() as f64,
            ),
            ("cache.replay_s", cache_s),
            (
                "cache.requests_per_s",
                timed.items_per_pass("cache.replay") / cache_s,
            ),
            ("cache.l1_miss_rate", misses as f64 / accesses as f64),
            ("row_hit_err_pct", self.row_hit_err_pct(reference)),
            ("l1_miss_err_pct", self.l1_miss_err_pct(reference)),
        ] {
            layers.insert(name, value);
        }
    }
}

impl Validate {
    /// Fig. 9's McC read row-hit error: per device, the geometric mean
    /// over its traces of the % error against the baseline; the worst
    /// device.
    fn row_hit_err_pct(&self, reference: &Outputs) -> f64 {
        Device::ALL
            .iter()
            .map(|&device| {
                let errors: Vec<f64> = (0..self.names.len())
                    .filter(|&i| self.devices[i] == device)
                    .map(|i| {
                        pct_error(
                            self.base[i].total_read_row_hits() as f64,
                            reference.option_a[i].total_read_row_hits() as f64,
                        )
                    })
                    .collect();
                geo_mean(&errors)
            })
            .fold(0.0, f64::max)
    }

    /// Mean % error of the Dynamic synthetic L1 miss rate against the
    /// baseline's.
    fn l1_miss_err_pct(&self, reference: &Outputs) -> f64 {
        let errors: f64 = self
            .spec_base
            .iter()
            .zip(&reference.cache)
            .map(|(base, synthetic)| pct_error(base.l1.miss_rate(), synthetic.l1.miss_rate()))
            .sum();
        errors / self.spec_base.len() as f64
    }
}
