//! `model`: the IP owner's path plus Option A generation (paper Fig. 1).
//!
//! Each call takes one encoded Table II trace through trace decode → fit →
//! profile encode → validated profile decode → synthesis → trace encode. A
//! traced pass replaces `Profile::fit_with` with the calls it is made of
//! (`hierarchy::partition`, `Parallelism::map(LeafModel::fit)`,
//! `Profile::from_parts`); since every pass is byte-compared against the
//! untraced warm-up pass, the decomposition cannot drift from `fit_with`.

use std::time::Instant;

use mocktails_core::partition::hierarchy;
use mocktails_core::{HierarchyConfig, LeafModel, Profile};
use mocktails_pool::Parallelism;
use mocktails_sim::harness::EvalOptions;
use mocktails_trace::codec::{read_trace, write_trace};
use mocktails_trace::{fnv1a, DecodeOptions, Trace};

use crate::common::median_secs;
use crate::spans::Scope;
use crate::{golden, inputs, Bench, Config, Layers, Outcome, Pass, Timed, FIT_THREADS};

pub(crate) struct Model {
    names: Vec<&'static str>,
    encoded: Vec<Vec<u8>>,
    requests: u64,
    config: HierarchyConfig,
    synth_seed: u64,
    reference: Option<Outputs>,
}

struct Outputs {
    profiles: Vec<Vec<u8>>,
    synthetic: Vec<Vec<u8>>,
}

impl Model {
    fn fit(&self, trace: &Trace, scope: Scope<'_>) -> Profile {
        let parallelism = Parallelism::new(FIT_THREADS);
        if !scope.is_on() {
            return Profile::fit_with(trace, &self.config, parallelism);
        }
        let partitions = scope.counted("partition", |_| {
            let partitions = hierarchy::partition(trace, &self.config);
            let n = partitions.len() as u64;
            (partitions, n)
        });
        scope.counted("fit", move |_| {
            let leaves = parallelism.map(&partitions, LeafModel::fit);
            let n = leaves.len() as u64;
            (Profile::from_parts(self.config.clone(), leaves), n)
        })
    }

    /// One call: returns the encoded profile and synthetic trace.
    fn call(&self, i: usize, s: Scope<'_>) -> Result<(Vec<u8>, Vec<u8>), String> {
        let trace = s.counted("trace.decode", |_| {
            let trace = read_trace(&mut self.encoded[i].as_slice());
            let n = trace.as_ref().map_or(0, |t| t.len() as u64);
            (trace, n)
        });
        let trace = trace.map_err(|e| format!("trace decode: {e}"))?;
        let profile = self.fit(&trace, s);
        let mut profile_bytes = Vec::new();
        s.span("profile.encode", |_| profile.write(&mut profile_bytes))
            .map_err(|e| format!("profile encode: {e}"))?;
        let decoded = s
            .span("profile.decode", |_| {
                Profile::read(&mut profile_bytes.as_slice(), &DecodeOptions::default())
            })
            .map_err(|e| format!("profile decode: {e}"))?;
        let synthetic = s.counted("synth", |_| {
            let t = decoded.synthesize(self.synth_seed);
            let n = t.len() as u64;
            (t, n)
        });
        let mut synthetic_bytes = Vec::new();
        s.span("trace.encode", |_| {
            write_trace(&mut synthetic_bytes, &synthetic)
        })
        .map_err(|e| format!("trace encode: {e}"))?;
        Ok((profile_bytes, synthetic_bytes))
    }
}

impl Bench for Model {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let table = inputs::catalog_table();
        let traces: Vec<Trace> = table
            .iter()
            .map(|e| e.generate(cfg.seed, cfg.scale))
            .collect();
        Ok(Self {
            names: table.iter().map(|e| e.name).collect(),
            encoded: traces.iter().map(inputs::encode).collect(),
            requests: traces.iter().map(|t| t.len() as u64).sum(),
            config: HierarchyConfig::two_level_ts(EvalOptions::default().cycles_per_phase),
            synth_seed: inputs::synth_seed(cfg.seed),
            reference: None,
        })
    }

    fn pass(&mut self, scope: Scope<'_>) -> Pass {
        scope.span("bench.pass", |s| {
            let mut pass = Pass {
                requests: self.requests,
                ..Pass::default()
            };
            let mut outputs = Outputs {
                profiles: Vec::new(),
                synthetic: Vec::new(),
            };
            for i in 0..self.encoded.len() {
                let started = Instant::now();
                let result = s
                    .with_call(i as u64)
                    .span("bench.call", |c| self.call(i, c));
                match result {
                    Ok((profile, synthetic)) => {
                        pass.latencies.push(started.elapsed().as_secs_f64());
                        outputs.profiles.push(profile);
                        outputs.synthetic.push(synthetic);
                    }
                    Err(e) => {
                        pass.failed += 1;
                        pass.mismatches.push(format!("{}: {e}", self.names[i]));
                        outputs.profiles.push(Vec::new());
                        outputs.synthetic.push(Vec::new());
                    }
                }
            }
            s.span("bench.check", |_| match &self.reference {
                None => self.reference = Some(outputs),
                Some(reference) => {
                    for (i, name) in self.names.iter().enumerate() {
                        if outputs.profiles[i] != reference.profiles[i]
                            || outputs.synthetic[i] != reference.synthetic[i]
                        {
                            pass.mismatches
                                .push(format!("{name}: outputs differ from the warm-up pass"));
                        }
                    }
                }
            });
            pass
        })
    }

    fn check_reference(&mut self, cfg: &Config, out: &mut Outcome) {
        let Some(reference) = &self.reference else {
            return;
        };
        let golden = golden::applies(cfg);
        if golden {
            out.failures.extend(inputs::check_catalog_table());
        }
        let (mut profile_bytes, mut trace_bytes) = (0, 0);
        for (i, name) in self.names.iter().enumerate() {
            let input = read_trace(&mut self.encoded[i].as_slice()).expect("input decodes");
            let (profile, synthetic) = (&reference.profiles[i], &reference.synthetic[i]);
            match read_trace(&mut synthetic.as_slice()) {
                Ok(s) => out.check(s.len() == input.len() && s.reads() == input.reads(), || {
                    format!(
                        "{name}: synthetic trace has {} requests ({} reads), input {} ({})",
                        s.len(),
                        s.reads(),
                        input.len(),
                        input.reads()
                    )
                }),
                Err(e) => out.failures.push(format!("{name}: synthetic trace: {e}")),
            }
            let round_trip = Profile::read(&mut profile.as_slice(), &DecodeOptions::default())
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    let mut again = Vec::new();
                    p.write(&mut again).map_err(|e| e.to_string())?;
                    Ok(again)
                });
            out.check(round_trip.as_ref() == Ok(profile), || {
                format!("{name}: profile does not round-trip byte-identically")
            });
            if golden {
                let (key, want_profile, want_synthetic) = golden::MODEL[i];
                out.check(key == *name, || {
                    format!("golden model table out of order at {name}")
                });
                golden::check(out, "profile", name, want_profile, fnv1a(profile));
                golden::check(
                    out,
                    "synthetic trace",
                    name,
                    want_synthetic,
                    fnv1a(synthetic),
                );
            }
            profile_bytes += profile.len();
            trace_bytes += self.encoded[i].len();
        }
        out.line(format!(
            "profile_size_ratio {:.6} ({profile_bytes} profile bytes / {trace_bytes} trace bytes)",
            profile_bytes as f64 / trace_bytes as f64
        ));
    }

    fn finish(self, cfg: &Config, timed: &Timed<'_>, layers: &mut Layers, out: &mut Outcome) {
        let Some(reference) = &self.reference else {
            return;
        };
        let profile_bytes: usize = reference.profiles.iter().map(Vec::len).sum();
        let synthetic_bytes: usize = reference.synthetic.iter().map(Vec::len).sum();
        let input_bytes: usize = self.encoded.iter().map(Vec::len).sum();
        layers.insert(
            "profile_size_ratio",
            profile_bytes as f64 / input_bytes as f64,
        );
        if !cfg.trace {
            return;
        }
        let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
        let decode_s = timed.per_pass("trace.decode");
        let encode_s = timed.per_pass("trace.encode");
        let fit_s = timed.per_pass("fit");
        let synth_s = timed.per_pass("synth");
        let leaves = timed.items_per_pass("partition");
        for (name, value) in [
            ("trace.decode_s", decode_s),
            ("trace.decode_mb_per_s", mb(input_bytes) / decode_s),
            ("trace.encode_s", encode_s),
            ("trace.encode_mb_per_s", mb(synthetic_bytes) / encode_s),
            ("partition.self_s", timed.per_pass("partition")),
            ("partition.leaves", leaves),
            ("fit.self_s", fit_s),
            ("fit.leaves_per_s", leaves / fit_s),
            ("profile.encode_s", timed.per_pass("profile.encode")),
            ("profile.decode_s", timed.per_pass("profile.decode")),
            ("profile.bytes", profile_bytes as f64),
            ("synth.self_s", synth_s),
            (
                "synth.requests_per_s",
                timed.items_per_pass("synth") / synth_s,
            ),
            ("pool.fit_speedup", self.fit_speedup(out)),
        ] {
            layers.insert(name, value);
        }
    }
}

impl Model {
    /// Leaf-fit wall time of one pass's partitions at one thread over the
    /// same at [`FIT_THREADS`] threads.
    fn fit_speedup(&self, out: &mut Outcome) -> f64 {
        let partitions: Vec<_> = self
            .encoded
            .iter()
            .map(|bytes| {
                let trace = read_trace(&mut bytes.as_slice()).expect("input decodes");
                hierarchy::partition(&trace, &self.config)
            })
            .collect();
        let fit_all = |threads: usize| {
            median_secs(3, || {
                partitions
                    .iter()
                    .map(|p| Parallelism::new(threads).map(p, LeafModel::fit).len())
                    .sum::<usize>()
            })
        };
        let (one, many) = (fit_all(1), fit_all(FIT_THREADS));
        out.line(format!(
            "pool: leaf fits of one pass take {one:.4} s at 1 thread, {many:.4} s at {FIT_THREADS}"
        ));
        one / many
    }
}
