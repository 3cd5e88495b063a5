//! The `mocktails` command-line interface.
//!
//! Implements the paper's Fig. 1 workflow end to end:
//!
//! ```text
//! mocktails catalog                          # Table II: available traces
//! mocktails trace HEVC1 -o hevc1.mtrace      # industry: dump a trace
//! mocktails profile hevc1.mtrace -o hevc1.mprofile [--cycles 500000]
//! mocktails synth hevc1.mprofile -o synthetic.mtrace [--seed 1]
//! mocktails validate HEVC1 [--cycles 500000] # trace vs McC vs STM metrics
//! mocktails experiment fig09 [--quick]       # regenerate a paper figure
//! mocktails experiment all --quick           # ...or every one in turn
//! ```

use std::fs::File;
use std::io::{Read, Write};
use std::process::ExitCode;

use mocktails_core::profile::write_profile;
use mocktails_core::{HierarchyConfig, LayerSpec, Profile, ProfileError};
use mocktails_pool::Parallelism;
use mocktails_sim::experiments::meta;
use mocktails_sim::experiments::registry::{self, EXPERIMENTS};
use mocktails_sim::harness::{evaluate_dram, EvalOptions};
use mocktails_sim::table::TextTable;
use mocktails_trace::fault::AtomicFileWriter;
use mocktails_trace::{codec, DecodeOptions, Trace, TraceError};
use mocktails_workloads::catalog;

/// A classified CLI failure, mapped to a distinct process exit code so
/// scripts can tell operator mistakes from hostile inputs from a failing
/// disk:
///
/// * `2` — usage error (bad command line); the only class that prints the usage text
/// * `3` — corrupt or hostile input file (includes unexpected EOF)
/// * `4` — environmental I/O failure (permissions, missing file, full disk)
/// * `5` — serving-layer failure (connection refused, typed server error)
/// * `6` — the server shed the request (`Busy`); transient by contract,
///   so a script should back off and retry rather than fail the run
#[derive(Debug)]
enum CliError {
    Usage(String),
    Corrupt(String),
    Io(String),
    Server(String),
    Busy(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Corrupt(_) => 3,
            CliError::Io(_) => 4,
            CliError::Server(_) => 5,
            CliError::Busy(_) => 6,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Corrupt(m)
            | CliError::Io(m)
            | CliError::Server(m)
            | CliError::Busy(m) => m,
        }
    }
}

fn classify_serve_error(context: &str, e: mocktails_serve::ServeError) -> CliError {
    match &e {
        mocktails_serve::ServeError::Remote {
            code: mocktails_serve::ErrorCode::Busy,
            message,
        } => CliError::Busy(format!(
            "{context}: server busy: {message} (transient — back off and retry; exit code 6)"
        )),
        _ => CliError::Server(format!("{context}: {e}")),
    }
}

/// Classifies a trace codec error: decode-level failures (including a
/// truncated stream) mean the *input* is bad; any other I/O error means
/// the *environment* is bad.
fn classify_trace_error(context: &str, e: TraceError) -> CliError {
    match &e {
        TraceError::Io(io) if io.kind() != std::io::ErrorKind::UnexpectedEof => {
            CliError::Io(format!("{context}: {e}"))
        }
        _ => CliError::Corrupt(format!("{context}: {e}")),
    }
}

fn classify_profile_error(context: &str, e: ProfileError) -> CliError {
    match e {
        ProfileError::Codec(te) => classify_trace_error(context, te),
        other => CliError::Corrupt(format!("{context}: {other}")),
    }
}

fn io_error(context: &str, e: std::io::Error) -> CliError {
    CliError::Io(format!("{context}: {e}"))
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.message());
            if let CliError::Usage(_) = err {
                eprintln!();
                eprintln!("{}", usage_text());
            }
            ExitCode::from(err.exit_code())
        }
    }
}

const USAGE_HEAD: &str = "usage:
  mocktails catalog
  mocktails trace <NAME> -o <FILE.mtrace>
  mocktails profile <FILE.mtrace> -o <FILE.mprofile> [--cycles N]
  mocktails synth <FILE.mprofile> -o <FILE.mtrace> [--seed N]
  mocktails validate <NAME> [--cycles N] [--max-requests N]
  mocktails stats <FILE.mtrace|FILE.csv|NAME>
  mocktails compare <FILE-A> <FILE-B>   (feature distances + leakage)";

const USAGE_TAIL: &str = "                       [--quick]
  mocktails serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
                  [--cache-cap N] [--port-file FILE] [--max-conns N]
                  [--store DIR]   (crash-recoverable profile store)
  mocktails client fit <FILE.mtrace> --addr HOST:PORT -o <FILE.mprofile>
                   [--cycles N]
  mocktails client synth <FILE.mprofile> --addr HOST:PORT -o <FILE.mtrace>
                   [--seed N] [--chunk N] [--fingerprint HEX (instead of FILE)]
  mocktails client couple <FILE.mprofile> --addr HOST:PORT -o <FILE.mtrace>
                   [--seed N] [--chunk N] [--fingerprint HEX (instead of FILE)]
                   (closed-loop Option B: chunks paced by the server's DRAM
                    model; prints simulated cycles and stalls fed back)
  mocktails client stats <FILE.mprofile|--fingerprint HEX> --addr HOST:PORT
  mocktails client metricsz --addr HOST:PORT
  mocktails client compact --addr HOST:PORT   (checkpoint the server's store)
  mocktails client shutdown --addr HOST:PORT
  mocktails store inspect <DIR>   (recover and describe a profile store)
  mocktails store compact <DIR>   (checkpoint + truncate its log offline)

Every command also accepts --threads N (worker threads; default: all cores,
or the MOCKTAILS_THREADS environment variable). Results are bit-identical
at any thread count.

Trace files ending in .csv are written/read as CSV; anything else uses the
compact binary format.";

/// The usage text, with the `experiment` id list rendered from the
/// registry and wrapped at 78 columns.
fn usage_text() -> String {
    let ids: Vec<&str> = std::iter::once("all")
        .chain(EXPERIMENTS.iter().map(|e| e.id))
        .collect();
    let mut text = format!("{USAGE_HEAD}\n");
    let mut line = String::from("  mocktails experiment <");
    for (i, id) in ids.iter().enumerate() {
        let sep = if i + 1 == ids.len() { '>' } else { '|' };
        if line.len() + id.len() + 1 > 78 {
            text.push_str(&line);
            text.push('\n');
            line = " ".repeat(24);
        }
        line.push_str(id);
        line.push(sep);
    }
    format!("{text}{line}\n{USAGE_TAIL}")
}

fn run(args: &[String]) -> Result<(), CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| usage("missing command"))?;
    let rest: Vec<&String> = it.collect();
    pin_parallelism(&rest)?;
    match command.as_str() {
        "catalog" => {
            println!("{}", meta::table2_report());
            Ok(())
        }
        "trace" => cmd_trace(&rest),
        "profile" => cmd_profile(&rest),
        "synth" => cmd_synth(&rest),
        "validate" => cmd_validate(&rest),
        "stats" => cmd_stats(&rest),
        "compare" => cmd_compare(&rest),
        "experiment" => cmd_experiment(&rest),
        "serve" => cmd_serve(&rest),
        "client" => cmd_client(&rest),
        "store" => cmd_store(&rest),
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

/// Applies the global `--threads N` flag (every command accepts it): pins
/// the process-wide [`Parallelism`] before any work runs. Zero is a usage
/// error — `--threads 1` is the way to ask for the sequential path.
fn pin_parallelism(args: &[&String]) -> Result<(), CliError> {
    if let Some(v) = flag_value(args, "--threads") {
        let threads: usize = v.parse().map_err(|_| usage("--threads expects a number"))?;
        if threads == 0 {
            return Err(usage("--threads must be at least 1"));
        }
        Parallelism::new(threads).make_current();
    }
    Ok(())
}

/// Builds the 2L-TS hierarchy for a user-supplied `--cycles` value through
/// the fallible builder, mapping invalid input (zero cycles) to a usage
/// error instead of a library panic.
fn phase_config(cycles: u64) -> Result<HierarchyConfig, CliError> {
    HierarchyConfig::builder()
        .layer(LayerSpec::TemporalCycleCount(cycles))
        .layer(LayerSpec::SpatialDynamic)
        .build()
        .map_err(|e| usage(format!("--cycles: {e}")))
}

fn flag_value(args: &[&String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| args.get(i + 1).map(|s| s.to_string()))
}

fn parse_u64(args: &[&String], flag: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, flag) {
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("{flag} expects a number"))),
        None => Ok(default),
    }
}

/// Flags that take no value, so never consume the argument after them.
const SWITCHES: [&str; 1] = ["--quick"];

fn positional<'a>(args: &'a [&String], index: usize) -> Result<&'a str, CliError> {
    let mut seen = 0;
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if SWITCHES.contains(&a.as_str()) {
            continue;
        }
        if a.starts_with("--") || a.as_str() == "-o" {
            skip = true;
            continue;
        }
        if seen == index {
            return Ok(a.as_str());
        }
        seen += 1;
    }
    Err(usage(format!("missing positional argument {index}")))
}

/// Writes `bytes` to `out` atomically: the destination appears only after
/// a fully written, fsynced temporary is renamed over it.
fn write_atomically(out: &str, bytes: &[u8]) -> Result<(), CliError> {
    let mut writer = AtomicFileWriter::create(out).map_err(|e| io_error(out, e))?;
    writer.write_all(bytes).map_err(|e| io_error(out, e))?;
    writer.commit().map_err(|e| io_error(out, e))
}

fn cmd_trace(args: &[&String]) -> Result<(), CliError> {
    let name = positional(args, 0)?;
    let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
    let spec = catalog::by_name(name).ok_or_else(|| usage(format!("unknown trace {name:?}")))?;
    let trace = spec.generate();
    let mut bytes = Vec::new();
    if out.ends_with(".csv") {
        codec::write_csv(&mut bytes, &trace)
    } else {
        codec::write_trace(&mut bytes, &trace)
    }
    .map_err(|e| classify_trace_error(&out, e))?;
    write_atomically(&out, &bytes)?;
    println!("wrote {} requests to {out}", trace.len());
    Ok(())
}

/// Reads a whole input file for decoding. A file that will not open is
/// an I/O error about the path; one that opens but fails to read is
/// classified like a codec I/O error (exit 4 either way).
fn read_input(path: &str) -> Result<Vec<u8>, CliError> {
    let mut bytes = Vec::new();
    File::open(path)
        .map_err(|e| io_error(path, e))?
        .read_to_end(&mut bytes)
        .map_err(|e| classify_trace_error(path, e.into()))?;
    Ok(bytes)
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let bytes = read_input(path)?;
    if path.ends_with(".csv") {
        codec::read_csv(&mut bytes.as_slice())
    } else {
        Trace::read(&mut bytes.as_slice(), &DecodeOptions::default())
    }
    .map_err(|e| classify_trace_error(path, e))
}

fn cmd_profile(args: &[&String]) -> Result<(), CliError> {
    let input = positional(args, 0)?;
    let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
    let cycles = parse_u64(args, "--cycles", 500_000)?;
    let config = phase_config(cycles)?;
    let trace = load_trace(input)?;
    let profile = Profile::fit(&trace, &config);
    let mut bytes = Vec::new();
    write_profile(&mut bytes, &profile);
    write_atomically(&out, &bytes)?;
    println!(
        "fitted {}; profile is {} bytes ({} trace bytes)",
        profile.summary(),
        bytes.len(),
        codec::trace_encoded_size(&trace),
    );
    Ok(())
}

fn cmd_synth(args: &[&String]) -> Result<(), CliError> {
    let input = positional(args, 0)?;
    let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
    let seed = parse_u64(args, "--seed", 1)?;
    let bytes = read_input(input)?;
    let profile = Profile::read(&mut bytes.as_slice(), &DecodeOptions::default())
        .map_err(|e| classify_profile_error(input, e))?;
    let trace = profile
        .try_synthesize(seed)
        .map_err(|e| classify_profile_error(input, e))?;
    let mut bytes = Vec::new();
    codec::write_trace(&mut bytes, &trace).map_err(|e| classify_trace_error(&out, e))?;
    write_atomically(&out, &bytes)?;
    println!("synthesized {} requests to {out}", trace.len());
    Ok(())
}

fn cmd_validate(args: &[&String]) -> Result<(), CliError> {
    let name = positional(args, 0)?;
    let cycles = parse_u64(args, "--cycles", 500_000)?;
    // Surface a zero --cycles as a usage error here, before the harness
    // hands the value to an infallible preset.
    let _ = phase_config(cycles)?;
    let max_requests = flag_value(args, "--max-requests")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| usage("--max-requests expects a number"))
        })
        .transpose()?;
    let spec = catalog::by_name(name).ok_or_else(|| usage(format!("unknown trace {name:?}")))?;
    let options = EvalOptions {
        cycles_per_phase: cycles,
        max_requests,
        ..EvalOptions::default()
    };
    let eval = evaluate_dram(&spec, &options);
    let mut t = TextTable::new(vec!["Metric", "Baseline", "2L-TS (McC)", "2L-TS (STM)"]);
    let row = |label: &str, f: &dyn Fn(&mocktails_dram::DramStats) -> String| {
        vec![label.to_string(), f(&eval.base), f(&eval.mcc), f(&eval.stm)]
    };
    t.row(row("Read bursts", &|s| s.total_read_bursts().to_string()));
    t.row(row("Write bursts", &|s| s.total_write_bursts().to_string()));
    t.row(row("Read row hits", &|s| {
        s.total_read_row_hits().to_string()
    }));
    t.row(row("Write row hits", &|s| {
        s.total_write_row_hits().to_string()
    }));
    t.row(row("Avg read queue", &|s| {
        format!("{:.2}", s.avg_read_queue_len())
    }));
    t.row(row("Avg write queue", &|s| {
        format!("{:.2}", s.avg_write_queue_len())
    }));
    t.row(row("Avg latency", &|s| {
        format!("{:.1}", s.avg_access_latency())
    }));
    println!("{} ({} device)\n{t}", spec.name(), spec.device());
    Ok(())
}

/// Loads a trace from a file path, or generates it if the argument is a
/// Table II name.
fn load_trace_or_catalog(arg: &str) -> Result<Trace, CliError> {
    if let Some(spec) = catalog::by_name(arg) {
        return Ok(spec.generate());
    }
    load_trace(arg)
}

fn cmd_stats(args: &[&String]) -> Result<(), CliError> {
    let source = positional(args, 0)?;
    let trace = load_trace_or_catalog(source)?;
    let stats = trace.stats();
    let mut t = TextTable::new(vec!["Metric", "Value"]);
    t.row(vec!["Requests".into(), stats.requests.to_string()]);
    t.row(vec!["Reads".into(), stats.reads.to_string()]);
    t.row(vec!["Writes".into(), stats.writes.to_string()]);
    t.row(vec![
        "Read fraction".into(),
        format!("{:.3}", stats.read_fraction),
    ]);
    t.row(vec!["Total bytes".into(), stats.total_bytes.to_string()]);
    t.row(vec![
        "Footprint".into(),
        stats
            .footprint
            .map(|r| format!("{r} ({} bytes)", r.len()))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row(vec!["Duration (cycles)".into(), stats.duration.to_string()]);
    t.row(vec![
        "Mean inter-arrival".into(),
        format!("{:.1}", stats.mean_inter_arrival),
    ]);
    t.row(vec![
        "Distinct sizes".into(),
        stats.size_histogram.len().to_string(),
    ]);
    t.row(vec![
        "Encoded size (B)".into(),
        codec::trace_encoded_size(&trace).to_string(),
    ]);
    println!("{source}\n{t}");
    Ok(())
}

fn cmd_compare(args: &[&String]) -> Result<(), CliError> {
    let a = load_trace_or_catalog(positional(args, 0)?)?;
    let b = load_trace_or_catalog(positional(args, 1)?)?;
    let distance = mocktails_sim::similarity::FeatureDistances::between(&a, &b);
    let privacy = mocktails_sim::privacy::PrivacyReport::between(&a, &b, 4_000);
    let mut t = TextTable::new(vec!["Metric", "Value"]);
    t.row(vec![
        "TV distance: stride".into(),
        format!("{:.3}", distance.stride),
    ]);
    t.row(vec![
        "TV distance: delta time".into(),
        format!("{:.3}", distance.delta_time),
    ]);
    t.row(vec![
        "TV distance: op".into(),
        format!("{:.3}", distance.op),
    ]);
    t.row(vec![
        "TV distance: size".into(),
        format!("{:.3}", distance.size),
    ]);
    t.row(vec![
        "3-gram leakage".into(),
        format!("{:.3}", privacy.trigram_leakage),
    ]);
    t.row(vec![
        "8-gram leakage".into(),
        format!("{:.3}", privacy.octagram_leakage),
    ]);
    t.row(vec![
        "Sequence overlap (LCS)".into(),
        format!("{:.3}", privacy.sequence_overlap),
    ]);
    println!("{t}");
    Ok(())
}

/// Runs one registered experiment, or every one in table order for `all`.
fn cmd_experiment(args: &[&String]) -> Result<(), CliError> {
    let id = positional(args, 0)?;
    let quick = args.iter().any(|a| a.as_str() == "--quick");
    if id == "all" {
        for experiment in EXPERIMENTS {
            println!("{}", experiment.report(quick));
        }
        return Ok(());
    }
    let report =
        registry::run(id, quick).ok_or_else(|| usage(format!("unknown experiment {id:?}")))?;
    println!("{report}");
    Ok(())
}

/// Every flag `serve` accepts; each takes a value.
const SERVE_FLAGS: [&str; 8] = [
    "--addr",
    "--workers",
    "--queue-cap",
    "--cache-cap",
    "--port-file",
    "--max-conns",
    "--store",
    "--threads",
];

/// Runs the streaming synthesis server until a client sends the protocol's
/// `shutdown` frame (graceful: in-flight requests drain, then exit 0).
fn cmd_serve(args: &[&String]) -> Result<(), CliError> {
    // A misspelt or retired flag is a usage error, never silently ignored.
    if let Some(unknown) = args
        .iter()
        .step_by(2)
        .find(|a| !SERVE_FLAGS.contains(&a.as_str()))
    {
        return Err(usage(format!("serve: unknown argument {unknown:?}")));
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let defaults = mocktails_serve::ServerConfig::default();
    let mut builder = mocktails_serve::ServerConfig::builder()
        .workers(parse_u64(args, "--workers", 4)? as usize)
        .queue_cap(parse_u64(args, "--queue-cap", 16)? as usize)
        .cache_capacity(parse_u64(args, "--cache-cap", 64)? as usize)
        .max_conns(parse_u64(args, "--max-conns", defaults.max_conns as u64)? as usize);
    if let Some(dir) = flag_value(args, "--store") {
        builder = builder.store_dir(dir);
    }
    let config = builder.build().map_err(|e| usage(e.to_string()))?;
    let clock = std::sync::Arc::new(mocktails_serve::MonotonicClock::new());
    let server = mocktails_serve::Server::bind(&addr, config, clock)
        .map_err(|e| classify_serve_error(&addr, e))?;
    let local = server.local_addr();
    if let Some(port_file) = flag_value(args, "--port-file") {
        // Scripts poll this file for the resolved ephemeral port; write it
        // atomically so they never read a half-written address.
        write_atomically(&port_file, format!("{local}\n").as_bytes())?;
    }
    println!("listening on {local}");
    std::io::stdout()
        .flush()
        .map_err(|e| io_error("stdout", e))?;
    server.run().map_err(|e| classify_serve_error("serve", e))?;
    println!("shutdown complete");
    Ok(())
}

/// Parses the `--fingerprint` flag (hex, with or without `0x`).
fn flag_fingerprint(args: &[&String]) -> Result<Option<u64>, CliError> {
    flag_value(args, "--fingerprint")
        .map(|v| {
            let digits = v.strip_prefix("0x").unwrap_or(&v);
            u64::from_str_radix(digits, 16)
                .map_err(|_| usage("--fingerprint expects a hex fingerprint"))
        })
        .transpose()
}

/// The profile source for `client synth`/`client stats`: `--fingerprint`
/// names a profile already in the server's cache, otherwise positional
/// `index` is a local `.mprofile` file uploaded inline.
fn client_source(
    args: &[&String],
    index: usize,
) -> Result<mocktails_serve::ProfileSource, CliError> {
    if let Some(fp) = flag_fingerprint(args)? {
        return Ok(mocktails_serve::ProfileSource::Fingerprint(fp));
    }
    let path = positional(args, index)
        .map_err(|_| usage("expected a profile file or --fingerprint HEX"))?;
    let bytes = std::fs::read(path).map_err(|e| io_error(path, e))?;
    Ok(mocktails_serve::ProfileSource::Inline(bytes))
}

fn client_connect(args: &[&String]) -> Result<mocktails_serve::Client, CliError> {
    let addr = flag_value(args, "--addr").ok_or_else(|| usage("missing --addr HOST:PORT"))?;
    mocktails_serve::Client::connect(&addr).map_err(|e| classify_serve_error(&addr, e))
}

fn cmd_client(args: &[&String]) -> Result<(), CliError> {
    let sub = positional(args, 0)?;
    match sub {
        "fit" => {
            let input = positional(args, 1)?;
            let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
            let cycles = parse_u64(args, "--cycles", 500_000)?;
            let trace_bytes = std::fs::read(input).map_err(|e| io_error(input, e))?;
            let mut client = client_connect(args)?;
            let fit = client
                .fit(cycles, trace_bytes)
                .map_err(|e| classify_serve_error(input, e))?;
            write_atomically(&out, &fit.profile_bytes)?;
            println!(
                "fitted via server: fingerprint {:#018x}, cache {}, {} bytes to {out}",
                fit.fingerprint,
                if fit.cache_hit { "hit" } else { "miss" },
                fit.profile_bytes.len(),
            );
            Ok(())
        }
        "synth" => {
            let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
            let seed = parse_u64(args, "--seed", 1)?;
            let chunk = parse_u64(args, "--chunk", 65_536)?;
            let chunk = u32::try_from(chunk).map_err(|_| usage("--chunk too large"))?;
            if chunk == 0 {
                return Err(usage("--chunk must be at least 1"));
            }
            let source = client_source(args, 1)?;
            let mut client = client_connect(args)?;
            let synth = client
                .synthesize(seed, chunk, source)
                .map_err(|e| classify_serve_error("synth", e))?;
            write_atomically(&out, &synth.trace_bytes)?;
            println!(
                "synthesized {} requests to {out} (stream fingerprint {:#018x} verified)",
                synth.total_requests, synth.fingerprint,
            );
            Ok(())
        }
        "couple" => {
            let out = flag_value(args, "-o").ok_or_else(|| usage("missing -o <FILE>"))?;
            let seed = parse_u64(args, "--seed", 1)?;
            let chunk = parse_u64(args, "--chunk", 65_536)?;
            let chunk = u32::try_from(chunk).map_err(|_| usage("--chunk too large"))?;
            if chunk == 0 {
                return Err(usage("--chunk must be at least 1"));
            }
            let source = client_source(args, 1)?;
            let mut client = client_connect(args)?;
            let outcome = client
                .couple(seed, chunk, source)
                .map_err(|e| classify_serve_error("couple", e))?;
            write_atomically(&out, &outcome.trace_bytes)?;
            println!(
                "coupled synthesis: {} requests to {out}, {} simulated cycles, \
                 {} stall cycles fed back (fingerprint {:#018x} verified)",
                outcome.total_requests,
                outcome.simulated_cycles,
                outcome.stall_cycles,
                outcome.fingerprint,
            );
            Ok(())
        }
        "stats" => {
            let source = client_source(args, 1)?;
            let mut client = client_connect(args)?;
            let text = client
                .stats(source)
                .map_err(|e| classify_serve_error("stats", e))?;
            println!("{text}");
            Ok(())
        }
        "metricsz" => {
            let mut client = client_connect(args)?;
            let text = client
                .metricsz()
                .map_err(|e| classify_serve_error("metricsz", e))?;
            print!("{text}");
            Ok(())
        }
        "compact" => {
            let mut client = client_connect(args)?;
            let stats = client
                .compact()
                .map_err(|e| classify_serve_error("compact", e))?;
            println!(
                "compacted: generation {}, {} profiles, checkpoint {} bytes, {} log bytes dropped",
                stats.generation, stats.profiles, stats.checkpoint_bytes, stats.wal_bytes_dropped,
            );
            Ok(())
        }
        "shutdown" => {
            let mut client = client_connect(args)?;
            client
                .shutdown()
                .map_err(|e| classify_serve_error("shutdown", e))?;
            println!("server draining");
            Ok(())
        }
        other => Err(usage(format!("unknown client subcommand {other:?}"))),
    }
}

fn classify_store_error(context: &str, e: mocktails_store::StoreError) -> CliError {
    match e {
        mocktails_store::StoreError::Io(io) => io_error(context, io),
        other => CliError::Corrupt(format!("{context}: {other}")),
    }
}

/// Offline store maintenance: `inspect` recovers a store directory and
/// describes what recovery found; `compact` additionally checkpoints the
/// live set and truncates the write-ahead log.
fn cmd_store(args: &[&String]) -> Result<(), CliError> {
    let sub = positional(args, 0)?;
    let dir = positional(args, 1).map_err(|_| usage("expected a store directory"))?;
    // `ProfileStore::open` creates missing directories (the right call for
    // `serve --store`); maintenance commands must not conjure an empty
    // store out of a typo'd path.
    if !std::path::Path::new(dir).is_dir() {
        return Err(io_error(
            dir,
            std::io::Error::new(std::io::ErrorKind::NotFound, "no store directory"),
        ));
    }
    let mut store =
        mocktails_store::ProfileStore::open(dir).map_err(|e| classify_store_error(dir, e))?;
    match sub {
        "inspect" => {
            let r = *store.recovery();
            let mut t = TextTable::new(vec!["Metric", "Value"]);
            t.row(vec!["Generation".into(), store.generation().to_string()]);
            t.row(vec!["Profiles".into(), store.len().to_string()]);
            t.row(vec!["Log bytes".into(), store.wal_bytes().to_string()]);
            t.row(vec!["Log records".into(), store.wal_records().to_string()]);
            t.row(vec![
                "Checkpoint profiles".into(),
                r.checkpoint_profiles.to_string(),
            ]);
            t.row(vec![
                "Log records replayed".into(),
                r.wal_records_replayed.to_string(),
            ]);
            t.row(vec![
                "Log bytes truncated".into(),
                r.wal_bytes_truncated.to_string(),
            ]);
            t.row(vec!["Log reset".into(), r.wal_reset.to_string()]);
            println!("{dir}\n{t}");
            for (fingerprint, entry) in store.iter() {
                println!(
                    "  {fingerprint:#018x}  fit-key {}  {}",
                    entry
                        .fit_key
                        .map(|k| format!("{k:#018x}"))
                        .unwrap_or_else(|| "-".into()),
                    entry.profile.summary(),
                );
            }
            Ok(())
        }
        "compact" => {
            let stats = store.compact().map_err(|e| classify_store_error(dir, e))?;
            println!(
                "compacted {dir}: generation {}, {} profiles, checkpoint {} bytes, {} log bytes dropped",
                store.generation(), stats.profiles, stats.checkpoint_bytes, stats.wal_bytes_dropped,
            );
            Ok(())
        }
        other => Err(usage(format!("unknown store subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_serve::{ErrorCode, ServeError};

    #[test]
    fn busy_responses_map_to_their_own_exit_code() {
        let shed = ServeError::Remote {
            code: ErrorCode::Busy,
            message: "connection limit reached (max_conns 1024); retry later".into(),
        };
        let err = classify_serve_error("synth", shed);
        assert_eq!(err.exit_code(), 6);
        assert!(err.message().contains("back off and retry"));
        assert!(err.message().contains("connection limit reached"));
    }

    #[test]
    fn usage_lists_every_experiment_within_78_columns() {
        let text = usage_text();
        for id in std::iter::once("all").chain(EXPERIMENTS.iter().map(|e| e.id)) {
            assert!(
                text.contains(&format!("{id}|")) || text.contains(&format!("{id}>")),
                "{id} missing from usage"
            );
        }
        let rendered = text
            .lines()
            .skip_while(|l| !l.starts_with("  mocktails experiment"))
            .take_while(|l| !l.contains("[--quick]"));
        assert!(rendered.clone().count() > 1, "{text}");
        assert!(rendered.clone().all(|l| l.len() <= 78), "{text}");
    }

    #[test]
    fn non_busy_server_errors_keep_exit_code_five() {
        let fatal = ServeError::Remote {
            code: ErrorCode::Malformed,
            message: "duplicate hello".into(),
        };
        assert_eq!(classify_serve_error("fit", fatal).exit_code(), 5);
    }
}
