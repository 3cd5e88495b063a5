//! End-to-end tests of the `mocktails` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use mocktails_core::profile::write_profile;
use mocktails_core::{HierarchyConfig, Profile};
use mocktails_trace::codec::write_trace;
use mocktails_trace::Trace;
use mocktails_workloads::catalog;

fn mocktails(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mocktails"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mocktails-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{}", std::process::id(), name))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn catalog_lists_table2() {
    let out = mocktails(&["catalog"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("HEVC1"));
    assert!(text.contains("T-Rex2"));
    assert!(text.contains("VPU"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = mocktails(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn trace_profile_synth_pipeline() {
    let trace_path = temp("pipe.mtrace");
    let profile_path = temp("pipe.mprofile");
    let synth_path = temp("pipe-synth.mtrace");

    let out = mocktails(&["trace", "Crypto1", "-o", trace_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = mocktails(&[
        "profile",
        trace_path.to_str().unwrap(),
        "-o",
        profile_path.to_str().unwrap(),
        "--cycles",
        "500000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("leaves"));

    let out = mocktails(&[
        "synth",
        profile_path.to_str().unwrap(),
        "-o",
        synth_path.to_str().unwrap(),
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The profile must be smaller than the trace; the synthetic trace
    // holds the same request count as the original.
    let trace_bytes = std::fs::metadata(&trace_path).unwrap().len();
    let profile_bytes = std::fs::metadata(&profile_path).unwrap().len();
    assert!(profile_bytes < trace_bytes);

    for p in [&trace_path, &profile_path, &synth_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn written_files_hold_exactly_the_library_encodings() {
    let trace_path = temp("bytes.mtrace");
    let profile_path = temp("bytes.mprofile");
    let synth_path = temp("bytes-synth.mtrace");
    let encode = |trace: &Trace| {
        let mut bytes = Vec::new();
        write_trace(&mut bytes, trace).unwrap();
        bytes
    };

    let out = mocktails(&["trace", "Crypto1", "-o", trace_path.to_str().unwrap()]);
    assert!(out.status.success());
    let trace = catalog::by_name("Crypto1").unwrap().generate();
    assert_eq!(std::fs::read(&trace_path).unwrap(), encode(&trace));

    let out = mocktails(&[
        "profile",
        trace_path.to_str().unwrap(),
        "-o",
        profile_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    let mut profile_bytes = Vec::new();
    write_profile(&mut profile_bytes, &profile);
    assert_eq!(std::fs::read(&profile_path).unwrap(), profile_bytes);

    let out = mocktails(&[
        "synth",
        profile_path.to_str().unwrap(),
        "-o",
        synth_path.to_str().unwrap(),
        "--seed",
        "3",
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&synth_path).unwrap(),
        encode(&profile.synthesize(3))
    );

    for p in [&trace_path, &profile_path, &synth_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn csv_export_is_readable() {
    let csv_path = temp("trace.csv");
    let out = mocktails(&["trace", "HEVC1", "-o", csv_path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&csv_path).unwrap();
    assert!(text.starts_with("timestamp,address,op,size"));
    assert!(text.lines().count() > 1000);
    // And the CSV round-trips through `profile`.
    let profile_path = temp("csv.mprofile");
    let out = mocktails(&[
        "profile",
        csv_path.to_str().unwrap(),
        "-o",
        profile_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&profile_path).ok();
}

#[test]
fn validate_prints_metric_table() {
    let out = mocktails(&["validate", "OpenCL1", "--max-requests", "2000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("Read row hits"));
    assert!(text.contains("2L-TS (McC)"));
}

#[test]
fn experiment_table1_runs() {
    let out = mocktails(&["experiment", "table1"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("-264"));
}

#[test]
fn quick_switch_may_precede_the_experiment_id() {
    let before = mocktails(&["experiment", "--quick", "table1"]);
    let after = mocktails(&["experiment", "table1", "--quick"]);
    assert!(
        before.status.success(),
        "{}",
        String::from_utf8_lossy(&before.stderr)
    );
    assert!(after.status.success());
    assert_eq!(before.stdout, after.stdout);
}

#[test]
fn experiment_unknown_id_fails() {
    let out = mocktails(&["experiment", "fig99"]);
    assert!(!out.status.success());
}

#[test]
fn stats_works_on_catalog_names_and_files() {
    let out = mocktails(&["stats", "Multi-layer"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("Footprint"));

    let path = temp("stats.mtrace");
    mocktails(&["trace", "Crypto2", "-o", path.to_str().unwrap()]);
    let out = mocktails(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("Requests"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn compare_reports_distances() {
    let out = mocktails(&["compare", "HEVC1", "HEVC2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("TV distance: stride"));
    assert!(text.contains("8-gram leakage"));
}

#[test]
fn missing_output_flag_is_an_error() {
    let out = mocktails(&["trace", "Crypto1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-o"));
}

#[test]
fn usage_errors_exit_2_and_print_usage() {
    for args in [
        &["frobnicate"][..],
        &["trace", "Crypto1"],
        &["trace", "NoSuchTrace", "-o", "/dev/null"],
        &["experiment", "fig99"],
        &[
            "profile",
            "in.mtrace",
            "-o",
            "out.mprofile",
            "--cycles",
            "NaN",
        ],
        &[],
    ] {
        let out = mocktails(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "args {args:?} printed no usage"
        );
    }
}

#[test]
fn serve_rejects_unknown_arguments_with_exit_2() {
    for (args, unknown) in [
        (
            &["serve", "--cache-ttl-micros", "5"][..],
            "--cache-ttl-micros",
        ),
        (&["serve", "--shards", "8"], "--shards"),
        (&["serve", "--shard-budget", "32"], "--shard-budget"),
        (
            &["serve", "--addr", "127.0.0.1:0", "--wrokers", "2"],
            "--wrokers",
        ),
        (&["serve", "stray"], "stray"),
    ] {
        let out = mocktails(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument \"{unknown}\"")),
            "args {args:?}: {stderr}"
        );
    }
}

#[test]
fn serve_accepts_every_documented_flag() {
    let port_file = temp("serve-flags.port");
    let store = temp("serve-flags.store");
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_dir_all(&store);
    let mut server = Command::new(env!("CARGO_BIN_EXE_mocktails"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--queue-cap", "16", "--cache-cap", "64"])
        .args(["--max-conns", "64", "--threads", "1"])
        .arg("--store")
        .arg(&store)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut addr = String::new();
    for _ in 0..200 {
        addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        if !addr.trim().is_empty() || server.try_wait().expect("poll").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let addr = addr.trim().to_string();
    if addr.is_empty() {
        let _ = server.kill();
        panic!("serve never published its port: {:?}", server.wait());
    }
    let out = mocktails(&["client", "shutdown", "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(server.wait().expect("serve exits").success());
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn corrupt_input_exits_3_without_usage_noise() {
    let path = temp("corrupt.mprofile");
    std::fs::write(&path, b"MPRO\x01garbage-bytes-here").unwrap();
    let out = mocktails(&[
        "synth",
        path.to_str().unwrap(),
        "-o",
        temp("corrupt-out.mtrace").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    // Non-usage failures must not drown the real error in the usage text.
    assert!(!stderr.contains("usage:"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_utf8_csv_is_corrupt_input_exit_3() {
    let path = temp("not-utf8.csv");
    std::fs::write(&path, b"\xff\xfe").unwrap();
    let out = mocktails(&[
        "profile",
        path.to_str().unwrap(),
        "-o",
        temp("not-utf8.mprofile").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not UTF-8 at byte 0"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_input_exits_3() {
    // A valid profile cut in half is corrupt input, not an I/O failure.
    let trace_path = temp("trunc.mtrace");
    let profile_path = temp("trunc.mprofile");
    mocktails(&["trace", "Crypto1", "-o", trace_path.to_str().unwrap()]);
    mocktails(&[
        "profile",
        trace_path.to_str().unwrap(),
        "-o",
        profile_path.to_str().unwrap(),
    ]);
    let bytes = std::fs::read(&profile_path).unwrap();
    std::fs::write(&profile_path, &bytes[..bytes.len() / 2]).unwrap();
    let out = mocktails(&[
        "synth",
        profile_path.to_str().unwrap(),
        "-o",
        temp("trunc-out.mtrace").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    for p in [&trace_path, &profile_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn missing_input_file_exits_4() {
    let out = mocktails(&[
        "synth",
        "/nonexistent/dir/missing.mprofile",
        "-o",
        temp("io-out.mtrace").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unwritable_output_exits_4() {
    let trace_path = temp("unwritable.mtrace");
    mocktails(&["trace", "Crypto1", "-o", trace_path.to_str().unwrap()]);
    let out = mocktails(&[
        "profile",
        trace_path.to_str().unwrap(),
        "-o",
        "/nonexistent/dir/out.mprofile",
    ]);
    assert_eq!(out.status.code(), Some(4));
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn failed_write_leaves_no_partial_output_file() {
    // Atomic-write guarantee: aborting mid-pipeline must not leave a
    // destination file (or a stale temporary) behind.
    let path = temp("atomic.mprofile");
    let out = mocktails(&[
        "profile",
        "/nonexistent/input.mtrace",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4));
    assert!(!path.exists(), "partial output left behind");
    let mut tmp_name = path.file_name().unwrap().to_os_string();
    tmp_name.push(".tmp");
    assert!(
        !path.with_file_name(tmp_name).exists(),
        "stale temporary left behind"
    );
}
