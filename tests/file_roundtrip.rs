//! Integration tests of the on-disk artifact flow (Fig. 1): traces and
//! profiles written to real files and read back.

use std::fs::File;

use mocktails::trace::codec;
use mocktails::workloads::catalog;
use mocktails::{DecodeOptions, HierarchyConfig, Profile};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mocktails-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{}", std::process::id(), name))
}

#[test]
fn trace_file_round_trip() {
    let trace = catalog::by_name("FBC-Tiled1")
        .unwrap()
        .generate()
        .truncate_to(5_000);
    let path = temp_path("trace.mtrace");
    let mut bytes = Vec::new();
    codec::write_trace(&mut bytes, &trace).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let back = codec::read_trace(&mut bytes.as_slice()).unwrap();
    assert_eq!(back, trace);
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_file_round_trip_and_synthesis_equivalence() {
    let trace = catalog::by_name("HEVC2")
        .unwrap()
        .generate()
        .truncate_to(5_000);
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    let path = temp_path("profile.mprofile");
    profile.write(&mut File::create(&path).unwrap()).unwrap();
    let back = Profile::read(
        &mut std::fs::read(&path).unwrap().as_slice(),
        &DecodeOptions::default(),
    )
    .unwrap();
    assert_eq!(back, profile);
    // Decoded profiles synthesize byte-identical streams.
    assert_eq!(back.synthesize(9), profile.synthesize(9));
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_file_is_smaller_than_trace_file() {
    let trace = catalog::by_name("OpenCL2").unwrap().generate();
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    let trace_path = temp_path("size.mtrace");
    let profile_path = temp_path("size.mprofile");
    let mut encoded = Vec::new();
    codec::write_trace(&mut encoded, &trace).unwrap();
    std::fs::write(&trace_path, &encoded).unwrap();
    profile
        .write(&mut File::create(&profile_path).unwrap())
        .unwrap();
    let trace_bytes = std::fs::metadata(&trace_path).unwrap().len();
    let profile_bytes = std::fs::metadata(&profile_path).unwrap().len();
    assert!(
        profile_bytes * 4 < trace_bytes,
        "profile {profile_bytes} B not well below trace {trace_bytes} B"
    );
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&profile_path).ok();
}

#[test]
fn corrupted_profile_file_is_rejected() {
    let trace = catalog::by_name("Crypto2")
        .unwrap()
        .generate()
        .truncate_to(2_000);
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    let path = temp_path("corrupt.mprofile");
    profile.write(&mut File::create(&path).unwrap()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes.truncate(mid);
    std::fs::write(&path, &bytes).unwrap();
    assert!(Profile::read(
        &mut std::fs::read(&path).unwrap().as_slice(),
        &DecodeOptions::default()
    )
    .is_err());
    std::fs::remove_file(&path).ok();
}
