//! The industry → academia exchange of Fig. 1, over actual files.
//!
//! Industry side: collect a trace, fit a Mocktails profile, write
//! `crypto.mprofile` to disk. Academia side: read the profile (the trace
//! never crosses the boundary), synthesize a stream, and use Option B —
//! the coupled synthesizer with simulator backpressure feedback.
//!
//! Run with: `cargo run --release --example profile_exchange`

use std::fs::File;

use mocktails::trace::codec;
use mocktails::workloads::catalog;
use mocktails::{DecodeOptions, DramConfig, HierarchyConfig, MemorySystem, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("mocktails-profile-exchange");
    std::fs::create_dir_all(&dir)?;
    let profile_path = dir.join("crypto.mprofile");

    // ---- Industry side -------------------------------------------------
    let trace = catalog::by_name("Crypto1").expect("catalog").generate();
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    profile.write(&mut File::create(&profile_path)?)?;
    println!(
        "industry: shared {} ({} bytes; the {}-byte trace stays private)",
        profile_path.display(),
        profile.metadata_size(),
        codec::trace_encoded_size(&trace),
    );

    // ---- Academia side -------------------------------------------------
    let bytes = std::fs::read(&profile_path)?;
    let received = Profile::read(&mut bytes.as_slice(), &DecodeOptions::default())?;
    assert_eq!(received, profile);

    // Option B: couple the synthesizer to the simulator so backpressure
    // shifts pending requests (§III-C, "Simulator Feedback").
    let mut synth = received.synthesizer(2026);
    let stats = MemorySystem::new(DramConfig::default()).run_synthesizer(&mut synth);
    println!(
        "academia: replayed {} synthetic requests (accumulated feedback delay: {} cycles)",
        synth.emitted(),
        synth.accumulated_delay(),
    );
    println!(
        "          read row hits {} / write row hits {} / avg latency {:.1} cycles",
        stats.total_read_row_hits(),
        stats.total_write_row_hits(),
        stats.avg_access_latency(),
    );

    // Validation the academic can do blind: the profile promised exactly
    // this many requests of each kind.
    assert_eq!(synth.emitted(), received.total_requests());
    println!("exchange complete: synthetic stream honoured the profile's request counts");
    Ok(())
}
