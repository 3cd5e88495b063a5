//! The builder is the validated front door to `ServerConfig`; the plain
//! struct path (deprecated) must keep forwarding bit-identically.

use std::sync::Arc;

use mocktails_serve::{Client, ManualClock, ServeError, Server, ServerConfig, ServerConfigError};
use mocktails_trace::{DecodeLimits, DecodeOptions};

#[test]
fn builder_defaults_match_the_plain_struct_default() {
    let built = ServerConfig::builder().build().expect("defaults are valid");
    assert_eq!(built, ServerConfig::default());
}

#[test]
fn builder_forwards_every_knob_bit_identically() {
    let decode = DecodeOptions::new().with_limits(DecodeLimits {
        max_requests: 1_000,
        ..DecodeLimits::default()
    });
    let built = ServerConfig::builder()
        .workers(3)
        .queue_cap(9)
        .cache_capacity(17)
        .max_frame_len(1 << 16)
        .deadline_micros(2_000_000)
        .decode(decode)
        .store_dir("/tmp/mocktails-builder-test")
        .max_conns(99)
        .build()
        .expect("valid config");
    // The deprecated plain-struct path, field for field.
    let plain = ServerConfig {
        workers: 3,
        queue_cap: 9,
        cache_capacity: 17,
        max_frame_len: 1 << 16,
        deadline_micros: 2_000_000,
        decode,
        store_dir: Some("/tmp/mocktails-builder-test".into()),
        max_conns: 99,
    };
    assert_eq!(built, plain, "builder and struct literal diverged");
}

#[test]
fn builder_rejects_invalid_knobs_with_typed_errors() {
    assert_eq!(
        ServerConfig::builder().workers(0).build(),
        Err(ServerConfigError::ZeroWorkers)
    );
    assert_eq!(
        ServerConfig::builder().max_conns(0).build(),
        Err(ServerConfigError::ZeroMaxConns)
    );
    assert_eq!(
        ServerConfig::builder().deadline_micros(0).build(),
        Err(ServerConfigError::ZeroDeadline)
    );
    assert_eq!(
        ServerConfig::builder().max_frame_len(512).build(),
        Err(ServerConfigError::FrameLimitTooSmall { min: 1024 })
    );
    // The messages are stable enough to route on.
    assert_eq!(
        ServerConfigError::ZeroWorkers.to_string(),
        "workers must be at least 1"
    );
}

#[test]
fn bind_validates_plain_struct_configs_too() {
    let config = ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    };
    let err = Server::bind("127.0.0.1:0", config, Arc::new(ManualClock::new()))
        .expect_err("zero workers must be rejected at bind");
    match err {
        ServeError::Config(e) => assert_eq!(e, ServerConfigError::ZeroWorkers),
        other => panic!("expected config error, got {other}"),
    }
}

#[test]
fn a_builder_built_server_serves() {
    let config = ServerConfig::builder().workers(1).build().expect("valid");
    let server = Server::bind("127.0.0.1:0", config, Arc::new(ManualClock::new())).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client
        .metricsz()
        .expect("metricsz")
        .contains("requests_total"));
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}
