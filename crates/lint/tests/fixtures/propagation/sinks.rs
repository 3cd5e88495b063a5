//! The direct sites every other propagation fixture reaches through
//! calls: one environment read (L008), one sleep (L013), one allocation
//! (L018).

use std::time::Duration;

fn read_seed() -> u64 { std::env::var("MOCKTAILS_SEED").map_or(0, |s| s.len() as u64) }

fn nap() { std::thread::sleep(Duration::from_millis(1)); }

fn scratch(n: u64) -> u64 { let buf: Vec<u64> = Vec::new(); buf.len() as u64 + n }
