//! A guard bound inside one arm of a `let … = match` initializer lives
//! to the end of that arm, not of the whole `let`.

use std::sync::mpsc::Receiver;
use std::sync::{Mutex, PoisonError};

/// The append holds `log` in its own arm only; the other arm encodes,
/// which blocks, with no guard held.
pub fn append_or_encode(log: &Mutex<Vec<u8>>, cached: Option<u8>, rx: &Receiver<u8>) -> u8 {
    let byte = match cached {
        Some(byte) => {
            let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
            log.push(byte);
            byte
        }
        None => write_profile(rx),
    };
    byte
}

/// Inside the arm the guard is still held: this one blocks under it.
pub fn append_and_wait(log: &Mutex<Vec<u8>>, cached: Option<u8>, rx: &Receiver<u8>) -> u8 {
    let byte = match cached {
        Some(byte) => {
            let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
            log.push(byte);
            rx.recv().unwrap_or(byte)
        }
        None => 0,
    };
    byte
}

fn write_profile(rx: &Receiver<u8>) -> u8 {
    rx.recv().unwrap_or(0)
}
