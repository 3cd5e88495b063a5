//! L013 transitive blocking through the shared propagation engine: each
//! call in `drain_all` runs while the `queue` guard is held.

use std::sync::{Mutex, PoisonError};

struct Jobs {
    queue: Mutex<Vec<u64>>,
}

impl Jobs {
    fn drain_all(&self) {
        let g = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        settle();
        fan_out();
        spin(3);
        drop(g);
    }
}

// The witness case: `zz_wait` sits before `aa_wait` in the function
// table and blocks first; `aa_wait` blocks only through `aa_deep`,
// defined last. The hop must name `aa_wait`, the smaller name.
fn settle() { zz_wait(); aa_wait(); }
fn zz_wait() { nap(); }
fn aa_wait() { aa_deep(); }
fn aa_deep() { nap(); }

// A diamond.
fn fan_out() { right_wait(); left_wait(); }
fn left_wait() { nap(); }
fn right_wait() { nap(); }

// A 2-cycle whose exit blocks.
fn spin(n: u64) { if n > 0 { spun(n - 1); } }
fn spun(n: u64) { spin(n); nap(); }
