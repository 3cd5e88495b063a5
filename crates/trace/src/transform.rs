//! Trace transformations: address rebasing.
//!
//! Utilities for preparing traces before modeling — the kind of
//! preprocessing the paper mentions its industry partner applied
//! ("VPU traces had their inputs down-scaled", §IV-A).

use crate::{Request, Trace};

/// Shifts every address by a signed byte delta (wrapping).
pub fn rebase_address(trace: &Trace, delta: i64) -> Trace {
    Trace::from_sorted_requests(
        trace
            .iter()
            .map(|r| {
                Request::new(
                    r.timestamp,
                    r.address.wrapping_add(delta as u64),
                    r.op,
                    r.size,
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_requests(vec![
            Request::read(100, 0x1000, 64),
            Request::write(200, 0x2000, 64),
            Request::read(300, 0x3000, 64),
            Request::write(400, 0x4000, 64),
        ])
    }

    #[test]
    fn rebase_address_shifts_both_ways() {
        let t = sample_trace();
        let up = rebase_address(&t, 0x100);
        assert_eq!(up.requests()[0].address, 0x1100);
        let down = rebase_address(&up, -0x100);
        assert_eq!(down, t);
    }
}
