//! L008 taint through the shared propagation engine.

// The witness case: `zeta` sits before `alpha` in the function table
// and is tainted first; `alpha` is tainted only through `beta`, defined
// last. The caller must name `alpha`, the smaller name.
fn pick_seed() -> u64 { zeta() + alpha() }
fn zeta() -> u64 { read_seed() }
fn alpha() -> u64 { beta() }
fn beta() -> u64 { read_seed() + 1 }

// A diamond: both arms reach one sink; the top names the smaller arm.
fn blend() -> u64 { right_arm() + left_arm() }
fn left_arm() -> u64 { mix() }
fn right_arm() -> u64 { mix() + 1 }
fn mix() -> u64 { read_seed() * 2 }

// A 2-cycle whose exit reaches the sink.
fn ping(n: u64) -> u64 { if n == 0 { 0 } else { pong(n - 1) } }
fn pong(n: u64) -> u64 { ping(n) + read_seed() }
