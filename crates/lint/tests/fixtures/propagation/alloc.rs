//! L018 allocation chains through the shared propagation engine: each
//! call in the loop reaches the allocation in `scratch`.

fn render_all(rows: &[u64]) -> u64 {
    let mut total = 0;
    for row in rows {
        total += pick_buf(*row);
        total += layout(*row);
        total += cycle_a(*row);
    }
    total
}

// The witness case: `zz_buf` allocates first in the table, `aa_buf`
// only through `aa_fill`, defined last; the chain goes through `aa_buf`.
fn pick_buf(n: u64) -> u64 { zz_buf(n) + aa_buf(n) }
fn zz_buf(n: u64) -> u64 { scratch(n) }
fn aa_buf(n: u64) -> u64 { aa_fill(n) }
fn aa_fill(n: u64) -> u64 { scratch(n + 1) }

// A diamond.
fn layout(n: u64) -> u64 { wide(n) + narrow(n) }
fn narrow(n: u64) -> u64 { scratch(n) }
fn wide(n: u64) -> u64 { scratch(n * 2) }

// A 2-cycle whose exit allocates.
fn cycle_a(n: u64) -> u64 { if n == 0 { 0 } else { cycle_b(n - 1) } }
fn cycle_b(n: u64) -> u64 { cycle_a(n) + scratch(n) }
