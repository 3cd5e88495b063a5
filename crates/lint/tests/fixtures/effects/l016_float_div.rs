//! L016 fixture: integer division by a non-constant divisor can panic;
//! division of a value cast to a float cannot.

pub struct Synthesizer {
    cursor: u64,
    spread: u64,
}

impl Synthesizer {
    pub fn next(&mut self) -> Option<u64> {
        let share = ratio(self.cursor, self.spread);
        Some(per_slot(self.cursor, self.spread) + share as u64)
    }
}

fn per_slot(cursor: u64, spread: u64) -> u64 {
    cursor / spread
}

fn ratio(cursor: u64, spread: u64) -> f64 {
    let denom = spread as f64;
    cursor as f64 / denom + cursor as f32 as f64 / denom
}
