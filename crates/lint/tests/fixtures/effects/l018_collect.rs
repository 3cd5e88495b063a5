//! L018 fixture: a per-service `.collect()` in the shape of a DRAM page
//! check, with a clean sibling that counts the same bursts in place.

pub fn precharges_collected(queue: &mut Vec<(usize, u64)>) -> usize {
    let mut precharges = 0;
    while let Some((bank, row)) = queue.pop() {
        let same_bank: Vec<&(usize, u64)> = queue.iter().filter(|p| p.0 == bank).collect();
        if !same_bank.is_empty() && same_bank.iter().all(|p| p.1 != row) {
            precharges += 1;
        }
    }
    precharges
}

pub fn precharges_counted(queue: &mut Vec<(usize, u64)>) -> usize {
    let mut precharges = 0;
    while let Some((bank, row)) = queue.pop() {
        let queued = queue.iter().filter(|p| p.0 == bank).count();
        let hits = queue.iter().filter(|p| p.0 == bank && p.1 == row).count();
        if hits == 0 && queued > hits {
            precharges += 1;
        }
    }
    precharges
}
