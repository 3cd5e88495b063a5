//! First-order Markov chains over feature values, with strict convergence.

use std::collections::{BTreeMap, BTreeSet};

use mocktails_trace::rng::Rng;

/// A first-order Markov chain over `i64` feature states.
///
/// Fitted from an observed value sequence: the first value becomes the
/// initial state, and every consecutive pair contributes one transition
/// count. The table is flat and lives in one exactly sized array: a
/// header cell `(initial, row count)`, then one `(state, end)` cell per
/// row with the source states ascending, then the `(to, count)` edges
/// laid out row after row (`end` is the offset one past a row's last
/// edge). Fitting, iteration and serialization are fully deterministic.
///
/// ```
/// use mocktails_core::MarkovChain;
///
/// // The stride column of Table I (one temporal partition).
/// let strides = [8, 64, 64, 64, 64, -264, 8, 64, 64, 64, 64];
/// let chain = MarkovChain::fit(&strides);
/// assert_eq!(chain.initial(), 8);
/// // From state 64, both 64 and -264 were observed.
/// assert_eq!(chain.successors(64).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkovChain {
    /// The header cell, the row cells, then the edges.
    table: Box<[Cell]>,
}

/// One cell of a [`MarkovChain`]'s table: its header, a row or an edge.
type Cell = (i64, u64);

/// Cell count of a table with `rows` rows and `edges` edges.
fn table_len(rows: usize, edges: usize) -> usize {
    1 + rows + edges
}

impl MarkovChain {
    /// Fits a chain to an observed sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty — the caller decides what an absent
    /// feature means (see [`crate::McC::fit`]).
    pub fn fit(sequence: &[i64]) -> Self {
        assert!(!sequence.is_empty(), "cannot fit a chain to no values");
        let mut pairs: Vec<(i64, i64)> = sequence.windows(2).map(|w| (w[0], w[1])).collect();
        Self::fit_pairs(sequence[0], &mut pairs)
    }

    /// Fits a chain to the consecutive `(from, to)` pairs of a sequence
    /// that starts at `initial`, sorting `pairs` in place.
    pub(crate) fn fit_pairs(initial: i64, pairs: &mut [(i64, i64)]) -> Self {
        // Sorting the pairs groups each row, and each edge within it, into
        // one run; counting the runs sizes the table and yields it in
        // order. Each row's cell is filled in once its edges are laid out.
        pairs.sort_unstable();
        let same_from = |a: &(i64, i64), b: &(i64, i64)| a.0 == b.0;
        let rows = pairs.chunk_by(same_from).count();
        let mut table = Vec::with_capacity(table_len(rows, pairs.chunk_by(|a, b| a == b).count()));
        table.push((initial, rows as u64));
        table.resize(table_len(rows, 0), (0, 0));
        for (cell, row) in (1..).zip(pairs.chunk_by(same_from)) {
            table.extend(
                row.chunk_by(|a, b| a.1 == b.1)
                    .map(|run| (run[0].1, run.len() as u64)),
            );
            let end = (table.len() - table_len(rows, 0)) as u64;
            if let Some(cell) = table.get_mut(cell) {
                *cell = (row[0].0, end);
            }
        }
        Self {
            table: table.into_boxed_slice(),
        }
    }

    /// Builds a chain from explicit parts (used by baselines and tests).
    ///
    /// # Panics
    ///
    /// Panics if any edge has a zero count. Untrusted callers should use
    /// [`MarkovChain::try_from_parts`] instead.
    pub fn from_parts(initial: i64, transitions: BTreeMap<i64, Vec<(i64, u64)>>) -> Self {
        for edges in transitions.values() {
            assert!(
                edges.iter().all(|&(_, c)| c > 0),
                "transition counts must be positive"
            );
        }
        Self::flatten(initial, &transitions)
    }

    /// Builds a chain from explicit parts, rejecting semantically invalid
    /// tables with a description instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant (see [`MarkovChain::validate`]).
    pub fn try_from_parts(
        initial: i64,
        transitions: BTreeMap<i64, Vec<(i64, u64)>>,
    ) -> Result<Self, String> {
        let chain = Self::flatten(initial, &transitions);
        chain.validate()?;
        Ok(chain)
    }

    /// Lays a map-shaped table out flat.
    fn flatten(initial: i64, transitions: &BTreeMap<i64, Vec<(i64, u64)>>) -> Self {
        let rows = transitions.len();
        let edges: usize = transitions.values().map(Vec::len).sum();
        let mut table = Vec::with_capacity(table_len(rows, edges));
        table.push((initial, rows as u64));
        table.extend(transitions.iter().scan(0, |end, (&state, row)| {
            *end += row.len() as u64;
            Some((state, *end))
        }));
        table.extend(transitions.values().flatten().copied());
        Self {
            table: table.into_boxed_slice(),
        }
    }

    /// The row cells and the edges.
    fn cells(&self) -> (&[Cell], &[Cell]) {
        let (&(_, rows), cells) = self.table.split_first().unwrap_or((&(0, 0), &[]));
        cells
            .split_at_checked(rows as usize)
            .unwrap_or((cells, &[]))
    }

    /// Checks the chain's semantic invariants: every state has at least
    /// one out-edge, every edge count is positive, per-row and whole-chain
    /// count totals fit in `u64` (strict-convergence sampling sums them),
    /// and each row's normalized transition probabilities are finite and
    /// sum to 1 within epsilon.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0;
        self.rows()
            .try_for_each(|(from, edges)| check_row(from, edges, &mut total))
    }

    /// The first observed state.
    pub fn initial(&self) -> i64 {
        self.table.first().map_or(0, |&(initial, _)| initial)
    }

    /// Number of distinct source states.
    pub fn num_states(&self) -> usize {
        self.cells().0.len()
    }

    /// Total number of observed transitions.
    pub fn num_transitions(&self) -> u64 {
        self.cells().1.iter().map(|&(_, c)| c).sum()
    }

    /// The `(successor, count)` edges out of `state` (empty if unseen or
    /// terminal).
    pub fn successors(&self, state: i64) -> &[(i64, u64)] {
        let (rows, _) = self.cells();
        rows.binary_search_by_key(&state, |&(from, _)| from)
            .map_or(&[], |row| self.row(row))
    }

    /// Iterates over `(from, to, count)` edges in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (i64, i64, u64)> + '_ {
        self.rows()
            .flat_map(|(from, edges)| edges.iter().map(move |&(to, c)| (from, to, c)))
    }

    /// Iterates over the rows of the transition table: each source state
    /// in ascending order with its `(to, count)` edges (used by the
    /// profile encoder).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (i64, &[(i64, u64)])> + '_ {
        let (rows, _) = self.cells();
        rows.iter()
            .enumerate()
            .map(|(row, &(state, _))| (state, self.row(row)))
    }

    /// The edges of row `row`.
    fn row(&self, row: usize) -> &[(i64, u64)] {
        let (rows, edges) = self.cells();
        let end_of = |row: Option<usize>| {
            row.and_then(|row| rows.get(row))
                .map_or(0, |&(_, end)| end as usize)
        };
        let (start, end) = (end_of(row.checked_sub(1)), end_of(Some(row)));
        edges.get(start..end).unwrap_or(&[])
    }

    /// Creates a sampler. With `strict` convergence every emission consumes
    /// a transition count (paper §III-C); without, the sampler draws from
    /// the stationary transition probabilities indefinitely.
    pub fn sampler(&self, strict: bool) -> MarkovSampler {
        let mut rows = Vec::with_capacity(self.num_states());
        let mut successors = Vec::with_capacity(self.num_edges());
        let mut observed = Vec::with_capacity(self.counts_len());
        let initial = self.resolve_into(&mut rows, &mut successors, &mut observed);
        let remaining = if strict { observed.clone() } else { Vec::new() };
        MarkovSampler {
            initial,
            rows: rows.into_boxed_slice(),
            successors: successors.into_boxed_slice(),
            observed: observed.into_boxed_slice(),
            remaining: remaining.into_boxed_slice(),
            current: None,
        }
    }

    /// Number of distinct `(from, to)` edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.cells().1.len()
    }

    /// Length of the chain's count block (see [`ChainTable`]).
    pub(crate) fn counts_len(&self) -> usize {
        self.table.len()
    }

    /// Appends the chain's resolved table for sampling: its rows to
    /// `rows` and its successors to `successors` (offsets relative to the
    /// chain's own first row and edge), and its count block of fitted
    /// counts to `counts`. Returns the initial state and its row.
    ///
    /// Totals wrap rather than overflow: a validated chain never
    /// overflows (see [`MarkovChain::validate`]), and an unvalidated one
    /// must not panic the sampler.
    pub(crate) fn resolve_into(
        &self,
        rows: &mut Vec<RowSpan>,
        successors: &mut Vec<Successor>,
        counts: &mut Vec<u64>,
    ) -> Successor {
        let (cells, edges) = self.cells();
        let row_of = |state: i64| {
            cells
                .binary_search_by_key(&state, |&(from, _)| from)
                .unwrap_or(NO_ROW)
        };
        successors.extend(edges.iter().map(|&(to, _)| Successor {
            to,
            row: row_of(to),
        }));
        let total_at = counts.len();
        counts.push(0);
        let mut total = 0u64;
        let mut start = 0;
        for &(_, end) in cells {
            let end = end as usize;
            let row_total = edges.get(start..end).map_or(0, |row| {
                row.iter()
                    .fold(0u64, |sum, &(_, count)| sum.wrapping_add(count))
            });
            total = total.wrapping_add(row_total);
            counts.push(row_total);
            rows.push(RowSpan { start, end });
            start = end;
        }
        counts.extend(edges.iter().map(|&(_, count)| count));
        if let Some(slot) = counts.get_mut(total_at) {
            *slot = total;
        }
        let initial = self.initial();
        Successor {
            to: initial,
            row: row_of(initial),
        }
    }
}

/// Rows with fewer edges than this always pass the probability-sum check
/// of [`check_row`] once their counts are positive and their total fits
/// in `u64`, so the check, a float division per edge, is skipped for
/// them. Each normalized count `c / total` has a relative error of at
/// most about `3 * 2^-53` (two conversions and a division), and summing
/// `n` such terms, which add up to 1, adds at most `(n - 1) * 2^-53`
/// more: the sum is within `(n + 2) * 2^-53` of 1, under `1.2e-10` for
/// `n < 2^20` and far inside the `1e-9` tolerance.
const EXACT_ROW_SUM_EDGES: usize = 1 << 20;

/// Checks the row of `from` for [`MarkovChain::validate`], adding its
/// transition count to the chain's running `total`.
fn check_row(from: i64, edges: &[(i64, u64)], total: &mut u64) -> Result<(), String> {
    if edges.is_empty() {
        // lint: allow(L018, cold error branch: allocates once for the failing row, then aborts validation)
        return Err(format!("markov state {from} has no out-edges"));
    }
    let mut row_total: u64 = 0;
    for &(to, count) in edges {
        if count == 0 {
            // lint: allow(L018, cold error branch: allocates once for the failing edge, then aborts validation)
            return Err(format!("markov edge {from} -> {to} has zero count"));
        }
        row_total = row_total
            .checked_add(count)
            // lint: allow(L018, lazy ok_or_else closure: runs only on u64 overflow, never on the success path)
            .ok_or_else(|| format!("markov row {from} transition counts overflow u64"))?;
    }
    *total = total
        .checked_add(row_total)
        // lint: allow(L018, lazy ok_or_else closure: runs only on u64 overflow, never on the success path)
        .ok_or_else(|| "markov chain total transition count overflows u64".to_string())?;
    if edges.len() < EXACT_ROW_SUM_EDGES {
        return Ok(());
    }
    let denom = row_total as f64;
    // lint: allow(L016, f64 division cannot panic: a zero or huge divisor yields an infinity or NaN, which the finiteness check below reports)
    let prob_sum: f64 = edges.iter().map(|&(_, c)| c as f64 / denom).sum();
    if !prob_sum.is_finite() || (prob_sum - 1.0).abs() > 1e-9 {
        // lint: allow(L018, cold error branch: allocates once for the failing row, then aborts validation)
        return Err(format!(
            "markov row {from} probabilities sum to {prob_sum}, expected 1"
        ));
    }
    Ok(())
}

/// Assembles a [`MarkovChain`] from rows that arrive one at a time and in
/// any order — the profile decoder's path. Its buffers are reused from
/// chain to chain, and each finished chain gets one exactly sized copy.
///
/// While the rows arrive in ascending state order (as every encoder writes
/// them), each row is checked as it closes, in the order
/// [`MarkovChain::validate`] walks them, so a finished chain needs no
/// second walk. The first fault is held until [`ChainBuilder::finish`],
/// which reports it: a fault never preempts an error later in the
/// chain's bytes. Once a row arrives out of order, the checks stop, and
/// `finish` sorts the rows and validates the sorted chain.
#[derive(Debug, Default)]
pub(crate) struct ChainBuilder {
    /// `(state, end)` per row, in arrival order.
    rows: Vec<(i64, u64)>,
    edges: Vec<(i64, u64)>,
    /// Every state seen so far, kept only once a row arrives out of
    /// ascending order (`None` while the rows are strictly ascending).
    seen: Option<BTreeSet<i64>>,
    /// Transitions in the rows checked so far.
    total: u64,
    /// The first invariant a row read in order violates.
    fault: Option<String>,
}

impl ChainBuilder {
    /// Appends an edge to the row being read.
    pub(crate) fn push_edge(&mut self, to: i64, count: u64) {
        self.edges.push((to, count));
    }

    /// Closes the row being read as the row of `state`.
    ///
    /// # Errors
    ///
    /// Returns `state` when an earlier row already had it.
    pub(crate) fn end_row(&mut self, state: i64) -> Result<(), i64> {
        let last = self.rows.last().copied();
        let ascending = self.seen.is_none() && last.is_none_or(|(last, _)| last < state);
        if !ascending {
            if self.seen.is_none() {
                self.seen = Some(self.rows.iter().map(|&(state, _)| state).collect());
            }
            if self.seen.as_mut().is_some_and(|seen| !seen.insert(state)) {
                return Err(state);
            }
        } else if self.fault.is_none() {
            let start = last.map_or(0, |(_, end)| end as usize);
            let row = self.edges.get(start..).unwrap_or(&[]);
            self.fault = check_row(state, row, &mut self.total).err();
        }
        self.rows.push((state, self.edges.len() as u64));
        Ok(())
    }

    /// Finishes the chain with its rows in ascending state order and
    /// resets the builder for the next chain.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant (see [`MarkovChain::validate`]).
    pub(crate) fn finish(&mut self, initial: i64) -> Result<MarkovChain, String> {
        let result = if self.seen.take().is_some() {
            // The rows arrived out of order: sort them through a map.
            let mut start = 0;
            let table = self
                .rows
                .iter()
                .map(|&(state, end)| {
                    let row = self.edges.get(start..end as usize).unwrap_or(&[]);
                    start = end as usize;
                    (state, row.to_vec())
                })
                .collect();
            let chain = MarkovChain::flatten(initial, &table);
            chain.validate().map(|()| chain)
        } else if let Some(fault) = self.fault.take() {
            Err(fault)
        } else {
            let mut table = Vec::with_capacity(table_len(self.rows.len(), self.edges.len()));
            table.push((initial, self.rows.len() as u64));
            table.extend_from_slice(&self.rows);
            table.extend_from_slice(&self.edges);
            Ok(MarkovChain {
                table: table.into_boxed_slice(),
            })
        };
        self.rows.clear();
        self.edges.clear();
        self.total = 0;
        self.fault = None;
        result
    }
}

/// Row index of a state with no row of out-edges (a terminal state).
const NO_ROW: usize = usize::MAX;

/// One source state's row in a resolved table: its edges are
/// `start..end` of the chain's successors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowSpan {
    start: usize,
    end: usize,
}

/// A resolved state: its value and its row, or [`NO_ROW`] when the state
/// is terminal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Successor {
    to: i64,
    row: usize,
}

/// A Markov chain's transition table resolved for sampling: rows are the
/// source states in ascending order, and each edge stores its successor
/// value and that value's row, so a step finds its row in O(1) and walks
/// only that row.
///
/// The counts live apart from the table, in a *count block* laid out as
/// `[total, row totals.., edge counts..]`: the fitted counts are shared,
/// and strict convergence consumes a private copy of them. A
/// [`MarkovSampler`] owns one table and its blocks; a
/// [`crate::synth::SynthPlan`] holds every chain of a profile in one flat
/// table and gives each live leaf its own copy of the remaining counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainTable<'a> {
    pub(crate) initial: Successor,
    pub(crate) rows: &'a [RowSpan],
    pub(crate) successors: &'a [Successor],
}

impl ChainTable<'_> {
    /// Emits the next state after the row `current` (`None` before the
    /// first emission, which is the initial state and draws nothing).
    ///
    /// Strict: the current row's `remaining` edges, else a jump via any
    /// remaining edge so the value multiset still converges. Once every
    /// count is spent (more values asked for than observed), and always
    /// when `remaining` is empty (non-strict), draw from the `observed`
    /// counts the same way. Every weighted draw uses the same total and
    /// the same walk order as a walk over the chain's sorted transition
    /// map, so a seed yields the same values either way.
    pub(crate) fn next_state<R: Rng + ?Sized>(
        &self,
        observed: &[u64],
        remaining: &mut [u64],
        current: &mut Option<usize>,
        rng: &mut R,
    ) -> i64 {
        let Some(row) = *current else {
            *current = Some(self.initial.row);
            return self.initial.to;
        };
        let edge = match draw(self.rows, remaining, row, rng) {
            Some((row, edge)) => {
                take(self.rows.len(), remaining, row, edge);
                Some(edge)
            }
            None => draw(self.rows, observed, row, rng).map(|(_, edge)| edge),
        };
        let next = edge
            .and_then(|edge| self.successors.get(edge))
            .copied()
            .unwrap_or(self.initial);
        *current = Some(next.row);
        next.to
    }
}

/// Splits a count block into its total, row totals and edge counts
/// (`None` for an empty block).
fn split_counts(counts: &[u64], rows: usize) -> Option<(u64, &[u64], &[u64])> {
    let (&total, rest) = counts.split_first()?;
    let (row_totals, edge_counts) = rest.split_at_checked(rows)?;
    Some((total, row_totals, edge_counts))
}

/// Draws a `(row, edge)` proportionally to the count block `counts`: from
/// `row` when it has any count, else from the whole table, skipping rows
/// by their totals. `None` when every count is zero (or the block is
/// empty), without touching `rng`.
fn draw<R: Rng + ?Sized>(
    rows: &[RowSpan],
    counts: &[u64],
    row: usize,
    rng: &mut R,
) -> Option<(usize, usize)> {
    let (total, row_totals, edge_counts) = split_counts(counts, rows.len())?;
    let (row, mut target) = match row_totals.get(row) {
        Some(&row_total) if row_total > 0 => (row, rng.gen_range(0..row_total)),
        _ if total > 0 => {
            let mut target = rng.gen_range(0..total);
            let row = row_totals.iter().position(|&row_total| {
                let here = target < row_total;
                if !here {
                    target -= row_total;
                }
                here
            })?;
            (row, target)
        }
        _ => return None,
    };
    let span = rows.get(row)?;
    let offset = edge_counts
        .get(span.start..span.end)?
        .iter()
        .position(|&count| {
            let here = target < count;
            if !here {
                target -= count;
            }
            here
        })?;
    Some((row, span.start + offset))
}

/// Consumes one count of `edge`, which leaves `row`, from the count block
/// `counts` of a table with `rows` rows.
fn take(rows: usize, counts: &mut [u64], row: usize, edge: usize) {
    let Some((total, rest)) = counts.split_first_mut() else {
        return;
    };
    let Some((row_totals, edge_counts)) = rest.split_at_mut_checked(rows) else {
        return;
    };
    if let (Some(r), Some(e)) = (row_totals.get_mut(row), edge_counts.get_mut(edge)) {
        *r -= 1;
        *e -= 1;
        *total = total.wrapping_sub(1);
    }
}

/// Streaming sampler for a [`MarkovChain`].
///
/// The first emission is the chain's initial state; each subsequent
/// emission follows a transition from the current state. Under strict
/// convergence the sampler consumes counts; if the current state's edges
/// are exhausted (a dead end the decremented walk can reach), it jumps to
/// any remaining edge so the overall value multiset is still reproduced.
///
/// The chain is resolved once into a row table and a successor table,
/// with its counts in a separate block whose per-row and grand totals are
/// kept in step as counts are consumed. Synthesis draws through the same
/// step function over a profile-wide [`crate::SynthPlan`], so a seed
/// yields the same values either way.
#[derive(Debug, Clone)]
pub struct MarkovSampler {
    /// The resolved table (see [`ChainTable`]).
    initial: Successor,
    rows: Box<[RowSpan]>,
    successors: Box<[Successor]>,
    /// The fitted count block.
    observed: Box<[u64]>,
    /// The counts strict convergence has not consumed yet (empty for a
    /// non-strict sampler).
    remaining: Box<[u64]>,
    /// Row of the last emitted state, `None` before the first emission.
    current: Option<usize>,
}

impl MarkovSampler {
    /// Emits the next state.
    pub fn next_state<R: Rng + ?Sized>(&mut self, rng: &mut R) -> i64 {
        let table = ChainTable {
            initial: self.initial,
            rows: &self.rows,
            successors: &self.successors,
        };
        table.next_state(&self.observed, &mut self.remaining, &mut self.current, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::rng::Prng;

    fn multiset(values: &[i64]) -> BTreeMap<i64, usize> {
        let mut m = BTreeMap::new();
        for &v in values {
            *m.entry(v).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn fit_counts_transitions() {
        let chain = MarkovChain::fit(&[1, 2, 2, 3, 2]);
        assert_eq!(chain.initial(), 1);
        assert_eq!(chain.successors(1), &[(2, 1)]);
        assert_eq!(chain.successors(2), &[(2, 1), (3, 1)]);
        assert_eq!(chain.successors(3), &[(2, 1)]);
        assert_eq!(chain.num_transitions(), 4);
        assert_eq!(chain.num_states(), 3);
    }

    #[test]
    fn fit_single_value() {
        let chain = MarkovChain::fit(&[7]);
        assert_eq!(chain.initial(), 7);
        assert_eq!(chain.num_transitions(), 0);
        assert!(chain.successors(7).is_empty());
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn fit_empty_panics() {
        let _ = MarkovChain::fit(&[]);
    }

    #[test]
    fn table1_size_probabilities() {
        // Sizes from Table I: 128 always followed by 64; 64 followed by 64
        // (8 times) or 128 (once) within one temporal partition.
        let sizes = [128i64, 64, 64, 64, 64, 64, 128, 64, 64, 64, 64, 64];
        let chain = MarkovChain::fit(&sizes);
        assert_eq!(chain.successors(128), &[(64, 2)]);
        let from64 = chain.successors(64);
        assert_eq!(from64, &[(64, 8), (128, 1)]);
    }

    #[test]
    fn strict_convergence_reproduces_multiset() {
        let seq = [8i64, 64, 64, 64, 64, -264, 8, 64, 64, 64, 64];
        let chain = MarkovChain::fit(&seq);
        for seed in 0..20u64 {
            let mut rng = Prng::seed_from_u64(seed);
            let mut sampler = chain.sampler(true);
            let out: Vec<i64> = (0..seq.len())
                .map(|_| sampler.next_state(&mut rng))
                .collect();
            assert_eq!(multiset(&out), multiset(&seq), "seed {seed}");
        }
    }

    #[test]
    fn strict_convergence_exact_read_write_counts() {
        // Paper: "strict convergence ensures that both McC and STM models
        // produce the exact number of reads and writes".
        let ops = [0i64, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0];
        let chain = MarkovChain::fit(&ops);
        let mut rng = Prng::seed_from_u64(99);
        let mut sampler = chain.sampler(true);
        let out: Vec<i64> = (0..ops.len())
            .map(|_| sampler.next_state(&mut rng))
            .collect();
        assert_eq!(multiset(&out), multiset(&ops));
    }

    #[test]
    fn deterministic_chain_replays_exactly() {
        // A cycle with unique successors replays the exact sequence.
        let seq = [1i64, 2, 3, 1, 2, 3, 1, 2, 3];
        let chain = MarkovChain::fit(&seq);
        let mut rng = Prng::seed_from_u64(0);
        let mut sampler = chain.sampler(true);
        let out: Vec<i64> = (0..seq.len())
            .map(|_| sampler.next_state(&mut rng))
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn first_emission_is_initial() {
        let chain = MarkovChain::fit(&[42, 7, 42]);
        let mut rng = Prng::seed_from_u64(3);
        assert_eq!(chain.sampler(true).next_state(&mut rng), 42);
        assert_eq!(chain.sampler(false).next_state(&mut rng), 42);
    }

    #[test]
    fn non_strict_emits_only_observed_values() {
        let seq = [5i64, 6, 5, 7, 5, 6];
        let chain = MarkovChain::fit(&seq);
        let mut rng = Prng::seed_from_u64(11);
        let mut sampler = chain.sampler(false);
        for _ in 0..200 {
            let v = sampler.next_state(&mut rng);
            assert!(seq.contains(&v));
        }
    }

    #[test]
    fn exhausted_strict_sampler_falls_back() {
        let seq = [1i64, 2];
        let chain = MarkovChain::fit(&seq);
        let mut rng = Prng::seed_from_u64(5);
        let mut sampler = chain.sampler(true);
        // Ask for more values than observed; must not panic.
        let out: Vec<i64> = (0..10).map(|_| sampler.next_state(&mut rng)).collect();
        assert_eq!(out[0], 1);
        assert_eq!(out[1], 2);
        assert!(out.iter().all(|v| seq.contains(v)));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let seq = [0i64, 1, 0, 0, 1, 1, 0, 1];
        let chain = MarkovChain::fit(&seq);
        let run = |seed: u64| -> Vec<i64> {
            let mut rng = Prng::seed_from_u64(seed);
            let mut s = chain.sampler(true);
            (0..seq.len()).map(|_| s.next_state(&mut rng)).collect()
        };
        assert_eq!(run(17), run(17));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_parts_rejects_zero_counts() {
        let mut t = BTreeMap::new();
        t.insert(0i64, vec![(1i64, 0u64)]);
        let _ = MarkovChain::from_parts(0, t);
    }

    #[test]
    fn try_from_parts_rejects_zero_counts_without_panicking() {
        let mut t = BTreeMap::new();
        t.insert(0i64, vec![(1i64, 0u64)]);
        let err = MarkovChain::try_from_parts(0, t).unwrap_err();
        assert!(err.contains("zero count"), "{err}");
    }

    #[test]
    fn validate_accepts_every_fitted_chain() {
        for seq in [
            vec![1i64],
            vec![1, 2, 3, 2, 1],
            vec![0, 0, 0, 1, 0, 1, 1],
            (0..100).map(|i| i % 7).collect(),
        ] {
            MarkovChain::fit(&seq).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_empty_rows() {
        let mut t = BTreeMap::new();
        t.insert(5i64, Vec::new());
        let err = MarkovChain::try_from_parts(5, t).unwrap_err();
        assert!(err.contains("no out-edges"), "{err}");
    }

    #[test]
    fn validate_rejects_row_count_overflow() {
        // Two edges of 2^63 each: the row total (and thus the strict
        // sampler's weighted draw) would overflow u64.
        let mut t = BTreeMap::new();
        t.insert(0i64, vec![(1i64, 1u64 << 63), (2i64, 1u64 << 63)]);
        let err = MarkovChain::try_from_parts(0, t).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn validate_rejects_chain_total_overflow() {
        let mut t = BTreeMap::new();
        t.insert(0i64, vec![(1i64, u64::MAX - 1)]);
        t.insert(1i64, vec![(0i64, u64::MAX - 1)]);
        let err = MarkovChain::try_from_parts(0, t).unwrap_err();
        assert!(err.contains("total transition count"), "{err}");
    }
}
