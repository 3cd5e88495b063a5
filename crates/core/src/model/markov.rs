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
        let mut chains = Chains::default();
        let at = chains.push_fitted(sequence[0], &mut pairs, 0);
        chains.chain(at).model()
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
            .try_for_each(|(from, edges)| check_row(from, edges.iter().copied(), &mut total))
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
    /// in ascending order with its `(to, count)` edges.
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
        let mut chains = Chains::default();
        let chain = chains.push_model(self, 0);
        let remaining = if strict {
            chains.counts.clone()
        } else {
            Vec::new()
        };
        MarkovSampler {
            chains,
            chain,
            remaining,
            current: None,
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

/// Checks the row of `from`, given its `(to, count)` edges, for
/// [`MarkovChain::validate`], adding its transition count to the chain's
/// running `total`.
fn check_row(
    from: i64,
    edges: impl ExactSizeIterator<Item = (i64, u64)> + Clone,
    total: &mut u64,
) -> Result<(), String> {
    if edges.len() == 0 {
        // lint: allow(L018, cold error branch: allocates once for the failing row, then aborts validation)
        return Err(format!("markov state {from} has no out-edges"));
    }
    let mut row_total: u64 = 0;
    for (to, count) in edges.clone() {
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
    let prob_sum: f64 = edges.map(|(_, c)| c as f64 / denom).sum();
    if !prob_sum.is_finite() || (prob_sum - 1.0).abs() > 1e-9 {
        // lint: allow(L018, cold error branch: allocates once for the failing row, then aborts validation)
        return Err(format!(
            "markov row {from} probabilities sum to {prob_sum}, expected 1"
        ));
    }
    Ok(())
}

/// A `start..end` run of a flat array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Span {
    /// The run of `items` (empty if out of bounds).
    pub(crate) fn of<T>(self, items: &[T]) -> &[T] {
        items.get(self.start..self.end).unwrap_or_default()
    }

    /// The run of `items`, mutably (empty if out of bounds).
    pub(crate) fn of_mut<T>(self, items: &mut [T]) -> &mut [T] {
        items.get_mut(self.start..self.end).unwrap_or_default()
    }

    /// The run moved up by `base`.
    pub(crate) fn at(self, base: usize) -> Self {
        Self {
            start: base.wrapping_add(self.start),
            end: base.wrapping_add(self.end),
        }
    }
}

/// An arena offset narrowed to 32 bits. A profile's arena holds fewer
/// than 2^32 rows, edges and counts: that takes over 32 GiB of encoded
/// profile or of trace to fit, and an offset past it saturates, so a
/// lookup finds nothing rather than panicking.
fn narrow(offset: usize) -> u32 {
    u32::try_from(offset).unwrap_or(u32::MAX)
}

/// The run of the row `row` among its chain's edges, given each row's
/// edge end.
fn row_span(ends: &[u32], row: usize) -> Option<Span> {
    let start = row.checked_sub(1).and_then(|r| ends.get(r)).copied();
    Some(Span {
        start: start.unwrap_or(0) as usize,
        end: *ends.get(row)? as usize,
    })
}

/// A position in a [`Chains`] arena: a length of each of its arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) rows: usize,
    pub(crate) successors: usize,
    pub(crate) counts: usize,
}

/// One chain's place in a [`Chains`] arena: its initial state and row,
/// its rows and edges, and the start of its count block relative to a
/// base its owner keeps (a profile's leaf keeps its chains' count blocks
/// back to back, to copy them in one go). A row's edges are a run of the
/// chain's edges, and a successor's row is an index into the chain's
/// rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ChainAt {
    initial: i64,
    initial_row: u32,
    rows: u32,
    num_rows: u32,
    edges: u32,
    num_edges: u32,
    counts: u32,
}

impl ChainAt {
    fn rows(self) -> Span {
        Span {
            start: self.rows as usize,
            end: self.rows as usize + self.num_rows as usize,
        }
    }

    fn edges(self) -> Span {
        Span {
            start: self.edges as usize,
            end: self.edges as usize + self.num_edges as usize,
        }
    }

    /// The chain's count block, `[edge counts.., row totals.., total]`,
    /// relative to its owner's base.
    pub(crate) fn counts(self) -> Span {
        let len = self.num_edges as usize + self.num_rows as usize + 1;
        Span {
            start: self.counts as usize,
            end: self.counts as usize + len,
        }
    }

    /// The edge counts at the front of the chain's count block.
    fn edge_counts(self) -> Span {
        Span {
            start: self.counts as usize,
            end: self.counts as usize + self.num_edges as usize,
        }
    }

    /// The chain's place with its count block moved up by `counts`.
    pub(crate) fn counts_at(self, counts: usize) -> Self {
        Self {
            counts: narrow(self.counts as usize + counts),
            ..self
        }
    }

    /// The chain's place with its rows and edges moved up by `base`'s.
    pub(crate) fn rows_at(self, base: Mark) -> Self {
        Self {
            rows: narrow(self.rows as usize + base.rows),
            edges: narrow(self.edges as usize + base.successors),
            ..self
        }
    }
}

/// Markov chains resolved for sampling, back to back in flat arrays, and
/// written in place: the profile decoder and the fit append to them row
/// by row, so a chain is never built anywhere else first.
///
/// Each row keeps its source state (for the encoder) and the end of its
/// edges; each edge keeps its successor value and that value's row,
/// resolved once when its chain closes. A chain's counts are a *count
/// block* `[edge counts.., row totals.., total]`: the fitted counts are
/// shared, and strict convergence consumes a private copy. Edge counts
/// come first so that a chain's counts are written as its edges arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Chains {
    /// Each row's edge end, relative to its chain's first edge.
    ends: Vec<u32>,
    states: Vec<i64>,
    /// Each edge's successor value and its row in the chain.
    targets: Vec<i64>,
    target_rows: Vec<u32>,
    counts: Vec<u64>,
    /// Where the chain being written starts.
    open: Mark,
}

impl Chains {
    /// The end of every array.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            rows: self.ends.len(),
            successors: self.targets.len(),
            counts: self.counts.len(),
        }
    }

    /// Reserves room for exactly the arrays of `parts` more.
    pub(crate) fn reserve_exact(&mut self, parts: impl Iterator<Item = Mark> + Clone) {
        let sum = |len: fn(Mark) -> usize| parts.clone().map(len).sum::<usize>();
        self.ends.reserve_exact(sum(|m| m.rows));
        self.states.reserve_exact(sum(|m| m.rows));
        self.targets.reserve_exact(sum(|m| m.successors));
        self.target_rows.reserve_exact(sum(|m| m.successors));
        self.counts.reserve_exact(sum(|m| m.counts));
    }

    /// Drops spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.states.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.target_rows.shrink_to_fit();
        self.counts.shrink_to_fit();
    }

    /// Every chain's count block, back to back.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Appends an edge to the row being written.
    #[inline]
    pub(crate) fn push_edge(&mut self, to: i64, count: u64) {
        self.targets.push(to);
        self.counts.push(count);
    }

    /// Closes the row being written as the row of `state`.
    #[inline]
    pub(crate) fn push_row(&mut self, state: i64) {
        self.ends.push(narrow(
            self.targets.len().wrapping_sub(self.open.successors),
        ));
        self.states.push(state);
    }

    /// The open chain's rows and edges, as absolute runs.
    fn open_runs(&self) -> (Span, Span) {
        let open = self.open;
        let rows = Span {
            start: open.rows,
            end: self.ends.len(),
        };
        let edges = Span {
            start: open.successors,
            end: self.targets.len(),
        };
        (rows, edges)
    }

    /// The chain being written, as far as it goes (count block absolute).
    fn open_chain(&self) -> ChainAt {
        let (rows, edges) = self.open_runs();
        ChainAt {
            initial: 0,
            initial_row: NO_ROW,
            rows: narrow(rows.start),
            num_rows: narrow(rows.end.wrapping_sub(rows.start)),
            edges: narrow(edges.start),
            num_edges: narrow(edges.end.wrapping_sub(edges.start)),
            counts: narrow(self.open.counts),
        }
    }

    /// Closes the chain being written, with initial state `initial`:
    /// resolves each successor's row and appends the row totals and the
    /// total. Returns the chain's place, its count block relative to
    /// `counts_base`.
    ///
    /// Totals wrap rather than overflow: a validated chain never
    /// overflows (see [`MarkovChain::validate`]), and an unvalidated one
    /// must not panic the sampler.
    pub(crate) fn close(&mut self, initial: i64, counts_base: usize) -> ChainAt {
        let (rows, edges) = self.open_runs();
        let open = self.open_chain();
        let counts_at = self.open.counts;
        let Self {
            ends,
            states,
            targets,
            target_rows,
            counts,
            ..
        } = self;
        let states = rows.of(states);
        let row_of = |state: i64| states.binary_search(&state).map_or(NO_ROW, narrow);
        target_rows.extend(edges.of(targets).iter().map(|&to| row_of(to)));
        let mut total = 0u64;
        let mut start = 0;
        for &end in rows.of(ends) {
            let row = Span {
                start,
                end: end as usize,
            };
            start = end as usize;
            let row_total = row
                .at(counts_at)
                .of(counts)
                .iter()
                .fold(0u64, |sum, &count| sum.wrapping_add(count));
            total = total.wrapping_add(row_total);
            counts.push(row_total);
        }
        counts.push(total);
        let chain = ChainAt {
            initial,
            initial_row: row_of(initial),
            counts: narrow(counts_at.wrapping_sub(counts_base)),
            ..open
        };
        self.open = self.mark();
        chain
    }

    /// Sorts the rows of the chain being written by state, each row's
    /// edges moving with it.
    fn sort_open(&mut self) {
        let (rows, edges) = self.open_runs();
        let ends = rows.of(&self.ends);
        let mut order: Vec<(i64, Span)> = rows
            .of(&self.states)
            .iter()
            .enumerate()
            .filter_map(|(row, &state)| Some((state, row_span(ends, row)?)))
            .collect();
        order.sort_unstable_by_key(|&(state, _)| state);
        let targets = edges.of(&self.targets).to_vec();
        let counts = edges
            .at(self.open.counts.wrapping_sub(edges.start))
            .of(&self.counts)
            .to_vec();
        self.ends.truncate(rows.start);
        self.states.truncate(rows.start);
        self.targets.truncate(edges.start);
        self.counts.truncate(self.open.counts);
        for (state, row) in order {
            self.targets.extend_from_slice(row.of(&targets));
            self.counts.extend_from_slice(row.of(&counts));
            self.push_row(state);
        }
    }

    /// The chain at `at` (count block absolute).
    pub(crate) fn chain(&self, at: ChainAt) -> ChainRef<'_> {
        ChainRef { chains: self, at }
    }

    /// The resolved table of the chain at `at`.
    pub(crate) fn table(&self, at: ChainAt) -> ChainTable<'_> {
        ChainTable {
            initial: (at.initial, at.initial_row),
            ends: at.rows().of(&self.ends),
            targets: at.edges().of(&self.targets),
            target_rows: at.edges().of(&self.target_rows),
        }
    }

    /// Writes the chain fitted to the consecutive `(from, to)` pairs of a
    /// sequence that starts at `initial`, sorting `pairs` in place, and
    /// closes it. Sorting groups each row, and each edge within it, into
    /// one run.
    pub(crate) fn push_fitted(
        &mut self,
        initial: i64,
        pairs: &mut [(i64, i64)],
        counts_base: usize,
    ) -> ChainAt {
        pairs.sort_unstable();
        for row in pairs.chunk_by(|a, b| a.0 == b.0) {
            for run in row.chunk_by(|a, b| a.1 == b.1) {
                self.push_edge(run[0].1, run.len() as u64);
            }
            self.push_row(row[0].0);
        }
        self.close(initial, counts_base)
    }

    /// Writes `chain` and closes it.
    pub(crate) fn push_model(&mut self, chain: &MarkovChain, counts_base: usize) -> ChainAt {
        for (from, edges) in chain.rows() {
            for &(to, count) in edges {
                self.push_edge(to, count);
            }
            self.push_row(from);
        }
        self.close(chain.initial(), counts_base)
    }

    /// Appends `other`'s chains, whose rows and edges move up by this
    /// arena's [`Chains::mark`] (see [`ChainAt::rows_at`]). Row ends and
    /// successor rows are chain-relative, so they move unchanged.
    pub(crate) fn append(&mut self, other: &Self) {
        self.ends.extend_from_slice(&other.ends);
        self.states.extend_from_slice(&other.states);
        self.targets.extend_from_slice(&other.targets);
        self.target_rows.extend_from_slice(&other.target_rows);
        self.counts.extend_from_slice(&other.counts);
        self.open = self.mark();
    }
}

/// One chain of a [`Chains`] arena, borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainRef<'a> {
    chains: &'a Chains,
    at: ChainAt,
}

impl<'a> ChainRef<'a> {
    /// The first state.
    pub(crate) fn initial(self) -> i64 {
        self.at.initial
    }

    /// Number of `(from, to)` edges.
    pub(crate) fn num_edges(self) -> usize {
        self.at.num_edges as usize
    }

    /// Each row's state, successor values and edge counts, states
    /// ascending.
    pub(crate) fn rows(
        self,
    ) -> impl ExactSizeIterator<Item = (i64, &'a [i64], &'a [u64])> + Clone + 'a {
        let chains = self.chains;
        let ends = self.at.rows().of(&chains.ends);
        let targets = self.at.edges().of(&chains.targets);
        let edge_counts = self.at.edge_counts().of(&chains.counts);
        let states = self.at.rows().of(&chains.states);
        states.iter().enumerate().map(move |(row, &state)| {
            let run = row_span(ends, row).unwrap_or_default();
            (state, run.of(targets), run.of(edge_counts))
        })
    }

    /// Checks the chain's rows in order (see [`MarkovChain::validate`]).
    pub(crate) fn check(self) -> Result<(), String> {
        let mut total = 0;
        self.rows().try_for_each(|(from, targets, counts)| {
            let edges = targets.iter().copied().zip(counts.iter().copied());
            check_row(from, edges, &mut total)
        })
    }

    /// The chain as an owned [`MarkovChain`].
    pub(crate) fn model(self) -> MarkovChain {
        let rows = self.rows();
        let mut table = Vec::with_capacity(table_len(rows.len(), self.num_edges()));
        table.push((self.initial(), rows.len() as u64));
        table.extend(rows.clone().scan(0, |end, (state, targets, _)| {
            *end += targets.len() as u64;
            Some((state, *end))
        }));
        for (_, targets, counts) in rows {
            table.extend(targets.iter().copied().zip(counts.iter().copied()));
        }
        MarkovChain {
            table: table.into_boxed_slice(),
        }
    }
}

/// The profile decoder's checks on a chain whose rows arrive one at a
/// time and in any order, written into a [`Chains`] arena as they come.
///
/// While the rows arrive in ascending state order (as every encoder writes
/// them), each row is checked as it closes, in the order
/// [`MarkovChain::validate`] walks them, so a finished chain needs no
/// second walk. The first fault is held until [`RowChecks::finish`],
/// which reports it: a fault never preempts an error later in the
/// chain's bytes. Once a row arrives out of order, the checks stop, and
/// `finish` sorts the rows and checks the sorted chain.
#[derive(Debug, Default)]
pub(crate) struct RowChecks {
    /// Every state seen so far, kept only once a row arrives out of
    /// ascending order (`None` while the rows are strictly ascending).
    seen: Option<BTreeSet<i64>>,
    /// Transitions in the rows checked so far.
    total: u64,
    /// The first invariant a row read in order violates.
    fault: Option<String>,
}

impl RowChecks {
    /// Closes the row being written to `chains` as the row of `state`.
    ///
    /// # Errors
    ///
    /// Returns `state` when an earlier row of the chain already had it.
    pub(crate) fn end_row(&mut self, chains: &mut Chains, state: i64) -> Result<(), i64> {
        let (rows, edges) = chains.open_runs();
        let states = rows.of(&chains.states);
        let ascending = self.seen.is_none() && states.last().is_none_or(|&last| last < state);
        if !ascending {
            let seen = self
                .seen
                .get_or_insert_with(|| states.iter().copied().collect());
            if !seen.insert(state) {
                return Err(state);
            }
        } else if self.fault.is_none() {
            let start = rows.of(&chains.ends).last().map_or(0, |&end| end as usize);
            let row = Span {
                start: edges.start + start,
                end: edges.end,
            };
            let counts = row.at(chains.open.counts.wrapping_sub(edges.start));
            let edges = row
                .of(&chains.targets)
                .iter()
                .copied()
                .zip(counts.of(&chains.counts).iter().copied());
            self.fault = check_row(state, edges, &mut self.total).err();
        }
        chains.push_row(state);
        Ok(())
    }

    /// Finishes the checks of the chain being written to `chains`, with
    /// its rows in ascending state order, and resets for the next chain.
    /// The chain is left open for [`Chains::close`].
    ///
    /// # Errors
    ///
    /// Returns the violated invariant (see [`MarkovChain::validate`]).
    pub(crate) fn finish(&mut self, chains: &mut Chains) -> Result<(), String> {
        let result = if self.seen.take().is_some() {
            chains.sort_open();
            chains.chain(chains.open_chain()).check()
        } else {
            self.fault.take().map_or(Ok(()), Err)
        };
        self.total = 0;
        self.fault = None;
        result
    }
}

/// Row index of a state with no row of out-edges (a terminal state).
const NO_ROW: u32 = u32::MAX;

/// A Markov chain's transition table resolved for sampling: rows are the
/// source states in ascending order, and each edge stores its successor
/// value and that value's row, so a step finds its row in O(1) and walks
/// only that row.
///
/// The counts live apart from the table, in the chain's count block (see
/// [`Chains`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainTable<'a> {
    /// The initial state and its row.
    initial: (i64, u32),
    /// Each row's edge end.
    ends: &'a [u32],
    targets: &'a [i64],
    target_rows: &'a [u32],
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
            *current = Some(self.initial.1 as usize);
            return self.initial.0;
        };
        let edge = match draw(self.ends, remaining, row, rng) {
            Some((row, edge)) => {
                take(self.ends.len(), remaining, row, edge);
                Some(edge)
            }
            None => draw(self.ends, observed, row, rng).map(|(_, edge)| edge),
        };
        let (to, row) = edge
            .and_then(|edge| Some((*self.targets.get(edge)?, *self.target_rows.get(edge)?)))
            .unwrap_or(self.initial);
        *current = Some(row as usize);
        to
    }
}

/// Splits a count block into its total, row totals and edge counts
/// (`None` for an empty block).
fn split_counts(counts: &[u64], rows: usize) -> Option<(u64, &[u64], &[u64])> {
    let (&total, rest) = counts.split_last()?;
    let (edge_counts, row_totals) = rest.split_at_checked(rest.len().checked_sub(rows)?)?;
    Some((total, row_totals, edge_counts))
}

/// Draws a `(row, edge)` proportionally to the count block `counts` of a
/// table whose rows end their edges at `ends`: from `row` when it has
/// any count, else from the whole table, skipping rows by their totals.
/// `None` when every count is zero (or the block is empty), without
/// touching `rng`.
fn draw<R: Rng + ?Sized>(
    ends: &[u32],
    counts: &[u64],
    row: usize,
    rng: &mut R,
) -> Option<(usize, usize)> {
    let (total, row_totals, edge_counts) = split_counts(counts, ends.len())?;
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
    let span = row_span(ends, row)?;
    let offset = span.of(edge_counts).iter().position(|&count| {
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
    let Some((total, rest)) = counts.split_last_mut() else {
        return;
    };
    let Some(edges) = rest.len().checked_sub(rows) else {
        return;
    };
    let (edge_counts, row_totals) = rest.split_at_mut(edges);
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
/// The chain is resolved once into a one-chain arena, with its counts
/// in a separate block whose per-row and grand totals are kept in step
/// as counts are consumed. Synthesis draws through the same step
/// function over a profile's arena, so a seed yields the same values
/// either way.
#[derive(Debug, Clone)]
pub struct MarkovSampler {
    chains: Chains,
    chain: ChainAt,
    /// The counts strict convergence has not consumed yet (empty for a
    /// non-strict sampler).
    remaining: Vec<u64>,
    /// Row of the last emitted state, `None` before the first emission.
    current: Option<usize>,
}

impl MarkovSampler {
    /// Emits the next state.
    pub fn next_state<R: Rng + ?Sized>(&mut self, rng: &mut R) -> i64 {
        self.chains.table(self.chain).next_state(
            self.chains.counts(),
            &mut self.remaining,
            &mut self.current,
            rng,
        )
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
