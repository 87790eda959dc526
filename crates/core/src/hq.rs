//! The Hash–Query (HQ) index (paper Section V-C, Figs. 4–5).
//!
//! Query sketches are stored column-per-query in a conceptual `K × m`
//! array `HQ`, where row `i` holds every query's `i`-th min-hash value.
//! Probing a basic-window sketch touches every row once, so only
//! *related* queries (those sharing at least one min-hash value with the
//! window) are ever compared — and their 2K-bit signatures are produced
//! as a by-product, with Lemma-2 pruning applied before a hit is
//! reported.
//!
//! The paper's Fig. 4 keeps each row sorted and Fig. 5 walks
//! `⟨value, up, down⟩` triples row by row, carrying a partial signature
//! per related query. Both are serial chains of dependent loads — a
//! binary search per row, then one load per row per tracked query — and
//! at `m = 1024` the searches alone were most of a detector's time. This
//! implementation keeps Fig. 5's *results* and replaces its mechanics:
//!
//! 1. **Discovery**: each row is a small open-addressed hash table
//!    (linear probing, load ≤ ½) keyed by the min-hash value, so "which
//!    queries hold this value on this row" is one expected-`O(1)` lookup
//!    whose address depends only on the window's value. The `K` lookups
//!    are issued in batches — every home cell of a batch is loaded
//!    before any run is walked — so their cache misses overlap instead
//!    of queueing. A cell is a 12-bit tag of the value's hash over the
//!    20-bit slot of the owning query; a tag match on a slot not yet
//!    discovered is verified against the query's value in the slab, so
//!    discovery is exact, and slots are deduplicated across rows.
//! 2. **Encoding**: for each related slot, encode the full signature
//!    from the query's *contiguous* sketch copy in the `columns` slab —
//!    its values and, behind them, their discriminator plane — with the
//!    [`BitSig::encode_counts_from_planes`] kernel, then apply the
//!    Lemma-2 test to the counted result.
//!
//! The slab is also where a candidate store's *on-demand* encodes read a
//! query ([`HqIndex::encode_against`], through an id → slot directory): a
//! query the window is not related to shares no value with it, so its
//! signature comes from the plane alone, a quarter of the bytes. It is
//! the only copy of a subscribed query's values a detector or fleet
//! keeps: the NoIndex variants and the Sketch representation read them
//! here too ([`HqIndex::values`]).
//!
//! Phase 2's final `n_lt > K(1−δ)` test accepts exactly the elements the
//! paper's mid-probe pruning keeps: `n_lt` only grows along the walk, so
//! an element whose running count ever exceeds the bound also exceeds it
//! in total (and is re-pruned on any re-creation), and one that never
//! does survives with the complete signature either way. The
//! `probe_matches_bruteforce` test pins this equivalence.
//!
//! **Cost bound.** A lookup walks the run of occupied cells from the
//! value's home to the first empty cell. With distinct values and load
//! ≤ ½ that is ≈ 2.5 cells. Queries that *share* a value on a row (the
//! same clip subscribed twice, a cell id common to many clips) hash to
//! one home and form one run that every lookup landing in it crosses, so
//! the walk grows with the duplication: `m` identical sketches degrade a
//! lookup to a sequential scan of the row's `m` cells — `O(K·m)` per
//! probe, the brute-force bound — and never to a wrong answer.
//!
//! **Hit order** is that of the sorted-row layout this replaces: rows in
//! order, and among queries first discovered on the same row, the most
//! recently subscribed first. It depends on the catalogue's order only,
//! not on where deletions and growth left the cells, so an index built
//! afresh from a [`QuerySet`] probes identically to one that reached the
//! same catalogue through any subscribe/unsubscribe history.

use crate::bitsig::{plane_words, push_plane, BitSig, CandidatePlane};
use crate::query::{Query, QueryId, QuerySet};
use std::cmp::Reverse;
use vdsms_sketch::Sketch;

/// Per-query metadata stored at the column entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueryMeta {
    id: QueryId,
    keyframes: u32,
    /// Subscription sequence number: later subscriptions are larger.
    /// Orders hits discovered on the same row (see the module docs).
    seq: u64,
}

/// A query found related to a probed window, with its complete bit
/// signature.
#[derive(Debug, Clone)]
pub struct ProbeHit {
    /// The related query's id.
    pub query_id: QueryId,
    /// The related query's length in key frames.
    pub keyframes: usize,
    /// Bit signature of the window relative to this query (Definition 3).
    pub sig: BitSig,
}

/// Result of probing one window sketch.
#[derive(Debug, Clone, Default)]
pub struct ProbeResult {
    /// Related, un-pruned queries with their signatures.
    pub hits: Vec<ProbeHit>,
    /// Number of row lookups performed (for the cost experiments).
    pub row_searches: u64,
}

/// Retired signature buffers kept per scratch, capped so a burst of
/// related windows cannot pin unbounded memory. The pool serves the
/// probe's hits and, in a detector, every signature its candidate store
/// holds, so the cap is what the live-signature count may fall by and
/// rise again without a call to the allocator (≈ 230 KB at `K = 800`).
const SIG_POOL_CAP: usize = 1024;

/// Narrowest row, in cells. Rows are sized to load ≤ ½, but a small
/// catalogue gets this many cells regardless (load ≤ ⅛ at `m = 8`): with
/// few queries the probe is bound by branch prediction, not memory, and a
/// home cell that is almost always empty is a branch that almost always
/// goes the same way.
const MIN_ROW_WIDTH: usize = 64;

/// Low bits of a cell: the owning query's metadata slot.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// The empty cell. No live cell equals it: slots stop short of
/// `SLOT_MASK` ([`MAX_QUERIES`]).
const EMPTY: u32 = u32::MAX;

/// Most queries one index holds — every 20-bit slot but the all-ones one.
pub(crate) const MAX_QUERIES: usize = SLOT_MASK as usize;

/// Slots per chunk of the `columns` slab: 512 KB a chunk at `K = 800`.
const CHUNK_SLOTS: usize = 64;

/// Where a slot of `stride` words lives in the slab: its chunk, and its
/// first word there.
#[inline]
fn slot_at(slot: usize, stride: usize) -> (usize, usize) {
    (slot / CHUNK_SLOTS, slot % CHUNK_SLOTS * stride)
}

/// Lookups issued together in discovery: enough independent loads in
/// flight to cover a cache miss, few enough that their state stays in
/// registers and L1.
const LOOKUP_BATCH: usize = 16;

/// Where a min-hash value goes in a row of `1 << (64 − shift)` cells:
/// its home position and its 12-bit tag, already in cell position. The
/// hash is one multiplication by a fixed odd constant (2⁶⁴/φ), so cell
/// placement — and with it everything downstream — is the same in every
/// process. The home is the hash's top bits; the tag is bits 31..43,
/// below the ≤ 21 bits any row width takes for the home.
#[inline]
fn home_and_tag(value: u64, shift: u32) -> (usize, u32) {
    let hash = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hash >> shift) as usize, (hash >> 11) as u32 & !SLOT_MASK)
}

/// Reusable working state for [`HqIndex::probe_into`]. Keep one per
/// detector and pass it to every probe; its buffers stabilize at the
/// probe's high-water marks so steady-state probes are allocation-free.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Slots discovered related this probe, in first-equal-row order.
    related: Vec<u32>,
    /// Per-slot "already discovered" flags, cleared each probe.
    seen: Vec<bool>,
    sig_pool: Vec<BitSig>,
    /// The probed window's discriminator plane: built by the first encode
    /// against it — phase 2's, or a later on-demand one — and dropped by
    /// the next probe.
    pub(crate) plane: CandidatePlane,
    /// What the last probe's discovery phase did.
    discovery: Discovery,
}

/// What one probe's discovery phase did, counted per lookup: how many
/// of its `K` lookups found their home cell occupied, how many occupied
/// cells their runs crossed, how many of those carried the lookup's tag,
/// and how many tag matches on a slot not yet discovered were checked
/// against the slot's value in the slab. Slots discovered are
/// [`ProbeScratch::encodes`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Discovery {
    pub(crate) home_hits: u64,
    pub(crate) cells_walked: u64,
    pub(crate) tag_matches: u64,
    pub(crate) verifications: u64,
}

impl ProbeScratch {
    /// Return a dead signature's word buffer for reuse by future probes
    /// (the caller is done with a [`ProbeHit`]'s signature).
    pub fn recycle_sig(&mut self, sig: BitSig) {
        if self.sig_pool.len() < SIG_POOL_CAP {
            // vdsms-lint: allow(no-alloc-hot-path) reason="pool Vec is capped at SIG_POOL_CAP; reaches its high-water mark during warm-up"
            self.sig_pool.push(sig);
        }
    }

    /// A signature buffer to encode or copy into: a recycled one while
    /// the pool has any (its old contents are the caller's to overwrite).
    pub(crate) fn take_sig(&mut self) -> BitSig {
        self.sig_pool.pop().unwrap_or_default()
    }

    /// Signatures the last probe encoded: one per related slot, the
    /// Lemma-2-pruned ones included.
    pub(crate) fn encodes(&self) -> u64 {
        self.related.len() as u64
    }

    /// What the last probe's discovery phase did.
    pub(crate) fn discovery(&self) -> Discovery {
        self.discovery
    }
}

/// The Hash–Query index.
///
/// The conceptual `K × m` array is stored as a table of cells, a slab of
/// sketches and a directory into it:
///
/// - `table`: `K` rows of `width` cells, each row an open-addressed hash
///   table over the row's min-hash values (linear probing, no
///   tombstones). A cell is `tag | slot` — 12 bits of the value's hash
///   over the metadata slot of the query owning it — or `u32::MAX`, empty. This
///   replaces the paper's sorted rows *and* its `up`/`down` links: an
///   equal cell resolves to its query in the same load that finds it;
/// - `columns`: one slot of `stride = K + plane_words(K)` words per
///   subscribed sketch — its `K` values, then their discriminator plane
///   ([`crate::bitsig`]). A query's signature is encoded from one
///   contiguous slice, plane first and values only on a tie, and a cell's
///   value — which the table does not store — is word `row` of its
///   slot: what a tag match is verified against, and where deletion and
///   growth find a cell's home again. The slab grows a chunk of 64
///   slots (`CHUNK_SLOTS`) at a time and never moves: one vector of it
///   all would double on the same insert that doubles the rows, and
///   unless it happened to end the heap that is a copy of the whole slab
///   into fresh pages — with the plane in it, 8 to 11 MB of peak RSS at
///   `m = 1024` (DESIGN.md §4, "why chunks");
/// - `by_id`: `(id, slot)` sorted by id — where an on-demand encode finds
///   a query's slot, `insert` its duplicate check and `remove` its
///   target, each by binary search.
///
/// `width` is a power of two ≥ `2·m` (and ≥ 64, `MIN_ROW_WIDTH`), doubled
/// when a subscription would push the load over ½ and never shrunk. Per
/// query and row that is 8 bytes of table at load ½ and 16 just after a
/// doubling, where the sorted layout's `⟨value, slot⟩` pair took 12;
/// `columns` is 10 more either way. `insert` and `remove` touch `K` cells
/// (plus the runs they sit in), not `K × m` — except the one `insert` in
/// `m` that doubles the rows and re-lays them all.
#[derive(Debug, Clone)]
pub struct HqIndex {
    k: usize,
    /// Cells per row: a power of two.
    width: usize,
    /// Row-major `K × width` cells.
    table: Vec<u32>,
    /// Words per slot of `columns`: `K` values, then their plane.
    stride: usize,
    /// Slots of `stride` words, `CHUNK_SLOTS` to a chunk: query `s` is
    /// slot `s mod CHUNK_SLOTS` of chunk `s / CHUNK_SLOTS`. A chunk is
    /// allocated whole, filled slot by slot, and kept when it empties.
    columns: Vec<Vec<u64>>,
    meta: Vec<QueryMeta>,
    /// `(id, slot)` of every indexed query, sorted by id.
    by_id: Vec<(QueryId, u32)>,
    /// Sequence number of the next subscription.
    next_seq: u64,
}

impl HqIndex {
    /// Build the index from a query set (the paper's offline
    /// `BuildIndex(QS)`).
    ///
    /// # Panics
    /// Panics if any query's sketch `K` differs from `k`.
    pub fn build(k: usize, queries: &QuerySet) -> HqIndex {
        let mut index = HqIndex::empty(k);
        for q in queries.iter() {
            index.insert(q);
        }
        index
    }

    /// An empty index for sketches of `k` hash functions.
    pub fn empty(k: usize) -> HqIndex {
        assert!(k >= 1);
        HqIndex {
            k,
            width: MIN_ROW_WIDTH,
            table: vec![EMPTY; k * MIN_ROW_WIDTH],
            stride: k + plane_words(k),
            columns: Vec::new(),
            meta: Vec::new(),
            by_id: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of hash functions `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed queries `m`.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no query is indexed.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Right shift taking a hash to its home position in a row.
    fn home_shift(&self) -> u32 {
        u64::BITS - self.width.trailing_zeros()
    }

    /// A slot's words: its values, then their discriminator plane.
    fn slot(&self, slot: usize) -> &[u64] {
        let (chunk, at) = slot_at(slot, self.stride);
        &self.columns[chunk][at..at + self.stride]
    }

    /// Where `id` is, or would go, in the directory.
    fn locate(&self, id: QueryId) -> Result<usize, usize> {
        self.by_id.binary_search_by_key(&id, |&(qid, _)| qid)
    }

    /// The slot of the indexed query `id`.
    fn slot_of(&self, id: QueryId) -> Option<usize> {
        Some(self.by_id[self.locate(id).ok()?].1 as usize)
    }

    /// Write `slot`'s cell into every row, each at the first empty cell
    /// from its value's home. The slot's column must already be in place.
    fn place(&mut self, slot: usize) {
        let (mask, shift) = (self.width - 1, self.home_shift());
        let (chunk, at) = slot_at(slot, self.stride);
        let column = &self.columns[chunk][at..at + self.k];
        for (row, &value) in self.table.chunks_exact_mut(self.width).zip(column) {
            let (home, tag) = home_and_tag(value, shift);
            // The home cell or its neighbour, chosen without a branch: at
            // load ⅛ to ½ "is the home taken" is a coin the predictor
            // loses an eighth to a half of the time, 800 times a call.
            let next = (home + 1) & mask;
            let mut p = if row[home] == EMPTY { home } else { next };
            while row[p] != EMPTY {
                p = (p + 1) & mask;
            }
            row[p] = tag | slot as u32;
        }
    }

    /// Re-lay every row at `width` cells.
    fn rebuild(&mut self, width: usize) {
        self.width = width;
        self.table.clear();
        self.table.resize(self.k * width, EMPTY);
        for slot in 0..self.meta.len() {
            self.place(slot);
        }
    }

    /// Subscribe a query online: append its sketch column and the
    /// column's plane, and hash its `K` values into the rows, doubling the
    /// rows first if the load would pass ½.
    ///
    /// # Panics
    /// Panics if the query's sketch `K` differs, its id is already
    /// present, or the index already holds 2²⁰ − 1 queries.
    pub fn insert(&mut self, q: &Query) {
        assert_eq!(q.sketch.k(), self.k, "query sketch K mismatch");
        let Err(at) = self.locate(q.id) else {
            panic!("query id {} already indexed", q.id);
        };
        let slot = self.meta.len();
        assert!(slot < MAX_QUERIES, "index is full ({MAX_QUERIES} queries)");
        if 2 * (slot + 1) > self.width {
            self.rebuild(2 * self.width);
        }
        let (chunk, first) = slot_at(slot, self.stride);
        if chunk == self.columns.len() {
            self.columns.push(Vec::new());
        }
        let words = &mut self.columns[chunk];
        debug_assert_eq!(words.len(), first, "slots fill their chunk in order");
        // The whole chunk at once, so it never moves: a no-op from the
        // chunk's second slot on.
        words.reserve_exact(CHUNK_SLOTS * self.stride - first);
        words.extend_from_slice(q.sketch.mins());
        push_plane(q.sketch.mins(), words);
        self.by_id.insert(at, (q.id, slot as u32));
        self.meta.push(QueryMeta { id: q.id, keyframes: q.keyframes as u32, seq: self.next_seq });
        self.next_seq += 1;
        self.place(slot);
    }

    /// Unsubscribe a query online. Returns `false` if the id is not
    /// indexed.
    pub fn remove(&mut self, id: QueryId) -> bool {
        let Ok(at) = self.locate(id) else {
            return false;
        };
        let slot = self.by_id[at].1 as usize;
        // The metadata table stays dense: the last slot moves into the
        // hole, so its cells are renamed as the removed slot's are
        // deleted — both found by lookup, row by row.
        let last = self.meta.len() - 1;
        let (k, stride, mask, shift) = (self.k, self.stride, self.width - 1, self.home_shift());
        let columns = &self.columns;
        let column = |slot: usize| {
            let (chunk, at) = slot_at(slot, stride);
            &columns[chunk][at..at + k]
        };
        // The two slots every row looks up, borrowed once.
        let (removed, renamed) = (column(slot), column(last));
        let home = |value: u64| home_and_tag(value, shift).0;
        for (i, row) in self.table.chunks_exact_mut(self.width).enumerate() {
            let find = |row: &[u32], slot: usize, value: u64| {
                let mut p = home(value);
                while row[p] & SLOT_MASK != slot as u32 {
                    assert!(row[p] != EMPTY, "indexed query must have a cell on every row");
                    p = (p + 1) & mask;
                }
                p
            };
            // Backward-shift deletion: close the hole with each later
            // cell of the run that may legally sit there (its home is
            // not strictly between the hole and itself), so no lookup
            // ever meets an empty cell before its target.
            let mut hole = find(row, slot, removed[i]);
            let mut j = hole;
            loop {
                j = (j + 1) & mask;
                let cell = row[j];
                if cell == EMPTY {
                    break;
                }
                let cell_home = home(column((cell & SLOT_MASK) as usize)[i]);
                let from_home = j.wrapping_sub(cell_home) & mask;
                if from_home >= j.wrapping_sub(hole) & mask {
                    row[hole] = cell;
                    hole = j;
                }
            }
            row[hole] = EMPTY;
            if slot != last {
                let p = find(row, last, renamed[i]);
                row[p] = row[p] & !SLOT_MASK | slot as u32;
            }
        }
        self.meta.swap_remove(slot);
        self.by_id.remove(at);
        let (last_chunk, from) = slot_at(last, stride);
        if slot != last {
            // `slot < last`, so its chunk is the last slot's or an earlier one.
            let (chunk, to) = slot_at(slot, stride);
            let (earlier, rest) = self.columns.split_at_mut(last_chunk);
            match earlier.get_mut(chunk) {
                Some(words) => words[to..to + stride].copy_from_slice(&rest[0][from..]),
                None => rest[0].copy_within(from.., to),
            }
            let moved = self.locate(self.meta[slot].id).expect("every slot is in the directory");
            self.by_id[moved].1 = slot as u32;
        }
        self.columns[last_chunk].truncate(from);
        true
    }

    /// The `K` min-hash values of the indexed query `id`, from its slot of
    /// the slab; `None` if `id` is not indexed.
    pub fn values(&self, id: QueryId) -> Option<&[u64]> {
        Some(&self.slot(self.slot_of(id)?)[..self.k])
    }

    /// The length in key frames of the indexed query `id`; `None` if `id`
    /// is not indexed.
    pub(crate) fn keyframes_of(&self, id: QueryId) -> Option<usize> {
        Some(self.meta[self.slot_of(id)?].keyframes as usize)
    }

    /// Encode a candidate sketch against the indexed query `id`, from the
    /// slab: `sig` becomes the signature [`BitSig::encode`] gives for the
    /// query's sketch, and its `(n_lt, n_eq)` is returned. `None`, with
    /// `sig` untouched, if `id` is not indexed. `candidate_plane` is the
    /// discriminator plane of `candidate` ([`CandidatePlane::of`]).
    ///
    /// # Panics
    /// Panics if the candidate's `K` differs or its plane does not fit it.
    pub fn encode_against(
        &self,
        id: QueryId,
        candidate: &[u64],
        candidate_plane: &[u64],
        sig: &mut BitSig,
    ) -> Option<(usize, usize)> {
        let (column, plane) = self.slot(self.slot_of(id)?).split_at(self.k);
        Some(sig.encode_counts_from_planes(candidate, candidate_plane, column, plane))
    }

    /// Probe a basic-window sketch (the paper's `ProbeIndex`, Fig. 5):
    /// returns every query that shares at least one min-hash value with
    /// the window and survives Lemma-2 pruning, together with its
    /// complete bit signature.
    ///
    /// Allocates fresh result buffers; the streaming detector uses
    /// [`HqIndex::probe_into`] with reusable scratch instead.
    pub fn probe(&self, sk: &Sketch, delta: f64) -> ProbeResult {
        let mut scratch = ProbeScratch::default();
        let mut hits = Vec::new();
        let row_searches = self.probe_into(sk, delta, &mut scratch, &mut hits);
        ProbeResult { hits, row_searches }
    }

    /// [`HqIndex::probe`] with caller-owned buffers: `hits` is cleared and
    /// refilled, `scratch` holds the probe's working state. After a
    /// warm-up period the steady-state probe of an unrelated window
    /// touches no allocator — the buffers' high-water marks are bounded
    /// by the related-query count. Returns the row-lookup count, `K`.
    pub fn probe_into(
        &self,
        sk: &Sketch,
        delta: f64,
        scratch: &mut ProbeScratch,
        hits: &mut Vec<ProbeHit>,
    ) -> u64 {
        assert_eq!(sk.k(), self.k, "window sketch K mismatch");
        let prune_above = (self.k as f64 * (1.0 - delta)).floor() as usize;
        let m = self.meta.len();

        let ProbeScratch { related, seen, sig_pool, plane, discovery } = scratch;
        related.clear();
        plane.clear();
        if seen.len() == m {
            seen.fill(false);
        } else {
            seen.clear();
            // vdsms-lint: allow(no-alloc-hot-path) reason="warm-up only: resizes when the subscribed-query count changes, then the branch above reuses the buffer"
            seen.resize(m, false);
        }
        hits.clear();

        // Phase 1 — discovery: one hash lookup per row. A batch's home
        // cells are all loaded before any run is walked, so the loads —
        // each a likely cache miss in its own row — are in flight
        // together. A cell whose tag matches marks its slot related once
        // the slot's own value confirms it; slots already discovered on
        // an earlier row are skipped before that check, which is what
        // keeps a window full of near-miss values (a thousand equal cells
        // for two dozen queries) from costing a thousand `columns` loads.
        let (width, mask, shift) = (self.width, self.width - 1, self.home_shift());
        let mut counts = Discovery::default();
        let Discovery { home_hits, cells_walked, tag_matches, verifications } = &mut counts;
        let batches = sk.mins().chunks(LOOKUP_BATCH).zip(self.table.chunks(LOOKUP_BATCH * width));
        for (b, (values, rows)) in batches.enumerate() {
            let mut homes = [0usize; LOOKUP_BATCH];
            let mut tags = [0u32; LOOKUP_BATCH];
            let mut cells = [EMPTY; LOOKUP_BATCH];
            for (j, (&value, row)) in values.iter().zip(rows.chunks_exact(width)).enumerate() {
                (homes[j], tags[j]) = home_and_tag(value, shift);
                cells[j] = row[homes[j]];
            }
            for (j, (&value, row)) in values.iter().zip(rows.chunks_exact(width)).enumerate() {
                let mut cell = cells[j];
                if cell == EMPTY {
                    continue;
                }
                *home_hits += 1;
                let i = b * LOOKUP_BATCH + j;
                let discovered = related.len();
                let mut p = homes[j];
                // At most `width` steps: a row is never full (load ≤ ½).
                for _ in 0..width {
                    let s = (cell & SLOT_MASK) as usize;
                    if cell & !SLOT_MASK == tags[j] {
                        *tag_matches += 1;
                        if !seen[s] {
                            *verifications += 1;
                            if self.slot(s)[i] == value {
                                seen[s] = true;
                                // vdsms-lint: allow(no-alloc-hot-path) reason="scratch Vec reused across probes; bounded by the related-query count"
                                related.push(s as u32);
                            }
                        }
                    }
                    p = (p + 1) & mask;
                    cell = row[p];
                    if cell == EMPTY {
                        break;
                    }
                }
                // The run's occupied cells: from the home up to the empty
                // cell that ended it.
                *cells_walked += (p.wrapping_sub(homes[j]) & mask) as u64;
                // Cells of equal value sit in table order, which deletions
                // and growth shuffle; hits are promised newest-first.
                if related.len() - discovered > 1 {
                    related[discovered..]
                        .sort_unstable_by_key(|&s| Reverse(self.meta[s as usize].seq));
                }
            }
        }

        *discovery = counts;

        // Phase 2 — encoding: one contiguous-slice encode per related
        // query, counted in the same pass, then the Lemma-2 test on the
        // total (equivalent to the paper's mid-walk pruning — `n_lt` is
        // monotone over rows, see the module docs).
        for &s in related.iter() {
            let s = s as usize;
            let (column, query_plane) = self.slot(s).split_at(self.k);
            // The signature's word buffer comes from the pool;
            // steady-state probes touch no allocator.
            let mut sig = sig_pool.pop().unwrap_or_default();
            let (n_less, _) =
                sig.encode_counts_from_planes(sk.mins(), plane.of(sk.mins()), column, query_plane);
            if n_less > prune_above {
                if sig_pool.len() < SIG_POOL_CAP {
                    // vdsms-lint: allow(no-alloc-hot-path) reason="pool Vec is capped at SIG_POOL_CAP; reaches its high-water mark during warm-up"
                    sig_pool.push(sig);
                }
            } else {
                let mq = self.meta[s];
                // vdsms-lint: allow(no-alloc-hot-path) reason="caller-owned Vec reused across probes; non-empty only for windows related to a query"
                hits.push(ProbeHit { query_id: mq.id, keyframes: mq.keyframes as usize, sig });
            }
        }
        self.k as u64
    }

    /// Reference probe: brute-force over all queries. Used by tests and by
    /// the `NoIndex` engine variants (where its cost is the point of the
    /// comparison).
    pub fn probe_bruteforce(&self, sk: &Sketch, delta: f64, queries: &QuerySet) -> Vec<ProbeHit> {
        queries
            .iter()
            .filter_map(|q| {
                let sig = BitSig::encode(sk, &q.sketch);
                if sig.count_equal() == 0 || sig.violates_lemma2(delta) {
                    None
                } else {
                    Some(ProbeHit { query_id: q.id, keyframes: q.keyframes, sig })
                }
            })
            .collect()
    }

    /// Heap bytes the index holds (the paper notes the index is a fixed
    /// `m × K` triples — here the hashed rows, the slab and the
    /// directory): every vector's capacity, so a slab chunk counts whole
    /// from its first slot on.
    pub fn heap_bytes(&self) -> usize {
        let chunks: usize = self.columns.iter().map(Vec::capacity).sum();
        self.table.capacity() * std::mem::size_of::<u32>()
            + chunks * std::mem::size_of::<u64>()
            + self.columns.capacity() * std::mem::size_of::<Vec<u64>>()
            + self.meta.capacity() * std::mem::size_of::<QueryMeta>()
            + self.by_id.capacity() * std::mem::size_of::<(QueryId, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vdsms_sketch::MinHashFamily;

    const K: usize = 64;

    fn family() -> MinHashFamily {
        MinHashFamily::new(K, 77)
    }

    fn query(f: &MinHashFamily, id: QueryId, base: u64, n: u64) -> Query {
        Query::from_cell_ids(id, f, &(base..base + n).collect::<Vec<_>>())
    }

    fn query_set(f: &MinHashFamily, m: u32) -> QuerySet {
        QuerySet::from_queries((0..m).map(|i| query(f, i, u64::from(i) * 1000, 40)).collect())
    }

    /// Slab invariants: rows are a power of two wide at load ≤ ½; every
    /// row holds every slot exactly once, under the tag of the slot's
    /// value on that row, reachable from that value's home without
    /// crossing an empty cell; every slot's plane holds, lane by lane, the
    /// discriminator of the slot's value and zero beyond `K`; the
    /// directory lists every slot once, under its query's id, in id order.
    fn check_integrity(ix: &HqIndex) {
        let (m, w) = (ix.meta.len(), ix.width);
        assert!(w.is_power_of_two() && w >= MIN_ROW_WIDTH, "row width {w}");
        assert!(2 * m <= w, "load above ½: {m} queries in {w} cells");
        assert_eq!(ix.table.len(), ix.k * w, "table must be K × width");
        let held: usize = ix.columns.iter().map(Vec::len).sum();
        assert_eq!(held, ix.stride * m, "columns slab must be m × stride");
        let full = ix.columns.iter().take_while(|chunk| chunk.len() == CHUNK_SLOTS * ix.stride);
        assert_eq!(full.count(), m / CHUNK_SLOTS, "chunks fill in order");
        for s in 0..m {
            let (values, plane) = ix.slot(s).split_at(ix.k);
            // The layout by its definition (see `crate::bitsig`): pair
            // `r` is lane `(r mod 32) / 8` of word `r mod 8` of block
            // `r / 32`.
            let mut want = vec![0u64; plane_words(ix.k)];
            for (r, &v) in values.iter().enumerate() {
                want[r / 32 * 8 + r % 8] |= crate::bitsig::discriminator(v) << (16 * (r % 32 / 8));
            }
            assert_eq!(plane, want, "plane of slot {s}");
        }
        assert_eq!(ix.by_id.len(), m, "one directory entry per slot");
        assert!(ix.by_id.windows(2).all(|w| w[0].0 < w[1].0), "directory out of id order");
        let mut listed = vec![false; m];
        for &(id, slot) in &ix.by_id {
            assert_eq!(ix.meta[slot as usize].id, id, "directory entry of query {id}");
            assert!(
                !std::mem::replace(&mut listed[slot as usize], true),
                "slot {slot} listed twice"
            );
        }
        for (i, row) in ix.table.chunks_exact(w).enumerate() {
            let mut position = vec![None; m];
            for (p, &cell) in row.iter().enumerate() {
                if cell != EMPTY {
                    let s = (cell & SLOT_MASK) as usize;
                    assert!(s < m, "slot out of range on row {i}");
                    assert!(position[s].replace(p).is_none(), "duplicate slot {s} on row {i}");
                }
            }
            for (s, p) in position.into_iter().enumerate() {
                let p = p.unwrap_or_else(|| panic!("slot {s} missing from row {i}"));
                let (mut at, tag) = home_and_tag(ix.slot(s)[i], ix.home_shift());
                assert_eq!(row[p] & !SLOT_MASK, tag, "tag mismatch at row {i} slot {s}");
                while at != p {
                    assert!(row[at] != EMPTY, "slot {s} unreachable from its home on row {i}");
                    at = (at + 1) & (w - 1);
                }
            }
        }
    }

    fn hit_ids(hits: &[ProbeHit]) -> Vec<QueryId> {
        hits.iter().map(|h| h.query_id).collect()
    }

    /// Discovery's counts by their definitions: each row's lookup walks
    /// from its value's home to the first empty cell, one row after
    /// another, and a tag match is checked against the slab unless its
    /// slot was already found on an earlier row.
    fn discovery_by_definition(ix: &HqIndex, sk: &Sketch) -> Discovery {
        let mut d = Discovery::default();
        let mut seen = vec![false; ix.len()];
        for (i, (row, &value)) in ix.table.chunks_exact(ix.width).zip(sk.mins()).enumerate() {
            let (mut p, tag) = home_and_tag(value, ix.home_shift());
            d.home_hits += u64::from(row[p] != EMPTY);
            while row[p] != EMPTY {
                let s = (row[p] & SLOT_MASK) as usize;
                d.cells_walked += 1;
                if row[p] & !SLOT_MASK == tag {
                    d.tag_matches += 1;
                    if !seen[s] {
                        d.verifications += 1;
                        seen[s] = ix.slot(s)[i] == value;
                    }
                }
                p = (p + 1) & (ix.width - 1);
            }
        }
        d
    }

    /// The index against its references, for one window sketch: the
    /// brute-force scan (same hit set), the direct encoder (same
    /// signatures), `fresh`, an index built from scratch over the same
    /// catalogue (same hits in the same order), and discovery's counts by
    /// their definitions.
    fn check_probe(ix: &HqIndex, fresh: &HqIndex, qs: &QuerySet, sk: &Sketch, delta: f64) {
        let mut scratch = ProbeScratch::default();
        ix.probe_into(sk, delta, &mut scratch, &mut Vec::new());
        assert_eq!(scratch.discovery(), discovery_by_definition(ix, sk), "discovery counts");
        let got = ix.probe(sk, delta);
        assert_eq!(got.row_searches, ix.k() as u64, "one lookup per row");
        for hit in &got.hits {
            let q = qs.get(hit.query_id).expect("hit on an unsubscribed query");
            assert_eq!(hit.keyframes, q.keyframes);
            assert_eq!(hit.sig, BitSig::encode(sk, &q.sketch), "signature of query {}", q.id);
        }
        let mut ids = hit_ids(&got.hits);
        assert_eq!(ids, hit_ids(&fresh.probe(sk, delta).hits), "history changed the hits");
        let mut want = hit_ids(&ix.probe_bruteforce(sk, delta, qs));
        ids.sort_unstable();
        want.sort_unstable();
        assert_eq!(ids, want, "probe differs from brute force at δ={delta}");
    }

    /// The slab as an encoder, against the direct one: by id, every
    /// subscribed query of `ids` encodes to the signature and counts of
    /// its own sketch — into a buffer that held something else — and
    /// every other id to nothing.
    fn check_encodes(ix: &HqIndex, qs: &QuerySet, sk: &Sketch, ids: std::ops::Range<QueryId>) {
        let mut plane = CandidatePlane::default();
        let mut sig = BitSig::encode(sk, sk);
        for id in ids {
            let got = ix.encode_against(id, sk.mins(), plane.of(sk.mins()), &mut sig);
            match qs.get(id) {
                Some(q) => {
                    let want = BitSig::encode(sk, &q.sketch);
                    assert_eq!(got, Some(want.counts()), "counts against query {id}");
                    assert_eq!(sig, want, "signature against query {id}");
                }
                None => assert_eq!(got, None, "query {id} is not subscribed"),
            }
        }
    }

    #[test]
    fn build_produces_consistent_slabs() {
        let f = family();
        let qs = query_set(&f, 20);
        let ix = HqIndex::build(K, &qs);
        assert_eq!(ix.len(), 20);
        check_integrity(&ix);
    }

    #[test]
    fn probe_matches_bruteforce() {
        let f = family();
        let qs = query_set(&f, 30);
        let ix = HqIndex::build(K, &qs);
        // Probe with a sketch overlapping query 7's ids — and also some
        // unrelated ids.
        for (base, n) in [(7000u64, 40u64), (7010, 60), (123_456, 20), (0, 10)] {
            let sk = Sketch::from_ids(&f, base..base + n);
            for delta in [0.5, 0.7, 0.9] {
                check_probe(&ix, &ix, &qs, &sk, delta);
            }
        }
    }

    #[test]
    fn probe_signatures_match_direct_encoding() {
        let f = family();
        let qs = query_set(&f, 10);
        let ix = HqIndex::build(K, &qs);
        let sk = Sketch::from_ids(&f, 3000..3040); // strongly related to query 3
        let res = ix.probe(&sk, 0.5);
        assert!(!res.hits.is_empty());
        for hit in &res.hits {
            let q = qs.get(hit.query_id).unwrap();
            let direct = BitSig::encode(&sk, &q.sketch);
            assert_eq!(hit.sig, direct, "probe signature differs for query {}", hit.query_id);
        }
    }

    #[test]
    fn probe_finds_exact_match_with_full_similarity() {
        let f = family();
        let qs = query_set(&f, 10);
        let ix = HqIndex::build(K, &qs);
        let sk = qs.get(4).unwrap().sketch.clone();
        let res = ix.probe(&sk, 0.7);
        let hit = res.hits.iter().find(|h| h.query_id == 4).expect("query 4 must be hit");
        assert_eq!(hit.sig.similarity(), 1.0);
        assert_eq!(hit.keyframes, 40);
    }

    #[test]
    fn unrelated_probe_returns_nothing() {
        let f = family();
        let qs = query_set(&f, 10);
        let ix = HqIndex::build(K, &qs);
        let sk = Sketch::from_ids(&f, 900_000..900_050);
        // All-unrelated: either empty or only low-similarity flukes that
        // brute force agrees on.
        let got = ix.probe(&sk, 0.7).hits.len();
        let want = ix.probe_bruteforce(&sk, 0.7, &qs).len();
        assert_eq!(got, want);
    }

    #[test]
    fn online_insert_matches_fresh_build() {
        let f = family();
        let mut ix = HqIndex::empty(K);
        let mut qs = QuerySet::new();
        for i in 0..15u32 {
            let q = query(&f, i, u64::from(i) * 777, 25);
            qs.insert(q.clone());
            ix.insert(&q);
            check_integrity(&ix);
        }
        let fresh = HqIndex::build(K, &qs);
        let sk = Sketch::from_ids(&f, 3885..3920); // overlaps query 5
        check_probe(&ix, &fresh, &qs, &sk, 0.6);
    }

    #[test]
    fn online_remove_keeps_integrity_and_results() {
        let f = family();
        let qs = query_set(&f, 12);
        let mut ix = HqIndex::build(K, &qs);
        assert!(ix.remove(5));
        assert!(!ix.remove(5), "double remove must return false");
        check_integrity(&ix);
        let sk = Sketch::from_ids(&f, 5000..5040); // query 5's content
        let hits = ix.probe(&sk, 0.7).hits;
        assert!(hits.iter().all(|h| h.query_id != 5), "removed query must not be hit");

        // Remove more, including the slot-compaction path.
        assert!(ix.remove(11));
        assert!(ix.remove(0));
        check_integrity(&ix);
        assert_eq!(ix.len(), 9);

        // Remaining queries still probe correctly.
        let sk3 = Sketch::from_ids(&f, 3000..3040);
        assert!(ix.probe(&sk3, 0.7).hits.iter().any(|h| h.query_id == 3));
    }

    #[test]
    fn remove_then_insert_round_trips() {
        let f = family();
        let qs = query_set(&f, 8);
        let mut ix = HqIndex::build(K, &qs);
        let q3 = qs.get(3).unwrap().clone();
        ix.remove(3);
        ix.insert(&q3);
        check_integrity(&ix);
        let sk = Sketch::from_ids(&f, 3000..3040);
        assert!(ix.probe(&sk, 0.7).hits.iter().any(|h| h.query_id == 3));
    }

    #[test]
    fn duplicate_hash_values_across_queries_are_handled() {
        // Force two queries with identical content (identical sketches) —
        // every row has duplicate values.
        let f = family();
        let mut qs = QuerySet::new();
        qs.insert(query(&f, 1, 500, 30));
        qs.insert(query(&f, 2, 500, 30)); // same cell ids
        qs.insert(query(&f, 3, 9999, 30));
        let ix = HqIndex::build(K, &qs);
        check_integrity(&ix);
        let sk = Sketch::from_ids(&f, 500..530);
        let mut hits: Vec<QueryId> =
            ix.probe(&sk, 0.7).hits.into_iter().map(|h| h.query_id).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2], "both duplicate queries must be found exactly once");
    }

    /// The module docs' worst case: `m` identical sketches put one run of
    /// `m` cells on every row. Lookups degrade to scanning it; results do
    /// not change, and come newest subscription first.
    #[test]
    fn identical_sketches_degrade_to_a_row_scan_not_a_wrong_answer() {
        let f = family();
        let m = 300u32;
        let mut qs = QuerySet::from_queries((0..m).map(|id| query(&f, id, 500, 30)).collect());
        let mut ix = HqIndex::build(K, &qs);
        check_integrity(&ix);
        let same = Sketch::from_ids(&f, 500..530);
        let newest_first: Vec<QueryId> = (0..m).rev().collect();
        assert_eq!(hit_ids(&ix.probe(&same, 0.7).hits), newest_first);
        check_probe(&ix, &ix, &qs, &same, 0.7);
        assert!(ix.probe(&Sketch::from_ids(&f, 90_000..90_030), 0.7).hits.is_empty());

        // Every deletion shifts cells inside the one run.
        for id in (0..m).step_by(2) {
            assert!(ix.remove(id));
            qs.remove(id);
        }
        check_integrity(&ix);
        check_probe(&ix, &HqIndex::build(K, &qs), &qs, &same, 0.7);
    }

    /// More queries per row than there are tags (20 000 against 4096), so
    /// lookups meet cells whose tag matches and whose value does not.
    #[test]
    fn tag_collisions_inside_a_row_are_verified_away() {
        const SMALL_K: usize = 4;
        let f = MinHashFamily::new(SMALL_K, 5);
        let m = 20_000u32;
        let two_cells = |id: u32| [u64::from(id) * 2, u64::from(id) * 2 + 1];
        let qs = QuerySet::from_queries(
            (0..m).map(|id| Query::from_cell_ids(id, &f, &two_cells(id))).collect(),
        );
        let ix = HqIndex::build(SMALL_K, &qs);
        check_integrity(&ix);
        let collisions = |row: &[u32]| {
            let mut tags: Vec<u32> =
                row.iter().filter(|&&c| c != EMPTY).map(|c| c >> SLOT_BITS).collect();
            tags.sort_unstable();
            tags.windows(2).filter(|w| w[0] == w[1]).count()
        };
        assert!(collisions(&ix.table[..ix.width]) > 1000, "the case must exercise tag collisions");
        for base in [0u64, 77, 12_345, 39_998, 1_000_000] {
            check_probe(&ix, &ix, &qs, &Sketch::from_ids(&f, base..base + 3), 0.0);
        }
    }

    #[test]
    fn empty_index_and_catalogue_of_one() {
        let f = family();
        let mut ix = HqIndex::empty(K);
        let mut qs = QuerySet::new();
        check_integrity(&ix);
        let sk = Sketch::from_ids(&f, 0..40);
        check_probe(&ix, &HqIndex::empty(K), &qs, &sk, 0.7);
        assert!(ix.probe(&sk, 0.7).hits.is_empty());
        assert!(!ix.remove(0));

        let q = query(&f, 9, 0, 40);
        ix.insert(&q);
        qs.insert(q);
        check_integrity(&ix);
        check_probe(&ix, &HqIndex::build(K, &qs), &qs, &sk, 0.7);
        assert_eq!(hit_ids(&ix.probe(&sk, 0.7).hits), vec![9]);
        check_probe(&ix, &HqIndex::build(K, &qs), &qs, &Sketch::from_ids(&f, 5000..5040), 0.7);

        assert!(ix.remove(9));
        check_integrity(&ix);
        assert!(ix.probe(&sk, 0.7).hits.is_empty());
    }

    /// `heap_bytes` is the layout's arithmetic: `K` rows of `width` cells,
    /// every slab chunk whole from its first slot on, and the bookkeeping
    /// vectors' capacities — at a catalogue that fills part of one chunk,
    /// one whole chunk, and one slot of a second.
    #[test]
    fn heap_bytes_scales_with_m_times_k() {
        let f = family();
        let stride = K + plane_words(K);
        for (m, width, chunks) in [(8, MIN_ROW_WIDTH, 1), (64, 128, 1), (65, 256, 2)] {
            let ix = HqIndex::build(K, &query_set(&f, m as u32));
            assert_eq!((ix.width, ix.columns.len()), (width, chunks), "m = {m}");
            let bookkeeping = ix.columns.capacity() * std::mem::size_of::<Vec<u64>>()
                + ix.meta.capacity() * std::mem::size_of::<QueryMeta>()
                + ix.by_id.capacity() * std::mem::size_of::<(QueryId, u32)>();
            let expected = K * width * 4 + chunks * CHUNK_SLOTS * stride * 8 + bookkeeping;
            assert_eq!(ix.heap_bytes(), expected, "m = {m}");
            assert!(bookkeeping < 2 * m * 64 + 1024, "m = {m}: {bookkeeping} bookkeeping bytes");
        }
    }

    /// One step of a subscription history.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Subscribe `id` with content `content` — unsubscribing it first
        /// if it is subscribed (re-inserting a removed id).
        Insert {
            id: QueryId,
            content: u64,
        },
        /// Unsubscribe `id`, subscribed or not.
        Remove {
            id: QueryId,
        },
        /// Unsubscribe whichever query holds the last slot / slot 0.
        RemoveLastSlot,
        RemoveSlotZero,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Few ids, so removals and re-insertions find their target; fewer
        // contents, overlapping their neighbours, so queries share whole
        // sketches and single row minima.
        (0u32..12, 0u32..96, 0u64..24).prop_map(|(kind, id, content)| match kind {
            0..=8 => Step::Insert { id, content },
            9 => Step::Remove { id },
            10 => Step::RemoveLastSlot,
            _ => Step::RemoveSlotZero,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random subscription histories: after every step the index
        /// keeps its invariants, probes like brute force, like the
        /// direct encoder and like an index built afresh, and encodes by
        /// id what the direct encoder does — for the ids that are
        /// subscribed, and nothing for those that are not.
        #[test]
        fn histories_agree_with_every_reference(
            steps in proptest::collection::vec(step(), 200..201),
        ) {
            const SMALL_K: usize = 16;
            let f = MinHashFamily::new(SMALL_K, 3);
            let content = |c: u64| (c * 10..c * 10 + 25).collect::<Vec<u64>>();
            let windows: Vec<Sketch> = (0..24u64)
                .step_by(3)
                .map(|c| Sketch::from_ids(&f, content(c)[5..].iter().copied()))
                .collect();
            let mut ix = HqIndex::empty(SMALL_K);
            let mut qs = QuerySet::new();
            let mut widest = ix.width;
            for step in steps {
                let removed = match step {
                    Step::Insert { id, .. } | Step::Remove { id } => Some(id),
                    Step::RemoveLastSlot => ix.meta.last().map(|mq| mq.id),
                    Step::RemoveSlotZero => ix.meta.first().map(|mq| mq.id),
                };
                if let Some(id) = removed {
                    prop_assert_eq!(ix.remove(id), qs.remove(id).is_some());
                }
                if let Step::Insert { id, content: c } = step {
                    let q = Query::from_cell_ids(id, &f, &content(c));
                    ix.insert(&q);
                    qs.insert(q);
                }
                prop_assert_eq!(ix.len(), qs.len());
                check_integrity(&ix);
                let fresh = HqIndex::build(SMALL_K, &qs);
                for sk in &windows {
                    check_probe(&ix, &fresh, &qs, sk, 0.3);
                    check_encodes(&ix, &qs, sk, 0..96);
                }
                widest = widest.max(ix.width);
            }
            prop_assert!(widest > MIN_ROW_WIDTH, "history never crossed a width doubling");
        }
    }
}
