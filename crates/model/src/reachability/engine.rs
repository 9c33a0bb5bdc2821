//! The one breadth-first exploration kernel and the reusable verdict engine.
//!
//! [`explore`] is the only exploration loop of the crate.  It is
//! monomorphized over a [`StateIndex`] — [`HashIndex`], [`BoxCodeIndex`],
//! [`PackedIndex`] or [`DenseIndex`] — a [`Sink`] — [`Edges`] builds the
//! CSR that [`Condensation`] decides on, and [`TerminalScan`] decides
//! certified-acyclic CRNs on the fly — and a [`Successors`] policy:
//! [`AllReactions`] expands every applicable reaction, and the terminal scan
//! expands only a [`Stubborn`] set.  [`VerdictEngine`] keeps the buffers
//! alive across the points of a box sweep.

use crn_numeric::NVec;

use crate::analysis::{
    conservation_basis, Analysis, ConservationLaw, CountIntervals, Liveness, Stoichiometry,
};
use crate::compiled::{CompiledCrn, CompiledReaction};
use crate::error::CrnError;
use crate::function::FunctionCrn;

use super::arena::ConfigArena;
use super::csr::CsrGraph;
use super::scc::Condensation;
use super::stubborn::{Dependence, Stubborn, StubbornScratch};
use super::symmetry;
use super::StableComputationVerdict;

/// Largest interval-box volume for which the engine switches from hash
/// interning to the mixed-radix code index.  The only hard requirement is
/// that reaction offsets stay representable (`i64`); the cap keeps the
/// arithmetic comfortably clear of overflow.
const DIRECT_INDEX_CAP: u128 = 1 << 62;

/// A perfect mixed-radix encoding of the interval box
/// `∏ [lower(s), upper(s)]` proven to contain every reachable configuration:
/// configuration `c` maps to the injective code `Σ (c(s) − lower(s)) ·
/// place(s)`, and firing reaction `r` *translates* the code by the constant
/// `offset(r)` — so BFS successor identity is one integer addition plus one
/// probe of a u64-keyed index, with no count-vector copy, no word-wise
/// hashing, and no `apply_into` for already-seen configurations.
pub(super) struct DirectSpec {
    lower: Vec<u64>,
    place: Vec<u64>,
    /// Per-reaction code translation `Σ delta(s) · place(s)`.
    offsets: Vec<i64>,
    /// All reactions' reactant requirements flattened into one array —
    /// reaction `r`'s entries are `reqs[req_offsets[r]..req_offsets[r + 1]]`
    /// — so the hot applicability test walks two dense arrays instead of
    /// chasing one `Vec` per reaction.
    reqs: Vec<(u32, u64)>,
    req_offsets: Vec<u32>,
}

impl DirectSpec {
    /// Builds the encoding when the box is finite and at most `cap`
    /// configurations; `None` otherwise.
    fn build(intervals: &CountIntervals, compiled: &CompiledCrn, cap: u128) -> Option<DirectSpec> {
        let volume = intervals.state_space()?;
        if volume > cap {
            return None;
        }
        let n = intervals.len();
        let mut lower = Vec::with_capacity(n);
        let mut place = Vec::with_capacity(n);
        let mut running: u64 = 1;
        for s in 0..n {
            lower.push(intervals.lower(s));
            place.push(running);
            let width = intervals.upper(s).expect("finite volume") - intervals.lower(s) + 1;
            running = running.checked_mul(width).expect("volume fits the cap");
        }
        let offsets = compiled
            .reactions()
            .iter()
            .map(|reaction| {
                reaction
                    .delta()
                    .iter()
                    .map(|&(s, d)| d * i64::try_from(place[s]).expect("place fits i64"))
                    .sum()
            })
            .collect();
        let mut reqs = Vec::new();
        let mut req_offsets = vec![0u32];
        for reaction in compiled.reactions() {
            for &(s, c) in reaction.reactants() {
                reqs.push((u32::try_from(s).expect("species index fits u32"), c));
            }
            req_offsets.push(u32::try_from(reqs.len()).expect("requirement count fits u32"));
        }
        Some(DirectSpec {
            lower,
            place,
            offsets,
            reqs,
            req_offsets,
        })
    }

    /// The code of `counts`, which must lie inside the box.
    fn encode(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .zip(&self.lower)
            .zip(&self.place)
            .map(|((&c, &lo), &p)| (c - lo) * p)
            .sum()
    }
}

/// Per-lane high bits of the packed byte encoding, the borrow sentinels of
/// the SWAR applicability test.
const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// A whole-configuration byte packing for certified-acyclic CRNs on small
/// hulls: species `s` is byte lane `s` of one `u64`, so firing a reaction is
/// a single wrapping addition and the applicability test is branch-free SWAR
/// over all species at once.  Eligible when the box-wide interval hull keeps
/// every count at or below 127 across at most 8 species — every reachable
/// lane then stays in `[0, 127]`, additions never carry between lanes, and
/// the packed value *is* a perfect mixed-radix code (radix 256, lower bound
/// zero), so discovery order, deduplication and the configuration-limit
/// error are bit-identical to the box-code index.
pub(super) struct PackedSpec {
    /// Per-reaction packed reactant requirements; lanes are clamped to 128,
    /// which the test below reads as "never applicable" — correct, since no
    /// reachable lane exceeds 127.
    reqs: Vec<u64>,
    /// Per-reaction packed deltas in two's complement (mod 2^64).
    deltas: Vec<u64>,
    /// Mixed-radix place values of the *dense* hull code (radix
    /// `upper + 1` per non-pivot species).  With a dense code every dedup
    /// probe is a single array load instead of a hash chain, and the code
    /// itself is maintained incrementally.
    dense_place: Vec<u64>,
    /// Per-reaction dense-code deltas in two's complement — firing reaction
    /// `r` moves the dense code by one `wrapping_add`.
    dense_deltas: Vec<u64>,
    /// Hull volume (the dense-code range) when it fits
    /// [`DENSE_VISITED_CAP`]; `0` disables the dense code and leaves the two
    /// fields above meaningless.
    dense_volume: usize,
}

/// Largest hull volume the [`DenseIndex`] tracks with its stamp table (u32
/// stamps, so 8 MiB of reusable scratch at the cap); bigger hulls take the
/// [`PackedIndex`].
const DENSE_VISITED_CAP: usize = 1 << 21;

/// Marks one species per independent conservation law — the pivot columns
/// of the law basis in row-echelon form.  Within a single exploration every
/// law's value is fixed by the start configuration, and pivot columns of an
/// echelon form are linearly independent, so any two configurations on the
/// same law coset that agree on every *non*-pivot species are equal: the
/// dense dedup code may drop the pivot species and stay injective on each
/// reachable set.  Overflow of the fraction-free elimination conservatively
/// returns the empty mark set (no projection).
fn law_pivot_species(laws: &[ConservationLaw], stride: usize) -> Vec<bool> {
    let mut rows: Vec<Vec<i128>> = laws
        .iter()
        .map(|law| (0..stride).map(|s| law.weight(s)).collect())
        .collect();
    let mut pivot = vec![false; stride];
    let mut rank = 0usize;
    for col in 0..stride {
        let Some(p) = (rank..rows.len()).find(|&r| rows[r][col] != 0) else {
            continue;
        };
        rows.swap(rank, p);
        let (head, rest) = rows.split_at_mut(rank + 1);
        let pivot_row = &head[rank];
        for row in rest.iter_mut() {
            if row[col] == 0 {
                continue;
            }
            let (pv, q) = (pivot_row[col], row[col]);
            for j in 0..stride {
                let (Some(scaled), Some(elim)) =
                    (row[j].checked_mul(pv), pivot_row[j].checked_mul(q))
                else {
                    return vec![false; stride];
                };
                let Some(diff) = scaled.checked_sub(elim) else {
                    return vec![false; stride];
                };
                row[j] = diff;
            }
        }
        pivot[col] = true;
        rank += 1;
    }
    pivot
}

impl PackedSpec {
    /// Builds the packing when every hull count of the `stride` species fits
    /// a 7-bit lane; `None` otherwise.
    fn build(
        hull: &CountIntervals,
        compiled: &CompiledCrn,
        laws: &[ConservationLaw],
        stride: usize,
    ) -> Option<PackedSpec> {
        if stride > 8 {
            return None;
        }
        for s in 0..stride {
            if hull.upper(s).map_or(true, |u| u > 127) {
                return None;
            }
        }
        // Dense hull code: place values over radix `upper + 1` for the
        // non-pivot species (law pivots are determined by the rest within
        // one exploration), kept only when the total volume fits the stamp
        // table.
        let dropped = law_pivot_species(laws, stride);
        let mut dense_place = vec![0u64; stride];
        let mut volume = 1usize;
        for s in 0..stride {
            if dropped[s] {
                continue;
            }
            dense_place[s] = volume as u64;
            let radix = usize::try_from(hull.upper(s).expect("uppers checked above") + 1)
                .expect("radix at most 128");
            volume = match volume.checked_mul(radix) {
                Some(v) if v <= DENSE_VISITED_CAP => v,
                _ => {
                    volume = 0;
                    break;
                }
            };
        }
        let mut reqs = Vec::with_capacity(compiled.reaction_count());
        let mut deltas = Vec::with_capacity(compiled.reaction_count());
        let mut dense_deltas = Vec::with_capacity(compiled.reaction_count());
        for reaction in compiled.reactions() {
            let mut req = 0u64;
            for &(s, c) in reaction.reactants() {
                req |= c.min(128) << (8 * s);
            }
            let mut delta = 0u64;
            let mut dense_delta = 0u64;
            for &(s, d) in reaction.delta() {
                // Wrapping mod-2^64 arithmetic: oversized deltas only occur
                // on reactions the clamped requirement already rules out.
                delta = delta.wrapping_add((d as u64).wrapping_mul(1u64 << (8 * s)));
                if let Some(&place) = dense_place.get(s) {
                    dense_delta = dense_delta.wrapping_add((d as u64).wrapping_mul(place));
                }
            }
            reqs.push(req);
            deltas.push(delta);
            dense_deltas.push(dense_delta);
        }
        Some(PackedSpec {
            reqs,
            deltas,
            dense_place,
            dense_deltas,
            dense_volume: volume,
        })
    }

    /// The dense hull code of a byte-packed configuration; meaningful only
    /// when `dense_volume > 0`.
    fn dense_code(&self, packed: u64) -> u64 {
        self.dense_place
            .iter()
            .enumerate()
            .map(|(s, &p)| ((packed >> (8 * s)) & 0xff) * p)
            .sum()
    }

    /// Packs a count vector (all lanes at most 127) into its byte code.
    fn pack(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                debug_assert!(c <= 127, "hull admits every packed configuration");
                c << (8 * s)
            })
            .sum()
    }
}

/// Whether a reaction with packed requirements `req` can fire in the packed
/// configuration `word`.
fn fires(word: u64, req: u64) -> bool {
    // Lane-wise `word >= req`: with every count lane in [0, 127] and
    // requirement lanes clamped to 128, `(word | HIGH) - req` never borrows
    // across lanes, and a lane's high bit survives exactly when its count
    // meets the requirement.
    let gap = (word | LANE_HIGH).wrapping_sub(req);
    gap & LANE_HIGH == LANE_HIGH
}

/// The count of species `s` in the packed configuration `word`.
fn lane(word: u64, s: usize) -> u64 {
    (word >> (8 * s)) & 0xff
}

/// The SplitMix64 finalizer: a full-avalanche mix of one word, so
/// lexicographically adjacent codes spread across the slot table.
fn mix_code(code: u64) -> u64 {
    let mut z = code.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An open-addressing index over `u64` keys — mixed-radix codes or packed
/// configurations — held outside the table in a per-id key array, so memory
/// stays proportional to the *reachable* set and every probe compares a
/// single word.  Slots are epoch-stamped `(epoch << 32) | (id + 1)` cells,
/// so resetting between the points of a box sweep is O(1): no memset of a
/// table sized for the sweep's biggest point.
struct CodeIndex {
    slots: Vec<u64>,
    epoch: u32,
}

impl CodeIndex {
    fn new() -> Self {
        CodeIndex {
            slots: vec![0; 16],
            epoch: 1,
        }
    }

    /// Empties the index, keeping the allocation: stale slots are recognized
    /// by their epoch stamp.
    fn reset(&mut self) {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.slots.fill(0);
            1
        });
    }

    /// The live id in `slot`, if any.
    fn occupant(&self, slot: usize) -> Option<usize> {
        let cell = self.slots[slot];
        if cell >> 32 == u64::from(self.epoch) && cell & u64::from(u32::MAX) != 0 {
            Some((cell & u64::from(u32::MAX)) as usize - 1)
        } else {
            None
        }
    }

    /// The id whose key is `key`, if present.
    #[inline]
    fn lookup(&self, key: u64, keys: &[u64]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (mix_code(key) as usize) & mask;
        loop {
            match self.occupant(slot) {
                None => return None,
                Some(id) if keys[id] == key => return Some(id),
                Some(_) => slot = (slot + 1) & mask,
            }
        }
    }

    /// Indexes the newest id, `keys.len() - 1`, whose key the caller has
    /// established is absent.
    #[inline]
    fn insert(&mut self, keys: &[u64]) {
        // Grow at 1/2 load: probes run on the seen-successor fast path, so
        // short chains are worth the memory.
        if keys.len() * 2 > self.slots.len() {
            self.grow(keys);
        } else {
            self.place(keys.len() - 1, keys);
        }
    }

    fn grow(&mut self, keys: &[u64]) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, 0);
        for id in 0..keys.len() {
            self.place(id, keys);
        }
    }

    #[inline]
    fn place(&mut self, id: usize, keys: &[u64]) {
        let mask = self.slots.len() - 1;
        let mut slot = (mix_code(keys[id]) as usize) & mask;
        while self.occupant(slot).is_some() {
            slot = (slot + 1) & mask;
        }
        let stamp = u32::try_from(id + 1).expect("explorations stay below 2^32 - 1 configurations");
        self.slots[slot] = (u64::from(self.epoch) << 32) | u64::from(stamp);
    }
}

/// How the kernel stores, loads and deduplicates configurations.  Ids are
/// discovery order and the start configuration is id 0.
///
/// Implementations mark their per-reaction methods `#[inline]`: left to
/// itself the compiler kept `probe` out of line, which cost the packed
/// decision about 10% of its throughput on the `max` box.
pub(super) trait StateIndex {
    /// The configuration being expanded, as [`load`](StateIndex::load)
    /// hands it to the kernel: a value the kernel keeps in registers (the
    /// packed word, or the code of counts loaded into scratch).
    type Loaded: Copy;
    /// What a missed [`probe`](StateIndex::probe) hands to
    /// [`insert`](StateIndex::insert), so the successor is computed once.
    type Key: Copy;
    /// What names a stored successor to the sink: its id, or `()` for an
    /// index that keeps no id table.
    type Id: Copy;
    fn len(&self) -> usize;
    /// Makes configuration `id` the one being expanded.
    fn load(&mut self, id: usize) -> Self::Loaded;
    fn reaction_count(&self) -> usize;
    /// Whether reaction `r` can fire in `cur`.
    fn applicable(&self, cur: Self::Loaded, r: usize) -> bool;
    /// The id of the successor of `cur` under the applicable reaction `r`
    /// if it is stored, or its key if it is new.
    fn probe(&mut self, cur: Self::Loaded, r: usize) -> Result<Self::Id, Self::Key>;
    /// Stores the new successor of `cur` under `r` and returns its id.
    fn insert(&mut self, cur: Self::Loaded, r: usize, key: Self::Key) -> Self::Id;
    /// The count of species `s` in `cur`.
    fn count(&self, cur: Self::Loaded, s: usize) -> u64;
}

/// What the kernel records while it explores, from an index naming
/// configurations by `Id`.
trait Sink<Id> {
    /// An edge from the configuration being expanded, `from`, to `to`.
    fn edge(&mut self, from: usize, to: Id);
    /// Closes the expansion of `cur`, which is `terminal` when no reaction
    /// applies.  `false` stops the exploration.
    fn seal<I: StateIndex>(&mut self, index: &I, cur: I::Loaded, terminal: bool) -> bool;
}

/// Which applicable reactions the kernel expands at a configuration.
pub(super) trait Successors {
    /// The reactions to expand at `cur`, ascending — empty exactly when no
    /// reaction applies — or `None` to expand every applicable reaction.
    fn reduce<I: StateIndex>(&mut self, index: &I, cur: I::Loaded) -> Option<&[usize]>;
}

/// The full expansion: every applicable reaction, as the reachability graph
/// and every verdict built from it need.
pub(super) struct AllReactions;

impl Successors for AllReactions {
    #[inline]
    fn reduce<I: StateIndex>(&mut self, _index: &I, _cur: I::Loaded) -> Option<&[usize]> {
        None
    }
}

/// The exploration kernel: expands configurations in id (= breadth-first
/// discovery) order, each by the reactions `policy` selects, and reports
/// every selected reaction's successor and every closed expansion to `sink`.
///
/// Returns `Ok(true)` once the reachable set is exhausted, `Ok(false)` when
/// the sink stops early, and [`CrnError::SearchLimitExceeded`] iff the
/// reachable set exceeds `max_configurations` (an early stop may pre-empt
/// it).  Every outcome adds the number of stored configurations to
/// `explored`.
fn explore<I: StateIndex, P: Successors>(
    index: &mut I,
    sink: &mut impl Sink<I::Id>,
    policy: &mut P,
    max_configurations: usize,
    explored: &mut u64,
) -> Result<bool, CrnError> {
    let outcome = 'bfs: {
        let mut current = 0usize;
        while current < index.len() {
            let cur = index.load(current);
            let terminal = match policy.reduce(index, cur) {
                None => {
                    let mut terminal = true;
                    for r in 0..index.reaction_count() {
                        if !index.applicable(cur, r) {
                            continue;
                        }
                        terminal = false;
                        if let Err(e) = fire(index, sink, current, cur, r, max_configurations) {
                            break 'bfs Err(e);
                        }
                    }
                    terminal
                }
                Some(chosen) => {
                    for &r in chosen {
                        if let Err(e) = fire(index, sink, current, cur, r, max_configurations) {
                            break 'bfs Err(e);
                        }
                    }
                    chosen.is_empty()
                }
            };
            if !sink.seal(index, cur, terminal) {
                break 'bfs Ok(false);
            }
            current += 1;
        }
        Ok(true)
    };
    *explored += u64::try_from(index.len()).expect("usize fits u64");
    outcome
}

/// Fires the applicable reaction `r` from `cur`, configuration `current`:
/// stores the successor if it is new and reports the edge to `sink`.
#[inline]
fn fire<I: StateIndex>(
    index: &mut I,
    sink: &mut impl Sink<I::Id>,
    current: usize,
    cur: I::Loaded,
    r: usize,
    max_configurations: usize,
) -> Result<(), CrnError> {
    let id = match index.probe(cur, r) {
        Ok(id) => id,
        Err(key) => {
            if index.len() >= max_configurations {
                return Err(CrnError::SearchLimitExceeded {
                    limit: format!("{max_configurations} reachable configurations"),
                });
            }
            index.insert(cur, r, key)
        }
    };
    sink.edge(current, id);
    Ok(())
}

/// The buffers behind every [`StateIndex`], reused across explorations so a
/// box sweep allocates almost nothing per point.
pub(super) struct Store {
    /// Count vectors of the hash and box-code indexes.
    pub(super) arena: ConfigArena,
    /// Per-id key of the box-code and packed indexes: the mixed-radix code,
    /// or the packed configuration itself.
    keys: Vec<u64>,
    /// The hashed dedup over `keys`.
    table: CodeIndex,
    /// Per-id dense hull code of the [`DenseIndex`].
    dense: Vec<u64>,
    /// The [`DenseIndex`] table: a slot holds the current `epoch` exactly
    /// when its dense code is stored.
    stamps: Vec<u32>,
    epoch: u32,
    /// The loaded configuration's counts and the successor scratch.
    cur: Vec<u64>,
    succ: Vec<u64>,
}

impl Store {
    fn new() -> Self {
        Store {
            arena: ConfigArena::new(0),
            keys: Vec::new(),
            table: CodeIndex::new(),
            dense: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
            cur: Vec::new(),
            succ: Vec::new(),
        }
    }

    /// Empties the arena for `stride` species and sizes the count scratch.
    fn reset_counts(&mut self, stride: usize) {
        self.arena.reset(stride);
        self.cur.clear();
        self.cur.resize(stride, 0);
        self.succ.clear();
        self.succ.resize(stride, 0);
    }
}

/// Count vectors in the hash-interned [`ConfigArena`]: the index of the
/// reference engine, and of starts whose interval box is unbounded or past
/// the code range.
struct HashIndex<'a> {
    arena: &'a mut ConfigArena,
    cur: &'a mut [u64],
    succ: &'a mut [u64],
    reactions: &'a [CompiledReaction],
}

impl<'a> HashIndex<'a> {
    /// Empties `store` and stores `start` (one count per species of the
    /// stride) as id 0.
    fn new(store: &'a mut Store, compiled: &'a CompiledCrn, start: &[u64]) -> Self {
        store.reset_counts(start.len());
        store.arena.insert_new(start);
        HashIndex {
            arena: &mut store.arena,
            cur: &mut store.cur,
            succ: &mut store.succ,
            reactions: compiled.reactions(),
        }
    }
}

impl StateIndex for HashIndex<'_> {
    /// The counts themselves sit in the `cur` scratch.
    type Loaded = ();
    type Key = ();
    type Id = usize;

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn load(&mut self, id: usize) {
        self.cur.copy_from_slice(self.arena.get(id));
    }

    fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    fn applicable(&self, (): (), r: usize) -> bool {
        self.reactions[r].applicable(self.cur)
    }

    #[inline]
    fn probe(&mut self, (): (), r: usize) -> Result<usize, ()> {
        self.reactions[r].apply_into(self.cur, self.succ);
        self.arena.lookup(self.succ).ok_or(())
    }

    #[inline]
    fn insert(&mut self, (): (), _r: usize, (): ()) -> usize {
        self.arena.insert_new(self.succ)
    }

    fn count(&self, (): (), s: usize) -> u64 {
        self.cur[s]
    }
}

/// Count vectors keyed by their [`DirectSpec`] code, so an already-seen
/// successor is never materialized.  Discovery order — and therefore every
/// id, edge and verdict — is that of the [`HashIndex`].
struct BoxCodeIndex<'a> {
    arena: &'a mut ConfigArena,
    cur: &'a mut [u64],
    succ: &'a mut [u64],
    keys: &'a mut Vec<u64>,
    table: &'a mut CodeIndex,
    spec: &'a DirectSpec,
    reactions: &'a [CompiledReaction],
}

impl<'a> BoxCodeIndex<'a> {
    /// Empties `store` and stores `start`, which must lie inside the box of
    /// `spec`, as id 0.
    fn new(
        store: &'a mut Store,
        spec: &'a DirectSpec,
        compiled: &'a CompiledCrn,
        start: &[u64],
    ) -> Self {
        store.reset_counts(start.len());
        store.arena.push_unindexed(start);
        store.keys.clear();
        store.keys.push(spec.encode(start));
        store.table.reset();
        store.table.insert(&store.keys);
        BoxCodeIndex {
            arena: &mut store.arena,
            cur: &mut store.cur,
            succ: &mut store.succ,
            keys: &mut store.keys,
            table: &mut store.table,
            spec,
            reactions: compiled.reactions(),
        }
    }
}

impl StateIndex for BoxCodeIndex<'_> {
    /// The code; the counts sit in the `cur` scratch.
    type Loaded = u64;
    type Key = u64;
    type Id = usize;

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn load(&mut self, id: usize) -> u64 {
        self.cur.copy_from_slice(self.arena.get(id));
        self.keys[id]
    }

    fn reaction_count(&self) -> usize {
        self.spec.offsets.len()
    }

    fn applicable(&self, _code: u64, r: usize) -> bool {
        let lo = self.spec.req_offsets[r] as usize;
        let hi = self.spec.req_offsets[r + 1] as usize;
        self.spec.reqs[lo..hi]
            .iter()
            .all(|&(s, c)| self.cur[s as usize] >= c)
    }

    #[inline]
    fn probe(&mut self, code: u64, r: usize) -> Result<usize, u64> {
        // The box bounds are sound, so the translated code stays in range.
        let key = code.wrapping_add_signed(self.spec.offsets[r]);
        self.table.lookup(key, self.keys).ok_or(key)
    }

    #[inline]
    fn insert(&mut self, _code: u64, r: usize, key: u64) -> usize {
        self.reactions[r].apply_into(self.cur, self.succ);
        debug_assert_eq!(self.spec.encode(self.succ), key);
        let id = self.arena.push_unindexed(self.succ);
        self.keys.push(key);
        self.table.insert(self.keys);
        id
    }

    fn count(&self, _code: u64, s: usize) -> u64 {
        self.cur[s]
    }
}

/// Whole configurations as [`PackedSpec`] words, keying the hashed
/// [`CodeIndex`]; no count vector is ever touched.  Membership is
/// membership, so discovery order is that of the [`BoxCodeIndex`].
struct PackedIndex<'a> {
    keys: &'a mut Vec<u64>,
    table: &'a mut CodeIndex,
    reqs: &'a [u64],
    deltas: &'a [u64],
}

impl<'a> PackedIndex<'a> {
    /// Empties `store` and stores the packed `start` as id 0.
    fn new(store: &'a mut Store, spec: &'a PackedSpec, start: u64) -> Self {
        store.keys.clear();
        store.keys.push(start);
        store.table.reset();
        store.table.insert(&store.keys);
        PackedIndex {
            keys: &mut store.keys,
            table: &mut store.table,
            reqs: &spec.reqs,
            deltas: &spec.deltas,
        }
    }
}

impl StateIndex for PackedIndex<'_> {
    /// The packed configuration.
    type Loaded = u64;
    type Key = u64;
    type Id = usize;

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn load(&mut self, id: usize) -> u64 {
        self.keys[id]
    }

    fn reaction_count(&self) -> usize {
        self.deltas.len()
    }

    fn applicable(&self, word: u64, r: usize) -> bool {
        fires(word, self.reqs[r])
    }

    #[inline]
    fn probe(&mut self, word: u64, r: usize) -> Result<usize, u64> {
        let succ = word.wrapping_add(self.deltas[r]);
        self.table.lookup(succ, self.keys).ok_or(succ)
    }

    #[inline]
    fn insert(&mut self, _word: u64, _r: usize, key: u64) -> usize {
        self.keys.push(key);
        self.table.insert(self.keys);
        self.keys.len() - 1
    }

    fn count(&self, word: u64, s: usize) -> u64 {
        lane(word, s)
    }
}

/// The [`PackedIndex`] on a hull whose dense code fits
/// [`DENSE_VISITED_CAP`]: a probe is one load from a table indexed by the
/// incrementally maintained dense hull code.  The table holds epoch stamps
/// rather than ids, so emptying it costs nothing; it names no configuration
/// ([`StateIndex::Id`] is `()`) and can only feed the [`TerminalScan`].
struct DenseIndex<'a> {
    keys: &'a mut Vec<u64>,
    dense: &'a mut Vec<u64>,
    stamps: &'a mut [u32],
    epoch: u32,
    reqs: &'a [u64],
    deltas: &'a [u64],
    dense_deltas: &'a [u64],
}

impl<'a> DenseIndex<'a> {
    /// Empties `store` and stores the packed `start` as id 0; the spec's
    /// `dense_volume` must be nonzero.
    fn new(store: &'a mut Store, spec: &'a PackedSpec, start: u64) -> Self {
        if store.stamps.len() < spec.dense_volume {
            store.stamps.resize(spec.dense_volume, 0);
        }
        store.epoch = store.epoch.checked_add(1).unwrap_or_else(|| {
            store.stamps.fill(0);
            1
        });
        let code = spec.dense_code(start);
        store.stamps[usize::try_from(code).expect("dense code below the cap")] = store.epoch;
        store.keys.clear();
        store.keys.push(start);
        store.dense.clear();
        store.dense.push(code);
        DenseIndex {
            keys: &mut store.keys,
            dense: &mut store.dense,
            stamps: &mut store.stamps,
            epoch: store.epoch,
            reqs: &spec.reqs,
            deltas: &spec.deltas,
            dense_deltas: &spec.dense_deltas,
        }
    }
}

impl StateIndex for DenseIndex<'_> {
    /// The packed configuration and its dense hull code.
    type Loaded = (u64, u64);
    type Key = usize;
    type Id = ();

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn load(&mut self, id: usize) -> (u64, u64) {
        (self.keys[id], self.dense[id])
    }

    fn reaction_count(&self) -> usize {
        self.deltas.len()
    }

    fn applicable(&self, (word, _): (u64, u64), r: usize) -> bool {
        fires(word, self.reqs[r])
    }

    #[inline]
    fn probe(&mut self, (_, code): (u64, u64), r: usize) -> Result<(), usize> {
        let slot = usize::try_from(code.wrapping_add(self.dense_deltas[r]))
            .expect("dense code below the cap");
        if self.stamps[slot] == self.epoch {
            Ok(())
        } else {
            Err(slot)
        }
    }

    #[inline]
    fn insert(&mut self, (word, _): (u64, u64), r: usize, slot: usize) {
        self.stamps[slot] = self.epoch;
        self.keys.push(word.wrapping_add(self.deltas[r]));
        self.dense.push(slot as u64);
    }

    fn count(&self, (word, _): (u64, u64), s: usize) -> u64 {
        lane(word, s)
    }
}

/// The CSR successor structure, with duplicate edges (several reactions
/// leading to the same successor) suppressed by an O(1) stamp per target.
pub(super) struct Edges {
    pub(super) csr: CsrGraph,
    /// The last expanding configuration that emitted an edge to each id.
    last_emit: Vec<usize>,
}

impl Edges {
    fn new() -> Self {
        Edges {
            csr: CsrGraph::new(),
            last_emit: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.csr.reset();
        self.last_emit.clear();
    }
}

impl Sink<usize> for Edges {
    fn edge(&mut self, from: usize, to: usize) {
        if to >= self.last_emit.len() {
            self.last_emit.resize(to + 1, usize::MAX);
        }
        if self.last_emit[to] != from {
            self.last_emit[to] = from;
            self.csr.push_edge(to);
        }
    }

    fn seal<I: StateIndex>(&mut self, _index: &I, _cur: I::Loaded, _terminal: bool) -> bool {
        self.csr.seal_node();
        true
    }
}

/// The decision sink for a CRN whose [`Analysis`] carries the acyclicity
/// certificate: every reachability graph is a DAG, whose sink
/// components are the *terminal* configurations, so "every component
/// recovers" is "every terminal configuration carries the expected output".
/// The exploration stops at the first bad terminal.
struct TerminalScan {
    output: usize,
    expected: u64,
}

impl<Id> Sink<Id> for TerminalScan {
    fn edge(&mut self, _from: usize, _to: Id) {}

    fn seal<I: StateIndex>(&mut self, index: &I, cur: I::Loaded, terminal: bool) -> bool {
        !terminal || index.count(cur, self.output) == self.expected
    }
}

/// One exploration's reusable state: the index buffers, the CSR sink, the
/// stubborn-set scratch, and the running count of stored configurations.
pub(super) struct ExploreState {
    pub(super) store: Store,
    pub(super) edges: Edges,
    stubborn: StubbornScratch,
    /// Configurations stored across every exploration of this state.
    explored: u64,
}

impl ExploreState {
    /// Creates empty state; every buffer grows on first use.
    pub(super) fn new() -> Self {
        ExploreState {
            store: Store::new(),
            edges: Edges::new(),
            stubborn: StubbornScratch::new(),
            explored: 0,
        }
    }

    /// Explores everything reachable from `start_dense` (one count per
    /// species of the stride, which must cover `compiled.stride()`) into the
    /// CSR sink, through the box-code index of `spec` when given and the
    /// hash index otherwise.  On success `self.store.arena` holds the
    /// reachable configurations, id 0 being the start, and `self.edges.csr`
    /// their successor structure.
    pub(super) fn run(
        &mut self,
        compiled: &CompiledCrn,
        start_dense: &[u64],
        spec: Option<&DirectSpec>,
        max_configurations: usize,
    ) -> Result<(), CrnError> {
        self.edges.reset();
        let (store, edges, explored) = (&mut self.store, &mut self.edges, &mut self.explored);
        match spec {
            Some(spec) => {
                let mut index = BoxCodeIndex::new(store, spec, compiled, start_dense);
                explore(
                    &mut index,
                    edges,
                    &mut AllReactions,
                    max_configurations,
                    explored,
                )?
            }
            None => {
                let mut index = HashIndex::new(store, compiled, start_dense);
                explore(
                    &mut index,
                    edges,
                    &mut AllReactions,
                    max_configurations,
                    explored,
                )?
            }
        };
        Ok(())
    }
}

/// A conservation-law refutation oracle: answers "is `target` provably
/// unreachable from `source`?" in `O(laws × species)` without exploring any
/// state space.
///
/// Built once per CRN from the *signed* conservation-law basis of the
/// stoichiometry matrix (see [`conservation_basis`]).  Every reachable
/// configuration `c'` satisfies `v·c' = v·c` for each basis law `v`, so a
/// law weighing source and target differently is a proof of unreachability.
/// The basis spans the whole left nullspace, which makes the oracle
/// *complete for linear refutation*: if any rational invariant separates the
/// two configurations, some basis law does.
///
/// The oracle is sound but (necessarily) incomplete overall — reachability
/// also fails for non-linear reasons — so a `None` answer means "explore".
pub struct InvariantOracle {
    laws: Vec<ConservationLaw>,
}

impl InvariantOracle {
    /// Computes the conservation-law basis of `compiled`.
    #[must_use]
    pub fn new(compiled: &CompiledCrn) -> Self {
        InvariantOracle {
            laws: conservation_basis(&Stoichiometry::of(compiled)),
        }
    }

    /// Returns a law weighing `source` and `target` differently, if one
    /// exists — a static proof that neither configuration can reach the
    /// other.  Both slices are dense count vectors; indices beyond the law
    /// stride (species untouched by every reaction) weigh zero.
    #[must_use]
    pub fn refutes(&self, source: &[u64], target: &[u64]) -> Option<&ConservationLaw> {
        self.laws.iter().find(|law| law.refutes(source, target))
    }

    /// The basis laws the oracle consults.
    #[must_use]
    pub fn laws(&self) -> &[ConservationLaw] {
        &self.laws
    }
}

/// The outcome of a purely static look at one box point: the interval
/// abstraction either proves the point passes, proves it cannot pass, or
/// abstains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StaticOutcome {
    /// Every reachable configuration carries the expected output count and
    /// the reachable space provably fits the search limit: the full check
    /// would return a correct verdict without erroring.
    Pass,
    /// The expected output count lies outside the reachable interval of the
    /// output species: the full check would fail or error, never pass.
    Fail,
}

/// What the incremental box sweep precomputes once: the stubborn-set
/// dependence tables, the packed byte encoding and the input automorphisms.
/// All depend only on the CRN and the bound, so the driver builds one plan
/// and every worker shares it by reference.
pub(super) struct SweepPlan {
    /// The dependence tables of the [`Stubborn`] policy; present exactly
    /// when the CRN is certified acyclic, so its points take the
    /// [`TerminalScan`].
    dependence: Option<Dependence>,
    /// The byte packing for certified-acyclic CRNs whose box-wide hull fits
    /// 7-bit lanes.
    packed: Option<PackedSpec>,
    /// Input permutations extending to CRN automorphisms, in skip
    /// orientation (see [`symmetry::input_automorphisms`]).
    pub(super) perms: Vec<Vec<usize>>,
}

impl SweepPlan {
    pub(super) fn build(crn: &FunctionCrn, analysis: &Analysis, bound: u64) -> SweepPlan {
        let compiled = analysis.compiled();
        let stride = compiled.stride().max(crn.role_stride());
        let packed = if analysis.acyclic() {
            // The hull is the interval analysis seeded at the box's top
            // corner: the monotone potentials and the liveness closure both
            // grow with the start, so the resulting box contains every
            // configuration reachable from *any* point of the sweep.
            let mut top = vec![0u64; stride];
            for species in &crn.roles().inputs {
                top[species.index()] = bound;
            }
            if let Some(leader) = crn.leader() {
                top[leader.index()] += 1;
            }
            let support: Vec<usize> = (0..stride).filter(|&s| top[s] > 0).collect();
            let live = Liveness::analyze(compiled, &support);
            let hull = analysis.bounds().box_hull(&top, &live);
            PackedSpec::build(&hull, compiled, analysis.conservation_basis(), stride)
        } else {
            None
        };
        SweepPlan {
            dependence: analysis.acyclic().then(|| Dependence::of(compiled)),
            packed,
            perms: symmetry::input_automorphisms(crn, compiled),
        }
    }
}

/// A reusable stable-computation checker for one CRN: the exploration state,
/// condensation scratch and component arrays are recycled across
/// [`check`](VerdictEngine::check) calls.  The parallel box driver gives
/// each worker thread one engine; all of them borrow the CRN's one shared
/// [`Analysis`] (its compiled reactions included).
///
/// An *analyzed* engine reads the static
/// analysis — monotone-potential bounds, the signed conservation-law basis
/// and the acyclicity certificate — and uses it to (a) answer
/// [`static_verdict`](VerdictEngine::static_verdict) queries without
/// building an arena and (b) explore through the [`BoxCodeIndex`] whenever
/// the proven interval box is finite.  A *reference* engine skips all of it
/// and always explores through the [`HashIndex`] — the in-tree differential
/// oracle; both produce bit-identical verdicts.
pub(super) struct VerdictEngine<'c> {
    crn: &'c FunctionCrn,
    compiled: &'c CompiledCrn,
    stride: usize,
    /// The CRN's static analysis; `None` on a reference engine.
    analysis: Option<&'c Analysis>,
    /// The interval analysis of the last analyzed start configuration, so a
    /// [`static_verdict`](VerdictEngine::static_verdict) followed by a
    /// [`decide`](VerdictEngine::decide) on the same point pays for liveness
    /// and bound propagation once, not twice.
    cached_intervals: Option<(Vec<u64>, CountIntervals)>,
    state: ExploreState,
    cond: Condensation,
    start_dense: Vec<u64>,
    start_support: Vec<usize>,
    comp_max: Vec<u64>,
    comp_min: Vec<u64>,
    comp_recovers: Vec<bool>,
}

impl<'c> VerdictEngine<'c> {
    /// An engine on `crn`'s shared [`Analysis`]: an analyzed engine when
    /// `analyzed`, else a reference engine.
    pub(super) fn new(crn: &'c FunctionCrn, analyzed: bool) -> Self {
        let analysis = crn.analysis();
        let compiled = analysis.compiled();
        // The stride must cover every species the check can touch: the
        // compiled stride spans the CRN's own set plus any foreign species a
        // reaction sneaks in (`add_reaction` does not validate membership),
        // and the role stride covers the species the start configuration is
        // built from.
        let stride = compiled.stride().max(crn.role_stride());
        VerdictEngine {
            crn,
            compiled,
            stride,
            analysis: analyzed.then_some(analysis),
            cached_intervals: None,
            state: ExploreState::new(),
            cond: Condensation::empty(),
            start_dense: Vec::new(),
            start_support: Vec::new(),
            comp_max: Vec::new(),
            comp_min: Vec::new(),
            comp_recovers: Vec::new(),
        }
    }

    /// `(collisions, grows)` of the engine's configuration arena, cumulative
    /// over its lifetime — the observability layer's dedup metrics.
    pub(super) fn arena_metrics(&self) -> (u64, u64) {
        self.state.store.arena.metrics()
    }

    /// Configurations stored by every exploration this engine ran.
    pub(super) fn configs_explored(&self) -> u64 {
        self.state.explored
    }

    /// Applicable reactions the stubborn-set reduction left unexpanded, over
    /// every decision this engine ran.
    pub(super) fn successors_pruned(&self) -> u64 {
        self.state.stubborn.pruned()
    }

    /// Checks the arity of `x` and builds the initial configuration `I_x`
    /// densely into `start_dense`: input counts plus one leader.  Roles are
    /// validated distinct, so plain stores suffice.
    fn build_start(&mut self, x: &NVec) -> Result<(), CrnError> {
        if x.dim() != self.crn.dim() {
            return Err(CrnError::DimensionMismatch {
                expected: self.crn.dim(),
                actual: x.dim(),
            });
        }
        self.start_dense.clear();
        self.start_dense.resize(self.stride, 0);
        for (i, species) in self.crn.roles().inputs.iter().enumerate() {
            self.start_dense[species.index()] = x[i];
        }
        if let Some(leader) = self.crn.leader() {
            self.start_dense[leader.index()] += 1;
        }
        Ok(())
    }

    /// The reachable-count intervals of the current `start_dense`, computed
    /// at most once per start; `None` on a reference engine.
    fn intervals(&mut self) -> Option<&CountIntervals> {
        let analysis = self.analysis?;
        let stale = self
            .cached_intervals
            .as_ref()
            .map_or(true, |(start, _)| *start != self.start_dense);
        if stale {
            self.start_support.clear();
            self.start_support
                .extend((0..self.stride).filter(|&s| self.start_dense[s] > 0));
            let live = Liveness::analyze(self.compiled, &self.start_support);
            let intervals = analysis.bounds().intervals(
                &self.start_dense,
                &live,
                analysis.conservation_basis(),
            );
            self.cached_intervals = Some((self.start_dense.clone(), intervals));
        }
        self.cached_intervals
            .as_ref()
            .map(|(_, intervals)| intervals)
    }

    /// Classifies `x` without exploring: `Some(Pass)` and `Some(Fail)` are
    /// proofs about what [`check`](VerdictEngine::check) would return, `None`
    /// means the analysis abstains (always the case on a reference engine or
    /// a dimension mismatch — the full check owns those errors).
    pub(super) fn static_verdict(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Option<StaticOutcome> {
        self.build_start(x).ok()?;
        let out = self.crn.output().index();
        let intervals = self.intervals()?;
        if expected_output < intervals.lower(out)
            || intervals.upper(out).is_some_and(|u| expected_output > u)
        {
            // No reachable configuration carries the expected count, so no
            // stable-with-expected-output configuration exists: the full
            // check fails (or exceeds the search limit trying).
            return Some(StaticOutcome::Fail);
        }
        if intervals.pinned(out) == Some(expected_output)
            && intervals
                .state_space()
                .is_some_and(|v| v <= max_configurations as u128)
        {
            // The output count is invariant across the whole reachable
            // space, so every configuration is output-stable with the
            // expected value, and the space provably fits the limit.
            return Some(StaticOutcome::Pass);
        }
        None
    }

    /// The mixed-radix code over the current start's interval box, when the
    /// engine is analyzed and the box is finite and fits the code range.
    fn box_spec(&mut self) -> Option<DirectSpec> {
        self.intervals()?;
        let (_, intervals) = self.cached_intervals.as_ref()?;
        DirectSpec::build(intervals, self.compiled, DIRECT_INDEX_CAP)
    }

    /// Decides whether the CRN stably computes `expected_output` on `x` —
    /// exactly the `correct` flag [`check`](VerdictEngine::check) would
    /// report, `Ok(false)` standing for "fails or errors", wherever `check`
    /// completes — without materializing a verdict.  The box driver runs
    /// this on every candidate point and re-checks only the winning failure
    /// in full.
    ///
    /// A certified-acyclic CRN takes the [`TerminalScan`] over the
    /// [`Stubborn`] reduction, which stores only part of the reachable set
    /// and so can conclude within `max_configurations` where `check` gives
    /// up: through the plan's [`DenseIndex`] or [`PackedIndex`] when the
    /// sweep's hull packs, else through the [`BoxCodeIndex`] of the point's
    /// interval box, or the [`HashIndex`] past the code range.  Every other
    /// point builds the CSR and runs [`Condensation::all_recover`].
    pub(super) fn decide(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
        plan: &SweepPlan,
    ) -> Result<bool, CrnError> {
        self.build_start(x)?;
        let output = self.crn.output().index();
        let Some(dependence) = &plan.dependence else {
            let spec = self.box_spec();
            self.state.run(
                self.compiled,
                &self.start_dense,
                spec.as_ref(),
                max_configurations,
            )?;
            let arena = &self.state.store.arena;
            return Ok(self.cond.all_recover(
                &self.state.edges.csr,
                |v| arena.get(v)[output],
                expected_output,
            ));
        };
        let mut scan = TerminalScan {
            output,
            expected: expected_output,
        };
        let spec = if plan.packed.is_none() {
            self.box_spec()
        } else {
            None
        };
        let ExploreState {
            store,
            stubborn,
            explored,
            ..
        } = &mut self.state;
        let mut policy = Stubborn::new(dependence, self.compiled, stubborn);
        if let Some(packed) = &plan.packed {
            let start = packed.pack(&self.start_dense);
            return if packed.dense_volume > 0 {
                let mut index = DenseIndex::new(store, packed, start);
                explore(
                    &mut index,
                    &mut scan,
                    &mut policy,
                    max_configurations,
                    explored,
                )
            } else {
                let mut index = PackedIndex::new(store, packed, start);
                explore(
                    &mut index,
                    &mut scan,
                    &mut policy,
                    max_configurations,
                    explored,
                )
            };
        }
        match &spec {
            Some(spec) => {
                let mut index = BoxCodeIndex::new(store, spec, self.compiled, &self.start_dense);
                explore(
                    &mut index,
                    &mut scan,
                    &mut policy,
                    max_configurations,
                    explored,
                )
            }
            None => {
                let mut index = HashIndex::new(store, self.compiled, &self.start_dense);
                explore(
                    &mut index,
                    &mut scan,
                    &mut policy,
                    max_configurations,
                    explored,
                )
            }
        }
    }

    /// Checks whether the CRN stably computes `expected_output` on `x`.
    /// Equivalent to [`super::check_stable_computation`] (which is this, run
    /// on a fresh engine).
    pub(super) fn check(
        &mut self,
        x: &NVec,
        expected_output: u64,
        max_configurations: usize,
    ) -> Result<StableComputationVerdict, CrnError> {
        self.build_start(x)?;
        let spec = self.box_spec();
        self.state.run(
            self.compiled,
            &self.start_dense,
            spec.as_ref(),
            max_configurations,
        )?;
        self.cond.rebuild(&self.state.edges.csr);

        let arena = &self.state.store.arena;
        let csr = &self.state.edges.csr;
        let cond = &self.cond;
        let out_idx = self.crn.output().index();
        let out_of = |v: usize| arena.get(v)[out_idx];

        // Every configuration of a strongly connected component reaches the
        // same closure, so all three verdict queries are per-component, each
        // one reverse-topological fold over the condensation.
        let k = cond.component_count();
        cond.fold_into(csr, u64::MIN, out_of, u64::max, &mut self.comp_max);
        cond.fold_into(csr, u64::MAX, out_of, u64::min, &mut self.comp_min);
        let comp_max = &self.comp_max;
        let comp_min = &self.comp_min;

        // A component is *stable* when the output count can never change
        // again anywhere in its closure; all its configurations then carry
        // the single output value `comp_max[c]`.  A component *recovers* when
        // it is itself stable-with-the-expected-output or reaches a component
        // that recovers.
        cond.fold_into(
            csr,
            false,
            |v| {
                let c = cond.component_of(v);
                comp_max[c] == comp_min[c] && comp_max[c] == expected_output
            },
            |a, b| a || b,
            &mut self.comp_recovers,
        );
        let comp_recovers = &self.comp_recovers;
        let all_recover = comp_recovers.iter().all(|&r| r);

        let mut stable_outputs: Vec<u64> = (0..k)
            .filter(|&c| comp_max[c] == comp_min[c])
            .map(|c| comp_max[c])
            .collect();
        stable_outputs.sort_unstable();
        stable_outputs.dedup();

        let failure = if all_recover {
            None
        } else {
            let bad = (0..arena.len())
                .find(|&v| !comp_recovers[cond.component_of(v)])
                .expect("some bad index");
            Some(format!(
                "configuration {} cannot reach a stable configuration with output {}",
                arena.sparse(bad).display(self.crn.crn().species()),
                expected_output
            ))
        };

        Ok(StableComputationVerdict {
            input: x.clone(),
            expected_output,
            correct: all_recover,
            reachable_configurations: arena.len(),
            max_output_reachable: comp_max[cond.component_of(0)],
            stable_outputs,
            failure,
        })
    }
}

/// Kernel entry points for the stubborn-set tests: full and reduced
/// explorations through the [`HashIndex`], observed configuration by
/// configuration.
#[cfg(test)]
pub(super) mod testing {
    use std::collections::BTreeSet;

    use super::*;

    /// Records every terminal configuration the kernel seals.
    struct Terminals {
        stride: usize,
        found: BTreeSet<Vec<u64>>,
    }

    impl Sink<usize> for Terminals {
        fn edge(&mut self, _from: usize, _to: usize) {}

        fn seal<I: StateIndex>(&mut self, index: &I, cur: I::Loaded, terminal: bool) -> bool {
            if terminal {
                self.found
                    .insert((0..self.stride).map(|s| index.count(cur, s)).collect());
            }
            true
        }
    }

    /// The terminal configurations reachable from `start`, under the
    /// stubborn reduction when `reduced`, plus the number of configurations
    /// stored.
    pub(in crate::reachability) fn terminals(
        compiled: &CompiledCrn,
        start: &[u64],
        reduced: bool,
        max_configurations: usize,
    ) -> Result<(BTreeSet<Vec<u64>>, u64), CrnError> {
        let mut store = Store::new();
        let mut index = HashIndex::new(&mut store, compiled, start);
        let mut sink = Terminals {
            stride: start.len(),
            found: BTreeSet::new(),
        };
        let mut explored = 0;
        if reduced {
            let dependence = Dependence::of(compiled);
            let mut scratch = StubbornScratch::new();
            let mut policy = Stubborn::new(&dependence, compiled, &mut scratch);
            explore(
                &mut index,
                &mut sink,
                &mut policy,
                max_configurations,
                &mut explored,
            )?;
        } else {
            explore(
                &mut index,
                &mut sink,
                &mut AllReactions,
                max_configurations,
                &mut explored,
            )?;
        }
        Ok((sink.found, explored))
    }

    /// The reactions the stubborn policy expands at `start`.
    pub(in crate::reachability) fn stubborn_choice(
        compiled: &CompiledCrn,
        start: &[u64],
    ) -> Vec<usize> {
        let mut store = Store::new();
        let mut index = HashIndex::new(&mut store, compiled, start);
        index.load(0);
        let dependence = Dependence::of(compiled);
        let mut scratch = StubbornScratch::new();
        let mut policy = Stubborn::new(&dependence, compiled, &mut scratch);
        policy
            .reduce(&index, ())
            .expect("the stubborn policy always chooses")
            .to_vec()
    }
}
