//! The DP's solution table: a fixed-size header per unate node, and every
//! node's exported candidates, in segments that one worker owns.
//!
//! A worker appends each node it solves to its *open segment*: the node's
//! header to one fixed-capacity buffer, its shape runs to a second, its
//! candidates to a third. The header ([`NodeSol`]) records where the runs
//! and candidates went (segment, offset and length of each), the gate
//! solution and the memo profile. The table's per-node index entry, one
//! word, then names the header. A segment never grows and never moves, so
//! a worker can append to it while other workers read what it appended in
//! earlier levels; when the next node does not fit, the worker seals the
//! segment (keeps it, writes no more to it) and opens one twice as large.
//! The serial walk is one worker with one open segment at a time.
//!
//! Nothing here allocates per node: a run makes a few segments per worker,
//! and dropping the table frees a few blocks instead of two per node. A
//! worker's writes go to its own segments in the order it solves, so the
//! level-by-level walk writes as sequentially as the serial one; the only
//! per-node write outside a worker's own memory is its index entry.
//!
//! **Publication.** Every cell of a segment is written once, by the worker
//! that owns the segment (or by the driver seeding salvaged units before
//! any worker starts), into space it reserved and nothing names yet. A
//! node's index entry is stored with `Release` after its header and
//! exports are written, and every read of a header or its exports starts
//! from an `Acquire` load of the entry — so each read happens after the
//! writes it reads, whatever the schedule. A segment itself is published
//! into a write-once [`OnceLock`] slot when its worker opens it, before
//! any header names it. That discipline is what makes the `unsafe` cell
//! accesses below sound; bounds are checked on every access, and reading
//! an unsolved node panics.

use std::mem::MaybeUninit;
use std::ops::{Index, Range};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use soi_unate::UId;

use crate::arena::CandArena;
use crate::tuple::{Cand, CandRef, GateSol, TupleKey};

/// One shape's contiguous candidate run, relative to the first candidate
/// of its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeRun {
    pub key: TupleKey,
    pub start: u32,
    pub len: u32,
}

/// Where one node's solution lives: its segment `seg`, the offset of its
/// header there, and offset and length of its runs and its candidates (in
/// a salvaged unit's own arrays only the runs and candidates count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExportLoc {
    seg: u32,
    header: u32,
    runs: u32,
    n_runs: u32,
    cands: u32,
    n_cands: u32,
}

impl ExportLoc {
    /// The segment the exports live in.
    #[cfg(test)]
    pub fn segment(&self) -> u32 {
        self.seg
    }

    /// Number of exported candidates.
    pub fn candidates(&self) -> usize {
        self.n_cands as usize
    }

    fn runs(&self) -> Range<usize> {
        self.runs as usize..(self.runs + self.n_runs) as usize
    }

    fn cands(&self) -> Range<usize> {
        self.cands as usize..(self.cands + self.n_cands) as usize
    }
}

/// Per-node DP state: the fixed-size header the table keeps for every
/// node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeSol {
    /// The candidates visible to consumers (bare tuples for fanout-1
    /// nodes, plus the gate-as-input tuple).
    pub exports: ExportLoc,
    /// The formed-gate solution (every node has one; it is only
    /// materialized when referenced).
    pub gate: GateSol,
    /// Gate-memo profile of the exports: `(digest of the full candidate
    /// list with levels taken relative to their minimum, that minimum
    /// level)`. Computed once when the solution is published (only while
    /// a run's memo is live; `(0, 0)` otherwise) so memo probes hash a
    /// pair per fanin instead of re-walking every candidate. The digest
    /// half is invariant under uniform level shifts; rebinding shifts the
    /// minimum along with the levels.
    pub profile: (u64, u32),
}

/// A node's exported candidate sets, keyed by shape: a view of its runs
/// and candidates.
///
/// Runs are sorted by [`TupleKey`], so iteration order is deterministic —
/// a requirement for the parallel DP to be bit-identical to the serial
/// one (a per-node `HashMap` would enumerate candidates in seed-dependent
/// order and let hash order decide cost ties).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exports<'a> {
    runs: &'a [ShapeRun],
    cands: &'a [Cand],
}

impl<'a> Exports<'a> {
    /// The candidates exported under `key`, if any.
    ///
    /// A node rarely exports more than a few dozen shapes, so a forward
    /// scan comparing packed `(w, h)` words (the same order as
    /// `TupleKey`'s derived `Ord`) beats a binary search's unpredictable
    /// probes — this lookup runs once per fanin edge during reconstruct.
    pub fn get(&self, key: &TupleKey) -> Option<&'a [Cand]> {
        let want = (u64::from(key.w) << 32) | u64::from(key.h);
        for r in self.runs {
            let have = (u64::from(r.key.w) << 32) | u64::from(r.key.h);
            if have >= want {
                return (have == want).then(|| self.run(r));
            }
        }
        None
    }

    fn run(&self, r: &ShapeRun) -> &'a [Cand] {
        &self.cands[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of distinct shapes.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Iterator over `(shape, candidate)` pairs in shape order.
    pub fn flat(self) -> impl Iterator<Item = (TupleKey, &'a Cand)> {
        self.shape_runs()
            .flat_map(|(key, run)| run.iter().map(move |c| (key, c)))
    }

    /// Iterator over `(shape, run)` pairs in shape order.
    pub fn shape_runs(self) -> impl Iterator<Item = (TupleKey, &'a [Cand])> {
        self.runs.iter().map(move |r| (r.key, self.run(r)))
    }

    /// Flat iterator over all exported candidates with their references
    /// as exports of `node`, in shape order.
    pub fn refs(self, node: UId) -> impl Iterator<Item = (CandRef, &'a Cand)> {
        self.shape_runs().flat_map(move |(key, run)| {
            run.iter().enumerate().map(move |(idx, c)| {
                (
                    CandRef {
                        node,
                        key,
                        idx: idx as u32,
                    },
                    c,
                )
            })
        })
    }
}

impl Index<&TupleKey> for Exports<'_> {
    type Output = [Cand];

    fn index(&self, key: &TupleKey) -> &[Cand] {
        self.get(key).expect("no candidates exported for shape")
    }
}

/// A salvaged unit's solutions as owned copies: each header's export
/// location indexes the unit's own `runs` and `cands`.
#[derive(Debug, Clone, Default)]
pub(crate) struct OwnedSols {
    /// One header per node of the unit, in unit order.
    pub sols: Vec<NodeSol>,
    runs: Vec<ShapeRun>,
    cands: Vec<Cand>,
}

impl OwnedSols {
    /// The exports of the unit's `i`-th node.
    pub fn exports(&self, i: usize) -> Exports<'_> {
        let loc = self.sols[i].exports;
        Exports {
            runs: &self.runs[loc.runs()],
            cands: &self.cands[loc.cands()],
        }
    }

    /// Appends a copy of a node's solution.
    fn push(&mut self, sol: &NodeSol, exports: Exports<'_>) {
        let exports_loc = ExportLoc {
            seg: 0,
            header: 0,
            runs: self.runs.len() as u32,
            n_runs: exports.runs.len() as u32,
            cands: self.cands.len() as u32,
            n_cands: exports.cands.len() as u32,
        };
        self.runs.extend_from_slice(exports.runs);
        self.cands.extend_from_slice(exports.cands);
        self.sols.push(NodeSol {
            exports: exports_loc,
            ..*sol
        });
    }

    /// Candidates over all the unit's nodes.
    pub fn candidates(&self) -> usize {
        self.cands.len()
    }
}

/// A fixed-capacity buffer of write-once cells that never grows or moves.
/// Cells are written and read through `&self` under the discipline of the
/// module docs; the bounds are always checked.
struct Cells<T> {
    ptr: NonNull<T>,
    cap: usize,
}

// SAFETY: `Cells` owns its buffer like a `Box<[T]>`; shared access follows
// the write-once/read-after discipline of the module docs.
unsafe impl<T: Send> Send for Cells<T> {}
unsafe impl<T: Send + Sync> Sync for Cells<T> {}

impl<T: Copy> Cells<T> {
    /// An uninitialized buffer of `cap` cells; its pages are touched only
    /// as cells are written.
    fn new(cap: usize) -> Cells<T> {
        let raw = Box::into_raw(Box::<[T]>::new_uninit_slice(cap));
        Cells {
            ptr: NonNull::new(raw.cast::<T>()).expect("a box is never null"),
            cap,
        }
    }

    /// Writes cell `i`.
    ///
    /// # Safety
    ///
    /// Cell `i` is written at most once, and every read of it happens
    /// after this write.
    unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.cap, "cell {i} out of {}", self.cap);
        // SAFETY: in bounds; the caller rules out a concurrent access.
        unsafe { self.ptr.as_ptr().add(i).write(value) }
    }

    /// The cells `range`.
    ///
    /// # Safety
    ///
    /// Every cell in `range` has been written, and each write
    /// happens-before this call.
    unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        assert!(
            range.start <= range.end && range.end <= self.cap,
            "cells {range:?} out of {}",
            self.cap
        );
        // SAFETY: in bounds and written; no cell is ever written twice, so
        // none changes under the borrow.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(range.start), range.len()) }
    }
}

impl<T> Drop for Cells<T> {
    fn drop(&mut self) {
        let slice = std::ptr::slice_from_raw_parts_mut(
            self.ptr.as_ptr().cast::<MaybeUninit<T>>(),
            self.cap,
        );
        // SAFETY: the pointer came from `Box::into_raw` of exactly this
        // slice type and length; `T: Copy` cells need no drop.
        drop(unsafe { Box::from_raw(slice) });
    }
}

/// One segment: header, run and candidate buffers of equal capacity (a
/// node exports at least one candidate, and no more runs than
/// candidates).
struct Segment {
    headers: Cells<NodeSol>,
    runs: Cells<ShapeRun>,
    cands: Cells<Cand>,
}

/// Segment slots per worker. Each new segment is at least twice the size
/// of the last, from a first one of at least [`MIN_SEGMENT`] candidates,
/// so a worker would have to export more than `2^40` candidates — far
/// past any memory — to run out.
const SEGMENTS_PER_WORKER: usize = 32;

/// Smallest first segment, in candidates.
const MIN_SEGMENT: usize = 256;

/// Candidates per node a worker's first segment is sized for. A shared
/// node exports one; a fanout-free node more. Repetitive netlists average
/// below two (`synth-mult136`: 1.45), irregular ones above (`control`
/// circuits: about 6), which fill the first segment and open larger ones.
const SEGMENT_CANDS_PER_NODE: usize = 2;

/// Index entry of a node not solved yet.
const UNSOLVED: u64 = 0;

/// The per-node DP solutions of one run: an index entry per node plus the
/// segments. The table is the run's solution; it is built in place and
/// never converted.
pub(crate) struct SolTable {
    /// Per node, [`UNSOLVED`] or `(segment + 1) << 32 | header offset`.
    index: Box<[AtomicU64]>,
    /// Segment slots: slot 0 takes the salvaged units, worker `w` opens
    /// its segments in `1 + w·SEGMENTS_PER_WORKER` onwards.
    segments: Box<[OnceLock<Segment>]>,
    /// Capacity of each worker's first segment.
    first_segment: usize,
}

impl SolTable {
    /// A table for `nodes` nodes solved by up to `workers` workers.
    pub(crate) fn new(nodes: usize, workers: usize) -> SolTable {
        let workers = workers.max(1);
        SolTable {
            index: (0..nodes).map(|_| AtomicU64::new(UNSOLVED)).collect(),
            segments: (0..1 + workers * SEGMENTS_PER_WORKER)
                .map(|_| OnceLock::new())
                .collect(),
            first_segment: (nodes / workers)
                .saturating_mul(SEGMENT_CANDS_PER_NODE)
                .max(MIN_SEGMENT),
        }
    }

    /// Whether `id` has been solved.
    #[cfg(test)]
    pub(crate) fn is_solved(&self, id: UId) -> bool {
        self.index[id.index()].load(Ordering::Relaxed) != UNSOLVED
    }

    fn segment(&self, seg: u32) -> &Segment {
        self.segments[seg as usize]
            .get()
            .expect("a header names a published segment")
    }

    /// The solution of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been solved — a scheduling bug.
    pub(crate) fn get(&self, id: UId) -> &NodeSol {
        let entry = self.index[id.index()].load(Ordering::Acquire);
        assert!(entry != UNSOLVED, "fanin {id} solved before its consumer");
        let (seg, header) = ((entry >> 32) as u32 - 1, entry as u32 as usize);
        // SAFETY: the entry is stored (`Release`) only after the header is
        // written, and this `Acquire` load saw it.
        unsafe { &self.segment(seg).headers.slice(header..header + 1)[0] }
    }

    /// The solution of `id` and its exports.
    ///
    /// # Panics
    ///
    /// As [`get`](SolTable::get).
    pub(crate) fn node(&self, id: UId) -> (&NodeSol, Exports<'_>) {
        let sol = self.get(id);
        let loc = sol.exports;
        let seg = self.segment(loc.seg);
        // SAFETY: a header is published only after its exports are
        // written (`SegWriter::set` checks it), and `sol` is a published
        // header.
        let exports = unsafe {
            Exports {
                runs: seg.runs.slice(loc.runs()),
                cands: seg.cands.slice(loc.cands()),
            }
        };
        (sol, exports)
    }

    /// The exports of node `id`.
    pub(crate) fn node_exports(&self, id: UId) -> Exports<'_> {
        self.node(id).1
    }

    /// An owned copy of the solutions of `nodes` (for salvage).
    pub(crate) fn copy_out(&self, nodes: &[UId]) -> OwnedSols {
        let mut owned = OwnedSols::default();
        for &id in nodes {
            let (sol, exports) = self.node(id);
            owned.push(sol, exports);
        }
        owned
    }

    /// The writer for worker `w`'s segments.
    pub(crate) fn writer(&self, w: usize) -> SegWriter {
        let first = 1 + w * SEGMENTS_PER_WORKER;
        SegWriter::new(first..first + SEGMENTS_PER_WORKER, self.first_segment)
    }

    /// The writer for the salvage seeds: one segment of `candidates`
    /// candidates in slot 0.
    pub(crate) fn seed_writer(&self, candidates: usize) -> SegWriter {
        SegWriter::new(0..1, candidates.max(1))
    }
}

/// A worker's open segment: where its next node goes.
///
/// The fills only grow, and only past cells just written: every cell below
/// them is written, and none is written twice. A node's runs and
/// candidates go in first ([`write`](SegWriter::write)), then its header
/// in the next header cell ([`set`](SegWriter::set)), which publishes it.
pub(crate) struct SegWriter {
    /// The slots this writer may open segments in, the next one first.
    slots: Range<usize>,
    /// Capacity of the next segment when nothing is open yet.
    first: usize,
    /// The open segment's slot, fills and capacity (headers, runs and
    /// candidates).
    seg: usize,
    headers: usize,
    runs: usize,
    cands: usize,
    cap: usize,
}

impl SegWriter {
    fn new(slots: Range<usize>, first: usize) -> SegWriter {
        SegWriter {
            slots,
            first,
            seg: 0,
            headers: 0,
            runs: 0,
            cands: 0,
            cap: 0,
        }
    }

    /// Makes room in the open segment for a header, `n_runs` runs and
    /// `n_cands` candidates, sealing it and opening a larger one when they
    /// do not fit, and returns the segment and where they go (the current
    /// fills).
    fn reserve<'t>(
        &mut self,
        table: &'t SolTable,
        n_runs: usize,
        n_cands: usize,
    ) -> (&'t Segment, ExportLoc) {
        if self.headers == self.cap
            || self.runs + n_runs > self.cap
            || self.cands + n_cands > self.cap
        {
            let cap = if self.cap == 0 {
                self.first
            } else {
                self.cap.saturating_mul(2)
            }
            .max(n_runs)
            .max(n_cands)
            .min(u32::MAX as usize);
            let slot = self
                .slots
                .next()
                .expect("a worker's segment slots outlast any memory");
            let fresh = Segment {
                headers: Cells::new(cap),
                runs: Cells::new(cap),
                cands: Cells::new(cap),
            };
            if table.segments[slot].set(fresh).is_err() {
                panic!("segment slot {slot} opened twice");
            }
            (self.seg, self.headers, self.runs, self.cands, self.cap) = (slot, 0, 0, 0, cap);
        }
        let loc = ExportLoc {
            seg: self.seg as u32,
            header: self.headers as u32,
            runs: self.runs as u32,
            n_runs: n_runs as u32,
            cands: self.cands as u32,
            n_cands: n_cands as u32,
        };
        (table.segment(loc.seg), loc)
    }

    /// Whether `loc` names written runs and candidates of the open
    /// segment, and its header is the next one to write.
    fn is_pending(&self, loc: &ExportLoc) -> bool {
        loc.seg as usize == self.seg
            && loc.header as usize == self.headers
            && loc.runs().end <= self.runs
            && loc.cands().end <= self.cands
    }

    /// The exports at `loc`, which this writer wrote last and has not
    /// published yet (the memo profile is computed from them before the
    /// header is written).
    pub(crate) fn exports<'t>(&self, table: &'t SolTable, loc: &ExportLoc) -> Exports<'t> {
        assert!(self.is_pending(loc), "exports not written by this writer");
        let seg = table.segment(loc.seg);
        // SAFETY: below the fills, so written (see the type docs) — by this
        // thread, which is the one reading.
        unsafe {
            Exports {
                runs: seg.runs.slice(loc.runs()),
                cands: seg.cands.slice(loc.cands()),
            }
        }
    }

    /// Publishes the solution of `id`, whose exports this writer wrote
    /// last: writes the header into the next header cell, then stores the
    /// node's index entry. Called once per node.
    pub(crate) fn set(&mut self, table: &SolTable, id: UId, sol: NodeSol) {
        let loc = sol.exports;
        assert!(self.is_pending(&loc), "exports not written by this writer");
        let entry = &table.index[id.index()];
        assert!(
            entry.load(Ordering::Relaxed) == UNSOLVED,
            "node {id} solved twice"
        );
        // SAFETY: the next header cell of this writer's own segment: never
        // written (the fill is past every written cell), and named by
        // nothing before the entry below.
        unsafe {
            table
                .segment(loc.seg)
                .headers
                .write(loc.header as usize, sol)
        };
        self.headers += 1;
        entry.store(
            (u64::from(loc.seg) + 1) << 32 | u64::from(loc.header),
            Ordering::Release,
        );
    }

    /// Writes one node's exports: `n_runs` runs (whose starts index the
    /// candidates), then `n_cands` candidates, and moves the fills past
    /// them. Panics, with the fills unmoved, unless each iterator yields
    /// exactly its count.
    fn write(
        &mut self,
        table: &SolTable,
        n_runs: usize,
        runs: impl IntoIterator<Item = ShapeRun>,
        n_cands: usize,
        cands: impl IntoIterator<Item = Cand>,
    ) -> ExportLoc {
        let (seg, loc) = self.reserve(table, n_runs, n_cands);
        let mut written = 0;
        for run in runs.into_iter().take(n_runs) {
            // SAFETY: at or past the fill of this writer's own segment: no
            // one else writes it, nothing names it, and no read reaches
            // past the fill.
            unsafe { seg.runs.write(loc.runs as usize + written, run) };
            written += 1;
        }
        assert_eq!(written, n_runs, "short run list");
        written = 0;
        for cand in cands.into_iter().take(n_cands) {
            // SAFETY: as above.
            unsafe { seg.cands.write(loc.cands as usize + written, cand) };
            written += 1;
        }
        assert_eq!(written, n_cands, "short candidate list");
        self.runs += n_runs;
        self.cands += n_cands;
        loc
    }

    /// Exports the staged runs — each `(key, start, len)` selecting
    /// `staged[start..start + len]`, handles into `arena`, sorted by key —
    /// plus the node's `{1,1}` gate-as-input candidate `extra` at the
    /// *end* of the unit run (or as a new leading run when there is none:
    /// `{1,1}` is the minimum shape). The runs may leave holes in
    /// `staged`; the copy compacts them.
    pub(crate) fn runs_with_unit(
        &mut self,
        table: &SolTable,
        shapes: &[(TupleKey, u32, u32)],
        staged: &[u32],
        arena: &CandArena,
        extra: Cand,
    ) -> ExportLoc {
        debug_assert!(shapes.windows(2).all(|w| w[0].0 < w[1].0));
        let extend_first = shapes
            .first()
            .is_some_and(|&(key, _, _)| key == TupleKey::UNIT);
        let lead = !extend_first;
        let n_runs = shapes.len() + usize::from(lead);
        let n_cands = shapes.iter().map(|s| s.2 as usize).sum::<usize>() + 1;
        let mut start = 0u32;
        let runs = (0..n_runs).map(|i| {
            let (key, len) = match (lead, i) {
                (true, 0) => (TupleKey::UNIT, 1),
                _ => {
                    let (key, _, len) = shapes[i - usize::from(lead)];
                    (key, len + u32::from(extend_first && i == 0))
                }
            };
            let run = ShapeRun { key, start, len };
            start += len;
            run
        });
        let (head, tail) = if lead {
            (Some(extra), None)
        } else {
            (None, Some(extra))
        };
        let first_run = shapes
            .first()
            .map_or(0..0, |&(_, s, len)| s as usize..(s + len) as usize);
        let rest = shapes
            .iter()
            .skip(1)
            .flat_map(|&(_, s, len)| staged[s as usize..(s + len) as usize].iter());
        let cands = head
            .into_iter()
            .chain(staged[first_run].iter().map(|&h| arena.get(h)))
            .chain(tail)
            .chain(rest.map(|&h| arena.get(h)));
        self.write(table, n_runs, runs, n_cands, cands)
    }

    /// Exports exactly one `{1,1}` candidate — what a shared node (its
    /// formed gate as an input transistor) or a literal exports.
    pub(crate) fn unit(&mut self, table: &SolTable, cand: Cand) -> ExportLoc {
        let run = ShapeRun {
            key: TupleKey::UNIT,
            start: 0,
            len: 1,
        };
        self.write(table, 1, [run], 1, [cand])
    }

    /// Exports a copy of `src` with every candidate passed through `map`
    /// (a memo hit rebinding its capture, or a salvaged unit's seed).
    pub(crate) fn copy(
        &mut self,
        table: &SolTable,
        src: Exports<'_>,
        map: impl Fn(Cand) -> Cand,
    ) -> ExportLoc {
        self.write(
            table,
            src.runs.len(),
            src.runs.iter().copied(),
            src.cands.len(),
            src.cands.iter().map(|&c| map(c)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Form, GateSol};
    use crate::Cost;
    use soi_unate::{Literal, Phase};

    fn cand(tx: u32) -> Cand {
        Cand {
            g: Cost::transistors(tx),
            u: Cost::transistors(tx),
            p_spine: 0,
            p_branch: 0,
            par_b: false,
            touches_pi: false,
            form: Form::Lit(Literal {
                input: 0,
                phase: Phase::Pos,
            }),
        }
    }

    /// A header for exports at `loc`.
    fn header(exports: ExportLoc) -> NodeSol {
        NodeSol {
            exports,
            gate: GateSol {
                cost: Cost::transistors(0),
                footed: false,
                form: cand(0).form,
                shape: TupleKey::UNIT,
            },
            profile: (0, 0),
        }
    }

    /// `(shape, tx)` of every exported candidate, in order.
    fn listing(exports: Exports<'_>) -> Vec<(TupleKey, u32)> {
        exports.flat().map(|(k, c)| (k, c.g.tx)).collect()
    }

    #[test]
    fn runs_with_unit_compacts_holes_and_places_the_gate_candidate() {
        let mut arena = CandArena::default();
        let staged: Vec<u32> = [1, 2, 3, 4]
            .iter()
            .map(|&tx| arena.push(cand(tx)))
            .collect();
        let (k12, k21, k22) = (
            TupleKey { w: 1, h: 2 },
            TupleKey { w: 2, h: 1 },
            TupleKey { w: 2, h: 2 },
        );
        let table = SolTable::new(2, 1);
        let mut out = table.writer(0);
        // No `{1,1}` run: the gate candidate leads as a run of its own;
        // the first run's range skips `staged[2]`.
        let shapes = [(k12, 0, 2), (k22, 3, 1)];
        let loc = out.runs_with_unit(&table, &shapes, &staged, &arena, cand(99));
        let exports = out.exports(&table, &loc);
        assert_eq!(
            listing(exports),
            [(TupleKey::UNIT, 99), (k12, 1), (k12, 2), (k22, 4)]
        );
        assert_eq!(exports.len(), 3);
        out.set(&table, UId::from_index(0), header(loc));
        // An existing `{1,1}` run takes the gate candidate at its end.
        let shapes = [(TupleKey::UNIT, 0, 1), (k21, 1, 2)];
        let loc = out.runs_with_unit(&table, &shapes, &staged, &arena, cand(99));
        out.set(&table, UId::from_index(1), header(loc));
        let exports = table.node_exports(UId::from_index(1));
        assert_eq!(
            listing(exports),
            [
                (TupleKey::UNIT, 1),
                (TupleKey::UNIT, 99),
                (k21, 2),
                (k21, 3)
            ]
        );
        assert_eq!(exports[&TupleKey::UNIT].len(), 2);
        assert!(exports.get(&k12).is_none());
    }

    #[test]
    fn a_full_segment_is_sealed_and_earlier_exports_stay_put() {
        // More candidates per node than the first segment is sized for:
        // the writer opens larger segments as it goes, and every earlier
        // node still reads back what it exported.
        let per_node = SEGMENT_CANDS_PER_NODE + 2;
        let nodes = 2 * MIN_SEGMENT;
        let table = SolTable::new(nodes, 1);
        let mut out = table.writer(0);
        let runs = [ShapeRun {
            key: TupleKey::UNIT,
            start: 0,
            len: per_node as u32,
        }];
        for i in 0..nodes {
            let src: Vec<Cand> = (0..per_node)
                .map(|k| cand((i * per_node + k) as u32))
                .collect();
            let src = Exports {
                runs: &runs,
                cands: &src,
            };
            let loc = out.copy(&table, src, |mut c| {
                c.g.tx += 1;
                c
            });
            out.set(&table, UId::from_index(i), header(loc));
        }
        let mut segments = Vec::new();
        for i in 0..nodes {
            let (sol, exports) = table.node(UId::from_index(i));
            segments.push(sol.exports.segment());
            let txs: Vec<u32> = exports.flat().map(|(_, c)| c.g.tx).collect();
            let want: Vec<u32> = (0..per_node)
                .map(|k| (i * per_node + k) as u32 + 1)
                .collect();
            assert_eq!(txs, want);
        }
        segments.dedup();
        assert!(segments.len() >= 2, "{segments:?}");
        assert!(segments.windows(2).all(|w| w[0] < w[1]));
        // An owned copy reads back the same.
        let owned = table.copy_out(&[UId::from_index(7)]);
        assert_eq!(owned.candidates(), per_node);
        assert_eq!(
            listing(owned.exports(0)),
            listing(table.node_exports(UId::from_index(7)))
        );
    }

    #[test]
    #[should_panic(expected = "solved twice")]
    fn a_header_is_written_once() {
        let table = SolTable::new(1, 1);
        let mut out = table.writer(0);
        for _ in 0..2 {
            let loc = out.unit(&table, cand(1));
            out.set(&table, UId::from_index(0), header(loc));
        }
    }

    #[test]
    #[should_panic(expected = "not written by this writer")]
    fn exports_are_published_once() {
        // Publishing the same exports under a second node would write
        // their header cell twice: the writer refuses.
        let table = SolTable::new(2, 1);
        let mut out = table.writer(0);
        let loc = out.unit(&table, cand(1));
        out.set(&table, UId::from_index(0), header(loc));
        out.set(&table, UId::from_index(1), header(loc));
    }
}
