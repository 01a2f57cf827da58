//! Per-run gate memo for the tuple DP.
//!
//! Real netlists are repetitive: adders, array multipliers and cipher
//! rounds instantiate the same few cells thousands of times, so the same
//! DP step — one gate over the same two fanin cost profiles — recurs all
//! over the netlist. A gate's solution is a pure function of
//!
//! 1. its kind (AND/OR) and whether both operands are one node;
//! 2. its fanout (it shapes the exported gate candidate);
//! 3. the exported candidate lists of its two fanins;
//! 4. the run's [`MapConfig`](crate::MapConfig) and algorithm — fixed for
//!    the memo's lifetime, which is one run.
//!
//! A [`NodeMemo`] keys entries on a 128-bit hash of items 1–3. Each fanin
//! contributes its memoized [`profile`]: a digest of its candidate list
//! with levels taken relative to the list's minimum level, plus that
//! minimum relative to the smaller of the two fanins' minima. Levels only
//! combine by `max`/`+1` and only compare inside the DP, so a uniform
//! shift of both fanins' levels shifts the solution's levels by the same
//! constant and changes nothing else — a gate reuses the solution of any
//! structurally equal gate anywhere in the netlist, at any depth (the
//! offset is re-added at rebind).
//!
//! On a hit, the DP deep-copies the cached solution and rewrites its
//! [`Form`] back-pointers from the capture gate and fanins to the new
//! ones — a memcpy instead of the candidate-combination loops. Memoized
//! runs are **bit-identical** to unmemoized runs, including budget
//! accounting: a hit charges the combination steps its entry originally
//! cost (see [`crate::dp::Budget::charge_many`]).
//!
//! The memo only pays on large repetitive netlists. A run builds one only
//! past [`MapConfig::cone_cache_min_gates`](crate::MapConfig::cone_cache_min_gates)
//! gates, and an adaptive bypass ([`NodeMemo::note_probe`]) latches it
//! off for the rest of the run when its hit rate falls below
//! [`BYPASS_FLOOR_PERMILLE`]. The memo is internally synchronized: the
//! workers of a parallel run probe and fill it concurrently.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use soi_netlist::fx::FxHashMap;
use soi_unate::{UId, UNode};

use crate::dp::SolTable;
use crate::tuple::{CandRef, ExportMap, Form, NodeSol};

/// Probe count between adaptive-bypass judgments. Each time the memo's
/// probe count crosses a multiple of this window, its hit rate is
/// compared against [`BYPASS_FLOOR_PERMILLE`]. The window is large enough
/// that small circuits (and every unit test) finish before the first
/// judgment, and small enough that a losing memo latches while most of
/// the run is still ahead.
pub(crate) const BYPASS_PROBE_WINDOW: u64 = 1024;

/// Adaptive-bypass floor, in hits per thousand probes. It sits between
/// the memo's hit rates on the huge corpus circuits where it loses
/// (`synth-control-120k`, ~800‰: replaying four gates in five still costs
/// more than it saves there) and where it wins (`synth-mult136`, ~989‰),
/// so the bypass cuts the former loose after two windows and leaves the
/// latter alone. A floor of 800‰ kept the memo live for 127k probes on
/// `synth-control-120k` and cost ~11% of its mapping time.
pub(crate) const BYPASS_FLOOR_PERMILLE: u64 = 900;

/// 128-bit memo key, as two independently seeded 64-bit hashes.
type MemoKey = [u64; 2];

/// A concurrent memo of solved gates, living for one mapping run.
#[derive(Default)]
pub(crate) struct NodeMemo {
    // Fx-hashed: keys are already well-mixed 128-bit digests, and the memo
    // probes once per gate.
    entries: Mutex<FxHashMap<MemoKey, Arc<NodeEntry>>>,
    /// Adaptive-bypass bookkeeping: probe and hit tallies, the hits of
    /// the first (warm-up) window, and the sticky latch.
    probes: AtomicU64,
    hits: AtomicU64,
    warmup_hits: AtomicU64,
    bypassed: AtomicBool,
}

impl NodeMemo {
    /// Whether the memo is still live (not latched off by the adaptive
    /// bypass). A bypassed memo is skipped entirely: no probe, no capture,
    /// no counter traffic — so the probe/hit/miss balance holds across the
    /// latch, and solutions stop computing profiles nobody reads.
    pub(crate) fn enabled(&self) -> bool {
        !self.bypassed.load(Ordering::Relaxed)
    }

    /// Computes the key for gate `node` from its fanout and its two
    /// fanins' profiles and looks it up. Returns the key (for a later
    /// [`insert`](NodeMemo::insert) on a miss), the gate's
    /// level-normalization base, and the matching entry, if any.
    pub(crate) fn probe(
        &self,
        node: UNode,
        fanout: u32,
        table: &SolTable,
    ) -> (MemoKey, u32, Option<Arc<NodeEntry>>) {
        let (kind, a, b) = operands(node);
        let base = table.get(a).profile.1.min(table.get(b).profile.1);
        let mut h1 = Mix(0x6e6f_6465_7469_6572); // two distinct seeds for
        let mut h2 = Mix(0x7265_6974_6564_6f6e); // the same word stream
        for h in [&mut h1, &mut h2] {
            h.word(kind << 40 | u64::from(fanout) << 8 | u64::from(a == b));
        }
        for f in [a, b] {
            let (digest, min) = table.get(f).profile;
            for h in [&mut h1, &mut h2] {
                h.word(digest);
                h.word(u64::from(min - base));
            }
        }
        let key = [h1.0, h2.0];
        let found = self.entries().get(&key).cloned();
        (key, base, found)
    }

    /// Stores a freshly captured entry. Two workers missing on the same
    /// key concurrently both capture (identical) entries; last write wins.
    pub(crate) fn insert(&self, key: MemoKey, entry: NodeEntry) {
        self.entries().insert(key, Arc::new(entry));
    }

    /// Tallies one probe outcome for the adaptive bypass, and at every
    /// [`BYPASS_PROBE_WINDOW`]-th probe compares the hit rate *since the
    /// first window closed* against [`BYPASS_FLOOR_PERMILLE`], latching the
    /// memo off when it underperforms. The first window is a warm-up
    /// grace: every memo starts cold, so the opening probes miss on even
    /// the most repetitive netlist, and judging them would latch exactly
    /// the runs the memo is about to win. The grace is not unconditional,
    /// though: a first window that cannot clear half the floor is hopeless
    /// — warming memos climb through mid rates, while low-repetition
    /// netlists sit far below — so that one case latches immediately.
    /// Returns `true` exactly once, on the probe that latched (the caller
    /// traces it). Relaxed ordering throughout: the tallies are
    /// statistics, and the latch is sticky — a worker reading it a moment
    /// late merely probes once more.
    pub(crate) fn note_probe(&self, hit: bool) -> bool {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let p = self.probes.fetch_add(1, Ordering::Relaxed) + 1;
        if !p.is_multiple_of(BYPASS_PROBE_WINDOW) {
            return false;
        }
        let h = self.hits.load(Ordering::Relaxed);
        if p == BYPASS_PROBE_WINDOW {
            if h * 2000 >= BYPASS_FLOOR_PERMILLE * BYPASS_PROBE_WINDOW {
                self.warmup_hits.store(h, Ordering::Relaxed);
                return false;
            }
        } else {
            let judged = (h - self.warmup_hits.load(Ordering::Relaxed)) * 1000;
            if judged >= BYPASS_FLOOR_PERMILLE * (p - BYPASS_PROBE_WINDOW) {
                return false;
            }
        }
        !self.bypassed.swap(true, Ordering::Relaxed)
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, FxHashMap<MemoKey, Arc<NodeEntry>>> {
        self.entries.lock().expect("memo poisoned")
    }
}

/// `(kind tag, first operand, second operand)` of a gate node.
fn operands(node: UNode) -> (u64, UId, UId) {
    match node {
        UNode::And(a, b) => (1, a, b),
        UNode::Or(a, b) => (2, a, b),
        UNode::Lit(_) => unreachable!("literal nodes are solved directly, never memoized"),
    }
}

/// Computes a node's memo profile: an order-sensitive digest of its full
/// exported candidate list with every level taken relative to the list's
/// minimum level, plus that minimum. The digest half is invariant under
/// uniform level shifts, so a probe compares two gates at different logic
/// depths by hashing `(digest, min - base)` per fanin instead of
/// re-walking every candidate.
pub(crate) fn profile(exported: &ExportMap) -> (u64, u32) {
    let mut min = u32::MAX;
    for (_, c) in exported.flat() {
        min = min.min(c.g.level).min(c.u.level);
    }
    let min = if min == u32::MAX { 0 } else { min };
    // This digest runs once per solved node of a memoized run — hot enough
    // that SipHash with one write per field shows up in the mapping
    // wall-clock. A chained multiply-xorshift over packed words is an
    // order-sensitive 64-bit mixer at a fraction of the cost; the result
    // only ever feeds the 128-bit memo keys.
    let mut h = Mix(0x517c_c1b7_2722_0994);
    for (key, c) in exported.flat() {
        h.word(u64::from(key.w) << 32 | u64::from(key.h));
        for cost in [c.g, c.u] {
            h.word(u64::from(cost.tx) << 32 | u64::from(cost.wtx));
            h.word(u64::from(cost.disch) << 32 | u64::from(cost.level - min));
        }
        h.word(u64::from(c.p_spine) << 32 | u64::from(c.p_branch));
        h.word(u64::from(c.par_b) << 1 | u64::from(c.touches_pi));
    }
    (h.0, min)
}

/// Chained multiply-xorshift accumulator (xor in, multiply by the golden
/// ratio, shift-mix): order-sensitive, and — doubled up into a 128-bit
/// key — collision-safe enough for memo keys.
struct Mix(u64);

impl Mix {
    #[inline]
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }
}

/// One memoized gate solution: everything needed to replay a gate's DP
/// step onto another gate with the same kind, fanout and fanin profiles.
pub(crate) struct NodeEntry {
    sol: NodeSol,
    /// Capture-time index of the gate itself (its exported gate candidate
    /// carries a `ChildGate(self)` back-pointer).
    old_self: u32,
    /// Capture-time fanin node indices, in operand order.
    fanins: (u32, u32),
    /// Whether the degradation fallback fired on this gate.
    degraded: bool,
    /// Combination steps the capture solve charged.
    pub(crate) steps: u64,
    /// Level-normalization base at capture.
    level_base: u32,
}

impl NodeEntry {
    /// Snapshots a just-solved gate.
    pub(crate) fn capture(
        id: UId,
        node: UNode,
        sol: &NodeSol,
        degraded: bool,
        steps: u64,
        level_base: u32,
    ) -> NodeEntry {
        let (_, a, b) = operands(node);
        NodeEntry {
            sol: sol.clone(),
            old_self: id.index() as u32,
            fanins: (a.index() as u32, b.index() as u32),
            degraded,
            steps,
            level_base,
        }
    }

    /// Deep-copies the cached solution onto gate `node`, translating the
    /// gate and fanin back-pointers and re-basing levels. Returns the
    /// solution and whether the capture gate had degraded.
    pub(crate) fn rebind(&self, id: UId, node: UNode, new_base: u32) -> (NodeSol, bool) {
        let (_, a, b) = operands(node);
        let translate = |old: UId| -> UId {
            let idx = old.index() as u32;
            if idx == self.old_self {
                id
            } else if idx == self.fanins.0 {
                a
            } else if idx == self.fanins.1 {
                b
            } else {
                unreachable!("gate back-pointer escapes the gate and its fanins")
            }
        };
        let rebind_ref = |r: CandRef| CandRef {
            node: translate(r.node),
            ..r
        };
        let rebind_form = |form: Form| match form {
            Form::Lit(_) => unreachable!("literal form on a gate node"),
            Form::ChildGate(g) => Form::ChildGate(translate(g)),
            Form::And { top, bottom } => Form::And {
                top: rebind_ref(top),
                bottom: rebind_ref(bottom),
            },
            Form::Or { a, b } => Form::Or {
                a: rebind_ref(a),
                b: rebind_ref(b),
            },
        };
        // Every stored level is >= level_base (levels never sink below the
        // smaller fanin minimum they combined from), so the shift stays in
        // range.
        let shift = |level: u32| level - self.level_base + new_base;
        let mut sol = self.sol.clone();
        for cand in sol.exported.cands_mut() {
            cand.form = rebind_form(cand.form);
            cand.g.level = shift(cand.g.level);
            cand.u.level = shift(cand.u.level);
        }
        if let Some(gate) = &mut sol.gate {
            gate.form = rebind_form(gate.form);
            gate.cost.level = shift(gate.cost.level);
        }
        // The profile digest is shift-invariant; only its min moves. An
        // empty candidate list keeps min 0 (see `profile`).
        if sol.exported.total_candidates() > 0 {
            sol.profile.1 = shift(sol.profile.1);
        }
        (sol, self.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `n` probe outcomes from `hit(i)`; returns how many latched.
    fn feed(memo: &NodeMemo, n: u64, hit: impl Fn(u64) -> bool) -> usize {
        (0..n).filter(|&i| memo.note_probe(hit(i))).count()
    }

    #[test]
    fn bypass_latches_a_hopeless_memo_at_the_first_window() {
        // A memo that can't clear even half the floor in its first window
        // gets no warm-up grace: runs that probe fewer times than the
        // window (every unit test) are never judged, but a hopeless memo
        // latches the moment the first window closes.
        let memo = NodeMemo::default();
        assert_eq!(feed(&memo, BYPASS_PROBE_WINDOW - 1, |_| false), 0);
        assert!(memo.enabled());
        // The window-closing probe sees 0‰ < 450‰ (= floor / 2) and
        // latches; the latch edge is reported exactly once.
        assert!(memo.note_probe(false));
        assert!(!memo.enabled());
        assert!(!memo.note_probe(false));
    }

    #[test]
    fn bypass_judges_a_middling_first_window_only_after_warmup() {
        // A 50% first window clears the floor/2 hopelessness check (500‰ ≥
        // 450‰) and becomes the warm-up baseline...
        let memo = NodeMemo::default();
        assert_eq!(feed(&memo, BYPASS_PROBE_WINDOW, |i| i % 2 == 0), 0);
        assert!(memo.enabled());
        // ...so a second, all-miss window is judged on its own (0‰ < 900‰)
        // and latches at the second boundary, not before.
        assert_eq!(feed(&memo, BYPASS_PROBE_WINDOW - 1, |_| false), 0);
        assert!(memo.note_probe(false));
        assert!(!memo.enabled());
    }

    #[test]
    fn bypass_forgives_a_cold_start_once_the_memo_warms_up() {
        // A cold-ish first window at floor/2 (450‰ survives the
        // hopelessness check), then a hot steady state: the cumulative rate
        // crosses the floor only much later, but the post-warm-up rate is
        // 1000‰ from the second window on, so the memo is never latched.
        let memo = NodeMemo::default();
        assert_eq!(feed(&memo, BYPASS_PROBE_WINDOW, |i| i % 20 < 9), 0);
        assert_eq!(feed(&memo, 4 * BYPASS_PROBE_WINDOW, |_| true), 0);
        assert!(memo.enabled());
    }

    #[test]
    fn bypass_floor_separates_the_observed_corpus_rates() {
        // The floor must sit strictly between the two observed huge-bucket
        // hit rates: control-style netlists (~800‰) latch, multiplier-style
        // netlists (~989‰) keep their memo.
        for (rate, latches) in [(800, true), (989, false)] {
            let memo = NodeMemo::default();
            let latched = feed(&memo, 3 * BYPASS_PROBE_WINDOW, |i| i % 1000 < rate);
            assert_eq!(latched == 1, latches, "{rate}‰");
        }
    }
}
