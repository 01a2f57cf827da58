//! 64-lane bit-parallel word simulation with per-node signatures.
//!
//! The netlist crate's [`SimBatch`] evaluates a network and reports
//! *output* words; equivalence sweeping needs the word value of **every
//! node** so that internal nodes of two networks can be paired by
//! signature before any SAT effort is spent. This module reuses
//! `SimBatch`'s semantics (same lane convention, same word operators via
//! [`eval_word`](soi_netlist::BinOp::eval_word)) and adds:
//!
//! * [`node_signatures`] — node-major signature vectors over a batch
//!   sequence,
//! * [`batches`] — the guided + random vector schedule: walking-one and
//!   walking-zero patterns (which include the all-zeros and all-ones
//!   corners as lane 0) followed by seeded random batches,
//! * [`lane_assignment`] — extracting the scalar input vector a given
//!   lane holds, for counterexample replay through
//!   [`Network::simulate`],
//! * `LaneSim` — one-word simulation memoized per node, evaluated
//!   lazily over the fanin cones the equivalence sweep asks about, for
//!   the counterexample lanes it feeds back between queries.
//!
//! The differential oracle in `tests/cec_oracle.rs` checks every lane of
//! every signature against scalar simulation.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use soi_netlist::sim::SimBatch;
use soi_netlist::{Network, NetworkError, Node, NodeId};

/// The guided + random batch schedule for `inputs` primary inputs.
///
/// Guided batches come first: walking-one over a zero background (lane 0
/// is the all-zeros corner, lane `k` raises input `base + k - 1`) and
/// walking-zero over a ones background (lane 0 is the all-ones corner),
/// enough of each to walk every input once. `rounds` seeded random
/// batches follow.
pub fn batches(inputs: usize, rounds: usize, seed: u64) -> Vec<SimBatch> {
    let mut out = Vec::new();
    let walks = (inputs + 1).div_ceil(63).max(1);
    for invert in [false, true] {
        for w in 0..walks {
            let base = w * 63;
            let words = (0..inputs)
                .map(|i| {
                    // Lane k (k >= 1) flips input `base + k - 1`; lane 0
                    // is the unperturbed background.
                    let flip = if i >= base && i < base + 63 {
                        1u64 << (i - base + 1)
                    } else {
                        0
                    };
                    if invert {
                        !flip
                    } else {
                        flip
                    }
                })
                .collect();
            out.push(SimBatch::new(words));
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..rounds {
        out.push(SimBatch::random(inputs, &mut rng));
    }
    out
}

/// Evaluates the network on every batch and returns the node-major
/// signature array: node `n`'s word for batch `r` is
/// `sigs[n * batches.len() + r]`.
///
/// The loop is node-outer, so each node reads its fanins' signatures and
/// writes its own as contiguous runs of `batches.len()` words.
///
/// # Errors
///
/// Returns [`NetworkError::InputArity`] if any batch width does not match
/// the network's primary-input count.
pub fn node_signatures(network: &Network, batches: &[SimBatch]) -> Result<Vec<u64>, NetworkError> {
    if let Some(batch) = batches
        .iter()
        .find(|b| b.words().len() != network.inputs().len())
    {
        return Err(NetworkError::InputArity {
            expected: network.inputs().len(),
            got: batch.words().len(),
        });
    }
    let rounds = batches.len();
    let mut sigs = vec![0u64; network.len() * rounds];
    let mut next_input = 0;
    for (id, node) in network.iter() {
        let (done, rest) = sigs.split_at_mut(id.index() * rounds);
        let out = &mut rest[..rounds];
        let sig = |n: NodeId| &done[n.index() * rounds..(n.index() + 1) * rounds];
        match node {
            Node::Input { .. } => {
                for (w, batch) in out.iter_mut().zip(batches) {
                    *w = batch.words()[next_input];
                }
                next_input += 1;
            }
            Node::Const { value } => out.fill(if *value { u64::MAX } else { 0 }),
            Node::Unary { op, a } => {
                for (w, &x) in out.iter_mut().zip(sig(*a)) {
                    *w = op.eval_word(x);
                }
            }
            Node::Binary { op, a, b } => {
                for ((w, &x), &y) in out.iter_mut().zip(sig(*a)).zip(sig(*b)) {
                    *w = op.eval_word(x, y);
                }
            }
        }
    }
    Ok(sigs)
}

/// One-word simulation of a network, memoized per node.
///
/// [`LaneSim::word`] evaluates a node together with whatever part of its
/// fanin cone has not been evaluated since the last
/// [`LaneSim::invalidate`], so a caller that changes the input words
/// often but asks about few nodes pays for those nodes' cones only.
#[derive(Debug)]
pub(crate) struct LaneSim {
    /// Input position of each primary-input node, counted in node order
    /// like every other simulator here (`u32::MAX` elsewhere).
    input_pos: Vec<u32>,
    words: Vec<u64>,
    /// Epoch each entry of `words` was computed in.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl LaneSim {
    pub(crate) fn new(network: &Network) -> LaneSim {
        let mut input_pos = vec![u32::MAX; network.len()];
        let mut next_input = 0;
        for (id, node) in network.iter() {
            if node.is_input() {
                input_pos[id.index()] = next_input;
                next_input += 1;
            }
        }
        LaneSim {
            input_pos,
            words: vec![0; network.len()],
            stamp: vec![0; network.len()],
            epoch: 1,
            stack: Vec::new(),
        }
    }

    /// Forgets every memoized word; call after changing the input words.
    pub(crate) fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: every stale stamp could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn eval(&self, node: &Node, id: NodeId, inputs: &[u64]) -> u64 {
        match node {
            Node::Input { .. } => inputs[self.input_pos[id.index()] as usize],
            Node::Const { value } => {
                if *value {
                    u64::MAX
                } else {
                    0
                }
            }
            Node::Unary { op, a } => op.eval_word(self.words[a.index()]),
            Node::Binary { op, a, b } => op.eval_word(self.words[a.index()], self.words[b.index()]),
        }
    }

    /// The word of `root` under `inputs` (one word per primary input),
    /// evaluating the stale part of its fanin cone.
    pub(crate) fn word(&mut self, network: &Network, root: NodeId, inputs: &[u64]) -> u64 {
        self.stack.push(root);
        while let Some(&id) = self.stack.last() {
            if self.stamp[id.index()] == self.epoch {
                self.stack.pop();
                continue;
            }
            let node = network.node(id);
            let depth = self.stack.len();
            for f in node.fanins() {
                if self.stamp[f.index()] != self.epoch {
                    self.stack.push(f);
                }
            }
            if self.stack.len() == depth {
                self.words[id.index()] = self.eval(node, id, inputs);
                self.stamp[id.index()] = self.epoch;
                self.stack.pop();
            }
        }
        self.words[root.index()]
    }
}

/// The scalar input assignment held by one lane of one batch.
pub fn lane_assignment(batch: &SimBatch, lane: u32) -> Vec<bool> {
    batch.words().iter().map(|w| w >> lane & 1 == 1).collect()
}

/// A node signature canonicalized for complement-aware pairing: if the
/// first sampled bit is 1 the whole signature is complemented, and the
/// flip is reported as `phase`. Two nodes are *candidate* equivalences
/// when their canonical signatures agree — equal up to `phase_a ^
/// phase_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonSig {
    /// FNV-1a hash of the canonical signature words.
    pub hash: u64,
    /// Whether the stored signature was complemented to canonicalize.
    pub phase: bool,
}

/// Canonicalizes the signature slice of one node.
pub fn canonicalize(sig: &[u64]) -> CanonSig {
    let phase = sig.first().is_some_and(|w| w & 1 == 1);
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for &w in sig {
        let w = if phase { !w } else { w };
        h ^= w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    CanonSig { hash: h, phase }
}

/// Whether two signatures are equal after adjusting for the given
/// relative phase — the collision-proof check behind a [`CanonSig`] hash
/// match.
pub fn sigs_equal(a: &[u64], b: &[u64], relative_phase: bool) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| x == if relative_phase { !y } else { y })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Network {
        let mut n = Network::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let y = n.nand2(x, c);
        n.add_output("y", y);
        n
    }

    #[test]
    fn signatures_match_scalar_simulation() {
        let n = sample();
        let bs = batches(3, 4, 42);
        let sigs = node_signatures(&n, &bs).unwrap();
        let rounds = bs.len();
        let out_node = n.outputs()[0].driver.index();
        for (r, batch) in bs.iter().enumerate() {
            for lane in 0..64 {
                let vals = lane_assignment(batch, lane);
                let expect = n.simulate(&vals).unwrap()[0];
                let got = sigs[out_node * rounds + r] >> lane & 1 == 1;
                assert_eq!(got, expect, "round {r} lane {lane}");
            }
        }
    }

    #[test]
    fn lane_sim_matches_signatures() {
        let n = sample();
        let bs = batches(3, 2, 7);
        let sigs = node_signatures(&n, &bs).unwrap();
        let rounds = bs.len();
        let mut lanes = LaneSim::new(&n);
        let out = n.outputs()[0].driver;
        for (r, batch) in bs.iter().enumerate() {
            lanes.invalidate();
            // The output's whole cone first; then every node, served from
            // the memo or evaluated on its own.
            assert_eq!(
                lanes.word(&n, out, batch.words()),
                sigs[out.index() * rounds + r]
            );
            for (id, _) in n.iter() {
                assert_eq!(
                    lanes.word(&n, id, batch.words()),
                    sigs[id.index() * rounds + r],
                    "node {id:?}"
                );
            }
        }
    }

    #[test]
    fn guided_batches_cover_corners_and_walks() {
        let bs = batches(5, 0, 0);
        assert_eq!(bs.len(), 2);
        // Walking-one: lane 0 all zeros, lane k sets input k-1.
        let zeros = lane_assignment(&bs[0], 0);
        assert!(zeros.iter().all(|&v| !v));
        for k in 1..=5 {
            let v = lane_assignment(&bs[0], k);
            assert_eq!(v.iter().filter(|&&x| x).count(), 1);
            assert!(v[k as usize - 1]);
        }
        // Walking-zero: lane 0 all ones.
        let ones = lane_assignment(&bs[1], 0);
        assert!(ones.iter().all(|&v| v));
        for k in 1..=5 {
            let v = lane_assignment(&bs[1], k);
            assert_eq!(v.iter().filter(|&&x| !x).count(), 1);
            assert!(!v[k as usize - 1]);
        }
    }

    #[test]
    fn wide_input_counts_get_more_walks() {
        let bs = batches(150, 0, 0);
        // ceil(151/63) = 3 walking batches per polarity.
        assert_eq!(bs.len(), 6);
        // Every input is walked exactly once across the walking-one set.
        for i in 0..150 {
            let mut raised = 0;
            for b in &bs[..3] {
                for lane in 1..64 {
                    let v = lane_assignment(b, lane);
                    if v[i] {
                        raised += 1;
                    }
                }
            }
            assert_eq!(raised, 1, "input {i}");
        }
    }

    #[test]
    fn canonicalization_pairs_complements() {
        let sig = [0b1011u64, 0xFF];
        let comp: Vec<u64> = sig.iter().map(|w| !w).collect();
        let ca = canonicalize(&sig);
        let cb = canonicalize(&comp);
        assert_eq!(ca.hash, cb.hash);
        assert_ne!(ca.phase, cb.phase);
        assert!(sigs_equal(&sig, &comp, true));
        assert!(sigs_equal(&sig, &sig, false));
        assert!(!sigs_equal(&sig, &comp, false));
    }

    #[test]
    fn arity_mismatch_is_typed() {
        let n = sample();
        let bs = batches(2, 1, 0);
        assert!(matches!(
            node_signatures(&n, &bs),
            Err(NetworkError::InputArity { .. })
        ));
    }
}
