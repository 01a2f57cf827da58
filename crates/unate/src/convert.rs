//! The bubble-pushing conversion itself.
//!
//! This pass visits every `(node, phase)` pair of a 100k-gate network, so
//! its bookkeeping is deliberately cheap: the per-pair memo and the
//! literal cache are dense `Vec`s indexed by `node.index() * 2 + phase`
//! (the keyspace is contiguous by construction — no hashing at all), and
//! only the structural-hash table, whose `(op, lo, hi)` keyspace is
//! sparse, pays for a map — with the Fx hasher, not SipHash. The memo
//! holds one `u32` per pair and becomes the returned network's image
//! table ([`UnateNetwork::image`]).

use soi_netlist::fx::FxHashMap;
use soi_netlist::{BinOp, Network, Node, NodeId, UnOp};

use crate::network::{decode_image, encode_image, UNBUILT};
use crate::{Literal, Phase, UId, USignal, UnateError, UnateNetwork};

/// How to choose the phase implemented for each primary output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputPhase {
    /// Always build the positive phase (no boundary inverters). This is the
    /// paper's simple bubble-pushing scheme.
    #[default]
    Positive,
    /// For each output, build whichever phase creates fewer new nodes given
    /// what has already been built (a light-weight nod to the output-phase
    /// assignment of Puri et al., ICCAD'96). Boundary inverters are recorded
    /// on the outputs.
    Cheapest,
}

/// Conversion options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Options {
    /// Output phase policy.
    pub output_phase: OutputPhase,
}

/// Converts an arbitrary logic network into an inverter-free unate network
/// of 2-input AND/OR gates by pushing inverters to the primary inputs.
///
/// XOR/XNOR gates are decomposed into their AND/OR forms (which requires
/// both phases of their fanins); NAND/NOR push the bubble through via
/// De Morgan. Logic needed in both phases is duplicated, memoized per
/// `(node, phase)` so each original node expands to at most two unate nodes.
/// Constants are folded away. The returned network keeps that memo as its
/// image table ([`UnateNetwork::image`]).
///
/// # Errors
///
/// Returns [`UnateError::InvalidNetwork`] if `network` fails validation.
///
/// # Example
///
/// ```rust
/// use soi_netlist::Network;
/// use soi_unate::{convert, Options};
///
/// # fn main() -> Result<(), soi_unate::UnateError> {
/// let mut n = Network::new("t");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let x = n.xor2(a, b);
/// n.add_output("x", x);
/// let u = convert(&n, &Options::default())?;
/// // xor = a*b' + a'*b: 2 ANDs and 1 OR over 4 literals.
/// assert_eq!(u.stats().gates(), 3);
/// # Ok(())
/// # }
/// ```
pub fn convert(network: &Network, options: &Options) -> Result<UnateNetwork, UnateError> {
    let mut builder = Builder::new(network)?;
    for port in network.outputs() {
        let (signal, inverted) = match options.output_phase {
            OutputPhase::Positive => (builder.build(port.driver, Phase::Pos), false),
            OutputPhase::Cheapest => {
                let pos_cost = builder.estimate(port.driver, Phase::Pos);
                let neg_cost = builder.estimate(port.driver, Phase::Neg);
                if neg_cost < pos_cost {
                    (builder.build(port.driver, Phase::Neg), true)
                } else {
                    (builder.build(port.driver, Phase::Pos), false)
                }
            }
        };
        builder.out.add_output(port.name.clone(), signal, inverted);
    }
    Ok(builder.finish())
}

/// Converts with output `o` built in the phase `phase(o)` — `Phase::Neg`
/// builds the output's complement behind a boundary inverter.
///
/// Given the phases a [`convert`] run recorded on its outputs (under
/// either [`OutputPhase`] policy), this reproduces that run's network node
/// for node, because the choice of phase is the policies' only influence
/// on what gets built.
///
/// # Errors
///
/// Returns [`UnateError::InvalidNetwork`] if `network` fails validation.
pub fn convert_in_phases(
    network: &Network,
    mut phase: impl FnMut(usize) -> Phase,
) -> Result<UnateNetwork, UnateError> {
    let mut builder = Builder::new(network)?;
    for (o, port) in network.outputs().iter().enumerate() {
        let phase = phase(o);
        let signal = builder.build(port.driver, phase);
        builder
            .out
            .add_output(port.name.clone(), signal, phase == Phase::Neg);
    }
    Ok(builder.finish())
}

/// Dense slot for a `(node, phase)` pair: two slots per node.
#[inline]
fn slot(node: NodeId, phase: Phase) -> usize {
    node.index() * 2 + usize::from(phase == Phase::Neg)
}

struct Builder<'a> {
    network: &'a Network,
    /// Input position per node index (`usize::MAX` for non-inputs).
    input_pos: Vec<usize>,
    out: UnateNetwork,
    /// `(original node, requested phase)` → produced signal, dense by
    /// [`slot`] and encoded by [`encode_image`]: the image table.
    memo: Vec<u32>,
    /// Structural hashing of produced gates (sparse keyspace).
    hash: FxHashMap<(bool, UId, UId), UId>,
    /// Produced literal per `input * 2 + phase`.
    lit_cache: Vec<Option<UId>>,
    /// One bit per [`slot`]: visited by the running `estimate` (clear
    /// between calls; allocated on first use).
    seen: Vec<u64>,
    /// [`Builder::build`]'s stack of parent frames, kept between calls.
    frames: Vec<Frame>,
}

/// A pair being built: its [`slot`], the slots of the operands it reads
/// in build order, how its signal follows from theirs, and how many
/// operands have been visited.
#[derive(Clone, Copy)]
struct Frame {
    slot: u32,
    operands: [u32; 4],
    kind: Kind,
    len: u8,
    next: u8,
}

/// How a frame's signal follows from its operands'.
#[derive(Clone, Copy)]
enum Kind {
    /// An input literal or a constant: no operands.
    Leaf,
    /// A buffer or inverter: its one operand's signal.
    Wire,
    /// A 2-input AND or OR of the two operands.
    Gate { and: bool },
    /// XOR/XNOR over `a⁺ a⁻ b⁺ b⁻`, as an OR of two ANDs.
    Xor { odd: bool },
}

/// The phase a [`slot`] stands for.
fn phase_of(slot: u32) -> Phase {
    if slot % 2 == 1 {
        Phase::Neg
    } else {
        Phase::Pos
    }
}

impl<'a> Builder<'a> {
    fn new(network: &'a Network) -> Result<Builder<'a>, UnateError> {
        network
            .validate()
            .map_err(|source| UnateError::InvalidNetwork { source })?;
        let input_names: Vec<String> = network
            .inputs()
            .iter()
            .map(|id| match network.node(*id) {
                Node::Input { name } => name.clone(),
                _ => unreachable!("input list points at input nodes"),
            })
            .collect();
        // Dense input-position table: `NodeId`s are contiguous indices, so
        // a `Vec` lookup replaces a map probe per input literal.
        let mut input_pos = vec![usize::MAX; network.len()];
        for (i, id) in network.inputs().iter().enumerate() {
            input_pos[id.index()] = i;
        }
        Ok(Builder {
            network,
            input_pos,
            out: UnateNetwork::new(input_names),
            memo: vec![UNBUILT; network.len() * 2],
            // Sized for about one gate per source node, which is what
            // `synth-mult136` builds (365,298 from 366,383 nodes): growing
            // from empty would rehash every entry at each doubling.
            hash: FxHashMap::with_capacity_and_hasher(network.len(), Default::default()),
            lit_cache: vec![None; network.inputs().len() * 2],
            seen: Vec::new(),
            frames: Vec::new(),
        })
    }

    /// The converted network, keeping the memo as its image table.
    fn finish(self) -> UnateNetwork {
        let mut out = self.out;
        out.images = self.memo;
        out
    }

    /// The signal built for [`slot`] `s`, if any.
    #[inline(always)]
    fn built(&self, s: usize) -> Option<USignal> {
        decode_image(self.memo[s])
    }

    fn literal(&mut self, literal: Literal) -> UId {
        let s = literal.input * 2 + usize::from(literal.phase == Phase::Neg);
        if let Some(id) = self.lit_cache[s] {
            return id;
        }
        let id = self.out.add_literal(literal);
        self.lit_cache[s] = Some(id);
        id
    }

    fn gate(&mut self, is_and: bool, a: USignal, b: USignal) -> USignal {
        match (a, b) {
            (USignal::Const(ca), USignal::Const(cb)) => {
                USignal::Const(if is_and { ca && cb } else { ca || cb })
            }
            (USignal::Const(c), USignal::Node(n)) | (USignal::Node(n), USignal::Const(c)) => {
                if is_and {
                    if c {
                        USignal::Node(n)
                    } else {
                        USignal::Const(false)
                    }
                } else if c {
                    USignal::Const(true)
                } else {
                    USignal::Node(n)
                }
            }
            (USignal::Node(na), USignal::Node(nb)) => {
                if na == nb {
                    return USignal::Node(na);
                }
                let (lo, hi) = if na <= nb { (na, nb) } else { (nb, na) };
                if let Some(&id) = self.hash.get(&(is_and, lo, hi)) {
                    return USignal::Node(id);
                }
                let id = if is_and {
                    self.out.add_and(lo, hi)
                } else {
                    self.out.add_or(lo, hi)
                };
                self.hash.insert((is_and, lo, hi), id);
                USignal::Node(id)
            }
        }
    }

    /// Builds `(node, phase)` and everything it needs, depth-first. The
    /// operands of a pair are built in the order the recursive definition
    /// names them — `a` before `b`, and for XOR/XNOR `a⁺ a⁻ b⁺ b⁻` — and
    /// a pair's own gates right after its operands. The certificate check
    /// re-converts and relies on that numbering.
    ///
    /// The walk keeps its own stack, so a netlist's depth never bounds the
    /// thread's: the frame being worked on lives in locals and its parents
    /// on `frames`. A frame holds only its operands' slots. An operand
    /// stays the current one until its signal is in the memo — a parent
    /// popped back looks at it again — and the signals are read back from
    /// the memo once all are built.
    fn build(&mut self, node: NodeId, phase: Phase) -> USignal {
        if let Some(sig) = self.built(slot(node, phase)) {
            return sig;
        }
        let mut parents = std::mem::take(&mut self.frames);
        let mut cur = self.frame(node, phase);
        let sig = loop {
            if cur.next < cur.len {
                let s = cur.operands[usize::from(cur.next)] as usize;
                if self.memo[s] != UNBUILT {
                    cur.next += 1;
                    continue;
                }
                let (mut node, mut phase) = (NodeId::from_index(s / 2), phase_of(s as u32));
                // A buffer or inverter builds nothing: it takes its
                // operand's signal, so the walk goes straight on to that
                // operand and copies the signal once it is built.
                if let Node::Unary { op, a } = self.network.node(node) {
                    if *op == UnOp::Inv {
                        phase = phase.flipped();
                    }
                    node = *a;
                    let image = self.memo[slot(node, phase)];
                    if image != UNBUILT {
                        self.memo[s] = image;
                        cur.next += 1;
                        continue;
                    }
                }
                parents.push(cur);
                cur = self.frame(node, phase);
                continue;
            }
            let sig = self.assemble(&cur);
            self.memo[cur.slot as usize] = encode_image(sig);
            match parents.pop() {
                Some(parent) => cur = parent,
                None => break sig,
            }
        };
        self.frames = parents;
        sig
    }

    /// A frame for `(node, phase)`, before any operand is visited.
    // Inlined by force, as is `assemble`: left to the compiler, neither
    // is, and converting `synth-mult136` then takes about 40 % longer.
    #[inline(always)]
    fn frame(&self, node: NodeId, phase: Phase) -> Frame {
        let mut frame = Frame {
            slot: slot(node, phase) as u32,
            operands: [0; 4],
            kind: Kind::Leaf,
            len: 0,
            next: 0,
        };
        let mut push = |n: NodeId, p: Phase| {
            frame.operands[usize::from(frame.len)] = slot(n, p) as u32;
            frame.len += 1;
        };
        let kind = match self.network.node(node) {
            Node::Input { .. } | Node::Const { .. } => Kind::Leaf,
            Node::Unary { op, a } => {
                push(
                    *a,
                    match op {
                        UnOp::Buf => phase,
                        UnOp::Inv => phase.flipped(),
                    },
                );
                Kind::Wire
            }
            Node::Binary { op, a, b } => {
                let (and, p) = match (op, phase) {
                    // xor = a*b' + a'*b ; xnor = a*b + a'*b'
                    (BinOp::Xor | BinOp::Xnor, _) => {
                        for (n, p) in [
                            (a, Phase::Pos),
                            (a, Phase::Neg),
                            (b, Phase::Pos),
                            (b, Phase::Neg),
                        ] {
                            push(*n, p);
                        }
                        let odd = matches!(
                            (op, phase),
                            (BinOp::Xor, Phase::Pos) | (BinOp::Xnor, Phase::Neg)
                        );
                        frame.kind = Kind::Xor { odd };
                        return frame;
                    }
                    (BinOp::And, Phase::Pos) | (BinOp::Nand, Phase::Neg) => (true, Phase::Pos),
                    // De Morgan: !(a & b) = !a | !b
                    (BinOp::And, Phase::Neg) | (BinOp::Nand, Phase::Pos) => (false, Phase::Neg),
                    (BinOp::Or, Phase::Pos) | (BinOp::Nor, Phase::Neg) => (false, Phase::Pos),
                    // De Morgan: !(a | b) = !a & !b
                    (BinOp::Or, Phase::Neg) | (BinOp::Nor, Phase::Pos) => (true, Phase::Neg),
                };
                push(*a, p);
                push(*b, p);
                Kind::Gate { and }
            }
        };
        frame.kind = kind;
        frame
    }

    /// The signal of a frame whose operands are all built.
    #[inline(always)]
    fn assemble(&mut self, frame: &Frame) -> USignal {
        let built = |b: &Self, i: usize| {
            b.built(frame.operands[i] as usize)
                .expect("operands are built before their pair")
        };
        match frame.kind {
            Kind::Leaf => {
                let node = frame.slot as usize / 2;
                let phase = phase_of(frame.slot);
                match self.network.node(NodeId::from_index(node)) {
                    Node::Const { value } => USignal::Const(phase.apply(*value)),
                    _ => {
                        let input = self.input_pos[node];
                        USignal::Node(self.literal(Literal { input, phase }))
                    }
                }
            }
            Kind::Wire => built(self, 0),
            Kind::Gate { and } => {
                let (x, y) = (built(self, 0), built(self, 1));
                self.gate(and, x, y)
            }
            // xor = a*b' + a'*b ; xnor = a*b + a'*b'
            Kind::Xor { odd } => {
                let [ap, an, bp, bn] = [0, 1, 2, 3].map(|i| built(self, i));
                let (t1, t2) = if odd {
                    (self.gate(true, ap, bn), self.gate(true, an, bp))
                } else {
                    (self.gate(true, ap, bp), self.gate(true, an, bn))
                };
                self.gate(false, t1, t2)
            }
        }
    }

    /// Counts how many *new* unate nodes building `(node, phase)` would
    /// create, given the current memo state. Used by
    /// [`OutputPhase::Cheapest`].
    ///
    /// Every pair reachable from `(node, phase)` through pairs not yet
    /// built counts once, whatever the visiting order, so the walk is an
    /// explicit-stack DFS over a dense visited bit per slot; the bits it
    /// sets are cleared again before it returns.
    fn estimate(&mut self, node: NodeId, phase: Phase) -> usize {
        if self.seen.is_empty() {
            self.seen = vec![0; self.memo.len().div_ceil(64)];
        }
        let mut total = 0;
        let mut touched = Vec::new();
        let mut stack = vec![(node, phase)];
        while let Some((node, phase)) = stack.pop() {
            let s = slot(node, phase);
            if self.memo[s] != UNBUILT || self.seen[s / 64] >> (s % 64) & 1 == 1 {
                continue;
            }
            self.seen[s / 64] |= 1 << (s % 64);
            touched.push(s);
            let frame = self.frame(node, phase);
            total += match frame.kind {
                Kind::Leaf => usize::from(matches!(self.network.node(node), Node::Input { .. })),
                Kind::Wire => 0,
                Kind::Gate { .. } => 1,
                Kind::Xor { .. } => 3,
            };
            stack.extend(
                frame.operands[..usize::from(frame.len)]
                    .iter()
                    .map(|&s| (NodeId::from_index(s as usize / 2), phase_of(s))),
            );
        }
        for s in touched {
            self.seen[s / 64] &= !(1 << (s % 64));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNode;
    use soi_netlist::sim;

    fn check(n: &Network) -> UnateNetwork {
        let u = convert(n, &Options::default()).unwrap();
        assert!(u.is_inverter_free());
        assert!(sim::exhaustive_equivalent(n, &u.to_network()).unwrap());
        u
    }

    #[test]
    fn passthrough_and_or() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.and2(a, b);
        let g2 = n.or2(g1, c);
        n.add_output("f", g2);
        let u = check(&n);
        assert_eq!(u.stats().gates(), 2);
        // No negative literals needed.
        assert!(u
            .iter()
            .all(|(_, node)| !matches!(node, UNode::Lit(l) if l.phase == Phase::Neg)));
    }

    #[test]
    fn nand_pushes_bubble() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.nand2(a, b);
        n.add_output("f", g);
        let u = check(&n);
        // nand(a,b) = a' + b': one OR over two negative literals.
        let s = u.stats();
        assert_eq!(s.or_gates, 1);
        assert_eq!(s.and_gates, 0);
        assert_eq!(s.literals, 2);
    }

    #[test]
    fn xor_duplicates_both_phases() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.xor2(a, b);
        n.add_output("f", g);
        let u = check(&n);
        let s = u.stats();
        assert_eq!(s.and_gates, 2);
        assert_eq!(s.or_gates, 1);
        assert_eq!(s.literals, 4);
    }

    #[test]
    fn double_inversion_cancels() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.and2(a, b);
        let i1 = n.inv(g);
        let i2 = n.inv(i1);
        n.add_output("f", i2);
        let u = check(&n);
        assert_eq!(u.stats().gates(), 1);
    }

    #[test]
    fn shared_phase_logic_is_memoized() {
        // Two outputs requiring the same negative cone reuse it.
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.and2(a, b);
        let ng = n.inv(g);
        let f1 = n.or2(ng, c);
        let f2 = n.and2(ng, c);
        n.add_output("f1", f1);
        n.add_output("f2", f2);
        let u = check(&n);
        // negative cone of g built once: or(a', b').
        assert_eq!(u.stats().or_gates, 2); // a'+b' and (a'+b')+c
    }

    #[test]
    fn constants_fold() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let one = n.add_const(true);
        let g = n.and2(a, one);
        let ng = n.inv(g);
        n.add_output("f", ng);
        let u = check(&n);
        // f = a' — a single literal, no gates.
        assert_eq!(u.stats().gates(), 0);
        assert_eq!(u.stats().literals, 1);
    }

    #[test]
    fn constant_output_folds_fully() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let na = n.inv(a);
        let g = n.and2(a, na);
        n.add_output("zero", g);
        let u = convert(&n, &Options::default()).unwrap();
        // a & a' is not folded by phase-pushing alone (it becomes a*a'
        // literal AND), but the network still evaluates correctly.
        assert!(sim::exhaustive_equivalent(&n, &u.to_network()).unwrap());
    }

    #[test]
    fn cheapest_phase_uses_inverted_output() {
        // f = !(a & b & c & d): positive phase needs OR of 4 negative
        // literals (3 gates); negative phase is the AND cone (3 gates) —
        // a tie. g = !(a&b) | !(c&d) style asymmetries favour Cheapest.
        let mut n = Network::new("t");
        let inputs: Vec<_> = (0..4).map(|i| n.add_input(format!("i{i}"))).collect();
        let t1 = n.and2(inputs[0], inputs[1]);
        let t2 = n.and2(t1, inputs[2]);
        let t3 = n.and2(t2, inputs[3]);
        let f = n.inv(t3);
        n.add_output("f", f);
        // Also an output on the positive cone, built first.
        n.add_output("g", t3);

        let u = convert(
            &n,
            &Options {
                output_phase: OutputPhase::Cheapest,
            },
        )
        .unwrap();
        assert!(sim::exhaustive_equivalent(&n, &u.to_network()).unwrap());
        // With the positive AND cone already built for `g`, output `f`
        // should reuse it through a boundary inverter.
        assert!(u.outputs().iter().any(|o| o.inverted));
        assert_eq!(u.stats().gates(), 3);
    }

    #[test]
    fn positive_phase_never_inverts_outputs() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let na = n.inv(a);
        n.add_output("f", na);
        let u = check(&n);
        assert!(u.outputs().iter().all(|o| !o.inverted));
    }

    /// Re-converting in the phases a run recorded reproduces that run's
    /// network node for node under both policies, and every output's
    /// image is the signal the output binds.
    #[test]
    fn recorded_phases_reproduce_the_conversion() {
        let mut n = Network::new("t");
        let inputs: Vec<_> = (0..4).map(|i| n.add_input(format!("i{i}"))).collect();
        let t1 = n.and2(inputs[0], inputs[1]);
        let t2 = n.xor2(t1, inputs[2]);
        let t3 = n.nor2(t2, inputs[3]);
        let f = n.inv(t3);
        n.add_output("f", f);
        n.add_output("g", t3);
        n.add_output("h", t1);
        for output_phase in [OutputPhase::Positive, OutputPhase::Cheapest] {
            let u = convert(&n, &Options { output_phase }).unwrap();
            let again = convert_in_phases(&n, |o| {
                if u.outputs()[o].inverted {
                    Phase::Neg
                } else {
                    Phase::Pos
                }
            })
            .unwrap();
            assert_eq!(again, u, "{output_phase:?}");
            for (port, out) in n.outputs().iter().zip(u.outputs()) {
                let phase = if out.inverted { Phase::Neg } else { Phase::Pos };
                assert_eq!(u.image(port.driver, phase), Some(out.signal));
            }
            // An inverter builds no node: its image is its fanin's in the
            // other phase.
            assert_eq!(u.image(f, Phase::Pos), u.image(t3, Phase::Neg));
        }
    }

    /// The image table answers a folded constant, a node, and `None` for
    /// a pair never built or a node outside the source; a network built
    /// by hand answers `None` for every pair.
    #[test]
    fn images_record_constants_nodes_and_unbuilt_pairs() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let one = n.add_const(true);
        let g = n.and2(a, one);
        let ng = n.inv(g);
        n.add_output("f", ng);
        let u = check(&n);
        // f = !(a * 1) = a' + 0: the only node is the literal a'.
        let a_neg = Some(USignal::Node(UId::from_index(0)));
        assert_eq!(u.image(one, Phase::Neg), Some(USignal::Const(false)));
        assert_eq!(u.image(a, Phase::Neg), a_neg);
        assert_eq!(u.image(g, Phase::Neg), a_neg);
        assert_eq!(u.image(ng, Phase::Pos), a_neg);
        for (node, phase) in [(one, Phase::Pos), (a, Phase::Pos), (ng, Phase::Neg)] {
            assert_eq!(u.image(node, phase), None, "{node:?} {phase:?}");
        }
        assert_eq!(u.image(NodeId::from_index(n.len()), Phase::Pos), None);
        let by_hand = UnateNetwork::new(vec!["a".into()]);
        assert_eq!(by_hand.image(a, Phase::Pos), None);
    }

    #[test]
    fn big_random_network_roundtrips() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut n = Network::new("rnd");
        let mut pool: Vec<NodeId> = (0..8).map(|i| n.add_input(format!("i{i}"))).collect();
        for _ in 0..200 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let id = match rng.gen_range(0..7) {
                0 => n.and2(a, b),
                1 => n.or2(a, b),
                2 => n.nand2(a, b),
                3 => n.nor2(a, b),
                4 => n.xor2(a, b),
                5 => n.xnor2(a, b),
                _ => n.inv(a),
            };
            pool.push(id);
        }
        for k in 0..6 {
            let driver = pool[pool.len() - 1 - k * 7];
            n.add_output(format!("o{k}"), driver);
        }
        check(&n);
    }

    /// The recursion `build` replaced, as the reference for its order:
    /// each pair's operands first, in the order the definition names
    /// them, then the pair's own gates.
    fn build_ref(b: &mut Builder<'_>, node: NodeId, phase: Phase) -> USignal {
        if let Some(sig) = b.built(slot(node, phase)) {
            return sig;
        }
        let network = b.network;
        let sig = match network.node(node) {
            Node::Input { .. } => {
                let input = b.input_pos[node.index()];
                USignal::Node(b.literal(Literal { input, phase }))
            }
            Node::Const { value } => USignal::Const(phase.apply(*value)),
            Node::Unary { op: UnOp::Buf, a } => build_ref(b, *a, phase),
            Node::Unary { op: UnOp::Inv, a } => build_ref(b, *a, phase.flipped()),
            Node::Binary { op, a, b: c } => {
                let (a, c) = (*a, *c);
                let (pos, neg) = (Phase::Pos, Phase::Neg);
                match (op, phase) {
                    (BinOp::Xor | BinOp::Xnor, _) => {
                        let odd = matches!(
                            (op, phase),
                            (BinOp::Xor, Phase::Pos) | (BinOp::Xnor, Phase::Neg)
                        );
                        let ap = build_ref(b, a, pos);
                        let an = build_ref(b, a, neg);
                        let bp = build_ref(b, c, pos);
                        let bn = build_ref(b, c, neg);
                        let (t1, t2) = if odd {
                            (b.gate(true, ap, bn), b.gate(true, an, bp))
                        } else {
                            (b.gate(true, ap, bp), b.gate(true, an, bn))
                        };
                        b.gate(false, t1, t2)
                    }
                    (BinOp::And, Phase::Pos) | (BinOp::Nand, Phase::Neg) => {
                        let (x, y) = (build_ref(b, a, pos), build_ref(b, c, pos));
                        b.gate(true, x, y)
                    }
                    (BinOp::And, Phase::Neg) | (BinOp::Nand, Phase::Pos) => {
                        let (x, y) = (build_ref(b, a, neg), build_ref(b, c, neg));
                        b.gate(false, x, y)
                    }
                    (BinOp::Or, Phase::Pos) | (BinOp::Nor, Phase::Neg) => {
                        let (x, y) = (build_ref(b, a, pos), build_ref(b, c, pos));
                        b.gate(false, x, y)
                    }
                    (BinOp::Or, Phase::Neg) | (BinOp::Nor, Phase::Pos) => {
                        let (x, y) = (build_ref(b, a, neg), build_ref(b, c, neg));
                        b.gate(true, x, y)
                    }
                }
            }
        };
        b.memo[slot(node, phase)] = encode_image(sig);
        sig
    }

    /// The explicit stack builds in recursion's order: converting a
    /// random network with every gate kind yields the same network, node
    /// for node, as the recursive walk it replaced.
    #[test]
    fn the_explicit_stack_builds_in_recursion_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut n = Network::new("rnd");
        let mut pool: Vec<NodeId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        for _ in 0..400 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let id = match rng.gen_range(0..8) {
                0 => n.and2(a, b),
                1 => n.or2(a, b),
                2 => n.nand2(a, b),
                3 => n.nor2(a, b),
                4 => n.xor2(a, b),
                5 => n.xnor2(a, b),
                6 => n.buf(a),
                _ => n.inv(a),
            };
            pool.push(id);
        }
        for k in 0..8 {
            n.add_output(format!("o{k}"), pool[pool.len() - 1 - k * 11]);
        }
        let build_all = |recursive: bool| {
            let mut builder = Builder::new(&n).unwrap();
            for (o, port) in n.outputs().iter().enumerate() {
                let phase = if o % 2 == 0 { Phase::Pos } else { Phase::Neg };
                let signal = if recursive {
                    build_ref(&mut builder, port.driver, phase)
                } else {
                    builder.build(port.driver, phase)
                };
                builder
                    .out
                    .add_output(port.name.clone(), signal, phase == Phase::Neg);
            }
            builder.finish()
        };
        let recursive = build_all(true);
        assert!(recursive.stats().gates() > 100);
        assert_eq!(build_all(false), recursive);
    }

    /// The walk `estimate` replaced, as the reference: one recursive
    /// visit per pair not yet built, each counted once.
    fn estimate_ref(b: &Builder<'_>, node: NodeId, phase: Phase, seen: &mut Vec<bool>) -> usize {
        let s = slot(node, phase);
        if b.memo[s] != UNBUILT || seen[s] {
            return 0;
        }
        seen[s] = true;
        let mut rec = |n: NodeId, p: Phase| estimate_ref(b, n, p, seen);
        match b.network.node(node) {
            Node::Input { .. } => 1,
            Node::Const { .. } => 0,
            Node::Unary { op: UnOp::Buf, a } => rec(*a, phase),
            Node::Unary { op: UnOp::Inv, a } => rec(*a, phase.flipped()),
            Node::Binary { op, a, b: c } => match (op, phase) {
                (BinOp::Xor | BinOp::Xnor, _) => {
                    3 + rec(*a, Phase::Pos)
                        + rec(*a, Phase::Neg)
                        + rec(*c, Phase::Pos)
                        + rec(*c, Phase::Neg)
                }
                (BinOp::And | BinOp::Or, Phase::Pos) | (BinOp::Nand | BinOp::Nor, Phase::Neg) => {
                    1 + rec(*a, Phase::Pos) + rec(*c, Phase::Pos)
                }
                _ => 1 + rec(*a, Phase::Neg) + rec(*c, Phase::Neg),
            },
        }
    }

    /// The iterative estimate counts what the recursive one did, for
    /// every pair of a random network, before and after part of it is
    /// built — and leaves no visited bit behind.
    #[test]
    fn estimate_matches_the_recursive_count() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let mut n = Network::new("rnd");
        let mut pool: Vec<NodeId> = (0..5).map(|i| n.add_input(format!("i{i}"))).collect();
        for _ in 0..150 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let id = match rng.gen_range(0..7) {
                0 => n.and2(a, b),
                1 => n.or2(a, b),
                2 => n.nand2(a, b),
                3 => n.nor2(a, b),
                4 => n.xor2(a, b),
                5 => n.xnor2(a, b),
                _ => n.inv(a),
            };
            pool.push(id);
        }
        let mut builder = Builder::new(&n).unwrap();
        for round in 0..2 {
            for (id, _) in n.iter() {
                for phase in [Phase::Pos, Phase::Neg] {
                    let mut seen = vec![false; builder.memo.len()];
                    let want = estimate_ref(&builder, id, phase, &mut seen);
                    assert_eq!(
                        builder.estimate(id, phase),
                        want,
                        "round {round} {id:?} {phase:?}"
                    );
                }
            }
            assert!(builder.seen.iter().all(|&w| w == 0));
            builder.build(pool[pool.len() - 1], Phase::Pos);
        }
    }
}
