//! The bubble-pushing conversion itself.
//!
//! This pass visits every `(node, phase)` pair of a 100k-gate network, so
//! its bookkeeping is deliberately cheap: the per-pair memo and the
//! literal cache are dense `Vec`s indexed by `node.index() * 2 + phase`
//! (the keyspace is contiguous by construction — no hashing at all), and
//! only the structural-hash table, whose `(op, lo, hi)` keyspace is
//! sparse, pays for a map — with the Fx hasher, not SipHash.

use soi_netlist::fx::FxHashMap;
use soi_netlist::{BinOp, Network, Node, NodeId, UnOp};

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
/// Constants are folded away.
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
                let pos_cost = builder.estimate(port.driver, Phase::Pos, &mut FxHashMap::default());
                let neg_cost = builder.estimate(port.driver, Phase::Neg, &mut FxHashMap::default());
                if neg_cost < pos_cost {
                    (builder.build(port.driver, Phase::Neg), true)
                } else {
                    (builder.build(port.driver, Phase::Pos), false)
                }
            }
        };
        builder.out.add_output(port.name.clone(), signal, inverted);
    }
    Ok(builder.out)
}

/// The `(source node, phase) → unate signal` table of one conversion:
/// the signal built for every pair the conversion visited, including
/// buffers and inverters (which build no node of their own).
#[derive(Debug, Clone)]
pub struct Images {
    /// Dense by [`slot`].
    slots: Vec<Option<USignal>>,
}

impl Images {
    /// The signal `node` was built as in `phase`, or `None` when the
    /// conversion never needed that pair.
    pub fn get(&self, node: NodeId, phase: Phase) -> Option<USignal> {
        self.slots.get(slot(node, phase)).copied().flatten()
    }
}

/// Converts with output `o` built in the phase `phase(o)` — `Phase::Neg`
/// builds the output's complement behind a boundary inverter — and returns
/// the image table along with the network.
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
) -> Result<(UnateNetwork, Images), UnateError> {
    let mut builder = Builder::new(network)?;
    for (o, port) in network.outputs().iter().enumerate() {
        let phase = phase(o);
        let signal = builder.build(port.driver, phase);
        builder
            .out
            .add_output(port.name.clone(), signal, phase == Phase::Neg);
    }
    let images = Images {
        slots: builder.memo,
    };
    Ok((builder.out, images))
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
    /// [`slot`].
    memo: Vec<Option<USignal>>,
    /// Structural hashing of produced gates (sparse keyspace).
    hash: FxHashMap<(bool, UId, UId), UId>,
    /// Produced literal per `input * 2 + phase`.
    lit_cache: Vec<Option<UId>>,
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
            memo: vec![None; network.len() * 2],
            hash: FxHashMap::default(),
            lit_cache: vec![None; network.inputs().len() * 2],
        })
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

    fn build(&mut self, node: NodeId, phase: Phase) -> USignal {
        if let Some(sig) = self.memo[slot(node, phase)] {
            return sig;
        }
        let sig = match self.network.node(node) {
            Node::Input { .. } => {
                let input = self.input_pos[node.index()];
                USignal::Node(self.literal(Literal { input, phase }))
            }
            Node::Const { value } => USignal::Const(phase.apply(*value)),
            Node::Unary { op, a } => match op {
                UnOp::Buf => self.build(*a, phase),
                UnOp::Inv => self.build(*a, phase.flipped()),
            },
            Node::Binary { op, a, b } => {
                let (a, b) = (*a, *b);
                match (op, phase) {
                    (BinOp::And, Phase::Pos) | (BinOp::Nand, Phase::Neg) => {
                        let x = self.build(a, Phase::Pos);
                        let y = self.build(b, Phase::Pos);
                        self.gate(true, x, y)
                    }
                    // De Morgan: !(a & b) = !a | !b
                    (BinOp::And, Phase::Neg) | (BinOp::Nand, Phase::Pos) => {
                        let x = self.build(a, Phase::Neg);
                        let y = self.build(b, Phase::Neg);
                        self.gate(false, x, y)
                    }
                    (BinOp::Or, Phase::Pos) | (BinOp::Nor, Phase::Neg) => {
                        let x = self.build(a, Phase::Pos);
                        let y = self.build(b, Phase::Pos);
                        self.gate(false, x, y)
                    }
                    // De Morgan: !(a | b) = !a & !b
                    (BinOp::Or, Phase::Neg) | (BinOp::Nor, Phase::Pos) => {
                        let x = self.build(a, Phase::Neg);
                        let y = self.build(b, Phase::Neg);
                        self.gate(true, x, y)
                    }
                    // xor = a*b' + a'*b ; xnor = a*b + a'*b'
                    (BinOp::Xor, Phase::Pos) | (BinOp::Xnor, Phase::Neg) => {
                        self.build_xorish(a, b, true)
                    }
                    (BinOp::Xor, Phase::Neg) | (BinOp::Xnor, Phase::Pos) => {
                        self.build_xorish(a, b, false)
                    }
                }
            }
        };
        self.memo[slot(node, phase)] = Some(sig);
        sig
    }

    fn build_xorish(&mut self, a: NodeId, b: NodeId, odd: bool) -> USignal {
        let ap = self.build(a, Phase::Pos);
        let an = self.build(a, Phase::Neg);
        let bp = self.build(b, Phase::Pos);
        let bn = self.build(b, Phase::Neg);
        let (t1, t2) = if odd {
            (self.gate(true, ap, bn), self.gate(true, an, bp))
        } else {
            (self.gate(true, ap, bp), self.gate(true, an, bn))
        };
        self.gate(false, t1, t2)
    }

    /// Counts how many *new* unate nodes building `(node, phase)` would
    /// create, given the current memo state. Used by
    /// [`OutputPhase::Cheapest`].
    fn estimate(
        &self,
        node: NodeId,
        phase: Phase,
        visiting: &mut FxHashMap<(NodeId, Phase), ()>,
    ) -> usize {
        if self.memo[slot(node, phase)].is_some() || visiting.contains_key(&(node, phase)) {
            return 0;
        }
        visiting.insert((node, phase), ());
        match self.network.node(node) {
            Node::Input { .. } => 1,
            Node::Const { .. } => 0,
            Node::Unary { op, a } => match op {
                UnOp::Buf => self.estimate(*a, phase, visiting),
                UnOp::Inv => self.estimate(*a, phase.flipped(), visiting),
            },
            Node::Binary { op, a, b } => {
                let (a, b) = (*a, *b);
                match (op, phase) {
                    (BinOp::And | BinOp::Or, Phase::Pos)
                    | (BinOp::Nand | BinOp::Nor, Phase::Neg) => {
                        1 + self.estimate(a, Phase::Pos, visiting)
                            + self.estimate(b, Phase::Pos, visiting)
                    }
                    (BinOp::And | BinOp::Or, Phase::Neg)
                    | (BinOp::Nand | BinOp::Nor, Phase::Pos) => {
                        1 + self.estimate(a, Phase::Neg, visiting)
                            + self.estimate(b, Phase::Neg, visiting)
                    }
                    (BinOp::Xor | BinOp::Xnor, _) => {
                        3 + self.estimate(a, Phase::Pos, visiting)
                            + self.estimate(a, Phase::Neg, visiting)
                            + self.estimate(b, Phase::Pos, visiting)
                            + self.estimate(b, Phase::Neg, visiting)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, UNode};

    fn check(n: &Network) -> UnateNetwork {
        let u = convert(n, &Options::default()).unwrap();
        assert!(u.is_inverter_free());
        assert!(verify::equivalent(n, &u, 16, 99).unwrap());
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
        assert!(verify::equivalent(&n, &u, 8, 5).unwrap());
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
        assert!(verify::equivalent(&n, &u, 16, 3).unwrap());
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
            let (again, images) = convert_in_phases(&n, |o| {
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
                assert_eq!(images.get(port.driver, phase), Some(out.signal));
            }
            // An inverter builds no node: its image is its fanin's in the
            // other phase.
            assert_eq!(images.get(f, Phase::Pos), images.get(t3, Phase::Neg));
        }
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
}
