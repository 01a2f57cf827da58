//! The certificate check: proving a mapper-built circuit equivalent to its
//! source network from the unate root every gate records, with no SAT.
//!
//! All three mappers build each domino gate as a series/parallel cover of
//! one fanout-free cone of the unate network, changing only the stack
//! order, and [`DominoCircuit::roots`] names that cone's root per gate.
//! The check trusts none of it. It proves three claims:
//!
//! 1. **source ≡ unate.** The source is converted again with
//!    [`convert_in_phases`], each output in the phase its binding's
//!    `inverted` flag records, which reproduces the mapper's node
//!    numbering. Every `(source node, phase)` image of that conversion is
//!    checked against its source node in topological order: an input
//!    against the literal of the same position and phase, a constant
//!    against the folded constant, a buffer or inverter against its
//!    fanin's image in the same or flipped phase, and a 2-input gate by
//!    its 4-row truth table, evaluating the image down to its fanins'
//!    images.
//! 2. **unate ≡ mapped.** In gate order, each gate's PDN flattened to an
//!    AND/OR normal form (series = AND, parallel = OR, nested children of
//!    the same kind spliced, children sorted and deduplicated) must equal
//!    the normal form of the unate cone at its root. The cone is cut at
//!    literals and at the roots of the gates *this* PDN reads, and its
//!    walk may visit fewer than twice as many nodes as the PDN has
//!    transistors, so a forged root cannot make it expensive.
//! 3. **outputs.** Each output binding's gate must have the source
//!    driver's image, in the phase the binding's inversion records, as
//!    its root.
//!
//! Soundness is by induction. Claim 1 over source nodes in topological
//! order gives every image its source node's value in its phase. Claim 2
//! over gates in order gives every gate its root's value, because the
//! leaves of a PDN are literals or strictly earlier gates, whose values
//! are their roots' by then, and flattening, sorting and deduplicating
//! preserve an AND/OR formula's function. Claim 3 then makes every output
//! its source output. Any failed claim makes [`certify`] return `false` and
//! the caller falls back to the SAT sweep, so a certificate can only
//! confirm equivalence, never refute it.

use soi_domino_ir::{DominoCircuit, PdnNode, PdnRef, Signal};
use soi_netlist::{BinOp, Network, Node, NodeId, UnOp};
use soi_unate::{convert_in_phases, Images, Literal, Phase, UId, UNode, USignal, UnateNetwork};

/// Proves `circuit` equivalent to `network` from its root table: `false`
/// when the table is missing or any claim fails.
///
/// A certified circuit also lowers to a network that passes validation
/// with the source's input and output counts, so certifying never hides
/// an error the SAT sweep would have raised.
pub(crate) fn certify(network: &Network, circuit: &DominoCircuit) -> bool {
    let roots = circuit.roots();
    if roots.is_empty()
        || roots.len() != circuit.gate_count()
        || circuit.outputs().len() != network.outputs().len()
    {
        return false;
    }
    let phase_of = |inverted| if inverted { Phase::Neg } else { Phase::Pos };
    let Ok((unate, images)) =
        convert_in_phases(network, |o| phase_of(circuit.outputs()[o].inverted))
    else {
        return false;
    };
    let bindings = || circuit.outputs().iter().zip(network.outputs());
    let same_names = circuit.input_names() == unate.input_names()
        && bindings().all(|(binding, port)| binding.name == port.name);
    if !same_names || roots.iter().any(|&r| r as usize >= unate.len()) {
        return false;
    }
    let outputs_bind_images = bindings().all(|(binding, port)| {
        let root = roots.get(binding.gate.index());
        let root = root.map(|&r| USignal::Node(UId::from_index(r as usize)));
        root.is_some() && images.get(port.driver, phase_of(binding.inverted)) == root
    });
    outputs_bind_images
        && source_matches_unate(network, &unate, &images)
        && gates_match_roots(&unate, circuit)
}

// ---- Claim 1: source ≡ unate ------------------------------------------------

/// Checks every image the conversion built against its source node.
fn source_matches_unate(network: &Network, unate: &UnateNetwork, images: &Images) -> bool {
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    network.iter().all(|(id, source)| {
        [Phase::Pos, Phase::Neg].into_iter().all(|phase| {
            let Some(image) = images.get(id, phase) else {
                return true;
            };
            match *source {
                Node::Input { .. } => {
                    let literal = Literal {
                        input: input_pos[id.index()],
                        phase,
                    };
                    matches!(image, USignal::Node(u) if unate.node(u) == UNode::Lit(literal))
                }
                Node::Const { value } => image == USignal::Const(phase.apply(value)),
                Node::Unary { op: UnOp::Buf, a } => images.get(a, phase) == Some(image),
                Node::Unary { op: UnOp::Inv, a } => images.get(a, phase.flipped()) == Some(image),
                Node::Binary { op, a, b } => {
                    truth_table_matches(unate, images, (a, b), image, op, phase)
                }
            }
        })
    })
}

/// The four rows of a 2-input truth table as bits of a word: bit `r` is
/// row `r`, where fanin `a` is `r & 1` and fanin `b` is `r & 2`.
const ROWS: u64 = 0b1111;
const A_ROWS: u64 = 0b1010;
const B_ROWS: u64 = 0b1100;

/// Whether `image` computes the gate `op` (complemented in phase `Neg`)
/// over the images of fanins `a` and `b`, on every row of their truth
/// table that can occur. All four rows are evaluated at once, one bit
/// each.
///
/// A row cannot occur when it gives a constant image the other value, or
/// one unate node (standing for two fanin literals) two values; such rows
/// are masked out.
fn truth_table_matches(
    unate: &UnateNetwork,
    images: &Images,
    (a, b): (NodeId, NodeId),
    image: USignal,
    op: BinOp,
    phase: Phase,
) -> bool {
    let mut known: [(UId, u64); 4] = [(UId::from_index(0), 0); 4];
    let mut len = 0;
    let mut reachable = ROWS;
    for (node, rows) in [(a, A_ROWS), (b, B_ROWS)] {
        for (phase, rows) in [(Phase::Pos, rows), (Phase::Neg, !rows & ROWS)] {
            match images.get(node, phase) {
                None => {}
                Some(USignal::Const(c)) => reachable &= if c { rows } else { !rows },
                Some(USignal::Node(u)) => match known[..len].iter().find(|k| k.0 == u) {
                    Some(&(_, seen)) => reachable &= !(seen ^ rows),
                    None => {
                        known[len] = (u, rows);
                        len += 1;
                    }
                },
            }
        }
    }
    let want = op.eval_word(A_ROWS, B_ROWS);
    let want = if phase == Phase::Neg { !want } else { want };
    eval_over(unate, image, &known[..len], 2).is_some_and(|got| (got ^ want) & reachable == 0)
}

/// Evaluates `sig` on the truth-table rows through at most `depth`
/// AND/OR levels down to the nodes in `known`; `None` if it reaches
/// anything else first. Depth 2 covers the OR-of-ANDs the conversion
/// splits XOR and XNOR into.
fn eval_over(unate: &UnateNetwork, sig: USignal, known: &[(UId, u64)], depth: u32) -> Option<u64> {
    let u = match sig {
        USignal::Const(c) => return Some(if c { ROWS } else { 0 }),
        USignal::Node(u) => u,
    };
    if let Some(&(_, rows)) = known.iter().find(|k| k.0 == u) {
        return Some(rows);
    }
    let (x, y, is_and) = match unate.node(u) {
        _ if depth == 0 => return None,
        UNode::Lit(_) => return None,
        UNode::And(x, y) => (x, y, true),
        UNode::Or(x, y) => (x, y, false),
    };
    let vx = eval_over(unate, USignal::Node(x), known, depth - 1)?;
    let vy = eval_over(unate, USignal::Node(y), known, depth - 1)?;
    Some(if is_and { vx & vy } else { vx | vy })
}

// ---- Claim 2: unate ≡ mapped ------------------------------------------------

/// An AND/OR normal form over unate nodes: children of an `And` or `Or`
/// are sorted, distinct, at least two, and never of their parent's kind.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Form {
    Leaf(u32),
    And(Vec<Form>),
    Or(Vec<Form>),
}

impl Form {
    /// The normal form of the AND (or OR) of `parts`, themselves normal.
    fn join(is_and: bool, parts: impl IntoIterator<Item = Form>) -> Form {
        let mut flat = Vec::new();
        for part in parts {
            match part {
                Form::And(children) if is_and => flat.extend(children),
                Form::Or(children) if !is_and => flat.extend(children),
                other => flat.push(other),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            1 => flat.pop().expect("one part"),
            _ if is_and => Form::And(flat),
            _ => Form::Or(flat),
        }
    }
}

/// Checks every gate's PDN against the unate cone at its root.
fn gates_match_roots(unate: &UnateNetwork, circuit: &DominoCircuit) -> bool {
    // The literal node of each input, by phase.
    let mut literals = vec![[None; 2]; circuit.input_names().len()];
    for (id, n) in unate.iter() {
        if let UNode::Lit(l) = n {
            literals[l.input][usize::from(l.phase == Phase::Neg)] = Some(id.index() as u32);
        }
    }
    let mut pdn = PdnWalk {
        roots: circuit.roots(),
        literals: &literals,
        gate: 0,
        leaves: 0,
        cut: Vec::new(),
    };
    circuit.iter().all(|(g, gate)| {
        pdn.gate = g.index();
        pdn.leaves = 0;
        pdn.cut.clear();
        let Some(mapped) = pdn.form(gate.pdn()) else {
            return false;
        };
        pdn.cut.sort_unstable();
        // A cone of 2-input nodes with at most as many leaves as the PDN
        // has transistors has fewer than twice as many nodes.
        let mut cone = ConeWalk {
            unate,
            cut: &pdn.cut,
            budget: 2 * pdn.leaves,
        };
        let root = UId::from_index(pdn.roots[g.index()] as usize);
        cone.form(root).is_some_and(|form| form == mapped)
    })
}

/// Flattens PDNs, recording the unate nodes their gate signals stand for.
struct PdnWalk<'a> {
    roots: &'a [u32],
    literals: &'a [[Option<u32>; 2]],
    /// The gate being flattened: it may only read earlier gates.
    gate: usize,
    /// Transistors flattened so far.
    leaves: usize,
    /// Roots of the gates the PDN reads, where its cone walk stops.
    cut: Vec<u32>,
}

impl PdnWalk<'_> {
    fn form(&mut self, pdn: PdnRef<'_>) -> Option<Form> {
        let (is_and, children) = match pdn.root() {
            PdnNode::Transistor(signal) => {
                self.leaves += 1;
                return match signal {
                    Signal::Input { index, phase } => {
                        let neg = phase == soi_domino_ir::Phase::Neg;
                        self.literals.get(index)?[usize::from(neg)].map(Form::Leaf)
                    }
                    Signal::Gate(h) if h.index() < self.gate => {
                        let root = self.roots[h.index()];
                        self.cut.push(root);
                        Some(Form::Leaf(root))
                    }
                    Signal::Gate(_) => None,
                };
            }
            PdnNode::Series(children) => (true, children),
            PdnNode::Parallel(children) => (false, children),
        };
        let parts = children.map(|c| self.form(c)).collect::<Option<Vec<_>>>()?;
        Some(Form::join(is_and, parts))
    }
}

/// Flattens a unate cone down to literals and a sorted cut set, visiting
/// at most `budget` nodes.
struct ConeWalk<'a> {
    unate: &'a UnateNetwork,
    cut: &'a [u32],
    budget: usize,
}

impl ConeWalk<'_> {
    fn form(&mut self, id: UId) -> Option<Form> {
        self.budget = self.budget.checked_sub(1)?;
        let raw = id.index() as u32;
        let (x, y, is_and) = match self.unate.node(id) {
            _ if self.cut.binary_search(&raw).is_ok() => return Some(Form::Leaf(raw)),
            UNode::Lit(_) => return Some(Form::Leaf(raw)),
            UNode::And(x, y) => (x, y, true),
            UNode::Or(x, y) => (x, y, false),
        };
        let parts = [self.form(x)?, self.form(y)?];
        Some(Form::join(is_and, parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_domino_ir::{DominoGate, GateId, Pdn};

    fn leaf(i: u32) -> Form {
        Form::Leaf(i)
    }

    #[test]
    fn normal_forms_absorb_association_order_and_repeats() {
        let left = Form::join(
            true,
            vec![Form::join(true, vec![leaf(3), leaf(1)]), leaf(2), leaf(1)],
        );
        let right = Form::join(
            true,
            vec![leaf(2), Form::join(true, vec![leaf(1), leaf(3)])],
        );
        assert_eq!(left, right);
        assert_eq!(left, Form::And(vec![leaf(1), leaf(2), leaf(3)]));
        // A kind change is not spliced, and a single survivor unwraps.
        let mixed = Form::join(
            false,
            vec![Form::join(true, vec![leaf(1), leaf(2)]), leaf(1)],
        );
        assert_eq!(
            mixed,
            Form::Or(vec![leaf(1), Form::And(vec![leaf(1), leaf(2)])])
        );
        assert_eq!(Form::join(false, vec![leaf(4), leaf(4)]), leaf(4));
    }

    /// `f = (a + b) * c` and `g = !f`, mapped by hand with honest roots.
    fn hand_mapped() -> (Network, DominoCircuit) {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.or2(a, b);
        let f = n.and2(ab, c);
        let g = n.inv(f);
        n.add_output("f", f);
        n.add_output("g", g);
        // Unate nodes: 0 = a, 1 = b, 2 = a + b, 3 = c, 4 = (a + b) * c, and
        // `g` rebuilds nothing: positive `f` behind an inverted binding.
        let mut circuit = DominoCircuit::new(vec!["a".into(), "b".into(), "c".into()]);
        let pdn = Pdn::series(vec![
            Pdn::transistor(Signal::input(2)),
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(1)),
                Pdn::transistor(Signal::input(0)),
            ]),
        ]);
        let gate = circuit
            .push_gate(DominoGate::footed(pdn).view(), Some(4))
            .unwrap();
        circuit.bind_output("f", gate, false);
        circuit.bind_output("g", gate, true);
        (n, circuit)
    }

    #[test]
    fn honest_roots_certify_and_forged_ones_do_not() {
        let (n, circuit) = hand_mapped();
        assert!(certify(&n, &circuit));

        let mut forged = circuit.clone();
        forged.set_roots_unchecked(vec![2]);
        assert!(!certify(&n, &forged), "wrong root");
        forged.set_roots_unchecked(Vec::new());
        assert!(!certify(&n, &forged), "no table");
        forged.set_roots_unchecked(vec![4, 4]);
        assert!(!certify(&n, &forged), "table of the wrong length");
        forged.set_roots_unchecked(vec![99]);
        assert!(!certify(&n, &forged), "root out of range");

        let mut dangling = circuit.clone();
        dangling.set_output_gate_unchecked(1, GateId::from_index(3));
        assert!(!certify(&n, &dangling), "dangling output gate");

        // Building `g` positive appends its own nodes and leaves the
        // gate's root valid: only the output claim catches the flip.
        let mut flipped = circuit.clone();
        flipped.set_output_inverted(1, false);
        assert!(!certify(&n, &flipped), "flipped output inversion");
    }

    /// A gate that reads itself would "prove" itself equal to its root by
    /// assuming it: only strictly earlier gates may be leaves.
    #[test]
    fn a_gate_may_not_read_itself() {
        let (n, mut circuit) = hand_mapped();
        let g0 = GateId::from_index(0);
        circuit.set_pdn_unchecked(g0, Pdn::transistor(Signal::Gate(g0)).view());
        assert!(!certify(&n, &circuit));
    }

    /// Two correct gates bound to each other's outputs: every gate claim
    /// holds, the output claim does not.
    #[test]
    fn outputs_must_bind_their_drivers_images() {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.and2(a, b);
        let g = n.or2(a, b);
        n.add_output("f", f);
        n.add_output("g", g);
        // Unate nodes: 0 = a, 1 = b, 2 = a * b, 3 = a + b.
        let mut circuit = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let t = |i| Pdn::transistor(Signal::input(i));
        let and = circuit
            .push_gate(
                DominoGate::footed(Pdn::series(vec![t(0), t(1)])).view(),
                Some(2),
            )
            .unwrap();
        let or = circuit
            .push_gate(
                DominoGate::footed(Pdn::parallel(vec![t(1), t(0)])).view(),
                Some(3),
            )
            .unwrap();
        circuit.add_output("f", and);
        circuit.add_output("g", or);
        assert!(certify(&n, &circuit));
        circuit.set_output_gate_unchecked(0, or);
        assert!(!certify(&n, &circuit));
    }

    #[test]
    fn a_rewired_transistor_fails_its_gate() {
        let (n, mut circuit) = hand_mapped();
        let swapped = Pdn::series(vec![
            Pdn::transistor(Signal::input(1)),
            Pdn::parallel(vec![
                Pdn::transistor(Signal::input(2)),
                Pdn::transistor(Signal::input(0)),
            ]),
        ]);
        circuit.set_pdn_unchecked(GateId::from_index(0), swapped.view());
        assert!(!certify(&n, &circuit), "swapped literals");
        // A literal the unate network never built cannot be a leaf, nor
        // can an input that does not exist.
        for signal in [Signal::input_neg(2), Signal::input(1 << 20)] {
            circuit.set_pdn_unchecked(GateId::from_index(0), Pdn::transistor(signal).view());
            assert!(!certify(&n, &circuit), "{signal}");
        }
    }

    /// Claim 1 rejects a conversion of a different function, even one
    /// with the same node numbering.
    #[test]
    fn a_wrong_conversion_fails_claim_one() {
        let build = |or: bool| {
            let mut n = Network::new("t");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let f = if or { n.or2(a, b) } else { n.and2(a, b) };
            let g = n.inv(f);
            n.add_output("g", g);
            n
        };
        let (and, or) = (build(false), build(true));
        let (unate, images) = convert_in_phases(&or, |_| Phase::Pos).unwrap();
        assert!(source_matches_unate(&or, &unate, &images));
        assert!(!source_matches_unate(&and, &unate, &images));
    }

    #[test]
    fn xor_images_prove_by_truth_table() {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.add_const(true);
        let x = n.xnor2(a, b);
        let y = n.and2(x, one);
        n.add_output("y", y);
        let (unate, images) = convert_in_phases(&n, |_| Phase::Pos).unwrap();
        assert!(source_matches_unate(&n, &unate, &images));
        // The image is the OR of two ANDs: XNOR over the fanin literals,
        // not XOR.
        let image = images.get(x, Phase::Pos).expect("built");
        let (xnor, xor) = (BinOp::Xnor, BinOp::Xor);
        assert!(truth_table_matches(
            &unate,
            &images,
            (a, b),
            image,
            xnor,
            Phase::Pos
        ));
        assert!(truth_table_matches(
            &unate,
            &images,
            (a, b),
            image,
            xor,
            Phase::Neg
        ));
        assert!(!truth_table_matches(
            &unate,
            &images,
            (a, b),
            image,
            xor,
            Phase::Pos
        ));
        // `y = x * 1` folds onto `x`'s image; rows with the constant at 0
        // cannot occur and are skipped.
        assert_eq!(images.get(y, Phase::Pos), Some(image));
    }
}
