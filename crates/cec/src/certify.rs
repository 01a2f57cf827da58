//! The certificate check: proving a mapper-built circuit equivalent to its
//! source network from the unate root every gate records, with no SAT.
//!
//! All three mappers build each domino gate as a series/parallel cover of
//! one fanout-free cone of the unate network, changing only the stack
//! order, and [`DominoCircuit::roots`] names that cone's root per gate.
//! The check trusts none of it. It reads the unate network the roots
//! index from the circuit when the mapper attached its conversion
//! ([`DominoCircuit::conversion`], image table included), and otherwise
//! converts the source again with [`convert_in_phases`], each output in
//! the phase its binding's `inverted` flag records, which reproduces the
//! mapper's node numbering. Either way it proves three claims:
//!
//! 1. **source ≡ unate.** Every `(source node, phase)` image of the
//!    conversion ([`UnateNetwork::image`]) is checked against its source
//!    node in topological order: an input against the literal of the
//!    same position and phase, a constant against the folded constant, a
//!    buffer or inverter against its fanin's image in the same or flipped
//!    phase, and a 2-input gate by its 4-row truth table, evaluating the
//!    image down to its fanins' images.
//! 2. **unate ≡ mapped.** In gate order, each gate's PDN flattened to an
//!    AND/OR normal form (series = AND, parallel = OR, nested children of
//!    the same kind spliced, children sorted and deduplicated) must equal
//!    the normal form of the unate cone at its root. The cone is cut at
//!    literals and at the roots of the gates *this* PDN reads, and its
//!    walk may visit fewer than twice as many nodes as the PDN has
//!    transistors, so a forged root cannot make it expensive. Normal
//!    forms are interned ([`Forms`]): each is one `u32`, a leaf's unate id
//!    or the id of an interned AND/OR node, so the two sides are equal
//!    exactly when their ids are. A lookup confirms every candidate by
//!    comparing kind and children exactly, so no verdict depends on a hash
//!    value. The interner's buffers are cleared per gate and reused, and
//!    the walk reads the PDN's packed words in place, so once the buffers
//!    fit the largest gate nothing is allocated per node or per gate.
//! 3. **outputs.** Each output binding's gate must have the source
//!    driver's image, in the phase the binding's inversion records, as
//!    its root.
//!
//! Soundness is by induction. Claim 1 over source nodes in topological
//! order gives every image its source node's value in its phase, whoever
//! built the conversion: a [`UnateNetwork`] is topological by
//! construction, so its nodes have values, and claim 1 reads the image
//! table only through the checks above. The source itself is validated
//! first, by the re-conversion or, for an attached conversion, directly.
//! Claim 2 over gates in order gives every gate its root's value, because
//! the leaves of a PDN are literals or strictly earlier gates, whose
//! values are their roots' by then, and flattening, sorting and
//! deduplicating preserve an AND/OR formula's function (equal ids mean
//! equal normal forms, hence equal functions). Claim 3 then makes every
//! output its source output. Any failed claim makes [`certify`] return
//! `false` and the caller falls back to the SAT sweep, so a certificate
//! can only confirm equivalence, never refute it.

use std::collections::hash_map::Entry;
use std::hash::BuildHasher;

use soi_domino_ir::{DominoCircuit, PdnNode, PdnRef, Signal};
use soi_netlist::fx::FxHashMap;
use soi_netlist::{BinOp, Network, Node, NodeId, UnOp};
use soi_trace::{Stage, TraceHandle};
use soi_unate::{convert_in_phases, Literal, Phase, UId, UNode, USignal, UnateNetwork};

/// Proves `circuit` equivalent to `network` from its root table: `false`
/// when the table is missing or any claim fails.
///
/// The claims are checked on the circuit's attached conversion when it
/// carries one, and otherwise on a re-conversion of the source; a claim
/// that fails on the attached conversion is final. A certified circuit
/// also lowers to a network that passes validation with the source's
/// input and output counts, and its source passes validation, so
/// certifying never hides an error the SAT sweep would have raised. With
/// `trace` on, the re-conversion (when there is one), claim 1, and claims
/// 2 and 3 each run in a span of their own.
pub(crate) fn certify(network: &Network, circuit: &DominoCircuit, trace: TraceHandle) -> bool {
    let roots = circuit.roots();
    if roots.is_empty()
        || roots.len() != circuit.gate_count()
        || circuit.outputs().len() != network.outputs().len()
    {
        return false;
    }
    let phase_of = |inverted| if inverted { Phase::Neg } else { Phase::Pos };
    let derived;
    let unate = match circuit.conversion() {
        // Converting validates the source; the attached conversion's
        // source may not be this one, so it is validated here.
        Some(attached) if network.validate().is_ok() => &**attached,
        Some(_) => return false,
        None => {
            let _span = trace.span(Stage::CecCertifyConvert);
            let phases = |o: usize| phase_of(circuit.outputs()[o].inverted);
            let Ok(converted) = convert_in_phases(network, phases) else {
                return false;
            };
            derived = converted;
            &derived
        }
    };
    let bindings = || circuit.outputs().iter().zip(network.outputs());
    let same_names = circuit.input_names() == unate.input_names()
        && inputs_named(network, unate.input_names())
        && bindings().all(|(binding, port)| binding.name == port.name);
    if !same_names || roots.iter().any(|&r| r as usize >= unate.len()) {
        return false;
    }
    let source_matches = {
        let _span = trace.span(Stage::CecCertifySource);
        source_matches_unate(network, unate)
    };
    if !source_matches {
        return false;
    }
    let _span = trace.span(Stage::CecCertifyGates);
    let outputs_bind_images = bindings().all(|(binding, port)| {
        let root = roots.get(binding.gate.index());
        let root = root.map(|&r| USignal::Node(UId::from_index(r as usize)));
        root.is_some() && unate.image(port.driver, phase_of(binding.inverted)) == root
    });
    outputs_bind_images && gates_match_roots(unate, circuit)
}

/// Whether `network`'s primary inputs carry `names`, in order.
fn inputs_named(network: &Network, names: &[String]) -> bool {
    network.inputs().len() == names.len()
        && network
            .inputs()
            .iter()
            .zip(names)
            .all(|(&id, name)| matches!(network.node(id), Node::Input { name: own } if own == name))
}

// ---- Claim 1: source ≡ unate ------------------------------------------------

/// Checks every image the conversion built against its source node.
fn source_matches_unate(network: &Network, unate: &UnateNetwork) -> bool {
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    network.iter().all(|(id, source)| {
        [Phase::Pos, Phase::Neg].into_iter().all(|phase| {
            let Some(image) = unate.image(id, phase) else {
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
                Node::Unary { op: UnOp::Buf, a } => unate.image(a, phase) == Some(image),
                Node::Unary { op: UnOp::Inv, a } => unate.image(a, phase.flipped()) == Some(image),
                Node::Binary { op, a, b } => truth_table_matches(unate, (a, b), image, op, phase),
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
            match unate.image(node, phase) {
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

/// Checks every gate's PDN against the unate cone at its root.
fn gates_match_roots(unate: &UnateNetwork, circuit: &DominoCircuit) -> bool {
    let Some(mut walk) = GateWalk::new(unate, circuit) else {
        return false;
    };
    circuit
        .iter()
        .all(|(g, gate)| walk.gate_matches(g.index(), gate.pdn()))
}

/// The literal node of each of `inputs` inputs, by phase (`Pos` first).
fn literal_nodes(unate: &UnateNetwork, inputs: usize) -> Vec<[Option<u32>; 2]> {
    let mut literals = vec![[None; 2]; inputs];
    for (id, n) in unate.iter() {
        if let UNode::Lit(l) = n {
            literals[l.input][usize::from(l.phase == Phase::Neg)] = Some(id.index() as u32);
        }
    }
    literals
}

/// Walks each gate's PDN, then the unate cone at its root, into the same
/// interned normal forms, reusing every buffer from gate to gate.
struct GateWalk<'a> {
    unate: &'a UnateNetwork,
    roots: &'a [u32],
    literals: Vec<[Option<u32>; 2]>,
    /// The gate being checked: its PDN may only read earlier gates.
    gate: usize,
    /// Transistors walked so far.
    leaves: usize,
    /// Roots of the gates the PDN reads, where its cone walk stops.
    cut: Vec<u32>,
    /// Cone nodes the walk may still visit.
    budget: usize,
    forms: Forms,
}

impl<'a> GateWalk<'a> {
    /// `None` when the unate ids do not fit a `u32`.
    fn new(unate: &'a UnateNetwork, circuit: &'a DominoCircuit) -> Option<GateWalk<'a>> {
        Some(GateWalk {
            unate,
            roots: circuit.roots(),
            literals: literal_nodes(unate, circuit.input_names().len()),
            gate: 0,
            leaves: 0,
            cut: Vec::new(),
            budget: 0,
            forms: Forms::new(u32::try_from(unate.len()).ok()?),
        })
    }

    /// Whether gate `gate`'s PDN has the normal form of the cone at its
    /// root.
    fn gate_matches(&mut self, gate: usize, pdn: PdnRef<'_>) -> bool {
        self.gate = gate;
        self.leaves = 0;
        self.cut.clear();
        self.forms.clear();
        let Some(mapped) = self.pdn(pdn) else {
            return false;
        };
        self.cut.sort_unstable();
        // A cone of 2-input nodes with at most as many leaves as the PDN
        // has transistors has fewer than twice as many nodes.
        self.budget = 2 * self.leaves;
        self.cone(UId::from_index(self.roots[gate] as usize)) == Some(mapped)
    }

    fn pdn(&mut self, pdn: PdnRef<'_>) -> Option<u32> {
        let (is_and, children) = match pdn.root() {
            PdnNode::Transistor(signal) => {
                self.leaves += 1;
                return match signal {
                    Signal::Input { index, phase } => {
                        let neg = phase == soi_domino_ir::Phase::Neg;
                        self.literals.get(index)?[usize::from(neg)]
                    }
                    Signal::Gate(h) if h.index() < self.gate => {
                        let root = self.roots[h.index()];
                        self.cut.push(root);
                        Some(root)
                    }
                    Signal::Gate(_) => None,
                };
            }
            PdnNode::Series(children) => (true, children),
            PdnNode::Parallel(children) => (false, children),
        };
        let mark = self.forms.mark();
        for child in children {
            let form = self.pdn(child)?;
            self.forms.push(is_and, form);
        }
        self.forms.join(is_and, mark)
    }

    fn cone(&mut self, id: UId) -> Option<u32> {
        self.budget = self.budget.checked_sub(1)?;
        let raw = id.index() as u32;
        let (x, y, is_and) = match self.unate.node(id) {
            _ if self.cut.binary_search(&raw).is_ok() => return Some(raw),
            UNode::Lit(_) => return Some(raw),
            UNode::And(x, y) => (x, y, true),
            UNode::Or(x, y) => (x, y, false),
        };
        let mark = self.forms.mark();
        for child in [x, y] {
            let form = self.cone(child)?;
            self.forms.push(is_and, form);
        }
        self.forms.join(is_and, mark)
    }
}

/// Interned nodes of a gate that lookups scan; only later ones are
/// hashed.
const SCANNED: usize = 16;

/// Ends a hash chain of [`Forms`].
const NO_NODE: u32 = u32::MAX;

/// An interned AND or OR node, with children `Forms::children[start..end]`.
#[derive(Clone, Copy)]
struct FormNode {
    is_and: bool,
    start: u32,
    end: u32,
    /// The node interned before it with the same hash, or [`NO_NODE`].
    next: u32,
}

/// AND/OR normal forms over unate nodes, interned one gate at a time.
///
/// A form is one `u32`. A leaf is its unate node's id, below `base`; an
/// AND or OR is the id of an interned node, `base` and up, whose children
/// are sorted as integers, distinct, and never of its own kind. So every
/// formula has one id, and two formulas have the same normal form exactly
/// when their ids are equal. A lookup scans the first [`SCANNED`] nodes,
/// then hashes the node's kind and children to the last node interned
/// with that hash and confirms each node on the chain by comparing kind
/// and children exactly: a collision costs a comparison, never a wrong
/// match, and no id depends on a hash value.
/// [`Forms::clear`] keeps every buffer's capacity, so checking a circuit
/// allocates only while the buffers grow to fit its largest gate.
struct Forms {
    base: u32,
    nodes: Vec<FormNode>,
    children: Vec<u32>,
    /// The parts of the joins being built, innermost last.
    parts: Vec<u32>,
    /// The hash of a node's kind and children → the last node interned
    /// with it.
    heads: FxHashMap<u64, u32>,
}

impl Forms {
    fn new(base: u32) -> Forms {
        Forms {
            base,
            nodes: Vec::new(),
            children: Vec::new(),
            parts: Vec::new(),
            heads: FxHashMap::default(),
        }
    }

    /// Forgets every interned node.
    fn clear(&mut self) {
        self.nodes.clear();
        self.children.clear();
        self.parts.clear();
        self.heads.clear();
    }

    /// Where the parts of the next join start.
    fn mark(&self) -> usize {
        self.parts.len()
    }

    /// Adds `form` to the join of kind `is_and` being built, splicing in
    /// its children if it has that kind.
    fn push(&mut self, is_and: bool, form: u32) {
        match form.checked_sub(self.base).map(|i| self.nodes[i as usize]) {
            Some(node) if node.is_and == is_and => self
                .parts
                .extend_from_slice(&self.children[node.start as usize..node.end as usize]),
            _ => self.parts.push(form),
        }
    }

    /// The normal form of the AND (or OR) of the parts pushed since
    /// `mark`, which it pops; `None` once the ids run out.
    fn join(&mut self, is_and: bool, mark: usize) -> Option<u32> {
        let parts = &mut self.parts[mark..];
        parts.sort_unstable();
        let distinct = dedup_sorted(parts);
        self.parts.truncate(mark + distinct);
        let form = match self.parts[mark..] {
            [one] => Some(one),
            _ => self.intern(is_and, mark),
        };
        self.parts.truncate(mark);
        form
    }

    /// The id of the node of kind `is_and` whose children are the parts
    /// from `mark` on, interning it if it is new.
    fn intern(&mut self, is_and: bool, mark: usize) -> Option<u32> {
        let parts = &self.parts[mark..];
        let children = &self.children;
        let same = |node: &FormNode| {
            node.is_and == is_and && children[node.start as usize..node.end as usize] == *parts
        };
        // Most gates intern only a few nodes: those are scanned, and the
        // map stays empty.
        if let Some(i) = self.nodes.iter().take(SCANNED).position(same) {
            return Some(self.base + i as u32);
        }
        let index = self.nodes.len();
        let id = u32::try_from(index)
            .ok()
            .and_then(|i| self.base.checked_add(i))?;
        let start = u32::try_from(children.len()).ok()?;
        let end = start.checked_add(u32::try_from(parts.len()).ok()?)?;
        let mut next = NO_NODE;
        if index >= SCANNED {
            let hash = self.heads.hasher().hash_one((is_and, parts));
            match self.heads.entry(hash) {
                Entry::Occupied(mut head) => {
                    let mut at = *head.get();
                    while at != NO_NODE {
                        let node = &self.nodes[(at - self.base) as usize];
                        if same(node) {
                            return Some(at);
                        }
                        at = node.next;
                    }
                    next = head.insert(id);
                }
                Entry::Vacant(head) => {
                    head.insert(id);
                }
            }
        }
        self.children.extend_from_slice(parts);
        self.nodes.push(FormNode {
            is_and,
            start,
            end,
            next,
        });
        Some(id)
    }
}

/// Moves the distinct values of sorted `ids` to its front: their count.
fn dedup_sorted(ids: &mut [u32]) -> usize {
    let mut len = 0;
    for i in 0..ids.len() {
        if len == 0 || ids[i] != ids[len - 1] {
            ids[len] = ids[i];
            len += 1;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use soi_circuits::registry;
    use soi_domino_ir::{DominoGate, GateId, Pdn};
    use soi_mapper::{MapConfig, Mapper};
    use soi_unate::OutputPhase;

    fn certifies(network: &Network, circuit: &DominoCircuit) -> bool {
        certify(network, circuit, TraceHandle::off())
    }

    // ---- The oracle: claim 2 on owned `Form` trees ------------------------

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

    /// Each gate's claim-2 verdict, by `Form` trees.
    fn oracle_verdicts(unate: &UnateNetwork, circuit: &DominoCircuit) -> Vec<bool> {
        let literals = literal_nodes(unate, circuit.input_names().len());
        let mut pdn = PdnWalk {
            roots: circuit.roots(),
            literals: &literals,
            gate: 0,
            leaves: 0,
            cut: Vec::new(),
        };
        circuit
            .iter()
            .map(|(g, gate)| {
                pdn.gate = g.index();
                pdn.leaves = 0;
                pdn.cut.clear();
                let Some(mapped) = pdn.form(gate.pdn()) else {
                    return false;
                };
                pdn.cut.sort_unstable();
                let mut cone = ConeWalk {
                    unate,
                    cut: &pdn.cut,
                    budget: 2 * pdn.leaves,
                };
                let root = UId::from_index(pdn.roots[g.index()] as usize);
                cone.form(root).is_some_and(|form| form == mapped)
            })
            .collect()
    }

    /// Each gate's claim-2 verdict, by interned forms.
    fn interned_verdicts(unate: &UnateNetwork, circuit: &DominoCircuit) -> Vec<bool> {
        let mut walk = GateWalk::new(unate, circuit).expect("unate ids fit a u32");
        circuit
            .iter()
            .map(|(g, gate)| walk.gate_matches(g.index(), gate.pdn()))
            .collect()
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

    // ---- Interned forms against the oracle --------------------------------

    /// A formula to intern: a leaf id, or the AND (`true`) or OR of parts.
    #[derive(Debug, Clone)]
    enum Tree {
        Leaf(u32),
        Node(bool, Vec<Tree>),
    }

    impl Tree {
        fn form(&self) -> Form {
            match self {
                Tree::Leaf(i) => Form::Leaf(*i),
                Tree::Node(is_and, parts) => Form::join(*is_and, parts.iter().map(Tree::form)),
            }
        }

        fn intern(&self, forms: &mut Forms) -> u32 {
            match self {
                Tree::Leaf(i) => *i,
                Tree::Node(is_and, parts) => {
                    let mark = forms.mark();
                    for part in parts {
                        let form = part.intern(forms);
                        forms.push(*is_and, form);
                    }
                    forms.join(*is_and, mark).expect("ids fit a u32")
                }
            }
        }
    }

    /// Leaf ids of the random formulas; interned ids start here.
    const LEAVES: u32 = 6;

    fn random_tree(rng: &mut SmallRng, depth: u32) -> Tree {
        if depth == 0 || rng.gen_bool(0.25) {
            return Tree::Leaf(rng.gen_range(0..LEAVES));
        }
        let arity = rng.gen_range(2..=4usize);
        let parts = (0..arity).map(|_| random_tree(rng, depth - 1)).collect();
        Tree::Node(rng.gen_bool(0.5), parts)
    }

    fn shuffle(rng: &mut SmallRng, parts: &mut [Tree]) {
        for i in (1..parts.len()).rev() {
            parts.swap(i, rng.gen_range(0..=i));
        }
    }

    /// The same formula written differently: every node's children
    /// shuffled, some runs of them regrouped under a nested node of their
    /// parent's kind, and one child of the top node repeated.
    fn rewrite(rng: &mut SmallRng, tree: &Tree, top: bool) -> Tree {
        let Tree::Node(is_and, parts) = tree else {
            return tree.clone();
        };
        let mut parts: Vec<Tree> = parts.iter().map(|p| rewrite(rng, p, false)).collect();
        shuffle(rng, &mut parts);
        if parts.len() >= 3 && rng.gen_bool(0.5) {
            let len = rng.gen_range(2..parts.len());
            let start = rng.gen_range(0..=parts.len() - len);
            let group = parts.drain(start..start + len).collect();
            parts.insert(start, Tree::Node(*is_and, group));
        }
        if top {
            let twin = parts[rng.gen_range(0..parts.len())].clone();
            parts.insert(rng.gen_range(0..=parts.len()), twin);
        }
        Tree::Node(*is_and, parts)
    }

    /// The formula with one leaf replaced or one node's kind flipped: a
    /// different normal form as a rule, but not always.
    fn mutate(rng: &mut SmallRng, tree: &Tree) -> Tree {
        fn sites(tree: &Tree) -> usize {
            match tree {
                Tree::Leaf(_) => 1,
                Tree::Node(_, parts) => 1 + parts.iter().map(sites).sum::<usize>(),
            }
        }
        fn change(tree: &mut Tree, at: &mut usize, by: u32) {
            if *at == 0 {
                match tree {
                    Tree::Leaf(i) => *i = (*i + by) % LEAVES,
                    Tree::Node(is_and, _) => *is_and = !*is_and,
                }
            }
            *at = at.wrapping_sub(1);
            if let Tree::Node(_, parts) = tree {
                parts.iter_mut().for_each(|p| change(p, at, by));
            }
        }
        let mut twin = tree.clone();
        let mut at = rng.gen_range(0..sites(tree));
        change(&mut twin, &mut at, rng.gen_range(1..LEAVES));
        twin
    }

    /// Interned ids are equal exactly when the oracle's forms are, on
    /// random formulas, their rewritten twins and their mutants, all
    /// interned into one `Forms` per case; some cases intern more nodes
    /// than are scanned, so lookups also go through the map.
    #[test]
    fn interned_forms_are_equal_exactly_when_oracle_forms_are() {
        let mut rng = SmallRng::seed_from_u64(0xF0_4A5);
        let mut forms = Forms::new(LEAVES);
        let (mut equal, mut different, mut hashed) = (0, 0, 0);
        for case in 0..3_000 {
            let tree = random_tree(&mut rng, 3);
            let trees = [
                rewrite(&mut rng, &tree, true),
                mutate(&mut rng, &tree),
                tree,
            ];
            forms.clear();
            let ids = trees.each_ref().map(|t| t.intern(&mut forms));
            hashed += usize::from(forms.nodes.len() > SCANNED);
            let oracle = trees.each_ref().map(Tree::form);
            assert_eq!(ids[0], ids[2], "case {case}: a rewrite changed the id");
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                assert_eq!(
                    ids[a] == ids[b],
                    oracle[a] == oracle[b],
                    "case {case}: {:?} and {:?}",
                    trees[a],
                    trees[b]
                );
                if ids[a] == ids[b] {
                    equal += 1;
                } else {
                    different += 1;
                }
            }
        }
        assert!(equal > 0 && different > 0, "{equal} equal, {different} not");
        assert!(hashed > 0, "no case interned past the scanned nodes");
    }

    /// Two nodes whose hashes collide share a chain: the second is a new
    /// node, and each is found again as itself.
    #[test]
    fn a_hash_collision_costs_a_comparison_not_a_match() {
        let intern = |forms: &mut Forms, is_and: bool, parts: &[u32]| {
            let mark = forms.mark();
            parts.iter().for_each(|&p| forms.push(is_and, p));
            forms.join(is_and, mark).expect("ids fit a u32")
        };
        let mut forms = Forms::new(100);
        // Fill the scanned nodes, so the rest go through the map.
        for leaf in 1..=SCANNED as u32 {
            intern(&mut forms, true, &[0, leaf]);
        }
        let and = intern(&mut forms, true, &[1, 2]);
        // Point the hashes of `1 + 2` and `1 * 3` at `1 * 2`.
        for (is_and, parts) in [(false, [1u32, 2]), (true, [1, 3])] {
            let hash = forms.heads.hasher().hash_one((is_and, &parts[..]));
            forms.heads.insert(hash, and);
        }
        let or = intern(&mut forms, false, &[2, 1]);
        let other = intern(&mut forms, true, &[3, 1]);
        let first = 100 + SCANNED as u32;
        assert_eq!([and, or, other], [first, first + 1, first + 2]);
        assert_eq!(forms.nodes[SCANNED + 1].next, and);
        assert_eq!(intern(&mut forms, false, &[1, 2, 1]), or);
        assert_eq!(intern(&mut forms, true, &[1, 3]), other);
        assert_eq!(intern(&mut forms, true, &[2, 1]), and);
        assert_eq!(intern(&mut forms, true, &[SCANNED as u32, 0]), 100 + 15);
    }

    /// On every registry circuit under all three algorithms, duplication
    /// off and on, and both output-phase policies, interned claim 2 gives
    /// every gate the oracle's verdict, with honest roots and with the
    /// root table rotated by one, on the mapper's attached conversion and
    /// on a re-conversion alike; the two give the same certify verdict,
    /// and only duplicated mappings fall back.
    #[test]
    fn interned_claim_two_agrees_with_the_oracle_on_the_registry() {
        let mappers: [fn(MapConfig) -> Mapper; 3] =
            [Mapper::baseline, Mapper::rearrange_stacks, Mapper::soi];
        let (mut certified, mut fell_back) = (0, 0);
        for name in registry::names() {
            let network = registry::benchmark(name).expect("registered");
            for make in mappers {
                for allow_duplication in [false, true] {
                    for output_phase in [OutputPhase::Positive, OutputPhase::Cheapest] {
                        let config = MapConfig {
                            allow_duplication,
                            output_phase,
                            ..MapConfig::default()
                        };
                        let result = make(config).run(&network).expect("maps");
                        let what = format!(
                            "{name} ({:?}, dup {allow_duplication}, {output_phase:?})",
                            result.algorithm
                        );
                        let mut circuit = result.circuit;
                        let attached = circuit.conversion().expect("`run` attaches").clone();
                        let unate = convert_in_phases(&network, |o| {
                            if circuit.outputs()[o].inverted {
                                Phase::Neg
                            } else {
                                Phase::Pos
                            }
                        })
                        .expect("converts");
                        let verdicts = interned_verdicts(&unate, &circuit);
                        assert_eq!(verdicts, oracle_verdicts(&unate, &circuit), "{what}");
                        assert_eq!(verdicts, interned_verdicts(&attached, &circuit), "{what}");
                        let mut bare = circuit.clone();
                        bare.set_conversion(None);
                        let verdict = certifies(&network, &circuit);
                        assert_eq!(verdict, certifies(&network, &bare), "{what}");
                        if verdict {
                            certified += 1;
                        } else {
                            assert!(allow_duplication, "{what} fell back");
                            fell_back += 1;
                        }
                        let mut rotated = circuit.roots().to_vec();
                        rotated.rotate_left(1);
                        circuit.set_roots_unchecked(rotated);
                        let verdicts = interned_verdicts(&unate, &circuit);
                        assert_eq!(
                            verdicts,
                            oracle_verdicts(&unate, &circuit),
                            "{what}, roots rotated"
                        );
                        assert_eq!(
                            verdicts,
                            interned_verdicts(&attached, &circuit),
                            "{what}, roots rotated"
                        );
                    }
                }
            }
        }
        assert_eq!((certified, fell_back), (290, 46), "certified and fell back");
    }

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
        assert!(certifies(&n, &circuit));

        let mut forged = circuit.clone();
        forged.set_roots_unchecked(vec![2]);
        assert!(!certifies(&n, &forged), "wrong root");
        forged.set_roots_unchecked(Vec::new());
        assert!(!certifies(&n, &forged), "no table");
        forged.set_roots_unchecked(vec![4, 4]);
        assert!(!certifies(&n, &forged), "table of the wrong length");
        forged.set_roots_unchecked(vec![99]);
        assert!(!certifies(&n, &forged), "root out of range");

        let mut dangling = circuit.clone();
        dangling.set_output_gate_unchecked(1, GateId::from_index(3));
        assert!(!certifies(&n, &dangling), "dangling output gate");

        // Building `g` positive appends its own nodes and leaves the
        // gate's root valid: only the output claim catches the flip.
        let mut flipped = circuit.clone();
        flipped.set_output_inverted(1, false);
        assert!(!certifies(&n, &flipped), "flipped output inversion");
    }

    /// A gate that reads itself would "prove" itself equal to its root by
    /// assuming it: only strictly earlier gates may be leaves.
    #[test]
    fn a_gate_may_not_read_itself() {
        let (n, mut circuit) = hand_mapped();
        let g0 = GateId::from_index(0);
        circuit.set_pdn_unchecked(g0, Pdn::transistor(Signal::Gate(g0)).view());
        assert!(!certifies(&n, &circuit));
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
        assert!(certifies(&n, &circuit));
        circuit.set_output_gate_unchecked(0, or);
        assert!(!certifies(&n, &circuit));
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
        assert!(!certifies(&n, &circuit), "swapped literals");
        // A literal the unate network never built cannot be a leaf, nor
        // can an input that does not exist.
        for signal in [Signal::input_neg(2), Signal::input(1 << 20)] {
            circuit.set_pdn_unchecked(GateId::from_index(0), Pdn::transistor(signal).view());
            assert!(!certifies(&n, &circuit), "{signal}");
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
        let unate = convert_in_phases(&or, |_| Phase::Pos).unwrap();
        assert!(source_matches_unate(&or, &unate));
        assert!(!source_matches_unate(&and, &unate));
    }

    /// An attached conversion is checked, not believed, and a claim that
    /// fails on it is final: the circuit is not certified by converting
    /// again, although that would succeed.
    #[test]
    fn an_attached_conversion_is_checked_and_final() {
        let (n, circuit) = hand_mapped();
        let phases = |o: usize| if o == 1 { Phase::Neg } else { Phase::Pos };
        let mut attached = circuit.clone();
        attached.set_conversion(Some(Arc::new(convert_in_phases(&n, phases).unwrap())));
        assert!(certifies(&n, &attached), "honest conversion");

        // The same source with its AND an OR: the same node ids.
        let mut wrong = n.clone();
        let f = NodeId::from_index(4);
        let Node::Binary { a, b, .. } = *n.node(f) else {
            panic!("f is binary");
        };
        wrong.set_node_unchecked(
            f,
            Node::Binary {
                op: BinOp::Or,
                a,
                b,
            },
        );
        let forged = convert_in_phases(&wrong, phases).unwrap();
        attached.set_conversion(Some(Arc::new(forged)));
        assert!(!certifies(&n, &attached), "claim 1 on a wrong conversion");
        assert!(certifies(&n, &circuit), "converting again would certify");

        // Every output in the other phase.
        let flipped = convert_in_phases(&n, |o| phases(o).flipped()).unwrap();
        attached.set_conversion(Some(Arc::new(flipped)));
        assert!(!certifies(&n, &attached), "claim 3 on flipped phases");

        // The honest conversion against an invalid source, or one whose
        // inputs are named differently.
        attached.set_conversion(Some(Arc::new(convert_in_phases(&n, phases).unwrap())));
        let mut invalid = n.clone();
        invalid.set_node_unchecked(NodeId::from_index(1), Node::Input { name: "a".into() });
        assert!(!certifies(&invalid, &attached), "duplicate input names");
        let mut renamed = n.clone();
        renamed.set_node_unchecked(NodeId::from_index(1), Node::Input { name: "z".into() });
        assert!(!certifies(&renamed, &attached), "renamed input");
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
        let unate = convert_in_phases(&n, |_| Phase::Pos).unwrap();
        assert!(source_matches_unate(&n, &unate));
        // The image is the OR of two ANDs: XNOR over the fanin literals,
        // not XOR.
        let image = unate.image(x, Phase::Pos).expect("built");
        let (xnor, xor) = (BinOp::Xnor, BinOp::Xor);
        assert!(truth_table_matches(&unate, (a, b), image, xnor, Phase::Pos));
        assert!(truth_table_matches(&unate, (a, b), image, xor, Phase::Neg));
        assert!(!truth_table_matches(&unate, (a, b), image, xor, Phase::Pos));
        // `y = x * 1` folds onto `x`'s image; rows with the constant at 0
        // cannot occur and are skipped.
        assert_eq!(unate.image(y, Phase::Pos), Some(image));
    }
}
