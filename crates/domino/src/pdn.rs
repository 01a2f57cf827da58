//! Pull-down networks as packed pre-order words.
//!
//! A PDN is a series/parallel tree of nmos transistors. It is stored as a
//! slice of [`PdnWord`]s in pre-order: every node is one `u32`, its
//! children follow it, and a series or parallel node records the length of
//! its whole subtree, so a walk steps over a child in O(1). A
//! [`DominoCircuit`](crate::DominoCircuit) keeps the words of all its gates
//! in one array; [`Pdn`] is the owned form of one tree, used to build
//! gates by hand, and [`PdnRef`] is the borrowed view every reader walks.

use std::fmt;

use crate::{DominoError, GateId};

/// Phase of a primary-input literal.
///
/// The unate conversion step may require the complemented phase of a primary
/// input; in the physical circuit that phase is produced by an inverter at
/// the input boundary, which is legal in domino (inversions are permitted
/// only at primary inputs and outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The input as-is.
    Pos,
    /// The complemented input.
    Neg,
}

impl Phase {
    /// Applies the phase to a boolean value.
    pub fn apply(self, value: bool) -> bool {
        match self {
            Phase::Pos => value,
            Phase::Neg => !value,
        }
    }

    /// The opposite phase.
    pub fn flipped(self) -> Phase {
        match self {
            Phase::Pos => Phase::Neg,
            Phase::Neg => Phase::Pos,
        }
    }
}

/// The signal driving an nmos transistor gate in a pull-down network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    /// A literal of a primary input (`index` into the circuit's input list).
    Input {
        /// Index of the primary input.
        index: usize,
        /// Literal phase.
        phase: Phase,
    },
    /// The output of another domino gate.
    Gate(GateId),
}

impl Signal {
    /// Positive literal of primary input `index`.
    pub fn input(index: usize) -> Signal {
        Signal::Input {
            index,
            phase: Phase::Pos,
        }
    }

    /// Negative literal of primary input `index`.
    pub fn input_neg(index: usize) -> Signal {
        Signal::Input {
            index,
            phase: Phase::Neg,
        }
    }

    /// Whether the signal is driven directly by a primary input (either
    /// phase). Gates containing such transistors need a foot n-clock
    /// transistor, because primary inputs are not guaranteed low during
    /// precharge.
    pub fn is_primary(self) -> bool {
        matches!(self, Signal::Input { .. })
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Input {
                index,
                phase: Phase::Pos,
            } => write!(f, "i{index}"),
            Signal::Input {
                index,
                phase: Phase::Neg,
            } => write!(f, "i{index}'"),
            Signal::Gate(g) => write!(f, "g{}", g.index()),
        }
    }
}

const PAYLOAD_BITS: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << PAYLOAD_BITS) - 1;
const KIND_INPUT: u32 = 0;
const KIND_GATE: u32 = 1;
const KIND_SERIES: u32 = 2;
const KIND_PARALLEL: u32 = 3;

/// One node of a packed pull-down network.
///
/// The top two bits give the kind — input literal, gate, series or
/// parallel — and the low 30 bits the payload: `index × 2 + phase` for an
/// input literal (phase 1 is the complement), the gate id for a gate, and
/// the length in words of the whole subtree, this word included, for a
/// series or parallel node. A value that does not fit its payload is a
/// [`DominoError::TooLarge`], never a silent wrap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct PdnWord(u32);

impl PdnWord {
    /// The largest payload a word holds.
    pub const MAX_PAYLOAD: usize = PAYLOAD_MASK as usize;

    fn pack(kind: u32, payload: usize, what: &'static str) -> Result<PdnWord, DominoError> {
        if payload > Self::MAX_PAYLOAD {
            return Err(DominoError::TooLarge {
                what,
                value: payload,
                max: Self::MAX_PAYLOAD,
            });
        }
        Ok(PdnWord(kind << PAYLOAD_BITS | payload as u32))
    }

    /// A transistor driven by `signal`.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::TooLarge`] when the input index or gate id
    /// does not fit the payload.
    pub fn transistor(signal: Signal) -> Result<PdnWord, DominoError> {
        match signal {
            Signal::Input { index, phase } => {
                let max = Self::MAX_PAYLOAD / 2;
                if index > max {
                    return Err(DominoError::TooLarge {
                        what: "input index",
                        value: index,
                        max,
                    });
                }
                Self::pack(
                    KIND_INPUT,
                    index * 2 + usize::from(phase == Phase::Neg),
                    "input index",
                )
            }
            Signal::Gate(g) => Self::pack(KIND_GATE, g.index(), "gate id"),
        }
    }

    /// The header of a series node whose subtree spans `len` words.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::TooLarge`] when `len` does not fit.
    pub fn series(len: usize) -> Result<PdnWord, DominoError> {
        Self::pack(KIND_SERIES, len, "PDN subtree length")
    }

    /// The header of a parallel node whose subtree spans `len` words.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::TooLarge`] when `len` does not fit.
    pub fn parallel(len: usize) -> Result<PdnWord, DominoError> {
        Self::pack(KIND_PARALLEL, len, "PDN subtree length")
    }

    fn kind(self) -> u32 {
        self.0 >> PAYLOAD_BITS
    }

    fn payload(self) -> usize {
        (self.0 & PAYLOAD_MASK) as usize
    }

    /// The driving signal, for a transistor word.
    pub fn signal(self) -> Option<Signal> {
        match self.kind() {
            KIND_INPUT => Some(Signal::Input {
                index: self.payload() >> 1,
                phase: if self.0 & 1 == 1 {
                    Phase::Neg
                } else {
                    Phase::Pos
                },
            }),
            KIND_GATE => Some(Signal::Gate(GateId::from_index(self.payload()))),
            _ => None,
        }
    }

    /// Whether the word is a transistor driven by a primary input.
    pub fn is_primary(self) -> bool {
        self.kind() == KIND_INPUT
    }

    /// Whether the word is a transistor.
    pub fn is_transistor(self) -> bool {
        self.kind() < KIND_SERIES
    }

    /// Whether the word heads a series node.
    pub fn is_series(self) -> bool {
        self.kind() == KIND_SERIES
    }

    /// Whether the word heads a parallel node.
    pub fn is_parallel(self) -> bool {
        self.kind() == KIND_PARALLEL
    }

    /// Words the subtree headed by this word occupies: 1 for a transistor.
    pub fn span(self) -> usize {
        if self.is_transistor() {
            1
        } else {
            self.payload()
        }
    }
}

impl fmt::Debug for PdnWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.signal() {
            Some(s) => write!(f, "{s}"),
            None if self.is_series() => write!(f, "S{}", self.payload()),
            None => write!(f, "P{}", self.payload()),
        }
    }
}

/// Checks that `words` is exactly one normalized tree: the root spans
/// every word, each series or parallel node's children tile its range,
/// there are at least two of them, and none has its parent's kind (nested
/// chains are spliced). Every word is a node of the tree, so checking each
/// header locally checks the whole tree, in one pass and without a stack.
fn check_tree(words: &[PdnWord]) -> Result<(), DominoError> {
    let malformed = |at: usize, what: &str| {
        Err(DominoError::MalformedPdn {
            what: format!("word {at}: {what}"),
        })
    };
    match words.first() {
        None => return malformed(0, "empty network"),
        Some(root) if root.span() != words.len() => {
            return malformed(0, "root does not span the network")
        }
        Some(_) => {}
    }
    for (at, word) in words.iter().enumerate() {
        if word.is_transistor() {
            continue;
        }
        let end = at + word.span();
        if end > words.len() {
            return malformed(at, "subtree runs past the network");
        }
        let (mut child, mut count) = (at + 1, 0);
        while child < end {
            let c = words[child];
            if c.kind() == word.kind() {
                return malformed(child, "child has its parent's kind");
            }
            if c.span() == 0 {
                return malformed(child, "empty subtree");
            }
            child += c.span();
            count += 1;
        }
        if child != end {
            return malformed(at, "children overrun their parent");
        }
        if count < 2 {
            return malformed(at, "fewer than two children");
        }
    }
    Ok(())
}

/// An owned pull-down network: one normalized tree of packed words.
///
/// By convention, the first child of a series node is at the *top*
/// (dynamic-node side) and the last child at the *bottom* (ground side) —
/// the orientation that matters for the parasitic bipolar effect.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pdn {
    words: Vec<PdnWord>,
}

impl Pdn {
    /// A single-transistor PDN.
    ///
    /// # Panics
    ///
    /// Panics if the signal's input index or gate id does not fit a word
    /// ([`PdnWord::transistor`] reports it as a typed error).
    pub fn transistor(signal: Signal) -> Pdn {
        let word = PdnWord::transistor(signal).unwrap_or_else(|e| panic!("{e}"));
        Pdn { words: vec![word] }
    }

    /// A series connection (normalized: unwraps singletons, splices nested
    /// series children).
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or the result does not fit a word.
    pub fn series(children: Vec<Pdn>) -> Pdn {
        Pdn::join(children, true)
    }

    /// A parallel connection (normalized: unwraps singletons, splices nested
    /// parallel children).
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or the result does not fit a word.
    pub fn parallel(children: Vec<Pdn>) -> Pdn {
        Pdn::join(children, false)
    }

    fn join(mut children: Vec<Pdn>, series: bool) -> Pdn {
        let what = if series { "series" } else { "parallel" };
        assert!(!children.is_empty(), "{what} requires at least one child");
        if children.len() == 1 {
            // A lone child is returned as is: a same-kind child would be
            // spliced into nothing, anything else stands alone.
            return children.pop().expect("one child");
        }
        let same = |p: &Pdn| p.words[0].is_series() == series && !p.words[0].is_transistor();
        let len = 1 + children
            .iter()
            .map(|c| c.words.len() - usize::from(same(c)))
            .sum::<usize>();
        let header = if series {
            PdnWord::series(len)
        } else {
            PdnWord::parallel(len)
        };
        let mut words = Vec::with_capacity(len);
        words.push(header.unwrap_or_else(|e| panic!("{e}")));
        for c in &children {
            words.extend_from_slice(&c.words[usize::from(same(c))..]);
        }
        Pdn { words }
    }

    /// Takes ownership of packed words.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::MalformedPdn`] unless `words` is exactly one
    /// normalized tree.
    pub fn from_words(words: Vec<PdnWord>) -> Result<Pdn, DominoError> {
        check_tree(&words)?;
        Ok(Pdn { words })
    }

    /// The borrowed view of the whole tree.
    pub fn view(&self) -> PdnRef<'_> {
        PdnRef {
            words: &self.words,
            at: 0,
        }
    }

    /// The packed words, in pre-order.
    pub fn words(&self) -> &[PdnWord] {
        &self.words
    }

    /// See [`PdnRef::width`].
    pub fn width(&self) -> u32 {
        self.view().width()
    }

    /// See [`PdnRef::height`].
    pub fn height(&self) -> u32 {
        self.view().height()
    }

    /// See [`PdnRef::transistor_count`].
    pub fn transistor_count(&self) -> u32 {
        self.view().transistor_count()
    }

    /// See [`PdnRef::conducts`].
    pub fn conducts(&self, value_of: &impl Fn(Signal) -> bool) -> bool {
        self.view().conducts(value_of)
    }

    /// See [`PdnRef::signals`].
    pub fn signals(&self) -> impl Iterator<Item = Signal> + '_ {
        self.view().signals()
    }

    /// See [`PdnRef::touches_primary_input`].
    pub fn touches_primary_input(&self) -> bool {
        self.view().touches_primary_input()
    }

    /// See [`PdnRef::flatten`].
    pub fn flatten(&self) -> PdnGraph {
        self.view().flatten()
    }
}

impl<'a> From<&'a Pdn> for PdnRef<'a> {
    fn from(pdn: &'a Pdn) -> PdnRef<'a> {
        pdn.view()
    }
}

impl PartialEq<PdnRef<'_>> for Pdn {
    fn eq(&self, other: &PdnRef<'_>) -> bool {
        self.view() == *other
    }
}

impl PartialEq<Pdn> for PdnRef<'_> {
    fn eq(&self, other: &Pdn) -> bool {
        *self == other.view()
    }
}

impl fmt::Display for Pdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl fmt::Debug for Pdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pdn({})", self.view())
    }
}

/// A borrowed view of one node of a packed tree and the subtree below it.
///
/// `offset()` is the node's word offset from its gate's root — the address
/// [`JunctionRef`]s use.
#[derive(Clone, Copy)]
pub struct PdnRef<'a> {
    /// The words of the whole tree the node belongs to.
    words: &'a [PdnWord],
    at: u32,
}

/// What a [`PdnRef`]'s node is.
#[derive(Debug, Clone, Copy)]
pub enum PdnNode<'a> {
    /// A single nmos transistor driven by `Signal`.
    Transistor(Signal),
    /// Children connected drain-to-source, top to bottom.
    Series(Children<'a>),
    /// Children connected in parallel between the same pair of nets.
    Parallel(Children<'a>),
}

/// The children of a series or parallel node, first (top) to last.
#[derive(Clone, Copy)]
pub struct Children<'a> {
    words: &'a [PdnWord],
    next: u32,
    end: u32,
}

impl<'a> Iterator for Children<'a> {
    type Item = PdnRef<'a>;

    fn next(&mut self) -> Option<PdnRef<'a>> {
        if self.next >= self.end {
            return None;
        }
        let child = PdnRef {
            words: self.words,
            at: self.next,
        };
        self.next += self.words[self.next as usize].span() as u32;
        Some(child)
    }
}

impl fmt::Debug for Children<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(*self).finish()
    }
}

impl<'a> PdnRef<'a> {
    /// Views packed words as a tree.
    ///
    /// # Errors
    ///
    /// Returns [`DominoError::MalformedPdn`] unless `words` is exactly one
    /// normalized tree.
    pub fn new(words: &'a [PdnWord]) -> Result<PdnRef<'a>, DominoError> {
        check_tree(words)?;
        Ok(PdnRef { words, at: 0 })
    }

    /// A view of words already known to form one tree.
    pub(crate) fn trusted(words: &'a [PdnWord]) -> PdnRef<'a> {
        PdnRef { words, at: 0 }
    }

    /// The node this view points at.
    pub fn root(self) -> PdnNode<'a> {
        let word = self.word();
        if let Some(signal) = word.signal() {
            return PdnNode::Transistor(signal);
        }
        let children = Children {
            words: self.words,
            next: self.at + 1,
            end: self.at + word.span() as u32,
        };
        if word.is_series() {
            PdnNode::Series(children)
        } else {
            PdnNode::Parallel(children)
        }
    }

    fn word(self) -> PdnWord {
        self.words[self.at as usize]
    }

    /// Word offset of this node from the root of its tree.
    pub fn offset(self) -> u32 {
        self.at
    }

    /// The subtree's words, in pre-order.
    pub fn words(self) -> &'a [PdnWord] {
        &self.words[self.at as usize..self.at as usize + self.word().span()]
    }

    /// The node at word offset `offset` of this view's tree, if that word
    /// exists.
    pub fn at(self, offset: u32) -> Option<PdnRef<'a>> {
        ((offset as usize) < self.words.len()).then_some(PdnRef {
            words: self.words,
            at: offset,
        })
    }

    /// Width of the network: the maximum number of parallel branches at any
    /// level (the paper's `W`).
    pub fn width(self) -> u32 {
        match self.root() {
            PdnNode::Transistor(_) => 1,
            PdnNode::Series(children) => children.map(PdnRef::width).max().unwrap_or(1),
            PdnNode::Parallel(children) => children.map(PdnRef::width).sum(),
        }
    }

    /// Height of the network: the maximum number of transistors in series on
    /// any path (the paper's `H`).
    pub fn height(self) -> u32 {
        match self.root() {
            PdnNode::Transistor(_) => 1,
            PdnNode::Series(children) => children.map(PdnRef::height).sum(),
            PdnNode::Parallel(children) => children.map(PdnRef::height).max().unwrap_or(1),
        }
    }

    /// Number of nmos transistors in the network.
    pub fn transistor_count(self) -> u32 {
        self.words().iter().filter(|w| w.is_transistor()).count() as u32
    }

    /// Whether a conducting path exists from top to bottom under the given
    /// signal valuation.
    pub fn conducts(self, value_of: &impl Fn(Signal) -> bool) -> bool {
        match self.root() {
            PdnNode::Transistor(sig) => value_of(sig),
            PdnNode::Series(mut children) => children.all(|c| c.conducts(value_of)),
            PdnNode::Parallel(mut children) => children.any(|c| c.conducts(value_of)),
        }
    }

    /// All signals driving transistors, in tree order (with repetitions).
    pub fn signals(self) -> impl Iterator<Item = Signal> + 'a {
        self.words().iter().filter_map(|w| w.signal())
    }

    /// Whether any transistor is driven directly by a primary input.
    pub fn touches_primary_input(self) -> bool {
        self.words().iter().any(|w| w.is_primary())
    }

    /// Whether `junction` names an internal junction of this tree: its
    /// node is a series node and `index + 1` is one of its children. Costs
    /// one step per child of that node, with no allocation.
    pub fn has_junction(self, junction: JunctionRef) -> bool {
        let Some(node) = self.at(junction.node) else {
            return false;
        };
        match node.root() {
            PdnNode::Series(mut children) => children.nth(junction.index as usize + 1).is_some(),
            _ => false,
        }
    }

    /// Flattens the tree into an explicit net/transistor graph.
    ///
    /// Net 0 is the dynamic node (top), net 1 the foot (bottom). Each
    /// junction between consecutive series children gets a fresh net, in
    /// depth-first order, recorded in the graph's dense junction table so
    /// that [`JunctionRef`]s resolve to nets.
    pub fn flatten(self) -> PdnGraph {
        let mut graph = PdnGraph {
            net_count: 2,
            transistors: Vec::new(),
            first_junction: vec![NO_JUNCTION; self.words.len()],
            junctions: Vec::new(),
        };
        flatten_into(self, PdnGraph::TOP, PdnGraph::FOOT, &mut graph);
        graph
    }
}

impl PartialEq for PdnRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for PdnRef<'_> {}

impl fmt::Display for PdnRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (children, sep) = match self.root() {
            PdnNode::Transistor(sig) => return write!(f, "{sig}"),
            PdnNode::Series(children) => (children, " * "),
            PdnNode::Parallel(children) => (children, " + "),
        };
        write!(f, "(")?;
        for (i, c) in children.enumerate() {
            if i > 0 {
                write!(f, "{sep}")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for PdnRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PdnRef@{}({self})", self.at)
    }
}

/// Identifier of a net in a flattened [`PdnGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Dense index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Address of an internal series junction of a gate's pull-down network:
/// the net between children `index` and `index + 1` of the series node at
/// word offset `node` from the gate's root.
///
/// Pre-discharge transistors attach to junctions; a `JunctionRef` stays
/// valid as long as the owning tree is not restructured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JunctionRef {
    /// Word offset of the series node.
    pub node: u32,
    /// Junction position: between child `index` and child `index + 1`.
    pub index: u32,
}

impl JunctionRef {
    /// Creates a junction reference.
    pub fn new(node: u32, index: u32) -> JunctionRef {
        JunctionRef { node, index }
    }
}

impl fmt::Display for JunctionRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j@{}:{}", self.node, self.index)
    }
}

/// One nmos transistor in a flattened [`PdnGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PdnTransistor {
    /// The controlling signal.
    pub signal: Signal,
    /// Net on the dynamic-node side (drain).
    pub upper: NetId,
    /// Net on the ground side (source).
    pub lower: NetId,
}

const NO_JUNCTION: u32 = u32::MAX;

/// Flattened net/transistor view of a PDN, produced by [`PdnRef::flatten`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdnGraph {
    net_count: u32,
    /// All transistors, in tree order.
    pub transistors: Vec<PdnTransistor>,
    /// Per word offset: the slot in `junctions` of a series node's first
    /// junction, `NO_JUNCTION` for other words.
    first_junction: Vec<u32>,
    /// Junction nets, grouped by series node in pre-order, each node's in
    /// junction order — so the table is sorted by [`JunctionRef`].
    junctions: Vec<(JunctionRef, NetId)>,
}

impl PdnGraph {
    /// The dynamic node (top of the PDN).
    pub const TOP: NetId = NetId(0);
    /// The foot node (bottom of the PDN, toward ground / the n-clock).
    pub const FOOT: NetId = NetId(1);

    /// Total number of nets, including `TOP` and `FOOT`.
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// Resolves a junction reference to its net.
    pub fn junction_net(&self, junction: &JunctionRef) -> Option<NetId> {
        let first = *self.first_junction.get(junction.node as usize)?;
        if first == NO_JUNCTION {
            return None;
        }
        let (at, net) = self
            .junctions
            .get(first as usize + junction.index as usize)?;
        (at == junction).then_some(*net)
    }

    /// All junction nets with their references, ordered by reference.
    pub fn junctions(&self) -> impl Iterator<Item = (&JunctionRef, NetId)> {
        self.junctions.iter().map(|(j, n)| (j, *n))
    }
}

fn flatten_into(pdn: PdnRef<'_>, top: NetId, bottom: NetId, graph: &mut PdnGraph) {
    match pdn.root() {
        PdnNode::Transistor(signal) => graph.transistors.push(PdnTransistor {
            signal,
            upper: top,
            lower: bottom,
        }),
        PdnNode::Series(children) => {
            // Reserve this node's slots now, so slots stay grouped by node
            // in pre-order while nets are numbered depth-first.
            let last = children.count() - 1;
            let first = graph.junctions.len();
            graph.first_junction[pdn.at as usize] = first as u32;
            graph.junctions.extend((0..last).map(|i| {
                (
                    JunctionRef::new(pdn.at, i as u32),
                    PdnGraph::FOOT, // overwritten below
                )
            }));
            let mut upper = top;
            for (i, child) in children.enumerate() {
                let lower = if i == last {
                    bottom
                } else {
                    let net = NetId(graph.net_count);
                    graph.net_count += 1;
                    graph.junctions[first + i].1 = net;
                    net
                };
                flatten_into(child, upper, lower, graph);
                upper = lower;
            }
        }
        PdnNode::Parallel(children) => {
            for child in children {
                flatten_into(child, top, bottom, graph);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: usize) -> Pdn {
        Pdn::transistor(Signal::input(i))
    }

    /// `(A + B + C) * D` — the paper's Fig. 2(a) example.
    fn fig2a() -> Pdn {
        Pdn::series(vec![Pdn::parallel(vec![sig(0), sig(1), sig(2)]), sig(3)])
    }

    #[test]
    fn width_height_of_fig2a() {
        let p = fig2a();
        assert_eq!(p.width(), 3);
        assert_eq!(p.height(), 2);
        assert_eq!(p.transistor_count(), 4);
    }

    #[test]
    fn conducts_matches_boolean_function() {
        let p = fig2a();
        // f = (a | b | c) & d
        for bits in 0..16u32 {
            let v = |s: Signal| match s {
                Signal::Input { index, phase } => phase.apply(bits & (1 << index) != 0),
                Signal::Gate(_) => unreachable!(),
            };
            let expect = ((bits & 0b0111) != 0) && (bits & 0b1000 != 0);
            assert_eq!(p.conducts(&v), expect, "bits {bits:04b}");
        }
    }

    #[test]
    fn series_normalization_splices() {
        let p = Pdn::series(vec![Pdn::series(vec![sig(0), sig(1)]), sig(2)]);
        match p.view().root() {
            PdnNode::Series(children) => assert_eq!(children.count(), 3),
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn singleton_unwraps() {
        assert_eq!(Pdn::series(vec![sig(5)]), sig(5));
        assert_eq!(Pdn::parallel(vec![sig(5)]), sig(5));
    }

    #[test]
    fn words_are_packed_in_pre_order_with_subtree_lengths() {
        let p = fig2a();
        let w = p.words();
        assert_eq!(w.len(), 6);
        assert!(w[0].is_series() && w[0].span() == 6);
        assert!(w[1].is_parallel() && w[1].span() == 4);
        assert_eq!(w[5].signal(), Some(Signal::input(3)));
        assert_eq!(format!("{w:?}"), "[S6, P4, i0, i1, i2, i3]");
        let neg = PdnWord::transistor(Signal::input_neg(7)).unwrap();
        assert_eq!(neg.signal(), Some(Signal::input_neg(7)));
        let gate = PdnWord::transistor(Signal::Gate(GateId::from_index(9))).unwrap();
        assert_eq!(gate.signal(), Some(Signal::Gate(GateId::from_index(9))));
        assert!(!gate.is_primary() && neg.is_primary());
    }

    #[test]
    fn oversized_payloads_are_typed_errors() {
        let max = PdnWord::MAX_PAYLOAD;
        assert!(PdnWord::transistor(Signal::input(max / 2)).is_ok());
        assert!(matches!(
            PdnWord::transistor(Signal::input(max / 2 + 1)),
            Err(DominoError::TooLarge { .. })
        ));
        assert!(matches!(
            PdnWord::transistor(Signal::Gate(GateId::from_index(max + 1))),
            Err(DominoError::TooLarge { .. })
        ));
        assert!(PdnWord::series(max).is_ok());
        assert!(matches!(
            PdnWord::parallel(max + 1),
            Err(DominoError::TooLarge { .. })
        ));
    }

    #[test]
    fn malformed_words_are_rejected() {
        let t = |i| PdnWord::transistor(Signal::input(i)).unwrap();
        let s = |n| PdnWord::series(n).unwrap();
        let p = |n| PdnWord::parallel(n).unwrap();
        assert!(Pdn::from_words(vec![s(3), t(0), t(1)]).is_ok());
        for bad in [
            vec![],
            vec![t(0), t(1)],                   // two roots
            vec![s(2), t(0)],                   // one child
            vec![s(4), t(0), t(1)],             // runs past the end
            vec![s(5), s(3), t(0), t(1), t(2)], // unspliced series
            vec![s(4), p(2), t(0), t(1)],       // parallel with one child
            vec![s(4), p(4), t(0), t(1)],       // child overruns its parent
            vec![s(3), p(0), t(1)],             // empty subtree
        ] {
            assert!(
                matches!(
                    Pdn::from_words(bad.clone()),
                    Err(DominoError::MalformedPdn { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn flatten_fig2a() {
        let p = fig2a();
        let g = p.flatten();
        assert_eq!(g.transistors.len(), 4);
        // One junction between the parallel stack and D.
        assert_eq!(g.net_count(), 3);
        let j = JunctionRef::new(0, 0);
        let net = g.junction_net(&j).unwrap();
        // The three parallel transistors end at the junction; D starts there.
        for t in &g.transistors[..3] {
            assert_eq!(t.upper, PdnGraph::TOP);
            assert_eq!(t.lower, net);
        }
        assert_eq!(g.transistors[3].upper, net);
        assert_eq!(g.transistors[3].lower, PdnGraph::FOOT);
        assert_eq!(g.junction_net(&JunctionRef::new(0, 1)), None);
        assert_eq!(g.junction_net(&JunctionRef::new(1, 0)), None);
        assert_eq!(g.junction_net(&JunctionRef::new(99, 0)), None);
    }

    #[test]
    fn flatten_nested_series_junctions() {
        // (a * b) + c: junction inside the parallel branch.
        let p = Pdn::parallel(vec![Pdn::series(vec![sig(0), sig(1)]), sig(2)]);
        let g = p.flatten();
        assert_eq!(g.net_count(), 3);
        let j = JunctionRef::new(1, 0);
        assert!(g.junction_net(&j).is_some());
        assert!(p.view().has_junction(j));
        assert!(!p.view().has_junction(JunctionRef::new(1, 1)));
        assert!(!p.view().has_junction(JunctionRef::new(0, 0)));
    }

    #[test]
    fn junctions_iterate_in_reference_order_with_depth_first_nets() {
        // (a + b*c) * d * (e*f + g)
        let p = Pdn::series(vec![
            Pdn::parallel(vec![sig(0), Pdn::series(vec![sig(1), sig(2)])]),
            sig(3),
            Pdn::parallel(vec![Pdn::series(vec![sig(4), sig(5)]), sig(6)]),
        ]);
        let g = p.flatten();
        let listed: Vec<(JunctionRef, NetId)> = g.junctions().map(|(j, n)| (*j, n)).collect();
        assert_eq!(
            listed,
            vec![
                (JunctionRef::new(0, 0), NetId(2)),
                (JunctionRef::new(0, 1), NetId(4)),
                (JunctionRef::new(3, 0), NetId(3)),
                (JunctionRef::new(8, 0), NetId(5)),
            ]
        );
    }

    #[test]
    fn views_walk_children_and_offsets() {
        let p = fig2a();
        let root = p.view();
        assert_eq!(root.offset(), 0);
        let PdnNode::Series(children) = root.root() else {
            panic!("series root");
        };
        let kids: Vec<_> = children.collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].offset(), 1);
        assert_eq!(kids[1].offset(), 5);
        assert_eq!(kids[1], sig(3));
        assert_eq!(kids[0], Pdn::parallel(vec![sig(0), sig(1), sig(2)]));
        assert_eq!(root.at(2).map(PdnRef::words), Some(sig(0).words()));
        assert!(root.at(6).is_none());
    }

    #[test]
    fn touches_primary_input() {
        assert!(fig2a().touches_primary_input());
        let p = Pdn::transistor(Signal::Gate(crate::GateId::from_index(0)));
        assert!(!p.touches_primary_input());
    }

    #[test]
    fn display_renders_structure() {
        let p = fig2a();
        assert_eq!(p.to_string(), "((i0 + i1 + i2) * i3)");
        assert_eq!(format!("{p:?}"), "Pdn(((i0 + i1 + i2) * i3))");
    }

    #[test]
    fn neg_phase_literal() {
        let p = Pdn::transistor(Signal::input_neg(2));
        let v = |s: Signal| match s {
            Signal::Input { phase, .. } => phase.apply(false),
            Signal::Gate(_) => unreachable!(),
        };
        assert!(p.conducts(&v));
        assert_eq!(p.to_string(), "i2'");
    }

    #[test]
    fn signals_in_tree_order() {
        let p = fig2a();
        let sigs: Vec<Signal> = p.signals().collect();
        assert_eq!(sigs.len(), 4);
        assert_eq!(sigs[0], Signal::input(0));
        assert_eq!(sigs[3], Signal::input(3));
    }
}
