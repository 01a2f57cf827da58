use std::fmt;

use soi_netlist::{Network, NetworkError};

/// Phase of a primary-input literal in a unate network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The input as-is.
    Pos,
    /// The complemented input (realized by an inverter at the input
    /// boundary).
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

/// A primary-input literal: input `index` in the given phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// Index into [`UnateNetwork::input_names`].
    pub input: usize,
    /// The phase.
    pub phase: Phase,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            Phase::Pos => write!(f, "x{}", self.input),
            Phase::Neg => write!(f, "x{}'", self.input),
        }
    }
}

/// Identifier of a node in a [`UnateNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UId(pub(crate) u32);

impl UId {
    /// Creates an id from a raw index.
    pub fn from_index(index: usize) -> UId {
        UId(u32::try_from(index).expect("unate node index exceeds u32 range"))
    }

    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A signal inside a unate network: a node or a folded constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum USignal {
    /// A network node.
    Node(UId),
    /// A constant (arises from constant folding during conversion).
    Const(bool),
}

/// A node of a [`UnateNetwork`]: a literal leaf or a monotone 2-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UNode {
    /// A primary-input literal.
    Lit(Literal),
    /// Two-input AND.
    And(UId, UId),
    /// Two-input OR.
    Or(UId, UId),
}

impl UNode {
    /// The fanins of the node (empty for literals).
    pub fn fanins(&self) -> impl Iterator<Item = UId> {
        let pair = match *self {
            UNode::Lit(_) => [None, None],
            UNode::And(a, b) | UNode::Or(a, b) => [Some(a), Some(b)],
        };
        pair.into_iter().flatten()
    }

    /// Whether the node is a gate (AND or OR).
    pub fn is_gate(&self) -> bool {
        !matches!(self, UNode::Lit(_))
    }
}

/// A named output of a unate network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnateOutput {
    /// Port name (matches the original network's output name).
    pub name: String,
    /// The driving signal.
    pub signal: USignal,
    /// Whether an inverter sits at the output boundary (the unate network
    /// computes the complement of the original output).
    pub inverted: bool,
}

/// Structural statistics of a [`UnateNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnateStats {
    /// Number of literal leaves.
    pub literals: usize,
    /// Number of AND gates.
    pub and_gates: usize,
    /// Number of OR gates.
    pub or_gates: usize,
    /// Depth in gate levels (literals are level 0).
    pub depth: u32,
    /// Number of outputs carrying a boundary inverter.
    pub inverted_outputs: usize,
}

impl UnateStats {
    /// Total number of 2-input gates.
    pub fn gates(&self) -> usize {
        self.and_gates + self.or_gates
    }
}

/// One fanout-free cone of a [`ConePartition`]: a maximal set of nodes in
/// which every non-root node feeds exactly one consumer, itself in the
/// same unit. A view into the partition's flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeUnit<'a> {
    nodes: &'a [UId],
    deps: &'a [usize],
}

impl<'a> ConeUnit<'a> {
    /// The unit's nodes in topological order (the root is last).
    pub fn nodes(&self) -> &'a [UId] {
        self.nodes
    }

    /// Indices of the units whose roots this unit reads (sorted, deduped).
    /// Always strictly smaller than this unit's own index.
    pub fn deps(&self) -> &'a [usize] {
        self.deps
    }

    /// The unit's root: its only node visible outside the unit.
    pub fn root(&self) -> UId {
        *self.nodes.last().expect("a unit is never empty")
    }
}

/// The units of a [`ConePartition`], by index.
#[derive(Debug, Clone, Copy)]
pub struct Units<'a> {
    partition: &'a ConePartition,
}

impl<'a> Units<'a> {
    /// Number of units.
    pub fn len(&self) -> usize {
        self.partition.offsets.len() - 1
    }

    /// Whether the partition has no units (an empty network).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The units in index order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = ConeUnit<'a>> + ExactSizeIterator + 'a {
        let partition = self.partition;
        (0..self.len()).map(move |u| partition.unit(u))
    }
}

/// A partition of a network's topological order into fanout-free cone
/// units plus their dependency levels, which are the mapper's parallel
/// schedule — see [`UnateNetwork::cone_partition`].
///
/// The units live in two flat arrays, one of nodes and one of
/// dependencies, unit after unit, with one pair of offsets per unit; the
/// levels are a third flat array of unit indices with offsets. Building
/// or dropping a partition is a handful of allocations, whatever its
/// size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConePartition {
    /// Every unit's nodes in topological order, unit after unit.
    nodes: Vec<UId>,
    /// Every unit's dependencies, sorted and deduped, unit after unit.
    deps: Vec<usize>,
    /// `[node start, dependency start]` of each unit, plus the end of
    /// both arrays: unit `u` owns `offsets[u]..offsets[u + 1]` of each.
    offsets: Vec<[u32; 2]>,
    /// Unit indices level after level, each level in index order.
    level_units: Vec<usize>,
    /// Start of each level in `level_units`, plus its end.
    level_offsets: Vec<u32>,
}

impl ConePartition {
    /// All units, ordered by their root's topological index.
    pub fn units(&self) -> Units<'_> {
        Units { partition: self }
    }

    /// The unit with the given index.
    pub fn unit(&self, index: usize) -> ConeUnit<'_> {
        let ([n0, d0], [n1, d1]) = (self.offsets[index], self.offsets[index + 1]);
        ConeUnit {
            nodes: &self.nodes[n0 as usize..n1 as usize],
            deps: &self.deps[d0 as usize..d1 as usize],
        }
    }

    /// Unit indices grouped by dependency level, each level in index
    /// order: units within one level are mutually independent, and depend
    /// only on units of earlier levels. The mapper's parallel DP walks
    /// these levels in order with a barrier between them.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = &[usize]> + ExactSizeIterator + '_ {
        self.level_offsets
            .windows(2)
            .map(|w| &self.level_units[w[0] as usize..w[1] as usize])
    }
}

/// An inverter-free network of 2-input AND/OR gates over primary-input
/// literals — the mapper's input representation.
///
/// Nodes are stored in topological order (fanins precede fanouts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnateNetwork {
    input_names: Vec<String>,
    nodes: Vec<UNode>,
    outputs: Vec<UnateOutput>,
}

impl UnateNetwork {
    /// Creates an empty unate network over the given primary inputs.
    pub fn new(input_names: Vec<String>) -> UnateNetwork {
        UnateNetwork {
            input_names,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Names of the primary inputs of the *original* network.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: UId) -> UNode {
        self.nodes[id.index()]
    }

    /// Iterator over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (UId, UNode)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (UId::from_index(i), *n))
    }

    /// The output bindings.
    pub fn outputs(&self) -> &[UnateOutput] {
        &self.outputs
    }

    /// Adds a literal node.
    ///
    /// # Panics
    ///
    /// Panics if the literal's input index is out of range.
    pub fn add_literal(&mut self, literal: Literal) -> UId {
        assert!(
            literal.input < self.input_names.len(),
            "literal input {} out of range",
            literal.input
        );
        self.push(UNode::Lit(literal))
    }

    /// Adds an AND gate.
    ///
    /// # Panics
    ///
    /// Panics if a fanin id is not yet defined.
    pub fn add_and(&mut self, a: UId, b: UId) -> UId {
        self.check(a);
        self.check(b);
        self.push(UNode::And(a, b))
    }

    /// Adds an OR gate.
    ///
    /// # Panics
    ///
    /// Panics if a fanin id is not yet defined.
    pub fn add_or(&mut self, a: UId, b: UId) -> UId {
        self.check(a);
        self.check(b);
        self.push(UNode::Or(a, b))
    }

    /// Binds a named output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: USignal, inverted: bool) {
        if let USignal::Node(id) = signal {
            self.check(id);
        }
        self.outputs.push(UnateOutput {
            name: name.into(),
            signal,
            inverted,
        });
    }

    fn check(&self, id: UId) {
        assert!(id.index() < self.nodes.len(), "node {id} not yet defined");
    }

    fn push(&mut self, node: UNode) -> UId {
        let id = UId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Whether the network is inverter-free — trivially true by
    /// construction; checks that every node is a literal, AND or OR, and
    /// that every gate's fanins precede it.
    pub fn is_inverter_free(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .all(|(i, n)| n.fanins().all(|f| f.index() < i))
    }

    /// Number of fanout edges per node (outputs count as one each).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for fanin in node.fanins() {
                counts[fanin.index()] += 1;
            }
        }
        for out in &self.outputs {
            if let USignal::Node(id) = out.signal {
                counts[id.index()] += 1;
            }
        }
        counts
    }

    /// Structural statistics.
    pub fn stats(&self) -> UnateStats {
        let mut stats = UnateStats {
            inverted_outputs: self.outputs.iter().filter(|o| o.inverted).count(),
            ..UnateStats::default()
        };
        let mut levels = vec![0u32; self.nodes.len()];
        for (id, node) in self.iter() {
            match node {
                UNode::Lit(_) => stats.literals += 1,
                UNode::And(a, b) => {
                    stats.and_gates += 1;
                    levels[id.index()] = 1 + levels[a.index()].max(levels[b.index()]);
                }
                UNode::Or(a, b) => {
                    stats.or_gates += 1;
                    levels[id.index()] = 1 + levels[a.index()].max(levels[b.index()]);
                }
            }
        }
        stats.depth = self
            .outputs
            .iter()
            .filter_map(|o| match o.signal {
                USignal::Node(id) => Some(levels[id.index()]),
                USignal::Const(_) => None,
            })
            .max()
            .unwrap_or(0);
        stats
    }

    /// Evaluates the network on one primary-input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputArity`] if `values` has the wrong
    /// length.
    pub fn simulate(&self, values: &[bool]) -> Result<Vec<bool>, NetworkError> {
        if values.len() != self.input_names.len() {
            return Err(NetworkError::InputArity {
                expected: self.input_names.len(),
                got: values.len(),
            });
        }
        let mut state = vec![false; self.nodes.len()];
        for (id, node) in self.iter() {
            state[id.index()] = match node {
                UNode::Lit(l) => l.phase.apply(values[l.input]),
                UNode::And(a, b) => state[a.index()] && state[b.index()],
                UNode::Or(a, b) => state[a.index()] || state[b.index()],
            };
        }
        Ok(self
            .outputs
            .iter()
            .map(|o| {
                let v = match o.signal {
                    USignal::Node(id) => state[id.index()],
                    USignal::Const(c) => c,
                };
                v != o.inverted
            })
            .collect())
    }

    /// Partitions the topological order into fanout-free cone work units.
    ///
    /// Every node belongs to exactly one unit. A node whose single fanout
    /// edge goes to a gate joins that consumer's unit; nodes with multiple
    /// fanouts (or none, or whose only consumer is a primary output) root
    /// their own unit. Units therefore only depend on each other across
    /// multi-fanout boundaries, which makes each unit an independently
    /// solvable tree for any DP that joins at those boundaries.
    ///
    /// The returned partition also carries the level schedule the mapper's
    /// parallel DP walks: units in the same level have no dependencies
    /// among themselves and run concurrently once all earlier levels are
    /// done. Each level lists its units in index order; the scheduler
    /// chooses its own claim order.
    pub fn cone_partition(&self) -> ConePartition {
        let n = self.nodes.len();
        let fanout = self.fanout_counts();
        // The gate consuming each node, if any (last writer wins; only
        // consulted when the node has exactly one fanout edge, in which
        // case the writer is unique and is that edge).
        let mut gate_consumer: Vec<Option<UId>> = vec![None; n];
        for (id, node) in self.iter() {
            for fanin in node.fanins() {
                gate_consumer[fanin.index()] = Some(id);
            }
        }
        // Assign units in reverse topological order so a fanout-free node
        // can inherit its consumer's unit.
        let mut unit_of = vec![u32::MAX; n];
        let mut roots = 0u32;
        for i in (0..n).rev() {
            unit_of[i] = match gate_consumer[i] {
                Some(c) if fanout[i] == 1 => unit_of[c.index()],
                _ => {
                    roots += 1;
                    roots - 1
                }
            };
        }
        // Reverse discovery order numbered roots from the outputs down;
        // flip so unit ids ascend with their root's topological index.
        for u in &mut unit_of {
            *u = roots - 1 - *u;
        }
        let roots = roots as usize;
        // A counting sort of the topological order by unit: each unit's
        // nodes stay in topological order.
        let mut offsets = vec![[0u32; 2]; roots + 1];
        for &u in &unit_of {
            offsets[u as usize + 1][0] += 1;
        }
        for u in 0..roots {
            offsets[u + 1][0] += offsets[u][0];
        }
        let mut cursor: Vec<u32> = offsets[..roots].iter().map(|o| o[0]).collect();
        let mut nodes = vec![UId(0); n];
        for (i, &u) in unit_of.iter().enumerate() {
            nodes[cursor[u as usize] as usize] = UId(i as u32);
            cursor[u as usize] += 1;
        }
        // A unit's dependencies are roots of earlier units, so dep < unit
        // always holds and levels can be computed in one forward pass.
        let mut deps = Vec::new();
        let mut unit_deps = Vec::new();
        let mut level_of = vec![0u32; roots];
        let mut depth = 0usize;
        for u in 0..roots {
            unit_deps.clear();
            for &id in &nodes[offsets[u][0] as usize..offsets[u + 1][0] as usize] {
                for fanin in self.node(id).fanins() {
                    let d = unit_of[fanin.index()] as usize;
                    if d != u {
                        unit_deps.push(d);
                    }
                }
            }
            unit_deps.sort_unstable();
            unit_deps.dedup();
            deps.extend_from_slice(&unit_deps);
            offsets[u + 1][1] = deps.len() as u32;
            let level = unit_deps
                .iter()
                .map(|&d| level_of[d] + 1)
                .max()
                .unwrap_or(0);
            level_of[u] = level;
            depth = depth.max(level as usize + 1);
        }
        // A counting sort of the units by level, in index order within
        // each level.
        let mut level_offsets = vec![0u32; depth + 1];
        for &level in &level_of {
            level_offsets[level as usize + 1] += 1;
        }
        for l in 0..depth {
            level_offsets[l + 1] += level_offsets[l];
        }
        cursor.clear();
        cursor.extend_from_slice(&level_offsets[..depth]);
        let mut level_units = vec![0usize; roots];
        for (u, &level) in level_of.iter().enumerate() {
            level_units[cursor[level as usize] as usize] = u;
            cursor[level as usize] += 1;
        }
        ConePartition {
            nodes,
            deps,
            offsets,
            level_units,
            level_offsets,
        }
    }

    /// Lowers the unate network back into a gate-level [`Network`] (literals
    /// become input-side inverters, boundary inversions become output-side
    /// inverters) for equivalence checking against the original.
    pub fn to_network(&self) -> Network {
        let mut n = Network::new("unate");
        let inputs: Vec<_> = self
            .input_names
            .iter()
            .map(|name| n.add_input(name.clone()))
            .collect();
        let mut neg_inputs: Vec<Option<soi_netlist::NodeId>> = vec![None; inputs.len()];
        let mut mapped = Vec::with_capacity(self.nodes.len());
        for (_, node) in self.iter() {
            let id = match node {
                UNode::Lit(l) => match l.phase {
                    Phase::Pos => inputs[l.input],
                    Phase::Neg => {
                        *neg_inputs[l.input].get_or_insert_with(|| n.inv(inputs[l.input]))
                    }
                },
                UNode::And(a, b) => n.and2(mapped[a.index()], mapped[b.index()]),
                UNode::Or(a, b) => n.or2(mapped[a.index()], mapped[b.index()]),
            };
            mapped.push(id);
        }
        for out in &self.outputs {
            let driver = match out.signal {
                USignal::Node(id) => mapped[id.index()],
                USignal::Const(c) => n.add_const(c),
            };
            let driver = if out.inverted { n.inv(driver) } else { driver };
            n.add_output(out.name.clone(), driver);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> UnateNetwork {
        // f = (a + b') * c
        let mut u = UnateNetwork::new(vec!["a".into(), "b".into(), "c".into()]);
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        let nb = u.add_literal(Literal {
            input: 1,
            phase: Phase::Neg,
        });
        let c = u.add_literal(Literal {
            input: 2,
            phase: Phase::Pos,
        });
        let o = u.add_or(a, nb);
        let f = u.add_and(o, c);
        u.add_output("f", USignal::Node(f), false);
        u
    }

    #[test]
    fn simulate_matches_function() {
        let u = small();
        for bits in 0..8u8 {
            let v = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            let expect = (v[0] || !v[1]) && v[2];
            assert_eq!(u.simulate(&v).unwrap(), vec![expect], "{bits:03b}");
        }
    }

    #[test]
    fn stats_of_small() {
        let u = small();
        let s = u.stats();
        assert_eq!(s.literals, 3);
        assert_eq!(s.and_gates, 1);
        assert_eq!(s.or_gates, 1);
        assert_eq!(s.gates(), 2);
        assert_eq!(s.depth, 2);
    }

    #[test]
    fn to_network_is_equivalent() {
        let u = small();
        let n = u.to_network();
        for bits in 0..8u8 {
            let v = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            assert_eq!(u.simulate(&v).unwrap(), n.simulate(&v).unwrap());
        }
    }

    #[test]
    fn inverted_output_flips() {
        let mut u = small();
        let f = UId::from_index(4);
        u.add_output("nf", USignal::Node(f), true);
        let out = u.simulate(&[true, false, true]).unwrap();
        assert_eq!(out[0], !out[1]);
    }

    #[test]
    fn const_output() {
        let mut u = UnateNetwork::new(vec!["a".into()]);
        u.add_output("one", USignal::Const(true), false);
        u.add_output("zero", USignal::Const(true), true);
        assert_eq!(u.simulate(&[false]).unwrap(), vec![true, false]);
        let n = u.to_network();
        assert_eq!(n.simulate(&[false]).unwrap(), vec![true, false]);
    }

    #[test]
    fn inverter_free_by_construction() {
        assert!(small().is_inverter_free());
    }

    #[test]
    fn fanout_counts() {
        let u = small();
        let counts = u.fanout_counts();
        assert_eq!(counts[3], 1); // or feeds and
        assert_eq!(counts[4], 1); // and feeds output
    }

    /// Checks the structural invariants every partition must satisfy.
    fn check_partition(u: &UnateNetwork) {
        let p = u.cone_partition();
        // Every node in exactly one unit, units in topo order.
        let mut seen = vec![false; u.len()];
        for unit in p.units().iter() {
            let mut last = None;
            for &id in unit.nodes() {
                assert!(!seen[id.index()], "{id} in two units");
                seen[id.index()] = true;
                assert!(last.is_none_or(|l| l < id.index()));
                last = Some(id.index());
            }
        }
        assert!(seen.iter().all(|&s| s), "node missing from partition");
        // Deps point strictly backwards and land on unit roots.
        for (i, unit) in p.units().iter().enumerate() {
            for &d in unit.deps() {
                assert!(d < i, "unit {i} depends forward on {d}");
            }
        }
        // Levels cover all units; deps live in earlier levels.
        let mut level_of = vec![usize::MAX; p.units().len()];
        for (l, units) in p.levels().enumerate() {
            for &un in units {
                level_of[un] = l;
            }
        }
        for (i, unit) in p.units().iter().enumerate() {
            assert_ne!(level_of[i], usize::MAX);
            for &d in unit.deps() {
                assert!(level_of[d] < level_of[i]);
            }
        }
    }

    #[test]
    fn cone_partition_of_tree_is_one_unit() {
        // `small` is a pure tree: every node has fanout 1 into a gate,
        // except the output root.
        let u = small();
        let p = u.cone_partition();
        check_partition(&u);
        assert_eq!(p.units().len(), 1);
        assert_eq!(p.unit(0).nodes().len(), 5);
        assert_eq!(p.unit(0).root(), UId::from_index(4));
        assert_eq!(p.levels().len(), 1);
    }

    #[test]
    fn cone_partition_splits_at_multi_fanout() {
        // shared = a & b feeds two consumers: three units, two levels.
        let mut u = UnateNetwork::new(vec!["a".into(), "b".into(), "c".into()]);
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        let b = u.add_literal(Literal {
            input: 1,
            phase: Phase::Pos,
        });
        let c = u.add_literal(Literal {
            input: 2,
            phase: Phase::Pos,
        });
        let shared = u.add_and(a, b);
        let f1 = u.add_or(shared, c);
        let f2 = u.add_and(shared, c);
        u.add_output("f1", USignal::Node(f1), false);
        u.add_output("f2", USignal::Node(f2), false);
        check_partition(&u);
        let p = u.cone_partition();
        // Units: {a, b, shared}, {c} (two consumers), {f1}, {f2}.
        assert_eq!(p.units().len(), 4);
        assert_eq!(p.levels().len(), 2);
        assert_eq!(
            p.levels().nth(1).unwrap().len(),
            2,
            "f1 and f2 run concurrently"
        );
        let shared_unit = p
            .units()
            .iter()
            .find(|un| un.root() == shared)
            .expect("shared roots a unit");
        assert_eq!(shared_unit.nodes(), &[a, b, shared]);
    }

    #[test]
    fn cone_partition_output_consumer_is_a_root() {
        // A node driving only a primary output roots its own unit even
        // with fanout 1.
        let u = small();
        let p = u.cone_partition();
        assert_eq!(p.unit(p.units().len() - 1).root(), UId::from_index(4));
    }

    #[test]
    fn cone_partition_duplicate_fanin_is_a_boundary() {
        // And(a, a): a has two fanout edges, so it must root its own unit.
        let mut u = UnateNetwork::new(vec!["a".into()]);
        let a = u.add_literal(Literal {
            input: 0,
            phase: Phase::Pos,
        });
        let f = u.add_and(a, a);
        u.add_output("f", USignal::Node(f), false);
        check_partition(&u);
        let p = u.cone_partition();
        assert_eq!(p.units().len(), 2);
        assert_eq!(p.unit(0).nodes(), &[a]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_literal_panics() {
        let mut u = UnateNetwork::new(vec!["a".into()]);
        u.add_literal(Literal {
            input: 3,
            phase: Phase::Pos,
        });
    }
}
