use crate::fx::FxHashSet;

use crate::{BinOp, NetworkError, Node, NodeId, UnOp};

/// A named output port of a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OutputPort {
    /// Port name.
    pub name: String,
    /// The node driving this output.
    pub driver: NodeId,
}

/// A combinational logic network: a DAG of one- and two-input gates over
/// named primary inputs, with named primary outputs.
///
/// # Invariant
///
/// Nodes are stored in topological order: every fanin of a node precedes the
/// node itself. The gate-construction methods enforce this by only accepting
/// ids already handed out, so a freshly built network is always valid; use
/// [`Network::validate`] to re-check after external manipulation (e.g. after
/// parsing).
///
/// # Example
///
/// ```rust
/// use soi_netlist::Network;
///
/// let mut n = Network::new("xor-as-ao");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let x = n.xor2(a, b);
/// n.add_output("x", x);
/// assert_eq!(n.stats().binary_gates, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<OutputPort>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes (inputs, constants and gates).
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
    /// Panics if `id` does not refer to a node of this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node with the given id, or `None` if out of range.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Iterator over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Ids of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary output ports, in declaration order.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// Declares a new primary input and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(Node::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        self.push(Node::Const { value })
    }

    /// Adds a single-input gate.
    ///
    /// # Panics
    ///
    /// Panics if `a` has not been created by this network yet.
    pub fn unary(&mut self, op: UnOp, a: NodeId) -> NodeId {
        assert!(a.index() < self.nodes.len(), "fanin {a} out of range");
        self.push(Node::Unary { op, a })
    }

    /// Adds a two-input gate.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` have not been created by this network yet.
    pub fn binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        assert!(a.index() < self.nodes.len(), "fanin {a} out of range");
        assert!(b.index() < self.nodes.len(), "fanin {b} out of range");
        self.push(Node::Binary { op, a, b })
    }

    /// Adds an inverter.
    pub fn inv(&mut self, a: NodeId) -> NodeId {
        self.unary(UnOp::Inv, a)
    }

    /// Adds a buffer.
    pub fn buf(&mut self, a: NodeId) -> NodeId {
        self.unary(UnOp::Buf, a)
    }

    /// Adds a two-input AND gate.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::And, a, b)
    }

    /// Adds a two-input OR gate.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Or, a, b)
    }

    /// Adds a two-input NAND gate.
    pub fn nand2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Nand, a, b)
    }

    /// Adds a two-input NOR gate.
    pub fn nor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Nor, a, b)
    }

    /// Adds a two-input XOR gate.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Xor, a, b)
    }

    /// Adds a two-input XNOR gate.
    pub fn xnor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::Xnor, a, b)
    }

    /// Builds a balanced AND tree over the given signals.
    ///
    /// # Panics
    ///
    /// Panics if `signals` is empty.
    pub fn and_tree(&mut self, signals: &[NodeId]) -> NodeId {
        self.reduce_tree(BinOp::And, signals)
    }

    /// Builds a balanced OR tree over the given signals.
    ///
    /// # Panics
    ///
    /// Panics if `signals` is empty.
    pub fn or_tree(&mut self, signals: &[NodeId]) -> NodeId {
        self.reduce_tree(BinOp::Or, signals)
    }

    /// Builds a balanced XOR tree over the given signals.
    ///
    /// # Panics
    ///
    /// Panics if `signals` is empty.
    pub fn xor_tree(&mut self, signals: &[NodeId]) -> NodeId {
        self.reduce_tree(BinOp::Xor, signals)
    }

    fn reduce_tree(&mut self, op: BinOp, signals: &[NodeId]) -> NodeId {
        assert!(!signals.is_empty(), "cannot reduce an empty signal list");
        let mut level: Vec<NodeId> = signals.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.binary(op, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// A 2:1 multiplexer: `sel ? hi : lo`, built from AND/OR/INV gates.
    pub fn mux2(&mut self, sel: NodeId, lo: NodeId, hi: NodeId) -> NodeId {
        let nsel = self.inv(sel);
        let pick_hi = self.and2(sel, hi);
        let pick_lo = self.and2(nsel, lo);
        self.or2(pick_hi, pick_lo)
    }

    /// Declares a named primary output driven by `driver`.
    ///
    /// # Panics
    ///
    /// Panics if `driver` has not been created by this network yet.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) {
        assert!(
            driver.index() < self.nodes.len(),
            "output driver {driver} out of range"
        );
        self.outputs.push(OutputPort {
            name: name.into(),
            driver,
        });
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    // ---- Fault-injection hooks -------------------------------------------
    //
    // The `_unchecked` mutators below deliberately bypass the invariants
    // that every other constructor maintains. They exist so that
    // `soi-guard::inject` can manufacture *corrupted* networks and prove the
    // pipeline rejects them. A network touched by any of these methods is
    // untrusted until [`Network::validate`] says otherwise.

    /// Replaces a node wholesale, with no invariant checking.
    ///
    /// Fault-injection hook: the new node may reference dangling or forward
    /// fanins, or rename a primary input into a name collision. Run
    /// [`Network::validate`] before trusting the result.
    ///
    /// # Panics
    ///
    /// Panics only if `id` itself is out of range (there is no slot to
    /// overwrite).
    pub fn set_node_unchecked(&mut self, id: NodeId, node: Node) {
        self.nodes[id.index()] = node;
    }

    /// Redirects an output port's driver, with no range checking.
    ///
    /// Fault-injection hook; see [`Network::set_node_unchecked`].
    ///
    /// # Panics
    ///
    /// Panics only if `port` is not an existing output-port index.
    pub fn set_output_driver_unchecked(&mut self, port: usize, driver: NodeId) {
        self.outputs[port].driver = driver;
    }

    /// Swaps two node slots without fixing up any fanin references —
    /// typically breaking the topological order.
    ///
    /// Fault-injection hook; see [`Network::set_node_unchecked`].
    ///
    /// # Panics
    ///
    /// Panics only if either id is out of range.
    pub fn swap_nodes_unchecked(&mut self, i: NodeId, j: NodeId) {
        self.nodes.swap(i.index(), j.index());
    }

    /// Number of fanout edges of each node (output ports count as one each).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for fanin in node.fanins() {
                counts[fanin.index()] += 1;
            }
        }
        for port in &self.outputs {
            counts[port.driver.index()] += 1;
        }
        counts
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling or forward fanins,
    /// dangling output drivers, or duplicate port names.
    pub fn validate(&self) -> Result<(), NetworkError> {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::from_index(i);
            for fanin in node.fanins() {
                if fanin.index() >= self.nodes.len() {
                    return Err(NetworkError::DanglingFanin { node: id, fanin });
                }
                if fanin.index() >= i {
                    return Err(NetworkError::ForwardFanin { node: id, fanin });
                }
            }
        }
        for port in &self.outputs {
            if port.driver.index() >= self.nodes.len() {
                return Err(NetworkError::DanglingOutput {
                    name: port.name.clone(),
                    driver: port.driver,
                });
            }
        }
        // The names are borrowed, so checking them allocates two tables
        // whatever their number.
        let mut names = FxHashSet::with_capacity_and_hasher(self.inputs.len(), Default::default());
        for id in &self.inputs {
            if let Node::Input { name } = self.node(*id) {
                if !names.insert(name.as_str()) {
                    return Err(NetworkError::DuplicateName { name: name.clone() });
                }
            }
        }
        let mut out_names =
            FxHashSet::with_capacity_and_hasher(self.outputs.len(), Default::default());
        for port in &self.outputs {
            if !out_names.insert(port.name.as_str()) {
                return Err(NetworkError::DuplicateName {
                    name: port.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the network on one input vector (ordered as
    /// [`Network::inputs`]) and returns the output values (ordered as
    /// [`Network::outputs`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputArity`] if `values` does not match the
    /// number of primary inputs.
    pub fn simulate(&self, values: &[bool]) -> Result<Vec<bool>, NetworkError> {
        if values.len() != self.inputs.len() {
            return Err(NetworkError::InputArity {
                expected: self.inputs.len(),
                got: values.len(),
            });
        }
        let mut state = vec![false; self.nodes.len()];
        let mut next_input = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            state[i] = match node {
                Node::Input { .. } => {
                    let v = values[next_input];
                    next_input += 1;
                    v
                }
                Node::Const { value } => *value,
                Node::Unary { op, a } => op.eval(state[a.index()]),
                Node::Binary { op, a, b } => op.eval(state[a.index()], state[b.index()]),
            };
        }
        Ok(self
            .outputs
            .iter()
            .map(|p| state[p.driver.index()])
            .collect())
    }

    /// Returns the statistics summary for this network.
    pub fn stats(&self) -> crate::NetworkStats {
        crate::stats::collect(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Network {
        let mut n = Network::new("ha");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.xor2(a, b);
        let c = n.and2(a, b);
        n.add_output("s", s);
        n.add_output("c", c);
        n
    }

    #[test]
    fn simulate_half_adder() {
        let n = half_adder();
        assert_eq!(n.simulate(&[false, false]).unwrap(), vec![false, false]);
        assert_eq!(n.simulate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(n.simulate(&[true, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn simulate_rejects_wrong_arity() {
        let n = half_adder();
        assert_eq!(
            n.simulate(&[true]),
            Err(NetworkError::InputArity {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn validate_fresh_network() {
        assert_eq!(half_adder().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_duplicate_outputs() {
        let mut n = half_adder();
        let a = n.inputs()[0];
        n.add_output("s", a);
        assert!(matches!(
            n.validate(),
            Err(NetworkError::DuplicateName { .. })
        ));
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let n = half_adder();
        let counts = n.fanout_counts();
        // a and b each feed xor and and.
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 2);
        // each gate feeds one output port.
        assert_eq!(counts[2], 1);
        assert_eq!(counts[3], 1);
    }

    #[test]
    fn mux2_selects() {
        let mut n = Network::new("mux");
        let s = n.add_input("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let m = n.mux2(s, a, b);
        n.add_output("m", m);
        assert_eq!(n.simulate(&[false, true, false]).unwrap(), vec![true]);
        assert_eq!(n.simulate(&[true, true, false]).unwrap(), vec![false]);
        assert_eq!(n.simulate(&[true, false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn and_tree_of_five() {
        let mut n = Network::new("t");
        let sigs: Vec<_> = (0..5).map(|i| n.add_input(format!("i{i}"))).collect();
        let root = n.and_tree(&sigs);
        n.add_output("o", root);
        assert_eq!(n.simulate(&[true; 5]).unwrap(), vec![true]);
        assert_eq!(
            n.simulate(&[true, true, false, true, true]).unwrap(),
            vec![false]
        );
    }

    #[test]
    fn const_nodes_evaluate() {
        let mut n = Network::new("c");
        let a = n.add_input("a");
        let one = n.add_const(true);
        let o = n.and2(a, one);
        n.add_output("o", o);
        assert_eq!(n.simulate(&[true]).unwrap(), vec![true]);
        assert_eq!(n.simulate(&[false]).unwrap(), vec![false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_fanin_panics() {
        let mut n = Network::new("bad");
        let _ = n.and2(NodeId::from_index(5), NodeId::from_index(6));
    }
}
