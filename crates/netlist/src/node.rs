use std::fmt;

use crate::NodeId;

/// Two-input logic operations supported by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
}

impl BinOp {
    /// Applies the operation to two boolean values.
    ///
    /// ```rust
    /// use soi_netlist::BinOp;
    /// assert!(BinOp::Xor.eval(true, false));
    /// assert!(!BinOp::Nand.eval(true, true));
    /// ```
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            BinOp::And => a && b,
            BinOp::Or => a || b,
            BinOp::Nand => !(a && b),
            BinOp::Nor => !(a || b),
            BinOp::Xor => a ^ b,
            BinOp::Xnor => !(a ^ b),
        }
    }

    /// Applies the operation to two 64-wide bit-parallel words.
    pub fn eval_word(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Nand => !(a & b),
            BinOp::Nor => !(a | b),
            BinOp::Xor => a ^ b,
            BinOp::Xnor => !(a ^ b),
        }
    }

    /// Whether the operation is monotone non-decreasing in both inputs.
    ///
    /// Only monotone operations survive binate-to-unate conversion untouched;
    /// the rest are decomposed by `soi-unate`.
    pub fn is_monotone(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// All supported operations, useful for exhaustive tests and generators.
    pub const ALL: [BinOp; 6] = [
        BinOp::And,
        BinOp::Or,
        BinOp::Nand,
        BinOp::Nor,
        BinOp::Xor,
        BinOp::Xnor,
    ];
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Nand => "nand",
            BinOp::Nor => "nor",
            BinOp::Xor => "xor",
            BinOp::Xnor => "xnor",
        };
        f.write_str(s)
    }
}

/// Single-input operations supported by the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Logical negation.
    Inv,
    /// Identity buffer.
    Buf,
}

impl UnOp {
    /// Applies the operation to a boolean value.
    pub fn eval(self, a: bool) -> bool {
        match self {
            UnOp::Inv => !a,
            UnOp::Buf => a,
        }
    }

    /// Applies the operation to a 64-wide bit-parallel word.
    pub fn eval_word(self, a: u64) -> u64 {
        match self {
            UnOp::Inv => !a,
            UnOp::Buf => a,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Inv => "inv",
            UnOp::Buf => "buf",
        })
    }
}

/// A node of a logic [`Network`](crate::Network).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A named primary input.
    Input {
        /// Name of the input port.
        name: String,
    },
    /// A constant logic value.
    Const {
        /// The constant's value.
        value: bool,
    },
    /// A single-input gate.
    Unary {
        /// The operation.
        op: UnOp,
        /// The fanin node.
        a: NodeId,
    },
    /// A two-input gate.
    Binary {
        /// The operation.
        op: BinOp,
        /// First fanin.
        a: NodeId,
        /// Second fanin.
        b: NodeId,
    },
}

impl Node {
    /// The fanin nodes of this node (empty for inputs and constants).
    pub fn fanins(&self) -> FaninIter {
        match *self {
            Node::Input { .. } | Node::Const { .. } => FaninIter {
                items: [None, None],
                at: 0,
            },
            Node::Unary { a, .. } => FaninIter {
                items: [Some(a), None],
                at: 0,
            },
            Node::Binary { a, b, .. } => FaninIter {
                items: [Some(a), Some(b)],
                at: 0,
            },
        }
    }

    /// Whether the node is a primary input.
    pub fn is_input(&self) -> bool {
        matches!(self, Node::Input { .. })
    }
}

/// Iterator over a node's fanins, produced by [`Node::fanins`].
#[derive(Debug, Clone)]
pub struct FaninIter {
    items: [Option<NodeId>; 2],
    at: usize,
}

impl Iterator for FaninIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.at < 2 {
            let item = self.items[self.at];
            self.at += 1;
            if item.is_some() {
                return item;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_truth_tables() {
        for op in BinOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let expect = match op {
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Nand => !(a & b),
                        BinOp::Nor => !(a | b),
                        BinOp::Xor => a ^ b,
                        BinOp::Xnor => !(a ^ b),
                    };
                    assert_eq!(op.eval(a, b), expect, "{op} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn word_eval_matches_scalar() {
        for op in BinOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let wa = if a { u64::MAX } else { 0 };
                    let wb = if b { u64::MAX } else { 0 };
                    let w = op.eval_word(wa, wb);
                    assert_eq!(w & 1 == 1, op.eval(a, b));
                    // All lanes agree for constant inputs.
                    assert!(w == 0 || w == u64::MAX);
                }
            }
        }
    }

    #[test]
    fn monotone_ops() {
        assert!(BinOp::And.is_monotone());
        assert!(BinOp::Or.is_monotone());
        assert!(!BinOp::Xor.is_monotone());
        assert!(!BinOp::Nand.is_monotone());
    }

    #[test]
    fn unop_eval() {
        assert!(!UnOp::Inv.eval(true));
        assert!(UnOp::Buf.eval(true));
        assert_eq!(UnOp::Inv.eval_word(0), u64::MAX);
    }

    #[test]
    fn fanin_iter_counts() {
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        assert_eq!(Node::Input { name: "x".into() }.fanins().count(), 0);
        assert_eq!(Node::Const { value: true }.fanins().count(), 0);
        assert_eq!(Node::Unary { op: UnOp::Inv, a }.fanins().count(), 1);
        let bin = Node::Binary {
            op: BinOp::And,
            a,
            b,
        };
        assert_eq!(bin.fanins().collect::<Vec<_>>(), vec![a, b]);
    }
}
