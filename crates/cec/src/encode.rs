//! Tseitin CNF encoding with structural-hash sharing.
//!
//! [`Encoder`] hands out literals for logic built over them and records
//! each derived variable's gate definition once, in a dense `defs` table.
//! Every gate constructor constant-folds (`a·a = a`, `a·!a = 0`, constant
//! operands) and then consults a structural-hash table, so re-encoding
//! the same gate over the same operand literals returns the *same*
//! literal instead of a fresh definition — the `DagCnf` idiom. Inverters
//! and buffers are free: negation is a literal sign, not a variable.
//!
//! All eight [`Network`] gate kinds reduce to two hashed primitives:
//! `AND` (with `OR`/`NAND`/`NOR` via De Morgan signs) and `XOR` (with
//! `XNOR` via the output sign; operand signs are peeled off into the
//! output sign first, so `a ⊕ !b` and `!(a ⊕ b)` share one table entry).
//!
//! The definitions are the only copy of the formula. Two solvers read
//! them:
//!
//! * [`Encoder::solve`] answers queries over the *whole* formula (the
//!   PBE-safety proofs, the encoder tests). It emits the Tseitin clauses
//!   of every definition not yet emitted into its own solver, then
//!   solves; an encoder that only ever answers cone queries never
//!   materializes the whole-formula CNF.
//! * [`Encoder::solve_cone`] answers queries over the transitive fanin
//!   of the assumptions only, in one reusable cone solver that is reset
//!   (allocations kept) before each query.

use soi_netlist::fx::FxHashMap;
use soi_netlist::{Network, NetworkError, Node, UnOp};

use crate::cnf::{Lit, Var};
use crate::solver::{SatResult, Solver};

/// First cone-size cap tried by [`Encoder::solve_cone`]. Small enough
/// that a sweep's typical just-below-the-top refutation costs hundreds
/// of variables, large enough that most queries never deepen.
const CONE_INITIAL_LIMIT: usize = 64;

/// Cap multiplier between [`Encoder::solve_cone`] deepening rounds.
const CONE_GROWTH: usize = 16;

/// The Tseitin definition of a derived variable.
#[derive(Debug, Clone, Copy)]
enum GateDef {
    /// `v <-> a AND b`.
    And(Lit, Lit),
    /// `v <-> a XOR b` over positive operand literals.
    Xor(Lit, Lit),
}

impl GateDef {
    /// Adds the definition's clauses for output `t` to `solver`, with the
    /// operands already translated to `solver`'s variables.
    fn emit(self, solver: &mut Solver, t: Lit, a: Lit, b: Lit) {
        match self {
            GateDef::And(..) => {
                solver.add_clause(&[!t, a]);
                solver.add_clause(&[!t, b]);
                solver.add_clause(&[t, !a, !b]);
            }
            GateDef::Xor(..) => {
                solver.add_clause(&[!t, a, b]);
                solver.add_clause(&[!t, !a, !b]);
                solver.add_clause(&[t, !a, b]);
                solver.add_clause(&[t, a, !b]);
            }
        }
    }

    fn operands(self) -> (Lit, Lit) {
        match self {
            GateDef::And(a, b) | GateDef::Xor(a, b) => (a, b),
        }
    }
}

/// The per-node literals produced by [`Encoder::encode_network`].
#[derive(Debug, Clone)]
pub struct NetworkLits {
    /// One literal per network node, indexed by `NodeId::index()`.
    pub nodes: Vec<Lit>,
    /// One literal per primary output, in port order.
    pub outputs: Vec<Lit>,
}

/// The reusable solver behind [`Encoder::solve_cone`] and its dense map
/// from encoder variables to cone-local ones.
#[derive(Debug, Default)]
struct Cone {
    solver: Solver,
    /// Cone-local variable of each encoder variable, valid only where
    /// `stamp` holds the current `epoch` — bumping the epoch empties the
    /// map in O(1).
    local: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Breadth-first queue of encoder variables in the cone; `work[head..]`
    /// is the frontier whose definitions are not emitted yet.
    work: Vec<u32>,
    head: usize,
}

impl Cone {
    /// Empties the solver and the map for a new query over `vars`
    /// encoder variables.
    fn begin(&mut self, vars: usize) {
        self.solver.reset();
        self.work.clear();
        self.head = 0;
        if self.stamp.len() < vars {
            self.stamp.resize(vars, 0);
            self.local.resize(vars, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: every stale stamp could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The cone-local literal of an encoder literal, allocating its
    /// variable (and queueing its definition) on first sight.
    fn lit(&mut self, l: Lit) -> Lit {
        let gv = l.var().index();
        if self.stamp[gv] != self.epoch {
            self.stamp[gv] = self.epoch;
            self.local[gv] = self.solver.new_var().index() as u32;
            self.work.push(gv as u32);
        }
        Lit::with_sign(Var::from_index(self.local[gv] as usize), l.is_negated())
    }

    /// Emits frontier definitions breadth-first until the cone holds
    /// `limit` variables; returns whether a definition was left out (the
    /// cone is *cut*).
    fn extend(&mut self, defs: &[Option<GateDef>], limit: usize) -> bool {
        while self.head < self.work.len() {
            let gv = self.work[self.head] as usize;
            let Some(def) = defs[gv] else {
                self.head += 1; // a free input: nothing to emit
                continue;
            };
            if self.solver.num_vars() >= limit {
                return true;
            }
            self.head += 1;
            let t = self.lit(Lit::positive(Var::from_index(gv)));
            let (a, b) = def.operands();
            let (a, b) = (self.lit(a), self.lit(b));
            def.emit(&mut self.solver, t, a, b);
        }
        false
    }
}

/// A CNF builder: structurally hashed gate definitions plus the two
/// solvers that read them.
#[derive(Debug)]
pub struct Encoder {
    /// `(a, b) -> a AND b` with `a <= b` by literal code.
    strash_and: FxHashMap<(u32, u32), Lit>,
    /// `(a, b) -> a XOR b` over positive literals with `a < b`.
    strash_xor: FxHashMap<(u32, u32), Lit>,
    /// Per-variable gate definition, indexed by `Var::index()`. `None`
    /// for free variables (primary inputs) and the constant-true var.
    defs: Vec<Option<GateDef>>,
    /// Whole-formula solver for [`Encoder::solve`]; holds the variables
    /// and definitions below `emitted` plus every raw clause.
    solver: Solver,
    emitted: usize,
    cone: Cone,
    /// Conflicts spent in cone queries (the whole-formula solver counts
    /// its own).
    cone_conflicts: u64,
    lit_true: Lit,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with the constant-true literal pre-asserted.
    pub fn new() -> Encoder {
        let mut solver = Solver::new();
        let lit_true = Lit::positive(solver.new_var());
        solver.add_clause(&[lit_true]);
        Encoder {
            strash_and: FxHashMap::default(),
            strash_xor: FxHashMap::default(),
            defs: vec![None],
            solver,
            emitted: 1,
            cone: Cone::default(),
            cone_conflicts: 0,
            lit_true,
        }
    }

    /// The constant-true literal.
    pub fn lit_true(&self) -> Lit {
        self.lit_true
    }

    /// The constant-false literal.
    pub fn lit_false(&self) -> Lit {
        !self.lit_true
    }

    /// The literal for a boolean constant.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            self.lit_true
        } else {
            !self.lit_true
        }
    }

    /// A fresh unconstrained literal (a primary input).
    pub fn fresh(&mut self) -> Lit {
        self.defs.push(None);
        Lit::positive(Var::from_index(self.defs.len() - 1))
    }

    /// A fresh variable defined as `def`.
    fn define(&mut self, def: GateDef) -> Lit {
        self.defs.push(Some(def));
        Lit::positive(Var::from_index(self.defs.len() - 1))
    }

    /// Adds a raw clause to the whole formula [`Encoder::solve`] answers
    /// over (cone queries follow gate definitions only). Returns `false`
    /// if the formula became unconditionally unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.emit_pending();
        self.solver.add_clause(lits)
    }

    /// Brings the whole-formula solver up to date: allocates the
    /// variables and emits the definitions created since the last call.
    fn emit_pending(&mut self) {
        while self.solver.num_vars() < self.defs.len() {
            self.solver.new_var();
        }
        for v in self.emitted..self.defs.len() {
            if let Some(def) = self.defs[v] {
                let (a, b) = def.operands();
                def.emit(&mut self.solver, Lit::positive(Var::from_index(v)), a, b);
            }
        }
        self.emitted = self.defs.len();
    }

    /// `a AND b`, folded and hashed.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return a;
        }
        if a == !self.lit_true || b == !self.lit_true || a == !b {
            return !self.lit_true;
        }
        if a == b {
            return a;
        }
        let key = if a.code() <= b.code() {
            (a.code() as u32, b.code() as u32)
        } else {
            (b.code() as u32, a.code() as u32)
        };
        if let Some(&t) = self.strash_and.get(&key) {
            return t;
        }
        let t = self.define(GateDef::And(a, b));
        self.strash_and.insert(key, t);
        t
    }

    /// `a OR b` (as `!(!a AND !b)`).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// `NOT (a AND b)`.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// `NOT (a OR b)`.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(!a, !b)
    }

    /// `a XOR b`, folded and hashed with the operand signs peeled into
    /// the output sign.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_true {
            return !b;
        }
        if a == !self.lit_true {
            return b;
        }
        if b == self.lit_true {
            return !a;
        }
        if b == !self.lit_true {
            return a;
        }
        if a == b {
            return !self.lit_true;
        }
        if a == !b {
            return self.lit_true;
        }
        let sign = a.is_negated() ^ b.is_negated();
        let (pa, pb) = (Lit::positive(a.var()), Lit::positive(b.var()));
        let key = if pa.code() <= pb.code() {
            (pa.code() as u32, pb.code() as u32)
        } else {
            (pb.code() as u32, pa.code() as u32)
        };
        let t = match self.strash_xor.get(&key) {
            Some(&t) => t,
            None => {
                let t = self.define(GateDef::Xor(pa, pb));
                self.strash_xor.insert(key, t);
                t
            }
        };
        t.xor_sign(sign)
    }

    /// `NOT (a XOR b)`.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Balanced AND over a non-empty literal slice.
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "and_all over an empty slice");
        let mut level = lits.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// Balanced OR over a non-empty literal slice.
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "or_all over an empty slice");
        let inverted: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_all(&inverted)
    }

    /// Encodes a whole network: allocates the input literals from
    /// `inputs` (positionally) and Tseitin-encodes every gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputArity`] if `inputs` does not match
    /// the network's primary-input count.
    pub fn encode_network(
        &mut self,
        network: &Network,
        inputs: &[Lit],
    ) -> Result<NetworkLits, NetworkError> {
        if inputs.len() != network.inputs().len() {
            return Err(NetworkError::InputArity {
                expected: network.inputs().len(),
                got: inputs.len(),
            });
        }
        let mut nodes: Vec<Lit> = Vec::with_capacity(network.len());
        let mut next_input = 0;
        for (_, node) in network.iter() {
            let lit = match node {
                Node::Input { .. } => {
                    let l = inputs[next_input];
                    next_input += 1;
                    l
                }
                Node::Const { value } => self.constant(*value),
                Node::Unary { op, a } => {
                    let la = nodes[a.index()];
                    match op {
                        UnOp::Inv => !la,
                        UnOp::Buf => la,
                    }
                }
                Node::Binary { op, a, b } => {
                    let (la, lb) = (nodes[a.index()], nodes[b.index()]);
                    self.binary(*op, la, lb)
                }
            };
            nodes.push(lit);
        }
        let outputs = network
            .outputs()
            .iter()
            .map(|p| nodes[p.driver.index()])
            .collect();
        Ok(NetworkLits { nodes, outputs })
    }

    /// Encodes one [`BinOp`](soi_netlist::BinOp) over operand literals.
    pub fn binary(&mut self, op: soi_netlist::BinOp, a: Lit, b: Lit) -> Lit {
        use soi_netlist::BinOp;
        match op {
            BinOp::And => self.and(a, b),
            BinOp::Or => self.or(a, b),
            BinOp::Nand => self.nand(a, b),
            BinOp::Nor => self.nor(a, b),
            BinOp::Xor => self.xor(a, b),
            BinOp::Xnor => self.xnor(a, b),
        }
    }

    /// Solves the whole formula — every definition and raw clause —
    /// under assumptions with a conflict budget.
    pub fn solve(&mut self, assumptions: &[Lit], budget: u64) -> SatResult {
        self.emit_pending();
        self.solver.solve(assumptions, budget)
    }

    /// Solves under assumptions over only the definitions in the
    /// assumptions' transitive fanin cone, in the encoder's reusable cone
    /// solver (reset, allocations kept, before every query).
    ///
    /// On a shared miter over two large networks the whole formula holds
    /// millions of variables, and every query over it would pay for all
    /// of them: a `Sat` answer needs a total assignment, and even
    /// refutations wander through unrelated variables before VSIDS finds
    /// the cone. Building just the cone (the fraiging idiom) bounds each
    /// query by its own fanin instead of the whole formula.
    ///
    /// The cone itself is built to a size cap and *cut*: variables past
    /// the cap stay free inputs. An `Unsat` answer from a cut cone is
    /// still a valid proof (freeing variables only adds behaviours), and
    /// after a sweep has substituted shared literals the two sides of a
    /// miter usually reconverge just below the top, so small cones close
    /// most queries. A `Sat` answer from a cut cone may be spurious, so
    /// the query raises the cap, emits the next ring of definitions into
    /// the same solver (everything it learned stays implied), and solves
    /// again until the cone is complete — only genuinely satisfiable or
    /// near-inequivalent queries pay for their full fanin. A satisfying
    /// model is read back through [`Encoder::cone_model_value`] until the
    /// next cone query.
    pub fn solve_cone(&mut self, assumptions: &[Lit], budget: u64) -> SatResult {
        let cone = &mut self.cone;
        cone.begin(self.defs.len());
        // The constant-true var keeps its level-0 value however the cone
        // is cut: pinning it is one unit clause.
        let t = cone.lit(self.lit_true);
        cone.solver.add_clause(&[t]);
        let assumps: Vec<Lit> = assumptions.iter().map(|&l| cone.lit(l)).collect();
        let mut limit = CONE_INITIAL_LIMIT;
        loop {
            let cut = cone.extend(&self.defs, limit);
            let before = cone.solver.conflicts();
            let result = cone.solver.solve(&assumps, budget);
            self.cone_conflicts += cone.solver.conflicts() - before;
            if result == SatResult::Sat && cut {
                limit *= CONE_GROWTH;
                continue;
            }
            return result;
        }
    }

    /// The value of `l` in the last satisfying [`Encoder::solve`] model.
    pub fn model_value(&self, l: Lit) -> bool {
        self.solver.model_value(l)
    }

    /// The value of `l` in the model of the last [`Encoder::solve_cone`]
    /// query, meaningful only if that query answered `Sat`; variables
    /// outside that query's cone read as `false` (sound, since they
    /// cannot affect it).
    ///
    /// # Panics
    ///
    /// Panics if no round of the last cone query was satisfiable.
    pub fn cone_model_value(&self, l: Lit) -> bool {
        let gv = l.var().index();
        let cone = &self.cone;
        if cone.stamp.get(gv) != Some(&cone.epoch) {
            return l.is_negated();
        }
        let local = Var::from_index(cone.local[gv] as usize);
        cone.solver
            .model_value(Lit::with_sign(local, l.is_negated()))
    }

    /// Total CDCL conflicts spent so far, across the whole-formula solver
    /// and all cone queries.
    pub fn conflicts(&self) -> u64 {
        self.solver.conflicts() + self.cone_conflicts
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.defs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_netlist::BinOp;

    #[test]
    fn gate_truth_tables_via_sat() {
        for op in BinOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let mut enc = Encoder::new();
                    let la = enc.fresh();
                    let lb = enc.fresh();
                    let out = enc.binary(op, la, lb);
                    let assume = [
                        la.xor_sign(!a),
                        lb.xor_sign(!b),
                        out.xor_sign(!op.eval(a, b)),
                    ];
                    assert_eq!(
                        enc.solve(&assume, 1_000),
                        SatResult::Sat,
                        "{op} {a} {b} should be consistent"
                    );
                    let assume = [
                        la.xor_sign(!a),
                        lb.xor_sign(!b),
                        out.xor_sign(op.eval(a, b)),
                    ];
                    assert_eq!(
                        enc.solve(&assume, 1_000),
                        SatResult::Unsat,
                        "{op} {a} {b} wrong output must be impossible"
                    );
                }
            }
        }
    }

    #[test]
    fn strash_shares_structure() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let b = enc.fresh();
        let t1 = enc.and(a, b);
        let t2 = enc.and(b, a);
        assert_eq!(t1, t2, "commuted AND shares the entry");
        let o1 = enc.or(a, b);
        let o2 = enc.nor(a, b);
        assert_eq!(o1, !o2, "OR and NOR share the De Morgan AND");
        let x1 = enc.xor(a, b);
        let x2 = enc.xor(!a, b);
        assert_eq!(x1, !x2, "operand sign peels into the output sign");
        let x3 = enc.xnor(b, a);
        assert_eq!(x3, !x1);
    }

    #[test]
    fn constant_folding() {
        let mut enc = Encoder::new();
        let a = enc.fresh();
        let t = enc.lit_true();
        assert_eq!(enc.and(a, t), a);
        assert_eq!(enc.and(a, !t), !t);
        assert_eq!(enc.and(a, a), a);
        assert_eq!(enc.and(a, !a), !t);
        assert_eq!(enc.xor(a, a), !t);
        assert_eq!(enc.xor(a, !a), t);
        assert_eq!(enc.xor(a, t), !a);
        assert_eq!(enc.constant(true), t);
        assert_eq!(enc.constant(false), !t);
    }

    #[test]
    fn encode_network_matches_simulation() {
        let mut n = Network::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let y = n.nand2(x, c);
        let z = n.nor2(y, a);
        let w = n.inv(z);
        n.add_output("w", w);
        n.add_output("x", x);

        let mut enc = Encoder::new();
        let inputs: Vec<Lit> = (0..3).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&n, &inputs).unwrap();
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = n.simulate(&vals).unwrap();
            let assume: Vec<Lit> = inputs
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| l.xor_sign(!v))
                .collect();
            assert_eq!(enc.solve(&assume, 10_000), SatResult::Sat);
            for (o, &lit) in lits.outputs.iter().enumerate() {
                assert_eq!(enc.model_value(lit), expect[o], "bits {bits} output {o}");
            }
        }
    }

    #[test]
    fn cone_solving_matches_global_solving() {
        let mut n = Network::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b);
        let y = n.nand2(x, c);
        let z = n.nor2(y, a);
        n.add_output("z", z);

        let mut enc = Encoder::new();
        let inputs: Vec<Lit> = (0..3).map(|_| enc.fresh()).collect();
        let lits = enc.encode_network(&n, &inputs).unwrap();
        // An unrelated constrained island the cone must not drag in.
        let u = enc.fresh();
        let v = enc.fresh();
        let w = enc.and(u, v);
        enc.add_clause(&[w]);

        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = n.simulate(&vals).unwrap();
            let mut assume: Vec<Lit> = inputs
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| l.xor_sign(!v))
                .collect();
            assume.push(lits.outputs[0].xor_sign(!expect[0]));
            assert_eq!(enc.solve_cone(&assume, 10_000), SatResult::Sat);
            for (i, (&l, &v)) in inputs.iter().zip(&vals).enumerate() {
                assert_eq!(enc.cone_model_value(l), v, "bits {bits} input {i}");
            }
            // Out-of-cone variables read as false.
            assert!(!enc.cone_model_value(w));
            assume.pop();
            assume.push(lits.outputs[0].xor_sign(expect[0]));
            assert_eq!(enc.solve_cone(&assume, 10_000), SatResult::Unsat);
        }
    }

    #[test]
    fn cone_solving_pins_the_constant() {
        let mut enc = Encoder::new();
        let t = enc.lit_true();
        assert_eq!(enc.solve_cone(&[t], 100), SatResult::Sat);
        assert!(enc.cone_model_value(t));
        assert_eq!(enc.solve_cone(&[!t], 100), SatResult::Unsat);
    }

    #[test]
    fn encode_network_rejects_arity_mismatch() {
        let mut n = Network::new("one");
        let a = n.add_input("a");
        n.add_output("o", a);
        let mut enc = Encoder::new();
        assert!(matches!(
            enc.encode_network(&n, &[]),
            Err(NetworkError::InputArity { .. })
        ));
    }
}
