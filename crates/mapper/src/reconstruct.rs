//! Gate materialization: turning DP back-pointers into a
//! [`DominoCircuit`], recording each gate's unate root on the way.
//!
//! Each gate's pull-down network is emitted as packed pre-order words
//! straight from its back-pointers, in one walk with an explicit stack:
//! an AND nested in an AND continues the open series node and an OR in an
//! OR the open parallel node, which is exactly the splicing
//! `Pdn::series`/`Pdn::parallel` normalize to. A child gate is emitted as a
//! placeholder word holding its unate node; once the gate's words are
//! complete, its children are built in placeholder (PDN) order, each
//! placeholder is patched to the child's gate id, and the gate is appended
//! to the circuit. Gates are thereby numbered in DFS post-order from the
//! outputs with child gates in PDN order — the numbering of the recursive
//! construction this replaces — without recursion across gates and
//! without a heap allocation per PDN node.

use soi_domino_ir::{DominoCircuit, DominoError, GateId, GateRef, PdnRef, PdnWord, Signal};
use soi_pbe::points::Analyzer;
use soi_unate::{UId, USignal, UnateNetwork};

use crate::table::SolTable;
use crate::tuple::{CandRef, Form};
use crate::{MapConfig, MapError};

/// Builds the final circuit from the DP's solution table. When
/// `attach_discharge` is set (the SOI mapper), every materialized gate
/// immediately receives pre-discharge transistors on its committed points;
/// the baselines leave that to post-processing.
pub(crate) fn materialize(
    unate: &UnateNetwork,
    table: &SolTable,
    config: &MapConfig,
    attach_discharge: bool,
) -> Result<DominoCircuit, MapError> {
    let mut m = Materializer {
        table,
        config,
        attach_discharge,
        circuit: DominoCircuit::new(unate.input_names().to_vec()),
        built: vec![None; unate.len()],
        words: Vec::new(),
        frames: Vec::new(),
        steps: Vec::new(),
        analyzer: Analyzer::default(),
    };
    for out in unate.outputs() {
        match out.signal {
            USignal::Const(_) => {
                return Err(MapError::ConstantOutput {
                    name: out.name.clone(),
                })
            }
            USignal::Node(id) => {
                let gate = m.build(id)?;
                m.circuit.bind_output(out.name.clone(), gate, out.inverted);
            }
        }
    }
    Ok(m.circuit)
}

/// A gate whose words are emitted but whose child gates are not all
/// numbered yet. Its words are the tail of the word stack from `start`;
/// placeholders before `cursor` are patched.
struct Frame {
    node: UId,
    start: usize,
    cursor: usize,
    touches_pi: bool,
}

/// Where a form sits: a series or parallel node it may splice into.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Within {
    Root,
    Series,
    Parallel,
}

enum Step {
    Visit(Form, Within),
    /// Patch the length of the node headed at this word.
    Close(usize),
}

struct Materializer<'a> {
    table: &'a SolTable,
    config: &'a MapConfig,
    attach_discharge: bool,
    circuit: DominoCircuit,
    /// Materialized gate per unate node, dense by `UId` (the id space is
    /// contiguous, so `Vec` indexing beats a map probe per fanin edge).
    built: Vec<Option<GateId>>,
    /// Words of the gates on `frames`, innermost last.
    words: Vec<PdnWord>,
    frames: Vec<Frame>,
    steps: Vec<Step>,
    analyzer: Analyzer,
}

/// An oversized index is a typed budget error; anything else the arena
/// rejects would be a reconstruct bug.
fn arena_error(e: DominoError) -> MapError {
    match e {
        DominoError::TooLarge { .. } => MapError::BudgetExceeded {
            what: e.to_string(),
        },
        other => panic!("reconstruct emitted an invalid gate: {other}"),
    }
}

impl Materializer<'_> {
    fn build(&mut self, root: UId) -> Result<GateId, MapError> {
        if let Some(id) = self.built[root.index()] {
            return Ok(id);
        }
        self.emit(root)?;
        while let Some(frame) = self.frames.last_mut() {
            let mut pending = None;
            while frame.cursor < self.words.len() {
                if let Some(Signal::Gate(g)) = self.words[frame.cursor].signal() {
                    let child = UId::from_index(g.index());
                    match self.built[child.index()] {
                        Some(id) => {
                            self.words[frame.cursor] =
                                PdnWord::transistor(Signal::Gate(id)).map_err(arena_error)?;
                        }
                        None => {
                            pending = Some(child);
                            break;
                        }
                    }
                }
                frame.cursor += 1;
            }
            match pending {
                Some(child) => self.emit(child)?,
                None => self.commit()?,
            }
        }
        Ok(self.built[root.index()].expect("the root gate was committed"))
    }

    /// Emits `node`'s gate words onto the word stack and opens its frame.
    fn emit(&mut self, node: UId) -> Result<(), MapError> {
        let sol = self.table.get(node).gate;
        let start = self.words.len();
        let mut touches_pi = false;
        self.steps.push(Step::Visit(sol.form, Within::Root));
        while let Some(step) = self.steps.pop() {
            let (form, within) = match step {
                Step::Close(head) => {
                    let len = self.words.len() - head;
                    self.words[head] = if self.words[head].is_series() {
                        PdnWord::series(len)
                    } else {
                        PdnWord::parallel(len)
                    }
                    .map_err(arena_error)?;
                    continue;
                }
                Step::Visit(form, within) => (form, within),
            };
            let (x, y, kind) = match form {
                Form::Lit(l) => {
                    touches_pi = true;
                    let phase = match l.phase {
                        soi_unate::Phase::Pos => soi_domino_ir::Phase::Pos,
                        soi_unate::Phase::Neg => soi_domino_ir::Phase::Neg,
                    };
                    let signal = Signal::Input {
                        index: l.input,
                        phase,
                    };
                    self.words
                        .push(PdnWord::transistor(signal).map_err(arena_error)?);
                    continue;
                }
                Form::ChildGate(child) => {
                    // Placeholder: the child's unate node, patched to its
                    // gate id once the child is built.
                    let signal = Signal::Gate(GateId::from_index(child.index()));
                    self.words
                        .push(PdnWord::transistor(signal).map_err(arena_error)?);
                    continue;
                }
                Form::And { top, bottom } => (top, bottom, Within::Series),
                Form::Or { a, b } => (a, b, Within::Parallel),
            };
            if within != kind {
                self.steps.push(Step::Close(self.words.len()));
                let head = if kind == Within::Series {
                    PdnWord::series(0)
                } else {
                    PdnWord::parallel(0)
                };
                self.words.push(head.expect("an empty header fits"));
            }
            self.steps.push(Step::Visit(self.form(&y), kind));
            self.steps.push(Step::Visit(self.form(&x), kind));
        }
        self.frames.push(Frame {
            node,
            start,
            cursor: start,
            touches_pi,
        });
        Ok(())
    }

    fn form(&self, cand: &CandRef) -> Form {
        self.table.node_exports(cand.node)[&cand.key][cand.idx as usize].form
    }

    /// Appends the innermost frame's gate, all of whose children are
    /// numbered, and pops its words.
    fn commit(&mut self) -> Result<(), MapError> {
        let frame = self.frames.pop().expect("a frame to commit");
        let node = frame.node;
        let pdn = PdnRef::new(&self.words[frame.start..]).map_err(arena_error)?;
        let gate_sol = self.table.get(node).gate;
        debug_assert_eq!(
            crate::TupleKey {
                w: pdn.width(),
                h: pdn.height()
            },
            gate_sol.shape,
            "materialized PDN shape disagrees with the DP tuple at {node}"
        );
        let footed = match self.config.footing {
            crate::Footing::Always => true,
            crate::Footing::AtPrimaryInputs => frame.touches_pi,
        };
        debug_assert_eq!(footed, gate_sol.footed, "footing mismatch at {node}");
        let discharge = if self.attach_discharge {
            self.analyzer.run(pdn);
            let committed = self.analyzer.committed();
            self.config.trace.count(
                soi_trace::Counter::DischargesInserted,
                committed.len() as u64,
            );
            committed
        } else {
            &[]
        };
        // The root is the gate's equivalence certificate: the checker
        // proves the PDN against the unate cone at `node` (untrusted).
        let id = self
            .circuit
            .push_gate(
                GateRef::new(pdn, footed, discharge),
                Some(node.index() as u32),
            )
            .map_err(arena_error)?;
        self.built[node.index()] = Some(id);
        self.words.truncate(frame.start);
        Ok(())
    }
}
