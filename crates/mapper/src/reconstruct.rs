//! Gate materialization: turning DP back-pointers into a
//! [`DominoCircuit`], recording each gate's unate root on the way.

use soi_domino_ir::{DominoCircuit, DominoGate, GateId, Pdn, Signal};
use soi_unate::{UId, USignal, UnateNetwork};

use crate::tuple::{CandRef, Form, NodeSol};
use crate::{MapConfig, MapError};

/// Builds the final circuit from per-node DP solutions. When
/// `attach_discharge` is set (the SOI mapper), every materialized gate
/// immediately receives pre-discharge transistors on its committed points;
/// the baselines leave that to post-processing.
pub(crate) fn materialize(
    unate: &UnateNetwork,
    sols: &[NodeSol],
    config: &MapConfig,
    attach_discharge: bool,
) -> Result<DominoCircuit, MapError> {
    let mut ctx = Ctx {
        unate,
        sols,
        config,
        attach_discharge,
        circuit: DominoCircuit::new(unate.input_names().to_vec()),
        built: vec![None; unate.len()],
    };
    for out in unate.outputs() {
        match out.signal {
            USignal::Const(_) => {
                return Err(MapError::ConstantOutput {
                    name: out.name.clone(),
                })
            }
            USignal::Node(id) => {
                let gate = ctx.build_gate(id);
                ctx.circuit
                    .bind_output(out.name.clone(), gate, out.inverted);
            }
        }
    }
    Ok(ctx.circuit)
}

struct Ctx<'a> {
    unate: &'a UnateNetwork,
    sols: &'a [NodeSol],
    config: &'a MapConfig,
    attach_discharge: bool,
    circuit: DominoCircuit,
    /// Materialized gate per unate node, dense by `UId` (the id space is
    /// contiguous, so `Vec` indexing beats a map probe per fanin edge).
    built: Vec<Option<GateId>>,
}

impl Ctx<'_> {
    fn build_gate(&mut self, node: UId) -> GateId {
        if let Some(id) = self.built[node.index()] {
            return id;
        }
        let gate_sol = self.sols[node.index()]
            .gate
            .as_ref()
            .expect("every node has a gate solution")
            .clone();
        let pdn = self.build_pdn(&gate_sol.form);
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
            crate::Footing::AtPrimaryInputs => pdn.touches_primary_input(),
        };
        debug_assert_eq!(footed, gate_sol.footed, "footing mismatch at {node}");
        let mut gate = if footed {
            DominoGate::footed(pdn)
        } else {
            DominoGate::footless(pdn)
        };
        if self.attach_discharge {
            let analysis = soi_pbe::points::analyze(gate.pdn());
            let discharge = analysis.into_grounded_discharge();
            self.config.trace.count(
                soi_trace::Counter::DischargesInserted,
                discharge.len() as u64,
            );
            gate.set_discharge(discharge);
        }
        // The root is the gate's equivalence certificate: the checker
        // proves the PDN against the unate cone at `node` (untrusted).
        let id = self.circuit.add_rooted_gate(gate, node.index() as u32);
        self.built[node.index()] = Some(id);
        id
    }

    fn build_pdn(&mut self, form: &Form) -> Pdn {
        match form {
            Form::Lit(l) => Pdn::transistor(Signal::Input {
                index: l.input,
                phase: match l.phase {
                    soi_unate::Phase::Pos => soi_domino_ir::Phase::Pos,
                    soi_unate::Phase::Neg => soi_domino_ir::Phase::Neg,
                },
            }),
            Form::ChildGate(node) => {
                let gate = self.build_gate(*node);
                Pdn::transistor(Signal::Gate(gate))
            }
            Form::And { top, bottom } => {
                let top_pdn = self.build_ref(top);
                let bottom_pdn = self.build_ref(bottom);
                Pdn::series(vec![top_pdn, bottom_pdn])
            }
            Form::Or { a, b } => {
                let pa = self.build_ref(a);
                let pb = self.build_ref(b);
                Pdn::parallel(vec![pa, pb])
            }
        }
    }

    fn build_ref(&mut self, cand: &CandRef) -> Pdn {
        let form = self.sols[cand.node.index()].exported[&cand.key][cand.idx as usize].form;
        let _ = self.unate; // structure comes entirely from the back-pointers
        self.build_pdn(&form)
    }
}
