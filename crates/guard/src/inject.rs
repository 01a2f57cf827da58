//! Seeded fault injection: deterministic mutators that corrupt each
//! intermediate representation of the flow.
//!
//! Every mutator takes an intact artifact plus a `seed`, and returns
//! `Some(corrupted)` — or `None` when the artifact offers no opportunity
//! for that fault (no gates, no discharge transistors, ...). Mutators
//! **self-check effectfulness**: a returned artifact is guaranteed to be
//! detectably corrupt — rejected by the representation's own `validate`,
//! flagged by [`soi_pbe::hazard::check`], or (for the functional mutators)
//! accompanied by a witness input vector on which it computes the wrong
//! value. The guarantee is what lets the test suite assert *every* injected
//! fault is caught, rather than merely that most are.
//!
//! BLIF mutators are the exception: a mutated byte stream has no defined
//! "effect", so they only guarantee the bytes changed. The property under
//! test there is that [`soi_netlist::blif::parse`] never panics and never
//! returns an invalid network. The certificate forgers are the other
//! exception: they guarantee only that a circuit's root table changed,
//! and the property under test is that no equivalence verdict does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soi_domino_ir::{DominoCircuit, GateId, JunctionRef, Pdn, PdnNode, PdnRef, Signal};
use soi_mapper::MapConfig;
use soi_netlist::{Network, Node, NodeId};
use soi_pbe::hazard;
use soi_unate::{convert, Options};

// ---- Network mutators ----------------------------------------------------

/// Node ids of the network's gate nodes (unary or binary).
fn gate_nodes(network: &Network) -> Vec<NodeId> {
    network
        .iter()
        .filter(|(_, n)| matches!(n, Node::Unary { .. } | Node::Binary { .. }))
        .map(|(id, _)| id)
        .collect()
}

/// Rebuilds a node with its `which`-th fanin replaced.
fn with_fanin(node: &Node, which: usize, fanin: NodeId) -> Option<Node> {
    match *node {
        Node::Unary { op, .. } if which == 0 => Some(Node::Unary { op, a: fanin }),
        Node::Binary { op, a, b } => match which {
            0 => Some(Node::Binary { op, a: fanin, b }),
            1 => Some(Node::Binary { op, a, b: fanin }),
            _ => None,
        },
        _ => None,
    }
}

/// Only returns the mutated network if its own validator rejects it — the
/// self-check every structural network mutator shares.
fn checked_invalid(network: Network) -> Option<Network> {
    network.validate().is_err().then_some(network)
}

/// Points a random gate fanin past the end of the node array.
pub fn dangling_fanin(network: &Network, seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gates = gate_nodes(network);
    if gates.is_empty() {
        return None;
    }
    let id = gates[rng.gen_range(0..gates.len())];
    let node = network.node(id);
    let which = rng.gen_range(0..node.fanins().count());
    let bogus = NodeId::from_index(network.len() + rng.gen_range(1..1000usize));
    let mutated_node = with_fanin(node, which, bogus)?;
    let mut mutated = network.clone();
    mutated.set_node_unchecked(id, mutated_node);
    checked_invalid(mutated)
}

/// Points a random gate fanin at itself or a later node, breaking the
/// topological invariant.
pub fn forward_fanin(network: &Network, seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gates = gate_nodes(network);
    if gates.is_empty() {
        return None;
    }
    let id = gates[rng.gen_range(0..gates.len())];
    let node = network.node(id);
    let which = rng.gen_range(0..node.fanins().count());
    let target = NodeId::from_index(rng.gen_range(id.index()..network.len()));
    let mutated_node = with_fanin(node, which, target)?;
    let mut mutated = network.clone();
    mutated.set_node_unchecked(id, mutated_node);
    checked_invalid(mutated)
}

/// Points a random output port at a node that does not exist.
pub fn dangling_output(network: &Network, seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(seed);
    if network.outputs().is_empty() {
        return None;
    }
    let port = rng.gen_range(0..network.outputs().len());
    let bogus = NodeId::from_index(network.len() + rng.gen_range(1..1000usize));
    let mut mutated = network.clone();
    mutated.set_output_driver_unchecked(port, bogus);
    checked_invalid(mutated)
}

/// Swaps a gate node with one of its (gate) fanins, so the stored order is
/// no longer topological.
pub fn break_topo_order(network: &Network, seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for id in gate_nodes(network) {
        for fanin in network.node(id).fanins() {
            if matches!(
                network.node(fanin),
                Node::Unary { .. } | Node::Binary { .. }
            ) {
                candidates.push((id, fanin));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (a, b) = candidates[rng.gen_range(0..candidates.len())];
    let mut mutated = network.clone();
    mutated.swap_nodes_unchecked(a, b);
    checked_invalid(mutated)
}

/// Renames one primary input to collide with another.
pub fn duplicate_input_name(network: &Network, seed: u64) -> Option<Network> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let inputs = network.inputs();
    if inputs.len() < 2 {
        return None;
    }
    let victim = inputs[rng.gen_range(0..inputs.len())];
    let donor = inputs[rng.gen_range(0..inputs.len())];
    if victim == donor {
        return duplicate_input_name(network, seed.wrapping_add(1));
    }
    let name = match network.node(donor) {
        Node::Input { name } => name.clone(),
        _ => return None,
    };
    let mut mutated = network.clone();
    mutated.set_node_unchecked(victim, Node::Input { name });
    checked_invalid(mutated)
}

// ---- Mapper job-control mutators -----------------------------------------

/// Poisons one seeded-random cone unit of `network`'s unate form: the
/// returned config makes any mapping run of `network` panic the worker
/// that picks up that unit (see
/// [`poison_node`](soi_mapper::MapConfig::poison_node)), exercising panic
/// containment end-to-end. The fault is guaranteed effectful and
/// deterministic: the poisoned node is the unit's *root*, every schedule
/// visits each unit exactly once, and the panic fires before any solving —
/// so the same unit blows up on serial, parallel and cached runs alike,
/// and the mapper must surface it as
/// [`MapError::WorkerPanicked`](soi_mapper::MapError) for that unit index.
///
/// Returns the poisoned config together with the unit's partition index;
/// `None` when the network does not convert under the config's output
/// phase (nothing to poison).
pub fn poison_unit(config: &MapConfig, network: &Network, seed: u64) -> Option<(MapConfig, usize)> {
    let unate = convert(
        network,
        &Options {
            output_phase: config.output_phase,
        },
    )
    .ok()?;
    let partition = unate.cone_partition();
    if partition.units().is_empty() {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let unit_index = rng.gen_range(0..partition.units().len());
    let mut poisoned = *config;
    poisoned.poison_node = Some(partition.unit(unit_index).root().index() as u32);
    Some((poisoned, unit_index))
}

// ---- BLIF byte-stream mutators -------------------------------------------

/// Truncates the byte stream at a random position.
pub fn truncate_blif(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    if bytes.is_empty() {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let cut = rng.gen_range(0..bytes.len());
    Some(bytes[..cut].to_vec())
}

/// Overwrites a handful of random bytes with random printable-ish garbage.
pub fn garble_blif(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    if bytes.is_empty() {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let at = rng.gen_range(0..out.len());
        // XOR guarantees the byte actually changes.
        out[at] ^= rng.gen_range(1..128u8);
    }
    Some(out)
}

/// Deletes a random line.
pub fn drop_blif_line(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 2 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let victim = rng.gen_range(0..lines.len());
    let kept: Vec<&str> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, l)| *l)
        .collect();
    Some(kept.join("\n").into_bytes())
}

/// Swaps two distinct random lines.
pub fn swap_blif_lines(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    let text = String::from_utf8_lossy(bytes);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.len() < 2 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = rng.gen_range(0..lines.len());
    let b = rng.gen_range(0..lines.len() - 1);
    let b = if b >= a { b + 1 } else { b };
    lines.swap(a, b);
    Some(lines.join("\n").into_bytes())
}

// ---- AIGER byte-stream mutators ------------------------------------------
//
// Like the BLIF mutators, these only guarantee the bytes changed: the
// property under test is that `soi_netlist::aiger` never panics on the
// result — it either parses a network that passes `validate` or returns a
// typed `NetworkError`. They work on both flavors (ASCII `aag` and binary
// `aig`), since both are just byte streams to a fuzzer.

/// Truncates an AIGER byte stream at a random position.
pub fn truncate_aiger(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    truncate_blif(bytes, seed)
}

/// Overwrites a handful of random bytes of an AIGER stream; XOR guarantees
/// each touched byte actually changes, so binary varint sections get
/// corrupted too, not just ASCII lines.
pub fn garble_aiger(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    garble_blif(bytes, seed)
}

/// Perturbs one numeric field of the AIGER header line (`aag M I L O A` or
/// `aig M I L O A`): off-by-one in either direction, zeroed, or inflated to
/// an implausibly huge value — the last probing the parser's id-space
/// budget check. Returns `None` when the stream has no parseable header to
/// perturb (then `garble_aiger` is the right tool).
pub fn perturb_aiger_header(bytes: &[u8], seed: u64) -> Option<Vec<u8>> {
    let line_end = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..line_end]).ok()?;
    let mut tokens: Vec<String> = header.split_whitespace().map(str::to_string).collect();
    // magic + the five size fields
    if tokens.len() < 6 || !(tokens[0] == "aag" || tokens[0] == "aig") {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let field = rng.gen_range(1..6usize);
    let old: u64 = tokens[field].parse().ok()?;
    let new = match rng.gen_range(0..4u8) {
        0 => old.wrapping_add(1),
        1 => old.saturating_sub(1),
        2 => 0,
        _ => u64::MAX / 2 + rng.gen_range(0..1000u64),
    };
    if new == old {
        return perturb_aiger_header(bytes, seed.wrapping_add(1));
    }
    tokens[field] = new.to_string();
    let mut out = tokens.join(" ").into_bytes();
    out.extend_from_slice(&bytes[line_end..]);
    Some(out)
}

// ---- Domino-circuit mutators ---------------------------------------------

/// Removes one pre-discharge transistor whose absence actually exposes a
/// committed discharge point (skipping redundant ones).
pub fn drop_discharge(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let baseline = hazard::check(circuit).len();
    let mut candidates: Vec<(GateId, usize)> = Vec::new();
    for (id, gate) in circuit.iter() {
        for j in 0..gate.discharge().len() {
            candidates.push((id, j));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    // Seeded starting point, then walk all candidates looking for one whose
    // removal is detectable.
    let start = rng.gen_range(0..candidates.len());
    for k in 0..candidates.len() {
        let (id, j) = candidates[(start + k) % candidates.len()];
        let mut mutated = circuit.clone();
        let mut discharge = mutated.gate(id).discharge().to_vec();
        discharge.remove(j);
        mutated.set_discharge_unchecked(id, &discharge);
        if hazard::check(&mutated).len() > baseline {
            return Some(mutated);
        }
    }
    None
}

/// Retargets one pre-discharge transistor at a junction that does not exist
/// in its gate's PDN.
pub fn retarget_discharge(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let candidates: Vec<GateId> = circuit
        .iter()
        .filter(|(_, g)| !g.discharge().is_empty())
        .map(|(id, _)| id)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let id = candidates[rng.gen_range(0..candidates.len())];
    let mut mutated = circuit.clone();
    let mut discharge = mutated.gate(id).discharge().to_vec();
    let j = rng.gen_range(0..discharge.len());
    discharge[j] = JunctionRef::new(rng.gen_range(500..1000u32), 0);
    mutated.set_discharge_unchecked(id, &discharge);
    mutated.validate().is_err().then_some(mutated)
}

/// Number of `Series` subtrees in a PDN.
fn count_series(pdn: PdnRef<'_>) -> usize {
    pdn.words().iter().filter(|w| w.is_series()).count()
}

/// Rebuilds a PDN with the `target`-th `Series` subtree's children reversed
/// (pre-order numbering via `k`).
fn reverse_nth_series(pdn: PdnRef<'_>, target: usize, k: &mut usize) -> Pdn {
    match pdn.root() {
        PdnNode::Transistor(s) => Pdn::transistor(s),
        PdnNode::Series(children) => {
            let here = *k;
            *k += 1;
            let rebuilt: Vec<Pdn> = children.map(|c| reverse_nth_series(c, target, k)).collect();
            if here == target {
                Pdn::series(rebuilt.into_iter().rev().collect())
            } else {
                Pdn::series(rebuilt)
            }
        }
        PdnNode::Parallel(children) => {
            Pdn::parallel(children.map(|c| reverse_nth_series(c, target, k)).collect())
        }
    }
}

/// Flips a series stack top-for-bottom inside one gate's PDN, keeping the
/// discharge set — which now protects the wrong junctions. Only flips that
/// are *detectable* (a new hazard, or a discharge junction that no longer
/// resolves) are returned; a flip that happens to leave the gate safe is
/// not a fault.
pub fn flip_pdn_junction(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut candidates: Vec<(GateId, usize)> = Vec::new();
    for (id, gate) in circuit.iter() {
        for s in 0..count_series(gate.pdn()) {
            candidates.push((id, s));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..candidates.len());
    for k in 0..candidates.len() {
        let (id, s) = candidates[(start + k) % candidates.len()];
        let mut counter = 0;
        let flipped = reverse_nth_series(circuit.gate(id).pdn(), s, &mut counter);
        if flipped == circuit.gate(id).pdn() {
            continue; // palindromic stack: not a mutation at all
        }
        let mut mutated = circuit.clone();
        mutated.set_pdn_unchecked(id, flipped.view());
        if mutated.validate().is_err() || !hazard::check(&mutated).is_empty() {
            return Some(mutated);
        }
    }
    None
}

/// Rebuilds a PDN with the `target`-th transistor's signal replaced
/// (flatten-order numbering via `k`).
fn replace_signal(pdn: PdnRef<'_>, target: usize, with: Signal, k: &mut usize) -> Pdn {
    match pdn.root() {
        PdnNode::Transistor(s) => {
            let signal = if *k == target { with } else { s };
            *k += 1;
            Pdn::transistor(signal)
        }
        PdnNode::Series(children) => Pdn::series(
            children
                .map(|c| replace_signal(c, target, with, k))
                .collect(),
        ),
        PdnNode::Parallel(children) => Pdn::parallel(
            children
                .map(|c| replace_signal(c, target, with, k))
                .collect(),
        ),
    }
}

/// Rewires one PDN transistor to a different signal — a wrong-wire fault
/// that keeps the circuit structurally valid but changes its function.
///
/// Returns the mutated circuit together with a **witness vector** on which
/// it disagrees with the original, so callers can demonstrate the fault is
/// caught by differential simulation (the audit's functional check) without
/// depending on random vectors happening to hit it.
pub fn retarget_fanin(circuit: &DominoCircuit, seed: u64) -> Option<(DominoCircuit, Vec<bool>)> {
    let arity = circuit.input_names().len();
    if arity == 0 {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut candidates: Vec<(GateId, usize)> = Vec::new();
    for (id, gate) in circuit.iter() {
        for t in 0..gate.pdn().transistor_count() as usize {
            candidates.push((id, t));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..candidates.len());
    for k in 0..candidates.len() {
        let (id, t) = candidates[(start + k) % candidates.len()];
        let old = circuit
            .gate(id)
            .pdn()
            .signals()
            .nth(t)
            .expect("transistor index in range");
        // Flip an input literal's phase; rewire a gate tap to an input.
        let with = match old {
            Signal::Input { index, phase } => Signal::Input {
                index,
                phase: phase.flipped(),
            },
            Signal::Gate(_) => Signal::input(rng.gen_range(0..arity)),
        };
        let mut counter = 0;
        let rewired = replace_signal(circuit.gate(id).pdn(), t, with, &mut counter);
        let mut mutated = circuit.clone();
        mutated.set_pdn_unchecked(id, rewired.view());
        if mutated.validate().is_err() {
            continue; // keep this mutator purely functional
        }
        if let Some(witness) = distinguishing_vector(circuit, &mutated, seed) {
            return Some((mutated, witness));
        }
    }
    None
}

/// Searches corner and seeded-random vectors for one on which the two
/// circuits disagree.
fn distinguishing_vector(
    original: &DominoCircuit,
    mutated: &DominoCircuit,
    seed: u64,
) -> Option<Vec<bool>> {
    let arity = original.input_names().len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut vectors: Vec<Vec<bool>> = vec![vec![false; arity], vec![true; arity]];
    for _ in 0..62 {
        vectors.push((0..arity).map(|_| rng.gen()).collect());
    }
    vectors
        .into_iter()
        .find(|v| match (original.evaluate(v), mutated.evaluate(v)) {
            (Ok(a), Ok(b)) => a != b,
            _ => false,
        })
}

/// Flips one output binding's boundary inversion, so that output computes
/// its complement — always a functional fault.
pub fn flip_output_inversion(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    if circuit.outputs().is_empty() {
        return None;
    }
    let port = SmallRng::seed_from_u64(seed).gen_range(0..circuit.outputs().len());
    let mut mutated = circuit.clone();
    mutated.set_output_inverted(port, !circuit.outputs()[port].inverted);
    Some(mutated)
}

// ---- Certificate forgers -------------------------------------------------
//
// A mapped circuit's root table (`DominoCircuit::roots`) is an untrusted
// equivalence certificate. These forgers corrupt the table and nothing
// else, so a checker that believed it would certify claims the circuit
// never made. The property under test is that no verdict changes: a
// correct circuit with a forged table still proves equivalent, and a
// functionally mutated one is still refuted. Each forger returns `None`
// when the circuit has no table or too few gates to forge one.

/// Replaces one gate's root with a different node index.
pub fn forge_root(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let roots = circuit.roots();
    let bound = roots.iter().max()?.saturating_add(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let gate = rng.gen_range(0..roots.len());
    let mut forged = rng.gen_range(0..bound);
    if forged == roots[gate] {
        forged = (forged + 1) % bound.max(2);
    }
    let mut table = roots.to_vec();
    table[gate] = forged;
    with_roots(circuit, table)
}

/// Swaps the roots of two gates whose roots differ.
pub fn swap_roots(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let (a, b) = two_gates_with_distinct_roots(circuit, seed)?;
    let mut table = circuit.roots().to_vec();
    table.swap(a, b);
    with_roots(circuit, table)
}

/// Credits one gate with another gate's (different) root.
pub fn credit_root(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let (a, b) = two_gates_with_distinct_roots(circuit, seed)?;
    let mut table = circuit.roots().to_vec();
    table[a] = table[b];
    with_roots(circuit, table)
}

/// Drops between one and all entries from the end of the root table.
pub fn truncate_roots(circuit: &DominoCircuit, seed: u64) -> Option<DominoCircuit> {
    let roots = circuit.roots();
    if roots.is_empty() {
        return None;
    }
    let keep = SmallRng::seed_from_u64(seed).gen_range(0..roots.len());
    with_roots(circuit, roots[..keep].to_vec())
}

/// Two seeded gate indices whose recorded roots differ.
fn two_gates_with_distinct_roots(circuit: &DominoCircuit, seed: u64) -> Option<(usize, usize)> {
    let roots = circuit.roots();
    if roots.is_empty() {
        return None;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = rng.gen_range(0..roots.len());
    let start = rng.gen_range(0..roots.len());
    let b = (0..roots.len())
        .map(|k| (start + k) % roots.len())
        .find(|&b| roots[b] != roots[a])?;
    Some((a, b))
}

fn with_roots(circuit: &DominoCircuit, roots: Vec<u32>) -> Option<DominoCircuit> {
    let mut forged = circuit.clone();
    forged.set_roots_unchecked(roots);
    (forged != *circuit).then_some(forged)
}

/// Removes **every** pre-discharge transistor — the "protection got lost in
/// handoff" fault. Returns `None` when the circuit had none to lose, or
/// when none of them were load-bearing (no hazard appears).
pub fn strip_protection(circuit: &DominoCircuit) -> Option<DominoCircuit> {
    let mut mutated = circuit.clone();
    let mut removed = 0;
    for id in 0..mutated.gate_count() {
        let id = GateId::from_index(id);
        removed += mutated.gate(id).discharge().len();
        mutated.set_discharge_unchecked(id, &[]);
    }
    if removed == 0 || hazard::check(&mutated).is_empty() {
        return None;
    }
    Some(mutated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_netlist::NetworkError;

    fn sample_network() -> Network {
        let mut n = Network::new("sample");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.and2(a, b);
        let g2 = n.xor2(g1, c);
        n.add_output("f", g2);
        n
    }

    #[test]
    fn network_mutators_always_yield_invalid_networks() {
        let n = sample_network();
        for seed in 0..20 {
            for (name, mutated) in [
                ("dangling_fanin", dangling_fanin(&n, seed)),
                ("forward_fanin", forward_fanin(&n, seed)),
                ("dangling_output", dangling_output(&n, seed)),
                ("break_topo_order", break_topo_order(&n, seed)),
                ("duplicate_input_name", duplicate_input_name(&n, seed)),
            ] {
                let m = mutated.unwrap_or_else(|| panic!("{name} applies to sample"));
                assert!(m.validate().is_err(), "{name} seed {seed} went undetected");
            }
        }
    }

    #[test]
    fn dangling_fanin_reports_the_right_error() {
        let n = sample_network();
        let m = dangling_fanin(&n, 7).unwrap();
        assert!(matches!(
            m.validate(),
            Err(NetworkError::DanglingFanin { .. })
        ));
    }

    #[test]
    fn mutators_are_deterministic_per_seed() {
        let n = sample_network();
        assert_eq!(dangling_fanin(&n, 3), dangling_fanin(&n, 3));
        assert_eq!(break_topo_order(&n, 3), break_topo_order(&n, 3));
    }

    #[test]
    fn mutators_skip_inapplicable_targets() {
        let mut empty = Network::new("empty");
        assert!(dangling_fanin(&empty, 0).is_none());
        assert!(dangling_output(&empty, 0).is_none());
        let _ = empty.add_input("only");
        assert!(duplicate_input_name(&empty, 0).is_none());
    }

    #[test]
    fn blif_mutators_change_the_bytes() {
        let blif = b".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        for seed in 0..20 {
            let garbled = garble_blif(blif, seed).unwrap();
            assert_ne!(garbled, blif.to_vec());
            let truncated = truncate_blif(blif, seed).unwrap();
            assert!(truncated.len() < blif.len());
            assert!(drop_blif_line(blif, seed).is_some());
            assert!(swap_blif_lines(blif, seed).is_some());
        }
    }

    #[test]
    fn aiger_mutators_change_the_bytes() {
        let aag = b"aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
        for seed in 0..20 {
            let truncated = truncate_aiger(aag, seed).unwrap();
            assert!(truncated.len() < aag.len());
            assert_ne!(garble_aiger(aag, seed).unwrap(), aag.to_vec());
            let perturbed = perturb_aiger_header(aag, seed).unwrap();
            assert_ne!(perturbed, aag.to_vec());
            // Only the header line is touched.
            let tail = |b: &[u8]| b[b.iter().position(|&c| c == b'\n').unwrap()..].to_vec();
            assert_eq!(tail(&perturbed), tail(aag));
        }
    }

    #[test]
    fn perturb_aiger_header_skips_headerless_streams() {
        assert!(perturb_aiger_header(b"no newline", 0).is_none());
        assert!(perturb_aiger_header(b"not aiger at all\nrest\n", 0).is_none());
    }

    #[test]
    fn circuit_mutators_on_the_paper_gate() {
        // (A+B+C)*D protected at the parallel/series junction (Fig. 2).
        let mut c = DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            Pdn::series(vec![
                Pdn::parallel(vec![
                    Pdn::transistor(Signal::input(0)),
                    Pdn::transistor(Signal::input(1)),
                    Pdn::transistor(Signal::input(2)),
                ]),
                Pdn::transistor(Signal::input(3)),
            ]),
        );
        c.add_discharge(GateId::from_index(0), JunctionRef::new(0, 0));
        assert!(hazard::is_safe(&c));

        for seed in 0..20 {
            let dropped = drop_discharge(&c, seed).expect("the discharge is load-bearing");
            assert!(!hazard::is_safe(&dropped));

            let retargeted = retarget_discharge(&c, seed).expect("has discharge");
            assert!(retargeted.validate().is_err());

            let stripped = strip_protection(&c).expect("has protection");
            assert!(!hazard::check(&stripped).is_empty());

            let (rewired, witness) = retarget_fanin(&c, seed).expect("wrong-wire applies");
            assert!(rewired.validate().is_ok());
            assert_ne!(
                c.evaluate(&witness).unwrap(),
                rewired.evaluate(&witness).unwrap()
            );
        }
    }

    #[test]
    fn forgers_touch_only_the_root_table() {
        let mut c = DominoCircuit::new(vec!["a".into(), "b".into()]);
        let g0 = c
            .push_gate(
                soi_domino_ir::DominoGate::footed(Pdn::transistor(Signal::input(0))).view(),
                Some(0),
            )
            .unwrap();
        let g1 = c
            .push_gate(
                soi_domino_ir::DominoGate::footed(Pdn::series(vec![
                    Pdn::transistor(Signal::Gate(g0)),
                    Pdn::transistor(Signal::input(1)),
                ]))
                .view(),
                Some(2),
            )
            .unwrap();
        c.add_output("f", g1);
        for seed in 0..20 {
            for (name, forged) in [
                ("forge_root", forge_root(&c, seed)),
                ("swap_roots", swap_roots(&c, seed)),
                ("credit_root", credit_root(&c, seed)),
                ("truncate_roots", truncate_roots(&c, seed)),
            ] {
                let forged = forged.unwrap_or_else(|| panic!("{name} applies"));
                assert_ne!(forged.roots(), c.roots(), "{name} seed {seed}");
                let mut restored = forged.clone();
                restored.set_roots_unchecked(c.roots().to_vec());
                assert_eq!(
                    restored, c,
                    "{name} seed {seed} touched more than the table"
                );
            }
            let flipped = flip_output_inversion(&c, seed).expect("has an output");
            assert_ne!(flipped.evaluate(&[true, true]), c.evaluate(&[true, true]));
        }
        // Nothing to forge on a hand-built circuit.
        let bare = DominoCircuit::single_gate(vec!["a".into()], Pdn::transistor(Signal::input(0)));
        assert!(forge_root(&bare, 0).is_none());
        assert!(swap_roots(&bare, 0).is_none());
        assert!(credit_root(&bare, 0).is_none());
        assert!(truncate_roots(&bare, 0).is_none());
    }

    #[test]
    fn flip_pdn_junction_detectably_unprotects() {
        // D at the bottom is the PBE-prone orientation; the safe orientation
        // [D, (A+B+C)] needs no discharge. Flipping it back exposes the
        // committed junction with no protection present.
        let c = DominoCircuit::single_gate(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            Pdn::series(vec![
                Pdn::transistor(Signal::input(3)),
                Pdn::parallel(vec![
                    Pdn::transistor(Signal::input(0)),
                    Pdn::transistor(Signal::input(1)),
                    Pdn::transistor(Signal::input(2)),
                ]),
            ]),
        );
        assert!(hazard::is_safe(&c));
        for seed in 0..20 {
            let flipped = flip_pdn_junction(&c, seed).expect("flip is detectable");
            assert!(flipped.validate().is_err() || !hazard::is_safe(&flipped));
        }
    }
}
