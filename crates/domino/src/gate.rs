use std::fmt;

use crate::{JunctionRef, Pdn, PdnRef};

/// A domino gate: a pull-down network plus its peripheral transistors.
///
/// Peripheral devices and their transistor cost:
///
/// * precharge p-clock transistor — 1,
/// * output inverter — 2,
/// * keeper pmos — 1,
/// * foot n-clock transistor — 1 if the gate is *footed* (required when any
///   PDN transistor is driven by a primary input, which may be high during
///   precharge; gates fed exclusively by other domino gates may be footless),
/// * one pmos pre-discharge transistor per entry in `discharge`.
///
/// This is the owned form a circuit takes in
/// [`DominoCircuit::add_gate`](crate::DominoCircuit::add_gate); a circuit
/// hands its gates out as [`GateRef`] views.
///
/// # Example
///
/// ```rust
/// use soi_domino_ir::{DominoGate, Pdn, Signal};
///
/// let pdn = Pdn::series(vec![
///     Pdn::transistor(Signal::input(0)),
///     Pdn::transistor(Signal::input(1)),
/// ]);
/// let gate = DominoGate::footed(pdn);
/// assert_eq!(gate.overhead_transistors(), 5);
/// assert_eq!(gate.logic_transistors(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominoGate {
    pdn: Pdn,
    footed: bool,
    discharge: Vec<JunctionRef>,
}

impl DominoGate {
    /// Creates a footed gate (with an n-clock transistor) with no discharge
    /// transistors.
    pub fn footed(pdn: Pdn) -> DominoGate {
        DominoGate {
            pdn,
            footed: true,
            discharge: Vec::new(),
        }
    }

    /// Creates a footless gate (no n-clock transistor) with no discharge
    /// transistors.
    pub fn footless(pdn: Pdn) -> DominoGate {
        DominoGate {
            pdn,
            footed: false,
            discharge: Vec::new(),
        }
    }

    /// Creates a gate, choosing footedness by whether the PDN touches a
    /// primary input (the paper's Listing 2 rule).
    pub fn footed_if_primary(pdn: Pdn) -> DominoGate {
        let footed = pdn.touches_primary_input();
        DominoGate {
            pdn,
            footed,
            discharge: Vec::new(),
        }
    }

    /// The borrowed view of the gate.
    pub fn view(&self) -> GateRef<'_> {
        GateRef {
            pdn: self.pdn.view(),
            footed: self.footed,
            discharge: &self.discharge,
        }
    }

    /// The pull-down network.
    pub fn pdn(&self) -> PdnRef<'_> {
        self.pdn.view()
    }

    /// Whether the gate has a foot n-clock transistor.
    pub fn is_footed(&self) -> bool {
        self.footed
    }

    /// The junctions carrying pmos pre-discharge transistors.
    pub fn discharge(&self) -> &[JunctionRef] {
        &self.discharge
    }

    /// Attaches a pre-discharge transistor at the given junction.
    ///
    /// # Panics
    ///
    /// Panics if the junction does not exist in this gate's PDN, or if it
    /// already carries a discharge transistor (the paper adds at most one
    /// per node).
    pub fn add_discharge(&mut self, junction: JunctionRef) {
        self.discharge.push(junction);
        if let Err(what) = check_discharge(self.pdn.view(), &self.discharge) {
            panic!("{what}");
        }
    }

    /// See [`GateRef::overhead_transistors`].
    pub fn overhead_transistors(&self) -> u32 {
        self.view().overhead_transistors()
    }

    /// See [`GateRef::logic_transistors`].
    pub fn logic_transistors(&self) -> u32 {
        self.view().logic_transistors()
    }

    /// See [`GateRef::discharge_transistors`].
    pub fn discharge_transistors(&self) -> u32 {
        self.view().discharge_transistors()
    }

    /// See [`GateRef::clock_transistors`].
    pub fn clock_transistors(&self) -> u32 {
        self.view().clock_transistors()
    }
}

impl fmt::Display for DominoGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Checks a discharge list against its PDN: every junction resolves, and
/// none is listed twice. One walk over the junction's series node per
/// entry; no allocation.
pub(crate) fn check_discharge(pdn: PdnRef<'_>, junctions: &[JunctionRef]) -> Result<(), String> {
    for (i, j) in junctions.iter().enumerate() {
        if !pdn.has_junction(*j) {
            return Err(format!("junction {j} does not exist in this PDN"));
        }
        if junctions[..i].contains(j) {
            return Err(format!("junction {j} already has a discharge transistor"));
        }
    }
    Ok(())
}

/// A borrowed view of one gate: its PDN, footing and discharge set.
///
/// [`DominoCircuit::gate`](crate::DominoCircuit::gate) and
/// [`DominoCircuit::iter`](crate::DominoCircuit::iter) hand these out;
/// [`DominoGate::view`] makes one of an owned gate.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GateRef<'a> {
    pdn: PdnRef<'a>,
    footed: bool,
    discharge: &'a [JunctionRef],
}

impl<'a> GateRef<'a> {
    /// A view assembled from parts. Nothing is checked until the view is
    /// added to a circuit
    /// ([`DominoCircuit::push_gate`](crate::DominoCircuit::push_gate)).
    pub fn new(pdn: PdnRef<'a>, footed: bool, discharge: &'a [JunctionRef]) -> GateRef<'a> {
        GateRef {
            pdn,
            footed,
            discharge,
        }
    }

    /// The pull-down network.
    pub fn pdn(self) -> PdnRef<'a> {
        self.pdn
    }

    /// Whether the gate has a foot n-clock transistor.
    pub fn is_footed(self) -> bool {
        self.footed
    }

    /// The junctions carrying pmos pre-discharge transistors.
    pub fn discharge(self) -> &'a [JunctionRef] {
        self.discharge
    }

    /// Number of transistors beyond the PDN: p-clock + inverter (2) +
    /// keeper + n-clock when footed.
    pub fn overhead_transistors(self) -> u32 {
        4 + u32::from(self.footed)
    }

    /// `T_logic` contribution: PDN transistors plus overhead (everything
    /// except pre-discharge transistors).
    pub fn logic_transistors(self) -> u32 {
        self.pdn.transistor_count() + self.overhead_transistors()
    }

    /// Number of pre-discharge transistors (`T_disch` contribution).
    pub fn discharge_transistors(self) -> u32 {
        self.discharge.len() as u32
    }

    /// Clock-connected transistors: p-clock, the n-clock when footed, and
    /// all pre-discharge transistors (the paper's `T_clock` accounting).
    pub fn clock_transistors(self) -> u32 {
        1 + u32::from(self.footed) + self.discharge_transistors()
    }
}

impl<'a> From<&'a DominoGate> for GateRef<'a> {
    fn from(gate: &'a DominoGate) -> GateRef<'a> {
        gate.view()
    }
}

impl fmt::Display for GateRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "domino{}[{}] disch={}",
            if self.footed { "(footed)" } else { "" },
            self.pdn,
            self.discharge.len()
        )
    }
}

impl fmt::Debug for GateRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateRef")
            .field("pdn", &format_args!("{}", self.pdn))
            .field("footed", &self.footed)
            .field("discharge", &self.discharge)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signal;

    fn two_high_pdn() -> Pdn {
        Pdn::series(vec![
            Pdn::transistor(Signal::input(0)),
            Pdn::transistor(Signal::input(1)),
        ])
    }

    #[test]
    fn footed_counts() {
        let g = DominoGate::footed(two_high_pdn());
        assert_eq!(g.logic_transistors(), 7);
        assert_eq!(g.clock_transistors(), 2);
        assert_eq!(g.discharge_transistors(), 0);
    }

    #[test]
    fn footless_counts() {
        let g = DominoGate::footless(two_high_pdn());
        assert_eq!(g.logic_transistors(), 6);
        assert_eq!(g.clock_transistors(), 1);
    }

    #[test]
    fn footed_if_primary_detects_gate_inputs() {
        let gate_fed = Pdn::transistor(Signal::Gate(crate::GateId::from_index(3)));
        assert!(!DominoGate::footed_if_primary(gate_fed).is_footed());
        assert!(DominoGate::footed_if_primary(two_high_pdn()).is_footed());
    }

    #[test]
    fn discharge_accounting() {
        let mut g = DominoGate::footed(two_high_pdn());
        g.add_discharge(JunctionRef::new(0, 0));
        assert_eq!(g.discharge_transistors(), 1);
        assert_eq!(g.clock_transistors(), 3);
        // logic count unchanged by discharge.
        assert_eq!(g.logic_transistors(), 7);
        assert_eq!(g.view().to_string(), "domino(footed)[(i0 * i1)] disch=1");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn discharge_requires_real_junction() {
        let mut g = DominoGate::footed(two_high_pdn());
        g.add_discharge(JunctionRef::new(9, 0));
    }

    #[test]
    #[should_panic(expected = "already has")]
    fn duplicate_discharge_rejected() {
        let mut g = DominoGate::footed(two_high_pdn());
        g.add_discharge(JunctionRef::new(0, 0));
        g.add_discharge(JunctionRef::new(0, 0));
    }
}
