use std::error::Error;
use std::fmt;

use crate::GateId;

/// Errors produced by domino-circuit construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DominoError {
    /// An evaluation vector had the wrong number of entries.
    InputArity {
        /// Number of primary inputs of the circuit.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A gate references a signal that is out of range or non-topological.
    BadSignal {
        /// The offending gate.
        gate: GateId,
        /// Description of the problem.
        what: String,
    },
    /// An output binding refers to a nonexistent gate.
    BadOutput {
        /// Name of the output.
        name: String,
    },
    /// A value does not fit the payload of a packed PDN word.
    TooLarge {
        /// What the value is.
        what: &'static str,
        /// The value.
        value: usize,
        /// The largest value that fits.
        max: usize,
    },
    /// Packed words do not form one normalized series/parallel tree.
    MalformedPdn {
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for DominoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DominoError::InputArity { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            DominoError::BadSignal { gate, what } => write!(f, "gate {gate}: {what}"),
            DominoError::BadOutput { name } => {
                write!(f, "output `{name}` refers to a nonexistent gate")
            }
            DominoError::TooLarge { what, value, max } => {
                write!(f, "{what} {value} does not fit a PDN word (max {max})")
            }
            DominoError::MalformedPdn { what } => write!(f, "malformed PDN: {what}"),
        }
    }
}

impl Error for DominoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits() {
        fn assert_send_sync<T: Send + Sync + Error>() {}
        assert_send_sync::<DominoError>();
        let e = DominoError::BadOutput { name: "f".into() };
        assert!(e.to_string().contains('f'));
    }
}
