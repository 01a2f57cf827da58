use std::error::Error;
use std::fmt;

use soi_netlist::NetworkError;

/// Errors produced by unate conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnateError {
    /// The input network failed validation.
    InvalidNetwork {
        /// The underlying network error.
        source: NetworkError,
    },
}

impl fmt::Display for UnateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnateError::InvalidNetwork { source } => {
                write!(f, "input network is invalid: {source}")
            }
        }
    }
}

impl Error for UnateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            UnateError::InvalidNetwork { source } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_is_exposed() {
        let e = UnateError::InvalidNetwork {
            source: NetworkError::NoOutputs,
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("invalid"));
    }
}
