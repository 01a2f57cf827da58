use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use soi_unate::UnateError;

use crate::job::PartialMapping;

/// Errors produced by the technology mappers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MapError {
    /// The configuration is out of bounds, or a salvaged
    /// [`PartialMapping`] was handed to a run of a different network,
    /// algorithm or semantic configuration.
    InvalidConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// The unate conversion front end failed.
    Unate {
        /// The underlying error.
        source: UnateError,
    },
    /// An output folded to a constant during unate conversion; domino gates
    /// cannot drive constants.
    ConstantOutput {
        /// The output's name.
        name: String,
    },
    /// A deterministic resource budget from
    /// [`Limits`](crate::Limits) was exhausted.
    BudgetExceeded {
        /// Description of the exhausted budget.
        what: String,
    },
    /// The run's [`CancelToken`](crate::CancelToken) (or the deterministic
    /// `cancel_after_steps` test trip) was observed mid-run.
    Cancelled {
        /// What requested the cancellation.
        what: String,
        /// Work completed before the cancellation was observed.
        partial: Option<Arc<PartialMapping>>,
    },
    /// The wall-clock [`Limits::deadline`](crate::Limits) expired mid-run.
    DeadlineExceeded {
        /// Wall-clock time the run had consumed when the trip was observed.
        elapsed: Duration,
        /// The configured allowance.
        deadline: Duration,
        /// Work completed before the deadline tripped.
        partial: Option<Arc<PartialMapping>>,
    },
    /// A worker panicked while solving a cone unit; the panic was contained
    /// and the remaining workers drained cleanly.
    WorkerPanicked {
        /// Index of the cone unit whose task panicked.
        unit: usize,
        /// The panic payload, rendered as text.
        payload: String,
        /// Work completed by the *other* units before the drain.
        partial: Option<Arc<PartialMapping>>,
    },
}

impl MapError {
    /// The salvaged partial result, when this error interrupted a run that
    /// had completed work ([`Cancelled`](MapError::Cancelled),
    /// [`DeadlineExceeded`](MapError::DeadlineExceeded),
    /// [`WorkerPanicked`](MapError::WorkerPanicked)).
    pub fn partial(&self) -> Option<&Arc<PartialMapping>> {
        match self {
            MapError::Cancelled { partial, .. }
            | MapError::DeadlineExceeded { partial, .. }
            | MapError::WorkerPanicked { partial, .. } => partial.as_ref(),
            _ => None,
        }
    }

    /// Attaches a salvaged partial result to the interrupt variants;
    /// identity on every other variant. Only the DP driver calls this —
    /// deep code raises interrupts with `partial: None` and the driver
    /// fills in what survived.
    pub(crate) fn with_partial(mut self, salvage: Arc<PartialMapping>) -> MapError {
        if let MapError::Cancelled { partial, .. }
        | MapError::DeadlineExceeded { partial, .. }
        | MapError::WorkerPanicked { partial, .. } = &mut self
        {
            *partial = Some(salvage);
        }
        self
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            MapError::Unate { source } => write!(f, "unate conversion failed: {source}"),
            MapError::ConstantOutput { name } => {
                write!(
                    f,
                    "output `{name}` is constant and cannot be mapped to domino"
                )
            }
            MapError::BudgetExceeded { what } => write!(f, "resource budget exceeded: {what}"),
            MapError::Cancelled { what, .. } => write!(f, "mapping cancelled: {what}"),
            MapError::DeadlineExceeded {
                elapsed, deadline, ..
            } => write!(f, "deadline of {deadline:?} exceeded after {elapsed:?}"),
            MapError::WorkerPanicked { unit, payload, .. } => {
                write!(f, "worker panicked on cone unit {unit}: {payload}")
            }
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Unate { source } => Some(source),
            _ => None,
        }
    }
}

impl From<UnateError> for MapError {
    fn from(source: UnateError) -> MapError {
        MapError::Unate { source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MapError::ConstantOutput { name: "f".into() };
        assert!(e.to_string().contains("constant"));
        let e = MapError::InvalidConfig { what: "w".into() };
        assert!(e.to_string().contains("configuration"));
        let e = MapError::BudgetExceeded {
            what: "combine steps".into(),
        };
        assert!(e.to_string().contains("budget"));
        let e = MapError::Cancelled {
            what: "token".into(),
            partial: None,
        };
        assert!(e.to_string().contains("cancelled"));
        let e = MapError::DeadlineExceeded {
            elapsed: Duration::from_millis(7),
            deadline: Duration::from_millis(5),
            partial: None,
        };
        assert!(e.to_string().contains("deadline"));
        let e = MapError::WorkerPanicked {
            unit: 3,
            payload: "boom".into(),
            partial: None,
        };
        assert!(e.to_string().contains("unit 3"));
    }

    #[test]
    fn partial_rides_only_on_interrupt_variants() {
        let salvage = Arc::new(PartialMapping::new(1, vec![0], 0, 0, Vec::new()));
        let e = MapError::Cancelled {
            what: "t".into(),
            partial: None,
        }
        .with_partial(Arc::clone(&salvage));
        assert!(e.partial().is_some());
        let e = MapError::BudgetExceeded { what: "b".into() }.with_partial(salvage);
        assert!(e.partial().is_none());
    }

    #[test]
    fn traits() {
        fn assert_err<T: Error + Send + Sync>() {}
        assert_err::<MapError>();
    }
}
