//! Errors for the federation layer.

use std::error::Error;
use std::fmt;

use privtopk_core::ProtocolError;
use privtopk_datagen::DatagenError;
use privtopk_domain::DomainError;

/// Errors raised while assembling a federation or executing a query.
#[derive(Debug)]
#[non_exhaustive]
pub enum FederationError {
    /// A federation needs at least three members for the probabilistic
    /// protocol.
    TooFewMembers {
        /// Members supplied.
        got: usize,
    },
    /// Members disagree on the public value domain of the sensitive
    /// attribute.
    DomainMismatch,
    /// The queried attribute does not exist at every member — the paper's
    /// schema-matching assumption is violated.
    SchemaMismatch {
        /// The attribute requested.
        attribute: String,
        /// The member (by index) that lacks it.
        member: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// Aggregate queries (sum/mean) require non-negative values.
    NegativeAggregate {
        /// The offending value.
        value: privtopk_domain::Value,
    },
    /// An aggregate's true total does not fit in `u64`.
    AggregateOverflow,
    /// The underlying protocol failed.
    Protocol(ProtocolError),
    /// A table-level failure.
    Datagen(DatagenError),
    /// A domain-level failure.
    Domain(DomainError),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::TooFewMembers { got } => {
                write!(f, "federation needs at least 3 members, got {got}")
            }
            FederationError::DomainMismatch => {
                write!(f, "members disagree on the public value domain")
            }
            FederationError::SchemaMismatch { attribute, member } => {
                write!(f, "member {member} has no attribute `{attribute}`")
            }
            FederationError::ZeroK => write!(f, "k must be at least 1"),
            FederationError::NegativeAggregate { value } => {
                write!(
                    f,
                    "aggregate queries require non-negative values, got {value}"
                )
            }
            FederationError::AggregateOverflow => {
                write!(f, "aggregate total exceeds u64::MAX")
            }
            FederationError::Protocol(e) => write!(f, "protocol error: {e}"),
            FederationError::Datagen(e) => write!(f, "table error: {e}"),
            FederationError::Domain(e) => write!(f, "domain error: {e}"),
        }
    }
}

impl Error for FederationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FederationError::Protocol(e) => Some(e),
            FederationError::Datagen(e) => Some(e),
            FederationError::Domain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for FederationError {
    fn from(e: ProtocolError) -> Self {
        FederationError::Protocol(e)
    }
}

impl From<DatagenError> for FederationError {
    fn from(e: DatagenError) -> Self {
        FederationError::Datagen(e)
    }
}

impl From<DomainError> for FederationError {
    fn from(e: DomainError) -> Self {
        FederationError::Domain(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let variants: Vec<FederationError> = vec![
            FederationError::TooFewMembers { got: 1 },
            FederationError::DomainMismatch,
            FederationError::SchemaMismatch {
                attribute: "sales".into(),
                member: 2,
            },
            FederationError::ZeroK,
            FederationError::NegativeAggregate {
                value: privtopk_domain::Value::new(-3),
            },
            FederationError::Domain(DomainError::ZeroK),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        let e: FederationError = DomainError::ZeroK.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&FederationError::ZeroK).is_none());
    }
}
