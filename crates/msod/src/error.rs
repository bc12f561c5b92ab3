//! MSoD policy validation errors.

use std::fmt;

/// Error raised when constructing an invalid MSoD policy element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsodError {
    /// `ForbiddenCardinality` must satisfy `1 < m <= n` for `n` entries.
    InvalidCardinality {
        /// The offending cardinality value.
        cardinality: usize,
        /// The number of constraint entries.
        entries: usize,
    },
    /// An MMER constraint needs at least two role entries.
    TooFewRoles(usize),
    /// An MMEP constraint needs at least two privilege entries.
    TooFewPrivileges(usize),
    /// A policy must carry at least one MMER or MMEP constraint.
    EmptyPolicy,
    /// A policy's constraints list more distinct entries in total (each
    /// constraint's distinct roles or privileges, summed) than the
    /// decision engine tallies per policy.
    TooManyEntries {
        /// The policy's distinct-entry total.
        entries: usize,
        /// The most the engine tallies ([`crate::sym::MAX_POLICY_TALLY`]).
        max: usize,
    },
}

impl fmt::Display for MsodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsodError::InvalidCardinality { cardinality, entries } => write!(
                f,
                "ForbiddenCardinality {cardinality} invalid for {entries} entries (need 1 < m <= n)"
            ),
            MsodError::TooFewRoles(n) => {
                write!(f, "MMER needs at least 2 role entries, got {n}")
            }
            MsodError::TooFewPrivileges(n) => {
                write!(f, "MMEP needs at least 2 privilege entries, got {n}")
            }
            MsodError::EmptyPolicy => {
                write!(f, "an MSoD policy must contain at least one MMER or MMEP constraint")
            }
            MsodError::TooManyEntries { entries, max } => write!(
                f,
                "an MSoD policy's constraints list {entries} distinct entries (at most {max})"
            ),
        }
    }
}

impl std::error::Error for MsodError {}
