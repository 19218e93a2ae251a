//! Error type for the serving runtime.

use std::fmt;

use safex_nn::NnError;

/// Anything the serving runtime can fail with.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A configuration failed validation (message explains which knob).
    BadConfig(String),
    /// An arrival trace violated its invariants (ordering, ids).
    BadTrace(String),
    /// The inference backend failed (wrong input shape, pool error, ...).
    Nn(NnError),
    /// A snapshot failed to decode or did not match the restoring server.
    ///
    /// Restores fail closed: no partial state is ever applied.
    BadSnapshot(String),
    /// A fleet was constructed with two members claiming the same identity.
    DuplicateMember(String),
    /// A hot model swap could not be prepared or verified.
    SwapFailed(String),
    /// A member's backend returned a different number of verdicts than
    /// the batch it was handed had items. The run fails closed instead of
    /// pairing verdicts with the wrong requests or dropping the unpaired
    /// ones.
    VerdictCount {
        /// Name of the fleet member whose backend miscounted.
        member: String,
        /// Items in the batch (one verdict each was owed).
        expected: usize,
        /// Verdicts the backend returned.
        actual: usize,
    },
    /// A finished run did not answer every arrival exactly once. The run
    /// fails closed instead of reporting over a response set that lost or
    /// repeated a request.
    ResponseConservation {
        /// Arrival ids that got no response.
        missing: Vec<u64>,
        /// Ids answered more than once (each listed once).
        duplicated: Vec<u64>,
        /// Response ids that match no arrival.
        unexpected: Vec<u64>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadConfig(msg) => write!(f, "bad serving config: {msg}"),
            ServeError::BadTrace(msg) => write!(f, "bad arrival trace: {msg}"),
            ServeError::Nn(e) => write!(f, "backend failure: {e}"),
            ServeError::BadSnapshot(msg) => write!(f, "bad snapshot: {msg}"),
            ServeError::DuplicateMember(name) => {
                write!(f, "duplicate fleet member: {name}")
            }
            ServeError::SwapFailed(msg) => write!(f, "hot swap failed: {msg}"),
            ServeError::VerdictCount {
                member,
                expected,
                actual,
            } => write!(
                f,
                "member {member} returned {actual} verdicts for a batch of {expected}"
            ),
            ServeError::ResponseConservation {
                missing,
                duplicated,
                unexpected,
            } => write!(
                f,
                "responses do not answer each arrival exactly once: \
                 missing {missing:?}, duplicated {duplicated:?}, unexpected {unexpected:?}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}
