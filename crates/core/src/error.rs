//! Generation errors.

use protogen_spec::SpecError;
use std::error::Error;
use std::fmt;

/// Errors produced during protocol generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The input SSP or composition failed validation, or describes a
    /// transaction that never completes.
    Spec(SpecError),
    /// The SSP uses a construct the generator does not support; the message
    /// names it and the state where it occurs.
    Unsupported(String),
    /// The preprocessing step could not associate a forwarded request with
    /// the directory states that send it.
    Ambiguous(String),
    /// A generation invariant was violated (an internal bug, not a user
    /// error).
    Internal(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Spec(e) => write!(f, "{e}"),
            GenError::Unsupported(m) => write!(f, "unsupported specification: {m}"),
            GenError::Ambiguous(m) => write!(f, "ambiguous specification: {m}"),
            GenError::Internal(m) => write!(f, "internal generation error: {m}"),
        }
    }
}

impl Error for GenError {}

impl From<SpecError> for GenError {
    fn from(e: SpecError) -> Self {
        GenError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_category() {
        assert!(GenError::Unsupported("x".into()).to_string().contains("unsupported"));
        assert!(GenError::Ambiguous("x".into()).to_string().contains("ambiguous"));
    }

    /// A validation error is carried as itself and printed once, with no
    /// second prefix.
    #[test]
    fn converts_spec_errors() {
        let e: GenError = SpecError::UnknownName("Q".into()).into();
        assert_eq!(e, GenError::Spec(SpecError::UnknownName("Q".into())));
        let e: GenError =
            SpecError::Invalid("level 1 (l1): label already names level 0".into()).into();
        assert_eq!(
            e.to_string(),
            "invalid specification: level 1 (l1): label already names level 0"
        );
    }
}
