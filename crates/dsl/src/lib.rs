//! The ProtoGen domain-specific language (§IV-A).
//!
//! The paper's primary input is an SSP written in a DSL "similar in spirit
//! to Teapot and SLICC" (Listing 1). This crate implements that front-end:
//! a tokenizer, a recursive-descent parser, and a lowering pass onto the
//! [`protogen_spec`] IR. The tokenizer and its [`Cursor`] are public: the
//! litmus test format parses through them too. The statement vocabulary covers everything the
//! paper's protocols need — message sends with payload sources, the
//! acknowledgment-counter idiom of Listing 1 (`set_expected`, `inc_acks`,
//! `acks_complete`), await blocks with guarded arms, and directory
//! auxiliary-state updates.
//!
//! # Example
//!
//! ```
//! let ssp = protogen_dsl::parse_protocol(protogen_dsl::MSI_PGEN).unwrap();
//! assert_eq!(ssp.name, "MSI");
//! assert_eq!(ssp.cache.states.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod lexer;
mod lower;
mod parser;

pub use lexer::{tokenize, Cursor, LexError, Pos, Token, TokenKind, Unexpected};
pub use lower::{lower, LowerError};
pub use parser::{parse, ParseError};

use protogen_spec::SpecError;
use std::error::Error;
use std::fmt;

/// The MSI protocol: the source of `protogen_protocols::msi()`.
pub const MSI_PGEN: &str = include_str!("../protocols/msi.pgen");

/// The MESI protocol: the source of `protogen_protocols::mesi()`.
pub const MESI_PGEN: &str = include_str!("../protocols/mesi.pgen");

/// The MOSI protocol, the paper's preprocessing example: the source of
/// `protogen_protocols::mosi()`.
pub const MOSI_PGEN: &str = include_str!("../protocols/mosi.pgen");

/// The MSI+Upgrade protocol, §V-D1's reinterpretation example: the source
/// of `protogen_protocols::msi_upgrade()`.
pub const MSI_UPGRADE_PGEN: &str = include_str!("../protocols/msi_upgrade.pgen");

/// The MSI protocol for unordered networks, §VI-C's handshake protocol: the
/// source of `protogen_protocols::msi_unordered()`.
pub const MSI_UNORDERED_PGEN: &str = include_str!("../protocols/msi_unordered.pgen");

/// The simplified TSO-CC protocol (§VI-D): the source of
/// `protogen_protocols::tso_cc()`.
pub const TSO_CC_PGEN: &str = include_str!("../protocols/tso_cc.pgen");

/// The self-invalidate/self-downgrade protocol (VIPS-M family): the source
/// of `protogen_protocols::si_sd()`.
pub const SI_SD_PGEN: &str = include_str!("../protocols/si_sd.pgen");

/// Front-end errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error during lowering.
    Lower(LowerError),
    /// The lowered SSP failed [`protogen_spec::Ssp::validate`].
    Spec(SpecError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse(e) => write!(f, "{e}"),
            DslError::Lower(e) => write!(f, "{e}"),
            DslError::Spec(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl From<LowerError> for DslError {
    fn from(e: LowerError) -> Self {
        DslError::Lower(e)
    }
}

impl Error for DslError {}

/// Parses and lowers DSL source into a validated SSP.
///
/// # Errors
///
/// Returns a [`DslError`] describing the first syntactic or semantic
/// problem.
pub fn parse_protocol(src: &str) -> Result<protogen_spec::Ssp, DslError> {
    let ast = parser::parse(src).map_err(DslError::Parse)?;
    lower::lower(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_msi_parses_and_validates() {
        let ssp = parse_protocol(MSI_PGEN).unwrap();
        assert_eq!(ssp.name, "MSI");
        assert_eq!(ssp.cache.states.len(), 3);
        assert_eq!(ssp.directory.states.len(), 3);
        assert!(ssp.msg_by_name("Fwd_GetS").is_some());
    }

    /// Footnote 2 of the paper: in both of MSI's store misses, Inv_Acks
    /// that overtake the Data response are counted in `AD` itself, and a
    /// Data that finds every ack already in completes straight to M.
    #[test]
    fn bundled_msi_store_misses_handle_early_acks() {
        use protogen_spec::{Access, Effect, Guard, Trigger, WaitTo};
        let ssp = parse_protocol(MSI_PGEN).unwrap();
        let data = ssp.msg_by_name("Data").unwrap();
        let inv_ack = ssp.msg_by_name("Inv_Ack").unwrap();
        let m = ssp.cache.state_by_name("M").unwrap();
        for from in ["I", "S"] {
            let s = ssp.cache.state_by_name(from).unwrap();
            let entry = &ssp.cache.entries_for(s, Trigger::Access(Access::Store))[0];
            let Effect::Issue { chain, .. } = &entry.effect else {
                panic!("({from}, store) is not a transaction")
            };
            let ad = &chain.nodes[0];
            assert_eq!(ad.tag, "AD");
            let self_loop = ad.arcs.iter().find(|a| a.msg == inv_ack).expect("Inv_Ack arc in AD");
            assert_eq!(self_loop.to, WaitTo::Wait(0), "({from}, store)");
            assert!(
                ad.arcs.iter().any(|a| a.msg == data
                    && a.guards == [Guard::AcksComplete]
                    && a.to == WaitTo::Done(m)),
                "({from}, store)"
            );
        }
    }

    #[test]
    fn bundled_mesi_parses_and_validates() {
        let ssp = parse_protocol(MESI_PGEN).unwrap();
        assert_eq!(ssp.name, "MESI");
        assert_eq!(ssp.cache.states.len(), 4);
        assert_eq!(ssp.directory.states.len(), 3);
    }

    #[test]
    fn bundled_upgrade_and_tso_cc_parse_and_validate() {
        let up = parse_protocol(MSI_UPGRADE_PGEN).unwrap();
        assert!(up.msg_by_name("Upgrade").is_some());
        let tso = parse_protocol(TSO_CC_PGEN).unwrap();
        assert!(tso.msg_by_name("Inv").is_none());
    }

    #[test]
    fn composition_sources_do_not_lower_to_one_ssp() {
        let src = "protocol H; compose { l1: msi(2); llc: mesi(2); }";
        let ast = parse(src).unwrap();
        assert_eq!(ast.compose.len(), 2);
        assert_eq!(ast.compose[0].protocol, "msi");
        assert_eq!(ast.compose[1].fanout, Some(2));
        assert!(parse(MSI_PGEN).unwrap().compose.is_empty());
        assert!(parse_protocol(src).is_err());
    }

    /// The validator's typed error reaches the caller: a message declared
    /// twice is a `SpecError::DuplicateName`, printed as before.
    #[test]
    fn a_message_declared_twice_is_a_typed_spec_error() {
        let src = "protocol twice;
            network ordered;
            message Get : request;
            message Get : request;
            message Data : response { data };
            cache { state I; state V read; }
            directory { state I; state V; }
            architecture cache {
                process(V, load) { perform; }
                process(I, load) {
                    send Get to dir;
                    await D { when Data: copy_data; perform; -> V; }
                }
            }
            architecture directory {
                process(I, Get) { send Data(data) to req; -> V; }
            }";
        let err = parse_protocol(src).unwrap_err();
        assert!(
            matches!(&err, DslError::Spec(SpecError::DuplicateName(n)) if n == "Get"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "lowering error: duplicate name `Get`");
    }

    /// A `data` suffix overrides the permission's default: MOSI's O is
    /// read-only yet holds valid data (`state O read data`).
    #[test]
    fn bundled_mosi_owned_state_is_read_with_valid_data() {
        let ssp = parse_protocol(MOSI_PGEN).unwrap();
        let o = ssp.cache.state(ssp.cache.state_by_name("O").unwrap());
        assert_eq!(o.perm, protogen_spec::Perm::Read);
        assert!(o.data_valid);
    }

    #[test]
    fn bundled_mosi_parses_and_validates() {
        let ssp = parse_protocol(MOSI_PGEN).unwrap();
        assert_eq!(ssp.name, "MOSI");
        assert_eq!(ssp.cache.states.len(), 4);
        assert_eq!(ssp.directory.states.len(), 4);
        // The conjunction guard survived the round trip.
        let o = ssp.directory.state_by_name("O").unwrap();
        let put_o = ssp.msg_by_name("PutO").unwrap();
        let entries = ssp.directory.entries_for(o, protogen_spec::Trigger::Msg(put_o));
        assert_eq!(entries[0].guards.len(), 2);
    }
}
