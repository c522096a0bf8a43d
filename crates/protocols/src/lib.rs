//! The stable state protocols evaluated by the ProtoGen paper.
//!
//! Every protocol here is an *atomic* specification — just the stable
//! states, as an architect would write them on a whiteboard. Feeding one to
//! `protogen_core::generate` produces the full concurrent protocol.
//!
//! | Function | Protocol | Paper section |
//! |---|---|---|
//! | [`msi`] | Three-state MSI (Tables I/II) | §VI-A/B |
//! | [`mesi`] | MESI with exclusive-clean state and silent upgrade | §VI-A/B |
//! | [`mosi`] | MOSI with owned state (preprocessing demo, Tables III/IV) | §VI-A/B |
//! | [`msi_upgrade`] | MSI + Upgrade requests (reinterpretation, §V-D1) | §V-D1 |
//! | [`msi_unordered`] | MSI with handshakes for unordered networks | §VI-C |
//! | [`tso_cc`] | Simplified TSO-CC (no sharer tracking) | §VI-D |
//! | [`si_sd`] | Self-invalidate/self-downgrade (VIPS-M family) | related work |
//!
//! # Example
//!
//! ```
//! let ssp = protogen_protocols::msi();
//! assert_eq!(ssp.cache.states.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod mesi;
mod mosi;
mod msi;
mod msi_unordered;
mod msi_upgrade;
mod sanity;
mod si_sd;
mod tso_cc;

pub use compose::{flat_composition, msi_under_mesi, msi_under_msi};
pub use mesi::mesi;
pub use mosi::mosi;
pub use msi::msi;
pub use msi_unordered::msi_unordered;
pub use msi_upgrade::msi_upgrade;
pub use sanity::{sim_sanity, SimSanity};
pub use si_sd::si_sd;
pub use tso_cc::tso_cc;

use protogen_spec::Ssp;

/// All built-in protocols, for sweeps and benchmarks.
pub fn all() -> Vec<Ssp> {
    vec![msi(), mesi(), mosi(), msi_upgrade(), msi_unordered(), tso_cc(), si_sd()]
}

/// The CLI names of the built-in protocols, in [`all`]'s order.
pub const NAMES: [&str; 7] =
    ["msi", "mesi", "mosi", "msi-upgrade", "msi-unordered", "tso-cc", "si-sd"];

/// Looks a protocol up by its CLI name (see [`NAMES`]).
pub fn by_name(name: &str) -> Option<Ssp> {
    Some(match name {
        "msi" => msi(),
        "mesi" => mesi(),
        "mosi" => mosi(),
        "msi-upgrade" => msi_upgrade(),
        "msi-unordered" => msi_unordered(),
        "tso-cc" => tso_cc(),
        "si-sd" => si_sd(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_protocols_validate() {
        for ssp in super::all() {
            ssp.validate().unwrap_or_else(|e| panic!("{}: {e}", ssp.name));
        }
    }
}
