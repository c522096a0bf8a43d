//! Generation report: everything the paper's evaluation section talks about.

use std::fmt;

/// A forwarded-request rename performed during preprocessing (Tables III/IV
/// of the paper: `Fwd_GetS` arriving at both M and O becomes `Fwd_GetS` at M
/// and `O_Fwd_GetS` at O).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rename {
    /// Original message name.
    pub original: String,
    /// New message name.
    pub renamed: String,
    /// The cache stable state the renamed message is now associated with.
    pub state: String,
}

/// A request reinterpretation requirement discovered during generation
/// (§V-D1: the directory reinterprets an Upgrade that arrives for a block
/// whose requestor is no longer a sharer as a GetM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reinterpretation {
    /// The request as sent.
    pub original: String,
    /// The request the directory treats it as.
    pub treated_as: String,
    /// The directory state where the reinterpretation applies.
    pub dir_state: String,
}

/// A state merge performed by minimization (§VI-B: "ProtoGen was able to
/// merge some states that were kept separate in the primer like
/// IMAS = SMAS").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Merge {
    /// The surviving state name.
    pub kept: String,
    /// The states merged into it.
    pub merged: Vec<String>,
}

/// Per-controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Stable states (from the SSP).
    pub stable_states: usize,
    /// Generated transient states.
    pub transient_states: usize,
    /// Non-stall transitions.
    pub transitions: usize,
    /// Stall entries.
    pub stalls: usize,
}

impl ControllerStats {
    /// Total states.
    pub fn states(&self) -> usize {
        self.stable_states + self.transient_states
    }
}

/// The full report accompanying a generated protocol.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GenReport {
    /// Protocol name.
    pub protocol: String,
    /// Renames performed by preprocessing.
    pub renames: Vec<Rename>,
    /// Reinterpretation rules synthesized for the directory.
    pub reinterpretations: Vec<Reinterpretation>,
    /// Merges in the cache controller.
    pub cache_merges: Vec<Merge>,
    /// Merges in the directory controller.
    pub dir_merges: Vec<Merge>,
    /// Cache controller statistics.
    pub cache: ControllerStats,
    /// Directory controller statistics.
    pub directory: ControllerStats,
    /// Non-fatal observations (naming fallbacks, skipped defensive
    /// handlers, …).
    pub warnings: Vec<String>,
}

impl fmt::Display for GenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol {}", self.protocol)?;
        writeln!(
            f,
            "  cache:     {} states ({} stable + {} transient), {} transitions, {} stalls",
            self.cache.states(),
            self.cache.stable_states,
            self.cache.transient_states,
            self.cache.transitions,
            self.cache.stalls
        )?;
        writeln!(
            f,
            "  directory: {} states ({} stable + {} transient), {} transitions, {} stalls",
            self.directory.states(),
            self.directory.stable_states,
            self.directory.transient_states,
            self.directory.transitions,
            self.directory.stalls
        )?;
        for r in &self.renames {
            writeln!(f, "  rename: {} -> {} (at {})", r.original, r.renamed, r.state)?;
        }
        for r in &self.reinterpretations {
            writeln!(f, "  reinterpret: {} as {} (dir {})", r.original, r.treated_as, r.dir_state)?;
        }
        for m in &self.cache_merges {
            writeln!(f, "  cache merge: {}={}", m.kept, m.merged.join("="))?;
        }
        for m in &self.dir_merges {
            writeln!(f, "  dir merge: {}={}", m.kept, m.merged.join("="))?;
        }
        for w in &self.warnings {
            writeln!(f, "  warning: {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_counts_and_merges() {
        let mut r = GenReport { protocol: "MSI".into(), ..GenReport::default() };
        r.cache.stable_states = 3;
        r.cache.transient_states = 16;
        r.cache_merges.push(Merge { kept: "IM_A_S".into(), merged: vec!["SM_A_S".into()] });
        let s = r.to_string();
        assert!(s.contains("19 states"));
        assert!(s.contains("IM_A_S=SM_A_S"));
    }
}
