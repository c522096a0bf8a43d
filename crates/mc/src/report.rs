//! `verify`'s report on a [`CheckResult`]: its verdict, as text and as one
//! JSON document.

use crate::explore::{CheckResult, ResourceLimit, StoreMode};
use crate::store::SHARD_CAPACITY;
use protogen_runtime::Json;

impl CheckResult {
    /// The verdict word: `PASSED`, `FAILED` or `INCOMPLETE`. A limit that
    /// fired before any violation proved nothing either way: not a pass,
    /// but not a counterexample.
    pub fn verdict(&self) -> &'static str {
        match (&self.violation, &self.limit) {
            (Some(_), _) => "FAILED",
            (None, Some(_)) => "INCOMPLETE",
            (None, None) => "PASSED",
        }
    }

    /// The text report on the run that checked `name`: the verdict line —
    /// with `shape` (empty for a flat protocol) between the thread count
    /// and the property set — then the spill, fingerprint-only,
    /// violation and stopped-early lines that apply.
    pub fn render_text(&self, name: &str, shape: &str) -> String {
        let CheckResult { states, transitions, seconds, threads, properties, .. } = self;
        // `seconds` times only this process's epochs while `states` counts
        // the checkpointed ones too, so a resumed run has no honest rate.
        let rate = if self.resumed {
            "resumed".to_string()
        } else {
            format!("{:.0} states/s", *states as f64 / seconds.max(1e-9))
        };
        let (verdict, plural) = (self.verdict(), if *threads == 1 { "" } else { "s" });
        let mut out = format!(
            "{name}: {verdict} — {states} states, {transitions} transitions, {seconds:.2}s \
             ({rate}) on {threads} thread{plural}{shape}; properties {properties}\n"
        );
        if self.spill_bytes > 0 {
            let CheckResult { spill_bytes, spill_chunks, peak_mem_bytes, .. } = self;
            let (frontier, visited) = (self.frontier_spill_bytes, self.visited_spill_bytes);
            // "spilled + completed" is not an early stop: unless a limit
            // fired, the whole space was still explored.
            let completed = if self.limit.is_none() { " — exploration completed" } else { "" };
            out += &format!(
                "spilled {spill_bytes} bytes in {spill_chunks} chunks (frontier {frontier} bytes, \
                 visited records {visited} bytes) under the memory budget (peak accounted RAM \
                 {peak_mem_bytes} bytes){completed}\n"
            );
        }
        if self.store == StoreMode::FpOnly {
            let pairs = self.expected_collision_pairs();
            out += &format!(
                "fingerprint-only store: no counterexample traces; expected state pairs merged \
                 by a 64-bit collision ≈ {pairs:.3e}\n"
            );
        }
        if let Some(v) = &self.violation {
            out += &format!("violation: {}\n", v.kind);
            for line in &v.trace {
                out += &format!("  {line}\n");
            }
        }
        if let Some(l) = &self.limit {
            out += &format!("stopped early: {l} — partial stats only ({})\n", limit_hint(l));
        }
        out
    }

    /// The report as one JSON document: the verdict line's figures, the
    /// visited set's memory by component with the fingerprint map's
    /// counters, the sampled phase split (nanoseconds per successor), then
    /// the limit that fired and the violation with its trace, each absent
    /// when nothing fired.
    pub fn to_json(&self, name: &str) -> Json {
        let (split, counters) = (self.store_split, self.store_counters);
        let per_state = self.store_bytes as f64 / self.states as f64;
        let mut doc = Json::obj([
            ("protocol", Json::Str(name.to_string())),
            ("verdict", Json::Str(self.verdict().into())),
            ("properties", Json::Str(self.properties.to_string())),
            ("states", Json::U64(self.states as u64)),
            ("transitions", Json::U64(self.transitions as u64)),
            ("threads", Json::U64(self.threads as u64)),
            ("seconds", Json::F64(self.seconds)),
            (
                "memory",
                Json::obj([
                    ("store_bytes", Json::U64(self.store_bytes as u64)),
                    ("store_bytes_per_state", Json::F64(per_state)),
                    ("column_bytes", Json::U64(split.column as u64)),
                    ("slot_bytes", Json::U64(split.slots as u64)),
                    ("record_bytes", Json::U64(split.records as u64)),
                    ("peak_mem_bytes", Json::U64(self.peak_mem_bytes as u64)),
                    ("peak_mem_depth", Json::U64(u64::from(self.peak_mem_depth))),
                    ("frontier_bytes", Json::U64(self.frontier_bytes as u64)),
                    ("hot_level_bytes", Json::U64(self.hot_level_bytes as u64)),
                    ("frontier_spill_bytes", Json::U64(self.frontier_spill_bytes)),
                    ("visited_spill_bytes", Json::U64(self.visited_spill_bytes)),
                    ("spill_chunks", Json::U64(self.spill_chunks)),
                ]),
            ),
            (
                "store",
                Json::obj([
                    ("lookups", Json::U64(counters.lookups)),
                    ("probes", Json::U64(counters.probes)),
                    ("column_reads", Json::U64(counters.column_reads)),
                ]),
            ),
        ]);
        let mut phases = Json::obj([
            ("sampled_parents", Json::U64(self.phases.parents)),
            ("sampled_successors", Json::U64(self.phases.successors)),
        ]);
        for (phase, ns) in self.phases.per_successor() {
            phases.push(&format!("{phase}_ns"), Json::F64(ns));
        }
        doc.push("phases", phases);
        if let Some(l) = &self.limit {
            doc.push("limit", Json::Str(l.to_string()));
        }
        if let Some(v) = &self.violation {
            let trace = v.trace.iter().map(|l| Json::Str(l.clone())).collect();
            doc.push(
                "violation",
                Json::obj([("kind", Json::Str(v.kind.to_string())), ("trace", Json::Arr(trace))]),
            );
        }
        doc
    }
}

/// What would let a limit-stopped exploration go further, in `verify`'s
/// flags.
fn limit_hint(limit: &ResourceLimit) -> String {
    match limit {
        ResourceLimit::StateBudget => "raise --max-states to go further".into(),
        ResourceLimit::ShardCapacity { shard } => format!(
            "shard {shard} holds SHARD_CAPACITY = {SHARD_CAPACITY} states and --max-states cannot \
             raise that; more --threads = more shards"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hint_follows_the_limit_that_stopped_the_run() {
        assert_eq!(limit_hint(&ResourceLimit::StateBudget), "raise --max-states to go further");
        let hint = limit_hint(&ResourceLimit::ShardCapacity { shard: 3 });
        for needle in ["shard 3", &SHARD_CAPACITY.to_string(), "more --threads"] {
            assert!(hint.contains(needle), "{hint}");
        }
        assert!(!hint.contains("raise --max-states"), "{hint}");
    }
}
