//! Murϕ back-end (§IV-B: "we have implemented a backend to the language of
//! the Murϕ model checker") — so far a rule *skeleton* that does not run.
//!
//! What it emits: the declarations (a `Proc` scalarset, state, message and
//! record types, one `net` of *unordered* `multiset` channels per cache,
//! not the checker's per-pair FIFOs) and one `rule` per non-stall arc,
//! guarded by the source state and the arc's guards, whose body sets the
//! target state and lists the arc's actions as `--` comments only. The
//! rules bind neither `p` nor `msg` (no `ruleset`, no receive from `net`),
//! the guards and the closing SWMR / data-value invariants call helpers
//! (`cacheHasWrite`, `acksSatisfied`, `isSharer`, …) that are never
//! defined, and there is no `startstate` and no access-issue rule. The
//! text therefore does not run as emitted, and its tests check only that
//! names appear; the repository's own checker (`protogen-mc`) is what
//! verifies. A complete, runnable model is open work.

use protogen_spec::{ArcKind, Event, Fsm, Guard, MachineKind};
use std::fmt::Write as _;

/// Emits a Murϕ rule skeleton for the protocol's two controllers. It does
/// not run yet: actions are comments, helpers are undefined and channels
/// are unordered.
pub fn to_murphi(cache: &Fsm, dir: &Fsm, n_caches: usize) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "-- Murphi model generated by protogen for protocol {}", cache.protocol);
    let _ = writeln!(w, "const");
    let _ = writeln!(w, "  PROC_COUNT: {n_caches};");
    let _ = writeln!(w, "  VALUE_COUNT: 2;");
    let _ = writeln!(w, "  NET_MAX: 8;");
    let _ = writeln!(w, "type");
    let _ = writeln!(w, "  Proc: scalarset(PROC_COUNT);");
    let _ = writeln!(w, "  Value: scalarset(VALUE_COUNT);");
    let _ = writeln!(w, "  AckCount: 0..PROC_COUNT;");

    let states = |f: &Fsm| -> Vec<String> { f.states.iter().map(|s| sanitize(&s.name)).collect() };
    let _ = writeln!(w, "  CacheState: enum {{ {} }};", states(cache).join(", "));
    let _ = writeln!(w, "  DirState: enum {{ {} }};", states(dir).join(", "));
    let msgs: Vec<String> = cache.messages.iter().map(|m| sanitize(&m.name)).collect();
    let _ = writeln!(w, "  MessageType: enum {{ {} }};", msgs.join(", "));
    let _ = writeln!(w, "  Message: record mtype: MessageType; src: Proc; req: Proc;");
    let _ = writeln!(w, "    acks: AckCount; val: Value; hasVal: boolean; end;");
    let _ = writeln!(w, "var");
    let _ = writeln!(w, "  caches: array [Proc] of record state: CacheState; val: Value;");
    let _ = writeln!(w, "    hasVal: boolean; acksRcvd: AckCount; acksExpt: AckCount; end;");
    let _ = writeln!(w, "  dir: record state: DirState; owner: Proc; hasOwner: boolean;");
    let _ = writeln!(w, "    sharers: multiset [PROC_COUNT] of Proc; val: Value; end;");
    let _ = writeln!(w, "  net: array [Proc] of multiset [NET_MAX] of Message;");
    let _ = writeln!(w, "  lastWrite: Value;");
    let _ = writeln!(w);

    for (fsm, label) in [(cache, "Cache"), (dir, "Directory")] {
        let _ = writeln!(w, "-- {label} transition rules");
        for a in &fsm.arcs {
            if a.kind == ArcKind::Stall {
                continue;
            }
            let from = sanitize(&fsm.state(a.from).name);
            let to = sanitize(&fsm.state(a.to).name);
            let ev = match a.event {
                Event::Access(acc) => format!("{acc}"),
                Event::Msg(m) => sanitize(&fsm.msg(m).name),
            };
            let machine = match fsm.machine {
                MachineKind::Cache => "caches[p].state",
                MachineKind::Directory => "dir.state",
            };
            let _ = writeln!(w, "rule \"{label}_{from}_{ev}{}\"", guard_suffix(&a.guards));
            let _ = write!(w, "  {machine} = {from}");
            for g in &a.guards {
                let _ = write!(w, " & {}", guard_expr(g));
            }
            let _ = writeln!(w, " ==>");
            let _ = writeln!(w, "begin");
            for act in &a.actions {
                let _ = writeln!(w, "  -- {act}");
            }
            let _ = writeln!(w, "  {machine} := {to};");
            let _ = writeln!(w, "end;");
        }
        let _ = writeln!(w);
    }

    let _ = writeln!(w, "invariant \"SWMR\"");
    let _ = writeln!(w, "  forall p: Proc do forall q: Proc do");
    let _ = writeln!(w, "    (p != q) -> !(cacheHasWrite(p) & cacheHasWrite(q))");
    let _ = writeln!(w, "  end end;");
    let _ = writeln!(w, "invariant \"DataValue\"");
    let _ = writeln!(w, "  forall p: Proc do");
    let _ = writeln!(w, "    cacheReadableStable(p) -> (caches[p].val = lastWrite)");
    let _ = writeln!(w, "  end;");
    out
}

fn sanitize(name: &str) -> String {
    name.replace(['=', '+'], "_")
}

fn guard_suffix(guards: &[Guard]) -> String {
    if guards.is_empty() {
        String::new()
    } else {
        let names: Vec<String> = guards.iter().map(|g| format!("{g:?}")).collect();
        format!("_{}", names.join("_"))
    }
}

fn guard_expr(g: &Guard) -> String {
    match g {
        Guard::AckCountIsZero => "msg.acks = 0".into(),
        Guard::AckCountNonZero => "msg.acks > 0".into(),
        Guard::AcksComplete => "acksSatisfied(p, msg)".into(),
        Guard::AcksIncomplete => "!acksSatisfied(p, msg)".into(),
        Guard::ReqIsOwner => "dir.hasOwner & dir.owner = msg.req".into(),
        Guard::ReqIsNotOwner => "!(dir.hasOwner & dir.owner = msg.req)".into(),
        Guard::ReqInSharers => "isSharer(msg.req)".into(),
        Guard::ReqNotInSharers => "!isSharer(msg.req)".into(),
        Guard::ReqIsLastSharer => "isLastSharer(msg.req)".into(),
        Guard::ReqIsNotLastSharer => "!isLastSharer(msg.req)".into(),
        Guard::SharersEmpty => "sharerCount() = 0".into(),
        Guard::SharersNonEmpty => "sharerCount() > 0".into(),
        Guard::NoSharersExceptReq => "sharerCountExcept(msg.req) = 0".into(),
        Guard::SomeSharersExceptReq => "sharerCountExcept(msg.req) > 0".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{generate, GenConfig};

    #[test]
    fn murphi_text_contains_scalarset_and_rules() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
        let text = to_murphi(&g.cache, &g.directory, 3);
        assert!(text.contains("Proc: scalarset(PROC_COUNT)"));
        assert!(text.contains("PROC_COUNT: 3;"));
        assert!(text.contains("CacheState: enum"));
        assert!(text.contains("rule \"Cache_IM_AD_Fwd_GetS\""));
        assert!(text.contains("invariant \"SWMR\""));
    }

    #[test]
    fn merged_names_are_sanitized() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
        let text = to_murphi(&g.cache, &g.directory, 3);
        assert!(!text.contains("=SM_A_S"), "enum members must not contain `=`");
    }
}
