//! Render a generated FSM as a table in the style of the paper's Table VI.

use protogen_spec::{
    Access, AccessSummary, Action, Arc, ArcKind, ArcNote, Event, Fsm, FsmState, Guard, MsgClass,
    MsgId,
};
use std::fmt::Write;

/// Rendering options.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Hide synthesized defensive stale-forward handlers (the paper's
    /// tables omit them).
    pub hide_defensive: bool,
    /// Produce Markdown (`|`-delimited) instead of aligned ASCII.
    pub markdown: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions { hide_defensive: true, markdown: false }
    }
}

/// Renders `fsm` as a state × event table.
///
/// Columns: the three accesses (for caches), then one column per message
/// the machine reacts to, splitting messages that carry an acknowledgment
/// count into `(last)` / `(not last)` sub-columns the way the primer's
/// tables split `Data (ack=0)` from `Data (ack>0)` and `Inv-Ack` from
/// `Last-Inv-Ack`.
pub fn render_table(fsm: &Fsm, opts: &TableOptions) -> String {
    let shown = |a: &Arc| !(opts.hide_defensive && a.note == ArcNote::Defensive);
    // Columns: accesses + every message with at least one shown arc.
    let mut reacts = vec![false; fsm.messages.len()];
    for a in fsm.arcs.iter().filter(|a| shown(a)) {
        if let Event::Msg(m) = a.event {
            reacts[m.as_usize()] = true;
        }
    }
    let mut msg_cols: Vec<MsgId> =
        (0..reacts.len()).filter(|&i| reacts[i]).map(MsgId::from_usize).collect();
    msg_cols.sort_by_key(|m| {
        let d = fsm.msg(*m);
        (
            match d.class {
                MsgClass::Forward => 0,
                MsgClass::Response => 1,
                MsgClass::Request => 2,
            },
            m.as_usize(),
        )
    });

    // Each state's arcs, in arc order.
    let mut by_state: Vec<Vec<&Arc>> = vec![Vec::new(); fsm.states.len()];
    for a in &fsm.arcs {
        by_state[a.from.as_usize()].push(a);
    }

    let is_cache = fsm.machine == protogen_spec::MachineKind::Cache;
    let accesses: &[&str] = if is_cache { &["load", "store", "repl"] } else { &[] };
    let msg_names = msg_cols.iter().map(|&m| fsm.msg(m).name.as_str());
    let mut grid = Grid::new(["State"].iter().chain(accesses).copied().chain(msg_names));
    let out = &mut grid.text;
    for (sid, arcs) in fsm.state_ids().zip(&by_state) {
        push_full_name(out, fsm.state(sid));
        grid.ends.push(out.len());
        if is_cache {
            for access in Access::ALL {
                let first = arcs.iter().copied().find(|a| a.event == Event::Access(access));
                match AccessSummary::of(first) {
                    AccessSummary::Undefined => {}
                    AccessSummary::Stall => out.push_str("stall"),
                    AccessSummary::Hit => out.push_str("hit"),
                    AccessSummary::Issue(to) => {
                        if let Some(req) = first.and_then(|a| first_send(&a.actions)) {
                            out.push_str(&fsm.msg(req).name);
                        }
                        out.push('/');
                        push_full_name(out, fsm.state(to));
                    }
                }
                grid.ends.push(out.len());
            }
        }
        for &m in &msg_cols {
            let cells = arcs.iter().filter(|a| a.event == Event::Msg(m) && shown(a));
            for (i, a) in cells.enumerate() {
                // `|` inside a cell would break the Markdown table grid.
                if i > 0 {
                    out.push_str(if opts.markdown { " ; " } else { " | " });
                }
                push_guards(out, &a.guards);
                if a.kind == ArcKind::Stall {
                    out.push_str("stall");
                    continue;
                }
                let mut sends = 0;
                for act in &a.actions {
                    if let Action::Send(sp) = act {
                        if sends > 0 {
                            out.push(',');
                        }
                        sends += 1;
                        let _ = write!(out, "{}>{}", fsm.msg(sp.msg).name, sp.dst);
                    }
                }
                if a.to != sid {
                    out.push('/');
                    push_full_name(out, fsm.state(a.to));
                } else if sends == 0 {
                    out.push('-');
                }
            }
            grid.ends.push(out.len());
        }
    }
    grid.layout(opts.markdown)
}

/// [`protogen_spec::FsmState::full_name`], written in place.
fn push_full_name(out: &mut String, st: &FsmState) {
    out.push_str(&st.name);
    for m in &st.merged_names {
        out.push('=');
        out.push_str(m);
    }
}

/// `[g1&g2] `, or nothing for an unguarded entry.
fn push_guards(out: &mut String, guards: &[Guard]) {
    if guards.is_empty() {
        return;
    }
    out.push('[');
    for (i, g) in guards.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        let _ = write!(out, "{g}");
    }
    out.push_str("] ");
}

fn first_send(actions: &[Action]) -> Option<MsgId> {
    actions.iter().find_map(|a| match a {
        Action::Send(sp) => Some(sp.msg),
        _ => None,
    })
}

/// A table under construction: the text of every cell in one buffer,
/// row-major with the headers first; cell `k` ends at `ends[k]`.
struct Grid {
    ncols: usize,
    text: String,
    ends: Vec<usize>,
}

impl Grid {
    fn new<'h>(headers: impl IntoIterator<Item = &'h str>) -> Grid {
        let mut grid = Grid { ncols: 0, text: String::new(), ends: Vec::new() };
        for h in headers {
            grid.text.push_str(h);
            grid.ends.push(grid.text.len());
        }
        grid.ncols = grid.ends.len();
        grid
    }

    /// Aligns the cells into columns as wide as their widest cell (in
    /// bytes), padding each to that width (in characters).
    fn layout(&self, markdown: bool) -> String {
        let ncols = self.ncols;
        let mut begin = 0;
        let cells: Vec<&str> = self
            .ends
            .iter()
            .map(|&end| {
                let cell = &self.text[begin..end];
                begin = end;
                cell
            })
            .collect();
        let mut widths = vec![0usize; ncols];
        for (i, c) in cells.iter().enumerate() {
            widths[i % ncols] = widths[i % ncols].max(c.len());
        }
        let sep = if markdown { " | " } else { "  " };
        let (edge, edge_r) = if markdown { ("| ", " |") } else { ("", "") };
        let total: usize = widths.iter().sum::<usize>() + sep.len() * (ncols - 1);
        let mut out = String::with_capacity((total + 5) * (cells.len() / ncols + 1));
        let pad = |out: &mut String, n: usize, c: char| out.extend(std::iter::repeat_n(c, n));
        let line = |row: &[&str], out: &mut String| {
            out.push_str(edge);
            for (i, (c, w)) in row.iter().zip(&widths).enumerate() {
                out.push_str(c);
                pad(out, w.saturating_sub(c.chars().count()), ' ');
                if i + 1 < ncols {
                    out.push_str(sep);
                }
            }
            out.push_str(edge_r);
            out.push('\n');
        };
        let mut rows = cells.chunks(ncols);
        line(rows.next().unwrap_or_default(), &mut out);
        if markdown {
            out.push_str(edge);
            for (i, &w) in widths.iter().enumerate() {
                pad(&mut out, w, '-');
                if i + 1 < ncols {
                    out.push_str(sep);
                }
            }
            out.push_str(edge_r);
        } else {
            pad(&mut out, total, '-');
        }
        out.push('\n');
        for row in rows {
            line(row, &mut out);
        }
        out
    }
}

/// Renders the atomic SSP of one machine as a table (the paper's Tables I
/// and II).
pub fn render_ssp_table(ssp: &protogen_spec::Ssp, kind: protogen_spec::MachineKind) -> String {
    use protogen_spec::{Effect, Trigger};
    let m = ssp.machine(kind);
    let mut headers: Vec<String> = vec!["State".into()];
    let mut triggers: Vec<Trigger> = Vec::new();
    if kind == protogen_spec::MachineKind::Cache {
        for a in Access::ALL {
            triggers.push(Trigger::Access(a));
            headers.push(a.to_string());
        }
    }
    for mid in ssp.msg_ids() {
        let t = Trigger::Msg(mid);
        if m.entries.iter().any(|e| e.trigger == t) {
            triggers.push(t);
            headers.push(ssp.msg(mid).name.clone());
        }
    }
    let mut grid = Grid::new(headers.iter().map(String::as_str));
    let out = &mut grid.text;
    for sid in m.state_ids() {
        out.push_str(&m.state(sid).name);
        grid.ends.push(out.len());
        for &t in &triggers {
            for (i, e) in m.entries_for(sid, t).iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                push_guards(out, &e.guards);
                match &e.effect {
                    Effect::Local { actions, next } => {
                        let mut shown = 0;
                        for a in actions {
                            if !matches!(a, Action::Send(_) | Action::PerformAccess) {
                                continue;
                            }
                            if shown > 0 {
                                out.push(',');
                            }
                            shown += 1;
                            match a {
                                Action::Send(sp) => {
                                    let _ = write!(out, "{}>{}", ssp.msg(sp.msg).name, sp.dst);
                                }
                                _ => out.push_str("hit"),
                            }
                        }
                        if let Some(n) = next {
                            out.push('/');
                            out.push_str(&m.state(*n).name);
                        }
                    }
                    Effect::Issue { request, chain } => {
                        if let Some(r) = first_send(request) {
                            out.push_str(&ssp.msg(r).name);
                        }
                        out.push_str("../");
                        for (k, f) in chain.final_states().iter().enumerate() {
                            if k > 0 {
                                out.push('|');
                            }
                            out.push_str(&m.state(*f).name);
                        }
                    }
                }
            }
            grid.ends.push(out.len());
        }
    }
    grid.layout(false)
}

/// Renders a composed stack as one table section per level, leaf-first:
/// the level header, the cache- and directory-side tables, and (for
/// non-root levels) the derived glue — which outer permission each inner
/// message needs at the hosting node before it may be delivered.
pub fn render_composed_table(c: &protogen_core::Composed, opts: &TableOptions) -> String {
    let mut out = String::new();
    for (j, l) in c.levels.iter().enumerate() {
        let title = format!(
            "level {j}: {} — {} (fanout {}, {} node{})",
            l.label,
            l.generated.cache.protocol,
            l.fanout,
            c.node_count(j),
            if c.node_count(j) == 1 { "" } else { "s" }
        );
        if opts.markdown {
            out.push_str(&format!("## {title}\n\n### cache side\n\n"));
        } else {
            out.push_str(&format!("=== {title} ===\n\n--- cache side ---\n"));
        }
        out.push_str(&render_table(&l.generated.cache, opts));
        out.push_str(if opts.markdown {
            "\n### directory side\n\n"
        } else {
            "\n--- directory side ---\n"
        });
        out.push_str(&render_table(&l.generated.directory, opts));
        if let Some(glue) = c.glue.get(j) {
            out.push_str(if opts.markdown {
                "\n### glue (outer permission gate)\n\n"
            } else {
                "\n--- glue (outer permission gate) ---\n"
            });
            let dir = &l.generated.directory;
            for (i, perm) in glue.needed_perm.iter().enumerate() {
                let mid = protogen_spec::MsgId(i as u16);
                let name = &dir.msg(mid).name;
                let line = match perm {
                    protogen_spec::Perm::None => format!("{name}: always deliverable"),
                    p => format!(
                        "{name}: hosting node must hold {p} in {} (acquired by {:?})",
                        c.levels[j + 1].label,
                        glue.acquire_access(mid).unwrap()
                    ),
                };
                if opts.markdown {
                    out.push_str(&format!("- {line}\n"));
                } else {
                    out.push_str(&format!("  {line}\n"));
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen_core::{compose, generate, GenConfig};

    #[test]
    fn table_contains_paper_states_and_cells() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::non_stalling()).unwrap();
        let t = render_table(&g.cache, &TableOptions::default());
        // Table VI anchor points.
        assert!(t.contains("IM_AD_S"), "{t}");
        assert!(t.contains("IM_A_S=SM_A_S"), "{t}");
        assert!(t.contains("IS_D_I"), "{t}");
        // SMAD processes a Case-1 Inv by acknowledging and restarting at
        // IM_AD (Figure 1 of the paper).
        let smad_row: &str = t.lines().find(|l| l.starts_with("SM_AD ")).unwrap();
        assert!(smad_row.contains("Inv_Ack>Req/IM_AD"), "{smad_row}");
    }

    #[test]
    fn ssp_table_matches_table_i() {
        let ssp = protogen_protocols::msi();
        let t = render_ssp_table(&ssp, protogen_spec::MachineKind::Cache);
        assert!(t.contains("GetS"));
        let s_row: &str = t.lines().find(|l| l.starts_with("S ")).unwrap();
        assert!(s_row.contains("hit"));
    }

    #[test]
    fn composed_table_has_one_section_per_level_with_glue() {
        let comp = protogen_protocols::msi_under_msi(2, 2);
        let c = compose(&comp, &GenConfig::stalling()).unwrap();
        let t = render_composed_table(&c, &TableOptions::default());
        assert!(t.contains("=== level 0: l1 — MSI (fanout 2, 4 nodes) ==="), "{t}");
        assert!(t.contains("=== level 1: llc — MSI (fanout 2, 2 nodes) ==="), "{t}");
        // The leaf level carries the glue gate; the root level has none.
        assert!(t.contains("glue (outer permission gate)"));
        assert!(t.contains("must hold RW in llc"), "{t}");
        assert_eq!(t.matches("--- cache side ---").count(), 2);
        assert_eq!(t.matches("glue (outer permission gate)").count(), 1);
    }

    #[test]
    fn markdown_mode_emits_pipes() {
        let ssp = protogen_protocols::msi();
        let g = generate(&ssp, &GenConfig::stalling()).unwrap();
        let t = render_table(&g.directory, &TableOptions { markdown: true, hide_defensive: true });
        assert!(t.starts_with("| "));
    }
}
