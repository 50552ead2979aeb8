//! The per-file semantic rules built on the [`crate::parse`] item tree:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D08  | `use` paths and qualified references only name workspace crates the containing crate declares in the layer DAG ([`crate::dag`]); dev-deps only from test/example context |
//! | D09  | no `_ =>` wildcard or bare-binding arm in a `match` over a protocol enum (`MpiCall`, `MpiResp`, `FabricKind`, `CollAlgo`) in shipped sim-crate code — a new variant must break the build, not fall through |
//! | D10  | no `unwrap`/`expect`/panic-macro/direct index in the designated hot/recovery modules without a fn-level `// PANIC-OK:` justification |
//!
//! (D11, the call-graph taint rule, lives in [`crate::graph`] — it is the
//! one rule that needs the whole workspace at once.)

use crate::dag;
use crate::lexer::Lexed;
use crate::parse::{Event, ParsedFile};
use crate::rules::{crate_of, Finding};

/// Run D08/D09/D10 over one parsed file.
pub fn check_semantic(rel: &str, lexed: &Lexed, parsed: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    d08_layering(rel, parsed, &mut out);
    d09_exhaustiveness(rel, parsed, &mut out);
    d10_panic_paths(rel, lexed, parsed, &mut out);
    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

// ---------------------------------------------------------------------
// D08: layering from source references.
// ---------------------------------------------------------------------

fn d08_layering(rel: &str, parsed: &ParsedFile, out: &mut Vec<Finding>) {
    let own = crate_of(rel);
    // A crate outside the DAG table (a future addition) is skipped here —
    // the tree_clean test pins the table to the real member list, so a new
    // crate shows up as a test failure, not a silent D08 hole.
    if dag::spec_by_dir(own).is_none() {
        return;
    }
    let dev_file = crate::graph::is_dev_path(rel);

    let mut flag = |head: &str, line: u32, col: u32, dev_ctx: bool| {
        let Some(target) = dag::spec_by_lib(head) else {
            return; // std/core/alloc or a local module — not a crate edge
        };
        if target.dir == own {
            return;
        }
        if !dag::edge_allowed(own, target.dir, dev_ctx) {
            let relation = if dag::edge_allowed(own, target.dir, true) {
                "a dev-dependency — allowed only from tests/examples/#[cfg(test)]"
            } else {
                "not a declared dependency in the crate-layer DAG"
            };
            out.push(Finding {
                rule: "D08",
                line,
                col,
                message: format!(
                    "`{own}` references `{head}` ({}), which is {relation}; layering is \
                     declared in detlint::dag and enforced both here and in Cargo.toml",
                    target.name
                ),
            });
        }
    };

    for u in &parsed.uses {
        let mut seen: Vec<&str> = Vec::new();
        for leaf in &u.leaves {
            let head = leaf[0].as_str();
            if seen.contains(&head) {
                continue; // one finding per use declaration per crate
            }
            seen.push(head);
            flag(head, u.line, u.col, dev_file || u.in_cfg_test);
        }
    }
    for p in &parsed.path_refs {
        flag(&p.head, p.line, p.col, dev_file || p.in_cfg_test);
    }
}

// ---------------------------------------------------------------------
// D09: protocol-enum match exhaustiveness.
// ---------------------------------------------------------------------

/// The wire-protocol enums: adding a variant to any of these must fail
/// the build at every match site, because a silently-swallowed variant is
/// a silently-divergent replay.
pub const PROTOCOL_ENUMS: &[&str] =
    &["MpiCall", "MpiResp", "FabricKind", "CollAlgo", "CollKind"];

fn d09_applies(rel: &str) -> bool {
    !matches!(crate_of(rel), "bench" | "detlint" | "proplite")
        && !crate::graph::is_dev_path(rel)
}

fn d09_exhaustiveness(rel: &str, parsed: &ParsedFile, out: &mut Vec<Finding>) {
    if !d09_applies(rel) {
        return;
    }
    for m in &parsed.matches {
        if m.in_cfg_test {
            continue;
        }
        // A match is "over" a protocol enum when any arm pattern carries
        // an `Enum::Variant` path for one of the protocol enums.
        let enum_name = m.arms.iter().find_map(|a| {
            a.paths.iter().find_map(|p| {
                p.iter()
                    .position(|s| PROTOCOL_ENUMS.contains(&s.as_str()))
                    .filter(|&i| i + 1 < p.len())
                    .map(|i| p[i].clone())
            })
        });
        let Some(enum_name) = enum_name else {
            continue;
        };
        for a in &m.arms {
            // A catch-all whose body *diverges loudly* (`other =>
            // unreachable!(…)`) is the sanctioned response-demux idiom:
            // a new variant reaching it aborts with the payload in the
            // message rather than silently falling through. Only silent
            // catch-alls are the hazard.
            if (a.wildcard || a.binding_only) && !a.body_diverges {
                let kind = if a.wildcard { "wildcard `_`" } else { "bare-binding" };
                out.push(Finding {
                    rule: "D09",
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "silent {kind} arm in a `match` over protocol enum `{enum_name}` — \
                         list every variant explicitly (or diverge loudly via \
                         `unreachable!`) so adding a variant cannot fall through silently"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// D10: panic-path audit in designated hot/recovery modules.
// ---------------------------------------------------------------------

/// Modules where an unexpected panic corrupts a slice mid-flight or kills
/// a recovery that was the last line of defense: the BCS p2p and
/// collective engines, the collective round and executors both engines
/// run, faultsim's restore path, and the rank-program VM step loop.
pub const D10_FILES: &[&str] = &[
    "crates/core/src/p2p.rs",
    "crates/core/src/coll.rs",
    "crates/mpi-api/src/round.rs",
    "crates/mpi-api/src/coll_sched/exec.rs",
    "crates/faultsim/src/recover.rs",
    "crates/simcore/src/vm.rs",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How far above the `fn` keyword a `// PANIC-OK:` comment may sit and
/// still cover the fn (attributes and doc lines intervene).
const PANIC_OK_WINDOW: u32 = 8;

fn d10_panic_paths(rel: &str, lexed: &Lexed, parsed: &ParsedFile, out: &mut Vec<Finding>) {
    if !D10_FILES.contains(&rel) {
        return;
    }
    // Body-end lines, shared by attachment and reporting.
    let body_end: Vec<Option<u32>> = parsed
        .fns
        .iter()
        .map(|f| {
            f.body.and_then(|(_, e)| {
                lexed
                    .toks
                    .get(e.saturating_sub(1).min(lexed.toks.len().saturating_sub(1)))
                    .map(|t| t.line)
            })
        })
        .collect();
    // A fn-level justification covers every site in the fn: panics in
    // these modules are tolerable only as a *stated invariant* ("queue
    // non-empty by construction"), and one reasoned comment per fn beats
    // per-line noise. Each comment attaches to exactly one fn — the
    // innermost fn containing it, else the next fn starting within the
    // window below it — so a justification never bleeds onto a neighbor.
    let mut justified = vec![false; parsed.fns.len()];
    for c in &lexed.comments {
        if !c.text.contains("PANIC-OK:") {
            continue;
        }
        let inside = parsed
            .fns
            .iter()
            .enumerate()
            .filter(|(i, f)| {
                body_end[*i].is_some_and(|e| f.line <= c.line && c.line <= e)
            })
            .max_by_key(|(_, f)| f.line)
            .map(|(i, _)| i);
        let target = inside.or_else(|| {
            parsed
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.line >= c.line && f.line - c.line <= PANIC_OK_WINDOW)
                .min_by_key(|(_, f)| f.line)
                .map(|(i, _)| i)
        });
        if let Some(i) = target {
            justified[i] = true;
        }
    }
    for (fi, f) in parsed.fns.iter().enumerate() {
        if f.in_cfg_test || f.body.is_none() || justified[fi] {
            continue;
        }
        for ev in &f.events {
            let (what, line, col) = match ev {
                Event::Method { name, line, col }
                    if PANIC_METHODS.contains(&name.as_str()) =>
                {
                    (format!("`.{name}()`"), *line, *col)
                }
                Event::Macro { name, line, col }
                    if PANIC_MACROS.contains(&name.as_str()) =>
                {
                    (format!("`{name}!`"), *line, *col)
                }
                Event::Index { line, col } => ("direct index `[…]`".to_string(), *line, *col),
                _ => continue,
            };
            out.push(Finding {
                rule: "D10",
                line,
                col,
                message: format!(
                    "{what} in hot/recovery path `{rel}` fn `{}` — a panic here corrupts a \
                     slice or aborts recovery; handle the case, or state the invariant in a \
                     fn-level `// PANIC-OK:` comment",
                    f.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        check_semantic(rel, &lexed, &parsed)
    }

    #[test]
    fn d08_flags_undeclared_and_upward_edges() {
        // qsnet (L1) must not reach bcs-core (L2).
        let fs = run("crates/qsnet/src/fabric.rs", "use bcs_core::XferAndSignal;\n");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "D08");
        // Declared edge is fine.
        assert!(run("crates/qsnet/src/fabric.rs", "use simcore::SimRng;\n").is_empty());
        // Qualified path without a `use` is caught too.
        let fs = run("crates/qsnet/src/model.rs", "fn f() { let _ = storm::launch(); }");
        assert_eq!(fs.len(), 1, "{fs:?}");
        // std paths are not crate edges.
        assert!(run("crates/qsnet/src/model.rs", "use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn d08_dev_dep_needs_dev_context() {
        // proplite is a dev-dep of qsnet: banned in src shipped code…
        let fs = run("crates/qsnet/src/fabric.rs", "use proplite::prelude::*;\n");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("dev-dependency"), "{}", fs[0].message);
        // …fine in tests/, and in #[cfg(test)] modules.
        assert!(run("crates/qsnet/tests/prop.rs", "use proplite::prelude::*;\n").is_empty());
        assert!(run(
            "crates/qsnet/src/fabric.rs",
            "#[cfg(test)]\nmod tests { use proplite::prelude::*; }\n"
        )
        .is_empty());
    }

    #[test]
    fn d09_wildcard_and_binding_arms() {
        let src = "fn f(c: MpiCall) { match c { MpiCall::Barrier => {}, _ => {} } }";
        let fs = run("crates/core/src/protocol.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "D09");
        let src2 = "fn f(c: MpiCall) { match c { MpiCall::Barrier => {}, other => drop(other) } }";
        assert_eq!(run("crates/core/src/protocol.rs", src2).len(), 1);
        // A loudly-diverging catch-all is the sanctioned demux idiom.
        let demux = "fn f(c: MpiResp) { match c { MpiResp::Ok => {}, other => unreachable!(\"{other:?}\") } }";
        assert!(run("crates/core/src/protocol.rs", demux).is_empty());
        // Fully-enumerated match is clean (the true negative).
        let src3 = "fn f(k: FabricKind) { match k { FabricKind::QsNet => {}, FabricKind::Rdma => {} } }";
        assert!(run("crates/core/src/engine.rs", src3).is_empty());
        // Non-protocol enums may use wildcards freely.
        let src4 = "fn f(x: Option<u8>) { match x { Some(1) => {}, _ => {} } }";
        assert!(run("crates/core/src/engine.rs", src4).is_empty());
    }

    #[test]
    fn d09_scope() {
        let src = "fn f(c: MpiCall) { match c { MpiCall::Barrier => {}, _ => {} } }";
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("crates/core/tests/replay.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert!(run("crates/core/src/protocol.rs", &in_test_mod).is_empty());
    }

    #[test]
    fn d10_flags_unjustified_panic_sites() {
        let src = "fn pop(q: &mut Vec<u8>) -> u8 { q.pop().unwrap() }\n\
                   fn peek(q: &[u8]) -> u8 { q[0] }\n\
                   fn dead() { unreachable!() }\n";
        let fs = run("crates/core/src/p2p.rs", src);
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "D10"));
        // Same shapes outside the designated files are free.
        assert!(run("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn d10_panic_ok_comment_covers_the_fn() {
        let src = "// PANIC-OK: queue is non-empty for every scheduled descriptor.\n\
                   fn pop(q: &mut Vec<u8>) -> u8 { q.pop().unwrap() }\n\
                   fn peek(q: &[u8]) -> u8 { q[0] }\n";
        let fs = run("crates/core/src/coll.rs", src);
        // pop is justified; peek is not.
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn d10_ignores_cfg_test_fns() {
        let src = "#[cfg(test)]\nmod tests { fn t(q: &[u8]) -> u8 { q[0] } }\n#[test]\nfn u() { Vec::new().pop().unwrap(); }\n";
        assert!(run("crates/simcore/src/vm.rs", src).is_empty());
    }
}
