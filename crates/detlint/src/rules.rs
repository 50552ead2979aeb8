//! The lint rules. Each rule guards one class of bit-identical-replay or
//! safety hazard; every rule is individually waivable with an inline
//! `// detlint: allow(D0x) — reason` (see [`crate::waiver`]).
//!
//! | rule | invariant |
//! |------|-----------|
//! | D01  | no host clocks (`Instant`, `SystemTime`) outside `bench::sweep` |
//! | D02  | no iteration over `HashMap`/`HashSet` in sim crates (order is seeded per-process) |
//! | D03  | no `thread::spawn`/`thread::scope`/`thread::Builder` outside `bench::sweep` |
//! | D04  | no `std::env` reads outside `bench` and `detlint` |
//! | D05  | every `unsafe` block/fn/impl carries a `// SAFETY:` comment |
//! | D06  | no host-float literals or `f32`/`f64` in `crates/core` (softfloat owns FP) |
//! | D07  | every crate except `simcore` keeps `#![forbid(unsafe_code)]` |
//!
//! Rules are *lexical*: they scan the token stream, not an AST, so they
//! over-approximate in rare shapes (a `Vec` field that shares its name
//! with a `HashMap` field elsewhere in the crate, say). That is by
//! design — the waiver machinery turns each over-approximation into a
//! documented, stale-checked suppression instead of a silent hole.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// Every rule id detlint knows (waivers naming anything else are W01).
/// D01–D07 are the token rules below; D08–D10 are the parser-based
/// semantic rules in [`crate::semantic`]; D11 is the call-graph taint
/// rule in [`crate::graph`].
pub const RULE_IDS: &[&str] = &[
    "D01", "D02", "D03", "D04", "D05", "D06", "D07", "D08", "D09", "D10", "D11",
];

/// One raw finding inside a single file (file attribution happens in the
/// driver).
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

// ---------------------------------------------------------------------
// Scopes: which paths each rule exempts. Paths are workspace-relative
// with `/` separators.
// ---------------------------------------------------------------------

/// Crate a workspace-relative path belongs to (`crates/<name>/…` →
/// `<name>`, anything else → the root package).
pub fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
}

/// D01: the one host clock is the sweep's, for the line `repro` prints
/// (host time is measured by `perf/`, which is outside the scanned tree).
fn d01_allowed(rel: &str) -> bool {
    rel == "crates/bench/src/sweep.rs"
}

/// D03: real threads exist only inside the sweep worker pool.
fn d03_allowed(rel: &str) -> bool {
    rel == "crates/bench/src/sweep.rs"
}

/// D04: process environment is harness/tooling input, never sim input.
fn d04_allowed(rel: &str) -> bool {
    matches!(crate_of(rel), "bench" | "detlint")
}

/// D02 applies to sim crates: everything except the harness (`bench`),
/// the test framework (`proplite`) and this linter. `match_index` is the
/// sanctioned deterministic-hasher pattern and is exempt by name.
fn d02_applies(rel: &str) -> bool {
    !matches!(crate_of(rel), "bench" | "proplite" | "detlint")
        && rel != "crates/core/src/match_index.rs"
}

/// D06 applies to the BCS-MPI protocol/collective crate sources.
fn d06_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
}

// ---------------------------------------------------------------------
// D02 support: map-typed names.
// ---------------------------------------------------------------------

const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Names bound to `HashMap`/`HashSet` in one file, split by how they are
/// reached: `fields` are struct members (matched as `.name`), `locals`
/// are `let`-bindings (matched bare). Field sets are unioned crate-wide
/// by the driver, since `self.reqs` in one file may be declared in
/// another.
#[derive(Clone, Debug, Default)]
pub struct MapDecls {
    pub fields: BTreeSet<String>,
    pub locals: BTreeSet<String>,
}

/// Collect map-typed names from declarations: `name: HashMap<…>` (field
/// or annotated let) and `name = HashMap::new()` / `HashSet::default()`.
/// Heuristic, not type inference: fn parameters of map type are missed,
/// and same-named non-map bindings elsewhere over-match — both covered
/// by the waiver machinery.
pub fn map_decls(lexed: &Lexed) -> MapDecls {
    let toks = &lexed.toks;
    let mut out = MapDecls::default();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && MAP_TYPES.contains(&toks[i].text.as_str())) {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        // Skip reference sigils in annotations like `: &mut HashMap<…>`.
        while j >= 1 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        if j < 2 {
            continue;
        }
        let (sep, name) = (&toks[j - 1], &toks[j - 2]);
        if name.kind != TokKind::Ident {
            continue;
        }
        let is_let = {
            let mut k = j.saturating_sub(3);
            // `let [mut] name :` / `let [mut] name =`
            if k > 0 && toks[k].is_ident("mut") {
                k -= 1;
            }
            toks[k].is_ident("let")
        };
        if sep.is_punct(":") {
            if is_let {
                out.locals.insert(name.text.clone());
            } else {
                out.fields.insert(name.text.clone());
            }
        } else if sep.is_punct("=") {
            // `name = HashMap::new()` — rebinding or inferred let.
            out.locals.insert(name.text.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------
// The per-file rule pass.
// ---------------------------------------------------------------------

/// Run rules D01–D06 over one lexed file. `fields` must be the crate-wide
/// union of map-typed field names; `locals` the file's own let-bindings.
pub fn check_file(
    rel: &str,
    lexed: &Lexed,
    fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut out = Vec::new();

    // --- token-sequence rules -----------------------------------------
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            // D06: host-float literals.
            if let TokKind::Num { float: true } = t.kind {
                if d06_applies(rel) {
                    out.push(finding(
                        "D06",
                        t,
                        "host-float literal in a bcs-mpi protocol/collective path — float \
                         arithmetic there must route through `softfloat`",
                    ));
                }
            }
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" if !d01_allowed(rel) => {
                out.push(finding(
                    "D01",
                    t,
                    &format!(
                        "host clock (`{}`) outside bench::sweep — wall time is never a \
                         simulation input",
                        t.text
                    ),
                ));
            }
            "thread"
                if !d03_allowed(rel)
                    && i + 2 < toks.len()
                    && toks[i + 1].is_punct("::")
                    && ["spawn", "scope", "Builder"].contains(&toks[i + 2].text.as_str()) =>
            {
                out.push(finding(
                    "D03",
                    t,
                    &format!(
                        "`thread::{}` outside bench::sweep — sim code must stay single-threaded \
                         and scheduler-free",
                        toks[i + 2].text
                    ),
                ));
            }
            "std"
                if !d04_allowed(rel)
                    && i + 2 < toks.len()
                    && toks[i + 1].is_punct("::")
                    && toks[i + 2].is_ident("env") =>
            {
                out.push(finding(
                    "D04",
                    t,
                    "`std::env` outside bench — process environment must not \
                     influence simulation state",
                ));
            }
            "env"
                if !d04_allowed(rel)
                    && i + 2 < toks.len()
                    && toks[i + 1].is_punct("::")
                    && ENV_FNS.contains(&toks[i + 2].text.as_str())
                    // `std::env::var` already fired on the `std` token.
                    && !(i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("std")) =>
            {
                out.push(finding(
                    "D04",
                    t,
                    &format!(
                        "`env::{}` outside bench — process environment must not \
                         influence simulation state",
                        toks[i + 2].text
                    ),
                ));
            }
            "f32" | "f64" if d06_applies(rel) => {
                out.push(finding(
                    "D06",
                    t,
                    &format!(
                        "host `{}` in a bcs-mpi protocol/collective path — float arithmetic \
                         there must route through `softfloat`",
                        t.text
                    ),
                ));
            }
            "unsafe" => {
                if let Some(what) = unsafe_site(toks, i) {
                    if !has_safety_comment(lexed, t.line) {
                        out.push(finding(
                            "D05",
                            t,
                            &format!(
                                "{what} without a `// SAFETY:` comment on the preceding lines"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    // --- D02: map iteration -------------------------------------------
    if d02_applies(rel) {
        d02_iteration(toks, fields, locals, &mut out);
    }

    out.sort_by_key(|f| (f.line, f.col, f.rule));
    out
}

const ENV_FNS: &[&str] = &[
    "var", "var_os", "vars", "vars_os", "args", "args_os", "set_var", "remove_var", "temp_dir",
    "current_dir", "current_exe",
];

fn finding(rule: &'static str, at: &Tok, message: &str) -> Finding {
    Finding {
        rule,
        line: at.line,
        col: at.col,
        message: message.to_string(),
    }
}

/// Classify an `unsafe` token: Some(description) when it needs a SAFETY
/// comment (block / fn item / impl), None when it is a type position
/// (`unsafe fn(*mut u8)` function-pointer types carry no body to justify).
fn unsafe_site(toks: &[Tok], i: usize) -> Option<&'static str> {
    let next = toks.get(i + 1)?;
    if next.is_punct("{") {
        return Some("`unsafe` block");
    }
    if next.is_ident("impl") {
        return Some("`unsafe impl`");
    }
    if next.is_ident("fn") {
        let after = toks.get(i + 2)?;
        if after.kind == TokKind::Ident {
            return Some("`unsafe fn`");
        }
        return None; // `unsafe fn(…)` function-pointer type
    }
    None
}

/// A SAFETY comment covers an unsafe site when it appears on the same
/// line or within the 5 lines above it (doc comments count — each `///`
/// line is its own comment, so a doc block ending just above qualifies).
fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    lexed
        .comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.line <= line && line - c.line <= 5)
}

/// Flag iteration over map-typed names: `recv.name.iter()` for crate-wide
/// fields, bare `name.keys()` for file-local lets, and `for … in` loops
/// whose iterable mentions a map name directly (not behind a further
/// method call — those are caught by the method form).
fn d02_iteration(
    toks: &[Tok],
    fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let msg = |name: &str| {
        format!(
            "iteration over unordered `HashMap`/`HashSet` `{name}` in a sim crate — per-process \
             seeded hash order leaks into results; use `match_index`'s deterministic pattern, a \
             `BTreeMap`, or waive with a written order-insensitivity argument"
        )
    };
    for i in 0..toks.len() {
        // name.iter() / name.keys() / …
        if i >= 2
            && toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks[i - 2].kind == TokKind::Ident
        {
            let name = &toks[i - 2];
            let dotted = i >= 3 && toks[i - 3].is_punct(".");
            let hit = if dotted {
                fields.contains(&name.text)
            } else {
                locals.contains(&name.text)
            };
            if hit {
                out.push(finding("D02", &toks[i], &msg(&name.text)));
            }
        }
        // for … in <iterable> {
        if toks[i].is_ident("for") {
            let Some(in_idx) = toks[i..]
                .iter()
                .take(40)
                .position(|t| t.is_ident("in"))
                .map(|p| i + p)
            else {
                continue;
            };
            for k in in_idx + 1..toks.len().min(in_idx + 40) {
                if toks[k].is_punct("{") {
                    break;
                }
                if toks[k].kind != TokKind::Ident
                    || toks.get(k + 1).is_some_and(|t| t.is_punct("."))
                {
                    // Method chains on the name are handled (or deliberately
                    // tolerated, e.g. `.len()`) by the method form above.
                    continue;
                }
                let dotted = k >= 1 && toks[k - 1].is_punct(".");
                let hit = if dotted {
                    fields.contains(&toks[k].text)
                } else {
                    locals.contains(&toks[k].text)
                };
                if hit {
                    out.push(finding("D02", &toks[k], &msg(&toks[k].text)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// D07: crate-level `#![forbid(unsafe_code)]` presence.
// ---------------------------------------------------------------------

/// Crates allowed to contain `unsafe` (and therefore exempt from D07):
/// only the event-arena crate.
pub const UNSAFE_CRATES: &[&str] = &["simcore"];

/// Check a crate root (`src/lib.rs` / `src/main.rs`) for
/// `#![forbid(unsafe_code)]`. Returns a finding anchored at line 1 when
/// the attribute is missing.
pub fn check_forbid_unsafe(crate_name: &str, lexed: &Lexed) -> Option<Finding> {
    if UNSAFE_CRATES.contains(&crate_name) {
        return None;
    }
    let toks = &lexed.toks;
    let present = toks.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("forbid")
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    });
    if present {
        None
    } else {
        Some(Finding {
            rule: "D07",
            line: 1,
            col: 1,
            message: format!(
                "crate `{crate_name}` is missing `#![forbid(unsafe_code)]` in its crate root \
                 (only `simcore` may contain unsafe code)"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let decls = map_decls(&lexed);
        check_file(rel, &lexed, &decls.fields, &decls.locals)
    }

    #[test]
    fn d01_fires_outside_bench_only() {
        let src = "let t = Instant::now();";
        assert_eq!(run("crates/core/src/engine.rs", src).len(), 1);
        assert_eq!(run("crates/bench/src/sweep.rs", src).len(), 0);
        // But not in other bench files, the binary included:
        assert_eq!(run("crates/bench/src/gate.rs", src).len(), 1);
        assert_eq!(run("crates/bench/src/bin/repro.rs", src).len(), 1);
    }

    #[test]
    fn d02_field_vs_local_matching() {
        let src = "struct S { reqs: HashMap<u64, u64> }\n\
                   fn f(s: &S, reqs: &[u64]) {\n\
                   \x20 for x in s.reqs.keys() {}\n\
                   \x20 let _ = reqs.iter();\n\
                   }\n";
        let fs = run("crates/core/src/engine.rs", src);
        // `s.reqs.keys()` fires; bare `reqs.iter()` (a slice param) does not.
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "D02");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn d02_local_map_and_for_loop() {
        let src = "let mut seen = HashSet::new();\nfor x in seen {}\n";
        let fs = run("crates/qsnet/src/fabric.rs", src);
        assert_eq!(fs.len(), 1);
        // Insert-only use is fine:
        assert_eq!(
            run("crates/qsnet/src/fabric.rs", "let mut seen = HashSet::new();\nseen.insert(1);\n")
                .len(),
            0
        );
        // BTreeMap iteration is fine:
        assert_eq!(
            run("crates/qsnet/src/fabric.rs", "let m = BTreeMap::new();\nfor x in m {}\n").len(),
            0
        );
    }

    #[test]
    fn d02_exempts_match_index_and_harness_crates() {
        let src = "struct S { t: HashMap<u8, u8> }\nfn f(s: &S) { for x in s.t.values() {} }\n";
        assert_eq!(run("crates/core/src/match_index.rs", src).len(), 0);
        assert_eq!(run("crates/bench/src/lib.rs", src).len(), 0);
        assert_eq!(run("crates/proplite/src/runner.rs", src).len(), 0);
        assert_eq!(run("crates/core/src/p2p.rs", src).len(), 1);
    }

    #[test]
    fn d03_and_d04_scoping() {
        let spawn = "std::thread::spawn(|| {});";
        assert_eq!(run("crates/apps/src/runner.rs", spawn).len(), 1);
        assert_eq!(run("crates/bench/src/sweep.rs", spawn).len(), 0);
        let envread = "let v = std::env::var(\"X\");";
        assert_eq!(run("crates/core/src/protocol.rs", envread).len(), 1);
        assert_eq!(run("crates/apps/src/runner.rs", envread).len(), 1);
        assert_eq!(run("crates/bench/src/bin/repro.rs", envread).len(), 0);
        // `use std::env; env::var(…)` — the call form is caught too.
        let uses = "use std::env;\nfn f() { let _ = env::var(\"X\"); }\n";
        let fs = run("crates/storm/src/launch.rs", uses);
        assert_eq!(fs.len(), 2, "{fs:?}"); // the `use` and the call
    }

    #[test]
    fn d05_safety_comment_window() {
        let bad = "fn f() { unsafe { g() } }";
        let good = "fn f() {\n  // SAFETY: g has no preconditions here.\n  unsafe { g() }\n}";
        assert_eq!(run("crates/simcore/src/sim.rs", bad).len(), 1);
        assert_eq!(run("crates/simcore/src/sim.rs", good).len(), 0);
        // unsafe fn item needs one; fn-pointer type does not.
        assert_eq!(run("crates/simcore/src/sim.rs", "unsafe fn h() {}").len(), 1);
        assert_eq!(
            run("crates/simcore/src/sim.rs", "struct S { call: unsafe fn(*mut u8) }").len(),
            0
        );
        // Doc-comment SAFETY above an unsafe fn counts.
        assert_eq!(
            run(
                "crates/simcore/src/sim.rs",
                "/// SAFETY: caller upholds the layout invariant.\nunsafe fn h() {}"
            )
            .len(),
            0
        );
    }

    #[test]
    fn d06_floats_in_core_only() {
        let src = "let x = 0.6 * y as f64;";
        let fs = run("crates/core/src/coll.rs", src);
        assert_eq!(fs.len(), 2, "{fs:?}"); // literal + cast ident
        assert!(fs.iter().all(|f| f.rule == "D06"));
        assert_eq!(run("crates/apps/src/npb/cg.rs", src).len(), 0);
        // Integers and ranges don't fire.
        assert_eq!(run("crates/core/src/coll.rs", "for i in 0..5 { x += i }").len(), 0);
    }

    #[test]
    fn d07_attribute_presence() {
        assert!(check_forbid_unsafe("qsnet", &lex("pub mod fabric;")).is_some());
        assert!(check_forbid_unsafe("qsnet", &lex("#![forbid(unsafe_code)]\npub mod x;")).is_none());
        assert!(check_forbid_unsafe("simcore", &lex("pub mod sim;")).is_none());
    }
}
