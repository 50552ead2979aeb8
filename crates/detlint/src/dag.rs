//! The declared crate-layer DAG behind rule **D08**.
//!
//! The workspace has a deliberate layering — fabric models sit under the
//! BCS primitives, the primitives under the MPI engines, the engines
//! under workloads and harnesses — and every past regression where "just
//! one helper import" punched through a layer was painful to unwind. The
//! DAG lives here as a checked-in table (not inferred from the manifests:
//! the manifests are one of the things being checked), and D08 enforces
//! it from three directions:
//!
//! 1. **Structure**: every declared normal dependency must point to a
//!    strictly lower layer (unit-tested; a cycle or sideways edge is a
//!    bug in this table, caught before it can excuse one in the tree).
//! 2. **Manifests**: each member `Cargo.toml` may only declare dependency
//!    edges present in this table ([`check_manifest`]).
//! 3. **Sources**: `use` paths and qualified-path references in `.rs`
//!    files may only name workspace crates the containing crate declares
//!    (normal deps in shipped code; dev-deps additionally in test/example
//!    context). That check lives in [`crate::semantic`]; this module owns
//!    the lookup tables.
//!
//! `proplite` and `detlint` are standalone tooling: everything may
//! dev-depend on `proplite`, nothing depends on `detlint`.

/// One workspace crate in the declared DAG.
pub struct CrateSpec {
    /// Package name as in `Cargo.toml` (`bcs-mpi`, `quadrics-mpi`, …).
    pub name: &'static str,
    /// Lib/import name as it appears in `use` paths (`bcs_mpi`, …).
    pub lib: &'static str,
    /// Directory key used by [`crate::rules::crate_of`] (`core` for
    /// `bcs-mpi`, `root` for the root package).
    pub dir: &'static str,
    /// Layer index; every normal dep must point strictly downward.
    pub layer: u8,
    /// Standalone tooling (rendered outside the layer stack).
    pub standalone: bool,
    /// Declared normal dependencies (package names).
    pub deps: &'static [&'static str],
    /// Declared dev-dependencies (package names).
    pub dev_deps: &'static [&'static str],
}

/// The declared DAG. Layers (bottom → top); `simcore` also holds the plain
/// containers every layer above keeps state in (`IdTable`, `ChunkLog`):
///
/// ```text
/// L0  simcore        softfloat
/// L1  qsnet                          ┆ proplite (standalone)
/// L2  rdmanet        bcs-core        ┆ detlint  (standalone)
/// L3  mpi-api        storm
/// L4  bcs-mpi        quadrics-mpi
/// L5  faultsim
/// L6  apps
/// L7  bench          bcs-repro (root)
/// ```
pub const CRATES: &[CrateSpec] = &[
    CrateSpec {
        name: "simcore",
        lib: "simcore",
        dir: "simcore",
        layer: 0,
        standalone: false,
        deps: &[],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "softfloat",
        lib: "softfloat",
        dir: "softfloat",
        layer: 0,
        standalone: false,
        deps: &[],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "qsnet",
        lib: "qsnet",
        dir: "qsnet",
        layer: 1,
        standalone: false,
        deps: &["simcore"],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "proplite",
        lib: "proplite",
        dir: "proplite",
        layer: 1,
        standalone: true,
        deps: &["simcore"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "rdmanet",
        lib: "rdmanet",
        dir: "rdmanet",
        layer: 2,
        standalone: false,
        deps: &["simcore", "qsnet"],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "bcs-core",
        lib: "bcs_core",
        dir: "bcs-core",
        layer: 2,
        standalone: false,
        deps: &["simcore", "qsnet"],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "detlint",
        lib: "detlint",
        dir: "detlint",
        layer: 2,
        standalone: true,
        deps: &[],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "mpi-api",
        lib: "mpi_api",
        dir: "mpi-api",
        layer: 3,
        standalone: false,
        deps: &["simcore", "qsnet", "bcs-core"],
        dev_deps: &["proplite", "rdmanet"],
    },
    CrateSpec {
        name: "storm",
        lib: "storm",
        dir: "storm",
        layer: 3,
        standalone: false,
        deps: &["simcore", "qsnet", "bcs-core"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "bcs-mpi",
        lib: "bcs_mpi",
        dir: "core",
        layer: 4,
        standalone: false,
        deps: &["simcore", "qsnet", "rdmanet", "bcs-core", "mpi-api", "softfloat"],
        dev_deps: &["quadrics-mpi", "proplite", "faultsim"],
    },
    CrateSpec {
        name: "quadrics-mpi",
        lib: "quadrics_mpi",
        dir: "quadrics-mpi",
        layer: 4,
        standalone: false,
        deps: &["simcore", "qsnet", "rdmanet", "mpi-api"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "faultsim",
        lib: "faultsim",
        dir: "faultsim",
        layer: 5,
        standalone: false,
        deps: &["simcore", "qsnet", "bcs-core", "mpi-api", "bcs-mpi", "storm"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "apps",
        lib: "apps",
        dir: "apps",
        layer: 6,
        standalone: false,
        deps: &["simcore", "qsnet", "mpi-api", "bcs-mpi", "quadrics-mpi"],
        dev_deps: &["proplite"],
    },
    CrateSpec {
        name: "bench",
        lib: "bench",
        dir: "bench",
        layer: 7,
        standalone: false,
        deps: &[
            "simcore",
            "qsnet",
            "bcs-core",
            "mpi-api",
            "bcs-mpi",
            "quadrics-mpi",
            "storm",
            "apps",
            "faultsim",
        ],
        dev_deps: &[],
    },
    CrateSpec {
        name: "bcs-repro",
        lib: "bcs_repro",
        dir: "root",
        layer: 7,
        standalone: false,
        deps: &[
            "simcore",
            "qsnet",
            "rdmanet",
            "bcs-core",
            "softfloat",
            "mpi-api",
            "bcs-mpi",
            "quadrics-mpi",
            "storm",
            "apps",
            "faultsim",
        ],
        dev_deps: &["proplite"],
    },
];

/// Spec of the crate owning directory key `dir` (as from
/// [`crate::rules::crate_of`]).
pub fn spec_by_dir(dir: &str) -> Option<&'static CrateSpec> {
    CRATES.iter().find(|c| c.dir == dir)
}

/// Spec of the crate with lib/import name `lib`.
pub fn spec_by_lib(lib: &str) -> Option<&'static CrateSpec> {
    CRATES.iter().find(|c| c.lib == lib)
}

fn spec_by_name(name: &str) -> Option<&'static CrateSpec> {
    CRATES.iter().find(|c| c.name == name)
}

/// May crate `from` reference crate `to` (both dir keys)? `dev` widens
/// the answer to include dev-dependencies (test/example context).
pub fn edge_allowed(from: &str, to: &str, dev: bool) -> bool {
    if from == to {
        return true;
    }
    let Some(f) = spec_by_dir(from) else {
        return false;
    };
    let Some(t) = spec_by_dir(to) else {
        return false;
    };
    f.deps.contains(&t.name) || (dev && f.dev_deps.contains(&t.name))
}

/// D08 manifest check: parse one member `Cargo.toml` and report every
/// dependency edge the declared DAG does not carry. Returns
/// `(dep_name, line, dev)` triples for the driver to turn into findings.
///
/// The workspace declares deps as `name.workspace = true` (or
/// `name = { workspace = true, … }`); anything under `[dependencies]` /
/// `[dev-dependencies]` whose key names a workspace crate is an edge.
pub fn check_manifest(crate_dir: &str, manifest: &str) -> Vec<(String, u32, bool)> {
    let Some(spec) = spec_by_dir(crate_dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut section: Option<bool> = None; // Some(dev?)
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = match line {
                "[dependencies]" => Some(false),
                "[dev-dependencies]" => Some(true),
                _ => None,
            };
            continue;
        }
        let Some(dev) = section else { continue };
        // `simcore.workspace = true` / `simcore = { … }`
        let key = line
            .split(|c| c == '.' || c == '=' || c == ' ')
            .next()
            .unwrap_or("");
        if key.is_empty() || key.starts_with('#') {
            continue;
        }
        let Some(dep) = spec_by_name(key) else {
            continue; // not a workspace crate (external deps are D-free here)
        };
        let declared = if dev {
            spec.dev_deps.contains(&dep.name)
        } else {
            spec.deps.contains(&dep.name)
        };
        if !declared {
            out.push((dep.name.to_string(), idx as u32 + 1, dev));
        }
    }
    out
}

/// Render the declared layer DAG plus a call-graph summary as Graphviz
/// dot. Deterministic: iteration order is the fixed [`CRATES`] table and
/// the pre-sorted summary lines.
pub fn to_dot(call_summary: &[String]) -> String {
    let mut s = String::new();
    s.push_str("// Generated by `detlint --graph dot` — the declared crate-layer DAG\n");
    s.push_str("// (rule D08) plus a whole-workspace call-graph summary.\n");
    s.push_str("digraph detlint {\n  rankdir = BT;\n  node [shape = box, fontname = \"monospace\"];\n");
    // One rank per layer, standalone crates in their own cluster.
    let max_layer = CRATES.iter().map(|c| c.layer).max().unwrap_or(0);
    for layer in 0..=max_layer {
        let members: Vec<&CrateSpec> = CRATES
            .iter()
            .filter(|c| c.layer == layer && !c.standalone)
            .collect();
        if members.is_empty() {
            continue;
        }
        s.push_str(&format!("  {{ rank = same; // L{layer}\n"));
        for c in members {
            s.push_str(&format!("    \"{}\" [label = \"{}\\nL{layer}\"];\n", c.name, c.name));
        }
        s.push_str("  }\n");
    }
    s.push_str("  subgraph cluster_standalone {\n    label = \"standalone tooling\";\n");
    for c in CRATES.iter().filter(|c| c.standalone) {
        s.push_str(&format!("    \"{}\";\n", c.name));
    }
    s.push_str("  }\n");
    for c in CRATES {
        for d in c.deps {
            s.push_str(&format!("  \"{}\" -> \"{}\";\n", c.name, d));
        }
        for d in c.dev_deps {
            s.push_str(&format!("  \"{}\" -> \"{}\" [style = dashed]; // dev\n", c.name, d));
        }
    }
    if !call_summary.is_empty() {
        s.push_str("\n  // Call-graph summary (crate-to-crate resolved call edges):\n");
        for line in call_summary {
            s.push_str(&format!("  // {line}\n"));
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_normal_dep_descends_strictly() {
        for c in CRATES {
            for d in c.deps {
                let t = spec_by_name(d).unwrap_or_else(|| panic!("{d} not in table"));
                assert!(
                    t.layer < c.layer,
                    "{} (L{}) -> {} (L{}) does not descend",
                    c.name,
                    c.layer,
                    t.name,
                    t.layer
                );
            }
        }
    }

    #[test]
    fn table_matches_real_manifests() {
        // The real workspace manifests must declare exactly edges the
        // table carries (check_manifest returns no violations), and the
        // table must not invent edges the manifests lack.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for c in CRATES {
            let path = if c.dir == "root" {
                root.join("Cargo.toml")
            } else {
                root.join("crates").join(c.dir).join("Cargo.toml")
            };
            let manifest = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let bad = check_manifest(c.dir, &manifest);
            assert!(bad.is_empty(), "{}: undeclared edges {bad:?}", c.name);
            // Reverse direction: every table edge appears in the manifest.
            for (edges, header) in [
                (c.deps, "[dependencies]"),
                (c.dev_deps, "[dev-dependencies]"),
            ] {
                let Some(start) = manifest.find(header) else {
                    assert!(edges.is_empty(), "{}: missing {header}", c.name);
                    continue;
                };
                let body = &manifest[start..];
                let end = body[header.len()..]
                    .find("\n[")
                    .map(|p| p + header.len())
                    .unwrap_or(body.len());
                let body = &body[..end];
                for d in edges {
                    assert!(
                        body.contains(d),
                        "{}: table edge {d} not in manifest {header}",
                        c.name
                    );
                }
            }
        }
    }

    #[test]
    fn edge_allowed_semantics() {
        // Normal edge, declared: ok in both contexts.
        assert!(edge_allowed("core", "mpi-api", false));
        assert!(edge_allowed("core", "mpi-api", true));
        // Dev-only edge: ok only in dev context.
        assert!(!edge_allowed("core", "quadrics-mpi", false));
        assert!(edge_allowed("core", "quadrics-mpi", true));
        // Undeclared / upward edge: never.
        assert!(!edge_allowed("qsnet", "bcs-core", false));
        assert!(!edge_allowed("qsnet", "bcs-core", true));
        assert!(!edge_allowed("simcore", "bench", false));
        // Self-reference is always fine.
        assert!(edge_allowed("apps", "apps", false));
    }

    #[test]
    fn manifest_violations_are_line_attributed() {
        let bad = "[package]\nname = \"qsnet\"\n\n[dependencies]\nsimcore.workspace = true\nbcs-core.workspace = true\n";
        let v = check_manifest("qsnet", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, "bcs-core");
        assert_eq!(v[0].1, 6);
        assert!(!v[0].2);
    }

    #[test]
    fn dot_output_is_deterministic_and_total() {
        let a = to_dot(&["x -> y: 3".to_string()]);
        let b = to_dot(&["x -> y: 3".to_string()]);
        assert_eq!(a, b);
        for c in CRATES {
            assert!(a.contains(c.name), "{} missing from dot", c.name);
        }
        assert!(a.contains("cluster_standalone"));
        assert!(a.contains("x -> y: 3"));
    }
}
