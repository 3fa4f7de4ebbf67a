//! Hermeticity regression test: the workspace must build with zero
//! crates-io dependencies (the tier-1 environment has no network), so
//! every dependency in every manifest must be a workspace `path`
//! dependency. This test parses the manifests directly and fails the
//! moment a `version`-style (registry) dependency reappears.

use std::fs;
use std::path::{Path, PathBuf};

/// All manifests in the workspace: the root plus every crate.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).expect("crates/ directory exists");
    for entry in entries {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "missing manifest {}",
            manifest.display()
        );
        out.push(manifest);
    }
    assert!(
        out.len() >= 8,
        "expected the root + 7 crates, found {out:?}"
    );
    out
}

/// A dependency entry found in some manifest section.
#[derive(Debug)]
struct Dep {
    manifest: String,
    section: String,
    line: String,
}

/// Extracts every dependency entry from `[dependencies]`,
/// `[dev-dependencies]`, `[build-dependencies]`, target-specific variants,
/// and `[workspace.dependencies]`.
fn dependency_entries(manifest: &Path) -> Vec<Dep> {
    let text =
        fs::read_to_string(manifest).unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut out = Vec::new();
    let mut section = String::new();
    let mut in_dep_table = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            in_dep_table = section.ends_with("dependencies") || section == "workspace.dependencies";
            continue;
        }
        if in_dep_table {
            out.push(Dep {
                manifest: manifest.display().to_string(),
                section: section.clone(),
                line: line.to_string(),
            });
        }
    }
    out
}

/// A dependency entry is hermetic when it resolves inside the workspace:
/// either an inline `path = "…"` or a `workspace = true` reference to the
/// (path-only, separately checked) `[workspace.dependencies]` table.
fn is_hermetic(dep: &Dep) -> bool {
    if dep.section == "workspace.dependencies" {
        return dep.line.contains("path =") || dep.line.contains("path=");
    }
    dep.line.contains("workspace = true")
        || dep.line.contains("workspace=true")
        || dep.line.contains(".workspace")
        || dep.line.contains("path =")
        || dep.line.contains("path=")
}

#[test]
fn every_dependency_is_a_workspace_path_dependency() {
    let mut violations = Vec::new();
    let mut total = 0;
    for manifest in workspace_manifests() {
        for dep in dependency_entries(&manifest) {
            total += 1;
            if !is_hermetic(&dep) {
                violations.push(format!(
                    "{} [{}]: `{}`",
                    dep.manifest, dep.section, dep.line
                ));
            }
        }
    }
    assert!(total >= 7, "parser found suspiciously few deps ({total})");
    assert!(
        violations.is_empty(),
        "non-path dependencies found — the workspace must stay hermetic \
         (offline tier-1 cannot fetch crates):\n{}",
        violations.join("\n")
    );
}

#[test]
fn banned_registry_crates_never_reappear() {
    // The three crates this workspace used to pull from the registry; the
    // replacements live in-repo (pilgrim_sim::{DetRng, check} and the
    // `benchmark/` package). Mentioning any of them as a dependency key
    // is an instant failure, even with a path.
    for manifest in workspace_manifests() {
        for dep in dependency_entries(&manifest) {
            let key = dep.line.split(['=', '.']).next().unwrap_or_default().trim();
            assert!(
                !matches!(key, "rand" | "proptest" | "criterion"),
                "{} [{}] reintroduces `{key}` — use the in-repo replacement",
                dep.manifest,
                dep.section
            );
        }
    }
}
