//! Self-tests that hold the package to what it promises outside its own
//! code: a hermetic manifest that builds with the shipped codegen, and a
//! `BENCHMARK.json` that says what the program does.

use std::fs;
use std::path::Path;

use pilgrim_sim::Json;

use crate::compare::BOUNDS;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one `[section]` of a manifest.
fn section(manifest: &str, name: &str) -> Vec<String> {
    let mut inside = false;
    let mut lines = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == format!("[{name}]");
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            lines.push(line.to_string());
        }
    }
    lines
}

#[test]
fn every_dependency_is_a_path_into_the_repository() {
    let manifest = read("Cargo.toml");
    let deps = section(&manifest, "dependencies");
    assert_eq!(
        deps.len(),
        7,
        "one per crate the benchmark measures: {deps:?}"
    );
    for dep in &deps {
        assert!(
            dep.contains("path = \"../crates/"),
            "not a path dependency: {dep}"
        );
        for registry in ["version", "git", "registry"] {
            assert!(!dep.contains(registry), "`{registry}` in: {dep}");
        }
    }
    for other in ["dev-dependencies", "build-dependencies"] {
        assert!(
            section(&manifest, other).is_empty(),
            "[{other}] must stay empty"
        );
    }
    assert!(
        manifest.lines().any(|l| l.trim() == "[workspace]"),
        "the package must be its own workspace root"
    );
}

#[test]
fn the_release_profile_is_the_one_the_repository_ships() {
    let ours = section(&read("Cargo.toml"), "profile.release");
    let roots = section(&read("../Cargo.toml"), "profile.release");
    assert_eq!(ours, roots);
    assert!(ours.contains(&"lto = \"fat\"".to_string()), "{ours:?}");
}

fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn defined(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_says_what_the_program_does() {
    let doc = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(names(&doc, "end_to_end"), defined(END_TO_END));
    assert_eq!(names(&doc, "per_layer"), defined(PER_LAYER));

    let workloads: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap_or(""),
                w.get("why").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(workloads, ours);
    for (name, why) in ours {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: {why}");
    }

    // The driver compares single runs at different seeds, so its bounds
    // are sized to that spread: never tighter than `compare`'s, never
    // above the contract's 0.25, and `setup_s` has the widest.
    let bounds: Vec<(&str, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap_or(""),
                m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0),
            )
        })
        .collect();
    assert_eq!(bounds.len(), BOUNDS.len());
    for ((name, drivers), ours) in bounds.iter().zip(BOUNDS) {
        assert_eq!(*name, ours.name);
        assert!(
            ours.share <= *drivers && *drivers <= bounds[0].1 && bounds[0].1 <= 0.25,
            "{name}: {drivers}"
        );
    }
    assert_eq!(bounds[0].0, "setup_s");

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .filter_map(Json::as_str)
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
    assert!(command.contains(&"--release") && command.contains(&"--offline"));
    assert_eq!(command.last(), Some(&"run"));
}
