//! Every `[workspace.dependencies]` entry must be named by at least one
//! member manifest: a vendored stand-in nobody depends on is dead weight
//! that still has to be kept compiling.

use std::path::Path;

/// The dependency name a manifest line declares (`name = ...`,
/// `name.workspace = true`), if it declares one.
fn declared_name(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let end = line.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))?;
    let rest = line[end..].trim_start();
    (end > 0 && (rest.starts_with('=') || rest.starts_with('.'))).then(|| &line[..end])
}

#[test]
fn every_workspace_dependency_has_a_member_that_names_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the workspace root");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let declared: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(declared_name)
        .collect();
    assert!(declared.len() > 10, "section not found: {declared:?}");

    let mut members = vec![root.join("tests"), root.join("examples")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        members.push(entry.unwrap().path());
    }
    let used: Vec<String> = members
        .iter()
        .map(|dir| std::fs::read_to_string(dir.join("Cargo.toml")).unwrap())
        .collect();
    for name in declared {
        assert!(
            used.iter()
                .any(|text| text.lines().filter_map(declared_name).any(|n| n == name)),
            "[workspace.dependencies] declares `{name}` but no member manifest names it"
        );
    }
}
