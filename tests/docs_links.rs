//! Docs link check: every intra-repo markdown link in the top-level docs
//! resolves to a real file, so the guides cannot silently rot as the tree
//! moves. External (http/https/mailto) links and pure `#fragment` anchors
//! are out of scope — this is an offline repo and CI has no network.

use std::path::{Path, PathBuf};

/// The markdown files whose links are checked: the top-level README plus
/// everything under `docs/`.
fn documents() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md")];
    let dir = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    entries.sort();
    docs.extend(entries);
    docs
}

/// Read a file given by its path relative to the repository root.
fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

/// Extract the targets of inline markdown links `[text](target)` from one
/// line. Good enough for the hand-written guides in this repo: no
/// reference-style links, no nested brackets inside link text.
fn link_targets(line: &str) -> Vec<&str> {
    let mut targets = Vec::new();
    let mut rest = line;
    while let Some(close) = rest.find("](") {
        let after = &rest[close + 2..];
        let Some(end) = after.find(')') else { break };
        targets.push(&after[..end]);
        rest = &after[end + 1..];
    }
    targets
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for doc in documents() {
        let text = std::fs::read_to_string(&doc)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc.display()));
        let base = doc.parent().expect("doc has a parent directory");
        for (lineno, line) in text.lines().enumerate() {
            for target in link_targets(line) {
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with("mailto:")
                    || target.starts_with('#')
                {
                    continue;
                }
                // Strip a trailing `#anchor`; resolve relative to the doc.
                let path_part = target.split('#').next().unwrap_or(target);
                if path_part.is_empty() {
                    continue;
                }
                let resolved = base.join(path_part);
                checked += 1;
                if !resolved.exists() {
                    broken.push(format!(
                        "{}:{}: [{}] -> {}",
                        doc.strip_prefix(root).unwrap_or(&doc).display(),
                        lineno + 1,
                        target,
                        resolved.display()
                    ));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "link check scanned no intra-repo links — the extractor broke"
    );
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n{}",
        broken.join("\n")
    );
}

/// The memory model's gap list must have exactly one home. `docs/memory.md`
/// owns the "Remaining simplifications" section; the serve crate rustdoc
/// and `docs/serving.md` must point there instead of keeping their own
/// ledgers, so the three surfaces cannot drift apart again.
#[test]
fn remaining_simplifications_have_a_single_source_of_truth() {
    let memory = read("docs/memory.md");
    assert!(
        memory.contains("## Remaining simplifications"),
        "docs/memory.md lost its 'Remaining simplifications' section — \
         the serve rustdoc and docs/serving.md link to it"
    );
    let serving = read("docs/serving.md");
    let serving_section = serving
        .split("### Remaining simplifications")
        .nth(1)
        .expect("docs/serving.md keeps its 'Remaining simplifications' stub");
    assert!(
        serving_section.contains("memory.md"),
        "docs/serving.md's simplifications stub must defer to docs/memory.md"
    );
    let serve_lib = read("crates/serve/src/lib.rs");
    let rustdoc_section = serve_lib
        .split("# Known simplifications")
        .nth(1)
        .expect("the serve crate rustdoc keeps its 'Known simplifications' heading");
    assert!(
        rustdoc_section.contains("docs/memory.md"),
        "the serve crate rustdoc must defer to docs/memory.md"
    );
}

/// README's workspace layout cannot drift from the root manifest: every
/// non-shim path in `[workspace] members` (plus `.`, the umbrella root
/// package) has a row in the layout table, every row names a member, and
/// the shims sentence names exactly the `crates/shims/*` members.
#[test]
fn readme_layout_lists_every_workspace_member() {
    let manifest = read("Cargo.toml");
    let (mut shims, mut crates): (Vec<&str>, Vec<&str>) = manifest
        .split("\nmembers = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the root manifest keeps a `members = [...]` list")
        .split('"')
        .skip(1)
        .step_by(2)
        .partition(|member| member.starts_with("crates/shims/"));
    if manifest.contains("\n[package]") {
        crates.push(".");
    }

    let readme = read("README.md");
    let layout = readme
        .split("## Workspace layout")
        .nth(1)
        .expect("README keeps its 'Workspace layout' section");
    let rows: Vec<&str> = layout
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            row.split('|')
                .nth(2)
                .expect("a Path column")
                .trim()
                .trim_matches('`')
        })
        .collect();
    let missing: Vec<&&str> = crates
        .iter()
        .filter(|member| !rows.contains(member))
        .collect();
    assert!(
        missing.is_empty(),
        "README's layout table lacks workspace members: {missing:?}"
    );
    let strays: Vec<&&str> = rows.iter().filter(|row| !crates.contains(row)).collect();
    assert!(
        strays.is_empty(),
        "README's layout table lists paths that are not workspace members: {strays:?}"
    );

    let mut named: Vec<&str> = layout
        .split("The crates under `crates/shims/` (")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("README keeps its shims sentence")
        .split('`')
        .skip(1)
        .step_by(2)
        .collect();
    for shim in &mut shims {
        *shim = shim.trim_start_matches("crates/shims/");
    }
    named.sort_unstable();
    shims.sort_unstable();
    assert_eq!(
        named, shims,
        "README's shims sentence must name exactly the crates/shims/* members"
    );
}

#[test]
fn link_extractor_handles_the_common_shapes() {
    assert_eq!(
        link_targets("see [a](docs/a.md) and [b](b.md#frag)"),
        vec!["docs/a.md", "b.md#frag"]
    );
    assert_eq!(
        link_targets("external [x](https://example.com) only"),
        vec!["https://example.com"]
    );
    assert!(link_targets("no links here").is_empty());
}
