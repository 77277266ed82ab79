//! Project-specific static analysis for the EdgeMM workspace.
//!
//! `cargo run -p edgemm-lint` walks every workspace source file with a
//! hand-rolled lexer (no crates.io dependencies, consistent with the shim
//! policy) and applies a small set of rules that encode project invariants
//! the compiler cannot:
//!
//! | id | invariant |
//! |----|-----------|
//! | `unit-cast` | no raw `as` numeric casts in the unit-bearing crates (`sim`, `mem`, `serve`, `fleet`); use `edgemm_core::units` |
//! | `float-eq` | no `==`/`!=` against float literals outside tests; use `edgemm_core::float` helpers |
//! | `no-unwrap` | no `unwrap`/`expect` in library code (tests/bins/examples exempt) |
//! | `float-partial-cmp` | no `.partial_cmp(` in the unit-bearing crates; float sort keys must use `edgemm_core::float::total_cmp` (unit newtypes are `Ord` — call `.cmp`) |
//! | `sim-determinism` | no wall-clock (`std::time`, `SystemTime`, `Instant`) or randomized hashing (`DefaultHasher`, `RandomState`) in the `sim`/`serve`/`mem`/`fleet` cores |
//! | `raw-thread` | no `thread::spawn` or `Instant` in library code outside `crates/exec`; host parallelism goes through `edgemm_exec::Pool`, timing stays in the bench binary |
//! | `workspace-sync` | every `[workspace] members` entry is also in `default-members` (the tier-1 silent-skip gotcha) |
//!
//! Findings can be suppressed per line with `// lint:allow(<id>)` (on the
//! offending line or the line directly above). See `docs/static-analysis.md`
//! for the full catalogue and the recipe for adding a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, LexedFile, Token, TokenKind};

/// Stable identifiers of the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Raw `as` numeric cast in a unit-bearing crate.
    UnitCast,
    /// `==`/`!=` against a float literal in non-test code.
    FloatEq,
    /// `unwrap`/`expect` in library code.
    NoUnwrap,
    /// `.partial_cmp(` in a unit-bearing crate (NaN-unsafe float ordering).
    FloatPartialCmp,
    /// Wall-clock time source in a deterministic core.
    SimDeterminism,
    /// Hand-rolled host thread or wall clock outside the execution layer.
    RawThread,
    /// Workspace member missing from `default-members`.
    WorkspaceSync,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 7] = [
        RuleId::UnitCast,
        RuleId::FloatEq,
        RuleId::NoUnwrap,
        RuleId::FloatPartialCmp,
        RuleId::SimDeterminism,
        RuleId::RawThread,
        RuleId::WorkspaceSync,
    ];

    /// The stable string id used in reports and `lint:allow` clauses.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnitCast => "unit-cast",
            RuleId::FloatEq => "float-eq",
            RuleId::NoUnwrap => "no-unwrap",
            RuleId::FloatPartialCmp => "float-partial-cmp",
            RuleId::SimDeterminism => "sim-determinism",
            RuleId::RawThread => "raw-thread",
            RuleId::WorkspaceSync => "workspace-sync",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::UnitCast => {
                "no raw `as` numeric casts in sim/mem/serve; use edgemm_core::units"
            }
            RuleId::FloatEq => {
                "no ==/!= against float literals outside tests; use edgemm_core::float"
            }
            RuleId::NoUnwrap => "no unwrap/expect in library code (tests/bins/examples exempt)",
            RuleId::FloatPartialCmp => {
                "no .partial_cmp( in sim/mem/serve; float sort keys use \
                 edgemm_core::float::total_cmp, unit newtypes are Ord"
            }
            RuleId::SimDeterminism => {
                "no wall clocks (std::time/SystemTime/Instant) or randomized \
                 hashing (DefaultHasher/RandomState) in the sim/serve/mem cores"
            }
            RuleId::RawThread => {
                "no thread::spawn or Instant in library code outside crates/exec; \
                 fan out through edgemm_exec::Pool (bins/tests exempt)"
            }
            RuleId::WorkspaceSync => {
                "every [workspace] member must also be listed in default-members"
            }
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes).
    pub col: usize,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule.id(),
            self.message
        )
    }
}

/// Result of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of files scanned (sources plus the root manifest).
    pub files_checked: usize,
}

/// How a file's code is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library code: all code rules apply (outside `#[cfg(test)]` regions).
    Library,
    /// Tests, benches, examples, binaries, build scripts: code rules skip.
    TestLike,
}

/// Classifies a workspace-relative path.
pub fn scope_of(rel: &Path) -> Scope {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let file = comps.last().copied().unwrap_or("");
    let test_dir = comps
        .iter()
        .any(|c| matches!(*c, "tests" | "examples" | "benches" | "bin"));
    if test_dir || file == "main.rs" || file == "build.rs" {
        Scope::TestLike
    } else {
        Scope::Library
    }
}

/// Whether `rel` is inside one of the unit-bearing crates the `unit-cast`
/// and `sim-determinism` rules police.
fn in_unit_crates(rel: &Path) -> bool {
    [
        "crates/sim/src",
        "crates/mem/src",
        "crates/serve/src",
        "crates/fleet/src",
    ]
    .iter()
    .any(|prefix| rel.starts_with(prefix))
}

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Lints one source file. Public so fixture tests can drive rules directly
/// with a synthetic workspace-relative path.
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    if scope_of(rel) == Scope::TestLike {
        return Vec::new();
    }
    let lexed = lex(src);
    let mut findings = Vec::new();
    check_unit_cast(rel, src, &lexed, &mut findings);
    check_float_eq(rel, src, &lexed, &mut findings);
    check_no_unwrap(rel, src, &lexed, &mut findings);
    check_float_partial_cmp(rel, src, &lexed, &mut findings);
    check_sim_determinism(rel, src, &lexed, &mut findings);
    check_raw_thread(rel, src, &lexed, &mut findings);
    findings
}

fn push_unless_allowed(
    findings: &mut Vec<Finding>,
    lexed: &LexedFile,
    rel: &Path,
    token: &Token,
    rule: RuleId,
    message: String,
) {
    if lexed.in_test_region(token.start) || lexed.is_suppressed(token.line, rule.id()) {
        return;
    }
    findings.push(Finding {
        file: rel.to_path_buf(),
        line: token.line,
        col: token.col,
        rule,
        message,
    });
}

/// `unit-cast`: `as <numeric>` in sim/mem/serve library code. `units.rs` is
/// exempt by name — it is the designated home of raw conversions.
fn check_unit_cast(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if !in_unit_crates(rel) || rel.file_name().is_some_and(|f| f == "units.rs") {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text(src) != "as" {
            continue;
        }
        let Some(next) = lexed.tokens.get(i + 1) else {
            continue;
        };
        if next.kind == TokenKind::Ident && NUMERIC_TYPES.contains(&next.text(src)) {
            push_unless_allowed(
                findings,
                lexed,
                rel,
                tok,
                RuleId::UnitCast,
                format!(
                    "raw `as {}` cast on a unit-bearing value; use an \
                     `edgemm_core::units` constructor/accessor (or annotate a \
                     dimensionless count with `// lint:allow(unit-cast)`)",
                    next.text(src)
                ),
            );
        }
    }
}

/// `float-eq`: `==`/`!=` with a float literal operand.
fn check_float_eq(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        let op = tok.text(src);
        if op != "==" && op != "!=" {
            continue;
        }
        let prev_float = i
            .checked_sub(1)
            .and_then(|j| lexed.tokens.get(j))
            .is_some_and(|t| t.kind == TokenKind::Float);
        let next_float = lexed
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Float);
        if prev_float || next_float {
            push_unless_allowed(
                findings,
                lexed,
                rel,
                tok,
                RuleId::FloatEq,
                format!(
                    "`{op}` against a float literal; use \
                     `edgemm_core::float::{{approx_eq, is_zero, is_one}}`"
                ),
            );
        }
    }
}

/// `no-unwrap`: `.unwrap()` / `.expect(` in library code.
fn check_no_unwrap(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text(src);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        let after_dot = i
            .checked_sub(1)
            .and_then(|j| lexed.tokens.get(j))
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == ".");
        let before_paren = lexed
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == "(");
        if after_dot && before_paren {
            push_unless_allowed(
                findings,
                lexed,
                rel,
                tok,
                RuleId::NoUnwrap,
                format!(
                    "`.{name}()` in library code; return an error/Option or \
                     justify the invariant with `// lint:allow(no-unwrap)`"
                ),
            );
        }
    }
}

/// `float-partial-cmp`: `.partial_cmp(` calls in the unit-bearing crates.
/// A float sort key compared this way either panics (`.expect("finite")`)
/// or silently mis-sorts (`unwrap_or(Equal)`) once a NaN slips in;
/// `edgemm_core::float::total_cmp` orders every bit pattern. The unit
/// newtypes themselves are `Ord`, so non-float keys have `.cmp`.
fn check_float_partial_cmp(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if !in_unit_crates(rel) {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text(src) != "partial_cmp" {
            continue;
        }
        let after_dot = i
            .checked_sub(1)
            .and_then(|j| lexed.tokens.get(j))
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == ".");
        let before_paren = lexed
            .tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == "(");
        if after_dot && before_paren {
            push_unless_allowed(
                findings,
                lexed,
                rel,
                tok,
                RuleId::FloatPartialCmp,
                "`.partial_cmp(` is NaN-unsafe; sort float keys with \
                 `edgemm_core::float::total_cmp` (unit newtypes are `Ord`: \
                 use `.cmp`)"
                    .to_string(),
            );
        }
    }
}

/// `sim-determinism`: wall-clock sources in the deterministic cores.
fn check_sim_determinism(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if !in_unit_crates(rel) {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text(src);
        let hit = match name {
            "SystemTime" | "Instant" => true,
            // Randomized hashing: `DefaultHasher`/`RandomState` seed from
            // process entropy, so prefix keys or map iteration built on
            // them differ across runs. The sharing/spill paths hash with
            // the fixed-seed `edgemm_mem::fnv1a_64` instead.
            "DefaultHasher" | "RandomState" => true,
            "time" => {
                // `std::time` path segments.
                i >= 2
                    && lexed.tokens[i - 1].text(src) == "::"
                    && lexed.tokens[i - 2].text(src) == "std"
            }
            _ => false,
        };
        if hit {
            let message = if matches!(name, "DefaultHasher" | "RandomState") {
                format!(
                    "randomized hasher `{name}` in a deterministic core; hash \
                     with the fixed-seed `edgemm_mem::fnv1a_64` so prefix keys \
                     are stable across runs"
                )
            } else {
                format!(
                    "wall-clock source `{name}` in a deterministic core; the \
                     simulators must derive all time from modelled cycles"
                )
            };
            push_unless_allowed(findings, lexed, rel, tok, RuleId::SimDeterminism, message);
        }
    }
}

/// `raw-thread`: hand-rolled host concurrency (`thread::spawn`) or
/// wall-clock timing (`Instant`) in library code outside `crates/exec`.
/// Every other crate must fan out through `edgemm_exec::Pool`, whose
/// input-index result ordering and `EDGEMM_THREADS=1` serial mode keep
/// parallel results byte-identical to serial ones — a raw spawn reorders
/// under load, and a raw clock leaks host time into simulated results.
/// Bins (including the bench binary, the one sanctioned `Instant` user),
/// tests, examples and build scripts are exempt via [`scope_of`].
fn check_raw_thread(rel: &Path, src: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if rel.starts_with("crates/exec/src") {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let (hit, message) = match tok.text(src) {
            "spawn" => (
                i >= 2
                    && lexed.tokens[i - 1].text(src) == "::"
                    && lexed.tokens[i - 2].text(src) == "thread",
                "raw `thread::spawn` outside the execution layer; fan out \
                 through `edgemm_exec::Pool::par_map` so worker count and \
                 result order stay deterministic",
            ),
            // Inside sim/mem/serve an `Instant` is already `sim-determinism`'s
            // finding; reporting the same token under two ids would be noise.
            "Instant" => (
                !in_unit_crates(rel),
                "wall-clock `Instant` in library code; timing belongs to the \
                 bench binary — libraries derive time from modelled cycles",
            ),
            _ => (false, ""),
        };
        if hit {
            push_unless_allowed(
                findings,
                lexed,
                rel,
                tok,
                RuleId::RawThread,
                message.to_string(),
            );
        }
    }
}

/// `workspace-sync`: checks the root manifest text. Returns findings with
/// 1-based line numbers of the offending `members` entries.
pub fn check_workspace_sync(manifest_rel: &Path, toml: &str) -> Vec<Finding> {
    let members = toml_list(toml, "members");
    let defaults = toml_list(toml, "default-members");
    if members.is_empty() || defaults.is_empty() {
        return Vec::new();
    }
    members
        .into_iter()
        .filter(|(_, m)| !defaults.iter().any(|(_, d)| d == m))
        .map(|(line, m)| Finding {
            file: manifest_rel.to_path_buf(),
            line,
            col: 1,
            rule: RuleId::WorkspaceSync,
            message: format!(
                "workspace member `{m}` is missing from `default-members`; \
                 root `cargo build`/`cargo test` would silently skip it"
            ),
        })
        .collect()
}

/// Extracts the quoted entries (with their line numbers) of a top-level
/// `key = [ ... ]` array in a TOML document. Line-oriented on purpose: the
/// root manifest is formatted one entry per line.
fn toml_list(toml: &str, key: &str) -> Vec<(usize, String)> {
    let mut entries = Vec::new();
    let mut in_array = false;
    for (idx, raw_line) in toml.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if !in_array {
            let Some(rest) = line.strip_prefix(key) else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            if rest.trim_start().starts_with('[') {
                in_array = true;
                // Entries may share the opening line.
                collect_quoted(rest, idx + 1, &mut entries);
                if rest.contains(']') {
                    in_array = false;
                }
            }
        } else {
            collect_quoted(line, idx + 1, &mut entries);
            if line.contains(']') {
                in_array = false;
            }
        }
    }
    entries
}

fn collect_quoted(line: &str, line_no: usize, out: &mut Vec<(usize, String)>) {
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            return;
        };
        out.push((line_no, rest[open + 1..open + 1 + close].to_string()));
        rest = &rest[open + 2 + close..];
    }
}

/// Directories never walked: build artefacts, VCS, vendored shims (external
/// idiom, not project code), and the lint fixtures (deliberate violations).
fn skip_dir(rel: &Path) -> bool {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    comps
        .iter()
        .any(|c| matches!(*c, "target" | ".git" | ".claude" | "fixtures"))
        || rel.starts_with("crates/shims")
}

/// Lints every source file under `root` plus the root manifest.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut findings = Vec::new();
    let mut files_checked = 0usize;

    let mut sources = Vec::new();
    collect_rust_sources(root, Path::new(""), &mut sources)?;
    sources.sort();
    for rel in sources {
        let src = fs::read_to_string(root.join(&rel))?;
        files_checked += 1;
        findings.extend(lint_source(&rel, &src));
    }

    let manifest = root.join("Cargo.toml");
    if manifest.is_file() {
        let toml = fs::read_to_string(&manifest)?;
        files_checked += 1;
        findings.extend(check_workspace_sync(Path::new("Cargo.toml"), &toml));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(LintReport {
        findings,
        files_checked,
    })
}

fn collect_rust_sources(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let dir = root.join(rel);
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let child = rel.join(&name);
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            if !skip_dir(&child) {
                collect_rust_sources(root, &child, out)?;
            }
        } else if file_type.is_file() && child.extension().is_some_and(|e| e == "rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// Walks upward from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
