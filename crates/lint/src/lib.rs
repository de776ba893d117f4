#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # ts-lint — workspace determinism & robustness static analysis
//!
//! The repo's core guarantee — byte-identical `RunReport`/metrics artifacts
//! at any `--migration-workers` count and `--plan-cache` mode — is enforced
//! dynamically by the determinism matrix and the proptests. This crate
//! enforces the same invariants *statically*, at the source level, so a
//! stray wall-clock read or an unordered hash-map iteration is caught in
//! review rather than as a flaky CI diff. The scanner is a hand-rolled
//! lexer (no syn, no dependencies) that masks strings and comments, tracks
//! `#[cfg(test)]` item spans, and then pattern-matches the masked code.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-wall-clock` | `Instant::now`/`SystemTime`/`UNIX_EPOCH` only in ts-obs (the wall-clock module), the bench harness, and tests |
//! | `no-unordered-iter` | no `HashMap`/`HashSet` in crates that feed reports/metrics/solver output — use `BTreeMap`/`BTreeSet` or an explicit sort |
//! | `no-bare-unwrap` | no `.unwrap()` / message-less `.expect("")` in non-test library code |
//! | `float-ordering` | no `partial_cmp` or float-literal `==`/`!=` in solver/policy paths — use `total_cmp`/`to_bits` (PlanCache's bit-exact idiom) |
//! | `thread-hygiene` | `thread::spawn`/`scope`/`Builder` only in the migration worker pool module |
//! | `bad-allow` | `// ts-lint: allow(<rule>) -- <reason>` grammar: the reason is mandatory and the rule name must exist |
//!
//! ## Suppressions and the gate
//!
//! A violation is suppressed by an inline directive on the same line or on
//! a standalone comment line immediately above:
//!
//! ```text
//! // ts-lint: allow(no-wall-clock) -- measures host round-trip, never feeds reports
//! let t0 = Instant::now();
//! ```
//!
//! Any live (unsuppressed) finding fails the gate: the `ts-lint` binary
//! exits 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub mod mask;

pub use mask::Masked;

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// A named invariant enforced by the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads outside the allowlisted wall-clock module.
    NoWallClock,
    /// Hash collections in crates whose iteration order can reach artifacts.
    NoUnorderedIter,
    /// `.unwrap()` / `.expect("")` in non-test library code.
    NoBareUnwrap,
    /// `partial_cmp` / float-literal equality in solver/policy paths.
    FloatOrdering,
    /// Thread creation outside the migration worker pool.
    ThreadHygiene,
    /// Malformed `ts-lint: allow` directives (missing reason, unknown rule).
    BadAllow,
}

impl Rule {
    /// Every rule, in canonical (report) order.
    pub const ALL: [Rule; 6] = [
        Rule::NoWallClock,
        Rule::NoUnorderedIter,
        Rule::NoBareUnwrap,
        Rule::FloatOrdering,
        Rule::ThreadHygiene,
        Rule::BadAllow,
    ];

    /// Kebab-case rule name as used in directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoUnorderedIter => "no-unordered-iter",
            Rule::NoBareUnwrap => "no-bare-unwrap",
            Rule::FloatOrdering => "float-ordering",
            Rule::ThreadHygiene => "thread-hygiene",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parse a directive rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoWallClock => {
                "wall-clock reads (Instant::now/SystemTime) are confined to ts-obs and benches"
            }
            Rule::NoUnorderedIter => {
                "HashMap/HashSet iteration order is nondeterministic; report-feeding crates \
                 must use BTreeMap/BTreeSet or an explicit sort"
            }
            Rule::NoBareUnwrap => {
                "non-test library code must not .unwrap() or .expect(\"\"); name the invariant"
            }
            Rule::FloatOrdering => {
                "solver/policy float ordering must be total (total_cmp/to_bits), \
                 never partial_cmp().unwrap() or == on f64"
            }
            Rule::ThreadHygiene => {
                "thread::spawn/scope/Builder only inside the migration worker pool module"
            }
            Rule::BadAllow => {
                "ts-lint: allow(<rule>) -- <reason> directives need a known rule and a reason"
            }
        }
    }
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// Coarse role of a file within the workspace, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Not scanned at all (vendored shims, build outputs, lint fixtures).
    Skipped,
    /// Integration tests / proptest suites.
    Test,
    /// The measurement harness (crates/bench) and criterion benches.
    Bench,
    /// Example programs.
    Example,
    /// Binary targets (`src/bin/`): CLI entry points.
    Bin,
    /// Library code — the modeled paths the rules exist for.
    Lib,
}

/// Crates whose iteration order can reach reports, metrics, or solver
/// output (scope of `no-unordered-iter`). crates/zpool is deliberately
/// absent: its handle maps are key-lookup only and its stats are scalar
/// counters, so no hash-iteration order can reach an artifact.
const ORDERED_ITER_PREFIXES: [&str; 8] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/solver/src/",
    "crates/telemetry/src/",
    "crates/obs/src/",
    "crates/faults/src/",
    "crates/zswap/src/",
    "src/",
];

/// Solver/policy paths where float comparisons must be total
/// (scope of `float-ordering`).
const FLOAT_ORDERING_PREFIXES: [&str; 2] = ["crates/solver/src/", "crates/core/src/"];

/// The wall-clock module: ts-obs owns the host clock (dual-clock spans);
/// the bench harness measures wall time by definition.
const WALL_CLOCK_ALLOWED_PREFIXES: [&str; 2] = ["crates/obs/", "crates/bench/"];

/// The migration worker pool module — the one place threads are created.
const THREAD_ALLOWED_FILES: [&str; 1] = ["crates/sim/src/system.rs"];

/// Classify a repo-relative path (always '/'-separated).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("crates/shims/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with("crates/lint/tests/fixtures/")
    {
        return FileClass::Skipped;
    }
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return FileClass::Test;
    }
    if rel.starts_with("crates/bench/") || rel.starts_with("benches/") || rel.contains("/benches/")
    {
        return FileClass::Bench;
    }
    if rel.starts_with("examples/") || rel.contains("/examples/") {
        return FileClass::Example;
    }
    if rel.contains("/src/bin/") || rel.starts_with("src/bin/") {
        return FileClass::Bin;
    }
    FileClass::Lib
}

fn has_prefix(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One rule violation (or suppressed would-be violation) at a source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule violated.
    pub rule: Rule,
    /// Repo-relative path, '/'-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
    /// True when an allow-directive with a reason covers this line.
    pub suppressed: bool,
    /// The directive's reason, when suppressed.
    pub reason: Option<String>,
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Directive {
    /// Rules the directive names and that parsed to known rules.
    rules: Vec<Rule>,
    /// Raw rule names that did not parse (unknown rules).
    unknown: Vec<String>,
    /// The mandatory reason, when present and non-empty.
    reason: Option<String>,
    /// True when the line holds no code (directive applies to next line).
    standalone: bool,
}

/// Parse `ts-lint: allow(a, b) -- reason` out of one line's comment text.
fn parse_directive(comment: &str, standalone: bool) -> Option<Directive> {
    let at = comment.find("ts-lint:")?;
    let rest = &comment[at + "ts-lint:".len()..];
    let rest = rest.trim_start();
    let body = rest.strip_prefix("allow")?.trim_start();
    let body = body.strip_prefix('(')?;
    let close = body.find(')')?;
    let mut d = Directive {
        standalone,
        ..Directive::default()
    };
    for raw in body[..close].split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        match Rule::from_name(raw) {
            Some(r) => d.rules.push(r),
            None => d.unknown.push(raw.to_string()),
        }
    }
    let tail = body[close + 1..].trim_start();
    if let Some(reason) = tail.strip_prefix("--") {
        let reason = reason.trim();
        if !reason.is_empty() {
            d.reason = Some(reason.to_string());
        }
    }
    Some(d)
}

// ---------------------------------------------------------------------------
// Pattern helpers (operate on masked code lines)
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of word-boundary occurrences of `needle` in `hay`.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before_ok = hay[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// True when `hay` contains `needle` as a path-ish token (word boundary on
/// the left is allowed to be `:` so `std::thread::spawn` matches
/// `thread::spawn`).
fn contains_path_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before_ok = hay[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// True when the line contains a bare `.unwrap()` call.
fn has_bare_unwrap(line: &str) -> bool {
    for at in token_positions(line, "unwrap") {
        // Require a leading `.` (method call, not a fn definition).
        if !line[..at].trim_end().ends_with('.') {
            continue;
        }
        let rest = line[at + "unwrap".len()..].trim_start();
        if let Some(r) = rest.strip_prefix('(') {
            if r.trim_start().starts_with(')') {
                return true;
            }
        }
    }
    false
}

/// True when the line contains a message-less `.expect("")`.
///
/// The masker blanks string *contents* but keeps the quotes, so only a
/// genuinely empty message still reads `""` after masking.
fn has_empty_expect(line: &str) -> bool {
    for at in token_positions(line, "expect") {
        if !line[..at].trim_end().ends_with('.') {
            continue;
        }
        let rest = line[at + "expect".len()..].trim_start();
        let Some(r) = rest.strip_prefix('(') else {
            continue;
        };
        let r = r.trim_start();
        if let Some(r) = r.strip_prefix("\"\"") {
            if r.trim_start().starts_with(')') {
                return true;
            }
        }
    }
    false
}

/// True when the line compares (`==`/`!=`) against a float literal.
fn has_float_literal_cmp(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &line[i..i + 2];
        if two == "==" || two == "!=" {
            // Exclude `<=`, `>=`, `===`-ish runs and pattern arms (`=>`).
            let prev = line[..i].chars().next_back();
            let next = line[i + 2..].chars().next();
            if prev != Some('<') && prev != Some('>') && prev != Some('=') && next != Some('=') {
                let lhs = line[..i].trim_end();
                let rhs = line[i + 2..].trim_start();
                if float_literal_leads(rhs) || float_literal_trails(lhs) {
                    return true;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

/// Does the string start with a float literal (`0.0`, `1_000.5`, `2.5e3`)?
fn float_literal_leads(s: &str) -> bool {
    let mut saw_digit = false;
    let mut saw_dot = false;
    for c in s.chars() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' if saw_digit && !saw_dot => saw_dot = true,
            _ => break,
        }
    }
    saw_digit && saw_dot
}

/// Does the string end with a float literal?
fn float_literal_trails(s: &str) -> bool {
    // Walk backwards over [0-9_], then expect '.', then at least one digit.
    let rev: Vec<char> = s.chars().rev().collect();
    let mut i = 0;
    while i < rev.len() && (rev[i].is_ascii_digit() || rev[i] == '_') {
        i += 1;
    }
    if i == 0 || i >= rev.len() || rev[i] != '.' {
        return false;
    }
    i += 1;
    i < rev.len() && rev[i].is_ascii_digit()
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

/// Scan one file's source text, returning findings (both live and
/// suppressed). `rel` must be the repo-relative '/'-separated path.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel);
    if class == FileClass::Skipped {
        return Vec::new();
    }
    let masked = mask::mask(src);
    let src_lines: Vec<&str> = src.lines().collect();
    let code_lines: Vec<&str> = masked.code.lines().collect();
    let test_spans = mask::test_spans(&masked.code);
    let in_test = |line: usize| -> bool { test_spans.iter().any(|&(a, b)| line >= a && line <= b) };

    // Directive per line (1-based).
    let mut directives: BTreeMap<usize, Directive> = BTreeMap::new();
    for (idx, comment) in masked.comments.iter().enumerate() {
        if comment.is_empty() {
            continue;
        }
        let standalone = code_lines
            .get(idx)
            .is_none_or(|code| code.trim().is_empty());
        if let Some(d) = parse_directive(comment, standalone) {
            directives.insert(idx + 1, d);
        }
    }

    // Resolve the directive (if any) covering a code line: same line, or a
    // standalone directive on the closest preceding comment-only line.
    let effective = |line: usize| -> Option<&Directive> {
        if let Some(d) = directives.get(&line) {
            return Some(d);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let code_blank = code_lines
                .get(l - 1)
                .is_none_or(|code| code.trim().is_empty());
            if !code_blank {
                return None;
            }
            if let Some(d) = directives.get(&l) {
                return d.standalone.then_some(d);
            }
        }
        None
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        let snippet = src_lines
            .get(line - 1)
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        let (suppressed, reason) = match effective(line) {
            Some(d) if d.rules.contains(&rule) && d.reason.is_some() => (true, d.reason.clone()),
            _ => (false, None),
        };
        findings.push(Finding {
            rule,
            path: rel.to_string(),
            line,
            snippet,
            message,
            suppressed,
            reason,
        });
    };

    let lintable = matches!(class, FileClass::Lib | FileClass::Bin);

    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        if !lintable || in_test(lineno) {
            continue;
        }

        // (1) no-wall-clock
        if !has_prefix(rel, &WALL_CLOCK_ALLOWED_PREFIXES) {
            for pat in ["Instant::now", "SystemTime", "UNIX_EPOCH"] {
                if contains_path_token(line, pat) {
                    push(
                        Rule::NoWallClock,
                        lineno,
                        format!(
                            "`{pat}` reads the host clock; modeled paths must stay \
                             deterministic (route wall time through ts-obs)"
                        ),
                    );
                }
            }
        }

        // (2) no-unordered-iter
        if has_prefix(rel, &ORDERED_ITER_PREFIXES) {
            for pat in ["HashMap", "HashSet"] {
                for _ in token_positions(line, pat) {
                    push(
                        Rule::NoUnorderedIter,
                        lineno,
                        format!(
                            "`{pat}` iterates in nondeterministic order and this crate \
                             feeds reports/metrics/solver output; use BTreeMap/BTreeSet \
                             or keep it off iteration paths with an explicit sort"
                        ),
                    );
                }
            }
        }

        // (3) no-bare-unwrap (library code only; CLI/bin arg handling exempt)
        if class == FileClass::Lib {
            if has_bare_unwrap(line) {
                push(
                    Rule::NoBareUnwrap,
                    lineno,
                    "bare `.unwrap()` in library code; use `.expect(\"<invariant>\")` \
                     or propagate the error"
                        .to_string(),
                );
            }
            if has_empty_expect(line) {
                push(
                    Rule::NoBareUnwrap,
                    lineno,
                    "message-less `.expect(\"\")`; name the invariant that holds".to_string(),
                );
            }
        }

        // (4) float-ordering
        if has_prefix(rel, &FLOAT_ORDERING_PREFIXES) {
            let defines = line.contains("fn partial_cmp");
            if !defines && contains_path_token(line, "partial_cmp") {
                push(
                    Rule::FloatOrdering,
                    lineno,
                    "`partial_cmp` on floats panics or misorders on NaN; use \
                     `f64::total_cmp` (bit-exact, matches PlanCache's to_bits diffing)"
                        .to_string(),
                );
            }
            if has_float_literal_cmp(line) {
                push(
                    Rule::FloatOrdering,
                    lineno,
                    "`==`/`!=` against a float literal; compare via total_cmp/to_bits \
                     or justify the exact comparison with an allow"
                        .to_string(),
                );
            }
        }

        // (5) thread-hygiene
        if !THREAD_ALLOWED_FILES.contains(&rel) {
            for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if contains_path_token(line, pat) {
                    push(
                        Rule::ThreadHygiene,
                        lineno,
                        format!(
                            "`{pat}` outside the migration worker pool \
                             (crates/sim/src/system.rs); thread creation is confined \
                             there so determinism has one merge point"
                        ),
                    );
                }
            }
        }
    }

    // (6) bad-allow: malformed directives anywhere in lintable code.
    if lintable {
        for (&line, d) in &directives {
            if !d.unknown.is_empty() {
                push(
                    Rule::BadAllow,
                    line,
                    format!("allow names unknown rule(s): {}", d.unknown.join(", ")),
                );
            }
            if d.reason.is_none() {
                push(
                    Rule::BadAllow,
                    line,
                    "allow directive is missing its mandatory `-- <reason>`".to_string(),
                );
            }
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Recursively collect `.rs` files under `root`, sorted for determinism.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if name == ".git" || name == "target" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scan every `.rs` file under `root`, returning findings sorted by
/// `(path, line, rule)`.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel) == FileClass::Skipped {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        findings.extend(scan_source(&rel, &src));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

/// True when no finding is live: the gate passes.
pub fn is_clean(findings: &[Finding]) -> bool {
    findings.iter().all(|f| f.suppressed)
}

/// Render the human-readable report.
pub fn render_text(findings: &[Finding], show_suppressed: bool) -> String {
    let mut out = String::new();
    for f in findings {
        if f.suppressed && !show_suppressed {
            continue;
        }
        let tag = if f.suppressed { "allow" } else { "deny " };
        let _ = writeln!(
            out,
            "{tag} [{}] {}:{}: {}\n      | {}",
            f.rule.name(),
            f.path,
            f.line,
            f.message,
            f.snippet
        );
        if let Some(reason) = &f.reason {
            let _ = writeln!(out, "      | reason: {reason}");
        }
    }
    let live = findings.iter().filter(|f| !f.suppressed).count();
    let suppressed = findings.len() - live;
    let _ = writeln!(
        out,
        "ts-lint: {live} finding(s), {suppressed} suppressed by allow-directives"
    );
    out.push_str(if live == 0 {
        "ts-lint: OK\n"
    } else {
        "ts-lint: FAIL (live findings)\n"
    });
    out
}

/// Escape a string for embedding in JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable JSON findings document.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"version\": 1,\n  \"rules\": {");
    let mut first = true;
    for rule in Rule::ALL {
        let live = findings
            .iter()
            .filter(|f| f.rule == rule && !f.suppressed)
            .count();
        let supp = findings
            .iter()
            .filter(|f| f.rule == rule && f.suppressed)
            .count();
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    \"{}\": {{\"live\": {live}, \"suppressed\": {supp}}}",
            rule.name()
        );
    }
    out.push_str("\n  },\n  \"findings\": [");
    let mut first = true;
    for f in findings {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"suppressed\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            f.rule.name(),
            esc(&f.path),
            f.line,
            f.suppressed,
            esc(&f.message),
            esc(&f.snippet)
        );
    }
    let _ = write!(out, "\n  ],\n  \"ok\": {}\n}}\n", is_clean(findings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/shims/rand/src/lib.rs"), FileClass::Skipped);
        assert_eq!(
            classify("crates/lint/tests/fixtures/crates/core/src/x.rs"),
            FileClass::Skipped
        );
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("crates/sim/tests/it.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/src/bin/fig02.rs"), FileClass::Bench);
        assert_eq!(classify("crates/bench/benches/e2e.rs"), FileClass::Bench);
        assert_eq!(classify("src/bin/tierscape-cli.rs"), FileClass::Bin);
        assert_eq!(classify("crates/core/src/daemon.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
    }

    #[test]
    fn wall_clock_flagged_and_allowlisted() {
        let bad = "fn f() { let t = std::time::Instant::now(); }";
        let f = scan_source("crates/core/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::NoWallClock);
        assert!(scan_source("crates/obs/src/lib.rs", bad).is_empty());
        assert!(scan_source("crates/bench/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = r#"
fn f() {
    // Instant::now() in a comment is fine.
    let s = "Instant::now()";
    let h = "HashMap";
}
"#;
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_exempt() {
        let src = r#"
pub fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u32> = Vec::new();
        let _ = v.first().unwrap();
        let _ = std::time::Instant::now();
    }
}
"#;
        assert!(scan_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn bare_unwrap_and_empty_expect_flagged() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() + o.expect(\"\") }";
        let f = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::NoBareUnwrap));
        // unwrap_or / expect("msg") are fine.
        let ok = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(3) + o.expect(\"has value\") }";
        assert!(scan_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn unwrap_in_bins_exempt() {
        let src = "fn main() { std::env::args().next().unwrap(); }";
        assert!(scan_source("src/bin/cli.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_scoped_to_report_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let _m: HashMap<u32, u32> = HashMap::new(); }";
        let f = scan_source("crates/telemetry/src/lib.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::NoUnorderedIter));
        // zpool's handle maps are out of scope by design.
        assert!(scan_source("crates/zpool/src/zsmalloc.rs", src).is_empty());
    }

    #[test]
    fn float_ordering_flags_partial_cmp_and_literal_eq() {
        let src = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() && a == 0.0 }";
        let f = scan_source("crates/solver/src/x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::FloatOrdering));
        // total_cmp and integer comparisons are fine; so is out-of-scope code.
        let ok = "fn f(a: f64, b: f64) -> bool { a.total_cmp(&b).is_eq() && 1 == 2 }";
        assert!(scan_source("crates/solver/src/x.rs", ok).is_empty());
        assert!(scan_source("crates/compress/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_eq_detects_literal_on_either_side() {
        let left = "fn f(x: f64) -> bool { 0.5 == x }";
        let right = "fn f(x: f64) -> bool { x != 12.75 }";
        assert_eq!(scan_source("crates/solver/src/x.rs", left).len(), 1);
        assert_eq!(scan_source("crates/solver/src/x.rs", right).len(), 1);
        // `=>` arms, ranges and integer comparisons stay silent.
        let ok = "fn f(x: u64) -> bool { matches!(x, 1 | 2) && x == 17 }";
        assert!(scan_source("crates/solver/src/x.rs", ok).is_empty());
    }

    #[test]
    fn thread_hygiene_confined_to_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let f = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ThreadHygiene);
        assert!(scan_source("crates/sim/src/system.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_reason() {
        let trailing = "fn f() { let t = std::time::Instant::now(); } \
                        // ts-lint: allow(no-wall-clock) -- measures host RTT only";
        let f = scan_source("crates/core/src/x.rs", trailing);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
        assert_eq!(f[0].reason.as_deref(), Some("measures host RTT only"));

        let standalone = "\
// ts-lint: allow(no-wall-clock) -- measures host RTT only
fn f() { let t = std::time::Instant::now(); }
";
        let f = scan_source("crates/core/src/x.rs", standalone);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
    }

    #[test]
    fn allow_without_reason_is_bad_allow_and_does_not_suppress() {
        let src = "\
// ts-lint: allow(no-wall-clock)
fn f() { let t = std::time::Instant::now(); }
";
        let f = scan_source("crates/core/src/x.rs", src);
        let rules: Vec<Rule> = f.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::BadAllow), "{f:?}");
        assert!(f
            .iter()
            .any(|f| f.rule == Rule::NoWallClock && !f.suppressed));
    }

    #[test]
    fn allow_with_unknown_rule_is_bad_allow() {
        let src = "\
// ts-lint: allow(no-such-rule) -- misguided
fn f() {}
";
        let f = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadAllow);
    }

    #[test]
    fn standalone_allow_does_not_leak_past_code() {
        let src = "\
// ts-lint: allow(no-bare-unwrap) -- covered line only
fn covered(o: Option<u32>) -> u32 { o.unwrap() }
fn uncovered(o: Option<u32>) -> u32 { o.unwrap() }
";
        let f = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].suppressed);
        assert!(!f[1].suppressed);
    }

    #[test]
    fn json_report_flags_live_findings() {
        let findings = scan_source(
            "crates/core/src/x.rs",
            "fn f(o: Option<u32>) -> u32 { o.unwrap() }",
        );
        assert!(!is_clean(&findings));
        let json = render_json(&findings);
        assert!(json.contains("\"no-bare-unwrap\""));
        assert!(json.contains("\"ok\": false"));
    }

    #[test]
    fn esc_escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
