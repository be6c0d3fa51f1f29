//! The determinism rules (D001–D005) and the suppression mechanism.
//!
//! Every rule is a pattern over one file's token stream plus the scoping
//! the config provides. Findings carry the rule id, the repo-relative
//! path, the 1-based line, and a human message; the caller decides how to
//! render them and whether they fail the build.
//!
//! Suppression is explicit and auditable: a finding on line `L` is
//! suppressed by a `// detlint::allow(D00x): reason` comment either on
//! line `L` itself or on its own line directly above the code it excuses.
//! The reason is mandatory — an annotation without one is itself a
//! finding — and an allow that suppresses nothing is reported as unused,
//! so stale suppressions cannot accumulate.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// A rule identifier. `Allow` covers the meta-findings of the suppression
/// mechanism itself (malformed or unused annotations), which cannot be
/// suppressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// HashMap/HashSet iteration in determinism-scoped paths.
    D001,
    /// Wall-clock reads.
    D002,
    /// Unseeded randomness, anywhere.
    D003,
    /// `unwrap()`/`expect()` in library code without justification.
    D004,
    /// `unsafe` outside vendor.
    D005,
    /// Malformed or unused `detlint::allow` annotation.
    Allow,
}

impl RuleId {
    /// The textual id used in annotations and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::Allow => "ALLOW",
        }
    }

    fn from_str(s: &str) -> Option<RuleId> {
        match s {
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "D005" => Some(RuleId::D005),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: RuleId,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// A parsed `detlint::allow` annotation.
#[derive(Clone, Debug)]
struct Allow {
    rule: RuleId,
    /// The code line this annotation excuses.
    applies_to: usize,
    /// The line the comment itself sits on (for reporting).
    comment_line: usize,
    used: bool,
}

/// Everything the rules need to know about one file's position in the
/// repo, derived from config + path by the scanner.
#[derive(Clone, Copy, Debug)]
pub struct FileScope<'a> {
    /// Repo-relative `/`-separated path.
    pub rel_path: &'a str,
    /// Under a `[rules.D001].paths` prefix?
    pub d001: bool,
    /// Under a `[rules.D004].library_paths` prefix?
    pub d004: bool,
}

/// Lint one file: run every rule, apply suppressions, report unused and
/// malformed annotations. Returns findings sorted by line.
pub fn lint_file(scope: FileScope<'_>, tokens: &[Token]) -> Vec<Finding> {
    let (mut allows, mut findings) = parse_allows(scope.rel_path, tokens);
    let test_regions = test_mod_regions(tokens);
    let in_test_dir = is_test_path(scope.rel_path);
    let in_bin = is_bin_path(scope.rel_path);
    let in_test = |line: usize| {
        in_test_dir
            || test_regions
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    };

    let mut raw: Vec<Finding> = Vec::new();
    if scope.d001 {
        d001_hash_iteration(scope.rel_path, tokens, &mut raw);
    }
    d002_wall_clock(scope.rel_path, tokens, &mut raw);
    d003_unseeded_rng(scope.rel_path, tokens, &mut raw);
    if scope.d004 && !in_bin {
        d004_unwrap_budget(scope.rel_path, tokens, &mut raw, &|line| in_test(line));
    }
    d005_unsafe(scope.rel_path, tokens, &mut raw);

    for finding in raw {
        let suppressed = allows.iter_mut().any(|a| {
            if a.rule == finding.rule && a.applies_to == finding.line {
                a.used = true;
                true
            } else {
                false
            }
        });
        if !suppressed {
            findings.push(finding);
        }
    }
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: RuleId::Allow,
                path: scope.rel_path.to_string(),
                line: a.comment_line,
                message: format!(
                    "unused suppression `detlint::allow({})` — nothing to excuse here; remove it",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Is this path test-only by location (integration tests, examples,
/// benches)? Those directories are outside the D004 library budget.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/examples/")
        || rel.contains("/benches/")
}

/// Binary entry points may panic at the process boundary; D004 covers
/// library surface only.
fn is_bin_path(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel.contains("/src/bin/")
}

// ---------------------------------------------------------------------------
// suppression annotations

/// Extract `detlint::allow` annotations from line comments. A comment that
/// shares its line with code applies to that line; a comment on its own
/// line applies to the next code line. Malformed annotations (unknown rule
/// id, missing `: reason`) are reported immediately.
fn parse_allows(rel_path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let Some(pos) = tok.text.find("detlint::allow") else {
            continue;
        };
        let rest = &tok.text[pos + "detlint::allow".len()..];
        let (rule, has_reason) = match parse_allow_body(rest) {
            AllowParse::Annotation { rule, has_reason } => (rule, has_reason),
            // prose that merely *mentions* the syntax (`detlint::allow(D00x)`
            // in docs) is not an annotation attempt
            AllowParse::Prose => continue,
            AllowParse::UnknownRule => {
                findings.push(Finding {
                    rule: RuleId::Allow,
                    path: rel_path.to_string(),
                    line: tok.line,
                    message: "annotation names an unknown rule — expected \
                              `detlint::allow(D00x): reason` with x in 1..=5"
                        .to_string(),
                });
                continue;
            }
        };
        if !has_reason {
            findings.push(Finding {
                rule: RuleId::Allow,
                path: rel_path.to_string(),
                line: tok.line,
                message: format!(
                    "suppression of {rule} has no reason — every allow must justify itself: \
                     `detlint::allow({rule}): why this is sound`"
                ),
            });
            continue;
        }
        // own-line comment ⇒ applies to the next code line; trailing
        // comment ⇒ applies to its own line
        let own_line = !tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| t.kind != TokenKind::LineComment);
        let applies_to = if own_line {
            tokens[i + 1..]
                .iter()
                .find(|t| t.kind != TokenKind::LineComment)
                .map(|t| t.line)
                .unwrap_or(tok.line + 1)
        } else {
            tok.line
        };
        allows.push(Allow {
            rule,
            applies_to,
            comment_line: tok.line,
            used: false,
        });
    }
    (allows, findings)
}

/// Outcome of parsing the text after a `detlint::allow` occurrence.
enum AllowParse {
    /// A real annotation attempt (`(D` + three digits + `)`).
    Annotation { rule: RuleId, has_reason: bool },
    /// `D` + digits in rule position, but not a rule we have.
    UnknownRule,
    /// Anything else — documentation mentioning the syntax, not an attempt.
    Prose,
}

/// Parse `(<rule>): <reason>` after the `detlint::allow` prefix. Only a
/// rule-shaped id (`D` followed by digits) counts as an attempt; this is
/// what lets docs spell out `detlint::allow(D00x): reason` without being
/// flagged. A typo that fails this gate simply does not suppress — the
/// underlying finding still fires, so the gate fails closed.
fn parse_allow_body(rest: &str) -> AllowParse {
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Prose;
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Prose;
    };
    let id = rest[..close].trim();
    let rule_shaped =
        id.len() == 4 && id.starts_with('D') && id[1..].chars().all(|c| c.is_ascii_digit());
    if !rule_shaped {
        return AllowParse::Prose;
    }
    let Some(rule) = RuleId::from_str(id) else {
        return AllowParse::UnknownRule;
    };
    let after = &rest[close + 1..];
    let has_reason = after
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    AllowParse::Annotation { rule, has_reason }
}

// ---------------------------------------------------------------------------
// cfg(test) regions

/// Line ranges of `#[cfg(test)] mod … { … }` blocks. Strings and comments
/// are already out of the token stream, so brace counting is exact.
fn test_mod_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // bracket-match the attribute and look for cfg(..test..)
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut is_cfg = false;
        let mut mentions_test = false;
        let mut first = true;
        while j < tokens.len() && depth > 0 {
            let t = &tokens[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
            } else if t.kind == TokenKind::Ident {
                if first {
                    is_cfg = t.text == "cfg";
                    first = false;
                }
                if t.text == "test" {
                    mentions_test = true;
                }
            }
            j += 1;
        }
        if !(is_cfg && mentions_test) {
            i = j;
            continue;
        }
        // skip further attributes, then require `mod name {`
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let mut depth = 1usize;
            j += 2;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        if j < tokens.len() && tokens[j].is_ident("mod") {
            let start_line = tokens[j].line;
            // find the opening brace, then match it
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end_line = tokens.get(j).map(|t| t.line).unwrap_or(usize::MAX);
            regions.push((start_line, end_line));
        }
        i = j + 1;
    }
    regions
}

// ---------------------------------------------------------------------------
// D001 — hash-order iteration

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Names declared (or assigned) with a `HashMap`/`HashSet` type in this
/// file: `name: HashMap<…>` (let, field, or parameter) and
/// `name = HashMap::new()`-style constructions.
fn hash_typed_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        // constructor form: `name = HashMap::new()` / `::default()` / `::from`
        if matches!(
            (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3)),
            (Some(a), Some(b), Some(c))
                if a.is_punct(':') && b.is_punct(':')
                    && matches!(c.text.as_str(), "new" | "with_capacity" | "default" | "from")
        ) {
            if let Some(name) = assignment_target(tokens, i) {
                names.insert(name);
                continue;
            }
        }
        // type-position form: walk back over the type expression to the
        // `name :` that introduces it
        let mut j = i;
        while j > 0 {
            let prev = &tokens[j - 1];
            let skip = match prev.kind {
                TokenKind::Ident => !matches!(prev.text.as_str(), "fn" | "let" | "mut" | "pub"),
                TokenKind::Punct => matches!(prev.text.as_str(), "<" | "&" | "," | "'" | "(" | ":"),
                TokenKind::LineComment => true,
            };
            if prev.is_punct(':') && j >= 2 && tokens[j - 2].kind == TokenKind::Ident {
                let candidate = &tokens[j - 2];
                // `std::collections::HashMap` path segments are `X ::` —
                // keep walking through them, a real binding is `name :`
                if j >= 3 && tokens[j - 3].is_punct(':') {
                    j -= 2;
                    continue;
                }
                if !matches!(candidate.text.as_str(), "let" | "mut" | "pub" | "fn") {
                    names.insert(candidate.text.clone());
                }
                break;
            }
            if !skip {
                break;
            }
            j -= 1;
        }
    }
    names
}

/// For `… name = HashMap…` at position `i` of the `HashMap` token, walk
/// back over `=` to the assigned name.
fn assignment_target(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // allow `name = HashMap` and `name: Ty = HashMap` — walk back to `=`
    while j > 0 && !tokens[j - 1].is_punct('=') {
        let prev = &tokens[j - 1];
        let type_ish = match prev.kind {
            TokenKind::Ident => true,
            TokenKind::Punct => matches!(prev.text.as_str(), "<" | ">" | "&" | "," | "'" | ":"),
            TokenKind::LineComment => true,
        };
        if !type_ish {
            return None;
        }
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let name = tokens[..j - 1]
        .iter()
        .rev()
        .find(|t| t.kind == TokenKind::Ident)?;
    if matches!(name.text.as_str(), "let" | "mut") {
        return None;
    }
    Some(name.text.clone())
}

fn d001_hash_iteration(rel: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let names = hash_typed_names(tokens);
    if names.is_empty() {
        return;
    }
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment)
        .collect();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !names.contains(&tok.text) {
            continue;
        }
        // method-call iteration: `name.iter()`, `name.drain(…)`, …
        if let (Some(dot), Some(m)) = (code.get(i + 1), code.get(i + 2)) {
            if dot.is_punct('.')
                && m.kind == TokenKind::Ident
                && ITER_METHODS.contains(&m.text.as_str())
                && code
                    .get(i + 3)
                    .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
            {
                out.push(Finding {
                    rule: RuleId::D001,
                    path: rel.to_string(),
                    line: tok.line,
                    message: format!(
                        "`{}.{}` iterates a HashMap/HashSet on a determinism-scoped path — \
                         use BTreeMap/BTreeSet or sort explicitly",
                        tok.text, m.text
                    ),
                });
                continue;
            }
        }
        // for-loop iteration: `for … in &name {` / `for … in name {`
        // (look back for `in` within the loop header; a following `.` means
        // a method chain decides, handled above or keyed — skip it here)
        let direct = code
            .get(i + 1)
            .is_none_or(|t| !t.is_punct('.') && !t.is_punct('['));
        if direct {
            let mut j = i;
            let mut header = false;
            while j > 0 {
                let t = &code[j - 1];
                if t.is_ident("in") {
                    header = true;
                    break;
                }
                // only `&`, `mut` and the map expression itself may sit
                // between `in` and the iterated name
                let benign = t.is_punct('&')
                    || t.is_ident("mut")
                    || t.is_punct('*')
                    || t.kind == TokenKind::Ident
                    || t.is_punct('.');
                if !benign {
                    break;
                }
                j -= 1;
            }
            if header {
                out.push(Finding {
                    rule: RuleId::D001,
                    path: rel.to_string(),
                    line: tok.line,
                    message: format!(
                        "`for … in {}` iterates a HashMap/HashSet on a determinism-scoped \
                         path — use BTreeMap/BTreeSet or sort explicitly",
                        tok.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// D002 — wall clock

fn d002_wall_clock(rel: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for tok in tokens {
        if tok.is_ident("Instant") || tok.is_ident("SystemTime") {
            out.push(Finding {
                rule: RuleId::D002,
                path: rel.to_string(),
                line: tok.line,
                message: format!(
                    "`{}` reads the wall clock — simulation code must use SimTime; \
                     time real execution from outside the scanned roots",
                    tok.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D003 — unseeded randomness

fn d003_unseeded_rng(rel: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment)
        .collect();
    for (i, tok) in code.iter().enumerate() {
        let hit = if tok.is_ident("thread_rng")
            || tok.is_ident("from_entropy")
            || tok.is_ident("OsRng")
        {
            Some(tok.text.as_str())
        } else if tok.is_ident("random")
            && i >= 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].is_ident("rand")
        {
            Some("rand::random")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Finding {
                rule: RuleId::D003,
                path: rel.to_string(),
                line: tok.line,
                message: format!(
                    "`{what}` draws unseeded randomness — every RNG must be seeded from the \
                     manifest (ChaCha8Rng::seed_from_u64) so runs replay exactly"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D004 — unwrap/expect budget

fn d004_unwrap_budget(
    rel: &str,
    tokens: &[Token],
    out: &mut Vec<Finding>,
    in_test: &dyn Fn(usize) -> bool,
) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment)
        .collect();
    for (i, tok) in code.iter().enumerate() {
        let is_call = (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('));
        if is_call && !in_test(tok.line) {
            out.push(Finding {
                rule: RuleId::D004,
                path: rel.to_string(),
                line: tok.line,
                message: format!(
                    "`.{}()` can panic on a library path — return a Result, or justify the \
                     invariant with `detlint::allow(D004): reason`",
                    tok.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D005 — unsafe

fn d005_unsafe(rel: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for tok in tokens {
        if tok.is_ident("unsafe") {
            out.push(Finding {
                rule: RuleId::D005,
                path: rel.to_string(),
                line: tok.line,
                message: "`unsafe` outside vendor/ — first-party crates carry \
                          #![forbid(unsafe_code)]; keep it that way"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn scope(rel: &'static str) -> FileScope<'static> {
        FileScope {
            rel_path: rel,
            d001: true,
            d004: true,
        }
    }

    fn lint(src: &str) -> Vec<Finding> {
        lint_file(scope("crates/x/src/lib.rs"), &tokenize(src))
    }

    #[test]
    fn d001_fires_on_iteration_not_lookup() {
        let src = r#"
            fn f(map: HashMap<u32, u32>) {
                let _ = map.get(&1);            // keyed lookup: fine
                for (k, v) in map.iter() {}     // iteration: finding
                for k in &map {}                // iteration: finding
            }
        "#;
        let hits: Vec<_> = lint(src)
            .into_iter()
            .filter(|f| f.rule == RuleId::D001)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn d001_sees_constructor_declared_maps() {
        let src = "fn f() { let seen = HashMap::new(); for x in seen.keys() {} }";
        assert!(lint(src).iter().any(|f| f.rule == RuleId::D001));
    }

    #[test]
    fn d004_skips_cfg_test_modules() {
        let src = r#"
            fn lib_path() { opt.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { opt.unwrap(); }
            }
        "#;
        let hits: Vec<_> = lint(src)
            .into_iter()
            .filter(|f| f.rule == RuleId::D004)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn allow_on_same_line_and_line_above_suppresses() {
        let src = r#"
            fn f() {
                opt.unwrap(); // detlint::allow(D004): checked two lines up
                // detlint::allow(D004): heap non-empty by loop guard
                opt.unwrap();
            }
        "#;
        let findings = lint(src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// detlint::allow(D004): nothing here needs this\nfn f() {}";
        let findings = lint(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::Allow);
        assert!(findings[0].message.contains("unused"));
    }

    #[test]
    fn allow_without_reason_is_reported_and_does_not_suppress() {
        let src = "fn f() { opt.unwrap() } // detlint::allow(D004)";
        let findings = lint(src);
        assert!(findings.iter().any(|f| f.rule == RuleId::Allow));
        assert!(findings.iter().any(|f| f.rule == RuleId::D004));
    }

    #[test]
    fn prose_mentions_of_the_syntax_are_not_annotations() {
        let src = "// the syntax is `detlint::allow(D00x): reason`\nfn f() {}";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn unknown_rule_id_is_reported() {
        let src = "fn f() {} // detlint::allow(D999): no such rule";
        let findings = lint(src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"), "{findings:?}");
    }

    #[test]
    fn d002_flags_clock_unless_crate_allowlisted() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(lint(src).iter().any(|f| f.rule == RuleId::D002));
    }

    #[test]
    fn d003_flags_every_entropy_source() {
        for src in [
            "fn f() { let mut r = thread_rng(); }",
            "fn f() { let mut r = ChaCha8Rng::from_entropy(); }",
            "fn f() { let x: u8 = rand::random(); }",
        ] {
            assert!(
                lint(src).iter().any(|f| f.rule == RuleId::D003),
                "missed in {src}"
            );
        }
    }

    #[test]
    fn d003_does_not_flag_unrelated_random_idents() {
        let src = "fn f() { let random = 4; random_walk(); }";
        assert!(lint(src).iter().all(|f| f.rule != RuleId::D003));
    }

    #[test]
    fn d005_flags_unsafe() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert!(lint(src).iter().any(|f| f.rule == RuleId::D005));
    }

    #[test]
    fn d004_ignores_unwrap_or_variants() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        let findings = lint(src);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
