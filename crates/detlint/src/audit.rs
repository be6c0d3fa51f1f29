//! `--rng-audit`: inventory every site that consumes an RNG.
//!
//! Every random decision of a run must come from a stream seeded from the
//! run seed — the engine's per-node streams, or a constructor's placement
//! RNG — and be conditioned on deterministic state only. This pass lists
//! where to look: every direct draw (`rng.gen_bool(…)`,
//! `self.rng.gen_range(…)`) and every handoff that lends an RNG to a callee
//! (`channel.link(&mut rng, …)`), with file, line, receiver chain and
//! method. On its own it is an inventory (exit code 0); with `--baseline`
//! the binary turns it into a gate on new sites.

use crate::config::Config;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::scan::source_files;
use std::fmt;
use std::path::Path;

/// Methods of the `Rng` trait (and the shim's surface) that consume the
/// stream when called on an RNG receiver.
const DRAW_METHODS: &[&str] = &[
    "gen",
    "gen_bool",
    "gen_range",
    "gen_ratio",
    "sample",
    "fill",
    "fill_bytes",
    "next_u32",
    "next_u64",
    "shuffle",
    "choose",
];

/// One RNG consumption site.
#[derive(Clone, Debug)]
pub struct RngSite {
    pub path: String,
    /// The site's line; a baseline does not record it, so a parsed entry
    /// reads 0.
    pub line: usize,
    /// The innermost `fn` whose body holds the site (`-` outside every fn)
    /// and the site's 1-based rank among that fn's sites: the site's key
    /// in the baseline, which a line shift elsewhere leaves alone.
    pub func: String,
    pub ordinal: usize,
    /// `draw` for a direct method call on an RNG, `handoff` for lending
    /// `&mut rng` to a callee.
    pub kind: SiteKind,
    /// What the site looks like: `self.rng.gen_bool` or `link(&mut self.rng)`.
    pub detail: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    Draw,
    Handoff,
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SiteKind::Draw => "draw",
            SiteKind::Handoff => "handoff",
        })
    }
}

/// Does this receiver chain look like an RNG binding? The repo's naming is
/// uniform (`rng`, `self.rng`, `walk_rng`, …) and the audit is advisory,
/// so a suffix match is the right precision/recall trade.
fn rng_ish(chain: &str) -> bool {
    chain
        .rsplit('.')
        .next()
        .is_some_and(|last| last == "rng" || last.ends_with("_rng"))
}

/// Walk back from `code[i]` (exclusive) collecting a `a.b.c` receiver
/// chain of idents joined by dots.
fn receiver_chain(code: &[&Token], i: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = i;
    loop {
        if j == 0 || code[j - 1].kind != TokenKind::Ident {
            break;
        }
        parts.push(&code[j - 1].text);
        if j >= 2 && code[j - 2].is_punct('.') {
            j -= 2;
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(".")
}

/// The innermost `fn` whose body encloses each token of `code`, if any.
/// A `fn name` opens the next `{` unless a `;` at its own bracket depth
/// (a bodiless trait method) comes first.
fn enclosing_fns<'a>(code: &[&'a Token]) -> Vec<Option<&'a str>> {
    let mut out = Vec::with_capacity(code.len());
    // per open `{`: the fn whose body it opens, if any
    let mut braces: Vec<Option<&str>> = Vec::new();
    let mut pending: Option<(&str, usize)> = None;
    let mut depth = 0usize;
    for (i, tok) in code.iter().enumerate() {
        if tok.is_ident("fn") {
            if let Some(name) = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                pending = Some((name.text.as_str(), depth));
            }
        } else if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if tok.is_punct('{') {
            braces.push(pending.take().map(|(name, _)| name));
        } else if tok.is_punct('}') {
            braces.pop();
        } else if tok.is_punct(';') && pending.is_some_and(|(_, at)| at == depth) {
            pending = None;
        }
        out.push(braces.iter().rev().find_map(|&f| f));
    }
    out
}

/// Inventory the RNG consumption sites of every file under the
/// `[rng_audit].paths` prefixes.
pub fn rng_audit(root: &Path, cfg: &Config) -> std::io::Result<Vec<RngSite>> {
    let audit_cfg = Config {
        include: cfg.rng_audit_paths.clone(),
        ..cfg.clone()
    };
    let mut sites = Vec::new();
    for rel in source_files(root, &audit_cfg)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        sites.extend(file_sites(&rel, &text));
    }
    Ok(sites)
}

/// The RNG consumption sites of one source file, `rel` its path.
fn file_sites(rel: &str, text: &str) -> Vec<RngSite> {
    let tokens = tokenize(text);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment)
        .collect();
    let fns = enclosing_fns(&code);
    let mut sites = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        // direct draw: `<chain>.method(` or `<chain>.gen::<T>(`
        if tok.kind == TokenKind::Ident
            && DRAW_METHODS.contains(&tok.text.as_str())
            && i > 0
            && code[i - 1].is_punct('.')
            && code
                .get(i + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
        {
            let chain = receiver_chain(&code, i - 1);
            if rng_ish(&chain) {
                sites.push(RngSite {
                    path: rel.to_string(),
                    line: tok.line,
                    func: fns[i].unwrap_or("-").to_string(),
                    ordinal: 0,
                    kind: SiteKind::Draw,
                    detail: format!("{chain}.{}", tok.text),
                });
                continue;
            }
            // `slice.choose(&mut rng)`-style draws consume the stream
            // too; they surface below as handoffs of the argument
        }
        // handoff: `callee(… &mut <chain> …)` — an RNG chain in
        // argument position, passed by value or by &mut
        if tok.kind == TokenKind::Ident {
            let chain_end = {
                // find the end of a dotted chain starting here
                let mut j = i;
                while code.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && code.get(j + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    j += 2;
                }
                j
            };
            let chain = receiver_chain(&code, chain_end + 1);
            if !rng_ish(&chain) {
                continue;
            }
            // skip if this chain is a draw receiver (handled above), a
            // declaration (`let rng = …`), or a parameter/field
            // declaration (`rng: &mut ChaCha8Rng`) — only call
            // arguments are consumption sites
            let next_is_call = code
                .get(chain_end + 1)
                .is_some_and(|t| t.is_punct('.') || t.is_punct('=') || t.is_punct(':'));
            let prev = code.get(i.wrapping_sub(1)).copied();
            let arg_position =
                prev.is_some_and(|t| t.is_punct('(') || t.is_punct(',') || t.is_ident("mut"));
            if arg_position && !next_is_call {
                // name the callee: walk back to `ident (` before the
                // argument list this chain sits in
                let callee = callee_of(&code, i);
                sites.push(RngSite {
                    path: rel.to_string(),
                    line: tok.line,
                    func: fns[i].unwrap_or("-").to_string(),
                    ordinal: 0,
                    kind: SiteKind::Handoff,
                    detail: format!("{}(… {chain} …)", callee.unwrap_or("?".into())),
                });
            }
        }
    }
    let mut ranks: std::collections::BTreeMap<String, usize> = Default::default();
    for site in &mut sites {
        let rank = ranks.entry(site.func.clone()).or_default();
        *rank += 1;
        site.ordinal = *rank;
    }
    sites
}

/// Best-effort name of the function whose argument list encloses `code[i]`:
/// walk back to the unmatched `(` and take the dotted chain before it.
fn callee_of(code: &[&Token], i: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        j -= 1;
        if code[j].is_punct(')') {
            depth += 1;
        } else if code[j].is_punct('(') {
            if depth == 0 {
                let chain = receiver_chain(code, j);
                return if chain.is_empty() { None } else { Some(chain) };
            }
            depth -= 1;
        }
    }
    None
}

/// Serialize the inventory in the checked-in baseline format: one
/// `path fn#ordinal kind detail` line per site, in scan order — no line
/// numbers, so an edit moves only the entries of the fns it touches.
/// Lines starting with `#` and blank lines are ignored by
/// [`parse_baseline`], so the checked-in file can carry a regeneration
/// hint in a header comment.
pub fn serialize_baseline(sites: &[RngSite]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for s in sites {
        let _ = writeln!(
            out,
            "{} {}#{} {} {}",
            s.path, s.func, s.ordinal, s.kind, s.detail
        );
    }
    out
}

/// Parse a baseline file written by [`serialize_baseline`].
pub fn parse_baseline(text: &str) -> Result<Vec<RngSite>, String> {
    let mut sites = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = || format!("baseline line {}: malformed `{raw}`", lineno + 1);
        let mut fields = line.splitn(4, ' ');
        let path = fields.next().ok_or_else(err)?.to_string();
        let (func, ordinal) = fields
            .next()
            .and_then(|key| key.rsplit_once('#'))
            .ok_or_else(err)?;
        let ordinal = ordinal.parse::<usize>().map_err(|_| err())?;
        let kind = match fields.next() {
            Some("draw") => SiteKind::Draw,
            Some("handoff") => SiteKind::Handoff,
            _ => return Err(err()),
        };
        let detail = fields.next().ok_or_else(err)?.to_string();
        sites.push(RngSite {
            path,
            line: 0,
            func: func.to_string(),
            ordinal,
            kind,
            detail,
        });
    }
    Ok(sites)
}

/// Sites in `current` not covered by `baseline`. Coverage is a multiset
/// match on `(path, kind, detail)` — line numbers drift with unrelated
/// edits and must not fail the gate; a *new* draw or handoff (or a second
/// copy of an existing one) must.
pub fn new_sites<'a>(current: &'a [RngSite], baseline: &[RngSite]) -> Vec<&'a RngSite> {
    let mut allowed: std::collections::BTreeMap<(&str, SiteKind, &str), usize> =
        std::collections::BTreeMap::new();
    for s in baseline {
        *allowed
            .entry((s.path.as_str(), s.kind, s.detail.as_str()))
            .or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    for s in current {
        match allowed.get_mut(&(s.path.as_str(), s.kind, s.detail.as_str())) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(s),
        }
    }
    fresh
}

/// Render the inventory as the aligned text report `--rng-audit` prints.
pub fn render(sites: &[RngSite]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let draws = sites.iter().filter(|s| s.kind == SiteKind::Draw).count();
    let handoffs = sites.len() - draws;
    let files: std::collections::BTreeSet<&str> = sites.iter().map(|s| s.path.as_str()).collect();
    let width = sites
        .iter()
        .map(|s| s.path.len() + 1 + s.line.to_string().len())
        .max()
        .unwrap_or(0);
    for s in sites {
        let loc = format!("{}:{}", s.path, s.line);
        let _ = writeln!(out, "{loc:width$}  {:7}  {}", s.kind.to_string(), s.detail);
    }
    let _ = writeln!(
        out,
        "\n{} RNG consumption sites ({draws} draws, {handoffs} handoffs) across {} files",
        sites.len(),
        files.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_ish_matches_repo_naming() {
        assert!(rng_ish("rng"));
        assert!(rng_ish("self.rng"));
        assert!(rng_ish("walk_rng"));
        assert!(!rng_ish("range"));
        assert!(!rng_ish("self.wiring"));
    }

    fn site(path: &str, line: usize, kind: SiteKind, detail: &str) -> RngSite {
        RngSite {
            path: path.to_string(),
            line,
            func: "f".to_string(),
            ordinal: line,
            kind,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn baseline_round_trips_through_serialize_and_parse() {
        let sites = vec![
            site(
                "crates/netsim/src/sim.rs",
                10,
                SiteKind::Draw,
                "self.rng.gen_bool",
            ),
            site(
                "crates/netsim/src/sim.rs",
                20,
                SiteKind::Handoff,
                "channel.link(… rng …)",
            ),
        ];
        let text = format!("# header comment\n\n{}", serialize_baseline(&sites));
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].path, sites[0].path);
        assert_eq!((parsed[0].func.as_str(), parsed[0].ordinal), ("f", 10));
        assert_eq!(parsed[0].kind, SiteKind::Draw);
        assert_eq!(parsed[1].detail, sites[1].detail);
    }

    /// A site is keyed by its fn and rank there: lines inserted above
    /// move its line, not its baseline entry. A bodiless trait method and
    /// an array type in a signature open no body.
    #[test]
    fn baseline_keys_survive_a_line_shift() {
        let src = "fn a(rng: &mut R) {\n    rng.gen_bool(0.5);\n    f(rng);\n}\n\
                   trait T { fn g(&self); }\n\
                   fn b(x: [u8; 4]) { rng.gen_range(0..2); }\n";
        let sites = file_sites("a.rs", src);
        let baseline = serialize_baseline(&sites);
        assert_eq!(
            baseline,
            "a.rs a#1 draw rng.gen_bool\na.rs a#2 handoff f(… rng …)\na.rs b#1 draw rng.gen_range\n"
        );
        let shifted = file_sites("a.rs", &format!("// a new line\n\n{src}"));
        assert_eq!(serialize_baseline(&shifted), baseline);
        assert_eq!(shifted[0].line, sites[0].line + 2);
    }

    #[test]
    fn malformed_baseline_lines_are_rejected() {
        assert!(parse_baseline("a.rs no-ordinal draw x").is_err());
        assert!(parse_baseline("a.rs f#1 frobnicate x").is_err());
        assert!(parse_baseline("a.rs f#first draw x").is_err());
    }

    #[test]
    fn new_sites_ignores_line_drift_but_catches_additions() {
        let baseline = vec![site("a.rs", 10, SiteKind::Draw, "rng.gen_bool")];
        // same site, different line: covered
        let drifted = vec![site("a.rs", 42, SiteKind::Draw, "rng.gen_bool")];
        assert!(new_sites(&drifted, &baseline).is_empty());
        // a second copy of the same draw is a new site
        let doubled = vec![
            site("a.rs", 42, SiteKind::Draw, "rng.gen_bool"),
            site("a.rs", 99, SiteKind::Draw, "rng.gen_bool"),
        ];
        let fresh = new_sites(&doubled, &baseline);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 99);
        // a different detail in the same file is a new site
        let changed = vec![site("a.rs", 10, SiteKind::Handoff, "f(… rng …)")];
        assert_eq!(new_sites(&changed, &baseline).len(), 1);
    }
}
