//! # detlint — the determinism linter
//!
//! Every guarantee this repo makes — the golden-pinned scenario digests,
//! the model-checker lassos, the frozen Bernoulli RNG stream — rests on
//! one contract: **same manifest + seed ⇒ byte-identical trace**. This
//! crate enforces that contract statically, as named, testable rules over
//! the first-party source tree:
//!
//! | rule | violation |
//! |------|-----------|
//! | D001 | `HashMap`/`HashSet` *iteration* on determinism-scoped paths (keyed lookup is fine) |
//! | D002 | wall-clock reads (`Instant`, `SystemTime`) anywhere |
//! | D003 | unseeded randomness (`thread_rng`, `from_entropy`, `rand::random`, `OsRng`) anywhere |
//! | D004 | `unwrap()`/`expect()` on library paths without a justification |
//! | D005 | `unsafe` outside `vendor/` |
//!
//! Suppression is explicit: `// detlint::allow(D00x): reason` on the
//! offending line or on its own line directly above it. Reasons are
//! mandatory and unused suppressions are findings, so the audit trail
//! cannot rot. Path-level scoping lives in `detlint.toml` at the repo
//! root. See `docs/DETERMINISM.md` for the contract in prose.
//!
//! The scanner is deliberately token-level (comments, strings, char
//! literals and cfg(test) regions are understood; types are matched by
//! local declaration, not inference) — the offline vendor set has no
//! `syn`, and the rules only need lexical precision plus a little
//! declared-type bookkeeping.

#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use config::Config;
pub use rules::{Finding, RuleId};
pub use scan::run_check;
