//! `cargo xtask` — repo-specific developer tasks.
//!
//! The main task is `lint`: a dependency-free, token/scope-aware source
//! lint engine enforcing the determinism rules rustc and clippy cannot
//! express; the rules they can express are `[workspace.lints]` in the root
//! manifest. The engine lexes real Rust (raw strings, nested block
//! comments, lifetimes vs. char literals, doc comments), parses a brace
//! tree with item boundaries and `#[cfg(test)]` regions, evaluates four
//! rules over the token stream plus `dead-waiver`, and checks that every
//! crate manifest opts into the workspace lints — see [`rules::Rule`] for
//! the catalogue and DESIGN.md §12 for the architecture.
//!
//! Run as `cargo xtask lint [--format text|json] [--out FILE]`; exits
//! non-zero when any non-waived violation remains, so CI fails the build.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
