//! `cargo xtask` — repo-specific developer tasks.
//!
//! The main task is `lint`: a dependency-free, token/scope-aware source
//! lint engine enforcing rules `clippy` cannot express because they are
//! about *this* simulator's determinism and error discipline. The engine
//! lexes real Rust (raw strings, nested block comments, lifetimes vs.
//! char literals, doc comments), parses a brace tree with item
//! boundaries and `#[cfg(test)]` regions, and evaluates twelve rules
//! over the token stream — see [`rules::Rule`] for the catalogue and
//! DESIGN.md §12 for the architecture.
//!
//! Run as `cargo xtask lint [--format text|json] [--out FILE]`; exits
//! non-zero when any non-waived violation remains, so CI fails the build.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
