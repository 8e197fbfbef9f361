//! The abr-core result pins (`crates/core/tests/stationary_golden.rs`)
//! as a tier-1 test, so plain `cargo test` at the workspace root guards
//! the bit-identity of every solver result tail too.

#[path = "../crates/core/tests/stationary_golden.rs"]
mod stationary_golden;
