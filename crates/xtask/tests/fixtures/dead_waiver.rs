//! Seeded violation: a waiver that suppresses nothing.

/// Nothing below the waiver violates `float-accum`.
pub fn quiet() -> u32 {
    // lint: allow(float-accum)
    41 + 1
}
