//! A clean fixture: nothing here may trip any rule despite the noise.
//! Doc-comment mentions of `lint: allow(float-accum)` are not waivers,
//! and neither are string literals containing one.

/// Raw strings may contain timing literals and float sums safely, and
/// nested block comments must not desynchronize the lexer.
pub fn tricky() -> &'static str {
    /* nested /* block comment */ with xs.iter().sum::<f64>() and SimTime::from_ms(3) */
    let _c = 'a';
    let _not_a_waiver = "lint: allow(clock-domain)";
    r#"xs.iter().fold(0.0, |a, b| a + b); SimDuration::from_ms(9)"#
}

/// Sorted hash iteration is allowed when waived with the sort proof.
pub fn sorted_keys(map: &FxHashMap<u64, u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = map.keys().copied().collect(); // lint: allow(nondet-iter) -- sorted on the next line
    keys.sort_unstable();
    keys
}

/// Order-insensitive integer reduction over a hash map is always fine.
pub fn population(map: &FxHashMap<u64, u64>) -> u64 {
    map.values().copied().sum::<u64>()
}
