//! Order statistics computed the way Python's `statistics` module does,
//! so `hpsbench summary` agrees with any script that post-processes the
//! run files with `statistics.median` and `statistics.quantiles(n=4)`.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. `NaN`
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them. A single value is its own
/// quartiles; no values give `NaN`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len() as i64;
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let (m, n) = (ld + 1, 4i64);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!(median(&[]).is_nan());
    }
}
