//! Medians and the quartile spread the benchmark's steadiness is judged by.

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of `values` lie at or below. A run's timings are
/// summarised by it: other tenants of the host only ever add time, so the
/// median of a run's units moves with the neighbours; and threads that
/// happen to land on sibling hardware threads now and then run a unit in a
/// third of the time, so the minimum moves with the placement. The lower
/// quartile moved least of the estimators tried (see the README).
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 4]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread as a share of the median: the interquartile distance
/// where there are enough runs for one, else the whole range.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let width = match quartiles(values) {
        Some((q1, q3)) if values.len() >= 4 => q3 - q1,
        _ => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        }
    };
    width / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(spread(&[4.0, 5.0, 6.0]), 0.4);
        assert_eq!(lower_quartile(&[9.0, 1.0, 5.0, 7.0, 3.0, 8.0, 2.0, 6.0]), 3.0);
        assert_eq!(lower_quartile(&[4.0]), 4.0);
        assert_eq!(lower_quartile(&[4.0, 2.0, 3.0]), 2.0);
    }
}
