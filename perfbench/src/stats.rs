//! Order statistics and the log-log slope fit used by the report.

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks — numpy's default method. One sample returns itself; an empty
/// slice returns 0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// `exclusive` method, which extrapolates past the sample ends when it
/// is small). With fewer than two samples both quartiles equal the lone
/// value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent of
/// a cost `y` measured at sizes `x` (1 for O(n), 0 for O(1)). Points
/// with a non-positive coordinate are skipped; fewer than two usable
/// points give 0.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let k = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / k;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(close(percentile(&v, 0.9), 10.0));
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 1.0), 11.0));
        assert!(close(percentile(&[1.0, 2.0], 0.9), 1.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!(close(q1, 1.5) && close(q3, 12.0), "{q1} {q3}");
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!(close(q1, 0.5) && close(q3, 3.5), "{q1} {q3}");
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let linear: Vec<(f64, f64)> = [1e3, 1e4, 1e5].iter().map(|&n| (n, 2.0 * n)).collect();
        assert!(close(loglog_slope(&linear), 1.0));
        let flat: Vec<(f64, f64)> = [1e3, 1e4, 1e5].iter().map(|&n| (n, 13.0)).collect();
        assert!(close(loglog_slope(&flat), 0.0));
        let sqrt: Vec<(f64, f64)> = [1e2, 1e4].iter().map(|&n: &f64| (n, n.sqrt())).collect();
        assert!(close(loglog_slope(&sqrt), 0.5));
        assert_eq!(loglog_slope(&[(10.0, 1.0)]), 0.0);
        assert_eq!(loglog_slope(&[(0.0, 1.0), (10.0, 1.0)]), 0.0);
    }
}
