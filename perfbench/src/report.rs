//! The run's result: checks, metrics, and the final JSON line.

use crate::stats;

/// Checks and metrics gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Checks made (jobs verified, replays, byte comparisons, …).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records a single-valued metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        eprintln!("  {name:<30} {value:>14.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the median of `samples` as the metric's value, printing
    /// its quartiles and sample count alongside.
    pub fn median_of(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let (q1, q3) = stats::quartiles(samples);
        let value = stats::median(samples);
        eprintln!(
            "  {name:<30} {value:>14.6} {unit:<6} q1 {q1:.6} q3 {q3:.6} n {}",
            samples.len()
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records the `q`-quantile of `samples`, printing how many samples
    /// lie beyond it.
    pub fn percentile_of(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        let value = stats::percentile(samples, q);
        let beyond = samples.iter().filter(|&&x| x > value).count();
        eprintln!(
            "  {name:<30} {value:>14.6} {unit:<6} n {} beyond {beyond}",
            samples.len()
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result as the benchmark's one-line JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.median_of("latency_ms", &[1.25, 1.0, 3.0], "ms");
        r.metric("count", 3.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.check(false, || "bad".into());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
