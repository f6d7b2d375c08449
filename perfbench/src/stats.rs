//! Pure statistics the harness reports with: the percentile rule, the
//! rate-ladder SLO search and metric-name validation. Unit-tested at the
//! bottom of this file (`cargo test --manifest-path perfbench/Cargo.toml`).

/// Percentiles the harness may report, highest first, each with the share
/// of samples beyond it in parts per thousand (integers, so the rule has
/// no rounding edge).
const PERCENTILES: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)];

/// The percentile rule: the highest of [`PERCENTILES`] that still has at
/// least ten samples beyond it. `None` when even the median lacks them.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map(|(p, _)| p)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The latency limit a ladder rung must meet, and the share of its
/// requests that must be answered.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub p99_limit_ms: f64,
    pub min_answered: f64,
}

/// The outcome of one offered rate on the ladder.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    /// Offered rate, requests per second.
    pub rate: f64,
    pub sent: usize,
    /// Requests answered correctly (failures and sheds excluded).
    pub answered: usize,
    /// Latencies from the scheduled send time; a failed request counts as
    /// an infinite latency, so it misses any limit.
    pub p99_ms: f64,
    /// Requests still unanswered one SLO limit after the rung's schedule
    /// ended: a backlog the server did not keep up with.
    pub backlog: usize,
}

impl RungOutcome {
    /// True when the rung meets the SLO: enough answered, p99 under the
    /// limit, and no backlog left over (at most 1% of the sent requests).
    pub fn meets(&self, slo: &Slo) -> bool {
        self.sent > 0
            && self.answered as f64 >= slo.min_answered * self.sent as f64
            && self.p99_ms <= slo.p99_limit_ms
            && self.backlog as f64 <= 0.01 * self.sent as f64
    }
}

/// The highest offered rate on the ladder whose rung meets the SLO; 0
/// when none does.
pub fn max_rate_under_slo(rungs: &[RungOutcome], slo: &Slo) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets(slo))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Metric names are `[A-Za-z0-9_.-]+` and start with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn rung(rate: f64, sent: usize, answered: usize, p99_ms: f64, backlog: usize) -> RungOutcome {
        RungOutcome {
            rate,
            sent,
            answered,
            p99_ms,
            backlog,
        }
    }

    #[test]
    fn ladder_search_takes_the_highest_passing_rung() {
        let slo = Slo {
            p99_limit_ms: 20.0,
            min_answered: 0.99,
        };
        let rungs = [
            rung(500.0, 1000, 1000, 3.0, 0),
            rung(1000.0, 2000, 2000, 6.0, 0),
            // A transient stall fails a middle rung ...
            rung(1500.0, 3000, 3000, 25.0, 0),
            // ... but the next one still passes and counts.
            rung(2000.0, 4000, 4000, 12.0, 0),
            rung(3000.0, 6000, 6000, 400.0, 2500),
        ];
        assert_eq!(max_rate_under_slo(&rungs, &slo), 2000.0);
        // Too many failures, or a backlog, fail a rung with a fine p99.
        assert!(!rung(100.0, 1000, 980, 1.0, 0).meets(&slo));
        assert!(!rung(100.0, 1000, 1000, 1.0, 11).meets(&slo));
        assert!(rung(100.0, 1000, 990, 1.0, 10).meets(&slo));
        assert_eq!(max_rate_under_slo(&rungs[4..], &slo), 0.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        assert!(valid_metric_name("latency_p99_ms"));
        assert!(valid_metric_name("core.text.contextualize_us"));
        assert!(valid_metric_name("harness.tracing_overhead_pct"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
