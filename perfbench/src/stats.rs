//! Order statistics and the pass/fail rules the benchmark reports by.
//!
//! Everything here is pure arithmetic over recorded samples so the rules
//! can be tested on synthetic traces: the tail percentile rule, the rate
//! ladder's backlog decision and the layer subtraction.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample in place and return it (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank index of quantile `q` in a sample of `n` values.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps products like 0.999 × 10000 from rounding up.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Value at quantile `q` (nearest rank) of an already sorted sample;
/// 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Median of an already sorted sample.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Samples strictly beyond the nearest rank of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// The highest of the standard percentiles that leaves at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`, if any does.
/// Each workload fixes its tail percentile with this rule at its
/// expected sample count.
pub fn supported_tail(n: usize) -> Option<f64> {
    const LADDER: [f64; 7] = [0.999, 0.99, 0.95, 0.9, 0.8, 0.75, 0.5];
    LADDER.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The value at a workload's fixed tail percentile, and whether the
/// sample was large enough for it (at least [`MIN_BEYOND`] beyond).
pub fn tail(sorted: &[f64], q: f64) -> (f64, bool) {
    (quantile(sorted, q), beyond(sorted.len(), q) >= MIN_BEYOND)
}

/// One completed (or abandoned) operation on the generator's clock,
/// nanoseconds since the timed window opened.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When the schedule said to send it.
    pub due: u64,
    /// When it finished, `None` if it never did.
    pub done: Option<u64>,
}

/// Operations due by `t` minus operations completed by `t`: the queue
/// an open-loop generator has built, wherever it waits.
pub fn backlog_at(ops: &[Op], t: u64) -> i64 {
    let due = ops.iter().filter(|o| o.due <= t).count() as i64;
    let done = ops
        .iter()
        .filter(|o| o.done.is_some_and(|d| d <= t))
        .count() as i64;
    due - done
}

/// What a ladder step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepObs {
    /// Tail latency over the step's operations, ms.
    pub tail_ms: f64,
    /// Failed, rejected, mismatched or unsent operations.
    pub failures: u64,
    /// Backlog when the step began and when it ended.
    pub backlog_start: i64,
    /// Backlog at the step's end.
    pub backlog_end: i64,
    /// Operations the schedule put in the step.
    pub offered: u64,
}

/// Why a step missed its limit, or `None` when it met it.
pub fn step_miss(s: &StepObs, tail_limit_ms: f64, slack: i64) -> Option<String> {
    if s.failures > 0 {
        return Some(format!("{} failed operations", s.failures));
    }
    if s.offered == 0 {
        return Some("no operations offered".into());
    }
    if s.tail_ms > tail_limit_ms {
        return Some(format!(
            "tail {:.3} ms over the {tail_limit_ms} ms limit",
            s.tail_ms
        ));
    }
    let growth = s.backlog_end - s.backlog_start;
    if growth > slack {
        return Some(format!("backlog grew by {growth} (slack {slack})"));
    }
    None
}

/// Index of the highest step that meets its limit with every step below
/// it meeting theirs too; `None` when the first step already misses.
pub fn highest_ok(misses: &[Option<String>]) -> Option<usize> {
    misses
        .iter()
        .take_while(|m| m.is_none())
        .count()
        .checked_sub(1)
}

/// A residual that came out negative: the parts measured more time than
/// the whole they are supposed to divide.
#[derive(Debug, Clone, PartialEq)]
pub struct NegativeResidual {
    /// What was being subtracted from.
    pub what: &'static str,
    /// The (negative) residual.
    pub value: f64,
}

/// `total − Σ parts`. A negative result is returned as an error, so a
/// caller must decide to report it; it is never clamped to zero.
pub fn residual(what: &'static str, total: f64, parts: &[f64]) -> Result<f64, NegativeResidual> {
    let r = total - parts.iter().sum::<f64>();
    if r < 0.0 {
        Err(NegativeResidual { what, value: r })
    } else {
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&sorted(vec![3.0, 1.0, 2.0])), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.95), 5);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(48), Some(0.75));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
        // The fixed percentile reports whether the sample supported it.
        assert_eq!(tail(&ramp(100), 0.9), (90.0, true));
        assert_eq!(tail(&ramp(99), 0.9), (90.0, false));
        for n in 1..3000 {
            if let Some(q) = supported_tail(n) {
                assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    fn step(tail_ms: f64, growth: i64) -> StepObs {
        StepObs {
            tail_ms,
            failures: 0,
            backlog_start: 1,
            backlog_end: 1 + growth,
            offered: 100,
        }
    }

    #[test]
    fn ladder_stops_at_first_miss() {
        let steps = [step(50.0, 0), step(80.0, 1), step(90.0, 30)];
        let misses: Vec<_> = steps.iter().map(|s| step_miss(s, 100.0, 2)).collect();
        assert!(misses[0].is_none() && misses[1].is_none());
        assert!(misses[2].as_deref().unwrap().contains("backlog grew by 30"));
        assert_eq!(highest_ok(&misses), Some(1));
        // A pass above a miss does not count: the ladder is judged bottom up.
        let misses = vec![None, Some("x".to_string()), None];
        assert_eq!(highest_ok(&misses), Some(0));
        assert_eq!(highest_ok(&[Some("x".to_string())]), None);
    }

    #[test]
    fn step_misses_on_tail_failures_or_emptiness() {
        assert!(step_miss(&step(101.0, 0), 100.0, 2)
            .unwrap()
            .contains("tail"));
        let mut s = step(10.0, 0);
        s.failures = 1;
        assert!(step_miss(&s, 100.0, 2).unwrap().contains("failed"));
        s.failures = 0;
        s.offered = 0;
        assert!(step_miss(&s, 100.0, 2).is_some());
    }

    #[test]
    fn backlog_counts_due_minus_done_on_synthetic_traces() {
        // Served faster than offered: the backlog never exceeds one.
        let steady: Vec<Op> = (0..50)
            .map(|i| Op {
                due: i * 100,
                done: Some(i * 100 + 60),
            })
            .collect();
        for t in (0..5000).step_by(10) {
            assert!(backlog_at(&steady, t) <= 1);
        }
        // Served at 100-unit cost but offered every 50: grows 1 per 100.
        let overloaded: Vec<Op> = (0..50)
            .map(|i| Op {
                due: i * 50,
                done: Some((i + 1) * 100),
            })
            .collect();
        let grow = backlog_at(&overloaded, 2000) - backlog_at(&overloaded, 1000);
        assert_eq!(grow, 10);
        // An op that never finishes stays in the backlog.
        let stuck = [Op { due: 0, done: None }];
        assert_eq!(backlog_at(&stuck, u64::MAX), 1);
    }

    #[test]
    fn residual_is_never_silently_negative() {
        assert_eq!(residual("frame", 10.0, &[3.0, 4.0]), Ok(3.0));
        assert_eq!(residual("frame", 7.0, &[3.0, 4.0]), Ok(0.0));
        let err = residual("latency", 5.0, &[3.0, 4.0]).unwrap_err();
        assert_eq!(err.what, "latency");
        assert_eq!(err.value, -2.0);
    }
}
