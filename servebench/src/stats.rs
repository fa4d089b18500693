//! Pure arithmetic behind the reported numbers: percentiles, the knee
//! of a rate ladder, and the `/proc` fields the server is measured by.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes the nearest-rank percentile.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of a small set of repeated measurements (the mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One step of an open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered: f64,
    /// Achieved rate: requests completed over the span from the step's
    /// start to its last completion.
    pub achieved: f64,
    /// 90th percentile latency from scheduled send, milliseconds.
    pub p90_ms: f64,
    /// Requests that failed or were refused.
    pub failed: usize,
}

/// Achieved rate may trail the offered rate by this share before the
/// step counts as building a backlog (the last completion always lands
/// a little after the last scheduled send).
pub const BACKLOG_SLACK: f64 = 0.97;

impl Step {
    /// How far the step is from its limits: at most 1 when it passes.
    /// The larger of p90 over the latency limit and the backlog score:
    /// the achieved rate's shortfall against the offered one, 0 with
    /// none and 1 at the [`BACKLOG_SLACK`] allowance. A failed request
    /// fails the step outright.
    pub fn load_score(&self, limit_ms: f64) -> f64 {
        if self.failed > 0 {
            return f64::INFINITY;
        }
        let shortfall = self.offered / self.achieved.max(1e-9) - 1.0;
        let backlog = shortfall / (1.0 / BACKLOG_SLACK - 1.0);
        (self.p90_ms / limit_ms).max(backlog)
    }
}

/// The highest offered rate that stays within the limits, from each
/// ladder rate's load score ([`Step::load_score`]): the rate where the
/// score crosses 1, interpolated between the last passing rate and the
/// first failing one on the logarithm of the score (queueing delay
/// grows about exponentially towards capacity, so how far the failing
/// step overshoots moves the crossing little). Rates must be
/// increasing. Each score is first replaced by the median of it and its
/// two neighbours, so one step hit by a stall of the shared machine
/// neither ends the ladder early nor extends it. When the first rate
/// already fails, the crossing is interpolated linearly from the origin
/// (score 0 at rate 0); when none fails the result is the top rate, a
/// lower bound.
pub fn knee_of(rates: &[f64], raw: &[f64]) -> Option<f64> {
    let scores: Vec<f64> = (0..raw.len())
        .map(|k| {
            if k == 0 || k + 1 == raw.len() {
                raw[k]
            } else {
                let mut three = [raw[k - 1], raw[k], raw[k + 1]];
                three.sort_by(f64::total_cmp);
                three[1]
            }
        })
        .collect();
    let first = *rates.first()?;
    let mut prev: (f64, f64) = (0.0, 0.0);
    for (&offered, &score) in rates.iter().zip(&scores) {
        if score > 1.0 {
            let (rate, prev_score) = prev;
            if !score.is_finite() {
                return Some(if rate > 0.0 { rate } else { first * 0.5 });
            }
            let x = if prev_score > 0.0 {
                prev_score.ln() / (prev_score.ln() - score.ln())
            } else {
                1.0 / score
            };
            let x = x.clamp(0.0, 1.0);
            return Some(rate + x * (offered - rate));
        }
        prev = (offered, score);
    }
    Some(prev.0)
}

/// User plus system CPU time of a process, in clock ticks, from the
/// text of `/proc/<pid>/stat`. The command name (field 2) is wrapped in
/// parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn proc_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in kB, from `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The clock-tick rate `/proc` CPU times are counted in. Linux fixes
/// the user-visible value (`USER_HZ`) at 100 on every architecture the
/// benchmark runs on.
pub const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds of process `pid` (`self` for the benchmark itself).
pub fn cpu_secs(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(proc_cpu_ticks(&text)? as f64 / TICKS_PER_SEC)
}

/// Steal and total CPU ticks of all CPUs together, from the `cpu` line
/// of `/proc/stat` (user, nice, system, idle, iowait, irq, softirq,
/// steal); `None` without a steal field.
pub fn proc_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of the items [`quiet`] keeps at the least.
pub const QUIET_SHARE: f64 = 0.4;

/// Steal share [`quiet`] always accepts: one or two clock ticks of the
/// spans it judges, too little to tell items apart.
pub const QUIET_FLOOR: f64 = 0.01;

/// The items measured while the host was quietest: the [`QUIET_SHARE`]
/// with the least steal (rounded up), plus every other item tied with
/// them or at most [`QUIET_FLOOR`]. On a quiet host every item is kept.
pub fn quiet<T>(items: Vec<(f64, T)>) -> Vec<T> {
    let mut steals: Vec<f64> = items.iter().map(|(steal, _)| *steal).collect();
    steals.sort_by(f64::total_cmp);
    let Some(&cut) = steals.get(((QUIET_SHARE * steals.len() as f64).ceil() as usize).max(1) - 1)
    else {
        return Vec::new();
    };
    let cut = cut.max(QUIET_FLOOR);
    items.into_iter().filter(|(steal, _)| *steal <= cut).map(|(_, item)| item).collect()
}

/// Value of one sample line in a Prometheus text exposition: the
/// metric `name` with exactly the given label set.
pub fn prom_value(text: &str, name: &str, labels: &str) -> Option<f64> {
    let key = if labels.is_empty() { name.to_string() } else { format!("{name}{{{labels}}}") };
    text.lines().find_map(|line| {
        let (head, value) = line.rsplit_once(' ')?;
        (head == key).then(|| value.parse().ok()).flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 91.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    fn knee(steps: &[Step], limit_ms: f64) -> Option<f64> {
        let rates: Vec<f64> = steps.iter().map(|s| s.offered).collect();
        let scores: Vec<f64> = steps.iter().map(|s| s.load_score(limit_ms)).collect();
        knee_of(&rates, &scores)
    }

    fn step(offered: f64, p90_ms: f64) -> Step {
        Step { offered, achieved: offered, p90_ms, failed: 0 }
    }

    #[test]
    fn knee_interpolates_between_the_pass_and_the_fail() {
        // Scores 0.5 at 200 and 2.5 at 300: the log score crosses 0 at
        // ln 2 / (ln 2 + ln 2.5) of the way.
        let steps = [step(100.0, 0.5), step(200.0, 1.0), step(300.0, 5.0)];
        let knee = knee(&steps, 2.0).unwrap();
        let expected = 200.0 + 2f64.ln() / (2f64.ln() + 2.5f64.ln()) * 100.0;
        assert!((knee - expected).abs() < 1e-9, "{knee} vs {expected}");
    }

    #[test]
    fn knee_counts_a_growing_backlog_as_a_failure() {
        // Latency is fine but only 60% of the offered load completes.
        let mut overloaded = step(400.0, 1.0);
        overloaded.achieved = 240.0;
        let steps = [step(200.0, 1.0), overloaded];
        let knee = knee(&steps, 2.0).unwrap();
        let score = (400.0 / 240.0 - 1.0) / (1.0 / BACKLOG_SLACK - 1.0);
        let expected = 200.0 + 0.5f64.ln() / (0.5f64.ln() - score.ln()) * 200.0;
        assert!((knee - expected).abs() < 1e-9, "{knee} vs {expected}");
        assert!(knee > 200.0 && knee < 400.0);
    }

    #[test]
    fn knee_ignores_a_single_stalled_step() {
        // One step hit by a stall among passing neighbours: the ladder
        // goes on to the real crossing between 400 and 500.
        let steps = [
            step(100.0, 0.5),
            step(200.0, 9.0),
            step(300.0, 0.5),
            step(400.0, 1.0),
            step(500.0, 3.0),
            step(600.0, 8.0),
        ];
        let knee = knee(&steps, 2.0).unwrap();
        let expected = 400.0 + 2f64.ln() / (2f64.ln() + 1.5f64.ln()) * 100.0;
        assert!((knee - expected).abs() < 1e-9, "{knee} vs {expected}");
    }

    #[test]
    fn knee_edges() {
        assert_eq!(knee(&[], 1.0), None);
        // Nothing fails: the top rate is a lower bound.
        assert_eq!(knee(&[step(100.0, 0.1), step(200.0, 0.2)], 1.0), Some(200.0));
        // The first step fails: interpolate from the origin.
        let k = knee(&[step(100.0, 4.0)], 2.0).unwrap();
        assert!((k - 50.0).abs() < 1e-9, "{k}");
        // A failed request fails its step at the last passing rate.
        let mut broken = step(300.0, 0.1);
        broken.failed = 1;
        assert_eq!(knee(&[step(200.0, 0.1), broken], 1.0), Some(200.0));
    }

    #[test]
    fn quiet_keeps_the_least_stolen_items() {
        // Two of five (0.4 rounded up), in their original order.
        let items = vec![(0.10, 'a'), (0.01, 'b'), (0.02, 'c'), (0.03, 'd'), (0.30, 'e')];
        assert_eq!(quiet(items), ['b', 'c']);
        // Ties at the cut all count.
        assert_eq!(quiet(vec![(0.0, 1), (0.04, 2), (0.0, 3), (0.0, 4), (0.5, 5)]), [1, 3, 4]);
        assert_eq!(quiet(vec![(0.2, 'x')]), ['x']);
        // Steal under the floor counts as none.
        let items = vec![(0.0, 1), (0.008, 2), (0.009, 3), (0.2, 4), (0.3, 5)];
        assert_eq!(quiet(items), [1, 2, 3]);
        // No steal at all: everything is quiet.
        assert_eq!(quiet(vec![(0.0, 1), (0.0, 2), (0.0, 3)]), [1, 2, 3]);
        assert!(quiet::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn proc_stat_steal_and_total() {
        let stat = "cpu  100 5 20 800 10 0 5 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n";
        assert_eq!(proc_steal_ticks(stat), Some((60, 1000)));
        assert_eq!(proc_steal_ticks("cpu  100 5 20 800\n"), None);
        assert_eq!(proc_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn proc_stat_cpu_time_skips_a_name_with_spaces_and_parens() {
        let stat = "4242 (mst (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    250 75 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(proc_cpu_ticks(stat), Some(325));
        assert_eq!(proc_cpu_ticks("1 (x) S 1"), None);
        assert_eq!(proc_cpu_ticks("no parens"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status = "Name:\tmst\nVmPeak:\t  500000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 80000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(81234));
        assert_eq!(vm_hwm_kb("Name:\tmst\n"), None);
    }

    #[test]
    fn prometheus_lines_match_exact_names_and_labels() {
        let text = "# TYPE x counter\nmst_poll_waits_total 42\n\
                    mst_tenant_cache_hits_total{tenant=\"default\"} 7\n\
                    mst_poll_waits_total_extra 1\n";
        assert_eq!(prom_value(text, "mst_poll_waits_total", ""), Some(42.0));
        assert_eq!(
            prom_value(text, "mst_tenant_cache_hits_total", "tenant=\"default\""),
            Some(7.0)
        );
        assert_eq!(prom_value(text, "mst_tenant_cache_hits_total", ""), None);
    }
}
