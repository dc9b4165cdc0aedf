//! The benchmark's accounting rules: op outcomes, failure ranking and
//! charging, the tail-percentile rule, medians and the determinism digest.

/// One measured operation: its simulated latency and whether its output
/// check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Simulated cycles from the op's first to its last instruction.
    pub cycles: u64,
    /// The op errored or returned a wrong result.
    pub failed: bool,
}

/// Workloads with at least this many ops per epoch report p99 as their
/// tail; smaller ones report p90.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The tail percentile reported for a sample of `n` ops.
pub fn tail_percentile(n: usize) -> u32 {
    if n >= P99_MIN_SAMPLES {
        99
    } else {
        90
    }
}

/// Nearest-rank percentile `p` (1..=100) of `ops`. Failed ops rank above
/// every successful op; a percentile that lands on a failure reports
/// `phase_cycles`, the measured phase's total simulated cycles.
///
/// The nearest rank is unchanged when the sample is repeated `k` times,
/// so one epoch's ops give the same percentile as a whole run of
/// identical epochs.
pub fn percentile(ops: &[Op], p: u32, phase_cycles: u64) -> u64 {
    assert!(!ops.is_empty() && (1..=100).contains(&p));
    let mut ok: Vec<u64> = ops.iter().filter(|o| !o.failed).map(|o| o.cycles).collect();
    ok.sort_unstable();
    let rank = (ops.len() * p as usize).div_ceil(100);
    if rank <= ok.len() {
        ok[rank - 1]
    } else {
        phase_cycles
    }
}

/// Simulated cycles per successful op: failures are charged to the
/// successes, so fixing a failure can only lower this. With no success
/// at all the whole phase is charged.
pub fn cycles_per_success(phase_cycles: u64, ops: &[Op]) -> f64 {
    let ok = successes(ops);
    if ok == 0 {
        phase_cycles as f64
    } else {
        phase_cycles as f64 / ok as f64
    }
}

/// Successful ops per host second of the measured phase.
pub fn goodput(ops: &[Op], host_s: f64) -> f64 {
    successes(ops) as f64 / host_s
}

/// Ops whose output check passed.
pub fn successes(ops: &[Op]) -> usize {
    ops.iter().filter(|o| !o.failed).count()
}

/// Nearest-rank percentile `p` (1..=100) of `xs`.
pub fn nearest_rank(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty() && (1..=100).contains(&p));
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * p as usize).div_ceil(100) - 1]
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// FNV-1a, 64 bit: an order-sensitive fold of an epoch's simulated
/// outcomes. Two epochs with one seed must produce the same digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value.
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an op's latency and outcome.
    pub fn fold_op(&mut self, op: Op) {
        self.fold(op.cycles);
        self.fold(u64::from(op.failed));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(cycles: u64) -> Op {
        Op {
            cycles,
            failed: false,
        }
    }

    fn bad(cycles: u64) -> Op {
        Op {
            cycles,
            failed: true,
        }
    }

    #[test]
    fn tail_rule_switches_at_a_thousand_samples() {
        assert_eq!(tail_percentile(31), 90);
        assert_eq!(tail_percentile(999), 90);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(4000), 99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ops: Vec<Op> = (1..=100).map(ok).collect();
        assert_eq!(percentile(&ops, 50, 0), 50);
        assert_eq!(percentile(&ops, 90, 0), 90);
        assert_eq!(percentile(&ops, 99, 0), 99);
        assert_eq!(percentile(&ops, 100, 0), 100);
        // 31 ops: p90 is rank 28, p50 rank 16.
        let ops: Vec<Op> = (1..=31).map(ok).collect();
        assert_eq!(percentile(&ops, 90, 0), 28);
        assert_eq!(percentile(&ops, 50, 0), 16);
    }

    #[test]
    fn percentile_is_invariant_under_repetition() {
        let one: Vec<Op> = [7, 3, 9, 1, 4, 4, 12].into_iter().map(ok).collect();
        let many: Vec<Op> = one.iter().copied().cycle().take(one.len() * 5).collect();
        for p in [1, 10, 50, 90, 99, 100] {
            assert_eq!(percentile(&one, p, 0), percentile(&many, p, 0), "p{p}");
        }
    }

    #[test]
    fn failures_rank_above_every_success() {
        // A failure with a tiny latency still ranks last.
        let mut ops: Vec<Op> = (1..=9).map(|c| ok(c * 100)).collect();
        ops.push(bad(1));
        assert_eq!(percentile(&ops, 90, 77_777), 900);
        assert_eq!(percentile(&ops, 99, 77_777), 77_777);
        assert_eq!(percentile(&ops, 100, 77_777), 77_777);
        // Half failed: the median lands on a success, p60 on a failure.
        let ops = [ok(5), ok(6), bad(1), bad(2)];
        assert_eq!(percentile(&ops, 50, 1_000), 6);
        assert_eq!(percentile(&ops, 60, 1_000), 1_000);
    }

    #[test]
    fn failures_are_charged_to_successes() {
        let clean = [ok(10), ok(10), ok(10), ok(10)];
        let one_failed = [ok(10), ok(10), ok(10), bad(10)];
        assert_eq!(cycles_per_success(40, &clean), 10.0);
        // Same phase cycles, one fewer success: the cost per op rises.
        assert!((cycles_per_success(40, &one_failed) - 40.0 / 3.0).abs() < 1e-9);
        assert_eq!(cycles_per_success(40, &[bad(1), bad(2)]), 40.0);
        assert_eq!(goodput(&clean, 2.0), 2.0);
        assert_eq!(goodput(&one_failed, 2.0), 1.5);
        assert_eq!(successes(&one_failed), 3);
    }

    #[test]
    fn nearest_rank_of_floats() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 90), 9.0);
        assert_eq!(nearest_rank(&xs, 10), 1.0);
        assert_eq!(nearest_rank(&xs[..4], 90), 10.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let fold = |xs: &[Op]| {
            let mut d = Digest::default();
            xs.iter().for_each(|&o| d.fold_op(o));
            d.value()
        };
        assert_eq!(fold(&[ok(1), ok(2)]), fold(&[ok(1), ok(2)]));
        assert_ne!(fold(&[ok(1), ok(2)]), fold(&[ok(2), ok(1)]));
        assert_ne!(fold(&[ok(1)]), fold(&[bad(1)]));
    }
}
