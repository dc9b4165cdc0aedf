//! One benchmark run: epochs until the time is up, the determinism and
//! output checks, and the metrics of the run.

use crate::recorder::Recorder;
use crate::sim::Layers;
use crate::stats::{
    cycles_per_success, goodput, median, nearest_rank, percentile, successes, tail_percentile,
};
use crate::{Epoch, Workload};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The end-to-end metrics, reported by untraced runs: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("goodput_ops_per_s", "ops/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_ops_share", "fraction", "higher"),
    ("sim_cycles_per_op", "cycles", "lower"),
    ("sim_op_p50_cycles", "cycles", "lower"),
    ("sim_op_tail_cycles", "cycles", "lower"),
];

/// The per-layer metrics, reported by traced runs, per epoch: name, unit,
/// better.
pub const PER_LAYER: [(&str, &str, &str); 56] = [
    ("sqldb.host_self_s", "s", "lower"),
    ("sqldb.stmt_host_us.select", "us", "lower"),
    ("sqldb.stmt_host_us.update", "us", "lower"),
    ("sqldb.stmt_host_us.commit", "us", "lower"),
    ("sqldb.stmt_host_us.checkpoint", "us", "lower"),
    ("sqldb.pager_hit_ratio", "fraction", "higher"),
    ("sqldb.pager_misses", "count", "lower"),
    ("sqldb.evictions", "count", "lower"),
    ("sqldb.commits", "count", "higher"),
    ("sqldb.syncs_per_commit", "ratio", "lower"),
    ("sqldb.wal_frames", "count", "lower"),
    ("sqldb.checkpoints", "count", "lower"),
    ("sqldb.sim_self_cycles", "cycles", "lower"),
    ("sqldb.calls_in", "count", "lower"),
    ("storage.calls", "count", "lower"),
    ("storage.bytes_read", "B", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("storage.host_s", "s", "lower"),
    ("storage.sim_cycles", "cycles", "lower"),
    ("vfs.sim_self_cycles", "cycles", "lower"),
    ("vfs.calls_in", "count", "lower"),
    ("ramfs.sim_self_cycles", "cycles", "lower"),
    ("ramfs.calls_in", "count", "lower"),
    ("ukbase.sim_self_cycles", "cycles", "lower"),
    ("ukbase.calls_in", "count", "lower"),
    ("net.sim_self_cycles", "cycles", "lower"),
    ("net.calls_in", "count", "lower"),
    ("httpd.sim_self_cycles", "cycles", "lower"),
    ("httpd.calls_in", "count", "lower"),
    ("httpd.requests_served", "count", "higher"),
    ("httpd.not_found", "count", "lower"),
    ("httpd.leak_probe_not_found", "count", "lower"),
    ("httpd.fetch_host_s", "s", "lower"),
    ("mpk.accesses", "count", "lower"),
    ("mpk.bytes_moved", "B", "lower"),
    ("mpk.tlb_hit_ratio", "fraction", "higher"),
    ("mpk.wrpkru", "count", "lower"),
    ("mpk.retags", "count", "lower"),
    ("mpk.faults", "count", "lower"),
    ("core.cross_calls", "count", "lower"),
    ("core.faults_resolved", "count", "lower"),
    ("core.acl_probes_per_fault", "ratio", "lower"),
    ("core.window_ops", "count", "lower"),
    ("core.sim_trampoline_cycles", "cycles", "lower"),
    ("core.sim_wrpkru_cycles", "cycles", "lower"),
    ("core.sim_trap_cycles", "cycles", "lower"),
    ("core.sim_retag_cycles", "cycles", "lower"),
    ("core.sim_acl_cycles", "cycles", "lower"),
    ("core.sim_other_cycles", "cycles", "lower"),
    ("core.sim_self_cycles", "cycles", "lower"),
    ("core.calls_in", "count", "lower"),
    ("bench.sim_client_cycles", "cycles", "lower"),
    ("bench.gen_host_s", "s", "lower"),
    ("bench.trace_overhead_x", "x", "lower"),
    ("bench.tail_percentile", "percentile", "lower"),
    ("bench.tail_samples", "count", "higher"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output, determinism and split check passed.
    pub correct: bool,
    /// Ops attempted over every epoch.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The run's metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: tables, digest, check failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The run's result as one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// What a run keeps of its epochs: the first one whole, the others as
/// numbers, so the benchmark's own memory does not grow with the run.
#[derive(Default)]
struct Tally {
    first: Option<Epoch>,
    epochs: usize,
    attempted: u64,
    failed: u64,
    measured_s: Vec<f64>,
    goodput: Vec<f64>,
    /// Host seconds of each set-up timed on its own (untraced epochs).
    setup_s: Vec<f64>,
    /// Per-layer metrics of each traced epoch.
    layers: Vec<Layers>,
    problems: Vec<String>,
}

impl Tally {
    /// Runs epochs for about `budget` seconds: another epoch starts only
    /// if, taking as long as the last one, it ends within the budget. At
    /// least one epoch runs. With untraced epochs, set-ups are also timed
    /// on their own, between epochs, so that they sample the same stretch
    /// of host time as the epochs: before each epoch, set-ups run until
    /// they have taken [`SETUP_SHARE`] of the time epochs took so far, and
    /// at least [`MIN_SETUPS`] run in all.
    fn run(w: &mut dyn Workload, traced: bool, budget: f64) -> Tally {
        let start = Instant::now();
        let mut tally = Tally::default();
        let (mut epochs_s, mut setups_s) = (0.0, 0.0);
        loop {
            while !traced && setups_s < SETUP_SHARE * epochs_s {
                setups_s += tally.set_up(w);
            }
            let t = Instant::now();
            tally.add(w.epoch(traced));
            let epoch_s = t.elapsed().as_secs_f64();
            epochs_s += epoch_s;
            if start.elapsed().as_secs_f64() + epoch_s > budget {
                break;
            }
        }
        while !traced && tally.setup_s.len() < MIN_SETUPS {
            tally.set_up(w);
        }
        tally
    }

    /// Times one set-up; returns its host seconds.
    fn set_up(&mut self, w: &mut dyn Workload) -> f64 {
        let t = Instant::now();
        w.set_up();
        let s = t.elapsed().as_secs_f64();
        self.setup_s.push(s);
        s
    }

    fn add(&mut self, mut e: Epoch) {
        let i = self.epochs;
        self.epochs += 1;
        self.problems
            .extend(e.problems.iter().map(|p| format!("epoch {i}: {p}")));
        if let Some(first) = &self.first {
            if e.digest != first.digest {
                self.problems.push(format!(
                    "epoch {i}: digest {:#018x} differs from {:#018x}",
                    e.digest, first.digest
                ));
            }
        }
        self.attempted += e.ops.len() as u64;
        self.failed += (e.ops.len() - successes(&e.ops)) as u64;
        self.measured_s.push(e.measured_s);
        self.goodput.push(goodput(&e.ops, e.measured_s));
        if let Some(rec) = &e.recorder {
            span_layers(&rec.borrow(), &mut e.layers);
            self.layers.push(e.layers.clone());
        }
        if self.first.is_none() {
            self.first = Some(e);
        }
    }

    fn first(&self) -> &Epoch {
        self.first.as_ref().expect("a run has at least one epoch")
    }
}

/// Share of the untraced epochs' host time spent timing set-ups on their
/// own.
const SETUP_SHARE: f64 = 0.05;

/// Host-time metrics read the slow end of their per-sample values: the
/// 90th-percentile set-up time and the 10th-percentile epoch goodput.
/// The measurement host switches, for seconds to minutes at a time,
/// between states up to 2× apart in speed. A median, or the fast end,
/// jumps between states with the share of fast time a run happened to
/// get; the slow state shows up in nearly every run, so the slow end
/// varies least from run to run.
const SLOW_END: u32 = 90;

/// Set-ups timed at least, alongside untraced epochs.
const MIN_SETUPS: usize = 21;

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs workload `name` for `seconds`. An untraced run reports the
/// end-to-end metrics. A traced run spends half its time on untraced
/// epochs and half on traced ones, checks that both give the same
/// digest, reports the per-layer metrics and writes the spans of its
/// first traced epoch to `out_dir/<name>.trace.json`.
pub fn run(name: &str, w: &mut dyn Workload, seconds: f64, trace: bool, out_dir: &Path) -> Report {
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut plain = Tally::run(w, false, budget);
    let traced = trace.then(|| Tally::run(w, true, budget));
    let mut r = Report::default();
    let mut problems = std::mem::take(&mut plain.problems);
    r.attempted = plain.attempted;
    r.failed = plain.failed;
    let first = plain.first();
    let n = first.ops.len();
    let tail = tail_percentile(n);
    r.notes.push(format!(
        "{name}: {} untraced + {} traced epoch(s), {n} ops each, digest {:#018x}; tail = p{tail} over {n} samples per epoch",
        plain.epochs,
        traced.as_ref().map_or(0, |t| t.epochs),
        first.digest
    ));
    let times = &plain.measured_s;
    r.notes.push(format!(
        "untraced measured phase per epoch: min {:.6} s, median {:.6} s, max {:.6} s",
        nearest_rank(times, 1),
        median(times),
        nearest_rank(times, 100)
    ));
    if !trace {
        r.notes.push(format!(
            "set-ups timed on their own: {}; p10 {:.6} s, median {:.6} s, p90 {:.6} s",
            plain.setup_s.len(),
            nearest_rank(&plain.setup_s, 10),
            median(&plain.setup_s),
            nearest_rank(&plain.setup_s, 90)
        ));
    }
    let epochs: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    r.notes.push(format!("epoch s: {}", epochs.join(" ")));

    if let Some(mut traced) = traced {
        problems.append(&mut traced.problems);
        if traced.first().digest != first.digest {
            problems.push(format!(
                "traced digest {:#018x} differs from untraced {:#018x}",
                traced.first().digest,
                first.digest
            ));
        }
        r.attempted += traced.attempted;
        r.failed += traced.failed;
        for (metric, unit, _) in PER_LAYER {
            let value = match metric {
                "bench.trace_overhead_x" => median(&traced.measured_s) / median(times),
                "bench.tail_percentile" => f64::from(tail),
                "bench.tail_samples" => n as f64,
                _ => {
                    let xs: Vec<f64> = traced
                        .layers
                        .iter()
                        .map(|l| l.get(metric).copied().unwrap_or(0.0))
                        .collect();
                    median(&xs)
                }
            };
            r.metrics.push(Metric {
                name: metric.to_string(),
                value,
                unit,
            });
        }
        for key in traced.layers.iter().flat_map(|l| l.keys()) {
            if !PER_LAYER.iter().any(|(m, _, _)| m == key) {
                problems.push(format!("layer metric {key} is not in the per-layer list"));
            }
        }
        r.notes.extend(traced.first().notes.iter().cloned());
        if let Some(rec) = traced.first().recorder.as_ref() {
            let rec = rec.borrow();
            r.notes.extend(span_table(&rec));
            let path = out_dir.join(format!("{name}.trace.json"));
            let written = std::fs::create_dir_all(out_dir)
                .and_then(|()| std::fs::write(&path, rec.chrome_json()));
            match written {
                Ok(()) => r.notes.push(format!("spans: {}", path.display())),
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            }
        }
    } else {
        let rss = peak_rss_mib().unwrap_or_else(|| {
            problems.push("peak RSS unavailable".into());
            0.0
        });
        let values = [
            nearest_rank(&plain.setup_s, SLOW_END),
            nearest_rank(&plain.goodput, 100 - SLOW_END),
            rss,
            (r.attempted - r.failed) as f64 / r.attempted as f64,
            cycles_per_success(first.sim_cycles, &first.ops),
            percentile(&first.ops, 50, first.sim_cycles) as f64,
            percentile(&first.ops, tail, first.sim_cycles) as f64,
        ];
        for ((metric, unit, _), value) in END_TO_END.iter().zip(values) {
            r.metrics.push(Metric {
                name: metric.to_string(),
                value,
                unit,
            });
        }
    }
    for m in &r.metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
    }
    r.correct = problems.is_empty();
    r.notes
        .extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    r
}

/// Per-epoch metrics measured by the benchmark-side spans.
fn span_layers(rec: &Recorder, l: &mut Layers) {
    let by_layer = rec.totals_by(|s| s.layer);
    let layer = |k: &str| by_layer.get(k).copied().unwrap_or_default();
    l.insert("bench.gen_host_s", layer("bench").self_s);
    l.insert("sqldb.host_self_s", layer("sqldb").self_s);
    l.insert("storage.host_s", layer("storage").total_s);
    l.insert("httpd.fetch_host_s", layer("httpd").total_s);
    let st = rec.storage;
    l.insert("storage.calls", st.calls as f64);
    l.insert("storage.bytes_read", st.bytes_read as f64);
    l.insert("storage.bytes_written", st.bytes_written as f64);
    l.insert("storage.sim_cycles", st.sim_cycles as f64);
    let by_call = rec.totals_by(|s| (s.layer, s.name));
    for (stmt, metric) in [
        ("select", "sqldb.stmt_host_us.select"),
        ("update", "sqldb.stmt_host_us.update"),
        ("commit", "sqldb.stmt_host_us.commit"),
        ("checkpoint", "sqldb.stmt_host_us.checkpoint"),
    ] {
        let t = by_call.get(&("sqldb", stmt)).copied().unwrap_or_default();
        let mean_us = if t.count > 0 {
            t.total_s / t.count as f64 * 1e6
        } else {
            0.0
        };
        l.insert(metric, mean_us);
    }
}

/// The per-layer host self-time table of one traced epoch.
fn span_table(rec: &Recorder) -> Vec<String> {
    let by_layer = rec.totals_by(|s| s.layer);
    let total: f64 = by_layer.values().map(|t| t.self_s).sum();
    let mut lines = vec![format!(
        "  {:<10} {:>10} {:>12} {:>12} {:>7}",
        "layer", "spans", "self s", "incl s", "self %"
    )];
    for (layer, t) in &by_layer {
        lines.push(format!(
            "  {:<10} {:>10} {:>12.6} {:>12.6} {:>6.1}%",
            layer,
            t.count,
            t.self_s,
            t.total_s,
            100.0 * t.self_s / total.max(f64::MIN_POSITIVE)
        ));
    }
    lines
}
