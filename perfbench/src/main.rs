//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `all`, every workload untraced and then
//! traced), prints every metric with its unit, and ends its output with
//! one JSON line: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Traced runs
//! write their spans to [`OUT_DIR`]. Exits 0
//! when every check passed, 1 when one failed, 2 on a usage error.

use perfbench::run::{run, Metric, Report, END_TO_END, PER_LAYER};
use perfbench::{workload, Size, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where traced runs write `<workload>.trace.json`, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <sql_speedtest|sql_oltp_wal|web_siege|all> \
--seed <n> --seconds <1..3600> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds),
        trace,
    })
}

fn print_report(report: &Report, trace: bool) {
    for line in &report.notes {
        println!("{line}");
    }
    let table: &[(&str, &str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        let better = table
            .iter()
            .find(|(n, _, _)| *n == m.name)
            .map_or("", |t| t.2);
        println!(
            "  {:<32} {:>20} {:<10} ({better} is better)",
            m.name, m.value, m.unit
        );
    }
}

/// Fixes glibc's mmap threshold at 1 MiB. By default glibc raises the
/// threshold after the first large block is freed, so later 2 MiB frame
/// slabs of the simulated machine come either from fresh zero pages or
/// from the heap, where `calloc` writes every page; which one depends on
/// the heap's history, and peak RSS then flips between two values from
/// run to run (12.8 or 14.7 MiB on `sql_oltp_wal`). With the threshold
/// fixed, every slab is mapped fresh and RSS counts the pages the
/// simulated machine touched.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it runs before
    // this process has started any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let modes: &[bool] = if args.workload == "all" {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    let mut total = Report {
        correct: true,
        ..Report::default()
    };
    for name in &names {
        for &trace in modes {
            let mut w = workload(name, Size::Full, args.seed).expect("checked in parse");
            let report = run(name, w.as_mut(), args.seconds, trace, Path::new(OUT_DIR));
            println!(
                "== {name} seed {} {} ==",
                args.seed,
                if trace {
                    "traced (per layer, per epoch)"
                } else {
                    "untraced (end to end)"
                }
            );
            print_report(&report, trace);
            total.correct &= report.correct;
            total.attempted += report.attempted;
            total.failed += report.failed;
            if names.len() == 1 {
                total.metrics = report.metrics;
            } else {
                total
                    .metrics
                    .extend(report.metrics.into_iter().map(|m| Metric {
                        name: format!("{name}.{}", m.name),
                        ..m
                    }));
            }
        }
    }
    println!("{}", total.json());
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
