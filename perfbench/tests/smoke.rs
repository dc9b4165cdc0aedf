//! Tiny-size smoke of every workload: the benchmark's checks pass, tracing
//! is free on the simulated clock, a seed replays bit-identically and both
//! simulated splits sum exactly to the measured phase.

use perfbench::run::{run, END_TO_END, PER_LAYER};
use perfbench::sim::Layers;
use perfbench::{workload, Size, WORKLOADS};
use std::path::Path;

fn sum(layers: &Layers, keys: impl Iterator<Item = String>) -> u64 {
    keys.map(|k| layers[k.as_str()] as u64).sum()
}

#[test]
fn traced_and_untraced_epochs_agree() {
    for name in WORKLOADS {
        let mut w = workload(name, Size::Tiny, 7).expect("known workload");
        let plain = w.epoch(false);
        let traced = w.epoch(true);
        for e in [&plain, &traced] {
            assert!(e.problems.is_empty(), "{name}: {:?}", e.problems);
            assert!(e.ops.iter().all(|o| !o.failed), "{name}: an op failed");
        }
        assert_eq!(plain.digest, traced.digest, "{name}: tracing moved cycles");
        assert_eq!(plain.sim_cycles, traced.sim_cycles, "{name}");
        assert!(
            plain.recorder.is_none(),
            "{name}: untraced epochs record no spans"
        );

        let l = &traced.layers;
        let mechanisms = ["trampoline", "wrpkru", "trap", "retag", "acl", "other"];
        let by_mechanism = sum(l, mechanisms.iter().map(|m| format!("core.sim_{m}_cycles")));
        assert_eq!(by_mechanism, traced.sim_cycles, "{name}: mechanism split");
        let crates = ["sqldb", "vfs", "ramfs", "ukbase", "net", "httpd", "core"];
        let by_crate = sum(l, crates.iter().map(|c| format!("{c}.sim_self_cycles")));
        let client = l["bench.sim_client_cycles"] as u64;
        assert_eq!(by_crate + client, traced.sim_cycles, "{name}: crate split");

        // The storage boundary is timed during the measured phase only:
        // every storage span lies inside an op's span, and its cycles are
        // part of the phase's.
        let rec = traced.recorder.as_ref().expect("traced").borrow();
        let storage: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.layer == "storage")
            .collect();
        assert_eq!(storage.len() as u64, rec.storage.calls, "{name}");
        assert!(storage.iter().all(|s| s.parent.is_some()), "{name}");
        assert!(rec.storage.sim_cycles <= traced.sim_cycles, "{name}");
        if name.starts_with("sql_") {
            assert!(rec.storage.calls > 0, "{name}: storage is timed");
        }
    }
}

#[test]
fn a_seed_replays_bit_identically() {
    for name in WORKLOADS {
        let digest = |seed| {
            let mut w = workload(name, Size::Tiny, seed).expect("known workload");
            w.epoch(false).digest
        };
        assert_eq!(digest(11), digest(11), "{name}");
    }
}

#[test]
fn runs_report_every_listed_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for name in WORKLOADS {
        for (trace, listed) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let mut w = workload(name, Size::Tiny, 3).expect("known workload");
            let r = run(name, w.as_mut(), 1.0, trace, out);
            assert!(r.correct, "{name}: {:?}", r.notes);
            assert_eq!(r.failed, 0);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = listed.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, want, "{name}");
            let line = r.json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            if trace {
                assert!(out.join(format!("{name}.trace.json")).exists());
            }
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let declared = json.matches("\"name\": ").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    let names = WORKLOADS.into_iter();
    let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _, _)| *n);
    for name in names.chain(metrics) {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
}
