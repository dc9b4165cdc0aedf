//! The measured phase on the simulated clock: total cycles, and in traced
//! epochs the machine and monitor counters plus two exact splits of the
//! phase's cycles, by mechanism and by crate.

use crate::recorder::Rec;
use cubicle_core::{CubicleId, SpanFrame, SysStats, System};
use cubicle_mpk::MachineStats;
use std::collections::BTreeMap;

/// Per-layer metrics of one epoch, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Ring capacity of the program's tracer in traced epochs. The per-cubicle
/// attribution is aggregated as events stream in, so it is exact however
/// small the ring is.
const TRACE_CAPACITY: usize = 4096;

/// The crates that own cubicles, as their per-crate metric names
/// (self cycles, calls in).
const CRATES: [(&str, &str); 7] = [
    ("sqldb.sim_self_cycles", "sqldb.calls_in"),
    ("vfs.sim_self_cycles", "vfs.calls_in"),
    ("ramfs.sim_self_cycles", "ramfs.calls_in"),
    ("ukbase.sim_self_cycles", "ukbase.calls_in"),
    ("net.sim_self_cycles", "net.calls_in"),
    ("httpd.sim_self_cycles", "httpd.calls_in"),
    ("core.sim_self_cycles", "core.calls_in"),
];

/// Index into [`CRATES`] of the crate whose code runs in the cubicle
/// called `name`.
fn crate_of(name: &str) -> Option<usize> {
    Some(match name {
        "SQLITE" => 0,
        "VFSCORE" => 1,
        "RAMFS" => 2,
        "ALLOC" | "PLAT" | "TIME" | "TIMER" | "LIBC" => 3,
        "NETDEV" | "LWIP" => 4,
        "NGINX" => 5,
        "MONITOR" => 6,
        _ => return None,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Who issues a workload's depth-zero calls, outside every cross-call.
#[derive(Clone, Copy, Debug)]
pub enum Root {
    /// A component's cubicle: the cycles it spends at depth zero are that
    /// component's own work.
    Component(CubicleId),
    /// The benchmark's simulated client, which runs in the monitor's
    /// context: its depth-zero cycles (load generation, wire model) are
    /// reported apart as `bench.sim_client_cycles`, not as the monitor's.
    Client,
}

/// A measured phase in progress.
pub struct Phase {
    start: u64,
    stats: SysStats,
    machine: MachineStats,
    rec: Rec,
    root: Root,
}

impl Phase {
    /// Starts the phase. In traced epochs (`rec` is `Some`) the program's
    /// tracer is turned on and the recorder starts timing the storage
    /// boundary, so both windows open with the phase.
    pub fn begin(sys: &mut System, rec: &Rec, root: Root) -> Phase {
        if let Some(r) = rec {
            sys.enable_tracing(TRACE_CAPACITY);
            r.borrow_mut().start();
        }
        Phase {
            start: sys.now(),
            stats: sys.stats().clone(),
            machine: sys.machine_stats(),
            rec: rec.clone(),
            root,
        }
    }

    /// Ends the phase and returns its simulated cycles. In traced epochs
    /// it stops the recorder, records the counters and both splits into
    /// `layers`, and reports in `problems` any split that does not sum to
    /// the total.
    pub fn end(self, sys: &mut System, layers: &mut Layers, problems: &mut Vec<String>) -> u64 {
        let total = sys.now() - self.start;
        if let Some(r) = &self.rec {
            r.borrow_mut().stop();
            self.counters(sys, layers);
            self.mechanism_split(sys, total, layers, problems);
            self.crate_split(sys, total, layers, problems);
            sys.disable_tracing();
        }
        total
    }

    fn counters(&self, sys: &System, layers: &mut Layers) {
        let m = sys.machine_stats();
        let m0 = self.machine;
        let st = sys.stats().since(&self.stats);
        let (hits, misses) = (m.tlb_hits - m0.tlb_hits, m.tlb_misses - m0.tlb_misses);
        let accesses = (m.reads + m.writes) - (m0.reads + m0.writes);
        let bytes = (m.bytes_read + m.bytes_written) - (m0.bytes_read + m0.bytes_written);
        layers.insert("mpk.accesses", accesses as f64);
        layers.insert("mpk.bytes_moved", bytes as f64);
        layers.insert("mpk.tlb_hit_ratio", ratio(hits, hits + misses));
        layers.insert("mpk.wrpkru", (m.wrpkru - m0.wrpkru) as f64);
        layers.insert("mpk.retags", (m.retags - m0.retags) as f64);
        layers.insert("mpk.faults", (m.faults - m0.faults) as f64);
        layers.insert("core.cross_calls", st.cross_calls as f64);
        layers.insert("core.faults_resolved", st.faults_resolved as f64);
        layers.insert(
            "core.acl_probes_per_fault",
            ratio(st.acl_probes, st.faults_resolved),
        );
        layers.insert("core.window_ops", st.window_ops as f64);
    }

    /// Event counts times the `CostModel` constant each event is charged
    /// under `IsolationMode::Full`; `other` (compute, copies, boundary
    /// tax, ...) is the remainder, so the split sums to the total exactly.
    fn mechanism_split(
        &self,
        sys: &System,
        total: u64,
        layers: &mut Layers,
        problems: &mut Vec<String>,
    ) {
        let cost = *sys.machine().cost_model();
        let st = sys.stats().since(&self.stats);
        let m = sys.machine_stats();
        // Calls between components merged into one cubicle are direct
        // calls: no trampoline.
        let remote: u64 = st
            .call_edges
            .iter()
            .filter(|((from, to), _)| from != to)
            .map(|(_, n)| n)
            .sum();
        // A cross-call pays a trampoline on entry and on return; a window
        // operation enters the monitor with a trampoline and two `wrpkru`s.
        let parts = [
            (
                "core.sim_trampoline_cycles",
                (2 * remote + st.window_ops) * cost.trampoline,
            ),
            (
                "core.sim_wrpkru_cycles",
                (m.wrpkru - self.machine.wrpkru + 2 * st.window_ops) * cost.wrpkru,
            ),
            (
                "core.sim_trap_cycles",
                st.faults_resolved * (cost.trap + cost.page_meta_lookup),
            ),
            (
                "core.sim_retag_cycles",
                (m.retags - self.machine.retags) * cost.pkey_mprotect,
            ),
            ("core.sim_acl_cycles", st.acl_probes * cost.acl_probe),
        ];
        let named: u64 = parts.iter().map(|(_, c)| c).sum();
        if named > total {
            problems.push(format!(
                "mechanism split: {named} named cycles exceed the phase total {total}"
            ));
        }
        for (name, cycles) in parts {
            layers.insert(name, cycles as f64);
        }
        layers.insert("core.sim_other_cycles", total.saturating_sub(named) as f64);
    }

    /// The program's span profiler attributes every cycle of its window to
    /// the cubicle on top of the call stack, and depth-zero cycles to the
    /// depth-zero caller. Cycles after the last span boundary belong, by
    /// the same rule, to that caller too. A component root keeps them; a
    /// client root's depth-zero cycles, charged by the profiler to
    /// `MONITOR`, move to `bench.sim_client_cycles`.
    fn crate_split(
        &self,
        sys: &mut System,
        total: u64,
        layers: &mut Layers,
        problems: &mut Vec<String>,
    ) {
        let mut self_cycles = [0u64; CRATES.len()];
        let mut calls = [0u64; CRATES.len()];
        let window = sys.span_attribution_window().unwrap_or(0);
        let rows = sys.span_cubicle_attribution();
        let attributed: u64 = rows.iter().map(|(_, a)| a.self_cycles).sum();
        if attributed != window || window > total {
            problems.push(format!(
                "cubicle split: {attributed} attributed cycles, window {window}, phase total {total}"
            ));
        }
        let tail = total.saturating_sub(window);
        let mut rows: Vec<_> = rows
            .iter()
            .map(|(c, a)| (*c, a.self_cycles, a.calls))
            .collect();
        let client = match self.root {
            Root::Component(cid) => {
                rows.push((cid, tail, 0));
                0
            }
            Root::Client => {
                let root_only = [SpanFrame::Root(CubicleId::MONITOR)];
                let depth_zero: u64 = sys.span_profiler().map_or(0, |p| {
                    p.folded()
                        .iter()
                        .filter(|(path, _)| *path == root_only)
                        .map(|(_, n)| n)
                        .sum()
                });
                let monitor = rows.iter_mut().find(|(c, _, _)| *c == CubicleId::MONITOR);
                match monitor {
                    Some(row) if row.1 >= depth_zero => row.1 -= depth_zero,
                    _ if depth_zero == 0 => {}
                    _ => problems.push(format!(
                        "cubicle split: {depth_zero} depth-zero cycles exceed the monitor's"
                    )),
                }
                depth_zero + tail
            }
        };
        for (cid, cycles, n) in rows {
            match crate_of(sys.cubicle_name(cid)) {
                Some(i) => {
                    self_cycles[i] += cycles;
                    calls[i] += n;
                }
                None => problems.push(format!(
                    "cubicle {} maps to no crate",
                    sys.cubicle_name(cid)
                )),
            }
        }
        let sum: u64 = self_cycles.iter().sum::<u64>() + client;
        if sum != total {
            problems.push(format!(
                "cubicle split: crates and client sum to {sum}, phase total {total}"
            ));
        }
        for (i, (self_key, calls_key)) in CRATES.iter().enumerate() {
            layers.insert(self_key, self_cycles[i] as f64);
            layers.insert(calls_key, calls[i] as f64);
        }
        layers.insert("bench.sim_client_cycles", client as f64);
    }
}
