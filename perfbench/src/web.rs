//! `web_siege`: a closed-loop siege of the 8-partition NGINX deployment
//! (`boot_web(Full)`, the Fig-5 graph), one connection per request, over
//! the file sizes of the repository's Fig-5 siege
//! (`crates/bench/benches/fig05_nginx_calls.rs`): 1, 8, 64 and 256 KiB.
//! Small files load the per-request dispatch path, large ones streaming;
//! the request mix [`REQUESTS`] gives each path a visible share of the
//! epoch (measured shares: `NOTES.md`). The seed draws the file contents
//! and the request order; the mix is the same for every seed.
//!
//! NGINX opens the file it serves and never closes it, so a deployment
//! answers 404 once VFS's [`MAX_FDS`]-entry table is full. An epoch stays
//! inside that table; traced epochs then issue [`LEAK_PROBE`] more
//! requests and report the 404s they get as `httpd.leak_probe_not_found`.

use crate::recorder::{set_op, span, Rec, Recorder};
use crate::sim::{Layers, Phase, Root};
use crate::stats::{Digest, Op};
use crate::{Epoch, Size, Workload};
use cubicle_core::IsolationMode;
use cubicle_httpd::{boot_web, Httpd, WebDeployment};
use cubicle_mpk::rng::Rng64;
use cubicle_net::WireModel;
use cubicle_vfs::MAX_FDS;
use std::time::Instant;

/// The simulated client's network: no per-request client cost and no
/// wire time. `WireModel::default()` charges 11 M cycles of load-generator
/// work per request plus wire time: with an equal mix of the sizes below,
/// 89 % of the phase's simulated cycles, and constant under any change to
/// the library OS. The simulated metrics measure the server stack instead.
const WIRE: WireModel = WireModel {
    hop_cycles: 0,
    per_byte_cycles: 0,
    request_overhead_cycles: 0,
};

/// File sizes of the docroot, one file each: the Fig-5 siege's sizes.
const SIZES: [usize; 4] = [1 << 10, 8 << 10, 64 << 10, 256 << 10];

/// Requests per size class in a full epoch, after one warm-up request
/// each. On the simulated clock a request costs ≈175 k cycles plus
/// ≈19.6 k per KiB; this mix puts ≈40 % of the phase's simulated cycles
/// and ≈50 % of its host time in the per-request part, the rest in
/// streaming. The median request is a 1 KiB one, the p90 a 64 KiB one.
const REQUESTS: [usize; 4] = [152, 64, 28, 4];

// Every request leaks one descriptor: the warm-up and the measured
// requests must fit the table.
const _: () =
    assert!(SIZES.len() + REQUESTS[0] + REQUESTS[1] + REQUESTS[2] + REQUESTS[3] <= MAX_FDS);

/// Extra requests a traced epoch issues past the descriptor table.
pub const LEAK_PROBE: usize = 16;

/// The siege workload.
pub struct Siege {
    /// Path and contents of each docroot file.
    files: Vec<(String, Vec<u8>)>,
    /// Indices into `files`, in request order.
    order: Vec<usize>,
}

impl Siege {
    /// The docroot and the request order drawn from `seed`. `Tiny` issues
    /// two requests per class.
    pub fn new(size: Size, seed: u64) -> Siege {
        let requests = match size {
            Size::Full => REQUESTS,
            Size::Tiny => [2; SIZES.len()],
        };
        let mut rng = Rng64::new(seed ^ 0x5E1E_6E00);
        let files = SIZES
            .iter()
            .map(|&len| (format!("/f{len}.bin"), rng.bytes(len)))
            .collect();
        let mut order: Vec<usize> = (0..SIZES.len())
            .flat_map(|i| std::iter::repeat_n(i, requests[i]))
            .collect();
        rng.shuffle(&mut order);
        Siege { files, order }
    }

    /// GETs file `i`; `Ok` when the response is a 200 with the exact body.
    fn get(&self, dep: &mut WebDeployment, i: usize) -> Result<(), String> {
        let (path, body) = &self.files[i];
        match dep.fetch(path, WIRE) {
            Ok((_, r)) if r.status == 200 && r.body == *body => Ok(()),
            Ok((_, r)) => Err(format!(
                "GET {path}: status {}, {} of {} bytes",
                r.status,
                r.body.len(),
                body.len()
            )),
            Err(e) => Err(format!("GET {path}: {e}")),
        }
    }

    /// Boots the deployment, populates the docroot and fetches every file
    /// once.
    fn boot(&self) -> WebDeployment {
        let mut dep = boot_web(IsolationMode::Full).expect("boot the web deployment");
        for (path, body) in &self.files {
            dep.put_file(path, body).expect("populate the docroot");
        }
        for i in 0..SIZES.len() {
            self.get(&mut dep, i).expect("warm-up request");
        }
        dep
    }
}

/// `(requests_served, not_found)` of the NGINX component.
fn httpd_counts(dep: &mut WebDeployment) -> (u64, u64) {
    dep.sys
        .with_component_mut::<Httpd, _>(dep.httpd_slot, |h, _| (h.requests_served, h.not_found))
        .expect("the NGINX slot holds the server")
}

impl Workload for Siege {
    fn set_up(&mut self) {
        self.boot();
    }

    fn epoch(&mut self, traced: bool) -> Epoch {
        let rec: Rec = traced.then(Recorder::shared);
        let mut dep = self.boot();

        let mut layers = Layers::new();
        let mut problems = Vec::new();
        let mut digest = Digest::default();
        let (served0, not_found0) = httpd_counts(&mut dep);
        let phase = Phase::begin(&mut dep.sys, &rec, Root::Client);
        // Per size class: requests, host seconds (traced), simulated cycles.
        let mut classes = [(0usize, 0f64, 0u64); SIZES.len()];
        let t = Instant::now();
        let mut ops = Vec::with_capacity(self.order.len());
        for (n, &i) in self.order.iter().enumerate() {
            set_op(&rec, n as u32);
            let c0 = dep.sys.now();
            let h0 = traced.then(Instant::now);
            let got = span(&rec, "bench", "request", || {
                span(&rec, "httpd", "fetch", || self.get(&mut dep, i))
            });
            let op = Op {
                cycles: dep.sys.now() - c0,
                failed: got.is_err(),
            };
            let class = &mut classes[i];
            class.0 += 1;
            class.1 += h0.map_or(0.0, |h| h.elapsed().as_secs_f64());
            class.2 += op.cycles;
            if let Err(e) = got {
                eprintln!("web_siege: request {n}: {e}");
            }
            digest.fold_op(op);
            ops.push(op);
        }
        let measured_s = t.elapsed().as_secs_f64();
        let sim_cycles = phase.end(&mut dep.sys, &mut layers, &mut problems);
        let (served, not_found) = httpd_counts(&mut dep);
        if traced {
            layers.insert("httpd.requests_served", (served - served0) as f64);
            layers.insert("httpd.not_found", (not_found - not_found0) as f64);
            let probe_404s = (0..LEAK_PROBE)
                .filter(|&n| self.get(&mut dep, n % SIZES.len()).is_err())
                .count();
            layers.insert("httpd.leak_probe_not_found", probe_404s as f64);
        }
        let audit = dep.sys.audit();
        if !audit.is_clean() {
            problems.push(format!("audit: {audit}"));
        }
        let notes = if traced {
            class_table(&classes)
        } else {
            Vec::new()
        };
        Epoch {
            measured_s,
            ops,
            sim_cycles,
            digest: digest.value(),
            problems,
            layers,
            recorder: rec,
            notes,
        }
    }
}

/// Each size class's share of the measured phase's requests, host time
/// and simulated cycles.
fn class_table(classes: &[(usize, f64, u64)]) -> Vec<String> {
    let host: f64 = classes.iter().map(|c| c.1).sum();
    let cycles: u64 = classes.iter().map(|c| c.2).sum();
    let mut lines = vec![format!(
        "  {:>8} {:>9} {:>14} {:>8} {:>16} {:>8}",
        "file", "requests", "host us/req", "host %", "sim cycles/req", "sim %"
    )];
    for (&size, &(n, h, c)) in SIZES.iter().zip(classes) {
        let n_f = n.max(1) as f64;
        lines.push(format!(
            "  {:>6}Ki {:>9} {:>14.1} {:>7.1}% {:>16.0} {:>7.1}%",
            size >> 10,
            n,
            h / n_f * 1e6,
            100.0 * h / host.max(f64::MIN_POSITIVE),
            c as f64 / n_f,
            100.0 * c as f64 / cycles.max(1) as f64
        ));
    }
    lines
}
