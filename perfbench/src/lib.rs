//! End-to-end and per-layer benchmark of the CubicleOS reproduction.
//!
//! Three seeded workloads run under `IsolationMode::Full`, single process,
//! single thread, reaching the program only through its crates' public
//! functions:
//!
//! * [`speedtest`]: speedtest1's 31 tests on the Fig-6 SQLite deployment;
//! * [`oltp`]: a closed-loop transfer transaction in WAL mode;
//! * [`web`]: a closed-loop siege of the 8-partition NGINX deployment.
//!
//! A run repeats *epochs* until its time is up. An epoch boots a fresh
//! deployment (set-up), runs a fixed, seed-determined op sequence (the
//! measured phase), then checks every output and audits the kernel.
//! Between epochs, set-ups are also timed on their own. Epochs of one seed are identical on the simulated clock, which
//! the run checks through a digest of their per-op cycles; every
//! simulated metric is therefore independent of how many epochs the host
//! managed to run.

pub mod oltp;
pub mod recorder;
pub mod run;
pub mod sim;
pub mod speedtest;
pub mod stats;
pub mod web;

use cubicle_bench::scenario::SqliteDeployment;
use cubicle_core::CubicleError;
use cubicle_sqldb::pager::DEFAULT_CACHE_PAGES;
use cubicle_sqldb::storage::{CubicleEnv, StorageEnv};
use cubicle_sqldb::{Database, JournalMode};
use cubicle_vfs::VfsPort;
use recorder::{Rec, Recorder, TimingEnv};
use sim::Layers;
use stats::Op;
use std::cell::RefCell;
use std::rc::Rc;

/// Workload sizes: `Full` is what the benchmark measures, `Tiny` keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A seconds-scale smoke configuration.
    Tiny,
}

/// What one epoch produced.
#[derive(Debug)]
pub struct Epoch {
    /// Host seconds of the measured phase.
    pub measured_s: f64,
    /// The measured ops, in issue order.
    pub ops: Vec<Op>,
    /// Simulated cycles of the measured phase.
    pub sim_cycles: u64,
    /// Fold of every op's simulated outcome (see [`stats::Digest`]).
    pub digest: u64,
    /// Failed output checks that fail the whole run (audit, integrity,
    /// conservation, split sums).
    pub problems: Vec<String>,
    /// Per-layer metrics (traced epochs only).
    pub layers: Layers,
    /// The benchmark-side spans (traced epochs only).
    pub recorder: Option<Rc<RefCell<Recorder>>>,
    /// Lines the run prints for its first traced epoch.
    pub notes: Vec<String>,
}

/// A benchmark workload: a generator of identical epochs.
pub trait Workload {
    /// Runs one epoch; `traced` turns on both the benchmark-side spans and
    /// the program's own tracer.
    fn epoch(&mut self, traced: bool) -> Epoch;

    /// Performs an epoch's set-up alone (boot the deployment, load its
    /// data, warm up) and discards it; runs time these for `setup_s`.
    fn set_up(&mut self);
}

/// The workloads by name (why each was chosen: `NOTES.md`).
pub const WORKLOADS: [&str; 3] = ["sql_speedtest", "sql_oltp_wal", "web_siege"];

/// Builds the workload called `name`.
pub fn workload(name: &str, size: Size, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sql_speedtest" => Box::new(speedtest::Speedtest::new(size, seed)),
        "sql_oltp_wal" => Box::new(oltp::Oltp::new(size, seed)),
        "web_siege" => Box::new(web::Siege::new(size, seed)),
        _ => return None,
    })
}

/// Opens a database on the deployment's file system from the application
/// cubicle, with the default 256-page cache. In traced epochs the storage
/// environment is wrapped in a [`TimingEnv`].
///
/// # Errors
///
/// Kernel or storage errors.
pub fn open_db(
    dep: &mut SqliteDeployment,
    path: &str,
    mode: JournalMode,
    rec: &Rec,
) -> cubicle_core::Result<Database> {
    let (app, vfs, ramfs) = (dep.app, dep.vfs, dep.ramfs_cid);
    let rec = rec.clone();
    dep.sys.run_in_cubicle(app, move |sys| {
        let port = VfsPort::new(sys, vfs, &[ramfs])?;
        let mut env: Box<dyn StorageEnv> = Box::new(CubicleEnv::new(port));
        if let Some(r) = rec {
            env = Box::new(TimingEnv::new(env, r));
        }
        Database::open_with_mode(sys, env, path, DEFAULT_CACHE_PAGES, mode)
            .map_err(|e| CubicleError::Component(e.to_string()))
    })
}

/// Adds the sqldb pager counters of the measured phase to `layers`.
pub fn pager_layers(
    before: cubicle_sqldb::pager::PagerStats,
    after: cubicle_sqldb::pager::PagerStats,
    layers: &mut Layers,
) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let (hits, misses) = (d(after.hits, before.hits), d(after.misses, before.misses));
    let commits = d(after.commits, before.commits);
    let syncs = d(after.syncs, before.syncs);
    let lookups = hits + misses;
    layers.insert(
        "sqldb.pager_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    layers.insert("sqldb.pager_misses", misses);
    layers.insert("sqldb.evictions", d(after.evictions, before.evictions));
    layers.insert("sqldb.commits", commits);
    layers.insert(
        "sqldb.syncs_per_commit",
        if commits > 0.0 { syncs / commits } else { 0.0 },
    );
    layers.insert("sqldb.wal_frames", d(after.wal_frames, before.wal_frames));
    layers.insert(
        "sqldb.checkpoints",
        d(after.checkpoints, before.checkpoints),
    );
}
