//! `sql_speedtest`: speedtest1's 31 tests (ids 100–990), one pass per
//! epoch on a fresh Fig-6 deployment (`Split` partitioning, Unikraft
//! boundary tax, rollback journal, default 256-page cache). At scale 100
//! the tables exceed the page cache, so the pass misses to storage tens
//! of thousands of times.

use crate::recorder::{set_op, span, Rec, Recorder};
use crate::sim::{Layers, Phase, Root};
use crate::stats::{Digest, Op};
use crate::{open_db, pager_layers, Epoch, Size, Workload};
use cubicle_bench::scenario::{
    build_sqlite, Partitioning, SqliteDeployment, UNIKRAFT_BOUNDARY_TAX,
};
use cubicle_core::IsolationMode;
use cubicle_sqldb::speedtest::{SpeedtestConfig, QUERY_IDS};
use cubicle_sqldb::{Database, JournalMode, SqlValue};
use std::time::Instant;

/// The speedtest1 workload.
pub struct Speedtest {
    cfg: SpeedtestConfig,
    /// Per-test row counts of the first pass; every later pass must match.
    rows: Option<Vec<u64>>,
}

impl Speedtest {
    /// Scale 100 (the paper's `--stat 100`) or 1 for `Tiny`.
    pub fn new(size: Size, seed: u64) -> Speedtest {
        let scale = match size {
            Size::Full => 100,
            Size::Tiny => 1,
        };
        Speedtest {
            cfg: SpeedtestConfig { scale, seed },
            rows: None,
        }
    }
}

/// Boots the deployment and opens the (empty) speedtest database.
fn boot(rec: &Rec) -> (SqliteDeployment, Database) {
    let mut dep = build_sqlite(
        IsolationMode::Full,
        Partitioning::Split,
        UNIKRAFT_BOUNDARY_TAX,
    )
    .expect("boot the SQLite deployment");
    let db = open_db(&mut dep, "/speedtest.db", JournalMode::Rollback, rec)
        .expect("open the speedtest database");
    (dep, db)
}

impl Workload for Speedtest {
    fn set_up(&mut self) {
        boot(&None);
    }

    fn epoch(&mut self, traced: bool) -> Epoch {
        let rec: Rec = traced.then(Recorder::shared);
        let (mut dep, mut db) = boot(&rec);

        let mut layers = Layers::new();
        let mut problems = Vec::new();
        let pager0 = db.pager_stats();
        let phase = Phase::begin(&mut dep.sys, &rec, Root::Component(dep.app));
        let t = Instant::now();
        set_op(&rec, 0);
        let result = span(&rec, "bench", "pass", || {
            span(&rec, "sqldb", "run_speedtest", || {
                dep.run_speedtest(&mut db, &self.cfg)
            })
        });
        let measured_s = t.elapsed().as_secs_f64();
        let sim_cycles = phase.end(&mut dep.sys, &mut layers, &mut problems);
        pager_layers(pager0, db.pager_stats(), &mut layers);

        let mut digest = Digest::default();
        let ops: Vec<Op> = match result {
            Ok(results) => {
                let rows: Vec<u64> = results.iter().map(|r| r.rows).collect();
                let expected = self.rows.get_or_insert_with(|| rows.clone());
                results
                    .iter()
                    .zip(expected.iter())
                    .map(|(r, &want)| {
                        digest.fold(r.rows);
                        Op {
                            cycles: r.cycles,
                            failed: r.rows != want,
                        }
                    })
                    .collect()
            }
            Err(e) => {
                eprintln!("sql_speedtest: pass failed: {e}");
                let failed = Op {
                    cycles: sim_cycles,
                    failed: true,
                };
                vec![failed; QUERY_IDS.len()]
            }
        };
        ops.iter().for_each(|&o| digest.fold_op(o));

        let app = dep.app;
        let integrity = dep
            .sys
            .run_in_cubicle(app, |sys| db.query(sys, "PRAGMA integrity_check"));
        if !matches!(integrity.as_deref(), Ok([row]) if row == &[SqlValue::Text("ok".into())]) {
            problems.push(format!("integrity_check: {integrity:?}"));
        }
        let audit = dep.sys.audit();
        if !audit.is_clean() {
            problems.push(format!("audit: {audit}"));
        }
        Epoch {
            measured_s,
            ops,
            sim_cycles,
            digest: digest.value(),
            problems,
            layers,
            recorder: rec,
            notes: Vec::new(),
        }
    }
}
