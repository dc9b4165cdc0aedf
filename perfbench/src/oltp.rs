//! `sql_oltp_wal`: a closed-loop, single-client transfer transaction
//! (`BEGIN`, point `SELECT` by primary key, two point `UPDATE`s,
//! `COMMIT`) in WAL mode with group commit 8, over a table that fits the
//! 256-page cache. sqldb has no autocheckpoint, so the committing client
//! checkpoints once the log reaches [`CHECKPOINT_FRAMES`] frames, as
//! SQLite's default autocheckpoint would.

use crate::recorder::{set_op, span, Rec, Recorder};
use crate::sim::{Layers, Phase, Root};
use crate::stats::{Digest, Op};
use crate::{open_db, pager_layers, Epoch, Size, Workload};
use cubicle_bench::scenario::{
    build_sqlite, Partitioning, SqliteDeployment, UNIKRAFT_BOUNDARY_TAX,
};
use cubicle_core::{IsolationMode, System};
use cubicle_mpk::rng::Rng64;
use cubicle_sqldb::wal::{FRAME_SIZE, WAL_HEADER};
use cubicle_sqldb::{Database, JournalMode, SqlValue};
use std::time::Instant;

/// WAL length, in frames, that triggers a checkpoint.
pub const CHECKPOINT_FRAMES: u64 = 1000;

/// Transactions per durable sync.
const GROUP_COMMIT: u32 = 8;

/// The OLTP workload.
pub struct Oltp {
    accounts: usize,
    warmup: usize,
    txns: usize,
    seed: u64,
}

impl Oltp {
    /// 3,000 accounts (79 pages, a third of the cache) and 4,000
    /// measured transactions, or a few hundred of each for `Tiny`.
    pub fn new(size: Size, seed: u64) -> Oltp {
        let (accounts, warmup, txns) = match size {
            Size::Full => (3000, 200, 4000),
            Size::Tiny => (200, 20, 300),
        };
        Oltp {
            accounts,
            warmup,
            txns,
            seed,
        }
    }
}

/// One transfer of `amount` from account `from` to account `to`.
#[derive(Clone, Copy)]
struct Transfer {
    from: usize,
    to: usize,
    amount: i64,
}

impl Transfer {
    fn draw(rng: &mut Rng64, accounts: usize) -> Transfer {
        let from = rng.range_usize(0, accounts);
        let to = (from + rng.range_usize(1, accounts)) % accounts;
        Transfer {
            from,
            to,
            amount: rng.range_i64(1, 100),
        }
    }
}

/// Runs one transfer; `Ok(true)` when every statement returned what the
/// client's own ledger `balances` predicts. A committed transfer is
/// applied to the ledger.
fn transfer(
    sys: &mut System,
    db: &mut Database,
    rec: &Rec,
    balances: &mut [i64],
    tx: Transfer,
) -> cubicle_sqldb::Result<bool> {
    let Transfer { from, to, amount } = tx;
    span(rec, "sqldb", "begin", || db.execute(sys, "BEGIN"))?;
    let body = (|| {
        let sql = format!("SELECT balance FROM accounts WHERE id = {from}");
        let rows = span(rec, "sqldb", "select", || db.query(sys, &sql))?;
        let seen = rows == [[SqlValue::Integer(balances[from])]];
        let mut updated = 0;
        for (id, delta) in [(from, -amount), (to, amount)] {
            let sql = format!("UPDATE accounts SET balance = balance + {delta} WHERE id = {id}");
            updated += span(rec, "sqldb", "update", || db.execute(sys, &sql))?.rows_affected;
        }
        span(rec, "sqldb", "commit", || db.execute(sys, "COMMIT"))?;
        Ok((seen, updated))
    })();
    let (seen, updated) = match body {
        Ok(r) => r,
        Err(e) => {
            let _ = db.execute(sys, "ROLLBACK");
            return Err(e);
        }
    };
    if updated == 2 {
        balances[from] -= amount;
        balances[to] += amount;
    }
    let frames = (db.pager_mut().wal_end() - WAL_HEADER) / FRAME_SIZE;
    if frames >= CHECKPOINT_FRAMES {
        span(rec, "sqldb", "checkpoint", || db.checkpoint(sys))?;
    }
    Ok(seen && updated == 2)
}

impl Oltp {
    /// Boots the deployment, loads the accounts table, checkpoints it and
    /// runs the warm-up transfers. Returns the client's ledger too.
    fn boot(&self, rec: &Rec) -> (SqliteDeployment, Database, Vec<i64>) {
        let mut rng = Rng64::new(self.seed ^ 0x0117_9A1C);
        let mut dep = build_sqlite(
            IsolationMode::Full,
            Partitioning::Split,
            UNIKRAFT_BOUNDARY_TAX,
        )
        .expect("boot the SQLite deployment");
        let mut db =
            open_db(&mut dep, "/oltp.db", JournalMode::Wal, rec).expect("open the OLTP database");
        db.set_group_commit(GROUP_COMMIT);
        let mut balances: Vec<i64> = (0..self.accounts)
            .map(|_| rng.range_i64(1_000, 10_000))
            .collect();
        let app = dep.app;
        dep.sys
            .run_in_cubicle(app, |sys| -> cubicle_sqldb::Result<()> {
                db.execute(
                    sys,
                    "CREATE TABLE accounts(id INTEGER PRIMARY KEY, balance INTEGER, owner TEXT)",
                )?;
                db.execute(sys, "BEGIN")?;
                for (id, b) in balances.iter().enumerate() {
                    let owner: String = (0..16)
                        .map(|_| char::from(b'a' + rng.range_u64(0, 26) as u8))
                        .collect();
                    db.execute(
                        sys,
                        &format!("INSERT INTO accounts VALUES ({id}, {b}, '{owner}')"),
                    )?;
                }
                db.execute(sys, "COMMIT")?;
                db.checkpoint(sys)?;
                for _ in 0..self.warmup {
                    let tx = Transfer::draw(&mut rng, self.accounts);
                    assert!(
                        transfer(sys, &mut db, &None, &mut balances, tx)?,
                        "warm-up transfer"
                    );
                }
                Ok(())
            })
            .expect("load and warm up the accounts table");
        (dep, db, balances)
    }
}

impl Workload for Oltp {
    fn set_up(&mut self) {
        self.boot(&None);
    }

    fn epoch(&mut self, traced: bool) -> Epoch {
        let rec: Rec = traced.then(Recorder::shared);
        let (mut dep, mut db, mut balances) = self.boot(&rec);
        let app = dep.app;
        let total: i64 = balances.iter().sum();

        let mut layers = Layers::new();
        let mut problems = Vec::new();
        let mut digest = Digest::default();
        let mut rng = Rng64::new(self.seed ^ 0x7A4_5FE2);
        let txs: Vec<Transfer> = (0..self.txns)
            .map(|_| Transfer::draw(&mut rng, self.accounts))
            .collect();
        let pager0 = db.pager_stats();
        let phase = Phase::begin(&mut dep.sys, &rec, Root::Component(app));
        let t = Instant::now();
        let ops: Vec<Op> = dep.sys.run_in_cubicle(app, |sys| {
            txs.iter()
                .enumerate()
                .map(|(i, &tx)| {
                    set_op(&rec, i as u32);
                    let c0 = sys.now();
                    let ok = span(&rec, "bench", "txn", || {
                        transfer(sys, &mut db, &rec, &mut balances, tx)
                    });
                    let op = Op {
                        cycles: sys.now() - c0,
                        failed: !matches!(ok, Ok(true)),
                    };
                    if let Err(e) = ok {
                        eprintln!("sql_oltp_wal: transaction {i} failed: {e}");
                    }
                    digest.fold_op(op);
                    op
                })
                .collect()
        });
        let measured_s = t.elapsed().as_secs_f64();
        let sim_cycles = phase.end(&mut dep.sys, &mut layers, &mut problems);
        pager_layers(pager0, db.pager_stats(), &mut layers);

        let check = dep
            .sys
            .run_in_cubicle(app, |sys| -> cubicle_sqldb::Result<_> {
                db.flush(sys)?;
                let rows = db.query(sys, "SELECT id, balance FROM accounts ORDER BY id")?;
                let integrity = db.query(sys, "PRAGMA integrity_check")?;
                Ok((rows, integrity))
            });
        match check {
            Ok((rows, integrity)) => {
                let stored: Vec<i64> = rows
                    .iter()
                    .filter_map(|r| r.get(1).and_then(SqlValue::as_i64))
                    .collect();
                if stored.iter().sum::<i64>() != total {
                    problems.push(format!("balance not conserved: {total} before"));
                }
                if stored != balances {
                    problems.push("stored balances differ from the client's ledger".into());
                }
                if integrity != [[SqlValue::Text("ok".into())]] {
                    problems.push(format!("integrity_check: {integrity:?}"));
                }
            }
            Err(e) => problems.push(format!("final check: {e}")),
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
