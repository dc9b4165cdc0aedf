//! Hostile page bytes must surface as errors, never as panics or hangs.
//!
//! A seeded fuzz campaign: a valid tree (short and maximal keys, inline
//! values and overflow chains) is committed, then each case overwrites
//! one of its pages inside a transaction with a hostile image — random
//! bytes, random bytes under a valid node kind, a valid image truncated
//! at a random offset, or a valid image with one header or cell field
//! overwritten — runs every btree entry point over it and rolls back.
//! Any result is acceptable except a panic; cycles planted by the
//! corruption must end in [`SqlError::Corrupt`] rather than loop.

use cubicle_core::{IsolationMode, System};
use cubicle_mpk::rng::Rng64;
use cubicle_sqldb::btree::{self, MAX_KEY, MAX_LOCAL};
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::record::encode_record;
use cubicle_sqldb::storage::HostEnv;
use cubicle_sqldb::{Database, SqlError, SqlValue};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn build(sys: &mut System, rng: &mut Rng64) -> (Pager, u32, Vec<Vec<u8>>) {
    let mut pager = Pager::open(sys, Box::new(HostEnv::new()), "/fuzz.db", 16).unwrap();
    pager.begin(sys).unwrap();
    let mut root = btree::create(sys, &mut pager).unwrap();
    let mut keys = Vec::new();
    for i in 0..300u32 {
        let mut key = i.to_be_bytes().to_vec();
        if i % 17 == 0 {
            key.resize(MAX_KEY, 0xAB);
        }
        let len = match i % 11 {
            0 => MAX_LOCAL + 1 + rng.range_usize(0, 2 * DB_PAGE),
            1 => MAX_LOCAL,
            _ => rng.range_usize(0, 64),
        };
        root = btree::insert(sys, &mut pager, root, &key, &rng.bytes(len)).unwrap();
        keys.push(key);
    }
    pager.commit(sys).unwrap();
    (pager, root, keys)
}

/// A hostile version of the page image `valid`.
fn hostile(rng: &mut Rng64, valid: &[u8]) -> Vec<u8> {
    let mut page = valid.to_vec();
    match rng.range_usize(0, 5) {
        0 => rng.fill_bytes(&mut page),
        1 => {
            rng.fill_bytes(&mut page);
            page[0] = if rng.flip() { 1 } else { 2 };
        }
        2 => {
            let cut = rng.range_usize(1, DB_PAGE);
            page[cut..].fill(0);
        }
        3 => {
            // a big count, sibling or child pointer in the header
            let at = rng.range_usize(1, 15);
            page[at] = rng.next_u32() as u8;
            page[at + 1] = 0xFF;
        }
        _ => {
            // a wild length or pointer somewhere in the cell area
            let at = rng.range_usize(7, DB_PAGE - 4);
            let v = if rng.flip() { u32::MAX } else { rng.next_u32() };
            page[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
    page
}

/// Runs every entry point; returns how many reported corruption.
fn exercise(sys: &mut System, pager: &mut Pager, root: u32, probe: &[u8]) -> usize {
    let mut corrupt = 0;
    let mut note = |r: Result<(), SqlError>| {
        corrupt += usize::from(matches!(r, Err(SqlError::Corrupt(_))));
    };
    note(btree::get(sys, pager, root, probe).map(drop));
    note(btree::last_key(sys, pager, root).map(drop));
    note(btree::validate(sys, pager, root).map(drop));
    for start in [None, Some(probe)] {
        note((|| {
            let mut cur = btree::Cursor::seek(sys, pager, root, start)?;
            // a planted sibling cycle is cut off by the cursor itself;
            // this cap only bounds the test if it were not
            for _ in 0..100_000 {
                if cur.next(sys, pager)?.is_none() {
                    break;
                }
            }
            Ok(())
        })());
    }
    note(btree::insert(sys, pager, root, probe, b"hostile").map(drop));
    note(btree::insert(sys, pager, root, b"\x00new", &[7; MAX_LOCAL + 9]).map(drop));
    note(btree::delete(sys, pager, root, probe).map(drop));
    corrupt
}

#[test]
fn hostile_page_images_yield_errors_not_panics() {
    let mut sys = System::new(IsolationMode::Unikraft);
    let mut rng = Rng64::new(0x0BAD_9A6E);
    let (mut pager, root, keys) = build(&mut sys, &mut rng);
    let mut corrupt = 0;
    for case in 0..400 {
        let pno = rng.range_u64(1, u64::from(pager.page_count())) as u32;
        let probe = rng.pick(&keys).clone();
        pager.begin(&mut sys).unwrap();
        let valid = pager.read_page(&mut sys, pno).unwrap();
        let page = hostile(&mut rng, &valid);
        pager.write_page(&mut sys, pno, &page).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            exercise(&mut sys, &mut pager, root, &probe)
        }));
        match outcome {
            Ok(n) => corrupt += n,
            Err(_) => panic!("case {case}: hostile image of page {pno} caused a panic"),
        }
        pager.rollback(&mut sys).unwrap();
    }
    assert!(
        corrupt > 200,
        "the campaign must hit the corruption checks ({corrupt})"
    );
    // every rollback restored the committed tree
    assert_eq!(btree::validate(&mut sys, &mut pager, root).unwrap(), 300);
}

/// A leaf whose sibling pointer loops back to itself, an interior page
/// that is its own child and a self-referencing overflow chain: each is
/// reported as corruption instead of scanning or descending forever.
#[test]
fn planted_cycles_are_reported() {
    let mut sys = System::new(IsolationMode::Unikraft);
    let mut pager = Pager::open(&mut sys, Box::new(HostEnv::new()), "/cyc.db", 16).unwrap();
    pager.begin(&mut sys).unwrap();
    let leaf = btree::create(&mut sys, &mut pager).unwrap();
    let root = btree::insert(&mut sys, &mut pager, leaf, b"k", b"v").unwrap();
    assert_eq!(root, leaf);

    let mut page = pager.read_page(&mut sys, leaf).unwrap();
    page[3..7].copy_from_slice(&leaf.to_le_bytes());
    pager.write_page(&mut sys, leaf, &page).unwrap();
    let mut cur = btree::Cursor::seek(&mut sys, &mut pager, leaf, None).unwrap();
    let err = loop {
        match cur.next(&mut sys, &mut pager) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("a cyclic sibling chain ended"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, SqlError::Corrupt(_)), "{err:?}");

    let mut interior = vec![0u8; DB_PAGE];
    interior[0] = 2;
    interior[3..7].copy_from_slice(&leaf.to_le_bytes());
    pager.write_page(&mut sys, leaf, &interior).unwrap();
    assert!(matches!(
        btree::get(&mut sys, &mut pager, leaf, b"k"),
        Err(SqlError::Corrupt(_))
    ));
    assert!(matches!(
        btree::validate(&mut sys, &mut pager, leaf),
        Err(SqlError::Corrupt(_))
    ));

    let big = vec![3u8; MAX_LOCAL + 1];
    let leaf = btree::create(&mut sys, &mut pager).unwrap();
    btree::insert(&mut sys, &mut pager, leaf, b"big", &big).unwrap();
    let page = pager.read_page(&mut sys, leaf).unwrap();
    let chain = u32::from_le_bytes(page[11..15].try_into().unwrap());
    let mut ovf = pager.read_page(&mut sys, chain).unwrap();
    ovf[..4].copy_from_slice(&chain.to_le_bytes());
    pager.write_page(&mut sys, chain, &ovf).unwrap();
    assert!(matches!(
        btree::get(&mut sys, &mut pager, leaf, b"big"),
        Err(SqlError::Corrupt(_))
    ));
}

/// A smashed record on a table leaf makes every statement that scans it
/// fail with [`SqlError::Corrupt`] — also when the smashed column is one
/// the statement never reads — and never yields a wrong count.
#[test]
fn smashed_records_fail_statements_instead_of_miscounting() {
    const ROWS: i64 = 300;
    let mut sys = System::new(IsolationMode::Unikraft);
    let mut db = Database::open(&mut sys, Box::new(HostEnv::new()), "/rows.db").unwrap();
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER, b TEXT)")
        .unwrap();
    let text = |i: i64| format!("row{i:04}-{}", "x".repeat(20));
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..ROWS {
        db.execute(
            &mut sys,
            &format!("INSERT INTO t VALUES ({i}, '{}')", text(i)),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();
    let statements = [
        "SELECT count(*) FROM t WHERE a >= 0",
        "SELECT count(*) FROM t WHERE rowid BETWEEN 1 AND 1000",
        "SELECT a FROM t WHERE a % 7 = 3 ORDER BY a",
        "UPDATE t SET a = a + 1000 WHERE a >= 0",
        "DELETE FROM t WHERE a < 0",
    ];
    let mut rng = Rng64::new(0x05A4_A5ED);
    for case in 0..30 {
        let i = rng.range_u64(0, ROWS as u64) as i64;
        let record = encode_record(&[SqlValue::Integer(i), SqlValue::Text(text(i))]);
        let pager = db.pager_mut();
        let (pno, at) = (1..pager.page_count())
            .find_map(|pno| {
                let page = pager.read_page(&mut sys, pno).unwrap();
                let at = page.windows(record.len()).position(|w| w == record)?;
                Some((pno, at))
            })
            .expect("the row's record is on a leaf");
        let valid = pager.read_page(&mut sys, pno).unwrap();
        // the record is: count, int tag + 8 bytes, text tag, length, text
        let mut page = valid.clone();
        match case % 3 {
            0 => page[at + 10] = 9,                  // unknown value tag
            1 => page[at + 11] = 0x7F,               // text runs past the record
            _ => page[at + 12 + (case % 20)] = 0xFF, // invalid utf-8
        }
        let put = |sys: &mut System, db: &mut Database, image: &[u8]| {
            let pager = db.pager_mut();
            pager.begin(sys).unwrap();
            pager.write_page(sys, pno, image).unwrap();
            pager.commit(sys).unwrap();
        };
        put(&mut sys, &mut db, &page);
        for sql in statements {
            match db.execute(&mut sys, sql) {
                Err(SqlError::Corrupt(_)) => {}
                other => panic!("case {case}, row {i}: `{sql}` gave {other:?}"),
            }
        }
        put(&mut sys, &mut db, &valid);
        let rows = db
            .query(&mut sys, "SELECT count(*), sum(a) FROM t WHERE a >= 0")
            .unwrap();
        assert_eq!(
            rows[0],
            vec![
                SqlValue::Integer(ROWS),
                SqlValue::Integer(ROWS * (ROWS - 1) / 2)
            ],
            "case {case}: a failed statement changed the table"
        );
    }
}
