//! Randomized tests of the storage layers.
//!
//! Formerly proptest-based; rewritten over the in-tree deterministic
//! [`Rng64`] so the suite builds fully offline.

use cubicle_core::{IsolationMode, System};
use cubicle_mpk::rng::Rng64;
use cubicle_sqldb::btree;
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::record::{decode_record, encode_index_key, encode_record};
use cubicle_sqldb::storage::HostEnv;
use cubicle_sqldb::SqlValue;
use std::collections::BTreeMap;

fn sys() -> System {
    System::new(IsolationMode::Unikraft)
}

const TEXT_CHARS: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', 'A', 'M', 'Z', '0', '5', '9', ' ', '_', '%', '-',
];

fn rand_value(rng: &mut Rng64) -> SqlValue {
    match rng.range_usize(0, 5) {
        0 => SqlValue::Null,
        1 => SqlValue::Integer(rng.next_u64() as i64),
        // avoid NaN: total_cmp treats NaN arbitrarily
        2 => SqlValue::Real(rng.range_i64(-1_000_000_000, 1_000_000_000) as f64 / 7.0),
        3 => {
            let len = rng.range_usize(0, 40);
            SqlValue::Text((0..len).map(|_| *rng.pick(TEXT_CHARS)).collect())
        }
        _ => {
            let len = rng.range_usize(0, 48);
            SqlValue::Blob(rng.bytes(len))
        }
    }
}

#[test]
fn record_encoding_round_trips() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x4EC0_0000 + case);
        let values: Vec<SqlValue> = (0..rng.range_usize(0, 12))
            .map(|_| rand_value(&mut rng))
            .collect();
        let enc = encode_record(&values);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(values, dec, "case {case}");
    }
}

#[test]
fn index_key_order_matches_value_order() {
    let mut rng = Rng64::new(0x1DE2_0001);
    for case in 0..256 {
        let a = rand_value(&mut rng);
        let b = rand_value(&mut rng);
        let ka = encode_index_key(std::slice::from_ref(&a), None);
        let kb = encode_index_key(std::slice::from_ref(&b), None);
        let vo = a.total_cmp(&b);
        if vo != std::cmp::Ordering::Equal {
            assert_eq!(ka.cmp(&kb), vo, "case {case}: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn btree_agrees_with_model() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0xB7EE_0000 + case);
        let mut s = sys();
        let env = HostEnv::new();
        let mut pager = Pager::open(&mut s, Box::new(env), "/prop.db", 32).unwrap();
        pager.begin(&mut s).unwrap();
        let mut root = btree::create(&mut s, &mut pager).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..rng.range_usize(1, 120) {
            let op = rng.range_u64(0, 3) as u8;
            let key = rng.range_u64(0, 200).to_be_bytes().to_vec();
            match op {
                0 => {
                    let len = rng.range_usize(0, 64);
                    let val = rng.bytes(len);
                    root = btree::insert(&mut s, &mut pager, root, &key, &val).unwrap();
                    model.insert(key, val);
                }
                1 => {
                    let removed = btree::delete(&mut s, &mut pager, root, &key).unwrap();
                    assert_eq!(removed, model.remove(&key).is_some(), "case {case}");
                }
                _ => {
                    let got = btree::get(&mut s, &mut pager, root, &key).unwrap();
                    assert_eq!(got.as_ref(), model.get(&key), "case {case}");
                }
            }
        }
        // final full-scan equivalence
        let mut cur = btree::Cursor::seek(&mut s, &mut pager, root, None).unwrap();
        let mut scanned = Vec::new();
        while let Some((k, v)) = cur.next(&mut s, &mut pager).unwrap() {
            scanned.push((k.to_vec(), v.to_vec()));
        }
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scanned, expect, "case {case}");
        assert!(
            btree::validate(&mut s, &mut pager, root).is_ok(),
            "case {case}"
        );
    }
}

#[test]
fn pager_transactions_are_atomic() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x7A6E_0000 + case);
        let committed: Vec<(u32, u8)> = (0..rng.range_usize(1, 12))
            .map(|_| (rng.range_u64(1, 20) as u32, rng.next_u32() as u8))
            .collect();
        let aborted: Vec<(u32, u8)> = (0..rng.range_usize(1, 12))
            .map(|_| (rng.range_u64(1, 20) as u32, rng.next_u32() as u8))
            .collect();

        let mut s = sys();
        let env = HostEnv::new();
        let mut pager = Pager::open(&mut s, Box::new(env.clone()), "/txn.db", 8).unwrap();
        // committed transaction
        pager.begin(&mut s).unwrap();
        let mut pages = Vec::new();
        for _ in 0..20 {
            pages.push(pager.allocate_page(&mut s).unwrap());
        }
        let mut expect: BTreeMap<u32, u8> = BTreeMap::new();
        for &(slot, byte) in &committed {
            let pno = pages[slot as usize % pages.len()];
            let mut data = vec![0u8; DB_PAGE];
            data[0] = byte;
            pager.write_page(&mut s, pno, &data).unwrap();
            expect.insert(pno, byte);
        }
        pager.commit(&mut s).unwrap();
        // aborted transaction scribbles over the same pages
        pager.begin(&mut s).unwrap();
        for &(slot, byte) in &aborted {
            let pno = pages[slot as usize % pages.len()];
            let mut data = vec![0u8; DB_PAGE];
            data[0] = byte.wrapping_add(101);
            pager.write_page(&mut s, pno, &data).unwrap();
        }
        pager.rollback(&mut s).unwrap();
        // every page shows exactly the committed state
        for (&pno, &byte) in &expect {
            let got = pager.read_page(&mut s, pno).unwrap();
            assert_eq!(got[0], byte, "case {case}, page {pno}");
        }
        // and the same holds after a clean reopen
        drop(pager);
        let mut pager = Pager::open(&mut s, Box::new(env), "/txn.db", 8).unwrap();
        for (&pno, &byte) in &expect {
            let got = pager.read_page(&mut s, pno).unwrap();
            assert_eq!(got[0], byte, "case {case}, page {pno} after reopen");
        }
    }
}
