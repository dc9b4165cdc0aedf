//! The btree edits leaf pages in place; this checks that doing so is
//! indistinguishable from decoding the page, modifying the cells and
//! encoding it back.
//!
//! Each case drives two pagers with the same seeded sequence of inserts,
//! replaces, deletes, lookups and scans: one through [`btree`], the other
//! through the reference below — the decode → modify → encode tree the
//! in-place code replaced, written against the same page format and
//! issuing its pager calls in the same order. After every operation the
//! two must agree on the result, on every page byte and on the pager's
//! counters (hits, misses, evictions, syncs, commits, WAL frames), in both
//! journal modes, with a cache small enough that pages are evicted and
//! spilled mid-transaction. Values range from empty to several pages
//! (overflow chains), keys up to [`MAX_KEY`], so leaves run near full and
//! split often.

use cubicle_core::{IsolationMode, System};
use cubicle_mpk::rng::Rng64;
use cubicle_sqldb::btree::{self, MAX_KEY, MAX_LOCAL};
use cubicle_sqldb::pager::{Pager, DB_PAGE};
use cubicle_sqldb::storage::HostEnv;
use cubicle_sqldb::{JournalMode, SqlError};

/// The decode/modify/encode btree.
mod reference {
    use super::{Pager, System, DB_PAGE, MAX_KEY, MAX_LOCAL};

    const LEAF: u8 = 1;
    const INTERIOR: u8 = 2;
    const OVERFLOW_DATA: usize = DB_PAGE - 8;

    #[derive(Clone)]
    struct LeafCell {
        key: Vec<u8>,
        local: Vec<u8>,
        overflow: u32,
    }

    impl LeafCell {
        fn size(&self) -> usize {
            8 + self.key.len() + self.local.len()
        }
    }

    enum Node {
        Leaf {
            next: u32,
            cells: Vec<LeafCell>,
        },
        Interior {
            keys: Vec<Vec<u8>>,
            children: Vec<u32>,
        },
    }

    fn u16_at(d: &[u8], pos: usize) -> usize {
        usize::from(u16::from_le_bytes([d[pos], d[pos + 1]]))
    }

    fn u32_at(d: &[u8], pos: usize) -> u32 {
        u32::from_le_bytes(d[pos..pos + 4].try_into().unwrap())
    }

    impl Node {
        fn size(&self) -> usize {
            match self {
                Node::Leaf { cells, .. } => 7 + cells.iter().map(LeafCell::size).sum::<usize>(),
                Node::Interior { keys, children } => {
                    3 + 4 * children.len() + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
                }
            }
        }

        fn decode(d: &[u8]) -> Node {
            let count = u16_at(d, 1);
            match d[0] {
                LEAF => {
                    let mut pos = 7;
                    let cells = (0..count)
                        .map(|_| {
                            let (klen, vlen) = (u16_at(d, pos), u16_at(d, pos + 2));
                            let overflow = u32_at(d, pos + 4);
                            let key = d[pos + 8..pos + 8 + klen].to_vec();
                            let local = d[pos + 8 + klen..pos + 8 + klen + vlen].to_vec();
                            pos += 8 + klen + vlen;
                            LeafCell {
                                key,
                                local,
                                overflow,
                            }
                        })
                        .collect();
                    Node::Leaf {
                        next: u32_at(d, 3),
                        cells,
                    }
                }
                INTERIOR => {
                    let children = (0..=count).map(|i| u32_at(d, 3 + 4 * i)).collect();
                    let mut pos = 3 + 4 * (count + 1);
                    let keys = (0..count)
                        .map(|_| {
                            let len = u16_at(d, pos);
                            pos += 2 + len;
                            d[pos - len..pos].to_vec()
                        })
                        .collect();
                    Node::Interior { keys, children }
                }
                kind => panic!("reference tree met node kind {kind}"),
            }
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(DB_PAGE);
            match self {
                Node::Leaf { next, cells } => {
                    out.push(LEAF);
                    out.extend_from_slice(&(cells.len() as u16).to_le_bytes());
                    out.extend_from_slice(&next.to_le_bytes());
                    for c in cells {
                        out.extend_from_slice(&(c.key.len() as u16).to_le_bytes());
                        out.extend_from_slice(&(c.local.len() as u16).to_le_bytes());
                        out.extend_from_slice(&c.overflow.to_le_bytes());
                        out.extend_from_slice(&c.key);
                        out.extend_from_slice(&c.local);
                    }
                }
                Node::Interior { keys, children } => {
                    out.push(INTERIOR);
                    out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                    for c in children {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                    for k in keys {
                        out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                        out.extend_from_slice(k);
                    }
                }
            }
            assert!(out.len() <= DB_PAGE, "reference node overflows its page");
            out.resize(DB_PAGE, 0);
            out
        }
    }

    fn read_node(sys: &mut System, pager: &mut Pager, pno: u32) -> Node {
        Node::decode(pager.page_ref(sys, pno).unwrap())
    }

    fn write_node(sys: &mut System, pager: &mut Pager, pno: u32, node: &Node) {
        pager.write_page(sys, pno, &node.encode()).unwrap();
    }

    fn write_overflow(sys: &mut System, pager: &mut Pager, data: &[u8]) -> u32 {
        let (mut first, mut prev) = (0, 0);
        for chunk in data.chunks(OVERFLOW_DATA) {
            let pno = pager.allocate_page(sys).unwrap();
            let mut page = vec![0u8; DB_PAGE];
            page[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            page[8..8 + chunk.len()].copy_from_slice(chunk);
            pager.write_page(sys, pno, &page).unwrap();
            if prev == 0 {
                first = pno;
            } else {
                let mut prev_page = pager.read_page(sys, prev).unwrap();
                prev_page[..4].copy_from_slice(&pno.to_le_bytes());
                pager.write_page(sys, prev, &prev_page).unwrap();
            }
            prev = pno;
        }
        first
    }

    fn read_overflow(sys: &mut System, pager: &mut Pager, mut pno: u32) -> Vec<u8> {
        let mut out = Vec::new();
        while pno != 0 {
            let page = pager.page_ref(sys, pno).unwrap();
            out.extend_from_slice(&page[8..8 + u16_at(page, 4)]);
            pno = u32_at(page, 0);
        }
        out
    }

    fn free_overflow(sys: &mut System, pager: &mut Pager, mut pno: u32) {
        while pno != 0 {
            let next = u32_at(pager.page_ref(sys, pno).unwrap(), 0);
            pager.free_page(sys, pno).unwrap();
            pno = next;
        }
    }

    fn make_cell(sys: &mut System, pager: &mut Pager, key: &[u8], value: &[u8]) -> LeafCell {
        if value.len() > MAX_LOCAL {
            LeafCell {
                key: key.to_vec(),
                local: Vec::new(),
                overflow: write_overflow(sys, pager, value),
            }
        } else {
            LeafCell {
                key: key.to_vec(),
                local: value.to_vec(),
                overflow: 0,
            }
        }
    }

    pub fn create(sys: &mut System, pager: &mut Pager) -> u32 {
        let root = pager.allocate_page(sys).unwrap();
        let empty = Node::Leaf {
            next: 0,
            cells: Vec::new(),
        };
        write_node(sys, pager, root, &empty);
        root
    }

    /// `None` for an oversized key (after the same pager calls the real
    /// tree makes before refusing it).
    pub fn insert(
        sys: &mut System,
        pager: &mut Pager,
        root: u32,
        key: &[u8],
        value: &[u8],
    ) -> Option<u32> {
        match insert_rec(sys, pager, root, key, value)? {
            None => Some(root),
            Some((sep, right)) => {
                let new_root = pager.allocate_page(sys).unwrap();
                let node = Node::Interior {
                    keys: vec![sep],
                    children: vec![root, right],
                };
                write_node(sys, pager, new_root, &node);
                Some(new_root)
            }
        }
    }

    #[allow(clippy::option_option)]
    fn insert_rec(
        sys: &mut System,
        pager: &mut Pager,
        pno: u32,
        key: &[u8],
        value: &[u8],
    ) -> Option<Option<(Vec<u8>, u32)>> {
        match read_node(sys, pager, pno) {
            Node::Leaf { next, mut cells } => {
                let idx = cells.partition_point(|c| c.key.as_slice() < key);
                if key.len() > MAX_KEY {
                    return None;
                }
                if idx < cells.len() && cells[idx].key == key {
                    if cells[idx].overflow != 0 {
                        free_overflow(sys, pager, cells[idx].overflow);
                    }
                    cells[idx] = make_cell(sys, pager, key, value);
                } else {
                    let cell = make_cell(sys, pager, key, value);
                    cells.insert(idx, cell);
                }
                let node = Node::Leaf { next, cells };
                if node.size() <= DB_PAGE {
                    write_node(sys, pager, pno, &node);
                    return Some(None);
                }
                let Node::Leaf { next, mut cells } = node else {
                    unreachable!()
                };
                let right_cells = cells.split_off(split_point(&cells));
                let sep = right_cells[0].key.clone();
                let right_pno = pager.allocate_page(sys).unwrap();
                let right = Node::Leaf {
                    next,
                    cells: right_cells,
                };
                write_node(sys, pager, right_pno, &right);
                let left = Node::Leaf {
                    next: right_pno,
                    cells,
                };
                write_node(sys, pager, pno, &left);
                Some(Some((sep, right_pno)))
            }
            Node::Interior {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let Some((sep, right)) = insert_rec(sys, pager, children[idx], key, value)? else {
                    return Some(None);
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                let node = Node::Interior { keys, children };
                if node.size() <= DB_PAGE {
                    write_node(sys, pager, pno, &node);
                    return Some(None);
                }
                let Node::Interior {
                    mut keys,
                    mut children,
                } = node
                else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let promote = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop();
                let right_children = children.split_off(mid + 1);
                let right_pno = pager.allocate_page(sys).unwrap();
                let right = Node::Interior {
                    keys: right_keys,
                    children: right_children,
                };
                write_node(sys, pager, right_pno, &right);
                write_node(sys, pager, pno, &Node::Interior { keys, children });
                Some(Some((promote, right_pno)))
            }
        }
    }

    /// Halfway by count unless a half would not fit, then the first
    /// boundary whose right half fits.
    fn split_point(cells: &[LeafCell]) -> usize {
        let fits = |h: &[LeafCell]| 7 + h.iter().map(LeafCell::size).sum::<usize>() <= DB_PAGE;
        let mid = cells.len() / 2;
        if fits(&cells[..mid]) && fits(&cells[mid..]) {
            return mid;
        }
        (1..cells.len()).find(|&m| fits(&cells[m..])).unwrap()
    }

    pub fn get(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> Option<Vec<u8>> {
        let mut pno = root;
        loop {
            match read_node(sys, pager, pno) {
                Node::Leaf { cells, .. } => {
                    let cell = cells.into_iter().find(|c| c.key == key)?;
                    return Some(if cell.overflow == 0 {
                        cell.local
                    } else {
                        read_overflow(sys, pager, cell.overflow)
                    });
                }
                Node::Interior { keys, children } => {
                    pno = children[keys.partition_point(|k| k.as_slice() <= key)];
                }
            }
        }
    }

    pub fn delete(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> bool {
        let mut pno = root;
        loop {
            match read_node(sys, pager, pno) {
                Node::Leaf { next, mut cells } => {
                    let Some(idx) = cells.iter().position(|c| c.key == key) else {
                        return false;
                    };
                    let cell = cells.remove(idx);
                    if cell.overflow != 0 {
                        free_overflow(sys, pager, cell.overflow);
                    }
                    write_node(sys, pager, pno, &Node::Leaf { next, cells });
                    return true;
                }
                Node::Interior { keys, children } => {
                    pno = children[keys.partition_point(|k| k.as_slice() <= key)];
                }
            }
        }
    }

    /// Every entry from `start` on, leaf by leaf along the sibling chain.
    pub fn scan(
        sys: &mut System,
        pager: &mut Pager,
        root: u32,
        start: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut pno = root;
        let (mut next, mut cells) = loop {
            match read_node(sys, pager, pno) {
                Node::Leaf { next, cells } => break (next, cells),
                Node::Interior { keys, children } => {
                    pno = children[keys.partition_point(|k| k.as_slice() <= start)];
                }
            }
        };
        cells.retain(|c| c.key.as_slice() >= start);
        let mut out = Vec::new();
        loop {
            for c in cells {
                let value = if c.overflow == 0 {
                    c.local
                } else {
                    read_overflow(sys, pager, c.overflow)
                };
                out.push((c.key, value));
            }
            if next == 0 {
                return out;
            }
            let Node::Leaf { next: n, cells: c } = read_node(sys, pager, next) else {
                panic!("sibling is not a leaf");
            };
            (next, cells) = (n, c);
        }
    }
}

fn open(sys: &mut System, mode: JournalMode, cache: usize) -> Pager {
    let env = HostEnv::new();
    let mut pager = Pager::open_with_mode(sys, Box::new(env), "/twin.db", cache, mode).unwrap();
    pager.begin(sys).unwrap();
    pager
}

/// Keys of one to sixteen bytes, with one in five long (up to
/// [`MAX_KEY`]) so that maximal cells fill leaves after a few inserts.
fn key_pool(rng: &mut Rng64) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            let len = if rng.range_usize(0, 5) == 0 {
                rng.range_usize(100, MAX_KEY + 1)
            } else {
                rng.range_usize(1, 17)
            };
            rng.bytes(len)
        })
        .collect();
    keys.push(vec![0xFF; MAX_KEY]);
    keys.sort();
    keys.dedup();
    keys
}

/// Empty, small, a full local cell, just past it (a one-page chain) and
/// multi-page chains.
fn value(rng: &mut Rng64) -> Vec<u8> {
    let len = match rng.range_usize(0, 8) {
        0 => 0,
        1..=3 => rng.range_usize(1, 120),
        4 => rng.range_usize(MAX_LOCAL - 24, MAX_LOCAL + 1),
        5 => MAX_LOCAL + 1,
        6 => rng.range_usize(MAX_LOCAL + 1, 3 * DB_PAGE),
        _ => rng.range_usize(120, MAX_LOCAL),
    };
    rng.bytes(len)
}

/// Asserts identical pager counters, then identical page images. The
/// page comparison reads every page through both pagers alike.
fn assert_twins(sa: &mut System, a: &mut Pager, sb: &mut System, b: &mut Pager, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: pager counters");
    assert_eq!(a.page_count(), b.page_count(), "{what}: page count");
    for pno in 0..a.page_count() {
        let pa = a.page_ref(sa, pno).unwrap();
        let pb = b.page_ref(sb, pno).unwrap();
        if pa != pb {
            let at = pa.iter().zip(pb).position(|(x, y)| x != y).unwrap();
            panic!("{what}: page {pno} differs first at byte {at}");
        }
    }
}

/// One seeded case. Reading every page to compare them also resets the
/// LRU order, so with `pages_every_op` off the page images are compared
/// only at commits and the LRU state of one operation carries into the
/// next; the counters are compared after every operation either way.
fn run_case(mode: JournalMode, cache: usize, seed: u64, ops: usize, pages_every_op: bool) {
    let mut rng = Rng64::new(seed);
    let keys = key_pool(&mut rng);
    let (mut sa, mut sb) = (
        System::new(IsolationMode::Unikraft),
        System::new(IsolationMode::Unikraft),
    );
    let (mut a, mut b) = (open(&mut sa, mode, cache), open(&mut sb, mode, cache));
    let mut ra = btree::create(&mut sa, &mut a).unwrap();
    let mut rb = reference::create(&mut sb, &mut b);
    let first_root = ra;
    let mut chains = 0;
    for step in 0..ops {
        let key = rng.pick(&keys).clone();
        let what = format!("{mode:?} cache={cache} seed={seed:#x} step {step}");
        match rng.range_usize(0, 10) {
            0..=4 => {
                let val = value(&mut rng);
                chains += usize::from(val.len() > MAX_LOCAL);
                ra = btree::insert(&mut sa, &mut a, ra, &key, &val).unwrap();
                rb = reference::insert(&mut sb, &mut b, rb, &key, &val).unwrap();
            }
            5..=6 => {
                let da = btree::delete(&mut sa, &mut a, ra, &key).unwrap();
                let db = reference::delete(&mut sb, &mut b, rb, &key);
                assert_eq!(da, db, "{what}: delete result");
            }
            7 => {
                let ga = btree::get(&mut sa, &mut a, ra, &key).unwrap();
                let gb = reference::get(&mut sb, &mut b, rb, &key);
                assert_eq!(ga, gb, "{what}: get result");
            }
            8 => {
                let mut cur = btree::Cursor::seek(&mut sa, &mut a, ra, Some(&key)).unwrap();
                let mut got = Vec::new();
                while let Some((k, v)) = cur.next(&mut sa, &mut a).unwrap() {
                    got.push((k.to_vec(), v.to_vec()));
                }
                let want = reference::scan(&mut sb, &mut b, rb, &key);
                assert_eq!(got, want, "{what}: scan from key");
            }
            _ => {
                let mut long = key.clone();
                long.resize(MAX_KEY + 1, 7);
                let err = btree::insert(&mut sa, &mut a, ra, &long, b"v");
                assert!(matches!(err, Err(SqlError::Misuse(_))), "{what}");
                assert!(reference::insert(&mut sb, &mut b, rb, &long, b"v").is_none());
            }
        }
        assert_eq!(ra, rb, "{what}: root page");
        assert_eq!(a.stats, b.stats, "{what}: pager counters");
        let commit = rng.range_usize(0, 40) == 0;
        if commit {
            a.commit(&mut sa).unwrap();
            b.commit(&mut sb).unwrap();
            a.begin(&mut sa).unwrap();
            b.begin(&mut sb).unwrap();
        }
        if commit || pages_every_op {
            assert_twins(&mut sa, &mut a, &mut sb, &mut b, &what);
        }
    }
    assert!(ra != first_root, "seed {seed:#x}: the root never split");
    assert!(chains > 0, "seed {seed:#x}: no overflow chains");
    if cache < 64 {
        assert!(
            a.stats.evictions > 0,
            "seed {seed:#x}: the cache never spilled"
        );
    }
    a.commit(&mut sa).unwrap();
    b.commit(&mut sb).unwrap();
    assert_twins(&mut sa, &mut a, &mut sb, &mut b, "after the final commit");
    assert!(btree::validate(&mut sa, &mut a, ra).is_ok());
}

#[test]
fn in_place_writes_match_decode_encode_in_wal_mode() {
    for seed in 0..6u64 {
        run_case(JournalMode::Wal, 8, 0xB1_7E00 + seed, 400, seed % 2 == 0);
    }
    run_case(JournalMode::Wal, 256, 0xB1_7E10, 400, true);
}

#[test]
fn in_place_writes_match_decode_encode_in_rollback_mode() {
    for seed in 0..6u64 {
        run_case(
            JournalMode::Rollback,
            8,
            0xB1_7F00 + seed,
            400,
            seed % 2 == 0,
        );
    }
    run_case(JournalMode::Rollback, 256, 0xB1_7F10, 400, true);
}

/// Three maximal cells cannot share a leaf, so the count midpoint of
/// `[small, small, max, max] + max` would leave an overfull right half;
/// the split must move its boundary instead of overflowing the page.
#[test]
fn split_of_small_then_maximal_cells_fits_both_halves() {
    let mut sys = System::new(IsolationMode::Unikraft);
    let mut pager = open(&mut sys, JournalMode::Wal, 64);
    let mut root = btree::create(&mut sys, &mut pager).unwrap();
    let value = vec![0x5A; MAX_LOCAL];
    for key in [&[1u8][..], &[2]] {
        root = btree::insert(&mut sys, &mut pager, root, key, b"s").unwrap();
    }
    for fill in 3..6u8 {
        let key = vec![fill; MAX_KEY];
        root = btree::insert(&mut sys, &mut pager, root, &key, &value).unwrap();
    }
    assert_eq!(btree::validate(&mut sys, &mut pager, root).unwrap(), 5);
    for fill in 3..6u8 {
        let got = btree::get(&mut sys, &mut pager, root, &vec![fill; MAX_KEY]).unwrap();
        assert_eq!(got.as_deref(), Some(&value[..]));
    }
}
