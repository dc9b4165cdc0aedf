//! B+tree with byte-string keys over the pager.
//!
//! One tree implementation backs both table storage (key = sortable
//! rowid encoding, value = row record) and indexes (key = memcomparable
//! column encoding + rowid, value = empty). Values larger than
//! [`MAX_LOCAL`] spill into overflow page chains, like SQLite's.
//!
//! Page layout (integers little-endian):
//!
//! * leaf: kind `1`, cell count `u16`, right sibling `u32`, then the
//!   cells back to back in key order — key length `u16`, local value
//!   length `u16`, overflow chain head `u32` (0 = none), key, local
//!   value — and a zero tail;
//! * interior: kind `2`, separator count `n: u16`, `n + 1` child page
//!   numbers `u32`, `n` separators (length `u16`, bytes), a zero tail.
//!
//! Lookups, scans and the common leaf writes work on the cached page
//! bytes in place, through [`Pager::page_ref`] and `Pager::page_mut`.
//! Only overflow chains and splits decode a page into a `Node`. An
//! in-place edit issues the same pager calls as the decode/encode path
//! and leaves the same page bytes, so simulated cycles do not depend on
//! which path ran. Every parser bounds-checks: hostile page bytes yield
//! [`SqlError::Corrupt`], never a panic.

use crate::error::{Result, SqlError};
use crate::pager::{Pager, DB_PAGE};
use cubicle_core::System;
use std::cmp::Ordering;

/// Maximum value bytes stored inside a leaf cell; longer values go to an
/// overflow chain.
pub const MAX_LOCAL: usize = 1024;

/// Maximum key size (keys must never force a split below 4 cells/page).
pub const MAX_KEY: usize = 512;

const LEAF: u8 = 1;
const INTERIOR: u8 = 2;
const LEAF_HEADER: usize = 7;
const CELL_HEADER: usize = 8;
const INTERIOR_HEADER: usize = 3;
const OVERFLOW_DATA: usize = DB_PAGE - 8;
/// Fan-out is at least 2 and page numbers are 32-bit, so no valid tree
/// is deeper; a deeper descent is a cycle of child pointers.
const MAX_DEPTH: usize = 32;

fn corrupt(what: &str) -> SqlError {
    SqlError::Corrupt(what.into())
}

/// `page[pos..pos + len]`, or [`SqlError::Corrupt`] naming `what`.
fn bytes<'a>(page: &'a [u8], pos: usize, len: usize, what: &str) -> Result<&'a [u8]> {
    page.get(pos..pos + len).ok_or_else(|| corrupt(what))
}

fn read_u16(page: &[u8], pos: usize, what: &str) -> Result<usize> {
    let b = bytes(page, pos, 2, what)?;
    Ok(usize::from(u16::from_le_bytes([b[0], b[1]])))
}

fn read_u32(page: &[u8], pos: usize, what: &str) -> Result<u32> {
    let b = bytes(page, pos, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

// ---------------------------------------------------------------------------
// In-place page parsing
// ---------------------------------------------------------------------------

/// A leaf cell parsed in place; it occupies `pos..end` of its page.
struct Cell<'a> {
    pos: usize,
    end: usize,
    key: &'a [u8],
    local: &'a [u8],
    overflow: u32,
}

fn cell_at(page: &[u8], pos: usize) -> Result<Cell<'_>> {
    let klen = read_u16(page, pos, "leaf cell header")?;
    let vlen = read_u16(page, pos + 2, "leaf cell header")?;
    let overflow = read_u32(page, pos + 4, "leaf cell header")?;
    let key = bytes(page, pos + CELL_HEADER, klen, "leaf cell key")?;
    let local = bytes(page, pos + CELL_HEADER + klen, vlen, "leaf cell value")?;
    Ok(Cell {
        pos,
        end: pos + CELL_HEADER + klen + vlen,
        key,
        local,
        overflow,
    })
}

/// A leaf page's cell count and right sibling.
fn leaf_header(page: &[u8]) -> Result<(usize, u32)> {
    if page[0] != LEAF {
        return Err(SqlError::Corrupt(format!(
            "expected a btree leaf, found node kind {}",
            page[0]
        )));
    }
    Ok((
        read_u16(page, 1, "leaf header")?,
        read_u32(page, 3, "leaf header")?,
    ))
}

/// A leaf page's cells in key order.
fn cells(page: &[u8]) -> Result<impl Iterator<Item = Result<Cell<'_>>>> {
    let (count, _) = leaf_header(page)?;
    let mut pos = LEAF_HEADER;
    Ok((0..count).map(move |_| {
        let cell = cell_at(page, pos)?;
        pos = cell.end;
        Ok(cell)
    }))
}

/// An interior page's separator count.
fn interior_count(page: &[u8]) -> Result<usize> {
    read_u16(page, 1, "interior header")
}

fn child_at(page: &[u8], idx: usize) -> Result<u32> {
    read_u32(page, INTERIOR_HEADER + 4 * idx, "interior child")
}

/// An interior page's `count + 1` children.
fn children(page: &[u8], count: usize) -> Result<Vec<u32>> {
    (0..=count).map(|i| child_at(page, i)).collect()
}

/// An interior page's `count` separators, in order.
fn separators(page: &[u8], count: usize) -> impl Iterator<Item = Result<&[u8]>> {
    let mut pos = INTERIOR_HEADER + 4 * (count + 1);
    (0..count).map(move |_| {
        let len = read_u16(page, pos, "interior key")?;
        let key = bytes(page, pos + 2, len, "interior key")?;
        pos += 2 + len;
        Ok(key)
    })
}

/// Which child a descent through an interior page follows.
#[derive(Clone, Copy)]
enum Probe<'k> {
    First,
    /// The child whose range covers the key.
    Key(&'k [u8]),
    Last,
}

/// The index and page number of the child `probe` selects.
fn child_index(page: &[u8], probe: Probe<'_>) -> Result<(usize, u32)> {
    let count = interior_count(page)?;
    let idx = match probe {
        Probe::First => 0,
        Probe::Last => count,
        Probe::Key(key) => {
            let mut idx = 0;
            for sep in separators(page, count) {
                if sep? > key {
                    break;
                }
                idx += 1;
            }
            idx
        }
    };
    Ok((idx, child_at(page, idx)?))
}

fn too_deep() -> SqlError {
    corrupt("btree deeper than any valid tree (cyclic child pointers)")
}

/// Where a key sits in a leaf page.
struct Spot {
    /// Cells on the page.
    count: usize,
    /// Index of the first cell whose key is `>=` the probe.
    idx: usize,
    /// Byte range the edit replaces: that cell when its key equals the
    /// probe, else the empty range where a new cell goes.
    start: usize,
    end: usize,
    /// End of the cell area.
    used: usize,
    /// The probe key is present.
    found: bool,
    /// Overflow chain of the matching cell (0 when absent or inline).
    overflow: u32,
}

impl Spot {
    fn find(page: &[u8], key: &[u8]) -> Result<Spot> {
        let (count, _) = leaf_header(page)?;
        let mut hit = None;
        let mut used = LEAF_HEADER;
        for (idx, cell) in cells(page)?.enumerate() {
            let cell = cell?;
            if hit.is_none() && cell.key >= key {
                hit = Some((idx, cell.pos, cell.key == key, cell.end, cell.overflow));
            }
            used = cell.end;
        }
        let (idx, start, found, end, overflow) = hit.unwrap_or((count, used, false, used, 0));
        Ok(Spot {
            count,
            idx,
            start,
            end: if found { end } else { start },
            used,
            found,
            overflow: if found { overflow } else { 0 },
        })
    }

    /// End of the cell area once the edit puts a cell of `len` bytes
    /// (0 = none) in place of `start..end`.
    fn used_after(&self, len: usize) -> usize {
        self.used - (self.end - self.start) + len
    }

    /// Edits the leaf in place: puts the inline cell `(key, value)` in
    /// place of `start..end`, or removes the matching cell when `cell`
    /// is `None`. The cells behind it move and the freed tail is zeroed,
    /// so the page ends up exactly as [`Node::encode`] would lay it out.
    fn splice(&self, page: &mut [u8], cell: Option<(&[u8], &[u8])>) {
        let len = cell.map_or(0, |(k, v)| CELL_HEADER + k.len() + v.len());
        let used = self.used_after(len);
        page.copy_within(self.end..self.used, self.start + len);
        if used < self.used {
            page[used..self.used].fill(0);
        }
        if let Some((key, value)) = cell {
            let c = &mut page[self.start..self.start + len];
            c[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
            c[2..4].copy_from_slice(&(value.len() as u16).to_le_bytes());
            c[4..8].fill(0);
            c[8..8 + key.len()].copy_from_slice(key);
            c[8 + key.len()..].copy_from_slice(value);
        }
        let count = self.count + usize::from(cell.is_some()) - usize::from(self.found);
        page[1..3].copy_from_slice(&(count as u16).to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Decoded nodes (splits and overflow chains)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LeafCell {
    key: Vec<u8>,
    local: Vec<u8>,
    overflow: u32,
}

impl LeafCell {
    fn size(&self) -> usize {
        CELL_HEADER + self.key.len() + self.local.len()
    }
}

#[derive(Debug)]
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

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { cells, .. } => {
                LEAF_HEADER + cells.iter().map(LeafCell::size).sum::<usize>()
            }
            Node::Interior { keys, children } => {
                INTERIOR_HEADER
                    + children.len() * 4
                    + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; DB_PAGE];
        match self {
            Node::Leaf { next, cells } => {
                out[0] = LEAF;
                out[1..3].copy_from_slice(&(cells.len() as u16).to_le_bytes());
                out[3..7].copy_from_slice(&next.to_le_bytes());
                let mut pos = LEAF_HEADER;
                for c in cells {
                    out[pos..pos + 2].copy_from_slice(&(c.key.len() as u16).to_le_bytes());
                    out[pos + 2..pos + 4].copy_from_slice(&(c.local.len() as u16).to_le_bytes());
                    out[pos + 4..pos + 8].copy_from_slice(&c.overflow.to_le_bytes());
                    pos += CELL_HEADER;
                    out[pos..pos + c.key.len()].copy_from_slice(&c.key);
                    pos += c.key.len();
                    out[pos..pos + c.local.len()].copy_from_slice(&c.local);
                    pos += c.local.len();
                }
            }
            Node::Interior { keys, children } => {
                out[0] = INTERIOR;
                out[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                let mut pos = INTERIOR_HEADER;
                for ch in children {
                    out[pos..pos + 4].copy_from_slice(&ch.to_le_bytes());
                    pos += 4;
                }
                for k in keys {
                    out[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    out[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                }
            }
        }
        out
    }

    fn decode(page: &[u8]) -> Result<Node> {
        if page[0] == INTERIOR {
            let count = interior_count(page)?;
            return Ok(Node::Interior {
                children: children(page, count)?,
                keys: separators(page, count)
                    .map(|k| k.map(<[u8]>::to_vec))
                    .collect::<Result<_>>()?,
            });
        }
        let (_, next) = leaf_header(page)?;
        let cells = cells(page)?
            .map(|c| {
                c.map(|c| LeafCell {
                    key: c.key.to_vec(),
                    local: c.local.to_vec(),
                    overflow: c.overflow,
                })
            })
            .collect::<Result<_>>()?;
        Ok(Node::Leaf { next, cells })
    }
}

fn write_node(sys: &mut System, pager: &mut Pager, pno: u32, node: &Node) -> Result<()> {
    // Only a node decoded from hostile bytes can outgrow a page here.
    if node.serialized_size() > DB_PAGE {
        return Err(corrupt("btree node does not fit in a page"));
    }
    pager.write_page(sys, pno, &node.encode())
}

/// Where an overfull leaf splits: halfway by cell count, unless a half
/// would still not fit in a page (a few maximal cells behind many small
/// ones); then at the first cell boundary whose right half fits.
fn leaf_split_point(cells: &[LeafCell]) -> usize {
    let fits =
        |half: &[LeafCell]| LEAF_HEADER + half.iter().map(LeafCell::size).sum::<usize>() <= DB_PAGE;
    let mid = cells.len() / 2;
    if fits(&cells[..mid]) && fits(&cells[mid..]) {
        return mid;
    }
    (1..cells.len()).find(|&m| fits(&cells[m..])).unwrap_or(mid)
}

/// Creates an empty tree, returning its root page.
///
/// # Errors
///
/// Pager errors (must run inside a transaction).
pub fn create(sys: &mut System, pager: &mut Pager) -> Result<u32> {
    let root = pager.allocate_page(sys)?;
    // An empty leaf is a zeroed page (which allocation yields) of kind LEAF.
    pager.page_mut(sys, root)?[0] = LEAF;
    Ok(root)
}

// ---------------------------------------------------------------------------
// Overflow chains
// ---------------------------------------------------------------------------

fn write_overflow(sys: &mut System, pager: &mut Pager, data: &[u8]) -> Result<u32> {
    let mut first = 0u32;
    let mut prev = 0u32;
    for chunk in data.chunks(OVERFLOW_DATA) {
        let pno = pager.allocate_page(sys)?;
        // Allocation leaves the page cached and zeroed.
        let page = pager.page_mut(sys, pno)?;
        page[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
        page[8..8 + chunk.len()].copy_from_slice(chunk);
        if prev != 0 {
            // Read, then write: the pager calls of a read-modify-write.
            pager.page_ref(sys, prev)?;
            pager.page_mut(sys, prev)?[..4].copy_from_slice(&pno.to_le_bytes());
        } else {
            first = pno;
        }
        prev = pno;
    }
    Ok(first)
}

/// Counts one more page of a chain; a chain longer than the database
/// is cyclic.
fn hop(pager: &Pager, hops: &mut u32, what: &str) -> Result<()> {
    *hops += 1;
    if *hops > pager.page_count() {
        return Err(SqlError::Corrupt(format!("cyclic {what}")));
    }
    Ok(())
}

/// Reads an overflow chain's bytes into `out`, replacing its contents.
fn read_overflow(
    sys: &mut System,
    pager: &mut Pager,
    mut pno: u32,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    let mut hops = 0;
    while pno != 0 {
        hop(pager, &mut hops, "overflow chain")?;
        let page = pager.page_ref(sys, pno)?;
        let len = read_u16(page, 4, "overflow header")?;
        out.extend_from_slice(bytes(page, 8, len, "overflow data")?);
        pno = read_u32(page, 0, "overflow header")?;
    }
    Ok(())
}

fn free_overflow(sys: &mut System, pager: &mut Pager, mut pno: u32) -> Result<()> {
    let mut hops = 0;
    while pno != 0 {
        hop(pager, &mut hops, "overflow chain")?;
        let next = read_u32(pager.page_ref(sys, pno)?, 0, "overflow header")?;
        pager.free_page(sys, pno)?;
        pno = next;
    }
    Ok(())
}

fn make_cell(sys: &mut System, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<LeafCell> {
    if key.len() > MAX_KEY {
        return Err(SqlError::Misuse(format!(
            "key too large ({} bytes)",
            key.len()
        )));
    }
    if value.len() > MAX_LOCAL {
        let overflow = write_overflow(sys, pager, value)?;
        Ok(LeafCell {
            key: key.to_vec(),
            local: Vec::new(),
            overflow,
        })
    } else {
        Ok(LeafCell {
            key: key.to_vec(),
            local: value.to_vec(),
            overflow: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Insert / get / delete
// ---------------------------------------------------------------------------

/// Inserts or replaces `key`. Returns the (possibly new) root page.
///
/// # Errors
///
/// Pager errors; [`SqlError::Misuse`] for oversized keys.
pub fn insert(
    sys: &mut System,
    pager: &mut Pager,
    root: u32,
    key: &[u8],
    value: &[u8],
) -> Result<u32> {
    match insert_rec(sys, pager, root, key, value, 0)? {
        None => Ok(root),
        Some((sep, right)) => {
            let new_root = pager.allocate_page(sys)?;
            write_node(
                sys,
                pager,
                new_root,
                &Node::Interior {
                    keys: vec![sep],
                    children: vec![root, right],
                },
            )?;
            Ok(new_root)
        }
    }
}

fn insert_rec(
    sys: &mut System,
    pager: &mut Pager,
    pno: u32,
    key: &[u8],
    value: &[u8],
    depth: usize,
) -> Result<Option<(Vec<u8>, u32)>> {
    if depth >= MAX_DEPTH {
        return Err(too_deep());
    }
    let page = pager.page_ref(sys, pno)?;
    if page[0] == INTERIOR {
        let (idx, child) = child_index(page, Probe::Key(key))?;
        // The recursion may evict this page; keep its bytes in case a
        // split propagates up.
        let mut parent = [0u8; DB_PAGE];
        parent.copy_from_slice(page);
        let Some((sep, right)) = insert_rec(sys, pager, child, key, value, depth + 1)? else {
            return Ok(None);
        };
        let Node::Interior {
            mut keys,
            mut children,
        } = Node::decode(&parent)?
        else {
            unreachable!("kind checked above");
        };
        keys.insert(idx, sep);
        children.insert(idx + 1, right);
        let node = Node::Interior { keys, children };
        if node.serialized_size() <= DB_PAGE {
            write_node(sys, pager, pno, &node)?;
            return Ok(None);
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
        keys.pop(); // the promoted key leaves this node
        let right_children = children.split_off(mid + 1);
        let right_pno = pager.allocate_page(sys)?;
        write_node(
            sys,
            pager,
            right_pno,
            &Node::Interior {
                keys: right_keys,
                children: right_children,
            },
        )?;
        write_node(sys, pager, pno, &Node::Interior { keys, children })?;
        return Ok(Some((promote, right_pno)));
    }

    let spot = Spot::find(page, key)?;
    if key.len() <= MAX_KEY
        && value.len() <= MAX_LOCAL
        && spot.overflow == 0
        && spot.used_after(CELL_HEADER + key.len() + value.len()) <= DB_PAGE
    {
        spot.splice(pager.page_mut(sys, pno)?, Some((key, value)));
        return Ok(None);
    }
    // Overflow chains and splits: edit a decoded copy.
    let Node::Leaf { next, mut cells } = Node::decode(page)? else {
        unreachable!("Spot::find checked the kind");
    };
    if spot.found {
        if spot.overflow != 0 {
            free_overflow(sys, pager, spot.overflow)?;
        }
        cells[spot.idx] = make_cell(sys, pager, key, value)?;
    } else {
        let cell = make_cell(sys, pager, key, value)?;
        cells.insert(spot.idx, cell);
    }
    let node = Node::Leaf { next, cells };
    if node.serialized_size() <= DB_PAGE {
        write_node(sys, pager, pno, &node)?;
        return Ok(None);
    }
    let Node::Leaf { next, mut cells } = node else {
        unreachable!()
    };
    let right_cells = cells.split_off(leaf_split_point(&cells));
    let sep = right_cells[0].key.clone();
    let right_pno = pager.allocate_page(sys)?;
    write_node(
        sys,
        pager,
        right_pno,
        &Node::Leaf {
            next,
            cells: right_cells,
        },
    )?;
    write_node(
        sys,
        pager,
        pno,
        &Node::Leaf {
            next: right_pno,
            cells,
        },
    )?;
    Ok(Some((sep, right_pno)))
}

/// Looks up `key`.
///
/// # Errors
///
/// Pager errors or corruption.
pub fn get(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut pno = root;
    for _ in 0..MAX_DEPTH {
        let page = pager.page_ref(sys, pno)?;
        if page[0] == INTERIOR {
            pno = child_index(page, Probe::Key(key))?.1;
            continue;
        }
        let mut chain = 0;
        for cell in cells(page)? {
            let cell = cell?;
            match cell.key.cmp(key) {
                Ordering::Less => {}
                Ordering::Greater => break,
                Ordering::Equal if cell.overflow == 0 => return Ok(Some(cell.local.to_vec())),
                Ordering::Equal => {
                    chain = cell.overflow;
                    break;
                }
            }
        }
        if chain == 0 {
            return Ok(None);
        }
        let mut value = Vec::new();
        read_overflow(sys, pager, chain, &mut value)?;
        return Ok(Some(value));
    }
    Err(too_deep())
}

/// Deletes `key`. Returns `true` if it was present. Leaves are allowed
/// to underflow (lazy deletion, no rebalancing — freed space is reused
/// by later inserts).
///
/// # Errors
///
/// Pager errors or corruption.
pub fn delete(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> Result<bool> {
    let mut pno = root;
    for _ in 0..MAX_DEPTH {
        let page = pager.page_ref(sys, pno)?;
        if page[0] == INTERIOR {
            pno = child_index(page, Probe::Key(key))?.1;
            continue;
        }
        let spot = Spot::find(page, key)?;
        if !spot.found {
            return Ok(false);
        }
        if spot.overflow == 0 {
            spot.splice(pager.page_mut(sys, pno)?, None);
            return Ok(true);
        }
        // Freeing the chain may evict the leaf: edit a decoded copy.
        let Node::Leaf { next, mut cells } = Node::decode(page)? else {
            unreachable!("Spot::find checked the kind");
        };
        cells.remove(spot.idx);
        free_overflow(sys, pager, spot.overflow)?;
        write_node(sys, pager, pno, &Node::Leaf { next, cells })?;
        return Ok(true);
    }
    Err(too_deep())
}

/// Frees every page of the tree (DROP TABLE / DROP INDEX).
///
/// # Errors
///
/// Pager errors or corruption.
pub fn free_tree(sys: &mut System, pager: &mut Pager, root: u32) -> Result<()> {
    fn free(sys: &mut System, pager: &mut Pager, pno: u32, depth: usize) -> Result<()> {
        if depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        let page = pager.page_ref(sys, pno)?;
        if page[0] == INTERIOR {
            for child in children(page, interior_count(page)?)? {
                free(sys, pager, child, depth + 1)?;
            }
        } else {
            let mut chains = Vec::new();
            for cell in cells(page)? {
                let overflow = cell?.overflow;
                if overflow != 0 {
                    chains.push(overflow);
                }
            }
            for chain in chains {
                free_overflow(sys, pager, chain)?;
            }
        }
        pager.free_page(sys, pno)
    }
    free(sys, pager, root, 0)
}

/// Returns the largest key in the tree, or `None` when empty.
///
/// # Errors
///
/// Pager errors or corruption.
pub fn last_key(sys: &mut System, pager: &mut Pager, root: u32) -> Result<Option<Vec<u8>>> {
    let mut pno = root;
    for _ in 0..MAX_DEPTH {
        let page = pager.page_ref(sys, pno)?;
        if page[0] == INTERIOR {
            pno = child_index(page, Probe::Last)?.1;
            continue;
        }
        if let Some(cell) = cells(page)?.last() {
            return Ok(Some(cell?.key.to_vec()));
        }
        // Lazy deletion can leave the rightmost leaf empty; fall back to
        // a full scan remembering the last key seen.
        let mut cur = Cursor::seek(sys, pager, root, None)?;
        let mut last = None;
        while let Some((key, _)) = cur.next(sys, pager)? {
            last = Some(key.to_vec());
        }
        return Ok(last);
    }
    Err(too_deep())
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// Forward cursor over a tree's entries in key order.
#[derive(Debug)]
pub struct Cursor {
    /// Copy of the current leaf: the scan reads its cells from here, so
    /// it neither touches the page cache per entry nor sees the leaf
    /// change under it.
    leaf: Vec<u8>,
    /// Offset of the next cell in `leaf`, and cells left from there.
    pos: usize,
    left: usize,
    next_leaf: u32,
    /// Leaves loaded so far (a sibling chain longer than the database
    /// is cyclic).
    hops: u32,
    /// The current entry's value when it spills onto an overflow chain,
    /// reused from entry to entry.
    overflow: Vec<u8>,
}

impl Cursor {
    /// Positions at the first key `>= start` (or the smallest key when
    /// `start` is `None`).
    ///
    /// # Errors
    ///
    /// Pager errors or corruption.
    pub fn seek(
        sys: &mut System,
        pager: &mut Pager,
        root: u32,
        start: Option<&[u8]>,
    ) -> Result<Cursor> {
        let probe = start.map_or(Probe::First, Probe::Key);
        let mut pno = root;
        for _ in 0..MAX_DEPTH {
            let page = pager.page_ref(sys, pno)?;
            if page[0] == INTERIOR {
                pno = child_index(page, probe)?.1;
                continue;
            }
            let mut cur = Cursor {
                leaf: page.to_vec(),
                pos: LEAF_HEADER,
                left: 0,
                next_leaf: 0,
                hops: 1,
                overflow: Vec::new(),
            };
            cur.enter_leaf()?;
            if let Some(start) = start {
                for cell in cells(&cur.leaf)? {
                    let cell = cell?;
                    if cell.key >= start {
                        break;
                    }
                    cur.pos = cell.end;
                    cur.left -= 1;
                }
            }
            return Ok(cur);
        }
        Err(too_deep())
    }

    /// Starts reading the leaf just copied into `self.leaf`.
    fn enter_leaf(&mut self) -> Result<()> {
        (self.left, self.next_leaf) = leaf_header(&self.leaf)?;
        self.pos = LEAF_HEADER;
        Ok(())
    }

    /// Returns the next `(key, value)`, or `None` at the end.
    ///
    /// Both slices borrow the cursor and stay valid until the next call;
    /// a caller that keeps an entry copies it.
    ///
    /// # Errors
    ///
    /// Pager errors or corruption.
    pub fn next(&mut self, sys: &mut System, pager: &mut Pager) -> Result<Option<(&[u8], &[u8])>> {
        loop {
            if self.left > 0 {
                let cell = cell_at(&self.leaf, self.pos)?;
                self.pos = cell.end;
                self.left -= 1;
                if cell.overflow == 0 {
                    return Ok(Some((cell.key, cell.local)));
                }
                read_overflow(sys, pager, cell.overflow, &mut self.overflow)?;
                return Ok(Some((cell.key, &self.overflow)));
            }
            if self.next_leaf == 0 {
                return Ok(None);
            }
            hop(pager, &mut self.hops, "leaf chain")?;
            self.leaf
                .copy_from_slice(pager.page_ref(sys, self.next_leaf)?);
            self.enter_leaf()?;
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity check
// ---------------------------------------------------------------------------

/// Validates key ordering and structure; returns the number of entries.
///
/// # Errors
///
/// [`SqlError::Corrupt`] describing the first violation found.
pub fn validate(sys: &mut System, pager: &mut Pager, root: u32) -> Result<u64> {
    fn walk(
        sys: &mut System,
        pager: &mut Pager,
        pno: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        depth: usize,
    ) -> Result<u64> {
        if depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        let page = pager.page_ref(sys, pno)?;
        if page[0] != INTERIOR {
            let mut prev: Option<&[u8]> = None;
            let mut count = 0;
            for cell in cells(page)? {
                let key = cell?.key;
                if prev.is_some_and(|p| p >= key) {
                    return Err(corrupt("leaf keys out of order"));
                }
                if lo.is_some_and(|l| key < l) || hi.is_some_and(|h| key >= h) {
                    return Err(corrupt("leaf key outside separator bounds"));
                }
                prev = Some(key);
                count += 1;
            }
            return Ok(count);
        }
        // The recursion may evict this page: walk a copy.
        let page = page.to_vec();
        let n = interior_count(&page)?;
        let children = children(&page, n)?;
        let keys = separators(&page, n).collect::<Result<Vec<_>>>()?;
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("interior keys out of order"));
        }
        let mut count = 0;
        for (i, &child) in children.iter().enumerate() {
            let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
            let chi = if i == n { hi } else { Some(keys[i]) };
            count += walk(sys, pager, child, clo, chi, depth + 1)?;
        }
        Ok(count)
    }
    walk(sys, pager, root, None, None, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HostEnv;
    use cubicle_core::{IsolationMode, System};

    fn setup() -> (System, Pager) {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = HostEnv::new();
        let mut pager = Pager::open(&mut sys, Box::new(env), "/bt.db", 64).unwrap();
        pager.begin(&mut sys).unwrap();
        (sys, pager)
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_small() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..100u64 {
            root = insert(
                &mut sys,
                &mut pager,
                root,
                &k(i),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in 0..100u64 {
            let v = get(&mut sys, &mut pager, root, &k(i)).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
        }
        assert!(get(&mut sys, &mut pager, root, &k(1000)).unwrap().is_none());
    }

    #[test]
    fn splits_preserve_all_keys() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        // values sized so leaves hold ~40 cells → multiple levels
        let val = vec![0xAB; 90];
        for i in 0..5_000u64 {
            // insertion order deliberately scrambled
            let key = k(i.wrapping_mul(2_654_435_761) % 5_000);
            root = insert(&mut sys, &mut pager, root, &key, &val).unwrap();
        }
        let count = validate(&mut sys, &mut pager, root).unwrap();
        assert_eq!(count, 5_000);
    }

    #[test]
    fn replace_updates_in_place() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        root = insert(&mut sys, &mut pager, root, b"key", b"old").unwrap();
        root = insert(&mut sys, &mut pager, root, b"key", b"new").unwrap();
        assert_eq!(
            get(&mut sys, &mut pager, root, b"key").unwrap().unwrap(),
            b"new"
        );
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 1);
    }

    #[test]
    fn delete_removes() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..500u64 {
            root = insert(&mut sys, &mut pager, root, &k(i), b"x").unwrap();
        }
        for i in (0..500u64).step_by(2) {
            assert!(delete(&mut sys, &mut pager, root, &k(i)).unwrap());
        }
        assert!(
            !delete(&mut sys, &mut pager, root, &k(0)).unwrap(),
            "already gone"
        );
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 250);
        for i in 0..500u64 {
            let present = get(&mut sys, &mut pager, root, &k(i)).unwrap().is_some();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn cursor_scans_in_order() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in (0..1_000u64).rev() {
            root = insert(&mut sys, &mut pager, root, &k(i), &i.to_le_bytes()).unwrap();
        }
        let mut cur = Cursor::seek(&mut sys, &mut pager, root, None).unwrap();
        let mut seen = 0u64;
        while let Some((key, val)) = cur.next(&mut sys, &mut pager).unwrap() {
            assert_eq!(key, k(seen));
            assert_eq!(val, seen.to_le_bytes());
            seen += 1;
        }
        assert_eq!(seen, 1_000);
    }

    #[test]
    fn cursor_seek_starts_midway() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..100u64 {
            root = insert(&mut sys, &mut pager, root, &k(i * 2), b"v").unwrap();
        }
        // seek to a key between entries
        let mut cur = Cursor::seek(&mut sys, &mut pager, root, Some(&k(51))).unwrap();
        let (key, _) = cur.next(&mut sys, &mut pager).unwrap().unwrap();
        assert_eq!(key, k(52));
    }

    #[test]
    fn overflow_values_round_trip() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        root = insert(&mut sys, &mut pager, root, b"big", &big).unwrap();
        root = insert(&mut sys, &mut pager, root, b"small", b"s").unwrap();
        assert_eq!(
            get(&mut sys, &mut pager, root, b"big").unwrap().unwrap(),
            big
        );
        assert_eq!(
            get(&mut sys, &mut pager, root, b"small").unwrap().unwrap(),
            b"s"
        );
        // replacing the big value frees its chain (pages get reused)
        let before = pager.page_count();
        root = insert(&mut sys, &mut pager, root, b"big", b"now small").unwrap();
        let big2: Vec<u8> = vec![7; 20_000];
        root = insert(&mut sys, &mut pager, root, b"big2", &big2).unwrap();
        assert!(
            pager.page_count() <= before + 1,
            "freed overflow pages are reused"
        );
        assert_eq!(
            get(&mut sys, &mut pager, root, b"big2").unwrap().unwrap(),
            big2
        );
    }

    #[test]
    fn oversized_key_rejected() {
        let (mut sys, mut pager) = setup();
        let root = create(&mut sys, &mut pager).unwrap();
        let huge_key = vec![1u8; MAX_KEY + 1];
        assert!(matches!(
            insert(&mut sys, &mut pager, root, &huge_key, b"v"),
            Err(SqlError::Misuse(_))
        ));
    }

    #[test]
    fn free_tree_recycles_pages() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..2_000u64 {
            root = insert(&mut sys, &mut pager, root, &k(i), &[9u8; 100]).unwrap();
        }
        let peak = pager.page_count();
        free_tree(&mut sys, &mut pager, root).unwrap();
        let mut root2 = create(&mut sys, &mut pager).unwrap();
        for i in 0..2_000u64 {
            root2 = insert(&mut sys, &mut pager, root2, &k(i), &[9u8; 100]).unwrap();
        }
        assert!(
            pager.page_count() <= peak + 2,
            "second tree reuses freed pages"
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = HostEnv::new();
        let root;
        {
            let mut pager = Pager::open(&mut sys, Box::new(env.clone()), "/p.db", 64).unwrap();
            pager.begin(&mut sys).unwrap();
            let mut r = create(&mut sys, &mut pager).unwrap();
            for i in 0..300u64 {
                r = insert(&mut sys, &mut pager, r, &k(i), &i.to_le_bytes()).unwrap();
            }
            pager.set_schema_root(&mut sys, r).unwrap();
            pager.commit(&mut sys).unwrap();
            root = r;
        }
        let mut pager = Pager::open(&mut sys, Box::new(env), "/p.db", 64).unwrap();
        assert_eq!(pager.schema_root(), root);
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 300);
        for i in 0..300u64 {
            assert!(get(&mut sys, &mut pager, root, &k(i)).unwrap().is_some());
        }
    }
}
