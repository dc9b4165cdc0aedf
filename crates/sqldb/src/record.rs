//! Row record serialisation and memcomparable index-key encoding.

use crate::error::{Result, SqlError};
use crate::value::SqlValue;

// ---------------------------------------------------------------------------
// Record format (row payloads): tag byte + payload per value.
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BLOB: u8 = 4;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| SqlError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(SqlError::Corrupt("oversized varint".into()));
        }
    }
}

/// Serialises a row of values.
pub fn encode_record(values: &[SqlValue]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8 + 2);
    write_varint(&mut out, values.len() as u64);
    for v in values {
        match v {
            SqlValue::Null => out.push(TAG_NULL),
            SqlValue::Integer(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            SqlValue::Real(r) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.to_le_bytes());
            }
            SqlValue::Text(s) => {
                out.push(TAG_TEXT);
                write_varint(&mut out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            SqlValue::Blob(b) => {
                out.push(TAG_BLOB);
                write_varint(&mut out, b.len() as u64);
                out.extend_from_slice(b);
            }
        }
    }
    out
}

/// One field of a record, borrowed from the record bytes.
enum Field<'a> {
    Null,
    Int(i64),
    Real(f64),
    Text(&'a str),
    Blob(&'a [u8]),
}

impl Field<'_> {
    fn to_value(&self) -> SqlValue {
        match *self {
            Field::Null => SqlValue::Null,
            Field::Int(i) => SqlValue::Integer(i),
            Field::Real(r) => SqlValue::Real(r),
            Field::Text(s) => SqlValue::Text(s.to_owned()),
            Field::Blob(b) => SqlValue::Blob(b.to_vec()),
        }
    }
}

/// The `len` bytes at `pos`, advancing `pos` past them.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize, what: &str) -> Result<&'a [u8]> {
    let bytes = pos
        .checked_add(len)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| SqlError::Corrupt(format!("truncated {what}")))?;
    *pos += len;
    Ok(bytes)
}

/// Reads the field at `pos` and advances past it.
fn next_field<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Field<'a>> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| SqlError::Corrupt("truncated record".into()))?;
    *pos += 1;
    let word = |pos: &mut usize, what| -> Result<[u8; 8]> {
        Ok(take(buf, pos, 8, what)?.try_into().expect("8 bytes"))
    };
    Ok(match tag {
        TAG_NULL => Field::Null,
        TAG_INT => Field::Int(i64::from_le_bytes(word(pos, "int")?)),
        TAG_REAL => Field::Real(f64::from_le_bytes(word(pos, "real")?)),
        TAG_TEXT => {
            let len = read_varint(buf, pos)? as usize;
            Field::Text(
                std::str::from_utf8(take(buf, pos, len, "text")?)
                    .map_err(|_| SqlError::Corrupt("invalid utf-8 in text".into()))?,
            )
        }
        TAG_BLOB => {
            let len = read_varint(buf, pos)? as usize;
            Field::Blob(take(buf, pos, len, "blob")?)
        }
        t => return Err(SqlError::Corrupt(format!("unknown value tag {t}"))),
    })
}

/// A record's column count and the offset of its first field.
fn record_header(buf: &[u8]) -> Result<(usize, usize)> {
    let mut pos = 0;
    let n = read_varint(buf, &mut pos)? as usize;
    if n > 65_536 {
        return Err(SqlError::Corrupt("implausible column count".into()));
    }
    Ok((n, pos))
}

/// Deserialises a row of values.
///
/// # Errors
///
/// [`SqlError::Corrupt`] on malformed input.
pub fn decode_record(buf: &[u8]) -> Result<Vec<SqlValue>> {
    let (n, mut pos) = record_header(buf)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(next_field(buf, &mut pos)?.to_value());
    }
    Ok(out)
}

/// A record checked exactly like [`decode_record`] whose columns are
/// decoded only when read: a scan that filters on one column never
/// builds the others.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a> {
    buf: &'a [u8],
    len: usize,
    /// Offset of the first field.
    start: usize,
}

impl<'a> RecordView<'a> {
    /// Checks every field of `buf`.
    ///
    /// # Errors
    ///
    /// The [`SqlError::Corrupt`] that [`decode_record`] returns for
    /// `buf`.
    pub fn parse(buf: &'a [u8]) -> Result<RecordView<'a>> {
        let (len, start) = record_header(buf)?;
        let mut pos = start;
        for _ in 0..len {
            next_field(buf, &mut pos)?;
        }
        Ok(RecordView { buf, len, start })
    }

    /// Column `i`, or `None` past the stored columns. (`parse` checked
    /// every field, so reading one cannot fail.)
    pub fn get(&self, i: usize) -> Option<SqlValue> {
        self.fields().nth(i).map(|f| f.to_value())
    }

    /// Every stored column, as [`decode_record`] returns them.
    pub fn values(&self) -> Vec<SqlValue> {
        self.fields().map(|f| f.to_value()).collect()
    }

    fn fields(&self) -> impl Iterator<Item = Field<'a>> {
        let (buf, mut pos) = (self.buf, self.start);
        (0..self.len).map_while(move |_| next_field(buf, &mut pos).ok())
    }
}

// ---------------------------------------------------------------------------
// Memcomparable key encoding: byte order == SqlValue::total_cmp order.
// ---------------------------------------------------------------------------

const RANK_NULL: u8 = 0x10;
const RANK_NUM: u8 = 0x20;
const RANK_TEXT: u8 = 0x30;
const RANK_BLOB: u8 = 0x40;

fn f64_sort_bits(r: f64) -> u64 {
    let bits = r.to_bits();
    if bits & (1 << 63) != 0 {
        !bits // negative: flip everything
    } else {
        bits | (1 << 63) // positive: set sign bit
    }
}

/// Appends the memcomparable encoding of one value.
pub fn encode_key_value(out: &mut Vec<u8>, v: &SqlValue) {
    match v {
        SqlValue::Null => out.push(RANK_NULL),
        SqlValue::Integer(i) => {
            out.push(RANK_NUM);
            out.extend_from_slice(&f64_sort_bits(*i as f64).to_be_bytes());
            // disambiguate equal doubles from distinct giant ints
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        SqlValue::Real(r) => {
            out.push(RANK_NUM);
            out.extend_from_slice(&f64_sort_bits(*r).to_be_bytes());
            out.extend_from_slice(&f64_sort_bits(*r).to_be_bytes());
        }
        SqlValue::Text(s) => {
            out.push(RANK_TEXT);
            // escape 0x00 → 0x00 0xFF, terminate with 0x00 0x00
            for &b in s.as_bytes() {
                out.push(b);
                if b == 0 {
                    out.push(0xFF);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
        SqlValue::Blob(bytes) => {
            out.push(RANK_BLOB);
            for &b in bytes {
                out.push(b);
                if b == 0 {
                    out.push(0xFF);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

/// Encodes a composite key (index columns), optionally terminated by a
/// rowid for uniqueness.
pub fn encode_index_key(values: &[SqlValue], rowid: Option<i64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 10 + 9);
    for v in values {
        encode_key_value(&mut out, v);
    }
    if let Some(rid) = rowid {
        out.push(0xFE); // rowid marker, sorts after any value rank
        out.extend_from_slice(&encode_rowid(rid));
    }
    out
}

/// Encodes a rowid as 8 sortable big-endian bytes.
pub fn encode_rowid(rowid: i64) -> [u8; 8] {
    ((rowid as u64) ^ (1 << 63)).to_be_bytes()
}

/// Decodes a rowid from its sortable encoding.
pub fn decode_rowid(bytes: &[u8]) -> Result<i64> {
    let arr: [u8; 8] = bytes
        .get(..8)
        .ok_or_else(|| SqlError::Corrupt("truncated rowid".into()))?
        .try_into()
        .expect("8 bytes");
    Ok((u64::from_be_bytes(arr) ^ (1 << 63)) as i64)
}

/// Extracts the trailing rowid from an index key produced by
/// [`encode_index_key`] with `rowid: Some(_)`.
///
/// # Errors
///
/// [`SqlError::Corrupt`] when the marker is missing.
pub fn index_key_rowid(key: &[u8]) -> Result<i64> {
    if key.len() < 9 || key[key.len() - 9] != 0xFE {
        return Err(SqlError::Corrupt("index key has no rowid suffix".into()));
    }
    decode_rowid(&key[key.len() - 8..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_mpk::rng::Rng64;
    use std::cmp::Ordering;

    fn roundtrip(vals: Vec<SqlValue>) {
        let enc = encode_record(&vals);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(vals, dec);
    }

    #[test]
    fn record_round_trips() {
        roundtrip(vec![]);
        roundtrip(vec![SqlValue::Null]);
        roundtrip(vec![
            SqlValue::Integer(-42),
            SqlValue::Real(3.25),
            SqlValue::Text("héllo".into()),
            SqlValue::Blob(vec![0, 1, 255]),
            SqlValue::Null,
        ]);
        roundtrip(vec![SqlValue::Text("x".repeat(10_000))]);
    }

    #[test]
    fn record_rejects_garbage() {
        assert!(decode_record(&[5]).is_err());
        assert!(decode_record(&[1, 99]).is_err());
        assert!(decode_record(&[1, TAG_INT, 1, 2]).is_err());
    }

    fn random_value(rng: &mut Rng64) -> SqlValue {
        match rng.range_usize(0, 5) {
            0 => SqlValue::Null,
            1 => SqlValue::Integer(rng.next_u64() as i64),
            2 => SqlValue::Real(f64::from_bits(rng.next_u64())),
            3 => SqlValue::Text(
                (0..rng.range_usize(0, 200))
                    .map(|_| *rng.pick(&['a', 'Z', ' ', 'é', '€', '\0']))
                    .collect(),
            ),
            _ => {
                let len = rng.range_usize(0, 200);
                SqlValue::Blob(rng.bytes(len))
            }
        }
    }

    /// The lazy view agrees with `decode_record` on every record: the
    /// same columns, or the same `Corrupt` error, for valid, truncated,
    /// byte-smashed, length-smashed and random records.
    #[test]
    fn record_view_matches_decode_record() {
        let mut rng = Rng64::new(0x04EC_04D5);
        let (mut valid, mut invalid) = (0, 0);
        for case in 0..5_000 {
            let values: Vec<SqlValue> = (0..rng.range_usize(0, 8))
                .map(|_| random_value(&mut rng))
                .collect();
            let mut buf = encode_record(&values);
            match rng.range_usize(0, 5) {
                0 => {}
                1 => buf.truncate(rng.range_usize(0, buf.len() + 1)),
                2 => {
                    let at = rng.range_usize(0, buf.len());
                    buf[at] = rng.next_u32() as u8;
                }
                3 => {
                    // a wild varint (count or length) somewhere
                    let at = rng.range_usize(0, buf.len());
                    let mut wild = Vec::new();
                    write_varint(&mut wild, rng.next_u64() >> rng.range_u64(0, 64));
                    buf.splice(at..(at + wild.len()).min(buf.len()), wild);
                }
                _ => {
                    let len = rng.range_usize(0, 64);
                    buf = rng.bytes(len);
                }
            }
            let dbg = |v: &[SqlValue]| format!("{v:?}"); // NaN-safe equality
            match (decode_record(&buf), RecordView::parse(&buf)) {
                (Ok(want), Ok(view)) => {
                    valid += 1;
                    for i in 0..want.len() + 2 {
                        let got: Vec<SqlValue> = view.get(i).into_iter().collect();
                        let want: Vec<SqlValue> = want.get(i).cloned().into_iter().collect();
                        assert_eq!(dbg(&got), dbg(&want), "case {case} column {i}");
                    }
                    assert_eq!(dbg(&view.values()), dbg(&want), "case {case}");
                }
                (Err(want), Err(got)) => {
                    invalid += 1;
                    assert!(
                        matches!(want, SqlError::Corrupt(_)),
                        "case {case}: {want:?}"
                    );
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
                }
                (want, got) => panic!("case {case}: decode {want:?} but view {got:?}"),
            }
        }
        assert!(
            valid > 1_000 && invalid > 1_000,
            "{valid} valid, {invalid} invalid"
        );
    }

    #[test]
    fn key_order_matches_value_order() {
        let vals = [
            SqlValue::Null,
            SqlValue::Integer(i64::MIN / 2),
            SqlValue::Integer(-1),
            SqlValue::Real(-0.5),
            SqlValue::Integer(0),
            SqlValue::Real(0.5),
            SqlValue::Integer(1),
            SqlValue::Integer(1000),
            SqlValue::Real(1e18),
            SqlValue::Text("".into()),
            SqlValue::Text("a".into()),
            SqlValue::Text("ab".into()),
            SqlValue::Text("b".into()),
            SqlValue::Blob(vec![]),
            SqlValue::Blob(vec![1]),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                let ka = encode_index_key(std::slice::from_ref(a), None);
                let kb = encode_index_key(std::slice::from_ref(b), None);
                let expect = a.total_cmp(b);
                let got = ka.cmp(&kb);
                if expect != Ordering::Equal {
                    assert_eq!(got, expect, "{i} {a:?} vs {j} {b:?}");
                }
            }
        }
    }

    #[test]
    fn text_prefix_orders_before_longer() {
        let a = encode_index_key(&[SqlValue::Text("abc".into())], None);
        let b = encode_index_key(&[SqlValue::Text("abcd".into())], None);
        assert!(a < b);
    }

    #[test]
    fn embedded_nul_in_text_is_escaped() {
        let a = encode_index_key(&[SqlValue::Text("a\0b".into())], None);
        let b = encode_index_key(&[SqlValue::Text("a".into())], None);
        assert!(b < a, "'a' sorts before 'a\\0b'");
    }

    #[test]
    fn rowid_encoding_is_sortable() {
        let ids = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for w in ids.windows(2) {
            assert!(encode_rowid(w[0]) < encode_rowid(w[1]));
        }
        for id in ids {
            assert_eq!(decode_rowid(&encode_rowid(id)).unwrap(), id);
        }
    }

    #[test]
    fn index_key_rowid_extraction() {
        let k = encode_index_key(&[SqlValue::Text("x".into())], Some(77));
        assert_eq!(index_key_rowid(&k).unwrap(), 77);
        let k2 = encode_index_key(&[SqlValue::Integer(1)], None);
        assert!(index_key_rowid(&k2).is_err());
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let k1 = encode_index_key(&[SqlValue::Integer(1), SqlValue::Text("b".into())], None);
        let k2 = encode_index_key(&[SqlValue::Integer(2), SqlValue::Text("a".into())], None);
        assert!(k1 < k2, "first column dominates");
    }
}
