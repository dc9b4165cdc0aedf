//! Query execution: expression evaluation, access-path planning,
//! SELECT / UPDATE / DELETE.

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, UnOp};
use crate::btree;
use crate::db::{pad_row, Database, IndexInfo, QueryResult, TableInfo};
use crate::error::{Result, SqlError};
use crate::record::{
    decode_rowid, encode_index_key, encode_key_value, encode_rowid, index_key_rowid, RecordView,
};
use crate::value::SqlValue;
use cubicle_core::System;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Simulated cycles charged per row materialised from storage.
const ROW_DECODE_COST: u64 = 425;
/// Simulated cycles charged per expression-tree evaluation.
const EVAL_COST: u64 = 34;

// ---------------------------------------------------------------------------
// Name binding
// ---------------------------------------------------------------------------

/// One table's current row.
struct Binding<'a> {
    meta: &'a TableMeta,
    rowid: i64,
    row: Row<'a>,
}

#[derive(Clone, Copy)]
enum Row<'a> {
    /// Stored record bytes, decoded column by column as expressions
    /// read them.
    Record(RecordView<'a>),
    /// A materialised row, already padded to the table's width.
    Values(&'a [SqlValue]),
}

impl<'a> Binding<'a> {
    /// Binds a stored record after checking it like `decode_record`.
    fn record(meta: &'a TableMeta, rowid: i64, record: &'a [u8]) -> Result<Binding<'a>> {
        Ok(Binding {
            meta,
            rowid,
            row: Row::Record(RecordView::parse(record)?),
        })
    }

    /// Column `i`. A column added after the record was written reads as
    /// its default, as in `pad_row`.
    fn column(&self, i: usize) -> Cow<'a, SqlValue> {
        match self.row {
            Row::Values(values) => Cow::Borrowed(&values[i]),
            Row::Record(view) => match (view.get(i), &self.meta.info.columns[i].default) {
                (Some(v), _) => Cow::Owned(v),
                (None, Some(default)) => Cow::Borrowed(default),
                (None, None) => Cow::Owned(SqlValue::Null),
            },
        }
    }

    /// The whole row, as `pad_row(decode_record(..))` builds it.
    fn values(&self) -> Vec<SqlValue> {
        match self.row {
            Row::Values(values) => values.to_vec(),
            Row::Record(view) => pad_row(&self.meta.info, view.values()),
        }
    }
}

/// The rows in scope: the enclosing levels' bindings, then this level's.
#[derive(Clone, Copy, Default)]
struct Env<'a> {
    outer: Option<&'a Env<'a>>,
    here: &'a [Binding<'a>],
}

impl<'a> Env<'a> {
    /// `self` with one more, innermost, row in scope.
    fn with(&'a self, row: &'a Binding<'a>) -> Env<'a> {
        Env {
            outer: Some(self),
            here: std::slice::from_ref(row),
        }
    }

    fn len(&self) -> usize {
        self.here.len() + self.outer.map_or(0, Env::len)
    }

    /// Offers `f` each binding, outermost first, until it returns `Some`.
    fn find_binding<T>(&self, f: &mut impl FnMut(&'a Binding<'a>) -> Option<T>) -> Option<T> {
        if let Some(found) = self.outer.and_then(|o| o.find_binding(f)) {
            return Some(found);
        }
        self.here.iter().find_map(f)
    }

    /// Every row in scope, outermost first, materialised.
    fn values(&self) -> Vec<(i64, Vec<SqlValue>)> {
        let mut out = self.outer.map_or_else(Vec::new, Env::values);
        out.extend(self.here.iter().map(|b| (b.rowid, b.values())));
        out
    }

    fn resolve(&self, table: Option<&str>, name: &str) -> Result<Cow<'a, SqlValue>> {
        let single = self.len() == 1;
        let mut found = None;
        let early = self.find_binding(&mut |b| {
            if table.is_some_and(|t| !b.meta.alias.eq_ignore_ascii_case(t)) {
                return None;
            }
            let position = |col: &str| {
                b.meta
                    .info
                    .columns
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(col))
            };
            if name.eq_ignore_ascii_case("rowid")
                && position("rowid").is_none()
                && (table.is_some() || single)
            {
                return Some(Ok(Cow::Owned(SqlValue::Integer(b.rowid))));
            }
            if let Some(i) = position(name) {
                if found.is_some() {
                    return Some(Err(SqlError::Misuse(format!("ambiguous column `{name}`"))));
                }
                found = Some((b, i));
            }
            None
        });
        if let Some(result) = early {
            return result;
        }
        found
            .map(|(b, i)| b.column(i))
            .ok_or_else(|| SqlError::NoSuchColumn(name.into()))
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

type AggResolver<'a> = &'a dyn Fn(&Expr) -> Option<SqlValue>;

/// Evaluates `expr`; a literal or a materialised column comes back
/// borrowed.
fn eval<'a>(
    sys: &mut System,
    expr: &'a Expr,
    env: &Env<'a>,
    aggs: Option<AggResolver>,
) -> Result<Cow<'a, SqlValue>> {
    sys.charge(EVAL_COST);
    if let Some(resolver) = aggs {
        if let Some(v) = resolver(expr) {
            return Ok(Cow::Owned(v));
        }
    }
    match expr {
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        Expr::Column { table, name } => env.resolve(table.as_deref(), name),
        _ => eval_computed(sys, expr, env, aggs).map(Cow::Owned),
    }
}

/// The operator nodes of [`eval`], which compute a fresh value.
fn eval_computed<'a>(
    sys: &mut System,
    expr: &'a Expr,
    env: &Env<'a>,
    aggs: Option<AggResolver>,
) -> Result<SqlValue> {
    match expr {
        Expr::Lit(_) | Expr::Column { .. } => unreachable!("eval returns these borrowed"),
        Expr::Unary(op, inner) => {
            let v = eval(sys, inner, env, aggs)?;
            match op {
                UnOp::Neg => match *v {
                    SqlValue::Integer(i) => Ok(SqlValue::Integer(i.wrapping_neg())),
                    SqlValue::Real(r) => Ok(SqlValue::Real(-r)),
                    SqlValue::Null => Ok(SqlValue::Null),
                    ref other => Err(SqlError::Type(format!("cannot negate {other:?}"))),
                },
                UnOp::Not => match v.truthy() {
                    None => Ok(SqlValue::Null),
                    Some(b) => Ok(SqlValue::Integer(i64::from(!b))),
                },
            }
        }
        Expr::Binary(op, l, r) => eval_binary(sys, *op, l, r, env, aggs),
        Expr::IsNull { expr, negated } => {
            let v = eval(sys, expr, env, aggs)?;
            Ok(SqlValue::Integer(i64::from(v.is_null() != *negated)))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(sys, expr, env, aggs)?;
            let p = eval(sys, pattern, env, aggs)?;
            if v.is_null() || p.is_null() {
                return Ok(SqlValue::Null);
            }
            let matched = like(&text_of(&p), &text_of(&v));
            Ok(SqlValue::Integer(i64::from(matched != *negated)))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(sys, expr, env, aggs)?;
            let lo = eval(sys, lo, env, aggs)?;
            let hi = eval(sys, hi, env, aggs)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(SqlValue::Null);
            }
            let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(SqlValue::Integer(i64::from(inside != *negated)))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(sys, expr, env, aggs)?;
            if v.is_null() {
                return Ok(SqlValue::Null);
            }
            let mut saw_null = false;
            for item in list {
                let c = eval(sys, item, env, aggs)?;
                if c.is_null() {
                    saw_null = true;
                } else if v.total_cmp(&c) == std::cmp::Ordering::Equal {
                    return Ok(SqlValue::Integer(i64::from(!negated)));
                }
            }
            if saw_null {
                Ok(SqlValue::Null)
            } else {
                Ok(SqlValue::Integer(i64::from(*negated)))
            }
        }
        Expr::FnCall { name, args, star } => {
            if is_aggregate_call(name, args, *star) {
                return Err(SqlError::Misuse(format!(
                    "aggregate {name}() used outside aggregation"
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(sys, a, env, aggs)?.into_owned());
            }
            scalar_fn(name, &vals, *star)
        }
    }
}

fn eval_binary<'a>(
    sys: &mut System,
    op: BinOp,
    l: &'a Expr,
    r: &'a Expr,
    env: &Env<'a>,
    aggs: Option<AggResolver>,
) -> Result<SqlValue> {
    // short-circuit three-valued AND/OR
    match op {
        BinOp::And => {
            let lv = eval(sys, l, env, aggs)?.truthy();
            if lv == Some(false) {
                return Ok(SqlValue::Integer(0));
            }
            let rv = eval(sys, r, env, aggs)?.truthy();
            return Ok(match (lv, rv) {
                (_, Some(false)) => SqlValue::Integer(0),
                (Some(true), Some(true)) => SqlValue::Integer(1),
                _ => SqlValue::Null,
            });
        }
        BinOp::Or => {
            let lv = eval(sys, l, env, aggs)?.truthy();
            if lv == Some(true) {
                return Ok(SqlValue::Integer(1));
            }
            let rv = eval(sys, r, env, aggs)?.truthy();
            return Ok(match (lv, rv) {
                (_, Some(true)) => SqlValue::Integer(1),
                (Some(false), Some(false)) => SqlValue::Integer(0),
                _ => SqlValue::Null,
            });
        }
        _ => {}
    }
    let lv = eval(sys, l, env, aggs)?;
    let rv = eval(sys, r, env, aggs)?;
    if lv.is_null() || rv.is_null() {
        return Ok(SqlValue::Null);
    }
    use std::cmp::Ordering;
    let cmp = |ord: &[Ordering]| SqlValue::Integer(i64::from(ord.contains(&lv.total_cmp(&rv))));
    Ok(match op {
        BinOp::Eq => cmp(&[Ordering::Equal]),
        BinOp::Ne => cmp(&[Ordering::Less, Ordering::Greater]),
        BinOp::Lt => cmp(&[Ordering::Less]),
        BinOp::Le => cmp(&[Ordering::Less, Ordering::Equal]),
        BinOp::Gt => cmp(&[Ordering::Greater]),
        BinOp::Ge => cmp(&[Ordering::Greater, Ordering::Equal]),
        BinOp::Concat => SqlValue::Text(format!("{}{}", text_of(&lv), text_of(&rv))),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &lv, &rv)?,
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    })
}

fn arith(op: BinOp, l: &SqlValue, r: &SqlValue) -> Result<SqlValue> {
    if let (SqlValue::Integer(a), SqlValue::Integer(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => SqlValue::Integer(a.wrapping_add(*b)),
            BinOp::Sub => SqlValue::Integer(a.wrapping_sub(*b)),
            BinOp::Mul => SqlValue::Integer(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Integer(a.wrapping_div(*b))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Integer(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!(),
        });
    }
    let (Some(a), Some(b)) = (numeric_of(l), numeric_of(r)) else {
        return Err(SqlError::Type(format!("arithmetic on {l:?} and {r:?}")));
    };
    Ok(match op {
        BinOp::Add => SqlValue::Real(a + b),
        BinOp::Sub => SqlValue::Real(a - b),
        BinOp::Mul => SqlValue::Real(a * b),
        BinOp::Div => {
            if b == 0.0 {
                SqlValue::Null
            } else {
                SqlValue::Real(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                SqlValue::Null
            } else {
                SqlValue::Real(a % b)
            }
        }
        _ => unreachable!(),
    })
}

fn numeric_of(v: &SqlValue) -> Option<f64> {
    match v {
        SqlValue::Integer(i) => Some(*i as f64),
        SqlValue::Real(r) => Some(*r),
        SqlValue::Text(s) => s.trim().parse().ok().or(Some(0.0)),
        _ => None,
    }
}

fn text_of(v: &SqlValue) -> Cow<'_, str> {
    match v {
        SqlValue::Text(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    }
}

/// `LIKE`. A `'%lit%'` pattern whose literal holds no wildcard is an
/// ASCII case-insensitive substring search; any other pattern goes to
/// [`like_match`].
fn like(pattern: &str, text: &str) -> bool {
    match pattern.as_bytes() {
        [b'%', lit @ .., b'%'] if !lit.iter().any(|&c| c == b'%' || c == b'_') => {
            contains_ignore_ascii_case(text.as_bytes(), lit)
        }
        _ => like_match(pattern, text),
    }
}

fn contains_ignore_ascii_case(text: &[u8], lit: &[u8]) -> bool {
    let Some((first, rest)) = lit.split_first() else {
        return true;
    };
    let Some(last) = text.len().checked_sub(lit.len()) else {
        return false;
    };
    // compare the rest only where the first byte matches
    let first = first.to_ascii_lowercase();
    (0..=last).any(|i| {
        text[i].to_ascii_lowercase() == first
            && text[i + 1..i + lit.len()].eq_ignore_ascii_case(rest)
    })
}

/// `LIKE` matcher: `%` any run, `_` one byte, ASCII case-insensitive.
///
/// Iterative, with backtracking to the most recent `%` only: a later
/// `%` subsumes every earlier choice, so the match takes
/// O(pattern × text) steps however many `%` the pattern holds.
pub(crate) fn like_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0, 0);
    // After the last `%` seen: the pattern position behind it and the
    // text position its run currently ends at.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some(&c) if c == b'_' || c.eq_ignore_ascii_case(&t[ti]) => {
                pi += 1;
                ti += 1;
            }
            _ => match star {
                // Let the last `%` swallow one more byte and retry.
                Some((sp, st)) => {
                    pi = sp;
                    ti = st + 1;
                    star = Some((sp, st + 1));
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

fn scalar_fn(name: &str, vals: &[SqlValue], star: bool) -> Result<SqlValue> {
    if star {
        return Err(SqlError::Misuse(format!("{name}(*) is not a scalar call")));
    }
    let arg = |i: usize| -> Result<&SqlValue> {
        vals.get(i)
            .ok_or_else(|| SqlError::Misuse(format!("{name}: missing argument {i}")))
    };
    match name {
        "length" => Ok(match arg(0)? {
            SqlValue::Null => SqlValue::Null,
            SqlValue::Text(s) => SqlValue::Integer(s.chars().count() as i64),
            SqlValue::Blob(b) => SqlValue::Integer(b.len() as i64),
            other => SqlValue::Integer(other.to_string().len() as i64),
        }),
        "abs" => Ok(match arg(0)? {
            SqlValue::Null => SqlValue::Null,
            SqlValue::Integer(i) => SqlValue::Integer(i.wrapping_abs()),
            SqlValue::Real(r) => SqlValue::Real(r.abs()),
            other => SqlValue::Real(numeric_of(other).unwrap_or(0.0).abs()),
        }),
        "upper" => Ok(match arg(0)? {
            SqlValue::Null => SqlValue::Null,
            v => SqlValue::Text(text_of(v).to_uppercase()),
        }),
        "lower" => Ok(match arg(0)? {
            SqlValue::Null => SqlValue::Null,
            v => SqlValue::Text(text_of(v).to_lowercase()),
        }),
        "typeof" => Ok(SqlValue::Text(
            match arg(0)? {
                SqlValue::Null => "null",
                SqlValue::Integer(_) => "integer",
                SqlValue::Real(_) => "real",
                SqlValue::Text(_) => "text",
                SqlValue::Blob(_) => "blob",
            }
            .into(),
        )),
        "substr" | "substring" => {
            let s = match arg(0)? {
                SqlValue::Null => return Ok(SqlValue::Null),
                v => text_of(v),
            };
            let chars: Vec<char> = s.chars().collect();
            let start = arg(1)?.as_i64().unwrap_or(1);
            let from = if start > 0 {
                (start - 1) as usize
            } else {
                chars.len().saturating_sub(start.unsigned_abs() as usize)
            };
            let len = match vals.get(2) {
                Some(v) => v.as_i64().unwrap_or(0).max(0) as usize,
                None => chars.len(),
            };
            Ok(SqlValue::Text(chars.iter().skip(from).take(len).collect()))
        }
        "coalesce" => Ok(vals
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(SqlValue::Null)),
        "ifnull" => {
            let a = arg(0)?;
            Ok(if a.is_null() {
                arg(1)?.clone()
            } else {
                a.clone()
            })
        }
        "nullif" => {
            let (a, b) = (arg(0)?, arg(1)?);
            if !a.is_null() && !b.is_null() && a.total_cmp(b) == std::cmp::Ordering::Equal {
                Ok(SqlValue::Null)
            } else {
                Ok(a.clone())
            }
        }
        "min" | "max" if vals.len() >= 2 => {
            if vals.iter().any(SqlValue::is_null) {
                return Ok(SqlValue::Null);
            }
            let mut best = vals[0].clone();
            for v in &vals[1..] {
                let take = if name == "min" {
                    v.total_cmp(&best) == std::cmp::Ordering::Less
                } else {
                    v.total_cmp(&best) == std::cmp::Ordering::Greater
                };
                if take {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "round" => {
            let v = match numeric_of(arg(0)?) {
                Some(v) => v,
                None => return Ok(SqlValue::Null),
            };
            // SQLite clamps the digit count to [0, 30]
            let digits = vals.get(1).and_then(SqlValue::as_i64).unwrap_or(0);
            let f = 10f64.powi(digits.clamp(0, 30) as i32);
            // from 2^52 up every double is a whole number: nothing to round
            if (v * f).abs() >= 4_503_599_627_370_496.0 {
                return Ok(SqlValue::Real(v));
            }
            Ok(SqlValue::Real((v * f).round() / f))
        }
        other => Err(SqlError::Misuse(format!("unknown function {other}()"))),
    }
}

fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max" | "total")
}

/// `min`/`max` are aggregates only in their single-argument form; with
/// two or more arguments they are scalar functions (SQLite semantics).
fn is_aggregate_call(name: &str, args: &[Expr], star: bool) -> bool {
    match name {
        "min" | "max" => args.len() == 1 && !star,
        other => is_aggregate(other),
    }
}

/// Evaluates an expression with no row context (INSERT values, defaults).
pub(crate) fn eval_const(_db: &Database, sys: &mut System, expr: &Expr) -> Result<SqlValue> {
    eval(sys, expr, &Env::default(), None).map(Cow::into_owned)
}

// ---------------------------------------------------------------------------
// Access-path planning
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Access {
    FullScan,
    RowidEq(Expr),
    RowidRange {
        lo: Option<Expr>,
        hi: Option<Expr>,
    },
    IndexEq {
        index: IndexInfo,
        eq: Vec<Expr>,
    },
    IndexRange {
        index: IndexInfo,
        lo: Option<Expr>,
        hi: Option<Expr>,
    },
}

fn split_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary(BinOp::And, l, r) = expr {
        split_conjuncts(l, out);
        split_conjuncts(r, out);
    } else {
        out.push(expr.clone());
    }
}

/// All column references in an expression.
fn column_refs(expr: &Expr, out: &mut Vec<(Option<String>, String)>) {
    match expr {
        Expr::Column { table, name } => out.push((table.clone(), name.clone())),
        Expr::Lit(_) => {}
        Expr::Unary(_, e) => column_refs(e, out),
        Expr::Binary(_, l, r) => {
            column_refs(l, out);
            column_refs(r, out);
        }
        Expr::Like { expr, pattern, .. } => {
            column_refs(expr, out);
            column_refs(pattern, out);
        }
        Expr::Between { expr, lo, hi, .. } => {
            column_refs(expr, out);
            column_refs(lo, out);
            column_refs(hi, out);
        }
        Expr::InList { expr, list, .. } => {
            column_refs(expr, out);
            for e in list {
                column_refs(e, out);
            }
        }
        Expr::IsNull { expr, .. } => column_refs(expr, out),
        Expr::FnCall { args, .. } => {
            for a in args {
                column_refs(a, out);
            }
        }
    }
}

struct TableMeta {
    alias: String,
    info: TableInfo,
}

/// Can `expr` be evaluated with only `bound` tables in scope?
fn bound_by(expr: &Expr, bound: &[&TableMeta]) -> bool {
    let mut refs = Vec::new();
    column_refs(expr, &mut refs);
    refs.iter().all(|(tbl, name)| {
        bound.iter().any(|m| {
            let alias_ok = tbl
                .as_deref()
                .is_none_or(|t| m.alias.eq_ignore_ascii_case(t));
            alias_ok
                && (m
                    .info
                    .columns
                    .iter()
                    .any(|c| c.name.eq_ignore_ascii_case(name))
                    || name.eq_ignore_ascii_case("rowid"))
        })
    })
}

/// Is `expr` exactly a reference to column `col` of table `meta`?
fn is_col_of(expr: &Expr, meta: &TableMeta, col: &str) -> bool {
    match expr {
        Expr::Column { table, name } => {
            name.eq_ignore_ascii_case(col)
                && table
                    .as_deref()
                    .is_none_or(|t| meta.alias.eq_ignore_ascii_case(t))
        }
        _ => false,
    }
}

fn is_rowid_col(expr: &Expr, meta: &TableMeta) -> bool {
    if let Expr::Column { table, name } = expr {
        let alias_ok = table
            .as_deref()
            .is_none_or(|t| meta.alias.eq_ignore_ascii_case(t));
        if !alias_ok {
            return false;
        }
        if name.eq_ignore_ascii_case("rowid") {
            return true;
        }
        if let Some(pk) = meta.info.rowid_alias {
            return meta.info.columns[pk].name.eq_ignore_ascii_case(name);
        }
    }
    false
}

fn choose_access(
    meta: &TableMeta,
    indexes: &[IndexInfo],
    conjuncts: &[Expr],
    outer: &[&TableMeta],
) -> Access {
    let usable: Vec<&Expr> = conjuncts.iter().collect();
    // 1. rowid equality
    for c in &usable {
        if let Expr::Binary(BinOp::Eq, l, r) = c {
            for (col, other) in [(l, r), (r, l)] {
                if is_rowid_col(col, meta) && bound_by(other, outer) {
                    return Access::RowidEq((**other).clone());
                }
            }
        }
    }
    // 2. index equality on the leading column(s)
    let mut best: Option<(usize, IndexInfo, Vec<Expr>)> = None;
    for idx in indexes {
        let mut eqs = Vec::new();
        for &ci in &idx.col_indices {
            let col = &meta.info.columns[ci].name;
            let found = usable.iter().find_map(|c| {
                if let Expr::Binary(BinOp::Eq, l, r) = c {
                    for (side, other) in [(l, r), (r, l)] {
                        if is_col_of(side, meta, col) && bound_by(other, outer) {
                            return Some((**other).clone());
                        }
                    }
                }
                None
            });
            match found {
                Some(e) => eqs.push(e),
                None => break,
            }
        }
        if !eqs.is_empty() && best.as_ref().is_none_or(|(n, _, _)| eqs.len() > *n) {
            best = Some((eqs.len(), idx.clone(), eqs));
        }
    }
    if let Some((_, index, eq)) = best {
        return Access::IndexEq { index, eq };
    }
    // 3. rowid / index ranges (including BETWEEN)
    let mut rowid_lo = None;
    let mut rowid_hi = None;
    for c in &usable {
        match c {
            Expr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r) => {
                for (col, other, flipped) in [(l, r, false), (r, l, true)] {
                    if is_rowid_col(col, meta) && bound_by(other, outer) {
                        let effective_gt = matches!(op, BinOp::Gt | BinOp::Ge) != flipped;
                        if effective_gt {
                            rowid_lo = Some((**other).clone());
                        } else {
                            rowid_hi = Some((**other).clone());
                        }
                    }
                }
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } if is_rowid_col(expr, meta) && bound_by(lo, outer) && bound_by(hi, outer) => {
                rowid_lo = Some((**lo).clone());
                rowid_hi = Some((**hi).clone());
            }
            _ => {}
        }
    }
    if rowid_lo.is_some() || rowid_hi.is_some() {
        return Access::RowidRange {
            lo: rowid_lo,
            hi: rowid_hi,
        };
    }
    for idx in indexes {
        let first_col = &meta.info.columns[idx.col_indices[0]].name;
        let mut lo = None;
        let mut hi = None;
        for c in &usable {
            match c {
                Expr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r) => {
                    for (col, other, flipped) in [(l, r, false), (r, l, true)] {
                        if is_col_of(col, meta, first_col) && bound_by(other, outer) {
                            let effective_gt = matches!(op, BinOp::Gt | BinOp::Ge) != flipped;
                            if effective_gt {
                                lo = Some((**other).clone());
                            } else {
                                hi = Some((**other).clone());
                            }
                        }
                    }
                }
                Expr::Between {
                    expr,
                    lo: l,
                    hi: h,
                    negated: false,
                } if is_col_of(expr, meta, first_col)
                    && bound_by(l, outer)
                    && bound_by(h, outer) =>
                {
                    lo = Some((**l).clone());
                    hi = Some((**h).clone());
                }
                _ => {}
            }
        }
        if lo.is_some() || hi.is_some() {
            return Access::IndexRange {
                index: idx.clone(),
                lo,
                hi,
            };
        }
    }
    Access::FullScan
}

// ---------------------------------------------------------------------------
// Row production
// ---------------------------------------------------------------------------

impl Access {
    /// Does the access walk the table's own B-tree in key order?
    fn is_scan(&self) -> bool {
        matches!(self, Access::FullScan | Access::RowidRange { .. })
    }
}

/// Takes each `(rowid, record bytes)` a table access yields.
type RecordSink<'a> = &'a mut dyn FnMut(&mut Database, &mut System, i64, &[u8]) -> Result<()>;

/// The row source: hands `each` the rowid and record bytes of every row
/// one table access yields under the outer environment `env`, charging
/// `ROW_DECODE_COST` per row.
fn scan(
    db: &mut Database,
    sys: &mut System,
    meta: &TableMeta,
    access: &Access,
    env: &Env,
    each: RecordSink,
) -> Result<()> {
    let root = meta.info.root;
    // Scans read the table's leaves; probes collect rowids to look up.
    let rowids: Vec<i64> = match access {
        Access::FullScan => {
            let mut cur = btree::Cursor::seek(sys, &mut db.pager, root, None)?;
            while let Some((key, record)) = cur.next(sys, &mut db.pager)? {
                sys.charge(ROW_DECODE_COST);
                each(db, sys, decode_rowid(key)?, record)?;
            }
            return Ok(());
        }
        Access::RowidRange { lo, hi } => {
            let mut bound = |e: &Option<Expr>| -> Result<Option<i64>> {
                match e {
                    Some(e) => Ok(eval(sys, e, env, None)?.as_i64()),
                    None => Ok(None),
                }
            };
            let (lo_id, hi_id) = (bound(lo)?, bound(hi)?);
            let start = lo_id.map(encode_rowid);
            let mut cur = btree::Cursor::seek(
                sys,
                &mut db.pager,
                root,
                start.as_ref().map(|s| s.as_slice()),
            )?;
            while let Some((key, record)) = cur.next(sys, &mut db.pager)? {
                let rowid = decode_rowid(key)?;
                if hi_id.is_some_and(|h| rowid > h) {
                    break;
                }
                sys.charge(ROW_DECODE_COST);
                each(db, sys, rowid, record)?;
            }
            return Ok(());
        }
        Access::RowidEq(e) => eval(sys, e, env, None)?.as_i64().into_iter().collect(),
        Access::IndexEq { index, eq } => {
            let mut prefix = Vec::new();
            for e in eq {
                encode_key_value(&mut prefix, &*eval(sys, e, env, None)?);
            }
            let mut cur = btree::Cursor::seek(sys, &mut db.pager, index.root, Some(&prefix))?;
            let mut rowids = Vec::new();
            while let Some((key, _)) = cur.next(sys, &mut db.pager)? {
                if !key.starts_with(&prefix) {
                    break;
                }
                rowids.push(index_key_rowid(key)?);
            }
            rowids
        }
        Access::IndexRange { index, lo, hi } => {
            let mut bound = |e: &Option<Expr>| -> Result<Option<Vec<u8>>> {
                let Some(e) = e else { return Ok(None) };
                let mut key = Vec::new();
                encode_key_value(&mut key, &*eval(sys, e, env, None)?);
                Ok(Some(key))
            };
            let lo_key = bound(lo)?;
            // all keys equal to `hi` sort below `hi` + 0xFF
            let hi_stop = bound(hi)?.map(|mut k| {
                k.push(0xFF);
                k
            });
            let mut cur = btree::Cursor::seek(sys, &mut db.pager, index.root, lo_key.as_deref())?;
            let mut rowids = Vec::new();
            while let Some((key, _)) = cur.next(sys, &mut db.pager)? {
                if hi_stop.as_deref().is_some_and(|h| key >= h) {
                    break;
                }
                rowids.push(index_key_rowid(key)?);
            }
            rowids
        }
    };
    for rowid in rowids {
        if let Some(record) = btree::get(sys, &mut db.pager, root, &encode_rowid(rowid))? {
            sys.charge(ROW_DECODE_COST);
            each(db, sys, rowid, &record)?;
        }
    }
    Ok(())
}

/// Binds each row of one table access over `env` and runs `f` in the
/// extended environment.
///
/// With `stream` set, a scan runs `f` on each row as the cursor yields
/// it, reading the record in the cursor's leaf copy. Otherwise the rows
/// are collected first and `f` runs once the access is done, so `f`
/// may use the pager without interleaving its calls with the access's.
fn for_each_row(
    db: &mut Database,
    sys: &mut System,
    meta: &TableMeta,
    access: &Access,
    env: &Env,
    stream: bool,
    f: &mut dyn FnMut(&mut Database, &mut System, &Env) -> Result<()>,
) -> Result<()> {
    if stream && access.is_scan() {
        return scan(db, sys, meta, access, env, &mut |db, sys, rowid, record| {
            let row = Binding::record(meta, rowid, record)?;
            f(db, sys, &env.with(&row))
        });
    }
    let mut rows = Vec::new();
    scan(db, sys, meta, access, env, &mut |_, _, rowid, record| {
        RecordView::parse(record)?;
        rows.push((rowid, record.to_vec()));
        Ok(())
    })?;
    for (rowid, record) in &rows {
        let row = Binding::record(meta, *rowid, record)?;
        f(db, sys, &env.with(&row))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum AggState {
    Count(u64),
    Sum {
        total: f64,
        ints: i64,
        all_int: bool,
        seen: bool,
    },
    Min(Option<SqlValue>),
    Max(Option<SqlValue>),
    Avg {
        total: f64,
        n: u64,
    },
}

impl AggState {
    fn new(name: &str) -> AggState {
        match name {
            "count" => AggState::Count(0),
            "sum" | "total" => AggState::Sum {
                total: 0.0,
                ints: 0,
                all_int: true,
                seen: false,
            },
            "min" => AggState::Min(None),
            "max" => AggState::Max(None),
            "avg" => AggState::Avg { total: 0.0, n: 0 },
            _ => unreachable!("checked by is_aggregate"),
        }
    }

    fn feed(&mut self, v: Option<&SqlValue>) {
        match self {
            AggState::Count(n) => {
                if v.is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggState::Sum {
                total,
                ints,
                all_int,
                seen,
            } => {
                if let Some(v) = v {
                    match v {
                        SqlValue::Integer(i) => {
                            *ints = ints.wrapping_add(*i);
                            *total += *i as f64;
                            *seen = true;
                        }
                        SqlValue::Real(r) => {
                            *total += r;
                            *all_int = false;
                            *seen = true;
                        }
                        SqlValue::Null => {}
                        other => {
                            *total += numeric_of(other).unwrap_or(0.0);
                            *all_int = false;
                            *seen = true;
                        }
                    }
                }
            }
            AggState::Min(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && best
                            .as_ref()
                            .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Greater)
                    {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        *total += x;
                        *n += 1;
                    }
                }
            }
        }
    }

    fn finish(&self, name: &str) -> SqlValue {
        match self {
            AggState::Count(n) => SqlValue::Integer(*n as i64),
            AggState::Sum {
                total,
                ints,
                all_int,
                seen,
            } => {
                if !seen {
                    if name == "total" {
                        SqlValue::Real(0.0)
                    } else {
                        SqlValue::Null
                    }
                } else if *all_int && name == "sum" {
                    SqlValue::Integer(*ints)
                } else {
                    SqlValue::Real(*total)
                }
            }
            AggState::Min(b) | AggState::Max(b) => b.clone().unwrap_or(SqlValue::Null),
            AggState::Avg { total, n } => {
                if *n == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Real(total / *n as f64)
                }
            }
        }
    }
}

fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::FnCall { name, args, star } if is_aggregate_call(name, args, *star) => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::FnCall { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Unary(_, e) | Expr::IsNull { expr: e, .. } => collect_aggregates(e, out),
        Expr::Binary(_, l, r) => {
            collect_aggregates(l, out);
            collect_aggregates(r, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(lo, out);
            collect_aggregates(hi, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Lit(_) | Expr::Column { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// Executes a SELECT statement.
pub(crate) fn run_select(
    db: &mut Database,
    sys: &mut System,
    sel: &SelectStmt,
) -> Result<QueryResult> {
    // Resolve FROM tables.
    let mut metas: Vec<TableMeta> = Vec::new();
    for tref in &sel.from {
        let info = db.table(&tref.table)?.clone();
        metas.push(TableMeta {
            alias: tref.alias.clone().unwrap_or_else(|| tref.table.clone()),
            info,
        });
    }
    // Expand select items.
    let mut items: Vec<(Expr, String)> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => {
                if metas.is_empty() {
                    return Err(SqlError::Misuse("SELECT * without FROM".into()));
                }
                for m in &metas {
                    for c in &m.info.columns {
                        items.push((
                            Expr::Column {
                                table: Some(m.alias.clone()),
                                name: c.name.clone(),
                            },
                            c.name.clone(),
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    other => format!("{other:?}").chars().take(24).collect(),
                });
                items.push((expr.clone(), name));
            }
        }
    }
    let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();

    // Validate all column references up front (so `SELECT nope FROM t`
    // errors even on an empty table, like SQLite's prepare step).
    {
        let all: Vec<&TableMeta> = metas.iter().collect();
        let mut exprs: Vec<&Expr> = items.iter().map(|(e, _)| e).collect();
        if let Some(w) = &sel.where_ {
            exprs.push(w);
        }
        exprs.extend(sel.group_by.iter());
        exprs.extend(sel.having.iter());
        exprs.extend(sel.order_by.iter().map(|(e, _)| e));
        for e in exprs {
            let mut refs = Vec::new();
            column_refs(e, &mut refs);
            for (tbl, name) in refs {
                let probe = Expr::Column {
                    table: tbl.clone(),
                    name: name.clone(),
                };
                if !bound_by(&probe, &all) {
                    return Err(SqlError::NoSuchColumn(match tbl {
                        Some(t) => format!("{t}.{name}"),
                        None => name,
                    }));
                }
            }
        }
    }

    // Conjuncts & aggregation setup.
    let mut conjuncts = Vec::new();
    if let Some(w) = &sel.where_ {
        split_conjuncts(w, &mut conjuncts);
    }
    let mut agg_exprs = Vec::new();
    for (e, _) in &items {
        collect_aggregates(e, &mut agg_exprs);
    }
    for (e, _) in &sel.order_by {
        collect_aggregates(e, &mut agg_exprs);
    }
    if let Some(h) = &sel.having {
        collect_aggregates(h, &mut agg_exprs);
    }
    let aggregate_mode = !agg_exprs.is_empty() || !sel.group_by.is_empty();
    if sel.having.is_some() && !aggregate_mode {
        return Err(SqlError::Misuse(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    // Row collection via recursive nested-loop join with index probes.
    // Agg mode keeps each group's states and a snapshot of its first row.
    // A B-tree map compares the short keys instead of hashing them on
    // every row; `group_order` keeps the groups in first-seen order.
    type Group = (Vec<AggState>, Vec<(i64, Vec<SqlValue>)>);
    let mut groups: BTreeMap<Vec<u8>, Group> = BTreeMap::new();
    let mut group_order: Vec<Vec<u8>> = Vec::new();
    let mut rows_out: Vec<Vec<SqlValue>> = Vec::new(); // plain mode

    // each conjunct is applied at the earliest depth where it is bound
    let depth_of = |c: &Expr, metas: &[TableMeta]| -> usize {
        for d in 0..=metas.len() {
            let bound: Vec<&TableMeta> = metas[..d].iter().collect();
            if bound_by(c, &bound) {
                return d;
            }
        }
        metas.len()
    };
    let conjunct_depths: Vec<usize> = conjuncts.iter().map(|c| depth_of(c, &metas)).collect();

    struct Walk<'a> {
        metas: &'a [TableMeta],
        conjuncts: &'a [Expr],
        conjunct_depths: &'a [usize],
    }

    /// Binds level `depth` of the join and recurses; `visit` sees each
    /// row combination that passes every conjunct. The innermost level
    /// streams its scan: `visit` only evaluates, so it adds no pager
    /// calls between the cursor's. Outer levels collect their rows
    /// because the levels inside them do use the pager.
    fn descend(
        w: &Walk,
        db: &mut Database,
        sys: &mut System,
        depth: usize,
        env: &Env,
        visit: &mut dyn FnMut(&mut System, &Env) -> Result<()>,
    ) -> Result<()> {
        if depth == w.metas.len() {
            return visit(sys, env);
        }
        let meta = &w.metas[depth];
        let outer: Vec<&TableMeta> = w.metas[..depth].iter().collect();
        let this_conjuncts: Vec<Expr> = w
            .conjuncts
            .iter()
            .zip(w.conjunct_depths)
            .filter(|(_, &d)| d == depth + 1)
            .map(|(c, _)| c.clone())
            .collect();
        let indexes = db.indexes_of(&meta.info.name);
        let access = choose_access(meta, &indexes, &this_conjuncts, &outer);
        let innermost = depth + 1 == w.metas.len();
        for_each_row(
            db,
            sys,
            meta,
            &access,
            env,
            innermost,
            &mut |db, sys, env| {
                for c in &this_conjuncts {
                    if eval(sys, c, env, None)?.truthy() != Some(true) {
                        return Ok(());
                    }
                }
                descend(w, db, sys, depth + 1, env, visit)
            },
        )
    }

    let walk = Walk {
        metas: &metas,
        conjuncts: &conjuncts,
        conjunct_depths: &conjunct_depths,
    };
    let new_states = || -> Vec<AggState> {
        agg_exprs
            .iter()
            .map(|e| {
                let Expr::FnCall { name, .. } = e else {
                    unreachable!()
                };
                AggState::new(name)
            })
            .collect()
    };

    if aggregate_mode {
        descend(&walk, db, sys, 0, &Env::default(), &mut |sys, env| {
            let mut key = Vec::new();
            for g in &sel.group_by {
                encode_key_value(&mut key, &*eval(sys, g, env, None)?);
            }
            let (states, _) = groups.entry(key).or_insert_with_key(|key| {
                group_order.push(key.clone());
                // a representative row for non-aggregate expressions
                (new_states(), env.values())
            });
            for (state, e) in states.iter_mut().zip(&agg_exprs) {
                let Expr::FnCall { args, star, .. } = e else {
                    unreachable!()
                };
                if *star {
                    state.feed(None);
                } else {
                    state.feed(Some(&*eval(sys, &args[0], env, None)?));
                }
            }
            Ok(())
        })?;

        // Zero-row aggregate without GROUP BY still yields one row.
        if groups.is_empty() && sel.group_by.is_empty() {
            groups.insert(Vec::new(), (new_states(), Vec::new()));
            group_order.push(Vec::new());
        }

        for key in &group_order {
            let (states, snapshot) = &groups[key];
            let resolved: Vec<(Expr, SqlValue)> = agg_exprs
                .iter()
                .zip(states)
                .map(|(e, s)| {
                    let Expr::FnCall { name, .. } = e else {
                        unreachable!()
                    };
                    (e.clone(), s.finish(name))
                })
                .collect();
            let resolver = |e: &Expr| -> Option<SqlValue> {
                resolved
                    .iter()
                    .find(|(k, _)| k == e)
                    .map(|(_, v)| v.clone())
            };
            let bindings: Vec<Binding> = metas
                .iter()
                .zip(snapshot)
                .map(|(meta, (rowid, row))| Binding {
                    meta,
                    rowid: *rowid,
                    row: Row::Values(row),
                })
                .collect();
            let env = Env {
                outer: None,
                here: &bindings,
            };
            if let Some(h) = &sel.having {
                if eval(sys, h, &env, Some(&resolver))?.truthy() != Some(true) {
                    continue;
                }
            }
            let mut row = Vec::with_capacity(items.len());
            for (e, _) in &items {
                row.push(eval(sys, e, &env, Some(&resolver))?.into_owned());
            }
            // order-by keys appended for later sorting
            for (e, _) in &sel.order_by {
                row.push(eval(sys, e, &env, Some(&resolver))?.into_owned());
            }
            rows_out.push(row);
        }
    } else {
        descend(&walk, db, sys, 0, &Env::default(), &mut |sys, env| {
            let mut row = Vec::with_capacity(items.len() + sel.order_by.len());
            let keys = sel.order_by.iter().map(|(e, _)| e);
            for e in items.iter().map(|(e, _)| e).chain(keys) {
                row.push(eval(sys, e, env, None)?.into_owned());
            }
            rows_out.push(row);
            Ok(())
        })?;
    }

    // ORDER BY on the appended sort keys.
    let n_items = items.len();
    if !sel.order_by.is_empty() {
        let descs: Vec<bool> = sel.order_by.iter().map(|(_, d)| *d).collect();
        rows_out.sort_by(|a, b| {
            for (i, desc) in descs.iter().enumerate() {
                let ord = a[n_items + i].total_cmp(&b[n_items + i]);
                if ord != std::cmp::Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut rows: Vec<Vec<SqlValue>> = rows_out
        .into_iter()
        .map(|mut r| {
            r.truncate(n_items);
            r
        })
        .collect();

    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(encode_index_key(r, None)));
    }
    let offset = sel.offset.unwrap_or(0) as usize;
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = sel.limit {
        rows.truncate(limit as usize);
    }
    Ok(QueryResult {
        columns,
        rows,
        rows_affected: 0,
    })
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

/// The rows UPDATE or DELETE acts on, materialised. The scan filters as
/// it goes and keeps only the survivors; the caller mutates the table
/// once the scan is done.
fn matching_rows(
    db: &mut Database,
    sys: &mut System,
    meta: &TableMeta,
    where_: Option<&Expr>,
) -> Result<Vec<(i64, Vec<SqlValue>)>> {
    let mut conjuncts = Vec::new();
    if let Some(w) = where_ {
        split_conjuncts(w, &mut conjuncts);
    }
    let indexes = db.indexes_of(&meta.info.name);
    let access = choose_access(meta, &indexes, &conjuncts, &[]);
    let mut out = Vec::new();
    for_each_row(
        db,
        sys,
        meta,
        &access,
        &Env::default(),
        true,
        &mut |_, sys, env| {
            if let Some(w) = where_ {
                if eval(sys, w, env, None)?.truthy() != Some(true) {
                    return Ok(());
                }
            }
            out.extend(env.values());
            Ok(())
        },
    )?;
    Ok(out)
}

/// The table `name` as its own, unaliased, scope.
fn table_meta(db: &Database, name: &str) -> Result<TableMeta> {
    let info = db.table(name)?.clone();
    Ok(TableMeta {
        alias: info.name.clone(),
        info,
    })
}

/// Executes UPDATE.
pub(crate) fn run_update(
    db: &mut Database,
    sys: &mut System,
    table: &str,
    sets: &[(String, Expr)],
    where_: Option<&Expr>,
) -> Result<QueryResult> {
    let meta = table_meta(db, table)?;
    let info = &meta.info;
    let set_targets: Vec<usize> = sets
        .iter()
        .map(|(c, _)| {
            info.columns
                .iter()
                .position(|ci| ci.name.eq_ignore_ascii_case(c))
                .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))
        })
        .collect::<Result<_>>()?;
    let victims = matching_rows(db, sys, &meta, where_)?;
    let mut affected = 0u64;
    for (rowid, row) in victims {
        let binding = Binding {
            meta: &meta,
            rowid,
            row: Row::Values(&row),
        };
        let env = Env {
            outer: None,
            here: std::slice::from_ref(&binding),
        };
        let mut new_row = row.clone();
        for ((_, expr), &target) in sets.iter().zip(&set_targets) {
            let v = eval(sys, expr, &env, None)?.into_owned();
            new_row[target] = info.columns[target].affinity.apply(v);
        }
        db.delete_row(sys, table, rowid)?;
        // Preserve the rowid unless the INTEGER PRIMARY KEY was updated.
        if let Some(pk) = info.rowid_alias {
            if new_row[pk].is_null() {
                new_row[pk] = SqlValue::Integer(rowid);
            }
        }
        match db.insert_row(sys, table, new_row) {
            Ok(_) => {}
            Err(e) => {
                // restore the original row before propagating (keeps the
                // table consistent even inside explicit transactions)
                db.insert_row(sys, table, row)?;
                return Err(e);
            }
        }
        affected += 1;
    }
    Ok(QueryResult {
        rows_affected: affected,
        ..Default::default()
    })
}

/// Executes DELETE.
pub(crate) fn run_delete(
    db: &mut Database,
    sys: &mut System,
    table: &str,
    where_: Option<&Expr>,
) -> Result<QueryResult> {
    let victims = matching_rows(db, sys, &table_meta(db, table)?, where_)?;
    let mut affected = 0u64;
    for (rowid, _) in victims {
        if db.delete_row(sys, table, rowid)? {
            affected += 1;
        }
    }
    Ok(QueryResult {
        rows_affected: affected,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::{like, like_match};
    use cubicle_mpk::rng::Rng64;
    use std::time::{Duration, Instant};

    /// The previous recursive matcher, kept as the differential oracle.
    /// Exponential in the number of `%`.
    fn like_match_recursive(pattern: &str, text: &str) -> bool {
        fn rec(p: &[u8], t: &[u8]) -> bool {
            match p.first() {
                None => t.is_empty(),
                Some(b'%') => (0..=t.len()).any(|k| rec(&p[1..], &t[k..])),
                Some(b'_') => !t.is_empty() && rec(&p[1..], &t[1..]),
                Some(&c) => !t.is_empty() && t[0].eq_ignore_ascii_case(&c) && rec(&p[1..], &t[1..]),
            }
        }
        rec(pattern.as_bytes(), text.as_bytes())
    }

    #[test]
    fn like_matches_the_recursive_matcher() {
        const PATTERN: &[u8] = b"aAbB%%%__";
        const TEXT: &[u8] = b"aAbBc_%";
        let mut rng = Rng64::new(0x11CE);
        let mut matched = 0;
        for _ in 0..20_000 {
            let plen = rng.range_usize(0, 9);
            let tlen = rng.range_usize(0, 13);
            let pattern: String = (0..plen).map(|_| char::from(*rng.pick(PATTERN))).collect();
            let text: String = (0..tlen).map(|_| char::from(*rng.pick(TEXT))).collect();
            let want = like_match_recursive(&pattern, &text);
            assert_eq!(
                like_match(&pattern, &text),
                want,
                "{pattern:?} LIKE {text:?}"
            );
            matched += usize::from(want);
        }
        assert!(matched > 1_000, "the seeded cases must include matches");
    }

    /// `'%lit%'` takes the substring search; it must agree with the
    /// general matcher on flipped case, empty literals and multi-byte
    /// (non-ASCII) characters, which fold only in their ASCII bytes.
    #[test]
    fn like_substring_path_matches_the_general_matcher() {
        const CHARS: &[char] = &['a', 'B', 'c', 'é', 'É', 'ß', ' ', '0', 'İ'];
        let mut rng = Rng64::new(0x5B57);
        let mut matched = 0;
        for _ in 0..20_000 {
            let text: String = (0..rng.range_usize(0, 16))
                .map(|_| *rng.pick(CHARS))
                .collect();
            let chars: Vec<char> = text.chars().collect();
            let lit: String = if rng.range_usize(0, 4) == 0 || chars.is_empty() {
                // a literal that need not occur in the text
                (0..rng.range_usize(0, 4))
                    .map(|_| *rng.pick(CHARS))
                    .collect()
            } else {
                let from = rng.range_usize(0, chars.len());
                let to = rng.range_usize(from, chars.len() + 1);
                chars[from..to]
                    .iter()
                    .map(|&c| {
                        if rng.flip() {
                            c.to_ascii_uppercase()
                        } else {
                            c.to_ascii_lowercase()
                        }
                    })
                    .collect()
            };
            let pattern = format!("%{lit}%");
            let want = like_match(&pattern, &text);
            assert_eq!(like(&pattern, &text), want, "{pattern:?} LIKE {text:?}");
            matched += usize::from(want);
        }
        assert!(
            matched > 10_000,
            "the seeded cases must mostly match ({matched})"
        );
        assert!(like("%%", ""));
        assert!(like("%É%", "xÉy"));
        assert!(!like("%é%", "É"), "non-ASCII letters do not fold");
        assert!(like("%a_c%", "xAbCx"), "`_` goes to the general matcher");
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(!like_match("", "a"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "abc"));
        assert!(!like_match("_", ""));
        assert!(like_match("a_c", "ABC"));
        assert!(like_match("%b%", "abc"));
        assert!(!like_match("%b", "abc"));
        assert!(like_match("lor%sum", "LOREMIPSUM"));
        assert!(!like_match("lor%sum", "loremipsu"));
    }

    #[test]
    fn like_is_not_exponential_in_percent_signs() {
        let text = "a".repeat(40);
        let t = Instant::now();
        for extra in 0..=20 {
            let pattern = format!("{}b", "%a".repeat(6 + extra));
            assert!(!like_match(&pattern, &text), "{pattern}");
        }
        assert!(like_match(&format!("{}%", "%a".repeat(40)), &text));
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "pathological LIKE patterns took {:?}",
            t.elapsed()
        );
    }
}
