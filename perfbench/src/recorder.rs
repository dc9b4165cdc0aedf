//! Benchmark-side tracing: host-time spans around every op and every
//! public layer call the benchmark makes, kept in memory and written out
//! as Chrome `trace_event` JSON at the end, plus a timing [`StorageEnv`]
//! wrapper that measures the storage boundary below sqldb.

use cubicle_core::System;
use cubicle_sqldb::storage::{StorageEnv, StorageFile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One completed host-time span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer the call enters (`bench`, `sqldb`, `storage`, `httpd`).
    pub layer: &'static str,
    /// The call (`op`, `select`, `pread`, `fetch`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
}

/// Counters measured at the `StorageEnv` boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageCounters {
    /// Calls crossing the boundary.
    pub calls: u64,
    /// Bytes returned by `pread`.
    pub bytes_read: u64,
    /// Bytes accepted by `pwrite`.
    pub bytes_written: u64,
    /// Simulated cycles spent below the boundary.
    pub sim_cycles: u64,
}

/// Host-time self and inclusive totals of one group of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans in the group.
    pub count: u64,
    /// Seconds not covered by child spans.
    pub self_s: f64,
    /// Seconds from start to end, children included.
    pub total_s: f64,
}

/// The in-memory span store of one traced epoch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    /// Whether [`TimingEnv`] records: only during the measured phase.
    recording: bool,
    /// Counters of the storage boundary.
    pub storage: StorageCounters,
}

/// A recorder shared by the harness and the storage wrapper; `None` in
/// untraced epochs, which then pay nothing for it.
pub type Rec = Option<Rc<RefCell<Recorder>>>;

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            recording: false,
            storage: StorageCounters::default(),
        }
    }
}

impl Recorder {
    /// A fresh shared recorder.
    pub fn shared() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder::default()))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans must close in reverse order of opening.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Starts recording the storage boundary. Calls made before (set-up)
    /// and after [`Recorder::stop`] (checks) are forwarded untimed, so
    /// the storage counters and spans cover the measured phase alone.
    pub fn start(&mut self) {
        self.recording = true;
    }

    /// Stops recording the storage boundary.
    pub fn stop(&mut self) {
        self.recording = false;
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Self and inclusive host time, grouped by `key` of each span.
    pub fn totals_by<K: Ord>(&self, key: impl Fn(&Span) -> K) -> BTreeMap<K, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<K, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(key(s)).or_default();
            t.count += 1;
            t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
            t.total_s += dur as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                sp.name,
                sp.layer,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.op
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Runs `f` inside a span of `rec` (no-op when untraced).
pub fn span<T>(rec: &Rec, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(r) = rec else { return f() };
    let id = r.borrow_mut().begin(layer, name);
    let out = f();
    r.borrow_mut().end(id);
    out
}

/// Stamps `op` on the spans opened from now on (no-op when untraced).
pub fn set_op(rec: &Rec, op: u32) {
    if let Some(r) = rec {
        r.borrow_mut().set_op(op);
    }
}

/// A [`StorageEnv`] that times every call it forwards while its recorder
/// is recording: host time as a `storage` span, simulated cycles, bytes
/// and calls as counters.
pub struct TimingEnv {
    inner: Box<dyn StorageEnv>,
    rec: Rc<RefCell<Recorder>>,
}

impl TimingEnv {
    /// Wraps `inner`, reporting into `rec`.
    pub fn new(inner: Box<dyn StorageEnv>, rec: Rc<RefCell<Recorder>>) -> TimingEnv {
        TimingEnv { inner, rec }
    }
}

struct TimingFile {
    inner: Box<dyn StorageFile>,
    rec: Rc<RefCell<Recorder>>,
}

/// Forwards one call below the boundary, timing it. `moved` maps the
/// result to `(bytes_read, bytes_written)`.
fn timed<T>(
    rec: &Rc<RefCell<Recorder>>,
    sys: &mut System,
    name: &'static str,
    f: impl FnOnce(&mut System) -> T,
    moved: impl FnOnce(&T) -> (u64, u64),
) -> T {
    if !rec.borrow().recording {
        return f(sys);
    }
    let id = rec.borrow_mut().begin("storage", name);
    let c0 = sys.now();
    let out = f(sys);
    let mut r = rec.borrow_mut();
    r.end(id);
    let (read, written) = moved(&out);
    r.storage.calls += 1;
    r.storage.bytes_read += read;
    r.storage.bytes_written += written;
    r.storage.sim_cycles += sys.now() - c0;
    out
}

fn none<T>(_: &T) -> (u64, u64) {
    (0, 0)
}

impl StorageFile for TimingFile {
    fn pread(
        &mut self,
        sys: &mut System,
        off: u64,
        buf: &mut [u8],
    ) -> cubicle_sqldb::Result<usize> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            sys,
            "pread",
            |sys| inner.pread(sys, off, buf),
            |r| (*r.as_ref().unwrap_or(&0) as u64, 0),
        )
    }

    fn pwrite(&mut self, sys: &mut System, off: u64, data: &[u8]) -> cubicle_sqldb::Result<usize> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            sys,
            "pwrite",
            |sys| inner.pwrite(sys, off, data),
            |r| (0, *r.as_ref().unwrap_or(&0) as u64),
        )
    }

    fn size(&mut self, sys: &mut System) -> cubicle_sqldb::Result<u64> {
        let inner = &mut self.inner;
        timed(&self.rec, sys, "size", |sys| inner.size(sys), none)
    }

    fn truncate(&mut self, sys: &mut System, len: u64) -> cubicle_sqldb::Result<()> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            sys,
            "truncate",
            |sys| inner.truncate(sys, len),
            none,
        )
    }

    fn sync(&mut self, sys: &mut System) -> cubicle_sqldb::Result<()> {
        let inner = &mut self.inner;
        timed(&self.rec, sys, "sync", |sys| inner.sync(sys), none)
    }

    fn close(&mut self, sys: &mut System) -> cubicle_sqldb::Result<()> {
        let inner = &mut self.inner;
        timed(&self.rec, sys, "close", |sys| inner.close(sys), none)
    }
}

impl StorageEnv for TimingEnv {
    fn open(
        &mut self,
        sys: &mut System,
        path: &str,
    ) -> cubicle_sqldb::Result<Box<dyn StorageFile>> {
        let inner = &mut self.inner;
        let file = timed(&self.rec, sys, "open", |sys| inner.open(sys, path), none)?;
        Ok(Box::new(TimingFile {
            inner: file,
            rec: self.rec.clone(),
        }))
    }

    fn unlink(&mut self, sys: &mut System, path: &str) -> cubicle_sqldb::Result<()> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            sys,
            "unlink",
            |sys| inner.unlink(sys, path),
            none,
        )
    }

    fn exists(&mut self, sys: &mut System, path: &str) -> cubicle_sqldb::Result<bool> {
        let inner = &mut self.inner;
        timed(
            &self.rec,
            sys,
            "exists",
            |sys| inner.exists(sys, path),
            none,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        let outer = r.begin("bench", "op");
        let inner = r.begin("sqldb", "select");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(inner);
        r.end(outer);
        let by_layer = r.totals_by(|s| s.layer);
        let (b, q) = (by_layer["bench"], by_layer["sqldb"]);
        assert_eq!((b.count, q.count), (1, 1));
        assert!(q.self_s >= 0.002 && q.self_s == q.total_s);
        assert!(
            b.self_s < q.self_s,
            "the child's time is not the parent's self time"
        );
        assert!((b.self_s + q.self_s - b.total_s).abs() < 1e-9);
        let json = r.chrome_json();
        assert!(json.contains("\"name\":\"select\",\"cat\":\"sqldb\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut r = Recorder::default();
        let a = r.begin("bench", "op");
        let _b = r.begin("sqldb", "select");
        r.end(a);
    }
}
