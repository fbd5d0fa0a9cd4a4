//! Spans recorded around the benchmark's calls into the library's layers.
//!
//! A span holds its name (`<layer>.<call>`), start and end (nanoseconds
//! since the process's trace epoch), its parent span, and the iteration
//! it belongs to. Spans are buffered per thread, gathered in memory, and
//! written out once the run ends; nothing is recorded inside the crates
//! under test. With tracing off, opening a span is one atomic load.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub iter: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    /// The layer a span times: the part of its name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ITERATION: AtomicU32 = AtomicU32::new(0);
static GATHERED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch — the clock every span and every
/// benchmark timestamp shares.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_iteration(iter: u32) {
    ITERATION.store(iter, Ordering::SeqCst);
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: u64,
    start: u64,
}

impl Guard {
    /// The span's id (0 when tracing is off), for parenting spans that
    /// other threads open.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span named `<layer>.<call>`, a child of the innermost span
/// open on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            name,
            id: 0,
            parent: 0,
            start: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        name,
        id,
        parent,
        start: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            iter: ITERATION.load(Ordering::Relaxed),
            start: self.start,
            end,
        };
        BUFFER.with(|b| b.borrow_mut().push(span));
    }
}

/// Records calls the caller timed itself (name, start, end in trace
/// nanoseconds) as children of `parent`. Hot loops use this instead of
/// [`span`]: a preallocated buffer of timestamp pairs perturbs a
/// rendezvous far less than span bookkeeping on every operation.
pub fn record(parent: u64, timed: &[(&'static str, u64, u64)]) {
    if !enabled() || timed.is_empty() {
        return;
    }
    let first = NEXT_ID.fetch_add(timed.len() as u64, Ordering::Relaxed);
    let iter = ITERATION.load(Ordering::Relaxed);
    BUFFER.with(|b| {
        b.borrow_mut().extend(
            timed
                .iter()
                .zip(first..)
                .map(|(&(name, start, end), id)| Span {
                    name,
                    id,
                    parent,
                    iter,
                    start,
                    end,
                }),
        )
    });
}

/// Makes spans this thread opens children of `parent`, a span open on
/// the thread that started this one.
pub fn adopt(parent: u64) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.clear();
        if parent != 0 {
            s.push(parent);
        }
    });
}

/// Hands this thread's spans to the run's collection. A thread that
/// records spans calls this before it ends.
pub fn flush() {
    let mine = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !mine.is_empty() {
        GATHERED
            .lock()
            .expect("span collection poisoned by a panicking thread")
            .extend(mine);
    }
}

/// Every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    flush();
    let mut all = std::mem::take(
        &mut *GATHERED
            .lock()
            .expect("span collection poisoned by a panicking thread"),
    );
    all.sort_by_key(|s| (s.start, s.id));
    all
}

/// Writes spans as tab-separated lines: name, id, parent, iteration,
/// start ns, end ns.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\titer\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.iter, s.start, s.end
        )?;
    }
    out.flush()
}

/// Self times and blocking-path attribution over a set of spans.
pub struct Analysis {
    spans: Vec<Span>,
    kids: HashMap<u64, Vec<usize>>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut kids: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                kids.entry(s.parent).or_default().push(i);
            }
        }
        Analysis { spans, kids }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn children(&self, i: usize) -> &[usize] {
        self.kids
            .get(&self.spans[i].id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The span's duration minus the part of it that child spans cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = self.spans[i];
        let mut parts: Vec<(u64, u64)> = self
            .children(i)
            .iter()
            .map(|&c| {
                let k = self.spans[c];
                (k.start.max(s.start), k.end.min(s.end))
            })
            .filter(|(a, b)| a < b)
            .collect();
        parts.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for (a, b) in parts {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.dur() - covered
    }

    /// Indices of the spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Self times of the spans called `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|i| self.self_ns(i)).collect()
    }

    /// Attributes every instant of span `root` to one layer along the
    /// path the result waited on: the innermost span covering the
    /// instant, and among overlapping children (parallel threads) the one
    /// that ends last. Returns nanoseconds per layer; the root's own
    /// layer receives the time no child covers.
    pub fn blocking_path(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut acc = BTreeMap::new();
        let s = self.spans[root];
        self.paint(root, s.start, s.end, &mut acc);
        acc
    }

    fn paint(&self, i: usize, lo: u64, hi: u64, acc: &mut BTreeMap<&'static str, u64>) {
        // (time, 0 = end / 1 = start, child): ends sort before starts at
        // the same instant so back-to-back children never overlap.
        let mut events: Vec<(u64, u8, usize)> = Vec::new();
        for &c in self.children(i) {
            let k = self.spans[c];
            let (a, b) = (k.start.max(lo), k.end.min(hi));
            if a < b {
                events.push((a, 1, c));
                events.push((b, 0, c));
            }
        }
        events.sort_unstable();
        let layer = self.spans[i].layer();
        let mut active: BTreeSet<(u64, usize)> = BTreeSet::new();
        let mut t = lo;
        for (at, kind, c) in events {
            if at > t {
                match active.last() {
                    Some(&(_, best)) => self.paint(best, t, at, acc),
                    None => *acc.entry(layer).or_insert(0) += at - t,
                }
                t = at;
            }
            let key = (self.spans[c].end, c);
            if kind == 1 {
                active.insert(key);
            } else {
                active.remove(&key);
            }
        }
        if hi > t {
            *acc.entry(layer).or_insert(0) += hi - t;
        }
    }
}
