//! In-memory span recorder for traced runs.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer's public function (the program itself is not instrumented).
//! Each span carries its name, start and end (ns since the recorder was
//! created), the index of the enclosing span and the id of the campaign
//! or submission it belongs to. Nothing is written until the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; a disabled recorder returns an inert guard.
    pub fn span(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.borrow().last().copied(),
            id,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n  {{\"i\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.id
            );
        }
        s.push_str("\n]");
        s
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[index].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}
