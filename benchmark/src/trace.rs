//! The benchmark's own spans, recorded around its calls into each layer's
//! public functions (spans inside the program are a later change).
//!
//! Spans are kept in memory and written as JSON lines only when `--out`
//! asks. A span's *self time* is its duration minus the part its direct
//! children cover; a request's spans share its `op` number.

use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, the layer being the module name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// 1-based id (its position in the span list plus one).
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The request (or tick) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time between start and end, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let start_ns = self.now_ns();
        self.begin_at(name, op, start_ns)
    }

    /// Closes a span. Spans close innermost-first.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.end_at(open, end_ns);
    }

    fn begin_at(&mut self, name: &'static str, op: u64, start_ns: u64) -> Open {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op,
        });
        self.stack.push(id);
        Open(id)
    }

    fn end_at(&mut self, open: Open, end_ns: u64) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost-first");
        self.spans[open.0 as usize - 1].end_ns = end_ns;
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Self times, in milliseconds, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let self_ns = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The span list as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap: one thread records them in sequence).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != 0 {
            let parent = span.parent as usize - 1;
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tracer = Tracer::new();
        let serve = tracer.begin_at("service.serve", 7, 100);
        let tail = tracer.begin_at("service.tail_snapshot", 7, 110);
        tracer.end_at(tail, 140);
        let plan = tracer.begin_at("query.plan", 7, 150);
        let read = tracer.begin_at("index.read", 7, 160);
        tracer.end_at(read, 180);
        tracer.end_at(plan, 200);
        tracer.end_at(serve, 300);

        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[3].parent, spans[2].id);
        assert!(spans.iter().all(|s| s.op == 7));

        let self_ns = self_times_ns(spans);
        // serve: 200 total, minus tail (30) and plan (50); the grandchild
        // is charged to plan, not to serve.
        assert_eq!(self_ns[0], 120);
        assert_eq!(self_ns[1], 30);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[3], 20);
        assert_eq!(tracer.self_ms("service.serve"), vec![120.0 / 1e6]);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let mut tracer = Tracer::new();
        let a = tracer.begin_at("fleet.scatter", 3, 5);
        tracer.end_at(a, 9);
        assert_eq!(
            tracer.to_json_lines(),
            "{\"name\":\"fleet.scatter\",\"start_ns\":5,\"end_ns\":9,\"id\":1,\"parent\":0,\"op\":3}\n"
        );
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("a", 0);
        let _inner = tracer.begin("b", 0);
        tracer.end(outer);
    }
}
