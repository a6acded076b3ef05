//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the engine, around the calls the
//! benchmark makes into each layer's public functions; spans *inside* the
//! engine are a later change. Everything stays in memory until the run
//! ends, then [`Recorder::write_chrome_trace`] writes Chrome trace-event
//! JSON (loads in Perfetto / `chrome://tracing`).

use crate::json;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.executor.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one query (0 = not in a query).
    pub query: u64,
    /// Wall ns the engine itself reports for the run(s) inside this span
    /// (`ExecutionStats::wall_ns`), 0 when the span wraps no run. The one
    /// number taken from inside: it splits a session or scheduler call
    /// into the executor's share and the caller-side rest.
    pub engine_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::open`]; `None` inside when recording is
/// off, so the disabled path costs one branch and no clock read.
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. Single-threaded, like the load generator.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    query: u64,
    next_query: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            query: 0,
            next_query: 0,
        }
    }
}

impl Recorder {
    /// Turns recording on or off; only legal between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between rounds only");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            query: self.query,
            engine_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Opens a `query` span and gives its children a fresh query id.
    pub fn open_query(&mut self) -> Open {
        if self.enabled {
            self.next_query += 1;
            self.query = self.next_query;
        }
        self.open("query")
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        self.close_noting(span, 0);
    }

    /// Closes `span` and notes the engine-reported run time inside it.
    pub fn close_noting(&mut self, span: Open, engine_ns: u64) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].engine_ns = engine_ns;
        if self.spans[id].name == "query" {
            self.query = 0;
        }
    }

    /// All spans recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes up to `max_spans` spans as Chrome trace-event JSON (complete
    /// `"ph":"X"` events, µs timestamps); `args` carry the query id, the
    /// parent index and the span's self time. Whole rounds are kept: the
    /// cut falls before the first root span that would exceed the cap.
    pub fn write_chrome_trace(
        &self,
        mut w: impl Write,
        max_spans: usize,
    ) -> std::io::Result<usize> {
        let cut = if self.spans.len() <= max_spans {
            self.spans.len()
        } else {
            (0..=max_spans)
                .rev()
                .find(|&i| self.spans[i].parent.is_none())
                .unwrap_or(0)
        };
        let selfs = self_times(&self.spans[..cut]);
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"spansRecorded\":{},\"traceEvents\":[",
            self.spans.len()
        )?;
        for (i, (s, self_ns)) in self.spans[..cut].iter().zip(&selfs).enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "\n{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"query\":{},\"self_us\":{:.3},\"engine_run_us\":{:.3}}}}}",
                json::string(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.query,
                *self_ns as f64 / 1e3,
                s.engine_ns as f64 / 1e3,
            )?;
        }
        w.write_all(b"\n]}\n")?;
        Ok(cut)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping or adjacent children are merged
/// first, and children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
                kids[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, ivs)| {
            ivs.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in ivs.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time (ns) per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, sum)) => *sum += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
            engine_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("query", 10, 60, Some(0)), // nested, itself a parent
            span("a", 10, 30, Some(1)),     // adjacent pair inside query
            span("b", 30, 50, Some(1)),
            span("query", 60, 90, Some(0)), // adjacent to the first query
            span("c", 70, 80, Some(4)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![20, 10, 20, 20, 20, 10]);
        // Self times of a subtree sum to the root's duration.
        assert_eq!(st.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn self_time_merges_overlap_and_clips_to_parent() {
        let spans = vec![
            span("p", 10, 50, None),
            span("x", 5, 30, Some(0)),  // starts before the parent
            span("y", 20, 40, Some(0)), // overlaps x
            span("z", 45, 70, Some(0)), // ends after the parent
        ];
        // Covered: [10,40) ∪ [45,50) = 35 of 40.
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_and_tags_queries() {
        let mut r = Recorder::default();
        let off = r.open("ignored");
        r.close(off);
        assert!(r.spans().is_empty(), "disabled recorder records nothing");

        r.set_enabled(true);
        let round = r.open("round");
        let q = r.open_query();
        let run = r.open("core.executor.run");
        r.close(run);
        r.close(q);
        let q2 = r.open_query();
        r.close(q2);
        r.close(round);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(
            (s[0].query, s[1].query, s[2].query, s[3].query),
            (0, 1, 1, 2)
        );
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let by = self_time_by_name(s);
        assert_eq!(by.iter().map(|(_, t)| t).sum::<u64>(), s[0].dur_ns());
    }

    #[test]
    fn chrome_trace_is_capped_at_a_round_boundary() {
        let mut r = Recorder::default();
        r.set_enabled(true);
        for _ in 0..3 {
            let round = r.open("round");
            let q = r.open_query();
            r.close(q);
            r.close(round);
        }
        let mut buf = Vec::new();
        assert_eq!(r.write_chrome_trace(&mut buf, 5).unwrap(), 4);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 4);
        assert!(text.contains("\"spansRecorded\":6"));
        assert!(text.starts_with('{') && text.trim_end().ends_with("]}"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
