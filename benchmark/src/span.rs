//! Harness-side spans around every call into a layer's public function.
//!
//! Spans live in memory and are written as Chrome `trace_event` JSON when
//! the run ends. They are recorded from the harness only: nothing inside
//! the workspace crates knows about them. Timestamps are `rdtsc` cycles
//! (`metrics::timer::cycles_now`), converted to microseconds on export.

use std::fmt::Write as _;

use amac_suite::metrics::timer::cycles_now;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>`, e.g. `ops.join.probe`.
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

/// An entered, not yet exited span.
pub struct Open {
    start: u64,
    index: Option<usize>,
}

/// The span recorder. With recording off it only times.
#[derive(Debug, Default)]
pub struct Spans {
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new(recording: bool) -> Self {
        Spans { recording, ..Default::default() }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Label the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span that encloses the spans entered before its `exit`.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.recording.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start: 0, end: 0, parent, rep: self.rep });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = cycles_now();
        if let Some(i) = index {
            self.spans[i].start = start;
        }
        Open { start, index }
    }

    /// Close `open`; returns its duration in cycles.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = cycles_now();
        if let Some(i) = open.index {
            self.spans[i].end = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
        end.saturating_sub(open.start)
    }

    /// Run `f` inside a span; returns its result and duration in cycles.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Per span: its duration minus the part its child spans cover.
    pub fn self_cycles(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Chrome `trace_event` JSON (load in `about:tracing` or Perfetto).
    /// `meta` lands in the top-level `metadata` object.
    pub fn chrome_json(&self, cycles_per_us: f64, meta: &[(&str, String)]) -> String {
        let origin = self.spans.iter().map(|s| s.start).min().unwrap_or(0);
        let us = |cycles: u64| cycles as f64 / cycles_per_us;
        let own = self.self_cycles();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                us(s.start - origin),
                us(s.end - s.start),
                s.rep,
                us(own[i]),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"metadata\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":\"{v}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn nested() -> Spans {
        let mut sp = Spans::new(true);
        sp.set_rep(7);
        let rep = sp.enter("harness.repetition");
        sp.time("ops.join.probe", || std::hint::black_box(1 + 1));
        let inner = sp.enter("server.pump");
        sp.time("engine.run", || ());
        sp.exit(inner);
        sp.exit(rep);
        sp
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut sp = nested();
        // Pin the clock values so the arithmetic is exact.
        let times = [(0u64, 100u64), (10, 30), (40, 90), (50, 70)];
        for (s, (start, end)) in sp.spans.iter_mut().zip(times) {
            (s.start, s.end) = (start, end);
        }
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert_eq!(sp.spans()[3].parent, Some(2));
        assert_eq!(sp.self_cycles(), vec![100 - 20 - 50, 20, 50 - 20, 20]);
        assert!(sp.spans().iter().all(|s| s.rep == 7));
    }

    #[test]
    fn recording_off_times_but_keeps_nothing() {
        let mut sp = Spans::new(false);
        let (v, cycles) = sp.time("x.y", || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(cycles > 0);
        assert!(sp.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_loadable() {
        let doc = json::parse(&nested().chrome_json(2100.0, &[("workload", "t".into())])).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[2].get("cat").and_then(Value::as_str), Some("server"));
        let args = events[3].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            doc.get("metadata").and_then(|m| m.get("workload")).and_then(Value::as_str),
            Some("t")
        );
    }
}
