//! The benchmark's own span recorder.
//!
//! Spans are recorded from *outside* the layer crates, around the calls the
//! benchmark makes into their public functions. Each span has a name, a
//! start, an end, the span that caused it, and the id of the cycle (one
//! job or one scheduler run set) it belongs to. Spans live in memory and
//! are written out once, when the benchmark ends.
//!
//! Calls that happen millions of times per run (`TaskPlacer::place_*`,
//! `TraceSink::record*`) are not given one span each — that would cost
//! more than the calls themselves. Their decorators in [`crate::timed`]
//! sum call count and busy time per run, and the sum is recorded here as
//! one *folded* span under the run that made the calls.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. A folded span stands for `calls` short calls whose
/// durations sum to `end_ns - start_ns`; an ordinary span has `calls == 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub cycle: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How long a [`Recorder::span`] call took: in all, and outside the spans
/// recorded under it (equal when nothing was recorded).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub secs: f64,
    pub self_secs: f64,
}

/// Span recorder. Disabled, it still times what it wraps (the end-to-end
/// pass needs the durations) but stores nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    /// Switch recording on or off between cycles (no span may be open).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "cannot toggle recording inside a span"
        );
        self.enabled = on;
    }

    /// Start a new cycle: later spans carry a fresh cycle id.
    pub fn next_cycle(&mut self) {
        self.cycle += 1;
    }

    /// Run `f`, returning its result and how long it took. When recording,
    /// the call becomes a span under the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, Timed) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(self);
            let secs = t.elapsed().as_secs_f64();
            return (
                out,
                Timed {
                    secs,
                    self_secs: secs,
                },
            );
        }
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            cycle: self.cycle,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.open.push(idx);
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[idx].end_ns = end_ns;
        let timed = Timed {
            secs: (end_ns - start_ns) as f64 * 1e-9,
            self_secs: self.self_ns(idx) as f64 * 1e-9,
        };
        (out, timed)
    }

    /// Record `calls` short calls totalling `busy_ns` as one folded child
    /// of the innermost open span.
    pub fn fold(&mut self, name: &str, calls: u64, busy_ns: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            cycle: self.cycle,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        // Children are always recorded after their parent.
        let children: u64 = self.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(children)
    }

    /// Summed duration of the spans that have no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"cycle\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.cycle, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            cycle: 0,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            span("run", None, 0, 1000),
            span("place", Some(0), 0, 300),
            span("sink", Some(0), 0, 150),
            span("inner", Some(1), 0, 100),
            span("oracle", None, 1000, 1200),
        ];
        assert_eq!(r.self_ns(0), 550);
        assert_eq!(r.self_ns(1), 200);
        assert_eq!(r.self_ns(3), 100);
        assert_eq!(r.top_level_ns(), 1200);
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let mut r = Recorder::new(true);
        r.spans = vec![span("run", None, 0, 100), span("place", Some(0), 0, 130)];
        assert_eq!(r.self_ns(0), 0);
    }

    #[test]
    fn nesting_and_folding_attach_to_the_open_span() {
        let mut r = Recorder::new(true);
        r.next_cycle();
        let ((), outer) = r.span("outer", |r| {
            let (v, t) = r.span("inner", |_| 7);
            assert_eq!(v, 7);
            assert_eq!(t.secs, t.self_secs);
            r.fold("calls", 3, 40);
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        let children = (s[1].dur_ns() + 40) as f64 * 1e-9;
        assert!((outer.secs - outer.self_secs - children).abs() < 1e-12);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((s[2].calls, s[2].dur_ns(), s[2].cycle), (3, 40, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut r = Recorder::new(false);
        let (v, t) = r.span("x", |r| {
            r.fold("y", 5, 10);
            1 + 1
        });
        assert_eq!(v, 2);
        assert!(t.secs >= 0.0 && t.secs == t.self_secs);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut r = Recorder::new(true);
        r.span("a", |r| r.fold("b", 2, 5));
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            pnats_obs::json::validate_json(line).expect("span line is valid JSON");
        }
    }
}
