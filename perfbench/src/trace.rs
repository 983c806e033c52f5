//! An in-memory span recorder. Spans are recorded from the benchmark's
//! own code around each call into a layer's public function, kept in
//! memory, and written out when the run ends; a layer's self time is its
//! span's process CPU time minus the part its child spans cover.

use crate::host::cpu_seconds;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: wall seconds since the recorder started, and the
/// process CPU seconds ([`cpu_seconds`]) at either end.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub cpu_start: f64,
    pub cpu_end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Records nested spans when enabled; when disabled, [`Tracer::span`]
/// only calls its closure, so untraced runs pay nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            cpu_start: cpu_seconds(),
            cpu_end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[at];
        span.cpu_end = cpu_seconds();
        span.end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, for the trace file.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::object([
                        ("name", Value::from(s.name)),
                        ("start", Value::from(s.start)),
                        ("end", Value::from(s.end)),
                        ("cpu_s", Value::from(s.cpu())),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ])
                })
                .collect(),
        )
    }
}

impl Span {
    /// Process CPU seconds the span covers.
    pub fn cpu(&self) -> f64 {
        self.cpu_end - self.cpu_start
    }
}

/// Total self time per span name: each span's CPU time minus the CPU
/// time its direct children cover, summed over every span of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.cpu();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += s.cpu() - covered;
    }
    out
}

/// Total CPU time per span name (children included).
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.cpu();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            cpu_start: start,
            cpu_end: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("fill", 1.0, 4.0, Some(0)),
            span("mask", 2.0, 3.0, Some(1)),
            span("fill", 5.0, 6.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 6.0);
        assert_eq!(st["fill"], 3.0);
        assert_eq!(st["mask"], 1.0);
        // Self times partition the root's wall time.
        assert_eq!(st.values().sum::<f64>(), 10.0);
        assert_eq!(total_times(&spans)["fill"], 4.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s[0].cpu_start <= s[1].cpu_start && s[1].cpu_end <= s[0].cpu_end);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
