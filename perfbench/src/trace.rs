//! In-memory span and counter recorder for the traced run.
//!
//! The benchmark places spans around the public calls it makes into each
//! layer; nothing inside the program is instrumented. A disabled tracer
//! runs the closure and records nothing; in the untraced run it may carry
//! the host-speed [`Gauge`] that times the operation's units.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::gauge::Gauge;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Traced iteration the span belongs to.
    pub iteration: usize,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: usize,
    /// Counters per traced iteration, summed within an iteration.
    counters: Vec<BTreeMap<&'static str, f64>>,
    gauge: Option<Gauge>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
            counters: Vec::new(),
            gauge: None,
        }
    }

    /// A disabled tracer whose [`Tracer::unit`]s `gauge` times.
    pub fn gauged(gauge: Gauge) -> Self {
        Tracer {
            gauge: Some(gauge),
            ..Tracer::new(false)
        }
    }

    pub fn gauge_mut(&mut self) -> Option<&mut Gauge> {
        self.gauge.as_mut()
    }

    /// Run `f`, one independent unit of the operation (a plant, a program
    /// text); a gauge, if any, times it against the calibration kernel.
    /// Every workload runs its whole operation inside units.
    pub fn unit<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        match self.gauge.take() {
            None => f(self),
            Some(mut gauge) => {
                let out = gauge.unit(|| f(self));
                self.gauge = Some(gauge);
                out
            }
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new traced iteration; spans and counters recorded from here
    /// on belong to it.
    pub fn next_iteration(&mut self) {
        if self.enabled {
            self.iteration = self.counters.len();
            self.counters.push(BTreeMap::new());
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[id].dur_us = end_us - self.spans[id].start_us;
        out
    }

    /// Add `value` to the counter `name` of the current iteration.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(map) = self.counters.last_mut() {
            *map.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn iterations(&self) -> usize {
        self.counters.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ms) of the spans called `name`, per iteration
    /// that has any.
    pub fn span_totals_ms(&self, name: &str) -> Vec<f64> {
        self.totals_ms(|s| s.name == name)
    }

    /// Total duration (ms) of the direct children of the spans called
    /// `name`, per iteration that has any.
    pub fn child_totals_ms(&self, name: &str) -> Vec<f64> {
        self.totals_ms(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
    }

    fn totals_ms(&self, select: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut totals: Vec<Option<f64>> = vec![None; self.iterations()];
        for s in self.spans.iter().filter(|s| select(s)) {
            *totals[s.iteration].get_or_insert(0.0) += s.dur_us / 1e3;
        }
        totals.into_iter().flatten().collect()
    }

    /// The value of counter `name`, per iteration that recorded it.
    pub fn counter_values(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect()
    }

    /// Self time of every span name, summed over all iterations: a span's
    /// duration minus the part covered by its children. Returns
    /// `(name, calls, total_ms, self_ms)` in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let idx = match rows.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.len() - 1
                }
            };
            rows[idx].1 += 1;
            rows[idx].2 += s.dur_us / 1e3;
            rows[idx].3 += (s.dur_us - child).max(0.0) / 1e3;
        }
        rows
    }

    /// The spans as Chrome trace-event JSON (complete `X` events), which
    /// Perfetto and chrome://tracing load.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"iteration\":{}}}}}",
                s.name, s.start_us, s.dur_us, s.iteration
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.next_iteration();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let rows = tr.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner.2 >= 5.0);
        assert!((outer.2 - inner.2 - outer.3).abs() < 1e-6);
        assert_eq!(tr.child_totals_ms("outer"), tr.span_totals_ms("inner"));
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.next_iteration();
        assert_eq!(tr.span("x", |_| 7), 7);
        tr.count("c", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.iterations(), 0);
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let mut tr = Tracer::new(true);
        tr.next_iteration();
        tr.span("asp.parser", |_| ());
        let json = tr.chrome_json("test");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"asp.parser\",\"cat\":\"asp\",\"ph\":\"X\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
