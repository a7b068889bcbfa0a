//! Spans around the benchmark's calls into each layer. They are kept in
//! memory while tracing is on and written out as one Chrome trace per
//! workload; a layer's self time is its spans' length minus the part
//! covered by spans nested inside them.

use std::time::Instant;
use trace::{ChromeTrace, TraceEvent};

struct Span {
    layer: &'static str,
    name: &'static str,
    /// Spans of one request share this id; set-up spans use 0.
    request: u64,
    start_us: f64,
    dur_us: f64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Closes the span that began at `start` and returns its length in
    /// milliseconds. The span is kept only while tracing is on; the length
    /// is returned either way, so untraced runs time the same calls.
    pub fn end(
        &mut self,
        start: Instant,
        layer: &'static str,
        name: &'static str,
        request: u64,
    ) -> f64 {
        let end = Instant::now();
        let dur = end.duration_since(start);
        if self.on {
            self.spans.push(Span {
                layer,
                name,
                request,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
            });
        }
        dur.as_secs_f64() * 1e3
    }

    /// Span indices ordered by start, enclosing spans before the spans
    /// they enclose.
    fn ordered(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&self.spans[a], &self.spans[b]);
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        order
    }

    /// Self time per layer in milliseconds, largest first.
    pub fn self_ms(&self) -> Vec<(&'static str, f64)> {
        let mut self_us: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        let mut open: Vec<usize> = Vec::new();
        for i in self.ordered() {
            let s = &self.spans[i];
            while let Some(&top) = open.last() {
                let t = &self.spans[top];
                if s.start_us < t.start_us + t.dur_us {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                self_us[parent] -= s.dur_us;
            }
            open.push(i);
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (s, us) in self.spans.iter().zip(self_us) {
            match layers.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += us / 1e3,
                None => layers.push((s.layer, us / 1e3)),
            }
        }
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        layers
    }

    /// The kept spans as a Chrome trace on one lane.
    pub fn chrome(&self, workload: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.push(TraceEvent::process_name(1, format!("benchmark {workload}")));
        t.push(TraceEvent::thread_name(1, 0, "client"));
        for i in self.ordered() {
            let s = &self.spans[i];
            t.push(
                TraceEvent::complete(s.name, s.layer, s.start_us, s.dur_us, 1, 0)
                    .arg("request", s.request),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_us: f64, dur_us: f64) -> Span {
        Span {
            layer,
            name: layer,
            request: 1,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let mut s = Spans::new(true);
        s.spans = vec![
            span("hunipu", 10.0, 50.0),
            span("request", 0.0, 100.0),
            span("lsap", 60.0, 20.0),
            span("cpu_hungarian", 200.0, 30.0),
        ];
        let got = s.self_ms();
        let ms = |layer| got.iter().find(|(l, _)| *l == layer).unwrap().1;
        assert!((ms("request") - 0.030).abs() < 1e-12);
        assert!((ms("hunipu") - 0.050).abs() < 1e-12);
        assert!((ms("lsap") - 0.020).abs() < 1e-12);
        assert!((ms("cpu_hungarian") - 0.030).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_of_nested_spans_validates() {
        let mut s = Spans::new(true);
        let outer = Instant::now();
        let inner = Instant::now();
        s.end(inner, "hunipu", "WarmEngine::solve", 1);
        s.end(outer, "request", "request", 1);
        s.set_on(false);
        s.end(Instant::now(), "lsap", "SolveReport::verify", 1);
        let json = s.chrome("test").to_json();
        let summary = ChromeTrace::validate_json(&json).expect("valid trace");
        assert_eq!(summary.complete_events, 2);
    }
}
