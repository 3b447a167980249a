//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and request id.
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. A span's self time is its duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::sys::median;
use crate::Metrics;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (operation) this span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When disabled, [`Tracer::span`] only runs its body.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// An empty, disabled tracer on this tracer's clock, for another
    /// thread; fold it back in with [`Tracer::absorb`].
    pub fn child(&self) -> Tracer {
        Tracer {
            on: false,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Appends the spans of a [`Tracer::child`].
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Switches recording on or off for the following spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return body(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(index);
        let out = body(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .collect()
    }

    /// Self time in milliseconds of every span, by index.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64 * 1e-6)
            .collect()
    }

    /// Per request whose root span is named `root`: the root's
    /// duration and the self time of every span under it, summed by
    /// name (the root's own self time under the root's name).
    pub fn breakdown(&self, root: &str) -> Vec<(f64, BTreeMap<&'static str, f64>)> {
        let own = self.self_ms();
        let mut top = vec![usize::MAX; self.spans.len()];
        let mut out: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
        let mut slot: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            top[i] = match s.parent {
                Some(p) => top[p],
                None => i,
            };
            let r = top[i];
            if self.spans[r].name != root {
                continue;
            }
            let k = *slot.entry(r).or_insert_with(|| {
                out.push((self.spans[r].dur_ns() as f64 * 1e-6, BTreeMap::new()));
                out.len() - 1
            });
            *out[k].1.entry(s.name).or_insert(0.0) += own[i];
        }
        out
    }

    /// The ledger's accounting of the traced operations (root span
    /// `op`). Records `trace.overhead_pct`, the traced against the
    /// untraced median op time, and `trace.unaccounted_pct`, the median
    /// share of an op's time no layer span covers. Prints each span's
    /// mean self time along the blocking path: means add up, so their
    /// sum is the mean traced op time, next to the untraced mean.
    pub fn account(&self, untraced_ms: &[f64], traced_ms: &[f64], m: &mut Metrics) {
        let rows = self.breakdown("op");
        m.insert(
            "trace.overhead_pct",
            (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0,
        );
        let own: Vec<f64> = rows
            .iter()
            .map(|(total, by)| by.get("op").copied().unwrap_or(0.0) / total * 100.0)
            .collect();
        m.insert("trace.unaccounted_pct", median(&own));
        let mut names: Vec<&str> = rows.iter().flat_map(|(_, by)| by.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let n = rows.len().max(1) as f64;
        eprintln!(
            "blocking-path self times (mean over {} traced ops):",
            rows.len()
        );
        let mut sum = 0.0;
        for name in names {
            let mean = rows.iter().filter_map(|(_, by)| by.get(name)).sum::<f64>() / n;
            sum += mean;
            eprintln!("  {name:<24} {mean:>12.4} ms");
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        eprintln!(
            "  sum {sum:.4} ms; untraced op mean {:.4} ms",
            mean(untraced_ms)
        );
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// I/O failures writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let own = self.self_ms();
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ms\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, own[i]
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_breakdown_groups_by_root() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        tr.span("op", |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.req == 7));
        let own = tr.self_ms();
        assert!(own[2] >= 2.0);
        assert!(own[1] < own[2]);
        let rows = tr.breakdown("op");
        assert_eq!(rows.len(), 1);
        let total: f64 = rows[0].1.values().sum();
        assert!(
            (total - rows[0].0).abs() < 1e-6,
            "self times add up to the root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 3), 3);
        assert!(tr.spans().is_empty());
    }
}
