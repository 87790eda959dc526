//! Spans recorded around the calls into each layer, from the benchmark's
//! side of the boundary. Kept in memory; written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// `stream` of a span that covers every stream of its epoch or session.
pub const ALL_STREAMS: u32 = u32::MAX;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// With the workload and `stream`, the trace id: the epoch (library
    /// workloads) or stream session (`serve_live`) the span belongs to.
    pub unit: u32,
    pub stream: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u32,
        stream: u32,
    ) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, unit, stream });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Record a span whose ends were timed elsewhere (a detection: from its
    /// chunk's due time to its receipt).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u32,
        stream: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            unit,
            stream,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reached = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reached);
                    if hi > lo {
                        covered += hi - lo;
                        reached = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, over spans for which `keep` holds.
    pub fn self_ns_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if keep(s) {
                *by_name.entry(s.name).or_insert(0) += self_ns;
            }
        }
        by_name
    }

    /// Write `{"workload": ..., "spans": [...]}`; a span's trace id is
    /// `workload/unit/stream`.
    pub fn write_json(&self, workload: &str, path: &Path) -> io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let stream =
                if s.stream == ALL_STREAMS { "*".to_string() } else { s.stream.to_string() };
            write!(
                out,
                "{sep}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":\"{workload}/{}/{stream}\"}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, unit: 0, stream: ALL_STREAMS }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("epoch", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("fingerprint", 30, 40, Some(0)),
            // Overlaps `fingerprint` by 5 and its own child fully.
            span("push", 35, 80, Some(0)),
            span("probe", 50, 60, Some(3)),
            // Starts inside its parent and ends after it: only [90, 100) counts.
            span("detect", 90, 140, Some(0)),
            // A replay after its parent ended covers none of it.
            span("fold", 85, 88, Some(3)),
        ];
        let own = t.self_times_ns();
        // epoch: 100 - |[10,80) u [90,100)| = 100 - 80
        assert_eq!(own, vec![20, 20, 10, 35, 10, 50, 3]);
        let by_name = t.self_ns_by_name(|s| s.name != "epoch");
        assert_eq!(by_name["push"], 35);
        assert_eq!(by_name.values().sum::<u64>(), 128);
        assert!(!by_name.contains_key("epoch"));
    }

    #[test]
    fn recorded_and_opened_spans_keep_their_cause_and_trace_id() {
        let mut t = Tracer::new();
        let root = t.open("serve.send_chunk", None, 7, 2);
        t.close(root);
        let due = Instant::now();
        let got = t.record("serve.detect", Some(root), 7, 2, due, Instant::now());
        assert_eq!(t.spans()[got as usize].parent, Some(root));
        assert_eq!((t.spans()[got as usize].unit, t.spans()[got as usize].stream), (7, 2));
        assert!(t.spans()[root as usize].end_ns >= t.spans()[root as usize].start_ns);
    }
}
