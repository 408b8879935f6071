//! Spans recorded around the calls into each layer, from the benchmark's
//! side of every boundary: kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One timed interval of one request. Names are unique within a request,
/// so a parent is named rather than numbered — which lets the server-side
/// dispatcher file its span under a client-side one it never saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// The call id: what the spans of one request share.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store, shared by the calling thread and the
/// dispatcher running on the server's threads.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        start_ns: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log lock").push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    cover.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (start, end) in cover {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Per request: each span's self time by name, plus the root's duration.
pub struct RequestTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub root_ns: u64,
}

/// Groups spans by request and computes self times. Requests without a
/// root span (a dispatcher span whose call was never closed) are skipped.
pub fn per_request(spans: &[Span]) -> Vec<RequestTimes> {
    let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_request.entry(s.request).or_default().push(s);
    }
    by_request
        .values()
        .filter_map(|group| {
            let root = group.iter().find(|s| s.parent.is_none())?;
            let self_ns = group
                .iter()
                .map(|s| {
                    let children: Vec<&Span> = group
                        .iter()
                        .filter(|c| c.parent == Some(s.name))
                        .copied()
                        .collect();
                    (s.name, self_time(s, &children))
                })
                .collect();
            Some(RequestTimes {
                self_ns,
                root_ns: root.end_ns - root.start_ns,
            })
        })
        .collect()
}

/// The trace file's form: one object per span.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, Json::str)),
                    ("request", Json::Num(s.request as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("call", None, 1, 0, 100),
            span("marshal", Some("call"), 1, 5, 15),
            // Adjacent to marshal: no gap, no double count.
            span("send", Some("call"), 1, 15, 30),
            span("wait", Some("call"), 1, 30, 90),
            // Nested two deep: comes out of wait, not out of call.
            span("dispatch", Some("wait"), 1, 50, 70),
            span("call", None, 2, 200, 210),
        ];
        let times = per_request(&spans);
        assert_eq!(times.len(), 2);
        let t = &times[0];
        assert_eq!(t.root_ns, 100);
        assert_eq!(t.self_ns["call"], 100 - 10 - 15 - 60);
        assert_eq!(t.self_ns["marshal"], 10);
        assert_eq!(t.self_ns["wait"], 40);
        assert_eq!(t.self_ns["dispatch"], 20);
        // Self times of a request add up to its root span exactly.
        assert_eq!(t.self_ns.values().sum::<u64>(), t.root_ns);
        assert_eq!(times[1].self_ns["call"], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let parent = span("p", None, 1, 10, 50);
        let a = span("a", Some("p"), 1, 0, 30);
        let b = span("b", Some("p"), 1, 20, 40);
        let c = span("c", Some("p"), 1, 45, 80);
        assert_eq!(self_time(&parent, &[&a, &b, &c]), 40 - 30 - 5);
        assert_eq!(self_time(&parent, &[]), 40);
    }

    #[test]
    fn orphans_are_skipped() {
        let spans = vec![span("dispatch", Some("wait"), 9, 0, 5)];
        assert!(per_request(&spans).is_empty());
    }
}
