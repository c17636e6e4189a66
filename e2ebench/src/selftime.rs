//! Exclusive (self) time per span, inferred from interval nesting.
//!
//! `rdp-obs` records a span as `(name, thread, start, duration)` with no
//! parent id. Spans are RAII guards on one thread, so on each thread they
//! nest properly: a span's parent is the innermost earlier span on the same
//! thread whose interval contains it. A span's self time is its duration
//! minus the durations of its direct children. Spans on different threads
//! never nest (a pool worker's span does not reduce its caller's self time:
//! the caller was blocked, not idle, and the worker ran in parallel).

use std::collections::BTreeMap;

/// One recorded span, as read from a collector or a `trace.jsonl` file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanRec {
    fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Self time of every span, in the order of `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    // Per thread, outer spans first: by start, then the longer (enclosing)
    // span before the shorter one it contains.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns()))
    });
    let mut open: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            open.clear();
            tid = Some(s.tid);
        }
        while let Some(&top) = open.last() {
            if spans[top].end_ns() >= s.end_ns() {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(s.dur_ns);
        }
        open.push(i);
    }
    self_ns
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub calls: u64,
    pub self_ns: u64,
}

/// [`self_times`] aggregated by span name over all threads.
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<String, SpanStat> {
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.self_ns += own;
    }
    out
}

/// Summed self time of the spans on thread `tid`: the part of that thread's
/// wall time that some span covers.
pub fn thread_self_ns(spans: &[SpanRec], tid: u64) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.tid == tid)
        .map(|(_, own)| own)
        .sum()
}

/// The thread that called into the program: the one holding the longest
/// span (the flow's own phases run on the calling thread; pool workers only
/// ever hold short per-chunk spans).
pub fn calling_thread(spans: &[SpanRec]) -> Option<u64> {
    spans.iter().max_by_key(|s| s.dur_ns).map(|s| s.tid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            tid,
            start_ns,
            dur_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // Recorded in drop order: innermost first, as the ring holds them.
        let spans = vec![
            span("grandchild", 0, 20, 30),
            span("child", 0, 10, 40),
            span("parent", 0, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 70]);
        assert_eq!(thread_self_ns(&spans, 0), 100);
    }

    #[test]
    fn siblings_both_subtract_from_their_parent() {
        let spans = vec![
            span("a", 0, 10, 30),
            span("b", 0, 40, 70),
            span("parent", 0, 0, 100),
            span("after", 0, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50, 30]);
        let stats = by_name(&spans);
        assert_eq!(
            stats["parent"],
            SpanStat {
                calls: 1,
                self_ns: 50
            }
        );
        assert_eq!(thread_self_ns(&spans, 0), 130);
    }

    #[test]
    fn spans_on_other_threads_never_nest() {
        let spans = vec![
            span("caller", 0, 0, 100),
            span("worker", 1, 10, 90),
            span("worker", 2, 20, 80),
        ];
        assert_eq!(self_times(&spans), vec![100, 80, 60]);
        let stats = by_name(&spans);
        assert_eq!(
            stats["worker"],
            SpanStat {
                calls: 2,
                self_ns: 140
            }
        );
        assert_eq!(thread_self_ns(&spans, 0), 100);
        assert_eq!(calling_thread(&spans), Some(0));
    }

    #[test]
    fn same_name_nesting_and_shared_start() {
        // A `route` span wrapping another `route` span that starts on the
        // same nanosecond: the longer one is the parent.
        let spans = vec![span("route", 0, 5, 15), span("route", 0, 5, 25)];
        assert_eq!(self_times(&spans), vec![10, 10]);
        assert_eq!(
            by_name(&spans)["route"],
            SpanStat {
                calls: 2,
                self_ns: 20
            }
        );
    }

    #[test]
    fn uncovered_gaps_are_not_attributed() {
        let spans = vec![span("a", 3, 0, 10), span("b", 3, 50, 60)];
        assert_eq!(thread_self_ns(&spans, 3), 20);
        assert_eq!(thread_self_ns(&spans, 4), 0);
        assert_eq!(calling_thread(&[]), None);
    }
}
