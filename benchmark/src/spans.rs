//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is (name, start, end, parent span, settle id). They are kept in
//! memory during a traced segment and written out, one JSON object per
//! line, when the run ends. A span's *self time* is its duration minus
//! the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// The settle this span belongs to; spans of one settle share it.
    pub settle: Option<u64>,
}

/// An open span: closed by [`Tracer::end`].
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    settle: Option<u64>,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<u64>, settle: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            settle,
            start_ns: self.now_ns(),
        }
    }

    /// Closes the span and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            settle: open.settle,
        };
        self.spans
            .lock()
            .expect("a panicking thread held the span buffer")
            .push(span);
        end_ns - open.start_ns
    }

    /// Every span recorded so far, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a panicking thread held the span buffer"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent, so overlapping children on several
/// threads are not subtracted twice).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some((p_start, p_end)) = s.parent.and_then(|p| bounds.get(&p)) {
            let (start, end) = (s.start_ns.max(*p_start), s.end_ns.min(*p_end));
            if start < end {
                children
                    .entry(s.parent.expect("checked above"))
                    .or_default()
                    .push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per span name: how many, their summed duration, their summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns[&s.id];
    }
    out
}

/// Writes one span per line as a JSON object with parent links.
pub fn write_jsonl<W: Write>(w: &mut W, spans: &[Span]) -> io::Result<()> {
    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"settle\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.settle)
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            settle: Some(9),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b
        // 50..70.
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 20, 30, Some(2)),
            span(4, 50, 70, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 20);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 20);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Two children running on different threads overlap 30..50; a
        // third pokes out past the parent's end.
        let spans = vec![
            span(1, 0, 100, None),
            span(2, 10, 50, Some(1)),
            span(3, 30, 60, Some(1)),
            span(4, 90, 130, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        // An orphan's parent is missing: it is its own root.
        let orphan = vec![span(7, 5, 9, Some(99))];
        assert_eq!(self_times(&orphan)[&7], 4);
    }

    #[test]
    fn tracer_links_parents_and_round_trips_to_jsonl() {
        let tracer = Tracer::new();
        let root = tracer.begin("settle", None, Some(3));
        let child = tracer.begin("alice.new", Some(root.id()), Some(3));
        let child_id = child.id();
        tracer.end(child);
        let root_id = root.id();
        tracer.end(root);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, root_id);
        assert_eq!(spans[1].parent, Some(root_id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["settle"].count, 1);
        assert_eq!(
            totals["settle"].self_ns + totals["alice.new"].self_ns,
            totals["settle"].total_ns
        );
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(&format!("{{\"id\":{root_id},\"name\":\"settle\"")));
        assert!(lines[0].contains("\"parent\":null,\"settle\":3}"));
        assert!(lines[1].contains(&format!("\"id\":{child_id}")));
        assert!(lines[1].contains(&format!("\"parent\":{root_id},")));
        assert!(tracer.take().is_empty());
    }
}
