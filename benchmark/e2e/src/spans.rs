//! Benchmark-owned spans: recorded around calls into the product from the
//! outside, kept in memory, written as JSONL when the run ends.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the `id` of the span that caused it
/// (0 = none); spans of one request share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub rank: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span sink for one thread (a rank, or the client). Ids are unique
/// across recorders of one run because each recorder owns the id range
/// `rank << 40 ..`.
pub struct Recorder {
    epoch: Instant,
    rank: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their clocks agree.
    pub fn new(epoch: Instant, rank: u32) -> Recorder {
        Recorder {
            epoch,
            rank,
            next: (u64::from(rank) << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let id = self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        // The span being closed is almost always the last one opened.
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end;
        }
    }

    /// Records a finished interval.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            rank: self.rank,
            start_ns,
            end_ns,
        });
        id
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Overlapping children are counted once and children
/// are clipped to the parent's interval.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut ivs: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    ivs.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for (s, e) in ivs {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    parent.dur_ns() - covered
}

/// Per span name: how many, their total duration and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Totals by span name over a whole trace.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl<W: Write>(mut w: W, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"req\":{},\"rank\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            json::quote(s.name),
            s.req,
            s.rank,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            rank: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_intervals() {
        let p = span(1, 0, 100, 200);
        // Disjoint children: 100 - 20 - 30.
        let a = span(2, 1, 110, 130);
        let b = span(3, 1, 150, 180);
        assert_eq!(self_time_ns(&p, &[&a, &b]), 50);
        // Overlapping children are covered once: [110,140) ∪ [120,160) = 50.
        let c = span(4, 1, 110, 140);
        let d = span(5, 1, 120, 160);
        assert_eq!(self_time_ns(&p, &[&d, &c]), 50);
        // A child nested in another adds nothing; one leaking past the parent is clipped.
        let e = span(6, 1, 115, 120);
        let f = span(7, 1, 190, 250);
        assert_eq!(self_time_ns(&p, &[&c, &e, &f]), 100 - 30 - 10);
        // No children: the whole duration.
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn recorder_links_parents_and_totals_self_time() {
        let mut r = Recorder::new(Instant::now(), 3);
        let outer = r.push("outer", 0, 7, 1_000, 9_000);
        r.push("inner", outer, 7, 2_000, 5_000);
        let live = r.open("live", outer, 7);
        r.close(live);
        assert_eq!(r.spans[1].parent, r.spans[0].id);
        assert_eq!(r.spans[0].rank, 3);
        assert!(r.spans[0].id > 3 << 40);
        assert!(r.spans[2].end_ns >= r.spans[2].start_ns);
        r.spans.pop();
        let totals = totals_by_name(&r.spans);
        assert_eq!(
            totals["outer"],
            NameTotal {
                count: 1,
                total_ns: 8_000,
                self_ns: 5_000
            }
        );
        assert_eq!(totals["inner"].self_ns, 3_000);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &r.spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::Json::parse(line).unwrap();
            assert_eq!(v.num("req"), Some(7.0));
        }
    }
}
