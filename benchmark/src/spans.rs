//! Spans the runner records around its calls into the layers.
//!
//! The traced run keeps one [`SpanLog`] per thread in memory and writes
//! them out when the workload ends. A span names the layer entered, when,
//! for how long, which span caused it and which operation it belongs to.
//! Spans *inside* the program are a later change: child spans here are
//! built from what the calls already return (`SubmitReply.ms`,
//! `RunReport::index_build_time`, `VariantOutcome::started/finished`).

use std::collections::BTreeMap;
use std::time::Instant;

use variantdbscan::{JsonArray, JsonObject};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Operation id: spans of one request or one engine run share it.
    pub op: u64,
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Per-name totals: how often the layer was entered, for how long, and
/// how much of that was not spent in a child span.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanLog {
    /// A log whose clock starts at `origin`; logs that are merged later
    /// must share it.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Records a child whose length is known (the callee reported it)
    /// but whose position is not: it is centred in its parent.
    pub fn push_centred(&mut self, name: &'static str, parent: u32, length_ns: u64, op: u64) {
        let (ps, pe) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns)
        };
        let length = length_ns.min(pe - ps);
        let start = ps + (pe - ps - length) / 2;
        self.push(name, start, start + length, Some(parent), op);
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Self time per span name: a span's duration minus the part of it
    /// that its direct children cover (overlapping children, such as
    /// parallel workers, are counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p as usize].push((a, b));
                }
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total - covered;
        }
        out
    }

    /// `{"workload":…, "self_time":{name:{count,total_ns,self_ns}}, "spans":[…]}`
    pub fn to_json(&self, workload: &str) -> String {
        let mut summary = JsonObject::new();
        for (name, t) in self.self_times() {
            summary = summary.raw(
                name,
                &JsonObject::new()
                    .uint("count", t.count)
                    .uint("total_ns", t.total_ns)
                    .uint("self_ns", t.self_ns)
                    .finish(),
            );
        }
        let mut spans = JsonArray::new();
        for (id, s) in self.spans.iter().enumerate() {
            let o = JsonObject::new()
                .uint("id", id as u64)
                .str("name", s.name)
                .uint("start_ns", s.start_ns)
                .uint("end_ns", s.end_ns)
                .uint("op", s.op);
            let o = match s.parent {
                Some(p) => o.uint("parent", u64::from(p)),
                None => o.null("parent"),
            };
            spans.push_raw(&o.finish());
        }
        JsonObject::new()
            .str("workload", workload)
            .raw("self_time", &summary.finish())
            .raw("spans", &spans.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push("execute", 0, 1000, None, 1);
        log.push("index", 0, 100, Some(root), 1);
        // Two parallel workers overlapping on [100, 900) and [200, 1000).
        let w0 = log.push("worker", 100, 900, Some(root), 1);
        log.push("worker", 200, 1000, Some(root), 1);
        log.push("variant", 100, 500, Some(w0), 1);
        // A child that sticks out of its parent is clipped.
        log.push("variant", 800, 1200, Some(w0), 1);
        let t = log.self_times();
        assert_eq!(
            t["execute"],
            SelfTime {
                count: 1,
                total_ns: 1000,
                self_ns: 0
            }
        );
        assert_eq!(t["worker"].total_ns, 1600);
        assert_eq!(t["worker"].self_ns, 300 + 800);
        assert_eq!(t["variant"].self_ns, 800);
    }

    #[test]
    fn centred_child_and_merge_keep_links() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        let s = a.push("submit", 1000, 4000, None, 7);
        a.push_centred("engine", s, 1000, 7);
        assert_eq!((a.spans[1].start_ns, a.spans[1].end_ns), (2000, 3000));
        a.push_centred("engine", s, 9000, 7);
        assert_eq!((a.spans[2].start_ns, a.spans[2].end_ns), (1000, 4000));

        let mut b = SpanLog::new(origin);
        let s = b.push("submit", 0, 10, None, 8);
        b.push_centred("engine", s, 4, 8);
        a.merge(b);
        assert_eq!(a.spans[4].parent, Some(3));
        let json = a.to_json("w");
        let doc = vbp_service::parse_json(json.as_bytes()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 5);
        assert!(doc.get("self_time").unwrap().get("submit").is_some());
    }
}
