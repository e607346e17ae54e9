//! Spans of a traced run: one per phase per rank and, as its children, one
//! per timed MPI-IO call, each on both clocks. They are kept in memory
//! while the run measures and written as JSON lines when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::json::Json;

/// One span. `parent == 0` marks a phase span; an op span's parent is the
/// phase span of the same rank that encloses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub rank: usize,
    /// The call (`read_at`, `write_at_all`, ...) or, for a phase span, the
    /// phase name.
    pub op: &'static str,
    pub bytes: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
    /// Host nanoseconds since the process started (uncalibrated).
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

impl Span {
    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns - self.sim_start_ns
    }

    fn to_json(&self, workload: &str) -> Json {
        let mut o = Json::obj();
        o.set("id", self.id)
            .set("parent", self.parent)
            .set("workload", workload)
            .set("rank", self.rank)
            .set("op", self.op)
            .set("bytes", self.bytes)
            .set("sim_start_ns", self.sim_start_ns)
            .set("sim_end_ns", self.sim_end_ns)
            .set("host_start_ns", self.host_start_ns)
            .set("host_end_ns", self.host_end_ns);
        o
    }
}

/// Virtual self time of every span: its duration minus the part of it its
/// children cover. A rank's calls never overlap, so the children's
/// durations add. For a phase span that is the rank's think time plus its
/// wait in sync and barrier.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.sim_ns();
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.sim_ns()
                    .saturating_sub(covered.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Write `spans` to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(w, "{}", s.to_json(workload).to_line())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            rank: 0,
            op: "x",
            bytes: 0,
            sim_start_ns: start,
            sim_end_ns: end,
            host_start_ns: start,
            host_end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 90),
            span(4, 0, 100, 130),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[&1], 100 - 30 - 40);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 30, "a childless span is all self time");
        // Parts sum to the whole: phase self + children == phase duration.
        assert_eq!(st[&1] + st[&2] + st[&3], spans[0].sim_ns());
    }

    #[test]
    fn jsonl_has_the_ten_fields() {
        let line = span(7, 3, 1, 2).to_json("w").to_line();
        for key in [
            "id",
            "parent",
            "workload",
            "rank",
            "op",
            "bytes",
            "sim_start_ns",
            "sim_end_ns",
            "host_start_ns",
            "host_end_ns",
        ] {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "{key} missing in {line}"
            );
        }
        assert_eq!(Json::parse(&line).unwrap().as_obj().unwrap().len(), 10);
    }
}
