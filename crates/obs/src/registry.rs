//! The hierarchical metrics registry: named, dot-separated metric handles
//! (`via.rdma.bytes`, `dafs.regcache.hits`, `mpiio.twophase.exchange_ns`)
//! backed by the primitive instruments in [`crate::stats`].
//!
//! Names are hierarchical by convention: the segment before the first `.` is
//! the *layer* (`sim`, `via`, `tcp`, `nfs`, `dafs`, `mpiio`), the rest the
//! instrument. Counters whose name ends in `_ns` hold accumulated virtual
//! nanoseconds and feed the per-layer time-breakdown tables in `bench`.
//!
//! Snapshots are deterministic: entries are emitted in lexicographic name
//! order with integer-only fields, so the same simulation produces a
//! byte-identical snapshot on every run.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

use crate::json;
use crate::stats::{ByteMeter, Counter, Histogram};

/// One named instrument held by the registry.
#[derive(Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Counter),
    /// Operation + byte totals.
    Bytes(ByteMeter),
    /// A log₂ histogram.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Bytes(_) => "bytes",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Interned `(layer, op)` key → (count, ns) counter-handle pair.
type SpanCache = HashMap<(&'static str, &'static str), (Counter, Counter)>;

/// A registry of named metrics, snapshotable at any virtual time.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Interned counter-handle pairs for [`Registry::span_counters`]: hot
    /// spans resolve their two counters with one map probe instead of
    /// formatting two metric names per drop.
    span_cache: Mutex<SpanCache>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metric named `name`, created with `make` on first use. The map is
    /// probed with the borrowed name; only an insert builds the `String`.
    fn get_or_insert(&self, name: &str, make: fn() -> Metric) -> Metric {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = m.get(name) {
            return found.clone();
        }
        let metric = make();
        m.insert(name.to_string(), metric.clone());
        metric
    }

    /// Get or create the counter named `name`.
    ///
    /// Panics if `name` is already registered as a different kind — metric
    /// names are a global contract between layers and reports.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the byte meter named `name`.
    pub fn byte_meter(&self, name: &str) -> ByteMeter {
        match self.get_or_insert(name, || Metric::Bytes(ByteMeter::new())) {
            Metric::Bytes(b) => b,
            other => panic!("metric '{name}' is a {}, not a byte meter", other.kind()),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// The `({layer}.{op}_ns, {layer}.{op}.calls)` counter pair backing a
    /// timed span, interned on first use. Metric names are identical to
    /// calling [`Registry::counter`] with the formatted names — this is
    /// purely an allocation-free fast path for per-event span drops.
    pub fn span_counters(&self, layer: &'static str, op: &'static str) -> (Counter, Counter) {
        let mut cache = self.span_cache.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .entry((layer, op))
            .or_insert_with(|| {
                (
                    self.counter(&format!("{layer}.{op}_ns")),
                    self.counter(&format!("{layer}.{op}.calls")),
                )
            })
            .clone()
    }

    /// Freeze every registered metric at virtual time `t_ns`.
    pub fn snapshot(&self, t_ns: u64) -> Snapshot {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let (kind, fields) = match metric {
                    Metric::Counter(c) => ("counter", vec![("value", c.get())]),
                    Metric::Bytes(b) => (
                        "bytes",
                        vec![("ops", b.ops.get()), ("bytes", b.bytes.get())],
                    ),
                    Metric::Histogram(h) => (
                        "histogram",
                        vec![
                            ("count", h.count()),
                            ("sum", h.sum()),
                            ("max", h.max()),
                            ("p50", h.quantile(0.5)),
                            ("p99", h.quantile(0.99)),
                        ],
                    ),
                };
                SnapshotEntry {
                    name: name.clone(),
                    kind,
                    fields,
                }
            })
            .collect();
        Snapshot { t_ns, entries }
    }
}

/// A registry counter looked up by name once and kept: for counters bumped
/// on every simulated event, where [`Registry::counter`]'s mutex and map
/// probe per bump would outweigh the increment.
///
/// Resolution is lazy — the name enters the registry at the first
/// [`LazyCounter::get`], exactly when a by-name lookup would have created
/// it, so snapshots list the same names at the same times. The owner must
/// live inside one simulation: the handle stays bound to the first registry
/// it is shown.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// A handle for the counter `name`, not yet resolved.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The counter, registered in `registry` on first call.
    #[inline]
    pub fn get(&self, registry: &Registry) -> &Counter {
        self.cell.get_or_init(|| registry.counter(self.name))
    }
}

/// One metric frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Full dotted metric name.
    pub name: String,
    /// Instrument kind ("counter" / "bytes" / "histogram").
    pub kind: &'static str,
    /// Field name → value pairs, in a fixed per-kind order.
    pub fields: Vec<(&'static str, u64)>,
}

impl SnapshotEntry {
    /// The metric's primary scalar (counter value / total bytes / sum).
    ///
    /// Panics if the entry carries no field for its kind's primary key —
    /// that is a malformed snapshot, and silently answering 0 (as this
    /// once did) turns an internal invariant break into a plausible-looking
    /// measurement.
    pub fn value(&self) -> u64 {
        let key = match self.kind {
            "bytes" => "bytes",
            "histogram" => "sum",
            _ => "value",
        };
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                panic!(
                    "metric '{}' ({}) has no '{key}' field in snapshot",
                    self.name, self.kind
                )
            })
    }
}

/// The registry's state at one virtual instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Virtual time of the snapshot, nanoseconds.
    pub t_ns: u64,
    /// All metrics, in lexicographic name order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Checked lookup for assert paths: like [`Snapshot::get`], but a
    /// missing name panics with the nearest registered names instead of
    /// letting the caller `unwrap_or(0)` a typo into a real-looking zero.
    pub fn expect(&self, name: &str) -> &SnapshotEntry {
        self.get(name).unwrap_or_else(|| {
            // A typo'd name almost always shares the metric's layer prefix;
            // list that subtree to make the panic actionable.
            let prefix = name.split('.').next().unwrap_or(name);
            let near: Vec<&str> = self.with_prefix(prefix).map(|e| e.name.as_str()).collect();
            panic!("metric '{name}' not in snapshot; '{prefix}.*' has: {near:?}")
        })
    }

    /// Entries whose name starts with `prefix` (a layer or subtree).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SnapshotEntry> {
        self.entries
            .iter()
            .filter(move |e| e.name.starts_with(prefix))
    }

    /// Render as one JSON object (a single JSON-lines record).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 48);
        out.push_str("{\"type\":\"snapshot\",\"t_ns\":");
        out.push_str(&self.t_ns.to_string());
        out.push_str(",\"metrics\":{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, &e.name);
            out.push_str(":{\"kind\":");
            json::push_str(&mut out, e.kind);
            for (k, v) in &e.fields {
                out.push(',');
                json::push_str(&mut out, k);
                out.push(':');
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_registry() {
        let r = Registry::new();
        let c = r.counter("via.doorbells");
        c.add(3);
        let again = r.counter("via.doorbells");
        assert_eq!(again.get(), 3);
    }

    #[test]
    fn lazy_counter_registers_at_first_use_and_shares_state() {
        let r = Registry::new();
        let lazy = LazyCounter::new("via.doorbells");
        assert!(r.snapshot(0).get("via.doorbells").is_none());
        lazy.get(&r).inc();
        r.counter("via.doorbells").add(2);
        assert_eq!(lazy.get(&r).get(), 3);
        assert_eq!(r.snapshot(0).expect("via.doorbells").value(), 3);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.byte_meter("x");
        r.counter("x");
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("b.z").add(1);
        r.byte_meter("a.y").record(10);
        r.histogram("c.x").record(7);
        let s1 = r.snapshot(42);
        let s2 = r.snapshot(42);
        assert_eq!(s1, s2);
        let names: Vec<&str> = s1.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.y", "b.z", "c.x"]);
        assert_eq!(s1.get("a.y").unwrap().value(), 10);
        assert_eq!(s1.to_json_line(), s2.to_json_line());
        assert!(s1
            .to_json_line()
            .starts_with("{\"type\":\"snapshot\",\"t_ns\":42,"));
    }

    #[test]
    fn expect_hits_and_misses() {
        let r = Registry::new();
        r.counter("dafs.sched.boosts").add(3);
        let s = r.snapshot(0);
        assert_eq!(s.expect("dafs.sched.boosts").value(), 3);
    }

    #[test]
    #[should_panic(expected = "not in snapshot")]
    fn expect_panics_on_typo() {
        let r = Registry::new();
        r.counter("dafs.sched.boosts").add(3);
        r.snapshot(0).expect("dafs.sched.bosts");
    }

    #[test]
    #[should_panic(expected = "has no 'value' field")]
    fn value_panics_on_field_mismatch() {
        let e = SnapshotEntry {
            name: "x.y".to_string(),
            kind: "counter",
            fields: vec![("coutn", 1)],
        };
        e.value();
    }

    #[test]
    fn prefix_filter() {
        let r = Registry::new();
        r.counter("dafs.regcache.hits").add(2);
        r.counter("via.doorbells").add(1);
        let s = r.snapshot(0);
        assert_eq!(s.with_prefix("dafs.").count(), 1);
    }
}
