//! The metrics registry: one value per key, a key being a dotted name
//! (`via.rdma.bytes`, `dafs.regcache.hits`) plus a small fixed label set
//! ([`Labels`]), backed by the instruments in [`crate::stats`]. The name's
//! first segment is its *layer* (`sim`, `via`, `dafs`, `mpiio`, ...); a
//! counter ending in `_ns` holds virtual nanoseconds for the per-layer time
//! tables in `bench`.
//!
//! A name is **plain** (one series) or **labelled** (one per label set),
//! fixed at its first registration like its kind; asking for it the other
//! way panics. A per-object count is the object's labelled series — a DAFS
//! session bumps `dafs.ops{host, server}` and nothing else — and totals are
//! rolled up on read ([`Snapshot::get`], [`Registry::total`]). Snapshots
//! list names, then series, in sorted order with integer fields, so the
//! same simulation snapshots byte-identically on every run.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

use crate::json;
use crate::stats::{nearest_rank, ByteMeter, Counter, SampleSet};

/// The dimensions of a series: a DAFS session sets `host` and `server`, a
/// NIC `host`, the server's scheduler `server` and `tenant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels {
    /// The client host, by simulator host id.
    pub host: Option<u64>,
    /// The server host, by simulator host id.
    pub server: Option<u64>,
    /// The QoS tenant a session declared.
    pub tenant: Option<u64>,
}

impl Labels {
    /// No labels: the key of a plain metric.
    pub const NONE: Labels = Labels {
        host: None,
        server: None,
        tenant: None,
    };

    /// These labels with `host` set.
    pub fn host(mut self, id: u64) -> Labels {
        self.host = Some(id);
        self
    }

    /// These labels with `server` set.
    pub fn server(mut self, id: u64) -> Labels {
        self.server = Some(id);
        self
    }

    /// These labels with `tenant` set.
    pub fn tenant(mut self, id: u64) -> Labels {
        self.tenant = Some(id);
        self
    }

    fn is_plain(&self) -> bool {
        *self == Labels::NONE
    }
}

/// One series' instrument. A sample set's snapshot kind is `"histogram"`.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Bytes(ByteMeter),
    Histogram(SampleSet),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Bytes(_) => "bytes",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        match self {
            Metric::Counter(c) => vec![("value", c.get())],
            Metric::Bytes(b) => vec![("ops", b.ops.get()), ("bytes", b.bytes.get())],
            Metric::Histogram(s) => {
                let s = s.sorted();
                let max = s.last().copied().unwrap_or(0);
                let (p50, p99) = (nearest_rank(&s, 0.5), nearest_rank(&s, 0.99));
                let (count, sum) = (s.len() as u64, s.iter().sum());
                vec![
                    ("count", count),
                    ("sum", sum),
                    ("max", max),
                    ("p50", p50),
                    ("p99", p99),
                ]
            }
        }
    }

    fn entry(&self, name: &str, labels: Labels) -> SnapshotEntry {
        SnapshotEntry {
            name: name.to_string(),
            labels,
            kind: self.kind(),
            fields: self.fields(),
        }
    }
}

/// A name's series by labels: one, under [`Labels::NONE`], for a plain name.
type Family = BTreeMap<Labels, Metric>;

/// The name's snapshot entry: its kind, its fields summed over its series.
fn rolled_up(name: &str, family: &Family) -> SnapshotEntry {
    let mut series = family.values().map(|m| m.entry(name, Labels::NONE));
    let mut entry = series.next().expect("a name has a series");
    for e in series {
        for (acc, (_, v)) in entry.fields.iter_mut().zip(e.fields) {
            acc.1 += v;
        }
    }
    entry
}

/// Interned `(layer, op)` key → (count, ns) counter-handle pair.
type SpanCache = HashMap<(&'static str, &'static str), (Counter, Counter)>;

/// A registry of metrics, snapshotable at any virtual time.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Family>>,
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

    /// The series `(name, labels)`, created with `make` on first use (only a
    /// new name builds a `String`). A series of another kind than its
    /// name's is not created: the name's kind comes back, to be refused.
    fn get_or_insert(&self, name: &str, labels: Labels, make: fn() -> Metric) -> Metric {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let Some(family) = m.get_mut(name) else {
            let metric = make();
            m.insert(name.to_string(), Family::from([(labels, metric.clone())]));
            return metric;
        };
        let (first_labels, first) = family.iter().next().expect("a name has a series");
        match (first_labels.is_plain(), labels.is_plain()) {
            (true, true) => return first.clone(),
            (true, false) => panic!("metric '{name}' is plain: it takes no labels ({labels:?})"),
            (false, true) => panic!("metric '{name}' is labelled: read its total with total()"),
            (false, false) => {}
        }
        if let Some(metric) = family.get(&labels) {
            return metric.clone();
        }
        let metric = make();
        if metric.kind() != first.kind() {
            return first.clone();
        }
        family.insert(labels, metric.clone());
        metric
    }

    /// Get or create the plain counter named `name`.
    ///
    /// Panics if `name` is already registered as a different kind, or as a
    /// labelled name — metric names are a global contract between layers
    /// and reports.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_at(name, Labels::NONE)
    }

    /// Get or create the counter series `(name, labels)`.
    pub fn counter_at(&self, name: &str, labels: Labels) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the plain byte meter named `name`.
    pub fn byte_meter(&self, name: &str) -> ByteMeter {
        self.byte_meter_at(name, Labels::NONE)
    }

    /// Get or create the byte-meter series `(name, labels)`.
    pub fn byte_meter_at(&self, name: &str, labels: Labels) -> ByteMeter {
        match self.get_or_insert(name, labels, || Metric::Bytes(ByteMeter::new())) {
            Metric::Bytes(b) => b,
            other => panic!("metric '{name}' is a {}, not a byte meter", other.kind()),
        }
    }

    /// Get or create the plain sample set named `name` (kind `"histogram"`).
    pub fn histogram(&self, name: &str) -> SampleSet {
        self.histogram_at(name, Labels::NONE)
    }

    /// Get or create the sample-set series `(name, labels)`.
    pub(crate) fn histogram_at(&self, name: &str, labels: Labels) -> SampleSet {
        match self.get_or_insert(name, labels, || Metric::Histogram(SampleSet::new())) {
            Metric::Histogram(s) => s,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// The primary value of `name` (a counter's value, a byte meter's
    /// bytes, a histogram's sum) summed over its series; 0 if it was never
    /// registered.
    pub fn total(&self, name: &str) -> u64 {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.get(name).map_or(0, |f| rolled_up(name, f).value())
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
        let entries = m.iter().map(|(name, f)| rolled_up(name, f)).collect();
        let series = m.iter().flat_map(|(name, f)| {
            let labelled = f.iter().filter(|(labels, _)| !labels.is_plain());
            labelled.map(move |(&labels, metric)| metric.entry(name, labels))
        });
        Snapshot {
            t_ns,
            entries,
            series: series.collect(),
        }
    }
}

/// A registry series looked up once and kept: an object's series, or an
/// instrument bumped so often that a by-name lookup per bump would
/// outweigh it. The series enters the registry at the first
/// [`Lazy::resolve`], when a by-name lookup would have created it. The key
/// is the series, not the object: handles with one name and one label set
/// share one value, which each reads once it has resolved; a handle not
/// yet resolved reads 0 whatever the others have counted. The handle
/// stays bound to the first registry it is shown, so its owner must live
/// inside one simulation.
pub struct Lazy<T> {
    name: &'static str,
    labels: Labels,
    cell: OnceLock<T>,
}

/// A lazily resolved counter series.
pub type LazyCounter = Lazy<Counter>;
/// A lazily resolved byte-meter series.
pub type LazyByteMeter = Lazy<ByteMeter>;
/// A lazily resolved sample-set series.
pub type LazyHistogram = Lazy<SampleSet>;

impl<T> Lazy<T> {
    /// A handle for the plain metric `name`, not yet resolved.
    pub fn new(name: &'static str) -> Lazy<T> {
        Lazy::at(name, Labels::NONE)
    }

    /// A handle for the series `(name, labels)`, not yet resolved.
    pub fn at(name: &'static str, labels: Labels) -> Lazy<T> {
        let cell = OnceLock::new();
        Lazy { name, labels, cell }
    }
}

impl Lazy<Counter> {
    /// The counter, registered in `reg` on first call.
    #[inline]
    pub fn resolve(&self, reg: &Registry) -> &Counter {
        self.cell
            .get_or_init(|| reg.counter_at(self.name, self.labels))
    }

    /// The series' value so far.
    pub fn get(&self) -> u64 {
        self.cell.get().map_or(0, Counter::get)
    }
}

impl Lazy<ByteMeter> {
    /// The byte meter, registered in `reg` on first call.
    #[inline]
    pub fn resolve(&self, reg: &Registry) -> &ByteMeter {
        self.cell
            .get_or_init(|| reg.byte_meter_at(self.name, self.labels))
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.cell.get().map_or(0, |b| b.ops.get())
    }

    /// Bytes recorded so far.
    pub fn bytes(&self) -> u64 {
        self.cell.get().map_or(0, |b| b.bytes.get())
    }
}

impl Lazy<SampleSet> {
    /// The sample set, registered in `reg` on first call.
    #[inline]
    pub fn resolve(&self, reg: &Registry) -> &SampleSet {
        self.cell
            .get_or_init(|| reg.histogram_at(self.name, self.labels))
    }
}

/// One metric, or one series of a labelled metric, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Full dotted metric name.
    pub name: String,
    /// The series' labels; [`Labels::NONE`] on a rolled-up entry.
    pub labels: Labels,
    /// Instrument kind ("counter" / "bytes" / "histogram").
    pub kind: &'static str,
    /// Field name → value pairs, in a fixed per-kind order.
    pub fields: Vec<(&'static str, u64)>,
}

impl SnapshotEntry {
    /// The metric's primary scalar (counter value / total bytes / sum).
    pub fn value(&self) -> u64 {
        self.field(match self.kind {
            "bytes" => "bytes",
            "histogram" => "sum",
            _ => "value",
        })
    }

    /// The field `key` (a byte meter's `ops`, a histogram's `p99`, ...).
    /// Panics if there is none: answering 0 would turn a typo or a
    /// malformed snapshot into a plausible-looking measurement.
    pub fn field(&self, key: &str) -> u64 {
        let found = self.fields.iter().find(|(k, _)| *k == key);
        found.map(|(_, v)| *v).unwrap_or_else(|| {
            let (name, kind) = (&self.name, self.kind);
            panic!("metric '{name}' ({kind}) has no '{key}' field in snapshot")
        })
    }

    /// `"kind":..., then each field`, as JSON object members.
    fn push_json(&self, out: &mut String) {
        out.push_str("\"kind\":");
        json::push_str(out, self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json::push_str(out, k);
            out.push_str(&format!(":{v}"));
        }
    }
}

/// The registry's state at one virtual instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Virtual time of the snapshot, nanoseconds.
    pub t_ns: u64,
    /// One entry per name, in lexicographic name order; a labelled name's
    /// fields are summed over its series. Readers that walk this by name
    /// (the benchmark's flattening among them) never see one name twice.
    pub entries: Vec<SnapshotEntry>,
    /// Every labelled name's series, by name then labels.
    series: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Look up a metric's rolled-up entry by full name.
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
            let near = self.entries.iter().map(|e| e.name.as_str());
            let near: Vec<&str> = near.filter(|n| n.starts_with(prefix)).collect();
            panic!("metric '{name}' not in snapshot; '{prefix}.*' has: {near:?}")
        })
    }

    /// The series of the labelled metric `name`, in label order (none for
    /// a plain or unknown name).
    pub fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SnapshotEntry> {
        self.series.iter().filter(move |e| e.name == name)
    }

    /// Render as one JSON object (a single JSON-lines record): the
    /// rolled-up entries by name under `"metrics"`, and one object per
    /// series, its name and labels first, in the `"series"` array.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"snapshot\",\"t_ns\":{},\"metrics\":{{",
            self.t_ns
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            json::push_str(&mut out, &e.name);
            out.push_str(":{");
            e.push_json(&mut out);
            out.push('}');
        }
        out.push_str("},\"series\":[");
        for (i, e) in self.series.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"name\":" } else { "{\"name\":" });
            json::push_str(&mut out, &e.name);
            let l = e.labels;
            for (k, v) in [("host", l.host), ("server", l.server), ("tenant", l.tenant)] {
                if let Some(v) = v {
                    out.push_str(&format!(",\"{k}\":{v}"));
                }
            }
            out.push(',');
            e.push_json(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(host: u64, server: u64) -> Labels {
        Labels::NONE.host(host).server(server)
    }

    #[test]
    fn handles_share_state_with_registry() {
        let r = Registry::new();
        let c = r.counter("via.doorbells");
        c.add(3);
        let again = r.counter("via.doorbells");
        assert_eq!(again.get(), 3);
        let s = r.counter_at("dafs.ops", session(1, 2));
        s.add(4);
        assert_eq!(r.counter_at("dafs.ops", session(1, 2)).get(), 4);
        assert_eq!(r.counter_at("dafs.ops", session(1, 3)).get(), 0);
    }

    #[test]
    fn lazy_handles_register_at_first_use_and_share_state() {
        let r = Registry::new();
        let lazy = LazyCounter::new("via.doorbells");
        assert!(r.snapshot(0).get("via.doorbells").is_none());
        assert_eq!(lazy.get(), 0);
        lazy.resolve(&r).inc();
        r.counter("via.doorbells").add(2);
        assert_eq!(lazy.get(), 3);
        assert_eq!(r.snapshot(0).expect("via.doorbells").value(), 3);

        let meter = LazyByteMeter::at("via.mem.registered", Labels::NONE.host(7));
        assert_eq!((meter.ops(), meter.bytes()), (0, 0));
        assert!(r.snapshot(0).get("via.mem.registered").is_none());
        meter.resolve(&r).record(100);
        assert_eq!((meter.ops(), meter.bytes()), (1, 100));
        assert_eq!(r.total("via.mem.registered"), 100);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.byte_meter("x");
        r.counter("x");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_across_series_panics() {
        let r = Registry::new();
        r.byte_meter_at("x", session(0, 1));
        r.counter_at("x", session(0, 2));
    }

    #[test]
    #[should_panic(expected = "is labelled")]
    fn a_labelled_name_read_plain_panics() {
        let r = Registry::new();
        r.counter_at("dafs.ops", session(0, 1)).inc();
        r.counter("dafs.ops");
    }

    #[test]
    #[should_panic(expected = "is plain")]
    fn a_plain_name_read_labelled_panics() {
        let r = Registry::new();
        r.counter("dafs.ops").inc();
        r.counter_at("dafs.ops", session(0, 1));
    }

    #[test]
    fn an_entry_is_the_sum_of_its_series() {
        let r = Registry::new();
        r.counter_at("dafs.ops", session(0, 1)).add(3);
        r.counter_at("dafs.ops", session(0, 2)).add(4);
        r.counter_at("dafs.ops", session(5, 1)).add(5);
        r.byte_meter_at("via.mem.registered", session(0, 1))
            .record(10);
        r.byte_meter_at("via.mem.registered", session(0, 2))
            .record(20);
        r.byte_meter_at("via.mem.registered", session(0, 2))
            .record(30);
        let s = r.snapshot(9);
        for name in ["dafs.ops", "via.mem.registered"] {
            let e = s.expect(name);
            assert_eq!(e.labels, Labels::NONE);
            for (i, (k, v)) in e.fields.iter().enumerate() {
                let sum: u64 = s.series(name).map(|row| row.fields[i].1).sum();
                assert_eq!(*v, sum, "{name}.{k}");
            }
            assert_eq!(r.total(name), e.value());
        }
        assert_eq!(s.expect("dafs.ops").value(), 12);
        assert_eq!(
            s.expect("via.mem.registered").fields,
            vec![("ops", 3), ("bytes", 60)]
        );
        let rows: Vec<(Labels, u64)> = s
            .series("dafs.ops")
            .map(|e| (e.labels, e.value()))
            .collect();
        assert_eq!(
            rows,
            vec![(session(0, 1), 3), (session(0, 2), 4), (session(5, 1), 5)]
        );
        assert_eq!(s.series("nope").count(), 0);
        assert_eq!(r.total("nope"), 0);
    }

    #[test]
    fn entries_name_each_metric_once() {
        let r = Registry::new();
        r.counter("a.plain").inc();
        for host in 0..4 {
            for tenant in 0..3 {
                let l = Labels::NONE.host(host).tenant(tenant);
                r.counter_at("b.labelled", l).inc();
                r.byte_meter_at("c.meter", l).record(host);
            }
        }
        let s = r.snapshot(0);
        let names: Vec<&str> = s.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.plain", "b.labelled", "c.meter"]);
        assert_eq!(s.series("b.labelled").count(), 12);
        assert_eq!(s.expect("b.labelled").value(), 12);
    }

    #[test]
    fn series_json_is_byte_identical_across_runs() {
        let run = || {
            let r = Registry::new();
            r.counter("sim.cpu_ns").add(7);
            for (host, server) in [(3, 1), (0, 2), (0, 1)] {
                r.counter_at("dafs.ops", session(host, server))
                    .add(host + server);
                r.byte_meter_at("dafs.inline.read.bytes", session(host, server))
                    .record(4096);
            }
            r.snapshot(42).to_json_line()
        };
        let line = run();
        assert_eq!(line, run());
        assert!(line.contains(
            "\"series\":[{\"name\":\"dafs.inline.read.bytes\",\"host\":0,\"server\":1,\
             \"kind\":\"bytes\",\"ops\":1,\"bytes\":4096},"
        ));
        assert!(line.ends_with(
            "{\"name\":\"dafs.ops\",\"host\":0,\"server\":1,\"kind\":\"counter\",\"value\":1},\
             {\"name\":\"dafs.ops\",\"host\":0,\"server\":2,\"kind\":\"counter\",\"value\":2},\
             {\"name\":\"dafs.ops\",\"host\":3,\"server\":1,\"kind\":\"counter\",\"value\":4}]}"
        ));
        assert!(line.contains("\"dafs.ops\":{\"kind\":\"counter\",\"value\":7}"));
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
        assert!(s1.to_json_line().ends_with(",\"series\":[]}"));
    }

    #[test]
    fn histogram_entries_quote_recorded_samples() {
        let r = Registry::new();
        for v in [2900u64, 3050, 2950, 3000] {
            r.histogram("adio.inflight").record(v);
        }
        assert_eq!(
            r.snapshot(0).expect("adio.inflight").fields,
            vec![
                ("count", 4),
                ("sum", 11_900),
                ("max", 3050),
                ("p50", 2950),
                ("p99", 3050)
            ]
        );
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
    #[should_panic(expected = "'dafs.*' has: [\"dafs.regcache.hits\"]")]
    fn expect_lists_only_the_layers_names_on_a_miss() {
        let r = Registry::new();
        r.counter("dafs.regcache.hits").add(2);
        r.counter("via.doorbells").add(1);
        r.snapshot(0).expect("dafs.nope");
    }

    #[test]
    #[should_panic(expected = "has no 'value' field")]
    fn value_panics_on_field_mismatch() {
        let e = SnapshotEntry {
            name: "x.y".to_string(),
            labels: Labels::NONE,
            kind: "counter",
            fields: vec![("coutn", 1)],
        };
        e.value();
    }
}
