//! Table formatting for the experiment harness: a table declares its
//! columns and fills them with [`Cell`]s, exact values that know how they
//! print; one renderer makes the text and the JSON.

use obs::json;
use obs::Snapshot;

use crate::testbeds::Run;

/// How a [`Cell::Ratio`]'s `num / den` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Bytes over ns, as decimal MB/s ([`mb_per_s`]).
    MBps,
    /// Operations over ns, in thousands per second.
    Kops,
    /// ns over calls, in µs.
    Us,
    /// ns over calls, in ms.
    Ms,
    /// A plain quotient.
    Per,
    /// A speed-up: the quotient, then `x`.
    Times,
    /// A share: the quotient × 100, then `%`.
    Pct,
}

/// One table cell: the exact value and how it prints.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count (ns, bytes, operations), printed whole.
    Int(u64),
    /// A byte count, printed through [`human_size`].
    Size(u64),
    /// `num / den` read in a [`Unit`], printed with its column's decimals.
    Ratio(u64, u64, Unit),
    /// A text label.
    Text(String),
    /// Nothing measured: `-`.
    Missing,
}

impl Cell {
    /// A text label.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// `bytes` moved in `ns`, as MB/s.
    pub fn mbps(bytes: u64, ns: u64) -> Cell {
        Cell::Ratio(bytes, ns, Unit::MBps)
    }

    /// A time of `ns`, in µs.
    pub fn us(ns: u64) -> Cell {
        Cell::Ratio(ns, 1, Unit::Us)
    }

    /// A time of `ns`, in ms.
    pub fn ms(ns: u64) -> Cell {
        Cell::Ratio(ns, 1, Unit::Ms)
    }

    /// `num / den` as a speed-up.
    pub fn times(num: u64, den: u64) -> Cell {
        Cell::Ratio(num, den, Unit::Times)
    }

    /// The number the cell prints, before rounding; NaN for a label or `-`.
    pub fn value(&self) -> f64 {
        let (num, den, unit) = match *self {
            Cell::Ratio(num, den, unit) => (num, den, unit),
            Cell::Int(n) | Cell::Size(n) => return n as f64,
            Cell::Text(_) | Cell::Missing => return f64::NAN,
        };
        let (n, d) = (num as f64, den as f64);
        match unit {
            Unit::MBps => mb_per_s(num, den),
            Unit::Kops if den == 0 => f64::INFINITY,
            Unit::Kops => n / (d / 1e9) / 1e3,
            Unit::Us => n / d / 1e3,
            Unit::Ms => n / d / 1e6,
            Unit::Per | Unit::Times => n / d,
            Unit::Pct => n / d * 100.0,
        }
    }

    /// The cell as printed, a ratio with `decimals` after the point.
    fn render(&self, decimals: usize) -> String {
        let suffix = match self {
            Cell::Int(n) => return n.to_string(),
            Cell::Size(n) => return human_size(*n),
            Cell::Text(s) => return s.clone(),
            Cell::Missing => return "-".to_string(),
            Cell::Ratio(.., Unit::Times) => "x",
            Cell::Ratio(.., Unit::Pct) => "%",
            Cell::Ratio(..) => "",
        };
        format!("{:.decimals$}{suffix}", self.value())
    }

    /// The exact value in JSON: a count or size as an integer, a ratio as
    /// `[num, den]`, a label as a string, `-` as `null`.
    fn to_json(&self) -> String {
        match self {
            Cell::Int(n) | Cell::Size(n) => n.to_string(),
            Cell::Ratio(num, den, _) => format!("[{num},{den}]"),
            Cell::Text(s) => json::quote(s),
            Cell::Missing => "null".to_string(),
        }
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment title (includes the R-Tn/R-Fn id).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// The decimals each column prints a ratio with.
    pub decimals: Vec<usize>,
    /// Data rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
    /// Expected-shape notes shown under the table.
    pub notes: Vec<String>,
    /// Follow-on tables (per-layer breakdowns), printed after the main one.
    /// Experiments attach these only when tracing is enabled, so default
    /// output is unchanged.
    pub extras: Vec<Table>,
    /// The simulations behind the table, oldest first, as the harness
    /// logged them around the experiment; only the JSON carries them.
    pub runs: Vec<Run>,
}

impl Table {
    /// Start a table with its columns, each a header and the decimals a
    /// ratio in it prints with.
    pub fn new<S: AsRef<str>>(title: &str, columns: &[(S, usize)]) -> Table {
        Table {
            title: title.to_string(),
            headers: columns.iter().map(|c| c.0.as_ref().to_string()).collect(),
            decimals: columns.iter().map(|c| c.1).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            extras: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Attach a follow-on table rendered after this one.
    pub fn push_extra(&mut self, t: Table) {
        self.extras.push(t);
    }

    /// Append a row, one cell per column.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append an expected-shape note.
    pub fn note(&mut self, n: &str) {
        self.notes.push(n.to_string());
    }

    /// Every row as printed.
    fn rendered(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        self.rows.iter().map(|row| {
            row.iter()
                .zip(&self.decimals)
                .map(|(c, d)| c.render(*d))
                .collect()
        })
    }

    /// Render to a string (fixed-width columns).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self.rendered().collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for extra in &self.extras {
            out.push_str(&extra.render());
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Serialize to one JSON object: headers, the rows as printed, each
    /// row's exact `values` ([`Cell`]'s JSON form), the `runs` behind them,
    /// notes and extras. A `wall-clock:` note is host time, so it stays out.
    pub fn to_json(&self) -> String {
        let array = |items: Vec<String>| format!("[{}]", items.join(","));
        let quoted = |cells: &[String]| array(cells.iter().map(|c| json::quote(c)).collect());
        let values = self
            .rows
            .iter()
            .map(|r| array(r.iter().map(Cell::to_json).collect()));
        let runs = self.runs.iter().map(|r| {
            let seed = r.fault_seed.map_or("null".to_string(), |s| s.to_string());
            let (end, events) = (r.end_ns, r.events);
            format!("{{\"end_ns\":{end},\"events\":{events},\"fault_seed\":{seed}}}")
        });
        let notes = self.notes.iter().filter(|n| !n.starts_with("wall-clock:"));
        let mut out = format!(
            "{{\"title\":{},\"headers\":{},\"rows\":{},\"values\":{},\"runs\":{},\"notes\":{}",
            json::quote(&self.title),
            quoted(&self.headers),
            array(self.rendered().map(|r| quoted(&r)).collect()),
            array(values.collect()),
            array(runs.collect()),
            array(notes.map(|n| json::quote(n)).collect()),
        );
        if !self.extras.is_empty() {
            let extras = self.extras.iter().map(Table::to_json).collect();
            out.push_str(&format!(",\"extras\":{}", array(extras)));
        }
        out.push('}');
        out
    }
}

/// Build a per-layer virtual-time breakdown table from a metrics snapshot.
///
/// Every counter named `{layer}.{op}_ns` is an accumulated span (see
/// `ActorCtx::span`); this groups them by the layer prefix and reports each
/// op's total time and call count, so an experiment can show *where* virtual
/// time went (e.g. `mpiio.twophase.exchange_ns` vs `via.rdma` vs `nfs.rpc`).
pub fn layer_breakdown(title: &str, snap: &Snapshot) -> Table {
    let mut t = Table::new(
        title,
        &[
            ("layer", 0),
            ("op", 0),
            ("total_ms", 3),
            ("calls", 0),
            ("avg_us", 1),
        ],
    );
    for e in &snap.entries {
        let Some(op_ns) = e.name.strip_suffix("_ns") else {
            continue;
        };
        let Some((layer, op)) = op_ns.split_once('.') else {
            continue;
        };
        let total = e.value();
        let calls = snap
            .get(&format!("{op_ns}.calls"))
            .map(|c| c.value())
            .unwrap_or(0);
        let avg = if calls > 0 {
            Cell::Ratio(total, calls, Unit::Us)
        } else {
            Cell::us(0)
        };
        t.row([
            Cell::text(layer),
            Cell::text(op),
            Cell::ms(total),
            Cell::Int(calls),
            avg,
        ]);
    }
    t.note(&format!("snapshot at t={} ns", snap.t_ns));
    t
}

/// MB/s (decimal) from bytes moved in `ns` virtual nanoseconds.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Render a byte count compactly ("4K", "1M").
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_aligned() {
        let mut t = Table::new("R-T0: demo", &[("size", 0), ("value", 1)]);
        t.row([Cell::Int(8), Cell::us(1_500)]);
        t.row([Cell::Int(1024), Cell::us(123_400)]);
        t.note("values rise");
        let s = t.render();
        assert!(s.contains("R-T0"));
        assert!(s.contains("note: values rise"));
        // Columns right-aligned to the widest cell.
        assert!(s.contains("   8    1.5"), "{s}");
        assert!(s.contains("1024  123.4"), "{s}");
    }

    /// Each kind of cell prints as the tables always spelled it.
    #[test]
    fn every_cell_kind_keeps_its_spelling() {
        let cases = [
            // MB/s `{:.1}` of `mb_per_s`, a zero span included.
            (Cell::mbps(4 << 20, 39_645_000), 1, "105.8"),
            (Cell::mbps(1, 0), 1, "inf"),
            // UFS's whole MB/s.
            (Cell::mbps(8 << 20, 20_000_000), 0, "419"),
            // µs from ns, and µs per op from ns over calls.
            (Cell::us(8_345), 1, "8.3"),
            (Cell::Ratio(2_000_000, 3, Unit::Us), 1, "666.7"),
            (Cell::us(180_949), 0, "181"),
            (Cell::ms(1_061_000), 2, "1.06"),
            (Cell::ms(2_000_000), 3, "2.000"),
            (Cell::Ratio(3_000, 7_000_000, Unit::Kops), 1, "428.6"),
            // `n.nx` speed-ups, and a plain quotient.
            (Cell::times(73_900, 8_300), 1, "8.9x"),
            (Cell::times(5, 4), 2, "1.25x"),
            (Cell::Ratio(64, 9, Unit::Per), 1, "7.1"),
            (Cell::Ratio(1, 1000, Unit::Pct), 1, "0.1%"),
            // Counts, sizes, labels and the missing cell ignore decimals.
            (Cell::Int(185), 1, "185"),
            (Cell::Size(4096), 1, "4K"),
            (Cell::Size(1 << 21), 0, "2M"),
            (Cell::Size(100), 0, "100"),
            (Cell::text("dafs"), 1, "dafs"),
            (Cell::Missing, 1, "-"),
        ];
        for (cell, decimals, want) in cases {
            assert_eq!(cell.render(decimals), want, "{cell:?}");
        }
    }

    #[test]
    fn json_shape_is_exact() {
        let mut t = Table::new("R-X: json", &[("a", 0), ("b", 0), ("c", 1), ("d", 1)]);
        t.row([
            Cell::Int(1),
            Cell::text("2\"q"),
            Cell::mbps(1_000_000, 3_000_000_000),
            Cell::Missing,
        ]);
        t.note("n");
        t.runs = vec![
            Run {
                end_ns: 7,
                events: 3,
                fault_seed: None,
            },
            Run {
                end_ns: 9,
                events: 4,
                fault_seed: Some(5),
            },
        ];
        assert_eq!(
            t.to_json(),
            r#"{"title":"R-X: json","headers":["a","b","c","d"],"rows":[["1","2\"q","0.3","-"]],"values":[[1,"2\"q",[1000000,3000000000],null]],"runs":[{"end_ns":7,"events":3,"fault_seed":null},{"end_ns":9,"events":4,"fault_seed":5}],"notes":["n"]}"#
        );
    }

    /// A `wall-clock:` note is host time: the rendered table shows it, the
    /// JSON (the golden the suite is diffed against) leaves it out and
    /// keeps every other note.
    #[test]
    fn json_leaves_out_wall_clock_notes() {
        let mut t = Table::new("R-X: notes", &[("a", 0)]);
        t.row([Cell::Int(1)]);
        t.note("expect a plateau");
        t.note("wall-clock: 4096 sim events in 0.01s");
        t.note("a wall-clock: later in the line is kept");
        assert!(t.render().contains("note: wall-clock: 4096 sim events"));
        let j = t.to_json();
        assert!(
            j.ends_with(
                r#""notes":["expect a plateau","a wall-clock: later in the line is kept"]}"#
            ),
            "{j}"
        );
    }

    /// The JSON keeps every integer whole, past what a rounded string shows.
    #[test]
    fn json_carries_the_exact_integers() {
        let mut t = Table::new("R-X: exact", &[("size", 0), ("ns", 0), ("MB/s", 1)]);
        let ns = 9_007_199_254_740_993; // 2^53 + 1: no f64 holds it
        t.row([
            Cell::Size(4 << 10),
            Cell::Int(ns),
            Cell::mbps(4 << 20, 39_645_001),
        ]);
        let j = t.to_json();
        assert!(
            j.contains(r#""values":[[4096,9007199254740993,[4194304,39645001]]]"#),
            "{j}"
        );
        assert!(
            j.contains(r#""rows":[["4K","9007199254740993","105.8"]]"#),
            "{j}"
        );
    }

    #[test]
    fn breakdown_groups_span_counters() {
        let r = obs::Registry::new();
        r.counter("mpiio.twophase.exchange_ns").add(2_000_000);
        r.counter("mpiio.twophase.exchange.calls").add(4);
        r.counter("via.rdma.bytes").add(999); // not a span: ignored
        let t = layer_breakdown("X: breakdown", &r.snapshot(77));
        assert_eq!(
            t.rows,
            [[
                Cell::text("mpiio"),
                Cell::text("twophase.exchange"),
                Cell::ms(2_000_000),
                Cell::Int(4),
                Cell::Ratio(2_000_000, 4, Unit::Us),
            ]]
        );
        assert!(
            t.render().contains("2.000      4   500.0"),
            "{}",
            t.render()
        );
        assert!(t.notes[0].contains("t=77"));
    }

    #[test]
    fn helpers() {
        assert_eq!(human_size(4096), "4K");
        assert_eq!(human_size(1 << 21), "2M");
        assert_eq!(human_size(100), "100");
        assert!((mb_per_s(1_000_000, 1_000_000_000) - 1.0).abs() < 1e-9);
    }
}
