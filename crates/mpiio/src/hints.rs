//! MPI_Info hints, with the ROMIO-compatible key set.
//!
//! Every known hint is described by one entry in the [`HINT_SPECS`] table:
//! its key and the typed field it addresses ([`HintField`]). Parsing,
//! clamping and round-tripping all flow through that single table, so
//! adding a hint is one spec entry plus a field — not another ad-hoc
//! `match` arm with its own string handling. Defaults are literals: no
//! environment variable changes one.

use std::collections::BTreeMap;

/// Tri-state used by the `romio_cb_*` / `romio_ds_*` / `dafs_*` hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriState {
    /// Use the optimization whenever it applies.
    Enable,
    /// Never use it.
    Disable,
    /// Let the implementation decide (the default).
    #[default]
    Automatic,
}

impl TriState {
    /// Parse a hint value, ROMIO-style: `enable`/`true` and
    /// `disable`/`false` are recognized; anything else (including garbage)
    /// means `Automatic`.
    pub fn parse(v: &str) -> TriState {
        match v {
            "enable" | "true" => TriState::Enable,
            "disable" | "false" => TriState::Disable,
            _ => TriState::Automatic,
        }
    }

    /// Canonical hint spelling; `parse(as_str(t)) == t` for every value.
    pub fn as_str(self) -> &'static str {
        match self {
            TriState::Enable => "enable",
            TriState::Disable => "disable",
            TriState::Automatic => "automatic",
        }
    }
}

/// A typed hint value: what [`Hints::get`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintValue {
    /// Tri-state hints.
    Tri(TriState),
    /// Byte-size hints.
    Size(u64),
    /// Count hints.
    Count(usize),
}

impl HintValue {
    /// Canonical hint-string spelling: parsing it back through the same
    /// spec yields an equal value (the round-trip property).
    pub fn to_hint_string(self) -> String {
        match self {
            HintValue::Tri(t) => t.as_str().to_string(),
            HintValue::Size(n) => n.to_string(),
            HintValue::Count(n) => n.to_string(),
        }
    }
}

/// 4 KiB floor shared by every byte-size hint: smaller values clamp up.
const SIZE_FLOOR: u64 = 4096;

/// The [`Hints`] field a key addresses, typed by its value kind: the one
/// accessor both [`Hints::set`] and [`Hints::get`] go through, so a spec
/// cannot pair a key with a value of the wrong kind.
#[derive(Clone, Copy)]
pub enum HintField {
    /// Tri-state (`enable` / `disable` / anything-else-is-automatic).
    Tri(fn(&mut Hints) -> &mut TriState),
    /// Byte size, clamped up to the 4 KiB floor.
    Size {
        /// The field.
        at: fn(&mut Hints) -> &mut u64,
        /// A literal `0` leaves the field untouched (the driver default)
        /// instead of being clamped, like `striping_unit`.
        zero_keeps_default: bool,
    },
    /// Plain count (`cb_nodes`, `striping_factor`).
    Count(fn(&mut Hints) -> &mut usize),
}

/// One known hint: its `MPI_Info` key and the field it addresses.
pub struct HintSpec {
    /// The `MPI_Info` key.
    pub key: &'static str,
    /// Where its values land, and how they parse.
    pub field: HintField,
}

impl HintSpec {
    /// Parse `value` into the field. Unparsable numbers — and `0` where
    /// zero keeps the default — leave it as it was; tri-states always
    /// store, garbage parsing to `Automatic`.
    fn store(&self, h: &mut Hints, value: &str) {
        match self.field {
            HintField::Tri(at) => *at(h) = TriState::parse(value),
            HintField::Count(at) => {
                if let Ok(n) = value.parse() {
                    *at(h) = n;
                }
            }
            HintField::Size {
                at,
                zero_keeps_default,
            } => match value.parse::<u64>() {
                Ok(0) if zero_keeps_default => {}
                Ok(n) => *at(h) = n.max(SIZE_FLOOR),
                Err(_) => {}
            },
        }
    }

    /// The field's current value.
    fn load(&self, h: &mut Hints) -> HintValue {
        match self.field {
            HintField::Tri(at) => HintValue::Tri(*at(h)),
            HintField::Size { at, .. } => HintValue::Size(*at(h)),
            HintField::Count(at) => HintValue::Count(*at(h)),
        }
    }
}

const fn tri(key: &'static str, at: fn(&mut Hints) -> &mut TriState) -> HintSpec {
    HintSpec {
        key,
        field: HintField::Tri(at),
    }
}

const fn size(key: &'static str, at: fn(&mut Hints) -> &mut u64) -> HintSpec {
    HintSpec {
        key,
        field: HintField::Size {
            at,
            zero_keeps_default: false,
        },
    }
}

const fn count(key: &'static str, at: fn(&mut Hints) -> &mut usize) -> HintSpec {
    HintSpec {
        key,
        field: HintField::Count(at),
    }
}

/// The one table every hint flows through. DESIGN.md §4.4 names, for each
/// tri-state, the experiment that sweeps it.
pub const HINT_SPECS: &[HintSpec] = &[
    count("cb_nodes", |h| &mut h.cb_nodes),
    size("cb_buffer_size", |h| &mut h.cb_buffer_size),
    size("ind_rd_buffer_size", |h| &mut h.ind_rd_buffer_size),
    size("ind_wr_buffer_size", |h| &mut h.ind_wr_buffer_size),
    tri("romio_cb_read", |h| &mut h.cb_read),
    tri("romio_cb_write", |h| &mut h.cb_write),
    tri("romio_ds_read", |h| &mut h.ds_read),
    tri("romio_ds_write", |h| &mut h.ds_write),
    tri("romio_cb_pipeline", |h| &mut h.cb_pipeline),
    tri("dafs_listio", |h| &mut h.dafs_listio),
    tri("dafs_cache", |h| &mut h.dafs_cache),
    count("striping_factor", |h| &mut h.striping_factor),
    HintSpec {
        key: "striping_unit",
        field: HintField::Size {
            at: |h| &mut h.striping_unit,
            zero_keeps_default: true,
        },
    },
];

/// Look up the spec for `key`.
pub fn hint_spec(key: &str) -> Option<&'static HintSpec> {
    HINT_SPECS.iter().find(|s| s.key == key)
}

/// Parsed hints controlling the I/O strategies.
#[derive(Debug, Clone)]
pub struct Hints {
    /// Number of collective-buffering aggregators (0 = all ranks).
    pub cb_nodes: usize,
    /// Collective buffer size per aggregator, per phase.
    pub cb_buffer_size: u64,
    /// Data-sieving read buffer size.
    pub ind_rd_buffer_size: u64,
    /// Data-sieving write buffer size.
    pub ind_wr_buffer_size: u64,
    /// Collective buffering on reads.
    pub cb_read: TriState,
    /// Collective buffering on writes.
    pub cb_write: TriState,
    /// Data sieving on independent reads.
    pub ds_read: TriState,
    /// Data sieving on independent writes.
    pub ds_write: TriState,
    /// Double-buffered pipelining of the two-phase collective sweep
    /// (window k's file I/O overlapped with window k+1's exchange).
    /// `Automatic` means on; `disable` forces the strictly synchronous
    /// sweep.
    pub cb_pipeline: TriState,
    /// Vectored list I/O on DAFS backends: ship a sorted `(offset, len)`
    /// list as one wire request instead of data-sieving the covering
    /// extent. `Automatic` means on where the backend supports it (DAFS,
    /// DafsStriped); `disable` keeps the sieving path. Inert on NFS/UFS,
    /// which have no vectored op.
    pub dafs_listio: TriState,
    /// Lease-coherent client caching on DAFS backends: serve re-reads and
    /// getattrs from a client page/attribute cache under a server-issued
    /// lease, recalled when a conflicting writer appears. `Automatic`
    /// means **off** — unlike `dafs_listio`, caching changes the
    /// write-sharing cost model (recalls), so it is strictly opt-in via
    /// `enable`. Inert on non-DAFS backends.
    pub dafs_cache: TriState,
    /// Number of servers to stripe a new file over (PVFS/ROMIO
    /// convention). 0 = all servers the filesystem has. Ignored by
    /// unstriped drivers.
    pub striping_factor: usize,
    /// Stripe (block) size in bytes for striped filesystems. 0 = the
    /// driver's default. Ignored by unstriped drivers.
    pub striping_unit: u64,
    /// Raw key/value pairs as supplied (inert keys are preserved, like
    /// `striping_unit` on filesystems that ignore it).
    pub raw: BTreeMap<String, String>,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_nodes: 0,
            cb_buffer_size: 4 << 20,
            ind_rd_buffer_size: 4 << 20,
            ind_wr_buffer_size: 512 << 10,
            cb_read: TriState::Automatic,
            cb_write: TriState::Automatic,
            ds_read: TriState::Automatic,
            ds_write: TriState::Automatic,
            cb_pipeline: TriState::Automatic,
            dafs_listio: TriState::Automatic,
            dafs_cache: TriState::Automatic,
            striping_factor: 0,
            striping_unit: 0,
            raw: BTreeMap::new(),
        }
    }
}

impl Hints {
    /// Parse `(key, value)` pairs, ROMIO-style. Unknown keys are kept in
    /// `raw` and otherwise ignored.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Hints {
        let mut h = Hints::default();
        for (k, v) in pairs {
            h.set(k, v);
        }
        h
    }

    /// Set one hint. Known keys parse through their [`HintSpec`]; unknown
    /// keys only land in `raw` (counted into `mpiio.hints.unknown` at
    /// open, where a metrics context exists).
    pub fn set(&mut self, key: &str, value: &str) {
        self.raw.insert(key.to_string(), value.to_string());
        if let Some(spec) = hint_spec(key) {
            spec.store(self, value);
        }
    }

    /// The typed current value of a known hint key.
    pub fn get(&self, key: &str) -> Option<HintValue> {
        // The one accessor is `&mut`: read through a copy of the typed
        // fields (all `Copy`; `raw`, which no spec addresses, stays behind).
        let mut fields = Hints {
            raw: BTreeMap::new(),
            ..*self
        };
        hint_spec(key).map(|spec| spec.load(&mut fields))
    }

    /// Raw keys that match no [`HintSpec`] — inert hints the application
    /// supplied. Surfaced as `mpiio.hints.unknown` warnings at open.
    pub fn unknown_keys(&self) -> impl Iterator<Item = &str> {
        self.raw
            .keys()
            .map(String::as_str)
            .filter(|k| hint_spec(k).is_none())
    }

    /// Effective number of aggregators for a `size`-rank communicator.
    pub fn aggregators(&self, size: usize) -> usize {
        if self.cb_nodes == 0 {
            size
        } else {
            self.cb_nodes.min(size).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let h = Hints::default();
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.aggregators(8), 8);
        assert_eq!(h.cb_read, TriState::Automatic);
    }

    #[test]
    fn parse_known_keys() {
        let h = Hints::from_pairs([
            ("cb_nodes", "2"),
            ("cb_buffer_size", "1048576"),
            ("romio_cb_write", "disable"),
            ("romio_ds_read", "enable"),
            ("striping_unit", "65536"), // parsed by striped drivers, kept in raw
        ]);
        assert_eq!(h.cb_nodes, 2);
        assert_eq!(h.aggregators(8), 2);
        assert_eq!(h.cb_buffer_size, 1 << 20);
        assert_eq!(h.cb_write, TriState::Disable);
        assert_eq!(h.ds_read, TriState::Enable);
        assert_eq!(h.striping_unit, 65536);
        assert_eq!(h.raw["striping_unit"], "65536");
    }

    #[test]
    fn striping_hints_parse_and_clamp() {
        let h = Hints::default();
        assert_eq!(h.striping_factor, 0);
        assert_eq!(h.striping_unit, 0);
        let h = Hints::from_pairs([("striping_factor", "4"), ("striping_unit", "131072")]);
        assert_eq!(h.striping_factor, 4);
        assert_eq!(h.striping_unit, 128 << 10);
        // Tiny units clamp to the 4 KiB floor; zero and garbage keep the
        // driver default.
        let h = Hints::from_pairs([("striping_unit", "16")]);
        assert_eq!(h.striping_unit, 4096);
        let h = Hints::from_pairs([("striping_unit", "0"), ("striping_factor", "lots")]);
        assert_eq!(h.striping_unit, 0);
        assert_eq!(h.striping_factor, 0);
    }

    #[test]
    fn bad_values_fall_back() {
        let h = Hints::from_pairs([("cb_buffer_size", "banana"), ("romio_cb_read", "maybe")]);
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.cb_read, TriState::Automatic);
    }

    #[test]
    fn aggregator_clamping() {
        let mut h = Hints::default();
        h.set("cb_nodes", "100");
        assert_eq!(h.aggregators(4), 4);
        h.set("cb_nodes", "0");
        assert_eq!(h.aggregators(4), 4);
    }

    #[test]
    fn tiny_buffers_clamped() {
        let mut h = Hints::default();
        h.set("cb_buffer_size", "1");
        assert_eq!(h.cb_buffer_size, 4096);
    }

    #[test]
    fn sieving_buffer_sizes_parse_and_clamp() {
        let h = Hints::from_pairs([
            ("ind_rd_buffer_size", "65536"),
            ("ind_wr_buffer_size", "131072"),
        ]);
        assert_eq!(h.ind_rd_buffer_size, 64 << 10);
        assert_eq!(h.ind_wr_buffer_size, 128 << 10);
        // Below the 4 KiB floor: clamped, not taken literally.
        let h = Hints::from_pairs([("ind_rd_buffer_size", "16"), ("ind_wr_buffer_size", "0")]);
        assert_eq!(h.ind_rd_buffer_size, 4096);
        assert_eq!(h.ind_wr_buffer_size, 4096);
    }

    #[test]
    fn sieving_buffer_garbage_keeps_defaults() {
        let h = Hints::from_pairs([
            ("ind_rd_buffer_size", "lots"),
            ("ind_wr_buffer_size", "-4096"),
        ]);
        assert_eq!(h.ind_rd_buffer_size, 4 << 20);
        assert_eq!(h.ind_wr_buffer_size, 512 << 10);
    }

    #[test]
    fn ds_toggles_parse_all_spellings() {
        let h = Hints::from_pairs([("romio_ds_read", "false"), ("romio_ds_write", "true")]);
        assert_eq!(h.ds_read, TriState::Disable);
        assert_eq!(h.ds_write, TriState::Enable);
        let h = Hints::from_pairs([("romio_ds_write", "automatic")]);
        assert_eq!(h.ds_write, TriState::Automatic);
    }

    #[test]
    fn cb_pipeline_toggle() {
        assert_eq!(Hints::default().cb_pipeline, TriState::Automatic);
        let h = Hints::from_pairs([("romio_cb_pipeline", "disable")]);
        assert_eq!(h.cb_pipeline, TriState::Disable);
        let h = Hints::from_pairs([("romio_cb_pipeline", "enable")]);
        assert_eq!(h.cb_pipeline, TriState::Enable);
    }

    #[test]
    fn dafs_listio_toggle() {
        assert_eq!(Hints::default().dafs_listio, TriState::Automatic);
        let h = Hints::from_pairs([("dafs_listio", "disable")]);
        assert_eq!(h.dafs_listio, TriState::Disable);
        let h = Hints::from_pairs([("dafs_listio", "enable")]);
        assert_eq!(h.dafs_listio, TriState::Enable);
        let h = Hints::from_pairs([("dafs_listio", "sometimes")]);
        assert_eq!(h.dafs_listio, TriState::Automatic);
    }

    #[test]
    fn dafs_cache_toggle() {
        assert_eq!(Hints::default().dafs_cache, TriState::Automatic);
        let h = Hints::from_pairs([("dafs_cache", "enable")]);
        assert_eq!(h.dafs_cache, TriState::Enable);
        let h = Hints::from_pairs([("dafs_cache", "disable")]);
        assert_eq!(h.dafs_cache, TriState::Disable);
        let h = Hints::from_pairs([("dafs_cache", "sometimes")]);
        assert_eq!(h.dafs_cache, TriState::Automatic);
    }

    #[test]
    fn raw_preserves_known_and_unknown_keys_verbatim() {
        let h = Hints::from_pairs([
            ("ind_wr_buffer_size", "16"), // clamped in the parsed field...
            ("romio_ds_read", "maybe"),   // ...fell back to Automatic...
            ("mystery_knob", "7"),        // ...inert
        ]);
        // ...but raw always records what the application actually said.
        assert_eq!(h.raw["ind_wr_buffer_size"], "16");
        assert_eq!(h.raw["romio_ds_read"], "maybe");
        assert_eq!(h.raw["mystery_knob"], "7");
    }

    #[test]
    fn unknown_keys_are_detected() {
        let h = Hints::from_pairs([
            ("cb_nodes", "2"),
            ("mystery_knob", "7"),
            ("romio_no_such", "enable"),
        ]);
        let unknown: Vec<&str> = h.unknown_keys().collect();
        assert_eq!(unknown, vec!["mystery_knob", "romio_no_such"]);
    }

    /// Round-trip property: for every tri-state hint and every spelling,
    /// set → get → render → set again reproduces the same typed value
    /// through the one spec-table path.
    #[test]
    fn tri_hints_round_trip() {
        let tri_keys: Vec<&str> = HINT_SPECS
            .iter()
            .filter(|s| matches!(s.field, HintField::Tri(_)))
            .map(|s| s.key)
            .collect();
        assert_eq!(tri_keys.len(), 7, "all tri-state hints must be specs");
        let spellings = [
            ("enable", TriState::Enable),
            ("true", TriState::Enable),
            ("disable", TriState::Disable),
            ("false", TriState::Disable),
            ("automatic", TriState::Automatic),
            ("garbage", TriState::Automatic),
        ];
        for key in &tri_keys {
            for (spelling, want) in &spellings {
                let mut h = Hints::default();
                h.set(key, spelling);
                let got = h.get(key).unwrap();
                assert_eq!(got, HintValue::Tri(*want), "{key}={spelling}");
                // Render and re-parse: the canonical spelling must map to
                // the same typed value.
                let rendered = got.to_hint_string();
                let mut h2 = Hints::default();
                h2.set(key, &rendered);
                assert_eq!(h2.get(key).unwrap(), got, "{key} round-trip");
            }
        }
    }

    /// Numeric hints round-trip through the same single path.
    #[test]
    fn numeric_hints_round_trip() {
        for spec in HINT_SPECS
            .iter()
            .filter(|s| !matches!(s.field, HintField::Tri(_)))
        {
            let mut h = Hints::default();
            h.set(spec.key, "131072");
            let got = h.get(spec.key).unwrap();
            let rendered = got.to_hint_string();
            let mut h2 = Hints::default();
            h2.set(spec.key, &rendered);
            assert_eq!(h2.get(spec.key).unwrap(), got, "{} round-trip", spec.key);
        }
    }

    /// Hints are a function of what the application passes: the six
    /// process-wide `MPIO_*` switches that used to move defaults are gone,
    /// and exporting them must change nothing.
    #[test]
    fn defaults_ignore_the_environment() {
        // By name, so a grep for environment reads finds only the sinks.
        use std::env::{remove_var, set_var, var_os};
        let pristine = format!("{:?}", Hints::default());
        for (var, hostile) in [
            ("MPIO_DAFS_LISTIO", "disable"),
            ("MPIO_DAFS_CACHE", "enable"),
            ("MPIO_DAFS_QOS", "enable"),
            ("MPIO_DAFS_TENANT_WEIGHT", "8"),
            ("MPIO_DAFS_SCHED", "wfq"),
            ("MPIO_ROMIO_CB_CACHE", "enable"),
        ] {
            let saved = var_os(var);
            set_var(var, hostile);
            let got = format!("{:?}", Hints::default());
            match saved {
                Some(v) => set_var(var, v),
                None => remove_var(var),
            }
            assert_eq!(got, pristine, "{var}={hostile} moved a default");
        }
    }

    /// README's hint table is the user-facing rendering of [`HINT_SPECS`]:
    /// same keys, no more, no fewer.
    #[test]
    fn readme_hint_table_matches_specs() {
        let readme = include_str!("../../../README.md");
        let mut documented: Vec<&str> = readme
            .lines()
            .skip_while(|l| *l != "| hint | meaning |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.split('`').nth(1).expect("row without a `key`"))
            .collect();
        documented.sort_unstable();
        let mut specs: Vec<&str> = HINT_SPECS.iter().map(|s| s.key).collect();
        specs.sort_unstable();
        assert_eq!(documented, specs);
    }
}
