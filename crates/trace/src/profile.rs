//! nvprof-style per-kernel profile aggregation.
//!
//! Rows are keyed by kernel name in a `BTreeMap`, so both the text table
//! and the JSON export are deterministic.

use crate::json::{self, Json};
use hetero_gpusim::KernelStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated statistics for one kernel (or memcpy) name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelProfileRow {
    /// Number of launches recorded under this name.
    pub launches: u64,
    /// Total simulated time across launches, seconds.
    pub time_s: f64,
    /// Total critical-path cycles.
    pub cycles: f64,
    /// Total compute-pipe cycles on the critical SM.
    pub compute_cycles: f64,
    /// Total memory-pipe cycles on the critical SM.
    pub memory_cycles: f64,
    /// Total threadblocks executed.
    pub blocks: u64,
    /// Coalesced/broadcast global-memory transactions.
    pub coalesced_txns: f64,
    /// Uncoalesced (`Access::Random`) global-memory transactions.
    pub random_txns: f64,
    /// Shared-memory atomic operations.
    pub shared_atomics: u64,
    /// Global-memory atomic operations.
    pub global_atomics: u64,
    /// Lanes idled by partially-active warp rounds (branch divergence).
    pub divergent_lanes: u64,
    /// Bytes moved to/from simulated DRAM.
    pub dram_bytes: u64,
}

impl KernelProfileRow {
    fn absorb(&mut self, s: &KernelStats) {
        self.launches += 1;
        self.time_s += s.time_s;
        self.cycles += s.cycles;
        self.compute_cycles += s.compute_cycles;
        self.memory_cycles += s.memory_cycles;
        self.blocks += s.blocks as u64;
        self.coalesced_txns += s.counters.coalesced_txns();
        self.random_txns += s.counters.random_txns();
        self.shared_atomics += s.counters.shared_atomics;
        self.global_atomics += s.counters.global_atomics;
        self.divergent_lanes += s.counters.divergent_lanes;
        self.dram_bytes += s.counters.dram_bytes;
    }
}

/// Aggregates [`KernelStats`] by kernel name into an nvprof-like profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelProfile {
    rows: BTreeMap<String, KernelProfileRow>,
}

impl KernelProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one launch's stats into the row for `name`.
    pub fn record(&mut self, name: &str, stats: &KernelStats) {
        self.rows.entry(name.to_string()).or_default().absorb(stats);
    }

    /// Iterate rows in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KernelProfileRow)> {
        self.rows.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct kernel names.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no launches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render an nvprof-style text table: one row per kernel, sorted by
    /// total time descending (name as tiebreak), with a `Time(%)` column
    /// over the profile total.
    pub fn table(&self) -> String {
        let total: f64 = self.rows.values().map(|r| r.time_s).sum();
        let mut rows: Vec<(&str, &KernelProfileRow)> = self.iter().collect();
        rows.sort_by(|a, b| {
            b.1.time_s
                .partial_cmp(&a.1.time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>9} {:>14} {:>12} {:>12} {:>10} {:>10} {:>10}  Name",
            "Time(%)",
            "Time",
            "Calls",
            "Cycles",
            "CoalTxn",
            "RandTxn",
            "ShmAtom",
            "GlbAtom",
            "DivLanes",
        );
        for (name, r) in rows {
            let pct = if total > 0.0 {
                100.0 * r.time_s / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>7.2}% {:>12} {:>9} {:>14.0} {:>12.1} {:>12.1} {:>10} {:>10} {:>10}  {}",
                pct,
                fmt_time(r.time_s),
                r.launches,
                r.cycles,
                r.coalesced_txns,
                r.random_txns,
                r.shared_atomics,
                r.global_atomics,
                r.divergent_lanes,
                name
            );
        }
        out
    }

    /// Serialize as a JSON object keyed by kernel name (sorted).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|(name, r)| {
            let row = Json::obj()
                .with("launches", r.launches)
                .with("time_s", r.time_s)
                .with("cycles", r.cycles)
                .with("compute_cycles", r.compute_cycles)
                .with("memory_cycles", r.memory_cycles)
                .with("blocks", r.blocks)
                .with("coalesced_txns", r.coalesced_txns)
                .with("random_txns", r.random_txns)
                .with("shared_atomics", r.shared_atomics)
                .with("global_atomics", r.global_atomics)
                .with("divergent_lanes", r.divergent_lanes)
                .with("dram_bytes", r.dram_bytes);
            (name.clone(), row)
        });
        json::write(&Json::Obj(rows.collect()))
    }
}

fn fmt_time(t_s: f64) -> String {
    if t_s >= 1.0 {
        format!("{t_s:.4}s")
    } else if t_s >= 1e-3 {
        format!("{:.4}ms", t_s * 1e3)
    } else {
        format!("{:.4}us", t_s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use hetero_gpusim::Counters;

    fn stats(time_s: f64, random_milli: u64) -> KernelStats {
        KernelStats {
            time_s,
            cycles: 1000.0,
            compute_cycles: 600.0,
            memory_cycles: 400.0,
            blocks: 4,
            threads_per_block: 256,
            counters: Counters {
                gld_txn_milli: 10_000,
                gst_txn_milli: 2_000,
                random_txn_milli: random_milli,
                shared_atomics: 7,
                global_atomics: 3,
                divergent_lanes: 31,
                dram_bytes: 4096,
                ..Default::default()
            },
        }
    }

    #[test]
    fn aggregates_by_name() {
        let mut p = KernelProfile::new();
        p.record("map_kernel", &stats(0.5, 4_000));
        p.record("map_kernel", &stats(0.25, 0));
        p.record("sort_kernel", &stats(1.0, 12_000));
        assert_eq!(p.len(), 2);
        let (_, row) = p.iter().find(|(n, _)| *n == "map_kernel").unwrap();
        assert_eq!(row.launches, 2);
        assert!((row.time_s - 0.75).abs() < 1e-12);
        // total txns per launch = 12.0; launch 1: 4.0 random / 8.0 coalesced
        assert!((row.random_txns - 4.0).abs() < 1e-9);
        assert!((row.coalesced_txns - 20.0).abs() < 1e-9);
        assert_eq!(row.divergent_lanes, 62);
    }

    #[test]
    fn table_sorts_by_time_desc() {
        let mut p = KernelProfile::new();
        p.record("small", &stats(0.1, 0));
        p.record("big", &stats(2.0, 0));
        let table = p.table();
        let big = table.find("big").unwrap();
        let small = table.find("small").unwrap();
        assert!(big < small, "{table}");
        assert!(table.contains("Time(%)"));
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let mut p = KernelProfile::new();
        p.record("k", &stats(0.5, 100));
        let a = p.to_json();
        validate(&a).unwrap();
        assert_eq!(a, p.to_json());
    }

    #[test]
    fn empty_profile_renders() {
        let p = KernelProfile::new();
        validate(&p.to_json()).unwrap();
        assert!(p.table().contains("Name"));
    }
}
