//! Measurement support shared by the repository benchmark (`benchmark/`)
//! and this crate's tests: the structured host provenance of
//! [`HostInfo::capture`] and the fixed FIB workload of [`fib_baseline`],
//! whose total costs `tests/fib_costs.rs` pins. `tests/rebalance_makespan.rs`
//! pins the deterministic static-vs-dynamic placement comparison.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Provenance of the machine a measurement was recorded on, serialized as
/// a structured `host` object next to every recorded result, so
/// regressions can be attributed to hardware or toolchain changes instead
/// of being puzzled over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical CPU count (`std::thread::available_parallelism`).
    pub nproc: usize,
    /// `rustc --version` of the toolchain on `PATH` (respecting `$RUSTC`),
    /// or `"unknown"` when it cannot be queried.
    pub rustc: String,
    /// Recording date as `YYYY-MM-DD` (UTC).
    pub date: String,
}

impl HostInfo {
    /// Probes the current machine.
    #[must_use]
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let rustc_bin = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let rustc = std::process::Command::new(rustc_bin)
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Self { nproc, rustc, date: civil_date_utc(secs) }
    }

    /// The structured JSON `host` object (no trailing newline), e.g.
    /// `{ "nproc": 8, "rustc": "rustc 1.80.0", "date": "2026-07-26" }`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"nproc\": {}, \"rustc\": \"{}\", \"date\": \"{}\" }}",
            self.nproc,
            self.rustc.replace('\\', "\\\\").replace('"', "\\\""),
            self.date
        )
    }
}

/// The fixed FIB workload whose total costs `tests/fib_costs.rs` pins:
/// 4096-rule synthetic table, 200k events, Zipf(θ=1.0) popularity, 2%
/// update churn, α = 4, 256 TCAM entries split evenly across shards.
pub mod fib_baseline {
    use std::sync::Arc;

    use otc_sdn::{generate_events, FibEvent, FibWorkloadConfig};
    use otc_trie::{hierarchical_table, HierarchicalConfig, RuleTree};
    use otc_util::SplitMix64;

    /// Reconfiguration cost per node fetched/evicted.
    pub const ALPHA: u64 = 4;
    /// Total TCAM capacity, split evenly across shards.
    pub const TOTAL_CAPACITY: usize = 256;
    /// Events per run.
    pub const EVENTS: usize = 200_000;
    /// Rules in the synthetic FIB.
    pub const RULES: usize = 4096;
    /// Shard counts the sharded pipeline is pinned at.
    pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// Builds the fixed rule table and event stream (seed `0xBE7C`).
    #[must_use]
    pub fn build() -> (Arc<RuleTree>, Vec<FibEvent>) {
        let mut rng = SplitMix64::new(0xBE7C);
        let rules = Arc::new(RuleTree::build(&hierarchical_table(
            HierarchicalConfig { n: RULES, subdivide_p: 0.7, max_len: 28 },
            &mut rng,
        )));
        let events = generate_events(
            &rules,
            FibWorkloadConfig { events: EVENTS, theta: 1.0, update_p: 0.02, addr_attempts: 16 },
            &mut rng,
        );
        (rules, events)
    }
}

/// Converts seconds since the Unix epoch to a `YYYY-MM-DD` UTC date
/// (Howard Hinnant's `civil_from_days` algorithm; no external time crate
/// in this offline workspace).
#[must_use]
pub fn civil_date_utc(epoch_secs: u64) -> String {
    let days = (epoch_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_date_utc(0), "1970-01-01");
        assert_eq!(civil_date_utc(86_399), "1970-01-01");
        assert_eq!(civil_date_utc(86_400), "1970-01-02");
        // A leap day and its successor.
        assert_eq!(civil_date_utc(951_782_400), "2000-02-29");
        assert_eq!(civil_date_utc(951_868_800), "2000-03-01");
        // 2026-07-26 00:00:00 UTC.
        assert_eq!(civil_date_utc(1_785_024_000), "2026-07-26");
    }

    #[test]
    fn host_info_is_well_formed() {
        let host = HostInfo::capture();
        assert!(host.nproc >= 1);
        let json = host.to_json();
        assert!(json.starts_with("{ \"nproc\": "));
        assert!(json.contains("\"rustc\": \""));
        assert!(json.contains("\"date\": \""));
        assert_eq!(host.date.len(), 10, "date is YYYY-MM-DD, got {}", host.date);
    }
}
