//! Windowed per-shard telemetry.
//!
//! A [`crate::Report`] is one aggregate per run; a [`Timeline`] is the
//! run *over time*: one [`WindowRecord`] per `audit_every` rounds per
//! shard, carrying the window's cost breakdown (fetch / evict / flush
//! node counts, paid rounds), the cache occupancy at the window boundary,
//! and the action-buffer high-water mark inside the window.
//!
//! Collection is allocation-free on the hot path: every counter in a
//! window is a diff of the per-shard `Report` counters the driver already
//! maintains per round, snapshotted when the engine crosses an
//! `audit_every` boundary (one amortised `Vec` push per *window*, never
//! per round). Enable it with `EngineConfig::telemetry(true)` and read it
//! back with `ShardedEngine::timeline()`.
//!
//! Export is hand-rolled JSON (`schema: "otc-timeline-v1"`, one window
//! object per line), for plotting tools.

/// Telemetry counters for one window of one shard.
///
/// All counters are deltas over the window except [`occupancy`] (sampled
/// at the window's closing boundary) and [`buf_high_water`] (a maximum
/// over the window's rounds).
///
/// [`occupancy`]: WindowRecord::occupancy
/// [`buf_high_water`]: WindowRecord::buf_high_water
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRecord {
    /// The shard this window belongs to.
    pub shard: u32,
    /// Window index within the shard (0-based, consecutive).
    pub window: u64,
    /// First round (shard-local) the window covers.
    pub start_round: u64,
    /// Rounds in the window (`audit_every`, except a trailing partial).
    pub rounds: u64,
    /// Rounds that paid the service cost (service cost = this count).
    pub paid_rounds: u64,
    /// Fetch actions applied in the window.
    pub fetch_events: u64,
    /// Evict actions applied in the window (flushes not included).
    pub evict_events: u64,
    /// Flush (phase restart) events in the window.
    pub flush_events: u64,
    /// Nodes fetched (each costs α).
    pub nodes_fetched: u64,
    /// Nodes evicted by plain evictions (each costs α; flush payloads are
    /// counted separately in [`WindowRecord::nodes_flushed`]).
    pub nodes_evicted: u64,
    /// Nodes evicted by flushes (each costs α).
    pub nodes_flushed: u64,
    /// Cache population at the window's closing boundary.
    pub occupancy: usize,
    /// Largest number of nodes any single round's actions touched inside
    /// the window (the action-buffer high-water mark).
    pub buf_high_water: usize,
    /// `true` for a trailing window cut short by the end of observation
    /// rather than an `audit_every` boundary.
    pub partial: bool,
}

impl WindowRecord {
    /// Reorganisation cost incurred in the window at per-node cost
    /// `alpha`, broken down as fetch + evict + flush.
    #[must_use]
    pub fn reorg_cost(&self, alpha: u64) -> u64 {
        alpha * (self.nodes_fetched + self.nodes_evicted + self.nodes_flushed)
    }

    /// Total cost incurred in the window (service + reorganisation).
    #[must_use]
    pub fn total_cost(&self, alpha: u64) -> u64 {
        self.paid_rounds + self.reorg_cost(alpha)
    }
}

/// A whole run's windowed telemetry: per-shard [`WindowRecord`]s in
/// (shard, window) order, plus the parameters needed to interpret them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The per-node reorganisation cost α the run used.
    pub alpha: u64,
    /// Window length in rounds (the engine's `audit_every`; `0` when the
    /// run had no chunk cadence and produced only partial windows).
    pub window_rounds: u64,
    /// Number of shards observed.
    pub shards: u32,
    /// The windows, sorted by `(shard, window)`.
    pub windows: Vec<WindowRecord>,
}

impl Timeline {
    /// Sum of a per-window counter over every window, for cross-checking
    /// against the aggregate [`crate::Report`].
    #[must_use]
    pub fn sum<F: Fn(&WindowRecord) -> u64>(&self, f: F) -> u64 {
        self.windows.iter().map(f).sum()
    }

    /// The windows of one shard, in window order.
    pub fn shard_windows(&self, shard: u32) -> impl Iterator<Item = &WindowRecord> + '_ {
        self.windows.iter().filter(move |w| w.shard == shard)
    }

    /// Cross-shard load imbalance of one window, scaled by 1000: the
    /// `max / mean` ratio of the per-shard window load, where a shard's
    /// load is `rounds + paid_rounds` — exactly the weight the
    /// `rebalance` planner acts on, so this is the observable a
    /// rebalancing run drives toward 1000 (perfect balance; `2000` =
    /// the hottest shard carries twice the mean). The mean is taken over
    /// all [`Timeline::shards`] declared shards — a shard that closed no
    /// record for the window counts as zero load. `None` when no shard
    /// did any work in the window (or no shards were observed at all).
    #[must_use]
    pub fn imbalance_x1000(&self, window: u64) -> Option<u64> {
        if self.shards == 0 {
            return None;
        }
        let mut max = 0u64;
        let mut total = 0u128;
        for w in self.windows.iter().filter(|w| w.window == window) {
            let load = w.rounds + w.paid_rounds;
            max = max.max(load);
            total += u128::from(load);
        }
        if total == 0 {
            return None;
        }
        let scaled = u128::from(max) * 1000 * u128::from(self.shards) / total;
        Some(u64::try_from(scaled).unwrap_or(u64::MAX))
    }

    /// One-pass [`Timeline::imbalance_x1000`] for every window index that
    /// appears in the timeline (windows with zero total load are absent,
    /// mirroring the `None` of the per-window query).
    fn imbalance_by_window(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut acc: std::collections::BTreeMap<u64, (u64, u128)> =
            std::collections::BTreeMap::new();
        for w in &self.windows {
            let load = w.rounds + w.paid_rounds;
            let e = acc.entry(w.window).or_insert((0, 0));
            e.0 = e.0.max(load);
            e.1 += u128::from(load);
        }
        acc.into_iter()
            .filter(|&(_, (_, total))| total > 0 && self.shards > 0)
            .map(|(win, (max, total))| {
                let scaled = u128::from(max) * 1000 * u128::from(self.shards) / total;
                (win, u64::try_from(scaled).unwrap_or(u64::MAX))
            })
            .collect()
    }

    /// Renders the timeline as JSON: a `schema`/parameter preamble and one
    /// window object per line, append-friendly for plotting tools
    /// (`jq '.windows[]'`). `reorg_cost` and `imbalance_x1000` are
    /// *derived* fields, emitted for plotting convenience.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let imbalance = self.imbalance_by_window();
        let mut out = String::with_capacity(128 + self.windows.len() * 160);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"otc-timeline-v1\",\n");
        writeln!(out, "  \"alpha\": {},", self.alpha).expect("String writes cannot fail");
        writeln!(out, "  \"window_rounds\": {},", self.window_rounds).expect("infallible");
        writeln!(out, "  \"shards\": {},", self.shards).expect("infallible");
        out.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            let sep = if i + 1 == self.windows.len() { "" } else { "," };
            writeln!(
                out,
                "    {{ \"shard\": {}, \"window\": {}, \"start_round\": {}, \"rounds\": {}, \
                 \"paid_rounds\": {}, \"fetch_events\": {}, \"evict_events\": {}, \
                 \"flush_events\": {}, \"nodes_fetched\": {}, \"nodes_evicted\": {}, \
                 \"nodes_flushed\": {}, \"occupancy\": {}, \"buf_high_water\": {}, \
                 \"reorg_cost\": {}, \"imbalance_x1000\": {}, \"partial\": {} }}{sep}",
                w.shard,
                w.window,
                w.start_round,
                w.rounds,
                w.paid_rounds,
                w.fetch_events,
                w.evict_events,
                w.flush_events,
                w.nodes_fetched,
                w.nodes_evicted,
                w.nodes_flushed,
                w.occupancy,
                w.buf_high_water,
                w.reorg_cost(self.alpha),
                imbalance.get(&w.window).copied().unwrap_or(0),
                w.partial,
            )
            .expect("String writes cannot fail");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        Timeline {
            alpha: 3,
            window_rounds: 100,
            shards: 2,
            windows: vec![
                WindowRecord {
                    shard: 0,
                    window: 0,
                    start_round: 0,
                    rounds: 100,
                    paid_rounds: 40,
                    fetch_events: 3,
                    evict_events: 1,
                    flush_events: 1,
                    nodes_fetched: 7,
                    nodes_evicted: 2,
                    nodes_flushed: 4,
                    occupancy: 5,
                    buf_high_water: 4,
                    partial: false,
                },
                WindowRecord {
                    shard: 1,
                    window: 0,
                    start_round: 0,
                    rounds: 60,
                    paid_rounds: 9,
                    occupancy: 2,
                    buf_high_water: 1,
                    partial: true,
                    ..WindowRecord::default()
                },
            ],
        }
    }

    #[test]
    fn cost_breakdown_adds_up() {
        let w = sample().windows[0];
        assert_eq!(w.reorg_cost(3), 3 * (7 + 2 + 4));
        assert_eq!(w.total_cost(3), 40 + 39);
    }

    #[test]
    fn json_has_one_line_per_window() {
        let tl = sample();
        let json = tl.to_json();
        assert!(json.contains("\"schema\": \"otc-timeline-v1\""));
        assert_eq!(json.lines().filter(|l| l.trim_start().starts_with("{ \"shard\"")).count(), 2);
        assert!(json.contains("\"rounds\": 100, \"paid_rounds\": 40,"));
        assert!(json.contains("\"partial\": true }\n"));
    }

    #[test]
    fn imbalance_tracks_skew_and_round_trips() {
        let tl = sample();
        // Window 0 loads: shard 0 = 100+40 = 140, shard 1 = 60+9 = 69;
        // max·1000·shards/total = 140·2000/209.
        assert_eq!(tl.imbalance_x1000(0), Some(1339));
        assert_eq!(tl.imbalance_x1000(7), None, "no such window");
        let json = tl.to_json();
        let first = json.lines().find(|l| l.contains("{ \"shard\": 0,")).unwrap();
        assert!(first.ends_with("\"imbalance_x1000\": 1339, \"partial\": false },"));
        // Perfectly balanced loads sit at exactly 1000.
        let mut even = tl.clone();
        even.windows[1] = WindowRecord { shard: 1, rounds: 100, paid_rounds: 40, ..tl.windows[0] };
        assert_eq!(even.imbalance_x1000(0), Some(1000));
        // An empty timeline has nothing to measure.
        assert_eq!(Timeline::default().imbalance_x1000(0), None);
    }

    #[test]
    fn sum_and_shard_views() {
        let tl = sample();
        assert_eq!(tl.sum(|w| w.paid_rounds), 49);
        assert_eq!(tl.shard_windows(1).count(), 1);
        assert!(tl.shard_windows(1).next().unwrap().partial);
    }
}
