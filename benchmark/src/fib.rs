//! The offline `fib-sharded` workload: back-to-back `run_fib_sharded`
//! calls over one seeded FIB table and event stream.

use std::time::{Duration, Instant};

use otc_sdn::{run_fib_sharded, FibReport};
use otc_trie::RuleTree;

use crate::inputs::{self, FibInputs, FIB_SHARDS, FIB_THREADS};
use crate::output::{Metric, RunOutput};
use crate::serve::factory;
use crate::stats::{median, peak_rss_mib, percentile, reset_peak_rss};
use crate::{Scale, Workload, ALPHA};

/// Times `trials` builds of the rule tree (the workload's set-up) and
/// returns the last tree with every build time.
#[must_use]
pub fn timed_builds(inputs: &FibInputs, trials: usize) -> (RuleTree, Vec<f64>) {
    let mut times = Vec::with_capacity(trials);
    let mut rules = None;
    for _ in 0..trials.max(1) {
        let t0 = Instant::now();
        let built = RuleTree::build(&inputs.prefixes);
        times.push(t0.elapsed().as_secs_f64());
        rules = Some(built);
    }
    (rules.expect("at least one build"), times)
}

/// What back-to-back `run_fib_sharded` calls did.
#[derive(Debug, Default)]
pub struct Calls {
    /// `(start, end)` of each call.
    pub spans: Vec<(Instant, Instant)>,
    /// Each call's totals.
    pub totals: Vec<FibReport>,
    /// The process's peak resident memory during each call, in MiB.
    pub peak_rss_mib: Vec<f64>,
}

/// Calls `run_fib_sharded` back to back for `duration` (at least once).
#[must_use]
pub fn calls(rules: &RuleTree, inputs: &FibInputs, duration: Duration) -> Calls {
    let factory = factory(FibInputs::capacity());
    let mut out = Calls::default();
    let start = Instant::now();
    while start.elapsed() < duration || out.spans.is_empty() {
        reset_peak_rss();
        let t0 = Instant::now();
        let report =
            run_fib_sharded(rules, &factory, &inputs.events, ALPHA, FIB_SHARDS, FIB_THREADS);
        out.spans.push((t0, Instant::now()));
        out.peak_rss_mib.push(peak_rss_mib());
        out.totals.push(report.total);
    }
    out
}

/// Nanoseconds of each `(start, end)` interval.
#[must_use]
pub fn nanos(spans: &[(Instant, Instant)]) -> Vec<u64> {
    spans.iter().map(|(t0, t1)| t1.duration_since(*t0).as_nanos() as u64).collect()
}

/// The untraced `fib-sharded` run.
#[must_use]
pub fn fib_e2e(seed: u64, seconds: f64, scale: &Scale) -> RunOutput {
    let inputs = inputs::fib(seed, scale);
    let (rules, setup) = timed_builds(&inputs, scale.setup_trials);
    let calls = calls(&rules, &inputs, Duration::from_secs_f64(seconds));
    let mut times = nanos(&calls.spans);
    let events = inputs.events.len() as u64;
    let mut out = RunOutput::new(Workload::FibSharded);
    out.attempted = events * times.len() as u64;
    let expected =
        crate::checks::fib_expected(&rules, &inputs.events, FIB_SHARDS, FibInputs::capacity());
    if let Err(why) = crate::checks::fib(&calls.totals, &expected) {
        out.fail(out.attempted, why);
    }
    let rps: Vec<f64> = times.iter().map(|&ns| events as f64 * 1e9 / ns as f64).collect();
    let n = times.len();
    out.metrics = vec![
        Metric::sampled("throughput_rps", "1/s", median(&rps), n),
        Metric::sampled("ack_p50_us", "us", percentile(&mut times, 50.0) / 1e3, n),
        Metric::sampled("ack_p90_us", "us", percentile(&mut times, 90.0) / 1e3, n),
        Metric::sampled("setup_s", "s", median(&setup), setup.len()),
        Metric::sampled("peak_rss_mib", "MiB", median(&calls.peak_rss_mib), n),
    ];
    out.notes.push(format!(
        "{n} run_fib_sharded calls of {events} events; an \"ack\" here is one call's completion"
    ));
    out
}
