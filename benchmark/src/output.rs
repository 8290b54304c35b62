//! What a run reports: named metrics with units, the attempted/failed
//! tally, provenance, and the one-line JSON result the run ends with.

use std::fmt::Write as _;

use crate::Workload;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("ack_p50_us", "us"),
    ("ack_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (a median or percentile), when it is one.
    pub samples: Option<usize>,
}

impl Metric {
    /// A value with no sample count.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value, samples: None }
    }

    /// A value computed from `samples` samples.
    #[must_use]
    pub fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self { name, unit, value, samples: Some(samples) }
    }
}

/// How the load was offered, recorded with every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadShape {
    /// `closed` (a caller waits for each reply) or `offline` (batch calls).
    pub loop_type: &'static str,
    /// Concurrent client connections (or calling threads).
    pub clients: usize,
    /// Requests (or FIB events) per frame (or call).
    pub frame: usize,
    /// Frames a client keeps in flight.
    pub depth: usize,
}

impl LoadShape {
    /// The load shape of `workload` at `scale`.
    #[must_use]
    pub fn of(workload: Workload, scale: &crate::Scale) -> Self {
        match workload {
            Workload::ServePipelined => Self {
                loop_type: "closed",
                clients: crate::serve::CLIENTS,
                frame: crate::serve::PIPELINED_FRAME,
                depth: crate::serve::PIPELINED_DEPTH,
            },
            Workload::ServeDurable => Self {
                loop_type: "closed",
                clients: crate::serve::CLIENTS,
                frame: crate::serve::DURABLE_FRAME,
                depth: 1,
            },
            Workload::FibSharded => {
                Self { loop_type: "offline", clients: 1, frame: scale.fib_events, depth: 1 }
            }
        }
    }
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The host (`otc_bench::HostInfo`).
    pub host: otc_bench::HostInfo,
    /// The offered load.
    pub load: LoadShape,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

impl Provenance {
    /// Captures provenance for a run of `workload` at full scale.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.name(),
            seed,
            seconds,
            trace,
            host: otc_bench::HostInfo::capture(),
            load: LoadShape::of(workload, &crate::Scale::full()),
            why: workload.why(),
        }
    }

    /// One JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {}, \"loop\": \"{}\", \"clients\": {}, \"frame\": {}, \"depth\": {}, \
             \"why\": \"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.host.to_json(),
            self.load.loop_type,
            self.load.clients,
            self.load.frame,
            self.load.depth,
            self.why,
        )
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests (or FIB events) attempted.
    pub attempted: u64,
    /// Attempted requests that failed: rejected, lost to a socket error,
    /// a poisoned shutdown, a resume error, or a failed check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks printed before the result.
    pub notes: Vec<String>,
    /// Provenance (filled in by [`crate::run`]).
    pub provenance: Provenance,
}

impl RunOutput {
    /// An empty output for `workload`.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            provenance: Provenance {
                workload: workload.name(),
                seed: 0,
                seconds: 0.0,
                trace: false,
                host: otc_bench::HostInfo { nproc: 0, rustc: String::new(), date: String::new() },
                load: LoadShape::of(workload, &crate::Scale::full()),
                why: workload.why(),
            },
        }
    }

    /// Records a failed check: the run is incorrect and `requests` more
    /// of its attempts count as failed.
    pub fn fail(&mut self, requests: u64, why: String) {
        self.correct = false;
        self.failed += requests;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A value that is not finite is reported as `null`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value =
                if m.value.is_finite() { format!("{}", m.value) } else { "null".to_string() };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("String writes cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
        )
    }

    /// The human-readable report: notes, then one line per metric.
    #[must_use]
    pub fn human(&self, annotate: impl Fn(&str) -> Option<String>) -> String {
        let mut s = String::new();
        for note in &self.notes {
            writeln!(s, "# {note}").expect("String writes cannot fail");
        }
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let extra = annotate(m.name).map_or(String::new(), |a| format!("  [{a}]"));
            writeln!(s, "{:<32} {:>18.6} {:<6}{samples}{extra}", m.name, m.value, m.unit)
                .expect("String writes cannot fail");
        }
        writeln!(s, "correct={} attempted={} failed={}", self.correct, self.attempted, self.failed)
            .expect("String writes cannot fail");
        s
    }
}
