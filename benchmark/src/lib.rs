//! The repository's benchmark: three workloads driven through the public
//! API, end-to-end metrics from untraced runs, and a per-layer waterfall
//! from a separate traced run.
//!
//! | workload | what runs |
//! |---|---|
//! | `serve-pipelined` | 2 pipelined clients (≤ 8 × 256-request frames in flight) against a 4-shard loopback server, `markov-bursty` traffic, in-memory trace log |
//! | `serve-durable` | 2 synchronous clients (16-request frames) against a 6-cell / 4-group rebalancing server with a file log and snapshots, ending in kill → resume → tail → shutdown |
//! | `fib-sharded` | offline `run_fib_sharded` on a 4096-rule FIB table, 4 shards on 2 threads |
//!
//! Everything the program receives is generated from `--seed`; stream
//! generation is never timed. Correctness checks run outside the timed
//! regions (see [`checks`]). The per-layer probes of [`layers`] time each
//! layer's public functions on the workload's own recorded stream.
#![forbid(unsafe_code)]

pub mod checks;
pub mod fib;
pub mod inputs;
pub mod layers;
pub mod output;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// The per-node reorganisation cost α of every workload.
pub const ALPHA: u64 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined clients against the in-memory-logged sharded server.
    ServePipelined,
    /// Synchronous clients against the durable, rebalancing server.
    ServeDurable,
    /// The offline sharded FIB pipeline.
    FibSharded,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] =
        [Workload::ServePipelined, Workload::ServeDurable, Workload::FibSharded];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePipelined => "serve-pipelined",
            Workload::ServeDurable => "serve-durable",
            Workload::FibSharded => "fib-sharded",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServePipelined => {
                "per-request serving cost (OTCW decode, ingress route+log+enqueue, ring hop, \
                 worker drain) dominates and the engine is a small share"
            }
            Workload::ServeDurable => {
                "the same serving path dominated by per-frame costs, with log appends, snapshot \
                 cuts, rebalance probes and a timed recovery beside the requests"
            }
            Workload::FibSharded => {
                "no socket, ring or log: LMP lookup, event routing, TcFast::step and the \
                 parallel drain do all the work on a working set larger than the cache"
            }
        }
    }
}

/// How much work one run does. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] keeps the smoke test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Requests per `serve-pipelined` round (its generated stream).
    pub pipelined_len: usize,
    /// Requests per `serve-durable` round before the kill (its stream).
    pub durable_len: usize,
    /// Rules in the FIB table.
    pub fib_rules: usize,
    /// FIB events per `run_fib_sharded` call.
    pub fib_events: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_trials: usize,
    /// Requests of the recorded stream the layer probes replay.
    pub probe_len: usize,
    /// Passes per layer probe.
    pub probe_passes: usize,
    /// Requests each client sends after the durable workload resumes.
    pub tail_frames: usize,
}

impl Scale {
    /// The measured configuration.
    #[must_use]
    pub fn full() -> Self {
        Self {
            pipelined_len: 1 << 18,
            durable_len: 1 << 17,
            fib_rules: 4096,
            fib_events: 200_000,
            setup_trials: 41,
            probe_len: 1 << 19,
            probe_passes: 5,
            tail_frames: 256,
        }
    }

    /// A configuration small enough for a smoke test.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            pipelined_len: 8192,
            durable_len: 8192,
            fib_rules: 256,
            fib_events: 4000,
            setup_trials: 2,
            probe_len: 4096,
            probe_passes: 1,
            tail_frames: 8,
        }
    }
}

/// The command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run (one, or all three for `--workload all`).
    pub workloads: Vec<Workload>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name|all> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A message naming the missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    });
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let workloads = if workload == "all" {
            Workload::ALL.to_vec()
        } else {
            vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
        };
        Ok(Self {
            workloads,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Directory (relative to the working directory, which is the repository
/// checkout) for the run's scratch files and written results.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from("bench-out")
}

/// Runs one workload and returns its result.
#[must_use]
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> output::RunOutput {
    let scratch = out_dir().join(format!("scratch-{}-{}", std::process::id(), workload.name()));
    let mut out = match (workload, trace) {
        (Workload::ServePipelined, false) => serve::pipelined_e2e(seed, seconds, scale),
        (Workload::ServeDurable, false) => serve::durable_e2e(seed, seconds, scale, &scratch),
        (Workload::FibSharded, false) => fib::fib_e2e(seed, seconds, scale),
        (w, true) => layers::traced(w, seed, seconds, scale, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    out.provenance = output::Provenance::new(workload, seed, seconds, trace);
    out
}
