//! Runs the benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-pipelined|serve-durable|fib-sharded|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the provenance, every metric by name with its unit, and last a
//! one-line JSON result: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--workload all` each workload's result line is printed in turn
//! and the last line combines them. The result is also written to
//! `bench-out/`.

use std::process::ExitCode;

use otc_benchmark::layers::layer_metric;
use otc_benchmark::output::RunOutput;
use otc_benchmark::{out_dir, run, Args, Scale};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <serve-pipelined|serve-durable|fib-sharded|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let mut outputs: Vec<RunOutput> = Vec::new();
    for &workload in &args.workloads {
        let out = run(workload, args.seed, args.seconds, args.trace, &scale);
        println!("## {} (seed {}, trace {})", workload.name(), args.seed, u8::from(args.trace));
        println!("provenance {}", out.provenance.to_json());
        print!("{}", out.human(|name| layer_metric(name).map(|m| format!("moves {}", m.moves))));
        let file = out_dir().join(format!(
            "result-{}-seed{}-trace{}.json",
            workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        let record = format!(
            "{{\"provenance\": {}, \"result\": {}}}\n",
            out.provenance.to_json(),
            out.result_json()
        );
        if let Err(e) =
            std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&file, record))
        {
            eprintln!("warning: cannot write {}: {e}", file.display());
        }
        if args.workloads.len() > 1 {
            println!("{}", out.result_json());
        }
        outputs.push(out);
    }
    // With several workloads the last line only sums the tallies: metric
    // names repeat across workloads, so their values stay on the
    // per-workload lines above it.
    let mut last = outputs.pop().expect("at least one workload");
    for o in &outputs {
        last.correct &= o.correct;
        last.attempted += o.attempted;
        last.failed += o.failed;
        last.metrics.clear();
    }
    println!("{}", last.result_json());
    // A run that produced a result exits 0 even when a check failed: the
    // result line carries `correct` and `failed`.
    ExitCode::SUCCESS
}
