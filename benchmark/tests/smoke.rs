//! Smoke test of the benchmark itself: every workload at a tiny size,
//! every named metric emitted with its unit, and every correctness check
//! shown to fail on a wrong expected value.

use std::path::PathBuf;
use std::time::Duration;

use otc_benchmark::checks;
use otc_benchmark::inputs::{self, FibInputs, FIB_SHARDS};
use otc_benchmark::layers::LAYER_METRICS;
use otc_benchmark::output::END_TO_END;
use otc_benchmark::serve::{self, deal_frames, CLIENTS, DURABLE_FRAME, PIPELINED_FRAME};
use otc_benchmark::{run, Scale, Workload};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let scale = Scale::tiny();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(workload, 7, 0.4, trace, &scale);
            let tag = format!("{} trace={trace}", workload.name());
            assert!(out.correct, "{tag}: {:?}", out.notes);
            assert_eq!(out.failed, 0, "{tag}: {:?}", out.notes);
            assert!(out.attempted > 0, "{tag}");
            let expected: Vec<(&str, &str)> = if trace {
                LAYER_METRICS.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.to_vec()
            };
            assert_eq!(out.metrics.len(), expected.len(), "{tag}");
            for (name, unit) in expected {
                let m = out.metric(name).unwrap_or_else(|| panic!("{tag}: {name} missing"));
                assert_eq!(m.unit, unit, "{tag}: unit of {name}");
                assert!(m.value.is_finite(), "{tag}: {name} = {}", m.value);
            }
            let line = out.result_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_emits() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed = |name: &str, unit: &str| {
        spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(listed(name, unit), "{name} ({unit}) missing from BENCHMARK.json");
    }
    for m in LAYER_METRICS {
        assert!(listed(m.name, m.unit), "{} ({}) missing from BENCHMARK.json", m.name, m.unit);
    }
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())), "{} missing", w.name());
    }
}

#[test]
fn pipelined_check_rejects_a_wrong_expected_value() {
    let scale = Scale::tiny();
    let inputs = inputs::pipelined(3, &scale);
    let per_client = deal_frames(&inputs.stream, PIPELINED_FRAME, CLIENTS);
    let (round, evidence) = serve::pipelined_round(&inputs, &per_client, false);
    assert!(round.errors.is_empty(), "{:?}", round.errors);
    let ev = evidence.expect("a clean round leaves evidence");
    checks::pipelined(&ev).expect("the live run equals its replay");

    let mut wrong = ev.clone();
    wrong.per_shard[0].cost.service += 1;
    assert!(checks::pipelined(&wrong).is_err(), "a wrong per-shard cost must fail");
    let mut wrong = ev.clone();
    wrong.acked += 1;
    assert!(checks::pipelined(&wrong).is_err(), "a wrong acknowledged count must fail");
    let mut wrong = ev;
    wrong.trace_bytes.truncate(wrong.trace_bytes.len() / 2);
    assert!(checks::pipelined(&wrong).is_err(), "a truncated log must fail");
}

#[test]
fn durable_check_rejects_a_wrong_expected_value() {
    let scale = Scale::tiny();
    let inputs = inputs::durable(5, &scale);
    let per_client = deal_frames(&inputs.stream, DURABLE_FRAME, CLIENTS);
    let dir = scratch("durable");
    let (round, evidence) = serve::durable_round(&inputs, &per_client, 8, false, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert!(round.errors.is_empty(), "{:?}", round.errors);
    assert!(round.recover_s.is_some(), "the resume is timed");
    let ev = evidence.expect("a clean round leaves evidence");
    checks::durable(&ev).expect("the recovered run equals its rebalancing replay");

    let mut wrong = ev.clone();
    wrong.per_shard[1].rounds += 1;
    assert!(checks::durable(&wrong).is_err(), "a wrong per-cell report must fail");
    let mut wrong = ev.clone();
    wrong.report.cost.reorg += 1;
    assert!(checks::durable(&wrong).is_err(), "a wrong aggregate must fail");
    let mut wrong = ev.clone();
    wrong.rebalance.as_mut().expect("summary").migrations += 1;
    assert!(checks::durable(&wrong).is_err(), "a wrong migration count must fail");
    let mut wrong = ev;
    wrong.requests_recovered -= 1;
    assert!(checks::durable(&wrong).is_err(), "a lossy recovery must fail");
}

#[test]
fn fib_check_rejects_a_wrong_expected_value() {
    let scale = Scale::tiny();
    let fib = inputs::fib(9, &scale);
    let (rules, _) = otc_benchmark::fib::timed_builds(&fib, 1);
    let totals = otc_benchmark::fib::calls(&rules, &fib, Duration::from_millis(20)).totals;
    let expected = checks::fib_expected(&rules, &fib.events, FIB_SHARDS, FibInputs::capacity());
    checks::fib(&totals, &expected).expect("sharded totals equal the per-shard sum");

    let mut wrong = expected.clone();
    wrong.misses += 1;
    assert!(checks::fib(&totals, &wrong).is_err(), "a wrong miss count must fail");
    let mut wrong = expected.clone();
    wrong.reorg_cost += 4;
    assert!(checks::fib(&totals, &wrong).is_err(), "a wrong reorganisation cost must fail");
    assert!(checks::fib(&[], &expected).is_err(), "no completed call must fail");
}
