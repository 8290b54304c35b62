//! E10 — the offline static problem (conclusion + reference \[4\]): best static cache
//! as tree sparsity, solved by an `O(n·k)` tree knapsack.
//!
//! Verifies DP = brute force on random small instances, then reports
//! runtime scaling in `n` (fixed `k`) and in `k` (fixed `n`); the log-log
//! slope in `n` should sit near 1 (linear in `n` for fixed `k` — better
//! than the conclusion's quoted `O(|T|²)` thanks to the knapsack
//! formulation; \[4\] gives near-linear algorithms for the general problem).

use std::time::Instant;

use otc_baselines::{best_static_cache, static_opt::best_static_cache_bruteforce};
use otc_experiments::{banner, fmt_f64, Table};
use otc_util::stats::linreg_slope;
use otc_util::SplitMix64;
use otc_workloads::random_attachment;

fn weights(n: usize, rng: &mut SplitMix64) -> (Vec<u64>, Vec<u64>) {
    let wpos = (0..n).map(|_| rng.next_below(50)).collect();
    let wneg = (0..n).map(|_| rng.next_below(12)).collect();
    (wpos, wneg)
}

fn main() {
    banner(
        "E10",
        "Conclusion / [4] (offline static cache = tree sparsity)",
        "the optimal static cache is computable exactly; our DP runs in O(n·k)",
    );

    // Part 1: exactness against brute force.
    let mut rng = SplitMix64::new(0xE10);
    let mut checked = 0;
    for _ in 0..200 {
        let n = 1 + rng.index(11);
        let tree = random_attachment(n, &mut rng);
        let (wpos, wneg) = weights(n, &mut rng);
        let alpha = 1 + rng.next_below(4);
        let k = rng.index(n + 1);
        let plan = best_static_cache(&tree, &wpos, &wneg, alpha, k);
        let brute = best_static_cache_bruteforce(&tree, &wpos, &wneg, alpha, k);
        assert_eq!(plan.cost, brute, "DP must equal brute force (n={n}, k={k}, α={alpha})");
        checked += 1;
    }
    println!("Exactness: DP == brute force on {checked} random instances ✓\n");

    // Part 2: scaling in n at fixed k.
    println!("### Runtime vs n (k = 256, α = 4)\n");
    let mut table = Table::new(["n", "k", "ms", "cache chosen", "cost"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for n in [5_000usize, 10_000, 20_000, 40_000, 80_000] {
        let tree = random_attachment(n, &mut rng);
        let (wpos, wneg) = weights(n, &mut rng);
        let start = Instant::now();
        let plan = best_static_cache(&tree, &wpos, &wneg, 4, 256);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        xs.push((n as f64).ln());
        ys.push(ms.max(1e-3).ln());
        table.row([
            n.to_string(),
            "256".to_string(),
            fmt_f64(ms),
            plan.set.len().to_string(),
            plan.cost.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    let slope = linreg_slope(&xs, &ys).unwrap_or(f64::NAN);
    println!("log-log slope in n: {} (≈ 1 ⇒ linear in n at fixed k)\n", fmt_f64(slope));

    // Part 3: scaling in k at fixed n.
    println!("### Runtime vs k (n = 40000, α = 4)\n");
    let mut table = Table::new(["n", "k", "ms", "cache chosen", "cost"]);
    let tree = random_attachment(40_000, &mut rng);
    let (wpos, wneg) = weights(40_000, &mut rng);
    for k in [32usize, 128, 512, 2048] {
        let start = Instant::now();
        let plan = best_static_cache(&tree, &wpos, &wneg, 4, k);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        table.row([
            "40000".to_string(),
            k.to_string(),
            fmt_f64(ms),
            plan.set.len().to_string(),
            plan.cost.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "Reading: cost decreases (weakly) with k; runtime grows with n·k. The\n\
         timings are single wall-clock samples, indicative only."
    );
}
