//! `squall-bench` — the one benchmark runner `BENCHMARK.json` declares.
//!
//! ```text
//! squall-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! squall-bench --aa <sets> [--seed <n>] [--seconds <s>]
//! ```
//!
//! One invocation runs one workload in this process (so `peak_rss_mb` is
//! per workload), checks every answer against `oracle`, and prints one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones from a separate
//! traced pass. Progress notes go to standard error. See `README.md`.

mod aa;
mod e2e;
mod harness;
mod oracle;
mod stats;
mod trace;
mod workloads;

use harness::{Args, Outcome};

fn usage() -> ! {
    eprintln!(
        "usage: squall-bench --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      squall-bench --aa <sets> [--seed <u64>] [--seconds <s>] [--smoke]\n\
         workloads: {}",
        workloads::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).map(|i| match argv.get(i + 1) {
            Some(v) => v.as_str(),
            None => usage(),
        })
    };
    let parsed = |flag: &str, default: f64| -> f64 {
        value(flag).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let smoke = argv.iter().any(|a| a == "--smoke");
    let args = Args {
        seed: value("--seed").map_or(1, |v| v.parse().unwrap_or_else(|_| usage())),
        seconds: parsed("--seconds", if smoke { 0.3 } else { 10.0 }),
        sizes: if smoke { &workloads::SMOKE } else { &workloads::FULL },
        corrupt_reference: argv.iter().any(|a| a == "--corrupt-reference"),
    };
    if let Some(sets) = value("--aa") {
        aa::run(sets.parse().unwrap_or_else(|_| usage()), &args, smoke);
        return;
    }
    let Some(workload) =
        value("--workload").and_then(|n| workloads::WORKLOADS.iter().find(|w| w.name == n))
    else {
        usage()
    };
    let traced = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    eprintln!(
        "{} (seed {}, {} s, {}): {}",
        workload.name,
        args.seed,
        args.seconds,
        if traced { "traced pass" } else { "end to end" },
        workload.why
    );
    let outcome = match (workload.name, traced) {
        ("hypercube3.uniform", false) => e2e::hypercube3_uniform(&args),
        ("hypercube3.tcp", false) => e2e::hypercube3_tcp(&args),
        ("hypercube4.zipf", false) => e2e::hypercube4_zipf(&args),
        ("window64.tumbling", false) => e2e::window64_tumbling(&args),
        ("view3.append", false) => e2e::view3_append(&args),
        (name, true) => trace::run(name, &args),
        _ => unreachable!("every workload in the matrix has a runner"),
    };
    println!("{}", render(&outcome));
    if outcome.failed > 0 {
        eprintln!("{} of {} answers were wrong", outcome.failed, outcome.attempted);
        std::process::exit(1);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn render(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
