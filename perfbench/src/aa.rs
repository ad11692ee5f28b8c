//! `--aa <sets>`: A/A mode. Runs every workload `sets` times with this same
//! binary, each set on its own seed, and prints for every end-to-end metric
//! of every workload the median, the inter-quartile range as a share of the
//! median, and the regression bound that spread implies:
//! `max(0.10, 2 × relative IQR)`. Two invocations give the two sets whose
//! medians must agree within the bounds written in `BENCHMARK.json`.

use std::process::Command;

use crate::harness::Args;
use crate::stats;
use crate::workloads::WORKLOADS;

const END_TO_END: [&str; 3] = ["throughput_tps", "result_ms_p50", "setup_s"];

/// The value of `"<name>": {"value": <number>, …` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

pub fn run(sets: usize, args: &Args, smoke: bool) {
    assert!(sets >= 2, "--aa needs at least two sets to have a spread");
    let exe = std::env::current_exe().expect("own executable path");
    println!("workload metric median rel_iqr implied_bound");
    for w in &WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for set in 0..sets {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(args.seed + set as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("re-run this binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            assert!(
                out.status.success() && line.contains("\"correct\": true"),
                "{} failed on seed {}: {line}",
                w.name,
                args.seed + set as u64
            );
            for (values, name) in samples.iter_mut().zip(END_TO_END) {
                values.push(metric_value(line, name).expect("every end-to-end metric is printed"));
            }
        }
        for (values, name) in samples.iter().zip(END_TO_END) {
            let spread = stats::rel_iqr(values);
            println!(
                "{} {name} {} {spread:.4} {:.2}",
                w.name,
                stats::quartiles(values).1,
                (2.0 * spread).max(0.10)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::metric_value;

    #[test]
    fn reads_a_metric_out_of_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_b": {"value": 1.5e3, "unit": "ms"}, "setup_s": {"value": 0.25, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "a_b"), Some(1500.0));
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "missing"), None);
    }
}
