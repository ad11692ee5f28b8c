//! The contract between `BENCHMARK.json` and what `squall-bench` prints,
//! checked at `--smoke` sizes: every declared workload and metric appears
//! with a finite value and its declared unit, nothing fails, the same seed
//! repeats every count exactly, another seed gives other inputs, and a wrong
//! reference turns into a non-zero exit.

use std::collections::BTreeMap;
use std::process::Command;

/// Every `"key": "<string>"` value in `text`, in order.
fn strings_of(text: &str, key: &str) -> Vec<String> {
    text.split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

/// The `[...]` that follows `"key":` in the manifest.
fn section<'a>(manifest: &'a str, key: &str) -> &'a str {
    let rest = manifest.split(&format!("\"{key}\": [")).nth(1).expect("section in BENCHMARK.json");
    rest.split(']').next().expect("closing bracket")
}

struct RunResult {
    success: bool,
    line: String,
}

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> RunResult {
    let out = Command::new(env!("CARGO_BIN_EXE_squall-bench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", &trace.to_string(), "--smoke"])
        .args(extra)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run squall-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    RunResult {
        success: out.status.success(),
        line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// `name -> (value, unit)` of a result line.
fn metrics_of(line: &str) -> BTreeMap<String, (f64, String)> {
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    body.split("}, ")
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?.parse().ok()?;
            let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), (value, unit.to_string())))
        })
        .collect()
}

fn manifest() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

fn declared(manifest: &str, key: &str) -> Vec<(String, String)> {
    let body = section(manifest, key);
    strings_of(body, "name").into_iter().zip(strings_of(body, "unit")).collect()
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_declared_workload_and_metric_is_printed() {
    let manifest = manifest();
    let workloads = strings_of(section(&manifest, "workloads"), "name");
    assert_eq!(workloads.len(), 5);
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let declared = declared(&manifest, key);
        assert!(!declared.is_empty());
        for w in &workloads {
            assert!(is_valid_name(w), "{w}");
            let r = run(w, 1, trace, &[]);
            assert!(r.success, "{w} --trace {trace} failed: {}", r.line);
            assert!(r.line.starts_with("{\"correct\": true, \"attempted\": "), "{}", r.line);
            assert!(r.line.contains("\"failed\": 0, "), "{}", r.line);
            let printed = metrics_of(&r.line);
            assert_eq!(printed.len(), declared.len(), "{w} --trace {trace}: {:?}", printed.keys());
            for (name, unit) in &declared {
                assert!(is_valid_name(name), "{name}");
                let (value, printed_unit) =
                    printed.get(name).unwrap_or_else(|| panic!("{w} does not print {name}"));
                assert!(value.is_finite(), "{w} {name} = {value}");
                assert_eq!(printed_unit, unit, "{w} {name}");
                if trace == 0 {
                    assert!(*value > 0.0, "{w} {name} must never read 0");
                }
            }
        }
    }
}

#[test]
fn counts_repeat_with_the_seed_and_change_with_it() {
    // `core.deltas_in` is left out: how the view sink's deltas are batched
    // depends on which relation's epoch reaches a join task first, and the
    // count moves by one or two in tens of thousands between identical runs.
    let counts = |line: &str| -> Vec<(String, f64)> {
        metrics_of(line)
            .into_iter()
            .filter(|(name, _)| {
                [
                    "partition.replication_factor",
                    "partition.skew_degree",
                    "partition.max_load",
                    "join.stored",
                    "join.results",
                ]
                .contains(&name.as_str())
            })
            .map(|(name, (value, _))| (name, value))
            .collect()
    };
    for w in ["hypercube4.zipf", "view3.append"] {
        let first = counts(&run(w, 7, 1, &[]).line);
        assert!(first.iter().any(|(_, v)| *v > 0.0), "{w}: {first:?}");
        assert_eq!(first, counts(&run(w, 7, 1, &[]).line), "{w}: same seed, same counts");
        assert_ne!(first, counts(&run(w, 8, 1, &[]).line), "{w}: another seed, other inputs");
    }
}

#[test]
fn a_wrong_reference_fails_the_run() {
    for w in ["hypercube3.uniform", "hypercube4.zipf", "window64.tumbling", "view3.append"] {
        let r = run(w, 1, 0, &["--corrupt-reference"]);
        assert!(!r.success, "{w} accepted a wrong reference");
        assert!(r.line.starts_with("{\"correct\": false"), "{}", r.line);
    }
}
