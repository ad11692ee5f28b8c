//! `repro` — regenerate every table and figure of the paper at laptop
//! scale and print them as markdown.
//!
//! ```text
//! cargo run --release -p squall-bench --bin repro            # everything
//! cargo run --release -p squall-bench --bin repro -- f7      # one artifact
//! ```
//!
//! Artifacts: e0, f5, f6, f7 (includes t1/t2 columns), f8, a1–a4.

use squall_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k);
    let mut out = String::new();

    if want("e0") {
        out.push_str(&render(
            "E0 — §3.1 worked example: R ⋈ S ⋈ T, 64 machines (paper: 0.26H/0.75H/0.69H/0.36H; totals 17H/48H/23H)",
            &e0_worked_example(),
        ));
    }
    if want("f5") {
        out.push_str(&render(
            "Figure 5 — bottleneck decomposition, CUSTOMER ⋈ ORDERS (paper: sel(int) 1.6%, sel(date) ~16%, network ~60%, join ~14%; shares not comparable: the full join runs through Session, the stages through per-tuple bolts, see EXPERIMENTS.md)",
            &fig5_bottleneck(40.0, 8),
        ));
    }
    if want("f6") {
        out.push_str(&render(
            "Figure 6 — 3-Reachability: multi-way vs pipeline of 2-way joins (paper: multi-way 1.43x faster, 132.6M vs 160.6M tuples)",
            &fig6_reachability(1500, 10_000, 9),
        ));
    }
    if want("f7") || want("t1") || want("t2") {
        for (title, rows) in fig7_all(0.5, 1.5) {
            out.push_str(&render(
                &format!("Figure 7 / Tables 1–2 — {title} (paper: Hybrid wins 1.6–11.6x; Hash OOMs on the big skewed config)"),
                &rows,
            ));
        }
    }
    if want("f8") {
        for (title, rows) in fig8_all(2.0) {
            out.push_str(&render(
                &format!("{title} (paper: DBToaster ~10x on TPC-H, 3–4x on TaskCount; Traditional folds duplicate rows under COUNT(*), so this is not the enumeration gap, see ROADMAP 1(a))"),
                &rows,
            ));
        }
    }
    if want("a1") {
        out.push_str(&render(
            "Ablation A1 — §5 hash-imperfection skew (d ≈ p)",
            &abl_hash_imperfection(),
        ));
    }
    if want("a2") {
        out.push_str(&render(
            "Ablation A2 — §5 temporal skew (sorted arrival)",
            &abl_temporal_skew(),
        ));
    }
    if want("a3") {
        out.push_str(&render("Ablation A3 — Adaptive 1-Bucket under drift [32]", &abl_adaptive()));
    }
    if want("a4") {
        out.push_str(&render(
            "Ablation A4 — band-join schemes under join product skew (§3.1)",
            &abl_band_schemes(),
        ));
    }
    println!("{out}");
}
