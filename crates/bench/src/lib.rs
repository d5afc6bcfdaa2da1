//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — cascading vs no compression on MNIST/AlexNet |
//! | `fig1` | Fig 1a (iteration time breakdown) and Fig 1b (matching rate) |
//! | `fig3` | Fig 3 — the `K` sweep on CIFAR-10/AlexNet |
//! | `table2` | Table 2 — top-1 accuracy, 5 workloads × 6 strategies |
//! | `fig4` | Fig 4a (time-to-accuracy) and Fig 4b (accuracy vs budget) |
//! | `fig5` | Fig 5 — per-round phase breakdown under RAR and TAR |
//! | `theory` | Theorems 1–3 — deviations, linear speedup, `⊙` ablation |
//!
//! Run with `cargo run --release -p marsit-bench --bin <name>`. Results are
//! recorded against the paper's numbers in `EXPERIMENTS.md`.

use std::io::Write;
use std::path::Path;

use marsit_trainsim::TrainReport;

/// Prints a horizontal rule sized to `width`.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats an accuracy as `xx.xx` percent.
#[must_use]
pub fn pct(accuracy: f64) -> String {
    format!("{:.2}", accuracy * 100.0)
}

/// Formats simulated seconds as minutes with two decimals (the paper's
/// tables report minutes).
#[must_use]
pub fn minutes(seconds: f64) -> String {
    format!("{:.2}", seconds / 60.0)
}

/// Mean matching rate over a run (Fig 1b's metric).
#[must_use]
pub fn mean_matching_rate(report: &TrainReport) -> f64 {
    if report.records.is_empty() {
        return 0.0;
    }
    report.records.iter().map(|r| r.matching_rate).sum::<f64>() / report.records.len() as f64
}

/// Renders a simple ASCII stacked bar for a phase breakdown, scaled so that
/// `max_total` fills `width` characters. Compute `#`, codec `%`, comm `=`.
#[must_use]
pub fn phase_bar(breakdown: marsit_simnet::PhaseBreakdown, max_total: f64, width: usize) -> String {
    let scale = if max_total > 0.0 {
        width as f64 / max_total
    } else {
        0.0
    };
    let n = |x: f64| (x * scale).round() as usize;
    format!(
        "{}{}{}",
        "#".repeat(n(breakdown.compute_s)),
        "%".repeat(n(breakdown.compression_s)),
        "=".repeat(n(breakdown.communication_s))
    )
}

/// Writes a run's per-round records as CSV (one row per round) for external
/// plotting. Columns: round, train_loss, grad_norm_sq, matching_rate,
/// full_precision, compute_s, compression_s, communication_s,
/// wire_bits_per_element, cumulative_megabits_per_worker, accuracy (empty
/// when the round was not evaluated).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_round_csv(path: &Path, report: &TrainReport) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let header = concat!(
        "round,train_loss,grad_norm_sq,matching_rate,full_precision,",
        "compute_s,compression_s,communication_s,wire_bits_per_element,",
        "cumulative_megabits_per_worker,accuracy"
    );
    writeln!(f, "{header}")?;
    for r in &report.records {
        let acc = r
            .eval
            .map_or(String::new(), |e| format!("{:.6}", e.accuracy));
        writeln!(
            f,
            "{},{:.6},{:.6e},{:.4},{},{:.6e},{:.6e},{:.6e},{:.4},{:.3},{}",
            r.round,
            r.train_loss,
            r.mean_grad_norm_sq,
            r.matching_rate,
            r.full_precision,
            r.time.compute_s,
            r.time.compression_s,
            r.time.communication_s,
            r.wire_bits_per_element,
            r.cumulative_megabits_per_worker,
            acc
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_simnet::PhaseBreakdown;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.923_41), "92.34");
    }

    #[test]
    fn minutes_formats() {
        assert_eq!(minutes(90.0), "1.50");
    }

    #[test]
    fn csv_round_trips_header_and_rows() {
        use marsit_models::Workload;
        use marsit_simnet::Topology;
        use marsit_trainsim::{train, StrategyKind, TrainConfig};
        let mut cfg = TrainConfig::new(
            Workload::AlexNetMnist,
            Topology::ring(2),
            StrategyKind::Marsit { k: Some(4) },
        );
        cfg.rounds = 6;
        cfg.train_examples = 256;
        cfg.test_examples = 64;
        cfg.batch_per_worker = 8;
        cfg.eval_every = 3;
        let report = train(&cfg);
        let dir = std::env::temp_dir().join("marsit_csv_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.csv");
        write_round_csv(&path, &report).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 6);
        assert!(lines[0].starts_with("round,train_loss"));
        assert!(lines[1].starts_with("0,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_bar_scales() {
        let p = PhaseBreakdown::new(1.0, 1.0, 2.0);
        let bar = phase_bar(p, 4.0, 40);
        assert_eq!(bar.matches('#').count(), 10);
        assert_eq!(bar.matches('%').count(), 10);
        assert_eq!(bar.matches('=').count(), 20);
    }
}
