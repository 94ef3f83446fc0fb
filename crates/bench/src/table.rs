//! Table rendering and result persistence. Every experiment renders its
//! paper-shaped Markdown into a `String`, so stdout and EXPERIMENTS.md carry
//! the same text; [`publish`] writes `results/<id>.json` and splices the
//! block into EXPERIMENTS.md.

use crate::runner::RunResult;
use crate::scale::Scale;
use std::path::Path;

/// Formats one metrics row: model, RMSE, MAE, MAPE, R².
pub fn metrics_row(r: &RunResult) -> String {
    format!(
        "| {:<12} | {:>8.3} | {:>8.3} | {:>7.3} | {:>8.3} |",
        r.model, r.metrics.rmse, r.metrics.mae, r.metrics.mape, r.metrics.r2
    )
}

/// A paper-style metrics table for one dataset, with the best RMSE named.
pub fn metrics_table(title: &str, rows: &[RunResult]) -> String {
    let mut md = format!("\n### {title}\n\n");
    md += "| Model        |    RMSE↓ |     MAE↓ |  MAPE↓ |     R2↑  |\n";
    md += "|--------------|----------|----------|--------|----------|\n";
    for r in rows {
        md += &metrics_row(r);
        md += "\n";
    }
    // Best-of annotations like the paper's bold/underline markers.
    if let Some(best) =
        rows.iter().min_by(|a, b| a.metrics.rmse.partial_cmp(&b.metrics.rmse).expect("finite"))
    {
        md += &format!("\nBest RMSE: **{}** ({:.3})\n", best.model, best.metrics.rmse);
    }
    md
}

/// A Table 5-style timing table: train and test seconds per model and dataset.
pub fn timing_table(title: &str, datasets: &[(String, Vec<RunResult>)]) -> String {
    let mut md = format!("\n### {title}\n\n| Model        | Time      |");
    for (name, _) in datasets {
        md += &format!(" {name:>9} |");
    }
    md += "\n|--------------|-----------|";
    md += &"-----------|".repeat(datasets.len());
    md += "\n";
    for (mi, r) in datasets[0].1.iter().enumerate() {
        md += &format!("| {:<12} | Train (s) |", r.model);
        for (_, rows) in datasets {
            md += &format!(" {:>9.1} |", rows[mi].train_seconds);
        }
        md += &format!("\n| {:<12} | Test (s)  |", "");
        for (_, rows) in datasets {
            md += &format!(" {:>9.2} |", rows[mi].test_seconds);
        }
        md += "\n";
    }
    md
}

/// Computes the paper's "Improvement" row: error reduction of the best STSM
/// variant relative to the best baseline (positive = STSM better).
pub fn improvement_vs_best_baseline(rows: &[RunResult]) -> Option<(f64, f64, f64, f64)> {
    let is_stsm = |r: &RunResult| r.model.starts_with("STSM");
    let best = |ours: bool, f: fn(&RunResult) -> f64, lower_better: bool| -> Option<f64> {
        rows.iter()
            .filter(|r| is_stsm(r) == ours)
            .map(f)
            .filter(|v| v.is_finite())
            .reduce(|a, b| if lower_better == (a < b) { a } else { b })
    };
    let imp_lower = |f: fn(&RunResult) -> f64| -> Option<f64> {
        let base = best(false, f, true)?;
        let ours = best(true, f, true)?;
        Some((base - ours) / base * 100.0)
    };
    let imp_r2 = {
        let base = best(false, |r| r.metrics.r2, false)?;
        let ours = best(true, |r| r.metrics.r2, false)?;
        if base.abs() < 1e-12 || base < 0.0 {
            f64::NAN // N/A per the paper when baselines have negative R².
        } else {
            (ours - base) / base * 100.0
        }
    };
    Some((
        imp_lower(|r| r.metrics.rmse)?,
        imp_lower(|r| r.metrics.mae)?,
        imp_lower(|r| r.metrics.mape)?,
        imp_r2,
    ))
}

/// The "Improvement vs best baseline" line under a table, or nothing when
/// the rows lack a baseline or an STSM variant.
pub fn improvement_line(rows: &[RunResult]) -> String {
    let Some((rmse, mae, mape, r2)) = improvement_vs_best_baseline(rows) else {
        return String::new();
    };
    let pct = |v: f64| if v.is_nan() { "N/A".to_string() } else { format!("{v:+.2}%") };
    format!(
        "Improvement vs best baseline: RMSE {} | MAE {} | MAPE {} | R2 {}\n",
        pct(rmse),
        pct(mae),
        pct(mape),
        pct(r2)
    )
}

/// Replaces the text between `<!-- ID -->` and `<!-- /ID -->` (`ID` is the
/// upper-cased experiment id) with `block`. Splicing the same block twice
/// gives the same document; a missing or out-of-order marker is an error.
pub fn splice(doc: &str, id: &str, block: &str) -> Result<String, String> {
    let open = format!("<!-- {} -->", id.to_uppercase());
    let close = format!("<!-- /{} -->", id.to_uppercase());
    let start = doc.find(&open).ok_or_else(|| format!("missing marker {open}"))? + open.len();
    let end = start
        + doc[start..]
            .find(&close)
            .ok_or_else(|| format!("missing marker {close} after {open}"))?;
    Ok(format!("{}\n\n{}\n\n{}", &doc[..start], block.trim(), &doc[end..]))
}

/// Writes `results/<id>.json` and splices `block` into `EXPERIMENTS.md`
/// under `root`. At [`Scale::Smoke`] it writes nothing and returns `false`,
/// so wiring runs never overwrite the recorded quick-scale results.
pub fn publish(
    root: &Path,
    id: &str,
    block: &str,
    json: &serde_json::Value,
    scale: Scale,
) -> Result<bool, String> {
    if scale == Scale::Smoke {
        return Ok(false);
    }
    let doc_path = root.join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .map_err(|e| format!("cannot read {}: {e}", doc_path.display()))?;
    let doc = splice(&doc, id, block)?;
    let dir = root.join("results");
    let json_path = dir.join(format!("{id}.json"));
    let text = serde_json::to_string_pretty(json).expect("serialize") + "\n";
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&json_path, text))
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    std::fs::write(&doc_path, doc)
        .map_err(|e| format!("cannot write {}: {e}", doc_path.display()))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsm_timeseries::Metrics;

    fn r(model: &str, rmse: f64, r2: f64) -> RunResult {
        RunResult {
            model: model.into(),
            metrics: Metrics { rmse, mae: rmse * 0.6, mape: 0.1, r2 },
            train_seconds: 1.0,
            test_seconds: 0.1,
            masked_similarity: None,
            random_similarity: None,
        }
    }

    #[test]
    fn improvement_positive_when_stsm_wins() {
        let rows = vec![r("INCREASE", 10.0, 0.1), r("STSM", 9.0, 0.2)];
        let (rmse, mae, _mape, r2) = improvement_vs_best_baseline(&rows).unwrap();
        assert!((rmse - 10.0).abs() < 1e-9);
        assert!(mae > 0.0);
        assert!((r2 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_r2_nan_when_baselines_negative() {
        let rows = vec![r("IGNNK", 10.0, -0.5), r("STSM", 9.0, 0.2)];
        let (_, _, _, r2) = improvement_vs_best_baseline(&rows).unwrap();
        assert!(r2.is_nan(), "negative baseline R² must yield N/A");
        assert!(improvement_line(&rows).ends_with("R2 N/A\n"));
    }

    #[test]
    fn rows_render() {
        let row = metrics_row(&r("STSM", 8.61, 0.23));
        assert!(row.contains("STSM"));
        assert!(row.contains("8.610"));
    }
}
