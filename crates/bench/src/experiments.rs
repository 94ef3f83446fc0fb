//! The experiment registry: one in-process entry per table or figure of the
//! paper's evaluation (§5), plus the ablations beyond it. Each `run` returns
//! its Markdown block and its JSON record and writes nothing itself; the
//! `repro` binary prints the block and hands both to [`crate::publish`].

use crate::runner::{
    apply_sensor_cap, distance_mode_for, run_dataset_lineup, run_dataset_lineup_with_splits,
    run_stsm, ModelId, RunResult,
};
use crate::scale::Scale;
use crate::table::{improvement_line, metrics_table, timing_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Map, Value};
use stsm_core::{evaluate_detailed, train_stsm, DistanceMode, MaskingContext, ProblemInstance};
use stsm_core::{StsmConfig, Variant};
use stsm_graph::CsrMatrix;
use stsm_synth::{presets, ring_split, space_split, space_split_ratio, SplitAxis};
use stsm_synth::{Dataset, DatasetConfig, SpaceSplit};

/// The seed every experiment generates data and trains with.
pub const SEED: u64 = 42;

/// What one experiment produces: the Markdown printed and spliced into
/// EXPERIMENTS.md, and the record written to `results/<id>.json`.
pub struct Output {
    /// Paper-shaped Markdown tables.
    pub block: String,
    /// The raw numbers behind the block.
    pub json: Value,
}

/// One registered experiment.
pub struct Experiment {
    /// Short id: the `repro` argument, the `results/<id>.json` stem and the
    /// upper-cased EXPERIMENTS.md marker.
    pub id: &'static str,
    /// Human-readable title (the paper artefact).
    pub title: &'static str,
    /// Runs the experiment at a scale.
    pub run: fn(Scale) -> Output,
}

/// Every experiment, in the order `repro` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("figmaps", "Figs. 5/6/11 — Sensor distributions and partitions", figmaps),
    exp("fig7", "Fig. 7 — Adjacency matrix sparsity on PEMS-Bay", fig7),
    exp("table4", "Table 4 — Overall model performance", table4),
    exp("table5", "Table 5 — Model training/testing time", table5),
    exp("fig8", "Fig. 8 — RMSE vs unobserved ratio", fig8),
    exp("table6", "Table 6 — Varying the number of sensors (PEMS-07 + PEMS-08 merged)", table6),
    exp("table7", "Table 7 — Varying the density of sensors (PEMS-08)", table7),
    exp("table8", "Table 8 — Similarity gain of selective vs random masking", table8),
    exp("fig9", "Fig. 9 — Sensitivity to top-K", fig9),
    exp("fig10", "Fig. 10 — Sensitivity to eps_sg", fig10),
    exp("table9", "Table 9 — PEMS-Bay with a ring split", table9),
    exp("table10", "Table 10 — Advanced temporal correlation module on PEMS-Bay", table10),
    exp("table11", "Table 11 — Distance functions on PEMS-Bay", table11),
    exp("ablation", "Ablations beyond the paper", ablation),
];

const fn exp(id: &'static str, title: &'static str, run: fn(Scale) -> Output) -> Experiment {
    Experiment { id, title, run }
}

/// The three adapted baselines and the full STSM (Tables 5, 6, 7 and 9).
const BASELINES_AND_STSM: [ModelId; 4] =
    [ModelId::GeGan, ModelId::Ignnk, ModelId::Increase, ModelId::Stsm(Variant::Stsm)];

/// The five paper datasets (Table 2) at a scale: the four traffic networks,
/// then AirQ.
fn paper_datasets(scale: Scale) -> [DatasetConfig; 5] {
    let days = scale.days();
    [
        presets::pems_bay(days, SEED),
        presets::pems_07(days, SEED),
        presets::pems_08(400, days, SEED),
        presets::melbourne(days, SEED),
        presets::airq(days.max(6), SEED),
    ]
}

/// The named paper datasets, in [`paper_datasets`] order.
fn datasets_named(scale: Scale, names: &[&str]) -> Vec<DatasetConfig> {
    paper_datasets(scale).into_iter().filter(|c| names.contains(&c.name.as_str())).collect()
}

/// Generates a dataset and applies the scale's sensor cap.
fn generate(cfg: &DatasetConfig, scale: Scale) -> Dataset {
    apply_sensor_cap(cfg.generate(), scale)
}

fn pems_bay(scale: Scale) -> Dataset {
    generate(&paper_datasets(scale)[0], scale)
}

/// The horizontal 4:1:5 split every single-split experiment uses.
fn horizontal(dataset: &Dataset) -> SpaceSplit {
    space_split(&dataset.coords, SplitAxis::Horizontal, false)
}

fn to_json<T: serde::Serialize>(value: T) -> Value {
    serde_json::to_value(value).expect("serialize")
}

/// One metrics table, with its improvement line, per `(key, title,
/// dataset)` case; the JSON keys each case's rows by `key` (Tables 4, 6, 7).
fn lineup_tables(
    scale: Scale,
    models: &[ModelId],
    cases: impl Iterator<Item = (String, String, Dataset)>,
) -> Output {
    let mut block = String::new();
    let mut json = Map::new();
    for (key, title, dataset) in cases {
        let rows = run_dataset_lineup(&dataset, models, scale, SEED);
        block += &metrics_table(&title, &rows);
        block += &improvement_line(&rows);
        json.insert(key, to_json(&rows));
    }
    Output { block, json: Value::Object(json) }
}

/// Table 4: GE-GAN / IGNNK / INCREASE vs the four main STSM variants on all
/// five datasets.
fn table4(scale: Scale) -> Output {
    let cases = paper_datasets(scale).into_iter().map(|cfg| {
        let dataset = generate(&cfg, scale);
        (dataset.name.clone(), dataset.name.clone(), dataset)
    });
    lineup_tables(scale, &ModelId::table4_lineup(), cases)
}

/// Table 5: training and testing time over the traffic datasets (the paper
/// omits AirQ for its small scale).
fn table5(scale: Scale) -> Output {
    let named: Vec<(String, Vec<RunResult>)> = paper_datasets(scale)[..4]
        .iter()
        .map(|cfg| {
            let dataset = generate(cfg, scale);
            let rows = run_dataset_lineup(&dataset, &BASELINES_AND_STSM, scale, SEED);
            (dataset.name, rows)
        })
        .collect();
    Output { block: timing_table("Training and testing time", &named), json: to_json(&named) }
}

/// Table 6: 200–800 sensors, as vertical partitions of the merged PEMS-07
/// and PEMS-08 regions.
fn table6(scale: Scale) -> Output {
    let [_, d07, d08, ..] = paper_datasets(scale);
    let merged = d07.generate().merge(&d08.generate());
    let mut order: Vec<usize> = (0..merged.n).collect();
    order.sort_by(|&a, &b| merged.coords[a][0].partial_cmp(&merged.coords[b][0]).expect("finite"));
    let counts: &[usize] = if scale == Scale::Smoke { &[20, 40] } else { &[200, 400, 600, 800] };
    let cases = counts.iter().map(|&count| {
        let mut keep = order[..count.min(merged.n)].to_vec();
        keep.sort_unstable();
        let sub = apply_sensor_cap(merged.subset(&keep), scale);
        (count.to_string(), format!("{count} sensors"), sub)
    });
    lineup_tables(scale, &BASELINES_AND_STSM, cases)
}

/// Table 7: sensor density on PEMS-08, from 200 up to the full 964 sensors
/// over the same region.
fn table7(scale: Scale) -> Output {
    // Generate the densest network once; sparser datasets sample from it so
    // the region (and the underlying signal field) stays identical.
    let full = presets::pems_08(964, scale.days(), SEED).generate();
    let counts: &[usize] =
        if scale == Scale::Smoke { &[20, 40] } else { &[200, 400, 600, 800, 964] };
    let cases = counts.iter().map(|&count| {
        // Uniform stride sample keeps the spatial extent (density sweep).
        let stride = (full.n as f64 / count as f64).max(1.0);
        let mut keep: Vec<usize> =
            (0..count).map(|i| ((i as f64 * stride) as usize).min(full.n - 1)).collect();
        keep.dedup();
        let sub = apply_sensor_cap(full.subset(&keep), scale);
        (count.to_string(), format!("{} sensors (density sweep)", sub.n), sub)
    });
    lineup_tables(scale, &BASELINES_AND_STSM, cases)
}

/// Table 8: how much more similar to the unobserved region the selectively
/// masked sub-graphs are than randomly masked ones.
fn table8(scale: Scale) -> Output {
    let mut block = String::from("| Dataset    | Selective sim. | Random sim. | Gain (%) |\n");
    block += "|------------|----------------|-------------|----------|\n";
    let mut json = Map::new();
    for cfg in paper_datasets(scale) {
        let dataset = generate(&cfg, scale);
        let stsm_cfg = scale.stsm_config(&dataset.name, SEED);
        let split = horizontal(&dataset);
        let name = dataset.name.clone();
        let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
        let ctx =
            MaskingContext::new(&problem, stsm_cfg.epsilon_sg, stsm_cfg.mask_ratio, stsm_cfg.top_k);
        let mut rng = StdRng::seed_from_u64(SEED);
        let draws = 200;
        let (mut sel, mut rnd) = (0.0f64, 0.0f64);
        for _ in 0..draws {
            sel += ctx.mean_masked_similarity(&ctx.draw_selective(&mut rng)) as f64;
            rnd += ctx.mean_masked_similarity(&ctx.draw_random(&mut rng)) as f64;
        }
        sel /= draws as f64;
        rnd /= draws as f64;
        let gain = (sel - rnd) / rnd.abs().max(1e-9) * 100.0;
        block += &format!("| {name:<10} | {sel:>14.4} | {rnd:>11.4} | {gain:>8.2} |\n");
        json.insert(name, json!({ "selective": sel, "random": rnd, "gain_pct": gain }));
    }
    Output { block, json: Value::Object(json) }
}

/// Fig. 8: RMSE of STSM and INCREASE, the strongest baseline, as the
/// unobserved ratio grows from 0.2 to 0.5.
fn fig8(scale: Scale) -> Output {
    let models = [ModelId::Increase, ModelId::Stsm(Variant::Stsm)];
    let mut block = String::new();
    let mut json = Map::new();
    for cfg in paper_datasets(scale) {
        let dataset = generate(&cfg, scale);
        block += &format!("\n### {}\n\n", dataset.name);
        block += "| Unobserved ratio | INCREASE RMSE | STSM RMSE |\n";
        block += "|------------------|---------------|-----------|\n";
        let mut series = Vec::new();
        for ratio in [0.2, 0.3, 0.4, 0.5] {
            // Average over axis directions, as in the paper.
            let splits: Vec<SpaceSplit> = [SplitAxis::Horizontal, SplitAxis::Vertical]
                .into_iter()
                .take(scale.splits().max(1))
                .map(|axis| space_split_ratio(&dataset.coords, axis, false, ratio))
                .collect();
            let row = run_dataset_lineup_with_splits(&dataset, &models, &splits, scale, SEED);
            let (increase, stsm) = (row[0].metrics.rmse, row[1].metrics.rmse);
            block += &format!("| {ratio:>16.1} | {increase:>13.3} | {stsm:>9.3} |\n");
            series.push(json!({ "ratio": ratio, "increase_rmse": increase, "stsm_rmse": stsm }));
        }
        json.insert(dataset.name.clone(), Value::Array(series));
    }
    Output { block, json: Value::Object(json) }
}

/// RMSE of STSM `variants` on the horizontal split of each named dataset as
/// `apply` sets the swept parameter `key` to each of `values` (Figs. 9 and
/// 10), which sees the dataset and its split.
fn stsm_sweep<P: Copy + std::fmt::Display + serde::Serialize>(
    scale: Scale,
    datasets: &[&str],
    variants: &[Variant],
    key: &str,
    values: impl Fn(&Dataset, &SpaceSplit) -> Vec<P>,
    apply: impl Fn(&mut StsmConfig, P),
) -> Output {
    let names: Vec<&str> = variants.iter().map(|v| v.name()).collect();
    let header = format!(
        "| {key} | {} RMSE |\n|---|{}\n",
        names.join(" RMSE | "),
        "---|".repeat(names.len())
    );
    let mut block = String::new();
    let mut json = Map::new();
    for cfg in datasets_named(scale, datasets) {
        let dataset = generate(&cfg, scale);
        block += &format!("\n### {}\n\n{header}", dataset.name);
        let split = horizontal(&dataset);
        let mut series = Vec::new();
        for p in values(&dataset, &split) {
            let mut point = Map::new();
            point.insert(key.to_string(), to_json(p));
            block += &format!("| {p} |");
            for (&v, name) in variants.iter().zip(&names) {
                let model = ModelId::Stsm(v);
                let problem =
                    ProblemInstance::new(dataset.clone(), split.clone(), distance_mode_for(model));
                let mut stsm_cfg = scale.stsm_config(&dataset.name, SEED);
                apply(&mut stsm_cfg, p);
                let rmse = run_stsm(&problem, v, stsm_cfg).metrics.rmse;
                block += &format!(" {rmse:.3} |");
                point.insert(name.to_lowercase().replace('-', "_"), to_json(rmse));
            }
            block += "\n";
            series.push(Value::Object(point));
        }
        json.insert(dataset.name.clone(), Value::Array(series));
    }
    Output { block, json: Value::Object(json) }
}

/// Fig. 9: RMSE of STSM and STSM-NC as the selective-masking top-K varies.
fn fig9(scale: Scale) -> Output {
    stsm_sweep(
        scale,
        &["PEMS-Bay", "Melbourne", "AirQ"],
        &[Variant::Stsm, Variant::StsmNc],
        "k",
        |d, split| top_k_sweep(d.n, split.observed().len()),
        |cfg, k| cfg.top_k = k,
    )
}

/// Fig. 9's K values for a dataset of `n` sensors with `observed` of them
/// observed. Masking ranks one sub-graph per observed sensor, so any K at or
/// above `observed` keeps them all: such K are clamped to `observed` and
/// repeats dropped.
fn top_k_sweep(n: usize, observed: usize) -> Vec<usize> {
    let ks: &[usize] = if n < 60 { &[5, 10, 20] } else { &[5, 15, 25, 35, 45] };
    let mut ks: Vec<usize> = ks.iter().map(|&k| k.min(observed)).collect();
    ks.dedup();
    ks
}

/// Fig. 10: RMSE of the four main STSM variants as the sub-graph threshold
/// ε_sg varies (larger ε_sg = smaller sub-graphs).
fn fig10(scale: Scale) -> Output {
    stsm_sweep(
        scale,
        &["PEMS-Bay", "Melbourne"],
        &[Variant::Stsm, Variant::StsmNc, Variant::StsmR, Variant::StsmRnc],
        "eps_sg",
        |_, _| vec![0.3f32, 0.4, 0.5, 0.6, 0.7],
        |cfg, eps| cfg.epsilon_sg = eps,
    )
}

/// Table 9: the ring split on PEMS-Bay (Fig. 11) — centre observed for
/// training, middle ring for validation, outer region unobserved.
fn table9(scale: Scale) -> Output {
    let dataset = pems_bay(scale);
    let splits = [ring_split(&dataset.coords)];
    let rows = run_dataset_lineup_with_splits(&dataset, &BASELINES_AND_STSM, &splits, scale, SEED);
    let block = metrics_table("PEMS-Bay (ring split)", &rows) + &improvement_line(&rows);
    Output { block, json: to_json(&rows) }
}

/// A lineup of STSM variants on PEMS-Bay (Tables 10 and 11).
fn pems_bay_variants(scale: Scale, title: &str, variants: &[Variant]) -> Output {
    let models: Vec<ModelId> = variants.iter().map(|&v| ModelId::Stsm(v)).collect();
    let rows = run_dataset_lineup(&pems_bay(scale), &models, scale, SEED);
    Output { block: metrics_table(title, &rows), json: to_json(&rows) }
}

/// Table 10: STSM vs STSM-trans (transformer temporal module + gated
/// fusion), the extensibility experiment of §5.2.5.
fn table10(scale: Scale) -> Output {
    pems_bay_variants(scale, "PEMS-Bay: STSM vs STSM-trans", &[Variant::Stsm, Variant::StsmTrans])
}

/// Table 11: Euclidean STSM vs road-network distance for matrices +
/// pseudo-observations (rd-a) or matrices only (rd-m), §5.2.6.
fn table11(scale: Scale) -> Output {
    pems_bay_variants(
        scale,
        "PEMS-Bay: Euclidean vs road-network distance",
        &[Variant::Stsm, Variant::StsmRdA, Variant::StsmRdM],
    )
}

/// Aggregates an adjacency into a `cells`×`cells` density sketch.
fn sketch(matrix: &CsrMatrix, cells: usize) -> String {
    let block = matrix.rows().div_ceil(cells);
    let mut counts = vec![0usize; cells * cells];
    for (r, c, _) in matrix.iter() {
        counts[(r / block).min(cells - 1) * cells + (c / block).min(cells - 1)] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut art = String::from("```\n");
    for row in counts.chunks(cells) {
        let line: String =
            row.iter().map(|&c| [' ', '.', ':', '#', '@'][(c * 4 / max).min(4)]).collect();
        art += &format!("|{line}|\n");
    }
    art + "```\n"
}

/// Fig. 7: the GCN adjacency `A_s` (ε_s) vs the sparser sub-graph adjacency
/// `A_sg` (ε_sg) on PEMS-Bay, as density statistics and block sketches.
fn fig7(scale: Scale) -> Output {
    let dataset = pems_bay(scale);
    let split = horizontal(&dataset);
    let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
    let all: Vec<usize> = (0..problem.n()).collect();
    let cfg = scale.stsm_config("PEMS-Bay", SEED);
    let a_s = problem.spatial_adjacency(&all, cfg.epsilon_s);
    let a_sg = problem.spatial_adjacency(&all, cfg.epsilon_sg);
    assert!(a_sg.nnz() <= a_s.nnz(), "the larger threshold must give the sparser matrix");
    let mut block = String::new();
    let mut json = Map::new();
    for (name, eps, m) in [("A_s", cfg.epsilon_s, &a_s), ("A_sg", cfg.epsilon_sg, &a_sg)] {
        block +=
            &format!("{name} (eps = {eps:.2}): {} edges, density {:.4}\n\n", m.nnz(), m.density());
        json.insert(
            name.to_lowercase(),
            json!({ "epsilon": eps, "nnz": m.nnz(), "density": m.density() }),
        );
    }
    block += "A_s density sketch (rows = node blocks):\n\n";
    block += &sketch(&a_s, 24);
    block += "\nA_sg density sketch:\n\n";
    block += &sketch(&a_sg, 24);
    Output { block, json: Value::Object(json) }
}

/// Renders a split as an ASCII map: train `o`, validation `+`, unobserved `x`.
fn split_map(title: &str, dataset: &Dataset, split: &SpaceSplit) -> String {
    let (width, height) = (64, 20);
    let (lo, hi) =
        dataset.coords.iter().fold(([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]), |(lo, hi), c| {
            ([lo[0].min(c[0]), lo[1].min(c[1])], [hi[0].max(c[0]), hi[1].max(c[1])])
        });
    let (sx, sy) = ((hi[0] - lo[0]).max(1e-9), (hi[1] - lo[1]).max(1e-9));
    let mut grid = vec![vec![' '; width]; height];
    for (ids, ch) in [(&split.train, 'o'), (&split.val, '+'), (&split.test, 'x')] {
        for &i in ids {
            let c = dataset.coords[i];
            let gx = (((c[0] - lo[0]) / sx) * (width - 1) as f64).round() as usize;
            let gy = (((c[1] - lo[1]) / sy) * (height - 1) as f64).round() as usize;
            grid[height - 1 - gy][gx] = ch;
        }
    }
    let mut md = format!(
        "\n### {title} — split `{}`\n\ntrain {} (o) | val {} (+) | unobserved {} (x)\n\n```\n",
        split.label,
        split.train.len(),
        split.val.len(),
        split.test.len()
    );
    for row in grid {
        md += &format!("|{}|\n", row.into_iter().collect::<String>());
    }
    md + "```\n"
}

/// Figs. 5, 6 and 11: sensor distributions and data partitions.
fn figmaps(scale: Scale) -> Output {
    let mut block = String::new();
    let mut json = Map::new();
    for cfg in paper_datasets(scale) {
        let dataset = generate(&cfg, scale);
        let h = horizontal(&dataset);
        block += &split_map(&dataset.name, &dataset, &h);
        json.insert(
            dataset.name.clone(),
            json!({
                "sensors": dataset.n,
                "train": h.train.len(), "val": h.val.len(), "test": h.test.len(),
            }),
        );
        if dataset.name == "PEMS-Bay" {
            // Fig. 11: the ring split.
            block += &split_map("PEMS-Bay (Fig. 11 ring)", &dataset, &ring_split(&dataset.coords));
        }
    }
    Output { block, json: Value::Object(json) }
}

/// Ablations beyond the paper's own (Table 4), on PEMS-Bay:
///
/// 1. pseudo-observations (Eq. 3) vs zero-filling missing locations;
/// 2. the temporal-similarity adjacency `A_dtw` (q_ku in-links per
///    unobserved location) from 0 (disabled) to 3;
/// 3. per-horizon error growth of the final model.
fn ablation(scale: Scale) -> Output {
    let dataset = pems_bay(scale);
    let split = horizontal(&dataset);
    let base = scale.stsm_config(&dataset.name, SEED);
    let problem = ProblemInstance::new(dataset, split, DistanceMode::Euclidean);
    let mut json = Map::new();

    let mut block = String::from("\n### Pseudo-observations (Eq. 3) vs zero fill\n\n");
    block += "| Input filling | RMSE | MAE | R2 |\n|---------------|------|-----|----|\n";
    for (label, pseudo) in [("pseudo-observations", true), ("zeros", false)] {
        let mut cfg = base.clone();
        cfg.pseudo_observations = pseudo;
        let m = run_stsm(&problem, Variant::Stsm, cfg).metrics;
        block += &format!("| {label:<13} | {:.3} | {:.3} | {:.3} |\n", m.rmse, m.mae, m.r2);
        json.insert(format!("fill_{label}"), to_json(m));
    }

    block += "\n### Temporal adjacency A_dtw: in-links per unobserved location\n\n";
    block += "| q_ku | RMSE | R2 |\n|------|------|----|\n";
    for q_ku in [0usize, 1, 2, 3] {
        let mut cfg = base.clone();
        cfg.q_ku = q_ku;
        let m = run_stsm(&problem, Variant::Stsm, cfg).metrics;
        block += &format!("| {q_ku:>4} | {:.3} | {:.3} |\n", m.rmse, m.r2);
        json.insert(format!("q_ku_{q_ku}"), to_json(m));
    }

    block += "\n### Per-horizon RMSE of the full model\n\n| horizon | RMSE |\n|---------|------|\n";
    let (trained, _) = train_stsm(&problem, &base).expect("trains");
    let curve = evaluate_detailed(&trained, &problem).expect("evaluates").horizon.rmse_curve();
    for (h, rmse) in curve.iter().enumerate() {
        block += &format!("| t+{:<5} | {rmse:.3} |\n", h + 1);
    }
    json.insert("horizon_rmse".into(), to_json(curve));
    Output { block, json: Value::Object(json) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_sweep_is_bounded_by_the_observed_count() {
        // AirQ: 63 sensors, 31 observed — 35 and 45 both keep all 31.
        assert_eq!(top_k_sweep(63, 31), vec![5, 15, 25, 31]);
        assert_eq!(top_k_sweep(325, 162), vec![5, 15, 25, 35, 45]);
        assert_eq!(top_k_sweep(40, 20), vec![5, 10, 20]);
        assert_eq!(top_k_sweep(40, 8), vec![5, 8]);
    }
}
