//! Regenerates the paper's evaluation (§5) in one process: every registered
//! experiment, or only the ids named on the command line, at the scale
//! `STSM_SCALE` selects. Each Markdown block is printed; outside smoke scale
//! it also replaces the matching `<!-- ID -->` block of EXPERIMENTS.md, and
//! the raw numbers go to `results/<id>.json`.
//!
//! ```bash
//! cargo run --release -p stsm-bench --bin repro                 # all of them
//! cargo run --release -p stsm-bench --bin repro -- table4 fig8  # only these
//! STSM_SCALE=smoke cargo run --release -p stsm-bench --bin repro # no writes
//! ```
//!
//! An unknown id exits with status 2 and lists the valid ones.

use std::path::Path;
use std::time::Instant;
use stsm_bench::{publish, Scale, EXPERIMENTS};

fn main() {
    let scale = Scale::from_env();
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = ids.iter().find(|id| !EXPERIMENTS.iter().any(|e| e.id == id.as_str())) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("repro: unknown experiment `{bad}`; valid ids: {}", valid.join(" "));
        std::process::exit(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = Instant::now();
    for exp in EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id)) {
        println!("\n# {} (scale: {scale:?})\n", exp.title);
        let out = (exp.run)(scale);
        println!("{}", out.block.trim());
        match publish(&root, exp.id, &out.block, &out.json, scale) {
            Ok(true) => println!("\n[wrote results/{}.json and its EXPERIMENTS.md block]", exp.id),
            Ok(false) => println!("\n[smoke scale: nothing written]"),
            Err(e) => {
                eprintln!("repro: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("\nrepro finished in {:.1} s", started.elapsed().as_secs_f64());
}
