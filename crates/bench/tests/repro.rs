//! The `repro` harness: every registered experiment runs in-process at smoke
//! scale and writes nothing, the EXPERIMENTS.md splice replaces only its own
//! block, and the registry ids match the document's marker pairs one to one.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use stsm_bench::{publish, splice, Scale, EXPERIMENTS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch directory unique to this test process and test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stsm-repro-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_finite(value: &Value, at: &str) {
    match value {
        Value::Number(n) => assert!(n.as_f64().is_finite(), "{at}: non-finite {n:?}"),
        Value::Array(items) => items.iter().for_each(|v| assert_finite(v, at)),
        Value::Object(map) => map.iter().for_each(|(k, v)| assert_finite(v, &format!("{at}.{k}"))),
        _ => {}
    }
}

/// Every file under `dir` with its contents (empty when `dir` is absent).
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else { return BTreeMap::new() };
    entries
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_file())
        .map(|p| (p.clone(), std::fs::read(&p).expect("read")))
        .collect()
}

fn marker_doc() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| {
            let id = e.id.to_uppercase();
            format!("## {}\n\n<!-- {id} -->\n<!-- /{id} -->\n\n", e.title)
        })
        .collect()
}

#[test]
fn every_experiment_runs_at_smoke_scale_and_writes_nothing() {
    let root = repo_root();
    let watched = [root.join("results"), PathBuf::from("results")];
    let before: Vec<_> = watched.iter().map(|d| snapshot(d)).collect();
    let doc_before = std::fs::read(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let scratch = scratch_dir("smoke");
    std::fs::write(scratch.join("EXPERIMENTS.md"), marker_doc()).expect("write doc");
    for exp in EXPERIMENTS {
        let out = (exp.run)(Scale::Smoke);
        assert!(!out.block.trim().is_empty(), "{}: empty block", exp.id);
        assert!(!out.json.is_null(), "{}: empty record", exp.id);
        assert_finite(&out.json, exp.id);
        let wrote =
            publish(&scratch, exp.id, &out.block, &out.json, Scale::Smoke).expect("publish");
        assert!(!wrote, "{}: smoke scale must not write", exp.id);
    }
    assert!(!scratch.join("results").exists(), "smoke publish created results/");
    assert_eq!(std::fs::read_to_string(scratch.join("EXPERIMENTS.md")).unwrap(), marker_doc());
    let after: Vec<_> = watched.iter().map(|d| snapshot(d)).collect();
    assert_eq!(before, after, "an experiment wrote under results/");
    assert_eq!(doc_before, std::fs::read(root.join("EXPERIMENTS.md")).unwrap());
    std::fs::remove_dir_all(&scratch).expect("clean up");
}

#[test]
fn publish_outside_smoke_writes_the_record_and_its_block() {
    let scratch = scratch_dir("publish");
    std::fs::write(scratch.join("EXPERIMENTS.md"), marker_doc()).expect("write doc");
    let json = serde_json::json!({ "rmse": 1.5 });
    assert!(publish(&scratch, "table9", "| x |", &json, Scale::Quick).expect("publish"));
    let text = std::fs::read_to_string(scratch.join("results/table9.json")).expect("record");
    assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), json);
    let doc = std::fs::read_to_string(scratch.join("EXPERIMENTS.md")).unwrap();
    assert!(doc.contains("<!-- TABLE9 -->\n\n| x |\n\n<!-- /TABLE9 -->"));
    assert!(publish(&scratch, "nosuch", "| x |", &json, Scale::Quick).is_err());
    assert!(!scratch.join("results/nosuch.json").exists(), "a failed splice must not write");
    std::fs::remove_dir_all(&scratch).expect("clean up");
}

#[test]
fn splice_replaces_only_its_own_block_and_is_idempotent() {
    let doc =
        "intro\n<!-- A -->\nold a\n<!-- /A -->\nmiddle\n<!-- B -->\nold b\n<!-- /B -->\nend\n";
    let once = splice(doc, "a", "new a\n").expect("splice");
    assert_eq!(
        once,
        "intro\n<!-- A -->\n\nnew a\n\n<!-- /A -->\nmiddle\n<!-- B -->\nold b\n<!-- /B -->\nend\n"
    );
    assert_eq!(splice(&once, "a", "new a\n").unwrap(), once, "splice must be idempotent");
    let both = splice(&once, "b", "new b").unwrap();
    assert!(both.contains("new a") && both.contains("new b") && !both.contains("old"));
    assert!(splice(doc, "c", "x").is_err(), "missing marker");
    assert!(splice("<!-- A -->\nno close", "a", "x").is_err(), "missing closing marker");
    assert!(splice("<!-- /A --> <!-- A -->", "a", "x").is_err(), "closing before opening");
}

#[test]
fn registry_ids_match_experiments_md_markers_one_to_one() {
    let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut opens = Vec::new();
    let mut closes = Vec::new();
    for piece in doc.split("<!-- ").skip(1) {
        let tag = piece.split(" -->").next().expect("marker end");
        match tag.strip_prefix('/') {
            Some(id) => closes.push(id.to_string()),
            None => opens.push(tag.to_string()),
        }
    }
    let ids: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.id.to_uppercase()).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate registry id");
    let ids: Vec<String> = ids.into_iter().collect();
    opens.sort();
    closes.sort();
    assert_eq!(opens, ids, "opening markers vs registry ids");
    assert_eq!(closes, ids, "closing markers vs registry ids");
    for exp in EXPERIMENTS {
        splice(&doc, exp.id, "").unwrap_or_else(|e| panic!("{}: {e}", exp.id));
    }
}
