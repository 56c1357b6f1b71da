//! Smoke self-test of the benchmark on small inputs: every workload emits
//! every metric `BENCHMARK.json` names, finite and with its unit, and a
//! corrupted golden makes the checks fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use rvliw::trace::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs the benchmark binary; returns its exit success and last line.
fn bench(root: &Path, work: &Path, args: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rvliw-perfbench"))
        .args(args)
        .args(["--size", "tiny", "--seconds", "0", "--root"])
        .arg(root)
        .arg("--work")
        .arg(work)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let report = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), report)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let root = repo_root();
    let work = scratch("metrics");
    for workload in [
        "paper-grid",
        "loop-sweep",
        "explore-approx",
        "paper-grid-counted",
    ] {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, report) = bench(
                &root,
                &work,
                &["--workload", workload, "--seed", "11", "--trace", trace],
            );
            let what = format!("{workload} --trace {trace}");
            assert!(ok, "{what}: exit status");
            assert!(
                matches!(report.get("correct"), Some(Json::Bool(true))),
                "{what}"
            );
            assert_eq!(
                report.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                report.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{what}"
            );
            let Some(Json::Obj(metrics)) = report.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            let wanted = declared(list);
            assert_eq!(metrics.len(), wanted.len(), "{what}: metric count");
            for (name, unit) in wanted {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{what}: {name} missing"));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{what}: {name} = {v}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
    }
}

#[test]
fn a_corrupted_golden_fails_the_checks() {
    let repo = repo_root();
    let root = scratch("corrupt-root");
    std::fs::create_dir_all(root.join("specs")).expect("specs dir");
    for f in ["specs/explore_rfu.json", "specs/explore_rfu_frontier.json"] {
        std::fs::copy(repo.join(f), root.join(f)).expect("copy spec");
    }
    let args = [
        "--workload",
        "explore-approx",
        "--seed",
        "0x46524d4e",
        "--trace",
        "0",
    ];
    let (ok, report) = bench(&root, &scratch("corrupt-work-a"), &args);
    assert!(ok, "intact golden passes");
    assert!(report.get("attempted").and_then(Json::as_u64) >= Some(1));

    let golden = root.join("specs/explore_rfu_frontier.json");
    let text = std::fs::read_to_string(&golden).expect("golden");
    let corrupted = text.replacen("\"me_cycles\": 9", "\"me_cycles\": 8", 1);
    assert_ne!(corrupted, text, "the golden has a cell to corrupt");
    std::fs::write(&golden, corrupted).expect("write corrupted golden");
    let (ok, report) = bench(&root, &scratch("corrupt-work-b"), &args);
    assert!(!ok, "a corrupted golden must fail the run");
    assert!(matches!(report.get("correct"), Some(Json::Bool(false))));
    assert!(report.get("failed").and_then(Json::as_u64) >= Some(1));
}
