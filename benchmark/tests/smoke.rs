//! Every workload at 1/20 length, untraced and traced, through the `bench`
//! binary: output checks pass, and each run's last line carries exactly
//! the metrics `BENCHMARK.json` promises.

use std::path::{Path, PathBuf};
use std::process::Command;
use vdsms_json::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

/// The released daemon, built first if it is not there yet.
fn daemon(target: &Path) -> PathBuf {
    let binary = target.join("release/vdsms");
    if !binary.exists() {
        let built = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "-p", "vdsms-cli"])
            .env("CARGO_TARGET_DIR", target)
            .current_dir(root())
            .status()
            .unwrap();
        assert!(built.success(), "building the vdsms daemon failed");
    }
    binary
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    let listed = spec.get(key).and_then(Json::as_arr).unwrap();
    listed.iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
}

#[test]
fn quick_run_of_every_workload_passes_its_checks() {
    let bench = Path::new(env!("CARGO_BIN_EXE_bench"));
    // <target>/<profile>/bench
    let target = bench.parent().and_then(Path::parent).unwrap();
    let spec =
        Json::parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap()).unwrap();
    let run = Command::new(bench)
        .args(["run", "--quick", "--seed", "2008"])
        .env("VDSMS_DAEMON", daemon(target))
        .env("CARGO_TARGET_DIR", target)
        .output()
        .unwrap();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "bench run --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // Runs come in order: each workload untraced, then traced.
    let results: Vec<Json> =
        stdout.lines().filter(|l| l.starts_with('{')).map(|l| Json::parse(l).unwrap()).collect();
    let workloads = names(&spec, "workloads");
    assert_eq!(results.len(), 2 * workloads.len(), "{stdout}");
    for (i, result) in results.iter().enumerate() {
        let what = format!("{} trace {}", workloads[i / 2], i % 2);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{what}");
        assert_eq!(result.get("failed").and_then(Json::as_usize), Some(0), "{what}");
        assert!(result.get("attempted").and_then(Json::as_usize).unwrap() >= 1, "{what}");
        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{what}: no metrics") };
        let got: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(
            got,
            names(&spec, if i % 2 == 0 { "end_to_end" } else { "per_layer" }),
            "{what}"
        );
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite(), "{what}: {name}");
            assert!(i % 2 == 1 || value > 0.0, "{what}: end-to-end {name} must never be 0");
        }
    }
    for w in &workloads {
        assert!(
            root().join(format!("benchmark/out/trace-{w}.json")).exists(),
            "{w}: no trace written"
        );
    }
}
