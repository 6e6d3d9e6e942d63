//! Self-tests of the benchmark: its `BENCHMARK.json` is well formed and
//! agrees with the code, and a tiny-budget smoke pass of every workload
//! finishes with no failed shard and a replay that reproduces the sweep.

use crate::workloads::Bench;
use crate::{measure_sweep, workloads, END_TO_END, PER_LAYER};
use th_sweep::json::Json;

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(list: &str) -> Vec<(String, Option<String>)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("every entry is named");
            (
                name.to_string(),
                m.get("unit").and_then(Json::as_str).map(str::to_string),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_has_exactly_the_required_keys() {
    let root = benchmark_json();
    let keys: Vec<&str> = root
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("a bound");
    let e2e = root.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!(e2e.iter().all(|m| (0.0..=0.25).contains(&bound(m))));
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    assert!(
        e2e.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut all = Vec::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for (name, _) in names(list) {
            assert!(ok(&name), "{list}: bad name {name:?}");
            all.push(name);
        }
    }
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");
}

#[test]
fn counts_stay_within_the_limits() {
    assert!((2..=8).contains(&names("workloads").len()));
    assert!((1..=16).contains(&names("end_to_end").len()));
    assert!((1..=128).contains(&names("per_layer").len()));
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let listed = |list: &str| -> Vec<(String, String)> {
        names(list)
            .into_iter()
            .map(|(n, u)| (n, u.expect("a unit")))
            .collect()
    };
    let code = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), code(&END_TO_END));
    assert_eq!(listed("per_layer"), code(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Bench::ALL.map(|b| b.name().to_string()));
}

#[test]
fn smoke_pass_of_every_workload_has_no_failures() {
    for bench in Bench::ALL {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{}",
            std::process::id(),
            bench.name()
        ));
        let s = workloads::setup(|| bench.smoke_spec(7, 3));
        let mut errors = Vec::new();
        let sweep = measure_sweep(bench, &s.spec, &s.pool, &dir, None, true, &mut errors)
            .expect("smoke sweep runs");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(sweep.shard_s.len(), 3, "{}", bench.name());
        assert_eq!(sweep.failed, 0, "{}: {errors:?}", bench.name());
        let layers = sweep.layers.expect("traced");
        assert!(layers.named_s() <= layers.wall_s);
        assert!(layers.work.committed > 0, "{}", bench.name());
    }
}
