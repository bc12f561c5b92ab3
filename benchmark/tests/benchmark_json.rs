//! `BENCHMARK.json` at the repository root and the harness must name
//! the same workloads and metrics.

use msod_benchmark::json::Json;
use msod_benchmark::metrics::{END_TO_END, PER_LAYER};
use msod_benchmark::workloads::WORKLOADS;

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("entry has a name").to_owned())
        .collect()
}

#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");

    assert_eq!(names(&doc, "workloads"), WORKLOADS.map(|w| w.name.to_owned()));
    for (entry, w) in doc.get("workloads").and_then(Json::as_arr).unwrap().iter().zip(WORKLOADS) {
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why must be one short line",
            w.name
        );
    }

    assert_eq!(names(&doc, "end_to_end"), END_TO_END.map(|m| m.name.to_owned()));
    for (entry, m) in doc.get("end_to_end").and_then(Json::as_arr).unwrap().iter().zip(END_TO_END) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.better), "{}", m.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        assert!(m.bound <= 0.25, "{}", m.name);
    }

    assert_eq!(names(&doc, "per_layer"), PER_LAYER.map(|m| m.name.to_owned()));
    for (entry, m) in doc.get("per_layer").and_then(Json::as_arr).unwrap().iter().zip(PER_LAYER) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.better), "{}", m.name);
    }

    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}
