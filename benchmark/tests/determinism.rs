//! Same seed, same everything: every workload runs twice at smoke scale
//! with one seed and must reproduce its verdict counts, retained-ADI
//! size, stream CRC and exported counters; another seed must give
//! another stream.

use std::collections::BTreeMap;
use std::path::PathBuf;

use msod_benchmark::metrics::PER_LAYER;
use msod_benchmark::traced::run_traced;
use msod_benchmark::workloads::{self, Kind, RunConfig, RunReport, Scale, WORKLOADS};

fn config(name: &str, seed: u64, tag: &str) -> RunConfig {
    let spec = workloads::spec_of(name).expect("known workload");
    RunConfig {
        spec,
        seed,
        seconds: 0.0,
        fixed_reps: Some(2),
        scale: Scale::smoke(spec.kind),
        // Tests run in parallel: a directory per run.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{tag}")),
    }
}

/// The exported counters that count work. Families that measure time
/// (or fire on it, like the flight recorder's latency trigger) differ
/// from run to run by nature.
fn work_counters(report: &RunReport) -> BTreeMap<String, f64> {
    report
        .counters
        .iter()
        .filter(|(name, _)| !name.contains("_ns") && !name.contains("flight"))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

#[test]
fn every_workload_repeats_exactly_for_one_seed() {
    for w in WORKLOADS {
        let a = workloads::run(&config(w.name, 7, "a"));
        let b = workloads::run(&config(w.name, 7, "b"));
        assert!(a.correct(), "{}: {:?}", w.name, a.problems);
        assert!(b.correct(), "{}: {:?}", w.name, b.problems);
        assert!(a.attempted > 0, "{}", w.name);
        assert_eq!(a.attempted, b.attempted, "{}", w.name);
        assert_eq!(a.stream_crc, b.stream_crc, "{}", w.name);
        assert_eq!(a.adi_records, b.adi_records, "{}", w.name);
        if w.kind != Kind::WorkflowMemPar2 {
            // With one driver thread the counts repeat exactly; two
            // threads interleave (lock acquisitions, probe sweeps).
            assert_eq!(work_counters(&a), work_counters(&b), "{}", w.name);
        }
        assert!(work_counters(&a).get("permis_decisions_total").is_some_and(|n| *n > 0.0));
        // Read after a fixed number of operations, so it repeats too.
        let journal = |r: &RunReport| {
            r.extra.iter().find(|m| m.name == "journal_bytes_per_record").map(|m| m.value)
        };
        assert_eq!(journal(&a), journal(&b), "{}", w.name);
        assert_eq!(journal(&a).is_some_and(|b| b > 0.0), w.kind == Kind::WorkflowDurable);

        let other = workloads::run(&config(w.name, 8, "c"));
        assert!(other.correct(), "{}: {:?}", w.name, other.problems);
        assert_ne!(a.stream_crc, other.stream_crc, "{}: another seed, another stream", w.name);
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_write_spans() {
    for name in ["workflow_mem", "workflow_durable", "wire_single", "wire_batch32"] {
        let cfg = config(name, 7, "traced");
        let report = run_traced(&cfg);
        assert!(report.correct(), "{name}: {:?}", report.problems);
        let names: Vec<&str> = report.per_layer.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{name}");
        let value = |metric: &str| {
            report.per_layer.iter().find(|m| m.name == metric).map(|m| m.value).expect("metric")
        };
        assert!(value("permis.decide_ns") > 0.0, "{name}");
        assert!(value("msod.enforce_grant_ns") > 0.0, "{name}");
        assert!(value("audit.append_grant_ns") > 0.0, "{name}");
        assert!(value("traced_decisions") > 0.0, "{name}");
        assert_eq!(value("failed_share"), 0.0, "{name}");
        assert_eq!(value("credential.rejected_total"), 0.0, "{name}");
        if name == "workflow_durable" {
            assert!(value("recover_s") > 0.0);
            assert!(value("journal_bytes_per_record") > 0.0);
        }
        if name.starts_with("wire") {
            assert!(value("net.requests_total") > 0.0, "{name}");
            assert!(value("net.rtt_overhead_ns") > 0.0, "{name}");
        }

        let spans = std::fs::read_to_string(cfg.out_dir.join(format!("trace-{name}.jsonl")))
            .expect("the traced run writes its span file");
        let first = msod_benchmark::json::Json::parse(spans.lines().next().expect("a span"))
            .expect("span lines are JSON");
        for key in ["id", "name", "request", "parent", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "{name}: span without {key}");
        }
        assert!(spans.lines().any(|l| l.contains("\"permis.decide")), "{name}: no parent span");
        assert!(
            spans.lines().any(|l| l.contains("\"msod.enforce_grant\"")),
            "{name}: no child span"
        );
    }
}
