//! E9 — the retained-ADI backend ablation: the paper's shipped design
//! (in-memory ADI + audit-trail replay at start-up) vs. its announced
//! next implementation (a durable store, our `storage::PersistentAdi`).
//!
//! Expected shape: per-decision, memory wins slightly (no journaling —
//! both rows run the symbolized `DecisionService`, in memory and opened
//! durable, so the gap is one buffered journal frame per grant plus the
//! closing fsync); at start-up, the journal-backed store wins
//! increasingly with history because compaction bounds its replay,
//! while trail replay scales with total decisions ever made.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msod::{MemoryAdi, RetainedAdi};
use permis::{DecisionService, Pdp};
use storage::PersistentAdi;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

fn cfg(requests: usize) -> WorkloadConfig {
    WorkloadConfig { users: 50, contexts: 10, role_pairs: 4, requests, terminate_percent: 5 }
}

fn per_decision_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("adi_backend/per_decision");
    group.sample_size(20);
    let cfg = cfg(500);
    let policy_xml = workload_policy_xml(&cfg);
    let requests = gen_requests(&cfg, 3);

    // Both sides run the one symbolized pipeline through the real
    // constructors; the only difference is the journal under it, so the
    // gap between the two rows *is* the durability overhead. One shard
    // each, so the durable row closes with one fsync, not sixteen.
    group.bench_function("memory", |b| {
        b.iter_batched(
            || {
                let p = policy::parse_rbac_policy(&policy_xml).unwrap();
                DecisionService::symbolized_with_shard_count(p, b"k".to_vec(), 1)
            },
            |svc| {
                for req in &requests {
                    svc.decide(req);
                }
                svc
            },
            criterion::BatchSize::LargeInput,
        )
    });

    let dir = std::env::temp_dir().join(format!("bench-adi-dec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let counter = std::cell::Cell::new(0u64);
    group.bench_function("persistent", |b| {
        b.iter_batched(
            || {
                counter.set(counter.get() + 1);
                let data_dir = dir.join(format!("adi-{}", counter.get()));
                let p = policy::parse_rbac_policy(&policy_xml).unwrap();
                let (svc, _) =
                    DecisionService::open_persistent(p, b"k".to_vec(), data_dir, 1).unwrap();
                svc
            },
            |svc| {
                for req in &requests {
                    svc.decide(req);
                }
                svc.sync_adi().unwrap();
                svc
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn startup_cost(c: &mut Criterion) {
    // Compare rebuilding MSoD state after a restart:
    // (a) trail replay into MemoryAdi (paper's design),
    // (b) journal replay by PersistentAdi::open (with compaction).
    let mut group = c.benchmark_group("adi_backend/startup");
    group.sample_size(10);
    for total_decisions in [2_000usize, 10_000] {
        let cfg = cfg(total_decisions);
        let policy_xml = workload_policy_xml(&cfg);
        let requests = gen_requests(&cfg, 9);

        // (a) Build the audit-trail store.
        let dir = std::env::temp_dir()
            .join(format!("bench-adi-start-{}-{total_decisions}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut pdp = Pdp::from_xml(&policy_xml, b"k".to_vec()).unwrap();
            pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
            for req in &requests {
                pdp.decide(req);
            }
            pdp.rotate_and_persist().unwrap();
        }
        // (b) Build the persistent journal.
        let jpath = dir.join("adi.journal");
        {
            let p = policy::parse_rbac_policy(&policy_xml).unwrap();
            let mut pdp = Pdp::with_adi(p, b"k".to_vec(), PersistentAdi::open(&jpath).unwrap());
            for req in &requests {
                pdp.decide(req);
            }
            pdp.adi_backend_mut().compact().unwrap();
            pdp.adi_backend_mut().sync().unwrap();
        }

        group.bench_with_input(
            BenchmarkId::new("trail_replay", total_decisions),
            &total_decisions,
            |b, _| {
                b.iter(|| {
                    let mut pdp = Pdp::from_xml(&policy_xml, b"k".to_vec()).unwrap();
                    pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
                    pdp.recover(usize::MAX, 0).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("journal_open", total_decisions),
            &total_decisions,
            |b, _| {
                b.iter(|| {
                    let adi = PersistentAdi::open(&jpath).unwrap();
                    assert!(!adi.is_empty() || adi.is_empty());
                    adi.len()
                })
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn raw_store_ops(c: &mut Criterion) {
    // Microbenchmarks of the two RetainedAdi implementations directly.
    let ctx: context::ContextInstance = "Proc=1".parse().unwrap();
    let name: context::ContextName = "Proc=!".parse().unwrap();
    let bound = name.bind(&ctx).unwrap();
    let rec = msod::AdiRecord {
        user: "u".into(),
        roles: vec![msod::RoleRef::new("e", "r")],
        operation: "op".into(),
        target: "t".into(),
        context: ctx.clone(),
        timestamp: 1,
    };
    let mut group = c.benchmark_group("adi_backend/raw_ops");
    group.bench_function("memory_add", |b| {
        b.iter_batched(
            MemoryAdi::new,
            |mut adi| {
                adi.add(rec.clone());
                adi
            },
            criterion::BatchSize::SmallInput,
        )
    });
    let mut seeded = MemoryAdi::new();
    for i in 0..10_000 {
        let mut r = rec.clone();
        r.user = format!("u{}", i % 100);
        r.timestamp = i;
        seeded.add(r);
    }
    group.bench_function("memory_user_lookup_10k", |b| {
        b.iter(|| seeded.user_records("u50", &bound).len())
    });
    group.bench_function("memory_context_active_10k", |b| b.iter(|| seeded.context_active(&bound)));
    group.finish();
}

criterion_group!(benches, per_decision_overhead, startup_cost, raw_store_ops);
criterion_main!(benches);
