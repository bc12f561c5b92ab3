//! Counting-allocator regression test: a warm symbolized decide —
//! request admission ([`msod::intern_request`]) plus enforcement
//! ([`msod::SymEngine::enforce_sharded`]) — performs **zero** heap
//! allocations for every decision that does not retain a new record:
//! not-applicable, deny, and grants outside every constraint.
//!
//! Committing a record necessarily allocates (the record's own role and
//! context vectors); that is asserted separately as a small constant,
//! so a regression that sneaks per-record clones back onto the commit
//! path also fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use context::ContextInstance;
use msod::{
    intern_request, sharded_sym_adi, EngineOptions, MatchedBuf, Mmer, MsodPolicy, MsodPolicySet,
    MsodRequest, ReqBufs, RoleRef, SymEngine, SymOutcome,
};
use symtab::SymbolTable;

/// Wraps the system allocator, counting every allocation made by the
/// **current thread**. The count must be per-thread, not process-wide:
/// the libtest harness's main thread blocks on an mpsc channel while
/// the test body runs on its own thread, and std's channel lazily
/// allocates its thread-local waiting context on the first blocking
/// receive — which can land anywhere inside the measured window. A
/// process-global counter intermittently charged that harness
/// allocation to the decide loop.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// `try_with` rather than `with`: allocations during thread teardown
/// (after this thread's TLS is gone) are simply not counted instead of
/// aborting the process from inside the allocator.
fn count_one() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> usize {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_decide_allocates_nothing() {
    let set =
        MsodPolicySet::new(vec![MsodPolicy::new(
            "Proc=!".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![RoleRef::new("e", "Teller"), RoleRef::new("e", "Auditor")], 2)
                .unwrap()],
            vec![],
        )
        .unwrap()]);
    let table = Arc::new(SymbolTable::new());
    let engine = SymEngine::compile(&set, &EngineOptions::default(), &table).unwrap();
    let adi = sharded_sym_adi(&table, 4);
    let mut bufs = ReqBufs::new();
    let mut matched = MatchedBuf::new();

    let ctx: ContextInstance = "Proc=7".parse().unwrap();
    let other: ContextInstance = "Dept=IT".parse().unwrap();
    let teller = [RoleRef::new("e", "Teller")];
    let auditor = [RoleRef::new("e", "Auditor")];
    let clerk = [RoleRef::new("e", "Clerk")];

    let decide = |engine: &SymEngine,
                  bufs: &mut ReqBufs,
                  matched: &mut MatchedBuf,
                  user: &str,
                  roles: &[RoleRef],
                  context: &ContextInstance,
                  ts: u64| {
        let req = MsodRequest { user, roles, operation: "op", target: "t", context, timestamp: ts };
        let sym_req = intern_request(&table, &req, bufs).expect("within fast-path bounds");
        engine.enforce_sharded(&adi, &sym_req, matched)
    };

    // Seed: alice takes Teller in Proc=7, so her Auditor request below
    // denies and the context is started for everyone. This cold pass
    // interns every identity and commits one record — allocations are
    // expected and not counted.
    let seeded = decide(&engine, &mut bufs, &mut matched, "alice", &teller, &ctx, 1);
    assert_eq!(
        seeded,
        SymOutcome::Grant { records_added: 1, records_consulted: 0, records_purged: 0 }
    );

    // Warm-up pass over each measured shape so lazy structures (shard
    // metrics, per-user slots) are in their steady state.
    for ts in 2..4 {
        assert!(matches!(
            decide(&engine, &mut bufs, &mut matched, "alice", &auditor, &ctx, ts),
            SymOutcome::Deny(_)
        ));
        assert_eq!(
            decide(&engine, &mut bufs, &mut matched, "alice", &clerk, &ctx, ts),
            SymOutcome::Grant { records_added: 0, records_consulted: 1, records_purged: 0 }
        );
        assert_eq!(
            decide(&engine, &mut bufs, &mut matched, "alice", &teller, &other, ts),
            SymOutcome::NotApplicable
        );
    }

    // The pinned property: warm decides allocate nothing.
    let n = allocations(|| {
        for ts in 10..110 {
            let deny = decide(&engine, &mut bufs, &mut matched, "alice", &auditor, &ctx, ts);
            assert!(matches!(deny, SymOutcome::Deny(_)));
            let grant = decide(&engine, &mut bufs, &mut matched, "alice", &clerk, &ctx, ts);
            assert_eq!(
                grant,
                SymOutcome::Grant { records_added: 0, records_consulted: 1, records_purged: 0 }
            );
            let na = decide(&engine, &mut bufs, &mut matched, "alice", &teller, &other, ts);
            assert_eq!(na, SymOutcome::NotApplicable);
        }
    });
    assert_eq!(n, 0, "warm decide must not allocate, saw {n} allocations over 300 decides");

    // A record-retaining grant allocates only the record's own storage
    // (roles vec, context vec, slot bookkeeping) — a bounded handful,
    // not per-history-record churn. Intern bob first so the probe
    // measures the commit, not first-sight interning.
    assert_eq!(
        decide(&engine, &mut bufs, &mut matched, "bob", &teller, &other, 199),
        SymOutcome::NotApplicable
    );
    let n = allocations(|| {
        let d = decide(&engine, &mut bufs, &mut matched, "bob", &teller, &ctx, 200);
        assert_eq!(
            d,
            SymOutcome::Grant { records_added: 1, records_consulted: 0, records_purged: 0 }
        );
    });
    assert!(n <= 16, "record commit should allocate O(1) blocks, saw {n}");
}
