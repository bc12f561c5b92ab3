//! Counting-allocator check that durability is a layer *under* the one
//! symbolized pipeline, not a slower sibling of it: a warm MSoD deny on
//! the journaled service (`open_persistent`) performs no more heap
//! allocations than the same deny on the in-memory symbolized service
//! (`new_symbolized`) — denies touch neither the journal nor a string
//! record.
//!
//! The allocator wrapper follows `crates/msod/tests/zero_alloc.rs`
//! (per-thread counts, so harness threads cannot pollute the window).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msod_rbac::msod::{RetainedAdi, RoleRef};
use msod_rbac::permis::{DecisionRequest, DecisionService};
use msod_rbac::policy::parse_rbac_policy;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// `try_with`: allocations during thread teardown are not counted
/// instead of aborting from inside the allocator.
fn count_one() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the only added
// work is a thread-local counter bump that itself never allocates.
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

/// Two policies sharing one `Branch=*, Period=!` scope. Every request
/// in this file fits the interning buffers, so none is denied at a
/// resource limit.
const POLICY: &str = r#"<RBACPolicy id="alloc" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="handleCash" target="till"/>
        <Privilege operation="audit" target="books"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn request(
    user: &str,
    role: &str,
    op: &str,
    target: &str,
    branch: &str,
    ts: u64,
) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::new("employee", role)],
        op,
        target,
        format!("Branch={branch}, Period=2006").parse().unwrap(),
        ts,
    )
}

/// Denied decides per measured window, and windows per service.
const WINDOW: u64 = 8;
const WINDOWS: u64 = 8;

/// The same script on either service: 64 tellers start the period
/// (grants, each committing a record), then alice — a teller at York —
/// is denied the audit at another branch, over and over. Returns the
/// *fewest* allocations any window of [`WINDOW`] denies made: the
/// observability layer allocates now and then on a timing-dependent
/// schedule (a new slowest-decide exemplar clones the subject, the
/// audit trail's vector doubles), which can only add to a window, so
/// the minimum is the deterministic cost of the decides themselves.
fn warm_deny_allocations<A: RetainedAdi + 'static>(svc: &DecisionService<A>) -> usize {
    for i in 0..64u64 {
        let user = format!("teller{i}");
        assert!(svc
            .decide(&request(&user, "Teller", "handleCash", "till", "Leeds", i))
            .is_granted());
    }
    assert!(svc
        .decide(&request("alice", "Teller", "handleCash", "till", "York", 100))
        .is_granted());
    let deny = request("alice", "Auditor", "audit", "books", "Hull", 101);
    // Warm: interner, audit scratch and trace ring have seen this
    // exact decision before the first window opens.
    for _ in 0..8 {
        assert!(!svc.decide(&deny).is_granted());
    }
    (0..WINDOWS)
        .map(|_| {
            allocations(|| {
                for _ in 0..WINDOW {
                    assert!(!svc.decide(&deny).is_granted());
                }
            })
        })
        .min()
        .expect("at least one window")
}

#[test]
fn durable_deny_allocates_no_more_than_in_memory_and_never_falls_back() {
    let dir = std::env::temp_dir().join(format!("msod-durable-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let in_memory =
        DecisionService::new_symbolized(parse_rbac_policy(POLICY).unwrap(), b"k".to_vec());
    let (durable, _) = DecisionService::open_persistent(
        parse_rbac_policy(POLICY).unwrap(),
        b"k".to_vec(),
        &dir,
        msod_rbac::msod::DEFAULT_SHARDS,
    )
    .unwrap();

    let mem_allocs = warm_deny_allocations(&in_memory);
    let durable_allocs = warm_deny_allocations(&durable);
    assert!(
        durable_allocs <= mem_allocs,
        "{WINDOW} warm durable denies allocated {durable_allocs} times, in memory {mem_allocs}"
    );
    assert_eq!(durable.adi().len(), in_memory.adi().len());
    assert_eq!(durable.adi().len(), 65, "denies retain nothing");

    // 64 + 1 grants and 72 denies per service, none over a limit.
    if msod_rbac::obs::enabled() {
        assert_eq!(durable.metrics().decisions.get(), 137);
        assert!(durable.metrics_text().contains("permis_reqbuf_overflow_total 0"));
    }
    durable.sync_adi().unwrap();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
