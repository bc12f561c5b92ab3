//! Executable MSoD spec oracle + randomized differential conformance
//! harness.
//!
//! Four pieces:
//!
//! * [`oracle`] — a deliberately naive, ~linear-scan implementation of
//!   the paper's §4.2 enforcement algorithm (MMER, MMEP, BC-instance
//!   binding, purge-on-last-step) with no caching, sharding or
//!   persistence. Slow on purpose; readable against the paper.
//! * [`gen`] — seeded generation of random-but-valid policy sets and
//!   operation sequences ([`generate`]).
//! * [`diff`] — the differential driver: replays one workload through
//!   every engine variant (the `DecisionService` over the reference
//!   `MemoryAdi`, the persistent backend, a mid-sequence crash-reopen
//!   variant, the symbolized store, and the symbolized service behind
//!   the wire protocol) and checks each verdict and the retained ADI
//!   state against the oracle ([`run_workload`]).
//! * [`shrink`](mod@shrink)/[`script`] — when a divergence is found, delta-debug it
//!   to a locally-minimal workload and print it as a ready-to-paste
//!   regression test ([`report`]).
//!
//! Entry point for tests and CI: [`check_seed`].

#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod script;
pub mod shrink;

pub use diff::{
    oracle_trace, project, run_workload, run_workload_with, wrap_policy, Divergence, OracleTrace,
};
pub use gen::{generate, role_pool, Op, Workload, ROLE_TYPE};
pub use oracle::{sort_snapshot, Mutation, Oracle, OracleRequest, Verdict};
pub use script::regression_test;
pub use shrink::{ddmin_list, shrink, shrink_with_budget, DEFAULT_BUDGET};

/// Shrink a diverging workload (under `mutation`) and render a full
/// report: the divergence, the minimized script, and a ready-to-paste
/// regression test.
pub fn report(seed: u64, w: &Workload, mutation: Mutation) -> String {
    let diverges = |w: &Workload| run_workload_with(w, mutation).is_some();
    let small = shrink(w, &diverges);
    let d = run_workload_with(&small, mutation).expect("shrink preserves divergence");
    format!(
        "seed {seed}: divergence from the spec oracle\n{d}\n\n\
         minimized workload ({} ops, {} policies):\n{}\n{}",
        small.ops.len(),
        small.policies.len(),
        small.to_script(),
        regression_test(&format!("regression_seed_{seed}"), &small, &d),
    )
}

/// Run one seed through every engine variant; on divergence, shrink it
/// and return the full report as `Err`.
pub fn check_seed(seed: u64) -> Result<(), String> {
    let w = generate(seed);
    match run_workload(&w) {
        None => Ok(()),
        Some(_) => Err(report(seed, &w, Mutation::None)),
    }
}

/// Like [`check_seed`] but with a semantic mutation injected into the
/// oracle — used to prove the harness catches (and can minimize) real
/// divergences. Returns the shrunk workload and its divergence, or
/// `None` if this seed never exposes the mutation.
pub fn catch_mutation(seed: u64, mutation: Mutation) -> Option<(Workload, Divergence)> {
    let w = generate(seed);
    run_workload_with(&w, mutation)?;
    let diverges = |w: &Workload| run_workload_with(w, mutation).is_some();
    let small = shrink(&w, &diverges);
    let d = run_workload_with(&small, mutation).expect("shrink preserves divergence");
    Some((small, d))
}
