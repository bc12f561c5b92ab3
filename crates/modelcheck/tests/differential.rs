//! The randomized differential conformance sweep, run in CI.
//!
//! Every seed generates one workload (policies + operation sequence)
//! and replays it through all four engine variants — the persistent
//! backend, a mid-sequence crash-reopen variant (which on alternating
//! power cuts reopens a journal downgraded to string-era v1 frames,
//! covering the frame-format migration), the symbolized interned fast
//! path, and that path behind the wire protocol — asserting
//! verdict-for-verdict and retained-ADI-state equivalence against the
//! naive spec oracle.
//!
//! Knobs (mirroring the crash-sim suite):
//!
//! * `MODELCHECK_SEED`  — base seed for the randomized batch; CI sets
//!   a fresh one per run and echoes it, so a red run reproduces with
//!   `MODELCHECK_SEED=<n> cargo test -p modelcheck --test differential`.
//! * `MODELCHECK_SCALE` — seeds per sweep (default 1000).

use modelcheck::{catch_mutation, check_seed, Mutation};

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.parse().ok()
}

fn scale() -> u64 {
    env_u64("MODELCHECK_SCALE").unwrap_or(1_000)
}

/// The fixed corpus: seeds 0..SCALE plus every hand-pinned seed from
/// the committed corpus file. Identical on every CI run.
#[test]
fn fixed_corpus_conforms() {
    for seed in 0..scale() {
        if let Err(report) = check_seed(seed) {
            panic!("{report}");
        }
    }
    for line in include_str!("../corpus/seeds.txt").lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let seed: u64 = line.parse().expect("corpus line is a u64 seed");
        if let Err(report) = check_seed(seed) {
            panic!("corpus {report}");
        }
    }
}

/// The randomized batch: a fresh base seed per CI run, echoed in the
/// log by the workflow so failures replay exactly.
#[test]
fn randomized_batch_conforms() {
    let base = env_u64("MODELCHECK_SEED").unwrap_or(0xD1FF);
    // Spread far from the fixed corpus range.
    let base = base.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..scale() {
        let seed = base.wrapping_add(i);
        if let Err(report) = check_seed(seed) {
            panic!("MODELCHECK_SEED batch: {report}");
        }
    }
}

/// Prove the harness has teeth: each injected semantic mutation must
/// be caught on some seed and shrink to a tiny repro (the acceptance
/// bar is <= 10 operations).
#[test]
fn injected_mutations_are_caught_and_shrunk() {
    for mutation in [
        Mutation::MmerThresholdOffByOne,
        Mutation::SkipLastStepPurge,
        Mutation::MmepDuplicateCollapse,
    ] {
        let mut caught = false;
        for seed in 0..400 {
            if let Some((small, divergence)) = catch_mutation(seed, mutation) {
                assert!(
                    small.ops.len() <= 10,
                    "{mutation:?}: shrink left {} ops:\n{}\n{divergence}",
                    small.ops.len(),
                    small.to_script(),
                );
                caught = true;
                break;
            }
        }
        assert!(caught, "{mutation:?} was never caught in 400 seeds — the harness is blind to it");
    }
}
