//! A seeded load generator for the networked decision plane.
//!
//! Deterministic by construction: a fixed seed drives a splitmix64
//! stream and a hand-rolled Zipf sampler (no external RNG crates), so
//! a run is reproducible bit-for-bit given the same seed, scale and
//! thread count. Traffic is a realistic mix — Zipf-distributed users
//! (a few users dominate, as §4's audit trails do), two roles whose
//! MMER collision produces organic denies, and a 1-in-256 sprinkle of
//! authorized purges through the management port.
//!
//! Two loop disciplines:
//!
//! * **closed** — each client thread keeps exactly one request (or one
//!   batch) in flight; throughput is the service-rate measurement.
//! * **open** — requests are paced on a fixed schedule regardless of
//!   completions; the report counts how many fell behind schedule
//!   (lateness is the overload signal a closed loop hides).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};

use crate::client::NetClient;
use crate::server::{NetConfig, NetServer};

/// The policy the generator (and `msod-cli serve --builtin`) loads: a
/// two-role MMER over per-project contexts plus the §4.3 management
/// role, mirroring the repo's canonical test policy.
pub const BUILTIN_POLICY: &str = r#"<RBACPolicy id="loadgen" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="http://vo/resource">
      <AllowedRole value="Member"/>
      <AllowedRole value="Reviewer"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Project=!">
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="Member"/>
        <Role type="permisRole" value="Reviewer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// splitmix64: the standard 64-bit mixing stream. Tiny, seedable,
/// and plenty for load shaping.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over `{0, …, n-1}` via inverse transform on a
/// precomputed cumulative harmonic table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n.max(1) {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// RNG seed (echoed into the report).
    pub seed: u64,
    /// Requests per closed-loop thread (and total for the open loop).
    pub requests: usize,
    /// Closed-loop client threads.
    pub threads: usize,
    /// Requests per `DecideBatch` frame; 1 sends plain `Decide`.
    pub batch: usize,
    /// Distinct users (Zipf 1.1 across them).
    pub users: usize,
    /// Distinct projects (uniform).
    pub projects: usize,
    /// Open-loop target rate, requests/second; 0 skips the open loop.
    pub open_rate: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 0xB7B7_0001,
            requests: 2_000,
            threads: 4,
            batch: 1,
            users: 1_000,
            projects: 64,
            open_rate: 2_000,
        }
    }
}

/// One loop's outcome.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Requests completed.
    pub requests: u64,
    /// Grants observed.
    pub grants: u64,
    /// Denies observed.
    pub denies: u64,
    /// Purge management calls made.
    pub purges: u64,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Requests per second.
    pub rps: f64,
    /// Latency quantiles in microseconds: p50, p95, p99.
    pub p50_us: u64,
    /// p95.
    pub p95_us: u64,
    /// p99.
    pub p99_us: u64,
    /// Open loop only: requests that missed their schedule slot.
    pub late: u64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn finish_loop(
    requests: u64,
    grants: u64,
    denies: u64,
    purges: u64,
    elapsed: Duration,
    mut lat_us: Vec<u64>,
    late: u64,
) -> LoopReport {
    lat_us.sort_unstable();
    let secs = elapsed.as_secs_f64().max(1e-9);
    LoopReport {
        requests,
        grants,
        denies,
        purges,
        elapsed_s: secs,
        rps: requests as f64 / secs,
        p50_us: quantile(&lat_us, 0.50),
        p95_us: quantile(&lat_us, 0.95),
        p99_us: quantile(&lat_us, 0.99),
        late,
    }
}

/// Admin identity the purge traffic authenticates as (authorized by
/// [`BUILTIN_POLICY`]'s management rule).
fn admin_roles() -> Vec<RoleRef> {
    vec![RoleRef::permis("RetainedADIController")]
}

struct TrafficShape {
    zipf: Zipf,
    users: usize,
    projects: usize,
}

impl TrafficShape {
    fn new(cfg: &LoadgenConfig) -> TrafficShape {
        TrafficShape { zipf: Zipf::new(cfg.users, 1.1), users: cfg.users, projects: cfg.projects }
    }

    /// The next request in a thread's deterministic stream.
    fn next_request(&self, rng: &mut SplitMix64, clock: &AtomicU64) -> DecisionRequest {
        let user = self.zipf.sample(rng) % self.users.max(1);
        let role = if rng.below(2) == 0 { "Member" } else { "Reviewer" };
        let project = rng.below(self.projects.max(1) as u64);
        let ts = clock.fetch_add(1, Ordering::Relaxed);
        DecisionRequest::with_roles(
            format!("u{user}"),
            vec![RoleRef::permis(role)],
            "work",
            "http://vo/resource",
            context::ContextInstance::from_pairs(vec![(
                "Project".to_owned(),
                format!("p{project}"),
            )])
            .expect("loadgen context is well-formed"),
            ts,
        )
    }
}

/// Run the closed loop against `addr`: `threads` clients, each keeping
/// one request (or one `batch`-sized frame) in flight for
/// `cfg.requests` requests.
pub fn run_closed(addr: &str, cfg: &LoadgenConfig) -> Result<LoopReport, crate::NetError> {
    let shape = Arc::new(TrafficShape::new(cfg));
    let clock = Arc::new(AtomicU64::new(1));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..cfg.threads.max(1) {
        let addr = addr.to_owned();
        let shape = Arc::clone(&shape);
        let clock = Arc::clone(&clock);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || -> Result<_, crate::NetError> {
            let mut client = NetClient::connect(&addr)?;
            let mut rng =
                SplitMix64(cfg.seed ^ (0x517C_C1B7 + t as u64).wrapping_mul(0x2545F4914F6CDD1D));
            let mut lat = Vec::with_capacity(cfg.requests);
            let (mut grants, mut denies, mut purges) = (0u64, 0u64, 0u64);
            let mut done = 0usize;
            while done < cfg.requests {
                // 1-in-256: exercise the management port with a purge
                // of one project scope.
                if rng.below(256) == 0 {
                    let scope = format!("Project=p{}", rng.below(cfg.projects.max(1) as u64));
                    let ts = clock.fetch_add(1, Ordering::Relaxed);
                    client.purge_context("cn=loadgen-admin", &admin_roles(), &scope, ts)?;
                    purges += 1;
                }
                let n = cfg.batch.max(1).min(cfg.requests - done);
                let reqs: Vec<DecisionRequest> =
                    (0..n).map(|_| shape.next_request(&mut rng, &clock)).collect();
                let t0 = Instant::now();
                let verdicts = if n == 1 {
                    vec![client.decide(&reqs[0])?]
                } else {
                    client.decide_batch(&reqs)?
                };
                let us = (t0.elapsed().as_micros() as u64).max(1);
                for _ in 0..n {
                    lat.push(us / n as u64);
                }
                for v in &verdicts {
                    match v {
                        crate::WireVerdict::NotApplicable | crate::WireVerdict::Grant { .. } => {
                            grants += 1
                        }
                        _ => denies += 1,
                    }
                }
                done += n;
            }
            Ok((done as u64, grants, denies, purges, lat))
        }));
    }
    let (mut requests, mut grants, mut denies, mut purges) = (0u64, 0u64, 0u64, 0u64);
    let mut lat = Vec::new();
    for h in handles {
        let (r, g, d, p, l) = h.join().expect("loadgen thread")?;
        requests += r;
        grants += g;
        denies += d;
        purges += p;
        lat.extend(l);
    }
    Ok(finish_loop(requests, grants, denies, purges, started.elapsed(), lat, 0))
}

/// Run the open loop: one client paced at `cfg.open_rate` requests per
/// second for `cfg.requests` requests, counting schedule misses.
pub fn run_open(addr: &str, cfg: &LoadgenConfig) -> Result<LoopReport, crate::NetError> {
    let shape = TrafficShape::new(cfg);
    let clock = AtomicU64::new(1_000_000_000);
    let mut client = NetClient::connect(addr)?;
    let mut rng = SplitMix64(cfg.seed ^ 0x0BEB_5EED);
    let period = Duration::from_nanos(1_000_000_000 / cfg.open_rate.max(1));
    let started = Instant::now();
    let mut lat = Vec::with_capacity(cfg.requests);
    let (mut grants, mut denies, mut late) = (0u64, 0u64, 0u64);
    for i in 0..cfg.requests {
        let due = period * i as u32;
        let now = started.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        } else if now > due + period {
            // Missed the slot by more than a full period: the server
            // (or this client) is not keeping up with the offered rate.
            late += 1;
        }
        let req = shape.next_request(&mut rng, &clock);
        let t0 = Instant::now();
        let v = client.decide(&req)?;
        lat.push((t0.elapsed().as_micros() as u64).max(1));
        match v {
            crate::WireVerdict::NotApplicable | crate::WireVerdict::Grant { .. } => grants += 1,
            _ => denies += 1,
        }
    }
    Ok(finish_loop(cfg.requests as u64, grants, denies, 0, started.elapsed(), lat, late))
}

/// Spin an in-process server on an ephemeral loopback port, run both
/// loops, and shut it down. The one-stop entry for CI smoke and
/// `msod-cli loadgen --local`.
pub fn run_local(cfg: &LoadgenConfig) -> Result<(LoopReport, Option<LoopReport>), crate::NetError> {
    let svc = Arc::new(
        DecisionService::from_xml_symbolized(BUILTIN_POLICY, b"loadgen".to_vec())
            .expect("builtin policy parses"),
    );
    let server = NetServer::bind("127.0.0.1:0", svc, NetConfig::default())?;
    let addr = server.local_addr().to_string();
    let closed = run_closed(&addr, cfg)?;
    let open = if cfg.open_rate > 0 { Some(run_open(&addr, cfg)?) } else { None };
    drop(server);
    Ok((closed, open))
}

/// Render one loop's report as a JSON object fragment.
pub fn loop_json(r: &LoopReport) -> String {
    format!(
        "{{\"requests\":{},\"grants\":{},\"denies\":{},\"purges\":{},\"elapsed_s\":{:.4},\"rps\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"late\":{}}}",
        r.requests, r.grants, r.denies, r.purges, r.elapsed_s, r.rps, r.p50_us, r.p95_us, r.p99_us, r.late
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = SplitMix64(7);
        let mut head = 0usize;
        for _ in 0..1000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top 10% of ranks should draw well over half the mass.
        assert!(head > 500, "only {head}/1000 samples in the head");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
