//! Seeded request streams and the shadow model that knows every
//! expected verdict.
//!
//! The program under test only ever sees the generated requests; the
//! generator keeps, per live context instance, who did what, which is
//! all §4.2 needs to predict grant / deny / purge counts on the `bank`
//! fixture (see `fixture.rs` for why instances are independent). The
//! model is pinned to the paper-transcribed oracle by
//! `tests/oracle.rs`.

use std::collections::VecDeque;

use context::{BoundContext, ContextInstance};
use credential::Authority;
use msod::AdiRecord;
use permis::{Credentials, DecisionRequest};

use crate::fixture::{
    self, role, BRANCHES, DEPTS, MMEP_TEMPLATES, MMER_TEMPLATES, REFUND_STEPS, TAX_OFFICES,
};

/// splitmix64 — small, seedable, and good enough to pick workload items.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Checksum of the generated stream, echoed into the output so two
/// runs can prove they saw the same requests: the program's own CRC-32
/// (`storage::crc32`), chained — each fold covers the previous value
/// and the new fields.
#[derive(Debug, Clone, Default)]
pub struct StreamCrc {
    value: u32,
    scratch: Vec<u8>,
}

impl StreamCrc {
    /// Fold the fields of one generated item in.
    pub fn fold(&mut self, fields: &[&[u8]]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.value.to_le_bytes());
        for field in fields {
            self.scratch.extend_from_slice(field);
            self.scratch.push(0);
        }
        self.value = storage::crc32(&self.scratch);
    }

    /// The checksum so far.
    pub fn value(&self) -> u32 {
        self.value
    }
}

/// Operation classes of the streams. Latency is reported per class so
/// that a gain on one path that costs another shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// MSoD-matched grant that commits a record (first-time step or
    /// same-role repeat).
    Grant,
    /// MSoD deny (conflicting role / privilege).
    Deny,
    /// Not-applicable grant: `Dept` context, no MSoD policy matches.
    Na,
    /// RBAC deny: role not allowed for the operation.
    Rbac,
    /// Last-step grant, including the purge of its context instance.
    LastStep,
    /// Authorised `manage(PurgeContext)` through the §4.3 port.
    Manage,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] =
        [Class::Grant, Class::Deny, Class::Na, Class::Rbac, Class::LastStep, Class::Manage];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Grant => "grant",
            Class::Deny => "deny",
            Class::Na => "na",
            Class::Rbac => "rbac",
            Class::LastStep => "laststep",
            Class::Manage => "manage",
        }
    }
}

/// What the shadow model expects the program to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// MSoD-matched grant; exactly one record committed, nothing purged.
    GrantRecord,
    /// Grant with no MSoD policy applicable.
    Na,
    /// Denied by an MMER/MMEP constraint.
    MsodDeny,
    /// Denied by the RBAC target-access check.
    RbacDeny,
    /// Last step: grant, `added` records committed, then the one bound
    /// context terminated and `purged` records removed.
    LastStep {
        /// Records committed before the purge (0 or 1).
        added: u32,
        /// Records removed by the termination.
        purged: u32,
    },
    /// Management purge removed `purged` records.
    Managed {
        /// Records removed.
        purged: u32,
    },
}

/// The call an operation makes.
#[derive(Debug, Clone)]
pub enum Call {
    /// `decide` (or one slot of `decide_many` / a wire frame).
    Decide(DecisionRequest),
    /// `manage(PurgeContext(bound))` as the fixture's administrator.
    Manage {
        /// The scope in display form (what the wire carries).
        scope: String,
        /// The parsed scope (what the in-process call takes).
        bound: BoundContext,
        /// Request time.
        timestamp: u64,
    },
}

/// One generated operation with its expected verdict.
#[derive(Debug, Clone)]
pub struct Op {
    /// Latency class.
    pub class: Class,
    /// Expected verdict.
    pub expect: Expect,
    /// The call to make.
    pub call: Call,
}

/// Weights of the randomly drawn classes of the `workflow` stream.
/// Last steps and management purges are not drawn but scheduled (every
/// [`LAST_EVERY`]-th and every [`MANAGE_EVERY`]-th operation), so the
/// number of instances retired in a window is exact and the retained
/// ADI stays within a fraction of a percent of its preload; of all
/// operations the shares come to about 49% first-time steps, 8%
/// repeats, 20% conflicts, 15% not-applicable, 5% RBAC denies and 2%
/// last steps — none near the 1% where p99 sits.
const FIRST_W: usize = 50;
const REPEAT_W: usize = 8;
const CONFLICT_W: usize = 20;
const NA_W: usize = 15;
const RBAC_W: usize = 5;
const DRAWN_W: usize = FIRST_W + REPEAT_W + CONFLICT_W + NA_W + RBAC_W;
/// One operation in this many is the last step of the oldest instance.
pub const LAST_EVERY: u64 = 50;
/// One operation in this many is an authorised management purge. A
/// multiple of the wire batch size, so batches never straddle one.
pub const MANAGE_EVERY: u64 = 2048;
/// Preload records are generated, and handed over for loading, this
/// many at a time: the harness never holds the whole preload, so the
/// peak resident set of a run is the program's, not the generator's.
pub const PRELOAD_BATCH: usize = 4096;

/// Hands the generated preload over in batches of [`PRELOAD_BATCH`].
struct Batcher<'a> {
    batch: Vec<AdiRecord>,
    sink: &'a mut dyn FnMut(Vec<AdiRecord>),
}

impl<'a> Batcher<'a> {
    fn new(sink: &'a mut dyn FnMut(Vec<AdiRecord>)) -> Self {
        Batcher { batch: Vec::with_capacity(PRELOAD_BATCH), sink }
    }

    fn push(&mut self, rec: AdiRecord) {
        self.batch.push(rec);
        if self.batch.len() == PRELOAD_BATCH {
            (self.sink)(std::mem::replace(&mut self.batch, Vec::with_capacity(PRELOAD_BATCH)));
        }
    }

    fn finish(self) {
        if !self.batch.is_empty() {
            (self.sink)(self.batch);
        }
    }
}

/// Records an MMER and an MMEP instance hold when they are retired,
/// in steady state: the records an instance gains per operation times
/// the operations it lives through. Instances are picked uniformly
/// for first-time steps; repeats go to MMER instances only, which are
/// two thirds of all instances.
fn records_at_retirement() -> (f64, f64) {
    // Both schedules hit an operation once per common period.
    let period = (LAST_EVERY * MANAGE_EVERY / 2) as f64;
    let retired = period / LAST_EVERY as f64 + period / MANAGE_EVERY as f64 - 1.0;
    let drawn = (period - retired) / DRAWN_W as f64;
    let mmer_share = MMER_TEMPLATES as f64 / (MMER_TEMPLATES + MMEP_TEMPLATES) as f64;
    (
        (FIRST_W as f64 + REPEAT_W as f64 / mmer_share) * drawn / retired,
        FIRST_W as f64 * drawn / retired,
    )
}

/// One live context instance of the shadow model.
#[derive(Debug, Clone)]
struct Instance {
    /// `0..16` MMER templates, `16..24` MMEP templates.
    template: u8,
    /// The template-specific `Period` / `Refund` value.
    value: String,
    /// Tax office (MMEP instances only).
    office: u16,
    /// One entry per retained record: `(user, what)` — for MMER `what`
    /// is 0 = Teller, 1 = Auditor; for MMEP the refund step.
    history: Vec<(u32, u8)>,
}

impl Instance {
    fn is_mmer(&self) -> bool {
        usize::from(self.template) < MMER_TEMPLATES
    }

    fn has_user(&self, user: u32) -> bool {
        self.history.iter().any(|&(u, _)| u == user)
    }

    /// The bound scope a last step or a management purge terminates.
    fn scope(&self) -> String {
        if self.is_mmer() {
            format!("Branch=*, Period={}", self.value)
        } else {
            format!("TaxOffice=T{:02}, Refund={}", self.office, self.value)
        }
    }
}

/// Generator of the `workflow` stream: walks live context instances
/// through their steps, keeping the retained ADI stationary.
#[derive(Debug)]
pub struct WorkflowStream {
    rng: Rng,
    /// Name prefix separating the users and instances of parallel
    /// driver threads (`workflow_mem_par2`); empty for one driver.
    lane: String,
    users: u32,
    /// One request in this many carries `Credentials::Push`; 0 = none
    /// (the wire protocol carries pre-validated roles only).
    push_every: u64,
    authority: Authority,
    live: VecDeque<Instance>,
    next_number: [u32; MMER_TEMPLATES + MMEP_TEMPLATES],
    /// Operations generated by [`WorkflowStream::next_op`] (the preload
    /// does not count: management purges fall on multiples of
    /// [`MANAGE_EVERY`] from the first operation on).
    ops: u64,
    /// Request time: one tick per generated request, preload included.
    clock: u64,
    records: u64,
    /// Records ever committed, preload included (purges do not count).
    committed: u64,
    crc: StreamCrc,
}

impl WorkflowStream {
    /// Stream for `seed`. `lane` separates parallel drivers.
    pub fn new(seed: u64, lane: &str, users: u32, push_every: u64) -> Self {
        WorkflowStream {
            rng: Rng::new(seed ^ 0x5EED_0FB7_B7B7),
            lane: lane.to_owned(),
            users,
            push_every,
            authority: Authority::new(fixture::SOA_DN, fixture::SOA_KEY.to_vec()),
            live: VecDeque::new(),
            next_number: [0; MMER_TEMPLATES + MMEP_TEMPLATES],
            ops: 0,
            clock: 0,
            records: 0,
            committed: 0,
            crc: StreamCrc::default(),
        }
    }

    /// Retained-ADI size the shadow model expects right now.
    pub fn expected_records(&self) -> u64 {
        self.records
    }

    /// Records the program has committed so far if every verdict was
    /// as expected: the preload plus one per granted step since.
    pub fn committed_records(&self) -> u64 {
        self.committed
    }

    /// Operations generated so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// CRC-32 of everything generated so far (preload included).
    pub fn crc(&self) -> u32 {
        self.crc.value()
    }

    fn subject(&self, user: u32) -> String {
        format!("cn={}u{user:05}, o=bank", self.lane)
    }

    fn open_instance(&mut self, template: usize) -> Instance {
        let number = self.next_number[template];
        self.next_number[template] += 1;
        Instance {
            template: template as u8,
            value: format!("{}k{template:02}-{number:06}", self.lane),
            office: self.rng.below(TAX_OFFICES) as u16,
            history: Vec::new(),
        }
    }

    /// A user with no history in `inst`.
    fn fresh_user(&mut self, inst: &Instance) -> u32 {
        loop {
            let user = self.rng.below(self.users as usize) as u32;
            if !inst.has_user(user) {
                return user;
            }
        }
    }

    fn branch(&mut self) -> String {
        format!("B{:03}", self.rng.below(BRANCHES))
    }

    fn context_of(&mut self, inst: &Instance) -> ContextInstance {
        let pairs = if inst.is_mmer() {
            vec![("Branch".to_owned(), self.branch()), ("Period".to_owned(), inst.value.clone())]
        } else {
            vec![
                ("TaxOffice".to_owned(), format!("T{:02}", inst.office)),
                ("Refund".to_owned(), inst.value.clone()),
            ]
        };
        ContextInstance::from_pairs(pairs).expect("fixture contexts are well-formed")
    }

    /// Role and privilege of history entry `what` in `inst`.
    fn step_of(inst: &Instance, what: u8) -> (String, (String, String)) {
        let t = usize::from(inst.template);
        if inst.is_mmer() {
            match what {
                0 => (fixture::teller(t), fixture::cash_op(t)),
                _ => (fixture::auditor(t), fixture::audit_op(t)),
            }
        } else {
            let j = t - MMER_TEMPLATES;
            (fixture::refund_role(usize::from(what), j), fixture::refund_op(usize::from(what), j))
        }
    }

    /// Build one decide request, folding it into the stream CRC.
    fn request(
        &mut self,
        user: u32,
        role_value: String,
        (operation, target): (String, String),
        context: ContextInstance,
    ) -> DecisionRequest {
        let subject = self.subject(user);
        self.clock += 1;
        let timestamp = self.clock;
        let push = self.push_every != 0 && self.ops % self.push_every == self.push_every - 1;
        let credentials = if push {
            // Two signed credentials: the role the step needs plus the
            // `Staff` role everyone holds.
            Credentials::Push(vec![
                self.authority.issue(subject.clone(), role(role_value.clone()), 0, u64::MAX),
                self.authority.issue(subject.clone(), role("Staff"), 0, u64::MAX),
            ])
        } else {
            Credentials::Validated(vec![role(role_value.clone())])
        };
        self.crc.fold(&[
            subject.as_bytes(),
            role_value.as_bytes(),
            operation.as_bytes(),
            target.as_bytes(),
            context.to_string().as_bytes(),
            &timestamp.to_le_bytes(),
            &[u8::from(push)],
        ]);
        DecisionRequest {
            subject,
            credentials,
            operation,
            target,
            context,
            environment: Vec::new(),
            timestamp,
        }
    }

    /// Index of a random live instance that has history, if one turns
    /// up in a few draws.
    fn instance_with_history(&mut self, mmer_only: bool) -> Option<usize> {
        for _ in 0..8 {
            let i = self.rng.below(self.live.len());
            let inst = &self.live[i];
            if !inst.history.is_empty() && (!mmer_only || inst.is_mmer()) {
                return Some(i);
            }
        }
        None
    }

    /// A first-time step in live instance `i`: grant, record committed.
    fn first_step(&mut self, i: usize) -> (Expect, DecisionRequest) {
        let inst = self.live[i].clone();
        let user = self.fresh_user(&inst);
        let what = if inst.is_mmer() { self.rng.below(2) } else { self.rng.below(3) } as u8;
        let (role_value, privilege) = Self::step_of(&inst, what);
        let context = self.context_of(&inst);
        self.live[i].history.push((user, what));
        self.records += 1;
        self.committed += 1;
        (Expect::GrantRecord, self.request(user, role_value, privilege, context))
    }

    /// Retire the oldest live instance and open a fresh one in its
    /// template, so the interner sees new strings at a natural rate.
    fn retire_oldest(&mut self) -> Instance {
        let old = self.live.pop_front().expect("the stream always has live instances");
        let fresh = self.open_instance(usize::from(old.template));
        self.live.push_back(fresh);
        old
    }

    /// Lay down the steady-state population for `target_records`
    /// retained records and hand them to `sink`, a batch at a time, for
    /// the caller to load into the service. Instances are opened oldest
    /// first with record counts falling linearly from the retirement
    /// size to zero — the profile the FIFO retirement of
    /// [`WorkflowStream::next_op`] maintains — so the run starts, and
    /// stays, stationary.
    pub fn preload(&mut self, target_records: u64, sink: &mut dyn FnMut(Vec<AdiRecord>)) {
        let (mmer_at_retirement, mmep_at_retirement) = records_at_retirement();
        let templates = (MMER_TEMPLATES + MMEP_TEMPLATES) as f64;
        let mean_at_retirement = (mmer_at_retirement * MMER_TEMPLATES as f64
            + mmep_at_retirement * MMEP_TEMPLATES as f64)
            / templates;
        let instances =
            ((2.0 * target_records as f64 / mean_at_retirement).ceil() as usize).max(24);
        let mut out = Batcher::new(sink);
        // Retained records hold validated roles, never credentials.
        let push_every = std::mem::replace(&mut self.push_every, 0);
        for n in 0..instances {
            let template = n % (MMER_TEMPLATES + MMEP_TEMPLATES);
            let inst = self.open_instance(template);
            self.live.push_back(inst);
            let i = self.live.len() - 1;
            let at_retirement =
                if self.live[i].is_mmer() { mmer_at_retirement } else { mmep_at_retirement };
            let want = (at_retirement * (instances - n) as f64 / instances as f64).round() as usize;
            for _ in 0..want {
                let repeat = self.live[i].is_mmer()
                    && !self.live[i].history.is_empty()
                    && self.rng.below(FIRST_W + REPEAT_W) >= FIRST_W;
                let req = if repeat { self.repeat_step(i).1 } else { self.first_step(i).1 };
                let Credentials::Validated(roles) = req.credentials else {
                    unreachable!("the preload never pushes credentials")
                };
                out.push(AdiRecord {
                    user: req.subject,
                    roles,
                    operation: req.operation,
                    target: req.target,
                    context: req.context,
                    timestamp: req.timestamp,
                });
            }
        }
        self.push_every = push_every;
        out.finish();
    }

    /// Open `instances` live instances with no records at all: the
    /// empty-ADI start the oracle test replays from.
    pub fn open_empty(&mut self, instances: usize) {
        for n in 0..instances {
            let inst = self.open_instance(n % (MMER_TEMPLATES + MMEP_TEMPLATES));
            self.live.push_back(inst);
        }
    }

    /// Same-role repeat in MMER instance `i`: grant, record committed.
    fn repeat_step(&mut self, i: usize) -> (Expect, DecisionRequest) {
        let inst = self.live[i].clone();
        let (user, what) = inst.history[self.rng.below(inst.history.len())];
        let (role_value, privilege) = Self::step_of(&inst, what);
        let context = self.context_of(&inst);
        self.live[i].history.push((user, what));
        self.records += 1;
        self.committed += 1;
        (Expect::GrantRecord, self.request(user, role_value, privilege, context))
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> Op {
        assert!(!self.live.is_empty(), "preload the stream before generating operations");
        let op = if self.ops % MANAGE_EVERY == MANAGE_EVERY - 1 {
            let old = self.retire_oldest();
            self.records -= old.history.len() as u64;
            let scope = old.scope();
            self.crc.fold(&[scope.as_bytes()]);
            self.clock += 1;
            Op {
                class: Class::Manage,
                expect: Expect::Managed { purged: old.history.len() as u32 },
                call: Call::Manage {
                    bound: permis::purge_scope(&scope).expect("fixture scopes are bound"),
                    scope,
                    timestamp: self.clock,
                },
            }
        } else {
            let (class, expect, req) = if self.ops % LAST_EVERY == LAST_EVERY - 1 {
                self.last_step()
            } else {
                self.drawn_step()
            };
            Op { class, expect, call: Call::Decide(req) }
        };
        self.ops += 1;
        op
    }

    fn drawn_step(&mut self) -> (Class, Expect, DecisionRequest) {
        let draw = self.rng.below(DRAWN_W);
        let mut at = FIRST_W;
        if draw < at {
            let i = self.rng.below(self.live.len());
            let (expect, req) = self.first_step(i);
            return (Class::Grant, expect, req);
        }
        at += REPEAT_W;
        if draw < at {
            // Falls back to a first-time step while no MMER instance
            // has history yet (only on an empty preload).
            let (expect, req) = match self.instance_with_history(true) {
                Some(i) => self.repeat_step(i),
                None => {
                    let i = self.rng.below(self.live.len());
                    self.first_step(i)
                }
            };
            return (Class::Grant, expect, req);
        }
        at += CONFLICT_W;
        if draw < at {
            let Some(i) = self.instance_with_history(false) else {
                let i = self.rng.below(self.live.len());
                let (expect, req) = self.first_step(i);
                return (Class::Grant, expect, req);
            };
            // MMER: the other role of the pair, at whatever branch the
            // draw gives (the bound scope is `Branch=*`, so another
            // branch of the same period still conflicts). MMEP: a
            // second listed privilege in the same refund — or `approve`
            // again, which is listed twice exactly so that a repeat
            // counts (a repeat of a once-listed privilege would not).
            let inst = self.live[i].clone();
            let (user, what) = inst.history[self.rng.below(inst.history.len())];
            let conflicting = if inst.is_mmer() {
                1 - what
            } else if what == 1 {
                self.rng.below(REFUND_STEPS.len()) as u8
            } else {
                (what + 1 + self.rng.below(REFUND_STEPS.len() - 1) as u8) % REFUND_STEPS.len() as u8
            };
            let (role_value, privilege) = Self::step_of(&inst, conflicting);
            let context = self.context_of(&inst);
            return (
                Class::Deny,
                Expect::MsodDeny,
                self.request(user, role_value, privilege, context),
            );
        }
        at += NA_W;
        if draw < at {
            let user = self.rng.below(self.users as usize) as u32;
            let dept = format!("D{:02}", self.rng.below(DEPTS));
            let context = ContextInstance::from_pairs(vec![("Dept".to_owned(), dept)])
                .expect("fixture contexts are well-formed");
            return (
                Class::Na,
                Expect::Na,
                self.request(user, "Staff".to_owned(), fixture::report_op(), context),
            );
        }
        // A teller asking for the auditor's operation.
        debug_assert!(draw < at + RBAC_W);
        let i = self.rng.below(self.live.len());
        let inst = self.live[i].clone();
        let user = self.rng.below(self.users as usize) as u32;
        let k = usize::from(inst.template) % MMER_TEMPLATES;
        let context = self.context_of(&inst);
        (
            Class::Rbac,
            Expect::RbacDeny,
            self.request(user, fixture::teller(k), fixture::audit_op(k), context),
        )
    }

    /// The last step of the oldest live instance: grant, then purge.
    fn last_step(&mut self) -> (Class, Expect, DecisionRequest) {
        let old = self.retire_oldest();
        let t = usize::from(old.template);
        let user = self.fresh_user(&old);
        let context = self.context_of(&old);
        let (role_value, privilege, touches) = if old.is_mmer() {
            // The committing auditor's role is listed in the MMER, so
            // the step itself is retained before the purge.
            (fixture::auditor(t), fixture::commit_op(t), true)
        } else {
            let j = t - MMER_TEMPLATES;
            (fixture::refund_role(1, j), fixture::confirm_op(j), false)
        };
        // An instance with no record yet starts with this request,
        // which is then retained whatever it touches (§4.2 step 4).
        let added = u32::from(touches || old.history.is_empty());
        let purged = old.history.len() as u32 + added;
        self.records -= old.history.len() as u64;
        self.committed += u64::from(added);
        (
            Class::LastStep,
            Expect::LastStep { added, purged },
            self.request(user, role_value, privilege, context),
        )
    }

    /// Generate the next `n` operations.
    pub fn chunk(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// Generator of the `deny_deep` stream: a read-only stream of MSoD
/// denies against users with long histories.
#[derive(Debug)]
pub struct DenyDeepStream {
    rng: Rng,
    users: u32,
    periods: u32,
    /// Cumulative Zipf(1.1) weights over popularity ranks.
    cdf: Vec<f64>,
    /// Popularity rank → user, a seeded shuffle so hot users spread
    /// over shards. A user's role template follows its *rank*
    /// (`rank % 16`), not its name: the denying policy's position in
    /// the policy list decides how many policies a deny evaluates
    /// first, and the mix of positions among the hot users must not
    /// change with the seed.
    by_rank: Vec<u32>,
    push_every: u64,
    authority: Authority,
    ops: u64,
    crc: StreamCrc,
}

impl DenyDeepStream {
    /// Stream for `seed` over `users` users with `periods` audit
    /// periods each.
    pub fn new(seed: u64, users: u32, periods: u32, push_every: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xDEE9_0DE7);
        let mut cdf = Vec::with_capacity(users as usize);
        let mut total = 0.0;
        for rank in 1..=users {
            total += 1.0 / f64::from(rank).powf(1.1);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        let mut by_rank: Vec<u32> = (0..users).collect();
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        DenyDeepStream {
            rng,
            users,
            periods,
            cdf,
            by_rank,
            push_every,
            authority: Authority::new(fixture::SOA_DN, fixture::SOA_KEY.to_vec()),
            ops: 0,
            crc: StreamCrc::default(),
        }
    }

    /// CRC-32 of everything generated so far.
    pub fn crc(&self) -> u32 {
        self.crc.value()
    }

    fn subject(user: u32) -> String {
        format!("cn=d{user:05}, o=bank")
    }

    fn context(&mut self, k: usize, period: u32) -> ContextInstance {
        ContextInstance::from_pairs(vec![
            ("Branch".to_owned(), format!("B{:03}", self.rng.below(BRANCHES))),
            ("Period".to_owned(), format!("k{k:02}-deep{period:02}")),
        ])
        .expect("fixture contexts are well-formed")
    }

    /// `per_user` teller records for every user, spread evenly over the
    /// user's periods at random branches, handed to `sink` a batch at a
    /// time.
    pub fn preload(&mut self, per_user: u32, sink: &mut dyn FnMut(Vec<AdiRecord>)) {
        let mut out = Batcher::new(sink);
        for rank in 0..self.users as usize {
            let user = self.by_rank[rank];
            let k = rank % MMER_TEMPLATES;
            let (operation, target) = fixture::cash_op(k);
            for n in 0..per_user {
                let context = self.context(k, n % self.periods);
                let rec = AdiRecord {
                    user: Self::subject(user),
                    roles: vec![role(fixture::teller(k))],
                    operation: operation.clone(),
                    target: target.clone(),
                    context,
                    timestamp: u64::from(user) * u64::from(per_user) + u64::from(n),
                };
                self.crc.fold(&[rec.context.to_string().as_bytes()]);
                out.push(rec);
            }
        }
        out.finish();
    }

    /// The next deny: a Zipf-picked user asks, as auditor, for one of
    /// the periods it already worked in as teller.
    pub fn next_op(&mut self) -> Op {
        let p = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c < p).min(self.users as usize - 1);
        let user = self.by_rank[rank];
        let k = rank % MMER_TEMPLATES;
        let period = self.rng.below(self.periods as usize) as u32;
        let context = self.context(k, period);
        let subject = Self::subject(user);
        let (operation, target) = fixture::audit_op(k);
        let push = self.push_every != 0 && self.ops % self.push_every == self.push_every - 1;
        let auditor = role(fixture::auditor(k));
        let credentials = if push {
            Credentials::Push(vec![
                self.authority.issue(subject.clone(), auditor, 0, u64::MAX),
                self.authority.issue(subject.clone(), role("Staff"), 0, u64::MAX),
            ])
        } else {
            Credentials::Validated(vec![auditor])
        };
        self.crc.fold(&[subject.as_bytes(), context.to_string().as_bytes()]);
        self.ops += 1;
        Op {
            class: Class::Deny,
            expect: Expect::MsodDeny,
            call: Call::Decide(DecisionRequest {
                subject,
                credentials,
                operation,
                target,
                context,
                environment: Vec::new(),
                timestamp: 1_000_000_000 + self.ops,
            }),
        }
    }

    /// Generate the next `n` operations.
    pub fn chunk(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}
