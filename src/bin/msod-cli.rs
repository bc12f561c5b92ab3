//! `msod-cli` — command-line front end for the MSoD-for-RBAC library.
//!
//! ```text
//! msod-cli validate <policy.xml>            parse + schema-validate a policy
//! msod-cli decide   <policy.xml> <script>   run a decision script, print the trace
//! msod-cli explain  <policy.xml> <script>   run a script, print each verdict's full
//!           [--json]                        §4.2 derivation (text or JSON lines)
//! msod-cli metrics  <policy.xml> <script>   run a script, print Prometheus metrics
//!           [--watch <secs> [<n>]]          and the decision-trace ring; --watch
//!                                           re-runs the script and re-renders the
//!                                           metric-history ring every <secs> seconds
//! msod-cli top      <policy.xml> <script>   run a script, print the windowed
//!           [--every <ops>]                 metric-history ring as a table
//! msod-cli flightrec dump <policy.xml> <script> <dir>
//!                                           run a script with the flight recorder
//!                                           dumping into <dir>, force a snapshot
//! msod-cli flightrec show <snapshot.json>   summarize a dumped flight snapshot
//! msod-cli schema   [msod|rbac]             print a bundled XSD
//! msod-cli example                          print the built-in bank-audit trace
//! msod-cli verify-journal <journal.log>     offline-scan a retained-ADI journal
//! msod-cli serve <policy.xml|--builtin>     run the networked decision plane:
//!           [--addr <host:port>]            binary decision frames plus HTTP
//!           [--workers <n>]                 GET /metrics and GET /healthz
//! msod-cli loadgen [--addr <host:port>]     seeded Zipf traffic against a live
//!           [--seed <n>] [--requests <n>]   server (or an ephemeral local one),
//!           [--threads <n>] [--batch <n>]   closed + open loop, JSON report;
//!           [--open-rate <rps>]             MSOD_LOADGEN_SCALE scales requests
//! msod-cli replsim [--pairs <n>]            deterministic replication-simulator
//!           [--seed <n>] [--nodes <n>]      sweep: seeded (workload, fault
//!           [--trace <wseed>:<sseed>]       schedule) pairs, oracle convergence
//!                                           checks, divergences shrunk to a
//!                                           paste-ready regression; --trace
//!                                           prints one pair's full event trace
//! ```
//!
//! Decision scripts are line-oriented; fields are `|`-separated because
//! business contexts contain commas:
//!
//! ```text
//! # subject | roles (type:value or value) | operation | target | context | timestamp
//! alice | Teller            | handleCash | till  | Branch=York, Period=2006 | 1
//! alice | employee:Auditor  | audit      | books | Branch=Leeds, Period=2006 | 2
//! ```

use std::process::ExitCode;

use msod_rbac::msod::RoleRef;
use msod_rbac::net;
use msod_rbac::obs::validate_metrics_text;
use msod_rbac::permis::{DecisionRequest, DecisionService};
use msod_rbac::policy;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("validate") if args.len() == 2 => cmd_validate(&args[1]),
        Some("decide") if args.len() == 3 => cmd_decide(&args[1], &args[2]),
        Some("explain") if args.len() == 3 || args.len() == 4 => {
            let json = args.get(3).map(String::as_str) == Some("--json");
            if args.len() == 4 && !json {
                Err(format!("unknown explain flag {:?} (expected --json)", args[3]))
            } else {
                cmd_explain(&args[1], &args[2], json)
            }
        }
        Some("metrics") if args.len() == 3 => cmd_metrics(&args[1], &args[2]),
        Some("metrics") if args.len() >= 5 && args.len() <= 6 && args[3].as_str() == "--watch" => {
            match (args[4].parse::<u64>(), args.get(5).map(|n| n.parse::<u64>())) {
                (Ok(secs), None) => cmd_metrics_watch(&args[1], &args[2], secs, None),
                (Ok(secs), Some(Ok(n))) => cmd_metrics_watch(&args[1], &args[2], secs, Some(n)),
                _ => Err(format!("bad --watch arguments: {:?}", &args[4..])),
            }
        }
        Some("top") if args.len() == 3 => cmd_top(&args[1], &args[2], 8),
        Some("top") if args.len() == 5 && args[3].as_str() == "--every" => {
            match args[4].parse::<usize>() {
                Ok(every) => cmd_top(&args[1], &args[2], every.max(1)),
                Err(_) => Err(format!("bad --every argument {:?}", args[4])),
            }
        }
        Some("flightrec") if args.len() == 5 && args[1].as_str() == "dump" => {
            cmd_flightrec_dump(&args[2], &args[3], &args[4])
        }
        Some("flightrec") if args.len() == 3 && args[1].as_str() == "show" => {
            cmd_flightrec_show(&args[2])
        }
        Some("schema") => cmd_schema(args.get(1).map(String::as_str).unwrap_or("msod")),
        Some("example") => cmd_example(),
        Some("verify-journal") if args.len() == 2 => cmd_verify_journal(&args[1]),
        Some("serve") if args.len() >= 2 => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("replsim") => cmd_replsim(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  msod-cli validate <policy.xml>\n  msod-cli decide <policy.xml> <script>\n  msod-cli explain <policy.xml> <script> [--json]\n  msod-cli metrics <policy.xml> <script> [--watch <secs> [<iterations>]]\n  msod-cli top <policy.xml> <script> [--every <ops>]\n  msod-cli flightrec dump <policy.xml> <script> <dir>\n  msod-cli flightrec show <snapshot.json>\n  msod-cli schema [msod|rbac]\n  msod-cli example\n  msod-cli verify-journal <journal.log>\n  msod-cli serve <policy.xml|--builtin> [--addr <host:port>] [--workers <n>]\n  msod-cli loadgen [--addr <host:port>] [--seed <n>] [--requests <n>] [--threads <n>] [--batch <n>] [--open-rate <rps>]\n  msod-cli replsim [--pairs <n>] [--seed <n>] [--nodes <n>] [--trace <wseed>:<sseed>]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let p = policy::parse_rbac_policy(&xml).map_err(|e| e.to_string())?;
    println!("policy {:?} is valid", p.id);
    println!("  role type        : {}", p.role_type);
    println!("  trusted SOAs     : {}", p.trusted_soas.len());
    println!("  subject domains  : {}", p.subject_domains.len());
    println!("  hierarchy edges  : {}", p.role_hierarchy.values().map(Vec::len).sum::<usize>());
    println!("  target rules     : {}", p.targets.len());
    println!("  MSoD policies    : {}", p.msod.len());
    for (i, pol) in p.msod.policies().iter().enumerate() {
        println!(
            "    #{i}: context [{}], {} MMER, {} MMEP{}{}",
            pol.business_context,
            pol.mmer().len(),
            pol.mmep().len(),
            if pol.first_step.is_some() { ", first step" } else { "" },
            if pol.last_step.is_some() { ", last step" } else { "" },
        );
    }
    Ok(())
}

/// One parsed script line.
#[derive(Debug, Clone, PartialEq)]
struct ScriptLine {
    subject: String,
    roles: Vec<(String, String)>, // (type-or-empty, value)
    operation: String,
    target: String,
    context: String,
    timestamp: u64,
}

fn parse_script_line(line: &str) -> Result<Option<ScriptLine>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split('|').map(str::trim).collect();
    if fields.len() != 6 {
        return Err(format!("expected 6 '|'-separated fields, got {}: {line:?}", fields.len()));
    }
    let roles = fields[1]
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once(':') {
            Some((t, v)) => (t.to_owned(), v.to_owned()),
            None => (String::new(), r.to_owned()),
        })
        .collect();
    Ok(Some(ScriptLine {
        subject: fields[0].to_owned(),
        roles,
        operation: fields[2].to_owned(),
        target: fields[3].to_owned(),
        context: fields[4].to_owned(),
        timestamp: fields[5].parse().map_err(|_| format!("bad timestamp {:?}", fields[5]))?,
    }))
}

/// Turn a parsed script line into a decision request, defaulting
/// untyped roles to the policy's role type. `no` is the 1-based line
/// number, for error messages.
fn build_request(line: &ScriptLine, role_type: &str, no: usize) -> Result<DecisionRequest, String> {
    let roles: Vec<RoleRef> = line
        .roles
        .iter()
        .map(|(t, v)| RoleRef::new(if t.is_empty() { role_type } else { t }, v.clone()))
        .collect();
    let context = line
        .context
        .parse()
        .map_err(|e| format!("line {no}: bad context {:?}: {e}", line.context))?;
    Ok(DecisionRequest::with_roles(
        line.subject.clone(),
        roles,
        line.operation.clone(),
        line.target.clone(),
        context,
        line.timestamp,
    ))
}

fn cmd_decide(policy_path: &str, script_path: &str) -> Result<(), String> {
    let pdp = load_service(policy_path)?;
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let role_type = pdp.core().policy().role_type.clone();

    println!(
        "| {:>4} | {:<12} | {:<22} | {:<14} | {:<28} | out   |",
        "t", "subject", "roles", "operation", "context"
    );
    let mut grants = 0usize;
    let mut denies = 0usize;
    for (no, raw) in script.lines().enumerate() {
        let Some(line) = parse_script_line(raw).map_err(|e| format!("line {}: {e}", no + 1))?
        else {
            continue;
        };
        let req = build_request(&line, &role_type, no + 1)?;
        let out = pdp.decide(&req);
        let verdict = if out.is_granted() {
            grants += 1;
            "GRANT".to_owned()
        } else {
            denies += 1;
            format!("DENY ({})", out.deny_reason().map(|r| r.to_string()).unwrap_or_default())
        };
        println!(
            "| {:>4} | {:<12} | {:<22} | {:<14} | {:<28} | {verdict}",
            line.timestamp,
            line.subject,
            line.roles.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>().join(","),
            line.operation,
            line.context,
        );
    }
    println!("\n{grants} granted, {denies} denied; retained ADI: {} record(s)", pdp.adi().len());
    let audit_records = pdp.with_trail(|t| t.verify().map(|()| t.len()));
    println!("audit trail: {} record(s), verified", audit_records.map_err(|e| e.to_string())?);
    Ok(())
}

/// Build the decision service from a policy file.
fn load_service(policy_path: &str) -> Result<DecisionService, String> {
    let xml =
        std::fs::read_to_string(policy_path).map_err(|e| format!("reading {policy_path}: {e}"))?;
    DecisionService::from_xml_symbolized(&xml, b"msod-cli-trail-key".to_vec())
        .map_err(|e| e.to_string())
}

/// Replay a script through `svc`, calling `visit` with the live
/// service, each parsed line, and its explained outcome.
fn run_script(
    svc: &DecisionService,
    script: &str,
    mut visit: impl FnMut(&DecisionService, &ScriptLine, &msod_rbac::permis::Explanation),
) -> Result<(), String> {
    let role_type = svc.core().policy().role_type.clone();
    for (no, raw) in script.lines().enumerate() {
        let Some(line) = parse_script_line(raw).map_err(|e| format!("line {}: {e}", no + 1))?
        else {
            continue;
        };
        let (_, explanation) = svc.decide_explained(&build_request(&line, &role_type, no + 1)?);
        visit(svc, &line, &explanation);
    }
    Ok(())
}

/// Build the symbolized service and replay a script file through it.
fn replay_explained(
    policy_path: &str,
    script_path: &str,
    visit: impl FnMut(&DecisionService, &ScriptLine, &msod_rbac::permis::Explanation),
) -> Result<DecisionService, String> {
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let svc = load_service(policy_path)?;
    run_script(&svc, &script, visit)?;
    Ok(svc)
}

/// Replay a script and print every verdict's full §4.2 derivation:
/// which policies matched and how their `!` components bound, the
/// per-constraint multiset arithmetic, and the retained-ADI record ids
/// behind each deny. `--json` prints one JSON document per line
/// instead.
fn cmd_explain(policy_path: &str, script_path: &str, json: bool) -> Result<(), String> {
    replay_explained(policy_path, script_path, |_, _, explanation| {
        if json {
            println!("{}", explanation.render_json());
        } else {
            println!("{}", explanation.render_text());
        }
    })?;
    Ok(())
}

/// Replay a script, capturing a windowed metric frame every `every`
/// decisions (plus a final partial window), then print the history
/// ring as a table with the slowest-decide exemplar per window.
fn cmd_top(policy_path: &str, script_path: &str, every: usize) -> Result<(), String> {
    let mut since_frame = 0usize;
    let svc = replay_explained(policy_path, script_path, |svc, _, _| {
        since_frame += 1;
        if since_frame == every {
            since_frame = 0;
            svc.capture_metric_frame();
        }
    })?;
    if since_frame > 0 {
        svc.capture_metric_frame();
    }
    print_history(&svc);
    Ok(())
}

/// Render the metric-history ring as a table, oldest frame first.
fn print_history<A: msod_rbac::msod::RetainedAdi + 'static>(svc: &DecisionService<A>) {
    if !msod_rbac::obs::enabled() {
        println!("# instrumentation compiled out (obs-off): no metric history retained");
        return;
    }
    println!(
        "| {:>5} | {:>9} | {:>6} | {:>6} | {:>9} | {:>8} | {:>10} | {:>10} | {:>12} | slowest",
        "frame",
        "decisions",
        "grants",
        "denies",
        "fallbacks",
        "window n",
        "p50 ns",
        "p99 ns",
        "slowest ns"
    );
    for f in svc.metrics().history() {
        println!(
            "| {:>5} | {:>9} | {:>6} | {:>6} | {:>9} | {:>8} | {:>10} | {:>10} | {:>12} | #{} {}",
            f.seq,
            f.decisions,
            f.grants,
            f.denies,
            f.sym_fallbacks,
            f.decide_delta.count,
            f.decide_delta.quantile(0.5),
            f.decide_delta.quantile(0.99),
            f.slowest_ns,
            f.slowest_ticket,
            f.slowest_user,
        );
    }
}

/// Replay a script with the flight recorder dumping into `dir`, then
/// force a snapshot (reason `cli_dump`) and print its path — the
/// offline way to exercise the same black box the anomaly triggers
/// dump automatically.
fn cmd_flightrec_dump(policy_path: &str, script_path: &str, dir: &str) -> Result<(), String> {
    if !msod_rbac::obs::enabled() {
        return Err("flight recorder compiled out (obs-off build)".into());
    }
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let svc = load_service(policy_path)?;
    svc.set_flight_dir(Some(std::path::PathBuf::from(dir)));
    run_script(&svc, &script, |_, _, _| {})?;
    let path = svc
        .metrics()
        .flight()
        .trigger("cli_dump", |reason, entries| {
            msod_rbac::permis::metrics::render_flight_snapshot(reason, entries, svc.symbol_table())
        })
        .ok_or("flight recorder produced no dump (empty budget or no dump dir)")?;
    println!("flight snapshot written: {}", path.display());
    println!(
        "{} entr(y/ies) retained; triggers={} dumps={}",
        svc.metrics().flight().entries().len(),
        svc.metrics().flight().triggers_total(),
        svc.metrics().flight().dumps_total(),
    );
    Ok(())
}

/// Summarize a dumped flight snapshot: the trigger reason and one line
/// per black-box entry.
fn cmd_flightrec_show(path: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let reason = doc
        .split("\"reason\":")
        .nth(1)
        .and_then(|rest| rest.split('"').nth(1))
        .ok_or("not a flight snapshot: missing \"reason\"")?;
    let entries = doc.matches("\"timestamp\":").count();
    println!("flight snapshot {path}: reason={reason:?}, {entries} entr(y/ies)");
    println!("{doc}");
    Ok(())
}

/// Watch mode: re-run the script every `secs` seconds against one
/// long-lived service, capture a metric frame per pass, and re-render
/// the history ring. Each pass structurally validates the full
/// Prometheus document and exits non-zero on the first malformed
/// gauge. `iterations` bounds the loop (`None` = run until killed).
fn cmd_metrics_watch(
    policy_path: &str,
    script_path: &str,
    secs: u64,
    iterations: Option<u64>,
) -> Result<(), String> {
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let svc = load_service(policy_path)?;
    let mut pass = 0u64;
    loop {
        run_script(&svc, &script, |_, _, _| {})?;
        let frame = svc.capture_metric_frame();
        validate_metrics_text(&svc.metrics_text())
            .map_err(|e| format!("malformed metrics document: {e}"))?;
        pass += 1;
        println!(
            "# pass {pass}: frame {} — {} decisions total, window n={} p99={}ns",
            frame.seq,
            frame.decisions,
            frame.decide_delta.count,
            frame.decide_delta.quantile(0.99),
        );
        print_history(&svc);
        if iterations.is_some_and(|n| pass >= n) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

/// Run a decision script through the two-plane [`DecisionService`]
/// with grant tracing enabled, then print the Prometheus metrics
/// document followed by the decision-trace ring — including the
/// stable "why was this denied?" explanation for every deny.
fn cmd_metrics(policy_path: &str, script_path: &str) -> Result<(), String> {
    let svc = load_service(policy_path)?;
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    svc.metrics().set_trace_grants(true);
    let role_type = svc.core().policy().role_type.clone();

    for (no, raw) in script.lines().enumerate() {
        let Some(line) = parse_script_line(raw).map_err(|e| format!("line {}: {e}", no + 1))?
        else {
            continue;
        };
        svc.decide(&build_request(&line, &role_type, no + 1)?);
    }

    let text = svc.metrics_text();
    println!("{text}");
    validate_metrics_text(&text).map_err(|e| format!("malformed metrics document: {e}"))?;
    let traces = svc.recent_traces();
    if msod_rbac::obs::enabled() {
        println!("# decision traces (oldest first, ring capacity {}):", {
            use msod_rbac::permis::TRACE_CAPACITY;
            TRACE_CAPACITY
        });
        for t in &traces {
            let verdict = if t.granted { "GRANT" } else { "DENY " };
            println!(
                "#   t={} {} {} {} [{}] {} consulted={} elapsed={}ns",
                t.timestamp,
                verdict,
                t.user,
                t.operation,
                t.context,
                t.reason.as_deref().unwrap_or("-"),
                t.records_consulted,
                t.elapsed_ns,
            );
        }
    } else {
        println!("# instrumentation compiled out (obs-off): no decision traces retained");
    }
    Ok(())
}

/// Read-only scan of a retained-ADI journal: frame-by-frame CRC and
/// decode check, live-record count. Never modifies the file — the scan
/// an operator runs *before* letting the PDP open (and truncate) a
/// suspect journal. Hard corruption (a CRC failure that is not just a
/// torn tail, or an undecodable frame) exits non-zero; a torn trailing
/// write alone is expected crash residue and only warns.
fn cmd_verify_journal(path: &str) -> Result<(), String> {
    let report =
        msod_rbac::storage::verify_journal(path).map_err(|e| format!("reading {path}: {e}"))?;
    println!("{path}: {report}");
    let torn_only = report.undecodable_frames == 0
        && report.corruption_offset.is_none()
        && report.trailing_torn_bytes > 0;
    if report.is_clean() {
        println!("journal is clean");
        Ok(())
    } else if torn_only {
        println!(
            "warning: torn trailing write ({} byte(s)) — expected after a crash; \
             the next open will truncate it",
            report.trailing_torn_bytes
        );
        Ok(())
    } else {
        Err(format!(
            "journal is corrupt: {} undecodable frame(s){}; recovery would keep \
             the first {} intact frame(s) and truncate the rest",
            report.undecodable_frames,
            match report.corruption_offset {
                Some(off) => format!(", first CRC failure at byte {off}"),
                None => String::new(),
            },
            report.frames_replayable,
        ))
    }
}

/// Build the symbolized service from `source` (a policy path, or
/// `--builtin` for the load generator's canonical two-role MMER
/// policy) and bind the decision server on `addr`. Split from
/// [`cmd_serve`] so tests can bind an ephemeral port and drop it.
fn bind_server(source: &str, addr: &str, workers: usize) -> Result<net::NetServer, String> {
    let xml = if source == "--builtin" {
        net::BUILTIN_POLICY.to_owned()
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("reading {source}: {e}"))?
    };
    let svc = std::sync::Arc::new(
        DecisionService::from_xml_symbolized(&xml, b"msod-cli-trail-key".to_vec())
            .map_err(|e| e.to_string())?,
    );
    net::NetServer::bind(addr, svc, net::NetConfig { workers, ..net::NetConfig::default() })
        .map_err(|e| format!("binding {addr}: {e}"))
}

/// `serve` — run the networked decision plane until killed: the binary
/// decision protocol and the HTTP `GET /metrics` / `GET /healthz`
/// endpoints share one port, sniffed per connection.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let source = &args[0];
    let mut addr = "127.0.0.1:7057".to_owned();
    let mut workers = 4usize;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--workers" => {
                workers = value.parse().map_err(|_| format!("bad --workers {value:?}"))?
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    let server = bind_server(source, &addr, workers.max(1))?;
    println!(
        "listening on {} ({} worker(s)); binary decision frames + GET /metrics, GET /healthz",
        server.local_addr(),
        workers.max(1),
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Parse a loadgen numeric flag, accepting `0x`-prefixed hex for seeds.
fn parse_u64_flag(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("bad {flag} argument {value:?}"))
}

/// `loadgen` — drive the wire protocol with seeded Zipf traffic and
/// print one JSON report (closed loop, plus an open paced loop unless
/// `--open-rate 0`). Without `--addr` an ephemeral in-process server
/// on the builtin policy is used, so the command is self-contained.
/// `MSOD_LOADGEN_SCALE` multiplies the request count — the CI knob
/// separating a quick smoke from a real measurement. The effective
/// seed is always echoed so any run can be reproduced exactly.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut cfg = net::LoadgenConfig::default();
    let mut addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--seed" => cfg.seed = parse_u64_flag(flag, value)?,
            "--requests" => cfg.requests = parse_u64_flag(flag, value)? as usize,
            "--threads" => cfg.threads = (parse_u64_flag(flag, value)? as usize).max(1),
            "--batch" => cfg.batch = (parse_u64_flag(flag, value)? as usize).max(1),
            "--users" => cfg.users = (parse_u64_flag(flag, value)? as usize).max(1),
            "--projects" => cfg.projects = (parse_u64_flag(flag, value)? as usize).max(1),
            "--open-rate" => cfg.open_rate = parse_u64_flag(flag, value)?,
            other => return Err(format!("unknown loadgen flag {other:?}")),
        }
    }
    if let Ok(scale) = std::env::var("MSOD_LOADGEN_SCALE") {
        let s: f64 = scale.parse().map_err(|_| format!("bad MSOD_LOADGEN_SCALE {scale:?}"))?;
        if !s.is_finite() || s <= 0.0 {
            return Err(format!("bad MSOD_LOADGEN_SCALE {scale:?} (must be > 0)"));
        }
        cfg.requests = ((cfg.requests as f64 * s) as usize).max(1);
    }
    eprintln!(
        "# loadgen seed={:#x} requests/thread={} threads={} batch={} target={}",
        cfg.seed,
        cfg.requests,
        cfg.threads,
        cfg.batch,
        addr.as_deref().unwrap_or("(ephemeral local server)"),
    );
    let (closed, open) = match &addr {
        Some(a) => {
            let closed = net::run_closed(a, &cfg).map_err(|e| e.to_string())?;
            let open = if cfg.open_rate > 0 {
                Some(net::run_open(a, &cfg).map_err(|e| e.to_string())?)
            } else {
                None
            };
            (closed, open)
        }
        None => net::run_local(&cfg).map_err(|e| e.to_string())?,
    };
    println!(
        "{{\"seed\":{},\"requests_per_thread\":{},\"threads\":{},\"batch\":{},\"closed\":{},\"open\":{}}}",
        cfg.seed,
        cfg.requests,
        cfg.threads,
        cfg.batch,
        net::loop_json(&closed),
        open.as_ref().map(net::loop_json).unwrap_or_else(|| "null".to_owned()),
    );
    Ok(())
}

fn cmd_schema(which: &str) -> Result<(), String> {
    match which {
        "msod" => {
            println!("{}", policy::MSOD_SCHEMA_XSD);
            Ok(())
        }
        "rbac" => {
            println!("{}", policy::RBAC_SCHEMA_XSD);
            Ok(())
        }
        other => Err(format!("unknown schema {other:?} (expected msod|rbac)")),
    }
}

fn cmd_example() -> Result<(), String> {
    // The built-in bank scenario, self-contained.
    let policy = r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="audit"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let script = "\
# subject | roles | operation | target | context | timestamp
alice | Teller  | handleCash  | till  | Branch=York, Period=2006  | 1
alice | Auditor | audit       | books | Branch=Leeds, Period=2006 | 180
bob   | Auditor | audit       | books | Branch=York, Period=2006  | 300
bob   | Auditor | CommitAudit | audit | Branch=York, Period=2006  | 364
alice | Auditor | audit       | books | Branch=York, Period=2006  | 370
";
    let dir = std::env::temp_dir().join(format!("msod-cli-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let ppath = dir.join("policy.xml");
    let spath = dir.join("script.txt");
    std::fs::write(&ppath, policy).map_err(|e| e.to_string())?;
    std::fs::write(&spath, script).map_err(|e| e.to_string())?;
    let r = cmd_decide(ppath.to_str().unwrap(), spath.to_str().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    r
}

fn cmd_replsim(args: &[String]) -> Result<(), String> {
    let mut pairs: u64 = 64;
    let mut seed: u64 = 1;
    let mut nodes: usize = 3;
    let mut trace_pair: Option<(u64, u64)> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--pairs" => pairs = parse_u64_flag(flag, value)?.max(1),
            "--seed" => seed = parse_u64_flag(flag, value)?,
            "--nodes" => nodes = (parse_u64_flag(flag, value)? as usize).clamp(2, 16),
            "--trace" => {
                let (w, s) = value
                    .split_once(':')
                    .ok_or_else(|| format!("bad --trace {value:?} (expected wseed:sseed)"))?;
                trace_pair = Some((
                    w.parse().map_err(|_| format!("bad wseed {w:?}"))?,
                    s.parse().map_err(|_| format!("bad sseed {s:?}"))?,
                ));
            }
            other => return Err(format!("unknown replsim flag {other:?}")),
        }
    }

    if let Some((wseed, sseed)) = trace_pair {
        // Single-pair trace mode: print the full deterministic event
        // trace and its fingerprint.
        let cfg = replsim::SimConfig { nodes, record_trace: true, ..Default::default() };
        let report = replsim::run_pair(wseed, sseed, &cfg);
        for line in &report.trace {
            println!("{line}");
        }
        println!(
            "# pair {wseed}:{sseed} nodes={nodes} trace_hash={:#010x} committed={}/{} \
             sent={} delivered={} dropped={} dup={} crashes={} restarts={}",
            report.trace_hash,
            report.committed,
            report.ops,
            report.stats.sent,
            report.stats.delivered,
            report.stats.dropped,
            report.stats.duplicated,
            report.stats.crashes,
            report.stats.restarts,
        );
        return match report.divergence {
            None => Ok(()),
            Some(d) => Err(format!("pair {wseed}:{sseed} diverged:\n{d}")),
        };
    }

    // Sweep mode. The seed is echoed first so a red run is
    // reproducible by re-passing --seed.
    eprintln!("# replsim seed={seed} pairs={pairs} nodes={nodes}");
    let cfg = replsim::SimConfig { nodes, ..Default::default() };
    let mut committed = 0usize;
    for k in 0..pairs {
        let x = seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (wseed, sseed) = (x >> 32, x & 0xFFFF_FFFF);
        let w = modelcheck::generate(wseed);
        let s = replsim::gen_schedule(sseed, cfg.nodes);
        let report = replsim::run_sim(&w, &s, &cfg);
        committed += report.committed;
        if report.divergence.is_some() {
            // Shrink the offending pair and hand back a paste-ready
            // regression before failing.
            let (sw, ss, scfg) = replsim::shrink_pair(&w, &s, &cfg);
            let small = replsim::run_sim(&sw, &ss, &scfg);
            let name = format!("replsim_regression_seed_{seed}_pair_{k}");
            return Err(format!(
                "pair {k} (wseed={wseed} sseed={sseed}) diverged; minimized to {} ops + {} \
                 fault events:\n\n{}",
                sw.ops.len(),
                ss.events.len(),
                replsim::regression_pair(&name, &sw, &ss, &scfg, &small),
            ));
        }
    }
    println!(
        "replsim: {pairs} pair(s) converged on {nodes} replicas (seed {seed}, {committed} \
         total commits)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_line_parsing() {
        let l = parse_script_line(
            "alice | Teller, employee:Clerk | handleCash | till | Branch=York, Period=2006 | 42",
        )
        .unwrap()
        .unwrap();
        assert_eq!(l.subject, "alice");
        assert_eq!(
            l.roles,
            vec![(String::new(), "Teller".into()), ("employee".into(), "Clerk".into())]
        );
        assert_eq!(l.operation, "handleCash");
        assert_eq!(l.context, "Branch=York, Period=2006");
        assert_eq!(l.timestamp, 42);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(parse_script_line("# comment").unwrap(), None);
        assert_eq!(parse_script_line("   ").unwrap(), None);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_script_line("too | few | fields").is_err());
        assert!(parse_script_line("a | r | op | t | C=1 | not-a-number").is_err());
    }

    #[test]
    fn example_runs() {
        cmd_example().unwrap();
    }

    #[test]
    fn metrics_validator_accepts_real_document_and_rejects_malformed() {
        validate_metrics_text("# HELP a b\n# TYPE a counter\na 1\na_x{l=\"v\"} 2.5\n").unwrap();
        // Trailing garbage instead of a number.
        assert!(validate_metrics_text("a one\n").is_err());
        // NaN is not a renderable gauge.
        assert!(validate_metrics_text("a NaN\n").is_err());
        // Duplicate TYPE for one family.
        assert!(validate_metrics_text("# TYPE a counter\n# TYPE a gauge\n").is_err());
        // Empty metric name.
        assert!(validate_metrics_text(" 7\n").is_err());
    }

    /// Write the bank worked example to a temp dir and return
    /// (policy path, script path, dir) for provenance-command tests.
    fn worked_example(tag: &str) -> (String, String, std::path::PathBuf) {
        let policy = r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="audit"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
        let script = "\
alice | Teller  | handleCash  | till  | Branch=York, Period=2006  | 1
alice | Auditor | audit       | books | Branch=Leeds, Period=2006 | 180
bob   | Auditor | audit       | books | Branch=York, Period=2006  | 300
bob   | Auditor | CommitAudit | audit | Branch=York, Period=2006  | 364
alice | Auditor | audit       | books | Branch=York, Period=2006  | 370
";
        let dir = std::env::temp_dir().join(format!("msod-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ppath = dir.join("policy.xml");
        let spath = dir.join("script.txt");
        std::fs::write(&ppath, policy).unwrap();
        std::fs::write(&spath, script).unwrap();
        (ppath.to_str().unwrap().into(), spath.to_str().unwrap().into(), dir)
    }

    #[test]
    fn explain_command_names_deny_cause() {
        let (ppath, spath, dir) = worked_example("explain");
        let mut denied = Vec::new();
        let svc = replay_explained(&ppath, &spath, |_, line, ex| {
            assert_eq!(ex.user, line.subject);
            if !ex.granted {
                denied.push(ex.clone());
            }
        })
        .unwrap();
        // The worked example denies exactly once: alice's t=180 audit.
        // `Branch=*` folds every branch into one Period-keyed instance,
        // so her Teller action at t=1 already binds her against the
        // MMER's second role anywhere in Period=2006.
        assert_eq!(denied.len(), 1);
        let ex = &denied[0];
        assert_eq!((ex.timestamp, ex.user.as_str()), (180, "alice"));
        if msod_rbac::obs::enabled() {
            let msod = ex.msod.as_ref().expect("msod derivation captured");
            let text = ex.render_text();
            // The rendering must name the violated MMER and the retained
            // record that contributes to it.
            assert!(text.contains("MMER"), "{text}");
            assert!(text.contains("Teller"), "{text}");
            assert!(msod.is_denied(), "derivation agrees with the verdict");
            cmd_explain(&ppath, &spath, false).unwrap();
            cmd_explain(&ppath, &spath, true).unwrap();
        } else {
            assert!(ex.msod.is_none(), "no derivation captured under obs-off");
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_and_watch_commands_run() {
        let (ppath, spath, dir) = worked_example("top");
        cmd_top(&ppath, &spath, 2).unwrap();
        cmd_metrics_watch(&ppath, &spath, 0, Some(2)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flightrec_dump_and_show_round_trip() {
        let (ppath, spath, dir) = worked_example("flightrec");
        let dump_dir = dir.join("flightrec");
        let r = cmd_flightrec_dump(&ppath, &spath, dump_dir.to_str().unwrap());
        if msod_rbac::obs::enabled() {
            r.unwrap();
            let snapshot = std::fs::read_dir(&dump_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.file_name().unwrap().to_str().unwrap().contains("cli_dump"))
                .expect("snapshot file written");
            cmd_flightrec_show(snapshot.to_str().unwrap()).unwrap();
            let doc = std::fs::read_to_string(&snapshot).unwrap();
            assert!(
                doc.contains("\"reason\": \"cli_dump\"") || doc.contains("\"reason\":\"cli_dump\"")
            );
        } else {
            assert!(r.is_err(), "dump must refuse under obs-off");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_binds_and_answers_healthz() {
        let server = bind_server("--builtin", "127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().to_string();
        let (status, body) = net::http_get(&addr, "/healthz").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        // A missing policy file is a typed error, not a panic.
        assert!(bind_server("/no/such/policy.xml", "127.0.0.1:0", 1).is_err());
    }

    #[test]
    fn loadgen_runs_a_small_local_smoke() {
        let args: Vec<String> =
            ["--requests", "64", "--threads", "2", "--batch", "8", "--open-rate", "0"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        cmd_loadgen(&args).unwrap();
        // Flags must come in pairs and be known.
        assert!(cmd_loadgen(&["--seed".into()]).is_err());
        assert!(cmd_loadgen(&["--bogus".into(), "1".into()]).is_err());
        // Seeds parse in hex and decimal.
        assert_eq!(parse_u64_flag("--seed", "0xB7").unwrap(), 0xB7);
        assert_eq!(parse_u64_flag("--seed", "183").unwrap(), 183);
        assert!(parse_u64_flag("--seed", "nope").is_err());
    }

    #[test]
    fn schema_command() {
        cmd_schema("msod").unwrap();
        cmd_schema("rbac").unwrap();
        assert!(cmd_schema("bogus").is_err());
    }

    #[test]
    fn verify_journal_command() {
        use msod_rbac::msod::{AdiRecord, RetainedAdi, RoleRef};
        let path = std::env::temp_dir().join(format!("cli-verify-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = msod_rbac::storage::PersistentAdi::open(&path).unwrap();
            adi.add(AdiRecord {
                user: "alice".into(),
                roles: vec![RoleRef::new("employee", "Teller")],
                operation: "handleCash".into(),
                target: "till".into(),
                context: "Branch=York, Period=2006".parse().unwrap(),
                timestamp: 1,
            });
            adi.sync().unwrap();
        }
        // Clean journal verifies.
        cmd_verify_journal(path.to_str().unwrap()).unwrap();
        // A torn tail warns but still succeeds.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        cmd_verify_journal(path.to_str().unwrap()).unwrap();
        // Mid-file corruption fails.
        std::fs::write(&path, &data).unwrap();
        let mut corrupt = data.clone();
        corrupt[6] ^= 0xff;
        corrupt.extend_from_slice(&data); // intact frame after the bad one
        std::fs::write(&path, &corrupt).unwrap();
        let err = cmd_verify_journal(path.to_str().unwrap()).unwrap_err();
        // The kept count is the replayable *prefix* — the intact frame
        // sitting beyond the corruption must not be promised back.
        assert!(err.contains("keep the first 0 intact frame(s)"), "{err}");
        // Missing file is a typed error, not a panic.
        assert!(cmd_verify_journal("/no/such/journal.log").is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
