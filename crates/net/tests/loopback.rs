//! Loopback integration tests: a real `NetServer` on an ephemeral
//! port, exercised through `NetClient` and raw sockets. Pins the
//! protocol's behavioral contract — HTTP endpoints byte-equal to the
//! in-process exports, wire verdicts identical to in-process verdicts,
//! batch identical to sequential (including intra-batch same-user
//! effects), and resilience to garbage.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use msod::RoleRef;
use net::loadgen::BUILTIN_POLICY;
use net::{http_get, NetClient, NetConfig, NetError, NetServer, WireVerdict, MAGIC};
use permis::{DecisionRequest, DecisionService};

fn admin() -> Vec<RoleRef> {
    vec![RoleRef::permis("RetainedADIController")]
}

fn work(user: &str, role: &str, project: &str, ts: u64) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::permis(role)],
        "work",
        "http://vo/resource",
        context::ContextInstance::from_pairs(vec![("Project".into(), project.into())]).unwrap(),
        ts,
    )
}

fn spawn_server() -> (NetServer, Arc<DecisionService>, String) {
    let svc = Arc::new(
        DecisionService::from_xml_symbolized(BUILTIN_POLICY, b"loopback".to_vec()).unwrap(),
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&svc), NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, svc, addr)
}

#[test]
fn healthz_answers_ok() {
    let (_server, _svc, addr) = spawn_server();
    let (status, body) = http_get(&addr, "/healthz").unwrap();
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
}

#[test]
fn unknown_path_is_404_and_server_survives() {
    let (_server, _svc, addr) = spawn_server();
    let (status, _) = http_get(&addr, "/nope").unwrap();
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_get(&addr, "/healthz").unwrap();
    assert!(status.contains("200"), "{status}");
}

/// The value of the unlabelled family `family` in a metrics document.
fn family_value(doc: &str, family: &str) -> u64 {
    doc.lines()
        .find_map(|line| line.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{family} missing from:\n{doc}"))
}

/// `server.metrics_text()` once every accepted connection has been torn
/// down (the worker counts a close after the connection's last reply,
/// so a client that already hung up is not counted yet).
fn settled_metrics(server: &NetServer) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let doc = server.metrics_text();
        let opened = family_value(&doc, "net_connections_opened_total");
        if family_value(&doc, "net_connections_closed_total") == opened {
            return doc;
        }
        assert!(std::time::Instant::now() < deadline, "connections never settled:\n{doc}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// The `/metrics` endpoint serves exactly `NetServer::metrics_text()`,
/// whose head is exactly the service's own `metrics_text()` — one
/// renderer, no drift — and the whole document passes the shared
/// validator that `msod-cli metrics --watch` uses.
///
/// A served document is rendered while its own HTTP connection is
/// open, so it counts that connection as active and not yet closed;
/// those two families are compared against the settled renderer
/// exactly, off by that one connection, and every other line byte for
/// byte.
#[test]
fn metrics_endpoint_is_byte_identical_to_renderer() {
    const OWN_CONNECTION: [&str; 2] = ["net_connections_active", "net_connections_closed_total"];
    let (server, svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    for i in 0..4 {
        client.decide(&work("u1", "Member", "p1", i + 1)).unwrap();
    }
    drop(client);
    settled_metrics(&server);

    for _ in 0..2 {
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        let settled = settled_metrics(&server);
        obs::validate_metrics_text(&body).unwrap();
        let others = |doc: &str| -> Vec<String> {
            doc.lines()
                .filter(|line| !OWN_CONNECTION.iter().any(|f| line.starts_with(&format!("{f} "))))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(others(&body), others(&settled));
        let own = u64::from(obs::enabled());
        assert_eq!(
            family_value(&body, "net_connections_active"),
            family_value(&settled, "net_connections_active") + own
        );
        assert_eq!(
            family_value(&body, "net_connections_closed_total") + own,
            family_value(&settled, "net_connections_closed_total")
        );
        assert!(
            body.starts_with(&svc.metrics_text()),
            "service document must be a byte-prefix of the served document"
        );
        assert!(body.contains("net_http_requests_total"));
    }
}

/// A request beyond each fixed bound of the MSoD engine — too many
/// roles, too deep a context, too many matching policies — is denied
/// over the wire, one frame at a time and inside a batch, with its
/// resource-limit reason; every deny is audited and nothing is
/// retained, while the in-bound request beside them is decided.
#[test]
fn over_limit_requests_deny_over_the_wire() {
    use msod::sym::{MAX_CTX_DEPTH, MAX_MATCHED, MAX_REQ_ROLES};
    use msod::RequestLimit;

    let allowed: String =
        (0..=MAX_REQ_ROLES).map(|r| format!("<AllowedRole value=\"R{r}\"/>")).collect();
    let mut scopes = vec!["Proc=!".to_owned(); MAX_MATCHED];
    scopes.push("Proc=!, Step=!".into());
    let policies: String = scopes
        .iter()
        .map(|scope| {
            format!(
                r#"<MSoDPolicy BusinessContext="{scope}"><MMER ForbiddenCardinality="2">
                <Role type="permisRole" value="R0"/><Role type="permisRole" value="R1"/>
                </MMER></MSoDPolicy>"#
            )
        })
        .collect();
    let xml = format!(
        r#"<RBACPolicy id="limits" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy><TargetAccess operation="work" targetURI="t">{allowed}</TargetAccess></TargetAccessPolicy>
  <MSoDPolicySet>{policies}</MSoDPolicySet>
</RBACPolicy>"#
    );
    let svc = Arc::new(DecisionService::from_xml_symbolized(&xml, b"limits".to_vec()).unwrap());
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&svc), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();

    let request = |roles: usize, context: String| {
        DecisionRequest::with_roles(
            "u1",
            (0..roles).map(|r| RoleRef::permis(format!("R{r}"))).collect(),
            "work",
            "t",
            context.parse().unwrap(),
            1,
        )
    };
    let deep_instance: Vec<String> = (0..=MAX_CTX_DEPTH).map(|d| format!("T{d}=v")).collect();
    let over = [
        (request(MAX_REQ_ROLES + 1, "Proc=1".into()), RequestLimit::Roles),
        (request(1, deep_instance.join(", ")), RequestLimit::ContextDepth),
        (request(1, "Proc=1, Step=s".into()), RequestLimit::MatchedPolicies),
    ];
    let reason = |limit: RequestLimit| {
        WireVerdict::FrontEnd(permis::DenyReason::ResourceLimit(limit).to_string())
    };
    for (req, limit) in &over {
        assert_eq!(client.decide(req).unwrap(), reason(*limit));
    }
    let mut batch: Vec<DecisionRequest> = over.iter().map(|(req, _)| req.clone()).collect();
    batch.push(request(1, "Proc=1".into()));
    let mut verdicts = client.decide_batch(&batch).unwrap();
    assert!(matches!(verdicts.pop(), Some(WireVerdict::Grant { added: 1, .. })));
    assert_eq!(verdicts, over.iter().map(|&(_, limit)| reason(limit)).collect::<Vec<_>>());

    assert_eq!(svc.adi().len(), 1, "only the in-bound request retained a record");
    let audited = svc.with_trail(|t| {
        t.open_records().iter().filter(|r| r.event.note.starts_with("resource limit: ")).count()
    });
    assert_eq!(audited, 2 * over.len());
    if obs::enabled() {
        let needle = format!("permis_reqbuf_overflow_total {}", 2 * over.len());
        assert!(svc.metrics_text().contains(&needle), "{needle} missing");
    }
}

/// Wire verdicts are the in-process verdicts: the same traffic against
/// a networked service and a local service projects identically.
#[test]
fn wire_decide_matches_in_process() {
    let (_server, _svc, addr) = spawn_server();
    let local = DecisionService::from_xml_symbolized(BUILTIN_POLICY, b"local".to_vec()).unwrap();
    let mut client = NetClient::connect(&addr).unwrap();
    let traffic = [
        ("u1", "Member", "p1", 1),
        ("u1", "Member", "p1", 2),   // repeat: dictionary reuse
        ("u1", "Reviewer", "p1", 3), // MMER collision → deny
        ("u1", "Reviewer", "p2", 4), // other project → grant
        ("u2", "Reviewer", "p1", 5),
    ];
    for (user, role, project, ts) in traffic {
        let req = work(user, role, project, ts);
        let wire = client.decide(&req).unwrap();
        let expect = net::verdict_of(&local.decide(&req));
        assert_eq!(wire, expect, "verdicts diverged for {user}/{role}/{project}");
    }
    // The MMER collision really was a deny.
    let v = client.decide(&work("u2", "Member", "p1", 6)).unwrap();
    assert!(matches!(v, WireVerdict::MsodDeny { mmer: true, .. }), "{v:?}");
}

/// One batch frame produces exactly the verdicts of the same requests
/// sent one by one — including an earlier request in the batch
/// changing a later same-user verdict (the retained record from
/// position 0 must be visible to position 1).
#[test]
fn wire_batch_equals_sequential() {
    let (_bs, _bsvc, batch_addr) = spawn_server();
    let (_ss, _ssvc, seq_addr) = spawn_server();
    let mut batch_client = NetClient::connect(&batch_addr).unwrap();
    let mut seq_client = NetClient::connect(&seq_addr).unwrap();

    let reqs: Vec<DecisionRequest> = vec![
        work("u1", "Member", "p1", 1),
        work("u1", "Reviewer", "p1", 2), // denied only because of [0]
        work("u2", "Reviewer", "p1", 3),
        work("u2", "Member", "p1", 4), // denied only because of [2]
        work("u1", "Member", "p2", 5),
        work("u3", "Member", "p3", 6),
    ];
    let batched = batch_client.decide_batch(&reqs).unwrap();
    let sequential: Vec<WireVerdict> = reqs.iter().map(|r| seq_client.decide(r).unwrap()).collect();
    assert_eq!(batched, sequential);
    // The intra-batch effect really happened.
    assert!(matches!(batched[1], WireVerdict::MsodDeny { .. }), "{:?}", batched[1]);
    assert!(matches!(batched[3], WireVerdict::MsodDeny { .. }), "{:?}", batched[3]);

    // And both services retained identical ADI state.
    let a = batch_client.inspect("cn=admin", &admin(), None, 100).unwrap();
    let b = seq_client.inspect("cn=admin", &admin(), None, 100).unwrap();
    let key = |r: &msod::AdiRecord| (r.timestamp, r.user.clone());
    let mut a = a;
    let mut b = b;
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);
}

/// Management operations flow through the §4.3 port: the controller
/// role purges; a plain member is denied (error frame, session stays
/// usable).
#[test]
fn wire_manage_authorizes_and_denies() {
    let (_server, svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    client.decide(&work("u1", "Member", "p1", 1)).unwrap();
    client.decide(&work("u2", "Member", "p2", 2)).unwrap();

    // Unauthorized: Member is not RetainedADIController.
    let denied = client.purge_all("cn=mallory", &[RoleRef::permis("Member")], 10);
    assert!(matches!(denied, Err(NetError::Remote(_))), "{denied:?}");

    // The session survives a denial; a scoped purge then works.
    let purged = client.purge_context("cn=admin", &admin(), "Project=p1", 11).unwrap();
    assert_eq!(purged, 1);
    assert_eq!(svc.adi().len(), 1);

    // purge_older_than and purge_all round-trip too.
    client.decide(&work("u3", "Member", "p3", 12)).unwrap();
    let purged = client.purge_older_than("cn=admin", &admin(), 12, 13).unwrap();
    assert_eq!(purged, 1, "only the ts=2 record is older than 12");
    let purged = client.purge_all("cn=admin", &admin(), 14).unwrap();
    assert_eq!(purged, 1);
    assert_eq!(svc.adi().len(), 0);
}

/// The authorized binary metrics request returns the service's own
/// document and is denied without the controller role.
#[test]
fn wire_metrics_request_is_authorized() {
    let (_server, _svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    let text = client.metrics("cn=admin", &admin(), 1).unwrap();
    obs::validate_metrics_text(&text).unwrap();
    assert!(text.contains("# TYPE"));
    let denied = client.metrics("cn=mallory", &[RoleRef::permis("Member")], 2);
    assert!(matches!(denied, Err(NetError::Remote(_))), "{denied:?}");
}

/// Undefined dictionary references are an error, not a panic, and the
/// server keeps serving other connections afterwards.
#[test]
fn undefined_dict_ref_errors_cleanly() {
    let (_server, _svc, addr) = spawn_server();
    let mut raw = TcpStream::connect(&addr).unwrap();
    // A Decide referring to ids never defined on this connection.
    let req = net::Request::Decide(net::WireDecide {
        user: 7,
        roles: vec![(8, 9)],
        operation: 10,
        target: 11,
        context: vec![],
        environment: vec![],
        timestamp: 1,
    });
    let mut frame = Vec::new();
    req.encode_frame(&mut frame);
    raw.write_all(&frame).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server answers then closes
    match net::scan_frame(&buf) {
        net::FrameScan::Frame(ty, payload, _) => {
            let resp = net::Response::decode(ty, payload).unwrap();
            assert!(matches!(resp, net::Response::Error(_)), "{resp:?}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // A fresh, well-behaved client still works.
    let mut client = NetClient::connect(&addr).unwrap();
    client.ping().unwrap();
}

/// Garbage — binary-looking or not — never takes the server down.
#[test]
fn garbage_never_kills_the_server() {
    let (_server, _svc, addr) = spawn_server();

    // Garbage behind the binary magic: undecodable frame type.
    let mut raw = TcpStream::connect(&addr).unwrap();
    let mut junk = vec![MAGIC, net::VERSION, 0x7F];
    junk.extend_from_slice(&4u32.to_le_bytes());
    junk.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    raw.write_all(&junk).unwrap();
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink).ok();

    // Pure line noise (routed to the HTTP handler).
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"\x01\x02\x03garbage\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink).ok();

    // A bad-magic byte stream.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink).ok();
    assert!(String::from_utf8_lossy(&sink).contains("405"));

    // After all of it, real traffic flows.
    let mut client = NetClient::connect(&addr).unwrap();
    client.ping().unwrap();
    let v = client.decide(&work("u1", "Member", "p1", 1)).unwrap();
    assert!(matches!(v, WireVerdict::Grant { .. }), "{v:?}");
}

/// Wire inspect filters by user after a grant and an MSoD deny.
#[test]
fn wire_inspect_filters_by_user() {
    let (_server, _svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    assert!(matches!(
        client.decide(&work("u1", "Member", "p1", 1)).unwrap(),
        WireVerdict::Grant { .. }
    ));
    assert!(matches!(
        client.decide(&work("u1", "Reviewer", "p1", 2)).unwrap(),
        WireVerdict::MsodDeny { .. }
    ));
    let records = client.inspect("cn=admin", &admin(), Some("u1"), 10).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].user, "u1");
}

/// Shutdown joins every thread even with a client connected.
#[test]
fn shutdown_joins_with_live_connection() {
    let (mut server, _svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    client.ping().unwrap();
    server.shutdown(); // must not hang on the idle connection
}
