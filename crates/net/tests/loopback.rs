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

/// The `/metrics` endpoint serves exactly `NetServer::metrics_text()`,
/// whose head is exactly the service's own `metrics_text()` — one
/// renderer, no drift — and the whole document passes the shared
/// validator that `msod-cli metrics --watch` uses.
#[test]
fn metrics_endpoint_is_byte_identical_to_renderer() {
    let (server, svc, addr) = spawn_server();
    let mut client = NetClient::connect(&addr).unwrap();
    for i in 0..4 {
        client.decide(&work("u1", "Member", "p1", i + 1)).unwrap();
    }
    drop(client); // settle conns_closed so the documents agree

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        // The worker marks the connection closed asynchronously;
        // retry until the served document and the renderer agree.
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        let rendered = server.metrics_text();
        if body == rendered {
            obs::validate_metrics_text(&body).unwrap();
            let service_doc = svc.metrics_text();
            assert!(
                body.starts_with(&service_doc),
                "service document must be a byte-prefix of the served document"
            );
            assert!(body.contains("net_http_requests_total"));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "documents never converged:\n{body}");
        std::thread::sleep(std::time::Duration::from_millis(20));
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
