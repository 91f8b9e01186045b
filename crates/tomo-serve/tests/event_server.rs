//! Tests for the event-driven connection layer: typed overload rejection
//! at the accept limit, inline tenant restore (the handoff primitive), and
//! the C10K property itself — thread count stays flat as connections pile
//! up.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::sync::Arc;

use tomo_core::{SessionConfig, TomographySession};
use tomo_serve::protocol::{ErrorKind, Request, Response};
use tomo_serve::{Client, EngineRegistry, RegistryConfig, Server, TenantId};

/// A registry with one `default` tenant on the toy topology.
fn default_registry(config: RegistryConfig) -> EngineRegistry {
    let registry = EngineRegistry::new(config);
    let network = tomo_serve::resolve_topology("toy", 0).unwrap();
    let session = TomographySession::new(network, SessionConfig::default()).unwrap();
    registry
        .create(TenantId::new("default").unwrap(), session)
        .unwrap();
    registry
}

/// Number of this process's threads named `name` (Linux
/// `/proc/self/task/*/comm`). Counting by name leaves out the threads of
/// other tests' servers, which may still be starting or shutting down.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc task dir")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[test]
fn accepts_beyond_max_conns_get_a_typed_overloaded_error() {
    let server = Server::bind_with_limit(
        "127.0.0.1:0",
        Arc::new(default_registry(RegistryConfig::default())),
        2,
        Some(2),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    // Fill both slots and prove they work.
    let mut a = Client::connect(&addr).unwrap();
    a.set_tenant("default");
    let mut b = Client::connect(&addr).unwrap();
    b.set_tenant("default");
    assert!(matches!(
        a.call(&Request::Attach).unwrap(),
        Response::Attached { .. }
    ));
    assert!(matches!(
        b.call(&Request::Stats).unwrap(),
        Response::Stats(_)
    ));

    // The third connection is rejected with one typed envelope, then EOF —
    // never a silent drop.
    let rejected = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(rejected);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let envelope: tomo_serve::protocol::ResponseEnvelope =
        tomo_serve::protocol::decode(&line).unwrap();
    match envelope.resp {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Overloaded);
            assert!(message.contains("max-conns"), "{message}");
        }
        other => panic!("expected Overloaded error, got {other:?}"),
    }
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "rejected conn must be closed after the line"
    );

    // Attached connections were untouched by the reject, and freeing a
    // slot readmits new clients.
    assert!(matches!(
        a.call(&Request::Stats).unwrap(),
        Response::Stats(_)
    ));
    drop(b);
    // The slot frees asynchronously; retry until the daemon readmits.
    let mut readmitted = None;
    for _ in 0..100 {
        let mut c = match Client::connect(&addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        c.set_tenant("default");
        if let Ok(Response::Stats(_)) = c.call(&Request::Stats) {
            readmitted = Some(c);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        readmitted.is_some(),
        "daemon never readmitted after a close"
    );

    assert!(matches!(a.call(&Request::Shutdown).unwrap(), Response::Bye));
    handle.join().unwrap();
}

#[test]
fn restore_creates_a_tenant_from_an_inline_snapshot() {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(default_registry(RegistryConfig::default())),
        2,
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server runs"));

    let mut client = Client::connect(&addr).unwrap();
    client.set_tenant("default");
    let intervals: Vec<Vec<usize>> = (0..60)
        .map(|t| if t % 3 == 0 { vec![0, 1] } else { vec![] })
        .collect();
    assert!(client.observe_batch(intervals).unwrap());
    assert_eq!(client.flush().unwrap(), 60);
    let before = client.query().unwrap();

    // Serialize the session out of band (what a router reads from the
    // snapshot file during handoff) and restore it under a new id.
    let snapshot = {
        let network = tomo_serve::resolve_topology("toy", 0).unwrap();
        let session = TomographySession::new(network, SessionConfig::default()).unwrap();
        let registry = EngineRegistry::new(RegistryConfig::default());
        let entry = registry
            .create(TenantId::new("tmp").unwrap(), session)
            .unwrap();
        let congested: Vec<Vec<usize>> = (0..60)
            .map(|t| if t % 3 == 0 { vec![0, 1] } else { vec![] })
            .collect();
        registry.observe(&entry, congested);
        registry.flush(&entry);
        registry.snapshot_json(&entry).unwrap()
    };
    client.set_tenant("clone");
    match client
        .call(&Request::Restore {
            snapshot: snapshot.clone(),
        })
        .unwrap()
    {
        Response::Restored {
            links,
            paths,
            intervals,
        } => {
            assert_eq!(links, 4);
            assert_eq!(paths, 3);
            assert_eq!(intervals, 60);
        }
        other => panic!("expected Restored, got {other:?}"),
    }
    let after = client.query().unwrap();
    assert_eq!(after.intervals, before.intervals);
    for (a, b) in after.probabilities.iter().zip(&before.probabilities) {
        assert!((a - b).abs() < 1e-9);
    }

    // Restoring over an occupied id is a typed conflict.
    match client.call(&Request::Restore { snapshot }).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::TenantExists),
        other => panic!("expected TenantExists, got {other:?}"),
    }

    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    handle.join().unwrap();
}

#[test]
fn thread_count_stays_flat_as_connections_pile_up() {
    tomo_net::raise_nofile_limit(2048).ok();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(default_registry(RegistryConfig::default())),
        4,
    )
    .unwrap();
    let local = server.local_addr().unwrap();
    let addr = local.to_string();
    // The event loop runs on this named thread; the server names its
    // workers after the port. A thread spawned by either inherits its name.
    let io_name = format!("serve-io:{}", local.port());
    let worker_name = format!("serve-w:{}", local.port());
    let handle = std::thread::Builder::new()
        .name(io_name.clone())
        .spawn(move || server.run().expect("server runs"))
        .unwrap();
    let thread_count = || threads_named(&io_name) + threads_named(&worker_name);

    // Warm up: one round trip so the loop and pool threads all exist.
    let mut warm = Client::connect(&addr).unwrap();
    warm.set_tenant("default");
    warm.stats().unwrap();
    let baseline = thread_count();
    assert_eq!(baseline, 1 + 4, "one event-loop thread and four workers");

    // 300 live connections, each exercised once. A thread-per-connection
    // server would add ~300 threads here; the event-driven one adds zero.
    let mut clients = Vec::new();
    for _ in 0..300 {
        let mut c = Client::connect(&addr).unwrap();
        c.set_tenant("default");
        c.stats().unwrap();
        clients.push(c);
    }
    let with_connections = thread_count();
    assert_eq!(
        with_connections, baseline,
        "thread count grew with connection count ({baseline} -> {with_connections})"
    );

    drop(clients);
    assert!(matches!(
        warm.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    handle.join().unwrap();
}
