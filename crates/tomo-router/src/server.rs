//! The router daemon: an event-driven v2 proxy in front of a `tomo-serve`
//! fleet.
//!
//! Client connections terminate on the router's own `tomo-net` event loop
//! (same C10K architecture as the daemon: one I/O thread, fixed worker
//! pool). Each request line is decoded just enough to route it:
//!
//! * tenant-scoped requests go to the backend owning the tenant on the
//!   consistent-hash ring, over a pooled connection, and the backend's
//!   response line is forwarded to the client verbatim;
//! * fleet-level requests (`ListTenants`, `FleetStats`, `Metrics`,
//!   `SnapshotAll`) fan out to every backend and the responses are merged
//!   (metrics histograms merge bucket-wise, so fleet quantiles are exact,
//!   not averaged);
//! * `Shutdown` fans out to every backend, answers `Bye`, then stops the
//!   router itself.
//!
//! Because backend connections are shared across clients, the router — not
//! the backend — owns `Attach` state: it records the client connection's
//! attachment and stamps the tenant explicitly into every forwarded
//! envelope, so a pooled backend connection never carries per-client
//! state. Wire semantics for the client are identical to talking to a
//! single daemon (same envelopes, same error taxonomy, same `Busy`/`Flush`
//! backpressure — a `Busy` from the owning backend is forwarded as-is).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tomo_core::TomoError;
use tomo_net::{ConnId, EventLoop, NetConfig, Sender, Service};
use tomo_serve::protocol::{
    decode_request, encode, ErrorKind, Request, RequestEnvelope, Response, ResponseEnvelope,
    PROTOCOL_VERSION,
};
use tomo_sweep::WorkerPool;

use crate::fleet::{merge_fleet_stats, merge_metrics, merge_tenant_lists, response_of, Fleet};

/// The router daemon: event loop + fleet + worker pool.
pub struct Router {
    event_loop: EventLoop,
    fleet: Arc<Fleet>,
    pool: Arc<WorkerPool>,
}

impl Router {
    /// Binds the router to `addr`, fronting `fleet`. `threads` sizes the
    /// proxy worker pool; `max_conns` bounds client connections (surplus
    /// accepts get a typed `Overloaded` envelope, exactly like the
    /// daemon's own limit). The workers are named `route-w:<port>`.
    pub fn bind(
        addr: &str,
        fleet: Fleet,
        threads: usize,
        max_conns: Option<usize>,
    ) -> Result<Self, TomoError> {
        let config = NetConfig {
            max_conns,
            ..NetConfig::default()
        };
        let event_loop = EventLoop::bind(addr, config)?;
        let port = event_loop.local_addr()?.port();
        Ok(Self {
            event_loop,
            fleet: Arc::new(fleet),
            pool: Arc::new(WorkerPool::new(threads, &format!("route-w:{port}"))),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TomoError> {
        Ok(self.event_loop.local_addr()?)
    }

    /// The shared shutdown flag; setting it stops the router within one
    /// poll interval.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.event_loop.shutdown_flag()
    }

    /// The fleet the router proxies to.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Runs the router until a client sends `Shutdown` (which also stops
    /// every backend) or the shutdown flag is raised externally.
    pub fn run(self) -> Result<(), TomoError> {
        let Router {
            event_loop,
            fleet,
            pool,
        } = self;
        let service = RouterService {
            fleet,
            pool: Arc::clone(&pool),
            sender: event_loop.sender(),
            shutdown: event_loop.shutdown_flag(),
            conns: Mutex::new(HashMap::new()),
        };
        event_loop.run(&service)?;
        pool.wait_idle();
        Ok(())
    }
}

/// Per-client-connection state.
struct ConnCtx {
    inner: Mutex<ConnInner>,
}

struct ConnInner {
    pending: VecDeque<String>,
    processing: bool,
    /// The client connection's default tenant, bound by `Attach`. Owned by
    /// the router because backend connections are pooled.
    attached: Option<String>,
}

struct RouterService {
    fleet: Arc<Fleet>,
    pool: Arc<WorkerPool>,
    sender: Sender,
    shutdown: Arc<AtomicBool>,
    conns: Mutex<HashMap<ConnId, Arc<ConnCtx>>>,
}

impl Service for RouterService {
    fn on_open(&self, conn: ConnId, _peer: std::net::SocketAddr) {
        self.conns.lock().expect("conn map lock").insert(
            conn,
            Arc::new(ConnCtx {
                inner: Mutex::new(ConnInner {
                    pending: VecDeque::new(),
                    processing: false,
                    attached: None,
                }),
            }),
        );
    }

    fn on_line(&self, conn: ConnId, line: String) {
        if line.trim().is_empty() {
            return;
        }
        let Some(ctx) = self
            .conns
            .lock()
            .expect("conn map lock")
            .get(&conn)
            .cloned()
        else {
            return;
        };
        let submit = {
            let mut inner = ctx.inner.lock().expect("conn ctx lock");
            inner.pending.push_back(line);
            if inner.processing {
                false
            } else {
                inner.processing = true;
                true
            }
        };
        if submit {
            let fleet = Arc::clone(&self.fleet);
            let sender = self.sender.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let job = move || drain_conn(&fleet, &ctx, conn, &sender, &shutdown);
            if let Err(e) = self.pool.submit(job) {
                eprintln!("tomo-router: cannot schedule proxy work: {e}");
            }
        }
    }

    fn on_close(&self, conn: ConnId) {
        self.conns.lock().expect("conn map lock").remove(&conn);
    }

    fn overload_line(&self) -> Option<String> {
        Some(encode(&ResponseEnvelope::new(
            None,
            Response::error(
                ErrorKind::Overloaded,
                "router connection limit reached (--max-conns); retry later",
            ),
        )))
    }
}

/// Worker-pool job: drains one client connection's pending lines in order.
fn drain_conn(
    fleet: &Arc<Fleet>,
    ctx: &Arc<ConnCtx>,
    conn: ConnId,
    sender: &Sender,
    shutdown: &AtomicBool,
) {
    loop {
        let (line, attached) = {
            let mut inner = ctx.inner.lock().expect("conn ctx lock");
            match inner.pending.pop_front() {
                Some(line) => (line, inner.attached.clone()),
                None => {
                    inner.processing = false;
                    return;
                }
            }
        };
        let outcome = route_line(fleet, &line, attached, shutdown);
        {
            let mut inner = ctx.inner.lock().expect("conn ctx lock");
            inner.attached = outcome.attached;
        }
        if outcome.stop {
            sender.send_then_close(conn, outcome.response_line);
        } else {
            sender.send(conn, outcome.response_line);
        }
    }
}

/// What routing one request line produced.
struct RouteOutcome {
    /// The response line to write to the client.
    response_line: String,
    /// The connection's (possibly updated) attachment.
    attached: Option<String>,
    /// Close the client connection after writing (`Bye`).
    stop: bool,
}

impl RouteOutcome {
    fn reply(resp: Response, tenant: Option<String>, attached: Option<String>) -> Self {
        Self {
            response_line: encode(&ResponseEnvelope::new(tenant, resp)),
            attached,
            stop: false,
        }
    }
}

/// Routes one decoded request line. Pure fleet I/O — no event-loop state —
/// so it is directly unit-testable against live backends.
fn route_line(
    fleet: &Arc<Fleet>,
    line: &str,
    attached: Option<String>,
    shutdown: &AtomicBool,
) -> RouteOutcome {
    let envelope = match decode_request(line) {
        Ok(envelope) => envelope,
        Err(error_response) => return RouteOutcome::reply(*error_response, None, attached),
    };
    let RequestEnvelope {
        tenant,
        deadline_ms,
        req,
        ..
    } = envelope;

    // Fleet-level requests: fan out and merge. The client's deadline is
    // not forwarded on fan-outs — a partial fleet answer is worse than a
    // slightly late merged one.
    match &req {
        // UploadTopology fans out too: `Create` naming an uploaded topology
        // can land on any ring owner, so every backend needs the library
        // entry (uploads are idempotent on the canonical hash, making the
        // broadcast safe to repeat).
        Request::ListTenants
        | Request::FleetStats
        | Request::Metrics
        | Request::SnapshotAll
        | Request::UploadTopology { .. } => {
            let forward = encode(&RequestEnvelope {
                v: PROTOCOL_VERSION,
                tenant: None,
                deadline_ms: None,
                req: req.clone(),
            });
            let results = fleet.fan_out(&forward);
            let mut responses = Vec::with_capacity(results.len());
            for (backend, result) in results {
                match result {
                    Ok(response_line) => responses.push(response_of(&response_line)),
                    Err(e) => {
                        return RouteOutcome::reply(
                            Response::error(
                                ErrorKind::Internal,
                                format!("backend {backend} unreachable: {e}"),
                            ),
                            None,
                            attached,
                        )
                    }
                }
            }
            let merged = merge_backend_responses(&req, responses);
            return RouteOutcome::reply(merged, None, attached);
        }
        Request::Shutdown => {
            // Stop the fleet first, then the router itself. Backend
            // failures are reported but do not block the router's own
            // shutdown.
            let forward = encode(&RequestEnvelope {
                v: PROTOCOL_VERSION,
                tenant: None,
                deadline_ms: None,
                req: Request::Shutdown,
            });
            for (backend, result) in fleet.fan_out(&forward) {
                if let Err(e) = result {
                    eprintln!("tomo-router: backend {backend} shutdown failed: {e}");
                }
            }
            shutdown.store(true, Ordering::Relaxed);
            return RouteOutcome {
                response_line: encode(&ResponseEnvelope::new(None, Response::Bye)),
                attached,
                stop: true,
            };
        }
        _ => {}
    }

    // Tenant-scoped: resolve the tenant, find its owner, forward stamped.
    let Some(tenant) = tenant.or(attached.clone()) else {
        return RouteOutcome::reply(
            Response::error(
                ErrorKind::InvalidRequest,
                "request needs a tenant: set the envelope's `tenant` field or `Attach` first",
            ),
            None,
            attached,
        );
    };
    let Some(owner) = fleet.owner_of(&tenant).map(str::to_string) else {
        return RouteOutcome::reply(
            Response::error(ErrorKind::Internal, "router has an empty backend fleet"),
            Some(tenant),
            attached,
        );
    };
    // Tenant-scoped forwards keep the client's deadline: the backend
    // restarts the clock from its own enqueue time, so router transit
    // isn't charged against it, but a request stuck in a backend queue
    // still times out there.
    let forward = encode(&RequestEnvelope {
        v: PROTOCOL_VERSION,
        tenant: Some(tenant.clone()),
        deadline_ms,
        req: req.clone(),
    });
    let response_line = match fleet.call(&owner, &forward) {
        Ok(response_line) => response_line,
        Err(e) => {
            return RouteOutcome::reply(
                Response::error(
                    ErrorKind::Internal,
                    format!("backend {owner} unreachable: {e}"),
                ),
                Some(tenant),
                attached,
            )
        }
    };

    // Track attachment changes router-side; the backend's response line is
    // forwarded to the client verbatim.
    let attached = match (&req, response_of(&response_line)) {
        (Request::Attach, Response::Attached { .. }) => Some(tenant),
        (Request::Drop, Response::Dropped) if attached.as_deref() == Some(tenant.as_str()) => None,
        _ => attached,
    };
    RouteOutcome {
        response_line,
        attached,
        stop: false,
    }
}

/// Merges fan-out responses for one fleet-level request kind. A backend
/// answering with an error envelope fails the merge with that error.
fn merge_backend_responses(req: &Request, responses: Vec<Response>) -> Response {
    for resp in &responses {
        if let Response::Error { kind, message } = resp {
            return Response::error(*kind, format!("backend error: {message}"));
        }
    }
    match req {
        Request::ListTenants => {
            let mut parts = Vec::with_capacity(responses.len());
            for resp in responses {
                match resp {
                    Response::Tenants { tenants } => parts.push(tenants),
                    other => {
                        return Response::error(
                            ErrorKind::Internal,
                            format!("unexpected backend response {other:?}"),
                        )
                    }
                }
            }
            Response::Tenants {
                tenants: merge_tenant_lists(&parts),
            }
        }
        Request::FleetStats => {
            let mut parts = Vec::with_capacity(responses.len());
            for resp in responses {
                match resp {
                    Response::Fleet(stats) => parts.push(stats),
                    other => {
                        return Response::error(
                            ErrorKind::Internal,
                            format!("unexpected backend response {other:?}"),
                        )
                    }
                }
            }
            Response::Fleet(merge_fleet_stats(&parts))
        }
        Request::Metrics => {
            let mut parts = Vec::with_capacity(responses.len());
            for resp in responses {
                match resp {
                    Response::Metrics(report) => parts.push(report),
                    other => {
                        return Response::error(
                            ErrorKind::Internal,
                            format!("unexpected backend response {other:?}"),
                        )
                    }
                }
            }
            Response::Metrics(merge_metrics(&parts))
        }
        Request::SnapshotAll => {
            let mut paths = Vec::new();
            for resp in responses {
                match resp {
                    Response::Snapshotted { path } => {
                        if !path.is_empty() {
                            paths.push(path);
                        }
                    }
                    other => {
                        return Response::error(
                            ErrorKind::Internal,
                            format!("unexpected backend response {other:?}"),
                        )
                    }
                }
            }
            Response::Snapshotted {
                path: paths.join(","),
            }
        }
        Request::UploadTopology { .. } => {
            // Every backend validated the same document; their canonical
            // hashes must agree, and any one acceptance represents all.
            let mut first: Option<(String, usize, usize, String)> = None;
            for resp in responses {
                match resp {
                    Response::TopologyAccepted {
                        name,
                        links,
                        paths,
                        hash,
                    } => match &first {
                        None => first = Some((name, links, paths, hash)),
                        Some((_, _, _, h)) if *h == hash => {}
                        Some(_) => {
                            return Response::error(
                                ErrorKind::Internal,
                                "backends disagree on the uploaded topology structure",
                            )
                        }
                    },
                    other => {
                        return Response::error(
                            ErrorKind::Internal,
                            format!("unexpected backend response {other:?}"),
                        )
                    }
                }
            }
            match first {
                Some((name, links, paths, hash)) => Response::TopologyAccepted {
                    name,
                    links,
                    paths,
                    hash,
                },
                None => Response::error(ErrorKind::Internal, "router has an empty backend fleet"),
            }
        }
        other => Response::error(
            ErrorKind::Internal,
            format!("request {other:?} is not a fan-out request"),
        ),
    }
}
