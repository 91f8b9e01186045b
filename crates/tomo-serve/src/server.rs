//! The TCP front end: a `tomo-net` event loop feeding the `tomo-sweep`
//! worker pool, dispatching v2 envelopes to the sharded [`EngineRegistry`].
//!
//! The connection layer is event-driven (C10K): a **single I/O thread**
//! owns every socket through the readiness-polled
//! [`tomo_net::EventLoop`], so ten thousand mostly idle monitoring
//! sessions cost ten thousand file descriptors — not ten thousand
//! threads. Complete request lines are framed on the I/O thread and handed
//! to the fixed-size worker pool, which does only CPU work (parse,
//! dispatch, estimate) and queues each response back through the loop's
//! [`tomo_net::Sender`]. Total thread count is `1 + threads`, independent
//! of the connection count.
//!
//! Per-connection ordering is preserved without dedicating a worker per
//! connection: each connection keeps a queue of pending request lines and
//! at most one in-flight pool job drains it (the job that finds the queue
//! empty unflags itself; the next arriving line submits a fresh job) — the
//! same drain-on-first-enqueuer shape the registry uses for ingest.
//!
//! Wire semantics are unchanged from the thread-per-connection server:
//! every request line produces exactly one response line in order, `Attach`
//! binds a default tenant, ingest backpressure still answers `Busy`, and
//! `Shutdown` drains pending responses (the `Bye` is delivered) before the
//! daemon stops. One addition: a connection limit (`--max-conns`) rejects
//! surplus connections with a typed `Overloaded` error envelope instead of
//! accepting unboundedly.
//!
//! Observability and deadlines ride the same path: each pending line
//! carries its enqueue timestamp, and an envelope `deadline_ms` is checked
//! **at dequeue** — a request that sat in the connection queue past its
//! deadline answers a typed `Timeout` error without ever dispatching, so a
//! stalled worker pool sheds stale work instead of executing it late. The
//! fleet-level `Metrics` request snapshots the registry's per-tenant
//! instruments together with the event loop's I/O counters.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tomo_core::{SessionConfig, SessionEstimate, TomoError, TomographySession};
use tomo_net::{ConnId, EventLoop, NetConfig, NetCounters, Sender, Service};
use tomo_sweep::WorkerPool;

use crate::protocol::{
    decode, decode_request, encode, ErrorKind, MetricsReport, NetMetrics, Request, RequestEnvelope,
    Response, ResponseEnvelope, TenantStats, TopologyInfoReport, TopologySource, PROTOCOL_VERSION,
};
use crate::registry::{EngineRegistry, TenantId};

/// The daemon: event loop + sharded registry + CPU worker pool.
pub struct Server {
    event_loop: EventLoop,
    registry: Arc<EngineRegistry>,
    shutdown: Arc<AtomicBool>,
    pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds the daemon to `addr` (e.g. `127.0.0.1:7070`; port 0 picks an
    /// ephemeral port, see [`Server::local_addr`]). `threads` sizes the CPU
    /// worker pool — connections are multiplexed on one I/O thread and do
    /// **not** occupy workers while idle. The workers are named
    /// `serve-w:<port>`, so a process hosting several daemons can tell their
    /// threads apart.
    pub fn bind(
        addr: &str,
        registry: Arc<EngineRegistry>,
        threads: usize,
    ) -> Result<Self, TomoError> {
        Self::bind_with_limit(addr, registry, threads, None)
    }

    /// [`Server::bind`] with a connection limit: at most `max_conns` live
    /// connections; surplus accepts get one `Overloaded` error envelope
    /// and are closed.
    pub fn bind_with_limit(
        addr: &str,
        registry: Arc<EngineRegistry>,
        threads: usize,
        max_conns: Option<usize>,
    ) -> Result<Self, TomoError> {
        let config = NetConfig {
            max_conns,
            ..NetConfig::default()
        };
        let event_loop = EventLoop::bind(addr, config).map_err(TomoError::from)?;
        let shutdown = event_loop.shutdown_flag();
        let port = event_loop.local_addr()?.port();
        Ok(Self {
            event_loop,
            registry,
            shutdown,
            pool: Arc::new(WorkerPool::new(threads, &format!("serve-w:{port}"))),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TomoError> {
        Ok(self.event_loop.local_addr()?)
    }

    /// The shared shutdown flag; setting it stops the daemon within one
    /// poll interval.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The registry the server dispatches to.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.registry
    }

    /// Runs the event loop until a client sends `Shutdown` (or the
    /// shutdown flag is raised externally). Pending responses are drained
    /// before returning; every tenant is snapshotted on the way out when
    /// snapshotting is configured.
    pub fn run(self) -> Result<(), TomoError> {
        let Server {
            event_loop,
            registry,
            pool,
            ..
        } = self;
        let service = ServeService {
            registry: Arc::clone(&registry),
            pool: Arc::clone(&pool),
            sender: event_loop.sender(),
            shutdown: event_loop.shutdown_flag(),
            // Grabbed before `run` consumes the loop; workers read it when
            // serving fleet `Metrics`.
            net: event_loop.counters(),
            conns: Mutex::new(HashMap::new()),
        };
        event_loop.run(&service).map_err(TomoError::from)?;
        pool.wait_idle();
        registry.shutdown();
        Ok(())
    }
}

/// Per-connection state: the request queue feeding the worker pool and the
/// connection's tenant attachment.
struct ConnCtx {
    inner: Mutex<ConnInner>,
}

struct ConnInner {
    /// Request lines framed but not yet dispatched, oldest first, each
    /// stamped with its arrival time so `deadline_ms` is measured from
    /// when the request entered the queue (what the client experiences),
    /// not from when a worker happened to pick it up.
    pending: VecDeque<(String, Instant)>,
    /// Whether a pool job is currently draining `pending` (at most one per
    /// connection — this is what keeps responses in request order).
    processing: bool,
    /// The connection's default tenant, bound by `Attach`.
    attached: Option<TenantId>,
    /// The entry whose `live_conns` this connection currently counts
    /// toward (kept as the entry so the decrement works even after the
    /// tenant is dropped from the registry).
    counted: Option<Arc<crate::registry::TenantEntry>>,
    /// Set by `on_close`; late attachment updates must not re-increment.
    closed: bool,
}

/// The [`Service`] bridging the event loop to the registry.
struct ServeService {
    registry: Arc<EngineRegistry>,
    pool: Arc<WorkerPool>,
    sender: Sender,
    shutdown: Arc<AtomicBool>,
    net: Arc<NetCounters>,
    conns: Mutex<HashMap<ConnId, Arc<ConnCtx>>>,
}

impl Service for ServeService {
    fn on_open(&self, conn: ConnId, _peer: std::net::SocketAddr) {
        self.registry.conn_opened();
        self.conns.lock().expect("conn map lock").insert(
            conn,
            Arc::new(ConnCtx {
                inner: Mutex::new(ConnInner {
                    pending: VecDeque::new(),
                    processing: false,
                    attached: None,
                    counted: None,
                    closed: false,
                }),
            }),
        );
    }

    fn on_line(&self, conn: ConnId, line: String) {
        if line.trim().is_empty() {
            // Blank lines are ignored without a response (as before).
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
            inner.pending.push_back((line, Instant::now()));
            if inner.processing {
                false
            } else {
                inner.processing = true;
                true
            }
        };
        if submit {
            let registry = Arc::clone(&self.registry);
            let sender = self.sender.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let net = Arc::clone(&self.net);
            let job = move || drain_conn(&registry, &ctx, conn, &sender, &shutdown, &net);
            if let Err(e) = self.pool.submit(job) {
                eprintln!("tomo-serve: cannot schedule connection work: {e}");
            }
        }
    }

    fn on_close(&self, conn: ConnId) {
        self.registry.conn_closed();
        let ctx = self.conns.lock().expect("conn map lock").remove(&conn);
        if let Some(ctx) = ctx {
            let mut inner = ctx.inner.lock().expect("conn ctx lock");
            inner.closed = true;
            inner.pending.clear();
            if let Some(entry) = inner.counted.take() {
                entry.detach_conn();
            }
        }
    }

    fn overload_line(&self) -> Option<String> {
        Some(encode(&ResponseEnvelope::new(
            None,
            Response::error(
                ErrorKind::Overloaded,
                "connection limit reached (--max-conns); retry later or on another backend",
            ),
        )))
    }
}

/// Worker-pool job: drains one connection's pending request lines in
/// order, dispatching each and queueing the response back through the
/// event loop. Exactly one runs per connection at a time.
fn drain_conn(
    registry: &Arc<EngineRegistry>,
    ctx: &Arc<ConnCtx>,
    conn: ConnId,
    sender: &Sender,
    shutdown: &AtomicBool,
    net: &NetCounters,
) {
    loop {
        let (line, received, mut attached) = {
            let mut inner = ctx.inner.lock().expect("conn ctx lock");
            match inner.pending.pop_front() {
                Some((line, received)) => (line, received, inner.attached.clone()),
                None => {
                    inner.processing = false;
                    return;
                }
            }
        };
        let attached_before = attached.clone();
        let (tenant, response) = match decode_request(&line) {
            Ok(envelope) => {
                // Deadline check happens here, at dequeue: if the request
                // sat in the connection queue past its deadline, answer
                // `Timeout` without dispatching — stale work is never
                // executed.
                let expired = envelope
                    .deadline_ms
                    .is_some_and(|ms| received.elapsed().as_millis() as u64 >= ms);
                if expired {
                    timeout_response(registry, &envelope, attached.as_ref())
                } else {
                    dispatch(registry, envelope, received, &mut attached, shutdown, net)
                }
            }
            Err(error_response) => (None, *error_response),
        };
        if attached != attached_before {
            update_attachment(registry, ctx, attached);
        }
        let stop = matches!(response, Response::Bye);
        let envelope = ResponseEnvelope::new(tenant, response);
        if stop {
            sender.send_then_close(conn, encode(&envelope));
            // `Shutdown` already raised the flag; the queued `Bye` wakes
            // the loop, which drains pending writes and exits.
        } else {
            sender.send(conn, encode(&envelope));
        }
    }
}

/// Applies an attachment change to the connection's live-conn accounting:
/// the previously counted tenant loses this connection, the newly attached
/// one (if it still exists and the connection is still open) gains it.
fn update_attachment(
    registry: &Arc<EngineRegistry>,
    ctx: &Arc<ConnCtx>,
    attached: Option<TenantId>,
) {
    let entry = attached.as_ref().and_then(|id| registry.lookup(id));
    let mut inner = ctx.inner.lock().expect("conn ctx lock");
    inner.attached = attached;
    if let Some(old) = inner.counted.take() {
        old.detach_conn();
    }
    if !inner.closed {
        if let Some(entry) = entry {
            entry.attach_conn();
            inner.counted = Some(entry);
        }
    }
}

/// Builds the `Timeout` error for a request whose deadline expired while
/// it waited in the connection queue, charging the timeout to the tenant's
/// instruments when the envelope (or attachment) names one that exists.
fn timeout_response(
    registry: &Arc<EngineRegistry>,
    envelope: &RequestEnvelope,
    attached: Option<&TenantId>,
) -> (Option<String>, Response) {
    let echo = envelope
        .tenant
        .clone()
        .or_else(|| attached.map(|id| id.as_str().to_string()));
    let entry = echo
        .as_deref()
        .and_then(|id| TenantId::new(id.to_string()).ok())
        .and_then(|id| registry.lookup(&id));
    match entry {
        Some(entry) => registry.record_timeout(&entry),
        None => registry.record_anonymous_timeout(),
    }
    let deadline = envelope.deadline_ms.unwrap_or(0);
    (
        echo,
        Response::error(
            ErrorKind::Timeout,
            format!("deadline of {deadline}ms expired before the request was dequeued"),
        ),
    )
}

/// Converts the event loop's counter snapshot into the wire shape.
fn net_metrics(net: &NetCounters) -> NetMetrics {
    let snap = net.snapshot();
    NetMetrics {
        accepted: snap.accepted,
        rejected_overload: snap.rejected_overload,
        lines_in: snap.lines_in,
        lines_out: snap.lines_out,
        bytes_in: snap.bytes_in,
        bytes_out: snap.bytes_out,
    }
}

/// Handles one decoded envelope, returning the tenant to echo and the
/// response. `received` is when the request line entered the connection
/// queue; together with the envelope's `deadline_ms` it carries the
/// deadline through to queued ingest batches.
fn dispatch(
    registry: &Arc<EngineRegistry>,
    envelope: RequestEnvelope,
    received: Instant,
    attached: &mut Option<TenantId>,
    shutdown: &AtomicBool,
    net: &NetCounters,
) -> (Option<String>, Response) {
    let RequestEnvelope {
        tenant,
        deadline_ms,
        req,
        ..
    } = envelope;
    // Ingest batches inherit the request deadline: a batch still queued
    // when it expires is dropped at drain time (counted as a timeout)
    // rather than estimated late.
    let deadline = deadline_ms.and_then(|ms| received.checked_add(Duration::from_millis(ms)));

    // Fleet-level requests ignore the tenant field.
    match &req {
        Request::ListTenants => {
            return (
                None,
                Response::Tenants {
                    tenants: registry.list(),
                },
            )
        }
        Request::FleetStats => return (None, Response::Fleet(registry.fleet_stats())),
        Request::Metrics => {
            return (
                None,
                Response::Metrics(registry.metrics(Some(net_metrics(net)))),
            )
        }
        Request::SnapshotAll => {
            let written = registry.snapshot_all();
            return (
                None,
                Response::Snapshotted {
                    path: written.join(","),
                },
            );
        }
        Request::UploadTopology { name, topology } => {
            return (
                None,
                match registry.upload_topology(name, topology.clone()) {
                    Ok(report) => Response::TopologyAccepted {
                        name: name.trim().to_ascii_lowercase(),
                        links: report.links,
                        paths: report.paths,
                        hash: report.hash,
                    },
                    Err(e) => Response::from_error(&e),
                },
            )
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::Relaxed);
            return (None, Response::Bye);
        }
        _ => {}
    }

    // Everything else is tenant-scoped: resolve the explicit tenant or the
    // connection's attachment.
    let id =
        match tenant
            .map(TenantId::new)
            .or_else(|| attached.clone().map(Ok))
        {
            Some(Ok(id)) => id,
            Some(Err(e)) => return (None, Response::from_error(&e)),
            None => return (
                None,
                Response::error(
                    ErrorKind::InvalidRequest,
                    "request needs a tenant: set the envelope's `tenant` field or `Attach` first",
                ),
            ),
        };
    let echo = Some(id.as_str().to_string());

    let response = match req {
        Request::Create {
            topology,
            seed,
            estimator,
            window,
            decay,
            options,
            admission,
            rebuild,
        } => {
            let network = match registry.resolve_topology_source(&topology, seed.unwrap_or(0)) {
                Ok(network) => network,
                Err(e) => return (echo, Response::from_error(&e)),
            };
            let config = SessionConfig {
                estimator: estimator.unwrap_or_else(|| "independence".into()),
                options: options.unwrap_or_default(),
                window_capacity: window,
                decay,
                rebuild: rebuild.unwrap_or_default(),
            };
            let session = match TomographySession::new(network, config) {
                Ok(session) => session,
                Err(e) => return (echo, Response::from_error(&e)),
            };
            match registry.create_with_admission(id, session, admission) {
                Ok(entry) => Response::Created {
                    links: entry.num_links(),
                    paths: entry.num_paths(),
                },
                Err(e) => Response::error(ErrorKind::TenantExists, e.to_string()),
            }
        }
        Request::Restore { snapshot } => {
            if registry.lookup(&id).is_some() {
                Response::error(
                    ErrorKind::TenantExists,
                    format!("tenant `{id}` already exists; drop it before restoring"),
                )
            } else {
                match registry.restore_tenant(id, &snapshot) {
                    Ok(entry) => Response::Restored {
                        links: entry.num_links(),
                        paths: entry.num_paths(),
                        intervals: registry.stats(&entry).session.total_ingested,
                    },
                    Err(e) => Response::from_error(&e),
                }
            }
        }
        Request::Drop => match registry.drop_tenant(&id) {
            Ok(()) => {
                if attached.as_ref() == Some(&id) {
                    *attached = None;
                }
                Response::Dropped
            }
            Err(e) => Response::error(ErrorKind::UnknownTenant, e.to_string()),
        },
        other => {
            let Some(entry) = registry.lookup(&id) else {
                return (
                    echo,
                    Response::error(ErrorKind::UnknownTenant, format!("unknown tenant `{id}`")),
                );
            };
            match other {
                Request::Attach => {
                    *attached = Some(id.clone());
                    Response::Attached {
                        links: entry.num_links(),
                        paths: entry.num_paths(),
                    }
                }
                Request::Observe { congested } => {
                    registry.observe_deadline(&entry, vec![congested], deadline)
                }
                Request::ObserveBatch { intervals } => {
                    registry.observe_deadline(&entry, intervals, deadline)
                }
                Request::Flush => Response::Flushed {
                    intervals: registry.flush(&entry),
                },
                Request::Query => registry.query(&entry),
                Request::Infer { congested } => registry.infer(&entry, &congested),
                Request::Stats => Response::Stats(registry.stats(&entry)),
                Request::TopologyInfo => match registry.topology_info(&entry) {
                    Ok(info) => Response::Topology(info),
                    Err(e) => Response::from_error(&e),
                },
                Request::Snapshot => match registry.snapshot_tenant(&entry) {
                    Ok(Some(path)) => Response::Snapshotted { path },
                    Ok(None) => Response::error(
                        ErrorKind::InvalidRequest,
                        "no snapshot directory configured (start the daemon with --snapshot-dir)",
                    ),
                    Err(e) => Response::from_error(&e),
                },
                // Handled before tenant resolution.
                Request::Create { .. }
                | Request::Restore { .. }
                | Request::Drop
                | Request::ListTenants
                | Request::FleetStats
                | Request::Metrics
                | Request::SnapshotAll
                | Request::UploadTopology { .. }
                | Request::Shutdown => unreachable!("handled before tenant resolution"),
            }
        }
    };
    (echo, response)
}

/// A minimal synchronous v2 client for the daemon protocol, used by the
/// `probe-client` binary and the integration tests. The client tracks a
/// current tenant and stamps it into every envelope.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tenant: Option<String>,
    deadline_ms: Option<u64>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: &str) -> Result<Self, TomoError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            tenant: None,
            deadline_ms: None,
        })
    }

    /// Sets the tenant stamped into subsequent request envelopes.
    pub fn set_tenant(&mut self, tenant: impl Into<String>) {
        self.tenant = Some(tenant.into());
    }

    /// The tenant currently stamped into request envelopes.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Sets (or clears) the `deadline_ms` stamped into subsequent request
    /// envelopes. A request still queued server-side when its deadline
    /// expires answers a `Timeout` error instead of executing.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Sends one request envelope and reads the matching response envelope,
    /// returning its `resp` field.
    pub fn call(&mut self, request: &Request) -> Result<Response, TomoError> {
        let envelope = RequestEnvelope {
            v: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
            deadline_ms: self.deadline_ms,
            req: request.clone(),
        };
        writeln!(self.writer, "{}", encode(&envelope))?;
        self.writer.flush()?;
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(TomoError::Io("daemon closed the connection".into()));
        }
        let envelope: ResponseEnvelope = decode(&line)?;
        Ok(envelope.resp)
    }

    /// Convenience: create a tenant with the given topology name and
    /// estimator (and set it as the client's current tenant).
    pub fn create_tenant(
        &mut self,
        tenant: impl Into<String>,
        topology: &str,
        seed: u64,
        estimator: &str,
        window: Option<usize>,
        decay: Option<f64>,
    ) -> Result<(usize, usize), TomoError> {
        self.create_tenant_from(
            tenant,
            TopologySource::Named(topology.into()),
            seed,
            estimator,
            window,
            decay,
            None,
        )
    }

    /// [`Client::create_tenant`] generalized over the topology source
    /// (named or inline document) and the rebuild-on-drift policy.
    #[allow(clippy::too_many_arguments)]
    pub fn create_tenant_from(
        &mut self,
        tenant: impl Into<String>,
        topology: TopologySource,
        seed: u64,
        estimator: &str,
        window: Option<usize>,
        decay: Option<f64>,
        rebuild: Option<tomo_core::RebuildPolicy>,
    ) -> Result<(usize, usize), TomoError> {
        self.set_tenant(tenant);
        match self.call(&Request::Create {
            topology,
            seed: Some(seed),
            estimator: Some(estimator.into()),
            window,
            decay,
            options: None,
            admission: None,
            rebuild,
        })? {
            Response::Created { links, paths } => Ok((links, paths)),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: upload a validated topology document into the daemon's
    /// library under `name`, returning `(links, paths, hash)`.
    pub fn upload_topology(
        &mut self,
        name: &str,
        topology: tomo_topo::TopologyDoc,
    ) -> Result<(usize, usize, String), TomoError> {
        match self.call(&Request::UploadTopology {
            name: name.into(),
            topology,
        })? {
            Response::TopologyAccepted {
                links, paths, hash, ..
            } => Ok((links, paths, hash)),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: fetch the tenant's topology lifecycle report (coverage,
    /// alias sets, rebuild policy, drift state).
    pub fn topology_info(&mut self) -> Result<TopologyInfoReport, TomoError> {
        match self.call(&Request::TopologyInfo)? {
            Response::Topology(info) => Ok(info),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: enqueue a batch of intervals. `Ok(true)` when accepted,
    /// `Ok(false)` when the tenant's ingest queue was full (`Busy`).
    pub fn observe_batch(&mut self, intervals: Vec<Vec<usize>>) -> Result<bool, TomoError> {
        match self.call(&Request::ObserveBatch { intervals })? {
            Response::Accepted { .. } => Ok(true),
            Response::Busy { .. } => Ok(false),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: block until the tenant's ingest queue drains, returning
    /// the lifetime interval count.
    pub fn flush(&mut self) -> Result<u64, TomoError> {
        match self.call(&Request::Flush)? {
            Response::Flushed { intervals } => Ok(intervals),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: query the tenant's current estimate.
    pub fn query(&mut self) -> Result<SessionEstimate, TomoError> {
        match self.call(&Request::Query)? {
            Response::Estimate(estimate) => Ok(estimate),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: fetch the tenant's statistics.
    pub fn stats(&mut self) -> Result<TenantStats, TomoError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Convenience: fetch the fleet-level metrics report (per-tenant
    /// latency histograms, queue depths, shed/timeout counters, and the
    /// daemon's network I/O counters).
    pub fn metrics(&mut self) -> Result<MetricsReport, TomoError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            Response::Error { message, .. } => Err(TomoError::InvalidConfig(message)),
            other => Err(TomoError::InvalidConfig(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}
