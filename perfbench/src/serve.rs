//! The `serve-stream` and `serve-routed` workloads: the daemon as deployed.
//!
//! An in-process daemon (`tomo_serve::Server`) listens on loopback; for
//! `serve-routed` two daemons sit behind an in-process `tomo_router::Router`
//! and the load goes through the router. Eight tenants are created over the
//! wire from inline ~300-link Brite documents, four `independence` and four
//! `correlation-complete`, each with a 500-interval window. Each tenant
//! replays a pre-simulated drifting-loss stream as 10-interval
//! `ObserveBatch`es, with one `Query` to the same tenant per four observes:
//! monitors push while dashboards read the same tenants.
//!
//! The load comes from this one process over `LOAD_CONNS` connections, one
//! thread each; each connection owns four tenants. A run has two phases:
//!
//! * an open loop at the fixed offered rate `OPEN_LOOP_RATE`, every
//!   request timed from the moment it was due, for the client latencies of
//!   the traced run and for the accuracy of every query's estimate;
//! * a closed loop (each connection sends its next request when the last
//!   one is answered), for the end-to-end ObserveBatch cost and ingest
//!   rate, both in the process's CPU time.
//!
//! Open-loop response lines are kept raw and decoded after the phase, so the
//! generator's own work stays off the measured path; closed-loop ones are
//! decoded on arrival, between requests. Admin requests
//! (`Metrics`, `FleetStats`, `Flush`, the final `Query`s and `Shutdown`)
//! reuse the first load connection between phases.

use std::collections::VecDeque;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use tomo_core::{estimators, score, SessionConfig, TomoError, TomographySession};
use tomo_graph::{LinkId, Network};
use tomo_metrics::HistogramSnapshot;
use tomo_prob::ProbabilityEstimate;
use tomo_router::{Fleet as RouterFleet, HashRing, Router, DEFAULT_VNODES};
use tomo_serve::protocol::{decode, decode_request, encode, FleetStats, MetricsReport, NetMetrics};
use tomo_serve::{
    EngineRegistry, RegistryConfig, Request, RequestEnvelope, Response, ResponseEnvelope, Server,
    TopologySource, PROTOCOL_VERSION,
};
use tomo_sim::{GroundTruth, PathObservations, ScenarioConfig, SimulationOutput};
use tomo_topo::TopologyDoc;
use tomo_topology::BriteGenerator;

use crate::calib::HostSpeed;
use crate::inputs::{derive_seed, simulate};
use crate::report::{write_spans, LayerMetrics, Report};
use crate::stats::{median, process_cpu_ms, quantile, rss_peak_mb};
use crate::trace::Tracer;

/// Tenants per daemon fleet.
const TENANTS: usize = 8;
/// Target link count of each tenant's Brite topology.
const TENANT_LINKS: usize = 300;
/// Tenant `i`'s topology is `BriteGenerator::sized(TENANT_LINKS, TOPOLOGY_SEED + i)`.
const TOPOLOGY_SEED: u64 = 101;
/// Tenant `i`'s congestible links are placed with seed `PLACEMENT_SEED + i`.
const PLACEMENT_SEED: u64 = 201;
/// Rolling window of every tenant, in intervals.
const WINDOW: usize = 500;
/// Intervals per `ObserveBatch`.
const BATCH: usize = 10;
/// A `Query` follows every `QUERY_EVERY`-th observe of a tenant.
const QUERY_EVERY: usize = 4;
/// Pre-simulated intervals per tenant, replayed cyclically.
const STREAM_LEN: usize = 2000;
/// Offered load of the open-loop phase, in intervals per second across the
/// fleet. A fixed constant, so that a change that slows the daemon shows up
/// as latency at the same offered load. On the 2-core machine the benchmark
/// was defined on, `serve-stream` ran 10-12k intervals/s closed-loop; at
/// half of that the open-loop median moved by a third between runs, so the
/// rate is about a quarter of it.
const OPEN_LOOP_RATE: f64 = 3000.0;
/// Load connections, one generator thread each.
const LOAD_CONNS: usize = 2;
/// Worker-pool threads of each daemon and of the router.
const DAEMON_THREADS: usize = 2;
/// Times the whole set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;
/// Deviation allowed between a tenant's final estimate and an offline batch
/// fit of its last window (the tolerance of the online estimators'
/// `deviation_from_batch` tests).
const BATCH_TOLERANCE: f64 = 1e-5;

/// One tenant as the client knows it.
struct Tenant {
    id: String,
    estimator: &'static str,
    network: Network,
    stream: SimulationOutput,
    /// Encoded `ObserveBatch` lines, batch `b` covering stream intervals
    /// `b * BATCH ..`.
    observe_lines: Vec<String>,
    query_line: String,
    cursor: Cursor,
    /// Stream index of every interval the daemon accepted, in order (the
    /// warm-up window first).
    accepted: Vec<usize>,
}

/// Where a tenant's replay stands.
#[derive(Clone, Copy, Default)]
struct Cursor {
    /// Next batch to send.
    next_batch: usize,
    /// Observes sent since the last query.
    since_query: usize,
}

impl Cursor {
    /// Takes the next batch of a stream of `batches`; also says whether a
    /// query is now due.
    fn take_observe(&mut self, batches: usize) -> (usize, bool) {
        let batch = self.next_batch;
        self.next_batch = (batch + 1) % batches;
        self.since_query += 1;
        let query = self.since_query == QUERY_EVERY;
        if query {
            self.since_query = 0;
        }
        (batch, query)
    }
}

fn envelope_line(tenant: Option<&str>, req: Request) -> String {
    encode(&RequestEnvelope {
        v: PROTOCOL_VERSION,
        tenant: tenant.map(str::to_string),
        deadline_ms: None,
        req,
    })
}

/// Builds tenant `i`: its topology, its congestion stream and its encoded
/// request lines.
fn make_tenant(i: usize, seed: u64, tracer: &mut Tracer) -> Result<Tenant, TomoError> {
    let generator = BriteGenerator::sized(TENANT_LINKS, TOPOLOGY_SEED + i as u64);
    let network = tracer.span("topology.generate", 0, |_| generator.generate())?;
    let scenario = ScenarioConfig::drifting_loss();
    let stream = tracer.span("sim.simulate", 0, |_| {
        simulate(
            &network,
            &scenario,
            STREAM_LEN,
            PLACEMENT_SEED + i as u64,
            derive_seed(seed, i as u64),
        )
    });
    let id = format!("t{i}");
    let observe_lines = (0..STREAM_LEN / BATCH)
        .map(|b| {
            let intervals = (b * BATCH..(b + 1) * BATCH)
                .map(|t| {
                    stream
                        .observations
                        .congested_paths(t)
                        .into_iter()
                        .map(|p| p.index())
                        .collect()
                })
                .collect();
            envelope_line(Some(&id), Request::ObserveBatch { intervals })
        })
        .collect();
    Ok(Tenant {
        query_line: envelope_line(Some(&id), Request::Query),
        id,
        estimator: if i < TENANTS / 2 {
            "independence"
        } else {
            "correlation-complete"
        },
        network,
        stream,
        observe_lines,
        cursor: Cursor::default(),
        accepted: Vec::new(),
    })
}

/// A line-oriented client connection that can wait for a response with a
/// timeout, so one thread can both send on a schedule and read replies.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Request lines written on this connection.
    sent: u64,
    /// Of those, fleet-level requests (no tenant), which a router fans out
    /// to every backend.
    fleet_sent: u64,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            sent: 0,
            fleet_sent: 0,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)?;
        self.sent += 1;
        Ok(())
    }

    /// The next response line, waiting at most `timeout` (`None`: until
    /// one arrives). `Ok(None)` when the wait timed out.
    fn recv(&mut self, timeout: Option<Duration>) -> std::io::Result<Option<String>> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line[..pos]).into_owned()));
            }
            self.stream
                .set_read_timeout(timeout.map(|t| t.max(Duration::from_micros(50))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        IoErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                    if timeout.is_some() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        loop {
            if let Some(line) = self.recv(None)? {
                return Ok(line);
            }
        }
    }

    /// A typed round trip (admin requests).
    fn request(&mut self, tenant: Option<&str>, req: Request) -> Result<Response, String> {
        if tenant.is_none() {
            self.fleet_sent += 1;
        }
        let line = self
            .call(&envelope_line(tenant, req))
            .map_err(|e| format!("I/O: {e}"))?;
        decode::<ResponseEnvelope>(&line)
            .map(|env| env.resp)
            .map_err(|e| format!("undecodable response: {e}"))
    }
}

/// The daemons (and router) of one set-up, running on their own threads.
struct Fleet {
    /// Where the load connects: the daemon, or the router.
    addr: String,
    backends: Vec<String>,
    flags: Vec<Arc<AtomicBool>>,
    threads: Vec<JoinHandle<Result<(), TomoError>>>,
}

impl Fleet {
    fn start(routed: bool) -> Result<Self, TomoError> {
        let daemons = if routed { 2 } else { 1 };
        let mut fleet = Fleet {
            addr: String::new(),
            backends: Vec::new(),
            flags: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..daemons {
            let registry = Arc::new(EngineRegistry::new(RegistryConfig::default()));
            let server = Server::bind("127.0.0.1:0", registry, DAEMON_THREADS)?;
            fleet.backends.push(server.local_addr()?.to_string());
            fleet.flags.push(server.shutdown_flag());
            fleet.threads.push(std::thread::spawn(move || server.run()));
        }
        if routed {
            let router = Router::bind(
                "127.0.0.1:0",
                RouterFleet::with_default_vnodes(&fleet.backends),
                DAEMON_THREADS,
                None,
            )?;
            fleet.addr = router.local_addr()?.to_string();
            fleet.flags.push(router.shutdown_flag());
            fleet.threads.push(std::thread::spawn(move || router.run()));
        } else {
            fleet.addr = fleet.backends[0].clone();
        }
        Ok(fleet)
    }

    /// Stops everything: `Shutdown` over `conn` (through the router it also
    /// stops the backends), then the shutdown flags as a backstop, then
    /// waits for every thread.
    fn stop(self, conn: Option<&mut Conn>) -> Result<(), String> {
        let bye = conn.map(|c| c.request(None, Request::Shutdown));
        for flag in &self.flags {
            flag.store(true, Ordering::SeqCst);
        }
        for t in self.threads {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(format!("daemon exited with an error: {e}")),
                Err(_) => return Err("a daemon thread panicked".into()),
            }
        }
        match bye {
            None | Some(Ok(Response::Bye)) => Ok(()),
            Some(other) => Err(format!("Shutdown answered {other:?}")),
        }
    }
}

/// The two request kinds of the stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Observe,
    Query,
}

/// One request: what it was, when it was due and sent, and its response.
struct Sent {
    kind: Kind,
    tenant: usize,
    batch: usize,
    due: Instant,
    sent: Instant,
    recv: Option<Instant>,
    reply: Option<Reply>,
}

/// A response, as far as the run keeps it.
enum Reply {
    /// The raw line, decoded when the phase ends (open loop).
    Raw(String),
    /// Decoded on arrival, with any estimate's per-link vectors dropped
    /// (closed loop: keeps the generator's memory flat however many
    /// requests the phase completes).
    Decoded(Box<Result<Response, TomoError>>),
}

impl Reply {
    fn decoded(line: &str) -> Self {
        Reply::Decoded(Box::new(decode::<ResponseEnvelope>(line).map(
            |env| match env.resp {
                Response::Estimate(e) => Response::Estimate(tomo_core::SessionEstimate {
                    probabilities: Vec::new(),
                    identifiable: Vec::new(),
                    intervals: e.intervals,
                }),
                other => other,
            },
        )))
    }

    fn raw(&self) -> Option<&str> {
        match self {
            Reply::Raw(line) => Some(line),
            Reply::Decoded(_) => None,
        }
    }
}

fn line_of(tenants: &[Tenant], kind: Kind, t: usize, batch: usize) -> &str {
    match kind {
        Kind::Observe => &tenants[t].observe_lines[batch],
        Kind::Query => &tenants[t].query_line,
    }
}

/// How long the generator waits for outstanding responses after a phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// One request of an open-loop plan: (due offset, kind, tenant, batch).
type Planned = (Duration, Kind, usize, usize);

/// The open-loop schedule: one observe every `BATCH / OPEN_LOOP_RATE`
/// seconds, the tenants in turn, and one query per `QUERY_EVERY` observes
/// of each tenant, due at a seeded uniformly random time before the
/// tenant's next query is triggered (a dashboard's refresh is not
/// synchronized with the monitors' pushes). Tenant `i`'s requests go on
/// connection `i % LOAD_CONNS`, so reads meet writes on the tenants' state
/// locks and in the connections' queues.
fn open_plan(tenants: &mut [Tenant], length: Duration, seed: u64) -> Vec<Vec<Planned>> {
    let period = Duration::from_secs_f64(BATCH as f64 / OPEN_LOOP_RATE);
    let spread = period * (tenants.len() * QUERY_EVERY) as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plans: Vec<Vec<Planned>> = vec![Vec::new(); LOAD_CONNS];
    for slot in 0u32.. {
        let due = period * slot;
        if due >= length {
            break;
        }
        let t = slot as usize % tenants.len();
        let batches = tenants[t].observe_lines.len();
        let (batch, query) = tenants[t].cursor.take_observe(batches);
        plans[t % LOAD_CONNS].push((due, Kind::Observe, t, batch));
        if query {
            let at = due + spread.mul_f64(rng.gen::<f64>());
            if at < length {
                plans[t % LOAD_CONNS].push((at, Kind::Query, t, 0));
            }
        }
    }
    for plan in &mut plans {
        plan.sort_by_key(|r| r.0);
    }
    plans
}

/// Executes an open-loop plan on one connection: each request is sent when
/// due whatever the state of earlier ones, and responses are read while
/// waiting for the next due time.
fn open_loop(conn: &mut Conn, tenants: &[Tenant], plan: &[Planned], start: Instant) -> Vec<Sent> {
    let mut out: Vec<Sent> = Vec::with_capacity(plan.len());
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut io_failed = false;
    loop {
        let sending = next < plan.len() && !io_failed;
        let due = sending.then(|| start + plan[next].0);
        let now = Instant::now();
        if let Some(due) = due.filter(|&d| d <= now) {
            let (_, kind, t, batch) = plan[next];
            next += 1;
            let sent = Instant::now();
            let ok = conn.send(line_of(tenants, kind, t, batch)).is_ok();
            io_failed |= !ok;
            out.push(Sent {
                kind,
                tenant: t,
                batch,
                due,
                sent,
                recv: None,
                reply: None,
            });
            if ok {
                outstanding.push_back(out.len() - 1);
            }
            continue;
        }
        if outstanding.is_empty() {
            match due {
                Some(due) => std::thread::sleep(due.saturating_duration_since(now)),
                None => break,
            }
            continue;
        }
        let wait = due.map_or(DRAIN_TIMEOUT, |d| d.saturating_duration_since(now));
        match conn.recv(Some(wait)) {
            Ok(Some(line)) => {
                let i = outstanding.pop_front().expect("a request is outstanding");
                out[i].recv = Some(Instant::now());
                out[i].reply = Some(Reply::Raw(line));
            }
            Ok(None) if due.is_none() => break,
            Ok(None) => {}
            Err(_) => break,
        }
    }
    // Requests never sent because the connection failed still count.
    for &(due, kind, t, batch) in &plan[next..] {
        let due = start + due;
        out.push(Sent {
            kind,
            tenant: t,
            batch,
            due,
            sent: due,
            recv: None,
            reply: None,
        });
    }
    out
}

/// The closed loop of one connection over its own tenants: one observe per
/// tenant in turn, a query after every `QUERY_EVERY`-th observe of a
/// tenant, and each request sent when the previous one is answered.
fn closed_loop(
    conn: &mut Conn,
    tenants: &[Tenant],
    mine: &mut [(usize, Cursor)],
    until: Instant,
) -> Vec<Sent> {
    let mut out = Vec::new();
    let mut turn = 0;
    let mut pending_query = None;
    while Instant::now() < until || pending_query.is_some() {
        let (kind, t, batch) = match pending_query.take() {
            Some(t) => (Kind::Query, t, 0),
            None => {
                let (t, cursor) = &mut mine[turn % mine.len()];
                turn += 1;
                let (batch, query) = cursor.take_observe(tenants[*t].observe_lines.len());
                if query {
                    pending_query = Some(*t);
                }
                (Kind::Observe, *t, batch)
            }
        };
        let sent = Instant::now();
        let reply = conn.call(line_of(tenants, kind, t, batch));
        let recv = Instant::now();
        let failed = reply.is_err();
        let reply = reply.ok().map(|line| Reply::decoded(&line));
        out.push(Sent {
            kind,
            tenant: t,
            batch,
            due: sent,
            sent,
            recv: Some(recv),
            reply,
        });
        if failed {
            break;
        }
    }
    out
}

/// The open-loop phase: every load connection, one thread each, on one
/// shared schedule.
fn run_open(conns: &mut [Conn], tenants: &mut [Tenant], length: Duration, seed: u64) -> Vec<Sent> {
    let plans = open_plan(tenants, length, seed);
    let tenants = &*tenants;
    // A little slack so both threads are running before the first request
    // is due.
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plans)
            .map(|(conn, plan)| s.spawn(move || open_loop(conn, tenants, plan, start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// How often the closed loop samples the process's CPU time.
const CPU_WINDOW: Duration = Duration::from_millis(250);

/// The closed-loop phase: each connection drives its own tenants (tenant
/// `i` on connection `i % LOAD_CONNS`), one thread each. Meanwhile the
/// calling thread, asleep otherwise, samples the process's CPU time every
/// `CPU_WINDOW`; the samples are returned with the requests.
fn run_closed(
    conns: &mut [Conn],
    tenants: &mut [Tenant],
    length: Duration,
) -> (Vec<Sent>, Vec<(Instant, f64)>) {
    let until = Instant::now() + length;
    let mut cpu = Vec::new();
    let mut owned: Vec<Vec<(usize, Cursor)>> = (0..LOAD_CONNS)
        .map(|c| {
            tenants
                .iter()
                .enumerate()
                .skip(c)
                .step_by(LOAD_CONNS)
                .map(|(i, t)| (i, t.cursor))
                .collect()
        })
        .collect();
    let shared = &*tenants;
    let sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(owned.iter_mut())
            .map(|(conn, mine)| s.spawn(move || closed_loop(conn, shared, mine, until)))
            .collect();
        loop {
            let now = Instant::now();
            cpu.push((now, process_cpu_ms()));
            if now >= until {
                break;
            }
            std::thread::sleep(CPU_WINDOW.min(until - now));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect()
    });
    for (i, cursor) in owned.into_iter().flatten() {
        tenants[i].cursor = cursor;
    }
    (sent, cpu)
}

/// The median, over the windows between consecutive CPU-time samples, of
/// the process's CPU milliseconds per ObserveBatch answered in the window
/// (queries' work included). Windows without an answer are skipped.
fn cpu_ms_per_observe(sent: &[Sent], cpu: &[(Instant, f64)]) -> f64 {
    let per_window: Vec<f64> = cpu
        .windows(2)
        .filter_map(|w| {
            let ((from, c0), (to, c1)) = (w[0], w[1]);
            let answered = sent
                .iter()
                .filter(|s| s.kind == Kind::Observe && s.recv.is_some_and(|r| r >= from && r < to))
                .count();
            (answered > 0).then(|| (c1 - c0) / answered as f64)
        })
        .collect();
    median(&per_window)
}

/// Outcome counters of a phase.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    undecodable: u64,
    queue_depth_max: usize,
    observe_ms: Vec<f64>,
    query_ms: Vec<f64>,
    observe_rtt_us: Vec<f64>,
    late_ms: Vec<f64>,
    intervals: u64,
    /// Absolute link errors of the scored query estimates, and links scored.
    error_sum: f64,
    scored: usize,
}

/// Decodes a phase's responses, extends each tenant's accepted history and
/// tallies outcomes. Every request counts as attempted; a refused, timed
/// out, failed or unanswered one counts as failed, never dropped. With
/// `score`, every answered query is scored against the ground truth of the
/// window its estimate was computed on.
fn settle(tenants: &mut [Tenant], sent: &[Sent], out: &mut Outcomes, score: bool) {
    let mut estimates = Vec::new();
    // Observes first: a query's window is known only once every observe of
    // its tenant is (a tenant's observes all travel on one connection, so
    // their order in `sent` is the daemon's order).
    for s in sent
        .iter()
        .filter(|s| s.kind == Kind::Observe)
        .chain(sent.iter().filter(|s| s.kind == Kind::Query))
    {
        out.attempted += 1;
        out.late_ms
            .push(s.sent.duration_since(s.due).as_secs_f64() * 1e3);
        let (Some(recv), Some(reply)) = (s.recv, &s.reply) else {
            out.failed += 1;
            continue;
        };
        let decoded = match reply {
            Reply::Raw(line) => decode::<ResponseEnvelope>(line).map(|env| env.resp),
            Reply::Decoded(resp) => (**resp).clone(),
        };
        let Ok(resp) = decoded else {
            out.undecodable += 1;
            out.failed += 1;
            continue;
        };
        let ms = recv.duration_since(s.due).as_secs_f64() * 1e3;
        match (s.kind, resp) {
            (
                Kind::Observe,
                Response::Accepted {
                    ingested,
                    pending_batches,
                },
            ) => {
                out.observe_ms.push(ms);
                out.observe_rtt_us
                    .push(recv.duration_since(s.sent).as_secs_f64() * 1e6);
                out.queue_depth_max = out.queue_depth_max.max(pending_batches);
                out.intervals += ingested as u64;
                tenants[s.tenant]
                    .accepted
                    .extend(s.batch * BATCH..s.batch * BATCH + ingested);
            }
            (Kind::Query, Response::Estimate(e)) => {
                out.query_ms.push(ms);
                if score {
                    estimates.push((s.tenant, e));
                }
            }
            _ => out.failed += 1,
        }
    }
    for (t, e) in estimates {
        let tenant = &tenants[t];
        let end = e.intervals as usize;
        if end < WINDOW || end > tenant.accepted.len() {
            continue;
        }
        let window = &tenant.accepted[end - WINDOW..end];
        let errors = score::link_error_stats(
            &tenant.network,
            &window_output(tenant, window),
            &as_estimate(&e.probabilities, &e.identifiable),
        );
        out.error_sum += errors.mean() * errors.len() as f64;
        out.scored += errors.len();
    }
}

/// The observations and ground truth of one window of a tenant's stream.
fn window_output(t: &Tenant, window: &[usize]) -> SimulationOutput {
    let net = &t.network;
    let mut observations = PathObservations::new(net.num_paths(), window.len());
    let mut truth = GroundTruth::new(net.num_links(), window.len());
    let mut states = vec![false; net.num_links()];
    for (w, &i) in window.iter().enumerate() {
        for p in t.stream.observations.congested_paths(i) {
            observations.set_congested(p, w, true);
        }
        for l in net.link_ids() {
            states[l.index()] = t.stream.ground_truth.is_congested(l, i);
        }
        truth.record_interval(w, &states);
    }
    SimulationOutput {
        observations,
        ground_truth: truth,
        initial_model: t.stream.initial_model.clone(),
        fault_events: Vec::new(),
    }
}

/// A daemon estimate (dense per-link form) as a `ProbabilityEstimate`.
fn as_estimate(probabilities: &[f64], identifiable: &[bool]) -> ProbabilityEstimate {
    let mut estimate = ProbabilityEstimate::new("daemon", probabilities.len());
    for (l, (&p, &id)) in probabilities.iter().zip(identifiable).enumerate() {
        estimate.set_link(LinkId(l), p, id);
    }
    estimate
}

/// Creates the tenants over the wire and warms each one up with a full
/// window (one `ObserveBatch` of `WINDOW` intervals) and a query, so every
/// timed request hits a tenant whose estimator structure already exists.
fn warm_up(conns: &mut [Conn], tenants: &mut [Tenant]) -> Result<(), String> {
    for (i, t) in tenants.iter_mut().enumerate() {
        let conn = &mut conns[i % LOAD_CONNS];
        let create = Request::Create {
            topology: TopologySource::Inline(TopologyDoc::from_network(t.network.clone())),
            seed: None,
            estimator: Some(t.estimator.to_string()),
            window: Some(WINDOW),
            decay: None,
            options: None,
            admission: None,
            rebuild: None,
        };
        match conn.request(Some(&t.id), create)? {
            Response::Created { .. } => {}
            other => return Err(format!("creating {} answered {other:?}", t.id)),
        }
        let intervals: Vec<Vec<usize>> = (0..WINDOW)
            .map(|i| {
                t.stream
                    .observations
                    .congested_paths(i)
                    .into_iter()
                    .map(|p| p.index())
                    .collect()
            })
            .collect();
        match conn.request(Some(&t.id), Request::ObserveBatch { intervals })? {
            Response::Accepted { ingested, .. } if ingested == WINDOW => {}
            other => return Err(format!("warming {} up answered {other:?}", t.id)),
        }
        t.accepted.extend(0..WINDOW);
        t.cursor.next_batch = WINDOW / BATCH;
        match conn.request(Some(&t.id), Request::Query)? {
            Response::Estimate(_) => {}
            other => return Err(format!("querying {} answered {other:?}", t.id)),
        }
    }
    Ok(())
}

/// Sums the per-tenant latency histograms of a metrics report.
fn merged(report: &MetricsReport, query: bool) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::new();
    for t in &report.per_tenant {
        h.merge(if query { &t.query.hist } else { &t.ingest.hist });
    }
    h
}

/// `after − before`, bucketwise (histograms only grow).
fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = HistogramSnapshot::new();
    d.counts = after
        .counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c - before.counts.get(i).copied().unwrap_or(0))
        .collect();
    d.count = after.count - before.count;
    d.sum = after.sum.wrapping_sub(before.sum);
    d.max = after.max;
    d
}

fn metrics(conn: &mut Conn) -> Result<MetricsReport, String> {
    match conn.request(None, Request::Metrics)? {
        Response::Metrics(m) => Ok(m),
        other => Err(format!("Metrics answered {other:?}")),
    }
}

fn fleet_stats(conn: &mut Conn) -> Result<FleetStats, String> {
    match conn.request(None, Request::FleetStats)? {
        Response::Fleet(f) => Ok(f),
        other => Err(format!("FleetStats answered {other:?}")),
    }
}

/// One set-up: inputs, fleet, connections, tenants, warm-up.
fn setup(
    routed: bool,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Fleet, Vec<Conn>, Vec<Tenant>), String> {
    let mut tenants = (0..TENANTS)
        .map(|i| make_tenant(i, seed, tracer))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("inputs: {e}"))?;
    let fleet = Fleet::start(routed).map_err(|e| format!("starting the daemons: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..LOAD_CONNS {
        conns.push(Conn::connect(&fleet.addr).map_err(|e| format!("connecting: {e}"))?);
    }
    if let Err(e) = warm_up(&mut conns, &mut tenants) {
        let _ = fleet.stop(conns.first_mut());
        return Err(e);
    }
    Ok((fleet, conns, tenants))
}

/// The final check: a flushed final `Query` of every tenant against an
/// offline batch fit of the tenant's last window. Returns (identifiable
/// targets, targets) of those batch fits.
fn check_tenants(conn: &mut Conn, tenants: &[Tenant], report: &mut Report) -> (usize, usize) {
    let mut acc = (0, 0);
    for t in tenants {
        let flushed = conn.request(Some(&t.id), Request::Flush);
        let daemon = match (flushed, conn.request(Some(&t.id), Request::Query)) {
            (Ok(Response::Flushed { .. }), Ok(Response::Estimate(e))) => e,
            (f, q) => {
                report.fail(format!(
                    "{}: final Flush/Query answered {f:?} / {q:?}",
                    t.id
                ));
                continue;
            }
        };
        let net = &t.network;
        let window = &t.accepted[t.accepted.len().saturating_sub(WINDOW)..];
        let output = window_output(t, window);
        let fitted = estimators::by_name(t.estimator).and_then(|mut offline| {
            offline.fit(net, &output.observations)?;
            Ok(offline.estimate().cloned())
        });
        let batch = match fitted {
            Ok(Some(batch)) => batch,
            other => {
                report.fail(format!(
                    "{}: offline batch fit failed: {:?}",
                    t.id,
                    other.err()
                ));
                continue;
            }
        };
        let deviation = if daemon.probabilities.len() == net.num_links() {
            (0..net.num_links())
                .map(|l| {
                    (batch.link_congestion_probability(LinkId(l)) - daemon.probabilities[l]).abs()
                })
                .fold(0.0, f64::max)
        } else {
            f64::INFINITY
        };
        if deviation.is_nan() || deviation > BATCH_TOLERANCE {
            report.fail(format!(
                "{} ({}): final estimate deviates {deviation:.3e} from the offline batch fit \
                 of its last window (tolerance {BATCH_TOLERANCE:e})",
                t.id, t.estimator
            ));
        }
        acc.0 += batch.diagnostics.identifiable_targets;
        acc.1 += batch.diagnostics.total_targets;
    }
    acc
}

/// Replays each tenant's accepted batches into an embedded
/// `TomographySession` (the daemon's per-tenant engine, without the wire,
/// the queue or the lock), timing `observe` and `query`.
fn embedded_replay(tenants: &[Tenant], budget: Duration) -> (Vec<f64>, Vec<f64>) {
    let (mut observe_us, mut query_us) = (Vec::new(), Vec::new());
    let per_tenant = budget / tenants.len() as u32;
    for t in tenants {
        let config = SessionConfig {
            estimator: t.estimator.to_string(),
            window_capacity: Some(WINDOW),
            ..SessionConfig::default()
        };
        let Ok(mut session) = TomographySession::new(t.network.clone(), config) else {
            continue;
        };
        let start = Instant::now();
        let mut b = 0usize;
        while start.elapsed() < per_tenant {
            let batch: Vec<Vec<usize>> = (b * BATCH..(b + 1) * BATCH)
                .map(|i| {
                    let i = i % STREAM_LEN;
                    t.stream
                        .observations
                        .congested_paths(i)
                        .into_iter()
                        .map(|p| p.index())
                        .collect()
                })
                .collect();
            let t0 = Instant::now();
            let ok = session.observe(&batch).is_ok();
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            // The first window is warm-up, as it is for the daemon.
            if b >= WINDOW / BATCH && ok {
                observe_us.push(dt);
            }
            b += 1;
            if b.is_multiple_of(QUERY_EVERY) {
                let t0 = Instant::now();
                let ok = session.query().is_ok();
                if b > WINDOW / BATCH && ok {
                    query_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
    }
    (observe_us, query_us)
}

/// Paired `Query`s: through the router, then straight to the tenant's
/// owning backend. Returns the per-pair difference in µs. The first load
/// connection stays on the router; the second is replaced by a direct
/// connection to each backend in turn, so the run never holds more than
/// `LOAD_CONNS` connections.
fn router_hop(
    conns: &mut [Conn],
    fleet: &Fleet,
    tenants: &[Tenant],
    pairs: usize,
) -> Result<Vec<f64>, String> {
    let ring = HashRing::new(&fleet.backends, DEFAULT_VNODES);
    let mut hops = Vec::new();
    let [conn, direct, ..] = conns else {
        return Err("the hop needs two connections".into());
    };
    for backend in &fleet.backends {
        *direct = Conn::connect(backend).map_err(|e| format!("direct connection: {e}"))?;
        for t in tenants
            .iter()
            .filter(|t| ring.backend_for(&t.id) == Some(backend.as_str()))
        {
            for _ in 0..pairs {
                let t0 = Instant::now();
                let via = conn.call(&t.query_line).map_err(|e| format!("I/O: {e}"))?;
                let t1 = Instant::now();
                let straight = direct
                    .call(&t.query_line)
                    .map_err(|e| format!("I/O: {e}"))?;
                let t2 = Instant::now();
                let ok = |l: &str| {
                    matches!(
                        decode::<ResponseEnvelope>(l).map(|e| e.resp),
                        Ok(Response::Estimate(_))
                    )
                };
                if !ok(&via) || !ok(&straight) {
                    return Err(format!("{}: a paired Query failed", t.id));
                }
                hops.push((t1 - t0).as_secs_f64() * 1e6 - (t2 - t1).as_secs_f64() * 1e6);
            }
        }
    }
    Ok(hops)
}

/// Times the protocol codec on the lines a run sent and received.
fn codec_timing(requests: &[&str], responses: &[&str]) -> (Vec<f64>, Vec<f64>) {
    let mut decode_us = Vec::new();
    for line in requests {
        let t0 = Instant::now();
        let ok = decode_request(line).is_ok();
        if ok {
            decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut encode_us = Vec::new();
    for line in responses {
        if let Ok(env) = decode::<ResponseEnvelope>(line) {
            let t0 = Instant::now();
            std::hint::black_box(encode(&env));
            encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    (decode_us, encode_us)
}

fn net_of(m: &MetricsReport) -> NetMetrics {
    m.net.unwrap_or_default()
}

pub fn run(routed: bool, seed: u64, seconds: u64, trace: bool) -> Report {
    let workload = if routed {
        "serve-routed"
    } else {
        "serve-stream"
    };
    let mut report = Report::default();
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        LOAD_CONNS <= threads_available,
        "the load generator uses {LOAD_CONNS} threads and connections but this machine has \
         {threads_available} hardware threads"
    );
    let epoch = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);

    // --- Set-up, several times; the last one is kept -----------------------
    let mut setup_s = Vec::new();
    let (mut topology_ms, mut sim_ms) = (Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..SETUPS {
        let first = tracer.spans().len();
        let t0 = process_cpu_ms();
        let (fleet, mut conns, tenants) = match setup(routed, seed, &mut tracer) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return report;
            }
        };
        setup_s.push((process_cpu_ms() - t0) / 1e3);
        let sum_ms = |name: &str| -> f64 {
            tracer.spans()[first..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum()
        };
        topology_ms.push(sum_ms("topology.generate"));
        sim_ms.push(sum_ms("sim.simulate"));
        if i + 1 < SETUPS {
            if let Err(e) = fleet.stop(conns.first_mut()) {
                report.fail(e);
                return report;
            }
        } else {
            kept = Some((fleet, conns, tenants));
        }
    }
    let (fleet, mut conns, mut tenants) = kept.expect("at least one set-up");

    let mut host = HostSpeed::default();
    let finished = measure(
        routed,
        seed,
        seconds,
        trace,
        &fleet,
        &mut conns,
        &mut tenants,
        &mut tracer,
        &mut host,
        &mut report,
    );
    if let Err(e) = fleet.stop(conns.first_mut()) {
        report.fail(e);
    }
    if finished.is_none() {
        return report;
    }
    let setup = median(&setup_s);
    report.metric("setup_s", host.time(setup), "s");
    report.metric("rss_peak_mb", rss_peak_mb(), "MB");
    report.note(format!("unscaled set-up {setup:.4} CPU s"));
    if let Some(m) = report.layers.as_mut() {
        m.set("topology.generate_ms", median(&topology_ms));
        m.set("sim.simulate_ms", median(&sim_ms));
        write_spans(&mut report, &tracer, workload, seed);
    }
    report
}

/// The timed phases and the checks, filling in the report: end-to-end
/// metrics, or per-layer metrics in a traced run. `None` when the run
/// could not finish.
#[allow(clippy::too_many_arguments)]
fn measure(
    routed: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    fleet: &Fleet,
    conns: &mut [Conn],
    tenants: &mut [Tenant],
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    report: &mut Report,
) -> Option<()> {
    let admin = |conns: &mut [Conn], report: &mut Report| -> Option<(MetricsReport, FleetStats)> {
        match (metrics(&mut conns[0]), fleet_stats(&mut conns[0])) {
            (Ok(m), Ok(f)) => Some((m, f)),
            (m, f) => {
                report.fail(format!(
                    "admin requests failed: {:?} / {:?}",
                    m.err(),
                    f.err()
                ));
                None
            }
        }
    };
    let total = Duration::from_secs(seconds);
    let (before_m, before_f) = admin(conns, report)?;
    // Calibrate while the daemons are idle: before, between and after the
    // phases.
    host.sample(20);

    // --- Timed phases --------------------------------------------------------
    let mut open = Outcomes::default();
    let mut closed = Outcomes::default();
    let mut traced_open = Outcomes::default();
    let mut all_sent: Vec<Sent> = Vec::new();
    let (closed_len, closed_start);
    if trace {
        // Untraced and traced open loops of equal length, then the closed
        // loop, each a third of the run.
        let sent = run_open(conns, tenants, total / 3, derive_seed(seed, 100));
        settle(tenants, &sent, &mut open, false);
        all_sent.extend(sent);
        let sent = run_open(conns, tenants, total / 3, derive_seed(seed, 101));
        settle(tenants, &sent, &mut traced_open, false);
        record_request_spans(tracer, &sent, all_sent.len() as u64);
        all_sent.extend(sent);
        closed_len = total / 3;
    } else {
        let sent = run_open(conns, tenants, total / 2, derive_seed(seed, 100));
        settle(tenants, &sent, &mut open, true);
        all_sent.extend(sent);
        closed_len = total / 2;
    }
    host.sample(20);
    let cpu0 = process_cpu_ms();
    closed_start = Instant::now();
    let (sent, cpu_samples) = run_closed(conns, tenants, closed_len);
    let closed_secs = closed_start.elapsed().as_secs_f64();
    let closed_cpu_s = (process_cpu_ms() - cpu0) / 1e3;
    let observe_cpu_ms = cpu_ms_per_observe(&sent, &cpu_samples);
    settle(tenants, &sent, &mut closed, false);
    all_sent.extend(sent);
    let (after_m, after_f) = admin(conns, report)?;
    host.sample(20);

    // --- Output checks -------------------------------------------------------
    let undecodable = open.undecodable + closed.undecodable + traced_open.undecodable;
    if undecodable > 0 {
        report.fail(format!("{undecodable} responses did not decode"));
    }
    let (ident, targets) = check_tenants(&mut conns[0], tenants, report);
    // Counters agree with what the client sent: every accepted interval was
    // ingested, and the daemons framed every line (fan-out included).
    match metrics(&mut conns[0]) {
        Ok(m) => {
            let accepted: u64 = tenants.iter().map(|t| t.accepted.len() as u64).sum();
            if m.total_intervals != accepted {
                report.fail(format!(
                    "daemon total_intervals {} != intervals sent minus refused {accepted}",
                    m.total_intervals
                ));
            }
            let sent: u64 = conns.iter().map(|c| c.sent).sum();
            let fan_out = fleet.backends.len() as u64 - 1;
            let expected = sent + fan_out * conns.iter().map(|c| c.fleet_sent).sum::<u64>();
            let lines_in = net_of(&m).lines_in;
            if lines_in != expected {
                report.fail(format!(
                    "daemon lines_in {lines_in} != requests sent {expected}"
                ));
            }
        }
        Err(e) => report.fail(e),
    }

    let attempted = open.attempted + closed.attempted + traced_open.attempted;
    let failed = open.failed + closed.failed + traced_open.failed;
    report.attempted = attempted;
    report.failed = failed;
    if !trace {
        report.metric("ok_frac", report.ok_frac(), "frac");
        report.metric(
            "link_mae",
            open.error_sum / open.scored.max(1) as f64,
            "prob",
        );
        report.metric(
            "identifiable_frac",
            ident as f64 / targets.max(1) as f64,
            "frac",
        );
        // Both figures are in the process's CPU time (load generator,
        // router and daemons alike run in it), not in wall time. On the
        // reference host the wall-clock figures moved with how much of its
        // two cores the hypervisor lent elsewhere: over ten runs the
        // closed-loop ObserveBatch round-trip median of serve-routed ranged
        // 1.67-3.37 ms, and four serve-stream runs of one seed ranged
        // 5620-10220 intervals/s. The open-loop latency from due time moved
        // further still (its median doubled in 3 of 10 runs). The wall-clock
        // figures go to the notes; the open-loop ones are per-layer metrics.
        let update = observe_cpu_ms;
        let rate = closed.intervals as f64 / closed_cpu_s;
        report.metric("update_ms.p50", host.time(update), "ms");
        report.metric("intervals_per_s", host.rate(rate), "1/s");
        report.note(format!(
            "open loop at {OPEN_LOOP_RATE} intervals/s: {} observes, {} queries, generator \
             late p99 {:.3} ms; closed loop: {} requests in {closed_secs:.2} s and \
             {closed_cpu_s:.3} CPU s, {:.1} intervals/s of wall time, ObserveBatch round trip \
             p50 {:.4} ms; calibration kernel {:.4} ms; unscaled: {update:.4} CPU ms per \
             ObserveBatch, {rate:.1} intervals per CPU s; open-loop ObserveBatch p50 {:.4} ms",
            open.observe_ms.len(),
            open.query_ms.len(),
            quantile(&open.late_ms, 0.99),
            closed.attempted,
            closed.intervals as f64 / closed_secs,
            median(&closed.observe_ms),
            host.kernel_ms(),
            median(&open.observe_ms),
        ));
        return Some(());
    }

    // --- Traced run: per-layer metrics --------------------------------------
    let mut m = LayerMetrics::zero();
    let ingest = delta(&merged(&after_m, false), &merged(&before_m, false));
    let query = delta(&merged(&after_m, true), &merged(&before_m, true));
    let ms = |ns: u64| ns as f64 / 1e6;
    m.set("serve.ingest_ms.p50", ms(ingest.quantile(0.5)));
    m.set("serve.ingest_ms.p99", ms(ingest.quantile(0.99)));
    m.set("serve.query_ms.p50", ms(query.quantile(0.5)));
    m.set("serve.query_ms.p99", ms(query.quantile(0.99)));
    m.set(
        "serve.queue_depth.max",
        open.queue_depth_max
            .max(traced_open.queue_depth_max)
            .max(closed.queue_depth_max) as f64,
    );
    m.set(
        "serve.busy",
        (after_m.busy_rejections - before_m.busy_rejections) as f64,
    );
    m.set(
        "serve.timeouts",
        (after_m.timeouts - before_m.timeouts) as f64,
    );
    let refits = |f: &FleetStats| f.refits;
    let (ra, rb) = (refits(&after_f), refits(&before_f));
    let incremental = (ra.incremental - rb.incremental) as f64;
    let full = (ra.full - rb.full) as f64;
    m.set("core.refit.incremental", incremental);
    m.set("core.refit.full", full);
    m.set(
        "core.refit.rebuild",
        (ra.basis_rebuilds - rb.basis_rebuilds) as f64,
    );
    m.set("core.rebuild_share", full / (incremental + full).max(1.0));
    let (na, nb) = (net_of(&after_m), net_of(&before_m));
    let intervals = (after_m.total_intervals - before_m.total_intervals).max(1) as f64;
    m.set(
        "net.bytes_in_per_interval",
        (na.bytes_in - nb.bytes_in) as f64 / intervals,
    );
    m.set("net.lines_in", (na.lines_in - nb.lines_in) as f64);
    m.set("net.lines_out", (na.lines_out - nb.lines_out) as f64);
    let rtt_us = median(
        &[
            open.observe_rtt_us.clone(),
            traced_open.observe_rtt_us.clone(),
        ]
        .concat(),
    );
    m.set("net.wire_us.p50", rtt_us - ms(ingest.quantile(0.5)) * 1e3);
    m.set(
        "gen.late_ms.p99",
        quantile(
            &[open.late_ms.clone(), traced_open.late_ms.clone()].concat(),
            0.99,
        ),
    );
    m.set("host.calib_ms", host.kernel_ms());
    m.set("client.update_ms.p50", median(&open.observe_ms));
    m.set("client.update_ms.p90", quantile(&open.observe_ms, 0.9));
    m.set("client.read_ms.p50", median(&open.query_ms));
    m.set("client.read_ms.p90", quantile(&open.query_ms, 0.9));
    m.set(
        "tracing.overhead_frac",
        median(&traced_open.observe_ms) / median(&open.observe_ms) - 1.0,
    );
    let requests: Vec<&str> = all_sent
        .iter()
        .take(4000)
        .map(|s| line_of(tenants, s.kind, s.tenant, s.batch))
        .collect();
    let responses: Vec<&str> = all_sent
        .iter()
        .take(4000)
        .filter_map(|s| s.reply.as_ref()?.raw())
        .collect();
    let (decode_us, encode_us) = codec_timing(&requests, &responses);
    m.set("protocol.decode_us.p50", median(&decode_us));
    m.set("protocol.encode_us.p50", median(&encode_us));
    let self_ms = tracer.self_ms_by_layer(|s| s.req != 0);
    for (layer, values) in &self_ms {
        m.set_self(layer, median(values));
    }
    let (observe_us, query_us) = embedded_replay(tenants, Duration::from_millis(1500));
    m.set("core.observe_us.p50", median(&observe_us));
    m.set("core.observe_us.p99", quantile(&observe_us, 0.99));
    m.set("core.query_us.p50", median(&query_us));
    if routed {
        match router_hop(conns, fleet, tenants, 25) {
            Ok(hops) => {
                m.set("router.hop_us.p50", median(&hops));
                m.set("router.hop_us.p99", quantile(&hops, 0.99));
            }
            Err(e) => report.fail(e),
        }
    }
    report.note(format!(
        "traced: {} open-loop observes untraced / {} traced, closed loop {} requests; \
         {} embedded observes",
        open.observe_ms.len(),
        traced_open.observe_ms.len(),
        closed.attempted,
        observe_us.len()
    ));
    report.layers = Some(m);
    Some(())
}

/// Records one span tree per traced request: the request from its due time
/// to its response, split into the generator's lateness and the wire round
/// trip (which includes the daemon's work), plus the client-side decode of
/// the response.
fn record_request_spans(tracer: &mut Tracer, sent: &[Sent], first_req: u64) {
    for (i, s) in sent.iter().enumerate() {
        let req = first_req + i as u64 + 1;
        let Some(recv) = s.recv else { continue };
        let root = tracer.record("bench.request", req, s.due, recv);
        tracer.record_under("gen.late", req, s.due, s.sent, Some(root));
        tracer.record_under("net.roundtrip", req, s.sent, recv, Some(root));
        if let Some(line) = s.reply.as_ref().and_then(Reply::raw) {
            let t0 = Instant::now();
            let _ = decode::<ResponseEnvelope>(line);
            tracer.record_under("protocol.decode", req, t0, Instant::now(), None);
        }
    }
}
