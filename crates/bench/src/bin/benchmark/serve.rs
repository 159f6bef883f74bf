//! The serving workloads, over an in-process loopback `Server` and
//! closed-loop clients (each client sends its next request when the
//! previous reply arrives, as callers waiting on a verdict do).
//!
//! * `serve-cold`: one client sends every model × {each axiom, all
//!   axioms} × {2..=2, 2..=3, 3..=3, 4..=4} `QUERY` once, in a seeded
//!   order, to a server with an empty cache. Units repeat across
//!   requests, so a unit-level cache would show here.
//! * `serve-warm`: two clients send a seeded mix of fresh `CHECK`s (check
//!   cache inserts), repeated `CHECK`s and `QUERY`s for suites warmed
//!   during set-up (cache hits). No solver runs while it is timed.

use crate::stats::{self, Fingerprint};
use crate::trace::{Layers, Trace};
use crate::{end_to_end, op_ms, pinned, replay, Args, Pass, PassTimer, Pick, Report, SETUPS};
use litsynth_core::{
    encode_suite_body, fnv1a, merge_unit_suites, run_unit, CanonicalSuite, SynthConfig, UnitPlan,
};
use litsynth_litmus::diy::{DiyConfig, DiyGenerator};
use litsynth_litmus::{wire, Execution, LitmusTest, Outcome, SplitMix64};
use litsynth_models::{check, oracle, MemoryModel};
use litsynth_serve::models::{dispatch, ModelOp, MODELS};
use litsynth_serve::protocol::{open_body, seal_body};
use litsynth_serve::{
    plan_query, suite_fingerprint, CheckReply, CheckRequest, Client, QueryReply, QueryRequest,
    ServeConfig, Server, ServerStats, SuiteCache,
};
use std::sync::Arc;
use std::time::Instant;

/// The bound ranges every cold request set covers.
const COLD_RANGES: [(usize, usize); 4] = [(2, 2), (2, 3), (3, 3), (4, 4)];

/// Requests per serve-warm round, split evenly over the two clients. A
/// round's fresh `CHECK`s (about 60%) fit the server's check cache, so
/// every round measures inserts and hits, never eviction.
const ROUND_REQUESTS: usize = 60_000;

/// The server every workload runs against: two shards, no journal.
fn server() -> Server {
    Server::start(ServeConfig {
        shards: 2,
        journal_dir: None,
        ..ServeConfig::default()
    })
    .expect("a loopback server starts")
}

/// A `QUERY` with the pinned size and digest of the suite it must serve.
struct Expected {
    label: String,
    req: QueryRequest,
    tests: usize,
    digest: u64,
}

impl Expected {
    fn new(model: &str, axiom: Option<&str>, (lo, hi): (usize, usize)) -> Expected {
        let label = format!("serve/{model}/{}/{lo}-{hi}", axiom.unwrap_or("*"));
        let (tests, digest) =
            pinned(&label).unwrap_or_else(|| panic!("expected.txt has no {label}"));
        Expected {
            label,
            req: QueryRequest {
                model: model.to_string(),
                min_bound: lo,
                max_bound: hi,
                axioms: axiom.into_iter().map(str::to_string).collect(),
                budget_ms: 0,
            },
            tests,
            digest,
        }
    }

    /// `None` when `reply` is the pinned suite served as expected.
    fn mismatch(&self, reply: &QueryReply, cached: bool) -> Option<String> {
        let digest = fnv1a(reply.suite.as_bytes());
        let ok = reply.cached == cached
            && !reply.truncated
            && reply.degraded == 0
            && reply.tests == self.tests
            && digest == self.digest;
        (!ok).then(|| {
            format!(
                "{}: cached={} truncated={} degraded={} tests={} digest={digest:016x}, \
                 expected cached={cached} tests={} digest={:016x}",
                self.label,
                reply.cached,
                reply.truncated,
                reply.degraded,
                reply.tests,
                self.tests,
                self.digest
            )
        })
    }
}

/// The 108 cold requests in the seed's order.
fn cold_requests(seed: u64) -> Vec<Expected> {
    let mut out = Vec::new();
    for &model in MODELS {
        let axioms = litsynth_serve::models::axioms_of(model).expect("listed model");
        let sets = axioms.iter().map(|&a| Some(a)).chain([None]);
        for axiom in sets {
            for range in COLD_RANGES {
                out.push(Expected::new(model, axiom, range));
            }
        }
    }
    SplitMix64::new(seed).shuffle(&mut out);
    out
}

/// Sends one query and checks the reply against its pin.
fn send_query(client: &mut Client, e: &Expected, cached: bool) -> Result<QueryReply, String> {
    let served = client
        .query(&e.req)
        .map_err(|err| format!("{}: {err}", e.label))?;
    match e.mismatch(&served.reply, cached) {
        None => Ok(served.reply),
        Some(m) => Err(m),
    }
}

/// One closed-loop pass over the cold requests against a fresh server.
/// Returns the pass and the server's counters.
fn cold_pass(requests: &[Expected], report: &mut Report) -> (Pass, ServerStats) {
    let server = server();
    let mut client = Client::connect(server.addr()).expect("client connects");
    let timer = PassTimer::start();
    let mut latencies = Vec::with_capacity(requests.len());
    for e in requests {
        let t = Instant::now();
        let result = send_query(&mut client, e, false);
        latencies.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if let Err(err) = result {
            report.failed += 1;
            report.fail(err);
            client = Client::connect(server.addr()).expect("client reconnects");
        }
    }
    let pass = timer.finish(latencies);
    let stats = server.stats();
    server.shutdown();
    (pass, stats)
}

/// `serve-cold`: full passes over the 108 cold requests until
/// `args.seconds` of passes have been timed.
pub fn cold(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-up: start a server and warm it with a cold query outside the
    // measured set, then plan the seeded request order.
    let mut requests = Vec::new();
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let warm = server();
            let mut client = Client::connect(warm.addr()).expect("client connects");
            let r = client.query(&QueryRequest::sweep("sc", 2, 4));
            if !matches!(&r, Ok(s) if s.reply.tests > 0) {
                report.fail(format!("set-up query failed: {r:?}"));
            }
            warm.shutdown();
            requests = cold_requests(args.seed);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut print = Fingerprint::default();
    requests.iter().for_each(|e| print.add(&e.label));
    report.notes.push(format!(
        "serve-cold: {} requests per pass, seed {} order fingerprint {}",
        requests.len(),
        args.seed,
        print.hex()
    ));
    if args.trace {
        return cold_traced(&requests, report);
    }
    let mut passes = Vec::new();
    let mut timed = 0.0;
    while timed < args.seconds {
        let (pass, _) = cold_pass(&requests, &mut report);
        timed += pass.wall;
        passes.push(pass);
    }
    report.notes.push("each pass on a fresh server".to_string());
    end_to_end(&mut report, &setups, &passes, Some(90.0), Pick::Fastest);
    report
}

/// The server's cold-path plan for `req`, exactly as its `QUERY` handler
/// builds it (same axiom order, same per-bound config).
struct Plan<'a>(&'a QueryRequest);

impl ModelOp for Plan<'_> {
    type Out = Vec<UnitPlan>;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Vec<UnitPlan> {
        let req = self.0;
        let axioms: Vec<&'static str> = model
            .axioms()
            .iter()
            .copied()
            .filter(|a| req.axioms.is_empty() || req.axioms.iter().any(|w| w == a))
            .collect();
        plan_query(model, &axioms, req.min_bound..=req.max_bound, |n| {
            let mut c = SynthConfig::new(n).with_fault_plan(None);
            c.time_budget_ms = req.budget_ms;
            c
        })
    }
}

/// Every unit of one cold request through the engine's `run_unit` and
/// through the traced replay; returns the replayed unit suites and the
/// units whose replay differs from the engine.
struct ColdUnits<'a> {
    plans: &'a [UnitPlan],
    trace: &'a mut Trace,
    engine_s: &'a mut f64,
    replay_s: &'a mut f64,
}

impl ModelOp for ColdUnits<'_> {
    type Out = (Vec<CanonicalSuite>, Vec<String>);
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
        let mut suites = Vec::new();
        let mut differing = Vec::new();
        for plan in self.plans {
            let t = Instant::now();
            let r = run_unit(model, plan);
            *self.engine_s += t.elapsed().as_secs_f64();
            let before = replay::fidelity_counters(self.trace);
            let t = Instant::now();
            let suite = replay::unit(model, plan, self.trace);
            *self.replay_s += t.elapsed().as_secs_f64();
            let after = replay::fidelity_counters(self.trace);
            let delta: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
            let engine = [r.propagations, r.decisions, r.raw_instances as u64];
            if delta != engine || encode_suite_body(&suite) != encode_suite_body(&r.tests) {
                differing.push(plan.unit.key.to_string());
            }
            suites.push(suite);
        }
        (suites, differing)
    }
}

/// The traced `serve-cold` run: one loopback pass for the server's
/// counters, then every request's units replayed.
fn cold_traced(requests: &[Expected], mut report: Report) -> Report {
    let (_, stats) = cold_pass(requests, &mut report);
    let mut trace = Trace::default();
    count_server_stats(&mut trace, &stats);
    let (mut engine_s, mut replay_s) = (0.0, 0.0);
    for e in requests {
        let plans = dispatch(&e.req.model, Plan(&e.req)).expect("known model");
        let op = ColdUnits {
            plans: &plans,
            trace: &mut trace,
            engine_s: &mut engine_s,
            replay_s: &mut replay_s,
        };
        let (suites, differing) = dispatch(&e.req.model, op).expect("known model");
        let t = Instant::now();
        let merged = trace.time("core.merge_s", || merge_unit_suites(&suites));
        let body = trace.time("core.suite_codec_us", || encode_suite_body(&merged));
        replay_s += t.elapsed().as_secs_f64();
        trace.count("serve.suite_bytes", body.len() as u64);
        let digest = fnv1a(body.as_bytes());
        if !differing.is_empty() || digest != e.digest {
            report.failed += 1;
            report.fail(format!(
                "{}: replay differs from the engine on {differing:?}, or its digest \
                 {digest:016x} from the pin",
                e.label
            ));
        }
    }
    let layers = Layers {
        trace: &trace,
        requests: requests.len() as u64,
        replay_s,
        untraced_s: engine_s,
        transport_us: 0.0,
    };
    report.metrics = layers.metrics();
    report
}

fn count_server_stats(trace: &mut Trace, s: &ServerStats) {
    trace.count("serve.cache_hits", s.cache.hits);
    trace.count("serve.cache_misses", s.cache.misses);
    trace.count("serve.check_cache_hits", s.check_cache_hits);
    trace.count("serve.compilations", s.compilations);
    trace.count("serve.shard_stolen", s.shard.stolen);
}

/// One `CHECK` of the serve-warm corpus, with the enumeration oracle's
/// verdict.
struct Item {
    req: CheckRequest,
    consistent: bool,
}

/// One request of a client's stream.
#[derive(Clone, Copy)]
enum Req {
    /// A `CHECK` of corpus item `item`; `fresh` if this is its first send.
    Check { item: usize, fresh: bool },
    /// A `QUERY` for warmed suite `i`.
    Query(usize),
}

/// The serve-warm inputs a seed generates.
struct WarmInputs {
    items: Vec<Item>,
    streams: [Vec<Req>; 2],
    warmed: Vec<Expected>,
    fingerprint: Fingerprint,
}

/// `oracle::observable` (explicit enumeration) as a model operation.
struct Observable<'a>(&'a LitmusTest, &'a Outcome);

impl ModelOp for Observable<'_> {
    type Out = bool;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> bool {
        oracle::observable(model, self.0, self.1)
    }
}

/// The diy corpus: each generated test with its cycle outcome and every
/// distinct outcome of its candidate executions, each under a seeded
/// model choice, judged by the enumeration oracle.
struct Corpus {
    generator: DiyGenerator,
    rng: SplitMix64,
    items: Vec<Item>,
    next: usize,
}

impl Corpus {
    fn next_item(&mut self) -> usize {
        while self.next == self.items.len() {
            let Some((test, cycle)) = self.generator.generate(1).pop() else {
                panic!("the diy generator ran dry");
            };
            let mut outcomes: Vec<Outcome> = Execution::enumerate(&test)
                .iter()
                .map(|e| e.outcome())
                .collect();
            outcomes.push(cycle);
            outcomes.sort();
            outcomes.dedup();
            for outcome in outcomes {
                let model = *self.rng.choose(MODELS);
                let consistent =
                    dispatch(model, Observable(&test, &outcome)).expect("listed model");
                self.items.push(Item {
                    req: CheckRequest {
                        model: model.to_string(),
                        test: wire::encode(&test, &outcome),
                    },
                    consistent,
                });
            }
        }
        self.next += 1;
        self.next - 1
    }
}

/// The suites to warm, the corpus, and `per_client` requests for each of
/// the two clients: 60% fresh `CHECK`s, 20% repeats of the client's own
/// earlier `CHECK`s, 20% `QUERY`s for warmed suites.
fn warm_inputs(seed: u64, per_client: usize) -> WarmInputs {
    let warmed: Vec<Expected> = MODELS
        .iter()
        .flat_map(|&m| [(2, 2), (2, 3)].map(|r| Expected::new(m, None, r)))
        .collect();
    let mut corpus = Corpus {
        generator: DiyGenerator::new(seed, DiyConfig::default()),
        rng: SplitMix64::new(seed),
        items: Vec::new(),
        next: 0,
    };
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5eed);
    let mut fingerprint = Fingerprint::default();
    let streams = [0, 1].map(|client| {
        let mut sent: Vec<usize> = Vec::new();
        (0..per_client)
            .map(|_| {
                let roll = rng.below(100);
                let req = if roll < 60 || sent.is_empty() {
                    let item = corpus.next_item();
                    sent.push(item);
                    Req::Check { item, fresh: true }
                } else if roll < 80 {
                    Req::Check {
                        item: *rng.choose(&sent),
                        fresh: false,
                    }
                } else {
                    Req::Query(rng.below(warmed.len()))
                };
                fingerprint.add(&match req {
                    Req::Check { item, fresh } => format!(
                        "{client} check {fresh} {}",
                        corpus.items[item].req.to_body()
                    ),
                    Req::Query(i) => format!("{client} query {}", warmed[i].label),
                });
                req
            })
            .collect()
    });
    WarmInputs {
        items: corpus.items,
        streams,
        warmed,
        fingerprint,
    }
}

/// A fresh server with every warmed suite cached (each checked against
/// its pin); returns the served bodies too.
fn warm_server(inputs: &WarmInputs, report: &mut Report) -> (Server, Vec<String>) {
    let server = server();
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut bodies = Vec::new();
    for e in &inputs.warmed {
        match send_query(&mut client, e, false) {
            Ok(reply) => bodies.push(reply.suite),
            Err(err) => {
                report.fail(format!("warming: {err}"));
                bodies.push(String::new());
            }
        }
    }
    (server, bodies)
}

/// What one client measured in a round: per-request seconds, plus its
/// failures.
#[derive(Default)]
struct ClientRun {
    latencies: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

/// Sends one serve-warm request and checks the reply.
fn send_warm(client: &mut Client, inputs: &WarmInputs, req: Req) -> Result<(), String> {
    match req {
        Req::Check { item, fresh } => {
            let it = &inputs.items[item];
            let reply = client.check_raw(&it.req).map_err(|e| e.to_string())?;
            if reply.consistent != it.consistent || reply.cached == fresh {
                return Err(format!(
                    "CHECK {:016x}: consistent={} cached={}, expected consistent={} cached={}",
                    it.req.fingerprint(),
                    reply.consistent,
                    reply.cached,
                    it.consistent,
                    !fresh
                ));
            }
            Ok(())
        }
        Req::Query(i) => send_query(client, &inputs.warmed[i], true).map(drop),
    }
}

/// One round: a fresh warmed server, then both clients' streams sent
/// concurrently. Returns the round as a pass whose ops are the first
/// client's requests and then the second's, the server's counters and
/// the warmed suites' bodies.
fn warm_round(inputs: &WarmInputs, report: &mut Report) -> (Pass, ServerStats, Vec<String>) {
    let (server, bodies) = warm_server(inputs, report);
    let addr = server.addr();
    let mut runs: [ClientRun; 2] = Default::default();
    let timer = PassTimer::start();
    std::thread::scope(|scope| {
        for (stream, run) in inputs.streams.iter().zip(runs.iter_mut()) {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for &req in stream {
                    let t = Instant::now();
                    let result = send_warm(&mut client, inputs, req);
                    run.latencies.push(t.elapsed().as_secs_f64());
                    if let Err(e) = result {
                        run.failed += 1;
                        if run.errors.len() < 5 {
                            run.errors.push(e);
                        }
                        client = Client::connect(addr).expect("client reconnects");
                    }
                }
            });
        }
    });
    let [a, b] = runs;
    let pass = timer.finish([a.latencies, b.latencies].concat());
    for errors in [a.errors, b.errors] {
        errors.into_iter().for_each(|e| report.fail(e));
    }
    report.attempted += pass.ops.len() as u64;
    report.failed += a.failed + b.failed;
    let stats = server.stats();
    server.shutdown();
    (pass, stats, bodies)
}

/// `serve-warm`: rounds of both clients' streams until `args.seconds` of
/// rounds have been timed.
pub fn warm(args: &Args) -> Report {
    let mut report = Report::default();
    let mut inputs = None;
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let generated = warm_inputs(args.seed, ROUND_REQUESTS / 2);
            let (server, _) = warm_server(&generated, &mut report);
            server.shutdown();
            inputs = Some(generated);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let inputs = inputs.expect("set-up ran");
    report.notes.push(format!(
        "serve-warm: {} requests per round over 2 clients, {} corpus CHECKs, {} warmed \
         suites; seed {} stream fingerprint {}",
        ROUND_REQUESTS,
        inputs.items.len(),
        inputs.warmed.len(),
        args.seed,
        inputs.fingerprint.hex()
    ));
    if args.trace {
        return warm_traced(&inputs, report);
    }
    let mut passes = Vec::new();
    let mut timed = 0.0;
    while timed < args.seconds {
        let (pass, _, _) = warm_round(&inputs, &mut report);
        timed += pass.wall;
        passes.push(pass);
    }
    let fresh_flags = inputs.streams.iter().flatten().map(|req| match req {
        Req::Check { fresh, .. } => *fresh,
        Req::Query(_) => false,
    });
    let (mut fresh, mut hits) = (Vec::new(), Vec::new());
    for (ms, is_fresh) in op_ms(&passes, Pick::Fastest).into_iter().zip(fresh_flags) {
        if is_fresh {
            fresh.push(ms)
        } else {
            hits.push(ms)
        }
    }
    for (what, xs) in [("fresh CHECK", &fresh), ("cache hit", &hits)] {
        report.notes.push(format!(
            "{what}: {} requests, p50 {:.4} ms, p99 {:.4} ms",
            xs.len(),
            stats::median(xs),
            stats::percentile(xs, 99.0)
        ));
    }
    report
        .notes
        .push("each round on a fresh server".to_string());
    end_to_end(&mut report, &setups, &passes, Some(99.0), Pick::Fastest);
    report
}

/// `check::check_outcome` as a model operation.
struct CheckOp<'a>(&'a LitmusTest, &'a Outcome);

impl ModelOp for CheckOp<'_> {
    type Out = check::Verdict;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> check::Verdict {
        check::check_outcome(model, self.0, self.1)
    }
}

/// The server's two caches, for the replay.
struct Caches {
    suites: SuiteCache,
    checks: SuiteCache,
}

impl Caches {
    /// Fresh caches of the server's sizes, holding the warmed suites.
    fn warmed(inputs: &WarmInputs, bodies: &[String]) -> Caches {
        let caches = Caches {
            suites: SuiteCache::new(ServeConfig::default().cache_bytes),
            checks: SuiteCache::new(4 << 20),
        };
        for (e, body) in inputs.warmed.iter().zip(bodies) {
            let plans = dispatch(&e.req.model, Plan(&e.req)).expect("known model");
            let fp = suite_fingerprint(plans.iter().map(|p| &p.unit));
            caches.suites.put(fp, Arc::new(body.clone()), e.tests);
        }
        caches
    }
}

/// One serve-warm request through the client and server codecs, the
/// server's caches and the checker, without a socket: the calls the
/// server's `CHECK` and `QUERY` handlers make, in their order. Calls that
/// run back to back in one layer share one span.
fn replay_warm(
    trace: &mut Trace,
    caches: &Caches,
    inputs: &WarmInputs,
    req: Req,
) -> Result<(), String> {
    let (protocol, cache) = ("serve.protocol_us", "serve.cache_us");
    match req {
        Req::Check { item, fresh } => {
            let it = &inputs.items[item];
            let req = trace.time(protocol, || CheckRequest::from_body(&it.req.to_body()))?;
            let (fingerprint, hit) = trace.time(cache, || {
                let fingerprint = req.fingerprint();
                (fingerprint, caches.checks.get(fingerprint))
            });
            let cached = hit.is_some();
            let core = match hit {
                Some((core, _)) => core,
                None => {
                    let (test, outcome) = trace
                        .time("litmus.wire_us", || wire::decode(&req.test))
                        .map_err(|e| e.to_string())?;
                    let verdict = trace.time("models.check_us", || {
                        dispatch(&req.model, CheckOp(&test, &outcome))
                    })?;
                    let consistent = verdict.is_consistent();
                    let core = trace.time(protocol, || {
                        let (axiom, cycle) = match verdict {
                            check::Verdict::Inconsistent(Some(w)) => (w.axiom, w.events),
                            _ => (String::new(), Vec::new()),
                        };
                        let cycle: Vec<String> = cycle.iter().map(usize::to_string).collect();
                        let core = format!(
                            "consistent={consistent}\naxiom={axiom}\ncycle={}\n",
                            cycle.join(",")
                        );
                        Arc::new(core)
                    });
                    trace.time(cache, || {
                        let weight = usize::from(consistent);
                        caches.checks.put(fingerprint, core.clone(), weight)
                    });
                    core
                }
            };
            let reply = trace.time(protocol, || {
                let body = format!("fingerprint={fingerprint:016x}\ncached={cached}\n{core}");
                let sealed = seal_body(&body);
                open_body(&sealed).and_then(CheckReply::from_body)
            })?;
            if reply.consistent != it.consistent || reply.cached == fresh {
                return Err(format!("replayed CHECK {fingerprint:016x} disagrees"));
            }
        }
        Req::Query(i) => {
            let e = &inputs.warmed[i];
            let req = trace.time(protocol, || QueryRequest::from_body(&e.req.to_body()))?;
            let (fingerprint, hit) = trace.time(cache, || {
                let plans = dispatch(&req.model, Plan(&req)).expect("known model");
                let fingerprint = suite_fingerprint(plans.iter().map(|p| &p.unit));
                (fingerprint, caches.suites.get(fingerprint))
            });
            let (suite, tests) = hit.ok_or(format!("{}: replayed QUERY missed", e.label))?;
            let reply = trace.time(protocol, || {
                let reply = QueryReply {
                    fingerprint,
                    tests,
                    cached: true,
                    compilations: 0,
                    retries: 0,
                    truncated: false,
                    degraded: 0,
                    suite: (*suite).clone(),
                };
                let sealed = seal_body(&reply.to_body());
                open_body(&sealed).and_then(QueryReply::from_body)
            })?;
            trace.count("serve.suite_bytes", reply.suite.len() as u64);
            if let Some(m) = e.mismatch(&reply, true) {
                return Err(m);
            }
        }
    }
    Ok(())
}

/// Replays a round's requests, the two clients' streams interleaved, and
/// returns the wall seconds the requests took.
fn replay_round(
    trace: &mut Trace,
    inputs: &WarmInputs,
    bodies: &[String],
    report: &mut Report,
) -> f64 {
    let caches = Caches::warmed(inputs, bodies);
    let [a, b] = &inputs.streams;
    let mut wall = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        for req in [x, y] {
            let t = Instant::now();
            let result = replay_warm(trace, &caches, inputs, req);
            wall += t.elapsed().as_secs_f64();
            if let Err(e) = result {
                report.failed += 1;
                report.fail(e);
            }
        }
    }
    wall
}

/// The traced `serve-warm` run: one loopback round for end-to-end
/// latency and the server's counters, then the same requests replayed
/// with timers and again without.
fn warm_traced(inputs: &WarmInputs, mut report: Report) -> Report {
    let (pass, stats, bodies) = warm_round(inputs, &mut report);
    let mut trace = Trace::default();
    count_server_stats(&mut trace, &stats);
    let replay_s = replay_round(&mut trace, inputs, &bodies, &mut report);
    let untraced_s = replay_round(&mut Trace::disabled(), inputs, &bodies, &mut report);
    let n = pass.ops.len() as u64;
    let transport_us = (pass.ops.iter().sum::<f64>() - trace.covered_seconds()) * 1e6 / n as f64;
    let layers = Layers {
        trace: &trace,
        requests: n,
        replay_s,
        untraced_s,
        transport_us,
    };
    report.metrics = layers.metrics();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cold_print(seed: u64) -> Fingerprint {
        let mut print = Fingerprint::default();
        cold_requests(seed).iter().for_each(|e| print.add(&e.label));
        print
    }

    #[test]
    fn the_seed_alone_decides_the_generated_requests() {
        assert_eq!(
            warm_inputs(7, 100).fingerprint,
            warm_inputs(7, 100).fingerprint
        );
        assert_ne!(
            warm_inputs(7, 100).fingerprint,
            warm_inputs(8, 100).fingerprint
        );
        assert_eq!(cold_print(7), cold_print(7));
        assert_ne!(cold_print(7), cold_print(8));
    }

    #[test]
    fn cold_requests_are_108_distinct_pinned_queries() {
        let requests = cold_requests(1);
        let labels: BTreeSet<&str> = requests.iter().map(|e| e.label.as_str()).collect();
        assert_eq!((requests.len(), labels.len()), (108, 108));
    }

    /// Every unit of a plan through `run_unit`, off the serving path.
    struct RunUnits<'a>(&'a [UnitPlan]);

    impl ModelOp for RunUnits<'_> {
        type Out = Vec<CanonicalSuite>;
        fn run<M: MemoryModel + Sync>(self, model: &M) -> Vec<CanonicalSuite> {
            self.0.iter().map(|p| run_unit(model, p).tests).collect()
        }
    }

    /// Checks the serve pins of `expected.txt` against the library; after
    /// a change that legitimately moves a suite, the failure lists the
    /// replacement lines. Slow: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn serve_pins_match_the_library() {
        let mut stale = Vec::new();
        for e in cold_requests(1) {
            let plans = dispatch(&e.req.model, Plan(&e.req)).expect("known model");
            let suites = dispatch(&e.req.model, RunUnits(&plans)).expect("known model");
            let merged = merge_unit_suites(&suites);
            let digest = fnv1a(encode_suite_body(&merged).as_bytes());
            if (merged.len(), digest) != (e.tests, e.digest) {
                stale.push(format!("{} {} {digest:016x}", e.label, merged.len()));
            }
        }
        assert!(stale.is_empty(), "stale pins:\n{}", stale.join("\n"));
    }

    #[test]
    fn warm_streams_mix_fresh_repeated_and_query_requests() {
        let inputs = warm_inputs(3, 500);
        let mut fresh_items = BTreeSet::new();
        for stream in &inputs.streams {
            let mut sent = BTreeSet::new();
            let (mut fresh, mut queries) = (0, 0);
            for &req in stream {
                match req {
                    Req::Check { item, fresh: true } => {
                        assert!(fresh_items.insert(item), "a fresh item is sent once");
                        sent.insert(item);
                        fresh += 1;
                    }
                    Req::Check { item, .. } => assert!(sent.contains(&item)),
                    Req::Query(_) => queries += 1,
                }
            }
            assert!((250..350).contains(&fresh), "{fresh} fresh of 500");
            assert!((50..150).contains(&queries), "{queries} queries of 500");
        }
        // The oracle's expected verdicts agree with the checker the server
        // runs, so a correct server fails no request.
        struct CheckerSays<'a>(&'a LitmusTest, &'a Outcome);
        impl ModelOp for CheckerSays<'_> {
            type Out = bool;
            fn run<M: MemoryModel + Sync>(self, model: &M) -> bool {
                check::observable(model, self.0, self.1)
            }
        }
        for item in &inputs.items {
            let (t, o) = wire::decode(&item.req.test).expect("corpus items decode");
            let says = dispatch(&item.req.model, CheckerSays(&t, &o)).expect("known model");
            assert_eq!(says, item.consistent, "{}", item.req.test);
        }
    }
}
