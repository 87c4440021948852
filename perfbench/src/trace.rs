//! The traced run: every workload's script replayed in-process, with
//! spans around each public layer call and `ServeSession::handle_line`
//! as the parent.
//!
//! Nothing inside the program is instrumented. Each request is first
//! served by a real `ServeSession` (the parent span, timed as a whole);
//! then the benchmark makes the same public layer calls itself on a
//! shadow state of its own — vocabulary, plan cache, durable session and
//! views — and records a child span around each. A layer's self time is
//! the sum of its child spans; `serve.other` is the parent total minus
//! all child spans (dispatch, locking, bookkeeping and rendering). The
//! replay is also run once untraced; the difference of the two parent
//! totals is the tracing overhead.

use crate::check::Checker;
use crate::gen::{generate, Op, Request, Script, Workload};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::tcp::{self, Round, Sample};
use gomq_core::{Fact, FactId, IndexedInstance, Vocab};
use gomq_datalog::{Budget, Materialization};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::backend::native;
use gomq_engine::{
    emit_certificate, CertSource, DurableSession, OmqPlan, PersistOptions, PlanCache, ServeConfig,
    ServeSession,
};
use gomq_rewriting::canonical_omq_text;
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    id: u32,
    /// 0 for a parent (`serve`) span.
    parent: u32,
    req: u32,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Spans of one traced replay, kept in memory until the run ends.
struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    req: u32,
    parent: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            req: 0,
            parent: 0,
        }
    }

    fn record(&mut self, name: &'static str, parent: u32, start: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req: self.req,
            name,
            start,
            end: Instant::now(),
        });
        id
    }

    /// Runs `f` inside a child span of the current request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, self.parent, start);
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                (s.start - self.base).as_nanos(),
                (s.end - self.base).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    request_bytes: usize,
    response_bytes: usize,
    requests: usize,
    ingest_facts: usize,
    eval_rounds: usize,
    eval_derived: usize,
    eval_answers: usize,
    compiles: usize,
    compiled_rules: usize,
    session_queries: usize,
    maintained: usize,
    rederived: u64,
    snapshots: usize,
    certs: usize,
    cert_bytes: usize,
    facts_asserted: usize,
    vocab_rels: usize,
}

/// The benchmark's own copy of the serving state the layer calls run on.
struct Shadow {
    vocab: Mutex<Vocab>,
    cache: PlanCache,
    session: DurableSession,
    threads: usize,
}

impl Shadow {
    fn new(data_dir: Option<&Path>) -> Result<Shadow, String> {
        let mut vocab = Vocab::new();
        let mut session = match data_dir {
            Some(dir) => {
                DurableSession::open(dir, PersistOptions::default(), &mut vocab)
                    .map_err(|e| e.to_string())?
                    .0
            }
            None => DurableSession::in_memory(),
        };
        session.set_view_capacity(gomq_engine::DEFAULT_MAX_VIEWS);
        Ok(Shadow {
            vocab: Mutex::new(vocab),
            cache: PlanCache::new(),
            session,
            threads: ServeConfig::default().threads,
        })
    }

    fn vocab(&self) -> std::sync::MutexGuard<'_, Vocab> {
        self.vocab
            .lock()
            .expect("the shadow vocabulary is never poisoned")
    }

    /// Replays one request's layer calls, recording a child span each.
    fn replay(&mut self, t: &mut Tracer, c: &mut Counts, r: &Request) -> Result<(), String> {
        let fields = t.span("json", || gomq_engine::json::parse(&r.line))?;
        let field = |name: &str| -> Result<String, String> {
            match &fields {
                gomq_engine::json::Json::Obj(o) => o
                    .get(name)
                    .and_then(|v| v.as_str())
                    .map(str::to_owned)
                    .ok_or(format!("missing {name}")),
                _ => Err("request is not an object".into()),
            }
        };
        let budget = Budget::UNLIMITED;
        match &r.op {
            Op::Query {
                aboxes,
                batch,
                certificate,
                ..
            } => {
                let plan = self.plan(t, c, &field("ontology")?, &field("query")?)?;
                let mark = self.vocab().const_mark();
                let parsed: Vec<IndexedInstance> = aboxes
                    .iter()
                    .map(|a| self.ingest(t, c, a))
                    .collect::<Result<_, _>>()?;
                let goal = plan.program.goal;
                if *certificate {
                    let abox = &parsed[0];
                    let (total, derivs, es) = t
                        .span("eval", || {
                            gomq_datalog::fixpoint_traced(&plan.program.rules, abox, &budget)
                        })
                        .map_err(|e| e.to_string())?;
                    let answer_ids: Vec<u32> = (0..total.len() as u32)
                        .filter(|&i| total.store().rel(FactId(i)) == goal)
                        .collect();
                    c.eval_rounds += es.rounds;
                    c.eval_derived += es.derived;
                    c.eval_answers += answer_ids.len();
                    let base_len = abox.len() as u32;
                    let source = CertSource {
                        instance: &total,
                        rules: &plan.program.rules,
                        goal,
                        answer_ids: &answer_ids,
                        snapshot: None,
                    };
                    let vocab = self
                        .vocab
                        .lock()
                        .expect("the shadow vocabulary is never poisoned");
                    let cert = t
                        .span("certify", || {
                            emit_certificate(
                                &vocab,
                                &source,
                                |id| id < base_len,
                                |id| derivs[id as usize].as_ref(),
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    c.certs += 1;
                    c.cert_bytes += cert.len();
                } else if *batch {
                    let outs = t
                        .span("eval", || {
                            native::eval_batch_budgeted(
                                &plan.strata,
                                goal,
                                &parsed,
                                self.threads,
                                &budget,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    for (answers, es) in outs {
                        c.eval_rounds += es.rounds;
                        c.eval_derived += es.derived;
                        c.eval_answers += answers.len();
                    }
                } else {
                    let (answers, es) = t
                        .span("eval", || {
                            native::eval_strata_budgeted(
                                &plan.strata,
                                goal,
                                &parsed[0],
                                self.threads,
                                &budget,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    c.eval_rounds += es.rounds;
                    c.eval_derived += es.derived;
                    c.eval_answers += answers.len();
                }
                // Request constants are rolled back, as the server does.
                self.vocab().truncate_consts(mark);
            }
            Op::SessionQuery { certificate, .. } => {
                let plan = self.plan(t, c, &field("ontology")?, &field("query")?)?;
                self.session_query(t, c, &plan, *certificate)?;
            }
            Op::Assert { abox } => {
                let (facts, syms) = t.span("ingest", || -> Result<_, String> {
                    let mut vocab = self.vocab();
                    let d = gomq_core::parse::parse_instance(abox, &mut vocab)
                        .map_err(|e| e.to_string())?;
                    let facts: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
                    let syms = facts
                        .iter()
                        .map(|f| gomq_engine::session::sym_fact(&vocab, f.rel, &f.args))
                        .collect();
                    Ok((facts, syms))
                })?;
                c.ingest_facts += facts.len();
                c.facts_asserted += facts.len();
                let session = &mut self.session;
                t.span("session", || session.assert(syms, &facts))
                    .map_err(|e| e.to_string())?;
                self.snapshot_if_due(t, c)?;
            }
            Op::Mark => {
                let session = &mut self.session;
                t.span("session", || session.mark())
                    .map_err(|e| e.to_string())?;
                self.snapshot_if_due(t, c)?;
            }
            Op::Rollback { mark } => {
                let session = &mut self.session;
                let info = t
                    .span("session", || session.rollback(*mark))
                    .map_err(|e| e.to_string())?;
                let maint = t.span("ivm", || {
                    session.maintain_views_rollback(info.facts as usize, &budget)
                });
                c.rederived += maint.rederived;
                self.snapshot_if_due(t, c)?;
            }
        }
        Ok(())
    }

    /// `parse_ontology` + `to_gf` (`dl`), `canonical_omq_text` and the
    /// plan-cache lookup (`cache`), compiling on a miss (`plan`).
    fn plan(
        &mut self,
        t: &mut Tracer,
        c: &mut Counts,
        ontology: &str,
        query: &str,
    ) -> Result<Arc<OmqPlan>, String> {
        let (o, q) = t.span("dl", || -> Result<_, String> {
            let mut vocab = self.vocab();
            let dl = parse_ontology(ontology, &mut vocab).map_err(|e| e.to_string())?;
            let o = to_gf(&dl);
            let q = vocab
                .find_rel(query)
                .ok_or("query relation not in the ontology")?;
            Ok((o, q))
        })?;
        t.span("cache", || canonical_omq_text(&o, q, &self.vocab()));
        let start = Instant::now();
        let (plan, hit) = self.cache.get_or_compile(&o, q, &self.vocab);
        let plan = plan.map_err(|e| e.to_string())?;
        if hit {
            t.record("cache", t.parent, start);
        } else {
            t.record("plan", t.parent, start);
            c.compiles += 1;
            c.compiled_rules += plan.program.rules.len();
        }
        Ok(plan)
    }

    /// `parse_instance` + `IndexedInstance::from_instance`.
    fn ingest(
        &self,
        t: &mut Tracer,
        c: &mut Counts,
        abox: &str,
    ) -> Result<IndexedInstance, String> {
        let d = t.span("ingest", || -> Result<_, String> {
            let d = gomq_core::parse::parse_instance(abox, &mut self.vocab())
                .map_err(|e| e.to_string())?;
            Ok(IndexedInstance::from_instance(d))
        })?;
        c.ingest_facts += d.len();
        Ok(d)
    }

    /// A session query answered from the plan's maintained view, as
    /// `gomq-serve` answers it with views on.
    fn session_query(
        &mut self,
        t: &mut Tracer,
        c: &mut Counts,
        plan: &OmqPlan,
        want_cert: bool,
    ) -> Result<(), String> {
        let budget = Budget::UNLIMITED;
        let session = &mut self.session;
        let (store, view, epoch, position) = t.span("session", || {
            let store = session.share_store();
            let epoch = session.views().epoch();
            let position = session.position();
            let mut view = session.views_mut().take(plan.key);
            if want_cert && view.as_ref().is_some_and(|v| !v.is_recording()) {
                view = None;
                session.views_mut().note_dropped(1);
            }
            (store, view, epoch, position)
        });
        c.session_queries += 1;
        let (rules, goal) = (&plan.program.rules, plan.program.goal);
        let view = match view {
            Some(mut view) => {
                c.maintained += 1;
                let es = t
                    .span("ivm", || view.sync(&store, &budget))
                    .map_err(|e| e.to_string())?;
                c.rederived += es.ivm_rederived as u64;
                view
            }
            None => {
                t.span("ivm", || {
                    if want_cert {
                        Materialization::build_recording(rules, goal, &store, &budget)
                    } else {
                        Materialization::build(rules, goal, &store, &budget)
                    }
                })
                .map_err(|e| e.to_string())?
                .0
            }
        };
        let answer_ids = view.answer_ids();
        if want_cert {
            let base: HashSet<u32> = view.base_fact_ids().iter().copied().collect();
            let source = CertSource {
                instance: view.instance(),
                rules: view.rules(),
                goal: view.goal(),
                answer_ids: &answer_ids,
                snapshot: Some(position),
            };
            let vocab = self
                .vocab
                .lock()
                .expect("the shadow vocabulary is never poisoned");
            let cert = t
                .span("certify", || {
                    emit_certificate(
                        &vocab,
                        &source,
                        |f| base.contains(&f),
                        |f| view.derivation(f),
                    )
                })
                .map_err(|e| e.to_string())?;
            c.certs += 1;
            c.cert_bytes += cert.len();
        }
        c.eval_answers += answer_ids.len();
        let session = &mut self.session;
        t.span("session", || session.views_mut().put(plan.key, view, epoch));
        Ok(())
    }

    fn snapshot_if_due(&mut self, t: &mut Tracer, c: &mut Counts) -> Result<(), String> {
        if self.session.snapshot_due() {
            let (session, vocab) = (&mut self.session, &self.vocab);
            t.span("session.snapshot", || {
                session.snapshot_now(
                    &vocab
                        .lock()
                        .expect("the shadow vocabulary is never poisoned"),
                )
            })
            .map_err(|e| e.to_string())?;
            c.snapshots += 1;
        }
        Ok(())
    }
}

/// The in-process order of a script: set-up first, then the
/// connections' requests interleaved one by one.
fn replay_order(script: &Script) -> Vec<(Option<usize>, usize)> {
    let mut order: Vec<(Option<usize>, usize)> =
        (0..script.setup.len()).map(|i| (None, i)).collect();
    let longest = script.conns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (c, reqs) in script.conns.iter().enumerate() {
            if i < reqs.len() {
                order.push((Some(c), i));
            }
        }
    }
    order
}

/// One in-process replay of `script`: the served responses as samples
/// (for the checker), the per-request `handle_line` durations, and — if
/// traced — the spans and counts.
struct Replay {
    round: Round,
    handle: Vec<Duration>,
    tracer: Tracer,
    counts: Counts,
    /// The served engine's plan-cache hits, misses and evictions.
    cache: (u64, u64, u64),
}

fn replay(script: &Script, dir: &Path, traced: bool) -> Result<Replay, String> {
    let durable = script.workload == Workload::SessionRw;
    let served_dir = dir.join("served");
    let shadow_dir = dir.join("shadow");
    for d in [&served_dir, &shadow_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let config = ServeConfig {
        data_dir: durable.then(|| served_dir.clone()),
        ..ServeConfig::default()
    };
    let mut served = ServeSession::with_config(config);
    let mut shadow = if traced {
        Some(Shadow::new(durable.then_some(shadow_dir.as_path()))?)
    } else {
        None
    };
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut setup = Vec::new();
    let mut conns: Vec<Vec<Sample>> = script.conns.iter().map(|_| Vec::new()).collect();
    let mut handle = Vec::new();
    let order = replay_order(script);
    let first = Instant::now();
    for (req_id, &(conn, i)) in order.iter().enumerate() {
        let r = match conn {
            None => &script.setup[i],
            Some(c) => &script.conns[c][i],
        };
        let send = Instant::now();
        let resp = served.handle_line(&r.line);
        let recv = Instant::now();
        handle.push(recv - send);
        if let Some(shadow) = shadow.as_mut() {
            tracer.req = req_id as u32 + 1;
            tracer.parent = tracer.record("serve", 0, send);
            counts.requests += 1;
            counts.request_bytes += r.line.len();
            counts.response_bytes += resp.len();
            shadow.replay(&mut tracer, &mut counts, r)?;
        }
        let sample = Sample {
            send,
            recv,
            resp: Some(resp),
        };
        match conn {
            None => setup.push(sample),
            Some(c) => conns[c].push(sample),
        }
    }
    let wall = first.elapsed();
    let stored_bytes = if durable {
        tcp::dir_bytes(&served_dir)
    } else {
        0
    };
    let c = served.engine().cache();
    let cache = (c.hits(), c.misses(), c.evictions());
    if let Some(shadow) = &shadow {
        counts.vocab_rels = shadow.vocab().rel_count();
    }
    drop(served);
    drop(shadow);
    for d in [&served_dir, &shadow_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(Replay {
        round: Round {
            setup,
            conns,
            wall,
            setup_s: 0.0,
            peak_rss_mb: 0.0,
            cpu_s: 0.0,
            steal_pct: 0.0,
            stored_bytes,
            restart: first,
            recovery: Vec::new(),
        },
        handle,
        tracer,
        counts,
        cache,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Self time per layer in ms: each child span's duration, and
/// `serve.other` = parents − children.
fn self_times(t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let (mut parents, mut children) = (0.0, 0.0);
    for s in &t.spans {
        let d = ms(s.end - s.start);
        if s.parent == 0 {
            parents += d;
        } else {
            children += d;
            *out.entry(s.name).or_insert(0.0) += d;
        }
    }
    out.insert("serve.other", parents - children);
    out
}

/// The per-layer metrics of one pass over one workload.
fn layer_metrics(
    w: Workload,
    script: &Script,
    plain: &Replay,
    traced: &Replay,
    tcp_query_p50_ms: Option<f64>,
    m: &mut BTreeMap<String, f64>,
) {
    let st = self_times(&traced.tracer);
    let c = &traced.counts;
    let p = w.name();
    let mut put = |k: &str, v: f64| {
        m.insert(format!("{p}.{k}"), v);
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let layer = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let total = |r: &Replay| ms(r.handle.iter().sum());
    put("trace.overhead_ms", total(traced) - total(plain));
    put("serve.handle_line_ms", total(traced));
    for name in [
        "json",
        "dl",
        "cache",
        "plan",
        "ingest",
        "eval",
        "session",
        "session.snapshot",
        "ivm",
        "certify",
        "serve.other",
    ] {
        put(&format!("self.{name}_ms"), layer(name));
    }
    let (hits, misses, evictions) = plain.cache;
    match w {
        Workload::HotSmall => {
            // In-process handle_line p50 over the script's queries.
            let n = script.setup.len();
            let inproc: Vec<f64> = plain.handle[n..].iter().map(|d| ms(*d)).collect();
            if let Some(tcp) = tcp_query_p50_ms {
                put("net.overhead_p50_ms", tcp - percentile(&inproc, 0.5));
            }
            put("dl.parse_ms", layer("dl"));
            put("cache.lookup_ms", layer("cache"));
            put(
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            );
            put("eval.ms", layer("eval"));
            put("serve.other_ms", layer("serve.other"));
            put(
                "serve.response_bytes",
                ratio(c.response_bytes as f64, c.requests as f64),
            );
        }
        Workload::BulkAbox => {
            put("json.parse_ms", layer("json"));
            put(
                "json.request_bytes",
                ratio(c.request_bytes as f64, c.requests as f64),
            );
            put("ingest.ms", layer("ingest"));
            put("ingest.facts", c.ingest_facts as f64);
            put("eval.ms", layer("eval"));
            put("eval.rounds", c.eval_rounds as f64);
            put(
                "eval.derived_per_answer",
                ratio(c.eval_derived as f64, c.eval_answers as f64),
            );
        }
        Workload::ColdCompile => {
            put("cache.lookup_ms", layer("cache"));
            put(
                "cache.hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            );
            put("cache.evictions", evictions as f64);
            put("plan.compile_ms", layer("plan"));
            put("plan.compiles", c.compiles as f64);
            put(
                "plan.rules",
                ratio(c.compiled_rules as f64, c.compiles as f64),
            );
            put("plan.vocab_rels", c.vocab_rels as f64);
        }
        Workload::SessionRw => {
            put("session.assert_ms", layer("session"));
            put("session.snapshot_ms", layer("session.snapshot"));
            put("wal.snapshots", c.snapshots as f64);
            put(
                "wal.bytes_per_fact",
                ratio(traced.round.stored_bytes as f64, c.facts_asserted as f64),
            );
            put("ivm.sync_ms", layer("ivm"));
            put(
                "ivm.maintained_ratio",
                ratio(c.maintained as f64, c.session_queries as f64),
            );
            put("ivm.rederived", c.rederived as f64);
            put("certify.ms", layer("certify"));
            put("certify.bytes", ratio(c.cert_bytes as f64, c.certs as f64));
            put("serve.other_ms", layer("serve.other"));
        }
    }
}

/// The `session_rw` end-to-end figures the traced run takes from its TCP
/// round: only that workload writes, so they are not gated per workload.
const TCP_SESSION_METRICS: [&str; 3] = [
    "session_rw.write_p50_ms",
    "session_rw.write_p99_ms",
    "session_rw.stored_bytes_per_fact",
];

/// Runs traced passes over all four workloads until `budget` is spent
/// (at least one), plus one TCP round each of `hot_small` (for the
/// network overhead) and `session_rw` (for the write latencies and
/// stored bytes, which only that workload has).
pub fn run(bin: &Path, work: &Path, seed: u64, budget: Duration) -> Result<Report, String> {
    let scripts: Vec<Script> = Workload::ALL.iter().map(|&w| generate(w, seed)).collect();
    let mut checkers: Vec<Checker<'_>> = scripts.iter().map(Checker::new).collect();
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());

    // The TCP rounds (tracing is never on over TCP).
    let mut tcp_p50 = None;
    let mut extra = BTreeMap::new();
    for (script, checker) in scripts.iter().zip(checkers.iter_mut()) {
        let w = script.workload;
        if w != Workload::HotSmall && w != Workload::SessionRw {
            continue;
        }
        let data_dir = (w == Workload::SessionRw).then(|| work.join("tcp-data"));
        let round = tcp::round(bin, script, data_dir.as_deref(), &[])?;
        let v = checker.check_round(&round, &[]);
        attempted += v.attempted;
        failed += v.failed;
        errors.extend(v.errors);
        let lat = |write: bool| -> Vec<f64> {
            script
                .conns
                .iter()
                .flatten()
                .zip(round.conns.iter().flatten())
                .filter(|(r, _)| r.op.is_write() == write)
                .map(|(_, s)| ms(s.latency()))
                .collect()
        };
        if w == Workload::HotSmall {
            tcp_p50 = Some(percentile(&lat(false), 0.5));
        } else {
            let facts: usize = script
                .setup
                .iter()
                .chain(script.conns.iter().flatten())
                .map(|r| match &r.op {
                    Op::Assert { abox } => abox.lines().count(),
                    _ => 0,
                })
                .sum();
            let values = [
                percentile(&lat(true), 0.5),
                percentile(&lat(true), 0.99),
                round.stored_bytes as f64 / facts.max(1) as f64,
            ];
            for (name, v) in TCP_SESSION_METRICS.into_iter().zip(values) {
                extra.insert(name.to_owned(), v);
            }
        }
    }

    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut slack: Vec<(&'static str, f64, f64)> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let mut m = extra.clone();
        for (script, checker) in scripts.iter().zip(checkers.iter_mut()) {
            let dir = work.join(format!("inproc-{}", script.workload.name()));
            let plain = replay(script, &dir, false)?;
            let traced = replay(script, &dir, true)?;
            for r in [&plain, &traced] {
                let v = checker.check_round(&r.round, &[]);
                attempted += v.attempted;
                failed += v.failed;
                errors.extend(v.errors);
            }
            layer_metrics(script.workload, script, &plain, &traced, tcp_p50, &mut m);
            if passes.is_empty() {
                let path = work
                    .parent()
                    .unwrap_or(work)
                    .join(format!("spans-{}-seed{seed}.jsonl", script.workload.name()));
                traced.tracer.write(&path).map_err(|e| e.to_string())?;
                let st = self_times(&traced.tracer);
                let children: f64 = st
                    .iter()
                    .filter(|(k, _)| **k != "serve.other")
                    .map(|(_, v)| v)
                    .sum();
                let parent = ms(traced.handle.iter().sum());
                slack.push((script.workload.name(), children, parent));
            }
        }
        passes.push(m);
    }

    errors.truncate(5);
    let mut report = Report::new(attempted, failed, errors);
    report.header(format!(
        "traced passes: {} over {} workloads ({} ops: {})",
        passes.len(),
        scripts.len(),
        scripts.iter().map(Script::ops).sum::<usize>(),
        scripts
            .iter()
            .map(|s| format!("{} {}", s.workload.name(), s.ops()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (w, children, parent) in &slack {
        report.header(format!(
            "{w}: child spans {children:.3} ms + serve.other {:.3} ms = handle_line {parent:.3} ms \
             (children cover {:.1}%)",
            parent - children,
            100.0 * children / parent.max(1e-9)
        ));
    }
    let keys: Vec<String> = passes[0].keys().cloned().collect();
    for k in keys {
        let vals: Vec<f64> = passes.iter().filter_map(|p| p.get(&k).copied()).collect();
        let unit = unit_of(&k);
        report.metric(&k, median(&vals), unit);
    }
    Ok(report)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with(".ms") {
        "ms"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("bytes_per_fact") {
        "B/fact"
    } else if name.ends_with("bytes") {
        "B"
    } else if name.ends_with("derived_per_answer") {
        "facts/answer"
    } else if name.ends_with(".rules") {
        "rules/plan"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    fn empty_replay() -> Replay {
        Replay {
            round: Round {
                setup: Vec::new(),
                conns: Vec::new(),
                wall: Duration::ZERO,
                setup_s: 0.0,
                peak_rss_mb: 0.0,
                cpu_s: 0.0,
                steal_pct: 0.0,
                stored_bytes: 0,
                restart: Instant::now(),
                recovery: Vec::new(),
            },
            handle: vec![Duration::from_micros(1); 64],
            tracer: Tracer::new(),
            counts: Counts::default(),
            cache: (0, 0, 0),
        }
    }

    #[test]
    fn the_traced_run_produces_every_per_layer_metric() {
        let script = generate(Workload::HotSmall, 1);
        let (plain, traced) = (empty_replay(), empty_replay());
        let mut m = BTreeMap::new();
        for w in Workload::ALL {
            layer_metrics(w, &script, &plain, &traced, Some(1.0), &mut m);
        }
        for name in TCP_SESSION_METRICS {
            m.insert(name.to_owned(), 0.0);
        }
        for name in PER_LAYER {
            assert!(m.contains_key(name), "{name} is never produced");
        }
    }
}
