//! Seeded workload generation: OMQ pools, ABoxes and the request
//! scripts every workload replays.
//!
//! Everything here is a pure function of the seed. The shape of each
//! workload (script length, ABox-size ladder, operation mix) is fixed;
//! the seed picks the content (ontologies, names, facts, order), so
//! runs with different seeds do comparable work.

use crate::oracle::{Oracle, OracleOmq};
use std::fmt::Write as _;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_903a_b1c4)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One ontology-mediated query and the vocabulary its ABoxes draw on.
#[derive(Clone, Debug)]
pub struct Omq {
    pub ontology: String,
    pub query: String,
    pub concepts: Vec<String>,
    pub roles: Vec<String>,
}

/// The two hand-written OMQs shipped in `examples/data`.
fn company() -> Omq {
    Omq {
        ontology: "Employee sub ex worksOn.Project\nManager sub Employee\n\
                   Project sub all worksOn-.Employee\nrole manages sub worksOn"
            .into(),
        query: "Employee".into(),
        concepts: vec!["Manager".into(), "Employee".into(), "Project".into()],
        roles: vec!["worksOn".into(), "manages".into()],
    }
}

fn org() -> Omq {
    Omq {
        ontology: "Intern sub Engineer\nEngineer sub Employee\nManager sub Employee\n\
                   Employee sub Person"
            .into(),
        query: "Person".into(),
        concepts: vec![
            "Intern".into(),
            "Engineer".into(),
            "Manager".into(),
            "Person".into(),
        ],
        roles: vec![],
    }
}

/// A random ALCHI-depth-1 hierarchy over `prefix`-named concepts and
/// roles: a subsumption tree, one existential restriction, and one of a
/// universal restriction, a domain axiom or a role inclusion.
fn hierarchy(rng: &mut Rng, n: usize, names: &Names<'_>) -> Omq {
    let concepts: Vec<String> = (0..n).map(|i| (names.concept)(i)).collect();
    let roles: Vec<String> = (0..2).map(|i| (names.role)(i)).collect();
    let mut axioms = Vec::new();
    for i in 1..n {
        axioms.push(format!("{} sub {}", concepts[i], concepts[rng.below(i)]));
    }
    let pick = |rng: &mut Rng| concepts[rng.below(n)].clone();
    let (a, b) = (pick(rng), pick(rng));
    axioms.push(format!("{a} sub ex {}.{b}", roles[0]));
    match rng.below(3) {
        0 => {
            let (a, b) = (pick(rng), pick(rng));
            axioms.push(format!("{a} sub all {}.{b}", roles[0]));
        }
        1 => {
            let (a, b) = (pick(rng), pick(rng));
            axioms.push(format!("ex {}.{a} sub {b}", roles[1]));
        }
        _ => axioms.push(format!("role {} sub {}", roles[1], roles[0])),
    }
    let query = concepts[rng.below(2)].clone();
    Omq {
        ontology: axioms.join("\n"),
        query,
        concepts,
        roles,
    }
}

/// How a generated hierarchy names its `i`-th concept and role.
struct Names<'a> {
    concept: &'a dyn Fn(usize) -> String,
    role: &'a dyn Fn(usize) -> String,
}

/// Largest rewriting kept: bigger ones cost milliseconds per small
/// ABox, which is not the small-OMQ serving case the workloads model.
const MAX_RULES: usize = 120;

/// Draws hierarchies until one compiles to at most [`MAX_RULES`] rules
/// (the oracle refuses OMQs the rewriter refuses, e.g. a closure that is
/// too large), so every generated OMQ is one the server answers.
fn rewritable(
    rng: &mut Rng,
    names: &Names<'_>,
    (lo, hi): (usize, usize),
    oracle: &Oracle,
) -> (Omq, OracleOmq) {
    loop {
        let n = rng.range(lo, hi);
        let omq = hierarchy(rng, n, names);
        if let Ok(compiled) = oracle.compile(&omq) {
            if compiled.rules() <= MAX_RULES {
                return (omq, compiled);
            }
        }
    }
}

/// An ABox of `size` facts over `omq`'s vocabulary, with constants
/// drawn from `consts` names `{cp}0..`.
pub fn abox(rng: &mut Rng, omq: &Omq, size: usize, cp: &str) -> String {
    let consts = (size / 2).max(2);
    let mut out = String::new();
    for i in 0..size {
        if i > 0 {
            out.push('\n');
        }
        let a = rng.below(consts);
        if !omq.roles.is_empty() && rng.below(3) == 0 {
            let r = &omq.roles[rng.below(omq.roles.len())];
            let b = rng.below(consts);
            let _ = write!(out, "{r}({cp}{a}, {cp}{b})");
        } else {
            let c = &omq.concepts[rng.below(omq.concepts.len())];
            let _ = write!(out, "{c}({cp}{a})");
        }
    }
    out
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What a request line asks the server to do, as the oracle sees it.
#[derive(Clone, Debug)]
pub enum Op {
    /// Answer OMQ `omq` over the given ABox(es); one answer set per ABox.
    Query {
        omq: usize,
        aboxes: Vec<String>,
        batch: bool,
        certificate: bool,
    },
    /// Answer OMQ `omq` over the session store.
    SessionQuery {
        omq: usize,
        certificate: bool,
    },
    Assert {
        abox: String,
    },
    Mark,
    Rollback {
        mark: u64,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Assert { .. } | Op::Mark | Op::Rollback { .. })
    }
}

/// One request: its line (what the server sees) and its meaning.
#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub op: Op,
}

pub fn render(id: &str, omqs: &[Omq], op: &Op) -> String {
    let mut l = String::from("{\"id\": ");
    json_str(&mut l, id);
    match op {
        Op::Query {
            omq,
            aboxes,
            batch,
            certificate,
        } => {
            omq_fields(&mut l, &omqs[*omq]);
            if *batch {
                l.push_str(", \"aboxes\": [");
                for (i, a) in aboxes.iter().enumerate() {
                    if i > 0 {
                        l.push_str(", ");
                    }
                    json_str(&mut l, a);
                }
                l.push(']');
            } else {
                l.push_str(", \"abox\": ");
                json_str(&mut l, &aboxes[0]);
            }
            if *certificate {
                l.push_str(", \"certificate\": true");
            }
        }
        Op::SessionQuery { omq, certificate } => {
            omq_fields(&mut l, &omqs[*omq]);
            l.push_str(", \"session\": true");
            if *certificate {
                l.push_str(", \"certificate\": true");
            }
        }
        Op::Assert { abox } => {
            l.push_str(", \"op\": \"assert\", \"abox\": ");
            json_str(&mut l, abox);
        }
        Op::Mark => l.push_str(", \"op\": \"mark\""),
        Op::Rollback { mark } => {
            let _ = write!(l, ", \"op\": \"rollback\", \"mark\": {mark}");
        }
    }
    l.push('}');
    l
}

fn omq_fields(l: &mut String, omq: &Omq) {
    l.push_str(", \"ontology\": ");
    json_str(l, &omq.ontology);
    l.push_str(", \"query\": ");
    json_str(l, &omq.query);
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotSmall,
    BulkAbox,
    ColdCompile,
    SessionRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotSmall,
        Workload::BulkAbox,
        Workload::ColdCompile,
        Workload::SessionRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::BulkAbox => "bulk_abox",
            Workload::ColdCompile => "cold_compile",
            Workload::SessionRw => "session_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A generated workload: the OMQs, the warm-up (set-up) requests, and
/// one request script per client connection.
pub struct Script {
    pub workload: Workload,
    pub omqs: Vec<Omq>,
    pub oracle: Oracle,
    /// Sent once per server before the clock starts (cache warm-up or
    /// session preload), on one connection.
    pub setup: Vec<Request>,
    /// One script per connection; `conns[0]` is the writer on
    /// `session_rw`.
    pub conns: Vec<Vec<Request>>,
}

impl Script {
    pub fn ops(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }

    pub fn request_bytes(&self) -> usize {
        self.conns.iter().flatten().map(|r| r.line.len() + 1).sum()
    }
}

/// `hot_small`: 12 pool OMQs; 1,200 requests with fresh 2–20-fact ABoxes.
const HOT_POOL: usize = 12;
const HOT_OPS: usize = 1200;
/// Concept names per generated hierarchy. The pools pose ontologies of
/// the examples' size: the rewritings of 4–5-concept hierarchies cost
/// milliseconds on a 10-fact ABox and evaluate superlinearly in the
/// ABox size (see README.md), so they would bury the front end on
/// `hot_small` and turn `bulk_abox` into a few multi-second requests.
/// `cold_compile` poses the larger ones: it needs hundreds of distinct
/// OMQs and evaluates each on one fact.
const POOL_CONCEPTS: (usize, usize) = (3, 3);
const COLD_CONCEPTS: (usize, usize) = (4, 5);
const BULK_POOL: usize = 6;
/// `bulk_abox`: a fixed ladder of ABox sizes, 1k–5k facts; every fourth
/// request is a 4-ABox batch of the same total size.
const BULK_SIZES: [usize; 9] = [1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000];
/// `cold_compile`: more distinct OMQs than the 256-entry plan cache.
const COLD_OPS: usize = 320;
/// `session_rw`: preload, writer ops, reader ops, OMQs.
const SESSION_PRELOAD: usize = 400;
const SESSION_WRITES: usize = 600;
const SESSION_READS: usize = 600;
const SESSION_OMQS: usize = 3;
/// Every 20th script query asks for a certificate (5%), at a seeded
/// phase, so every seed certifies the same number of requests.
/// `bulk_abox` certifies none.
const CERT_EVERY: usize = 20;

pub fn generate(workload: Workload, seed: u64) -> Script {
    let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0x1000_0000_01b3));
    let phase = rng.below(CERT_EVERY);
    let certified = |k: usize| k % CERT_EVERY == phase;
    let mut oracle = Oracle::default();
    let mut omqs = Vec::new();
    let mut setup = Vec::new();
    let mut conns = Vec::new();
    let req = |id: String, omqs: &[Omq], op: Op| Request {
        line: render(&id, omqs, &op),
        op,
    };
    match workload {
        Workload::HotSmall => {
            examples(&mut oracle, &mut omqs);
            pool(
                &mut rng,
                &mut oracle,
                &mut omqs,
                HOT_POOL - 2,
                "h",
                POOL_CONCEPTS,
            );
            for (i, omq) in omqs.iter().enumerate() {
                let a = abox(&mut rng, omq, 4, "w");
                setup.push(req(format!("w{i}"), &omqs, query(i, a, false)));
            }
            let mut script = Vec::with_capacity(HOT_OPS);
            for k in 0..HOT_OPS {
                let i = k % omqs.len();
                let size = 2 + k % 19;
                let a = abox(&mut rng, &omqs[i], size, &format!("k{k}x"));
                script.push(req(format!("q{k}"), &omqs, query(i, a, certified(k))));
            }
            conns.push(script);
        }
        Workload::BulkAbox => {
            examples(&mut oracle, &mut omqs);
            pool(
                &mut rng,
                &mut oracle,
                &mut omqs,
                BULK_POOL - 2,
                "b",
                POOL_CONCEPTS,
            );
            for (i, omq) in omqs.iter().enumerate() {
                let a = abox(&mut rng, omq, 4, "w");
                setup.push(req(format!("w{i}"), &omqs, query(i, a, false)));
            }
            // Fixed (size, OMQ, batch) triples in a seeded order.
            let mut shape: Vec<(usize, usize, bool)> = (0..BULK_SIZES.len())
                .map(|k| (BULK_SIZES[k], k % BULK_POOL, k % 4 == 3))
                .collect();
            rng.shuffle(&mut shape);
            let mut script = Vec::new();
            for (k, (size, i, batch)) in shape.into_iter().enumerate() {
                let op = if batch {
                    let aboxes = (0..4)
                        .map(|j| abox(&mut rng, &omqs[i], size / 4, &format!("k{k}b{j}x")))
                        .collect();
                    Op::Query {
                        omq: i,
                        aboxes,
                        batch: true,
                        certificate: false,
                    }
                } else {
                    query(i, abox(&mut rng, &omqs[i], size, &format!("k{k}x")), false)
                };
                script.push(req(format!("q{k}"), &omqs, op));
            }
            conns.push(script);
        }
        Workload::ColdCompile => {
            // Fixed shapes over one shared name pool (so parsing interns
            // no fresh relations), each renamed by a seeded permutation
            // of the pool and posed in a seeded order: every seed
            // compiles isomorphic OMQs, each distinct from the others.
            // Compile cost depends on the names' order, so each OMQ
            // draws its own permutation and the effect averages out.
            let mut shapes = Rng::new(POOL_SHAPE_SEED);
            let mut seen = std::collections::HashSet::new();
            let mut drawn = Vec::with_capacity(COLD_OPS);
            while drawn.len() < COLD_OPS {
                let mut perm: Vec<usize> = (0..COLD_CONCEPTS.1).collect();
                rng.shuffle(&mut perm);
                let flip = rng.below(2);
                let concept = |i: usize| format!("C{}", perm[i]);
                let role = |i: usize| format!("r{}", i ^ flip);
                let names = Names {
                    concept: &concept,
                    role: &role,
                };
                let (omq, compiled) = rewritable(&mut shapes, &names, COLD_CONCEPTS, &oracle);
                if seen.insert(compiled.canonical.clone()) {
                    drawn.push((omq, compiled));
                }
            }
            rng.shuffle(&mut drawn);
            // One warm-up request (an example OMQ outside the script) so
            // the server has accepted the connection before the clock
            // starts.
            add_example(&mut oracle, &mut omqs, org());
            let a = abox(&mut rng, &omqs[0], 4, "w");
            setup.push(req("w0".into(), &omqs, query(0, a, false)));
            let mut script = Vec::with_capacity(COLD_OPS);
            for (k, (omq, compiled)) in drawn.into_iter().enumerate() {
                oracle.add(compiled);
                let fact = format!("{}(c0)", omq.concepts[omq.concepts.len() - 1]);
                omqs.push(omq);
                let op = query(omqs.len() - 1, fact, certified(k));
                script.push(req(format!("q{k}"), &omqs, op));
            }
            conns.push(script);
        }
        Workload::SessionRw => {
            examples(&mut oracle, &mut omqs);
            pool(
                &mut rng,
                &mut oracle,
                &mut omqs,
                SESSION_OMQS - 2,
                "s",
                POOL_CONCEPTS,
            );
            let omqs_len = omqs.len();
            // Preload and writer asserts draw on every OMQ's vocabulary.
            let assert_op = |rng: &mut Rng, k: usize, size: usize| {
                let omq = &omqs[k % omqs_len];
                Op::Assert {
                    abox: abox(rng, omq, size, &format!("p{}x", k % 97)),
                }
            };
            for k in 0..SESSION_PRELOAD / 4 {
                let op = assert_op(&mut rng, k, 4);
                setup.push(req(format!("p{k}"), &omqs, op));
            }
            for i in 0..omqs.len() {
                let op = Op::SessionQuery {
                    omq: i,
                    certificate: false,
                };
                setup.push(req(format!("pw{i}"), &omqs, op));
            }
            let mut writer = Vec::with_capacity(SESSION_WRITES);
            let mut marks = 0u64;
            let mut open_mark: Option<(u64, usize)> = None;
            for k in 0..SESSION_WRITES {
                let op = match open_mark {
                    // Roll back a short burst: mark, 3 asserts, rollback.
                    Some((m, at)) if k == at + 4 => {
                        open_mark = None;
                        Op::Rollback { mark: m }
                    }
                    None if k % 50 == 49 => {
                        open_mark = Some((marks, k));
                        marks += 1;
                        Op::Mark
                    }
                    _ => {
                        let size = rng.range(1, 4);
                        assert_op(&mut rng, SESSION_PRELOAD + k, size)
                    }
                };
                writer.push(req(format!("w{k}"), &omqs, op));
            }
            let mut reader = Vec::with_capacity(SESSION_READS);
            for k in 0..SESSION_READS {
                let op = Op::SessionQuery {
                    omq: k % omqs.len(),
                    certificate: certified(k),
                };
                reader.push(req(format!("r{k}"), &omqs, op));
            }
            conns.push(writer);
            conns.push(reader);
        }
    }
    Script {
        workload,
        omqs,
        oracle,
        setup,
        conns,
    }
}

/// The two example OMQs, compiled.
fn examples(oracle: &mut Oracle, omqs: &mut Vec<Omq>) {
    add_example(oracle, omqs, company());
    add_example(oracle, omqs, org());
}

fn add_example(oracle: &mut Oracle, omqs: &mut Vec<Omq>, omq: Omq) {
    oracle.add(oracle.compile(&omq).expect("the example OMQs compile"));
    omqs.push(omq);
}

/// A single-ABox query.
fn query(omq: usize, abox: String, certificate: bool) -> Op {
    Op::Query {
        omq,
        aboxes: vec![abox],
        batch: false,
        certificate,
    }
}

/// Seed of the OMQ *shapes* of every workload. The cost of a request
/// depends on the shape, so the shapes stay the same for every run
/// seed; the run seed renames them and draws every ABox, the certified
/// positions and the request order.
const POOL_SHAPE_SEED: u64 = 0x0d15_c0de;

/// Appends `n` rewritable hierarchies with run-seeded names.
fn pool(
    rng: &mut Rng,
    oracle: &mut Oracle,
    omqs: &mut Vec<Omq>,
    n: usize,
    prefix: &str,
    concepts: (usize, usize),
) {
    let mut shapes = Rng::new(POOL_SHAPE_SEED);
    let tag = rng.below(1 << 20);
    for k in 0..n {
        let concept = |i: usize| format!("{prefix}{tag}x{k}C{i}");
        let role = |i: usize| format!("{prefix}{tag}x{k}r{i}");
        let names = Names {
            concept: &concept,
            role: &role,
        };
        let (omq, compiled) = rewritable(&mut shapes, &names, concepts, oracle);
        oracle.add(compiled);
        omqs.push(omq);
    }
}
