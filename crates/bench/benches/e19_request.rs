//! E30: the request path of a served ABox, stage by stage, on
//! `bulk_abox`-shaped requests.
//!
//! Workload: the company OMQ of `examples/data` (3 concepts, 2 roles)
//! over random ABoxes of 1k–5k facts, a third of them role facts, over
//! `size / 2` constants: the shape the benchmark's `bulk_abox` workload
//! poses. Each size is one request line `{"ontology", "query", "abox"}`.
//!
//! The bench times one call at a time and prints, per size, the median
//! cost per fact of each served stage:
//!
//! * `json::parse` of the request line;
//! * `parse_request_facts` of the ABox text against the plan's
//!   signature, its constants into a reused request table
//!   ([`RequestConsts`], reset before each call, as the server does);
//! * `ElementTypeSystem::answer`, the type kernel, on the parsed store;
//! * a whole `ServeSession::handle_line` on a warm plan cache.
//!
//! Names and facts come from seed 1, and every call is timed in 31
//! rounds; `E19_TINY` runs 3 rounds over the 1k-fact ABox (the CI
//! smoke).
//!
//! ```text
//! cargo bench -p gomq-bench --bench e19_request
//! ```

use gomq_core::parse::parse_request_facts;
use gomq_core::{RelId, RequestConsts, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{json, OmqPlan, ServeSession};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const ONTOLOGY: &str = "Employee sub ex worksOn.Project\nManager sub Employee\n\
                        Project sub all worksOn-.Employee\nrole manages sub worksOn";
const QUERY: &str = "Employee";
const CONCEPTS: [&str; 3] = ["Manager", "Employee", "Project"];
const ROLES: [&str; 2] = ["worksOn", "manages"];
const SIZES: [usize; 5] = [1000, 2000, 3000, 4000, 5000];
const SEED: u64 = 1;
const ROUNDS: usize = 31;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An ABox of `size` facts: a third role facts, the rest concept
/// facts, over `size / 2` constants.
fn abox(rng: &mut Rng, size: usize) -> String {
    let consts = (size / 2).max(2);
    let mut out = String::new();
    for i in 0..size {
        if i > 0 {
            out.push('\n');
        }
        let a = rng.below(consts);
        if rng.below(3) == 0 {
            let r = ROLES[rng.below(ROLES.len())];
            let b = rng.below(consts);
            let _ = write!(out, "{r}(c{a}, c{b})");
        } else {
            let c = CONCEPTS[rng.below(CONCEPTS.len())];
            let _ = write!(out, "{c}(c{a})");
        }
    }
    out
}

/// The request line posing the company OMQ over `abox`.
fn request(abox: &str) -> String {
    let mut line = String::from("{\"ontology\": ");
    json::write_str(&mut line, ONTOLOGY);
    line.push_str(", \"query\": ");
    json::write_str(&mut line, QUERY);
    line.push_str(", \"abox\": ");
    json::write_str(&mut line, abox);
    line.push('}');
    line
}

/// Median over `rounds` calls of `f`, in ns per fact of a `size`-fact
/// ABox.
fn per_fact<T>(rounds: usize, size: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e9 / size as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn main() {
    let tiny = std::env::var_os("E19_TINY").is_some();
    let (sizes, rounds) = if tiny {
        (&SIZES[..1], 3)
    } else {
        (&SIZES[..], ROUNDS)
    };
    let mut v = Vocab::new();
    let o = to_gf(&parse_ontology(ONTOLOGY, &mut v).expect("the ontology parses"));
    let query = v.find_rel(QUERY).expect("the query is a concept");
    let plan = OmqPlan::compile(&o, query, &mut v).expect("the company OMQ is rewritable");
    let types = &plan.types;
    let in_sig =
        |rel: RelId| types.unary_rels().contains(&rel) || types.binary_rels().contains(&rel);
    let mut consts = RequestConsts::default();
    let mut served = ServeSession::with_threads(1);
    let mut rng = Rng(SEED ^ 0x005e_ed0f_903a_b1c4);
    let warm = served.handle_line(&request(&abox(&mut rng, 4)));
    assert!(warm.contains("\"status\": \"ok\""), "{warm}");

    println!("e19_request: seed {SEED}, {rounds} rounds, median ns per fact");
    println!(
        "  {:>5}  {:>10}  {:>19}  {:>13}  {:>11}  {:>8}",
        "facts", "json_parse", "parse_request_facts", "kernel_answer", "handle_line", "answers"
    );
    for &size in sizes {
        let text = abox(&mut rng, size);
        let line = request(&text);
        let json_ns = per_fact(rounds, size, || json::parse(&line).expect("well-formed"));
        let mut parse = || {
            consts.reset(&v);
            parse_request_facts(&text, &v, in_sig, &mut consts).expect("the ABox parses")
        };
        let parse_ns = per_fact(rounds, size, &mut parse);
        let store = parse();
        let answer = || {
            plan.types
                .answer(&store, plan.query, &Budget::UNLIMITED)
                .expect("unlimited")
        };
        let answers = answer().0.len();
        let kernel_ns = per_fact(rounds, size, answer);
        let serve_ns = per_fact(rounds, size, || served.handle_line(&line));
        println!(
            "  {size:>5}  {json_ns:>10.1}  {parse_ns:>19.1}  {kernel_ns:>13.1}  {serve_ns:>11.1}  {answers:>8}"
        );
    }
}
