//! Checks every reply of a round against the oracle, outside the timed
//! region, and tallies the shares later claims depend on.

use crate::gen::{render, Op, Request, Script, Workload};
use crate::json;
use crate::oracle::{check_query, ok_obj, store_sizes, Answers, Timeline};
use crate::tcp::{Round, Sample};
use gomq_cert::json::Value;
use std::collections::HashMap;

/// What the checks of one round found.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Failed script operations (set-up and restart probes excluded).
    pub script_failed: usize,
    pub errors: Vec<String>,
    /// Queries answered from a cached plan, of `queries`.
    pub cached: usize,
    pub queries: usize,
    /// Session queries answered from a maintained view, of
    /// `session_queries`.
    pub maintained: usize,
    pub session_queries: usize,
    /// Mutations that cut a snapshot.
    pub snapshots: usize,
    /// Restart after SIGKILL → first correct reply to a recovery probe,
    /// in seconds; `None` when no probe was answered correctly.
    pub recovery_s: Option<f64>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The expected outcome of every request of one script, computed once
/// per run and reused by every round.
pub struct Checker<'s> {
    script: &'s Script,
    /// Expected answers of the set-up and script queries over request
    /// ABoxes (empty for other operations).
    setup_expected: Vec<Vec<Answers>>,
    script_expected: Vec<Vec<Answers>>,
    /// The session answers of every OMQ at every writer step, and those
    /// already materialized by `(omq, step)`.
    timelines: Vec<Timeline>,
    at_step: HashMap<(usize, usize), Answers>,
    /// Distinct facts in the session store after each writer step.
    facts_at: Vec<u64>,
}

impl<'s> Checker<'s> {
    pub fn new(script: &'s Script) -> Self {
        let (timelines, facts_at) = if script.workload == Workload::SessionRw {
            let (setup, writes) = (&script.setup, &script.conns[0]);
            let timelines = (0..script.omqs.len())
                .map(|omq| script.oracle.session_timeline(omq, setup, writes))
                .collect();
            (timelines, store_sizes(setup, writes))
        } else {
            (Vec::new(), Vec::new())
        };
        let expect = |reqs: &[Request]| -> Vec<Vec<Answers>> {
            reqs.iter()
                .map(|r| match &r.op {
                    Op::Query { omq, aboxes, .. } => aboxes
                        .iter()
                        .map(|a| script.oracle.answers(*omq, a))
                        .collect(),
                    _ => Vec::new(),
                })
                .collect()
        };
        Checker {
            script,
            setup_expected: expect(&script.setup),
            script_expected: expect(&script.conns[0]),
            timelines,
            at_step: HashMap::new(),
            facts_at,
        }
    }

    /// The certain answers of session OMQ `omq` after writer step `step`.
    fn at(&mut self, omq: usize, step: usize) -> &Answers {
        let timeline = &self.timelines[omq];
        self.at_step
            .entry((omq, step))
            .or_insert_with(|| timeline.at(step))
    }

    /// Requests sent after the restart, with the answers they must get:
    /// on `session_rw` every session OMQ over the store every
    /// acknowledged write left behind; elsewhere the first warm-up
    /// query.
    pub fn probes(&mut self) -> Vec<(String, Op, Answers)> {
        if self.script.workload == Workload::SessionRw {
            let last = self.facts_at.len() - 1;
            (0..self.script.omqs.len())
                .map(|omq| {
                    let op = Op::SessionQuery {
                        omq,
                        certificate: false,
                    };
                    let line = render(&format!("rec{omq}"), &self.script.omqs, &op);
                    (line, op, self.at(omq, last).clone())
                })
                .collect()
        } else {
            let (r, expected) = match self.script.setup.first() {
                Some(r) => (r, &self.setup_expected[0]),
                None => (&self.script.conns[0][0], &self.script_expected[0]),
            };
            vec![(r.line.clone(), r.op.clone(), expected[0].clone())]
        }
    }

    pub fn check_round(&mut self, round: &Round, probes: &[(String, Op, Answers)]) -> Verdict {
        let script = self.script;
        let mut v = Verdict::default();
        // Set-up requests: warm-up queries and the session preload, all
        // at writer step 0.
        for (k, (r, s)) in script.setup.iter().zip(&round.setup).enumerate() {
            v.attempted += 1;
            let res = match &r.op {
                Op::SessionQuery { omq, .. } => {
                    let e = self.at(*omq, 0);
                    with_resp(s, |resp| check_query(&r.op, resp, &[e]))
                }
                Op::Query { .. } => {
                    let e: Vec<&Answers> = self.setup_expected[k].iter().collect();
                    with_resp(s, |resp| check_query(&r.op, resp, &e))
                }
                _ => with_resp(s, |resp| ok_obj(resp).map(|_| ())),
            };
            if let Err(e) = res {
                v.fail(format!("set-up {}: {e}", id_of(r)));
            }
        }
        if script.workload == Workload::SessionRw {
            self.check_session(round, &mut v);
        } else {
            for (k, (r, s)) in script.conns[0].iter().zip(&round.conns[0]).enumerate() {
                v.attempted += 1;
                let e: Vec<&Answers> = self.script_expected[k].iter().collect();
                let e = &e;
                let res = with_resp(s, |resp| {
                    check_query(&r.op, resp, e).map(|_| tally(resp, &mut v, false))
                });
                if let Err(e) = res {
                    v.fail(format!("{}: {e}", id_of(r)));
                }
            }
        }
        v.script_failed = v.failed;
        for ((_, op, expected), s) in probes.iter().zip(&round.recovery) {
            v.attempted += 1;
            match with_resp(s, |resp| check_query(op, resp, &[expected])) {
                Ok(()) if v.recovery_s.is_none() => {
                    v.recovery_s = Some((s.recv - round.restart).as_secs_f64())
                }
                Ok(()) => {}
                Err(e) => v.fail(format!("after restart: {e}")),
            }
        }
        v
    }

    fn check_session(&mut self, round: &Round, v: &mut Verdict) {
        let script = self.script;
        let (writes, reads) = (&round.conns[0], &round.conns[1]);
        for (k, (r, s)) in script.conns[0].iter().zip(writes).enumerate() {
            v.attempted += 1;
            let facts = self.facts_at[k + 1];
            let res = with_resp(s, |resp| {
                let obj = ok_obj(resp)?;
                if obj.get("snapshotted") == Some(&Value::Bool(true)) {
                    v.snapshots += 1;
                }
                match obj.get("facts").and_then(Value::as_u64) {
                    Some(n) if n == facts => Ok(()),
                    n => Err(format!(
                        "store holds {n:?} facts, the oracle expects {facts}"
                    )),
                }
            });
            if let Err(e) = res {
                v.fail(format!("{}: {e}", id_of(r)));
            }
        }
        // A read may take effect at any writer step between the last
        // write acknowledged before it was sent and the last write sent
        // before its reply arrived.
        for (r, s) in script.conns[1].iter().zip(reads) {
            v.attempted += 1;
            let Op::SessionQuery { omq, .. } = r.op else {
                unreachable!("the reader only sends session queries")
            };
            let lo = writes.partition_point(|w| w.recv < s.send);
            let hi = writes.partition_point(|w| w.send < s.recv);
            for step in lo..=hi {
                self.at(omq, step);
            }
            let expected: Vec<&Answers> =
                (lo..=hi).map(|step| &self.at_step[&(omq, step)]).collect();
            let res = with_resp(s, |resp| {
                check_query(&r.op, resp, &expected).map(|_| tally(resp, v, true))
            });
            if let Err(e) = res {
                v.fail(format!("{}: {e}", id_of(r)));
            }
        }
    }
}

/// Counts the cache-hit and maintained-view shares of a correct query
/// reply (request-scoped fields only).
fn tally(resp: &Value, v: &mut Verdict, session: bool) {
    let Some(obj) = resp.as_obj() else { return };
    let yes = |v: Option<&Value>| usize::from(v == Some(&Value::Bool(true)));
    v.queries += 1;
    v.cached += yes(obj.get("cached"));
    if session {
        v.session_queries += 1;
        let stats = obj.get("stats").and_then(Value::as_obj);
        v.maintained += yes(stats.and_then(|s| s.get("maintained")));
    }
}

fn with_resp<T>(s: &Sample, f: impl FnOnce(&Value) -> Result<T, String>) -> Result<T, String> {
    let text = s.resp.as_deref().ok_or("reply lost")?;
    f(&json::parse(text)?)
}

fn id_of(r: &Request) -> &str {
    r.line
        .strip_prefix("{\"id\": \"")
        .and_then(|s| s.split('"').next())
        .unwrap_or("?")
}
