//! Aggregation of the timed TCP rounds into the end-to-end metrics.

use crate::check::Verdict;
use crate::gen::{Op, Script, Workload};
use crate::report::Report;
use crate::tcp::Round;

/// The median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The interquartile mean of `v`: the mean of its middle half (all of
/// it below four values); 0 when empty.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Nearest-rank percentile `q` of `v`; 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-round values and pooled latencies of one TCP run.
pub struct TcpAccumulator {
    rounds: usize,
    samples: (usize, usize),
    /// Per-round p50 and p99 of query and write latencies.
    query_p50: Vec<f64>,
    query_p99: Vec<f64>,
    write_p50: Vec<f64>,
    write_p99: Vec<f64>,
    throughput: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    cpu_ms_per_op: Vec<f64>,
    steal_pct: Vec<f64>,
    bytes_per_fact: Vec<f64>,
    recovery_s: Vec<f64>,
    verdict: Verdict,
    facts_asserted: usize,
}

impl TcpAccumulator {
    pub fn new(script: &Script) -> Self {
        let facts_asserted = script
            .setup
            .iter()
            .chain(script.conns.iter().flatten())
            .map(|r| match &r.op {
                Op::Assert { abox } => abox.lines().count(),
                _ => 0,
            })
            .sum();
        TcpAccumulator {
            rounds: 0,
            samples: (0, 0),
            query_p50: Vec::new(),
            query_p99: Vec::new(),
            write_p50: Vec::new(),
            write_p99: Vec::new(),
            throughput: Vec::new(),
            setup_s: Vec::new(),
            rss_mb: Vec::new(),
            cpu_ms_per_op: Vec::new(),
            steal_pct: Vec::new(),
            bytes_per_fact: Vec::new(),
            recovery_s: Vec::new(),
            verdict: Verdict::default(),
            facts_asserted,
        }
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn add(&mut self, script: &Script, round: &Round, v: &Verdict) {
        self.rounds += 1;
        let (mut queries, mut writes) = (Vec::new(), Vec::new());
        for (reqs, samples) in script.conns.iter().zip(&round.conns) {
            for (r, s) in reqs.iter().zip(samples) {
                let lat = if r.op.is_write() {
                    &mut writes
                } else {
                    &mut queries
                };
                lat.push(ms(s.latency()));
            }
        }
        self.samples.0 += queries.len();
        self.samples.1 += writes.len();
        self.query_p50.push(percentile(&queries, 0.5));
        self.query_p99.push(percentile(&queries, 0.99));
        if !writes.is_empty() {
            self.write_p50.push(percentile(&writes, 0.5));
            self.write_p99.push(percentile(&writes, 0.99));
        }
        let ok = script.ops().saturating_sub(v.script_failed);
        self.throughput
            .push(ok as f64 / round.wall.as_secs_f64().max(1e-9));
        self.setup_s.push(round.setup_s);
        self.rss_mb.push(round.peak_rss_mb);
        self.cpu_ms_per_op
            .push(round.cpu_s * 1e3 / script.ops().max(1) as f64);
        self.steal_pct.push(round.steal_pct);
        if self.facts_asserted > 0 {
            self.bytes_per_fact
                .push(round.stored_bytes as f64 / self.facts_asserted as f64);
        }
        self.recovery_s.extend(v.recovery_s);
        let t = &mut self.verdict;
        t.attempted += v.attempted;
        t.failed += v.failed;
        for e in &v.errors {
            if t.errors.len() < 5 {
                t.errors.push(e.clone());
            }
        }
        t.cached += v.cached;
        t.queries += v.queries;
        t.maintained += v.maintained;
        t.session_queries += v.session_queries;
        t.snapshots += v.snapshots;
    }

    pub fn report(&self, script: &Script) -> Report {
        let v = &self.verdict;
        let mut r = Report::new(v.attempted, v.failed, v.errors.clone());
        let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.header(format!(
            "rounds {} x {} ops ({} query and {} write latency samples; latency percentiles \
             are per round, then the median over rounds), {} set-up requests per round",
            self.rounds,
            script.ops(),
            self.samples.0,
            self.samples.1,
            script.setup.len()
        ));
        r.header(format!(
            "shares: plan-cache hit ratio {:.4} ({} of {} queries), request bytes {} per round, \
             maintained-view ratio {:.4} ({} of {} session queries), snapshots {:.2} per round",
            ratio(v.cached, v.queries),
            v.cached,
            v.queries,
            script.request_bytes(),
            ratio(v.maintained, v.session_queries),
            v.maintained,
            v.session_queries,
            v.snapshots as f64 / self.rounds.max(1) as f64
        ));
        for (what, v) in [
            ("host steal %", &self.steal_pct),
            ("throughput ops/s", &self.throughput),
            ("query p50 ms", &self.query_p50),
            ("query p99 ms", &self.query_p99),
            ("cpu ms/op", &self.cpu_ms_per_op),
        ] {
            r.header(format!(
                "per-round {what}: {}",
                v.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        r.metric("throughput_rps", median(&self.throughput), "ops/s");
        r.metric("query_p50_ms", median(&self.query_p50), "ms");
        r.metric("query_p99_ms", median(&self.query_p99), "ms");
        r.metric("setup_s", median(&self.setup_s), "s");
        r.metric("peak_rss_mb", median(&self.rss_mb), "MiB");
        r.metric("recovery_s", median(&self.recovery_s), "s");
        // `/proc` counts CPU time in 10 ms ticks, coarse for one short
        // round: average the middle half of the rounds rather than pick
        // their median.
        r.metric(
            "cpu_ms_per_op",
            interquartile_mean(&self.cpu_ms_per_op),
            "ms",
        );
        if script.workload == Workload::SessionRw {
            r.metric("write_p50_ms", median(&self.write_p50), "ms");
            r.metric("write_p99_ms", median(&self.write_p99), "ms");
            r.metric(
                "stored_bytes_per_fact",
                median(&self.bytes_per_fact),
                "B/fact",
            );
        }
        r.metric("failed_frac", ratio(v.failed, v.attempted), "ratio");
        r
    }
}
