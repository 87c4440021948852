//! The report: a human-readable header and metric lines, then one JSON
//! object as the last line of standard output.

use crate::gen::Workload;
use std::fmt::Write as _;

/// The metrics of the JSON line (the lists in `BENCHMARK.json`); a
/// run prints more, for people only.
pub const END_TO_END: [&str; 4] = ["query_p50_ms", "setup_s", "peak_rss_mb", "recovery_s"];

pub const PER_LAYER: [&str; 38] = [
    "hot_small.net.overhead_p50_ms",
    "hot_small.dl.parse_ms",
    "hot_small.cache.lookup_ms",
    "hot_small.cache.hit_ratio",
    "hot_small.eval.ms",
    "hot_small.serve.other_ms",
    "hot_small.serve.response_bytes",
    "hot_small.trace.overhead_ms",
    "bulk_abox.json.parse_ms",
    "bulk_abox.json.request_bytes",
    "bulk_abox.ingest.ms",
    "bulk_abox.ingest.facts",
    "bulk_abox.eval.ms",
    "bulk_abox.eval.rounds",
    "bulk_abox.eval.derived_per_answer",
    "bulk_abox.trace.overhead_ms",
    "cold_compile.cache.lookup_ms",
    "cold_compile.cache.hit_ratio",
    "cold_compile.cache.evictions",
    "cold_compile.plan.compile_ms",
    "cold_compile.plan.compiles",
    "cold_compile.plan.rules",
    "cold_compile.plan.vocab_rels",
    "cold_compile.trace.overhead_ms",
    "session_rw.session.assert_ms",
    "session_rw.session.snapshot_ms",
    "session_rw.wal.snapshots",
    "session_rw.wal.bytes_per_fact",
    "session_rw.ivm.sync_ms",
    "session_rw.ivm.maintained_ratio",
    "session_rw.ivm.rederived",
    "session_rw.certify.ms",
    "session_rw.certify.bytes",
    "session_rw.serve.other_ms",
    "session_rw.trace.overhead_ms",
    "session_rw.write_p50_ms",
    "session_rw.write_p99_ms",
    "session_rw.stored_bytes_per_fact",
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// Whether the metric is in the JSON line.
    pub fn gated(&self) -> bool {
        END_TO_END.contains(&self.name.as_str()) || PER_LAYER.contains(&self.name.as_str())
    }
}

pub struct Report {
    header: Vec<String>,
    pub metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Report {
    pub fn new(attempted: usize, failed: usize, errors: Vec<String>) -> Self {
        Report {
            header: Vec::new(),
            metrics: Vec::new(),
            attempted,
            failed,
            errors,
        }
    }

    pub fn header(&mut self, line: String) {
        self.header.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.gated()).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn print(&self, workload: &Workload, seed: u64) {
        println!(
            "perfbench {}: seed {seed}, commit {}, nproc {}, profile release, date {}",
            workload.name(),
            commit(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            utc_now()
        );
        for h in &self.header {
            println!("  {h}");
        }
        for m in &self.metrics {
            let note = if m.gated() { "" } else { "  (printed only)" };
            println!("  {:<40} {:>16.6} {}{note}", m.name, m.value, m.unit);
        }
        for e in &self.errors {
            println!("  FAILED: {e}");
        }
        println!("{}", self.json());
    }
}

/// The machine's CPU time counters (the `cpu` line of `/proc/stat`).
/// On a virtual machine the eighth counter is time the hypervisor gave
/// to other guests; the report states its share over the run, since it
/// slows every timing.
pub struct CpuCounters(Option<Vec<u64>>);

impl CpuCounters {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        CpuCounters(stat.lines().next().and_then(|l| {
            l.strip_prefix("cpu ").map(|rest| {
                rest.split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
        }))
    }

    /// The share of CPU time stolen since `self`, in percent.
    pub fn steal_since(&self) -> Option<f64> {
        let (Some(a), Some(b)) = (&self.0, &Self::now().0) else {
            return None;
        };
        let d: Vec<u64> = a.iter().zip(b).map(|(x, y)| y.saturating_sub(*x)).collect();
        let total: u64 = d.iter().sum();
        (total > 0 && d.len() > 7).then(|| 100.0 * d[7] as f64 / total as f64)
    }
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
