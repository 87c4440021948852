//! `perfbench`: the end-to-end and per-layer benchmark of `gomq-serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir PATH
//! ```
//!
//! With `--trace 0` it runs the named workload over TCP against fresh
//! `gomq-serve` processes for `S` seconds and reports the end-to-end
//! metrics; with `--trace 1` it replays every workload's script
//! in-process with spans around each layer call and reports the
//! per-layer metrics. Every reply is checked against the oracle. The
//! last line of standard output is one JSON object; the lines before it
//! are the human-readable report. See `README.md`.

mod check;
mod gen;
mod json;
mod oracle;
mod report;
#[cfg(test)]
mod selftest;
mod stats;
mod tcp;
mod trace;

use gen::Workload;
use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut work_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.serve_bin.is_file() {
        eprintln!(
            "perfbench: no server binary at {}",
            args.serve_bin.display()
        );
        std::process::exit(2);
    }
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let budget = Duration::from_secs(args.seconds);
    let cpu = report::CpuCounters::now();
    let result = if args.trace {
        trace::run(&args.serve_bin, &work, args.seed, budget)
    } else {
        run_tcp(&args.serve_bin, &work, args.workload, args.seed, budget)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(mut report) => {
            if let Some(steal) = cpu.steal_since() {
                report.header(format!("host CPU steal during the run: {steal:.1}%"));
            }
            report.print(&args.workload, args.seed);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The timed TCP run of one workload: rounds of fresh servers until the
/// time budget is spent (at least one), every reply checked.
fn run_tcp(
    bin: &std::path::Path,
    work: &std::path::Path,
    workload: Workload,
    seed: u64,
    budget: Duration,
) -> Result<Report, String> {
    let script = gen::generate(workload, seed);
    let mut checker = check::Checker::new(&script);
    let probes = checker.probes();
    let probe_lines: Vec<&str> = probes.iter().map(|(line, _, _)| line.as_str()).collect();
    let data_dir = (workload == Workload::SessionRw).then(|| work.join("data"));
    let mut acc = stats::TcpAccumulator::new(&script);
    let mut spent = Duration::ZERO;
    while acc.rounds() == 0 || spent < budget {
        let t = Instant::now();
        let round = tcp::round(bin, &script, data_dir.as_deref(), &probe_lines)?;
        spent += t.elapsed();
        let verdict = checker.check_round(&round, &probes);
        acc.add(&script, &round, &verdict);
    }
    Ok(acc.report(&script))
}
