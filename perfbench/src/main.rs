//! The gnn4tdl benchmark: end-to-end runs of three workloads, a traced run
//! that times each layer, and a spread mode.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --seed N --seconds S --spread K
//! ```
//!
//! Every measurement happens in a fresh child process (this executable
//! again, with an internal `child` command), so pools, caches and resident
//! memory start cold. `--trace 0` repeats whole rounds of the workload for
//! `--seconds` and prints each end-to-end metric as the median over its
//! rounds. `--trace 1` runs every workload once untraced and once stage by
//! stage, and prints every per-layer metric. `--spread K` runs the
//! end-to-end measurement K times with seeds N, N+1, .. and prints the
//! median, quartiles and extremes of each metric. The last line of
//! standard output is always the JSON result.

mod fit;
mod gen;
mod outcome;
mod reference;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use outcome::Outcome;

const WORKLOADS: [&str; 3] = ["fit_full", "fit_minibatch", "serve_mixed"];

/// End-to-end metrics, in output order, with their units.
/// `serve_mixed` rounds also report `req_p99_ms`; it is printed per round
/// and by the traced run, not bounded here (see the README).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("rows_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("batch_p50_ms", "ms"),
];

/// `tensor::parallel` threads in every workload, so that with the
/// minibatch prefetch sampler or the serving client beside it no workload
/// keeps more than `nproc` threads busy on the 2-vCPU reference box. A
/// second compute thread bought `fit_full` nothing there (ten-seed median
/// `fit_s` 5.57 s at two threads, 5.48 s and 5.19 s in two sets at one).
/// The other threads, idle or blocked most of the time, are the sampler,
/// the server worker, its acceptor and the client.
pub const COMPUTE_THREADS: usize = 1;

/// Neighbors per row in every kNN graph, and the k of every recall check.
pub const K: usize = 10;

/// Program settings that change what runs; a measured run refuses them.
const REFUSED_ENV: [&str; 2] = ["GNN4TDL_TRACE", "GNN4TDL_FAULT"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S (--trace 0|1 | --spread K)",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, spread: None };
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_value(&flag, &value),
            "--seconds" => args.seconds = parse_value(&flag, &value),
            "--trace" => args.trace = parse_value::<u8>(&flag, &value) == 1,
            "--spread" => args.spread = Some(parse_value(&flag, &value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.spread.is_some_and(|k| k < 2) {
        usage("--spread needs at least 2 runs");
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("child") {
        argv.next();
        return child(argv.collect());
    }
    let args = parse_args(argv);
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: {var} is set; it changes what the program runs, so the benchmark refuses to start"
        );
        return ExitCode::from(2);
    }
    print_stamp(&args);
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create a work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.spread {
        Some(k) => spread(&args, k),
        None if args.trace => traced(&args, &work.0),
        None => end_to_end(&args, &work.0),
    };
    drop(work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch space under the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The environment stamp: what the figures of this run depend on.
fn print_stamp(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    let revision = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} revision={revision}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# threads: {COMPUTE_THREADS} compute in every workload; fit_minibatch adds 1 prefetch sampler; \
         serve_mixed runs {} server worker and 1 client connection",
        serve::WORKERS,
    );
    println!(
        "# kernel={:?} GNN4TDL_THREADS={} GNN4TDL_KERNEL={} GNN4TDL_POOL={} pool_enabled={}",
        gnn4tdl_tensor::kernel::select(),
        env("GNN4TDL_THREADS"),
        env("GNN4TDL_KERNEL"),
        env("GNN4TDL_POOL"),
        gnn4tdl_tensor::pool::enabled(),
    );
}

/// Writes the workload's inputs into `work` (off the clock). Returns
/// figures measured while preparing.
fn prepare(workload: &str, seed: u64, work: &Path) -> Result<Outcome, String> {
    match workload {
        "fit_full" => {
            fit::prepare(&fit::full_spec(), seed, &work.join("table.csv")).map_err(|e| e.to_string())?
        }
        "fit_minibatch" => {
            fit::prepare(&fit::minibatch_spec(), seed, &work.join("table.csv")).map_err(|e| e.to_string())?
        }
        _ => return serve::prepare(seed, work),
    }
    Ok(Outcome::default())
}

/// Runs `perfbench child KIND WORKLOAD SEED WORK [ARG]` and parses its
/// report.
fn run_child(kind: &str, workload: &str, seed: u64, work: &Path, arg: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args([kind, workload, &seed.to_string()])
        .arg(work)
        .arg(format!("{arg:?}"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{kind} child for {workload} exited with {}", output.status));
    }
    Outcome::from_lines(&text)
}

/// The child side of [`run_child`].
fn child(argv: Vec<String>) -> ExitCode {
    let [kind, workload, seed, work, arg] = argv.as_slice() else {
        eprintln!("perfbench child: expected KIND WORKLOAD SEED WORK ARG");
        return ExitCode::from(2);
    };
    let (Ok(seed), Ok(arg)) = (seed.parse::<u64>(), arg.parse::<f64>()) else {
        eprintln!("perfbench child: bad seed or argument");
        return ExitCode::from(2);
    };
    let work = Path::new(work);
    let csv = work.join("table.csv");
    let out = match (kind.as_str(), workload.as_str()) {
        ("round", "fit_full") => fit::round(&fit::full_spec(), seed, &csv),
        ("round", "fit_minibatch") => fit::round(&fit::minibatch_spec(), seed, &csv),
        ("round", "serve_mixed") => serve::round(seed, work),
        ("trace", "fit_full") => fit::trace(&fit::full_spec(), seed, &csv, arg),
        ("trace", "fit_minibatch") => fit::trace(&fit::minibatch_spec(), seed, &csv, arg),
        ("trace", "serve_mixed") => serve::trace(seed, work, arg),
        _ => {
            eprintln!("perfbench child: unknown {kind} {workload}");
            return ExitCode::from(2);
        }
    };
    print!("{}", out.to_lines());
    ExitCode::SUCCESS
}

/// Rounds of the workload for `--seconds` (at least one); each metric is
/// the median over the rounds. The run stops at the round boundary nearest
/// the deadline, so a workload whose rounds are long measures about
/// `--seconds`, not up to a whole round more.
fn end_to_end(args: &Args, work: &Path) -> Result<bool, String> {
    let prep = prepare(&args.workload, args.seed, work)?;
    let started = Instant::now();
    let mut rounds: Vec<Outcome> = Vec::new();
    loop {
        let round = run_child("round", &args.workload, args.seed, work, 0.0)?;
        let figures: Vec<String> =
            round.metrics.iter().map(|m| format!("{}={:.6}", m.name, m.value)).collect();
        println!("# round {}: {}", rounds.len(), figures.join(" "));
        rounds.push(round);
        let elapsed = started.elapsed().as_secs_f64();
        let mean_round = elapsed / rounds.len() as f64;
        if elapsed + mean_round / 2.0 >= args.seconds {
            break;
        }
    }
    let mut total = Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        failures: rounds.iter().flat_map(|r| r.failures.clone()).collect(),
        ..Default::default()
    };
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name)).chain(prep.get(name)).collect();
        if values.is_empty() {
            total.check(false, || format!("no round measured {name}"));
            continue;
        }
        total.put(name, stats::median(&values), unit);
    }
    println!("# rounds={}", rounds.len());
    Ok(emit(&total))
}

/// Every workload once untraced (the reference wall time) and once stage
/// by stage; metric names carry the workload as a prefix.
fn traced(args: &Args, work: &Path) -> Result<bool, String> {
    let mut total = Outcome::default();
    let seed = args.seed;
    for workload in WORKLOADS {
        let dir = work.join(workload);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let prep = prepare(workload, seed, &dir)?;
        let plain = run_child("round", workload, seed, &dir, 0.0)?;
        let reference_ms = match workload {
            "serve_mixed" => plain.get("req_p50_ms"),
            _ => plain.get("fit_s").map(|s| s * 1e3),
        }
        .ok_or("the untraced round reported no reference time")?;
        let traced = run_child("trace", workload, seed, &dir, reference_ms)?;
        for out in [&prep, &plain, &traced] {
            total.attempted += out.attempted;
            total.failed += out.failed;
            total.failures.extend(out.failures.iter().map(|f| format!("{workload}: {f}")));
        }
        for m in traced.metrics {
            total.put(format!("{workload}.{}", m.name), m.value, &m.unit);
        }
        if let Some(p99) = plain.get("req_p99_ms") {
            total.put(format!("{workload}.req_p99_ms"), p99, "ms");
        }
    }
    Ok(emit(&total))
}

/// `K` end-to-end runs in fresh processes with consecutive seeds; prints
/// the distribution of each metric, then the JSON of the median run.
fn spread(args: &Args, k: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: Vec<Outcome> = Vec::new();
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start run {i}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let last = text.lines().last().unwrap_or_default();
        let run = parse_result(last).ok_or_else(|| format!("run with seed {seed} printed no result"))?;
        println!("# seed={seed} {last}");
        runs.push(run);
    }
    println!(
        "# {:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "min", "q1", "median", "q3", "max", "iqr/med"
    );
    let mut total = Outcome {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        failures: runs.iter().flat_map(|r| r.failures.clone()).collect(),
        ..Default::default()
    };
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name)).collect();
        let [q1, q2, q3] = stats::quartiles(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "# {name:<14} {min:>12.5} {q1:>12.5} {q2:>12.5} {q3:>12.5} {max:>12.5} {:>8.4}",
            (q3 - q1) / q2.abs()
        );
        total.put(name, q2, unit);
    }
    Ok(emit(&total))
}

/// Parses one result line printed by [`emit`] (program-independent: only
/// this benchmark's own output goes through it).
fn parse_result(line: &str) -> Option<Outcome> {
    let doc = gnn4tdl_serve::json::parse(line).ok()?;
    let mut out = Outcome {
        attempted: doc.get("attempted")?.as_f64()? as u64,
        failed: doc.get("failed")?.as_f64()? as u64,
        ..Default::default()
    };
    if doc.get("correct") != Some(&gnn4tdl_serve::Json::Bool(true)) {
        out.failures.push("run reported correct=false".into());
    }
    let gnn4tdl_serve::Json::Obj(metrics) = doc.get("metrics")? else { return None };
    for (name, m) in metrics {
        out.put(name.clone(), m.get("value")?.as_f64()?, m.get("unit")?.as_str()?);
    }
    Some(out)
}

/// Prints the failures and the final JSON line; true when every check
/// held.
fn emit(out: &Outcome) -> bool {
    for f in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty() && out.metrics.iter().all(|m| m.value.is_finite());
    let number = |v: f64| if v.is_finite() { format!("{v:?}") } else { "null".into() };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    correct
}
