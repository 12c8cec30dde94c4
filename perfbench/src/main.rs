//! `perfbench` — the end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload <grid_nested|cluster_chaos|fleet_day|serve_single>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`), the named workload is set up several times
//! (the median set-up is `setup_s`), then whole rounds of it run for
//! `--seconds` (at least [`MIN_ROUNDS`]). Every round checks the program's
//! outputs. The last line of standard output is one JSON object with the
//! end-to-end metrics: the medians over rounds of wall-clock and process
//! CPU, operations per second, and the process's peak resident set.
//!
//! Traced (`--trace 1`), the named workload runs one untraced round,
//! then every workload runs its traced pass serially, timing the calls
//! into each layer from this crate's code (the library is not
//! instrumented). The JSON then carries the per-layer metrics, plus
//! `trace.overhead_s`: the named workload's traced pass minus its
//! untraced round.
//!
//! See `perfbench/README.md` for the workloads and what each layer metric
//! should move.

mod cluster;
mod fleet;
mod grid;
mod layers;
mod serve;

use layers::Layers;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds a run makes even when `--seconds` ends sooner, so the reported
/// medians always discard at least one outlier.
const MIN_ROUNDS: usize = 3;
/// Set-up samples a run takes before the timed phase: at least
/// [`MIN_SETUPS`], more while they total under [`SETUP_TARGET_S`]. A
/// set-up shorter than [`SETUP_BATCH_S`] is timed in batches that long,
/// and one sample is the batch's mean, so timer overhead and one-off
/// stalls do not dominate a sub-microsecond set-up.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_TARGET_S: f64 = 0.5;
const SETUP_BATCH_S: f64 = 1e-3;

/// The four workloads, in the order the traced mode profiles them.
const WORKLOADS: [&str; 4] = ["grid_nested", "cluster_chaos", "fleet_day", "serve_single"];

/// What one round of a workload did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Operations attempted: grid cells or served requests.
    pub ops: usize,
    /// Operations that failed: failed cells, or failed and shed requests.
    pub failed: usize,
}

/// A set-up workload. Every method checks the program's outputs and
/// returns `Err` with the failed check.
pub trait Workload {
    /// One untraced round at the workload's full parallelism.
    fn round(&self) -> Result<Round, String>;
    /// The serial traced pass: time each layer's public calls into
    /// `layers` and check the outputs.
    fn profile(&self, layers: &mut Layers) -> Result<Round, String>;
}

/// Set up workload `name` with inputs derived from `seed`; `scratch` is a
/// fresh directory the workload may write into.
fn setup(name: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match name {
        "grid_nested" => Box::new(grid::GridNested::setup()),
        "cluster_chaos" => Box::new(cluster::ClusterChaos::setup(seed, scratch)),
        "fleet_day" => Box::new(fleet::FleetDay::setup(seed)),
        "serve_single" => Box::new(serve::ServeSingle::setup(seed)),
        other => unreachable!("parse_args admits only known workloads, got {other:?}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("--seconds must be finite and >= 0, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// User + system CPU seconds of this process, all threads (exited ones
/// included), from `/proc/self/stat` (clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields after it are numeric.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields 14 and 15 of the full line; index 11 and 12 after the name.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The benchmark's scratch directory for this process, under the working
/// directory (the checkout root).
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(std::process::id().to_string())
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run_untraced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut workload = Some(setup(&args.workload, args.seed, scratch));
    // Seconds per set-up over a batch of `batch` consecutive set-ups. The
    // previous set-up is dropped first, so each starts from the same
    // memory state.
    let mut time_batch = |batch: usize| {
        let t0 = Instant::now();
        for _ in 0..batch {
            drop(workload.take());
            workload = Some(setup(&args.workload, args.seed, scratch));
        }
        t0.elapsed().as_secs_f64() / batch as f64
    };
    let mut batch = 1;
    while time_batch(batch) * (batch as f64) < SETUP_BATCH_S {
        batch *= 2;
    }
    let mut setup_times = Vec::new();
    let setup_start = Instant::now();
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_start.elapsed().as_secs_f64() < SETUP_TARGET_S)
    {
        setup_times.push(time_batch(batch));
    }
    let workload = workload.expect("set up above");

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut ops = 0;
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while walls.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let round = workload.round()?;
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - c0);
        ops = round.ops;
        attempted += round.ops;
        failed += round.failed;
    }
    let wall = median(&walls);
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("wall_s".into(), wall, "s"),
            ("ops_per_s".into(), ops as f64 / wall, "1/s"),
            ("cpu_s".into(), median(&cpus), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            ("setup_s".into(), median(&setup_times), "s"),
        ],
    })
}

fn run_traced(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut layers = Layers::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        let workload = setup(name, args.seed, scratch);
        let named = name == args.workload;
        let untraced_s = if named {
            let t0 = Instant::now();
            let round = workload.round()?;
            attempted += round.ops;
            failed += round.failed;
            Some(t0.elapsed().as_secs_f64())
        } else {
            None
        };
        let t0 = Instant::now();
        let round = workload.profile(&mut layers)?;
        let traced_s = t0.elapsed().as_secs_f64();
        if let Some(untraced_s) = untraced_s {
            layers.set("trace.overhead_s", traced_s - untraced_s, "s");
            attempted += round.ops;
            failed += round.failed;
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.into_metrics(),
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
    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        run_traced(&args, &scratch)
    } else {
        run_untraced(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Remove the shared parent too once no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            // A failed check: report it as an incorrect run, no metrics
            // worth comparing.
            eprintln!("perfbench: check failed: {e}");
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            return;
        }
    };
    let bad: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.as_str())
        .collect();
    if !bad.is_empty() {
        eprintln!("perfbench: non-finite metrics {bad:?}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        bad.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
