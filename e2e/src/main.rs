//! `e2e` — the repository's performance ledger: whole-job host
//! throughput on six workloads, attributed per crate from outside.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke]   one run (what the driver calls)
//! e2e --all [--seed N] [--smoke] [--out FILE]                      every workload, one report
//! e2e --compare A.json B.json                                      apply the bounds to two reports
//! ```
//!
//! A run with `--trace 0` measures the end-to-end metrics with every
//! span and decorator off; `--trace 1` is the separate traced run that
//! gives the per-layer numbers. Either prints one JSON result object as
//! the last line of stdout. See README.md beside this package.

mod cluster;
mod compare;
mod decor;
mod functional;
mod hostspeed;
mod json;
mod metrics;
mod probes;
mod report;
mod spans;
mod staged;
mod stats;
mod verify;
mod workloads;

use json::Value;
use metrics::Metrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Mode, Rep, Workload};

/// How long the timed phase of a `--trace 0` run lasts by default; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;
/// A timed phase never has fewer reps than this, however slow the host.
const MIN_REPS: usize = 3;
/// Set-up is repeated this many times at least, and until a twelfth of
/// the run's `--seconds` is spent (capped at [`MAX_SETUPS`]): cheap
/// set-ups get more samples, so their median is as steady as an
/// expensive one's.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_SHARE: f64 = 1.0 / 12.0;
/// Untraced reps a traced run makes first, as the base of its overhead
/// shares. One traced rep against the median of three leaves those
/// shares a noise floor of several percent on a shared host.
const TRACED_RUN_BASE_REPS: usize = 3;
/// `trace.overhead_share` above this means the per-layer numbers are
/// perturbed by their own measurement.
const OVERHEAD_WARN: f64 = 0.10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
    all: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
         e2e --all [--seed N] [--smoke] [--out FILE]\n       \
         e2e --compare A.json B.json\nworkloads: {}",
        workloads::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        mode: Mode::Full,
        all: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it)),
            "--seed" => a.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value(&mut it).parse().unwrap_or_else(|_| usage());
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    usage();
                }
            }
            "--trace" => {
                a.trace = match value(&mut it).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.mode = Mode::Smoke,
            "--all" => a.all = true,
            "--out" => a.out = Some(value(&mut it)),
            "--compare" => a.compare = Some((value(&mut it), value(&mut it))),
            _ => usage(),
        }
    }
    a
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f`, turning an error or a panic into a rep that failed all of
/// the workload's units.
fn guarded(w: &dyn Workload, f: impl FnOnce() -> Result<Rep, String>) -> Rep {
    let t = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(rep)) => return rep,
        Ok(Err(e)) => e,
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string()),
    };
    eprintln!("rep failed: {outcome}");
    let wall_s = t.elapsed().as_secs_f64();
    Rep {
        wall_s,
        ref_s: wall_s,
        units: w.units(),
        failed: w.units(),
        sim_fingerprint: format!("failed: {outcome}"),
    }
}

/// What a run hands to `--all`'s report besides the contract's result
/// line: printed as the second-to-last stdout line, prefixed `detail `.
struct Outcome {
    reps: Vec<Rep>,
    metrics: Metrics,
    detail: Value,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.units).sum()
    }
    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }
    /// 1 if the simulated fingerprint differs between any two reps.
    fn sim_changed(&self) -> bool {
        self.reps
            .windows(2)
            .any(|p| p[0].sim_fingerprint != p[1].sim_fingerprint)
    }
    fn correct(&self) -> bool {
        self.failed() == 0 && !self.sim_changed()
    }
}

/// The `--trace 0` run: set-up (timed, repeated), one warm-up rep, then
/// timed reps for `seconds`. No span, decorator or tracer is active.
fn measure(name: &str, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let mut setups = Vec::new();
    let phase = Instant::now();
    let mut w = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS
            && phase.elapsed().as_secs_f64() < seconds * SETUP_BUDGET_SHARE)
    {
        drop(w.take()); // one copy of the inputs alive at a time
        let t = hostspeed::timed(1, || workloads::build(name, seed, mode));
        w = t.out;
        setups.push(t.ref_s);
    }
    let w = w.unwrap_or_else(|| usage());

    let cold = guarded(w.as_ref(), || w.rep());
    let mut reps = Vec::new();
    let phase = Instant::now();
    while reps.len() < MIN_REPS || phase.elapsed().as_secs_f64() < seconds {
        reps.push(guarded(w.as_ref(), || w.rep()));
    }

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let refs: Vec<f64> = reps.iter().map(|r| r.ref_s).collect();
    // Attempts per rep can differ between the seeds of one faulted rep
    // only if the simulation is not deterministic, which `sim_changed`
    // reports; the median rep's units are every rep's units.
    let units = reps[0].units as f64;
    let mut metrics = Metrics::default();
    metrics.set(metrics::WORK_PER_S, units / stats::median(&refs));
    metrics.set(metrics::SETUP_S, stats::median(&setups));
    metrics.set(metrics::PEAK_RSS_MB, peak_rss_mb());

    let detail = Value::obj()
        .with("sizes", w.sizes())
        .with("units_per_rep", units)
        .with("rep_ref_s", floats(&refs))
        .with("rep_wall_s", floats(&walls))
        .with("cold_rep_s", cold.wall_s)
        .with("setup_ref_s", floats(&setups))
        .with("sim_fingerprint", reps[0].sim_fingerprint.as_str());
    reps.push(cold);
    Outcome {
        reps,
        metrics,
        detail,
    }
}

fn floats(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| x.into()).collect())
}

/// Where span files and the default report go: beside the build, inside
/// the checkout.
fn artifact_path(file: &str) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Path::new(&target).join("e2e").join(file)
}

/// Write `doc` to `path` as one line of JSON, creating the directory.
fn write_json(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render() + "\n")
}

/// The `--trace 1` run: set-up once, a warm-up rep, a few untraced reps
/// as the base, then the traced rep, whose spans are kept in memory and
/// written out afterwards.
fn trace(name: &str, seed: u64, mode: Mode) -> Outcome {
    let w = workloads::build(name, seed, mode).unwrap_or_else(|| usage());
    let mut metrics = Metrics::default();
    w.setup_metrics(&mut metrics);

    let cold = guarded(w.as_ref(), || w.rep());
    let mut reps: Vec<Rep> = (0..TRACED_RUN_BASE_REPS)
        .map(|_| guarded(w.as_ref(), || w.rep()))
        .collect();
    let base_ref_s = stats::median(&reps.iter().map(|r| r.ref_s).collect::<Vec<_>>());

    let mut log = spans::SpanLog::new();
    let (t, probing_s) = (Instant::now(), hostspeed::probing_s());
    let traced = guarded(w.as_ref(), || {
        w.traced_rep(&mut log, &mut metrics, base_ref_s)
    });
    let traced_section_s = t.elapsed().as_secs_f64() - (hostspeed::probing_s() - probing_s);

    metrics.set("core.cold_rep_s", cold.wall_s);
    metrics.set("trace.overhead_share", traced.ref_s / base_ref_s - 1.0);
    metrics.set("trace.span_coverage", log.roots_s() / traced_section_s);

    let path = artifact_path(&format!("{name}.spans.json"));
    if let Err(e) = write_json(&path, &log.to_json()) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let detail = Value::obj()
        .with("sizes", w.sizes())
        .with("base_rep_ref_s", base_ref_s)
        .with("traced_rep_ref_s", traced.ref_s)
        .with("traced_rep_wall_s", traced.wall_s)
        .with("spans", log.spans().len())
        .with("spans_file", path.display().to_string())
        .with("sim_fingerprint", traced.sim_fingerprint.as_str());
    reps.push(traced);
    reps.push(cold);
    Outcome {
        reps,
        metrics,
        detail,
    }
}

/// A value in a fixed-width column: whole numbers (the exact counts) as
/// such, everything else to the microsecond.
fn aligned(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:>18.0}")
    } else {
        format!("{v:>18.6}")
    }
}

/// One driver-style run: human-readable lines, the detail line, and the
/// contract's result object last.
fn run_one(a: &Args, name: &str) -> bool {
    let def = workloads::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage());
    if def.warm_heap {
        hostspeed::keep_heap_warm();
    }
    let out = if a.trace {
        trace(name, a.seed, a.mode)
    } else {
        measure(name, a.seed, a.seconds, a.mode)
    };
    let (sim_changed, correct) = (out.sim_changed(), out.correct());
    println!(
        "{name} seed={} mode={} trace={}: {}",
        a.seed,
        a.mode.as_str(),
        u8::from(a.trace),
        def.why
    );
    if a.trace {
        for m in metrics::PER_LAYER {
            let v = out.metrics.get(m.name);
            if v != 0.0 {
                println!("  {:<36} {} {}", m.name, aligned(v), m.unit);
            }
        }
        if out.metrics.get("trace.overhead_share") > OVERHEAD_WARN {
            println!(
                "  warning: trace.overhead_share above {OVERHEAD_WARN}: the per-layer times \
                 include a visible share of their own measurement"
            );
        }
    } else {
        for m in &metrics::END_TO_END {
            let unit = if m.name == metrics::WORK_PER_S {
                def.work_unit
            } else {
                m.unit
            };
            println!(
                "  {:<36} {} {unit}",
                m.name,
                aligned(out.metrics.get(m.name))
            );
        }
        // The warm-up rep is kept last.
        let walls: Vec<f64> = out.reps.iter().map(|r| r.wall_s).collect();
        let wall = stats::summarize(&walls[..walls.len() - 1]);
        println!(
            "  rep wall (raw s): median {:.3} min {:.3} max {:.3} n={}",
            wall.median, wall.min, wall.max, wall.n
        );
    }
    println!(
        "  fail_share {}/{}  sim_changed {}",
        out.failed(),
        out.attempted(),
        u8::from(sim_changed)
    );
    let result = Value::obj()
        .with("correct", correct)
        .with("attempted", out.attempted())
        .with("failed", out.failed())
        .with(
            "metrics",
            if a.trace {
                out.metrics.per_layer_json()
            } else {
                out.metrics.end_to_end_json()
            },
        );
    println!(
        "detail {}",
        out.detail
            .with("workload", name)
            .with("work_unit", def.work_unit)
            .with("sim_changed", sim_changed)
            .render()
    );
    println!("{}", result.render());
    correct
}

fn main() {
    // What a user gets by default: no engine, elision or pool override
    // leaks in from the caller's environment.
    for var in ["HETERO_THREADS", "HETERO_BACKEND", "HETERO_ELIDE"] {
        std::env::remove_var(var);
    }
    let a = parse_args();
    let ok = if let Some((x, y)) = &a.compare {
        compare::run(x, y)
    } else if a.all {
        report::run_all(a.seed, a.mode, a.out.as_deref())
    } else if let Some(name) = a.workload.clone() {
        run_one(&a, &name)
    } else {
        usage()
    };
    std::process::exit(i32::from(!ok));
}
