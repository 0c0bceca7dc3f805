//! Chaos sweep: hundreds of seeded (fault-plan × config) combos driven
//! through the DES under a per-run watchdog, asserting the four
//! robustness invariants of ISSUE 7 on every single run:
//!
//! 1. **no hang** — each run completes inside its watchdog budget;
//! 2. **no lost task** — every map of a non-aborted job completes;
//! 3. **zero audit violations** — with the `audit` feature (CI) the
//!    per-event invariant auditor cross-checks the scheduler state after
//!    every DES event and must end the sweep at zero;
//! 4. **byte equality** — the indexed scheduler and the scan-based
//!    reference agree bitwise on every faulted schedule, and a sampled
//!    set of JobTracker-crash runs is pushed through the functional
//!    executor to prove the final job *output bytes* match an
//!    uninterrupted run.
//!
//! Writes `chaos.json`: per-run records plus the recovery-overhead
//! distribution of a single master crash. The full sweep (from
//! `scripts/bench.sh`) writes the tracked `results/chaos.json`; `--smoke`
//! writes `target/results/chaos.json`, so a two-seed sample never
//! replaces the committed 435-run record.
//!
//! Usage: `chaos [--smoke] [--threads N]` — `--smoke` is the bounded CI
//! mode (seconds, not minutes).
use hetero_bench::{write_artifact, Args};
use hetero_cluster::{
    audit, simulate, simulate_reference, ClusterConfig, FaultPlan, JobSpec, JobStats,
    ReduceTaskSpec, Scheduler,
};
use hetero_gpusim::Device;
use hetero_runtime::OptFlags;
use hetero_trace::json::Json;
use hetero_trace::Tracer;
use heterodoop::{run_cluster_functional_job, Preset};
use std::sync::mpsc;
use std::time::Duration;

/// splitmix64 — the sweep's deterministic combo generator.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One cluster shape of the sweep (Fig. 3 / Fig. 4 scale plus a mid
/// shape), with the fault archetypes that make sense on it.
struct Shape {
    name: &'static str,
    cfg: fn(Scheduler) -> ClusterConfig,
    job: fn() -> JobSpec,
    archetypes: &'static [&'static str],
}

fn fig3_job() -> JobSpec {
    JobSpec::uniform("chaos-fig3", 19, 1, 1, 6.0, 1.0)
}

fn mid_cfg(s: Scheduler) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(8, s);
    cfg.map_slots_per_node = 4;
    cfg.speculative = true;
    cfg
}

fn mid_job() -> JobSpec {
    let mut j = JobSpec::uniform("chaos-mid", 200, 8, 3, 8.0, 1.5);
    j.reduces = (0..6)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    j
}

fn fig4_cfg(s: Scheduler) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(12, s);
    cfg.map_slots_per_node = 4;
    cfg.gpus_per_node = 2;
    cfg
}

fn fig4_job() -> JobSpec {
    let mut j = JobSpec::uniform("chaos-fig4", 480, 12, 3, 4.0, 0.8);
    j.reduces = (0..8)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    j
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "fig3",
        cfg: ClusterConfig::fig3,
        job: fig3_job,
        // One node: correlated rack/partition faults would kill the
        // whole cluster, so fig3 exercises the master-outage archetypes.
        archetypes: &["jt", "jt2"],
    },
    Shape {
        name: "mid8",
        cfg: mid_cfg,
        job: mid_job,
        archetypes: &["jt", "jt2", "rack", "part", "storm"],
    },
    Shape {
        name: "fig4",
        cfg: fig4_cfg,
        job: fig4_job,
        archetypes: &["jt", "jt2", "rack", "part", "storm"],
    },
];

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::CpuOnly,
    Scheduler::GpuFirst,
    Scheduler::TailScheduling,
];

/// Build the seeded fault plan for one (shape, archetype, seed) combo.
/// `span` is the clean-run makespan, so injected times land inside the
/// job no matter the shape or scheduler.
fn plan(archetype: &str, seed: u64, cfg: &ClusterConfig, span: f64) -> FaultPlan {
    let mut rng = Rng(mix64(seed) ^ mix64(archetype.len() as u64));
    let t = |rng: &mut Rng, lo: f64, hi: f64| (lo + (hi - lo) * rng.unit()) * span;
    let num_racks = cfg.num_slaves.div_ceil(cfg.nodes_per_rack);
    match archetype {
        "jt" => {
            let at = t(&mut rng, 0.05, 0.95);
            FaultPlan::seeded(seed).with_jobtracker_crash(at)
        }
        "jt2" => {
            let a = t(&mut rng, 0.05, 0.4);
            let b = t(&mut rng, 0.5, 0.9);
            FaultPlan::seeded(seed)
                .with_jobtracker_crash(a)
                .with_jobtracker_crash(b)
                .with_heartbeat_jitter_s(0.05 * cfg.heartbeat_s)
        }
        "rack" => {
            // Fail one rack, then crash the master while re-execution of
            // the rack's finished maps is in flight.
            let rack = (rng.next() % num_racks as u64) as u32;
            let fail_at = t(&mut rng, 0.2, 0.5);
            FaultPlan::seeded(seed)
                .with_rack_failure(rack, fail_at)
                .with_jobtracker_crash(fail_at + 0.1 * span)
        }
        "part" => {
            // Partition roughly a third of the cluster, with lossy and
            // jittered heartbeats throughout.
            let members: Vec<u32> = (0..cfg.num_slaves).filter(|n| n % 3 == 0).collect();
            let start = t(&mut rng, 0.1, 0.4);
            let end = start + t(&mut rng, 0.15, 0.4);
            FaultPlan::seeded(seed)
                .with_partition(members, start, end)
                .with_heartbeat_loss_p(0.15 * rng.unit())
                .with_heartbeat_jitter_s(0.1 * cfg.heartbeat_s * rng.unit())
        }
        "storm" => {
            // Everything at once: a node crash, transient failures,
            // corrupt inputs, a partition, and a master outage.
            let victim = (rng.next() % cfg.num_slaves as u64) as u32;
            let members: Vec<u32> = (0..cfg.num_slaves)
                .filter(|n| *n != victim && n % 4 == 1)
                .collect();
            let start = t(&mut rng, 0.1, 0.3);
            let mut p = FaultPlan::seeded(seed)
                .with_node_crash(victim, t(&mut rng, 0.2, 0.6))
                .with_transient_p(0.03)
                .with_corrupt_input(1)
                .with_corrupt_input(7)
                .with_jobtracker_crash(t(&mut rng, 0.4, 0.8))
                .with_heartbeat_jitter_s(0.05 * cfg.heartbeat_s);
            if !members.is_empty() {
                p = p.with_partition(members, start, start + 0.2 * span);
            }
            p
        }
        other => unreachable!("unknown archetype {other}"),
    }
}

/// Run `f` on a watchdog thread; a run that exceeds `budget` is a hang
/// and fails the whole sweep (exit 2) — invariant 1.
fn with_watchdog<T: Send + 'static>(
    label: &str,
    budget: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(budget) {
        Ok(v) => v,
        Err(_) => {
            eprintln!("chaos: HANG — {label} exceeded {budget:?} watchdog");
            std::process::exit(2);
        }
    }
}

/// Invariants 2 and 4 on one combo: job completed with every map
/// accounted for, and the reference implementation agrees bitwise.
fn check_run(stats: &JobStats, reference: &JobStats, n_maps: usize, label: &str) {
    assert!(!stats.aborted, "{label}: job aborted");
    assert_eq!(stats.completed_maps(), n_maps, "{label}: lost a map task");
    assert_eq!(
        stats.makespan_s.to_bits(),
        reference.makespan_s.to_bits(),
        "{label}: sim vs reference makespan diverged ({} vs {})",
        stats.makespan_s,
        reference.makespan_s
    );
    assert_eq!(
        stats.tasks.len(),
        reference.tasks.len(),
        "{label}: attempt count diverged"
    );
    assert_eq!(
        stats.journal_records, reference.journal_records,
        "{label}: journal diverged"
    );
    assert_eq!(
        stats.jobtracker_recoveries, reference.jobtracker_recoveries,
        "{label}: recovery log diverged"
    );
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::from_env(&["--smoke"]);
    let smoke = args.flag("--smoke");
    let pool = args.pool();
    let seeds_per_combo: u64 = if smoke { 2 } else { 12 };
    let watchdog = Duration::from_secs(if smoke { 15 } else { 60 });
    let audit_compiled = cfg!(any(debug_assertions, feature = "audit"));
    println!(
        "Chaos sweep ({}) — invariant auditor {}",
        if smoke { "smoke" } else { "full" },
        if audit_compiled {
            "COMPILED IN"
        } else {
            "compiled out (build with --features audit)"
        }
    );

    let violations_at_start = audit::violations();
    let mut rows: Vec<Json> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    let mut runs = 0u64;

    for shape in SHAPES {
        for sched in SCHEDULERS {
            let cfg0 = (shape.cfg)(sched);
            let job = (shape.job)();
            let n_maps = job.maps.len();
            let clean = {
                let (cfg0, job) = (cfg0.clone(), job.clone());
                with_watchdog(
                    &format!("{}/{sched:?}/clean", shape.name),
                    watchdog,
                    move || simulate(&cfg0, &job),
                )
            };
            assert!(!clean.aborted, "{}: clean run aborted", shape.name);
            for archetype in shape.archetypes {
                for seed in 0..seeds_per_combo {
                    let label = format!("{}/{sched:?}/{archetype}/seed{seed}", shape.name);
                    let mut cfg = cfg0.clone();
                    cfg.faults = plan(archetype, seed, &cfg, clean.makespan_s);
                    let (stats, reference) = {
                        let (cfg, job) = (cfg.clone(), job.clone());
                        with_watchdog(&label, watchdog, move || {
                            (simulate(&cfg, &job), simulate_reference(&cfg, &job))
                        })
                    };
                    check_run(&stats, &reference, n_maps, &label);
                    runs += 1;
                    let overhead = stats.makespan_s - clean.makespan_s;
                    if *archetype == "jt" {
                        overheads.push(overhead);
                    }
                    rows.push(
                        Json::obj()
                            .with("shape", shape.name)
                            .with("scheduler", format!("{sched:?}"))
                            .with("archetype", *archetype)
                            .with("seed", seed)
                            .with("makespan_s", stats.makespan_s)
                            .with("overhead_s", overhead)
                            .with("attempts", stats.tasks.len())
                            .with("recoveries", stats.jobtracker_recoveries.len())
                            .with("nodes_lost", stats.nodes_lost)
                            .with("nodes_readmitted", stats.nodes_readmitted)
                            .with("heartbeats_lost", stats.heartbeats_lost)
                            .with("journal_records", stats.journal_records),
                    );
                }
            }
            println!(
                "  {}/{sched:?}: {} archetypes x {seeds_per_combo} seeds ok (clean {:.1}s)",
                shape.name,
                shape.archetypes.len(),
                clean.makespan_s
            );
        }
    }

    // Invariant 4, data plane: a master crash must not change the job's
    // final output bytes. Sampled (the functional executor is the
    // expensive path), full coverage lives in the DES equality above.
    let app = hetero_apps::app_by_code("WC").unwrap();
    let p = Preset::cluster1();
    let input = app.generate_split(6000, 17);
    let mut fcfg = ClusterConfig::small(4, Scheduler::GpuFirst);
    fcfg.gpus_per_node = 1;
    let dev = Device::new(p.gpu.clone());
    let run = |cfg: &ClusterConfig| {
        run_cluster_functional_job(
            app.as_ref(),
            &p,
            &input,
            cfg,
            OptFlags::all(),
            &dev,
            &Tracer::off(),
            &pool,
        )
        .unwrap()
    };
    let clean_f = run(&fcfg);
    let fracs: &[f64] = if smoke { &[0.5] } else { &[0.2, 0.5, 0.8] };
    for &frac in fracs {
        let mut cfg = fcfg.clone();
        cfg.faults = FaultPlan::seeded(29).with_jobtracker_crash(frac * clean_f.stats.makespan_s);
        let r = run(&cfg);
        assert_eq!(r.stats.jobtracker_recoveries.len(), 1);
        assert_eq!(
            r.job.output, clean_f.job.output,
            "crash@{frac}: output bytes diverged after master recovery"
        );
        runs += 1;
    }
    println!(
        "  functional: {} master-crash run(s) byte-identical to the clean output",
        fracs.len()
    );

    // Invariant 3: the whole sweep ended with a clean auditor.
    let violations = audit::violations() - violations_at_start;
    assert_eq!(violations, 0, "invariant auditor recorded violations");

    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = if overheads.is_empty() {
        0.0
    } else {
        overheads.iter().sum::<f64>() / overheads.len() as f64
    };
    let dist = Json::obj()
        .with("count", overheads.len())
        .with("min_s", overheads.first().copied().unwrap_or(0.0))
        .with("p50_s", percentile(&overheads, 0.5))
        .with("p90_s", percentile(&overheads, 0.9))
        .with("max_s", overheads.last().copied().unwrap_or(0.0))
        .with("mean_s", mean);

    let chaos = Json::obj()
        .with("artifact", "chaos")
        .with("mode", if smoke { "smoke" } else { "full" })
        .with("runs", runs)
        .with("audit_compiled", audit_compiled as u64)
        .with("audit_violations", violations)
        .with("recovery_overhead", dist)
        .with("combos", Json::Arr(rows));
    println!("chaos: {runs} runs, 0 hangs, 0 lost tasks, {violations} audit violations");
    write_artifact("chaos.json", !smoke, &chaos);
}
