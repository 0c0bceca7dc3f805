//! Fault-injection experiment (not a paper figure — robustness study):
//! the cluster survives a node crash, a 5% transient task-failure rate,
//! and a corrupted input block, and produces the same answer it would on
//! a perfect cluster. Reports the price of recovery: makespan overhead,
//! re-executed tasks, wasted work, and speculative waste — plus how
//! speculative execution composes with tail scheduling under stragglers.
//!
//! Fault model v2 adds the correlated faults and master outages: a
//! JobTracker crash-recovery overhead sweep, a whole-rack failure, and a
//! network partition with lossy heartbeats (false expiry + re-admission).
//! All measured numbers land in `results/faults.json`.
use hetero_bench::{storm, write_artifact, Args};
use hetero_cluster::{
    simulate, ClusterConfig, FaultPlan, JobSpec, JobStats, ReduceTaskSpec, Scheduler,
};
use hetero_gpusim::Device;
use hetero_hdfs::{Hdfs, Topology};
use hetero_runtime::OptFlags;
use hetero_trace::json::Json;
use hetero_trace::Tracer;
use heterodoop::{run_cluster_functional_job, run_functional_job_pooled, Preset};

fn cfg(scheduler: Scheduler, speculative: bool, faults: FaultPlan) -> ClusterConfig {
    let mut c = ClusterConfig::small(8, scheduler);
    c.map_slots_per_node = 4;
    c.speculative = speculative;
    c.faults = faults;
    c
}

fn job() -> JobSpec {
    let mut j = JobSpec::uniform("faults", 200, 8, 3, 12.0, 2.0);
    j.reduces = (0..8)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    j
}

/// The full faulted schedule as comparable tuples.
fn schedule(st: &JobStats) -> Vec<(u32, u32, u32, u64)> {
    st.tasks
        .iter()
        .map(|t| (t.id, t.attempt, t.node, t.start_s.to_bits()))
        .collect()
}

fn main() {
    let pool = Args::from_env(&[]).pool();
    println!("Fault injection — recovery cost on an 8-node cluster (200 maps, 8 reduces)");
    eprintln!("[{} worker thread(s)]", pool.threads());

    // 1. Control plane: perfect cluster vs node crash + 5% transient
    //    failures + one corrupted task input.
    let j = job();
    let clean = simulate(&cfg(Scheduler::GpuFirst, true, FaultPlan::none()), &j);
    let faulted = simulate(&cfg(Scheduler::GpuFirst, true, storm()), &j);
    assert!(!faulted.aborted, "job must survive the fault storm");
    assert_eq!(
        faulted.completed_maps(),
        j.maps.len(),
        "every map must eventually succeed"
    );
    println!("\n{:<28}{:>12}{:>12}", "", "clean", "faulted");
    println!(
        "{:<28}{:>12.1}{:>12.1}",
        "makespan (s)", clean.makespan_s, faulted.makespan_s
    );
    println!(
        "{:<28}{:>12}{:>12}",
        "map attempts",
        clean.map_attempts(),
        faulted.map_attempts()
    );
    println!(
        "{:<28}{:>12}{:>12}",
        "failed attempts", clean.failed_attempts, faulted.failed_attempts
    );
    println!(
        "{:<28}{:>12}{:>12}",
        "re-executed (node loss)", clean.re_executed, faulted.re_executed
    );
    println!(
        "{:<28}{:>12}{:>12}",
        "checksum failures", clean.checksum_failures, faulted.checksum_failures
    );
    println!(
        "{:<28}{:>12.1}{:>12.1}",
        "wasted work (s)", clean.wasted_work_s, faulted.wasted_work_s
    );
    println!(
        "{:<28}{:>12.1}{:>12.1}",
        "speculative waste (s)", clean.speculative_wasted_s, faulted.speculative_wasted_s
    );
    let overhead = 100.0 * (faulted.makespan_s / clean.makespan_s - 1.0);
    println!("makespan overhead: {overhead:.1}%");
    for (node, t) in &faulted.node_loss_detected {
        println!("node {node} crash at 15.0s detected at {t:.1}s (heartbeat timeout)");
    }

    // Same seed, same schedule — recovery is deterministic.
    let again = simulate(&cfg(Scheduler::GpuFirst, true, storm()), &j);
    assert_eq!(
        schedule(&faulted),
        schedule(&again),
        "same FaultPlan seed must reproduce the same schedule"
    );
    println!(
        "determinism: re-run with the same seed reproduced all {} attempts",
        again.map_attempts()
    );

    // 2. Speculative execution x scheduler, under a 6x straggler node.
    println!("\nStragglers — speculative execution composed with tail scheduling");
    println!(
        "{:<18}{:>14}{:>14}{:>12}{:>14}",
        "scheduler", "no-spec (s)", "spec (s)", "backups", "waste (s)"
    );
    let slow = FaultPlan {
        seed: 7,
        stragglers: vec![(0, 6.0)],
        ..FaultPlan::default()
    };
    for sched in [Scheduler::GpuFirst, Scheduler::TailScheduling] {
        let base = simulate(&cfg(sched, false, slow.clone()), &j);
        let spec = simulate(&cfg(sched, true, slow.clone()), &j);
        println!(
            "{:<18}{:>14.1}{:>14.1}{:>12}{:>14.1}",
            format!("{sched:?}"),
            base.makespan_s,
            spec.makespan_s,
            spec.speculative_attempts,
            spec.speculative_wasted_s
        );
    }

    // 3. Data plane: a corrupted replica is detected by CRC, read fails
    //    over, and the block re-replicates — bytes come back identical.
    let fs = Hdfs::new(Topology::new(8, 4), 1 << 16, 3).unwrap();
    let payload: Vec<u8> = (0..200_000u32).flat_map(|i| i.to_le_bytes()).collect();
    let splits = fs.put("/data", &payload).unwrap();
    fs.corrupt_block(splits[1].id).unwrap();
    let back = fs.read_file("/data").unwrap();
    assert_eq!(back, payload, "read must fail over to a healthy replica");
    let h = fs.health();
    println!(
        "\nHDFS: corrupted one replica of block {} — read byte-identical \
         ({} checksum event(s), {} failover(s), {} re-replication(s))",
        splits[1].id.0, h.checksum_events, h.failovers, h.re_replications
    );

    // 4. Data plane: a faulted GPU degrades the job to the CPU path with
    //    byte-identical output. Both runs fan tasks across the pool.
    let app = hetero_apps::app_by_code("WC").unwrap();
    let p = Preset::cluster1();
    let input = app.generate_split(4000, 11);
    let healthy = Device::new(p.gpu.clone());
    let ok = run_functional_job_pooled(
        app.as_ref(),
        &p,
        &input,
        2,
        OptFlags::all(),
        &healthy,
        &Tracer::off(),
        &pool,
    )
    .unwrap();
    let dev = Device::new(p.gpu.clone());
    dev.inject_fault("xid 62");
    let degraded = run_functional_job_pooled(
        app.as_ref(),
        &p,
        &input,
        2,
        OptFlags::all(),
        &dev,
        &Tracer::off(),
        &pool,
    )
    .unwrap();
    assert_eq!(ok.output, degraded.output, "degraded run must match");
    println!(
        "GPU fault: {} task(s) fell back to the CPU, output byte-identical to the fault-free run",
        degraded.gpu_fallbacks
    );

    // 5. Control + data plane: the faulted DES schedule decides CPU/GPU
    //    placement and the functional executor runs it — same bytes as a
    //    fault-free functional run.
    let storm_cfg = cfg(Scheduler::GpuFirst, true, storm());
    let cdev = Device::new(p.gpu.clone());
    let cj = run_cluster_functional_job(
        app.as_ref(),
        &p,
        &input,
        &storm_cfg,
        OptFlags::all(),
        &cdev,
        &Tracer::off(),
        &pool,
    )
    .unwrap();
    assert_eq!(
        cj.job.output, ok.output,
        "DES-placed run must compute the same answer"
    );
    println!(
        "cluster execution: {} maps placed by the faulted DES ({} on the GPU), \
         output byte-identical to the fault-free run",
        cj.gpu_placed.len(),
        cj.job.gpu_tasks
    );

    // 6. Fault model v2 — master outage: crash the JobTracker across the
    //    job and measure the recovery overhead (re-registration +
    //    deferred-report drain vs the clean run). "replayed" is every
    //    journal record written from the start to the recovery
    //    (`jobtracker_recoveries[0].1`), so it grows with the crash point.
    println!("\nJobTracker crash-recovery — overhead vs crash point (GpuFirst)");
    println!(
        "{:<14}{:>14}{:>14}{:>12}",
        "crash frac", "makespan (s)", "overhead (s)", "replayed"
    );
    let jt_clean = simulate(&cfg(Scheduler::GpuFirst, true, FaultPlan::none()), &j);
    let mut jt_rows = Vec::new();
    for i in 0..8u64 {
        let frac = (i as f64 + 0.5) / 8.0;
        let plan = FaultPlan::seeded(i).with_jobtracker_crash(frac * jt_clean.makespan_s);
        let st = simulate(&cfg(Scheduler::GpuFirst, true, plan), &j);
        assert!(!st.aborted, "master crash must not abort the job");
        assert_eq!(st.completed_maps(), j.maps.len());
        assert_eq!(
            st.re_executed, 0,
            "a JT crash alone must not lose map output"
        );
        let (_, replayed) = st.jobtracker_recoveries[0];
        let overhead = st.makespan_s - jt_clean.makespan_s;
        println!(
            "{frac:<14.3}{:>14.1}{overhead:>14.1}{replayed:>12}",
            st.makespan_s
        );
        jt_rows.push(
            Json::obj()
                .with("crash_frac", frac)
                .with("makespan_s", st.makespan_s)
                .with("overhead_s", overhead)
                .with("journal_replayed", replayed)
                .with("journal_records", st.journal_records),
        );
    }

    // 7. Fault model v2 — correlated faults: a whole-rack failure and a
    //    network partition with lossy heartbeats. The partitioned nodes
    //    are falsely expired and re-admitted after the heal; the rack's
    //    finished maps re-execute elsewhere.
    println!("\nCorrelated faults — rack failure and network partition");
    let rack_plan = FaultPlan::seeded(5)
        .with_rack_failure(1, 0.3 * jt_clean.makespan_s)
        .with_jobtracker_crash(0.45 * jt_clean.makespan_s);
    let rack_st = simulate(&cfg(Scheduler::GpuFirst, true, rack_plan), &j);
    assert!(!rack_st.aborted);
    assert_eq!(rack_st.completed_maps(), j.maps.len());
    println!(
        "rack 1 + master crash: makespan {:.1}s (+{:.1}s), {} nodes lost, {} maps re-executed",
        rack_st.makespan_s,
        rack_st.makespan_s - jt_clean.makespan_s,
        rack_st.nodes_lost,
        rack_st.re_executed
    );
    let part_plan = FaultPlan::seeded(6)
        .with_partition(
            vec![1, 4, 6],
            0.2 * jt_clean.makespan_s,
            0.6 * jt_clean.makespan_s,
        )
        .with_heartbeat_loss_p(0.1)
        .with_heartbeat_jitter_s(0.05);
    let part_st = simulate(&cfg(Scheduler::GpuFirst, true, part_plan), &j);
    assert!(!part_st.aborted);
    assert_eq!(part_st.completed_maps(), j.maps.len());
    assert!(part_st.nodes_readmitted >= 1, "healed nodes must re-admit");
    println!(
        "partition of 3 nodes + 10% heartbeat loss: makespan {:.1}s (+{:.1}s), \
         {} beats lost, {} nodes re-admitted",
        part_st.makespan_s,
        part_st.makespan_s - jt_clean.makespan_s,
        part_st.heartbeats_lost,
        part_st.nodes_readmitted
    );

    // Everything measured above (no reduced mode: always a full run).
    let json = Json::obj()
        .with("artifact", "faults")
        .with("clean_makespan_s", clean.makespan_s)
        .with("storm_makespan_s", faulted.makespan_s)
        .with("storm_overhead_pct", overhead)
        .with("storm_failed_attempts", faulted.failed_attempts)
        .with("storm_re_executed", faulted.re_executed)
        .with("jobtracker_crash_sweep", Json::Arr(jt_rows))
        .with(
            "rack_failure",
            Json::obj()
                .with("makespan_s", rack_st.makespan_s)
                .with("nodes_lost", rack_st.nodes_lost)
                .with("re_executed", rack_st.re_executed)
                .with("recoveries", rack_st.jobtracker_recoveries.len()),
        )
        .with(
            "partition",
            Json::obj()
                .with("makespan_s", part_st.makespan_s)
                .with("heartbeats_lost", part_st.heartbeats_lost)
                .with("nodes_readmitted", part_st.nodes_readmitted),
        );
    write_artifact("faults.json", true, &json);
}
