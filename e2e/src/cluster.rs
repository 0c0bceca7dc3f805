//! The three `hetero-cluster` workloads: one large fault-free DES job,
//! the same shape under a seeded fault plan with speculation, and the
//! multi-tenant service past its calibrated capacity.

use crate::json::Value;
use crate::metrics::Metrics;
use crate::spans::SpanLog;
use crate::workloads::{splitmix64, Mode, Rep, Workload};
use crate::{hostspeed, verify};
use hetero_cluster::{
    generate_workload, run_service, simulate, AdmissionControl, ArrivalProcess, ClusterConfig,
    FaultPlan, JobRequest, JobSpec, JobStats, Scheduler, ServiceConfig, ServiceStats, TenantSpec,
    WorkloadConfig,
};

/// The cluster shape `bin/scale.rs` sweeps: 4 CPU slots + 1 GPU per
/// node, racks of 16, 1 s heartbeats, tail scheduling.
fn scale_cluster(nodes: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(nodes, Scheduler::TailScheduling);
    cfg.map_slots_per_node = 4;
    cfg.nodes_per_rack = 16;
    cfg.heartbeat_s = 1.0;
    cfg.heartbeat_timeout_s = 10.0;
    cfg
}

/// `scale.rs`'s job: 100 map tasks per node, 8 s on a CPU slot, 1 s on
/// the GPU, replication 3.
fn scale_job(nodes: u32) -> JobSpec {
    JobSpec::uniform("scale", nodes * 100, nodes, 3, 8.0, 1.0)
}

/// Uniform draw in [0, 1) from a seed and a stream position.
fn unit(seed: u64, i: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Faults land between 5 % and 60 % of the shape's ~70 s fault-free
/// makespan, so every one of them hits a busy cluster and leaves time
/// to recover.
fn fault_time(seed: u64, i: u64) -> f64 {
    3.5 + 38.5 * unit(seed, i)
}

/// The seeded plan of `des_faults_2k`: crashes on 2 % of the nodes, one
/// whole rack lost, one JobTracker crash, stragglers on 2 % of the
/// nodes (2–4× slower), 2 % transient attempt failures and 1 % lost
/// heartbeats.
fn fault_plan(seed: u64, nodes: u32, nodes_per_rack: u32) -> FaultPlan {
    let racks = nodes.div_ceil(nodes_per_rack);
    let lost_rack = (splitmix64(seed ^ 0xAC) % u64::from(racks)) as u32;
    let in_lost_rack = |n: u32| n / nodes_per_rack == lost_rack;
    let mut plan = FaultPlan::seeded(seed)
        .with_transient_p(0.02)
        .with_heartbeat_loss_p(0.01)
        .with_rack_failure(lost_rack, fault_time(seed, 1))
        .with_jobtracker_crash(fault_time(seed, 2));
    // Distinct victims: walk a seeded stride through the node ids.
    let picks = (nodes / 50).max(1);
    let stride = (nodes / (2 * picks)).max(1);
    let start = (splitmix64(seed ^ 0xC4) % u64::from(nodes)) as u32;
    for k in 0..2 * picks {
        let node = (start + k * stride) % nodes;
        if in_lost_rack(node) {
            continue;
        }
        let i = 10 + u64::from(k);
        plan = if k % 2 == 0 {
            plan.with_node_crash(node, fault_time(seed, i))
        } else {
            plan.with_straggler(node, 2.0 + 2.0 * unit(seed, i))
        };
    }
    plan
}

/// One or more whole-job DES runs per rep.
pub struct Des {
    runs: Vec<(ClusterConfig, JobSpec)>,
    nodes: u32,
}

impl Des {
    /// `des_tail_8k`. Takes no seed: the shape has no random input.
    pub fn tail(mode: Mode) -> Self {
        let nodes = mode.scale(8_000, 64) as u32;
        Des {
            runs: vec![(scale_cluster(nodes), scale_job(nodes))],
            nodes,
        }
    }

    /// `des_faults_2k`: four consecutive plan seeds per rep, so that one
    /// plan's luck (which rack, how early the master dies) averages out.
    pub fn faults(seed: u64, mode: Mode) -> Self {
        let nodes = mode.scale(2_000, 64) as u32;
        let runs = (0..4)
            .map(|k| {
                let mut cfg = scale_cluster(nodes);
                cfg.speculative = true;
                // A task that fails 4 attempts in a row aborts the job;
                // at 2 % per attempt over 200 k tasks that is a 3 % risk
                // per run. 8 makes it negligible: the workload is meant
                // to recover, not to abort.
                cfg.max_attempts = 8;
                cfg.faults = fault_plan(seed.wrapping_mul(4).wrapping_add(k), nodes, 16);
                cfg.validate().expect("generated fault plan is valid");
                (cfg, scale_job(nodes))
            })
            .collect();
        Des { runs, nodes }
    }

    fn tasks(&self) -> usize {
        self.runs.iter().map(|(_, job)| job.maps.len()).sum()
    }

    fn checked(&self, (wall_s, ref_s): (f64, f64), stats: &[JobStats]) -> Rep {
        let mut failed = 0;
        let mut fingerprint = String::new();
        for ((_, job), st) in self.runs.iter().zip(stats) {
            failed += verify::des_failed_tasks(st, job.maps.len());
            if st.completed_maps() != job.maps.len() {
                failed = failed.max(1);
            }
            fingerprint.push_str(&format!("{:016x}.", verify::jobstats_hash(st)));
        }
        Rep {
            wall_s,
            ref_s,
            units: stats.iter().map(|st| st.tasks.len() as u64).sum(),
            failed,
            sim_fingerprint: fingerprint,
        }
    }
}

impl Workload for Des {
    /// Attempts vary with the plan; the floor — one per task — is what a
    /// rep that dies before reporting is charged with.
    fn units(&self) -> u64 {
        self.tasks() as u64
    }

    fn sizes(&self) -> Value {
        Value::obj()
            .with("nodes", u64::from(self.nodes))
            .with("map_tasks_per_run", self.runs[0].1.maps.len())
            .with("runs_per_rep", self.runs.len())
            .with("speculative", self.runs[0].0.speculative)
            .with("faulted", !self.runs[0].0.faults.is_empty())
    }

    fn setup_metrics(&self, _: &mut Metrics) {}

    /// The traced rep differs from the plain one by a single span around
    /// each `simulate` call, so the plain rep is the traced one with a
    /// throw-away log.
    fn rep(&self) -> Result<Rep, String> {
        self.traced_rep(&mut SpanLog::new(), &mut Metrics::default(), 0.0)
    }

    /// Each run of the rep is timed, and brought to reference seconds,
    /// on its own: a host-speed flip between two runs then costs
    /// neither of them.
    fn traced_rep(&self, log: &mut SpanLog, m: &mut Metrics, _: f64) -> Result<Rep, String> {
        let mut stats = Vec::with_capacity(self.runs.len());
        let (mut simulate_s, mut ref_s) = (0.0, 0.0);
        for (cfg, job) in &self.runs {
            let t = hostspeed::timed(1, || {
                log.scope("cluster.simulate", "hetero-cluster", |_| simulate(cfg, job))
            });
            simulate_s += t.wall_s;
            ref_s += t.ref_s;
            stats.push(t.out.1);
        }
        let (_, rep) = log.scope("e2e.verify", "e2e", |_| {
            self.checked((simulate_s, ref_s), &stats)
        });
        let sum = |f: fn(&JobStats) -> f64| stats.iter().map(f).sum::<f64>();
        m.set("cluster.simulate_s", simulate_s);
        m.set("cluster.attempts", rep.units as f64);
        m.set(
            "cluster.failed_attempts",
            sum(|s| f64::from(s.failed_attempts)),
        );
        m.set(
            "cluster.speculative_attempts",
            sum(|s| f64::from(s.speculative_attempts)),
        );
        m.set("cluster.re_executed", sum(|s| f64::from(s.re_executed)));
        m.set("cluster.journal_records", sum(|s| s.journal_records as f64));
        m.set(
            "cluster.host_us_per_attempt",
            simulate_s * 1e6 / rep.units as f64,
        );
        m.set("cluster.sim_makespan_s", sum(|s| s.makespan_s));
        Ok(rep)
    }
}

/// `service_knee`: `bin/service.rs`'s 1000-node, three-tenant service
/// (etl / analytics / adhoc, 3:2:1 weights, sliced grants) driven by a
/// seeded Poisson trace at 1.5× its calibrated capacity.
pub struct Service {
    cfg: ServiceConfig,
    jobs: Vec<JobRequest>,
    capacity_jobs_per_s: f64,
}

/// Offered load as a multiple of calibrated capacity: past the knee of
/// the latency-vs-load curve, so queues are long and fair share matters.
const LOAD_FACTOR: f64 = 1.5;
/// Jobs whose contention-free node-seconds calibrate capacity.
const CALIBRATION_JOBS: u32 = 24;

fn service_workload(
    cfg: &ServiceConfig,
    seed: u64,
    rate_per_s: f64,
    num_jobs: u32,
) -> Vec<JobRequest> {
    generate_workload(
        &WorkloadConfig {
            seed,
            num_jobs,
            arrivals: ArrivalProcess::Poisson { rate_per_s },
            transient_fail_p: 0.01,
        },
        cfg,
    )
}

impl Service {
    pub fn setup(seed: u64, mode: Mode) -> Self {
        let nodes = mode.scale(1_000, 100) as u32;
        let mut cluster = scale_cluster(nodes);
        // An aborted inner job would still be accounted for, but the
        // workload is about queueing, not about losing jobs: see `Des`.
        cluster.max_attempts = 8;
        let slice = |frac: u32| (nodes / frac).max(1);
        let cfg = ServiceConfig {
            cluster,
            tenants: vec![
                TenantSpec::new("etl", 3.0).with_nodes_per_job(slice(10)),
                TenantSpec::new("analytics", 2.0).with_nodes_per_job(slice(20)),
                TenantSpec::new("adhoc", 1.0).with_nodes_per_job(slice(50)),
            ],
            admission: AdmissionControl::default(),
        };
        // Capacity = nodes ÷ mean node-seconds per job, each sampled job
        // run contention-free on its own grant (as `bin/service.rs`).
        let sample = service_workload(&cfg, seed, 1.0, CALIBRATION_JOBS);
        let mut node_s = 0.0;
        for r in &sample {
            let grant = cfg.tenants[r.tenant as usize].nodes_per_job;
            let mut one = cfg.cluster.clone();
            one.num_slaves = grant;
            one.faults = r.faults.clone();
            node_s += f64::from(grant) * simulate(&one, &r.spec).makespan_s;
        }
        let capacity_jobs_per_s = f64::from(nodes) / (node_s / sample.len() as f64);
        let num_jobs = mode.scale(700, 40) as u32;
        let jobs = service_workload(&cfg, seed, capacity_jobs_per_s * LOAD_FACTOR, num_jobs);
        Service {
            cfg,
            jobs,
            capacity_jobs_per_s,
        }
    }

    fn checked(&self, (wall_s, ref_s): (f64, f64), st: &ServiceStats) -> Rep {
        Rep {
            wall_s,
            ref_s,
            units: self.jobs.len() as u64,
            failed: verify::service_failed_jobs(st, self.jobs.len()).min(self.jobs.len() as u64),
            sim_fingerprint: format!("{:016x}", verify::service_hash(st)),
        }
    }
}

/// Pooled nearest-rank p99 latency over every completed job.
fn p99_latency_s(st: &ServiceStats) -> f64 {
    let mut lat: Vec<f64> = st.jobs.iter().map(|j| j.latency_s()).collect();
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_by(f64::total_cmp);
    let rank = (0.99 * lat.len() as f64).ceil() as usize;
    lat[rank.clamp(1, lat.len()) - 1]
}

impl Workload for Service {
    fn units(&self) -> u64 {
        self.jobs.len() as u64
    }

    fn sizes(&self) -> Value {
        Value::obj()
            .with("nodes", u64::from(self.cfg.cluster.num_slaves))
            .with("tenants", self.cfg.tenants.len())
            .with("jobs", self.jobs.len())
            .with("load_factor", LOAD_FACTOR)
            .with("capacity_jobs_per_sim_s", self.capacity_jobs_per_s)
    }

    fn setup_metrics(&self, _: &mut Metrics) {}

    /// As for [`Des`]: the traced rep with a throw-away log.
    fn rep(&self) -> Result<Rep, String> {
        self.traced_rep(&mut SpanLog::new(), &mut Metrics::default(), 0.0)
    }

    fn traced_rep(&self, log: &mut SpanLog, m: &mut Metrics, _: f64) -> Result<Rep, String> {
        let t = hostspeed::timed(1, || {
            log.scope("cluster.run_service", "hetero-cluster", |_| {
                run_service(&self.cfg, &self.jobs)
            })
        });
        let st = t.out.1.map_err(|e| e.to_string())?;
        let run_s = t.wall_s;
        let (_, rep) = log.scope("e2e.verify", "e2e", |_| {
            self.checked((t.wall_s, t.ref_s), &st)
        });
        m.set("cluster.service_run_s", run_s);
        m.set("cluster.service_completed", st.jobs.len() as f64);
        m.set("cluster.service_rejected", st.rejections.len() as f64);
        m.set("cluster.service_p99_latency_sim_s", p99_latency_s(&st));
        m.set("cluster.service_utilization", st.mean_utilization);
        m.set(
            "cluster.host_us_per_job",
            run_s * 1e6 / self.jobs.len() as f64,
        );
        m.set(
            "cluster.attempts",
            st.jobs.iter().map(|j| j.stats.tasks.len() as f64).sum(),
        );
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_valid_seeded_and_distinct() {
        for seed in 0..40 {
            let plan = fault_plan(seed, 2_000, 16);
            plan.validate(2_000, 125, 1)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(plan.rack_failures.len(), 1);
            assert_eq!(plan.jobtracker_crashes.len(), 1);
            assert!(plan.node_crashes.len() >= 36 && plan.node_crashes.len() <= 40);
            assert!(plan.stragglers.len() >= 36);
            for &(_, t) in &plan.node_crashes {
                assert!((3.5..42.0).contains(&t));
            }
            for &(_, f) in &plan.stragglers {
                assert!((2.0..4.0).contains(&f));
            }
        }
        let a = fault_plan(1, 2_000, 16);
        let b = fault_plan(2, 2_000, 16);
        assert_eq!(a.node_crashes, fault_plan(1, 2_000, 16).node_crashes);
        assert_ne!(a.node_crashes, b.node_crashes);
    }

    #[test]
    fn smoke_sized_cluster_workloads_verify_and_repeat() {
        for name in ["des_tail_8k", "des_faults_2k", "service_knee"] {
            let w = crate::workloads::build(name, 3, Mode::Smoke).unwrap();
            let a = w.rep().unwrap();
            let mut m = Metrics::default();
            let b = w.traced_rep(&mut SpanLog::new(), &mut m, a.wall_s).unwrap();
            assert_eq!(a.failed, 0, "{name}");
            assert!(a.units >= w.units(), "{name}");
            assert_eq!(a.sim_fingerprint, b.sim_fingerprint, "{name}");
            assert!(m.get("cluster.attempts") > 0.0, "{name}");
        }
        let faults = crate::workloads::build("des_faults_2k", 3, Mode::Smoke).unwrap();
        let other = crate::workloads::build("des_faults_2k", 4, Mode::Smoke).unwrap();
        assert_ne!(
            faults.rep().unwrap().sim_fingerprint,
            other.rep().unwrap().sim_fingerprint,
            "the seed must reach the fault plan"
        );
    }
}
