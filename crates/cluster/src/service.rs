//! Multi-tenant job service: continuous job arrival on a shared cluster.
//!
//! The paper's HeteroDoop runs one MapReduce job at a time; the ROADMAP
//! north-star is a production-scale shared cluster under continuous
//! load. This module layers a *service* on top of the single-job DES:
//!
//! - a seeded **workload generator** ([`generate_workload`]) producing
//!   benchmark-shaped [`JobSpec`]s under Poisson arrivals, assigned to
//!   tenants by weight;
//! - a **multi-job scheduler** ([`run_service`]) time-sharing the
//!   cluster's nodes across concurrent jobs via weighted fair-share
//!   and admission control (queue-length and outstanding-task bounds);
//! - **SLO accounting** ([`ServiceStats`]): per-job wait/run/latency,
//!   per-tenant p50/p99, and a slot-utilization timeline, exportable as
//!   a `hetero-trace` metrics snapshot and Chrome-trace instants.
//!
//! ## Two-level model and determinism
//!
//! The service is an *outer* DES over job lifecycles. Each admitted job
//! receives a **grant** of whole nodes — a fixed, tenant-configured
//! slice ([`TenantSpec::nodes_per_job`], `0` = the whole cluster) — and
//! runs on that slice through the unmodified inner [`simulate`]. Because
//! the grant depends only on the tenant (never on instantaneous load),
//! a job's `JobStats` are a pure function of `(grant, spec, faults)`:
//!
//! - a single job granted the whole cluster is **bit-identical** to a
//!   direct [`simulate`] call;
//! - replaying a fixed arrival trace is deterministic, and partitioning
//!   the trace across service *shards* changes wait times only — every
//!   per-job `JobStats` is unchanged;
//! - the inner run need not wait for the launch: it starts when the job
//!   is admitted, on a [`ParallelRunner`] worker, and the launch takes
//!   its result. Any pool width gives the same bits.
//!
//! Contention between tenants is modeled at node granularity (grants
//! queue when the cluster is full), which is exactly the fair-share
//! scheduler's currency in YARN-like systems.

use crate::config::{ClusterConfig, ConfigError, FaultPlan};
use crate::job::{JobSpec, MapTaskSpec, ReduceTaskSpec};
use crate::parallel::{ParallelRunner, Prefetch};
use crate::queue::EventQueue;
use crate::sim::{mix64, simulate};
use crate::stats::JobStats;
use hetero_hdfs::NodeId;
use hetero_trace::{Category, MetricsRegistry, Tracer};
use std::collections::VecDeque;

// ------------------------------------------------------------ tenants

/// One tenant of the shared cluster.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name (appears in metrics keys).
    pub name: String,
    /// Fair-share weight (> 0): the scheduler picks the tenant with the
    /// lowest `granted_nodes / weight` next.
    pub weight: f64,
    /// Grant size per job in nodes (0 = the whole cluster). Fixed per
    /// tenant so per-job stats are load-independent (see module docs).
    pub nodes_per_job: u32,
}

impl TenantSpec {
    /// A tenant with the given name and weight and whole-cluster grants.
    pub fn new(name: &str, weight: f64) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
            nodes_per_job: 0,
        }
    }

    /// Builder: set the per-job grant size.
    pub fn with_nodes_per_job(mut self, n: u32) -> Self {
        self.nodes_per_job = n;
        self
    }
}

/// Admission-control bounds checked at job arrival. A job failing any
/// bound is rejected with a descriptive reason (never queued).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionControl {
    /// Maximum queued (admitted, not yet started) jobs per tenant
    /// (0 = unbounded).
    pub max_queue_per_tenant: u32,
    /// Maximum outstanding tasks (map + reduce, queued + running jobs,
    /// all tenants) the service will hold (0 = unbounded).
    pub max_outstanding_tasks: u64,
}

/// Service configuration: the shared cluster, its tenants, and the
/// admission bounds.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The physical cluster every grant is carved from. Its own
    /// `FaultPlan` must be empty — faults ride on each [`JobRequest`]
    /// and are validated against that job's grant at admission.
    pub cluster: ClusterConfig,
    /// The tenants sharing the cluster.
    pub tenants: Vec<TenantSpec>,
    /// Admission-control bounds.
    pub admission: AdmissionControl,
}

impl ServiceConfig {
    /// A single-tenant service over `cluster` with no admission bounds —
    /// the configuration under which the service is provably equivalent
    /// to back-to-back [`simulate`] calls.
    pub fn single_tenant(cluster: ClusterConfig) -> Self {
        ServiceConfig {
            cluster,
            tenants: vec![TenantSpec::new("default", 1.0)],
            admission: AdmissionControl::default(),
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        self.cluster.validate()?;
        if !self.cluster.faults.is_empty() {
            return Err(ConfigError(
                "service cluster must not carry a FaultPlan; attach faults to each JobRequest"
                    .into(),
            ));
        }
        if self.tenants.is_empty() {
            return Err(ConfigError("service needs at least one tenant".into()));
        }
        for t in &self.tenants {
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(ConfigError(format!(
                    "tenant {}: weight {} must be finite and positive",
                    t.name, t.weight
                )));
            }
            if t.nodes_per_job > self.cluster.num_slaves {
                return Err(ConfigError(format!(
                    "tenant {}: nodes_per_job {} exceeds the cluster's {} nodes",
                    t.name, t.nodes_per_job, self.cluster.num_slaves
                )));
            }
        }
        Ok(())
    }

    /// Nodes one of `tenant`'s jobs is granted: its `nodes_per_job`, or
    /// the whole cluster when that is 0.
    pub fn grant_nodes(&self, tenant: &TenantSpec) -> u32 {
        if tenant.nodes_per_job == 0 {
            self.cluster.num_slaves
        } else {
            tenant.nodes_per_job
        }
    }
}

// ------------------------------------------------------------ workload

/// One job submitted to the service.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Index into [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// Arrival (submission) time, simulated seconds.
    pub arrive_s: f64,
    /// The job itself. Map replicas are interpreted on the job's
    /// *grant* (node ids `0..grant`); out-of-range replicas degrade to
    /// rack-remote placement, as in the single-job simulator.
    pub spec: JobSpec,
    /// Faults injected into this job's granted slice (validated against
    /// the grant at admission; an invalid plan rejects the job).
    pub faults: FaultPlan,
}

/// The arrival process of a generated workload.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (jobs per second).
    Poisson {
        /// Mean arrival rate, jobs/second.
        rate_per_s: f64,
    },
}

/// Knobs of the seeded workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Seed for every draw (arrival gaps, tenant choice, job shape).
    pub seed: u64,
    /// Number of jobs to generate.
    pub num_jobs: u32,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Per-job transient-failure probability carried on each generated
    /// job's `FaultPlan` (0 = fault-free workload).
    pub transient_fail_p: f64,
}

impl WorkloadConfig {
    /// Check the knobs [`generate_workload`] cannot draw a trace from,
    /// naming the bad field: a rate that is not finite and positive, a
    /// `transient_fail_p` outside [0, 1], or a service without tenants.
    pub fn validate(&self, svc: &ServiceConfig) -> Result<(), ConfigError> {
        let ArrivalProcess::Poisson { rate_per_s } = self.arrivals;
        if !(rate_per_s.is_finite() && rate_per_s > 0.0) {
            return Err(ConfigError(format!(
                "workload rate_per_s {rate_per_s} must be finite and positive"
            )));
        }
        let p = self.transient_fail_p;
        if !(0.0..=1.0).contains(&p) {
            return Err(ConfigError(format!(
                "workload transient_fail_p {p} must be in [0, 1]"
            )));
        }
        if svc.tenants.is_empty() {
            return Err(ConfigError(
                "workload needs a service with at least one tenant".into(),
            ));
        }
        Ok(())
    }
}

/// Benchmark-shaped job templates (durations echo the paper's Table 4
/// shapes: a high-speedup compute-bound code, a medium-speedup
/// iterative code, and a shuffle-heavy low-speedup text code).
const TEMPLATES: [(&str, f64, f64, u32, u64); 4] = [
    // name, cpu_s, gpu_s, reduces, output_bytes
    ("blackscholes", 24.0, 2.0, 0, 1 << 18),
    ("kmeans", 30.0, 6.0, 4, 1 << 20),
    ("wordcount", 12.0, 8.0, 8, 8 << 20),
    ("histogram", 18.0, 3.0, 2, 1 << 20),
];

/// Uniform draw in [0, 1) from the workload seed, a stream id, and a
/// counter (same splitmix construction as the simulator's fault dice).
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let h = mix64(seed ^ mix64(stream ^ mix64(i)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Generate a seeded workload: arrival times from the configured
/// process, tenants drawn proportionally to their fair-share weight,
/// job shapes cycled through the benchmark templates with jittered
/// sizes. Fully deterministic in `w.seed`.
///
/// Knobs that [`WorkloadConfig::validate`] refuses never hang or panic
/// the generator: a service without tenants yields an empty trace, and
/// a rate that is zero, negative or not a number yields an `arrive_s`
/// that is not finite or below zero, which [`run_service`] refuses.
pub fn generate_workload(w: &WorkloadConfig, svc: &ServiceConfig) -> Vec<JobRequest> {
    if svc.tenants.is_empty() {
        return Vec::new();
    }
    let mut jobs = Vec::with_capacity(w.num_jobs as usize);
    let total_weight: f64 = svc.tenants.iter().map(|t| t.weight).sum();
    let ArrivalProcess::Poisson { rate_per_s } = w.arrivals;
    let mut t = 0.0_f64;
    for i in 0..w.num_jobs {
        // Arrival gap.
        t += -(1.0 - unit(w.seed, 1, i as u64)).ln() / rate_per_s;
        // Tenant: weighted draw.
        let mut pick = unit(w.seed, 3, i as u64) * total_weight;
        let mut tenant = 0_u32;
        for (ti, ts) in svc.tenants.iter().enumerate() {
            if pick < ts.weight || ti == svc.tenants.len() - 1 {
                tenant = ti as u32;
                break;
            }
            pick -= ts.weight;
        }
        // Shape: template cycled by a seeded draw, sizes jittered.
        let (tname, cpu_s, gpu_s, reduces, out_bytes) = TEMPLATES
            [(mix64(w.seed ^ mix64(4 ^ mix64(i as u64))) % TEMPLATES.len() as u64) as usize];
        let grant = svc.grant_nodes(&svc.tenants[tenant as usize]);
        // 2–6 waves of maps over the grant's map slots.
        let slots = grant * svc.cluster.map_slots_per_node.max(1);
        let waves = 2.0 + 4.0 * unit(w.seed, 5, i as u64);
        let n_maps = ((slots as f64 * waves) as u32).max(1);
        let scale = 0.75 + 0.5 * unit(w.seed, 6, i as u64);
        let maps = (0..n_maps)
            .map(|m| MapTaskSpec {
                id: m,
                replicas: (0..3).map(|r| NodeId((m + r * 7) % grant.max(1))).collect(),
                cpu_s: cpu_s * scale,
                gpu_s: gpu_s * scale,
                output_bytes: out_bytes,
            })
            .collect();
        let reduces = (0..reduces)
            .map(|id| ReduceTaskSpec {
                id,
                compute_s: 2.0 * scale,
            })
            .collect();
        jobs.push(JobRequest {
            tenant,
            arrive_s: t,
            spec: JobSpec {
                name: format!("{tname}-{i}"),
                maps,
                reduces,
            },
            faults: FaultPlan {
                seed: mix64(w.seed ^ mix64(7 ^ mix64(i as u64))),
                transient_fail_p: w.transient_fail_p,
                ..FaultPlan::default()
            },
        });
    }
    jobs
}

// ------------------------------------------------------------- results

/// Outcome of one admitted, completed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Tenant index.
    pub tenant: u32,
    /// Submission time.
    pub arrive_s: f64,
    /// Launch time (grant acquired).
    pub start_s: f64,
    /// Completion time (`start_s` + inner makespan).
    pub finish_s: f64,
    /// Nodes granted.
    pub grant_nodes: u32,
    /// The inner single-job statistics — a pure function of
    /// `(grant, spec, faults)`, independent of cluster load.
    pub stats: JobStats,
}

impl JobOutcome {
    /// Queueing delay: launch − arrival.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.arrive_s
    }

    /// End-to-end latency: completion − arrival.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrive_s
    }
}

/// A job the admission controller turned away.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Job name.
    pub name: String,
    /// Tenant index.
    pub tenant: u32,
    /// Submission time.
    pub arrive_s: f64,
    /// Why (descriptive, stable wording).
    pub reason: String,
}

/// Per-tenant SLO summary (nearest-rank percentiles).
#[derive(Debug, Clone)]
pub struct TenantSlo {
    /// Tenant name.
    pub name: String,
    /// Jobs admitted (queued or run).
    pub admitted: u32,
    /// Jobs rejected at admission.
    pub rejected: u32,
    /// Jobs completed.
    pub completed: u32,
    /// Median queueing delay, seconds.
    pub p50_wait_s: f64,
    /// 99th-percentile queueing delay, seconds.
    pub p99_wait_s: f64,
    /// Median end-to-end latency, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_latency_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Map-attempt slot-seconds this tenant's jobs consumed.
    pub busy_slot_s: f64,
}

/// Everything a service run produces.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Completed jobs, in completion order.
    pub jobs: Vec<JobOutcome>,
    /// Rejected jobs, in arrival order.
    pub rejections: Vec<Rejection>,
    /// Per-tenant SLO summaries (same order as the config's tenants).
    pub tenants: Vec<TenantSlo>,
    /// Node-grant utilization timeline: `(time_s, granted_fraction)`
    /// breakpoints, one per change.
    pub utilization: Vec<(f64, f64)>,
    /// Time-weighted mean granted fraction over `[0, makespan_s]`.
    pub mean_utilization: f64,
    /// Time the last job finished (0 when nothing ran).
    pub makespan_s: f64,
}

impl ServiceStats {
    /// Nearest-rank percentile of `sorted` (ascending); 0.0 when empty.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Canonical deterministic rendering of the whole run (floats by
    /// exact bits, via [`JobStats::fingerprint`] per job). Two service
    /// runs are bit-identical iff their fingerprints are byte-equal.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "makespan={:016x} mean_util={:016x}",
            self.makespan_s.to_bits(),
            self.mean_utilization.to_bits()
        );
        for (t, u) in &self.utilization {
            let _ = write!(s, "\nutil {:016x} {:016x}", t.to_bits(), u.to_bits());
        }
        for r in &self.rejections {
            let _ = write!(
                s,
                "\nreject {} tenant={} arrive={:016x} reason={}",
                r.name,
                r.tenant,
                r.arrive_s.to_bits(),
                r.reason
            );
        }
        for t in &self.tenants {
            let _ = write!(s, "\ntenant {t:?}");
        }
        for j in &self.jobs {
            let _ = write!(
                s,
                "\njob {} tenant={} arrive={:016x} start={:016x} finish={:016x} grant={}\n{}",
                j.name,
                j.tenant,
                j.arrive_s.to_bits(),
                j.start_s.to_bits(),
                j.finish_s.to_bits(),
                j.grant_nodes,
                j.stats.fingerprint()
            );
        }
        s
    }

    /// Flatten the run into a deterministic metrics snapshot: service
    /// totals plus per-tenant SLO gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set("service.jobs_completed", self.jobs.len() as u64);
        m.set("service.jobs_rejected", self.rejections.len() as u64);
        m.set("service.makespan_s", self.makespan_s);
        m.set("service.mean_utilization", self.mean_utilization);
        for t in &self.tenants {
            let k = |s: &str| format!("tenant.{}.{s}", t.name);
            m.set(k("admitted"), u64::from(t.admitted));
            m.set(k("rejected"), u64::from(t.rejected));
            m.set(k("completed"), u64::from(t.completed));
            m.set(k("p50_wait_s"), t.p50_wait_s);
            m.set(k("p99_wait_s"), t.p99_wait_s);
            m.set(k("p50_latency_s"), t.p50_latency_s);
            m.set(k("p99_latency_s"), t.p99_latency_s);
            m.set(k("mean_latency_s"), t.mean_latency_s);
            m.set(k("busy_slot_s"), t.busy_slot_s);
        }
        m
    }
}

// ------------------------------------------------------------- the DES

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Index into the (arrival-sorted) request list.
    Arrival(u32),
    /// Index into the running-job table.
    Finish(u32),
}

struct RunningJob {
    req: u32,
    tenant: u32,
    grant: u32,
    start_s: f64,
    stats: Option<JobStats>,
}

struct Service<'a, 'p> {
    cfg: &'a ServiceConfig,
    reqs: &'a [JobRequest],
    tracer: &'a Tracer,
    /// Inner runs, submitted at admission and taken at launch, by
    /// request index.
    inner: &'p Prefetch<'a, JobStats>,
    events: EventQueue<Event>,
    now: f64,
    /// Per-tenant FIFO of admitted-but-waiting request indices.
    queues: Vec<VecDeque<u32>>,
    /// Per-tenant nodes currently granted.
    granted: Vec<u32>,
    free_nodes: u32,
    /// Tasks of queued + running jobs (admission bound).
    outstanding_tasks: u64,
    running: Vec<RunningJob>,
    out: ServiceStats,
    per_tenant_grant: Vec<u32>,
}

/// Run the service over `requests` (any order; sorted internally by
/// `(arrive_s, index)`). Returns the full [`ServiceStats`] or a
/// [`ConfigError`] when the service configuration itself is invalid —
/// per-job problems (bad fault plans, over-bound queues) reject the job
/// and never fail the run. Inner runs use a default [`ParallelRunner`].
pub fn run_service(
    cfg: &ServiceConfig,
    requests: &[JobRequest],
) -> Result<ServiceStats, ConfigError> {
    run_service_traced(cfg, requests, &Tracer::off(), &ParallelRunner::default())
}

/// [`run_service`] recording service-lifecycle instants (category
/// `service`, pid = `u32::MAX` lane) into `tracer`, with each admitted
/// job's inner simulation started at admission on `pool` and joined at
/// launch. Neither tracing nor the pool width changes a bit of the stats
/// or of the trace: results are consumed in launch order and every
/// instant is recorded on the calling thread. The inner runs are
/// untraced.
pub fn run_service_traced(
    cfg: &ServiceConfig,
    requests: &[JobRequest],
    tracer: &Tracer,
    pool: &ParallelRunner,
) -> Result<ServiceStats, ConfigError> {
    cfg.validate()?;
    for r in requests {
        if (r.tenant as usize) >= cfg.tenants.len() {
            return Err(ConfigError(format!(
                "job {}: tenant {} out of range ({} tenants)",
                r.spec.name,
                r.tenant,
                cfg.tenants.len()
            )));
        }
        if !r.arrive_s.is_finite() || r.arrive_s < 0.0 {
            return Err(ConfigError(format!(
                "job {}: arrive_s {} must be finite and non-negative",
                r.spec.name, r.arrive_s
            )));
        }
    }

    // Arrival order: (time, original index) — stable and deterministic.
    let mut order: Vec<u32> = (0..requests.len() as u32).collect();
    order.sort_by(|&a, &b| {
        requests[a as usize]
            .arrive_s
            .total_cmp(&requests[b as usize].arrive_s)
            .then(a.cmp(&b))
    });

    let nt = cfg.tenants.len();
    Ok(pool.prefetch(|inner| {
        let mut svc = Service {
            cfg,
            reqs: requests,
            tracer,
            inner,
            events: EventQueue::new(),
            now: 0.0,
            queues: vec![VecDeque::new(); nt],
            granted: vec![0; nt],
            free_nodes: cfg.cluster.num_slaves,
            outstanding_tasks: 0,
            running: Vec::new(),
            out: ServiceStats {
                jobs: Vec::new(),
                rejections: Vec::new(),
                tenants: Vec::new(),
                utilization: Vec::new(),
                mean_utilization: 0.0,
                makespan_s: 0.0,
            },
            per_tenant_grant: cfg.tenants.iter().map(|t| cfg.grant_nodes(t)).collect(),
        };
        for &ri in &order {
            let t = requests[ri as usize].arrive_s;
            svc.events.push(t, Event::Arrival(ri));
        }
        svc.run();
        svc.finish()
    }))
}

impl<'a> Service<'a, '_> {
    fn tasks_of(&self, req: u32) -> u64 {
        let s = &self.reqs[req as usize].spec;
        (s.maps.len() + s.reduces.len()) as u64
    }

    fn run(&mut self) {
        while let Some((time, event)) = self.events.pop() {
            self.now = time;
            match event {
                Event::Arrival(ri) => self.arrival(ri),
                Event::Finish(run) => self.finish_job(run),
            }
            self.dispatch();
        }
    }

    /// Admission control: bounds first, then per-job config validation
    /// against the grant. Rejections are recorded, never panic.
    fn arrival(&mut self, ri: u32) {
        let req = &self.reqs[ri as usize];
        let ti = req.tenant as usize;
        let ac = &self.cfg.admission;
        let job_cfg = self.job_config(ri);
        let reject_reason = if ac.max_queue_per_tenant != 0
            && self.queues[ti].len() as u32 >= ac.max_queue_per_tenant
        {
            Some(format!(
                "tenant queue full ({} jobs waiting, bound {})",
                self.queues[ti].len(),
                ac.max_queue_per_tenant
            ))
        } else if ac.max_outstanding_tasks != 0
            && self.outstanding_tasks + self.tasks_of(ri) > ac.max_outstanding_tasks
        {
            Some(format!(
                "outstanding-task bound exceeded ({} held + {} new > {})",
                self.outstanding_tasks,
                self.tasks_of(ri),
                ac.max_outstanding_tasks
            ))
        } else {
            // Validate the job's effective config against its grant, and
            // its spec — the fail-fast the single-job path gets from
            // `simulate`'s panic, delivered here as a rejection.
            job_cfg
                .validate()
                .and_then(|()| req.spec.validate())
                .err()
                .map(|e| e.to_string())
        };
        if let Some(reason) = reject_reason {
            self.tracer.instant(
                Category::Service,
                format!("reject {}", req.spec.name),
                u32::MAX,
                req.tenant,
                self.now,
                vec![("reason", reason.as_str().into())],
            );
            self.out.rejections.push(Rejection {
                name: req.spec.name.clone(),
                tenant: req.tenant,
                arrive_s: req.arrive_s,
                reason,
            });
            return;
        }
        self.tracer.instant(
            Category::Service,
            format!("admit {}", req.spec.name),
            u32::MAX,
            req.tenant,
            self.now,
            vec![("queued", self.queues[ti].len().into())],
        );
        self.outstanding_tasks += self.tasks_of(ri);
        self.queues[ti].push_back(ri);
        // The inner run is a pure function of (grant, spec, faults), so it
        // may start now, on any thread; `launch` takes its result.
        self.inner
            .submit(ri as usize, move || simulate(&job_cfg, &req.spec));
    }

    /// The effective `ClusterConfig` for a request: the shared cluster
    /// narrowed to the tenant's grant, carrying the job's fault plan.
    fn job_config(&self, ri: u32) -> ClusterConfig {
        let req = &self.reqs[ri as usize];
        let mut c = self.cfg.cluster.clone();
        c.num_slaves = self.per_tenant_grant[req.tenant as usize];
        c.faults = req.faults.clone();
        c
    }

    /// Weighted fair-share dispatch: repeatedly pick the eligible tenant
    /// with the lowest `granted / weight` (ties: lowest index) and
    /// launch its oldest waiting job. A tenant is eligible when it has
    /// a waiting job and the cluster has enough free nodes. Strict FIFO within a tenant — a job too big
    /// for the current free pool blocks that tenant (no bypass), which
    /// bounds every job's wait.
    fn dispatch(&mut self) {
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (ti, ts) in self.cfg.tenants.iter().enumerate() {
                if self.queues[ti].is_empty() {
                    continue;
                }
                let grant = self.per_tenant_grant[ti];
                if grant > self.free_nodes {
                    continue;
                }
                let share = self.granted[ti] as f64 / ts.weight;
                let better = match best {
                    None => true,
                    Some((s, _)) => share < s,
                };
                if better {
                    best = Some((share, ti));
                }
            }
            let Some((_, ti)) = best else { break };
            let ri = self.queues[ti].pop_front().expect("non-empty queue");
            self.launch(ri);
        }
    }

    fn launch(&mut self, ri: u32) {
        let req = &self.reqs[ri as usize];
        let ti = req.tenant as usize;
        let grant = self.per_tenant_grant[ti];
        self.free_nodes -= grant;
        self.granted[ti] += grant;
        self.record_utilization();
        let stats = self.inner.take(ri as usize);
        let finish = self.now + stats.makespan_s;
        self.tracer.instant(
            Category::Service,
            format!("launch {}", req.spec.name),
            u32::MAX,
            req.tenant,
            self.now,
            vec![
                ("grant_nodes", grant.into()),
                ("wait_s", (self.now - req.arrive_s).into()),
            ],
        );
        let run = self.running.len() as u32;
        self.running.push(RunningJob {
            req: ri,
            tenant: req.tenant,
            grant,
            start_s: self.now,
            stats: Some(stats),
        });
        self.events.push(finish, Event::Finish(run));
    }

    fn finish_job(&mut self, run: u32) {
        let rj = &mut self.running[run as usize];
        let stats = rj.stats.take().expect("finish fires once");
        let (ri, tenant, grant, start_s) = (rj.req, rj.tenant, rj.grant, rj.start_s);
        let req = &self.reqs[ri as usize];
        self.free_nodes += grant;
        self.granted[tenant as usize] -= grant;
        self.outstanding_tasks -= self.tasks_of(ri);
        self.record_utilization();
        self.tracer.instant(
            Category::Service,
            format!("finish {}", req.spec.name),
            u32::MAX,
            tenant,
            self.now,
            vec![
                ("latency_s", (self.now - req.arrive_s).into()),
                ("aborted", stats.aborted.into()),
            ],
        );
        self.out.jobs.push(JobOutcome {
            name: req.spec.name.clone(),
            tenant,
            arrive_s: req.arrive_s,
            start_s,
            finish_s: self.now,
            grant_nodes: grant,
            stats,
        });
    }

    fn record_utilization(&mut self) {
        let total = self.cfg.cluster.num_slaves as f64;
        let frac = (self.cfg.cluster.num_slaves - self.free_nodes) as f64 / total;
        // Collapse same-instant breakpoints to the latest value.
        if let Some(last) = self.out.utilization.last_mut() {
            if last.0 == self.now {
                last.1 = frac;
                return;
            }
        }
        self.out.utilization.push((self.now, frac));
    }

    fn finish(mut self) -> ServiceStats {
        self.out.makespan_s = self.out.jobs.iter().map(|j| j.finish_s).fold(0.0, f64::max);
        // Time-weighted mean utilization over [0, makespan].
        if self.out.makespan_s > 0.0 {
            let mut acc = 0.0;
            let mut prev_t = 0.0;
            let mut prev_u = 0.0;
            for &(t, u) in &self.out.utilization {
                let end = t.min(self.out.makespan_s);
                acc += prev_u * (end - prev_t).max(0.0);
                prev_t = end;
                prev_u = u;
            }
            acc += prev_u * (self.out.makespan_s - prev_t).max(0.0);
            self.out.mean_utilization = acc / self.out.makespan_s;
        }
        // Per-tenant SLO summaries.
        for (ti, ts) in self.cfg.tenants.iter().enumerate() {
            let mine: Vec<&JobOutcome> = self
                .out
                .jobs
                .iter()
                .filter(|j| j.tenant as usize == ti)
                .collect();
            let rejected = self
                .out
                .rejections
                .iter()
                .filter(|r| r.tenant as usize == ti)
                .count() as u32;
            let mut waits: Vec<f64> = mine.iter().map(|j| j.wait_s()).collect();
            let mut lats: Vec<f64> = mine.iter().map(|j| j.latency_s()).collect();
            waits.sort_by(f64::total_cmp);
            lats.sort_by(f64::total_cmp);
            let mean = if lats.is_empty() {
                0.0
            } else {
                lats.iter().sum::<f64>() / lats.len() as f64
            };
            self.out.tenants.push(TenantSlo {
                name: ts.name.clone(),
                admitted: mine.len() as u32 + (self.queues[ti].len() as u32),
                rejected,
                completed: mine.len() as u32,
                p50_wait_s: ServiceStats::percentile(&waits, 50.0),
                p99_wait_s: ServiceStats::percentile(&waits, 99.0),
                p50_latency_s: ServiceStats::percentile(&lats, 50.0),
                p99_latency_s: ServiceStats::percentile(&lats, 99.0),
                mean_latency_s: mean,
                busy_slot_s: mine.iter().map(|j| j.stats.busy_slot_seconds()).sum(),
            });
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheduler;

    fn small_service(n: u32) -> ServiceConfig {
        ServiceConfig::single_tenant(ClusterConfig::small(n, Scheduler::GpuFirst))
    }

    fn req(tenant: u32, arrive_s: f64, spec: JobSpec) -> JobRequest {
        JobRequest {
            tenant,
            arrive_s,
            spec,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn single_job_matches_direct_simulate_bitwise() {
        let svc = small_service(4);
        let job = JobSpec::uniform("solo", 12, 4, 2, 3.0, 0.5);
        let direct = simulate(&svc.cluster, &job);
        let stats = run_service(&svc, &[req(0, 0.0, job)]).unwrap();
        assert_eq!(stats.jobs.len(), 1);
        let via = &stats.jobs[0].stats;
        assert_eq!(direct.fingerprint(), via.fingerprint());
        assert_eq!(direct.makespan_s.to_bits(), via.makespan_s.to_bits());
        assert_eq!(
            stats.jobs[0].finish_s.to_bits(),
            direct.makespan_s.to_bits()
        );
    }

    #[test]
    fn whole_cluster_grants_serialize_jobs() {
        let svc = small_service(4);
        let j1 = JobSpec::uniform("a", 8, 4, 2, 2.0, 0.5);
        let j2 = JobSpec::uniform("b", 8, 4, 2, 2.0, 0.5);
        let stats = run_service(&svc, &[req(0, 0.0, j1), req(0, 0.0, j2)]).unwrap();
        assert_eq!(stats.jobs.len(), 2);
        // Same tenant, whole-cluster grants: strictly serial.
        assert!(stats.jobs[1].start_s >= stats.jobs[0].finish_s - 1e-12);
        assert!(stats.jobs[1].wait_s() > 0.0);
    }

    #[test]
    fn sliced_grants_run_concurrently() {
        let mut svc = small_service(8);
        svc.tenants[0].nodes_per_job = 4;
        let j1 = JobSpec::uniform("a", 8, 4, 2, 2.0, 0.5);
        let j2 = JobSpec::uniform("b", 8, 4, 2, 2.0, 0.5);
        let stats = run_service(&svc, &[req(0, 0.0, j1), req(0, 0.0, j2)]).unwrap();
        assert_eq!(stats.jobs.len(), 2);
        assert_eq!(stats.jobs[0].start_s, 0.0);
        assert_eq!(stats.jobs[1].start_s, 0.0);
        assert!((stats.utilization[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fair_share_respects_weights() {
        // Two tenants, 2:1 weights, cluster fits 3 one-node grants.
        let mut svc = ServiceConfig {
            cluster: ClusterConfig::small(3, Scheduler::GpuFirst),
            tenants: vec![
                TenantSpec::new("heavy", 2.0).with_nodes_per_job(1),
                TenantSpec::new("light", 1.0).with_nodes_per_job(1),
            ],
            admission: AdmissionControl::default(),
        };
        svc.cluster.nodes_per_rack = 1;
        let job = |t: u32, i: u32| {
            req(
                t,
                0.0,
                JobSpec::uniform(&format!("t{t}-{i}"), 4, 1, 1, 5.0, 1.0),
            )
        };
        let reqs: Vec<JobRequest> = (0..6).flat_map(|i| [job(0, i), job(1, i)]).collect();
        let stats = run_service(&svc, &reqs).unwrap();
        assert_eq!(stats.jobs.len(), 12);
        // First dispatch round at t=0 grants: heavy (0/2), light (0/1),
        // heavy again (1/2 = 0.5 < light's 1/1).
        let at_zero: Vec<&JobOutcome> = stats.jobs.iter().filter(|j| j.start_s == 0.0).collect();
        let heavy = at_zero.iter().filter(|j| j.tenant == 0).count();
        let light = at_zero.iter().filter(|j| j.tenant == 1).count();
        assert_eq!((heavy, light), (2, 1));
    }

    #[test]
    fn admission_bounds_reject_with_reasons() {
        let mut svc = small_service(2);
        svc.admission.max_queue_per_tenant = 1;
        let job = |i: u32| {
            req(
                0,
                0.0,
                JobSpec::uniform(&format!("j{i}"), 8, 2, 1, 5.0, 1.0),
            )
        };
        // First launches immediately, second queues, third is rejected.
        let stats = run_service(&svc, &[job(0), job(1), job(2)]).unwrap();
        assert_eq!(stats.jobs.len(), 2);
        assert_eq!(stats.rejections.len(), 1);
        assert!(stats.rejections[0].reason.contains("queue full"));

        let mut svc = small_service(2);
        svc.admission.max_outstanding_tasks = 10;
        let stats = run_service(&svc, &[job(0), job(1)]).unwrap();
        assert_eq!(stats.rejections.len(), 1);
        assert!(stats.rejections[0].reason.contains("outstanding-task"));
    }

    #[test]
    fn invalid_per_job_fault_plan_rejects_not_panics() {
        let svc = small_service(4);
        let mut r = req(0, 0.0, JobSpec::uniform("bad", 4, 4, 1, 1.0, 1.0));
        r.faults = FaultPlan::none().with_node_crash(99, 1.0);
        let stats = run_service(&svc, &[r]).unwrap();
        assert!(stats.jobs.is_empty());
        assert_eq!(stats.rejections.len(), 1);
        assert!(stats.rejections[0].reason.contains("out of range"));
    }

    #[test]
    fn service_config_errors_are_descriptive() {
        let mut svc = small_service(4);
        svc.cluster.faults = FaultPlan::none().with_node_crash(0, 1.0);
        let e = run_service(&svc, &[]).unwrap_err();
        assert!(e.to_string().contains("attach faults"), "{e}");

        let mut svc = small_service(4);
        svc.tenants[0].weight = 0.0;
        assert!(run_service(&svc, &[]).is_err());

        let mut svc = small_service(4);
        svc.tenants[0].nodes_per_job = 9;
        assert!(run_service(&svc, &[]).is_err());

        let svc = small_service(4);
        let e = run_service(
            &svc,
            &[req(5, 0.0, JobSpec::uniform("x", 1, 4, 1, 1.0, 1.0))],
        )
        .unwrap_err();
        assert!(e.to_string().contains("tenant 5 out of range"), "{e}");
    }

    #[test]
    fn workload_generator_is_deterministic_and_shaped() {
        let svc = small_service(4);
        let w = WorkloadConfig {
            seed: 42,
            num_jobs: 50,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.5 },
            transient_fail_p: 0.0,
        };
        let a = generate_workload(&w, &svc);
        let b = generate_workload(&w, &svc);
        assert_eq!(a.len(), 50);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Arrivals strictly increase; shapes are non-trivial.
        for win in a.windows(2) {
            assert!(win[1].arrive_s > win[0].arrive_s);
        }
        assert!(a.iter().all(|r| !r.spec.maps.is_empty()));
        let w2 = WorkloadConfig { seed: 43, ..w };
        let c = generate_workload(&w2, &svc);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn replay_is_deterministic() {
        let mut svc = small_service(6);
        svc.tenants = vec![
            TenantSpec::new("a", 2.0).with_nodes_per_job(3),
            TenantSpec::new("b", 1.0).with_nodes_per_job(2),
        ];
        let w = WorkloadConfig {
            seed: 11,
            num_jobs: 30,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.2 },
            transient_fail_p: 0.05,
        };
        let jobs = generate_workload(&w, &svc);
        let s1 = run_service(&svc, &jobs).unwrap();
        let s2 = run_service(&svc, &jobs).unwrap();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(s1.jobs.len() + s1.rejections.len(), 30);
    }

    #[test]
    fn metrics_snapshot_has_tenant_keys() {
        let svc = small_service(4);
        let job = JobSpec::uniform("m", 4, 4, 1, 1.0, 0.5);
        let stats = run_service(&svc, &[req(0, 0.0, job)]).unwrap();
        let m = stats.metrics();
        assert_eq!(
            m.get("service.jobs_completed"),
            Some(&hetero_trace::json::Json::U64(1))
        );
        assert!(m.get("tenant.default.p99_latency_s").is_some());
        assert!(m.get("tenant.default.busy_slot_s").is_some());
    }

    #[test]
    fn tracing_is_pure_observation() {
        let svc = small_service(4);
        let w = WorkloadConfig {
            seed: 3,
            num_jobs: 10,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.5 },
            transient_fail_p: 0.0,
        };
        let jobs = generate_workload(&w, &svc);
        let plain = run_service(&svc, &jobs).unwrap();
        let tracer = Tracer::new();
        let traced = run_service_traced(&svc, &jobs, &tracer, &ParallelRunner::new(2)).unwrap();
        assert_eq!(plain.fingerprint(), traced.fingerprint());
        let events = tracer.events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.cat == Category::Service));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(ServiceStats::percentile(&v, 50.0), 50.0);
        assert_eq!(ServiceStats::percentile(&v, 99.0), 99.0);
        assert_eq!(ServiceStats::percentile(&v, 100.0), 100.0);
        assert_eq!(ServiceStats::percentile(&[7.0], 99.0), 7.0);
        assert_eq!(ServiceStats::percentile(&[], 50.0), 0.0);
    }
}
