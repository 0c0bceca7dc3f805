//! Cluster configuration (the knobs of the paper's Table 3) and the
//! deterministic fault-injection plan.

/// Which task-placement policy the cluster runs (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Baseline Hadoop: CPUs only, GPUs unused.
    CpuOnly,
    /// Use a free GPU when available, otherwise a CPU slot (§6.1).
    GpuFirst,
    /// Tail scheduling (Algorithm 2): GPU-first until the job/task tail
    /// begins, then force remaining tasks onto the GPU(s).
    TailScheduling,
}

/// A seeded, deterministic plan of faults injected into a simulated run
/// as first-class DES events. The same plan (same seed) reproduces the
/// same schedule, which is what makes recovery costs measurable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions (transient failures pick
    /// their victims and failure points from hashes of this seed).
    pub seed: u64,
    /// `(node, time_s)`: the node crash-stops at `time_s` — no further
    /// heartbeats, all in-flight work and local map outputs lost.
    pub node_crashes: Vec<(u32, f64)>,
    /// Probability that any single map-task attempt dies mid-run with a
    /// transient error (Hadoop: a child JVM exit).
    pub transient_fail_p: f64,
    /// `(node, gpu, time_s)`: the GPU device faults permanently at
    /// `time_s`; the node degrades to its CPU slots.
    pub gpu_faults: Vec<(u32, u32, f64)>,
    /// Map tasks whose first input read hits a corrupt block replica:
    /// the attempt fails fast on the CRC mismatch and the retry reads a
    /// healthy replica (the HDFS-level behavior lives in `hetero-hdfs`;
    /// here only the schedule effect is modeled).
    pub corrupt_task_inputs: Vec<u32>,
    /// `(node, factor)`: map attempts placed on this node run `factor`×
    /// their nominal duration — straggler injection for speculative
    /// execution experiments.
    pub stragglers: Vec<(u32, f64)>,
    /// Times at which the JobTracker crash-stops. While down no
    /// heartbeat is answered, no expiry fires, and TaskTracker reports
    /// (map/reduce completions, failures, GPU faults) are buffered on
    /// the trackers, so its logical state (finished maps and reduces,
    /// failure charges, the blacklist) cannot change and survives the
    /// restart as it was. [`ClusterConfig::jobtracker_recovery_s`]
    /// later, the master restarts, re-registers every alive, reachable
    /// tracker (leases, slot occupancy, the pending queue, speedup
    /// samples), and drains the buffered reports in their original
    /// order.
    pub jobtracker_crashes: Vec<f64>,
    /// `(rack, time_s)`: every node of the rack crash-stops at `time_s`
    /// — correlated failure (rack power loss). Expanded into per-node
    /// crash events at simulation start.
    pub rack_failures: Vec<(u32, f64)>,
    /// `(nodes, start_s, end_s)`: a network partition — heartbeats from
    /// the node set are dropped during the window, so the JobTracker
    /// falsely expires the nodes, loses their in-flight work, and
    /// re-admits them on their first heartbeat after the heal.
    pub partitions: Vec<(Vec<u32>, f64, f64)>,
    /// Per-heartbeat probability that the beat is lost in the network
    /// (drawn deterministically from `seed`, node, and beat number).
    pub heartbeat_loss_p: f64,
    /// Maximum extra delay added to each heartbeat interval, seconds
    /// (uniform jitter drawn deterministically like the loss die).
    pub heartbeat_jitter_s: f64,
}

/// A [`FaultPlan`] that failed validation, with the offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(pub String);

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid FaultPlan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// The empty plan: a perfect cluster.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.transient_fail_p == 0.0
            && self.gpu_faults.is_empty()
            && self.corrupt_task_inputs.is_empty()
            && self.stragglers.is_empty()
            && self.jobtracker_crashes.is_empty()
            && self.rack_failures.is_empty()
            && self.partitions.is_empty()
            && self.heartbeat_loss_p == 0.0
            && self.heartbeat_jitter_s == 0.0
    }

    /// Straggler slowdown factor for `node` (1.0 when not a straggler).
    pub fn straggler_factor(&self, node: u32) -> f64 {
        self.stragglers
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, f)| *f)
            .unwrap_or(1.0)
    }

    // ------------------------------------------------ builder helpers
    //
    // Shared by the sim/reference/differential test setups so fault
    // scenarios are written once instead of as duplicated struct
    // literals.

    /// An empty plan with only the seed set.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add a node crash-stop at `time_s`.
    pub fn with_node_crash(mut self, node: u32, time_s: f64) -> Self {
        self.node_crashes.push((node, time_s));
        self
    }

    /// Set the per-attempt transient failure probability.
    pub fn with_transient_p(mut self, p: f64) -> Self {
        self.transient_fail_p = p;
        self
    }

    /// Add a permanent GPU device fault.
    pub fn with_gpu_fault(mut self, node: u32, gpu: u32, time_s: f64) -> Self {
        self.gpu_faults.push((node, gpu, time_s));
        self
    }

    /// Mark a task's first input read as hitting a corrupt replica.
    pub fn with_corrupt_input(mut self, task: u32) -> Self {
        self.corrupt_task_inputs.push(task);
        self
    }

    /// Make `node` a straggler running map attempts `factor`× slower.
    pub fn with_straggler(mut self, node: u32, factor: f64) -> Self {
        self.stragglers.push((node, factor));
        self
    }

    /// Crash-stop the JobTracker at `time_s`.
    pub fn with_jobtracker_crash(mut self, time_s: f64) -> Self {
        self.jobtracker_crashes.push(time_s);
        self
    }

    /// Crash-stop every node of `rack` at `time_s`.
    pub fn with_rack_failure(mut self, rack: u32, time_s: f64) -> Self {
        self.rack_failures.push((rack, time_s));
        self
    }

    /// Partition `nodes` away from the master during `[start_s, end_s]`.
    pub fn with_partition(mut self, nodes: Vec<u32>, start_s: f64, end_s: f64) -> Self {
        self.partitions.push((nodes, start_s, end_s));
        self
    }

    /// Set the per-heartbeat loss probability.
    pub fn with_heartbeat_loss_p(mut self, p: f64) -> Self {
        self.heartbeat_loss_p = p;
        self
    }

    /// Set the maximum per-heartbeat jitter in seconds.
    pub fn with_heartbeat_jitter_s(mut self, s: f64) -> Self {
        self.heartbeat_jitter_s = s;
        self
    }

    // ------------------------------------------------------ validation

    /// Validate the plan against the cluster it will run on. Called by
    /// both simulators at start; rejects out-of-range node/rack/GPU ids,
    /// non-finite or negative times, probabilities outside [0, 1],
    /// non-positive straggler factors, inverted partition windows, and
    /// duplicate crashes for the same node — each with a descriptive
    /// error naming the offending entry, instead of the former silent
    /// no-op/panic-later behavior.
    pub fn validate(
        &self,
        num_slaves: u32,
        num_racks: u32,
        gpus_per_node: u32,
    ) -> Result<(), FaultPlanError> {
        let err = |msg: String| Err(FaultPlanError(msg));
        let finite_time = |what: &str, t: f64| -> Result<(), FaultPlanError> {
            if !t.is_finite() || t < 0.0 {
                return Err(FaultPlanError(format!(
                    "{what}: time {t} must be finite and non-negative"
                )));
            }
            Ok(())
        };
        let mut crashed = std::collections::HashSet::new();
        for &(n, t) in &self.node_crashes {
            if n >= num_slaves {
                return err(format!(
                    "node_crashes: node {n} out of range (cluster has {num_slaves} slaves)"
                ));
            }
            finite_time(&format!("node_crashes[node {n}]"), t)?;
            if !crashed.insert(n) {
                return err(format!("node_crashes: duplicate crash for node {n}"));
            }
        }
        for &(r, t) in &self.rack_failures {
            if r >= num_racks {
                return err(format!(
                    "rack_failures: rack {r} out of range (cluster has {num_racks} racks)"
                ));
            }
            finite_time(&format!("rack_failures[rack {r}]"), t)?;
        }
        for &(n, g, t) in &self.gpu_faults {
            if n >= num_slaves {
                return err(format!("gpu_faults: node {n} out of range"));
            }
            if g >= gpus_per_node.max(1) {
                return err(format!(
                    "gpu_faults: gpu {g} out of range on node {n} ({gpus_per_node} per node)"
                ));
            }
            finite_time(&format!("gpu_faults[node {n} gpu {g}]"), t)?;
        }
        for &(n, f) in &self.stragglers {
            if n >= num_slaves {
                return err(format!("stragglers: node {n} out of range"));
            }
            if !f.is_finite() || f <= 0.0 {
                return err(format!(
                    "stragglers: node {n} factor {f} must be finite and positive"
                ));
            }
        }
        for &t in &self.jobtracker_crashes {
            finite_time("jobtracker_crashes", t)?;
        }
        for (i, (nodes, start, end)) in self.partitions.iter().enumerate() {
            for &n in nodes {
                if n >= num_slaves {
                    return err(format!("partitions[{i}]: node {n} out of range"));
                }
            }
            finite_time(&format!("partitions[{i}] start"), *start)?;
            finite_time(&format!("partitions[{i}] end"), *end)?;
            if end < start {
                return err(format!(
                    "partitions[{i}]: window [{start}, {end}] ends before it starts"
                ));
            }
        }
        for (what, p) in [
            ("transient_fail_p", self.transient_fail_p),
            ("heartbeat_loss_p", self.heartbeat_loss_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return err(format!("{what}: probability {p} must be within [0, 1]"));
            }
        }
        if self.heartbeat_loss_p >= 1.0 && self.heartbeat_loss_p != 0.0 {
            return err(
                "heartbeat_loss_p: 1.0 silences every tracker forever (no re-registration \
                 can ever arrive); use a probability below 1"
                    .to_string(),
            );
        }
        if !self.heartbeat_jitter_s.is_finite() || self.heartbeat_jitter_s < 0.0 {
            return err(format!(
                "heartbeat_jitter_s: {} must be finite and non-negative",
                self.heartbeat_jitter_s
            ));
        }
        Ok(())
    }
}

/// Static cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of slave nodes (the master is implicit).
    pub num_slaves: u32,
    /// Nodes per rack (for locality accounting).
    pub nodes_per_rack: u32,
    /// Map slots per node — one per CPU core in the paper's setups
    /// (20 on Cluster1, 4 on Cluster2).
    pub map_slots_per_node: u32,
    /// Reduce slots per node (2 in both setups).
    pub reduce_slots_per_node: u32,
    /// GPUs per node; each reserves one extra slot that consumes no CPU
    /// time (§5.1).
    pub gpus_per_node: u32,
    /// Heartbeat interval in seconds.
    pub heartbeat_s: f64,
    /// Task-placement policy.
    pub scheduler: Scheduler,
    /// Fraction of map tasks that must finish before reduce tasks start
    /// (Table 3: 20%).
    pub reduce_start_frac: f64,
    /// Speculative execution (off in the paper's experiments).
    pub speculative: bool,
    /// How far a task's progress must trail the job-average progress
    /// before a speculative backup launches (Hadoop's hardcoded 20%).
    pub speculative_lag: f64,
    /// Shuffle bandwidth per reduce task, bytes/s (InfiniBand-class).
    pub shuffle_bw: f64,
    /// Attempts per map task before the job aborts
    /// (`mapred.map.max.attempts`, Hadoop default 4).
    pub max_attempts: u32,
    /// Seconds without a heartbeat before the JobTracker declares a
    /// TaskTracker dead and blacklists it
    /// (`mapred.tasktracker.expiry.interval`).
    pub heartbeat_timeout_s: f64,
    /// Seconds a crashed JobTracker stays down before it restarts and
    /// re-registers its trackers.
    pub jobtracker_recovery_s: f64,
    /// Injected faults (empty = perfect cluster).
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// A small sane default for tests.
    pub fn small(num_slaves: u32, scheduler: Scheduler) -> Self {
        ClusterConfig {
            num_slaves,
            nodes_per_rack: 4,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            gpus_per_node: 1,
            heartbeat_s: 0.3,
            scheduler,
            reduce_start_frac: 0.2,
            speculative: false,
            speculative_lag: 0.2,
            shuffle_bw: 1e9,
            max_attempts: 4,
            heartbeat_timeout_s: 3.0,
            jobtracker_recovery_s: 2.0,
            faults: FaultPlan::none(),
        }
    }

    /// The Fig. 3 walkthrough cluster: one node, two CPU slots, one 6×
    /// GPU, map-only, fast heartbeats. Shared by the sim unit tests, the
    /// differential suite, and the chaos harness.
    pub fn fig3(scheduler: Scheduler) -> Self {
        let mut cfg = ClusterConfig::small(1, scheduler);
        cfg.nodes_per_rack = 1;
        cfg.reduce_slots_per_node = 0;
        cfg.heartbeat_s = 0.01;
        cfg
    }

    /// Effective GPUs per node (zero under CPU-only scheduling).
    pub fn effective_gpus(&self) -> u32 {
        if self.scheduler == Scheduler::CpuOnly {
            0
        } else {
            self.gpus_per_node
        }
    }

    /// Number of racks the cluster's topology will have.
    pub fn num_racks(&self) -> u32 {
        self.num_slaves.div_ceil(self.nodes_per_rack.max(1))
    }

    /// Validate the configuration (and its embedded [`FaultPlan`])
    /// before a run. Both simulators call this at start; the service
    /// admission path calls it per job and turns an `Err` into a
    /// rejection instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_slaves == 0 {
            return Err(ConfigError("num_slaves must be positive".into()));
        }
        if self.nodes_per_rack == 0 {
            return Err(ConfigError("nodes_per_rack must be positive".into()));
        }
        if !self.heartbeat_s.is_finite() || self.heartbeat_s <= 0.0 {
            return Err(ConfigError(format!(
                "heartbeat_s {} must be finite and positive",
                self.heartbeat_s
            )));
        }
        if !self.heartbeat_timeout_s.is_finite() || self.heartbeat_timeout_s <= 0.0 {
            return Err(ConfigError(format!(
                "heartbeat_timeout_s {} must be finite and positive",
                self.heartbeat_timeout_s
            )));
        }
        // The remaining floats all reach the clock or a scheduling test.
        // A recovery delay the clock cannot absorb leaves the master down
        // for good while the trackers' heartbeats re-arm forever.
        if !self.jobtracker_recovery_s.is_finite() || self.jobtracker_recovery_s < 0.0 {
            return Err(ConfigError(format!(
                "jobtracker_recovery_s {} must be finite and non-negative",
                self.jobtracker_recovery_s
            )));
        }
        if !self.shuffle_bw.is_finite() || self.shuffle_bw <= 0.0 {
            return Err(ConfigError(format!(
                "shuffle_bw {} must be finite and positive",
                self.shuffle_bw
            )));
        }
        if !(0.0..=1.0).contains(&self.reduce_start_frac) {
            return Err(ConfigError(format!(
                "reduce_start_frac {} must be within [0, 1]",
                self.reduce_start_frac
            )));
        }
        if !self.speculative_lag.is_finite() {
            return Err(ConfigError(format!(
                "speculative_lag {} must be finite",
                self.speculative_lag
            )));
        }
        self.faults
            .validate(self.num_slaves, self.num_racks(), self.gpus_per_node)?;
        Ok(())
    }
}

/// A [`ClusterConfig`] that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ClusterConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<FaultPlanError> for ConfigError {
    fn from(e: FaultPlanError) -> Self {
        ConfigError(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_disables_gpus() {
        let mut c = ClusterConfig::small(4, Scheduler::CpuOnly);
        c.gpus_per_node = 3;
        assert_eq!(c.effective_gpus(), 0);
        c.scheduler = Scheduler::GpuFirst;
        assert_eq!(c.effective_gpus(), 3);
    }

    #[test]
    fn fault_plan_emptiness_and_stragglers() {
        let mut p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.straggler_factor(3), 1.0);
        p.stragglers.push((3, 2.5));
        assert!(!p.is_empty());
        assert_eq!(p.straggler_factor(3), 2.5);
        assert_eq!(p.straggler_factor(4), 1.0);
    }

    /// Reject-message helper: validate against a 4-slave, 1-rack,
    /// 2-GPU cluster and return the error text.
    fn reject(p: FaultPlan) -> String {
        p.validate(4, 1, 2)
            .expect_err("plan should be rejected")
            .to_string()
    }

    #[test]
    fn validate_accepts_reasonable_plans() {
        let p = FaultPlan::seeded(7)
            .with_node_crash(0, 5.0)
            .with_node_crash(3, 9.0)
            .with_gpu_fault(1, 1, 2.0)
            .with_corrupt_input(12)
            .with_straggler(2, 3.0)
            .with_jobtracker_crash(4.0)
            .with_rack_failure(0, 8.0)
            .with_partition(vec![1, 2], 1.0, 6.0)
            .with_heartbeat_loss_p(0.2)
            .with_heartbeat_jitter_s(0.1)
            .with_transient_p(0.05);
        assert!(p.validate(4, 1, 2).is_ok());
        assert!(FaultPlan::none().validate(4, 1, 2).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_ids() {
        let msg = reject(FaultPlan::none().with_node_crash(4, 1.0));
        assert!(msg.contains("out of range"), "{msg}");
        assert!(msg.contains("invalid FaultPlan"), "{msg}");
        let msg = reject(FaultPlan::none().with_rack_failure(1, 1.0));
        assert!(msg.contains("out of range"), "{msg}");
        let msg = reject(FaultPlan::none().with_gpu_fault(5, 0, 1.0));
        assert!(msg.contains("out of range"), "{msg}");
        let msg = reject(FaultPlan::none().with_gpu_fault(0, 2, 1.0));
        assert!(msg.contains("gpu 2"), "{msg}");
        let msg = reject(FaultPlan::none().with_straggler(9, 2.0));
        assert!(msg.contains("out of range"), "{msg}");
        let msg = reject(FaultPlan::none().with_partition(vec![0, 7], 0.0, 1.0));
        assert!(msg.contains("node 7"), "{msg}");
    }

    #[test]
    fn validate_rejects_bad_times() {
        for t in [-1.0, f64::NAN, f64::INFINITY] {
            let msg = reject(FaultPlan::none().with_node_crash(0, t));
            assert!(msg.contains("finite and non-negative"), "{msg}");
            let msg = reject(FaultPlan::none().with_jobtracker_crash(t));
            assert!(msg.contains("jobtracker_crashes"), "{msg}");
        }
        let msg = reject(FaultPlan::none().with_partition(vec![0], 5.0, 2.0));
        assert!(msg.contains("ends before it starts"), "{msg}");
    }

    #[test]
    fn validate_rejects_duplicate_node_crash() {
        let msg = reject(
            FaultPlan::none()
                .with_node_crash(1, 2.0)
                .with_node_crash(1, 7.0),
        );
        assert!(msg.contains("duplicate crash for node 1"), "{msg}");
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_factors() {
        let msg = reject(FaultPlan::none().with_transient_p(1.5));
        assert!(msg.contains("within [0, 1]"), "{msg}");
        let msg = reject(FaultPlan::none().with_heartbeat_loss_p(-0.1));
        assert!(msg.contains("within [0, 1]"), "{msg}");
        // Exactly 1.0 passes the range check but would silence every
        // tracker forever — rejected with a dedicated message.
        let msg = reject(FaultPlan::none().with_heartbeat_loss_p(1.0));
        assert!(msg.contains("silences every tracker"), "{msg}");
        let msg = reject(FaultPlan::none().with_straggler(0, 0.0));
        assert!(msg.contains("finite and positive"), "{msg}");
        let msg = reject(FaultPlan::none().with_straggler(0, f64::NAN));
        assert!(msg.contains("finite and positive"), "{msg}");
        let msg = reject(FaultPlan::none().with_heartbeat_jitter_s(-0.5));
        assert!(msg.contains("heartbeat_jitter_s"), "{msg}");
    }

    #[test]
    fn gpu_fault_range_uses_at_least_one_gpu() {
        // A CpuOnly run keeps gpus_per_node in the config; validation is
        // against the physical device count, floored at one.
        let p = FaultPlan::none().with_gpu_fault(0, 0, 1.0);
        assert!(p.validate(4, 1, 0).is_ok());
        assert!(p.validate(4, 1, 2).is_ok());
        let p = FaultPlan::none().with_gpu_fault(0, 1, 1.0);
        assert!(p.validate(4, 1, 0).is_err());
    }

    #[test]
    fn config_validate_covers_cluster_shape_and_faults() {
        assert!(ClusterConfig::small(4, Scheduler::GpuFirst)
            .validate()
            .is_ok());

        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.num_slaves = 0;
        let msg = c.validate().expect_err("0 slaves").to_string();
        assert!(msg.contains("num_slaves"), "{msg}");
        assert!(msg.contains("invalid ClusterConfig"), "{msg}");

        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.nodes_per_rack = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.heartbeat_s = 0.0;
        assert!(c.validate().is_err());
        c.heartbeat_s = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.heartbeat_timeout_s = -1.0;
        assert!(c.validate().is_err());

        // Fault-plan errors surface through the config error.
        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.faults = FaultPlan::none().with_node_crash(9, 1.0);
        let msg = c.validate().expect_err("oob crash").to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }

    /// `small(4, GpuFirst)` with one field set by `edit`; its error text.
    fn reject_config(edit: impl Fn(&mut ClusterConfig)) -> String {
        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        edit(&mut c);
        c.validate().expect_err("config should be rejected").0
    }

    #[test]
    fn validate_rejects_unusable_jobtracker_recovery_s() {
        for v in [f64::INFINITY, f64::NAN, -1.0] {
            let msg = reject_config(|c| c.jobtracker_recovery_s = v);
            assert!(msg.contains("jobtracker_recovery_s"), "{v}: {msg}");
        }
        // An instant restart is legal.
        let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
        c.jobtracker_recovery_s = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unusable_shuffle_bw() {
        for v in [0.0, -1e9, f64::INFINITY, f64::NAN] {
            let msg = reject_config(|c| c.shuffle_bw = v);
            assert!(msg.contains("shuffle_bw"), "{v}: {msg}");
        }
    }

    #[test]
    fn validate_rejects_reduce_start_frac_outside_unit_interval() {
        for v in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let msg = reject_config(|c| c.reduce_start_frac = v);
            assert!(msg.contains("reduce_start_frac"), "{v}: {msg}");
        }
        // Both ends are legal: reduces at once, or only after every map.
        for v in [0.0, 1.0] {
            let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
            c.reduce_start_frac = v;
            assert!(c.validate().is_ok(), "{v}");
        }
    }

    #[test]
    fn validate_rejects_non_finite_speculative_lag() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let msg = reject_config(|c| c.speculative_lag = v);
            assert!(msg.contains("speculative_lag"), "{v}: {msg}");
        }
    }

    /// The hang this closes: with the master down for an infinite (or
    /// NaN) time, heartbeats re-armed forever and `simulate` on 4 nodes /
    /// 40 maps never returned. Now the config is refused before a run.
    #[test]
    fn a_jobtracker_that_never_recovers_is_refused_not_simulated() {
        for v in [f64::INFINITY, f64::NAN] {
            let mut c = ClusterConfig::small(4, Scheduler::GpuFirst);
            c.faults = FaultPlan::none().with_jobtracker_crash(0.5);
            c.jobtracker_recovery_s = v;
            assert!(c.validate().is_err(), "{v}");
            let job = crate::JobSpec::uniform("hang", 40, 4, 2, 2.0, 0.5);
            let panic = std::panic::catch_unwind(|| crate::simulate(&c, &job))
                .expect_err("simulate must fail fast, not run");
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("jobtracker_recovery_s"), "{msg}");
        }
    }

    #[test]
    fn num_racks_matches_topology_rule() {
        let mut c = ClusterConfig::small(9, Scheduler::CpuOnly);
        c.nodes_per_rack = 4;
        assert_eq!(c.num_racks(), 3);
        c.num_slaves = 8;
        assert_eq!(c.num_racks(), 2);
    }

    #[test]
    fn builders_compose_into_one_plan() {
        let p = FaultPlan::seeded(42)
            .with_node_crash(0, 1.0)
            .with_rack_failure(0, 2.0)
            .with_partition(vec![1], 0.5, 3.0)
            .with_jobtracker_crash(1.5)
            .with_heartbeat_loss_p(0.1)
            .with_heartbeat_jitter_s(0.05);
        assert_eq!(p.seed, 42);
        assert_eq!(p.node_crashes, vec![(0, 1.0)]);
        assert_eq!(p.rack_failures, vec![(0, 2.0)]);
        assert_eq!(p.partitions, vec![(vec![1], 0.5, 3.0)]);
        assert_eq!(p.jobtracker_crashes, vec![1.5]);
        assert!(!p.is_empty());
    }
}
