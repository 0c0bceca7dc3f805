//! The two evaluation platforms of the paper's Table 3.

use hetero_cluster::{ClusterConfig, FaultPlan, Scheduler};
use hetero_gpusim::GpuSpec;
use hetero_runtime::cpu::CpuCostModel;
use hetero_runtime::TaskEnv;

/// A complete platform description: cluster layout + node hardware.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Display name.
    pub name: &'static str,
    /// Cluster layout and scheduler knobs.
    pub cluster: ClusterConfig,
    /// GPU model on each node.
    pub gpu: GpuSpec,
    /// Node storage environment.
    pub env: TaskEnv,
    /// CPU-core cost model.
    pub cpu: CpuCostModel,
    /// HDFS block size in bytes (scaled; stands in for 256 MB).
    pub hdfs_block: u64,
    /// HDFS replication factor.
    pub replication: u32,
}

impl Preset {
    /// Cluster1: 48 slaves, 20-core Xeon E5-2680, one Tesla K40 each,
    /// disks, FDR InfiniBand, replication 3 (Table 3).
    pub fn cluster1() -> Self {
        Preset {
            name: "Cluster1",
            cluster: ClusterConfig {
                num_slaves: 48,
                nodes_per_rack: 16,
                map_slots_per_node: 20,
                reduce_slots_per_node: 2,
                gpus_per_node: 1,
                heartbeat_s: 0.3,
                scheduler: Scheduler::GpuFirst,
                reduce_start_frac: 0.2,
                speculative: false,
                speculative_lag: 0.2,
                shuffle_bw: 6e9, // FDR InfiniBand
                max_attempts: 4,
                heartbeat_timeout_s: 3.0,
                jobtracker_recovery_s: 2.0,
                faults: FaultPlan::none(),
            },
            gpu: GpuSpec::tesla_k40(),
            env: TaskEnv::disk(),
            cpu: CpuCostModel::default(),
            hdfs_block: 256 * 1024, // 256 KB stands in for 256 MB
            replication: 3,
        }
    }

    /// Cluster2: 32 slaves, 12-core Xeon X5560, three Tesla M2090 each,
    /// diskless (in-memory), QDR InfiniBand, replication 1 (Table 3).
    pub fn cluster2() -> Self {
        Preset {
            name: "Cluster2",
            cluster: ClusterConfig {
                num_slaves: 32,
                nodes_per_rack: 16,
                map_slots_per_node: 4, // Table 3: max map slots per node
                reduce_slots_per_node: 2,
                gpus_per_node: 3,
                heartbeat_s: 0.3,
                scheduler: Scheduler::GpuFirst,
                reduce_start_frac: 0.2,
                speculative: false,
                speculative_lag: 0.2,
                shuffle_bw: 4e9, // QDR InfiniBand
                max_attempts: 4,
                heartbeat_timeout_s: 3.0,
                jobtracker_recovery_s: 2.0,
                faults: FaultPlan::none(),
            },
            gpu: GpuSpec::tesla_m2090(),
            env: TaskEnv::in_memory(),
            // The X5560 is an older, slower core than the E5-2680.
            cpu: CpuCostModel {
                alu_s: 1.0e-9,
                sfu_s: 28e-9,
                byte_s: 4.2e-9,
                sort_cmp_byte_s: 1.7e-9,
            },
            hdfs_block: 256 * 1024,
            replication: 1,
        }
    }

    /// Render Table 3 ("Cluster Setups Used").
    pub fn table3() -> String {
        use std::fmt::Write;
        let c1 = Preset::cluster1();
        let c2 = Preset::cluster2();
        let mut out = String::new();
        let mut row = |label: &str, a: String, b: String| {
            let _ = writeln!(out, "{label:<28}{a:>22}{b:>22}");
        };
        row("", "Cluster1".into(), "Cluster2".into());
        row(
            "#nodes",
            format!("{} (+1 master)", c1.cluster.num_slaves),
            format!("{} (+1 master)", c2.cluster.num_slaves),
        );
        row("CPU", "Xeon E5-2680".into(), "Xeon X5560".into());
        row(
            "#CPU cores",
            c1.cluster.map_slots_per_node.to_string(),
            "12".into(),
        );
        row(
            "GPU(s)",
            format!("{} (Kepler)", c1.gpu.name),
            format!("3x{} (Fermi)", c2.gpu.name),
        );
        row("Disk", "500GB".into(), "none (in-memory)".into());
        row(
            "Communication",
            "FDR InfiniBand".into(),
            "QDR InfiniBand".into(),
        );
        row(
            "Hadoop Version",
            "1.2.1 (simulated)".into(),
            "1.2.1 (simulated)".into(),
        );
        row(
            "HDFS Block Size",
            "256MB (scaled)".into(),
            "256MB (scaled)".into(),
        );
        row(
            "HDFS Replication",
            c1.replication.to_string(),
            c2.replication.to_string(),
        );
        row(
            "Max Map Slots/Node",
            format!("{} (+1/GPU)", c1.cluster.map_slots_per_node),
            format!("{} (+1/GPU)", c2.cluster.map_slots_per_node),
        );
        row(
            "Max Reduce Slots/Node",
            c1.cluster.reduce_slots_per_node.to_string(),
            c2.cluster.reduce_slots_per_node.to_string(),
        );
        row("Speculative Execution", "Off".into(), "Off".into());
        row("% maps before reduce", "20".into(), "20".into());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_gpusim::Arch;

    #[test]
    fn cluster1_matches_table3() {
        let p = Preset::cluster1();
        assert_eq!(p.cluster.num_slaves, 48);
        assert_eq!(p.cluster.map_slots_per_node, 20);
        assert_eq!(p.cluster.gpus_per_node, 1);
        assert_eq!(p.gpu.arch, Arch::Kepler);
        assert_eq!(p.replication, 3);
        assert!(!p.cluster.speculative);
    }

    #[test]
    fn cluster2_matches_table3() {
        let p = Preset::cluster2();
        assert_eq!(p.cluster.num_slaves, 32);
        assert_eq!(p.cluster.gpus_per_node, 3);
        assert_eq!(p.gpu.arch, Arch::Fermi);
        assert_eq!(p.replication, 1);
        // In-memory: faster IO than Cluster1's disks.
        assert!(p.env.read_bw > Preset::cluster1().env.read_bw);
    }

    #[test]
    fn cluster2_cpu_is_slower() {
        assert!(Preset::cluster2().cpu.alu_s > Preset::cluster1().cpu.alu_s);
    }

    #[test]
    fn table3_renders() {
        let t = Preset::table3();
        assert!(t.contains("48 (+1 master)"));
        assert!(t.contains("Tesla M2090"));
        assert!(t.contains("Speculative Execution"));
    }
}
