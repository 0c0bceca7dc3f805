//! Job descriptions consumed by the cluster simulator.

use crate::config::ConfigError;
use hetero_hdfs::NodeId;

/// One map task: which nodes hold its fileSplit and how long it takes on
/// each device class. Durations come from the task-level simulators
/// (`hetero-runtime`); the DES only decides *where and when* tasks run.
#[derive(Debug, Clone)]
pub struct MapTaskSpec {
    /// Task id.
    pub id: u32,
    /// Nodes holding a replica of the task's fileSplit.
    pub replicas: Vec<NodeId>,
    /// Duration on one CPU core, seconds.
    pub cpu_s: f64,
    /// Duration on one GPU, seconds.
    pub gpu_s: f64,
    /// Bytes of map output headed for the shuffle.
    pub output_bytes: u64,
}

/// One reduce task.
#[derive(Debug, Clone)]
pub struct ReduceTaskSpec {
    /// Task id.
    pub id: u32,
    /// Pure reduce compute time after the merge, seconds.
    pub compute_s: f64,
}

/// A complete job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Map tasks.
    pub maps: Vec<MapTaskSpec>,
    /// Reduce tasks (empty for map-only jobs like BlackScholes).
    pub reduces: Vec<ReduceTaskSpec>,
}

impl JobSpec {
    /// Uniform job helper: `n` map tasks of fixed durations, replicas
    /// spread round-robin over `num_nodes` (replication `repl`).
    pub fn uniform(name: &str, n: u32, num_nodes: u32, repl: u32, cpu_s: f64, gpu_s: f64) -> Self {
        let nodes = num_nodes.max(1);
        let maps = (0..n)
            .map(|i| MapTaskSpec {
                id: i,
                replicas: (0..repl.max(1))
                    .map(|r| NodeId((i + r * 7) % nodes))
                    .collect(),
                cpu_s,
                gpu_s,
                output_bytes: 1 << 20,
            })
            .collect();
        JobSpec {
            name: name.to_string(),
            maps,
            reduces: Vec::new(),
        }
    }

    /// Check that every duration is finite and non-negative (zero is a
    /// legal duration). The simulator adds durations to its clock: an
    /// infinite one never completes, a negative or NaN one runs the clock
    /// backwards or poisons it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let check = |kind: &str, id: u32, field: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(ConfigError(format!(
                    "job {}: {kind} task {id}: {field} {v} must be finite and non-negative",
                    self.name
                )))
            }
        };
        for m in &self.maps {
            check("map", m.id, "cpu_s", m.cpu_s)?;
            check("map", m.id, "gpu_s", m.gpu_s)?;
        }
        for r in &self.reduces {
            check("reduce", r.id, "compute_s", r.compute_s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_job_shape() {
        let j = JobSpec::uniform("t", 10, 4, 3, 6.0, 1.0);
        assert_eq!(j.maps.len(), 10);
        assert!(j.maps.iter().all(|m| m.replicas.len() == 3));
        assert!(j.maps.iter().all(|m| m.cpu_s == 6.0 && m.gpu_s == 1.0));
    }

    #[test]
    fn uniform_tolerates_zero_nodes() {
        // Regression: `num_nodes = 0` used to divide by zero in the
        // round-robin replica placement.
        let j = JobSpec::uniform("z", 3, 0, 2, 1.0, 1.0);
        assert_eq!(j.maps.len(), 3);
        assert!(j.maps.iter().all(|m| m.replicas.iter().all(|r| r.0 == 0)));
    }
}
