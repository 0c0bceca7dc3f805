//! The reduce task: merge the sorted map-output partitions arriving from
//! every map task (the *sort phase*), group values by key, and apply the
//! user's reduce function (the *reduce phase*). HeteroDoop runs reducers
//! on CPUs only (paper §3.1: partition-level parallelism is too narrow
//! for the GPU).

use crate::cpu::CpuCostModel;
use crate::task::TaskEnv;
use crate::types::{trim_key, Reducer};

/// Result of one reduce task.
#[derive(Debug)]
pub struct ReduceTaskResult {
    /// Reduced `(key, value)` output, key-sorted.
    pub output: Vec<(Vec<u8>, Vec<u8>)>,
    /// Simulated execution time: shuffle-merge + reduce + output write.
    pub time_s: f64,
    /// Distinct keys reduced.
    pub groups: usize,
}

/// Run one reduce task over the partition's inputs from every map task.
///
/// `inputs` is one `Vec<(key, value)>` per map task, each key-sorted (as
/// map tasks emit them). They are k-way merged, grouped, and reduced.
pub fn run_reduce_task(
    env: &TaskEnv,
    model: &CpuCostModel,
    inputs: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    reducer: &dyn Reducer,
) -> ReduceTaskResult {
    // --- Sort phase: k-way merge of the sorted runs. ---
    let total_pairs: usize = inputs.iter().map(|v| v.len()).sum();
    let in_bytes: u64 = inputs
        .iter()
        .flatten()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum();
    let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(total_pairs);
    for run in inputs {
        merged.extend(run);
    }
    // A real merge is O(n log k); a sort is the simplest stable stand-in
    // (the cost model charges merge-class work, not sort-class).
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let k_ways: f64 = 16.0;
    let merge_time =
        total_pairs as f64 * k_ways.log2() * 8.0 * model.alu_s + in_bytes as f64 * model.byte_s;

    // --- Reduce phase: group by key and apply the reduce function. ---
    let mut output: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut groups = 0usize;
    let mut i = 0usize;
    let mut reduce_ops = 0u64;
    while i < merged.len() {
        let key = trim_key(&merged[i].0).to_vec();
        let mut j = i;
        while j < merged.len() && trim_key(&merged[j].0) == key.as_slice() {
            j += 1;
        }
        let values: Vec<&[u8]> = merged[i..j].iter().map(|(_, v)| v.as_slice()).collect();
        reduce_ops += (j - i) as u64 * 6 + key.len() as u64;
        reducer.reduce(&key, &values, &mut |k, v| {
            output.push((k.to_vec(), v.to_vec()));
        });
        groups += 1;
        i = j;
    }
    let reduce_time = reduce_ops as f64 * model.alu_s;

    // --- Output write to HDFS (replicated). ---
    let out_bytes: u64 = output
        .iter()
        .map(|(k, v)| (k.len() + v.len() + 8) as u64)
        .sum();
    let write_time =
        env.io_latency_s + out_bytes as f64 / env.format_bw + out_bytes as f64 / env.write_bw;

    ReduceTaskResult {
        output,
        time_s: merge_time + reduce_time + write_time,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Reducer;

    struct SumReduce;
    impl Reducer for SumReduce {
        fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8])) {
            let total: i64 = values
                .iter()
                .map(|v| {
                    String::from_utf8_lossy(trim_key(v))
                        .trim()
                        .parse::<i64>()
                        .unwrap_or(0)
                })
                .sum();
            out(key, total.to_string().as_bytes());
        }
    }

    fn kv(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn merges_runs_from_multiple_maps_and_reduces_exactly() {
        let inputs = vec![
            vec![kv("apple", "2"), kv("pear", "1")],
            vec![kv("apple", "3"), kv("plum", "4")],
            vec![kv("pear", "5")],
        ];
        let r = run_reduce_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            inputs,
            &SumReduce,
        );
        assert_eq!(
            r.output,
            vec![kv("apple", "5"), kv("pear", "6"), kv("plum", "4")]
        );
        assert_eq!(r.groups, 3);
        assert!(r.time_s > 0.0);
    }

    #[test]
    fn padded_keys_group_together() {
        // Fixed-slot GPU output pads keys with NULs; grouping must trim.
        let inputs = vec![vec![
            (b"word\0\0".to_vec(), b"1".to_vec()),
            (b"word".to_vec(), b"2".to_vec()),
        ]];
        let r = run_reduce_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            inputs,
            &SumReduce,
        );
        assert_eq!(r.output.len(), 1);
        assert_eq!(r.output[0].1, b"3".to_vec());
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let r = run_reduce_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            vec![vec![], vec![]],
            &SumReduce,
        );
        assert!(r.output.is_empty());
        assert_eq!(r.groups, 0);
    }
}
