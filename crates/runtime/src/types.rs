//! Core MapReduce types: the user-function traits (mapper / combiner /
//! reducer), the emission interface, operation counting, and the default
//! partitioner.

/// Abstract operation counts a user function performs per record — the
/// currency both the GPU cycle model and the CPU time model charge in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Plain ALU operations.
    pub alu: u64,
    /// Special-function operations (exp/log/sqrt/div).
    pub sfu: u64,
}

impl OpCount {
    /// Convenience constructor.
    pub fn new(alu: u64, sfu: u64) -> Self {
        OpCount { alu, sfu }
    }
}

impl std::ops::Add for OpCount {
    type Output = OpCount;
    fn add(self, o: OpCount) -> OpCount {
        OpCount {
            alu: self.alu + o.alu,
            sfu: self.sfu + o.sfu,
        }
    }
}

impl std::ops::AddAssign for OpCount {
    fn add_assign(&mut self, o: OpCount) {
        self.alu += o.alu;
        self.sfu += o.sfu;
    }
}

/// Sink for KV pairs plus cost-charging hooks. The GPU map kernel hands
/// mappers an emitter that writes into the thread's global-KV-store region
/// and charges warp-lane cycles; the CPU path hands one that appends to a
/// buffer and accumulates time.
pub trait Emit {
    /// Emit one key/value pair. Returns `false` when the underlying store
    /// is full (the GPU thread must then stop stealing records).
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool;

    /// Charge compute performed by the user function.
    fn charge(&mut self, ops: OpCount);

    /// Charge a read of `bytes` from shared read-only data (placed in
    /// texture/constant/global memory per the directive clauses).
    fn read_ro(&mut self, bytes: u64);
}

/// The collecting emitter: buffers every pair, each as its own two
/// `Vec`s, and accumulates the charges. The CPU task path combines into
/// one (it maps into a one-buffer arena of its own); tests use it to look
/// at what a mapper or combiner emitted.
#[derive(Debug, Default)]
pub struct VecEmit {
    /// Emitted pairs, in emission order.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Sum of every [`Emit::charge`].
    pub ops: OpCount,
    /// Sum of every [`Emit::read_ro`].
    pub ro_bytes: u64,
}

impl Emit for VecEmit {
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.pairs.push((key.to_vec(), value.to_vec()));
        true
    }
    fn charge(&mut self, ops: OpCount) {
        self.ops += ops;
    }
    fn read_ro(&mut self, bytes: u64) {
        self.ro_bytes += bytes;
    }
}

/// A map function: applied to every record of a fileSplit (paper §2.2).
pub trait Mapper: Sync + Send {
    /// Apply the elementary map operation to one record.
    fn map(&self, record: &[u8], out: &mut dyn Emit);
}

/// A combine function: applied to a *sorted run* of KV pairs of one
/// partition. Implementations must be run-splittable: combining two
/// halves separately and concatenating must be acceptable (the paper
/// trades exact combiner equivalence for parallelism, §4.2 — the final
/// reducer restores the exact result).
pub trait Combiner: Sync + Send {
    /// Combine the sorted `run`; emit (partially) aggregated pairs.
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit);
}

/// A reduce function: receives each key with all its values (CPU only —
/// the paper provides no GPU directives for reduce).
pub trait Reducer: Sync + Send {
    /// Reduce one key group.
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8]));
}

/// Hadoop's default hash partitioner: stable FNV-1a over the key, modulo
/// the reducer count.
pub fn default_partition(key: &[u8], num_reducers: u32) -> u32 {
    if num_reducers <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % num_reducers as u64) as u32
}

/// Trim a fixed-width key slot back to its logical bytes (drop the
/// NUL padding used by fixed-slot storage).
pub fn trim_key(slot: &[u8]) -> &[u8] {
    match slot.iter().position(|&b| b == 0) {
        Some(n) => &slot[..n],
        None => slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcount_arithmetic() {
        let mut a = OpCount::new(3, 1);
        a += OpCount::new(2, 2);
        assert_eq!(a, OpCount::new(5, 3));
        assert_eq!(a + OpCount::new(1, 0), OpCount::new(6, 3));
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for r in [1u32, 2, 5, 16, 48] {
            for key in [&b"the"[..], b"quick", b"", b"a", b"zzzz"] {
                let p = default_partition(key, r);
                assert!(p < r);
                assert_eq!(p, default_partition(key, r), "must be deterministic");
            }
        }
    }

    #[test]
    fn partitioner_spreads_keys() {
        let n = 16u32;
        let mut hit = vec![false; n as usize];
        for i in 0..200 {
            let key = format!("key-{i}");
            hit[default_partition(key.as_bytes(), n) as usize] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() >= 12, "poor spread");
    }

    #[test]
    fn trim_key_strips_padding() {
        assert_eq!(trim_key(b"abc\0\0\0"), b"abc");
        assert_eq!(trim_key(b"abc"), b"abc");
        assert_eq!(trim_key(b"\0\0"), b"");
    }
}
