//! The HDFS namespace and block store.
//!
//! For simulation purposes a single structure plays the roles of NameNode
//! (path → block list, replica placement) and the DataNodes' storage
//! (block id → per-replica bytes). Placement follows Hadoop's default
//! policy: the first replica on a "writer" node chosen round-robin, the
//! second on a different rack, the third on the second replica's rack.
//!
//! Reads are checksum-verified per replica: a CRC-32 mismatch fails the
//! read over to the next replica, the bad replica is dropped from the
//! block map, and the block is re-replicated from a healthy copy,
//! mirroring Hadoop's corrupt-replica handling. A node crash is not
//! modelled here; the cluster simulator's `FaultPlan` models it.

use crate::checksum::crc32;
use crate::error::HdfsError;
use crate::topology::{NodeId, Topology};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifier of a stored block (a fileSplit is one block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Metadata of one fileSplit: which slice of the file it holds and where
/// its replicas live.
#[derive(Debug, Clone)]
pub struct FileSplit {
    /// Block id.
    pub id: BlockId,
    /// Owning file path.
    pub path: String,
    /// Index of this split within the file.
    pub index: u32,
    /// Byte offset of the split within the logical file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Nodes holding a replica.
    pub replicas: Vec<NodeId>,
    /// CRC-32 of the block contents.
    pub checksum: u32,
}

/// Filesystem health counters (fault-recovery observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdfsHealth {
    /// Replica reads rejected by the CRC-32 check.
    pub checksum_events: u64,
    /// Replicas copied to restore the replication factor.
    pub re_replications: u64,
    /// Reads served by a non-first replica (bad primary).
    pub failovers: u64,
}

#[derive(Debug, Default)]
struct Inner {
    files: BTreeMap<String, Vec<BlockId>>,
    splits: HashMap<BlockId, FileSplit>,
    /// Per-replica stored bytes; healthy replicas of one block share a
    /// single buffer.
    data: HashMap<BlockId, HashMap<NodeId, Arc<[u8]>>>,
    checksum_events: u64,
    re_replications: u64,
    failovers: u64,
    next_block: u64,
}

/// The simulated distributed filesystem.
#[derive(Debug)]
pub struct Hdfs {
    topology: Topology,
    block_size: u64,
    replication: u32,
    inner: RwLock<Inner>,
}

impl Hdfs {
    /// Create a filesystem over `topology` with the given block size and
    /// replication factor (Table 3: 256 MB blocks; replication 3 on
    /// Cluster1, 1 on Cluster2).
    pub fn new(topology: Topology, block_size: u64, replication: u32) -> Result<Self, HdfsError> {
        if replication == 0 || replication > topology.num_nodes() {
            return Err(HdfsError::BadReplication(replication));
        }
        assert!(block_size > 0);
        Ok(Hdfs {
            topology,
            block_size,
            replication,
            inner: RwLock::new(Inner::default()),
        })
    }

    /// Lock the namespace for reading. The critical sections in this
    /// file panic only on a broken internal invariant (a listed block
    /// without its split), never on input, so the lock is never poisoned.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("namespace lock poisoned")
    }

    /// Lock the namespace for writing; see [`Hdfs::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("namespace lock poisoned")
    }

    /// Cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Configured replication factor.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Write a new file, splitting `contents` into blocks and placing
    /// replicas. HDFS files are write-once; rewriting a path is an error.
    pub fn put(&self, path: &str, contents: &[u8]) -> Result<Vec<FileSplit>, HdfsError> {
        let mut inner = self.write();
        if inner.files.contains_key(path) {
            return Err(HdfsError::AlreadyExists(path.to_string()));
        }
        let n_nodes = self.topology.num_nodes();
        let mut ids = Vec::new();
        let mut splits_out = Vec::new();
        let chunks: Vec<&[u8]> = if contents.is_empty() {
            vec![&[][..]]
        } else {
            contents.chunks(self.block_size as usize).collect()
        };
        for (i, chunk) in chunks.iter().enumerate() {
            let id = BlockId(inner.next_block);
            inner.next_block += 1;
            // Default placement: writer node round-robin by block id,
            // then spread across racks.
            let first = NodeId((id.0 as u32).wrapping_mul(2654435761) % n_nodes);
            let replicas = self.place_replicas(first);
            let bytes: Arc<[u8]> = Arc::from(*chunk);
            let split = FileSplit {
                id,
                path: path.to_string(),
                index: i as u32,
                offset: i as u64 * self.block_size,
                len: chunk.len() as u64,
                replicas: replicas.clone(),
                checksum: crc32(chunk),
            };
            let copies: HashMap<NodeId, Arc<[u8]>> =
                replicas.iter().map(|&r| (r, bytes.clone())).collect();
            inner.data.insert(id, copies);
            inner.splits.insert(id, split.clone());
            ids.push(id);
            splits_out.push(split);
        }
        inner.files.insert(path.to_string(), ids);
        Ok(splits_out)
    }

    fn place_replicas(&self, first: NodeId) -> Vec<NodeId> {
        let n = self.topology.num_nodes();
        let first_rack = self.topology.rack_of(first);
        let mut replicas = vec![first];
        // Second replica: first node found on a different rack.
        if self.replication >= 2 {
            let second = (0..n)
                .map(|k| NodeId((first.0 + 1 + k) % n))
                .find(|c| !replicas.contains(c) && self.topology.rack_of(*c) != first_rack);
            if let Some(s) = second {
                replicas.push(s);
            }
        }
        // Remaining replicas: same rack as the second when possible.
        while (replicas.len() as u32) < self.replication {
            let anchor = *replicas.last().unwrap();
            let anchor_rack = self.topology.rack_of(anchor);
            let next = (0..n)
                .map(|k| NodeId((anchor.0 + 1 + k) % n))
                .find(|c| !replicas.contains(c) && self.topology.rack_of(*c) == anchor_rack)
                .or_else(|| {
                    (0..n)
                        .map(|k| NodeId((anchor.0 + 1 + k) % n))
                        .find(|c| !replicas.contains(c))
                });
            match next {
                Some(nx) => replicas.push(nx),
                None => break,
            }
        }
        replicas
    }

    /// All fileSplits of a file, in order.
    pub fn splits(&self, path: &str) -> Result<Vec<FileSplit>, HdfsError> {
        let inner = self.read();
        let ids = inner
            .files
            .get(path)
            .ok_or_else(|| HdfsError::FileNotFound(path.to_string()))?;
        Ok(ids.iter().map(|id| inner.splits[id].clone()).collect())
    }

    /// Read one block with per-replica CRC-32 verification.
    ///
    /// Replicas are tried in placement order: a checksum mismatch drops
    /// the bad replica and fails over to the next one, and a successful
    /// read re-replicates the block if the replication factor degraded.
    /// Errors only when no healthy replica remains.
    pub fn read_block(&self, id: BlockId) -> Result<Arc<[u8]>, HdfsError> {
        let mut inner = self.write();
        let split = inner
            .splits
            .get(&id)
            .ok_or(HdfsError::BlockMissing(id.0))?
            .clone();
        let mut bad: Vec<NodeId> = Vec::new();
        let mut last_corrupt: Option<HdfsError> = None;
        let mut healthy: Option<(NodeId, Arc<[u8]>)> = None;
        for (i, &r) in split.replicas.iter().enumerate() {
            let Some(bytes) = inner.data.get(&id).and_then(|m| m.get(&r)).cloned() else {
                continue;
            };
            let actual = crc32(&bytes);
            if actual != split.checksum {
                // Corrupt replica: record, drop it, fail over.
                inner.checksum_events += 1;
                if i == 0 {
                    inner.failovers += 1;
                }
                bad.push(r);
                last_corrupt = Some(HdfsError::ChecksumMismatch {
                    block: id.0,
                    expected: split.checksum,
                    actual,
                });
                continue;
            }
            healthy = Some((r, bytes));
            break;
        }
        // Drop corrupt replicas from the block map.
        if !bad.is_empty() {
            if let Some(s) = inner.splits.get_mut(&id) {
                s.replicas.retain(|r| !bad.contains(r));
            }
            if let Some(m) = inner.data.get_mut(&id) {
                for r in &bad {
                    m.remove(r);
                }
            }
        }
        match healthy {
            Some((source, bytes)) => {
                self.re_replicate(&mut inner, id, source, &bytes);
                Ok(bytes)
            }
            None => Err(last_corrupt.unwrap_or(HdfsError::AllReplicasLost(id.0))),
        }
    }

    /// Restore the replication factor of `id` by copying `bytes` from
    /// `source` onto nodes that hold no replica.
    fn re_replicate(&self, inner: &mut Inner, id: BlockId, source: NodeId, bytes: &Arc<[u8]>) {
        let n = self.topology.num_nodes();
        loop {
            let Some(split) = inner.splits.get(&id) else {
                return;
            };
            if split.replicas.len() as u32 >= self.replication {
                return;
            }
            let target = (0..n)
                .map(|k| NodeId((source.0 + 1 + k) % n))
                .find(|c| !split.replicas.contains(c));
            let Some(t) = target else { return };
            inner.splits.get_mut(&id).unwrap().replicas.push(t);
            inner.data.entry(id).or_default().insert(t, bytes.clone());
            inner.re_replications += 1;
        }
    }

    /// Read an entire file back.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, HdfsError> {
        let splits = self.splits(path)?;
        let mut out = Vec::with_capacity(splits.iter().map(|s| s.len as usize).sum());
        for s in splits {
            out.extend_from_slice(&self.read_block(s.id)?);
        }
        Ok(out)
    }

    /// Whether the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.read().files.contains_key(path)
    }

    /// List paths with the given prefix (job output directories).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.read()
            .files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Corrupt one replica of a block (fault injection for checksum
    /// tests). Defaults to the first replica; reads recover from the
    /// others.
    pub fn corrupt_block(&self, id: BlockId) -> Result<(), HdfsError> {
        let first = {
            let inner = self.read();
            let split = inner.splits.get(&id).ok_or(HdfsError::BlockMissing(id.0))?;
            *split
                .replicas
                .first()
                .ok_or(HdfsError::AllReplicasLost(id.0))?
        };
        self.corrupt_replica(id, first)
    }

    /// Corrupt a specific replica of a block.
    pub fn corrupt_replica(&self, id: BlockId, node: NodeId) -> Result<(), HdfsError> {
        let mut inner = self.write();
        let copies = inner
            .data
            .get_mut(&id)
            .ok_or(HdfsError::BlockMissing(id.0))?;
        let bytes = copies.get(&node).ok_or(HdfsError::UnknownNode(node.0))?;
        let mut v = bytes.to_vec();
        if v.is_empty() {
            v.push(0xFF);
        } else {
            v[0] ^= 0xFF;
        }
        copies.insert(node, Arc::from(v));
        Ok(())
    }

    /// Fault-recovery health counters.
    pub fn health(&self) -> HdfsHealth {
        let inner = self.read();
        HdfsHealth {
            checksum_events: inner.checksum_events,
            re_replications: inner.re_replications,
            failovers: inner.failovers,
        }
    }

    /// Total bytes stored across every replica.
    pub fn used_bytes(&self) -> u64 {
        self.read()
            .data
            .values()
            .flat_map(|m| m.values())
            .map(|d| d.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Locality;
    use std::collections::HashSet;

    fn fs() -> Hdfs {
        Hdfs::new(Topology::new(8, 4), 100, 3).unwrap()
    }

    #[test]
    fn put_splits_into_blocks() {
        let fs = fs();
        let data: Vec<u8> = (0..250u32).map(|i| (i % 251) as u8).collect();
        let splits = fs.put("/in/f1", &data).unwrap();
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].len, 100);
        assert_eq!(splits[2].len, 50);
        assert_eq!(splits[1].offset, 100);
        assert_eq!(fs.read_file("/in/f1").unwrap(), data);
    }

    #[test]
    fn replication_factor_respected_and_cross_rack() {
        let fs = fs();
        let splits = fs.put("/in/f", &[1u8; 300]).unwrap();
        for s in &splits {
            assert_eq!(s.replicas.len(), 3);
            let racks: HashSet<_> = s
                .replicas
                .iter()
                .map(|&r| fs.topology().rack_of(r))
                .collect();
            assert!(
                racks.len() >= 2,
                "replicas should span racks: {:?}",
                s.replicas
            );
        }
    }

    #[test]
    fn write_once_semantics() {
        let fs = fs();
        fs.put("/x", b"abc").unwrap();
        assert!(matches!(
            fs.put("/x", b"def"),
            Err(HdfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_file_errors() {
        let fs = fs();
        assert!(matches!(
            fs.splits("/nope"),
            Err(HdfsError::FileNotFound(_))
        ));
    }

    #[test]
    fn corrupt_replica_fails_over_and_heals() {
        let fs = fs();
        let splits = fs.put("/f", b"some data here").unwrap();
        let id = splits[0].id;
        fs.corrupt_block(id).unwrap();
        // The read survives via the second replica...
        assert_eq!(&fs.read_block(id).unwrap()[..], b"some data here");
        let h = fs.health();
        assert_eq!(h.checksum_events, 1);
        assert_eq!(h.failovers, 1);
        // ...and the bad replica was replaced to restore the factor.
        assert_eq!(h.re_replications, 1);
        let healed = fs.splits("/f").unwrap();
        assert_eq!(healed[0].replicas.len(), 3);
        assert!(!healed[0].replicas.contains(&splits[0].replicas[0]));
        // Subsequent reads are clean.
        assert_eq!(&fs.read_block(id).unwrap()[..], b"some data here");
        assert_eq!(fs.health().checksum_events, 1);
    }

    #[test]
    fn all_replicas_corrupt_is_an_error() {
        let fs = fs();
        let splits = fs.put("/f", b"doomed").unwrap();
        let id = splits[0].id;
        for &r in &splits[0].replicas {
            fs.corrupt_replica(id, r).unwrap();
        }
        assert!(matches!(
            fs.read_block(id),
            Err(HdfsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn locality_of_splits_queryable() {
        let fs = fs();
        let splits = fs.put("/f", &[0u8; 500]).unwrap();
        for s in &splits {
            let local = s.replicas[0];
            assert_eq!(
                fs.topology().locality(local, &s.replicas),
                Locality::NodeLocal
            );
        }
    }

    #[test]
    fn list_by_prefix() {
        let fs = fs();
        fs.put("/out/part-0000", b"a").unwrap();
        fs.put("/out/part-0001", b"b").unwrap();
        fs.put("/other", b"c").unwrap();
        let mut l = fs.list("/out/");
        l.sort();
        assert_eq!(l, vec!["/out/part-0000", "/out/part-0001"]);
    }

    #[test]
    fn empty_file_is_one_empty_block() {
        let fs = fs();
        let splits = fs.put("/empty", b"").unwrap();
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].len, 0);
        assert_eq!(fs.read_file("/empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bad_replication_rejected() {
        assert!(matches!(
            Hdfs::new(Topology::new(2, 2), 100, 0),
            Err(HdfsError::BadReplication(0))
        ));
        assert!(matches!(
            Hdfs::new(Topology::new(2, 2), 100, 5),
            Err(HdfsError::BadReplication(5))
        ));
    }

    #[test]
    fn used_bytes_counts_every_replica() {
        let fs = fs();
        fs.put("/f", &[1u8; 100]).unwrap();
        assert_eq!(fs.used_bytes(), 300); // 100 bytes x 3 replicas
    }
}
