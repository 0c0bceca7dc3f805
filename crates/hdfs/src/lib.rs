//! # hetero-hdfs
//!
//! A block-structured distributed-filesystem simulation: the HDFS
//! substrate of the HeteroDoop reproduction.
//!
//! Provides what the rest of the stack needs from Hadoop's storage layer:
//!
//! * files split into fixed-size blocks (**fileSplits**) with configurable
//!   replication, placed across a rack-aware [`Topology`] — the locality
//!   metadata the JobTracker's scheduler consumes;
//! * Hadoop `LineRecordReader` semantics for records spanning split
//!   boundaries ([`reader`]);
//! * a `SequenceFileFormat` codec with CRC-32 checksums ([`seqfile`]) for
//!   intermediate map+combine output;
//! * block-corruption injection with checksum-verified failover and
//!   re-replication for the fault-tolerance experiments (a node crash is
//!   modelled once, by the cluster simulator's `FaultPlan`).

#![warn(missing_docs)]

mod checksum;
mod error;
mod namenode;
pub mod reader;
pub mod seqfile;
mod topology;

pub use checksum::crc32;
pub use error::HdfsError;
pub use namenode::{BlockId, FileSplit, Hdfs, HdfsHealth};
pub use topology::{Locality, NodeId, RackId, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// put → read_file is the identity for any contents and block size.
        #[test]
        fn put_read_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..2000),
            block in 1u64..300,
        ) {
            let fs = Hdfs::new(Topology::new(6, 3), block, 2).unwrap();
            fs.put("/f", &data).unwrap();
            prop_assert_eq!(fs.read_file("/f").unwrap(), data);
        }

        /// SequenceFile encode/decode is the identity.
        #[test]
        fn seqfile_round_trip(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..40),
                 proptest::collection::vec(any::<u8>(), 0..40)),
                0..50)
        ) {
            let enc = seqfile::encode(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
            prop_assert_eq!(seqfile::decode(&enc).unwrap(), pairs);
        }

        /// Splitting a text file at arbitrary block sizes never loses,
        /// duplicates, or reorders records.
        #[test]
        fn split_records_partition_the_file(
            lines in proptest::collection::vec("[a-z]{0,20}", 1..60),
            block in 1u64..100,
        ) {
            let mut file = Vec::new();
            for l in &lines {
                file.extend_from_slice(l.as_bytes());
                file.push(b'\n');
            }
            let mut union = Vec::new();
            let mut off = 0u64;
            while off < file.len() as u64 {
                let len = block.min(file.len() as u64 - off);
                union.extend(reader::records_for_range(&file, off, len));
                off += len;
            }
            let whole = reader::records_for_range(&file, 0, file.len() as u64);
            prop_assert_eq!(union, whole);
        }
    }
}
