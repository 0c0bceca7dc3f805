//! Error type for the simulated distributed filesystem.

use std::fmt;

/// Errors raised by the HDFS simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    /// Path not present in the namespace.
    FileNotFound(String),
    /// Path already exists (HDFS files are write-once).
    AlreadyExists(String),
    /// A block id that no datanode holds.
    BlockMissing(u64),
    /// All replicas of a block live on dead nodes.
    AllReplicasLost(u64),
    /// Replication factor exceeds cluster size or is zero.
    BadReplication(u32),
    /// Checksum mismatch when reading a block.
    ChecksumMismatch {
        /// Block whose checksum failed.
        block: u64,
        /// Stored checksum.
        expected: u32,
        /// Recomputed checksum.
        actual: u32,
    },
    /// Malformed SequenceFile bytes.
    BadSequenceFile(String),
    /// Referenced an unknown node.
    UnknownNode(u32),
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::FileNotFound(p) => write!(f, "file not found: {p}"),
            HdfsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            HdfsError::BlockMissing(b) => write!(f, "block {b} missing"),
            HdfsError::AllReplicasLost(b) => write!(f, "all replicas of block {b} lost"),
            HdfsError::BadReplication(r) => write!(f, "bad replication factor {r}"),
            HdfsError::ChecksumMismatch {
                block,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch on block {block}: expected {expected:#x}, got {actual:#x}"
            ),
            HdfsError::BadSequenceFile(msg) => write!(f, "bad sequence file: {msg}"),
            HdfsError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for HdfsError {}
