//! Trace event model: categories, spans, instants, and their arguments.

/// What subsystem an event belongs to. Categories map 1:1 onto the `cat`
/// field of the Chrome trace format, so viewers can filter by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A map/reduce task attempt (span) or attempt-lifecycle instant.
    Task,
    /// An injected or detected fault (crash, GPU fault, checksum, expiry).
    Fault,
    /// Speculative-execution decisions (backup launches, kills).
    Speculation,
    /// The shuffle phase of a reduce task.
    Shuffle,
    /// A kernel launch on the simulated GPU.
    Kernel,
    /// A PCIe host↔device transfer.
    Pcie,
    /// An HDFS fileSplit/block read.
    Hdfs,
    /// Master (JobTracker) recovery: re-registration and re-admission
    /// of falsely-expired trackers.
    Recovery,
    /// Network-partition effects (dropped heartbeats, window heals).
    Partition,
    /// Multi-tenant job-service lifecycle (arrival, admission, launch,
    /// completion, rejection) and per-tenant fair-share decisions.
    Service,
}

impl Category {
    /// The `cat` string written to the Chrome trace.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Task => "task",
            Category::Fault => "fault",
            Category::Speculation => "speculation",
            Category::Shuffle => "shuffle",
            Category::Kernel => "kernel",
            Category::Pcie => "pcie",
            Category::Hdfs => "hdfs",
            Category::Recovery => "recovery",
            Category::Partition => "partition",
            Category::Service => "service",
        }
    }
}

/// Span (has a duration) or instant (a point in simulated time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span: Chrome phase `"X"` with `dur` in microseconds.
    Span {
        /// Duration in simulated microseconds.
        dur_us: u64,
    },
    /// An instant: Chrome phase `"i"`, thread-scoped.
    Instant,
}

/// One structured argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// An unsigned integer argument.
    U64(u64),
    /// A float argument (formatted with Rust's shortest round-trip
    /// representation, which is deterministic).
    F64(f64),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Str(if v { "true" } else { "false" }.to_string())
    }
}

/// One recorded event. Timestamps are **simulated** time converted to
/// integer microseconds (the Chrome trace unit), so identical simulations
/// produce identical events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Subsystem category.
    pub cat: Category,
    /// Human-readable event name (the bar label in the viewer).
    pub name: String,
    /// Process lane — one per simulated node (or logical process).
    pub pid: u32,
    /// Thread lane — one per slot within the process (CPU slot, GPU,
    /// reduce slot, events lane…).
    pub tid: u32,
    /// Start timestamp in simulated microseconds.
    pub ts_us: u64,
    /// Span-with-duration or instant.
    pub kind: EventKind,
    /// Structured arguments (sorted-insertion order is preserved).
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Convert simulated seconds to the trace's integer microseconds.
pub(crate) fn us(t_s: f64) -> u64 {
    (t_s * 1e6).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_to_micros_rounds() {
        assert_eq!(us(0.0), 0);
        assert_eq!(us(1.5), 1_500_000);
        assert_eq!(us(0.000_000_4), 0);
        assert_eq!(us(0.000_000_6), 1);
        assert_eq!(us(-1.0), 0);
    }

    #[test]
    fn categories_have_stable_names() {
        assert_eq!(Category::Task.as_str(), "task");
        assert_eq!(Category::Kernel.as_str(), "kernel");
        assert_eq!(Category::Hdfs.as_str(), "hdfs");
        assert_eq!(Category::Service.as_str(), "service");
    }
}
