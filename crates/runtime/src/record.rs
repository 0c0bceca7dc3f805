//! Record handling on the GPU (paper §5.2).
//!
//! Before the map kernel runs, a **record-locator kernel** scans the
//! input fileSplit for record boundaries, producing the `recordLocator`
//! array of record start offsets — the prerequisite for processing the
//! records *within* a fileSplit in parallel (the paper's answer to the
//! GPU's limited memory) and for record stealing.

use hetero_gpusim::{Access, Device, GpuError, KernelStats};

/// One record's byte range within the fileSplit buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Start offset in the split buffer.
    pub start: usize,
    /// Length in bytes (without the newline).
    pub len: usize,
}

/// Output of the record-locator kernel.
#[derive(Debug, Clone)]
pub struct RecordLocator {
    /// All records of the split, in order.
    pub records: Vec<Record>,
    /// Kernel statistics.
    pub stats: KernelStats,
}

/// Scan `input` for newline-delimited records on the device. Each
/// threadblock scans a contiguous chunk; lanes stream adjacent bytes so
/// accesses coalesce.
pub fn locate_records(dev: &Device, input: &[u8]) -> Result<RecordLocator, GpuError> {
    if input.is_empty() {
        // A kernel still launches (the host does not know the split is
        // trivial), but finds nothing.
        let stats = dev.launch_named("record_scan_kernel", 32, vec![()], |blk, _| {
            blk.uniform_rounds(1, |t| t.alu(1));
            Ok(())
        })?;
        return Ok(RecordLocator {
            records: Vec::new(),
            stats,
        });
    }
    let chunk = 64 * 1024usize;
    let chunks: Vec<(usize, &[u8])> = input
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| (i * chunk, c))
        .collect();
    // Blocks run in input order, so positions arrive sorted.
    let mut newlines: Vec<usize> = Vec::new();
    let stats = dev.launch_named("record_scan_kernel", 128, chunks, |blk, (base, data)| {
        // Streaming scan: every byte loaded once, coalesced; one compare
        // per byte.
        let lanes = blk.warp_size() as u64 * blk.num_warps() as u64;
        let per_lane = (data.len() as u64).div_ceil(lanes).max(1);
        blk.uniform_rounds(blk.num_warps(), |t| {
            t.gld(per_lane, Access::Coalesced);
            t.alu(per_lane);
        });
        newlines.extend(
            data.iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| base + i),
        );
        // Newline positions are written out compacted (one store each).
        blk.uniform_rounds(1, |t| t.gst(4, Access::Coalesced));
        Ok(())
    })?;

    let mut records = Vec::with_capacity(newlines.len() + 1);
    let mut start = 0usize;
    for nl in newlines {
        records.push(Record {
            start,
            len: nl - start,
        });
        start = nl + 1;
    }
    if start < input.len() {
        records.push(Record {
            start,
            len: input.len() - start,
        });
    }
    Ok(RecordLocator { records, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_gpusim::GpuSpec;

    fn rec_strings(input: &[u8], recs: &[Record]) -> Vec<String> {
        recs.iter()
            .map(|r| String::from_utf8_lossy(&input[r.start..r.start + r.len]).to_string())
            .collect()
    }

    #[test]
    fn finds_all_line_records() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let input = b"alpha\nbeta\ngamma\n";
        let loc = locate_records(&dev, input).unwrap();
        assert_eq!(
            rec_strings(input, &loc.records),
            vec!["alpha", "beta", "gamma"]
        );
    }

    #[test]
    fn trailing_record_without_newline() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let input = b"one\ntwo";
        let loc = locate_records(&dev, input).unwrap();
        assert_eq!(rec_strings(input, &loc.records), vec!["one", "two"]);
    }

    #[test]
    fn empty_records_preserved() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let input = b"a\n\nb\n";
        let loc = locate_records(&dev, input).unwrap();
        assert_eq!(rec_strings(input, &loc.records), vec!["a", "", "b"]);
    }

    #[test]
    fn empty_input_yields_no_records() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let loc = locate_records(&dev, b"").unwrap();
        assert!(loc.records.is_empty());
    }

    #[test]
    fn record_boundaries_across_chunks() {
        let dev = Device::new(GpuSpec::tesla_k40());
        // Build > 64 KiB so multiple chunks are scanned.
        let mut input = Vec::new();
        for i in 0..10_000 {
            input.extend_from_slice(format!("record-{i}\n").as_bytes());
        }
        let loc = locate_records(&dev, &input).unwrap();
        assert_eq!(loc.records.len(), 10_000);
        assert_eq!(
            rec_strings(&input, &loc.records[..2]),
            vec!["record-0", "record-1"]
        );
        assert_eq!(
            rec_strings(&input, &loc.records[9_999..]),
            vec!["record-9999"]
        );
    }

    #[test]
    fn cost_scales_with_input_size() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let small = locate_records(&dev, &vec![b'x'; 1 << 12]).unwrap();
        let large = locate_records(&dev, &vec![b'x'; 1 << 18]).unwrap();
        assert!(large.stats.counters.dram_bytes > small.stats.counters.dram_bytes);
    }
}
