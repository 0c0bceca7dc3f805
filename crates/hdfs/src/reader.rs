//! Record extraction from fileSplits with Hadoop's line-record semantics.
//!
//! By default a record is one line of input (paper §3.1). Because files
//! are split into fixed-size blocks without regard for record boundaries,
//! Hadoop's `LineRecordReader` applies two rules that we reproduce:
//!
//! 1. a split other than the first *skips* bytes up to and including the
//!    first newline (that partial line belongs to the previous split);
//! 2. every split reads *past* its end to finish the record that started
//!    inside it.
//!
//! The functions here operate on the logical file: given the full file
//! bytes and a split's `(offset, len)`, they return the records owned by
//! that split. This is what the GPU task's record-locator kernel and the
//! CPU streaming path both consume, guaranteeing that CPU and GPU tasks
//! agree on record ownership.

/// Byte range of one record (excluding the trailing newline) within the
/// logical file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Start offset of the record in the file.
    pub start: u64,
    /// Length of the record in bytes.
    pub len: u64,
}

/// Compute the records owned by the split `(offset, len)` of a logical
/// file of `file_len` bytes, where `read_at` serves bytes of the file.
///
/// Generic over the byte source so it works both on an in-memory file and
/// on a split-plus-next-split pair.
pub fn records_for_range(file: &[u8], offset: u64, len: u64) -> Vec<RecordSpan> {
    let file_len = file.len() as u64;
    let split_end = (offset + len).min(file_len);
    // Rule 1: skip the partial record at the head of non-first splits.
    let mut pos = if offset == 0 {
        0
    } else {
        match find_newline(file, offset - 1) {
            Some(nl) => nl + 1,
            None => return Vec::new(), // no newline after offset-1: previous split owns it all
        }
    };
    let mut out = Vec::new();
    // Rule 2: keep emitting records while they *start* before split_end.
    while pos < split_end && pos < file_len {
        let end = match find_newline(file, pos) {
            Some(nl) => nl,
            None => file_len,
        };
        out.push(RecordSpan {
            start: pos,
            len: end - pos,
        });
        pos = end + 1;
    }
    out
}

/// The raw bytes a split's task must fetch: its own block plus the spill
/// of its last record into the next block. Returns `(start, end)` offsets
/// in the logical file.
pub fn fetch_range(file: &[u8], offset: u64, len: u64) -> (u64, u64) {
    let spans = records_for_range(file, offset, len);
    match (spans.first(), spans.last()) {
        (Some(first), Some(last)) => (first.start, last.start + last.len),
        _ => (offset, offset),
    }
}

fn find_newline(data: &[u8], from: u64) -> Option<u64> {
    data.get(from as usize..)?
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| from + p as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_to_strings(file: &[u8], spans: &[RecordSpan]) -> Vec<String> {
        spans
            .iter()
            .map(|s| {
                String::from_utf8_lossy(&file[s.start as usize..(s.start + s.len) as usize])
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn single_split_owns_all_lines() {
        let f = b"alpha\nbeta\ngamma\n";
        let r = records_for_range(f, 0, f.len() as u64);
        assert_eq!(spans_to_strings(f, &r), vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn record_crossing_boundary_belongs_to_first_split() {
        // "hello world\nbye\n" split at byte 6 (inside "world").
        let f = b"hello world\nbye\n";
        let s1 = records_for_range(f, 0, 6);
        let s2 = records_for_range(f, 6, (f.len() - 6) as u64);
        assert_eq!(spans_to_strings(f, &s1), vec!["hello world"]);
        assert_eq!(spans_to_strings(f, &s2), vec!["bye"]);
    }

    #[test]
    fn split_starting_exactly_at_record_start() {
        let f = b"aaaa\nbbbb\ncccc\n";
        // Split 2 starts at offset 5 = start of "bbbb". Hadoop still skips
        // to the first newline *after offset-1*, i.e. the one at 4, so
        // "bbbb" is owned by split 2 — offset-1 trick handles this.
        let s1 = records_for_range(f, 0, 5);
        let s2 = records_for_range(f, 5, 5);
        let s3 = records_for_range(f, 10, 5);
        assert_eq!(spans_to_strings(f, &s1), vec!["aaaa"]);
        assert_eq!(spans_to_strings(f, &s2), vec!["bbbb"]);
        assert_eq!(spans_to_strings(f, &s3), vec!["cccc"]);
    }

    #[test]
    fn every_line_owned_by_exactly_one_split() {
        let mut f = Vec::new();
        for i in 0..100 {
            f.extend_from_slice(format!("line-{i}-{}\n", "x".repeat(i % 17)).as_bytes());
        }
        let block = 64u64;
        let mut all = Vec::new();
        let mut off = 0;
        while off < f.len() as u64 {
            let len = block.min(f.len() as u64 - off);
            all.extend(records_for_range(&f, off, len));
            off += len;
        }
        let direct = records_for_range(&f, 0, f.len() as u64);
        assert_eq!(all, direct, "split union must equal whole-file scan");
    }

    #[test]
    fn file_without_trailing_newline() {
        let f = b"one\ntwo";
        let r = records_for_range(f, 0, f.len() as u64);
        assert_eq!(spans_to_strings(f, &r), vec!["one", "two"]);
    }

    #[test]
    fn empty_split_of_empty_file() {
        let r = records_for_range(b"", 0, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn split_entirely_inside_one_record_owns_nothing() {
        // A single giant record split into three: only the first split
        // owns it.
        let f = b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n";
        let s1 = records_for_range(f, 0, 10);
        let s2 = records_for_range(f, 10, 10);
        let s3 = records_for_range(f, 20, 11);
        assert_eq!(s1.len(), 1);
        assert!(s2.is_empty());
        assert!(s3.is_empty());
    }

    #[test]
    fn final_split_without_trailing_newline_owns_last_record() {
        // The file's last record has no trailing '\n'. The *final* split
        // (not offset 0) must still claim it — rule 1 skips to the
        // newline at byte 7, then the unterminated "tail" is a record.
        let f = b"head\nmid\ntail";
        let s1 = records_for_range(f, 0, 9);
        let s2 = records_for_range(f, 9, 4);
        assert_eq!(spans_to_strings(f, &s1), vec!["head", "mid"]);
        assert_eq!(spans_to_strings(f, &s2), vec!["tail"]);
        // And the fetch range runs to end-of-file, not to a newline.
        assert_eq!(fetch_range(f, 9, 4), (9, 13));
    }

    #[test]
    fn record_ending_exactly_on_split_boundary() {
        // "aaaa\n" ends at byte 4; the newline is the last byte of split
        // 1 (bytes 0..5). Split 2 starts exactly at a record start and
        // must not skip "bbbb" (the offset-1 scan finds the newline at
        // byte 4, yielding pos = 5), and split 1 must not leak past it.
        let f = b"aaaa\nbbbb\n";
        let s1 = records_for_range(f, 0, 5);
        let s2 = records_for_range(f, 5, 5);
        assert_eq!(spans_to_strings(f, &s1), vec!["aaaa"]);
        assert_eq!(spans_to_strings(f, &s2), vec!["bbbb"]);
        // No overlap, no loss: fetch ranges tile the file exactly.
        assert_eq!(fetch_range(f, 0, 5), (0, 4));
        assert_eq!(fetch_range(f, 5, 5), (5, 9));
    }

    #[test]
    fn record_longer_than_one_split_spans_many() {
        // One 25-byte record over 10-byte splits: the split containing
        // the record *start* owns it (reading past two split ends); the
        // middle splits own nothing; the final split owns the next line.
        let f = b"abcdefghijklmnopqrstuvwxy\nz\n";
        let s1 = records_for_range(f, 0, 10);
        let s2 = records_for_range(f, 10, 10);
        let s3 = records_for_range(f, 20, 8);
        assert_eq!(spans_to_strings(f, &s1), vec!["abcdefghijklmnopqrstuvwxy"]);
        assert!(s2.is_empty(), "mid-record split owns nothing");
        assert_eq!(spans_to_strings(f, &s3), vec!["z"]);
        // Split 1 must fetch all the way to the record end at byte 25.
        assert_eq!(fetch_range(f, 0, 10), (0, 25));
        // A mid-record split fetches nothing.
        assert_eq!(fetch_range(f, 10, 10), (10, 10));
    }

    #[test]
    fn fetch_range_covers_spilled_record() {
        let f = b"hello world\nbye\n";
        let (s, e) = fetch_range(f, 0, 6);
        assert_eq!((s, e), (0, 11)); // reads past the split end to finish the record
        let (s2, e2) = fetch_range(f, 6, 10);
        assert_eq!((s2, e2), (12, 15));
    }
}
