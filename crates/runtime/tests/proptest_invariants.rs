//! Property-based invariants of the GPU runtime primitives: the
//! indirection sort, the Blelloch scan, and fixed-slot key trimming.
//! Random inputs, algebraic postconditions — the serial reference
//! implementations are the oracle.

use hetero_gpusim::{Device, GpuSpec};
use hetero_runtime::kvstore::KvStore;
use hetero_runtime::scan::exclusive_scan;
use hetero_runtime::sort::sort_partition;
use hetero_runtime::types::trim_key;
use proptest::prelude::*;

/// Store the keys one per slot and return the live indirection array.
fn store_of(keys: &[String]) -> (KvStore, Vec<u32>) {
    let mut s = KvStore::new(1, keys.len().max(1), 16, 4, 1);
    for k in keys {
        assert!(s.emit(0, k.as_bytes(), b"1"));
    }
    (s, (0..keys.len() as u32).collect())
}

proptest! {
    /// `sort_partition` returns a permutation of its input whose live
    /// entries are key-ordered (stably) with whitespace sorted last.
    #[test]
    fn sort_is_an_ordered_permutation(
        keys in proptest::collection::vec("[a-z]{0,8}", 0..48),
        whitespace in 0usize..8,
    ) {
        let dev = Device::new(GpuSpec::tesla_k40());
        let (s, mut idx) = store_of(&keys);
        // Sprinkle whitespace slots through the indirection array the
        // way record stealing leaves them: interleaved, not appended.
        for w in 0..whitespace {
            idx.insert((w * 3) % (idx.len() + 1), u32::MAX);
        }
        let r = sort_partition(&dev, &s, &idx).unwrap();

        // Permutation: same multiset of indices.
        let mut want = idx.clone();
        want.sort_unstable();
        let mut got = r.order.clone();
        got.sort_unstable();
        prop_assert_eq!(got, want);

        // Live entries first (key-ordered), whitespace after.
        let live = r.order.len() - whitespace;
        prop_assert!(r.order[live..].iter().all(|&i| i == u32::MAX));
        for pair in r.order[..live].windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            prop_assert!(s.key(a) <= s.key(b), "must be key-sorted");
            // Stable: input index order breaks key ties.
            if s.key(a) == s.key(b) {
                prop_assert!(a < b, "equal keys must keep emission order");
            }
        }
    }

    /// The prefix-keyed sort is the plain one: `order` equals a stable
    /// sort that compares whole key slots, on stores built to collide —
    /// slots narrower than the 8-byte prefix, keys sharing their first 8
    /// bytes, duplicates, all-`0xFF` keys (the prefix whitespace takes)
    /// and whitespace interleaved among them.
    #[test]
    fn sort_order_is_the_full_key_stable_sort(
        key_len in 1usize..=12,
        draws in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0u8..3, 0..5)),
            0..60,
        ),
        whitespace in proptest::collection::vec(0usize..60, 0..12),
    ) {
        const ALPHABET: [u8; 3] = [b'a', b'b', 0xFF];
        let mut s = KvStore::new(1, draws.len().max(1), key_len, 4, 1);
        for (kind, tail) in &draws {
            let tail: Vec<u8> = tail.iter().map(|&c| ALPHABET[c as usize]).collect();
            let key = match kind {
                0 => [&b"sameeigh"[..], &tail].concat(),
                1 => vec![0xFF; key_len],
                2 => [&[0xFF; 8][..], &tail].concat(),
                _ => tail,
            };
            prop_assert!(s.emit(0, &key, b"1"));
        }
        let mut idx: Vec<u32> = (0..draws.len() as u32).collect();
        for &at in &whitespace {
            idx.insert(at % (idx.len() + 1), u32::MAX);
        }

        let mut want = idx.clone();
        want.sort_by(|&a, &b| match (a, b) {
            (u32::MAX, u32::MAX) => std::cmp::Ordering::Equal,
            (u32::MAX, _) => std::cmp::Ordering::Greater,
            (_, u32::MAX) => std::cmp::Ordering::Less,
            (a, b) => s.key(a as usize).cmp(s.key(b as usize)),
        });
        let dev = Device::new(GpuSpec::tesla_k40());
        prop_assert_eq!(sort_partition(&dev, &s, &idx).unwrap().order, want);
    }

    /// The device scan agrees with the one-line serial prefix sum.
    #[test]
    fn scan_matches_serial_prefix_sum(
        vals in proptest::collection::vec(0u32..100_000, 0..600),
    ) {
        let dev = Device::new(GpuSpec::tesla_k40());
        let r = exclusive_scan(&dev, &vals).unwrap();

        let mut serial = Vec::with_capacity(vals.len());
        let mut acc = 0u64;
        for &v in &vals {
            serial.push(acc);
            acc += v as u64;
        }
        prop_assert_eq!(r.prefix, serial);
        prop_assert_eq!(r.total, acc);
    }

    /// `trim_key` returns the longest NUL-free prefix: it never cuts a
    /// record short and never includes padding.
    #[test]
    fn trim_key_is_the_longest_nul_free_prefix(
        bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let t = trim_key(&bytes);
        prop_assert!(!t.contains(&0), "trimmed key must contain no padding");
        prop_assert_eq!(t, &bytes[..t.len()], "must be a prefix");
        // Maximal: the trim point is the end or the first NUL.
        if t.len() < bytes.len() {
            prop_assert_eq!(bytes[t.len()], 0, "must only cut at a NUL");
        }
    }

    /// Round trip through a fixed-width slot: any NUL-free key narrower
    /// than the slot is recovered byte for byte — emit never corrupts,
    /// trim never truncates mid-record.
    #[test]
    fn fixed_slot_round_trip_preserves_records(key in "[a-zA-Z0-9_.,-]{0,16}") {
        let mut s = KvStore::new(1, 1, 16, 4, 1);
        prop_assert!(s.emit(0, key.as_bytes(), b"v"));
        prop_assert_eq!(trim_key(s.key(0)), key.as_bytes());
    }
}
