//! Property-based invariants of the GPU runtime primitives (the
//! indirection sort, the Blelloch scan, fixed-slot key trimming) and of
//! the CPU task's partition sort.
//! Random inputs, algebraic postconditions — the serial reference
//! implementations are the oracle.

use hetero_gpusim::{Device, GpuSpec};
use hetero_runtime::cpu::{run_cpu_task, CpuCostModel};
use hetero_runtime::kvstore::KvStore;
use hetero_runtime::map_kernel::{run_map, MapConfig};
use hetero_runtime::opts::OptFlags;
use hetero_runtime::record::Record;
use hetero_runtime::scan::exclusive_scan;
use hetero_runtime::sort::sort_partition;
use hetero_runtime::task::TaskEnv;
use hetero_runtime::types::{default_partition, trim_key, Emit, Mapper};
use proptest::prelude::*;

/// Store the keys one per slot and return the live indirection array.
fn store_of(keys: &[String]) -> (KvStore, Vec<u32>) {
    let mut s = KvStore::new(1, keys.len().max(1), 16, 4, 1);
    for k in keys {
        assert!(s.emit(0, k.as_bytes(), b"1"));
    }
    (s, (0..keys.len() as u32).collect())
}

/// Emits `keys[i]` for the record whose text is `i`.
struct KeysMapper<'a>(&'a [Vec<u8>]);

impl Mapper for KeysMapper<'_> {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let i: usize = std::str::from_utf8(record).unwrap().parse().unwrap();
        assert!(out.emit(&self.0[i], b"1"));
    }
}

/// Emits `(keys[i], i)` for the record whose text is `i`: the value
/// names the pair's place in emission order.
struct NumberedKeysMapper<'a>(&'a [Vec<u8>]);

impl Mapper for NumberedKeysMapper<'_> {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let i: usize = std::str::from_utf8(record).unwrap().parse().unwrap();
        assert!(out.emit(&self.0[i], i.to_string().as_bytes()));
    }
}

/// The store the map kernel fills with `keys`, one record a key.
fn map_keys(keys: &[Vec<u8>], key_len: usize) -> KvStore {
    let mut input = Vec::new();
    let mut records = Vec::new();
    for i in 0..keys.len() {
        let text = i.to_string();
        records.push(Record {
            start: input.len(),
            len: text.len(),
        });
        input.extend_from_slice(text.as_bytes());
        input.push(b'\n');
    }
    let cfg = MapConfig {
        blocks: 2,
        threads_per_block: 32,
        stores_per_thread: 4,
        key_len,
        val_len: 4,
        num_reducers: 1,
        opts: OptFlags::all(),
        ro_bytes: 0,
        kvpairs_per_record: 1,
    };
    let dev = Device::new(GpuSpec::tesla_k40());
    let out = run_map(&dev, &input, &records, &KeysMapper(keys), &cfg).unwrap();
    assert_eq!(out.dropped_records, 0);
    out.store
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

    /// The sort, with and without its long-key refine step, is the plain
    /// one: `order` equals a stable sort that compares whole key slots.
    /// Slots of 1–40 bytes take keys of 0, 7, 8, 9, 15, 16, 17 and
    /// `key_len` bytes, so a store falls on either side of the 16-byte
    /// integer key, and the keys are built to collide — a shared 16-byte
    /// head (ties on the integer key), all-`0xFF` keys and `0xFF` heads,
    /// interior and trailing NULs — with whitespace interleaved among
    /// them. One store is filled through `KvStore::emit`, one through the
    /// map kernel, which must keep the store's longest key itself.
    #[test]
    fn sort_order_is_the_full_key_stable_sort(
        key_len in 1usize..=40,
        draws in proptest::collection::vec(
            (0usize..8, 0u8..4, proptest::collection::vec(0u8..4, 1..5)),
            0..60,
        ),
        whitespace in proptest::collection::vec(0usize..60, 0..12),
    ) {
        const ALPHABET: [u8; 4] = [b'a', b'b', 0, 0xFF];
        let keys: Vec<Vec<u8>> = draws
            .iter()
            .map(|(len, kind, tail)| {
                let len = [0, 7, 8, 9, 15, 16, 17, key_len][*len];
                let head: &[u8] = match kind {
                    0 => b"sameeigh-16bytes",
                    1 => &[0xFF; 40],
                    2 => &[0xFF; 8],
                    _ => b"",
                };
                let tail = tail.iter().map(|&c| ALPHABET[c as usize]);
                head.iter().copied().chain(tail.cycle()).take(len).collect()
            })
            .collect();

        let mut emitted = KvStore::new(1, keys.len().max(1), key_len, 4, 1);
        for key in &keys {
            prop_assert!(emitted.emit(0, key, b"1"));
        }
        let mapped = map_keys(&keys, key_len);

        let dev = Device::new(GpuSpec::tesla_k40());
        for store in [&emitted, &mapped] {
            let mut idx: Vec<u32> = (0..store.threads)
                .flat_map(|t| store.live_slots_of(t))
                .map(|slot| slot as u32)
                .collect();
            prop_assert_eq!(idx.len(), keys.len());
            for &at in &whitespace {
                idx.insert(at % (idx.len() + 1), u32::MAX);
            }
            let mut want = idx.clone();
            want.sort_by(|&a, &b| match (a, b) {
                (u32::MAX, u32::MAX) => std::cmp::Ordering::Equal,
                (u32::MAX, _) => std::cmp::Ordering::Greater,
                (_, u32::MAX) => std::cmp::Ordering::Less,
                (a, b) => store.key(a as usize).cmp(store.key(b as usize)),
            });
            prop_assert_eq!(sort_partition(&dev, store, &idx).unwrap().order, want);
        }
    }

    /// A CPU task's partitions are its pairs, partitioned by key hash and
    /// stably sorted by whole key bytes (`sort_by_key` over the pairs in
    /// emission order). Keys of 0–40 bytes are built to collide on the
    /// 16-byte integer head: a shared 16-byte head, all-`0xFF` keys and
    /// `0xFF` heads, interior and trailing NULs, and duplicates, whose
    /// values (emission numbers) check stability. Few tails (one or two
    /// symbols, repeated) make many keys prefixes of one another.
    #[test]
    fn cpu_task_partitions_are_the_stable_key_sort(
        draws in proptest::collection::vec(
            (0usize..=40, 0u8..4, proptest::collection::vec(0u8..4, 1..3)),
            0..80,
        ),
        reducers in 1u32..4,
        short in proptest::any::<bool>(),
    ) {
        const ALPHABET: [u8; 4] = [b'a', b'b', 0, 0xFF];
        // Half the tasks see no key past 16 bytes: nothing but a NUL tail
        // can then make two different keys share a head.
        let most = if short { 16 } else { 40 };
        let keys: Vec<Vec<u8>> = draws
            .iter()
            .map(|(len, kind, tail)| {
                let len = len % (most + 1);
                let head: &[u8] = match kind {
                    0 => b"sameeigh-16bytes",
                    1 => &[0xFF; 40],
                    2 => &[0xFF; 8],
                    _ => b"",
                };
                let tail = tail.iter().map(|&c| ALPHABET[c as usize]);
                head.iter().copied().chain(tail.cycle()).take(len).collect()
            })
            .collect();
        let split: Vec<u8> = (0..keys.len()).flat_map(|i| format!("{i}\n").into_bytes()).collect();
        let got = run_cpu_task(
            &TaskEnv::in_memory(),
            &CpuCostModel::default(),
            &split,
            &NumberedKeysMapper(&keys),
            None,
            reducers,
            false,
        );
        let mut want = vec![Vec::new(); reducers as usize];
        for (i, key) in keys.iter().enumerate() {
            want[default_partition(key, reducers) as usize].push((key.clone(), i.to_string().into_bytes()));
        }
        for part in &mut want {
            part.sort_by_key(|(k, _)| k.clone());
        }
        prop_assert_eq!(got.partitions, want);
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
