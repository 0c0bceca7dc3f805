//! The simulated cost of one fixed task, pinned against constants
//! captured from an earlier commit — not against a second run of the same
//! build, which is all the determinism suites compare.
//!
//! One Wordcount-shaped split goes through `run_gpu_task` on both device
//! presets, with every optimization on and with each one switched off in
//! turn. Every `TaskBreakdown` stage, the device clock, every device
//! counter and the partition bytes must match the table bit for bit, in
//! debug and in release. A host-side rewrite of a cost kernel (how many
//! times a charge closure runs, in what order lanes are visited) passes;
//! anything that moves a simulated cycle does not.
//!
//! The table is regenerated only for a *declared* cost-model change:
//!
//! ```text
//! cargo test -p hetero-runtime --test charge_golden -- --ignored --nocapture print_golden
//! ```
//!
//! prints it as Rust source; paste it over `GOLDEN` and say in the commit
//! which constant of the model moved and why.

use hetero_gpusim::{Counters, Device, GpuSpec};
use hetero_runtime::task::run_gpu_task;
use hetero_runtime::types::trim_key;
use hetero_runtime::{Combiner, Emit, GpuTaskConfig, Mapper, OpCount, OptFlags, TaskEnv};

/// Wordcount with a per-word lookup in shared read-only data, so the
/// `texture` switch has something to move.
struct WcMap;

impl Mapper for WcMap {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        out.charge(OpCount::new(2, 1));
        for w in record
            .split(|&b| !b.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            out.charge(OpCount::new(w.len() as u64, 0));
            out.read_ro(4);
            if !out.emit(w, b"1") {
                return;
            }
        }
    }
}

/// Sums textual integer values over a sorted run.
struct SumComb;

impl Combiner for SumComb {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let mut prev: Option<&[u8]> = None;
        let mut acc = 0i64;
        for &(k, v) in run {
            let val: i64 = String::from_utf8_lossy(trim_key(v))
                .trim()
                .parse()
                .unwrap_or(0);
            out.charge(OpCount::new(4, 0));
            match prev {
                Some(p) if p == k => acc += val,
                Some(p) => {
                    out.emit(p, acc.to_string().as_bytes());
                    prev = Some(k);
                    acc = val;
                }
                None => {
                    prev = Some(k);
                    acc = val;
                }
            }
        }
        if let Some(p) = prev {
            out.emit(p, acc.to_string().as_bytes());
        }
    }
}

/// 2 500 lines of 0–12 skewed words from a 300-word vocabulary in which
/// every fifth word shares a ten-byte prefix (keys that tie on their
/// first eight bytes) and lengths run from 2 to 19 bytes (longer than the
/// 16-byte slot: truncated keys).
fn split() -> Vec<u8> {
    let vocab: Vec<String> = (0..300u32)
        .map(|i| match i % 5 {
            0 => format!("heterodoop{i}"),
            1 => format!("w{i}"),
            2 => format!("accelerator{i:08}"),
            _ => format!("k{}", i * 7919 % 1000),
        })
        .collect();
    let mut state = 0x2015_0615u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut s = Vec::new();
    for _ in 0..2500 {
        for j in 0..next() % 13 {
            if j > 0 {
                s.push(b' ');
            }
            // Product of two draws: low indices are much more frequent.
            let i = (next() % 300) * (next() % 300) / 300;
            s.extend_from_slice(vocab[i].as_bytes());
        }
        s.push(b'\n');
    }
    s
}

/// The six flag settings: everything on, then each switch off alone.
fn flag_cases() -> [(&'static str, OptFlags); 6] {
    let off = |f: fn(&mut OptFlags)| {
        let mut o = OptFlags::all();
        f(&mut o);
        o
    };
    [
        ("all", OptFlags::all()),
        ("-vectorize_map", off(|o| o.vectorize_map = false)),
        ("-vectorize_combine", off(|o| o.vectorize_combine = false)),
        ("-record_stealing", off(|o| o.record_stealing = false)),
        (
            "-aggregate_before_sort",
            off(|o| o.aggregate_before_sort = false),
        ),
        ("-texture", off(|o| o.texture = false)),
    ]
}

fn devices() -> [(&'static str, GpuSpec); 2] {
    [
        ("tesla_k40", GpuSpec::tesla_k40()),
        ("tesla_m2090", GpuSpec::tesla_m2090()),
    ]
}

const STAGES: [&str; 7] = [
    "input_read_s",
    "record_count_s",
    "map_s",
    "aggregate_s",
    "sort_s",
    "combine_s",
    "output_write_s",
];

const COUNTERS: [&str; 12] = [
    "alu_ops",
    "sfu_ops",
    "gld_txn_milli",
    "gst_txn_milli",
    "shared_ops",
    "shared_atomics",
    "global_atomics",
    "tex_hits",
    "tex_misses",
    "dram_bytes",
    "random_txn_milli",
    "divergent_lanes",
];

fn counter_fields(c: &Counters) -> [u64; 12] {
    [
        c.alu_ops,
        c.sfu_ops,
        c.gld_txn_milli,
        c.gst_txn_milli,
        c.shared_ops,
        c.shared_atomics,
        c.global_atomics,
        c.tex_hits,
        c.tex_misses,
        c.dram_bytes,
        c.random_txn_milli,
        c.divergent_lanes,
    ]
}

/// Everything one run is pinned on.
struct Observed {
    /// `TaskBreakdown` stages in pipeline order, `f64::to_bits`.
    stages: [u64; 7],
    /// `Device::sim_time_s().to_bits()`.
    dev_time: u64,
    kernels: u64,
    /// `Device::totals()`, in `COUNTERS` order.
    counters: [u64; 12],
    /// FNV-1a over every partition's pairs (lengths included).
    partitions: u64,
}

fn observe(spec: GpuSpec, opts: OptFlags) -> Observed {
    let dev = Device::new(spec);
    let mut cfg = GpuTaskConfig::new(16, 8, 2);
    cfg.blocks = 8;
    cfg.threads_per_block = 128;
    cfg.kvpairs_hint = Some(12);
    // Fits the K40's 48 KB texture cache, overflows the M2090's 12 KB.
    cfg.ro_bytes = 32 * 1024;
    cfg.opts = opts;
    let res = run_gpu_task(
        &dev,
        &TaskEnv::disk(),
        &split(),
        &WcMap,
        Some(&SumComb),
        &cfg,
    )
    .expect("the golden task fits both devices");

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &res.partitions {
        eat(&(p.len() as u64).to_le_bytes());
        for (k, v) in p {
            eat(&(k.len() as u32).to_le_bytes());
            eat(k);
            eat(&(v.len() as u32).to_le_bytes());
            eat(v);
        }
    }
    let bd = res.breakdown;
    Observed {
        stages: [
            bd.input_read_s,
            bd.record_count_s,
            bd.map_s,
            bd.aggregate_s,
            bd.sort_s,
            bd.combine_s,
            bd.output_write_s,
        ]
        .map(f64::to_bits),
        dev_time: dev.sim_time_s().to_bits(),
        kernels: dev.kernels_launched(),
        counters: counter_fields(&dev.totals()),
        partitions: h,
    }
}

#[test]
fn simulated_cost_matches_the_captured_parent() {
    let mut golden = GOLDEN.iter();
    for (dev_name, spec) in devices() {
        for (flag_name, opts) in flag_cases() {
            let case = format!("{dev_name} {flag_name}");
            let (want_case, want) = golden.next().expect("a GOLDEN row per case");
            assert_eq!(*want_case, case, "GOLDEN rows are in case order");
            let got = observe(spec.clone(), opts);
            for (i, name) in STAGES.iter().enumerate() {
                assert_eq!(
                    got.stages[i],
                    want.stages[i],
                    "{case}: TaskBreakdown::{name} = {:e}, captured {:e}",
                    f64::from_bits(got.stages[i]),
                    f64::from_bits(want.stages[i]),
                );
            }
            for (i, name) in COUNTERS.iter().enumerate() {
                assert_eq!(
                    got.counters[i], want.counters[i],
                    "{case}: Device::totals().{name}"
                );
            }
            assert_eq!(got.kernels, want.kernels, "{case}: kernels_launched");
            assert_eq!(got.dev_time, want.dev_time, "{case}: sim_time_s bits");
            assert_eq!(got.partitions, want.partitions, "{case}: partition bytes");
        }
    }
    assert!(golden.next().is_none(), "GOLDEN has rows no case reads");
}

/// Prints `GOLDEN` as Rust source (see the module doc).
#[test]
#[ignore = "regenerates the table; run by hand for a declared cost-model change"]
fn print_golden() {
    println!("const GOLDEN: [(&str, Observed); 12] = [");
    for (dev_name, spec) in devices() {
        for (flag_name, opts) in flag_cases() {
            let o = observe(spec.clone(), opts);
            let hex = |v: &[u64]| {
                v.iter()
                    .map(|x| format!("{x:#018x}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let dec = |v: &[u64]| {
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!("    (");
            println!("        \"{dev_name} {flag_name}\",");
            println!("        Observed {{");
            println!("            stages: [{}],", hex(&o.stages));
            println!("            dev_time: {:#018x},", o.dev_time);
            println!("            kernels: {},", o.kernels);
            println!("            counters: [{}],", dec(&o.counters));
            println!("            partitions: {:#018x},", o.partitions);
            println!("        }},");
            println!("    ),");
        }
    }
    println!("];");
}

// Captured from commit 635b167 (the parent of the lane-class change) by
// running `print_golden` in an export of that commit.
const GOLDEN: [(&str, Observed); 12] = [
    (
        "tesla_k40 all",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3ee72d1f03a6d1a7,
                0x3ecc0adb3247e90f,
                0x3f37b7191d1239b6,
                0x3ee2ca60b6767c74,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f3aca4c48ae1811,
            kernels: 17,
            counters: [
                14231160, 2500, 133185839, 4970188, 3048960, 2500, 0, 14670, 0, 17737734,
                125440000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_k40 -vectorize_map",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3f07c137f6f430a7,
                0x3ecc0a945afafaa5,
                0x3f37b7191d1239b6,
                0x3ee2ca60b6767c74,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f3d0909c1c0cdbb,
            kernels: 17,
            counters: [
                14495220, 2500, 133185854, 16896913, 3048960, 2500, 0, 14670, 0, 19263414,
                140110000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_k40 -vectorize_combine",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3ee72d1f03a6d1a7,
                0x3ecc0adb3247e90f,
                0x3f37b7191d1239b6,
                0x3f0563d0250d3ada,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f3ce073479c0b87,
            kernels: 17,
            counters: [
                11890791, 2500, 144569759, 5265109, 3048960, 2500, 0, 14670, 0, 19183773,
                140407000, 1984,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_k40 -record_stealing",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3ee72d1f03a6d1a7,
                0x3ecc0b981b150f7e,
                0x3f37b7191d1239b6,
                0x3ee2ca60b6767c74,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f3aca4dc27fb25d,
            kernels: 17,
            counters: [
                14231160, 2500, 133185891, 4970240, 3048960, 0, 0, 14670, 0, 17737734, 125440000,
                991,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_k40 -aggregate_before_sort",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3ee72d1f03a6d1a7,
                0x0000000000000000,
                0x3f54349e9753adf1,
                0x3ee2ca60b6767c74,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f54eb65f4a18194,
            kernels: 16,
            counters: [
                48894108, 2500, 678632988, 12144569, 12464640, 2500, 0, 14670, 0, 88488854,
                663808000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_k40 -texture",
        Observed {
            stages: [
                0x3f39be13eec1b691,
                0x3ee735b315f7b078,
                0x3f0be2cd0d253459,
                0x3ecc0aabf8149f72,
                0x3f37b7191d1239b6,
                0x3ee2ca60b6767c74,
                0x3f0d56d2f585d394,
            ],
            dev_time: 0x3f3d8d3c93c1217b,
            kernels: 17,
            counters: [
                14231160, 2500, 147855834, 4970183, 3048960, 2500, 0, 0, 0, 19615494, 140110000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 all",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f0c598e732f3f31,
                0x3ed61e091aaeb080,
                0x3f42afffd1a989c8,
                0x3eed9e42cc33e456,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f4647e6e1639dac,
            kernels: 17,
            counters: [
                14231160, 2500, 141278821, 4970170, 3048960, 2500, 0, 6577, 8093, 18773638,
                125440000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 -vectorize_map",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f1c53dd7dc68823,
                0x3ed61df67f427b90,
                0x3f42afffd1a989c8,
                0x3eed9e42cc33e456,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f480cc984b2a253,
            kernels: 17,
            counters: [
                14495220, 2500, 141278837, 16896896, 3048960, 2500, 0, 6577, 8093, 20299318,
                140110000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 -vectorize_combine",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f0c598e732f3f31,
                0x3ed61e091aaeb080,
                0x3f42afffd1a989c8,
                0x3f10daff28704723,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f47eccdbb40d6fe,
            kernels: 17,
            counters: [
                11890791, 2500, 152662741, 5265091, 3048960, 2500, 0, 6577, 8093, 20219677,
                140407000, 1984,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 -record_stealing",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f0e091e395d18a9,
                0x3ed61e8b5aa42315,
                0x3f42afffd1a989c8,
                0x3eed9e42cc33e456,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f4662e0e2466628,
            kernels: 17,
            counters: [
                14231160, 2500, 141983891, 4970240, 3048960, 0, 0, 5872, 8798, 18863878, 125440000,
                992,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 -aggregate_before_sort",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f0c598e732f3f31,
                0x0000000000000000,
                0x3f59b47aff21492c,
                0x3eed9e42cc33e456,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f5b6a507de3a46e,
            kernels: 16,
            counters: [
                48894108, 2500, 686725988, 12144569, 12464640, 2500, 0, 6577, 8093, 89524758,
                663808000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
    (
        "tesla_m2090 -texture",
        Observed {
            stages: [
                0x3f3a21e0023c4ded,
                0x3ef24a4482fec1e0,
                0x3f15f9518c690afc,
                0x3ed61df67f427b90,
                0x3f42afffd1a989c8,
                0x3eed9e42cc33e456,
                0x3f0d7f41d48bb2fc,
            ],
            dev_time: 0x3f4741780686f2ae,
            kernels: 17,
            counters: [
                14231160, 2500, 147855816, 4970165, 3048960, 2500, 0, 0, 0, 19615494, 140110000, 0,
            ],
            partitions: 0xf2e916829ddb17ab,
        },
    ),
];
