//! The wall-clock micro record: the ratios the `e2e` ledger cannot see
//! (it times whole jobs on one engine and one index), the
//! two `hetero-runtime` primitives ROADMAP item 4 works on, the host
//! cost of one `hetero-gpusim` warp round and `hetero-hdfs`'s per-byte
//! checksum cost.
//!
//! The sides of a case are timed **interleaved** — slow, fast, slow,
//! fast … — so host drift lands on both alike. Each side's first call is
//! the warm-up and is left out; the rest are digested to min / q1 /
//! median / q3, and a pair's ratio is median(slow) ÷ median(fast).
//! Writes `micro.json`: `results/` from a full run, `target/results/`
//! from `--quick` (one timed call a side), and prints the record as a
//! markdown table. `--markdown FILE` instead renders a `micro.json` as
//! that table: `results/micro.md`, which EXPERIMENTS.md quotes. The
//! record also carries the bytecode VM's exact dispatch counts on
//! Wordcount (this crate builds `hetero-cc` with `dispatch-count`).
use hetero_apps::common::words;
use hetero_bench::{nproc, write_artifact, Args};
use hetero_cc::backend::BackendKind::{Interp, Native};
use hetero_cc::backend::{dispatches, make_backend};
use hetero_cc::interp::StreamIo;
use hetero_cluster::{simulate, simulate_reference, ClusterConfig, JobSpec, JobStats, Scheduler};
use hetero_gpusim::{Access, BlockCtx, Device, GpuSpec, LaneCtx};
use hetero_runtime::aggregate::unaggregated_partitions;
use hetero_runtime::{kvstore::KvStore, scan::exclusive_scan, sort::sort_partition};
use hetero_trace::json::{self, Json};
use std::hint::black_box;
use std::time::Instant;

/// One side of a case: its name and the work of one call, owning its
/// inputs. A case lists its slow side first.
type Side = (&'static str, Box<dyn FnMut()>);

/// A side; the result of each call is kept from the optimizer, then dropped.
fn side<T>(name: &'static str, mut work: impl FnMut() -> T + 'static) -> Side {
    (name, Box::new(move || drop(black_box(work()))))
}

/// Quantile `p` of `sorted` by linear interpolation between the two
/// closest ranks, at position `p · (n − 1)`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// `[min, q1, median, q3]` of one side's call times (seconds, call
/// order); `samples[0]` is the warm-up and is excluded.
fn digest(samples: &[f64]) -> [f64; 4] {
    let mut timed = samples[1..].to_vec();
    timed.sort_by(f64::total_cmp);
    [0.0, 0.25, 0.5, 0.75].map(|p| quantile(&timed, p))
}

/// One case of the record from each side's call times: a row a side
/// and, for a pair, ratio = median(slow) ÷ median(fast).
fn entry(case: &str, sides: &[(&str, Vec<f64>)]) -> Json {
    let row = |(id, samples): &(&str, Vec<f64>)| {
        let head = Json::obj().with("id", *id).with("calls", samples.len() - 1);
        let keys = ["min_s", "q1_s", "median_s", "q3_s"];
        keys.iter()
            .zip(digest(samples))
            .fold(head, |row, (k, v)| row.with(k, v))
    };
    let rows = Json::arr(sides.iter().map(row));
    let entry = Json::obj().with("case", case).with("sides", rows);
    match sides {
        [(_, slow), (_, fast)] => entry.with("ratio", digest(slow)[2] / digest(fast)[2]),
        _ => entry,
    }
}

/// Time `sides` round-robin: a warm-up round, then `calls` timed rounds.
fn time(calls: usize, mut sides: Vec<Side>) -> Vec<(&'static str, Vec<f64>)> {
    let mut samples: Vec<_> = sides.iter().map(|(name, _)| (*name, Vec::new())).collect();
    for _ in 0..=calls {
        for ((_, work), (_, out)) in sides.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            work();
            out.push(start.elapsed().as_secs_f64());
        }
    }
    samples
}

fn secs(s: f64) -> String {
    match s {
        s if s >= 1.0 => format!("{s:.2} s"),
        s if s >= 1e-3 => format!("{:.2} ms", s * 1e3),
        s => format!("{:.1} µs", s * 1e6),
    }
}

/// A parsed `micro.json` as one table, a line a case. A pair with fewer
/// than 5 timed calls a side, or whose [q1, q3] ranges overlap, is
/// *unresolved*, not a speedup. `None` when `doc` is not a `micro.json`.
fn markdown(doc: &Json) -> Option<String> {
    let num = |row: &Json, key: &str| row.get(key)?.as_f64();
    let cell = |r: &Json| {
        let (q1, q3) = (secs(num(r, "q1_s")?), secs(num(r, "q3_s")?));
        Some(format!("{} [{q1}, {q3}]", secs(num(r, "median_s")?)))
    };
    let mut out = format!(
        "Host `nproc` = {}; times are median [q1, q3] over the timed calls.\n\n\
         | case | calls a side | slow side | fast side | slow ÷ fast |\n|---|---|---|---|---|\n",
        doc.get("nproc")?.as_u64()?
    );
    for entry in doc.get("cases")?.as_arr()? {
        let (case, sides) = (entry.get("case")?.as_str()?, entry.get("sides")?.as_arr()?);
        let (slow, calls) = (sides.first()?, sides.first()?.get("calls")?.as_u64()?);
        let (slow_name, s) = (format!("{case}/{}", slow.get("id")?.as_str()?), cell(slow)?);
        out += &match sides.get(1) {
            None => format!("| `{slow_name}` | {calls} | {s} | — | — |\n"),
            Some(fast) => {
                let apart = num(fast, "q3_s")? < num(slow, "q1_s")?
                    || num(slow, "q3_s")? < num(fast, "q1_s")?;
                let verdict = match calls >= 5 && apart {
                    true => format!("**{:.2}×**", num(entry, "ratio")?),
                    false => "*unresolved*".to_string(),
                };
                let (fast_id, f) = (fast.get("id")?.as_str()?, cell(fast)?);
                format!("| `{slow_name}` vs `{fast_id}` | {calls} | {s} | {f} | {verdict} |\n")
            }
        };
    }
    if let Some(d) = doc.get("dispatches") {
        out += &format!(
            "\nBytecode VM dispatches (exact): {:.1} a Wordcount mapper record, \
             {:.2} a Wordcount combiner pair.\n",
            num(d, "wc_mapper_per_record")?,
            num(d, "wc_combiner_per_pair")?
        );
    }
    Some(out)
}

/// Benchmark `code`'s annotated C mapper over `records` generated
/// records, one run a record, on the interpreter and on the bytecode
/// engine. Both charge identical stats.
fn mapper(code: &str, records: usize) -> Vec<Side> {
    let app = hetero_apps::app_by_code(code).unwrap();
    let on = |name, kind| {
        let backend = make_backend(kind, &hetero_cc::parse::parse(app.mapper_source()).unwrap());
        let split = app.generate_split(records, 7);
        let run = move |line: &[u8]| backend.run(&mut StreamIo::lines(vec![line.to_vec()]));
        side(name, move || {
            let lines = split.split(|&b| b == b'\n').filter(|l| !l.is_empty());
            lines.map(|l| run(l).unwrap().ops).sum::<u64>()
        })
    };
    vec![on("interp", Interp), on("native", Native)]
}

/// The instructions the bytecode VM dispatches for a Wordcount record
/// through the C mapper (`records` generated records, seed 7, a run a
/// record) and for a pair through the C combiner (one run over those
/// records' pairs, sorted by key). Exact: the same on every host.
fn wc_dispatches(records: usize) -> Json {
    let app = hetero_apps::app_by_code("WC").unwrap();
    let compile = |src| make_backend(Native, &hetero_cc::parse::parse(src).unwrap());
    let mapper = compile(app.mapper_source());
    let combiner = compile(app.combiner_source().expect("WC has a combiner"));
    let split = app.generate_split(records, 7);
    let (mut pairs, mut lines) = (Vec::new(), 0);
    let start = dispatches();
    for line in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let mut io = StreamIo::lines(vec![line.to_vec()]);
        mapper.run(&mut io).unwrap();
        pairs.extend(io.emitted_kvs());
        lines += 1;
    }
    let map = dispatches() - start;
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let npairs = pairs.len();
    let start = dispatches();
    combiner.run(&mut StreamIo::kvs(pairs)).unwrap();
    let combine = dispatches() - start;
    Json::obj()
        .with("wc_mapper_per_record", map as f64 / lines as f64)
        .with("wc_combiner_per_pair", combine as f64 / npairs as f64)
}

/// CRC-32 of `records` generated Wordcount records (seed 7; 225 000 is
/// `wc_rust_gpu`'s 7.25 MB input), bit by bit vs `hetero_hdfs::crc32`'s
/// tables. Both give the same checksum.
fn crc32(records: usize) -> Vec<Side> {
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }
    let input = hetero_apps::app_by_code("WC")
        .unwrap()
        .generate_split(records, 7);
    assert_eq!(bitwise(&input), hetero_hdfs::crc32(&input));
    let over = |name, crc: fn(&[u8]) -> u32| {
        let input = input.clone();
        side(name, move || crc(&input))
    };
    vec![over("bitwise", bitwise), over("table", hetero_hdfs::crc32)]
}

/// One `TailScheduling` job of 100 maps a node on `cfg`, through the
/// scan index and through `Indexed`.
fn des(cfg: ClusterConfig, cpu_s: f64, gpu_s: f64) -> Vec<Side> {
    let nodes = cfg.num_slaves;
    let job = JobSpec::uniform("micro", nodes * 100, nodes, 3, cpu_s, gpu_s);
    let via = |name, run: fn(&ClusterConfig, &JobSpec) -> JobStats| {
        let (cfg, job) = (cfg.clone(), job.clone());
        side(name, move || run(&cfg, &job))
    };
    vec![via("scan", simulate_reference), via("index", simulate)]
}

/// Indirection sort of `n` keys through an index array with 7/8
/// whitespace entries vs a dense (aggregated) one — the Fig. 7e
/// mechanism at wall-clock level. The keys are 10 bytes, so both sides
/// sort by the 16-byte integer key.
fn sort(n: usize) -> Vec<Side> {
    let indexed = |name, index_len| {
        let dev = Device::new(GpuSpec::tesla_k40());
        let mut store = KvStore::new(1, n, 16, 4, 1);
        for i in 0..n {
            let key = format!("key-{:06}", (i * 2654435761) % n);
            store.emit(0, key.as_bytes(), b"1");
        }
        let mut index: Vec<u32> = (0..n as u32).collect();
        index.resize(index_len, u32::MAX);
        side(name, move || sort_partition(&dev, &store, &index).unwrap())
    };
    vec![indexed("whitespace", n * 8), indexed("aggregated", n)]
}

/// The 48 partitions of one Wordcount split's pairs (the words of
/// `records` generated records, seed 7: Zipf duplicates), each sorted in
/// turn. The same words sort with a 17-byte suffix, past the 16-byte
/// integer key (the integer key, then whole slots within each run of
/// equal integers), and as they are, ≤ 16 bytes (the integer key alone).
fn sort_wc(records: usize) -> Vec<Side> {
    let split = hetero_apps::app_by_code("WC")
        .unwrap()
        .generate_split(records, 7);
    let tokens: Vec<&[u8]> = split.split(|&b| b == b'\n').flat_map(words).collect();
    let keyed = |name, suffix: &[u8]| {
        let dev = Device::new(GpuSpec::tesla_k40());
        let mut store = KvStore::new(1, tokens.len(), 30, 8, 48);
        for w in &tokens {
            assert!(store.emit(0, &[w, suffix].concat(), b"1"));
        }
        let parts = unaggregated_partitions(&store);
        side(name, move || {
            let sort = |idx: &Vec<u32>| sort_partition(&dev, &store, idx).unwrap().order.len();
            parts.iter().map(sort).sum::<usize>()
        })
    };
    vec![
        keyed("long_keys", b"-seventeen-bytes!"),
        keyed("short_keys", b""),
    ]
}

fn scan(n: u32) -> Vec<Side> {
    let dev = Device::new(GpuSpec::tesla_k40());
    let data: Vec<u32> = (0..n).map(|i| i % 17).collect();
    vec![side("k40", move || exclusive_scan(&dev, &data).unwrap())]
}

/// 10 000 warp rounds of the `e2e` launch probe's shape (4 ALU + one
/// coalesced 4-byte load a lane; 50 blocks × 200 rounds), charged lane
/// by lane and as one lane class: a call's time ÷ 10⁴ is the host cost
/// of a round. Both sides charge the same bits.
fn warp_rounds() -> Vec<Side> {
    fn probe(t: &mut LaneCtx<'_>) {
        t.alu(4);
        t.gld(4, Access::Coalesced);
    }
    let spelt = |name, rounds: fn(&mut BlockCtx<'_>)| {
        let dev = Device::new(GpuSpec::tesla_k40());
        side(name, move || {
            dev.launch_named("micro_probe_kernel", 128, vec![(); 50], |blk, ()| {
                (0..200).for_each(|_| rounds(blk));
                Ok(())
            })
            .unwrap()
        })
    };
    vec![
        spelt("per_lane", |blk| {
            blk.warp_round(|_, t| probe(t));
        }),
        spelt("lane_class", |blk| {
            blk.uniform_rounds(1, probe);
        }),
    ]
}

fn main() {
    let args = Args::from_env(&["--quick", "--markdown="]);
    if let Some(file) = args.flag_value::<String>("--markdown") {
        let text = std::fs::read_to_string(&file).map_err(|e| e.to_string());
        let table = text.and_then(|t| markdown(&json::parse(&t)?).ok_or("not a micro.json".into()));
        return match table {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("error: {file}: {e}");
                std::process::exit(1)
            }
        };
    }
    let quick = args.flag("--quick");
    // The paper's cluster (48 nodes × 20 map slots, 40 s / 4 s maps) and
    // the scale sweep's shape (`--bin scale`) at 1 000 nodes.
    let mut paper = ClusterConfig::small(48, Scheduler::TailScheduling);
    paper.map_slots_per_node = 20;
    let mut large = ClusterConfig::small(1_000, Scheduler::TailScheduling);
    large.map_slots_per_node = 4;
    large.nodes_per_rack = 16;
    large.heartbeat_s = 1.0;
    // (case, timed calls a side in a full run, sides).
    let cases = [
        ("wc_mapper_400", 40, mapper("WC", 400)),
        ("bs_mapper_50", 40, mapper("BS", 50)),
        ("crc32_wc", 40, crc32(225_000)),
        ("des_48", 40, des(paper, 40.0, 4.0)),
        ("des_1k", 5, des(large, 8.0, 1.0)),
        ("sort_10k", 40, sort(10_000)),
        ("sort_wc_48", 40, sort_wc(8_000)),
        ("exclusive_scan_65536", 40, scan(65_536)),
        ("warp_round_10k", 40, warp_rounds()),
    ];
    let run = |(case, calls, sides)| entry(case, &time(if quick { 1 } else { calls }, sides));
    let doc = Json::obj().with("artifact", "micro").with("nproc", nproc());
    let doc = doc.with("cases", Json::arr(cases.into_iter().map(run)));
    let doc = doc.with("dispatches", wc_dispatches(400));
    print!("{}", markdown(&doc).expect("own record renders"));
    write_artifact("micro.json", !quick, &doc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_excludes_the_warm_up_and_interpolates_quartiles() {
        // Odd count: q1, median, q3 fall on ranks 1, 2, 3 of 0..=4.
        let odd = digest(&[99.0, 5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd, [1.0, 2.0, 3.0, 4.0]);
        // Even count: positions 0.75, 1.5, 2.25 — between ranks.
        let even = digest(&[0.001, 40.0, 10.0, 30.0, 20.0]);
        assert_eq!(even, [10.0, 17.5, 25.0, 32.5]);
        // One timed call (`--quick`): every statistic is that call.
        assert_eq!(digest(&[9.0, 2.0]), [2.0; 4]);
    }

    #[test]
    fn ratio_is_median_slow_over_median_fast_and_overlap_is_unresolved() {
        let pair = |case, slow: &[f64], fast: &[f64]| {
            entry(case, &[("slow", slow.to_vec()), ("fast", fast.to_vec())])
        };
        let cases = vec![
            pair("g", &[0.0, 6.0, 8.0, 7.0, 8.0, 6.0], &[2.0; 6]),
            pair("h", &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2.5; 6]),
            pair("q", &[0.0, 9.0], &[0.0, 1.0]),
            entry("solo", &[("x", vec![0.0, 1.0])]),
        ];
        let ratio = |c: &Json| c.get("ratio").and_then(Json::as_f64);
        let ratios: Vec<_> = cases.iter().map(ratio).collect();
        assert_eq!(ratios, [Some(3.5), Some(1.2), Some(9.0), None]);
        let doc = Json::obj().with("nproc", 2u64);
        let table = "\
| `g/slow` vs `fast` | 5 | 7.00 s [6.00 s, 8.00 s] | 2.00 s [2.00 s, 2.00 s] | **3.50×** |
| `h/slow` vs `fast` | 5 | 3.00 s [2.00 s, 4.00 s] | 2.50 s [2.50 s, 2.50 s] | *unresolved* |
| `q/slow` vs `fast` | 1 | 9.00 s [9.00 s, 9.00 s] | 1.00 s [1.00 s, 1.00 s] | *unresolved* |
| `solo/x` | 1 | 1.00 s [1.00 s, 1.00 s] | — | — |
";
        let md = markdown(&doc.with("cases", Json::Arr(cases))).unwrap();
        let (_header, lines) = md.split_once("|---|---|---|---|---|\n").unwrap();
        assert_eq!(lines, table);
        assert_eq!(markdown(&Json::obj().with("nproc", 2u64)), None);
    }
}
