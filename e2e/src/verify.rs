//! Independent references the outputs are checked against, and the
//! hash the simulated fingerprints are built from. Nothing here calls
//! the code path being timed: the wordcount reference is a direct
//! tokenizer count, the BlackScholes reference a closed-form price in
//! `f64` with its own `erf`, and the cluster checks are accounting
//! identities over the returned statistics.

use hetero_cluster::{JobStats, ServiceStats};
use std::collections::HashMap;

pub type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Streaming FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of a job's reducer output, length-prefixed so that pair and
/// partition boundaries are part of the identity.
pub fn output_hash(output: &[Pairs]) -> u64 {
    let mut h = Fnv::new();
    for part in output {
        h.u64(part.len() as u64);
        for (k, v) in part {
            h.u64(k.len() as u64);
            h.bytes(k);
            h.u64(v.len() as u64);
            h.bytes(v);
        }
    }
    h.finish()
}

// ------------------------------------------------------------ wordcount

/// Logical bytes of a fixed-width slot (NUL padding dropped).
fn trim_nul(slot: &[u8]) -> &[u8] {
    let n = slot.iter().position(|&b| b == 0).unwrap_or(slot.len());
    &slot[..n]
}

/// Direct count of every maximal run of `[A-Za-z0-9_']` in `input`.
pub fn wc_reference(input: &[u8]) -> HashMap<Vec<u8>, i64> {
    let mut m: HashMap<Vec<u8>, i64> = HashMap::new();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
    let mut i = 0;
    while i < input.len() {
        if !is_word(input[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < input.len() && is_word(input[i]) {
            i += 1;
        }
        *m.entry(input[start..i].to_vec()).or_insert(0) += 1;
    }
    m
}

/// Word occurrences the job's output gets wrong against `want`: the sum
/// over words of |got − want|, plus one per value that is not a number.
pub fn wc_miscounted(output: &[Pairs], want: &HashMap<Vec<u8>, i64>) -> u64 {
    let mut got: HashMap<&[u8], i64> = HashMap::new();
    let mut bad = 0u64;
    for (k, v) in output.iter().flatten() {
        match std::str::from_utf8(trim_nul(v))
            .ok()
            .and_then(|s| s.trim().parse::<i64>().ok())
        {
            Some(n) => *got.entry(trim_nul(k)).or_insert(0) += n,
            None => bad += 1,
        }
    }
    for (k, &w) in want {
        bad += (got.get(k.as_slice()).copied().unwrap_or(0) - w).unsigned_abs();
    }
    for (k, &g) in &got {
        if !want.contains_key(*k) {
            bad += g.unsigned_abs();
        }
    }
    bad
}

// --------------------------------------------------------- blackscholes

/// erf to ~1e-13: Maclaurin series below |x| = 2.5 (where its
/// alternating terms stay small), the erfc continued fraction above.
/// Independent of the A&S 7.1.26 polynomial the system's C runtime and
/// Rust twin both use (that one is only good to 1.5e-7).
fn erf(x: f64) -> f64 {
    let a = x.abs();
    if a < 2.5 {
        let (mut term, mut sum, mut n) = (x, x, 0.0f64);
        while term.abs() > 1e-17 * sum.abs() {
            n += 1.0;
            term *= -x * x / n;
            sum += term / (2.0 * n + 1.0);
        }
        return sum * std::f64::consts::FRAC_2_SQRT_PI;
    }
    // erfc(a) = e^(-a²)/√π · 1/(a + (1/2)/(a + (2/2)/(a + (3/2)/(a + …))))
    let mut f = a;
    for k in (1..=60).rev() {
        f = a + (f64::from(k) / 2.0) / f;
    }
    let erfc = (-a * a).exp() / (f * std::f64::consts::PI.sqrt());
    x.signum() * (1.0 - erfc)
}

fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x * std::f64::consts::FRAC_1_SQRT_2))
}

fn call_price(spot: f64, strike: f64, rate: f64, vol: f64, t: f64) -> f64 {
    let d1 = ((spot / strike).ln() + (rate + 0.5 * vol * vol) * t) / (vol * t.sqrt());
    let d2 = d1 - vol * t.sqrt();
    spot * norm_cdf(d1) - strike * (-rate * t).exp() * norm_cdf(d2)
}

/// Reference price per option id for the BlackScholes benchmark: the
/// mean call price over its 128-step volatility sweep
/// (`vol · (1 + 0.001·i)`), from the record text
/// `id spot strike rate vol t`.
pub fn bs_reference(input: &[u8]) -> HashMap<u64, f64> {
    let mut m = HashMap::new();
    for line in input.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let f: Vec<f64> = std::str::from_utf8(line)
            .expect("generated options are ASCII")
            .split_whitespace()
            .map(|t| t.parse().expect("generated options are numeric"))
            .collect();
        let mean = (0..128)
            .map(|i| call_price(f[1], f[2], f[3], f[4] * (1.0 + 0.001 * f64::from(i)), f[5]))
            .sum::<f64>()
            / 128.0;
        m.insert(f[0] as u64, mean);
    }
    m
}

/// Options the job priced wrongly: ids missing, present more than once,
/// unknown, or with |price − reference| ≥ 1e-3. Keys may carry the Rust
/// twin's `opt` prefix and zero padding.
pub fn bs_mispriced(output: &[Pairs], want: &HashMap<u64, f64>) -> u64 {
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut bad = 0u64;
    for (k, v) in output.iter().flatten() {
        let id = std::str::from_utf8(trim_nul(k))
            .ok()
            .and_then(|s| s.trim_start_matches("opt").parse::<u64>().ok());
        let price = std::str::from_utf8(trim_nul(v))
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok());
        match (id, price) {
            (Some(id), Some(p)) if want.get(&id).is_some_and(|w| (p - w).abs() < 1e-3) => {
                *seen.entry(id).or_insert(0) += 1;
            }
            _ => bad += 1,
        }
    }
    for id in want.keys() {
        match seen.get(id) {
            Some(1) => {}
            Some(n) => bad += u64::from(n - 1),
            None => bad += 1,
        }
    }
    bad
}

// -------------------------------------------------------------- cluster

/// Hash of every public field of a DES run, floats by their bits — the
/// same identity `JobStats::fingerprint()` renders as text, without
/// materialising ~100 bytes per attempt (80 MB at 800 k attempts, which
/// would show up in `peak_rss_mb`).
pub fn jobstats_hash(st: &JobStats) -> u64 {
    let mut h = Fnv::new();
    h.bytes(st.name.as_bytes());
    for v in [
        st.makespan_s,
        st.map_phase_s,
        st.gpu_busy_s,
        st.max_speedup_seen,
        st.speculative_wasted_s,
        st.wasted_work_s,
    ] {
        h.f64(v);
    }
    for v in [
        st.node_local,
        st.rack_local,
        st.off_rack,
        st.failed_attempts,
        st.re_executed,
        st.speculative_attempts,
        st.nodes_lost,
        st.gpu_faults_seen,
        st.checksum_failures,
        st.reduce_attempts_lost,
        st.jobtracker_crashes_seen,
        st.nodes_readmitted,
        st.heartbeats_lost,
    ] {
        h.u64(u64::from(v));
    }
    h.u64(st.journal_records);
    h.u64(st.journal_snapshots);
    h.u64(u64::from(st.aborted));
    h.u64(st.completed_reduces() as u64);
    for &(n, t) in &st.node_loss_detected {
        h.u64(u64::from(n));
        h.f64(t);
    }
    for &(t, n) in &st.jobtracker_recoveries {
        h.f64(t);
        h.u64(n);
    }
    for t in &st.tasks {
        h.u64(u64::from(t.id));
        h.u64(u64::from(t.attempt));
        h.u64(u64::from(t.node));
        h.u64(t.device as u64);
        h.u64(u64::from(t.speculative));
        h.f64(t.start_s);
        h.u64(t.end_s.map_or(u64::MAX, f64::to_bits));
        h.u64(t.outcome as u64);
    }
    h.finish()
}

/// Map tasks of a DES run that did not verifiably complete: tasks with
/// no succeeded attempt — all of them if the job aborted.
pub fn des_failed_tasks(st: &JobStats, tasks: usize) -> u64 {
    if st.aborted {
        return tasks as u64;
    }
    let mut done = vec![false; tasks];
    for t in st.tasks.iter().filter(|t| t.succeeded()) {
        if let Some(d) = done.get_mut(t.id as usize) {
            *d = true;
        }
    }
    done.iter().filter(|d| !**d).count() as u64
}

/// Hash of a service run: every job's lifecycle times and inner DES
/// hash, every rejection, and the utilization summary.
pub fn service_hash(st: &ServiceStats) -> u64 {
    let mut h = Fnv::new();
    for j in &st.jobs {
        h.bytes(j.name.as_bytes());
        h.u64(u64::from(j.tenant));
        h.f64(j.arrive_s);
        h.f64(j.start_s);
        h.f64(j.finish_s);
        h.u64(u64::from(j.grant_nodes));
        h.u64(jobstats_hash(&j.stats));
    }
    for r in &st.rejections {
        h.bytes(r.name.as_bytes());
        h.bytes(r.reason.as_bytes());
        h.f64(r.arrive_s);
    }
    h.f64(st.mean_utilization);
    h.f64(st.makespan_s);
    h.finish()
}

/// Submitted jobs the service lost track of or finished impossibly
/// early: `submitted − completed − rejected`, plus completed jobs whose
/// start precedes their arrival or whose finish precedes their start.
pub fn service_failed_jobs(st: &ServiceStats, submitted: usize) -> u64 {
    let accounted = st.jobs.len() + st.rejections.len();
    let lost = submitted.abs_diff(accounted) as u64;
    let impossible = st
        .jobs
        .iter()
        .filter(|j| j.start_s < j.arrive_s || j.finish_s < j.start_s)
        .count() as u64;
    lost + impossible
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(k: &str, v: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    #[test]
    fn erf_matches_known_values() {
        for (x, want) in [
            (0.0, 0.0),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (-1.0, -0.842_700_792_949_714_9),
            (3.5, 0.999_999_256_901_627_7),
        ] {
            assert!((erf(x) - want).abs() < 1e-12, "erf({x}) = {}", erf(x));
        }
        assert_eq!(erf(7.0), 1.0);
    }

    #[test]
    fn textbook_call_price() {
        // S=100, K=100, r=5%, sigma=20%, T=1 -> 10.4506.
        assert!((call_price(100.0, 100.0, 0.05, 0.2, 1.0) - 10.450_583_572).abs() < 1e-6);
    }

    #[test]
    fn wc_reference_counts_and_miscounts() {
        let want = wc_reference(b"the cat's the_end  the\nthe 42");
        assert_eq!(want[&b"the"[..]], 3);
        assert_eq!(want[&b"cat's"[..]], 1);
        assert_eq!(want[&b"the_end"[..]], 1);
        assert_eq!(want.len(), 4);
        let good = vec![
            vec![kv("the", "2"), kv("cat's", "1")],
            vec![kv("the\0\0", "1\0"), kv("the_end", "1"), kv("42", "1")],
        ];
        assert_eq!(wc_miscounted(&good, &want), 0);
        let short = vec![vec![kv("the", "2"), kv("cat's", "1"), kv("the_end", "1")]];
        assert_eq!(wc_miscounted(&short, &want), 2); // one "the", one "42"
        let extra = vec![vec![kv("dog", "5"), kv("the", "x")]];
        assert_eq!(wc_miscounted(&extra, &want), 5 + 1 + 3 + 1 + 1 + 1);
    }

    #[test]
    fn bs_reference_flags_missing_duplicate_and_wrong() {
        let input = b"0 100.00 100.00 0.0500 0.200 1.00\n7 50.00 60.00 0.0300 0.400 0.50\n";
        let want = bs_reference(input);
        assert_eq!(want.len(), 2);
        let p0 = format!("{:.6}", want[&0]);
        let p7 = format!("{:.6}", want[&7]);
        assert_eq!(
            bs_mispriced(&[vec![kv("0", &p0), kv("opt000007", &p7)]], &want),
            0
        );
        assert_eq!(bs_mispriced(&[vec![kv("0", &p0)]], &want), 1);
        assert_eq!(
            bs_mispriced(&[vec![kv("0", &p0), kv("0", &p0), kv("7", &p7)]], &want),
            1
        );
        assert_eq!(
            bs_mispriced(&[vec![kv("0", "1.0"), kv("7", &p7)]], &want),
            2 // wrong price: one bad pair, and id 0 never correctly priced
        );
    }

    #[test]
    fn output_hash_sees_boundaries() {
        let a = vec![vec![kv("ab", "c")]];
        let b = vec![vec![kv("a", "bc")]];
        let c = vec![vec![], vec![kv("ab", "c")]];
        assert_ne!(output_hash(&a), output_hash(&b));
        assert_ne!(output_hash(&a), output_hash(&c));
        assert_eq!(output_hash(&a), output_hash(&a.clone()));
    }
}
