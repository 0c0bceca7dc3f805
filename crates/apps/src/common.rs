//! The benchmark-application interface and shared building blocks.

use hetero_runtime::types::{trim_key, Combiner, Emit, Mapper, OpCount, Reducer};

/// IO- or compute-intensive, the paper's Table 2 classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intensiveness {
    /// Bound by input/output volume.
    Io,
    /// Bound by per-record computation.
    Compute,
}

/// Static description of a benchmark (the columns of Table 2).
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Full name, e.g. `"Wordcount"`.
    pub name: &'static str,
    /// Two-letter code the paper uses (WC, GR, ...).
    pub code: &'static str,
    /// Percent of job time the map+combine phases are active (Table 2).
    pub pct_map_combine: u32,
    /// IO or compute intensive.
    pub intensiveness: Intensiveness,
    /// Whether the app has a combiner.
    pub has_combiner: bool,
    /// Map-only job (BlackScholes).
    pub map_only: bool,
    /// Emitted key slot width for the GPU KV store.
    pub key_len: usize,
    /// Emitted value slot width.
    pub val_len: usize,
    /// Shared read-only data footprint in bytes (0 if none).
    pub ro_bytes: u64,
    /// Reduce tasks on Cluster1 / Cluster2 (Table 2).
    pub reduce_tasks: (u32, u32),
    /// Map tasks on Cluster1 / Cluster2. `None` = not run (KM exceeds
    /// Cluster2's GPU memory).
    pub map_tasks: (u32, Option<u32>),
    /// Input sizes in GB on Cluster1 / Cluster2.
    pub input_gb: (f64, Option<f64>),
    /// Expected KV pairs emitted per record (the natural `kvpairs` hint).
    pub kvpairs_per_record: usize,
}

/// A complete benchmark: data generation, native map/combine/reduce
/// implementations, and the annotated mini-C sources the HeteroDoop
/// compiler consumes.
pub trait App: Sync + Send {
    /// Static description.
    fn spec(&self) -> &AppSpec;
    /// Native mapper.
    fn mapper(&self) -> Box<dyn Mapper>;
    /// Native combiner (None when Table 2 says the app has none).
    fn combiner(&self) -> Option<Box<dyn Combiner>>;
    /// Native reducer (CPU-only in HeteroDoop).
    fn reducer(&self) -> Option<Box<dyn Reducer>>;
    /// Generate one fileSplit's worth of input with `records` records.
    fn generate_split(&self, records: usize, seed: u64) -> Vec<u8>;
    /// The annotated C map program (Listing-1 style).
    fn mapper_source(&self) -> &'static str;
    /// The annotated C combine program (Listing-2 style), if any.
    fn combiner_source(&self) -> Option<&'static str>;
}

/// One row of the benchmark table: Table 2's columns, the annotated C
/// sources, and beside them the hand-written Rust twin of each kernel —
/// the column ROADMAP item 4 retires row by row.
pub(crate) struct Benchmark {
    pub(crate) spec: AppSpec,
    pub(crate) mapper_c: &'static str,
    pub(crate) combiner_c: Option<&'static str>,
    pub(crate) twin_mapper: fn() -> Box<dyn Mapper>,
    pub(crate) twin_combiner: Option<fn() -> Box<dyn Combiner>>,
    pub(crate) reducer: Option<fn() -> Box<dyn Reducer>>,
    pub(crate) generate: fn(usize, u64) -> Vec<u8>,
}

impl App for Benchmark {
    fn spec(&self) -> &AppSpec {
        &self.spec
    }
    fn mapper(&self) -> Box<dyn Mapper> {
        (self.twin_mapper)()
    }
    fn combiner(&self) -> Option<Box<dyn Combiner>> {
        self.twin_combiner.map(|make| make())
    }
    fn reducer(&self) -> Option<Box<dyn Reducer>> {
        self.reducer.map(|make| make())
    }
    fn generate_split(&self, records: usize, seed: u64) -> Vec<u8> {
        (self.generate)(records, seed)
    }
    fn mapper_source(&self) -> &'static str {
        self.mapper_c
    }
    fn combiner_source(&self) -> Option<&'static str> {
        self.combiner_c
    }
}

/// Parse an ASCII integer value slot: the trimmed text as an `i64`, 0
/// when it is not one. A bare run of up to 18 digits cannot overflow and
/// is folded directly.
pub fn parse_i64(v: &[u8]) -> i64 {
    let v = trim_key(v);
    if (1..=18).contains(&v.len()) && v.iter().all(u8::is_ascii_digit) {
        return v.iter().fold(0, |n, &d| n * 10 + (d - b'0') as i64);
    }
    String::from_utf8_lossy(v).trim().parse().unwrap_or(0)
}

/// Parse an ASCII float value slot.
pub fn parse_f64(v: &[u8]) -> f64 {
    String::from_utf8_lossy(trim_key(v))
        .trim()
        .parse()
        .unwrap_or(0.0)
}

/// The word tokenizer all text apps share — mirrors the C runtime's
/// `getWord`: maximal runs of `[A-Za-z0-9_']`.
pub fn words(record: &[u8]) -> impl Iterator<Item = &[u8]> {
    record
        .split(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\''))
        .filter(|w| !w.is_empty())
}

/// Integer-summing combiner over sorted textual KV runs — the Listing 2
/// combiner, shared by WC, GR, HS and HR.
pub struct IntSumCombiner;

impl Combiner for IntSumCombiner {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let mut prev: Option<Vec<u8>> = None;
        let mut acc: i64 = 0;
        for (k, v) in run {
            out.charge(OpCount::new(k.len() as u64 + 2, 0));
            let val = parse_i64(v);
            match &prev {
                Some(p) if p.as_slice() == *k => acc += val,
                Some(p) => {
                    let key = p.clone();
                    out.emit(&key, acc.to_string().as_bytes());
                    prev = Some(k.to_vec());
                    acc = val;
                }
                None => {
                    prev = Some(k.to_vec());
                    acc = val;
                }
            }
        }
        if let Some(p) = prev {
            out.emit(&p, acc.to_string().as_bytes());
        }
    }
}

/// Float-summing combiner (linear regression partial sums).
pub struct FloatSumCombiner;

impl Combiner for FloatSumCombiner {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let mut prev: Option<Vec<u8>> = None;
        let mut acc: f64 = 0.0;
        for (k, v) in run {
            out.charge(OpCount::new(k.len() as u64 + 4, 0));
            let val = parse_f64(v);
            match &prev {
                Some(p) if p.as_slice() == *k => acc += val,
                Some(p) => {
                    let key = p.clone();
                    out.emit(&key, format!("{acc:.6}").as_bytes());
                    prev = Some(k.to_vec());
                    acc = val;
                }
                None => {
                    prev = Some(k.to_vec());
                    acc = val;
                }
            }
        }
        if let Some(p) = prev {
            out.emit(&p, format!("{acc:.6}").as_bytes());
        }
    }
}

/// Integer-summing reducer (the global, exact aggregation).
pub struct IntSumReducer;

impl Reducer for IntSumReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8])) {
        let total: i64 = values.iter().map(|v| parse_i64(v)).sum();
        out(key, total.to_string().as_bytes());
    }
}

/// Float-summing reducer.
pub struct FloatSumReducer;

impl Reducer for FloatSumReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8])) {
        let total: f64 = values.iter().map(|v| parse_f64(v)).sum();
        out(key, format!("{total:.6}").as_bytes());
    }
}

/// The Listing 2 combine source, reused verbatim by the integer-summing
/// apps.
pub const INT_SUM_COMBINER_C: &str = r#"
int main()
{
  char word[30], prevWord[30]; prevWord[0] = '\0';
  int count, val, read; count = 0;
  #pragma mapreduce combiner key(prevWord) value(count) \
    keyin(word) valuein(val) keylength(30) vallength(1) \
    firstprivate(prevWord, count)
  {
    while( (read = scanf("%s %d", word, &val)) == 2 ) {
      if(strcmp(word, prevWord) == 0 ) {
        count += val;
      } else {
        if(prevWord[0] != '\0')
          printf("%s\t%d\n", prevWord, count);
        strcpy(prevWord, word);
        count = val;
      }
    }
    if(prevWord[0] != '\0')
      printf("%s\t%d\n", prevWord, count);
  }
  return 0;
}
"#;

/// Float-summing combine source (linear regression).
pub const FLOAT_SUM_COMBINER_C: &str = r#"
int main()
{
  char key[30], prevKey[30]; prevKey[0] = '\0';
  double sum, val; int read; sum = 0.0;
  #pragma mapreduce combiner key(prevKey) value(sum) \
    keyin(key) valuein(val) keylength(30) vallength(8) \
    firstprivate(prevKey, sum)
  {
    while( (read = scanf("%s %lf", key, &val)) == 2 ) {
      if(strcmp(key, prevKey) == 0 ) {
        sum += val;
      } else {
        if(prevKey[0] != '\0')
          printf("%s\t%.6f\n", prevKey, sum);
        strcpy(prevKey, key);
        sum = val;
      }
    }
    if(prevKey[0] != '\0')
      printf("%s\t%.6f\n", prevKey, sum);
  }
  return 0;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_runtime::types::VecEmit;

    #[test]
    fn int_sum_combiner_sums_runs() {
        let run: Vec<(&[u8], &[u8])> = vec![(b"a", b"1"), (b"a", b"2"), (b"b", b"5")];
        let mut out = VecEmit::default();
        IntSumCombiner.combine(&run, &mut out);
        assert_eq!(
            out.pairs,
            vec![
                (b"a".to_vec(), b"3".to_vec()),
                (b"b".to_vec(), b"5".to_vec())
            ]
        );
    }

    #[test]
    fn float_sum_combiner_sums_runs() {
        let run: Vec<(&[u8], &[u8])> = vec![(b"x", b"1.5"), (b"x", b"2.25")];
        let mut out = VecEmit::default();
        FloatSumCombiner.combine(&run, &mut out);
        assert_eq!(out.pairs.len(), 1);
        assert!((parse_f64(&out.pairs[0].1) - 3.75).abs() < 1e-9);
    }

    #[test]
    fn words_matches_c_getword_semantics() {
        let w: Vec<&[u8]> = words(b"don't stop_me now! 42").collect();
        assert_eq!(w, vec![&b"don't"[..], b"stop_me", b"now", b"42"]);
    }

    /// What `parse_i64` returned before its digit fast path: the oracle.
    fn parse_i64_via_string(v: &[u8]) -> i64 {
        String::from_utf8_lossy(trim_key(v))
            .trim()
            .parse()
            .unwrap_or(0)
    }

    #[test]
    fn parse_i64_reads_the_i64_limits_and_rejects_past_them() {
        for text in [
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "+9223372036854775807",
            "999999999999999999",
            "0000000000000000001",
            "",
            "0",
        ] {
            assert_eq!(
                parse_i64(text.as_bytes()),
                parse_i64_via_string(text.as_bytes()),
                "{text:?}"
            );
        }
        assert_eq!(parse_i64(b"9223372036854775807"), i64::MAX);
        assert_eq!(parse_i64(b"-9223372036854775808"), i64::MIN);
    }

    proptest::proptest! {
        /// A run of 1–20 digits (past `i64` from 19 on) behind and before
        /// signs, spaces, NUL padding and non-UTF-8 bytes parses as the
        /// `String` path does.
        #[test]
        fn parse_i64_matches_the_string_parse(
            head in proptest::collection::vec(0u8..8, 0..3),
            digits in proptest::collection::vec(b'0'..=b'9', 1..21),
            tail in proptest::collection::vec(0u8..8, 0..3),
        ) {
            const AROUND: [u8; 8] = [b' ', b'\t', b'+', b'-', 0, 0xFF, 0xC3, b'x'];
            let around = |picks: &[u8]| picks.iter().map(|&c| AROUND[c as usize]).collect::<Vec<_>>();
            let v = [around(&head), digits, around(&tail)].concat();
            proptest::prop_assert_eq!(parse_i64(&v), parse_i64_via_string(&v), "{:?}", v);
        }

        /// Any bytes at all parse as the `String` path does.
        #[test]
        fn parse_i64_matches_the_string_parse_on_any_bytes(
            v in proptest::collection::vec(proptest::any::<u8>(), 0..24),
        ) {
            proptest::prop_assert_eq!(parse_i64(&v), parse_i64_via_string(&v));
        }
    }

    #[test]
    fn reducers_aggregate_exactly() {
        let mut got = Vec::new();
        IntSumReducer.reduce(b"k", &[b"1", b"2", b"3"], &mut |k, v| {
            got.push((k.to_vec(), v.to_vec()))
        });
        assert_eq!(got, vec![(b"k".to_vec(), b"6".to_vec())]);
    }
}
