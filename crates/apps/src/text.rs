//! The IO-intensive text benchmarks: Wordcount (WC) and Grep (GR).

use crate::common::*;
use crate::datagen;
use hetero_runtime::types::{Emit, Mapper, OpCount};

// ---------------------------------------------------------------- WC ----

/// Wordcount: counts occurrences of every word (paper Listings 1 and 2).
pub(crate) const WC: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Wordcount",
        code: "WC",
        pct_map_combine: 91,
        intensiveness: Intensiveness::Io,
        has_combiner: true,
        map_only: false,
        key_len: 30,
        val_len: 8,
        ro_bytes: 0,
        reduce_tasks: (48, 32),
        map_tasks: (5760, Some(1024)),
        input_gb: (844.0, Some(151.0)),
        kvpairs_per_record: 12,
    },
    mapper_c: WC_MAPPER_C,
    combiner_c: Some(INT_SUM_COMBINER_C),
    twin_mapper: || Box::new(WcMapper),
    twin_combiner: Some(|| Box::new(IntSumCombiner)),
    reducer: Some(|| Box::new(IntSumReducer)),
    generate: datagen::text_corpus,
};

/// The WC map function: one `<word, 1>` per word.
pub struct WcMapper;

impl Mapper for WcMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        for w in words(record) {
            // getWord scan, copy, and streaming-pipe emit bookkeeping.
            out.charge(OpCount::new(3 * w.len() as u64 + 10, 0));
            if !out.emit(w, b"1") {
                return;
            }
        }
    }
}

/// Listing 1, verbatim.
pub const WC_MAPPER_C: &str = r#"
int main()
{
  char word[30], *line;
  size_t nbytes = 10000;
  int read, linePtr, offset, one;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(word) value(one) \
    keylength(30) vallength(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    linePtr = 0;
    offset = 0;
    one = 1;
    while( (linePtr = getWord(line, offset, word, read, 30)) != -1) {
      printf("%s\t%d\n", word, one);
      offset += linePtr;
    }
  }
  free(line);
  return 0;
}
"#;

// ---------------------------------------------------------------- GR ----

/// Grep: emits `<pattern, 1>` per line containing the pattern (the PUMA
/// default searches a fixed literal).
pub(crate) const GR: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Grep",
        code: "GR",
        pct_map_combine: 69,
        intensiveness: Intensiveness::Io,
        has_combiner: true,
        map_only: false,
        key_len: 30,
        val_len: 8,
        ro_bytes: 0,
        reduce_tasks: (16, 16),
        map_tasks: (7632, Some(2880)),
        input_gb: (902.0, Some(340.0)),
        kvpairs_per_record: 1,
    },
    mapper_c: GR_MAPPER_C,
    combiner_c: Some(INT_SUM_COMBINER_C),
    twin_mapper: || Box::new(GrepMapper { pattern: "the" }),
    twin_combiner: Some(|| Box::new(IntSumCombiner)),
    reducer: Some(|| Box::new(IntSumReducer)),
    generate: datagen::text_corpus,
};

/// The GR map function.
pub struct GrepMapper {
    pattern: &'static str,
}

impl Mapper for GrepMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        // Substring scan: ~1 op per byte (the GPU strfind).
        out.charge(OpCount::new(record.len() as u64, 0));
        let pat = self.pattern.as_bytes();
        let hit = !pat.is_empty() && record.windows(pat.len()).any(|w| w == pat);
        if hit {
            out.emit(pat, b"1");
        }
    }
}

/// Grep mapper in annotated C; `strfind` is the runtime's substring
/// helper (GPU equivalent of `strstr`).
pub const GR_MAPPER_C: &str = r#"
int main()
{
  char pat[30], *line;
  size_t nbytes = 10000;
  int read, one;
  strcpy(pat, "the");
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(pat) value(one) \
    keylength(30) vallength(1) kvpairs(1) firstprivate(pat)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    one = 1;
    if (strfind(line, pat) >= 0) {
      printf("%s\t%d\n", pat, one);
    }
  }
  free(line);
  return 0;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_runtime::types::VecEmit;

    #[test]
    fn wc_mapper_emits_every_word() {
        let mut out = VecEmit::default();
        WcMapper.map(b"the quick the", &mut out);
        assert_eq!(out.pairs.len(), 3);
        assert_eq!(out.pairs[0].0, b"the");
        assert_eq!(out.pairs[1].0, b"quick");
    }

    #[test]
    fn grep_mapper_hits_and_misses() {
        let m = GR.mapper();
        let mut hit = VecEmit::default();
        m.map(b"over the lazy dog", &mut hit);
        assert_eq!(hit.pairs.len(), 1);
        let mut miss = VecEmit::default();
        m.map(b"quick brown fox", &mut miss);
        assert!(miss.pairs.is_empty());
    }

    #[test]
    fn specs_match_table2() {
        assert_eq!(WC.spec().reduce_tasks, (48, 32));
        assert_eq!(WC.spec().map_tasks.0, 5760);
        assert_eq!(GR.spec().pct_map_combine, 69);
        assert!(GR.spec().has_combiner);
    }

    #[test]
    fn generated_split_contains_pattern() {
        let split = GR.generate_split(200, 9);
        let m = GR.mapper();
        let mut out = VecEmit::default();
        for line in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            m.map(line, &mut out);
        }
        assert!(!out.pairs.is_empty(), "zipf text should contain 'the'");
    }
}
