//! The histogram benchmarks over movie-ratings data: Histmovies (HS) and
//! Histratings (HR).
//!
//! Records look like `movieId:r1,r2,...,rn`. HS averages each movie's
//! ratings and bins the average (8 bins of width 0.5 over [1, 5]);
//! HR bins every individual rating (5 bins) — it hands the combiner far
//! more data, which is why the paper calls it the more compute-intensive
//! of the two.

use crate::common::*;
use crate::datagen;
use hetero_runtime::types::{Emit, Mapper, OpCount};

/// Parse a `movieId:r1,r2,...` record into its ratings.
pub fn parse_ratings(record: &[u8]) -> impl Iterator<Item = i64> + '_ {
    record
        .split(|&b| b == b':')
        .nth(1)
        .unwrap_or(b"")
        .split(|&b| b == b',')
        .filter(|t| !t.is_empty())
        .map(|t| String::from_utf8_lossy(t).trim().parse().unwrap_or(0))
}

// ---------------------------------------------------------------- HS ----

/// Histmovies: bins each movie's *average* rating.
pub(crate) const HS: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Histmovies",
        code: "HS",
        pct_map_combine: 91,
        intensiveness: Intensiveness::Io,
        has_combiner: true,
        map_only: false,
        key_len: 8,
        val_len: 8,
        ro_bytes: 0,
        reduce_tasks: (8, 8),
        map_tasks: (4800, Some(640)),
        input_gb: (1190.0, Some(159.0)),
        kvpairs_per_record: 1,
    },
    mapper_c: HS_MAPPER_C,
    combiner_c: Some(INT_SUM_COMBINER_C),
    twin_mapper: || Box::new(HistmoviesMapper),
    twin_combiner: Some(|| Box::new(IntSumCombiner)),
    reducer: Some(|| Box::new(IntSumReducer)),
    generate: datagen::ratings_corpus,
};

/// HS map function: average the record's ratings, emit `<bin, 1>`.
pub struct HistmoviesMapper;

impl Mapper for HistmoviesMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let mut sum = 0i64;
        let mut n = 0i64;
        for r in parse_ratings(record) {
            sum += r;
            n += 1;
        }
        out.charge(OpCount::new(record.len() as u64 + 4, 1));
        if n > 0 {
            // Bins of width 0.5 over the 1..=5 rating range: bin 0..8.
            let avg2 = (2 * sum) / n; // 2*average, integer
            let bin = (avg2 - 2).clamp(0, 8);
            out.emit(format!("bin{bin}").as_bytes(), b"1");
        }
    }
}

/// HS mapper in annotated C: `getWord` tokenizes the id and each integer
/// rating (`:`/`,` are separators).
pub const HS_MAPPER_C: &str = r#"
int main()
{
  char tok[16], bin[8], *line;
  size_t nbytes = 10000;
  int read, consumed, offset, one, sum, n, avg2, b;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(bin) value(one) \
    keylength(8) vallength(1) kvpairs(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    one = 1;
    sum = 0;
    n = -1;  // first token is the movie id
    while( (consumed = getWord(line, offset, tok, read, 16)) != -1) {
      if (n >= 0) {
        sum += atoi(tok);
      }
      n++;
      offset += consumed;
    }
    if (n > 0) {
      avg2 = (2 * sum) / n;
      b = avg2 - 2;
      if (b < 0) b = 0;
      if (b > 8) b = 8;
      bin[0] = 'b'; bin[1] = 'i'; bin[2] = 'n';
      bin[3] = '0' + b;
      bin[4] = '\0';
      printf("%s\t%d\n", bin, one);
    }
  }
  free(line);
  return 0;
}
"#;

// ---------------------------------------------------------------- HR ----

/// Histratings: bins every individual rating.
pub(crate) const HR: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Histratings",
        code: "HR",
        pct_map_combine: 92,
        intensiveness: Intensiveness::Compute,
        has_combiner: true,
        map_only: false,
        key_len: 8,
        val_len: 8,
        ro_bytes: 0,
        reduce_tasks: (5, 5),
        map_tasks: (4800, Some(2560)),
        input_gb: (591.0, Some(160.0)),
        // The ratings generator's maximum per-record review count.
        kvpairs_per_record: 64,
    },
    mapper_c: HR_MAPPER_C,
    combiner_c: Some(INT_SUM_COMBINER_C),
    twin_mapper: || Box::new(HistratingsMapper),
    twin_combiner: Some(|| Box::new(IntSumCombiner)),
    reducer: Some(|| Box::new(IntSumReducer)),
    generate: datagen::ratings_corpus,
};

/// HR map function: `<rating, 1>` per rating.
pub struct HistratingsMapper;

impl Mapper for HistratingsMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        out.charge(OpCount::new(record.len() as u64, 0));
        for r in parse_ratings(record) {
            out.charge(OpCount::new(6, 0));
            if !out.emit(format!("r{r}").as_bytes(), b"1") {
                return;
            }
        }
    }
}

/// HR mapper in annotated C.
pub const HR_MAPPER_C: &str = r#"
int main()
{
  char tok[16], key[8], *line;
  size_t nbytes = 10000;
  int read, consumed, offset, one, n;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(one) \
    keylength(8) vallength(1) kvpairs(64)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    one = 1;
    n = -1;  // skip the movie id token
    while( (consumed = getWord(line, offset, tok, read, 16)) != -1) {
      if (n >= 0) {
        key[0] = 'r';
        key[1] = tok[0];
        key[2] = '\0';
        printf("%s\t%d\n", key, one);
      }
      n++;
      offset += consumed;
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
    fn parse_ratings_extracts_values() {
        let r: Vec<i64> = parse_ratings(b"42:5,3,4,1").collect();
        assert_eq!(r, vec![5, 3, 4, 1]);
        let empty: Vec<i64> = parse_ratings(b"7:").collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn histmovies_bins_average() {
        let mut out = VecEmit::default();
        HistmoviesMapper.map(b"1:4,4,4", &mut out); // avg 4.0 -> bin 6
        assert_eq!(out.pairs, vec![(b"bin6".to_vec(), b"1".to_vec())]);
        let mut out2 = VecEmit::default();
        HistmoviesMapper.map(b"2:1,1", &mut out2); // avg 1.0 -> bin 0
        assert_eq!(out2.pairs[0].0, b"bin0");
    }

    #[test]
    fn histratings_bins_each_rating() {
        let mut out = VecEmit::default();
        HistratingsMapper.map(b"9:5,5,2", &mut out);
        assert_eq!(out.pairs.len(), 3);
        assert_eq!(out.pairs[0].0, b"r5");
        assert_eq!(out.pairs[2].0, b"r2");
    }

    #[test]
    fn hr_emits_more_than_hs_per_record() {
        // The reason HR is the more compute-intensive benchmark.
        let rec = b"3:4,5,3,2,1,4,4";
        let mut hs = VecEmit::default();
        HistmoviesMapper.map(rec, &mut hs);
        let mut hr = VecEmit::default();
        HistratingsMapper.map(rec, &mut hr);
        assert!(hr.pairs.len() > 5 * hs.pairs.len());
    }
}
