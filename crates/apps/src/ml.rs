//! The clustering benchmarks: Kmeans (KM) and Classification (CL).
//!
//! Both operate on Netflix-style movie-rating records
//! (`movieId:r1,r2,...,rn`, paper §4.1: "each record contains a list of
//! movie ratings, some records have fewer reviews than others"). Each
//! record's rating history is compared against `SIM_K` cluster rating
//! profiles — an O(SIM_K × n) similarity computation — and assigned to
//! the nearest profile. The profile table is the shared read-only data
//! the `texture` clause places in fast GPU memory (Fig. 7a); the skewed
//! record lengths are what record stealing balances (Fig. 7d).
//!
//! KM emits `<cluster, (sum, count)>` partials so the reducer can update
//! centroids (one Lloyd iteration); CL emits `<cluster, movieId>` and
//! ends after the single pass. Neither has a combiner (Table 2).

use crate::common::*;
use crate::datagen;
use crate::hist::parse_ratings;
use hetero_runtime::types::{Emit, Mapper, OpCount, Reducer};

/// Number of cluster rating profiles.
pub const SIM_K: usize = 48;
/// Rating-count multiplier for the clustering corpora (long histories).
pub const RATING_SCALE: usize = 12;

/// The cluster rating profiles (the sharedRO / texture table): profile
/// `c` is a characteristic mean rating in `[1, 5]`.
pub fn profiles() -> Vec<f64> {
    (0..SIM_K)
        .map(|c| 1.0 + 4.0 * c as f64 / (SIM_K - 1) as f64)
        .collect()
}

/// Assign a rating history to the nearest profile. Returns
/// `(cluster, alu_ops)`; the cost reflects a cosine-similarity-class
/// computation (~8 ops per rating per profile).
pub fn nearest_profile(ratings: &[i64], profiles: &[f64]) -> (usize, u64) {
    // argmin_p sum_r (r-p)^2 == argmin_p (mean-p)^2; computing through the
    // mean keeps the arithmetic bit-identical to the annotated C source
    // (so the interpreted and native kernels agree exactly), while the
    // charged cost reflects the full O(|profiles| x n) similarity pass the
    // computation stands for.
    let sum: i64 = ratings.iter().sum();
    let mean = sum as f64 / ratings.len() as f64;
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut ops = 0u64;
    for (c, &p) in profiles.iter().enumerate() {
        let diff = mean - p;
        let d = diff * diff;
        ops += 2 * ratings.len() as u64 + 2;
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, ops)
}

/// Shared map logic: parse, charge the similarity cost (including the
/// profile-table reads through the read-only path), return assignment.
fn classify(record: &[u8], profs: &[f64], out: &mut dyn Emit) -> Option<(usize, Vec<i64>)> {
    let ratings: Vec<i64> = parse_ratings(record).collect();
    if ratings.is_empty() {
        return None;
    }
    // Profile-table traffic: each profile is re-read per group of 8
    // ratings (the on-chip tiling granularity) — random access without
    // the texture cache, cheap hits with it.
    let groups = ratings.len().div_ceil(32) as u64;
    for _ in 0..SIM_K as u64 * groups {
        out.read_ro(8);
    }
    let (best, ops) = nearest_profile(&ratings, profs);
    // Similarity + integer parsing of each rating.
    out.charge(OpCount::new(
        ops + 2 * ratings.len() as u64 + record.len() as u64,
        SIM_K as u64, // one sqrt-class normalization per profile
    ));
    Some((best, ratings))
}

// ---------------------------------------------------------------- KM ----

/// One iteration of Lloyd-style clustering over rating histories.
pub(crate) const KM: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Kmeans",
        code: "KM",
        pct_map_combine: 89,
        intensiveness: Intensiveness::Compute,
        has_combiner: false,
        map_only: false,
        key_len: 8,
        val_len: 24,
        ro_bytes: (SIM_K * 8) as u64,
        reduce_tasks: (16, 16),
        // Table 2: KM does not run on Cluster2 (GPU memory exceeded).
        map_tasks: (4800, None),
        input_gb: (923.0, None),
        kvpairs_per_record: 1,
    },
    mapper_c: KM_MAPPER_C,
    combiner_c: None,
    twin_mapper: || {
        Box::new(KmeansMapper {
            profiles: profiles(),
        })
    },
    twin_combiner: None,
    reducer: Some(|| Box::new(KmeansReducer)),
    generate: |records, seed| datagen::ratings_corpus_scaled(records, RATING_SCALE, seed),
};

/// KM map function: emit `<cluster, "sum count">` partials.
pub struct KmeansMapper {
    profiles: Vec<f64>,
}

impl Mapper for KmeansMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        if let Some((best, ratings)) = classify(record, &self.profiles, out) {
            let sum: i64 = ratings.iter().sum();
            out.emit(
                format!("c{best:02}").as_bytes(),
                format!("{sum} {}", ratings.len()).as_bytes(),
            );
        }
    }
}

/// KM reducer: new profile = total rating sum / total count.
pub struct KmeansReducer;

impl Reducer for KmeansReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8])) {
        let mut sum = 0i64;
        let mut count = 0i64;
        for v in values {
            let text = String::from_utf8_lossy(hetero_runtime::types::trim_key(v)).to_string();
            let mut it = text.split_whitespace();
            sum += it.next().and_then(|t| t.parse().ok()).unwrap_or(0);
            count += it.next().and_then(|t| t.parse().ok()).unwrap_or(0);
        }
        if count > 0 {
            out(key, format!("{:.4}", sum as f64 / count as f64).as_bytes());
        }
    }
}

/// KM mapper in annotated C. The profile table is initialized exactly as
/// [`profiles`] builds it and placed in texture memory.
pub const KM_MAPPER_C: &str = r#"
int main()
{
  double profiles[48];
  char tok[16], key[8], *line;
  size_t nbytes = 100000;
  int read, consumed, offset, c, best, n, sum, r;
  double d, diff, bestD;
  for (c = 0; c < 48; c++) {
    profiles[c] = 1.0 + 4.0 * c / 47.0;
  }
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(sum) \
    keylength(8) vallength(16) kvpairs(1) texture(profiles)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = -1;  // first token is the movie id
    sum = 0;
    bestD = 1.0e30;
    best = 0;
    // First pass: running sum + count (single-profile distances are
    // computed from aggregates to keep the interpreted kernel fast).
    while( (consumed = getWord(line, offset, tok, read, 16)) != -1) {
      if (n >= 0) {
        r = atoi(tok);
        sum += r;
      }
      n++;
      offset += consumed;
    }
    if (n > 0) {
      for (c = 0; c < 48; c++) {
        diff = ((double)sum / n) - profiles[c];
        d = diff * diff;
        if (d < bestD) { bestD = d; best = c; }
      }
      key[0] = 'c';
      key[1] = '0' + best / 10;
      key[2] = '0' + best % 10;
      key[3] = '\0';
      printf("%s\t%d %d\n", key, sum, n);
    }
  }
  free(line);
  return 0;
}
"#;

// ---------------------------------------------------------------- CL ----

/// Classification: one-pass assignment of rating histories to profiles.
pub(crate) const CL: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Classification",
        code: "CL",
        pct_map_combine: 92,
        intensiveness: Intensiveness::Compute,
        has_combiner: false,
        map_only: false,
        key_len: 8,
        val_len: 16,
        ro_bytes: (SIM_K * 8) as u64,
        reduce_tasks: (16, 16),
        map_tasks: (4800, Some(3200)),
        input_gb: (923.0, Some(72.0)),
        kvpairs_per_record: 1,
    },
    mapper_c: CL_MAPPER_C,
    combiner_c: None,
    twin_mapper: || {
        Box::new(ClassificationMapper {
            profiles: profiles(),
        })
    },
    twin_combiner: None,
    reducer: None,
    generate: |records, seed| datagen::ratings_corpus_scaled(records, RATING_SCALE, seed),
};

/// CL map function: emit `<cluster, movieId>`.
pub struct ClassificationMapper {
    profiles: Vec<f64>,
}

impl Mapper for ClassificationMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let id: Vec<u8> = record.iter().copied().take_while(|&b| b != b':').collect();
        if let Some((best, _)) = classify(record, &self.profiles, out) {
            out.emit(format!("c{best:02}").as_bytes(), &id);
        }
    }
}

/// CL mapper in annotated C.
pub const CL_MAPPER_C: &str = r#"
int main()
{
  double profiles[48];
  char tok[16], key[8], id[16], *line;
  size_t nbytes = 100000;
  int read, consumed, offset, c, best, n, sum, r;
  double d, diff, bestD;
  for (c = 0; c < 48; c++) {
    profiles[c] = 1.0 + 4.0 * c / 47.0;
  }
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(id) \
    keylength(8) vallength(16) kvpairs(1) texture(profiles)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = -1;
    sum = 0;
    bestD = 1.0e30;
    best = 0;
    while( (consumed = getWord(line, offset, tok, read, 16)) != -1) {
      if (n == -1) { strcpy(id, tok); }
      else { r = atoi(tok); sum += r; }
      n++;
      offset += consumed;
    }
    if (n > 0) {
      for (c = 0; c < 48; c++) {
        diff = ((double)sum / n) - profiles[c];
        d = diff * diff;
        if (d < bestD) { bestD = d; best = c; }
      }
      key[0] = 'c';
      key[1] = '0' + best / 10;
      key[2] = '0' + best % 10;
      key[3] = '\0';
      printf("%s\t%s\n", key, id);
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
    fn nearest_profile_picks_matching_mean() {
        let profs = profiles();
        // All-fives history: nearest profile is the last (mean 5.0).
        let (best, ops) = nearest_profile(&[5, 5, 5, 5], &profs);
        assert_eq!(best, SIM_K - 1);
        assert!(ops > 0);
        // All-ones: the first profile.
        let (best, _) = nearest_profile(&[1, 1, 1], &profs);
        assert_eq!(best, 0);
    }

    #[test]
    fn km_mapper_emits_sum_and_count() {
        let m = KM.mapper();
        let mut out = VecEmit::default();
        m.map(b"7:4,4,4,4", &mut out);
        assert_eq!(out.pairs.len(), 1);
        let val = String::from_utf8(out.pairs[0].1.clone()).unwrap();
        assert_eq!(val, "16 4");
        assert!(out.ro_bytes > 0, "must read the profile table via read_ro");
    }

    #[test]
    fn cl_mapper_emits_movie_id() {
        let m = CL.mapper();
        let mut out = VecEmit::default();
        m.map(b"42:1,1,1", &mut out);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, b"c00"); // all-ones -> profile 0
        assert_eq!(out.pairs[0].1, b"42");
    }

    #[test]
    fn km_reducer_computes_new_profile() {
        let mut got = Vec::new();
        KmeansReducer.reduce(b"c05", &[b"10 4", b"6 2"], &mut |k, v| {
            got.push((k.to_vec(), v.to_vec()))
        });
        assert_eq!(got.len(), 1);
        let mean: f64 = String::from_utf8_lossy(&got[0].1).parse().unwrap();
        assert!((mean - 16.0 / 6.0).abs() < 1e-3); // %.4f formatting
    }

    #[test]
    fn km_not_runnable_on_cluster2() {
        assert!(KM.spec().map_tasks.1.is_none());
        assert!(KM.spec().input_gb.1.is_none());
    }

    #[test]
    fn clustering_corpus_has_long_skewed_records() {
        let split = KM.generate_split(300, 11);
        let lens: Vec<usize> = split
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| l.len())
            .collect();
        assert_eq!(lens.len(), 300);
        let max = *lens.iter().max().unwrap();
        let mean = lens.iter().sum::<usize>() / lens.len();
        assert!(mean > 30, "records should be long: mean {mean}");
        assert!(
            max > 3 * mean,
            "sizes should be skewed: max {max} mean {mean}"
        );
    }

    #[test]
    fn every_record_classified() {
        let split = CL.generate_split(100, 12);
        let m = CL.mapper();
        let mut out = VecEmit::default();
        for line in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            m.map(line, &mut out);
        }
        assert_eq!(out.pairs.len(), 100);
    }
}
