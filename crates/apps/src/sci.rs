//! The scientific benchmarks: Linear Regression (LR) and BlackScholes
//! (BS) — the two applications the paper adds beyond the PUMA suite.

use crate::common::*;
use crate::datagen;
use hetero_runtime::types::{Emit, Mapper, OpCount};

/// Regressors per row (paper §7.1: 12 regressors, 32 rows per file).
pub const REGRESSORS: usize = 12;

// ---------------------------------------------------------------- LR ----

/// Linear regression via normal-equation partial sums: the mapper emits
/// `<bi, x_i*y>` and `<aij, x_i*x_j>` partials; combiner and reducer sum
/// them.
pub(crate) const LR: Benchmark = Benchmark {
    spec: AppSpec {
        name: "Linear Regression",
        code: "LR",
        pct_map_combine: 86,
        intensiveness: Intensiveness::Compute,
        has_combiner: true,
        map_only: false,
        key_len: 8,
        val_len: 16,
        ro_bytes: 0,
        reduce_tasks: (16, 16),
        map_tasks: (2560, Some(3840)),
        input_gb: (714.0, Some(356.0)),
        kvpairs_per_record: REGRESSORS + REGRESSORS * (REGRESSORS + 1) / 2,
    },
    mapper_c: LR_MAPPER_C,
    combiner_c: Some(FLOAT_SUM_COMBINER_C),
    twin_mapper: || Box::new(LinRegMapper),
    twin_combiner: Some(|| Box::new(FloatSumCombiner)),
    reducer: Some(|| Box::new(FloatSumReducer)),
    generate: |rows, seed| datagen::regression_corpus(rows, REGRESSORS, seed),
};

/// LR map function.
pub struct LinRegMapper;

impl Mapper for LinRegMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let Ok(text) = std::str::from_utf8(record) else {
            return;
        };
        let vals: Vec<f64> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        if vals.len() < REGRESSORS + 1 {
            return;
        }
        let (xs, y) = (&vals[..REGRESSORS], vals[REGRESSORS]);
        // X'y partials.
        let mut ops = record.len() as u64;
        for (i, x) in xs.iter().enumerate() {
            ops += 4;
            if !out.emit(
                format!("b{i:02}").as_bytes(),
                format!("{:.6}", x * y).as_bytes(),
            ) {
                return;
            }
        }
        // Upper triangle of X'X.
        for i in 0..REGRESSORS {
            for j in i..REGRESSORS {
                ops += 4;
                if !out.emit(
                    format!("a{i:02}{j:02}").as_bytes(),
                    format!("{:.6}", xs[i] * xs[j]).as_bytes(),
                ) {
                    return;
                }
            }
        }
        // Include atof-style parsing of the 13 fields.
        out.charge(OpCount::new(
            ops + 40 * (REGRESSORS as u64 + 1),
            REGRESSORS as u64,
        ));
    }
}

/// LR mapper in annotated C (emits the X'y partials; the X'X triangle is
/// emitted the same way and omitted here for brevity of the generated
/// kernel used in teaching examples).
pub const LR_MAPPER_C: &str = r#"
int main()
{
  char tok[24], key[8], *line;
  size_t nbytes = 10000;
  int read, consumed, offset, n, i;
  double v[13], p;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(p) \
    keylength(8) vallength(16) kvpairs(12)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = 0;
    while( (consumed = getTok(line, offset, tok, read, 24)) != -1) {
      if (n < 13) v[n] = atof(tok);
      n++;
      offset += consumed;
    }
    if (n >= 13) {
      for (i = 0; i < 12; i++) {
        p = v[i] * v[12];
        key[0] = 'b';
        key[1] = '0' + i / 10;
        key[2] = '0' + i % 10;
        key[3] = '\0';
        printf("%s\t%.6f\n", key, p);
      }
    }
  }
  free(line);
  return 0;
}
"#;

// ---------------------------------------------------------------- BS ----

/// Iterations per option (paper §7.1: 128).
pub const BS_ITERATIONS: usize = 128;

/// BlackScholes option pricing — map-only (0 reduce tasks, Table 2).
pub(crate) const BS: Benchmark = Benchmark {
    spec: AppSpec {
        name: "BlackScholes",
        code: "BS",
        pct_map_combine: 100,
        intensiveness: Intensiveness::Compute,
        has_combiner: false,
        map_only: true,
        key_len: 12,
        val_len: 24,
        ro_bytes: 0,
        reduce_tasks: (0, 0),
        map_tasks: (3600, Some(5120)),
        input_gb: (890.0, Some(210.0)),
        kvpairs_per_record: 1,
    },
    mapper_c: BS_MAPPER_C,
    combiner_c: None,
    twin_mapper: || Box::new(BlackScholesMapper),
    twin_combiner: None,
    reducer: None,
    generate: datagen::options_corpus,
};

/// Standard normal CDF via erf.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Abramowitz & Stegun 7.1.26 erf approximation — identical to the one in
/// the C interpreter's stdlib so both paths price identically.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Black–Scholes European call price.
pub fn bs_call(spot: f64, strike: f64, rate: f64, vol: f64, t: f64) -> f64 {
    let d1 = ((spot / strike).ln() + (rate + 0.5 * vol * vol) * t) / (vol * t.sqrt());
    let d2 = d1 - vol * t.sqrt();
    spot * norm_cdf(d1) - strike * (-rate * t).exp() * norm_cdf(d2)
}

/// BS map function: reprice each option `BS_ITERATIONS` times with a
/// volatility sweep (the paper runs 128 iterations per option).
pub struct BlackScholesMapper;

impl Mapper for BlackScholesMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let Ok(text) = std::str::from_utf8(record) else {
            return;
        };
        let vals: Vec<f64> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        if vals.len() < 6 {
            return;
        }
        let (id, spot, strike, rate, vol, t) =
            (vals[0] as i64, vals[1], vals[2], vals[3], vals[4], vals[5]);
        let mut acc = 0.0;
        for i in 0..BS_ITERATIONS {
            let v = vol * (1.0 + 0.001 * i as f64);
            acc += bs_call(spot, strike, rate, v, t);
        }
        let price = acc / BS_ITERATIONS as f64;
        // Per iteration: ~40 ALU plus ~10 special-function-class ops
        // (ln, sqrt x2, exp x3, div x4, the erf polynomial).
        out.charge(OpCount::new(
            36 * BS_ITERATIONS as u64 + record.len() as u64,
            9 * BS_ITERATIONS as u64,
        ));
        out.emit(
            format!("opt{id:06}").as_bytes(),
            format!("{price:.6}").as_bytes(),
        );
    }
}

/// BS mapper in annotated C.
pub const BS_MAPPER_C: &str = r#"
double normCdf(double x) {
  return 0.5 * (1.0 + erf(x / 1.4142135623730951));
}
int main()
{
  char tok[24], key[16], *line;
  size_t nbytes = 10000;
  int read, consumed, offset, n, i;
  double in[6], acc, v, d1, d2, sq, price;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(price) \
    keylength(16) vallength(24) kvpairs(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = 0;
    while( (consumed = getTok(line, offset, tok, read, 24)) != -1) {
      if (n == 0) { strcpy(key, tok); }
      if (n < 6) in[n] = atof(tok);
      n++;
      offset += consumed;
    }
    if (n >= 6) {
      acc = 0.0;
      for (i = 0; i < 128; i++) {
        v = in[4] * (1.0 + 0.001 * i);
        sq = sqrt(in[5]);
        d1 = (log(in[1] / in[2]) + (in[3] + 0.5 * v * v) * in[5]) / (v * sq);
        d2 = d1 - v * sq;
        acc += in[1] * normCdf(d1) - in[2] * exp(0.0 - in[3] * in[5]) * normCdf(d2);
      }
      price = acc / 128.0;
      printf("%s\t%.6f\n", key, price);
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
    fn bs_call_reference_point() {
        // Classic textbook case: S=100, K=100, r=5%, sigma=20%, T=1
        // -> call ~ 10.45.
        let p = bs_call(100.0, 100.0, 0.05, 0.2, 1.0);
        assert!((p - 10.45).abs() < 0.05, "got {p}");
    }

    #[test]
    fn bs_mapper_prices_each_option_once() {
        let mut out = VecEmit::default();
        BlackScholesMapper.map(b"3 100.00 100.00 0.0500 0.200 1.00", &mut out);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, b"opt000003");
        let price: f64 = String::from_utf8_lossy(&out.pairs[0].1).parse().unwrap();
        // Volatility sweep averages slightly above the base price.
        assert!(price > 10.0 && price < 11.5, "got {price}");
    }

    #[test]
    fn lr_mapper_emits_all_partials() {
        let split = LR.generate_split(1, 3);
        let line = split.split(|&b| b == b'\n').next().unwrap();
        let mut out = VecEmit::default();
        LinRegMapper.map(line, &mut out);
        // 12 b-partials + 78 upper-triangle a-partials.
        assert_eq!(out.pairs.len(), 12 + 78);
        assert!(out.pairs[0].0.starts_with(b"b"));
        assert!(out.pairs[12].0.starts_with(b"a"));
    }

    #[test]
    fn lr_partials_match_direct_sums_exactly() {
        // The emitted partials, summed, must equal sums computed
        // directly from the raw rows (up to the %.6f formatting).
        let split = LR.generate_split(500, 9);
        let mut bsum = [0.0f64; REGRESSORS];
        let mut direct = [0.0f64; REGRESSORS];
        for line in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let vals: Vec<f64> = std::str::from_utf8(line)
                .unwrap()
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            for i in 0..REGRESSORS {
                direct[i] += vals[i] * vals[REGRESSORS];
            }
            let mut out = VecEmit::default();
            LinRegMapper.map(line, &mut out);
            for (k, v) in out.pairs {
                let key = String::from_utf8(k).unwrap();
                let val: f64 = String::from_utf8_lossy(&v).parse().unwrap();
                if let Some(i) = key.strip_prefix('b').and_then(|s| s.parse::<usize>().ok()) {
                    bsum[i] += val;
                }
            }
        }
        for i in 0..REGRESSORS {
            assert!(
                (bsum[i] - direct[i]).abs() < 1e-2,
                "b[{i}]: partial sum {} vs direct {}",
                bsum[i],
                direct[i]
            );
        }
    }

    #[test]
    fn bs_is_map_only_with_zero_reducers() {
        assert!(BS.spec().map_only);
        assert_eq!(BS.spec().reduce_tasks, (0, 0));
        assert!(BS.combiner().is_none());
        assert!(BS.reducer().is_none());
    }

    #[test]
    fn erf_consistent_with_interp_version() {
        for x in [-2.0, -0.5, 0.0, 0.3, 1.0, 2.5] {
            // Sanity envelope (both use A&S 7.1.26).
            assert!(erf(x).abs() <= 1.0);
        }
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-6); // A&S 7.1.26 is a 1e-7 approximation
        assert!(norm_cdf(3.0) > 0.99);
    }
}
