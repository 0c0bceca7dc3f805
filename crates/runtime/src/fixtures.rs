//! The wordcount mapper and summing combiner the unit tests of the map
//! kernel, combine kernel, GPU task and CPU task all run.

use crate::types::{trim_key, Combiner, Emit, Mapper, OpCount};

pub(crate) struct WcMap;

impl Mapper for WcMap {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        for w in record
            .split(|&b| !b.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            out.charge(OpCount::new(w.len() as u64, 0));
            if !out.emit(w, b"1") {
                return;
            }
        }
    }
}

/// Sums textual integer values over a sorted run.
pub(crate) struct SumComb;

impl Combiner for SumComb {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let mut prev: Option<Vec<u8>> = None;
        let mut acc = 0i64;
        for (k, v) in run {
            let val: i64 = String::from_utf8_lossy(trim_key(v))
                .trim()
                .parse()
                .unwrap_or(0);
            out.charge(OpCount::new(4, 0));
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
