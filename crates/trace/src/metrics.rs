//! A flat, deterministically ordered metrics snapshot.

use crate::json::{push_f64, push_str_literal};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter / integer gauge.
    U64(u64),
    /// A real-valued gauge (seconds, ratios, …).
    F64(f64),
    /// A label (scheduler name, device kind, …).
    Str(String),
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::U64(v)
    }
}
impl From<u32> for MetricValue {
    fn from(v: u32) -> Self {
        MetricValue::U64(v as u64)
    }
}
impl From<usize> for MetricValue {
    fn from(v: usize) -> Self {
        MetricValue::U64(v as u64)
    }
}
impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::F64(v)
    }
}
impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Str(v.to_string())
    }
}
impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Str(v)
    }
}

/// A flat name → value registry. Keys are stored in a `BTreeMap`, so the
/// JSON snapshot is emitted in sorted key order — same run, same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a metric.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<MetricValue>) {
        self.entries.insert(name.into(), value.into());
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize as a single JSON object, keys in sorted order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32 + 8);
        out.push_str("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            push_str_literal(&mut out, k);
            out.push_str(": ");
            match v {
                MetricValue::U64(u) => {
                    let _ = write!(out, "{u}");
                }
                MetricValue::F64(f) => push_f64(&mut out, *f),
                MetricValue::Str(s) => push_str_literal(&mut out, s),
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn json_is_sorted_and_valid() {
        let mut m = MetricsRegistry::new();
        m.set("z.last", 1u64);
        m.set("a.first", 0.5);
        m.set("m.mid", "label");
        let json = m.to_json();
        validate(&json).unwrap();
        let a = json.find("a.first").unwrap();
        let mm = json.find("m.mid").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < mm && mm < z);
    }

    #[test]
    fn set_overwrites() {
        let mut m = MetricsRegistry::new();
        m.set("k", 1u64);
        m.set("k", 2u64);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("k"), Some(&MetricValue::U64(2)));
    }

    #[test]
    fn empty_registry_serializes() {
        let json = MetricsRegistry::new().to_json();
        validate(&json).unwrap();
    }
}
