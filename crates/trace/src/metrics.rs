//! A flat, deterministically ordered metrics snapshot.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// A flat name → value registry: counters, real-valued gauges and labels
/// held as [`Json`] scalars. Keys are stored in a `BTreeMap`, so the
/// JSON snapshot is emitted in sorted key order — same run, same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Json>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a metric.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Json>) {
        self.entries.insert(name.into(), value.into());
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Json> {
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
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize as a single JSON object, keys in sorted order.
    pub fn to_json(&self) -> String {
        let fields = self.entries.iter().map(|(k, v)| (k.clone(), v.clone()));
        json::write(&Json::Obj(fields.collect()))
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
        assert_eq!(m.get("k"), Some(&Json::U64(2)));
    }

    #[test]
    fn empty_registry_serializes() {
        let json = MetricsRegistry::new().to_json();
        validate(&json).unwrap();
    }
}
