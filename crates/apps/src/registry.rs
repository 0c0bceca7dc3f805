//! Registry of the eight paper benchmarks (Table 2), keyed by the
//! paper's two-letter codes.

use crate::common::{App, Benchmark};
use crate::{hist, ml, sci, text};

/// The paper's benchmark codes, in Table 2 order.
pub const CODES: [&str; 8] = ["GR", "HS", "WC", "HR", "LR", "KM", "CL", "BS"];

/// The benchmark table, in Table 2 order.
const TABLE: [Benchmark; 8] = [
    text::GR,
    hist::HS,
    text::WC,
    hist::HR,
    sci::LR,
    ml::KM,
    ml::CL,
    sci::BS,
];

/// Construct every benchmark, in Table 2 order.
pub fn all_apps() -> Vec<Box<dyn App>> {
    TABLE
        .into_iter()
        .map(|b| Box::new(b) as Box<dyn App>)
        .collect()
}

/// Construct a benchmark by its paper code.
pub fn app_by_code(code: &str) -> Option<Box<dyn App>> {
    TABLE
        .into_iter()
        .find(|b| b.spec.code == code)
        .map(|b| Box::new(b) as Box<dyn App>)
}

/// Render Table 2 ("Description of the Benchmarks Used") from the specs.
pub fn table2() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24}{:>6}{:>10}{:>10}{:>12}{:>12}{:>12}{:>12}{:>10}{:>10}",
        "Benchmark",
        "%Exec",
        "Nature",
        "Combiner",
        "Red.C1",
        "Red.C2",
        "Maps.C1",
        "Maps.C2",
        "GB.C1",
        "GB.C2",
    );
    for app in all_apps() {
        let s = app.spec();
        let _ = writeln!(
            out,
            "{:<24}{:>6}{:>10}{:>10}{:>12}{:>12}{:>12}{:>12}{:>10}{:>10}",
            format!("{} ({})", s.name, s.code),
            s.pct_map_combine,
            match s.intensiveness {
                crate::common::Intensiveness::Io => "IO",
                crate::common::Intensiveness::Compute => "Compute",
            },
            if s.has_combiner { "Yes" } else { "No" },
            s.reduce_tasks.0,
            s.reduce_tasks.1,
            s.map_tasks.0,
            s.map_tasks.1.map(|m| m.to_string()).unwrap_or("NA".into()),
            s.input_gb.0,
            s.input_gb.1.map(|g| g.to_string()).unwrap_or("NA".into()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_eight() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        let codes: Vec<&str> = apps.iter().map(|a| a.spec().code).collect();
        assert_eq!(codes, CODES);
    }

    #[test]
    fn unknown_code_is_none() {
        assert!(app_by_code("XX").is_none());
    }

    #[test]
    fn combiner_presence_matches_table2() {
        // Table 2: GR/HS/WC/HR/LR have combiners, KM/CL/BS do not.
        for (code, has) in [
            ("GR", true),
            ("HS", true),
            ("WC", true),
            ("HR", true),
            ("LR", true),
            ("KM", false),
            ("CL", false),
            ("BS", false),
        ] {
            let app = app_by_code(code).unwrap();
            assert_eq!(app.spec().has_combiner, has, "{code}");
            assert_eq!(app.combiner().is_some(), has, "{code}");
        }
    }

    #[test]
    fn table2_renders_every_row() {
        let t = table2();
        for code in CODES {
            assert!(t.contains(&format!("({code})")), "missing {code}");
        }
        assert!(t.contains("NA"), "KM's Cluster2 columns are NA");
    }

    #[test]
    fn every_app_generates_parseable_input() {
        for app in all_apps() {
            let split = app.generate_split(50, 42);
            assert!(!split.is_empty(), "{}", app.spec().code);
            let lines = split
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .count();
            assert_eq!(lines, 50, "{}", app.spec().code);
        }
    }

    #[test]
    fn every_mapper_emits_something_on_generated_data() {
        use hetero_runtime::types::VecEmit;
        for app in all_apps() {
            let split = app.generate_split(30, 7);
            let m = app.mapper();
            let mut out = VecEmit::default();
            for line in split.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                m.map(line, &mut out);
            }
            assert!(!out.pairs.is_empty(), "{} emitted nothing", app.spec().code);
        }
    }
}
