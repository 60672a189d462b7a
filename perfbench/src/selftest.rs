//! The benchmark's self-test: every workload at a tiny size, untraced and
//! traced, against the metric lists in `BENCHMARK.json`; and the hash
//! check's sensitivity to a single-ULP change.

use std::time::Duration;

use adpf_core::{Simulator, SystemConfig};

use crate::check;
use crate::run::{run, Outcome};
use crate::workload::{Size, Spec, Workload};

const TINY: Size = Size {
    users: 120,
    days: 1,
};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("closed string");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_reports(out: &Outcome, section: &str, what: &str) {
    assert!(
        out.problems.is_empty() && out.failed == 0,
        "{what}: {:?}",
        out.problems
    );
    assert!(out.attempted > 0, "{what}: nothing attempted");
    let got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for (name, _) in &got {
        assert!(valid_name(name), "{what}: bad metric name `{name}`");
    }
    assert_eq!(
        got,
        listed(section),
        "{what}: metrics differ from BENCHMARK.json"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_reports_its_listed_metrics_untraced_and_traced() {
    for w in Workload::ALL {
        let spec = Spec::new(w, TINY, 7);
        let untraced = run(&spec, Duration::from_millis(300), false);
        assert_reports(&untraced, "end_to_end", w.name());
        // The traced run checks its shard-by-shard passes against the
        // untraced passes' hashes; a mismatch would be a failed check.
        let traced = run(&spec, Duration::from_millis(300), true);
        assert_reports(&traced, "per_layer", &format!("{} traced", w.name()));
        // The host-cost metrics are never zero; the modelled ones may be
        // at this size.
        for m in &untraced.metrics {
            if !m.unit.contains('%') {
                assert!(m.value > 0.0, "{}: {} is zero", w.name(), m.name);
            }
        }
    }
}

#[test]
fn one_ulp_in_a_report_fails_the_hash_check() {
    let spec = Spec::new(Workload::BatchPaper, TINY, 7);
    let trace = spec.generate();
    let report = Simulator::run_parallel(&SystemConfig::prefetch_default(1), &trace, 2);
    let golden = report.stable_hash();
    assert!(check::expect_hash("same", &report, golden).is_ok());

    let mut moved = report.clone();
    moved.energy.tail_j = f64::from_bits(moved.energy.tail_j.to_bits() + 1);
    assert!(check::expect_hash("tail energy +1 ulp", &moved, golden).is_err());

    let mut moved = report.clone();
    let e = &mut moved.per_user_energy_j[3];
    *e = f64::from_bits(e.to_bits() + 1);
    assert!(check::expect_hash("user energy +1 ulp", &moved, golden).is_err());
}

#[test]
fn metric_lists_are_well_formed() {
    for section in ["end_to_end", "per_layer"] {
        let names = listed(section);
        assert!(!names.is_empty());
        for (i, (name, _)) in names.iter().enumerate() {
            assert!(valid_name(name), "bad name `{name}`");
            assert!(
                !names[..i].iter().any(|(n, _)| n == name),
                "`{name}` listed twice"
            );
        }
    }
    assert!(listed("end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}
