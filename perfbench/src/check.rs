//! Output checks: golden report hashes and the report's accounting
//! identities.

use adpf_core::SimReport;

use crate::workload::{Spec, Workload};

/// Recorded report hashes at full size, one line per `(workload, seed)`.
const GOLDENS: &str = include_str!("../goldens.txt");

/// The recorded `(realtime, prefetch)` report hashes of `spec`, if any.
///
/// Only full-size runs have goldens. For `serve-open` the prefetch hash
/// is the report of the whole stream, which the batch run of the same
/// trace must also produce.
pub fn golden(spec: &Spec) -> Option<(u64, u64)> {
    if spec.size != spec.workload.full_size() {
        return None;
    }
    parse_goldens(GOLDENS)
        .into_iter()
        .find(|g| g.0 == spec.workload && g.1 == spec.seed)
        .map(|g| (g.2, g.3))
}

fn parse_goldens(text: &str) -> Vec<(Workload, u64, u64, u64)> {
    let hex = |s: &str| u64::from_str_radix(s, 16).expect("goldens.txt: bad hash");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "goldens.txt: bad line `{l}`");
            let w = Workload::parse(f[0]).expect("goldens.txt: unknown workload");
            let seed = f[1].parse().expect("goldens.txt: bad seed");
            (w, seed, hex(f[2]), hex(f[3]))
        })
        .collect()
}

/// Checks `report` against an expected hash.
pub fn expect_hash(what: &str, report: &SimReport, want: u64) -> Result<(), String> {
    let got = report.stable_hash();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: report hash {got:016x}, expected {want:016x}"
        ))
    }
}

/// Accounting identities every report must satisfy, whatever the seed.
pub fn invariants(what: &str, r: &SimReport) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{what}: {msg}"));
    if r.impressions + r.unfilled != r.slots {
        return fail(format!(
            "impressions {} + unfilled {} != slots {}",
            r.impressions, r.unfilled, r.slots
        ));
    }
    if r.cache_hits + r.realtime_fetches < r.impressions {
        return fail(format!(
            "cache hits {} + realtime fetches {} < impressions {}",
            r.cache_hits, r.realtime_fetches, r.impressions
        ));
    }
    if r.ledger.billed + r.ledger.expired > r.ledger.sold {
        return fail(format!(
            "billed {} + expired {} > sold {}",
            r.ledger.billed, r.ledger.expired, r.ledger.sold
        ));
    }
    if r.netem.retries_succeeded > r.netem.retries_scheduled {
        return fail("more retries succeeded than were scheduled".into());
    }
    if r.per_user_energy_j.len() != r.users as usize {
        return fail(format!(
            "{} per-user energies for {} users",
            r.per_user_energy_j.len(),
            r.users
        ));
    }
    let total = r.energy.total_j();
    let per_user: f64 = r.per_user_energy_j.iter().sum();
    if !total.is_finite() || (per_user - total).abs() > 1e-9 * total.abs().max(1.0) {
        return fail(format!(
            "per-user energy sums to {per_user}, total is {total}"
        ));
    }
    for (name, rate) in [
        ("cache hit rate", r.cache_hit_rate()),
        ("SLA violation rate", r.sla_violation_rate()),
        ("duplicate rate", r.duplicate_rate()),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return fail(format!("{name} {rate} outside [0, 1]"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Size;

    #[test]
    fn goldens_parse_and_cover_the_default_seed() {
        let all = parse_goldens(GOLDENS);
        for w in Workload::ALL {
            let spec = Spec::new(w, w.full_size(), 42);
            assert!(
                golden(&spec).is_some(),
                "{} has no seed-42 golden",
                w.name()
            );
            assert!(all.iter().any(|g| g.0 == w && g.1 == 43));
        }
        let tiny = Spec::new(Workload::BatchPaper, Size { users: 5, days: 1 }, 42);
        assert_eq!(golden(&tiny), None, "goldens are for the full size only");
    }

    #[test]
    fn paper_goldens_match_the_recorded_comparison() {
        let spec = Spec::new(Workload::BatchPaper, Workload::BatchPaper.full_size(), 42);
        assert_eq!(
            golden(&spec),
            Some((0xa84d9380d3ac3288, 0xeb91cd338615a03d))
        );
    }
}
