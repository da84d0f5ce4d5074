//! Runs every workload at a tiny size, untraced and traced, and checks the
//! benchmark's own promises: every metric is emitted with its unit, no
//! correctness check fails, and the traced layers account for the totals
//! they split within the stated tolerance.
//!
//! ```text
//! cargo test --release --manifest-path waldobench/Cargo.toml
//! ```

use waldobench::world::{Profile, PROFILES};
use waldobench::{per_layer_names, run, Options, END_TO_END, REPORTED_ONLY, TRACE_TOLERANCE};

fn tiny(p: Profile) -> Profile {
    Profile { campaign_readings: 300, store_rows: p.store_rows / 10, sites_per_kind: 10, ..p }
}

fn options(p: Profile, trace: bool) -> Options {
    Options { sizes: tiny(p), seed: 5, seconds: 8.0, trace }
}

fn value(outcome: &waldobench::Outcome, name: &str) -> f64 {
    outcome.metrics.values.get(name).unwrap_or_else(|| panic!("{name} missing")).0
}

#[test]
fn every_workload_emits_its_metrics_and_passes_its_checks() {
    for p in PROFILES {
        let plain = run(&options(p, false));
        assert_eq!(plain.metrics.failed, 0, "{}: {:?}", p.name, plain.metrics.failures);
        assert!(plain.metrics.attempted > 0);
        for (name, unit) in END_TO_END.iter().chain(&REPORTED_ONLY) {
            let got = plain.metrics.values.get(*name).map(|v| v.1);
            assert_eq!(got, Some(*unit), "{}: end-to-end metric {name}", p.name);
        }

        let traced = run(&options(p, true));
        assert_eq!(traced.metrics.failed, 0, "{}: {:?}", p.name, traced.metrics.failures);
        for (name, unit) in per_layer_names() {
            let got = traced.metrics.values.get(&name).map(|v| v.1);
            assert_eq!(got, Some(unit), "{}: per-layer metric {name}", p.name);
        }

        // Extraction plus the detector push is the decide CPU ...
        let accounted = value(&traced, "trace.decide_cpu_accounted_frac");
        assert!((accounted - 1.0).abs() <= TRACE_TOLERANCE, "{}: decide CPU {accounted}", p.name);
        // ... and the simulator's capture is not in it: counting it would
        // put the layers far outside the tolerance.
        let capture = value(&traced, "trace.capture_over_decide_cpu");
        assert!(accounted + capture - 1.0 > TRACE_TOLERANCE, "{}: capture {capture}", p.name);
        // The replayed refit steps account for the live refit.
        let refit = value(&traced, "trace.refit_accounted_frac");
        assert!((refit - 1.0).abs() <= TRACE_TOLERANCE, "{}: refit steps {refit}", p.name);
    }
}
