//! The speed probe: its reading windows, and that every sample a round
//! records is calibrated by the probe of the client that issued it.

use rgpdos_e2ebench::report::end_to_end;
use rgpdos_e2ebench::speed::{Probe, INTERVAL};
use rgpdos_e2ebench::workload::{run_round, spec, Spec};

#[test]
fn a_probe_without_readings_reports_no_slowdown() {
    let probe = Probe::new();
    assert_eq!(probe.count(), 0);
    assert_eq!(probe.slowdown_at(0), 1.0);
    assert_eq!(probe.slowdown(0, 10), 1.0);
}

#[test]
fn readings_are_taken_once_per_interval() {
    let mut probe = Probe::new();
    probe.tick();
    assert_eq!(probe.count(), 1, "the first tick reads");
    probe.tick();
    assert_eq!(probe.count(), 1, "a tick within the interval does not");
    std::thread::sleep(INTERVAL * 2);
    probe.tick();
    assert_eq!(probe.count(), 2);
}

#[test]
fn windows_are_clamped_to_the_readings_taken() {
    let mut probe = Probe::new();
    for _ in 0..3 {
        probe.read();
    }
    let all = probe.slowdown(0, 3);
    assert!(all.is_finite() && all > 0.0);
    // Past the last reading, a window keeps the readings it has.
    assert_eq!(probe.slowdown_at(3), probe.slowdown(1, 3));
    assert_eq!(probe.slowdown_at(9), 1.0);
    assert_eq!(probe.slowdown(2, 2), 1.0);
}

fn tiny(name: &str) -> Spec {
    let mut spec = spec(name).unwrap();
    spec.records = spec.records.min(300);
    spec.subjects = spec.subjects.min(40);
    spec.main_ops = 60;
    spec.timed_collects = spec.timed_collects.min(20);
    spec
}

#[test]
fn every_sample_of_a_round_is_calibrated() {
    for name in ["customer", "readers-2t"] {
        let round = run_round(&tiny(name), 3, false).unwrap();
        assert_eq!(round.failed, 0, "{name}: {:?}", round.errors);
        assert!(round.setup_slowdown > 0.0, "{name}");
        for sample in &round.samples {
            assert!(
                sample.slowdown.is_finite() && sample.slowdown > 0.0,
                "{name}: {:?} has slowdown {}",
                sample.kind,
                sample.slowdown
            );
        }
        for metric in end_to_end(std::slice::from_ref(&round)) {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{name}: {} = {}",
                metric.name,
                metric.value
            );
        }
    }
}
