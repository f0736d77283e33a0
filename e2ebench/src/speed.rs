//! Machine-speed probe: a fixed job, independent of the program under test,
//! timed between ops so that wall times can be put on one scale.
//!
//! A shared cloud host does not run at one speed.  Other tenants' load
//! moves its cores between a fast and a slow state, some 1.7 times apart,
//! within seconds, and a state can hold for seconds or for minutes, so the
//! same binary on the same inputs can report half the throughput from one
//! run to the next.  Taking the best of several rounds cannot remove a slow
//! state that outlasts a run.  The probe measures the state instead: every
//! [`INTERVAL`] the client, between two ops, times a short job that builds,
//! searches and drops an ordered map of small strings, the allocation- and
//! pointer-bound kind of work the runtime spends its time on.  Measured
//! round by round on a 2-vCPU KVM guest, that job's time tracked a round's
//! wall time with a log-log slope of 1.0, where integer mixing, L2 block
//! copies and DRAM pointer chasing tracked it worse.  Each op's wall time
//! is divided by the slowdown the probe read around it.  The job uses only
//! the standard library, so a change to the program cannot move it.

use crate::report::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The job's time on the reference machine, about that of a 2-vCPU
/// Sapphire Rapids KVM guest in its fast state: calibrated times are the
/// wall times a machine on which the job takes this long would take.
pub const REFERENCE_PROBE_S: f64 = 0.000_14;

/// Time between readings.
pub const INTERVAL: Duration = Duration::from_millis(10);

/// Runs of the job per reading; the fastest one counts.
const REPEATS: usize = 3;

/// Entries in the job's map.
const ENTRIES: u64 = 500;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Builds, searches and drops an ordered map of small strings.
fn job() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..ENTRIES {
        map.insert(mix(i), format!("record-{i:08}"));
    }
    let mut acc = 0u64;
    for i in 0..ENTRIES {
        if let Some(value) = map.get(&mix(i)) {
            acc = acc.wrapping_add(value.len() as u64);
        }
    }
    let kept: Vec<String> = map.into_values().filter(|v| v.ends_with('7')).collect();
    acc.wrapping_add(kept.len() as u64)
}

/// Readings of one client thread, in the order taken.
#[derive(Debug, Default)]
pub struct Probe {
    readings: Vec<f64>,
    last: Option<Instant>,
}

impl Probe {
    /// A probe with no readings yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a reading: the job's fastest time over a few runs, s.
    pub fn read(&mut self) {
        let seconds = (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                black_box(job());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        self.readings.push(seconds);
        self.last = Some(Instant::now());
    }

    /// Takes a reading when [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= INTERVAL) {
            self.read();
        }
    }

    /// Readings taken so far.
    pub fn count(&self) -> usize {
        self.readings.len()
    }

    /// How much slower than the reference machine this one ran over the
    /// readings `from..to` (clamped to those taken): their median over
    /// [`REFERENCE_PROBE_S`]; 1 without readings.
    pub fn slowdown(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.readings.len());
        let from = from.min(to);
        if from == to {
            return 1.0;
        }
        median(&self.readings[from..to]) / REFERENCE_PROBE_S
    }

    /// The slowdown around work done after the first `taken` readings: the
    /// median of the two readings before it and the one after.
    pub fn slowdown_at(&self, taken: usize) -> f64 {
        self.slowdown(taken.saturating_sub(2), taken + 1)
    }
}
