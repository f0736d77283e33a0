//! The three workloads and the round that runs one of them: set-up, then
//! the timed phases (prelude, main mix, drain), every op checked against
//! the shadow model.

use crate::model::{Digest, Model, Rng, Stratified};
use crate::speed::Probe;
use crate::stack::{boot_traced, boot_untraced, Geometry, Os};
use crate::trace::{check_partition, trace_request, Layer};
use rgpdos::blockdev::DeviceStats;
use rgpdos::core::{ConsentDecision, FieldValue, PdId, Row, SubjectId};
use rgpdos::dbfs::SpaceStats;
use rgpdos::ded::{InvokeRequest, InvokeResult};
use rgpdos::rights::{ErasureReceipt, SubjectAccessPackage};
use rgpdos::workloads::{OperationKind, WorkloadMix};
use std::sync::Barrier;
use std::time::Instant;

/// One kind of timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `collect`.
    Collect,
    /// `invoke(compute_age, InvokeRequest::subject)`.
    Invoke,
    /// `invoke(compute_age, InvokeRequest::whole_type)`.
    TableInvoke,
    /// `right_of_access`.
    Access,
    /// `right_to_portability`.
    Portability,
    /// `right_to_be_forgotten`.
    Erasure,
    /// `grant_consent`.
    Consent,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 7] = [
        OpKind::Access,
        OpKind::Portability,
        OpKind::Consent,
        OpKind::Erasure,
        OpKind::Collect,
        OpKind::Invoke,
        OpKind::TableInvoke,
    ];

    /// Report name (the prefix of its latency metrics).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Collect => "collect",
            OpKind::Invoke => "invoke",
            OpKind::TableInvoke => "table_invoke",
            OpKind::Access => "access",
            OpKind::Portability => "portability",
            OpKind::Erasure => "erasure",
            OpKind::Consent => "consent",
        }
    }

    /// The layer the op's root span is charged to.
    pub fn root_layer(self) -> Layer {
        match self {
            OpKind::Collect | OpKind::Invoke | OpKind::TableInvoke => Layer::Ded,
            _ => Layer::Rights,
        }
    }

    fn is_write(self) -> bool {
        matches!(self, OpKind::Collect | OpKind::Erasure | OpKind::Consent)
    }

    fn from_mix(kind: OperationKind) -> Self {
        match kind {
            OperationKind::Collect => OpKind::Collect,
            // An application never reads PD directly in rgpdOS: a read is a
            // per-subject invocation of a registered processing.
            OperationKind::Read => OpKind::Invoke,
            OperationKind::Update | OperationKind::ConsentChange => OpKind::Consent,
            OperationKind::Invoke => OpKind::TableInvoke,
            OperationKind::AccessRequest => OpKind::Access,
            OperationKind::Portability => OpKind::Portability,
            OperationKind::Erasure => OpKind::Erasure,
            OperationKind::Audit => unreachable!("no workload mixes in audits"),
        }
    }
}

/// Where in a round an op ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Single-threaded ops before the main mix.
    Prelude,
    /// The workload's closed-loop mix.
    Main,
    /// Access then erasure of every live subject.
    Drain,
}

/// A workload: its population, store and phases.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Fixed name.
    pub name: &'static str,
    /// Distinct subjects.
    pub subjects: usize,
    /// Population records (Zipf-1.0 over the subjects).
    pub records: usize,
    /// Store geometry.
    pub geometry: Geometry,
    /// Closed-loop client threads in the main phase.
    pub threads: usize,
    /// Main-phase ops per client thread per round.
    pub main_ops: usize,
    /// Main-phase op weights.
    pub mix: WorkloadMix,
    /// The last population rows, collected one by one in the prelude
    /// instead of being ingested in set-up.
    pub timed_collects: usize,
    /// Whether the prelude sets consent on every live subject.
    pub prelude_consent: bool,
    /// Whole-table invokes that end the prelude.
    pub prelude_tables: usize,
    /// Whether the round ends by accessing, exporting (portability) then
    /// erasing every live subject.
    pub drain: bool,
}

const NO_OPS: WorkloadMix = WorkloadMix {
    collect: 0,
    read: 0,
    update: 0,
    invoke: 0,
    access_request: 0,
    portability: 0,
    erasure: 0,
    consent_change: 0,
    audit: 0,
};

/// The workload names, in report order.
pub const WORKLOADS: [&str; 3] = ["customer", "controller", "readers-2t"];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        "customer" => Some(Spec {
            name: "customer",
            subjects: 1_500,
            records: 6_000,
            geometry: Geometry {
                device_blocks: 32_768,
                block_size: 2_048,
                inodes: 20_000,
                shards: 0,
            },
            threads: 1,
            main_ops: 2_000,
            mix: WorkloadMix::customer(),
            timed_collects: 0,
            prelude_consent: false,
            // The main mix has no whole-table invoke: these give the
            // table-invoke median samples enough (readers-2t runs more of
            // its cheaper ones).
            prelude_tables: 5,
            drain: false,
        }),
        "controller" => Some(Spec {
            name: "controller",
            subjects: 150,
            records: 6_000,
            geometry: Geometry {
                device_blocks: 32_768,
                block_size: 2_048,
                inodes: 20_000,
                shards: 0,
            },
            threads: 1,
            main_ops: 200,
            mix: WorkloadMix {
                collect: 15,
                read: 60,
                update: 20,
                invoke: 1,
                portability: 2,
                consent_change: 2,
                ..NO_OPS
            },
            timed_collects: 0,
            prelude_consent: false,
            // Two more a round come from the main mix.
            prelude_tables: 3,
            drain: true,
        }),
        "readers-2t" => Some(Spec {
            name: "readers-2t",
            subjects: 150,
            records: 600,
            geometry: Geometry {
                device_blocks: 8_192,
                block_size: 2_048,
                inodes: 4_096,
                shards: 2,
            },
            threads: 2,
            main_ops: 2_000,
            mix: WorkloadMix {
                read: 1,
                access_request: 1,
                portability: 1,
                ..NO_OPS
            },
            timed_collects: 150,
            prelude_consent: true,
            prelude_tables: 25,
            drain: true,
        }),
        _ => None,
    }
}

/// One op, fully planned before it is issued.
#[derive(Debug, Clone)]
struct Op {
    kind: OpKind,
    subject: usize,
    row: Option<(Row, i64)>,
    allow: bool,
}

enum Reply {
    Id(PdId),
    Package(SubjectAccessPackage),
    Receipt(ErasureReceipt),
    Changed(usize),
    Invoked(InvokeResult),
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What ran.
    pub kind: OpKind,
    /// When.
    pub phase: Phase,
    /// Wall-clock time of the call, ns.
    pub wall_ns: u64,
    /// Simulated device µs charged during the call.
    pub sim_us: u64,
    /// Device writes during the call.
    pub dev_writes: u64,
    /// Payload bytes the op submitted (collects only).
    pub user_bytes: u64,
    /// Audit events recorded before the call.
    pub audit_before: u64,
    /// Per-layer self time (traced rounds only), ns.
    pub layer_ns: [u64; 4],
    /// Root span time (traced rounds only), ns.
    pub root_ns: u64,
    /// Records the DED processed and denied (invokes only).
    pub processed: u64,
    /// See `processed`.
    pub denied: u64,
    /// Speed-probe readings the client had taken before the call.
    pub probe_at: usize,
    /// How much slower than the reference machine this one ran around the
    /// call, by the speed probe of the client that issued it (see
    /// [`crate::speed`]); 0 until that client calibrates its samples.
    pub slowdown: f64,
}

/// Counters read between phases; a round sums their deltas over its timed
/// phases only.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    /// Per device.
    pub devices: Vec<DeviceStats>,
    /// Timed-device busy ns, summed over devices (traced rounds).
    pub dev_busy_ns: u64,
    /// `(calls, busy ns)` per `PdStore` method (traced rounds).
    pub store: Vec<(u64, u64)>,
    /// Inode cache hits (traced rounds).
    pub cache_hits: u64,
    /// Inode cache misses (traced rounds).
    pub cache_misses: u64,
    /// Journal transactions (traced rounds).
    pub journal_txs: u64,
    /// Audit events.
    pub audit: u64,
}

impl Meter {
    fn read(os: &dyn Os) -> Self {
        let mut meter = Meter {
            devices: os.device_stats(),
            audit: os.audit_len() as u64,
            ..Meter::default()
        };
        if let Some(layers) = os.layers() {
            meter.dev_busy_ns = layers
                .timed_devices()
                .iter()
                .flat_map(|d| d.counters())
                .map(|(_, busy)| busy)
                .sum();
            meter.store = layers.store_counters();
            let (counters, _, _) = layers.trace_ctx().registry.collect();
            let sum = |name: &str| -> u64 {
                counters
                    .iter()
                    .filter(|(key, _)| *key == name || key.starts_with(&format!("{name}{{")))
                    .map(|(_, v)| *v)
                    .sum()
            };
            meter.cache_hits = sum("fs_cache_hits");
            meter.cache_misses = sum("fs_cache_misses");
            meter.journal_txs = sum("fs_journal_txs");
        }
        meter
    }

    fn add_delta(&mut self, before: &Meter, after: &Meter) {
        if self.devices.is_empty() {
            self.devices = vec![DeviceStats::default(); after.devices.len()];
        }
        for ((acc, b), a) in self
            .devices
            .iter_mut()
            .zip(&before.devices)
            .zip(&after.devices)
        {
            acc.reads += a.reads - b.reads;
            acc.writes += a.writes - b.writes;
            acc.flushes += a.flushes - b.flushes;
            acc.simulated_us += a.simulated_us - b.simulated_us;
        }
        if self.store.is_empty() {
            self.store = vec![(0, 0); after.store.len()];
        }
        for ((acc, b), a) in self.store.iter_mut().zip(&before.store).zip(&after.store) {
            acc.0 += a.0 - b.0;
            acc.1 += a.1 - b.1;
        }
        self.dev_busy_ns += after.dev_busy_ns - before.dev_busy_ns;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.journal_txs += after.journal_txs - before.journal_txs;
        self.audit += after.audit - before.audit;
    }
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether the round ran on the traced stack.
    pub traced: bool,
    /// Closed-loop client threads of the main phase.
    pub threads: usize,
    /// Device block size, bytes.
    pub block_size: usize,
    /// Boot + install + ingest, s, without the speed probe's readings.
    pub setup_s: f64,
    /// Every timed op.
    pub samples: Vec<Sample>,
    /// Main-phase wall time, s.
    pub main_wall_s: f64,
    /// Main-phase process CPU time, s.
    pub main_cpu_s: f64,
    /// How much slower than the reference machine this one ran during the
    /// set-up, by the speed probe (see [`crate::speed`]).
    pub setup_slowdown: f64,
    /// Counter deltas over the timed phases.
    pub meter: Meter,
    /// Space footprint at the end of the main phase.
    pub space: SpaceStats,
    /// Allocated blocks right after set-up.
    pub blocks_after_setup: u64,
    /// Digest of every op outcome, in op order (per thread, in thread order).
    pub digest: u64,
    /// Failed or incorrect ops.
    pub failed: u64,
    /// Messages of the first failures.
    pub errors: Vec<String>,
}

fn row_bytes(row: &Row) -> u64 {
    row.iter()
        .map(|(name, value)| {
            name.len() as u64
                + match value {
                    FieldValue::Text(text) => text.len() as u64,
                    _ => 8,
                }
        })
        .sum()
}

/// `n` op kinds interleaved by smooth weighted round robin from seeded
/// starting credits: every stretch of the stream holds each kind in close
/// to the mix's proportions.  iid draws would let the count and the
/// position of the rare, costly kinds, and with them the cost of a round,
/// vary from seed to seed.
fn kind_stream(mix: &WorkloadMix, n: usize, rng: &mut Rng) -> Vec<OpKind> {
    let weights: Vec<(OpKind, i64)> = [
        (OperationKind::Collect, mix.collect),
        (OperationKind::Read, mix.read),
        (OperationKind::Update, mix.update),
        (OperationKind::Invoke, mix.invoke),
        (OperationKind::AccessRequest, mix.access_request),
        (OperationKind::Portability, mix.portability),
        (OperationKind::Erasure, mix.erasure),
        (OperationKind::ConsentChange, mix.consent_change),
    ]
    .into_iter()
    .filter(|&(_, w)| w > 0)
    .map(|(kind, w)| (OpKind::from_mix(kind), i64::from(w)))
    .collect();
    let total: i64 = weights.iter().map(|(_, w)| w).sum();
    let mut credit: Vec<i64> = weights
        .iter()
        .map(|_| rng.below(total as u64) as i64)
        .collect();
    (0..n)
        .map(|_| {
            for (c, (_, w)) in credit.iter_mut().zip(&weights) {
                *c += w;
            }
            let pick = (0..credit.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("a mix has at least one kind");
            credit[pick] -= total;
            weights[pick].0
        })
        .collect()
}

/// Seeds the op stream: the interleaving of kinds and the stratified
/// target sequences.  It is part of the workload's definition, not of its
/// seed.  With a hottest subject holding an eighth of the data, whether
/// one consent change lands on it before its erasure moves a whole round's
/// cost by a sixth; a seeded stream would make every seed a different
/// benchmark.  `--seed` generates the population and the collected rows.
const STREAM: u64 = 0x0005_7EA4_0F0B;

/// One stratified target sequence per op kind, so every kind's targets
/// follow the Zipf weights closely within a single round.
struct Targets(Vec<Stratified>);

impl Targets {
    fn new(rng: &mut Rng) -> Self {
        Self(OpKind::ALL.iter().map(|_| Stratified::new(rng)).collect())
    }
}

fn plan(
    kind: OpKind,
    model: &Model,
    targets: &mut Targets,
    rng: &mut Rng,
    fresh: &mut u64,
) -> Option<Op> {
    let subject = match kind {
        OpKind::TableInvoke => 0,
        _ => model.zipf_live(&mut targets.0[kind as usize])?,
    };
    let row = (kind == OpKind::Collect).then(|| {
        *fresh += 1;
        let year = 1940 + rng.below(65) as i64;
        let row = Row::new()
            .with("name", format!("fresh-{subject}-{fresh}"))
            .with("pwd", "pw")
            .with("year_of_birthdate", year);
        (row, year)
    });
    Some(Op {
        kind,
        subject,
        row,
        allow: model.next_consent_allows(subject),
    })
}

fn issue(os: &dyn Os, op: &Op) -> Result<Reply, String> {
    let subject = SubjectId::new(op.subject as u64);
    Ok(match op.kind {
        OpKind::Collect => {
            let (row, _) = op.row.clone().expect("a collect carries its row");
            Reply::Id(os.collect(subject, row)?)
        }
        OpKind::Invoke => Reply::Invoked(os.invoke(InvokeRequest::subject(subject))?),
        OpKind::TableInvoke => Reply::Invoked(os.invoke(InvokeRequest::whole_type())?),
        OpKind::Access => Reply::Package(os.access(subject)?),
        OpKind::Portability => Reply::Package(os.portability(subject)?),
        OpKind::Erasure => Reply::Receipt(os.erase(subject)?),
        OpKind::Consent => {
            let decision = if op.allow {
                ConsentDecision::All
            } else {
                ConsentDecision::None
            };
            Reply::Changed(os.consent(subject, decision)?)
        }
    })
}

/// Checks `reply` against the model and folds the outcome into `digest`.
fn check(op: &Op, reply: &Reply, model: &Model, digest: &mut Digest) -> Result<(), String> {
    digest.add(op.kind as u64);
    digest.add(op.subject as u64);
    match reply {
        Reply::Id(id) => digest.add(id.raw()),
        Reply::Package(package) => {
            model.check_package(op.subject, package)?;
            package.items.iter().for_each(|item| digest.add(item.pd_id));
        }
        Reply::Receipt(receipt) => {
            model.check_receipt(op.subject, receipt)?;
            receipt.erased.iter().for_each(|id| digest.add(id.raw()));
        }
        Reply::Changed(changed) => {
            let expected = model.records(op.subject).len();
            if *changed != expected {
                return Err(format!(
                    "consent of subject {} changed {changed} items, model {expected}",
                    op.subject
                ));
            }
            digest.add(*changed as u64);
        }
        Reply::Invoked(result) => {
            if op.kind == OpKind::TableInvoke {
                Model::check_invoke(model.all_records(), result)?;
            } else {
                Model::check_invoke(model.records(op.subject).values(), result)?;
            }
            digest.add(result.processed as u64);
            digest.add(result.denied as u64);
            result
                .values
                .iter()
                .filter_map(FieldValue::as_int)
                .for_each(|v| digest.add(v as u64));
        }
    }
    Ok(())
}

fn apply(op: &Op, reply: &Reply, model: &mut Model) -> Result<(), String> {
    match (op.kind, reply) {
        (OpKind::Collect, Reply::Id(id)) => {
            let (_, year) = op.row.as_ref().expect("a collect carries its row");
            model.add(op.subject, *id, *year)
        }
        (OpKind::Erasure, _) => {
            model.erase(op.subject);
            Ok(())
        }
        (OpKind::Consent, _) => {
            model.set_consent(op.subject, op.allow);
            Ok(())
        }
        _ => Ok(()),
    }
}

fn sim_and_writes(stats: &[DeviceStats]) -> (u64, u64) {
    stats
        .iter()
        .fold((0, 0), |(sim, w), s| (sim + s.simulated_us, w + s.writes))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Issues planned ops one at a time: times each call (inside a traced
/// request on the traced stack), checks the reply against the model and
/// folds the outcome into the digest.
struct Client<'a> {
    os: &'a dyn Os,
    traced: bool,
    request: u64,
    digest: Digest,
    failed: u64,
    errors: Vec<String>,
    probe: Probe,
}

impl Client<'_> {
    fn run(&mut self, op: &Op, phase: Phase, model: &Model) -> (Sample, Option<Reply>) {
        let (sim0, writes0) = sim_and_writes(&self.os.device_stats());
        let audit_before = if op.kind == OpKind::Access {
            self.os.audit_len() as u64
        } else {
            0
        };
        self.request += 1;
        self.probe.tick();
        let probe_at = self.probe.count();
        let start = Instant::now();
        let (reply, spans) = if self.traced {
            let (reply, spans) =
                trace_request(self.request, op.kind.name(), op.kind.root_layer(), || {
                    issue(self.os, op)
                });
            (reply, Some(spans))
        } else {
            (issue(self.os, op), None)
        };
        let wall_ns = elapsed_ns(start);
        let (sim1, writes1) = sim_and_writes(&self.os.device_stats());
        let mut sample = Sample {
            kind: op.kind,
            phase,
            wall_ns,
            sim_us: sim1 - sim0,
            dev_writes: writes1 - writes0,
            user_bytes: op.row.as_ref().map_or(0, |(row, _)| row_bytes(row)),
            audit_before,
            layer_ns: [0; 4],
            root_ns: 0,
            processed: 0,
            denied: 0,
            probe_at,
            slowdown: 0.0,
        };
        if let Some(spans) = spans {
            match check_partition(&spans, 0) {
                Ok(parts) => {
                    sample.layer_ns = parts;
                    sample.root_ns = spans[0].duration_ns();
                }
                Err(e) => self.fail(e),
            }
        }
        match reply {
            Ok(reply) => {
                if let Reply::Invoked(result) = &reply {
                    sample.processed = result.processed as u64;
                    sample.denied = result.denied as u64;
                }
                match check(op, &reply, model, &mut self.digest) {
                    Ok(()) => (sample, Some(reply)),
                    Err(e) => {
                        self.fail(format!("{}: {e}", op.kind.name()));
                        (sample, None)
                    }
                }
            }
            Err(e) => {
                self.fail(format!("{} of subject {}: {e}", op.kind.name(), op.subject));
                (sample, None)
            }
        }
    }

    /// Takes a last reading and sets the slowdown of each of `samples` not
    /// yet calibrated (those this client issued) from the readings around
    /// it.
    fn calibrate(&mut self, samples: &mut [Sample]) {
        self.probe.read();
        for sample in samples.iter_mut().filter(|s| s.slowdown == 0.0) {
            sample.slowdown = self.probe.slowdown_at(sample.probe_at);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Process CPU time (user + system) in s, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// `records` Listing-1 rows over `subjects` subjects, subject `r` holding
/// a Zipf-1.0 share `records / ((r + 1) H(subjects))` of them.  Counts come
/// from systematic sampling with a seeded offset, so each is its expected
/// value rounded up or down and they sum to `records`; iid draws would give
/// mid-ranked subjects, the ones a median op lands on, counts that differ
/// by a fifth from seed to seed.  Rows come in a seeded order with seeded
/// birth years.
pub fn population(seed: u64, subjects: usize, records: usize) -> Vec<(SubjectId, Row)> {
    let mut rng = Rng::new(seed);
    let harmonic: f64 = (1..=subjects).map(|r| 1.0 / r as f64).sum();
    let offset = rng.unit();
    let mut cumulative = 0.0;
    let mut taken = 0usize;
    let mut rows = Vec::with_capacity(records);
    for rank in 0..subjects {
        cumulative += records as f64 / ((rank + 1) as f64 * harmonic);
        let upto = ((cumulative + offset).floor() as usize).min(records);
        for _ in taken..upto {
            rows.push(rank);
        }
        taken = upto.max(taken);
    }
    rows.resize(records, subjects - 1);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rows.into_iter()
        .enumerate()
        .map(|(record, rank)| {
            let row = Row::new()
                .with("name", format!("subject-{rank}-{record}"))
                .with("pwd", "pw")
                .with("year_of_birthdate", 1940 + rng.below(65) as i64);
            (SubjectId::new(rank as u64), row)
        })
        .collect()
}

/// Runs one round of `spec` for `seed`, on the traced stack when `traced`.
///
/// # Errors
///
/// Fails on set-up errors; op failures are counted in the round instead.
pub fn run_round(spec: &Spec, seed: u64, traced: bool) -> Result<Round, String> {
    let population = population(seed, spec.subjects, spec.records);
    let split = spec.records - spec.timed_collects;

    // Set-up time excludes the probe readings taken between its steps.
    let mut probe = Probe::new();
    probe.read();
    let mut setup_s = 0.0;
    let setup_start = Instant::now();
    let stack = if traced {
        boot_traced(spec.geometry)?
    } else {
        boot_untraced(spec.geometry)?
    };
    setup_s += setup_start.elapsed().as_secs_f64();
    let os = stack.as_ref();
    let mut model = Model::new(spec.subjects);
    for chunk in population[..split].chunks(500) {
        probe.read();
        let chunk_start = Instant::now();
        let ids = os.ingest(chunk.to_vec())?;
        setup_s += chunk_start.elapsed().as_secs_f64();
        for ((subject, row), id) in chunk.iter().zip(ids) {
            let year = row
                .get("year_of_birthdate")
                .and_then(FieldValue::as_int)
                .ok_or("population row without a year")?;
            model.add(subject.raw() as usize, id, year)?;
        }
    }
    probe.read();
    let setup_slowdown = probe.slowdown(0, probe.count());

    let mut round = Round {
        traced,
        threads: spec.threads,
        block_size: spec.geometry.block_size,
        setup_s,
        setup_slowdown,
        blocks_after_setup: os.space_stats()?.allocated_blocks,
        ..Round::default()
    };
    let mut client = Client {
        os,
        traced,
        request: 0,
        digest: Digest::default(),
        failed: 0,
        errors: Vec::new(),
        probe,
    };
    let mut rng = Rng::new(seed ^ 0x5EED_0F0B_5EED_0F0B);
    let mut stream = Rng::new(STREAM);
    let mut targets = Targets::new(&mut stream);
    let mut fresh = 0u64;

    // Prelude.
    let before = Meter::read(os);
    for (subject, row) in &population[split..] {
        let year = row
            .get("year_of_birthdate")
            .and_then(FieldValue::as_int)
            .unwrap_or(0);
        let op = Op {
            kind: OpKind::Collect,
            subject: subject.raw() as usize,
            row: Some((row.clone(), year)),
            allow: true,
        };
        run_and_apply(
            &mut client,
            &op,
            Phase::Prelude,
            &mut model,
            &mut round.samples,
        );
    }
    if spec.prelude_consent {
        for subject in model.live_subjects().to_vec() {
            let op = Op {
                kind: OpKind::Consent,
                subject,
                row: None,
                // Every fourth subject withdraws consent.
                allow: subject % 4 != 3,
            };
            run_and_apply(
                &mut client,
                &op,
                Phase::Prelude,
                &mut model,
                &mut round.samples,
            );
        }
    }
    let table = Op {
        kind: OpKind::TableInvoke,
        subject: 0,
        row: None,
        allow: true,
    };
    for _ in 0..spec.prelude_tables {
        run_and_apply(
            &mut client,
            &table,
            Phase::Prelude,
            &mut model,
            &mut round.samples,
        );
    }
    round.meter.add_delta(&before, &Meter::read(os));

    // Main mix.
    let before = Meter::read(os);
    let cpu0 = process_cpu_s();
    let main_start = Instant::now();
    if spec.threads == 1 {
        for kind in kind_stream(&spec.mix, spec.main_ops, &mut stream) {
            match plan(kind, &model, &mut targets, &mut rng, &mut fresh) {
                Some(op) => {
                    run_and_apply(
                        &mut client,
                        &op,
                        Phase::Main,
                        &mut model,
                        &mut round.samples,
                    );
                }
                None => client.fail(format!("{}: no live subject left", kind.name())),
            }
        }
    } else {
        run_readers(spec, seed, &model, &mut client, &mut round.samples);
    }
    round.main_wall_s = main_start.elapsed().as_secs_f64();
    round.main_cpu_s = process_cpu_s() - cpu0;
    round.meter.add_delta(&before, &Meter::read(os));

    // Untimed checks at the end of the main mix.
    round.space = os.space_stats()?;
    let live = os.live_records()?;
    if live != model.live_records() {
        client.fail(format!(
            "store holds {live} live records, model {}",
            model.live_records()
        ));
    }
    if let Err(e) = os.verify() {
        client.fail(e);
    }

    if spec.drain {
        let before = Meter::read(os);
        for subject in model.live_subjects().to_vec() {
            for kind in [OpKind::Access, OpKind::Portability, OpKind::Erasure] {
                let op = Op {
                    kind,
                    subject,
                    row: None,
                    allow: true,
                };
                run_and_apply(
                    &mut client,
                    &op,
                    Phase::Drain,
                    &mut model,
                    &mut round.samples,
                );
            }
        }
        round.meter.add_delta(&before, &Meter::read(os));
        let live = os.live_records()?;
        if live != 0 {
            client.fail(format!("{live} live records survive the drain"));
        }
        if let Err(e) = os.verify() {
            client.fail(e);
        }
    }

    client.calibrate(&mut round.samples);
    round.digest = client.digest.0;
    round.failed = client.failed;
    round.errors = client.errors;
    Ok(round)
}

fn run_and_apply(
    client: &mut Client<'_>,
    op: &Op,
    phase: Phase,
    model: &mut Model,
    samples: &mut Vec<Sample>,
) {
    let (sample, reply) = client.run(op, phase, model);
    samples.push(sample);
    if let Some(reply) = reply {
        if let Err(e) = apply(op, &reply, model) {
            client.fail(e);
        }
    }
}

/// The read-only main phase of a multi-threaded workload: each client
/// thread runs its own seeded stream against the shared, frozen model.
fn run_readers(
    spec: &Spec,
    seed: u64,
    model: &Model,
    client: &mut Client<'_>,
    samples: &mut Vec<Sample>,
) {
    let barrier = Barrier::new(spec.threads);
    let os = client.os;
    let traced = client.traced;
    let outcomes: Vec<(Digest, u64, Vec<String>, Vec<Sample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|thread| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_add(0x7EAD_0000 + thread as u64));
                    let mut stream = Rng::new(STREAM + 1 + thread as u64);
                    let mut targets = Targets::new(&mut stream);
                    let kinds = kind_stream(&spec.mix, spec.main_ops, &mut stream);
                    let mut client = Client {
                        os,
                        traced,
                        request: (thread as u64 + 1) << 40,
                        digest: Digest::default(),
                        failed: 0,
                        errors: Vec::new(),
                        probe: Probe::new(),
                    };
                    let mut samples = Vec::with_capacity(spec.main_ops);
                    let mut fresh = 0u64;
                    barrier.wait();
                    for kind in kinds {
                        assert!(!kind.is_write(), "a multi-threaded mix is read-only");
                        match plan(kind, model, &mut targets, &mut rng, &mut fresh) {
                            Some(op) => samples.push(client.run(&op, Phase::Main, model).0),
                            None => client.fail(format!("{}: no live subject", kind.name())),
                        }
                    }
                    client.calibrate(&mut samples);
                    (client.digest, client.failed, client.errors, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    for (digest, failed, errors, thread_samples) in outcomes {
        client.digest.add(digest.0);
        client.failed += failed;
        for e in errors {
            if client.errors.len() < 5 {
                client.errors.push(e);
            }
        }
        samples.extend(thread_samples);
    }
}
