//! # rgpdos-bench — shared harness for the experiments and Criterion benches
//!
//! The paper is a vision paper without a quantitative evaluation section, so
//! the experiment set reproduced here is the one defined in `DESIGN.md`
//! (F1–F4 for the figures, L1–L3 for the listings, C1–C5 for the prose
//! claims, plus the A-series ablations).  This crate provides the scenario
//! builders shared by the `experiments` binary (which prints every series)
//! and `benches/paper_experiments.rs` (which measures them with Criterion).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crashgrind;

use rgpdos::baseline::UserspaceDbEngine;
use rgpdos::blockdev::{InstrumentedDevice, LatencyModel, MemDevice};
use rgpdos::dbfs::Dbfs;
use rgpdos::prelude::*;
use rgpdos::workloads::{
    GeneratedSubject, MultiTableWorkload, OperationKind, PopulationGenerator, SkewedPopulation,
    WorkloadMix,
};
use std::sync::Arc;

/// The purpose used by the benchmark processings.
pub const BENCH_PURPOSE: &str = "purpose3";

/// A populated rgpdOS instance plus the ids needed by the experiments.
pub struct RgpdOsScenario {
    /// The booted instance.
    pub os: RgpdOs,
    /// The registered `compute_age` processing.
    pub compute_age: rgpdos::core::ProcessingId,
    /// The generated population (one DBFS record each).
    pub population: Vec<GeneratedSubject>,
}

/// Builds the `compute_age` spec of Listing 2.
pub fn compute_age_spec() -> ProcessingSpec {
    ProcessingSpec::builder("compute_age", "user")
        .source(rgpdos::dsl::listings::LISTING_2_C)
        .purpose_declaration(rgpdos::dsl::listings::LISTING_2_PURPOSE)
        .expect("the purpose declaration of Listing 2 parses")
        .expected_view("v_ano")
        .output_type("age_pd")
        .function(Arc::new(|row| {
            let year = row
                .get("year_of_birthdate")
                .and_then(FieldValue::as_int)
                .ok_or("age not allowed to be seen")?;
            Ok(ProcessingOutput::Value(FieldValue::Int(2022 - year)))
        }))
        .build()
}

/// Boots rgpdOS, installs Listing 1, registers `compute_age` and collects
/// `subjects` generated subjects with the given full-consent rate.
///
/// # Panics
///
/// Panics if the simulated device is too small for the requested population
/// (the experiments pick device sizes accordingly).
pub fn rgpdos_scenario(subjects: usize, consent_rate: f64, params: DbfsParams) -> RgpdOsScenario {
    // Scale the simulated device and the inode table with the population so
    // that large sweeps (C5 runs up to 5 000 subjects) fit comfortably.
    let blocks = (subjects as u64 * 8).max(8_192);
    let mut params = params;
    params.inode_params.inode_count = params
        .inode_params
        .inode_count
        .max(subjects as u64 * 3 + 128);
    let os = RgpdOs::builder()
        .device_blocks(blocks)
        .block_size(2_048)
        .dbfs_params(params)
        .boot()
        .expect("boot rgpdOS");
    os.install_types(rgpdos::dsl::listings::LISTING_1)
        .expect("install Listing 1");
    let compute_age = os
        .register_processing(compute_age_spec())
        .expect("register compute_age");
    let population = PopulationGenerator::new(0x0F16)
        .with_consent_rate(consent_rate)
        .with_restricted_rate((1.0 - consent_rate) / 2.0)
        .generate(subjects);
    for subject in &population {
        let pd = os
            .collect("user", subject.subject, subject.row.clone())
            .expect("collect subject row");
        os.dbfs()
            .apply_membrane_delta(
                &"user".into(),
                pd,
                &MembraneDelta::Grant {
                    purpose: BENCH_PURPOSE.into(),
                    decision: subject.consent.clone(),
                },
            )
            .expect("apply consent decision");
    }
    RgpdOsScenario {
        os,
        compute_age,
        population,
    }
}

/// A populated baseline (Fig. 2) engine.
pub struct BaselineScenario {
    /// The engine.
    pub engine: UserspaceDbEngine<Arc<MemDevice>>,
    /// The raw device underneath (for residue scans).
    pub device: Arc<MemDevice>,
    /// The record ids inserted.
    pub records: Vec<u64>,
    /// The generated population.
    pub population: Vec<GeneratedSubject>,
}

/// Builds the baseline engine with the same population as
/// [`rgpdos_scenario`].
///
/// # Panics
///
/// Panics when the simulated device cannot hold the population.
pub fn baseline_scenario(subjects: usize, consent_rate: f64) -> BaselineScenario {
    let blocks = (subjects as u64 * 16).max(16_384);
    let device = Arc::new(MemDevice::new(blocks, 512));
    let engine = UserspaceDbEngine::new(Arc::clone(&device)).expect("baseline engine");
    engine.create_table("user").expect("create table");
    let population = PopulationGenerator::new(0x0F16)
        .with_consent_rate(consent_rate)
        .with_restricted_rate((1.0 - consent_rate) / 2.0)
        .generate(subjects);
    let mut records = Vec::with_capacity(subjects);
    for subject in &population {
        let id = engine
            .insert("user", subject.subject, &subject.row)
            .expect("insert row");
        engine.set_consent(
            subject.subject,
            &BENCH_PURPOSE.into(),
            subject.consent.allows_any(),
        );
        records.push(id);
    }
    BaselineScenario {
        engine,
        device,
        records,
        population,
    }
}

/// A populated many-tables DBFS for the S1 scaling experiment: the *target*
/// table has a fixed record count, every other table only adds unrelated
/// records.  With the secondary indexes, scanning the target table costs the
/// same however many unrelated records exist.
pub struct ScalingScenario {
    /// The populated store.
    pub dbfs: Dbfs<Arc<InstrumentedDevice<MemDevice>>>,
    /// The instrumented device underneath (for block-read accounting).
    pub device: Arc<InstrumentedDevice<MemDevice>>,
    /// Name of the target table.
    pub target: DataTypeId,
    /// Records in the target table.
    pub target_records: usize,
    /// Records spread over the other tables.
    pub other_records: usize,
}

/// Builds the S1 scenario: one target table of `target_records` records
/// created and populated *first* (so its on-disk layout is identical across
/// scenario sizes), then `other_tables` tables of `records_per_other_table`
/// records each.
///
/// # Panics
///
/// Panics when the simulated device cannot hold the requested population.
pub fn scaling_scenario(
    target_records: usize,
    other_tables: usize,
    records_per_other_table: usize,
) -> ScalingScenario {
    let total = target_records + other_tables * records_per_other_table;
    let device = Arc::new(InstrumentedDevice::new(
        MemDevice::new((total as u64 * 24).max(16_384), 512),
        LatencyModel::nvme(),
    ));
    let mut params = DbfsParams::secure();
    params.inode_params.inode_count = params.inode_params.inode_count.max(total as u64 * 2 + 256);
    let dbfs = Dbfs::format(Arc::clone(&device), params).expect("format scaling DBFS");

    // Populations ingest through the batched write path (journal group
    // commit), the same API the S3 experiment measures.
    let target_gen = MultiTableWorkload::new(1, target_records).with_payload_bytes(1_024);
    let target: DataTypeId = MultiTableWorkload::table_name(0).as_str().into();
    dbfs.create_type(target_gen.schema(0)).expect("target type");
    dbfs.collect_many(&target, target_gen.rows(0).collect())
        .expect("collect target rows");

    let other_gen = MultiTableWorkload::new(other_tables + 1, records_per_other_table)
        .with_payload_bytes(1_024);
    for table in 1..=other_tables {
        dbfs.create_type(other_gen.schema(table))
            .expect("other type");
        let name: DataTypeId = MultiTableWorkload::table_name(table).as_str().into();
        dbfs.collect_many(&name, other_gen.rows(table).collect())
            .expect("collect other rows");
    }

    ScalingScenario {
        dbfs,
        device,
        target,
        target_records,
        other_records: other_tables * records_per_other_table,
    }
}

/// The instrumented device type the sharded scenarios run on.
pub type ShardDevice = Arc<InstrumentedDevice<MemDevice>>;

/// A populated sharded DBFS for the S2 scaling experiment: one *target*
/// subject with a fixed record count on its home shard, plus a skewed
/// multi-subject population spread over the **other** shards.  With
/// subject-hash placement, operations routed by the target subject must cost
/// the same number of block reads however much data the other shards hold.
pub struct ShardedScalingScenario {
    /// The sharded store.
    pub dbfs: ShardedDbfs<ShardDevice>,
    /// The per-shard instrumented devices, in shard order.
    pub devices: Vec<ShardDevice>,
    /// The subject whose records form the isolation target.
    pub target_subject: SubjectId,
    /// The target subject's home shard.
    pub target_shard: usize,
    /// Records collected for the target subject.
    pub target_records: usize,
    /// Records collected for the skewed off-target population.
    pub other_records: usize,
}

/// Builds the S2 scenario: `shards` shards, a target subject homed on shard
/// 0 with `target_records` records collected *first* (so its on-disk layout
/// is identical across scenario sizes), then `other_records` rows of a
/// Zipf-skewed population restricted to subjects homed on other shards.
///
/// # Panics
///
/// Panics when a simulated shard device cannot hold the requested
/// population, or when `shards < 2` while `other_records > 0` (the
/// off-target population needs a non-target shard to live on).
pub fn sharded_scaling_scenario(
    shards: usize,
    target_records: usize,
    other_records: usize,
) -> ShardedScalingScenario {
    assert!(
        other_records == 0 || shards >= 2,
        "off-target records need a second shard"
    );
    let per_device = ((target_records + other_records) as u64 * 24).max(16_384);
    let devices: Vec<ShardDevice> = (0..shards)
        .map(|_| {
            Arc::new(InstrumentedDevice::new(
                MemDevice::new(per_device, 512),
                LatencyModel::nvme(),
            ))
        })
        .collect();
    let mut params = DbfsParams::secure();
    params.inode_params.inode_count = params
        .inode_params
        .inode_count
        .max((target_records + other_records) as u64 * 2 + 256);
    let dbfs = ShardedDbfs::format(devices.clone(), params).expect("format sharded DBFS");
    dbfs.create_type(rgpdos::core::schema::listing1_user_schema())
        .expect("install user type");

    // The target subject: the smallest raw id homed on shard 0.
    let target_subject = (0..u64::MAX)
        .map(SubjectId::new)
        .find(|&s| dbfs.home_shard(s) == 0)
        .expect("some subject is homed on shard 0");
    // Batched ingest via the router's scatter-write path (per-shard group
    // commit) — the same API the S3 experiment measures.
    dbfs.collect_many(
        &"user".into(),
        (0..target_records)
            .map(|record| {
                (
                    target_subject,
                    rgpdos::core::Row::new()
                        .with("name", format!("target-{record}"))
                        .with("pwd", "pw")
                        .with("year_of_birthdate", 1990i64),
                )
            })
            .collect(),
    )
    .expect("collect target rows");

    // The skewed off-target population: remap every generated subject onto a
    // raw id homed away from shard 0, keeping the Zipf record-count skew.
    let population = SkewedPopulation::new(0x52, 64, other_records);
    let mut remapped: std::collections::BTreeMap<u64, SubjectId> =
        std::collections::BTreeMap::new();
    let mut next_raw = target_subject.raw() + 1;
    let skewed_rows: Vec<(SubjectId, rgpdos::core::Row)> = population
        .rows()
        .into_iter()
        .map(|(subject, row)| {
            let mapped = *remapped.entry(subject.raw()).or_insert_with(|| loop {
                let candidate = SubjectId::new(next_raw);
                next_raw += 1;
                if dbfs.home_shard(candidate) != 0 {
                    break candidate;
                }
            });
            (mapped, row)
        })
        .collect();
    dbfs.collect_many(&"user".into(), skewed_rows)
        .expect("collect skewed rows");

    ShardedScalingScenario {
        target_shard: dbfs.home_shard(target_subject),
        dbfs,
        devices,
        target_subject,
        target_records,
        other_records,
    }
}

/// Outcome of replaying a GDPRBench-style mix (experiment C4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixOutcome {
    /// Operations attempted.
    pub operations: usize,
    /// Operations that failed (should stay zero).
    pub failures: usize,
}

/// Replays an operation mix against a populated rgpdOS scenario.
///
/// # Panics
///
/// Panics on unexpected runtime failures (failures that are *expected* by the
/// mix, e.g. access to an erased subject, are counted instead).
pub fn run_mix_on_rgpdos(scenario: &RgpdOsScenario, mix: &WorkloadMix, ops: usize) -> MixOutcome {
    let stream = mix.generate(ops, 0xC4);
    let mut outcome = MixOutcome {
        operations: ops,
        failures: 0,
    };
    let subjects: Vec<SubjectId> = scenario.population.iter().map(|s| s.subject).collect();
    let mut next_subject_id = 1_000_000u64;
    for (i, op) in stream.iter().enumerate() {
        let subject = subjects[i % subjects.len()];
        let result: Result<(), String> = match op {
            OperationKind::Collect => {
                next_subject_id += 1;
                scenario
                    .os
                    .collect(
                        "user",
                        SubjectId::new(next_subject_id),
                        rgpdos::core::Row::new()
                            .with("name", format!("extra-{next_subject_id}"))
                            .with("pwd", "pw")
                            .with("year_of_birthdate", 1990i64),
                    )
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            OperationKind::Read => scenario
                .os
                .dbfs()
                .records_of_subject(subject)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Update | OperationKind::ConsentChange => scenario
                .os
                .rights()
                .grant_consent(subject, &"newsletter".into(), ConsentDecision::All)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Invoke => scenario
                .os
                .invoke(scenario.compute_age, InvokeRequest::whole_type())
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::AccessRequest => match scenario.os.right_of_access(subject) {
                Ok(_) => Ok(()),
                // Serving "no data" is a valid outcome once the subject has
                // been erased earlier in the stream.
                Err(_) => Ok(()),
            },
            OperationKind::Portability => match scenario.os.right_to_portability(subject) {
                Ok(_) => Ok(()),
                // As for access: an erased subject has nothing to export.
                Err(_) => Ok(()),
            },
            OperationKind::Erasure => scenario
                .os
                .right_to_be_forgotten(subject)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            OperationKind::Audit => scenario
                .os
                .compliance_report()
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        if result.is_err() {
            outcome.failures += 1;
        }
    }
    outcome
}

/// Replays the same mix against the baseline engine (operations that have no
/// baseline equivalent — audits — fall back to a full-table export).
///
/// # Panics
///
/// Panics on unexpected engine failures.
pub fn run_mix_on_baseline(
    scenario: &BaselineScenario,
    mix: &WorkloadMix,
    ops: usize,
) -> MixOutcome {
    let stream = mix.generate(ops, 0xC4);
    let mut outcome = MixOutcome {
        operations: ops,
        failures: 0,
    };
    let mut erased: Vec<u64> = Vec::new();
    for (i, op) in stream.iter().enumerate() {
        let idx = i % scenario.records.len();
        let subject = scenario.population[idx].subject;
        let record = scenario.records[idx];
        let ok = match op {
            OperationKind::Collect => scenario
                .engine
                .insert("user", subject, &scenario.population[idx].row)
                .is_ok(),
            OperationKind::Read => scenario.engine.export_subject(subject).is_ok(),
            OperationKind::Invoke => scenario.engine.query("user", &BENCH_PURPOSE.into()).is_ok(),
            OperationKind::Update | OperationKind::ConsentChange => {
                scenario
                    .engine
                    .set_consent(subject, &"newsletter".into(), true);
                true
            }
            OperationKind::AccessRequest | OperationKind::Portability | OperationKind::Audit => {
                scenario.engine.export_subject(subject).is_ok()
            }
            OperationKind::Erasure => {
                if erased.contains(&record) {
                    true
                } else {
                    erased.push(record);
                    scenario.engine.delete("user", record).is_ok()
                }
            }
        };
        if !ok {
            outcome.failures += 1;
        }
    }
    outcome
}

/// Replays a GDPRBench-style mix at Zipf skew **directly against a
/// [`PdStore`]** (single-device or sharded), timing every operation into the
/// `gdpr_right_latency_us` histogram family of `ctx` — one series per
/// `(right, mix)` label pair, so the `--gdpr` experiment can report p50/p99
/// per right.  Subjects are drawn with the same skew the population was
/// ingested with: the hottest subjects receive most of the rights traffic,
/// the realistic worst case for erasure (their lineage is the widest).
///
/// Rights map onto the store surface as follows: access →
/// [`PdStore::records_of_subject`], portability → a subject-pinned query
/// (the machine-readable export), erasure → [`PdStore::erase_subject`],
/// reads/updates/invokes/audits → membrane loads, consent deltas, full-table
/// queries and audit-log sweeps (the controller/regulator traffic).  Each
/// store call has its own `right` label: `read` (per-subject membrane
/// load), `query` (full-table scan), `consent`, `collect`, `access`,
/// `portability`, `erasure` and `audit`.
///
/// # Panics
///
/// Panics when the mix requests an operation on an empty subject universe.
#[allow(clippy::too_many_arguments)]
pub fn run_gdpr_mix<S: rgpdos::dbfs::PdStore>(
    store: &S,
    ctx: &rgpdos::trace::TraceCtx,
    mix_name: &str,
    mix: &WorkloadMix,
    subjects: &[SubjectId],
    escrow: &rgpdos::crypto::escrow::OperatorEscrow,
    ops: usize,
    seed: u64,
) -> MixOutcome {
    use rgpdos::dbfs::QueryRequest;
    assert!(
        !subjects.is_empty(),
        "the GDPR mix needs subjects to target"
    );
    let user = DataTypeId::from("user");
    let stream = mix.generate(ops, seed);
    let timer = |right: &str| {
        ctx.registry
            .histogram_with(
                "gdpr_right_latency_us",
                &[("right", right), ("mix", mix_name)],
            )
            .timer(&ctx.clock)
    };
    let mut outcome = MixOutcome {
        operations: ops,
        failures: 0,
    };
    let mut next_fresh = 10_000_000u64;
    for (i, op) in stream.iter().enumerate() {
        // Walking the skew-ordered subject list reproduces the Zipf draw the
        // population was generated with.
        let subject = subjects[(i * 31 + 17) % subjects.len()];
        let ok = match op {
            OperationKind::Collect => {
                next_fresh += 1;
                let _t = timer("collect");
                store
                    .collect(
                        &user,
                        SubjectId::new(next_fresh),
                        rgpdos::core::Row::new()
                            .with("name", format!("gdpr-{next_fresh}"))
                            .with("pwd", "pw")
                            .with("year_of_birthdate", 1975i64),
                    )
                    .is_ok()
            }
            OperationKind::Read => {
                let _t = timer("read");
                store.load_membranes_for_subject(&user, subject).is_ok()
            }
            OperationKind::Update | OperationKind::ConsentChange => {
                let ids = store
                    .load_membranes_for_subject(&user, subject)
                    .unwrap_or_default();
                let _t = timer("consent");
                match ids.iter().find(|(_, m)| !m.is_erased()) {
                    Some((id, _)) => store
                        .apply_membrane_delta(
                            &user,
                            *id,
                            &MembraneDelta::Grant {
                                purpose: BENCH_PURPOSE.into(),
                                decision: rgpdos::core::ConsentDecision::All,
                            },
                        )
                        .is_ok(),
                    // Nothing left to re-consent once the subject is erased.
                    None => true,
                }
            }
            OperationKind::Invoke => {
                let _t = timer("query");
                store.query(&QueryRequest::all("user")).is_ok()
            }
            OperationKind::AccessRequest => {
                let _t = timer("access");
                store.records_of_subject(subject).is_ok()
            }
            OperationKind::Portability => {
                let _t = timer("portability");
                store
                    .query(&QueryRequest::all("user").for_subject(subject))
                    .is_ok()
            }
            OperationKind::Erasure => {
                let _t = timer("erasure");
                store.erase_subject(subject, escrow).is_ok()
            }
            OperationKind::Audit => {
                let _t = timer("audit");
                store.audit().count_matching(|_| true) > 0
            }
        };
        if !ok {
            outcome.failures += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_and_run() {
        let scenario = rgpdos_scenario(20, 0.8, DbfsParams::small());
        assert_eq!(scenario.population.len(), 20);
        assert_eq!(scenario.os.dbfs().count(&"user".into()).unwrap(), 20);
        let result = scenario
            .os
            .invoke(scenario.compute_age, InvokeRequest::whole_type())
            .unwrap();
        assert_eq!(result.processed + result.denied, 20);

        let baseline = baseline_scenario(20, 0.8);
        assert_eq!(baseline.records.len(), 20);
        assert_eq!(baseline.engine.record_count(), 20);
    }

    #[test]
    fn target_table_scan_cost_is_independent_of_other_tables() {
        // The acceptance check of the indexed read path: scanning the
        // membranes of one table costs the same number of block reads
        // whether the store holds 0 or 400 unrelated records.
        let small = scaling_scenario(50, 0, 0);
        let big = scaling_scenario(50, 4, 100);
        let membrane_scan_reads = |s: &ScalingScenario| {
            // Cold-cache measurement: the claim is about *device* reads,
            // which the inode-layer buffer cache would otherwise absorb.
            s.dbfs.drop_caches();
            s.device.reset_stats();
            let membranes = s.dbfs.load_membranes(&s.target).unwrap();
            assert_eq!(membranes.len(), 50);
            s.device.stats().reads
        };
        let isolated = membrane_scan_reads(&small);
        let crowded = membrane_scan_reads(&big);
        assert_eq!(
            isolated, crowded,
            "per-table membrane scans must not depend on other tables' records"
        );
        // And the membrane-only scan reads a fraction of the blocks a
        // full-record scan does.
        big.dbfs.drop_caches();
        big.device.reset_stats();
        let batch = big
            .dbfs
            .query(&QueryRequest::all(big.target.clone()))
            .unwrap();
        assert_eq!(batch.len(), 50);
        let full = big.device.stats().reads;
        assert!(
            crowded * 2 <= full,
            "membrane scan ({crowded} reads) should cost well under a full scan ({full} reads)"
        );
    }

    #[test]
    fn target_subject_cost_is_independent_of_other_shards() {
        // The acceptance check of the sharded read path: a subject-routed
        // operation costs the same block reads on the home shard whether the
        // other shards hold 0 or 1000 records — and zero reads elsewhere.
        let small = sharded_scaling_scenario(4, 50, 0);
        let big = sharded_scaling_scenario(4, 50, 1_000);
        let subject_reads = |s: &ShardedScalingScenario| {
            // Cold-cache: isolation is a device-read property.
            s.dbfs.drop_caches();
            for device in &s.devices {
                device.reset_stats();
            }
            let records = s.dbfs.records_of_subject(s.target_subject).unwrap();
            assert_eq!(records.len(), 50);
            let home = s.devices[s.target_shard].stats().reads;
            let elsewhere: u64 = s
                .devices
                .iter()
                .enumerate()
                .filter(|(shard, _)| *shard != s.target_shard)
                .map(|(_, device)| device.stats().reads)
                .sum();
            (home, elsewhere)
        };
        let (isolated, quiet_a) = subject_reads(&small);
        let (crowded, quiet_b) = subject_reads(&big);
        assert_eq!(
            isolated, crowded,
            "subject-routed reads must not depend on other shards' records"
        );
        assert_eq!(quiet_a + quiet_b, 0, "non-home shards are never touched");
        // The skewed population landed live records, none on the target shard
        // beyond the target's own.
        assert_eq!(big.dbfs.count(&"user".into()).unwrap(), 50 + 1_000);
        let balance = big.dbfs.sharded_stats();
        assert_eq!(balance.records_per_shard()[big.target_shard], 50);
    }

    #[test]
    fn gdpr_mix_labels_reads_and_table_queries_apart() {
        use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
        // Per-subject membrane reads and full-table queries are separate
        // operations with separate latency distributions.
        let dbfs = Dbfs::format(MemDevice::new(4_096, 512), DbfsParams::small()).unwrap();
        dbfs.create_type(rgpdos::core::schema::listing1_user_schema())
            .unwrap();
        let subjects: Vec<SubjectId> = (0..4).map(SubjectId::new).collect();
        for &subject in &subjects {
            dbfs.collect(
                &"user".into(),
                subject,
                Row::new()
                    .with("name", "mixed")
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1980i64),
            )
            .unwrap();
        }
        let mix = WorkloadMix {
            collect: 0,
            read: 3,
            update: 0,
            invoke: 1,
            access_request: 0,
            portability: 0,
            erasure: 0,
            consent_change: 0,
            audit: 0,
        };
        let (ops, seed) = (40, 7);
        let stream = mix.generate(ops, seed);
        let count = |kind: OperationKind| stream.iter().filter(|&&op| op == kind).count() as u64;
        let (reads, queries) = (count(OperationKind::Read), count(OperationKind::Invoke));
        assert!(reads > 0 && queries > 0, "the stream must mix both kinds");

        let ctx = rgpdos::trace::TraceCtx::sim();
        let escrow = OperatorEscrow::new(Authority::generate(1).public_key());
        let outcome = run_gdpr_mix(&dbfs, &ctx, "mixed", &mix, &subjects, &escrow, ops, seed);
        assert_eq!(outcome.failures, 0);
        let requests = |right: &str| {
            ctx.registry
                .histogram_summary(
                    "gdpr_right_latency_us",
                    &[("right", right), ("mix", "mixed")],
                )
                .map(|summary| summary.count)
        };
        assert_eq!(requests("read"), Some(reads));
        assert_eq!(requests("query"), Some(queries));
    }

    #[test]
    fn mixes_replay_without_unexpected_failures() {
        let scenario = rgpdos_scenario(10, 0.9, DbfsParams::small());
        let outcome = run_mix_on_rgpdos(&scenario, &WorkloadMix::controller(), 50);
        assert_eq!(outcome.operations, 50);
        assert_eq!(outcome.failures, 0);

        let baseline = baseline_scenario(10, 0.9);
        let outcome = run_mix_on_baseline(&baseline, &WorkloadMix::controller(), 50);
        assert_eq!(outcome.failures, 0);
    }
}
