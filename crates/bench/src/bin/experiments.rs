//! Experiment driver: regenerates every figure/listing/claim experiment of
//! `DESIGN.md` and prints the series the way the paper reports them.
//!
//! Run everything with `cargo run -p rgpdos-bench --bin experiments --release`,
//! or a single experiment with e.g. `--fig1`, `--c4`.  Pass
//! `--json <path>` to additionally write a machine-readable results file
//! (scenario name, counters, elapsed milliseconds per entry), so the perf
//! trajectory can be tracked across commits.  Pass `--metrics <path>` to run
//! an instrumented end-to-end workload and write its full
//! [`rgpdos::trace::MetricsSnapshot`] (counters, latency histograms, spans),
//! and `--validate-metrics <path>` to check such a snapshot against the
//! pinned schema (the CI `metrics` job does both).

use rgpdos::blockdev::{scan_for_pattern, InstrumentedDevice, LatencyModel, MemDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::dbfs::Dbfs;
use rgpdos::inode::CacheStats;
use rgpdos::kernel::{ObjectClass, Operation, SecurityContext, Syscall};
use rgpdos::prelude::*;
use rgpdos::shard::ShardedDbfs;
use rgpdos::workloads::penalties::{dataset, top_sectors, totals_by_year};
use rgpdos::workloads::WorkloadMix;
use rgpdos_bench::{
    baseline_scenario, compute_age_spec, rgpdos_scenario, run_mix_on_baseline, run_mix_on_rgpdos,
    scaling_scenario, sharded_scaling_scenario, ShardedScalingScenario, BENCH_PURPOSE,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The seed stamped on every machine-readable report this driver writes, so
/// artifact consumers can pair reports from the same run.
const BENCH_SEED: u64 = 0x2018_0525;

/// One machine-readable result entry.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
struct BenchEntry {
    scenario: String,
    counters: BTreeMap<String, f64>,
    elapsed_ms: f64,
}

/// The report written by `--json <path>`.
#[derive(Debug, Serialize, serde::Deserialize)]
struct BenchReport {
    /// Shared report format version (`rgpdos::trace::SCHEMA_VERSION`).
    schema_version: u32,
    /// The run seed, shared with the metrics snapshot.
    seed: u64,
    entries: Vec<BenchEntry>,
}

impl Default for BenchReport {
    fn default() -> Self {
        Self {
            schema_version: rgpdos::trace::SCHEMA_VERSION,
            seed: BENCH_SEED,
            entries: Vec::new(),
        }
    }
}

impl BenchReport {
    fn push(
        &mut self,
        scenario: impl Into<String>,
        counters: impl IntoIterator<Item = (&'static str, f64)>,
        elapsed_ms: f64,
    ) {
        self.entries.push(BenchEntry {
            scenario: scenario.into(),
            counters: counters
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
            elapsed_ms,
        });
    }

    /// Writes the entries whose scenario starts with `prefix` (in push
    /// order) to `path` as a report of their own — how `--s3`, `--s4` and
    /// `--gdpr` produce their per-experiment `reports/BENCH_*.json`.
    fn write_scenarios(&self, path: &str, prefix: &str) {
        let subset = BenchReport {
            entries: self
                .entries
                .iter()
                .filter(|entry| entry.scenario.starts_with(prefix))
                .cloned()
                .collect(),
            ..BenchReport::default()
        };
        write_report(path, &subset);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let json_path = path_flag("--json");
    let metrics_path = path_flag("--metrics");
    let validate_path = path_flag("--validate-metrics");
    let validate_bench_path = path_flag("--validate-bench");
    let flags: Vec<String> = {
        let mut flags = args.clone();
        for name in [
            "--json",
            "--metrics",
            "--validate-metrics",
            "--validate-bench",
        ] {
            if let Some(i) = flags.iter().position(|a| a == name) {
                flags.drain(i..(i + 2).min(flags.len()));
            }
        }
        flags
    };
    // `--metrics` / `--validate-*` alone select just those steps.
    let run_all = (flags.is_empty()
        && metrics_path.is_none()
        && validate_path.is_none()
        && validate_bench_path.is_none())
        || flags.iter().any(|a| a == "--all");
    let wants = |flag: &str| run_all || flags.iter().any(|a| a == flag);
    let mut report = BenchReport::default();

    println!("rgpdOS reproduction — experiment driver");
    println!("=======================================\n");

    let mut timed = |name: &str, enabled: bool, body: &mut dyn FnMut(&mut BenchReport)| {
        if !enabled {
            return;
        }
        let start = Instant::now();
        body(&mut report);
        let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
        report.push(format!("experiment:{name}"), [], elapsed);
    };

    timed("fig1", wants("--fig1"), &mut |_| fig1());
    timed("fig2", wants("--fig2"), &mut |_| fig2());
    timed("fig3", wants("--fig3"), &mut |_| fig3());
    timed("fig4", wants("--fig4"), &mut |_| fig4());
    timed("listings", wants("--listings"), &mut |_| listings());
    timed("c1", wants("--c1"), &mut |_| c1());
    timed("c2", wants("--c2"), &mut |_| c2());
    timed("c3", wants("--c3"), &mut |_| c3());
    timed("c4", wants("--c4"), &mut |_| c4());
    timed("c5", wants("--c5"), &mut |_| c5());
    timed("s1", wants("--s1"), &mut |report| s1(report));
    timed("s2", wants("--s2"), &mut |report| s2(report));
    timed("s3", wants("--s3"), &mut |report| s3(report));
    timed("s4", wants("--s4"), &mut |report| s4(report));
    timed("gdpr", wants("--gdpr"), &mut |report| gdpr(report));
    timed("ablations", wants("--ablations"), &mut |_| ablations());

    if let Some(path) = metrics_path {
        write_metrics_snapshot(&path);
    }
    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read metrics snapshot {path}: {e}"));
        match rgpdos::trace::MetricsSnapshot::validate_json(&text) {
            Ok(()) => println!("(metrics snapshot {path} conforms to schema v{})", {
                rgpdos::trace::SCHEMA_VERSION
            }),
            Err(why) => {
                eprintln!("metrics snapshot {path} violates the pinned schema: {why}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = validate_bench_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read bench report {path}: {e}"));
        match validate_bench_report(&text) {
            Ok(entries) => println!(
                "(bench report {path} conforms to schema v{}, {entries} entries)",
                rgpdos::trace::SCHEMA_VERSION
            ),
            Err(why) => {
                eprintln!("bench report {path} violates the pinned schema: {why}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = json_path {
        write_report(&path, &report);
        println!("(machine-readable results written to {path})");
    }
}

/// Schema check of a machine-readable bench report (`--validate-bench`):
/// parses the full [`BenchReport`] shape, pins the shared schema version,
/// and rejects empty or non-finite results — the same bar the CI `metrics`
/// job applies to `BENCH_s4.json` before uploading it.
fn validate_bench_report(text: &str) -> Result<usize, String> {
    let report: BenchReport =
        serde_json::from_str(text).map_err(|e| format!("not a bench report: {e}"))?;
    if report.schema_version != rgpdos::trace::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != pinned {}",
            report.schema_version,
            rgpdos::trace::SCHEMA_VERSION
        ));
    }
    if report.entries.is_empty() {
        return Err("no entries".to_owned());
    }
    for entry in &report.entries {
        if entry.scenario.is_empty() {
            return Err("entry with an empty scenario name".to_owned());
        }
        if !entry.elapsed_ms.is_finite() || entry.elapsed_ms < 0.0 {
            return Err(format!("{}: bad elapsed_ms", entry.scenario));
        }
        for (key, value) in &entry.counters {
            if !value.is_finite() {
                return Err(format!("{}: counter {key} is not finite", entry.scenario));
            }
        }
    }
    Ok(report.entries.len())
}

/// Runs an instrumented end-to-end workload — traced devices, store, commit
/// pipeline and every subject-facing GDPR right — and writes the resulting
/// [`rgpdos::trace::MetricsSnapshot`] to `path` (the `--metrics` flag).
fn write_metrics_snapshot(path: &str) {
    use rgpdos::core::{ConsentDecision, PurposeId};
    let ctx = TraceCtx::sim();
    let os = RgpdOs::builder()
        .device_blocks(32_768)
        .trace(&ctx)
        .boot()
        .expect("boot traced instance");
    os.install_types(rgpdos::dsl::listings::LISTING_1)
        .expect("install user type");
    let purpose = PurposeId::from(BENCH_PURPOSE);
    for raw in 0..64u64 {
        let subject = SubjectId::new(raw);
        os.collect(
            "user",
            subject,
            Row::new()
                .with("name", format!("m-{raw}"))
                .with("pwd", "pw")
                .with("year_of_birthdate", (1940 + (raw % 70)) as i64),
        )
        .expect("collect");
        os.grant_consent(subject, &purpose, ConsentDecision::All)
            .expect("grant consent");
    }
    for raw in 0..64u64 {
        let subject = SubjectId::new(raw);
        os.right_of_access(subject).expect("access");
        os.right_to_portability(subject).expect("portability");
        if raw % 4 == 0 {
            os.right_to_be_forgotten(subject).expect("erasure");
        }
    }
    os.enforce_retention().expect("retention");
    let snapshot = os
        .metrics_snapshot(BENCH_SEED)
        .expect("trace context attached");
    rgpdos::trace::MetricsSnapshot::validate_json(&snapshot.to_json())
        .expect("snapshot conforms to its own schema");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create reports directory");
    }
    std::fs::write(path, snapshot.to_json()).expect("write metrics snapshot");
    println!("(metrics snapshot written to {path})");
}

fn s1(report: &mut BenchReport) {
    println!("--- S1: indexed read path — per-table scan cost vs unrelated tables ---");
    println!(
        "other_records, target_records, membrane_scan_block_reads, membrane_scan_ms, \
         full_scan_block_reads, full_scan_ms"
    );
    for &(other_tables, per_table) in &[(0usize, 0usize), (4, 250), (8, 500)] {
        let scenario = scaling_scenario(200, other_tables, per_table);
        scenario.device.reset_stats();
        let start = Instant::now();
        let membranes = scenario.dbfs.load_membranes(&scenario.target).unwrap();
        let membrane_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let membrane_reads = scenario.device.stats().reads;
        assert_eq!(membranes.len(), scenario.target_records);
        scenario.device.reset_stats();
        let start = Instant::now();
        let batch = scenario
            .dbfs
            .query(&QueryRequest::all(scenario.target.clone()))
            .unwrap();
        let full_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let full_reads = scenario.device.stats().reads;
        assert_eq!(batch.len(), scenario.target_records);
        println!(
            "{}, {}, {membrane_reads}, {membrane_ms:.2}, {full_reads}, {full_ms:.2}",
            scenario.other_records, scenario.target_records
        );
        report.push(
            format!("s1:other_records={}", scenario.other_records),
            [
                ("target_records", scenario.target_records as f64),
                ("membrane_scan_block_reads", membrane_reads as f64),
                ("full_scan_block_reads", full_reads as f64),
            ],
            membrane_ms + full_ms,
        );
    }
    println!("(membrane_scan_block_reads stays flat as other_records grows: the table and");
    println!(" subject indexes bound every scan, and membrane-only loads skip row payloads)\n");
}

fn s2(report: &mut BenchReport) {
    println!("--- S2: sharded DBFS — isolation, cross-shard erasure, scatter-gather ---");

    // Part 1 — isolation: a subject-routed scan costs the same block reads
    // on the home shard however much data the other shards hold, and zero
    // reads anywhere else.
    println!(
        "isolation: other_records, target_records, home_shard_reads, other_shard_reads, wall_ms"
    );
    let mut home_reads_seen: Vec<u64> = Vec::new();
    for &other_records in &[0usize, 2_000, 4_000] {
        let scenario = sharded_scaling_scenario(4, 200, other_records);
        for device in &scenario.devices {
            device.reset_stats();
        }
        let start = Instant::now();
        let records = scenario
            .dbfs
            .records_of_subject(scenario.target_subject)
            .unwrap();
        let wall = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(records.len(), scenario.target_records);
        let home_reads = scenario.devices[scenario.target_shard].stats().reads;
        let other_reads: u64 = scenario
            .devices
            .iter()
            .enumerate()
            .filter(|(shard, _)| *shard != scenario.target_shard)
            .map(|(_, device)| device.stats().reads)
            .sum();
        assert_eq!(other_reads, 0, "non-home shards must stay untouched");
        home_reads_seen.push(home_reads);
        println!(
            "{other_records}, {}, {home_reads}, {other_reads}, {wall:.2}",
            scenario.target_records
        );
        report.push(
            format!("s2:isolation:other_records={other_records}"),
            [
                ("target_records", scenario.target_records as f64),
                ("home_shard_reads", home_reads as f64),
                ("other_shard_reads", other_reads as f64),
            ],
            wall,
        );
    }
    assert!(
        home_reads_seen.windows(2).all(|w| w[0] == w[1]),
        "per-shard scan cost must be flat in other shards' record counts: {home_reads_seen:?}"
    );

    // Part 2 — cross-shard erasure: copies are spread round-robin over every
    // shard, and one subject-wide erasure removes the full copy closure
    // everywhere.
    println!("erasure: shards, records, copies, erased, shards_touched, wall_ms");
    for &shards in &[2usize, 4, 8] {
        let scenario = sharded_scaling_scenario(shards, 50, 0);
        let user = rgpdos::core::DataTypeId::from("user");
        let owned = scenario
            .dbfs
            .records_of_subject(scenario.target_subject)
            .unwrap();
        let mut copies = 0usize;
        for record in owned.iter().take(10) {
            for _ in 0..shards {
                scenario.dbfs.copy(&user, record.id()).unwrap();
                copies += 1;
            }
        }
        let authority = rgpdos::crypto::escrow::Authority::generate(7);
        let escrow = rgpdos::crypto::escrow::OperatorEscrow::new(authority.public_key());
        let start = Instant::now();
        let erased = scenario
            .dbfs
            .erase_subject(scenario.target_subject, &escrow)
            .unwrap();
        let wall = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(erased.len(), 50 + copies, "full copy closure erased");
        let shards_touched: std::collections::BTreeSet<usize> = erased
            .iter()
            .map(|&id| scenario.dbfs.shard_of_id(id))
            .collect();
        assert_eq!(shards_touched.len(), shards, "every shard held lineage");
        assert!(scenario
            .dbfs
            .records_of_subject(scenario.target_subject)
            .unwrap()
            .is_empty());
        scenario.dbfs.verify_index_invariants().unwrap();
        println!(
            "{shards}, 50, {copies}, {}, {}, {wall:.2}",
            erased.len(),
            shards_touched.len()
        );
        report.push(
            format!("s2:erasure:shards={shards}"),
            [
                ("records", 50.0),
                ("copies", copies as f64),
                ("erased", erased.len() as f64),
                ("shards_touched", shards_touched.len() as f64),
            ],
            wall,
        );
    }

    // Part 3 — scatter-gather throughput: per-shard record count fixed, so a
    // full membrane scan fans out with flat per-shard block reads.  Each
    // shard owns its device, so a deployment's scan time is the *maximum*
    // per-shard simulated I/O time while the records served grow with the
    // shard count: `sim_krecords_per_s` is the aggregate throughput a
    // parallel deployment sustains (wall-clock speedup additionally depends
    // on host cores; the simulated metric is deterministic).
    println!(
        "throughput: shards, total_records, max_shard_reads, max_shard_sim_io_us, \
         sim_krecords_per_s, wall_ms, imbalance"
    );
    let mut sim_throughput_seen: Vec<f64> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let per_shard_records = 1_000usize;
        let scenario = throughput_scenario(shards, per_shard_records);
        let user = rgpdos::core::DataTypeId::from("user");
        let total = scenario.dbfs.count(&user).expect("count after preload");
        for device in &scenario.devices {
            device.reset_stats();
        }
        let start = Instant::now();
        let membranes = scenario.dbfs.load_membranes(&user).unwrap();
        let wall = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(membranes.len(), total);
        let max_shard_reads = scenario
            .devices
            .iter()
            .map(|device| device.stats().reads)
            .max()
            .unwrap_or(0);
        let max_shard_sim_us = scenario
            .devices
            .iter()
            .map(|device| device.stats().simulated_us)
            .max()
            .unwrap_or(0);
        let sim_throughput = total as f64 * 1_000.0 / max_shard_sim_us.max(1) as f64;
        sim_throughput_seen.push(sim_throughput);
        let imbalance = scenario.dbfs.sharded_stats().imbalance();
        println!(
            "{shards}, {total}, {max_shard_reads}, {max_shard_sim_us}, {sim_throughput:.1}, \
             {wall:.2}, {imbalance:.2}"
        );
        report.push(
            format!("s2:throughput:shards={shards}"),
            [
                ("total_records", total as f64),
                ("max_shard_reads", max_shard_reads as f64),
                ("max_shard_sim_io_us", max_shard_sim_us as f64),
                ("sim_krecords_per_s", sim_throughput),
                ("imbalance", imbalance),
            ],
            wall,
        );
    }
    assert!(
        sim_throughput_seen.last().unwrap() > sim_throughput_seen.first().unwrap(),
        "aggregate simulated throughput must grow with the shard count: {sim_throughput_seen:?}"
    );
    println!("(home_shard_reads flat in other shards' data; erasure reaches every shard's");
    println!(" copies; full scans fan out so aggregate simulated records/s grows with the");
    println!(" shard count while per-shard scan cost stays bounded by per-shard data)\n");
}

/// A sharded store holding `per_shard * shards` records of a skewed
/// population (used by the S2 throughput sweep: per-shard load is held
/// constant while the deployment grows).
fn throughput_scenario(shards: usize, per_shard: usize) -> ShardedScalingScenario {
    // At one shard this degenerates to everything on the single shard.
    sharded_scaling_scenario(shards, per_shard, per_shard * (shards - 1))
}

/// Where `--s3` writes its machine-readable before/after numbers (uploaded
/// as a CI artifact to seed the perf trajectory across commits).
const S3_JSON: &str = "reports/BENCH_s3.json";

/// Writes a machine-readable report under `reports/`, creating the
/// directory on first use (the whole directory is gitignored — reports are
/// run outputs, shipped as CI artifacts, never committed).
fn write_report(path: &str, report: &BenchReport) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create reports directory");
    }
    let json = serde_json::to_string_pretty(report).expect("serialize bench report");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// One measured ingest run of the S3 experiment.
struct IngestRun {
    journal_txs: u64,
    device_writes: u64,
    sim_io_us: u64,
    wall_ms: f64,
    cache_hit_rate: f64,
    /// Simulated commit-latency distribution (`fs_commit_latency_us`,
    /// merged across shard labels) — the pipelined-commit baseline.
    commit_p50_us: u64,
    commit_p99_us: u64,
}

impl IngestRun {
    /// Simulated ingest throughput in krecords per simulated second.
    fn sim_krec_per_s(&self, records: usize) -> f64 {
        records as f64 * 1_000.0 / self.sim_io_us.max(1) as f64
    }
}

/// p50/p99 of the journal commit latency recorded by the attached trace
/// context, merged across every `shard` label.
fn commit_latency(ctx: &TraceCtx) -> (u64, u64) {
    ctx.registry
        .merged_summary("fs_commit_latency_us")
        .map_or((0, 0), |s| (s.p50, s.p99))
}

fn s3(report: &mut BenchReport) {
    println!("--- S3: batched ingest — journal group commit vs per-op commits ---");
    println!(
        "backend, records, mode, journal_txs, device_writes, sim_io_us, wall_ms, \
         sim_krecords_per_s, cache_hit_rate_pct, commit_p50_us, commit_p99_us"
    );

    let rows_for = |records: usize| -> Vec<(SubjectId, Row)> {
        (0..records as u64)
            .map(|i| {
                (
                    SubjectId::new(i % 97),
                    Row::new()
                        .with("name", format!("ingest-{i}"))
                        .with("pwd", "pw")
                        .with("year_of_birthdate", (1940 + (i % 70)) as i64),
                )
            })
            .collect()
    };
    let fresh_dbfs = |records: usize| {
        let ctx = TraceCtx::sim();
        let device = Arc::new(InstrumentedDevice::with_trace(
            MemDevice::new((records as u64 * 24).max(16_384), 512),
            LatencyModel::nvme(),
            &ctx,
            "pd0",
        ));
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(records as u64 * 2 + 256);
        let dbfs = Dbfs::format(Arc::clone(&device), params).expect("format ingest store");
        dbfs.attach_trace(&ctx);
        dbfs.create_type(listing1_user_schema())
            .expect("install user type");
        (dbfs, device, ctx)
    };

    let record_run =
        |report: &mut BenchReport, backend: &str, records: usize, mode: &str, run: &IngestRun| {
            println!(
                "{backend}, {records}, {mode}, {}, {}, {}, {:.2}, {:.1}, {:.1}, {}, {}",
                run.journal_txs,
                run.device_writes,
                run.sim_io_us,
                run.wall_ms,
                run.sim_krec_per_s(records),
                run.cache_hit_rate * 100.0,
                run.commit_p50_us,
                run.commit_p99_us
            );
            let scenario = format!("s3:ingest:{backend}:records={records}:mode={mode}");
            let counters = [
                ("records", records as f64),
                ("journal_txs", run.journal_txs as f64),
                ("device_writes", run.device_writes as f64),
                ("sim_io_us", run.sim_io_us as f64),
                ("sim_krecords_per_s", run.sim_krec_per_s(records)),
                ("cache_hit_rate", run.cache_hit_rate),
                ("commit_p50_us", run.commit_p50_us as f64),
                ("commit_p99_us", run.commit_p99_us as f64),
            ];
            report.push(scenario, counters, run.wall_ms);
        };

    for &records in &[300usize, 1_000] {
        let rows = rows_for(records);

        // Per-op commits: one journal transaction per record.
        let (dbfs, device, ctx) = fresh_dbfs(records);
        device.reset_stats();
        let start = Instant::now();
        for (subject, row) in rows.clone() {
            dbfs.collect(&"user".into(), subject, row)
                .expect("per-op collect");
        }
        let (commit_p50_us, commit_p99_us) = commit_latency(&ctx);
        let per_op = IngestRun {
            journal_txs: dbfs.inode_fs().journal_txs(),
            device_writes: device.stats().writes,
            sim_io_us: device.stats().simulated_us,
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
            cache_hit_rate: dbfs.cache_stats().hit_rate(),
            commit_p50_us,
            commit_p99_us,
        };
        record_run(report, "dbfs", records, "per-op", &per_op);

        // Group commit: batched inserts coalesced at the journal-capacity
        // bound.
        let (dbfs, device, ctx) = fresh_dbfs(records);
        device.reset_stats();
        let start = Instant::now();
        let ids = dbfs
            .collect_many(&"user".into(), rows)
            .expect("batched collect");
        assert_eq!(ids.len(), records);
        let (commit_p50_us, commit_p99_us) = commit_latency(&ctx);
        let batched = IngestRun {
            journal_txs: dbfs.inode_fs().journal_txs(),
            device_writes: device.stats().writes,
            sim_io_us: device.stats().simulated_us,
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
            cache_hit_rate: dbfs.cache_stats().hit_rate(),
            commit_p50_us,
            commit_p99_us,
        };
        record_run(report, "dbfs", records, "batched", &batched);

        // The acceptance bar of the batched write path: >= 3x simulated
        // ingest throughput over per-op commits.
        let speedup = per_op.sim_io_us as f64 / batched.sim_io_us.max(1) as f64;
        assert!(
            speedup >= 3.0,
            "group commit must deliver >= 3x ingest throughput, got {speedup:.2}x"
        );
        let counters = [
            ("records", records as f64),
            ("throughput_ratio", speedup),
            (
                "journal_tx_ratio",
                per_op.journal_txs as f64 / batched.journal_txs.max(1) as f64,
            ),
        ];
        println!("dbfs, {records}, speedup, -, -, -, -, {speedup:.1}x, -");
        report.push(format!("s3:speedup:dbfs:records={records}"), counters, 0.0);
    }

    // Sharded scatter writes: the router groups the batch per home shard
    // and every shard group-commits its slice concurrently.
    let shards = 4usize;
    let records = 1_000usize;
    let rows = rows_for(records);
    let fresh_sharded = || {
        let ctx = TraceCtx::sim();
        let devices: Vec<Arc<InstrumentedDevice<MemDevice>>> = (0..shards)
            .map(|i| {
                Arc::new(InstrumentedDevice::with_trace(
                    MemDevice::new(32_768, 512),
                    LatencyModel::nvme(),
                    &ctx,
                    &format!("pd{i}"),
                ))
            })
            .collect();
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(records as u64 * 2 + 256);
        let sharded = ShardedDbfs::format(devices.clone(), params).expect("format sharded");
        sharded.attach_trace(&ctx);
        sharded
            .create_type(listing1_user_schema())
            .expect("install user type");
        (sharded, devices, ctx)
    };
    let measure_sharded = |sharded: &ShardedDbfs<Arc<InstrumentedDevice<MemDevice>>>,
                           devices: &[Arc<InstrumentedDevice<MemDevice>>],
                           ctx: &TraceCtx,
                           wall_ms: f64| {
        let (commit_p50_us, commit_p99_us) = commit_latency(ctx);
        IngestRun {
            journal_txs: sharded
                .shards()
                .iter()
                .map(|shard| shard.inode_fs().journal_txs())
                .sum(),
            device_writes: devices.iter().map(|d| d.stats().writes).sum(),
            // Shards own their devices, so the deployment's simulated
            // ingest time is the slowest shard, not the sum.
            sim_io_us: devices
                .iter()
                .map(|d| d.stats().simulated_us)
                .max()
                .unwrap_or(0),
            wall_ms,
            cache_hit_rate: sharded
                .shards()
                .iter()
                .map(|shard| shard.cache_stats())
                .fold(CacheStats::default(), |acc, s| CacheStats {
                    hits: acc.hits + s.hits,
                    misses: acc.misses + s.misses,
                })
                .hit_rate(),
            commit_p50_us,
            commit_p99_us,
        }
    };

    let (sharded, devices, ctx) = fresh_sharded();
    let start = Instant::now();
    for (subject, row) in rows.clone() {
        sharded
            .collect(&"user".into(), subject, row)
            .expect("per-op sharded collect");
    }
    let per_op = measure_sharded(
        &sharded,
        &devices,
        &ctx,
        start.elapsed().as_secs_f64() * 1_000.0,
    );
    record_run(
        report,
        &format!("sharded-{shards}"),
        records,
        "per-op",
        &per_op,
    );

    let (sharded, devices, ctx) = fresh_sharded();
    let start = Instant::now();
    let ids = sharded
        .collect_many(&"user".into(), rows)
        .expect("batched sharded collect");
    assert_eq!(ids.len(), records);
    let batched = measure_sharded(
        &sharded,
        &devices,
        &ctx,
        start.elapsed().as_secs_f64() * 1_000.0,
    );
    record_run(
        report,
        &format!("sharded-{shards}"),
        records,
        "batched",
        &batched,
    );
    let speedup = per_op.sim_io_us as f64 / batched.sim_io_us.max(1) as f64;
    assert!(
        speedup >= 3.0,
        "sharded scatter writes must deliver >= 3x ingest throughput, got {speedup:.2}x"
    );
    println!("sharded-{shards}, {records}, speedup, -, -, -, -, {speedup:.1}x, -");
    let counters = [("records", records as f64), ("throughput_ratio", speedup)];
    report.push(
        format!("s3:speedup:sharded-{shards}:records={records}"),
        counters,
        0.0,
    );

    // Per-right latency SLOs: the runtime instrumentation times every
    // subject-facing GDPR right against the simulated device clock.
    {
        use rgpdos::core::{ConsentDecision, PurposeId};
        println!("right, requests, p50_us, p99_us");
        let ctx = TraceCtx::sim();
        let os = RgpdOs::builder()
            .device_blocks(32_768)
            .trace(&ctx)
            .boot()
            .expect("boot traced instance");
        os.install_types(rgpdos::dsl::listings::LISTING_1)
            .expect("install user type");
        let purpose = PurposeId::from(BENCH_PURPOSE);
        for raw in 0..48u64 {
            let subject = SubjectId::new(raw);
            os.collect(
                "user",
                subject,
                Row::new()
                    .with("name", format!("slo-{raw}"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", (1950 + (raw % 60)) as i64),
            )
            .expect("collect");
            os.grant_consent(subject, &purpose, ConsentDecision::All)
                .expect("consent");
        }
        for raw in 0..48u64 {
            let subject = SubjectId::new(raw);
            os.right_of_access(subject).expect("access");
            os.right_to_portability(subject).expect("portability");
            if raw % 3 == 0 {
                os.right_to_be_forgotten(subject).expect("erasure");
            }
        }
        for right in ["access", "portability", "erasure", "consent"] {
            let summary = ctx
                .registry
                .histogram_summary("right_latency_us", &[("right", right)])
                .unwrap_or_else(|| panic!("no latency histogram for right {right}"));
            println!(
                "{right}, {}, {}, {}",
                summary.count, summary.p50, summary.p99
            );
            let counters = [
                ("requests", summary.count as f64),
                ("p50_us", summary.p50 as f64),
                ("p99_us", summary.p99 as f64),
            ];
            report.push(format!("s3:rights:{right}"), counters, 0.0);
        }
    }

    report.write_scenarios(S3_JSON, "s3:");
    println!("(batched-ingest results written to {S3_JSON})");
    println!("(group commit coalesces N inserts into one journal transaction; the buffer");
    println!(" cache absorbs the re-reads of hot directory blocks, so ingest throughput");
    println!(" scales with batch size instead of journal round-trips)\n");
}

/// Where `--s4` writes its read-scaling numbers (uploaded as a CI artifact
/// alongside `BENCH_s3.json`).
const S4_JSON: &str = "reports/BENCH_s4.json";

fn s4(report: &mut BenchReport) {
    use rgpdos::dbfs::QueryRequest;

    println!("--- S4: snapshot reads — N client threads over one store ---");
    println!("mix, threads, ops, wall_ms, kops_per_s, index_lock_holds_delta");

    // A data type's directory tops out around 2.3k entries on the 512-byte
    // geometry (direct + one indirect block), so preload + the widest write
    // phase must stay under that.
    const RECORDS: usize = 1_500;
    const READ_OPS_PER_THREAD: usize = 3_000;
    const WRITE_GROUPS_PER_THREAD: usize = 15;
    const WRITE_GROUP: usize = 10;

    // One identically-preloaded store per run, so cache state is comparable
    // across thread counts.
    let fresh = || {
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(RECORDS as u64 * 4 + 256);
        let dbfs =
            Dbfs::format(Arc::new(MemDevice::new(65_536, 512)), params).expect("format s4 store");
        dbfs.create_type(listing1_user_schema())
            .expect("install user type");
        let rows: Vec<(SubjectId, Row)> = (0..RECORDS as u64)
            .map(|i| {
                (
                    SubjectId::new(i % 199),
                    Row::new()
                        .with("name", format!("s4-{i}"))
                        .with("pwd", "pw")
                        .with("year_of_birthdate", (1940 + (i % 70)) as i64),
                )
            })
            .collect();
        let ids = Arc::new(dbfs.collect_many(&"user".into(), rows).expect("s4 preload"));
        (Arc::new(dbfs), ids)
    };
    let user = rgpdos::core::DataTypeId::from("user");

    // Read-heavy: point gets with a count/query sweep every 64 ops, no
    // writer anywhere.  The snapshot read path takes zero index-lock
    // acquisitions, so throughput scales with cores.
    let read_run = |threads: usize| -> (f64, f64, u64) {
        let (dbfs, ids) = fresh();
        let holds_before = dbfs.index_lock_holds();
        let start = Instant::now();
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let dbfs = Arc::clone(&dbfs);
                let ids = Arc::clone(&ids);
                let user = user.clone();
                std::thread::spawn(move || {
                    for op in 0..READ_OPS_PER_THREAD {
                        if op % 64 == 63 {
                            std::hint::black_box(dbfs.count(&user).expect("s4 count"));
                            let batch = dbfs
                                .query(
                                    &QueryRequest::all(user.clone())
                                        .for_subject(SubjectId::new((op + t * 31) as u64 % 199)),
                                )
                                .expect("s4 query");
                            std::hint::black_box(batch.len());
                        } else {
                            let id = ids[(op * 31 + t * 17) % ids.len()];
                            let record = dbfs.get(&user, id).expect("s4 get");
                            std::hint::black_box(record.id());
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("s4 reader thread");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let ops = threads * READ_OPS_PER_THREAD;
        let holds = dbfs.index_lock_holds() - holds_before;
        (
            ops as f64 / start.elapsed().as_secs_f64() / 1_000.0,
            wall_ms,
            holds,
        )
    };

    // Write-heavy contrast: every thread batch-ingests into the same store;
    // groups serialize on the writer-side index lock by design, so this
    // mix stays flat — the figure the read mix is measured against.
    let write_run = |threads: usize| -> (f64, f64) {
        let (dbfs, _ids) = fresh();
        let start = Instant::now();
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let dbfs = Arc::clone(&dbfs);
                std::thread::spawn(move || {
                    for group in 0..WRITE_GROUPS_PER_THREAD {
                        let base = 10_000 + (t * WRITE_GROUPS_PER_THREAD + group) * WRITE_GROUP;
                        let rows: Vec<(SubjectId, Row)> = (0..WRITE_GROUP)
                            .map(|row| {
                                (
                                    SubjectId::new((base + row) as u64),
                                    Row::new()
                                        .with("name", format!("s4w-{base}-{row}"))
                                        .with("pwd", "pw")
                                        .with("year_of_birthdate", 1970i64),
                                )
                            })
                            .collect();
                        dbfs.collect_many(&"user".into(), rows)
                            .unwrap_or_else(|e| panic!("s4 group write: {e}"));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("s4 writer thread");
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let ops = threads * WRITE_GROUPS_PER_THREAD * WRITE_GROUP;
        (
            ops as f64 / start.elapsed().as_secs_f64() / 1_000.0,
            wall_ms,
        )
    };

    let mut read_tput = BTreeMap::new();
    for &threads in &[1usize, 2, 4] {
        let (kops, wall_ms, holds) = read_run(threads);
        assert_eq!(
            holds, 0,
            "the read mix must take zero index-lock acquisitions, saw {holds}"
        );
        println!(
            "read-heavy, {threads}, {}, {wall_ms:.2}, {kops:.1}, {holds}",
            threads * READ_OPS_PER_THREAD
        );
        let counters = [
            ("threads", threads as f64),
            ("ops", (threads * READ_OPS_PER_THREAD) as f64),
            ("kops_per_s", kops),
            ("index_lock_holds_delta", holds as f64),
        ];
        report.push(
            format!("s4:read-heavy:threads={threads}"),
            counters,
            wall_ms,
        );
        read_tput.insert(threads, kops);

        let (wkops, wwall_ms) = write_run(threads);
        println!(
            "write-heavy, {threads}, {}, {wwall_ms:.2}, {wkops:.1}, -",
            threads * WRITE_GROUPS_PER_THREAD * WRITE_GROUP
        );
        let counters = [
            ("threads", threads as f64),
            (
                "ops",
                (threads * WRITE_GROUPS_PER_THREAD * WRITE_GROUP) as f64,
            ),
            ("kops_per_s", wkops),
        ];
        report.push(
            format!("s4:write-heavy:threads={threads}"),
            counters,
            wwall_ms,
        );
    }

    let scaling = read_tput[&4] / read_tput[&1].max(f64::MIN_POSITIVE);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("read-heavy, scaling 4v1, -, -, {scaling:.2}x, - ({cores} cores)");
    // The acceptance bar of the snapshot read path: with >= 4 cores, four
    // reader threads deliver >= 2x the single-thread throughput.  On
    // smaller machines the ratio is recorded but not asserted (the
    // zero-lock assert above holds regardless).
    if cores >= 4 {
        assert!(
            scaling >= 2.0,
            "snapshot reads must scale >= 2x from 1 to 4 threads on {cores} cores, \
             got {scaling:.2}x"
        );
    }
    let counters = [
        ("read_tput_1", read_tput[&1]),
        ("read_tput_2", read_tput[&2]),
        ("read_tput_4", read_tput[&4]),
        ("read_scaling_4v1", scaling),
        ("cores", cores as f64),
    ];
    report.push("s4:read-scaling", counters, 0.0);

    report.write_scenarios(S4_JSON, "s4:");
    println!("(snapshot-read scaling results written to {S4_JSON})");
    println!("(readers clone the published Arc<IndexSnapshot> and never touch the index");
    println!(" lock, so the read mix scales with cores while the write mix serializes on");
    println!(" the writer-side index lock by design)\n");
}

/// Where `--gdpr` writes its per-right latency and space-amplification
/// numbers (uploaded as a CI artifact alongside the S3/S4 reports).
const GDPR_JSON: &str = "reports/BENCH_gdpr.json";

/// Default GDPR-bench population.  Sized so the single-device backend stays
/// well inside one table directory's entry capacity on the 2048-byte
/// geometry; override with `RGPDOS_GDPR_RECORDS` for bigger (or CI-reduced)
/// runs.
const GDPR_DEFAULT_RECORDS: usize = 6_000;

/// One GDPR-bench backend run: ingest a Zipf population, replay the
/// GDPRBench role mixes, pile up tombstones with the erase-heavy mix, then
/// scrub and report before/after space amplification.
fn gdpr_backend<S: PdStore>(
    backend: &str,
    store: &S,
    ctx: &TraceCtx,
    records: usize,
    report: &mut BenchReport,
) {
    use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
    use rgpdos::workloads::SkewedPopulation;
    use rgpdos_bench::run_gdpr_mix;

    let escrow = OperatorEscrow::new(Authority::generate(0x6D).public_key());
    store
        .create_type(listing1_user_schema())
        .expect("install user type");
    let subjects = (records / 40).clamp(16, 2_048);
    let population = SkewedPopulation::new(0x6D97, subjects, records).with_exponent(1.0);
    let start = Instant::now();
    let ids = store
        .collect_many(&rgpdos::core::DataTypeId::from("user"), population.rows())
        .expect("gdpr ingest");
    assert_eq!(ids.len(), records);
    let ingest_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let subject_list: Vec<SubjectId> = (0..subjects as u64).map(SubjectId::new).collect();

    // Role mixes at the ingest skew, then the erase-heavy burst that the
    // scrubber experiment measures.  Two erase-heavy ops per subject erase
    // (almost) the whole resident population subject by subject.
    let mixes = [
        ("controller", WorkloadMix::controller(), subjects * 2),
        ("customer", WorkloadMix::customer(), subjects * 2),
        ("regulator", WorkloadMix::regulator(), subjects),
        ("erase-heavy", WorkloadMix::erase_heavy(), subjects * 2),
    ];
    for (i, (mix_name, mix, ops)) in mixes.iter().enumerate() {
        let start = Instant::now();
        let outcome = run_gdpr_mix(
            store,
            ctx,
            mix_name,
            mix,
            &subject_list,
            &escrow,
            *ops,
            BENCH_SEED ^ i as u64,
        );
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        println!(
            "{backend}, {mix_name}, ops={}, failures={}, wall_ms={wall_ms:.1}",
            outcome.operations, outcome.failures
        );
        let counters = [
            ("ops", outcome.operations as f64),
            ("failures", outcome.failures as f64),
            ("records", records as f64),
            ("subjects", subjects as f64),
            ("ingest_ms", ingest_ms),
        ];
        let scenario = format!("gdpr:mix:{backend}:{mix_name}");
        report.push(scenario, counters, wall_ms);
    }
    store
        .verify_index_invariants()
        .expect("indexes consistent after the mixes");

    // The tombstone pile the erase-heavy burst left behind, the scrub that
    // compacts it, and the reclaimed steady state.
    let before = store.space_stats().expect("space stats before scrub");
    let start = Instant::now();
    let scrub = store.scrub_tombstones().expect("scrub");
    let scrub_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let after = store.space_stats().expect("space stats after scrub");
    store
        .verify_index_invariants()
        .expect("indexes consistent after the scrub");
    println!(
        "{backend}, scrub, amplification {:.2} -> {:.2}, reclaimed={} \
         (intent-held={}, lineage-held={}), bytes_reclaimed={}",
        before.amplification(),
        after.amplification(),
        scrub.reclaimed_count(),
        scrub.retained_intent,
        scrub.retained_lineage,
        scrub.bytes_reclaimed
    );
    // The acceptance bar of the scrubber: the erase-heavy mix must leave at
    // least 2x space amplification for the scrub to reclaim.
    let reclamation = before.amplification() / after.amplification().max(1.0);
    assert!(
        reclamation >= 2.0,
        "{backend}: scrub must reclaim >= 2x space amplification, \
         got {:.2} -> {:.2}",
        before.amplification(),
        after.amplification()
    );
    assert_eq!(after.tombstone_records, 0, "{backend}: tombstones remain");
    let counters = [
        (
            "amplification_before_x100",
            before.amplification_x100() as f64,
        ),
        (
            "amplification_after_x100",
            after.amplification_x100() as f64,
        ),
        ("tombstones_before", before.tombstone_records as f64),
        ("tombstones_reclaimed", scrub.reclaimed_count() as f64),
        ("retained_intent", scrub.retained_intent as f64),
        ("retained_lineage", scrub.retained_lineage as f64),
        ("bytes_reclaimed", scrub.bytes_reclaimed as f64),
        ("live_records_after", after.live_records as f64),
    ];
    let scenario = format!("gdpr:scrub:{backend}");
    report.push(scenario, counters, scrub_ms);

    // Per-right latency distributions, per mix, from the attached trace.
    println!("backend, mix, right, requests, p50_us, p99_us");
    for (mix_name, ..) in &mixes {
        for right in [
            "collect",
            "read",
            "query",
            "consent",
            "access",
            "portability",
            "erasure",
            "audit",
        ] {
            let Some(summary) = ctx.registry.histogram_summary(
                "gdpr_right_latency_us",
                &[("right", right), ("mix", mix_name)],
            ) else {
                continue;
            };
            println!(
                "{backend}, {mix_name}, {right}, {}, {}, {}",
                summary.count, summary.p50, summary.p99
            );
            let counters = [
                ("requests", summary.count as f64),
                ("p50_us", summary.p50 as f64),
                ("p99_us", summary.p99 as f64),
            ];
            let scenario = format!("gdpr:rights:{backend}:{mix_name}:{right}");
            report.push(scenario, counters, 0.0);
        }
    }

    // The space gauges must also be visible on the metrics surface (the
    // observability contract of the scrubber).
    let (_, gauges, _) = ctx.registry.collect();
    assert!(
        gauges.keys().any(|k| k.starts_with("space_amplification")),
        "{backend}: no space_amplification gauge on the trace registry"
    );
    assert!(
        gauges.keys().any(|k| k.starts_with("tombstones_reclaimed")),
        "{backend}: no tombstones_reclaimed gauge on the trace registry"
    );
}

fn gdpr(report: &mut BenchReport) {
    println!("--- GDPR: GDPRbench mixes + tombstone scrub/compaction ---");
    let records: usize = std::env::var("RGPDOS_GDPR_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(GDPR_DEFAULT_RECORDS);
    println!("backend, mix, outcome");

    // Single-device backend, on the 2048-byte geometry the population sweep
    // needs (one table directory holds ~25k entries there).
    {
        let ctx = TraceCtx::sim();
        let device = Arc::new(InstrumentedDevice::with_trace(
            MemDevice::new((records as u64 * 8).max(16_384), 2_048),
            LatencyModel::nvme(),
            &ctx,
            "pd0",
        ));
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(records as u64 * 2 + 512);
        let dbfs = Dbfs::format(device, params).expect("format gdpr store");
        dbfs.attach_trace(&ctx);
        gdpr_backend("dbfs", &dbfs, &ctx, records, report);
    }

    // Sharded backend: same total population scattered over four shards.
    {
        let shards = 4usize;
        let ctx = TraceCtx::sim();
        let devices: Vec<Arc<InstrumentedDevice<MemDevice>>> = (0..shards)
            .map(|i| {
                Arc::new(InstrumentedDevice::with_trace(
                    MemDevice::new((records as u64 * 4).max(16_384), 2_048),
                    LatencyModel::nvme(),
                    &ctx,
                    &format!("pd{i}"),
                ))
            })
            .collect();
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = params
            .inode_params
            .inode_count
            .max(records as u64 * 2 + 512);
        let sharded = ShardedDbfs::format(devices, params).expect("format gdpr sharded");
        sharded.attach_trace(&ctx);
        gdpr_backend(
            &format!("sharded-{shards}"),
            &sharded,
            &ctx,
            records,
            report,
        );
    }

    report.write_scenarios(GDPR_JSON, "gdpr:");
    println!("(GDPR bench results written to {GDPR_JSON})");
    println!("(per-right latency comes from the gdpr_right_latency_us histogram family;");
    println!(" the scrub entries report space amplification before/after compaction)\n");
}

fn fig1() {
    println!("--- F1: Figure 1 — GDPR penalties ---");
    let records = dataset();
    println!("year, total_fines_meur");
    for (year, total) in totals_by_year(&records) {
        println!("{year}, {total:.1}");
    }
    println!("sector, total_fines_meur (top 5)");
    for (sector, total) in top_sectors(&records, 5) {
        println!("{sector}, {total:.1}");
    }
    println!();
}

fn fig2() {
    println!("--- F2: Figure 2 — state-of-the-art failure modes ---");
    let scenario = baseline_scenario(200, 0.5);
    // Failure mode 1: cross-purpose access despite refused consent.
    let refused: Vec<usize> = scenario
        .population
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.consent.allows_any())
        .map(|(i, _)| i)
        .collect();
    let mut bypasses = 0usize;
    for &i in &refused {
        if scenario
            .engine
            .direct_access_bypassing_consent("user", scenario.records[i])
            .is_ok()
        {
            bypasses += 1;
        }
    }
    println!(
        "cross-purpose access: {} refused subjects, {} readable by bypassing the app-level check ({}%)",
        refused.len(),
        bypasses,
        if refused.is_empty() { 0 } else { 100 * bypasses / refused.len() }
    );
    // Failure mode 2: residue after delete (a dedicated record with a unique
    // canary value, so the scan cannot match another subject's data).
    let canary = "F2-RESIDUE-CANARY-8f3a";
    let victim = scenario
        .engine
        .insert(
            "user",
            SubjectId::new(999_999),
            &Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    scenario.engine.delete("user", victim).unwrap();
    let hits = scan_for_pattern(scenario.device.as_ref(), canary.as_bytes()).unwrap();
    println!(
        "right to be forgotten: deleted record still present at {} raw-device location(s)\n",
        hits.len()
    );
}

fn fig3() {
    println!("--- F3: Figure 3 — rgpdOS blocks both failure modes ---");
    let scenario = rgpdos_scenario(200, 0.5, DbfsParams::secure());
    let result = scenario
        .os
        .invoke(scenario.compute_age, InvokeRequest::whole_type())
        .unwrap();
    println!(
        "cross-purpose access: {} records processed, {} denied by their membrane, 0 reachable otherwise",
        result.processed, result.denied
    );
    let canary = "F3-RESIDUE-CANARY-5c1d";
    let victim = SubjectId::new(999_999);
    scenario
        .os
        .collect(
            "user",
            victim,
            Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    scenario.os.right_to_be_forgotten(victim).unwrap();
    let hits = scan_for_pattern(scenario.os.device().inner(), canary.as_bytes()).unwrap();
    println!(
        "right to be forgotten: erased subject's plaintext present at {} raw-device location(s)\n",
        hits.len()
    );
}

fn fig4() {
    println!("--- F4: Figure 4 — ps_invoke / DED pipeline sweep ---");
    println!("subjects, consent_rate_pct, processed, denied, wall_ms, simulated_io_us");
    for &subjects in &[100usize, 500, 1_000] {
        for &consent in &[0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let scenario = rgpdos_scenario(subjects, consent, DbfsParams::secure());
            // Cold-cache: the reported metric is simulated *device* I/O,
            // which the buffer cache would otherwise absorb.
            scenario.os.dbfs().drop_caches();
            scenario.os.device().reset_stats();
            let start = Instant::now();
            let result = scenario
                .os
                .invoke(scenario.compute_age, InvokeRequest::whole_type())
                .unwrap();
            let wall = start.elapsed().as_secs_f64() * 1_000.0;
            let io = scenario.os.device_stats().simulated_us;
            println!(
                "{subjects}, {:.0}, {}, {}, {:.2}, {}",
                consent * 100.0,
                result.processed,
                result.denied,
                wall,
                io
            );
        }
    }
    println!();
}

fn listings() {
    println!("--- L1–L3: the paper's listings, executed ---");
    let os = RgpdOs::builder()
        .device_blocks(16_384)
        .block_size(512)
        .boot()
        .unwrap();
    let types = os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
    println!(
        "L1: installed {types:?} with {} views",
        os.dbfs().schema(&"user".into()).unwrap().views().count()
    );
    let id = os.register_processing(compute_age_spec()).unwrap();
    println!("L2: compute_age registered as {id} (annotation matches declaration: approved)");
    os.collect(
        "user",
        SubjectId::new(1),
        Row::new()
            .with("name", "Chiraz")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64),
    )
    .unwrap();
    let result = os.invoke(id, InvokeRequest::whole_type()).unwrap();
    println!(
        "L3: ps_invoke returned ages {:?} (references only, no raw PD)\n",
        result
            .values
            .iter()
            .filter_map(FieldValue::as_int)
            .collect::<Vec<_>>()
    );
}

fn c1() {
    println!("--- C1: enforcement completeness matrix ---");
    let scenario = rgpdos_scenario(10, 1.0, DbfsParams::secure());
    let os = &scenario.os;
    let machine = os.machine();
    let app = machine
        .spawn_task(machine.general_kernel(), SecurityContext::Application)
        .unwrap();
    let external = machine
        .spawn_task(machine.general_kernel(), SecurityContext::ExternalProcess)
        .unwrap();
    let fpd = machine
        .spawn_task(machine.rgpd_kernel(), SecurityContext::DedProcessing)
        .unwrap();
    let checks = [
        (
            "application reads DBFS directly",
            machine
                .mediated_access(app, ObjectClass::DbfsStorage, Operation::Read)
                .is_err(),
        ),
        (
            "external process reads raw device",
            machine
                .mediated_access(external, ObjectClass::RawDevice, Operation::Read)
                .is_err(),
        ),
        (
            "external process reads processing registry",
            machine
                .mediated_access(external, ObjectClass::ProcessingRegistry, Operation::Read)
                .is_err(),
        ),
        (
            "F_pd issues network send",
            machine
                .syscall(fpd, Syscall::NetworkSend { bytes: 64 })
                .is_err(),
        ),
        (
            "F_pd writes a file",
            machine
                .syscall(
                    fpd,
                    Syscall::FileWrite {
                        path: "/tmp/leak".into(),
                        bytes: 64,
                    },
                )
                .is_err(),
        ),
        (
            "unregistered processing invoked",
            os.invoke_by_name("ghost", InvokeRequest::whole_type())
                .is_err(),
        ),
        (
            "processing without purpose registered",
            os.register_processing_outcome(
                ProcessingSpec::builder("anon", "user")
                    .source("fn anon() {}")
                    .function(Arc::new(|_r| Ok(ProcessingOutput::Nothing)))
                    .build(),
            )
            .is_err(),
        ),
    ];
    for (name, blocked) in checks {
        println!(
            "{}: {}",
            name,
            if blocked {
                "BLOCKED"
            } else {
                "ALLOWED (violation!)"
            }
        );
    }
    println!();
}

fn c2() {
    println!("--- C2: right to be forgotten, end to end ---");
    println!("system, erase_wall_ms, residue_hits, authority_can_recover");
    // Baseline.
    let baseline = baseline_scenario(100, 1.0);
    let canary = "C2-ERASE-CANARY-21aa";
    let victim_record = baseline
        .engine
        .insert(
            "user",
            SubjectId::new(888_888),
            &Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    let start = Instant::now();
    baseline.engine.delete("user", victim_record).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let hits = scan_for_pattern(baseline.device.as_ref(), canary.as_bytes()).unwrap();
    println!("baseline, {wall:.2}, {}, n/a", hits.len());
    // rgpdOS.
    let scenario = rgpdos_scenario(100, 1.0, DbfsParams::secure());
    let victim = SubjectId::new(888_888);
    scenario
        .os
        .collect(
            "user",
            victim,
            Row::new()
                .with("name", canary)
                .with("pwd", "pw")
                .with("year_of_birthdate", 1990i64),
        )
        .unwrap();
    let start = Instant::now();
    scenario.os.right_to_be_forgotten(victim).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let hits = scan_for_pattern(scenario.os.device().inner(), canary.as_bytes()).unwrap();
    // The authority can still recover the escrowed record.
    let tombstones = scenario
        .os
        .dbfs()
        .query(&QueryRequest::all("user").including_erased())
        .unwrap();
    let recoverable = tombstones
        .iter()
        .filter(|r| r.membrane().is_erased())
        .any(|r| {
            r.row()
                .get("__erased_ciphertext")
                .and_then(FieldValue::as_bytes)
                .and_then(|bytes| rgpdos::crypto::EscrowedCiphertext::decode(bytes).ok())
                .and_then(|ct| scenario.os.authority().recover(&ct).ok())
                .is_some()
        });
    println!("rgpdos, {wall:.2}, {}, {recoverable}\n", hits.len());
}

fn c3() {
    println!("--- C3: right of access — structured machine-readable export ---");
    let scenario = rgpdos_scenario(200, 0.8, DbfsParams::secure());
    scenario
        .os
        .invoke(scenario.compute_age, InvokeRequest::whole_type())
        .unwrap();
    let subject = scenario.population[10].subject;
    let start = Instant::now();
    let package = scenario.os.right_of_access(subject).unwrap();
    let wall = start.elapsed().as_secs_f64() * 1_000.0;
    let json = package.to_json().unwrap();
    let parsed = SubjectAccessPackage::from_json(&json).unwrap();
    println!(
        "items: {}, processing history entries: {}, export bytes: {}, re-parses identically: {}, wall_ms: {:.2}",
        package.items.len(),
        package.processings.len(),
        json.len(),
        parsed == package,
        wall
    );
    println!(
        "every key is a schema field name: {}\n",
        package
            .items
            .iter()
            .all(|i| i.fields.contains("name") && i.fields.contains("year_of_birthdate"))
    );
}

fn c4() {
    println!("--- C4: overhead versus the baseline (GDPRBench-style mixes) ---");
    println!("mix, system, operations, failures, wall_ms");
    for (name, mix) in [
        ("controller", WorkloadMix::controller()),
        ("customer", WorkloadMix::customer()),
        ("regulator", WorkloadMix::regulator()),
    ] {
        let ops = 200;
        let baseline = baseline_scenario(100, 0.75);
        let start = Instant::now();
        let outcome = run_mix_on_baseline(&baseline, &mix, ops);
        println!(
            "{name}, baseline, {}, {}, {:.2}",
            outcome.operations,
            outcome.failures,
            start.elapsed().as_secs_f64() * 1_000.0
        );
        let scenario = rgpdos_scenario(100, 0.75, DbfsParams::secure());
        let start = Instant::now();
        let outcome = run_mix_on_rgpdos(&scenario, &mix, ops);
        println!(
            "{name}, rgpdos, {}, {}, {:.2}",
            outcome.operations,
            outcome.failures,
            start.elapsed().as_secs_f64() * 1_000.0
        );
    }
    println!();
}

fn c5() {
    println!("--- C5: membrane filtering scalability ---");
    println!("records, load_membranes_ms, filter_ms, permitted, denied");
    for &n in &[100usize, 1_000, 5_000] {
        let scenario = rgpdos_scenario(n, 0.6, DbfsParams::secure());
        let start = Instant::now();
        let membranes = scenario.os.dbfs().load_membranes(&"user".into()).unwrap();
        let load_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let start = Instant::now();
        let purpose = rgpdos::core::PurposeId::from(BENCH_PURPOSE);
        let now = scenario.os.clock().now();
        let (mut permitted, mut denied) = (0usize, 0usize);
        for (_, membrane) in &membranes {
            if membrane.permits_at(&purpose, now).allows_any() {
                permitted += 1;
            } else {
                denied += 1;
            }
        }
        let filter_ms = start.elapsed().as_secs_f64() * 1_000.0;
        println!("{n}, {load_ms:.2}, {filter_ms:.3}, {permitted}, {denied}");
    }
    println!();
}

fn ablations() {
    println!(
        "--- A1: journal scrubbing + zero-on-free (secure) vs conventional (insecure) DBFS ---"
    );
    println!("mode, collect_100_ms, erase_10_ms, residue_hits_after_erase");
    for (name, params) in [
        ("secure", DbfsParams::secure()),
        ("insecure", DbfsParams::insecure()),
    ] {
        let os = RgpdOs::builder()
            .device_blocks(32_768)
            .block_size(512)
            .dbfs_params(params)
            .boot()
            .unwrap();
        os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
        let start = Instant::now();
        for i in 0..100u64 {
            os.collect(
                "user",
                SubjectId::new(i),
                Row::new()
                    .with("name", format!("ABLATION-CANARY-{i:03}-END"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1990i64),
            )
            .unwrap();
        }
        let collect_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let start = Instant::now();
        for i in 0..10u64 {
            os.right_to_be_forgotten(SubjectId::new(i)).unwrap();
        }
        let erase_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let mut residue = 0usize;
        for i in 0..10u64 {
            residue += scan_for_pattern(
                os.device().inner(),
                format!("ABLATION-CANARY-{i:03}-END").as_bytes(),
            )
            .unwrap()
            .len();
        }
        println!("{name}, {collect_ms:.2}, {erase_ms:.2}, {residue}");
    }
    println!();

    println!("--- A2: device latency model sweep (simulated I/O cost of one invocation) ---");
    println!("latency_model, simulated_io_us, wall_ms");
    for (name, model) in [
        ("nvme", LatencyModel::nvme()),
        ("ssd", LatencyModel::ssd()),
        ("hdd", LatencyModel::hdd()),
    ] {
        let os = RgpdOs::builder()
            .device_blocks(32_768)
            .block_size(512)
            .latency(model)
            .boot()
            .unwrap();
        os.install_types(rgpdos::dsl::listings::LISTING_1).unwrap();
        let id = os.register_processing(compute_age_spec()).unwrap();
        for i in 0..200u64 {
            os.collect(
                "user",
                SubjectId::new(i),
                Row::new()
                    .with("name", format!("s{i}"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", (1950 + (i % 50)) as i64),
            )
            .unwrap();
        }
        // Cold-cache: the latency-model comparison is about device cost.
        os.dbfs().drop_caches();
        os.device().reset_stats();
        let start = Instant::now();
        os.invoke(id, InvokeRequest::whole_type()).unwrap();
        println!(
            "{name}, {}, {:.2}",
            os.device_stats().simulated_us,
            start.elapsed().as_secs_f64() * 1_000.0
        );
    }
    println!();

    println!("--- A3: consent filtering before vs after data load ---");
    println!("strategy, records_read_from_dbfs, wall_ms");
    let scenario = rgpdos_scenario(2_000, 0.3, DbfsParams::secure());
    let dbfs = scenario.os.dbfs();
    let purpose = rgpdos::core::PurposeId::from(BENCH_PURPOSE);
    let now = scenario.os.clock().now();
    // Filter-before (the DED's ded_filter step): membranes first, data only
    // for permitted records.
    let start = Instant::now();
    let membranes = dbfs.load_membranes(&"user".into()).unwrap();
    let allowed: Vec<_> = membranes
        .iter()
        .filter(|(_, m)| m.permits_at(&purpose, now).allows_any())
        .map(|(id, _)| *id)
        .collect();
    let batch = dbfs.load_records(&"user".into(), &allowed).unwrap();
    println!(
        "filter-before-load (rgpdOS), {}, {:.2}",
        batch.len(),
        start.elapsed().as_secs_f64() * 1_000.0
    );
    // Filter-after: load everything, then filter (what a process-centric
    // design effectively does).
    let start = Instant::now();
    let all = dbfs.query(&QueryRequest::all("user")).unwrap();
    let kept = all
        .iter()
        .filter(|r| r.membrane().permits_at(&purpose, now).allows_any())
        .count();
    println!(
        "filter-after-load (process-centric), {}, {:.2}  (kept {kept})",
        all.len(),
        start.elapsed().as_secs_f64() * 1_000.0
    );
    println!();
}
