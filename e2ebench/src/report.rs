//! Turns rounds into the named metrics: end-to-end ones from the untraced
//! rounds, per-layer ones from the traced rounds.

use crate::trace::{Layer, STORE_METHODS};
use crate::workload::{OpKind, Phase, Round, Sample};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Nearest-rank percentile of unsorted `values` (`q` in `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn samples(rounds: &[Round]) -> impl Iterator<Item = &Sample> {
    rounds.iter().flat_map(|r| r.samples.iter())
}

/// The factor that puts a sample's wall time on the reference machine's
/// scale: its probed slowdown, or 1 when it was not probed.
fn slowdown(sample: &Sample) -> f64 {
    if sample.slowdown > 0.0 {
        sample.slowdown
    } else {
        1.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Completed main-phase ops per calibrated second: main ops over the sum
/// of their median calibrated wall times (see [`op_walls`]), spread over
/// the client threads.
///
/// This is the rate of a round in which every op took its median time: on
/// a shared machine it is far steadier than any one round, which a slow
/// spell anywhere inside it spoils.
pub fn ops_per_s(rounds: &[Round]) -> f64 {
    let main: Vec<f64> = op_walls(rounds)
        .into_iter()
        .filter(|(s, _)| s.phase == Phase::Main)
        .map(|(_, w)| w)
        .collect();
    let threads = rounds.first().map_or(1, |r| r.threads.max(1)) as f64;
    ratio(main.len() as f64, main.iter().sum::<f64>() / 1e6 / threads)
}

/// The median over rounds of a per-round value.
fn per_round(rounds: &[Round], value: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(value).collect::<Vec<_>>())
}

/// Every op of a round with the median of its calibrated wall times over
/// the run's rounds, µs.
///
/// The rounds of a run replay the same ops to the same outcomes (their
/// digests match), so they differ only by what else the machine was doing
/// while each op ran.  Dividing each execution by the probed slowdown
/// around it removes the machine's slow states, and the median over the
/// rounds the errors of that estimate, which go both ways; percentiles are
/// then taken over the ops of one round.
pub fn op_walls(rounds: &[Round]) -> Vec<(&Sample, f64)> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .samples
        .iter()
        .enumerate()
        .map(|(i, sample)| {
            let walls: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.samples.get(i))
                .filter(|s| s.kind == sample.kind)
                .map(|s| s.wall_ns as f64 / slowdown(s))
                .collect();
            (sample, median(&walls) / 1_000.0)
        })
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order, from untraced rounds:
/// latency percentiles and throughput over each op's median execution,
/// set-up time as the median over rounds; every time on the reference
/// machine's scale.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let medians = op_walls(rounds);
    let p = |k: OpKind, q: f64| {
        let walls: Vec<f64> = medians
            .iter()
            .filter(|(s, _)| s.kind == k)
            .map(|(_, w)| *w)
            .collect();
        percentile(&walls, q)
    };
    // Every calibrated execution: a round alone may hold fewer than the
    // 1,000 samples a p99 needs.
    let all: Vec<f64> = samples(rounds)
        .map(|s| s.wall_ns as f64 / 1_000.0 / slowdown(s))
        .collect();
    let timed = samples(rounds).count() as f64;
    let sim: u64 = rounds
        .iter()
        .flat_map(|r| r.meter.devices.iter())
        .map(|d| d.simulated_us)
        .sum();
    vec![
        metric(
            "setup_s",
            "s",
            per_round(rounds, |r| r.setup_s / r.setup_slowdown),
        ),
        metric("ops_per_s", "1/s", ops_per_s(rounds)),
        metric("op_p99_us", "us", percentile(&all, 0.99)),
        metric("access_p50_us", "us", p(OpKind::Access, 0.5)),
        metric("access_p90_us", "us", p(OpKind::Access, 0.9)),
        metric("portability_p50_us", "us", p(OpKind::Portability, 0.5)),
        metric("consent_p50_us", "us", p(OpKind::Consent, 0.5)),
        metric("erasure_p50_us", "us", p(OpKind::Erasure, 0.5)),
        metric("erasure_p90_us", "us", p(OpKind::Erasure, 0.9)),
        metric("collect_p50_us", "us", p(OpKind::Collect, 0.5)),
        metric("invoke_p50_us", "us", p(OpKind::Invoke, 0.5)),
        metric("invoke_p90_us", "us", p(OpKind::Invoke, 0.9)),
        metric("table_invoke_p50_us", "us", p(OpKind::TableInvoke, 0.5)),
        metric("sim_us_per_op", "us", ratio(sim as f64, timed)),
        metric(
            "bytes_per_live_byte",
            "ratio",
            per_round(rounds, |r| {
                ratio(
                    r.space.allocated_blocks as f64 * r.block_size as f64,
                    r.space.live_bytes as f64,
                )
            }),
        ),
    ]
}

/// The per-layer metrics, in `BENCHMARK.json` order: layer self times and
/// counters from the traced rounds, CPU use and tracing overhead against
/// the untraced ones.
pub fn per_layer(untraced: &[Round], traced: &[Round]) -> Vec<Metric> {
    let ops = samples(traced).count() as f64;
    let layer_us = |layer: Layer, keep: &dyn Fn(&Sample) -> bool| -> (f64, f64) {
        let picked: Vec<&Sample> = samples(traced).filter(|s| keep(s)).collect();
        let total: u64 = picked.iter().map(|s| s.layer_ns[layer.index()]).sum();
        (total as f64 / 1_000.0, picked.len() as f64)
    };
    let (rights_us, rights_ops) =
        layer_us(Layer::Rights, &|s| s.kind.root_layer() == Layer::Rights);
    let (ded_us, invokes) = layer_us(Layer::Ded, &|s| {
        matches!(s.kind, OpKind::Invoke | OpKind::TableInvoke)
    });
    let (dbfs_us, _) = layer_us(Layer::Dbfs, &|_| true);
    let accesses: Vec<f64> = samples(traced)
        .filter(|s| s.kind == OpKind::Access)
        .map(|s| s.audit_before as f64)
        .collect();
    let (processed, denied) =
        samples(traced).fold((0u64, 0u64), |(p, d), s| (p + s.processed, d + s.denied));
    let audit: u64 = traced.iter().map(|r| r.meter.audit).sum();
    let hits: u64 = traced.iter().map(|r| r.meter.cache_hits).sum();
    let misses: u64 = traced.iter().map(|r| r.meter.cache_misses).sum();
    let journal: u64 = traced.iter().map(|r| r.meter.journal_txs).sum();
    let device_sum = |f: &dyn Fn(&rgpdos::blockdev::DeviceStats) -> u64| -> f64 {
        traced
            .iter()
            .flat_map(|r| r.meter.devices.iter())
            .map(f)
            .sum::<u64>() as f64
    };
    let collects: Vec<&Sample> = samples(traced)
        .filter(|s| s.kind == OpKind::Collect)
        .collect();
    let collect_writes: u64 = collects.iter().map(|s| s.dev_writes).sum();
    let user_bytes: u64 = collects.iter().map(|s| s.user_bytes).sum();
    let block_size = traced.first().map_or(0, |r| r.block_size) as f64;
    let busy_ns: u64 = traced.iter().map(|r| r.meter.dev_busy_ns).sum();
    let shard_ops: Vec<f64> = {
        let shards = traced.first().map_or(0, |r| r.meter.devices.len());
        (0..shards)
            .map(|i| {
                traced
                    .iter()
                    .map(|r| r.meter.devices[i].total_ops())
                    .sum::<u64>() as f64
            })
            .collect()
    };
    let shard_mean = shard_ops.iter().sum::<f64>() / shard_ops.len().max(1) as f64;
    let shard_max = shard_ops.iter().copied().fold(0.0, f64::max);
    let threads = untraced.first().map_or(1, |r| r.threads) as f64;
    let cpu: f64 = untraced.iter().map(|r| r.main_cpu_s).sum();
    let main_wall: f64 = untraced.iter().map(|r| r.main_wall_s).sum();
    let rounds = traced.len().max(1) as f64;

    let mut out = vec![
        metric("rights.self_us_per_op", "us", ratio(rights_us, rights_ops)),
        metric(
            "audit.events_at_access",
            "count",
            ratio(accesses.iter().sum(), accesses.len() as f64),
        ),
        metric("audit.events_per_op", "count", ratio(audit as f64, ops)),
        metric("ded.self_us_per_invoke", "us", ratio(ded_us, invokes)),
        metric(
            "ded.denied_frac",
            "ratio",
            ratio(denied as f64, (processed + denied) as f64),
        ),
        metric("dbfs.self_us_per_op", "us", ratio(dbfs_us, ops)),
    ];
    for (index, method) in STORE_METHODS.iter().enumerate() {
        if !REPORTED_STORE_METHODS.contains(method) {
            continue;
        }
        let (calls, busy): (u64, u64) = traced
            .iter()
            .map(|r| r.meter.store.get(index).copied().unwrap_or_default())
            .fold((0, 0), |(c, b), (dc, db)| (c + dc, b + db));
        out.push(metric(
            format!("dbfs.{method}.calls"),
            "count",
            calls as f64 / rounds,
        ));
        out.push(metric(
            format!("dbfs.{method}.busy_us"),
            "us",
            busy as f64 / 1_000.0 / rounds,
        ));
    }
    out.extend([
        metric(
            "inode.cache_hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        metric(
            "inode.journal_txs_per_op",
            "count",
            ratio(journal as f64, ops),
        ),
        metric(
            "dev.reads_per_op",
            "count",
            ratio(device_sum(&|d| d.reads), ops),
        ),
        metric(
            "dev.writes_per_op",
            "count",
            ratio(device_sum(&|d| d.writes), ops),
        ),
        metric(
            "dev.flushes_per_op",
            "count",
            ratio(device_sum(&|d| d.flushes), ops),
        ),
        metric(
            "dev.writes_per_collect",
            "count",
            ratio(collect_writes as f64, collects.len() as f64),
        ),
        metric(
            "dev.write_bytes_per_user_byte",
            "ratio",
            ratio(collect_writes as f64 * block_size, user_bytes as f64),
        ),
        metric(
            "dev.busy_us_per_op",
            "us",
            ratio(busy_ns as f64 / 1_000.0, ops),
        ),
        metric(
            "dev.sim_us_per_op",
            "us",
            ratio(device_sum(&|d| d.simulated_us), ops),
        ),
        metric(
            "shard.ops_max_over_mean",
            "ratio",
            ratio(shard_max, shard_mean),
        ),
        metric(
            "client.cpu_busy_frac",
            "ratio",
            ratio(cpu, main_wall * threads),
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            1.0 - ratio(ops_per_s(traced), ops_per_s(untraced)),
        ),
    ]);
    out
}

/// The `PdStore` methods the workloads call inside a request; each gets a
/// `dbfs.<method>.calls` / `dbfs.<method>.busy_us` pair.
pub const REPORTED_STORE_METHODS: &[&str] = &[
    "collect",
    "schema",
    "load_membranes",
    "load_membranes_for_subject",
    "load_records",
    "apply_membrane_delta",
    "erase_subject",
    "records_of_subject",
];
