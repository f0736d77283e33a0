//! The timing wrappers change nothing they wrap, and the per-layer self
//! times of a request add up to its total.

use rgpdos::blockdev::{BlockDevice, InstrumentedDevice, LatencyModel, MemDevice, SanitizedDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{
    ConsentDecision, DataTypeId, MembraneDelta, PdId, PurposeId, Row, SubjectId, WrappedPd,
};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore, QueryRequest};
use rgpdos::trace::TraceCtx;
use rgpdos_e2ebench::stack::{boot_traced, Geometry};
use rgpdos_e2ebench::trace::{
    check_partition, in_span, layer_self_ns, self_times, trace_request, Layer, SpanRecord,
    TimedDevice, TimedStore, DEVICE_METHODS, STORE_METHODS,
};
use rgpdos_e2ebench::workload::{run_round, spec, Spec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn row(name: &str, year: i64) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "pw")
        .with("year_of_birthdate", year)
}

#[test]
fn timed_device_forwards_every_method() {
    let plain = MemDevice::new(64, 128);
    let timed = TimedDevice::new(MemDevice::new(64, 128));
    assert_eq!(timed.geometry(), plain.geometry());
    assert_eq!(timed.block_count(), plain.block_count());
    assert_eq!(timed.block_size(), plain.block_size());
    for block in [0u64, 7, 63] {
        let data = vec![block as u8 + 1; 128];
        plain.write_block(block, &data).unwrap();
        timed.write_block(block, &data).unwrap();
    }
    for block in 0..64 {
        assert_eq!(
            timed.read_block(block).unwrap(),
            plain.read_block(block).unwrap()
        );
    }
    plain.flush().unwrap();
    timed.flush().unwrap();
    assert_eq!(timed.raw_dump().unwrap(), plain.raw_dump().unwrap());
    // Errors pass through unchanged.
    assert_eq!(
        timed.read_block(64).unwrap_err().to_string(),
        plain.read_block(64).unwrap_err().to_string()
    );
    assert_eq!(
        timed.write_block(0, &[0u8; 3]).unwrap_err().to_string(),
        plain.write_block(0, &[0u8; 3]).unwrap_err().to_string()
    );
    assert!(timed.sanitizer().is_none());
    let sanitized = TimedDevice::new(SanitizedDevice::new(MemDevice::new(8, 64)));
    assert!(sanitized.sanitizer().is_some());
    // One counter per method; raw_dump reads the inner device directly.
    let counts: Vec<u64> = timed.counters().iter().map(|(calls, _)| *calls).collect();
    assert_eq!(DEVICE_METHODS, ["read", "write", "flush"]);
    assert_eq!(counts, vec![65, 4, 1]);
}

/// Applies every `PdStore` method once, in one fixed order, returning each
/// outcome rendered with `Debug`.
fn exercise<S: PdStore>(store: &S) -> Vec<String> {
    let user = DataTypeId::from("user");
    let escrow = OperatorEscrow::new(Authority::generate(7).public_key());
    let mut out = Vec::new();
    let mut log = |label: &str, value: String| out.push(format!("{label}: {value}"));
    log("clock", format!("{:?}", store.clock().now()));
    log(
        "create_type",
        format!("{:?}", store.create_type(listing1_user_schema())),
    );
    log(
        "schema",
        format!("{:?}", store.schema(&user).map(|s| s.name().clone())),
    );
    log("types", format!("{:?}", store.types()));
    let a = store
        .collect(&user, SubjectId::new(1), row("a", 1990))
        .unwrap();
    log("collect", format!("{a:?}"));
    let many = store
        .collect_many(
            &user,
            (2..6)
                .map(|i| (SubjectId::new(i), row("m", 1980 + i as i64)))
                .collect(),
        )
        .unwrap();
    log("collect_many", format!("{many:?}"));
    let record = store.get(&user, a).unwrap();
    log("get", format!("{record:?}"));
    let wrapped = WrappedPd::new(row("w", 1970), record.membrane().clone());
    log(
        "insert_wrapped",
        format!("{:?}", store.insert_wrapped(&user, wrapped.clone())),
    );
    log(
        "insert_many",
        format!("{:?}", store.insert_many(vec![(user.clone(), wrapped)])),
    );
    log(
        "update_rows",
        format!(
            "{:?}",
            store.update_rows(&user, vec![(many[0], row("u", 1999))])
        ),
    );
    log(
        "update_row",
        format!("{:?}", store.update_row(&user, many[1], row("v", 1998))),
    );
    log("count", format!("{:?}", store.count(&user)));
    log(
        "load_membranes",
        format!("{:?}", store.load_membranes(&user)),
    );
    log(
        "load_membranes_for_subject",
        format!(
            "{:?}",
            store.load_membranes_for_subject(&user, SubjectId::new(1))
        ),
    );
    log(
        "load_membrane",
        format!("{:?}", store.load_membrane(&user, a)),
    );
    log(
        "load_records",
        format!("{:?}", store.load_records(&user, &[a, many[2]])),
    );
    let delta = MembraneDelta::Grant {
        purpose: PurposeId::from("purpose3"),
        decision: ConsentDecision::None,
    };
    log(
        "apply_membrane_delta",
        format!("{:?}", store.apply_membrane_delta(&user, a, &delta)),
    );
    let copy = store.copy(&user, a).unwrap();
    log("copy", format!("{copy:?}"));
    log(
        "records_of_subject",
        format!("{:?}", store.records_of_subject(SubjectId::new(1))),
    );
    log(
        "query",
        format!("{:?}", store.query(&QueryRequest::all("user"))),
    );
    log(
        "erase",
        format!("{:?}", store.erase(&user, many[3], &escrow)),
    );
    log(
        "erase_subject",
        format!("{:?}", store.erase_subject(SubjectId::new(1), &escrow)),
    );
    log(
        "purge_expired",
        format!("{:?}", store.purge_expired(&escrow)),
    );
    log(
        "verify_index_invariants",
        format!("{:?}", store.verify_index_invariants()),
    );
    log(
        "scrub_tombstones",
        format!("{:?}", store.scrub_tombstones()),
    );
    log("space_stats", format!("{:?}", store.space_stats()));
    log("stats", format!("{:?}", store.stats()));
    log("audit", format!("{:?}", store.audit().len()));
    let ctx = TraceCtx::sim();
    store.attach_trace(&ctx);
    log(
        "attach_trace",
        format!("{}", ctx.registry.collect().0.len()),
    );
    log(
        "missing",
        format!("{:?}", store.get(&user, PdId::new(999_999))),
    );
    out
}

fn fresh_dbfs() -> (
    Dbfs<Arc<InstrumentedDevice<MemDevice>>>,
    Arc<InstrumentedDevice<MemDevice>>,
) {
    let device = Arc::new(InstrumentedDevice::new(
        MemDevice::new(8_192, 512),
        LatencyModel::nvme(),
    ));
    let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
    (dbfs, device)
}

#[test]
fn timed_store_forwards_every_method() {
    let (plain, plain_device) = fresh_dbfs();
    let (inner, timed_device) = fresh_dbfs();
    let timed = TimedStore::new(inner);
    let expected = exercise(&plain);
    let (got, spans) = trace_request(1, "exercise", Layer::Rights, || exercise(&timed));
    assert_eq!(got, expected);
    // Same device traffic: no default trait method stood in for the
    // store's own (e.g. the group-committed `collect_many`).
    assert_eq!(timed_device.stats(), plain_device.stats());
    assert_eq!(timed.inner().stats(), plain.stats());
    // Every method went through its own counter, exactly as often as called.
    for ((name, (calls, _)), index) in STORE_METHODS.iter().zip(timed.counters()).zip(0..) {
        let expected_calls = match *name {
            // `exercise` calls `get` twice (once for a missing id).
            "get" => 2,
            _ => 1,
        };
        assert_eq!(calls, expected_calls, "method {name} (#{index})");
    }
    // One `dbfs.<method>` span per call, all children of the root.
    assert_eq!(spans.len(), 1 + STORE_METHODS.len() + 1);
    assert!(spans[1..]
        .iter()
        .all(|s| s.layer == Layer::Dbfs && s.parent == Some(0) && s.request == 1));
    check_partition(&spans, 0).unwrap();
}

#[test]
fn wrappers_record_nothing_outside_a_request() {
    let (inner, _) = fresh_dbfs();
    let timed = TimedStore::new(inner);
    timed.create_type(listing1_user_schema()).unwrap();
    assert!(timed.counters().iter().all(|(calls, _)| *calls == 0));
}

fn span(
    name: &'static str,
    layer: Layer,
    start: u64,
    end: u64,
    parent: Option<usize>,
) -> SpanRecord {
    SpanRecord {
        name,
        layer,
        start_ns: start,
        end_ns: end,
        parent,
        request: 9,
    }
}

#[test]
fn self_time_is_duration_minus_covered_child_time() {
    let spans = vec![
        span("access", Layer::Rights, 0, 1_000, None),
        span("dbfs.records_of_subject", Layer::Dbfs, 100, 600, Some(0)),
        span("dev.read", Layer::Dev, 200, 300, Some(1)),
        span("dev.read", Layer::Dev, 250, 400, Some(1)),
        span("dbfs.schema", Layer::Dbfs, 700, 800, Some(0)),
    ];
    // Overlapping children (as on a shard pool) are counted once.
    assert_eq!(self_times(&spans), vec![400, 300, 100, 150, 100]);
    assert_eq!(layer_self_ns(&spans), [400, 0, 400, 250]);
    // Overlapping siblings make the parts exceed the root by their overlap.
    assert!(check_partition(&spans, 0).is_err());
    assert!(check_partition(&spans, 50).is_ok());
}

fn spin(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[test]
fn nested_spans_add_up_to_the_request_total() {
    let ((), spans) = trace_request(3, "invoke", Layer::Ded, || {
        spin(Duration::from_micros(200));
        in_span("dbfs.load_records", Layer::Dbfs, || {
            spin(Duration::from_micros(200));
            in_span("dev.read", Layer::Dev, || spin(Duration::from_micros(300)));
        });
    });
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].parent, Some(1));
    let parts = check_partition(&spans, 0).unwrap();
    assert_eq!(parts.iter().sum::<u64>(), spans[0].duration_ns());
    assert!(parts[Layer::Ded.index()] >= 200_000);
    assert!(parts[Layer::Dbfs.index()] >= 200_000);
    assert!(parts[Layer::Dev.index()] >= 300_000);
}

#[test]
fn traced_stack_splits_every_right_into_layers() {
    let os = boot_traced(Geometry {
        device_blocks: 4_096,
        block_size: 2_048,
        inodes: 1_024,
        shards: 0,
    })
    .unwrap();
    let subject = SubjectId::new(4);
    let (id, spans) = trace_request(1, "collect", Layer::Ded, || {
        os.collect(subject, row("t", 1991))
    });
    id.unwrap();
    let parts = check_partition(&spans, 0).unwrap();
    assert!(parts[Layer::Dbfs.index()] > 0 && parts[Layer::Dev.index()] > 0);
    let (receipt, spans) = trace_request(2, "erasure", Layer::Rights, || os.erase(subject));
    assert_eq!(receipt.unwrap().erased.len(), 1);
    let parts = check_partition(&spans, 0).unwrap();
    assert_eq!(
        parts[Layer::Ded.index()],
        0,
        "a right's root is charged to rights"
    );
    for layer in [Layer::Rights, Layer::Dbfs, Layer::Dev] {
        assert!(parts[layer.index()] > 0, "{layer:?}");
    }
    assert!(spans.iter().any(|s| s.name == "dbfs.erase_subject"));
    assert!(spans.iter().any(|s| s.name == "dev.flush"));
    assert!(os.layers().is_some());
}

fn tiny(name: &str) -> Spec {
    let mut spec = spec(name).unwrap();
    spec.records = spec.records.min(300);
    spec.subjects = spec.subjects.min(40);
    spec.main_ops = 120;
    spec.timed_collects = spec.timed_collects.min(20);
    spec
}

#[test]
fn traced_and_untraced_rounds_run_the_same_ops_to_the_same_outcomes() {
    for name in ["customer", "controller", "readers-2t"] {
        let spec = tiny(name);
        let untraced = run_round(&spec, 11, false).unwrap();
        let traced = run_round(&spec, 11, true).unwrap();
        assert_eq!(untraced.failed, 0, "{name}: {:?}", untraced.errors);
        assert_eq!(traced.failed, 0, "{name}: {:?}", traced.errors);
        assert_eq!(untraced.digest, traced.digest, "{name}");
        assert_eq!(untraced.samples.len(), traced.samples.len(), "{name}");
        if spec.threads == 1 {
            assert_eq!(untraced.meter.devices, traced.meter.devices, "{name}");
        }
        // The parts of every traced op add up to its root span.
        for sample in &traced.samples {
            assert_eq!(sample.layer_ns.iter().sum::<u64>(), sample.root_ns);
            assert!(sample.root_ns <= sample.wall_ns);
        }
        // Another seed makes other inputs.
        assert_ne!(
            run_round(&spec, 12, false).unwrap().digest,
            untraced.digest,
            "{name}"
        );
    }
}
