//! Spans recorded from outside the program, around the calls into each
//! layer, plus the two timing wrappers that record them: [`TimedStore`] at
//! the `PdStore` boundary and [`TimedDevice`] at the `BlockDevice` boundary.
//!
//! Every span carries its name, start, end, parent and request id.  Spans
//! are recorded only while a request is open on the calling thread
//! ([`trace_request`]); work outside a request (set-up, verification, shard
//! pool threads) is counted by the wrappers' counters but produces no span.

use rgpdos::blockdev::{BlockDevice, BlockSanitizer, DeviceError, DeviceGeometry};
use rgpdos::core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos::crypto::escrow::OperatorEscrow;
use rgpdos::dbfs::scrub::{ScrubReport, SpaceStats};
use rgpdos::dbfs::{DbfsError, DbfsStats, PdStore, QueryRequest};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `runtime` + `rights` (with `core::audit`): the root of a subject right.
    Rights,
    /// `runtime` + `ded` (with `ps` and `kernel`): the root of a collect or
    /// an invoke.
    Ded,
    /// `dbfs` / `shard`: inside a `PdStore` method.
    Dbfs,
    /// `blockdev`: inside a device call.
    Dev,
}

impl Layer {
    /// Position in a per-layer array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was called.
    pub name: &'static str,
    /// Where its self time goes.
    pub layer: Layer,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    /// End, in ns since the process's trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same request, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl SpanRecord {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct OpenRequest {
    request: u64,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

thread_local! {
    static OPEN: RefCell<Option<OpenRequest>> = const { RefCell::new(None) };
}

/// Runs `body` as request `request`: opens a root span named `name` charged
/// to `layer`, records every nested span on this thread, and returns the
/// spans (root first) along with the result.
pub fn trace_request<T>(
    request: u64,
    name: &'static str,
    layer: Layer,
    body: impl FnOnce() -> T,
) -> (T, Vec<SpanRecord>) {
    OPEN.with(|open| {
        *open.borrow_mut() = Some(OpenRequest {
            request,
            spans: Vec::new(),
            stack: Vec::new(),
        });
    });
    let out = in_span(name, layer, body);
    let spans = OPEN.with(|open| {
        open.borrow_mut()
            .take()
            .map(|o| o.spans)
            .unwrap_or_default()
    });
    (out, spans)
}

/// Runs `body` inside a span when a request is open on this thread, and
/// plainly otherwise.
pub fn in_span<T>(name: &'static str, layer: Layer, body: impl FnOnce() -> T) -> T {
    let index = OPEN.with(|open| {
        open.borrow_mut().as_mut().map(|o| {
            let index = o.spans.len();
            o.spans.push(SpanRecord {
                name,
                layer,
                start_ns: now_ns(),
                end_ns: 0,
                parent: o.stack.last().copied(),
                request: o.request,
            });
            o.stack.push(index);
            index
        })
    });
    let out = body();
    if let Some(index) = index {
        OPEN.with(|open| {
            if let Some(o) = open.borrow_mut().as_mut() {
                o.spans[index].end_ns = now_ns();
                o.stack.pop();
            }
        });
    }
    out
}

/// Whether a request is open on this thread.
pub fn request_open() -> bool {
    OPEN.with(|open| open.borrow().is_some())
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer (indexed by [`Layer::index`]) of one request's spans.
pub fn layer_self_ns(spans: &[SpanRecord]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (span, own) in spans.iter().zip(self_times(spans)) {
        out[span.layer.index()] += own;
    }
    out
}

/// Checks that the layer self times of one request add up to its root span
/// within `tolerance_ns`.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_partition(spans: &[SpanRecord], tolerance_ns: u64) -> Result<[u64; 4], String> {
    let root = spans.first().ok_or("request recorded no span")?;
    let parts = layer_self_ns(spans);
    let sum: u64 = parts.iter().sum();
    if sum.abs_diff(root.duration_ns()) > tolerance_ns {
        return Err(format!(
            "layer self times {parts:?} sum to {sum} ns, root span {} lasted {} ns",
            root.name,
            root.duration_ns()
        ));
    }
    Ok(parts)
}

/// Call count and busy time of one wrapped method.
#[derive(Debug, Default)]
pub struct CallCounter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl CallCounter {
    fn time<T>(&self, name: &'static str, layer: Layer, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = in_span(name, layer, body);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        out
    }

    /// `(calls, busy ns)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// The timed device methods.
pub const DEVICE_METHODS: [&str; 3] = ["read", "write", "flush"];

/// A `BlockDevice` that forwards every call to `inner`, timing reads,
/// writes and flushes and recording a `blockdev` span for each.
#[derive(Debug)]
pub struct TimedDevice<D> {
    inner: D,
    counters: [CallCounter; 3],
}

impl<D: BlockDevice> TimedDevice<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            counters: Default::default(),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// `(calls, busy ns)` per method of [`DEVICE_METHODS`].
    pub fn counters(&self) -> [(u64, u64); 3] {
        [
            self.counters[0].read(),
            self.counters[1].read(),
            self.counters[2].read(),
        ]
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }

    fn read_block(&self, block: u64) -> Result<Vec<u8>, DeviceError> {
        self.counters[0].time("dev.read", Layer::Dev, || self.inner.read_block(block))
    }

    fn write_block(&self, block: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.counters[1].time("dev.write", Layer::Dev, || {
            self.inner.write_block(block, data)
        })
    }

    fn flush(&self) -> Result<(), DeviceError> {
        self.counters[2].time("dev.flush", Layer::Dev, || self.inner.flush())
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn raw_dump(&self) -> Result<Vec<u8>, DeviceError> {
        self.inner.raw_dump()
    }

    fn sanitizer(&self) -> Option<&BlockSanitizer> {
        self.inner.sanitizer()
    }
}

macro_rules! store_methods {
    ($($method:ident),* $(,)?) => {
        /// Every `PdStore` method, in counter order.
        #[allow(non_camel_case_types, missing_docs)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum StoreMethod { $($method),* }

        /// The names of every `PdStore` method, in [`StoreMethod`] order.
        pub const STORE_METHODS: &[&str] = &[$(stringify!($method)),*];

        /// Span names of the store methods (`dbfs.<method>`), in
        /// [`StoreMethod`] order.
        const STORE_SPANS: &[&str] = &[$(concat!("dbfs.", stringify!($method))),*];
    };
}

store_methods!(
    clock,
    audit,
    stats,
    attach_trace,
    create_type,
    schema,
    types,
    count,
    collect,
    insert_wrapped,
    collect_many,
    insert_many,
    update_rows,
    get,
    load_membranes,
    load_membranes_for_subject,
    load_membrane,
    load_records,
    update_row,
    apply_membrane_delta,
    copy,
    erase,
    erase_subject,
    purge_expired,
    records_of_subject,
    query,
    verify_index_invariants,
    scrub_tombstones,
    space_stats,
);

/// A `PdStore` that forwards every method, default-implemented ones
/// included, to `inner`, recording a `dbfs` span and a call counter for
/// each call made inside an open request.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    counters: Vec<CallCounter>,
}

impl<S: PdStore> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            counters: STORE_METHODS
                .iter()
                .map(|_| CallCounter::default())
                .collect(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// `(calls, busy ns)` per method of [`STORE_METHODS`], counting only
    /// calls made inside an open request.
    pub fn counters(&self) -> Vec<(u64, u64)> {
        self.counters.iter().map(CallCounter::read).collect()
    }

    fn call<T>(&self, method: StoreMethod, body: impl FnOnce() -> T) -> T {
        if request_open() {
            let index = method as usize;
            self.counters[index].time(STORE_SPANS[index], Layer::Dbfs, body)
        } else {
            body()
        }
    }
}

impl<S: PdStore> PdStore for TimedStore<S> {
    fn clock(&self) -> std::sync::Arc<LogicalClock> {
        self.call(StoreMethod::clock, || self.inner.clock())
    }

    fn audit(&self) -> AuditLog {
        self.call(StoreMethod::audit, || self.inner.audit())
    }

    fn stats(&self) -> DbfsStats {
        self.call(StoreMethod::stats, || self.inner.stats())
    }

    fn attach_trace(&self, ctx: &rgpdos::trace::TraceCtx) {
        self.call(StoreMethod::attach_trace, || self.inner.attach_trace(ctx));
    }

    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        self.call(StoreMethod::create_type, || self.inner.create_type(schema))
    }

    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        self.call(StoreMethod::schema, || self.inner.schema(name))
    }

    fn types(&self) -> Vec<DataTypeId> {
        self.call(StoreMethod::types, || self.inner.types())
    }

    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        self.call(StoreMethod::count, || self.inner.count(name))
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError> {
        self.call(StoreMethod::collect, || {
            self.inner.collect(data_type, subject, row)
        })
    }

    fn insert_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
    ) -> Result<PdId, DbfsError> {
        self.call(StoreMethod::insert_wrapped, || {
            self.inner.insert_wrapped(data_type, wrapped)
        })
    }

    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        self.call(StoreMethod::collect_many, || {
            self.inner.collect_many(data_type, rows)
        })
    }

    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        self.call(StoreMethod::insert_many, || self.inner.insert_many(items))
    }

    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        self.call(StoreMethod::update_rows, || {
            self.inner.update_rows(data_type, updates)
        })
    }

    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError> {
        self.call(StoreMethod::get, || self.inner.get(data_type, id))
    }

    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        self.call(StoreMethod::load_membranes, || {
            self.inner.load_membranes(data_type)
        })
    }

    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        self.call(StoreMethod::load_membranes_for_subject, || {
            self.inner.load_membranes_for_subject(data_type, subject)
        })
    }

    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        self.call(StoreMethod::load_membrane, || {
            self.inner.load_membrane(data_type, id)
        })
    }

    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        self.call(StoreMethod::load_records, || {
            self.inner.load_records(data_type, ids)
        })
    }

    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError> {
        self.call(StoreMethod::update_row, || {
            self.inner.update_row(data_type, id, row)
        })
    }

    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        self.call(StoreMethod::apply_membrane_delta, || {
            self.inner.apply_membrane_delta(data_type, id, delta)
        })
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        self.call(StoreMethod::copy, || self.inner.copy(data_type, id))
    }

    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        self.call(StoreMethod::erase, || {
            self.inner.erase(data_type, id, escrow)
        })
    }

    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        self.call(StoreMethod::erase_subject, || {
            self.inner.erase_subject(subject, escrow)
        })
    }

    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        self.call(StoreMethod::purge_expired, || {
            self.inner.purge_expired(escrow)
        })
    }

    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        self.call(StoreMethod::records_of_subject, || {
            self.inner.records_of_subject(subject)
        })
    }

    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        self.call(StoreMethod::query, || self.inner.query(request))
    }

    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        self.call(StoreMethod::verify_index_invariants, || {
            self.inner.verify_index_invariants()
        })
    }

    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        self.call(StoreMethod::scrub_tombstones, || {
            self.inner.scrub_tombstones()
        })
    }

    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        self.call(StoreMethod::space_stats, || self.inner.space_stats())
    }
}
