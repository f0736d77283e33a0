//! The two stacks a run drives through one interface: the booted `RgpdOs`
//! runtime (untraced), and the same stack rebuilt from the constructors
//! `RgpdOsBuilder::assemble` uses, with a [`TimedStore`] around the store
//! and a [`TimedDevice`] around each device (traced).

use crate::trace::{TimedDevice, TimedStore};
use rgpdos::blockdev::{DeviceStats, InstrumentedDevice, LatencyModel, MemDevice};
use rgpdos::core::{
    AuditLog, ConsentDecision, DataTypeId, LogicalClock, PdId, ProcessingId, PurposeId, Row,
    SubjectId,
};
use rgpdos::crypto::escrow::{Authority, OperatorEscrow};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore, SpaceStats};
use rgpdos::ded::builtins::Builtins;
use rgpdos::ded::{DedEngine, InvokeRequest, InvokeResult};
use rgpdos::kernel::Machine;
use rgpdos::ps::{ProcessingStore, RegistrationStatus};
use rgpdos::rights::{ComplianceChecker, ErasureReceipt, RightsEngine, SubjectAccessPackage};
use rgpdos::shard::ShardedDbfs;
use rgpdos::trace::TraceCtx;
use rgpdos::{RgpdOs, RgpdOsWith};
use rgpdos_bench::{compute_age_spec, BENCH_PURPOSE};
use std::sync::Arc;

/// The one personal-data type every workload uses (Listing 1).
pub const USER: &str = "user";

/// The value `compute_age` must return for a birth year: the oracle's
/// reference, kept apart from the processing under test.
pub fn expected_age(year: i64) -> i64 {
    2022 - year
}

/// Device and store geometry shared by both stacks.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Blocks per device.
    pub device_blocks: u64,
    /// Bytes per block.
    pub block_size: usize,
    /// Inodes per store.
    pub inodes: u64,
    /// `0` boots one `Dbfs`; `n > 0` boots `n` shards behind `ShardedDbfs`.
    pub shards: usize,
}

impl Geometry {
    fn params(&self) -> DbfsParams {
        let mut params = DbfsParams::secure();
        params.inode_params.inode_count = self.inodes;
        params
    }
}

/// The calls a workload makes, identical on both stacks.
pub trait Os: Send + Sync {
    /// The `acquisition` built-in (`RgpdOs::collect`).
    fn collect(&self, subject: SubjectId, row: Row) -> Result<PdId, String>;
    /// Population ingest during set-up: one batched store call.
    fn ingest(&self, rows: Vec<(SubjectId, Row)>) -> Result<Vec<PdId>, String>;
    /// Right of access.
    fn access(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String>;
    /// Right to portability.
    fn portability(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String>;
    /// Right to be forgotten.
    fn erase(&self, subject: SubjectId) -> Result<ErasureReceipt, String>;
    /// Consent for `compute_age`'s purpose on every item of the subject.
    fn consent(&self, subject: SubjectId, decision: ConsentDecision) -> Result<usize, String>;
    /// `ps_invoke` of `compute_age`.
    fn invoke(&self, request: InvokeRequest) -> Result<InvokeResult, String>;
    /// Simulated-device counters, one entry per device in shard order.
    fn device_stats(&self) -> Vec<DeviceStats>;
    /// The store's space footprint.
    fn space_stats(&self) -> Result<SpaceStats, String>;
    /// Live records of [`USER`].
    fn live_records(&self) -> Result<usize, String>;
    /// Index invariants, then the compliance report (no `[FAIL]`).
    fn verify(&self) -> Result<(), String>;
    /// Audit events recorded so far.
    fn audit_len(&self) -> usize;
    /// The timing wrappers, on the traced stack only.
    fn layers(&self) -> Option<&dyn TracedLayers> {
        None
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn verify_store<S: PdStore>(store: &Arc<S>) -> Result<(), String> {
    store.verify_index_invariants().map_err(err)?;
    let report = ComplianceChecker::new(Arc::clone(store)).run()?;
    let text = report.to_string();
    if !report.is_compliant() || text.contains("[FAIL]") {
        return Err(format!("compliance report failed:\n{text}"));
    }
    Ok(())
}

/// The booted runtime plus the registered `compute_age` id.
pub struct Untraced<S: PdStore> {
    os: RgpdOsWith<S>,
    compute_age: ProcessingId,
}

/// Boots the runtime (`boot()` or `boot_sharded()`), installs Listing 1 and
/// registers `compute_age`.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn boot_untraced(geometry: Geometry) -> Result<Box<dyn Os>, String> {
    let builder = RgpdOs::builder()
        .device_blocks(geometry.device_blocks)
        .block_size(geometry.block_size)
        .dbfs_params(geometry.params());
    if geometry.shards == 0 {
        Ok(Box::new(Untraced::install(builder.boot().map_err(err)?)?))
    } else {
        let os = builder
            .shards(geometry.shards)
            .boot_sharded()
            .map_err(err)?;
        Ok(Box::new(Untraced::install(os)?))
    }
}

impl<S: PdStore> Untraced<S> {
    fn install(os: RgpdOsWith<S>) -> Result<Self, String> {
        os.install_types(rgpdos::dsl::listings::LISTING_1)
            .map_err(err)?;
        let compute_age = os.register_processing(compute_age_spec()).map_err(err)?;
        Ok(Self { os, compute_age })
    }
}

impl<S: PdStore> Os for Untraced<S> {
    fn collect(&self, subject: SubjectId, row: Row) -> Result<PdId, String> {
        self.os.collect(USER, subject, row).map_err(err)
    }

    fn ingest(&self, rows: Vec<(SubjectId, Row)>) -> Result<Vec<PdId>, String> {
        self.os
            .dbfs()
            .collect_many(&DataTypeId::from(USER), rows)
            .map_err(err)
    }

    fn access(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String> {
        self.os.right_of_access(subject).map_err(err)
    }

    fn portability(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String> {
        self.os.right_to_portability(subject).map_err(err)
    }

    fn erase(&self, subject: SubjectId) -> Result<ErasureReceipt, String> {
        self.os.right_to_be_forgotten(subject).map_err(err)
    }

    fn consent(&self, subject: SubjectId, decision: ConsentDecision) -> Result<usize, String> {
        self.os
            .grant_consent(subject, &PurposeId::from(BENCH_PURPOSE), decision)
            .map_err(err)
    }

    fn invoke(&self, request: InvokeRequest) -> Result<InvokeResult, String> {
        self.os.invoke(self.compute_age, request).map_err(err)
    }

    fn device_stats(&self) -> Vec<DeviceStats> {
        self.os.devices().iter().map(|d| d.stats()).collect()
    }

    fn space_stats(&self) -> Result<SpaceStats, String> {
        self.os.dbfs().space_stats().map_err(err)
    }

    fn live_records(&self) -> Result<usize, String> {
        self.os.dbfs().count(&DataTypeId::from(USER)).map_err(err)
    }

    fn verify(&self) -> Result<(), String> {
        verify_store(self.os.dbfs())
    }

    fn audit_len(&self) -> usize {
        self.os.audit().len()
    }
}

/// The device chain of the traced stack.
pub type TracedDevice = Arc<TimedDevice<InstrumentedDevice<MemDevice>>>;

/// Store-independent handles of the traced stack.
pub trait TracedLayers {
    /// The timed devices, in shard order.
    fn timed_devices(&self) -> &[TracedDevice];
    /// `(calls, busy ns)` per `PdStore` method.
    fn store_counters(&self) -> Vec<(u64, u64)>;
    /// The trace context attached to the store.
    fn trace_ctx(&self) -> &TraceCtx;
}

/// The stack `RgpdOsBuilder::assemble` builds, with the timing wrappers in
/// place and a monotonic trace context attached to the store.
pub struct Traced<S: PdStore> {
    devices: Vec<TracedDevice>,
    dbfs: Arc<TimedStore<S>>,
    ded: DedEngine<TimedStore<S>>,
    rights: RightsEngine<TimedStore<S>>,
    compute_age: ProcessingId,
    ctx: TraceCtx,
}

/// Builds the traced stack for `geometry`, installs Listing 1 and registers
/// `compute_age`.
///
/// # Errors
///
/// Propagates construction errors.
pub fn boot_traced(geometry: Geometry) -> Result<Box<dyn Os>, String> {
    let count = geometry.shards.max(1);
    let devices: Vec<TracedDevice> = (0..count)
        .map(|_| {
            Arc::new(TimedDevice::new(InstrumentedDevice::new(
                MemDevice::new(geometry.device_blocks, geometry.block_size),
                LatencyModel::nvme(),
            )))
        })
        .collect();
    let clock = Arc::new(LogicalClock::new());
    let audit = AuditLog::new();
    if geometry.shards == 0 {
        let dbfs = Dbfs::format_with(Arc::clone(&devices[0]), geometry.params(), clock, audit)
            .map_err(err)?;
        Ok(Box::new(Traced::assemble(devices, dbfs)?))
    } else {
        let dbfs = ShardedDbfs::format_with(devices.clone(), geometry.params(), clock, audit)
            .map_err(err)?;
        Ok(Box::new(Traced::assemble(devices, dbfs)?))
    }
}

impl<S: PdStore> Traced<S> {
    fn assemble(devices: Vec<TracedDevice>, store: S) -> Result<Self, String> {
        let dbfs = Arc::new(TimedStore::new(store));
        // The machine, authority seed and analyzer gate of the
        // `RgpdOsBuilder` defaults.
        let machine = Arc::new(
            Machine::builder()
                .cpus(8)
                .memory_mb(8_192)
                .io_device("pd-nvme0")
                .io_device("npd-nvme1")
                .build()
                .map_err(err)?,
        );
        let authority = Authority::generate(0x2018_0525);
        let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
        let ps = ProcessingStore::with_audit(dbfs.audit());
        let ded = DedEngine::new(Arc::clone(&dbfs), machine, ps.clone(), Arc::clone(&escrow));
        let rights = RightsEngine::new(Arc::clone(&dbfs), escrow);
        let ctx = TraceCtx::monotonic();
        dbfs.attach_trace(&ctx);
        let diagnostics =
            rgpdos::analyze::analyze_source(rgpdos::dsl::listings::LISTING_1).map_err(err)?;
        if rgpdos::analyze::gate_fails(&diagnostics, false) {
            return Err("Listing 1 failed the policy gate".into());
        }
        for schema in
            rgpdos::dsl::compile_type_declarations(rgpdos::dsl::listings::LISTING_1).map_err(err)?
        {
            dbfs.create_type(schema).map_err(err)?;
        }
        let outcome = ps.register(compute_age_spec()).map_err(err)?;
        if outcome.status != RegistrationStatus::Approved {
            return Err("compute_age was not approved".into());
        }
        Ok(Self {
            devices,
            dbfs,
            ded,
            rights,
            compute_age: outcome.id,
            ctx,
        })
    }
}

impl<S: PdStore> Os for Traced<S> {
    fn collect(&self, subject: SubjectId, row: Row) -> Result<PdId, String> {
        Builtins::new(&self.ded)
            .acquire(USER, subject, row)
            .map_err(err)
    }

    fn ingest(&self, rows: Vec<(SubjectId, Row)>) -> Result<Vec<PdId>, String> {
        self.dbfs
            .collect_many(&DataTypeId::from(USER), rows)
            .map_err(err)
    }

    fn access(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String> {
        self.rights.right_of_access(subject).map_err(err)
    }

    fn portability(&self, subject: SubjectId) -> Result<SubjectAccessPackage, String> {
        self.rights.right_to_portability(subject).map_err(err)
    }

    fn erase(&self, subject: SubjectId) -> Result<ErasureReceipt, String> {
        self.rights.right_to_be_forgotten(subject).map_err(err)
    }

    fn consent(&self, subject: SubjectId, decision: ConsentDecision) -> Result<usize, String> {
        self.rights
            .grant_consent(subject, &PurposeId::from(BENCH_PURPOSE), decision)
            .map_err(err)
    }

    fn invoke(&self, request: InvokeRequest) -> Result<InvokeResult, String> {
        self.ded.invoke(self.compute_age, request).map_err(err)
    }

    fn device_stats(&self) -> Vec<DeviceStats> {
        self.devices.iter().map(|d| d.inner().stats()).collect()
    }

    fn space_stats(&self) -> Result<SpaceStats, String> {
        self.dbfs.space_stats().map_err(err)
    }

    fn live_records(&self) -> Result<usize, String> {
        self.dbfs.count(&DataTypeId::from(USER)).map_err(err)
    }

    fn verify(&self) -> Result<(), String> {
        verify_store(&self.dbfs)
    }

    fn audit_len(&self) -> usize {
        self.dbfs.audit().len()
    }

    fn layers(&self) -> Option<&dyn TracedLayers> {
        Some(self)
    }
}

impl<S: PdStore> TracedLayers for Traced<S> {
    fn timed_devices(&self) -> &[TracedDevice] {
        &self.devices
    }

    fn store_counters(&self) -> Vec<(u64, u64)> {
        self.dbfs.counters()
    }

    fn trace_ctx(&self) -> &TraceCtx {
        &self.ctx
    }
}
