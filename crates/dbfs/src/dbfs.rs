//! The DBFS implementation: two inode trees, typed tables, membranes,
//! crypto-erasure and retention sweeping.
//!
//! # Record layout and secondary indexes
//!
//! Since format v2 every record inode holds the *split* layout of
//! [`rgpdos_core::record::stored`]: a length-prefixed membrane header
//! followed by the row payload.  Membrane-only reads (`ded_load_membrane`)
//! fetch and deserialize the header section without touching the payload.
//!
//! The in-memory index mirrors the two inode trees with secondary indexes
//! — per-table, per-subject, reverse copy-lineage, and an expiry index —
//! so that per-table scans, subject-wide operations, erasure propagation
//! and retention sweeps never iterate the global record map.
//!
//! # Write path: group commit
//!
//! Every mutation stages its block writes in a compound transaction of the
//! inode layer and commits them as one journal transaction.  The batched
//! APIs ([`PdStore::collect_many`], [`PdStore::insert_many`],
//! [`PdStore::update_rows`]) go further: N independent mutations share one
//! compound transaction — a **group commit** — cut at the journal-capacity
//! bound, so ingest costs one journal round-trip per *group* instead of
//! per record while each record stays individually crash-atomic.

use crate::error::DbfsError;
use crate::query::QueryRequest;
use crate::scrub::{ScrubReport, SpaceGauges, SpaceStats};
use crate::stats::{DbfsStats, DbfsStatsInner};
use crate::store::PdStore;
use parking_lot::{Mutex, RwLock};
use rgpdos_blockdev::BlockDevice;
use rgpdos_core::record::stored;
use rgpdos_core::{
    AuditEventKind, AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta,
    PdId, PdRecord, RecordBatch, Row, SchemaRegistry, SubjectId, Timestamp, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_crypto::PublicKey;
use rgpdos_inode::fs::ROOT_INO;
use rgpdos_inode::{FormatParams, Ino, InodeFs, InodeKind, JournalMode};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Name of the schema entry inside a table directory.
const SCHEMA_ENTRY: &str = "__schema";
/// Name of the metadata file in the DBFS root.
const META_ENTRY: &str = "meta";
/// Name of the erase-intent write-ahead log in the DBFS root (created
/// lazily; absent on images that never ran a routed erasure).
const INTENTS_ENTRY: &str = "__intents";
/// Name of the table tree in the DBFS root.
const TABLES_DIR: &str = "tables";
/// Name of the subject tree in the DBFS root.
const SUBJECTS_DIR: &str = "subjects";
/// Magic-plus-version tag leading the metadata entry since format v2 (split
/// record layout).  v1 metadata was a bare 8-byte `next_pd` counter; v1
/// images are migrated in place on mount.
const META_MAGIC_V2: u64 = 0x5247_5044_4653_0002;

/// Encodes the v2 metadata entry (magic + next PD identifier).
fn encode_meta(next_pd: u64) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[0..8].copy_from_slice(&META_MAGIC_V2.to_le_bytes());
    bytes[8..16].copy_from_slice(&next_pd.to_le_bytes());
    bytes
}

/// Decodes the metadata entry, returning `(format_version, next_pd)`.
fn decode_meta(meta: &[u8]) -> Option<(u32, u64)> {
    match meta.len() {
        8 => Some((1, u64::from_le_bytes(meta[0..8].try_into().ok()?))),
        16 => {
            let magic = u64::from_le_bytes(meta[0..8].try_into().ok()?);
            (magic == META_MAGIC_V2).then(|| {
                (
                    2,
                    u64::from_le_bytes(meta[8..16].try_into().expect("8 bytes")),
                )
            })
        }
        _ => None,
    }
}

/// Reads only the membrane header section of a split-layout record: the
/// first block is fetched once, and further blocks only when the header
/// spills past it.  The row payload is never read.
fn read_membrane_from<D: BlockDevice>(fs: &InodeFs<D>, ino: Ino) -> Result<Membrane, DbfsError> {
    let block_size = fs.layout().block_size.max(stored::PREFIX_LEN);
    let first = fs.read(ino, 0, block_size)?;
    let header_len = stored::membrane_section_len(&first)?;
    let header_end =
        stored::PREFIX_LEN
            .checked_add(header_len)
            .ok_or_else(|| DbfsError::Corrupt {
                what: format!("membrane header length of record inode {ino} overflows"),
            })?;
    let membrane = if first.len() >= header_end {
        stored::decode_membrane(&first[stored::PREFIX_LEN..header_end])?
    } else {
        let mut section = first[stored::PREFIX_LEN.min(first.len())..].to_vec();
        let rest = fs.read(ino, first.len() as u64, header_end - first.len())?;
        section.extend_from_slice(&rest);
        if section.len() < header_len {
            return Err(DbfsError::Corrupt {
                what: format!("membrane header of record inode {ino} truncated"),
            });
        }
        stored::decode_membrane(&section)?
    };
    Ok(membrane)
}

/// How a DBFS instance allocates [`PdId`]s: the `n`-th record receives
/// `offset + n * stride`.
///
/// A standalone instance uses the dense default (`offset = 0`, `stride = 1`).
/// A sharded deployment gives shard `i` of `n` the allocation
/// `IdAllocation::sharded(i, n)`, so identifiers are globally unique across
/// shards and the owning shard of any id is computable as `id % n` without a
/// directory lookup.  Only the record *counter* is persisted on disk; the
/// same allocation must be passed at mount time
/// ([`Dbfs::mount_with_ids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdAllocation {
    /// First identifier handed out.
    pub offset: u64,
    /// Distance between consecutive identifiers (must be non-zero).
    pub stride: u64,
}

impl Default for IdAllocation {
    fn default() -> Self {
        Self {
            offset: 0,
            stride: 1,
        }
    }
}

impl IdAllocation {
    /// The allocation of shard `shard` in a deployment of `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shards` or `shards == 0`.
    pub fn sharded(shard: usize, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(shard < shards, "shard index within the deployment");
        Self {
            offset: shard as u64,
            stride: shards as u64,
        }
    }

    fn id_for(&self, counter: u64) -> u64 {
        self.offset + counter * self.stride
    }
}

/// Formatting parameters of DBFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbfsParams {
    /// Parameters of the underlying inode layer.
    pub inode_params: FormatParams,
    /// Journal scrub policy.  DBFS defaults to [`JournalMode::Scrub`]; the
    /// [`DbfsParams::insecure`] preset exists only for the ablation
    /// experiment that quantifies what scrubbing costs and what leaving it
    /// out leaks.
    pub journal_mode: JournalMode,
}

impl DbfsParams {
    /// The secure defaults used by rgpdOS (scrubbed journal, zero-on-free).
    ///
    /// The journal is sized so that every DBFS mutation — including a
    /// whole-lineage cascade erasure — fits one journal transaction and is
    /// therefore crash-atomic (see the compound transactions of
    /// [`rgpdos_inode::InodeFs`]).
    pub fn secure() -> Self {
        Self {
            inode_params: FormatParams::standard()
                .with_journal_blocks(128)
                .with_secure_free(true),
            journal_mode: JournalMode::Scrub,
        }
    }

    /// A conventional configuration (retained journal, no zero-on-free) used
    /// by the ablation experiments.
    pub fn insecure() -> Self {
        Self {
            inode_params: FormatParams::standard()
                .with_journal_blocks(128)
                .with_secure_free(false),
            journal_mode: JournalMode::Retain,
        }
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        Self {
            inode_params: FormatParams::small()
                .with_inode_count(512)
                .with_journal_blocks(64)
                .with_secure_free(true),
            journal_mode: JournalMode::Scrub,
        }
    }
}

impl Default for DbfsParams {
    fn default() -> Self {
        Self::secure()
    }
}

/// What DBFS persists for one personal-data item (encoded via the split
/// layout of [`rgpdos_core::record::stored`]).
#[derive(Debug, Clone)]
struct StoredRecord {
    membrane: Membrane,
    row: Row,
}

/// The single-section JSON encoding of format v1, kept only so that legacy
/// images can be migrated on mount.
#[derive(Debug, Deserialize)]
struct LegacyStoredRecord {
    membrane: Membrane,
    row: Row,
}

#[derive(Debug, Clone)]
struct RecordLocation {
    data_type: DataTypeId,
    subject: SubjectId,
    ino: Ino,
    erased: bool,
    /// Direct lineage parent when the record was produced by `copy`.
    copied_from: Option<PdId>,
    /// When the record's retention period elapses (`None` for unbounded TTLs
    /// and for tombstones, which no longer expire).
    expires_at: Option<Timestamp>,
}

impl RecordLocation {
    fn from_membrane(data_type: &DataTypeId, membrane: &Membrane, ino: Ino) -> Self {
        Self {
            data_type: data_type.clone(),
            subject: membrane.subject(),
            ino,
            erased: membrane.is_erased(),
            copied_from: membrane.copied_from(),
            expires_at: membrane.expiry_instant(),
        }
    }
}

/// One record staged into the open compound transaction but not yet
/// committed: the index mutations to apply once its group commits.
#[derive(Debug, Clone)]
struct StagedInsert {
    id: PdId,
    data_type: DataTypeId,
    subject: SubjectId,
    record_ino: Ino,
    membrane: Membrane,
}

/// The in-memory side of one group commit: the records staged into the
/// open compound transaction, the running identifier counter, and the
/// subject subtrees the group created (visible to later records of the
/// same group).  [`InsertGroup::mark`] / [`InsertGroup::rollback_to`] are
/// the O(1) savepoint pair used to unstage the one record that would
/// overflow the journal capacity — staging only ever appends, so a mark
/// is three lengths/counters.
#[derive(Debug)]
struct InsertGroup {
    /// Running identifier counter (`index.next_pd` + records staged).
    next_pd: u64,
    /// Subject subtrees created by this group.
    new_subjects: BTreeMap<SubjectId, Ino>,
    /// The staged records, in staging order.
    staged: Vec<StagedInsert>,
}

/// A position in an [`InsertGroup`]'s append-only state, paired with
/// [`InsertGroup::rollback_to`].
#[derive(Debug, Clone, Copy)]
struct GroupMark {
    next_pd: u64,
    staged_len: usize,
    subjects_len: usize,
}

impl InsertGroup {
    fn starting_at(next_pd: u64) -> Self {
        Self {
            next_pd,
            new_subjects: BTreeMap::new(),
            staged: Vec::new(),
        }
    }

    fn mark(&self) -> GroupMark {
        GroupMark {
            next_pd: self.next_pd,
            staged_len: self.staged.len(),
            subjects_len: self.new_subjects.len(),
        }
    }

    /// Undoes everything staged after `mark`.  At most one record — and
    /// therefore at most one new subject, the record's own — can have been
    /// staged since, which is why the subject rollback only needs the
    /// record's subject.
    fn rollback_to(&mut self, mark: GroupMark, subject: SubjectId) {
        self.next_pd = mark.next_pd;
        self.staged.truncate(mark.staged_len);
        if self.new_subjects.len() > mark.subjects_len {
            self.new_subjects.remove(&subject);
        }
    }
}

/// The writer-side index.  The maps a reader could consult are `Arc`-wrapped
/// so that publishing a snapshot is seven `Arc` clones; the *first* writer
/// mutation after a publish copies only the maps it touches
/// ([`Arc::make_mut`] copy-on-write) while the published snapshot keeps the
/// previous version alive.  `copies_of` and the allocator state are only
/// ever consulted under the index lock, so they stay plain.
#[derive(Debug, Default)]
struct DbfsIndex {
    schemas: Arc<SchemaRegistry>,
    tables: Arc<BTreeMap<DataTypeId, Ino>>,
    subjects: Arc<BTreeMap<SubjectId, Ino>>,
    /// The primary record map.
    records: Arc<BTreeMap<PdId, RecordLocation>>,
    /// Secondary index: table -> record ids (live and tombstoned).
    by_table: Arc<BTreeMap<DataTypeId, BTreeSet<PdId>>>,
    /// Secondary index: subject -> record ids (live and tombstoned).
    by_subject: Arc<BTreeMap<SubjectId, BTreeSet<PdId>>>,
    /// Reverse copy-lineage index: original -> its direct copies.  Erasure
    /// propagation walks the transitive closure of this map.
    copies_of: BTreeMap<PdId, BTreeSet<PdId>>,
    /// Expiry index: expiry instant -> live bounded-TTL record ids.  The
    /// retention sweep only ever visits the `..now` range of this map.
    by_expiry: Arc<BTreeMap<Timestamp, BTreeSet<PdId>>>,
    /// Identifier allocation policy (dense by default, strided on shards).
    alloc: IdAllocation,
    next_pd: u64,
    /// Monotonic version counter, bumped on every snapshot publish.
    epoch: u64,
    tables_ino: Ino,
    subjects_ino: Ino,
    meta_ino: Ino,
    /// The erase-intent WAL file, once one exists (created lazily).
    intents_ino: Option<Ino>,
}

impl DbfsIndex {
    /// Inserts a record into the primary map and every secondary index.
    fn insert_record(&mut self, id: PdId, location: RecordLocation) {
        Arc::make_mut(&mut self.by_table)
            .entry(location.data_type.clone())
            .or_default()
            .insert(id);
        Arc::make_mut(&mut self.by_subject)
            .entry(location.subject)
            .or_default()
            .insert(id);
        if let Some(original) = location.copied_from {
            self.copies_of.entry(original).or_default().insert(id);
        }
        if !location.erased {
            if let Some(at) = location.expires_at {
                Arc::make_mut(&mut self.by_expiry)
                    .entry(at)
                    .or_default()
                    .insert(id);
            }
        }
        Arc::make_mut(&mut self.records).insert(id, location);
    }

    /// Marks a record as a tombstone, retiring it from the expiry index.
    fn mark_erased(&mut self, id: PdId) {
        let expires_at = match Arc::make_mut(&mut self.records).get_mut(&id) {
            Some(location) => {
                location.erased = true;
                location.expires_at.take()
            }
            None => None,
        };
        if let Some(at) = expires_at {
            self.remove_expiry_entry(at, id);
        }
    }

    /// Re-keys a live record in the expiry index after a TTL change.
    fn set_expiry(&mut self, id: PdId, expires_at: Option<Timestamp>) {
        let previous = match Arc::make_mut(&mut self.records).get_mut(&id) {
            Some(location) if !location.erased => {
                let previous = location.expires_at;
                location.expires_at = expires_at;
                previous
            }
            _ => return,
        };
        if previous == expires_at {
            return;
        }
        if let Some(at) = previous {
            self.remove_expiry_entry(at, id);
        }
        if let Some(at) = expires_at {
            Arc::make_mut(&mut self.by_expiry)
                .entry(at)
                .or_default()
                .insert(id);
        }
    }

    fn remove_expiry_entry(&mut self, at: Timestamp, id: PdId) {
        let by_expiry = Arc::make_mut(&mut self.by_expiry);
        if let Some(ids) = by_expiry.get_mut(&at) {
            ids.remove(&id);
            if ids.is_empty() {
                by_expiry.remove(&at);
            }
        }
    }

    /// The ids of one subject (empty when the subject owns no record).
    fn subject_ids(&self, subject: SubjectId) -> impl Iterator<Item = PdId> + '_ {
        self.by_subject
            .get(&subject)
            .into_iter()
            .flat_map(|ids| ids.iter().copied())
    }

    /// Projects ids onto their live (non-tombstoned) locations.
    fn live_locations<'a>(
        &'a self,
        ids: impl Iterator<Item = PdId> + 'a,
    ) -> impl Iterator<Item = (PdId, &'a RecordLocation)> + 'a {
        ids.filter_map(|id| {
            self.records
                .get(&id)
                .filter(|loc| !loc.erased)
                .map(|loc| (id, loc))
        })
    }

    /// The transitive copy closure of `id` (excluding `id` itself), computed
    /// purely from the reverse-lineage index — no disk I/O.
    fn lineage_closure(&self, id: PdId) -> Vec<PdId> {
        let mut closure = Vec::new();
        let mut seen = BTreeSet::from([id]);
        let mut stack = vec![id];
        while let Some(current) = stack.pop() {
            if let Some(copies) = self.copies_of.get(&current) {
                for &copy in copies {
                    if seen.insert(copy) {
                        stack.push(copy);
                        closure.push(copy);
                    }
                }
            }
        }
        closure
    }
}

/// An immutable, versioned view of the record index, published by writers
/// at each commit point and read lock-free (one `RwLock` read to clone an
/// `Arc`, never held across device I/O).
///
/// The maps are the `Arc`s the publishing [`DbfsIndex`] held at commit time:
/// structurally shared with the live index until the next writer mutation
/// copies-on-write, so a snapshot costs O(1) regardless of store size.
#[derive(Debug)]
struct IndexSnapshot {
    /// Version counter; strictly increasing across publishes.
    epoch: u64,
    /// Logical instant of the publish (drives `read_snapshot_age`).
    published_at: Timestamp,
    /// Journal transactions committed when this snapshot was cut: the
    /// inode-layer commit sequence the snapshot's contents are durable up to.
    committed_txs: u64,
    schemas: Arc<SchemaRegistry>,
    tables: Arc<BTreeMap<DataTypeId, Ino>>,
    subjects: Arc<BTreeMap<SubjectId, Ino>>,
    records: Arc<BTreeMap<PdId, RecordLocation>>,
    by_table: Arc<BTreeMap<DataTypeId, BTreeSet<PdId>>>,
    by_subject: Arc<BTreeMap<SubjectId, BTreeSet<PdId>>>,
    by_expiry: Arc<BTreeMap<Timestamp, BTreeSet<PdId>>>,
}

impl IndexSnapshot {
    /// The ids of one table (empty when the table holds no record yet).
    fn table_ids(&self, data_type: &DataTypeId) -> impl Iterator<Item = PdId> + '_ {
        self.by_table
            .get(data_type)
            .into_iter()
            .flat_map(|ids| ids.iter().copied())
    }

    /// The ids of one subject (empty when the subject owns no record).
    fn subject_ids(&self, subject: SubjectId) -> impl Iterator<Item = PdId> + '_ {
        self.by_subject
            .get(&subject)
            .into_iter()
            .flat_map(|ids| ids.iter().copied())
    }

    /// Projects ids onto their live (non-tombstoned) locations.
    fn live_locations<'a>(
        &'a self,
        ids: impl Iterator<Item = PdId> + 'a,
    ) -> impl Iterator<Item = (PdId, &'a RecordLocation)> + 'a {
        ids.filter_map(|id| {
            self.records
                .get(&id)
                .filter(|loc| !loc.erased)
                .map(|loc| (id, loc))
        })
    }

    /// Resolves a record in this snapshot, checking table membership.
    fn locate(&self, data_type: &DataTypeId, id: PdId) -> Result<RecordLocation, DbfsError> {
        if !self.tables.contains_key(data_type) {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        }
        match self.records.get(&id) {
            Some(location) if location.data_type == *data_type => Ok(location.clone()),
            _ => Err(DbfsError::UnknownPd { id: id.raw() }),
        }
    }
}

/// Cuts an immutable snapshot of `index`: seven `Arc` clones, no map copy.
fn snapshot_of(
    index: &DbfsIndex,
    published_at: Timestamp,
    committed_txs: u64,
) -> Arc<IndexSnapshot> {
    Arc::new(IndexSnapshot {
        epoch: index.epoch,
        published_at,
        committed_txs,
        schemas: Arc::clone(&index.schemas),
        tables: Arc::clone(&index.tables),
        subjects: Arc::clone(&index.subjects),
        records: Arc::clone(&index.records),
        by_table: Arc::clone(&index.by_table),
        by_subject: Arc::clone(&index.by_subject),
        by_expiry: Arc::clone(&index.by_expiry),
    })
}

/// An index-only summary of one record, exposed so that routing layers
/// (sharding, replication) can reason about placement and lineage without
/// any disk I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// The record identifier.
    pub id: PdId,
    /// The table the record belongs to.
    pub data_type: DataTypeId,
    /// The data subject.
    pub subject: SubjectId,
    /// Direct lineage parent when the record was produced by `copy`.
    pub copied_from: Option<PdId>,
    /// Whether the record is a tombstone.
    pub erased: bool,
}

/// A durable record of a multi-instance erasure in flight, persisted through
/// [`Dbfs::put_erase_intent`] *before* any tombstone is written and cleared
/// after the last one.  If a crash interrupts the erasure, the next mount
/// finds the intent and completes (never partially applies) it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EraseIntent {
    /// `(table name, raw id)` pairs the erasure must tombstone.  Empty
    /// targets mean "heal lineage only": recovery erases whatever live
    /// record has an erased lineage ancestor (the retention sweep uses
    /// this, since its target set is only known mid-sweep).
    pub targets: Vec<(String, u64)>,
    /// Group element of the authority public key the escrow encrypts to, so
    /// recovery can rebuild an equivalent `OperatorEscrow`.
    pub escrow_key: u64,
    /// Who completes the intent after a crash: `false` for a **local**
    /// cascade (every target lives on this instance; completed by
    /// [`Dbfs::mount`]), `true` for a **routed** multi-instance erasure
    /// (targets may live on other shards; completed by the routing layer
    /// that wrote it, which also runs the cross-shard lineage heal).
    pub routed: bool,
}

/// On-disk encoding of the intent log (`__intents` in the DBFS root).
#[derive(Debug, Default, Serialize, Deserialize)]
struct IntentsFile {
    next_token: u64,
    pending: Vec<(u64, EraseIntent)>,
}

/// The database-oriented filesystem.
#[derive(Debug)]
pub struct Dbfs<D> {
    fs: InodeFs<D>,
    index: Mutex<DbfsIndex>,
    /// The currently-published read snapshot.  Readers hold the `RwLock`
    /// only long enough to clone the inner `Arc` (O(1), never across I/O);
    /// writers replace it while still holding the index lock, so the lock
    /// order is always `dbfs-index` → `dbfs-snapshot`.  The outer `Arc`
    /// lets metric closures observe the slot without borrowing `self`.
    snapshot: Arc<RwLock<Arc<IndexSnapshot>>>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
    stats: DbfsStatsInner,
    /// Acquisitions of the writer-side index lock (every `lock_index`
    /// call).  The read path serves from the published snapshot and must
    /// never appear in this tally — the `--s4` bench asserts the delta
    /// stays zero across its read phase.
    index_lock_holds: std::sync::atomic::AtomicU64,
    /// Space-accounting gauges (`space_amplification`,
    /// `tombstones_reclaimed`), refreshed by [`PdStore::space_stats`] and every
    /// scrub pass.  `Arc`'d so gauge closures observe them without
    /// borrowing `self` — and without any device I/O.
    space: Arc<SpaceGauges>,
    /// Per-operation latency instrumentation, set once by the first
    /// [`Dbfs::attach_trace_as`].  Unset (the default), a public operation
    /// pays one lock-free load and nothing else.
    trace: OnceLock<DbfsTrace>,
}

/// The handles [`Dbfs::attach_trace_as`] installs: one latency histogram per
/// public operation plus the group-commit size distribution, all timed
/// against the shared trace clock.
#[derive(Debug)]
struct DbfsTrace {
    clock: Arc<rgpdos_trace::TraceClock>,
    op_us: std::collections::BTreeMap<&'static str, rgpdos_trace::Hist>,
    group_records: rgpdos_trace::Hist,
}

/// The public operations [`Dbfs::attach_trace_as`] gives a latency histogram
/// (`dbfs_op_us{op="<name>"}`).
const DBFS_TRACED_OPS: [&str; 10] = [
    "collect",
    "insert_batch",
    "get",
    "load_membrane",
    "update",
    "copy",
    "erase",
    "erase_subject",
    "purge_expired",
    "query",
];

impl DbfsTrace {
    fn new(ctx: &rgpdos_trace::TraceCtx, labels: &[(&str, &str)]) -> Self {
        let mut op_us = std::collections::BTreeMap::new();
        for op in DBFS_TRACED_OPS {
            let mut with_op: Vec<(&str, &str)> = labels.to_vec();
            with_op.push(("op", op));
            op_us.insert(op, ctx.registry.histogram_with("dbfs_op_us", &with_op));
        }
        Self {
            clock: Arc::clone(&ctx.clock),
            op_us,
            group_records: ctx
                .registry
                .histogram_with("dbfs_group_commit_records", labels),
        }
    }
}

impl<D: BlockDevice> Dbfs<D> {
    /// Formats a device as an empty DBFS.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors (device too small, I/O failures).
    pub fn format(device: D, params: DbfsParams) -> Result<Self, DbfsError> {
        Self::format_with(
            device,
            params,
            Arc::new(LogicalClock::new()),
            AuditLog::new(),
        )
    }

    /// Formats a device, sharing an existing clock and audit log with the
    /// rest of the rgpdOS instance.
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format_with(
        device: D,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        Self::format_with_ids(device, params, clock, audit, IdAllocation::default())
    }

    /// Formats like [`Dbfs::format_with`] under an explicit identifier
    /// allocation policy (used by sharded deployments, where every shard
    /// must draw from a disjoint id space).
    ///
    /// # Errors
    ///
    /// Propagates inode-layer errors.
    pub fn format_with_ids(
        device: D,
        params: DbfsParams,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
        alloc: IdAllocation,
    ) -> Result<Self, DbfsError> {
        assert!(alloc.stride > 0, "id stride must be non-zero");
        let inode_params = FormatParams {
            secure_free: params.inode_params.secure_free,
            ..params.inode_params
        };
        let fs = InodeFs::format(device, inode_params, params.journal_mode)?;
        let tx = fs.begin_tx();
        let tables_ino = fs.alloc_inode(InodeKind::Directory)?;
        fs.dir_add(ROOT_INO, TABLES_DIR, tables_ino)?;
        let subjects_ino = fs.alloc_inode(InodeKind::Directory)?;
        fs.dir_add(ROOT_INO, SUBJECTS_DIR, subjects_ino)?;
        let meta_ino = fs.alloc_inode(InodeKind::File)?;
        fs.dir_add(ROOT_INO, META_ENTRY, meta_ino)?;
        fs.write_replace(meta_ino, &encode_meta(0))?;
        tx.commit()?;
        let index = DbfsIndex {
            tables_ino,
            subjects_ino,
            meta_ino,
            alloc,
            ..DbfsIndex::default()
        };
        let snapshot = snapshot_of(&index, clock.now(), fs.journal_txs());
        Ok(Self {
            fs,
            index: Mutex::new_named("dbfs-index", index),
            snapshot: Arc::new(RwLock::new_named("dbfs-snapshot", snapshot)),
            clock,
            audit,
            stats: DbfsStatsInner::default(),
            index_lock_holds: std::sync::atomic::AtomicU64::new(0),
            space: Arc::new(SpaceGauges::default()),
            trace: OnceLock::new(),
        })
    }

    /// Mounts an existing DBFS, rebuilding the in-memory index from the two
    /// inode trees.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] when the on-disk structure is not a
    /// DBFS, and propagates inode-layer errors.
    pub fn mount(device: D) -> Result<Self, DbfsError> {
        Self::mount_with(device, Arc::new(LogicalClock::new()), AuditLog::new())
    }

    /// Mounts like [`Dbfs::mount`], sharing a clock and audit log.
    ///
    /// # Errors
    ///
    /// Same as [`Dbfs::mount`].
    pub fn mount_with(
        device: D,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
    ) -> Result<Self, DbfsError> {
        Self::mount_with_ids(device, clock, audit, IdAllocation::default())
    }

    /// Mounts like [`Dbfs::mount_with`] under an explicit identifier
    /// allocation.  The allocation is not persisted: a sharded deployment
    /// must pass the same `IdAllocation` it formatted the shard with.
    ///
    /// Mounting also performs **crash recovery**: besides the inode layer's
    /// journal replay, DBFS reconciles its two trees (a record reachable from
    /// only one tree is re-linked into the other, torn record images are
    /// unlinked and freed), heals the identifier counter, and counts every
    /// repair in [`DbfsStats::recovered_txs`].  Recovery is idempotent, so a
    /// crash *during* recovery is repaired by the next mount.
    ///
    /// # Errors
    ///
    /// Same as [`Dbfs::mount`].
    pub fn mount_with_ids(
        device: D,
        clock: Arc<LogicalClock>,
        audit: AuditLog,
        alloc: IdAllocation,
    ) -> Result<Self, DbfsError> {
        assert!(alloc.stride > 0, "id stride must be non-zero");
        let fs = InodeFs::mount_with(device, true)?;
        let corrupt = |what: &str| DbfsError::Corrupt {
            what: what.to_owned(),
        };
        let tables_ino = fs
            .dir_lookup(ROOT_INO, TABLES_DIR)?
            .ok_or_else(|| corrupt("missing tables tree"))?;
        let subjects_ino = fs
            .dir_lookup(ROOT_INO, SUBJECTS_DIR)?
            .ok_or_else(|| corrupt("missing subjects tree"))?;
        let meta_ino = fs
            .dir_lookup(ROOT_INO, META_ENTRY)?
            .ok_or_else(|| corrupt("missing metadata file"))?;
        let meta = fs.read_all(meta_ino)?;
        let (format_version, next_pd) = decode_meta(&meta).ok_or_else(|| corrupt("metadata"))?;

        let mut index = DbfsIndex {
            tables_ino,
            subjects_ino,
            meta_ino,
            alloc,
            next_pd,
            intents_ino: fs.dir_lookup(ROOT_INO, INTENTS_ENTRY)?,
            ..DbfsIndex::default()
        };
        let mut recovered = 0u64;

        for (subject_name, subject_ino) in fs.dir_entries(subjects_ino)? {
            let raw = subject_name
                .strip_prefix("subject-")
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| corrupt("malformed subject entry"))?;
            Arc::make_mut(&mut index.subjects).insert(SubjectId::new(raw), subject_ino);
        }

        // Scan the tables tree (the authoritative record registry).  A
        // record image that fails to decode is crash debris — the leftovers
        // of an insert whose compound transaction did not fit one journal
        // transaction — and is unlinked below.
        let mut debris: Vec<(String, Ino, Ino)> = Vec::new();
        for (type_name, table_ino) in fs.dir_entries(tables_ino)? {
            let data_type = DataTypeId::from(type_name.as_str());
            Arc::make_mut(&mut index.tables).insert(data_type.clone(), table_ino);
            for (entry, ino) in fs.dir_entries(table_ino)? {
                if entry == SCHEMA_ENTRY {
                    let bytes = fs.read_all(ino)?;
                    let schema: DataTypeSchema = serde_json::from_slice(&bytes)
                        .map_err(|_| corrupt("schema does not decode"))?;
                    Arc::make_mut(&mut index.schemas).register(schema);
                } else {
                    let raw = entry
                        .strip_prefix("pd-")
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| corrupt("malformed record entry"))?;
                    let membrane = if format_version == 1 {
                        // Legacy single-section record: decode it whole and
                        // rewrite it in place using the split layout.  A
                        // crash mid-migration leaves some records already
                        // split while the metadata still says v1, so fall
                        // back to the split decoding to stay idempotent.
                        let bytes = fs.read_all(ino)?;
                        match serde_json::from_slice::<LegacyStoredRecord>(&bytes) {
                            Ok(legacy) => {
                                let encoded = stored::encode(&legacy.membrane, &legacy.row)?;
                                let tx = fs.begin_tx();
                                fs.write_replace(ino, &encoded)?;
                                tx.commit()?;
                                legacy.membrane
                            }
                            Err(_) => stored::decode(&bytes)
                                .map(|(membrane, _)| membrane)
                                .map_err(|_| corrupt("record decodes in neither layout"))?,
                        }
                    } else {
                        match read_membrane_from(&fs, ino) {
                            Ok(membrane) => membrane,
                            Err(DbfsError::Corrupt { .. }) | Err(DbfsError::Core(_)) => {
                                debris.push((entry.clone(), ino, table_ino));
                                continue;
                            }
                            Err(e) => return Err(e),
                        }
                    };
                    index.insert_record(
                        PdId::new(raw),
                        RecordLocation::from_membrane(&data_type, &membrane, ino),
                    );
                }
            }
        }

        // Unlink and free torn record images (zero-on-free scrubs whatever
        // plaintext the torn image still held).  This is a deliberate
        // roll-back policy, not silent data loss: a torn image is the
        // leftover of a mutation that never committed atomically, and
        // preserving it would keep half-written personal data on the device
        // outside any membrane's governance — the exact residue failure the
        // paper criticises.  Every scrub is audited.
        for (entry, ino, table_ino) in &debris {
            fs.dir_remove(*table_ino, entry)?;
            let _ = fs.free_inode(*ino);
            audit.record(
                clock.now(),
                None,
                AuditEventKind::ViolationBlocked {
                    description: format!(
                        "mount recovery scrubbed torn record image `{entry}` \
                         (uncommitted crash debris)"
                    ),
                },
            );
            recovered += 1;
        }

        // Reconcile the subject tree against the table tree.  A record
        // reachable only through its subject entry is re-linked into its
        // table (roll forward); an entry whose record is torn or missing is
        // dropped (roll back).
        let mut present: BTreeMap<SubjectId, BTreeSet<String>> = BTreeMap::new();
        let subjects_snapshot: Vec<(SubjectId, Ino)> = index
            .subjects
            .iter()
            .map(|(&subject, &ino)| (subject, ino))
            .collect();
        for (subject, subject_ino) in subjects_snapshot {
            let names = present.entry(subject).or_default();
            for (entry, ino) in fs.dir_entries(subject_ino)? {
                let parsed = entry
                    .rsplit_once("#pd-")
                    .and_then(|(ty, raw)| raw.parse::<u64>().ok().map(|raw| (ty.to_owned(), raw)));
                let Some((type_name, raw)) = parsed else {
                    fs.dir_remove(subject_ino, &entry)?;
                    recovered += 1;
                    continue;
                };
                let id = PdId::new(raw);
                match index.records.get(&id) {
                    Some(loc) if loc.ino == ino => {
                        names.insert(entry);
                    }
                    Some(_) => {
                        // Entry pointing at a stale inode: drop it; the
                        // canonical entry is re-created below.
                        fs.dir_remove(subject_ino, &entry)?;
                        recovered += 1;
                    }
                    None => {
                        let data_type = DataTypeId::from(type_name.as_str());
                        let repaired = match index.tables.get(&data_type).copied() {
                            Some(table_ino) => match read_membrane_from(&fs, ino) {
                                Ok(membrane) => {
                                    let name = format!("pd-{raw}");
                                    if fs.dir_lookup(table_ino, &name)?.is_none() {
                                        fs.dir_add(table_ino, &name, ino)?;
                                    }
                                    index.insert_record(
                                        id,
                                        RecordLocation::from_membrane(&data_type, &membrane, ino),
                                    );
                                    names.insert(entry.clone());
                                    true
                                }
                                Err(DbfsError::Corrupt { .. })
                                | Err(DbfsError::Core(_))
                                | Err(DbfsError::Inode(rgpdos_inode::InodeError::BadInode {
                                    ..
                                })) => false,
                                Err(e) => return Err(e),
                            },
                            None => false,
                        };
                        if !repaired {
                            fs.dir_remove(subject_ino, &entry)?;
                            let _ = fs.free_inode(ino);
                            audit.record(
                                clock.now(),
                                None,
                                AuditEventKind::ViolationBlocked {
                                    description: format!(
                                        "mount recovery scrubbed torn record image \
                                         `{entry}` (uncommitted crash debris)"
                                    ),
                                },
                            );
                        }
                        recovered += 1;
                    }
                }
            }
        }

        // The other direction: every indexed record must be reachable from
        // its subject's subtree (erase_subject and the right of access walk
        // that tree).
        let records_snapshot: Vec<(PdId, RecordLocation)> = index
            .records
            .iter()
            .map(|(&id, loc)| (id, loc.clone()))
            .collect();
        for (id, loc) in records_snapshot {
            let name = format!("{}#pd-{}", loc.data_type, id.raw());
            let subject_ino = match index.subjects.get(&loc.subject) {
                Some(&ino) => ino,
                None => {
                    let tx = fs.begin_tx();
                    let ino = fs.alloc_inode(InodeKind::SubjectRoot)?;
                    fs.dir_add(subjects_ino, &loc.subject.to_string(), ino)?;
                    tx.commit()?;
                    Arc::make_mut(&mut index.subjects).insert(loc.subject, ino);
                    recovered += 1;
                    ino
                }
            };
            let names = present.entry(loc.subject).or_default();
            if !names.contains(&name) {
                fs.dir_add(subject_ino, &name, loc.ino)?;
                names.insert(name);
                recovered += 1;
            }
        }

        // Heal the identifier counter: it must stay ahead of every id on
        // disk, or a recycled id could collide with (and resurrect) an
        // existing record.
        let mut max_counter = index.next_pd;
        for &id in index.records.keys() {
            let raw = id.raw();
            if raw >= alloc.offset && (raw - alloc.offset).is_multiple_of(alloc.stride) {
                max_counter = max_counter.max((raw - alloc.offset) / alloc.stride + 1);
            }
        }
        if max_counter > index.next_pd {
            index.next_pd = max_counter;
            fs.write_replace(meta_ino, &encode_meta(max_counter))?;
            recovered += 1;
        }

        if format_version == 1 {
            // The records above were rewritten in the split layout; stamp the
            // metadata so the next mount takes the v2 fast path.
            fs.write_replace(meta_ino, &encode_meta(index.next_pd))?;
        }

        let stats = DbfsStatsInner::default();
        stats.journal_replays.add(fs.recovered_txs());
        stats.recovered_txs.add(recovered);
        let snapshot = snapshot_of(&index, clock.now(), fs.journal_txs());
        let this = Self {
            fs,
            index: Mutex::new_named("dbfs-index", index),
            snapshot: Arc::new(RwLock::new_named("dbfs-snapshot", snapshot)),
            clock,
            audit,
            stats,
            index_lock_holds: std::sync::atomic::AtomicU64::new(0),
            space: Arc::new(SpaceGauges::default()),
            trace: OnceLock::new(),
        };
        // Complete any local erase cascade a crash interrupted beyond the
        // single-journal-transaction capacity bound.
        this.recover_local_intents()?;
        Ok(this)
    }

    /// Routes this store's instrumentation through `ctx`: every
    /// [`DbfsStats`] counter is adopted into the registry (the old
    /// accessors keep reading the same atomics), the inode layer below is
    /// attached ([`InodeFs::attach_trace`] — commit latency, phase spans,
    /// cache counters), and every subsequent public operation records its
    /// latency into `dbfs_op_us{op="…"}` plus the group-commit size
    /// distribution into `dbfs_group_commit_records`.  `labels` tags all
    /// of it (sharded deployments pass `shard="<i>"`).  The trace layer
    /// performs no device I/O of its own.
    ///
    /// A store is traced into at most one context: the first attach wins,
    /// and every later call is a no-op that registers nothing in its
    /// `ctx`.
    pub fn attach_trace_as(&self, ctx: &rgpdos_trace::TraceCtx, labels: &[(&str, &str)]) {
        let mut first = false;
        self.trace.get_or_init(|| {
            first = true;
            DbfsTrace::new(ctx, labels)
        });
        if !first {
            return;
        }
        self.stats.register(&ctx.registry, labels);
        self.fs.attach_trace(ctx, labels);
        // Staleness of the published read snapshot in simulated seconds: 0
        // while writers keep publishing, growing on an idle or wedged store.
        let snapshot = Arc::clone(&self.snapshot);
        let clock = Arc::clone(&self.clock);
        ctx.registry.gauge_fn("read_snapshot_age", labels, move || {
            let published_at = snapshot.read().published_at;
            i64::try_from(clock.now().since(published_at).as_secs()).unwrap_or(i64::MAX)
        });
        // Space lifecycle: amplification as measured by the last
        // `space_stats`/scrub pass (×100 fixed point, 100 = 1.00×) and the
        // running reclaim count.  Both read pre-computed atomics — gauge
        // closures must never perform device I/O.
        let space = Arc::clone(&self.space);
        ctx.registry
            .gauge_fn("space_amplification", labels, move || {
                space.amplification_x100()
            });
        let space = Arc::clone(&self.space);
        ctx.registry
            .gauge_fn("tombstones_reclaimed", labels, move || {
                i64::try_from(space.reclaimed()).unwrap_or(i64::MAX)
            });
    }

    /// A drop-timer for one traced public operation, or `None` when no
    /// trace is attached.
    fn op_timer(&self, op: &'static str) -> Option<rgpdos_trace::HistTimer> {
        let t = self.trace.get()?;
        t.op_us.get(op).map(|h| h.timer(&t.clock))
    }

    /// Records the size of one journal group commit, if tracing.
    fn record_group_commit(&self, records: u64) {
        if let Some(t) = self.trace.get() {
            t.group_records.record(records);
        }
    }

    /// Hit/miss counters of the inode-layer buffer cache under this store.
    pub fn cache_stats(&self) -> rgpdos_inode::CacheStats {
        self.fs.cache_stats()
    }

    /// Drops the buffer cache (benchmarks use this to measure a cold read
    /// path; correctness never requires it).
    pub fn drop_caches(&self) {
        self.fs.drop_caches();
    }

    /// The underlying inode filesystem.
    pub fn inode_fs(&self) -> &InodeFs<D> {
        &self.fs
    }

    /// The underlying block device (for forensic scans in experiments).
    pub fn device(&self) -> &D {
        self.fs.device()
    }

    // ------------------------------------------------------------------
    // Snapshot publishing (MVCC-lite read path)
    // ------------------------------------------------------------------

    /// Clones the currently-published read snapshot: one `RwLock` read held
    /// for a single `Arc` clone.  Never acquires the index lock and is never
    /// held across device I/O by any caller.
    fn read_snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Acquires the writer-side index lock, counting the acquisition.
    /// Every index-lock site goes through here, so
    /// [`Dbfs::index_lock_holds`] is a complete tally.
    fn lock_index(&self) -> parking_lot::MutexGuard<'_, DbfsIndex> {
        self.index_lock_holds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.index.lock()
    }

    /// Total acquisitions of the writer-side index lock since
    /// format/mount.  Snapshot-served readers never take that lock, so the
    /// tally is flat across a read-only phase — the `--s4` bench asserts
    /// exactly that.
    pub fn index_lock_holds(&self) -> u64 {
        self.index_lock_holds
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Publishes a new snapshot of `index`.  Must be called with the index
    /// lock held (the `&mut DbfsIndex` proves it), so publishes are totally
    /// ordered and the lock order is always `dbfs-index` → `dbfs-snapshot`.
    fn publish_locked(&self, index: &mut DbfsIndex) {
        index.epoch += 1;
        let snapshot = snapshot_of(index, self.clock.now(), self.fs.journal_txs());
        *self.snapshot.write() = snapshot;
    }

    /// Returns `true` if `id` — live in the snapshot a reader resolved its
    /// block location from — has been crypto-erased by a writer that
    /// published *after* that snapshot was cut.  Readers call this after
    /// the device read: a `true` answer means the payload bytes may be the
    /// erased record's scrubbed blocks (or their reuse by a newer record)
    /// and must not be handed out.
    fn erased_since(&self, snapshot: &IndexSnapshot, id: PdId) -> bool {
        let current = self.read_snapshot();
        if current.epoch == snapshot.epoch {
            return false;
        }
        match current.records.get(&id) {
            Some(location) => location.erased,
            None => true,
        }
    }

    /// `(epoch, publish instant, committed journal transactions)` of the
    /// currently-published read snapshot.  Every reader observes exactly one
    /// such version; the epoch is strictly increasing across commits.
    pub fn snapshot_info(&self) -> (u64, Timestamp, u64) {
        let snapshot = self.read_snapshot();
        (
            snapshot.epoch,
            snapshot.published_at,
            snapshot.committed_txs,
        )
    }

    /// The subjects that currently own at least one record.  Wait-free
    /// (published snapshot), like [`PdStore::types`].
    pub fn subjects(&self) -> Vec<SubjectId> {
        self.read_snapshot().subjects.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Record lifecycle helpers
    // ------------------------------------------------------------------

    fn store_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
        validate: bool,
    ) -> Result<PdId, DbfsError> {
        // The whole insert (lineage guard, disk writes, index update) runs
        // under the index lock: the erased-ancestor check below is only
        // sound because no erasure can interleave with it, and the id/inode
        // trees stay consistent.  Inserts therefore serialize against each
        // other — an accepted cost, since the read paths are what the
        // secondary indexes optimize.
        let mut index = self.lock_index();
        let mut group = InsertGroup::starting_at(index.next_pd);
        self.check_insertable(&index, &group, data_type, &wrapped, validate)?;
        // Every disk effect of the insert — identifier counter, record
        // inode, table-tree entry, subject-tree entry — is staged in one
        // compound transaction, so a crash at any write index leaves either
        // the whole record or none of it.  The in-memory index is only
        // updated after the commit.
        let tx = self.fs.begin_tx();
        let id = self.stage_wrapped(&index, &mut group, data_type, &wrapped)?;
        tx.commit()?;
        let committed = self.apply_group(&mut index, group);
        self.publish_locked(&mut index);
        drop(index);
        self.account_inserts(&committed);
        Ok(id)
    }

    /// Validation + lineage guard of one insert, against the committed
    /// index *and* the records staged by the open group (a staged record is
    /// never erased, but its ancestors must still be walked).
    fn check_insertable(
        &self,
        index: &DbfsIndex,
        group: &InsertGroup,
        data_type: &DataTypeId,
        wrapped: &WrappedPd,
        validate: bool,
    ) -> Result<(), DbfsError> {
        if !index.tables.contains_key(data_type) {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        }
        if validate && !wrapped.membrane().is_erased() {
            let schema = index
                .schemas
                .get(data_type)
                .ok_or_else(|| DbfsError::UnknownType {
                    name: data_type.to_string(),
                })?;
            schema.validate_row(wrapped.row())?;
        }
        // A copy must not outlive its lineage: refuse a live copy when *any*
        // ancestor in its copied_from chain is already tombstoned.  This
        // closes the race where `copy` reads the plaintext just before an
        // `erase` snapshots the lineage closure: the erasure tombstones the
        // chain's root first, so an insert that slips in after the snapshot
        // finds an erased ancestor here and loses.
        if !wrapped.membrane().is_erased() {
            let mut seen = BTreeSet::new();
            let mut ancestor = wrapped.membrane().copied_from();
            while let Some(current) = ancestor {
                if !seen.insert(current) {
                    break;
                }
                if let Some(loc) = index.records.get(&current) {
                    if loc.erased {
                        return Err(DbfsError::Erased { id: current.raw() });
                    }
                    ancestor = loc.copied_from;
                } else if let Some(staged) = group.staged.iter().find(|s| s.id == current) {
                    ancestor = staged.membrane.copied_from();
                } else {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Stages every disk effect of one insert — identifier counter, record
    /// inode, table-tree entry, subject-tree entry — into the **open**
    /// compound transaction, and records the index mutations to apply once
    /// the group commits.  The group is only mutated after every staged
    /// write succeeded, so a caller that rolls the transaction back to a
    /// pre-call savepoint can keep using the (then-untouched) group.
    fn stage_wrapped(
        &self,
        index: &DbfsIndex,
        group: &mut InsertGroup,
        data_type: &DataTypeId,
        wrapped: &WrappedPd,
    ) -> Result<PdId, DbfsError> {
        let Some(&table_ino) = index.tables.get(data_type) else {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        };
        let subject = wrapped.membrane().subject();
        let id = PdId::new(index.alloc.id_for(group.next_pd));
        let next_pd = group.next_pd + 1;
        self.fs
            .write_replace(index.meta_ino, &encode_meta(next_pd))?;

        // Record inode + table-tree entry.
        let record_ino = self.fs.alloc_inode(InodeKind::Record)?;
        let bytes = stored::encode(wrapped.membrane(), wrapped.row())?;
        self.fs.write_replace(record_ino, &bytes)?;
        self.fs
            .dir_add(table_ino, &format!("pd-{}", id.raw()), record_ino)?;

        // Subject-tree entry (creating the subject's subtree on first use —
        // a subtree created earlier in the same group is reused).
        let known_subject = index
            .subjects
            .get(&subject)
            .or_else(|| group.new_subjects.get(&subject))
            .copied();
        let (subject_ino, new_subject) = match known_subject {
            Some(ino) => (ino, false),
            None => {
                let ino = self.fs.alloc_inode(InodeKind::SubjectRoot)?;
                self.fs
                    .dir_add(index.subjects_ino, &subject.to_string(), ino)?;
                (ino, true)
            }
        };
        self.fs.dir_add(
            subject_ino,
            &format!("{}#pd-{}", data_type, id.raw()),
            record_ino,
        )?;

        group.next_pd = next_pd;
        if new_subject {
            group.new_subjects.insert(subject, subject_ino);
        }
        group.staged.push(StagedInsert {
            id,
            data_type: data_type.clone(),
            subject,
            record_ino,
            membrane: wrapped.membrane().clone(),
        });
        Ok(id)
    }

    /// Applies a committed group's index mutations, returning the
    /// `(id, subject)` pairs for stats/audit accounting.
    fn apply_group(&self, index: &mut DbfsIndex, group: InsertGroup) -> Vec<(PdId, SubjectId)> {
        index.next_pd = group.next_pd;
        for (subject, ino) in group.new_subjects {
            Arc::make_mut(&mut index.subjects).insert(subject, ino);
        }
        let mut done = Vec::with_capacity(group.staged.len());
        for staged in group.staged {
            index.insert_record(
                staged.id,
                RecordLocation::from_membrane(
                    &staged.data_type,
                    &staged.membrane,
                    staged.record_ino,
                ),
            );
            done.push((staged.id, staged.subject));
        }
        done
    }

    /// Stats + audit events for committed inserts (outside the index lock,
    /// after the commit — a crashed insert is never audited).
    fn account_inserts(&self, committed: &[(PdId, SubjectId)]) {
        for (id, subject) in committed {
            self.stats.collects.inc();
            self.audit.record(
                self.clock.now(),
                Some(*subject),
                AuditEventKind::Collected { pd: *id },
            );
        }
    }

    /// Reads membrane headers resolved from `snapshot` with no lock held.
    fn read_membranes(
        &self,
        snapshot: &IndexSnapshot,
        locations: Vec<(PdId, Ino)>,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let mut out = Vec::with_capacity(locations.len());
        for (id, ino) in locations {
            self.stats.membrane_loads.inc();
            out.push((id, self.read_membrane_checked(snapshot, id, ino)?));
        }
        Ok(out)
    }

    /// One membrane read with stale-snapshot protection: an erasure that
    /// committed after `snapshot` was cut rewrites the record in place, so
    /// a read that catches the header mid-rewrite fails to decode.  In that
    /// case — and only when the current snapshot confirms the record was
    /// erased since — the read is retried once; the tombstone image is
    /// committed to the device *before* the erasure publishes, so the retry
    /// sees a decodable (erased) header.
    fn read_membrane_checked(
        &self,
        snapshot: &IndexSnapshot,
        id: PdId,
        ino: Ino,
    ) -> Result<Membrane, DbfsError> {
        match read_membrane_from(&self.fs, ino) {
            Ok(membrane) => Ok(membrane),
            Err(DbfsError::Corrupt { .. } | DbfsError::Core(_))
                if self.erased_since(snapshot, id) =>
            {
                read_membrane_from(&self.fs, ino)
            }
            Err(e) => Err(e),
        }
    }

    /// Crypto-erases every target (skipping records already tombstoned) in
    /// **one** compound transaction under an already-held index lock: the
    /// escrowed ciphertexts always capture the rows as last committed, no
    /// writer can interleave between the tombstone writes and the index flag
    /// flips, and a crash applies either every tombstone or none.
    ///
    /// Multi-target cascades additionally log a **local erase intent**
    /// before the transaction and clear it after: if the staged write set
    /// ever exceeds one journal transaction (forcing the chunked fallback),
    /// a crash between chunks is still completed at the next mount instead
    /// of leaving a copy that outlives its erased original.
    fn erase_targets_locked(
        &self,
        index: &mut DbfsIndex,
        targets: &[(DataTypeId, PdId)],
        escrow: &OperatorEscrow,
    ) -> Result<Vec<(PdId, SubjectId)>, DbfsError> {
        let token = if targets.len() > 1 {
            let intent = EraseIntent {
                targets: targets
                    .iter()
                    .map(|(data_type, id)| (data_type.to_string(), id.raw()))
                    .collect(),
                escrow_key: escrow.public_key().element(),
                routed: false,
            };
            Some(self.put_erase_intent_locked(index, &intent)?)
        } else {
            None
        };
        let tx = self.fs.begin_tx();
        let mut done = Vec::with_capacity(targets.len());
        for (data_type, id) in targets {
            let location = Self::locate_in(index, data_type, *id)?;
            if location.erased {
                continue;
            }
            let mut stored = self.read_stored(location.ino)?;
            let plaintext = serde_json::to_vec(&stored.row).map_err(|_| DbfsError::Corrupt {
                what: "row serialization for erasure".to_owned(),
            })?;
            let ciphertext = escrow.erase(&plaintext);
            let mut wrapped = WrappedPd::new(stored.row.clone(), stored.membrane.clone());
            wrapped.erase_with(ciphertext.encode());
            stored.row = wrapped.row().clone();
            stored.membrane = wrapped.membrane().clone();
            self.write_stored(location.ino, &stored)?;
            done.push((*id, location.subject));
        }
        tx.commit()?;
        for (id, _) in &done {
            index.mark_erased(*id);
        }
        // Publish *after* the tombstones are durable: a reader that sees the
        // new epoch can rely on the device already holding the erased image.
        if !done.is_empty() {
            self.publish_locked(index);
        }
        if let Some(token) = token {
            // A crash before this clear is benign: the next mount finds
            // every target already tombstoned, completes nothing and clears
            // the intent itself.
            self.clear_erase_intent_locked(index, token)?;
        }
        Ok(done)
    }

    /// Bumps the erasure counter and audits one `Erased` event per
    /// tombstoned record (after the commit, so a crashed erasure is never
    /// audited).
    fn audit_erasures(&self, done: &[(PdId, SubjectId)]) {
        for (erased_id, subject) in done {
            self.stats.erasures.inc();
            self.audit.record(
                self.clock.now(),
                Some(*subject),
                AuditEventKind::Erased { pd: *erased_id },
            );
        }
    }

    /// The `(table, id)` pairs of a subject's *live* records, resolved purely
    /// from the in-memory index — no disk I/O.  Sharded deployments use this
    /// to snapshot a subject's record set before a cross-shard erasure
    /// without reading a single block.
    pub fn ids_of_subject(&self, subject: SubjectId) -> Vec<(DataTypeId, PdId)> {
        let snapshot = self.read_snapshot();
        snapshot
            .live_locations(snapshot.subject_ids(subject))
            .map(|(id, loc)| (loc.data_type.clone(), id))
            .collect()
    }

    /// `(live, tombstoned)` record counts, read straight off the published
    /// snapshot — wait-free, no disk I/O (the cheap path for load
    /// reporting; [`Dbfs::record_index_snapshot`] is the full snapshot).
    pub fn record_counts(&self) -> (usize, usize) {
        let snapshot = self.read_snapshot();
        let tombstones = snapshot.records.values().filter(|loc| loc.erased).count();
        (snapshot.records.len() - tombstones, tombstones)
    }

    /// An index-only snapshot of every record (live and tombstoned).  Routing
    /// layers use this to rebuild placement and lineage directories on mount
    /// and to audit cross-instance invariants.
    pub fn record_index_snapshot(&self) -> Vec<RecordSummary> {
        self.read_snapshot()
            .records
            .iter()
            .map(|(&id, loc)| RecordSummary {
                id,
                data_type: loc.data_type.clone(),
                subject: loc.subject,
                copied_from: loc.copied_from,
                erased: loc.erased,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Erase-intent write-ahead log (used by routing layers)
    // ------------------------------------------------------------------

    /// Durably records an [`EraseIntent`] in this instance's intent log
    /// (creating the log file on first use), returning a token for
    /// [`Dbfs::clear_erase_intent`].  The write is one compound transaction,
    /// so the log is never torn.
    ///
    /// Routing layers (the sharded router) write an intent *before* starting
    /// a multi-instance erasure and clear it after the last tombstone: a
    /// crash in between is completed at the next mount from the persisted
    /// target list.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn put_erase_intent(&self, intent: &EraseIntent) -> Result<u64, DbfsError> {
        let mut index = self.lock_index();
        self.put_erase_intent_locked(&mut index, intent)
    }

    fn put_erase_intent_locked(
        &self,
        index: &mut DbfsIndex,
        intent: &EraseIntent,
    ) -> Result<u64, DbfsError> {
        let tx = self.fs.begin_tx();
        let ino = match index.intents_ino {
            Some(ino) => ino,
            None => {
                let ino = self.fs.alloc_inode(InodeKind::File)?;
                self.fs.dir_add(ROOT_INO, INTENTS_ENTRY, ino)?;
                ino
            }
        };
        let mut file = self.read_intents(ino)?;
        let token = file.next_token;
        file.next_token += 1;
        file.pending.push((token, intent.clone()));
        self.write_intents(ino, &file)?;
        tx.commit()?;
        index.intents_ino = Some(ino);
        Ok(token)
    }

    /// The intents whose erasures had not been confirmed complete when this
    /// instance last went down (empty on a cleanly shut-down image).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] when the intent log does not decode.
    pub fn pending_erase_intents(&self) -> Result<Vec<(u64, EraseIntent)>, DbfsError> {
        let index = self.lock_index();
        match index.intents_ino {
            Some(ino) => Ok(self.read_intents(ino)?.pending),
            None => Ok(Vec::new()),
        }
    }

    /// Removes a completed intent from the log.  Clearing an unknown token
    /// is a no-op (the happy path and the recovery path may race benignly).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn clear_erase_intent(&self, token: u64) -> Result<(), DbfsError> {
        let index = self.lock_index();
        self.clear_erase_intent_locked(&index, token)
    }

    fn clear_erase_intent_locked(&self, index: &DbfsIndex, token: u64) -> Result<(), DbfsError> {
        let Some(ino) = index.intents_ino else {
            return Ok(());
        };
        let mut file = self.read_intents(ino)?;
        let before = file.pending.len();
        file.pending.retain(|(t, _)| *t != token);
        if file.pending.len() != before {
            let tx = self.fs.begin_tx();
            self.write_intents(ino, &file)?;
            tx.commit()?;
        }
        Ok(())
    }

    /// Completes **local** erase intents left behind by a crash: a cascade
    /// whose compound transaction spilled past one journal transaction is
    /// re-driven to completion with an escrow rebuilt from the intent's
    /// authority key, so no copy ever outlives its erased original even
    /// beyond the single-transaction capacity bound.  Routed intents are
    /// left for the routing layer that wrote them.
    fn recover_local_intents(&self) -> Result<(), DbfsError> {
        for (token, intent) in self.pending_erase_intents()? {
            if intent.routed {
                continue;
            }
            let public =
                PublicKey::from_element(intent.escrow_key).map_err(|_| DbfsError::Corrupt {
                    what: "erase intent carries an invalid authority key".to_owned(),
                })?;
            let escrow = OperatorEscrow::new(public);
            for (type_name, raw) in &intent.targets {
                let id = PdId::new(*raw);
                let data_type = DataTypeId::from(type_name.as_str());
                match self.load_membrane(&data_type, id) {
                    Ok(membrane) if !membrane.is_erased() => {
                        self.erase(&data_type, id, &escrow)?;
                    }
                    Ok(_) => {}
                    // The target never reached the disk (its insert was lost
                    // in the same crash, or rolled back as debris).
                    Err(DbfsError::UnknownPd { .. }) | Err(DbfsError::UnknownType { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            self.clear_erase_intent(token)?;
            self.note_recovered_tx();
        }
        Ok(())
    }

    fn read_intents(&self, ino: Ino) -> Result<IntentsFile, DbfsError> {
        let bytes = self.fs.read_all(ino)?;
        if bytes.is_empty() {
            return Ok(IntentsFile::default());
        }
        serde_json::from_slice(&bytes).map_err(|_| DbfsError::Corrupt {
            what: "erase-intent log".to_owned(),
        })
    }

    fn write_intents(&self, ino: Ino, file: &IntentsFile) -> Result<(), DbfsError> {
        let bytes = serde_json::to_vec(file).map_err(|_| DbfsError::Corrupt {
            what: "erase-intent serialization".to_owned(),
        })?;
        self.fs.write_replace(ino, &bytes)?;
        Ok(())
    }

    /// Index-only probe: whether any live record's retention period has
    /// elapsed at `now` (no disk I/O; the retention sweep re-verifies every
    /// candidate against its on-disk header before erasing).
    pub fn has_expired_candidates(&self, now: Timestamp) -> bool {
        self.read_snapshot()
            .by_expiry
            .range(..now)
            .any(|(_, ids)| !ids.is_empty())
    }

    /// Records one recovery action performed on this instance's behalf by a
    /// routing layer (e.g. a completed cross-shard erase intent), surfacing
    /// it in [`DbfsStats::recovered_txs`].
    pub fn note_recovered_tx(&self) {
        self.stats.recovered_txs.inc();
    }

    // ------------------------------------------------------------------
    // Tombstone scrubbing / space reclamation
    // ------------------------------------------------------------------

    /// Tombstones reclaimed by scrub passes since format/mount (the
    /// `tombstones_reclaimed` gauge).
    pub fn tombstones_reclaimed(&self) -> u64 {
        self.space.reclaimed()
    }

    /// One scrub pass: reclaims the on-disk footprint of tombstones whose
    /// erasure receipt is durable.  `reclaimable` is the caller's extra
    /// retention policy — routing layers pass a predicate that retains
    /// tombstones the cross-shard lineage directory still references.
    ///
    /// For every reclaimed tombstone, both tree entries are unlinked and
    /// the record inode is freed (zeroed under `secure_free`, so the
    /// escrowed ciphertext leaves no residue) in **one** compound
    /// transaction — a crash at any write index leaves either the whole
    /// tombstone or none of it, and the next mount simply no longer indexes
    /// it.  Skipped, in order of precedence:
    ///
    /// * tombstones named by a **pending [`EraseIntent`]** (counted in
    ///   [`ScrubReport::retained_intent`]): the erasure protocol has not
    ///   confirmed them durable everywhere;
    /// * tombstones `reclaimable` refuses, and tombstones that still have
    ///   copies in the reverse-lineage index (both counted in
    ///   [`ScrubReport::retained_lineage`]).  Reclamation is strictly
    ///   child-before-parent — iterated to fixpoint, so a fully erased copy
    ///   chain is reclaimed whole in one pass, deepest copies first.
    ///
    /// Each reclamation is audited as an
    /// [`AuditEventKind::Reclaimed`] event after its commit.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; tombstones reclaimed before the failure
    /// stay reclaimed (each was individually atomic).
    pub fn scrub_tombstones_with(
        &self,
        reclaimable: impl Fn(PdId) -> bool,
    ) -> Result<ScrubReport, DbfsError> {
        let mut report = ScrubReport::default();
        let done = {
            let mut index = self.lock_index();
            // Tombstones named by a pending intent are still part of an
            // in-flight erasure (a chunked local cascade or a routed
            // cross-shard erasure): never reclaim them.
            let pending: BTreeSet<PdId> = match index.intents_ino {
                Some(ino) => self
                    .read_intents(ino)?
                    .pending
                    .iter()
                    .flat_map(|(_, intent)| intent.targets.iter().map(|(_, raw)| PdId::new(*raw)))
                    .collect(),
                None => BTreeSet::new(),
            };
            let mut blocked = 0usize;
            let mut queue: Vec<PdId> = Vec::new();
            for (&id, _) in index.records.iter().filter(|(_, loc)| loc.erased) {
                report.scanned_tombstones += 1;
                if pending.contains(&id) {
                    report.retained_intent += 1;
                } else if !reclaimable(id) {
                    blocked += 1;
                } else {
                    queue.push(id);
                }
            }
            let mut done: Vec<(PdId, SubjectId)> = Vec::new();
            // Child-before-parent, iterated to fixpoint: a tombstone is
            // only reclaimed once nothing references it as its lineage
            // original, so the reverse-lineage index never dangles.
            loop {
                let mut progressed = false;
                let mut deferred = Vec::new();
                for id in std::mem::take(&mut queue) {
                    if index
                        .copies_of
                        .get(&id)
                        .is_some_and(|copies| !copies.is_empty())
                    {
                        deferred.push(id);
                        continue;
                    }
                    let Some(location) = index.records.get(&id).cloned() else {
                        continue;
                    };
                    let bytes = self.fs.stat(location.ino)?.size;
                    self.reclaim_locked(&mut index, id, &location)?;
                    report.bytes_reclaimed += bytes;
                    done.push((id, location.subject));
                    progressed = true;
                }
                queue = deferred;
                if queue.is_empty() || !progressed {
                    break;
                }
            }
            // Whatever still waits on surviving copies — or on the caller's
            // retain policy — stays a tombstone until a later pass.
            report.retained_lineage = blocked + queue.len();
            report.reclaimed = done.iter().map(|(id, _)| *id).collect();
            done
        };
        if !done.is_empty() {
            self.space.add_reclaimed(done.len() as u64);
            // Audited after the commits, outside the index lock: a crashed
            // reclamation is never audited, mirroring erasure accounting.
            for (id, subject) in &done {
                self.audit.record(
                    self.clock.now(),
                    Some(*subject),
                    AuditEventKind::Reclaimed { pd: *id },
                );
            }
        }
        // Refresh the amplification gauge from the post-pass footprint.
        self.space_stats()?;
        Ok(report)
    }

    /// Reclaims one tombstone under the index lock: one compound
    /// transaction unlinks both tree entries and frees the record inode,
    /// then the in-memory index drops the id (the exact reverse of
    /// `insert_record`) and a new snapshot publishes.
    fn reclaim_locked(
        &self,
        index: &mut DbfsIndex,
        id: PdId,
        location: &RecordLocation,
    ) -> Result<(), DbfsError> {
        let Some(&table_ino) = index.tables.get(&location.data_type) else {
            return Err(DbfsError::Corrupt {
                what: format!("tombstone {id} belongs to an unknown table"),
            });
        };
        let Some(&subject_ino) = index.subjects.get(&location.subject) else {
            return Err(DbfsError::Corrupt {
                what: format!("tombstone {id} belongs to an unknown subject"),
            });
        };
        let tx = self.fs.begin_tx();
        self.fs.dir_remove(table_ino, &format!("pd-{}", id.raw()))?;
        self.fs.dir_remove(
            subject_ino,
            &format!("{}#pd-{}", location.data_type, id.raw()),
        )?;
        self.fs.free_inode(location.ino)?;
        tx.commit()?;
        Arc::make_mut(&mut index.records).remove(&id);
        if let Some(ids) = Arc::make_mut(&mut index.by_table).get_mut(&location.data_type) {
            ids.remove(&id);
        }
        if let Some(ids) = Arc::make_mut(&mut index.by_subject).get_mut(&location.subject) {
            ids.remove(&id);
        }
        if let Some(original) = location.copied_from {
            if let Some(copies) = index.copies_of.get_mut(&original) {
                copies.remove(&id);
                if copies.is_empty() {
                    index.copies_of.remove(&original);
                }
            }
        }
        index.copies_of.remove(&id);
        // Tombstones never appear in the expiry index (`mark_erased`
        // retires them), so nothing to undo there.  Publishing after the
        // commit means a reader holding an older snapshot resolves the id
        // to `Erased` via `erased_since` — a reclaimed id is never
        // readable.
        self.publish_locked(index);
        Ok(())
    }

    // ------------------------------------------------------------------

    fn locate(&self, data_type: &DataTypeId, id: PdId) -> Result<RecordLocation, DbfsError> {
        self.read_snapshot().locate(data_type, id)
    }

    /// Like [`Dbfs::locate`] but against an already-held index lock, so that
    /// read-modify-write operations can resolve and write atomically.
    fn locate_in(
        index: &DbfsIndex,
        data_type: &DataTypeId,
        id: PdId,
    ) -> Result<RecordLocation, DbfsError> {
        if !index.tables.contains_key(data_type) {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        }
        match index.records.get(&id) {
            Some(loc) if &loc.data_type == data_type => Ok(loc.clone()),
            _ => Err(DbfsError::UnknownPd { id: id.raw() }),
        }
    }

    fn read_stored(&self, ino: Ino) -> Result<StoredRecord, DbfsError> {
        let bytes = self.fs.read_all(ino)?;
        let (membrane, row) = stored::decode(&bytes).map_err(|_| DbfsError::Corrupt {
            what: format!("record inode {ino}"),
        })?;
        Ok(StoredRecord { membrane, row })
    }

    fn write_stored(&self, ino: Ino, stored: &StoredRecord) -> Result<(), DbfsError> {
        let bytes = stored::encode(&stored.membrane, &stored.row)?;
        self.fs.write_replace(ino, &bytes)?;
        Ok(())
    }
}

impl<D: BlockDevice> PdStore for Dbfs<D> {
    fn clock(&self) -> Arc<LogicalClock> {
        Arc::clone(&self.clock)
    }

    fn audit(&self) -> AuditLog {
        self.audit.clone()
    }

    fn stats(&self) -> DbfsStats {
        self.stats.snapshot()
    }

    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        self.attach_trace_as(ctx, &[]);
    }

    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        let mut index = self.lock_index();
        if index.tables.contains_key(schema.name()) {
            return Err(DbfsError::TypeAlreadyExists {
                name: schema.name().to_string(),
            });
        }
        // The table subtree, its schema entry and the tables-tree link are
        // created in one compound transaction: a crash never exposes a table
        // without its schema.
        let tx = self.fs.begin_tx();
        let table_ino = self.fs.alloc_inode(InodeKind::Table)?;
        self.fs
            .dir_add(index.tables_ino, schema.name().as_str(), table_ino)?;
        let schema_ino = self.fs.alloc_inode(InodeKind::Schema)?;
        let bytes = serde_json::to_vec(&schema).map_err(|_| DbfsError::Corrupt {
            what: "schema serialization".to_owned(),
        })?;
        self.fs.write_replace(schema_ino, &bytes)?;
        self.fs.dir_add(table_ino, SCHEMA_ENTRY, schema_ino)?;
        tx.commit()?;
        Arc::make_mut(&mut index.tables).insert(schema.name().clone(), table_ino);
        Arc::make_mut(&mut index.schemas).register(schema);
        self.publish_locked(&mut index);
        Ok(())
    }

    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        self.read_snapshot()
            .schemas
            .get(name)
            .cloned()
            .ok_or_else(|| DbfsError::UnknownType {
                name: name.to_string(),
            })
    }

    // Served from the published snapshot: wait-free, never touches the
    // index lock.
    fn types(&self) -> Vec<DataTypeId> {
        self.read_snapshot().tables.keys().cloned().collect()
    }

    // Served from the published snapshot, so the answer is batch-atomic:
    // a concurrent group commit is either fully counted or not at all — a
    // half-applied batch is never observed.
    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        let snapshot = self.read_snapshot();
        if !snapshot.tables.contains_key(name) {
            return Err(DbfsError::UnknownType {
                name: name.to_string(),
            });
        }
        Ok(snapshot.live_locations(snapshot.table_ids(name)).count())
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError> {
        let _timer = self.op_timer("collect");
        let now = self.clock.now();
        let schema = self.schema(data_type)?;
        let membrane = Membrane::from_schema(&schema, subject, now);
        self.store_wrapped(data_type, WrappedPd::new(row, membrane), true)
    }

    fn insert_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
    ) -> Result<PdId, DbfsError> {
        self.store_wrapped(data_type, wrapped, true)
    }

    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        let schema = self.schema(data_type)?;
        let now = self.clock.now();
        let items = rows
            .into_iter()
            .map(|(subject, row)| {
                let membrane = Membrane::from_schema(&schema, subject, now);
                (data_type.clone(), WrappedPd::new(row, membrane))
            })
            .collect();
        self.insert_many(items)
    }

    // N independent inserts are staged into one compound transaction and
    // journaled together, cutting a new group whenever the staged write set
    // would overflow `InodeFs::tx_capacity_blocks` (the crash-atomicity
    // bound).  On error, the items staged before the failing one are
    // committed first, so a crash or a failure leaves a clean prefix of
    // whole groups, never a torn record.
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let _timer = self.op_timer("insert_batch");
        let capacity = self.fs.tx_capacity_blocks();
        let mut ids = Vec::with_capacity(items.len());
        let mut committed: Vec<(PdId, SubjectId)> = Vec::new();
        let mut failure: Option<DbfsError> = None;
        {
            let mut index = self.lock_index();
            let mut group = InsertGroup::starting_at(index.next_pd);
            let mut tx = Some(self.fs.begin_tx());
            for (data_type, wrapped) in &items {
                let savepoint = self.fs.tx_savepoint();
                let mark = group.mark();
                let staged = self
                    .check_insertable(&index, &group, data_type, wrapped, true)
                    .and_then(|()| self.stage_wrapped(&index, &mut group, data_type, wrapped));
                let id = match staged {
                    Ok(id) => id,
                    Err(e) => {
                        // Unstage the partial writes of the failing record;
                        // the group staged so far commits below (prefix
                        // semantics, as if inserted sequentially).
                        self.fs.tx_rollback_to(savepoint);
                        group.rollback_to(mark, wrapped.membrane().subject());
                        failure = Some(e);
                        break;
                    }
                };
                if self.fs.tx_staged_blocks() > capacity && mark.staged_len > 0 {
                    // This record overflows the crash-atomic capacity of
                    // the open group: unstage it, commit the group, then
                    // re-stage it first into a fresh transaction.  (The
                    // identifier is stable across the re-stage: the
                    // counter rolls back and forward to the same value.)
                    self.fs.tx_rollback_to(savepoint);
                    group.rollback_to(mark, wrapped.membrane().subject());
                    if let Err(e) = tx.take().expect("open group tx").commit() {
                        failure = Some(e.into());
                        break;
                    }
                    let full = std::mem::replace(&mut group, InsertGroup::starting_at(0));
                    let before = committed.len();
                    committed.extend(self.apply_group(&mut index, full));
                    self.record_group_commit((committed.len() - before) as u64);
                    // Each group-commit cut point publishes: concurrent
                    // readers observe whole groups, never a partial batch.
                    self.publish_locked(&mut index);
                    group = InsertGroup::starting_at(index.next_pd);
                    tx = Some(self.fs.begin_tx());
                    let fresh = self.fs.tx_savepoint();
                    match self.stage_wrapped(&index, &mut group, data_type, wrapped) {
                        Ok(again) => debug_assert_eq!(again, id),
                        Err(e) => {
                            self.fs.tx_rollback_to(fresh);
                            failure = Some(e);
                            break;
                        }
                    }
                }
                ids.push(id);
            }
            // Commit whatever the last open group staged — on the happy
            // path the batch's tail, on the error path the prefix before
            // the failing item.
            if let Some(tx) = tx.take() {
                match tx.commit() {
                    Ok(()) => {
                        let before = committed.len();
                        committed.extend(self.apply_group(&mut index, group));
                        self.record_group_commit((committed.len() - before) as u64);
                        self.publish_locked(&mut index);
                    }
                    Err(e) => {
                        if failure.is_none() {
                            failure = Some(e.into());
                        }
                    }
                }
            }
        }
        self.stats.insert_batches.inc();
        self.account_inserts(&committed);
        match failure {
            None => Ok(ids),
            Some(e) => Err(e),
        }
    }

    // The row replacements share compound transactions, cut at the
    // journal-capacity bound like `insert_many`.
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        if updates.is_empty() {
            return Ok(());
        }
        let schema = self.schema(data_type)?;
        for (_, row) in &updates {
            schema.validate_row(row)?;
        }
        let capacity = self.fs.tx_capacity_blocks();
        let mut committed: Vec<(PdId, SubjectId)> = Vec::new();
        let mut failure: Option<DbfsError> = None;
        {
            // Held across the whole batch, like the per-record path: no
            // erasure or membrane change can interleave with the staged
            // read-modify-writes.
            let index = self.lock_index();
            let mut tx = Some(self.fs.begin_tx());
            let mut group: Vec<(PdId, SubjectId)> = Vec::new();
            for (id, row) in &updates {
                let savepoint = self.fs.tx_savepoint();
                let staged = Self::locate_in(&index, data_type, *id).and_then(|location| {
                    if location.erased {
                        return Err(DbfsError::Erased { id: id.raw() });
                    }
                    let mut stored = self.read_stored(location.ino)?;
                    stored.row = row.clone();
                    self.write_stored(location.ino, &stored)?;
                    Ok(location.subject)
                });
                let subject = match staged {
                    Ok(subject) => subject,
                    Err(e) => {
                        self.fs.tx_rollback_to(savepoint);
                        failure = Some(e);
                        break;
                    }
                };
                if self.fs.tx_staged_blocks() > capacity && !group.is_empty() {
                    // Overflow: unstage this update, commit the group so
                    // far, re-stage into a fresh transaction.
                    self.fs.tx_rollback_to(savepoint);
                    if let Err(e) = tx.take().expect("open group tx").commit() {
                        failure = Some(e.into());
                        break;
                    }
                    committed.append(&mut group);
                    tx = Some(self.fs.begin_tx());
                    let fresh = self.fs.tx_savepoint();
                    let restaged = Self::locate_in(&index, data_type, *id).and_then(|location| {
                        let mut stored = self.read_stored(location.ino)?;
                        stored.row = row.clone();
                        self.write_stored(location.ino, &stored)
                    });
                    if let Err(e) = restaged {
                        self.fs.tx_rollback_to(fresh);
                        failure = Some(e);
                        break;
                    }
                }
                group.push((*id, subject));
            }
            if let Some(tx) = tx.take() {
                match tx.commit() {
                    Ok(()) => committed.append(&mut group),
                    Err(e) => {
                        if failure.is_none() {
                            failure = Some(e.into());
                        }
                    }
                }
            }
        }
        for (id, subject) in &committed {
            self.stats.updates.inc();
            self.audit.record(
                self.clock.now(),
                Some(*subject),
                AuditEventKind::Updated { pd: *id },
            );
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    // The block location is resolved from the published snapshot and the
    // device is read with no lock held.  Because a crypto-erase can commit
    // concurrently (scrubbing — and possibly reusing — the very blocks this
    // read targets), the record's tombstone state is re-validated against
    // the current snapshot after the device read: a record erased since the
    // snapshot was cut returns `Erased` instead of stale or reused payload
    // bytes.
    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError> {
        let _timer = self.op_timer("get");
        self.stats.reads.inc();
        let snapshot = self.read_snapshot();
        let location = snapshot.locate(data_type, id)?;
        let stored = self.read_stored(location.ino);
        if !location.erased && self.erased_since(&snapshot, id) {
            return Err(DbfsError::Erased { id: id.raw() });
        }
        let stored = stored?;
        Ok(PdRecord::new(
            id,
            data_type.clone(),
            WrappedPd::new(stored.row, stored.membrane),
        ))
    }

    // Fetches only the membranes of a table, so consent filtering can
    // happen before any personal data is read (data minimisation inside the
    // OS itself).
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let snapshot = self.read_snapshot();
        if !snapshot.tables.contains_key(data_type) {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        }
        let locations: Vec<(PdId, Ino)> = snapshot
            .table_ids(data_type)
            .filter_map(|id| snapshot.records.get(&id).map(|loc| (id, loc.ino)))
            .collect();
        self.read_membranes(&snapshot, locations)
    }

    // Resolved through the subject index, not a table scan.
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        let snapshot = self.read_snapshot();
        if !snapshot.tables.contains_key(data_type) {
            return Err(DbfsError::UnknownType {
                name: data_type.to_string(),
            });
        }
        let locations: Vec<(PdId, Ino)> = snapshot
            .subject_ids(subject)
            .filter_map(|id| snapshot.records.get(&id).map(|loc| (id, loc)))
            .filter(|(_, loc)| &loc.data_type == data_type)
            .map(|(id, loc)| (id, loc.ino))
            .collect();
        self.read_membranes(&snapshot, locations)
    }

    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        let _timer = self.op_timer("load_membrane");
        let snapshot = self.read_snapshot();
        let location = snapshot.locate(data_type, id)?;
        self.stats.membrane_loads.inc();
        self.read_membrane_checked(&snapshot, id, location.ino)
    }

    // Locations resolve from one published snapshot and the device reads
    // run with no lock held; each record that was live in that snapshot is
    // re-validated afterwards so a concurrent crypto-erase can never leak
    // its scrubbed (or reused) payload blocks.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        let snapshot = self.read_snapshot();
        let locations: Vec<(PdId, Ino, bool)> = ids
            .iter()
            .map(|&id| match snapshot.records.get(&id) {
                Some(loc) if &loc.data_type == data_type => Ok((id, loc.ino, loc.erased)),
                _ => Err(DbfsError::UnknownPd { id: id.raw() }),
            })
            .collect::<Result<_, _>>()?;
        let mut batch = RecordBatch::new();
        for (id, ino, was_erased) in locations {
            self.stats.reads.inc();
            let stored = self.read_stored(ino);
            if !was_erased && self.erased_since(&snapshot, id) {
                return Err(DbfsError::Erased { id: id.raw() });
            }
            let stored = stored?;
            batch.push(PdRecord::new(
                id,
                data_type.clone(),
                WrappedPd::new(stored.row, stored.membrane),
            ));
        }
        Ok(batch)
    }

    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError> {
        let _timer = self.op_timer("update");
        let schema = self.schema(data_type)?;
        schema.validate_row(&row)?;
        // The read-modify-write runs atomically under the index lock, so a
        // concurrent membrane change (consent withdrawal, TTL change) or
        // erasure can never be reverted by this row update.
        let location = {
            let index = self.lock_index();
            let location = Self::locate_in(&index, data_type, id)?;
            if location.erased {
                return Err(DbfsError::Erased { id: id.raw() });
            }
            let mut stored = self.read_stored(location.ino)?;
            stored.row = row;
            let tx = self.fs.begin_tx();
            self.write_stored(location.ino, &stored)?;
            tx.commit()?;
            location
        };
        self.stats.updates.inc();
        self.audit.record(
            self.clock.now(),
            Some(location.subject),
            AuditEventKind::Updated { pd: id },
        );
        Ok(())
    }

    // Concurrent deltas to the same record are last-writer-wins; the expiry
    // index may briefly trail the membrane on disk, but the retention sweep
    // re-verifies every candidate against its on-disk header before erasing
    // (and a remount rebuilds the index from disk).  An erasure racing this
    // call always wins: the stale pre-erasure membrane is never written
    // over the tombstone.
    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        // Atomic read-modify-write under the index lock, mirroring
        // `update_row`: a racing erasure or row update is never clobbered.
        // Only the membrane header is deserialized and re-encoded; the row
        // payload bytes are carried over untouched.
        let (location, applied) = {
            let mut index = self.lock_index();
            let location = Self::locate_in(&index, data_type, id)?;
            let bytes = self.fs.read_all(location.ino)?;
            let mut membrane = stored::membrane_of(&bytes).map_err(|_| DbfsError::Corrupt {
                what: format!("record inode {}", location.ino),
            })?;
            let applied = membrane.apply(delta);
            if applied {
                let spliced = stored::replace_membrane(&bytes, &membrane)?;
                let tx = self.fs.begin_tx();
                self.fs.write_replace(location.ino, &spliced)?;
                tx.commit()?;
                if matches!(delta, MembraneDelta::SetTimeToLive { .. }) {
                    index.set_expiry(id, membrane.expiry_instant());
                    self.publish_locked(&mut index);
                }
            }
            (location, applied)
        };
        if applied {
            let purpose = match delta {
                MembraneDelta::Grant { purpose, .. } | MembraneDelta::Withdraw { purpose } => {
                    purpose.clone()
                }
                MembraneDelta::SetTimeToLive { .. } => "retention".into(),
            };
            self.audit.record(
                self.clock.now(),
                Some(location.subject),
                AuditEventKind::ConsentChanged { pd: id, purpose },
            );
        }
        Ok(applied)
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        let _timer = self.op_timer("copy");
        // The source resolves from the published snapshot, so an erasure can
        // commit between this read and the insert below.  That race is closed
        // by `check_insertable`, which re-walks the copy's lineage under the
        // index lock and refuses a live copy of an erased ancestor.
        let location = self.locate(data_type, id)?;
        if location.erased {
            return Err(DbfsError::Erased { id: id.raw() });
        }
        let stored = self.read_stored(location.ino)?;
        let copy_membrane = stored.membrane.for_copy(id);
        let new_id =
            self.store_wrapped(data_type, WrappedPd::new(stored.row, copy_membrane), true)?;
        self.stats.copies.inc();
        self.audit.record(
            self.clock.now(),
            Some(location.subject),
            AuditEventKind::Copied {
                from: id,
                to: new_id,
            },
        );
        Ok(new_id)
    }

    // The right to be forgotten (§4): the record's payload is encrypted
    // under the authority's public key and the membrane is marked erased.
    // The lineage closure comes from the reverse copy-lineage index without
    // any disk scan, and the whole cascade is one compound transaction: a
    // crash at any write index either tombstones the record and every copy,
    // or none of them.  A copy can therefore never outlive its erased
    // original across a power loss.  Already-erased items are not listed in
    // the result.
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _timer = self.op_timer("erase");
        let done = {
            let mut index = self.lock_index();
            let root = Self::locate_in(&index, data_type, id)?;
            // Snapshot the lineage closure from the index — a pure in-memory
            // walk, so no disk I/O happens before the write set is known.
            let mut targets: Vec<(DataTypeId, PdId)> = Vec::new();
            if !root.erased {
                targets.push((data_type.clone(), id));
            }
            targets.extend(
                index
                    .live_locations(index.lineage_closure(id).into_iter())
                    .map(|(copy, loc)| (loc.data_type.clone(), copy)),
            );
            if targets.is_empty() {
                return Ok(Vec::new());
            }
            self.erase_targets_locked(&mut index, &targets, escrow)?
        };
        self.audit_erasures(&done);
        Ok(done.into_iter().map(|(erased_id, _)| erased_id).collect())
    }

    // One compound transaction.  Copies carry their original's subject, so
    // the lineage closure stays within the subject's id set.
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        let _timer = self.op_timer("erase_subject");
        let done = {
            let mut index = self.lock_index();
            let roots: Vec<(DataTypeId, PdId)> = index
                .live_locations(index.subject_ids(subject))
                .map(|(id, loc)| (loc.data_type.clone(), id))
                .collect();
            let mut seen: BTreeSet<PdId> = roots.iter().map(|(_, id)| *id).collect();
            let mut closure: Vec<(DataTypeId, PdId)> = Vec::new();
            for (_, root) in &roots {
                for (copy, loc) in index.live_locations(index.lineage_closure(*root).into_iter()) {
                    if seen.insert(copy) {
                        closure.push((loc.data_type.clone(), copy));
                    }
                }
            }
            let mut targets = roots;
            targets.extend(closure);
            if targets.is_empty() {
                return Ok(Vec::new());
            }
            self.erase_targets_locked(&mut index, &targets, escrow)?
        };
        self.audit_erasures(&done);
        Ok(done.into_iter().map(|(erased_id, _)| erased_id).collect())
    }

    // The candidates come from the expiry index, so the sweep only ever
    // visits records that actually expired — unexpired and unbounded-TTL
    // records cost nothing, in memory or on disk.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        let _timer = self.op_timer("purge_expired");
        let now = self.clock.now();
        let candidates: Vec<(DataTypeId, PdId, SubjectId)> = {
            let index = self.lock_index();
            index
                .live_locations(
                    index
                        .by_expiry
                        .range(..now)
                        .flat_map(|(_, ids)| ids.iter().copied()),
                )
                .map(|(id, loc)| (loc.data_type.clone(), id, loc.subject))
                .collect()
        };
        let mut expired = Vec::new();
        let mut swept: BTreeSet<PdId> = BTreeSet::new();
        for (data_type, id, subject) in candidates {
            let reached_earlier = swept.contains(&id);
            if !reached_earlier {
                // Re-verify against the on-disk membrane header before
                // erasing: a TTL change racing the sweep must never erase a
                // record whose membrane no longer allows it.  The read and
                // the heal happen under one lock acquisition so the heal
                // cannot clobber a concurrent TTL change.
                let still_expired = {
                    let mut index = self.lock_index();
                    // Tombstoned by someone else (a concurrent sweep or an
                    // Art. 17 request) since the snapshot — not this sweep's
                    // expiry to report.
                    match index
                        .records
                        .get(&id)
                        .filter(|loc| !loc.erased)
                        .map(|loc| loc.ino)
                    {
                        None => false,
                        Some(ino) => {
                            let membrane = read_membrane_from(&self.fs, ino)?;
                            if membrane.is_expired(now) {
                                true
                            } else {
                                // Heal the stale expiry entry the race left.
                                index.set_expiry(id, membrane.expiry_instant());
                                self.publish_locked(&mut index);
                                false
                            }
                        }
                    }
                };
                if !still_expired {
                    continue;
                }
                swept.extend(self.erase(&data_type, id, escrow)?);
            }
            // Reported when erased by this iteration, or earlier in this
            // sweep as the expired copy of another expired record.
            if reached_earlier || swept.contains(&id) {
                self.stats.expirations.inc();
                self.audit
                    .record(now, Some(subject), AuditEventKind::Expired { pd: id });
                expired.push(id);
            }
        }
        Ok(expired)
    }

    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        let snapshot = self.read_snapshot();
        let locations: Vec<(PdId, RecordLocation)> = snapshot
            .live_locations(snapshot.subject_ids(subject))
            .map(|(id, loc)| (id, loc.clone()))
            .collect();
        let mut out = Vec::with_capacity(locations.len());
        for (id, loc) in locations {
            let stored = self.read_stored(loc.ino);
            if self.erased_since(&snapshot, id) {
                // Tombstoned since the snapshot was cut: the right of access
                // must not return the (scrubbed or reused) payload blocks.
                continue;
            }
            let stored = stored?;
            out.push(PdRecord::new(
                id,
                loc.data_type,
                WrappedPd::new(stored.row, stored.membrane),
            ));
        }
        Ok(out)
    }

    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        let _timer = self.op_timer("query");
        self.stats.queries.inc();
        let schema = self.schema(&request.data_type)?;
        let view = match &request.view {
            Some(view_name) => Some(schema.view(view_name).cloned().ok_or(
                rgpdos_core::CoreError::NotFound {
                    what: format!("view `{view_name}`"),
                },
            )?),
            None => None,
        };
        // Candidates resolve from one published snapshot, so the result is
        // batch-atomic; the device reads below run with no lock held.
        let snapshot = self.read_snapshot();
        let locations: Vec<(PdId, RecordLocation)> = {
            // Narrow the candidate set through the secondary indexes before
            // touching the disk: seed it from the most selective source —
            // an explicit id-list conjunct, then a subject conjunct, then
            // the table index — so point and per-subject queries cost
            // O(result), not O(table).
            let mut subjects = Vec::new();
            let mut id_sets = Vec::new();
            request
                .predicate
                .conjunctive_hints(&mut subjects, &mut id_sets);
            static EMPTY: BTreeSet<PdId> = BTreeSet::new();
            let candidates: Box<dyn Iterator<Item = PdId> + '_> =
                if let Some(smallest) = id_sets.iter().copied().min_by_key(|ids| ids.len()) {
                    Box::new(smallest.iter().copied())
                } else if !subjects.is_empty() {
                    let smallest = subjects
                        .iter()
                        .map(|s| snapshot.by_subject.get(s))
                        .min_by_key(|set| set.map_or(0, BTreeSet::len))
                        .flatten()
                        .unwrap_or(&EMPTY);
                    Box::new(smallest.iter().copied())
                } else {
                    Box::new(snapshot.table_ids(&request.data_type))
                };
            candidates
                .filter_map(|id| snapshot.records.get(&id).map(|loc| (id, loc)))
                .filter(|(_, loc)| loc.data_type == request.data_type)
                .filter(|(_, loc)| subjects.iter().all(|s| loc.subject == *s))
                .filter(|(id, _)| id_sets.iter().all(|ids| ids.contains(id)))
                .filter(|(_, loc)| !(request.skip_erased && loc.erased))
                .map(|(id, loc)| (id, loc.clone()))
                .collect()
        };
        let mut batch = RecordBatch::new();
        for (id, loc) in locations {
            let mut stored = self.read_stored(loc.ino);
            if !loc.erased && self.erased_since(&snapshot, id) {
                // Tombstoned since the snapshot was cut: the payload bytes
                // just read may be the scrubbed (or reused) blocks.
                if request.skip_erased {
                    continue;
                }
                // The tombstone image was durable before the erasure
                // published, so one retry reads the committed erased record.
                stored = self.read_stored(loc.ino);
            }
            let stored = stored?;
            if !request.predicate.matches(id, loc.subject, &stored.row) {
                continue;
            }
            let row = match &view {
                Some(v) => v.apply(&stored.row),
                None => stored.row,
            };
            batch.push(PdRecord::new(
                id,
                request.data_type.clone(),
                WrappedPd::new(row, stored.membrane),
            ));
        }
        Ok(batch)
    }

    // Live versus tombstone bytes come from the record inodes' on-disk
    // sizes, blocks from the device's allocation count; the call also
    // refreshes the `space_amplification` gauge.  Sizes resolve against the
    // published snapshot with no index lock held; a record reclaimed
    // concurrently is simply skipped.
    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        let snapshot = self.read_snapshot();
        let mut stats = SpaceStats::default();
        for loc in snapshot.records.values() {
            let bytes = match self.fs.stat(loc.ino) {
                Ok(inode) => inode.size,
                // Reclaimed between the snapshot and this stat.
                Err(rgpdos_inode::InodeError::BadInode { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            if loc.erased {
                stats.tombstone_records += 1;
                stats.tombstone_bytes += bytes;
            } else {
                stats.live_records += 1;
                stats.live_bytes += bytes;
            }
        }
        stats.allocated_blocks = self.fs.allocated_blocks();
        self.space
            .set_amplification_x100(stats.amplification_x100());
        Ok(stats)
    }

    // No extra retention policy: children before parents (see
    // `Dbfs::scrub_tombstones_with`).
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        self.scrub_tombstones_with(|_| true)
    }

    // Checks the secondary indexes against the primary record map and the
    // membrane headers on disk.  Expects a quiescent store: the disk
    // comparison runs against an index snapshot, so a writer racing this
    // call can make the two transiently disagree and produce a false
    // corruption report.
    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        let (records, by_table, by_subject, copies_of, by_expiry) = {
            let index = self.lock_index();
            (
                index.records.clone(),
                index.by_table.clone(),
                index.by_subject.clone(),
                index.copies_of.clone(),
                index.by_expiry.clone(),
            )
        };
        let violation = |what: String| DbfsError::Corrupt { what };
        // Every record is present in exactly the right secondary entries.
        for (id, loc) in records.iter() {
            if !by_table
                .get(&loc.data_type)
                .is_some_and(|ids| ids.contains(id))
            {
                return Err(violation(format!("{id} missing from table index")));
            }
            if !by_subject
                .get(&loc.subject)
                .is_some_and(|ids| ids.contains(id))
            {
                return Err(violation(format!("{id} missing from subject index")));
            }
            if let Some(original) = loc.copied_from {
                if !copies_of.get(&original).is_some_and(|ids| ids.contains(id)) {
                    return Err(violation(format!("{id} missing from lineage index")));
                }
            }
            if let Some(at) = loc.expires_at {
                if loc.erased {
                    return Err(violation(format!("tombstone {id} still carries an expiry")));
                }
                if !by_expiry.get(&at).is_some_and(|ids| ids.contains(id)) {
                    return Err(violation(format!("{id} missing from expiry index")));
                }
            }
        }
        // No secondary entry points at a missing or mismatched record.
        for (data_type, ids) in by_table.iter() {
            for id in ids {
                if records.get(id).map(|loc| &loc.data_type) != Some(data_type) {
                    return Err(violation(format!("table index points {id} at {data_type}")));
                }
            }
        }
        for (subject, ids) in by_subject.iter() {
            for id in ids {
                if records.get(id).map(|loc| loc.subject) != Some(*subject) {
                    return Err(violation(format!("subject index points {id} at {subject}")));
                }
            }
        }
        for (original, ids) in &copies_of {
            for id in ids {
                if records.get(id).and_then(|loc| loc.copied_from) != Some(*original) {
                    return Err(violation(format!(
                        "lineage index points {id} at {original}"
                    )));
                }
            }
        }
        for (at, ids) in by_expiry.iter() {
            for id in ids {
                let Some(loc) = records.get(id) else {
                    return Err(violation(format!("expiry index holds unknown {id}")));
                };
                if loc.erased || loc.expires_at != Some(*at) {
                    return Err(violation(format!("expiry index mis-keys {id}")));
                }
            }
        }
        // The indexed locations agree with the membrane headers on disk.
        for (id, loc) in records.iter() {
            let membrane = read_membrane_from(&self.fs, loc.ino)?;
            if membrane.subject() != loc.subject
                || membrane.is_erased() != loc.erased
                || membrane.copied_from() != loc.copied_from
            {
                return Err(violation(format!(
                    "{id} disagrees with its on-disk membrane"
                )));
            }
            if membrane.expiry_instant() != loc.expires_at {
                return Err(violation(format!(
                    "{id} expiry disagrees with its membrane"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_blockdev::{scan_for_pattern, MemDevice};
    use rgpdos_core::schema::listing1_user_schema;
    use rgpdos_core::{AccessDecision, ConsentDecision, Duration, PurposeId};
    use rgpdos_crypto::escrow::Authority;
    use rgpdos_dsl::compile_type_declarations;

    fn dbfs() -> Dbfs<Arc<MemDevice>> {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(device, DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        dbfs
    }

    fn user_row(name: &str, year: i64) -> Row {
        Row::new()
            .with("name", name)
            .with("pwd", "hunter2")
            .with("year_of_birthdate", year)
    }

    #[test]
    fn collect_many_group_commits_and_matches_sequential_results() {
        let batched = dbfs();
        let sequential = dbfs();
        let rows: Vec<(SubjectId, Row)> = (0..40u64)
            .map(|i| {
                (
                    SubjectId::new(i % 7),
                    user_row(&format!("u{i}"), 1950 + i as i64),
                )
            })
            .collect();

        let ids = batched.collect_many(&"user".into(), rows.clone()).unwrap();
        let mut seq_ids = Vec::new();
        for (subject, row) in rows {
            seq_ids.push(sequential.collect(&"user".into(), subject, row).unwrap());
        }
        // Same identifiers, same visible records, same index state.
        assert_eq!(ids, seq_ids);
        assert_eq!(batched.count(&"user".into()).unwrap(), 40);
        for &id in &ids {
            let a = batched.get(&"user".into(), id).unwrap();
            let b = sequential.get(&"user".into(), id).unwrap();
            assert_eq!(a.row(), b.row());
            assert_eq!(a.subject(), b.subject());
        }
        batched.verify_index_invariants().unwrap();

        // The point of group commit: far fewer journal transactions than
        // one per record.
        let grouped_txs = batched.inode_fs().journal_txs();
        let per_op_txs = sequential.inode_fs().journal_txs();
        assert!(
            grouped_txs * 3 <= per_op_txs,
            "group commit must coalesce journal transactions: {grouped_txs} vs {per_op_txs}"
        );
        let stats = batched.stats();
        assert_eq!(stats.collects, 40);
        assert_eq!(stats.insert_batches, 1);
        assert_eq!(
            batched.audit().snapshot().len(),
            sequential.audit().snapshot().len()
        );
    }

    #[test]
    fn insert_many_cuts_groups_at_the_capacity_bound() {
        // A small journal forces several groups; every record must still
        // land intact and the store must stay consistent.
        let device = Arc::new(MemDevice::new(8192, 512));
        let mut params = DbfsParams::small();
        params.inode_params.journal_blocks = 16;
        let dbfs = Dbfs::format(device, params).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let items: Vec<(DataTypeId, WrappedPd)> = (0..30u64)
            .map(|i| {
                let membrane = Membrane::from_schema(
                    &listing1_user_schema(),
                    SubjectId::new(i % 5),
                    dbfs.clock().now(),
                );
                (
                    DataTypeId::from("user"),
                    WrappedPd::new(user_row(&format!("g{i}"), 1960), membrane),
                )
            })
            .collect();
        let ids = dbfs.insert_many(items).unwrap();
        assert_eq!(ids.len(), 30);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 30);
        assert!(
            dbfs.inode_fs().journal_txs() > 1,
            "a 30-record batch cannot fit one 16-block journal transaction"
        );
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn batch_errors_apply_a_clean_prefix() {
        let dbfs = dbfs();
        let rows = vec![
            (SubjectId::new(1), user_row("ok-1", 1980)),
            (SubjectId::new(2), user_row("ok-2", 1981)),
            (SubjectId::new(3), Row::new().with("name", "missing fields")),
            (SubjectId::new(4), user_row("never", 1983)),
        ];
        assert!(matches!(
            dbfs.collect_many(&"user".into(), rows),
            Err(DbfsError::Core(_))
        ));
        // The two valid rows before the failure are applied, nothing after.
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        assert_eq!(dbfs.stats().collects, 2);
        dbfs.verify_index_invariants().unwrap();
        // The id counter continues cleanly for later inserts.
        let next = dbfs
            .collect(&"user".into(), SubjectId::new(9), user_row("after", 1990))
            .unwrap();
        assert_eq!(next.raw(), 2);
    }

    #[test]
    fn update_rows_batches_and_refuses_tombstones() {
        let dbfs = dbfs();
        let authority = Authority::generate(5);
        let escrow = OperatorEscrow::new(authority.public_key());
        let ids = dbfs
            .collect_many(
                &"user".into(),
                (0..10u64)
                    .map(|i| (SubjectId::new(i), user_row(&format!("v{i}"), 1970)))
                    .collect(),
            )
            .unwrap();
        let before_txs = dbfs.inode_fs().journal_txs();
        dbfs.update_rows(
            &"user".into(),
            ids.iter()
                .map(|&id| (id, user_row("updated", 2000)))
                .collect(),
        )
        .unwrap();
        let grouped = dbfs.inode_fs().journal_txs() - before_txs;
        assert!(grouped < 10, "updates must coalesce: {grouped} txs for 10");
        for &id in &ids {
            assert_eq!(
                dbfs.get(&"user".into(), id)
                    .unwrap()
                    .row()
                    .get("name")
                    .unwrap()
                    .as_text(),
                Some("updated")
            );
        }
        assert_eq!(dbfs.stats().updates, 10);
        // A tombstone mid-batch: prefix applied, error surfaced.
        dbfs.erase(&"user".into(), ids[1], &escrow).unwrap();
        let result = dbfs.update_rows(
            &"user".into(),
            vec![
                (ids[0], user_row("second-pass", 2001)),
                (ids[1], user_row("never", 2001)),
                (ids[2], user_row("never", 2001)),
            ],
        );
        assert!(matches!(result, Err(DbfsError::Erased { .. })));
        assert_eq!(
            dbfs.get(&"user".into(), ids[0])
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("second-pass")
        );
        assert_eq!(
            dbfs.get(&"user".into(), ids[2])
                .unwrap()
                .row()
                .get("name")
                .unwrap()
                .as_text(),
            Some("updated")
        );
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn erasure_leaves_no_plaintext_in_the_buffer_cache() {
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(1),
                user_row("CACHE-RESIDUE-CANARY-77", 1990),
            )
            .unwrap();
        // Warm the cache with the plaintext record.
        let _ = dbfs.get(&"user".into(), id).unwrap();
        assert!(dbfs.inode_fs().cache_contains(b"CACHE-RESIDUE-CANARY-77"));
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        assert!(
            !dbfs.inode_fs().cache_contains(b"CACHE-RESIDUE-CANARY-77"),
            "crypto-erasure must replace the cached plaintext"
        );
    }

    #[test]
    fn create_type_and_collect() {
        let dbfs = dbfs();
        assert_eq!(dbfs.types(), vec![DataTypeId::from("user")]);
        assert!(matches!(
            dbfs.create_type(listing1_user_schema()),
            Err(DbfsError::TypeAlreadyExists { .. })
        ));
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Chiraz", 1990))
            .unwrap();
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(record.subject(), SubjectId::new(1));
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("Chiraz"));
        assert!(!record.membrane().is_erased());
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 1);
        assert_eq!(dbfs.subjects(), vec![SubjectId::new(1)]);
        assert_eq!(dbfs.stats().collects, 1);
    }

    #[test]
    fn every_stored_record_has_a_membrane() {
        // Enforcement rule (3): there is no DBFS API that stores a row
        // without a membrane; `collect` derives it from the schema and
        // `insert_wrapped` takes a WrappedPd which cannot be built without one.
        let dbfs = dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(4), user_row("Anyone", 1980))
            .unwrap();
        for (pd, membrane) in dbfs.load_membranes(&"user".into()).unwrap() {
            assert_eq!(pd, id);
            assert_eq!(membrane.subject(), SubjectId::new(4));
        }
    }

    #[test]
    fn collect_validates_against_schema() {
        let dbfs = dbfs();
        let bad = Row::new().with("name", "X");
        assert!(matches!(
            dbfs.collect(&"user".into(), SubjectId::new(1), bad),
            Err(DbfsError::Core(_))
        ));
        assert!(matches!(
            dbfs.collect(&"ghost".into(), SubjectId::new(1), user_row("X", 1990)),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn update_and_membrane_delta() {
        let dbfs = dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Old", 1970))
            .unwrap();
        dbfs.update_row(&"user".into(), id, user_row("New", 1970))
            .unwrap();
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("New"));
        assert!(matches!(
            dbfs.update_row(&"user".into(), id, Row::new().with("name", 3i64)),
            Err(DbfsError::Core(_))
        ));

        // Grant then withdraw a consent through a membrane delta.
        assert!(dbfs
            .apply_membrane_delta(
                &"user".into(),
                id,
                &MembraneDelta::Grant {
                    purpose: PurposeId::from("newsletter"),
                    decision: ConsentDecision::All,
                },
            )
            .unwrap());
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.membrane().permits(&PurposeId::from("newsletter")),
            AccessDecision::Full
        );
        assert!(dbfs
            .apply_membrane_delta(
                &"user".into(),
                id,
                &MembraneDelta::Withdraw {
                    purpose: PurposeId::from("newsletter"),
                },
            )
            .unwrap());
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.membrane().permits(&PurposeId::from("newsletter")),
            AccessDecision::Denied
        );
        assert_eq!(dbfs.stats().updates, 1);
    }

    #[test]
    fn copy_preserves_membrane_and_erasure_reaches_copies() {
        let dbfs = dbfs();
        let authority = Authority::generate(9);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(3), user_row("Copied", 1985))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), id).unwrap();
        let copy_record = dbfs.get(&"user".into(), copy).unwrap();
        assert_eq!(copy_record.membrane().copied_from(), Some(id));
        assert_eq!(copy_record.subject(), SubjectId::new(3));
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);

        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // Both the original and its copy are erased.
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());
        assert!(dbfs
            .get(&"user".into(), copy)
            .unwrap()
            .membrane()
            .is_erased());
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        assert!(matches!(
            dbfs.copy(&"user".into(), id),
            Err(DbfsError::Erased { .. })
        ));
        assert!(matches!(
            dbfs.update_row(&"user".into(), id, user_row("X", 1985)),
            Err(DbfsError::Erased { .. })
        ));
        assert_eq!(dbfs.stats().erasures, 2);
    }

    #[test]
    fn erasure_reaches_transitive_copies() {
        // Regression test for the lineage bug: a copy-of-a-copy must not
        // survive the erasure of the chain's original (GDPR art. 17).
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let original = dbfs
            .collect(&"user".into(), SubjectId::new(6), user_row("Chain", 1988))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), original).unwrap();
        let copy_of_copy = dbfs.copy(&"user".into(), copy).unwrap();
        assert_eq!(
            dbfs.get(&"user".into(), copy_of_copy)
                .unwrap()
                .membrane()
                .copied_from(),
            Some(copy),
            "the second hop's lineage points at the first copy, not the original"
        );

        dbfs.erase(&"user".into(), original, &escrow).unwrap();
        for id in [original, copy, copy_of_copy] {
            assert!(
                dbfs.get(&"user".into(), id).unwrap().membrane().is_erased(),
                "pd-{} survived a lineage erasure",
                id.raw()
            );
        }
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        assert_eq!(dbfs.stats().erasures, 3);
        // Every hop's erasure is individually audited.
        assert_eq!(
            dbfs.audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::Erased { .. })),
            3
        );
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn live_copies_of_erased_originals_cannot_be_inserted() {
        // The storage-level half of the copy/erase race: once an original
        // is tombstoned, inserting a live record whose lineage points at it
        // is refused, so no plaintext copy can slip past an erasure.
        let dbfs = dbfs();
        let authority = Authority::generate(21);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Gone", 1970))
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        let membrane = Membrane::from_schema(
            &listing1_user_schema(),
            SubjectId::new(2),
            dbfs.clock().now(),
        )
        .for_copy(id);
        assert!(matches!(
            dbfs.insert_wrapped(
                &"user".into(),
                WrappedPd::new(user_row("Gone", 1970), membrane),
            ),
            Err(DbfsError::Erased { .. })
        ));
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 0);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn legacy_v1_images_migrate_on_mount() {
        let device = Arc::new(MemDevice::new(8192, 512));
        // Hand-build a format-v1 image: bare-counter metadata and
        // single-section JSON records.
        {
            let fs = InodeFs::format(
                Arc::clone(&device),
                FormatParams::small()
                    .with_inode_count(512)
                    .with_secure_free(true),
                JournalMode::Scrub,
            )
            .unwrap();
            let tables_ino = fs.alloc_inode(InodeKind::Directory).unwrap();
            fs.dir_add(ROOT_INO, TABLES_DIR, tables_ino).unwrap();
            let subjects_ino = fs.alloc_inode(InodeKind::Directory).unwrap();
            fs.dir_add(ROOT_INO, SUBJECTS_DIR, subjects_ino).unwrap();
            let meta_ino = fs.alloc_inode(InodeKind::File).unwrap();
            fs.dir_add(ROOT_INO, META_ENTRY, meta_ino).unwrap();
            fs.write_replace(meta_ino, &1u64.to_le_bytes()).unwrap();
            let table_ino = fs.alloc_inode(InodeKind::Table).unwrap();
            fs.dir_add(tables_ino, "user", table_ino).unwrap();
            let schema_ino = fs.alloc_inode(InodeKind::Schema).unwrap();
            fs.write_replace(
                schema_ino,
                &serde_json::to_vec(&listing1_user_schema()).unwrap(),
            )
            .unwrap();
            fs.dir_add(table_ino, SCHEMA_ENTRY, schema_ino).unwrap();

            #[derive(serde::Serialize)]
            struct V1 {
                membrane: Membrane,
                row: Row,
            }
            let legacy = V1 {
                membrane: Membrane::from_schema(
                    &listing1_user_schema(),
                    SubjectId::new(9),
                    rgpdos_core::Timestamp::ZERO,
                ),
                row: user_row("Legacy", 1975),
            };
            let record_ino = fs.alloc_inode(InodeKind::Record).unwrap();
            fs.write_replace(record_ino, &serde_json::to_vec(&legacy).unwrap())
                .unwrap();
            fs.dir_add(table_ino, "pd-0", record_ino).unwrap();
            let subject_ino = fs.alloc_inode(InodeKind::SubjectRoot).unwrap();
            fs.dir_add(subjects_ino, "subject-9", subject_ino).unwrap();
            fs.dir_add(subject_ino, "user#pd-0", record_ino).unwrap();

            // A second record already in the *split* layout while the
            // metadata still says v1 — the image a crash mid-migration
            // leaves behind.  The migration must stay idempotent.
            let membrane = Membrane::from_schema(
                &listing1_user_schema(),
                SubjectId::new(9),
                rgpdos_core::Timestamp::ZERO,
            );
            let row = user_row("Partial", 1980);
            let record2_ino = fs.alloc_inode(InodeKind::Record).unwrap();
            fs.write_replace(record2_ino, &stored::encode(&membrane, &row).unwrap())
                .unwrap();
            fs.dir_add(table_ino, "pd-1", record2_ino).unwrap();
            fs.dir_add(subject_ino, "user#pd-1", record2_ino).unwrap();
            fs.write_replace(meta_ino, &2u64.to_le_bytes()).unwrap();
        }

        // Mounting migrates the records to the split layout and stamps v2.
        let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
        let record = dbfs.get(&"user".into(), PdId::new(0)).unwrap();
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("Legacy"));
        assert_eq!(record.subject(), SubjectId::new(9));
        let record = dbfs.get(&"user".into(), PdId::new(1)).unwrap();
        assert_eq!(record.row().get("name").unwrap().as_text(), Some("Partial"));
        dbfs.verify_index_invariants().unwrap();
        drop(dbfs);

        // A second mount takes the v2 header-only path and keeps working.
        let dbfs = Dbfs::mount(device).unwrap();
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(9), user_row("New", 2000))
            .unwrap();
        assert_eq!(id, PdId::new(2));
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn load_membranes_reads_headers_not_payloads() {
        use rgpdos_blockdev::{InstrumentedDevice, LatencyModel};
        let device = Arc::new(InstrumentedDevice::new(
            MemDevice::new(16_384, 512),
            LatencyModel::nvme(),
        ));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        // A fat payload spanning many blocks, so header-only reads are
        // visibly cheaper than full-record reads.
        let blob = "x".repeat(8 * 512);
        for i in 0..4u64 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(i),
                Row::new()
                    .with("name", blob.as_str())
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1990i64),
            )
            .unwrap();
        }
        device.reset_stats();
        let membranes = dbfs.load_membranes(&"user".into()).unwrap();
        assert_eq!(membranes.len(), 4);
        let header_reads = device.stats().reads;
        device.reset_stats();
        let batch = dbfs
            .load_records(
                &"user".into(),
                &membranes.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(batch.len(), 4);
        let full_reads = device.stats().reads;
        assert!(
            header_reads * 2 <= full_reads,
            "membrane-only loads should cost a fraction of full loads \
             (headers: {header_reads} block reads, full: {full_reads})"
        );
        assert_eq!(dbfs.stats().membrane_loads, 4);
    }

    #[test]
    fn erasure_leaves_no_plaintext_on_the_device_and_authority_recovers() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(11);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(5),
                user_row("FORGOTTEN-NAME-XYZ", 1999),
            )
            .unwrap();
        assert!(!scan_for_pattern(device.as_ref(), b"FORGOTTEN-NAME-XYZ")
            .unwrap()
            .is_empty());

        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // The operator's device no longer holds the plaintext anywhere —
        // data blocks, journal, or tombstone.
        assert!(scan_for_pattern(device.as_ref(), b"FORGOTTEN-NAME-XYZ")
            .unwrap()
            .is_empty());

        // But the authority can still recover it from the tombstone.
        let tombstone = dbfs
            .query(&QueryRequest::all("user").including_erased())
            .unwrap();
        let ciphertext_bytes = tombstone.records()[0]
            .row()
            .get("__erased_ciphertext")
            .unwrap()
            .as_bytes()
            .unwrap()
            .to_vec();
        let ciphertext = rgpdos_crypto::EscrowedCiphertext::decode(&ciphertext_bytes).unwrap();
        let plaintext = authority.recover(&ciphertext).unwrap();
        let row: Row = serde_json::from_slice(&plaintext).unwrap();
        assert_eq!(
            row.get("name").unwrap().as_text(),
            Some("FORGOTTEN-NAME-XYZ")
        );
    }

    #[test]
    fn erase_subject_and_records_of_subject() {
        let dbfs = dbfs();
        let authority = Authority::generate(3);
        let escrow = OperatorEscrow::new(authority.public_key());
        for i in 0..5 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(10),
                user_row(&format!("dup-{i}"), 1990 + i),
            )
            .unwrap();
        }
        dbfs.collect(&"user".into(), SubjectId::new(11), user_row("other", 1970))
            .unwrap();
        assert_eq!(
            dbfs.records_of_subject(SubjectId::new(10)).unwrap().len(),
            5
        );
        let erased = dbfs.erase_subject(SubjectId::new(10), &escrow).unwrap();
        assert_eq!(erased.len(), 5);
        assert!(dbfs
            .records_of_subject(SubjectId::new(10))
            .unwrap()
            .is_empty());
        assert_eq!(
            dbfs.records_of_subject(SubjectId::new(11)).unwrap().len(),
            1
        );
    }

    #[test]
    fn retention_sweep_erases_expired_records() {
        let dbfs = dbfs();
        let authority = Authority::generate(5);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(1),
                user_row("Expiring", 1990),
            )
            .unwrap();
        // Nothing expires immediately.
        assert!(dbfs.purge_expired(&escrow).unwrap().is_empty());
        // Advance past the 1-year TTL of Listing 1.
        dbfs.clock().advance(Duration::from_days(366));
        let expired = dbfs.purge_expired(&escrow).unwrap();
        assert_eq!(expired, vec![id]);
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());
        assert_eq!(dbfs.stats().expirations, 1);
        // A second sweep is a no-op.
        assert!(dbfs.purge_expired(&escrow).unwrap().is_empty());
    }

    #[test]
    fn queries_filter_and_project() {
        let dbfs = dbfs();
        for i in 0..10 {
            dbfs.collect(
                &"user".into(),
                SubjectId::new(i % 3),
                user_row(&format!("user-{i}"), 1960 + i as i64),
            )
            .unwrap();
        }
        let all = dbfs.query(&QueryRequest::all("user")).unwrap();
        assert_eq!(all.len(), 10);
        let subject0 = dbfs
            .query(&QueryRequest::all("user").for_subject(SubjectId::new(0)))
            .unwrap();
        assert_eq!(subject0.len(), 4);
        let older = dbfs
            .query(
                &QueryRequest::all("user").filter(crate::query::Predicate::IntFieldLessThan {
                    field: "year_of_birthdate".into(),
                    bound: 1965,
                }),
            )
            .unwrap();
        assert_eq!(older.len(), 5);
        let anonymised = dbfs
            .query(&QueryRequest::all("user").through_view("v_ano".into()))
            .unwrap();
        for record in anonymised.iter() {
            assert!(record.row().get("name").is_none());
            assert!(record.row().get("pwd").is_none());
            assert!(record.row().get("year_of_birthdate").is_some());
        }
        assert!(matches!(
            dbfs.query(&QueryRequest::all("user").through_view("nope".into())),
            Err(DbfsError::Core(_))
        ));
        assert!(matches!(
            dbfs.query(&QueryRequest::all("ghost")),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn remount_rebuilds_the_index() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let id;
        {
            let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
            dbfs.create_type(listing1_user_schema()).unwrap();
            id = dbfs
                .collect(
                    &"user".into(),
                    SubjectId::new(7),
                    user_row("Persisted", 2001),
                )
                .unwrap();
            dbfs.collect(&"user".into(), SubjectId::new(8), user_row("Another", 2002))
                .unwrap();
        }
        let dbfs = Dbfs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(dbfs.types(), vec![DataTypeId::from("user")]);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        let record = dbfs.get(&"user".into(), id).unwrap();
        assert_eq!(
            record.row().get("name").unwrap().as_text(),
            Some("Persisted")
        );
        // New identifiers do not collide with pre-remount ones.
        let new_id = dbfs
            .collect(&"user".into(), SubjectId::new(7), user_row("Fresh", 2003))
            .unwrap();
        assert!(new_id.raw() > id.raw());
        // Mounting a non-DBFS device fails cleanly.
        assert!(Dbfs::mount(Arc::new(MemDevice::new(64, 512))).is_err());
    }

    #[test]
    fn listing1_schema_from_dsl_round_trips_through_dbfs() {
        let schemas = compile_type_declarations(rgpdos_dsl::listings::LISTING_1).unwrap();
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(device, DbfsParams::small()).unwrap();
        dbfs.create_type(schemas[0].clone()).unwrap();
        let loaded = dbfs.schema(&"user".into()).unwrap();
        assert_eq!(&loaded, &schemas[0]);
    }

    #[test]
    fn unknown_pd_is_reported() {
        let dbfs = dbfs();
        assert!(matches!(
            dbfs.get(&"user".into(), PdId::new(99)),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert!(matches!(
            dbfs.load_records(&"user".into(), &[PdId::new(99)]),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert!(matches!(
            dbfs.schema(&"ghost".into()),
            Err(DbfsError::UnknownType { .. })
        ));
        assert!(matches!(
            dbfs.load_membranes(&"ghost".into()),
            Err(DbfsError::UnknownType { .. })
        ));
    }

    #[test]
    fn audit_trail_records_the_lifecycle() {
        let dbfs = dbfs();
        let authority = Authority::generate(2);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Audited", 1991))
            .unwrap();
        dbfs.update_row(&"user".into(), id, user_row("Audited2", 1991))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), id).unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        let audit = dbfs.audit();
        assert!(audit.count_matching(|e| matches!(e.kind, AuditEventKind::Collected { .. })) >= 2);
        assert_eq!(
            audit.count_matching(|e| matches!(e.kind, AuditEventKind::Updated { .. })),
            1
        );
        assert_eq!(
            audit.count_matching(
                |e| matches!(e.kind, AuditEventKind::Copied { from, to } if from == id && to == copy)
            ),
            1
        );
        assert!(
            audit.count_matching(|e| matches!(e.kind, AuditEventKind::Erased { .. })) >= 2,
            "original and copy erasures are both audited"
        );
    }

    #[test]
    fn scrub_reclaims_tombstones_and_audits_each() {
        let dbfs = dbfs();
        let authority = Authority::generate(7);
        let escrow = OperatorEscrow::new(authority.public_key());
        let mut erased = Vec::new();
        for i in 0..6 {
            let id = dbfs
                .collect(
                    &"user".into(),
                    SubjectId::new(i % 2),
                    user_row(&format!("scrub-{i}"), 1980 + i as i64),
                )
                .unwrap();
            if i < 4 {
                dbfs.erase(&"user".into(), id, &escrow).unwrap();
                erased.push(id);
            }
        }
        let before = dbfs.space_stats().unwrap();
        assert_eq!(before.tombstone_records, 4);
        assert!(before.amplification() > 2.0);

        let report = dbfs.scrub_tombstones().unwrap();
        assert_eq!(report.scanned_tombstones, 4);
        assert_eq!(report.reclaimed, erased);
        assert_eq!(report.retained_intent, 0);
        assert_eq!(report.retained_lineage, 0);
        assert!(report.bytes_reclaimed > 0);

        let after = dbfs.space_stats().unwrap();
        assert_eq!(after.tombstone_records, 0);
        assert_eq!(after.live_records, 2);
        assert_eq!(after.amplification(), 1.0);
        assert!(after.allocated_blocks < before.allocated_blocks);
        assert_eq!(dbfs.tombstones_reclaimed(), 4);
        assert_eq!(dbfs.count(&"user".into()).unwrap(), 2);
        dbfs.verify_index_invariants().unwrap();

        // Each reclamation is audited; a reclaimed id reads as unknown.
        assert_eq!(
            dbfs.audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::Reclaimed { .. })),
            4
        );
        for id in erased {
            assert!(matches!(
                dbfs.get(&"user".into(), id),
                Err(DbfsError::UnknownPd { .. })
            ));
        }
        // Idempotent: nothing left to reclaim.
        let again = dbfs.scrub_tombstones().unwrap();
        assert_eq!(again.reclaimed_count(), 0);
        assert_eq!(again.scanned_tombstones, 0);
    }

    #[test]
    fn scrub_leaves_no_tombstone_ciphertext_on_the_device() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(11);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(3),
                user_row("SCRUB-TARGET-ABC", 1988),
            )
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // The tombstone still holds the escrowed ciphertext on disk (the
        // stored row is JSON, so the tombstone marker field names it).
        assert!(!scan_for_pattern(device.as_ref(), b"__erased_ciphertext")
            .unwrap()
            .is_empty());

        dbfs.scrub_tombstones().unwrap();
        // After reclamation neither the plaintext nor the ciphertext
        // survives anywhere on the raw device (zero-on-free scrubbed the
        // tombstone blocks; the journal is scrubbed by policy).
        assert!(scan_for_pattern(device.as_ref(), b"SCRUB-TARGET-ABC")
            .unwrap()
            .is_empty());
        assert!(scan_for_pattern(device.as_ref(), b"__erased_ciphertext")
            .unwrap()
            .is_empty());
        assert!(dbfs.inode_fs().leaked_data_blocks().unwrap().is_empty());
    }

    #[test]
    fn scrub_reclaims_erased_copy_chains_child_first() {
        let dbfs = dbfs();
        let authority = Authority::generate(13);
        let escrow = OperatorEscrow::new(authority.public_key());
        let original = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Chain", 1990))
            .unwrap();
        let copy = dbfs.copy(&"user".into(), original).unwrap();
        let grandcopy = dbfs.copy(&"user".into(), copy).unwrap();
        dbfs.erase(&"user".into(), original, &escrow).unwrap();

        // The whole erased chain is reclaimed in one pass, children first.
        let report = dbfs.scrub_tombstones().unwrap();
        assert_eq!(report.reclaimed_count(), 3);
        let order: Vec<PdId> = report.reclaimed.clone();
        let pos = |id: PdId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(grandcopy) < pos(copy));
        assert!(pos(copy) < pos(original));
        dbfs.verify_index_invariants().unwrap();
        assert_eq!(dbfs.record_counts(), (0, 0));
    }

    #[test]
    fn scrub_retains_tombstones_named_by_pending_intents() {
        let dbfs = dbfs();
        let authority = Authority::generate(17);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Held", 1991))
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        // A routed erasure still in flight names the tombstone.
        let token = dbfs
            .put_erase_intent(&EraseIntent {
                targets: vec![("user".to_owned(), id.raw())],
                escrow_key: escrow.public_key().element(),
                routed: true,
            })
            .unwrap();
        let held = dbfs.scrub_tombstones().unwrap();
        assert_eq!(held.reclaimed_count(), 0);
        assert_eq!(held.retained_intent, 1);
        // The tombstone stays readable as a tombstone while the routed
        // erasure is in flight.
        assert!(dbfs.get(&"user".into(), id).unwrap().membrane().is_erased());

        // Once the protocol confirms and clears the intent, it reclaims.
        dbfs.clear_erase_intent(token).unwrap();
        let freed = dbfs.scrub_tombstones().unwrap();
        assert_eq!(freed.reclaimed, vec![id]);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn scrub_respects_the_caller_retain_policy() {
        let dbfs = dbfs();
        let authority = Authority::generate(19);
        let escrow = OperatorEscrow::new(authority.public_key());
        let keep = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Keep", 1990))
            .unwrap();
        let free = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Free", 1991))
            .unwrap();
        dbfs.erase_subject(SubjectId::new(1), &escrow).unwrap();
        let report = dbfs.scrub_tombstones_with(|id| id != keep).unwrap();
        assert_eq!(report.reclaimed, vec![free]);
        assert_eq!(report.retained_lineage, 1);
        assert!(matches!(
            dbfs.load_membrane(&"user".into(), keep),
            Ok(m) if m.is_erased()
        ));
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn scrubbed_store_survives_remount() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Dbfs::format(Arc::clone(&device), DbfsParams::small()).unwrap();
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(23);
        let escrow = OperatorEscrow::new(authority.public_key());
        let gone = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Gone", 1990))
            .unwrap();
        let stays = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("Stays", 1991))
            .unwrap();
        dbfs.erase(&"user".into(), gone, &escrow).unwrap();
        dbfs.scrub_tombstones().unwrap();
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device)).unwrap();
        assert_eq!(remounted.record_counts(), (1, 0));
        assert!(matches!(
            remounted.get(&"user".into(), gone),
            Err(DbfsError::UnknownPd { .. })
        ));
        assert_eq!(
            remounted.get(&"user".into(), stays).unwrap().subject(),
            SubjectId::new(2)
        );
        // The healed id counter never recycles a reclaimed id.
        let fresh = remounted
            .collect(&"user".into(), SubjectId::new(3), user_row("Fresh", 1992))
            .unwrap();
        assert!(fresh.raw() > stays.raw());
        remounted.verify_index_invariants().unwrap();
    }

    #[test]
    fn background_scrubber_reclaims_and_stops_on_drop() {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Arc::new(Dbfs::format(device, DbfsParams::small()).unwrap());
        dbfs.create_type(listing1_user_schema()).unwrap();
        let authority = Authority::generate(29);
        let escrow = OperatorEscrow::new(authority.public_key());
        let id = dbfs
            .collect(
                &"user".into(),
                SubjectId::new(1),
                user_row("Background", 1990),
            )
            .unwrap();
        dbfs.erase(&"user".into(), id, &escrow).unwrap();
        let scrubber =
            crate::scrub::Scrubber::spawn(Arc::clone(&dbfs), std::time::Duration::from_millis(1));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        // The scrubber thread adds a pass to its own tally only after the
        // pass returns, so wait for both counters.
        while (dbfs.tombstones_reclaimed() == 0 || scrubber.reclaimed() == 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(dbfs.tombstones_reclaimed(), 1);
        assert!(scrubber.reclaimed() >= 1);
        drop(scrubber);
        dbfs.verify_index_invariants().unwrap();
    }

    #[test]
    fn first_attached_trace_wins() {
        let dbfs = dbfs();
        let (a, b) = (rgpdos_trace::TraceCtx::sim(), rgpdos_trace::TraceCtx::sim());
        dbfs.attach_trace(&a);
        dbfs.attach_trace_as(&b, &[("shard", "1")]);
        for year in 1980..1983 {
            dbfs.collect(&"user".into(), SubjectId::new(1), user_row("once", year))
                .unwrap();
        }
        dbfs.query(&QueryRequest::all("user")).unwrap();
        let op_count = |op: &str| {
            a.registry
                .histogram_summary("dbfs_op_us", &[("op", op)])
                .map(|summary| summary.count)
        };
        assert_eq!(op_count("collect"), Some(3));
        assert_eq!(op_count("query"), Some(1));
        let (counters, _, _) = a.registry.collect();
        assert_eq!(counters["dbfs_collects"], 3);
        let (counters, gauges, histograms) = b.registry.collect();
        assert!(counters.is_empty() && gauges.is_empty() && histograms.is_empty());
        assert!(b.tracer.snapshot().is_empty());
    }
}
