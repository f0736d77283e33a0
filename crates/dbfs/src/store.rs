//! The [`PdStore`] abstraction: the one storage API of rgpdOS.  The DED
//! pipeline, the rights engine, the compliance checker and the runtime
//! program against it, and so does every other caller of a store.
//!
//! Two implementations exist: the single-device [`Dbfs`](crate::Dbfs) in
//! this crate, and the horizontally partitioned `ShardedDbfs` of
//! `rgpdos_shard`, which runs N independent `Dbfs` instances behind a
//! subject-hash placement map.  Each implements the trait directly — the
//! trait methods *are* the store's operations, with no inherent copies —
//! and keeps only its type-specific surface (format/mount, cache control,
//! erase intents, placement) inherent.  Every method either enforces an
//! obligation (membrane-wrapped storage, lineage erasure, retention) or
//! serves a subject right, so any store that implements it inherits the
//! whole enforcement stack above it.

use crate::error::DbfsError;
use crate::query::QueryRequest;
use crate::scrub::{ScrubReport, SpaceStats};
use crate::stats::DbfsStats;
use rgpdos_core::{
    AuditLog, DataTypeId, DataTypeSchema, LogicalClock, Membrane, MembraneDelta, PdId, PdRecord,
    RecordBatch, Row, SubjectId, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use std::sync::Arc;

/// A store of membrane-wrapped personal data.
///
/// All methods take `&self`: implementations are internally synchronised so
/// that one store can be shared by the DED, the rights engine and the
/// compliance checker.
///
/// Partitioned stores answer table-wide reads (`count`, `load_membranes`,
/// `load_records`, `query`) by scattering over their backing instances and
/// return [`DbfsError::PartialScatter`] when any instance fails: a merge of
/// the instances that answered would pass off an incomplete answer as the
/// whole table.
pub trait PdStore: Send + Sync {
    /// The clock used to timestamp membranes.
    fn clock(&self) -> Arc<LogicalClock>;

    /// The audit log storage events are recorded into.
    fn audit(&self) -> AuditLog;

    /// Operation counters since format/mount (aggregated across backing
    /// instances for partitioned stores).
    fn stats(&self) -> DbfsStats;

    /// Routes the store's instrumentation through a trace context: op
    /// latency histograms, commit latency, cache and stats counters —
    /// labeled per backing instance for partitioned stores.  A store is
    /// traced into at most one context: the first attach wins and later
    /// calls register nothing.
    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx);

    /// Installs a personal-data type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::TypeAlreadyExists`] when the type exists.
    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError>;

    /// Returns the schema of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError>;

    /// The installed type names.
    fn types(&self) -> Vec<DataTypeId>;

    /// Number of live (non-erased) records of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`] when the type is not installed,
    /// and partitioned stores return [`DbfsError::PartialScatter`] when any
    /// backing instance failed — an undercount is never presented as a
    /// complete answer.
    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError>;

    /// The `acquisition` built-in: stores a newly collected row under the
    /// default membrane of its type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`] or [`DbfsError::Core`] on schema
    /// mismatch.
    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError>;

    /// Stores an already-wrapped record (the DED's store step for produced
    /// personal data, and the `copy` built-in's insert).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`], plus [`DbfsError::Erased`] when the
    /// membrane's lineage chain is already tombstoned.
    fn insert_wrapped(&self, data_type: &DataTypeId, wrapped: WrappedPd)
        -> Result<PdId, DbfsError>;

    /// Batched `acquisition`: collects every row, returning the assigned
    /// identifiers in input order.  Implementations coalesce the inserts
    /// into journal group commits — far fewer journal transactions than
    /// one per record — under the same crash semantics as sequential
    /// collection: each record is individually atomic and a crash leaves a
    /// prefix of the batch.
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`]; on error the rows before the failing
    /// one are applied.  A partitioned store reports the lowest failing
    /// instance's error, and each instance has applied a prefix of its own
    /// slice of the batch; rows routed to other instances may or may not
    /// have been applied.
    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Batched [`PdStore::insert_wrapped`] (see [`PdStore::collect_many`]
    /// for the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::insert_wrapped`]; partial application on error
    /// follows [`PdStore::collect_many`].
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError>;

    /// Batched [`PdStore::update_row`] (see [`PdStore::collect_many`] for
    /// the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::update_row`], plus [`DbfsError::UnknownPd`];
    /// partial application on error follows [`PdStore::collect_many`].
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError>;

    /// Reads one record (payload + membrane).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`] when the id does not exist or
    /// belongs to another type, and [`DbfsError::Erased`] when a concurrent
    /// erasure beat the payload read.
    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError>;

    /// Membrane-only load of a whole table (the `ded_load_membrane` request).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError>;

    /// Membrane-only load restricted to one subject's records of a type.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`].
    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError>;

    /// Membrane-only load of a single record.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError>;

    /// Full-record load of the identifiers that passed the membrane filter,
    /// in the order given (the `ded_load_data` request).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`] for unknown identifiers and
    /// [`DbfsError::Erased`] when a concurrent erasure beat a payload read.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError>;

    /// The `update` built-in: replaces the payload row of a record.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Erased`] for erased records and
    /// [`DbfsError::Core`] for schema violations.
    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError>;

    /// Applies a subject-initiated membrane change; returns whether the delta
    /// had an effect.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError>;

    /// The `copy` built-in: duplicates a record, recording lineage.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Erased`] for erased records, including a source
    /// whose erasure wins the race against this copy.
    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError>;

    /// The `delete` built-in: crypto-erases a record and its transitive
    /// lineage closure.  Returns the identifiers this call tombstoned —
    /// the record itself plus every transitively reached copy.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Subject-wide right to be forgotten.  Returns every identifier
    /// tombstoned by the call, transitively reached lineage copies included.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError>;

    /// Storage-limitation sweep: erases every record whose retention period
    /// elapsed.  Returns the expired identifiers.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError>;

    /// Every live record of a subject, across all types (the right of
    /// access).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError>;

    /// Executes a query against one table.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownType`], or [`DbfsError::Core`] when the
    /// requested view does not exist.
    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError>;

    /// Verifies the store's internal indexes against its persisted state.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] describing the first violation, and
    /// propagates storage errors.
    fn verify_index_invariants(&self) -> Result<(), DbfsError>;

    /// One tombstone-scrub pass: reclaims the on-disk footprint of
    /// tombstones whose erasure receipt is durable, never touching one
    /// still referenced by a pending erase intent or by surviving lineage
    /// (locally or in a routing layer's lineage directory).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError>;

    /// The store's space footprint: live versus tombstone record bytes and
    /// allocated blocks (aggregated across backing instances for
    /// partitioned stores).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn space_stats(&self) -> Result<SpaceStats, DbfsError>;
}
