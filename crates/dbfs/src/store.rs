//! The [`PdStore`] abstraction: the storage interface the rest of rgpdOS
//! (the DED pipeline, the rights engine, the compliance checker, the
//! runtime) programs against.
//!
//! Two implementations exist: the single-device [`Dbfs`] in this crate, and
//! the horizontally partitioned `ShardedDbfs` of `rgpdos_shard`, which runs
//! N independent `Dbfs` instances behind a subject-hash placement map.  The
//! trait deliberately mirrors the GDPR-relevant surface of `Dbfs` — every
//! method either enforces an obligation (membrane-wrapped storage, lineage
//! erasure, retention) or serves a subject right — so any store that
//! implements it inherits the whole enforcement stack above it.

use crate::error::DbfsError;
use crate::query::QueryRequest;
use crate::scrub::{ScrubReport, SpaceStats};
use crate::stats::DbfsStats;
use crate::Dbfs;
use rgpdos_blockdev::BlockDevice;
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
    /// calls register nothing.  The default is a no-op so minimal stores
    /// stay trivially conformant.
    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        let _ = ctx;
    }

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
    /// personal data).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`].
    fn insert_wrapped(&self, data_type: &DataTypeId, wrapped: WrappedPd)
        -> Result<PdId, DbfsError>;

    /// Batched `acquisition`: collects every row, returning the assigned
    /// identifiers in input order.  Stores that support journal group
    /// commit override this to coalesce the inserts into far fewer journal
    /// transactions; the default collects sequentially, so every
    /// implementation honours the same crash semantics — each record is
    /// individually atomic and a crash leaves a prefix of the batch.
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::collect`]; on error the rows before the failing
    /// one are applied.
    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        rows.into_iter()
            .map(|(subject, row)| self.collect(data_type, subject, row))
            .collect()
    }

    /// Batched [`PdStore::insert_wrapped`] (see [`PdStore::collect_many`]
    /// for the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::insert_wrapped`]; on error the items before the
    /// failing one are applied.
    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        items
            .into_iter()
            .map(|(data_type, wrapped)| self.insert_wrapped(&data_type, wrapped))
            .collect()
    }

    /// Batched [`PdStore::update_row`] (see [`PdStore::collect_many`] for
    /// the batching and crash semantics).
    ///
    /// # Errors
    ///
    /// Same as [`PdStore::update_row`]; on error the updates before the
    /// failing one are applied.
    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        updates
            .into_iter()
            .try_for_each(|(id, row)| self.update_row(data_type, id, row))
    }

    /// Reads one record (payload + membrane).
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`].
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
    /// in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::UnknownPd`] for unknown identifiers.
    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError>;

    /// The `update` built-in: replaces the payload row of a record.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Erased`] or [`DbfsError::Core`].
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
    /// Returns [`DbfsError::Erased`] for erased records.
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
    /// Returns [`DbfsError::UnknownType`] or [`DbfsError::Core`].
    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError>;

    /// Verifies the store's internal indexes against its persisted state.
    ///
    /// # Errors
    ///
    /// Returns [`DbfsError::Corrupt`] describing the first violation.
    fn verify_index_invariants(&self) -> Result<(), DbfsError>;

    /// One tombstone-scrub pass: reclaims the on-disk footprint of
    /// tombstones whose erasure receipt is durable, never touching one
    /// still referenced by a pending erase intent or by surviving lineage
    /// (locally or in a routing layer's lineage directory).  The default is
    /// a no-op pass, so minimal stores stay trivially conformant —
    /// tombstones then simply accumulate, exactly as before scrubbing
    /// existed.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        Ok(ScrubReport::default())
    }

    /// The store's space footprint: live versus tombstone record bytes and
    /// allocated blocks (aggregated across backing instances for
    /// partitioned stores).  The default reports an empty footprint.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        Ok(SpaceStats::default())
    }
}

impl<D: BlockDevice> PdStore for Dbfs<D> {
    fn clock(&self) -> Arc<LogicalClock> {
        Dbfs::clock(self)
    }

    fn audit(&self) -> AuditLog {
        Dbfs::audit(self)
    }

    fn stats(&self) -> DbfsStats {
        Dbfs::stats(self)
    }

    fn attach_trace(&self, ctx: &rgpdos_trace::TraceCtx) {
        Dbfs::attach_trace(self, ctx);
    }

    fn create_type(&self, schema: DataTypeSchema) -> Result<(), DbfsError> {
        Dbfs::create_type(self, schema)
    }

    fn schema(&self, name: &DataTypeId) -> Result<DataTypeSchema, DbfsError> {
        Dbfs::schema(self, name)
    }

    fn types(&self) -> Vec<DataTypeId> {
        Dbfs::types(self)
    }

    fn count(&self, name: &DataTypeId) -> Result<usize, DbfsError> {
        Dbfs::try_count(self, name)
    }

    fn collect(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
        row: Row,
    ) -> Result<PdId, DbfsError> {
        Dbfs::collect(self, data_type.clone(), subject, row)
    }

    fn insert_wrapped(
        &self,
        data_type: &DataTypeId,
        wrapped: WrappedPd,
    ) -> Result<PdId, DbfsError> {
        Dbfs::insert_wrapped(self, data_type, wrapped)
    }

    fn collect_many(
        &self,
        data_type: &DataTypeId,
        rows: Vec<(SubjectId, Row)>,
    ) -> Result<Vec<PdId>, DbfsError> {
        Dbfs::collect_many(self, data_type.clone(), rows)
    }

    fn insert_many(&self, items: Vec<(DataTypeId, WrappedPd)>) -> Result<Vec<PdId>, DbfsError> {
        Dbfs::insert_many(self, items)
    }

    fn update_rows(
        &self,
        data_type: &DataTypeId,
        updates: Vec<(PdId, Row)>,
    ) -> Result<(), DbfsError> {
        Dbfs::update_rows(self, data_type, updates)
    }

    fn get(&self, data_type: &DataTypeId, id: PdId) -> Result<PdRecord, DbfsError> {
        Dbfs::get(self, data_type, id)
    }

    fn load_membranes(&self, data_type: &DataTypeId) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        Dbfs::load_membranes(self, data_type)
    }

    fn load_membranes_for_subject(
        &self,
        data_type: &DataTypeId,
        subject: SubjectId,
    ) -> Result<Vec<(PdId, Membrane)>, DbfsError> {
        Dbfs::load_membranes_for_subject(self, data_type, subject)
    }

    fn load_membrane(&self, data_type: &DataTypeId, id: PdId) -> Result<Membrane, DbfsError> {
        Dbfs::load_membrane(self, data_type, id)
    }

    fn load_records(&self, data_type: &DataTypeId, ids: &[PdId]) -> Result<RecordBatch, DbfsError> {
        Dbfs::load_records(self, data_type, ids)
    }

    fn update_row(&self, data_type: &DataTypeId, id: PdId, row: Row) -> Result<(), DbfsError> {
        Dbfs::update_row(self, data_type, id, row)
    }

    fn apply_membrane_delta(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        delta: &MembraneDelta,
    ) -> Result<bool, DbfsError> {
        Dbfs::apply_membrane_delta(self, data_type, id, delta)
    }

    fn copy(&self, data_type: &DataTypeId, id: PdId) -> Result<PdId, DbfsError> {
        Dbfs::copy(self, data_type, id)
    }

    fn erase(
        &self,
        data_type: &DataTypeId,
        id: PdId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        Dbfs::erase(self, data_type, id, escrow)
    }

    fn erase_subject(
        &self,
        subject: SubjectId,
        escrow: &OperatorEscrow,
    ) -> Result<Vec<PdId>, DbfsError> {
        Dbfs::erase_subject(self, subject, escrow)
    }

    fn purge_expired(&self, escrow: &OperatorEscrow) -> Result<Vec<PdId>, DbfsError> {
        Dbfs::purge_expired(self, escrow)
    }

    fn records_of_subject(&self, subject: SubjectId) -> Result<Vec<PdRecord>, DbfsError> {
        Dbfs::records_of_subject(self, subject)
    }

    fn query(&self, request: &QueryRequest) -> Result<RecordBatch, DbfsError> {
        Dbfs::query(self, request)
    }

    fn verify_index_invariants(&self) -> Result<(), DbfsError> {
        Dbfs::verify_index_invariants(self)
    }

    fn scrub_tombstones(&self) -> Result<ScrubReport, DbfsError> {
        Dbfs::scrub_tombstones(self)
    }

    fn space_stats(&self) -> Result<SpaceStats, DbfsError> {
        Dbfs::space_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbfsParams;
    use rgpdos_blockdev::MemDevice;
    use rgpdos_core::schema::listing1_user_schema;

    /// A generic function over any `PdStore` exercises the trait surface the
    /// engines rely on.
    fn lifecycle_through_trait<S: PdStore>(store: &S) {
        let user = DataTypeId::from("user");
        store.create_type(listing1_user_schema()).unwrap();
        let row = Row::new()
            .with("name", "Trait")
            .with("pwd", "pw")
            .with("year_of_birthdate", 1990i64);
        let id = store.collect(&user, SubjectId::new(1), row).unwrap();
        assert_eq!(store.count(&user).unwrap(), 1);
        assert!(matches!(
            store.count(&DataTypeId::from("ghost")),
            Err(DbfsError::UnknownType { .. } | DbfsError::PartialScatter { .. })
        ));
        let copy = store.copy(&user, id).unwrap();
        assert_ne!(copy, id);
        assert_eq!(
            store.records_of_subject(SubjectId::new(1)).unwrap().len(),
            2
        );
        let membranes = store.load_membranes(&user).unwrap();
        assert_eq!(membranes.len(), 2);
        store.verify_index_invariants().unwrap();
    }

    #[test]
    fn dbfs_implements_pd_store() {
        let dbfs = Dbfs::format(
            std::sync::Arc::new(MemDevice::new(8192, 512)),
            DbfsParams::small(),
        )
        .unwrap();
        lifecycle_through_trait(&dbfs);
    }
}
