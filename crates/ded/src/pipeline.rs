//! The eight-step invocation pipeline.

use crate::error::DedError;
use rgpdos_core::{
    AccessDecision, AuditEventKind, AuditLog, FieldValue, LogicalClock, PdId, PdRef, ProcessingId,
    Row, SubjectId, WrappedPd,
};
use rgpdos_crypto::escrow::OperatorEscrow;
use rgpdos_dbfs::PdStore;
use rgpdos_kernel::{Machine, ObjectClass, Operation, SecurityContext};
use rgpdos_ps::{ProcessingOutput, ProcessingStore, RegisteredProcessing};
use std::sync::Arc;

/// What the invocation operates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeTarget {
    /// Every record of the processing's input type (the common case: the
    /// processing receives the identifier of a PD *type*).
    WholeType,
    /// A single personal-data item, named by reference.
    Single(PdRef),
    /// The records of one subject only.
    Subject(SubjectId),
}

/// A `ps_invoke` request (Listing 3): which data to process and, optionally,
/// data to collect into DBFS before processing (the boolean + collection
/// method arguments of the paper's `ps_invoke`).
#[derive(Debug, Clone)]
pub struct InvokeRequest {
    /// The records to process.
    pub target: InvokeTarget,
    /// Rows to collect (acquisition built-in) before the processing runs.
    pub collect_first: Vec<(SubjectId, Row)>,
}

impl InvokeRequest {
    /// Processes every record of the input type.
    pub fn whole_type() -> Self {
        Self {
            target: InvokeTarget::WholeType,
            collect_first: Vec::new(),
        }
    }

    /// Processes a single record.
    pub fn single(pd: PdRef) -> Self {
        Self {
            target: InvokeTarget::Single(pd),
            collect_first: Vec::new(),
        }
    }

    /// Processes the records of one subject.
    pub fn subject(subject: SubjectId) -> Self {
        Self {
            target: InvokeTarget::Subject(subject),
            collect_first: Vec::new(),
        }
    }

    /// Collects the given rows before processing (the `ps_invoke` flag that
    /// asks rgpdOS to initialise DBFS through the collection interface).
    #[must_use]
    pub fn with_collection(mut self, rows: Vec<(SubjectId, Row)>) -> Self {
        self.collect_first = rows;
        self
    }
}

/// What an invocation returns to the caller: non-personal values and
/// references, never raw personal data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvokeResult {
    /// Non-personal scalar outputs, one per processed record that produced one.
    pub values: Vec<FieldValue>,
    /// References to personal data produced and stored by the processing.
    pub produced: Vec<PdRef>,
    /// Number of records whose membrane approved the processing.
    pub processed: usize,
    /// Number of records whose membrane denied the processing.
    pub denied: usize,
    /// Number of records where the implementation reported an error.
    pub errors: usize,
}

/// The Data Execution Domain engine, generic over the personal-data store
/// it mediates access to (a single DBFS instance or a sharded deployment).
#[derive(Debug)]
pub struct DedEngine<S> {
    dbfs: Arc<S>,
    machine: Arc<Machine>,
    ps: ProcessingStore,
    escrow: Arc<OperatorEscrow>,
    clock: Arc<LogicalClock>,
    audit: AuditLog,
}

impl<S: PdStore> DedEngine<S> {
    /// Creates a DED bound to a personal-data store, a machine and a
    /// processing store.
    pub fn new(
        dbfs: Arc<S>,
        machine: Arc<Machine>,
        ps: ProcessingStore,
        escrow: Arc<OperatorEscrow>,
    ) -> Self {
        let clock = dbfs.clock();
        let audit = dbfs.audit();
        Self {
            dbfs,
            machine,
            ps,
            escrow,
            clock,
            audit,
        }
    }

    /// The store the DED mediates access to.
    pub fn dbfs(&self) -> &Arc<S> {
        &self.dbfs
    }

    /// The processing store used as the invocation entry point.
    pub fn processing_store(&self) -> &ProcessingStore {
        &self.ps
    }

    /// The machine enforcing seccomp and LSM policies.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The audit log shared with DBFS.
    pub fn audit(&self) -> AuditLog {
        self.audit.clone()
    }

    /// The escrow engine used by the `delete` built-in.
    pub fn escrow(&self) -> &Arc<OperatorEscrow> {
        &self.escrow
    }

    /// `ps_invoke`: executes a registered processing inside the DED.
    ///
    /// # Errors
    ///
    /// Returns [`DedError::Ps`] when the processing is unknown or not
    /// approved, [`DedError::Kernel`] when the purpose-kernel machine refuses
    /// the DED's accesses, and [`DedError::Dbfs`] for storage failures.
    pub fn invoke(
        &self,
        processing_id: ProcessingId,
        request: InvokeRequest,
    ) -> Result<InvokeResult, DedError> {
        // Entry-point check: only approved processings run (enforcement
        // rules 1 and 2 — the PS is the only way in).
        let processing = self.ps.get_invocable(processing_id)?;

        // The DED instance is a task of the rgpdOS sub-kernel running under
        // the F_pd seccomp profile and the DED security context.
        let task = self
            .machine
            .spawn_task(self.machine.rgpd_kernel(), SecurityContext::DedProcessing)?;
        let result = self.run_pipeline(&processing, &request, task);
        self.machine.terminate_task(task)?;
        result
    }

    fn run_pipeline(
        &self,
        processing: &RegisteredProcessing,
        request: &InvokeRequest,
        task: rgpdos_core::TaskId,
    ) -> Result<InvokeResult, DedError> {
        let data_type = processing.spec.input_type.clone();
        let purpose = processing.purpose.clone();
        let now = self.clock.now();

        // Optional acquisition step: initialise DBFS with collected data.
        if !request.collect_first.is_empty() {
            self.machine
                .mediated_access(task, ObjectClass::DbfsStorage, Operation::Write)?;
            for (subject, row) in &request.collect_first {
                self.dbfs.collect(&data_type, *subject, row.clone())?;
            }
        }

        // ded_type2req + ded_load_membrane: DBFS is asked for membranes
        // only, and only for the requested target — single-item and
        // per-subject invocations resolve through the record and subject
        // indexes instead of scanning the whole table.
        self.machine
            .mediated_access(task, ObjectClass::DbfsStorage, Operation::Read)?;
        let candidates: Vec<(PdId, rgpdos_core::Membrane)> = match &request.target {
            InvokeTarget::WholeType => self.dbfs.load_membranes(&data_type)?,
            InvokeTarget::Single(pd) => {
                let id = pd.pd();
                match self.dbfs.load_membrane(&data_type, id) {
                    Ok(membrane) => vec![(id, membrane)],
                    // An id that does not exist (or lives in another table)
                    // is an empty target, not an invocation failure.  An
                    // uninstalled input type surfaces as `UnknownType`,
                    // exactly as the whole-type and subject targets report
                    // it.
                    Err(rgpdos_dbfs::DbfsError::UnknownPd { .. }) => Vec::new(),
                    Err(e) => return Err(e.into()),
                }
            }
            InvokeTarget::Subject(subject) => {
                self.dbfs.load_membranes_for_subject(&data_type, *subject)?
            }
        };

        // ded_filter: consent + retention filtering before any data is read.
        let mut allowed: Vec<(PdId, AccessDecision)> = Vec::new();
        let mut denied = 0usize;
        for (id, membrane) in candidates {
            match membrane.permits_at(&purpose, now) {
                AccessDecision::Denied => {
                    denied += 1;
                    self.audit.record(
                        now,
                        Some(membrane.subject()),
                        AuditEventKind::AccessDenied {
                            purpose: purpose.clone(),
                            pd: id,
                        },
                    );
                }
                decision => allowed.push((id, decision)),
            }
        }

        // ded_load_data: fetch the approved records only.
        let ids: Vec<PdId> = allowed.iter().map(|(id, _)| *id).collect();
        let records = self.dbfs.load_records(&data_type, &ids)?;
        let schema = self.dbfs.schema(&data_type)?;

        // ded_execute (+ build_membrane + store for produced PD).
        let mut result = InvokeResult {
            denied,
            ..InvokeResult::default()
        };
        for (record, (_, decision)) in records.iter().zip(allowed.iter()) {
            // Apply the view restriction the membrane imposes (data
            // minimisation): the implementation only ever sees the fields the
            // subject allowed for this purpose.
            let visible_row = match decision.view() {
                Some(view_name) => match schema.view(view_name) {
                    Some(view) => view.apply(record.row()),
                    None => record.row().clone(),
                },
                None => record.row().clone(),
            };
            result.processed += 1;
            match (processing.spec.function)(&visible_row) {
                Err(_) => result.errors += 1,
                Ok(ProcessingOutput::Nothing) => {}
                Ok(ProcessingOutput::Value(value)) => result.values.push(value),
                Ok(ProcessingOutput::PersonalData {
                    data_type: out_type,
                    row,
                }) => {
                    if self.dbfs.schema(&out_type).is_err() {
                        return Err(DedError::UnknownOutputType {
                            name: out_type.to_string(),
                        });
                    }
                    let membrane = record.membrane().for_derived(now);
                    let new_id = self
                        .dbfs
                        .insert_wrapped(&out_type, WrappedPd::new(row, membrane))?;
                    // ded_return hands back a reference, never the data.
                    result.produced.push(PdRef::new(out_type, new_id));
                }
            }
        }

        // The processing log: which processing touched which PD (used by the
        // right of access).
        self.audit.record(
            now,
            None,
            AuditEventKind::ProcessingExecuted {
                processing: processing.id,
                purpose,
                pds: ids,
            },
        );
        Ok(result)
    }

    /// Convenience wrapper: invoke a processing by name.
    ///
    /// # Errors
    ///
    /// Returns [`DedError::Ps`] when no processing has this name, plus every
    /// error [`DedEngine::invoke`] can produce.
    pub fn invoke_by_name(
        &self,
        name: &str,
        request: InvokeRequest,
    ) -> Result<InvokeResult, DedError> {
        let processing =
            self.ps
                .find_by_name(name)
                .ok_or_else(|| rgpdos_ps::PsError::UnknownProcessing {
                    id: ProcessingId::new(u64::MAX),
                })?;
        self.invoke(processing.id, request)
    }

    /// The per-PD processing history (right of access, §4): every processing
    /// execution that read this item.
    pub fn processing_log_for(&self, pd: PdId) -> Vec<rgpdos_core::AuditEvent> {
        self.audit.processings_for_pd(pd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::Builtins;
    use rgpdos_blockdev::MemDevice;
    use rgpdos_core::schema::listing1_user_schema;
    use rgpdos_core::{ConsentDecision, DataTypeSchema, FieldType, MembraneDelta, PurposeId};
    use rgpdos_crypto::escrow::Authority;
    use rgpdos_dbfs::{Dbfs, DbfsParams};
    use rgpdos_dsl::listings::{LISTING_2_C, LISTING_2_PURPOSE};
    use rgpdos_ps::{ProcessingSpec, RegistrationStatus};

    struct Harness {
        ded: DedEngine<Dbfs<Arc<MemDevice>>>,
        compute_age: ProcessingId,
    }

    fn age_pd_schema() -> DataTypeSchema {
        DataTypeSchema::builder("age_pd")
            .field("age", FieldType::Int)
            .build()
            .unwrap()
    }

    fn harness() -> Harness {
        let device = Arc::new(MemDevice::new(8192, 512));
        let dbfs = Arc::new(Dbfs::format(device, DbfsParams::small()).unwrap());
        dbfs.create_type(listing1_user_schema()).unwrap();
        dbfs.create_type(age_pd_schema()).unwrap();
        let machine = Arc::new(Machine::default_machine().unwrap());
        let ps = ProcessingStore::with_audit(dbfs.audit());
        let authority = Authority::generate(1);
        let escrow = Arc::new(OperatorEscrow::new(authority.public_key()));
        let ded = DedEngine::new(dbfs, machine, ps.clone(), escrow);

        let spec = ProcessingSpec::builder("compute_age", "user")
            .source(LISTING_2_C)
            .purpose_declaration(LISTING_2_PURPOSE)
            .unwrap()
            .expected_view("v_ano")
            .output_type("age_pd")
            .function(Arc::new(|row| {
                // Listing 2: the implementation must check that the field it
                // needs is visible for this purpose.
                match row.get("year_of_birthdate").and_then(FieldValue::as_int) {
                    Some(year) => Ok(ProcessingOutput::Value(FieldValue::Int(2022 - year))),
                    None => Err("age not allowed to be seen".to_owned()),
                }
            }))
            .build();
        let outcome = ps.register(spec).unwrap();
        assert_eq!(outcome.status, RegistrationStatus::Approved);
        Harness {
            ded,
            compute_age: outcome.id,
        }
    }

    fn user_row(name: &str, year: i64) -> Row {
        Row::new()
            .with("name", name)
            .with("pwd", "pw")
            .with("year_of_birthdate", year)
    }

    #[test]
    fn listing_3_end_to_end_compute_age() {
        let h = harness();
        // ps_invoke with data collection: initialise DBFS from the "web form".
        let request = InvokeRequest::whole_type().with_collection(vec![
            (SubjectId::new(1), user_row("Chiraz", 1990)),
            (SubjectId::new(2), user_row("Raphael", 2000)),
        ]);
        let result = h.ded.invoke(h.compute_age, request).unwrap();
        assert_eq!(result.processed, 2);
        assert_eq!(result.denied, 0);
        assert_eq!(result.errors, 0);
        let mut ages: Vec<i64> = result
            .values
            .iter()
            .filter_map(FieldValue::as_int)
            .collect();
        ages.sort_unstable();
        assert_eq!(ages, vec![22, 32]);
        // The caller got values, not personal data rows.
        assert!(result.produced.is_empty());
    }

    #[test]
    fn consent_filtering_denies_unconsenting_subjects() {
        let h = harness();
        let dbfs = h.ded.dbfs();
        let id1 = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("A", 1990))
            .unwrap();
        let _id2 = dbfs
            .collect(&"user".into(), SubjectId::new(2), user_row("B", 1980))
            .unwrap();
        // Subject 1 withdraws purpose3 (it was granted by default consent
        // under legitimate interest, so the subject sets it to none through a
        // grant of None under their own consent).
        dbfs.apply_membrane_delta(
            &"user".into(),
            id1,
            &MembraneDelta::Grant {
                purpose: PurposeId::from("purpose3"),
                decision: ConsentDecision::None,
            },
        )
        .unwrap();
        let result = h
            .ded
            .invoke(h.compute_age, InvokeRequest::whole_type())
            .unwrap();
        assert_eq!(result.processed, 1);
        assert_eq!(result.denied, 1);
        // The denial is audited.
        assert_eq!(
            h.ded
                .audit()
                .count_matching(|e| matches!(e.kind, AuditEventKind::AccessDenied { .. })),
            1
        );
    }

    #[test]
    fn view_restriction_hides_fields_from_the_implementation() {
        let h = harness();
        let dbfs = h.ded.dbfs();
        dbfs.collect(&"user".into(), SubjectId::new(1), user_row("Hidden", 1970))
            .unwrap();
        // Register a processing that tries to read the name under purpose3
        // (restricted to v_ano, which only exposes the birth year).
        let spec = ProcessingSpec::builder("leak_name", "user")
            .source("/* purpose3 */ fn leak_name() {}")
            .purpose_name("purpose3")
            .function(Arc::new(|row| match row.get("name") {
                Some(name) => Ok(ProcessingOutput::Value(name.clone())),
                None => Err("name is not visible".to_owned()),
            }))
            .build();
        let outcome = h.ded.processing_store().register(spec).unwrap();
        let result = h
            .ded
            .invoke(outcome.id, InvokeRequest::whole_type())
            .unwrap();
        // The membrane allowed the purpose, but only through the v_ano view:
        // the implementation never saw the name.
        assert_eq!(result.processed, 1);
        assert_eq!(result.errors, 1);
        assert!(result.values.is_empty());
    }

    #[test]
    fn produced_personal_data_is_stored_and_returned_by_reference() {
        let h = harness();
        let dbfs = h.ded.dbfs();
        dbfs.collect(&"user".into(), SubjectId::new(7), user_row("Derive", 1992))
            .unwrap();
        let spec = ProcessingSpec::builder("materialize_age", "user")
            .source("/* purpose1 */ fn materialize_age() {}")
            .purpose_name("purpose1")
            .output_type("age_pd")
            .function(Arc::new(|row| {
                let year = row
                    .get("year_of_birthdate")
                    .and_then(FieldValue::as_int)
                    .ok_or("no year")?;
                Ok(ProcessingOutput::PersonalData {
                    data_type: "age_pd".into(),
                    row: Row::new().with("age", 2022 - year),
                })
            }))
            .build();
        let outcome = h.ded.processing_store().register(spec).unwrap();
        let result = h
            .ded
            .invoke(outcome.id, InvokeRequest::whole_type())
            .unwrap();
        assert_eq!(result.produced.len(), 1);
        let reference = &result.produced[0];
        assert_eq!(reference.data_type().as_str(), "age_pd");
        // The derived record exists in DBFS, wrapped in a derived membrane of
        // the same subject.
        let derived = dbfs.get(reference.data_type(), reference.pd()).unwrap();
        assert_eq!(derived.subject(), SubjectId::new(7));
        assert_eq!(derived.membrane().origin(), rgpdos_core::Origin::Derived);
        assert_eq!(derived.row().get("age").unwrap().as_int(), Some(30));
    }

    #[test]
    fn produced_data_of_unknown_type_is_rejected() {
        let h = harness();
        h.ded
            .dbfs()
            .collect(&"user".into(), SubjectId::new(1), user_row("X", 1990))
            .unwrap();
        let spec = ProcessingSpec::builder("bad_output", "user")
            .source("/* purpose1 */")
            .purpose_name("purpose1")
            .function(Arc::new(|_row| {
                Ok(ProcessingOutput::PersonalData {
                    data_type: "not_a_table".into(),
                    row: Row::new().with("x", 1i64),
                })
            }))
            .build();
        let outcome = h.ded.processing_store().register(spec).unwrap();
        assert!(matches!(
            h.ded.invoke(outcome.id, InvokeRequest::whole_type()),
            Err(DedError::UnknownOutputType { .. })
        ));
    }

    #[test]
    fn unapproved_processings_cannot_be_invoked() {
        let h = harness();
        let spec = ProcessingSpec::builder("mismatch", "user")
            .source("/* purpose1 */")
            .purpose_declaration(LISTING_2_PURPOSE)
            .unwrap()
            .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
            .build();
        let outcome = h.ded.processing_store().register(spec).unwrap();
        assert_eq!(outcome.status, RegistrationStatus::PendingApproval);
        assert!(matches!(
            h.ded.invoke(outcome.id, InvokeRequest::whole_type()),
            Err(DedError::Ps(rgpdos_ps::PsError::NotApproved { .. }))
        ));
        // After sysadmin approval the invocation goes through.
        h.ded.processing_store().approve(outcome.id).unwrap();
        assert!(h
            .ded
            .invoke(outcome.id, InvokeRequest::whole_type())
            .is_ok());
        // Unknown processings are reported as such.
        assert!(matches!(
            h.ded
                .invoke(ProcessingId::new(999), InvokeRequest::whole_type()),
            Err(DedError::Ps(_))
        ));
        assert!(h
            .ded
            .invoke_by_name("compute_age", InvokeRequest::whole_type())
            .is_ok());
        assert!(h
            .ded
            .invoke_by_name("ghost", InvokeRequest::whole_type())
            .is_err());
    }

    #[test]
    fn single_and_subject_targets() {
        let h = harness();
        let dbfs = h.ded.dbfs();
        let id1 = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("A", 1990))
            .unwrap();
        dbfs.collect(&"user".into(), SubjectId::new(2), user_row("B", 1980))
            .unwrap();
        dbfs.collect(&"user".into(), SubjectId::new(2), user_row("C", 1970))
            .unwrap();

        let single = h
            .ded
            .invoke(
                h.compute_age,
                InvokeRequest::single(PdRef::new("user".into(), id1)),
            )
            .unwrap();
        assert_eq!(single.processed, 1);

        let subject = h
            .ded
            .invoke(h.compute_age, InvokeRequest::subject(SubjectId::new(2)))
            .unwrap();
        assert_eq!(subject.processed, 2);
    }

    #[test]
    fn single_target_distinguishes_missing_record_from_missing_table() {
        let h = harness();
        // A processing whose input type was never installed in DBFS fails
        // for the single target exactly as it does for the other targets.
        let spec = ProcessingSpec::builder("ghost_input", "ghost_table")
            .source("/* purpose1 */")
            .purpose_name("purpose1")
            .function(Arc::new(|_row| Ok(ProcessingOutput::Nothing)))
            .build();
        let outcome = h.ded.processing_store().register(spec).unwrap();
        assert!(matches!(
            h.ded.invoke(
                outcome.id,
                InvokeRequest::single(PdRef::new("ghost_table".into(), PdId::new(0))),
            ),
            Err(DedError::Dbfs(rgpdos_dbfs::DbfsError::UnknownType { .. }))
        ));
        // An unknown id in an installed table is just an empty target.
        let result = h
            .ded
            .invoke(
                h.compute_age,
                InvokeRequest::single(PdRef::new("user".into(), PdId::new(999))),
            )
            .unwrap();
        assert_eq!(result.processed + result.denied, 0);
    }

    #[test]
    fn processing_log_supports_right_of_access() {
        let h = harness();
        let dbfs = h.ded.dbfs();
        let id = dbfs
            .collect(&"user".into(), SubjectId::new(1), user_row("Logged", 1990))
            .unwrap();
        h.ded
            .invoke(h.compute_age, InvokeRequest::whole_type())
            .unwrap();
        h.ded
            .invoke(h.compute_age, InvokeRequest::whole_type())
            .unwrap();
        let log = h.ded.processing_log_for(id);
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|e| matches!(
            &e.kind,
            AuditEventKind::ProcessingExecuted { purpose, .. } if purpose.as_str() == "purpose3"
        )));
    }

    #[test]
    fn builtins_are_reachable_through_the_engine() {
        let h = harness();
        let builtins = Builtins::new(&h.ded);
        let id = builtins
            .acquire("user", SubjectId::new(3), user_row("Built", 1999))
            .unwrap();
        builtins
            .update(&"user".into(), id, user_row("Built2", 1999))
            .unwrap();
        let copy = builtins.copy(&"user".into(), id).unwrap();
        assert_ne!(copy, id);
        builtins.delete(&"user".into(), id).unwrap();
        let record = h.ded.dbfs().get(&"user".into(), id).unwrap();
        assert!(record.membrane().is_erased());
    }
}
