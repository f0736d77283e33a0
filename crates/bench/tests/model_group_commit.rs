//! Model-checked suite for the journal group-commit cut logic.
//!
//! `Dbfs::collect_many` stages N inserts into shared compound transactions
//! and cuts a new group whenever the staged write set would overflow the
//! journal's crash-atomic capacity.  Here a batch sized to force several
//! cuts races a concurrent single-record `collect` on the **real** `Dbfs`
//! stack (index lock, compound transactions, journal, cache); the seeded
//! random scheduler explores thousands of interleavings of their lock
//! acquisitions.
//!
//! Invariants checked after every interleaving: both writers succeed, the
//! identifiers are unique, every record is readable, and the full index
//! invariant suite holds (secondary indexes agree with the on-disk
//! membranes).

use rgpdos::blockdev::MemDevice;
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{Row, SubjectId};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore};
use rgpdos_conc::{spawn, Checker};
use std::sync::Arc;

fn user_row(name: &str) -> Row {
    Row::new()
        .with("name", name)
        .with("pwd", "hunter2")
        .with("year_of_birthdate", 1970i64)
}

fn group_commit_model() {
    let device = Arc::new(MemDevice::new(8192, 512));
    // A small journal forces the batch below to cut several groups.
    let mut params = DbfsParams::small();
    params.inode_params.journal_blocks = 16;
    let dbfs = Arc::new(Dbfs::format(device, params).expect("format dbfs"));
    dbfs.create_type(listing1_user_schema())
        .expect("create table");

    let batch_store = Arc::clone(&dbfs);
    let batcher = spawn(move || {
        let rows: Vec<(SubjectId, Row)> = (0..6u64)
            .map(|i| (SubjectId::new(i % 3), user_row(&format!("batch{i}"))))
            .collect();
        batch_store
            .collect_many(&"user".into(), rows)
            .expect("batched insert")
    });

    let single_store = Arc::clone(&dbfs);
    let single = spawn(move || {
        single_store
            .collect(&"user".into(), SubjectId::new(9), user_row("solo"))
            .expect("single insert")
    });

    let mut ids = batcher.join();
    ids.push(single.join());

    // Both writers landed, ids are unique, every record is readable.
    assert_eq!(dbfs.count(&"user".into()).unwrap(), 7, "a record was lost");
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate PdId handed out");
    for id in &ids {
        dbfs.get(&"user".into(), *id).expect("record readable");
    }
    // The secondary indexes agree with the on-disk membranes.
    dbfs.verify_index_invariants().expect("index invariants");
}

#[test]
fn group_commit_cuts_survive_a_concurrent_writer() {
    let report = Checker::random(3_000, 0xD5C0_0002)
        .max_steps(400_000)
        .run(group_commit_model);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert_eq!(report.executions, 3_000);
    assert_eq!(report.truncated, 0, "executions hit the step bound");
}
