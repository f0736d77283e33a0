//! Crash-point regression for the batched (group-commit) write path.
//!
//! A `collect_many` batch is journaled as a handful of group commits
//! instead of one journal transaction per record.  This sweep crashes the
//! batch at **every** device write index and asserts that recovery leaves a
//! clean *prefix* of the batch — whole groups, never a torn record — and in
//! particular that the window **between a group's in-place flush and its
//! journal checkpoint/scrub** rolls forward via mount-time journal replay.

use rgpdos::blockdev::{FaultPlan, FaultyDevice, MemDevice};
use rgpdos::core::schema::listing1_user_schema;
use rgpdos::core::{Row, SubjectId};
use rgpdos::dbfs::{Dbfs, DbfsParams, PdStore, QueryRequest};
use std::sync::Arc;

fn batch_rows(n: u64) -> Vec<(SubjectId, Row)> {
    (0..n)
        .map(|i| {
            (
                SubjectId::new(i % 4),
                Row::new()
                    .with("name", format!("batch-{i}"))
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 1970i64 + i as i64),
            )
        })
        .collect()
}

fn fresh_image() -> Arc<MemDevice> {
    let device = Arc::new(MemDevice::new(16_384, 512));
    // A deliberately small journal so the batch cannot fit one journal
    // transaction: the group-commit path must cut several groups, putting
    // real group boundaries inside the sweep.
    let mut params = DbfsParams::small();
    params.inode_params.journal_blocks = 16;
    let dbfs = Dbfs::format(Arc::clone(&device), params).expect("format image");
    dbfs.create_type(listing1_user_schema())
        .expect("install user type");
    device
}

#[test]
fn group_commit_crashes_leave_a_clean_prefix_at_every_write_index() {
    const BATCH: u64 = 12;

    // Reference run: learn the total write count and prove the batch really
    // is group-committed (fewer journal transactions than records).
    let reference = fresh_image();
    let probe = FaultyDevice::new(Arc::clone(&reference), FaultPlan::None);
    let cell = probe.cell();
    let dbfs = Dbfs::mount(probe).expect("reference mount");
    let (total_writes, ids) =
        cell.writes_between(|| dbfs.collect_many(&"user".into(), batch_rows(BATCH)));
    assert_eq!(ids.expect("reference batch").len(), BATCH as usize);
    let groups = dbfs.inode_fs().journal_txs();
    assert!(
        groups > 1 && groups < BATCH,
        "the batch must span several group commits: {groups} journal txs for {BATCH} records"
    );
    assert!(total_writes > 10, "the batch spans many device writes");
    drop(dbfs);

    let mut rolled_forward = 0usize;
    let mut prefix_lengths: Vec<usize> = Vec::new();
    for crash_after in 0..total_writes {
        let device = fresh_image();
        let dbfs = Dbfs::mount(FaultyDevice::new(
            Arc::clone(&device),
            FaultPlan::CrashAfterWrites(crash_after),
        ))
        .expect("pre-crash mount");
        assert!(
            dbfs.collect_many(&"user".into(), batch_rows(BATCH))
                .is_err(),
            "crash point {crash_after} must trip"
        );
        drop(dbfs);

        let remounted = Dbfs::mount(Arc::clone(&device)).expect("post-crash mount");
        remounted
            .verify_index_invariants()
            .unwrap_or_else(|e| panic!("crash {crash_after}: invariants violated: {e}"));
        // The committed records are exactly a prefix of the batch: ids are
        // assigned densely in input order and groups commit in order, so
        // the surviving id set must be 0..k with every row intact.
        let batch = remounted
            .query(&QueryRequest::all("user"))
            .unwrap_or_else(|e| panic!("crash {crash_after}: records unreadable: {e}"));
        let mut raws: Vec<u64> = batch.iter().map(|record| record.id().raw()).collect();
        raws.sort_unstable();
        let expected: Vec<u64> = (0..raws.len() as u64).collect();
        assert_eq!(
            raws, expected,
            "crash {crash_after}: committed records must form a clean prefix"
        );
        for record in batch.iter() {
            let name = record.row().get("name").and_then(|v| v.as_text()).unwrap();
            assert_eq!(
                name,
                format!("batch-{}", record.id().raw()),
                "crash {crash_after}: record contents torn"
            );
        }
        prefix_lengths.push(raws.len());
        if remounted.stats().journal_replays > 0 {
            // This crash point landed between a group's journal commit
            // record and its checkpoint/scrub — the flush-to-journal-clear
            // window — and the whole group was rolled forward by replay.
            rolled_forward += 1;
        }
        // The store stays usable after recovery.
        remounted
            .collect(
                &"user".into(),
                SubjectId::new(99),
                Row::new()
                    .with("name", "post-crash")
                    .with("pwd", "pw")
                    .with("year_of_birthdate", 2000i64),
            )
            .unwrap_or_else(|e| panic!("crash {crash_after}: store unusable: {e}"));
    }

    assert!(
        rolled_forward > 0,
        "some crash point must land between the group-commit flush and the \
         journal clear, exercising mount-time replay"
    );
    // Early crash points commit nothing, late ones commit everything, and
    // intermediate group boundaries appear in between.
    assert_eq!(*prefix_lengths.first().unwrap(), 0);
    assert_eq!(*prefix_lengths.last().unwrap() as u64, BATCH);
    assert!(
        prefix_lengths
            .iter()
            .any(|&len| len > 0 && (len as u64) < BATCH),
        "some crash point must land between two committed groups"
    );
}
