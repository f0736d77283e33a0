//! # rgpdos-dbfs — the database-oriented filesystem
//!
//! DBFS is the heart of rgpdOS's storage story (§1 Idea 3, §2 "File System",
//! §3(1)): personal data is not stored as anonymous byte files but as typed
//! rows in tables, each row wrapped in its [`Membrane`](rgpdos_core::Membrane).
//! The implementation follows the paper's description of the re-architected
//! uFS layout with **two major inode trees** built over the
//! [`rgpdos_inode`] layer:
//!
//! * the **subject tree** gathers every piece of personal data of each
//!   subject (one subtree per subject, grouping the data *and* its
//!   membranes);
//! * the **schema tree** provides the database structure: one subtree per
//!   table (data type) describing its fields and pointing at the records of
//!   that type.
//!
//! DBFS is always formatted with the scrubbed journal and zero-on-free
//! policies, so that the right to be forgotten holds against the raw device —
//! the property the paper shows conventional filesystems violate.  Erasure is
//! implemented as **crypto-erasure** through the authority escrow of
//! [`rgpdos_crypto`]: the ciphertext tombstone and membrane survive (so the
//! audit trail and the authorities' ability to investigate are preserved),
//! the plaintext does not.
//!
//! DBFS must only ever be called by the DED and the rgpdOS built-ins; that
//! rule is enforced by the LSM layer of the `rgpdos-kernel` crate and
//! exercised in the integration tests.
//!
//! ## Split record layout and secondary indexes (format v2)
//!
//! Each record inode holds a **length-prefixed membrane header followed by
//! the row payload** ([`rgpdos_core::record::stored`]).  Membrane-only reads
//! — the `ded_load_membrane` request that consent filtering runs on — fetch
//! and decode the header section without ever reading the payload, making
//! data minimisation hold at the storage layer too.  Mounting a format-v1
//! image (single-section JSON records, bare-counter metadata) migrates it in
//! place.
//!
//! The in-memory index keeps four secondary maps besides the primary record
//! map: per-table and per-subject id sets (bounding every scan to the
//! records actually involved), a **reverse copy-lineage** map (so the right
//! to be forgotten reaches every *transitive* copy via a pure index walk),
//! and an **expiry** map keyed by expiry instant (so retention sweeps only
//! visit records that actually expired).  [`PdStore::verify_index_invariants`]
//! checks all of them against the primary map and the on-disk headers.
//!
//! ## Batched writes: journal group commit
//!
//! The hot write path is batched: [`PdStore::collect_many`],
//! [`PdStore::insert_many`] and [`PdStore::update_rows`] coalesce N independent
//! mutations into shared compound transactions (**group commits**), cut at
//! the inode journal's capacity bound so each group — and therefore each
//! record — stays crash-atomic.  Reads are served through the inode
//! layer's LRU buffer cache, which only ever holds committed contents
//! (dirty data lives in the transaction overlay until the commit's flush
//! barrier) and is updated in place by crypto-erasure writes, so no erased
//! plaintext survives in memory either.
//!
//! ## One storage API
//!
//! [`PdStore`] is the only record-level surface: [`Dbfs`] implements it
//! directly, with no inherent copies of its methods, so callers import the
//! trait (`rgpdos::prelude` re-exports it).  What stays inherent is specific
//! to DBFS: format/mount, cache control, erase intents and the index views a
//! routing layer needs.
//!
//! ## Example
//!
//! ```rust
//! use rgpdos_blockdev::MemDevice;
//! use rgpdos_core::prelude::*;
//! use rgpdos_core::schema::listing1_user_schema;
//! use rgpdos_dbfs::{Dbfs, DbfsParams, PdStore};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), rgpdos_dbfs::DbfsError> {
//! let dbfs = Dbfs::format(Arc::new(MemDevice::new(4096, 512)), DbfsParams::default())?;
//! dbfs.create_type(listing1_user_schema())?;
//! let row = Row::new()
//!     .with("name", "Chiraz")
//!     .with("pwd", "secret")
//!     .with("year_of_birthdate", 1990i64);
//! let user = DataTypeId::from("user");
//! let id = dbfs.collect(&user, SubjectId::new(1), row)?;
//! let record = dbfs.get(&user, id)?;
//! assert_eq!(record.membrane().subject(), SubjectId::new(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbfs;
pub mod error;
pub mod query;
pub mod scrub;
pub mod stats;
pub mod store;

pub use dbfs::{Dbfs, DbfsParams, EraseIntent, IdAllocation, RecordSummary};
pub use error::DbfsError;
pub use query::{Predicate, QueryRequest};
pub use scrub::{ScrubReport, Scrubber, SpaceStats};
pub use stats::DbfsStats;
pub use store::PdStore;
