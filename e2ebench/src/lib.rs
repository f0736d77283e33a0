//! End-to-end GDPR-rights benchmark for the rgpdOS runtime.
//!
//! Each workload boots the runtime, ingests a seeded population and drives
//! the public calls (`right_of_access`, `right_to_portability`,
//! `right_to_be_forgotten`, `grant_consent`, `collect`, `invoke`) in a
//! closed loop, checking every reply against a shadow model.  A traced run
//! rebuilds the same stack with timing wrappers at the store and device
//! boundaries and splits each op's time into per-layer self times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod report;
pub mod speed;
pub mod stack;
pub mod trace;
pub mod workload;
