//! The shadow model the correctness oracle checks every reply against, and
//! the seeded generator that picks each op's target from it.

use crate::stack::expected_age;
use rgpdos::core::{FieldValue, PdId};
use rgpdos::ded::InvokeResult;
use rgpdos::rights::{ErasureReceipt, SubjectAccessPackage};
use std::collections::{BTreeMap, HashSet};

/// SplitMix64: a small, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Stratified uniforms in `[0, 1)`: the additive recurrence
/// `frac(offset + k / golden ratio)` from a seeded offset.  Any run of `k`
/// consecutive draws covers `[0, 1)` nearly evenly, so the share of ops that
/// hit the hottest subjects barely varies from seed to seed, while iid draws
/// would let a handful of very large subjects swing a whole run.
#[derive(Debug, Clone)]
pub struct Stratified {
    offset: f64,
    step: u64,
}

impl Stratified {
    /// A sequence with a seeded offset.
    pub fn new(rng: &mut Rng) -> Self {
        Self {
            offset: rng.unit(),
            step: 0,
        }
    }

    /// The next draw.
    pub fn draw(&mut self) -> f64 {
        const INVERSE_GOLDEN: f64 = 0.618_033_988_749_894_9;
        self.step += 1;
        (self.offset + self.step as f64 * INVERSE_GOLDEN).fract()
    }
}

/// What the model knows of one live record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordModel {
    /// `year_of_birthdate`.
    pub year: i64,
    /// Whether the membrane lets `compute_age` run on it.
    pub allowed: bool,
}

/// Each subject's live records, plus the live subjects in rank order.
#[derive(Debug, Clone)]
pub struct Model {
    subjects: Vec<BTreeMap<u64, RecordModel>>,
    consent_changes: Vec<u32>,
    live: Vec<usize>,
    harmonic: Vec<f64>,
    ids_seen: HashSet<u64>,
}

impl Model {
    /// An empty model over `subjects` subject ranks.
    pub fn new(subjects: usize) -> Self {
        let mut harmonic = Vec::with_capacity(subjects + 1);
        let mut acc = 0.0;
        harmonic.push(acc);
        for rank in 0..subjects {
            acc += 1.0 / (rank + 1) as f64;
            harmonic.push(acc);
        }
        Self {
            subjects: vec![BTreeMap::new(); subjects],
            consent_changes: vec![0; subjects],
            live: Vec::new(),
            harmonic,
            ids_seen: HashSet::new(),
        }
    }

    /// Records a collected row.
    ///
    /// # Errors
    ///
    /// Fails when the store handed out an id twice.
    pub fn add(&mut self, subject: usize, id: PdId, year: i64) -> Result<(), String> {
        if !self.ids_seen.insert(id.raw()) {
            return Err(format!("{id} was handed out twice"));
        }
        if self.subjects[subject].is_empty() {
            let at = self.live.partition_point(|&s| s < subject);
            self.live.insert(at, subject);
        }
        self.subjects[subject].insert(
            id.raw(),
            RecordModel {
                year,
                allowed: true,
            },
        );
        Ok(())
    }

    /// The live records of `subject`.
    pub fn records(&self, subject: usize) -> &BTreeMap<u64, RecordModel> {
        &self.subjects[subject]
    }

    /// Live subjects, in rank order.
    pub fn live_subjects(&self) -> &[usize] {
        &self.live
    }

    /// Live records over every subject.
    pub fn live_records(&self) -> usize {
        self.subjects.iter().map(BTreeMap::len).sum()
    }

    /// A live subject: Zipf-1.0 over every subject rank, redrawn until the
    /// drawn subject is live, so each live subject keeps its popularity.
    pub fn zipf_live(&self, draws: &mut Stratified) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        let n = self.subjects.len();
        loop {
            let draw = draws.draw() * self.harmonic[n];
            let rank = self.harmonic[1..]
                .partition_point(|&h| h <= draw)
                .min(n - 1);
            if !self.subjects[rank].is_empty() {
                return Some(rank);
            }
        }
    }

    /// Applies an erasure of `subject`.
    pub fn erase(&mut self, subject: usize) {
        self.subjects[subject].clear();
        self.live.retain(|&s| s != subject);
    }

    /// The decision the next consent change of `subject` makes: changes
    /// alternate between withdrawing and granting, starting with a
    /// withdrawal of the default consent.
    pub fn next_consent_allows(&self, subject: usize) -> bool {
        self.consent_changes[subject] % 2 == 1
    }

    /// Applies a consent change of `subject`.
    pub fn set_consent(&mut self, subject: usize, allowed: bool) {
        self.consent_changes[subject] += 1;
        for record in self.subjects[subject].values_mut() {
            record.allowed = allowed;
        }
    }

    /// Checks an access or portability package against `subject`'s records.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_package(
        &self,
        subject: usize,
        package: &SubjectAccessPackage,
    ) -> Result<(), String> {
        let expected = &self.subjects[subject];
        if package.items.len() != expected.len() {
            return Err(format!(
                "subject {subject}: package holds {} items, model {}",
                package.items.len(),
                expected.len()
            ));
        }
        for item in &package.items {
            let model = expected
                .get(&item.pd_id)
                .ok_or_else(|| format!("subject {subject}: unexpected item pd-{}", item.pd_id))?;
            let year = item
                .fields
                .get("year_of_birthdate")
                .and_then(FieldValue::as_int);
            if year != Some(model.year) {
                return Err(format!(
                    "subject {subject}: pd-{} year {year:?}, model {}",
                    item.pd_id, model.year
                ));
            }
        }
        Ok(())
    }

    /// Checks an erasure receipt against `subject`'s records.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_receipt(&self, subject: usize, receipt: &ErasureReceipt) -> Result<(), String> {
        let mut erased: Vec<u64> = receipt.erased.iter().map(|id| id.raw()).collect();
        erased.sort_unstable();
        let expected: Vec<u64> = self.subjects[subject].keys().copied().collect();
        if erased != expected {
            return Err(format!(
                "subject {subject}: erased {erased:?}, model {expected:?}"
            ));
        }
        Ok(())
    }

    /// Checks an invocation over `records` (the target's live records).
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_invoke<'a>(
        records: impl Iterator<Item = &'a RecordModel>,
        result: &InvokeResult,
    ) -> Result<(), String> {
        let mut expected = Vec::new();
        let mut denied = 0usize;
        for record in records {
            if record.allowed {
                expected.push(expected_age(record.year));
            } else {
                denied += 1;
            }
        }
        let mut values: Vec<i64> = result
            .values
            .iter()
            .filter_map(FieldValue::as_int)
            .collect();
        values.sort_unstable();
        expected.sort_unstable();
        if result.errors != 0
            || result.processed != expected.len()
            || result.denied != denied
            || values != expected
        {
            return Err(format!(
                "invoke processed {} denied {} errors {} values {}; model processed {} denied {denied}",
                result.processed,
                result.denied,
                result.errors,
                values.len(),
                expected.len()
            ));
        }
        Ok(())
    }

    /// Every live record over every subject.
    pub fn all_records(&self) -> impl Iterator<Item = &RecordModel> {
        self.subjects.iter().flat_map(BTreeMap::values)
    }
}

/// FNV-1a over 64-bit words: the op-outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `word` in.
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
