//! Deterministic state-machine replication: the wave journal and
//! snapshot-bootstrapped read replicas.
//!
//! Every serving layer in this workspace is pinned to **bit-identical
//! answers**, and [`apply_wave`](crate::SpannerOracle::apply_wave) is a
//! deterministic function of the oracle's state and the wave. That is the
//! whole replication protocol: replicas that apply the same ordered wave
//! log converge to byte-identical snapshots — determinism replaces
//! coordination, so read scaling needs no consensus, only an ordered
//! journal.
//!
//! * A [`WaveJournal`] is the append-only log the primary's wave writer
//!   feeds **atomically with epoch publication** (see
//!   [`OracleService`](crate::OracleService): the entry is appended while
//!   the wave writer still holds the epoch slot, so no reader can observe
//!   an epoch whose journal entry is missing). Each [`JournalEntry`]
//!   carries the epoch the wave published, the wave itself, and the
//!   [`WaveReport::digest`] of what applying it decided.
//! * A [`Replica`] bootstraps from a [`Snapshot`] (any epoch at or past
//!   the journal's base), replays entries through `apply_wave`, and checks
//!   every entry's report digest — divergence is detected *at the entry
//!   that caused it* ([`ReplicationError::Divergence`]), not at the next
//!   full-state comparison.
//!
//! ## Journal wire format
//!
//! ```text
//! magic "FTSPANWJ" (8) · version u32 · base_epoch u64 · count u64 ·
//! count × entry
//! entry := epoch u64 · fault_set · report_digest u64 ·
//!          checksum u64 (FNV-1a-64 of the entry's preceding bytes)
//! ```
//!
//! Entries reuse the [`ftspan::wire`] fault-set codec and are individually
//! FNV-1a-checksummed, so a journal truncated or corrupted in storage or
//! transit fails at the damaged entry with a typed error, never a panic.

use ftspan::wire::{decode_fault_set, encode_fault_set};
use ftspan::FaultSet;
use ftspan_graph::wire::{fnv1a64, WireError, WireReader, WireWriter};

use crate::churn::{ChurnConfig, WaveReport};
use crate::snapshot::{Snapshot, SnapshotError, Snapshottable};
use crate::traits::SpannerOracle;

/// Errors produced by the replication tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// The bytes do not start with the journal magic.
    BadMagic,
    /// The journal was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// An entry's FNV-1a checksum does not match its bytes.
    EntryChecksum {
        /// Zero-based index of the damaged entry.
        index: usize,
    },
    /// An entry does not continue the epoch sequence — the journal has a
    /// hole, or a replica was offered an entry it is not ready for.
    EpochGap {
        /// The epoch the sequence requires next.
        expected: u64,
        /// The epoch that was offered.
        found: u64,
    },
    /// Replaying an entry produced a different [`WaveReport::digest`] than
    /// the primary recorded: the replica's state has diverged, and this
    /// entry is where it became observable.
    Divergence {
        /// The epoch of the diverging entry.
        epoch: u64,
        /// The digest the primary recorded.
        expected: u64,
        /// The digest the replica computed.
        found: u64,
    },
    /// The bootstrap snapshot failed to restore.
    Snapshot(SnapshotError),
    /// The journal bytes failed structural decoding.
    Wire(WireError),
}

impl core::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not an ftspan wave journal (bad magic)"),
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported journal version {found} (this build reads version {})",
                WaveJournal::VERSION
            ),
            Self::EntryChecksum { index } => {
                write!(f, "journal entry {index} failed its checksum")
            }
            Self::EpochGap { expected, found } => write!(
                f,
                "journal epoch gap: expected epoch {expected}, found {found}"
            ),
            Self::Divergence {
                epoch,
                expected,
                found,
            } => write!(
                f,
                "replica diverged at epoch {epoch}: report digest {found:#018x} \
                 != primary's {expected:#018x}"
            ),
            Self::Snapshot(e) => write!(f, "bootstrap snapshot failed: {e}"),
            Self::Wire(e) => write!(f, "journal bytes malformed: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ReplicationError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<SnapshotError> for ReplicationError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// One committed wave: the epoch it published, the wave itself, and the
/// digest of the [`WaveReport`] applying it produced on the primary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// The backend epoch *after* this wave was applied (entries of a
    /// journal based at `B` carry epochs `B+1, B+2, …` with no holes).
    pub epoch: u64,
    /// The permanent fault wave.
    pub wave: FaultSet,
    /// [`WaveReport::digest`] of the primary's apply — what a replica must
    /// reproduce bit-for-bit when it replays this entry.
    pub report_digest: u64,
}

/// Encodes one journal entry onto `w`: epoch, wave, report digest, then an
/// FNV-1a-64 checksum of those bytes.
pub fn encode_journal_entry(entry: &JournalEntry, w: &mut WireWriter) {
    let start = w.len();
    w.put_u64(entry.epoch);
    encode_fault_set(&entry.wave, &mut *w);
    w.put_u64(entry.report_digest);
    let checksum = fnv1a64(&w.as_slice()[start..]);
    w.put_u64(checksum);
}

/// Decodes one journal entry, verifying its checksum. `index` is the
/// entry's position, used only to label a checksum failure.
pub fn decode_journal_entry(
    r: &mut WireReader<'_>,
    index: usize,
) -> Result<JournalEntry, ReplicationError> {
    let entry = JournalEntry {
        epoch: r.u64()?,
        wave: decode_fault_set(r)?,
        report_digest: r.u64()?,
    };
    // The fault-set codec is canonical (constructors sort + dedup), so
    // re-encoding the decoded entry reproduces the writer's bytes exactly;
    // any mismatch — including non-canonical bytes smuggled onto the wire —
    // reads as corruption.
    let mut scratch = WireWriter::new();
    scratch.put_u64(entry.epoch);
    encode_fault_set(&entry.wave, &mut scratch);
    scratch.put_u64(entry.report_digest);
    if r.u64()? != fnv1a64(scratch.as_slice()) {
        return Err(ReplicationError::EntryChecksum { index });
    }
    Ok(entry)
}

/// The append-only, epoch-continuous log of committed waves. See the
/// [module docs](self) for the wire format and the replication contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveJournal {
    base_epoch: u64,
    entries: Vec<JournalEntry>,
}

impl WaveJournal {
    /// The magic bytes every encoded journal starts with.
    pub const MAGIC: [u8; 8] = *b"FTSPANWJ";
    /// The format version this build writes and reads.
    pub const VERSION: u32 = 1;

    /// An empty journal whose first entry will publish `base_epoch + 1`.
    #[must_use]
    pub fn new(base_epoch: u64) -> Self {
        Self {
            base_epoch,
            entries: Vec::new(),
        }
    }

    /// The epoch of the state the journal starts after; a snapshot at this
    /// epoch (or any later one still covered) can bootstrap from it.
    #[must_use]
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The epoch of the newest entry (`base_epoch` when empty).
    #[must_use]
    pub fn head_epoch(&self) -> u64 {
        self.base_epoch + self.entries.len() as u64
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no wave has been journaled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Appends the next committed wave. The entry must continue the epoch
    /// sequence exactly (`head_epoch() + 1`).
    ///
    /// # Errors
    ///
    /// [`ReplicationError::EpochGap`] when it does not.
    pub fn append(&mut self, entry: JournalEntry) -> Result<(), ReplicationError> {
        let expected = self.head_epoch() + 1;
        if entry.epoch != expected {
            return Err(ReplicationError::EpochGap {
                expected,
                found: entry.epoch,
            });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// The entries a follower at `epoch` still has to apply, oldest first
    /// — or `None` when `epoch` predates [`WaveJournal::base_epoch`] (the
    /// journal cannot serve the gap; re-bootstrap from a fresh snapshot).
    #[must_use]
    pub fn entries_since(&self, epoch: u64) -> Option<&[JournalEntry]> {
        if epoch < self.base_epoch {
            return None;
        }
        let skip = usize::try_from(epoch - self.base_epoch).unwrap_or(usize::MAX);
        Some(
            self.entries
                .get(skip.min(self.entries.len())..)
                .unwrap_or(&[]),
        )
    }

    /// Serializes the journal (header plus checksummed entries).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(32 + self.entries.len() * 48);
        for b in Self::MAGIC {
            w.put_u8(b);
        }
        w.put_u32(Self::VERSION);
        w.put_u64(self.base_epoch);
        w.put_len(self.entries.len());
        for entry in &self.entries {
            encode_journal_entry(entry, &mut w);
        }
        w.into_vec()
    }

    /// Deserializes a journal written by [`WaveJournal::encode`],
    /// re-validating every entry checksum and the epoch continuity.
    ///
    /// # Errors
    ///
    /// Typed [`ReplicationError`]s for foreign magic, unknown versions,
    /// malformed bytes, damaged entries, and epoch holes.
    pub fn decode(bytes: &[u8]) -> Result<Self, ReplicationError> {
        let mut r = WireReader::new(bytes);
        if r.take(8)? != Self::MAGIC {
            return Err(ReplicationError::BadMagic);
        }
        let version = r.u32()?;
        if version != Self::VERSION {
            return Err(ReplicationError::UnsupportedVersion { found: version });
        }
        let base_epoch = r.u64()?;
        let count = r.len(24)?;
        let mut journal = Self::new(base_epoch);
        journal.entries.reserve(count);
        for index in 0..count {
            journal.append(decode_journal_entry(&mut r, index)?)?;
        }
        r.finish()?;
        Ok(journal)
    }
}

/// A follower: an oracle bootstrapped from a snapshot that replays journal
/// entries through [`apply_wave`](crate::SpannerOracle::apply_wave),
/// asserting every entry's report digest.
///
/// The replica must replay with the **same** [`ChurnConfig`] the primary
/// applies waves under — the repair decisions (and therefore the digests
/// and the converged state) are a function of it.
#[derive(Debug)]
pub struct Replica<O> {
    oracle: O,
    churn: ChurnConfig,
}

impl<O: SpannerOracle + Snapshottable> Replica<O> {
    /// Bootstraps a replica from snapshot bytes (a `SNAPSHOT` download, a
    /// [`Snapshot::capture`], or a warm-restart file).
    ///
    /// # Errors
    ///
    /// [`ReplicationError::Snapshot`] when the bytes fail to restore.
    pub fn bootstrap(snapshot: &[u8], churn: ChurnConfig) -> Result<Self, ReplicationError> {
        Ok(Self::from_oracle(Snapshot::restore::<O>(snapshot)?, churn))
    }

    /// Wraps an already-restored (or freshly built, for an epoch-0 journal)
    /// oracle as a replica.
    #[must_use]
    pub fn from_oracle(oracle: O, churn: ChurnConfig) -> Self {
        Self { oracle, churn }
    }

    /// The replica's current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.oracle.epoch()
    }

    /// Read access to the replica's oracle — this is what serves reads.
    #[must_use]
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Dissolves the replica and returns its oracle (promotion hands this
    /// to a primary-role service).
    #[must_use]
    pub fn into_oracle(self) -> O {
        self.oracle
    }

    /// How many entries the replica is behind `journal`'s head.
    #[must_use]
    pub fn lag(&self, journal: &WaveJournal) -> u64 {
        journal.head_epoch().saturating_sub(self.epoch())
    }

    /// Replays one entry: checks epoch continuity, applies the wave, and
    /// asserts the report digest against the primary's.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::EpochGap`] when the entry is not the next one;
    /// [`ReplicationError::Divergence`] when the digest mismatches. The
    /// wave *has been applied* when divergence is reported — the replica
    /// must be considered corrupt and re-bootstrapped.
    pub fn apply_entry(&mut self, entry: &JournalEntry) -> Result<WaveReport, ReplicationError> {
        let expected = self.epoch() + 1;
        if entry.epoch != expected {
            return Err(ReplicationError::EpochGap {
                expected,
                found: entry.epoch,
            });
        }
        let report = self.oracle.apply_wave(&entry.wave, &self.churn);
        let found = report.digest();
        if found != entry.report_digest {
            return Err(ReplicationError::Divergence {
                epoch: entry.epoch,
                expected: entry.report_digest,
                found,
            });
        }
        Ok(report)
    }

    /// Replays every entry past the replica's epoch, skipping entries it
    /// has already applied. Returns how many entries were applied.
    ///
    /// # Errors
    ///
    /// See [`Replica::apply_entry`]; stops at the first failing entry.
    pub fn catch_up<'a>(
        &mut self,
        entries: impl IntoIterator<Item = &'a JournalEntry>,
    ) -> Result<usize, ReplicationError> {
        let mut applied = 0usize;
        for entry in entries {
            if entry.epoch <= self.epoch() {
                continue;
            }
            self.apply_entry(entry)?;
            applied += 1;
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FaultOracle, OracleOptions};
    use ftspan::SpannerParams;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn oracle(seed: u64) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(24, 0.3, &mut rng);
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default())
    }

    fn entry(epoch: u64, v: usize, digest: u64) -> JournalEntry {
        JournalEntry {
            epoch,
            wave: FaultSet::vertices([vid(v)]),
            report_digest: digest,
        }
    }

    #[test]
    fn journal_round_trips_and_rejects_gaps() {
        let mut journal = WaveJournal::new(3);
        journal.append(entry(4, 1, 0xAA)).unwrap();
        journal.append(entry(5, 2, 0xBB)).unwrap();
        assert_eq!(journal.head_epoch(), 5);
        assert!(matches!(
            journal.append(entry(7, 3, 0xCC)),
            Err(ReplicationError::EpochGap {
                expected: 6,
                found: 7
            })
        ));
        let decoded = WaveJournal::decode(&journal.encode()).unwrap();
        assert_eq!(decoded, journal);
        assert_eq!(decoded.entries_since(4).unwrap().len(), 1);
        assert_eq!(decoded.entries_since(5).unwrap().len(), 0);
        assert!(decoded.entries_since(2).is_none(), "pre-base gap");
    }

    #[test]
    fn corrupt_journal_bytes_fail_typed_at_the_damaged_entry() {
        let mut journal = WaveJournal::new(0);
        journal.append(entry(1, 1, 0x11)).unwrap();
        journal.append(entry(2, 2, 0x22)).unwrap();
        let mut bytes = journal.encode();
        assert!(matches!(
            WaveJournal::decode(&bytes[..10]),
            Err(ReplicationError::Wire(_))
        ));
        // Flip one byte inside the *second* entry's digest.
        let last_digest = bytes.len() - 16;
        bytes[last_digest] ^= 0x40;
        assert!(matches!(
            WaveJournal::decode(&bytes),
            Err(ReplicationError::EntryChecksum { index: 1 })
        ));
        let mut magic = journal.encode();
        magic[0] ^= 0xFF;
        assert!(matches!(
            WaveJournal::decode(&magic),
            Err(ReplicationError::BadMagic)
        ));
    }

    #[test]
    fn replica_replays_to_identical_snapshots() {
        let mut primary = oracle(9);
        let snapshot = Snapshot::capture(&primary);
        let churn = ChurnConfig::default();
        let mut journal = WaveJournal::new(primary.epoch());
        for v in [3usize, 11, 7] {
            let wave = FaultSet::vertices([vid(v)]);
            let report = crate::SpannerOracle::apply_wave(&mut primary, &wave, &churn);
            journal
                .append(JournalEntry {
                    epoch: primary.epoch(),
                    wave,
                    report_digest: report.digest(),
                })
                .unwrap();
        }
        let mut replica: Replica<FaultOracle> =
            Replica::bootstrap(&snapshot, churn.clone()).unwrap();
        let applied = replica
            .catch_up(journal.entries_since(replica.epoch()).unwrap())
            .unwrap();
        assert_eq!(applied, 3);
        assert_eq!(replica.epoch(), primary.epoch());
        assert_eq!(replica.lag(&journal), 0);
        assert_eq!(
            Snapshot::capture(replica.oracle()),
            Snapshot::capture(&primary),
            "replayed replica must re-capture byte-identically"
        );
    }

    #[test]
    fn divergence_is_caught_at_the_lying_entry() {
        let mut primary = oracle(10);
        let snapshot = Snapshot::capture(&primary);
        let churn = ChurnConfig::default();
        let wave = FaultSet::vertices([vid(5)]);
        let report = crate::SpannerOracle::apply_wave(&mut primary, &wave, &churn);
        let mut replica: Replica<FaultOracle> = Replica::bootstrap(&snapshot, churn).unwrap();
        let lying = JournalEntry {
            epoch: primary.epoch(),
            wave,
            report_digest: report.digest() ^ 1,
        };
        assert!(matches!(
            replica.apply_entry(&lying),
            Err(ReplicationError::Divergence { epoch, .. }) if epoch == primary.epoch()
        ));
        // And an out-of-order entry is a gap, checked before any apply.
        let skip = JournalEntry {
            epoch: primary.epoch() + 5,
            wave: FaultSet::vertices([vid(1)]),
            report_digest: 0,
        };
        assert!(matches!(
            replica.apply_entry(&skip),
            Err(ReplicationError::EpochGap { .. })
        ));
    }
}
