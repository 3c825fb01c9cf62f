//! Warm-restart snapshots: serialize an oracle's expensive state, restore it
//! without re-running construction.
//!
//! The paper's greedy construction dominates the cost of standing up an
//! oracle — on a thousand-vertex sharded deployment it is minutes of CPU,
//! while everything the serving layer derives from it (regions, boundary
//! index, frontiers) is a cheap pure function of the constructed state. A
//! [`Snapshot`] therefore persists exactly the expensive, non-derivable
//! state — effective graph, spanner, parameters, certificates, accumulated
//! damage, shard plan, epochs — and [`Snapshot::restore`] rebuilds the derived
//! serving structures deterministically. Restored oracles give **bit-
//! identical answers**: the graphs round-trip through
//! [`ftspan_graph::wire`] with exact weight bits and identical CSR layout,
//! and every downstream structure is deterministic in them.
//!
//! Transient serving state — tree caches, metrics, scratch buffers — is
//! deliberately *not* captured; a restored oracle starts with cold caches
//! and zeroed counters, exactly like a freshly built one.
//!
//! Bit-identical restoration is also the **replication bootstrap handoff**:
//! a [`Replica`](crate::replication::Replica) starts life as
//! `Snapshot::restore` of a primary's capture, then replays the primary's
//! wave journal from the snapshot's epoch — determinism of both the restore
//! and of `apply_wave` is what lets a re-captured replica snapshot come out
//! byte-identical to the primary's (the `replication_vs_primary` suite pins
//! this).
//!
//! ## Wire format
//!
//! ```text
//! magic "FTSPANSS" (8) · version u32 · kind u8 · payload_len u64 ·
//! checksum u64 (FNV-1a-64 of payload) · payload
//! ```
//!
//! `kind` is `0` for a [`FaultOracle`], `1` for a flat [`ShardedOracle`],
//! `2` for a grouped one (see [`crate::hierarchy`]), whose payload adds the
//! shard → super-shard assignment and the requested super-shard count. A
//! [`ShardedOracle`] restores from either kind. The version (currently
//! `2`) is bumped on any payload layout change; version `1` payloads, which
//! led with the pristine input graph, are still read (that graph is checked
//! against the vertex set and dropped). [`Snapshot::restore`] rejects
//! unknown versions, foreign magic, checksum mismatches, and snapshots of
//! the wrong kind with a typed [`SnapshotError`] — never a panic, since
//! these bytes cross process boundaries.
//!
//! ```
//! use ftspan::SpannerParams;
//! use ftspan_graph::generators;
//! use ftspan_oracle::{FaultOracle, OracleOptions, Snapshot};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graph = generators::connected_gnp(24, 0.3, &mut rng);
//! let oracle = FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
//!
//! let bytes = Snapshot::capture(&oracle);
//! let warm: FaultOracle = Snapshot::restore(&bytes).unwrap();
//! assert_eq!(warm.spanner().edge_count(), oracle.spanner().edge_count());
//! ```

use ftspan::wire::{decode_certificate, decode_params, encode_certificate, encode_params};
use ftspan_graph::wire::{fnv1a64, WireError, WireReader, WireWriter};
use ftspan_graph::{vid, Graph, VertexId};

use crate::hierarchy::ShardGrouping;
use crate::oracle::{FaultOracle, OracleOptions, TreeStore, CACHE_CAPACITY};
use crate::shard::{
    ShardPlan, ShardPlanOptions, ShardedOptions, ShardedOracle, PARTITIONS, SHIFT_BETA,
};

/// Errors produced when restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header names a kind this build does not know.
    UnknownKind {
        /// The kind byte found in the header.
        tag: u8,
    },
    /// The snapshot holds a different oracle kind than the one requested.
    WrongKind {
        /// The kind the caller asked to restore.
        expected: SnapshotKind,
        /// The kind recorded in the header.
        found: SnapshotKind,
    },
    /// The payload checksum does not match the header — the bytes were
    /// truncated or corrupted in storage or transit.
    ChecksumMismatch,
    /// The payload failed structural decoding.
    Wire(WireError),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not an ftspan snapshot (bad magic)"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads versions {}–{})",
                    Snapshot::V1,
                    Snapshot::VERSION
                )
            }
            Self::UnknownKind { tag } => write!(f, "unknown snapshot kind tag {tag}"),
            Self::WrongKind { expected, found } => {
                write!(
                    f,
                    "snapshot holds a {found:?} oracle, expected {expected:?}"
                )
            }
            Self::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            Self::Wire(e) => write!(f, "snapshot payload malformed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Which oracle backend a snapshot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A [`FaultOracle`].
    Single,
    /// A flat [`ShardedOracle`].
    Sharded,
    /// A [`ShardedOracle`] whose boundary index covers super-shards.
    Hierarchical,
}

impl SnapshotKind {
    fn tag(self) -> u8 {
        match self {
            Self::Single => 0,
            Self::Sharded => 1,
            Self::Hierarchical => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(Self::Single),
            1 => Ok(Self::Sharded),
            2 => Ok(Self::Hierarchical),
            tag => Err(SnapshotError::UnknownKind { tag }),
        }
    }
}

mod sealed {
    /// Restricts [`Snapshottable`](super::Snapshottable) to the shipped
    /// oracle backends — the payload codecs reassemble crate-private state.
    pub trait Sealed {}
    impl Sealed for crate::oracle::FaultOracle {}
    impl Sealed for crate::shard::ShardedOracle {}
}

/// An oracle backend that can be captured into and restored from snapshot
/// bytes. Sealed: implemented by [`FaultOracle`] and [`ShardedOracle`] only.
pub trait Snapshottable: sealed::Sealed + Sized {
    /// The kind a restore into this type expects, as reported by
    /// [`SnapshotError::WrongKind`].
    #[doc(hidden)]
    const KIND: SnapshotKind;

    /// The kind tag written into this oracle's snapshot header.
    #[doc(hidden)]
    fn kind(&self) -> SnapshotKind {
        Self::KIND
    }

    /// Whether a snapshot of `kind` restores into this type.
    #[doc(hidden)]
    fn reads(kind: SnapshotKind) -> bool {
        kind == Self::KIND
    }

    /// Encodes the non-derivable state onto `w`.
    #[doc(hidden)]
    fn encode_payload(&self, w: &mut WireWriter);

    /// Decodes a payload of format `version` and kind `kind` written by
    /// [`Snapshottable::encode_payload`] and rebuilds the derived serving
    /// state.
    #[doc(hidden)]
    fn decode_payload(
        r: &mut WireReader<'_>,
        version: u32,
        kind: SnapshotKind,
    ) -> Result<Self, SnapshotError>;
}

/// Capture and restore entry points for oracle snapshots. See the
/// [module docs](self) for the format and guarantees.
#[derive(Debug)]
pub struct Snapshot;

impl Snapshot {
    /// The magic bytes every snapshot starts with.
    pub const MAGIC: [u8; 8] = *b"FTSPANSS";
    /// The format version this build writes.
    pub const VERSION: u32 = 2;
    /// The oldest format version this build still reads: its payloads carry
    /// the pristine input graph ahead of the effective graph.
    const V1: u32 = 1;

    /// Serializes an oracle into self-contained snapshot bytes.
    #[must_use]
    pub fn capture<O: Snapshottable>(oracle: &O) -> Vec<u8> {
        let mut payload = WireWriter::new();
        oracle.encode_payload(&mut payload);
        let payload = payload.into_vec();
        let mut out = WireWriter::with_capacity(payload.len() + 64);
        for b in Self::MAGIC {
            out.put_u8(b);
        }
        out.put_u32(Self::VERSION);
        out.put_u8(oracle.kind().tag());
        out.put_len(payload.len());
        out.put_u64(fnv1a64(&payload));
        let mut bytes = out.into_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Reads the kind of oracle a snapshot holds without decoding its
    /// payload, so a generic loader can dispatch.
    pub fn peek_kind(bytes: &[u8]) -> Result<SnapshotKind, SnapshotError> {
        Ok(Self::read_header(&mut WireReader::new(bytes))?.0)
    }

    /// Deserializes snapshot bytes back into a warm oracle.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the bytes are not a snapshot, were
    /// written by an unknown version, hold the wrong oracle kind, fail the
    /// checksum, or decode to structurally invalid state.
    pub fn restore<O: Snapshottable>(bytes: &[u8]) -> Result<O, SnapshotError> {
        let mut r = WireReader::new(bytes);
        let (kind, version, payload) = Self::read_header(&mut r)?;
        if !O::reads(kind) {
            return Err(SnapshotError::WrongKind {
                expected: O::KIND,
                found: kind,
            });
        }
        let mut payload = WireReader::new(payload);
        let oracle = O::decode_payload(&mut payload, version, kind)?;
        payload.finish()?;
        Ok(oracle)
    }

    /// Validates magic, version, length, and checksum; returns the kind, the
    /// version, and the checksummed payload slice.
    fn read_header<'a>(
        r: &mut WireReader<'a>,
    ) -> Result<(SnapshotKind, u32, &'a [u8]), SnapshotError> {
        if r.take(Self::MAGIC.len())
            .map_err(|_| SnapshotError::BadMagic)?
            != Self::MAGIC
        {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if !(Self::V1..=Self::VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let kind = SnapshotKind::from_tag(r.u8()?)?;
        let len = r.len(1)?;
        let checksum = r.u64()?;
        let payload = r.take(len)?;
        r.finish()?;
        if fnv1a64(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok((kind, version, payload))
    }
}

/// Writes the oracle options. The first slot held a cache capacity, the
/// second a batch worker count and the last a cache namespace in earlier
/// builds; they are written as the fixed capacity and `0`, and skipped on
/// read, so the format (and [`Snapshot::VERSION`]) stays as it was.
fn encode_oracle_options(options: &OracleOptions, w: &mut WireWriter) {
    w.put_len(CACHE_CAPACITY);
    w.put_len(0);
    w.put_u8(u8::from(options.collect_certificates));
    w.put_u64(0);
}

fn decode_oracle_options(r: &mut WireReader<'_>) -> Result<OracleOptions, SnapshotError> {
    let _retired_cache_capacity = r.len(0)?;
    let _retired_workers = r.len(0)?;
    let collect_certificates = r.u8()? != 0;
    let _retired_namespace = r.u64()?;
    Ok(OracleOptions {
        collect_certificates,
    })
}

fn decode_graph(r: &mut WireReader<'_>) -> Result<Graph, SnapshotError> {
    Ok(Graph::decode_wire(r)?)
}

impl Snapshottable for FaultOracle {
    const KIND: SnapshotKind = SnapshotKind::Single;

    fn encode_payload(&self, w: &mut WireWriter) {
        self.graph.encode_wire(w);
        self.spanner.encode_wire(w);
        encode_params(self.params, w);
        encode_oracle_options(&self.options, w);
        w.put_len(self.certificates.len());
        for cert in &self.certificates {
            encode_certificate(cert, w);
        }
        w.put_len(self.damage_vertices.len());
        for &v in &self.damage_vertices {
            w.put_u32(v.as_u32());
        }
        w.put_len(self.damage_edges.len());
        for &(u, v) in &self.damage_edges {
            w.put_u32(u.as_u32());
            w.put_u32(v.as_u32());
        }
        w.put_u64(self.epoch);
    }

    fn decode_payload(
        r: &mut WireReader<'_>,
        version: u32,
        _kind: SnapshotKind,
    ) -> Result<Self, SnapshotError> {
        // Version 1 led with the pristine input graph: validated, then dropped.
        let v1_vertices = if version == Snapshot::V1 {
            Some(decode_graph(r)?.vertex_count())
        } else {
            None
        };
        let graph = decode_graph(r)?;
        let spanner = decode_graph(r)?;
        let n = graph.vertex_count();
        if spanner.vertex_count() != n || v1_vertices.is_some_and(|v1| v1 != n) {
            return Err(WireError::malformed("snapshot graphs have different vertex sets").into());
        }
        let params = decode_params(r)?;
        let options = decode_oracle_options(r)?;
        let cert_count = r.len(9)?;
        let mut certificates = Vec::with_capacity(cert_count);
        for _ in 0..cert_count {
            certificates.push(decode_certificate(r)?);
        }
        let dv_count = r.len(4)?;
        let mut damage_vertices = Vec::with_capacity(dv_count);
        for _ in 0..dv_count {
            damage_vertices.push(read_vertex(r, n)?);
        }
        let de_count = r.len(8)?;
        let mut damage_edges = Vec::with_capacity(de_count);
        for _ in 0..de_count {
            damage_edges.push((read_vertex(r, n)?, read_vertex(r, n)?));
        }
        let epoch = r.u64()?;
        Ok(Self {
            graph,
            spanner,
            params,
            trees: TreeStore::new(),
            options,
            certificates,
            damage_vertices,
            damage_edges,
            epoch,
            wave_scratch: crate::churn::WaveScratch::default(),
        })
    }
}

fn read_vertex(r: &mut WireReader<'_>, n: usize) -> Result<VertexId, SnapshotError> {
    let raw = r.u32()? as usize;
    if raw >= n {
        return Err(
            WireError::malformed(format!("vertex id {raw} out of range for {n} vertices")).into(),
        );
    }
    Ok(vid(raw))
}

impl Snapshottable for ShardedOracle {
    const KIND: SnapshotKind = SnapshotKind::Sharded;

    fn kind(&self) -> SnapshotKind {
        if self.grouping.is_some() {
            SnapshotKind::Hierarchical
        } else {
            SnapshotKind::Sharded
        }
    }

    fn reads(kind: SnapshotKind) -> bool {
        matches!(kind, SnapshotKind::Sharded | SnapshotKind::Hierarchical)
    }

    /// The shift rate, draw count and halo option were settable in earlier
    /// builds. Their slots stay: the rate and count are written as the
    /// plan's constants and the halo option as "derived" (tag `0`), and all
    /// three are skipped on read. The resolved halo radius after the oracle
    /// options is still honoured, so older snapshots restore the regions
    /// they were captured with.
    fn encode_payload(&self, w: &mut WireWriter) {
        self.global.encode_payload(w);
        w.put_len(self.plan.vertex_count());
        for i in 0..self.plan.vertex_count() {
            w.put_u32(self.plan.shard_of(vid(i)));
        }
        if let Some(grouping) = &self.grouping {
            w.put_len(grouping.super_of_shard.len());
            for &s in &grouping.super_of_shard {
                w.put_u32(s);
            }
        }
        w.put_len(self.options.plan.shards);
        w.put_u64(self.options.plan.seed);
        w.put_f64(SHIFT_BETA);
        w.put_len(PARTITIONS);
        if let Some(super_shards) = self.options.super_shards {
            w.put_len(super_shards);
        }
        w.put_u8(0);
        encode_oracle_options(&self.options.oracle, w);
        w.put_u32(self.halo_radius);
        w.put_len(self.shard_epochs.len());
        for &e in &self.shard_epochs {
            w.put_u64(e);
        }
    }

    fn decode_payload(
        r: &mut WireReader<'_>,
        version: u32,
        kind: SnapshotKind,
    ) -> Result<Self, SnapshotError> {
        let grouped = kind == SnapshotKind::Hierarchical;
        let global = FaultOracle::decode_payload(r, version, SnapshotKind::Single)?;
        let n = r.len(4)?;
        if n != global.graph.vertex_count() {
            return Err(WireError::malformed(format!(
                "shard plan covers {n} vertices, graph has {}",
                global.graph.vertex_count()
            ))
            .into());
        }
        let mut shard_of = Vec::with_capacity(n);
        for _ in 0..n {
            shard_of.push(r.u32()?);
        }
        let plan = ShardPlan::from_shard_of(shard_of);
        let super_of_shard = if grouped {
            let shard_count = r.len(4)?;
            if shard_count != plan.shard_count() {
                return Err(WireError::malformed(format!(
                    "{shard_count} super assignments for {} shards",
                    plan.shard_count()
                ))
                .into());
            }
            let mut super_of_shard = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                super_of_shard.push(r.u32()?);
            }
            Some(super_of_shard)
        } else {
            None
        };
        let plan_options = ShardPlanOptions {
            shards: r.len(0)?,
            seed: r.u64()?,
        };
        let _retired_beta = r.f64()?;
        let _retired_partitions = r.len(0)?;
        let super_shards = if grouped { Some(r.len(0)?) } else { None };
        match r.u8()? {
            0 => {}
            1 => {
                let _retired_halo_option = r.u32()?;
            }
            tag => {
                return Err(WireError::malformed(format!("unknown halo radius tag {tag}")).into())
            }
        }
        let options = ShardedOptions {
            plan: plan_options,
            oracle: decode_oracle_options(r)?,
            super_shards,
        };
        let halo_radius = r.u32()?;
        let epoch_count = r.len(8)?;
        if epoch_count != plan.shard_count() {
            return Err(WireError::malformed(format!(
                "{epoch_count} shard epochs for {} shards",
                plan.shard_count()
            ))
            .into());
        }
        let mut shard_epochs = Vec::with_capacity(epoch_count);
        for _ in 0..epoch_count {
            shard_epochs.push(r.u64()?);
        }

        // Everything else is *derived* state — the super plan, the boundary
        // index and the interned regions, a pure function of the restored
        // graphs, spanner, plan and grouping — rebuilt by the same code a
        // cold build runs, so the restored oracle serves bit-identical
        // answers.
        let grouping = super_of_shard
            .map(|super_of_shard| {
                ShardGrouping::new(&plan, super_of_shard)
                    .ok_or_else(|| WireError::malformed("shard id out of super assignment range"))
            })
            .transpose()?;
        Ok(Self::assemble(
            global,
            plan,
            grouping,
            shard_epochs,
            halo_radius,
            options,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{HierarchicalOptions, HierarchicalOracle};
    use ftspan::{FaultSet, SpannerParams};
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(40, 0.2, &mut rng)
    }

    fn single(seed: u64) -> FaultOracle {
        FaultOracle::build(
            workload(seed),
            SpannerParams::vertex(2, 1),
            OracleOptions::default(),
        )
    }

    #[test]
    fn single_oracle_round_trips_bit_identically() {
        let oracle = single(3);
        let bytes = Snapshot::capture(&oracle);
        let restored: FaultOracle = Snapshot::restore(&bytes).expect("restores");
        assert_eq!(restored.params(), oracle.params());
        assert_eq!(restored.epoch(), oracle.epoch());
        assert_eq!(restored.certificates().len(), oracle.certificates().len());
        for (u, v) in [(0, 17), (4, 31), (8, 8)] {
            for faults in [FaultSet::vertices([]), FaultSet::vertices([vid(5)])] {
                let want = oracle.distance(vid(u), vid(v), &faults);
                let got = restored.distance(vid(u), vid(v), &faults);
                assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits));
            }
        }
        // Capturing the restored oracle reproduces the exact same bytes.
        assert_eq!(Snapshot::capture(&restored), bytes);
    }

    #[test]
    fn sharded_oracle_round_trips_with_derived_state() {
        let oracle = ShardedOracle::build(
            workload(4),
            SpannerParams::vertex(2, 1),
            ShardedOptions::default(),
        );
        let bytes = Snapshot::capture(&oracle);
        let restored: ShardedOracle = Snapshot::restore(&bytes).expect("restores");
        assert_eq!(restored.shard_count(), oracle.shard_count());
        assert_eq!(restored.plan(), oracle.plan());
        assert_eq!(restored.halo_radius(), oracle.halo_radius());
        assert_eq!(restored.shard_epochs(), oracle.shard_epochs());
        for s in 0..oracle.shard_count() {
            assert_eq!(restored.shard_members(s), oracle.shard_members(s));
        }
        assert_eq!(
            restored.boundary().cut_edges().len(),
            oracle.boundary().cut_edges().len()
        );
        assert_eq!(Snapshot::capture(&restored), bytes);
    }

    #[test]
    fn hierarchical_oracle_round_trips_with_derived_state() {
        let oracle = HierarchicalOracle::build(
            workload(8),
            SpannerParams::vertex(2, 1),
            HierarchicalOptions {
                super_shards: 2,
                ..HierarchicalOptions::default()
            },
        );
        let bytes = Snapshot::capture(&oracle);
        assert_eq!(
            Snapshot::peek_kind(&bytes).unwrap(),
            SnapshotKind::Hierarchical
        );
        let restored: HierarchicalOracle = Snapshot::restore(&bytes).expect("restores");
        assert_eq!(restored.shard_count(), oracle.shard_count());
        assert_eq!(restored.shard_epochs(), oracle.shard_epochs());
        let grouping = |o: &ShardedOracle| {
            let g = o.grouping.as_ref().expect("grouped");
            (g.super_of_shard.clone(), g.plan.clone())
        };
        assert_eq!(grouping(&restored), grouping(&oracle));
        for s in 0..oracle.shard_count() {
            assert_eq!(restored.shard_members(s), oracle.shard_members(s));
        }
        assert_eq!(
            restored.boundary().cut_edges().len(),
            oracle.boundary().cut_edges().len()
        );
        // Restored answers are bit-identical, including across a churn wave
        // applied to both copies.
        let mut warm = restored;
        let mut cold = oracle;
        let wave = FaultSet::vertices([vid(7)]);
        warm.apply_wave(&wave, &crate::ChurnConfig::default());
        cold.apply_wave(&wave, &crate::ChurnConfig::default());
        for (u, v) in [(0usize, 31usize), (3, 17), (12, 29)] {
            for faults in [FaultSet::vertices([]), FaultSet::vertices([vid(4)])] {
                assert_eq!(
                    warm.distance(vid(u), vid(v), &faults).map(f64::to_bits),
                    cold.distance(vid(u), vid(v), &faults).map(f64::to_bits)
                );
            }
        }
        assert_eq!(Snapshot::capture(&warm), Snapshot::capture(&cold));
    }

    /// Frames a hand-built payload with a snapshot header.
    fn framed(version: u32, kind: SnapshotKind, payload: &[u8]) -> Vec<u8> {
        let mut bytes = b"FTSPANSS".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.push(kind.tag());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// Hand-encodes a version-1 snapshot of `oracle`: the v1 header, then
    /// the payload with `leading` (the pristine input graph) in front.
    fn v1_snapshot<O: Snapshottable>(oracle: &O, leading: &Graph) -> Vec<u8> {
        let mut payload = WireWriter::new();
        leading.encode_wire(&mut payload);
        oracle.encode_payload(&mut payload);
        framed(Snapshot::V1, oracle.kind(), &payload.into_vec())
    }

    fn churn<O: crate::SpannerOracle>(oracle: &mut O) {
        for wave in [
            FaultSet::vertices([vid(3), vid(21)]),
            FaultSet::edges([ftspan_graph::eid(5), ftspan_graph::eid(40)]),
            FaultSet::vertices([vid(12)]),
        ] {
            oracle.apply_wave(&wave, &crate::ChurnConfig::default());
        }
    }

    fn assert_same_answers<O: crate::SpannerOracle>(a: &O, b: &O) {
        for (u, v) in [(0usize, 17usize), (4, 31), (9, 38), (8, 8)] {
            for faults in [FaultSet::vertices([]), FaultSet::vertices([vid(5)])] {
                assert_eq!(
                    a.distance(vid(u), vid(v), &faults).map(f64::to_bits),
                    b.distance(vid(u), vid(v), &faults).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn version_one_snapshots_still_restore() {
        let mut single = single(9);
        churn(&mut single);
        let v2 = Snapshot::capture(&single);
        let old: FaultOracle =
            Snapshot::restore(&v1_snapshot(&single, &workload(9))).expect("v1 restores");
        assert_same_answers(&old, &single);
        assert_eq!(Snapshot::capture(&old), v2);

        let mut sharded = ShardedOracle::build(
            workload(10),
            SpannerParams::vertex(2, 1),
            ShardedOptions::default(),
        );
        churn(&mut sharded);
        let v2 = Snapshot::capture(&sharded);
        let old: ShardedOracle =
            Snapshot::restore(&v1_snapshot(&sharded, &workload(10))).expect("v1 restores");
        assert_eq!(old.shard_epochs(), sharded.shard_epochs());
        assert_same_answers(&old, &sharded);
        assert_eq!(Snapshot::capture(&old), v2);
    }

    /// The capture bytes of a fixed single, flat and grouped oracle, one
    /// wave in, pinned by checksum: the payload layout of every kind is a
    /// wire contract with replicas and files on disk.
    #[test]
    fn sharded_snapshot_bytes_are_pinned() {
        let wave = FaultSet::vertices([vid(7)]);
        let mut one = single(4);
        one.apply_wave(&wave, &crate::ChurnConfig::default());
        let single_bytes = Snapshot::capture(&one);
        assert_eq!(single_bytes.len(), 6900);
        assert_eq!(fnv1a64(&single_bytes), 0x4bce_94fc_0bdd_bc5b);

        let mut flat = ShardedOracle::build(
            workload(4),
            SpannerParams::vertex(2, 1),
            ShardedOptions::default(),
        );
        flat.apply_wave(&wave, &crate::ChurnConfig::default());
        let flat_bytes = Snapshot::capture(&flat);
        assert_eq!(flat_bytes.len(), 7170);
        assert_eq!(fnv1a64(&flat_bytes), 0x41ef_04e1_e6b0_0d42);

        let mut grouped = ShardedOracle::build(
            workload(8),
            SpannerParams::vertex(2, 1),
            HierarchicalOptions {
                super_shards: 2,
                ..HierarchicalOptions::default()
            },
        );
        grouped.apply_wave(&wave, &crate::ChurnConfig::default());
        let grouped_bytes = Snapshot::capture(&grouped);
        assert_eq!(grouped_bytes.len(), 7357);
        assert_eq!(fnv1a64(&grouped_bytes), 0x3d7d_2b44_079f_624f);

        // Kind 2 restores into the one sharded type and answers identically.
        assert_eq!(
            Snapshot::peek_kind(&grouped_bytes).unwrap(),
            SnapshotKind::Hierarchical
        );
        let restored: ShardedOracle = Snapshot::restore(&grouped_bytes).expect("restores");
        assert_same_answers(&restored, &grouped);
        assert_eq!(Snapshot::capture(&restored), grouped_bytes);

        // Neither sharded kind restores as a single oracle.
        for (bytes, found) in [
            (&flat_bytes, SnapshotKind::Sharded),
            (&grouped_bytes, SnapshotKind::Hierarchical),
        ] {
            assert_eq!(
                Snapshot::restore::<FaultOracle>(bytes).unwrap_err(),
                SnapshotError::WrongKind {
                    expected: SnapshotKind::Single,
                    found,
                }
            );
        }
    }

    /// Snapshots written while the halo radius was an option (tag `1`, then
    /// the requested radius) still restore, with the resolved radius they
    /// stored; an unknown tag is a typed error.
    #[test]
    fn snapshots_with_a_requested_halo_restore_its_radius() {
        let oracle = ShardedOracle::build(
            workload(10),
            SpannerParams::vertex(2, 1),
            ShardedOptions::default(),
        );
        let mut payload = WireWriter::new();
        oracle.encode_payload(&mut payload);
        let mut payload = payload.into_vec();
        // Tail: halo tag, oracle options (25 bytes), resolved radius, epochs.
        let epochs = 8 + 8 * oracle.shard_count();
        let tag = payload.len() - (1 + 25 + 4 + epochs);
        let resolved = payload.len() - (4 + epochs);
        assert_eq!(payload[tag], 0);
        payload[resolved..resolved + 4].copy_from_slice(&5u32.to_le_bytes());
        payload[tag] = 1;
        payload.splice(tag + 1..tag + 1, 5u32.to_le_bytes());

        let bytes = framed(Snapshot::VERSION, SnapshotKind::Sharded, &payload);
        let restored: ShardedOracle = Snapshot::restore(&bytes).expect("restores");
        assert_eq!((oracle.halo_radius(), restored.halo_radius()), (3, 5));
        assert_same_answers(&restored, &oracle);

        payload[tag] = 2;
        let bytes = framed(Snapshot::VERSION, SnapshotKind::Sharded, &payload);
        assert!(matches!(
            Snapshot::restore::<ShardedOracle>(&bytes).unwrap_err(),
            SnapshotError::Wire(_)
        ));
    }

    #[test]
    fn peek_kind_reads_the_header_only() {
        let bytes = Snapshot::capture(&single(5));
        assert_eq!(Snapshot::peek_kind(&bytes).unwrap(), SnapshotKind::Single);
    }

    #[test]
    fn wrong_kind_is_a_typed_error() {
        let bytes = Snapshot::capture(&single(6));
        let err = Snapshot::restore::<ShardedOracle>(&bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongKind {
                expected: SnapshotKind::Sharded,
                found: SnapshotKind::Single,
            }
        );
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let oracle = single(7);
        // A v1 leading graph over the wrong vertex set is a typed error.
        let misfit = v1_snapshot(&oracle, &Graph::new(oracle.graph().vertex_count() + 1));
        assert!(matches!(
            Snapshot::restore::<FaultOracle>(&misfit).unwrap_err(),
            SnapshotError::Wire(_)
        ));
        let bytes = Snapshot::capture(&oracle);
        // Flip one payload byte: checksum catches it.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        assert_eq!(
            Snapshot::restore::<FaultOracle>(&corrupt).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        // Truncation is caught before the checksum even runs.
        assert!(Snapshot::restore::<FaultOracle>(&bytes[..bytes.len() - 3]).is_err());
        // Foreign bytes are not a snapshot.
        assert_eq!(
            Snapshot::restore::<FaultOracle>(b"definitely not a snapshot").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Future versions are refused, not misread.
        let mut future = bytes;
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::restore::<FaultOracle>(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99 }
        );
    }
}
