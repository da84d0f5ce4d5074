//! Compact versioned binary wire format for [`WaldoModel`].
//!
//! The JSON descriptor ([`WaldoModel::to_descriptor`]) is the
//! human-auditable artifact whose size §5 reports; this module is the
//! *distribution* encoding the `waldo-serve` layer ships to devices. It is
//! byte-oriented, little-endian, and deliberately flat:
//!
//! ```text
//! prelude   := magic "WLDM" | version u8 | feature count u8 | feature tag u8…
//!              | k u32 | dim u8 | centroid f64 × (k·dim)
//! model     := prelude | locality count u32 | (payload len u32 | payload)…
//! payload   := cluster tag u8 | cluster body        (one per locality)
//! ```
//!
//! Floats travel as IEEE-754 bit patterns, so encode → decode is exact: the
//! decoded model is `==` the original (prediction caches are rebuilt by the
//! `from_parts` constructors, never shipped). Per-locality payloads are
//! self-contained by design — the epoch/delta protocol diffs and transfers
//! them individually, identified by their [`fnv1a64`] digest.

use waldo_iq::{FeatureKind, FeatureSet};
use waldo_ml::kmeans::Clustering;
use waldo_ml::logistic::LogisticModel;
use waldo_ml::nb::{ClassMoments, GaussianNb};
use waldo_ml::svm::{Kernel, SvmModel};
use waldo_ml::tree::{DecisionTree, FlatNode};
use waldo_ml::StandardScaler;

use crate::model::{ClusterModel, WaldoModel};

/// First bytes of every encoded prelude.
pub const MAGIC: [u8; 4] = *b"WLDM";

/// Current wire-format version. Decoders reject anything newer.
pub const VERSION: u8 = 1;

/// Typed decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The prelude does not start with [`MAGIC`].
    BadMagic,
    /// The encoder's version is newer than this decoder understands.
    UnsupportedVersion(u8),
    /// An enum tag byte was out of range.
    BadTag {
        /// Which enum the tag belongs to.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Structurally invalid content (dimension mismatches, bad tree shape,
    /// payload/centroid count disagreement, …).
    Malformed(&'static str),
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadMagic => write!(f, "bad magic (not a Waldo model)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after model"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit digest — the stable content identity used by the
/// epoch/delta protocol to decide whether a locality payload changed.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Primitive writers/readers (shared with waldo-serve's framing).

/// Appends a `u16`, little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Sequential little-endian reader over a byte slice. Every accessor
/// returns [`WireError::Truncated`] instead of panicking on short input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("len checked")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("len checked")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("len checked")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` consecutive `f64`s.
    pub fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        // Bound allocation by what the buffer can actually hold, so a
        // corrupt length prefix cannot trigger a huge reservation.
        if self.remaining() < n.saturating_mul(8) {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Succeeds only if every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------------
// Feature tags.

fn feature_tag(kind: FeatureKind) -> u8 {
    match kind {
        FeatureKind::Rss => 0,
        FeatureKind::Cft => 1,
        FeatureKind::Aft => 2,
        FeatureKind::QuadratureImbalance => 3,
        FeatureKind::IqKurtosis => 4,
        FeatureKind::EdgeBin => 5,
    }
}

fn feature_from_tag(tag: u8) -> Result<FeatureKind, WireError> {
    Ok(match tag {
        0 => FeatureKind::Rss,
        1 => FeatureKind::Cft,
        2 => FeatureKind::Aft,
        3 => FeatureKind::QuadratureImbalance,
        4 => FeatureKind::IqKurtosis,
        5 => FeatureKind::EdgeBin,
        other => return Err(WireError::BadTag { what: "feature", tag: other }),
    })
}

// ---------------------------------------------------------------------------
// Prelude: magic + version + features + centroids.

/// Encodes the model prelude: the routing information (feature set and
/// k-means centroids) every client needs regardless of which locality
/// payloads it downloads.
pub fn encode_prelude(features: &FeatureSet, centroids: &[Vec<f64>]) -> Vec<u8> {
    assert!(centroids.len() <= u32::MAX as usize, "locality count overflows u32");
    assert!(features.kinds().len() <= u8::MAX as usize, "feature count overflows u8");
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(features.kinds().len() as u8);
    for &kind in features.kinds() {
        out.push(feature_tag(kind));
    }
    put_u32(&mut out, centroids.len() as u32);
    let dim = centroids.first().map_or(0, Vec::len);
    assert!(dim <= u8::MAX as usize, "centroid dimension overflows u8");
    out.push(dim as u8);
    for c in centroids {
        assert_eq!(c.len(), dim, "centroid dimension mismatch");
        for &v in c {
            put_f64(&mut out, v);
        }
    }
    out
}

/// Decodes a prelude produced by [`encode_prelude`], leaving the reader
/// positioned after it.
pub fn decode_prelude(r: &mut Reader<'_>) -> Result<(FeatureSet, Vec<Vec<f64>>), WireError> {
    if r.bytes(4)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let n_features = r.u8()? as usize;
    let mut kinds = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        kinds.push(feature_from_tag(r.u8()?)?);
    }
    let k = r.u32()? as usize;
    if k == 0 {
        return Err(WireError::Malformed("zero localities"));
    }
    let dim = r.u8()? as usize;
    if dim == 0 {
        return Err(WireError::Malformed("zero-dimensional centroids"));
    }
    let mut centroids = Vec::with_capacity(k.min(r.remaining() / (dim * 8)).max(1));
    for _ in 0..k {
        centroids.push(r.f64_vec(dim)?);
    }
    Ok((FeatureSet::custom(kinds), centroids))
}

// ---------------------------------------------------------------------------
// Per-locality cluster payloads.

const TAG_CONSTANT: u8 = 0;
const TAG_SVM: u8 = 1;
const TAG_NB: u8 = 2;
const TAG_TREE: u8 = 3;
const TAG_LOGISTIC: u8 = 4;

const KERNEL_LINEAR: u8 = 0;
const KERNEL_RBF: u8 = 1;

fn encode_scaler(out: &mut Vec<u8>, scaler: &StandardScaler) {
    assert!(scaler.dim() <= u16::MAX as usize, "scaler dimension overflows u16");
    put_u16(out, scaler.dim() as u16);
    for &m in scaler.means() {
        put_f64(out, m);
    }
    for &s in scaler.stds() {
        put_f64(out, s);
    }
}

fn decode_scaler(r: &mut Reader<'_>) -> Result<StandardScaler, WireError> {
    let dim = r.u16()? as usize;
    let means = r.f64_vec(dim)?;
    let stds = r.f64_vec(dim)?;
    Ok(StandardScaler::from_parts(means, stds))
}

fn encode_moments(out: &mut Vec<u8>, m: &ClassMoments) {
    put_u64(out, m.count() as u64);
    put_u16(out, m.means().len() as u16);
    for &v in m.means() {
        put_f64(out, v);
    }
    for &v in m.vars() {
        put_f64(out, v);
    }
}

fn decode_moments(r: &mut Reader<'_>) -> Result<ClassMoments, WireError> {
    let count = r.u64()? as usize;
    let dim = r.u16()? as usize;
    let means = r.f64_vec(dim)?;
    let vars = r.f64_vec(dim)?;
    Ok(ClassMoments::from_parts(count, means, vars))
}

/// The payload a client substitutes for a locality it has not downloaded
/// (out of its fetch scope): a constant **not-safe** classifier — the
/// conservative call for territory the device holds no model for.
pub fn conservative_payload() -> Vec<u8> {
    vec![TAG_CONSTANT, 1]
}

fn encode_cluster(cluster: &ClusterModel) -> Vec<u8> {
    let mut out = Vec::new();
    match cluster {
        ClusterModel::Constant(not_safe) => {
            out.push(TAG_CONSTANT);
            out.push(u8::from(*not_safe));
        }
        ClusterModel::Svm { scaler, model } => {
            out.push(TAG_SVM);
            encode_scaler(&mut out, scaler);
            match model.kernel() {
                Kernel::Linear => out.push(KERNEL_LINEAR),
                Kernel::Rbf { gamma } => {
                    out.push(KERNEL_RBF);
                    put_f64(&mut out, gamma);
                }
            }
            let support = model.support_vectors();
            let dim = support.first().map_or(0, Vec::len);
            put_u32(&mut out, support.len() as u32);
            put_u16(&mut out, dim as u16);
            put_f64(&mut out, model.bias());
            for &c in model.coefficients() {
                put_f64(&mut out, c);
            }
            for sv in support {
                for &v in sv {
                    put_f64(&mut out, v);
                }
            }
        }
        ClusterModel::Nb { scaler, model } => {
            out.push(TAG_NB);
            encode_scaler(&mut out, scaler);
            put_f64(&mut out, model.log_prior_pos());
            put_f64(&mut out, model.log_prior_neg());
            encode_moments(&mut out, model.positive());
            encode_moments(&mut out, model.negative());
        }
        ClusterModel::Tree { scaler, model } => {
            out.push(TAG_TREE);
            encode_scaler(&mut out, scaler);
            let flat = model.flatten();
            put_u32(&mut out, flat.len() as u32);
            for node in flat {
                match node {
                    FlatNode::Leaf { not_safe } => {
                        out.push(0);
                        out.push(u8::from(not_safe));
                    }
                    FlatNode::Split { feature, threshold } => {
                        out.push(1);
                        put_u32(&mut out, feature as u32);
                        put_f64(&mut out, threshold);
                    }
                }
            }
        }
        ClusterModel::Logistic { scaler, model } => {
            out.push(TAG_LOGISTIC);
            encode_scaler(&mut out, scaler);
            put_u16(&mut out, model.weights().len() as u16);
            for &w in model.weights() {
                put_f64(&mut out, w);
            }
            put_f64(&mut out, model.bias());
        }
    }
    out
}

fn decode_cluster(r: &mut Reader<'_>) -> Result<ClusterModel, WireError> {
    Ok(match r.u8()? {
        TAG_CONSTANT => ClusterModel::Constant(r.u8()? != 0),
        TAG_SVM => {
            let scaler = decode_scaler(r)?;
            let kernel = match r.u8()? {
                KERNEL_LINEAR => Kernel::Linear,
                KERNEL_RBF => Kernel::Rbf { gamma: r.f64()? },
                other => return Err(WireError::BadTag { what: "kernel", tag: other }),
            };
            let n_sv = r.u32()? as usize;
            let dim = r.u16()? as usize;
            let bias = r.f64()?;
            let coef = r.f64_vec(n_sv)?;
            let mut support = Vec::with_capacity(n_sv.min(r.remaining() / 8 + 1));
            for _ in 0..n_sv {
                support.push(r.f64_vec(dim)?);
            }
            ClusterModel::Svm { scaler, model: SvmModel::from_parts(kernel, support, coef, bias) }
        }
        TAG_NB => {
            let scaler = decode_scaler(r)?;
            let log_prior_pos = r.f64()?;
            let log_prior_neg = r.f64()?;
            let pos = decode_moments(r)?;
            let neg = decode_moments(r)?;
            if pos.means().len() != neg.means().len() {
                return Err(WireError::Malformed("NB class dimension mismatch"));
            }
            ClusterModel::Nb {
                scaler,
                model: GaussianNb::from_parts(log_prior_pos, log_prior_neg, pos, neg),
            }
        }
        TAG_TREE => {
            let scaler = decode_scaler(r)?;
            let n_nodes = r.u32()? as usize;
            let mut flat = Vec::with_capacity(n_nodes.min(r.remaining() / 2 + 1));
            for _ in 0..n_nodes {
                flat.push(match r.u8()? {
                    0 => FlatNode::Leaf { not_safe: r.u8()? != 0 },
                    1 => FlatNode::Split { feature: r.u32()? as usize, threshold: r.f64()? },
                    other => return Err(WireError::BadTag { what: "tree node", tag: other }),
                });
            }
            let model = DecisionTree::from_flat(&flat)
                .ok_or(WireError::Malformed("tree node list is not one complete tree"))?;
            ClusterModel::Tree { scaler, model }
        }
        TAG_LOGISTIC => {
            let scaler = decode_scaler(r)?;
            let dim = r.u16()? as usize;
            let weights = r.f64_vec(dim)?;
            let bias = r.f64()?;
            ClusterModel::Logistic { scaler, model: LogisticModel::from_parts(weights, bias) }
        }
        other => Err(WireError::BadTag { what: "cluster", tag: other })?,
    })
}

// ---------------------------------------------------------------------------
// Whole-model API.

impl WaldoModel {
    /// Encodes the full model in the binary wire format.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = encode_prelude(&self.features, self.clustering.centroids());
        put_u32(&mut out, self.clusters.len() as u32);
        for cluster in &self.clusters {
            let payload = encode_cluster(cluster);
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Decodes a model encoded by [`to_wire`](Self::to_wire).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed, truncated, or
    /// version-incompatible input.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let (features, centroids) = decode_prelude(&mut r)?;
        let n = r.u32()? as usize;
        if n != centroids.len() {
            return Err(WireError::Malformed("locality count != centroid count"));
        }
        let mut payloads = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.u32()? as usize;
            payloads.push(r.bytes(len)?.to_vec());
        }
        r.finish()?;
        Self::from_locality_parts(features, centroids, &payloads)
    }

    /// The per-locality payloads the delta protocol diffs and ships, in
    /// locality order. Each payload is a self-contained encoded classifier;
    /// its [`fnv1a64`] digest identifies its content across epochs.
    pub fn locality_payloads(&self) -> Vec<Vec<u8>> {
        self.clusters.iter().map(encode_cluster).collect()
    }

    /// Reassembles a model from a decoded prelude plus one payload per
    /// locality — the client-side final step of both full and delta
    /// fetches.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if payload and centroid counts disagree or any
    /// payload is malformed.
    pub fn from_locality_parts(
        features: FeatureSet,
        centroids: Vec<Vec<f64>>,
        payloads: &[Vec<u8>],
    ) -> Result<Self, WireError> {
        if payloads.len() != centroids.len() {
            return Err(WireError::Malformed("payload count != centroid count"));
        }
        if centroids.is_empty() {
            return Err(WireError::Malformed("zero localities"));
        }
        let mut clusters = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let mut r = Reader::new(payload);
            clusters.push(decode_cluster(&mut r)?);
            r.finish()?;
        }
        Ok(Self { features, clustering: Clustering::from_centroids(centroids), clusters })
    }
}

// ---------------------------------------------------------------------------
// Crowd-sourced reading batches (the upload direction of the wire).

/// First bytes of every encoded reading batch.
pub const BATCH_MAGIC: [u8; 4] = *b"WLDR";

/// Current reading-batch wire version. Decoders reject anything newer.
pub const BATCH_VERSION: u8 = 1;

/// Encoded size of one reading: location (2), RSS (1), features (6).
const READING_F64S: usize = 9;

/// A batch of location-tagged readings one device uploads in one request.
///
/// The `batch_id` is minted by the *client* (not the server) so a retry
/// after a short write re-sends the identical identity and the ingest WAL
/// can deduplicate it — the idempotency contract of the upload path.
///
/// ```text
/// batch   := magic "WLDR" | version u8 | batch_id u64 | channel u8
///          | reading count u32 | reading…
/// reading := x_m f64 | y_m f64 | rss_dbm f64 | feature f64 × 6
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingBatch {
    /// Client-minted identity; retries reuse it (idempotent ingestion).
    pub batch_id: u64,
    /// TV channel the readings observe.
    pub channel: u8,
    /// The readings, in capture order.
    pub readings: Vec<waldo_sensors::ReadingSample>,
}

impl ReadingBatch {
    /// Encodes the batch in the binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.readings.len() <= u32::MAX as usize, "reading count overflows u32");
        let mut out = Vec::with_capacity(18 + self.readings.len() * READING_F64S * 8);
        out.extend_from_slice(&BATCH_MAGIC);
        out.push(BATCH_VERSION);
        put_u64(&mut out, self.batch_id);
        out.push(self.channel);
        put_u32(&mut out, self.readings.len() as u32);
        for r in &self.readings {
            put_f64(&mut out, r.location.x);
            put_f64(&mut out, r.location.y);
            put_f64(&mut out, r.rss_dbm);
            for v in [
                r.features.rss_db,
                r.features.cft_db,
                r.features.aft_db,
                r.features.quadrature_imbalance_db,
                r.features.iq_kurtosis,
                r.features.edge_bin_db,
            ] {
                put_f64(&mut out, v);
            }
        }
        out
    }

    /// FNV-1a-64 digest of the encoded batch — the content identity the
    /// ingest store uses for checksums and segment manifests.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.encode())
    }

    /// Decodes a batch from the front of `r`, leaving the reader
    /// positioned after it (the serve protocol embeds batches inside
    /// request frames).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated, version-skewed, or otherwise
    /// malformed input. Allocation is bounded by the reader's remaining
    /// bytes, so a corrupt count cannot trigger a huge reservation.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.bytes(4)? != BATCH_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != BATCH_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let batch_id = r.u64()?;
        let channel = r.u8()?;
        let n = r.u32()? as usize;
        if r.remaining() < n.saturating_mul(READING_F64S * 8) {
            return Err(WireError::Truncated);
        }
        let mut readings = Vec::with_capacity(n);
        for _ in 0..n {
            let x = r.f64()?;
            let y = r.f64()?;
            let rss_dbm = r.f64()?;
            let features = waldo_iq::FeatureVector {
                rss_db: r.f64()?,
                cft_db: r.f64()?,
                aft_db: r.f64()?,
                quadrature_imbalance_db: r.f64()?,
                iq_kurtosis: r.f64()?,
                edge_bin_db: r.f64()?,
            };
            readings.push(waldo_sensors::ReadingSample {
                location: waldo_geo::Point::new(x, y),
                rss_dbm,
                features,
            });
        }
        Ok(Self { batch_id, channel, readings })
    }

    /// Decodes a standalone encoded batch, requiring every byte consumed.
    ///
    /// # Errors
    ///
    /// Same as [`decode_from`](Self::decode_from), plus
    /// [`WireError::TrailingBytes`] for a batch with a suffix.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let batch = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(batch)
    }
}

// ---------------------------------------------------------------------------
// Replication channel state (the follower-sync direction of the wire).

/// First bytes of every encoded replication channel state.
pub const REPL_MAGIC: [u8; 4] = *b"WRPL";

/// Current replication wire version. Decoders accept exactly this
/// version: every replica builds from this repository, so a layout change
/// bumps it on both ends at once.
pub const REPL_VERSION: u8 = 2;

/// One locality slot as replicated between servers: the change-epoch and
/// digest always travel so a follower can mirror the leader's delta
/// bookkeeping verbatim; the payload travels only when it changed since
/// the follower's `have_epoch` (`None` = keep your copy).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplSlot {
    /// Epoch at which this payload last changed on the leader.
    pub epoch: u64,
    /// FNV-1a-64 digest of the payload (travels even when the payload
    /// does not, so an "unchanged" claim is verifiable).
    pub digest: u64,
    /// Centroid `[x_km, y_km]` used for locality scoping.
    pub centroid: [f64; 2],
    /// The encoded classifier, included iff it changed since the
    /// requester's `have_epoch`.
    pub payload: Option<Vec<u8>>,
}

const REPL_SLOT_SENT: u8 = 0;
const REPL_SLOT_UNCHANGED: u8 = 1;

/// A channel's full replication state as one leader publishes it to a
/// follower: epoch, prelude, and every locality slot (delta-encoded
/// against the follower's `have_epoch`). Unlike a device fetch response,
/// this carries per-slot change-epochs and centroids, so a follower
/// installing it serves byte-identical delta fetches to the leader —
/// which is what makes client failover between replicas seamless.
///
/// ```text
/// state := magic "WRPL" | version u8 | channel u8 | epoch u64
///        | trace_id u64
///        | prelude len u32 | prelude | slot count u32 | slot…
/// slot  := epoch u64 | digest u64 | cx f64 | cy f64
///        | 0 u8 | payload len u32 | payload      (sent)
///        | 1 u8                                  (unchanged since have_epoch)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplChannelState {
    /// TV channel this state belongs to.
    pub channel: u8,
    /// The leader's current epoch for the channel.
    pub epoch: u64,
    /// Trace ID of the request chain whose publish produced `epoch` (the
    /// uploader's request ID carried through the refit, or a minted one
    /// for internally-originated publishes). 0 = unknown — a publish that
    /// predates trace propagation. Followers mirror it verbatim, so spans
    /// on every replica join the originating trace.
    pub trace_id: u64,
    /// Encoded prelude (features + centroids), always included.
    pub prelude: Vec<u8>,
    /// Per-locality slots, in locality order.
    pub slots: Vec<ReplSlot>,
}

impl ReplChannelState {
    /// Encodes the state in the binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.slots.len() <= u32::MAX as usize, "slot count overflows u32");
        assert!(self.prelude.len() <= u32::MAX as usize, "prelude overflows u32");
        let mut out = Vec::with_capacity(22 + self.prelude.len() + self.slots.len() * 64);
        out.extend_from_slice(&REPL_MAGIC);
        out.push(REPL_VERSION);
        out.push(self.channel);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.trace_id);
        put_u32(&mut out, self.prelude.len() as u32);
        out.extend_from_slice(&self.prelude);
        put_u32(&mut out, self.slots.len() as u32);
        for slot in &self.slots {
            put_u64(&mut out, slot.epoch);
            put_u64(&mut out, slot.digest);
            put_f64(&mut out, slot.centroid[0]);
            put_f64(&mut out, slot.centroid[1]);
            match &slot.payload {
                Some(payload) => {
                    out.push(REPL_SLOT_SENT);
                    put_u32(&mut out, payload.len() as u32);
                    out.extend_from_slice(payload);
                }
                None => out.push(REPL_SLOT_UNCHANGED),
            }
        }
        out
    }

    /// Decodes a state from the front of `r`, leaving the reader
    /// positioned after it (the serve protocol embeds it in a response
    /// frame after the status byte).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated, version-skewed, or otherwise
    /// malformed input. Allocation is bounded by the reader's remaining
    /// bytes, so a corrupt count cannot trigger a huge reservation.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.bytes(4)? != REPL_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != REPL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let channel = r.u8()?;
        let epoch = r.u64()?;
        let trace_id = r.u64()?;
        let prelude_len = r.u32()? as usize;
        let prelude = r.bytes(prelude_len)?.to_vec();
        let n = r.u32()? as usize;
        // Each slot is at least 33 bytes; bound the reservation by that.
        if r.remaining() < n.saturating_mul(33) {
            return Err(WireError::Truncated);
        }
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let slot_epoch = r.u64()?;
            let digest = r.u64()?;
            let centroid = [r.f64()?, r.f64()?];
            let payload = match r.u8()? {
                REPL_SLOT_SENT => {
                    let len = r.u32()? as usize;
                    Some(r.bytes(len)?.to_vec())
                }
                REPL_SLOT_UNCHANGED => None,
                tag => return Err(WireError::BadTag { what: "replication slot", tag }),
            };
            if slot_epoch > epoch {
                return Err(WireError::Malformed("slot epoch beyond channel epoch"));
            }
            slots.push(ReplSlot { epoch: slot_epoch, digest, centroid, payload });
        }
        Ok(Self { channel, epoch, trace_id, prelude, slots })
    }

    /// Decodes a standalone encoded state, requiring every byte consumed.
    ///
    /// # Errors
    ///
    /// Same as [`decode_from`](Self::decode_from), plus
    /// [`WireError::TrailingBytes`] for a suffix.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let state = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(state)
    }

    /// Checks every included payload against its advertised digest —
    /// the install-time guard a follower runs before trusting replicated
    /// bytes.
    pub fn digests_match(&self) -> bool {
        self.slots.iter().all(|s| match &s.payload {
            Some(p) => fnv1a64(p) == s.digest,
            None => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifierKind, ModelConstructor, WaldoConfig};
    use waldo_data::{ChannelDataset, Measurement, Safety};
    use waldo_geo::Point;
    use waldo_iq::FeatureVector;
    use waldo_rf::TvChannel;
    use waldo_sensors::{Observation, SensorKind};

    fn dataset(n: usize) -> ChannelDataset {
        let mut measurements = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 / n as f64) * 30_000.0;
            let y = ((i * 7) % 20) as f64 * 1_000.0;
            let not_safe = x > 15_000.0;
            let rss = if not_safe { -70.0 } else { -95.0 } + ((i % 5) as f64 - 2.0);
            measurements.push(Measurement {
                location: Point::new(x, y),
                odometer_m: i as f64 * 100.0,
                observation: Observation {
                    rss_dbm: rss,
                    features: FeatureVector {
                        rss_db: rss,
                        cft_db: rss - 11.3,
                        aft_db: rss - 12.5,
                        quadrature_imbalance_db: 0.0,
                        iq_kurtosis: 0.0,
                        edge_bin_db: -110.0,
                    },
                    raw_pilot_db: rss - 11.3,
                },
                true_rss_dbm: rss,
            });
            labels.push(Safety::from_not_safe(not_safe));
        }
        ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
    }

    fn model(kind: ClassifierKind, localities: usize) -> WaldoModel {
        ModelConstructor::new(WaldoConfig::default().classifier(kind).localities(localities))
            .fit(&dataset(400))
            .unwrap()
    }

    #[test]
    fn roundtrip_all_classifier_kinds() {
        for kind in [
            ClassifierKind::Svm,
            ClassifierKind::NaiveBayes,
            ClassifierKind::DecisionTree,
            ClassifierKind::Logistic,
        ] {
            let m = model(kind, 3);
            let bytes = m.to_wire();
            let back = WaldoModel::from_wire(&bytes).unwrap();
            assert_eq!(m, back, "{kind} round-trip");
            // Bit-exact decisions, not just descriptor equality.
            let row = [20.0, 5.0, -70.0, -81.3];
            assert_eq!(m.predict_row(&row), back.predict_row(&row));
        }
    }

    #[test]
    fn wire_is_smaller_than_json_descriptor() {
        let m = model(ClassifierKind::Svm, 3);
        assert!(
            m.to_wire().len() < m.descriptor_bytes() / 2,
            "wire {} vs json {}",
            m.to_wire().len(),
            m.descriptor_bytes()
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let m = model(ClassifierKind::NaiveBayes, 2);
        let bytes = m.to_wire();

        assert_eq!(WaldoModel::from_wire(&[]), Err(WireError::Truncated));
        assert_eq!(WaldoModel::from_wire(b"nop"), Err(WireError::Truncated));
        assert_eq!(WaldoModel::from_wire(b"XXXX\x01\x00"), Err(WireError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = VERSION + 1;
        assert_eq!(
            WaldoModel::from_wire(&wrong_version),
            Err(WireError::UnsupportedVersion(VERSION + 1))
        );

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        assert!(WaldoModel::from_wire(&truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(WaldoModel::from_wire(&trailing), Err(WireError::TrailingBytes));

        let mut bad_feature = bytes;
        bad_feature[6] = 99; // first feature tag
        assert_eq!(
            WaldoModel::from_wire(&bad_feature),
            Err(WireError::BadTag { what: "feature", tag: 99 })
        );
    }

    #[test]
    fn locality_payloads_reassemble() {
        let m = model(ClassifierKind::Svm, 4);
        let payloads = m.locality_payloads();
        assert_eq!(payloads.len(), 4);
        let back = WaldoModel::from_locality_parts(
            m.features().clone(),
            m.clustering.centroids().to_vec(),
            &payloads,
        )
        .unwrap();
        assert_eq!(m, back);

        // Count mismatch is rejected.
        assert_eq!(
            WaldoModel::from_locality_parts(
                m.features().clone(),
                m.clustering.centroids().to_vec(),
                &payloads[..3],
            ),
            Err(WireError::Malformed("payload count != centroid count"))
        );
    }

    #[test]
    fn conservative_payload_decodes_to_not_safe() {
        let m = model(ClassifierKind::Svm, 3);
        let mut payloads = m.locality_payloads();
        payloads[0] = conservative_payload();
        let back = WaldoModel::from_locality_parts(
            m.features().clone(),
            m.centroids().to_vec(),
            &payloads,
        )
        .unwrap();
        // Any reading routed to the replaced locality is called not-safe.
        let centroid = &m.centroids()[0];
        let row = [centroid[0], centroid[1], -95.0, -106.3];
        assert!(back.predict_row(&row).is_not_safe());
    }

    fn sample_batch(batch_id: u64, n: usize) -> ReadingBatch {
        let readings = (0..n)
            .map(|i| waldo_sensors::ReadingSample {
                location: Point::new(i as f64 * 100.0, i as f64 * -50.0),
                rss_dbm: -90.0 + i as f64,
                features: FeatureVector {
                    rss_db: -90.0 + i as f64,
                    cft_db: -101.3 + i as f64,
                    aft_db: -102.5,
                    quadrature_imbalance_db: 0.25,
                    iq_kurtosis: -0.1,
                    edge_bin_db: -110.0,
                },
            })
            .collect();
        ReadingBatch { batch_id, channel: 30, readings }
    }

    #[test]
    fn reading_batch_roundtrip() {
        for n in [0usize, 1, 7, 120] {
            let batch = sample_batch(0xfeed_0000 + n as u64, n);
            let bytes = batch.encode();
            assert_eq!(ReadingBatch::decode(&bytes), Ok(batch.clone()));
            // Re-encoding is byte-stable, so the digest is a content identity.
            assert_eq!(ReadingBatch::decode(&bytes).unwrap().encode(), bytes);
            assert_eq!(batch.digest(), fnv1a64(&bytes));
        }
    }

    #[test]
    fn reading_batch_decode_rejects_corruption() {
        let bytes = sample_batch(7, 3).encode();
        assert_eq!(ReadingBatch::decode(&[]), Err(WireError::Truncated));
        assert_eq!(ReadingBatch::decode(b"XXXX\x01"), Err(WireError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = BATCH_VERSION + 1;
        assert_eq!(
            ReadingBatch::decode(&wrong_version),
            Err(WireError::UnsupportedVersion(BATCH_VERSION + 1))
        );

        // Any truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(ReadingBatch::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(ReadingBatch::decode(&trailing), Err(WireError::TrailingBytes));

        // A corrupt count cannot over-allocate: it is bounded by the
        // remaining bytes and rejected as truncated.
        let mut huge_count = bytes;
        huge_count[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ReadingBatch::decode(&huge_count), Err(WireError::Truncated));
    }

    #[test]
    fn reading_batch_embeds_in_a_larger_frame() {
        let batch = sample_batch(21, 4);
        let mut framed = batch.encode();
        framed.extend_from_slice(b"suffix");
        let mut r = Reader::new(&framed);
        assert_eq!(ReadingBatch::decode_from(&mut r).unwrap(), batch);
        assert_eq!(r.bytes(6).unwrap(), b"suffix");
    }

    fn sample_repl_state(have_epoch: u64) -> ReplChannelState {
        let m = model(ClassifierKind::NaiveBayes, 3);
        let payloads = m.locality_payloads();
        let slots = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| {
                let epoch = (i as u64 % 2) + 1; // slots changed at epochs 1 and 2
                ReplSlot {
                    epoch,
                    digest: fnv1a64(&payload),
                    centroid: [m.centroids()[i][0], m.centroids()[i][1]],
                    payload: (epoch > have_epoch).then_some(payload),
                }
            })
            .collect();
        ReplChannelState {
            channel: 30,
            epoch: 2,
            trace_id: 77,
            prelude: encode_prelude(m.features(), m.centroids()),
            slots,
        }
    }

    #[test]
    fn repl_state_roundtrip_is_identity_and_byte_stable() {
        for have_epoch in [0u64, 1, 2] {
            let state = sample_repl_state(have_epoch);
            let bytes = state.encode();
            let back = ReplChannelState::decode(&bytes).unwrap();
            assert_eq!(back, state);
            assert_eq!(back.encode(), bytes);
            assert!(back.digests_match());
        }
    }

    #[test]
    fn repl_state_decode_rejects_corruption() {
        let bytes = sample_repl_state(0).encode();
        assert_eq!(ReplChannelState::decode(&[]), Err(WireError::Truncated));
        assert_eq!(ReplChannelState::decode(b"XXXX\x01\x1e"), Err(WireError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = REPL_VERSION + 1;
        assert_eq!(
            ReplChannelState::decode(&wrong_version),
            Err(WireError::UnsupportedVersion(REPL_VERSION + 1))
        );

        for cut in 0..bytes.len() {
            assert!(ReplChannelState::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(ReplChannelState::decode(&trailing), Err(WireError::TrailingBytes));

        // A corrupt slot count is bounded by the remaining bytes.
        let state = sample_repl_state(0);
        let count_at = 4 + 1 + 1 + 8 + 8 + 4 + state.prelude.len();
        let mut huge_count = bytes.clone();
        huge_count[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ReplChannelState::decode(&huge_count), Err(WireError::Truncated));

        // A flipped payload byte is caught by the digest guard.
        let mut flipped = bytes;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        if let Ok(decoded) = ReplChannelState::decode(&flipped) {
            assert!(!decoded.digests_match());
        }
    }

    #[test]
    fn repl_state_v1_is_refused() {
        // A v1 encoding: the current layout minus the trace_id u64 after
        // the channel epoch. No replica speaks it, so it is refused rather
        // than read with a zero trace id.
        let v2 = sample_repl_state(0).encode();
        let mut v1 = Vec::with_capacity(v2.len() - 8);
        v1.extend_from_slice(&v2[..4 + 1 + 1 + 8]); // magic | version | channel | epoch
        v1.extend_from_slice(&v2[4 + 1 + 1 + 8 + 8..]); // skip trace_id
        v1[4] = 1;
        assert_eq!(ReplChannelState::decode(&v1), Err(WireError::UnsupportedVersion(1)));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Reference FNV-1a vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let m = model(ClassifierKind::NaiveBayes, 3);
        let payloads = m.locality_payloads();
        let digests: Vec<u64> = payloads.iter().map(|p| fnv1a64(p)).collect();
        // Same content, same digest.
        assert_eq!(digests, m.locality_payloads().iter().map(|p| fnv1a64(p)).collect::<Vec<_>>());
        // Different localities have different content here.
        assert!(digests.windows(2).any(|w| w[0] != w[1]));
    }
}
