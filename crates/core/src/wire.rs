//! Binary wire codecs for the core spanner vocabulary.
//!
//! Extends the [`ftspan_graph::wire`] substrate to the types an oracle
//! snapshot has to carry besides the graphs themselves: [`FaultSet`]s (both
//! as query payloads on the server protocol and as certificate cuts),
//! [`SpannerParams`], and the LBC [`EdgeCertificate`]s that seed localized
//! repair. All encodings are little-endian, length-prefixed, and reject
//! structurally invalid input with a [`WireError`] instead of panicking —
//! these bytes cross process (and machine) boundaries.

use ftspan_graph::wire::{WireError, WireReader, WireWriter};
use ftspan_graph::{eid, vid};

use crate::{EdgeCertificate, FaultModel, FaultSet, SpannerParams};

/// Wire tag of [`FaultModel::Vertex`] / [`FaultSet::Vertices`].
const TAG_VERTEX: u8 = 0;
/// Wire tag of [`FaultModel::Edge`] / [`FaultSet::Edges`].
const TAG_EDGE: u8 = 1;

/// Encodes a fault model as one tag byte.
fn encode_fault_model(model: FaultModel, w: &mut WireWriter) {
    w.put_u8(match model {
        FaultModel::Vertex => TAG_VERTEX,
        FaultModel::Edge => TAG_EDGE,
    });
}

/// Decodes a fault model tag byte.
fn decode_fault_model(r: &mut WireReader<'_>) -> Result<FaultModel, WireError> {
    match r.u8()? {
        TAG_VERTEX => Ok(FaultModel::Vertex),
        TAG_EDGE => Ok(FaultModel::Edge),
        tag => Err(WireError::malformed(format!(
            "unknown fault model tag {tag}"
        ))),
    }
}

/// Encodes a fault set: the model tag, then the sorted element ids.
pub fn encode_fault_set(faults: &FaultSet, w: &mut WireWriter) {
    match faults {
        FaultSet::Vertices(vs) => {
            w.put_u8(TAG_VERTEX);
            w.put_len(vs.len());
            for &v in vs {
                w.put_u32(v.as_u32());
            }
        }
        FaultSet::Edges(es) => {
            w.put_u8(TAG_EDGE);
            w.put_len(es.len());
            for &e in es {
                w.put_u32(e.as_u32());
            }
        }
    }
}

/// Decodes a fault set. The constructors re-sort and de-duplicate, so the
/// decoded set is canonical even if the bytes were not.
pub fn decode_fault_set(r: &mut WireReader<'_>) -> Result<FaultSet, WireError> {
    let tag = r.u8()?;
    let len = r.len(4)?;
    match tag {
        TAG_VERTEX => {
            let mut vs = Vec::with_capacity(len);
            for _ in 0..len {
                vs.push(vid(r.u32()? as usize));
            }
            Ok(FaultSet::vertices(vs))
        }
        TAG_EDGE => {
            let mut es = Vec::with_capacity(len);
            for _ in 0..len {
                es.push(eid(r.u32()? as usize));
            }
            Ok(FaultSet::edges(es))
        }
        tag => Err(WireError::malformed(format!("unknown fault set tag {tag}"))),
    }
}

/// Encodes spanner parameters as `k`, `f`, and the fault model tag.
pub fn encode_params(params: SpannerParams, w: &mut WireWriter) {
    w.put_u32(params.k());
    w.put_u32(params.f());
    encode_fault_model(params.fault_model(), w);
}

/// Decodes spanner parameters, re-validating `k ≥ 1`.
pub fn decode_params(r: &mut WireReader<'_>) -> Result<SpannerParams, WireError> {
    let k = r.u32()?;
    let f = r.u32()?;
    let model = decode_fault_model(r)?;
    SpannerParams::new(k, f)
        .map(|p| p.with_fault_model(model))
        .map_err(|e| WireError::malformed(format!("invalid params: {e}")))
}

/// Encodes one LBC certificate: both edge ids plus the witnessing cut.
pub fn encode_certificate(cert: &EdgeCertificate, w: &mut WireWriter) {
    w.put_u32(cert.input_edge.as_u32());
    w.put_u32(cert.spanner_edge.as_u32());
    encode_fault_set(&cert.cut, w);
}

/// Decodes one LBC certificate.
pub fn decode_certificate(r: &mut WireReader<'_>) -> Result<EdgeCertificate, WireError> {
    Ok(EdgeCertificate {
        input_edge: eid(r.u32()? as usize),
        spanner_edge: eid(r.u32()? as usize),
        cut: decode_fault_set(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(
        value: &T,
        encode: impl Fn(&T, &mut WireWriter),
        decode: impl Fn(&mut WireReader<'_>) -> Result<T, WireError>,
    ) -> T {
        let mut w = WireWriter::new();
        encode(value, &mut w);
        let mut r = WireReader::new(w.as_slice());
        let decoded = decode(&mut r).expect("decodes");
        r.finish().expect("no trailing bytes");
        decoded
    }

    #[test]
    fn fault_sets_round_trip_canonically() {
        let vertex_set = FaultSet::vertices([vid(9), vid(2), vid(2), vid(4)]);
        let decoded = round_trip(&vertex_set, encode_fault_set, decode_fault_set);
        assert_eq!(decoded, vertex_set);

        let edge_set = FaultSet::edges([eid(7), eid(0)]);
        assert_eq!(
            round_trip(&edge_set, encode_fault_set, decode_fault_set),
            edge_set
        );

        let empty = FaultSet::empty(FaultModel::Edge);
        let decoded = round_trip(&empty, encode_fault_set, decode_fault_set);
        assert_eq!(decoded.model(), FaultModel::Edge);
        assert!(decoded.is_empty());
    }

    #[test]
    fn params_round_trip_and_revalidate() {
        for params in [SpannerParams::vertex(3, 2), SpannerParams::edge(2, 0)] {
            assert_eq!(
                round_trip(&params, |p, w| encode_params(*p, w), decode_params),
                params
            );
        }
        // k = 0 on the wire must be rejected, not constructed.
        let mut w = WireWriter::new();
        w.put_u32(0);
        w.put_u32(1);
        w.put_u8(0);
        assert!(decode_params(&mut WireReader::new(w.as_slice())).is_err());
    }

    #[test]
    fn certificates_round_trip() {
        let cert = EdgeCertificate {
            input_edge: eid(11),
            spanner_edge: eid(3),
            cut: FaultSet::vertices([vid(1), vid(5)]),
        };
        assert_eq!(
            round_trip(&cert, encode_certificate, decode_certificate),
            cert
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_len(0);
        assert!(decode_fault_set(&mut WireReader::new(w.as_slice())).is_err());
        assert!(decode_fault_model(&mut WireReader::new(&[7])).is_err());
    }
}
