//! Fragment shipping: the wire codec for placing a partitioned fragment on
//! a remote worker.
//!
//! The coordinator cuts the global graph once ([`build_fragments`]) and
//! ships each worker its [`Fragment`] as one [`TAG_FRAGMENT`] frame during
//! the job handshake, so remote workers no longer regenerate the seeded
//! graph locally — and, crucially, a *lost* fragment can be re-placed on a
//! replacement worker during recovery.
//!
//! The payload is the fragment's flat [`FragmentParts`] view (sorted
//! vectors only, canonical order), encoded field by field with the same
//! [`Wire`] primitives as every other frame. Rebuilding goes through
//! [`Fragment::from_parts`], which shares its assembly code with
//! [`build_fragments`] — a shipped fragment is bit-identical to a locally
//! cut one.
//!
//! [`build_fragments`]: grape_partition::build_fragments

use grape_comm::wire::{self, Wire, WireError, WireReader};
use grape_graph::VertexId;
use grape_partition::{Fragment, FragmentParts};

/// Frame tag of a shipped fragment.
pub const TAG_FRAGMENT: u8 = 0x22;

/// Appends `fragment` as one complete epoch-0 [`TAG_FRAGMENT`] frame to
/// `out`.
pub fn encode_fragment<V, E>(fragment: &Fragment<V, E>, out: &mut Vec<u8>)
where
    V: Wire + Clone,
    E: Wire + Clone,
{
    encode_fragment_epoch(fragment, 0, out)
}

/// Appends `fragment` as one [`TAG_FRAGMENT`] frame stamped with `epoch` —
/// the form recovery uses when re-shipping a lost fragment to a replacement
/// worker under a bumped run epoch.
pub fn encode_fragment_epoch<V, E>(fragment: &Fragment<V, E>, epoch: u32, out: &mut Vec<u8>)
where
    V: Wire + Clone,
    E: Wire + Clone,
{
    encode_fragment_parts(&fragment.to_parts(), epoch, out)
}

/// Appends already-flattened parts as one [`TAG_FRAGMENT`] frame stamped
/// with `epoch` to `out`.
pub fn encode_fragment_parts<V: Wire, E: Wire>(
    parts: &FragmentParts<V, E>,
    epoch: u32,
    out: &mut Vec<u8>,
) {
    wire::encode_frame_with_epoch(TAG_FRAGMENT, epoch, out, |out| {
        parts.id.encode(out);
        parts.num_fragments.encode(out);
        parts.vertices.encode(out);
        parts.edges.encode(out);
        parts.inner.encode(out);
        parts.outer.encode(out);
        parts.outer_owner.encode(out);
        parts.mirrored_at.encode(out);
    })
}

/// Decodes a [`TAG_FRAGMENT`] payload (the body of an already-unframed
/// frame) back into [`FragmentParts`]. The payload must decode exactly —
/// trailing bytes are a [`WireError::TrailingBytes`].
pub fn decode_fragment_parts<V: Wire, E: Wire>(
    tag: u8,
    body: &[u8],
) -> Result<FragmentParts<V, E>, WireError> {
    if tag != TAG_FRAGMENT {
        return Err(WireError::BadTag { found: tag });
    }
    let mut reader = WireReader::new(body);
    let parts = FragmentParts {
        id: usize::decode(&mut reader)?,
        num_fragments: usize::decode(&mut reader)?,
        vertices: Vec::<(VertexId, V)>::decode(&mut reader)?,
        edges: Vec::<(VertexId, VertexId, E)>::decode(&mut reader)?,
        inner: Vec::<VertexId>::decode(&mut reader)?,
        outer: Vec::<VertexId>::decode(&mut reader)?,
        outer_owner: Vec::<(VertexId, u32)>::decode(&mut reader)?,
        mirrored_at: Vec::<(VertexId, Vec<u32>)>::decode(&mut reader)?,
    };
    reader.finish()?;
    Ok(parts)
}

/// Decodes a [`TAG_FRAGMENT`] payload and rebuilds the full [`Fragment`].
pub fn decode_fragment<V, E>(tag: u8, body: &[u8]) -> Result<Fragment<V, E>, WireError>
where
    V: Wire + Clone + Default,
    E: Wire + Clone,
{
    let parts = decode_fragment_parts::<V, E>(tag, body)?;
    Fragment::from_parts(parts)
        .map_err(|_| WireError::Malformed("shipped fragment parts are inconsistent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::erdos_renyi;
    use grape_partition::{build_fragments, HashPartitioner, Partitioner};

    #[test]
    fn fragments_roundtrip_through_the_frame_codec() {
        let g = erdos_renyi(160, 0.04, 11).unwrap();
        let a = HashPartitioner.partition(&g, 3);
        for f in build_fragments(&g, &a) {
            let mut frame = Vec::new();
            encode_fragment(&f, &mut frame);
            let (tag, body, consumed) = wire::decode_frame(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            let back: Fragment<(), f64> = decode_fragment(tag, body).unwrap();
            assert_eq!(back.to_parts(), f.to_parts(), "bit-identical rebuild");
            assert_eq!(back.border_vertices(), f.border_vertices());
            assert_eq!(
                back.graph.edges().collect::<Vec<_>>(),
                f.graph.edges().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn labeled_payloads_survive_shipping() {
        // String payloads on vertices and edges must ship too, not just the
        // numeric weights of the traversal classes.
        let mut b = grape_graph::GraphBuilder::<String, String>::new();
        for v in 0..20u64 {
            b.add_vertex(v, format!("person-{v}"));
        }
        for v in 0..19u64 {
            b.add_edge(v, v + 1, "follows".to_string());
            b.add_edge(v + 1, v % 3, "recommends".to_string());
        }
        let g = b.build().unwrap();
        let a = HashPartitioner.partition(&g, 2);
        for f in build_fragments(&g, &a) {
            let mut frame = Vec::new();
            encode_fragment(&f, &mut frame);
            let (tag, body, _) = wire::decode_frame(&frame).unwrap();
            let back: Fragment<String, String> = decode_fragment(tag, body).unwrap();
            assert_eq!(back.to_parts(), f.to_parts());
        }
    }

    #[test]
    fn wrong_tags_and_truncation_are_typed_errors() {
        let g = erdos_renyi(40, 0.1, 3).unwrap();
        let a = HashPartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &a);
        let mut frame = Vec::new();
        encode_fragment(&frags[0], &mut frame);
        let (tag, body, _) = wire::decode_frame(&frame).unwrap();
        assert!(matches!(
            decode_fragment_parts::<(), f64>(0x01, body),
            Err(WireError::BadTag { found: 0x01 })
        ));
        assert!(decode_fragment_parts::<(), f64>(tag, &body[..body.len() - 1]).is_err());
        // Trailing garbage inside the payload is rejected.
        let mut inflated = body.to_vec();
        inflated.push(0xee);
        assert!(matches!(
            decode_fragment_parts::<(), f64>(tag, &inflated),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }
}
