//! Property tests of the framed wire codec: arbitrary coordinator↔worker
//! messages encode → decode to equal values, framed sizes are exactly
//! accounted, and corrupted frames (truncation, trailing garbage, bad
//! headers) surface as typed errors instead of bogus messages or panics.

use grape::comm::wire::{self, Wire, WireError, WireReader, HEADER_LEN};
use grape::comm::MessageSize;
use grape::core::message::{CheckpointState, CoordCommand, WorkerReport};
use grape::core::ship::{decode_fragment_parts, encode_fragment_parts, TAG_FRAGMENT};
use grape::partition::FragmentParts;
use proptest::prelude::*;

/// Strategy: an arbitrary f64 from raw bits — covers infinities, NaNs and
/// subnormals, where a lossy codec would betray itself first.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn arb_slot_values(max_len: usize) -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0u32..1_000_000, arb_f64_bits()), 0..max_len)
}

/// Bit patterns that a lossy or mis-sized run codec would betray first, read
/// through the low bytes of each fixed-width type: f64 and f32 NaNs with
/// payloads, ±∞ of both, the sign bit alone, all ones (−1 as a signed
/// integer) and zero.
const EDGE_BITS: [u64; 9] = [
    0x7ff8_0000_0000_1234,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_7fc0_0abc,
    0x0000_0000_7f80_0000,
    0x0000_0000_ff80_0000,
    0x8000_0000_8000_8080,
    u64::MAX,
    0,
];

/// Strategy: runs of raw 64-bit patterns, a quarter of them from
/// [`EDGE_BITS`], empty runs included. Each fixed-width type takes its value
/// from the low bytes of a pattern.
fn arb_bit_runs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0usize..4 * EDGE_BITS.len(), 0u64..u64::MAX)
            .prop_map(|(pick, bits)| EDGE_BITS.get(pick).copied().unwrap_or(bits)),
        0..40,
    )
}

/// A `Vec<T>` on the wire is its `u32` length and then each element's own
/// encoding, byte for byte, however the run is coded; it decodes back
/// bit-exactly, and every strict prefix is a typed truncation.
fn check_run<T: Wire + Copy + std::fmt::Debug>(
    values: Vec<T>,
    bits: fn(T) -> u64,
) -> Result<(), TestCaseError> {
    let mut expected = (values.len() as u32).encode_to_vec();
    for value in &values {
        value.encode(&mut expected);
    }
    let encoded = values.encode_to_vec();
    prop_assert_eq!(&encoded, &expected);
    let mut from_slice = Vec::new();
    wire::encode_seq(values.as_slice(), &mut from_slice);
    prop_assert_eq!(&from_slice, &expected);

    let mut reader = WireReader::new(&encoded);
    let back = Vec::<T>::decode(&mut reader)
        .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
    reader
        .finish()
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    prop_assert_eq!(
        back.into_iter().map(bits).collect::<Vec<_>>(),
        values.iter().copied().map(bits).collect::<Vec<_>>()
    );
    for cut in 0..encoded.len() {
        match Vec::<T>::decode(&mut WireReader::new(&encoded[..cut])) {
            Err(WireError::Truncated { needed, have }) if have < needed => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "prefix of {cut}/{} bytes: {other:?}",
                    encoded.len()
                )))
            }
        }
    }
    Ok(())
}

/// Strategy: an optional recovery checkpoint — opaque partial bytes plus
/// sparse border values.
fn arb_checkpoint() -> impl Strategy<Value = Option<CheckpointState<f64>>> {
    proptest::option::of(
        (
            proptest::collection::vec(0u8..255, 0..48),
            proptest::collection::vec(proptest::option::of(arb_f64_bits()), 0..12),
        )
            .prop_map(|(partial, border)| CheckpointState { partial, border }),
    )
}

/// Strategy: arbitrary fragment columns, aligned as the frame lays them out
/// (`data`, `owner` and `offsets` with `ids`, `weights` with `targets`,
/// `mirror_ends` with `mirrored_inner`). The codec must roundtrip any such
/// payload, whether or not it is a structurally valid fragment (structural
/// validation is [`Fragment::from_parts`]' job, not the wire's).
fn arb_fragment_parts() -> impl Strategy<Value = FragmentParts<(), f64>> {
    (0usize..16, 0usize..24, 0usize..8).prop_flat_map(|(n, m, k)| {
        let vids = |len| proptest::collection::vec(0u64..200, len..len + 1);
        let column =
            |len, range: std::ops::Range<u32>| proptest::collection::vec(range, len..len + 1);
        let ends = |len| proptest::collection::vec(0usize..32, len..len + 1);
        (
            (
                (0usize..8, 1usize..8),
                vids(n),
                column(n, 0..8),
                ends(n + 1),
            ),
            (
                column(m, 0..20),
                proptest::collection::vec(arb_f64_bits(), m..m + 1),
            ),
            (vids(k), ends(k), proptest::collection::vec(0u32..8, 0..16)),
        )
            .prop_map(
                |(
                    ((id, num_fragments), ids, owner, offsets),
                    (targets, weights),
                    (mirrored_inner, mirror_ends, mirror_at),
                )| FragmentParts {
                    id,
                    num_fragments,
                    data: vec![(); ids.len()],
                    ids,
                    owner,
                    offsets,
                    targets,
                    weights,
                    mirrored_inner,
                    mirror_ends,
                    mirror_at,
                },
            )
    })
}

fn arb_command() -> impl Strategy<Value = CoordCommand<f64>> {
    (
        0usize..4,
        0usize..200_000,
        arb_slot_values(24),
        arb_checkpoint(),
    )
        .prop_map(|(kind, superstep, updates, checkpoint)| match kind {
            0 => CoordCommand::Init,
            1 => CoordCommand::IncEval { superstep, updates },
            2 => CoordCommand::Resume {
                superstep,
                checkpoint,
            },
            _ => CoordCommand::Finish,
        })
}

fn arb_report() -> impl Strategy<Value = WorkerReport<f64>> {
    (
        0usize..200_000,
        arb_slot_values(24),
        proptest::collection::vec((0u64..5_000, arb_f64_bits()), 0..8),
        arb_checkpoint(),
        0u64..u64::MAX,
    )
        .prop_map(
            |(superstep, changes, strays, checkpoint, eval_bits)| WorkerReport::Done {
                superstep,
                changes,
                strays,
                checkpoint,
                // Timings are f64s too; use finite ones so PartialEq is reflexive.
                eval_seconds: (eval_bits % 1_000_000) as f64 * 1e-6,
            },
        )
}

/// NaN-tolerant equality: values equal, or both NaN with the same bits.
fn values_equal(a: f64, b: f64) -> bool {
    a == b || a.to_bits() == b.to_bits()
}

fn checkpoints_equal(a: &Option<CheckpointState<f64>>, b: &Option<CheckpointState<f64>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.partial == y.partial
                && x.border.len() == y.border.len()
                && x.border.iter().zip(&y.border).all(|(l, r)| match (l, r) {
                    (None, None) => true,
                    (Some(l), Some(r)) => values_equal(*l, *r),
                    _ => false,
                })
        }
        _ => false,
    }
}

fn commands_equal(a: &CoordCommand<f64>, b: &CoordCommand<f64>) -> bool {
    match (a, b) {
        (CoordCommand::Init, CoordCommand::Init) => true,
        (
            CoordCommand::IncEval {
                superstep: s1,
                updates: u1,
            },
            CoordCommand::IncEval {
                superstep: s2,
                updates: u2,
            },
        ) => {
            s1 == s2
                && u1.len() == u2.len()
                && u1
                    .iter()
                    .zip(u2)
                    .all(|(&(sa, va), &(sb, vb))| sa == sb && values_equal(va, vb))
        }
        (
            CoordCommand::Resume {
                superstep: s1,
                checkpoint: c1,
            },
            CoordCommand::Resume {
                superstep: s2,
                checkpoint: c2,
            },
        ) => s1 == s2 && checkpoints_equal(c1, c2),
        (CoordCommand::Finish, CoordCommand::Finish) => true,
        _ => false,
    }
}

fn reports_equal(a: &WorkerReport<f64>, b: &WorkerReport<f64>) -> bool {
    let WorkerReport::Done {
        superstep: s1,
        changes: c1,
        strays: y1,
        checkpoint: k1,
        eval_seconds: e1,
    } = a;
    let WorkerReport::Done {
        superstep: s2,
        changes: c2,
        strays: y2,
        checkpoint: k2,
        eval_seconds: e2,
    } = b;
    s1 == s2
        && values_equal(*e1, *e2)
        && checkpoints_equal(k1, k2)
        && c1.len() == c2.len()
        && c1
            .iter()
            .zip(c2)
            .all(|(&(sa, va), &(sb, vb))| sa == sb && values_equal(va, vb))
        && y1.len() == y2.len()
        && y1
            .iter()
            .zip(y2)
            .all(|(&(sa, va), &(sb, vb))| sa == sb && values_equal(va, vb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commands_roundtrip_through_the_codec(command in arb_command()) {
        let mut frame = Vec::new();
        command.encode_frame(&mut frame);
        prop_assert_eq!(
            frame.len(),
            command.size_bytes() + CoordCommand::<f64>::WIRE_OVERHEAD,
            "framed size must be estimate + header, exactly"
        );
        let (back, consumed) = CoordCommand::<f64>::decode_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(consumed, frame.len());
        prop_assert!(commands_equal(&back, &command), "{:?} != {:?}", back, command);
    }

    #[test]
    fn reports_roundtrip_through_the_codec(report in arb_report()) {
        let mut frame = Vec::new();
        report.encode_frame(&mut frame);
        prop_assert_eq!(
            frame.len(),
            report.size_bytes() + WorkerReport::<f64>::WIRE_OVERHEAD,
            "framed size must be estimate + header + eval_seconds, exactly"
        );
        let (back, consumed) = WorkerReport::<f64>::decode_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(consumed, frame.len());
        prop_assert!(reports_equal(&back, &report), "{:?} != {:?}", back, report);
    }

    #[test]
    fn truncated_frames_never_decode(command in arb_command(), cut_fraction in 0usize..100) {
        let mut frame = Vec::new();
        command.encode_frame(&mut frame);
        // Cut anywhere strictly inside the frame.
        let cut = cut_fraction * frame.len() / 100;
        prop_assert!(cut < frame.len());
        match CoordCommand::<f64>::decode_frame(&frame[..cut]) {
            Err(WireError::Truncated { needed, have }) => {
                prop_assert!(have < needed, "Truncated{{needed {needed}, have {have}}}");
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "cut at {cut}/{} must be Truncated, got {other:?}",
                    frame.len()
                )))
            }
        }
    }

    #[test]
    fn trailing_garbage_inside_the_payload_is_rejected(
        report in arb_report(),
        garbage in proptest::collection::vec(0u8..255, 1..16),
    ) {
        // Inflate the declared payload length and append garbage: the frame
        // is self-consistent at the framing layer, so the *message* decoder
        // must notice the leftover bytes.
        let mut frame = Vec::new();
        report.encode_frame(&mut frame);
        let declared = u32::from_le_bytes(frame[8..12].try_into().unwrap());
        frame.extend_from_slice(&garbage);
        frame[8..12].copy_from_slice(&(declared + garbage.len() as u32).to_le_bytes());
        match WorkerReport::<f64>::decode_frame(&frame) {
            Err(WireError::TrailingBytes { count }) => {
                prop_assert_eq!(count, garbage.len());
            }
            // Garbage may also make a field decode fail early (e.g. an
            // inflated vector length hitting the end) — also a hard error.
            Err(_) => {}
            Ok(_) => {
                return Err(TestCaseError::fail(
                    "garbage-extended frame decoded cleanly".to_string(),
                ))
            }
        }
    }

    #[test]
    fn garbage_after_a_frame_stays_out_of_the_message(
        command in arb_command(),
        garbage in proptest::collection::vec(0u8..255, 0..32),
    ) {
        // Bytes *after* a well-formed frame belong to the next frame; the
        // decoder must consume exactly its own frame and not look at them.
        let mut stream = Vec::new();
        command.encode_frame(&mut stream);
        let frame_len = stream.len();
        stream.extend_from_slice(&garbage);
        let (back, consumed) = CoordCommand::<f64>::decode_frame(&stream)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(consumed, frame_len);
        prop_assert!(commands_equal(&back, &command));
    }

    #[test]
    fn corrupting_any_header_byte_is_detected_or_changes_framing(
        command in arb_command(),
        byte in 0usize..8,
        flip in 1u8..255,
    ) {
        // Flipping magic or version must produce a typed header error.
        // (Bytes 8+ are the length, whose corruption surfaces as
        // Truncated / TrailingBytes through the message decoder.)
        let mut frame = Vec::new();
        command.encode_frame(&mut frame);
        frame[byte] ^= flip;
        match (byte, CoordCommand::<f64>::decode_frame(&frame)) {
            (0 | 1, Err(WireError::BadMagic { .. })) => {}
            (2, Err(WireError::BadVersion { .. })) => {}
            (3, Err(WireError::BadTag { .. })) => {}
            // A tag flip can land on another *valid* tag; the payload then
            // fails to parse (or, for Finish-sized bodies, parses as a
            // different message — framing cannot defend against that, which
            // is exactly why the tag space is kept sparse).
            (3, _) => {}
            // Bytes 4..8 are the run epoch: invisible to the epoch-agnostic
            // decoder, but an epoch-fencing receiver must reject the frame.
            (4..=7, decoded) => {
                prop_assert!(decoded.is_ok(), "epoch is not part of framing");
                let (_, epoch, _, _) = wire::decode_frame_epoch(&frame)
                    .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
                // The flip must have changed the epoch away from 0.
                prop_assert_ne!(epoch, 0);
                prop_assert!(matches!(
                    wire::check_epoch(0, epoch),
                    Err(WireError::StaleEpoch { expected: 0, .. })
                ));
            }
            (b, other) => {
                return Err(TestCaseError::fail(format!(
                    "header byte {b} corrupt, expected typed error, got {other:?}"
                )))
            }
        }
    }

    #[test]
    fn epochs_roundtrip_and_mismatches_are_fenced(
        command in arb_command(),
        epoch in 0u32..u32::MAX,
        other in 0u32..u32::MAX,
    ) {
        // Re-frame the command's payload under an arbitrary epoch: the epoch
        // rides the header untouched, and a receiver fencing on a different
        // epoch rejects the frame with a typed error.
        let mut plain = Vec::new();
        command.encode_frame(&mut plain);
        let (tag, body, _) = wire::decode_frame(&plain)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        let mut frame = Vec::new();
        wire::encode_frame_with_epoch(tag, epoch, &mut frame, |out| {
            out.extend_from_slice(body);
        });
        let (tag_back, epoch_back, body_back, consumed) = wire::decode_frame_epoch(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(tag_back, tag);
        prop_assert_eq!(epoch_back, epoch);
        prop_assert_eq!(consumed, frame.len());
        let back = CoordCommand::<f64>::decode_body(tag_back, body_back)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert!(commands_equal(&back, &command));
        match wire::check_epoch(other, epoch) {
            Ok(()) => prop_assert_eq!(other, epoch),
            Err(WireError::StaleEpoch { expected, found }) => {
                prop_assert_ne!(other, epoch);
                prop_assert_eq!(expected, other);
                prop_assert_eq!(found, epoch);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    #[test]
    fn shipped_fragments_roundtrip_under_any_epoch(
        parts in arb_fragment_parts(),
        epoch in 0u32..u32::MAX,
        other in 0u32..u32::MAX,
    ) {
        // The fragment-shipping frame of the recovery handshake: encode under
        // an arbitrary run epoch, decode bit-exactly, and verify a receiver
        // fencing on a different epoch rejects the frame.
        let mut frame = Vec::new();
        encode_fragment_parts(&parts, epoch, &mut frame);
        let (tag, epoch_back, body, consumed) = wire::decode_frame_epoch(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(tag, TAG_FRAGMENT);
        prop_assert_eq!(epoch_back, epoch);
        prop_assert_eq!(consumed, frame.len());
        let back: FragmentParts<(), f64> = decode_fragment_parts(tag, body)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, parts);
        match wire::check_epoch(other, epoch) {
            Ok(()) => prop_assert_eq!(other, epoch),
            Err(WireError::StaleEpoch { expected, found }) => {
                prop_assert_ne!(other, epoch);
                prop_assert_eq!(expected, other);
                prop_assert_eq!(found, epoch);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    #[test]
    fn truncated_fragment_frames_never_decode(
        parts in arb_fragment_parts(),
        cut_fraction in 0usize..100,
    ) {
        let mut frame = Vec::new();
        encode_fragment_parts(&parts, 3, &mut frame);
        let cut = cut_fraction * frame.len() / 100;
        prop_assert!(cut < frame.len());
        match wire::decode_frame_epoch(&frame[..cut]) {
            Err(WireError::Truncated { needed, have }) => {
                prop_assert!(have < needed, "Truncated{{needed {needed}, have {have}}}");
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "cut at {cut}/{} must be Truncated, got {other:?}",
                    frame.len()
                )))
            }
        }
    }

    #[test]
    fn fragment_decoder_rejects_foreign_tags(
        parts in arb_fragment_parts(),
        raw_tag in 0u8..255,
    ) {
        // Remap the one honest value: every tag under test must be foreign.
        let tag = if raw_tag == TAG_FRAGMENT { 0x00 } else { raw_tag };
        // The body is valid; only the tag lies. The decoder must refuse
        // rather than reinterpret another frame type as a fragment.
        let mut frame = Vec::new();
        encode_fragment_parts(&parts, 0, &mut frame);
        let (_, body, _) = wire::decode_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        match decode_fragment_parts::<(), f64>(tag, body) {
            Err(WireError::BadTag { found }) => prop_assert_eq!(found, tag),
            other => {
                return Err(TestCaseError::fail(format!(
                    "tag {tag:#04x} must be BadTag, got {other:?}"
                )))
            }
        }
    }

    #[test]
    fn value_payloads_roundtrip_bit_exactly(values in arb_slot_values(64)) {
        // The payload layer on its own: (u32, f64) slot vectors are the bulk
        // of every superstep.
        let bytes = values.encode_to_vec();
        prop_assert_eq!(bytes.len(), values.size_bytes());
        let mut reader = WireReader::new(&bytes);
        let back = Vec::<(u32, f64)>::decode(&mut reader)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        reader.finish().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(back.len(), values.len());
        for (&(sa, va), &(sb, vb)) in back.iter().zip(&values) {
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "f64 bits must survive");
        }
    }
}

/// [`check_run`] for every element type with a slice path, each reading the
/// same bit patterns.
fn check_every_width(raw: &[u64]) -> Result<(), TestCaseError> {
    check_run(raw.iter().map(|&b| b as u8).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as u16).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as u32).collect(), |v| v as u64)?;
    check_run(raw.to_vec(), |v| v)?;
    check_run(raw.iter().map(|&b| b as i8).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as i16).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as i32).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as i64).collect(), |v| v as u64)?;
    check_run(raw.iter().map(|&b| b as usize).collect(), |v| v as u64)?;
    check_run(
        raw.iter().map(|&b| f32::from_bits(b as u32)).collect(),
        |v| v.to_bits() as u64,
    )?;
    check_run(
        raw.iter().map(|&b| f64::from_bits(b)).collect(),
        f64::to_bits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fixed_width_runs_are_their_elements_back_to_back(raw in arb_bit_runs()) {
        check_every_width(&raw)?;
    }
}

/// A valid fragment frame's body, weighted or labeled, with `cut` bytes
/// kept (all of them when `cut` is past the end) and `hits` overwritten:
/// `decode_fragment` must refuse it or return a fragment that re-encodes to
/// exactly the bytes it read, and never panic.
fn check_hostile_body<V, E>(
    fragment: &grape::partition::Fragment<V, E>,
    cut: usize,
    hits: &[(usize, u8)],
) -> Result<(), TestCaseError>
where
    V: Wire + Clone + Default + std::fmt::Debug,
    E: Wire + Clone + std::fmt::Debug,
{
    use grape::core::ship::{decode_fragment, encode_fragment};
    let mut frame = Vec::new();
    encode_fragment(fragment, &mut frame);
    let mut body = frame[HEADER_LEN..].to_vec();
    body.truncate(cut);
    for &(at, byte) in hits {
        if !body.is_empty() {
            let at = at % body.len();
            body[at] = byte;
        }
    }
    if let Ok(back) = decode_fragment::<V, E>(TAG_FRAGMENT, &body) {
        let mut again = Vec::new();
        encode_fragment(&back, &mut again);
        prop_assert_eq!(&again[HEADER_LEN..], &body[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_fragment_frames_are_refused_or_reencode_exactly(
        seed in 0u64..1_000,
        k in 1usize..4,
        cut in 0usize..4_000,
        hits in proptest::collection::vec((0usize..100_000, 0u8..255), 0..4),
        labeled in 0u8..2,
    ) {
        use grape::graph::generators::{erdos_renyi, labeled_social, SocialGraphConfig};
        use grape::prelude::*;
        let cut = if cut % 2 == 0 { usize::MAX } else { cut };
        if labeled == 1 {
            let config = SocialGraphConfig {
                num_persons: 12,
                num_products: 3,
                follows_per_person: 2,
                ..Default::default()
            };
            let graph = labeled_social(config, seed).expect("social graph");
            let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, k));
            check_hostile_body(&fragments[seed as usize % k], cut, &hits)?;
        } else {
            let graph = erdos_renyi(24, 0.15, seed).expect("graph");
            let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, k));
            check_hostile_body(&fragments[seed as usize % k], cut, &hits)?;
        }
    }
}

#[test]
fn empty_and_edge_runs_are_their_elements_back_to_back() {
    check_every_width(&[]).expect("empty runs");
    check_every_width(&EDGE_BITS).expect("NaN payloads, infinities, negatives");
}

#[test]
fn frame_header_layout_is_pinned() {
    // The on-wire header is a public contract (README "Wire format"); changing
    // it must be a conscious, versioned decision.
    let mut frame = Vec::new();
    CoordCommand::<f64>::Finish.encode_frame(&mut frame);
    assert_eq!(HEADER_LEN, 12);
    assert_eq!(&frame[0..2], b"GW", "magic");
    assert_eq!(frame[2], wire::VERSION, "version");
    assert_eq!(frame[3], grape::core::message::TAG_FINISH, "tag");
    assert_eq!(
        u32::from_le_bytes(frame[4..8].try_into().unwrap()),
        0,
        "little-endian run epoch (0 outside recovery)"
    );
    assert_eq!(
        u32::from_le_bytes(frame[8..12].try_into().unwrap()),
        1,
        "little-endian payload length"
    );
    assert_eq!(frame.len(), HEADER_LEN + 1);
}

#[test]
fn a_query_frame_carrying_a_seed_is_pinned() {
    // The seed is a warm handle: the version the worker's kept partial must
    // have converged at, and what changed since — never the partial itself.
    use grape::core::WarmHandle;
    use grape::graph::MutationProfile;
    use grape::worker::service::QueryJob;
    use std::sync::Arc;

    let job = QueryJob {
        graph_id: 0x0102,
        index: 1,
        workers: 3,
        run_id: 17,
        threads: 2,
        checkpoint_every: 1,
        query: grape::Query::cc(),
        kill_at: Some(4),
        seed: Some(WarmHandle {
            version: 0x0a0b,
            dirty: Arc::new(vec![7, 9]),
            profile: MutationProfile {
                edge_inserts: 2,
                ..Default::default()
            },
        }),
    };
    let mut frame = Vec::new();
    wire::encode_frame_epoch(wire::TAG_QUERY, job.run_id, &job, &mut frame);
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'G', b'W', 2, 0x32, 17, 0, 0, 0, 95, 0, 0, 0, // header: epoch = run id, 95-byte body
        2, 1, 0, 0, 0, 0, 0, 0,                         // graph id
        1, 0, 0, 0,  3, 0, 0, 0,                        // index, workers
        17, 0, 0, 0,  2, 0, 0, 0,  1, 0, 0, 0,          // run id, threads, checkpoint cadence
        1,                                              // query: cc
        1, 4, 0, 0, 0,                                  // kill_at: Some(4)
        1,                                              // seed: Some
        0x0b, 0x0a, 0, 0, 0, 0, 0, 0,                   //   converged-at version
        2, 0, 0, 0,                                     //   dirty vertices
        7, 0, 0, 0, 0, 0, 0, 0,  9, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0, //  profile: edge inserts, edge deletes,
        0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0, 0, //  vertex inserts, vertex deletes
    ];
    assert_eq!(frame, golden);
}

#[test]
fn a_fragment_frame_is_pinned() {
    // Fragment 0 of the chain 0 → 1 → … → 5 cut in two (0..=2 | 3..=5):
    // vertex 3 is a mirror owned by fragment 1, and vertex 2 is mirrored
    // there. Aligned columns carry no length of their own.
    use grape::prelude::*;
    let mut builder = GraphBuilder::<(), f64>::new();
    for v in 0..5u64 {
        builder.add_edge(v, v + 1, v as f64 + 0.5);
    }
    let graph = builder.build().expect("graph");
    let mut assignment = PartitionAssignment::new(2);
    for v in 0..6u64 {
        assignment.assign(v, usize::from(v >= 3));
    }
    let fragments = build_fragments(&graph, &assignment);
    let mut frame = Vec::new();
    grape::core::ship::encode_fragment(&fragments[0], &mut frame);
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'G', b'W', 2, 0x22, 0, 0, 0, 0, 176, 0, 0, 0, // header: epoch 0, 176-byte body
        0, 0, 0, 0, 0, 0, 0, 0,                         // id
        2, 0, 0, 0, 0, 0, 0, 0,                         // num_fragments
        4, 0, 0, 0,                                     // ids: 4 local vertices
        0, 0, 0, 0, 0, 0, 0, 0,  1, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0,
                                                        // data: () takes no bytes
        0, 0, 0, 0,  0, 0, 0, 0,  0, 0, 0, 0,  1, 0, 0, 0, // owner
        0, 0, 0, 0, 0, 0, 0, 0,  1, 0, 0, 0, 0, 0, 0, 0, // offsets: 4 + 1
        2, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0,                                     // targets: 3 local edges
        1, 0, 0, 0,  2, 0, 0, 0,  3, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0xe0, 0x3f,                   // weights 0.5, 1.5, 2.5
        0, 0, 0, 0, 0, 0, 0xf8, 0x3f,
        0, 0, 0, 0, 0, 0, 0x04, 0x40,
        1, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,            // mirrored_inner: [2]
        1, 0, 0, 0, 0, 0, 0, 0,                         // mirror_ends: [1]
        1, 0, 0, 0,  1, 0, 0, 0,                        // mirror_at: [1]
    ];
    assert_eq!(frame, golden);
}

#[test]
fn a_result_frame_is_the_snapshot_and_nothing_else() {
    // One dialled-in worker holding the whole path 0 - 1 - 2, driven frame
    // by frame: what comes back after Finish is the header, the owners'
    // distances `assemble_answers` reads — not the snapshot the worker
    // keeps — and the flag saying PEval ran cold.
    use grape::core::ship::encode_fragment_epoch;
    use grape::prelude::*;
    use grape::worker::service::{LoadSpec, QueryJob};
    use grape::worker::{run_worker, WorkerOptions};
    use std::io::{Read, Write};

    const RUN: u32 = 23;
    type Value = <SsspProgram as PieProgram>::Value;
    let mut builder = GraphBuilder::<(), f64>::new();
    builder.add_edge(0, 1, 1.5);
    builder.add_edge(1, 2, 2.0);
    let graph = builder.build().expect("graph");
    let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, 1));

    let (mut coordinator, worker) = std::os::unix::net::UnixStream::pair().expect("pair");
    let served = std::thread::spawn(move || run_worker(worker, WorkerOptions::default()));
    let next_frame = |coordinator: &mut std::os::unix::net::UnixStream, out: &[u8]| {
        coordinator.write_all(out).expect("write");
        let mut header = [0u8; HEADER_LEN];
        coordinator.read_exact(&mut header).expect("header");
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let mut body = vec![0u8; len];
        coordinator.read_exact(&mut body).expect("body");
        (header, body)
    };
    let (hello, _) = next_frame(&mut coordinator, &[]);
    assert_eq!(hello[3], wire::TAG_HELLO);

    let spec = LoadSpec {
        graph_id: 0,
        family: 0,
        index: 0,
        workers: 1,
        vertices: 3,
    };
    let mut out = Vec::new();
    wire::encode_frame_epoch(wire::TAG_LOAD, RUN, &spec, &mut out);
    encode_fragment_epoch(&fragments[0], RUN, &mut out);
    let (loaded, _) = next_frame(&mut coordinator, &out);
    assert_eq!(loaded[3], wire::TAG_LOADED);

    let job = QueryJob {
        graph_id: 0,
        index: 0,
        workers: 1,
        run_id: RUN,
        threads: 1,
        checkpoint_every: 0,
        query: Query::sssp(0),
        kill_at: None,
        seed: None,
    };
    out.clear();
    wire::encode_frame_epoch(wire::TAG_QUERY, RUN, &job, &mut out);
    CoordCommand::<Value>::Init.encode_frame_epoch(RUN, &mut out);
    let (report, _) = next_frame(&mut coordinator, &out);
    assert_eq!(report[3], grape::core::message::TAG_REPORT);

    out.clear();
    CoordCommand::<Value>::Finish.encode_frame_epoch(RUN, &mut out);
    let (header, body) = next_frame(&mut coordinator, &out);

    let engine = GrapeEngine::new(SsspProgram);
    let (partials, _) = engine
        .run_partials(&SsspQuery::new(0), &fragments, &[])
        .expect("local run");
    let answer = SsspProgram
        .encode_answer(&fragments[0], &partials[0])
        .expect("answer");
    assert_eq!(
        body,
        [&answer[..], &[0]].concat(),
        "the answer, then the flag"
    );
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'G', b'W', 2, 0x33, 23, 0, 0, 0, 29, 0, 0, 0, // header: epoch = run id, 29-byte body
        3, 0, 0, 0,                                     // one distance per inner vertex
        0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0xf8, 0x3f,  0, 0, 0, 0, 0, 0, 0x0c, 0x40,
        0,                                              // warm: false
    ];
    assert_eq!([&header[..], &body[..]].concat(), golden);
    let shared: Vec<_> = fragments.into_iter().map(std::sync::Arc::new).collect();
    let assembled = SsspProgram
        .assemble_answers(&shared, &[answer])
        .expect("assembles");
    assert_eq!(assembled, SsspProgram.assemble(partials));
    assert_eq!(assembled[&2], 3.5);

    drop(coordinator);
    let served = served.join().expect("worker thread");
    served.expect("the worker saw a clean hang-up");
}

#[test]
fn an_update_frame_is_the_spec_then_the_resolved_batch() {
    // Two workers on one daemon, every connection through a recording
    // proxy: the bytes a session writes for `Session::update` are, per
    // worker, a hello and one `TAG_UPDATE` frame whose body is the
    // `UpdateSpec` followed by the resolved batch.
    use grape::prelude::*;
    use grape::worker::{Endpoint, GrapeService, ServiceOptions, Session, SessionConfig};
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::mpsc;

    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy = Endpoint::parse(&listener.local_addr().expect("addr").to_string());
    let upstream = daemon.endpoint().to_string();
    let (recorded, connections) = mpsc::channel::<Vec<u8>>();
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let server = TcpStream::connect(&upstream).expect("upstream");
            let (mut from_server, mut to_client) =
                (server.try_clone().unwrap(), client.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_server, &mut to_client);
                let _ = to_client.shutdown(Shutdown::Write);
            });
            let (mut client, mut server, recorded) = (client, server, recorded.clone());
            std::thread::spawn(move || {
                let (mut bytes, mut chunk) = (Vec::new(), [0u8; 4096]);
                while let Ok(n @ 1..) = client.read(&mut chunk) {
                    bytes.extend_from_slice(&chunk[..n]);
                    if server.write_all(&chunk[..n]).is_err() {
                        break;
                    }
                }
                let _ = server.shutdown(Shutdown::Write);
                let _ = recorded.send(bytes);
            });
        }
    });

    let mut builder = GraphBuilder::<(), f64>::new();
    builder.add_edge(0, 1, 1.0);
    builder.add_edge(1, 2, 2.0);
    builder.add_edge(2, 3, 3.0);
    let graph = builder.build().expect("graph");
    let session = Session::connect(SessionConfig::remote(2, vec![proxy])).expect("connect");
    session
        .load(&graph.into(), BuiltinStrategy::Hash)
        .expect("load");
    let receipt = session
        .update(vec![
            GraphMutation::AddEdge {
                src: 0,
                dst: 3,
                data: 0.5,
            },
            GraphMutation::RemoveEdge { src: 1, dst: 2 },
        ])
        .expect("update");
    assert_eq!(receipt.version, 1);

    // Every connection the session opened and closed: probes, loads, and
    // the two update connections, each closed once it has its ack.
    let mut frames = Vec::new();
    while frames.len() < 2 {
        let bytes = connections
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a recorded connection");
        let (hello, _, _, hello_len) = wire::decode_frame_epoch(&bytes).expect("hello");
        assert_eq!(hello, wire::TAG_HELLO);
        let next = wire::decode_frame_epoch(&bytes[hello_len..]);
        if let Ok((wire::TAG_UPDATE, _, _, len)) = next {
            assert_eq!(
                hello_len + len,
                bytes.len(),
                "one update frame per connection"
            );
            frames.push(bytes[hello_len..].to_vec());
        }
    }
    frames.sort_by_key(|frame| frame[HEADER_LEN + 9]);
    for (index, frame) in frames.iter_mut().enumerate() {
        // Graph ids are drawn fresh at every load: blank them out.
        frame[HEADER_LEN..HEADER_LEN + 8].fill(0);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'G', b'W', 2, 0x34, 1, 0, 0, 0, 133, 0, 0, 0,  // header: epoch = version 1, 133-byte body
            0, 0, 0, 0, 0, 0, 0, 0,                         // spec: graph id (blanked)
            0,                                              //   family: weighted
            index as u8, 0, 0, 0,                           //   fragment index
            1, 0, 0, 0, 0, 0, 0, 0,                         //   version
            4, 0, 0, 0, 0, 0, 0, 0,                         //   vertices after the update
            0, 0, 0, 0,                                     // net: no added vertices
            1, 0, 0, 0,                                     //   added edges: 0 -> 3, weight 0.5
            0, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0, 0xe0, 0x3f,
            1, 0, 0, 0,                                     //   removed pairs: 1 -> 2
            1, 0, 0, 0, 0, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0,                                     //   no removed vertices
            2, 0, 0, 0,                                     // owners: 0 on fragment 0,
            0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,            //   3 on fragment 1
            3, 0, 0, 0, 0, 0, 0, 0,  1, 0, 0, 0,
            2, 0, 0, 0,                                     // endpoint payloads of 0 and 3: unit
            0, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(&frame[..], golden, "worker {index}");
    }
    drop(session);
    daemon.shutdown().expect("shutdown");
}
