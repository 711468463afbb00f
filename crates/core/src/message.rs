//! Messages exchanged between the coordinator and the workers.
//!
//! Superstep traffic is **position-addressed**: a worker names a border
//! vertex by its position in its own `Fragment::border_vertices()`, in the
//! pairs it reports and in the pairs it receives. Only the coordinator knows
//! the slots — one per distinct border vertex of the fragment set — and
//! translates both ways through the set's `ExchangeLayout`, so the
//! [`CoordCommand::Init`] handshake ships nothing but the go-ahead. A `u32`
//! position halves the id bytes on the wire (`u32` vs `u64`), and both
//! endpoints fold updates into flat arrays with no hashing per superstep. A
//! report never repeats a pair its command delivered
//! ([`crate::PieContext::absorb`]).

use grape_comm::wire::{self, Wire, WireError, WireReader, HEADER_LEN};
use grape_comm::MessageSize;
use grape_graph::VertexId;

/// Frame tag of [`CoordCommand::Init`].
pub const TAG_INIT: u8 = 0x01;
/// Frame tag of [`CoordCommand::IncEval`].
pub const TAG_INCEVAL: u8 = 0x02;
/// Frame tag of [`CoordCommand::Finish`].
pub const TAG_FINISH: u8 = 0x03;
/// Frame tag of [`CoordCommand::Resume`].
pub const TAG_RESUME: u8 = 0x04;
/// Frame tag of [`WorkerReport::Done`].
pub const TAG_REPORT: u8 = 0x10;

/// A worker-side checkpoint: everything a replacement worker needs to take
/// over a fragment at a superstep boundary.
///
/// Captured right after a report is drained, so it is exactly the state the
/// coordinator believes the worker to be in: re-running the next `IncEval`
/// against a restored checkpoint reproduces the lost worker's report byte
/// for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState<V> {
    /// The program's serialized partial result
    /// ([`crate::PieProgram::snapshot_partial`]).
    pub partial: Vec<u8>,
    /// The context's border values (last published value per border
    /// position), used for dirty-suppression on the next publication pass.
    pub border: Vec<Option<V>>,
}

impl<V: MessageSize> MessageSize for CheckpointState<V> {
    fn size_bytes(&self) -> usize {
        self.partial.size_bytes() + self.border.size_bytes()
    }
}

impl<V: Wire> Wire for CheckpointState<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.partial.encode(out);
        self.border.encode(out);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CheckpointState {
            partial: Vec::<u8>::decode(reader)?,
            border: Vec::<Option<V>>::decode(reader)?,
        })
    }
}

/// A `(vertex, value)` pair: one changed update parameter, addressed by
/// global vertex id. Used for stray (unroutable) updates only; routed
/// traffic is position-addressed.
pub type VertexValue<V> = (VertexId, V);

/// A `(position, value)` pair: one changed update parameter, addressed by
/// its position in the worker's border list. The wire format of superstep
/// traffic, in both directions.
pub type PositionValue<V> = (u32, V);

/// Message from a worker to the coordinator at the end of a superstep.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerReport<V> {
    /// The worker finished its PEval / IncEval call.
    Done {
        /// Superstep the report belongs to.
        superstep: usize,
        /// Border positions whose value changed during the call.
        changes: Vec<PositionValue<V>>,
        /// Updates to vertices outside this fragment's border (no slot, so
        /// unroutable). Empty for correct programs; carried so the
        /// coordinator's monotonicity diagnostic still sees them.
        strays: Vec<VertexValue<V>>,
        /// Post-superstep checkpoint of the worker's local state, attached
        /// when the job runs with checkpointing enabled. `None` otherwise.
        checkpoint: Option<CheckpointState<V>>,
        /// Wall-clock seconds the evaluation took on this worker.
        eval_seconds: f64,
    },
}

impl<V: MessageSize> MessageSize for WorkerReport<V> {
    fn size_bytes(&self) -> usize {
        match self {
            // superstep (8) + length-prefixed position/value and stray vectors +
            // the optional checkpoint; the timing is bookkeeping a real
            // deployment would not ship, so it is not charged.
            WorkerReport::Done {
                changes,
                strays,
                checkpoint,
                ..
            } => 8 + changes.size_bytes() + strays.size_bytes() + checkpoint.size_bytes(),
        }
    }
}

impl<V: Wire> WorkerReport<V> {
    /// Bytes a framed report occupies beyond its [`MessageSize`] estimate:
    /// the frame header plus the `eval_seconds` bookkeeping field (shipped on
    /// the wire, but deliberately not charged by the estimate).
    pub const WIRE_OVERHEAD: usize = HEADER_LEN + 8;

    /// Appends this report as one complete epoch-0 frame to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        self.encode_frame_epoch(0, out);
    }

    /// Appends this report as one complete frame stamped with `epoch`, so a
    /// coordinator that bumped the run epoch during recovery can fence it.
    pub fn encode_frame_epoch(&self, epoch: u32, out: &mut Vec<u8>) {
        match self {
            WorkerReport::Done {
                superstep,
                changes,
                strays,
                checkpoint,
                eval_seconds,
            } => wire::encode_frame_with_epoch(TAG_REPORT, epoch, out, |out| {
                superstep.encode(out);
                changes.encode(out);
                strays.encode(out);
                checkpoint.encode(out);
                eval_seconds.encode(out);
            }),
        }
    }

    /// Splits one framed report off the front of `buf`, returning it with
    /// the number of bytes consumed. The payload must decode exactly —
    /// trailing garbage inside the frame is a [`WireError::TrailingBytes`].
    pub fn decode_frame(buf: &[u8]) -> Result<(Self, usize), WireError> {
        let (tag, body, consumed) = wire::decode_frame(buf)?;
        Ok((Self::decode_body(tag, body)?, consumed))
    }

    /// Decodes a report from an already-unframed `(tag, body)` pair, as
    /// produced by [`wire::decode_frame`] / [`wire::read_frame_io`].
    pub fn decode_body(tag: u8, body: &[u8]) -> Result<Self, WireError> {
        if tag != TAG_REPORT {
            return Err(WireError::BadTag { found: tag });
        }
        let mut reader = WireReader::new(body);
        let superstep = usize::decode(&mut reader)?;
        let changes = Vec::<PositionValue<V>>::decode(&mut reader)?;
        let strays = Vec::<VertexValue<V>>::decode(&mut reader)?;
        let checkpoint = Option::<CheckpointState<V>>::decode(&mut reader)?;
        let eval_seconds = f64::decode(&mut reader)?;
        reader.finish()?;
        Ok(WorkerReport::Done {
            superstep,
            changes,
            strays,
            checkpoint,
            eval_seconds,
        })
    }
}

/// Message from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordCommand<V> {
    /// Start of a run: run PEval and report. It carries nothing — the
    /// worker addresses its border by position in its own fragment, which it
    /// already holds — so its one-byte body is the whole handshake.
    Init,
    /// Run IncEval with these aggregated border values.
    IncEval {
        /// Superstep being started.
        superstep: usize,
        /// Aggregated `(position, value)` updates for this fragment, each
        /// position an index into its `Fragment::border_vertices()`.
        updates: Vec<PositionValue<V>>,
    },
    /// Recovery handshake for a replacement worker: instead of running PEval
    /// it restores the checkpointed state and waits for the next command
    /// (the coordinator replays the in-flight superstep's `IncEval`, or sends
    /// `Finish`). No report is produced. Like [`CoordCommand::Init`] it ships
    /// no border mapping.
    Resume {
        /// Superstep the checkpoint was taken after; the next `IncEval`
        /// carries `superstep + 1`.
        superstep: usize,
        /// The lost worker's last checkpoint. `None` only when the worker
        /// died before its PEval report landed — the replacement then runs
        /// PEval from scratch instead of restoring.
        checkpoint: Option<CheckpointState<V>>,
    },
    /// Fixpoint reached: stop and hand back the partial result.
    Finish,
}

impl<V: MessageSize> MessageSize for CoordCommand<V> {
    fn size_bytes(&self) -> usize {
        match self {
            CoordCommand::Init | CoordCommand::Finish => 1,
            CoordCommand::IncEval { updates, .. } => 8 + updates.size_bytes(),
            CoordCommand::Resume { checkpoint, .. } => 8 + checkpoint.size_bytes(),
        }
    }
}

impl<V: Wire> CoordCommand<V> {
    /// Bytes a framed command occupies beyond its [`MessageSize`] estimate:
    /// exactly the frame header (command payloads encode to their estimated
    /// size, byte for byte).
    pub const WIRE_OVERHEAD: usize = HEADER_LEN;

    /// Appends this command as one complete epoch-0 frame to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        self.encode_frame_epoch(0, out);
    }

    /// Appends this command as one complete frame stamped with `epoch`;
    /// workers fence commands whose epoch differs from their connection's.
    pub fn encode_frame_epoch(&self, epoch: u32, out: &mut Vec<u8>) {
        match self {
            // One-byte bodies, so the framed payload length equals the
            // MessageSize estimate of 1.
            CoordCommand::Init => wire::encode_frame_epoch(TAG_INIT, epoch, &0u8, out),
            CoordCommand::IncEval { superstep, updates } => {
                wire::encode_frame_with_epoch(TAG_INCEVAL, epoch, out, |out| {
                    superstep.encode(out);
                    updates.encode(out);
                })
            }
            CoordCommand::Resume {
                superstep,
                checkpoint,
            } => wire::encode_frame_with_epoch(TAG_RESUME, epoch, out, |out| {
                superstep.encode(out);
                checkpoint.encode(out);
            }),
            CoordCommand::Finish => wire::encode_frame_epoch(TAG_FINISH, epoch, &0u8, out),
        }
    }

    /// Splits one framed command off the front of `buf`, returning it with
    /// the number of bytes consumed. Unknown tags are a
    /// [`WireError::BadTag`]; partial input is a [`WireError::Truncated`];
    /// leftover payload bytes are a [`WireError::TrailingBytes`].
    pub fn decode_frame(buf: &[u8]) -> Result<(Self, usize), WireError> {
        let (tag, body, consumed) = wire::decode_frame(buf)?;
        Ok((Self::decode_body(tag, body)?, consumed))
    }

    /// Decodes a command from an already-unframed `(tag, body)` pair, as
    /// produced by [`wire::decode_frame`] / [`wire::read_frame_io`].
    pub fn decode_body(tag: u8, body: &[u8]) -> Result<Self, WireError> {
        let mut reader = WireReader::new(body);
        let command = match tag {
            TAG_INIT => {
                reader.u8()?;
                CoordCommand::Init
            }
            TAG_INCEVAL => CoordCommand::IncEval {
                superstep: usize::decode(&mut reader)?,
                updates: Vec::<PositionValue<V>>::decode(&mut reader)?,
            },
            TAG_RESUME => CoordCommand::Resume {
                superstep: usize::decode(&mut reader)?,
                checkpoint: Option::<CheckpointState<V>>::decode(&mut reader)?,
            },
            TAG_FINISH => {
                reader.u8()?;
                CoordCommand::Finish
            }
            other => return Err(WireError::BadTag { found: other }),
        };
        reader.finish()?;
        Ok(command)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_size_counts_changes_and_strays() {
        // 8 (superstep) + 4 (changes length) + 2 × (4 + 8) + 4 (strays
        // length) + 1 (absent checkpoint): slot ids cost 4 bytes where
        // vertex ids cost 8.
        let r: WorkerReport<f64> = WorkerReport::Done {
            superstep: 3,
            changes: vec![(1, 1.0), (2, 2.0)],
            strays: vec![],
            checkpoint: None,
            eval_seconds: 0.5,
        };
        assert_eq!(r.size_bytes(), 8 + 4 + 2 * 12 + 4 + 1);
        // Strays are vertex-addressed: 8 + 8 per entry.
        let s: WorkerReport<f64> = WorkerReport::Done {
            superstep: 3,
            changes: vec![],
            strays: vec![(9, 1.0)],
            checkpoint: None,
            eval_seconds: 0.5,
        };
        assert_eq!(s.size_bytes(), 8 + 4 + 4 + 16 + 1);
        // A present checkpoint charges its flag byte plus both vectors:
        // 1 (Some) + 4 + 2 (partial bytes) + 4 + (1 + 8) + 1 (border).
        let c: WorkerReport<f64> = WorkerReport::Done {
            superstep: 3,
            changes: vec![],
            strays: vec![],
            checkpoint: Some(CheckpointState {
                partial: vec![0xaa, 0xbb],
                border: vec![Some(1.5), None],
            }),
            eval_seconds: 0.5,
        };
        assert_eq!(c.size_bytes(), 8 + 4 + 4 + (1 + 4 + 2 + 4 + 9 + 1));
    }

    #[test]
    fn command_sizes() {
        let c: CoordCommand<u64> = CoordCommand::IncEval {
            superstep: 1,
            updates: vec![(1, 9)],
        };
        assert_eq!(c.size_bytes(), 8 + 4 + (4 + 8));
        let i: CoordCommand<u64> = CoordCommand::Init;
        assert_eq!(i.size_bytes(), 1);
        let f: CoordCommand<u64> = CoordCommand::Finish;
        assert_eq!(f.size_bytes(), 1);
        // Resume = superstep (8) + checkpoint (1 Some + 4 + 1 partial + 4 +
        // 9 border).
        let r: CoordCommand<u64> = CoordCommand::Resume {
            superstep: 2,
            checkpoint: Some(CheckpointState {
                partial: vec![7],
                border: vec![Some(9)],
            }),
        };
        assert_eq!(r.size_bytes(), 8 + (1 + 4 + 1 + 4 + 9));
    }

    #[test]
    fn command_frames_roundtrip_bit_identically() {
        let commands: Vec<CoordCommand<f64>> = vec![
            CoordCommand::Init,
            CoordCommand::IncEval {
                superstep: 42,
                updates: vec![(7, 2.5), (9, f64::INFINITY)],
            },
            CoordCommand::Resume {
                superstep: 5,
                checkpoint: Some(CheckpointState {
                    partial: vec![1, 2, 3, 4],
                    border: vec![None, Some(0.5), Some(f64::NEG_INFINITY)],
                }),
            },
            CoordCommand::Resume {
                superstep: 0,
                checkpoint: None,
            },
            CoordCommand::Finish,
        ];
        for command in &commands {
            let mut frame = Vec::new();
            command.encode_frame(&mut frame);
            // Framed size = estimate + header, exactly.
            assert_eq!(
                frame.len(),
                command.size_bytes() + CoordCommand::<f64>::WIRE_OVERHEAD
            );
            let (back, consumed) = CoordCommand::<f64>::decode_frame(&frame).unwrap();
            assert_eq!(&back, command);
            assert_eq!(consumed, frame.len());
        }
        // Frames are self-delimiting: a concatenated stream splits cleanly.
        let mut stream = Vec::new();
        for command in &commands {
            command.encode_frame(&mut stream);
        }
        let mut offset = 0;
        for command in &commands {
            let (back, consumed) = CoordCommand::<f64>::decode_frame(&stream[offset..]).unwrap();
            assert_eq!(&back, command);
            offset += consumed;
        }
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn report_frames_roundtrip_and_charge_exact_overhead() {
        let report: WorkerReport<f64> = WorkerReport::Done {
            superstep: 3,
            changes: vec![(1, 1.0), (2, f64::NEG_INFINITY)],
            strays: vec![(77, 0.25)],
            checkpoint: Some(CheckpointState {
                partial: vec![9, 8, 7],
                border: vec![Some(2.25), None, Some(0.0)],
            }),
            eval_seconds: 0.125,
        };
        let mut frame = Vec::new();
        report.encode_frame(&mut frame);
        // Framed size = estimate + header + the uncharged eval_seconds field.
        assert_eq!(
            frame.len(),
            report.size_bytes() + WorkerReport::<f64>::WIRE_OVERHEAD
        );
        let (back, consumed) = WorkerReport::<f64>::decode_frame(&frame).unwrap();
        assert_eq!(back, report);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn decoding_rejects_wrong_tags_and_garbage() {
        let mut report_frame = Vec::new();
        WorkerReport::<f64>::Done {
            superstep: 0,
            changes: vec![],
            strays: vec![],
            checkpoint: None,
            eval_seconds: 0.0,
        }
        .encode_frame(&mut report_frame);
        // A report frame is not a command.
        assert!(matches!(
            CoordCommand::<f64>::decode_frame(&report_frame),
            Err(WireError::BadTag { found: TAG_REPORT })
        ));
        // Truncation anywhere in the frame is detected.
        let err = WorkerReport::<f64>::decode_frame(&report_frame[..report_frame.len() - 1]);
        assert!(matches!(err, Err(WireError::Truncated { .. })));
        // Garbage appended *inside* the declared payload is trailing bytes.
        let mut inflated = Vec::new();
        CoordCommand::<f64>::Finish.encode_frame(&mut inflated);
        let len = u32::from_le_bytes(inflated[8..12].try_into().unwrap());
        inflated.push(0xab);
        inflated[8..12].copy_from_slice(&(len + 1).to_le_bytes());
        assert!(matches!(
            CoordCommand::<f64>::decode_frame(&inflated),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn slot_addressing_is_smaller_than_vertex_addressing() {
        // Addressing by global id is (u64 id, value); addressing by border
        // position is (u32 position, value). For f64 values that is 12 vs 16
        // bytes per changed parameter.
        let slot: Vec<PositionValue<f64>> = vec![(7, 1.5)];
        let vertex: Vec<VertexValue<f64>> = vec![(7, 1.5)];
        assert_eq!(slot.size_bytes() + 4, vertex.size_bytes());
    }
}
