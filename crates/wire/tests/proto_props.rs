//! Property tests for the wire protocol: arbitrary frame sequences
//! round-trip byte-exactly, and corrupted streams (truncation, bit
//! flips) are rejected with a typed error — never a panic or over-read.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::{collection, option};

use marioh_wire::{encode_frame, Frame, FrameReader, Message, WireError};

fn arb_string() -> BoxedStrategy<String> {
    collection::vec(32u8..127, 0..24)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
        .boxed()
}

fn arb_bytes() -> BoxedStrategy<Vec<u8>> {
    collection::vec(0u8..=255, 0..96).boxed()
}

fn arb_hash() -> BoxedStrategy<[u8; 32]> {
    collection::vec(0u8..=255, 32)
        .prop_map(|v| {
            let mut h = [0u8; 32];
            h.copy_from_slice(&v);
            h
        })
        .boxed()
}

fn arb_u64() -> BoxedStrategy<u64> {
    (0u64..=u64::MAX).boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        ((0u32..=u32::MAX), collection::vec(arb_string(), 0..4)).prop_map(
            |(version, capabilities)| Message::Hello {
                version,
                capabilities,
            }
        ),
        (0u32..=u32::MAX).prop_map(|version| Message::HelloAck { version }),
        (arb_u64(), arb_hash(), arb_string(), option::of(arb_bytes())).prop_map(
            |(job, spec_hash, spec_json, model)| Message::Dispatch {
                job,
                spec_hash,
                spec_json,
                model,
            }
        ),
        (
            arb_u64(),
            option::of(arb_u64()),
            option::of(arb_u64()),
            ((0u8..2).prop_map(|b| b == 1), option::of(arb_string())),
        )
            .prop_map(
                |(job, rounds, committed, (trained, note))| Message::Progress {
                    job,
                    rounds,
                    committed,
                    trained,
                    note,
                }
            ),
        (arb_u64(), arb_hash(), arb_bytes(), option::of(arb_bytes())).prop_map(
            |(job, spec_hash, payload, model)| Message::Result {
                job,
                spec_hash,
                payload,
                model,
            }
        ),
        (arb_u64(), arb_string(), (0u8..2).prop_map(|b| b == 1)).prop_map(
            |(job, message, cancelled)| Message::Failed {
                job,
                message,
                cancelled,
            }
        ),
        arb_u64().prop_map(|job| Message::Cancel { job }),
        arb_u64().prop_map(|token| Message::Ping { token }),
        arb_u64().prop_map(|token| Message::Pong { token }),
        arb_string().prop_map(|reason| Message::Goodbye { reason }),
    ]
    .boxed()
}

fn arb_frame_sequence() -> BoxedStrategy<Vec<(u32, Message)>> {
    collection::vec(((0u32..=u32::MAX), arb_message()), 0..6).boxed()
}

fn encode_sequence(frames: &[(u32, Message)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (channel, message) in frames {
        out.extend_from_slice(&encode_frame(*channel, message));
    }
    out
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut reader = FrameReader::new(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = reader.read()? {
        frames.push(frame);
    }
    Ok(frames)
}

proptest! {
    /// Any sequence of frames encodes and decodes back to itself, both
    /// through the blocking reader and the buffered drain path.
    #[test]
    fn arbitrary_frame_sequences_round_trip(frames in arb_frame_sequence()) {
        let bytes = encode_sequence(&frames);

        let decoded = decode_all(&bytes).expect("clean stream must decode");
        prop_assert_eq!(decoded.len(), frames.len());
        for (frame, (channel, message)) in decoded.iter().zip(&frames) {
            prop_assert_eq!(frame.channel, *channel);
            prop_assert_eq!(&frame.message, message);
        }

        let mut reader = FrameReader::new(&bytes[..]);
        let mut drained = Vec::new();
        loop {
            match reader.try_read_buffered() {
                Ok(Some(frame)) => drained.push(frame),
                Ok(None) => break,
                Err(e) => panic!("buffered drain failed on a clean stream: {e}"),
            }
        }
        prop_assert_eq!(drained.len(), frames.len());
        for (frame, (channel, message)) in drained.iter().zip(&frames) {
            prop_assert_eq!(frame.channel, *channel);
            prop_assert_eq!(&frame.message, message);
        }
    }

    /// Truncating a stream anywhere yields a decoded prefix plus either
    /// a clean end (cut exactly on a frame boundary) or a typed error —
    /// never a panic, and never a phantom frame.
    #[test]
    fn truncated_streams_fail_typed(
        frames in collection::vec(((0u32..=u32::MAX), arb_message()), 1..6),
        cut_seed in 0u64..=u64::MAX,
    ) {
        let bytes = encode_sequence(&frames);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut boundaries = vec![0usize];
        {
            let mut at = 0usize;
            for (channel, message) in &frames {
                at += encode_frame(*channel, message).len();
                boundaries.push(at);
            }
        }

        let mut reader = FrameReader::new(&bytes[..cut]);
        let mut got = 0usize;
        let outcome = loop {
            match reader.read() {
                Ok(Some(frame)) => {
                    // Every decoded frame must be a true prefix frame.
                    prop_assert_eq!(frame.channel, frames[got].0);
                    prop_assert_eq!(&frame.message, &frames[got].1);
                    got += 1;
                }
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok(()) => prop_assert!(
                boundaries.contains(&cut),
                "clean EOF at {cut} which is not a frame boundary"
            ),
            Err(WireError::Truncated(_)) => prop_assert!(
                !boundaries.contains(&cut) || cut == 0,
                "truncation error at boundary cut {cut}"
            ),
            Err(other) => panic!("unexpected error kind for truncation: {other:?}"),
        }
    }

    /// Flipping any single bit of an encoded frame makes decoding fail
    /// with a typed error; the CRC covers header and payload alike.
    #[test]
    fn bit_flipped_frames_are_rejected(
        channel in 0u32..=u32::MAX,
        message in arb_message(),
        flip_seed in 0u64..=u64::MAX,
    ) {
        let mut bytes = encode_frame(channel, &message);
        let bit = (flip_seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);

        let mut reader = FrameReader::new(&bytes[..]);
        match reader.read() {
            Ok(Some(frame)) => panic!(
                "bit flip at {bit} accepted: {frame:?} (original {message:?})"
            ),
            Ok(None) => panic!("bit flip at {bit} read as clean EOF"),
            Err(
                WireError::BadCrc { .. }
                | WireError::Truncated(_)
                | WireError::PayloadTooLarge { .. }
                | WireError::UnknownFrameType(_)
                | WireError::Malformed(_),
            ) => {}
            Err(other) => panic!("unexpected error kind for bit flip: {other:?}"),
        }
    }

    /// Corruption on an *established* channel: a clean prefix of frames
    /// has already decoded when a later frame is hit by a bit flip or a
    /// truncation splice. The reader must hand over every pre-corruption
    /// frame intact, fail the corrupted one with a typed error, and then
    /// stay poisoned ([`WireError::Desynced`]) — it must never resync
    /// into the valid frames that follow the damage. That poisoning is
    /// what lets the dispatcher treat corruption as shard death.
    #[test]
    fn mid_stream_corruption_poisons_an_established_channel(
        frames in collection::vec(((0u32..=u32::MAX), arb_message()), 3..7),
        victim_seed in 0u64..=u64::MAX,
        damage_seed in 0u64..=u64::MAX,
        truncate_seed in 0u8..2,
    ) {
        let truncate = truncate_seed == 1;
        // Damage a frame after the first: the channel is established.
        let victim = 1 + (victim_seed % (frames.len() as u64 - 1)) as usize;
        let mut bytes = Vec::new();
        let mut victim_start = 0usize;
        let mut victim_end = 0usize;
        for (i, (channel, message)) in frames.iter().enumerate() {
            if i == victim {
                victim_start = bytes.len();
            }
            bytes.extend_from_slice(&encode_frame(*channel, message));
            if i == victim {
                victim_end = bytes.len();
            }
        }
        if truncate {
            // Cut the stream inside the victim frame (keep ≥ 1 byte of
            // it so the reader commits to parsing the frame).
            let len = victim_end - victim_start;
            let keep = 1 + (damage_seed % (len as u64 - 1)) as usize;
            bytes.truncate(victim_start + keep);
        } else {
            let len = victim_end - victim_start;
            let bit = (damage_seed % (len as u64 * 8)) as usize;
            bytes[victim_start + bit / 8] ^= 1 << (bit % 8);
        }

        let mut reader = FrameReader::new(&bytes[..]);
        for (channel, message) in &frames[..victim] {
            let frame = reader
                .read()
                .expect("pre-corruption frames decode")
                .expect("pre-corruption frames present");
            prop_assert_eq!(frame.channel, *channel);
            prop_assert_eq!(&frame.message, message);
        }
        match reader.read() {
            Ok(Some(frame)) => panic!("corrupted frame accepted: {frame:?}"),
            Ok(None) => panic!("corruption read as clean EOF"),
            Err(WireError::Desynced(_)) => {
                panic!("typed decode error expected before poisoning")
            }
            Err(_) => {}
        }
        // The reader is now poisoned: even the intact frames behind the
        // damage are unreachable, by design.
        for _ in 0..2 {
            prop_assert!(matches!(reader.read(), Err(WireError::Desynced(_))));
        }
    }

    /// Feeding raw garbage to the reader never panics and never
    /// over-reads: it either decodes nothing or fails typed.
    #[test]
    fn random_garbage_never_panics(garbage in collection::vec(0u8..=255, 0..256)) {
        let mut reader = FrameReader::new(&garbage[..]);
        for _ in 0..garbage.len() + 1 {
            match reader.read() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}
