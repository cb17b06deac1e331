//! Version negotiation: `Hello` → `HelloAck` (or `Goodbye`).
//!
//! The connecting side (a shard worker) sends `Hello` with its wire
//! version and capability strings; the accepting side (the
//! dispatcher) answers with `HelloAck` carrying the agreed version, or
//! `Goodbye` with the refusal reason. Shard workers are always the same
//! binary as their dispatcher, so the versions must match exactly; any
//! skew surfaces as a typed handshake error instead of garbled frames
//! later.

use std::io::{Read, Write};

use crate::frame::{FrameReader, FrameWriter, CONTROL_CHANNEL};
use crate::message::Message;
use crate::{WireError, WIRE_FORMAT_VERSION};

/// Agree on the version two peers will speak: theirs must equal ours.
/// Fails with [`WireError::VersionMismatch`] otherwise.
pub fn negotiate(ours: u32, theirs: u32) -> Result<u32, WireError> {
    if ours != theirs {
        return Err(WireError::VersionMismatch { ours, theirs });
    }
    Ok(ours)
}

/// Client (connecting) side of the handshake: send `Hello` with our
/// version and capabilities, await the verdict. Returns the agreed
/// version on `HelloAck`; a `Goodbye` becomes [`WireError::Rejected`].
pub fn client_handshake<R: Read, W: Write>(
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
    capabilities: Vec<String>,
) -> Result<u32, WireError> {
    writer.send(
        CONTROL_CHANNEL,
        &Message::Hello {
            version: WIRE_FORMAT_VERSION,
            capabilities,
        },
    )?;
    match reader.read()? {
        Some(frame) => match frame.message {
            Message::HelloAck { version } => negotiate(WIRE_FORMAT_VERSION, version),
            Message::Goodbye { reason } => Err(WireError::Rejected(reason)),
            other => Err(WireError::Malformed(format!(
                "expected HelloAck, peer sent frame type {}",
                other.frame_type()
            ))),
        },
        None => Err(WireError::Truncated("handshake reply")),
    }
}

/// Server (accepting) side of the handshake: await `Hello`, negotiate,
/// answer `HelloAck` — or `Goodbye` with the reason and an error when
/// the versions differ. Returns the agreed version and the peer's
/// capability strings.
pub fn server_handshake<R: Read, W: Write>(
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
) -> Result<(u32, Vec<String>), WireError> {
    let frame = reader.read()?.ok_or(WireError::Truncated("Hello"))?;
    let (version, capabilities) = match frame.message {
        Message::Hello {
            version,
            capabilities,
        } => (version, capabilities),
        other => {
            return Err(WireError::Malformed(format!(
                "expected Hello, peer sent frame type {}",
                other.frame_type()
            )))
        }
    };
    match negotiate(WIRE_FORMAT_VERSION, version) {
        Ok(agreed) => {
            writer.send(CONTROL_CHANNEL, &Message::HelloAck { version: agreed })?;
            Ok((agreed, capabilities))
        }
        Err(err) => {
            // Tell the peer why before hanging up; best effort.
            let _ = writer.send(
                CONTROL_CHANNEL,
                &Message::Goodbye {
                    reason: err.to_string(),
                },
            );
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_requires_an_exact_version_match() {
        assert_eq!(negotiate(3, 3).unwrap(), 3);
        for (ours, theirs) in [(3, 2), (2, 3), (3, 1), (3, 0)] {
            assert!(matches!(
                negotiate(ours, theirs),
                Err(WireError::VersionMismatch { ours: o, theirs: t }) if o == ours && t == theirs
            ));
        }

        // A v2 peer's `Hello` gets a `Goodbye` and a typed error.
        let mut hello = Vec::new();
        FrameWriter::new(&mut hello)
            .send(
                CONTROL_CHANNEL,
                &Message::Hello {
                    version: 2,
                    capabilities: vec!["shard=0".into()],
                },
            )
            .unwrap();
        let mut reply = Vec::new();
        let err = server_handshake(
            &mut FrameReader::new(&hello[..]),
            &mut FrameWriter::new(&mut reply),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            WireError::VersionMismatch {
                ours: WIRE_FORMAT_VERSION,
                theirs: 2
            }
        ));
        let goodbye = FrameReader::new(&reply[..]).read().unwrap().unwrap();
        assert!(matches!(goodbye.message, Message::Goodbye { .. }));

        // A v2 `HelloAck` is refused the same way.
        let mut ack = Vec::new();
        FrameWriter::new(&mut ack)
            .send(CONTROL_CHANNEL, &Message::HelloAck { version: 2 })
            .unwrap();
        let err = client_handshake(
            &mut FrameReader::new(&ack[..]),
            &mut FrameWriter::new(Vec::new()),
            Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            WireError::VersionMismatch {
                ours: WIRE_FORMAT_VERSION,
                theirs: 2
            }
        ));
    }
}
