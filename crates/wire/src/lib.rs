//! `marioh-wire`: the framed wire protocol between the dispatcher and
//! its shard worker processes.
//!
//! The serving stack scales out by peeling stateless workers into their
//! own OS processes (`marioh shard-worker`); this crate is the language
//! they speak — std-only like the rest of the workspace, with
//! hand-rolled binary encode/decode rather than routing job traffic
//! through ad-hoc HTTP. The frame paths carry `marioh-fault` injection
//! sites (`wire.frame`, `wire.read`) so chaos runs can corrupt or fail
//! traffic deterministically; unarmed, each site is one relaxed load.
//!
//! Three layers, bottom up:
//!
//! * **Frames** ([`frame`]): a compact length-prefixed frame — channel
//!   id, frame type, payload length, CRC-32 over header and payload —
//!   so one TCP connection multiplexes many in-flight jobs (one logical
//!   channel per dispatch) and any bit flip or truncation is rejected
//!   with a typed [`WireError`], never a panic or over-read.
//! * **Messages** ([`message`]): the typed vocabulary — `Hello` /
//!   `HelloAck` (capability handshake), `Dispatch` (a canonical job
//!   spec, its content hash, and an optional reused model),
//!   `Progress`, `Result`, `Failed`, `Cancel`, `Ping`/`Pong`
//!   (heartbeats), `Goodbye`.
//! * **Handshake** ([`handshake`]): [`WIRE_FORMAT_VERSION`] agreement.
//!   Both ends advertise their version and must match exactly (shard
//!   workers are the dispatcher's own binary); a peer on any other
//!   version is turned away with a `Goodbye` carrying the reason, so
//!   version skew fails cleanly in the handshake instead of as garbled
//!   frames later.
//!
//! The frame layout and message grammar are specified in
//! `crates/wire/FORMATS.md`; bumping [`WIRE_FORMAT_VERSION`] without a
//! matching migration note there fails CI and a unit test, exactly like
//! the store formats.

#![warn(missing_docs)]

pub mod frame;
pub mod handshake;
pub mod message;

pub use frame::{
    crc32, encode_frame, Frame, FrameReader, FrameWriter, CONTROL_CHANNEL, HEADER_LEN, MAX_PAYLOAD,
};
pub use handshake::{client_handshake, negotiate, server_handshake};
pub use message::Message;

/// Version of the wire format: frame layout, message tags, and field
/// encodings. Spoken in the `Hello`/`HelloAck` handshake; a peer on any
/// other version is refused.
///
/// Bumping this constant requires a migration note in
/// `crates/wire/FORMATS.md` (CI and a unit test fail otherwise).
pub const WIRE_FORMAT_VERSION: u32 = 3;

/// Why a wire operation failed. Decoding never panics and never reads
/// past the declared payload; every malformed input lands in one of
/// these variants.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream ended mid-frame (a clean end *between* frames is not
    /// an error; see [`FrameReader::read`]).
    Truncated(&'static str),
    /// The frame's CRC-32 does not match its header + payload bytes.
    BadCrc {
        /// CRC the frame header declared.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
    /// The frame header names a type tag this build does not know.
    UnknownFrameType(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// Declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The payload decoded inconsistently (bad UTF-8, trailing bytes,
    /// out-of-range field).
    Malformed(String),
    /// An earlier decode error left the stream position unknowable;
    /// the reader refuses to misparse whatever bytes follow. The only
    /// recovery is tearing the connection down.
    Desynced(&'static str),
    /// The peer speaks a different wire version.
    VersionMismatch {
        /// Our wire version.
        ours: u32,
        /// The peer's advertised version.
        theirs: u32,
    },
    /// The peer refused the handshake with a `Goodbye`; the string is
    /// its stated reason.
    Rejected(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
            WireError::Truncated(what) => write!(f, "wire stream truncated reading {what}"),
            WireError::BadCrc { expected, actual } => write!(
                f,
                "wire frame checksum mismatch (header says {expected:#010x}, bytes hash to {actual:#010x})"
            ),
            WireError::UnknownFrameType(tag) => write!(f, "unknown wire frame type {tag}"),
            WireError::PayloadTooLarge { len, max } => {
                write!(f, "wire payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed(msg) => write!(f, "malformed wire payload: {msg}"),
            WireError::Desynced(reason) => write!(
                f,
                "wire stream desynced by an earlier {reason}; the connection must be torn down"
            ),
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "wire version mismatch (we speak {ours}, peer speaks {theirs})"
            ),
            WireError::Rejected(reason) => write!(f, "peer refused the handshake: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod format_guard {
    /// The wire format ledger must document the version in use — the
    /// same rule (and CI grep) as the store formats.
    #[test]
    fn formats_md_documents_the_current_wire_version() {
        let ledger = include_str!("../FORMATS.md");
        let heading = format!("## wire v{}", crate::WIRE_FORMAT_VERSION);
        assert!(
            ledger.contains(&heading),
            "crates/wire/FORMATS.md is missing a {heading:?} migration note — \
             document the format change before bumping the constant"
        );
    }
}
