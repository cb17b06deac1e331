//! The shard-worker side of the wire protocol: a stateless process (or
//! thread, in tests) that connects back to the dispatcher, handshakes,
//! and turns `Dispatch` frames into `Progress`/`Result`/`Failed` frames.
//!
//! Workers hold no job state of their own — every job arrives complete
//! (spec JSON, spec hash, optional model bytes) and leaves complete (the
//! result payload is the exact artifact-store encoding). That is what
//! makes SIGKILL recovery a pure dispatcher concern: re-sending the same
//! `Dispatch` frame to a fresh worker reproduces the same bytes.

use crate::exec::{cancellable_sleep, execute_encoded, EncodedOutcome};
use marioh_core::search::SearchStats;
use marioh_core::{CancelToken, ProgressObserver};
use marioh_store::JobSpec;
use marioh_wire::{client_handshake, FrameReader, FrameWriter, Message, WireError};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type SharedWriter = Arc<Mutex<FrameWriter<TcpStream>>>;

/// Connects to a dispatcher at `addr` and serves jobs until it says
/// `Goodbye` (or the connection drops). This is the body of
/// `marioh shard-worker`.
///
/// # Errors
///
/// Connection or handshake failures; a clean `Goodbye` is `Ok`.
pub fn run(addr: &str, shard: usize) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr)?;
    serve(stream, shard)
}

/// Serves jobs over an already-connected stream. Split from [`run`] so
/// tests can drive a worker over a socket pair without a real process.
///
/// # Errors
///
/// Handshake or wire failures; a clean `Goodbye` or EOF is `Ok`.
pub fn serve(stream: TcpStream, shard: usize) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(Mutex::new(FrameWriter::new(stream)));
    {
        let mut sink = writer.lock().expect("writer lock poisoned");
        client_handshake(&mut reader, &mut sink, vec![format!("shard={shard}")])?;
    }
    let cancels: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::default();
    let mut jobs: Vec<JoinHandle<()>> = Vec::new();
    // On EOF or a read error the dispatcher went away — nothing left to
    // tell it, so the loop just ends.
    while let Ok(Some(frame)) = reader.read() {
        jobs.retain(|handle| !handle.is_finished());
        match frame.message {
            Message::Dispatch {
                job,
                spec_hash,
                spec_json,
                model,
            } => {
                // Worker-side fault site, one operation per Dispatch
                // received: `exit` scripts a crash loop, `stall` wedges
                // the serve loop (heartbeats stop, so the dispatcher's
                // timeout must catch it), `err` fails the job without
                // running it. Counters reset with the process — each
                // respawned incarnation counts from 1.
                match marioh_fault::hit(&format!("shard.{shard}")) {
                    Some(marioh_fault::Action::Exit) => {
                        std::process::exit(marioh_fault::EXIT_CODE);
                    }
                    Some(marioh_fault::Action::Stall(ms)) => marioh_fault::stall(ms),
                    Some(marioh_fault::Action::Err) => {
                        let _ = writer.lock().expect("writer lock poisoned").send(
                            frame.channel,
                            &Message::Failed {
                                job,
                                message: marioh_fault::io_error(&format!("shard.{shard}"))
                                    .to_string(),
                                cancelled: false,
                            },
                        );
                        continue;
                    }
                    _ => {}
                }
                let cancel = CancelToken::new();
                cancels
                    .lock()
                    .expect("cancel registry lock poisoned")
                    .insert(job, cancel.clone());
                let writer = Arc::clone(&writer);
                let cancels = Arc::clone(&cancels);
                let channel = frame.channel;
                jobs.push(std::thread::spawn(move || {
                    run_job(&writer, channel, job, spec_hash, &spec_json, model, cancel);
                    // The job's final frame just went out; follow it with
                    // the freshest view of this worker's counters.
                    push_snapshot(&writer, shard as u64);
                    cancels
                        .lock()
                        .expect("cancel registry lock poisoned")
                        .remove(&job);
                }));
            }
            Message::Cancel { job } => {
                if let Some(token) = cancels
                    .lock()
                    .expect("cancel registry lock poisoned")
                    .get(&job)
                {
                    token.cancel();
                }
            }
            Message::Ping { token } => {
                let _ = writer
                    .lock()
                    .expect("writer lock poisoned")
                    .send(marioh_wire::CONTROL_CHANNEL, &Message::Pong { token });
                push_snapshot(&writer, shard as u64);
            }
            Message::Goodbye { .. } => break,
            // The dispatcher only sends the frames above; anything else
            // is ignored.
            _ => {}
        }
    }
    // Wind down: cancel whatever is still running, then wait for the job
    // threads so their final frames (best-effort by now) are flushed.
    for token in cancels
        .lock()
        .expect("cancel registry lock poisoned")
        .values()
    {
        token.cancel();
    }
    for handle in jobs {
        let _ = handle.join();
    }
    Ok(())
}

/// Pushes this process's metrics registry to the dispatcher as a
/// `MetricsSnapshot` frame on the control channel. Best effort, like
/// every other worker send: a lost snapshot only means the dispatcher
/// keeps a slightly staler view.
fn push_snapshot(writer: &SharedWriter, shard: u64) {
    let stats = marioh_obs::global().snapshot().encode();
    let _ = writer.lock().expect("writer lock poisoned").send(
        marioh_wire::CONTROL_CHANNEL,
        &Message::MetricsSnapshot { shard, stats },
    );
}

/// Runs one dispatched job on its own thread and reports the outcome on
/// the job's channel. All sends are best-effort: if the dispatcher is
/// gone, it will re-dispatch to a replacement worker anyway.
fn run_job(
    writer: &SharedWriter,
    channel: u32,
    job: u64,
    spec_hash: [u8; 32],
    spec_json: &str,
    model_bytes: Option<Vec<u8>>,
    cancel: CancelToken,
) {
    let observer_cancel = cancel.clone();
    let observer = |spec: &JobSpec| -> Arc<dyn ProgressObserver> {
        Arc::new(ShardObserver {
            writer: Arc::clone(writer),
            channel,
            job,
            throttle_ms: spec.throttle_ms,
            cancel: observer_cancel,
        })
    };
    let message = match execute_encoded(spec_json, model_bytes.as_deref(), observer, cancel) {
        EncodedOutcome::Done { payload, model } => Message::Result {
            job,
            spec_hash,
            payload,
            model,
        },
        EncodedOutcome::Failed { message, cancelled } => Message::Failed {
            job,
            message,
            cancelled,
        },
    };
    let _ = writer
        .lock()
        .expect("writer lock poisoned")
        .send(channel, &message);
}

/// Streams pipeline progress back to the dispatcher as `Progress`
/// frames, and applies the job's `throttle_ms` pacing after each round —
/// the wire twin of the server's in-process `JobObserver`.
struct ShardObserver {
    writer: SharedWriter,
    channel: u32,
    job: u64,
    throttle_ms: u64,
    cancel: CancelToken,
}

impl ShardObserver {
    fn send(&self, message: Message) {
        let _ = self
            .writer
            .lock()
            .expect("writer lock poisoned")
            .send(self.channel, &message);
    }

    fn progress(&self) -> Message {
        Message::Progress {
            job: self.job,
            rounds: None,
            committed: None,
            trained: false,
            note: None,
        }
    }
}

impl ProgressObserver for ShardObserver {
    fn on_round(&self, round: usize, _theta: f64, _stats: &SearchStats) {
        let mut message = self.progress();
        if let Message::Progress { rounds, .. } = &mut message {
            *rounds = Some(round as u64);
        }
        self.send(message);
        if self.throttle_ms > 0 {
            cancellable_sleep(self.throttle_ms, &self.cancel);
        }
    }

    fn on_commit(&self, _round: usize, _committed: usize, total_committed: usize) {
        let mut message = self.progress();
        if let Message::Progress { committed, .. } = &mut message {
            *committed = Some(total_committed as u64);
        }
        self.send(message);
    }

    fn on_training_done(&self, _secs: f64) {
        let mut message = self.progress();
        if let Message::Progress { trained, .. } = &mut message {
            *trained = true;
        }
        self.send(message);
    }

    fn on_error(&self, msg: &str) {
        let mut message = self.progress();
        if let Message::Progress { note, .. } = &mut message {
            *note = Some(msg.to_owned());
        }
        self.send(message);
    }
}
