//! The dedicated SSE streamer: one event-loop thread owning every open
//! `GET /v1/jobs/{id}/events` connection.
//!
//! Before this module, each SSE stream pinned a pool worker for its
//! whole lifetime, so fan-out was bounded by `--threads`. Now a pool
//! worker only *prepares* a stream — response head, `snapshot` frame,
//! and the hub's replayed history rendered into an outbox buffer — then
//! hands the nonblocking socket to [`SseStreamer`] and returns to the
//! pool immediately. The streamer multiplexes all connections in one
//! thread: it drains each subscription's channel into the outbox,
//! flushes nonblockingly, emits `: keep-alive` heartbeats on quiet
//! streams, and reaps dead or hopelessly slow clients.
//!
//! There is no `epoll` in `std`, so the loop is a bounded poll: it
//! sleeps a few milliseconds when no connection made progress. At the
//! hundreds-of-watchers scale this daemon targets, that costs far less
//! than a pinned worker per stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{encode_chunk, Response, CHUNKED_BODY_END};
use crate::jobs::{JobEntry, JobEventFrame};
use crate::metrics::Metrics;
use crate::sync::PoisonlessMutex;

/// Outbox bytes a client may leave unread before it is dropped as a
/// hopelessly slow consumer (matches the hub's lag-drop philosophy).
const MAX_OUTBOX_BYTES: usize = 256 * 1024;
/// Heartbeat cadence on quiet live streams.
const HEARTBEAT: Duration = Duration::from_secs(1);
/// How long a finished stream may take to flush its tail before the
/// streamer gives up on the client.
const FINISH_GRACE: Duration = Duration::from_secs(5);
/// How long pending outbox bytes may sit without a single byte of write
/// progress before the peer is declared gone. This re-establishes the
/// write-timeout guarantee the blocking path had: a peer that vanishes
/// without FIN (its send window frozen) must not leak the connection.
const WRITE_STALL_GRACE: Duration = Duration::from_secs(15);
/// Loop sleep when no connection made progress.
const IDLE_TICK: Duration = Duration::from_millis(5);

/// One adopted connection: the nonblocking socket, the live
/// subscription (`None` once the hub closed or dropped us), and the
/// bytes queued but not yet written.
struct SseConn {
    stream: TcpStream,
    live: Option<Receiver<JobEventFrame>>,
    outbox: Vec<u8>,
    written: usize,
    last_frame: Instant,
    /// Last time a write made progress (or the outbox was empty).
    last_write_progress: Instant,
    /// Set when the terminating zero chunk has been queued.
    finishing: Option<Instant>,
}

/// What one pump pass did with a connection.
enum Pump {
    /// Wrote or queued something; poll again soon.
    Progress,
    /// Nothing to do right now.
    Idle,
    /// The stream completed (terminator flushed) — close it.
    Done,
    /// The peer is gone or unrecoverable — drop it.
    Dead,
}

impl SseConn {
    fn pump(&mut self) -> Pump {
        // A client that hung up must be noticed even while the job is
        // quiet: probe with a nonblocking read. SSE clients send nothing
        // after the request, so any bytes are ignorable junk.
        let mut probe = [0u8; 256];
        match self.stream.read(&mut probe) {
            Ok(0) => return Pump::Dead,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Pump::Dead,
        }

        let mut progressed = false;
        // Refill the outbox from the hub subscription.
        if let Some(rx) = &self.live {
            loop {
                match rx.try_recv() {
                    Ok(frame) => {
                        encode_chunk(&mut self.outbox, frame.render().as_bytes());
                        self.last_frame = Instant::now();
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // The hub closed (job ended) or dropped this
                        // lagging subscriber: either way the stream is
                        // over — queue the terminator and stop reading.
                        self.live = None;
                        self.outbox.extend_from_slice(CHUNKED_BODY_END);
                        self.finishing = Some(Instant::now());
                        progressed = true;
                        break;
                    }
                }
            }
        } else if self.finishing.is_none() {
            // Adopted already-closed (history-only) stream: terminate.
            self.outbox.extend_from_slice(CHUNKED_BODY_END);
            self.finishing = Some(Instant::now());
            progressed = true;
        }
        // Heartbeat comments keep proxies from timing quiet streams out
        // and let the probe above notice dead peers.
        if self.live.is_some()
            && self.written >= self.outbox.len()
            && self.last_frame.elapsed() >= HEARTBEAT
        {
            encode_chunk(&mut self.outbox, b": keep-alive\n\n");
            self.last_frame = Instant::now();
            progressed = true;
        }

        // Flush as much as the socket accepts.
        while self.written < self.outbox.len() {
            match self.stream.write(&self.outbox[self.written..]) {
                Ok(0) => return Pump::Dead,
                Ok(n) => {
                    self.written += n;
                    self.last_write_progress = Instant::now();
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Pump::Dead,
            }
        }
        if self.written >= self.outbox.len() {
            self.outbox.clear();
            self.written = 0;
            self.last_write_progress = Instant::now();
            if self.finishing.is_some() {
                return Pump::Done;
            }
        } else if self.outbox.len() - self.written > MAX_OUTBOX_BYTES {
            // The client cannot keep up; cut it loose rather than buffer
            // without bound.
            return Pump::Dead;
        } else if self.last_write_progress.elapsed() > WRITE_STALL_GRACE {
            // Bytes are pending but the socket has accepted nothing for
            // the whole grace window: the peer is gone without FIN (or
            // has stopped reading for good). Without this, a quiet job's
            // frozen outbox would stay under the lag cap forever and
            // leak the connection.
            return Pump::Dead;
        } else if let Some(since) = self.finishing {
            if since.elapsed() > FINISH_GRACE {
                return Pump::Dead;
            }
        }
        if progressed {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }
}

/// Handle to the streamer thread: pool workers [`SseStreamer::adopt`]
/// prepared connections into it; the server [`SseStreamer::shutdown`]s
/// it on drain.
#[derive(Debug)]
pub struct SseStreamer {
    tx: Mutex<Option<Sender<SseConn>>>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl SseStreamer {
    /// Spawns the event-loop thread.
    pub fn new(metrics: Arc<Metrics>) -> SseStreamer {
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("serve-sse-streamer".into())
            .spawn(move || event_loop(&rx, &metrics, &loop_stop))
            // lint: allow(panic-freedom) — startup-time: runs once in SseStreamer::new before the listener accepts requests
            .expect("spawn sse streamer thread");
        SseStreamer {
            tx: Mutex::new(Some(tx)),
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Takes ownership of a connection for `entry`'s event stream. The
    /// caller (a pool worker) returns to the pool immediately; the
    /// response head, `snapshot` frame, and replayed history are queued
    /// into the connection's outbox and written by the streamer thread.
    ///
    /// # Errors
    ///
    /// The socket could not be switched to nonblocking mode, or the
    /// streamer is already shut down. The stream is handed back so the
    /// caller can still answer an error instead of silently hanging up.
    /// `request_id` is echoed on the stream's response head, as on every
    /// buffered response.
    pub fn adopt(
        &self,
        stream: TcpStream,
        entry: &JobEntry,
        request_id: &str,
    ) -> Result<(), (TcpStream, std::io::Error)> {
        let (history, live) = entry.events.subscribe();
        let head = Response {
            status: 200,
            headers: vec![
                ("cache-control".into(), "no-cache".into()),
                ("x-request-id".into(), request_id.to_string()),
            ],
            body: Vec::new(),
            content_type: "text/event-stream",
        };
        let mut outbox = Vec::with_capacity(1024);
        // Writing the head into a Vec cannot fail.
        let _ = head.write_chunked_head(&mut outbox);
        // Unsequenced (`seq: 0`): the snapshot is per-subscription state,
        // not part of the job's replayable stream, so it carries no SSE
        // id and reconnecting watchers never dedup it away.
        let snapshot = JobEventFrame {
            seq: 0,
            event: "snapshot",
            data: serde_json::to_string(&crate::handlers::sanitize(entry.status_json()))
                .unwrap_or_else(|_| "{}".to_string()),
        };
        encode_chunk(&mut outbox, snapshot.render().as_bytes());
        for frame in &history {
            encode_chunk(&mut outbox, frame.render().as_bytes());
        }
        if let Err(e) = stream.set_nonblocking(true) {
            return Err((stream, e));
        }
        let conn = SseConn {
            stream,
            live,
            outbox,
            written: 0,
            last_frame: Instant::now(),
            last_write_progress: Instant::now(),
            finishing: None,
        };
        let stopped = || std::io::Error::new(std::io::ErrorKind::BrokenPipe, "streamer stopped");
        let tx = self.tx.plock();
        match tx.as_ref() {
            Some(tx) => tx
                .send(conn)
                .map_err(|returned| (returned.0.stream, stopped())),
            None => Err((conn.stream, stopped())),
        }
    }

    /// Stops admitting streams and joins the thread. In-flight streams
    /// get a short grace to flush what is already queued (job drain has
    /// closed their hubs by now), then everything is dropped.
    pub fn shutdown(&self) {
        self.tx.plock().take();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.plock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SseStreamer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn event_loop(rx: &Receiver<SseConn>, metrics: &Arc<Metrics>, stop: &AtomicBool) {
    let mut conns: Vec<SseConn> = Vec::new();
    let mut admissions_closed = false;
    let mut stop_seen: Option<Instant> = None;
    loop {
        // Admit whatever is waiting without blocking the pump.
        loop {
            match rx.try_recv() {
                Ok(conn) => {
                    metrics.observe_sse_adopted();
                    conns.push(conn);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    admissions_closed = true;
                    break;
                }
            }
        }
        if stop.load(Ordering::SeqCst) {
            // Drain mode: give queued bytes (done frames, terminators) a
            // short grace, then close whatever remains.
            let since = *stop_seen.get_or_insert_with(Instant::now);
            if conns.is_empty() || since.elapsed() > Duration::from_secs(1) {
                for _ in conns.drain(..) {
                    metrics.observe_sse_closed();
                }
                return;
            }
        } else if conns.is_empty() {
            if admissions_closed {
                return;
            }
            // Nothing to pump: block (briefly) for the next adoption.
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(conn) => {
                    metrics.observe_sse_adopted();
                    conns.push(conn);
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }

        let mut progressed = false;
        conns.retain_mut(|conn| match conn.pump() {
            Pump::Progress => {
                progressed = true;
                true
            }
            Pump::Idle => true,
            Pump::Done | Pump::Dead => {
                metrics.observe_sse_closed();
                false
            }
        });
        if !progressed {
            std::thread::sleep(IDLE_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a loopback (client, server-side-accepted) socket pair.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (client, server_side)
    }

    fn entry_with_hub() -> Arc<JobEntry> {
        crate::jobs::JobEntry::test_entry(7, "sse-test".into())
    }

    #[test]
    fn adopted_streams_flush_history_live_frames_and_terminate() {
        let metrics = Arc::new(Metrics::new());
        let streamer = SseStreamer::new(Arc::clone(&metrics));
        let entry = entry_with_hub();
        entry.events.publish(JobEventFrame {
            seq: 0,
            event: "progress",
            data: "{\"generation\":1}".into(),
        });

        let (mut client, server_side) = socket_pair();
        streamer.adopt(server_side, &entry, "sse-rid").unwrap();

        // A live frame after adoption, then the hub closes.
        entry.events.publish(JobEventFrame {
            seq: 0,
            event: "done",
            data: "{}".into(),
        });
        entry.events.close_for_tests();

        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(e) => panic!("stream read failed: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("text/event-stream"), "{text}");
        assert!(text.contains("event: snapshot"), "{text}");
        assert!(text.contains("event: progress"), "{text}");
        assert!(text.contains("event: done"), "{text}");
        // Published frames carry their stream position as the SSE id;
        // the snapshot (per-subscription state) never does.
        assert!(text.contains("id: 1\nevent: progress"), "{text}");
        assert!(text.contains("id: 2\nevent: done"), "{text}");
        assert_eq!(text.matches("\nid: ").count(), 2, "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        streamer.shutdown();
        assert_eq!(metrics.jobs_queued(), 0);
    }

    #[test]
    fn a_client_that_hangs_up_is_reaped_without_blocking_others() {
        let metrics = Arc::new(Metrics::new());
        let streamer = SseStreamer::new(Arc::clone(&metrics));
        let entry = entry_with_hub();

        let (client_a, server_a) = socket_pair();
        let (mut client_b, server_b) = socket_pair();
        streamer.adopt(server_a, &entry, "sse-rid").unwrap();
        streamer.adopt(server_b, &entry, "sse-rid").unwrap();
        drop(client_a); // A hangs up immediately.

        entry.events.publish(JobEventFrame {
            seq: 0,
            event: "done",
            data: "{}".into(),
        });
        entry.events.close_for_tests();

        client_b
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match client_b.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(e) => panic!("surviving stream failed: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&raw);
        assert!(text.contains("event: done"), "{text}");
        streamer.shutdown();
    }
}
