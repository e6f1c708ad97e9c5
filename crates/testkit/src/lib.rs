//! Deterministic fault injection for the serving stack.
//!
//! The centerpiece is [`FaultProxy`]: an in-process TCP proxy that sits
//! between a client and the daemon on loopback and misbehaves *on
//! schedule*. Every accepted connection is assigned a fault profile by a
//! seeded [`FaultPlan`] — a pure function of `(seed, connection index)`
//! over the vendored `rand` stream — so the same seed always produces
//! the same schedule, byte for byte. A failing chaos run is reproduced
//! by re-running with the seed it printed; there is no wall-clock or OS
//! entropy in the schedule.
//!
//! Fault taxonomy (one class per faulted connection):
//!
//! | class                          | what it does on the wire                          |
//! |--------------------------------|---------------------------------------------------|
//! | [`FaultClass::Reset`]          | severs the connection a few bytes into the request |
//! | [`FaultClass::ReadStall`]      | freezes the client→server direction once          |
//! | [`FaultClass::WriteStall`]     | freezes the server→client direction once          |
//! | [`FaultClass::SplitWrites`]    | forwards 1–7 bytes per write (short writes)       |
//! | [`FaultClass::Latency`]        | sleeps before every forwarded chunk               |
//! | [`FaultClass::MidResponseCut`] | severs the response after N bytes                 |
//!
//! Convergence guarantee: every [`CLEAN_STRIDE`]-th connection is passed
//! through untouched, so a client that retries with fresh connections at
//! least `CLEAN_STRIDE` times always reaches the daemon. The proxy never
//! invents, reorders, or corrupts bytes — it only delays, splits, or
//! truncates — so anything that survives it received exactly what the
//! daemon sent.

#![deny(unsafe_code)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every `CLEAN_STRIDE`-th proxied connection is fault-free, whatever
/// the plan says: the proxy's convergence guarantee. A client retrying
/// on fresh connections at least this many times always gets through.
pub const CLEAN_STRIDE: u64 = 4;

/// One class of scheduled network misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Pass-through: the connection is not touched.
    None,
    /// Sever both directions a few bytes into the request, before the
    /// daemon can have seen a full request head.
    Reset,
    /// One long pause in the client→server direction.
    ReadStall,
    /// One long pause in the server→client direction.
    WriteStall,
    /// Forward at most a handful of bytes per write, both directions.
    SplitWrites,
    /// Sleep before every forwarded chunk, both directions.
    Latency,
    /// Sever both directions after N response bytes have been forwarded
    /// — the client sees a truncated head or body.
    MidResponseCut,
}

/// All injectable classes (excludes [`FaultClass::None`]): the chaos
/// suite iterates this to cover every behavior.
pub const FAULT_CLASSES: [FaultClass; 6] = [
    FaultClass::Reset,
    FaultClass::ReadStall,
    FaultClass::WriteStall,
    FaultClass::SplitWrites,
    FaultClass::Latency,
    FaultClass::MidResponseCut,
];

impl FaultClass {
    /// Stable lowercase name (used in logs and seed-reproduction docs).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Reset => "reset",
            FaultClass::ReadStall => "read-stall",
            FaultClass::WriteStall => "write-stall",
            FaultClass::SplitWrites => "split-writes",
            FaultClass::Latency => "latency",
            FaultClass::MidResponseCut => "mid-response-cut",
        }
    }
}

/// A one-off pause injected into one direction of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stall {
    /// Forwarded-byte threshold that triggers the pause.
    pub after_bytes: u64,
    /// Pause length in milliseconds.
    pub millis: u64,
}

/// The faults applied to one direction of one proxied connection. All
/// fields are plain integers so schedules compare with `==` and print
/// with `{:?}` — the determinism proptest relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirFaults {
    /// Max bytes per forwarded write; `usize::MAX` means unsplit.
    pub chunk: usize,
    /// Sleep before each forwarded chunk, in microseconds.
    pub latency_us: u64,
    /// One-off pause at a byte threshold.
    pub stall: Option<Stall>,
    /// Sever the connection after this many forwarded bytes.
    pub cut_after: Option<u64>,
}

impl DirFaults {
    /// A direction the proxy forwards untouched.
    pub const fn clean() -> DirFaults {
        DirFaults {
            chunk: usize::MAX,
            latency_us: 0,
            stall: None,
            cut_after: None,
        }
    }
}

/// The full fault profile of one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnFaults {
    /// Which class produced this profile.
    pub class: FaultClass,
    /// Faults on the client→server direction.
    pub client_to_server: DirFaults,
    /// Faults on the server→client direction.
    pub server_to_client: DirFaults,
}

impl ConnFaults {
    /// A connection the proxy forwards untouched.
    pub const fn clean() -> ConnFaults {
        ConnFaults {
            class: FaultClass::None,
            client_to_server: DirFaults::clean(),
            server_to_client: DirFaults::clean(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every connection is clean: the proxy is byte-transparent.
    Empty,
    /// Faulted connections rotate through every class.
    Mixed,
    /// Every faulted connection uses the same class.
    Only(FaultClass),
}

/// A seeded, deterministic schedule of connection faults.
///
/// The profile of connection `i` is a pure function of `(seed, i)`: the
/// plan derives a per-connection RNG with splitmix64 and draws the
/// class and parameters from the vendored xoshiro stream, whose output
/// is guaranteed stable. Two plans with the same seed and mode produce
/// identical schedules on any machine, forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    mode: Mode,
}

impl FaultPlan {
    /// A plan that never faults: the proxy becomes a byte-transparent
    /// relay (the echo-oracle proptest pins this).
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            mode: Mode::Empty,
        }
    }

    /// A plan that rotates faulted connections through every class in
    /// [`FAULT_CLASSES`], with parameters drawn from `seed`'s stream.
    pub fn mixed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            mode: Mode::Mixed,
        }
    }

    /// A plan whose every faulted connection uses `class`, with
    /// parameters drawn from `seed`'s stream.
    pub fn only(class: FaultClass, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            mode: Mode::Only(class),
        }
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault profile of connection `index` (0-based accept order).
    /// Pure: same plan + same index ⇒ same profile.
    pub fn conn(&self, index: u64) -> ConnFaults {
        if self.mode == Mode::Empty || index % CLEAN_STRIDE == CLEAN_STRIDE - 1 {
            return ConnFaults::clean();
        }
        // Decorrelate connections: a per-connection stream seeded from
        // (seed, index) through the same splitmix64 the RNG itself uses.
        let mut mix = self.seed ^ (index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let per_conn_seed = rand::splitmix64(&mut mix);
        let mut rng = StdRng::seed_from_u64(per_conn_seed);
        let class = match self.mode {
            Mode::Empty => unreachable!("handled above"),
            Mode::Only(class) => class,
            Mode::Mixed => FAULT_CLASSES[rng.gen_range(0..FAULT_CLASSES.len())],
        };
        let mut faults = ConnFaults {
            class,
            ..ConnFaults::clean()
        };
        match class {
            FaultClass::None => {}
            FaultClass::Reset => {
                // Cut inside the request head: no HTTP/1.1 request line +
                // host header fits in 24 bytes, so the daemon never sees
                // a complete request and nothing can have executed.
                faults.client_to_server.cut_after = Some(rng.gen_range(0u64..25));
            }
            FaultClass::ReadStall => {
                faults.client_to_server.stall = Some(Stall {
                    after_bytes: rng.gen_range(0u64..33),
                    millis: rng.gen_range(50u64..250),
                });
            }
            FaultClass::WriteStall => {
                faults.server_to_client.stall = Some(Stall {
                    after_bytes: rng.gen_range(0u64..65),
                    millis: rng.gen_range(50u64..250),
                });
            }
            FaultClass::SplitWrites => {
                faults.client_to_server.chunk = rng.gen_range(1usize..8);
                faults.server_to_client.chunk = rng.gen_range(1usize..8);
            }
            FaultClass::Latency => {
                faults.client_to_server.latency_us = rng.gen_range(1_000u64..11_000);
                faults.server_to_client.latency_us = rng.gen_range(1_000u64..11_000);
            }
            FaultClass::MidResponseCut => {
                // Anywhere from inside the status line to a few hundred
                // bytes into the body.
                faults.server_to_client.cut_after = Some(rng.gen_range(1u64..401));
            }
        }
        faults
    }

    /// The profiles of the first `n` connections — the "schedule" the
    /// determinism proptest compares across plan constructions.
    pub fn schedule(&self, n: u64) -> Vec<ConnFaults> {
        (0..n).map(|i| self.conn(i)).collect()
    }
}

/// An in-process fault-injecting TCP proxy on loopback.
///
/// `spawn` binds an ephemeral port and relays every accepted connection
/// to `upstream`, applying the profile [`FaultPlan::conn`] assigns to
/// its accept index. Dropping (or [`FaultProxy::shutdown`]) stops the
/// acceptor; in-flight relays end when either endpoint closes.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds `127.0.0.1:0` and starts relaying to `upstream`
    /// (`host:port`) under `plan`.
    ///
    /// # Errors
    ///
    /// Socket errors from binding the listener.
    pub fn spawn(upstream: impl Into<String>, plan: FaultPlan) -> std::io::Result<FaultProxy> {
        let upstream = upstream.into();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            thread::Builder::new()
                .name("faultproxy-accept".into())
                .spawn(move || accept_loop(&listener, &upstream, plan, &stop, &accepted))
                .expect("spawn proxy acceptor")
        };
        Ok(FaultProxy {
            addr,
            stop,
            accepted,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listening address, as clients should dial it.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// How many connections the proxy has accepted so far.
    pub fn connections(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops accepting new connections. In-flight relays drain on their
    /// own when either endpoint closes.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &str,
    plan: FaultPlan,
    stop: &AtomicBool,
    accepted: &AtomicU64,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let index = accepted.fetch_add(1, Ordering::SeqCst);
                let faults = plan.conn(index);
                let upstream = upstream.to_string();
                let _ = thread::Builder::new()
                    .name(format!("faultproxy-conn-{index}"))
                    .spawn(move || relay(client, &upstream, faults));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Wires one accepted client to a fresh upstream connection with a pump
/// thread per direction. Ends when both pumps end.
fn relay(client: TcpStream, upstream: &str, faults: ConnFaults) {
    let Ok(server) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let c2s = thread::Builder::new()
        .name("faultproxy-c2s".into())
        .spawn(move || pump(client, server, faults.client_to_server))
        .expect("spawn c2s pump");
    pump(server2, client2, faults.server_to_client);
    let _ = c2s.join();
}

/// Forwards bytes `from` → `to` under `faults` until EOF, error, or a
/// scheduled cut. On EOF the forward direction is half-closed so
/// close-delimited HTTP responses keep working through the proxy; on a
/// cut both sockets are fully severed to emulate a reset (std cannot
/// force an RST without SO_LINGER, so the peer sees an abrupt EOF
/// mid-protocol, which the client must treat the same way).
fn pump(mut from: TcpStream, mut to: TcpStream, faults: DirFaults) {
    let mut buf = [0u8; 8192];
    let mut forwarded = 0u64;
    let mut stalled = false;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut off = 0;
        while off < n {
            let take = faults.chunk.min(n - off);
            if faults.latency_us > 0 {
                thread::sleep(Duration::from_micros(faults.latency_us));
            }
            if let Some(stall) = faults.stall {
                if !stalled && forwarded + take as u64 > stall.after_bytes {
                    thread::sleep(Duration::from_millis(stall.millis));
                    stalled = true;
                }
            }
            if let Some(cut) = faults.cut_after {
                if forwarded + take as u64 > cut {
                    let keep = usize::try_from(cut.saturating_sub(forwarded)).unwrap_or(0);
                    let _ = to.write_all(&buf[off..off + keep]);
                    let _ = to.flush();
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            if to.write_all(&buf[off..off + take]).is_err() {
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            forwarded += take as u64;
            off += take;
        }
        if to.flush().is_err() {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    }
    // Propagate EOF without killing the reverse direction.
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-shot echo server: accepts one connection, echoes
    /// everything it reads back, then half-closes.
    fn echo_server() -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().unwrap().to_string();
        let join = thread::spawn(move || {
            while let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if conn.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
                let _ = conn.shutdown(Shutdown::Write);
            }
        });
        (addr, join)
    }

    fn round_trip(addr: &str, payload: &[u8]) -> Vec<u8> {
        let mut conn = TcpStream::connect(addr).expect("dial proxy");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(payload).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        let _ = conn.read_to_end(&mut back);
        back
    }

    #[test]
    fn empty_plan_is_byte_transparent() {
        let (upstream, _join) = echo_server();
        let proxy = FaultProxy::spawn(upstream, FaultPlan::empty()).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(round_trip(&proxy.addr(), &payload), payload);
    }

    #[test]
    fn split_and_latency_faults_preserve_bytes() {
        let (upstream, _join) = echo_server();
        for class in [FaultClass::SplitWrites, FaultClass::Latency] {
            let proxy = FaultProxy::spawn(upstream.clone(), FaultPlan::only(class, 7)).unwrap();
            let payload = b"the quick brown fox jumps over the lazy dog".to_vec();
            assert_eq!(round_trip(&proxy.addr(), &payload), payload, "{class:?}");
        }
    }

    #[test]
    fn reset_fault_truncates_and_clean_stride_connection_passes() {
        let (upstream, _join) = echo_server();
        let mut proxy = FaultProxy::spawn(upstream, FaultPlan::only(FaultClass::Reset, 3)).unwrap();
        let payload = vec![0xAB; 4096];
        // Connection 0 is faulted: the echo comes back truncated (most
        // likely empty — the cut lands within the first 24 bytes).
        let back = round_trip(&proxy.addr(), &payload);
        assert!(back.len() < payload.len(), "reset did not truncate");
        // Connections 1, 2 also faulted; connection 3 (CLEAN_STRIDE-1)
        // must pass through untouched.
        let _ = round_trip(&proxy.addr(), b"x");
        let _ = round_trip(&proxy.addr(), b"x");
        assert_eq!(round_trip(&proxy.addr(), &payload), payload);
        assert_eq!(proxy.connections(), 4);
        proxy.shutdown();
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::mixed(42).schedule(64);
        let b = FaultPlan::mixed(42).schedule(64);
        assert_eq!(a, b);
        let c = FaultPlan::mixed(43).schedule(64);
        assert_ne!(a, c, "different seeds should differ somewhere");
        // The clean stride holds whatever the seed.
        for (i, conn) in a.iter().enumerate() {
            if (i as u64) % CLEAN_STRIDE == CLEAN_STRIDE - 1 {
                assert_eq!(*conn, ConnFaults::clean(), "connection {i}");
            }
        }
    }

    #[test]
    fn only_plans_use_one_class() {
        for class in FAULT_CLASSES {
            for conn in FaultPlan::only(class, 9).schedule(32) {
                assert!(
                    conn.class == class || conn == ConnFaults::clean(),
                    "{conn:?} under {class:?}"
                );
            }
        }
    }
}
