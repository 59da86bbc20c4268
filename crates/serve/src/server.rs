//! The TCP front end: thread-per-connection line protocol plus the
//! cache-watcher thread that hot-swaps snapshots.
//!
//! [`Server::start`] binds `127.0.0.1:<port>` (port 0 lets the OS pick —
//! tests use this), spawns an accept loop, and optionally a watcher that
//! polls the [`SourceStamp`](crate::source::SourceStamp) every
//! `poll_interval`. When the RIB or any resolved frame changes on disk,
//! the watcher re-resolves and re-loads a snapshot at the next
//! generation and publishes it; connections converge via their
//! [`ReaderHandle`](crate::state::ReaderHandle)s while in-flight queries
//! finish on the old pinned snapshot. A half-written cache (frames
//! mid-rewrite) simply fails validation and leaves the old snapshot
//! serving; the watcher retries on the next tick.

use crate::proto::{format_answer, parse_request, Request};
use crate::snapshot::ServeSnapshot;
use crate::source::{ServeError, SourceSpec};
use crate::state::ServeState;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running serve instance. Dropping it (or calling [`Server::stop`])
/// shuts down the accept loop and watcher.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Load the initial snapshot from `spec`, bind `127.0.0.1:port`, and
    /// start serving. `poll_interval = None` disables hot-swap watching
    /// (one-shot test servers).
    pub fn start(
        spec: SourceSpec,
        port: u16,
        poll_interval: Option<Duration>,
    ) -> Result<Server, ServeError> {
        let snapshot = ServeSnapshot::load(&spec, 1)?;
        let state = Arc::new(ServeState::new(snapshot));
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from(format!("127.0.0.1:{port}")),
            detail: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from("local addr"),
            detail: e.to_string(),
        })?;
        listener.set_nonblocking(true).map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from(format!("{addr}")),
            detail: e.to_string(),
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &state, &stop);
            }));
        }
        if let Some(interval) = poll_interval {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                watch_loop(&spec, &state, &stop, interval);
            }));
        }

        Ok(Server {
            addr,
            state,
            stop,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests publish through this directly).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Signal every loop to exit and join the threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                // Connection threads are detached: they exit when the
                // client closes or sends `quit`, and the process exits
                // with outstanding connections on shutdown.
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &state);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Longest request line a connection may send, newline included. Real
/// requests are a few dozen bytes; a client that streams this many
/// bytes without a newline is answered `err line too long` and
/// disconnected, so one connection cannot grow server memory without
/// bound.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Run one connection's request loop (exposed for the CLI's stdio mode).
pub fn serve_connection(stream: TcpStream, state: &Arc<ServeState>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut handle = state.reader();
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        let n = (&mut reader)
            .take(MAX_REQUEST_LINE as u64)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(());
        }
        if n == MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            writeln!(writer, "err line too long")?;
            return Ok(());
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .trim();
        if text.is_empty() {
            continue;
        }
        match parse_request(text) {
            Ok(Request::Quit) => return Ok(()),
            Ok(Request::Gen) => {
                writeln!(writer, "{}", handle.snapshot().generation())?;
            }
            Ok(Request::Query(q)) => {
                let answer = handle.snapshot().answer(q);
                writeln!(writer, "{}", format_answer(&answer))?;
            }
            Err(e) => {
                writeln!(writer, "err {e}")?;
            }
        }
    }
}

/// Monotone generation source for hot-swap loads.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(2);

fn watch_loop(
    spec: &SourceSpec,
    state: &Arc<ServeState>,
    stop: &Arc<AtomicBool>,
    interval: Duration,
) {
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        let current = state.current();
        let fresh = spec.stamp(current.frames());
        if &fresh == current.stamp() {
            continue;
        }
        // lint: allow(relaxed-ordering, the counter only needs unique monotone values; publication ordering is ServeState::publish's)
        let generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
        match ServeSnapshot::load(spec, generation) {
            Ok(snapshot) => {
                state.publish(snapshot);
            }
            Err(_) => {
                // Cache mid-rewrite or temporarily invalid: keep serving
                // the pinned snapshot and retry next tick.
            }
        }
    }
}
