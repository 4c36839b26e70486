//! The multi-connection serving front: per-connection reader threads
//! feed connection-tagged events into one mpsc queue, and a single pump
//! thread owns the [`Server`] — so concurrent clients batch-fuse into
//! shared [`udb_core::QueryBatch`] work while every engine access stays
//! single-threaded.
//!
//! # Threading model
//!
//! * **One reader thread per connection** (plus an acceptor thread in
//!   TCP mode). A reader decodes its stream line by line and sends
//!   [`Event::Line`] into the queue; bytes that are not valid UTF-8
//!   become `Err` lines the executor answers with `ERR <reason>` — the
//!   connection stays open.
//! * **One pump** ([`run_pump`]) drains the queue in arrival order, up
//!   to the server's batch cap of lines per cycle, and executes each
//!   drained slice through [`Server::execute_tagged`]. The queue is the
//!   only serialization point: the slice order *is* the global op
//!   order, so interleaved mutating connections see one consistent
//!   engine history.
//!
//! # Reply ordering
//!
//! [`Server::execute_tagged`] returns replies in slice order and the
//! pump routes each to its connection's writer, so every connection
//! observes exactly its own ops' replies, in its own op order —
//! byte-identical to running that connection's script alone against the
//! same engine history (the serve-smoke CI job diffs this per
//! connection).
//!
//! # Shutdown
//!
//! `QUIT` closes only its own connection: replies written so far are
//! flushed, then the socket is shut down (which unblocks that reader).
//! A client that disconnects mid-stream stops being served at the last
//! line its reader handed the pump — the engine keeps every mutation of
//! that prefix (the disconnect test asserts prefix-oracle equality).
//! When the input side ends (stdin EOF, or a capped listener's last
//! connection closing), the pump drains every queued event before
//! returning the server, so no acknowledged op is ever dropped.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};

use crate::{Server, TaggedLine};

/// One queue event from the acceptor or a connection reader.
pub enum Event {
    /// A connection opened: its reply writer, plus the socket half to
    /// shut down when the server closes the connection (`None` for
    /// transports without an out-of-band close, like stdin).
    Open(u64, Box<dyn Write + Send>, Option<TcpStream>),
    /// One input line (see [`TaggedLine`] for the `Err` semantics).
    Line(u64, Result<String, String>),
    /// The connection's reader hung up (EOF or socket error).
    Closed(u64),
}

/// The longest input line a reader accepts, in bytes before its
/// newline. A line past it is discarded up to its newline and becomes an
/// `Err` line, so one client cannot make a reader buffer without bound.
/// Protocol lines are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads `input` line by line and feeds the queue until EOF or a read
/// error. Line decoding happens here — not in the pump — so one
/// connection's malformed bytes never stall another's traffic: invalid
/// UTF-8 and lines longer than [`MAX_LINE_BYTES`] become `Err` lines
/// (replied `ERR <reason>`, the connection survives), and a hard read
/// error sends a final `Err` line before the [`Event::Closed`].
pub fn read_lines(mut input: impl BufRead, conn: u64, tx: Sender<Event>) {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_line_capped(&mut input, &mut buf) {
            Ok(None) => break,
            Ok(Some(false)) => Err(format!("line longer than {MAX_LINE_BYTES} bytes")),
            Ok(Some(true)) => {
                // BufRead::lines termination semantics: strip one
                // trailing \n, then one \r
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                }
                String::from_utf8(std::mem::take(&mut buf))
                    .map_err(|_| "line is not valid UTF-8".to_owned())
            }
            Err(e) => {
                let _ = tx.send(Event::Line(conn, Err(format!("read failed: {e}"))));
                break;
            }
        };
        if tx.send(Event::Line(conn, line)).is_err() {
            return;
        }
    }
    let _ = tx.send(Event::Closed(conn));
}

/// `read_until(b'\n')` with a length cap: reads one line, newline
/// included, into the cleared `buf`. Returns `None` at EOF,
/// `Some(true)` for a line of at most [`MAX_LINE_BYTES`] bytes before
/// its newline, and `Some(false)` for a longer one, whose bytes are
/// discarded up to and including its newline.
fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    buf.clear();
    let mut read_any = false;
    let mut fits = true;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(read_any.then_some(fits));
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        let content = take - usize::from(newline.is_some());
        if fits && buf.len() + content > MAX_LINE_BYTES {
            fits = false;
            buf.clear();
        }
        if fits {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

/// A live connection at the pump: where its replies go, and the socket
/// to shut down when the server side closes it.
struct Conn {
    writer: Box<dyn Write + Send>,
    socket: Option<TcpStream>,
}

/// Drains the queue and executes until the input side ends: each cycle
/// takes whatever has arrived — up to the server's batch cap of lines —
/// and hands it to [`Server::execute_tagged`] in arrival order, so
/// batching adapts to arrival pressure and fuses across connections.
/// Returns the server (with its final engine state) when every event
/// producer is gone, or — with `exit_when_conns_drain` (the stdin
/// front) — as soon as every opened connection has closed. A cycle
/// that raised [`udb_core::ShardedEngine::checkpoint_failures`] writes
/// one line to stderr: no reply carries those failures.
pub fn run_pump(mut server: Server, rx: Receiver<Event>, exit_when_conns_drain: bool) -> Server {
    let batch_cap = server.batch_cap();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut opened = 0usize;
    let mut checkpoint_failures = server.engine().checkpoint_failures();
    while let Ok(first) = rx.recv() {
        let mut events = vec![first];
        let mut line_count = usize::from(matches!(events[0], Event::Line(..)));
        while line_count < batch_cap {
            match rx.try_recv() {
                Ok(event) => {
                    line_count += usize::from(matches!(event, Event::Line(..)));
                    events.push(event);
                }
                Err(_) => break,
            }
        }
        // process in order: runs of lines execute together (fused
        // batches), Open/Closed apply between runs — a connection's
        // reader sends Open before its lines and Closed after them, and
        // the queue preserves send order, so per-connection causality
        // holds within every cycle
        let mut lines: Vec<TaggedLine> = Vec::new();
        for event in events {
            match event {
                Event::Line(conn, line) => {
                    // lines of connections closed in earlier cycles
                    // (QUIT or write failure) are dropped, like input
                    // after a closed stream
                    if conns.contains_key(&conn) {
                        lines.push((conn, line));
                    }
                }
                Event::Open(conn, writer, socket) => {
                    execute(&mut server, &mut conns, &mut lines);
                    conns.insert(conn, Conn { writer, socket });
                    opened += 1;
                }
                Event::Closed(conn) => {
                    execute(&mut server, &mut conns, &mut lines);
                    conns.remove(&conn);
                    // a dropped socket ends its subscriptions: sweep
                    // them so later mutations stop maintaining (and
                    // never push to) a connection that is gone
                    server.drop_connection(conn);
                }
            }
        }
        execute(&mut server, &mut conns, &mut lines);
        let failures = server.engine().checkpoint_failures();
        if failures > checkpoint_failures {
            checkpoint_failures = failures;
            eprintln!("serve: {failures} cadence checkpoints failed so far; the WAL grows until one succeeds");
        }
        if exit_when_conns_drain && opened > 0 && conns.is_empty() {
            break;
        }
    }
    server
}

/// Executes one drained slice and routes the tagged replies: each
/// connection's replies are written in op order and flushed once per
/// cycle. A connection whose writer fails is dropped (the peer is gone;
/// its executed mutations stand), and `QUIT`ed connections are shut
/// down after their final flush so their readers unblock.
fn execute(server: &mut Server, conns: &mut HashMap<u64, Conn>, lines: &mut Vec<TaggedLine>) {
    if lines.is_empty() {
        return;
    }
    let (replies, quits) = server.execute_tagged(lines);
    lines.clear();
    let mut touched: Vec<u64> = Vec::new();
    let mut failed: Vec<u64> = Vec::new();
    for (conn_id, reply) in replies {
        if failed.contains(&conn_id) {
            continue;
        }
        let Some(conn) = conns.get_mut(&conn_id) else {
            continue; // disconnected mid-cycle; replies have nowhere to go
        };
        if writeln!(conn.writer, "{reply}").is_err() {
            failed.push(conn_id);
        } else if !touched.contains(&conn_id) {
            touched.push(conn_id);
        }
    }
    for conn_id in touched {
        if let Some(conn) = conns.get_mut(&conn_id) {
            if conn.writer.flush().is_err() {
                failed.push(conn_id);
            }
        }
    }
    for conn_id in failed.into_iter().chain(quits) {
        // `QUIT` already swept its subscriptions inside execute_tagged;
        // write-failure drops sweep here (idempotent either way)
        server.drop_connection(conn_id);
        if let Some(conn) = conns.remove(&conn_id) {
            if let Some(socket) = conn.socket {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
    }
}

/// The stdin front: one connection (id 0) reading stdin and replying on
/// stdout. Returns the server once the connection ends (`QUIT` or EOF);
/// on `QUIT` the reader thread may still be parked on an open stdin —
/// it exits with the process, exactly like the pre-front serving loop.
pub fn serve_stdin(server: Server) -> Server {
    let (tx, rx) = std::sync::mpsc::channel::<Event>();
    let writer = Box::new(BufWriter::new(std::io::stdout()));
    tx.send(Event::Open(0, writer, None))
        .expect("receiver is live");
    std::thread::spawn(move || read_lines(std::io::stdin().lock(), 0, tx));
    run_pump(server, rx, true)
}

/// The TCP front: accepts connections concurrently, one reader thread
/// each, all feeding the one pump (which runs on the calling thread).
/// The engine persists across connections; `QUIT` closes only its own
/// connection. With `max_conns` the acceptor stops after that many
/// connections and the call returns the server once the last one
/// closes — `None` serves forever (the production mode).
pub fn serve_listener(
    server: Server,
    listener: TcpListener,
    max_conns: Option<usize>,
) -> std::io::Result<Server> {
    let (tx, rx) = std::sync::mpsc::channel::<Event>();
    std::thread::spawn(move || {
        let mut next_id = 0u64;
        for conn in listener.incoming() {
            let Ok(conn) = conn else { break };
            let (reader_half, writer_half) = match (conn.try_clone(), conn.try_clone()) {
                (Ok(r), Ok(w)) => (r, w),
                _ => continue,
            };
            let id = next_id;
            next_id += 1;
            let opened = Event::Open(id, Box::new(BufWriter::new(writer_half)), Some(conn));
            if tx.send(opened).is_err() {
                break;
            }
            let reader_tx = tx.clone();
            std::thread::spawn(move || read_lines(BufReader::new(reader_half), id, reader_tx));
            if max_conns.is_some_and(|cap| next_id >= cap as u64) {
                break; // dropping tx lets the pump drain and return
            }
        }
    });
    Ok(run_pump(server, rx, false))
}

/// A scripting client for the TCP front: connects, forwards stdin to
/// the server **as raw bytes** (so even undecodable lines reach the
/// server and come back as `ERR` replies), and echoes every reply line
/// to stdout until the server closes the connection. After stdin EOF
/// the write half is shut down, so a script without a trailing `QUIT`
/// ends as a mid-stream disconnect — the prefix still executes.
pub fn run_client(addr: &str) -> std::io::Result<()> {
    let conn = TcpStream::connect(addr)?;
    let mut write_half = conn.try_clone()?;
    let writer = std::thread::spawn(move || {
        let mut input = std::io::stdin().lock();
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            match input.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if !buf.ends_with(b"\n") {
                        buf.push(b'\n');
                    }
                    if write_half.write_all(&buf).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = write_half.flush();
        let _ = write_half.shutdown(Shutdown::Write);
    });
    let mut out = std::io::stdout().lock();
    let mut replies = BufReader::new(conn);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match replies.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => out.write_all(&buf)?,
        }
    }
    out.flush()?;
    let _ = writer.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lines a reader sends for `input`, read through a small
    /// buffer so lines straddle many `fill_buf` chunks.
    fn lines_of(input: &[u8]) -> Vec<Result<String, String>> {
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        read_lines(BufReader::with_capacity(4096, input), 7, tx);
        let mut out = Vec::new();
        for event in rx {
            match event {
                Event::Line(7, line) => out.push(line),
                Event::Closed(7) => return out,
                _ => panic!("unexpected event"),
            }
        }
        panic!("reader ended without Closed");
    }

    #[test]
    fn lines_past_the_cap_become_err_and_the_reader_goes_on() {
        let at_cap = "x".repeat(MAX_LINE_BYTES);
        let mut input = Vec::new();
        input.extend_from_slice(b"STATS\n");
        input.extend_from_slice(&[b'y'; MAX_LINE_BYTES + 1]);
        input.extend_from_slice(b"\nPING\r\n");
        input.extend_from_slice(at_cap.as_bytes());
        input.extend_from_slice(b"\n");
        input.extend_from_slice(&[b'z'; 3 * MAX_LINE_BYTES]);
        input.extend_from_slice(b"\nQUIT");
        let lines = lines_of(&input);
        let too_long = Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], Ok("STATS".to_owned()));
        assert_eq!(lines[1], too_long);
        assert_eq!(lines[2], Ok("PING".to_owned()));
        assert_eq!(lines[3].as_deref(), Ok(at_cap.as_str()));
        assert_eq!(lines[4], too_long);
        // a last line without a newline still arrives
        assert_eq!(lines[5], Ok("QUIT".to_owned()));
    }
}
