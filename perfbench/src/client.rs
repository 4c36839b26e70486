//! The server under test as a child process, and one protocol
//! connection to it.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use udb_core::ShardedEngine;
use udb_serve::{front, Server};

use crate::workload::{Scale, Workload, BATCH_CAP};

/// Body of the `--serve-child` mode: builds the workload's server (a
/// fresh in-memory engine, or `ShardedEngine::open` over `dir`), prints
/// `READY <addr> <open seconds> <replayed records>` and serves one TCP
/// connection through the multi-connection front until it closes.
pub fn serve_child(w: &Workload, dir: Option<&Path>) -> Result<(), String> {
    let cfg = w.config();
    let t = Instant::now();
    let engine = match dir {
        Some(dir) => ShardedEngine::open(dir, cfg, w.shards)
            .map_err(|e| format!("cannot open {}: {e}", dir.display()))?,
        None => ShardedEngine::with_config(
            udb_object::Database::from_objects(Vec::new()),
            cfg,
            w.shards,
        ),
    };
    let open_s = t.elapsed().as_secs_f64();
    let replayed: u64 = engine
        .recovery_reports()
        .into_iter()
        .flatten()
        .map(|r| r.replayed)
        .sum();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    let mut out = io::stdout().lock();
    writeln!(out, "READY {addr} {open_s} {replayed}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    drop(out);
    front::serve_listener(Server::new(engine, BATCH_CAP), listener, Some(1))
        .map_err(|e| format!("serve: {e}"))?;
    Ok(())
}

/// A running server child. Dropping it kills the process and waits for
/// it, so no server outlives a failed run.
pub struct ServerProc {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    /// Seconds its engine took to construct or open (recover).
    pub open_s: f64,
    /// WAL records recovery replayed (durable reopen).
    pub replayed: u64,
}

impl ServerProc {
    /// Starts `exe --serve-child` for `w` and waits for its `READY` line.
    pub fn spawn(
        exe: &Path,
        w: &Workload,
        scale: Scale,
        dir: Option<&Path>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["--serve-child", w.name, "--scale", scale.name()]);
        if let Some(dir) = dir {
            cmd.arg("--dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // from here a failure drops `proc`, which kills the child
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            open_s: 0.0,
            replayed: 0,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server did not start: {e}"))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        let ["READY", addr, open_s, replayed] = f.as_slice() else {
            return Err(format!("server did not start: {line:?}"));
        };
        proc.addr = (*addr).to_owned();
        proc.open_s = open_s.parse().map_err(|_| format!("bad READY {line:?}"))?;
        proc.replayed = replayed
            .parse()
            .map_err(|_| format!("bad READY {line:?}"))?;
        Ok(proc)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_owned())
    }

    /// Waits for the child to exit on its own (after its connection
    /// closed); kills it after 60 s.
    pub fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    return Err("server did not exit after its connection closed".to_owned())
                }
                Err(e) => return Err(format!("server wait: {e}")),
            }
        }
    }

    /// A crash-style drop: `SIGKILL`, no `FLUSH`, no `QUIT`.
    pub fn crash(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One protocol connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A reply line plus the `NOTIFY` lines that were pushed behind the
/// *previous* reply and arrived before this one.
pub type Reply = (Vec<String>, String);

impl Conn {
    /// Connects with Nagle off, as an interactive client would.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    /// Sends one line in one write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&self.stream, line)
    }

    /// Reads the next reply line, collecting `NOTIFY` lines before it.
    pub fn reply(&mut self) -> io::Result<Reply> {
        read_reply(&mut self.reader)
    }

    /// Sends every line from a writer thread while reading as many
    /// replies — the pipelined bulk load.
    pub fn pipeline(&mut self, lines: &[String]) -> io::Result<Vec<Reply>> {
        let Conn { stream, reader } = self;
        std::thread::scope(|s| {
            let writer = s.spawn(|| -> io::Result<()> {
                let mut w = BufWriter::new(&*stream);
                for line in lines {
                    w.write_all(line.as_bytes())?;
                    w.write_all(b"\n")?;
                }
                w.flush()
            });
            let replies: io::Result<Vec<Reply>> =
                lines.iter().map(|_| read_reply(reader)).collect();
            writer.join().expect("writer thread panicked")?;
            replies
        })
    }

    /// The write half and the reader, for a sender and a reader thread.
    pub fn split(&mut self) -> (&TcpStream, &mut BufReader<TcpStream>) {
        (&self.stream, &mut self.reader)
    }
}

/// Writes `line` and its terminator in one `write_all`.
pub fn send_line(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stream.write_all(&buf)
}

/// Reads lines until one is not a `NOTIFY`; see [`Reply`].
pub fn read_reply(reader: &mut BufReader<TcpStream>) -> io::Result<Reply> {
    let mut notifies = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let line = line.trim_end_matches(['\n', '\r']).to_owned();
        if line.starts_with("NOTIFY ") {
            notifies.push(line);
        } else {
            return Ok((notifies, line));
        }
    }
}
