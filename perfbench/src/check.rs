//! Reply checking: invariants on every reply, the live-id set the
//! invariants need, and the digest of the reply stream.

use std::collections::HashMap;

use crate::workload::{Kind, M, MAX_ITERATIONS};

/// The live global ids, in an order that depends only on the reply
/// stream (swap-remove), so `UPDATE` targets are reproducible.
#[derive(Debug, Default, Clone)]
pub struct LiveSet {
    ids: Vec<u32>,
    pos: HashMap<u32, usize>,
}

impl LiveSet {
    /// Adds a fresh id; `false` when it was already live.
    pub fn insert(&mut self, id: u32) -> bool {
        if self.pos.contains_key(&id) {
            return false;
        }
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
        true
    }

    /// Removes a live id; `false` when it was not live.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(at) = self.pos.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(at);
        if let Some(&moved) = self.ids.get(at) {
            self.pos.insert(moved, at);
        }
        true
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u32) -> bool {
        self.pos.contains_key(&id)
    }

    /// Live ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The live id a random draw selects.
    pub fn pick(&self, draw: u64) -> u32 {
        self.ids[(draw % self.ids.len() as u64) as usize]
    }
}

/// One result member `id:lo:hi:iterations`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Member {
    /// Global id.
    pub id: u32,
    /// Lower probability bound.
    pub lo: f64,
    /// Upper probability bound.
    pub hi: f64,
    /// Refinement iterations.
    pub iterations: usize,
}

/// Parses a result body (`-` or `id:lo:hi:it;...`).
pub fn parse_body(body: &str) -> Result<Vec<Member>, String> {
    if body == "-" {
        return Ok(Vec::new());
    }
    body.split(';')
        .map(|m| {
            let f: Vec<&str> = m.split(':').collect();
            if f.len() != 4 {
                return Err(format!("bad member {m:?}"));
            }
            let bad = || format!("bad member {m:?}");
            Ok(Member {
                id: f[0].parse().map_err(|_| bad())?,
                lo: f[1].parse().map_err(|_| bad())?,
                hi: f[2].parse().map_err(|_| bad())?,
                iterations: f[3].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// What a sent line asked for, as far as checking its reply goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// `KNN`, `RKNN` or `TOPM`.
    Query(Kind),
    /// `INSERT`.
    Insert,
    /// `DELNEAR`.
    DelNear,
    /// `UPDATE` of this id.
    Update(u32),
    /// `SUB KNN`.
    Sub,
    /// `STATS`.
    Stats,
    /// `QUIT`.
    Quit,
}

/// 64-bit FNV-1a, stable across platforms and toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one reply line (plus a line terminator) into the digest.
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The running reply checker of one served run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Live ids after every acknowledged mutation so far.
    pub live: LiveSet,
    /// Mutations acknowledged (set-up arrivals included), the server's
    /// `mutations=` counter.
    pub mutations: u64,
    /// Invariant violations (the first few are kept verbatim).
    pub violations: Vec<String>,
    /// Violations beyond those kept.
    pub more_violations: usize,
    /// `ERR` replies.
    pub errors: usize,
    /// Whether result widths are being accumulated (the measured stream,
    /// warm-up included).
    pub measuring: bool,
    /// Sum of `hi - lo` over measured result members.
    pub width_sum: f64,
    /// Measured result members.
    pub width_count: u64,
    /// Reply digest over the fixed prefix.
    pub digest: Digest,
    /// Whether replies still feed the digest.
    pub digesting: bool,
}

impl Checker {
    /// A checker whose replies feed the digest from the start.
    pub fn new() -> Self {
        Checker {
            digesting: true,
            ..Checker::default()
        }
    }

    fn violation(&mut self, msg: String) {
        if self.violations.len() < 8 {
            self.violations.push(msg);
        } else {
            self.more_violations += 1;
        }
    }

    fn members(&mut self, what: &str, body: &str, max_len: Option<usize>) {
        let members = match parse_body(body) {
            Ok(m) => m,
            Err(e) => return self.violation(format!("{what}: {e}")),
        };
        if max_len.is_some_and(|m| members.len() > m) {
            self.violation(format!("{what}: {} members, more than m", members.len()));
        }
        for m in members {
            if !(0.0 <= m.lo && m.lo <= m.hi && m.hi <= 1.0) {
                self.violation(format!("{what}: bounds [{}, {}] of {}", m.lo, m.hi, m.id));
            }
            if m.iterations > MAX_ITERATIONS {
                self.violation(format!("{what}: {} iterations of {}", m.iterations, m.id));
            }
            if !self.live.contains(m.id) {
                self.violation(format!("{what}: member {} is not live", m.id));
            }
            if self.measuring {
                self.width_sum += m.hi - m.lo;
                self.width_count += 1;
            }
        }
    }

    /// Checks one reply and advances the live set.
    pub fn reply(&mut self, req: Request, reply: &str) {
        if self.digesting {
            self.digest.line(reply);
        }
        if reply.starts_with("ERR") {
            self.errors += 1;
            self.violation(format!("unexpected {reply:?} for {req:?}"));
            return;
        }
        let ack = |r: &str| r.strip_prefix("OK ").and_then(|s| s.parse::<u32>().ok());
        match req {
            Request::Query(kind) => match reply.strip_prefix("RES ") {
                Some(body) => {
                    let max = (kind == Kind::TopM).then_some(M);
                    self.members("RES", body, max);
                }
                None => self.violation(format!("query got {reply:?}")),
            },
            Request::Insert => match ack(reply) {
                Some(id) if self.live.insert(id) => self.mutations += 1,
                _ => self.violation(format!("INSERT got {reply:?}")),
            },
            Request::DelNear => match ack(reply) {
                Some(id) if self.live.remove(id) => self.mutations += 1,
                _ => self.violation(format!("DELNEAR got {reply:?}")),
            },
            Request::Update(id) => match ack(reply) {
                Some(got) if got == id && self.live.contains(id) => self.mutations += 1,
                _ => self.violation(format!("UPDATE {id} got {reply:?}")),
            },
            Request::Sub => match reply
                .strip_prefix("SUB ")
                .and_then(|r| r.split_once(" RES "))
            {
                Some((_, body)) => self.members("SUB", body, None),
                None => self.violation(format!("SUB got {reply:?}")),
            },
            Request::Stats => {
                if !reply.starts_with("OK objects=") {
                    self.violation(format!("STATS got {reply:?}"));
                }
            }
            Request::Quit => {
                if reply != "OK bye" {
                    self.violation(format!("QUIT got {reply:?}"));
                }
            }
        }
    }

    /// Checks the `NOTIFY` lines pushed behind the previous reply.
    pub fn notifies(&mut self, lines: &[String]) {
        for line in lines {
            if self.digesting {
                self.digest.line(line);
            }
            self.notify(line);
        }
    }

    fn notify(&mut self, line: &str) {
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 8 || f[0] != "NOTIFY" || f[2] != "ADD" || f[4] != "DEL" || f[6] != "CHG" {
            return self.violation(format!("bad notify {line:?}"));
        }
        let measuring = std::mem::replace(&mut self.measuring, false);
        self.members("NOTIFY ADD", f[3], None);
        self.members("NOTIFY CHG", f[7], None);
        self.measuring = measuring;
    }

    /// Checks a `STATS` reply against the acknowledged counts.
    pub fn stats_match(&mut self, reply: &str, subs: usize) {
        let want = format!(
            "OK objects={} mutations={} subs={subs} ",
            self.live.len(),
            self.mutations
        );
        if !reply.starts_with(&want) {
            self.violation(format!("STATS {reply:?}, acknowledged {want:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_set_swap_removes_deterministically() {
        let mut live = LiveSet::default();
        for id in 0..5 {
            assert!(live.insert(id));
        }
        assert!(!live.insert(3));
        assert!(live.remove(1));
        assert!(!live.remove(1));
        assert_eq!(live.pick(1), 4);
        assert_eq!(live.len(), 4);
    }

    #[test]
    fn bad_bounds_and_dead_members_are_violations() {
        let mut c = Checker::new();
        c.reply(Request::Insert, "OK 0");
        c.reply(Request::Query(Kind::Knn), "RES 0:0.25:0.5:2");
        c.notifies(&["NOTIFY 1 ADD 0:0.5:0.5:1 DEL - CHG -".to_owned()]);
        assert!(c.violations.is_empty());
        c.reply(Request::Query(Kind::Knn), "RES 0:0.5:0.25:2");
        c.reply(Request::Query(Kind::Knn), "RES 7:0.1:0.2:1");
        c.reply(Request::Query(Kind::Knn), "RES 0:0.1:0.2:9");
        c.reply(
            Request::Query(Kind::TopM),
            "RES 0:0:1:0;0:0:1:0;0:0:1:0;0:0:1:0",
        );
        c.notifies(&["NOTIFY 1 ADD 3:0.5:0.5:1 DEL - CHG -".to_owned()]);
        assert_eq!(c.violations.len(), 5);
        c.reply(Request::Query(Kind::Rknn), "ERR nope");
        assert_eq!(c.errors, 1);
    }

    #[test]
    fn digest_sees_every_byte() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.line("RES 1:0.5:0.75:3");
        b.line("RES 1:0.5:0.75:2");
        assert_ne!(a.hex(), b.hex());
    }
}
