//! The timed run: closed-loop `QUERY` connections plus an open-loop
//! `TICK` generator against a live server, every answer checked.
//!
//! Before timing, each distinct query's reference answer is fetched once
//! with `QUERYU` (plan cache and coalescing off), the standing queries are
//! registered, and one `QUERY` per predicate set warms the plan cache.
//! The traffic then runs for [`WARMUP`] untimed before the timed span
//! starts (caches, page faults and the host settle); its answers are
//! checked like the timed ones.
//! During timing every `OK` is checked against its reference and every
//! `TICK`'s `added`/`removed` delta is replayed client-side and checked
//! against its `sum=`. After timing, `DELTAS` on every standing query must
//! answer `agree=yes` with the client's reconstructed hash.

use crate::client::{self, Conn, Server};
use crate::stats::Sample;
use crate::workload::{Workload, CORPUS};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tahoma_serve::protocol::fnv1a64;

/// Traffic sent before timing starts, checked but not timed.
pub const WARMUP: Duration = Duration::from_secs(3);

/// Failure notes kept for the report (the count is always exact).
const MAX_NOTES: usize = 8;

/// Checked operations: attempted, failed, and the first few failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }
}

/// A query's reference answer: match count and `fnv1a64` over the ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub n: u64,
    pub sum: u64,
}

impl Answer {
    /// The answer a matched-id list encodes to on the wire.
    pub fn of(ids: &[u64]) -> Answer {
        Answer {
            n: ids.len() as u64,
            sum: fnv1a64(ids),
        }
    }
}

/// `STATS` counters by name.
pub type Stats = BTreeMap<String, u64>;

/// Everything the timed run observed.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// `QUERY` latencies, send to reply.
    pub queries: Vec<Sample>,
    /// `TICK` latencies from the tick's due time to its reply.
    pub ticks: Vec<Sample>,
    /// How late the generator sent each `TICK` after its due time, ms.
    pub late_ms: Vec<f64>,
    pub checks: Checks,
    pub stats_before: Stats,
    pub stats_after: Stats,
    pub rss_mb: f64,
    /// Bytes of the files under the store directory.
    pub store_bytes: u64,
    /// Corpus frames plus frames ingested by ticks.
    pub frames_stored: u64,
    /// Reference answers by SQL text.
    pub references: HashMap<String, Answer>,
}

impl TimedRun {
    /// Counter delta across the timed window.
    pub fn stat_delta(&self, key: &str) -> f64 {
        let after = self.stats_after.get(key).copied().unwrap_or(0);
        let before = self.stats_before.get(key).copied().unwrap_or(0);
        after.saturating_sub(before) as f64
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

fn parse_stats(line: &str) -> Result<Stats, String> {
    if !line.starts_with("OK ") {
        return Err(format!("STATS answered {line}"));
    }
    Ok(line
        .split_whitespace()
        .skip(1)
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Check one `QUERY` reply against the reference answer.
pub fn check_query(sql: &str, line: &str, reference: Option<&Answer>, checks: &mut Checks) {
    checks.attempted += 1;
    if !line.starts_with("OK ") {
        checks.fail(format!("QUERY {sql}: {line}"));
        return;
    }
    let got = match (client::num(line, "n"), client::num(line, "sum")) {
        (Some(n), Some(sum)) => Answer { n, sum },
        _ => return checks.fail(format!("QUERY {sql}: malformed reply {line}")),
    };
    match reference {
        Some(r) if *r == got => {}
        Some(r) => checks.fail(format!(
            "QUERY {sql}: n={} sum={:016x}, reference n={} sum={:016x}",
            got.n, got.sum, r.n, r.sum
        )),
        None => checks.fail(format!("QUERY {sql}: no reference answer")),
    }
}

/// Apply one `TICK` reply's delta to the client-side window and check the
/// reconstruction against the reply's `matched=` and `sum=`.
pub fn check_tick(line: &str, window: &mut Vec<u64>, checks: &mut Checks) {
    checks.attempted += 1;
    if !line.starts_with("OK ") {
        return checks.fail(format!("TICK: {line}"));
    }
    let (Some(added), Some(removed), Some(sum), Some(matched)) = (
        client::ids(line, "added"),
        client::ids(line, "removed"),
        client::num(line, "sum"),
        client::num(line, "matched"),
    ) else {
        return checks.fail(format!("TICK: malformed reply {line}"));
    };
    if let Some(id) = removed.iter().find(|id| !window.contains(id)) {
        return checks.fail(format!("TICK removed {id}, which was not matched: {line}"));
    }
    window.retain(|id| !removed.contains(id));
    window.extend(&added);
    if fnv1a64(window) != sum || window.len() as u64 != matched {
        checks.fail(format!(
            "TICK replay: {} ids hash {:016x}, reply says {line}",
            window.len(),
            fnv1a64(window)
        ));
    }
}

/// Bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What one closed-loop connection saw.
struct ClientResult {
    conn: Option<Conn>,
    latencies: Vec<Sample>,
    checks: Checks,
}

/// Closed loop until `end`; requests sent from `timed` on are timed.
fn closed_loop(
    mut conn: Conn,
    w: &Workload,
    seed: u64,
    c: usize,
    timed: Instant,
    end: Instant,
    refs: &HashMap<String, Answer>,
) -> ClientResult {
    let mut gen = w.generator(seed, c);
    let mut latencies = Vec::new();
    let mut checks = Checks::default();
    let mut alive = true;
    while alive && Instant::now() < end {
        let sql = gen.next_sql();
        let t0 = Instant::now();
        let reply = conn.request(&format!("QUERY {sql}"));
        if t0 >= timed {
            latencies.push(Sample {
                at_s: (t0 - timed).as_secs_f64(),
                ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
        match reply {
            Ok(line) => check_query(&sql, &line, refs.get(&sql), &mut checks),
            Err(e) => {
                checks.attempted += 1;
                checks.fail(format!("QUERY {sql}: connection dropped: {e}"));
                alive = false;
            }
        }
    }
    ClientResult {
        conn: alive.then_some(conn),
        latencies,
        checks,
    }
}

/// What the tick generator saw.
#[derive(Default)]
struct TickResult {
    latencies: Vec<Sample>,
    late: Vec<f64>,
    windows: Vec<Vec<u64>>,
    checks: Checks,
}

/// Open loop on one connection: a sender thread sends the `TICK`s on
/// schedule, round-robin over the standing queries, without waiting for
/// replies; a receiver thread reads the replies (the server answers a
/// connection's requests in order) and times each from its tick's due
/// time, so a schedule that falls behind shows as growing latency. The
/// schedule starts at `start`; ticks due from `timed` on are timed.
fn open_loop(
    conn: Conn,
    qids: &[u64],
    period: Duration,
    start: Instant,
    timed: Instant,
    end: Instant,
) -> TickResult {
    let (mut sock, mut rconn) = conn.split();
    let (tx, rx) = mpsc::channel::<(Instant, usize)>();
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::new();
            let mut send_error = None;
            for k in 0u32.. {
                let due = start + period * k;
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if due >= timed {
                    late.push(due.elapsed().as_secs_f64() * 1e3);
                }
                let qi = k as usize % qids.len();
                if let Err(e) = sock.write_all(format!("TICK {}\n", qids[qi]).as_bytes()) {
                    send_error = Some(format!("TICK send: {e}"));
                    break;
                }
                if tx.send((due, qi)).is_err() {
                    break;
                }
            }
            (late, send_error)
        });
        let mut out = TickResult {
            windows: vec![Vec::new(); qids.len()],
            ..TickResult::default()
        };
        for (due, qi) in rx {
            match rconn.recv() {
                Ok(line) => {
                    if due >= timed {
                        out.latencies.push(Sample {
                            at_s: (due - timed).as_secs_f64(),
                            ms: due.elapsed().as_secs_f64() * 1e3,
                        });
                    }
                    check_tick(&line, &mut out.windows[qi], &mut out.checks);
                }
                Err(e) => {
                    out.checks.attempted += 1;
                    out.checks.fail(format!("TICK: connection dropped: {e}"));
                    break;
                }
            }
        }
        let (late, send_error) = sender.join().expect("tick sender panicked");
        out.late = late;
        if let Some(e) = send_error {
            out.checks.attempted += 1;
            out.checks.fail(e);
        }
        out
    })
}

/// Run workload `w` against `server`: [`WARMUP`], then `seconds` timed.
pub fn run(
    server: &Server,
    w: &Workload,
    seed: u64,
    seconds: f64,
    corrupt_reference: bool,
) -> Result<TimedRun, String> {
    let mut out = TimedRun::default();
    let mut ctl = Conn::connect(&server.addr).map_err(|e| io_err("connect", e))?;

    let mut qids = Vec::new();
    for s in w.standing {
        let line = format!(
            "REGISTER {} RANGE {} STEP {} {}",
            s.stream, s.range, s.step, s.sql
        );
        let reply = ctl.request(&line).map_err(|e| io_err("REGISTER", e))?;
        let qid = client::num(&reply, "qid").ok_or(format!("{line}: {reply}"))?;
        qids.push(qid);
    }

    // Reference answers: uncached, uncoalesced, one per distinct query.
    let universe = w.universe();
    for sql in &universe {
        let reply = ctl
            .request(&format!("QUERYU {sql}"))
            .map_err(|e| io_err("QUERYU", e))?;
        match (
            reply.starts_with("OK "),
            client::num(&reply, "n"),
            client::num(&reply, "sum"),
        ) {
            (true, Some(n), Some(sum)) => {
                out.references.insert(sql.clone(), Answer { n, sum });
            }
            _ => out.checks.fail(format!("reference QUERYU {sql}: {reply}")),
        }
    }
    if corrupt_reference {
        // Self-test hook: a wrong oracle must surface as failures.
        if let Some(r) = out.references.get_mut(&universe[0]) {
            r.sum ^= 1;
        }
    }

    // Warm the plan cache: one QUERY per distinct predicate set.
    let mut warmed: Vec<Vec<tahoma_imagery::ObjectKind>> = Vec::new();
    for sql in &universe {
        let mut kinds = tahoma_core::query::Query::parse(sql)
            .map_err(|e| format!("{sql}: {e}"))?
            .content;
        kinds.sort_unstable();
        if warmed.contains(&kinds) {
            continue;
        }
        warmed.push(kinds);
        let reply = ctl
            .request(&format!("QUERY {sql}"))
            .map_err(|e| io_err("QUERY", e))?;
        check_query(sql, &reply, out.references.get(sql), &mut out.checks);
    }

    out.stats_before = parse_stats(&ctl.request("STATS").map_err(|e| io_err("STATS", e))?)?;

    let mut conns = vec![ctl];
    for _ in 1..w.closed_loop {
        conns.push(Conn::connect(&server.addr).map_err(|e| io_err("connect", e))?);
    }
    let tick_conn = if qids.is_empty() {
        None
    } else {
        Some(Conn::connect(&server.addr).map_err(|e| io_err("connect", e))?)
    };

    let start = Instant::now();
    let timed = start + WARMUP;
    let end = timed + Duration::from_secs_f64(seconds);
    let refs = &out.references;
    let qids_ref = &qids;
    let (clients, ticks) = std::thread::scope(|s| {
        let clients: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || closed_loop(conn, w, seed, c, timed, end, refs)))
            .collect();
        let ticks = tick_conn
            .map(|conn| s.spawn(move || open_loop(conn, qids_ref, w.period, start, timed, end)));
        let clients: Vec<ClientResult> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let ticks = ticks.map(|h| h.join().expect("tick thread panicked"));
        (clients, ticks)
    });

    let mut ctl = None;
    for c in clients {
        out.queries.extend(c.latencies);
        out.checks.merge(c.checks);
        if ctl.is_none() {
            ctl = c.conn;
        }
    }
    let mut windows = Vec::new();
    if let Some(t) = ticks {
        out.ticks = t.latencies;
        out.late_ms = t.late;
        out.checks.merge(t.checks);
        windows = t.windows;
    }

    let mut ctl = match ctl {
        Some(c) => c,
        None => Conn::connect(&server.addr).map_err(|e| io_err("connect", e))?,
    };
    out.stats_after = parse_stats(&ctl.request("STATS").map_err(|e| io_err("STATS", e))?)?;

    // Incremental == rescan on every standing query, and equal to the
    // window the client rebuilt from the tick deltas.
    out.frames_stored = CORPUS as u64;
    for (qi, qid) in qids.iter().enumerate() {
        out.checks.attempted += 1;
        let reply = ctl
            .request(&format!("DELTAS {qid}"))
            .map_err(|e| io_err("DELTAS", e))?;
        let rebuilt = windows.get(qi).map_or(fnv1a64(&[]), |w| fnv1a64(w));
        let agree = client::field(&reply, "agree") == Some("yes");
        if !reply.starts_with("OK ") || !agree || client::num(&reply, "sum") != Some(rebuilt) {
            out.checks.fail(format!(
                "DELTAS {qid}: {reply} (client window hash {rebuilt:016x})"
            ));
        }
        let ticks = client::num(&reply, "ticks").unwrap_or(0);
        out.frames_stored += ticks * w.standing[qi].step;
    }
    out.rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    out.store_bytes = dir_bytes(&server.store_dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_line(added: &str, removed: &str, window: &[u64]) -> String {
        format!(
            "OK qid=1 tick=1 window=0..4 matched={} entered=4 scored=4 sum={:016x} \
             added={added} removed={removed}",
            window.len(),
            fnv1a64(window)
        )
    }

    #[test]
    fn tick_replay_accepts_consistent_deltas_and_rejects_drift() {
        let mut win = Vec::new();
        let mut checks = Checks::default();
        check_tick(&tick_line("1,2", "-", &[1, 2]), &mut win, &mut checks);
        check_tick(&tick_line("5", "1", &[2, 5]), &mut win, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (2, 0));
        check_tick(&tick_line("7", "-", &[2, 5]), &mut win, &mut checks);
        check_tick(&tick_line("-", "9", &[2, 5, 7]), &mut win, &mut checks);
        check_tick("ERR boom", &mut win, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (5, 3));
    }

    #[test]
    fn a_wrong_reference_sum_is_a_failure() {
        let good = Answer { n: 2, sum: 0xab };
        let line = "OK n=2 survivors=9 plan=hit sum=00000000000000ab";
        let mut checks = Checks::default();
        check_query("q", line, Some(&good), &mut checks);
        assert_eq!(checks.failed, 0);
        let corrupted = Answer { sum: 0xaa, ..good };
        check_query("q", line, Some(&corrupted), &mut checks);
        check_query("q", line, None, &mut checks);
        check_query("q", "BUSY", Some(&good), &mut checks);
        check_query("q", "TIMEOUT budget_ms=5", Some(&good), &mut checks);
        assert_eq!((checks.attempted, checks.failed), (5, 4));
    }
}
