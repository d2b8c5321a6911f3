//! Workload definitions and the seeded request generator.
//!
//! A workload fixes the number of closed-loop query connections, the
//! query mix and the open-loop `TICK` schedule; both serve from the
//! persistent mmap tier. The
//! request sequence of closed-loop connection `c` is a pure function of
//! `(seed, c)`, so the timed run and the traced replay see the same
//! requests, and [`Workload::universe`] lists every distinct query the
//! generator can emit (the set whose reference answers are fetched before
//! timing).

use std::time::Duration;

/// Frames in the served corpus (`tahoma-serve --corpus`).
pub const CORPUS: usize = 1024;

/// Locations of `Corpus::synthetic`; with 8 cameras, `camera = k AND
/// location = '…'` narrows the corpus to about `CORPUS / 32` frames.
const LOCATIONS: [&str; 4] = ["Detroit", "Ann Arbor", "Lansing", "Flint"];
const CAMERAS: u64 = 8;
const KINDS: [&str; 2] = ["fence", "wallet"];

/// First capture timestamp of the synthetic corpus and its stride.
const EPOCH: u64 = 1_700_000_000;
const STRIDE_S: u64 = 30;

/// The closed-loop query mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Selective dashboard lookups narrowed by camera and location.
    Lookup,
    /// Full-corpus scans, conjunctions and timestamp range scans.
    Scan,
}

/// One standing query the tick generator drives.
#[derive(Debug, Clone, Copy)]
pub struct Standing {
    pub stream: &'static str,
    pub range: u64,
    pub step: u64,
    pub sql: &'static str,
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// Closed-loop query connections (each waits for its reply).
    pub closed_loop: usize,
    /// Standing queries, registered before timing; the open-loop
    /// generator ticks them round-robin on one connection, one `TICK`
    /// due every `period`.
    pub standing: &'static [Standing],
    pub period: Duration,
    /// In-process replay length of a traced run: queries and ticks.
    pub replay_queries: usize,
    pub replay_ticks: usize,
}

/// The tick probe of `scan`: two light standing queries.
const PROBE: &[Standing] = &[
    Standing {
        stream: "coral",
        range: 128,
        step: 4,
        sql: "SELECT * FROM frames WHERE contains_object(fence)",
    },
    Standing {
        stream: "jackson",
        range: 128,
        step: 4,
        sql: "SELECT * FROM frames WHERE contains_object(fence)",
    },
];

const STREAMS: &[Standing] = &[
    Standing {
        stream: "coral",
        range: 256,
        step: 16,
        sql: "SELECT * FROM frames WHERE contains_object(fence)",
    },
    Standing {
        stream: "jackson",
        range: 256,
        step: 16,
        sql: "SELECT * FROM frames WHERE contains_object(wallet) AND contains_object(fence)",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "scan" => Workload {
                name: "scan",
                mix: Mix::Scan,
                closed_loop: 2,
                standing: PROBE,
                period: Duration::from_millis(50),
                replay_queries: 24,
                replay_ticks: 40,
            },
            "stream" => Workload {
                name: "stream",
                mix: Mix::Lookup,
                closed_loop: 2,
                standing: STREAMS,
                period: Duration::from_millis(100),
                replay_queries: 120,
                replay_ticks: 80,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Every distinct SQL text the generator can produce, in a fixed order.
    pub fn universe(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self.mix {
            Mix::Lookup => {
                for cam in 0..CAMERAS {
                    for loc in LOCATIONS {
                        for kind in KINDS {
                            out.push(lookup_sql(&[kind], cam, loc));
                        }
                        out.push(lookup_sql(&KINDS, cam, loc));
                    }
                }
            }
            Mix::Scan => {
                for kind in KINDS {
                    out.push(format!(
                        "SELECT * FROM frames WHERE contains_object({kind})"
                    ));
                }
                out.push(scan_conjunction());
                for j in 1..=3 {
                    for kind in KINDS {
                        out.push(range_sql(kind, j));
                    }
                }
            }
        }
        out
    }

    /// The request generator of closed-loop connection `conn`.
    pub fn generator(&self, seed: u64, conn: usize) -> Generator {
        Generator {
            mix: self.mix,
            rng: SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            sent: 0,
            cycle: [0; SCAN_CYCLE],
        }
    }
}

fn lookup_sql(kinds: &[&str], cam: u64, loc: &str) -> String {
    let content: Vec<String> = kinds
        .iter()
        .map(|k| format!("contains_object({k})"))
        .collect();
    format!(
        "SELECT * FROM frames WHERE {} AND camera = {cam} AND location = '{loc}'",
        content.join(" AND ")
    )
}

fn scan_conjunction() -> String {
    "SELECT * FROM frames WHERE contains_object(fence) AND contains_object(wallet)".to_string()
}

/// A content predicate over the last `(4 - j) / 4` of the capture clock.
fn range_sql(kind: &str, j: u64) -> String {
    let from = EPOCH + STRIDE_S * (CORPUS as u64 / 4) * j;
    format!("SELECT * FROM frames WHERE contains_object({kind}) AND timestamp >= {from}")
}

/// Requests per `scan` cycle: 2 full scans, 1 conjunction, 3 ranges.
const SCAN_CYCLE: usize = 6;

/// Deterministic per-connection query sequence.
pub struct Generator {
    mix: Mix,
    rng: SplitMix64,
    sent: u64,
    cycle: [usize; SCAN_CYCLE],
}

impl Generator {
    pub fn next_sql(&mut self) -> String {
        let i = self.sent;
        self.sent += 1;
        match self.mix {
            Mix::Lookup => {
                let cam = self.rng.below(CAMERAS);
                let loc = LOCATIONS[self.rng.below(LOCATIONS.len() as u64) as usize];
                let kind = KINDS[self.rng.below(KINDS.len() as u64) as usize];
                // Every 4th dashboard request asks for both objects.
                if i % 4 == 3 {
                    lookup_sql(&KINDS, cam, loc)
                } else {
                    lookup_sql(&[kind], cam, loc)
                }
            }
            Mix::Scan => {
                // A fixed mix in seeded order: each cycle holds both
                // full-corpus scans, the conjunction and the three range
                // starts, so every run does the same work per cycle.
                let k = (i % SCAN_CYCLE as u64) as usize;
                if k == 0 {
                    self.cycle = [0, 1, 2, 3, 4, 5];
                    for j in (1..SCAN_CYCLE).rev() {
                        self.cycle.swap(j, self.rng.below(j as u64 + 1) as usize);
                    }
                }
                let kind = KINDS[self.rng.below(KINDS.len() as u64) as usize];
                match self.cycle[k] {
                    0 | 1 => format!(
                        "SELECT * FROM frames WHERE contains_object({})",
                        KINDS[self.cycle[k]]
                    ),
                    2 => scan_conjunction(),
                    j => range_sql(kind, j as u64 - 2),
                }
            }
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_stay_inside_the_universe_and_repeat_per_seed() {
        for name in ["scan", "stream"] {
            let w = Workload::by_name(name).expect("known workload");
            let universe: HashSet<String> = w.universe().into_iter().collect();
            let mut a = w.generator(7, 0);
            let mut b = w.generator(7, 0);
            let mut c = w.generator(7, 1);
            let mut differs = false;
            for _ in 0..500 {
                let sql = a.next_sql();
                assert!(universe.contains(&sql), "{name}: {sql}");
                assert_eq!(sql, b.next_sql());
                differs |= sql != c.next_sql();
            }
            assert!(differs, "{name}: connections share one sequence");
        }
    }

    #[test]
    fn every_universe_query_parses() {
        for name in ["scan", "stream"] {
            for sql in Workload::by_name(name).expect("known").universe() {
                tahoma_core::query::Query::parse(&sql).expect("parses");
            }
        }
    }
}
