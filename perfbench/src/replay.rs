//! The traced replay: the workload's request sequence, replayed
//! in-process with a span around each call into a layer's public API.
//!
//! The benchmark builds the same fixture the server builds
//! (`tahoma_serve::fixture::nn_service`, same config and fixture seed) plus a
//! [`Replica`] whose scorer it can read, then replays the first requests
//! of closed-loop connection 0 interleaved with the workload's ticks:
//!
//! * a `QUERY` runs `protocol::parse_request`, `Query::parse`,
//!   `QueryService::plan_for`, `QueryService::execute_with` and
//!   `protocol::encode_outcome`, each in its own span under one
//!   `request` root; the replica then executes the same query and plan
//!   (`replica.query` root, one `exec.cascade` span per predicate);
//! * a `TICK` runs `parse_request`, `StreamRegistry::tick` and
//!   `encode_tick` under a `request` root; the replica then renders,
//!   ingests and slides its own copy of the standing query
//!   (`replica.tick` root with `video.render`, `store.ingest` and
//!   `continuous.tick` spans).
//!
//! Every replica answer is compared with the service's (and, for queries,
//! with the reference the server gave over TCP).

use crate::replica::{Replica, ReplicaStream};
use crate::stats::{mean, median, ratio};
use crate::timed::{Answer, Checks};
use crate::trace::Tracer;
use crate::workload::{Workload, CORPUS};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::Ordering;
use tahoma_core::exec::NnStageStats;
use tahoma_core::query::Query;
use tahoma_imagery::ObjectKind;
use tahoma_serve::fixture::{nn_service, NnFixtureConfig};
use tahoma_serve::protocol::{
    encode_outcome, encode_serve_error, encode_tick, parse_request, Request,
};
use tahoma_serve::{ExecPolicy, StreamRegistry};

/// Uncached planning repetitions per distinct predicate set.
const MISS_REPS: usize = 10;

/// Replica-vs-service lines printed in the report.
const MAX_LINES: usize = 4;

/// Per-layer values measured by the replay.
pub struct Replay {
    pub tracer: Tracer,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median `request` root of replayed queries, ms.
    pub query_root_p50_ms: f64,
    /// Replica-vs-service agreement checks.
    pub checks: Checks,
    /// A few replica-vs-service comparisons, for the report.
    pub lines: Vec<String>,
}

fn us(ms: Option<f64>) -> f64 {
    ms.unwrap_or(0.0) * 1e3
}

fn stage_ms(after: &NnStageStats, before: &NnStageStats) -> [f64; 4] {
    [
        (after.fetch_decode_s - before.fetch_decode_s) * 1e3,
        (after.transcode_s - before.transcode_s) * 1e3,
        (after.standardize_s - before.standardize_s) * 1e3,
        (after.infer_s - before.infer_s) * 1e3,
    ]
}

pub fn run(
    w: &Workload,
    fixture_seed: u64,
    request_seed: u64,
    dir: &Path,
    references: &HashMap<String, Answer>,
) -> Result<Replay, String> {
    let cfg = NnFixtureConfig {
        corpus_n: CORPUS,
        seed: fixture_seed,
        store_dir: Some(dir.join("service-store")),
        ..NnFixtureConfig::default()
    };
    let service = nn_service(&cfg);
    let registry = StreamRegistry::new(fixture_seed);
    let mut replica = Replica::build(&cfg, &dir.join("replica-store"))?;
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut lines = Vec::new();

    let mut qids = Vec::new();
    let mut streams = Vec::new();
    for s in w.standing {
        let r = registry
            .register(&service, s.stream, s.range, s.step, s.sql)
            .map_err(|e| format!("REGISTER: {e}"))?;
        let query = Query::parse(s.sql).map_err(|e| e.to_string())?;
        let (plan, _) = service
            .plan_for(&query.content, true)
            .map_err(|e| e.to_string())?;
        streams.push(ReplicaStream::register(
            fixture_seed,
            r.qid,
            s.stream,
            s.range,
            s.step,
            query,
            &plan,
        )?);
        qids.push(r.qid);
    }

    // Cold planning, measured apart from the request stream (the replay's
    // plan cache is warm after each predicate set's first query).
    let mut sets: Vec<Vec<ObjectKind>> = Vec::new();
    for sql in w.universe() {
        let q = Query::parse(&sql).map_err(|e| e.to_string())?;
        if !sets.contains(&q.content) {
            sets.push(q.content);
        }
    }
    for kinds in &sets {
        for _ in 0..MISS_REPS {
            tr.span("plan_cache.miss", None, u64::MAX, || {
                service.plan_for(kinds, false)
            })
            .map_err(|e| e.to_string())?;
        }
    }

    let mut gen = w.generator(request_seed, 0);
    let (nq, nt) = (w.replay_queries, w.replay_ticks);
    let total = nq + nt;
    let mut hit_us = Vec::new();
    let mut query_roots = Vec::new();
    let mut stages: Vec<[f64; 4]> = Vec::new();
    let mut self_ms = Vec::new();
    let mut items = Vec::new();
    let (mut cache_hits, mut items_scored) = (0u64, 0u64);
    let (mut survivors, mut matched) = (0usize, 0usize);
    let (mut scored, mut entered) = (Vec::new(), Vec::new());
    let mut ticks_done = 0usize;
    for i in 0..total {
        let req = i as u64;
        // Spread the ticks evenly through the queries.
        let is_tick = (i + 1) * nt / total > i * nt / total;
        let root = tr.open("request", None, req);
        if is_tick {
            let qi = ticks_done % qids.len();
            ticks_done += 1;
            let line = format!("TICK {}", qids[qi]);
            let parsed = tr.span("protocol.parse", Some(root), req, || parse_request(&line));
            let Ok(Request::Tick(qid)) = parsed else {
                return Err(format!("{line} did not parse as a TICK"));
            };
            let report = tr
                .span("stream.tick", Some(root), req, || {
                    registry.tick(&service, qid)
                })
                .map_err(|e| format!("TICK {qid}: {e}"))?;
            tr.span("protocol.encode", Some(root), req, || encode_tick(&report));
            tr.close(root);

            let rroot = tr.open("replica.tick", None, req);
            let rt = streams[qi].tick(&mut replica, &mut tr, rroot, req)?;
            tr.close(rroot);
            scored.push(rt.scored as f64);
            entered.push(rt.entered as f64);
            checks.attempted += 1;
            let got = Answer::of(&rt.matched);
            if got.sum != report.sum || got.n != report.matched as u64 {
                checks.fail(format!(
                    "replica TICK {qid}: n={} sum={:016x}, service n={} sum={:016x}",
                    got.n, got.sum, report.matched, report.sum
                ));
            }
            continue;
        }

        let sql = gen.next_sql();
        let line = format!("QUERY {sql}");
        let parsed = tr.span("protocol.parse", Some(root), req, || parse_request(&line));
        let Ok(Request::Query(sql)) = parsed else {
            return Err(format!("{line} did not parse as a QUERY"));
        };
        let query = tr
            .span("query.parse", Some(root), req, || Query::parse(&sql))
            .map_err(|e| e.to_string())?;
        let plan_span = tr.open("plan_cache.plan_for", Some(root), req);
        let (plan, hit) = service
            .plan_for(&query.content, true)
            .map_err(|e| e.to_string())?;
        tr.close(plan_span);
        if hit {
            hit_us.push(tr.spans[plan_span].dur_ns() as f64 / 1e3);
        }
        let exec_span = tr.open("service.execute", Some(root), req);
        let outcome = service.execute_with(&sql, ExecPolicy::default());
        tr.close(exec_span);
        let exec_ms = tr.spans[exec_span].dur_ns() as f64 / 1e6;
        tr.span("protocol.encode", Some(root), req, || match &outcome {
            Ok(o) => encode_outcome(o),
            Err(e) => encode_serve_error(e),
        });
        tr.close(root);
        query_roots.push(tr.spans[root].dur_ns() as f64 / 1e6);
        let outcome = outcome.map_err(|e| format!("QUERY {sql}: {e}"))?;

        let before = replica.scratch.stats();
        let rroot = tr.open("replica.query", None, req);
        let ids = replica
            .execute(&query, &plan, &mut tr, rroot, req)
            .map_err(|e| format!("replica {sql}: {e}"))?;
        tr.close(rroot);
        let after = replica.scratch.stats();
        let st = stage_ms(&after, &before);
        self_ms.push(exec_ms - st.iter().sum::<f64>());
        stages.push(st);
        items.push((after.items_scored - before.items_scored) as f64);
        items_scored += after.items_scored - before.items_scored;
        cache_hits += after.cache_hits - before.cache_hits;
        survivors += outcome.metadata_survivors;
        matched += outcome.matched_ids.len();

        let replica_answer = Answer::of(&ids);
        let service_answer = Answer::of(&outcome.matched_ids);
        let server = references.get(&sql).copied();
        let line = format!(
            "replica n={} sum={:016x} | service n={} sum={:016x} | server {} | {sql}",
            replica_answer.n,
            replica_answer.sum,
            service_answer.n,
            service_answer.sum,
            server.map_or("-".to_string(), |a| format!("n={} sum={:016x}", a.n, a.sum)),
        );
        checks.attempted += 1;
        if replica_answer != service_answer || server.is_some_and(|a| a != service_answer) {
            checks.fail(line.clone());
        }
        if lines.len() < MAX_LINES {
            lines.push(line);
        }
    }

    let ms = |name: &str| median(&tr.durations_ms(name));
    let stage = |k: usize| median(&stages.iter().map(|s| s[k]).collect::<Vec<_>>()).unwrap_or(0.0);
    let calls = replica.counters.calls.load(Ordering::Relaxed) as f64;
    let rows = replica.counters.rows.load(Ordering::Relaxed) as f64;
    let infer_ns = replica.counters.ns.load(Ordering::Relaxed) as f64;
    // Coverage: how much of each request root its child spans account for.
    let coverage: Vec<f64> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "request")
        .map(|(id, s)| ratio((s.dur_ns() - tr.self_ns(id)) as f64, s.dur_ns() as f64))
        .collect();

    let mut m = BTreeMap::new();
    m.insert("protocol.parse_us", us(ms("protocol.parse")));
    m.insert("protocol.encode_us", us(ms("protocol.encode")));
    m.insert("query.parse_us", us(ms("query.parse")));
    m.insert("plan_cache.hit_us", median(&hit_us).unwrap_or(0.0));
    m.insert("plan_cache.miss_us", us(ms("plan_cache.miss")));
    m.insert("service.execute_ms", ms("service.execute").unwrap_or(0.0));
    m.insert("service.self_ms", median(&self_ms).unwrap_or(0.0));
    m.insert(
        "service.rows_examined_per_match",
        ratio(survivors as f64, matched as f64),
    );
    m.insert("exec.fetch_decode_ms", stage(0));
    m.insert("exec.standardize_ms", stage(2));
    m.insert("exec.infer_ms", stage(3));
    m.insert("exec.items_scored", median(&items).unwrap_or(0.0));
    m.insert(
        "exec.cache_hit_share",
        ratio(cache_hits as f64, items_scored as f64),
    );
    m.insert("nn.infer_us_per_row", ratio(infer_ns / 1e3, rows));
    m.insert("nn.rows_per_call", ratio(rows, calls));
    m.insert("video.render_us_per_frame", us(ms("video.render")));
    m.insert("store.ingest_us_per_frame", us(ms("store.ingest")));
    m.insert("store.sync_ms", replica.sync_ms);
    m.insert("continuous.tick_ms", ms("continuous.tick").unwrap_or(0.0));
    m.insert("continuous.scored_per_tick", mean(&scored).unwrap_or(0.0));
    m.insert("continuous.entered_per_tick", mean(&entered).unwrap_or(0.0));
    m.insert("stream.tick_ms", ms("stream.tick").unwrap_or(0.0));
    m.insert("trace.coverage", median(&coverage).unwrap_or(0.0));
    // Transcode only runs on the quarantine path; a healthy store never
    // pays it, so it is reported (not gated) in the text report.
    lines.push(format!(
        "replica exec.transcode_ms median {:.6} (non-zero only when records are quarantined)",
        stage(1)
    ));

    Ok(Replay {
        tracer: tr,
        metrics: m,
        query_root_p50_ms: median(&query_roots).unwrap_or(0.0),
        checks,
        lines,
    })
}
