//! A replica of the NN serving fixture whose scorer the benchmark can read.
//!
//! `QueryService` keeps its per-kind systems, thresholds and scratch
//! private, so the per-stage NN split (fetch/decode, transcode,
//! standardize, infer) cannot be read from the service itself. The
//! replica rebuilds the same parts from public pieces, following
//! `tahoma_serve::fixture::nn_service` step by step with the same config
//! and seed: the same store contents, per-kind repositories and systems,
//! networks and live-calibrated execution thresholds. It scores through
//! `SharedNnScorer` + `VectorizedExecutor`, with inference routed through
//! [`TimedDispatch`], a timing wrapper around `SharedModelZoo::infer`.
//! Its answers are compared with the service's for every replayed request,
//! so any drift between replica and service shows.

use crate::trace::Tracer;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tahoma_core::continuous::{ContinuousExecutor, WindowSpec};
use tahoma_core::evaluator::CostContext;
use tahoma_core::exec::{
    BatchScorer, ExecOptions, InferDispatch, NnSessionScratch, ScorePack, SharedModelZoo,
    SharedNnScorer, VectorizedExecutor,
};
use tahoma_core::pipeline::TahomaSystem;
use tahoma_core::query::{Corpus, CorpusItem, Query};
use tahoma_core::thresholds::{DecisionThresholds, ThresholdTable};
use tahoma_core::{BuilderConfig, Cascade, CoreError};
use tahoma_costmodel::{AnalyticProfiler, DeviceProfile, Scenario};
use tahoma_imagery::{ColorMode, ObjectKind, Representation, RepresentationStore, TranscodeEngine};
use tahoma_serve::fixture::{frame, NnFixtureConfig};
use tahoma_serve::CachedPlan;
use tahoma_video::{IngestFrame, StreamConfig, StreamIngest};
use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
use tahoma_zoo::variant::cross_variants;
use tahoma_zoo::{ArchSpec, ModelId, ModelKind, PredicateSpec};

/// Precision settings the fixture calibrates (and plans) at.
const SETTINGS: [f64; 3] = [0.93, 0.95, 0.99];

/// Stream frame side and capture clock, as `tahoma_serve::stream` uses.
const SCENE_SIDE: usize = 64;
const STREAM_EPOCH: u64 = 1_700_000_000;
const FRAME_STRIDE_S: u64 = 30;

struct ReplicaKind {
    system: TahomaSystem,
    thresholds: ThresholdTable,
    cost: CostContext,
    zoo: SharedModelZoo,
}

/// Inference counters of [`TimedDispatch`].
#[derive(Debug, Default)]
pub struct InferCounters {
    pub calls: AtomicU64,
    pub rows: AtomicU64,
    pub ns: AtomicU64,
}

/// `InferDispatch` that times `SharedModelZoo::infer` (with a coalescing
/// scratch, as the broker uses, so scores are bitwise the service's).
pub struct TimedDispatch<'a> {
    zoo: &'a SharedModelZoo,
    scratch: &'a Mutex<tahoma_nn::InferScratch>,
    counters: &'a InferCounters,
}

impl InferDispatch for TimedDispatch<'_> {
    fn infer(&self, model: ModelId, rows: &[f32], n: usize) -> Vec<f32> {
        let mut scratch = self.scratch.lock().expect("infer scratch poisoned");
        let t = Instant::now();
        let out = self.zoo.infer(model, rows, n, &mut scratch);
        let ns = t.elapsed().as_nanos() as u64;
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.rows.fetch_add(n as u64, Ordering::Relaxed);
        self.counters.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

pub struct Replica {
    pub store: RepresentationStore,
    pub corpus: Corpus,
    kinds: BTreeMap<ObjectKind, ReplicaKind>,
    infer_scratch: Mutex<tahoma_nn::InferScratch>,
    pub counters: InferCounters,
    pub scratch: NnSessionScratch,
    /// `RepresentationStore::sync` after the corpus ingest, ms.
    pub sync_ms: f64,
}

/// Decision cuts from a live score distribution (the fixture's rule).
fn quantile_cuts(scores: &mut [f32]) -> Vec<DecisionThresholds> {
    scores.sort_by(f32::total_cmp);
    let cut = |q: f64| scores[((scores.len() - 1) as f64 * q) as usize];
    [(0.35, 0.65), (0.30, 0.70), (0.20, 0.80)]
        .iter()
        .map(|&(lo, hi)| DecisionThresholds {
            p_low: cut(lo),
            p_high: cut(hi),
        })
        .collect()
}

impl Replica {
    /// Build the replica of `nn_service(cfg)` over a persistent store in
    /// `dir`, which must not exist yet.
    pub fn build(cfg: &NnFixtureConfig, dir: &Path) -> Result<Replica, String> {
        let rep0 = Representation::new(24, ColorMode::Gray);
        let rep1 = Representation::new(32, ColorMode::Rgb);
        let rep_src = Representation::new(64, ColorMode::Rgb);
        let arch0 = ArchSpec {
            conv_layers: 1,
            conv_nodes: 8,
            dense_nodes: 256,
        };
        let arch1 = ArchSpec {
            conv_layers: 2,
            conv_nodes: 8,
            dense_nodes: 320,
        };
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let corpus = Corpus::synthetic(cfg.corpus_n, cfg.prevalence, cfg.seed);
        let reps = vec![rep0, rep1, rep_src];
        let store = RepresentationStore::persistent(reps, dir, 8)
            .map_err(|e| format!("replica store: {e}"))?;
        for item in &corpus.items {
            store
                .ingest(item.id, &frame(item.id ^ cfg.seed, 64))
                .map_err(|e| format!("replica ingest: {e}"))?;
        }
        let t = Instant::now();
        store.sync().map_err(|e| format!("replica sync: {e}"))?;
        let sync_ms = t.elapsed().as_secs_f64() * 1e3;

        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        let mut kinds = BTreeMap::new();
        for (ki, &kind) in cfg.kinds.iter().enumerate() {
            let pred = PredicateSpec::for_kind(kind);
            let repo_cfg = SurrogateBuildConfig {
                n_config: 50,
                n_eval: 50,
                seed: cfg.seed ^ (ki as u64 + 1),
                variants: Some(
                    cross_variants(&[arch0, arch1], &[rep0, rep1])
                        .into_iter()
                        .filter(|v| {
                            (v.input == rep0 && matches!(v.kind, ModelKind::Cnn(a) if a == arch0))
                                || (v.input == rep1
                                    && matches!(v.kind, ModelKind::Cnn(a) if a == arch1))
                        })
                        .enumerate()
                        .map(|(i, mut v)| {
                            v.id = ModelId(i as u32);
                            v
                        })
                        .collect(),
                ),
                ..Default::default()
            };
            let repo = build_surrogate_repository(pred, &repo_cfg, &DeviceProfile::k80());
            let builder = BuilderConfig {
                pool: repo.specialized_ids(),
                reference: None,
                n_settings: 3,
                max_pool_depth: 2,
                with_reference_terminal: false,
            };
            let system = TahomaSystem::initialize(repo, &SETTINGS, &builder);
            let mut zoo = SharedModelZoo::new().with_source(rep_src);
            let net_seed = cfg.seed ^ (0xA11 + 2 * ki as u64);
            let net0 = arch0
                .cnn_spec(rep0)
                .build(net_seed)
                .map_err(|e| e.to_string())?;
            let net1 = arch1
                .cnn_spec(rep1)
                .build(net_seed + 1)
                .map_err(|e| e.to_string())?;
            zoo.register(ModelId(0), rep0, net0);
            zoo.register(ModelId(1), rep1, net1);
            let mut per_model = Vec::with_capacity(system.repo.len());
            {
                let mut scratch = NnSessionScratch::new();
                let mut scorer = SharedNnScorer::new(&store, &zoo, &mut scratch);
                for id in 0..system.repo.len() {
                    if zoo.input_rep(ModelId(id as u32)).is_none() {
                        per_model.push(vec![DecisionThresholds::never_decide(); 3]);
                        continue;
                    }
                    let mut scores = Vec::new();
                    scorer.score_batch(
                        ModelId(id as u32),
                        ScorePack::standalone(&items),
                        &mut scores,
                    );
                    per_model.push(quantile_cuts(&mut scores));
                }
            }
            let thresholds = ThresholdTable {
                settings: SETTINGS.to_vec(),
                per_model,
            };
            let cost = CostContext::build(&system.repo, &profiler);
            kinds.insert(
                kind,
                ReplicaKind {
                    system,
                    thresholds,
                    cost,
                    zoo,
                },
            );
        }
        Ok(Replica {
            store,
            corpus,
            kinds,
            infer_scratch: Mutex::new(tahoma_nn::InferScratch::coalescing()),
            counters: InferCounters::default(),
            scratch: NnSessionScratch::new(),
            sync_ms,
        })
    }

    /// Score one pack through `kind`'s cascade (the continuous executor's
    /// evaluation seam): one pass flag per item.
    fn eval_pack(
        &mut self,
        kind: ObjectKind,
        cascade: Cascade,
        pack: &[&CorpusItem],
    ) -> Result<Vec<bool>, CoreError> {
        let k = self
            .kinds
            .get(&kind)
            .ok_or(CoreError::EmptySet("replica kind"))?;
        let dispatch = TimedDispatch {
            zoo: &k.zoo,
            scratch: &self.infer_scratch,
            counters: &self.counters,
        };
        let exec = VectorizedExecutor::new(&k.system.repo, &k.thresholds, &k.cost);
        let mut scorer =
            SharedNnScorer::new(&self.store, &k.zoo, &mut self.scratch).with_dispatch(&dispatch);
        let rel = exec.run_cascade_batched(kind, cascade, pack, &mut scorer)?;
        Ok(rel.rows.iter().map(|r| r.value).collect())
    }

    /// Execute `query` with `plan` the way `QueryService::execute_with`
    /// does: predicates in plan order, each over the previous one's
    /// survivors. One `exec.cascade` span per predicate.
    pub fn execute(
        &mut self,
        query: &Query,
        plan: &CachedPlan,
        tracer: &mut Tracer,
        parent: usize,
        req: u64,
    ) -> Result<Vec<u64>, CoreError> {
        let mut matched: Option<Vec<u64>> = None;
        for (kind, selected) in &plan.entries {
            let narrowed;
            let corpus = match &matched {
                None => &self.corpus,
                Some(ids) => {
                    let keep: HashSet<u64> = ids.iter().copied().collect();
                    narrowed = Corpus {
                        items: self
                            .corpus
                            .items
                            .iter()
                            .filter(|it| keep.contains(&it.id))
                            .cloned()
                            .collect(),
                    };
                    &narrowed
                }
            };
            let single = Query {
                table: query.table.clone(),
                metadata: query.metadata.clone(),
                content: vec![*kind],
            };
            let cascades = BTreeMap::from([(*kind, selected.cascade)]);
            let k = self
                .kinds
                .get(kind)
                .ok_or(CoreError::EmptySet("replica kind"))?;
            let dispatch = TimedDispatch {
                zoo: &k.zoo,
                scratch: &self.infer_scratch,
                counters: &self.counters,
            };
            let exec = VectorizedExecutor::new(&k.system.repo, &k.thresholds, &k.cost);
            let mut scorer = SharedNnScorer::new(&self.store, &k.zoo, &mut self.scratch)
                .with_dispatch(&dispatch);
            let opts = ExecOptions {
                materialize_all: false,
            };
            let result = tracer.span("exec.cascade", Some(parent), req, || {
                exec.execute(&single, corpus, &cascades, &mut scorer, &opts)
            })?;
            matched = Some(result.matched_ids);
        }
        Ok(matched.unwrap_or_default())
    }
}

/// Replica of one standing query: its own feed (same seed and id base as
/// the server's registry derives) and its own window executor, ingesting
/// into the replica's store.
pub struct ReplicaStream {
    cx: ContinuousExecutor,
    feed: StreamIngest,
    engine: TranscodeEngine,
    name: &'static str,
    camera: u64,
}

/// What one replica tick did.
pub struct ReplicaTick {
    pub matched: Vec<u64>,
    pub scored: usize,
    pub entered: usize,
}

impl ReplicaStream {
    /// Mirror `StreamRegistry::register` for query `qid` of a registry
    /// seeded with `registry_seed`.
    pub fn register(
        registry_seed: u64,
        qid: u64,
        stream: &'static str,
        range: u64,
        step: u64,
        query: Query,
        plan: &CachedPlan,
    ) -> Result<ReplicaStream, String> {
        let stream_seed = registry_seed ^ qid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let config = match stream {
            "coral" => StreamConfig::coral(stream_seed),
            "jackson" => StreamConfig::jackson(stream_seed),
            other => return Err(format!("unknown stream {other}")),
        };
        let mut kinds = query.content.clone();
        kinds.sort_unstable();
        kinds.dedup();
        let scene_kind = kinds.first().copied().unwrap_or(ObjectKind::Fence);
        let cascades = plan
            .entries
            .iter()
            .map(|(kind, selected)| (*kind, selected.cascade))
            .collect();
        let window = WindowSpec::new(range, step).map_err(|e| e.to_string())?;
        let cx =
            ContinuousExecutor::register(query, cascades, window).map_err(|e| e.to_string())?;
        Ok(ReplicaStream {
            cx,
            feed: StreamIngest::new(config, scene_kind, SCENE_SIDE, qid << 32),
            engine: TranscodeEngine::new(),
            name: stream,
            camera: qid % 8,
        })
    }

    fn item(&self, f: &IngestFrame) -> CorpusItem {
        CorpusItem {
            id: f.id,
            location: self.name.to_string(),
            camera: self.camera,
            timestamp: STREAM_EPOCH + f.frame.idx * FRAME_STRIDE_S,
            objects: if f.frame.label {
                vec![self.feed.kind()]
            } else {
                Vec::new()
            },
            difficulty: f.frame.difficulty,
        }
    }

    /// One window slide: render and ingest the step's frames (one
    /// `video.render` and one `store.ingest` span each), then slide the
    /// window scoring only the entrants (`continuous.tick`).
    pub fn tick(
        &mut self,
        replica: &mut Replica,
        tracer: &mut Tracer,
        parent: usize,
        req: u64,
    ) -> Result<ReplicaTick, String> {
        let need = (self.cx.ticks() + 1) * self.cx.window().step();
        while self.cx.arrived() < need {
            let engine = &mut self.engine;
            let feed = &mut self.feed;
            let arriving = tracer.span("video.render", Some(parent), req, || {
                feed.next_ingest(engine)
            });
            tracer
                .span("store.ingest", Some(parent), req, || {
                    replica.store.ingest(arriving.id, &arriving.image)
                })
                .map_err(|e| format!("replica stream ingest: {e}"))?;
            let item = self.item(&arriving);
            self.cx.ingest(item);
        }
        let cx = &mut self.cx;
        let deltas = tracer
            .span("continuous.tick", Some(parent), req, || {
                cx.tick(|kind, cascade, pack| replica.eval_pack(kind, cascade, pack))
            })
            .map_err(|e| format!("replica tick: {e}"))?;
        Ok(ReplicaTick {
            matched: self.cx.matched(),
            scored: deltas.scored,
            entered: deltas.entered,
        })
    }
}
