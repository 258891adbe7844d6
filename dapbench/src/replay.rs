//! The traced half of the server workloads: replay the requests one
//! round executed, in-process, through the public calls the server's
//! engine makes, with a span around each call. Nothing inside the
//! program is instrumented.
//!
//! Per request the replay does what the engine does for it: decode the
//! frame; log the operation (`CommitLog::append`, then an explicit
//! `sync`, so append and fsync are timed apart) and apply it to the
//! `PlanRegistry`; drain and encode the subscription events; or build,
//! sync and query the `DeletionContext`'s ILP; then encode the answer.
//! The `engine` span around all that is the request's engine work; the
//! client's round trip minus it is the serve layer's residual.

use crate::alloc;
use crate::e2e::{Req, Sample};
use crate::trace::{RequestId, Tracer};
use crate::workload::{Op, Workload};
use dap_core::{CoreError, DeletionContext, IlpOptions};
use dap_durability::{
    decode_all, recover_with, CommitLog, DurableOptions, FsyncMode, LogRecord, Snapshot,
    StdLogFile, LOG_FILE,
};
use dap_provenance::WitnessesAnn;
use dap_relalg::{PlanRegistry, QueryId, SubscriberId, Tid};
use dap_serve::protocol::{encode_wire_frame, FrameReader, MAX_FRAME};
use dap_serve::{Command, Request, Response, SolveObjective};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// What the traced run replays of a server workload.
pub struct Script {
    /// The set-up requests, in the order they were sent.
    pub setup: Vec<Sample>,
    /// Deletions committed before the replayed requests, applied untimed.
    pub state: Vec<Tid>,
    /// The round's requests, in the order the server executed them.
    pub executed: Vec<Sample>,
    /// The server's `ping` answer at the end of the round.
    pub ping: String,
    /// The live server's ids of the family's queries.
    pub ids: Vec<QueryId>,
}

impl Script {
    /// `executed` in any order; the engine answers one request at a time,
    /// so ordering by answer time recovers its execution order.
    pub fn new(
        setup: Vec<Sample>,
        state: Vec<Tid>,
        mut executed: Vec<Sample>,
        ping: &Sample,
        ids: &[QueryId],
    ) -> Script {
        executed.sort_by_key(|s| s.end);
        Script {
            setup,
            state,
            executed,
            ping: ping.outcome.clone().unwrap_or_default(),
            ids: ids.to_vec(),
        }
    }
}

/// Named sample lists collected by the replay.
#[derive(Default)]
pub struct Vals(pub BTreeMap<&'static str, Vec<f64>>);

impl Vals {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

pub struct ReplayOut {
    pub vals: Vals,
    /// The `engine` span of each replayed request of the round.
    pub engine: HashMap<RequestId, usize>,
    pub registry_nodes: usize,
    pub cached_indexes: usize,
    pub budget_hits: u64,
    /// Solves whose target's index was cached already, of all solves.
    pub cache_hits: (usize, usize),
    pub snapshot_ms: f64,
    pub snapshot_bytes: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Run `f` in a span; returns its value and the span's duration in ns.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    rid: RequestId,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let id = tracer.begin(name, parent, rid);
    let out = f();
    tracer.end(id);
    (out, tracer.spans()[id].duration())
}

fn decode_payload(frame: &[u8]) -> Vec<u8> {
    let mut reader = FrameReader::new(MAX_FRAME);
    reader.push(frame);
    reader
        .next_frame()
        .expect("valid frame")
        .expect("whole frame")
}

/// The engine's state in the replay.
struct Engine<'a> {
    w: &'a Workload,
    log: CommitLog,
    reg: PlanRegistry<WitnessesAnn>,
    ids: Vec<QueryId>,
    subs: Vec<(QueryId, SubscriberId)>,
    ctxs: HashMap<usize, DeletionContext>,
    budget_hits: u64,
    cache_hits: (usize, usize),
    /// The ILP node budget, read from the environment as `dap serve`
    /// reads it.
    node_budget: u64,
    /// Whether each record is synced after its append.
    sync: bool,
}

impl Engine<'_> {
    /// Log one record: append, then (with `sync`) an explicit sync.
    fn log(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        rid: RequestId,
        rec: &LogRecord,
        vals: &mut Vals,
    ) {
        let before = self.log.offset();
        let (seq, append_ns) = timed(tracer, "durability.append", Some(root), rid, || {
            self.log.append(rec)
        });
        seq.expect("replay log append");
        let (synced, sync_ns) = if self.sync {
            timed(tracer, "durability.fsync", Some(root), rid, || {
                self.log.sync()
            })
        } else {
            (Ok(()), 0)
        };
        synced.expect("replay log sync");
        if matches!(rec, LogRecord::Delete(_)) {
            vals.push("durability.append_us", us(append_ns));
            vals.push("durability.fsync_us", us(sync_ns));
            vals.push(
                "durability.bytes_per_record",
                (self.log.offset() - before) as f64,
            );
        }
    }

    /// Execute one request inside the `engine` span `root`; returns the
    /// answer's body.
    fn execute(&mut self, tracer: &mut Tracer, root: usize, s: &Sample, vals: &mut Vals) -> String {
        let rid = s.rid();
        match &s.req {
            Req::Register(q) => {
                let query = &self.w.queries[*q];
                let id = QueryId::from_index(self.reg.next_query_index());
                self.log(
                    tracer,
                    root,
                    rid,
                    &LogRecord::Register(id, query.clone()),
                    vals,
                );
                let (got, ns) = timed(tracer, "relalg.register", Some(root), rid, || {
                    self.reg.register(query)
                });
                assert_eq!(got.expect("replay register"), id);
                vals.push("relalg.register_ms", ns as f64 / 1e6);
                self.ids.push(id);
                id.to_string()
            }
            Req::Subscribe(q) => {
                let id = self.ids[*q];
                let sub = tracer.span("relalg.subscribe", Some(root), rid, || {
                    self.reg.subscribe_session(id)
                });
                self.subs.push((id, sub.expect("registered query")));
                format!("subscribed to {id}")
            }
            Req::Ping => "pong".into(),
            Req::Op(Op::Delete(tid)) => {
                let tids = vec![tid.clone()];
                self.log(tracer, root, rid, &LogRecord::Delete(tids.clone()), vals);
                let (deltas, ns) = timed(tracer, "relalg.delete", Some(root), rid, || {
                    self.reg.delete_sources(&tids)
                });
                vals.push("relalg.delete_us", us(ns));
                let removed: usize = deltas.iter().map(|(_, d)| d.removed.len()).sum();
                let changed: usize = deltas.iter().map(|(_, d)| d.changed.len()).sum();
                vals.push("relalg.rows_removed_per_commit", removed as f64);
                vals.push("relalg.rows_changed_per_commit", changed as f64);
                let subs = self.subs.clone();
                let (drained, ns) = timed(tracer, "relalg.drain", Some(root), rid, || {
                    subs.iter()
                        .flat_map(|&(qid, sub)| {
                            self.reg
                                .drain_session(sub)
                                .into_iter()
                                .map(move |(_, d)| (qid, d))
                        })
                        .collect::<Vec<_>>()
                });
                vals.push("relalg.drain_us", us(ns));
                let batch = tid.to_string();
                let (frames, _) = timed(tracer, "serve.encode", Some(root), rid, || {
                    drained
                        .iter()
                        .map(|(qid, d)| {
                            let body = format!(
                                "{qid} batch={batch} removed={} changed={}",
                                d.removed.len(),
                                d.changed.len()
                            );
                            encode_wire_frame(&Response::Event { body }.encode())
                        })
                        .collect::<Vec<_>>()
                });
                vals.push("serve.event_frames_per_commit", frames.len() as f64);
                format!("seq={}", self.log.next_seq() - 1)
            }
            Req::Op(Op::Solve {
                query,
                objective,
                target,
            }) => {
                if !self.ctxs.contains_key(query) {
                    let (ctx, _) = timed(tracer, "core.context_build", Some(root), rid, || {
                        DeletionContext::new_in_registry(&mut self.reg, &self.w.queries[*query])
                    });
                    self.ctxs.insert(*query, ctx.expect("context builds"));
                }
                let ctx = self.ctxs.get_mut(query).expect("just built");
                let reg = &mut self.reg;
                let ((), ns) = timed(tracer, "core.context_sync", Some(root), rid, || {
                    ctx.sync_in(reg)
                });
                vals.push("core.context_sync_us", us(ns));
                let opts = IlpOptions {
                    node_budget: self.node_budget,
                };
                let (name, key) = match objective {
                    SolveObjective::Source => ("core.ilp_source", "core.ilp_source_us"),
                    SolveObjective::View => ("core.ilp_view", "core.ilp_view_us"),
                };
                let cached = ctx.cached_index_count();
                let (solved, ns) = timed(tracer, name, Some(root), rid, || match objective {
                    SolveObjective::Source => ctx.min_source_deletion_ilp_turn(target, &opts),
                    SolveObjective::View => ctx.min_view_side_effects_ilp_turn(target, &opts),
                });
                vals.push(key, us(ns));
                self.cache_hits.1 += 1;
                if ctx.cached_index_count() == cached {
                    self.cache_hits.0 += 1;
                }
                match solved {
                    Ok(d) => {
                        let dels: Vec<String> = d.deletions.iter().map(Tid::to_string).collect();
                        format!(
                            "deletions={} side-effects={} [{}]",
                            d.deletions.len(),
                            d.view_side_effects.len(),
                            dels.join(",")
                        )
                    }
                    Err(CoreError::BudgetExhausted { budget }) => {
                        self.budget_hits += 1;
                        format!("budget {budget}")
                    }
                    Err(e) => panic!("replayed solve failed: {e}"),
                }
            }
        }
    }
}

fn request_of(s: &Sample, w: &Workload, ids: &[QueryId]) -> Request {
    let cmd = match &s.req {
        Req::Register(q) => Command::Register(w.queries[*q].clone()),
        other => crate::e2e::command(other, ids),
    };
    Request {
        client: format!("c{}", s.client),
        seq: s.seq,
        cmd,
    }
}

/// A replay in progress: the engine's state after the set-up and state
/// commits, ready to execute requests one at a time.
pub struct Replayer<'a> {
    engine: Engine<'a>,
    vals: Vals,
    /// The `engine` span of each request executed by [`Replayer::step`].
    spans: HashMap<RequestId, usize>,
}

impl<'a> Replayer<'a> {
    /// A fresh log under `dir`, the `setup` requests, then the `state`
    /// commits (untraced). With `sync`, every record is synced after its
    /// append, as under `DAP_FSYNC=always`.
    pub fn new(
        w: &'a Workload,
        setup: &[Sample],
        state: &[Tid],
        sync: bool,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> Result<Replayer<'a>, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log_path = dir.join(LOG_FILE);
        let _ = std::fs::remove_file(&log_path);
        let file = StdLogFile::open(&log_path).map_err(|e| format!("open replay log: {e}"))?;
        let mut engine = Engine {
            w,
            log: CommitLog::new(Box::new(file), FsyncMode::Never, 1),
            reg: PlanRegistry::new(&w.db),
            ids: Vec::new(),
            subs: Vec::new(),
            ctxs: HashMap::new(),
            budget_hits: 0,
            cache_hits: (0, 0),
            node_budget: dap_serve::ServeOptions::from_env().node_budget,
            sync,
        };
        let mut scratch = Vals::default();
        for s in setup {
            one(&mut engine, s, &mut scratch, tracer);
        }
        if !state.is_empty() {
            for tid in state {
                engine
                    .log
                    .append(&LogRecord::Delete(vec![tid.clone()]))
                    .map_err(|e| e.to_string())?;
                engine.reg.delete_sources(std::slice::from_ref(tid));
            }
            // Subscriptions made before the state commits saw them already.
            for &(_, sub) in &engine.subs {
                engine.reg.drain_session(sub);
            }
        }
        // Only the replayed requests' solves count towards the cache's
        // hit share.
        engine.cache_hits = (0, 0);
        Ok(Replayer {
            engine,
            vals: Vals::default(),
            spans: HashMap::new(),
        })
    }

    /// Execute one request as the engine did; returns its `engine` span.
    pub fn step(&mut self, s: &Sample, tracer: &mut Tracer) -> usize {
        let from = tracer.spans().len();
        let allocs = one(&mut self.engine, s, &mut self.vals, tracer);
        self.spans.insert(s.rid(), from);
        match &s.req {
            Req::Op(Op::Delete(_)) => self.vals.push("alloc.per_commit", allocs as f64),
            Req::Op(Op::Solve { .. }) => self.vals.push("alloc.per_solve", allocs as f64),
            _ => {}
        }
        from
    }

    /// The values collected, with a snapshot of the final state written
    /// under `dir`.
    pub fn finish(self, dir: &Path) -> Result<ReplayOut, String> {
        let engine = self.engine;
        let cached_indexes = engine
            .ctxs
            .values()
            .map(DeletionContext::cached_index_count)
            .sum();
        let (snapshot_ms, snapshot_bytes) = write_snapshots(&engine, dir)?;
        Ok(ReplayOut {
            vals: self.vals,
            engine: self.spans,
            registry_nodes: engine.reg.node_count(),
            cached_indexes,
            budget_hits: engine.budget_hits,
            cache_hits: engine.cache_hits,
            snapshot_ms,
            snapshot_bytes,
        })
    }
}

/// Execute one request inside a new `engine` span; returns the
/// allocations it made.
fn one(engine: &mut Engine, s: &Sample, vals: &mut Vals, tracer: &mut Tracer) -> u64 {
    let rid = s.rid();
    let req = request_of(s, engine.w, &engine.ids);
    let frame = encode_wire_frame(&req.encode());
    let allocs = alloc::count();
    let root = tracer.begin("engine", None, rid);
    let (decoded, dec_req) = timed(tracer, "serve.decode", Some(root), rid, || {
        Request::decode(&decode_payload(&frame))
    });
    assert_eq!(
        decoded.expect("the request decodes"),
        req,
        "request round trip"
    );
    let body = engine.execute(tracer, root, s, vals);
    let resp = Response::Ok { seq: s.seq, body };
    let (resp_frame, enc_resp) = timed(tracer, "serve.encode", Some(root), rid, || {
        encode_wire_frame(&resp.encode())
    });
    tracer.end(root);
    let allocs = alloc::count() - allocs;
    // The client's side of the codec, outside the engine.
    let t = Instant::now();
    let client_frame = encode_wire_frame(&req.encode());
    let decoded = Response::decode(&decode_payload(&resp_frame)).expect("the response decodes");
    std::hint::black_box((client_frame, decoded));
    let client_ns = t.elapsed().as_nanos() as u64;
    vals.push("serve.codec_us", us(dec_req + enc_resp + client_ns));
    allocs
}

/// Replay `script` into a fresh log under `dir`: the set-up requests,
/// the state commits (untraced), then the round's requests. Only the
/// round's requests feed the per-request values.
pub fn replay(
    w: &Workload,
    script: &Script,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<ReplayOut, String> {
    let mut r = Replayer::new(w, &script.setup, &script.state, true, dir, tracer)?;
    for s in &script.executed {
        r.step(s, tracer);
    }
    r.finish(dir)
}

/// Write the replay's final state as a snapshot three times; the median
/// write time and the file's size.
fn write_snapshots(engine: &Engine<'_>, dir: &Path) -> Result<(f64, u64), String> {
    let snap = Snapshot {
        seq: engine.log.next_seq() - 1,
        next_query: engine.reg.next_query_index(),
        committed: engine.reg.committed().clone(),
        catalog: engine
            .ids
            .iter()
            .map(|&id| (id, engine.w.queries[id.index() as usize].clone()))
            .collect(),
        db: engine.w.db.clone(),
    };
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let path = snap
            .write_to(dir)
            .map_err(|e| format!("write snapshot: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    }
    Ok((crate::stats::median(&times).expect("three writes"), bytes))
}

/// `recover` timed whole, and rebuilt from its public pieces with each
/// phase timed apart (milliseconds, medians of [`RECOVERY_REPS`]).
pub struct RecoverySplit {
    pub total_ms: f64,
    pub snapshot_ms: f64,
    pub plan_build_ms: f64,
    pub replay_ms: f64,
}

pub const RECOVERY_REPS: usize = 3;

impl RecoverySplit {
    /// What the timed phases leave unexplained: log reading and decoding,
    /// file handling, and the difference between the two measurements.
    pub fn other_ms(&self) -> f64 {
        self.total_ms - self.snapshot_ms - self.plan_build_ms - self.replay_ms
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One rebuild of `recover` from `Snapshot::read_from`, `decode_all`,
/// `PlanRegistry::register_at` and `PlanRegistry::delete_sources`;
/// returns `[snapshot load, plan build, replay]` in ms.
fn recover_in_phases(dir: &Path) -> Result<[f64; 3], String> {
    let t = Instant::now();
    let snaps = Snapshot::list_dir(dir).map_err(|e| e.to_string())?;
    let (_, newest) = snaps.first().ok_or("no snapshot")?;
    let snap = Snapshot::read_from(newest).map_err(|e| e.to_string())?;
    let load = ms(t);

    let bytes = std::fs::read(dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
    let (frames, _, _) = decode_all(&bytes);
    let records = frames
        .iter()
        .map(|p| LogRecord::decode_payload(p))
        .collect::<Result<Vec<_>, _>>()?;

    let t = Instant::now();
    let mut reg = PlanRegistry::<WitnessesAnn>::new(&snap.db);
    for (id, q) in &snap.catalog {
        reg.register_at(q, *id).map_err(|e| e.to_string())?;
    }
    reg.advance_query_index(snap.next_query);
    let mut build = ms(t);
    let t = Instant::now();
    let committed: Vec<Tid> = snap.committed.iter().cloned().collect();
    reg.delete_sources(&committed);
    let mut apply = ms(t);
    for (seq, rec) in records {
        if seq <= snap.seq {
            continue;
        }
        let t = Instant::now();
        match rec {
            LogRecord::Delete(tids) => {
                reg.delete_sources(&tids);
                apply += ms(t);
            }
            LogRecord::Register(id, q) => {
                reg.register_at(&q, id).map_err(|e| e.to_string())?;
                build += ms(t);
            }
            LogRecord::Unregister(id) => {
                reg.unregister(id);
                build += ms(t);
            }
        }
    }
    drop(reg);
    Ok([load, build, apply])
}

/// Alternate timed `recover` calls with phase-wise rebuilds of `dir`.
pub fn recovery_split(dir: &Path) -> Result<RecoverySplit, String> {
    let opts = DurableOptions {
        fsync: FsyncMode::Never,
        snapshot_every: 0,
    };
    let mut total = Vec::new();
    let mut phases: [Vec<f64>; 3] = Default::default();
    for rep in 0..RECOVERY_REPS {
        // Alternate which goes first, so neither always runs warm.
        for whole in [rep % 2 == 0, rep % 2 == 1] {
            if whole {
                let t = Instant::now();
                let recovered = recover_with(dir, opts).map_err(|e| format!("recover: {e}"))?;
                total.push(ms(t));
                drop(recovered);
            } else {
                for (list, v) in phases.iter_mut().zip(recover_in_phases(dir)?) {
                    list.push(v);
                }
            }
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).expect("repetitions");
    Ok(RecoverySplit {
        total_ms: med(&total),
        snapshot_ms: med(&phases[0]),
        plan_build_ms: med(&phases[1]),
        replay_ms: med(&phases[2]),
    })
}
