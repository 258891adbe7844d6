//! The traced run's per-layer metrics.
//!
//! Every traced run reports every layer. The server layers come from an
//! in-process replay of one round a live server executed: the workload's
//! own first round on `commit-stream` and `solve-hot`, and on
//! `paper-batch` (which has no server) the first round of a companion
//! `commit-stream` run with the same seed. The paper layers come from a
//! traced pass over the `paper-batch` batch of the same seed. Spans are
//! kept in memory and written to `.bench_work/spans-<workload>-<seed>.tsv`
//! when the run ends, each with its self time.
//!
//! The closure check runs a pass of its own against a fresh server (see
//! `e2e::closure_pass`) and replays it the same way; a request kind whose
//! layers do not add up to its round trip fails the run.

use crate::e2e::{self, ping_counter, ClosurePass, Req, Sample, Step};
use crate::paper::Family;
use crate::replay::{self, ReplayOut, Replayer, Script};
use crate::stats::{iqr_over_median, median, Metric};
use crate::trace::Tracer;
use crate::workload::{Kind, Op, Workload};
use crate::{alloc, Args, Measured};
use dap_core::{
    delete_min_source_many_with, delete_min_view_side_effects_many_with, place_annotations_with,
    ParPool,
};
use dap_provenance::{where_provenance, why_provenance};
use dap_relalg::eval;
use dap_serve::SolveObjective;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("serve.residual_commit_us", "us"),
    ("serve.residual_solve_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.event_frames_per_commit", "count"),
    ("serve.peak_inflight", "count"),
    ("serve.shed", "count"),
    ("durability.append_us", "us"),
    ("durability.fsync_us", "us"),
    ("durability.bytes_per_record", "bytes"),
    ("durability.snapshot_ms", "ms"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.recover_ms", "ms"),
    ("durability.recover_snapshot_ms", "ms"),
    ("durability.recover_plan_build_ms", "ms"),
    ("durability.recover_replay_ms", "ms"),
    ("durability.recover_other_ms", "ms"),
    ("relalg.register_ms", "ms"),
    ("relalg.registry_nodes", "count"),
    ("relalg.delete_us", "us"),
    ("relalg.drain_us", "us"),
    ("relalg.rows_removed_per_commit", "count"),
    ("relalg.rows_changed_per_commit", "count"),
    ("relalg.eval_ms", "ms"),
    ("provenance.why_ms", "ms"),
    ("provenance.where_ms", "ms"),
    ("core.context_build_ms", "ms"),
    ("core.context_sync_us", "us"),
    ("core.cached_indexes", "count"),
    ("core.index_cache_hit_pct", "%"),
    ("core.ilp_view_us", "us"),
    ("core.ilp_source_us", "us"),
    ("core.budget_hits", "count"),
    ("core.spu_us", "us"),
    ("core.sj_us", "us"),
    ("core.pj_view_us", "us"),
    ("core.pj_source_us", "us"),
    ("core.ju_us", "us"),
    ("core.chain_view_us", "us"),
    ("core.chain_source_us", "us"),
    ("core.placement_us", "us"),
    ("par.fanout_speedup", "ratio"),
    ("par.threads", "count"),
    ("alloc.per_commit", "count"),
    ("alloc.per_solve", "count"),
    ("alloc.per_problem", "count"),
    ("trace.closure_commit_pct", "%"),
    ("trace.closure_view_solve_pct", "%"),
    ("trace.closure_source_solve_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.probe_spread", "ratio"),
];

/// The per-layer metric (median, µs) of each class's single-target call
/// spans (see `Shape::span_names`).
const CLASS_METRICS: [(&str, &str); 8] = [
    ("core.spu", "core.spu_us"),
    ("core.sj", "core.sj_us"),
    ("core.pj_view", "core.pj_view_us"),
    ("core.pj_source", "core.pj_source_us"),
    ("core.ju", "core.ju_us"),
    ("core.chain_view", "core.chain_view_us"),
    ("core.chain_source", "core.chain_source_us"),
    ("core.placement", "core.placement_us"),
];

/// The closure check's tolerance: per request, the live round trip minus
/// the replayed engine work minus the paired no-op's round trip; the
/// median of that must be within this share of the median round trip,
/// or within [`CLOSURE_FLOOR_US`], whichever is larger. The closure
/// passes of tuning and proof left −0.4 to 64 µs (at most 26% of an 80 µs
/// commit, and 19% of a 210 µs one), nearly always positive: the live
/// engine runs each request on a thread just woken and with caches the
/// other threads used, the replay runs them back to back.
pub const CLOSURE_TOLERANCE_PCT: f64 = 25.0;
pub const CLOSURE_FLOOR_US: f64 = 30.0;

/// Whether a median closure residual of `residual` µs closes a median
/// round trip of `rt` µs.
fn closes(residual: f64, rt: f64) -> bool {
    residual.abs() <= (CLOSURE_TOLERANCE_PCT / 100.0 * rt).max(CLOSURE_FLOOR_US)
}

type Vals = BTreeMap<&'static str, f64>;

/// The spans that copy a live request's round trip into the span file.
const CLIENT_SPAN: &str = "client.request";

pub fn per_layer(
    a: &Args,
    root: &Path,
    m: &Measured,
    w: Option<&Workload>,
    batch: &[Family],
    lines: &mut Vec<String>,
) -> Result<(Vec<Metric>, Option<String>), String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut vals = Vals::new();

    // The server layers.
    let companion;
    let (w, script, recover_dir) = match a.kind {
        Kind::CommitStream => (
            w.expect("server workload"),
            m.replay.as_ref(),
            root.join("prepared"),
        ),
        Kind::SolveHot => (
            w.expect("server workload"),
            m.replay.as_ref(),
            root.join("crash"),
        ),
        Kind::PaperBatch => {
            let args = Args {
                kind: Kind::CommitStream,
                seed: a.seed,
                seconds: 0.0,
                trace: false,
                dap: a.dap.clone(),
            };
            let dir = root.join("companion");
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let (cm, cw, _) = crate::measure(&args, &dir)?;
            cm.verdict
                .as_ref()
                .map_err(|e| format!("companion commit-stream: {e}"))?;
            lines.push(format!(
                "server layers from a companion commit-stream run of seed {} ({} rounds)",
                a.seed,
                cm.rounds.len()
            ));
            companion = (cw.expect("server workload"), cm);
            (
                &companion.0,
                companion.1.replay.as_ref(),
                dir.join("prepared"),
            )
        }
    };
    let script = script.ok_or("no round to replay")?;
    let server_kind = match a.kind {
        Kind::PaperBatch => Kind::CommitStream,
        kind => kind,
    };
    let closure_failure = server_layers(
        &a.dap,
        server_kind,
        w,
        script,
        &recover_dir,
        root,
        &mut tracer,
        &mut vals,
        lines,
    )?;

    // The paper layers.
    let own;
    let batch = if batch.is_empty() {
        own = crate::paper::parse(&crate::paper::generate(a.seed))?;
        &own[..]
    } else {
        batch
    };
    paper_layers(batch, &mut tracer, &mut vals, lines)?;

    // Tracing overhead: what recording the spans cost, as a share of the
    // traced calls' time (the client spans only copy live timings).
    let recorded = || tracer.spans().iter().filter(|s| s.name != CLIENT_SPAN);
    let traced_ns: u64 = recorded()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration())
        .sum();
    let cost_ns = crate::trace::span_cost_ns();
    let overhead = crate::trace::overhead_pct(recorded().count(), cost_ns, traced_ns);
    lines.push(format!(
        "tracing: {} spans at {cost_ns:.1} ns each over {:.1} ms of traced calls",
        recorded().count(),
        traced_ns as f64 / 1e6
    ));
    vals.insert("trace.overhead_pct", overhead);
    let probes: Vec<f64> = m.rounds.iter().map(|r| r.probe.compute_s).collect();
    vals.insert("host.probe_spread", iqr_over_median(&probes).unwrap_or(0.0));

    let spans = Path::new(crate::WORK).join(format!("spans-{}-{}.tsv", a.kind.name(), a.seed));
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    lines.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        spans.display()
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *vals
                .get(name)
                .ok_or_else(|| format!("no value for {name}"))?;
            lines.push(format!("{name} {value} {unit}"));
            Ok(Metric { name, unit, value })
        })
        .collect::<Result<_, String>>()?;
    Ok((metrics, closure_failure))
}

fn med(out: &ReplayOut, name: &str) -> Result<f64, String> {
    median(out.vals.get(name)).ok_or_else(|| format!("no samples for {name}"))
}

fn avg(out: &ReplayOut, name: &str) -> Result<f64, String> {
    crate::stats::mean(out.vals.get(name)).ok_or_else(|| format!("no samples for {name}"))
}

/// The closure pass's plan for a server workload: the round's requests,
/// one at a time, each but the warm-ups after a no-op.
fn closure_steps(kind: Kind, w: &Workload) -> Vec<Step> {
    let step = |op: &Op, paired| Step {
        op: op.clone(),
        paired,
    };
    let warm_ups = w.warmups.iter().map(|(query, target)| Step {
        op: Op::Solve {
            query: *query,
            objective: SolveObjective::Source,
            target: target.clone(),
        },
        paired: false,
    });
    match kind {
        Kind::CommitStream => {
            // The restart's commit, the two slices interleaved, the
            // warm-ups, then the solve tail.
            let mut steps = vec![step(&w.streams[0][0], false)];
            let (a, b) = (&w.streams[0][1..], &w.streams[1]);
            for i in 0..a.len().max(b.len()) {
                steps.extend(
                    [a.get(i), b.get(i)]
                        .into_iter()
                        .flatten()
                        .map(|op| step(op, true)),
                );
            }
            steps.extend(warm_ups);
            steps.extend(w.solve_tail.iter().map(|op| step(op, true)));
            steps
        }
        Kind::SolveHot => {
            let mut steps: Vec<Step> = warm_ups.collect();
            // Two rounds, for as many commits as the closure needs.
            for r in 0..2 {
                steps.extend(w.solve_hot_round(r).iter().map(|op| step(op, true)));
            }
            steps
        }
        Kind::PaperBatch => unreachable!("paper-batch has no server"),
    }
}

/// Per request: each layer's self time inside its `engine` span, µs.
fn layer_self_times(
    tracer: &Tracer,
    selfs: &[u64],
    root_span: usize,
) -> BTreeMap<&'static str, f64> {
    let spans = tracer.spans();
    let rid = spans[root_span].rid;
    let mut per_layer = BTreeMap::new();
    for (i, span) in spans.iter().enumerate().skip(root_span) {
        if span.rid != rid || (i > root_span && span.parent.is_none()) {
            break;
        }
        *per_layer.entry(span.name).or_default() += selfs[i] as f64 / 1e3;
    }
    per_layer
}

/// The closure check of one kind of request, over the closure pass: the
/// live round trip against the replayed engine work plus the no-op's
/// round trip sent just before it. Returns the median closure residual
/// as a share of the median round trip, in %, and whether it is within
/// the tolerance.
fn closure(
    pass: &ClosurePass,
    out: &ReplayOut,
    tracer: &Tracer,
    pick: &dyn Fn(&Sample) -> bool,
    what: &str,
    lines: &mut Vec<String>,
) -> Result<(f64, bool), String> {
    let selfs = tracer.self_times();
    let (mut rts, mut engines, mut noops, mut residuals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_request = Vec::new();
    for s in pass.executed.iter().filter(|s| pick(s)) {
        let Some(&noop) = pass.noop_us.get(&s.rid()) else {
            continue;
        };
        let root_span = out.engine[&s.rid()];
        let rt = s.rt().as_secs_f64() * 1e6;
        let engine = tracer.spans()[root_span].duration() as f64 / 1e3;
        rts.push(rt);
        engines.push(engine);
        noops.push(noop);
        residuals.push(rt - engine - noop);
        per_request.push(layer_self_times(tracer, &selfs, root_span));
    }
    let rt = median(&rts).ok_or_else(|| format!("no {what} in the closure pass"))?;
    let med = |v: &[f64]| median(v).expect("as many as round trips");
    let (engine, noop, residual) = (med(&engines), med(&noops), med(&residuals));
    // A layer a request did not pass through took no time in it.
    let names: std::collections::BTreeSet<&str> =
        per_request.iter().flat_map(|r| r.keys().copied()).collect();
    let parts: Vec<String> = names
        .iter()
        .map(|name| {
            let v: Vec<f64> = per_request
                .iter()
                .map(|r| r.get(name).copied().unwrap_or(0.0))
                .collect();
            format!("{name} {:.1}", med(&v))
        })
        .collect();
    let pct = 100.0 * residual / rt;
    let within = closes(residual, rt);
    lines.push(format!(
        "closure {what}: live round trip p50 {rt:.1} us = replayed engine p50 {engine:.1} us (layer self-time p50s: {}) + serve p50 {noop:.1} us (the no-op's round trip) + closure residual p50 {residual:.1} us ({pct:.2}%), {} the tolerance of {CLOSURE_TOLERANCE_PCT}% or {CLOSURE_FLOOR_US} us ({} requests)",
        parts.join(" + "),
        if within { "within" } else { "OUTSIDE" },
        rts.len()
    ));
    Ok((pct, within))
}

#[allow(clippy::too_many_arguments)]
fn server_layers(
    dap: &Path,
    kind: Kind,
    w: &Workload,
    script: &Script,
    recover_dir: &Path,
    root: &Path,
    tracer: &mut Tracer,
    vals: &mut Vals,
    lines: &mut Vec<String>,
) -> Result<Option<String>, String> {
    let out = replay::replay(w, script, &root.join("replay"), tracer)?;
    // The serve layer's residual in the round: each request's round trip
    // minus its replayed engine work, which leaves transport, session
    // threads, admission wait and codec.
    let residual = |pick: &dyn Fn(&Sample) -> bool| -> Result<f64, String> {
        let v: Vec<f64> = script
            .executed
            .iter()
            .filter(|s| s.ok() && pick(s))
            .map(|s| {
                let engine = tracer.spans()[out.engine[&s.rid()]].duration() as f64 / 1e3;
                s.rt().as_secs_f64() * 1e6 - engine
            })
            .collect();
        median(&v).ok_or_else(|| "no round trips to take the residual of".into())
    };
    let res_commit = residual(&|s| s.is_commit())?;
    let res_solve = residual(&|s| matches!(s.req, Req::Op(Op::Solve { .. })))?;
    for s in &script.executed {
        tracer.record(CLIENT_SPAN, None, s.rid(), s.start, s.end);
    }

    // The closure check, on a pass of its own: see `e2e::closure_pass`.
    let pass_dir = root.join("closure");
    e2e::copy_dir(recover_dir, &pass_dir)?;
    let steps = closure_steps(kind, w);
    let pass = e2e::closure_pass(dap, &pass_dir, &script.ids, &steps)?;
    let registers: Vec<Sample> = script
        .setup
        .iter()
        .filter(|s| matches!(s.req, Req::Register(_)))
        .cloned()
        .collect();
    let replay_dir = root.join("replay-closure");
    let mut replayer = Replayer::new(w, &registers, &script.state, false, &replay_dir, tracer)?;
    for s in &pass.executed {
        replayer.step(s, tracer);
    }
    let pass_out = replayer.finish(&replay_dir)?;
    let mut outside = Vec::new();
    let mut check = |pick: &dyn Fn(&Sample) -> bool, what: &str| -> Result<f64, String> {
        let (pct, within) = closure(&pass, &pass_out, tracer, pick, what, lines)?;
        if !within {
            outside.push(format!("{what} {pct:.1}%"));
        }
        Ok(pct)
    };
    let closure_commit = check(&|s| s.is_commit(), "commit")?;
    let closure_view = check(&|s| s.is_solve(SolveObjective::View), "view solve")?;
    let closure_source = check(&|s| s.is_solve(SolveObjective::Source), "source solve")?;
    let failure = (!outside.is_empty()).then(|| {
        format!(
            "the layers do not add up to the round trip within {CLOSURE_TOLERANCE_PCT}% or {CLOSURE_FLOOR_US} us: {}",
            outside.join(", ")
        )
    });
    let split = replay::recovery_split(recover_dir)?;
    let counter = |key: &str| -> Result<f64, String> {
        ping_counter(&script.ping, key)
            .map(|v| v as f64)
            .ok_or_else(|| format!("no {key} in {:?}", script.ping))
    };
    let (hits, solves) = out.cache_hits;
    lines.push(format!(
        "solve mix of the replayed round: {hits} of {solves} solves found their target's index cached"
    ));
    for (name, value) in [
        ("serve.residual_commit_us", res_commit),
        ("serve.residual_solve_us", res_solve),
        ("serve.codec_us", med(&out, "serve.codec_us")?),
        (
            "serve.event_frames_per_commit",
            avg(&out, "serve.event_frames_per_commit")?,
        ),
        ("serve.peak_inflight", counter("peak")?),
        ("serve.shed", counter("shed")?),
        ("durability.append_us", med(&out, "durability.append_us")?),
        ("durability.fsync_us", med(&out, "durability.fsync_us")?),
        (
            "durability.bytes_per_record",
            avg(&out, "durability.bytes_per_record")?,
        ),
        ("durability.snapshot_ms", out.snapshot_ms),
        ("durability.snapshot_bytes", out.snapshot_bytes as f64),
        ("durability.recover_ms", split.total_ms),
        ("durability.recover_snapshot_ms", split.snapshot_ms),
        ("durability.recover_plan_build_ms", split.plan_build_ms),
        ("durability.recover_replay_ms", split.replay_ms),
        ("durability.recover_other_ms", split.other_ms()),
        (
            "relalg.register_ms",
            span_median_ms(tracer, "relalg.register")?,
        ),
        ("relalg.registry_nodes", out.registry_nodes as f64),
        ("relalg.delete_us", med(&out, "relalg.delete_us")?),
        ("relalg.drain_us", med(&out, "relalg.drain_us")?),
        (
            "relalg.rows_removed_per_commit",
            avg(&out, "relalg.rows_removed_per_commit")?,
        ),
        (
            "relalg.rows_changed_per_commit",
            avg(&out, "relalg.rows_changed_per_commit")?,
        ),
        (
            "core.context_build_ms",
            span_median_ms(tracer, "core.context_build")?,
        ),
        ("core.context_sync_us", med(&out, "core.context_sync_us")?),
        ("core.cached_indexes", out.cached_indexes as f64),
        (
            "core.index_cache_hit_pct",
            100.0 * hits as f64 / solves.max(1) as f64,
        ),
        ("core.ilp_view_us", med(&out, "core.ilp_view_us")?),
        ("core.ilp_source_us", med(&out, "core.ilp_source_us")?),
        ("core.budget_hits", out.budget_hits as f64),
        ("alloc.per_commit", med(&out, "alloc.per_commit")?),
        ("alloc.per_solve", med(&out, "alloc.per_solve")?),
        ("trace.closure_commit_pct", closure_commit),
        ("trace.closure_view_solve_pct", closure_view),
        ("trace.closure_source_solve_pct", closure_source),
    ] {
        vals.insert(name, value);
    }
    Ok(failure)
}

/// The median duration of the spans named `name`, set-up included (the
/// family is registered, and a workload's contexts may be built, during
/// set-up), ms.
fn span_median_ms(tracer: &Tracer, name: &str) -> Result<f64, String> {
    let ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    median(&ms).ok_or_else(|| format!("no {name} span replayed"))
}

/// The paper layers: one-shot evaluation and provenance of every family,
/// each single-target call in a span named after its class, and the
/// batched forms on the default pool against a sequential one.
fn paper_layers(
    batch: &[Family],
    tracer: &mut Tracer,
    vals: &mut Vals,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let err = |e: dap_core::CoreError| e.to_string();
    let rel = |e: dap_relalg::RelalgError| e.to_string();
    let rid = (u32::MAX, 0);
    let (mut eval_ms, mut why_ms, mut where_ms) = (0.0, 0.0, 0.0);
    let allocs = alloc::count();
    let mut problems = 0;
    for f in batch {
        let s = tracer.begin("relalg.eval", None, rid);
        std::hint::black_box(eval(&f.q, &f.db).map_err(rel)?);
        tracer.end(s);
        eval_ms += tracer.spans()[s].duration() as f64 / 1e6;
        let s = tracer.begin("provenance.why", None, rid);
        std::hint::black_box(why_provenance(&f.q, &f.db).map_err(rel)?);
        tracer.end(s);
        why_ms += tracer.spans()[s].duration() as f64 / 1e6;
        let s = tracer.begin("provenance.where", None, rid);
        std::hint::black_box(where_provenance(&f.q, &f.db).map_err(rel)?);
        tracer.end(s);
        where_ms += tracer.spans()[s].duration() as f64 / 1e6;
    }
    // Every single-target call in a span named after its class, through
    // the same code the rounds run.
    let first_span = tracer.spans().len();
    for f in batch {
        let (mut view, mut source) = (Vec::new(), Vec::new());
        let (_, n) =
            crate::paper::solve_family(f, ParPool::global(), &mut view, &mut source, Some(tracer))?;
        problems += n;
    }
    vals.insert(
        "alloc.per_problem",
        (alloc::count() - allocs) as f64 / problems.max(1) as f64,
    );
    vals.insert("relalg.eval_ms", eval_ms);
    vals.insert("provenance.why_ms", why_ms);
    vals.insert("provenance.where_ms", where_ms);
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in &tracer.spans()[first_span..] {
        per.entry(span.name)
            .or_default()
            .push(span.duration() as f64 / 1e3);
    }
    for (name, v) in per {
        let key = CLASS_METRICS
            .iter()
            .find(|(span, _)| *span == name)
            .map(|(_, key)| *key)
            .ok_or_else(|| format!("no metric for span {name}"))?;
        vals.insert(key, median(&v).expect("non-empty"));
    }

    // The batched forms, alternating the default pool and a sequential
    // one, three times each.
    let batched = |pool: ParPool| -> Result<f64, String> {
        let t = Instant::now();
        for f in batch {
            if f.shape.is_placement() {
                std::hint::black_box(
                    place_annotations_with(&f.q, &f.db, &f.locs(), pool).map_err(err)?,
                );
            } else {
                std::hint::black_box(
                    delete_min_view_side_effects_many_with(&f.q, &f.db, &f.targets, pool)
                        .map_err(err)?,
                );
                std::hint::black_box(
                    delete_min_source_many_with(&f.q, &f.db, &f.targets, pool).map_err(err)?,
                );
            }
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for rep in 0..6 {
        if rep % 2 == 0 {
            seq.push(batched(ParPool::sequential())?);
        } else {
            par.push(batched(ParPool::global())?);
        }
    }
    let (seq, par) = (median(&seq).expect("three"), median(&par).expect("three"));
    let threads = ParPool::global().threads();
    lines.push(format!(
        "par: batched forms take {:.2} ms sequential, {:.2} ms on the default pool of {threads} threads",
        seq * 1e3,
        par * 1e3
    ));
    vals.insert("par.fanout_speedup", seq / par);
    vals.insert("par.threads", threads as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_tolerance_is_a_share_with_a_floor() {
        // Short requests: the floor.
        assert!(closes(29.0, 60.0));
        assert!(closes(-29.0, 60.0));
        assert!(!closes(31.0, 60.0));
        // Long requests: the share.
        assert!(closes(-70.0, 300.0));
        assert!(!closes(80.0, 300.0));
    }
}
