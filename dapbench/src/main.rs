//! The benchmark of the deletion-propagation stack.
//!
//! ```text
//! dapbench --workload <commit-stream|solve-hot|paper-batch> --seed <n>
//!          --seconds <s> --trace <0|1> --dap <path to the dap binary>
//! ```
//!
//! One run generates the workload from the seed, sets it up several
//! times (`setup_s`), then makes many short rounds of identical work
//! until their time adds up to `--seconds`, running the host-speed probe
//! around each round while no server works. Every answer is checked by the oracle, outside the
//! timed regions. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! additionally replays one round in-process through each layer's public
//! calls with spans and prints the per-layer metrics instead. Run
//! directories and span files go under `.bench_work`. The last stdout
//! line is the JSON result. See README.md.

mod alloc;
mod e2e;
mod layers;
mod oracle;
mod paper;
mod replay;
mod rng;
mod stats;
mod trace;
mod workload;

use e2e::{Conn, Req, Sample};
use stats::{median, normalize_rate, normalize_time, probe, tail, Metric, Probe, Round};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Kind, Op, Workload};

/// `(name, unit)` of the end-to-end metrics the result line carries with
/// `--trace 0`, on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("solve_view_p50_ms", "ms"),
    ("solve_source_p50_ms", "ms"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_commit", "bytes"),
];

/// Rounds per run at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Set-ups per run of the server workloads (each a fresh `dap init`),
/// and of `paper-batch` (each a fresh parse).
const SERVER_SETUPS: usize = 5;
const PAPER_SETUPS: usize = 31;
/// `solve-hot`: restarts timed per epoch (one epoch per set-up).
const RESTARTS_PER_EPOCH: usize = 8;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dap: PathBuf,
}

/// Where run directories and span files go, relative to the checkout.
pub const WORK: &str = ".bench_work";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dap = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            "--dap" => dap = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dap: dap.ok_or("--dap is required")?,
    })
}

/// One timed round of a workload.
#[derive(Default)]
pub struct RoundM {
    /// The probes before and after the round's stream, averaged.
    pub probe: Probe,
    /// Operations completed in the timed stream, and its length.
    pub ops: usize,
    pub stream_s: f64,
    pub commit_ms: Vec<f64>,
    pub view_ms: Vec<f64>,
    pub source_ms: Vec<f64>,
    pub rss_kb: u64,
    pub disk_bytes: u64,
    pub commits: u64,
}

/// One timed set-up or restart, with the probe taken before it.
pub struct Timed {
    pub probe: Probe,
    pub seconds: f64,
}

impl Timed {
    fn run<T>(f: impl FnOnce() -> Result<(T, f64), String>) -> Result<(T, Timed), String> {
        let probe = probe();
        let (out, seconds) = f()?;
        Ok((out, Timed { probe, seconds }))
    }
}

/// Everything one run measured, before it is turned into metrics.
pub struct Measured {
    pub setups: Vec<Timed>,
    pub restarts: Vec<Timed>,
    pub rounds: Vec<RoundM>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub lines: Vec<String>,
    /// The verdict of the oracle.
    pub verdict: Result<(), String>,
    /// What the traced run replays: the set-up requests and the first
    /// round's requests (server workloads), with the server's counters.
    pub replay: Option<replay::Script>,
}

impl Default for Measured {
    fn default() -> Measured {
        Measured {
            setups: Vec::new(),
            restarts: Vec::new(),
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            lines: Vec::new(),
            verdict: Err("the oracle did not run".into()),
            replay: None,
        }
    }
}

impl Measured {
    fn count(&mut self, samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            if let Err(e) = &s.outcome {
                self.failed += 1;
                self.first_failure.get_or_insert_with(|| e.clone());
            }
        }
    }
}

/// `commit-stream`: two writers over a server restarted every round from
/// the same crashed directory.
fn commit_stream(a: &Args, w: &Workload, root: &Path, m: &mut Measured) -> Result<(), String> {
    let fixture = root.join("db.dap");
    std::fs::write(&fixture, w.db.to_fixture_string()).map_err(|e| format!("fixture: {e}"))?;
    let dir = root.join("durable");
    let mut last = None;
    for _ in 0..SERVER_SETUPS {
        drop(last.take());
        let (s, t) = Timed::run(|| {
            let s = e2e::setup(&a.dap, &dir, &fixture, w, 2, false)?;
            let secs = s.seconds;
            Ok((s, secs))
        })?;
        m.setups.push(t);
        last = Some(s);
    }
    let setup = last.expect("one set-up");
    let ids = setup.ids.clone();
    let setup_samples = setup.samples.clone();
    // The prepared directory: a snapshot after the prefix, then the tail
    // in the log, left as `kill -9` leaves it.
    {
        let mut conns = setup.conns;
        for tid in &w.prefix {
            conns[0].must(Req::Op(Op::Delete(tid.clone())), &ids)?;
        }
        drop(conns);
        drop(setup.server);
    }
    e2e::run_dap(&a.dap, &["snapshot".as_ref(), dir.as_os_str()])?;
    {
        let server = e2e::ServerProc::spawn(&a.dap, &dir)?;
        let mut conn = Conn::new(server.addr, 0);
        for tid in &w.tail {
            conn.must(Req::Op(Op::Delete(tid.clone())), &ids)?;
        }
    }
    let prepared = root.join("prepared");
    e2e::copy_dir(&dir, &prepared)?;
    let prepared_bytes = e2e::dir_bytes(&prepared)?;

    let Op::Delete(first) = &w.streams[0][0] else {
        unreachable!("slices only commit")
    };
    let streams = [w.streams[0][1..].to_vec(), w.streams[1].clone()];
    let mut solves: Vec<Sample> = Vec::new();
    let mut last_committed = Vec::new();
    let mut streamed = 0.0;
    while m.rounds.len() < MIN_ROUNDS || streamed < a.seconds {
        let t0 = Instant::now();
        e2e::copy_dir(&prepared, &dir)?;
        let ((server, mut c0, first_sample), restart) = Timed::run(|| {
            let (secs, server, conn, s) = e2e::restart(&a.dap, &dir, first, 0)?;
            Ok(((server, conn, s), secs))
        })?;
        // The round's probes run while no server does: the one before
        // the restart and one after the server is killed.
        let before = restart.probe;
        m.restarts.push(restart);
        let mut c1 = Conn::new(server.addr, 1);
        let mut round_samples = vec![first_sample];
        round_samples.extend(e2e::subscribe_all(&mut c0, &ids)?);
        round_samples.extend(e2e::subscribe_all(&mut c1, &ids)?);
        let mut conns = [c0, c1];
        let (stream, stream_s) = e2e::run_streams(&mut conns, &streams, &ids);
        let [mut c0, _c1] = conns;
        let warm = e2e::warm_up(&mut c0, &w.warmups, &ids)?;
        let tail: Vec<Sample> = w
            .solve_tail
            .iter()
            .map(|op| c0.call(Req::Op(op.clone()), &ids))
            .collect();
        let ping = c0.must(Req::Ping, &ids)?;
        let rss_kb = server.vm_hwm_kb()?;
        drop(server);
        let probe = before.mean(&probe());
        m.count(&stream);
        m.count(&tail);
        let commits = 1 + stream.len() as u64;
        let ms = |pick: &dyn Fn(&Sample) -> bool, from: &[Sample]| -> Vec<f64> {
            from.iter()
                .filter(|s| s.ok() && pick(s))
                .map(Sample::ms)
                .collect()
        };
        let round = RoundM {
            probe,
            ops: stream.iter().filter(|s| s.ok()).count(),
            stream_s,
            commit_ms: ms(&|s| s.is_commit(), &stream),
            view_ms: ms(&|s| s.is_solve(dap_serve::SolveObjective::View), &tail),
            source_ms: ms(&|s| s.is_solve(dap_serve::SolveObjective::Source), &tail),
            rss_kb,
            disk_bytes: e2e::dir_bytes(&dir)? - prepared_bytes,
            commits,
        };
        round_samples.extend(stream);
        last_committed = e2e::committed(&round_samples);
        if m.rounds.is_empty() {
            m.lines.push(format!(
                "round mix: {} commits from 2 connections, then {} solves after {} warm-ups; {} subscription events received",
                round.commits,
                tail.len(),
                warm.len(),
                round_samples.iter().chain(&tail).map(|s| s.events).sum::<usize>()
            ));
            let mut executed: Vec<Sample> = round_samples.clone();
            executed.extend(warm);
            executed.extend(tail.iter().cloned());
            executed.push(ping.clone());
            let registers = setup_samples
                .iter()
                .filter(|s| matches!(s.req, Req::Register(_)))
                .cloned()
                .collect();
            let state = w.prefix.iter().chain(&w.tail).cloned().collect();
            m.replay = Some(replay::Script::new(registers, state, executed, &ping, &ids));
        }
        solves.extend(tail);
        m.rounds.push(round);
        streamed += t0.elapsed().as_secs_f64();
    }

    // The oracle, on the last round's directory and on every round's
    // solves (each computed after the same commits).
    let committed: Vec<_> = w
        .prefix
        .iter()
        .chain(&w.tail)
        .cloned()
        .chain(last_committed)
        .collect();
    let verdict = oracle::check_recovered(w, &dir, &committed).and_then(|()| {
        let set: BTreeSet<_> = committed.iter().cloned().collect();
        let refs: Vec<&Sample> = solves.iter().collect();
        oracle::check_solves(w, &refs, &set, a.seed)
    });
    match verdict {
        Ok(n) => {
            m.lines.push(format!(
                "oracle: the recovered directory equals the oracle registry after {} commits; {n} solve answers match the dichotomy solvers and re-evaluation",
                committed.len()
            ));
            m.verdict = Ok(());
        }
        Err(e) => m.verdict = Err(e),
    }
    Ok(())
}

/// `solve-hot`: one connection solving over a warm hot set, one request
/// in sixteen a commit; every epoch is a fresh set-up, then rounds, then timed
/// restarts of a copy of the directory as set-up left it.
fn solve_hot(a: &Args, w: &Workload, root: &Path, m: &mut Measured) -> Result<(), String> {
    let fixture = root.join("db.dap");
    std::fs::write(&fixture, w.db.to_fixture_string()).map_err(|e| format!("fixture: {e}"))?;
    let dir = root.join("durable");
    let crash = root.join("crash");
    let restarted = root.join("restarted");
    let mut solves: Vec<Sample> = Vec::new();
    let per_epoch = a.seconds / SERVER_SETUPS as f64;
    let min_rounds = MIN_ROUNDS.div_ceil(SERVER_SETUPS);
    let mut last_committed = Vec::new();
    let mut busy_probes = 0;
    for epoch in 0..SERVER_SETUPS {
        let (setup, t) = Timed::run(|| {
            let s = e2e::setup(&a.dap, &dir, &fixture, w, 1, true)?;
            let secs = s.seconds;
            Ok((s, secs))
        })?;
        m.setups.push(t);
        let e2e::Setup {
            server,
            mut conns,
            ids,
            samples: setup_samples,
            ..
        } = setup;
        // The server is idle and every commit is synced: this copy is
        // what `kill -9` would leave.
        e2e::copy_dir(&dir, &crash)?;
        let base_bytes = e2e::dir_bytes(&dir)?;
        let epoch_start = Instant::now();
        let mut r = 0;
        let mut committed = Vec::new();
        while r < min_rounds || epoch_start.elapsed().as_secs_f64() < per_epoch {
            if r == w.max_rounds() {
                break;
            }
            let ops = w.solve_hot_round(r);
            let (before, quiet_before) = server.quiet_probe()?;
            let (stream, stream_s) = e2e::run_streams(&mut conns, std::slice::from_ref(&ops), &ids);
            let (after, quiet_after) = server.quiet_probe()?;
            let probe = before.mean(&after);
            busy_probes += usize::from(!quiet_before) + usize::from(!quiet_after);
            m.count(&stream);
            let ms = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
                stream
                    .iter()
                    .filter(|s| s.ok() && pick(s))
                    .map(Sample::ms)
                    .collect()
            };
            let commits = stream.iter().filter(|s| s.is_commit() && s.ok()).count() as u64;
            committed.extend(e2e::committed(&stream));
            m.rounds.push(RoundM {
                probe,
                ops: stream.iter().filter(|s| s.ok()).count(),
                stream_s,
                commit_ms: ms(&|s| s.is_commit()),
                view_ms: ms(&|s| s.is_solve(dap_serve::SolveObjective::View)),
                source_ms: ms(&|s| s.is_solve(dap_serve::SolveObjective::Source)),
                rss_kb: 0,
                disk_bytes: 0,
                commits,
            });
            if epoch == 0 && r == 0 {
                let ping = conns[0].must(Req::Ping, &ids)?;
                let mut executed = stream.clone();
                executed.push(ping.clone());
                m.replay = Some(replay::Script::new(
                    setup_samples.clone(),
                    Vec::new(),
                    executed,
                    &ping,
                    &ids,
                ));
            }
            solves.extend(stream);
            r += 1;
        }
        let ping = conns[0].must(Req::Ping, &ids)?;
        m.lines.push(format!(
            "epoch {epoch}: {r} rounds; {}",
            ping.outcome.as_ref().expect("ok")
        ));
        let rss_kb = server.vm_hwm_kb()?;
        let disk = e2e::dir_bytes(&dir)? - base_bytes;
        let total_commits: u64 = committed.len() as u64;
        // Per-epoch figures go on the epoch's rounds.
        let n = m.rounds.len();
        for round in &mut m.rounds[n - r..] {
            round.rss_kb = rss_kb;
            round.disk_bytes = disk;
            round.commits = total_commits;
        }
        drop(conns);
        drop(server);
        for _ in 0..RESTARTS_PER_EPOCH {
            e2e::copy_dir(&crash, &restarted)?;
            let (s, t) = Timed::run(|| {
                let (secs, server, conn, s) =
                    e2e::restart(&a.dap, &restarted, &workload::audit_tid(0), 0)?;
                drop(conn);
                drop(server);
                Ok((s, secs))
            })?;
            m.count(std::slice::from_ref(&s));
            m.restarts.push(t);
        }
        last_committed = committed;
    }
    m.lines.push(format!(
        "probes: {busy_probes} of {} kept although the server ran for more than {}% of their time",
        2 * m.rounds.len(),
        100.0 * e2e::QUIET_SHARE
    ));
    let verdict = oracle::check_recovered(w, &dir, &last_committed).and_then(|()| {
        let refs: Vec<&Sample> = solves.iter().collect();
        oracle::check_solves(w, &refs, &BTreeSet::new(), a.seed)
    });
    match verdict {
        Ok(n) => {
            m.lines.push(format!(
                "oracle: the last epoch's recovered directory equals the oracle registry after {} commits; {n} solve answers match the dichotomy solvers and re-evaluation",
                last_committed.len()
            ));
            m.verdict = Ok(());
        }
        Err(e) => m.verdict = Err(e),
    }
    Ok(())
}

/// `paper-batch`: the batch of one-shot problems, in-process.
fn paper_batch(a: &Args, m: &mut Measured) -> Result<Vec<paper::Family>, String> {
    let specs = paper::generate(a.seed);
    let mut batch = None;
    for _ in 0..PAPER_SETUPS {
        let (b, t) = Timed::run(|| {
            let t = Instant::now();
            let b = paper::parse(&specs)?;
            Ok((b, t.elapsed().as_secs_f64()))
        })?;
        m.setups.push(t);
        batch = Some(b);
    }
    let batch = batch.expect("one set-up");
    let pool = dap_core::ParPool::global();
    let start = Instant::now();
    let mut first: Option<(Vec<paper::Answers>, paper::Applied)> = None;
    let mut costs_differ = None;
    let mut family_s = vec![0.0; batch.len()];
    while m.rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < a.seconds {
        let before = probe();
        let out = paper::run_round(&batch, pool)?;
        let commit = paper::restart_and_commit(&batch)?;
        let probe = before.mean(&probe());
        m.restarts.push(Timed {
            probe,
            seconds: commit.restart_s,
        });
        m.attempted += (out.problems + commit.commits as usize) as u64;
        for (acc, s) in family_s.iter_mut().zip(&out.family_s) {
            *acc += s;
        }
        // Answers may differ among equal-cost optima; costs may not.
        match &first {
            None => first = Some((out.answers.clone(), commit.applied.clone())),
            Some((f, applied)) if costs_differ.is_none() => {
                if let Some(i) = (0..f.len()).find(|&i| !paper::same_costs(&f[i], &out.answers[i]))
                {
                    costs_differ = Some(format!(
                        "round {} answered {} with other costs than round 0",
                        m.rounds.len(),
                        batch[i].shape.name()
                    ));
                } else if paper::applied_costs(applied) != paper::applied_costs(&commit.applied) {
                    costs_differ = Some(format!(
                        "round {}'s apply loops committed other costs than round 0's",
                        m.rounds.len()
                    ));
                }
            }
            Some(_) => {}
        }
        m.rounds.push(RoundM {
            probe,
            ops: out.problems,
            stream_s: out.seconds,
            commit_ms: vec![commit.commit_ms],
            view_ms: out.view_ms,
            source_ms: out.source_ms,
            rss_kb: 0,
            disk_bytes: commit.log_bytes,
            commits: commit.commits,
        });
    }
    let total: f64 = family_s.iter().sum();
    m.lines.push(format!(
        "time share per family: {}",
        batch
            .iter()
            .zip(&family_s)
            .map(|(f, s)| format!("{} {:.1}%", f.shape.name(), 100.0 * s / total))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let (answers, applied) = first.as_ref().expect("one round");
    let verdict = match costs_differ {
        Some(e) => Err(e),
        None => paper::check(&batch, answers)
            .and_then(|n| Ok(n + paper::check_applied(&batch, applied)?)),
    };
    match verdict {
        Ok(n) => {
            m.lines.push(format!(
                "oracle: {n} answers match the unified ILP, re-evaluation and brute-force placement; every round's costs equal round 0's"
            ));
            m.verdict = Ok(());
        }
        Err(e) => m.verdict = Err(e),
    }
    let rss_kb = e2e::vm_hwm_kb("/proc/self/status")?;
    for r in &mut m.rounds {
        r.rss_kb = rss_kb;
    }
    Ok(batch)
}

/// Measure one workload: the untimed generation, set-ups, rounds and
/// oracle.
pub fn measure(
    a: &Args,
    root: &Path,
) -> Result<(Measured, Option<Workload>, Vec<paper::Family>), String> {
    let mut m = Measured::default();
    match a.kind {
        Kind::CommitStream | Kind::SolveHot => {
            let t = Instant::now();
            let w = workload::generate(a.kind, a.seed);
            eprintln!("generated in {:.2} s", t.elapsed().as_secs_f64());
            if a.kind == Kind::CommitStream {
                commit_stream(a, &w, root, &mut m)?;
            } else {
                solve_hot(a, &w, root, &mut m)?;
            }
            Ok((m, Some(w), Vec::new()))
        }
        Kind::PaperBatch => {
            let batch = paper_batch(a, &mut m)?;
            Ok((m, None, batch))
        }
    }
}

fn rounds_of(m: &Measured, pick: impl Fn(&RoundM) -> &Vec<f64>, wakeups: bool) -> Vec<Round> {
    m.rounds
        .iter()
        .map(|r| Round {
            slowdown: r.probe.slowdown(wakeups),
            samples: pick(r).clone(),
        })
        .collect()
}

/// Whether a workload's times are normalized by both parts of the probe
/// (the server workloads, whose requests wait on wake-ups) or by its
/// computing part alone.
pub fn wakeups(kind: Kind) -> bool {
    kind != Kind::PaperBatch
}

/// The end-to-end metrics, plus summary lines with each latency's tail.
///
/// The streams' metrics are normalized round by round, by the probes
/// around each round; set-up and restart times, of which a run has only a
/// few, by the median of all the run's probes (a single probe is itself
/// about a tenth noisy).
pub fn end_to_end(
    kind: Kind,
    m: &Measured,
    lines: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let wakeups = wakeups(kind);
    let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("{name}: no samples"));
    let all_probes: Vec<f64> = m
        .rounds
        .iter()
        .map(|r| r.probe)
        .chain(m.setups.iter().chain(&m.restarts).map(|t| t.probe))
        .map(|p| p.slowdown(wakeups))
        .collect();
    let run_slowdown = need("probe", median(&all_probes))?;
    let timed =
        |v: &[Timed]| -> Option<f64> { median(&v.iter().map(|t| t.seconds).collect::<Vec<_>>()) };
    let rates: Vec<f64> = m
        .rounds
        .iter()
        .map(|r| normalize_rate(r.ops as f64 / r.stream_s, r.probe.slowdown(wakeups)))
        .collect();
    let rss: Vec<f64> = m.rounds.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
    let disk: Vec<f64> = m
        .rounds
        .iter()
        .map(|r| r.disk_bytes as f64 / r.commits.max(1) as f64)
        .collect();
    let latency = |name: &'static str, pick: fn(&RoundM) -> &Vec<f64>, lines: &mut Vec<String>| {
        let pooled: Vec<f64> = m
            .rounds
            .iter()
            .flat_map(|r| pick(r).iter().copied())
            .collect();
        match tail(&pooled) {
            Some((v, pct)) => lines.push(format!(
                "tail {name}: p{pct:.2} = {v:.4} ms of {} samples (raw, not normalized)",
                pooled.len()
            )),
            None => lines.push(format!("tail {name}: only {} samples", pooled.len())),
        }
        let raw: Vec<f64> = m.rounds.iter().filter_map(|r| median(pick(r))).collect();
        lines.push(format!(
            "estimators {name}: raw {:.5}, normalized {:.5}",
            median(&raw).unwrap_or(0.0),
            stats::latency_estimate(&rounds_of(m, pick, wakeups)).unwrap_or(0.0),
        ));
        need(name, stats::latency_estimate(&rounds_of(m, pick, wakeups)))
    };
    let probes =
        |part: fn(&Probe) -> f64| -> Vec<f64> { m.rounds.iter().map(|r| part(&r.probe)).collect() };
    for (what, v) in [
        ("compute", probes(|p| p.compute_s)),
        ("wakeup", probes(|p| p.wakeup_s)),
    ] {
        lines.push(format!(
            "probe {what}: median {:.3} ms over {} rounds, IQR/median {:.4}",
            median(&v).unwrap_or(0.0) * 1e3,
            v.len(),
            stats::iqr_over_median(&v).unwrap_or(0.0)
        ));
    }
    let raw_rates: Vec<f64> = m.rounds.iter().map(|r| r.ops as f64 / r.stream_s).collect();
    lines.push(format!(
        "estimators ops_per_s: raw {:.3}, normalized {:.3}",
        median(&raw_rates).unwrap_or(0.0),
        median(&rates).unwrap_or(0.0),
    ));
    for (name, v) in [("setup_s", &m.setups), ("restart_s", &m.restarts)] {
        lines.push(format!(
            "estimators {name}: raw {:.5}, normalized {:.5} (run slowdown {run_slowdown:.4})",
            timed(v).unwrap_or(0.0),
            timed(v).unwrap_or(0.0) / run_slowdown,
        ));
    }
    let values = [
        need(
            "setup_s",
            timed(&m.setups).map(|t| normalize_time(t, run_slowdown)),
        )?,
        need("ops_per_s", median(&rates))?,
        latency("commit_p50_ms", |r| &r.commit_ms, lines)?,
        latency("solve_view_p50_ms", |r| &r.view_ms, lines)?,
        latency("solve_source_p50_ms", |r| &r.source_ms, lines)?,
        need(
            "restart_s",
            timed(&m.restarts).map(|t| normalize_time(t, run_slowdown)),
        )?,
        need("peak_rss_mb", median(&rss))?,
        need("disk_bytes_per_commit", median(&disk))?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect())
}

/// What a run prints: summary lines, then the result line.
struct Report {
    lines: Vec<String>,
    result: String,
    correct: bool,
}

fn run(a: &Args, root: &Path) -> Result<Report, String> {
    let epoch = Instant::now();
    let (mut m, w, batch) = measure(a, root)?;
    eprintln!("measured in {:.2} s", epoch.elapsed().as_secs_f64());
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        a.kind.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    )];
    lines.append(&mut m.lines);
    lines.push(format!(
        "{} rounds; error_ratio {} ({} of {} operations failed)",
        m.rounds.len(),
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    ));
    if let Some(e) = &m.first_failure {
        lines.push(format!("first failure: {e}"));
    }
    if let Err(e) = &m.verdict {
        lines.push(format!("ORACLE MISMATCH: {e}"));
    }
    let e2e_metrics = end_to_end(a.kind, &m, &mut lines)?;
    for metric in &e2e_metrics {
        lines.push(format!("{} {} {}", metric.name, metric.value, metric.unit));
    }
    let (metrics, closure_failure) = if a.trace {
        layers::per_layer(a, root, &m, w.as_ref(), &batch, &mut lines)?
    } else {
        (e2e_metrics, None)
    };
    // A breakdown that does not add up fails the traced run, as a wrong
    // answer fails any run.
    if let Some(e) = &closure_failure {
        lines.push(format!("CLOSURE OUTSIDE: {e}"));
    }
    let correct = m.verdict.is_ok() && closure_failure.is_none();
    Ok(Report {
        lines,
        result: stats::result_line(correct, m.attempted, m.failed, &metrics),
        correct,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dapbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(WORK).join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let result = std::fs::create_dir_all(&root)
        .map_err(|e| format!("create {}: {e}", root.display()))
        .and_then(|()| run(&args, &root));
    let _ = std::fs::remove_dir_all(&root);
    match result {
        Ok(report) => {
            for line in report.lines {
                println!("{line}");
            }
            println!("{}", report.result);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("dapbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a run prints are exactly the ones `BENCHMARK.json` lists,
    /// with the same units, and every name is a valid metric name.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = spec.matches("\"name\": \"").count();
        let ours = END_TO_END.len() + layers::PER_LAYER.len() + Kind::ALL.len();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json lists {listed} names, the benchmark {ours}"
        );
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
            assert!(stats::valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for kind in Kind::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
    }
}
