//! The end-to-end half of the server workloads: drive the real `dap`
//! binary (`dap init`, then `dap serve` on localhost) through
//! `dap_serve::Client`, closed loop, and record every request's round
//! trip.

use crate::stats::{probe, Probe};
use crate::trace::RequestId;
use crate::workload::{Op, Workload};
use dap_durability::FsyncMode;
use dap_relalg::{QueryId, Tid};
use dap_serve::{Client, ClientOptions, Command, Response};
use std::collections::HashMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command as Process, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

unsafe extern "C" {
    /// Linux `prctl(2)`; here only with `PR_SET_PDEATHSIG`.
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// The share of a probe's time the server may run for and the probe still
/// count as quiet, and the probes tried for a quiet one.
pub const QUIET_SHARE: f64 = 0.02;
pub const QUIET_TRIES: usize = 5;

/// A running `dap serve` child process. Dropping it kills it (SIGKILL,
/// the crash every restart recovers from) and waits for it; if the
/// benchmark itself is killed, the kernel kills the server too, so no
/// server outlives the benchmark.
pub struct ServerProc {
    child: Child,
    _stdout: std::io::BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `dap serve <dir> 0` with `DAP_FSYNC=always` and wait for its
    /// `listening on <addr>` line (printed once recovery is done).
    pub fn spawn(dap: &Path, dir: &Path) -> Result<ServerProc> {
        ServerProc::spawn_with(dap, dir, FsyncMode::Always)
    }

    /// [`ServerProc::spawn`] with the given `DAP_FSYNC`.
    pub fn spawn_with(dap: &Path, dir: &Path, fsync: FsyncMode) -> Result<ServerProc> {
        let mut command = Process::new(dap);
        command
            .arg("serve")
            .arg(dir)
            .arg("0")
            .env("DAP_FSYNC", fsync.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call with plain integer arguments;
        // it touches no memory shared with the parent.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dap.display()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("dap serve did not start (printed {line:?})"))
            }
        }
    }

    /// The CPU time all the server's threads have run, in ns, from each
    /// thread's `schedstat`.
    pub fn cpu_ns(&self) -> Result<u64> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let mut total = 0;
        for task in std::fs::read_dir(&tasks).map_err(|e| format!("read {tasks}: {e}"))? {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread that exited meanwhile took its time with it.
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad {}: {text:?}", path.display()))?;
            }
        }
        Ok(total)
    }

    /// The host-speed probe, run while the server stays idle, so that a
    /// change to what the server does in the background cannot move it.
    /// A probe during which the server's threads ran for more than
    /// [`QUIET_SHARE`] of the probe's time is discarded and run again, up
    /// to [`QUIET_TRIES`] probes; the last is kept if none was quiet.
    /// Returns the probe and whether it was quiet.
    pub fn quiet_probe(&self) -> Result<(Probe, bool)> {
        let mut last = None;
        for _ in 0..QUIET_TRIES {
            let before = self.cpu_ns()?;
            let t = Instant::now();
            let p = probe();
            let wall_ns = t.elapsed().as_nanos() as f64;
            let busy_ns = self.cpu_ns()?.saturating_sub(before) as f64;
            if busy_ns <= QUIET_SHARE * wall_ns {
                return Ok((p, true));
            }
            last = Some(p);
        }
        Ok((last.expect("at least one try"), false))
    }

    /// The server's peak resident set (`VmHWM`), in kB.
    pub fn vm_hwm_kb(&self) -> Result<u64> {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process whose `status` file is `path`, in kB.
pub fn vm_hwm_kb(path: &str) -> Result<u64> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// `dap init <dir> <fixture>`.
pub fn init_dir(dap: &Path, dir: &Path, fixture: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    run_dap(
        dap,
        &["init".as_ref(), dir.as_os_str(), fixture.as_os_str()],
    )
}

/// Run one `dap` subcommand to completion; `Err` unless it exits 0.
pub fn run_dap(dap: &Path, args: &[&std::ffi::OsStr]) -> Result<()> {
    let out = Process::new(dap)
        .args(args)
        .env("DAP_FSYNC", "always")
        .output()
        .map_err(|e| format!("spawn dap: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "dap {:?} failed: {}",
            args.first(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// What a request asked for, in workload terms.
#[derive(Clone, PartialEq, Debug)]
pub enum Req {
    Register(usize),
    Subscribe(usize),
    Op(Op),
    Ping,
}

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub client: u32,
    pub seq: u64,
    pub req: Req,
    pub start: Instant,
    pub end: Instant,
    /// `Ok(body)` for an `ok` answer, `Err(why)` for anything else.
    pub outcome: std::result::Result<String, String>,
    /// Subscription events received while waiting for the answer.
    pub events: usize,
}

impl Sample {
    pub fn rid(&self) -> RequestId {
        (self.client, self.seq)
    }

    pub fn rt(&self) -> Duration {
        self.end - self.start
    }

    pub fn ms(&self) -> f64 {
        self.rt().as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        self.outcome.is_ok()
    }

    pub fn is_commit(&self) -> bool {
        matches!(self.req, Req::Op(Op::Delete(_)))
    }

    pub fn is_solve(&self, objective: dap_serve::SolveObjective) -> bool {
        matches!(&self.req, Req::Op(Op::Solve { objective: o, .. }) if *o == objective)
    }
}

/// One client connection plus the sequence numbers it has used (the
/// `Client` numbers requests 1, 2, ... and sends each once here).
pub struct Conn {
    client: Client,
    pub id: u32,
    seq: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr, id: u32) -> Conn {
        let opts = ClientOptions {
            max_attempts: 1,
            reply_timeout: Duration::from_secs(30),
            ..ClientOptions::new(format!("c{id}"))
        };
        Conn {
            client: Client::new(addr, opts),
            id,
            seq: 0,
        }
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, req: Req, ids: &[QueryId]) -> Sample {
        let cmd = command(&req, ids);
        self.seq += 1;
        let start = Instant::now();
        let answer = self.client.request(cmd);
        let end = Instant::now();
        let outcome = match answer {
            Ok(Response::Ok { body, .. }) => Ok(body),
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(e.to_string()),
        };
        Sample {
            client: self.id,
            seq: self.seq,
            req,
            start,
            end,
            outcome,
            events: self.client.take_events().len(),
        }
    }

    /// Send one request that must succeed.
    pub fn must(&mut self, req: Req, ids: &[QueryId]) -> Result<Sample> {
        let s = self.call(req, ids);
        match &s.outcome {
            Ok(_) => Ok(s),
            Err(e) => Err(format!("{:?}: {e}", s.req)),
        }
    }

    /// A request the engine answers without doing anything: unregister
    /// a query id no query ever had. Returns its round trip.
    fn noop(&mut self) -> Result<Duration> {
        let id = QueryId::from_index(NOOP_QUERY);
        self.seq += 1;
        let start = Instant::now();
        let answer = self.client.request(Command::Unregister(id));
        let rt = start.elapsed();
        match answer {
            Ok(Response::Ok { body, .. }) if body.ends_with("was not registered") => Ok(rt),
            other => Err(format!("the no-op answered {other:?}")),
        }
    }

    /// Register query `q` of the family; the answer is `q<k>`.
    fn register(&mut self, w: &Workload, q: usize) -> Result<(Sample, QueryId)> {
        self.seq += 1;
        let start = Instant::now();
        let answer = self.client.register(&w.queries[q]);
        let end = Instant::now();
        let body = match answer {
            Ok(Response::Ok { body, .. }) => body,
            other => return Err(format!("register q{q}: {other:?}")),
        };
        let id = body
            .split(' ')
            .next()
            .and_then(|t| dap_serve::protocol::parse_query_id(t).ok())
            .ok_or_else(|| format!("register answered {body:?}"))?;
        let sample = Sample {
            client: self.id,
            seq: self.seq,
            req: Req::Register(q),
            start,
            end,
            outcome: Ok(body),
            events: 0,
        };
        Ok((sample, id))
    }
}

/// One step of the closure pass: a request, and whether a no-op request
/// goes just before it on the same connection.
pub struct Step {
    pub op: Op,
    pub paired: bool,
}

/// What the closure pass sent and measured.
pub struct ClosurePass {
    /// Every request but the no-ops, in the order they were sent (one at
    /// a time, so also the order the engine executed them).
    pub executed: Vec<Sample>,
    /// The round trip of the no-op sent before each paired request, µs.
    pub noop_us: HashMap<RequestId, f64>,
}

/// The traced run's closure pass, on a server started on `dir`: one
/// connection, subscribed to nothing, sends `steps` one at a time. Before
/// each paired step it sends a no-op: an unregister of a query id no
/// query ever had, which the engine answers after one catalog lookup,
/// without logging or evaluating anything. Its round trip is the serve
/// layer's share of a request — transport, session threads, admission
/// and the hand-off to the engine and back, codec — measured without any
/// engine work.
///
/// Two things the rounds have are left out, because neither has a
/// measure of its own to close against. No connection subscribes: the
/// session threads would write each commit's events while the next
/// request runs, and on a 2-vCPU host that contention slows it. And the
/// server runs with `DAP_FSYNC=never` (the replay then skips its sync):
/// an fsync on the disk these spreads were measured on takes 55–200 µs,
/// and its latency drifts within a run by more than the tolerance, so a
/// commit's closure under fsync measures the disk's drift between the
/// live request and its replay. The rounds' replay times both apart
/// (`relalg.drain`, `serve.encode`, `durability.fsync_us`).
pub fn closure_pass(
    dap: &Path,
    dir: &Path,
    ids: &[QueryId],
    steps: &[Step],
) -> Result<ClosurePass> {
    let server = ServerProc::spawn_with(dap, dir, FsyncMode::Never)?;
    let mut conn = Conn::new(server.addr, CLOSURE_CLIENT);
    let mut executed = Vec::with_capacity(steps.len());
    let mut noop_us = HashMap::new();
    for step in steps {
        if step.paired {
            let rt = conn.noop()?;
            noop_us.insert((conn.id, conn.seq + 1), rt.as_secs_f64() * 1e6);
        }
        executed.push(conn.must(Req::Op(step.op.clone()), ids)?);
    }
    Ok(ClosurePass { executed, noop_us })
}

/// The closure pass's client id, apart from the rounds' (0 and 1).
pub const CLOSURE_CLIENT: u32 = 8;

/// The query index the no-op unregisters: far past any the family uses.
const NOOP_QUERY: u64 = 1 << 30;

/// The wire command for a request.
pub fn command(req: &Req, ids: &[QueryId]) -> Command {
    match req {
        Req::Register(_) => unreachable!("registers carry their query text; see `register`"),
        Req::Subscribe(q) => Command::Subscribe(ids[*q]),
        Req::Ping => Command::Ping,
        Req::Op(Op::Delete(tid)) => Command::DeleteSource(vec![tid.clone()]),
        Req::Op(Op::Solve {
            query,
            objective,
            target,
        }) => Command::Solve {
            id: ids[*query],
            objective: *objective,
            target: target.clone(),
        },
    }
}

/// Subscribe `conn` to every query of the family.
pub fn subscribe_all(conn: &mut Conn, ids: &[QueryId]) -> Result<Vec<Sample>> {
    (0..ids.len())
        .map(|q| conn.must(Req::Subscribe(q), ids))
        .collect()
}

/// Warm-up solves over `conn`, all with the source objective.
pub fn warm_up(
    conn: &mut Conn,
    warmups: &[(usize, dap_relalg::Tuple)],
    ids: &[QueryId],
) -> Result<Vec<Sample>> {
    warmups
        .iter()
        .map(|(query, target)| {
            let op = Op::Solve {
                query: *query,
                objective: dap_serve::SolveObjective::Source,
                target: target.clone(),
            };
            conn.must(Req::Op(op), ids)
        })
        .collect()
}

/// A server brought from nothing to ready: directory initialized, family
/// registered, every connection subscribed, and (with `warm`) the
/// warm-up solves done. `seconds` covers exactly this.
pub struct Setup {
    pub server: ServerProc,
    pub conns: Vec<Conn>,
    pub ids: Vec<QueryId>,
    pub seconds: f64,
    pub samples: Vec<Sample>,
}

pub fn setup(
    dap: &Path,
    dir: &Path,
    fixture: &Path,
    w: &Workload,
    clients: u32,
    warm: bool,
) -> Result<Setup> {
    let t0 = Instant::now();
    init_dir(dap, dir, fixture)?;
    let server = ServerProc::spawn(dap, dir)?;
    let mut conns: Vec<Conn> = (0..clients).map(|i| Conn::new(server.addr, i)).collect();
    let mut samples = Vec::new();
    let mut ids = Vec::new();
    for q in 0..w.queries.len() {
        let (s, id) = conns[0].register(w, q)?;
        samples.push(s);
        ids.push(id);
    }
    for conn in conns.iter_mut() {
        samples.extend(subscribe_all(conn, &ids)?);
    }
    if warm {
        samples.extend(warm_up(&mut conns[0], &w.warmups, &ids)?);
    }
    Ok(Setup {
        server,
        conns,
        ids,
        seconds: t0.elapsed().as_secs_f64(),
        samples,
    })
}

/// Run one closed-loop stream per connection, concurrently, from a
/// common start. Returns the samples and the time from the start to the
/// last answer.
pub fn run_streams(conns: &mut [Conn], streams: &[Vec<Op>], ids: &[QueryId]) -> (Vec<Sample>, f64) {
    let barrier = Barrier::new(conns.len());
    let results: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .map(|(conn, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let samples: Vec<Sample> = stream
                        .iter()
                        .map(|op| conn.call(Req::Op(op.clone()), ids))
                        .collect();
                    (samples, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = results.iter().map(|r| r.1).min().expect("one client");
    let samples: Vec<Sample> = results.into_iter().flat_map(|r| r.0).collect();
    let end = samples.iter().map(|s| s.end).max().unwrap_or(start);
    (samples, (end - start).as_secs_f64())
}

/// The deletions the samples committed, in the order the server answered
/// them (which is its commit order: one engine thread executes them).
pub fn committed(samples: &[Sample]) -> Vec<Tid> {
    let mut done: Vec<&Sample> = samples.iter().filter(|s| s.ok()).collect();
    done.sort_by_key(|s| s.end);
    done.into_iter()
        .filter_map(|s| match &s.req {
            Req::Op(Op::Delete(tid)) => Some(tid.clone()),
            _ => None,
        })
        .collect()
}

/// `pong seq=.. inflight=.. peak=.. shed=..`: the named counter.
pub fn ping_counter(body: &str, key: &str) -> Option<u64> {
    body.split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Start the server on the crashed `dir` and commit `first` through a
/// fresh connection: the time from spawning until that answer, the
/// server, the connection and the commit's sample.
pub fn restart(
    dap: &Path,
    dir: &Path,
    first: &Tid,
    id: u32,
) -> Result<(f64, ServerProc, Conn, Sample)> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(dap, dir)?;
    let mut conn = Conn::new(server.addr, id);
    let s = conn.must(Req::Op(Op::Delete(first.clone())), &[])?;
    Ok((t0.elapsed().as_secs_f64(), server, conn, s))
}

/// Bytes of every file in the durable directory.
pub fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Replace `to` with a copy of the flat directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_counters_parse() {
        let body = "pong seq=12 inflight=0 peak=3 shed=0 panics=0 sessions=2";
        assert_eq!(ping_counter(body, "peak"), Some(3));
        assert_eq!(ping_counter(body, "seq"), Some(12));
        assert_eq!(ping_counter(body, "shed"), Some(0));
        assert_eq!(ping_counter(body, "nope"), None);
    }
}
