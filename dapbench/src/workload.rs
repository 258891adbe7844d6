//! The seeded generator of the two server workloads, `commit-stream` and
//! `solve-hot`.
//!
//! The database has the user/group/file shape of the paper's running
//! example (`UserGroup(user, grp)`, `GroupFile(grp, file)`), with every
//! user and every file in a seeded random choice of groups, so the number
//! of witnesses varies from view tuple to view tuple. A third relation,
//! `Audit(entry, user)`, shares no tuple with any join witness: it is
//! what `solve-hot` commits, so its commits leave every solve's work the
//! same. The standing family is the PJ core
//! `Π_{user,file}(UserGroup ⋈ GroupFile)`, one filter `σ_{user=uᵢ}` over
//! it per filtered user, and `scan Audit`.
//!
//! Every request is computed here, before any server starts, against an
//! in-memory oracle registry, so each solve target is live at its turn
//! and the server receives only the generated requests.

use crate::rng::Rng;
use dap_provenance::WitnessesAnn;
use dap_relalg::{
    schema, Database, PlanRegistry, Pred, Query, QueryId, Relation, Tid, Tuple, Value,
};
use dap_serve::SolveObjective;

pub const USERS: usize = 128;
pub const FILES: usize = 128;
pub const GROUPS: usize = 64;
/// Groups each user and each file belongs to.
pub const GROUPS_PER_MEMBER: usize = 16;
/// Per-user filters in the family (users `u0 … u14`).
pub const FILTERS: usize = 15;
/// Rows of `Audit`: more than `solve-hot` can commit in one epoch.
pub const AUDIT_ROWS: usize = 8_192;

/// `commit-stream`: deletions committed before the snapshot of the
/// prepared directory, and after it (the log tail recovery replays).
pub const PREFIX_COMMITS: usize = 64;
pub const TAIL_COMMITS: usize = 64;
/// `commit-stream`: commits per client per round.
pub const SLICE_COMMITS: usize = 120;
/// `commit-stream`: the targets per filter its solve tail runs on (every
/// filter), and the passes over them after the round's commits, each
/// solving every target with both objectives.
pub const TAIL_TARGETS: usize = 8;
pub const TAIL_PASSES: usize = 2;

/// `solve-hot`: the hot set, three quarters on the core and the rest over
/// the filters, well inside the 256 indexes each `DeletionContext` keeps
/// warm. Most of it on the core keeps each objective's median inside the
/// core's mode rather than between the core's and the filters'.
pub const HOT_CORE: usize = 96;
pub const HOT_FILTER: usize = 32;
/// `solve-hot`: passes over the hot set per round, and one commit after
/// every `SOLVES_PER_COMMIT` solves.
pub const HOT_PASSES: usize = 2;
pub const SOLVES_PER_COMMIT: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    CommitStream,
    SolveHot,
    PaperBatch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CommitStream, Kind::SolveHot, Kind::PaperBatch];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CommitStream => "commit-stream",
            Kind::SolveHot => "solve-hot",
            Kind::PaperBatch => "paper-batch",
        }
    }

    pub fn salt(self) -> u64 {
        match self {
            Kind::CommitStream => 0xc0,
            Kind::SolveHot => 0x5e,
            Kind::PaperBatch => 0xba,
        }
    }
}

/// One generated request. Queries are named by their index in
/// [`Workload::queries`], which is also their registration order.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    Delete(Tid),
    Solve {
        query: usize,
        objective: SolveObjective,
        target: Tuple,
    },
}

impl Op {
    pub fn is_commit(&self) -> bool {
        matches!(self, Op::Delete(_))
    }
}

/// A server workload: the database, the family, and the requests.
pub struct Workload {
    pub db: Database,
    pub queries: Vec<Query>,
    /// `commit-stream`: committed before the prepared directory's snapshot.
    pub prefix: Vec<Tid>,
    /// `commit-stream`: committed after it, left in the log.
    pub tail: Vec<Tid>,
    /// One closed-loop request stream per client for one round. On
    /// `commit-stream` each is a disjoint slice of deletions; on
    /// `solve-hot` the single stream's commits are placeholders that take
    /// the next `Audit` row (see [`Workload::solve_hot_round`]).
    pub streams: Vec<Vec<Op>>,
    /// Solves after the round's commits (`commit-stream`), preceded by
    /// one untimed warm-up per query in [`Workload::warmups`].
    pub solve_tail: Vec<Op>,
    /// Warm-up solves, `(query, target)`: every hot target of
    /// `solve-hot`, or one per solve-tail query of `commit-stream`.
    pub warmups: Vec<(usize, Tuple)>,
}

fn user(u: usize) -> Value {
    Value::str(format!("u{u}"))
}

/// The seeded database: every user and every file is in exactly
/// [`GROUPS_PER_MEMBER`] random groups.
pub fn database(seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut ug = Vec::new();
    for u in 0..USERS {
        for g in rng.sample(GROUPS, GROUPS_PER_MEMBER) {
            ug.push(Tuple::new([user(u), Value::str(format!("g{g}"))]));
        }
    }
    let mut gf = Vec::new();
    for f in 0..FILES {
        for g in rng.sample(GROUPS, GROUPS_PER_MEMBER) {
            gf.push(Tuple::new([
                Value::str(format!("g{g}")),
                Value::str(format!("f{f}")),
            ]));
        }
    }
    let audit = (0..AUDIT_ROWS)
        .map(|i| Tuple::new([Value::str(format!("a{i}")), user(rng.below(USERS))]))
        .collect::<Vec<_>>();
    Database::from_relations(vec![
        Relation::new("UserGroup", schema(["user", "grp"]), ug).expect("arity"),
        Relation::new("GroupFile", schema(["grp", "file"]), gf).expect("arity"),
        Relation::new("Audit", schema(["entry", "user"]), audit).expect("arity"),
    ])
    .expect("distinct relation names")
}

/// The standing family: the core, one filter per user `u0 … u14`, and
/// `scan Audit`.
pub fn queries() -> Vec<Query> {
    let core = Query::scan("UserGroup")
        .join(Query::scan("GroupFile"))
        .project(["user", "file"]);
    let mut qs = vec![core.clone()];
    for i in 0..FILTERS {
        qs.push(core.clone().select(Pred::attr_eq_const("user", user(i))));
    }
    qs.push(Query::scan("Audit"));
    qs
}

/// An in-memory registry holding the family, in registration order — the
/// oracle every stream is generated and checked against.
pub fn oracle_registry(
    db: &Database,
    queries: &[Query],
) -> (PlanRegistry<WitnessesAnn>, Vec<QueryId>) {
    let mut reg = PlanRegistry::new(db);
    let ids = queries
        .iter()
        .map(|q| reg.register(q).expect("the family registers"))
        .collect();
    (reg, ids)
}

/// Even turns solve with the source objective, odd turns with the view
/// objective.
pub fn objective(n: usize) -> SolveObjective {
    if n.is_multiple_of(2) {
        SolveObjective::Source
    } else {
        SolveObjective::View
    }
}

/// Witnesses a solve target may have, at most. The ILP's effort grows
/// steeply with a target's witness count — on the core view a target
/// with 8 or 9 witnesses takes 5 to 40 times the median one — and a single
/// such target would dominate a round, so targets are drawn below this
/// fixed ceiling. The count is a property of the data alone: what a
/// row's witnesses are is fixed by the instance, whatever code computes
/// them (and the oracle checks the server's against the registry's).
pub const MAX_TARGET_WITNESSES: usize = 6;

/// `k` distinct rows of query `q`'s live view, stratified by witness
/// count: the rows with at most [`MAX_TARGET_WITNESSES`] witnesses are
/// sorted by their number of witnesses and one is drawn at random from
/// each of `k` equal slices, so every seed's sample has the same spread
/// of witness counts. Nothing of the program under test but the oracle
/// registry's view is consulted, so a change to a solver never changes
/// the targets.
fn stratified(
    rng: &mut Rng,
    reg: &PlanRegistry<WitnessesAnn>,
    ids: &[QueryId],
    q: usize,
    k: usize,
) -> Vec<Tuple> {
    let mut rows: Vec<(usize, Tuple)> = reg
        .iter_query(ids[q])
        .map(|(t, w)| (w.0.len(), t.clone()))
        .filter(|(w, _)| *w <= MAX_TARGET_WITNESSES)
        .collect();
    rows.sort();
    let n = rows.len();
    assert!(
        n >= k,
        "view q{q} has {n} rows of few enough witnesses, fewer than {k}"
    );
    (0..k)
        .map(|i| {
            let (lo, hi) = (i * n / k, (i + 1) * n / k);
            rows[lo + rng.below(hi - lo)].1.clone()
        })
        .collect()
}

/// The `Audit` row committed as the `i`-th commit of an epoch.
pub fn audit_tid(i: usize) -> Tid {
    Tid::new("Audit", i)
}

pub fn generate(kind: Kind, seed: u64) -> Workload {
    let db = database(seed);
    let queries = queries();
    let (mut reg, ids) = oracle_registry(&db, &queries);
    let mut rng = Rng::new(seed.rotate_left(17) ^ kind.salt());
    let mut w = Workload {
        db,
        queries,
        prefix: Vec::new(),
        tail: Vec::new(),
        streams: Vec::new(),
        solve_tail: Vec::new(),
        warmups: Vec::new(),
    };
    match kind {
        Kind::CommitStream => {
            let mut tids: Vec<Tid> =
                w.db.all_tids()
                    .filter(|t| t.rel.as_str() != "Audit")
                    .collect();
            rng.shuffle(&mut tids);
            let mut next = tids.into_iter();
            w.prefix = next.by_ref().take(PREFIX_COMMITS).collect();
            w.tail = next.by_ref().take(TAIL_COMMITS).collect();
            w.streams = (0..2)
                .map(|_| next.by_ref().take(SLICE_COMMITS).map(Op::Delete).collect())
                .collect();
            // The solve tail runs after both slices are committed,
            // whatever their interleaving: its targets are live in the
            // final state.
            let all: Vec<Tid> = w
                .prefix
                .iter()
                .chain(&w.tail)
                .cloned()
                .chain(w.streams.iter().flatten().map(|op| match op {
                    Op::Delete(t) => t.clone(),
                    Op::Solve { .. } => unreachable!("slices only commit"),
                }))
                .collect();
            reg.delete_sources(&all);
            let mut targets = Vec::new();
            for q in 1..=FILTERS {
                let rows = stratified(&mut rng, &reg, &ids, q, TAIL_TARGETS + 1);
                w.warmups.push((q, rows[0].clone()));
                targets.extend(rows[1..].iter().map(|t| (q, t.clone())));
            }
            for _ in 0..TAIL_PASSES {
                for (q, target) in &targets {
                    for n in 0..2 {
                        w.solve_tail.push(Op::Solve {
                            query: *q,
                            objective: objective(n),
                            target: target.clone(),
                        });
                    }
                }
            }
        }
        Kind::SolveHot => {
            // Nothing but `Audit` is ever committed, so every hot target
            // stays live and its work stays the same.
            let mut hot: Vec<(usize, Tuple)> = stratified(&mut rng, &reg, &ids, 0, HOT_CORE)
                .into_iter()
                .map(|t| (0, t))
                .collect();
            let per_filter = HOT_FILTER.div_ceil(FILTERS);
            for q in 1..=FILTERS {
                for t in stratified(&mut rng, &reg, &ids, q, per_filter) {
                    if hot.len() < HOT_CORE + HOT_FILTER {
                        hot.push((q, t));
                    }
                }
            }
            // Every round solves every hot target HOT_PASSES times with
            // each objective, in a seeded order, committing after every
            // SOLVES_PER_COMMIT solves.
            let mut solves = Vec::new();
            for _ in 0..HOT_PASSES {
                let mut pass: Vec<Op> = hot
                    .iter()
                    .flat_map(|(query, target)| {
                        (0..2).map(|n| Op::Solve {
                            query: *query,
                            objective: objective(n),
                            target: target.clone(),
                        })
                    })
                    .collect();
                rng.shuffle(&mut pass);
                solves.append(&mut pass);
            }
            let mut stream = Vec::new();
            for (i, op) in solves.into_iter().enumerate() {
                stream.push(op);
                if i % SOLVES_PER_COMMIT == SOLVES_PER_COMMIT - 1 {
                    stream.push(Op::Delete(audit_tid(0)));
                }
            }
            w.streams = vec![stream];
            w.warmups = hot;
        }
        Kind::PaperBatch => unreachable!("paper-batch has no server workload"),
    }
    w
}

impl Workload {
    /// `solve-hot` round `r` of an epoch: the same solves every round,
    /// its commits taking the next unused `Audit` rows.
    pub fn solve_hot_round(&self, r: usize) -> Vec<Op> {
        let mut k = r * self.commits_per_round();
        self.streams[0]
            .iter()
            .map(|op| match op {
                Op::Delete(_) => {
                    k += 1;
                    Op::Delete(audit_tid(k - 1))
                }
                solve => solve.clone(),
            })
            .collect()
    }

    fn commits_per_round(&self) -> usize {
        self.streams[0].iter().filter(|op| op.is_commit()).count()
    }

    /// Rounds of `solve-hot` one epoch can make before `Audit` runs out.
    pub fn max_rounds(&self) -> usize {
        AUDIT_ROWS / self.commits_per_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in [Kind::CommitStream, Kind::SolveHot] {
            let a = generate(kind, 7);
            let b = generate(kind, 7);
            assert_eq!(a.db, b.db);
            assert_eq!(a.streams, b.streams);
            assert_eq!(a.solve_tail, b.solve_tail);
            assert_eq!(a.warmups, b.warmups);
            assert_eq!((a.prefix, a.tail), (b.prefix, b.tail));
            let c = generate(kind, 8);
            assert_ne!(a.streams, c.streams, "{} ignores its seed", kind.name());
        }
    }

    #[test]
    fn witness_counts_vary() {
        let db = database(3);
        let (reg, ids) = oracle_registry(&db, &queries());
        let counts: std::collections::BTreeSet<usize> =
            reg.iter_query(ids[0]).map(|(_, w)| w.0.len()).collect();
        assert!(counts.len() >= 3, "witness counts {counts:?}");
    }

    #[test]
    fn targets_stay_under_the_witness_ceiling() {
        for kind in [Kind::CommitStream, Kind::SolveHot] {
            let w = generate(kind, 13);
            let (mut reg, ids) = oracle_registry(&w.db, &w.queries);
            // commit-stream draws its targets after all its deletions.
            let deleted: Vec<Tid> = w.prefix.iter().chain(&w.tail).cloned().collect();
            reg.delete_sources(&deleted);
            for op in w.streams.iter().flatten() {
                if let Op::Delete(tid) = op {
                    if kind == Kind::CommitStream {
                        reg.delete_sources(std::slice::from_ref(tid));
                    }
                }
            }
            let tail = w.solve_tail.iter().map(|op| match op {
                Op::Solve { query, target, .. } => (*query, target.clone()),
                Op::Delete(_) => unreachable!("the tail only solves"),
            });
            for (q, t) in w.warmups.iter().cloned().chain(tail) {
                let witnesses = reg
                    .iter_query(ids[q])
                    .find(|(row, _)| **row == t)
                    .map(|(_, ws)| ws.0.len())
                    .expect("a live target");
                assert!(witnesses <= MAX_TARGET_WITNESSES, "{t} has {witnesses}");
            }
        }
    }

    /// Replays `ops` against `reg` and checks that every solve target is
    /// in its view at its turn.
    fn assert_live(reg: &mut PlanRegistry<WitnessesAnn>, ids: &[QueryId], ops: &[Op]) {
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Delete(tid) => {
                    reg.delete_sources(std::slice::from_ref(tid));
                }
                Op::Solve { query, target, .. } => {
                    assert!(reg.contains(ids[*query], target), "dead target at turn {i}");
                }
            }
        }
    }

    #[test]
    fn commit_stream_targets_are_live_and_slices_disjoint() {
        let w = generate(Kind::CommitStream, 11);
        let (mut reg, ids) = oracle_registry(&w.db, &w.queries);
        let mut seen = std::collections::BTreeSet::new();
        for tid in w.prefix.iter().chain(&w.tail) {
            assert!(seen.insert(tid.clone()), "{tid} committed twice");
        }
        for op in w.streams.iter().flatten() {
            let Op::Delete(tid) = op else {
                panic!("slices only commit")
            };
            assert!(seen.insert(tid.clone()), "{tid} committed twice");
        }
        let all: Vec<Tid> = seen.into_iter().collect();
        reg.delete_sources(&all);
        for (q, t) in &w.warmups {
            assert!(reg.contains(ids[*q], t), "dead warm-up target");
        }
        assert_live(&mut reg, &ids, &w.solve_tail);
        assert_eq!(w.solve_tail.len(), 2 * TAIL_PASSES * TAIL_TARGETS * FILTERS);
    }

    #[test]
    fn solve_hot_targets_stay_live_in_every_round() {
        let w = generate(Kind::SolveHot, 11);
        let (mut reg, ids) = oracle_registry(&w.db, &w.queries);
        for (q, t) in &w.warmups {
            assert!(reg.contains(ids[*q], t), "dead warm-up target");
        }
        for r in [0, 1, w.max_rounds() - 1] {
            let ops = w.solve_hot_round(r);
            let solves = 2 * HOT_PASSES * (HOT_CORE + HOT_FILTER);
            assert_eq!(ops.len() - solves, solves / SOLVES_PER_COMMIT);
            assert_live(&mut reg, &ids, &ops);
        }
        // Every round sends the same solves.
        let solves = |r| -> Vec<Op> {
            w.solve_hot_round(r)
                .into_iter()
                .filter(|op| !op.is_commit())
                .collect()
        };
        assert_eq!(solves(0), solves(5));
        assert_ne!(w.solve_hot_round(0), w.solve_hot_round(1));
    }
}
