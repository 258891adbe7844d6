//! `paper-batch`: a fixed, seeded batch of one-shot problems, one family
//! per dichotomy class, sent in-process through `dap_core`'s public entry
//! points on one calling thread (the batched forms fan out on the default
//! `ParPool`). No server, no disk.
//!
//! Per deletion family (SPU, SJ, PJ, JU, chain) a round solves every
//! target once with `delete_min_view_side_effects` and once with
//! `delete_min_source`, then all targets at once with both
//! `_many_with` forms. Per placement family (SPU, SJU, PJ) it places every
//! target with `place_annotation`, then all at once with
//! `place_annotations_with`. After the timed problems, the round
//! "restarts" (rebuilds every deletion family's maintained view in a
//! fresh `PlanRegistry`) and "commits" (runs each deletion family's
//! targets through the apply-and-re-solve loop, which commits every
//! answer into its maintained context, and appends the answers to an
//! in-memory commit log), so the commit, restart and disk metrics have an
//! in-process reading here too.

use crate::rng::Rng;
use crate::trace::Tracer;
use dap_core::{
    delete_min_source, delete_min_source_many_with, delete_min_view_side_effects,
    delete_min_view_side_effects_apply_many, delete_min_view_side_effects_many_with,
    place_annotation, place_annotations_with, Deletion, IlpOptions, ParPool, Placement,
};
use dap_durability::{CommitLog, FsyncMode, LogRecord, MemLog};
use dap_provenance::{where_provenance, ViewLoc, WitnessesAnn};
use dap_relalg::{
    eval, parse_database, parse_query, schema, Database, PlanRegistry, Query, Relation, Tid, Tuple,
    Value,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// Targets per family.
pub const TARGETS: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    Spu,
    Sj,
    Pj,
    Ju,
    Chain,
    PlaceSpu,
    PlaceSju,
    PlacePj,
}

impl Shape {
    pub const ALL: [Shape; 8] = [
        Shape::Spu,
        Shape::Sj,
        Shape::Pj,
        Shape::Ju,
        Shape::Chain,
        Shape::PlaceSpu,
        Shape::PlaceSju,
        Shape::PlacePj,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Spu => "spu",
            Shape::Sj => "sj",
            Shape::Pj => "pj",
            Shape::Ju => "ju",
            Shape::Chain => "chain",
            Shape::PlaceSpu => "place-spu",
            Shape::PlaceSju => "place-sju",
            Shape::PlacePj => "place-pj",
        }
    }

    pub fn is_placement(self) -> bool {
        matches!(self, Shape::PlaceSpu | Shape::PlaceSju | Shape::PlacePj)
    }

    /// The names of the spans around this family's single-target calls:
    /// view objective, source objective (both the same for placements).
    pub fn span_names(self) -> (&'static str, &'static str) {
        match self {
            Shape::Spu => ("core.spu", "core.spu"),
            Shape::Sj => ("core.sj", "core.sj"),
            Shape::Pj => ("core.pj_view", "core.pj_source"),
            Shape::Ju => ("core.ju", "core.ju"),
            Shape::Chain => ("core.chain_view", "core.chain_source"),
            Shape::PlaceSpu | Shape::PlaceSju | Shape::PlacePj => {
                ("core.placement", "core.placement")
            }
        }
    }

    /// The annotated attribute of a placement family.
    fn attr(self) -> &'static str {
        match self {
            Shape::PlacePj => "user",
            _ => "A",
        }
    }
}

/// One family as text: what set-up parses.
pub struct Spec {
    pub shape: Shape,
    pub fixture: String,
    pub query: String,
    pub targets: Vec<Tuple>,
}

/// One family parsed and ready to solve.
pub struct Family {
    pub shape: Shape,
    pub db: Database,
    pub q: Query,
    pub targets: Vec<Tuple>,
}

impl Family {
    pub fn locs(&self) -> Vec<ViewLoc> {
        self.targets
            .iter()
            .map(|t| ViewLoc::new(t.clone(), self.shape.attr()))
            .collect()
    }
}

fn rel(name: &str, cols: [&str; 2], rows: Vec<Tuple>) -> Relation {
    Relation::new(name, schema(cols), rows).expect("arity")
}

fn pair(a: String, b: String) -> Tuple {
    Tuple::new([Value::str(a), Value::str(b)])
}

/// `n` rows `(<a>{i}, <b>{random below domain})`.
fn keyed_rows(rng: &mut Rng, a: &str, b: &str, n: usize, domain: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| pair(format!("{a}{i}"), format!("{b}{}", rng.below(domain))))
        .collect()
}

/// `n` rows of two random values.
fn random_rows(rng: &mut Rng, n: usize, da: usize, db: usize, tag: [&str; 2]) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            pair(
                format!("{}{}", tag[0], rng.below(da)),
                format!("{}{}", tag[1], rng.below(db)),
            )
        })
        .collect()
}

/// The user/group/file shape: every user and file in `per` of `groups`.
fn user_group_file(
    rng: &mut Rng,
    users: usize,
    groups: usize,
    files: usize,
    per: usize,
) -> Database {
    let mut ug = Vec::new();
    for u in 0..users {
        for g in rng.sample(groups, per) {
            ug.push(pair(format!("u{u}"), format!("g{g}")));
        }
    }
    let mut gf = Vec::new();
    for f in 0..files {
        for g in rng.sample(groups, per) {
            gf.push(pair(format!("g{g}"), format!("f{f}")));
        }
    }
    Database::from_relations(vec![
        rel("UserGroup", ["user", "grp"], ug),
        rel("GroupFile", ["grp", "file"], gf),
    ])
    .expect("names")
}

fn family_data(shape: Shape, rng: &mut Rng) -> (Database, Query) {
    match shape {
        Shape::Spu | Shape::PlaceSpu => {
            let n = if shape == Shape::Spu { 20_000 } else { 60_000 };
            let db = Database::from_relations(vec![
                rel("R", ["A", "B"], random_rows(rng, n, n / 4, 8, ["v", "v"])),
                rel("S", ["A", "B"], random_rows(rng, n, n / 4, 8, ["v", "v"])),
            ])
            .expect("names");
            let q = Query::scan("R")
                .select(dap_relalg::Pred::attr_eq_const("B", "v0"))
                .project(["A"])
                .union(Query::scan("S").project(["A"]));
            (db, q)
        }
        Shape::Sj => {
            let n = 400;
            let db = Database::from_relations(vec![
                rel("R", ["A", "B"], keyed_rows(rng, "a", "b", n, n / 3)),
                rel("S", ["B", "C"], {
                    let mut rows = keyed_rows(rng, "c", "b", n, n / 3);
                    for t in rows.iter_mut() {
                        *t = Tuple::new([t.values()[1].clone(), t.values()[0].clone()]);
                    }
                    rows
                }),
            ])
            .expect("names");
            (db, Query::scan("R").join(Query::scan("S")))
        }
        Shape::Pj | Shape::PlacePj => {
            let db = if shape == Shape::Pj {
                user_group_file(rng, 24, 12, 24, 4)
            } else {
                user_group_file(rng, 40, 12, 40, 4)
            };
            let q = Query::scan("UserGroup")
                .join(Query::scan("GroupFile"))
                .project(["user", "file"]);
            (db, q)
        }
        Shape::Ju | Shape::PlaceSju => {
            let n = if shape == Shape::Ju { 80 } else { 150 };
            let db = Database::from_relations(vec![
                rel(
                    "R",
                    ["A", "B"],
                    random_rows(rng, n, n / 2, n / 8, ["a", "b"]),
                ),
                rel(
                    "T",
                    ["A", "B"],
                    random_rows(rng, n, n / 2, n / 8, ["a", "b"]),
                ),
                rel(
                    "S",
                    ["B", "C"],
                    random_rows(rng, n, n / 8, n / 2, ["b", "c"]),
                ),
            ])
            .expect("names");
            let q = Query::scan("R")
                .join(Query::scan("S"))
                .union(Query::scan("T").join(Query::scan("S")));
            (db, q)
        }
        Shape::Chain => {
            let (layers, width) = (3, 64);
            let rels = (0..layers)
                .map(|l| {
                    let (a, b) = (format!("A{l}"), format!("A{}", l + 1));
                    Relation::new(
                        format!("R{}", l + 1),
                        schema([a.as_str(), b.as_str()]),
                        random_rows(rng, width, width / 2, width / 2, ["v", "v"]),
                    )
                    .expect("arity")
                })
                .collect::<Vec<_>>();
            let db = Database::from_relations(rels).expect("names");
            let q = Query::join_all((0..layers).map(|l| Query::scan(format!("R{}", l + 1))))
                .project(["A0".to_string(), format!("A{layers}")]);
            (db, q)
        }
    }
}

/// The batch for `seed`: every family's fixture and query as text, and
/// its targets (distinct live view tuples).
pub fn generate(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed.rotate_left(23) ^ crate::workload::Kind::PaperBatch.salt());
    Shape::ALL
        .iter()
        .map(|&shape| {
            let (db, q) = family_data(shape, &mut rng);
            let mut view = eval(&q, &db).expect("the family evaluates").tuples;
            view.sort();
            let targets = rng
                .sample(view.len(), TARGETS.min(view.len()))
                .into_iter()
                .map(|i| view[i].clone())
                .collect();
            Spec {
                shape,
                fixture: db.to_fixture_string(),
                query: q.to_string(),
                targets,
            }
        })
        .collect()
}

/// Set-up: parse every family's fixture and query.
pub fn parse(specs: &[Spec]) -> Result<Vec<Family>, String> {
    specs
        .iter()
        .map(|s| {
            Ok(Family {
                shape: s.shape,
                db: parse_database(&s.fixture).map_err(|e| format!("{}: {e}", s.shape.name()))?,
                q: parse_query(&s.query).map_err(|e| format!("{}: {e}", s.shape.name()))?,
                targets: s.targets.clone(),
            })
        })
        .collect()
}

/// Every answer of one round, per family (in [`Shape::ALL`] order).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Answers {
    pub view: Vec<Deletion>,
    pub source: Vec<Deletion>,
    pub view_many: Vec<Deletion>,
    pub source_many: Vec<Deletion>,
    pub placed: Vec<Placement>,
    pub placed_many: Vec<Placement>,
}

/// The costs of every answer, in order: what must repeat from round to
/// round (the answers themselves may differ among equal-cost optima).
fn costs(a: &Answers) -> Vec<usize> {
    let view = a.view.iter().chain(&a.view_many).map(Deletion::view_cost);
    let source = a
        .source
        .iter()
        .chain(&a.source_many)
        .map(Deletion::source_cost);
    let placed = a
        .placed
        .iter()
        .chain(&a.placed_many)
        .map(|p| p.side_effects.len());
    view.chain(source).chain(placed).collect()
}

pub fn same_costs(a: &Answers, b: &Answers) -> bool {
    costs(a) == costs(b)
}

/// The view costs of an apply-and-re-solve loop's answers.
pub fn applied_costs(applied: &Applied) -> Vec<Option<usize>> {
    applied
        .iter()
        .flatten()
        .map(|d| d.as_ref().map(Deletion::view_cost))
        .collect()
}

/// What one round measured.
pub struct RoundOut {
    /// The timed problems, start to end.
    pub seconds: f64,
    pub problems: usize,
    /// Per single-target call, ms.
    pub view_ms: Vec<f64>,
    pub source_ms: Vec<f64>,
    /// Per family: its share of `seconds`.
    pub family_s: Vec<f64>,
    pub answers: Vec<Answers>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Solve one family's problems, timing each call.
pub fn solve_family(
    f: &Family,
    pool: ParPool,
    view_ms: &mut Vec<f64>,
    source_ms: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Answers, usize), String> {
    let err = |e: dap_core::CoreError| format!("{}: {e}", f.shape.name());
    let (view_span, source_span) = f.shape.span_names();
    // Time one single-target call, in a span when tracing.
    let mut call = |name: &'static str, run: &mut dyn FnMut() -> Result<(), String>| {
        let span = tracer
            .as_mut()
            .map(|tr| tr.begin(name, None, (u32::MAX, 0)));
        let s = Instant::now();
        let out = run();
        let ms = ms_since(s);
        if let (Some(tr), Some(span)) = (tracer.as_mut(), span) {
            tr.end(span);
        }
        out.map(|()| ms)
    };
    let mut a = Answers::default();
    if f.shape.is_placement() {
        let locs = f.locs();
        for loc in &locs {
            call(view_span, &mut || {
                a.placed
                    .push(place_annotation(&f.q, &f.db, loc).map_err(err)?.0);
                Ok(())
            })?;
        }
        a.placed_many = place_annotations_with(&f.q, &f.db, &locs, pool)
            .map_err(err)?
            .0;
        return Ok((a, 2 * locs.len()));
    }
    for t in &f.targets {
        view_ms.push(call(view_span, &mut || {
            a.view
                .push(delete_min_view_side_effects(&f.q, &f.db, t).map_err(err)?.0);
            Ok(())
        })?);
        source_ms.push(call(source_span, &mut || {
            a.source
                .push(delete_min_source(&f.q, &f.db, t).map_err(err)?.0);
            Ok(())
        })?);
    }
    let firsts = |v: Vec<(Deletion, _)>| v.into_iter().map(|(d, _)| d).collect();
    a.view_many =
        firsts(delete_min_view_side_effects_many_with(&f.q, &f.db, &f.targets, pool).map_err(err)?);
    a.source_many =
        firsts(delete_min_source_many_with(&f.q, &f.db, &f.targets, pool).map_err(err)?);
    Ok((a, 4 * f.targets.len()))
}

/// One round of the whole batch.
pub fn run_round(batch: &[Family], pool: ParPool) -> Result<RoundOut, String> {
    let mut out = RoundOut {
        seconds: 0.0,
        problems: 0,
        view_ms: Vec::new(),
        source_ms: Vec::new(),
        family_s: Vec::new(),
        answers: Vec::new(),
    };
    let start = Instant::now();
    for f in batch {
        let t = Instant::now();
        let (answers, n) = solve_family(f, pool, &mut out.view_ms, &mut out.source_ms, None)?;
        out.family_s.push(t.elapsed().as_secs_f64());
        out.problems += n;
        out.answers.push(answers);
    }
    out.seconds = start.elapsed().as_secs_f64();
    Ok(out)
}

/// The apply-and-re-solve loops' answers, per deletion family, in target
/// order (`None` for a target an earlier commit already removed).
pub type Applied = Vec<Vec<Option<Deletion>>>;

/// What a round's in-process restart and commits measured.
pub struct CommitOut {
    /// Rebuilding every deletion family's maintained view.
    pub restart_s: f64,
    /// The apply-and-re-solve loops' time (solve, then commit into the
    /// maintained context) per target, over every deletion family, ms.
    /// One mean per round: which family's time is the median of five
    /// depends on the seed's instances, so a median over families does
    /// not repeat from seed to seed.
    pub commit_ms: f64,
    pub applied: Applied,
    /// Answers committed, and the bytes their WAL records take.
    pub commits: u64,
    pub log_bytes: u64,
}

/// Rebuild every deletion family's view in a fresh registry ("restart"),
/// then run each family's targets through the apply-and-re-solve loop
/// (`delete_min_view_side_effects_apply_many`: solve a target, commit its
/// deletion into the maintained context, solve the next one against the
/// updated view), and append every committed answer to an in-memory
/// commit log.
pub fn restart_and_commit(batch: &[Family]) -> Result<CommitOut, String> {
    let families: Vec<&Family> = batch.iter().filter(|f| !f.shape.is_placement()).collect();
    let start = Instant::now();
    for f in &families {
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&f.db);
        reg.register(&f.q)
            .map_err(|e| format!("{}: {e}", f.shape.name()))?;
        std::hint::black_box(reg);
    }
    let restart_s = start.elapsed().as_secs_f64();
    let (mem, _bytes) = MemLog::new();
    let mut log = CommitLog::new(Box::new(mem), FsyncMode::Never, 1);
    let mut out = CommitOut {
        restart_s,
        commit_ms: 0.0,
        applied: Vec::new(),
        commits: 0,
        log_bytes: 0,
    };
    let mut targets = 0;
    for f in families {
        let s = Instant::now();
        let applied = delete_min_view_side_effects_apply_many(&f.q, &f.db, &f.targets)
            .map_err(|e| format!("{}: {e}", f.shape.name()))?;
        out.commit_ms += ms_since(s);
        targets += f.targets.len();
        for d in applied.iter().flatten() {
            log.append(&LogRecord::Delete(d.deletions.iter().cloned().collect()))
                .map_err(|e| format!("log append: {e}"))?;
            out.commits += 1;
        }
        out.applied.push(applied);
    }
    out.commit_ms /= targets.max(1) as f64;
    out.log_bytes = log.offset();
    Ok(out)
}

/// Check the apply-and-re-solve loops' answers turn by turn: a target an
/// earlier commit removed must come back `None`; any other must have the
/// unified ILP's view cost over `db ∖ (earlier commits)` and, by
/// re-evaluation, remove the target with exactly its side effects.
pub fn check_applied(batch: &[Family], applied: &Applied) -> Result<usize, String> {
    let opts = IlpOptions::default();
    let mut checked = 0;
    let families = batch.iter().filter(|f| !f.shape.is_placement());
    for (f, answers) in families.zip(applied) {
        let name = f.shape.name();
        let mut removed = BTreeSet::new();
        for (t, answer) in f.targets.iter().zip(answers) {
            let db = without(&f.db, &removed)?;
            let live = eval(&f.q, &db).map_err(|e| e.to_string())?.contains(t);
            match (answer, live) {
                (None, false) => {}
                (Some(d), true) => {
                    let want = dap_core::ilp::min_view_side_effects_ilp(&f.q, &db, t, &opts)
                        .map_err(|e| format!("{name}: ilp: {e}"))?
                        .view_cost();
                    if d.view_cost() != want {
                        return Err(format!(
                            "{name} apply loop {t}: cost {}, the unified ILP's {want}",
                            d.view_cost()
                        ));
                    }
                    // The answer's tids name rows of the original instance.
                    let before: BTreeSet<Tuple> = eval(&f.q, &db)
                        .map_err(|e| e.to_string())?
                        .tuples
                        .into_iter()
                        .collect();
                    removed.extend(d.deletions.iter().cloned());
                    let after: BTreeSet<Tuple> = eval(&f.q, &without(&f.db, &removed)?)
                        .map_err(|e| e.to_string())?
                        .tuples
                        .into_iter()
                        .collect();
                    if after.contains(t) {
                        return Err(format!("{name} apply loop: {t} survives its deletion"));
                    }
                    let gone: BTreeSet<Tuple> = before
                        .difference(&after)
                        .filter(|r| *r != t)
                        .cloned()
                        .collect();
                    if gone != d.view_side_effects {
                        return Err(format!(
                            "{name} apply loop {t}: re-evaluation shows {} side effects, the answer {}",
                            gone.len(),
                            d.view_side_effects.len()
                        ));
                    }
                    checked += 1;
                }
                (a, live) => {
                    return Err(format!(
                        "{name} apply loop {t}: answered {} for a target that is {}",
                        if a.is_some() { "a deletion" } else { "nothing" },
                        if live { "live" } else { "gone" }
                    ))
                }
            }
        }
    }
    Ok(checked)
}

/// `db ∖ removed`.
fn without(db: &Database, removed: &BTreeSet<Tid>) -> Result<Database, String> {
    let rels = db.relations().map(|r| {
        let keep = r
            .tuples()
            .iter()
            .enumerate()
            .filter(|&(row, _)| !removed.contains(&Tid::new(r.name().as_str(), row)))
            .map(|(_, t)| t.clone())
            .collect::<Vec<_>>();
        Relation::new(r.name().as_str(), r.schema().clone(), keep)
    });
    Database::from_relations(
        rels.collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())
}

/// Re-evaluate the view over `db ∖ d.deletions`: the target must be gone,
/// and (`exact_effects`) the other rows gone must be exactly the
/// reported side effects.
fn check_by_reevaluation(
    f: &Family,
    t: &Tuple,
    d: &Deletion,
    exact_effects: bool,
) -> Result<(), String> {
    let before: BTreeSet<Tuple> = eval(&f.q, &f.db)
        .map_err(|e| e.to_string())?
        .tuples
        .into_iter()
        .collect();
    let after: BTreeSet<Tuple> = eval(&f.q, &without(&f.db, &d.deletions)?)
        .map_err(|e| e.to_string())?
        .tuples
        .into_iter()
        .collect();
    if after.contains(t) {
        return Err(format!("the deletions leave {t} in the view"));
    }
    let gone: BTreeSet<Tuple> = before
        .difference(&after)
        .filter(|r| *r != t)
        .cloned()
        .collect();
    if exact_effects && gone != d.view_side_effects {
        return Err(format!(
            "re-evaluation shows {} side effects, the answer {}",
            gone.len(),
            d.view_side_effects.len()
        ));
    }
    Ok(())
}

/// Check every answer of a round: each deletion's cost against the
/// unified ILP, and by re-evaluation; each placement against a
/// brute-force scan of the where-provenance. Returns how many answers
/// were checked, or the first mismatch.
pub fn check(batch: &[Family], answers: &[Answers]) -> Result<usize, String> {
    let opts = IlpOptions::default();
    let mut checked = 0;
    for (f, a) in batch.iter().zip(answers) {
        let name = f.shape.name();
        if f.shape.is_placement() {
            let wp = where_provenance(&f.q, &f.db).map_err(|e| e.to_string())?;
            for (i, loc) in f.locs().iter().enumerate() {
                let best = wp
                    .inverted()
                    .into_iter()
                    .filter(|(_, reached)| reached.contains(loc))
                    .map(|(_, reached)| reached.len() - 1)
                    .min()
                    .ok_or_else(|| format!("{name}: no source reaches {loc:?}"))?;
                for p in [&a.placed[i], &a.placed_many[i]] {
                    let mut reached = wp.reached_from(&p.source);
                    if !reached.remove(loc) {
                        return Err(format!("{name}: the placement does not reach its target"));
                    }
                    if reached != p.side_effects || reached.len() != best {
                        return Err(format!(
                            "{name}: placement side effects {}, the minimum is {best}",
                            p.side_effects.len()
                        ));
                    }
                    checked += 1;
                }
            }
            continue;
        }
        for (i, t) in f.targets.iter().enumerate() {
            let ilp_view = dap_core::ilp::min_view_side_effects_ilp(&f.q, &f.db, t, &opts)
                .map_err(|e| format!("{name}: ilp: {e}"))?;
            let ilp_source = dap_core::ilp::min_source_deletion_ilp(&f.q, &f.db, t, &opts)
                .map_err(|e| format!("{name}: ilp: {e}"))?;
            for (d, view) in [
                (&a.view[i], true),
                (&a.view_many[i], true),
                (&a.source[i], false),
                (&a.source_many[i], false),
            ] {
                let (got, want) = if view {
                    (d.view_cost(), ilp_view.view_cost())
                } else {
                    (d.source_cost(), ilp_source.source_cost())
                };
                if got != want {
                    let objective = if view { "view" } else { "source" };
                    return Err(format!(
                        "{name} {objective} {t}: cost {got}, the unified ILP's {want}"
                    ));
                }
                check_by_reevaluation(f, t, d, view).map_err(|e| format!("{name} {t}: {e}"))?;
                checked += 1;
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_targets_are_live() {
        let a = generate(5);
        let b = generate(5);
        let c = generate(6);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(
                (&x.fixture, &x.query, &x.targets),
                (&y.fixture, &y.query, &y.targets)
            );
            assert_eq!(x.targets.len(), TARGETS, "{}", x.shape.name());
            assert_ne!(x.fixture, z.fixture, "{} ignores its seed", x.shape.name());
        }
        for f in parse(&a).unwrap() {
            let view = eval(&f.q, &f.db).unwrap();
            for t in &f.targets {
                assert!(view.contains(t), "{}: dead target {t}", f.shape.name());
            }
        }
    }

    #[test]
    fn every_family_is_in_its_dichotomy_class() {
        use dap_core::{complexity, Complexity, Problem};
        use dap_relalg::OpFootprint;
        for f in parse(&generate(1)).unwrap() {
            let fp = OpFootprint::of(&f.q);
            let problem = if f.shape.is_placement() {
                Problem::AnnotationPlacement
            } else {
                Problem::ViewSideEffect
            };
            let hard = complexity(problem, &fp) == Complexity::NpHard;
            let want_hard = matches!(
                f.shape,
                Shape::Pj | Shape::Ju | Shape::Chain | Shape::PlacePj
            );
            assert_eq!(hard, want_hard, "{}", f.shape.name());
        }
    }
}
