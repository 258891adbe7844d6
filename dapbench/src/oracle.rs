//! The answer oracle of the server workloads, always on and outside every
//! timed region.
//!
//! * The recovered durable directory must equal an in-memory registry
//!   that applied the same commits (catalog, committed set, and every
//!   view's rows with their witness annotations).
//! * A solve answer's cost must equal the specialized dichotomy solver's
//!   cost over `db ∖ committed` — never an ILP-vs-ILP comparison — and
//!   its deletions, applied on top, must remove the target when the view
//!   is re-evaluated, with exactly the side effects the answer reports.

use crate::e2e::{Req, Sample};
use crate::rng::Rng;
use crate::workload::{oracle_registry, Op, Workload};
use dap_core::{delete_min_source, delete_min_view_side_effects};
use dap_durability::{recover_with, DurableOptions, FsyncMode};
use dap_provenance::WitnessesAnn;
use dap_relalg::{eval, Database, PlanRegistry, QueryId, Relation, Tid, Tuple, Value};
use dap_serve::SolveObjective;
use std::collections::BTreeSet;
use std::path::Path;

/// Solve answers checked per run.
pub const MAX_SOLVE_CHECKS: usize = 48;
/// Of those, at most this many on the core query (its checks evaluate
/// the whole join).
pub const MAX_CORE_CHECKS: usize = 2;

fn view_rows(reg: &PlanRegistry<WitnessesAnn>, id: QueryId) -> Vec<(Tuple, WitnessesAnn)> {
    let mut rows: Vec<(Tuple, WitnessesAnn)> = reg
        .iter_query(id)
        .map(|(t, a)| (t.clone(), a.clone()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Recover `dir` and compare it with the oracle registry after
/// `committed` (in commit order).
pub fn check_recovered(w: &Workload, dir: &Path, committed: &[Tid]) -> Result<(), String> {
    let opts = DurableOptions {
        fsync: FsyncMode::Never,
        snapshot_every: 0,
    };
    let (state, _) = recover_with(dir, opts).map_err(|e| format!("recover: {e}"))?;
    let (mut reg, ids) = oracle_registry(&w.db, &w.queries);
    for tid in committed {
        reg.delete_sources(std::slice::from_ref(tid));
    }
    let catalog: Vec<_> = state
        .catalog()
        .iter()
        .map(|(id, q)| (*id, q.clone()))
        .collect();
    let expected: Vec<_> = ids.iter().copied().zip(w.queries.iter().cloned()).collect();
    if catalog != expected {
        return Err("recovered catalog differs from the registered queries".into());
    }
    if state.registry().committed() != reg.committed() {
        return Err(format!(
            "recovered committed set has {} tuples, the oracle {}",
            state.registry().committed().len(),
            reg.committed().len()
        ));
    }
    for &id in &ids {
        if view_rows(state.registry(), id) != view_rows(&reg, id) {
            return Err(format!("recovered view {id} differs from the oracle"));
        }
    }
    Ok(())
}

/// `deletions=N side-effects=M [t1,t2,...]`.
pub fn parse_answer(body: &str) -> Option<(usize, usize, BTreeSet<Tid>)> {
    let (counts, list) = body.split_once(" [")?;
    let mut parts = counts.split(' ');
    let n = parts.next()?.strip_prefix("deletions=")?.parse().ok()?;
    let m = parts.next()?.strip_prefix("side-effects=")?.parse().ok()?;
    let tids = list
        .strip_suffix(']')?
        .split(',')
        .filter(|p| !p.is_empty())
        .map(dap_durability::log::parse_tid)
        .collect::<Result<BTreeSet<Tid>, _>>()
        .ok()?;
    Some((n, m, tids))
}

/// `db ∖ removed`, without `Audit` (no solved query reads it). For a
/// per-user filter query (`user`), the instance is further restricted to
/// that user's `UserGroup` rows: selection pushdown makes
/// `σ_user(Π(UserGroup ⋈ GroupFile))` identical over both instances,
/// witnesses included, so the solver's cost is the same and the check
/// stays cheap. Tuples are dropped by value, so tids in `removed` refer to
/// the original instance.
fn instance(
    w: &Workload,
    removed: &BTreeSet<Tid>,
    user: Option<&Value>,
) -> Result<Database, String> {
    let rels =
        w.db.relations()
            .filter(|r| r.name().as_str() != "Audit")
            .map(|r| {
                let keep = r.tuples().iter().enumerate().filter(|&(row, t)| {
                    let pushed_down = match user {
                        Some(u) if r.name().as_str() == "UserGroup" => &t.values()[0] == u,
                        _ => true,
                    };
                    pushed_down && !removed.contains(&Tid::new(r.name().as_str(), row))
                });
                Relation::new(
                    r.name().as_str(),
                    r.schema().clone(),
                    keep.map(|(_, t)| t.clone()).collect::<Vec<_>>(),
                )
            });
    Database::from_relations(
        rels.collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())
}

/// Check one answer over `db ∖ committed`.
fn check_at(
    w: &Workload,
    committed: &BTreeSet<Tid>,
    query: usize,
    objective: SolveObjective,
    target: &Tuple,
    body: &str,
) -> Result<(), String> {
    let (n, m, dels) = parse_answer(body).ok_or_else(|| format!("unparsable answer {body:?}"))?;
    let q = &w.queries[query];
    let user = (query > 0).then(|| target.values()[0].clone());
    let db = instance(w, committed, user.as_ref())?;
    let best = match objective {
        SolveObjective::View => delete_min_view_side_effects(q, &db, target),
        SolveObjective::Source => delete_min_source(q, &db, target),
    }
    .map_err(|e| format!("dichotomy solver: {e}"))?
    .0;
    let (got, want) = match objective {
        SolveObjective::View => (m, best.view_side_effects.len()),
        SolveObjective::Source => (n, best.deletions.len()),
    };
    if got != want {
        return Err(format!("cost {got}, the dichotomy solver's {want}"));
    }
    if dels.len() != n {
        return Err(format!("answer lists {} deletions, claims {n}", dels.len()));
    }
    if let Some(stale) = dels.iter().find(|d| committed.contains(d)) {
        return Err(format!("deletes {stale}, which is already committed"));
    }
    let before = eval(q, &db).map_err(|e| format!("eval: {e}"))?;
    if !before.contains(target) {
        return Err("target is not in the view".into());
    }
    let all: BTreeSet<Tid> = committed.union(&dels).cloned().collect();
    let after = eval(q, &instance(w, &all, user.as_ref())?).map_err(|e| format!("eval: {e}"))?;
    if after.contains(target) {
        return Err("the deletions leave the target in the view".into());
    }
    let side_effects = before.len() - after.len() - 1;
    if side_effects != m {
        return Err(format!(
            "re-evaluation shows {side_effects} side effects, answer says {m}"
        ));
    }
    Ok(())
}

/// `k` of `from` (all if fewer), seeded, in their original order.
fn pick<'a>(rng: &mut Rng, from: Vec<&'a Sample>, k: usize) -> Vec<&'a Sample> {
    let mut keep = rng.sample(from.len(), k.min(from.len()));
    keep.sort_unstable();
    keep.into_iter().map(|i| from[i]).collect()
}

/// Check a seeded sample of the solve answers among `samples`, all
/// computed over `db ∖ committed`: at most [`MAX_SOLVE_CHECKS`], of which
/// at most [`MAX_CORE_CHECKS`] on the core query. Returns how many were
/// checked, or the first mismatch.
pub fn check_solves(
    w: &Workload,
    samples: &[&Sample],
    committed: &BTreeSet<Tid>,
    seed: u64,
) -> Result<usize, String> {
    let solves = |core: bool| -> Vec<&Sample> {
        samples
            .iter()
            .copied()
            .filter(|s| {
                s.ok()
                    && matches!(&s.req, Req::Op(Op::Solve { query, .. }) if (*query == 0) == core)
            })
            .collect()
    };
    let mut rng = Rng::new(seed ^ 0x04ac1e);
    let core = pick(&mut rng, solves(true), MAX_CORE_CHECKS);
    let chosen: Vec<&Sample> = pick(&mut rng, solves(false), MAX_SOLVE_CHECKS - core.len())
        .into_iter()
        .chain(core)
        .collect();
    for s in &chosen {
        let Req::Op(Op::Solve {
            query,
            objective,
            target,
        }) = &s.req
        else {
            unreachable!("filtered to solves")
        };
        let body = s.outcome.as_ref().expect("filtered to ok answers");
        check_at(w, committed, *query, *objective, target, body).map_err(|e| {
            format!(
                "solve q{query} {objective} {target} (client {} seq {}): {e}",
                s.client, s.seq
            )
        })?;
    }
    Ok(chosen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse() {
        let (n, m, tids) =
            parse_answer("deletions=2 side-effects=5 [UserGroup#3,GroupFile#7]").unwrap();
        assert_eq!((n, m, tids.len()), (2, 5, 2));
        assert_eq!(
            parse_answer("deletions=0 side-effects=0 []")
                .unwrap()
                .2
                .len(),
            0
        );
        assert!(parse_answer("pong").is_none());
    }
}
