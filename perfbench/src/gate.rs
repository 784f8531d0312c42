//! The verdict gate: every served verdict is compared with an in-process
//! `CqaEngine::certain` reference, computed outside the timed window. A
//! single mismatch fails the run.

use crate::inputs::Plan;
use crate::served::{Op, OpKind};
use cqa::{CqaEngine, EngineConfig};
use cqa_model::Database;
use cqa_query::parse_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// The engine configuration `cqa serve` answers with (one solver thread
/// per request).
pub fn engine_config() -> EngineConfig {
    EngineConfig::default().with_threads(1)
}

/// `db ⊨ certain(query)` by a fresh engine.
fn reference(db: &Database, query: &str) -> bool {
    let q = parse_query(query).expect("generated queries parse");
    CqaEngine::with_config(q, engine_config())
        .certain(db)
        .certain
}

/// Gate outcome.
#[derive(Default)]
pub struct Gate {
    /// Verdicts compared.
    pub checked: usize,
    /// Reads of the updated database whose epoch range was not sampled.
    pub unchecked: usize,
    /// Descriptions of the mismatches.
    pub mismatches: Vec<String>,
    /// Facts in the updated database before the set-up update and at the
    /// final epoch.
    pub facts: (usize, usize),
}

impl Gate {
    fn expect(&mut self, what: impl FnOnce() -> String, got: bool, allowed: &[bool]) {
        self.checked += 1;
        if !allowed.contains(&got) {
            self.mismatches
                .push(format!("{}: served {got}, reference {allowed:?}", what()));
        }
    }
}

/// Apply script `text` to `db` exactly as the server's `update` does.
fn apply(db: &mut Database, text: &str) {
    let script = cqa_server::parse_delta_script(text).expect("generated scripts parse");
    db.apply_delta(&script.inserts, &script.retracts)
        .expect("generated scripts match the signature");
}

fn describe(plan: &Plan, p: usize) -> String {
    let pair = &plan.pairs[p];
    format!("{} / {}", plan.dbs[pair.db].label, pair.query)
}

/// Check a run: the priming reads, every window read, and the updated
/// database's final epoch.
///
/// Pairs on databases that are never updated have one reference per
/// (database, query shape).
/// For the updated database, epoch `e` is its state after the set-up
/// update and `e` successful window updates. A read sent at `s` and
/// answered at `t` may have seen any epoch from the number of updates
/// answered before `s` to the number sent before `t`; its verdict must
/// equal the reference at one of them. References are computed at the
/// final epoch and at four seeded pairs of adjacent earlier epochs (while
/// an update is in flight nearly every read spans two); reads whose range
/// is not covered are counted as unchecked.
pub fn check(
    plan: &Plan,
    primed: &[(usize, bool)],
    ops: &[Op],
    final_verdicts: &[Result<bool, &str>],
    seed: u64,
    threads: usize,
) -> Gate {
    let mut gate = Gate::default();
    let target = plan.writes.db;
    let reads: Vec<(usize, bool, &Op)> = ops
        .iter()
        .filter_map(|o| match (o.kind, o.outcome) {
            (OpKind::Read(p), Ok(Some(v))) => Some((p, v, o)),
            _ => None,
        })
        .collect();

    // Fixed references: primed pairs (asked before any update) and reads
    // of databases that are never updated. One per (database, shape):
    // renamed variants of a shape are the same query up to variable
    // names, so they share its verdict.
    let key = |p: usize| (plan.pairs[p].db, plan.pairs[p].shape.as_str());
    let fixed: BTreeSet<(usize, &str)> = primed
        .iter()
        .map(|&(p, _)| p)
        .chain(
            reads
                .iter()
                .map(|&(p, _, _)| p)
                .filter(|&p| plan.pairs[p].db != target),
        )
        .map(key)
        .collect();
    let list: Vec<(usize, &str)> = fixed.into_iter().collect();
    let verdicts = minipool::par_map(threads, &list, |&(d, shape)| {
        reference(&plan.dbs[d].db, shape)
    });
    let fixed: BTreeMap<(usize, &str), bool> = list.into_iter().zip(verdicts).collect();
    for &(p, v) in primed {
        gate.expect(
            || format!("priming, {}", describe(plan, p)),
            v,
            &[fixed[&key(p)]],
        );
    }

    // Epochs of the updated database. Scripts are sent in order and a
    // failed update applies nothing, so the successful ones define them.
    let writes: Vec<(usize, &Op)> = ops
        .iter()
        .filter_map(|o| match (o.kind, o.outcome) {
            (OpKind::Write(i), Ok(_)) => Some((i, o)),
            _ => None,
        })
        .collect();
    let n = writes.len();
    let mut rng = StdRng::seed_from_u64(cqa_workloads::derive_seed(seed, 77, 0));
    let mut order: Vec<usize> = (0..n).collect();
    crate::inputs::shuffle(&mut rng, &mut order);
    let mut sampled: BTreeSet<usize> = BTreeSet::from([n]);
    for &e in order.iter().take(4) {
        sampled.extend([e, e + 1]);
    }
    let asked: Vec<&str> = reads
        .iter()
        .filter(|&&(p, _, _)| plan.pairs[p].db == target)
        .map(|&(p, _, _)| plan.pairs[p].query.as_str())
        .chain(plan.writes.queries.iter().map(String::as_str))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut db = plan.dbs[target].db.clone();
    if let Some(first) = &plan.writes.first {
        apply(&mut db, &first.text);
    }
    let mut epochs: BTreeMap<usize, BTreeMap<&str, bool>> = BTreeMap::new();
    for e in 0..=n {
        if sampled.contains(&e) {
            let verdicts = minipool::par_map(threads, &asked, |q| reference(&db, q));
            epochs.insert(e, asked.iter().copied().zip(verdicts).collect());
        }
        if let Some(&(i, _)) = writes.get(e) {
            apply(&mut db, &plan.writes.scripts[i].text);
        }
    }

    gate.facts = (plan.dbs[target].db.len(), db.len());

    for (p, v, op) in reads {
        if plan.pairs[p].db != target {
            gate.expect(|| describe(plan, p), v, &[fixed[&key(p)]]);
            continue;
        }
        let lo = writes.iter().filter(|(_, w)| w.end < op.start).count();
        let hi = writes.iter().filter(|(_, w)| w.start < op.end).count();
        if (lo..=hi).all(|e| epochs.contains_key(&e)) {
            let q = plan.pairs[p].query.as_str();
            let allowed: Vec<bool> = (lo..=hi).map(|e| epochs[&e][q]).collect();
            gate.expect(
                || format!("epochs {lo}..={hi}, {}", describe(plan, p)),
                v,
                &allowed,
            );
        } else {
            gate.unchecked += 1;
        }
    }
    for (q, got) in plan.writes.queries.iter().zip(final_verdicts) {
        match got {
            Ok(v) => gate.expect(
                || format!("final epoch {n}, {q}"),
                *v,
                &[epochs[&n][q.as_str()]],
            ),
            Err(code) => gate
                .mismatches
                .push(format!("final epoch read {q} failed: {code}")),
        }
    }
    gate
}
