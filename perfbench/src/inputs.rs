//! Seeded workload inputs: fact files, (database, query) pairs, read
//! schedules and delta scripts.
//!
//! Everything is a deterministic function of `(workload, seed)` built
//! from the `cqa_workloads` generators, and none of it is timed. The
//! server only ever sees the fact files (loaded by path through its own
//! loader) and the request frames.

use cqa_model::Database;
use cqa_query::{examples, parse_query};
use cqa_workloads::{
    derive_seed, large_contested_q3_db, large_q3_db, q6_triangle_grid, random_delta_ops,
    render_delta_script, skewed_db, split_delta_ops, ContestedWorkloadConfig, DeltaLocality,
    DeltaScriptConfig, LargeWorkloadConfig, SkewFamily,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Duration;

/// Interval between the updates of the read-mostly workloads.
const WRITE_EVERY: Duration = Duration::from_millis(100);

/// The benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// First asks of (database, query) pairs: every read solves.
    ColdSolves,
    /// One live database: `update` scripts on one connection, `certain`
    /// reads on the other.
    LiveUpdates,
}

impl Workload {
    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_solves" => Some(Workload::ColdSolves),
            "live_updates" => Some(Workload::LiveUpdates),
            _ => None,
        }
    }

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolves => "cold_solves",
            Workload::LiveUpdates => "live_updates",
        }
    }
}

/// Binary-signature query shapes: Cert₂ (`q3`), `Cert_k`, trivial, Cert₂.
const BINARY: [&str; 4] = [
    "R(x | y) R(y | z)",
    "R(x | y) R(y | x)",
    "R(x | y) R(x | z)",
    "R(x | y) R(z | x)",
];

/// A generated database, already written to its fact file.
pub struct DbInput {
    /// Short name for reports.
    pub label: String,
    /// Absolute path of the fact file (the server's session key).
    pub path: String,
    /// The same database in memory, for the reference verdicts.
    pub db: Database,
}

/// One (database, query) pair a read asks about.
pub struct Pair {
    /// Index into [`Plan::dbs`].
    pub db: usize,
    /// Query text as sent on the wire.
    pub query: String,
    /// The shape `query` renames: the same query up to variable names,
    /// so the same verdict.
    pub shape: String,
}

/// How readers pick their next pair.
pub enum Reads {
    /// Each reader draws uniformly from these pairs, with its own seeded
    /// stream.
    Uniform(Vec<usize>),
    /// All readers share one cursor over this sequence; each pair is
    /// asked at most once.
    Once(Vec<usize>),
}

/// One delta script.
pub struct Script {
    /// `single`, `same-block` or `batch`.
    pub kind: &'static str,
    /// The script text, in the `update` grammar.
    pub text: String,
}

/// How a workload sends its updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// The last connection sends nothing but updates, back to back.
    Dedicated,
    /// The first connection sends one update per this interval of window
    /// time, between its reads, so the writes spread over the whole
    /// window and their count does not depend on throughput.
    Every(Duration),
}

/// The write side of a workload.
pub struct Writes {
    /// Index into [`Plan::dbs`] of the updated database.
    pub db: usize,
    /// Update applied during set-up (pays the one-time incremental-state
    /// build of the primed queries).
    pub first: Option<Script>,
    /// Updates sent during the run, in order.
    pub scripts: Vec<Script>,
    /// How the updates are sent.
    pub mode: WriteMode,
    /// Queries whose verdicts on the updated database are checked at the
    /// final epoch.
    pub queries: Vec<String>,
}

/// Everything one run sends.
pub struct Plan {
    /// Databases, loaded during set-up.
    pub dbs: Vec<DbInput>,
    /// Every pair a read may ask.
    pub pairs: Vec<Pair>,
    /// Pairs asked during set-up so the run's reads hit the cache.
    pub primed: Vec<usize>,
    /// The read schedule.
    pub reads: Reads,
    /// The write schedule.
    pub writes: Writes,
}

impl Plan {
    /// Total facts over all databases.
    pub fn facts(&self) -> usize {
        self.dbs.iter().map(|d| d.db.len()).sum()
    }
}

/// Rename every variable of `query` by appending `v{k}`: a distinct query
/// string (so a distinct cache entry) with the same shape and cost.
/// `k = 0` keeps the text.
pub fn rename(query: &str, k: usize) -> String {
    if k == 0 {
        return query.to_string();
    }
    let mut out = String::with_capacity(query.len() * 2);
    let mut ident = String::new();
    let flush = |ident: &mut String, out: &mut String, next: Option<char>| {
        if !ident.is_empty() {
            out.push_str(ident);
            // A word directly before '(' is a relation name.
            if next != Some('(') {
                out.push_str(&format!("v{k}"));
            }
            ident.clear();
        }
    };
    for c in query.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
        } else {
            flush(&mut ident, &mut out, Some(c));
            out.push(c);
        }
    }
    flush(&mut ident, &mut out, None);
    out
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Writes generated databases into `dir` and collects pairs.
struct Builder<'a> {
    dir: &'a Path,
    dbs: Vec<DbInput>,
    pairs: Vec<Pair>,
}

impl Builder<'_> {
    fn db(&mut self, label: String, db: Database) -> std::io::Result<usize> {
        let path = self.dir.join(format!("{label}.facts"));
        std::fs::write(&path, cqa_cli::dbfmt::write_database(&db))?;
        let path = path.to_str().expect("data paths are UTF-8").to_string();
        self.dbs.push(DbInput { label, path, db });
        Ok(self.dbs.len() - 1)
    }

    fn pairs(&mut self, db: usize, shapes: &[String], variants: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for shape in shapes {
            for k in 0..variants {
                self.pairs.push(Pair {
                    db,
                    query: rename(shape, k),
                    shape: shape.clone(),
                });
                out.push(self.pairs.len() - 1);
            }
        }
        out
    }
}

/// The query shapes the generated databases are built for, by family.
struct Shapes {
    binary: Vec<String>,
    ternary: Vec<String>,
    fork: Vec<String>,
    q7: Vec<String>,
}

fn shapes() -> Shapes {
    Shapes {
        binary: BINARY.iter().map(|s| s.to_string()).collect(),
        // q5 (`Cert_k`, Theorem 8.1) and q6 (¬matching, Theorem 10.4).
        ternary: vec![examples::q5().display(), examples::q6().display()],
        // q1, q2 (coNP-complete) and q4 (Theorem 6.1) share a signature.
        fork: vec![
            examples::q1().display(),
            examples::q2().display(),
            examples::q4().display(),
        ],
        q7: vec![examples::q7().display()],
    }
}

fn chain(facts: usize, seed: u64) -> Database {
    large_q3_db(&LargeWorkloadConfig {
        seed,
        threads: 1,
        ..LargeWorkloadConfig::new(facts)
    })
}

fn contested(facts: usize) -> Database {
    let cfg = ContestedWorkloadConfig {
        threads: 1,
        ..ContestedWorkloadConfig::new(facts, 4).with_certain_fraction(0.5)
    };
    large_contested_q3_db(&cfg)
}

fn skew(seed: u64, shape: &str, facts: usize) -> Database {
    let q = parse_query(shape).expect("built-in query shapes parse");
    skewed_db(seed, &q, &SkewFamily::MixedBatch.config(facts))
}

/// A growth-only single-fact insert, a same-block insert/retract mix
/// (forces a cold re-solve of the touched component), or a batch of 1% of
/// `base` facts, half inserts (same-block or fresh) and half retracts.
///
/// `state` is a sample of the facts the script will meet: keys and
/// retracts are drawn from it, and the script is applied to it, so the
/// next script's retracts name facts that are still resident and a batch
/// removes about as many facts as it adds.
fn script(kind: &'static str, seed: u64, state: &mut Database, base_facts: usize) -> Script {
    let cfg = match kind {
        "single" => DeltaScriptConfig {
            ops: 1,
            insert_ratio: 1.0,
            locality: DeltaLocality::CrossComponent,
            domain: 6,
        },
        "same-block" => DeltaScriptConfig {
            ops: 2,
            insert_ratio: 0.5,
            locality: DeltaLocality::SameBlock,
            domain: 6,
        },
        _ => DeltaScriptConfig {
            ops: (base_facts / 100).max(1),
            insert_ratio: 0.5,
            locality: DeltaLocality::Mixed,
            domain: 6,
        },
    };
    let ops = random_delta_ops(seed, state, &cfg);
    let (inserts, retracts) = split_delta_ops(&ops);
    state
        .apply_delta(&inserts, &retracts)
        .expect("generated scripts match the signature");
    Script {
        kind,
        text: render_delta_script(&ops, state.signature().key_len()),
    }
}

/// A few thousand resident facts of `db`, the starting `state` of
/// [`script`]: scripts draw their keys and retracts from it, so every
/// script is valid against `db` without scanning all of it per script.
fn sample_of(db: &Database, seed: u64) -> Database {
    let ids: Vec<_> = db.fact_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let picks = (0..ids.len().min(4000)).map(|_| ids[rng.gen_range(0..ids.len())]);
    db.restrict(picks)
}

/// Build the inputs of `workload` for `seed` into `dir`.
pub fn build(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Plan> {
    let mut b = Builder {
        dir,
        dbs: Vec::new(),
        pairs: Vec::new(),
    };
    let s = shapes();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0, 0));
    let plan = match workload {
        Workload::ColdSolves => {
            // Variants per shape: 16384 small pairs, a sequence of about
            // 16.7k reads, 70 s at the fastest rate this workload reached
            // on a 2-vCPU host (239 reads/s), so a server three times
            // faster still cannot exhaust it in a 20-s window (running out
            // fails the run).
            const VARIANTS: usize = 128;
            // One read in LARGE_EVERY goes to a ≥10⁵-fact database, so
            // p99 lands among the large-database solves.
            const LARGE_EVERY: usize = 50;
            let mut small = Vec::new();
            for i in 0..48u64 {
                // Each family gets the same eight sizes, spread over 2-5k
                // facts, at every seed: the seed changes contents and read
                // order, not the amount of work.
                let facts = 2000 + 3000 * (2 * (i as usize / 6) + 1) / 16;
                let seed_i = derive_seed(seed, 10, i);
                let (label, db, shapes) = match i % 6 {
                    0 => ("chain", chain(facts, seed_i), &s.binary),
                    1 => ("contested", contested(facts), &s.binary),
                    2 => ("grid", q6_triangle_grid(facts / 3), &s.ternary),
                    3 => ("ternary", skew(seed_i, &s.ternary[0], facts), &s.ternary),
                    4 => ("q7", skew(seed_i, &s.q7[0], facts), &s.q7),
                    _ => ("fork", skew(seed_i, &s.fork[0], facts), &s.fork),
                };
                let d = b.db(format!("small{i}-{label}"), db)?;
                small.extend(b.pairs(d, shapes, VARIANTS));
            }
            // Chains round whole components, so aim a little high to stay
            // at or above 10⁵ facts.
            let n = 100_500;
            let mut groups = Vec::new();
            let d = b.db("large-chain".into(), chain(n, derive_seed(seed, 11, 0)))?;
            groups.push((d, &s.binary));
            let d = b.db("large-contested".into(), contested(n))?;
            groups.push((d, &s.binary));
            let d = b.db("large-grid".into(), q6_triangle_grid(n / 3))?;
            groups.push((d, &s.ternary));
            // Large pairs go round-robin over (database, shape), so every
            // run's large reads have the same mix whatever its length.
            let mut by_shape: Vec<Vec<usize>> = Vec::new();
            for (d, shapes) in groups {
                for shape in shapes {
                    by_shape.push(b.pairs(d, std::slice::from_ref(shape), VARIANTS));
                }
            }
            let large: Vec<usize> = (0..VARIANTS)
                .flat_map(|k| by_shape.iter().map(move |g| g[k]))
                .collect();
            shuffle(&mut rng, &mut small);
            let (mut small, mut large) = (small.into_iter(), large.into_iter());
            let mut sequence = Vec::new();
            for slot in 1.. {
                let next = if slot % LARGE_EVERY == 0 {
                    large.next().or_else(|| small.next())
                } else {
                    small.next()
                };
                match next {
                    Some(p) => sequence.push(p),
                    None => break,
                }
            }
            let side_facts = 20_000;
            let side = b.db("side".into(), chain(side_facts, derive_seed(seed, 12, 0)))?;
            let mut state = sample_of(&b.dbs[side].db, derive_seed(seed, 13, 0));
            let scripts = (0..1000)
                .map(|i| script("single", derive_seed(seed, 14, i), &mut state, side_facts))
                .collect();
            let Builder { dbs, pairs, .. } = b;
            Plan {
                dbs,
                pairs,
                primed: Vec::new(),
                reads: Reads::Once(sequence),
                writes: Writes {
                    db: side,
                    first: None,
                    scripts,
                    mode: WriteMode::Every(WRITE_EVERY),
                    queries: s.binary.clone(),
                },
            }
        }
        Workload::LiveUpdates => {
            let n = 100_000;
            let live = b.db("live".into(), chain(n, derive_seed(seed, 20, 0)))?;
            let primed = b.pairs(live, &s.binary[..3], 1);
            let mut state = sample_of(&b.dbs[live].db, derive_seed(seed, 21, 0));
            let first = Some(script("single", derive_seed(seed, 23, 0), &mut state, n));
            // Per 20 updates: 14 single-fact inserts, 3 same-block mixes,
            // 3 batches of 1%. The batches re-solve hundreds of components
            // and are the slowest kind by far, so p50 lands among the
            // single inserts and p90 among the batches, not in a tail.
            let scripts = (0..3000u64)
                .map(|i| {
                    let kind = match i % 20 {
                        6 | 13 | 19 => "batch",
                        3 | 9 | 16 => "same-block",
                        _ => "single",
                    };
                    script(kind, derive_seed(seed, 22, i), &mut state, n)
                })
                .collect();
            let Builder { dbs, pairs, .. } = b;
            Plan {
                dbs,
                pairs,
                primed: primed.clone(),
                reads: Reads::Uniform(primed),
                writes: Writes {
                    db: live,
                    first,
                    scripts,
                    mode: WriteMode::Dedicated,
                    queries: s.binary[..3].to_vec(),
                },
            }
        }
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_relations_and_shape() {
        assert_eq!(rename("R(x | y) R(y | z)", 3), "R(xv3 | yv3) R(yv3 | zv3)");
        assert_eq!(
            rename("R1(x u | x v) R2(v y | u y)", 0),
            "R1(x u | x v) R2(v y | u y)"
        );
        let q = parse_query(&rename(&examples::q7().display(), 5)).unwrap();
        assert_eq!(q.signature(), examples::q7().signature());
    }
}
