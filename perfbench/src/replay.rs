//! The in-process replay behind `--trace 1`.
//!
//! The served run's requests are replayed, in send order, through the
//! public calls each layer exposes — `protocol::parse_request`,
//! `SessionManager::get_or_load`, `SharedSession::certain`,
//! `ok_response`, `parse_delta_script`, `SessionManager::apply_update` —
//! on one thread. The traced pass wraps each call in a span and, where
//! the served path hides a layer inside one call, re-runs that layer's
//! public functions on the same input next to it:
//!
//! * a cold `certain` is followed by the solver pipeline the engine runs
//!   (`classify_with`, `SolutionSet::enumerate`, the component
//!   partition, then `Cert_k`, `certain_combined_over` or brute force),
//!   whose verdict must equal the session's;
//! * an update is also applied to a second session chain through
//!   `Database::clone`, `Database::apply_delta` and
//!   `SharedSession::with_delta`.
//!
//! The untraced pass runs only the served-path calls, so the difference
//! between the two passes' wall times is the tracing cost plus those
//! side measurements (reported separately).

use crate::gate::engine_config;
use crate::inputs::Plan;
use crate::served::{Op, OpKind};
use crate::trace::Tracer;
use cqa::{classify_with, Complexity, EngineConfig, RoutePolicy, SharedSession};
use cqa_model::Database;
use cqa_query::{parse_query, Query};
use cqa_server::json::obj;
use cqa_server::protocol::{encode_request, ok_response, parse_request};
use cqa_server::{parse_delta_script, Json, Loader, ManagerStats, Method, Request, SessionManager};
use cqa_solvers::components::{
    q_connected_components_if_fragmented, q_connected_components_with_solutions,
};
use cqa_solvers::{
    brute::certain_brute_with_solutions_threads, certain_combined_over, certk_by_components,
    certk_with_stats, BruteOutcome, CertKStats, SolutionSet,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Request ids of window operations start here (set-up requests count
/// up from 1).
const WINDOW_ID: u64 = 1_000_000;

/// Spans that are side measurements rather than served-path calls.
pub const SIDE_SPANS: [&str; 2] = ["pipeline", "lane_b"];

/// What one pass produced.
pub struct Pass {
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Window operations replayed (a prefix of the served window).
    pub window_ops: usize,
    /// The recorder (empty for the untraced pass).
    pub tracer: Tracer,
    /// The replay manager's counters at the end.
    pub manager: ManagerStats,
    /// Pipeline verdicts that differed from the session's.
    pub mismatches: Vec<String>,
}

type LoadLog = Arc<Mutex<Vec<(Instant, Instant, usize)>>>;

struct Replayer<'a> {
    plan: &'a Plan,
    config: EngineConfig,
    manager: SessionManager,
    loads: LoadLog,
    t: Tracer,
    /// The side chain of sessions for the updated database (traced pass).
    lane_b: Option<Arc<SharedSession>>,
    mismatches: Vec<String>,
}

impl Replayer<'_> {
    /// Move loader timings into the tracer (nested in the open span).
    fn drain_loads(&mut self, request: u64) {
        let done: Vec<_> = std::mem::take(&mut *self.loads.lock().expect("load log lock"));
        for (start, end, facts) in done {
            self.t.record("dbfmt.load", start, end, request);
            self.t.count("dbfmt.facts", facts as f64);
        }
    }

    /// `SessionManager::get_or_load`, as span `name`: `manager.load` for
    /// the set-up loads, `manager.get_or_load` for the per-request lookups.
    fn get_or_load(&mut self, name: &'static str, path: &str, request: u64) -> Arc<SharedSession> {
        let id = self.t.begin(name, request);
        let session = self
            .manager
            .get_or_load(path)
            .expect("generated files load");
        self.drain_loads(request);
        self.t.end(id);
        session
    }

    /// Decode a frame the way the server does.
    fn decode(&mut self, frame: &str, request: u64) -> Request {
        self.t
            .count("protocol.request_bytes", frame.len() as f64 + 1.0);
        self.t.count("protocol.requests", 1.0);
        self.t
            .span("protocol.parse_request", request, || parse_request(frame))
            .expect("replayed frames decode")
    }

    fn respond(&mut self, request: u64, result: Json) {
        let frame = self.t.span("protocol.render_response", request, || {
            ok_response(Some(request as i64), result)
        });
        self.t
            .count("protocol.response_bytes", frame.len() as f64 + 1.0);
    }

    fn read(&mut self, pair: usize, request: u64) -> bool {
        let p = &self.plan.pairs[pair];
        let frame = encode_request(&Request {
            id: Some(request as i64),
            method: Method::Certain {
                db: self.plan.dbs[p.db].path.clone(),
                query: p.query.clone(),
            },
            deadline_ms: None,
        });
        let root = self.t.begin("request", request);
        let Method::Certain { db, query } = self.decode(&frame, request).method else {
            unreachable!("encoded a certain request")
        };
        let session = self.get_or_load("manager.get_or_load", &db, request);
        let q = parse_query(&query).expect("generated queries parse");
        let hits = session.stats().cache_hits;
        let id = self.t.begin("session.certain", request);
        let ans = session.certain(&q);
        self.t.end(id);
        let hit = session.stats().cache_hits > hits;
        self.t
            .relabel(id, if hit { "session.hit" } else { "session.cold" });
        if !hit && self.t.enabled() {
            let v = self.pipeline(session.db(), &q, request);
            if v != ans.certain {
                self.mismatches.push(format!(
                    "layer-by-layer replay of {query} answered {v}, the session {}",
                    ans.certain
                ));
            }
        }
        self.respond(
            request,
            obj([
                ("certain", Json::Bool(ans.certain)),
                ("answered_by", Json::Str(format!("{:?}", ans.answered_by))),
                ("budget_exhausted", Json::Bool(ans.budget_exhausted)),
            ]),
        );
        self.t.end(root);
        ans.certain
    }

    /// The engine's dispatch (`CqaEngine::certain`), one public layer
    /// call at a time.
    fn pipeline(&mut self, db: &Database, q: &Query, request: u64) -> bool {
        let root = self.t.begin("pipeline", request);
        let cfg = self.config;
        let class = self
            .t
            .span("classify", request, || classify_with(q, &cfg.search));
        self.t.count("classify.calls", 1.0);
        let sols = self.t.span("solution.enumerate", request, || {
            SolutionSet::enumerate(q, db)
        });
        self.t.count("solution.pairs", sols.len() as f64);
        let verdict = match class.complexity {
            Complexity::Trivial | Complexity::PTimeCert2 | Complexity::PTimeCertK => {
                assert_eq!(
                    cfg.routing.policy,
                    RoutePolicy::Auto,
                    "replay mirrors Auto routing"
                );
                let comps = if class.complexity == Complexity::Trivial
                    || db.len() < cfg.routing.min_facts
                {
                    None
                } else {
                    self.t.span("components.partition", request, || {
                        q_connected_components_if_fragmented(
                            q,
                            db,
                            &sols,
                            cfg.routing.min_components,
                        )
                    })
                };
                let (certain, stats) = match comps {
                    Some(comps) => {
                        self.t.count("components.count", comps.len() as f64);
                        self.t.count("components.partitions", 1.0);
                        let res = self.t.span("certk.solve", request, || {
                            certk_by_components(q, &comps, &sols, cfg.certk)
                        });
                        (res.certain, res.certk_stats().unwrap_or_default())
                    }
                    None => {
                        let (out, stats) = self.t.span("certk.solve", request, || {
                            certk_with_stats(q, db, &sols, cfg.certk)
                        });
                        (out.is_certain(), stats)
                    }
                };
                self.count_certk(&stats);
                certain
            }
            Complexity::PTimeCombined => {
                let comps = self.t.span("components.partition", request, || {
                    q_connected_components_with_solutions(q, db, &sols)
                });
                self.t.count("components.count", comps.len() as f64);
                self.t.count("components.partitions", 1.0);
                self.t
                    .span("matching.solve", request, || {
                        certain_combined_over(q, &comps, &sols, cfg.certk)
                    })
                    .certain
            }
            Complexity::CoNpComplete => {
                let out = self.t.span("brute.solve", request, || {
                    certain_brute_with_solutions_threads(
                        q,
                        db,
                        &sols,
                        cfg.brute_budget,
                        cfg.certk.threads,
                    )
                });
                if matches!(out, BruteOutcome::BudgetExhausted) {
                    self.t.count("brute.budget_exhausted", 1.0);
                }
                matches!(out, BruteOutcome::Certain)
            }
        };
        self.t.end(root);
        verdict
    }

    fn count_certk(&mut self, s: &CertKStats) {
        self.t.count("certk.rounds", s.rounds as f64);
        self.t.count("certk.inserted", s.inserted as f64);
        self.t.count("certk.steps", s.steps as f64);
        self.t.count("certk.peak_members", s.peak_members as f64);
        self.t
            .count("certk.blocks_derived", s.blocks_derived as f64);
        self.t
            .count("certk.blocks_skipped", s.blocks_skipped as f64);
    }

    fn write(&mut self, text: &str, request: u64) {
        let path = &self.plan.dbs[self.plan.writes.db].path;
        let frame = encode_request(&Request {
            id: Some(request as i64),
            method: Method::Update {
                db: path.clone(),
                deltas: text.to_string(),
            },
            deadline_ms: None,
        });
        let root = self.t.begin("request", request);
        let Method::Update { db, deltas } = self.decode(&frame, request).method else {
            unreachable!("encoded an update request")
        };
        let script = self
            .t
            .span("delta.parse", request, || parse_delta_script(&deltas))
            .expect("generated scripts parse");
        if self.t.enabled() {
            self.lane_b(&db, &script, request);
        }
        let (session, report) = self
            .t
            .span("manager.apply_update", request, || {
                self.manager
                    .apply_update(&db, &script.inserts, &script.retracts, script.key_len)
            })
            .expect("generated scripts apply");
        self.respond(
            request,
            obj([
                ("db", Json::Str(db.clone())),
                ("facts", Json::Int(session.db().len() as i64)),
                ("inserted", Json::Int(report.inserted.len() as i64)),
                ("retracted", Json::Int(report.retracted.len() as i64)),
                ("touched_blocks", Json::Int(report.touched.len() as i64)),
                ("fresh_blocks", Json::Int(report.fresh_blocks.len() as i64)),
                ("growth_only", Json::Bool(report.growth_only())),
            ]),
        );
        self.t.end(root);
    }

    /// Apply the update to the side session chain, timing the model and
    /// delta layers on their own.
    fn lane_b(&mut self, db: &str, script: &cqa_server::DeltaScript, request: u64) {
        let root = self.t.begin("lane_b", request);
        let current = match self.lane_b.take() {
            Some(s) => s,
            None => self.get_or_load("manager.get_or_load", db, request),
        };
        let mut copy = self
            .t
            .span("model.db_clone", request, || (**current.db()).clone());
        self.t
            .span("model.apply_delta", request, || {
                copy.apply_delta(&script.inserts, &script.retracts)
            })
            .expect("generated scripts apply");
        drop(copy);
        let before = current.delta_stats();
        let (next, _) = self
            .t
            .span("delta.with_delta", request, || {
                current.with_delta(&script.inserts, &script.retracts)
            })
            .expect("generated scripts apply");
        let after = next.delta_stats();
        self.t.count(
            "delta.blocks_reseeded",
            (after.blocks_reseeded - before.blocks_reseeded) as f64,
        );
        self.t.count(
            "delta.verdicts_retained",
            (after.verdicts_retained - before.verdicts_retained) as f64,
        );
        // Components behind the carried verdicts, after the delta: the
        // base of the retained ratio.
        for q in &self.plan.writes.queries {
            let q = parse_query(q).expect("generated queries parse");
            if next.stats().distinct_queries > 0 {
                let before_hits = next.stats().cache_hits;
                let ans = next.certain(&q);
                if next.stats().cache_hits > before_hits {
                    self.t
                        .count("delta.components_after", ans.components.unwrap_or(1) as f64);
                }
            }
        }
        self.lane_b = Some(Arc::new(next));
        self.t.end(root);
    }
}

/// Replay `plan` in process: loads, priming, the set-up update, then the
/// first `limit` window operations (or as many as fit in `budget_s`
/// seconds).
pub fn replay(
    plan: &Plan,
    window: &[Op],
    limit: Option<usize>,
    budget_s: f64,
    traced: bool,
) -> Pass {
    let loads: LoadLog = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&loads);
    let loader: Loader = Arc::new(move |path: &str| {
        let start = Instant::now();
        let db = cqa_cli::load_db_file(path).map_err(|e| e.message);
        let facts = db.as_ref().map_or(0, Database::len);
        log.lock()
            .expect("load log lock")
            .push((start, Instant::now(), facts));
        db
    });
    let config = engine_config();
    let mut r = Replayer {
        plan,
        config,
        manager: SessionManager::new(loader, config, None),
        loads,
        t: Tracer::new(traced),
        lane_b: None,
        mismatches: Vec::new(),
    };
    let t0 = Instant::now();
    let mut id = 1u64;
    for d in &plan.dbs {
        r.get_or_load("manager.load", &d.path, id);
        id += 1;
    }
    for &p in &plan.primed {
        r.read(p, id);
        id += 1;
    }
    if let Some(first) = &plan.writes.first {
        r.write(&first.text, id);
    }
    let window_t0 = Instant::now();
    let mut done = 0;
    for (i, op) in window.iter().enumerate() {
        let over_budget = window_t0.elapsed().as_secs_f64() > budget_s;
        if limit.map_or(over_budget, |n| i >= n) {
            break;
        }
        match op.kind {
            OpKind::Read(p) => {
                r.read(p, WINDOW_ID + i as u64);
            }
            OpKind::Write(s) => r.write(&plan.writes.scripts[s].text, WINDOW_ID + i as u64),
        }
        done += 1;
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        window_ops: done,
        manager: r.manager.stats(),
        tracer: r.t,
        mismatches: r.mismatches,
    }
}

/// Served round trip minus the traced in-process session call, averaged
/// over the replayed window reads, in microseconds.
pub fn server_overhead_us(window: &[Op], pass: &Pass) -> (f64, usize) {
    let mut session: BTreeMap<u64, f64> = pass.tracer.by_request_ns("session.hit");
    for (k, v) in pass.tracer.by_request_ns("session.cold") {
        *session.entry(k).or_insert(0.0) += v;
    }
    let diffs: Vec<f64> = window
        .iter()
        .enumerate()
        .take(pass.window_ops)
        .filter(|(_, op)| matches!(op.kind, OpKind::Read(_)) && op.outcome.is_ok())
        .filter_map(|(i, op)| {
            let inproc = session.get(&(WINDOW_ID + i as u64))?;
            Some(op.ms() * 1e3 - inproc / 1e3)
        })
        .collect();
    (crate::stats::mean(&diffs), diffs.len())
}
