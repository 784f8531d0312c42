//! `perfbench`: the end-to-end and per-layer benchmark of `cqa serve`.
//!
//! ```text
//! perfbench --cqa <path to the cqa binary> --workload <cold_solves|live_updates>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` starts a real `cqa serve` process, drives it over the wire
//! with two closed-loop connections for `--seconds`, checks every verdict
//! against an in-process reference and prints the end-to-end metrics.
//! `--trace 1` runs the same served window (for the server-side counters
//! and round trips), then replays it in process through each layer's
//! public calls and prints the per-layer metrics. The last line of
//! standard output is always the JSON result. `perfbench/run.sh` builds
//! both binaries and runs this one.

mod gate;
mod inputs;
mod replay;
mod served;
mod stats;
mod trace;

use inputs::{Plan, Workload};
use served::{Op, OpKind, Window, CLIENTS};
use stats::{beyond, mean, median, quantile, ratio};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    cqa: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cqa = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--cqa" => cqa = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        cqa: cqa.ok_or("--cqa is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the generated inputs however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the value was computed from, for the human-readable lines.
    base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: base.into(),
    }
}

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<(), String> {
    for m in metrics {
        println!(
            "metric {:<28} {:>16.6} {:<6} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn latencies(ops: &[&Op]) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .iter()
        .filter(|o| o.outcome.is_ok())
        .map(|o| o.ms())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn percentile_metric(name: &'static str, sorted: &[f64], p: f64) -> Metric {
    let n = beyond(sorted, p);
    if n < 10 {
        eprintln!(
            "perfbench: note: {name} has only {n} samples beyond it ({} samples)",
            sorted.len()
        );
    }
    metric(
        name,
        quantile(sorted, p),
        "ms",
        format!("{} samples, {n} beyond", sorted.len()),
    )
}

fn gate(
    args: &Args,
    plan: &Plan,
    primed: &[(usize, bool)],
    w: &Window,
    threads: usize,
) -> gate::Gate {
    let t = Instant::now();
    let g = gate::check(plan, primed, &w.ops, &w.final_verdicts, args.seed, threads);
    println!(
        "gate: {} verdicts checked against in-process CqaEngine::certain ({} reads outside the sampled epochs), {} mismatches, {:.1}s",
        g.checked,
        g.unchecked,
        g.mismatches.len(),
        t.elapsed().as_secs_f64()
    );
    println!(
        "gate: updated database {}: {} facts before set-up, {} at the final epoch",
        plan.dbs[plan.writes.db].label, g.facts.0, g.facts.1
    );
    for m in g.mismatches.iter().take(20) {
        println!("gate: MISMATCH {m}");
    }
    g
}

fn counts(w: &Window) -> (usize, usize) {
    let failed = w.ops.iter().filter(|o| o.outcome.is_err()).count();
    (w.ops.len(), failed)
}

/// `read_qps`, `read_p50_ms`, `read_p99_ms`: when every round holds enough
/// reads for its own p99 (at least ten beyond it), the better quartile
/// over the rounds of each round's value — the lower quartile of
/// latencies, the upper quartile of throughput, so a thread placement or
/// burst of outside load that slows up to three quarters of the rounds
/// does not move the result; otherwise (cold solves) over the whole
/// window.
fn read_metrics(reads: &[&Op], w: &Window) -> Vec<Metric> {
    let rounds: Vec<Vec<f64>> = (0..served::ROUNDS)
        .map(|k| {
            let of_round: Vec<&Op> = reads
                .iter()
                .copied()
                .filter(|o| {
                    let t = o.start.duration_since(w.start).as_secs_f64() / w.round_seconds;
                    (t as usize).min(served::ROUNDS - 1) == k
                })
                .collect();
            latencies(&of_round)
        })
        .collect();
    let qps: Vec<f64> = rounds
        .iter()
        .map(|r| r.len() as f64 / w.round_seconds)
        .collect();
    let p50: Vec<f64> = rounds.iter().map(|r| quantile(r, 0.5)).collect();
    let p99: Vec<f64> = rounds.iter().map(|r| quantile(r, 0.99)).collect();
    let round = |v: &[f64], k: f64| v.iter().map(|x| (x * k).round() / k).collect::<Vec<_>>();
    println!("rounds: read qps {:?}", round(&qps, 1.0));
    println!("rounds: read p50 ms {:?}", round(&p50, 1e4));
    println!("rounds: read p99 ms {:?}", round(&p99, 1e4));
    if !rounds.iter().all(|r| beyond(r, 0.99) >= 10) {
        let all = latencies(reads);
        return vec![
            metric(
                "read_qps",
                all.len() as f64 / w.seconds,
                "1/s",
                format!("{} reads answered in {:.3}s", all.len(), w.seconds),
            ),
            percentile_metric("read_p50_ms", &all, 0.5),
            percentile_metric("read_p99_ms", &all, 0.99),
        ];
    }
    let fewest = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let base = |v: &[f64]| {
        format!(
            "better quartile of {} rounds of {:.1}s, at least {fewest} reads each; round median {:.4}",
            served::ROUNDS,
            w.round_seconds,
            median(v)
        )
    };
    vec![
        metric("read_qps", better_quartile(&qps, false), "1/s", base(&qps)),
        metric("read_p50_ms", better_quartile(&p50, true), "ms", base(&p50)),
        metric("read_p99_ms", better_quartile(&p99, true), "ms", base(&p99)),
    ]
}

/// The lower quartile of `values` when lower is better, else the upper.
fn better_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, if lower_is_better { 0.25 } else { 0.75 })
}

/// Latency breakdowns that explain the reported percentiles: reads by
/// database family (`small12-chain` counts as `small-chain`), writes by
/// script kind.
fn print_breakdowns(plan: &Plan, ops: &[Op]) {
    let mut groups: BTreeMap<String, Vec<&Op>> = BTreeMap::new();
    for o in ops {
        let group = match o.kind {
            OpKind::Read(p) => {
                let label = &plan.dbs[plan.pairs[p].db].label;
                match label.split_once('-') {
                    Some((small, family)) if small.starts_with("small") => {
                        format!("read small-{family}")
                    }
                    _ => format!("read {label}"),
                }
            }
            OpKind::Write(i) => format!("write {}", plan.writes.scripts[i].kind),
        };
        groups.entry(group).or_default().push(o);
    }
    for (group, ops) in groups {
        let ms = latencies(&ops);
        println!(
            "breakdown: {group:<22} {:>7} ops, p50 {:>9.3} ms, p99 {:>9.3} ms, max {:>9.3} ms",
            ms.len(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.99),
            quantile(&ms, 1.0)
        );
    }
}

fn untraced(args: &Args, plan: &Plan, threads: usize) -> Result<bool, String> {
    let (server, setup) = served::set_up(&args.cqa, threads, plan)?;
    let w = served::run_window(&server, plan, args.seed, args.seconds)?;
    server.stop()?;
    let mut setups = vec![setup.seconds];
    let mut primed = setup.primed;
    for _ in 1..SETUP_REPS {
        let (server, s) = served::set_up(&args.cqa, threads, plan)?;
        server.stop()?;
        setups.push(s.seconds);
        primed.extend(s.primed);
    }
    println!(
        "set-up: {} runs, seconds {:?}",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let g = gate(args, plan, &primed, &w, threads);
    let reads: Vec<&Op> = w
        .ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Read(_)))
        .collect();
    let writes: Vec<&Op> = w
        .ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Write(_)))
        .collect();
    let (attempted, failed) = counts(&w);
    println!(
        "window: {:.3}s, {} reads, {} writes ({:?}), queue_peak {}, shed {}",
        w.seconds,
        reads.len(),
        writes.len(),
        plan.writes.mode,
        w.queue_peak,
        w.shed
    );
    print_breakdowns(plan, &w.ops);
    let mut metrics = vec![metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    )];
    metrics.extend(read_metrics(&reads, &w));
    let write_ms = latencies(&writes);
    metrics.push(percentile_metric("write_p50_ms", &write_ms, 0.5));
    metrics.push(percentile_metric("write_p90_ms", &write_ms, 0.9));
    metrics.push(metric(
        "ok_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
        "ratio",
        format!("{failed} of {attempted} operations failed"),
    ));
    metrics.push(metric(
        "peak_rss_mb",
        w.peak_rss_mb,
        "MiB",
        format!("server VmHWM {}", w.rss_when),
    ));
    print_result(g.mismatches.is_empty(), attempted, failed, &metrics)?;
    Ok(g.mismatches.is_empty())
}

fn traced(args: &Args, plan: &Plan, threads: usize, out_dir: &Path) -> Result<bool, String> {
    let (server, setup) = served::set_up(&args.cqa, threads, plan)?;
    let w = served::run_window(&server, plan, args.seed, args.seconds)?;
    server.stop()?;
    let g = gate(args, plan, &setup.primed, &w, threads);
    // The untraced pass replays as much of the window as fits in a third
    // of its length; the traced pass replays exactly the same operations.
    let plain = replay::replay(plan, &w.ops, None, args.seconds / 3.0, false);
    let pass = replay::replay(plan, &w.ops, Some(plain.window_ops), args.seconds, true);
    let t = &pass.tracer;
    let side = t.total_secs(&replay::SIDE_SPANS);
    println!(
        "replay: {} of {} window operations; untraced {:.3}s, traced {:.3}s, traced without the side measurements {:.3}s",
        plain.window_ops,
        w.ops.len(),
        plain.wall_s,
        pass.wall_s,
        pass.wall_s - side
    );
    println!(
        "spans: {:<24} {:>9} {:>12} {:>12}",
        "name", "calls", "total_s", "self_s"
    );
    for (name, n, total, own) in t.summary() {
        println!("spans: {name:<24} {n:>9} {total:>12.6} {own:>12.6}");
    }
    let spans = out_dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&spans, t.to_tsv()).map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());

    let calls = |name: &str| t.durations_ns(name).len();
    let mean_us = |name: &str| mean(&t.durations_ns(name)) / 1e3;
    let mean_ms = |name: &str| mean(&t.durations_ns(name)) / 1e6;
    let per = |total: &str, per: &str| ratio(t.total(total), calls(per) as f64);
    let timed = |name: &'static str, span: &str, ms: bool| {
        let v = if ms { mean_ms(span) } else { mean_us(span) };
        metric(
            name,
            v,
            if ms { "ms" } else { "us" },
            format!("mean of {} calls", calls(span)),
        )
    };
    let updates = calls("delta.with_delta");
    let (overhead, overhead_n) = replay::server_overhead_us(&w.ops, &pass);
    let m = &pass.manager;
    let lookups = m.session_hits + m.loads;
    let skipped = t.total("certk.blocks_skipped");
    let derived = t.total("certk.blocks_derived");
    let certk_solves = calls("certk.solve");
    let metrics = vec![
        timed("protocol.parse_request_us", "protocol.parse_request", false),
        timed(
            "protocol.render_response_us",
            "protocol.render_response",
            false,
        ),
        metric(
            "protocol.request_bytes",
            per("protocol.request_bytes", "protocol.parse_request"),
            "bytes",
            "mean per request frame",
        ),
        metric(
            "protocol.response_bytes",
            per("protocol.response_bytes", "protocol.render_response"),
            "bytes",
            "mean per response frame",
        ),
        metric(
            "server.overhead_us",
            overhead,
            "us",
            format!("mean of {overhead_n} reads: served round trip minus in-process session call"),
        ),
        metric(
            "server.queue_peak",
            w.queue_peak as f64,
            "count",
            "served window stats",
        ),
        metric("server.shed", w.shed as f64, "count", "served window stats"),
        timed("manager.get_or_load_us", "manager.get_or_load", false),
        metric(
            "manager.session_hit_ratio",
            ratio(m.session_hits as f64, lookups as f64),
            "ratio",
            format!("{} hits of {lookups} lookups", m.session_hits),
        ),
        metric("manager.loads", m.loads as f64, "count", "replay manager"),
        timed("manager.apply_update_ms", "manager.apply_update", true),
        timed("dbfmt.load_ms", "dbfmt.load", true),
        metric(
            "dbfmt.facts_per_s",
            ratio(t.total("dbfmt.facts"), t.total_secs(&["dbfmt.load"])),
            "1/s",
            format!("{} facts loaded", t.total("dbfmt.facts")),
        ),
        timed("classify.us", "classify", false),
        metric(
            "classify.calls",
            t.total("classify.calls"),
            "count",
            "cold requests replayed",
        ),
        timed("session.hit_us", "session.hit", false),
        timed("session.cold_ms", "session.cold", true),
        metric(
            "session.cache_hit_ratio",
            ratio(m.cache_hits as f64, m.queries as f64),
            "ratio",
            format!("{} hits of {} session calls", m.cache_hits, m.queries),
        ),
        timed("solution.enumerate_ms", "solution.enumerate", true),
        metric(
            "solution.pairs",
            per("solution.pairs", "solution.enumerate"),
            "count",
            "mean solutions per enumeration",
        ),
        timed("components.partition_ms", "components.partition", true),
        metric(
            "components.count",
            ratio(
                t.total("components.count"),
                t.total("components.partitions"),
            ),
            "count",
            format!("mean over {} partitions", t.total("components.partitions")),
        ),
        timed("certk.solve_ms", "certk.solve", true),
        metric(
            "certk.rounds",
            per("certk.rounds", "certk.solve"),
            "count",
            format!("mean per solve, {certk_solves} solves"),
        ),
        metric(
            "certk.inserted",
            per("certk.inserted", "certk.solve"),
            "count",
            "mean per solve",
        ),
        metric(
            "certk.steps",
            per("certk.steps", "certk.solve"),
            "count",
            "mean per solve",
        ),
        metric(
            "certk.peak_members",
            per("certk.peak_members", "certk.solve"),
            "count",
            "mean per solve",
        ),
        metric(
            "certk.blocks_derived",
            per("certk.blocks_derived", "certk.solve"),
            "count",
            "mean per solve",
        ),
        metric(
            "certk.skip_ratio",
            ratio(skipped, derived + skipped),
            "ratio",
            format!("{skipped} skipped of {} block visits", derived + skipped),
        ),
        timed("matching.solve_ms", "matching.solve", true),
        timed("brute.solve_ms", "brute.solve", true),
        metric(
            "brute.budget_exhausted",
            t.total("brute.budget_exhausted"),
            "count",
            format!("of {} searches", calls("brute.solve")),
        ),
        timed("delta.parse_us", "delta.parse", false),
        timed("model.db_clone_ms", "model.db_clone", true),
        timed("model.apply_delta_ms", "model.apply_delta", true),
        timed("delta.with_delta_ms", "delta.with_delta", true),
        metric(
            "delta.blocks_reseeded",
            ratio(t.total("delta.blocks_reseeded"), updates as f64),
            "count",
            format!("mean per update, {updates} updates"),
        ),
        metric(
            "delta.verdicts_retained",
            ratio(t.total("delta.verdicts_retained"), updates as f64),
            "count",
            "mean per update",
        ),
        metric(
            "delta.retained_ratio",
            ratio(
                t.total("delta.verdicts_retained"),
                t.total("delta.components_after"),
            ),
            "ratio",
            format!(
                "of {} components behind carried verdicts",
                t.total("delta.components_after")
            ),
        ),
        metric(
            "model.resident_bytes",
            m.resident_bytes as f64,
            "bytes",
            "Database::approx_bytes, resident sessions",
        ),
    ];
    let correct = g.mismatches.is_empty() && pass.mismatches.is_empty();
    for m in &pass.mismatches {
        println!("replay: MISMATCH {m}");
    }
    let (attempted, failed) = counts(&w);
    print_result(correct, attempted, failed, &metrics)?;
    Ok(correct)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if !args.cqa.is_file() {
        return Err(format!("no cqa binary at {}", args.cqa.display()));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench");
    let data = DataDir(out_dir.join(format!("data-{}", std::process::id())));
    std::fs::create_dir_all(&data.0).map_err(|e| format!("create {}: {e}", data.0.display()))?;
    let t = Instant::now();
    let plan = inputs::build(args.workload, args.seed, &data.0)
        .map_err(|e| format!("write inputs: {e}"))?;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; server threads {threads}, {CLIENTS} closed-loop connections",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "inputs: {} databases, {} facts, {} pairs, {} primed, {} scripts (generated in {:.1}s, not timed)",
        plan.dbs.len(),
        plan.facts(),
        plan.pairs.len(),
        plan.primed.len(),
        plan.writes.scripts.len(),
        t.elapsed().as_secs_f64()
    );
    if args.trace {
        traced(&args, &plan, threads, &out_dir)
    } else {
        untraced(&args, &plan, threads)
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
