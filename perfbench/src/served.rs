//! The served run: a real `cqa serve` process driven over the wire by
//! closed-loop `cqa_server::Client` connections (each caller waits for
//! its reply before sending the next request).

use crate::inputs::{Plan, Reads, WriteMode};
use cqa_server::{Client, Json, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop connections per run.
pub const CLIENTS: usize = 2;

/// The window runs as this many back-to-back rounds, each on freshly
/// opened connections: where the scheduler places a connection's threads
/// on the two vCPUs sets a latency regime that lasts as long as the
/// connection, and per-round statistics let the report look across
/// several regimes instead of living with one.
pub const ROUNDS: usize = 10;

/// `peak_rss_mb` is sampled once the window has completed a fixed number
/// of the operations that grow the server's memory, so it measures the
/// same work whatever the throughput. Without a dedicated writer those
/// are reads (each cold read leaves a cache entry behind): this many.
pub const RSS_AFTER_READS: usize = 1000;

/// With a dedicated writer they are updates (each builds a successor
/// session): this many, four cycles of the `live_updates` script mix,
/// reached well inside a 20-s window.
pub const RSS_AFTER_WRITES: usize = 80;

/// A running `cqa serve` child process. Dropping it kills and reaps the
/// process if [`Server::stop`] was not reached.
pub struct Server {
    child: Option<Child>,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `cqa serve` on an ephemeral loopback port with `threads`
    /// workers and wait until it announces its address.
    pub fn start(cqa: &Path, threads: usize) -> Result<Server, String> {
        let mut child = Command::new(cqa)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cqa.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("cqa serve exited before listening: {line}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Drain (and pass on) anything else the server says, so it can
        // never block on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            if !rest.trim().is_empty() {
                eprint!("{rest}");
            }
        });
        Ok(Server {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        })
    }

    /// Open one connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The server's resident-set high-water mark (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("server running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read the server's memory use: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Ask the server to shut down and wait for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut client = self.connect()?;
        client
            .shutdown()
            .map_err(|e| format!("shutdown: {}", e.message))?;
        drop(client);
        let status = self
            .child
            .take()
            .expect("server running")
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(format!("cqa serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// What an operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `certain` on [`Plan::pairs`]`[i]`.
    Read(usize),
    /// `update` with `Writes::scripts[i]`.
    Write(usize),
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Op {
    /// The request.
    pub kind: OpKind,
    /// When it was sent.
    pub start: Instant,
    /// When its reply arrived.
    pub end: Instant,
    /// The verdict (reads), `None` for a successful write, or the error
    /// code.
    pub outcome: Result<Option<bool>, &'static str>,
}

impl Op {
    /// Round trip in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

fn read(client: &mut Client, plan: &Plan, pair: usize) -> Op {
    let p = &plan.pairs[pair];
    let start = Instant::now();
    let outcome = client
        .certain(&plan.dbs[p.db].path, &p.query)
        .map(Some)
        .map_err(|e| e.code);
    Op {
        kind: OpKind::Read(pair),
        start,
        end: Instant::now(),
        outcome,
    }
}

fn write(client: &mut Client, plan: &Plan, script: usize) -> Op {
    let start = Instant::now();
    let outcome = client
        .update(
            &plan.dbs[plan.writes.db].path,
            &plan.writes.scripts[script].text,
        )
        .map(|_| None)
        .map_err(|e| e.code);
    Op {
        kind: OpKind::Write(script),
        start,
        end: Instant::now(),
        outcome,
    }
}

/// Set-up: what the server did before the timed window.
pub struct Setup {
    /// Seconds from process start to the last priming reply.
    pub seconds: f64,
    /// Verdicts of the priming reads, by pair.
    pub primed: Vec<(usize, bool)>,
}

/// Start a server and bring it to the state the timed window begins
/// from: every database loaded, every primed pair answered, the set-up
/// update applied. Loads and priming are spread over the connections.
pub fn set_up(cqa: &Path, threads: usize, plan: &Plan) -> Result<(Server, Setup), String> {
    let t0 = Instant::now();
    let server = Server::start(cqa, threads)?;
    let mut clients = (0..CLIENTS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let results: Vec<Result<Vec<(usize, bool)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    for d in plan.dbs.iter().skip(c).step_by(CLIENTS) {
                        let facts = client
                            .load(&d.path)
                            .map_err(|e| format!("load {}: {}", d.label, e.message))?;
                        if facts != d.db.len() as i64 {
                            return Err(format!(
                                "{}: server loaded {facts} facts, generator made {}",
                                d.label,
                                d.db.len()
                            ));
                        }
                    }
                    let mut verdicts = Vec::new();
                    for &pair in plan.primed.iter().skip(c).step_by(CLIENTS) {
                        match read(client, plan, pair).outcome {
                            Ok(Some(v)) => verdicts.push((pair, v)),
                            other => return Err(format!("priming read failed: {other:?}")),
                        }
                    }
                    Ok(verdicts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut primed = Vec::new();
    for r in results {
        primed.extend(r?);
    }
    if let Some(first) = &plan.writes.first {
        clients[0]
            .update(&plan.dbs[plan.writes.db].path, &first.text)
            .map_err(|e: WireError| format!("set-up update: {}", e.message))?;
    }
    let seconds = t0.elapsed().as_secs_f64();
    Ok((server, Setup { seconds, primed }))
}

/// Everything the timed window produced.
pub struct Window {
    /// Window operations, in send order.
    pub ops: Vec<Op>,
    /// When the window opened.
    pub start: Instant,
    /// Seconds from the window's start to its last reply.
    pub seconds: f64,
    /// Nominal length of one round (`--seconds` / [`ROUNDS`]).
    pub round_seconds: f64,
    /// Final-epoch verdicts of `Writes::queries` on the updated database,
    /// read after the window.
    pub final_verdicts: Vec<Result<bool, &'static str>>,
    /// `queue_peak` from the server's `stats`.
    pub queue_peak: i64,
    /// Requests refused with `overloaded`, from the server's `stats`.
    pub shed: i64,
    /// Server `VmHWM` in MiB after [`RSS_AFTER_READS`] window reads or,
    /// with a dedicated writer, [`RSS_AFTER_WRITES`] window updates (at
    /// the window's end, if fewer ran).
    pub peak_rss_mb: f64,
    /// When `peak_rss_mb` was sampled, for the report.
    pub rss_when: String,
}

/// Run the timed window for `seconds` as [`ROUNDS`] rounds, then read the
/// final-epoch verdicts and the server's counters (untimed). A schedule
/// that runs out before the window closes fails the run: the window would
/// be shorter than `seconds`.
pub fn run_window(server: &Server, plan: &Plan, seed: u64, seconds: f64) -> Result<Window, String> {
    let cursor = AtomicUsize::new(0);
    let next_script = AtomicUsize::new(0);
    let exhausted = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss = std::sync::Mutex::new(None);
    let rss_writes = plan.writes.mode == WriteMode::Dedicated;
    let rss_after = if rss_writes {
        RSS_AFTER_WRITES
    } else {
        RSS_AFTER_READS
    };
    let round_seconds = seconds / ROUNDS as f64;
    let t0 = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    for round in 0..ROUNDS {
        let round_start = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(round_seconds * (round + 1) as f64);
        let mut clients = (0..CLIENTS)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let per_conn: Vec<Vec<Op>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (cursor, next_script, exhausted, done, rss) =
                        (&cursor, &next_script, &exhausted, &done, &rss);
                    s.spawn(move || {
                        let mut ops = Vec::new();
                        let stream = (round * CLIENTS + c) as u64;
                        let mut rng =
                            StdRng::seed_from_u64(cqa_workloads::derive_seed(seed, 99, stream));
                        let dedicated =
                            plan.writes.mode == WriteMode::Dedicated && c == CLIENTS - 1;
                        let every = match plan.writes.mode {
                            WriteMode::Every(interval) if c == 0 => Some(interval),
                            _ => None,
                        };
                        let mut due = round_start + every.unwrap_or_default();
                        while Instant::now() < deadline {
                            let op = if dedicated || every.is_some_and(|_| Instant::now() >= due) {
                                due += every.unwrap_or_default();
                                let i = next_script.fetch_add(1, Ordering::Relaxed);
                                if i >= plan.writes.scripts.len() {
                                    exhausted.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                write(client, plan, i)
                            } else {
                                let pair = match &plan.reads {
                                    Reads::Uniform(pairs) => pairs[rng.gen_range(0..pairs.len())],
                                    Reads::Once(seq) => {
                                        match seq.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                                            Some(&p) => p,
                                            None => {
                                                exhausted.fetch_add(1, Ordering::Relaxed);
                                                break;
                                            }
                                        }
                                    }
                                };
                                read(client, plan, pair)
                            };
                            let counted = matches!(op.kind, OpKind::Write(_)) == rss_writes;
                            ops.push(op);
                            if counted && done.fetch_add(1, Ordering::Relaxed) + 1 == rss_after {
                                *rss.lock().expect("rss lock") = Some(server.peak_rss_mb());
                            }
                        }
                        ops
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        ops.extend(per_conn.into_iter().flatten());
        if exhausted.load(Ordering::Relaxed) > 0 {
            return Err(format!(
                "the request schedule ran out {:.1}s into a {seconds}s window; \
                 generate more pairs or scripts in inputs.rs",
                t0.elapsed().as_secs_f64()
            ));
        }
    }
    ops.sort_by_key(|o| o.start);
    let last = ops.iter().map(|o| o.end).max().unwrap_or(t0);
    let window_seconds = last.duration_since(t0).as_secs_f64();
    let kind = if rss_writes { "updates" } else { "reads" };
    let (peak_rss_mb, rss_when) = match rss.into_inner().expect("rss lock") {
        Some(sample) => (sample?, format!("after {rss_after} window {kind}")),
        None => (
            server.peak_rss_mb()?,
            format!(
                "at the window's end, after {} window {kind}",
                done.load(Ordering::Relaxed)
            ),
        ),
    };
    let mut client = server.connect()?;
    let db = &plan.dbs[plan.writes.db].path;
    let final_verdicts = plan
        .writes
        .queries
        .iter()
        .map(|q| client.certain(db, q).map_err(|e| e.code))
        .collect();
    let stats = client
        .stats()
        .map_err(|e| format!("stats: {}", e.message))?;
    let int = |k: &str| stats.get(k).and_then(Json::as_int).unwrap_or(-1);
    Ok(Window {
        ops,
        start: t0,
        seconds: window_seconds,
        round_seconds,
        final_verdicts,
        queue_peak: int("queue_peak"),
        shed: int("shed"),
        peak_rss_mb,
        rss_when,
    })
}
