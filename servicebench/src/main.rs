//! `servicebench` — the CQP service benchmark.
//!
//! ```text
//! servicebench --serverd PATH --workload hot_reads|cold_solves|write_mix
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots `serverd` child processes with their default flags, uploads the
//! workload's generated profiles, warms up, drives the seeded workload for
//! `S` seconds over at most `nproc` keep-alive connections, checks every
//! answer against an in-process reference and the server's own counters,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`, which also replays the exact request sequence in-process).
//! The second-to-last stdout line is a full report with provenance; the
//! last line is the result object.

mod check;
mod client;
mod ledger;
mod prom;
mod serverd;
mod stats;
mod workload;

use client::{Load, Sample};
use cqp_obs::Json;
use ledger::{Ledger, Replayed, Replayer};
use prom::Scrape;
use serverd::Deployment;
use stats::{interquartile_mean, percentile, Percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Plan, Workload, SERVERD_DB_SEED};

/// Set-ups per run; `setup_s` is their interquartile mean.
const SETUP_REPS: usize = 15;
/// `write_mix` offered rate, operations per second.
const WRITE_MIX_RATE: f64 = 400.0;
/// `write_mix` latency limit behind `within_limit_frac`, milliseconds.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// An open-loop operation sent this long after it was ready (due, with its
/// connection free) means the generator fell behind its schedule; the run
/// is rejected.
const MAX_LATENESS_MS: f64 = 1_000.0;
/// The replay covers at most this many of the window's operations (a
/// prefix in send order), so a traced `hot_reads` run stays well inside
/// its time limit however fast the server gets.
const REPLAY_MAX_OPS: usize = 200_000;
/// Samples beyond a percentile each part of the window must hold before
/// the window is cut into parts for it.
const CHUNK_BEYOND: usize = 100;
/// Connections of the open loop: a read due while a write is in flight on
/// one goes out on the other.
const OPEN_LOOP_CONNS: usize = 2;
/// Scratch space (WAL directories) inside the working directory.
const WORK_DIR: &str = ".servicebench";

/// End-to-end metrics: name, unit. Printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("server_rss_mb", "MB"),
];

struct Args {
    serverd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut serverd, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--serverd" => serverd = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        serverd: serverd.ok_or("--serverd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// A metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn json_metrics(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::from(*unit)),
                ]);
                (name.clone(), m)
            })
            .collect(),
    )
}

/// A percentile with its sample count; an unsupported one is `null`.
fn percentile_json(p: &Percentile) -> Json {
    Json::obj(vec![
        ("value_ms", p.value.map_or(Json::Null, Json::Num)),
        ("samples", Json::from(p.samples as u64)),
        ("beyond", Json::from(p.beyond as u64)),
        ("supported", Json::Bool(p.value.is_some())),
    ])
}

/// The commit the working directory holds, read from `.git` without
/// leaving it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Fails unless every sample is a 200.
fn all_ok(what: &str, samples: &[Sample]) -> Result<(), String> {
    match samples.iter().find(|s| s.status != 200) {
        Some(s) => Err(format!(
            "{what}: status {} ({})",
            s.status,
            String::from_utf8_lossy(&s.body)
        )),
        None => Ok(()),
    }
}

/// Polls the follower until it has applied at least `frames` frames.
fn await_follower(follower: &serverd::Serverd, frames: f64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Scrape::take(follower.addr)?.get("cqp_repl_received_total") < frames {
        if Instant::now() > deadline {
            return Err("follower did not catch up with the uploads".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Boots the workload's deployment, seeds its profiles and warms it up.
fn set_up(
    args: &Args,
    plan: &Plan,
    load: Load,
    dir: &Path,
    base: Instant,
) -> Result<(Deployment, Vec<Sample>), String> {
    let dep = match args.workload {
        Workload::WriteMix => Deployment::replicated(&args.serverd, dir)?,
        _ => Deployment::single(&args.serverd)?,
    };
    let addr = dep.primary.addr;
    let mut history = client::run_fixed(addr, load, plan, &plan.uploads(), base);
    all_ok("profile upload", &history)?;
    if let Some(f) = &dep.follower {
        await_follower(f, plan.users.len() as f64)?;
    }
    let warm = client::run_fixed(addr, load, plan, &plan.warmup(load.conns), base);
    all_ok("warm-up", &warm)?;
    history.extend(warm);
    Ok((dep, history))
}

/// Everything one run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    report: Json,
}

/// Server counter deltas over the window that disagree with what the
/// clients saw.
fn counter_disagreements(
    verdict: &check::Verdict,
    primary: (&Scrape, &Scrape),
    follower: Option<(&Scrape, &Scrape)>,
) -> Vec<String> {
    let d = |key: &str| Scrape::delta(primary.0, primary.1, key);
    let (reads, writes) = (verdict.reads_ok as f64, verdict.writes_ok as f64);
    let mut agreements = vec![
        (
            "personalize ok",
            d("cqp_requests_total{endpoint=\"personalize\",outcome=\"ok\"}"),
            reads - verdict.degraded as f64,
        ),
        (
            "answer-cache lookups",
            cache_tiers(primary.0, primary.1).iter().sum(),
            reads,
        ),
        ("profile upserts", d("cqp_profile_upserts_total"), writes),
    ];
    if let Some((before, after)) = follower {
        agreements.extend([
            ("WAL appends", d("cqp_wal_appends_total"), writes),
            ("frames shipped", d("cqp_repl_shipped_total"), writes),
            (
                "follower frames applied",
                Scrape::delta(before, after, "cqp_repl_received_total"),
                writes,
            ),
        ]);
    }
    agreements
        .iter()
        .filter(|(_, server, client)| server != client)
        .map(|(what, server, client)| format!("{what}: server {server} vs client {client}"))
        .collect()
}

/// Answer-cache lookups over the window by tier: exact, warm, repair, miss.
fn cache_tiers(before: &Scrape, after: &Scrape) -> [f64; 4] {
    let d = |key: &str| Scrape::delta(before, after, key);
    let tier = |t: &str| d(&format!("cqp_answer_cache_hits_total{{tier=\"{t}\"}}"));
    [
        tier("exact"),
        tier("warm"),
        tier("repair"),
        d("cqp_answer_cache_misses_total"),
    ]
}

/// The window's throughput and latency figures.
struct Figures {
    /// Completions per second in each second of the window.
    per_second: Vec<f64>,
    throughput: f64,
    /// Read percentiles per sub-window and their interquartile mean.
    p50: (Vec<Percentile>, Option<f64>),
    p90: (Vec<Percentile>, Option<f64>),
    p99: (Vec<Percentile>, Option<f64>),
    whole_p50: Percentile,
    whole_p99: Percentile,
    write_p50: Percentile,
    write_p99: Percentile,
    /// Generator lateness percentile and maximum, milliseconds.
    late_p99: Percentile,
    max_late_ms: f64,
    /// `write_mix`: share of operations done within the latency limit.
    within_limit: Option<f64>,
    client_mean_us: f64,
}

fn figures(args: &Args, window: &[Sample], verdict: &check::Verdict) -> Figures {
    let ok = |read: bool| -> Vec<f64> {
        window
            .iter()
            .filter(|s| s.is_read() == read && s.status == 200)
            .map(Sample::latency_ms)
            .collect()
    };
    let (reads, writes) = (ok(true), ok(false));
    let write_mix = args.workload == Workload::WriteMix;
    // Medians over parts of the window: a transient stall of the machine
    // moves one part, not the run's figure.
    let first = window.iter().map(|s| s.due_ns).min().unwrap_or(0);
    let mut per_second = vec![0.0; args.seconds as usize];
    for s in window
        .iter()
        .filter(|s| s.status == 200 && (s.is_read() || write_mix))
    {
        if let Some(n) = per_second.get_mut(((s.done_ns - first) / 1_000_000_000) as usize) {
            *n += 1.0;
        }
    }
    // Closed loops: the completions, in time order, are cut into one run
    // per second of the window; the figure is the interquartile mean of
    // the runs' rates, so a transient stall moves one run, not the figure,
    // and a slower spell of the shared machine moves it in proportion to
    // the share of the window it lasted, not in a jump. The open
    // loop completes what it offers unless the server falls behind: the
    // achieved rate.
    let throughput = if write_mix {
        let last_done = window.iter().map(|s| s.done_ns).max().unwrap_or(first);
        (verdict.reads_ok + verdict.writes_ok) as f64 / ((last_done - first) as f64 / 1e9)
    } else {
        let mut done: Vec<u64> = window
            .iter()
            .filter(|s| s.status == 200 && s.is_read())
            .map(|s| s.done_ns)
            .collect();
        done.sort_unstable();
        let size = (done.len() / per_second.len().max(1)).max(1);
        let rates: Vec<f64> = done
            .windows(size + 1)
            .step_by(size)
            .map(|w| size as f64 / ((w[size] - w[0]).max(1) as f64 / 1e9))
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            interquartile_mean(&rates)
        }
    };
    // The reads in due order, cut into as many equal consecutive runs (at
    // most one a second) as leave CHUNK_BEYOND samples beyond the
    // percentile in each; the figure is the interquartile mean of the runs'
    // percentiles.
    let mut timed: Vec<&Sample> = window
        .iter()
        .filter(|s| s.is_read() && s.status == 200)
        .collect();
    timed.sort_by_key(|s| s.due_ns);
    let sub_percentile = |q: f64| -> (Vec<Percentile>, Option<f64>) {
        let room = (timed.len() as f64 * (1.0 - q) / CHUNK_BEYOND as f64) as u64;
        let n = room.clamp(1, args.seconds.max(1)) as usize;
        let size = timed.len() / n;
        let subs: Vec<Percentile> = (0..n)
            .map(|i| {
                let run: Vec<f64> = timed[i * size..(i + 1) * size]
                    .iter()
                    .map(|s| s.latency_ms())
                    .collect();
                percentile(&run, q)
            })
            .collect();
        let values: Option<Vec<f64>> = subs.iter().map(|p| p.value).collect();
        (subs, values.map(|v| interquartile_mean(&v)))
    };
    let lateness: Vec<f64> = window
        .iter()
        .map(|s| s.generator_late_ns() as f64 / 1e6)
        .collect();
    let n = window.len().max(1) as f64;
    Figures {
        throughput,
        per_second,
        p50: sub_percentile(0.50),
        p90: sub_percentile(0.90),
        p99: sub_percentile(0.99),
        whole_p50: percentile(&reads, 0.50),
        whole_p99: percentile(&reads, 0.99),
        write_p50: percentile(&writes, 0.50),
        write_p99: percentile(&writes, 0.99),
        late_p99: percentile(&lateness, 0.99),
        max_late_ms: lateness.iter().copied().fold(0.0, f64::max),
        within_limit: write_mix.then(|| {
            window
                .iter()
                .filter(|s| s.status == 200 && s.latency_ms() <= LATENCY_LIMIT_MS)
                .count() as f64
                / n
        }),
        client_mean_us: window.iter().map(|s| s.latency_ms() * 1e3).sum::<f64>() / n,
    }
}

/// Replays the set-up untimed and the window timed, in send order;
/// returns the ledger and the replay's agreement with the server.
fn replay(
    db: &cqp_storage::Database,
    plan: &Plan,
    wal_dir: Option<&Path>,
    setup: &[Sample],
    window: &[Sample],
) -> Result<(Ledger, Json), String> {
    let replayer = Replayer::new(db, wal_dir)?;
    for s in setup {
        replayer.apply(&plan.request(&s.op), &mut Ledger::default())?;
    }
    let mut ordered: Vec<&Sample> = window.iter().collect();
    ordered.sort_by_key(|s| s.sent_ns);
    ordered.truncate(REPLAY_MAX_OPS);
    let mut ledger = Ledger::default();
    let (mut compared, mut mismatched) = (0u64, 0u64);
    for s in ordered {
        let replayed = replayer.apply(&plan.request(&s.op), &mut ledger)?;
        let Replayed::Read {
            version, answer, ..
        } = replayed
        else {
            continue;
        };
        // Concurrent writes to one user may reach the server in another
        // order than they were sent: compare the reads the replay
        // answered at the server's profile version.
        if let Some(served) = check::parse_read(&s.body).filter(|r| r.version == version) {
            compared += 1;
            mismatched += u64::from(answer != served.answer);
        }
    }
    if mismatched > 0 {
        return Err(format!(
            "in-process replay disagreed with the server on {mismatched} answers"
        ));
    }
    let report = Json::obj(vec![
        ("ops", Json::from(ledger.ops)),
        ("answers_compared", Json::from(compared)),
    ]);
    Ok((ledger, report))
}

/// How each workload's clients connect. Where latencies are tens of
/// microseconds (`hot_reads`, `write_mix`) a client spins while it waits,
/// so its own wake-up is not measured; a spinning client holds a core, so
/// the closed loop takes half the cores and leaves the server the rest
/// (more clients would measure the scheduler). `cold_solves`' requests
/// take milliseconds: its clients block, and the server's searches get
/// every core.
fn load(workload: Workload, nproc: usize) -> Load {
    match workload {
        Workload::HotReads => Load {
            conns: (nproc / 2).max(1),
            spin: true,
        },
        Workload::ColdSolves => Load {
            conns: nproc,
            spin: false,
        },
        Workload::WriteMix => Load {
            conns: OPEN_LOOP_CONNS,
            spin: true,
        },
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let load = load(args.workload, nproc);
    let db = cqp_datagen::generate_movie_db(&cqp_datagen::MovieDbConfig::tiny(SERVERD_DB_SEED));
    let plan = Plan::new(args.workload, args.seed, &db);
    let scratch = Scratch(Path::new(WORK_DIR).join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let base = Instant::now();

    // Set up several times; keep the last deployment for the window.
    // Each set-up wipes the previous one's WAL directories, so no dirty
    // pages of a dead deployment are written back during the window.
    let mut setup_secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up(args, &plan, load, &scratch.0.join("wal"), base)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let (dep, setup) = last.expect("at least one set-up");
    let flags = dep.flags();
    // Memory is gated at the end of set-up: on cold_solves the answer
    // cache grows with every request served, so a peak taken after the
    // window would rise with throughput.
    let setup_rss_mb = dep
        .primary
        .peak_rss_mb()
        .ok_or("cannot read serverd VmHWM")?;

    // The timed window, bracketed by counter scrapes.
    let scrape = |d: &Deployment| -> Result<(Scrape, Option<Scrape>), String> {
        let follower = d.follower.as_ref().map(|f| Scrape::take(f.addr));
        Ok((Scrape::take(d.primary.addr)?, follower.transpose()?))
    };
    let (before, f_before) = scrape(&dep)?;
    let window_len = Duration::from_secs(args.seconds);
    let addr = dep.primary.addr;
    let window = match args.workload {
        Workload::WriteMix => {
            client::open_loop(addr, load, &plan, WRITE_MIX_RATE, window_len, base)
        }
        _ => client::closed_loop(addr, load, &plan, window_len, base),
    };
    let (after, f_after) = scrape(&dep)?;
    let window_rss_mb = dep
        .primary
        .peak_rss_mb()
        .ok_or("cannot read serverd VmHWM")?;
    drop(dep);

    let verdict = check::check(&db, &plan, &setup, &window)?;
    let disagreements = counter_disagreements(
        &verdict,
        (&before, &after),
        f_before.as_ref().zip(f_after.as_ref()),
    );
    let fig = figures(args, &window, &verdict);
    let behind = fig.max_late_ms > MAX_LATENESS_MS;
    let (Some(p50_ms), Some(p90_ms)) = (fig.p50.1, fig.p90.1) else {
        return Err("too few samples for the read percentiles".to_string());
    };
    let values = [
        interquartile_mean(&setup_secs),
        fig.throughput,
        p50_ms,
        p90_ms,
        setup_rss_mb,
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();

    let (metrics, replay_report) = if args.trace {
        let wal = scratch.0.join("replay-wal");
        let wal = (args.workload == Workload::WriteMix).then_some(wal.as_path());
        let (ledger, report) = replay(&db, &plan, wal, &setup, &window)?;
        let counts = layer_metrics(&ledger, &before, &after, fig.client_mean_us);
        (counts, report)
    } else {
        (end_to_end.clone(), Json::Null)
    };

    let failed = verdict.failed();
    let attempted = window.len() as u64;
    let percentiles = |subs: &[Percentile]| Json::Arr(subs.iter().map(percentile_json).collect());
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let strs = |v: &[String]| Json::Arr(v.iter().map(|x| Json::from(x.as_str())).collect());
    let report = Json::obj(vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::from(git_rev())),
        ("nproc", Json::from(nproc as u64)),
        ("connections", Json::from(load.conns as u64)),
        ("clients_spin", Json::Bool(load.spin)),
        (
            "serverd_flags",
            Json::Arr(flags.iter().map(|f| strs(f)).collect()),
        ),
        (
            "loop",
            Json::from(match args.workload {
                Workload::WriteMix => format!("open, {WRITE_MIX_RATE} ops/s offered"),
                _ => format!("closed, {} clients", load.conns),
            }),
        ),
        ("setup_s_each", nums(&setup_secs)),
        ("server_rss_mb_after_window", Json::from(window_rss_mb)),
        ("end_to_end", json_metrics(&end_to_end)),
        ("throughput_per_second", nums(&fig.per_second)),
        ("read_p50_sub_windows", percentiles(&fig.p50.0)),
        ("read_p90_sub_windows", percentiles(&fig.p90.0)),
        ("read_p99_sub_windows", percentiles(&fig.p99.0)),
        ("read_p99", fig.p99.1.map_or(Json::Null, Json::from)),
        ("read_p50_whole_window", percentile_json(&fig.whole_p50)),
        ("read_p99_whole_window", percentile_json(&fig.whole_p99)),
        ("write_p50", percentile_json(&fig.write_p50)),
        ("write_p99", percentile_json(&fig.write_p99)),
        ("loadgen_late_p99", percentile_json(&fig.late_p99)),
        ("loadgen_max_late_ms", Json::from(fig.max_late_ms)),
        ("generator_fell_behind", Json::Bool(behind)),
        ("latency_limit_ms", Json::from(LATENCY_LIMIT_MS)),
        (
            "within_limit_frac",
            fig.within_limit.map_or(Json::Null, Json::from),
        ),
        (
            "failed_frac",
            Json::from(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::obj(vec![
                ("non_200", Json::from(verdict.non_ok)),
                ("socket_errors", Json::from(verdict.socket_errors)),
                ("degraded", Json::from(verdict.degraded)),
                ("wrong_answers", Json::from(verdict.wrong)),
            ]),
        ),
        (
            "distinct_answers_checked",
            Json::from(verdict.distinct_checked as u64),
        ),
        (
            "tiers_seen_by_clients",
            Json::Obj(
                verdict
                    .tiers
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        ("counter_disagreements", strs(&disagreements)),
        ("replay", replay_report),
        ("metrics", json_metrics(&metrics)),
    ]);
    Ok(Outcome {
        correct: failed == 0 && disagreements.is_empty() && !behind,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The per-layer metrics of a traced run. Times are mean microseconds per
/// replayed operation, so the `_us` layers sum to `ledger.attributed_us`.
fn layer_metrics(
    ledger: &Ledger,
    before: &Scrape,
    after: &Scrape,
    client_mean_us: f64,
) -> Vec<Metric> {
    let ops = ledger.ops.max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / ops;
    let layer = |name: &str| us(ledger.time.get(name).copied().unwrap_or_default());
    let phase = |name: &str| us(ledger.phases.get(name).copied().unwrap_or_default());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let d = |key: &str| Scrape::delta(before, after, key);
    let [exact, warm, repair, miss] = cache_tiers(before, after);
    let states = |alg: &str| {
        let (searches, states) = ledger.states.get(alg).copied().unwrap_or_default();
        ratio(states as f64, searches as f64)
    };
    let cbs = ledger.states.get("c_boundaries").map_or(0, |s| s.0) as f64;
    let attributed = us(ledger.total());
    let mut m: Vec<Metric> = [
        "http.parse",
        "http.render",
        "json.parse",
        "engine.parse",
        "session.select",
        "session.put",
        "admission.admit",
        "answer_cache.lookup",
        "answer_cache.insert",
        "answer_cache.invalidate",
        "prefspace.extract",
        "prefspace.extract_delta",
        "search.c_boundaries",
        "search.c_maxbounds",
        "search.d_heurdoi",
        "search.branch_bound",
        "construct",
        "engine.execute",
    ]
    .iter()
    .map(|name| metric(&format!("{name}_us"), layer(name), "us"))
    .collect();
    let appends = d("cqp_wal_appends_total");
    m.extend([
        metric(
            "search.c_boundaries.find_boundaries_us",
            phase("search.c_boundaries.find_boundaries"),
            "us",
        ),
        metric(
            "search.c_boundaries.find_max_doi_us",
            phase("search.c_boundaries.find_max_doi"),
            "us",
        ),
        metric(
            "search.c_boundaries.states",
            states("c_boundaries"),
            "count",
        ),
        metric("search.c_maxbounds.states", states("c_maxbounds"), "count"),
        metric("search.d_heurdoi.states", states("d_heurdoi"), "count"),
        metric(
            "search.branch_bound.states",
            states("branch_bound"),
            "count",
        ),
        metric(
            "search.c_boundaries.boundaries",
            ratio(ledger.boundaries as f64, cbs),
            "count",
        ),
        metric(
            "prefspace.k",
            ratio(ledger.spaces.1 as f64, ledger.spaces.0 as f64),
            "count",
        ),
        metric("answer_cache.exact", exact, "count"),
        metric("answer_cache.warm", warm, "count"),
        metric("answer_cache.repair", repair, "count"),
        metric("answer_cache.miss", miss, "count"),
        metric(
            "answer_cache.hit_frac",
            ratio(exact + warm, exact + warm + repair + miss),
            "frac",
        ),
        metric(
            "cost_cache.hit_frac",
            ratio(
                d("cqp_cache_events_total{kind=\"hit\"}"),
                d("cqp_cache_events_total{kind=\"hit\"}")
                    + d("cqp_cache_events_total{kind=\"miss\"}"),
            ),
            "frac",
        ),
        metric(
            "admission.rejected",
            d("cqp_admission_rejected_total"),
            "count",
        ),
        metric(
            "admission.queue_timeouts",
            d("cqp_admission_queue_timeouts_total"),
            "count",
        ),
        metric("wal.appends", appends, "count"),
        metric(
            "wal.bytes_per_write",
            ratio(d("cqp_wal_bytes_appended_total"), appends),
            "bytes",
        ),
        metric("repl.shipped", d("cqp_repl_shipped_total"), "count"),
        metric(
            "repl.lag_records",
            after.get("cqp_repl_lag_records"),
            "count",
        ),
        metric("ledger.attributed_us", attributed, "us"),
        metric("ledger.client_mean_us", client_mean_us, "us"),
        metric(
            "ledger.search_frac",
            ratio(us(ledger.search()), attributed),
            "frac",
        ),
        metric(
            "ledger.unattributed_frac",
            1.0 - ratio(attributed, client_mean_us),
            "frac",
        ),
    ]);
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servicebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", Json::obj(vec![("report", out.report)]).render());
            for (name, value, unit) in &out.metrics {
                eprintln!("  {name:<42} {value:>14.4} {unit}");
            }
            let result = Json::obj(vec![
                ("correct", Json::Bool(out.correct)),
                ("attempted", Json::from(out.attempted)),
                ("failed", Json::from(out.failed)),
                ("metrics", json_metrics(&out.metrics)),
            ]);
            println!("{}", result.render());
            if !out.correct {
                eprintln!("servicebench: the run failed its checks (see the report line)");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servicebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` lists exactly the metrics each mode prints.
    #[test]
    fn benchmark_json_names_every_printed_metric() {
        let doc = cqp_server::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let printed: Vec<String> = layer_metrics(
            &Ledger::default(),
            &Scrape::default(),
            &Scrape::default(),
            1.0,
        )
        .into_iter()
        .map(|m| m.0)
        .collect();
        assert_eq!(names(&doc, "per_layer"), printed);
    }
}
