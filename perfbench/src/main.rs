//! `perfbench`: the scrip workspace's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) for `S` seconds from
//! inputs derived from seed `N`, checks every result, and prints one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the spans recorded around each call
//! into the workspace are written to `.perfbench_out/`. `--smoke` runs
//! the same workload on a market of a few hundred peers.

mod jobs;
mod layers;
mod report;
mod rss;
mod served;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};

use jobs::JobTimes;
use report::Report;
use scrip_core::obs::MarketView;
use scrip_core::topology::Graph;
use spans::Spans;
use workload::{job_seed, Plan, Workload};

const USAGE: &str =
    "usage: perfbench --workload closed_feedback|churn_open|serve_faulted|record_replay \
                     --seed N --seconds S --trace 0|1 [--smoke]";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let plan = Plan::new(args.workload, args.smoke);
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut report = Report::default();
    if args.trace {
        traced(&plan, &args, &out_dir, &mut report);
    } else {
        untraced(&plan, &args, &out_dir, &mut report);
    }
    println!("{}", report.to_json());
}

/// Events per second of every chunk of the jobs' timed passes.
fn chunk_rates<'a>(jobs: impl IntoIterator<Item = &'a JobTimes>) -> Vec<f64> {
    jobs.into_iter().flat_map(|j| jobs::rates(&j.run)).collect()
}

/// The end-to-end metrics (`--trace 0`).
fn untraced(plan: &Plan, args: &Args, out_dir: &Path, report: &mut Report) {
    let mut spans = Spans::new(false);
    if plan.workload == Workload::ServeFaulted {
        let min_jobs = if plan.smoke { 0 } else { served::MIN_JOBS };
        let served = serve_and_check(
            plan,
            args.seed,
            args.seconds,
            min_jobs,
            out_dir,
            &mut spans,
            report,
        );
        let run = &served.run;
        let events: u64 = run.jobs.iter().map(|j| j.events).sum();
        report.median_of("setup_s", &run.setup_s, "s");
        report.metric("events_per_s", events as f64 / run.wall_s, "1/s");
        report.metric("replay_events_per_s", served.replay_events_per_s, "1/s");
        report.metric("peak_rss_mb", run.peak_mb, "MiB");
        let turnaround: Vec<f64> = run.jobs.iter().map(|j| j.turnaround_s).collect();
        let first: Vec<f64> = run.jobs.iter().map(|j| j.first_sample_s * 1e3).collect();
        latency_metrics(
            report,
            &turnaround,
            &first,
            run.jobs.len() as f64 / run.wall_s,
        );
        return;
    }
    let run = jobs::run_jobs(
        plan,
        args.seed,
        args.seconds,
        out_dir,
        &mut spans,
        None,
        report,
    );
    let setup: Vec<f64> = run.jobs.iter().map(|j| j.setup_s).collect();
    report.median_of("setup_s", &setup, "s");
    report.median_of("events_per_s", &chunk_rates(&run.jobs), "1/s");
    let replay: Vec<f64> = jobs::rates(&run.replay).collect();
    report.median_of("replay_events_per_s", &replay, "1/s");
    // The first job runs in a fresh process; later jobs would also
    // count heap the allocator kept from the jobs before them.
    report.metric("peak_rss_mb", run.jobs[0].peak_mb, "MiB");
    let turnaround: Vec<f64> = run.jobs.iter().map(|j| j.turnaround_s).collect();
    let first: Vec<f64> = run.jobs.iter().map(|j| j.first_sample_s * 1e3).collect();
    // One client, back to back: throughput is jobs per second of job.
    let busy: f64 = turnaround.iter().sum();
    latency_metrics(report, &turnaround, &first, run.jobs.len() as f64 / busy);
}

fn latency_metrics(report: &mut Report, turnaround_s: &[f64], first_ms: &[f64], jobs_per_s: f64) {
    report.percentile_of("job_turnaround_p50_s", turnaround_s, 0.5, "s");
    report.percentile_of("job_turnaround_p90_s", turnaround_s, 0.9, "s");
    report.percentile_of("first_sample_p50_ms", first_ms, 0.5, "ms");
    report.percentile_of("first_sample_p90_ms", first_ms, 0.9, "ms");
    report.metric("jobs_per_s", jobs_per_s, "1/s");
}

/// A serve run with its checks done.
struct Served {
    run: served::ServeRun,
    /// Exact counts of scenario 0, from its inline recording.
    counts: Counts,
    replay_events_per_s: f64,
    /// Seconds `run_scenario` took on scenario 0, inline.
    inline_job_s: f64,
}

/// Runs the daemon workload with a record → replay check of one
/// scenario after each window segment (each scenario in turn, so every
/// scenario is recorded and verified at least once), then checks every
/// served CSV against `run_scenario` and every served job's event count
/// against the scenario's recording.
fn serve_and_check(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    min_jobs: u64,
    out_dir: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> Served {
    let path = out_dir.join(format!("replay-{}.trc", std::process::id()));
    let mut events: Vec<Option<u64>> = vec![None; served::SCENARIOS];
    let mut counts = None;
    let mut replay = Vec::new();
    let run = served::run(
        plan,
        seed,
        seconds,
        min_jobs,
        out_dir,
        spans,
        |k, scenario_seed, spans| {
            let recorded =
                jobs::replay_check(plan, scenario_seed, plan.horizon, &path, spans, report);
            replay.extend(recorded.verify.iter().copied());
            match events[k] {
                None => events[k] = Some(recorded.events),
                Some(first) => report.check(recorded.events == first, || {
                    format!(
                        "scenario {k} recorded {} events, earlier {first}",
                        recorded.events
                    )
                }),
            }
            if k == 0 && counts.is_none() {
                counts = Some(Counts::of(recorded.session.view(), recorded.events, None));
            }
        },
    );
    let mut inline_job_s = 0.0;
    for (k, (text, recorded)) in run.texts.iter().zip(&events).enumerate() {
        let jobs: Vec<&served::ServedJob> = run.jobs.iter().filter(|j| j.scenario == k).collect();
        if jobs.is_empty() {
            continue;
        }
        let (csv, secs) = served::inline_csv(text);
        if k == 0 {
            inline_job_s = secs;
        }
        let recorded = recorded.expect("every scenario recorded");
        for job in jobs {
            report.check(job.state == "completed" && job.csv == csv, || {
                format!(
                    "served job of scenario {k} ended {} with a CSV that differs from run_scenario",
                    job.state
                )
            });
            report.check(job.events == recorded, || {
                format!(
                    "served job of scenario {k} dispatched {} events, inline {recorded}",
                    job.events
                )
            });
        }
    }
    Served {
        run,
        counts: counts.expect("scenario 0 recorded"),
        replay_events_per_s: stats::median(&jobs::rates(&replay).collect::<Vec<_>>()),
        inline_job_s,
    }
}

/// The per-layer metrics (`--trace 1`).
fn traced(plan: &Plan, args: &Args, out_dir: &Path, report: &mut Report) {
    let mut quiet = Spans::new(false);
    let mut spans = Spans::new(true);
    let n = plan.config().n as f64;
    let trace_path = out_dir.join(format!("layers-{}.trc", std::process::id()));
    let seed0;
    let counts: Counts;
    let (rate_off, rate_on, peak_mb, timed_wall);
    let mut serve_costs = None;
    if plan.workload == Workload::ServeFaulted {
        // Two half-length windows, spans off then on.
        let half = args.seconds / 2.0;
        let off = serve_and_check(plan, args.seed, half, 0, out_dir, &mut quiet, report);
        let on = serve_and_check(plan, args.seed, half, 0, out_dir, &mut spans, report);
        let rate =
            |s: &Served| s.run.jobs.iter().map(|j| j.events).sum::<u64>() as f64 / s.run.wall_s;
        (rate_off, rate_on) = (rate(&off), rate(&on));
        peak_mb = on.run.peak_mb;
        seed0 = on.run.seeds[0];
        let turnaround: Vec<f64> = on.run.jobs.iter().map(|j| j.turnaround_s).collect();
        timed_wall = stats::median(&turnaround);
        counts = on.counts;
        serve_costs = Some((on.inline_job_s, timed_wall));
    } else {
        let run = jobs::run_jobs(
            plan,
            args.seed,
            args.seconds,
            out_dir,
            &mut spans,
            Some(&mut quiet),
            report,
        );
        let rates = |traced: bool| {
            stats::median(&chunk_rates(run.jobs.iter().filter(|j| j.traced == traced)))
        };
        (rate_off, rate_on) = (rates(false), rates(true));
        peak_mb = run.jobs[0].peak_mb;
        seed0 = job_seed(args.seed, 0);
        let (events0, wall0) = jobs::totals(&run.jobs[0].run);
        timed_wall = wall0;
        let market = &run.first_market;
        counts = Counts::of(market, events0, Some((market.graph(), plan.config().n)));
    }

    let recorded = jobs::record_and_replay(
        plan,
        seed0,
        plan.probe_horizon,
        &trace_path,
        u64::MAX,
        &mut quiet,
        report,
    );
    let costs = layers::probe(plan, seed0, &recorded, &trace_path, report);
    let _ = std::fs::remove_file(&trace_path);
    report.metric(
        "market.rss_bytes_per_peer",
        peak_mb * 1024.0 * 1024.0 / n,
        "B",
    );

    let (submit_ms, result_ms) = if serve_costs.is_some() {
        let ms = |name| stats::median(&spans.durations(name)) * 1e3;
        (ms("submit"), ms("result_csv"))
    } else {
        (0.0, 0.0)
    };
    let (inline_job_s, overhead_frac) = serve_costs.map_or((0.0, 0.0), |(inline, turnaround)| {
        (inline, 1.0 - inline / turnaround)
    });
    report.metric("serve.submit_ms", submit_ms, "ms");
    report.metric("serve.result_ms", result_ms, "ms");
    report.metric("serve.inline_job_s", inline_job_s, "s");
    report.metric("serve.overhead_frac", overhead_frac, "1");

    counts.report(report);
    let explained = counts.explained(plan, &costs, submit_ms + result_ms) / timed_wall;
    report.metric("explained_frac", explained, "1");
    report.metric("tracing.overhead_frac", 1.0 - rate_on / rate_off, "1");

    let spans_path = out_dir.join(format!(
        "spans-{}-{}.jsonl",
        plan.workload.name(),
        args.seed
    ));
    match spans.write_jsonl(&spans_path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.list.len(),
            spans_path.display()
        ),
        Err(e) => eprintln!("perfbench: {}: {e}", spans_path.display()),
    }
    for (name, (count, total, own)) in spans.summary() {
        eprintln!("  span {name:<14} count {count:>6} total {total:>10.4}s self {own:>10.4}s");
    }
}

/// Exact per-job counts of the workload's first job.
struct Counts {
    events: u64,
    purchases: u64,
    denied: u64,
    retries: u64,
    joins: u64,
    leaves: u64,
}

impl Counts {
    /// Counts of a finished job; `overlay` is its graph and initial n
    /// where churn may have changed the population.
    fn of(market: &dyn MarketView, events: u64, overlay: Option<(&Graph, usize)>) -> Counts {
        // Ids are handed out densely from 0 and never reused, so every id
        // at or past the initial n is a joiner, and whoever is missing
        // has left.
        let (joins, leaves) = overlay.map_or((0, 0), |(graph, n)| {
            let next = graph.next_raw_id();
            (next - n as u64, next - market.peer_count() as u64)
        });
        Counts {
            events,
            purchases: market.purchases(),
            denied: market.denied(),
            retries: market.fault_stats().map_or(0, |f| f.retries),
            joins,
            leaves,
        }
    }

    fn report(&self, report: &mut Report) {
        report.metric("sim.events", self.events as f64, "count");
        report.metric("market.purchases", self.purchases as f64, "count");
        report.metric("market.denied", self.denied as f64, "count");
        report.metric("fault.retries", self.retries as f64, "count");
        report.metric("graph.joins", self.joins as f64, "count");
        report.metric("graph.leaves", self.leaves as f64, "count");
    }

    /// Σ count × per-call cost over the layers the workload's job runs
    /// through, in seconds.
    fn explained(&self, plan: &Plan, costs: &layers::Costs, serve_calls_ms: f64) -> f64 {
        let config = plan.config();
        let attempts = (self.purchases + self.denied) as f64;
        let mut total = self.events as f64 * costs.push_pop
            + self.joins as f64 * costs.join
            + self.leaves as f64 * costs.leave;
        if config.availability_feedback {
            total += attempts * costs.sampler;
        }
        total += self.purchases as f64
            * if config.faults.is_some() {
                costs.escrow
            } else {
                costs.transfer
            };
        match plan.workload {
            Workload::RecordReplay => {
                total += self.events as f64 * costs.encode + costs.checkpoint;
            }
            Workload::ServeFaulted => {
                let checkpoints =
                    (plan.horizon.as_secs_f64() as u64 - 1) / served::CHECKPOINT_EVERY;
                total += checkpoints as f64 * costs.checkpoint + serve_calls_ms * 1e-3;
            }
            _ => {}
        }
        total
    }
}
