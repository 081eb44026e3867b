//! The `serve_faulted` workload: an in-process job daemon driven by a
//! closed loop of client connections.
//!
//! Each client submits a job, subscribes to its live samples, waits for
//! `completed`, fetches the CSV, and only then submits its next job.
//! Jobs cycle through [`SCENARIOS`] seeds, so after the window every
//! served CSV is compared byte for byte with `run_scenario` on the same
//! scenario text, run inline. The window is cut into [`SEGMENTS`], with
//! the single-threaded record → replay checks run between them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use scrip_bench::scenario::{run_scenario, RunnerOptions, Scenario};
use scrip_bench::serve::{Client, ServeOptions, Server};
use scrip_core::des::SeedSequence;

use crate::spans::Spans;
use crate::workload::Plan;

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Distinct scenarios (seeds) the jobs cycle through.
pub const SCENARIOS: usize = 4;
/// Jobs a full-scale untraced run submits at least, so the turnaround
/// p90 has ten samples beyond it even when the window completes fewer.
pub const MIN_JOBS: u64 = 110;
/// Daemon restarts timed for `setup_s`, besides the measured daemon's
/// own start.
const SETUP_STARTS: usize = 40;
/// Untimed restarts before them.
const SETUP_WARMUP: usize = 5;
/// Segments the window is cut into, with a record → replay check after
/// each, so that both sample the whole run rather than one stretch of it.
pub const SEGMENTS: usize = 8;
/// Checkpoint cadence sent with every job, in simulated seconds.
pub const CHECKPOINT_EVERY: u64 = 10;

/// One served job, as its client saw it.
#[derive(Clone, Debug)]
pub struct ServedJob {
    /// Index into the scenario texts.
    pub scenario: usize,
    /// Submit → `completed`, seconds.
    pub turnaround_s: f64,
    /// Submit → first streamed sample, seconds.
    pub first_sample_s: f64,
    /// Simulator events the job dispatched (its last sample's count).
    pub events: u64,
    /// Terminal state word.
    pub state: String,
    /// The fetched CSV.
    pub csv: String,
}

/// Everything one serve run measured.
pub struct ServeRun {
    /// Daemon start → first `ping` answered, seconds, per start.
    pub setup_s: Vec<f64>,
    /// Completed or failed jobs, in completion order per client.
    pub jobs: Vec<ServedJob>,
    /// Seconds the window's segments took, pauses left out.
    pub wall_s: f64,
    /// Peak RSS over the window's first segment.
    pub peak_mb: f64,
    /// The scenario texts the jobs were built from.
    pub texts: Vec<String>,
    /// Scenario seeds, by index.
    pub seeds: Vec<u64>,
}

fn options(dir: &Path) -> ServeOptions {
    let mut options = ServeOptions::new("127.0.0.1:0", dir);
    options.workers = WORKERS;
    options
}

/// Starts a daemon and checks that it answers; returns it with its
/// address and the seconds `Server::start` took (bound, journal open,
/// workers spawned). The ping round trip is left out of the time: it
/// measures thread wake-ups, not start-up.
fn start_daemon(dir: &Path) -> (Server, String, f64) {
    let start = Instant::now();
    let server = Server::start(&options(dir)).expect("daemon starts");
    let secs = start.elapsed().as_secs_f64();
    let addr = server.local_addr().to_string();
    Client::connect(&addr)
        .and_then(|mut c| c.ping())
        .expect("daemon answers ping");
    (server, addr, secs)
}

fn stop_daemon(server: Server, addr: &str) {
    Client::connect(addr)
        .and_then(|mut c| c.drain())
        .expect("daemon drains");
    server.join();
}

/// Runs the closed loop for `seconds`, and on until `min_jobs` jobs
/// were submitted, and returns what it measured.
///
/// The window is cut into [`SEGMENTS`] equal segments. After each one
/// the clients have received every result and the daemon is idle, and
/// `pause(k, seed, spans)` runs single-threaded work on scenario `k`
/// (the record → replay checks), each scenario in turn; its time is not
/// part of the window. The last segment runs on until `min_jobs` jobs
/// were submitted.
pub fn run(
    plan: &Plan,
    run_seed: u64,
    seconds: f64,
    min_jobs: u64,
    out_dir: &Path,
    spans: &mut Spans,
    mut pause: impl FnMut(usize, u64, &mut Spans),
) -> ServeRun {
    let root: PathBuf = out_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Restarts on one state directory: the first few warm the
    // directory and the thread stacks and are not timed.
    let mut setup_s = Vec::new();
    for i in 0..SETUP_WARMUP + SETUP_STARTS {
        let (server, addr, secs) = start_daemon(&root.join("restart"));
        if i >= SETUP_WARMUP {
            setup_s.push(secs);
        }
        stop_daemon(server, &addr);
    }

    let seq = SeedSequence::new(run_seed);
    let seeds: Vec<u64> = (0..SCENARIOS as u64).map(|k| seq.derive(k)).collect();
    let texts: Vec<String> = seeds
        .iter()
        .map(|&s| plan.scenario(s).to_file_string())
        .collect();

    crate::rss::reset_peak();
    let (server, addr, secs) = start_daemon(&root.join("daemon"));
    setup_s.push(secs);
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let next_job = AtomicU64::new(0);
    let mut jobs = Vec::new();
    let mut wall_s = 0.0;
    let mut peak_mb = 0.0;
    for i in 0..SEGMENTS {
        let start = Instant::now();
        let deadline = start + segment;
        let floor = if i + 1 == SEGMENTS { min_jobs } else { 0 };
        let results: Vec<(Vec<ServedJob>, Spans)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let mut spans = spans.fork();
                    let (addr, texts, next_job) = (&addr, &texts, &next_job);
                    scope.spawn(move || {
                        let mut control = Client::connect(addr).expect("client connects");
                        let mut jobs = Vec::new();
                        loop {
                            let id = next_job.fetch_add(1, Ordering::Relaxed);
                            if Instant::now() >= deadline && id >= floor {
                                break;
                            }
                            let scenario = id as usize % texts.len();
                            jobs.push(serve_one(
                                &mut control,
                                addr,
                                &texts[scenario],
                                scenario,
                                id,
                                &mut spans,
                            ));
                        }
                        (jobs, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        wall_s += start.elapsed().as_secs_f64();
        if i == 0 {
            // The daemon's own peak, before the pauses' work has grown
            // the heap the allocator keeps.
            peak_mb = crate::rss::peak_mb();
        }
        for (client_jobs, client_spans) in results {
            jobs.extend(client_jobs);
            spans.merge(client_spans);
        }
        pause(i % SCENARIOS, seeds[i % SCENARIOS], spans);
    }
    stop_daemon(server, &addr);
    let _ = std::fs::remove_dir_all(&root);
    ServeRun {
        setup_s,
        jobs,
        wall_s,
        peak_mb,
        texts,
        seeds,
    }
}

/// One submit → subscribe → completed → result cycle.
fn serve_one(
    control: &mut Client,
    addr: &str,
    text: &str,
    scenario: usize,
    id: u64,
    spans: &mut Spans,
) -> ServedJob {
    let start = Instant::now();
    spans.begin("job", id);
    let (job, _) = spans.time("submit", id, || {
        control.submit(text, None, None, Some(CHECKPOINT_EVERY))
    });
    let job = job.expect("daemon accepts the job");
    let mut first: Option<f64> = None;
    let mut events = 0u64;
    let (stream, _) = spans.time("subscribe", id, || {
        Client::connect(addr)?.subscribe(&job, |payload| {
            first.get_or_insert_with(|| start.elapsed().as_secs_f64());
            if let Some(v) = payload
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("events="))
            {
                events = v.parse().unwrap_or(events);
            }
        })
    });
    stream.expect("sample stream ends");
    // The end of the sample log lands just before the daemon journals
    // the terminal state; poll until it has.
    let state = loop {
        let status = control.status(&job).expect("status answers");
        let word = status.split_whitespace().next().unwrap_or("").to_string();
        if matches!(word.as_str(), "completed" | "failed" | "cancelled") {
            break word;
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    let turnaround_s = start.elapsed().as_secs_f64();
    let csv = if state == "completed" {
        spans
            .time("result_csv", id, || control.result_csv(&job))
            .0
            .unwrap_or_default()
    } else {
        String::new()
    };
    spans.end();
    ServedJob {
        scenario,
        turnaround_s,
        first_sample_s: first.unwrap_or(turnaround_s),
        events,
        state,
        csv,
    }
}

/// Runs scenario text `text` inline through `run_scenario` on one
/// thread; returns its CSV and the seconds it took.
pub fn inline_csv(text: &str) -> (String, f64) {
    let scenario = Scenario::parse_str(text).expect("scenario parses");
    let start = Instant::now();
    let result = run_scenario(&scenario, &RunnerOptions::with_threads(1)).expect("scenario runs");
    (result.to_csv(), start.elapsed().as_secs_f64())
}
