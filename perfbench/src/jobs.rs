//! Inline market jobs: `closed_feedback`, `churn_open` and
//! `record_replay`.
//!
//! A job builds the workload's market from its job seed, streams live
//! samples to a sink (so the first one can be timed), and runs to the
//! job horizon one sampling interval per `run_until` call.
//! `record_replay` jobs additionally record the run, verify the
//! recording by replay, and resume a mid-run checkpoint to the horizon.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use scrip_core::des::SimTime;
use scrip_core::market::{CreditMarket, MarketConfig};
use scrip_core::obs::{LiveSample, Session};

use crate::report::Report;
use crate::rss;
use crate::spans::Spans;
use crate::workload::{job_seed, Plan, Workload};

/// `(events dispatched, wall seconds)` of each `run_until` call of a
/// pass, one per sampling interval.
pub type Chunks = Vec<(u64, f64)>;

/// Events per second of each chunk.
pub fn rates(chunks: &[(u64, f64)]) -> impl Iterator<Item = f64> + '_ {
    chunks.iter().map(|&(events, secs)| events as f64 / secs)
}

/// Total `(events, seconds)` of a pass.
pub fn totals(chunks: &[(u64, f64)]) -> (u64, f64) {
    chunks
        .iter()
        .fold((0, 0.0), |(e, s), &(events, secs)| (e + events, s + secs))
}

/// What one job measured.
#[derive(Clone, Debug, Default)]
pub struct JobTimes {
    /// Market build seconds.
    pub setup_s: f64,
    /// The timed pass (the recording pass for `record_replay`).
    pub run: Chunks,
    /// The replay-verify pass (`record_replay` only).
    pub replay: Chunks,
    /// Start of the job to its result.
    pub turnaround_s: f64,
    /// Start of the job to its first live sample.
    pub first_sample_s: f64,
    /// Peak RSS during the job.
    pub peak_mb: f64,
    /// Whether the job's spans were recorded.
    pub traced: bool,
}

/// Fingerprint of a finished run that a same-seed rerun must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// `state_digest()` of the market at the horizon.
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
}

/// A session with a sink that notes when the first live sample lands.
fn observed_session(
    config: &MarketConfig,
    seed: u64,
    job: u64,
    spans: &mut Spans,
) -> (Session, f64, Arc<Mutex<Option<Instant>>>) {
    let (session, setup_s) = spans.time("build", job, || {
        Session::from_config(config, seed).expect("workload market builds")
    });
    let first: Arc<Mutex<Option<Instant>>> = Arc::default();
    let mut session = session;
    let note = Arc::clone(&first);
    session.stream_samples_to(Box::new(move |_: &LiveSample| {
        note.lock()
            .expect("sample note")
            .get_or_insert_with(Instant::now);
    }));
    (session, setup_s, first)
}

/// Runs `session` to `horizon` one sampling interval per call, recording
/// a `run_until` span for each.
fn run_chunks(
    session: &mut Session,
    interval: f64,
    horizon: SimTime,
    job: u64,
    spans: &mut Spans,
) -> Chunks {
    let mut chunks = Vec::new();
    let mut t = session.now();
    while t < horizon {
        t = SimTime::from_secs_f64((t.as_secs_f64() + interval).min(horizon.as_secs_f64()));
        let before = session.stats().events_processed;
        let secs = spans.time("run_until", job, || session.run_until(t)).1;
        chunks.push((session.stats().events_processed - before, secs));
    }
    chunks
}

/// Charges `secs` to the last chunk of a pass (its closing call).
fn charge_last(chunks: &mut Chunks, secs: f64) {
    if let Some(last) = chunks.last_mut() {
        last.1 += secs;
    }
}

/// One `closed_feedback`/`churn_open` job. Returns its times, the
/// outcome a same-seed job must reproduce, and the finished market.
pub fn market_job(
    plan: &Plan,
    seed: u64,
    job: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> (JobTimes, Outcome, CreditMarket) {
    let config = plan.config();
    rss::reset_peak();
    let start = Instant::now();
    spans.begin("job", job);
    let (mut session, setup_s, first) = observed_session(&config, seed, job, spans);
    let interval = config.sample_interval.as_secs_f64();
    let run = run_chunks(&mut session, interval, plan.horizon, job, spans);
    spans.end();
    let turnaround_s = start.elapsed().as_secs_f64();
    let peak_mb = rss::peak_mb();
    let first_sample_s = first
        .lock()
        .expect("sample note")
        .map_or(turnaround_s, |t| (t - start).as_secs_f64());
    let events = session.stats().events_processed;
    let outcome = Outcome {
        digest: session.view().state_digest(),
        events,
    };
    let view = session.view();
    report.check(view.ledger().conserved(), || {
        format!("job {job}: ledger not conserved")
    });
    report.check(view.purchases() > 0, || format!("job {job}: no purchases"));
    let (_, model) = session.finish();
    let market = model.queue().expect("queue-level market");
    let times = JobTimes {
        setup_s,
        run,
        turnaround_s,
        first_sample_s,
        peak_mb,
        ..JobTimes::default()
    };
    (times, outcome, market)
}

/// Records `horizon` simulated seconds of the workload's market to
/// `path`, checkpointing half way, then verifies the recording by
/// replaying it in a fresh same-seed session. Counts the checks.
pub fn record_and_replay(
    plan: &Plan,
    seed: u64,
    horizon: SimTime,
    path: &Path,
    job: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> RecordReplay {
    let config = plan.config();
    let interval = config.sample_interval.as_secs_f64();
    let (mut session, setup_s, first) = observed_session(&config, seed, job, spans);
    spans
        .time("record_to", job, || session.record_to(path))
        .0
        .expect("trace file opens");
    // Half way (on the sampling grid), take the checkpoint the resume
    // check restarts from.
    let half = SimTime::from_secs_f64(
        ((horizon.as_secs_f64() / 2.0 / interval).floor() * interval).max(interval),
    );
    let mut record = run_chunks(&mut session, interval, half, job, spans);
    let (checkpoint, _) = spans.time("checkpoint", job, || session.checkpoint());
    let checkpoint = checkpoint.expect("queue-level sessions checkpoint");
    record.extend(run_chunks(&mut session, interval, horizon, job, spans));
    let (finished, finish_s) = spans.time("finish_trace", job, || session.finish_trace());
    charge_last(&mut record, finish_s);
    report.check(finished.is_ok(), || format!("job {job}: recording failed"));
    let first_sample_at = *first.lock().expect("sample note");
    let straight = Outcome {
        digest: session.view().state_digest(),
        events: session.stats().events_processed,
    };
    report.check(session.view().ledger().conserved(), || {
        format!("job {job}: ledger not conserved")
    });

    let verify = verify_replay(
        &config,
        seed,
        horizon,
        path,
        straight.events,
        job,
        spans,
        report,
    );
    RecordReplay {
        setup_s,
        record,
        verify,
        events: straight.events,
        first_sample_at,
        straight,
        checkpoint,
        session,
    }
}

/// Verifies the recording at `path` in a fresh same-seed session, which
/// must reproduce every recorded event and boundary digest and dispatch
/// `events` events. Returns the verify pass, `replay_from` charged to its
/// first chunk and `finish_trace` to its last.
#[allow(clippy::too_many_arguments)]
pub fn verify_replay(
    config: &MarketConfig,
    seed: u64,
    horizon: SimTime,
    path: &Path,
    events: u64,
    job: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> Chunks {
    let (mut replay, _) = spans.time("build", job, || {
        Session::from_config(config, seed).expect("workload market builds")
    });
    // Read the trace once untimed, so the timed `replay_from` reads it
    // from the page cache rather than from however much of it the host
    // has evicted since it was written.
    let _ = std::fs::read(path);
    let (attached, open_s) = spans.time("replay_from", job, || replay.replay_from(path));
    report.check(attached.is_ok(), || {
        format!("job {job}: replay_from refused the trace: {attached:?}")
    });
    let interval = config.sample_interval.as_secs_f64();
    let mut verify = run_chunks(&mut replay, interval, horizon, job, spans);
    if let Some(first) = verify.first_mut() {
        first.1 += open_s;
    }
    let diverged = replay.trace_divergence().map(ToString::to_string);
    let (verified, finish_s) = spans.time("finish_trace", job, || replay.finish_trace());
    charge_last(&mut verify, finish_s);
    let replayed = replay.stats().events_processed;
    report.check(diverged.is_none() && verified.is_ok(), || {
        format!("job {job}: replay diverged: {diverged:?} {verified:?}")
    });
    report.check(replayed == events, || {
        format!("job {job}: replay dispatched {replayed} events, recording {events}")
    });
    verify
}

/// What [`record_and_replay`] measured.
pub struct RecordReplay {
    /// Market build seconds of the recording session.
    pub setup_s: f64,
    /// The recording pass, `finish_trace` charged to its last chunk.
    pub record: Chunks,
    /// The verify pass, `replay_from` charged to its first chunk and
    /// `finish_trace` to its last.
    pub verify: Chunks,
    /// Events of either pass.
    pub events: u64,
    /// When the recording session delivered its first live sample.
    pub first_sample_at: Option<Instant>,
    /// The recorded run's outcome.
    pub straight: Outcome,
    /// Checkpoint taken half way through the recording.
    pub checkpoint: Vec<u8>,
    /// The recorded session, at the horizon.
    pub session: Session,
}

/// One `record_replay` job: record, verify, then resume the mid-run
/// checkpoint and run it to the horizon.
pub fn record_replay_job(
    plan: &Plan,
    seed: u64,
    job: u64,
    path: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> (JobTimes, Outcome, CreditMarket) {
    let config = plan.config();
    let interval = config.sample_interval.as_secs_f64();
    rss::reset_peak();
    let start = Instant::now();
    spans.begin("job", job);
    let rr = record_and_replay(plan, seed, plan.horizon, path, job, spans, report);
    let (resumed, _) = spans.time("resume", job, || {
        Session::resume(&config, Vec::new(), &rr.checkpoint)
    });
    let mut resumed = resumed.expect("checkpoint resumes");
    run_chunks(&mut resumed, interval, plan.horizon, job, spans);
    spans.end();
    let turnaround_s = start.elapsed().as_secs_f64();
    let peak_mb = rss::peak_mb();
    let resumed_outcome = Outcome {
        digest: resumed.view().state_digest(),
        events: resumed.stats().events_processed,
    };
    report.check(resumed_outcome == rr.straight, || {
        format!(
            "job {job}: resumed run {resumed_outcome:?} differs from the straight run {:?}",
            rr.straight
        )
    });
    let _ = std::fs::remove_file(path);
    let (_, model) = rr.session.finish();
    let times = JobTimes {
        setup_s: rr.setup_s,
        run: rr.record,
        replay: rr.verify,
        turnaround_s,
        first_sample_s: rr
            .first_sample_at
            .map_or(turnaround_s, |t| (t - start).as_secs_f64()),
        peak_mb,
        traced: false,
    };
    (
        times,
        rr.straight,
        model.queue().expect("queue-level market"),
    )
}

/// Span job id of the record → replay checks, which belong to no job.
const CHECK: u64 = u64::MAX;

/// The record → replay check: records `horizon` simulated seconds of
/// the workload's market on `seed`, verifies the recording once, and
/// removes it.
pub fn replay_check(
    plan: &Plan,
    seed: u64,
    horizon: SimTime,
    path: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> RecordReplay {
    let rr = record_and_replay(plan, seed, horizon, path, CHECK, spans, report);
    let _ = std::fs::remove_file(path);
    rr
}

/// The jobs of one inline run, with the first job's market kept for the
/// per-layer probes and counts.
pub struct JobRun {
    /// Every job's times, in order.
    pub jobs: Vec<JobTimes>,
    /// Job 0's finished market (seed `job_seed(run_seed, 0)`).
    pub first_market: CreditMarket,
    /// Verify-pass chunks: every job's for `record_replay`, for the
    /// other workloads those of the probe recording's verify passes.
    pub replay: Chunks,
}

/// Runs jobs back to back for `seconds` (at least four, so jobs repeat
/// earlier jobs' seeds), checking each job against its same-seed twin.
/// A workload whose jobs do not record records `plan.probe_horizon`
/// simulated seconds on the first job's seed after that job (whose
/// peak RSS is the fresh process's), and verifies the recording once
/// after every job, so that `replay_events_per_s` samples the whole run
/// rather than one stretch of it.
/// With `untraced` given, jobs alternate in pairs (one of each seed)
/// between recording spans to `spans` and not, so the tracing overhead
/// can be read off two interleaved samples.
pub fn run_jobs(
    plan: &Plan,
    run_seed: u64,
    seconds: f64,
    out_dir: &Path,
    spans: &mut Spans,
    mut untraced: Option<&mut Spans>,
    report: &mut Report,
) -> JobRun {
    let trace_path = out_dir.join(format!("record-{}.trc", std::process::id()));
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut twins: [Option<Outcome>; 2] = [None, None];
    let mut first_market = None;
    let mut replay = Vec::new();
    // Seed and event count of the probe recording at `trace_path`.
    let mut probe: Option<(u64, u64)> = None;
    let mut k = 0u64;
    while k < 4 || start.elapsed().as_secs_f64() < seconds {
        let seed = job_seed(run_seed, k);
        let recorder = match untraced.as_deref_mut() {
            Some(quiet) if (k / 2) % 2 == 1 => quiet,
            _ => &mut *spans,
        };
        let recording = plan.workload == Workload::RecordReplay;
        let (mut times, outcome, market) = if recording {
            record_replay_job(plan, seed, k, &trace_path, recorder, report)
        } else {
            market_job(plan, seed, k, recorder, report)
        };
        times.traced = recorder.is_on();
        if recording {
            replay.extend_from_slice(&times.replay);
        } else if let Some((seed0, events0)) = probe {
            let config = plan.config();
            replay.extend(verify_replay(
                &config,
                seed0,
                plan.probe_horizon,
                &trace_path,
                events0,
                CHECK,
                recorder,
                report,
            ));
        } else {
            let rr = record_and_replay(
                plan,
                seed,
                plan.probe_horizon,
                &trace_path,
                CHECK,
                recorder,
                report,
            );
            replay = rr.verify;
            probe = Some((seed, rr.events));
        }
        let (events, secs) = totals(&times.run);
        eprintln!(
            "  job {k}: seed {seed} build {:.3}s run {secs:.3}s {events} events ({:.0}/s) turnaround {:.3}s peak {:.1} MiB",
            times.setup_s,
            events as f64 / secs,
            times.turnaround_s,
            times.peak_mb
        );
        match twins[(k % 2) as usize] {
            None => twins[(k % 2) as usize] = Some(outcome),
            Some(twin) => report.check(twin == outcome, || {
                format!("job {k}: seed {seed} gave {outcome:?}, its twin {twin:?}")
            }),
        }
        if first_market.is_none() {
            first_market = Some(market);
        }
        jobs.push(times);
        k += 1;
    }
    let _ = std::fs::remove_file(&trace_path);
    JobRun {
        jobs,
        first_market: first_market.expect("at least one job"),
        replay,
    }
}
