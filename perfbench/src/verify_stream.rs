//! `verify_stream`: the verification service path.
//!
//! Two closed-loop clients send `(task, response text)` requests from the
//! benchmark's own generator ([`crate::traffic`]) to
//! `DpoAf::score_formal` on one shared pipeline with the verdict cache
//! on. The run is a fixed number of *sessions* (see
//! [`crate::common::repetitions`]): each session sets up a fresh pipeline
//! (empty cache) and serves the [`SESSION`] requests of its own seeded
//! stream. Fixed work keeps the cache's working set — and so memory —
//! independent of how fast the program is, and many short sessions give
//! medians that ride out the machine's second-to-second speed swings.
//!
//! * `setup_s`: median over sessions of `DpoAf::new` plus one uncached
//!   verification per scenario world.
//! * `job_s`: median session wall time.
//! * `verify_*`: median over sessions of each session's p50 and p99
//!   request latency (1,000 requests leave 10 beyond p99), and of its
//!   requests per second.
//!
//! Times are at the reference machine speed: set-up runs between two
//! probes of its core and every client probes its core between requests
//! (see [`crate::speed`]).
//!
//! Correctness: within a session every request for one key must get the
//! same verdict (a cache hit equals the fresh verdict), and a seeded
//! sample of distinct keys is re-validated through certkit outside the
//! timed loop.

use crate::common::{
    certify, closed_loop, counter, overhead_pct, repetitions, sample_indices, span_total,
    write_trace, Args, Checks, Outcome,
};
use crate::layers::{ratio, Layers, Replay};
use crate::profile::{report_miss_latency, Profile};
use crate::speed::Speed;
use crate::stats::median;
use crate::traffic::{stream_seed, Kind, Mix, Request, SplitMix, Traffic};
use dpo_af::pipeline::{DpoAf, PipelineConfig};

/// Requests per session.
pub const SESSION: usize = 1_000;
/// Nominal session wall time on the reference machine (2 cores), which
/// sets the session count from `--seconds`.
const NOMINAL_SESSION_S: f64 = 1.3;
/// Minimum sessions per run (per half of a traced run).
const MIN_SESSIONS: usize = 3;
/// Distinct keys per run re-validated through certkit.
const CERTIFIED: usize = 200;
/// First sightings profiled per run (see [`crate::profile`]).
const PROFILED: usize = 2_000;
/// Distinct keys replayed layer by layer in a traced run.
const REPLAYED: usize = 400;

/// One aligned response per scenario world, verified uncached at set-up
/// so lazily built process state is in place before timing.
const WARM_UP: &[(usize, &str)] = &[
    (0, "observe the green light ; if the green light is on and no car from the left and no pedestrian on the right, turn right ."),
    (1, "observe the green arrow ; if the green arrow is on and no oncoming traffic, turn left ."),
    (3, "check for the car from the left and the pedestrian ahead ; if no car from the left and no pedestrian ahead, turn right ."),
    (5, "check for the car from the left and the car from the right ; if no car from the left and no car from the right, go straight ."),
    (6, "check for the car from the left and the pedestrian on the left ; if no car from the left and no pedestrian on the left, turn right ."),
];

/// One served session.
struct Session {
    setup_s: f64,
    wall_s: f64,
    /// Machine-speed factor over the session (see [`crate::speed`]).
    factor: f64,
    latency_ms: Vec<f64>,
    requests: Vec<Request>,
    verdicts: Vec<usize>,
    mix: Mix,
    hits: u64,
    misses: u64,
}

fn config() -> PipelineConfig {
    PipelineConfig {
        threads: 1,
        verify_cache: true,
        ..PipelineConfig::default()
    }
}

fn serve(seed: u64, index: u64, speed: &Speed, checks: &mut Checks) -> Session {
    let (requests, mix) = Traffic::take(stream_seed(seed, index), SESSION);
    let (pipeline, setup_wall_s, factor) = speed.timed(|| {
        let pipeline = DpoAf::new(config());
        for &(tid, text) in WARM_UP {
            let warm = dpo_af::score_response(&pipeline.bundle, &pipeline.bundle.tasks[tid], text);
            checks.check(warm.controller.is_some(), || {
                format!("warm-up response for task {tid} did not align")
            });
        }
        pipeline
    });
    let setup_s = setup_wall_s * factor;
    let served = closed_loop(2, &requests, speed, |r| {
        pipeline.score_formal(&pipeline.bundle.tasks[r.task], &r.text)
    });
    let (hits, misses) = pipeline.cache_stats();
    Session {
        setup_s,
        wall_s: served.wall_s,
        factor: served.factor,
        latency_ms: served.latency_ms,
        requests,
        verdicts: served.values,
        mix,
        hits,
        misses,
    }
}

impl Session {
    /// Session wall time at the reference machine speed.
    fn norm_wall_s(&self) -> f64 {
        self.wall_s * self.factor
    }

    /// Positions of first sightings (one per distinct key).
    fn firsts(&self) -> Vec<usize> {
        (0..self.requests.len())
            .filter(|&i| self.requests[i].kind != Kind::Repeat)
            .collect()
    }
}

/// Every request for one key got the verdict its first sighting got.
pub fn consistent(requests: &[Request], verdicts: &[usize], checks: &mut Checks) {
    let mut first: Vec<Option<usize>> = vec![None; requests.len()];
    for (r, &v) in requests.iter().zip(verdicts) {
        match first[r.key] {
            None => first[r.key] = Some(v),
            Some(f) => checks.check(f == v, || {
                format!("key {} served {v}, first served {f}", r.key)
            }),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    // Traced runs serve the same sessions twice: untraced (the overhead
    // baseline), then traced.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = repetitions(window, NOMINAL_SESSION_S, MIN_SESSIONS);
    let speed = Speed::new();
    let sessions: Vec<Session> = (0..count)
        .map(|i| serve(args.seed, i as u64, &speed, &mut checks))
        .collect();
    let mut traced_sessions = Vec::new();
    let mut snap = None;
    if args.trace {
        obskit::enable();
        traced_sessions = (0..count)
            .map(|i| serve(args.seed, i as u64, &speed, &mut checks))
            .collect();
        snap = Some(obskit::snapshot());
    }

    let all = || sessions.iter().chain(&traced_sessions);
    let mut mix = Mix::default();
    let (mut hits, mut misses, mut distinct) = (0u64, 0u64, 0u64);
    for s in all() {
        consistent(&s.requests, &s.verdicts, &mut checks);
        mix.add(s.mix);
        hits += s.hits;
        misses += s.misses;
        distinct += (s.mix.total - s.mix.repeats) as u64;
    }

    // Certkit re-validation of a seeded sample of distinct keys, taken
    // across sessions.
    let firsts: Vec<(&Session, usize)> = all()
        .flat_map(|s| s.firsts().into_iter().map(move |i| (s, i)))
        .collect();
    let bundle = dpo_af::DomainBundle::new();
    let mut pick = SplitMix::new(args.seed ^ 0x5e55);
    let positions: Vec<usize> = (0..firsts.len()).collect();
    for p in sample_indices(&positions, CERTIFIED, &mut pick) {
        let (s, i) = firsts[p];
        certify(
            &bundle,
            s.requests[i].task,
            &s.requests[i].text,
            s.verdicts[i],
            &mut checks,
        );
    }

    // Profiled per session, as each session is its own stream.
    let mut profile = Profile::default();
    for s in &sessions {
        if profile.first_sightings >= PROFILED {
            break;
        }
        profile.add(Profile::of(
            &bundle,
            s.firsts().into_iter().map(|i| {
                (
                    s.requests[i].task,
                    s.requests[i].text.as_str(),
                    s.verdicts[i],
                )
            }),
        ));
    }
    profile.report(&bundle, &mut out);
    let hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    if let Some(snap) = snap {
        let base = median(
            &sessions
                .iter()
                .map(Session::norm_wall_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        let traced = median(
            &traced_sessions
                .iter()
                .map(Session::norm_wall_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        layers.set(
            "obskit.trace_overhead_pct",
            overhead_pct(base, traced),
            Some(traced_sessions.len()),
        );
        let per_session = |v: f64| v / traced_sessions.len() as f64;
        let (verify_s, verifies) = span_total(&snap, "pipeline.verify");
        layers.set("pipeline.verify_s", per_session(verify_s), Some(verifies));
        layers.set(
            "glm2fsa.synth_calls",
            per_session(span_total(&snap, "pipeline.parse").1 as f64),
            None,
        );
        layers.set(
            "ltlcheck.checks",
            per_session(counter(&snap, "ltlcheck.checks") as f64),
            None,
        );
        layers.set(
            "ltlcheck.product_states",
            per_session(counter(&snap, "ltlcheck.product_states") as f64),
            None,
        );
        for (metric, name) in [
            ("cache.evictions", "verify.cache_evictions"),
            ("pool.tasks", "pool.tasks"),
            ("pool.steals", "pool.steals"),
        ] {
            layers.set(metric, per_session(counter(&snap, name) as f64), None);
        }
        layers.set("cache.hit_ratio", hit_ratio, Some((hits + misses) as usize));
        layers.set(
            "cache.dup_miss_share",
            ratio(misses.saturating_sub(distinct) as f64, misses as f64),
            Some(misses as usize),
        );

        obskit::enable();
        let first = &sessions[0];
        let idx = sample_indices(&first.firsts(), REPLAYED, &mut pick);
        let responses: Vec<(usize, &str)> = idx
            .iter()
            .map(|&i| (first.requests[i].task, first.requests[i].text.as_str()))
            .collect();
        let verdicts: Vec<usize> = idx.iter().map(|&i| first.verdicts[i]).collect();
        Replay::run(&bundle, &responses, &verdicts, &mut checks).report(&mut layers);
        obskit::disable();
        write_trace(args, &obskit::snapshot());
        layers.report(&mut out);
    } else {
        let latencies: Vec<(&[f64], f64)> = sessions
            .iter()
            .map(|s| (s.latency_ms.as_slice(), s.factor))
            .collect();
        let jobs: Vec<(f64, f64)> = sessions.iter().map(|s| (s.wall_s, s.factor)).collect();
        let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
        let rates: Vec<f64> = sessions
            .iter()
            .map(|s| SESSION as f64 / s.norm_wall_s())
            .collect();
        let rps = median(&rates).unwrap_or(0.0);
        let miss_ms: Vec<f64> = sessions
            .iter()
            .flat_map(|s| {
                s.firsts()
                    .into_iter()
                    .map(move |i| s.latency_ms[i] * s.factor)
            })
            .collect();
        report_miss_latency(&miss_ms, &mut out);
        out.end_to_end(&setups, &jobs, &latencies, rps, &speed, &mut checks);
        out.note(
            "cache.hit_ratio",
            hit_ratio,
            "share",
            Some((hits + misses) as usize),
        );
    }
    out.note(
        "traffic.repeat_share",
        mix.repeat_share(),
        "share",
        Some(mix.total),
    );
    out.note(
        "traffic.paraphrase_share",
        mix.paraphrase_share(),
        "share",
        Some(mix.total),
    );
    out.note(
        "traffic.unalignable_share",
        mix.unalignable_share(),
        "share",
        Some(mix.total),
    );
    out.checks = checks;
    out
}
