//! Pieces every workload shares: arguments, correctness accounting, the
//! closed-loop clients, memory readout, obskit snapshot queries and the
//! result printer.

use crate::speed::Speed;
use crate::stats::{median, Latency};
use crate::traffic::SplitMix;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Where run reports and traces go.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--workload w --seed n --seconds s --trace 0|1 [--out-dir d]`.
    pub fn parse(argv: &[String]) -> Option<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next()?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().ok()?),
                "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    })
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return None,
            }
        }
        Some(Args {
            workload: workload?,
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
            out_dir,
        })
    }
}

/// Correctness accounting: every output checked counts as attempted;
/// those that fail their check count as failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Failed outputs over attempted outputs.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Sample count behind the value, when it is a statistic.
    pub n: Option<usize>,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness accounting.
    pub checks: Checks,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Further named figures: printed and written to the run report, but
    /// not part of the result line (aliases, traffic mix, backend split).
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: Option<usize>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
        });
    }

    /// Adds a note.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, n: Option<usize>) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
        });
    }

    /// Adds the end-to-end metrics every workload reports. `setups` are
    /// set-up times at the reference speed; `jobs` are `(wall seconds, speed factor)`
    /// per repetition; `latency_ms` holds per-verification latencies in
    /// groups with their speed factor (one group per session where a
    /// workload has sessions); `rps` is the verification rate at the
    /// reference speed. Times are reported at the reference speed (see
    /// [`crate::speed`]) as medians over repetitions; p50 and p99 are
    /// taken within each group and the median over groups is reported.
    /// Raw job time and the median probe are added as notes.
    pub fn end_to_end(
        &mut self,
        setups: &[f64],
        jobs: &[(f64, f64)],
        latency_ms: &[(&[f64], f64)],
        rps: f64,
        speed: &Speed,
        checks: &mut Checks,
    ) {
        let groups: Vec<Latency> = latency_ms
            .iter()
            .filter_map(|(g, f)| Latency::of(&g.iter().map(|ms| ms * f).collect::<Vec<_>>()))
            .collect();
        let n = groups.iter().map(|l| l.n).sum();
        let beyond = groups.iter().map(|l| l.p99_beyond).min().unwrap_or(0);
        if groups.iter().any(|l| !l.p99_supported()) {
            eprintln!("perfbench: only {beyond} samples lie beyond verify_p99_ms in some group");
        }
        let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
        self.metric("setup_s", med(setups.to_vec()), "s", Some(setups.len()));
        self.metric(
            "job_s",
            med(jobs.iter().map(|(w, f)| w * f).collect()),
            "s",
            Some(jobs.len()),
        );
        self.metric(
            "verify_p50_ms",
            med(groups.iter().map(|l| l.p50).collect()),
            "ms",
            Some(n),
        );
        self.metric(
            "verify_p99_ms",
            med(groups.iter().map(|l| l.p99).collect()),
            "ms",
            Some(n),
        );
        self.metric("verify_rps", rps, "1/s", Some(n));
        match peak_rss_mb() {
            Ok(mb) => self.metric("peak_rss_mb", mb, "MB", None),
            Err(e) => checks.check(false, || e),
        }
        self.note(
            "job_s_raw",
            med(jobs.iter().map(|(w, _)| *w).collect()),
            "s",
            Some(jobs.len()),
        );
        self.note("probe_us", speed.median_probe_s() * 1e6, "us", None);
        self.note("verify_latency_groups", groups.len() as f64, "count", None);
        self.note("verify_p99_samples_beyond", beyond as f64, "count", None);
    }

    /// Prints the human-readable lines and, last, the JSON result line;
    /// writes the run report. Fails (printing no result) when the
    /// metrics do not match `expected` exactly.
    pub fn finish(self, args: &Args, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            let found: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == *name).collect();
            match found.as_slice() {
                [m] if m.unit == *unit && m.value.is_finite() => ordered.push(*m),
                [m] => {
                    return Err(format!(
                        "metric {name}: bad unit or value ({} {})",
                        m.value, m.unit
                    ))
                }
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} reported twice")),
            }
        }
        if self.metrics.len() != expected.len() {
            return Err("unexpected extra metrics".into());
        }

        let mode = if args.trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!(
            "perfbench {} seed={} seconds={} — {mode}",
            args.workload, args.seed, args.seconds
        );
        for m in ordered.iter().copied().chain(&self.notes) {
            println!("{}", human(m));
        }
        println!(
            "  {:<28} {} ({} of {} outputs failed their check)",
            "failed_share",
            self.checks.failed_share(),
            self.checks.failed,
            self.checks.attempted
        );
        for f in &self.checks.failures {
            println!("  FAILED: {f}");
        }

        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, m) in ordered.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");

        if let Err(e) = self.write_report(args, &ordered) {
            eprintln!("perfbench: could not write the run report: {e}");
        }
        println!("{line}");
        Ok(())
    }

    fn write_report(&self, args: &Args, ordered: &[&Metric]) -> std::io::Result<()> {
        use obskit::json::Value;
        let metric = |m: &Metric| {
            let mut fields = vec![
                ("name".to_owned(), Value::Str(m.name.clone())),
                ("value".to_owned(), Value::Num(m.value)),
                ("unit".to_owned(), Value::Str(m.unit.clone())),
            ];
            if let Some(n) = m.n {
                fields.push(("n".to_owned(), Value::Num(n as f64)));
            }
            Value::Obj(fields)
        };
        let report = Value::Obj(vec![
            ("schema".into(), Value::Str("perfbench.run.v1".into())),
            ("workload".into(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::Num(args.seed as f64)),
            ("seconds".into(), Value::Num(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("attempted".into(), Value::Num(self.checks.attempted as f64)),
            ("failed".into(), Value::Num(self.checks.failed as f64)),
            (
                "failed_share".into(),
                Value::Num(self.checks.failed_share()),
            ),
            (
                "failures".into(),
                Value::Arr(
                    self.checks
                        .failures
                        .iter()
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Value::Arr(ordered.iter().map(|m| metric(m)).collect()),
            ),
            (
                "notes".into(),
                Value::Arr(self.notes.iter().map(metric).collect()),
            ),
        ]);
        std::fs::create_dir_all(&args.out_dir)?;
        std::fs::write(run_file(args, "run.json"), report.to_json_pretty())
    }
}

/// Up to `k` of `items`, chosen without replacement, in item order.
pub fn sample_indices(items: &[usize], k: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut pool = items.to_vec();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    let mut chosen = pool[..k].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Re-validates one served verdict through certkit: every model-checking
/// verdict behind the certified score must carry evidence the
/// independent checker accepts, and the score must equal `served`.
pub fn certify(
    bundle: &dpo_af::DomainBundle,
    tid: usize,
    text: &str,
    served: usize,
    checks: &mut Checks,
) {
    let task = &bundle.tasks[tid];
    let certified = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dpo_af::feedback::score_response_certified(bundle, task, text)
            .0
            .num_satisfied
    }));
    match certified {
        Ok(n) => checks.check(n == served, || {
            format!("task {tid} `{text}`: served {served}, certified {n}")
        }),
        Err(_) => checks.check(false, || {
            format!("task {tid} `{text}`: certkit rejected a verdict's evidence")
        }),
    }
}

/// `<out-dir>/<workload>-s<seed>-t<trace>.<suffix>`.
pub fn run_file(args: &Args, suffix: &str) -> PathBuf {
    args.out_dir.join(format!(
        "{}-s{}-t{}.{suffix}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

fn human(m: &Metric) -> String {
    let n = m.n.map(|n| format!("  (n={n})")).unwrap_or_default();
    format!("  {:<28} {:>14.6} {}{n}", m.name, m.value, m.unit)
}

/// What a closed-loop pass served.
#[derive(Debug)]
pub struct Served<V> {
    /// Per-item results, in item order.
    pub values: Vec<V>,
    /// Per-item service time in ms, in item order.
    pub latency_ms: Vec<f64>,
    /// Wall time from the first send to the last reply.
    pub wall_s: f64,
    /// The normalisation factor over the pass (see [`Speed::factor`]).
    pub factor: f64,
}

/// Items a client serves between two probes of its core.
const PROBE_EVERY: usize = 16;

/// Serves `items` with `clients` closed-loop clients: each client sends
/// the next unsent item as soon as its previous one returns. Latency is
/// the time inside `serve`. Each client probes its core (outside the
/// timed calls) before its first item and every [`PROBE_EVERY`] items.
pub fn closed_loop<T: Sync, V: Send + Default + Clone>(
    clients: usize,
    items: &[T],
    speed: &Speed,
    serve: impl Fn(&T) -> V + Sync,
) -> Served<V> {
    let next = AtomicUsize::new(0);
    let t0 = speed.now();
    let start = Instant::now();
    let per_client: Vec<Vec<(usize, V, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        if out.len() % PROBE_EVERY == 0 {
                            let _ = speed.probe();
                        }
                        let t = Instant::now();
                        let v = serve(item);
                        out.push((i, v, t.elapsed().as_secs_f64() * 1e3));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let factor = speed.factor(t0, speed.now());
    let mut values = vec![V::default(); items.len()];
    let mut latency_ms = vec![0.0; items.len()];
    for (i, v, ms) in per_client.into_iter().flatten() {
        values[i] = v;
        latency_ms[i] = ms;
    }
    Served {
        values,
        latency_ms,
        wall_s,
        factor,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_owned())
}

/// Seconds spent in closed spans named `name`, and how many there were.
pub fn span_total(snap: &obskit::Snapshot, name: &str) -> (f64, usize) {
    let mut total_us = 0u64;
    let mut count = 0;
    for r in snap
        .span_records
        .iter()
        .filter(|r| r.name == name && r.is_closed())
    {
        total_us += r.dur_us;
        count += 1;
    }
    (total_us as f64 / 1e6, count)
}

/// The value of counter `name` (0 when never touched).
pub fn counter(snap: &obskit::Snapshot, name: &str) -> u64 {
    snap.metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Writes the traced run's Chrome trace and `obskit.bench.v2` report.
pub fn write_trace(args: &Args, snap: &obskit::Snapshot) {
    let argv = vec![
        format!("--workload={}", args.workload),
        format!("--seed={}", args.seed),
        format!("--seconds={}", args.seconds),
    ];
    let report =
        obskit::BenchReport::from_snapshot(&format!("perfbench.{}", args.workload), &argv, snap);
    let chrome = obskit::chrome::chrome_trace_full(
        &snap.span_records,
        &snap.events,
        &snap.thread_names,
        &snap.samples,
        Some("perfbench"),
    );
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(run_file(args, "report.json"), report.to_json()))
        .and_then(|()| std::fs::write(run_file(args, "trace.json"), chrome));
    match written {
        Ok(()) => eprintln!(
            "perfbench: trace written to {}",
            run_file(args, "trace.json").display()
        ),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
}

/// How many units of nominally `nominal_s` seconds fill `seconds` (at
/// least `min`). The count depends on the arguments only, not on how fast
/// the program runs, so every run of one configuration measures the same
/// work and a faster program finishes sooner instead of doing more.
pub fn repetitions(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// `(after / before − 1) · 100`: the traced run's extra time in percent.
pub fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    if untraced_s > 0.0 {
        (traced_s / untraced_s - 1.0) * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_counts_failures_over_attempts() {
        let mut c = Checks::default();
        assert_eq!(c.failed_share(), 0.0);
        for i in 0..9 {
            c.check(true, || format!("ok {i}"));
        }
        c.check(false, || "seeded wrong verdict".into());
        assert_eq!((c.attempted, c.failed), (10, 1));
        assert_eq!(c.failed_share(), 0.1);
        assert_eq!(c.failures, vec!["seeded wrong verdict".to_owned()]);
    }

    #[test]
    fn closed_loop_serves_every_item_once_in_order() {
        let items: Vec<u32> = (0..500).collect();
        let served = closed_loop(2, &items, &Speed::new(), |x| x * 2);
        assert_eq!(
            served.values,
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(served.latency_ms.len(), 500);
        assert!(served.wall_s > 0.0 && served.factor > 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload finetune --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("finetune", 3, 10.0, true)
        );
        assert!(Args::parse(&argv("--workload finetune --seed 3 --seconds 10")).is_none());
        assert!(
            Args::parse(&argv("--workload finetune --seed x --seconds 10 --trace 0")).is_none()
        );
        assert!(
            Args::parse(&argv("--workload finetune --seed 3 --seconds 10 --trace 2")).is_none()
        );
    }

    #[test]
    fn repetitions_follow_the_arguments() {
        assert_eq!(repetitions(20.0, 1.3, 3), 15);
        assert_eq!(repetitions(1.0, 1.3, 3), 3);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
