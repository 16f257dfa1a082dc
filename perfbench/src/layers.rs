//! Per-layer metrics: the list every traced run reports, and the layered
//! replay that measures the verification layers from outside.
//!
//! The replay walks responses through the same public functions
//! `dpo_af::score_response` composes — `speclint` response preflight,
//! `glm2fsa` synthesis, the `autokit` product, one `ltlcheck` check per
//! specification — timing each call and wrapping it in an obskit span,
//! so the trace shows the layers without any instrumentation inside the
//! program.

use crate::common::{Checks, Outcome};
use crate::stats::Latency;
use autokit::{DeadlockPolicy, Product};
use dpo_af::DomainBundle;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics: name and unit. Every traced run reports all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("speclint.semantic_s", "s"),
    ("speclint.preflight_us", "us"),
    ("speclint.reject_share", "share"),
    ("glm2fsa.synth_us", "us"),
    ("glm2fsa.synth_calls", "count"),
    ("glm2fsa.fail_share", "share"),
    ("autokit.product_ms", "ms"),
    ("autokit.product_nodes", "count"),
    ("ltlcheck.check_p50_ms", "ms"),
    ("ltlcheck.check_p99_ms", "ms"),
    ("ltlcheck.checks", "count"),
    ("ltlcheck.product_states", "count"),
    ("symbolic.check_ms", "ms"),
    ("bdd.peak_nodes", "count"),
    ("bdd.cache_hit_ratio", "share"),
    ("cache.hit_ratio", "share"),
    ("cache.dup_miss_share", "share"),
    ("cache.evictions", "count"),
    ("tinylm.pretrain_s", "s"),
    ("tinylm.sample_s", "s"),
    ("dpo.train_s", "s"),
    ("dpo.forward_s", "s"),
    ("dpo.backward_s", "s"),
    ("dpo.ref_s", "s"),
    ("dpo.pairs_per_s", "1/s"),
    ("pipeline.collect_s", "s"),
    ("pipeline.eval_s", "s"),
    ("pipeline.verify_s", "s"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("obskit.trace_overhead_pct", "%"),
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, Option<usize>)>);

impl Layers {
    /// Sets a metric (must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, n: Option<usize>) {
        debug_assert!(PER_LAYER.iter().any(|(m, _)| *m == name), "{name}");
        self.0.insert(name, (value, n));
    }

    /// Moves every per-layer metric into `outcome`, 0 where unmeasured.
    pub fn report(self, outcome: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            let (value, n) = self.0.get(name).copied().unwrap_or((0.0, None));
            outcome.metric(name, value, unit, n);
        }
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Timings from a layered replay.
#[derive(Debug, Default)]
pub struct Replay {
    preflight_us: Vec<f64>,
    rejected: usize,
    synth_us: Vec<f64>,
    synth_failed: usize,
    product_ms: Vec<f64>,
    product_nodes: Vec<f64>,
    /// Explicit-checker time per specification check, ms.
    check_ms: Vec<f64>,
}

impl Replay {
    /// Replays `(task, text)` responses layer by layer; `verdicts[i]` is
    /// the score the program served for response `i`, and each replayed
    /// score must equal it.
    pub fn run(
        bundle: &DomainBundle,
        responses: &[(usize, &str)],
        verdicts: &[usize],
        checks: &mut Checks,
    ) -> Replay {
        let _replay = obskit::span("bench.replay");
        let specs = ltlcheck::specs::driving_specs(&bundle.driving);
        let mut r = Replay::default();
        for (&(tid, text), &served) in responses.iter().zip(verdicts) {
            let task = &bundle.tasks[tid];
            let t = Instant::now();
            let preflight = {
                let _s = obskit::span("bench.speclint.preflight");
                dpo_af::feedback::preflight_response(bundle, task, text)
            };
            r.preflight_us.push(t.elapsed().as_secs_f64() * 1e6);
            if preflight.is_err() {
                r.rejected += 1;
                checks.check(served == 0, || {
                    format!("replay: rejected `{text}` was served {served}")
                });
                continue;
            }
            let steps = DomainBundle::split_steps(text);
            let t = Instant::now();
            let ctrl = {
                let _s = obskit::span("bench.glm2fsa.synthesize");
                glm2fsa::synthesize(
                    &task.prompt,
                    &steps,
                    &bundle.lexicon,
                    dpo_af::feedback::fsa_options(&bundle.driving),
                )
                .map(|c| glm2fsa::with_default_action(&c, bundle.driving.stop))
            };
            r.synth_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(ctrl) = ctrl else {
                r.synth_failed += 1;
                checks.check(served == 0, || {
                    format!("replay: unaligned `{text}` was served {served}")
                });
                continue;
            };
            let model = dpo_af::feedback::scenario_model(&bundle.driving, task.scenario);
            let justice = dpo_af::feedback::justice_for(&bundle.driving, task.scenario);
            let t = Instant::now();
            let graph = {
                let _s = obskit::span("bench.autokit.product");
                Product::build(&model, &ctrl).label_graph(DeadlockPolicy::Stutter)
            };
            r.product_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.product_nodes.push(graph.num_nodes() as f64);
            let mut holds = 0;
            for spec in &specs {
                let t = Instant::now();
                let verdict = {
                    let _s = obskit::span("bench.ltlcheck.check");
                    ltlcheck::check_graph_fair(&graph, &spec.formula, &justice)
                };
                r.check_ms.push(t.elapsed().as_secs_f64() * 1e3);
                holds += usize::from(verdict.holds());
            }
            checks.check(holds == served, || {
                format!("replay: `{text}` holds {holds}, served {served}")
            });
        }
        r
    }

    /// Reports the replay's layer metrics.
    pub fn report(&self, layers: &mut Layers) {
        let calls = self.preflight_us.len();
        layers.set(
            "speclint.preflight_us",
            mean(&self.preflight_us),
            Some(calls),
        );
        layers.set(
            "speclint.reject_share",
            ratio(self.rejected as f64, calls as f64),
            Some(calls),
        );
        layers.set(
            "glm2fsa.synth_us",
            mean(&self.synth_us),
            Some(self.synth_us.len()),
        );
        layers.set(
            "glm2fsa.fail_share",
            ratio(self.synth_failed as f64, self.synth_us.len() as f64),
            Some(self.synth_us.len()),
        );
        layers.set(
            "autokit.product_ms",
            mean(&self.product_ms),
            Some(self.product_ms.len()),
        );
        layers.set(
            "autokit.product_nodes",
            mean(&self.product_nodes),
            Some(self.product_nodes.len()),
        );
        if let Some(l) = Latency::of(&self.check_ms) {
            layers.set("ltlcheck.check_p50_ms", l.p50, Some(l.n));
            layers.set("ltlcheck.check_p99_ms", l.p99, Some(l.n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units, and the workloads the binary knows.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = obskit::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(crate::END_TO_END));
        assert_eq!(names("per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn replay_matches_served_verdicts_and_catches_a_wrong_one() {
        let bundle = DomainBundle::new();
        let (requests, _) = crate::traffic::Traffic::take(2, 40);
        let responses: Vec<(usize, &str)> =
            requests.iter().map(|r| (r.task, r.text.as_str())).collect();
        let truth: Vec<usize> = responses
            .iter()
            .map(|&(t, text)| dpo_af::score_response(&bundle, &bundle.tasks[t], text).num_satisfied)
            .collect();
        let mut checks = Checks::default();
        let replay = Replay::run(&bundle, &responses, &truth, &mut checks);
        assert_eq!(
            (checks.attempted, checks.failed),
            (40, 0),
            "{:?}",
            checks.failures
        );
        assert!(!replay.check_ms.is_empty());

        // One seeded wrong verdict is one failed output.
        let mut wrong = truth.clone();
        wrong[7] += 1;
        let mut checks = Checks::default();
        Replay::run(&bundle, &responses, &wrong, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (40, 1));
    }
}
