//! The DPO-AF loop: sample responses → verify → rank → fine-tune.
//!
//! Stages are exposed individually so experiments can rewire them (e.g.
//! swapping formal verification for empirical feedback in ablation A1),
//! and [`DpoAf::run`] glues the standard pipeline together:
//!
//! 1. [`DpoAf::pretrained_lm`] — pretrain the base model on the mixed
//!    corpus ("Llama2 before fine-tuning"), then attach LoRA adapters.
//! 2. [`DpoAf::collect_dataset`] — sample `m` responses per training
//!    task, score each by the number of satisfied specifications, and
//!    form all strictly-ordered preference pairs (`N · C(m,2)` bound).
//! 3. DPO fine-tuning with per-epoch metrics (Figure 8) and a checkpoint
//!    evaluation every `checkpoint_every` epochs (Figure 9).

use crate::cache::{CachedScore, VerifyCache};
use crate::domain::DomainBundle;
use crate::domain::TaskSpec;
use crate::feedback::{
    empirical_rates, score_response, score_response_certified, score_tokens,
    score_tokens_certified, CertCounters,
};
use dpo::{DpoTrainer, EpochStats, PreferenceDataset, TrainOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use tinylm::{pretrain, AdaptMode, CondLm, LmConfig, PretrainOptions, SampleOptions};

/// Pipeline hyperparameters.
///
/// Defaults are scaled for a CPU-minutes run; the paper's GPU-scale
/// numbers (≈3000 pairs, 200 epochs, Llama2-7B) map onto the same code by
/// raising `responses_per_task`, `rounds` and `train.epochs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Master seed; every stage derives its RNG from it.
    pub seed: u64,
    /// Pretraining corpus size.
    pub corpus_size: usize,
    /// Pretraining options.
    pub pretrain: PretrainOptions,
    /// Responses sampled per task per round (`m`).
    pub responses_per_task: usize,
    /// Sampling rounds per task when building the dataset.
    pub rounds: usize,
    /// Sampling temperature during dataset collection.
    pub temperature: f32,
    /// LoRA rank attached after pretraining (0 = full fine-tuning).
    pub lora_rank: usize,
    /// DPO training options.
    pub train: TrainOptions,
    /// Evaluate a checkpoint every this many epochs (paper: 20).
    pub checkpoint_every: usize,
    /// Task ids excluded from DPO training and used as validation.
    pub validation_tasks: Vec<usize>,
    /// Responses sampled per task when evaluating a checkpoint.
    pub eval_samples: usize,
    /// Sampling temperature at evaluation time.
    pub eval_temperature: f32,
    /// DPO-AF iterations: after each DPO phase, a fresh dataset is
    /// sampled from the *improved* policy (with the policy snapshot as
    /// the new DPO reference) and training continues. The paper's
    /// automated feedback makes data "unlimited … until the language
    /// model converges" (Section 4), which is exactly this loop.
    pub iterations: usize,
    /// Language-model hidden width.
    pub lm_hidden: usize,
    /// Language-model context window (tokens).
    pub lm_context: usize,
    /// Where the ranking signal comes from (paper §4.2: formal
    /// verification, or empirical evaluation in the simulator when no
    /// world model is available).
    pub feedback: FeedbackSource,
    /// Certified mode: every model-checking verdict behind a score is
    /// accompanied by evidence (an emptiness certificate or a lasso
    /// counterexample) that `certkit`'s independent checker validates
    /// before the verdict may rank responses. A rejected certificate
    /// aborts the run — a silent model-checker bug would otherwise poison
    /// every preference pair. Off by default (it roughly doubles
    /// verification cost; see EXPERIMENTS.md).
    pub certified: bool,
    /// Worker threads for the formal-scoring fan-out (0 = resolve from
    /// `PARKIT_THREADS`, falling back to the machine's available
    /// parallelism). Purely a scheduling knob: artifacts are
    /// byte-identical at any thread count.
    pub threads: usize,
    /// Memoize formal verdicts by `(scenario, response text)` so repeated
    /// responses skip synthesis and model checking. Never changes scores
    /// or certified counters; on by default.
    pub verify_cache: bool,
    /// Maximum resident verdicts in the memo-cache (`None` = unbounded).
    /// Past the bound the least-recently-used entry in the affected shard
    /// is evicted (LRU — both hits and overwrites refresh recency) and
    /// `verify.cache_evictions` counts it. Purely a memory knob: an
    /// evicted verdict recomputes on the next miss, so artifacts are
    /// byte-identical at any capacity. The default bound keeps a
    /// long-running service's cache a working set, not a leak.
    pub verify_cache_capacity: Option<usize>,
    /// Semantic pre-flight of the rule book
    /// ([`crate::feedback::preflight_rule_book_semantic`]): abort on
    /// `Error`-class `SL3xx` findings (empty-language or
    /// conflicting-under-world rules) before any sampling. A pure gate —
    /// artifacts are byte-identical with it on or off; on by default.
    /// The verdict is memoized per rule book, so a process pays one
    /// semantic sweep per distinct rule book, not per run. The switch
    /// exists for [`PipelineConfig::smoke`], which turns it off so
    /// debug-build tests do not pay the release-grade sweep.
    pub semantic_preflight: bool,
}

/// The source of the automated ranking signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FeedbackSource {
    /// Model-check the controller against the 15 specifications in the
    /// task's scenario model (paper Equation 1).
    Formal,
    /// Run the controller in the simulator and count specifications whose
    /// satisfaction rate `P_Φ` reaches 1.0 over the episodes (paper
    /// Equation 2). Chosen when a world model cannot be obtained.
    Empirical {
        /// Episodes per response.
        episodes: usize,
        /// Ticks per episode.
        steps: usize,
    },
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 7,
            corpus_size: 1200,
            pretrain: PretrainOptions {
                epochs: 8,
                lr: 0.01,
                batch_size: 16,
            },
            responses_per_task: 6,
            rounds: 4,
            temperature: 1.1,
            lora_rank: 4,
            // `epochs` is per DPO-AF iteration; with the default 3
            // iterations the total schedule is ≈200 epochs, the paper's
            // x-axis range.
            train: TrainOptions {
                beta: 0.6,
                lr: 1.5e-3,
                batch_size: 8,
                epochs: 68,
                pairs_per_epoch: Some(48),
            },
            checkpoint_every: 20,
            validation_tasks: vec![6, 8],
            eval_samples: 6,
            eval_temperature: 0.6,
            iterations: 4,
            lm_hidden: 64,
            lm_context: 5,
            feedback: FeedbackSource::Formal,
            certified: false,
            threads: 0,
            verify_cache: true,
            verify_cache_capacity: Some(1 << 16),
            semantic_preflight: true,
        }
    }
}

impl PipelineConfig {
    /// A heavily reduced configuration for tests.
    pub fn smoke() -> Self {
        PipelineConfig {
            corpus_size: 150,
            pretrain: PretrainOptions {
                epochs: 2,
                lr: 0.01,
                batch_size: 16,
            },
            responses_per_task: 3,
            rounds: 1,
            train: TrainOptions {
                epochs: 4,
                pairs_per_epoch: Some(8),
                ..TrainOptions::default()
            },
            checkpoint_every: 2,
            eval_samples: 1,
            iterations: 1,
            lm_hidden: 24,
            lm_context: 3,
            // The semantic sweep over all five scenario worlds is a
            // release-grade workload; keep the many debug-mode smoke
            // tests fast. The gate itself is covered by speclint's own
            // tests and the instrumented headline run in CI.
            semantic_preflight: false,
            ..PipelineConfig::default()
        }
    }
}

/// One checkpoint evaluation point — a sample of the Figure 9 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEval {
    /// DPO epoch at which the checkpoint was taken (0 = pre-fine-tuning).
    pub epoch: usize,
    /// Mean number of satisfied specifications over sampled responses to
    /// *training* tasks.
    pub train_score: f64,
    /// Same over held-out *validation* tasks.
    pub val_score: f64,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunArtifacts {
    /// The frozen pre-fine-tuning model (the DPO reference).
    pub reference: CondLm,
    /// The fine-tuned policy.
    pub policy: CondLm,
    /// Per-epoch DPO metrics (Figure 8 panels).
    pub epoch_stats: Vec<EpochStats>,
    /// Checkpoint evaluations, including epoch 0 (Figure 9 series).
    pub checkpoint_evals: Vec<CheckpointEval>,
    /// Number of preference pairs collected.
    pub dataset_size: usize,
    /// Certificate-validation counters accumulated over the whole run.
    /// All zeros unless [`PipelineConfig::certified`] was set.
    pub cert: CertCounters,
}

impl RunArtifacts {
    /// Serializes the artifacts to a JSON file, so expensive runs can be
    /// checkpointed to disk and post-processed by other experiments.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), self).map_err(std::io::Error::other)
    }

    /// Loads artifacts previously written by [`RunArtifacts::save`].
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<RunArtifacts> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(file)).map_err(std::io::Error::other)
    }
}

/// The assembled DPO-AF pipeline.
#[derive(Debug)]
pub struct DpoAf {
    /// The task domain.
    pub bundle: DomainBundle,
    /// Hyperparameters.
    pub config: PipelineConfig,
    /// Accumulated certificate-validation counters (certified mode).
    /// Interior mutability because scoring happens behind `&self` in
    /// sampling and evaluation closures; a mutex (not a `RefCell`)
    /// because those closures run on pool workers.
    cert_counters: Mutex<CertCounters>,
    /// Memoized formal verdicts, shared across rounds, iterations and
    /// checkpoint evaluations.
    cache: VerifyCache,
    /// The work-stealing pool behind the scoring fan-out.
    pool: parkit::ThreadPool,
}

impl DpoAf {
    /// Creates a pipeline over a fresh [`DomainBundle`].
    pub fn new(config: PipelineConfig) -> Self {
        DpoAf {
            bundle: DomainBundle::new(),
            cert_counters: Mutex::new(CertCounters::default()),
            cache: VerifyCache::new(config.verify_cache_capacity),
            pool: parkit::ThreadPool::with_threads(config.threads),
            config,
        }
    }

    fn lock_cert(&self) -> std::sync::MutexGuard<'_, CertCounters> {
        match self.cert_counters.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The certificate-validation counters accumulated so far (all zeros
    /// unless [`PipelineConfig::certified`] is set).
    pub fn cert_counters(&self) -> CertCounters {
        *self.lock_cert()
    }

    /// The pool the scoring fan-out runs on.
    pub fn pool(&self) -> &parkit::ThreadPool {
        &self.pool
    }

    /// `(hits, misses)` of the verification memo-cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// The language-model configuration implied by the domain.
    pub fn lm_config(&self) -> LmConfig {
        LmConfig {
            vocab_size: self.bundle.tokenizer.vocab_size(),
            num_tasks: self.bundle.tasks.len(),
            adapt: AdaptMode::Full,
            hidden: self.config.lm_hidden,
            context: self.config.lm_context,
            ..LmConfig::default()
        }
    }

    /// Pretrains the base model on the mixed-quality corpus and attaches
    /// the configured adapters — the "pre-trained language model" DPO-AF
    /// starts from.
    pub fn pretrained_lm(&self, rng: &mut impl Rng) -> CondLm {
        let _stage = obskit::span("pipeline.pretrain");
        let mut lm = CondLm::new(self.lm_config(), rng);
        let corpus = self.bundle.pretraining_corpus(self.config.corpus_size, rng);
        pretrain(&mut lm, &corpus, self.config.pretrain, rng);
        if self.config.lora_rank > 0 {
            lm.convert_adapt(
                AdaptMode::Lora {
                    rank: self.config.lora_rank,
                },
                rng,
            )
        } else {
            lm
        }
    }

    /// Task ids used for DPO training (everything not held out).
    pub fn training_tasks(&self) -> Vec<usize> {
        (0..self.bundle.tasks.len())
            .filter(|t| !self.config.validation_tasks.contains(t))
            .collect()
    }

    /// Scores one response under the configured [`FeedbackSource`]: the
    /// number of specifications satisfied, by model checking or by
    /// simulator rollouts.
    ///
    /// Formal feedback never touches `rng` — the verdict is a pure
    /// function of the scenario and the decoded text, which is what makes
    /// the parallel fan-out and the memo-cache sound (see
    /// [`DpoAf::score_formal`]).
    pub fn score(&self, task: &TaskSpec, tokens: &[tinylm::Token], rng: &mut impl Rng) -> usize {
        match self.config.feedback {
            FeedbackSource::Formal => self.score_formal(task, &self.bundle.decode(tokens)),
            FeedbackSource::Empirical { episodes, steps } => {
                self.score_empirical(task, tokens, episodes, steps, rng)
            }
        }
    }

    /// Formal scoring: deterministic, RNG-free, memoized.
    ///
    /// On a cache hit the stored verdict is returned without re-running
    /// synthesis or model checking; in certified mode the hit also
    /// re-accounts the stored certificate counters, so a run's totals are
    /// identical with the cache on or off — every verdict that ranks a
    /// response is counted once per use, and was independently validated
    /// when first produced.
    pub fn score_formal(&self, task: &TaskSpec, text: &str) -> usize {
        obskit::counter_add("pipeline.responses_scored", 1);
        if self.config.verify_cache {
            if let Some(hit) = self.cache.lookup(task.scenario, text) {
                if self.config.certified {
                    self.lock_cert().add(hit.cert);
                }
                return hit.num_satisfied;
            }
        }
        let (num_satisfied, cert) = if self.config.certified {
            let (scored, counters) = score_response_certified(&self.bundle, task, text);
            obskit::counter_add("pipeline.certificates_validated", counters.checks as u64);
            self.lock_cert().add(counters);
            (scored.num_satisfied, counters)
        } else {
            (
                score_response(&self.bundle, task, text).num_satisfied,
                CertCounters::default(),
            )
        };
        if self.config.verify_cache {
            self.cache.insert(
                task.scenario,
                text,
                CachedScore {
                    num_satisfied,
                    cert,
                },
            );
        }
        num_satisfied
    }

    /// Empirical scoring: verify the controller synthesizes, then count
    /// specifications whose simulator satisfaction rate reaches 1.0.
    /// Consumes `rng` for the rollouts, so it stays serial and uncached.
    fn score_empirical(
        &self,
        task: &TaskSpec,
        tokens: &[tinylm::Token],
        episodes: usize,
        steps: usize,
        rng: &mut impl Rng,
    ) -> usize {
        obskit::counter_add("pipeline.responses_scored", 1);
        let scored = if self.config.certified {
            let (scored, counters) = score_tokens_certified(&self.bundle, task, tokens);
            obskit::counter_add("pipeline.certificates_validated", counters.checks as u64);
            self.lock_cert().add(counters);
            scored
        } else {
            score_tokens(&self.bundle, task, tokens)
        };
        match &scored.controller {
            None => 0,
            Some(ctrl) => {
                let rates = empirical_rates(&self.bundle, task, ctrl, episodes, steps, rng);
                rates.iter().filter(|&&(_, r)| r >= 0.999).count()
            }
        }
    }

    /// Scores a batch of decoded responses with one pool task each,
    /// joining index-ordered: callers see the same scores in the same
    /// positions at any thread count. Workers parent their spans under
    /// the caller's `pipeline.score_batch` span via an obskit handoff.
    fn score_formal_batch<'p, T: Sync>(
        &'p self,
        items: &[T],
        task_of: impl Fn(&T) -> &'p TaskSpec + Sync,
        text_of: impl Fn(&T) -> &str + Sync,
    ) -> Vec<usize> {
        let batch = obskit::span("pipeline.score_batch");
        let handoff = batch.handoff();
        let scores = self.pool.map(items, |_, item| {
            let _s = obskit::span_under("pipeline.score", handoff);
            self.score_formal(task_of(item), text_of(item))
        });
        // Scored batches are a natural flight-recorder beat (throttled).
        obskit::recorder::tick();
        scores
    }

    /// Samples `m` responses per training task per round, scores each by
    /// the configured feedback source, and assembles all strictly-ordered
    /// preference pairs.
    ///
    /// Under formal feedback, each task's `m` responses are sampled
    /// serially (sampling drives the RNG) and then scored as one parallel
    /// fan-out — scoring is RNG-free, so the RNG stream, and with it every
    /// artifact, is identical to the fully serial interleaved loop.
    /// Empirical feedback keeps that interleaved loop: its rollouts
    /// consume the RNG, so reordering them would change the run.
    // ALLOW: task ids come from the bundle itself, so sampling cannot see an
    // out-of-range id; fail loudly if it somehow does.
    #[allow(clippy::expect_used)]
    pub fn collect_dataset(&self, lm: &CondLm, rng: &mut impl Rng) -> PreferenceDataset {
        let _stage = obskit::span("pipeline.collect");
        let opts = SampleOptions {
            temperature: self.config.temperature,
            max_len: 60,
            ..SampleOptions::default()
        };
        let mut dataset = PreferenceDataset::new();
        for _ in 0..self.config.rounds {
            for &tid in &self.training_tasks() {
                let task = &self.bundle.tasks[tid];
                let scored: Vec<(Vec<tinylm::Token>, usize)> = match self.config.feedback {
                    FeedbackSource::Formal => {
                        let sampled: Vec<(Vec<tinylm::Token>, String)> =
                            (0..self.config.responses_per_task)
                                .map(|_| {
                                    let tokens = {
                                        let _s = obskit::span("pipeline.sample");
                                        lm.sample(tid, rng, opts).expect("task id in range")
                                    };
                                    let text = self.bundle.decode(&tokens);
                                    (tokens, text)
                                })
                                .collect();
                        let scores =
                            self.score_formal_batch(&sampled, |_| task, |(_, text)| text.as_str());
                        sampled
                            .into_iter()
                            .zip(scores)
                            .map(|((tokens, _), score)| (tokens, score))
                            .collect()
                    }
                    FeedbackSource::Empirical { .. } => (0..self.config.responses_per_task)
                        .map(|_| {
                            let tokens = {
                                let _s = obskit::span("pipeline.sample");
                                lm.sample(tid, rng, opts).expect("task id in range")
                            };
                            let score = self.score(task, &tokens, rng);
                            (tokens, score)
                        })
                        .collect(),
                };
                let before = dataset.len();
                {
                    let _s = obskit::span("pipeline.rank");
                    dataset.add_scored(tid, &scored);
                }
                obskit::counter_add("pipeline.pairs_formed", (dataset.len() - before) as u64);
            }
        }
        dataset
    }

    /// Mean number of satisfied specifications over `eval_samples`
    /// responses per listed task.
    ///
    /// Same phase split as [`DpoAf::collect_dataset`]: under formal
    /// feedback the whole checkpoint's samples are drawn serially, then
    /// scored in one parallel fan-out (summing `usize` scores is
    /// order-independent, so the mean is exact at any thread count).
    // ALLOW: task ids come from the bundle itself, so sampling cannot see an
    // out-of-range id; fail loudly if it somehow does.
    #[allow(clippy::expect_used)]
    pub fn evaluate(&self, lm: &CondLm, tasks: &[usize], rng: &mut impl Rng) -> f64 {
        let _stage = obskit::span("pipeline.eval");
        let opts = SampleOptions {
            temperature: self.config.eval_temperature,
            max_len: 60,
            ..SampleOptions::default()
        };
        let (total, count) = match self.config.feedback {
            FeedbackSource::Formal => {
                let mut sampled: Vec<(usize, String)> = Vec::new();
                for &tid in tasks {
                    for _ in 0..self.config.eval_samples {
                        let tokens = lm.sample(tid, rng, opts).expect("task id in range");
                        sampled.push((tid, self.bundle.decode(&tokens)));
                    }
                }
                let scores = self.score_formal_batch(
                    &sampled,
                    |&(tid, _)| &self.bundle.tasks[tid],
                    |(_, text)| text.as_str(),
                );
                (scores.iter().sum::<usize>(), sampled.len())
            }
            FeedbackSource::Empirical { .. } => {
                let mut total = 0usize;
                let mut count = 0usize;
                for &tid in tasks {
                    let task = &self.bundle.tasks[tid];
                    for _ in 0..self.config.eval_samples {
                        let tokens = lm.sample(tid, rng, opts).expect("task id in range");
                        total += self.score(task, &tokens, rng);
                        count += 1;
                    }
                }
                (total, count)
            }
        };
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Runs the full pipeline: pretrain, then `iterations` rounds of
    /// (collect a dataset from the current policy → DPO against a frozen
    /// snapshot), with checkpoint evaluations throughout.
    ///
    /// The returned `reference` is the original pre-trained model (the
    /// "before fine-tuning" baseline); each iteration's DPO reference is
    /// the policy snapshot entering that iteration.
    // ALLOW: task ids come from the bundle itself, so training cannot see
    // out-of-vocabulary tokens; fail loudly if it somehow does.
    #[allow(clippy::expect_used)]
    pub fn run(&self) -> RunArtifacts {
        // Pre-flight: a rule book with lint errors (unsatisfiable or
        // pairwise-conflicting rules) would cap every response's score and
        // corrupt the preference signal, so refuse to train on one.
        if let Err(errors) = crate::feedback::preflight_rule_book(&self.bundle.driving) {
            panic!("driving rule book failed the speclint pre-flight gate: {errors:?}");
        }
        // Semantic pre-flight: the syntactic pass cannot see rules that
        // are individually healthy but conflict (or are vacuous) under
        // the scenario worlds verification actually runs in.
        if self.config.semantic_preflight {
            let _preflight = obskit::span("pipeline.semantic_preflight");
            if let Err(errors) = crate::feedback::preflight_rule_book_semantic(&self.bundle.driving)
            {
                panic!("driving rule book failed the semantic pre-flight gate: {errors:?}");
            }
        }

        let _run = obskit::span("pipeline.run");
        // Register the pool/cache metrics up front so instrumented runs
        // report them even when they stay at zero (single thread, cache
        // off, no contention).
        for name in [
            "pool.tasks",
            "pool.steals",
            "verify.cache_hits",
            "verify.cache_misses",
            "verify.cache_evictions",
            "dpo.ref_cache_hits",
            "tape.nodes",
            "tape.grad_buffer_reuses",
            "speclint.semantic_rules",
            "speclint.semantic_checks",
            "speclint.semantic_errors",
            "speclint.semantic_notes",
        ] {
            obskit::counter_add(name, 0);
        }
        obskit::gauge_set("pool.threads", self.pool.threads() as f64);
        obskit::gauge_set("verify.cache_entries", 0.0);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let pretrained = self.pretrained_lm(&mut rng);

        let trainer = DpoTrainer::new(self.config.train);
        let train_tasks = self.training_tasks();
        let val_tasks = self.config.validation_tasks.clone();
        let mut evals = Vec::new();
        let mut eval_rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);

        // Epoch-0 (pre-fine-tuning) point.
        evals.push(CheckpointEval {
            epoch: 0,
            train_score: self.evaluate(&pretrained, &train_tasks, &mut eval_rng),
            val_score: self.evaluate(&pretrained, &val_tasks, &mut eval_rng),
        });

        let every = self.config.checkpoint_every.max(1);
        let mut policy = pretrained.clone();
        let mut epoch_stats = Vec::new();
        let mut dataset_size = 0;
        let mut epoch_base = 0;
        for iteration in 0..self.config.iterations.max(1) {
            let dataset = self.collect_dataset(&policy, &mut rng);
            assert!(
                !dataset.is_empty(),
                "verification feedback produced no strict preferences"
            );
            dataset_size += dataset.len();
            let (hits, misses) = self.cache_stats();
            if hits + misses > 0 {
                obskit::gauge_set(
                    "verify.cache_hit_rate",
                    hits as f64 / (hits + misses) as f64,
                );
            }
            obskit::event(
                "pipeline.iteration",
                vec![
                    ("iteration", iteration.into()),
                    ("pairs", dataset.len().into()),
                    ("total_pairs", dataset_size.into()),
                ],
            );
            // Iteration boundaries are the flight recorder's interesting
            // edges; sample unconditionally.
            obskit::recorder::force_tick();
            obskit::progress!(
                "iteration {iteration}: {} preference pairs collected ({dataset_size} total)",
                dataset.len()
            );
            let reference = policy.clone();
            let base = epoch_base;
            let stats = {
                let _stage = obskit::span("pipeline.train");
                let evals = &mut evals;
                let eval_rng = &mut eval_rng;
                trainer
                    .train_in(
                        &mut policy,
                        &reference,
                        &dataset,
                        &mut rng,
                        |epoch, lm| {
                            let global = base + epoch + 1;
                            if global % every == 0 {
                                evals.push(CheckpointEval {
                                    epoch: global,
                                    train_score: self.evaluate(lm, &train_tasks, eval_rng),
                                    val_score: self.evaluate(lm, &val_tasks, eval_rng),
                                });
                            }
                        },
                        Some(&self.pool),
                    )
                    .expect("dataset uses model vocabulary")
            };
            epoch_base += stats.len();
            epoch_stats.extend(stats.into_iter().map(|mut s| {
                s.epoch += base;
                s
            }));
        }

        RunArtifacts {
            reference: pretrained,
            policy,
            epoch_stats,
            checkpoint_evals: evals,
            dataset_size,
            cert: self.cert_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The semantic gate is on for real runs; the smoke configuration
    /// opts out so the (release-grade) semantic sweep stays out of the
    /// debug-mode test suite. Its correctness is covered by speclint's
    /// own preset tests and the instrumented headline run in CI.
    #[test]
    fn semantic_preflight_defaults() {
        assert!(PipelineConfig::default().semantic_preflight);
        assert!(!PipelineConfig::smoke().semantic_preflight);
    }

    #[test]
    fn smoke_run_produces_artifacts() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let artifacts = pipeline.run();
        assert!(artifacts.dataset_size > 0);
        // Certified mode is opt-in: the default smoke run never touches
        // the certificate checker.
        assert_eq!(artifacts.cert, CertCounters::default());
        assert_eq!(artifacts.epoch_stats.len(), 4);
        // Epoch 0 plus epochs 2 and 4.
        assert_eq!(artifacts.checkpoint_evals.len(), 3);
        assert_eq!(artifacts.checkpoint_evals[0].epoch, 0);
        assert_ne!(artifacts.policy.params(), artifacts.reference.params());

        // Save/load round-trip.
        let path = std::env::temp_dir().join("dpo_af_artifacts_test.json");
        artifacts.save(&path).expect("writable temp dir");
        let back = RunArtifacts::load(&path).expect("readable file");
        assert_eq!(back.dataset_size, artifacts.dataset_size);
        assert_eq!(back.policy.params(), artifacts.policy.params());
        let _ = std::fs::remove_file(path);
    }

    /// A certified run validates the evidence behind every verdict it
    /// ranks with: the counters in the artifacts account for each
    /// synthesized response's full 15-specification sweep.
    #[test]
    fn certified_run_counts_every_verdict() {
        let mut cfg = PipelineConfig::smoke();
        cfg.certified = true;
        cfg.responses_per_task = 2;
        cfg.train.epochs = 2;
        cfg.train.pairs_per_epoch = Some(4);
        cfg.checkpoint_every = 100;
        let pipeline = DpoAf::new(cfg);
        let artifacts = pipeline.run();
        assert!(artifacts.cert.checks > 0);
        // Rejected responses skip verification entirely; every verified
        // one is checked against the whole 15-rule book.
        assert_eq!(artifacts.cert.checks % 15, 0, "{:?}", artifacts.cert);
        assert_eq!(
            artifacts.cert.holds + artifacts.cert.fails,
            artifacts.cert.checks
        );
        assert_eq!(artifacts.cert, pipeline.cert_counters());
    }

    /// The scoring fan-out and the memo-cache are pure performance
    /// features: a smoke run serializes to the same bytes at 1 or 4
    /// threads, cache on or off — and at a pathologically tiny cache
    /// capacity, where almost every verdict is evicted and recomputed.
    #[test]
    fn artifacts_identical_across_threads_and_cache() {
        let mut cfg = PipelineConfig::smoke();
        cfg.threads = 1;
        cfg.verify_cache = true;
        let baseline = serde_json::to_string(&DpoAf::new(cfg.clone()).run()).expect("serializes");
        for (threads, cache, capacity) in [
            (4, true, Some(1 << 16)),
            (1, false, Some(1 << 16)),
            (1, true, Some(4)),
        ] {
            cfg.threads = threads;
            cfg.verify_cache = cache;
            cfg.verify_cache_capacity = capacity;
            let run = serde_json::to_string(&DpoAf::new(cfg.clone()).run()).expect("serializes");
            assert_eq!(
                baseline, run,
                "threads={threads} cache={cache} capacity={capacity:?}"
            );
        }
    }

    /// A cache hit returns exactly the verdict a fresh computation
    /// produces, and the hit/miss counters track lookups.
    #[test]
    fn memo_cache_hit_matches_fresh_verdict() {
        let mut cfg = PipelineConfig::smoke();
        cfg.threads = 1;
        let pipeline = DpoAf::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let task = &pipeline.bundle.tasks[0];
        let text = crate::domain::render_response(
            &pipeline.bundle.driving,
            task,
            crate::domain::Style::Careful,
            &mut rng,
        );
        let tokens = pipeline.bundle.tokenizer.encode(&text);
        let first = pipeline.score(task, &tokens, &mut rng);
        let again = pipeline.score(task, &tokens, &mut rng);
        assert_eq!(first, again);
        assert_eq!(pipeline.cache_stats(), (1, 1));

        // An uncached pipeline agrees and never touches its cache.
        let mut cfg = PipelineConfig::smoke();
        cfg.verify_cache = false;
        let uncached = DpoAf::new(cfg);
        assert_eq!(uncached.score(task, &tokens, &mut rng), first);
        assert_eq!(uncached.score(task, &tokens, &mut rng), first);
        assert_eq!(uncached.cache_stats(), (0, 0));
    }

    /// In certified mode a cache hit re-accounts the stored certificate
    /// counters, so totals stay exact: two scorings of the same response
    /// count its 15 verdicts twice even though only the first validated
    /// certificates.
    #[test]
    fn certified_cache_hits_keep_counters_exact() {
        let mut cfg = PipelineConfig::smoke();
        cfg.certified = true;
        cfg.threads = 1;
        let pipeline = DpoAf::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let task = &pipeline.bundle.tasks[0];
        let text = crate::domain::render_response(
            &pipeline.bundle.driving,
            task,
            crate::domain::Style::Careful,
            &mut rng,
        );
        let tokens = pipeline.bundle.tokenizer.encode(&text);
        let first = pipeline.score(task, &tokens, &mut rng);
        let again = pipeline.score(task, &tokens, &mut rng);
        assert_eq!(first, again);
        assert_eq!(pipeline.cache_stats(), (1, 1));
        let counters = pipeline.cert_counters();
        assert_eq!(counters.checks, 30, "{counters:?}");
        assert_eq!(counters.holds, 2 * first, "{counters:?}");
        assert_eq!(counters.holds + counters.fails, counters.checks);
    }

    /// Certified artifacts — including the accumulated certificate
    /// counters — are identical with the cache on (and a pooled fan-out)
    /// and fully off.
    #[test]
    fn certified_artifacts_identical_with_and_without_cache() {
        let mut cfg = PipelineConfig::smoke();
        cfg.certified = true;
        cfg.responses_per_task = 2;
        cfg.train.epochs = 2;
        cfg.train.pairs_per_epoch = Some(4);
        cfg.checkpoint_every = 100;
        cfg.threads = 1;
        cfg.verify_cache = false;
        let fresh = DpoAf::new(cfg.clone()).run();
        cfg.verify_cache = true;
        cfg.threads = 2;
        let cached = DpoAf::new(cfg).run();
        assert_eq!(fresh.cert, cached.cert);
        assert_eq!(
            serde_json::to_string(&fresh).expect("serializes"),
            serde_json::to_string(&cached).expect("serializes"),
        );
    }

    #[test]
    fn training_tasks_exclude_validation() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let train = pipeline.training_tasks();
        assert_eq!(train.len(), 8);
        for v in &pipeline.config.validation_tasks {
            assert!(!train.contains(v));
        }
    }

    #[test]
    fn empirical_feedback_scores_sensibly() {
        let mut cfg = PipelineConfig::smoke();
        cfg.feedback = FeedbackSource::Empirical {
            episodes: 3,
            steps: 20,
        };
        let pipeline = DpoAf::new(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let task = &pipeline.bundle.tasks[0];
        // A careful response scores higher than a reckless one under the
        // simulator-based signal too.
        let careful = pipeline
            .bundle
            .tokenizer
            .encode(&crate::domain::render_response(
                &pipeline.bundle.driving,
                task,
                crate::domain::Style::Careful,
                &mut rng,
            ));
        let reckless = pipeline
            .bundle
            .tokenizer
            .encode(&crate::domain::render_response(
                &pipeline.bundle.driving,
                task,
                crate::domain::Style::Reckless,
                &mut rng,
            ));
        let c = pipeline.score(task, &careful, &mut rng);
        let r = pipeline.score(task, &reckless, &mut rng);
        assert!(c <= 15 && r <= 15);
        assert!(
            c > r,
            "careful {c} !> reckless {r} under empirical feedback"
        );
    }

    #[test]
    fn evaluate_is_bounded_by_spec_count() {
        let pipeline = DpoAf::new(PipelineConfig::smoke());
        let mut rng = StdRng::seed_from_u64(0);
        let lm = pipeline.pretrained_lm(&mut rng);
        let score = pipeline.evaluate(&lm, &[0, 1], &mut rng);
        assert!((0.0..=15.0).contains(&score), "{score}");
    }
}
