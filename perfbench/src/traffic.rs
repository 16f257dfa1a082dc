//! The `verify_stream` traffic generator.
//!
//! Requests are `(task id, response text)` pairs built from the
//! benchmark's own phrase tables and templates — never from `tinylm`
//! sampling or `dpo_af::domain::render_response` — so a change to the
//! program cannot change the traffic it is measured on. Every phrase is
//! one the driving lexicon aligns, so aligned responses synthesize
//! controllers; unalignable ones are built from words the lexicon does
//! not know.
//!
//! The mix is exact per stream (the counts are fixed, their order is
//! seeded):
//!
//! * [`REPEAT`] of requests resend an earlier `(task, text)` exactly,
//!   chosen with popularity skew (older keys are more popular) — the
//!   verdict cache's hits;
//! * the rest are first sightings: a paraphrase of an earlier response
//!   (same plan, new wording), a fresh plan, or an unalignable response.
//!   The aligned ones are spread over tasks and [`Form`]s by
//!   [`TASK_WEIGHTS`] and [`FORM_MIX`], both derived from real model
//!   samples.
//!
//! Where each share comes from: [`REPEAT`] from the full headline run's
//! 41.1% verdict-cache hit rate (`results/BENCH_headline.json`);
//! [`UNALIGNABLE`] from the same run's 506 rejected responses among 3,342
//! cache misses (15.1%; real model
//! samples in the `finetune` output check give 16.9–17.1%); [`FORM_MIX`]
//! and [`TASK_WEIGHTS`] from the output check's samples (see
//! [`crate::profile`]). [`PARAPHRASE`] has no such source: the
//! `profile.same_logic_share` it would be fitted to hardly moves with it
//! (0.84–0.85 for paraphrase shares 0.15–0.45 against 0.80–0.81 in real
//! samples), because fresh plans come from a small plan space and repeat
//! earlier logic anyway.
//!
//! The generator records what it produced, so a run reports the
//! realised repeat, paraphrase and unalignable shares beside the cache's
//! hit ratio.

use std::collections::HashSet;

/// Share of requests that resend an earlier request exactly.
pub const REPEAT: f64 = 0.40;
/// Share of first sightings that paraphrase an earlier plan.
pub const PARAPHRASE: f64 = 0.45;
/// Share of first sightings that are unalignable.
pub const UNALIGNABLE: f64 = 0.15;

/// SplitMix64: a small, fixed PRNG owned by the benchmark, so the
/// traffic does not depend on any vendored RNG's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// Mixes a run seed and a stream index into one generator seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

const GREEN_TL: &[&str] = &[
    "green light",
    "green signal",
    "traffic light",
    "green traffic light",
];
const GREEN_LL: &[&str] = &[
    "green arrow",
    "green left-turn light",
    "left turn light",
    "protected left turn signal",
];
const OPPOSITE_CAR: &[&str] = &[
    "oncoming traffic",
    "oncoming car",
    "oncoming vehicle",
    "opposite vehicle",
    "car in the opposite direction",
    "traffic from the opposite direction",
];
const CAR_LEFT: &[&str] = &[
    "car from the left",
    "car approaching from the left",
    "left approaching car",
    "traffic from your left",
    "traffic coming from your left",
    "traffic from the left",
    "vehicle on your left",
    "car on the left",
];
const CAR_RIGHT: &[&str] = &[
    "car from the right",
    "car approaching from the right",
    "right approaching car",
    "traffic from your right",
    "traffic from the right",
    "vehicle on your right",
    "car on the right",
];
const PED_LEFT: &[&str] = &[
    "pedestrian on the left",
    "pedestrian at your left",
    "left side pedestrian",
    "person on the left",
];
const PED_RIGHT: &[&str] = &[
    "pedestrian on the right",
    "pedestrian at your right",
    "right side pedestrian",
    "person on the right",
];
const PED_FRONT: &[&str] = &[
    "pedestrian ahead",
    "pedestrian in the crosswalk",
    "person crossing",
    "pedestrian crossing in front",
];

const STOP: &[&str] = &[
    "stop",
    "come to a stop",
    "come to a complete stop",
    "halt",
    "brake",
    "remain stopped",
];
const LEFT: &[&str] = &[
    "turn left",
    "make a left turn",
    "turn your vehicle left",
    "take a left",
    "turn to the left",
];
const RIGHT: &[&str] = &[
    "turn right",
    "make a right turn",
    "turn your vehicle right",
    "take a right",
    "turn to the right",
];
const STRAIGHT: &[&str] = &[
    "go straight",
    "proceed straight",
    "drive forward",
    "move forward",
    "continue straight",
    "drive through the intersection",
];
/// Maneuvers, indexed by [`Plan::act`].
const ACTS: [&[&str]; 4] = [STOP, LEFT, RIGHT, STRAIGHT];
const ACT_LEFT: u8 = 1;
/// [`Plan::act`] of a right turn.
pub const ACT_RIGHT: u8 = 2;
/// [`Plan::act`] of going straight.
pub const ACT_STRAIGHT: u8 = 3;

/// One driving task as the generator phrases it. Ids match the
/// pipeline's task set (`DomainBundle::tasks`), which is fixed content.
struct TaskText {
    /// The task's scenario world (tasks sharing one verify identically:
    /// a verdict depends on the scenario and the text only).
    scenario: u8,
    light: Option<&'static [&'static str]>,
    hazards: &'static [&'static [&'static str]],
    act: u8,
}

const TASKS: [TaskText; 10] = [
    TaskText {
        scenario: 0,
        light: Some(GREEN_TL),
        hazards: &[CAR_LEFT, PED_RIGHT],
        act: ACT_RIGHT,
    },
    TaskText {
        scenario: 1,
        light: Some(GREEN_LL),
        hazards: &[OPPOSITE_CAR],
        act: ACT_LEFT,
    },
    TaskText {
        scenario: 0,
        light: Some(GREEN_TL),
        hazards: &[PED_FRONT],
        act: ACT_STRAIGHT,
    },
    TaskText {
        scenario: 2,
        light: None,
        hazards: &[CAR_LEFT, PED_FRONT],
        act: ACT_RIGHT,
    },
    TaskText {
        scenario: 2,
        light: None,
        hazards: &[CAR_LEFT, CAR_RIGHT],
        act: ACT_LEFT,
    },
    TaskText {
        scenario: 3,
        light: None,
        hazards: &[CAR_LEFT, CAR_RIGHT],
        act: ACT_STRAIGHT,
    },
    TaskText {
        scenario: 4,
        light: None,
        hazards: &[CAR_LEFT, PED_LEFT],
        act: ACT_RIGHT,
    },
    TaskText {
        scenario: 1,
        light: Some(GREEN_LL),
        hazards: &[OPPOSITE_CAR, PED_FRONT],
        act: ACT_LEFT,
    },
    TaskText {
        scenario: 3,
        light: None,
        hazards: &[CAR_LEFT],
        act: ACT_RIGHT,
    },
    TaskText {
        scenario: 2,
        light: None,
        hazards: &[CAR_LEFT, CAR_RIGHT, PED_FRONT],
        act: ACT_STRAIGHT,
    },
];

/// Number of tasks the generator covers.
pub const NUM_TASKS: usize = TASKS.len();

const UNALIGNABLE_OPENERS: &[&str] = &[
    "use your best judgment",
    "trust your instincts",
    "follow your gut",
    "do what everyone else does",
    "go with the flow",
    "drive like a local",
    "be decisive",
    "keep calm",
];
const UNALIGNABLE_CLOSERS: &[&str] = &[
    "and merge",
    "and keep moving",
    "and hurry",
    "whenever it feels right",
    "as usual",
    "like always",
    "at your own pace",
    "and enjoy the ride",
];

/// The logical content of an aligned response: what a paraphrase keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plan {
    /// Task id.
    pub task: u8,
    /// Response shape.
    pub shape: Shape,
    /// Which of the task's hazards the response checks (bit per hazard).
    pub hazard_mask: u8,
    /// The maneuver performed (index into the maneuver tables).
    pub act: u8,
    /// Add a reactive "if the light is not on, stop" step.
    pub reactive_stop: bool,
}

/// Response shapes, from most to least careful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Observe the light, check the hazards, act only when all is clear.
    Guarded,
    /// Observe the light and act on it alone.
    Hasty,
    /// Act unconditionally.
    Reckless,
}

/// The forms a fresh plan takes: what a response gets right or wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Observe the light, check every hazard, act when all is clear.
    Guarded,
    /// Like [`Form::Guarded`], with one hazard check missing.
    Incomplete,
    /// Act on the light alone.
    Hasty,
    /// Act unconditionally.
    Reckless,
    /// A careful procedure for the wrong maneuver.
    WrongManeuver,
}

/// Every form, in [`FORM_MIX`] order.
pub const FORMS: [Form; 5] = [
    Form::Guarded,
    Form::Incomplete,
    Form::Hasty,
    Form::Reckless,
    Form::WrongManeuver,
];

/// Share of each form among aligned first sightings, in [`FORMS`]
/// order. Derived from real samples: the `finetune` output check's
/// pre-trained and fine-tuned model samples (seeds 101 and 102, 1,675
/// accepted distinct responses), each assigned to the form whose verdict
/// and controller size are nearest for its task (`crate::profile`,
/// printed as `profile.form.*` on every `finetune` run).
pub const FORM_MIX: [f64; 5] = [0.27, 0.19, 0.25, 0.11, 0.18];

/// Relative frequency of each task among aligned first sightings: the
/// accepted distinct responses per task in the same real samples (the
/// model's wording varies more on some tasks than on others).
pub const TASK_WEIGHTS: [f64; NUM_TASKS] = [
    188.0, 117.0, 177.0, 178.0, 184.0, 174.0, 134.0, 178.0, 98.0, 247.0,
];

/// Chance that a guarded-shape plan on a task with a light adds a
/// reactive "if the light is not on, stop" step.
const REACTIVE_STOP: f64 = 0.3;

impl Form {
    /// Every plan of this form for `task` the generator can draw, with
    /// the chance of drawing it given the form and the task.
    pub fn variants(self, task: usize) -> Vec<(Plan, f64)> {
        let t = &TASKS[task];
        let hazards = t.hazards.len();
        let all = (1u8 << hazards) - 1;
        let plan = |shape, hazard_mask, act| Plan {
            task: task as u8,
            shape,
            hazard_mask,
            act,
            reactive_stop: false,
        };
        let base: Vec<(Plan, f64)> = match self {
            Form::Guarded => vec![(plan(Shape::Guarded, all, t.act), 1.0)],
            Form::Incomplete => (0..hazards)
                .map(|h| {
                    (
                        plan(Shape::Guarded, all & !(1 << h), t.act),
                        1.0 / hazards as f64,
                    )
                })
                .collect(),
            Form::Hasty => vec![(plan(Shape::Hasty, 0, t.act), 1.0)],
            Form::Reckless => vec![(plan(Shape::Reckless, 0, t.act), 1.0)],
            Form::WrongManeuver => (1..4)
                .map(|k| (plan(Shape::Guarded, all, (t.act + k) % 4), 1.0 / 3.0))
                .collect(),
        };
        if t.light.is_none() {
            return base;
        }
        base.into_iter()
            .flat_map(|(p, w)| {
                if p.shape != Shape::Guarded {
                    return vec![(p, w)];
                }
                let reactive = Plan {
                    reactive_stop: true,
                    ..p
                };
                vec![
                    (p, w * (1.0 - REACTIVE_STOP)),
                    (reactive, w * REACTIVE_STOP),
                ]
            })
            .collect()
    }
}

/// What a request is, from the generator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First sighting of a fresh plan.
    Fresh,
    /// First sighting of a new wording of an earlier plan.
    Paraphrase,
    /// First sighting of an unalignable response.
    Unalignable,
    /// Exact resend of an earlier request.
    Repeat,
}

/// One request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Task id.
    pub task: usize,
    /// Response text.
    pub text: String,
    /// Dense id of the distinct key — `(scenario, text)`, what the
    /// verdict cache keys on — in first-sighting order within the stream.
    pub key: usize,
    /// How the generator produced it.
    pub kind: Kind,
}

/// Realised request counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mix {
    /// Requests produced.
    pub total: usize,
    /// Exact repeats.
    pub repeats: usize,
    /// Paraphrase first sightings.
    pub paraphrases: usize,
    /// Requests (first sightings and repeats) whose text is unalignable.
    pub unalignable: usize,
}

impl Mix {
    /// Adds another stream's counts.
    pub fn add(&mut self, other: Mix) {
        self.total += other.total;
        self.repeats += other.repeats;
        self.paraphrases += other.paraphrases;
        self.unalignable += other.unalignable;
    }

    fn share(&self, n: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }

    /// Exact repeats over requests.
    pub fn repeat_share(&self) -> f64 {
        self.share(self.repeats)
    }

    /// Paraphrase first sightings over requests.
    pub fn paraphrase_share(&self) -> f64 {
        self.share(self.paraphrases)
    }

    /// Unalignable requests over requests.
    pub fn unalignable_share(&self) -> f64 {
        self.share(self.unalignable)
    }
}

/// A seeded request stream.
#[derive(Debug)]
pub struct Traffic {
    rng: SplitMix,
    /// Distinct keys so far: `(task, text, kind of first sighting)`.
    keys: Vec<(usize, String, Kind)>,
    /// `(scenario, text)` of every key: what the verdict cache keys on.
    seen: HashSet<(u8, String)>,
    /// Plans of aligned keys and their forms, for paraphrasing.
    plans: Vec<(Plan, Form)>,
    /// `(task, form)` of the aligned first sightings still to come, in
    /// stream order from the back (see [`Traffic::schedule`]).
    cells: Vec<(usize, Form)>,
    mix: Mix,
}

impl Traffic {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Traffic {
        Traffic {
            rng: SplitMix::new(seed),
            keys: Vec::new(),
            seen: HashSet::new(),
            plans: Vec::new(),
            cells: Vec::new(),
            mix: Mix::default(),
        }
    }

    /// The `n` requests of the stream seeded with `seed`, and their
    /// realised mix.
    pub fn take(seed: u64, n: usize) -> (Vec<Request>, Mix) {
        let mut t = Traffic::new(seed);
        let kinds = t.schedule(n);
        let requests = kinds.into_iter().map(|kind| t.request(kind)).collect();
        (requests, t.mix)
    }

    /// The kinds of `n` requests in a seeded order: exactly [`REPEAT`] of
    /// them repeats and, of the first sightings, exactly [`PARAPHRASE`]
    /// paraphrases and [`UNALIGNABLE`] unalignable (rounded), and the
    /// aligned ones (paraphrases and fresh plans) spread over tasks and
    /// forms in proportion to [`TASK_WEIGHTS`] × [`FORM_MIX`] (largest
    /// remainder). Exact counts give every stream the same mix, so a
    /// latency percentile near the boundary between cache hits and
    /// misses (p50 sits there) does not move with the seed, nor does the
    /// share of costly traffic-light plans among the misses. The stream
    /// opens with a fresh plan: there is nothing to repeat or paraphrase
    /// yet.
    fn schedule(&mut self, n: usize) -> Vec<Kind> {
        let share = |of: usize, s: f64| (of as f64 * s).round() as usize;
        let repeats = share(n, REPEAT);
        let firsts = n - repeats;
        let paraphrases = share(firsts, PARAPHRASE);
        let unalignable = share(firsts, UNALIGNABLE);
        let fresh = firsts - paraphrases - unalignable;
        let mut kinds = [
            (Kind::Repeat, repeats),
            (Kind::Paraphrase, paraphrases),
            (Kind::Unalignable, unalignable),
            (Kind::Fresh, fresh),
        ]
        .into_iter()
        .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
        .collect::<Vec<Kind>>();
        self.shuffle(&mut kinds);
        if let Some(i) = kinds.iter().position(|&k| k == Kind::Fresh) {
            kinds.swap(0, i);
        }
        let cells: Vec<(usize, Form)> = (0..NUM_TASKS)
            .flat_map(|task| FORMS.map(|form| (task, form)))
            .collect();
        let weights: Vec<f64> = (0..NUM_TASKS)
            .flat_map(|task| FORM_MIX.map(|share| TASK_WEIGHTS[task] * share))
            .collect();
        let mut aligned: Vec<(usize, Form)> = apportion(paraphrases + fresh, &weights)
            .into_iter()
            .zip(cells)
            .flat_map(|(count, cell)| std::iter::repeat_n(cell, count))
            .collect();
        self.shuffle(&mut aligned);
        self.cells = aligned;
        kinds
    }

    /// Seeded Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.rng.below(i + 1));
        }
    }

    /// Produces a request of `kind`.
    fn request(&mut self, kind: Kind) -> Request {
        self.mix.total += 1;
        let request = match kind {
            Kind::Repeat if !self.keys.is_empty() => {
                self.mix.repeats += 1;
                let key = self.skewed(self.keys.len());
                let (task, text, _) = &self.keys[key];
                Request {
                    task: *task,
                    text: text.clone(),
                    key,
                    kind: Kind::Repeat,
                }
            }
            Kind::Repeat | Kind::Fresh => self.first_sighting(false),
            Kind::Paraphrase => self.first_sighting(true),
            Kind::Unalignable => self.unalignable(),
        };
        let first_kind = self.keys[request.key].2;
        if first_kind == Kind::Unalignable {
            self.mix.unalignable += 1;
        }
        request
    }

    /// Popularity skew: index `⌊n·u²⌋` favours older entries.
    fn skewed(&mut self, n: usize) -> usize {
        let u = self.rng.unit();
        ((n as f64 * u * u) as usize).min(n - 1)
    }

    fn register(&mut self, task: usize, text: String, kind: Kind) -> Option<Request> {
        if !self.seen.insert((TASKS[task].scenario, text.clone())) {
            return None;
        }
        let key = self.keys.len();
        self.keys.push((task, text.clone(), kind));
        Some(Request {
            task,
            text,
            key,
            kind,
        })
    }

    /// A never-seen wording of a plan of the next scheduled `(task,
    /// form)`: of an earlier plan of that cell, chosen with popularity
    /// skew, when `paraphrase` asks for one and the cell has one (a
    /// paraphrase), else of a fresh plan. Falls back to fresh plans of the
    /// cell, then of any cell, when wordings run out.
    fn first_sighting(&mut self, paraphrase: bool) -> Request {
        let (task, form) = match self.cells.pop() {
            Some(cell) => cell,
            None => self.any_cell(),
        };
        let earlier: Vec<Plan> = self
            .plans
            .iter()
            .filter(|&&(p, f)| usize::from(p.task) == task && f == form)
            .map(|&(p, _)| p)
            .collect();
        let plan = if paraphrase && !earlier.is_empty() {
            self.mix.paraphrases += 1;
            Some(earlier[self.skewed(earlier.len())])
        } else {
            None
        };
        let kind = if plan.is_some() {
            Kind::Paraphrase
        } else {
            Kind::Fresh
        };
        for attempt in 0..64 {
            let (p, f) = match plan {
                Some(p) if attempt < 16 => (p, form),
                _ if attempt < 32 => (self.fresh_plan(task, form), form),
                _ => {
                    let (task, form) = self.any_cell();
                    (self.fresh_plan(task, form), form)
                }
            };
            let text = self.render(p);
            if let Some(request) = self.register(p.task as usize, text, kind) {
                self.plans.push((p, f));
                return request;
            }
        }
        // Wordings are plentiful; reaching this means the tables shrank.
        self.unalignable()
    }

    fn unalignable(&mut self) -> Request {
        loop {
            let task = self.rng.below(NUM_TASKS);
            let mut steps = vec![format!(
                "{} {}",
                self.rng.pick(UNALIGNABLE_OPENERS),
                self.rng.pick(UNALIGNABLE_CLOSERS)
            )];
            if self.rng.unit() < 0.5 {
                steps.push(self.rng.pick(UNALIGNABLE_OPENERS).to_owned());
            }
            let text = self.join(steps);
            if let Some(request) = self.register(task, text, Kind::Unalignable) {
                return request;
            }
        }
    }

    /// A task and a form drawn with [`TASK_WEIGHTS`] and [`FORM_MIX`].
    fn any_cell(&mut self) -> (usize, Form) {
        let task = self.draw(&TASK_WEIGHTS);
        (task, FORMS[self.draw(&FORM_MIX)])
    }

    /// A plan of `form` for `task`, its variant drawn by chance.
    fn fresh_plan(&mut self, task: usize, form: Form) -> Plan {
        let variants = form.variants(task);
        let weights: Vec<f64> = variants.iter().map(|&(_, w)| w).collect();
        variants[self.draw(&weights)].0
    }

    /// An index drawn with probability proportional to `weights`.
    fn draw(&mut self, weights: &[f64]) -> usize {
        let mut u = self.rng.unit() * weights.iter().sum::<f64>();
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Renders a plan with freshly drawn wording.
    pub fn render(&mut self, p: Plan) -> String {
        let t = &TASKS[p.task as usize];
        let act = self.rng.pick(ACTS[p.act as usize]);
        let light = t.light.map(|l| self.rng.pick(l));
        let hazards: Vec<&str> = t
            .hazards
            .iter()
            .enumerate()
            .filter(|(i, _)| p.hazard_mask & (1 << i) != 0)
            .map(|(_, h)| self.rng.pick(h))
            .collect();
        let mut steps = Vec::new();
        match p.shape {
            Shape::Guarded => {
                if let Some(l) = light {
                    steps.push(self.observe(l));
                }
                if !hazards.is_empty() {
                    let verb =
                        self.rng
                            .pick(&["check for", "look out for", "scan for", "watch for"]);
                    steps.push(format!("{verb} the {}", hazards.join(" and the ")));
                }
                let mut conds: Vec<String> = light.iter().map(|l| self.lit(l)).collect();
                conds.extend(hazards.iter().map(|h| self.clear(h)));
                if p.reactive_stop {
                    if let Some(l) = light {
                        let stop = self.rng.pick(STOP);
                        steps.push(format!("if the {l} is not on, {stop}"));
                    }
                }
                steps.push(self.gated(&conds, act));
            }
            Shape::Hasty => match light {
                Some(l) => {
                    steps.push(self.observe(l));
                    let cond = self.lit(l);
                    steps.push(self.gated(&[cond], act));
                }
                None => {
                    let lead = self.rng.pick(&[
                        "slow down and then",
                        "ease off and then",
                        "look around and then",
                    ]);
                    steps.push(format!("{lead} {act}"));
                }
            },
            Shape::Reckless => {
                let form = self
                    .rng
                    .pick(&["{}", "{} immediately", "speed up and {}", "just {}"]);
                steps.push(form.replace("{}", act));
            }
        }
        self.join(steps)
    }

    fn observe(&mut self, light: &str) -> String {
        let verb = self.rng.pick(&[
            "observe the",
            "look at the",
            "watch the",
            "check the state of the",
        ]);
        format!("{verb} {light}")
    }

    fn lit(&mut self, light: &str) -> String {
        let form = self
            .rng
            .pick(&["the {} is on", "the {} is lit", "you see the {}"]);
        form.replace("{}", light)
    }

    fn clear(&mut self, hazard: &str) -> String {
        let form = self.rng.pick(&[
            "no {}",
            "there is no {}",
            "the {} is absent",
            "the {} is not present",
        ]);
        form.replace("{}", hazard)
    }

    fn gated(&mut self, conds: &[String], act: &str) -> String {
        if conds.is_empty() {
            return act.to_owned();
        }
        let marker = self.rng.pick(&["if", "when"]);
        let sep = self.rng.pick(&[",", " then"]);
        let consequent = self
            .rng
            .pick(&["{}", "you may {}", "{} now", "go ahead and {}"]);
        format!(
            "{marker} {}{sep} {}",
            conds.join(" and "),
            consequent.replace("{}", act)
        )
    }

    /// Joins steps as the pipeline's responses are joined, optionally
    /// numbered.
    fn join(&mut self, steps: Vec<String>) -> String {
        let numbered = self.rng.unit() < 0.25;
        let steps: Vec<String> = steps
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if numbered {
                    format!("{}. {s}", i + 1)
                } else {
                    s
                }
            })
            .collect();
        format!("{} .", steps.join(" ; "))
    }
}

/// `n` split over cells in proportion to `weights`, rounded by largest
/// remainder (ties to the earlier cell), so the counts sum to `n`.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &cell in order.iter().take(short) {
        counts[cell] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (a, ma) = Traffic::take(11, 2_000);
        let (b, mb) = Traffic::take(11, 2_000);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
        let (c, _) = Traffic::take(12, 2_000);
        assert_ne!(a, c);
    }

    #[test]
    fn realised_mix_tracks_the_targets() {
        let (requests, mix) = Traffic::take(3, 20_000);
        assert_eq!(mix.total, 20_000);
        // Exact counts: 8,000 repeats; 5,400 paraphrases and 1,800
        // unalignable among the 12,000 first sightings. A paraphrase of a
        // cell with no earlier plan yet becomes a fresh plan.
        assert_eq!(mix.repeats, 8_000);
        assert!(
            mix.paraphrases <= 5_400 && mix.paraphrases > 5_200,
            "{mix:?}"
        );
        assert_eq!(
            requests
                .iter()
                .filter(|r| r.kind == Kind::Unalignable)
                .count(),
            1_800
        );
        assert_eq!(requests[0].kind, Kind::Fresh);
        assert!(
            mix.unalignable_share() > 0.05 && mix.unalignable_share() < 0.25,
            "{mix:?}"
        );
        // Keys are dense and first sightings are distinct per scenario.
        let distinct: HashSet<(u8, &str)> = requests
            .iter()
            .map(|r| (TASKS[r.task].scenario, r.text.as_str()))
            .collect();
        let firsts = requests.iter().filter(|r| r.kind != Kind::Repeat).count();
        assert_eq!(distinct.len(), firsts);
        assert_eq!(mix.total - mix.repeats, firsts);
        for r in &requests {
            assert!(r.key < firsts);
        }
    }

    #[test]
    fn apportion_keeps_the_total_and_the_proportions() {
        assert_eq!(apportion(10, &[1.0, 1.0, 2.0]), vec![3, 2, 5]);
        assert_eq!(apportion(0, &[1.0, 3.0]), vec![0, 0]);
        let counts = apportion(240, &TASK_WEIGHTS);
        assert_eq!(counts.iter().sum::<usize>(), 240);
        let total: f64 = TASK_WEIGHTS.iter().sum();
        for (c, w) in counts.iter().zip(TASK_WEIGHTS) {
            assert!((*c as f64 - 240.0 * w / total).abs() < 1.0);
        }
    }

    #[test]
    fn form_variants_are_distinct_and_their_chances_sum_to_one() {
        assert!((FORM_MIX.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for task in 0..NUM_TASKS {
            for form in FORMS {
                let variants = form.variants(task);
                let total: f64 = variants.iter().map(|&(_, w)| w).sum();
                assert!((total - 1.0).abs() < 1e-9, "{form:?} on task {task}");
                let plans: HashSet<Plan> = variants.iter().map(|&(p, _)| p).collect();
                assert_eq!(plans.len(), variants.len());
            }
        }
    }

    #[test]
    fn repeats_resend_earlier_keys_exactly() {
        let (requests, _) = Traffic::take(5, 3_000);
        let mut by_key: Vec<Option<&Request>> = vec![None; requests.len()];
        for r in &requests {
            match by_key[r.key] {
                None => {
                    assert_ne!(r.kind, Kind::Repeat);
                    by_key[r.key] = Some(r);
                }
                Some(first) => {
                    assert_eq!(r.kind, Kind::Repeat);
                    assert_eq!((first.task, &first.text), (r.task, &r.text));
                }
            }
        }
    }

    #[test]
    fn responses_align_unless_meant_not_to() {
        let bundle = dpo_af::DomainBundle::new();
        let (requests, _) = Traffic::take(9, 1_500);
        for r in requests.iter().filter(|r| r.kind != Kind::Repeat) {
            let task = &bundle.tasks[r.task];
            let steps = dpo_af::DomainBundle::split_steps(&r.text);
            let synth = glm2fsa::synthesize(
                &task.prompt,
                &steps,
                &bundle.lexicon,
                dpo_af::feedback::fsa_options(&bundle.driving),
            );
            let preflight = dpo_af::feedback::preflight_response(&bundle, task, &r.text);
            if r.kind == Kind::Unalignable {
                assert!(synth.is_err(), "`{}` aligned", r.text);
                assert!(preflight.is_err(), "`{}` passed preflight", r.text);
            } else {
                assert!(synth.is_ok(), "`{}`: {synth:?}", r.text);
                assert!(preflight.is_ok(), "`{}`: {preflight:?}", r.text);
            }
        }
    }
}
