//! `scaled_worlds`: verification against simulator-sized world models.
//!
//! Jobs are (synthesised controller × scaled world × rule book):
//! `drivesim::scaled::scaled_conservative_model` traffic worlds at
//! several label counts (dense transitions, no justice) against the 15
//! driving rules, and `warehouse` `scaled_floor_model` corridor worlds
//! (sparse, with the floor's justice assumption) against the warehouse
//! rules. Controllers are synthesised by `glm2fsa` from the benchmark's
//! own step texts; the seed picks their wording, not their logic, so
//! every seed verifies the same products.
//!
//! A pass builds each job's product graph and checks every rule with
//! both `check_graph_fair` (explicit) and `check_graph_fair_symbolic`
//! (BDD, via `check_with_stats`). A run makes a fixed number of passes
//! (see [`crate::common::repetitions`]); no cache and no language model
//! is involved.
//!
//! * `setup_s`: median of repeated world and controller construction.
//! * `job_s`: median pass wall time.
//! * `verify_*`: per-check latency over every check of every pass, and
//!   checks per second of checking time.
//!
//! Times are at the reference machine speed: set-ups and jobs run between
//! probes of the measuring thread's core (see [`crate::speed`]).
//!
//! Correctness: the two backends must agree on every rule of every job.

use crate::common::{counter, overhead_pct, repetitions, write_trace, Args, Checks, Outcome};
use crate::layers::{ratio, Layers};
use crate::speed::Speed;
use crate::stats::{median, Latency};
use crate::traffic::{Plan, Shape, SplitMix, Traffic, ACT_RIGHT, ACT_STRAIGHT};
use autokit::{Controller, DeadlockPolicy, Product, WorldModel};
use ltlcheck::{Justice, Ltl};
use std::time::Instant;

/// Traffic-world label counts (32 is the paper-sized A6 dense model).
const DRIVE_LABELS: &[usize] = &[16, 32, 48];
/// Warehouse corridor lengths, in aisles.
const AISLES: &[usize] = &[2, 4, 8];
/// Set-up repetitions per run.
const SETUPS: usize = 31;
/// Nominal pass wall time on the reference machine, which sets the pass
/// count from `--seconds`.
const NOMINAL_PASS_S: f64 = 2.0;
/// Minimum passes per run (per half of a traced run): a pass makes 276
/// checks, so four give p99 at least ten samples beyond it.
const MIN_PASSES: usize = 4;

/// One rule book with the worlds and controllers it is checked on.
struct Book {
    specs: Vec<(String, Ltl)>,
    justice: Vec<Justice>,
    worlds: Vec<WorldModel>,
    controllers: Vec<Controller>,
}

/// Everything a pass needs.
struct Setup {
    books: Vec<Book>,
}

const SHELF: &[&str] = &["storage rack", "target shelf", "shelf in view"];
const HUMAN: &[&str] = &["person in the aisle", "someone nearby", "worker close by"];
const OBSTACLE: &[&str] = &["path is blocked", "blocked aisle"];
const PICK: &[&str] = &["grab the item", "pick up the item", "retrieve the item"];
const ADVANCE: &[&str] = &["drive forward", "advance", "proceed down the aisle"];

fn warehouse_steps(rng: &mut SplitMix, pick: bool) -> Vec<String> {
    let (human, obstacle) = (rng.pick(HUMAN), rng.pick(OBSTACLE));
    let mut steps = Vec::new();
    let mut conds = vec![format!("no {human}"), format!("no {obstacle}")];
    if pick {
        let shelf = rng.pick(SHELF);
        steps.push(format!("check for the {shelf}"));
        conds.insert(0, format!("the {shelf}"));
    }
    steps.push(format!("observe the {human} and the {obstacle}"));
    let act = if pick {
        rng.pick(PICK)
    } else {
        rng.pick(ADVANCE)
    };
    steps.push(format!("if {}, {act}", conds.join(" and ")));
    steps
}

/// Builds the worlds and synthesises the controllers; fails when a
/// controller's text does not synthesize.
fn setup(seed: u64) -> Result<Setup, String> {
    let mut words = Traffic::new(seed);
    let mut rng = SplitMix::new(seed ^ 0x5ca1ed);

    let bundle = dpo_af::DomainBundle::new();
    let d = &bundle.driving;
    let plans = [
        Plan {
            task: 0,
            shape: Shape::Guarded,
            hazard_mask: 0b11,
            act: ACT_RIGHT,
            reactive_stop: false,
        },
        Plan {
            task: 2,
            shape: Shape::Hasty,
            hazard_mask: 0,
            act: ACT_STRAIGHT,
            reactive_stop: false,
        },
    ];
    let mut drive_ctrls = Vec::new();
    for plan in plans {
        let text = words.render(plan);
        let task = &bundle.tasks[plan.task as usize];
        let steps = dpo_af::DomainBundle::split_steps(&text);
        let c = glm2fsa::synthesize(
            &task.prompt,
            &steps,
            &bundle.lexicon,
            dpo_af::feedback::fsa_options(d),
        )
        .map_err(|e| format!("`{text}` did not synthesize: {e}"))?;
        drive_ctrls.push(glm2fsa::with_default_action(&c, d.stop));
    }
    let drive = Book {
        specs: ltlcheck::specs::driving_specs(d)
            .into_iter()
            .map(|s| (s.name, s.formula))
            .collect(),
        justice: Vec::new(),
        worlds: DRIVE_LABELS
            .iter()
            .map(|&l| drivesim::scaled::scaled_conservative_model(d, l))
            .collect(),
        controllers: drive_ctrls,
    };

    let w = warehouse::WarehouseDomain::new();
    let mut wh_ctrls = Vec::new();
    for (tid, pick) in [(0, true), (2, false)] {
        let steps = warehouse_steps(&mut rng, pick);
        let c = glm2fsa::synthesize(
            &w.tasks[tid].prompt,
            &steps,
            &w.lexicon,
            glm2fsa::FsaOptions::default(),
        )
        .map_err(|e| format!("{steps:?} did not synthesize: {e}"))?;
        wh_ctrls.push(glm2fsa::with_default_action(&c, w.wait));
    }
    let floor = Book {
        specs: warehouse::warehouse_specs(&w)
            .into_iter()
            .map(|s| (s.name, s.formula))
            .collect(),
        justice: warehouse::warehouse_justice(&w),
        worlds: AISLES.iter().map(|&a| w.scaled_floor_model(a)).collect(),
        controllers: wh_ctrls,
    };
    Ok(Setup {
        books: vec![drive, floor],
    })
}

/// What one pass measured. Times are at the reference machine speed:
/// each job runs between two probes of the pass's core and its times are
/// scaled by them (see [`Speed::timed`]).
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    norm_wall_s: f64,
    product_ms: Vec<f64>,
    product_nodes: Vec<f64>,
    explicit_ms: Vec<f64>,
    symbolic_ms: Vec<f64>,
    peak_nodes: usize,
    cache_lookups: u64,
    cache_hits: u64,
}

fn pass(setup: &Setup, speed: &Speed, checks: &mut Checks) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    for book in &setup.books {
        for world in &book.worlds {
            for ctrl in &book.controllers {
                let ((product_ms, nodes, explicit_ms, symbolic_ms), job_s, factor) =
                    speed.timed(|| job(book, world, ctrl, &mut p, checks));
                p.norm_wall_s += job_s * factor;
                p.product_ms.push(product_ms * factor);
                p.product_nodes.push(nodes);
                p.explicit_ms
                    .extend(explicit_ms.iter().map(|ms| ms * factor));
                p.symbolic_ms
                    .extend(symbolic_ms.iter().map(|ms| ms * factor));
            }
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

/// One job: builds the product and checks every rule with both backends.
/// Returns the product time and node count and the per-rule check times
/// (raw ms); BDD statistics accumulate into `p`.
fn job(
    book: &Book,
    world: &WorldModel,
    ctrl: &Controller,
    p: &mut Pass,
    checks: &mut Checks,
) -> (f64, f64, Vec<f64>, Vec<f64>) {
    let t = Instant::now();
    let graph = {
        let _s = obskit::span("bench.autokit.product");
        Product::build(world, ctrl).label_graph(DeadlockPolicy::Stutter)
    };
    let product_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut explicit_ms, mut symbolic_ms) = (Vec::new(), Vec::new());
    for (name, phi) in &book.specs {
        let t = Instant::now();
        let explicit = {
            let _s = obskit::span("bench.ltlcheck.check");
            ltlcheck::check_graph_fair(&graph, phi, &book.justice).holds()
        };
        explicit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (symbolic, stats) = {
            let _s = obskit::span("bench.symbolic.check");
            ltlcheck::symbolic::check_with_stats(&graph, phi, &book.justice)
        };
        symbolic_ms.push(t.elapsed().as_secs_f64() * 1e3);
        p.peak_nodes = p.peak_nodes.max(stats.peak_nodes);
        p.cache_lookups += stats.cache_lookups;
        p.cache_hits += stats.cache_hits;
        checks.check(explicit == symbolic, || {
            format!(
                "{name} on {}: explicit {explicit}, symbolic {symbolic}",
                world.name()
            )
        });
    }
    (
        product_ms,
        graph.num_nodes() as f64,
        explicit_ms,
        symbolic_ms,
    )
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let speed = Speed::new();
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (_, wall_s, factor) = speed.timed(|| drop(setup(args.seed)));
            wall_s * factor
        })
        .collect();
    let setup = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, || e);
            out.checks = checks;
            return out;
        }
    };

    // Traced runs make the passes twice: untraced (the overhead baseline),
    // then traced.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = repetitions(window, NOMINAL_PASS_S, MIN_PASSES);
    let run_passes = |checks: &mut Checks| {
        (0..count)
            .map(|_| pass(&setup, &speed, checks))
            .collect::<Vec<Pass>>()
    };
    let passes = run_passes(&mut checks);
    let norm_walls = |ps: &[Pass]| ps.iter().map(|p| p.norm_wall_s).collect::<Vec<_>>();
    let explicit_s: Vec<f64> = passes.iter().map(|p| sum(&p.explicit_ms) / 1e3).collect();
    let symbolic_s: Vec<f64> = passes.iter().map(|p| sum(&p.symbolic_ms) / 1e3).collect();
    let product_s: Vec<f64> = passes.iter().map(|p| sum(&p.product_ms) / 1e3).collect();

    if args.trace {
        let mut layers = Layers::default();
        obskit::enable();
        let traced = run_passes(&mut checks);
        obskit::disable();
        let snap = obskit::snapshot();

        layers.set(
            "obskit.trace_overhead_pct",
            overhead_pct(
                median(&norm_walls(&passes)).unwrap_or(0.0),
                median(&norm_walls(&traced)).unwrap_or(0.0),
            ),
            Some(traced.len()),
        );
        let cat = |f: fn(&Pass) -> &Vec<f64>| {
            traced
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<f64>>()
        };
        let (products, nodes, explicit, symbolic) = (
            cat(|p| &p.product_ms),
            cat(|p| &p.product_nodes),
            cat(|p| &p.explicit_ms),
            cat(|p| &p.symbolic_ms),
        );
        layers.set(
            "autokit.product_ms",
            ratio(sum(&products), products.len() as f64),
            Some(products.len()),
        );
        layers.set(
            "autokit.product_nodes",
            ratio(sum(&nodes), nodes.len() as f64),
            Some(nodes.len()),
        );
        if let Some(l) = Latency::of(&explicit) {
            layers.set("ltlcheck.check_p50_ms", l.p50, Some(l.n));
            layers.set("ltlcheck.check_p99_ms", l.p99, Some(l.n));
        }
        let per_pass = |v: u64| v as f64 / traced.len() as f64;
        layers.set(
            "ltlcheck.checks",
            per_pass(counter(&snap, "ltlcheck.checks")),
            None,
        );
        layers.set(
            "ltlcheck.product_states",
            per_pass(counter(&snap, "ltlcheck.product_states")),
            None,
        );
        layers.set(
            "symbolic.check_ms",
            ratio(sum(&symbolic), symbolic.len() as f64),
            Some(symbolic.len()),
        );
        layers.set(
            "bdd.peak_nodes",
            traced.iter().map(|p| p.peak_nodes).max().unwrap_or(0) as f64,
            None,
        );
        let (lookups, hits): (u64, u64) = traced
            .iter()
            .fold((0, 0), |(l, h), p| (l + p.cache_lookups, h + p.cache_hits));
        layers.set(
            "bdd.cache_hit_ratio",
            ratio(hits as f64, lookups as f64),
            Some(lookups as usize),
        );
        write_trace(args, &snap);
        layers.report(&mut out);
    } else {
        let all: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.explicit_ms.iter().chain(&p.symbolic_ms).copied())
            .collect();
        let checking_s = sum(&explicit_s) + sum(&symbolic_s);
        let jobs: Vec<(f64, f64)> = passes
            .iter()
            .map(|p| (p.wall_s, p.norm_wall_s / p.wall_s))
            .collect();
        out.end_to_end(
            &setup_s,
            &jobs,
            &[(&all, 1.0)],
            ratio(all.len() as f64, checking_s),
            &speed,
            &mut checks,
        );
    }
    out.note(
        "scaled_explicit_s",
        median(&explicit_s).unwrap_or(0.0),
        "s",
        Some(passes.len()),
    );
    out.note(
        "scaled_symbolic_s",
        median(&symbolic_s).unwrap_or(0.0),
        "s",
        Some(passes.len()),
    );
    out.note(
        "scaled_product_s",
        median(&product_s).unwrap_or(0.0),
        "s",
        Some(passes.len()),
    );
    out.checks = checks;
    out
}
