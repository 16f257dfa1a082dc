//! The shape of a request stream, measured the same way on real model
//! samples and on the generated traffic.
//!
//! `finetune` profiles the responses its pre-trained and fine-tuned
//! models actually sample (the requests the pipeline verifies);
//! `verify_stream` profiles its generated traffic. Both print the same
//! `profile.*` notes, so the generator's mix can be checked against real
//! samples rather than assumed. A profile covers the *first sightings* of
//! a stream — one per distinct `(scenario, text)`, what a verdict cache
//! misses on — in stream order:
//!
//! * `profile.rejected_share`: first sightings the pipeline rejects
//!   before model checking (`speclint` response preflight or `glm2fsa`
//!   synthesis fails);
//! * `profile.same_logic_share` (base: accepted first sightings): new
//!   wordings of logic seen before — the synthesized controller equals an
//!   earlier first sighting's for the same task;
//! * `profile.sat_mean` and `profile.sat_full_share` (base: accepted
//!   first sightings): specifications satisfied per response, and the
//!   share satisfying all of them;
//! * `profile.ctrl_states_mean`: synthesized controller size;
//! * `profile.form.*` (base: accepted first sightings): the generator
//!   form ([`crate::traffic::Form`]) each accepted first sighting is
//!   nearest to — every variant of every form is scored for the task, and
//!   the response goes to the variants whose verdict and controller size
//!   are nearest (split by the variants' chances on a tie);
//!   `profile.form_exact_share` is the share matched exactly. On
//!   `finetune` this derives the generator's [`FORM_MIX`] from real
//!   samples; on `verify_stream` it should give that mix back.
//!
//! The latency side of the comparison is `verify_miss_p50_ms` and
//! `verify_miss_p99_ms`, the service time of first sightings.
//!
//! [`FORM_MIX`]: crate::traffic::FORM_MIX

use crate::common::Outcome;
use crate::layers::ratio;
use crate::stats::Latency;
use crate::traffic::{Traffic, FORMS, NUM_TASKS};
use autokit::Controller;
use dpo_af::DomainBundle;
use std::collections::HashSet;

/// Profile of the first sightings of one or more streams.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    /// First sightings profiled.
    pub first_sightings: usize,
    /// Rejected before model checking.
    pub rejected: usize,
    /// Accepted, with a controller seen earlier in the same stream for
    /// the same task.
    pub same_logic: usize,
    /// `(task id, specifications satisfied, controller states)` of every
    /// accepted first sighting.
    pub accepted: Vec<(usize, usize, usize)>,
    /// Specifications per response.
    pub specs: usize,
}

/// The controller the pipeline synthesizes for `text`, or `None` when it
/// rejects the response before model checking.
fn controller(bundle: &DomainBundle, tid: usize, text: &str) -> Option<Controller> {
    let task = &bundle.tasks[tid];
    dpo_af::feedback::preflight_response(bundle, task, text).ok()?;
    glm2fsa::synthesize(
        &task.prompt,
        &DomainBundle::split_steps(text),
        &bundle.lexicon,
        dpo_af::feedback::fsa_options(&bundle.driving),
    )
    .ok()
}

impl Profile {
    /// Profiles one stream's `(task id, text, served verdict)` first
    /// sightings, in stream order. Verdicts are the served numbers of
    /// satisfied specifications; the controllers are synthesized here.
    pub fn of<'a>(
        bundle: &DomainBundle,
        first_sightings: impl IntoIterator<Item = (usize, &'a str, usize)>,
    ) -> Profile {
        let mut p = Profile {
            specs: ltlcheck::specs::driving_specs(&bundle.driving).len(),
            ..Profile::default()
        };
        let mut logic: HashSet<(usize, String)> = HashSet::new();
        for (tid, text, verdict) in first_sightings {
            p.first_sightings += 1;
            let Some(ctrl) = controller(bundle, tid, text) else {
                p.rejected += 1;
                continue;
            };
            if !logic.insert((tid, format!("{ctrl:?}"))) {
                p.same_logic += 1;
            }
            p.accepted.push((tid, verdict, ctrl.num_states()));
        }
        p
    }

    /// Adds another stream's profile.
    pub fn add(&mut self, other: Profile) {
        self.first_sightings += other.first_sightings;
        self.rejected += other.rejected;
        self.same_logic += other.same_logic;
        self.accepted.extend(other.accepted);
        self.specs = other.specs;
    }

    fn mean(&self, f: impl Fn(&(usize, usize, usize)) -> f64) -> f64 {
        ratio(
            self.accepted.iter().map(f).sum(),
            self.accepted.len() as f64,
        )
    }

    /// Rejected over first sightings.
    pub fn rejected_share(&self) -> f64 {
        ratio(self.rejected as f64, self.first_sightings as f64)
    }

    /// Same-logic first sightings over accepted ones.
    pub fn same_logic_share(&self) -> f64 {
        ratio(self.same_logic as f64, self.accepted.len() as f64)
    }

    /// Mean specifications satisfied per accepted first sighting.
    pub fn sat_mean(&self) -> f64 {
        self.mean(|&(_, sat, _)| sat as f64)
    }

    /// Share of accepted first sightings satisfying every specification.
    pub fn sat_full_share(&self) -> f64 {
        self.mean(|&(_, sat, _)| f64::from(u8::from(sat == self.specs)))
    }

    /// Mean controller states per accepted first sighting.
    pub fn ctrl_states_mean(&self) -> f64 {
        self.mean(|&(_, _, states)| states as f64)
    }

    /// The generator form each accepted first sighting is nearest to, as
    /// shares in [`FORMS`] order, and the share matched exactly.
    pub fn form_mix(&self, bundle: &DomainBundle) -> ([f64; FORMS.len()], f64) {
        // Every variant of every form, per task.
        struct Variant {
            form: usize,
            chance: f64,
            sat: usize,
            states: usize,
        }
        let mut render = Traffic::new(0);
        let mut variants: Vec<Vec<Variant>> = (0..NUM_TASKS).map(|_| Vec::new()).collect();
        for (tid, of_task) in variants.iter_mut().enumerate() {
            for (form, f) in FORMS.iter().enumerate() {
                for (plan, chance) in f.variants(tid) {
                    let text = render.render(plan);
                    of_task.push(Variant {
                        form,
                        chance,
                        sat: dpo_af::score_response(bundle, &bundle.tasks[tid], &text)
                            .num_satisfied,
                        states: controller(bundle, tid, &text).map_or(0, |c| c.num_states()),
                    });
                }
            }
        }
        let mut mix = [0.0; FORMS.len()];
        let mut exact = 0usize;
        for &(tid, sat, states) in &self.accepted {
            let distance = |v: &Variant| v.sat.abs_diff(sat) + v.states.abs_diff(states);
            let Some(best) = variants[tid].iter().map(distance).min() else {
                continue;
            };
            exact += usize::from(best == 0);
            let nearest: Vec<&Variant> = variants[tid]
                .iter()
                .filter(|v| distance(v) == best)
                .collect();
            let total: f64 = nearest.iter().map(|v| v.chance).sum();
            for v in nearest {
                mix[v.form] += v.chance / total;
            }
        }
        let n = self.accepted.len() as f64;
        (mix.map(|m| ratio(m, n)), ratio(exact as f64, n))
    }

    /// Adds the `profile.*` notes.
    pub fn report(&self, bundle: &DomainBundle, out: &mut Outcome) {
        let n = Some(self.first_sightings);
        let accepted = Some(self.accepted.len());
        out.note("profile.rejected_share", self.rejected_share(), "share", n);
        out.note(
            "profile.same_logic_share",
            self.same_logic_share(),
            "share",
            accepted,
        );
        out.note("profile.sat_mean", self.sat_mean(), "specs", accepted);
        out.note(
            "profile.sat_full_share",
            self.sat_full_share(),
            "share",
            accepted,
        );
        out.note(
            "profile.ctrl_states_mean",
            self.ctrl_states_mean(),
            "count",
            accepted,
        );
        let (mix, exact) = self.form_mix(bundle);
        for (name, share) in FORM_NAMES.iter().zip(mix) {
            out.note(name, share, "share", accepted);
        }
        out.note("profile.form_exact_share", exact, "share", accepted);
    }
}

/// Note names of the form shares, in [`FORMS`] order.
const FORM_NAMES: [&str; FORMS.len()] = [
    "profile.form.guarded",
    "profile.form.incomplete",
    "profile.form.hasty",
    "profile.form.reckless",
    "profile.form.wrong_maneuver",
];

/// Adds `verify_miss_p50_ms` and `verify_miss_p99_ms`: the service time
/// of first sightings, pooled, at the reference speed.
pub fn report_miss_latency(miss_ms: &[f64], out: &mut Outcome) {
    if let Some(l) = Latency::of(miss_ms) {
        out.note("verify_miss_p50_ms", l.p50, "ms", Some(l.n));
        out.note("verify_miss_p99_ms", l.p99, "ms", Some(l.n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Kind, FORM_MIX};

    #[test]
    fn profile_gives_the_generators_form_mix_back() {
        let bundle = DomainBundle::new();
        let (requests, _) = Traffic::take(17, 1_500);
        // Fresh plans follow the form mix exactly; paraphrases of popular
        // plans and unalignable responses would not.
        let fresh: Vec<(usize, &str, usize)> = requests
            .iter()
            .filter(|r| r.kind == Kind::Fresh)
            .map(|r| {
                let task = &bundle.tasks[r.task];
                let sat = dpo_af::score_response(&bundle, task, &r.text).num_satisfied;
                (r.task, r.text.as_str(), sat)
            })
            .collect();
        let p = Profile::of(&bundle, fresh.iter().copied());
        assert_eq!(p.rejected, 0);
        assert_eq!(p.accepted.len(), fresh.len());
        let (mix, exact) = p.form_mix(&bundle);
        assert_eq!(exact, 1.0);
        for (got, want) in mix.iter().zip(FORM_MIX) {
            assert!((got - want).abs() < 0.06, "{mix:?} vs {FORM_MIX:?}");
        }
        assert!(p.same_logic_share() > 0.0 && p.sat_mean() > 0.0);
        assert!(p.sat_full_share() > 0.0 && p.ctrl_states_mean() >= 1.0);
    }

    #[test]
    fn rejected_responses_are_counted_apart() {
        let bundle = DomainBundle::new();
        let p = Profile::of(
            &bundle,
            [
                (0, "use your best judgment and merge .", 0),
                (0, "observe the green light ; if the green light is on and no car from the left and no pedestrian on the right, turn right .", 15),
            ],
        );
        assert_eq!((p.first_sightings, p.rejected, p.accepted.len()), (2, 1, 1));
        assert_eq!(p.rejected_share(), 0.5);
        assert_eq!(p.sat_full_share(), 1.0);
    }
}
