//! Machine-speed normalisation.
//!
//! The cores of a shared host change speed under the benchmark: on the
//! 2-core reference machine a fixed loop swings between 41 and 66 ms from
//! second to second, and whole minutes run up to 2× slow or fast. Thread
//! CPU time swings with wall time (the cores slow down; the process is
//! not descheduled), so no process clock hides it, and a run-level median
//! cannot absorb a slow minute. The two cores drift separately, so a
//! probe only tells the speed of the core it ran on.
//!
//! The benchmark therefore probes the core its work runs on: a fixed
//! [`PROBE_STEPS`]-step walk, timed on the measuring threads themselves
//! around or between units of work ([`Speed::timed`], [`Speed::probe`]),
//! or, for one long call the benchmark cannot interrupt, by samplers
//! pinned one to each core that probe only while the calling thread is
//! running on their core ([`Speed::following`]). A unit's time is
//! reported as `wall · REF_PROBE_S / probe`, with `probe` the probe time
//! around the unit (the median inside it, for long units): the time the
//! unit would have taken with the cores at the reference speed. The raw
//! job times are printed beside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Steps of one probe run (≈ 0.1 ms).
const PROBE_STEPS: usize = 20_000;
/// One probe run's time with the reference machine's cores at their
/// usual speed. A constant scale: normalised times read as seconds at
/// that speed, and comparisons do not depend on its value.
pub const REF_PROBE_S: f64 = 80e-6;
/// Sampler period for [`Speed::following`].
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Probe readings on one clock.
pub struct Speed {
    origin: Instant,
    /// A single-cycle permutation of a 64 KiB table (cache-resident).
    next: Vec<u32>,
    /// `(seconds since origin, probe seconds)`.
    readings: Mutex<Vec<(f64, f64)>>,
}

impl Speed {
    /// A fresh clock with no readings.
    pub fn new() -> Speed {
        let n = 1usize << 14;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = crate::traffic::SplitMix::new(0x5eed);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i));
        }
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        Speed {
            origin: Instant::now(),
            next,
            readings: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Probes the calling thread's core, records the reading and returns
    /// it (seconds).
    pub fn probe(&self) -> f64 {
        let s = self.measure();
        self.record(s);
        s
    }

    /// One probe of the calling thread's core, seconds: the fastest of
    /// three runs of a dependent walk over the table mixed with integer
    /// hashing (cache-latency and ALU work, like the checkers'). Taking
    /// the fastest drops runs an interrupt or a cold cache slowed.
    fn measure(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut i = 0u32;
                let mut h = 0u64;
                for _ in 0..PROBE_STEPS {
                    i = self.next[i as usize];
                    h = (h ^ u64::from(i))
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(23);
                }
                std::hint::black_box(h);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn record(&self, probe_s: f64) {
        let at = self.now();
        self.readings
            .lock()
            .expect("no thread panics while recording a probe")
            .push((at, probe_s));
    }

    /// Runs `f` on the calling thread between two probes of its core and
    /// returns its result, its wall seconds and the factor that brings
    /// them to the reference speed ([`REF_PROBE_S`] over the mean of the
    /// two probes).
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let after = self.probe();
        (out, wall_s, REF_PROBE_S / ((before + after) / 2.0))
    }

    /// Runs `f` on the calling thread and returns its result, its wall
    /// seconds and the factor that brings them to the reference speed,
    /// for one long call that cannot be split by probes. One sampler per
    /// allowed core, pinned there, wakes every [`SAMPLE_EVERY`] and
    /// probes its core when the calling thread is running on it; a
    /// reading counts only when the calling thread is still there after
    /// the probe. The calling thread does the serial work and helps in
    /// the parallel phases, so the readings follow the core that carries
    /// the job's critical path, wherever the scheduler moves it.
    pub fn following<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let cpus = cpu::allowed();
        let target = cpu::stat_path_of_current_thread();
        let done = AtomicBool::new(false);
        let t0 = self.now();
        let t = Instant::now();
        let out = std::thread::scope(|scope| {
            for &core in &cpus {
                let (done, target) = (&done, target.as_deref());
                scope.spawn(move || {
                    let Some(target) = target else { return };
                    if !cpu::pin_current_thread(core) {
                        return;
                    }
                    let on_core = || cpu::last_cpu(target) == Some(core);
                    while !done.load(Ordering::Relaxed) {
                        if on_core() {
                            let s = self.measure();
                            if on_core() {
                                self.record(s);
                            }
                        }
                        std::thread::sleep(SAMPLE_EVERY);
                    }
                });
            }
            let out = f();
            done.store(true, Ordering::Relaxed);
            out
        });
        let wall_s = t.elapsed().as_secs_f64();
        (out, wall_s, self.factor(t0, self.now()))
    }

    /// The factor that brings a unit timed over `[t0, t1]` to the
    /// reference speed: [`REF_PROBE_S`] over the median reading inside
    /// the interval (the nearest reading when none fell inside; 1 with
    /// no readings at all).
    pub fn factor(&self, t0: f64, t1: f64) -> f64 {
        let readings = self
            .readings
            .lock()
            .expect("no thread panics while recording a probe");
        let mut inside: Vec<f64> = readings
            .iter()
            .filter(|(t, _)| (t0..=t1).contains(t))
            .map(|&(_, s)| s)
            .collect();
        if inside.is_empty() {
            let mid = (t0 + t1) / 2.0;
            inside.extend(
                readings
                    .iter()
                    .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                    .map(|&(_, s)| s),
            );
        }
        match crate::stats::median(&inside) {
            Some(s) if s > 0.0 => REF_PROBE_S / s,
            _ => 1.0,
        }
    }

    /// Median probe reading so far, seconds (printed with each run).
    pub fn median_probe_s(&self) -> f64 {
        let readings = self
            .readings
            .lock()
            .expect("no thread panics while recording a probe");
        crate::stats::median(&readings.iter().map(|&(_, s)| s).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// Which core a thread runs on, and pinning the calling thread to one
/// (Linux: `/proc` and the C library's affinity calls).
mod cpu {
    /// `cpu_set_t`: 1,024 bits.
    type CpuSet = [u64; 16];
    const SET_BYTES: usize = std::mem::size_of::<CpuSet>();

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// Cores the calling thread may run on (none when unknown).
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid
        // 0 is the calling thread.
        if unsafe { sched_getaffinity(0, SET_BYTES, &mut set) } != 0 {
            return Vec::new();
        }
        (0..SET_BYTES * 8)
            .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `core`; `false` when refused.
    pub fn pin_current_thread(core: usize) -> bool {
        if core >= SET_BYTES * 8 {
            return false;
        }
        let mut set: CpuSet = [0; 16];
        set[core / 64] = 1 << (core % 64);
        // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        unsafe { sched_setaffinity(0, SET_BYTES, &set) == 0 }
    }

    /// The `/proc` stat file of the calling thread.
    pub fn stat_path_of_current_thread() -> Option<String> {
        // A link to `<pid>/task/<tid>`.
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(format!("/proc/{}/stat", link.display()))
    }

    /// The core the thread with stat file `stat_path` last ran on.
    pub fn last_cpu(stat_path: &str) -> Option<usize> {
        processor_field(&std::fs::read_to_string(stat_path).ok()?)
    }

    /// Field 39 (`processor`) of a stat line. The fields after the
    /// parenthesised command name, which may hold spaces, start at 3.
    pub fn processor_field(stat: &str) -> Option<usize> {
        stat[stat.rfind(')')? + 1..]
            .split_whitespace()
            .nth(39 - 3)?
            .parse()
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let s = Speed::new();
        let mut seen = vec![false; s.next.len()];
        let mut i = 0usize;
        for _ in 0..s.next.len() {
            assert!(!seen[i]);
            seen[i] = true;
            i = s.next[i] as usize;
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn factor_uses_readings_inside_or_nearest() {
        let s = Speed::new();
        assert_eq!(s.factor(0.0, 1.0), 1.0);
        {
            let mut r = s.readings.lock().unwrap();
            r.extend([
                (1.0, REF_PROBE_S),
                (2.0, 2.0 * REF_PROBE_S),
                (3.0, 2.0 * REF_PROBE_S),
            ]);
        }
        // Median inside [1.5, 3.5] is twice the reference: half speed.
        assert_eq!(s.factor(1.5, 3.5), 0.5);
        // Nothing inside [0.0, 0.5]: the nearest reading (t = 1) decides.
        assert_eq!(s.factor(0.0, 0.5), 1.0);
    }

    #[test]
    fn probes_record_readings() {
        let s = Speed::new();
        assert!(s.probe() > 0.0);
        let (v, wall, factor) = s.timed(|| 3);
        assert_eq!(v, 3);
        assert!(wall >= 0.0 && factor > 0.0);
        assert_eq!(s.readings.lock().unwrap().len(), 3);
        assert!(s.median_probe_s() > 0.0);
    }

    #[test]
    fn stat_line_gives_the_processor() {
        let mut fields: Vec<String> = (3..=52).map(|i| i.to_string()).collect();
        fields[39 - 3] = "1".into();
        let line = format!("4242 (a (b) c) {}", fields.join(" "));
        assert_eq!(cpu::processor_field(&line), Some(1));
        assert_eq!(cpu::processor_field("4242 (short) S 1"), None);
    }

    #[test]
    fn following_probes_the_callers_core() {
        let cores = cpu::allowed();
        assert!(!cores.is_empty());
        let me = cpu::stat_path_of_current_thread().expect("/proc/thread-self");
        // A pinned thread reads its own core back.
        let core = *cores.last().unwrap();
        std::thread::spawn(move || {
            assert!(cpu::pin_current_thread(core));
            let own = cpu::stat_path_of_current_thread().unwrap();
            assert_eq!(cpu::last_cpu(&own), Some(core));
        })
        .join()
        .unwrap();
        assert!(cpu::last_cpu(&me).is_some());

        let s = Speed::new();
        let spin = Duration::from_millis(300);
        let (v, wall, factor) = s.following(|| {
            let t = Instant::now();
            while t.elapsed() < spin {
                std::hint::spin_loop();
            }
            7
        });
        assert_eq!(v, 7);
        assert!(wall >= spin.as_secs_f64() && factor > 0.0);
        // The caller was busy on some core for 15 sampler periods.
        assert!(!s.readings.lock().unwrap().is_empty());
    }
}
