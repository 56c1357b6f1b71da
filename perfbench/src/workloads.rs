//! The four workloads, their inputs, and the checks on their outputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rvliw::exp::{
    ExperimentSpec, ExploreOutcome, ExploreSpec, Journal, MeResult, Scenario, ScenarioCache,
    SupervisorConfig, Sweep, TablesSnapshot, Workload,
};
use rvliw::mpeg4::{EncoderConfig, SyntheticSequence};
use rvliw::trace::{CountingTracer, Json, StallCause};

/// The paper's sequence seed ("FRMN"); golden-file checks apply only here.
pub const PAPER_SEED: u64 = 0x4652_4d4e;

/// The search seed of the checked-in explore frontier.
pub const EXPLORE_SEED: u64 = 7;

/// The `loop-sweep` experiment: the ORIG baseline plus every loop-level
/// engine (1x32, 1x64, 2x64, two line buffers) at β = 1..8.
pub const LOOP_SWEEP_SPEC: &str = include_str!("../specs/loop_sweep.json");

/// A per-attempt deadline that never fires on a healthy run: the
/// supervisor's watchdog thread is spawned for every attempt anyway.
pub const SWEEP_TIMEOUT: Duration = Duration::from_secs(600);
pub const SWEEP_RETRIES: u32 = 2;

/// The `loop-sweep` supervisor: a journal at `journal`, bounded retries
/// and a watchdog on every attempt.
pub fn sweep_config(journal: &Path) -> Result<SupervisorConfig, String> {
    Ok(SupervisorConfig {
        max_retries: SWEEP_RETRIES,
        timeout: Some(SWEEP_TIMEOUT),
        journal: Some(Journal::open(journal).map_err(|e| e.to_string())?),
        resume: BTreeMap::new(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wl {
    PaperGrid,
    LoopSweep,
    ExploreApprox,
    PaperGridCounted,
}

impl Wl {
    pub const ALL: [Wl; 4] = [
        Wl::PaperGrid,
        Wl::LoopSweep,
        Wl::ExploreApprox,
        Wl::PaperGridCounted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Wl::PaperGrid => "paper-grid",
            Wl::LoopSweep => "loop-sweep",
            Wl::ExploreApprox => "explore-approx",
            Wl::PaperGridCounted => "paper-grid-counted",
        }
    }

    pub fn parse(s: &str) -> Option<Wl> {
        Wl::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of the timed part.
    pub fn threads(self) -> usize {
        match self {
            Wl::PaperGrid | Wl::PaperGridCounted => 1,
            Wl::LoopSweep | Wl::ExploreApprox => 2,
        }
    }

    /// Whether the workload runs against a result cache, and so has a warm
    /// re-run.
    pub fn cached(self) -> bool {
        matches!(self, Wl::LoopSweep | Wl::ExploreApprox)
    }
}

/// Input size: the paper's 25-frame QCIF sequence, or a 64×48 3-frame
/// sequence (the size of `Workload::tiny`) for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    fn dims(self) -> (usize, usize, usize) {
        match self {
            Size::Full => (176, 144, 25),
            Size::Tiny => (64, 48, 3),
        }
    }
}

/// Everything a pass needs to know about its inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Wl,
    pub seed: u64,
    pub size: Size,
    /// Where the repository's specs and goldens are read from.
    pub root: PathBuf,
}

impl Inputs {
    /// Golden-file checks apply to the paper sequence only.
    pub fn golden(&self) -> bool {
        self.seed == PAPER_SEED
    }

    pub fn frames(&self) -> usize {
        self.size.dims().2
    }

    /// Generates and encodes the base sequence: the benchmark's set-up.
    pub fn encode(&self) -> Workload {
        let (w, h, frames) = self.size.dims();
        Workload::from_sequence(
            &SyntheticSequence::new(w, h, frames, self.seed),
            EncoderConfig::default(),
        )
    }

    /// The cache's workload tag: only the paper sequence at QCIF size can
    /// be rebuilt by `rvliw cache verify`; any other tag is still a
    /// correct content address.
    pub fn cache_kind(&self) -> &'static str {
        match (self.golden(), self.size) {
            (true, Size::Full) => "paper",
            _ => "custom",
        }
    }

    pub fn read(&self, rel: &str) -> Result<String, String> {
        let path = self.root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn loop_sweep(&self) -> Result<Sweep, String> {
        let spec = ExperimentSpec::from_json_str(LOOP_SWEEP_SPEC).map_err(|e| e.to_string())?;
        Sweep::expand(spec).map_err(|e| e.to_string())
    }

    /// `specs/explore_rfu.json` at this run's frame count.
    pub fn explore_spec(&self) -> Result<ExploreSpec, String> {
        let mut spec = ExploreSpec::from_json_str(&self.read("specs/explore_rfu.json")?)
            .map_err(|e| e.to_string())?;
        spec.frames = self.frames();
        Ok(spec)
    }
}

/// Every scenario of an explore space, by label (the explorer reports the
/// scenarios it evaluates by label only).
pub fn explore_scenarios(spec: &ExploreSpec) -> BTreeMap<String, Scenario> {
    let lens = spec.space.lens();
    let mut out = BTreeMap::new();
    let mut cand = vec![0usize; lens.len()];
    'all: loop {
        if let Some(sc) = spec
            .point_spec(&cand)
            .and_then(|p| p.scenarios().ok())
            .and_then(|v| v.into_iter().next())
        {
            out.insert(sc.label.clone(), sc);
        }
        for (axis, &len) in lens.iter().enumerate() {
            cand[axis] += 1;
            if cand[axis] < len {
                continue 'all;
            }
            cand[axis] = 0;
        }
        break;
    }
    out
}

/// A counter of output checks: attempted, failed, and why.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// One check that passes when `problems` is empty.
    pub fn none(&mut self, what: &str, problems: &[String]) {
        self.check(problems.is_empty(), || {
            let shown: Vec<&str> = problems.iter().take(5).map(String::as_str).collect();
            format!(
                "{what}: {} problem(s): {}",
                problems.len(),
                shown.join("; ")
            )
        });
    }
}

/// Table cells of a case study against the `tables` object of a
/// `BENCH_tables.json` text.
pub fn tables_problems(fresh: &TablesSnapshot, golden_text: &str) -> Vec<String> {
    let golden = Json::parse(golden_text)
        .map_err(|e| format!("golden does not parse: {e}"))
        .and_then(|j| {
            j.get("tables")
                .ok_or_else(|| "golden has no `tables` object".to_owned())
                .and_then(TablesSnapshot::from_json)
        });
    match golden {
        Ok(g) => fresh.diff(&g),
        Err(e) => vec![e],
    }
}

/// Where a `CountingTracer`'s totals disagree with the counters in the
/// `MeResult` of the same replay.
pub fn counting_problems(t: &CountingTracer, r: &MeResult) -> Vec<String> {
    let pairs = [
        ("bundles", t.bundles, r.core.bundles),
        ("ops", t.ops, r.core.ops),
        (
            "interlock stalls",
            t.stall_cycles(StallCause::Interlock),
            r.core.interlock_stalls,
        ),
        (
            "ifetch stalls",
            t.stall_cycles(StallCause::Ifetch),
            r.core.ifetch_stall_cycles,
        ),
        (
            "branch bubbles",
            t.stall_cycles(StallCause::BranchBubble),
            r.core.branch_stall_cycles,
        ),
        ("d-stalls", t.d_stall_cycles, r.mem.d_stall_cycles),
        ("d-hits", t.d_hits, r.mem.d_hits),
        ("d-misses", t.d_misses, r.mem.d_misses),
        ("i-misses", t.i_misses, r.mem.i_misses),
        ("prefetches", t.pf_issued, r.mem.pf_issued),
        ("rfu loops", t.rfu_loops, r.rfu.loops + r.rfu.dct_loops),
        ("lbb hits", t.lbb_hits, r.rfu.lbb_hits),
        ("lbb misses", t.lbb_misses, r.rfu.lbb_misses),
        ("lba wait cycles", t.lba_wait_cycles, r.rfu.lba_wait_cycles),
    ];
    pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("{}: {what}: tracer {a}, stats {b}", r.label))
        .collect()
}

/// What one untraced pass measured.
#[derive(Debug, Default)]
pub struct PassOut {
    pub setup_s: f64,
    pub wall_s: f64,
    /// The wall of every run of the timed part in this pass.
    pub walls: Vec<f64>,
    pub sim_cycles: u64,
    pub getsad_calls: u64,
    pub checks: Checks,
    /// The pass's output document, compared byte for byte between the
    /// cold and the warm pass.
    pub output: String,
}

/// How many times a warm pass re-runs its timed part. A warm re-run only
/// reads the cache and appends to the journal, a few milliseconds, too
/// short to time once.
pub const WARM_REPEATS: usize = 200;

/// The quantile of all warm re-runs of a run that `warm_wall_s` reports.
/// A warm re-run takes 2-5 ms on two worker threads, so its wall is mostly
/// how soon both threads get a core: on a shared two-core host the upper
/// half of the re-runs moves by half from one run to the next with the
/// neighbours' load. The 5th percentile of about a thousand re-runs is
/// the cost of the work itself when both threads run at once, and stays
/// put.
pub const WARM_QUANTILE: f64 = 0.05;

/// The `q` quantile of `v`, interpolating between the closest ranks.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Runs a cached workload's timed part once (cold) or
/// [`WARM_REPEATS`] times (warm), recording every wall and their median,
/// the first run's output and work, and checking that every re-run's
/// output is byte-identical to the first.
fn repeat(
    out: &mut PassOut,
    warm: bool,
    mut once: impl FnMut(&mut Checks) -> Result<(f64, String, (u64, u64)), String>,
) -> Result<(), String> {
    let mut walls = Vec::new();
    for i in 0..if warm { WARM_REPEATS } else { 1 } {
        let (wall, text, done) = once(&mut out.checks)?;
        walls.push(wall);
        if i == 0 {
            out.output = text;
            (out.sim_cycles, out.getsad_calls) = done;
        } else {
            out.checks.check(text == out.output, || {
                format!("warm re-run {i} output differs from the first")
            });
        }
    }
    out.wall_s = median(walls.clone());
    out.walls = walls;
    Ok(())
}

/// Sums of the simulated work in a set of results.
fn work<'a>(results: impl IntoIterator<Item = &'a MeResult>) -> (u64, u64) {
    results
        .into_iter()
        .fold((0, 0), |(c, n), r| (c + r.me_cycles, n + r.calls))
}

/// One untraced pass of `inp.workload`: set-up, then the timed part.
/// `cache_dir` is the pass's cache (fresh for a cold pass, left by the
/// cold pass for a warm one); `warm` says which.
pub fn run_pass(
    inp: &Inputs,
    cache_dir: &Path,
    warm: bool,
    golden_explore: bool,
) -> Result<PassOut, String> {
    let t0 = Instant::now();
    let w = inp.encode();
    let mut out = PassOut {
        setup_s: t0.elapsed().as_secs_f64(),
        ..PassOut::default()
    };
    let checks = &mut out.checks;
    match inp.workload {
        Wl::PaperGrid => {
            let scenarios = rvliw::exp::CaseStudy::scenarios();
            let t = Instant::now();
            let cs = rvliw::exp::CaseStudy::run_scenarios(&scenarios, &w, 1, |_| {});
            out.wall_s = t.elapsed().as_secs_f64();
            for r in cs.results() {
                checks.check(r.is_ok(), || format!("{r:?}"));
            }
            (out.sim_cycles, out.getsad_calls) = work(cs.results().filter_map(|r| r.as_ref().ok()));
            let snapshot = TablesSnapshot::capture(&cs);
            if inp.golden() && inp.size == Size::Full {
                let problems = tables_problems(&snapshot, &inp.read("BENCH_tables.json")?);
                checks.none("tables vs BENCH_tables.json", &problems);
            }
            out.output = snapshot.to_json().to_string();
        }
        Wl::PaperGridCounted => {
            let scenarios = rvliw::exp::CaseStudy::scenarios();
            let t = Instant::now();
            let runs: Vec<_> = scenarios
                .iter()
                .map(|sc| {
                    let mut tracer = CountingTracer::new();
                    let r = rvliw::exp::run_me_with_tracer(sc, &w, &mut tracer);
                    let metrics = tracer.to_metrics_json();
                    (r, tracer, metrics)
                })
                .collect();
            out.wall_s = t.elapsed().as_secs_f64();
            for (r, tracer, metrics) in &runs {
                match r {
                    Ok(r) => {
                        checks.check(true, String::new);
                        checks.none("counting tracer vs stats", &counting_problems(tracer, r));
                        out.output.push_str(metrics);
                    }
                    Err(e) => checks.check(false, || e.to_string()),
                }
            }
            (out.sim_cycles, out.getsad_calls) =
                work(runs.iter().filter_map(|(r, _, _)| r.as_ref().ok()));
        }
        Wl::LoopSweep => {
            let sweep = inp.loop_sweep()?;
            let cache =
                ScenarioCache::open(cache_dir, &w, inp.cache_kind()).map_err(|e| e.to_string())?;
            let config = sweep_config(&cache_dir.join("journal.jsonl"))?;
            repeat(&mut out, warm, |checks| {
                let hits = cache.counts().hits;
                let t = Instant::now();
                let (outcome, health) = sweep.run_supervised(&w, 2, |_| {}, Some(&cache), &config);
                let wall = t.elapsed().as_secs_f64();
                for row in &outcome.rows {
                    checks.check(row.result.is_ok(), || format!("{:?}", row.result));
                }
                checks.check(health.timeouts == 0 && health.failed == 0, || {
                    format!("supervisor: {}", health.summary_line())
                });
                if warm {
                    let hits = cache.counts().hits - hits;
                    checks.check(hits == outcome.rows.len() as u64, || {
                        format!(
                            "warm pass: {hits} cache hits for {} rows",
                            outcome.rows.len()
                        )
                    });
                }
                let done = work(outcome.rows.iter().filter_map(|r| r.result.as_ref().ok()));
                Ok((wall, outcome.to_json_string(), done))
            })?;
        }
        Wl::ExploreApprox => {
            let spec = inp.explore_spec()?;
            let cache =
                ScenarioCache::open(cache_dir, &w, inp.cache_kind()).map_err(|e| e.to_string())?;
            let by_label = explore_scenarios(&spec);
            repeat(&mut out, warm, |checks| {
                let labels = Mutex::new(Vec::new());
                let progress = |l: &str| {
                    labels
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(l.to_owned());
                };
                let t = Instant::now();
                let outcome = rvliw::exp::run_explore(
                    &spec,
                    EXPLORE_SEED,
                    &w,
                    2,
                    progress,
                    Some(&cache),
                    &SupervisorConfig::default(),
                );
                let wall = t.elapsed().as_secs_f64();
                checks.check(
                    outcome.failures.is_empty() && outcome.evaluations > 0,
                    || {
                        format!(
                            "explore: {} evaluations, failures {:?}",
                            outcome.evaluations, outcome.failures
                        )
                    },
                );
                // The simulated work behind the evaluations, read back
                // from the cache after the timed part.
                let labels = labels.into_inner().unwrap_or_else(PoisonError::into_inner);
                let results: Vec<MeResult> = labels
                    .iter()
                    .filter_map(|l| by_label.get(l))
                    .filter_map(|sc| cache.lookup(sc))
                    .collect();
                checks.check(results.len() == labels.len(), || {
                    format!(
                        "explore: {} of {} evaluated scenarios found in the cache",
                        results.len(),
                        labels.len()
                    )
                });
                Ok((wall, outcome.to_json_string(), work(&results)))
            })?;
            if golden_explore && inp.golden() {
                let problems = explore_golden_problems(inp)?;
                out.checks.none("explore frontier vs golden", &problems);
            }
        }
    }
    Ok(out)
}

/// The explore run at the spec's own 2 frames against
/// `specs/explore_rfu_frontier.json`, byte for byte.
pub fn explore_golden_problems(inp: &Inputs) -> Result<Vec<String>, String> {
    let spec = ExploreSpec::from_json_str(&inp.read("specs/explore_rfu.json")?)
        .map_err(|e| e.to_string())?;
    let golden = inp.read("specs/explore_rfu_frontier.json")?;
    let w = Workload::from_sequence(
        &SyntheticSequence::new(176, 144, spec.frames, inp.seed),
        EncoderConfig::default(),
    );
    let outcome: ExploreOutcome = rvliw::exp::run_explore(
        &spec,
        EXPLORE_SEED,
        &w,
        2,
        |_| {},
        None,
        &SupervisorConfig::default(),
    );
    let fresh = outcome.to_json_string();
    Ok(if fresh == golden {
        Vec::new()
    } else {
        vec![format!(
            "frontier differs from the golden ({} vs {} bytes)",
            fresh.len(),
            golden.len()
        )]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_tables_golden_is_caught() {
        let cs = rvliw::exp::CaseStudy::run_with_threads(&Workload::tiny(), 1, |_| {});
        let fresh = TablesSnapshot::capture(&cs);
        let golden = |s: &TablesSnapshot| format!("{{\"tables\": {}}}", s.to_json());
        assert!(tables_problems(&fresh, &golden(&fresh)).is_empty());
        let mut corrupted = fresh.clone();
        if let Some(cell) = corrupted.cells.values_mut().next() {
            *cell += 1;
        }
        assert_eq!(tables_problems(&fresh, &golden(&corrupted)).len(), 1);
        assert_eq!(tables_problems(&fresh, "{}").len(), 1);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(v.clone(), 0.0), 1.0);
        assert_eq!(median(v.clone()), 3.0);
        assert_eq!(median(vec![1.0, 2.0, 4.0, 3.0]), 2.5);
        assert!((quantile(v.clone(), 0.05) - 1.2).abs() < 1e-12);
        assert_eq!(quantile(v, 1.0), 5.0);
        assert_eq!(quantile(Vec::new(), 0.05), 0.0);
    }

    #[test]
    fn the_explore_space_enumerates_every_point() {
        let spec = Inputs {
            workload: Wl::ExploreApprox,
            seed: PAPER_SEED,
            size: Size::Tiny,
            root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
        }
        .explore_spec()
        .expect("explore spec");
        assert_eq!(explore_scenarios(&spec).len(), spec.space.size());
    }
}
