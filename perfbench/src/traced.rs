//! The traced run: per-layer numbers from spans around the public calls
//! each layer is entered through, plus the parity and reconciliation
//! checks that say the replay measured the same work as `run_me`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use rvliw::exp::{
    run_me, run_me_with_tracer, run_scenario_list_supervised, CaseStudy, Journal, MeResult,
    Scenario, ScenarioCache, SupervisorConfig, TablesSnapshot,
};
use rvliw::sim::{backend_totals, BackendStats};
use rvliw::trace::CountingTracer;

use crate::replay::{replay_pass, Outcome, Slot, Supervision, TracerKind};
use crate::spans::{self, Recorder, Span, ROOT};
use crate::workloads::{
    counting_problems, explore_scenarios, sweep_config, tables_problems, Checks, Inputs, Size, Wl,
    EXPLORE_SEED, SWEEP_RETRIES, SWEEP_TIMEOUT,
};

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("mpeg4.encode_s", "s"),
    ("mpeg4.derived_s", "s"),
    ("mpeg4.derived_encodes", "count"),
    ("mpeg4.sad_calls", "count"),
    ("kernels.build_s", "s"),
    ("kernels.programs", "count"),
    ("kernels.bundles", "count"),
    ("sim.session_build_s", "s"),
    ("sim.first_run_s", "s"),
    ("sim.runs", "count"),
    ("sim.run_s", "s"),
    ("sim.run_us_p50", "us"),
    ("sim.run_us_p99", "us"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.block_runs", "count"),
    ("sim.interp_runs", "count"),
    ("sim.fallbacks", "count"),
    ("sim.block_hit_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("sim.bundles", "count"),
    ("sim.ops", "count"),
    ("sim.interlock_stalls", "count"),
    ("mem.d_hits", "count"),
    ("mem.d_misses", "count"),
    ("mem.d_stall_cycles", "count"),
    ("mem.i_misses", "count"),
    ("mem.pf_useful", "count"),
    ("mem.pf_late", "count"),
    ("rfu.loops", "count"),
    ("rfu.lbb_hits", "count"),
    ("rfu.lbb_misses", "count"),
    ("rfu.lba_wait_cycles", "count"),
    ("runner.store_s", "s"),
    ("runner.glue_s", "s"),
    ("runner.scenario_s_max", "s"),
    ("runner.idle_s", "s"),
    ("supervisor.attempts", "count"),
    ("supervisor.retries", "count"),
    ("supervisor.timeouts", "count"),
    ("journal.append_s", "s"),
    ("journal.records", "count"),
    ("cache.lookup_s", "s"),
    ("cache.record_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.writes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("explore.evaluations", "count"),
    ("explore.revisits", "count"),
    ("explore.eval_ratio", "ratio"),
    ("trace.bundles", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.span_overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Span names whose self time is reported as a `_s` metric.
const SELF_TIME: &[(&str, &str)] = &[
    ("mpeg4.derived", "mpeg4.derived_s"),
    ("kernels.build", "kernels.build_s"),
    ("sim.session_build", "sim.session_build_s"),
    ("sim.first_run", "sim.first_run_s"),
    ("sim.run", "sim.run_s"),
    ("runner.store", "runner.store_s"),
    ("runner.scenario", "runner.glue_s"),
    ("journal.append", "journal.append_s"),
    ("cache.lookup", "cache.lookup_s"),
    ("cache.record", "cache.record_s"),
];

/// Scenario roots: the outermost span of one scenario of a pass.
const ROOT_NAMES: [&str; 2] = ["supervisor.scenario", "runner.scenario"];

/// What the traced run measured.
pub struct TracedOut {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
}

/// A fresh directory under `scratch` for one cache or journal.
fn fresh_dir(scratch: &Path, tag: &str) -> Result<std::path::PathBuf, String> {
    let dir = scratch.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(dir)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The traced run of `inp.workload`, with its caches and journals under
/// `scratch`. Spans are written to `work/spans-<workload>.tsv` at the end.
pub fn run_traced(inp: &Inputs, scratch: &Path, work: &Path) -> Result<TracedOut, String> {
    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|&(k, _)| (k, 0.0)).collect();
    let mut checks = Checks::default();
    let mut setup = Recorder::new(u32::MAX, u32::MAX, ROOT);
    let w = setup.span("mpeg4.encode", |_| inp.encode());
    m.insert("mpeg4.sad_calls", w.num_calls() as f64);

    let mut passes: Vec<(Vec<Slot>, Recorder)> = Vec::new();
    let threads = inp.workload.threads();
    // Wall of the untraced reference, of the traced replay, and the
    // backend counters over the replay.
    let (ref_wall, traced_wall, backend);
    let mut references: Vec<MeResult> = Vec::new();
    let mut scenarios: Vec<Scenario> = CaseStudy::scenarios();
    let mut idle_wall = None;
    let mut supervised = None;
    match inp.workload {
        Wl::PaperGrid | Wl::PaperGridCounted => {
            let counted = inp.workload == Wl::PaperGridCounted;
            let t = Instant::now();
            if counted {
                for sc in &scenarios {
                    let mut tracer = CountingTracer::new();
                    match run_me_with_tracer(sc, &w, &mut tracer) {
                        Ok(r) => references.push(r),
                        Err(e) => checks.check(false, || e.to_string()),
                    }
                }
                ref_wall = secs(t);
                let t = Instant::now();
                for sc in &scenarios {
                    if let Err(e) = run_me(sc, &w) {
                        checks.check(false, || e.to_string());
                    }
                }
                m.insert("trace.overhead_ratio", ref_wall / secs(t));
            } else {
                let cs = CaseStudy::run_scenarios(&scenarios, &w, 1, |_| {});
                ref_wall = secs(t);
                if inp.golden() && inp.size == Size::Full {
                    let problems = tables_problems(
                        &TablesSnapshot::capture(&cs),
                        &inp.read("BENCH_tables.json")?,
                    );
                    checks.none("tables vs BENCH_tables.json", &problems);
                }
                for r in cs.results() {
                    match r {
                        Ok(r) => references.push(r.clone()),
                        Err(e) => checks.check(false, || e.to_string()),
                    }
                }
            }
            let tracer = if counted {
                TracerKind::Counting
            } else {
                TracerKind::Null
            };
            let b0 = backend_totals();
            let t = Instant::now();
            passes.push(replay_pass(0, &scenarios, &w, threads, tracer, None));
            traced_wall = secs(t);
            backend = diff(backend_totals(), b0);
        }
        Wl::LoopSweep | Wl::ExploreApprox => {
            let shared = Arc::new(w.clone());
            let explore = inp.workload == Wl::ExploreApprox;
            let journal = if explore {
                None
            } else {
                let path = fresh_dir(scratch, "traced-journal")?.join("journal.jsonl");
                Some(Journal::open(path).map_err(|e| e.to_string())?)
            };
            if explore {
                let spec = inp.explore_spec()?;
                // The derived encodes the space can ask for, done up front
                // so the explore search below runs on warm memos.
                let by_label = explore_scenarios(&spec);
                let mut derive = Recorder::new(u32::MAX, u32::MAX, ROOT);
                let mut derived_keys = BTreeSet::new();
                for sc in by_label.values() {
                    if sc.needs_derived_workload()
                        && derived_keys.insert(format!("{:?}|{:?}", sc.approx, sc.search))
                    {
                        derive.span("mpeg4.derived", |_| w.derived(sc.approx, sc.search));
                    }
                }
                setup.absorb(derive);
                let cache =
                    ScenarioCache::open(fresh_dir(scratch, "explore-cache")?, &w, inp.cache_kind())
                        .map_err(|e| e.to_string())?;
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
                    threads,
                    progress,
                    Some(&cache),
                    &SupervisorConfig::default(),
                );
                idle_wall = Some(secs(t));
                scenarios = labels
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .filter_map(|l| by_label.get(l).cloned())
                    .collect();
                checks.check(scenarios.len() == outcome.evaluations, || {
                    format!(
                        "explore: {} evaluations, {} scenarios seen",
                        outcome.evaluations,
                        scenarios.len()
                    )
                });
                let (e, r) = (outcome.evaluations as f64, outcome.revisits as f64);
                m.insert("explore.evaluations", e);
                m.insert("explore.revisits", r);
                m.insert("explore.eval_ratio", ratio(e, e + r));
            } else {
                scenarios = inp.loop_sweep()?.scenarios().to_vec();
            }
            // Untraced reference: the crate's supervised runner over the
            // same scenarios, into a fresh cache.
            let ref_cache =
                ScenarioCache::open(fresh_dir(scratch, "reference-cache")?, &w, inp.cache_kind())
                    .map_err(|e| e.to_string())?;
            let config = if explore {
                SupervisorConfig::default()
            } else {
                sweep_config(&fresh_dir(scratch, "reference-journal")?.join("journal.jsonl"))?
            };
            let t = Instant::now();
            let (results, health) = run_scenario_list_supervised(
                &scenarios,
                &w,
                threads,
                &|_| {},
                Some(&ref_cache),
                &config,
            );
            ref_wall = secs(t);
            m.insert("supervisor.attempts", health.attempts as f64);
            m.insert("supervisor.retries", health.retries as f64);
            m.insert("supervisor.timeouts", health.timeouts as f64);
            supervised = Some((health.attempts, health.retries, health.timeouts));
            for r in results {
                match r {
                    Ok(r) => references.push(r),
                    Err(e) => checks.check(false, || e.to_string()),
                }
            }
            // Traced: cold into a fresh cache, then warm against it.
            let cache =
                ScenarioCache::open(fresh_dir(scratch, "traced-cache")?, &w, inp.cache_kind())
                    .map_err(|e| e.to_string())?;
            let sup = Supervision {
                cache: &cache,
                journal: journal.as_ref(),
                timeout: (!explore).then_some(SWEEP_TIMEOUT),
                max_retries: if explore { 0 } else { SWEEP_RETRIES },
                shared,
            };
            let b0 = backend_totals();
            let t = Instant::now();
            passes.push(replay_pass(
                0,
                &scenarios,
                &w,
                threads,
                TracerKind::Null,
                Some(&sup),
            ));
            traced_wall = secs(t);
            backend = diff(backend_totals(), b0);
            passes.push(replay_pass(
                1,
                &scenarios,
                &w,
                threads,
                TracerKind::Null,
                Some(&sup),
            ));
            let hits = passes[1]
                .0
                .iter()
                .filter(|s| matches!(s.outcome, Outcome::Hit(_)));
            checks.check(hits.count() == scenarios.len(), || {
                "warm replay pass missed the cache".to_owned()
            });
            let counts = cache.counts();
            m.insert("cache.hits", counts.hits as f64);
            m.insert("cache.misses", counts.misses as f64);
            m.insert("cache.writes", counts.writes as f64);
            m.insert(
                "cache.hit_ratio",
                ratio(
                    counts.hits as f64,
                    (counts.hits + counts.misses + counts.stale) as f64,
                ),
            );
            if let Some(j) = &journal {
                let text = std::fs::read_to_string(j.path()).map_err(|e| e.to_string())?;
                m.insert("journal.records", text.lines().count() as f64);
            }
        }
    }
    m.insert("bench.span_overhead_ratio", traced_wall / ref_wall);
    m.insert("sim.block_runs", backend.block_runs as f64);
    m.insert("sim.interp_runs", backend.interp_runs as f64);
    m.insert("sim.fallbacks", backend.fallbacks as f64);
    m.insert("sim.block_hit_ratio", backend.block_cache_hit_rate());

    // Parity: every replayed (or cache-served) result equals the
    // reference `run_me` result of the same scenario.
    for (slots, _) in &passes {
        for (i, slot) in slots.iter().enumerate() {
            let same = match (slot.result(), references.get(i)) {
                (Ok(a), Some(b)) => a == b,
                _ => false,
            };
            checks.check(same, || {
                format!(
                    "replay parity: scenario {i} differs from run_me: {:?}",
                    slot.result()
                )
            });
        }
    }
    // The cold pass's simulated work and replay counts.
    let cold = &passes[0].0;
    if let Some(real) = supervised {
        let replica = cold.iter().fold((0, 0, 0), |(a, r, t), s| {
            (a + s.attempts, r + s.retries, t + s.timeouts)
        });
        checks.check(replica == real, || {
            format!("supervisor (attempts, retries, timeouts): replay {replica:?}, runner {real:?}")
        });
    }
    let mut summed = MeResult {
        label: String::new(),
        me_cycles: 0,
        stall_cycles: 0,
        calls: 0,
        mem: Default::default(),
        core: Default::default(),
        rfu: Default::default(),
        quality: None,
    };
    let (mut run_cycles, mut programs, mut bundles, mut traced_bundles) = (0, 0, 0, 0);
    for slot in cold {
        if let Outcome::Replayed(r) = &slot.outcome {
            let res = &r.result;
            checks.check(r.run_cycles == res.me_cycles, || {
                format!(
                    "{}: runs sum to {} cycles, me_cycles {}",
                    res.label, r.run_cycles, res.me_cycles
                )
            });
            if let Some(t) = &r.counted {
                checks.none("counting tracer vs stats", &counting_problems(t, res));
                traced_bundles += t.bundles;
            }
            run_cycles += r.run_cycles;
            programs += r.programs;
            bundles += r.bundles;
            summed.me_cycles += res.me_cycles;
            summed.core.bundles += res.core.bundles;
            summed.core.ops += res.core.ops;
            summed.core.interlock_stalls += res.core.interlock_stalls;
            summed.mem.d_hits += res.mem.d_hits;
            summed.mem.d_misses += res.mem.d_misses;
            summed.mem.d_stall_cycles += res.mem.d_stall_cycles;
            summed.mem.i_misses += res.mem.i_misses;
            summed.mem.pf_useful += res.mem.pf_useful;
            summed.mem.pf_late += res.mem.pf_late;
            summed.rfu.loops += res.rfu.loops;
            summed.rfu.lbb_hits += res.rfu.lbb_hits;
            summed.rfu.lbb_misses += res.rfu.lbb_misses;
            summed.rfu.lba_wait_cycles += res.rfu.lba_wait_cycles;
        }
    }
    for (k, v) in [
        ("kernels.programs", programs),
        ("kernels.bundles", bundles),
        ("trace.bundles", traced_bundles),
        ("sim.cycles", summed.me_cycles),
        ("sim.bundles", summed.core.bundles),
        ("sim.ops", summed.core.ops),
        ("sim.interlock_stalls", summed.core.interlock_stalls),
        ("mem.d_hits", summed.mem.d_hits),
        ("mem.d_misses", summed.mem.d_misses),
        ("mem.d_stall_cycles", summed.mem.d_stall_cycles),
        ("mem.i_misses", summed.mem.i_misses),
        ("mem.pf_useful", summed.mem.pf_useful),
        ("mem.pf_late", summed.mem.pf_late),
        ("rfu.loops", summed.rfu.loops),
        ("rfu.lbb_hits", summed.rfu.lbb_hits),
        ("rfu.lbb_misses", summed.rfu.lbb_misses),
        ("rfu.lba_wait_cycles", summed.rfu.lba_wait_cycles),
    ] {
        m.insert(k, v as f64);
    }

    // Spans: self times per layer, per-scenario reconciliation.
    let mut all = setup;
    for (_, rec) in passes {
        all.absorb(rec);
    }
    let spans = all.spans();
    let (self_ns, problems) = spans::self_times(spans);
    checks.none("span nesting", &problems);
    layer_times(spans, &self_ns, &mut m);
    checks.none(
        "span self times vs scenario walls",
        &reconcile(spans, &self_ns),
    );
    let walls: Vec<f64> = spans
        .iter()
        .filter(|s| s.pass == 0 && s.parent == ROOT && ROOT_NAMES.contains(&s.name))
        .map(|s| s.dur() as f64 * 1e-9)
        .collect();
    m.insert(
        "runner.scenario_s_max",
        walls.iter().copied().fold(0.0, f64::max),
    );
    let wall = idle_wall.unwrap_or(traced_wall);
    m.insert(
        "runner.idle_s",
        (threads as f64 * wall - walls.iter().sum::<f64>()).max(0.0),
    );
    let cycles_in_runs = run_cycles as f64;
    let run_time = m["sim.run_s"] + m["sim.first_run_s"];
    m.insert("sim.ns_per_cycle", ratio(run_time * 1e9, cycles_in_runs));
    m.insert(
        "mpeg4.derived_encodes",
        spans
            .iter()
            .filter(|s| s.name == "mpeg4.derived" && s.pass == u32::MAX)
            .count() as f64,
    );
    let path = work.join(format!("spans-{}.tsv", inp.workload.name()));
    spans::write_tsv(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    m.insert(
        "failed_ratio",
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    Ok(TracedOut { metrics: m, checks })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn diff(after: BackendStats, before: BackendStats) -> BackendStats {
    BackendStats {
        block_runs: after.block_runs - before.block_runs,
        interp_runs: after.interp_runs - before.interp_runs,
        fallbacks: after.fallbacks - before.fallbacks,
        compile_lookups: after.compile_lookups - before.compile_lookups,
        compile_misses: after.compile_misses - before.compile_misses,
        block_cycles: after.block_cycles - before.block_cycles,
    }
}

/// Self-time sums per layer, run counts and run-time percentiles.
fn layer_times(spans: &[Span], self_ns: &[u64], m: &mut BTreeMap<&'static str, f64>) {
    for &(span, metric) in SELF_TIME {
        let ns: u64 = spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == span)
            .map(|(_, &t)| t)
            .sum();
        m.insert(metric, ns as f64 * 1e-9);
    }
    if let Some(s) = spans.iter().find(|s| s.name == "mpeg4.encode") {
        m.insert("mpeg4.encode_s", s.dur() as f64 * 1e-9);
    }
    let mut runs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(Span::dur)
        .collect();
    let first = spans.iter().filter(|s| s.name == "sim.first_run").count();
    m.insert("sim.runs", (runs.len() + first) as f64);
    runs.sort_unstable();
    let pct = |p: f64| -> f64 {
        if runs.is_empty() {
            return 0.0;
        }
        let i = ((runs.len() - 1) as f64 * p).round() as usize;
        runs[i] as f64 * 1e-3
    };
    m.insert("sim.run_us_p50", pct(0.50));
    m.insert("sim.run_us_p99", pct(0.99));
}

/// For every scenario of every pass, the self times of its spans must sum
/// to the wall of its root span.
fn reconcile(spans: &[Span], self_ns: &[u64]) -> Vec<String> {
    let mut sums: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut roots: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(self_ns) {
        if s.scenario == u32::MAX {
            continue;
        }
        *sums.entry((s.pass, s.scenario)).or_default() += t;
        if s.parent == ROOT {
            *roots.entry((s.pass, s.scenario)).or_default() += s.dur();
        }
    }
    sums.iter()
        .filter(|(k, v)| roots.get(k) != Some(v))
        .map(|((p, sc), v)| {
            format!(
                "pass {p} scenario {sc}: self times {v} ns, wall {:?} ns",
                roots.get(&(*p, *sc))
            )
        })
        .collect()
}
