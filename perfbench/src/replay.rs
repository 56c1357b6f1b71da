//! The traced run's replay: the benchmark's own copy of what `run_me` and
//! the supervised runner do, made of the same public calls, with a span
//! around each call into a layer.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rvliw::exp::scenario::{sad_approx_to_rfu, Kind};
use rvliw::exp::{Journal, MeResult, Scenario, ScenarioCache, ScenarioError, Workload};
use rvliw::kernels::regs::{
    ARG_BASE, ARG_BEST, ARG_CAND, ARG_CX, ARG_CY, ARG_INTERP, ARG_NCX, ARG_NCY, ARG_REF,
    ARG_STRIDE, NO_CANDIDATE, RESULT,
};
use rvliw::kernels::{build_getsad_approx, build_mb_prep, build_me_loop_call, DriverKind};
use rvliw::mpeg4::sad::InterpKind;
use rvliw::mpeg4::types::Plane;
use rvliw::sim::{Machine, SimError};
use rvliw::trace::{CountingTracer, Tracer};

use crate::spans::{Recorder, ROOT};

/// Which tracer the replay attaches to every `Machine::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerKind {
    Null,
    Counting,
}

/// One replayed scenario: its measurement plus the replay's own counts.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub result: MeResult,
    /// Sum of every run's `RunSummary::cycles` (prep runs included).
    pub run_cycles: u64,
    pub programs: u64,
    pub bundles: u64,
    /// The counting tracer's totals, when one was attached.
    pub counted: Option<CountingTracer>,
}

fn interp_bits(kind: InterpKind) -> u32 {
    match kind {
        InterpKind::None => 0,
        InterpKind::H => 1,
        InterpKind::V => 2,
        InterpKind::Diag => 3,
    }
}

fn store_plane(m: &mut Machine, base: u32, p: &Plane) {
    for y in 0..p.height() {
        m.mem
            .ram
            .write_bytes(base + (y * p.width()) as u32, p.row(y));
    }
}

/// Replays `sc` over `workload` with spans, in the order `run_me` makes
/// its calls. The result must equal `run_me`'s bit for bit.
pub fn replay(
    sc: &Scenario,
    workload: &Workload,
    tracer: TracerKind,
    rec: &mut Recorder,
) -> Result<Replayed, ScenarioError> {
    rec.begin("runner.scenario");
    let out = match tracer {
        TracerKind::Null => {
            replay_inner(sc, workload, &mut rvliw::trace::NullTracer, rec).map(|r| (r, None))
        }
        TracerKind::Counting => {
            let mut t = CountingTracer::new();
            replay_inner(sc, workload, &mut t, rec).map(|r| (r, Some(t)))
        }
    };
    rec.end();
    out.map(|(mut r, counted)| {
        r.counted = counted;
        r
    })
}

fn replay_inner<T: Tracer>(
    sc: &Scenario,
    workload: &Workload,
    tracer: &mut T,
    rec: &mut Recorder,
) -> Result<Replayed, ScenarioError> {
    let sim_err = |source: SimError| ScenarioError::Sim {
        label: sc.label.clone(),
        source,
    };
    let derived;
    let workload = if sc.needs_derived_workload() {
        derived = rec.span("mpeg4.derived", |_| workload.derived(sc.approx, sc.search));
        &*derived
    } else {
        workload
    };
    let stride = workload.stride;
    let height = workload.frames[0].height();
    let (mut m, cur_buf, prev_buf) = rec.span("sim.session_build", |_| {
        let mut m = sc.session(stride).build();
        let cur = m.mem.ram.alloc(stride * height as u32, 32);
        let prev = m.mem.ram.alloc(stride * height as u32, 32);
        (m, cur, prev)
    });
    let programs = rec.span("kernels.build", |_| match &sc.kind {
        Kind::Instruction(variant) => vec![build_getsad_approx(
            *variant,
            sad_approx_to_rfu(sc.approx),
            &sc.machine,
        )],
        Kind::Loop {
            two_line_buffers, ..
        } => {
            let kind = if *two_line_buffers {
                DriverKind::DoubleLineBuffer
            } else {
                DriverKind::SingleLineBuffer
            };
            vec![
                build_mb_prep(kind, &sc.machine),
                build_me_loop_call(kind, &sc.machine),
            ]
        }
    });
    let bundles = programs.iter().map(|c| c.bundles().len() as u64).sum();
    let mut seen = BTreeSet::new();
    let mut run_cycles = 0u64;
    // Every `Machine::run` goes through here: the first run of a program
    // on this machine (decode plus block compile) gets its own span name.
    let mut run = |m: &mut Machine, code: &rvliw::asm::Code, rec: &mut Recorder| {
        let name = if seen.insert(code.id()) {
            "sim.first_run"
        } else {
            "sim.run"
        };
        let summary = rec.span(name, |_| m.run_with_tracer(code, tracer));
        summary.map(|s| run_cycles += s.cycles).map_err(sim_err)
    };

    let start = m.snapshot();
    let mut calls = 0u64;
    for (t, frame) in workload.frames.iter().enumerate().skip(1) {
        let prev_recon = &workload.report.recon[t - 1];
        rec.span("runner.store", |_| {
            store_plane(&mut m, cur_buf, &frame.y);
            store_plane(&mut m, prev_buf, &prev_recon.y);
        });
        for trace in &workload.report.frames[t].motion {
            let ref_addr = cur_buf + (trace.mby * 16) as u32 * stride + (trace.mbx * 16) as u32;
            let coords_of = |c: &rvliw::mpeg4::SadCall| (c.cx as u32, c.cy as u32);
            let check = |m: &Machine, expected: u32| {
                let got = m.gpr(RESULT);
                if got == expected {
                    Ok(())
                } else {
                    Err(ScenarioError::SadMismatch {
                        label: sc.label.clone(),
                        frame: t,
                        mbx: trace.mbx,
                        mby: trace.mby,
                        expected,
                        got,
                    })
                }
            };
            if let [code] = programs.as_slice() {
                for c in &trace.calls {
                    m.set_gpr(ARG_REF, ref_addr);
                    m.set_gpr(ARG_STRIDE, stride);
                    m.set_gpr(ARG_CAND, prev_buf + c.cy as u32 * stride + c.cx as u32);
                    m.set_gpr(ARG_INTERP, interp_bits(c.kind));
                    run(&mut m, code, rec)?;
                    check(&m, c.sad)?;
                    calls += 1;
                }
            } else if let [prep, call] = programs.as_slice() {
                let (fx, fy) = trace
                    .calls
                    .first()
                    .map(coords_of)
                    .unwrap_or((NO_CANDIDATE, NO_CANDIDATE));
                m.set_gpr(ARG_REF, ref_addr);
                m.set_gpr(ARG_STRIDE, stride);
                m.set_gpr(ARG_BASE, prev_buf);
                m.set_gpr(ARG_NCX, fx);
                m.set_gpr(ARG_NCY, fy);
                run(&mut m, prep, rec)?;
                let mut best = u32::MAX;
                for (i, c) in trace.calls.iter().enumerate() {
                    let (ncx, ncy) = trace
                        .calls
                        .get(i + 1)
                        .map(coords_of)
                        .unwrap_or((NO_CANDIDATE, NO_CANDIDATE));
                    let (cx, cy) = coords_of(c);
                    m.set_gpr(ARG_REF, ref_addr);
                    m.set_gpr(ARG_STRIDE, stride);
                    m.set_gpr(ARG_BASE, prev_buf);
                    m.set_gpr(ARG_INTERP, interp_bits(c.kind));
                    m.set_gpr(ARG_CX, cx);
                    m.set_gpr(ARG_CY, cy);
                    m.set_gpr(ARG_NCX, ncx);
                    m.set_gpr(ARG_NCY, ncy);
                    m.set_gpr(ARG_BEST, best);
                    run(&mut m, call, rec)?;
                    check(&m, c.sad)?;
                    best = best.min(c.sad);
                    calls += 1;
                }
            }
        }
    }
    let region = m.snapshot().since(&start);
    Ok(Replayed {
        result: MeResult {
            label: sc.label.clone(),
            me_cycles: region.cycles,
            stall_cycles: region.mem.d_stall_cycles,
            calls,
            mem: region.mem,
            core: region.stats,
            rfu: region.rfu,
            quality: workload.quality,
        },
        run_cycles,
        programs: programs.len() as u64,
        bundles,
        counted: None,
    })
}

/// The cache, journal and watchdog a supervised replay pass runs under,
/// mirroring the fields of `SupervisorConfig`.
pub struct Supervision<'a> {
    pub cache: &'a ScenarioCache,
    pub journal: Option<&'a Journal>,
    pub timeout: Option<Duration>,
    pub max_retries: u32,
    /// The owning handle a watchdog thread replays from.
    pub shared: Arc<Workload>,
}

/// How one scenario of a replay pass ended.
#[derive(Debug)]
pub enum Outcome {
    Replayed(Box<Replayed>),
    /// A cache hit: the stored measurement, nothing replayed.
    Hit(Box<MeResult>),
    Failed(ScenarioError),
}

/// What one scenario of a replay pass produced.
#[derive(Debug)]
pub struct Slot {
    pub outcome: Outcome,
    pub attempts: u64,
    pub retries: u64,
    pub timeouts: u64,
}

impl Slot {
    fn new(outcome: Result<Replayed, ScenarioError>, attempts: u64) -> Self {
        let outcome = match outcome {
            Ok(r) => Outcome::Replayed(Box::new(r)),
            Err(e) => Outcome::Failed(e),
        };
        Slot {
            outcome,
            attempts,
            retries: 0,
            timeouts: 0,
        }
    }

    /// The scenario's measurement, from the replay or the cache.
    pub fn result(&self) -> Result<&MeResult, &ScenarioError> {
        match &self.outcome {
            Outcome::Replayed(r) => Ok(&r.result),
            Outcome::Hit(hit) => Ok(hit),
            Outcome::Failed(e) => Err(e),
        }
    }
}

/// One supervised scenario, in the order `Sweep::run_supervised` makes
/// its calls: cache lookup, then (on a miss) attempts, under a watchdog
/// thread when a deadline is set, then cache record and journal append.
fn supervise(
    sc: &Scenario,
    workload: &Workload,
    sup: &Supervision<'_>,
    tracer: TracerKind,
    rec: &mut Recorder,
) -> Slot {
    let started = Instant::now();
    let sid = rec.begin("supervisor.scenario");
    let key = sup.journal.map(|_| sup.cache.key_for(sc));
    let journal = |rec: &mut Recorder, result: &Result<MeResult, ScenarioError>, attempts| {
        if let (Some(journal), Some(key)) = (sup.journal, &key) {
            let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            rec.span("journal.append", |_| {
                journal.record(key, result, attempts, ms)
            });
        }
    };
    if let Some(hit) = rec.span("cache.lookup", |_| sup.cache.lookup(sc)) {
        journal(rec, &Ok(hit.clone()), 0);
        rec.end();
        return Slot {
            outcome: Outcome::Hit(Box::new(hit)),
            attempts: 0,
            retries: 0,
            timeouts: 0,
        };
    }
    let (mut attempts, mut retries, mut timeouts) = (0u64, 0u64, 0u64);
    let outcome = loop {
        attempts += 1;
        let outcome = match sup.timeout {
            None => replay(sc, workload, tracer, rec),
            Some(deadline) => watched(sc, sup, tracer, rec, sid, deadline),
        };
        if matches!(outcome, Err(ScenarioError::TimedOut { .. })) {
            timeouts += 1;
        }
        match &outcome {
            Err(e) if e.is_transient() && attempts <= u64::from(sup.max_retries) => retries += 1,
            _ => break outcome,
        }
    };
    if let (Ok(r), 1) = (&outcome, attempts) {
        rec.span("cache.record", |_| sup.cache.record(sc, &r.result));
    }
    let journaled = outcome
        .as_ref()
        .map(|r| r.result.clone())
        .map_err(Clone::clone);
    journal(rec, &journaled, attempts);
    rec.end();
    Slot {
        retries,
        timeouts,
        ..Slot::new(outcome, attempts)
    }
}

/// One attempt handed to a fresh thread while the caller waits on a
/// channel with the deadline, as the supervisor's watchdog does. The
/// replay's spans are recorded there, under the caller's span `parent`.
fn watched(
    sc: &Scenario,
    sup: &Supervision<'_>,
    tracer: TracerKind,
    rec: &mut Recorder,
    parent: u64,
    deadline: Duration,
) -> Result<Replayed, ScenarioError> {
    let (tx, rx) = mpsc::channel();
    let sc_owned = sc.clone();
    let wl = Arc::clone(&sup.shared);
    let (pass, scenario) = (rec.pass(), rec.scenario());
    let handle = std::thread::spawn(move || {
        let mut inner = Recorder::new(pass, scenario, parent);
        let r = replay(&sc_owned, &wl, tracer, &mut inner);
        let _ = tx.send(());
        (r, inner)
    });
    match rx.recv_timeout(deadline) {
        Ok(()) => match handle.join() {
            Ok((r, inner)) => {
                rec.absorb(inner);
                r
            }
            Err(_) => Err(ScenarioError::Panic {
                label: sc.label.clone(),
                message: "replay thread panicked".to_owned(),
                location: None,
            }),
        },
        Err(_) => Err(ScenarioError::TimedOut {
            label: sc.label.clone(),
            secs: deadline.as_secs(),
        }),
    }
}

/// Runs `scenarios` on `threads` workers by atomic-index work stealing (as
/// the crate's runner does), each through [`replay`] or, with
/// `supervision`, through the supervised path. Returns one slot per
/// scenario in input order and every recorded span.
pub fn replay_pass(
    pass: u32,
    scenarios: &[Scenario],
    workload: &Workload,
    threads: usize,
    tracer: TracerKind,
    supervision: Option<&Supervision<'_>>,
) -> (Vec<Slot>, Recorder) {
    let n = scenarios.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Slot>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let recorders = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            s.spawn(|| {
                let mut rec = Recorder::new(pass, 0, ROOT);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = scenarios.get(i) else { break };
                    rec.set_scenario(u32::try_from(i).unwrap_or(u32::MAX));
                    let slot = match supervision {
                        Some(sup) => supervise(sc, workload, sup, tracer, &mut rec),
                        None => Slot::new(replay(sc, workload, tracer, &mut rec), 1),
                    };
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(slot);
                }
                recorders
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(rec);
            });
        }
    });
    let mut all = Recorder::new(pass, u32::MAX, ROOT);
    for rec in recorders
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        all.absorb(rec);
    }
    let slots = slots
        .into_iter()
        .zip(scenarios)
        .map(|(slot, sc)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    let died = ScenarioError::Panic {
                        label: sc.label.clone(),
                        message: "replay worker died".to_owned(),
                        location: None,
                    };
                    Slot::new(Err(died), 0)
                })
        })
        .collect();
    (slots, all)
}
