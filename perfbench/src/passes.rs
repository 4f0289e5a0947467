//! Library passes: each measure's public `*_with_stats` entry point over
//! an instance set, with fresh price and result caches per call, a
//! per-cell deadline, and every answer checked against the expected
//! width and its witness validated against the original hypergraph.

use crate::workload::{Measure, TierEntry, Widths, MEASURES};
use hypertree_core::decomp::{validate_fhd, validate_ghd, validate_hd, Decomposition};
use hypertree_core::hypergraph::Hypergraph;
use hypertree_core::prep::anytime::{interrupt, with_ctl, CancelToken, RunCtl};
use hypertree_core::solver::{EngineOptions, SearchStats};
use hypertree_core::{fhd, ghd, hd};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// No cell of the tier should come near this; one that does counts as
/// failed.
pub const CELL_CAP: Duration = Duration::from_secs(10);

/// `hw` searches up to this width (the server's default).
const MAX_HW: usize = 8;

/// Default scheduling with every cross-call cache off, so each repeat
/// does identical work.
pub fn fresh_opts() -> EngineOptions {
    EngineOptions {
        reuse_prices: false,
        reuse_results: false,
        ..EngineOptions::default()
    }
}

/// An instance set and the engine options its passes run with.
pub struct PassSet {
    pub entries: Vec<TierEntry>,
    pub opts: EngineOptions,
}

/// One call: the rendered width and its witness, or `None` when the
/// engine answered out of range or the cap struck.
pub fn solve(
    h: &Hypergraph,
    m: Measure,
    opts: EngineOptions,
    cap: Duration,
) -> (Option<(String, Decomposition)>, SearchStats) {
    interrupt::install_quiet_hook();
    let ctl = RunCtl {
        cancel: CancelToken::with_deadline(cap),
        sink: Default::default(),
    };
    let run = || match m {
        Measure::Hw => {
            let (r, s) = hd::hypertree_width_with_stats(h, MAX_HW, opts);
            (r.map(|(k, d)| (k.to_string(), d)), s)
        }
        Measure::Ghw => {
            let (r, s) = ghd::ghw_exact_with_stats(h, None, opts);
            (r.map(|(k, d)| (k.to_string(), d)), s)
        }
        Measure::Fhw => {
            let (r, s) = fhd::fhw_exact_with_stats(h, None, opts);
            (r.map(|(w, d)| (w.to_string(), d)), s)
        }
    };
    match catch_unwind(AssertUnwindSafe(|| with_ctl(ctl, run))) {
        Ok(answer) => answer,
        Err(payload) if interrupt::is_interrupt(payload.as_ref()) => (None, SearchStats::default()),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Checks a witness against the original hypergraph: valid for its
/// measure, and exactly as wide as the reported width.
pub fn validate(h: &Hypergraph, m: Measure, width: &str, d: &Decomposition) -> Result<(), String> {
    let valid = match m {
        Measure::Hw => validate_hd(h, d),
        Measure::Ghw => validate_ghd(h, d),
        Measure::Fhw => validate_fhd(h, d),
    };
    valid.map_err(|v| format!("{} witness rejected: {v:?}", m.label()))?;
    let witness_width = d.width().to_string();
    if witness_width != width {
        return Err(format!(
            "{} witness has width {witness_width}, answer says {width}",
            m.label()
        ));
    }
    Ok(())
}

/// What one pass of one measure did.
#[derive(Default)]
pub struct PassResult {
    /// Sum of the cells' call times (validation excluded).
    pub seconds: f64,
    /// Per-cell call times, in tier order.
    pub cell_seconds: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub stats: SearchStats,
    /// Time spent in the benchmark's own witness checks.
    pub validate_seconds: f64,
    /// Span self time by phase name (traced passes only), microseconds.
    pub self_us: BTreeMap<&'static str, u64>,
}

/// Runs measure `m` over every entry that lists it. A traced pass arms
/// the span layer around each call only and drains it per cell.
pub fn run_pass(
    set: &PassSet,
    expected: &HashMap<String, Widths>,
    m: Measure,
    traced: bool,
    deadline: Instant,
) -> PassResult {
    let mut out = PassResult::default();
    for entry in set.entries.iter().filter(|e| e.measures.contains(&m)) {
        out.attempted += 1;
        if Instant::now() >= deadline {
            eprintln!(
                "perfbench: run deadline passed before {}",
                entry.instance.name
            );
            out.failed += 1;
            continue;
        }
        let h = &entry.instance.h;
        if traced {
            obs::trace::drain();
            obs::trace::set_enabled(true);
        }
        let start = Instant::now();
        let (answer, stats) = solve(h, m, set.opts, CELL_CAP);
        let took = start.elapsed().as_secs_f64();
        if traced {
            obs::trace::set_enabled(false);
            for (name, (_, self_us)) in obs::trace::phase_totals(&obs::trace::drain()) {
                *out.self_us.entry(name).or_insert(0) += self_us;
            }
        }
        out.seconds += took;
        out.cell_seconds.push(took);
        out.stats.merge(&stats);
        let want = expected.get(&entry.instance.name).map(|w| w.get(m));
        let verdict = match (&answer, want) {
            (_, None) => Err("no expected width in the table".to_string()),
            (None, _) => Err(format!("no exact answer within {CELL_CAP:?}")),
            (Some((got, _)), Some(want)) if got != want => {
                Err(format!("width {got}, expected {want}"))
            }
            (Some((got, d)), Some(_)) => {
                let t = Instant::now();
                let r = validate(h, m, got, d);
                out.validate_seconds += t.elapsed().as_secs_f64();
                r
            }
        };
        if let Err(why) = verdict {
            eprintln!("perfbench: {} {}: {why}", entry.instance.name, m.label());
            out.failed += 1;
        }
    }
    out
}

/// Per-measure pass times over repeated rounds, interleaving the
/// measures so drift hits all three alike.
#[derive(Default)]
pub struct Rounds {
    pub rounds: usize,
    /// Per measure, per cell (tier order), its call times.
    pub cell_seconds: [Vec<Vec<f64>>; 3],
    pub attempted: u64,
    pub failed: u64,
}

impl Rounds {
    /// One pass of measure `i`: the sum of its cells' median call
    /// times (a noise spike moves one sample of one cell, not the pass).
    pub fn pass_seconds(&self, i: usize) -> f64 {
        self.cell_seconds[i]
            .iter()
            .map(|c| crate::report::median(c))
            .sum()
    }

    /// Every call time of the run.
    pub fn calls(&self) -> impl Iterator<Item = f64> + '_ {
        self.cell_seconds.iter().flatten().flatten().copied()
    }
}

/// Runs `n` rounds, at least one (fewer only past the run deadline,
/// where the cells of a late round count as failed), calling `between`
/// after each round.
pub fn run_rounds(
    set: &PassSet,
    expected: &HashMap<String, Widths>,
    n: usize,
    deadline: Instant,
    mut between: impl FnMut(),
) -> Rounds {
    let mut out = Rounds::default();
    loop {
        for (i, &m) in MEASURES.iter().enumerate() {
            let p = run_pass(set, expected, m, false, deadline);
            let slots = &mut out.cell_seconds[i];
            slots.resize(p.cell_seconds.len(), Vec::new());
            for (slot, t) in slots.iter_mut().zip(p.cell_seconds) {
                slot.push(t);
            }
            out.attempted += p.attempted;
            out.failed += p.failed;
        }
        out.rounds += 1;
        between();
        if out.rounds >= n || Instant::now() >= deadline {
            return out;
        }
    }
}
