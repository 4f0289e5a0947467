//! The portfolio runner: race the backends that win per request, first
//! exact answer wins, losers are cancelled through their
//! [`CancelToken`]s, and best-so-far anytime bounds are what you get
//! when everything times out.
//!
//! No single width algorithm dominates on real corpora (the HyperBench
//! observation): on the hard tier the edge-union engine wins the large
//! sparse `ghw`/`fhw` instances and the elimination DP the small dense
//! ones. [`race`] runs the eligible backends concurrently — each on its
//! own thread, all multiplexing the shared worker pool underneath —
//! under one merged [`BoundSink`], with:
//!
//! * **admission**: only [`Backend::eligible`] members race (vertex
//!   gates); a lone admitted member runs inline on the calling thread;
//! * **deadline**: one deadline for the whole race (callers read
//!   [`DEADLINE_ENV`], milliseconds, via [`deadline_from_env`]) armed on
//!   the race's root [`CancelToken`] — deadline expiry *is*
//!   cancellation;
//! * **loser cancellation**: the first backend to return a resolved
//!   outcome cancels every sibling token; the engine roots observe the
//!   token they anchored, unwind, and
//!   abandon their result-cache claims on the way out. [`race`] joins
//!   every backend thread before returning, so no portfolio work — pool
//!   rounds included — survives the race;
//! * **anytime reporting**: all backends feed one monotone sink, and the
//!   [`RaceReport`] carries the tightest bounds any member achieved and
//!   the accepted trace; on an exact win the sink closes at
//!   `lb == ub == width`.

use crate::backend::{execute, Backend, BackendId, Bounds, Outcome, WidthRequest};
use hypergraph::Hypergraph;
use prep::anytime::{self, interrupt, BoundEvent, BoundSink, CancelToken, RunCtl};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable: global portfolio deadline in milliseconds.
pub const DEADLINE_ENV: &str = "HGTOOL_DEADLINE_MS";

/// The race deadline from [`DEADLINE_ENV`] (absent or unparsable means
/// no deadline).
pub fn deadline_from_env() -> Option<Duration> {
    std::env::var(DEADLINE_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// What one [`race`] produced.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The winning outcome (first resolved answer), or an unresolved
    /// outcome carrying the best witness the sink saw when everything
    /// timed out or gave up, with the merged counters of the members
    /// that gave up.
    pub outcome: Outcome,
    /// The winner's id; `None` when no backend resolved the request.
    pub winner: Option<BackendId>,
    /// The backends admitted to the race, in registry order.
    pub raced: Vec<BackendId>,
    /// How many backends were cancelled (unwound losers).
    pub canceled: usize,
    /// Best-so-far bounds at the end of the race. An exact win closes
    /// them at its width and leaves the witness in `outcome.witness`
    /// (`bounds.witness` is `None` then).
    pub bounds: Bounds,
    /// The accepted bound-report sequence of the merged sink.
    pub trace: Vec<BoundEvent>,
    /// Time from race start to the first accepted bound.
    pub time_to_first_bound: Option<Duration>,
    /// Time from race start to the winning exact answer.
    pub time_to_exact: Option<Duration>,
}

/// Races `backends` on `h`: eligible members run concurrently (each
/// backend's root on its own thread; their searches multiplex the shared
/// worker pool), the first resolved answer cancels the rest, and every
/// backend thread is joined before this returns. A single admitted member
/// runs inline on the calling thread. If the caller itself runs under an
/// ambient [`RunCtl`], the race chains to its token, so the caller's
/// cancellation reaches every member; the bounds stay in the report.
pub fn race(
    h: &Hypergraph,
    req: &WidthRequest,
    backends: &[Box<dyn Backend>],
    deadline: Option<Duration>,
) -> RaceReport {
    assert!(
        !backends.is_empty(),
        "a portfolio needs at least one backend"
    );
    let mut admitted: Vec<&dyn Backend> = backends
        .iter()
        .map(|b| b.as_ref())
        .filter(|b| b.eligible(h, req))
        .collect();
    if admitted.is_empty() {
        // Nothing self-selected (registries normally lead with an
        // always-eligible engine): fall back to the first backend so the
        // request still gets a definitive attempt.
        admitted.push(backends[0].as_ref());
    }
    let raced: Vec<BackendId> = admitted.iter().map(|b| b.id()).collect();
    let race_span = obs::span!("race", measure = req.measure.name(), backends = raced.len());

    let sink = BoundSink::new();
    let root = match anytime::current_cancel() {
        Some(t) => t.child_with_deadline(deadline),
        None => match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        },
    };
    let tokens: Vec<CancelToken> = admitted.iter().map(|_| root.child()).collect();

    let start = Instant::now();
    // First resolved answer wins; the mutex is the tiebreak.
    let winner: Mutex<Option<(usize, Outcome, Duration)>> = Mutex::new(None);
    // Counters of the members that returned without resolving.
    let gave_up: Mutex<crate::SearchStats> = Mutex::default();
    let member = |i: usize| {
        let backend = admitted[i];
        let ctl = RunCtl {
            cancel: tokens[i].clone(),
            sink: sink.clone(),
        };
        // A cancelled loser unwinds out of `execute`; the span guard
        // still closes (Drop runs during unwinds), it just never gets its
        // `resolved`/`won` fields.
        let span = obs::span!("backend", id = backend.id());
        let outcome = execute(backend, h, req, &ctl);
        if let Some(span) = span.as_ref() {
            span.record("resolved", outcome.resolved);
        }
        if outcome.resolved {
            let mut w = winner.lock().expect("portfolio winner poisoned");
            if w.is_none() {
                *w = Some((i, outcome, start.elapsed()));
                drop(w);
                if let Some(span) = span.as_ref() {
                    span.record("won", true);
                }
                for (j, t) in tokens.iter().enumerate() {
                    if j != i {
                        t.cancel();
                    }
                }
            }
        } else {
            gave_up
                .lock()
                .expect("portfolio stats poisoned")
                .merge(&outcome.stats);
        }
    };
    let results: Vec<std::thread::Result<()>> = if admitted.len() == 1 {
        vec![catch_unwind(AssertUnwindSafe(|| member(0)))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..admitted.len())
                .map(|i| {
                    let member = &member;
                    scope.spawn(move || member(i))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let mut canceled = 0usize;
    for result in results {
        if let Err(payload) = result {
            if interrupt::is_interrupt(payload.as_ref()) {
                canceled += 1;
            } else {
                resume_unwind(payload);
            }
        }
    }

    let won = winner.into_inner().expect("portfolio winner poisoned");
    if let Some(span) = race_span.as_ref() {
        span.record("canceled", canceled);
        span.record("won", won.is_some());
    }
    let bounds = match &won {
        // An exact win closed the bounds at its width (`execute`); its
        // witness is the outcome's, so skip cloning the sink's copy.
        Some((_, Outcome { width: Some(w), .. }, _)) => Bounds {
            lower: Some(w.clone()),
            upper: Some(w.clone()),
            witness: None,
        },
        _ => sink.snapshot(),
    };
    let trace = sink.trace();
    let time_to_first_bound = sink.time_to_first_bound();
    if let (Some(span), Some(d)) = (race_span.as_ref(), time_to_first_bound) {
        span.record("first_bound_us", d.as_micros() as u64);
    }
    match won {
        Some((i, outcome, elapsed)) => RaceReport {
            winner: Some(raced[i]),
            outcome,
            raced,
            canceled,
            bounds,
            trace,
            time_to_first_bound,
            time_to_exact: Some(elapsed),
        },
        None => RaceReport {
            outcome: Outcome {
                width: None,
                witness: bounds.witness.clone(),
                resolved: false,
                stats: gave_up.into_inner().expect("portfolio stats poisoned"),
                provenance: "portfolio",
            },
            winner: None,
            raced,
            canceled,
            bounds,
            trace,
            time_to_first_bound,
            time_to_exact: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RunCtl;
    use crate::EngineOptions;
    use arith::Rational;
    use decomp::{Decomposition, Node};
    use hypergraph::{generators, VertexSet};

    fn trivial_witness() -> Decomposition {
        let mut bag = VertexSet::new();
        bag.insert(0);
        Decomposition::new(Node {
            bag,
            weights: Vec::new(),
        })
    }

    fn request() -> WidthRequest {
        WidthRequest {
            measure: crate::backend::Measure::Ghw { cutoff: None },
            opts: EngineOptions::default(),
        }
    }

    /// Resolves instantly with width `2`.
    struct Fast;
    impl Backend for Fast {
        fn id(&self) -> BackendId {
            "fast"
        }
        fn run(&self, _h: &Hypergraph, _req: &WidthRequest, ctl: &RunCtl) -> Outcome {
            ctl.sink.report_lower(Rational::one());
            Outcome::exact(
                self.id(),
                Rational::from(2usize),
                trivial_witness(),
                crate::SearchStats::default(),
            )
        }
    }

    /// Spins until cancelled (a deliberately-slow backend); raises the
    /// interrupt unwind like the engine root would.
    struct Slow;
    impl Backend for Slow {
        fn id(&self) -> BackendId {
            "slow"
        }
        fn run(&self, _h: &Hypergraph, _req: &WidthRequest, ctl: &RunCtl) -> Outcome {
            let gave_up = Instant::now() + Duration::from_secs(30);
            while !ctl.cancel.is_canceled() {
                assert!(Instant::now() < gave_up, "slow backend was never cancelled");
                std::thread::sleep(Duration::from_millis(1));
            }
            interrupt::raise()
        }
    }

    /// Ineligible everywhere.
    struct Picky;
    impl Backend for Picky {
        fn id(&self) -> BackendId {
            "picky"
        }
        fn eligible(&self, _h: &Hypergraph, _req: &WidthRequest) -> bool {
            false
        }
        fn run(&self, _h: &Hypergraph, _req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
            unreachable!("ineligible backend must not run")
        }
    }

    #[test]
    fn fast_exact_answer_cancels_the_slow_loser() {
        let h = generators::cycle(4);
        let backends: Vec<Box<dyn Backend>> = vec![Box::new(Slow), Box::new(Fast)];
        let started = Instant::now();
        let report = race(&h, &request(), &backends, None);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the racer returned long before the slow backend's horizon"
        );
        assert_eq!(report.winner, Some("fast"));
        assert_eq!(report.outcome.width, Some(Rational::from(2usize)));
        assert!(report.outcome.witness.is_some());
        assert_eq!(report.canceled, 1, "the slow loser was cancelled");
        assert_eq!(report.raced, vec!["slow", "fast"]);
        // The exact win closed the bounds.
        assert_eq!(report.bounds.lower, report.bounds.upper);
        assert!(report.time_to_exact.is_some());
        assert!(report.time_to_first_bound.is_some());
    }

    #[test]
    fn global_deadline_reports_best_so_far_bounds() {
        let h = generators::cycle(4);
        /// Reports a witnessed upper bound, then hangs until cancelled.
        struct Bounder;
        impl Backend for Bounder {
            fn id(&self) -> BackendId {
                "bounder"
            }
            fn run(&self, _h: &Hypergraph, _req: &WidthRequest, ctl: &RunCtl) -> Outcome {
                ctl.sink
                    .report_upper(Rational::from(3usize), Some(&trivial_witness()));
                while !ctl.cancel.is_canceled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                interrupt::raise()
            }
        }
        let backends: Vec<Box<dyn Backend>> = vec![Box::new(Bounder)];
        let report = race(&h, &request(), &backends, Some(Duration::from_millis(25)));
        assert_eq!(report.winner, None);
        assert_eq!(report.bounds.upper, Some(Rational::from(3usize)));
        assert!(
            report.outcome.witness.is_some(),
            "the timeout answer carries the best witness seen"
        );
    }

    #[test]
    fn ineligible_backends_are_not_raced() {
        let h = generators::cycle(4);
        let backends: Vec<Box<dyn Backend>> = vec![Box::new(Picky), Box::new(Fast)];
        let report = race(&h, &request(), &backends, None);
        assert_eq!(report.raced, vec!["fast"]);
        assert_eq!(report.winner, Some("fast"));
    }

    #[test]
    fn a_lone_member_runs_on_the_calling_thread() {
        /// Resolves with width 1 only on the thread that started the race.
        struct Inline(std::thread::ThreadId);
        impl Backend for Inline {
            fn id(&self) -> BackendId {
                "inline"
            }
            fn run(&self, _h: &Hypergraph, _req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
                assert_eq!(std::thread::current().id(), self.0, "ran on a race thread");
                Outcome::exact(
                    self.id(),
                    Rational::one(),
                    trivial_witness(),
                    crate::SearchStats::default(),
                )
            }
        }
        let h = generators::cycle(4);
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Inline(std::thread::current().id())),
            Box::new(Picky),
        ];
        let report = race(&h, &request(), &backends, None);
        assert_eq!(report.raced, vec!["inline"]);
        assert_eq!(report.winner, Some("inline"));
        assert_eq!(report.canceled, 0);
    }
}
