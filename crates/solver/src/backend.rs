//! The uniform `WidthRequest → Outcome` contract every width computation
//! sits behind, plus the anytime [`Backend`] trait the portfolio races.
//!
//! The three width measures' entry points in `hd`/`ghd`/`fhd` are
//! bespoke `_with_stats` functions with their own prepare→seed→solve→lift
//! plumbing. This module gives them one shape:
//!
//! * a [`WidthRequest`] names the measure and its parameters
//!   ([`Measure`]) plus the [`EngineOptions`] to run under;
//! * an [`Outcome`] carries the width (as an exact rational — integral
//!   for `hw`/`ghw`), the witness decomposition, the engine counters, and
//!   the *provenance* (which backend produced it);
//! * a [`Backend`] is one way of resolving a request: the `det-k-decomp`
//!   ladder, the edge-union engine search, or the elimination DP.
//!   Backends self-select via [`Backend::eligible`] (vertex gates) and
//!   run under a [`RunCtl`]: a [`CancelToken`] polled by
//!   the engine and a [`BoundSink`] their anytime
//!   lower/upper bounds flow into (each accepted upper bound
//!   witness-backed, already lifted to the original instance).
//!
//! [`execute`] is the one driver: it installs the control as the ambient
//! channel of the calling thread (the engine root and the prep lift
//! hooks pick it up from there), runs the
//! backend, and closes the bounds on an exact answer so a finished run
//! always ends with `lb == ub == width`.
//!
//! Backends call the public `_with_stats` functions directly, so a
//! backend's answer is byte-identical to the direct call. The front ends
//! (`hgtool widths`, serve, `hypertree_core::exact_widths`) resolve every
//! measure through `hypertree_core::resolve`, which races either the
//! whole registry or its default member alone.

use crate::{EngineOptions, SearchStats};
use arith::Rational;
use decomp::Decomposition;
use hypergraph::Hypergraph;

pub use prep::anytime::{
    current, current_cancel, current_sink, interrupt, interrupted, with_ctl, BoundEvent, BoundSink,
    Bounds, CancelToken, RunCtl,
};

/// Which width notion a request asks about, with the strategy-specific
/// parameters that define the answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Measure {
    /// Hypertree width: the smallest `k ≤ max_k` accepted by
    /// `det-k-decomp`.
    Hw {
        /// Largest width to try before giving up.
        max_k: usize,
    },
    /// Exact generalized hypertree width, optionally cut off above.
    Ghw {
        /// Give up (report "> cutoff") beyond this width.
        cutoff: Option<usize>,
    },
    /// Exact fractional hypertree width, optionally cut off above.
    Fhw {
        /// Give up beyond this width.
        cutoff: Option<Rational>,
    },
}

impl Measure {
    /// Short display name of the measure (stats tables, bench records).
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Hw { .. } => "hw",
            Measure::Ghw { .. } => "ghw",
            Measure::Fhw { .. } => "fhw",
        }
    }
}

/// One width computation to perform: the instance-independent half of the
/// contract (the instance itself is passed alongside, so one request can
/// drive a whole corpus).
#[derive(Clone, Debug)]
pub struct WidthRequest {
    /// The measure and its parameters.
    pub measure: Measure,
    /// Scheduling/preprocessing options for the underlying engines.
    pub opts: EngineOptions,
}

/// Identifies a backend (stable, human-readable; used in cache keys and
/// the bench `portfolio` block).
pub type BackendId = &'static str;

/// The result of one backend run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The exact width, when resolved affirmatively. Integral measures
    /// report integral rationals.
    pub width: Option<Rational>,
    /// The witness decomposition certifying `width`, lifted to the
    /// original instance.
    pub witness: Option<Decomposition>,
    /// True when the backend produced a definitive answer: an exact
    /// width, or a certified "no"/"> cutoff" (`width == None`). False
    /// when it gave up (instance out of range) or was interrupted.
    pub resolved: bool,
    /// Engine and cache counters of the run.
    pub stats: SearchStats,
    /// The backend that produced this outcome.
    pub provenance: BackendId,
}

impl Outcome {
    /// An exact affirmative answer.
    pub fn exact(
        provenance: BackendId,
        width: Rational,
        witness: Decomposition,
        stats: SearchStats,
    ) -> Self {
        Outcome {
            width: Some(width),
            witness: Some(witness),
            resolved: true,
            stats,
            provenance,
        }
    }

    /// A certified negative answer (no decomposition within the
    /// cutoff/parameters).
    pub fn certified_no(provenance: BackendId, stats: SearchStats) -> Self {
        Outcome {
            width: None,
            witness: None,
            resolved: true,
            stats,
            provenance,
        }
    }

    /// The backend could not resolve the request (out of range, gave up).
    pub fn unresolved(provenance: BackendId, stats: SearchStats) -> Self {
        Outcome {
            width: None,
            witness: None,
            resolved: false,
            stats,
            provenance,
        }
    }
}

/// One way of resolving a [`WidthRequest`]: an anytime width algorithm.
///
/// Implementations must be pure with respect to the request (same
/// request, same instance → same width; witnesses and counters must be
/// deterministic at every thread count) and must poll
/// `ctl.cancel` cooperatively — directly in their own loops, and
/// implicitly through the engine's cancellation checks whenever they run
/// a search. A canceled run exits by [`interrupt::raise`] (the engine
/// does this at its root) or by returning an
/// [`Outcome::unresolved`]; it must never return a fabricated answer.
pub trait Backend: Send + Sync {
    /// Stable identifier (provenance, cache-key slot).
    fn id(&self) -> BackendId;

    /// Whether this backend can take on `h` (vertex gates). The portfolio
    /// only races eligible backends; registries order an always-eligible
    /// backend first so every request has a taker.
    fn eligible(&self, _h: &Hypergraph, _req: &WidthRequest) -> bool {
        true
    }

    /// Resolves the request, reporting anytime bounds into `ctl.sink`.
    /// Prefer running through [`execute`], which installs the ambient
    /// channel and closes the bounds on exact answers.
    fn run(&self, h: &Hypergraph, req: &WidthRequest, ctl: &RunCtl) -> Outcome;
}

/// Runs `backend` under `ctl` installed as the calling thread's ambient
/// control: the engine root anchors its cancellation checks to
/// `ctl.cancel` and the prep pipeline lifts reported witnesses through
/// `ctl.sink`. On an exact answer the bounds are closed
/// (`lb == ub == width`) before returning.
pub fn execute(backend: &dyn Backend, h: &Hypergraph, req: &WidthRequest, ctl: &RunCtl) -> Outcome {
    let outcome = with_ctl(ctl.clone(), || backend.run(h, req, ctl));
    if outcome.resolved {
        if let (Some(w), Some(d)) = (&outcome.width, &outcome.witness) {
            ctl.sink.report_lower(w.clone());
            ctl.sink.report_upper(w.clone(), Some(d));
        }
    }
    outcome
}
