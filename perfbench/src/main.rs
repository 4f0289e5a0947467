//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <solve-hard|serve-hot|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a source checkout. With `--trace 0` it prints the
//! end-to-end metrics, with `--trace 1` the per-layer ones; the last line
//! of standard output is the result object, the line before it records
//! the machine and the sample counts. See `README.md` beside this file.

mod client;
mod passes;
mod report;
mod workload;

use client::{run_window, Conn, Traffic, Window};
use hypertree_core::hypergraph::{generators, parser};
use hypertree_core::prep;
use hypertree_core::solver::EngineOptions;
use obs::metrics::HistogramSnapshot;
use passes::{fresh_opts, run_pass, run_rounds, solve, PassSet, Rounds, CELL_CAP};
use report::{json_num, median, peak_rss_mb, ratio, tail, Metrics};
use serve::metrics::{handles, Endpoint};
use serve::{ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::process::{Command, ExitCode};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use workload::{json_str, Instance, Measure, Widths, MEASURES};

/// Set-ups per run: all but the last run in child processes, because the
/// result registry and the worker pool live for a process lifetime. A
/// run sets up at least `SETUP_MIN` times, and more (up to `SETUP_MAX`)
/// while the set-ups so far took under `SETUP_SECONDS`, so a set-up of a
/// few milliseconds gets enough samples for a steady median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 31;
const SETUP_SECONDS: f64 = 2.0;

/// Client connections of the serve workloads (the box's core count).
const CONNECTIONS: usize = 2;

/// The serve-mixed result-registry budget (`HGTOOL_CACHE_BYTES`): at
/// about 13 KB per variant it holds about 2.4k variants, so evictions
/// run throughout the timed window.
const MIXED_CACHE_BYTES: usize = 32 << 20;

/// The serve-mixed population and its popularity law. The law and its
/// exponent are an assumption, not a measurement of any query log; see
/// README.md for the hit ratio they give and a check with other exponents.
const MIXED_POPULATION: usize = 50_000;
const MIXED_ZIPF: f64 = 1.0;
const STREAM_LEN: usize = 200_000;

/// Requests replayed per probe sweep in the per-layer run.
const PROBE_BODIES: usize = 64;

/// Share of a serve workload's run spent on library passes; the rest
/// is traffic.
const SERVE_PASS_SHARE: f64 = 0.2;

/// A run that is still going after this long gives up on what is left.
const RUN_GUARD: Duration = Duration::from_secs(150);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SolveHard,
    ServeHot,
    ServeMixed,
}

impl Kind {
    /// About how long one round (a pass of each measure over the
    /// workload's pass set) takes on a 2-core box. A run makes a fixed
    /// number of rounds derived from `--seconds` and this, so its sample
    /// counts are the same on every run.
    fn round_seconds(self) -> f64 {
        match self {
            Kind::SolveHard => 2.4,
            Kind::ServeHot | Kind::ServeMixed => 0.36,
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        match s {
            "solve-hard" => Some(Kind::SolveHard),
            "serve-hot" => Some(Kind::ServeHot),
            "serve-mixed" => Some(Kind::ServeMixed),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: perfbench --workload <solve-hard|serve-hot|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --tabulate";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--setup-only" => setup_only = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                flags.insert(a.as_str(), v.as_str());
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        kind,
        seed: num("--seed")?,
        seconds,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--tabulate") {
        return match tabulate() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    if args.kind == Kind::ServeMixed {
        // Before anything opens the process-wide registry.
        std::env::set_var(
            prep::global_cache::BUDGET_ENV,
            MIXED_CACHE_BYTES.to_string(),
        );
    }
    let outcome = if args.setup_only {
        setup(&args).map(|s| {
            println!("setup_s {}", s.seconds);
            s.shutdown();
        })
    } else {
        run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::FAILURE
}

/// The served side of a workload: the daemon, its request stream, and
/// where the stream stands.
struct Served {
    server: Server,
    addr: SocketAddr,
    /// Stream position to instance key.
    stream: Vec<usize>,
    cursor: AtomicUsize,
    /// The measure every request asks for.
    measure: &'static str,
}

/// Everything a run needs after set-up.
struct Setup {
    seconds: f64,
    expected: HashMap<String, Widths>,
    /// The instance set of the library passes.
    passes: PassSet,
    served: Option<Served>,
    /// Instances of the serve-hot stream, by key.
    hot: Vec<Instance>,
}

impl Setup {
    fn shutdown(self) {
        if let Some(s) = self.served {
            s.server.drain();
        }
    }
}

/// Starts an in-process daemon on an ephemeral port and waits until
/// `/readyz` answers 200.
fn start_server() -> Result<(Server, SocketAddr), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    };
    let server = Server::start(config).map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = conn
            .call("GET", "/readyz", "")
            .map_err(|e| format!("/readyz: {e}"))?;
        if reply.status == 200 {
            return Ok((server, addr));
        }
        if Instant::now() > give_up {
            return Err("daemon never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sends one request per instance on one connection, requiring 200s.
fn prewarm(addr: SocketAddr, bodies: impl Iterator<Item = String>) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for body in bodies {
        let reply = conn
            .call("POST", "/solve", &body)
            .map_err(|e| format!("prewarm: {e}"))?;
        if reply.status != 200 {
            return Err(format!("prewarm answered {}: {}", reply.status, reply.body));
        }
    }
    Ok(())
}

/// The pass set of the serve workloads.
fn serve_passes() -> PassSet {
    PassSet {
        entries: workload::light_tier(),
        opts: fresh_opts(),
    }
}

/// Set-up: inputs generated, expected widths loaded and cross-checked,
/// the worker pool or the daemon started, and the caches pre-warmed.
fn setup(args: &Args) -> Result<Setup, String> {
    let start = Instant::now();
    let expected = workload::expected_table()?;
    let setup = match args.kind {
        Kind::SolveHard => {
            let tier = workload::hard_tier(args.seed)?;
            for e in &tier {
                for &m in e.measures {
                    match expected.get(&e.instance.name).map(|w| w.get(m)) {
                        Some(w) if w != "-" => {}
                        _ => {
                            return Err(format!("{} {} not tabulated", e.instance.name, m.label()))
                        }
                    }
                }
            }
            // The pool spins up on the first parallel search.
            let _ = solve(&generators::cycle(4), Measure::Ghw, fresh_opts(), CELL_CAP);
            Setup {
                seconds: 0.0,
                expected,
                passes: PassSet {
                    entries: tier,
                    opts: fresh_opts(),
                },
                served: None,
                hot: Vec::new(),
            }
        }
        Kind::ServeHot => {
            let hot = workload::corpus()?;
            let (server, addr) = start_server()?;
            prewarm(addr, hot.iter().map(|i| i.body("widths")))?;
            Setup {
                seconds: 0.0,
                expected,
                passes: serve_passes(),
                served: Some(Served {
                    server,
                    addr,
                    stream: workload::uniform_stream(args.seed, hot.len(), STREAM_LEN),
                    cursor: AtomicUsize::new(0),
                    measure: "widths",
                }),
                hot,
            }
        }
        Kind::ServeMixed => {
            let stream = workload::zipf_stream(args.seed, MIXED_POPULATION, MIXED_ZIPF, STREAM_LEN);
            let (server, addr) = start_server()?;
            // Fill the registry in popularity order until evictions
            // begin, so the timed window starts in steady state.
            let registry = prep::global();
            let full = MIXED_CACHE_BYTES / 100 * 95;
            let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut rank = 0;
            while registry.approx_bytes() < full {
                if rank == MIXED_POPULATION {
                    return Err("population exhausted before the registry filled".into());
                }
                let body = workload::population_member(rank).body("widths");
                let reply = conn
                    .call("POST", "/solve", &body)
                    .map_err(|e| format!("prewarm: {e}"))?;
                if reply.status != 200 {
                    return Err(format!("prewarm answered {}: {}", reply.status, reply.body));
                }
                rank += 1;
            }
            Setup {
                seconds: 0.0,
                expected,
                passes: serve_passes(),
                served: Some(Served {
                    server,
                    addr,
                    stream,
                    cursor: AtomicUsize::new(0),
                    measure: "widths",
                }),
                hot: Vec::new(),
            }
        }
    };
    Ok(Setup {
        seconds: start.elapsed().as_secs_f64(),
        ..setup
    })
}

/// One set-up in a fresh process of this same program.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("set-up child printed {stdout:?}"))
}

/// The body of the request for instance `key` of the workload's stream.
fn body_of(args: &Args, setup: &Setup, measure: &str, key: usize) -> String {
    match args.kind {
        Kind::ServeMixed => workload::population_member(key).body(measure),
        Kind::ServeHot => setup.hot[key].body(measure),
        Kind::SolveHard => setup.passes.entries[key].instance.body(measure),
    }
}

/// Tallies of the run's operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn rounds(&mut self, r: &Rounds) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    fn window(&mut self, w: &Window) {
        self.attempted += w.ok() + w.failed;
        self.failed += w.failed;
    }
}

fn run(args: &Args) -> Result<(), String> {
    let run_start = Instant::now();
    let deadline = run_start + RUN_GUARD;
    let ticks0 = report::cpu_ticks();
    let mut setup_samples: Vec<f64> = Vec::new();
    while setup_samples.len() + 1 < SETUP_MIN
        || (setup_samples.len() + 1 < SETUP_MAX
            && setup_samples.iter().sum::<f64>() < SETUP_SECONDS)
    {
        setup_samples.push(child_setup(args)?);
    }
    let setup = setup(args)?;
    setup_samples.push(setup.seconds);

    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut samples: BTreeMap<&'static str, String> = BTreeMap::new();
    samples.insert("setup_repeats", setup_samples.len().to_string());
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        per_layer(
            args,
            &setup,
            budget,
            deadline,
            &mut metrics,
            &mut tally,
            &mut samples,
        )
    } else {
        end_to_end(
            args,
            &setup,
            budget,
            deadline,
            &mut metrics,
            &mut tally,
            &mut samples,
        )
    };
    if let Some(s) = &setup.served {
        let registry = prep::global();
        samples.insert("registry_variants_end", registry.len().to_string());
        samples.insert("registry_bytes_end", registry.approx_bytes().to_string());
        samples.insert(
            "stream_position",
            s.cursor
                .load(std::sync::atomic::Ordering::Relaxed)
                .to_string(),
        );
    }
    setup.shutdown();
    result?;
    let ticks1 = report::cpu_ticks();
    samples.insert(
        "cpu_steal_share",
        format!(
            "{:.4}",
            ratio((ticks1.0 - ticks0.0) as f64, (ticks1.1 - ticks0.1) as f64)
        ),
    );
    if !args.trace {
        metrics.put("setup_s", median(&setup_samples), "s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let samples: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"benchmark\":\"perfbench/v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"machine\":{},\"samples\":{{{}}},\"setup_samples_s\":[{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::machine_block(),
        samples.join(","),
        setup_samples
            .iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    Ok(())
}

/// Per-measure pass medians as `*_pass_s`.
fn put_passes(
    metrics: &mut Metrics,
    rounds: &Rounds,
    samples: &mut BTreeMap<&'static str, String>,
) {
    for (i, m) in MEASURES.iter().enumerate() {
        metrics.put(format!("{}_pass_s", m.label()), rounds.pass_seconds(i), "s");
    }
    samples.insert("pass_rounds", rounds.rounds.to_string());
}

/// Median latency, in ms.
fn put_latency(
    metrics: &mut Metrics,
    latencies_ms: &[f64],
    samples: &mut BTreeMap<&'static str, String>,
) {
    metrics.put("latency_p50_ms", median(latencies_ms), "ms");
    samples.insert("latency_samples", latencies_ms.len().to_string());
}

fn end_to_end(
    args: &Args,
    setup: &Setup,
    budget: Duration,
    deadline: Instant,
    metrics: &mut Metrics,
    tally: &mut Tally,
    samples: &mut BTreeMap<&'static str, String>,
) -> Result<(), String> {
    // A fixed number of rounds of passes. An operation is one call.
    let n =
        |pass_seconds: f64| (pass_seconds / args.kind.round_seconds()).round().max(1.0) as usize;
    match &setup.served {
        None => {
            let rounds = run_rounds(
                &setup.passes,
                &setup.expected,
                n(budget.as_secs_f64()),
                deadline,
                || {},
            );
            tally.rounds(&rounds);
            put_passes(metrics, &rounds, samples);
            // A call's latency is counted at its cell's median over the
            // rounds, so the median names a cell rather than one noisy
            // sample of it.
            let total_s: f64 = rounds.calls().sum();
            let calls_ms: Vec<f64> = rounds
                .cell_seconds
                .iter()
                .flatten()
                .flat_map(|c| std::iter::repeat_n(median(c) * 1e3, c.len()))
                .collect();
            metrics.put("qps", calls_ms.len() as f64 / total_s, "1/s");
            put_latency(metrics, &calls_ms, samples);
        }
        Some(served) => {
            // Each round of passes is followed by an equal slice of the
            // traffic, so passes and traffic both sample the whole run:
            // the box's speed drifts over seconds, and a phase of a few
            // seconds timed whichever speed it met. The daemon is idle
            // while a round runs (the client is closed-loop).
            let n = n(budget.as_secs_f64() * SERVE_PASS_SHARE);
            let slice = budget.mul_f64(1.0 - SERVE_PASS_SHARE).div_f64(n as f64);
            let mut slices: Vec<Window> = Vec::new();
            let (hits0, misses0) = cache_counters();
            let rounds = run_rounds(&setup.passes, &setup.expected, n, deadline, || {
                slices.push(serve_window(args, setup, served, slice))
            });
            let (hits1, misses1) = cache_counters();
            tally.rounds(&rounds);
            put_passes(metrics, &rounds, samples);
            verify_answers(args, setup, served.measure, &mut slices);
            // The median slice, like a pass's median round.
            let slice_qps: Vec<f64> = slices.iter().map(Window::qps).collect();
            let mut window = Window::default();
            for w in slices {
                window.absorb(w);
            }
            tally.window(&window);
            metrics.put("qps", median(&slice_qps), "1/s");
            put_latency(metrics, &window.latencies_ms(), samples);
            samples.insert("distinct_instances", window.answers.len().to_string());
            let (hits, misses) = (hits1 - hits0, misses1 - misses0);
            samples.insert(
                "result_cache_hit_ratio",
                format!("{:.4}", ratio(hits as f64, (hits + misses) as f64)),
            );
        }
    }
    Ok(())
}

/// One closed-loop window of the workload's stream.
fn serve_window(args: &Args, setup: &Setup, served: &Served, duration: Duration) -> Window {
    let pick = |i: usize| served.stream[i % served.stream.len()];
    let body = |key: usize| body_of(args, setup, served.measure, key);
    let traffic = Traffic {
        pick: &pick,
        body: &body,
    };
    run_window(served.addr, CONNECTIONS, &traffic, &served.cursor, duration)
}

/// The widths fields a correct answer for `key` carries.
fn expected_fields(
    args: &Args,
    setup: &Setup,
    measure: &str,
    key: usize,
) -> Result<String, String> {
    let widths = match args.kind {
        Kind::ServeMixed => {
            // Not tabulated: computed once through the library API.
            let inst = workload::population_member(key);
            let mut w: [String; 3] = Default::default();
            for (i, &m) in MEASURES.iter().enumerate() {
                match solve(&inst.h, m, fresh_opts(), CELL_CAP).0 {
                    Some((width, _)) => w[i] = width,
                    None => return Err(format!("{} {}: no library answer", inst.name, m.label())),
                }
            }
            Widths(w)
        }
        Kind::ServeHot => setup.expected[&setup.hot[key].name].clone(),
        Kind::SolveHard => setup.expected[&setup.passes.entries[key].instance.name].clone(),
    };
    Ok(match measure {
        "widths" => widths.response_fields(),
        "ghw" => format!("\"ghw\":{}", widths.get(Measure::Ghw)),
        other => unreachable!("the benchmark never asks for {other}"),
    })
}

/// Every served answer must carry the expected widths; a wrong answer
/// turns every response that repeated it into a failure.
fn verify_answers(args: &Args, setup: &Setup, measure: &str, windows: &mut [Window]) {
    let mut keys: Vec<usize> = windows
        .iter()
        .flat_map(|w| w.answers.keys().copied())
        .collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let want = expected_fields(args, setup, measure, key);
        for w in windows.iter_mut() {
            let Some(fields) = w.answers.get(&key).map(|a| &a.fields) else {
                continue;
            };
            match &want {
                Ok(want) if want == fields => continue,
                Ok(want) => {
                    eprintln!("perfbench: instance {key} served {{{fields}}}, expected {{{want}}}")
                }
                Err(e) => eprintln!("perfbench: {e}"),
            }
            w.reject(key);
        }
    }
}

/// Histogram change between two snapshots.
fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        cumulative: after
            .cumulative
            .iter()
            .zip(&before.cumulative)
            .map(|(a, b)| a - b)
            .collect(),
        sum_us: after.sum_us - before.sum_us,
        count: after.count - before.count,
    }
}

fn q_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile_us(q).map_or(f64::NAN, |us| us as f64 / 1e3)
}

fn counter(name: &'static str) -> u64 {
    obs::metrics::counter(name, "").get()
}

/// The result cache's `(hits, misses)` counters.
fn cache_counters() -> (u64, u64) {
    (
        counter("hgtool_result_cache_hits_total"),
        counter("hgtool_result_cache_misses_total"),
    )
}

/// Median per-call microseconds of `f` over repeated sweeps of `items`.
fn probe_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5
        || (start.elapsed() < Duration::from_millis(200) && per_call.len() < 1000)
    {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / items.len() as f64);
    }
    median(&per_call)
}

fn per_layer(
    args: &Args,
    setup: &Setup,
    budget: Duration,
    deadline: Instant,
    metrics: &mut Metrics,
    tally: &mut Tally,
    samples: &mut BTreeMap<&'static str, String>,
) -> Result<(), String> {
    let pool_jobs = "hgtool_pool_jobs_total";

    // The served side: the workload's own daemon and stream, or for
    // solve-hard a daemon pre-warmed with the tier's ghw answers and
    // replaying them.
    let mut probe: Option<Served> = None;
    let served = match &setup.served {
        Some(s) => s,
        None => {
            let ghw: Vec<usize> = (0..setup.passes.entries.len())
                .filter(|&i| setup.passes.entries[i].measures.contains(&Measure::Ghw))
                .collect();
            let (server, addr) = start_server()?;
            prewarm(
                addr,
                ghw.iter()
                    .map(|&i| setup.passes.entries[i].instance.body("ghw")),
            )?;
            let stream = workload::uniform_stream(args.seed, ghw.len(), STREAM_LEN);
            &*probe.insert(Served {
                server,
                addr,
                stream: stream.into_iter().map(|i| ghw[i]).collect(),
                cursor: AtomicUsize::new(0),
                measure: "ghw",
            })
        }
    };
    let serve_share = if setup.served.is_some() { 0.5 } else { 0.15 };
    let m = handles();
    let solve_latency = m.latency(Endpoint::Solve).expect("solve has a histogram");
    let (lat0, wait0) = (solve_latency.snapshot(), m.admission_wait.snapshot());
    let (hits0, misses0) = cache_counters();
    let jobs0 = counter(pool_jobs);
    let untraced = serve_window(args, setup, served, budget.mul_f64(serve_share));
    let serve_jobs = counter(pool_jobs) - jobs0;
    let (hits1, misses1) = cache_counters();
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    let server_lat = delta(&solve_latency.snapshot(), &lat0);
    let gate_wait = delta(&m.admission_wait.snapshot(), &wait0);
    obs::trace::set_enabled(true);
    let traced = serve_window(args, setup, served, budget.mul_f64(serve_share / 2.0));
    obs::trace::set_enabled(false);
    obs::trace::drain();
    let mut windows = [untraced, traced];
    verify_answers(args, setup, served.measure, &mut windows);
    let [untraced, traced] = windows;
    tally.window(&untraced);
    tally.window(&traced);
    let client_ms = &untraced.latencies_ms();
    let server_p50 = q_ms(&server_lat, 0.5);
    metrics.put("serve.server_p50_ms", server_p50, "ms");
    metrics.put("serve.transport_ms", median(client_ms) - server_p50, "ms");
    let (client_tail, q) = tail(client_ms);
    metrics.put("serve.client_p99_ms", client_tail, "ms");
    samples.insert("client_tail_quantile", format!("{q:.4}"));
    metrics.put("serve.gate_wait_p50_ms", q_ms(&gate_wait, 0.5), "ms");
    metrics.put("serve.gate_wait_p99_ms", q_ms(&gate_wait, 0.99), "ms");
    metrics.put(
        "prep.result_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    samples.insert("served_requests", (untraced.ok() + traced.ok()).to_string());

    // Replays of the workload's request bodies through each decode layer.
    let keys: Vec<usize> = (0..PROBE_BODIES)
        .map(|i| served.stream[i % served.stream.len()])
        .collect();
    let bodies: Vec<String> = keys
        .iter()
        .map(|&k| body_of(args, setup, served.measure, k))
        .collect();
    let texts: Vec<String> = bodies
        .iter()
        .map(|b| {
            obs::json::parse(b)
                .ok()
                .and_then(|j| {
                    j.get("hypergraph")
                        .and_then(|t| t.as_str())
                        .map(str::to_string)
                })
                .ok_or_else(|| "replayed body does not decode".to_string())
        })
        .collect::<Result<_, _>>()?;
    let graphs = texts
        .iter()
        .map(|t| parser::parse(t).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    metrics.put(
        "obs.json_decode_us",
        probe_us(&bodies, |b| {
            std::hint::black_box(obs::json::parse(b).is_ok());
        }),
        "us",
    );
    metrics.put(
        "hypergraph.parse_us",
        probe_us(&texts, |t| {
            std::hint::black_box(parser::parse(t).is_ok());
        }),
        "us",
    );
    metrics.put(
        "prep.fingerprint_us",
        probe_us(&graphs, |h| {
            std::hint::black_box(prep::fingerprint::canonical_form(h));
            std::hint::black_box(prep::fingerprint(h));
        }),
        "us",
    );

    // Opening a session on an instance the registry already holds, at
    // the registry size the traffic left behind.
    let registry = prep::global();
    metrics.put("prep.registry_variants", registry.len() as f64, "count");
    metrics.put(
        "prep.registry_bytes",
        registry.approx_bytes() as f64,
        "bytes",
    );
    let resident = &graphs[0];
    let opens: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(registry.session(resident));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.put("prep.registry_open_us", median(&opens), "us");
    if let Some(p) = probe {
        p.server.drain();
    }

    // Engine layers: one untraced and one traced pass per measure over
    // the workload's pass set.
    let jobs0 = counter(pool_jobs);
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    for m in MEASURES {
        let plain = run_pass(&setup.passes, &setup.expected, m, false, deadline);
        let spans = run_pass(&setup.passes, &setup.expected, m, true, deadline);
        untraced_s += plain.seconds;
        traced_s += spans.seconds;
        for p in [&plain, &spans] {
            tally.attempted += p.attempted;
            tally.failed += p.failed;
        }
        let s = &spans.stats;
        let l = m.label();
        let self_ms = |name: &str| spans.self_us.get(name).copied().unwrap_or(0) as f64 / 1e3;
        metrics.put(format!("solver.states.{l}"), s.states as f64, "count");
        metrics.put(
            format!("solver.memo_hit_ratio.{l}"),
            ratio(s.memo_hits as f64, (s.memo_hits + s.states) as f64),
            "ratio",
        );
        metrics.put(
            format!("candgen.admitted_ratio.{l}"),
            ratio(s.admitted as f64, s.streamed as f64),
            "ratio",
        );
        metrics.put(format!("prep.self_ms.{l}"), self_ms("prep"), "ms");
        metrics.put(format!("solver.state_self_ms.{l}"), self_ms("state"), "ms");
        // det-k-decomp (hw) streams its own separators: it neither runs the
        // candgen enumerator nor prices bags.
        if m != Measure::Hw {
            metrics.put(
                format!("candgen.generated.{l}"),
                s.cand_generated as f64,
                "count",
            );
            metrics.put(format!("candgen.self_ms.{l}"), self_ms("candgen"), "ms");
            let lookups = s.price_hits + s.price_misses;
            metrics.put(format!("cover.price_lookups.{l}"), lookups as f64, "count");
            metrics.put(
                format!("cover.price_hit_ratio.{l}"),
                ratio(s.price_hits as f64, lookups as f64),
                "ratio",
            );
            metrics.put(format!("cover.price_self_ms.{l}"), self_ms("price"), "ms");
        }
        metrics.put(
            format!("decomp.validate_ms.{l}"),
            plain.validate_seconds * 1e3,
            "ms",
        );
        if m == Measure::Fhw {
            metrics.put("lp.pivots.fhw", s.lp_pivots as f64, "count");
            metrics.put(
                "lp.warm_start_ratio.fhw",
                ratio(
                    s.lp_warm_starts as f64,
                    (s.lp_warm_starts + s.lp_cold_solves) as f64,
                ),
                "ratio",
            );
        }
    }
    let pass_jobs = counter(pool_jobs) - jobs0;

    // The result cache's own time per query: each pass-set instance's
    // ghw query with result reuse on, once to make it resident, then
    // traced.
    let reuse = EngineOptions::default();
    let mut cache_self_us = 0;
    for e in &setup.passes.entries {
        let _ = solve(&e.instance.h, Measure::Ghw, reuse, CELL_CAP);
        obs::trace::drain();
        obs::trace::set_enabled(true);
        let _ = solve(&e.instance.h, Measure::Ghw, reuse, CELL_CAP);
        obs::trace::set_enabled(false);
        let phases = obs::trace::phase_totals(&obs::trace::drain());
        cache_self_us += phases.get("result_cache").map_or(0, |&(_, us)| us);
    }
    metrics.put(
        "prep.result_cache_self_ms",
        cache_self_us as f64 / 1e3 / setup.passes.entries.len() as f64,
        "ms",
    );

    // The workload's own end-to-end activity, traced over untraced.
    let (jobs, overhead) = match setup.served {
        Some(_) => (serve_jobs, untraced.qps() / traced.qps()),
        None => (pass_jobs, traced_s / untraced_s),
    };
    metrics.put("solver.pool_jobs", jobs as f64, "count");
    metrics.put("obs.trace_overhead_ratio", overhead, "ratio");
    samples.insert("spans_dropped", obs::trace::dropped().to_string());
    Ok(())
}

/// Prints the expected-width table for every tabulated instance,
/// computed with preprocessing on and off (the two must agree).
fn tabulate() -> Result<(), String> {
    println!("# name\thw\tghw\tfhw");
    for e in workload::tabulated_instances()? {
        let mut row = vec![e.instance.name.clone()];
        for m in MEASURES {
            if !e.measures.contains(&m) {
                row.push("-".into());
                continue;
            }
            let cap = Duration::from_secs(600);
            let with = solve(&e.instance.h, m, fresh_opts(), cap).0;
            let without = solve(&e.instance.h, m, fresh_opts().without_prep(), cap).0;
            match (with, without) {
                (Some((a, da)), Some((b, _))) if a == b => {
                    passes::validate(&e.instance.h, m, &a, &da)?;
                    row.push(a);
                }
                (a, b) => {
                    return Err(format!(
                        "{} {}: prep on {:?}, prep off {:?}",
                        e.instance.name,
                        m.label(),
                        a.map(|x| x.0),
                        b.map(|x| x.0)
                    ))
                }
            }
        }
        println!("{}", row.join("\t"));
    }
    Ok(())
}
