//! The benchmark's inputs: the hard tier, the vendored corpus, the
//! served populations and request streams, and the checked-in table of
//! expected widths. Everything here is a pure function of the seed.

use hypertree_core::hypergraph::{generators as g, parser, Hypergraph};
use std::collections::HashMap;

/// The three width measures, in pass order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Measure {
    Hw,
    Ghw,
    Fhw,
}

pub const MEASURES: [Measure; 3] = [Measure::Hw, Measure::Ghw, Measure::Fhw];

impl Measure {
    pub fn label(self) -> &'static str {
        match self {
            Measure::Hw => "hw",
            Measure::Ghw => "ghw",
            Measure::Fhw => "fhw",
        }
    }

    fn index(self) -> usize {
        match self {
            Measure::Hw => 0,
            Measure::Ghw => 1,
            Measure::Fhw => 2,
        }
    }
}

/// One named instance with its HyperBench text (what a client sends).
pub struct Instance {
    pub name: String,
    pub h: Hypergraph,
    pub text: String,
}

impl Instance {
    pub fn new(name: String, h: Hypergraph) -> Instance {
        let text = h.to_string();
        Instance { name, h, text }
    }

    /// The `/solve` request body asking for `measure` (`widths` = all three).
    pub fn body(&self, measure: &str) -> String {
        format!(
            "{{\"hypergraph\":{},\"measure\":\"{measure}\"}}",
            json_str(&self.text)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64: the benchmark's own seeded generator, so that the inputs
/// do not depend on the program's random-number code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Expected widths, rendered as the server renders them (`3`, `3/2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Widths(pub [String; 3]);

impl Widths {
    pub fn get(&self, m: Measure) -> &str {
        &self.0[m.index()]
    }

    /// The inside of the response's `"widths":{...}` object.
    pub fn response_fields(&self) -> String {
        let fhw = self.get(Measure::Fhw);
        let fhw = if fhw.contains('/') {
            format!("\"{fhw}\"")
        } else {
            fhw.to_string()
        };
        format!(
            "\"hw\":{},\"ghw\":{},\"fhw\":{fhw}",
            self.get(Measure::Hw),
            self.get(Measure::Ghw)
        )
    }
}

/// The checked-in table: instance name to expected widths (`-` marks a
/// measure the tier does not run on that instance).
pub fn expected_table() -> Result<HashMap<String, Widths>, String> {
    let mut out = HashMap::new();
    for (i, line) in include_str!("../expected_widths.tsv").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [name, hw, ghw, fhw] = cols[..] else {
            return Err(format!("expected_widths.tsv:{}: want 4 columns", i + 1));
        };
        let w = Widths([hw.to_string(), ghw.to_string(), fhw.to_string()]);
        if out.insert(name.to_string(), w).is_some() {
            return Err(format!("expected_widths.tsv:{}: duplicate {name}", i + 1));
        }
    }
    cross_check_closed_forms(&out)?;
    Ok(out)
}

/// Where a closed form exists, the table must agree with it:
/// clique(n) has ghw = ceil(n/2) and fhw = n/2; cycle(n >= 4) has
/// hw = ghw = fhw = 2.
fn cross_check_closed_forms(table: &HashMap<String, Widths>) -> Result<(), String> {
    let mut checked = 0;
    for (name, w) in table {
        let arg = |prefix: &str| -> Option<usize> {
            name.strip_prefix(prefix)?.strip_suffix(')')?.parse().ok()
        };
        let want: Vec<(Measure, String)> = if let Some(n) = arg("clique(") {
            let fhw = if n % 2 == 0 {
                (n / 2).to_string()
            } else {
                format!("{n}/2")
            };
            vec![
                (Measure::Ghw, n.div_ceil(2).to_string()),
                (Measure::Fhw, fhw),
            ]
        } else if arg("cycle(").is_some_and(|n| n >= 4) {
            MEASURES.iter().map(|&m| (m, "2".to_string())).collect()
        } else {
            continue;
        };
        for (m, expect) in want {
            let got = w.get(m);
            if got != "-" && got != expect {
                return Err(format!(
                    "expected_widths.tsv: {name} {} = {got}, closed form says {expect}",
                    m.label()
                ));
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("expected_widths.tsv: no closed-form rows".into());
    }
    Ok(())
}

/// The vendored CQ/CSP corpus, read from the checkout.
pub fn corpus() -> Result<Vec<Instance>, String> {
    const NAMES: [&str; 8] = [
        "cq_chordal_ring_q8",
        "cq_double_diamond_q13",
        "cq_snowflake_q4",
        "cq_triangle_proj_q3",
        "csp_crossword_4x3",
        "csp_rand_bin_10",
        "csp_ternary_grid_9",
        "csp_wheel_6",
    ];
    NAMES
        .iter()
        .map(|n| {
            let path = format!("examples/data/corpus/{n}.hg");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let h = parser::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(Instance::new(format!("corpus/{n}"), h))
        })
        .collect()
}

/// Seeded draws of the hard tier come from fixed pools of generator
/// seeds (all tabulated); the benchmark seed picks which members run.
pub const TIER_POOL: u64 = 24;
const TIER_DRAWS: usize = 2;

pub fn random_bip_medium(s: u64) -> Instance {
    Instance::new(
        format!("random_bip(12,9,2,3,s{s})"),
        g::random_bip(12, 9, 2, 3, s),
    )
}

pub fn random_bdeg_medium(s: u64) -> Instance {
    Instance::new(
        format!("random_bounded_degree(14,10,3,3,s{s})"),
        g::random_bounded_degree(14, 10, 3, 3, s),
    )
}

/// The deterministic part of the hard tier: each instance with the
/// measures it runs. Every cell takes 10 ms to 1 s on a 2-core box;
/// cells that take tens of seconds (hypercube(4) hw or fhw, clique(9) hw)
/// and trivial ones (acyclic CQ shapes, cycles) are left out.
fn fixed_tier() -> Vec<(Instance, &'static [Measure])> {
    use Measure::*;
    const ALL: &[Measure] = &[Hw, Ghw, Fhw];
    const HW_GHW: &[Measure] = &[Hw, Ghw];
    const GHW: &[Measure] = &[Ghw];
    const FHW: &[Measure] = &[Fhw];
    let i = |name: &str, h: Hypergraph| Instance::new(name.to_string(), h);
    vec![
        (i("grid(4,4)", g::grid(4, 4)), &[Hw, Fhw]),
        (i("grid(4,5)", g::grid(4, 5)), &[Hw]),
        (i("grid(5,5)", g::grid(5, 5)), HW_GHW),
        (i("grid(4,6)", g::grid(4, 6)), HW_GHW),
        (i("grid(5,6)", g::grid(5, 6)), GHW),
        (i("grid(4,8)", g::grid(4, 8)), GHW),
        (i("grid(3,5)", g::grid(3, 5)), FHW),
        (i("clique(7)", g::clique(7)), ALL),
        (i("clique(8)", g::clique(8)), ALL),
        (i("clique(9)", g::clique(9)), FHW),
        (i("clique(11)", g::clique(11)), GHW),
        (i("hypercube(3)", g::hypercube(3)), FHW),
        (i("hypercube(4)", g::hypercube(4)), GHW),
        (i("example_5_1(8)", g::example_5_1(8)), FHW),
        (i("example_5_1(6)", g::example_5_1(6)), FHW),
        (i("lemma_6_24_family(8)", g::lemma_6_24_family(8)), FHW),
    ]
}

/// The library pass set of the serve workloads: tier cells of tens of
/// milliseconds, long enough that a pass times the engines rather than
/// thread wake-ups, short enough that a round leaves most of the run to
/// traffic.
pub fn light_tier() -> Vec<TierEntry> {
    use Measure::*;
    const LIGHT: [(&str, &[Measure]); 5] = [
        ("clique(7)", &[Hw, Ghw, Fhw]),
        ("clique(8)", &[Ghw, Fhw]),
        ("grid(3,5)", &[Fhw]),
        ("hypercube(3)", &[Fhw]),
        ("example_5_1(6)", &[Fhw]),
    ];
    fixed_tier()
        .into_iter()
        .filter_map(|(instance, _)| {
            let (_, measures) = LIGHT.iter().find(|(n, _)| *n == instance.name)?;
            Some(TierEntry { instance, measures })
        })
        .collect()
}

/// The vendored CSP instances hard enough for the tier (fhw only).
const CORPUS_TIER: [&str; 2] = ["corpus/csp_crossword_4x3", "corpus/csp_rand_bin_10"];

/// A cell of a pass: an instance index and the measures run on it.
pub struct TierEntry {
    pub instance: Instance,
    pub measures: &'static [Measure],
}

/// The hard tier for `seed`: the fixed cells, the hard CSP shapes of the
/// vendored corpus, and `TIER_DRAWS` seeded draws of each random family.
pub fn hard_tier(seed: u64) -> Result<Vec<TierEntry>, String> {
    let mut out: Vec<TierEntry> = fixed_tier()
        .into_iter()
        .map(|(instance, measures)| TierEntry { instance, measures })
        .collect();
    for instance in corpus()? {
        if CORPUS_TIER.contains(&instance.name.as_str()) {
            out.push(TierEntry {
                instance,
                measures: &[Measure::Fhw],
            });
        }
    }
    let mut rng = Rng::new(seed);
    for family in [random_bip_medium, random_bdeg_medium] {
        for s in pick_distinct(&mut rng, TIER_POOL, TIER_DRAWS) {
            out.push(TierEntry {
                instance: family(s),
                measures: &MEASURES,
            });
        }
    }
    Ok(out)
}

/// Every instance the table must cover: the fixed tier, the corpus and
/// both pools in full.
pub fn tabulated_instances() -> Result<Vec<TierEntry>, String> {
    let mut out: Vec<TierEntry> = fixed_tier()
        .into_iter()
        .map(|(instance, measures)| TierEntry { instance, measures })
        .collect();
    for instance in corpus()? {
        out.push(TierEntry {
            instance,
            measures: &MEASURES,
        });
    }
    for family in [random_bip_medium, random_bdeg_medium] {
        for s in 0..TIER_POOL {
            out.push(TierEntry {
                instance: family(s),
                measures: &MEASURES,
            });
        }
    }
    Ok(out)
}

/// `k` distinct values of `0..n`, in draw order.
fn pick_distinct(rng: &mut Rng, n: u64, k: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n as usize) as u64;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The serve-mixed population: rank `r` (0 = most popular) is a medium
/// random instance with a generator seed derived from `r`. The population
/// is the same for every benchmark seed (which picks the request stream),
/// so its cost mix does not vary from seed to seed.
pub fn population_member(rank: usize) -> Instance {
    let s = Rng::new(rank as u64).next_u64() >> 16;
    if rank.is_multiple_of(2) {
        random_bip_medium(s)
    } else {
        random_bdeg_medium(s)
    }
}

/// `n` ranks drawn from a Zipf law with exponent `s` over `population`
/// ranks.
pub fn zipf_stream(seed: u64, population: usize, s: f64, n: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(population);
    let mut total = 0.0;
    for r in 0..population {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(total);
    }
    let mut rng = Rng::new(seed ^ 0x7a69_7066);
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * total;
            cdf.partition_point(|&c| c < u).min(population - 1)
        })
        .collect()
}

/// `n` uniform picks of `0..k`.
pub fn uniform_stream(seed: u64, k: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0068_6f74);
    (0..n).map(|_| rng.below(k)).collect()
}
