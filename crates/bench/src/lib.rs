//! The scenario core of the `bench` binary: every table and figure of
//! the paper's evaluation (§5) and every extension trajectory is one row
//! of [`SCENARIOS`], run as `bench <name> [flags]`; `bench trajectory`
//! runs the gated rows in one process and checks their counters
//! ([`gate`]). The repository `README.md` maps each paper artifact to its
//! scenario. [`Args`] scales every run from smoke test to paper scale
//! (2^27 keys) without recompiling.

#![forbid(unsafe_code)]

pub mod gate;
mod scenarios;

pub use scenarios::SCENARIOS;

use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_metrics::report::{fnum, Table};
use amac_ops::join::{build, probe, BuildConfig, ProbeConfig};
use amac_workload::Relation;

/// One experiment of the `bench` binary.
pub struct Scenario {
    /// Command name: `bench <name>`.
    pub name: &'static str,
    /// One line for `bench list`.
    pub about: &'static str,
    /// The trajectory blob a gated scenario writes (`BENCH_*.json`);
    /// `None` for the printed-only tables.
    pub blob: Option<&'static str>,
    /// Run the experiment: print its tables, return its blob.
    pub run: fn(&Args) -> Outcome,
}

/// What a scenario run returns: its JSON blob (empty for a table-only
/// scenario) and the blob's headline `BENCH_*` keys, rendered exactly as
/// the blob prints them — the regression gate compares those renderings.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The blob.
    pub body: String,
    /// Headline `(key, rendered value)` pairs.
    pub keys: Vec<(String, String)>,
}

/// Common command-line arguments for every scenario.
#[derive(Debug, Clone)]
pub struct Args {
    /// log2 of the probe-relation cardinality (paper: 27).
    pub scale: u32,
    /// Repetitions per configuration (reported value: best, as the paper
    /// picks best-performing configurations).
    pub trials: usize,
    /// Max threads for scalability experiments (default: logical CPUs).
    pub threads: usize,
    /// Quick mode: cut sizes further for CI smoke runs.
    pub quick: bool,
    /// Full paper scale (2^27 probes, 2 GB relations). Needs ~12 GB RAM.
    pub paper: bool,
    /// Also write the scenario's JSON blob to this path (`--json FILE`).
    pub json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 22,
            trials: 1,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            quick: false,
            paper: false,
            json: None,
        }
    }
}

impl Args {
    /// Parse the flags after the scenario name, exiting with usage on
    /// error.
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Args {
        let mut a = Args::default();
        let mut it = flags.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => a.scale = number(it.next(), "--scale needs a log2 size"),
                "--trials" => a.trials = number(it.next(), "--trials needs a count"),
                "--threads" => a.threads = number(it.next(), "--threads needs a count"),
                "--quick" => a.quick = true,
                "--json" => {
                    a.json = Some(it.next().unwrap_or_else(|| usage("--json needs a path")));
                }
                "--paper" => {
                    a.paper = true;
                    a.scale = 27;
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        if a.quick && !a.paper {
            a.scale = a.scale.min(18);
        }
        a
    }

    /// Probe-relation cardinality `|S| = 2^scale`.
    pub fn s_size(&self) -> usize {
        1usize << self.scale
    }

    /// Large build relation `|R| = |S|` (the paper's 2GB ⋈ 2GB).
    pub fn r_large(&self) -> usize {
        self.s_size()
    }

    /// Small build relation: `|R| = |S| / 2^10` (the paper's 2MB ⋈ 2GB
    /// ratio: 2^17 vs 2^27).
    pub fn r_small(&self) -> usize {
        (self.s_size() >> 10).max(1 << 10)
    }
}

/// Parse a numeric flag value, exiting with usage when it is missing or
/// malformed.
pub(crate) fn number<T: core::str::FromStr>(value: Option<String>, msg: &str) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(msg))
}

/// Print the usage message (after `msg`, if any) and exit with status 2.
pub fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    let defaults = Args::default();
    eprintln!(
        "usage: bench <scenario> [--scale N] [--trials K] [--threads T] [--quick] [--paper] [--json F]\n\
         \x20      bench trajectory [--scale N] [--bless] [--record F]\n\
         \x20      bench list\n\
         \x20  --scale N   log2 |S| (default {}; paper = 27)\n\
         \x20  --trials K  repetitions, best-of reported (default {})\n\
         \x20  --threads T max threads for scalability scenarios\n\
         \x20  --quick     smoke-test sizes (scale <= 18)\n\
         \x20  --json F    also write the JSON trajectory blob to file F\n\
         \x20  --paper     full paper scale (2^27; needs ~12 GB RAM)",
        defaults.scale, defaults.trials
    );
    std::process::exit(2);
}

/// Zipf skew configurations `[Z_R, Z_S]` used in Figures 5–8.
pub const SKEW_CONFIGS: [(f64, f64); 5] =
    [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0)];

/// Render a `[Z_R, Z_S]` pair the way the paper labels x-axes.
pub fn skew_label(zr: f64, zs: f64) -> String {
    fn z(x: f64) -> String {
        if x == 0.0 {
            "0".into()
        } else if x == 1.0 {
            "1".into()
        } else {
            format!("{x:.1}").trim_start_matches('0').to_string()
        }
    }
    format!("[{},{}]", z(zr), z(zs))
}

/// Materialized inputs for one join experiment.
pub struct JoinLab {
    /// Build relation.
    pub r: Relation,
    /// Probe relation.
    pub s: Relation,
}

impl JoinLab {
    /// Generate R and S with the given sizes and skews (`z = 0` → uniform
    /// FK workload, §4).
    pub fn generate(nr: usize, ns: usize, zr: f64, zs: f64, seed: u64) -> JoinLab {
        let r = if zr == 0.0 {
            Relation::dense_unique(nr, seed)
        } else {
            Relation::zipf(nr, nr as u64, zr, seed)
        };
        let s = if zs == 0.0 {
            Relation::fk_uniform(&r, ns, seed ^ 0xF00D)
        } else {
            Relation::zipf(ns, nr as u64, zs, seed ^ 0xF00D)
        };
        JoinLab { r, s }
    }

    /// Build a hash table from R with `technique`, returning the table and
    /// build cycles-per-R-tuple.
    pub fn build_with(&self, technique: Technique, m: usize) -> (HashTable, f64) {
        let ht = HashTable::for_tuples(self.r.len());
        let cfg = BuildConfig { params: TuningParams::with_in_flight(m), tier: None };
        let out = build(&ht, &self.r, technique, &cfg);
        (ht, out.cycles as f64 / self.r.len().max(1) as f64)
    }

    /// Probe `ht` with `technique`, returning cycles-per-S-tuple.
    pub fn probe_with(&self, ht: &HashTable, technique: Technique, cfg: &ProbeConfig) -> f64 {
        probe(ht, &self.s, technique, cfg).cycles as f64 / self.s.len().max(1) as f64
    }
}

/// Line-accumulating JSON emitter for the trajectory blobs: `{`, a
/// `"bench"` tag, metadata lines, a `"results"` array, then the headline
/// `BENCH_*` keys — one key per line, which the history log and the
/// regression gate rely on.
#[derive(Debug, Default)]
pub struct JsonOut {
    body: String,
}

impl JsonOut {
    /// Begin a trajectory object: `{` plus the `"bench"` tag line.
    pub fn open(bench: &str) -> Self {
        let mut j = Self::default();
        j.line("{");
        j.line(format!("  \"bench\": \"{bench}\","));
        j
    }

    /// One `"key": value,` metadata line (numbers or pre-rendered JSON).
    pub fn meta(&mut self, key: &str, value: impl core::fmt::Display) {
        self.line(format!("  \"{key}\": {value},"));
    }

    /// The `"results": [...]` array from pre-rendered row objects.
    pub fn results<I: IntoIterator<Item = String>>(&mut self, rows: I) {
        self.line("  \"results\": [");
        let rows: Vec<String> = rows.into_iter().collect();
        let n = rows.len();
        for (i, r) in rows.into_iter().enumerate() {
            let comma = if i + 1 == n { "" } else { "," };
            self.line(format!("    {r}{comma}"));
        }
        self.line("  ],");
    }

    /// Emit the headline `BENCH_*` keys (pre-rendered values; the last
    /// line gets no comma) and close the object.
    pub fn finish_with_keys<K: ToString>(mut self, keys: &[(K, String)]) -> Outcome {
        let keys: Vec<(String, String)> =
            keys.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        for (i, (k, v)) in keys.iter().enumerate() {
            let comma = if i + 1 == keys.len() { "" } else { "," };
            self.line(format!("  \"{k}\": {v}{comma}"));
        }
        self.line("}");
        Outcome { body: self.body, keys }
    }

    fn line(&mut self, s: impl AsRef<str>) {
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }
}

/// Best-of-`trials` measurement helper.
pub fn best_of<T>(trials: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = f();
    for _ in 1..trials.max(1) {
        let cur = f();
        if cur.0 < best.0 {
            best = cur;
        }
    }
    best
}

/// The cells of one paper-figure row, in [`Technique::ALL`] order: `run`
/// measures one trial of a technique and returns its `C` columns (cycles
/// per tuple), and each column keeps its best of `trials`.
pub fn per_technique<const C: usize>(
    trials: usize,
    mut run: impl FnMut(Technique) -> [f64; C],
) -> [[f64; C]; 4] {
    Technique::ALL.map(|t| {
        let mut best = run(t);
        for _ in 1..trials.max(1) {
            for (b, x) in best.iter_mut().zip(run(t)) {
                *b = b.min(x);
            }
        }
        best
    })
}

/// A table whose columns are `first`, then one per technique.
pub fn technique_table(title: impl Into<String>, first: &str) -> Table {
    Table::new(title).header(std::iter::once(first).chain(Technique::ALL.map(Technique::label)))
}

/// A table row: `label`, then each value through [`fnum`].
pub fn row(label: impl Into<String>, values: impl IntoIterator<Item = f64>) -> Vec<String> {
    std::iter::once(label.into()).chain(values.into_iter().map(fnum)).collect()
}

/// Default probe config with `m` in-flight lookups and no materialization
/// (bench runs should not be bound by output writes).
pub fn probe_cfg(m: usize) -> ProbeConfig {
    ProbeConfig {
        params: TuningParams::with_in_flight(m),
        materialize: false,
        ..Default::default()
    }
}

/// Inputs for the runtime's *skewed-probe* scenario (`bench scaling`): a
/// Zipf-keyed build (hot keys → long chains) probed by a **clustered**
/// Zipf input, so the expensive probes occupy one contiguous region of S
/// that static chunking hands to one thread and morsel stealing spreads.
pub struct SkewLab {
    /// Prebuilt hash table over the Zipf build relation.
    pub ht: HashTable,
    /// Clustered Zipf probe relation.
    pub s: Relation,
}

/// Generate the skewed-probe scenario with probe-side Zipf exponent
/// `theta`. R draws half as many tuples with θ = 0.5, capping the hottest
/// chain at a few hundred nodes (θ = 1 on both sides would make hot-hot
/// probes quadratic). Both relations share the **generator seed**, hence
/// the Feistel rank→key permutation: the most-probed keys are exactly
/// the longest chains.
pub fn skewed_probe_lab(n: usize, theta: f64, seed: u64) -> SkewLab {
    let domain = (n as u64 / 64).max(64);
    let r = Relation::zipf(n / 2, domain, 0.5, seed);
    let ht = HashTable::build_serial(&r);
    let s = Relation::zipf_clustered(n, domain, theta, seed);
    SkewLab { ht, s }
}

/// Probe config with `m` in-flight lookups that walks full chains (join
/// semantics under duplicate build keys), no materialization.
pub fn scan_all_cfg(m: usize) -> ProbeConfig {
    ProbeConfig { scan_all: true, ..probe_cfg(m) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_labels_match_paper_style() {
        assert_eq!(skew_label(0.0, 0.0), "[0,0]");
        assert_eq!(skew_label(0.5, 0.0), "[.5,0]");
        assert_eq!(skew_label(1.0, 1.0), "[1,1]");
        assert_eq!(skew_label(0.5, 0.5), "[.5,.5]");
    }

    #[test]
    fn args_defaults() {
        let a = Args::default();
        assert_eq!(a.s_size(), 1 << 22);
        assert_eq!(a.r_small(), 1 << 12);
        assert_eq!(a.r_large(), 1 << 22);
    }

    #[test]
    fn join_lab_uniform_is_fk() {
        let lab = JoinLab::generate(1 << 10, 1 << 12, 0.0, 0.0, 1);
        assert!(lab.s.tuples.iter().all(|t| (1..=(1u64 << 10)).contains(&t.key)));
    }

    #[test]
    fn join_lab_skewed_generates_duplicates() {
        let lab = JoinLab::generate(1 << 10, 1 << 10, 1.0, 0.0, 2);
        let distinct: std::collections::HashSet<u64> = lab.r.tuples.iter().map(|t| t.key).collect();
        assert!(distinct.len() < lab.r.len(), "z=1 build keys must repeat");
    }

    #[test]
    fn best_of_picks_minimum() {
        let mut vals = vec![5.0, 3.0, 4.0].into_iter();
        let (best, _) = best_of(3, || (vals.next().unwrap(), ()));
        assert_eq!(best, 3.0);
    }
}
