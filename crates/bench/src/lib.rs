//! Benchmark harness shared by the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper, or measures one extension — the repository `README.md` carries
//! the full artifact → binary map, including the JSON trajectories
//! (`scaling` for morsel-vs-static `BENCH_SKEW_*`, `pipeline` for
//! fused-vs-two-phase `BENCH_PIPELINE_*`). They share:
//!
//! * [`Args`] — a tiny flag parser (`--scale N`, `--paper`, `--trials K`,
//!   `--threads T`, `--quick`) so runs scale from smoke-test to
//!   paper-scale (2^27 keys) without recompiling;
//! * [`JoinLab`] — cached relations/tables for the join experiments;
//! * [`gate`] — the gated-counter list (`baselines.json`) reader that
//!   `bin/regress` and `bin/trajectory --record` share;
//! * helpers to run a `(build, probe)` or operator sweep over all four
//!   techniques and print paper-shaped rows.

pub mod gate;

use amac::engine::{Technique, TuningParams};
use amac_hashtable::HashTable;
use amac_metrics::report::fnum;
use amac_ops::join::{build, probe, BuildConfig, ProbeConfig};
use amac_workload::Relation;

/// Common command-line arguments for every experiment binary.
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
    /// Also write the JSON trajectory blob to this path (`--json FILE`) —
    /// how CI turns stdout trajectories into uploadable `BENCH_*.json`
    /// artifacts the regression gate (`bin/regress`) can read back.
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
    /// Parse `std::env::args`, exiting with usage on error.
    pub fn parse() -> Args {
        let mut a = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    a.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a log2 size"));
                }
                "--trials" => {
                    a.trials = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--trials needs a count"));
                }
                "--threads" => {
                    a.threads = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs a count"));
                }
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

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    let defaults = Args::default();
    eprintln!(
        "usage: <bin> [--scale N] [--trials K] [--threads T] [--quick] [--paper]\n\
         \x20  --scale N   log2 |S| (default {}; paper = 27)\n\
         \x20  --trials K  repetitions, best-of reported (default {})\n\
         \x20  --threads T max threads for scalability binaries\n\
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

    /// Probe `ht` with `technique`, returning cycles-per-S-tuple and the
    /// checksum (for cross-technique validation).
    pub fn probe_with(
        &self,
        ht: &HashTable,
        technique: Technique,
        cfg: &ProbeConfig,
    ) -> (f64, u64) {
        let out = probe(ht, &self.s, technique, cfg);
        (out.cycles as f64 / self.s.len().max(1) as f64, out.checksum)
    }
}

/// Line-accumulating JSON emitter for the trajectory binaries.
///
/// The hand-rolled JSON blobs used to go straight to stdout, which is
/// why the bench trajectory stayed empty: CI ran the binaries and threw
/// the output away. Building the blob as a string lets every binary both
/// print it (human runs keep working) and persist it via `--json PATH`
/// (CI artifact + regression-gate input).
#[derive(Debug, Default)]
pub struct JsonOut {
    body: String,
}

impl JsonOut {
    /// An empty blob.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a trajectory object: `{` plus the `"bench"` tag line. Every
    /// JSON-emitting binary opens with exactly this shape, so the
    /// regression gate's line scanner can rely on it.
    pub fn open(bench: &str) -> Self {
        let mut j = Self::new();
        j.line("{");
        j.line(format!("  \"bench\": \"{bench}\","));
        j
    }

    /// One `"key": value,` metadata line (numbers or pre-rendered JSON).
    pub fn meta(&mut self, key: &str, value: impl core::fmt::Display) {
        self.line(format!("  \"{key}\": {value},"));
    }

    /// The `"results": [...]` array from pre-rendered row objects,
    /// handling the trailing-comma dance every binary used to hand-roll.
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
    /// line gets no comma), close the object, and
    /// [`emit`](JsonOut::emit) it.
    pub fn finish_with_keys(mut self, keys: &[(String, String)], path: Option<&str>) {
        let n = keys.len();
        for (i, (k, v)) in keys.iter().enumerate() {
            let comma = if i + 1 == n { "" } else { "," };
            self.line(format!("  \"{k}\": {v}{comma}"));
        }
        self.line("}");
        self.emit(path);
    }

    /// Append one line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }

    /// The accumulated blob.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Print the blob to stdout and, if `path` is set, write it there
    /// too (exits with an error message on an unwritable path — a CI
    /// misconfiguration should fail loudly, not silently drop evidence).
    pub fn emit(self, path: Option<&str>) {
        print!("{}", self.body);
        if let Some(p) = path {
            if let Err(e) = std::fs::write(p, &self.body) {
                eprintln!("error: cannot write --json {p}: {e}");
                std::process::exit(1);
            }
        }
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

/// Format a cycles-per-tuple cell.
pub fn cpt(x: f64) -> String {
    fnum(x)
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

/// Inputs for the runtime's *skewed-probe* scenario: a Zipf-keyed build
/// relation (hot keys → long chains) probed by a **clustered** Zipf input,
/// so the expensive probes occupy one contiguous region of S. Static
/// chunking hands that whole region to one thread; morsel stealing
/// redistributes it — this is the workload behind
/// `benches/parallel.rs` and `bin/scaling.rs`.
pub struct SkewLab {
    /// Prebuilt hash table over the Zipf build relation.
    pub ht: HashTable,
    /// Clustered Zipf probe relation.
    pub s: Relation,
}

/// Generate the skewed-probe scenario. `theta` is the probe-side Zipf
/// exponent (1.0 reproduces the acceptance workload); probes use
/// `scan_all`, see [`skewed_probe_cfg`].
///
/// R draws half as many tuples from the same domain with θ = 0.5, which
/// caps the hottest chain at a few hundred nodes (θ = 1 on both sides
/// would make hot-hot probes quadratic). Crucially both relations use the
/// **same generator seed**, hence the same Feistel rank→key permutation:
/// the keys probed most often are exactly the keys with the longest
/// chains, and after clustering those probes occupy a few contiguous runs
/// of S — the positional skew that strands a static chunk.
pub fn skewed_probe_lab(n: usize, theta: f64, seed: u64) -> SkewLab {
    let domain = (n as u64 / 64).max(64);
    let r = Relation::zipf(n / 2, domain, 0.5, seed);
    let ht = HashTable::build_serial(&r);
    let s = Relation::zipf_clustered(n, domain, theta, seed);
    SkewLab { ht, s }
}

/// Probe config for the skewed scenario: walk full chains (join
/// semantics under duplicate build keys), no materialization.
pub fn skewed_probe_cfg(m: usize) -> ProbeConfig {
    ProbeConfig { scan_all: true, ..probe_cfg(m) }
}

/// The far-latency sweep axis shared by the tier trajectory and its
/// docs: far-tier latency as a multiple of DRAM latency.
pub const FAR_MULTS: [u64; 4] = [1, 2, 4, 8];

/// Assert every labelled `(matches, checksum)` signature in `sigs`
/// agrees with the first — the in-run result-equivalence check the
/// trajectory binaries (`layout`, `serve`, `tier`) all perform before
/// trusting their counters.
pub fn assert_sigs_agree(context: &str, sigs: &[(&str, (u64, u64))]) {
    let Some(((_, want), rest)) = sigs.split_first() else { return };
    for (label, got) in rest {
        assert_eq!(got, want, "{context}: '{}' diverged from '{}'", label, sigs[0].0);
    }
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
