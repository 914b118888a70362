//! The gated-counter list `crates/bench/baselines.json` and the readers
//! `bin/regress` (gates it) and `bin/trajectory --record` (logs it) share.
//! Strict one-entry-per-line JSON, parsed with a dependency-free field
//! scanner; see `bin/regress` for the format.

use std::path::Path;

/// One gated key: which trajectory blob holds it, its baseline value and
/// its direction of goodness.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Trajectory blob the key lives in (`BENCH_*.json`).
    pub file: String,
    /// Top-level headline key.
    pub key: String,
    /// Baseline value.
    pub value: f64,
    /// Direction of goodness.
    pub better: Direction,
}

/// Which way a gated counter improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better.
    Lower,
    /// Higher is better.
    Higher,
}

/// Extract a `"name": "string"` field from a single JSON line.
pub fn field_str(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract a `"name": <number>` field from a single JSON line.
pub fn field_num(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a baselines file into its tolerance (default 5%) and entries.
pub fn parse_baselines(text: &str) -> (f64, Vec<Entry>) {
    let mut tolerance = 0.05;
    let mut entries = Vec::new();
    for line in text.lines() {
        if let Some(t) = field_num(line, "tolerance") {
            if !line.contains("\"file\"") {
                tolerance = t;
                continue;
            }
        }
        let (Some(file), Some(key), Some(value)) =
            (field_str(line, "file"), field_str(line, "key"), field_num(line, "value"))
        else {
            continue;
        };
        let better = match field_str(line, "better").as_deref() {
            Some("higher") => Direction::Higher,
            _ => Direction::Lower,
        };
        entries.push(Entry { file, key, value, better });
    }
    (tolerance, entries)
}

/// Find `"KEY": <num>` in a trajectory file (top-level headline keys only
/// — they are unique by construction).
pub fn lookup(dir: &Path, file: &str, key: &str) -> Result<f64, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .find_map(|l| field_num(l, key))
        .ok_or_else(|| format!("{file}: key {key} not found"))
}
