//! Aligned text tables and deterministic JSON for the bench binaries and
//! the trace export path.
//!
//! Every figure/table binary prints its series in the same shape the paper
//! reports them (rows = configurations, columns = techniques), via this
//! minimal formatter — no external table crate. [`JsonBuf`] is the
//! equally minimal structured-output side: a comma-tracking JSON writer
//! used by `amac_trace`'s Chrome `trace_event` exporter, whose byte
//! output is a pure function of the emitted values (no maps, no float
//! shortest-repr ambiguity beyond `Display`), so exported traces can be
//! compared byte-for-byte across runs.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Create a table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Table { title: title.into(), ..Default::default() }
    }

    /// Set the header row.
    pub fn header<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row.
    pub fn row<S: Into<String>>(&mut self, cols: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Append a footnote (rendered after the table body).
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len().max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(line, "{cell:<w$}");
                } else {
                    let _ = write!(line, "  {cell:>w$}");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a f64 with engineering-friendly precision (3 significant-ish
/// decimals below 10, 1 decimal below 1000, integers above).
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Format a throughput in millions/second, as the paper's Figures 7–8.
pub fn fmtput(tuples_per_sec: f64) -> String {
    format!("{:.1}M/s", tuples_per_sec / 1e6)
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal deterministic JSON writer: explicit begin/end calls with
/// automatic comma placement. The caller controls key order, so the byte
/// output is reproducible — the property the trace determinism checks
/// rely on.
#[derive(Debug, Clone, Default)]
pub struct JsonBuf {
    out: String,
    /// One entry per open container: whether it already has an element.
    stack: Vec<bool>,
}

impl JsonBuf {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Write `"key":` inside an object (no separator tracking of its own:
    /// the following value call must not `sep` again, so pair this only
    /// with the `*_raw` internals via the typed field methods below).
    fn key(&mut self, key: &str) {
        self.sep();
        let _ = write!(self.out, "\"{}\":", json_escape(key));
    }

    /// Open the root or a nested array element object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Open `"key": {`.
    pub fn begin_obj_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Open `"key": [`.
    pub fn begin_arr_key(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// `"key": "value"`.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "\"{}\"", json_escape(value));
        self
    }

    /// `"key": value` for unsigned integers.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo").header(["cfg", "Baseline", "AMAC"]);
        t.row(["[0,0]", "100", "25"]);
        t.row(["[1,1]", "101.5", "33"]);
        let s = t.render();
        assert!(s.contains("## demo"));
        // title + header + separator + 2 data rows.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric columns: both rows end at the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn empty_and_notes() {
        let mut t = Table::new("x");
        assert!(t.is_empty());
        t.row(["a"]);
        t.note("scaled run");
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(s.contains("note: scaled run"));
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new("r").header(["a", "b"]);
        t.row(["only-one"]);
        t.row(["x", "y"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn fnum_precision_bands() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(123.45), "123.5");
        assert_eq!(fnum(1.234), "1.23");
        assert_eq!(fnum(f64::INFINITY), "inf");
    }

    #[test]
    fn fmtput_scales_to_millions() {
        assert_eq!(fmtput(12_300_000.0), "12.3M/s");
    }

    #[test]
    fn json_buf_places_commas_and_escapes() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.str_field("name", "a\"b\\c\nd");
        j.u64_field("n", 42);
        j.begin_arr_key("rows");
        j.begin_obj().u64_field("x", 1).end_obj();
        j.begin_obj().u64_field("y", 2).end_obj();
        j.end_arr();
        j.begin_obj_key("inner").end_obj();
        j.end_obj();
        assert_eq!(
            j.finish(),
            r#"{"name":"a\"b\\c\nd","n":42,"rows":[{"x":1},{"y":2}],"inner":{}}"#
        );
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("plain"), "plain");
    }
}
