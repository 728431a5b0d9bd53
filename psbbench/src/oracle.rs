//! The output check: every simulation's `psb-sweep-v1` cell entry must
//! match a stored reference byte for byte.

use psb::obs::json;
use psb::sim::SweepCell;
use std::collections::BTreeMap;

/// Stored cell entries keyed by `(benchmark, config label, scale)`,
/// each kept as the exact text it has in the reference artifact.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    cells: BTreeMap<(String, String, u64), String>,
}

impl Oracle {
    /// Reads a `psb-sweep-v1` artifact (such as the committed
    /// `results/shootout.json`).
    pub fn load(path: &str) -> Result<Oracle, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Oracle::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a `psb-sweep-v1` document, keeping each cell's text
    /// verbatim. Cells are split on the raw bytes rather than re-rendered
    /// from a parsed tree, so a float that would print differently after
    /// a parse round trip cannot make a correct run look wrong.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        if doc.get("schema").and_then(|s| s.as_str()) != Some(psb::sim::SWEEP_SCHEMA) {
            return Err(format!("not a {} document", psb::sim::SWEEP_SCHEMA));
        }
        let start = text.find("\"cells\":[").ok_or("no cells array")? + "\"cells\":[".len();
        let mut cells = BTreeMap::new();
        for entry in split_objects(&text[start..])? {
            let cell = json::parse(entry).map_err(|e| format!("bad cell: {e}"))?;
            let field = |k: &str| cell.get(k).and_then(|v| v.as_str()).map(str::to_owned);
            let key = match (field("benchmark"), field("config"), cell.get("scale")) {
                (Some(b), Some(c), Some(s)) => (b, c, s.as_u64().ok_or("bad scale")?),
                _ => return Err(format!("cell without coordinates: {entry:.80}")),
            };
            cells.insert(key, entry.to_owned());
        }
        Ok(Oracle { cells })
    }

    /// The stored entry for `cell`, if the reference holds one.
    pub fn entry(&self, cell: &SweepCell) -> Option<&str> {
        let key = (cell.bench.name().to_owned(), cell.label(), u64::from(cell.scale));
        self.cells.get(&key).map(String::as_str)
    }

    /// True when the reference holds an entry for every cell.
    pub fn covers(&self, cells: &[SweepCell]) -> bool {
        cells.iter().all(|c| self.entry(c).is_some())
    }

    /// Replaces the stored entry for `cell` (the harness self-test uses
    /// this to plant a mismatching reference).
    pub fn insert(&mut self, cell: &SweepCell, entry: String) {
        let key = (cell.bench.name().to_owned(), cell.label(), u64::from(cell.scale));
        self.cells.insert(key, entry);
    }
}

/// Splits the body of a JSON array of objects (the text after its `[`)
/// into the objects' exact texts, stopping at the closing `]`.
fn split_objects(body: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' | ']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&body[start..=i]);
                }
            }
            ']' => return Ok(out),
            _ => {}
        }
    }
    Err("unterminated cells array".to_owned())
}

/// Which output check a run used.
#[derive(Clone, Debug)]
pub enum Check {
    /// Every cell is compared with the stored reference entry.
    Oracle(Oracle),
    /// No reference covers these cells (another trace scale): every
    /// untraced run is compared with a traced run of the same cell.
    TracedVsUntraced,
}

impl Check {
    /// Picks the oracle when it covers every cell, the fallback
    /// otherwise.
    pub fn for_cells(oracle: Oracle, cells: &[SweepCell]) -> Check {
        if oracle.covers(cells) {
            Check::Oracle(oracle)
        } else {
            Check::TracedVsUntraced
        }
    }

    /// One line naming the check, for the run's output.
    pub fn describe(&self, cells: usize) -> String {
        match self {
            Check::Oracle(_) => {
                format!("check: oracle (results/shootout.json), {cells} cells byte-identical")
            }
            Check::TracedVsUntraced => {
                format!("check: traced-vs-untraced ({cells} cells; no stored oracle at this scale)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_nested_objects_and_strings() {
        let body = r#"{"a":{"b":[1,2]},"s":"}{]"},{"c":"\"}"}],"x":1}"#;
        let parts = split_objects(body).unwrap();
        assert_eq!(parts, vec![r#"{"a":{"b":[1,2]},"s":"}{]"}"#, r#"{"c":"\"}"}"#]);
        assert!(split_objects("{\"a\":1}").is_err());
    }

    #[test]
    fn parse_rejects_other_schemas() {
        assert!(Oracle::parse(r#"{"schema":"psb-run-v1","cells":[]}"#).is_err());
        assert!(Oracle::parse(r#"{"schema":"psb-sweep-v1","cells":[]}"#).is_ok());
    }
}
