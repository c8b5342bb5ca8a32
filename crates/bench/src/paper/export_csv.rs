//! Converts the harness's `results/*.json` files into flat CSV for
//! external plotting tools.
//!
//! ```text
//! paper export_csv [results_dir] [out_dir]
//! ```
//!
//! Each JSON file must be an array of flat objects (the shape every
//! study writes); nested values are serialised as JSON strings.
//! Output: one `<name>.csv` per input, with a header row of the union
//! of keys.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn flatten_rows(value: &Value) -> Option<Vec<&serde_json::Map<String, Value>>> {
    match value {
        Value::Array(items) => items.iter().map(|i| i.as_object()).collect(),
        // Some experiments write an object with a `cells` array.
        Value::Object(map) => map
            .get("cells")
            .and_then(|c| c.as_array())
            .map(|items| items.iter().filter_map(|i| i.as_object()).collect()),
        _ => None,
    }
}

fn csv_escape(v: &Value) -> String {
    let raw = match v {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    };
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw
    }
}

fn convert(path: &Path, out_dir: &Path) -> Result<PathBuf, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let rows = flatten_rows(&value).ok_or("not an array of objects")?;
    if rows.is_empty() {
        return Err("empty result set".into());
    }
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for r in &rows {
        keys.extend(r.keys().map(String::as_str));
    }
    let mut out = String::new();
    out.push_str(&keys.iter().copied().collect::<Vec<_>>().join(","));
    out.push('\n');
    for r in &rows {
        let line: Vec<String> = keys
            .iter()
            .map(|k| r.get(k).map(csv_escape).unwrap_or_default())
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let dest = out_dir.join(format!("{name}.csv"));
    std::fs::write(&dest, out).map_err(|e| e.to_string())?;
    Ok(dest)
}

/// Converts every `*.json` file in `results` into `out_dir`, printing
/// one line per file; a file that is not an array of objects is skipped
/// with a warning.
///
/// # Errors
///
/// The message if `out_dir` cannot be created or `results` read.
pub fn run(results: &Path, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let entries = std::fs::read_dir(results)
        .map_err(|e| format!("cannot read {}: {e}", results.display()))?;
    let mut converted = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        match convert(&path, out_dir) {
            Ok(dest) => {
                println!("{} -> {}", path.display(), dest.display());
                converted += 1;
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    println!("{converted} file(s) converted");
    Ok(())
}
