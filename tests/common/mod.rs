//! Golden-digest fixtures shared by `engine_equivalence` and
//! `obs_golden`: one digest fold, one golden-file format and one
//! compare-or-bless step.
//!
//! A golden file is `#` comment lines followed by one `<key> <digest>`
//! line per cell. Setting `ROLO_BLESS_GOLDEN` rewrites the file from the
//! current run instead of comparing against it.

use std::collections::BTreeMap;
use std::path::Path;

/// 64-bit FNV-1a digest of `bytes` as fixed-width hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares `current` (`key → digest`) against the golden file at `path`,
/// or rewrites that file under `header` when `ROLO_BLESS_GOLDEN` is set.
///
/// # Panics
///
/// Panics if the file cannot be read or written, or names a different
/// set of keys or a different digest for any key; the message lists
/// every missing, extra and drifted key.
pub fn check_golden(path: &Path, header: &str, current: &BTreeMap<String, String>) {
    if std::env::var("ROLO_BLESS_GOLDEN").is_ok() {
        let mut text = header.to_owned();
        for (key, digest) in current {
            text.push_str(&format!("{key} {digest}\n"));
        }
        std::fs::create_dir_all(path.parent().expect("golden file has a directory"))
            .expect("create the golden directory");
        std::fs::write(path, text).expect("write golden digests");
        println!("blessed {} digests to {}", current.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless it with ROLO_BLESS_GOLDEN=1",
            path.display()
        )
    });
    let golden: BTreeMap<&str, &str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, digest) = l.split_once(' ').expect("golden line is `<key> <digest>`");
            (key, digest.trim())
        })
        .collect();
    let mut problems = Vec::new();
    for (&key, &want) in &golden {
        match current.get(key) {
            None => problems.push(format!("missing: {key} (golden {want})")),
            Some(got) if got != want => {
                problems.push(format!("drifted: {key}: {got} != golden {want}"))
            }
            Some(_) => {}
        }
    }
    for (key, got) in current {
        if !golden.contains_key(key.as_str()) {
            problems.push(format!("extra: {key} {got}"));
        }
    }
    assert!(
        problems.is_empty(),
        "{} does not match this run in {} key(s); re-bless only for a deliberate output change:\n{}",
        path.display(),
        problems.len(),
        problems.join("\n")
    );
}
