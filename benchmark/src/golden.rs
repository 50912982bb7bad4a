//! Golden result digests under `benchmark/golden/`.
//!
//! One file per workload. A file maps a *section* (the workload seed of a
//! co-run, the campaign name of `campaign-quick`) to named digests: the
//! per-application end-of-checkpoint counters of a co-run, or one content
//! fingerprint per campaign artifact. A run whose section is pinned must
//! reproduce it exactly; `--bless` rewrites the section instead. Seeds
//! without a section get determinism checks only.

use crate::cli::Args;
use crate::report::{json_string, RunResult};
use ebm_bench::json;
use std::collections::BTreeMap;
use std::path::Path;

/// Named digests of one section.
pub type Section = BTreeMap<String, String>;

/// The golden file of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    sections: BTreeMap<String, Section>,
}

impl Golden {
    /// Loads `path`; a missing file is an empty golden.
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists but is unreadable or malformed.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Golden::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let bad = || format!("{}: not a golden file", path.display());
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut sections = BTreeMap::new();
        for (key, sec) in doc.as_obj().ok_or_else(bad)? {
            let mut section = Section::new();
            for (name, digest) in sec.as_obj().ok_or_else(bad)? {
                section.insert(name.clone(), digest.as_str().ok_or_else(bad)?.to_owned());
            }
            sections.insert(key.clone(), section);
        }
        Ok(Golden { sections })
    }

    /// The pinned digests of `key`, if any.
    pub fn section(&self, key: &str) -> Option<&Section> {
        self.sections.get(key)
    }

    /// Pins `section` under `key`, replacing what was there.
    pub fn set(&mut self, key: &str, section: Section) {
        self.sections.insert(key.to_owned(), section);
    }

    /// Writes the file, sections and names in sorted order, one digest per
    /// line so a re-bless shows up as a readable diff.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{");
        for (i, (key, section)) in self.sections.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("{}: {{", json_string(key)));
            for (j, (name, digest)) in section.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                out.push_str(&format!("  {}: {}", json_string(name), json_string(digest)));
            }
            out.push_str("\n}");
        }
        out.push_str("\n}\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Differences between the pinned and the observed digests, one line each
/// (empty when they agree).
pub fn diff(expected: &Section, got: &Section) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match got.get(name) {
            Some(have) if have == want => {}
            Some(have) => out.push(format!("{name}: expected `{want}`, got `{have}`")),
            None => out.push(format!("{name}: missing from this run")),
        }
    }
    for name in got.keys().filter(|n| !expected.contains_key(*n)) {
        out.push(format!("{name}: not in the golden file"));
    }
    out
}

/// Holds `got` against section `key` of the run's golden file: a pinned
/// section must be reproduced exactly (one check), an unpinned one is left to
/// the determinism checks. `--bless` pins `got` instead; smoke runs stop at
/// a shorter checkpoint and are never held against the goldens.
///
/// # Errors
///
/// Returns a message when the golden file is malformed or cannot be written.
pub fn check_or_bless(
    result: &mut RunResult,
    args: &Args,
    key: &str,
    got: &Section,
) -> Result<(), String> {
    if args.smoke {
        return Ok(());
    }
    let path = args.golden_path();
    let mut golden = Golden::load(&path)?;
    if args.bless {
        golden.set(key, got.clone());
        golden.save(&path)?;
        eprintln!("blessed section `{key}` of {}", path.display());
    } else if let Some(want) = golden.section(key) {
        let diffs = diff(want, got);
        result.check(&format!("golden_{key}"), diffs.is_empty(), || {
            diffs.join("; ")
        });
    }
    Ok(())
}

/// Fingerprints, with the repository's own content hash
/// ([`gpu_types::fingerprint`]), every regular file directly under `dir`
/// except `PROFILE.json`, which records wall times; keyed by file name.
///
/// # Errors
///
/// Returns a message when the directory or a file in it cannot be read.
pub fn digest_dir(dir: &Path) -> Result<Section, String> {
    let err = |e: std::io::Error| format!("cannot read {}: {e}", dir.display());
    let mut section = Section::new();
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let entry = entry.map_err(err)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "PROFILE.json" || !entry.file_type().map_err(err)?.is_file() {
            continue;
        }
        let bytes = std::fs::read(entry.path()).map_err(err)?;
        section.insert(name, gpu_types::fingerprint(&bytes).to_string());
    }
    Ok(section)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips_and_diffs() {
        let dir = std::env::temp_dir().join(format!("ebm-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        assert_eq!(Golden::load(&path).unwrap(), Golden::default());

        let mut g = Golden::default();
        let section: Section = [("app0", "warp_insts=5"), ("app1", "warp_insts=\"9\"")]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        g.set("42", section.clone());
        g.set("7", Section::new());
        g.save(&path).unwrap();
        let back = Golden::load(&path).unwrap();
        assert_eq!(back, g);
        assert!(diff(back.section("42").unwrap(), &section).is_empty());

        let mut other = section.clone();
        other.insert("app0".to_owned(), "warp_insts=6".to_owned());
        other.remove("app1");
        other.insert("app2".to_owned(), "x".to_owned());
        assert_eq!(diff(&section, &other).len(), 3);

        std::fs::write(dir.join("PROFILE.json"), "{}").unwrap();
        let digests = digest_dir(&dir).unwrap();
        assert_eq!(digests.keys().collect::<Vec<_>>(), ["w.json"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
