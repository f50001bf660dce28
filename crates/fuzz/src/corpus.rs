//! The committed regression corpus.
//!
//! Every bug the fuzzer has flushed out leaves a minimal `.mc` repro in
//! `tests/corpus/` at the repository root. The files are ordinary MiniC
//! programs with a one-line provenance comment; [`replay_dir`] pushes each
//! through the full oracle stack, so the corpus doubles as a permanent
//! regression suite — a file that starts failing again means its fix
//! regressed.

use crate::oracle::{check_source, FailureKind};
use crate::FuzzConfig;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes a repro into `dir` as `<name>.mc` with a provenance header.
/// Returns the path written.
pub fn write_repro(
    dir: &Path,
    name: &str,
    seed: u64,
    class_key: &str,
    src: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.mc"));
    fs::write(&path, format!("// fuzz repro: seed {seed}, class {class_key}\n{src}"))?;
    Ok(path)
}

/// Replays every `.mc` file in `dir` (sorted by name) through the oracles,
/// with the default [`FuzzConfig`] knobs.
/// Returns one `(path, verdict)` pair per file; an empty or missing corpus
/// directory is an error — replaying nothing must not look like passing.
pub fn replay_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Result<(), FailureKind>)>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .mc files in {}", dir.display()),
        ));
    }
    files
        .into_iter()
        .map(|p| {
            let src = fs::read_to_string(&p)?;
            Ok((p, check_source(&src, &FuzzConfig::default())))
        })
        .collect()
}
