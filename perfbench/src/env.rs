//! Environment hygiene: refuse settings that change results outside the
//! cell hash, and record what the numbers were measured on.

use std::path::Path;

use oic_engine::{to_hex, Sha256};

/// Environment switches that change results or code paths without
/// entering the cell hash. A timed run refuses to start under any.
pub const RESULT_KNOBS: [&str; 3] = ["OIC_MPC_WARM", "OIC_LP_BACKEND", "OIC_EPISODE_KERNEL"];

/// # Errors
///
/// Names every [`RESULT_KNOBS`] variable that is set.
pub fn refuse_result_knobs() -> Result<(), String> {
    let set: Vec<&str> = RESULT_KNOBS
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to time with {} set: it changes results or code paths outside the cell hash",
            set.join(", ")
        ))
    }
}

/// CPUs the engine's auto worker count uses (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the commit, a fingerprint of the program's sources,
/// `nproc` and the engine worker count.
pub fn describe(root: &Path) -> String {
    format!(
        "env: commit {} sources sha256:{} nproc {} engine workers {}",
        commit(root),
        source_fingerprint(root),
        nproc(),
        nproc(),
    )
}

/// `git rev-parse HEAD`, or `unknown` when `root` is not itself a git
/// checkout (git is not asked to search parent directories).
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// SHA-256 over the paths and bytes of the program's manifests and every
/// file under `crates/` and `shims/` (sorted walk): it identifies the
/// measured code where no git metadata is available.
fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hasher = Sha256::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        hasher.update(rel.to_string_lossy().as_bytes());
        hasher.update(&[0]);
        if let Ok(bytes) = std::fs::read(&path) {
            hasher.update(&bytes);
        }
    }
    to_hex(&hasher.finalize())[..16].to_string()
}

fn collect(path: &Path, files: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        files.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            if entry.file_name() != "target" {
                collect(&entry.path(), files);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert_eq!(source_fingerprint(&root), source_fingerprint(&root));
        assert_eq!(source_fingerprint(&root).len(), 16);
    }
}
