//! The host stamp every result carries, and the process's peak memory.

use std::path::Path;

/// `{hardware_threads, os, arch, profile, seed, git_head}` as a JSON
/// object. `git_head` is read from `.git` under the working directory
/// and is `null` outside a git checkout.
pub fn stamp_json(seed: u64, seconds: u64, trace: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let head = git_head(Path::new(".git")).map_or("null".to_string(), |h| format!("\"{h}\""));
    format!(
        "{{\"hardware_threads\": {threads}, \"os\": \"{}\", \"arch\": \"{}\", \"profile\": \"{profile}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"git_head\": {head}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// The commit `HEAD` names, resolving one level of `ref:` through the
/// loose ref file or `packed-refs`.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == refname).then(|| hash.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
