//! Provenance stamp: which host, toolchain, code and thread counts
//! produced a result. Results with different stamps are not comparable.

use std::path::Path;

use crate::workload::{BATCH_THREADS, SERVE_WORKERS};

/// The stamp as one JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_rev", json_str(&git_rev(Path::new(".git")))),
        (
            "source_digest",
            json_str(&format!("{:016x}", source_digest())),
        ),
        ("batch_threads", BATCH_THREADS.to_string()),
        (
            "serve_threads",
            json_str(&format!("{SERVE_WORKERS}+router")),
        ),
        ("loadavg_1m", json_str(&loadavg_1m())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg_1m() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(String::from))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from the git metadata without running
/// git; `none` outside a git checkout.
fn git_rev(git: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and contents of every source file the benchmark
/// builds from, in sorted path order. Identifies the code even where the
/// checkout carries no git metadata.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    for f in [
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/goldens.txt",
    ] {
        files.push(Path::new(f).to_path_buf());
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
