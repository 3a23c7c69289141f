//! Records the toolchain and source revision for the environment block.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "rustc unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Only the repository's own `.git` counts; a checkout without one
    // reports `unknown` rather than some enclosing repository's revision.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git_dir = Path::new(&manifest).join("..").join(".git");
    let rev = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        output(Command::new("git").arg("--git-dir").arg(&git_dir).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]))
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
