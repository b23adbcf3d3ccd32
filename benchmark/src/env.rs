//! Where the benchmark runs: builds the binaries under test from source,
//! locates them, owns a work directory inside the target directory, and
//! records the run metadata every result carries.

use psens_microdata::JsonValue;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The built binaries, a private work directory, and run metadata.
pub struct Env {
    pub psens: PathBuf,
    pub server: PathBuf,
    pub work: PathBuf,
    pub meta: JsonValue,
}

impl Env {
    /// Builds the repository (`cargo build --release --locked` at its root,
    /// a no-op when up to date) and creates `<target>/bench-work/<label>-<pid>`.
    pub fn prepare(label: &str, seed: u64, seconds: u64, quick: bool) -> Result<Env, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives one level below the repository root")
            .to_owned();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        // Cargo's own progress goes to stderr; its stdout is redirected there
        // too, so the result line stays the last line of stdout.
        let status = Command::new(cargo)
            .args(["build", "--release", "--locked", "--offline"])
            .current_dir(&root)
            .stdin(Stdio::null())
            .stdout(std::io::stderr())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!(
                "`cargo build --release --locked` failed ({status})"
            ));
        }
        // A relative CARGO_TARGET_DIR is relative to where cargo ran: the root.
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let release = target.join("release");
        let psens = release.join("psens");
        let server = release.join("psens-server");
        for bin in [&psens, &server] {
            if !bin.is_file() {
                return Err(format!("{} was not built", bin.display()));
            }
        }
        let work = target
            .join("bench-work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;

        let mut meta = JsonValue::object();
        meta.set("seed", JsonValue::Int(seed as i64));
        meta.set("seconds", JsonValue::Int(seconds as i64));
        meta.set("quick", JsonValue::Bool(quick));
        meta.set(
            "host_parallelism",
            JsonValue::Int(host_parallelism() as i64),
        );
        meta.set("git_commit", JsonValue::Str(git_commit(&root)));
        meta.set(
            "rustc",
            JsonValue::Str(command_line("rustc", &["-V"], &root)),
        );
        let mut binaries = JsonValue::object();
        binaries.set("psens", JsonValue::Str(psens.display().to_string()));
        binaries.set("psens-server", JsonValue::Str(server.display().to_string()));
        meta.set("binaries", binaries);
        Ok(Env {
            psens,
            server,
            work,
            meta,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `HEAD` of the repository, or `unknown` outside a git checkout.
fn git_commit(root: &Path) -> String {
    match command_line("git", &["rev-parse", "HEAD"], root) {
        line if line.len() == 40 => line,
        _ => "unknown".to_owned(),
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
