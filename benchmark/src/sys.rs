//! Processes under test: a `psens-server` child with its readiness wait,
//! peak-RSS probe and the two ways of stopping it, and one-shot `psens`
//! runs reaped with `wait4` for their resource usage. Linux only (`/proc`,
//! `struct rusage`).

use psens_microdata::JsonValue;
use psens_server::client::Client;
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to publish its address (recovery included).
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// `prctl(2)` option: signal delivered to this process when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
/// Linux `SIGKILL`.
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// A running `psens-server`. Dropping it kills and reaps the process, so an
/// early return never leaves a server behind.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
    log: PathBuf,
}

impl ServerProc {
    /// Spawns `bin` on an ephemeral loopback port and waits until it has
    /// written its address file — with `state_dir`, that is after journal
    /// recovery, which `psens-server` runs before it binds the address
    /// file. Output goes to `<work>/<tag>.log`.
    pub fn spawn(
        bin: &Path,
        work: &Path,
        tag: &str,
        state_dir: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let addr_file = work.join(format!("{tag}.addr"));
        let log = work.join(format!("{tag}.log"));
        let _ = std::fs::remove_file(&addr_file);
        let out = File::create(&log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let mut command = Command::new(bin);
        command
            .args(["--listen", "127.0.0.1:0", "--max-concurrent", "2"])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err);
        if let Some(dir) = state_dir {
            command.arg("--state-dir").arg(dir);
        }
        // If this process dies without running `Drop` (a signal, a killed
        // run), the kernel kills the server too instead of orphaning it.
        // SAFETY: the hook runs in the forked child before `exec` and only
        // makes the `prctl` system call, which is async-signal-safe; it
        // allocates nothing and touches no state shared with the parent.
        unsafe {
            command.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGKILL) {
                0 => Ok(()),
                _ => Err(io::Error::last_os_error()),
            });
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log,
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            // The file is written in one call but not atomically: wait for
            // the trailing newline before trusting it.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    server.addr = text
                        .trim()
                        .parse()
                        .map_err(|e| format!("address file `{}`: {e}", text.trim()))?;
                    return Ok(server);
                }
            }
            let child = server.child.as_mut().expect("child present until stopped");
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "{tag}: server exited early ({status}); {}",
                    server.log_tail()
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!("{tag}: server not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_io_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("io timeout: {e}"))?;
        Ok(client)
    }

    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("child present").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to shut down and waits for it to exit 0. The exit
    /// status is the confirmation: the daemon can exit before its reply to
    /// `shutdown` reaches the socket.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = self.connect()?;
        let _ = client.call("shutdown", JsonValue::object());
        drop(client);
        let mut child = self.child.take().expect("child present");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return match status.success() {
                    true => Ok(()),
                    false => Err(format!("server exited with {status}; {}", self.log_tail())),
                };
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not exit after `shutdown`".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `kill -9`: the crash the state journal exists to survive.
    pub fn kill9(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child present");
        let killed = child.kill();
        let reaped = child.wait();
        killed.map_err(|e| format!("kill: {e}"))?;
        reaped.map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        format!(
            "log: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        )
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Linux `struct timeval`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s of which
/// `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// How a one-shot process ended.
pub struct Exit {
    /// Exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size, MiB.
    pub max_rss_mb: f64,
}

/// Reaps `child` with `wait4`, which (unlike `Child::wait`) also reports
/// the child's own peak RSS.
pub fn wait_rusage(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals for the
        // whole call, and `usage` is `repr(C)` with the layout of Linux's
        // `struct rusage`, so the kernel writes exactly within it. `pid` is
        // a child this process spawned and has not reaped (`Child::wait` is
        // never called on it), so the call waits for that process alone.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Runs `bin args...` to completion with its output discarded.
pub fn run_once(bin: &Path, args: &[&str]) -> Result<Exit, String> {
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    wait_rusage(child).map_err(|e| format!("wait4: {e}"))
}
