//! Server processes: spawn `butterfly serve`, wait until each answers
//! `ping`, read their CPU and peak memory from `/proc`, and stop them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of 1/100 s on
/// every architecture this benchmark builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;
const READY_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// One running `butterfly serve` process.
pub struct ServerProc {
    pub name: String,
    pub addr: SocketAddr,
    port_file: PathBuf,
    child: Child,
}

impl ServerProc {
    /// Spawn `butterfly serve <args>` on an ephemeral port; its stderr goes
    /// to `<work>/<name>.log`. [`ServerProc::await_ready`] waits for it.
    pub fn spawn(
        bin: &Path,
        work: &Path,
        name: &str,
        args: &[String],
    ) -> Result<ServerProc, String> {
        let port_file = work.join(format!("{name}.port"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join(format!("{name}.log")))
            .map_err(|e| format!("create {name}.log: {e}"))?;
        // A generator running under a real-time policy (see run.sh) starts
        // the servers under the normal one, as a user would run them.
        let mut cmd = if realtime() {
            let mut c = Command::new("chrt");
            c.args(["--other", "0"]).arg(bin);
            c
        } else {
            Command::new(bin)
        };
        let child = cmd
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(ServerProc {
            name: name.to_string(),
            addr: "127.0.0.1:0".parse().expect("literal address"),
            port_file,
            child,
        })
    }

    /// Block until the process has written its port file and answers
    /// `ping`.
    pub fn await_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "{} exited before answering ping ({status})",
                    self.name
                ));
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(format!("{} did not answer ping in time", self.name));
            }
            if let Some(addr) = std::fs::read_to_string(&self.port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                if ping(addr).is_ok() {
                    self.addr = addr;
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the process has used so far, threads
    /// that already exited included.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Wait for a process that was asked to shut down; kill it if it does
    /// not exit in time. Returns whether it exited on its own.
    pub fn wait_exit(&mut self) -> bool {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            if Instant::now() > deadline {
                self.kill();
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Kill and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// A deployment: every server process plus the address clients use.
pub struct Cluster {
    /// Nodes first, then the router if there is one.
    pub procs: Vec<ServerProc>,
}

impl Cluster {
    /// The address the generator talks to: the router, or the only node.
    pub fn entry(&self) -> SocketAddr {
        self.procs.last().expect("cluster has a process").addr
    }

    pub fn cpu_s(&self) -> Vec<f64> {
        self.procs.iter().map(ServerProc::cpu_s).collect()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(ServerProc::peak_rss_mb).sum()
    }

    /// Reap every process after the entry process was asked to shut down
    /// (a router forwards the shutdown to its nodes). Returns whether all
    /// exited on their own.
    pub fn reap(mut self) -> bool {
        let mut clean = true;
        for p in self.procs.iter_mut().rev() {
            clean &= p.wait_exit();
        }
        clean
    }

    /// Ask the entry process to shut down on a short-lived connection, then
    /// reap (for deployments no generator connection is open to).
    pub fn shutdown(self) -> bool {
        let asked = request_line(self.entry(), "{\"op\":\"shutdown\"}").is_ok();
        self.reap() && asked
    }
}

/// Whether this process runs under a real-time scheduling policy (field 41
/// of `/proc/self/stat`; 0 is the normal policy).
pub fn realtime() -> bool {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            rest.split_whitespace().nth(38)?.parse::<u32>().ok()
        })
        .is_some_and(|policy| policy != 0)
}

/// Move every thread of this process back to the normal scheduling policy,
/// so that the CPU-bound checks after the timed phases do not run ahead of
/// the rest of the machine. A no-op when already there.
pub fn leave_realtime() {
    if !realtime() {
        return;
    }
    let pid = std::process::id().to_string();
    let status = Command::new("chrt")
        .args(["--all-tasks", "--other", "--pid", "0", &pid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    if !status.is_ok_and(|s| s.success()) || realtime() {
        eprintln!("perfbench: warning: could not leave the real-time policy");
    }
}

/// Send `ping` on a fresh connection and wait for the pong.
fn ping(addr: SocketAddr) -> Result<(), String> {
    let reply = request_line(addr, "{\"op\":\"ping\"}")?;
    if reply.contains("\"pong\":true") {
        Ok(())
    } else {
        Err(format!("unexpected ping reply {reply:?}"))
    }
}

/// One request line on a short-lived connection; returns the reply line.
fn request_line(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

/// Copy a directory tree (the prepared WAL) file by file. Each copy is
/// synced, so that the copy is at rest on disk like a log a stopped node
/// left behind, and recovery does not pay for flushing it.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
            std::fs::File::open(&dest)?.sync_all()?;
        }
    }
    Ok(())
}
