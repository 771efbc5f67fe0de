//! `serverd` child processes and the deployments built from them.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// How long a booting serverd may take to print its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `serverd`; killed and reaped on drop.
#[derive(Debug)]
pub struct Serverd {
    child: Child,
    /// Keeps the stdout pipe open for the process's lifetime.
    _stdout: mpsc::Receiver<String>,
    /// The HTTP address from the readiness line.
    pub addr: SocketAddr,
    /// The replication listener, when started with `--repl-listen`.
    pub repl_addr: Option<String>,
    /// The flags it was started with.
    pub args: Vec<String>,
}

impl Serverd {
    /// Spawns `bin` with `args` (serving core left to its default: the
    /// `CQP_SERVER_BACKEND` override is removed from the environment) and
    /// waits for the `listening on ADDR` readiness line.
    pub fn spawn(bin: &Path, args: Vec<String>) -> Result<Serverd, String> {
        let mut child = Command::new(bin)
            .args(&args)
            .env_remove("CQP_SERVER_BACKEND")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout: ChildStdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut repl_addr = None;
        let addr = loop {
            match rx.recv_timeout(READY_TIMEOUT) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("replication on ") {
                        repl_addr = Some(rest.trim().to_string());
                    } else if let Some(rest) = line.strip_prefix("listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        break addr
                            .parse()
                            .map_err(|e| format!("bad address {addr:?}: {e}"));
                    }
                }
                Err(_) => break Err("serverd exited or timed out before readiness".to_string()),
            }
        };
        match addr {
            Ok(addr) => Ok(Serverd {
                child,
                _stdout: rx,
                addr,
                repl_addr,
                args,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set size (`VmHWM`), megabytes.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Serverd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server processes one workload runs against.
#[derive(Debug)]
pub struct Deployment {
    /// The process that takes every request.
    pub primary: Serverd,
    /// `write_mix`: the synchronous follower of `primary`.
    pub follower: Option<Serverd>,
}

impl Deployment {
    /// A single in-memory serverd.
    pub fn single(bin: &Path) -> Result<Deployment, String> {
        Ok(Deployment {
            primary: Serverd::spawn(bin, addr_flags())?,
            follower: None,
        })
    }

    /// A WAL-backed primary shipping to one follower, each journaling to
    /// its own fresh directory under `dir`.
    pub fn replicated(bin: &Path, dir: &Path) -> Result<Deployment, String> {
        let (pdir, fdir) = (dir.join("primary"), dir.join("follower"));
        for d in [&pdir, &fdir] {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        let mut args = addr_flags();
        args.extend(wal_flag(&pdir));
        args.extend(["--repl-listen".to_string(), "127.0.0.1:0".to_string()]);
        let primary = Serverd::spawn(bin, args)?;
        let repl = primary
            .repl_addr
            .clone()
            .ok_or("primary printed no replication address")?;
        let mut args = addr_flags();
        args.extend(wal_flag(&fdir));
        args.extend(["--follow".to_string(), repl]);
        let follower = Serverd::spawn(bin, args)?;
        Ok(Deployment {
            primary,
            follower: Some(follower),
        })
    }

    /// Every process's flags, primary first.
    pub fn flags(&self) -> Vec<Vec<String>> {
        std::iter::once(&self.primary)
            .chain(&self.follower)
            .map(|s| s.args.clone())
            .collect()
    }
}

fn addr_flags() -> Vec<String> {
    vec!["--addr".to_string(), "127.0.0.1:0".to_string()]
}

fn wal_flag(dir: &Path) -> [String; 2] {
    [
        "--wal-dir".to_string(),
        PathBuf::from(dir).display().to_string(),
    ]
}
