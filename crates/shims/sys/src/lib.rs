//! # cqp-sys
//!
//! A zero-dependency Linux syscall shim, in the spirit of the other
//! vendored crates under `crates/shims/`: the build environment has no
//! registry access, so the one raw syscall the daemons need — `signal`,
//! to turn SIGTERM/SIGINT into a drain request — is declared directly
//! against the always-linked system libc and wrapped behind a safe API
//! here. No `unsafe` escapes the module.

#![cfg(target_os = "linux")]

use std::ffi::c_int;
use std::io;

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;
/// `SIG_ERR` — `signal(2)`'s failure sentinel (`(sighandler_t) -1`).
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
}

/// The flag [`install_termination_flag`] arms. A static is the only
/// state an async-signal-safe handler may touch; an atomic store is one
/// of the few operations allowed inside one.
static TERMINATION_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_termination_signal(_signum: c_int) {
    TERMINATION_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that set a process-wide flag
/// instead of killing the process, so daemons can drain and exit
/// cleanly. Poll the flag with [`termination_requested`]. Idempotent.
pub fn install_termination_flag() -> io::Result<()> {
    for sig in [SIGTERM, SIGINT] {
        let handler = on_termination_signal as extern "C" fn(c_int) as usize;
        if unsafe { signal(sig, handler) } == SIG_ERR {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Whether SIGTERM or SIGINT has been received since
/// [`install_termination_flag`].
pub fn termination_requested() -> bool {
    TERMINATION_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn termination_flag_arms_on_sigterm() {
        install_termination_flag().unwrap();
        assert!(!termination_requested(), "flag must start clear");
        // Deliver a real SIGTERM to ourselves; the handler turns it
        // into a flag instead of killing the test harness.
        let status = std::process::Command::new("kill")
            .args(["-TERM", &std::process::id().to_string()])
            .status()
            .expect("spawn kill");
        assert!(status.success());
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !termination_requested() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(termination_requested(), "SIGTERM should set the flag");
    }
}
