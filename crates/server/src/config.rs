//! Server configuration, wired through the workspace's `WCOJ_*`
//! environment pattern: malformed values warn **once** per key on stderr,
//! fall back to the default, and are recorded in
//! [`wcoj_exec::malformed_env_warnings`] so a typo never silently
//! reverts a deployment to defaults with no signal.

use std::net::SocketAddr;
use std::time::Duration;
use wcoj_service::ServiceConfig;

/// Default bind address when `WCOJ_BIND` is unset or malformed.
pub const DEFAULT_BIND: &str = "127.0.0.1:7171";

/// How the HTTP front end listens and how much it will read.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`WCOJ_BIND`, default `127.0.0.1:7171`).
    pub bind: SocketAddr,
    /// Connection threads sharing the accept loop (`WCOJ_CONN_THREADS`,
    /// default 4, clamped to ≥ 1). Each serves one connection at a time;
    /// this bounds concurrent *connections*, while the service's own
    /// queue depth bounds concurrent *queries*.
    pub conn_threads: usize,
    /// Per-connection read timeout (`WCOJ_READ_TIMEOUT_MS`, default
    /// 10 000 ms; `0` disables). A client that connects and then stalls
    /// mid-request is answered `408` and dropped instead of pinning a
    /// connection thread forever. It bounds a stalled write too: a
    /// client that stops reading a response for this long is dropped,
    /// and a query it was streaming fails with `499`.
    pub read_timeout: Option<Duration>,
    /// Cap on the request line + headers (fixed 8 KiB): past it the
    /// request is refused with `431`.
    pub max_header_bytes: usize,
    /// Cap on a request body (fixed 1 MiB): a larger `Content-Length`
    /// is refused with `413` before reading the body.
    pub max_body_bytes: usize,
    /// Requests served per connection before the server closes it
    /// (`WCOJ_KEEP_ALIVE_MAX`, default 32). `0` or `1` disables
    /// keep-alive: every response says `Connection: close`. The cap
    /// bounds how long one client can monopolise a connection thread.
    pub keep_alive_max: usize,
    /// Idle timeout between keep-alive requests (`WCOJ_IDLE_TIMEOUT_MS`,
    /// default 5 000 ms; `0` falls back to `read_timeout`). A kept-alive
    /// connection that goes quiet is closed silently — unlike a stall
    /// *mid*-request, which still earns a `408`.
    pub idle_timeout: Option<Duration>,
    /// Configuration for the backing query service (admission bound via
    /// `WCOJ_QUEUE_DEPTH` — see [`ServiceConfig::from_env`]). Used by
    /// `Server::start`; ignored when the caller brings its own catalog +
    /// service through `Server::start_with`.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: DEFAULT_BIND.parse().expect("default bind parses"),
            conn_threads: 4,
            read_timeout: Some(Duration::from_millis(10_000)),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            keep_alive_max: 32,
            idle_timeout: Some(Duration::from_millis(5_000)),
            service: ServiceConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden from the environment: `WCOJ_BIND`,
    /// `WCOJ_CONN_THREADS`, `WCOJ_READ_TIMEOUT_MS`,
    /// `WCOJ_KEEP_ALIVE_MAX`, `WCOJ_IDLE_TIMEOUT_MS`, plus everything
    /// [`ServiceConfig::from_env`] reads. Malformed values warn once and
    /// fall back (see the module docs).
    #[must_use]
    pub fn from_env() -> ServerConfig {
        let mut cfg = ServerConfig {
            service: ServiceConfig::from_env(),
            ..ServerConfig::default()
        };
        if let Ok(raw) = std::env::var("WCOJ_BIND") {
            match raw.trim().parse::<SocketAddr>() {
                Ok(addr) => cfg.bind = addr,
                Err(_) => wcoj_exec::note_malformed_env(
                    "WCOJ_BIND",
                    &format!("value {raw:?} is not a socket address (host:port)"),
                ),
            }
        }
        if let Some(n) = wcoj_exec::read_env_usize("WCOJ_CONN_THREADS") {
            cfg.conn_threads = n.max(1);
        }
        if let Some(ms) = wcoj_exec::read_env_usize("WCOJ_READ_TIMEOUT_MS") {
            cfg.read_timeout = if ms == 0 {
                None
            } else {
                Some(Duration::from_millis(ms as u64))
            };
        }
        if let Some(n) = wcoj_exec::read_env_usize("WCOJ_KEEP_ALIVE_MAX") {
            cfg.keep_alive_max = n;
        }
        if let Some(ms) = wcoj_exec::read_env_usize("WCOJ_IDLE_TIMEOUT_MS") {
            cfg.idle_timeout = if ms == 0 {
                None
            } else {
                Some(Duration::from_millis(ms as u64))
            };
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test for every env knob: `std::env::set_var` is
    // process-global, so probing the knobs from parallel tests would
    // race (edition 2021: set_var itself is safe).
    #[test]
    fn env_overrides_and_warn_once_fallbacks() {
        // Well-formed overrides apply.
        std::env::set_var("WCOJ_BIND", "127.0.0.1:0");
        std::env::set_var("WCOJ_CONN_THREADS", "2");
        std::env::set_var("WCOJ_READ_TIMEOUT_MS", "250");
        std::env::set_var("WCOJ_KEEP_ALIVE_MAX", "8");
        std::env::set_var("WCOJ_IDLE_TIMEOUT_MS", "750");
        let cfg = ServerConfig::from_env();
        assert_eq!(cfg.bind, "127.0.0.1:0".parse().unwrap());
        assert_eq!(cfg.conn_threads, 2);
        assert_eq!(cfg.read_timeout, Some(Duration::from_millis(250)));
        assert_eq!(cfg.keep_alive_max, 8);
        assert_eq!(cfg.idle_timeout, Some(Duration::from_millis(750)));

        // `0` disables the read/idle timeouts; thread counts clamp to
        // ≥ 1; a zero keep-alive budget turns keep-alive off.
        std::env::set_var("WCOJ_READ_TIMEOUT_MS", "0");
        std::env::set_var("WCOJ_CONN_THREADS", "0");
        std::env::set_var("WCOJ_KEEP_ALIVE_MAX", "0");
        std::env::set_var("WCOJ_IDLE_TIMEOUT_MS", "0");
        let cfg = ServerConfig::from_env();
        assert_eq!(cfg.read_timeout, None);
        assert_eq!(cfg.conn_threads, 1);
        assert_eq!(cfg.keep_alive_max, 0);
        assert_eq!(cfg.idle_timeout, None);

        // Malformed values fall back to the defaults *and* land in the
        // warn-once registry.
        std::env::set_var("WCOJ_BIND", "not-an-address");
        std::env::set_var("WCOJ_CONN_THREADS", "many");
        let cfg = ServerConfig::from_env();
        assert_eq!(cfg.bind, DEFAULT_BIND.parse().unwrap());
        assert_eq!(cfg.conn_threads, 4);
        let warned = wcoj_exec::malformed_env_warnings();
        assert!(warned.iter().any(|k| k == "WCOJ_BIND"), "{warned:?}");
        assert!(
            warned.iter().any(|k| k == "WCOJ_CONN_THREADS"),
            "{warned:?}"
        );
        // Warn-once: a second malformed read adds no duplicate entry.
        let _ = ServerConfig::from_env();
        let again = wcoj_exec::malformed_env_warnings();
        assert_eq!(
            again.iter().filter(|k| *k == "WCOJ_BIND").count(),
            1,
            "{again:?}"
        );

        std::env::remove_var("WCOJ_BIND");
        std::env::remove_var("WCOJ_CONN_THREADS");
        std::env::remove_var("WCOJ_READ_TIMEOUT_MS");
        std::env::remove_var("WCOJ_KEEP_ALIVE_MAX");
        std::env::remove_var("WCOJ_IDLE_TIMEOUT_MS");
    }
}
