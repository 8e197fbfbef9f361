//! The client library: one connection per call, typed responses, and a
//! retry loop with exponential backoff + jitter that honors the daemon's
//! `retry_after_ms` hint.
//!
//! Shedding only helps if clients back off instead of hammering; the
//! retry policy here is the other half of the daemon's admission
//! control. The delay before attempt `k` is
//! `max(retry_after_ms, base * 2^k)` capped at `max_backoff_ms`, plus up
//! to 50% seeded jitter so a herd of rejected clients does not
//! resynchronise into the next overload spike.

use crate::wire::{read_frame, write_frame, Request, Response, SolveSpec};
use std::io::{self};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Retry/backoff tuning.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single shot).
    pub max_retries: u32,
    /// First backoff step, milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter RNG seed (deterministic per client for reproducible tests).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 4, base_backoff_ms: 10, max_backoff_ms: 1_000, jitter_seed: 7 }
    }
}

/// A solve-service client.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    jitter_state: u64,
}

impl Client {
    /// A client for the daemon at `addr` with the default retry policy.
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_policy(addr, RetryPolicy::default())
    }

    /// A client with explicit retry tuning.
    pub fn with_policy(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let jitter_state = policy.jitter_seed | 1;
        Client { addr, policy, jitter_state }
    }

    fn roundtrip(&self, payload: &str) -> io::Result<Response> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, payload)?;
        let payload = read_frame(&mut stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))?;
        Response::parse(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One solve attempt, no retries.
    pub fn solve_once(&self, spec: &SolveSpec) -> io::Result<Response> {
        self.roundtrip(&spec.render())
    }

    /// A solve with the retry loop: `Overloaded` responses are retried
    /// after `max(retry_after_ms, exponential backoff) + jitter`, up to
    /// `max_retries` times. Any other response returns immediately; the
    /// final `Overloaded` is returned if the budget runs out.
    pub fn solve(&mut self, spec: &SolveSpec) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let resp = self.solve_once(spec)?;
            let retry_after_ms = match resp {
                Response::Overloaded { retry_after_ms, .. } => retry_after_ms,
                other => return Ok(other),
            };
            if attempt >= self.policy.max_retries {
                return Ok(resp);
            }
            std::thread::sleep(self.backoff(attempt, retry_after_ms));
            attempt += 1;
        }
    }

    /// The delay before retry `attempt` (0-based), honoring the hint.
    fn backoff(&mut self, attempt: u32, retry_after_ms: u64) -> Duration {
        let expo = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.policy.max_backoff_ms);
        let floor = expo.max(retry_after_ms).min(self.policy.max_backoff_ms);
        // xorshift64 jitter in [0, floor/2]: desynchronises a herd of
        // shed clients without inflating the worst case beyond 1.5x.
        self.jitter_state ^= self.jitter_state << 13;
        self.jitter_state ^= self.jitter_state >> 7;
        self.jitter_state ^= self.jitter_state << 17;
        let jitter = if floor == 0 { 0 } else { self.jitter_state % (floor / 2 + 1) };
        Duration::from_millis(floor + jitter)
    }

    /// Cancels the in-flight solve submitted under `id`.
    pub fn cancel(&self, id: u64) -> io::Result<Response> {
        self.roundtrip(&Request::Cancel { id }.render())
    }

    /// Liveness probe.
    pub fn ping(&self) -> io::Result<Response> {
        self.roundtrip(&Request::Ping.render())
    }

    /// Asks the daemon to begin its graceful drain.
    pub fn shutdown_daemon(&self) -> io::Result<Response> {
        self.roundtrip(&Request::Shutdown.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Client {
        Client::with_policy(
            "127.0.0.1:1".parse().unwrap(),
            RetryPolicy { max_retries: 6, base_backoff_ms: 10, max_backoff_ms: 400, jitter_seed: 3 },
        )
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut c = client();
        let d0 = c.backoff(0, 0).as_millis() as u64;
        let d3 = c.backoff(3, 0).as_millis() as u64;
        let d9 = c.backoff(9, 0).as_millis() as u64;
        assert!((10..=15).contains(&d0), "base 10ms + <=50% jitter, got {d0}");
        assert!((80..=120).contains(&d3), "10*2^3 + jitter, got {d3}");
        assert!(d9 <= 600, "capped at 400ms + 50% jitter, got {d9}");
    }

    #[test]
    fn retry_after_hint_floors_the_backoff() {
        let mut c = client();
        let d = c.backoff(0, 200).as_millis() as u64;
        assert!(d >= 200, "hint must floor the delay, got {d}");
        assert!(d <= 300, "jitter bounded by 50% of the floor, got {d}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_but_varies_across_attempts() {
        let a: Vec<u64> = {
            let mut c = client();
            (0..4).map(|i| c.backoff(i, 100).as_millis() as u64).collect()
        };
        let b: Vec<u64> = {
            let mut c = client();
            (0..4).map(|i| c.backoff(i, 100).as_millis() as u64).collect()
        };
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).any(|w| w[0] != w[1]), "jitter must actually vary: {a:?}");
    }
}
