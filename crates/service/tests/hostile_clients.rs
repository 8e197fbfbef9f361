//! The daemon against frames no honest client sends: each must get a
//! typed `failed` reply, and the daemon must keep serving that
//! connection and everyone else.

use abr_service::wire::{read_frame, write_frame};
use abr_service::{Client, Daemon, DaemonConfig, Request, Response, SolveSpec};
use std::net::TcpStream;
use std::time::Duration;

fn daemon() -> Daemon {
    Daemon::start(DaemonConfig { workers: 2, ..DaemonConfig::default() }).unwrap()
}

/// Sends one raw payload on a fresh connection and parses the reply.
fn send_raw(d: &Daemon, payload: &str) -> Response {
    let mut s = TcpStream::connect(d.addr()).unwrap();
    write_frame(&mut s, payload).unwrap();
    let reply = read_frame(&mut s).unwrap().expect("daemon must answer");
    Response::parse(&reply).unwrap()
}

fn failed_error(r: Response) -> String {
    match r {
        Response::Failed { error, .. } => error,
        other => panic!("expected a typed failed, got {other:?}"),
    }
}

/// A 100 KB frame of `[` once overflowed the connection thread's stack
/// and aborted the daemon (exit 134); now it is one request's error.
#[test]
fn a_deeply_nested_frame_fails_and_the_daemon_keeps_serving() {
    let d = daemon();
    let nested_unknown = format!(
        r#"{{"type":"solve","note":{}1{}}}"#,
        r#"{"a":"#.repeat(10_000),
        "}".repeat(10_000)
    );
    for payload in ["[".repeat(100 << 10), nested_unknown] {
        let error = failed_error(send_raw(&d, &payload));
        assert!(error.starts_with("bad request: "), "{error}");
        assert_eq!(Client::new(d.addr()).ping().unwrap(), Response::Pong);
    }
    let report = d.shutdown(Duration::from_secs(5));
    assert_eq!(report.counters.admitted, 0);
}

/// A connection serves frame after frame: a bad frame is answered and
/// the same stream keeps working.
#[test]
fn one_connection_answers_frame_after_frame() {
    let d = daemon();
    let mut s = TcpStream::connect(d.addr()).unwrap();
    let mut exchange = |payload: &str| {
        write_frame(&mut s, payload).unwrap();
        Response::parse(&read_frame(&mut s).unwrap().expect("daemon must answer")).unwrap()
    };
    assert_eq!(exchange(r#"{"type":"ping"}"#), Response::Pong);
    let error = failed_error(exchange(&"[".repeat(100 << 10)));
    assert!(error.starts_with("bad request: "), "{error}");
    assert_eq!(exchange(r#"{"type":"ping"}"#), Response::Pong);
    let done = exchange(&Request::Solve(SolveSpec::lap2d(9, 4)).render());
    assert!(matches!(done, Response::Done { id: 9, converged: true, .. }), "{done:?}");
    assert_eq!(exchange(r#"{"type":"ping"}"#), Response::Pong);
    drop(s);
    d.shutdown(Duration::from_secs(5));
}

#[test]
fn wrong_array_lengths_get_typed_failures() {
    let d = daemon();
    let solve = |matrix: &str, rhs: &str| {
        format!(concat!(
            r#"{{"type":"solve","id":5,"matrix":{matrix},"#,
            r#""tol":1e-8,"max_iters":100,"block":2{rhs}}}"#
        ), matrix = matrix, rhs = rhs)
    };
    let identity2 = r#"{"n_rows":2,"n_cols":2,"row_ptr":[0,1,2],"col_idx":[0,1],"values":[1,1]}"#;
    for (payload, expect) in [
        (
            solve(r#"{"n_rows":2,"n_cols":2,"row_ptr":[0,1],"col_idx":[0,1],"values":[1,1]}"#, ""),
            "bad matrix",
        ),
        (
            solve(r#"{"n_rows":2,"n_cols":2,"row_ptr":[0,1,2],"col_idx":[0,1],"values":[1]}"#, ""),
            "bad matrix",
        ),
        (solve(identity2, r#","rhs":[1,2,3]"#), "rhs length 3 does not match 2 rows"),
        (
            solve(r#"{"gen":"lap2d","g":9223372036854775809}"#, ""),
            "lap2d grid side overflows its row count",
        ),
    ] {
        let r = send_raw(&d, &payload);
        assert!(matches!(r, Response::Failed { id: 5, .. }), "{r:?}");
        let error = failed_error(r);
        assert!(error.contains(expect), "{error}");
    }
    // The daemon still solves a well-formed system afterwards.
    let ok = send_raw(&d, &solve(identity2, r#","rhs":[3,4]"#));
    assert!(matches!(ok, Response::Done { id: 5, converged: true, ref x, .. } if x == &[3.0, 4.0]));
    d.shutdown(Duration::from_secs(5));
}

/// Ids above 2^53 used to be rejected as "solve needs `id`"; they now
/// echo back exactly.
#[test]
fn a_full_width_id_is_echoed_exactly() {
    let d = daemon();
    let resp = Client::new(d.addr()).solve_once(&SolveSpec::lap2d(u64::MAX, 4)).unwrap();
    assert!(matches!(resp, Response::Done { id: u64::MAX, converged: true, .. }), "{resp:?}");
    let error = failed_error(send_raw(&d, &format!(r#"{{"type":"{}"}}"#, "x".repeat(10_000))));
    assert!(error.len() < 160, "echo not bounded: {} bytes", error.len());
    d.shutdown(Duration::from_secs(5));
}
