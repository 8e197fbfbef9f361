//! The wire codec against its contract: frames byte-identical to the
//! historical renderer (golden strings), render→parse the identity on
//! the bits (proptests), exact `u64` fields, and a table of hostile
//! payloads that must each be an `Err`, never a panic, an abort or a
//! stall.

use abr_service::wire::{read_frame, MAX_FRAME};
use abr_service::{MatrixSpec, Mode, Request, Response, SolveSpec};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A solve with an explicit CSR matrix, an rhs and a deadline.
fn csr_spec() -> SolveSpec {
    SolveSpec {
        id: 7,
        matrix: MatrixSpec::Csr {
            n_rows: 3,
            n_cols: 3,
            row_ptr: vec![0, 2, 3, 5],
            col_idx: vec![0, 1, 1, 0, 2],
            values: vec![4.0, -1.5, 0.1 + 0.2, -0.0, 1e-7],
        },
        rhs: Some(vec![1.0, 2.5e10, -3.25, 1e21]),
        tol: 1e-9,
        max_iters: 20_000,
        local_iters: 5,
        block: 8,
        mode: Mode::Pooled,
        workers: 2,
        deadline_ms: Some(250),
        seed: 42,
        cache: false,
    }
}

const CSR_FRAME: &str = r#"{"type":"solve","id":7,"matrix":{"n_rows":3,"n_cols":3,"row_ptr":[0,2,3,5],"col_idx":[0,1,1,0,2],"values":[4,-1.5,0.30000000000000004,-0,0.0000001]},"tol":0.000000001,"max_iters":20000,"local_iters":5,"block":8,"mode":"pooled","workers":2,"seed":42,"cache":false,"rhs":[1,25000000000,-3.25,1000000000000000000000],"deadline_ms":250}"#;

fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Solve(csr_spec()), CSR_FRAME),
        (
            Request::Solve(SolveSpec::lap2d(1, 16)),
            r#"{"type":"solve","id":1,"matrix":{"gen":"lap2d","g":16},"tol":0.000000001,"max_iters":20000,"local_iters":5,"block":8,"mode":"sim","workers":2,"seed":42,"cache":true}"#,
        ),
        (Request::Cancel { id: 9 }, r#"{"type":"cancel","id":9}"#),
        (Request::Ping, r#"{"type":"ping"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
    ]
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Done {
                id: 3,
                x: vec![1.0, 0.1 + 0.2, -0.0, 123456.789],
                iterations: 120,
                converged: true,
                final_residual: 3.2e-10,
                cached: true,
                coalesced: false,
                chaos: false,
            },
            r#"{"type":"done","id":3,"iterations":120,"converged":true,"final_residual":0.00000000032,"cached":true,"coalesced":false,"chaos":false,"x":[1,0.30000000000000004,-0,123456.789]}"#,
        ),
        (
            Response::Done {
                id: 4,
                x: vec![],
                iterations: 0,
                converged: false,
                final_residual: f64::NAN,
                cached: false,
                coalesced: true,
                chaos: true,
            },
            r#"{"type":"done","id":4,"iterations":0,"converged":false,"final_residual":null,"cached":false,"coalesced":true,"chaos":true,"x":[]}"#,
        ),
        (
            Response::Overloaded { id: 4, retry_after_ms: 35 },
            r#"{"type":"overloaded","id":4,"retry_after_ms":35}"#,
        ),
        (
            Response::Cancelled { id: 5, iterations: 17 },
            r#"{"type":"cancelled","id":5,"iterations":17}"#,
        ),
        (
            Response::DeadlineExceeded { id: 6, iterations: 90 },
            r#"{"type":"deadline_exceeded","id":6,"iterations":90}"#,
        ),
        (
            Response::Failed {
                id: 7,
                error: "bad \"matrix\"\\ \n\r\t\u{1}\u{1f} é ∑ 😀 /".into(),
            },
            r#"{"type":"failed","id":7,"error":"bad \"matrix\"\\ \n\r\t\u0001\u001f é ∑ 😀 /"}"#,
        ),
        (Response::Ok, r#"{"type":"ok"}"#),
        (Response::Pong, r#"{"type":"pong"}"#),
        (Response::ShuttingDown, r#"{"type":"shutting_down"}"#),
    ]
}

/// `Debug` prints every finite float in its shortest round-trip form
/// (and `-0.0` as such), so equal `Debug` strings mean equal bits.
fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn frames_are_byte_identical_to_the_golden_strings() {
    for (req, frame) in golden_requests() {
        assert_eq!(req.render(), frame);
        assert!(same_bits(&Request::parse(frame).unwrap(), &req), "{frame}");
    }
    for (resp, frame) in golden_responses() {
        assert_eq!(resp.render(), frame);
        assert!(same_bits(&Response::parse(frame).unwrap(), &resp), "{frame}");
    }
}

#[test]
fn keys_parse_in_any_order_with_whitespace_and_unknown_keys() {
    let frame = r#" { "deadline_ms" : 250 , "extra" : {"deep":[1,{"x":null},"s\"}"]},
        "rhs":[1,25000000000,-3.25,1e21], "cache":false, "seed":42, "workers":2,
        "mode":"pooled", "block":8, "local_iters":5, "max_iters":20000, "tol":1e-9,
        "matrix":{"values":[4,-1.5,0.30000000000000004,-0,1e-7],"col_idx":[0,1,1,0,2],
        "row_ptr":[0,2,3,5],"n_cols":3,"n_rows":3,"note":"ignored"}, "id":7, "type":"solve" } "#;
    assert!(same_bits(&Request::parse(frame).unwrap(), &Request::Solve(csr_spec())));
}

#[test]
fn omitted_and_null_fields_take_their_defaults() {
    let frame = r#"{"type":"solve","id":1,"matrix":{"gen":"lap2d","g":4},"tol":1e-6,"max_iters":10,"block":4,"seed":null}"#;
    let Request::Solve(s) = Request::parse(frame).unwrap() else { panic!("not a solve") };
    assert_eq!((s.local_iters, s.workers, s.mode, s.cache, s.seed), (1, 1, Mode::Sim, true, 0));
    assert_eq!((s.rhs, s.deadline_ms), (None, None));
    for (field, msg) in [
        ("id", "solve needs `id`"),
        ("matrix", "solve needs `matrix`"),
        ("tol", "solve needs `tol`"),
        ("max_iters", "solve needs `max_iters`"),
        ("block", "solve needs `block`"),
    ] {
        let without = frame.replace(&format!("\"{field}\":"), "\"dropped\":");
        assert_eq!(Request::parse(&without).unwrap_err(), msg);
    }
    assert_eq!(Request::parse(r#"{"id":1}"#).unwrap_err(), "frame missing `type`");
    assert_eq!(Request::parse(r#"{"type":"cancel"}"#).unwrap_err(), "cancel needs `id`");
    let done = r#"{"type":"done","id":3,"iterations":1,"converged":true,"x":[]}"#;
    let Response::Done { final_residual, cached, .. } = Response::parse(done).unwrap() else {
        panic!("not done")
    };
    assert!(final_residual.is_nan() && !cached);
}

/// Integer fields travel exactly: before the typed codec they went
/// through `f64`, so seeds above 2^53 were rounded or zeroed and ids
/// above 2^53 were rejected as missing.
#[test]
fn integer_fields_round_trip_exactly() {
    for seed in [(1u64 << 60) + 3, (1 << 53) + 1, u64::MAX] {
        let req = Request::Solve(SolveSpec { seed, ..SolveSpec::lap2d(1, 4) });
        assert_eq!(Request::parse(&req.render()).unwrap(), req);
    }
    let frame = r#"{"type":"solve","id":18446744073709551615,"matrix":{"gen":"lap2d","g":4},"tol":1e-6,"max_iters":10,"block":4,"seed":1152921504606846979}"#;
    let Request::Solve(s) = Request::parse(frame).unwrap() else { panic!("not a solve") };
    assert_eq!((s.id, s.seed), (u64::MAX, (1 << 60) + 3));
    assert_eq!(
        Request::parse(r#"{"type":"cancel","id":1152921504606846976}"#).unwrap(),
        Request::Cancel { id: 1 << 60 }
    );
    let resp = Response::Overloaded { id: u64::MAX, retry_after_ms: u64::MAX - 1 };
    assert_eq!(Response::parse(&resp.render()).unwrap(), resp);
    // An integral float is still an integer, up to 2^53.
    let floats = frame.replace("\"max_iters\":10", "\"max_iters\":5.0").replace(
        "\"seed\":1152921504606846979",
        "\"seed\":9.007199254740992e15",
    );
    let Request::Solve(s) = Request::parse(&floats).unwrap() else { panic!("not a solve") };
    assert_eq!((s.max_iters, s.seed), (5, 1 << 53));
}

/// A hostile payload must come back as `Err` from both parsers: no
/// panic, no abort.
fn assert_rejected(payload: &str) {
    let req = std::panic::catch_unwind(|| Request::parse(payload));
    assert!(matches!(req, Ok(Err(_))), "Request::parse({payload:?}) = {req:?}");
    let resp = std::panic::catch_unwind(|| Response::parse(payload));
    assert!(matches!(resp, Ok(Err(_))), "Response::parse({payload:?}) = {resp:?}");
}

#[test]
fn every_strict_prefix_of_a_frame_is_rejected() {
    for frame in [CSR_FRAME, golden_responses()[0].1, golden_responses()[5].1] {
        for cut in (0..frame.len()).filter(|&i| frame.is_char_boundary(i)) {
            assert_rejected(&frame[..cut]);
        }
    }
}

#[test]
fn hostile_payloads_are_rejected() {
    let solve = |matrix: &str, rest: &str| {
        format!(concat!(
            r#"{{"type":"solve","id":1,"matrix":{matrix},"#,
            r#""tol":1e-6,"max_iters":10,"block":4{rest}}}"#
        ), matrix = matrix, rest = rest)
    };
    let lap = r#"{"gen":"lap2d","g":4}"#;
    let csr = |row_ptr: &str, col_idx: &str, values: &str| {
        format!(concat!(
            r#"{{"n_rows":1,"n_cols":1,"#,
            r#""row_ptr":{row_ptr},"col_idx":{col_idx},"values":{values}}}"#
        ), row_ptr = row_ptr, col_idx = col_idx, values = values)
    };
    let cases: Vec<String> = vec![
        // Not one object.
        String::new(),
        " ".into(),
        "null".into(),
        "[]".into(),
        "\"solve\"".into(),
        "1".into(),
        // Trailing bytes.
        format!("{CSR_FRAME}x"),
        format!("{CSR_FRAME}{{}}"),
        format!("{CSR_FRAME},"),
        format!("{CSR_FRAME}\u{0}"),
        // Bad escapes and \u forms.
        r#"{"type":"p\ing"}"#.into(),
        r#"{"type":"\u12"}"#.into(),
        r#"{"type":"\uzzzz"}"#.into(),
        r#"{"type":"\u+123"}"#.into(),
        r#"{"type":"\ud800"}"#.into(),
        r#"{"type":"\ud800A"}"#.into(),
        r#"{"type":"\udc00"}"#.into(),
        r#"{"type":"\"#.into(),
        // Numbers out of range or malformed.
        solve(lap, "").replace("1e-6", "1e400"),
        solve(lap, "").replace("1e-6", "-1e400"),
        solve(lap, "").replace("1e-6", "1e"),
        solve(lap, "").replace("1e-6", "--1"),
        solve(lap, "").replace("1e-6", "+1"),
        solve(lap, "").replace("1e-6", ".5"),
        solve(lap, r#","rhs":[1e400]"#),
        solve(lap, r#","seed":18446744073709551616"#),
        solve(lap, r#","seed":-1"#),
        solve(lap, r#","seed":1.5"#),
        solve(lap, r#","seed":1e17"#),
        solve(lap, r#","seed":"42""#),
        // Wrong element types inside arrays, and arrays that are not.
        solve(&csr("[0,1]", "[0]", r#"[1,"a"]"#), ""),
        solve(&csr("[0,1.5]", "[0]", "[1]"), ""),
        solve(&csr("[0,-1]", "[0]", "[1]"), ""),
        solve(&csr("[0,1]", "[null]", "[1]"), ""),
        solve(&csr("[0,1]", "[0]", "[[1]]"), ""),
        solve(&csr("[0,1]", "[0]", "1"), ""),
        solve(&csr("[0,1]", "[0]", "[1,]"), ""),
        solve(lap, r#","rhs":[true]"#),
        // Schema violations.
        solve(lap, r#","id":2"#),
        solve(r#"{"gen":"lap3d","g":4}"#, ""),
        solve(r#"{"gen":"lap2d"}"#, ""),
        solve(lap, r#","mode":"turbo""#),
        solve(lap, r#","cache":1"#),
        r#"{"type":"done","id":1,"iterations":1,"converged":true,"x":[1,null]}"#.into(),
        r#"{"type":"done","id":1,"iterations":1,"converged":true,"x":{}}"#.into(),
        r#"{"type":"teleport"}"#.into(),
    ];
    for case in &cases {
        assert_rejected(case);
    }
}

#[test]
fn non_utf8_payloads_fail_in_read_frame() {
    let payloads: [&[u8]; 4] =
        [b"{\"type\":\"p\xffng\"}", b"\xc0\x80", b"{\"type\":\"\xe2\x82\"}", b"\xed\xa0\x80"];
    for payload in payloads {
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{payload:?}");
    }
}

/// Before the typed codec, the parser recursed once per `[`/`{`: one
/// 100 KB frame overflowed a connection thread's stack and aborted the
/// whole process. Both frames here run on a default-stack thread.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let brackets = "[".repeat(100 << 10);
    let nested_unknown = format!(
        r#"{{"type":"solve","note":{}1{}}}"#,
        r#"{"a":"#.repeat(10_000),
        "}".repeat(10_000)
    );
    let results = std::thread::spawn(move || {
        [&brackets, &nested_unknown]
            .map(|p| (Request::parse(p).is_err(), Response::parse(p).is_err()))
    })
    .join()
    .expect("parser thread must not die");
    assert_eq!(results, [(true, true); 2]);
}

/// Strings are scanned once: a 4 MiB string field is rejected quickly
/// (the per-character re-validation before took ~166 ms for 80 KB and
/// grew quadratically), and the error quotes a bounded prefix of it.
#[test]
fn a_huge_string_field_is_rejected_in_linear_time_with_a_bounded_echo() {
    let huge: String = "é\\n0123456789abcdef".repeat((4 << 20) / 20);
    for frame in [
        format!(r#"{{"type":"{huge}"}}"#),
        format!(r#"{{"type":"solve","id":1,"mode":"{huge}"}}"#),
        format!(r#"{{"type":"failed","id":1,"error":"{huge}","x":"#),
    ] {
        assert!(frame.len() > 4 << 20 && frame.len() < MAX_FRAME);
        let t0 = Instant::now();
        let (req, resp) = (Request::parse(&frame), Response::parse(&frame));
        assert!(t0.elapsed() < Duration::from_secs(2), "took {:?}", t0.elapsed());
        for err in [req.unwrap_err(), resp.unwrap_err()] {
            assert!(err.len() < 160, "echo not bounded: {} bytes", err.len());
        }
    }
}

/// SplitMix64, for building random frames inside a proptest case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn usize(&mut self) -> usize {
        self.next() as usize
    }

    /// A finite float: specials, subnormals, or a random bit pattern.
    fn f64(&mut self) -> f64 {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            1.0,
            0.3,
        ];
        match self.below(4) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => f64::from_bits(self.next() & 0x800f_ffff_ffff_ffff),
            _ => loop {
                let v = f64::from_bits(self.next());
                if v.is_finite() {
                    return v;
                }
            },
        }
    }

    fn f64s(&mut self, max_len: u64) -> Vec<f64> {
        (0..self.below(max_len + 1)).map(|_| self.f64()).collect()
    }

    fn usizes(&mut self, max_len: u64) -> Vec<usize> {
        (0..self.below(max_len + 1)).map(|_| self.usize()).collect()
    }

    fn text(&mut self) -> String {
        const POOL: [char; 14] =
            ['a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '∑', '😀'];
        (0..self.below(24)).map(|_| POOL[self.below(POOL.len() as u64) as usize]).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_on_the_bits(seed in 0u64..=u64::MAX, id in 0u64..=u64::MAX) {
        let mut m = Mix(seed);
        let req = match m.below(4) {
            0 => Request::Cancel { id },
            1 => Request::Ping,
            2 => Request::Shutdown,
            _ => Request::Solve(SolveSpec {
                id,
                matrix: if m.flip() {
                    MatrixSpec::Lap2d { g: m.usize() }
                } else {
                    MatrixSpec::Csr {
                        n_rows: m.usize(),
                        n_cols: m.usize(),
                        row_ptr: m.usizes(12),
                        col_idx: m.usizes(40),
                        values: m.f64s(40),
                    }
                },
                rhs: m.flip().then(|| m.f64s(12)),
                tol: m.f64(),
                max_iters: m.usize(),
                local_iters: m.usize(),
                block: m.usize(),
                mode: if m.flip() { Mode::Sim } else { Mode::Pooled },
                workers: m.usize(),
                deadline_ms: m.flip().then(|| m.next()),
                seed: m.next(),
                cache: m.flip(),
            }),
        };
        let frame = req.render();
        let back = Request::parse(&frame).unwrap();
        prop_assert!(same_bits(&back, &req), "{frame}");
        prop_assert_eq!(back.render(), frame);
    }

    #[test]
    fn responses_round_trip_on_the_bits(seed in 0u64..=u64::MAX, id in 0u64..=u64::MAX) {
        let mut m = Mix(seed);
        let resp = match m.below(8) {
            0 => Response::Ok,
            1 => Response::Pong,
            2 => Response::ShuttingDown,
            3 => Response::Overloaded { id, retry_after_ms: m.next() },
            4 => Response::Cancelled { id, iterations: m.usize() },
            5 => Response::DeadlineExceeded { id, iterations: m.usize() },
            6 => Response::Failed { id, error: m.text() },
            _ => Response::Done {
                id,
                x: m.f64s(40),
                iterations: m.usize(),
                converged: m.flip(),
                final_residual: m.f64(),
                cached: m.flip(),
                coalesced: m.flip(),
                chaos: m.flip(),
            },
        };
        let frame = resp.render();
        let back = Response::parse(&frame).unwrap();
        prop_assert!(same_bits(&back, &resp), "{frame}");
        prop_assert_eq!(back.render(), frame);
    }
}
