//! The JSON codec every snapshot, packet feed line and report goes
//! through: the vendored `serde`/`serde_derive`/`serde_json` writers
//! and parser, and the `mp5lint --format=json` round-trip parser.
//!
//! * Golden output: the exact bytes of every derived shape, string
//!   escapes, non-ASCII text, integer extremes and floats. Snapshot
//!   files embed this text and are checksummed over it, so any change
//!   here is a snapshot format change.
//! * Linear time: a ~2 MB string-heavy document and a 40 000-key
//!   object must cost about as much per byte to parse as documents 64×
//!   smaller; quadratic parsers cost many times more.
//! * Totality: truncated and byte-mutated snapshots decode to a typed
//!   [`ServeError`], never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use mp5::analysis::json::Json;
use mp5::core::SwitchConfig;
use mp5::serve::{ServeError, Server, Snapshot};
use mp5::trace::NopSink;
use mp5::traffic::TraceBuilder;
use mp5_faults::NoFaults;

// ---------------------------------------------------------------------
// Golden output
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    name: String,
    tags: Vec<String>,
    ratio: f64,
    maybe: Option<i64>,
    pair: (u8, bool),
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i32, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct NoFields {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Plain,
    Wrapped(Newtype),
    Tuple(i8, bool),
    Struct { x: u16, y: Option<String> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Nested {
    shapes: Vec<Shape>,
    unit: Unit,
    empty: NoFields,
    pair: Pair,
}

fn text<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// Serializes, checks the exact bytes, and parses the bytes back.
fn golden<T>(v: &T, want: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(text(v), want);
    assert_eq!(&serde_json::from_str::<T>(want).unwrap(), v, "{want}");
}

#[test]
fn derived_shapes_have_golden_bytes() {
    golden(
        &Named {
            id: 7,
            name: "n".into(),
            tags: vec!["a".into(), "b".into()],
            ratio: 0.25,
            maybe: None,
            pair: (3, true),
        },
        r#"{"id":7,"name":"n","tags":["a","b"],"ratio":0.25,"maybe":null,"pair":[3,true]}"#,
    );
    golden(&Newtype(u64::MAX), "18446744073709551615");
    golden(&Pair(-1, "x".into()), r#"[-1,"x"]"#);
    golden(&Unit, "null");
    golden(&NoFields {}, "{}");
    golden(&Shape::Plain, r#""Plain""#);
    golden(&Shape::Wrapped(Newtype(5)), r#"{"Wrapped":5}"#);
    golden(&Shape::Tuple(-8, false), r#"{"Tuple":[-8,false]}"#);
    golden(
        &Shape::Struct {
            x: 9,
            y: Some("q".into()),
        },
        r#"{"Struct":{"x":9,"y":"q"}}"#,
    );
    golden(
        &Nested {
            shapes: vec![Shape::Plain, Shape::Struct { x: 0, y: None }],
            unit: Unit,
            empty: NoFields {},
            pair: Pair(2, String::new()),
        },
        r#"{"shapes":["Plain",{"Struct":{"x":0,"y":null}}],"unit":null,"empty":{},"pair":[2,""]}"#,
    );
    golden(&Vec::<u8>::new(), "[]");
    golden(&(1u8, -2i16, "c".to_string()), r#"[1,-2,"c"]"#);
}

#[test]
fn strings_escape_exactly_what_json_requires() {
    let s = "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}c\u{1}\u{1f}del\u{7f}";
    let want = r#""q\"b\\s/n\nr\rt\tb\bf\fc\u0001\u001fdel"#.to_string() + "\u{7f}\"";
    assert_eq!(text(s), want);
    assert_eq!(serde_json::from_str::<String>(&want).unwrap(), s);
    // Non-ASCII text is written as raw UTF-8, not escaped.
    let s = "héllo → 世界 😀";
    assert_eq!(text(s), format!("\"{s}\""));
    assert_eq!(serde_json::from_str::<String>(&text(s)).unwrap(), s);
    // Escaped input: BMP escapes, a surrogate pair, `\/`.
    assert_eq!(
        serde_json::from_str::<String>(r#""\u00e9\u4e16\ud83d\ude00\/""#).unwrap(),
        "é世😀/"
    );
}

#[test]
fn numbers_have_golden_bytes() {
    golden(&i64::MIN, "-9223372036854775808");
    golden(&i64::MAX, "9223372036854775807");
    golden(&u64::MAX, "18446744073709551615");
    golden(&0i32, "0");
    golden(&-1i8, "-1");
    golden(&1.0f64, "1.0");
    golden(&0.1f64, "0.1");
    golden(&-0.0f64, "-0.0");
    golden(&1e300f64, "1e300");
    golden(&5e-324f64, "5e-324");
    golden(&0.5f32, "0.5");
    // f32 widens to f64 before printing, as it always has.
    assert_eq!(text(&1.1f32), "1.100000023841858");
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(text(&x), "null");
    }
    assert_eq!(text(&vec![f32::NAN]), "[null]");
}

#[test]
fn trees_come_from_the_one_writer() {
    let v = Named {
        id: 1,
        name: "é".into(),
        tags: vec![],
        ratio: f64::NAN,
        maybe: Some(-3),
        pair: (0, false),
    };
    let tree = serde_json::to_value(&v).unwrap();
    assert_eq!(tree["name"], "é");
    assert_eq!(tree["maybe"], -3i64);
    assert_eq!(tree["ratio"], Value::Null);
    assert_eq!(tree.to_string(), text(&v));
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Tuple(1, true)).unwrap(),
        "{\n  \"Tuple\": [\n    1,\n    true\n  ]\n}"
    );
}

#[test]
fn parser_keeps_every_rejection() {
    for bad in [
        "\"ctl\u{1}\"",
        "\"tab\tinside\"",
        r#""\x""#,
        r#""\u12""#,
        r#""\u+123""#,
        r#""\ud83d""#,
        r#""\ud83d\u0041""#,
        r#""\udc00""#,
        "\"unterminated",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "[{]",
        "1 2",
        "\"x\" \"y\"",
        "nul",
        "-",
        "1.",
        "1e",
        "",
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    // Nesting is bounded at 128 levels instead of overflowing the stack.
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&nested(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
    assert!(serde_json::from_str::<Value>(&"[".repeat(100_000)).is_err());
}

#[test]
fn duplicate_keys_keep_first_position_and_last_value() {
    let v: Value = serde_json::from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(text(&v), r#"{"a":3,"b":2}"#);
}

// ---------------------------------------------------------------------
// Linear time
// ---------------------------------------------------------------------

/// The full documents below are this many times the size of the small
/// ones they are timed against.
const SCALE: usize = 64;

/// Largest accepted growth of the parse time per byte from the small
/// document to the full one. In an unoptimized test build on a 2-vCPU
/// x86-64 host the linear parsers measure 0.85–1.03×. Quadratic variants
/// of the string and object parsers measured 17–72× even at an eighth
/// of the sizes below, and at full size the old ones took 35 s for the
/// 40 000-key object and about 12 minutes for the 2 MB string document,
/// where the linear ones take 50–100 ms.
const MAX_GROWTH: f64 = 4.0;

/// Hang guard only: a quadratic parser fails here long before it would
/// finish, while the linear ones finish all six runs in under a second.
const DEADLINE: Duration = Duration::from_secs(30);

/// The timed tests and the snapshot sweeps take this lock so they never
/// share the CPUs with each other.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy() -> MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses a document of `units / SCALE` units and one of `units` units
/// built by `doc`, fastest of three runs each, on a worker thread
/// bounded by [`DEADLINE`]. Fails unless the time per byte grew by less
/// than [`MAX_GROWTH`]; a ratio, so a host that is slow throughout does
/// not fail it.
/// Returns the parse of the full document.
fn assert_linear<T: Send + 'static>(
    what: &str,
    units: usize,
    doc: impl Fn(usize) -> String,
    parse: fn(&str) -> T,
) -> T {
    let _serial = heavy();
    let small = doc(units / SCALE);
    let full = doc(units);
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let per_byte = |d: &str| {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..3 {
                let t = Instant::now();
                out = Some(parse(d));
                best = best.min(t.elapsed().as_secs_f64());
            }
            (best / d.len() as f64, out.unwrap())
        };
        let (small_cost, _) = per_byte(&small);
        let (full_cost, parsed) = per_byte(&full);
        let _ = tx.send((full_cost / small_cost, parsed));
    });
    let (growth, parsed) = match rx.recv_timeout(DEADLINE) {
        Ok(r) => {
            worker.join().expect("worker finished after sending");
            r
        }
        // Only a worker that overran the deadline is left detached.
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: not parsed within {DEADLINE:?}; parsing is not linear")
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it returns"),
        },
    };
    assert!(
        growth < MAX_GROWTH,
        "{what}: time per byte grew {growth:.1}× at {SCALE}× the size; parsing is not linear"
    );
    parsed
}

/// `n` strings mixing plain ASCII runs, escapes and multi-byte
/// characters, ~130 bytes of JSON each.
fn string_heavy(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "flow {i}: \"héllo\"\\path\n→ 世界 😀 {}",
                "abcdefgh".repeat(10)
            )
        })
        .collect()
}

#[test]
fn string_heavy_document_parses_in_linear_time() {
    const STRINGS: usize = 16_000;
    assert!(text(&string_heavy(STRINGS)).len() > 2_000_000);
    let parsed = assert_linear(
        "2 MB string document",
        STRINGS,
        |n| text(&string_heavy(n)),
        |d| serde_json::from_str::<Vec<String>>(d).unwrap(),
    );
    assert_eq!(parsed, string_heavy(STRINGS));
}

#[test]
fn one_huge_string_parses_in_linear_time() {
    let huge = |n: usize| "0123456789é→😀\\\"".repeat(n);
    let parsed = assert_linear(
        "2 MB single string",
        100_000,
        |n| text(&huge(n)),
        |d| serde_json::from_str::<String>(d).unwrap(),
    );
    assert_eq!(parsed, huge(100_000));
}

#[test]
fn many_key_object_parses_in_linear_time() {
    const KEYS: usize = 40_000;
    let object = |keys: usize| {
        let mut doc = String::from("{");
        for i in 0..keys {
            doc.push_str(&format!("\"flow_key_{i:06}\":{i},"));
        }
        // A repeated key keeps its first position and takes the last value.
        doc.push_str("\"flow_key_000000\":-1}");
        doc
    };
    let v = assert_linear("40 000-key object", KEYS, object, |d| {
        serde_json::from_str::<Value>(d).unwrap()
    });
    let o = v.as_object().unwrap();
    assert_eq!(o.len(), KEYS);
    assert_eq!(o.keys().next().unwrap(), "flow_key_000000");
    assert_eq!(v["flow_key_000000"], -1i64);
    assert_eq!(v["flow_key_039999"], 39_999u64);
}

#[test]
fn lint_json_parser_is_linear() {
    const STRINGS: usize = 16_000;
    let emit = |n: usize| Json::Arr(string_heavy(n).into_iter().map(Json::str).collect()).emit();
    assert!(emit(STRINGS).len() > 2_000_000);
    let parsed = assert_linear("mp5lint 2 MB document", STRINGS, emit, |d| {
        Json::parse(d).unwrap()
    });
    let Json::Arr(items) = parsed else {
        panic!("not an array")
    };
    let strings = string_heavy(STRINGS);
    assert_eq!(items.len(), strings.len());
    assert_eq!(items[1], Json::str(strings[1].clone()));
}

// ---------------------------------------------------------------------
// Totality over damaged snapshots
// ---------------------------------------------------------------------

/// Shardable table plus a hot counter: remaps, phantoms and queued
/// packets all appear in the checkpointed state.
const PROGRAM: &str = "struct Packet { int h; int o; };
     int c = 0;
     int t[32] = {0};
     void func(struct Packet p) {
         t[p.h % 32] = t[p.h % 32] + 1;
         c = c + 1;
         p.o = t[p.h % 32] + c;
     }";

fn live_snapshot() -> String {
    let prog = mp5::compiler::compile(PROGRAM, &mp5::compiler::Target::default()).unwrap();
    let packets = TraceBuilder::new(300, 11).build(prog.num_fields(), |rng, _, f| {
        use rand::Rng;
        f[0] = rng.gen_range(0..512);
    });
    let mut srv: Server<NopSink, NoFaults> =
        Server::new(PROGRAM, SwitchConfig::mp5(4), NopSink, None).unwrap();
    srv.offer_all(packets);
    for _ in 0..60 {
        srv.tick();
        srv.drain_egress();
    }
    srv.checkpoint().encode()
}

/// FNV-1a64, the snapshot checksum, so a mutated body can be re-sealed
/// and reach the section parsers instead of stopping at the checksum.
fn reseal(body: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{body}@checksum {h:016x}\n")
}

/// Decodes without panicking; a successful decode must also restore
/// (or be rejected by the restore) without panicking.
fn decode_total(text: &str) -> Result<(), ServeError> {
    let r = catch_unwind(AssertUnwindSafe(|| {
        Snapshot::decode(text).map(|snap| {
            let _ = Server::<NopSink, NoFaults>::restore(snap, NopSink, None, None);
        })
    }));
    r.unwrap_or_else(|_| panic!("decode panicked on {} bytes", text.len()))
}

fn assert_codec_error(r: Result<(), ServeError>, what: &str) {
    match r {
        Err(ServeError::Format(_) | ServeError::Checksum { .. } | ServeError::Version(_)) => {}
        other => panic!("{what}: expected a typed codec error, got {other:?}"),
    }
}

/// Deterministic positions: every byte near both ends, a stride
/// through the middle.
fn positions(len: usize) -> Vec<usize> {
    let stride = (len / 300).max(1);
    let mut ps: Vec<usize> = (0..len.min(64)).collect();
    ps.extend((64..len.saturating_sub(64)).step_by(stride));
    ps.extend(len.saturating_sub(64).max(64)..len);
    ps
}

#[test]
fn truncated_snapshots_are_typed_errors() {
    let _serial = heavy();
    let full = live_snapshot();
    assert!(Snapshot::decode(&full).is_ok());
    let body = &full[..full.rfind("@checksum ").unwrap()];
    for cut in positions(full.len() - 1) {
        assert!(full.is_char_boundary(cut));
        assert_codec_error(decode_total(&full[..cut]), &format!("cut at {cut}"));
    }
    // Re-sealed truncations reach the section parsers. Dropping only
    // the final newline leaves a complete document.
    for cut in positions(body.len() - 1) {
        let sealed = reseal(&body[..cut]);
        assert_codec_error(decode_total(&sealed), &format!("sealed cut at {cut}"));
    }
}

#[test]
fn mutated_snapshots_never_panic() {
    let _serial = heavy();
    let full = live_snapshot();
    let body = full.as_bytes()[..full.rfind("@checksum ").unwrap()].to_vec();
    const SUBST: &[u8] = b"{}[],:\"\\-+.0159eEnull truefalse@\n\t\x01x";
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut decoded = 0;
    for pos in positions(body.len()) {
        let sub = SUBST[(next() % SUBST.len() as u64) as usize];
        if !body[pos].is_ascii() || body[pos] == sub {
            continue;
        }
        let mut bytes = body.clone();
        bytes[pos] = sub;
        let text = String::from_utf8(bytes).expect("ASCII substitution");
        // Unsealed: the checksum catches every change.
        let raw = format!("{text}{}", &full[body.len()..]);
        assert_codec_error(decode_total(&raw), &format!("mutation at {pos}"));
        // Re-sealed: the parsers see it; any outcome but a panic is fine.
        if decode_total(&reseal(&text)).is_ok() {
            decoded += 1;
        }
    }
    // Some substitutions (a digit for a digit) leave a valid snapshot.
    assert!(decoded > 0);
}
