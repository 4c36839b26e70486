//! Object JSON that breaks a constructor invariant — non-finite numbers,
//! `lo > hi`, an existence outside `(0, 1]`, bad PDF parameters — must be
//! refused with `ERR` and leave the served state untouched, never panic
//! the server or be inserted and answered. Derived fields a client sends
//! (the region, normalizations, running sums) are recomputed, never read.
//! A client-chosen `k` or `m` far beyond the object count is a valid
//! query: it must get the same answer as `k` (or `m`) equal to the
//! object count, not crash the server on an oversized reservation or
//! overflowing arithmetic.

use udb_core::IdcaConfig;
use udb_geometry::{Interval, Point, Rect};
use udb_object::{Pdf, UncertainObject};
use udb_pdf::{DiscretePdf, GaussianPdf, HistogramPdf};
use udb_serve::{empty_server, Server};
use udb_workload::SyntheticConfig;

fn json(o: &UncertainObject) -> String {
    serde_json::to_string(o).expect("objects serialize")
}

/// A one-shard server seeded with 30 two-dimensional objects.
fn seeded_server() -> Server {
    let cfg = IdcaConfig {
        max_iterations: 3,
        ..Default::default()
    };
    let mut server = empty_server(cfg, 1, 8);
    let db = SyntheticConfig {
        n: 30,
        max_extent: 0.02,
        ..Default::default()
    }
    .generate();
    let inserts: Vec<String> = db
        .iter()
        .map(|(_, o)| format!("INSERT {}", json(o)))
        .collect();
    let (replies, _) = server.execute_batch(&inserts);
    assert!(replies.iter().all(|r| r.starts_with("OK ")));
    server
}

/// Queries of every verb plus `STATS`.
fn probes() -> Vec<String> {
    let q = json(&UncertainObject::certain(Point::from([0.5, 0.5])));
    vec![
        format!("KNN 3 0.3 {q}"),
        format!("RKNN 1 0.3 {q}"),
        format!("TOPM 2 {q}"),
        "STATS".to_owned(),
    ]
}

/// Valid objects of four PDF kinds, the bases the hostile lines edit.
fn bases() -> [String; 4] {
    let square = Rect::new(vec![Interval::new(0.4, 0.5), Interval::new(0.4, 0.5)]);
    let pdfs = [
        Pdf::uniform(square.clone()),
        Pdf::Gaussian(GaussianPdf::isotropic(
            Point::from([0.45, 0.45]),
            0.25,
            square.clone(),
        )),
        Pdf::Histogram(HistogramPdf::new(square, vec![1, 2], vec![0.25, 0.75])),
        Pdf::Discrete(DiscretePdf::equally_weighted(vec![
            Point::from([0.25, 0.5]),
            Point::from([0.75, 0.5]),
        ])),
    ];
    pdfs.map(|pdf| json(&UncertainObject::new(pdf)))
}

/// `base` with the first `n` occurrences of `from` replaced by `to`;
/// `from` must occur, so that every edit really changes the object.
fn edit(base: &str, from: &str, to: &str, n: usize) -> String {
    assert!(base.contains(from), "{from:?} not in {base}");
    base.replacen(from, to, n)
}

/// One hostile object per invariant the constructors assert.
fn hostile_objects() -> Vec<(&'static str, String)> {
    let [uniform, gaussian, histogram, discrete] = bases();
    let all = usize::MAX;
    vec![
        (
            "overflowing bound",
            edit(&uniform, "\"hi\":0.5", "\"hi\":1e400", all),
        ),
        (
            "inverted interval",
            edit(
                &uniform,
                "\"lo\":0.4,\"hi\":0.5",
                "\"lo\":0.6,\"hi\":0.5",
                all,
            ),
        ),
        (
            "existence above one",
            edit(&uniform, "\"existence\":1.0", "\"existence\":1.5", 1),
        ),
        (
            "zero existence",
            edit(&uniform, "\"existence\":1.0", "\"existence\":0.0", 1),
        ),
        (
            "no dimensions",
            "{\"pdf\":{\"Uniform\":{\"support\":{\"dims\":[]},\"inv_volume\":null}},\
             \"mbr\":{\"dims\":[]},\"existence\":1.0}"
                .to_owned(),
        ),
        (
            "zero std",
            edit(&gaussian, "\"std\":[0.25,", "\"std\":[0.0,", 1),
        ),
        (
            "negative std",
            edit(&gaussian, "\"std\":[0.25,", "\"std\":[-0.25,", 1),
        ),
        (
            "infinite std",
            edit(&gaussian, "\"std\":[0.25,", "\"std\":[1e400,", 1),
        ),
        (
            "mass-free Gaussian support, sent normalization kept",
            edit(&gaussian, "\"mean\":[0.45,", "\"mean\":[100.0,", 1),
        ),
        (
            "negative histogram weight",
            edit(&histogram, "\"weights\":[0.25,", "\"weights\":[-0.25,", 1),
        ),
        (
            "histogram grid mismatch",
            edit(
                &histogram,
                "\"resolution\":[1,2]",
                "\"resolution\":[2,2]",
                1,
            ),
        ),
        (
            "all-zero discrete weights",
            edit(
                &discrete,
                "\"weights\":[0.5,0.5]",
                "\"weights\":[0.0,0.0]",
                1,
            ),
        ),
        (
            "overflowing weight total",
            edit(
                &discrete,
                "\"weights\":[0.5,0.5]",
                "\"weights\":[1e308,1e308]",
                1,
            ),
        ),
    ]
}

/// `json` with the value of the first `"key":` replaced by `value`.
fn set_field(json: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = json
        .find(&tag)
        .unwrap_or_else(|| panic!("{key} not in {json}"))
        + tag.len();
    let mut depth = 0i32;
    let len = json[start..]
        .find(|c: char| {
            match c {
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                _ => {}
            }
            depth < 0 || (depth == 0 && c == ',')
        })
        .expect("value is followed by a delimiter");
    format!("{}{value}{}", &json[..start], &json[start + len..])
}

#[test]
fn the_unedited_bases_are_accepted() {
    let mut server = seeded_server();
    let lines: Vec<String> = bases().iter().map(|o| format!("INSERT {o}")).collect();
    let (replies, _) = server.execute_batch(&lines);
    assert_eq!(replies, vec!["OK 30", "OK 31", "OK 32", "OK 33"]);
}

#[test]
fn derived_fields_are_recomputed_not_read() {
    let [uniform, gaussian, histogram, discrete] = bases();
    let boxed = "{\"dims\":[{\"lo\":5.0,\"hi\":6.0},{\"lo\":5.0,\"hi\":6.0}]}";
    let tampered = [
        (&uniform, set_field(&uniform, "inv_volume", "12345.0")),
        (&uniform, set_field(&uniform, "mbr", boxed)),
        (&gaussian, set_field(&gaussian, "dim_mass", "[1.0,1.0]")),
        (&histogram, set_field(&histogram, "cumulative", "[0.0,0.0]")),
        (&discrete, set_field(&discrete, "support", boxed)),
        (&discrete, set_field(&discrete, "cumulative", "[1.0,1.0]")),
    ];
    for (base, bad) in tampered {
        assert_ne!(*base, bad);
        let read: UncertainObject =
            serde_json::from_str(&bad).expect("derived fields are not checked");
        assert_eq!(json(&read), *base, "{bad}");
    }
}

#[test]
fn hostile_objects_reply_err_and_change_nothing() {
    let mut server = seeded_server();
    let (before, _) = server.execute_batch(&probes());
    for (what, obj) in hostile_objects() {
        let lines = [
            format!("INSERT {obj}"),
            format!("UPDATE 0 {obj}"),
            format!("DELNEAR {obj}"),
            format!("KNN 3 0.3 {obj}"),
            format!("RKNN 1 0.3 {obj}"),
            format!("TOPM 2 {obj}"),
            format!("SUB KNN 3 0.3 {obj}"),
        ];
        let (replies, quit) = server.execute_batch(&lines);
        assert!(!quit);
        for (line, reply) in lines.iter().zip(&replies) {
            assert!(
                reply.starts_with("ERR bad object"),
                "{what}: {line:.60} answered {reply:?}"
            );
        }
    }
    let (after, _) = server.execute_batch(&probes());
    assert_eq!(before, after, "served state changed");
}

/// The query and standing-query verbs at `k = m = size`; each `SUB` is
/// followed by its `UNSUB` so the served state ends where it began.
fn size_probes(size: &str, q: &str) -> Vec<String> {
    let mut lines = vec![
        format!("KNN {size} 0.3 {q}"),
        format!("RKNN {size} 0.3 {q}"),
        format!("TOPM {size} {q}"),
    ];
    for sub in [
        format!("SUB KNN {size} 0.3 {q}"),
        format!("SUB RKNN {size} 0.3 {q}"),
        format!("SUB TOPM {size} {q}"),
    ] {
        lines.push(sub);
        lines.push("UNSUB <last>".to_owned());
    }
    lines
}

/// Runs `lines` one at a time, filling each `UNSUB <last>` with the id
/// of the preceding `SUB` reply; returns the replies with `SUB` ids
/// masked (ids differ between runs, results must not).
fn run_masking_sids(server: &mut Server, lines: &[String]) -> Vec<String> {
    let mut sid = String::new();
    let mut replies = Vec::new();
    for line in lines {
        let line = line.replace("<last>", &sid);
        let (reply, quit) = server.execute_batch(std::slice::from_ref(&line));
        assert!(!quit);
        let reply = reply.into_iter().next().expect("one reply per line");
        assert!(!reply.starts_with("ERR"), "{line:.60} answered {reply:?}");
        let masked = if let Some(rest) = reply.strip_prefix("SUB ") {
            let (id, res) = rest.split_once(' ').expect("SUB <sid> RES ...");
            sid = id.to_owned();
            format!("SUB <sid> {res}")
        } else {
            reply.replace(&format!("OK unsub {sid}"), "OK unsub <sid>")
        };
        replies.push(masked);
    }
    replies
}

#[test]
fn absurd_k_and_m_answer_like_the_object_count() {
    let mut server = seeded_server();
    let q = json(&UncertainObject::certain(Point::from([0.5, 0.5])));
    let stats = ["STATS".to_owned()];
    let (before, _) = server.execute_batch(&stats);
    let expected = run_masking_sids(&mut server, &size_probes("30", &q));
    for size in [(1u64 << 32).to_string(), u64::MAX.to_string()] {
        let replies = run_masking_sids(&mut server, &size_probes(&size, &q));
        assert_eq!(replies, expected, "k = m = {size}");
    }
    let (after, _) = server.execute_batch(&stats);
    assert_eq!(before, after, "served state changed");
}

/// A 512 KiB string in the object JSON is refused as fast as any other
/// bad object: string decoding is linear in the string, so a long key
/// cannot stall the pump. A decoder that re-validated the rest of the
/// input per character took about 7 s on this line in a debug build on
/// a 2-vCPU host; the linear one takes about 50 ms.
#[test]
fn a_huge_string_key_gets_err_at_once() {
    let mut server = seeded_server();
    let stats = ["STATS".to_owned()];
    let (before, _) = server.execute_batch(&stats);
    let [uniform, ..] = bases();
    let key = "k".repeat(512 << 10);
    // the long key replaces `pdf`, so the object misses a required field
    let line = format!(
        "INSERT {}",
        edit(&uniform, "\"pdf\"", &format!("\"{key}\""), 1)
    );
    let started = std::time::Instant::now();
    let (replies, quit) = server.execute_batch(std::slice::from_ref(&line));
    let took = started.elapsed();
    assert!(!quit);
    assert_eq!(replies.len(), 1);
    assert!(
        replies[0].starts_with("ERR bad object"),
        "{:.80}",
        replies[0]
    );
    assert!(took.as_secs_f64() < 2.0, "took {took:?}");
    let (after, _) = server.execute_batch(&stats);
    assert_eq!(before, after, "served state changed");
}

/// Nesting far past the parser's depth cap gets `ERR` like any other bad
/// object: the JSON parser recurses once per level, so an uncapped
/// parser overflowed the stack on this line and took every connection
/// down with it. The line after it is served as usual.
#[test]
fn deeply_nested_json_gets_err_and_the_next_line_is_served() {
    let mut server = seeded_server();
    let (before, _) = server.execute_batch(&probes());
    let line = format!("INSERT {}", "[".repeat(100_000));
    let mut lines = vec![line];
    lines.extend(probes());
    let (replies, quit) = server.execute_batch(&lines);
    assert!(!quit);
    assert!(
        replies[0].starts_with("ERR bad object JSON"),
        "{:.80}",
        replies[0]
    );
    assert_eq!(replies[1..], before[..], "served state changed");
}
