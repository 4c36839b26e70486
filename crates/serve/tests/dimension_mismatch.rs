//! An object line of the wrong dimensionality must be refused with
//! `ERR`, never reach the engine (where it would panic in the geometry
//! and take the server down), and leave the served state untouched.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use udb_core::IdcaConfig;
use udb_geometry::Point;
use udb_object::UncertainObject;
use udb_serve::{empty_server, front, Server};
use udb_workload::SyntheticConfig;

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 3,
        ..Default::default()
    }
}

fn json(o: &UncertainObject) -> String {
    serde_json::to_string(o).expect("objects serialize")
}

/// A server seeded with 30 two-dimensional objects.
fn seeded_server(shards: usize) -> Server {
    let mut server = empty_server(cfg(), shards, 8);
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

/// Valid two-dimensional queries of every verb.
fn valid_queries() -> Vec<String> {
    let q = json(&UncertainObject::certain(Point::from([0.5, 0.5])));
    vec![
        format!("KNN 2 0.3 {q}"),
        format!("RKNN 1 0.3 {q}"),
        format!("TOPM 2 {q}"),
        "STATS".to_owned(),
    ]
}

/// One line of every verb that carries an object, each with a 3-D one.
fn mismatching_lines() -> Vec<String> {
    let o3 = json(&UncertainObject::certain(Point::from([0.5, 0.5, 0.5])));
    vec![
        format!("INSERT {o3}"),
        format!("UPDATE 0 {o3}"),
        format!("DELNEAR {o3}"),
        format!("KNN 2 0.3 {o3}"),
        format!("RKNN 1 0.3 {o3}"),
        format!("TOPM 2 {o3}"),
        format!("SUB KNN 2 0.3 {o3}"),
        format!("SUB RKNN 1 0.3 {o3}"),
        format!("SUB TOPM 2 {o3}"),
    ]
}

const MISMATCH: &str = "ERR object has 3 dimensions, the database has 2";

#[test]
fn wrong_dimension_lines_reply_err_and_change_nothing() {
    for shards in [1, 2] {
        let mut server = seeded_server(shards);
        let (before, _) = server.execute_batch(&valid_queries());
        let (replies, quit) = server.execute_batch(&mismatching_lines());
        assert!(!quit);
        assert_eq!(
            replies,
            vec![MISMATCH; mismatching_lines().len()],
            "{shards} shards"
        );
        let (after, _) = server.execute_batch(&valid_queries());
        assert_eq!(before, after, "{shards} shards: served state changed");
    }
}

#[test]
fn empty_database_takes_dimensionality_from_standing_queries() {
    let mut server = empty_server(cfg(), 1, 8);
    let q2 = json(&UncertainObject::certain(Point::from([0.5, 0.5])));
    let o3 = json(&UncertainObject::certain(Point::from([0.5, 0.5, 0.5])));
    let (replies, _) = server.execute_batch(&[
        format!("SUB KNN 1 0.5 {q2}"),
        format!("INSERT {o3}"),
        format!("INSERT {q2}"),
    ]);
    assert_eq!(replies[0], "SUB 1 RES -");
    assert_eq!(replies[1], MISMATCH);
    assert_eq!(replies[2], "OK 0");
}

#[test]
fn tcp_server_survives_a_wrong_dimension_line() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = seeded_server(2);
    let handle = std::thread::spawn(move || {
        front::serve_listener(server, listener, Some(2)).expect("serve")
    });
    let run = |lines: &[String]| -> Vec<String> {
        let mut conn = TcpStream::connect(addr).expect("connect");
        for line in lines {
            writeln!(conn, "{line}").expect("send");
        }
        conn.shutdown(Shutdown::Write).expect("half-close");
        BufReader::new(conn)
            .lines()
            .map(|l| l.expect("reply"))
            .collect()
    };
    let o3 = json(&UncertainObject::certain(Point::from([0.5, 0.5, 0.5])));
    let first = run(&[format!("KNN 1 0.5 {o3}"), "STATS".to_owned()]);
    assert_eq!(first[0], MISMATCH);
    assert!(first[1].starts_with("OK objects=30 "), "{first:?}");
    // a later connection is still served
    let second = run(&valid_queries());
    assert!(second[0].starts_with("RES "), "{second:?}");
    assert!(second[3].starts_with("OK objects=30 "), "{second:?}");
    handle.join().expect("server thread");
}

/// A run of inserts into an empty database takes its dimensionality
/// from the run's first object: mismatching lines reply `ERR` in place,
/// at any batch cap, and the server never panics.
#[test]
fn insert_run_into_empty_database_checks_against_its_first_object() {
    let o2 = |x: f64| json(&UncertainObject::certain(Point::from([x, 0.5])));
    let o3 = json(&UncertainObject::certain(Point::from([0.5, 0.5, 0.5])));
    let lines = vec![
        format!("INSERT {}", o2(0.1)),
        format!("INSERT {o3}"),
        format!("INSERT {}", o2(0.2)),
        format!("INSERT {o3}"),
        format!("KNN 1 0.5 {o3}"),
        format!("INSERT {}", o2(0.3)),
        "STATS".to_owned(),
    ];
    for shards in [1, 2] {
        for cap in [1, 16] {
            let (replies, _) = empty_server(cfg(), shards, cap).execute_batch(&lines);
            assert_eq!(
                replies,
                vec![
                    "OK 0",
                    MISMATCH,
                    "OK 1",
                    MISMATCH,
                    MISMATCH,
                    "OK 2",
                    "OK objects=3 mutations=3 subs=0 maintained=0 reanswered=0 notified=0",
                ],
                "{shards} shards, cap {cap}"
            );
        }
    }
    // the first object decides, whatever its dimensionality
    let (replies, _) = empty_server(cfg(), 1, 16)
        .execute_batch(&[format!("INSERT {o3}"), format!("INSERT {}", o2(0.1))]);
    assert_eq!(
        replies,
        vec!["OK 0", "ERR object has 2 dimensions, the database has 3"]
    );
}
