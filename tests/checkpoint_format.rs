//! The binary checkpoint through `Engine::open`: a recovered database is
//! bit-identical to the live one for every density family, and a
//! directory written in the retired JSON format (`UDBCKPT1`) is refused
//! with an error that names it, never opened as an empty database.

use std::path::{Path, PathBuf};
use uncertain_db::prelude::*;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udb-ckfmt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> IdcaConfig {
    IdcaConfig {
        checkpoint_every: 0,
        ..Default::default()
    }
}

/// One object of every density family, nested mixtures included, with
/// signed zeros, tiny values and existence below 1.
fn every_family() -> Vec<UncertainObject> {
    let support = Rect::new(vec![Interval::new(-0.0, 0.5), Interval::new(1e-300, 0.25)]);
    let center = Point::from([0.2, 0.1]);
    let gaussian: Pdf = GaussianPdf::new(center.clone(), vec![0.125, 1e-3], support.clone()).into();
    let histogram: Pdf =
        HistogramPdf::from_correlated_gaussian(center, [0.1, 0.05], -0.4, support.clone(), 5)
            .into();
    let discrete: Pdf = DiscretePdf::new(
        vec![
            Point::from([-0.0, 1e-300]),
            Point::from([0.3, 0.1]),
            Point::from([0.3, 0.1]),
        ],
        vec![1.0, 3.0, 0.1],
    )
    .into();
    let inner: Pdf = MixturePdf::new(vec![(0.3, gaussian.clone()), (0.7, discrete.clone())]).into();
    let nested: Pdf = MixturePdf::new(vec![
        (2.0, inner),
        (1.0, Pdf::uniform(support.clone())),
        (0.5, histogram.clone()),
    ])
    .into();
    vec![
        UncertainObject::new(Pdf::uniform(support)),
        UncertainObject::with_existence(gaussian, 0.75),
        UncertainObject::new(histogram),
        UncertainObject::with_existence(discrete, 1e-300),
        UncertainObject::new(nested),
        UncertainObject::certain(Point::from([-0.0, 0.0])),
    ]
}

fn assert_same_db(live: &Database, recovered: &Database) {
    // float Debug output round-trips, so equal text is equal bits, derived
    // fields (normalizations, running sums, regions) included
    assert_eq!(format!("{live:?}"), format!("{recovered:?}"));
    for ((a, x), (b, y)) in live.iter().zip(recovered.iter()) {
        assert_eq!(a, b);
        assert_eq!(x.existence().to_bits(), y.existence().to_bits());
        for (p, q) in x.mbr().intervals().iter().zip(y.mbr().intervals()) {
            assert_eq!(p.lo().to_bits(), q.lo().to_bits());
            assert_eq!(p.hi().to_bits(), q.hi().to_bits());
        }
        let (mx, my) = (x.mean(), y.mean());
        for (p, q) in mx.coords().iter().zip(my.coords()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

#[test]
fn recovered_database_is_bit_identical_for_every_family() {
    let dir = test_dir("families");
    let mut engine = Engine::open_with_config(&dir, cfg()).expect("open");
    for object in every_family() {
        engine.try_insert(object).expect("insert");
    }
    // a leading tombstone compacts away at the checkpoint (base > 0), an
    // interior one stays; the second round of inserts is a WAL tail
    engine.try_remove(ObjectId(0)).expect("remove");
    engine.try_remove(ObjectId(3)).expect("remove");
    engine.checkpoint().expect("checkpoint");
    assert_eq!(engine.db().base_id(), 1);
    for object in every_family().into_iter().rev() {
        engine.try_insert(object).expect("insert");
    }
    engine.wal_sync().expect("sync");
    let live = engine.db().clone();
    drop(engine);

    let reopened = Engine::open_with_config(&dir, cfg()).expect("reopen");
    let report = reopened.recovery_report().expect("opened");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_eq!(report.replayed, 6);
    assert_same_db(&live, reopened.db());
    drop(reopened);

    // the second reopen loads the checkpoint-on-open alone
    let again = Engine::open_with_config(&dir, cfg()).expect("reopen");
    assert_eq!(again.recovery_report().expect("opened").replayed, 0);
    assert_same_db(&live, again.db());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory written by the JSON-checkpoint build: one shard, two
/// `UDBCKPT1` checkpoints (the second holds 3 objects) and a WAL segment.
fn fixture() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/udbckpt1"
    ))
}

/// Copies `from` into `to`, one level of subdirectories deep.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture") {
        let path = entry.expect("entry").path();
        let target = to.join(path.file_name().expect("name"));
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).expect("copy");
        }
    }
}

fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let path = e.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read"))
        })
        .collect();
    files.sort();
    files
}

fn assert_names_retired_format(err: DurableError) {
    match &err {
        DurableError::NoValidCheckpoint { warnings } => {
            assert_eq!(warnings.len(), 2, "{warnings:?}");
            assert!(
                warnings.iter().all(|w| w.contains("UDBCKPT1")),
                "{warnings:?}"
            );
        }
        other => panic!("wrong error: {other}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("retired JSON checkpoint format UDBCKPT1"),
        "{text}"
    );
}

#[test]
fn retired_json_checkpoints_are_refused_by_name() {
    let dir = test_dir("retired");
    copy_dir(fixture(), &dir);
    let shard = dir.join("shard-0");
    let before = listing(&shard);
    assert_eq!(
        before.len(),
        3,
        "fixture: two checkpoints and a WAL segment"
    );

    match Engine::open_with_config(&shard, cfg()) {
        Err(err) => assert_names_retired_format(err),
        Ok(engine) => panic!("opened {} objects from a retired format", engine.db().len()),
    }
    match ShardedEngine::open(&dir, cfg(), 1) {
        Err(err) => assert_names_retired_format(err),
        Ok(engine) => panic!("opened {} objects from a retired format", engine.len()),
    }
    // a refused open writes nothing: no new checkpoint, nothing pruned
    assert_eq!(listing(&shard), before);
    let _ = std::fs::remove_dir_all(&dir);
}
