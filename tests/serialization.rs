//! Serde round-trips: databases, objects and every density family survive
//! JSON serialization, so datasets and experiment inputs can be stored
//! and exchanged.

use uncertain_db::prelude::*;

fn round_trip(db: &Database) -> Database {
    let json = serde_json::to_string(db).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn database_round_trip_preserves_geometry() {
    let cfg = SyntheticConfig {
        n: 50,
        ..Default::default()
    };
    let db = cfg.generate();
    let back = round_trip(&db);
    assert_eq!(back.len(), db.len());
    for ((_, a), (_, b)) in db.iter().zip(back.iter()) {
        assert_eq!(a.mbr(), b.mbr());
        assert_eq!(a.existence(), b.existence());
    }
}

#[test]
fn every_density_family_round_trips() {
    let support = Rect::centered(&Point::from([0.5, 0.5]), &[0.5, 0.5]);
    let objects = vec![
        UncertainObject::new(Pdf::uniform(support.clone())),
        UncertainObject::new(
            GaussianPdf::new(Point::from([0.5, 0.5]), vec![0.2, 0.2], support.clone()).into(),
        ),
        UncertainObject::new(
            HistogramPdf::from_correlated_gaussian(
                Point::from([0.5, 0.5]),
                [0.2, 0.2],
                0.5,
                support.clone(),
                8,
            )
            .into(),
        ),
        UncertainObject::new(
            DiscretePdf::new(
                vec![Point::from([0.2, 0.2]), Point::from([0.8, 0.8])],
                vec![0.3, 0.7],
            )
            .into(),
        ),
        UncertainObject::new(
            MixturePdf::new(vec![
                (0.5, Pdf::uniform(support.clone())),
                (
                    0.5,
                    Pdf::uniform(Rect::centered(&Point::from([2.0, 2.0]), &[0.1, 0.1])),
                ),
            ])
            .into(),
        ),
        UncertainObject::with_existence(Pdf::uniform(support), 0.4),
    ];
    let db = Database::from_objects(objects);
    let back = round_trip(&db);
    // masses computed after the round trip must match
    let probe = Rect::centered(&Point::from([0.4, 0.4]), &[0.2, 0.2]);
    for ((_, a), (_, b)) in db.iter().zip(back.iter()) {
        let ma = a.pdf().mass_in(&probe);
        let mb = b.pdf().mass_in(&probe);
        assert!((ma - mb).abs() < 1e-12, "mass changed: {ma} vs {mb}");
    }
}

#[test]
fn queries_agree_after_round_trip() {
    let cfg = SyntheticConfig {
        n: 120,
        max_extent: 0.02,
        ..Default::default()
    };
    let db = cfg.generate();
    let back = round_trip(&db);
    let q = UncertainObject::certain(Point::from([0.5, 0.5]));
    let a = Engine::new(db).knn_threshold(&q, 3, 0.5);
    let b = Engine::new(back).knn_threshold(&q, 3, 0.5);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.id, y.id);
        assert!((x.prob_lower - y.prob_lower).abs() < 1e-12);
        assert!((x.prob_upper - y.prob_upper).abs() < 1e-12);
    }
}

#[test]
fn workload_configs_round_trip() {
    let cfg = SyntheticConfig::default();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SyntheticConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.n, cfg.n);
    assert_eq!(back.seed, cfg.seed);
    let ic = IcebergConfig::default();
    let json = serde_json::to_string(&ic).unwrap();
    let back: IcebergConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.n, ic.n);
}

#[test]
fn database_with_tombstones_round_trips() {
    let cfg = SyntheticConfig {
        n: 20,
        ..Default::default()
    };
    let mut db = cfg.generate();
    db.remove(ObjectId(0));
    db.remove(ObjectId(7));
    let back = round_trip(&db);
    assert_eq!(back.len(), db.len());
    assert!(!back.contains(ObjectId(0)));
    assert!(!back.contains(ObjectId(7)));
    assert_eq!(back.dims(), db.dims());
    let ids: Vec<ObjectId> = back.ids().collect();
    assert_eq!(ids, db.ids().collect::<Vec<_>>());
}

/// The pre-mutation wire format — `objects` as a plain object list, no
/// `live`/`dims` fields — still loads (the counters are recomputed from
/// the slots on deserialization).
#[test]
fn pre_tombstone_wire_format_still_loads() {
    let objects = [
        UncertainObject::certain(Point::from([1.0, 2.0])),
        UncertainObject::certain(Point::from([3.0, 4.0])),
    ];
    let old_json = format!(
        "{{\"objects\":[{},{}]}}",
        serde_json::to_string(&objects[0]).unwrap(),
        serde_json::to_string(&objects[1]).unwrap()
    );
    let db: Database = serde_json::from_str(&old_json).expect("old format deserializes");
    assert_eq!(db.len(), 2);
    assert_eq!(db.dims(), Some(2));
    assert_eq!(db.get(ObjectId(1)).mean(), Point::from([3.0, 4.0]));
}
