//! The uncertain database `D = {o_1, ..., o_N}`.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use udb_geometry::codec::{self, Reader};
use udb_geometry::Rect;

use crate::object::{ObjectId, UncertainObject};

/// An in-memory uncertain database supporting in-place mutation. Object
/// ids are stable; [`Database::remove`] leaves a tombstone, so an id is
/// never reused — a removed id stays invalid forever, and every id
/// handed out by [`Database::insert`] is fresh. That stability is what
/// lets engine-level caches key on [`ObjectId`] across mutations: an id
/// either still names the same object, was explicitly replaced
/// ([`Database::replace`]), or is dead.
///
/// Id `i` lives in slot `i - base`. [`Database::compact`] reclaims the
/// *leading* run of tombstones by advancing `base` — the ids stay dead
/// (they are below `base` forever), interior tombstones stay in place
/// (dropping them would shift live ids), and `base + objects.len()`
/// (the next fresh id) is preserved, so a compacted database hands out
/// exactly the same ids as an uncompacted one.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Database {
    /// Slot per not-yet-compacted object; `None` marks a removed object.
    objects: Vec<Option<UncertainObject>>,
    /// Number of live (non-tombstoned) objects.
    live: usize,
    /// Dimensionality of the stored objects, fixed by the first object
    /// ever inserted (an O(1) cache: deriving it from the first *live*
    /// object would scan the tombstone prefix on churn-heavy streams).
    dims: Option<usize>,
    /// Ids below this are compacted-away tombstones: dead forever, no
    /// slot. Slot index of id `i` is `i - base`.
    base: u32,
}

// Hand-written so stored datasets survive the tombstone and compaction
// redesigns: the pre-mutation wire format (`objects` as a plain object
// list, no `live`/`dims`/`base` fields) still loads — a missing `base`
// means 0 — and the counters are *recomputed* from the slots rather
// than trusted, so every historical shape deserializes into a
// consistent database.
impl Deserialize for Database {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let slots = match v.field("objects")? {
            Value::Seq(entries) => entries
                .iter()
                .map(Option::<UncertainObject>::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            other => return Err(SerdeError::msg(format!("`objects`: not a list: {other:?}"))),
        };
        let base = match v.field("base") {
            Ok(b) => u32::from_value(b)?,
            Err(_) => 0,
        };
        let live = slots.iter().filter(|s| s.is_some()).count();
        let dims = slots.iter().flatten().next().map(UncertainObject::dims);
        Ok(Database {
            objects: slots,
            live,
            dims,
            base,
        })
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Builds a database from objects.
    ///
    /// # Panics
    /// Panics if objects disagree on dimensionality.
    pub fn from_objects(objects: Vec<UncertainObject>) -> Self {
        if let Some(first) = objects.first() {
            let d = first.dims();
            assert!(
                objects.iter().all(|o| o.dims() == d),
                "all database objects must share dimensionality"
            );
        }
        let live = objects.len();
        Database {
            dims: objects.first().map(UncertainObject::dims),
            objects: objects.into_iter().map(Some).collect(),
            live,
            base: 0,
        }
    }

    /// Appends the binary encoding ([`udb_geometry::codec`]): the id
    /// base, the slot count, then per slot a `0` byte for a tombstone or
    /// a `1` byte and the object.
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.base);
        codec::put_len(out, self.objects.len());
        for slot in &self.objects {
            match slot {
                None => out.push(0),
                Some(object) => {
                    out.push(1);
                    object.encode(out);
                }
            }
        }
    }

    /// Reads a database written by [`Database::encode`]. As in
    /// deserialization, the live count and dimensionality are recomputed
    /// from the slots, not read.
    ///
    /// # Errors
    /// On truncation, an invalid object, live objects of different
    /// dimensionality, or more ids than an [`ObjectId`] can name.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let base = r.u32()?;
        let n = r.len(1)?;
        if u64::from(base) + n as u64 > u64::from(u32::MAX) {
            return Err(format!(
                "{n} slots above id base {base} overflow the id space"
            ));
        }
        let mut objects = Vec::with_capacity(n);
        let mut dims = None;
        for _ in 0..n {
            let slot = match r.u8()? {
                0 => None,
                1 => {
                    let object = UncertainObject::decode(r)?;
                    if *dims.get_or_insert(object.dims()) != object.dims() {
                        return Err("live objects differ in dimensionality".to_owned());
                    }
                    Some(object)
                }
                tag => return Err(format!("unknown slot tag {tag}")),
            };
            objects.push(slot);
        }
        Ok(Database {
            live: objects.iter().flatten().count(),
            objects,
            dims,
            base,
        })
    }

    /// Slot index of `id`, if the id was ever issued and not compacted
    /// away (`None` below `base`; out-of-range indices are the caller's
    /// concern, exactly like the pre-compaction direct indexing).
    fn slot(&self, id: ObjectId) -> Option<usize> {
        id.index().checked_sub(self.base as usize)
    }

    /// Appends an object, returning its (fresh, never-reused) id.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch with existing objects.
    pub fn insert(&mut self, object: UncertainObject) -> ObjectId {
        if let Some(d) = self.dims() {
            assert_eq!(
                d,
                object.dims(),
                "object dimensionality must match the database"
            );
        }
        self.dims = Some(object.dims());
        let next = (self.base as usize)
            .checked_add(self.objects.len())
            .and_then(|n| u32::try_from(n).ok())
            .expect("database too large");
        let id = ObjectId(next);
        self.objects.push(Some(object));
        self.live += 1;
        id
    }

    /// Reclaims the leading run of tombstones by advancing the id base,
    /// returning how many slots were dropped. Ids stay stable: compacted
    /// ids were already dead and remain dead, live ids keep their slots
    /// (only *leading* tombstones compact — dropping interior ones would
    /// shift live ids), and the next fresh id is unchanged. Engines call
    /// this at checkpoint time, where the index is rebuilt anyway.
    pub fn compact(&mut self) -> usize {
        let lead = self.objects.iter().take_while(|s| s.is_none()).count();
        if lead > 0 {
            self.objects.drain(..lead);
            self.base += u32::try_from(lead).expect("database too large");
        }
        lead
    }

    /// Ids below this were compacted away ([`Database::compact`]); they
    /// are dead and hold no slot.
    pub fn base_id(&self) -> u32 {
        self.base
    }

    /// The id the next [`Database::insert`] will assign — equivalently,
    /// how many objects were ever inserted (ids are never reused, so the
    /// insertion count survives removals and compaction).
    pub fn next_id(&self) -> u32 {
        (self.base as usize)
            .checked_add(self.objects.len())
            .and_then(|n| u32::try_from(n).ok())
            .expect("database too large")
    }

    /// Removes an object in place, returning it. The slot becomes a
    /// tombstone: the id is invalid from here on and never reused.
    ///
    /// # Panics
    /// Panics if `id` is out of range or already removed.
    pub fn remove(&mut self, id: ObjectId) -> UncertainObject {
        let idx = self
            .slot(id)
            .unwrap_or_else(|| panic!("{id:?} already removed"));
        let slot = self
            .objects
            .get_mut(idx)
            .unwrap_or_else(|| panic!("{id:?} out of range"));
        let object = slot
            .take()
            .unwrap_or_else(|| panic!("{id:?} already removed"));
        self.live -= 1;
        object
    }

    /// Replaces the object behind a live id in place, returning the
    /// previous object. The id keeps naming the (new) object.
    ///
    /// # Panics
    /// Panics if `id` is dead or the new object's dimensionality differs.
    pub fn replace(&mut self, id: ObjectId, object: UncertainObject) -> UncertainObject {
        let old = self
            .slot(id)
            .and_then(|idx| self.objects.get_mut(idx))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("{id:?} is not a live object"));
        assert_eq!(
            old.dims(),
            object.dims(),
            "object dimensionality must match the database"
        );
        std::mem::replace(old, object)
    }

    /// Whether `id` names a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        matches!(
            self.slot(id).and_then(|idx| self.objects.get(idx)),
            Some(Some(_))
        )
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the database holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the stored objects (`None` when empty).
    pub fn dims(&self) -> Option<usize> {
        if self.live > 0 {
            self.dims
        } else {
            None
        }
    }

    /// The object with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range or removed.
    pub fn get(&self, id: ObjectId) -> &UncertainObject {
        let idx = self
            .slot(id)
            .unwrap_or_else(|| panic!("{id:?} was removed"));
        self.objects[idx]
            .as_ref()
            .unwrap_or_else(|| panic!("{id:?} was removed"))
    }

    /// The object with the given id, if live.
    pub fn try_get(&self, id: ObjectId) -> Option<&UncertainObject> {
        self.slot(id)
            .and_then(|idx| self.objects.get(idx))
            .and_then(Option::as_ref)
    }

    /// Iterates `(id, object)` pairs over the live objects.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &UncertainObject)> {
        let base = self.base;
        self.objects
            .iter()
            .enumerate()
            .filter_map(move |(i, o)| o.as_ref().map(|o| (ObjectId(base + i as u32), o)))
    }

    /// All live object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// `(id, mbr)` pairs of the live objects, the input to spatial index
    /// construction.
    pub fn mbrs(&self) -> impl Iterator<Item = (ObjectId, &Rect)> {
        self.iter().map(|(id, o)| (id, o.mbr()))
    }
}

impl std::ops::Index<ObjectId> for Database {
    type Output = UncertainObject;
    fn index(&self, id: ObjectId) -> &UncertainObject {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_geometry::{Interval, Point};
    use udb_pdf::Pdf;

    fn obj(x: f64) -> UncertainObject {
        UncertainObject::new(Pdf::uniform(Rect::new(vec![
            Interval::new(x, x + 1.0),
            Interval::new(0.0, 1.0),
        ])))
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut db = Database::new();
        assert!(db.is_empty());
        let a = db.insert(obj(0.0));
        let b = db.insert(obj(5.0));
        assert_eq!(a, ObjectId(0));
        assert_eq!(b, ObjectId(1));
        assert_eq!(db.len(), 2);
        assert_eq!(db.dims(), Some(2));
    }

    #[test]
    fn get_and_index() {
        let db = Database::from_objects(vec![obj(0.0), obj(5.0)]);
        assert_eq!(db.get(ObjectId(1)).mbr().lo(), Point::from([5.0, 0.0]));
        assert_eq!(db[ObjectId(0)].mbr().lo(), Point::from([0.0, 0.0]));
        assert!(db.try_get(ObjectId(7)).is_none());
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let db = Database::from_objects(vec![obj(0.0), obj(1.0), obj(2.0)]);
        let ids: Vec<ObjectId> = db.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(db.ids().count(), 3);
        assert_eq!(db.mbrs().count(), 3);
    }

    #[test]
    fn remove_tombstones_and_ids_are_never_reused() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0), obj(2.0)]);
        let gone = db.remove(ObjectId(1));
        assert_eq!(gone.mbr().lo(), Point::from([1.0, 0.0]));
        assert_eq!(db.len(), 2);
        assert!(!db.contains(ObjectId(1)));
        assert!(db.try_get(ObjectId(1)).is_none());
        let ids: Vec<ObjectId> = db.ids().collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(2)]);
        // a fresh insert does not resurrect the removed id
        let new_id = db.insert(obj(9.0));
        assert_eq!(new_id, ObjectId(3));
        assert!(!db.contains(ObjectId(1)));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn replace_swaps_in_place() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0)]);
        let old = db.replace(ObjectId(0), obj(7.0));
        assert_eq!(old.mbr().lo(), Point::from([0.0, 0.0]));
        assert_eq!(db.get(ObjectId(0)).mbr().lo(), Point::from([7.0, 0.0]));
        assert_eq!(db.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut db = Database::from_objects(vec![obj(0.0)]);
        db.remove(ObjectId(0));
        db.remove(ObjectId(0));
    }

    #[test]
    #[should_panic(expected = "not a live object")]
    fn replace_dead_id_panics() {
        let mut db = Database::from_objects(vec![obj(0.0)]);
        db.remove(ObjectId(0));
        db.replace(ObjectId(0), obj(1.0));
    }

    #[test]
    fn dims_skips_tombstones() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0)]);
        db.remove(ObjectId(0));
        assert_eq!(db.dims(), Some(2));
        db.remove(ObjectId(1));
        assert_eq!(db.dims(), None);
        assert!(db.is_empty());
    }

    #[test]
    fn compact_drops_leading_tombstones_only() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0), obj(2.0), obj(3.0)]);
        db.remove(ObjectId(0));
        db.remove(ObjectId(1));
        db.remove(ObjectId(3)); // interior-after-compaction tombstone
        assert_eq!(db.compact(), 2);
        assert_eq!(db.base_id(), 2);
        assert_eq!(db.len(), 1);
        // compacted ids stay dead, with the pre-compaction behaviour
        assert!(!db.contains(ObjectId(0)));
        assert!(db.try_get(ObjectId(1)).is_none());
        // live ids are untouched
        assert_eq!(db.get(ObjectId(2)).mbr().lo(), Point::from([2.0, 0.0]));
        assert_eq!(db.ids().collect::<Vec<_>>(), vec![ObjectId(2)]);
        // the interior tombstone did not compact (ids must not shift)
        assert_eq!(db.compact(), 0);
        // fresh ids continue exactly where they would have anyway
        assert_eq!(db.insert(obj(9.0)), ObjectId(4));
        assert_eq!(db.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn compacted_id_remove_panics() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0)]);
        db.remove(ObjectId(0));
        db.compact();
        db.remove(ObjectId(0));
    }

    #[test]
    fn compact_round_trips_through_serde() {
        let mut db = Database::from_objects(vec![obj(0.0), obj(1.0), obj(2.0)]);
        db.remove(ObjectId(0));
        db.compact();
        let json = serde_json::to_string(&db).unwrap();
        let back: Database = serde_json::from_str(&json).unwrap();
        assert_eq!(back.base_id(), 1);
        assert_eq!(back.len(), 2);
        assert_eq!(back.ids().collect::<Vec<_>>(), db.ids().collect::<Vec<_>>());
        let mut b2 = back;
        assert_eq!(b2.insert(obj(5.0)), ObjectId(3));
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn mixed_dimensionality_rejected() {
        let one_d = UncertainObject::new(Pdf::uniform(Rect::new(vec![Interval::new(0.0, 1.0)])));
        let _ = Database::from_objects(vec![obj(0.0), one_d]);
    }
}
