//! The stored shapes of a database, in ascending id order, kept in
//! fixed-size chunks that database snapshots share.
//!
//! [`crate::SearchServer`] derives each snapshot from the last by
//! cloning the database. A flat list of shape pointers made that clone
//! cost one reference-count increment per stored shape, and as many
//! decrements when the replaced snapshot dropped. Here a clone copies
//! one pointer per chunk, and a write copies only the chunk it changes
//! ([`Arc::make_mut`]).

use std::ops::Index;
use std::sync::Arc;

use crate::db::{ShapeId, StoredShape};

/// Shapes per chunk, at most. A write copies one chunk, and a clone
/// one pointer per chunk: 512 keeps both to a few hundred pointers
/// from 10³ to 10⁵ shapes. Chunks of 256 and 1,024 removed within a
/// few µs of it at 10⁴ and 10⁵ shapes.
const CHUNK: usize = 512;

/// A run of consecutive shapes: their ids, contiguous so a lookup by
/// id never leaves the array, beside the shapes.
#[derive(Debug, Clone, Default)]
struct Chunk {
    ids: Vec<ShapeId>,
    shapes: Vec<Arc<StoredShape>>,
}

/// The shape list of one database.
///
/// Ids ascend strictly over the whole list. Every chunk holds 1 to
/// [`CHUNK`] shapes, and every chunk but the last at least half of
/// [`CHUNK`]: a remove that leaves a chunk below half merges it with
/// the next one. Inserts append to the last chunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShapeList {
    /// Each chunk beside its first id, so a lookup by id finds its
    /// chunk by a binary search over this array.
    chunks: Vec<(ShapeId, Arc<Chunk>)>,
    len: usize,
}

impl ShapeList {
    /// The list of loaded `shapes`, rejecting ids a lookup cannot
    /// serve: they must ascend strictly, and stay below `next_id` so
    /// the next insert keeps them ascending.
    pub(crate) fn from_loaded(
        shapes: Vec<Arc<StoredShape>>,
        next_id: ShapeId,
    ) -> Result<ShapeList, String> {
        check_ids(shapes.iter().map(|s| s.id), next_id)?;
        let mut list = ShapeList::default();
        for shape in shapes {
            list.push(shape);
        }
        Ok(list)
    }

    /// A borrowed view of every shape, in id order.
    pub(crate) fn view(&self) -> Shapes<'_> {
        Shapes { list: self }
    }

    /// Number of shapes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends a shape whose id is above every stored id.
    pub(crate) fn push(&mut self, shape: Arc<StoredShape>) {
        let id = shape.id;
        match self.chunks.last_mut() {
            Some((_, last)) if last.ids.len() < CHUNK => {
                let last = Arc::make_mut(last);
                last.ids.push(id);
                last.shapes.push(shape);
            }
            _ => self.chunks.push((
                id,
                Arc::new(Chunk {
                    // hotpath: allow(hot-alloc) — a new chunk, once per `CHUNK` inserts
                    ids: vec![id],
                    shapes: vec![shape],
                }),
            )),
        }
        self.len += 1;
    }

    /// The shape with id `id`.
    pub(crate) fn get(&self, id: ShapeId) -> Option<&Arc<StoredShape>> {
        let (c, i) = self.find(id)?;
        self.chunks[c].1.shapes.get(i)
    }

    /// Removes the shape with id `id`. Its chunk is copied if a
    /// snapshot shares it, and merged with the next chunk if it falls
    /// below half of [`CHUNK`].
    pub(crate) fn remove(&mut self, id: ShapeId) -> Option<Arc<StoredShape>> {
        let (c, i) = self.find(id)?;
        let (start, chunk) = &mut self.chunks[c];
        let chunk = Arc::make_mut(chunk);
        chunk.ids.remove(i);
        let shape = chunk.shapes.remove(i);
        self.len -= 1;
        match chunk.ids.first() {
            None => {
                self.chunks.remove(c);
            }
            Some(&first) => {
                *start = first;
                if chunk.ids.len() < CHUNK / 2 && c + 1 < self.chunks.len() {
                    self.merge_with_next(c);
                }
            }
        }
        Some(shape)
    }

    /// Chunk `c` and the position in it of id `id`, by two binary
    /// searches: the chunks' first ids, then the chunk's ids.
    fn find(&self, id: ShapeId) -> Option<(usize, usize)> {
        let c = self
            .chunks
            .partition_point(|&(start, _)| start <= id)
            .checked_sub(1)?;
        let i = self.chunks[c].1.ids.binary_search(&id).ok()?;
        Some((c, i))
    }

    /// Moves the shapes of chunk `c + 1` into chunk `c`, and splits the
    /// result into two halves if it holds more than [`CHUNK`].
    fn merge_with_next(&mut self, c: usize) {
        let (_, next) = self.chunks.remove(c + 1);
        let chunk = Arc::make_mut(&mut self.chunks[c].1);
        chunk.ids.extend_from_slice(&next.ids);
        chunk.shapes.extend_from_slice(&next.shapes);
        if chunk.ids.len() > CHUNK {
            let half = chunk.ids.len() / 2;
            let tail = Chunk {
                ids: chunk.ids.split_off(half),
                shapes: chunk.shapes.split_off(half),
            };
            self.chunks.insert(c + 1, (tail.ids[0], Arc::new(tail)));
        }
    }

    /// Checks the invariants stated on [`ShapeList`], and that every id
    /// is below `next_id`.
    pub(crate) fn check(&self, next_id: ShapeId) -> Result<(), String> {
        let mut count = 0;
        for (c, (start, chunk)) in self.chunks.iter().enumerate() {
            let n = chunk.ids.len();
            let least = if c + 1 == self.chunks.len() {
                1
            } else {
                CHUNK / 2
            };
            if !(least..=CHUNK).contains(&n) {
                return Err(format!("chunk {c} holds {n} shapes"));
            }
            let ids = chunk.shapes.iter().map(|s| s.id);
            if chunk.shapes.len() != n || !ids.eq(chunk.ids.iter().copied()) {
                return Err(format!("chunk {c}: id array out of step with its shapes"));
            }
            if *start != chunk.ids[0] {
                return Err(format!(
                    "chunk {c} starts at {}, filed under {start}",
                    chunk.ids[0]
                ));
            }
            count += n;
        }
        if count != self.len {
            return Err(format!("{count} shapes in chunks, length {}", self.len));
        }
        check_ids(self.view().iter().map(|s| s.id), next_id)
    }
}

/// Whether `ids` ascend strictly and stay below `next_id`.
fn check_ids(ids: impl Iterator<Item = ShapeId>, next_id: ShapeId) -> Result<(), String> {
    let mut last = None;
    for id in ids {
        match last {
            Some(prev) if id <= prev => {
                return Err(format!(
                    "shape ids not strictly ascending: {id} follows {prev}"
                ))
            }
            _ => last = Some(id),
        }
    }
    match last {
        Some(last) if next_id <= last => Err(format!(
            "next_id {next_id} would collide with stored id {last}"
        )),
        _ => Ok(()),
    }
}

/// The stored shapes of a database in ascending id order
/// ([`crate::ShapeDatabase::shapes`]), borrowed from it.
#[derive(Debug, Clone, Copy)]
pub struct Shapes<'a> {
    list: &'a ShapeList,
}

impl<'a> Shapes<'a> {
    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.list.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.list.len == 0
    }

    /// Every shape, in ascending id order.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            chunks: self.list.chunks.iter(),
            shapes: [].iter(),
            remaining: self.list.len,
        }
    }
}

impl<'a> IntoIterator for Shapes<'a> {
    type Item = &'a Arc<StoredShape>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Index<usize> for Shapes<'_> {
    type Output = Arc<StoredShape>;

    /// The shape at position `i` in id order, found by walking the
    /// chunk lengths. Panics if `i` is not below [`Shapes::len`].
    fn index(&self, mut i: usize) -> &Arc<StoredShape> {
        let chunks = &self.list.chunks;
        let mut c = 0;
        while c + 1 < chunks.len() && i >= chunks[c].1.shapes.len() {
            i -= chunks[c].1.shapes.len();
            c += 1;
        }
        &chunks[c].1.shapes[i]
    }
}

/// The iterator of [`Shapes::iter`]. It knows its length, so a
/// `collect` allocates once.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, (ShapeId, Arc<Chunk>)>,
    shapes: std::slice::Iter<'a, Arc<StoredShape>>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Arc<StoredShape>;

    fn next(&mut self) -> Option<&'a Arc<StoredShape>> {
        loop {
            if let Some(shape) = self.shapes.next() {
                self.remaining -= 1;
                return Some(shape);
            }
            self.shapes = self.chunks.next()?.1.shapes.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use tdess_features::FeatureSet;
    use tdess_geom::TriMesh;

    fn shape(id: ShapeId) -> Arc<StoredShape> {
        Arc::new(StoredShape {
            id,
            name: format!("s{id}"),
            mesh: TriMesh::new(Vec::new(), Vec::new()),
            features: FeatureSet {
                moment_invariants: Vec::new(),
                geometric: Vec::new(),
                principal_moments: Vec::new(),
                eigenvalues: Vec::new(),
                higher_order: Vec::new(),
                shape_distribution: Vec::new(),
                shell_histogram: Vec::new(),
            },
        })
    }

    fn ids(list: &ShapeList) -> Vec<ShapeId> {
        list.view().iter().map(|s| s.id).collect()
    }

    /// Pushes and removes across chunk boundaries keep every invariant,
    /// lookups, positions and order, and leave a clone taken earlier
    /// as it was.
    #[test]
    fn writes_keep_the_chunk_invariants_and_spare_clones() {
        let n = 3 * CHUNK + 7;
        let mut list = ShapeList::default();
        for id in 1..=n as ShapeId {
            list.push(shape(id));
        }
        list.check(n as ShapeId + 1).unwrap();
        assert_eq!(list.chunks.len(), 4);
        let before = list.clone();
        let mut want: Vec<ShapeId> = (1..=n as ShapeId).collect();
        // Empty the second chunk from its front, then shrink the first
        // from its back: both fall below half and merge.
        let mut removed = Vec::new();
        for id in (CHUNK as ShapeId + 1..=2 * CHUNK as ShapeId)
            .chain((CHUNK as ShapeId / 2..=CHUNK as ShapeId).rev())
        {
            assert_eq!(list.remove(id).map(|s| s.id), Some(id));
            removed.push(id);
            list.check(n as ShapeId + 1).unwrap();
        }
        want.retain(|id| !removed.contains(id));
        assert_eq!(ids(&list), want);
        assert_eq!(list.len(), want.len());
        assert_eq!(list.view().iter().len(), want.len());
        for (i, &id) in want.iter().enumerate() {
            assert_eq!(list.view()[i].id, id);
            assert_eq!(list.get(id).map(|s| s.id), Some(id));
        }
        for &id in &removed {
            assert!(list.get(id).is_none());
            assert!(list.remove(id).is_none());
        }
        assert!(list.get(0).is_none() && list.get(n as ShapeId + 1).is_none());
        assert_eq!(ids(&before), (1..=n as ShapeId).collect::<Vec<_>>());
        before.check(n as ShapeId + 1).unwrap();
        // Down to nothing and back.
        for id in want {
            list.remove(id);
        }
        assert!(list.view().is_empty() && list.chunks.is_empty());
        list.push(shape(n as ShapeId + 1));
        list.check(n as ShapeId + 2).unwrap();
    }

    #[test]
    fn loaded_ids_must_ascend_below_next_id() {
        let list = ShapeList::from_loaded(vec![shape(2), shape(5)], 6).unwrap();
        assert_eq!(ids(&list), [2, 5]);
        assert!(ShapeList::from_loaded(vec![shape(5), shape(5)], 6).is_err());
        assert!(ShapeList::from_loaded(vec![shape(5), shape(2)], 6).is_err());
        assert!(ShapeList::from_loaded(vec![shape(2), shape(5)], 5).is_err());
    }
}
