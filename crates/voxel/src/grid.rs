//! Bit-packed 3-D occupancy grids.

use serde::{Deserialize, Serialize};

use tdess_geom::Vec3;

/// A dense, bit-packed voxel occupancy grid.
///
/// Voxels are axis-aligned cubes (or boxes) of size `voxel_size`,
/// arranged in an `nx × ny × nz` lattice anchored at `origin` (the
/// minimum corner of voxel `(0,0,0)`). A set bit means the voxel
/// intersects the solid — the paper's discrete density function
/// `f(i,j,k) ∈ {0,1}` (Eq. 3.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VoxelGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Minimum corner of the grid in world space.
    pub origin: Vec3,
    /// Edge length of each voxel (cubic voxels).
    pub voxel_size: f64,
    bits: Vec<u64>,
}

impl VoxelGrid {
    /// Creates an empty grid of the given dimensions.
    pub fn new(nx: usize, ny: usize, nz: usize, origin: Vec3, voxel_size: f64) -> VoxelGrid {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        assert!(voxel_size > 0.0, "voxel size must be positive");
        let words = (nx * ny * nz).div_ceil(64);
        VoxelGrid {
            nx,
            ny,
            nz,
            origin,
            voxel_size,
            // hotpath: allow(hot-alloc) — constructor of the grid's backing store, hot callers reuse via reset
            bits: vec![0; words],
        }
    }

    /// Reinitializes the grid in place to the given dimensions, with
    /// every voxel empty. Equivalent to `*self = VoxelGrid::new(...)`
    /// but reuses the existing bit storage — the warm path for
    /// repeated extraction.
    pub fn reset(&mut self, nx: usize, ny: usize, nz: usize, origin: Vec3, voxel_size: f64) {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        assert!(voxel_size > 0.0, "voxel size must be positive");
        let words = (nx * ny * nz).div_ceil(64);
        self.bits.clear();
        self.bits.resize(words, 0);
        self.nx = nx;
        self.ny = ny;
        self.nz = nz;
        self.origin = origin;
        self.voxel_size = voxel_size;
    }

    /// Makes `self` an exact copy of `other`, reusing storage.
    pub fn copy_from(&mut self, other: &VoxelGrid) {
        self.nx = other.nx;
        self.ny = other.ny;
        self.nz = other.nz;
        self.origin = other.origin;
        self.voxel_size = other.voxel_size;
        self.bits.clear();
        self.bits.extend_from_slice(&other.bits);
    }

    /// Grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// The raw occupancy words: bit `idx` of the flattened index
    /// `idx = i + nx*(j + ny*k)` lives at `words()[idx / 64]`, bit
    /// `idx % 64`. Bits at `len()..` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Mutable raw word access for same-crate bulk operations. Callers
    /// must keep the tail bits beyond [`len`](Self::len) zero.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    /// Total number of voxels.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns `true` if the grid has no voxels set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    #[inline]
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Reads voxel `(i, j, k)`. Out-of-range coordinates read as empty.
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> bool {
        if i < 0 || j < 0 || k < 0 {
            return false;
        }
        let (i, j, k) = (i as usize, j as usize, k as usize);
        if i >= self.nx || j >= self.ny || k >= self.nz {
            return false;
        }
        let idx = self.index(i, j, k);
        (self.bits[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets voxel `(i, j, k)` to `value`. Panics when out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, value: bool) {
        let idx = self.index(i, j, k);
        if value {
            self.bits[idx / 64] |= 1 << (idx % 64);
        } else {
            self.bits[idx / 64] &= !(1 << (idx % 64));
        }
    }

    /// Number of filled voxels.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// World-space center of voxel `(i, j, k)`.
    #[inline]
    pub fn voxel_center(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin
            + Vec3::new(
                (i as f64 + 0.5) * self.voxel_size,
                (j as f64 + 0.5) * self.voxel_size,
                (k as f64 + 0.5) * self.voxel_size,
            )
    }

    /// Grid coordinates of the voxel containing the world-space point
    /// `p`, or `None` if outside the grid.
    pub fn world_to_voxel(&self, p: Vec3) -> Option<(usize, usize, usize)> {
        let q = (p - self.origin) / self.voxel_size;
        if q.x < 0.0 || q.y < 0.0 || q.z < 0.0 {
            return None;
        }
        let (i, j, k) = (q.x as usize, q.y as usize, q.z as usize);
        if i >= self.nx || j >= self.ny || k >= self.nz {
            return None;
        }
        Some((i, j, k))
    }

    /// Iterates over the coordinates of all filled voxels.
    pub fn iter_filled(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nx, ny) = (self.nx, self.ny);
        (0..self.len()).filter_map(move |idx| {
            if (self.bits[idx / 64] >> (idx % 64)) & 1 == 1 {
                let i = idx % nx;
                let j = (idx / nx) % ny;
                let k = idx / (nx * ny);
                Some((i, j, k))
            } else {
                None
            }
        })
    }

    /// Calls `f(i, j, k)` for every filled voxel in ascending
    /// flattened-index order — identical to the nested `k`/`j`/`i`
    /// loops used throughout (`i` fastest), but skipping empty 64-bit
    /// words, which dominates on the sparse grids late in thinning.
    #[inline]
    pub fn for_each_filled(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (nx, ny) = (self.nx, self.ny);
        for (w, &bits) in self.bits.iter().enumerate() {
            let mut word = bits;
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                f(idx % nx, (idx / nx) % ny, idx / (nx * ny));
                word &= word - 1;
            }
        }
    }

    /// Volume of the filled region (count × voxel volume).
    pub fn filled_volume(&self) -> f64 {
        self.count() as f64 * self.voxel_size.powi(3)
    }

    /// Inverts every voxel in place.
    pub fn invert(&mut self) {
        let n = self.len();
        for w in &mut self.bits {
            *w = !*w;
        }
        // Clear the tail bits beyond len.
        let tail = n % 64;
        if tail != 0 {
            let last = self.bits.len() - 1;
            self.bits[last] &= (1u64 << tail) - 1;
        }
    }

    /// Number of 6-connected neighbors of `(i, j, k)` that are filled.
    pub fn neighbor_count6(&self, i: usize, j: usize, k: usize) -> usize {
        let (i, j, k) = (i as isize, j as isize, k as isize);
        N6.iter()
            .filter(|d| self.get(i + d.0, j + d.1, k + d.2))
            .count()
    }

    /// Number of 26-connected neighbors of `(i, j, k)` that are filled.
    pub fn neighbor_count26(&self, i: usize, j: usize, k: usize) -> usize {
        let (i, j, k) = (i as isize, j as isize, k as isize);
        let mut n = 0;
        for dz in -1..=1isize {
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    if self.get(i + dx, j + dy, k + dz) {
                        n += 1;
                    }
                }
            }
        }
        n
    }
}

/// Offsets of the 6 face-adjacent neighbors.
pub const N6: [(isize, isize, isize); 6] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
];

/// Offsets of the 18 face- and edge-adjacent neighbors.
pub const N18: [(isize, isize, isize); 18] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (-1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (-1, 0, 1),
    (-1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (0, -1, 1),
    (0, -1, -1),
];

/// Offsets of all 26 neighbors in the 3×3×3 block.
pub fn n26() -> impl Iterator<Item = (isize, isize, isize)> {
    (-1..=1isize).flat_map(move |dz| {
        (-1..=1isize).flat_map(move |dy| {
            (-1..=1isize).filter_map(move |dx| {
                if dx == 0 && dy == 0 && dz == 0 {
                    None
                } else {
                    Some((dx, dy, dz))
                }
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut g = VoxelGrid::new(5, 7, 3, Vec3::ZERO, 1.0);
        assert_eq!(g.count(), 0);
        assert!(g.is_empty());
        g.set(0, 0, 0, true);
        g.set(4, 6, 2, true);
        g.set(2, 3, 1, true);
        assert!(g.get(0, 0, 0));
        assert!(g.get(4, 6, 2));
        assert!(g.get(2, 3, 1));
        assert!(!g.get(1, 0, 0));
        assert_eq!(g.count(), 3);
        g.set(2, 3, 1, false);
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn out_of_range_reads_empty() {
        let mut g = VoxelGrid::new(2, 2, 2, Vec3::ZERO, 1.0);
        g.set(1, 1, 1, true);
        assert!(!g.get(-1, 0, 0));
        assert!(!g.get(2, 0, 0));
        assert!(!g.get(0, 0, 5));
    }

    #[test]
    fn voxel_center_and_world_roundtrip() {
        let g = VoxelGrid::new(4, 4, 4, Vec3::new(1.0, 2.0, 3.0), 0.5);
        let c = g.voxel_center(0, 0, 0);
        assert!(c.approx_eq(Vec3::new(1.25, 2.25, 3.25), 1e-15));
        assert_eq!(g.world_to_voxel(c), Some((0, 0, 0)));
        assert_eq!(g.world_to_voxel(g.voxel_center(3, 2, 1)), Some((3, 2, 1)));
        assert_eq!(g.world_to_voxel(Vec3::ZERO), None);
        assert_eq!(g.world_to_voxel(Vec3::new(3.1, 2.1, 3.1)), None);
    }

    #[test]
    fn iter_filled_yields_set_voxels() {
        let mut g = VoxelGrid::new(3, 3, 3, Vec3::ZERO, 1.0);
        let want = [(0, 0, 0), (1, 2, 0), (2, 2, 2)];
        for &(i, j, k) in &want {
            g.set(i, j, k, true);
        }
        let got: Vec<_> = g.iter_filled().collect();
        assert_eq!(got.len(), 3);
        for w in want {
            assert!(got.contains(&w));
        }
    }

    #[test]
    fn invert_flips_and_preserves_tail() {
        let mut g = VoxelGrid::new(3, 3, 3, Vec3::ZERO, 1.0); // 27 bits < 64
        g.set(1, 1, 1, true);
        g.invert();
        assert_eq!(g.count(), 26);
        assert!(!g.get(1, 1, 1));
        g.invert();
        assert_eq!(g.count(), 1);
    }

    #[test]
    fn neighbor_counts() {
        let mut g = VoxelGrid::new(3, 3, 3, Vec3::ZERO, 1.0);
        // Fill the whole grid.
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    g.set(i, j, k, true);
                }
            }
        }
        assert_eq!(g.neighbor_count6(1, 1, 1), 6);
        assert_eq!(g.neighbor_count26(1, 1, 1), 26);
        assert_eq!(g.neighbor_count6(0, 0, 0), 3);
        assert_eq!(g.neighbor_count26(0, 0, 0), 7);
    }

    #[test]
    fn filled_volume_scales_with_voxel_size() {
        let mut g = VoxelGrid::new(2, 2, 2, Vec3::ZERO, 0.5);
        g.set(0, 0, 0, true);
        g.set(1, 1, 1, true);
        assert!((g.filled_volume() - 2.0 * 0.125).abs() < 1e-15);
    }

    #[test]
    fn reset_matches_fresh_grid_and_clears_old_bits() {
        let mut g = VoxelGrid::new(5, 7, 3, Vec3::ZERO, 1.0);
        g.set(4, 6, 2, true);
        g.reset(3, 3, 3, Vec3::new(1.0, 2.0, 3.0), 0.5);
        let fresh = VoxelGrid::new(3, 3, 3, Vec3::new(1.0, 2.0, 3.0), 0.5);
        assert_eq!(g.dims(), fresh.dims());
        assert_eq!(g.words(), fresh.words());
        assert_eq!(g.count(), 0);
        // Growing again also works.
        g.reset(8, 8, 8, Vec3::ZERO, 1.0);
        assert_eq!(g.count(), 0);
        assert_eq!(
            g.words().len(),
            VoxelGrid::new(8, 8, 8, Vec3::ZERO, 1.0).words().len()
        );
    }

    #[test]
    fn copy_from_duplicates_everything() {
        let mut src = VoxelGrid::new(4, 5, 6, Vec3::new(0.5, 0.0, 0.0), 0.25);
        src.set(3, 4, 5, true);
        src.set(0, 0, 0, true);
        let mut dst = VoxelGrid::new(1, 1, 1, Vec3::ZERO, 1.0);
        dst.copy_from(&src);
        assert_eq!(dst.dims(), src.dims());
        assert_eq!(dst.words(), src.words());
        assert!(dst.get(3, 4, 5));
        assert!((dst.voxel_size - 0.25).abs() < 1e-15);
    }

    #[test]
    fn for_each_filled_matches_iter_filled_in_order() {
        let mut g = VoxelGrid::new(9, 5, 4, Vec3::ZERO, 1.0);
        for &(i, j, k) in &[(0, 0, 0), (8, 4, 3), (5, 2, 1), (1, 0, 2), (7, 3, 0)] {
            g.set(i, j, k, true);
        }
        let mut via_words = Vec::new();
        g.for_each_filled(|i, j, k| via_words.push((i, j, k)));
        let via_scan: Vec<_> = g.iter_filled().collect();
        assert_eq!(via_words, via_scan);
    }

    #[test]
    fn neighbor_offset_tables() {
        assert_eq!(N6.len(), 6);
        assert_eq!(N18.len(), 18);
        assert_eq!(n26().count(), 26);
        // N18 includes all of N6.
        for d in N6 {
            assert!(N18.contains(&d));
        }
    }
}
