//! Indexed triangle meshes.
//!
//! [`TriMesh`] is the exchange format of the whole system: procedural
//! generators produce meshes, the voxelizer consumes them, and the exact
//! moment integrator ([`crate::moments`]) evaluates volume integrals
//! over them. Meshes are expected to be *watertight and consistently
//! oriented* (outward normals) wherever solid properties are computed;
//! [`TriMesh::validate`] checks exactly that.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::aabb::Aabb;
use crate::mat3::Mat3;
use crate::vec3::Vec3;

/// An indexed triangle mesh.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Triangles as triples of vertex indices, counter-clockwise when
    /// viewed from outside the solid.
    pub triangles: Vec<[u32; 3]>,
}

/// Problems detected by [`TriMesh::validate`] and
/// [`TriMesh::check_input`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshDefect {
    /// A triangle refers to a vertex index that does not exist.
    IndexOutOfBounds {
        /// Index of the offending triangle.
        triangle: usize,
    },
    /// A triangle uses the same vertex twice.
    DegenerateTriangle {
        /// Index of the offending triangle.
        triangle: usize,
    },
    /// An undirected edge is used by a number of triangles other than 2;
    /// the mesh is not watertight (1) or is non-manifold (> 2).
    NonManifoldEdge {
        /// First endpoint (smaller vertex index).
        a: u32,
        /// Second endpoint.
        b: u32,
        /// Number of triangles using the edge.
        count: usize,
    },
    /// An edge is traversed twice in the same direction; orientation is
    /// inconsistent.
    InconsistentOrientation {
        /// Edge start in the repeated direction.
        a: u32,
        /// Edge end in the repeated direction.
        b: u32,
    },
    /// A vertex has a NaN or infinite coordinate.
    NonFiniteVertex {
        /// Index of the offending vertex.
        vertex: usize,
    },
}

impl std::fmt::Display for MeshDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshDefect::IndexOutOfBounds { triangle } => {
                write!(f, "triangle {triangle} has an out-of-bounds vertex index")
            }
            MeshDefect::DegenerateTriangle { triangle } => {
                write!(f, "triangle {triangle} repeats a vertex")
            }
            MeshDefect::NonManifoldEdge { a, b, count } => {
                write!(
                    f,
                    "edge ({a},{b}) is used by {count} triangles (expected 2)"
                )
            }
            MeshDefect::InconsistentOrientation { a, b } => {
                write!(f, "edge ({a},{b}) is traversed twice in the same direction")
            }
            MeshDefect::NonFiniteVertex { vertex } => {
                write!(f, "vertex {vertex} has a non-finite coordinate")
            }
        }
    }
}

impl TriMesh {
    /// Creates a mesh from raw parts.
    pub fn new(vertices: Vec<Vec3>, triangles: Vec<[u32; 3]>) -> TriMesh {
        TriMesh {
            vertices,
            triangles,
        }
    }

    /// Number of triangles.
    #[inline]
    pub fn num_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// The three corner positions of triangle `t`.
    #[inline]
    pub fn triangle(&self, t: usize) -> [Vec3; 3] {
        let [a, b, c] = self.triangles[t];
        [
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        ]
    }

    /// Iterates over triangle corner positions.
    pub fn triangle_iter(&self) -> impl Iterator<Item = [Vec3; 3]> + '_ {
        (0..self.triangles.len()).map(|t| self.triangle(t))
    }

    /// Axis-aligned bounding box of all vertices.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.vertices.iter().copied())
    }

    /// Total surface area (sum of triangle areas).
    pub fn surface_area(&self) -> f64 {
        self.triangle_iter()
            .map(|[a, b, c]| 0.5 * (b - a).cross(c - a).norm())
            .sum()
    }

    /// Signed volume via the divergence theorem. Positive for a
    /// watertight mesh with outward-facing normals.
    pub fn signed_volume(&self) -> f64 {
        self.triangle_iter()
            .map(|[a, b, c]| a.dot(b.cross(c)) / 6.0)
            .sum()
    }

    /// Centroid of the *solid* bounded by the mesh (not the vertex
    /// average). Returns `None` if the volume is numerically zero.
    pub fn solid_centroid(&self) -> Option<Vec3> {
        let m = crate::moments::mesh_moments(self);
        if m.m000.abs() < 1e-12 {
            None
        } else {
            Some(m.centroid())
        }
    }

    /// Applies `f` to every vertex in place.
    pub fn map_vertices(&mut self, mut f: impl FnMut(Vec3) -> Vec3) {
        for v in &mut self.vertices {
            *v = f(*v);
        }
    }

    /// Translates the mesh by `t`.
    pub fn translate(&mut self, t: Vec3) {
        self.map_vertices(|v| v + t);
    }

    /// Scales the mesh uniformly about the origin. Negative factors are
    /// rejected (they would flip orientation); use [`TriMesh::flip_orientation`]
    /// explicitly if mirroring is intended.
    pub fn scale_uniform(&mut self, s: f64) {
        assert!(s > 0.0, "scale factor must be positive, got {s}");
        self.map_vertices(|v| v * s);
    }

    /// Rotates the mesh about the origin by a rotation matrix.
    pub fn rotate(&mut self, r: &Mat3) {
        let r = *r;
        self.map_vertices(|v| r * v);
    }

    /// Reverses the winding of every triangle (flips all normals).
    pub fn flip_orientation(&mut self) {
        for t in &mut self.triangles {
            t.swap(1, 2);
        }
    }

    /// Appends another mesh (disjoint union of surfaces).
    pub fn append(&mut self, other: &TriMesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + base, t[1] + base, t[2] + base]),
        );
    }

    /// Checks structural soundness: indices in range, no degenerate
    /// index triples, every undirected edge shared by exactly two
    /// triangles, and opposite traversal directions (consistent
    /// orientation). Returns all defects found.
    pub fn validate(&self) -> Vec<MeshDefect> {
        let mut defects = Vec::new();
        let nv = self.vertices.len() as u32;
        // Directed edge -> count.
        let mut directed: HashMap<(u32, u32), usize> = HashMap::new();
        for (ti, tri) in self.triangles.iter().enumerate() {
            if tri.iter().any(|&i| i >= nv) {
                defects.push(MeshDefect::IndexOutOfBounds { triangle: ti });
                continue;
            }
            if tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2] {
                defects.push(MeshDefect::DegenerateTriangle { triangle: ti });
                continue;
            }
            for k in 0..3 {
                let a = tri[k];
                let b = tri[(k + 1) % 3];
                *directed.entry((a, b)).or_insert(0) += 1;
            }
        }
        // Aggregate into undirected edges.
        let mut undirected: HashMap<(u32, u32), (usize, usize)> = HashMap::new();
        for (&(a, b), &n) in &directed {
            if n > 1 {
                defects.push(MeshDefect::InconsistentOrientation { a, b });
            }
            let key = if a < b { (a, b) } else { (b, a) };
            let e = undirected.entry(key).or_insert((0, 0));
            if a < b {
                e.0 += n;
            } else {
                e.1 += n;
            }
        }
        for (&(a, b), &(fwd, rev)) in &undirected {
            let count = fwd + rev;
            if count != 2 {
                defects.push(MeshDefect::NonManifoldEdge { a, b, count });
            }
        }
        defects.sort_by_key(|d| match d {
            MeshDefect::IndexOutOfBounds { triangle } => (0, *triangle as u32, 0),
            MeshDefect::DegenerateTriangle { triangle } => (1, *triangle as u32, 0),
            MeshDefect::NonManifoldEdge { a, b, .. } => (2, *a, *b),
            MeshDefect::InconsistentOrientation { a, b } => (3, *a, *b),
            MeshDefect::NonFiniteVertex { vertex } => (4, *vertex as u32, 0),
        });
        defects
    }

    /// The cheap check every reader of an outside mesh applies: each
    /// triangle index names an existing vertex and every coordinate is
    /// finite, so nothing downstream indexes out of range or integrates
    /// a NaN. Unlike [`TriMesh::validate`] it builds no maps and says
    /// nothing about manifoldness. Returns the first defect found.
    pub fn check_input(&self) -> Result<(), MeshDefect> {
        let nv = self.vertices.len();
        if let Some(triangle) = self
            .triangles
            .iter()
            .position(|t| t.iter().any(|&i| i as usize >= nv))
        {
            return Err(MeshDefect::IndexOutOfBounds { triangle });
        }
        match self.vertices.iter().position(|v| !v.is_finite()) {
            Some(vertex) => Err(MeshDefect::NonFiniteVertex { vertex }),
            None => Ok(()),
        }
    }

    /// Convenience: `true` if [`TriMesh::validate`] finds no defects.
    pub fn is_watertight(&self) -> bool {
        self.validate().is_empty()
    }

    /// Welds vertices closer than `eps` together and drops triangles
    /// that become degenerate. Useful after procedural generation where
    /// ring seams duplicate vertices.
    pub fn weld(&mut self, eps: f64) {
        // Quantize to a grid of size eps for hashing.
        let inv = 1.0 / eps.max(1e-300);
        let mut map: HashMap<(i64, i64, i64), u32> = HashMap::new();
        let mut remap = vec![0u32; self.vertices.len()];
        let mut new_vertices: Vec<Vec3> = Vec::with_capacity(self.vertices.len());
        for (i, &v) in self.vertices.iter().enumerate() {
            // lint: allow(lossy-cast) — quantization key: saturating cast of a finite scaled coordinate
            let quant = |c: f64| (c * inv).round() as i64;
            let key = (quant(v.x), quant(v.y), quant(v.z));
            let idx = *map.entry(key).or_insert_with(|| {
                new_vertices.push(v);
                (new_vertices.len() - 1) as u32
            });
            remap[i] = idx;
        }
        self.vertices = new_vertices;
        self.triangles = self
            .triangles
            .iter()
            .map(|t| {
                [
                    remap[t[0] as usize],
                    remap[t[1] as usize],
                    remap[t[2] as usize],
                ]
            })
            .filter(|t| t[0] != t[1] && t[1] != t[2] && t[0] != t[2])
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives;

    /// A unit tetrahedron with outward-facing normals.
    fn tetrahedron() -> TriMesh {
        let v = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let t = vec![[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]];
        TriMesh::new(v, t)
    }

    #[test]
    fn tetrahedron_volume_and_area() {
        let m = tetrahedron();
        assert!((m.signed_volume() - 1.0 / 6.0).abs() < 1e-15);
        // 3 right triangles of area 1/2 plus the slanted face sqrt(3)/2.
        let expected = 1.5 + 3f64.sqrt() / 2.0;
        assert!((m.surface_area() - expected).abs() < 1e-14);
        assert!(m.is_watertight());
    }

    #[test]
    fn flipped_orientation_negates_volume() {
        let mut m = tetrahedron();
        let v = m.signed_volume();
        m.flip_orientation();
        assert!((m.signed_volume() + v).abs() < 1e-15);
    }

    #[test]
    fn translation_preserves_volume_and_area() {
        let mut m = tetrahedron();
        let v = m.signed_volume();
        let a = m.surface_area();
        m.translate(Vec3::new(10.0, -3.0, 2.5));
        assert!((m.signed_volume() - v).abs() < 1e-12);
        assert!((m.surface_area() - a).abs() < 1e-12);
    }

    #[test]
    fn scaling_scales_volume_cubically() {
        let mut m = tetrahedron();
        let v = m.signed_volume();
        m.scale_uniform(2.0);
        assert!((m.signed_volume() - 8.0 * v).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_volume() {
        let mut m = tetrahedron();
        let v = m.signed_volume();
        m.rotate(&Mat3::rotation_axis_angle(Vec3::new(1.0, 2.0, 3.0), 1.1));
        assert!((m.signed_volume() - v).abs() < 1e-12);
        assert!(m.is_watertight());
    }

    #[test]
    fn validate_detects_open_mesh() {
        let mut m = tetrahedron();
        m.triangles.pop();
        let defects = m.validate();
        assert!(!defects.is_empty());
        assert!(defects
            .iter()
            .all(|d| matches!(d, MeshDefect::NonManifoldEdge { count: 1, .. })));
    }

    #[test]
    fn validate_detects_bad_index_and_degenerate() {
        let m = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 5]]);
        assert!(matches!(
            m.validate()[0],
            MeshDefect::IndexOutOfBounds { triangle: 0 }
        ));
        let m = TriMesh::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 1]]);
        assert!(matches!(
            m.validate()[0],
            MeshDefect::DegenerateTriangle { triangle: 0 }
        ));
    }

    #[test]
    fn validate_detects_inconsistent_orientation() {
        let mut m = tetrahedron();
        // Flip one face only.
        m.triangles[0].swap(1, 2);
        let defects = m.validate();
        assert!(defects
            .iter()
            .any(|d| matches!(d, MeshDefect::InconsistentOrientation { .. })));
    }

    #[test]
    fn append_offsets_indices() {
        let mut a = tetrahedron();
        let b = tetrahedron();
        let va = a.signed_volume();
        a.append(&b);
        assert_eq!(a.num_vertices(), 8);
        assert_eq!(a.num_triangles(), 8);
        // Two coincident tetrahedra double the signed volume.
        assert!((a.signed_volume() - 2.0 * va).abs() < 1e-12);
    }

    #[test]
    fn weld_merges_duplicate_vertices() {
        // Two triangles sharing an edge but with duplicated vertices.
        let m0 = TriMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::X,
                Vec3::Y,
                Vec3::X, // duplicate of 1
                Vec3::Y, // duplicate of 2
                Vec3::new(1.0, 1.0, 0.0),
            ],
            vec![[0, 1, 2], [3, 5, 4]],
        );
        let mut m = m0;
        m.weld(1e-9);
        assert_eq!(m.num_vertices(), 4);
        assert_eq!(m.num_triangles(), 2);
    }

    #[test]
    fn box_centroid() {
        let m = primitives::box_mesh(Vec3::new(2.0, 4.0, 6.0));
        let c = m.solid_centroid().unwrap();
        // box_mesh is centered at origin.
        assert!(c.approx_eq(Vec3::ZERO, 1e-12));
    }
}
