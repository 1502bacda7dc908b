//! Mesh file I/O: binary/ASCII STL and OFF.
//!
//! The paper's system accepts CAD files as query examples; this module
//! plays that role with the two simplest open mesh formats. STL stores
//! triangle soup (vertices are welded on load); OFF stores indexed
//! meshes losslessly and is what the examples export for viewing
//! search results in any external viewer (our substitute for the
//! paper's Java3D interface).

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::mesh::TriMesh;
use crate::vec3::Vec3;

/// Errors from mesh I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file content is not valid for the format.
    Parse(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> IoError {
    IoError::Parse(msg.into())
}

/// Passes a decoded mesh through [`TriMesh::check_input`].
fn checked(mesh: TriMesh) -> Result<TriMesh, IoError> {
    mesh.check_input().map_err(|d| parse_err(d.to_string()))?;
    Ok(mesh)
}

/// Caps on counts declared in mesh-file headers. A few header bytes
/// can otherwise declare billions of elements and force a gigabyte
/// allocation before a single payload byte is read. 2^24 vertices
/// (~400 MiB of coordinates) is far beyond any engineering model we
/// index and keeps every index safely inside `u32`.
pub const MAX_MESH_VERTICES: usize = 1 << 24;

/// Cap on the declared face count (see [`MAX_MESH_VERTICES`]).
pub const MAX_MESH_FACES: usize = 1 << 24;

/// Cap on a single polygon's declared vertex count in OFF files.
pub const MAX_FACE_ARITY: usize = 4096;

// ---------------------------------------------------------------------
// STL
// ---------------------------------------------------------------------

/// Writes a mesh as binary STL.
pub fn write_stl_binary<W: Write>(mesh: &TriMesh, w: &mut W) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(84 + mesh.num_triangles() * 50);
    let mut header = [0u8; 80];
    let tag = b"3DESS binary STL";
    header[..tag.len()].copy_from_slice(tag);
    buf.extend_from_slice(&header);
    buf.extend_from_slice(&(mesh.num_triangles() as u32).to_le_bytes());
    for [a, b, c] in mesh.triangle_iter() {
        let n = (b - a).cross(c - a).normalized().unwrap_or(Vec3::ZERO);
        for v in [n, a, b, c] {
            for x in [v.x, v.y, v.z] {
                buf.extend_from_slice(&(x as f32).to_le_bytes());
            }
        }
        buf.extend_from_slice(&0u16.to_le_bytes()); // attribute byte count
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a mesh as ASCII STL under solid name `name`.
pub fn write_stl_ascii<W: Write>(mesh: &TriMesh, name: &str, w: &mut W) -> Result<(), IoError> {
    writeln!(w, "solid {name}")?;
    for [a, b, c] in mesh.triangle_iter() {
        let n = (b - a).cross(c - a).normalized().unwrap_or(Vec3::ZERO);
        writeln!(w, "  facet normal {} {} {}", n.x, n.y, n.z)?;
        writeln!(w, "    outer loop")?;
        for v in [a, b, c] {
            writeln!(w, "      vertex {} {} {}", v.x, v.y, v.z)?;
        }
        writeln!(w, "    endloop")?;
        writeln!(w, "  endfacet")?;
    }
    writeln!(w, "endsolid {name}")?;
    Ok(())
}

/// Reads an STL file (binary or ASCII, auto-detected). Vertices are
/// welded with tolerance `weld_eps` so the triangle soup becomes an
/// indexed mesh.
pub fn read_stl<R: Read>(r: &mut R, weld_eps: f64) -> Result<TriMesh, IoError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let is_ascii = data.len() >= 6
        && data.starts_with(b"solid")
        && // Binary files may also start with "solid": check for "facet".
        std::str::from_utf8(&data[..data.len().min(4096)])
            .map(|s| s.contains("facet"))
            .unwrap_or(false);
    let mut mesh = checked(if is_ascii {
        read_stl_ascii_bytes(&data)?
    } else {
        read_stl_binary_bytes(&data)?
    })?;
    mesh.weld(weld_eps);
    Ok(mesh)
}

fn read_stl_binary_bytes(data: &[u8]) -> Result<TriMesh, IoError> {
    let Some(&[c0, c1, c2, c3]) = data.get(80..84) else {
        return Err(parse_err("binary STL shorter than header"));
    };
    let count = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
    let expected = 84 + count * 50;
    if data.len() < expected {
        return Err(parse_err(format!(
            "binary STL truncated: {} bytes for {count} triangles (need {expected})",
            data.len()
        )));
    }
    // Each 50-byte facet: a normal, three vertices (three f32 each),
    // and a u16 attribute count. The buffers are sized by the facets
    // actually present.
    let facets = data[84..expected].chunks_exact(50);
    let mut vertices = Vec::with_capacity(3 * facets.len());
    let mut triangles = Vec::with_capacity(facets.len());
    for (t, facet) in facets.enumerate() {
        for v in facet[12..48].chunks_exact(12) {
            vertices.push(Vec3::new(
                le_f32(&v[0..4]),
                le_f32(&v[4..8]),
                le_f32(&v[8..12]),
            ));
        }
        let base = (t * 3) as u32;
        triangles.push([base, base + 1, base + 2]);
    }
    Ok(TriMesh::new(vertices, triangles))
}

/// Decodes a little-endian `f32` from a 4-byte slice.
fn le_f32(b: &[u8]) -> f64 {
    f64::from(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_stl_ascii_bytes(data: &[u8]) -> Result<TriMesh, IoError> {
    let text = std::str::from_utf8(data).map_err(|_| parse_err("ASCII STL is not UTF-8"))?;
    let mut vertices = Vec::new();
    let mut triangles = Vec::new();
    let mut pending: Vec<Vec3> = Vec::with_capacity(3);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("vertex") {
            let mut it = rest.split_whitespace();
            let mut next = || -> Result<f64, IoError> {
                it.next()
                    .ok_or_else(|| {
                        parse_err(format!("line {}: missing vertex coordinate", lineno + 1))
                    })?
                    .parse::<f64>()
                    .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))
            };
            let v = Vec3::new(next()?, next()?, next()?);
            pending.push(v);
            if pending.len() == 3 {
                let base = vertices.len() as u32;
                vertices.extend_from_slice(&pending);
                triangles.push([base, base + 1, base + 2]);
                pending.clear();
            }
        }
    }
    if !pending.is_empty() {
        return Err(parse_err("ASCII STL facet with fewer than 3 vertices"));
    }
    Ok(TriMesh::new(vertices, triangles))
}

// ---------------------------------------------------------------------
// OFF
// ---------------------------------------------------------------------

/// Writes a mesh in OFF format (indexed, lossless for `TriMesh`).
pub fn write_off<W: Write>(mesh: &TriMesh, w: &mut W) -> Result<(), IoError> {
    writeln!(w, "OFF")?;
    writeln!(w, "{} {} 0", mesh.num_vertices(), mesh.num_triangles())?;
    for v in &mesh.vertices {
        writeln!(w, "{} {} {}", v.x, v.y, v.z)?;
    }
    for t in &mesh.triangles {
        writeln!(w, "3 {} {} {}", t[0], t[1], t[2])?;
    }
    Ok(())
}

/// Reads an OFF file. Faces with more than 3 vertices are fan-
/// triangulated.
pub fn read_off<R: Read>(r: &mut R) -> Result<TriMesh, IoError> {
    let reader = BufReader::new(r);
    let mut tokens: Vec<String> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let body = line.split('#').next().unwrap_or("");
        tokens.extend(body.split_whitespace().map(str::to_owned));
    }
    let mut it = tokens.into_iter();
    match it.next().as_deref() {
        Some("OFF") => {}
        other => return Err(parse_err(format!("expected OFF magic, found {other:?}"))),
    }
    let next_usize = |what: &str, it: &mut dyn Iterator<Item = String>| -> Result<usize, IoError> {
        it.next()
            .ok_or_else(|| parse_err(format!("missing {what}")))?
            .parse::<usize>()
            .map_err(|e| parse_err(format!("bad {what}: {e}")))
    };
    let nv = next_usize("vertex count", &mut it)?;
    let nf = next_usize("face count", &mut it)?;
    let _ne = next_usize("edge count", &mut it)?;
    // Validate the declared counts before allocating: a 20-byte header
    // must not be able to demand gigabytes (and nv ≤ MAX_MESH_VERTICES
    // also guarantees every vertex index fits in u32 below).
    if nv > MAX_MESH_VERTICES {
        return Err(parse_err(format!(
            "declared vertex count {nv} exceeds limit {MAX_MESH_VERTICES}"
        )));
    }
    if nf > MAX_MESH_FACES {
        return Err(parse_err(format!(
            "declared face count {nf} exceeds limit {MAX_MESH_FACES}"
        )));
    }

    let next_f64 = |what: &str, it: &mut dyn Iterator<Item = String>| -> Result<f64, IoError> {
        it.next()
            .ok_or_else(|| parse_err(format!("missing {what}")))?
            .parse::<f64>()
            .map_err(|e| parse_err(format!("bad {what}: {e}")))
    };
    let mut vertices = Vec::with_capacity(nv);
    for i in 0..nv {
        let x = next_f64(&format!("vertex {i} x"), &mut it)?;
        let y = next_f64(&format!("vertex {i} y"), &mut it)?;
        let z = next_f64(&format!("vertex {i} z"), &mut it)?;
        vertices.push(Vec3::new(x, y, z));
    }
    let mut triangles = Vec::with_capacity(nf);
    for f in 0..nf {
        let k = next_usize(&format!("face {f} arity"), &mut it)?;
        if k < 3 {
            return Err(parse_err(format!("face {f} has {k} vertices")));
        }
        if k > MAX_FACE_ARITY {
            return Err(parse_err(format!(
                "face {f} declares {k} vertices, exceeds limit {MAX_FACE_ARITY}"
            )));
        }
        let mut idx = Vec::with_capacity(k);
        for j in 0..k {
            let v = next_usize(&format!("face {f} index {j}"), &mut it)?;
            if v >= nv {
                return Err(parse_err(format!("face {f} references vertex {v} >= {nv}")));
            }
            idx.push(v as u32);
        }
        for j in 1..k - 1 {
            triangles.push([idx[0], idx[j], idx[j + 1]]);
        }
    }
    checked(TriMesh::new(vertices, triangles))
}

// ---------------------------------------------------------------------
// OBJ
// ---------------------------------------------------------------------

/// Writes a mesh as a Wavefront OBJ file (positions and triangular
/// faces only).
pub fn write_obj<W: Write>(mesh: &TriMesh, w: &mut W) -> Result<(), IoError> {
    writeln!(w, "# 3DESS OBJ export")?;
    for v in &mesh.vertices {
        writeln!(w, "v {} {} {}", v.x, v.y, v.z)?;
    }
    for t in &mesh.triangles {
        // OBJ indices are 1-based.
        writeln!(w, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1)?;
    }
    Ok(())
}

/// Reads a Wavefront OBJ file: `v` and `f` records only; normals,
/// texture coordinates, groups, and materials are ignored. Faces with
/// more than 3 vertices are fan-triangulated; `v/vt/vn` index forms and
/// negative (relative) indices are supported.
pub fn read_obj<R: Read>(r: &mut R) -> Result<TriMesh, IoError> {
    let reader = BufReader::new(r);
    let mut vertices: Vec<Vec3> = Vec::new();
    let mut triangles: Vec<[u32; 3]> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut tok = body.split_whitespace();
        match tok.next() {
            Some("v") => {
                let mut next = || -> Result<f64, IoError> {
                    tok.next()
                        .ok_or_else(|| parse_err(format!("line {}: short vertex", lineno + 1)))?
                        .parse::<f64>()
                        .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))
                };
                vertices.push(Vec3::new(next()?, next()?, next()?));
            }
            Some("f") => {
                let mut idx: Vec<u32> = Vec::new();
                for part in tok {
                    let first = part.split('/').next().ok_or_else(|| {
                        parse_err(format!("line {}: empty face index", lineno + 1))
                    })?;
                    let raw: i64 = first
                        .parse()
                        .map_err(|e| parse_err(format!("line {}: {e}", lineno + 1)))?;
                    let resolved = if raw > 0 {
                        raw - 1
                    } else if raw < 0 {
                        vertices.len() as i64 + raw
                    } else {
                        return Err(parse_err(format!("line {}: face index 0", lineno + 1)));
                    };
                    if resolved < 0 || resolved >= vertices.len() as i64 {
                        return Err(parse_err(format!(
                            "line {}: face index {raw} out of range",
                            lineno + 1
                        )));
                    }
                    idx.push(resolved as u32);
                }
                if idx.len() < 3 {
                    return Err(parse_err(format!(
                        "line {}: face with < 3 vertices",
                        lineno + 1
                    )));
                }
                for j in 1..idx.len() - 1 {
                    triangles.push([idx[0], idx[j], idx[j + 1]]);
                }
            }
            _ => {} // ignore vn, vt, g, o, usemtl, s, mtllib, ...
        }
    }
    checked(TriMesh::new(vertices, triangles))
}

// ---------------------------------------------------------------------
// Path conveniences
// ---------------------------------------------------------------------

/// Saves a mesh to `path`, choosing the format from the extension
/// (`.stl` → binary STL, `.off` → OFF).
pub fn save_mesh(mesh: &TriMesh, path: &Path) -> Result<(), IoError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    match path.extension().and_then(|e| e.to_str()) {
        Some("stl") => write_stl_binary(mesh, &mut file),
        Some("off") => write_off(mesh, &mut file),
        Some("obj") => write_obj(mesh, &mut file),
        other => Err(parse_err(format!("unsupported mesh extension: {other:?}"))),
    }
}

/// Loads a mesh from `path`, choosing the format from the extension.
pub fn load_mesh(path: &Path) -> Result<TriMesh, IoError> {
    let mut file = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("stl") => read_stl(&mut file, 1e-9),
        Some("off") => read_off(&mut file),
        Some("obj") => read_obj(&mut file),
        other => Err(parse_err(format!("unsupported mesh extension: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives;

    #[test]
    fn stl_binary_roundtrip() {
        let mesh = primitives::box_mesh(Vec3::new(1.0, 2.0, 3.0));
        let mut buf = Vec::new();
        write_stl_binary(&mesh, &mut buf).unwrap();
        let got = read_stl(&mut buf.as_slice(), 1e-6).unwrap();
        assert_eq!(got.num_triangles(), mesh.num_triangles());
        assert_eq!(got.num_vertices(), mesh.num_vertices());
        assert!((got.signed_volume() - mesh.signed_volume()).abs() < 1e-5);
        assert!(got.is_watertight());
    }

    #[test]
    fn stl_ascii_roundtrip() {
        let mesh = primitives::cylinder(1.0, 2.0, 16);
        let mut buf = Vec::new();
        write_stl_ascii(&mesh, "cyl", &mut buf).unwrap();
        let got = read_stl(&mut buf.as_slice(), 1e-6).unwrap();
        assert_eq!(got.num_triangles(), mesh.num_triangles());
        assert!((got.signed_volume() - mesh.signed_volume()).abs() < 1e-6);
    }

    #[test]
    fn off_roundtrip_is_lossless() {
        let mesh = primitives::uv_sphere(1.0, 12, 6);
        let mut buf = Vec::new();
        write_off(&mesh, &mut buf).unwrap();
        let got = read_off(&mut buf.as_slice()).unwrap();
        assert_eq!(got.num_vertices(), mesh.num_vertices());
        assert_eq!(got.num_triangles(), mesh.num_triangles());
        for (a, b) in got.vertices.iter().zip(mesh.vertices.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
        assert_eq!(got.triangles, mesh.triangles);
    }

    #[test]
    fn off_fan_triangulates_quads() {
        let text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n";
        let mesh = read_off(&mut text.as_bytes()).unwrap();
        assert_eq!(mesh.num_triangles(), 2);
    }

    #[test]
    fn off_rejects_bad_magic_and_indices() {
        assert!(read_off(&mut "PLY\n".as_bytes()).is_err());
        let text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n";
        assert!(read_off(&mut text.as_bytes()).is_err());
    }

    #[test]
    fn off_ignores_comments() {
        let text = "OFF\n# a comment\n3 1 0\n0 0 0 # inline\n1 0 0\n0 1 0\n3 0 1 2\n";
        let mesh = read_off(&mut text.as_bytes()).unwrap();
        assert_eq!(mesh.num_vertices(), 3);
        assert_eq!(mesh.num_triangles(), 1);
    }

    #[test]
    fn truncated_binary_stl_rejected() {
        let mesh = primitives::box_mesh(Vec3::ONE);
        let mut buf = Vec::new();
        write_stl_binary(&mesh, &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(read_stl(&mut buf.as_slice(), 1e-6).is_err());
    }

    #[test]
    fn obj_roundtrip_is_lossless() {
        let mesh = primitives::torus(1.5, 0.4, 12, 6);
        let mut buf = Vec::new();
        write_obj(&mesh, &mut buf).unwrap();
        let got = read_obj(&mut buf.as_slice()).unwrap();
        assert_eq!(got.num_vertices(), mesh.num_vertices());
        assert_eq!(got.triangles, mesh.triangles);
        for (a, b) in got.vertices.iter().zip(&mesh.vertices) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn obj_parses_slash_forms_and_negatives() {
        let text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1/1 2//2 3/3\nf -4 -2 -1\n";
        let mesh = read_obj(&mut text.as_bytes()).unwrap();
        assert_eq!(mesh.num_vertices(), 4);
        assert_eq!(mesh.num_triangles(), 2);
        assert_eq!(mesh.triangles[0], [0, 1, 2]);
        assert_eq!(mesh.triangles[1], [0, 2, 3]);
    }

    #[test]
    fn obj_rejects_bad_faces() {
        assert!(read_obj(&mut "v 0 0 0\nf 1 2 3\n".as_bytes()).is_err()); // out of range
        assert!(read_obj(&mut "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 0 3\n".as_bytes()).is_err()); // index 0
        assert!(read_obj(&mut "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n".as_bytes()).is_err());
        // arity
    }

    #[test]
    fn save_and_load_paths() {
        let dir = std::env::temp_dir().join("tdess_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mesh = primitives::cone(1.0, 2.0, 12);
        for name in ["m.stl", "m.off", "m.obj"] {
            let p = dir.join(name);
            save_mesh(&mesh, &p).unwrap();
            let got = load_mesh(&p).unwrap();
            assert!(
                (got.signed_volume() - mesh.signed_volume()).abs() < 1e-5,
                "{name}"
            );
        }
        assert!(save_mesh(&mesh, &dir.join("m.xyz")).is_err());
    }
}
