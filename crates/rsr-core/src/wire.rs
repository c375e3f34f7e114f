//! Wire codecs for the protocol payloads that are not tables.
//!
//! Tables encode through `rsr-iblt`'s codec ([`rsr_iblt::wire`]) and the
//! sets-of-sets rounds through [`rsr_setsofsets::wire`]; this module
//! covers the remaining message body: raw point lists (the Gap protocol's
//! round-4 far elements). Every encoder writes into a shared
//! [`BitWriter`] so multi-part messages measure as one contiguous bit
//! stream, and every decoder rejects malformed input with `None` instead
//! of fabricating data.

use rsr_iblt::bits::{BitReader, BitWriter};
use rsr_iblt::wire::{get_len, put_len};
use rsr_metric::{GridUniverse, Point};

/// Encodes a point list: a 32-bit count, then each coordinate packed with
/// [`GridUniverse::coord_wire_bits`] bits. Panics if a point lies outside
/// the universe (protocols only ship their own in-universe points).
pub fn put_points(w: &mut BitWriter, points: &[Point], universe: &GridUniverse) {
    put_len(w, points.len());
    let width = universe.coord_wire_bits();
    for p in points {
        assert!(
            universe.contains(p),
            "point outside universe cannot be encoded: {p:?}"
        );
        for &c in p.coords() {
            w.write(c as u64, width);
        }
    }
}

/// Decodes a point list written by [`put_points`]. Returns `None` on
/// buffer exhaustion or a coordinate outside the universe. The list grows
/// as points decode: a declared count the frame cannot back allocates
/// nothing.
pub fn get_points(r: &mut BitReader<'_>, universe: &GridUniverse) -> Option<Vec<Point>> {
    let count = get_len(r)?;
    let width = universe.coord_wire_bits();
    let mut points = Vec::new();
    for _ in 0..count {
        let coords = (0..universe.dim())
            .map(|_| r.read(width).map(|v| v as i64))
            .collect::<Option<Vec<i64>>>()?;
        let p = Point::new(coords);
        if !universe.contains(&p) {
            return None;
        }
        points.push(p);
    }
    Some(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_roundtrip() {
        let u = GridUniverse::new(10, 3);
        let pts = vec![Point::new(vec![0, 9, 5]), Point::new(vec![3, 3, 3])];
        let mut w = BitWriter::new();
        put_points(&mut w, &pts, &u);
        assert_eq!(w.bit_len(), 32 + 2 * u.point_wire_bits());
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(get_points(&mut r, &u), Some(pts));
    }

    #[test]
    fn out_of_grid_coordinates_rejected() {
        // Δ = 10 packs into 4 bits; 15 fits the field but not the grid.
        let u = GridUniverse::new(10, 1);
        let mut w = BitWriter::new();
        put_len(&mut w, 1);
        w.write(15, u.coord_wire_bits());
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(get_points(&mut r, &u), None);
    }

    #[test]
    fn truncated_point_list_rejected() {
        let u = GridUniverse::binary(16);
        let pts = vec![Point::from_bits(&[true; 16])];
        let mut w = BitWriter::new();
        put_points(&mut w, &pts, &u);
        let buf = w.finish();
        let mut r = BitReader::new(&buf[..buf.len() - 1]);
        assert_eq!(get_points(&mut r, &u), None);
    }

    #[test]
    #[should_panic]
    fn foreign_point_rejected_on_encode() {
        let u = GridUniverse::new(4, 2);
        let mut w = BitWriter::new();
        put_points(&mut w, &[Point::new(vec![4, 0])], &u);
    }

    #[test]
    fn empty_point_list_roundtrips() {
        let u = GridUniverse::binary(8);
        let mut w = BitWriter::new();
        put_points(&mut w, &[], &u);
        assert_eq!(w.bit_len(), 32);
        let buf = w.finish();
        assert_eq!(get_points(&mut BitReader::new(&buf), &u), Some(vec![]));
    }
}
