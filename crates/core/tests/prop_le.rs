//! Property tests for the shared little-endian codec (`tdess_core::le`):
//! any bytes under any sequence of reads never panic and never read
//! past the end, a declared count never promises more than the bytes
//! left, every field round-trips bit for bit, and a count past `u32`
//! fails the write once.

use proptest::prelude::*;
use tdess_core::le::{LeError, Reader, Writer};
use tdess_geom::Vec3;

/// Bit patterns random bits rarely hit: ±0, the extreme subnormals,
/// ±∞ and NaNs with payloads.
const SPECIAL_BITS: [u64; 8] = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800F_FFFF_FFFF_FFFF,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x7FF8_0000_DEAD_BEEF,
    0xFFF0_0000_0000_0001,
];

/// An `f64` bit pattern: one draw in four is special.
fn f64_bits(x: u64) -> u64 {
    match x % 4 {
        0 => SPECIAL_BITS[(x / 4 % 8) as usize],
        _ => x,
    }
}

/// A read length: usually small, sometimes at an overflow edge.
fn length(kind: u8, small: usize) -> usize {
    match kind {
        0 => usize::MAX - small,
        1 => u32::MAX as usize,
        _ => small,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_reads_on_any_bytes_stay_in_bounds(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        ops in prop::collection::vec((0u8..12, 0u8..6, 0usize..40), 0..24),
    ) {
        let mut r = Reader::new(&bytes);
        for (op, kind, small) in ops {
            let arg = length(kind, small);
            let before = r.get_unread().len();
            // What a successful `get_count` promises: `n · arg` bytes.
            let mut promised = Some(0);
            let consumed = match op {
                0 => r.get_u8().map(|_| 1),
                1 => r.get_u32().map(|_| 4),
                2 => r.get_u64().map(|_| 8),
                3 => r.get_f64().map(|_| 8),
                4 => r.get_bytes(arg).map(|b| b.len()),
                5 => r.get_array::<3>().map(|_| 3),
                6 => r.get_count(arg).map(|n| {
                    promised = n.checked_mul(arg);
                    4
                }),
                7 => r.get_str().map(|s| 4 + s.len()),
                8 => r.get_f64s(arg).map(|v| 8 * v.len()),
                9 => r.get_vertices(arg).map(|v| 24 * v.len()),
                10 => r.get_triangles(arg).map(|v| 12 * v.len()),
                _ => r.expect_end().map(|()| 0),
            };
            let after = r.get_unread().len();
            prop_assert!(after <= before);
            prop_assert!(bytes.ends_with(r.get_unread()));
            prop_assert!(promised.is_some_and(|p| p <= after), "count promised {:?}", promised);
            if let Ok(n) = consumed {
                prop_assert_eq!(before - after, n, "op {}", op);
            }
        }
    }

    #[test]
    fn a_count_never_promises_more_than_the_bytes_left(
        bytes in prop::collection::vec(any::<u8>(), 4..64),
        elem_bytes in 0usize..64,
    ) {
        let mut r = Reader::new(&bytes);
        match r.get_count(elem_bytes) {
            Ok(n) => prop_assert!(n * elem_bytes <= r.get_unread().len()),
            Err(e) => {
                let declared = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                prop_assert_eq!(e, LeError::Count { count: declared as usize, left: bytes.len() - 4 });
            }
        }
    }

    #[test]
    fn every_field_round_trips_bit_for_bit(
        fields in prop::collection::vec(
            (0u8..10, any::<u64>(), prop::collection::vec(any::<u64>(), 0..9)),
            0..16,
        ),
    ) {
        let text = |xs: &[u64]| -> String {
            xs.iter().filter_map(|&x| char::from_u32((x % 0x11_0000) as u32)).collect()
        };
        let vertex = |c: &[u64]| {
            Vec3::new(
                f64::from_bits(f64_bits(c[0])),
                f64::from_bits(f64_bits(c[1])),
                f64::from_bits(f64_bits(c[2])),
            )
        };
        let mut w = Writer::new();
        for (tag, x, xs) in &fields {
            match tag {
                0 => w.put_u8(*x as u8),
                1 => w.put_u32(*x as u32),
                2 => w.put_u64(*x),
                3 => w.put_f64(f64::from_bits(f64_bits(*x))),
                4 => w.put_count(*x as u32 as usize),
                5 => w.put_str(&text(xs)),
                6 => w.put_f64s(&xs.iter().map(|&b| f64::from_bits(f64_bits(b))).collect::<Vec<_>>()),
                7 => w.put_vertices(&xs.chunks_exact(3).map(vertex).collect::<Vec<_>>()),
                8 => w.put_triangles(
                    &xs.chunks_exact(3).map(|c| [c[0] as u32, c[1] as u32, c[2] as u32]).collect::<Vec<_>>(),
                ),
                _ => w.put_bytes(&xs.iter().map(|&b| b as u8).collect::<Vec<_>>()),
            }
        }
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        for (tag, x, xs) in &fields {
            match tag {
                0 => prop_assert_eq!(r.get_u8().unwrap(), *x as u8),
                1 => prop_assert_eq!(r.get_u32().unwrap(), *x as u32),
                2 => prop_assert_eq!(r.get_u64().unwrap(), *x),
                3 => prop_assert_eq!(r.get_f64().unwrap().to_bits(), f64_bits(*x)),
                4 => prop_assert_eq!(r.get_count(0).unwrap(), *x as u32 as usize),
                5 => prop_assert_eq!(r.get_str().unwrap(), text(xs)),
                6 => {
                    let got: Vec<u64> = r.get_f64s(xs.len()).unwrap().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = xs.iter().map(|&b| f64_bits(b)).collect();
                    prop_assert_eq!(got, want);
                }
                7 => {
                    let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                    let got: Vec<_> = r.get_vertices(xs.len() / 3).unwrap().iter().map(bits).collect();
                    let want: Vec<_> = xs.chunks_exact(3).map(|c| bits(&vertex(c))).collect();
                    prop_assert_eq!(got, want);
                }
                8 => {
                    let want: Vec<[u32; 3]> =
                        xs.chunks_exact(3).map(|c| [c[0] as u32, c[1] as u32, c[2] as u32]).collect();
                    prop_assert_eq!(r.get_triangles(xs.len() / 3).unwrap(), want);
                }
                _ => {
                    let want: Vec<u8> = xs.iter().map(|&b| b as u8).collect();
                    prop_assert_eq!(r.get_bytes(xs.len()).unwrap(), &want[..]);
                }
            }
        }
        prop_assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn a_count_past_u32_fails_into_bytes_once(
        n in (any::<bool>(), any::<u64>()),
        later in (any::<bool>(), any::<u64>()),
    ) {
        // Half the draws fit a u32.
        let size = |(small, x): (bool, u64)| usize::try_from(if small { x as u32 as u64 } else { x });
        let (Ok(n), Ok(later)) = (size(n), size(later)) else {
            return Ok(());
        };
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_count(n);
        w.put_str("after");
        w.put_count(later);
        let first_overflow = [n, later].into_iter().find(|&c| c > u32::MAX as usize);
        match first_overflow {
            Some(c) => prop_assert_eq!(w.into_bytes(), Err(LeError::CountOverflow(c))),
            None => prop_assert_eq!(w.into_bytes().map(|b| b.len()), Ok(1 + 4 + 4 + 5 + 4)),
        }
    }
}

#[test]
fn count_overflow_edges() {
    let mut w = Writer::new();
    w.put_count(u32::MAX as usize);
    assert_eq!(w.into_bytes(), Ok(u32::MAX.to_le_bytes().to_vec()));
    if let Some(over) = (u32::MAX as usize).checked_add(1) {
        let mut w = Writer::new();
        w.put_count(over);
        w.put_count(usize::MAX);
        assert_eq!(w.into_bytes(), Err(LeError::CountOverflow(over)));
    }
}
