//! A deterministic differential grid for addition against host floating
//! point: every exponent gap from 0 to 58, every sign pairing, and
//! significands chosen to hit carry-out, full cancellation and
//! round-half-even ties (a smaller operand of exactly half an ulp meets an
//! even and an odd last bit), at exponents from the smallest normal binade
//! to the largest, where a carry or a tie rounds up to the next binade or
//! overflows to infinity. `properties_vs_host.rs` draws operands at random,
//! where these boundaries come up rarely; this grid walks every one.

use softfloat::{F32, F64};

macro_rules! add_grid {
    ($test:ident, $soft:ident, $native:ty, $bits:ty, frac = $frac:expr, emax = $emax:expr) => {
        #[test]
        fn $test() {
            const FRAC: u32 = $frac;
            const MASK: $bits = (1 << FRAC) - 1;
            const BIAS: u32 = $emax / 2;
            let pack = |neg: bool, e: u32, sig: $bits| {
                ((neg as $bits) << (<$bits>::BITS - 1)) | ((e as $bits) << FRAC) | sig
            };
            // 1.0, the next value up (odd last bit), all ones (a carry from
            // the last place runs through every bit), the top fraction bit
            // alone and with the last one, and two alternating patterns.
            let sigs: [$bits; 8] = [
                0,
                1,
                MASK,
                MASK - 1,
                1 << (FRAC - 1),
                (1 << (FRAC - 1)) | 1,
                (<$bits>::MAX / 3) & MASK,
                (<$bits>::MAX / 3 * 2) & MASK,
            ];
            let exps = [1, 2, 60, BIAS, BIAS + 1, $emax - 3, $emax - 2, $emax - 1];
            let mut checked = 0usize;
            for gap in 0..=58u32 {
                for &xe in &exps {
                    let Some(ye) = xe.checked_sub(gap).filter(|&e| e >= 1) else {
                        continue;
                    };
                    for &xs in &sigs {
                        for &ys in &sigs {
                            for (xn, yn) in [(false, false), (false, true), (true, false), (true, true)] {
                                let (a, b) = (pack(xn, xe, xs), pack(yn, ye, ys));
                                for (a, b) in [(a, b), (b, a)] {
                                    let host = (<$native>::from_bits(a) + <$native>::from_bits(b)).to_bits();
                                    let soft = $soft::from_bits(a).add($soft::from_bits(b)).to_bits();
                                    assert_eq!(soft, host, "{a:#x} + {b:#x} (gap {gap})");
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert!(checked > 100_000, "the grid checked only {checked} sums");
        }
    };
}

add_grid!(f64_add_matches_the_host_over_the_grid, F64, f64, u64, frac = 52, emax = 2047);
add_grid!(f32_add_matches_the_host_over_the_grid, F32, f32, u32, frac = 23, emax = 255);

/// The grid's boundaries by name, each with the value it must give.
#[test]
fn the_boundaries_give_their_ieee_values() {
    let add = |a: f64, b: f64| {
        let soft = F64::from_f64(a).add(F64::from_f64(b)).to_f64();
        assert_eq!(soft.to_bits(), (a + b).to_bits(), "{a:e} + {b:e}");
        soft
    };
    let half_ulp = 2f64.powi(-53);
    // Ties: an even last bit stays, an odd one rounds up to even.
    assert_eq!(add(1.0, half_ulp), 1.0);
    assert_eq!(add(1.0 + 2.0 * half_ulp, half_ulp), 1.0 + 4.0 * half_ulp);
    // Rounding up into the next binade, and a carry-out of the sum.
    assert_eq!(add(2.0 - 2.0 * half_ulp, half_ulp), 2.0);
    assert_eq!(add(1.5, 1.75), 3.25);
    // Full cancellation is +0 whichever operand is negative.
    assert_eq!(add(-1.25, 1.25).to_bits(), 0);
    assert_eq!(add(1.25, -1.25).to_bits(), 0);
    // Cancellation down to a subnormal.
    assert!(add(f64::MIN_POSITIVE * 1.5, -f64::MIN_POSITIVE).is_subnormal());
    // Overflow, by a carry-out and by a tie at the largest value.
    assert_eq!(add(f64::MAX, f64::MAX), f64::INFINITY);
    assert_eq!(add(-f64::MAX, -(f64::MAX / 2f64.powi(53))), f64::NEG_INFINITY);
    assert_eq!(add(f64::MAX, f64::MAX / 2f64.powi(54)), f64::MAX);
    // Binary32 round-half-even and overflow.
    let add32 = |a: f32, b: f32| F32::from_f32(a).add(F32::from_f32(b)).to_f32();
    assert_eq!(add32(1.0, 2f32.powi(-24)), 1.0);
    assert_eq!(add32(1.0 + 2f32.powi(-23), 2f32.powi(-24)), 1.0 + 2f32.powi(-22));
    assert_eq!(add32(f32::MAX, f32::MAX), f32::INFINITY);
}
