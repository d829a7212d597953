//! The `ALP_enc` / `ALP_dec` procedures (Formulas 1 and 2 of the paper) and
//! the per-vector encoder of Algorithm 1.
//!
//! A vector is encoded with a single (exponent `e`, factor `f`) pair:
//!
//! ```text
//! ALP_enc(n) = fast_round(n * 10^e * 10^-f)      // yields integer d
//! ALP_dec(d) = d * 10^f * 10^-e
//! ```
//!
//! Values for which `ALP_dec(ALP_enc(n))` is not bitwise-identical to `n`
//! become *exceptions*: they are stored verbatim and their slot in the encoded
//! integer vector is patched with the first successfully-encoded value so the
//! bit width of the packed vector is unaffected. The encoded integers then go
//! through FFOR (frame-of-reference + bit-packing, fused).

use fastlanes::ffor;
use fastlanes::VECTOR_SIZE;

use crate::traits::AlpFloat;

/// Rounds to the nearest integer using the add/subtract "sweet spot" trick
/// (§3.1 *Fast Rounding*): exact for |x| < 2^51 (f64) / 2^22 (f32); outside
/// that range the result is wrong, which the encoder detects via the decode
/// verification and turns into an exception.
#[inline(always)]
pub fn fast_round<F: AlpFloat>(x: F) -> i64 {
    ((x + F::SWEET) - F::SWEET).to_i64_cast()
}

/// `ALP_enc`: encodes one value with exponent `e` and factor `f`.
#[inline(always)]
pub fn encode_one<F: AlpFloat>(n: F, e: u8, f: u8) -> i64 {
    fast_round(n * F::f10(e) * F::if10(f))
}

/// `ALP_dec`: decodes one integer back to the float domain.
#[inline(always)]
pub fn decode_one<F: AlpFloat>(d: i64, e: u8, f: u8) -> F {
    F::from_i64(d) * F::f10(f) * F::if10(e)
}

/// Arena holding the exception streams of many [`AlpVector`]s (positions and
/// raw bit patterns in parallel).
///
/// Vectors do not own their exceptions: they record a `(start, count)` range
/// into the arena of the row-group (or [`OwnedAlpVector`]) that holds them.
/// The arena grows by amortized appends, so encoding a vector performs no
/// per-vector heap allocation — the `.to_vec()` the old layout paid on every
/// vector is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExcArena {
    pub(crate) positions: Vec<u16>,
    pub(crate) values: Vec<u64>,
}

impl ExcArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of exceptions stored across all vectors.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the arena holds no exceptions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Drops all exceptions, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.positions.clear();
        self.values.clear();
    }

    /// Appends one exception (used by the encoder and the wire reader).
    pub fn push(&mut self, position: u16, bits: u64) {
        self.positions.push(position);
        self.values.push(bits);
    }

    /// The exception range of `v`. Out-of-range or inconsistent `(start,
    /// count)` fields (possible only for corrupt wire data) yield an empty
    /// view rather than a panic.
    pub fn view(&self, v: &AlpVector) -> ExcView<'_> {
        let start = v.exc_start as usize;
        let end = start.saturating_add(v.exc_count as usize);
        ExcView {
            positions: self.positions.get(start..end).unwrap_or(&[]),
            values: self.values.get(start..end).unwrap_or(&[]),
        }
    }
}

/// Borrowed view of one vector's exceptions: parallel position/value slices.
#[derive(Debug, Clone, Copy)]
pub struct ExcView<'a> {
    /// Positions (within the vector) of values stored as exceptions.
    pub positions: &'a [u16],
    /// Raw bit patterns of the exception values (zero-extended to 64 bits).
    pub values: &'a [u64],
}

impl ExcView<'_> {
    /// A view with no exceptions (for synthetic vectors).
    pub const fn empty() -> Self {
        ExcView { positions: &[], values: &[] }
    }

    /// Number of exceptions in the view.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the view holds no exceptions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// One ALP-encoded vector of up to 1024 values (§3.1).
///
/// `packed` stores the FFOR'd integers; exceptions live in an [`ExcArena`]
/// owned by the enclosing row-group, referenced here by `(exc_start,
/// exc_count)` (positions are `u16`, values raw bit patterns — 80 bits of
/// overhead per exception for doubles, as in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlpVector {
    /// Exponent `e` shared by the whole vector.
    pub exponent: u8,
    /// Factor `f` shared by the whole vector.
    pub factor: u8,
    /// Bits per packed residual.
    pub bit_width: u8,
    /// Frame-of-reference base subtracted before packing.
    pub for_base: i64,
    /// Bit-packed residuals, `fastlanes::packed_len(bit_width)` words.
    pub packed: Vec<u64>,
    /// Offset of this vector's exceptions in the owning arena.
    pub exc_start: u32,
    /// Number of exceptions in this vector.
    pub exc_count: u16,
    /// Number of live values in this vector (`<= 1024`; only the last vector
    /// of a column may be short).
    pub len: u16,
}

impl AlpVector {
    /// Exact compressed size in bits, counting everything a serialized format
    /// must store: parameters, base, packed payload, and exceptions.
    pub fn compressed_bits<F: AlpFloat>(&self) -> usize {
        // e + f + bit_width (u8 each) + base (64) + exception count (16)
        let header = 8 + 8 + 8 + 64 + 16;
        let payload = self.bit_width as usize * VECTOR_SIZE;
        let exceptions = self.exc_count as usize * (16 + F::BITS as usize);
        header + payload + exceptions
    }

    /// Number of exceptions in this vector.
    pub fn exception_count(&self) -> usize {
        self.exc_count as usize
    }
}

/// An [`AlpVector`] bundled with a private arena holding just its own
/// exceptions — the convenience form returned by [`encode_vector`] for
/// single-vector callers (benchmarks, tests, ablations). Hot paths encode
/// many vectors into one shared arena via [`encode_vector_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedAlpVector {
    /// The encoded vector (`exc_start` is 0 in the private arena).
    pub vector: AlpVector,
    /// The vector's exceptions.
    pub exceptions: ExcArena,
}

impl OwnedAlpVector {
    /// View of the vector's exceptions.
    pub fn view(&self) -> ExcView<'_> {
        self.exceptions.view(&self.vector)
    }

    /// Positions of the exception values.
    pub fn exc_positions(&self) -> &[u16] {
        self.view().positions
    }

    /// Raw bit patterns of the exception values.
    pub fn exc_values(&self) -> &[u64] {
        self.view().values
    }
}

impl core::ops::Deref for OwnedAlpVector {
    type Target = AlpVector;
    fn deref(&self) -> &AlpVector {
        &self.vector
    }
}

/// Encodes one vector (Algorithm 1) with the given `(e, f)` combination,
/// appending its exceptions to `exceptions`.
///
/// `input.len()` must be `1..=1024`. Shorter inputs are padded internally with
/// the patch value so the packed payload is always a full 1024-value vector.
/// Allocation-free once the arena is warm (the detection buffers live on the
/// stack).
pub fn encode_vector_into<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    exceptions: &mut ExcArena,
) -> AlpVector {
    let len = input.len();
    assert!(len > 0 && len <= VECTOR_SIZE, "vector length {len} out of range");

    let mut encoded = [0i64; VECTOR_SIZE];
    // Bit `i % 64` of word `i / 64` is set iff value `i` is an exception.
    let mut exc_masks = [0u64; VECTOR_SIZE / 64];
    if !encode_in_range(input, e, f, &mut encoded, &mut exc_masks) {
        encode_scalar(input, e, f, &mut encoded, &mut exc_masks);
    }

    // FIND_FIRST_ENCODED: first position that is *not* an exception.
    let first_encoded = find_first_encoded(&encoded[..len], &exc_masks);

    // Fetch exceptions into the shared arena and patch their slots.
    let exc_start = u32::try_from(exceptions.len()).unwrap_or(u32::MAX);
    assert!(exc_start as usize == exceptions.len(), "exception arena exceeds u32 addressing");
    let mut exc_count = 0usize;
    for (block, &mask) in exc_masks.iter().enumerate() {
        let mut m = mask;
        while m != 0 {
            let p = block * 64 + m.trailing_zeros() as usize;
            exceptions.push(p as u16, input[p].to_bits_u64());
            encoded[p] = first_encoded;
            exc_count += 1;
            m &= m - 1;
        }
    }
    // Pad a short tail with the patch value (does not widen the frame).
    for slot in encoded[len..].iter_mut() {
        *slot = first_encoded;
    }

    let (for_base, bit_width) = ffor::frame_of(&encoded);
    let packed = ffor::ffor_pack(&encoded, for_base, bit_width);

    AlpVector {
        exponent: e,
        factor: f,
        bit_width: bit_width as u8,
        for_base,
        packed,
        exc_start,
        exc_count: exc_count as u16,
        len: len as u16,
    }
}

/// `fast_round(y)` without the float-to-integer conversion, for
/// `|y| < FAST_LIMIT`: `y + SWEET` then lies in the binade where one unit of
/// the bit pattern is exactly 1.0, so the rounded integer is the distance of
/// the bit patterns. Outside that range the result is meaningless.
#[inline(always)]
fn sweet_to_int<F: AlpFloat>(y: F) -> i64 {
    ((y + F::SWEET).to_bits_u64() as i64).wrapping_sub(F::SWEET.to_bits_u64() as i64)
}

/// Inverse of [`sweet_to_int`]: exactly `F::from_i64(d)` for
/// `|d| <= FAST_LIMIT`, the range the encoder's in-range integers fall in.
#[inline(always)]
fn sweet_from_int<F: AlpFloat>(d: i64) -> F {
    F::from_bits_u64(d.wrapping_add(F::SWEET.to_bits_u64() as i64) as u64) - F::SWEET
}

/// The conversion-free encode kernel: encodes `input` and marks its
/// exceptions in `exc_masks`, identical to [`encode_scalar`] — but only when
/// every scaled value lies strictly within `±FAST_LIMIT`. Returns `false`,
/// leaving `exc_masks` untouched, when a lane is out of range (NaN, ±inf,
/// huge magnitudes); the caller then re-encodes with the scalar loop.
#[inline(always)]
fn encode_in_range<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    encoded: &mut [i64; VECTOR_SIZE],
    exc_masks: &mut [u64; VECTOR_SIZE / 64],
) -> bool {
    let (enc_e, enc_f) = (F::f10(e), F::if10(f));
    let (dec_f, dec_e) = (F::f10(f), F::if10(e));
    let mut in_range = true;
    for (slot, &n) in encoded.iter_mut().zip(input) {
        let y = n * enc_e * enc_f;
        in_range &= y.abs() < F::FAST_LIMIT;
        *slot = sweet_to_int(y);
    }
    if !in_range {
        return false;
    }
    mark_exceptions(input, encoded, exc_masks, |d| sweet_from_int::<F>(d) * dec_f * dec_e);
    true
}

/// The reference encode loop: `encode_one`, then `decode_one` to verify,
/// for any input — NaN, ±inf and huge values included.
fn encode_scalar<F: AlpFloat>(
    input: &[F],
    e: u8,
    f: u8,
    encoded: &mut [i64; VECTOR_SIZE],
    exc_masks: &mut [u64; VECTOR_SIZE / 64],
) {
    for (slot, &n) in encoded.iter_mut().zip(input) {
        *slot = encode_one(n, e, f);
    }
    mark_exceptions(input, encoded, exc_masks, |d| decode_one::<F>(d, e, f));
}

/// Sets bit `i % 64` of word `i / 64` of the (zeroed) `exc_masks` for every
/// value `i` of `input` that `decode(encoded[i])` does not reproduce
/// bit-for-bit. Lanes are compared eight at a time with constant shifts, a
/// form the compiler vectorizes.
#[inline(always)]
fn mark_exceptions<F: AlpFloat>(
    input: &[F],
    encoded: &[i64; VECTOR_SIZE],
    exc_masks: &mut [u64; VECTOR_SIZE / 64],
    decode: impl Fn(i64) -> F,
) {
    let differs = |n: F, d: i64| (decode(d).to_bits_u64() != n.to_bits_u64()) as u64;
    for (c, (values, ints)) in input.chunks_exact(8).zip(encoded.chunks_exact(8)).enumerate() {
        let mut byte = 0u64;
        for k in 0..8 {
            byte |= differs(values[k], ints[k]) << k;
        }
        exc_masks[c / 8] |= byte << (8 * (c % 8));
    }
    for i in input.len() / 8 * 8..input.len() {
        exc_masks[i / 64] |= differs(input[i], encoded[i]) << (i % 64);
    }
}

/// Encodes one vector into a fresh private arena — see [`encode_vector_into`]
/// for the shared-arena hot path.
pub fn encode_vector<F: AlpFloat>(input: &[F], e: u8, f: u8) -> OwnedAlpVector {
    let mut exceptions = ExcArena::new();
    let vector = encode_vector_into(input, e, f, &mut exceptions);
    OwnedAlpVector { vector, exceptions }
}

/// Returns the first encoded integer whose position is not marked in
/// `exc_masks`, or 0 if every value is an exception.
fn find_first_encoded(encoded: &[i64], exc_masks: &[u64; VECTOR_SIZE / 64]) -> i64 {
    for (block, &mask) in exc_masks.iter().enumerate() {
        let i = block * 64 + mask.trailing_ones() as usize;
        if i >= encoded.len() {
            break;
        }
        if mask != u64::MAX {
            return encoded[i];
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_round_is_round_half_to_even() {
        // The FP addition rounds ties to even (banker's rounding).
        let cases: &[(f64, i64)] = &[
            (0.0, 0),
            (0.4, 0),
            (0.6, 1),
            (1.5, 2),
            (2.5, 2),
            (3.5, 4),
            (-0.4, 0),
            (-0.6, -1),
            (-1.5, -2),
            (-2.5, -2),
            (12345.499, 12345),
            (-99999.51, -100000),
        ];
        for &(x, expected) in cases {
            assert_eq!(fast_round(x), expected, "x = {x}");
        }
    }

    #[test]
    fn fast_round_of_nan_and_inf_is_harmless() {
        // The values are garbage but must not panic; the decode-verify step
        // rejects them as exceptions.
        let _ = fast_round(f64::NAN);
        let _ = fast_round(f64::INFINITY);
        let _ = fast_round(f64::NEG_INFINITY);
    }

    #[test]
    fn paper_running_example() {
        // §2.6: n ≈ 8.0605, e = 14, f = 10 encodes to 80605.
        let n: f64 = 8.0605;
        let d = encode_one(n, 14, 10);
        assert_eq!(d, 80605);
        let back: f64 = decode_one(d, 14, 10);
        assert_eq!(back.to_bits(), n.to_bits());
    }

    #[test]
    fn paper_example_fails_with_naive_exponent() {
        // §2.5: using e = 4 (the visible precision) fails for 8.0605.
        let n: f64 = 8.0605;
        let d = encode_one(n, 4, 0);
        let back: f64 = decode_one(d, 4, 0);
        assert_ne!(back.to_bits(), n.to_bits());
    }

    #[test]
    fn encode_vector_roundtrips_decimals_without_exceptions() {
        // (314 + i) / 100: division by an exact power of ten is correctly
        // rounded, so these are genuine "decimals stored as doubles".
        let input: Vec<f64> = (0..1024).map(|i| (314 + i) as f64 / 100.0).collect();
        let v = encode_vector(&input, 14, 12);
        assert_eq!(v.exception_count(), 0);
        assert_eq!(v.len, 1024);
    }

    #[test]
    fn nan_inf_neg_zero_become_exceptions() {
        let mut input = vec![1.5f64; 1024];
        input[0] = f64::NAN;
        input[1] = f64::INFINITY;
        input[2] = f64::NEG_INFINITY;
        input[3] = -0.0;
        input[4] = f64::from_bits(0x7FF0_0000_0000_0001); // signaling-ish NaN
        let v = encode_vector(&input, 14, 13);
        assert_eq!(v.exception_count(), 5);
        assert_eq!(v.exc_positions(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_exception_vector_is_representable() {
        let input = vec![f64::NAN; 8];
        let v = encode_vector(&input, 10, 5);
        assert_eq!(v.exception_count(), 8);
        assert_eq!(v.bit_width, 0); // all slots patched with 0
    }

    #[test]
    fn short_vector_padding_does_not_widen_frame() {
        let input = vec![100.25f64, 100.50, 100.75];
        let v = encode_vector(&input, 14, 12);
        assert_eq!(v.len, 3);
        assert_eq!(v.exception_count(), 0);
        // Range of encoded values is 50 -> 6 bits.
        assert!(v.bit_width <= 7, "width {}", v.bit_width);
    }

    #[test]
    fn find_first_encoded_skips_leading_exceptions() {
        let encoded = [7i64, 8, 9];
        let masks = |m: u64| {
            let mut all = [0u64; VECTOR_SIZE / 64];
            all[0] = m;
            all
        };
        assert_eq!(find_first_encoded(&encoded, &masks(0b011)), 9);
        assert_eq!(find_first_encoded(&encoded, &masks(0)), 7);
        assert_eq!(find_first_encoded(&encoded, &masks(0b111)), 0);
        let long: Vec<i64> = (0..130).collect();
        let mut two_blocks = [0u64; VECTOR_SIZE / 64];
        two_blocks[0] = u64::MAX;
        two_blocks[1] = 0b1;
        assert_eq!(find_first_encoded(&long, &two_blocks), 65);
        two_blocks[1] = u64::MAX;
        two_blocks[2] = 0b11;
        assert_eq!(find_first_encoded(&long, &two_blocks), 0);
    }

    /// Values on and around the fast conversions' range limits, plus the
    /// specials that must take the scalar path.
    fn boundary_f64() -> Vec<f64> {
        let limit = 2f64.powi(51);
        vec![
            limit,
            -limit,
            limit - 1.0,
            -(limit - 1.0),
            2f64.powi(52),
            -(2f64.powi(52)),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            0.5,
            -2.5,
            1e300,
        ]
    }

    fn boundary_f32() -> Vec<f32> {
        let limit = 2f32.powi(22);
        vec![
            limit,
            -limit,
            limit - 1.0,
            -(limit - 1.0),
            2f32.powi(23),
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            0.5,
            -2.5,
        ]
    }

    /// Inside the range the bit-pattern conversions are the casts.
    fn assert_sweet_conversions<F: AlpFloat>(values: &[F]) {
        for &y in values.iter().filter(|y| y.abs() < F::FAST_LIMIT) {
            let d = fast_round(y);
            assert_eq!(sweet_to_int(y), d, "{y:?}");
            assert_eq!(sweet_from_int::<F>(d).to_bits_u64(), F::from_i64(d).to_bits_u64());
        }
    }

    #[test]
    fn sweet_conversions_are_exact_inside_the_range() {
        assert_sweet_conversions(&boundary_f64());
        assert_sweet_conversions(&boundary_f32());
        // ±2^51 and ±(2^51 − 1) integers convert back exactly too.
        for d in [(1i64 << 51) - 1, -((1i64 << 51) - 1), 1 << 51, -(1 << 51)] {
            assert_eq!(sweet_from_int::<f64>(d), d as f64);
        }
        for d in [(1i64 << 22) - 1, -((1i64 << 22) - 1), 1 << 22, -(1 << 22)] {
            assert_eq!(sweet_from_int::<f32>(d), d as f32);
        }
        // Just outside, the bit-pattern distance is no longer the integer.
        assert_ne!(sweet_to_int(2f64.powi(52)), fast_round(2f64.powi(52)));
        assert_ne!(sweet_to_int(2f32.powi(23)), fast_round(2f32.powi(23)));
    }

    /// Every boundary value, alone among decimals and at several `(e, f)`:
    /// the vector encoder (fast path or scalar fallback) agrees with the
    /// scalar reference lane by lane.
    fn assert_encoder_matches_scalar<F: AlpFloat>(specials: &[F], filler: F) {
        for &special in specials {
            for len in [1usize, 7, 64, 1000, VECTOR_SIZE] {
                let mut input = vec![filler; len];
                input[len / 2] = special;
                for (e, f) in [(0u8, 0u8), (2, 0), (F::MAX_EXPONENT, 3), (8, 8)] {
                    let (mut enc, mut masks) = ([0i64; VECTOR_SIZE], [0u64; VECTOR_SIZE / 64]);
                    encode_scalar(&input, e, f, &mut enc, &mut masks);
                    let (mut fast, mut fast_masks) =
                        ([0i64; VECTOR_SIZE], [0u64; VECTOR_SIZE / 64]);
                    if encode_in_range(&input, e, f, &mut fast, &mut fast_masks) {
                        assert_eq!((fast, fast_masks), (enc, masks), "{special:?} e{e} f{f}");
                    }
                    let v = encode_vector(&input, e, f);
                    let expected: Vec<u16> = (0..len)
                        .filter(|&i| {
                            decode_one::<F>(encode_one(input[i], e, f), e, f).to_bits_u64()
                                != input[i].to_bits_u64()
                        })
                        .map(|i| i as u16)
                        .collect();
                    assert_eq!(v.exc_positions(), &expected[..], "{special:?} e{e} f{f}");
                }
            }
        }
    }

    #[test]
    fn encoder_matches_scalar_reference_at_the_range_limits() {
        assert_encoder_matches_scalar(&boundary_f64(), 12.25f64);
        assert_encoder_matches_scalar(&boundary_f32(), 12.25f32);
    }

    #[test]
    fn out_of_range_lanes_take_the_scalar_path() {
        let (mut enc, mut masks) = ([0i64; VECTOR_SIZE], [0u64; VECTOR_SIZE / 64]);
        for special in [f64::NAN, f64::INFINITY, 2f64.powi(51), 1e17] {
            let mut input = vec![1.5f64; 100];
            input[99] = special;
            assert!(!encode_in_range(&input, 0, 0, &mut enc, &mut masks), "{special}");
        }
        let input = vec![1.5f64; 100];
        assert!(encode_in_range(&input, 1, 0, &mut enc, &mut masks));
        // 1e17 is an integer the scalar path encodes without exception.
        let huge = encode_vector(&[1e17f64, 3.0, -4.0], 0, 0);
        assert_eq!(huge.exception_count(), 0);
    }

    #[test]
    fn f32_paper_style_roundtrip() {
        let n: f32 = 8.0605;
        let d = encode_one(n, 7, 3);
        let back: f32 = decode_one(d, 7, 3);
        assert_eq!(back.to_bits(), n.to_bits());
    }
}
