/* Fused single-pass kernels behind the repro vectorize seam.
 *
 * This file is compiled on first use by repro.kernels.compiled_backend
 * (plain `cc -O3 -shared -fPIC`, loaded through ctypes) — it has no
 * Python.h or NumPy dependency, so the build needs nothing beyond a C
 * compiler with 128-bit integer support (gcc/clang on any 64-bit target).
 *
 * Contract: every kernel is EXACT and must produce bit-identical results
 * to the NumPy reference backend (repro.kernels.numpy_backend) on its
 * supported input domain; the Python wrappers delegate out-of-domain
 * inputs (object dtypes, moduli >= 2^63/2^64) back to the reference.
 * Arithmetic rides on unsigned __int128 products, except where both
 * factors are known to fit 32 bits.  The two Mersenne moduli the library
 * draws reduce without dividing: 2^61 - 1 with a branch-free three-limb
 * fold (mod_m61), and the k-wise Horner over 2^31 - 1 in blocks of eight
 * independent u64 lanes (kwise_m31_block) whenever a block's keys and
 * the coefficients are all below p.  The fused chains at the end reduce
 * a hash range that is not a power of two with a multiply by a
 * precomputed reciprocal instead of a division (Granlund and Montgomery,
 * "Division by Invariant Integers using Multiplication", PLDI 1994), and
 * primes up to 2^32 with one 64-bit division; every other modulus pays
 * one 128-by-64 division per element.
 */

#include <stdint.h>

typedef unsigned __int128 u128;
typedef uint64_t u64;
typedef int64_t i64;
typedef uint8_t u8;

#define EXPORT __attribute__((visibility("default")))

/* ABI version checked by the loader; bump when a signature changes. */
EXPORT int repro_kernels_abi(void) { return 4; }

/* Reduce x modulo p = 2^61 - 1 without a branch.  Since 2^61 = 1
 * (mod p), the three limbs of x at bits 0, 61 and 122 sum to x (mod p);
 * that sum is below 2^62 + 2^6, one 64-bit fold leaves at most p + 2, and
 * one conditional subtract (a cmov) lands in [0, p).  Exact for every
 * x < 2^128. */
static inline u64 mod_m61(u128 x) {
    const u64 p = ((u64)1 << 61) - 1;
    u64 s = ((u64)x & p) + ((u64)(x >> 61) & p) + (u64)(x >> 122);
    s = (s & p) + (s >> 61);
    return s >= p ? s - p : s;
}

/* Reduce x modulo p.  p = 2^61 - 1 takes mod_m61; for p = 2^31 - 1 the
 * identity 2^31 = 1 (mod p) folds the high bits down without dividing
 * until x <= p.  mers == 0 selects the generic 128-by-64 division. */
static inline u64 mod_u128(u128 x, u64 p, unsigned mers) {
    if (mers == 61)
        return mod_m61(x);
    if (mers) {
        u128 mask = ((u128)1 << mers) - 1;
        while (x >> mers)
            x = (x & mask) + (x >> mers);
        u64 r = (u64)x;
        return r == p ? 0 : r;
    }
    return (u64)(x % p);
}

/* r % range, or r & (range - 1) for a power-of-two range; range == 0
 * means "no range reduction" (the caller's range does not fit 64 bits). */
static inline u64 reduce_range(u64 r, u64 range, int range_pow2) {
    if (range_pow2)
        return r & (range - 1);
    return range ? r % range : r;
}

/* (multiplier * keys[i]) % p — the mulmod kernel. */
EXPORT void repro_mulmod(u64 multiplier, const u64 *keys, i64 n, u64 p,
                         int mers, u64 *out) {
    for (i64 i = 0; i < n; i++)
        out[i] = mod_u128((u128)multiplier * keys[i], p, mers);
}

/* ((a * keys[i] + b) % p) — the affine_mod kernel (a, b < p < 2^63). */
EXPORT void repro_affine_mod(u64 a, u64 b, const u64 *keys, i64 n, u64 p,
                             int mers, u64 *out) {
    for (i64 i = 0; i < n; i++) {
        u64 r = mod_u128((u128)a * keys[i], p, mers);
        r += b; /* r < p < 2^63 and b < p, so no overflow */
        if (r >= p)
            r -= p;
        out[i] = r;
    }
}

/* Fused Carter--Wegman chain: ((a*k + b) % p) % range in one pass.
 * range_pow2 != 0 selects a mask; range == 0 means "no range reduction"
 * (the caller's range does not fit 64 bits, so values pass through). */
EXPORT void repro_affine_mod_range(u64 a, u64 b, const u64 *keys, i64 n,
                                   u64 p, int mers, u64 range,
                                   int range_pow2, u64 *out) {
    for (i64 i = 0; i < n; i++) {
        u64 r = mod_u128((u128)a * keys[i], p, mers);
        r += b;
        if (r >= p)
            r -= p;
        out[i] = reduce_range(r, range, range_pow2);
    }
}

/* values[i] % range (range < 2^64; power-of-two ranges mask). */
EXPORT void repro_mod_range(const u64 *values, i64 n, u64 range,
                            int range_pow2, u64 *out) {
    if (range_pow2) {
        u64 mask = range - 1;
        for (i64 i = 0; i < n; i++)
            out[i] = values[i] & mask;
    } else {
        for (i64 i = 0; i < n; i++)
            out[i] = values[i] % range;
    }
}

/* (left[i] * right[i]) % p for left < p < 2^64, right < 2^64. */
EXPORT void repro_mulmod_arrays(const u64 *left, const u64 *right, i64 n,
                                u64 p, int mers, u64 *out) {
    for (i64 i = 0; i < n; i++)
        out[i] = mod_u128((u128)left[i] * right[i], p, mers);
}

/* The Mersenne-31 Horner works on blocks of this many keys. */
#define M31_LANES 8

/* Horner over p = 2^31 - 1 for one block of M31_LANES keys, as that many
 * independent u64 lanes; every key and coefficient must be below p.  The
 * lanes stay partly reduced, in [0, p + 1]: then acc * key is a product
 * of two 32-bit words and acc * key + c < 2^62, so one fold leaves at
 * most 2^32 - 2 and a second at most p + 1 again.  One conditional
 * subtract per lane at the end gives the canonical residue mod_u128
 * would. */
static inline void kwise_m31_block(const u64 *coeffs, i64 k, const u64 *keys,
                                   u64 *out) {
    const u64 p = ((u64)1 << 31) - 1;
    u64 acc[M31_LANES];
    for (int l = 0; l < M31_LANES; l++)
        acc[l] = coeffs[k - 1];
    for (i64 j = k - 2; j >= 0; j--) {
        u64 c = coeffs[j];
        for (int l = 0; l < M31_LANES; l++) {
            u64 x = (u64)(uint32_t)acc[l] * (uint32_t)keys[l] + c;
            x = (x & p) + (x >> 31);
            acc[l] = (x & p) + (x >> 31);
        }
    }
    for (int l = 0; l < M31_LANES; l++)
        out[l] = acc[l] >= p ? acc[l] - p : acc[l];
}

/* kwise_m31_block for keys below 2^30, with one fold per step: a lane
 * below 3.5 * 2^31 times a key below 2^30, plus c, stays below 2^64, and
 * one fold leaves the lane below 3.5 * 2^31 again.  A last fold and one
 * conditional subtract give the canonical residue. */
static inline void kwise_m31_block30(const u64 *coeffs, i64 k, const u64 *keys,
                                     u64 *out) {
    const u64 p = ((u64)1 << 31) - 1;
    u64 acc[M31_LANES];
    for (int l = 0; l < M31_LANES; l++)
        acc[l] = coeffs[k - 1];
    for (i64 j = k - 2; j >= 0; j--) {
        u64 c = coeffs[j];
        for (int l = 0; l < M31_LANES; l++) {
            u64 x = acc[l] * keys[l] + c;
            acc[l] = (x & p) + (x >> 31);
        }
    }
    for (int l = 0; l < M31_LANES; l++) {
        u64 x = (acc[l] & p) + (acc[l] >> 31);
        out[l] = x >= p ? x - p : x;
    }
}

/* Horner for one key over any p < 2^63 through the exact __int128 path. */
static inline u64 kwise_u128(const u64 *coeffs, i64 k, u64 key, u64 p,
                             unsigned mers) {
    u64 acc = coeffs[k - 1];
    for (i64 j = k - 2; j >= 0; j--)
        acc = mod_u128((u128)acc * key + coeffs[j], p, mers);
    return acc;
}

/* target[idx] = max(target[idx], value) scatter, one linear pass (the
 * NumPy reference pays an argsort + reduceat).  Values arrive as int64
 * and are cast to the target dtype; the seam contract requires them to
 * fit, so the cast is value-preserving and cast-then-max equals
 * max-then-cast. */
#define DEFINE_MAX_SCATTER(SUFFIX, T)                                        \
    EXPORT void repro_grouped_max_scatter_##SUFFIX(                          \
        T *target, const i64 *indices, const i64 *values, i64 n) {           \
        for (i64 i = 0; i < n; i++) {                                        \
            T v = (T)values[i];                                              \
            i64 t = indices[i];                                              \
            if (target[t] < v)                                               \
                target[t] = v;                                               \
        }                                                                    \
    }

DEFINE_MAX_SCATTER(u8, uint8_t)
DEFINE_MAX_SCATTER(u16, uint16_t)
DEFINE_MAX_SCATTER(u32, uint32_t)
DEFINE_MAX_SCATTER(u64, uint64_t)
DEFINE_MAX_SCATTER(i8, int8_t)
DEFINE_MAX_SCATTER(i16, int16_t)
DEFINE_MAX_SCATTER(i32, int32_t)
DEFINE_MAX_SCATTER(i64, int64_t)

/* target[idx] |= mask scatter over a byte buffer (bit-plane updates). */
EXPORT void repro_grouped_or_scatter_u8(u8 *target, const i64 *indices,
                                        const u8 *masks, i64 n) {
    for (i64 i = 0; i < n; i++)
        target[indices[i]] |= masks[i];
}

/* Least-significant-set-bit of each word; zeros map to zero_value (the
 * paper's lsb(0) = log n sentinel). */
EXPORT void repro_lsb64_batch(const u64 *values, i64 n, i64 zero_value,
                              i64 *out) {
    for (i64 i = 0; i < n; i++) {
        u64 v = values[i];
        out[i] = v ? (i64)__builtin_ctzll(v) : zero_value;
    }
}

/* ---------------------------------------------------------------------------
 * Shared pieces of the fused chains below.
 *
 * Each chain packs its hash functions into `form` as u64 words, each
 * function as its prime, its range and its coefficients low degree first
 * (h(x) = (sum_j c_j x^j mod p) mod range): a pairwise function is four
 * words {p, range, c_0, c_1}, a polynomial {p, range, k, c_0 .. c_{k-1}}.
 * Every coefficient is below its p < 2^63 and every range below 2^64
 * (range 0 means no reduction).  Keys go through in blocks of
 * CHAIN_BLOCK: each stage picks its prime's reduction and its range's
 * mask or reciprocal once per block, so the per-key loops carry no
 * dispatch.
 *
 * A polynomial h3 has three forms: k > 0 with table == NULL evaluates the
 * polynomial per key; k > 0 with a table reads the table and fills an
 * entry still holding TABLE_UNFILLED from the same polynomial; k == 0
 * reads a complete table.  Tables hold values already reduced to h3's
 * range and must cover every value h3 is evaluated on.
 * ------------------------------------------------------------------------- */

#define CHAIN_BLOCK 64
#define TABLE_UNFILLED (~(u64)0)

/* An invariant divisor d.  A power of two (and d = 0, "no reduction")
 * masks.  Otherwise magic = floor((2^64 - 1) / d) >= 2^64 / d - 1, so for
 * every v < 2^64 the quotient estimate q = floor(v * magic / 2^64) is
 * floor(v / d) or one less: v - q d lies in [0, 2d) and one conditional
 * subtract lands in [0, d). */
typedef struct {
    u64 d, magic;
} divisor;

static inline divisor divisor_of(u64 d) {
    divisor by = {d, (d & (d - 1)) == 0 ? 0 : ~(u64)0 / d};
    return by;
}

static inline u64 reduce(u64 v, divisor by) {
    if (by.magic == 0)
        return v & (by.d - 1);
    u64 r = v - (u64)(((u128)v * by.magic) >> 64) * by.d;
    return r >= by.d ? r - by.d : r;
}

/* values[i] mod range in place. */
static inline void reduce_block(u64 *values, i64 n, u64 range) {
    const divisor by = divisor_of(range);
    if (by.magic == 0) {
        for (i64 i = 0; i < n; i++)
            values[i] &= range - 1;
    } else {
        for (i64 i = 0; i < n; i++)
            values[i] = reduce(values[i], by);
    }
}

/* How a prime reduces: the two Mersenne primes fold; FIELD_SMALL (p at
 * most 2^32, a*x + b below 2^64) divides one word; FIELD_WIDE divides a
 * 128-bit value. */
enum { FIELD_WIDE = 0, FIELD_SMALL = 1, FIELD_M31 = 31, FIELD_M61 = 61 };

static inline int field_kind(u64 p) {
    if (p == ((u64)1 << 61) - 1)
        return FIELD_M61;
    if (p == ((u64)1 << 31) - 1)
        return FIELD_M31;
    return p <= ((u64)1 << 32) ? FIELD_SMALL : FIELD_WIDE;
}

/* (a * x + b) mod p for a, b < p and x below the function's domain bound
 * (a * x + b < 2^64 for FIELD_SMALL, x < 2^33 for FIELD_M31). */
static inline __attribute__((always_inline)) u64
field_affine(u64 a, u64 b, u64 x, u64 p, const int kind) {
    if (kind == FIELD_M61) {
        u64 r = mod_m61((u128)a * x) + b;
        return r >= p ? r - p : r;
    }
    if (kind == FIELD_M31) {
        /* a * x + b < 2^64: two folds leave at most p + 8. */
        u64 r = a * x + b;
        r = (r & p) + (r >> 31);
        r = (r & p) + (r >> 31);
        return r >= p ? r - p : r;
    }
    if (kind == FIELD_SMALL)
        return (a * x + b) % p;
    return (u64)(((u128)a * x + b) % p);
}

#define AFFINE_LOOP(KIND)                                                    \
    for (i64 i = 0; i < n; i++)                                              \
        out[i] = field_affine(a, b, keys[i], p, KIND)

/* h(keys[i]) for one block of a pairwise function {p, range, b, a}; out
 * may alias keys. */
static void pairwise_block(const u64 *h, const u64 *keys, i64 n, u64 *out) {
    const u64 p = h[0], b = h[2], a = h[3];
    switch (field_kind(p)) {
    case FIELD_M61: AFFINE_LOOP(FIELD_M61); break;
    case FIELD_M31: AFFINE_LOOP(FIELD_M31); break;
    case FIELD_SMALL: AFFINE_LOOP(FIELD_SMALL); break;
    default: AFFINE_LOOP(FIELD_WIDE); break;
    }
    reduce_block(out, n, h[1]);
}

/* Horner for one key; x below the function's domain bound, as above. */
static inline __attribute__((always_inline)) u64
horner(const u64 *coeffs, i64 k, u64 x, u64 p, const int kind) {
    u64 acc = coeffs[k - 1];
    for (i64 j = k - 2; j >= 0; j--)
        acc = field_affine(acc, coeffs[j], x, p, kind);
    return acc;
}

#define HORNER_LOOP(KIND)                                                    \
    for (i64 i = 0; i < n; i++)                                              \
        out[i] = horner(coeffs, k, keys[i], p, KIND)

/* Horner for one key of a table (below 2^16), the prime dispatched per
 * call: table misses are rare. */
static u64 horner_once(const u64 *coeffs, i64 k, u64 x, u64 p) {
    switch (field_kind(p)) {
    case FIELD_M61: return horner(coeffs, k, x, p, FIELD_M61);
    case FIELD_M31: return horner(coeffs, k, x, p, FIELD_M31);
    case FIELD_SMALL: return horner(coeffs, k, x, p, FIELD_SMALL);
    default: return horner(coeffs, k, x, p, FIELD_WIDE);
    }
}

/* A polynomial on n keys, unreduced.  Over 2^31 - 1 each run of M31_LANES
 * keys all below 2^30 takes kwise_m31_block30, all below p
 * kwise_m31_block; a run holding a larger key, and the tail, take the
 * exact __int128 Horner.  FIELD_SMALL needs acc * x + c < 2^64. */
static void polynomial_block(const u64 *coeffs, i64 k, u64 p, const u64 *keys,
                             i64 n, u64 *out) {
    switch (field_kind(p)) {
    case FIELD_M31:
        for (i64 i = 0; i < n; i += M31_LANES) {
            i64 run = n - i < M31_LANES ? n - i : M31_LANES;
            int below = run == M31_LANES, narrow = below;
            for (i64 l = 0; l < run; l++) {
                below &= keys[i + l] < p;
                narrow &= keys[i + l] < ((u64)1 << 30);
            }
            if (narrow)
                kwise_m31_block30(coeffs, k, keys + i, out + i);
            else if (below)
                kwise_m31_block(coeffs, k, keys + i, out + i);
            else
                for (i64 l = 0; l < run; l++)
                    out[i + l] = kwise_u128(coeffs, k, keys[i + l], p, 31);
        }
        break;
    case FIELD_M61: HORNER_LOOP(FIELD_M61); break;
    case FIELD_SMALL: HORNER_LOOP(FIELD_SMALL); break;
    default: HORNER_LOOP(FIELD_WIDE); break;
    }
}

/* Fused k-wise polynomial hash: Horner over k coefficients (low degree
 * first, p < 2^63) then one range reduction — the entire
 * KWiseHash.hash_batch chain in a single pass per key, through
 * polynomial_block's field dispatch.  The wrapper keeps every key below
 * the bound polynomial_block needs for p's field kind.  A coefficient of
 * p or more (outside the seam's contract) sends every key to the exact
 * __int128 Horner instead. */
EXPORT void repro_kwise_mod_range(const u64 *coeffs, i64 k, const u64 *keys,
                                  i64 n, u64 p, u64 range, u64 *out) {
    int in_field = 1;
    for (i64 j = 0; j < k; j++)
        in_field &= coeffs[j] < p;
    if (in_field) {
        polynomial_block(coeffs, k, p, keys, n, out);
    } else {
        const int kind = field_kind(p);
        for (i64 i = 0; i < n; i++)
            out[i] = kwise_u128(coeffs, k, keys[i], p, kind > FIELD_SMALL ? kind : 0);
    }
    reduce_block(out, n, range);
}

/* h3(keys[i]) for one block, h3 = {p, range, k, coefficients}: a gather,
 * a gather that fills misses, or the polynomial and its range
 * reduction. */
static void h3_block(const u64 *h, u64 *table, const u64 *keys, i64 n,
                     u64 *out) {
    const u64 p = h[0], range = h[1];
    const i64 k = (i64)h[2];
    const u64 *coeffs = h + 3;
    if (table == 0) {
        polynomial_block(coeffs, k, p, keys, n, out);
        reduce_block(out, n, range);
        return;
    }
    for (i64 i = 0; i < n; i++) {
        u64 v = table[keys[i]];
        if (v == TABLE_UNFILLED && k > 0) {
            /* Only a polynomial's table has misses. */
            v = horner_once(coeffs, k, keys[i], p) % range;
            table[keys[i]] = v;
        }
        out[i] = v;
    }
}

/* levels[i] = lsb(h(keys[i])), lsb(0) being the level limit; a NULL h
 * puts every key at level 0. */
static void level_block(const u64 *h, const u64 *keys, i64 n, i64 limit,
                        i64 *levels) {
    u64 words[CHAIN_BLOCK];
    if (h == 0) {
        for (i64 i = 0; i < n; i++)
            levels[i] = 0;
        return;
    }
    pairwise_block(h, keys, n, words);
    for (i64 i = 0; i < n; i++)
        levels[i] = words[i] ? (i64)__builtin_ctzll(words[i]) : limit;
}

/* ---------------------------------------------------------------------------
 * The fused KNW F0 chain: level, bin and counter maximum in one pass.
 *
 * For each key x, with h1 and h2 pairwise functions and h3 a polynomial or
 * a value table:
 *
 *     level = lsb(h1(x)), or the level limit when h1(x) = 0
 *     bin   = h3(h2(x))
 *     target[bin mod m] = max(target[bin mod m], max(level + offset, floor))
 *     bits[bin / 8] |= 1 << (bin mod 8)          (when bits is not NULL)
 *
 * which is Figure 3's counter update and the small-F0 bit, or one copy
 * of Figure 2's.  The form:
 *
 *     form[0], form[1]   m and the level limit
 *     form[2..5]         h1
 *     form[6..9]         h2
 *     form[10..]         h3
 *
 * with every key below h1's and h2's domain (so below their primes).
 * ------------------------------------------------------------------------- */

#define DEFINE_HASHED_MAX_SCATTER(SUFFIX, T)                                 \
    EXPORT void repro_hashed_max_scatter_##SUFFIX(                           \
        T *target, const u64 *keys, i64 n, const u64 *form, u64 *table,      \
        i64 offset, i64 floor, u8 *bits) {                                   \
        const divisor by_m = divisor_of(form[0]);                            \
        const i64 level_limit = (i64)form[1];                                \
        u64 levels[CHAIN_BLOCK], spread[CHAIN_BLOCK], bins[CHAIN_BLOCK];     \
        for (i64 start = 0; start < n; start += CHAIN_BLOCK) {               \
            i64 run = n - start < CHAIN_BLOCK ? n - start : CHAIN_BLOCK;     \
            pairwise_block(form + 2, keys + start, run, levels);             \
            pairwise_block(form + 6, keys + start, run, spread);             \
            h3_block(form + 10, table, spread, run, bins);                   \
            for (i64 i = 0; i < run; i++) {                                  \
                u64 word = levels[i];                                        \
                i64 value = (word ? (i64)__builtin_ctzll(word)               \
                                  : level_limit) + offset;                   \
                T candidate = (T)(value < floor ? floor : value);            \
                u64 index = reduce(bins[i], by_m);                           \
                if (target[index] < candidate)                               \
                    target[index] = candidate;                               \
            }                                                                \
            if (bits)                                                        \
                for (i64 i = 0; i < run; i++)                                \
                    bits[bins[i] >> 3] |= (u8)(1u << (bins[i] & 7));         \
        }                                                                    \
    }

DEFINE_HASHED_MAX_SCATTER(i8, int8_t)
DEFINE_HASHED_MAX_SCATTER(u8, uint8_t)

/* ---------------------------------------------------------------------------
 * The turnstile chains of knw-l0: counters over F_p that add each update's
 * delta, one pass per structure over a validated (keys, deltas) call.
 *
 * Counters hold residues in [0, p) with p < 2^63, so a counter plus an
 * addend below p stays below 2^64 and one conditional subtract reduces
 * it.  Each counter row keeps its count of nonzero counters: an update
 * moves it by (new != 0) - (old != 0).  Modular addition commutes, so the
 * counters and counts after a call equal the scalar loop's in any order.
 * ------------------------------------------------------------------------- */

/* d mod p in [0, p) for a signed delta and p >= 2; |d| = 1 takes no
 * division.  0 - (u64)d is |d| for every negative d, INT64_MIN
 * included. */
static inline u64 delta_residue(i64 d, u64 p) {
    if (d == 1)
        return 1;
    if (d == -1)
        return p - 1;
    if (d >= 0)
        return (u64)d % p;
    u64 r = (0 - (u64)d) % p;
    return r ? p - r : 0;
}

/* *counter = (*counter + addend) mod p, keeping the row's count. */
static inline void residue_add(u64 *counter, u64 addend, u64 p, i64 *count) {
    u64 old = *counter, sum = old + addend;
    sum = sum >= p ? sum - p : sum;
    *count += (i64)(sum != 0) - (i64)(old != 0);
    *counter = sum;
}

/* Lemma 8 bucket arrays: `rows` structures of `trials` arrays of
 * `buckets` counters each, sharing the trial hashes h_t, row r counting
 * modulo its own prime p_r.  For each key x with delta d:
 *
 *     r = min(lsb(splitter(x)), rows - 1), or 0 when rows == 1
 *     counters[r][t][h_t(x)] += d  (mod p_r)   for every trial t
 *
 * which is SmallL0Recovery (one row) and RoughL0Estimator (one row per
 * level, lsb(0) being the level limit).  counts[r * trials + t] is row
 * (r, t)'s nonzero count.  The form:
 *
 *     form[0..3]          rows, level limit, trials, buckets
 *     form[4..7]          the splitter (read when rows > 1)
 *     form[8..8+rows)     the row primes, each in [2, 2^63)
 *     then                trials pairwise hashes, ranges at most buckets
 *
 * Every key lies below each hash's domain. */
EXPORT void repro_hashed_residue_scatter(u64 *counters, i64 *counts,
                                         const u64 *keys, const i64 *deltas,
                                         i64 n, const u64 *form) {
    const i64 rows = (i64)form[0], level_limit = (i64)form[1];
    const i64 trials = (i64)form[2];
    const u64 buckets = form[3];
    const u64 *primes = form + 8, *hashes = form + 8 + rows;
    i64 row[CHAIN_BLOCK];
    u64 residue[CHAIN_BLOCK], bucket[CHAIN_BLOCK];
    for (i64 start = 0; start < n; start += CHAIN_BLOCK) {
        i64 run = n - start < CHAIN_BLOCK ? n - start : CHAIN_BLOCK;
        level_block(rows > 1 ? form + 4 : 0, keys + start, run, level_limit, row);
        for (i64 i = 0; i < run; i++) {
            row[i] = row[i] < rows - 1 ? row[i] : rows - 1;
            residue[i] = delta_residue(deltas[start + i], primes[row[i]]);
        }
        for (i64 t = 0; t < trials; t++) {
            pairwise_block(hashes + 4 * t, keys + start, run, bucket);
            for (i64 i = 0; i < run; i++) {
                i64 slot = row[i] * trials + t;
                residue_add(counters + (u64)slot * buckets + bucket[i],
                            residue[i], primes[row[i]], counts + slot);
            }
        }
    }
}

/* Lemma 6 fingerprint structures sharing h1, h2 and h3: structure s is a
 * rows_s x columns_s matrix over F_{p_s} with the weight vector u_s.  For
 * each key x with delta d and s = h2(x):
 *
 *     r = min(lsb(h1(x)), rows_s - 1)          (row 0 when rows_s == 1)
 *     cells_s[r][h3(s) mod columns_s] += d * u_s[h4_s(s mod U4_s)]  (mod p_s)
 *
 * which is KNW's subsampled matrix and its unsampled 2K row, hashed once
 * for both.  counts_s[r] is row r's nonzero count.  d = 1 adds u[j] and
 * d = -1 adds p - u[j] without multiplying.  The form:
 *
 *     form[0]            the level limit
 *     form[1..4]         h1
 *     form[5..8]         h2
 *     form[9]            S, the number of structures
 *     form[10..10+8S)    per structure: rows, columns, p, U4 and h4, whose
 *                        range is at most the length of u
 *     then               h3
 *
 * and `targets` holds each structure's cells, counts and u as three
 * addresses.  Every p lies in [2, 2^63), every weight below its p, every
 * key below h1's and h2's domain, and a table covers h2's range. */
static void fingerprint_block(const u64 *f, const u64 *targets,
                              const i64 *levels, const u64 *spread,
                              const u64 *values, const i64 *deltas, i64 run) {
    const i64 top = (i64)f[0] - 1;
    const u64 columns = f[1], p = f[2];
    const divisor by_columns = divisor_of(columns), by_domain = divisor_of(f[3]);
    u64 *cells = (u64 *)(uintptr_t)targets[0];
    i64 *counts = (i64 *)(uintptr_t)targets[1];
    const u64 *weights = (const u64 *)(uintptr_t)targets[2];
    u64 weight[CHAIN_BLOCK];
    for (i64 i = 0; i < run; i++)
        weight[i] = reduce(spread[i], by_domain);
    pairwise_block(f + 4, weight, run, weight);
    for (i64 i = 0; i < run; i++) {
        u64 u = weights[weight[i]];
        i64 d = deltas[i], row = levels[i] < top ? levels[i] : top;
        u64 addend = d == 1    ? u
                     : d == -1 ? (u ? p - u : 0)
                               : (u64)((u128)delta_residue(d, p) * u % p);
        residue_add(cells + (u64)row * columns + reduce(values[i], by_columns),
                    addend, p, counts + row);
    }
}

EXPORT void repro_hashed_fingerprint_scatter(const u64 *keys, const i64 *deltas,
                                             i64 n, const u64 *form, u64 *table,
                                             const u64 *targets) {
    const i64 level_limit = (i64)form[0], structures = (i64)form[9];
    const u64 *h3 = form + 10 + 8 * structures;
    int subsampled = 0;
    for (i64 s = 0; s < structures; s++)
        subsampled |= form[10 + 8 * s] > 1;
    i64 levels[CHAIN_BLOCK];
    u64 spread[CHAIN_BLOCK], values[CHAIN_BLOCK];
    for (i64 start = 0; start < n; start += CHAIN_BLOCK) {
        i64 run = n - start < CHAIN_BLOCK ? n - start : CHAIN_BLOCK;
        level_block(subsampled ? form + 1 : 0, keys + start, run, level_limit, levels);
        pairwise_block(form + 5, keys + start, run, spread);
        h3_block(h3, table, spread, run, values);
        for (i64 s = 0; s < structures; s++)
            fingerprint_block(form + 10 + 8 * s, targets + 3 * s, levels, spread,
                              values, deltas + start, run);
    }
}
