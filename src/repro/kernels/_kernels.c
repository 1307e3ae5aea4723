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
 * the coefficients are all below p.  Every other modulus pays one
 * 128-by-64 division per element.
 */

#include <stdint.h>

typedef unsigned __int128 u128;
typedef uint64_t u64;
typedef int64_t i64;
typedef uint8_t u8;

#define EXPORT __attribute__((visibility("default")))

/* ABI version checked by the loader; bump when a signature changes. */
EXPORT int repro_kernels_abi(void) { return 3; }

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

/* Fused k-wise polynomial hash: Horner over k coefficients (low degree
 * first, all < p < 2^63) then one range reduction — the entire
 * KWiseHash.hash_batch chain in a single pass per key.  For p = 2^31 - 1
 * with every coefficient below p, each block of M31_LANES keys that are
 * all below p takes kwise_m31_block; any other block, and the tail, take
 * the __int128 path (the seam admits keys up to 2^48 for this prime). */
EXPORT void repro_kwise_mod_range(const u64 *coeffs, i64 k, const u64 *keys,
                                  i64 n, u64 p, int mers, u64 range,
                                  int range_pow2, u64 *out) {
    int lanes = mers == 31;
    for (i64 j = 0; j < k; j++)
        lanes &= coeffs[j] < p;
    for (i64 i = 0; i < n; i += M31_LANES) {
        i64 block = n - i < M31_LANES ? n - i : M31_LANES;
        int below = lanes && block == M31_LANES;
        for (i64 l = 0; l < block; l++)
            below &= keys[i + l] < p;
        if (below)
            kwise_m31_block(coeffs, k, keys + i, out + i);
        else
            for (i64 l = 0; l < block; l++)
                out[i + l] = kwise_u128(coeffs, k, keys[i + l], p, mers);
        for (i64 l = 0; l < block; l++)
            out[i + l] = reduce_range(out[i + l], range, range_pow2);
    }
}

/* target[idx] = (target[idx] + residue) mod p in place, one linear pass:
 * the turnstile counter scatter.  Counters and residues lie in [0, p) with
 * p < 2^63, so every sum is below 2^64 and one conditional subtract
 * reduces it. */
EXPORT void repro_grouped_residue_sums(u64 *target, const i64 *indices,
                                       const u64 *residues, i64 n, u64 p) {
    for (i64 i = 0; i < n; i++) {
        i64 t = indices[i];
        u64 sum = target[t] + residues[i];
        target[t] = sum >= p ? sum - p : sum;
    }
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
 * The fused KNW chain: level, bin and counter maximum in one pass.
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
 * of Figure 2's.  Keys go through in blocks of CHAIN_BLOCK: each stage
 * picks its prime's reduction and its range's mask or division once per
 * block, so the per-key loops carry no dispatch.
 *
 * The wrapper packs the three functions into `form` as u64 words, each
 * function as its prime, its range and its coefficients low degree first
 * (h(x) = (sum_j c_j x^j mod p) mod range):
 *
 *     form[0], form[1]   m and the level limit
 *     form[2..5]         h1: p, range, c_0, c_1
 *     form[6..9]         h2: p, range, c_0, c_1
 *     form[10..12]       h3: p, range, k
 *     form[13..]         h3's k coefficients
 *
 * with every coefficient below its p < 2^63 and every range below 2^64,
 * and every key below h1's and h2's domain (so below their primes).  h3
 * has three forms: k > 0 with table == NULL evaluates the polynomial per
 * key; k > 0 with a table reads the table and fills an entry still
 * holding TABLE_UNFILLED from the same polynomial; k == 0 reads a
 * complete table.  Tables hold values already reduced to h3's range and
 * must cover every h2 value.
 * ------------------------------------------------------------------------- */

#define CHAIN_BLOCK 64
#define TABLE_UNFILLED (~(u64)0)

/* How a prime reduces: the two Mersenne primes fold; FIELD_SMALL (p at
 * most 2^32, operands below p) keeps a*x + b in one word; FIELD_WIDE
 * divides a 128-bit value. */
enum { FIELD_WIDE = 0, FIELD_SMALL = 1, FIELD_M31 = 31, FIELD_M61 = 61 };

static inline int field_kind(u64 p) {
    if (p == ((u64)1 << 61) - 1)
        return FIELD_M61;
    if (p == ((u64)1 << 31) - 1)
        return FIELD_M31;
    return p <= ((u64)1 << 32) ? FIELD_SMALL : FIELD_WIDE;
}

/* (a * x + b) mod p for a, b < p and x below the function's domain bound
 * (x < p for FIELD_SMALL, x < 2^33 for FIELD_M31). */
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

/* values[i] % range in place, masking for a power-of-two range. */
static inline void reduce_block(u64 *values, i64 n, u64 range) {
    if ((range & (range - 1)) == 0) {
        for (i64 i = 0; i < n; i++)
            values[i] &= range - 1;
    } else {
        for (i64 i = 0; i < n; i++)
            values[i] %= range;
    }
}

#define AFFINE_LOOP(KIND)                                                    \
    for (i64 i = 0; i < n; i++)                                              \
        out[i] = field_affine(a, b, keys[i], p, KIND)

/* h(keys[i]) for one block of a pairwise function {p, range, b, a}. */
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

/* The polynomial h3 on one block, unreduced.  Over 2^31 - 1 each run of
 * M31_LANES keys all below p takes kwise_m31_block; a run holding a
 * larger key, and the tail, take the exact __int128 Horner. */
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

/* h3(keys[i]) for one block: a gather, a gather that fills misses, or
 * the polynomial and its range reduction. */
static void h3_block(const u64 *form, u64 *table, const u64 *keys, i64 n,
                     u64 *out) {
    const u64 p = form[10], range = form[11];
    const i64 k = (i64)form[12];
    const u64 *coeffs = form + 13;
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

#define DEFINE_HASHED_MAX_SCATTER(SUFFIX, T)                                 \
    EXPORT void repro_hashed_max_scatter_##SUFFIX(                           \
        T *target, const u64 *keys, i64 n, const u64 *form, u64 *table,      \
        i64 offset, i64 floor, u8 *bits) {                                   \
        const u64 m = form[0];                                               \
        const i64 level_limit = (i64)form[1];                                \
        const int m_pow2 = (m & (m - 1)) == 0;                               \
        u64 levels[CHAIN_BLOCK], spread[CHAIN_BLOCK], bins[CHAIN_BLOCK];     \
        for (i64 start = 0; start < n; start += CHAIN_BLOCK) {               \
            i64 run = n - start < CHAIN_BLOCK ? n - start : CHAIN_BLOCK;     \
            pairwise_block(form + 2, keys + start, run, levels);             \
            pairwise_block(form + 6, keys + start, run, spread);             \
            h3_block(form, table, spread, run, bins);                        \
            for (i64 i = 0; i < run; i++) {                                  \
                u64 word = levels[i];                                        \
                i64 value = (word ? (i64)__builtin_ctzll(word)               \
                                  : level_limit) + offset;                   \
                T candidate = (T)(value < floor ? floor : value);            \
                u64 bin = bins[i];                                           \
                u64 index = m_pow2 ? bin & (m - 1)                           \
                                   : (bin < m ? bin : bin % m);              \
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
