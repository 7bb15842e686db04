/* Horner evaluation over GF(2^w) on the PCLMULQDQ carry-less multiply.
 *
 * Elements are uint64 values below 2^w, bit i the coefficient of x^i, and
 * mask is the reduction polynomial without its x^w term (see gf.py).  One
 * loop serves every width: a step takes one carry-less product of the
 * accumulator and the point, then folds the bits from w up back down by
 * two more products with mask, because x^w = mask.  For every supported
 * mask (degree at most 7) the second fold leaves nothing at or above w.
 *
 * A product depends on the one before it, so the bulk loop runs LANES
 * points side by side: the multiplier then works on independent chains
 * instead of waiting out each product's latency.
 *
 * Built by _clmul.py with plain gcc -O2; only the functions marked with
 * the pclmul target use the instruction, so has_pclmul runs anywhere. */

#include <cpuid.h>
#include <immintrin.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 8
#define PCLMUL __attribute__((target("pclmul")))
#define KERNEL static inline __attribute__((always_inline, target("pclmul")))

int has_pclmul(void)
{
    unsigned a, b, c, d;
    return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL);
}

/* acc * x in the low quadword; the high quadword is left undefined. */
KERNEL __m128i mul(__m128i acc, __m128i x, __m128i m, __m128i shift, __m128i low, int wide)
{
    __m128i p = _mm_clmulepi64_si128(acc, x, 0x00);
    if (wide) {  /* w = 64: the high quadword of p is what lies above w */
        __m128i t = _mm_clmulepi64_si128(p, m, 0x01);
        __m128i u = _mm_clmulepi64_si128(t, m, 0x01);
        return _mm_xor_si128(_mm_xor_si128(p, t), u);
    }
    p = _mm_xor_si128(_mm_and_si128(p, low),
                      _mm_clmulepi64_si128(_mm_srl_epi64(p, shift), m, 0x00));
    return _mm_xor_si128(_mm_and_si128(p, low),
                         _mm_clmulepi64_si128(_mm_srl_epi64(p, shift), m, 0x00));
}

/* out[l] = the polynomial at xs[l] for l < lanes, all lanes in step. */
KERNEL void eval(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                 int w, uint64_t mask, size_t lanes, int wide)
{
    __m128i m = _mm_cvtsi64_si128((long long)mask);
    __m128i shift = _mm_cvtsi64_si128(w);
    __m128i low = _mm_cvtsi64_si128((long long)(wide ? ~0ULL : (1ULL << w) - 1));
    __m128i x[LANES], acc[LANES];
#pragma GCC unroll 8
    for (size_t l = 0; l < lanes; l++) {
        x[l] = _mm_cvtsi64_si128((long long)xs[l]);
        acc[l] = _mm_cvtsi64_si128((long long)coeffs[k - 1]);
    }
    for (size_t j = k - 1; j-- > 0;) {
        __m128i c = _mm_cvtsi64_si128((long long)coeffs[j]);
#pragma GCC unroll 8
        for (size_t l = 0; l < lanes; l++)
            acc[l] = _mm_xor_si128(mul(acc[l], x[l], m, shift, low, wide), c);
    }
#pragma GCC unroll 8
    for (size_t l = 0; l < lanes; l++)
        out[l] = (uint64_t)_mm_cvtsi128_si64(acc[l]);
}

KERNEL void eval_all(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                     size_t n, int w, uint64_t mask, int wide)
{
    size_t i = 0;
    for (; i + LANES <= n; i += LANES)
        eval(coeffs, k, xs + i, out + i, w, mask, LANES, wide);
    for (; i < n; i++)
        eval(coeffs, k, xs + i, out + i, w, mask, 1, wide);
}

/* out[i] = sum_j coeffs[j] * xs[i]^j over GF(2^w), for i < n; k >= 1. */
PCLMUL void horner(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                   size_t n, int w, uint64_t mask)
{
    if (w == 64)
        eval_all(coeffs, k, xs, out, n, w, mask, 1);
    else
        eval_all(coeffs, k, xs, out, n, w, mask, 0);
}

/* The polynomial at the single point x. */
PCLMUL uint64_t horner1(const uint64_t *coeffs, size_t k, uint64_t x, int w, uint64_t mask)
{
    uint64_t y;
    if (w == 64)
        eval(coeffs, k, &x, &y, w, mask, 1, 1);
    else
        eval(coeffs, k, &x, &y, w, mask, 1, 0);
    return y;
}
