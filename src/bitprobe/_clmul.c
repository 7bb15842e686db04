/* Horner evaluation over GF(2^w) on the PCLMULQDQ carry-less multiply.
 *
 * Elements are uint64 values below 2^w, bit i the coefficient of x^i, and
 * mask is the reduction polynomial without its x^w term (see gf.py).  One
 * loop serves every width: a step takes one carry-less product of the
 * accumulator and the point, then folds the bits from w up back down by
 * products with mask, because x^w = mask.  For every supported mask
 * (degree at most 7) a second fold leaves nothing at or above w.
 *
 * One fold is enough when every point is below 2^(w - deg(mask) + 1):
 * 2^61 at w = 64, 2^26 at 32, 2^12 at 16, 2^5 at 8 and all of GF(2^3).
 * For acc < 2^w and x < 2^b, the bits hi = (acc * x) >> w have degree at
 * most b - 2, so hi * mask has degree at most b - 2 + deg(mask), which is
 * below w exactly when b <= w - deg(mask) + 1; the second fold's input is
 * then 0.  Edge indices r*d + i are below 2^17 in the benchmark's graphs;
 * a graph whose m*d passes the bound takes two folds.  Each entry point
 * takes the fold count once per call from its largest point (folds_for),
 * and horner passes it down with the width.
 *
 * A product depends on the one before it, so the bulk loop runs LANES
 * points side by side: the multiplier then works on independent chains
 * instead of waiting out each product's latency.  horner alone branches on
 * the width, and eval_all alone fills the lanes; a single point runs through
 * horner with n = 1.
 *
 * count fuses the acceptance test of a seeded graph into the same loop: for
 * each left vertex r it streams the points r*d + i (i < d) through horner,
 * one on-stack block of LANES points at a time, masks each value by
 * top = s - 1 and adds up the bits that the masks name in a packed bitmap
 * (bit b is byte b >> 3 at position b & 7, the layout of a scheme file).
 * No neighbor table is built, and only one block of points is held.
 *
 * The module's count releases the GIL, and above MIN_STEPS point-steps
 * (rows x d x k) per worker it splits its rows into contiguous runs, one
 * per CPU of the process's affinity mask and at most MAX_WORKERS, each on
 * its own pthread; the calling thread takes the first run and joins the
 * rest before it returns.  A run starts and ends on a row boundary, so no
 * row's count depends on the split.  horner and horner1 keep the GIL: the
 * single-point query path pays nothing for threads.
 *
 * The module section at the end makes this file the CPython extension that
 * _clmul.py builds with gcc -O2 against the interpreter's headers.  Only the
 * functions marked with the pclmul target use the instruction, so the init
 * runs anywhere: it raises ImportError on a CPU without PCLMULQDQ. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <cpuid.h>
#include <immintrin.h>
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 8
#define MAX_WORKERS 4
#define MIN_STEPS (1 << 19) /* point-steps that each worker of a split count gets at least */
#define PCLMUL __attribute__((target("pclmul")))
#define KERNEL static inline __attribute__((always_inline, target("pclmul")))

static int cpu_has_pclmul(void)
{
    unsigned a, b, c, d;
    return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL);
}

/* acc * x in the low quadword, folded once or twice (folds); the high
 * quadword is left undefined. */
KERNEL __m128i mul(__m128i acc, __m128i x, __m128i m, __m128i shift, __m128i low, int wide,
                   int folds)
{
    __m128i p = _mm_clmulepi64_si128(acc, x, 0x00);
    if (wide) {  /* w = 64: the high quadword of p is what lies above w */
        __m128i t = _mm_clmulepi64_si128(p, m, 0x01);
        p = _mm_xor_si128(p, t);
        return folds == 1 ? p : _mm_xor_si128(p, _mm_clmulepi64_si128(t, m, 0x01));
    }
    p = _mm_xor_si128(_mm_and_si128(p, low),
                      _mm_clmulepi64_si128(_mm_srl_epi64(p, shift), m, 0x00));
    if (folds == 1)
        return p;
    return _mm_xor_si128(_mm_and_si128(p, low),
                         _mm_clmulepi64_si128(_mm_srl_epi64(p, shift), m, 0x00));
}

/* out[l] = the polynomial at xs[l] for l < lanes, all lanes in step. */
KERNEL void eval(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                 int w, uint64_t mask, size_t lanes, int wide, int folds)
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
            acc[l] = _mm_xor_si128(mul(acc[l], x[l], m, shift, low, wide, folds), c);
    }
#pragma GCC unroll 8
    for (size_t l = 0; l < lanes; l++)
        out[l] = (uint64_t)_mm_cvtsi128_si64(acc[l]);
}

KERNEL void eval_all(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                     size_t n, int w, uint64_t mask, int wide, int folds)
{
    size_t i = 0;
    for (; i + LANES <= n; i += LANES)
        eval(coeffs, k, xs + i, out + i, w, mask, LANES, wide, folds);
    for (; i < n; i++)
        eval(coeffs, k, xs + i, out + i, w, mask, 1, wide, folds);
}

/* How many folds a step takes when no point exceeds top: 1 below
 * 2^(w - deg(mask) + 1), else 2 (see the header). */
static int folds_for(uint64_t top, int w, uint64_t mask)
{
    int bits = w + 1 - (mask ? 63 - __builtin_clzll(mask) : 0);
    return bits >= 64 || (bits > 0 && top >> bits == 0) ? 1 : 2;
}

/* out[i] = sum_j coeffs[j] * xs[i]^j over GF(2^w), for i < n; k >= 1, and
 * folds = folds_for of a bound on every xs[i]. */
static PCLMUL void horner(const uint64_t *coeffs, size_t k, const uint64_t *xs, uint64_t *out,
                          size_t n, int w, uint64_t mask, int folds)
{
    if (w == 64 && folds == 1)
        eval_all(coeffs, k, xs, out, n, w, mask, 1, 1);
    else if (w == 64)
        eval_all(coeffs, k, xs, out, n, w, mask, 1, 2);
    else if (folds == 1)
        eval_all(coeffs, k, xs, out, n, w, mask, 0, 1);
    else
        eval_all(coeffs, k, xs, out, n, w, mask, 0, 2);
}

/* out[r] = how many of the points rows[r]*d + i, i < d, evaluate to a value
 * v with bit v & top set in packed, for r < n.  The points of consecutive
 * rows fill blocks of LANES as one stream, so every block but the last is
 * full whatever d is; horner evaluates a block, and a second walk of the
 * same (row, slot) stream sums each row's bits in a register and adds the
 * sum to out[r] where the row or the block ends. */
static PCLMUL void count(const uint64_t *coeffs, size_t k, const uint64_t *rows, uint64_t *out,
                         size_t n, uint64_t d, uint64_t top, const uint8_t *packed,
                         int w, uint64_t mask, int folds)
{
    uint64_t xs[LANES], ys[LANES];
    size_t r = 0;
    uint64_t i = 0;
    for (size_t j = 0; j < n; j++)
        out[j] = 0;
    while (r < n) {
        size_t owner = r, len = 0;
        uint64_t slot = i;
        for (; len < LANES && r < n; len++) {
            xs[len] = rows[r] * d + i;
            if (++i == d) {
                i = 0;
                r++;
            }
        }
        horner(coeffs, k, xs, ys, len, w, mask, folds);
        uint64_t hits = 0;
        for (size_t l = 0; l < len; l++) {
            uint64_t b = ys[l] & top;
            hits += packed[b >> 3] >> (b & 7) & 1;
            if (++slot == d) {
                out[owner++] += hits;
                hits = 0;
                slot = 0;
            }
        }
        if (hits)
            out[owner] += hits;
    }
}

/* One contiguous run of count's rows, as a thread takes it. */
struct run {
    const uint64_t *coeffs, *rows;
    uint64_t *out;
    size_t k, n;
    uint64_t d, top, mask;
    const uint8_t *packed;
    int w, folds;
};

static void *count_run(void *arg)
{
    const struct run *a = arg;
    count(a->coeffs, a->k, a->rows, a->out, a->n, a->d, a->top, a->packed, a->w, a->mask,
          a->folds);
    return NULL;
}

/* How many runs the rows of all split into: one per CPU of the affinity
 * mask, at most MAX_WORKERS and at most one per row, while every run keeps
 * MIN_STEPS point-steps.  Below two runs' worth the mask is not read. */
static size_t runs_for(const struct run *all)
{
    double steps = (double)all->n * (double)all->d * (double)all->k;
    if (steps < 2.0 * MIN_STEPS)
        return 1;
    cpu_set_t cpus;
    size_t runs = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? (size_t)CPU_COUNT(&cpus) : 1;
    if (runs > MAX_WORKERS)
        runs = MAX_WORKERS;
    while (runs > 1 && (runs > all->n || steps < (double)runs * MIN_STEPS))
        runs--;
    return runs ? runs : 1;
}

/* count over all its rows, split by runs_for: the caller counts the first
 * run while a thread counts each other one, and joins them all.  A run
 * whose thread does not start is counted by the caller afterwards. */
static void count_split(const struct run *all)
{
    struct run part[MAX_WORKERS];
    pthread_t thread[MAX_WORKERS];
    int started[MAX_WORKERS] = {0};
    size_t runs = runs_for(all);
    for (size_t p = 0; p < runs; p++) {
        size_t lo = all->n * p / runs, hi = all->n * (p + 1) / runs;
        part[p] = *all;
        part[p].rows += lo;
        part[p].out += lo;
        part[p].n = hi - lo;
    }
    for (size_t p = 1; p < runs; p++)
        started[p] = pthread_create(&thread[p], NULL, count_run, &part[p]) == 0;
    count_run(&part[0]);
    for (size_t p = 1; p < runs; p++) {
        if (started[p])
            pthread_join(thread[p], NULL);
        else
            count_run(&part[p]);
    }
}

/* ------------------------------------------------------------------------
 * The module.  Every entry point checks its arguments before the loop
 * runs: a coefficient buffer of whole uint64 words, at least one; xs and
 * out uint64 arrays of one length, out writable; x, w and mask in range.
 * count takes rows and out as uint64 or int64 arrays of one length, out
 * writable, d >= 1, every point rows[r]*d + i in the field, and a packed
 * buffer that holds bit top.  A bad argument raises and nothing is read or
 * written.
 * ------------------------------------------------------------------------ */

enum { WORDS, UINT64_ARRAY, INT64_ARRAY };

/* A view of obj as 8-byte-aligned uint64 words.  An array (xs, out, rows)
 * must be one of uint64 items, or of int64 items where kind is
 * INT64_ARRAY; the coefficients (kind WORDS) may be any buffer of whole
 * words, such as the bytes that PolySeed caches, but at least one. */
static int get_words(PyObject *obj, Py_buffer *view, int flags, int kind, const char *name)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";
    if (*f == '@' || *f == '=' || *f == '<')
        f++;
    int item = *f == 'Q' || *f == 'L' || (kind == INT64_ARRAY && (*f == 'q' || *f == 'l'));
    const char *fault = NULL;
    if (kind != WORDS && (view->itemsize != 8 || !item || f[1]))
        fault = kind == INT64_ARRAY ? "must be a C-contiguous uint64 or int64 array"
                                    : "must be a C-contiguous uint64 array";
    else if (kind == WORDS && (view->len == 0 || view->len % 8))
        fault = "must hold a positive whole number of uint64 words";
    else if (view->len && (uintptr_t)view->buf % 8)
        fault = "is not 8-byte aligned";
    if (fault) {
        PyErr_Format(PyExc_ValueError, "%s %s", name, fault);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static int check_count(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* A Python int in [0, 2^64) as uint64; otherwise an exception. */
static int get_u64(PyObject *obj, uint64_t *value)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *value = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    return *value == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static int get_width(PyObject *obj, int *w)
{
    uint64_t value;
    if (get_u64(obj, &value) < 0)
        return -1;
    if (value < 1 || value > 64) {
        PyErr_Format(PyExc_ValueError, "field width %llu is not in [1, 64]",
                     (unsigned long long)value);
        return -1;
    }
    *w = (int)value;
    return 0;
}

static PyObject *py_horner(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer coeffs, xs, out;
    int w;
    uint64_t mask;
    if (check_count("horner", nargs, 5) < 0 || get_width(args[3], &w) < 0
        || get_u64(args[4], &mask) < 0)
        return NULL;
    if (get_words(args[0], &coeffs, PyBUF_SIMPLE, WORDS, "coeffs") < 0)
        return NULL;
    if (get_words(args[1], &xs, PyBUF_SIMPLE, UINT64_ARRAY, "xs") < 0) {
        PyBuffer_Release(&coeffs);
        return NULL;
    }
    if (get_words(args[2], &out, PyBUF_WRITABLE, UINT64_ARRAY, "out") < 0) {
        PyBuffer_Release(&xs);
        PyBuffer_Release(&coeffs);
        return NULL;
    }
    int same = xs.len == out.len;
    if (same) {
        const uint64_t *x = xs.buf;
        size_t n = (size_t)xs.len / 8;
        uint64_t any = 0;  /* the OR of the points: its top bit is the largest point's */
        for (size_t i = 0; i < n; i++)
            any |= x[i];
        horner(coeffs.buf, (size_t)coeffs.len / 8, x, out.buf, n, w, mask,
               folds_for(any, w, mask));
    }
    else
        PyErr_Format(PyExc_ValueError, "xs has %zd points but out has room for %zd",
                     xs.len / 8, out.len / 8);
    PyBuffer_Release(&out);
    PyBuffer_Release(&xs);
    PyBuffer_Release(&coeffs);
    if (!same)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_horner1(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer coeffs;
    uint64_t x, mask;
    int w;
    if (check_count("horner1", nargs, 4) < 0 || get_u64(args[1], &x) < 0
        || get_width(args[2], &w) < 0 || get_u64(args[3], &mask) < 0
        || get_words(args[0], &coeffs, PyBUF_SIMPLE, WORDS, "coeffs") < 0)
        return NULL;
    uint64_t y;
    horner(coeffs.buf, (size_t)coeffs.len / 8, &x, &y, 1, w, mask, folds_for(x, w, mask));
    PyBuffer_Release(&coeffs);
    return PyLong_FromUnsignedLongLong(y);
}

/* 0 when count can run on these arguments: rows and out of one length,
 * bit top inside packed, and every point rows[r]*d + i in GF(2^w), with
 * *largest set to the largest row; otherwise -1 with a ValueError set. */
static int check_count_args(const Py_buffer *rows, const Py_buffer *out, uint64_t d,
                            uint64_t top, Py_ssize_t packed_len, int w, uint64_t *largest)
{
    if (rows->len != out->len) {
        PyErr_Format(PyExc_ValueError, "rows has %zd vertices but out has room for %zd",
                     rows->len / 8, out->len / 8);
        return -1;
    }
    if (top >> 3 >= (uint64_t)packed_len) {
        PyErr_Format(PyExc_ValueError, "packed has %zd bytes, too few for bit %llu",
                     packed_len, (unsigned long long)top);
        return -1;
    }
    uint64_t last = w == 64 ? ~0ULL : (1ULL << w) - 1;  /* the largest field element */
    const uint64_t *r = rows->buf;
    *largest = 0;
    for (Py_ssize_t j = 0; j < rows->len / 8; j++) {
        if (d - 1 > last || r[j] > (last - (d - 1)) / d) {
            PyErr_Format(PyExc_ValueError, "row %llu has points beyond GF(2^%d) at d = %llu",
                         (unsigned long long)r[j], w, (unsigned long long)d);
            return -1;
        }
        if (r[j] > *largest)
            *largest = r[j];
    }
    return 0;
}

static PyObject *py_count(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer coeffs, rows, out, packed;
    uint64_t d, top, mask, largest;
    int w, bad = -1;
    if (check_count("count", nargs, 8) < 0 || get_u64(args[3], &d) < 0
        || get_u64(args[4], &top) < 0 || get_width(args[6], &w) < 0
        || get_u64(args[7], &mask) < 0)
        return NULL;
    if (d == 0) {
        PyErr_SetString(PyExc_ValueError, "d must be at least 1");
        return NULL;
    }
    if (get_words(args[0], &coeffs, PyBUF_SIMPLE, WORDS, "coeffs") < 0)
        return NULL;
    if (get_words(args[1], &rows, PyBUF_SIMPLE, INT64_ARRAY, "rows") == 0) {
        if (get_words(args[2], &out, PyBUF_WRITABLE, INT64_ARRAY, "out") == 0) {
            if (PyObject_GetBuffer(args[5], &packed, PyBUF_SIMPLE) == 0) {
                bad = check_count_args(&rows, &out, d, top, packed.len, w, &largest);
                if (!bad) {
                    struct run all = {
                        .coeffs = coeffs.buf, .k = (size_t)coeffs.len / 8, .rows = rows.buf,
                        .out = out.buf, .n = (size_t)rows.len / 8, .d = d, .top = top,
                        .packed = packed.buf, .w = w, .mask = mask,
                        .folds = folds_for(largest * d + (d - 1), w, mask)};
                    Py_BEGIN_ALLOW_THREADS
                    count_split(&all);
                    Py_END_ALLOW_THREADS
                }
                PyBuffer_Release(&packed);
            }
            PyBuffer_Release(&out);
        }
        PyBuffer_Release(&rows);
    }
    PyBuffer_Release(&coeffs);
    if (bad)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"horner", (PyCFunction)(void (*)(void))py_horner, METH_FASTCALL,
     "horner(coeffs, xs, out, w, mask): out[i] = the polynomial at xs[i] over GF(2^w)."},
    {"horner1", (PyCFunction)(void (*)(void))py_horner1, METH_FASTCALL,
     "horner1(coeffs, x, w, mask): the polynomial at the single point x."},
    {"count", (PyCFunction)(void (*)(void))py_count, METH_FASTCALL,
     "count(coeffs, rows, out, d, top, packed, w, mask): out[r] = how many of the points "
     "rows[r]*d + i, i < d, evaluate over GF(2^w) to a value v with bit v & top set in packed."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_clmul_ext",
    .m_doc = "The compiled Horner loop; see _clmul.py.", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__clmul_ext(void)
{
    if (!cpu_has_pclmul()) {
        PyErr_SetString(PyExc_ImportError, "the CPU has no PCLMULQDQ");
        return NULL;
    }
    return PyModule_Create(&module);
}
