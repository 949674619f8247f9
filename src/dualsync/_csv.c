/* CSV text from columns, the package's one CSV writer (see cli._write_csv).

   csv_text(columns, first, n, header) returns rows first .. first + n - 1
   as the bytes of ",".join(map(str, row)) + "\n" each, the tests' byte
   oracle (tests/oracles.write_rows).  A column is a 1-D C-contiguous
   float64 or int64 array, read through the buffer protocol, or a sequence
   of exact str cells.  An array of another type raises TypeError naming
   its column, and any other cell, a bool or a number included, one naming
   its row and column too.  A finite nonzero float is written
   by Schubfach (Giulietti 2020, "The Schubfach way to render doubles"):
   the shortest, then closest, decimal that reads back to it, as repr
   lays it out.  Its powers g(k) are filled in g_table by _native.library,
   which binds csv_text as a PYFUNCTYPE: it runs holding the GIL. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define G_K_MIN (-292)
#define G_K_MAX 324

/* g(k) as {high, low} 64-bit halves at g_table[k - G_K_MIN] */
uint64_t g_table[G_K_MAX - G_K_MIN + 1][2];

static const char two_digits[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* floor(log10(2^e)), floor(log10(3/4 * 2^e)) and floor(log2(10^e)), exact
   for every e the formatter asks about */
static int floor_log10_pow2(int e) { return (e * 1262611) >> 22; }
static int floor_log10_three_quarters_pow2(int e) { return (e * 1262611 - 524031) >> 22; }
static int floor_log2_pow10(int e) { return (e * 1741647) >> 19; }

/* g * cp / 2^128 rounded to odd: truncated, its lowest bit set when
   inexact.  g overestimates its power by less than one unit, so an exact
   quotient leaves at most 1 in the 64 bits below the result, and an
   inexact one more (Giulietti, section 9.9). */
static uint64_t round_to_odd(const uint64_t g[2], uint64_t cp)
{
    unsigned __int128 x = (unsigned __int128)g[1] * cp;
    unsigned __int128 z = (unsigned __int128)g[0] * cp + (uint64_t)(x >> 64);
    return (uint64_t)(z >> 64) | ((uint64_t)z > 1);
}

/* Schubfach: the shortest decimal s * 10^*k in the rounding interval of
   the finite double c * 2^q > 0 (the closest of two, ties to even s),
   without trailing zeros. */
static uint64_t schubfach(uint64_t c, int q, int *k)
{
    if (q <= 0 && q > -53 && (c & (((uint64_t)1 << -q) - 1)) == 0) {
        /* an integer below 2^53: its own shortest decimal */
        c >>= -q;
        *k = 0;
    }
    else {
        int even = !(c & 1);
        /* 4v and its neighbours' midpoints; below a power of two (not the
           least normal) the lower midpoint is half as far */
        int closer = c == (uint64_t)1 << 52 && q > -1074;
        uint64_t cb = 4 * c, cbl = cb - 2 + closer, cbr = cb + 2;
        *k = closer ? floor_log10_three_quarters_pow2(q) : floor_log10_pow2(q);
        int h = q + floor_log2_pow10(-*k) + 1;
        const uint64_t *g = g_table[-*k - G_K_MIN];
        uint64_t vb = round_to_odd(g, cb << h);
        uint64_t lower = round_to_odd(g, cbl << h) + !even;
        uint64_t upper = round_to_odd(g, cbr << h) - !even;
        /* s * 10^k <= v < (s + 1) * 10^k; at most one of s' * 10^(k+1) and
           (s' + 1) * 10^(k+1) is in the interval, the shorter result if
           exactly one is; else s or s + 1, whichever is inside or, when
           both are, closer.  Chosen without branches, since which holds is
           as random as the digits. */
        uint64_t s = vb / 4, sp = s / 10, mid = 4 * s + 2;
        int up_in = lower <= 40 * sp, wp_in = 40 * sp + 40 <= upper;
        int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
        int up = u_in != w_in ? w_in : (vb > mid) | ((vb == mid) & (int)(s & 1));
        int shorter = (s >= 10) & (up_in != wp_in);
        c = shorter ? sp + wp_in : s + up;
        *k += shorter;
    }
    while (c % 10 == 0) {
        c /= 10;
        ++*k;
    }
    return c;
}

/* the decimal digits of u written to end at p, two at a time and eight at
   a time in 32-bit arithmetic; returns their start */
static char *digits_before(char *p, uint64_t u)
{
    while (u >= 100000000) {
        uint32_t low = (uint32_t)(u % 100000000), a = low / 10000, b = low % 10000;
        u /= 100000000;
        p -= 8;
        memcpy(p, two_digits + 2 * (a / 100), 2);
        memcpy(p + 2, two_digits + 2 * (a % 100), 2);
        memcpy(p + 4, two_digits + 2 * (b / 100), 2);
        memcpy(p + 6, two_digits + 2 * (b % 100), 2);
    }
    uint32_t v = (uint32_t)u;
    for (; v >= 100; v /= 100) {
        p -= 2;
        memcpy(p, two_digits + 2 * (v % 100), 2);
    }
    if (v < 10) {
        *--p = (char)('0' + v);
        return p;
    }
    return memcpy(p - 2, two_digits + 2 * v, 2);
}

/* room for any number these functions write, with the bytes they copy
   past its end: "-", 16 digits and 16 zeros at most */
#define CELL_MAX 40

/* str(x) for a float x, written at p; returns its end */
static char *put_float(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (x != x) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    uint64_t c = bits & (((uint64_t)1 << 52) - 1);
    int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0x7ff || (biased == 0 && c == 0)) {
        memcpy(p, biased ? "inf" : "0.0", 3);
        return p + 3;
    }
    int q = -1074, k;
    if (biased) {
        c |= (uint64_t)1 << 52;
        q = biased - 1075;
    }
    /* the digits end at buf + 20 and are copied 20 bytes at a time, which
       compiles to moves; put_float's callers leave room for the surplus */
    char buf[40], *end = buf + 20, *d = digits_before(end, schubfach(c, q, &k));
    int n = (int)(end - d), point = n + k; /* |x| = 0.digits * 10^point */
    if (point <= -4 || point > 16) {
        /* the digits one place on, then the first moved before the point */
        memcpy(p + 1, d, 20);
        p[0] = p[1];
        p[1] = '.';
        p += n > 1 ? n + 1 : 1;
        int e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(p, two_digits + 2 * e, 2);
        return p + 2;
    }
    if (point <= 0) {
        memcpy(p, "0.000", 5);
        memcpy(p + 2 - point, d, 20);
        return p + 2 - point + n;
    }
    if (point >= n) {
        memcpy(p, d, 20);
        memset(p + n, '0', 16);
        memcpy(p + point, ".0", 2);
        return p + point + 2;
    }
    memcpy(p, d, 20);
    memmove(p + point + 1, p + point, 17);
    p[point] = '.';
    return p + n + 1;
}

static char *put_int(char *p, long long v)
{
    char buf[40], *end = buf + 20;
    char *d = digits_before(end, v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v);
    if (v < 0)
        *p++ = '-';
    memcpy(p, d, 20);
    return p + (end - d);
}

typedef struct {
    char *p;
    Py_ssize_t len, cap;
} text;

/* room for n more bytes */
static int reserve(text *t, Py_ssize_t n)
{
    if (t->len + n <= t->cap)
        return 0;
    Py_ssize_t cap = t->cap ? t->cap : 1 << 16;
    while (cap < t->len + n)
        cap *= 2;
    char *p = PyMem_Realloc(t->p, cap);
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->p = p;
    t->cap = cap;
    return 0;
}

static PyObject *column_name(PyObject *header, Py_ssize_t col)
{
    return PyTuple_Check(header) && col < PyTuple_GET_SIZE(header)
               ? PyTuple_GET_ITEM(header, col) : Py_None;
}

/* the UTF-8 of a str cell; any other cell raises TypeError naming it */
static int put_cell(text *t, PyObject *cell, Py_ssize_t row, Py_ssize_t col,
                    PyObject *header)
{
    if (!PyUnicode_CheckExact(cell)) {
        PyErr_Format(PyExc_TypeError, "row %zd, column %zd (%R) holds a %s, not a str; "
                     "write numbers as a float64 or int64 array", row, col,
                     column_name(header, col), Py_TYPE(cell)->tp_name);
        return -1;
    }
    Py_ssize_t n;
    const char *u = PyUnicode_AsUTF8AndSize(cell, &n);
    if (u == NULL || reserve(t, n))
        return -1;
    memcpy(t->p + t->len, u, n);
    t->len += n;
    return 0;
}

enum { FLOATS, INTS, STRS };

typedef struct {
    int kind;
    Py_buffer view; /* FLOATS, INTS */
    PyObject *seq;  /* STRS */
} column;

/* col as one of the three kinds, holding at least `rows` rows */
static int open_column(column *c, PyObject *col, Py_ssize_t rows, Py_ssize_t j,
                       PyObject *header)
{
    Py_ssize_t len;
    if (PyObject_CheckBuffer(col)) {
        if (PyObject_GetBuffer(col, &c->view, PyBUF_RECORDS_RO))
            return -1;
        const char *f = c->view.format ? c->view.format : "B";
        c->kind = !strcmp(f, "d") ? FLOATS : !strcmp(f, "l") || !strcmp(f, "q") ? INTS : -1;
        if (c->kind < 0 || c->view.ndim != 1 || c->view.itemsize != 8
            || !PyBuffer_IsContiguous(&c->view, 'C')) {
            PyErr_Format(PyExc_TypeError, "column %zd (%R) is not a C-contiguous 1-D float64 "
                         "or int64 array (format '%s', %d-D); write a bool as 1/0", j,
                         column_name(header, j), f, c->view.ndim);
            PyBuffer_Release(&c->view);
            return -1;
        }
        len = c->view.shape[0];
    }
    else {
        c->kind = STRS;
        c->seq = PySequence_Fast(col, "a CSV column must be an array or a sequence of str");
        if (c->seq == NULL)
            return -1;
        len = PySequence_Fast_GET_SIZE(c->seq);
    }
    if (len >= rows)
        return 0;
    PyErr_Format(PyExc_ValueError, "column %zd (%R) has %zd rows, fewer than %zd", j,
                 column_name(header, j), len, rows);
    if (c->kind == STRS)
        Py_DECREF(c->seq);
    else
        PyBuffer_Release(&c->view);
    return -1;
}

PyObject *csv_text(PyObject *columns, Py_ssize_t first, Py_ssize_t n, PyObject *header)
{
    PyObject *fast = PySequence_Fast(columns, "csv_text needs a sequence of columns");
    if (fast == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(fast), opened = 0;
    column *cols = PyMem_Calloc(m ? m : 1, sizeof *cols);
    text t = {NULL, 0, 0};
    PyObject *result = NULL;
    if (cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; opened < m; opened++)
        if (open_column(&cols[opened], PySequence_Fast_GET_ITEM(fast, opened), first + n,
                        opened, header))
            goto done;
    for (Py_ssize_t i = first; i < first + n; i++) {
        for (Py_ssize_t j = 0; j < m; j++) {
            if (reserve(&t, CELL_MAX + 2))
                goto done;
            if (j)
                t.p[t.len++] = ',';
            column *c = &cols[j];
            if (c->kind == FLOATS)
                t.len = put_float(t.p + t.len, ((const double *)c->view.buf)[i]) - t.p;
            else if (c->kind == INTS)
                t.len = put_int(t.p + t.len, ((const int64_t *)c->view.buf)[i]) - t.p;
            else if (put_cell(&t, PySequence_Fast_GET_ITEM(c->seq, i), i, j, header))
                goto done;
        }
        if (reserve(&t, 1))
            goto done;
        t.p[t.len++] = '\n';
    }
    result = PyUnicode_DecodeUTF8(t.p, t.len, "strict");
done:
    for (Py_ssize_t j = 0; j < opened; j++) {
        if (cols[j].kind == STRS)
            Py_DECREF(cols[j].seq);
        else
            PyBuffer_Release(&cols[j].view);
    }
    PyMem_Free(cols);
    PyMem_Free(t.p);
    Py_DECREF(fast);
    return result;
}
