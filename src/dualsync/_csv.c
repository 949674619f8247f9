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
   which binds csv_text as a PYFUNCTYPE, so it is called holding the GIL.
   Holding it, csv_text opens the columns, checks and encodes the batch's
   str cells, keeping a reference to each, and reserves the most bytes the
   rows can take; then it releases the GIL while its one loop formats the
   rows, so threads writing other files format at once, and takes it back
   to build the str. */

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
   past its end: "-", 16 digits and 16 zeros at most; csv_text leaves it
   after a batch's widest text */
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

/* the longest str() of a float64 ("-2.2250738585072014e-308") and of an
   int64 ("-9223372036854775808") */
#define FLOAT_STR_MAX 24
#define INT_STR_MAX 20

static PyObject *column_name(PyObject *header, Py_ssize_t col)
{
    return PyTuple_Check(header) && col < PyTuple_GET_SIZE(header)
               ? PyTuple_GET_ITEM(header, col) : Py_None;
}

enum { FLOATS, INTS, STRS };

/* a str cell's UTF-8, owned by the str */
typedef struct {
    const char *p;
    Py_ssize_t n;
} utf8;

typedef struct {
    int kind;
    Py_buffer view; /* FLOATS, INTS */
    PyObject *held; /* STRS: a tuple of the batch's cells, which keeps their UTF-8 alive */
    utf8 *cells;    /* STRS: that UTF-8, one per row of the batch */
} column;

static void close_column(column *c)
{
    if (c->kind == STRS) {
        Py_XDECREF(c->held);
        PyMem_Free(c->cells);
    }
    else
        PyBuffer_Release(&c->view);
}

/* col as one of the three kinds, holding at least rows first .. first + n - 1;
   a str column's cells in those rows are copied into a tuple of its own,
   which no other thread can change, with room for their UTF-8 */
static int open_column(column *c, PyObject *col, Py_ssize_t first, Py_ssize_t n,
                       Py_ssize_t j, PyObject *header)
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
        PyObject *seq = PySequence_Fast(col, "a CSV column must be an array or a sequence "
                                             "of str");
        if (seq == NULL)
            return -1;
        c->held = PyTuple_New(n);
        c->cells = PyMem_Malloc(n ? n * sizeof *c->cells : 1);
        /* read after the allocations, which may run a collection that
           changes the column; the copy runs no Python code */
        len = PySequence_Fast_GET_SIZE(seq);
        if (c->held != NULL && c->cells != NULL && len >= first + n) {
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *cell = PySequence_Fast_GET_ITEM(seq, first + i);
                Py_INCREF(cell);
                PyTuple_SET_ITEM(c->held, i, cell);
            }
        }
        Py_DECREF(seq);
        if (c->held == NULL || c->cells == NULL) {
            if (c->held != NULL)
                PyErr_NoMemory();
            close_column(c);
            return -1;
        }
    }
    if (len >= first + n)
        return 0;
    PyErr_Format(PyExc_ValueError, "column %zd (%R) has %zd rows, fewer than %zd", j,
                 column_name(header, j), len, first + n);
    close_column(c);
    return -1;
}

PyObject *csv_text(PyObject *columns, Py_ssize_t first, Py_ssize_t n, PyObject *header)
{
    PyObject *fast = PySequence_Fast(columns, "csv_text needs a sequence of columns");
    if (fast == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(fast), opened = 0;
    column *cols = PyMem_Calloc(m ? m : 1, sizeof *cols);
    char *text = NULL;
    PyObject *result = NULL;
    if (cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* a comma or the newline after each cell, one newline for a row of none */
    Py_ssize_t row_bytes = m ? m : 1;
    for (; opened < m; opened++) {
        column *c = &cols[opened];
        if (open_column(c, PySequence_Fast_GET_ITEM(fast, opened), first, n, opened, header))
            goto done;
        row_bytes += c->kind == FLOATS ? FLOAT_STR_MAX : c->kind == INTS ? INT_STR_MAX : 0;
    }
    /* the str cells in row order, so the first refused cell is the first
       one a row-by-row writer meets */
    Py_ssize_t bytes = n * row_bytes + CELL_MAX;
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t j = 0; j < m; j++) {
            column *c = &cols[j];
            if (c->kind != STRS)
                continue;
            PyObject *cell = PyTuple_GET_ITEM(c->held, i);
            if (!PyUnicode_CheckExact(cell)) {
                PyErr_Format(PyExc_TypeError, "row %zd, column %zd (%R) holds a %s, not a str; "
                             "write numbers as a float64 or int64 array", first + i, j,
                             column_name(header, j), Py_TYPE(cell)->tp_name);
                goto done;
            }
            c->cells[i].p = PyUnicode_AsUTF8AndSize(cell, &c->cells[i].n);
            if (c->cells[i].p == NULL)
                goto done;
            bytes += c->cells[i].n;
        }
    }
    text = PyMem_Malloc(bytes);
    if (text == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* the one formatting loop, which touches no Python object: the arrays'
       buffers and the str cells' tuples are held until it ends */
    char *p = text;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t j = 0; j < m; j++) {
            column *c = &cols[j];
            if (j)
                *p++ = ',';
            if (c->kind == FLOATS)
                p = put_float(p, ((const double *)c->view.buf)[first + i]);
            else if (c->kind == INTS)
                p = put_int(p, ((const int64_t *)c->view.buf)[first + i]);
            else {
                memcpy(p, c->cells[i].p, c->cells[i].n);
                p += c->cells[i].n;
            }
        }
        *p++ = '\n';
    }
    Py_END_ALLOW_THREADS
    result = PyUnicode_DecodeUTF8(text, p - text, "strict");
done:
    for (Py_ssize_t j = 0; j < opened; j++)
        close_column(&cols[j]);
    PyMem_Free(cols);
    PyMem_Free(text);
    Py_DECREF(fast);
    return result;
}
