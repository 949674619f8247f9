/* CSV rows as text, the package's one CSV row writer (see cli._write_csv).

   csv_text(rows, first, header) returns the text of a batch of rows: per
   row, the bytes of ",".join(map(str, row)) + "\n", the row writer the
   tests keep as their byte oracle (tests/oracles.write_rows).  A cell that
   is exactly a float is written by the Grisu3 algorithm (Loitsch 2010),
   which finds the shortest digits that read back to the value, or declines
   when 64-bit arithmetic cannot prove them (0.3-0.5% of values); the
   digits are laid out by CPython's repr rules.  Every declined value, and
   zero, inf and nan, goes to PyOS_double_to_string(x, 'r', 0,
   Py_DTSF_ADD_DOT_0, NULL), the function float.__repr__ calls, so no tie
   or boundary case rests on the fast path.  An exact int is written in
   decimal (through str() beyond int64), an exact str is copied as UTF-8,
   a bool raises TypeError naming its row (first plus its index in the
   batch) and column, and any other cell is written as str(cell).

   _native.library binds this function as a ctypes.PYFUNCTYPE: it calls the
   C API, so it runs holding the interpreter lock. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* 10^(8*i - 348) ~ cached_powers_f[i] * 2^cached_powers_e[i],
   the 64-bit significand rounded to nearest; the tests recompute both
   tables from Python integers. */
#define CACHED_POWERS_FIRST (-348)
#define CACHED_POWERS_STEP 8
#define CACHED_POWERS_N 87

static const uint64_t cached_powers_f[CACHED_POWERS_N] = {
    0xfa8fd5a0081c0288, 0xbaaee17fa23ebf76, 0x8b16fb203055ac76,
    0xcf42894a5dce35ea, 0x9a6bb0aa55653b2d, 0xe61acf033d1a45df,
    0xab70fe17c79ac6ca, 0xff77b1fcbebcdc4f, 0xbe5691ef416bd60c,
    0x8dd01fad907ffc3c, 0xd3515c2831559a83, 0x9d71ac8fada6c9b5,
    0xea9c227723ee8bcb, 0xaecc49914078536d, 0x823c12795db6ce57,
    0xc21094364dfb5637, 0x9096ea6f3848984f, 0xd77485cb25823ac7,
    0xa086cfcd97bf97f4, 0xef340a98172aace5, 0xb23867fb2a35b28e,
    0x84c8d4dfd2c63f3b, 0xc5dd44271ad3cdba, 0x936b9fcebb25c996,
    0xdbac6c247d62a584, 0xa3ab66580d5fdaf6, 0xf3e2f893dec3f126,
    0xb5b5ada8aaff80b8, 0x87625f056c7c4a8b, 0xc9bcff6034c13053,
    0x964e858c91ba2655, 0xdff9772470297ebd, 0xa6dfbd9fb8e5b88f,
    0xf8a95fcf88747d94, 0xb94470938fa89bcf, 0x8a08f0f8bf0f156b,
    0xcdb02555653131b6, 0x993fe2c6d07b7fac, 0xe45c10c42a2b3b06,
    0xaa242499697392d3, 0xfd87b5f28300ca0e, 0xbce5086492111aeb,
    0x8cbccc096f5088cc, 0xd1b71758e219652c, 0x9c40000000000000,
    0xe8d4a51000000000, 0xad78ebc5ac620000, 0x813f3978f8940984,
    0xc097ce7bc90715b3, 0x8f7e32ce7bea5c70, 0xd5d238a4abe98068,
    0x9f4f2726179a2245, 0xed63a231d4c4fb27, 0xb0de65388cc8ada8,
    0x83c7088e1aab65db, 0xc45d1df942711d9a, 0x924d692ca61be758,
    0xda01ee641a708dea, 0xa26da3999aef774a, 0xf209787bb47d6b85,
    0xb454e4a179dd1877, 0x865b86925b9bc5c2, 0xc83553c5c8965d3d,
    0x952ab45cfa97a0b3, 0xde469fbd99a05fe3, 0xa59bc234db398c25,
    0xf6c69a72a3989f5c, 0xb7dcbf5354e9bece, 0x88fcf317f22241e2,
    0xcc20ce9bd35c78a5, 0x98165af37b2153df, 0xe2a0b5dc971f303a,
    0xa8d9d1535ce3b396, 0xfb9b7cd9a4a7443c, 0xbb764c4ca7a44410,
    0x8bab8eefb6409c1a, 0xd01fef10a657842c, 0x9b10a4e5e9913129,
    0xe7109bfba19c0c9d, 0xac2820d9623bf429, 0x80444b5e7aa7cf85,
    0xbf21e44003acdd2d, 0x8e679c2f5e44ff8f, 0xd433179d9c8cb841,
    0x9e19db92b4e31ba9, 0xeb96bf6ebadf77d9, 0xaf87023b9bf0ee6b,
};

static const int16_t cached_powers_e[CACHED_POWERS_N] = {
    -1220, -1193, -1166, -1140, -1113, -1087, -1060, -1034, -1007, -980, -954, -927,
    -901, -874, -847, -821, -794, -768, -741, -715, -688, -661, -635, -608,
    -582, -555, -529, -502, -475, -449, -422, -396, -369, -343, -316, -289,
    -263, -236, -210, -183, -157, -130, -103, -77, -50, -24, 3, 30,
    56, 83, 109, 136, 162, 189, 216, 242, 269, 295, 322, 348,
    375, 402, 428, 455, 481, 508, 534, 561, 588, 614, 641, 667,
    694, 720, 747, 774, 800, 827, 853, 880, 907, 933, 960, 986,
    1013, 1039, 1066,
};

/* f * 2^e */
typedef struct {
    uint64_t f;
    int e;
} diyfp;

/* x * y with the low 64 bits of the product rounded into the high */
static diyfp multiply(diyfp x, diyfp y)
{
    unsigned __int128 p = (unsigned __int128)x.f * y.f;
    diyfp r = {(uint64_t)(p >> 64) + ((uint64_t)p >> 63), x.e + y.e + 64};
    return r;
}

static diyfp normalize(diyfp x)
{
    int shift = __builtin_clzll(x.f);
    x.f <<= shift;
    x.e -= shift;
    return x;
}

/* Trim the last generated digit toward w and return whether the digits
   are provably the shortest in the interval and the closest to w. */
static int round_weed(char *digits, int length, uint64_t distance_too_high_w,
                      uint64_t unsafe_interval, uint64_t rest, uint64_t ten_kappa,
                      uint64_t unit)
{
    uint64_t small_distance = distance_too_high_w - unit;
    uint64_t big_distance = distance_too_high_w + unit;
    while (rest < small_distance && unsafe_interval - rest >= ten_kappa
           && (rest + ten_kappa < small_distance
               || small_distance - rest >= rest + ten_kappa - small_distance)) {
        digits[length - 1]--;
        rest += ten_kappa;
    }
    if (rest < big_distance && unsafe_interval - rest >= ten_kappa
        && (rest + ten_kappa < big_distance
            || big_distance - rest > rest + ten_kappa - big_distance))
        return 0;
    return 2 * unit <= rest && rest <= unsafe_interval - 4 * unit;
}

/* The digits of w scaled by a cached power, bounded by low and high (the
   scaled boundaries); *kappa is the decimal exponent of the last digit. */
static int digit_gen(diyfp low, diyfp w, diyfp high, char *digits, int *length,
                     int *kappa)
{
    uint64_t unit = 1;
    diyfp too_low = {low.f - unit, low.e};
    diyfp too_high = {high.f + unit, high.e};
    uint64_t unsafe_interval = too_high.f - too_low.f;
    int shift = -w.e;
    uint64_t one = (uint64_t)1 << shift;
    uint32_t integrals = (uint32_t)(too_high.f >> shift);
    uint64_t fractionals = too_high.f & (one - 1);
    uint32_t divisor = 1;
    *kappa = 1;
    while (divisor <= integrals / 10) {
        divisor *= 10;
        ++*kappa;
    }
    *length = 0;
    while (*kappa > 0) {
        digits[(*length)++] = (char)('0' + integrals / divisor);
        integrals %= divisor;
        --*kappa;
        uint64_t rest = ((uint64_t)integrals << shift) + fractionals;
        if (rest < unsafe_interval)
            return round_weed(digits, *length, too_high.f - w.f, unsafe_interval, rest,
                              (uint64_t)divisor << shift, unit);
        divisor /= 10;
    }
    for (;;) {
        fractionals *= 10;
        unit *= 10;
        unsafe_interval *= 10;
        digits[(*length)++] = (char)('0' + (fractionals >> shift));
        fractionals &= one - 1;
        --*kappa;
        if (fractionals < unsafe_interval)
            return round_weed(digits, *length, (too_high.f - w.f) * unit, unsafe_interval,
                              fractionals, one, unit);
    }
}

/* Grisu3: the shortest digits of a finite v > 0 and their decimal
   exponent, v ~ digits * 10^*exponent, or 0 where it cannot prove them. */
static int grisu3(double v, char *digits, int *length, int *exponent)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t fraction = bits & (((uint64_t)1 << 52) - 1);
    int biased = (int)(bits >> 52 & 0x7ff);
    diyfp w = {fraction, -1074};
    if (biased) {
        w.f |= (uint64_t)1 << 52;
        w.e = biased - 1075;
    }
    /* the midpoints to v's neighbours; below a power of two (not the least
       normal) the lower neighbour is half as far */
    diyfp plus = normalize((diyfp){(w.f << 1) + 1, w.e - 1});
    diyfp minus = {(w.f << 1) - 1, w.e - 1};
    if (fraction == 0 && biased > 1)
        minus = (diyfp){(w.f << 2) - 1, w.e - 2};
    minus.f <<= minus.e - plus.e;
    minus.e = plus.e;
    w = normalize(w);

    /* the cached power that brings w's exponent into [-60, -32] */
    int k = (int)ceil((-60 - (w.e + 64) + 63) * 0.30102999566398114);
    int i = (k - CACHED_POWERS_FIRST - 1) / CACHED_POWERS_STEP + 1;
    diyfp c = {cached_powers_f[i], cached_powers_e[i]};
    int kappa;
    if (!digit_gen(multiply(minus, c), multiply(w, c), multiply(plus, c), digits, length,
                   &kappa))
        return 0;
    *exponent = kappa - (CACHED_POWERS_FIRST + CACHED_POWERS_STEP * i);
    return 1;
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

static int put(text *t, const char *s, Py_ssize_t n)
{
    if (reserve(t, n))
        return -1;
    memcpy(t->p + t->len, s, n);
    t->len += n;
    return 0;
}

/* str(x) for a float x */
static int put_float(text *t, double x)
{
    char digits[18];
    int n, exponent;
    if (!isfinite(x) || x == 0.0 || !grisu3(fabs(x), digits, &n, &exponent)) {
        char *s = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (s == NULL)
            return -1;
        int err = put(t, s, (Py_ssize_t)strlen(s));
        PyMem_Free(s);
        return err;
    }
    /* at most "-", 17 digits, "e-324" or "0.000" + 17 digits, or 17 digits
       + 16 zeros ".0"; 64 bounds all three */
    if (reserve(t, 64))
        return -1;
    char *p = t->p + t->len;
    if (x < 0)
        *p++ = '-';
    int point = n + exponent; /* x = 0.digits * 10^point */
    if (point <= -4 || point > 16) {
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, n - 1);
            p += n - 1;
        }
        p += sprintf(p, "e%+.02d", point - 1);
    }
    else if (point <= 0) {
        memcpy(p, "0.", 2);
        memset(p + 2, '0', -point);
        p += 2 - point;
        memcpy(p, digits, n);
        p += n;
    }
    else if (point >= n) {
        memcpy(p, digits, n);
        memset(p + n, '0', point - n);
        p += point;
        memcpy(p, ".0", 2);
        p += 2;
    }
    else {
        memcpy(p, digits, point);
        p[point] = '.';
        memcpy(p + point + 1, digits + point, n - point);
        p += n + 1;
    }
    t->len = p - t->p;
    return 0;
}

/* the UTF-8 of a str object */
static int put_str(text *t, PyObject *s)
{
    Py_ssize_t n;
    const char *u = PyUnicode_AsUTF8AndSize(s, &n);
    return u == NULL ? -1 : put(t, u, n);
}

static int put_cell(text *t, PyObject *cell, Py_ssize_t row, Py_ssize_t col,
                    PyObject *header)
{
    if (PyFloat_CheckExact(cell))
        return put_float(t, PyFloat_AS_DOUBLE(cell));
    if (PyLong_CheckExact(cell)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(cell, &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (!overflow) {
            char s[24], *p = s + sizeof s;
            unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
            do
                *--p = (char)('0' + u % 10);
            while (u /= 10);
            if (v < 0)
                *--p = '-';
            return put(t, p, s + sizeof s - p);
        }
    }
    else if (PyUnicode_CheckExact(cell))
        return put_str(t, cell);
    else if (PyBool_Check(cell)) {
        PyObject *name = PyTuple_Check(header) && col < PyTuple_GET_SIZE(header)
                             ? PyTuple_GET_ITEM(header, col) : Py_None;
        PyErr_Format(PyExc_TypeError, "row %zd, column %zd (%R) holds a bool; "
                     "write it as 1/0", row, col, name);
        return -1;
    }
    PyObject *s = PyObject_Str(cell);
    if (s == NULL)
        return -1;
    int err = put_str(t, s);
    Py_DECREF(s);
    return err;
}

PyObject *csv_text(PyObject *rows, Py_ssize_t first, PyObject *header)
{
    PyObject *batch = PySequence_Fast(rows, "csv_text needs a sequence of rows");
    if (batch == NULL)
        return NULL;
    text t = {NULL, 0, 0};
    PyObject *result = NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(batch);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(batch, i),
                                        "a CSV row must be iterable");
        if (row == NULL)
            goto done;
        Py_ssize_t m = PySequence_Fast_GET_SIZE(row);
        for (Py_ssize_t j = 0; j < m; j++) {
            if ((j && put(&t, ",", 1))
                || put_cell(&t, PySequence_Fast_GET_ITEM(row, j), first + i, j, header)) {
                Py_DECREF(row);
                goto done;
            }
        }
        Py_DECREF(row);
        if (put(&t, "\n", 1))
            goto done;
    }
    result = PyUnicode_DecodeUTF8(t.p, t.len, "strict");
done:
    PyMem_Free(t.p);
    Py_DECREF(batch);
    return result;
}
