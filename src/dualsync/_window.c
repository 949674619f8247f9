/* The main-lobe sum of spectral.cheb_window.

   cheb_main_lobe(n, half, count, idx, p, table, w) adds to w[m], m <
   half, the only w the window reads, the terms p[i] * table[r] of the
   count main-lobe frequency samples i = idx[0], idx[1], ... in that order,
   one sample's terms at a time, as the Python loop it replaced did.
   table[r] is cos(pi * r / n) for r = 0..2n-1, and r is the exact phase
   index of sample i at m reduced mod 2n: 2*i*m for odd n, i*(2m - 1) for
   even n.  r steps by 2i from its value at m = 0 (0, or 2n - i as Python's
   % gives for -i) and wraps by one subtraction, since 2i < 2n.  Compiled
   with -ffp-contract=off, each product is rounded before it is added. */

#include <stdint.h>

void cheb_main_lobe(int64_t n, int64_t half, int64_t count, const int64_t *idx,
                    const double *p, const double *table, double *w)
{
    int64_t two_n = 2 * n;
    for (int64_t j = 0; j < count; j++) {
        int64_t i = idx[j], step = 2 * i;
        int64_t r = n % 2 || i == 0 ? 0 : two_n - i;
        double p_i = p[i];
        for (int64_t m = 0; m < half; m++) {
            w[m] += p_i * table[r];
            r += step;
            if (r >= two_n)
                r -= two_n;
        }
    }
}
