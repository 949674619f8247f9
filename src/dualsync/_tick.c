/* The ring's tick kernel, the package's one tick path (see nodes.py).

   nodes._build_kernel compiles this file with -O2 -ffp-contract=off, so no
   a*b + c is fused into one rounding, and nodes._tick_loop_fast calls it
   through ctypes.  Every floating-point operation is the one the pure-Python
   byte oracle (tests/oracles.tick_loop) performs, in the same order, and
   cos, sin, atan2 and floor are the libm functions Python's math module
   calls: the series are bit for bit the oracle's on the same libm.  The
   oracle's single-carrier ticks also compute the second return carrier,
   which nothing reads; this kernel skips it.

   Returns the first diverged tick or -1.  A tick diverges when alpha or
   theta_out leaves [-limit, limit] or is NaN, and also, before anything is
   computed, when its clock sample or one of its eight noise samples is NaN
   or inf. */

#include <math.h>
#include <stdint.h>

#define PI 3.14159265358979323846
#define TWO_PI (2.0 * PI)

/* x plus the multiple of 2*pi that pll.wrap_phase adds */
static double wrap(double x)
{
    return x + TWO_PI * floor((PI - x) / TWO_PI);
}

/* The follower's or the master's phase discriminator: the angle of
   (re, im) against the reference whose cosine and sine are (c, s). */
static double disc(double re, double im, double c, double s)
{
    return atan2(im * c - re * s, re * c + im * s);
}

int64_t tick_loop(int64_t n, double ki_m, double kp_m, double half_tm,
                  double ki_s, double kp_s, double half_ts,
                  const double *th0, const double *thx,
                  double phi1, double phi2, double phi3, double phi4,
                  double dopp_per_tick, const double *const *noise,
                  double theta_offset, int64_t latency, int dual, int wrap_comp,
                  double limit, double *lines,
                  double *bf0, double *out_arr, double *al,
                  double *r1a, double *r2a, double *r3a, double *r4a)
{
    double alpha = 0.0, theta_out = 0.0;
    double vm = 0.0, em_prev = 0.0, wm_prev = 0.0;
    double vs = 0.0, es_prev = 0.0, ws_prev = 0.0;
    double tr3 = 0.0, tr4 = 0.0;
    double thx_prev = thx[0];
    /* the forward and the return delay line, latency ticks each */
    double *txf = lines, *txr = lines + latency;
    for (int64_t k = 0; k < latency; k++) {
        txf[k] = th0[0];
        txr[k] = thx[0];
    }
    for (int64_t i = 0; i < n; i++) {
        double t0 = th0[i];
        double tx = thx[i];
        if (!isfinite(t0) || !isfinite(tx))
            return i;
        if (noise)
            for (int k = 0; k < 8; k++)
                if (!isfinite(noise[k][i]))
                    return i;
        double dop = dopp_per_tick * (double)i;
        int64_t slot = i % latency;
        /* master: receive the return pair, update the compensation loop */
        double p3 = txr[slot] + phi3 + dop;
        double re3 = cos(p3);
        double im3 = sin(p3);
        if (noise) {
            re3 += noise[4][i];
            im3 += noise[5][i];
        }
        double c0 = cos(t0);
        double s0 = sin(t0);
        double r3 = disc(re3, im3, c0, s0);
        double r4 = 0.0;
        if (dual) {
            double p4 = txr[slot] + phi4 + dop;
            double re4 = cos(p4);
            double im4 = sin(p4);
            if (noise) {
                re4 += noise[6][i];
                im4 += noise[7][i];
            }
            r4 = disc(re4, im4, c0, s0);
        }
        double m3 = r3, m4 = r4;
        if (wrap_comp) {
            if (i == 0) {
                tr3 = r3;
                tr4 = r4;
            } else {
                tr3 = tr3 + wrap(r3 - tr3);
                if (dual)
                    tr4 = tr4 + wrap(r4 - tr4);
            }
            m3 = tr3;
            m4 = tr4;
        }
        double mean_r = dual ? 0.5 * (m3 + m4) : m3;
        double em = wrap(theta_offset - mean_r - 0.5 * alpha);
        vm = vm + ki_m * (em + em_prev);
        double wm = kp_m * em + vm;
        alpha = alpha + half_tm * (wm + wm_prev);
        em_prev = em;
        wm_prev = wm;
        double txf_new = t0 + 0.5 * alpha;
        /* follower: receive the forward pair, update the tracking loop */
        double p1 = txf[slot] + phi1 + dop;
        double re1 = cos(p1);
        double im1 = sin(p1);
        if (noise) {
            re1 += noise[0][i];
            im1 += noise[1][i];
        }
        /* reference = composite carrier (NCO x LO) from the previous epoch */
        double ref = theta_out + thx_prev;
        double cr = cos(ref);
        double sr = sin(ref);
        double e1 = disc(re1, im1, cr, sr);
        double re2 = 0.0, im2 = 0.0, es = e1;
        if (dual) {
            double p2 = txf[slot] + phi2 + dop;
            re2 = cos(p2);
            im2 = sin(p2);
            if (noise) {
                re2 += noise[2][i];
                im2 += noise[3][i];
            }
            es = wrap(0.5 * (e1 + disc(re2, im2, cr, sr)));
        }
        vs = vs + ki_s * (es + es_prev);
        double ws = kp_s * es + vs;
        theta_out = theta_out + half_ts * (ws + ws_prev);
        es_prev = es;
        ws_prev = ws;
        double theta_bf = theta_out + tx;
        thx_prev = tx;
        txf[slot] = txf_new;
        txr[slot] = theta_bf;
        bf0[i] = theta_bf - t0;
        out_arr[i] = theta_out;
        al[i] = alpha;
        if (r1a) {
            double ct = cos(tx);
            double st = sin(tx);
            r1a[i] = disc(re1, im1, ct, st);
            r2a[i] = dual ? disc(re2, im2, ct, st) : 0.0;
            r3a[i] = r3;
            r4a[i] = r4;
        }
        /* false for NaN as for a phase beyond the limit */
        if (!(fabs(alpha) <= limit && fabs(theta_out) <= limit))
            return i;
    }
    return -1;
}
