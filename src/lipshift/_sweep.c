/* The two passes of the Lipschitz LSE (lipfit._stack_roots and
 * lipfit._clip_roots) in C, with the same float operations in the same
 * order, so that built with -O2 -std=c99 -ffp-contract=off (no fused
 * multiply-add, no fast-math) they give the Python sweep's bits.
 *
 * The knots live in one buffer of 2n + 1 (position, value) pairs from the
 * caller: the left stack grows up from k[0], the right stack down from
 * k[2n], so the buffer holds the knots in order with a gap at the root.
 * A knot (p, q) on a stack with offsets o, b has position p + o and value
 * q + a p + b.  Nothing here allocates. */
#include <stdint.h>

typedef struct { double p, q; } knot;  /* the layout of a complex128 */

/* Index hi of the deepest knot to move: knot j of a stack is s[j * dir],
 * top is its top index, and a knot moves while sign times its value is
 * > 0.  The galloping search of lipfit._stack_roots, probe for probe. */
static int64_t cut(const knot *s, int64_t dir, int64_t top, double sign, double a, double b)
{
    int64_t hi = top, step = 1, lo = hi - 1;
    while (lo >= 0 && sign * (s[lo * dir].q + a * s[lo * dir].p + b) > 0.0) {
        hi = lo;
        step += step;
        lo = hi - step;
    }
    if (lo < 0)
        lo = -1;
    while (hi - lo > 1) {
        int64_t mid = (lo + hi) / 2;
        if (sign * (s[mid * dir].q + a * s[mid * dir].p + b) > 0.0)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

/* Roots of V_0', ..., V_{n-1}' into roots; y, c = 2 w (n each), u (n - 1). */
void lse_roots(const double *y, const double *c, const double *u, int64_t n,
               knot *k, double *roots)
{
    knot *r = k + 2 * n;  /* right-stack knot j is r[-j] */
    int64_t nl = 1, nr = 0, i, j, hi;
    double a = c[0], ol = 0.0, orr = 0.0, bl = -a * y[0], br = bl;
    double vl, vr, d, e, m, p, ui, ci, yi;
    k[0].p = y[0];
    k[0].q = 0.0;
    for (i = 0; i < n; i++) {
        /* a trailing step with zero gap and weight past the last point */
        ui = i + 1 < n ? u[i] : 0.0;
        ci = i + 1 < n ? c[i + 1] : 0.0;
        yi = i + 1 < n ? y[i + 1] : 0.0;
        vl = nl ? k[nl - 1].q + a * k[nl - 1].p + bl : -1.0;
        vr = nr ? r[1 - nr].q + a * r[1 - nr].p + br : 1.0;
        if (vl > 0.0) {  /* left knots k[hi..nl-1] onto the right stack, in place order */
            hi = cut(k, 1, nl - 1, 1.0, a, bl);
            d = ol - orr;
            e = bl - br - a * d;
            for (j = nl - 1; j >= hi; j--, nr++) {
                r[-nr].p = k[j].p + d;
                r[-nr].q = k[j].q + e;
            }
            nl = hi;
        } else if (vr < 0.0) {  /* right knots r[-hi..-(nr-1)] onto the left stack */
            hi = cut(r, -1, nr - 1, -1.0, a, br);
            d = orr - ol;
            e = br - bl - a * d;
            for (j = nr - 1; j >= hi; j--, nl++) {
                k[nl].p = r[-j].p + d;
                k[nl].q = r[-j].q + e;
            }
            nr = hi;
        }
        vl = nl ? k[nl - 1].q + a * k[nl - 1].p + bl : -1.0;
        vr = nr ? r[1 - nr].q + a * r[1 - nr].p + br : 1.0;
        if (vl == 0.0)  /* the root is a knot; the clip below replaces it */
            m = k[--nl].p + ol;
        else if (vr == 0.0)
            m = r[1 - nr--].p + orr;
        else if (!nr)
            m = k[nl - 1].p + ol - vl / a;
        else if (!nl)
            m = r[1 - nr].p + orr - vr / a;
        else {
            double xl = k[nl - 1].p + ol, xr = r[1 - nr].p + orr;
            m = xl - vl * (xr - xl) / (vr - vl);
        }
        roots[i] = m;
        /* clip: zero-valued knots at m on both stacks, then shift them apart */
        p = m - ol;
        k[nl].p = p;
        k[nl++].q = -(a * p + bl);
        p = m - orr;
        r[-nr].p = p;
        r[-nr++].q = -(a * p + br);
        ol -= ui;
        orr += ui;
        /* add c_i (z - y_i) */
        a += ci;
        bl += ci * (ol - yi);
        br += ci * (orr - yi);
    }
}

/* The backward pass of lipfit._clip_roots, in place on the n roots f. */
void lse_clip(double *f, const double *u, int64_t n)
{
    double g = f[n - 1], lo, hi;
    for (int64_t i = n - 2; i >= 0; i--) {
        lo = g - u[i];
        if (lo > f[i])
            g = lo;
        else {
            hi = g + u[i];
            g = hi < f[i] ? hi : f[i];
        }
        f[i] = g;
    }
}
