/* The two passes of the Lipschitz LSE (lipfit._stack_roots and
 * lipfit._clip_roots), the isotonic fit (lipfit._pava) and the empirical
 * spread (spread.EmpiricalSpread._search) in C, with the same float
 * operations in the same order, so that built with -O2 -std=c99
 * -ffp-contract=off (no fused multiply-add, no fast-math) they give the
 * Python paths' bits.
 *
 * The knots live in one buffer of 2n + 1 (position, value) pairs from the
 * caller: the left stack grows up from k[0], the right stack down from
 * k[2n], so the buffer holds the knots in order with a gap at the root.
 * A knot (p, q) on a stack with offsets o, b has position p + o and value
 * q + a p + b.  Nothing here allocates. */
#include <math.h>
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

/* Pool adjacent violators on y (n): blocks as (total, count) pairs in tot
 * and cnt, merged while out of order, then each point gets its block's
 * mean in out.  lipfit._pava, operation for operation. */
void iso_fit(const double *y, int64_t n, double *tot, int64_t *cnt, double *out)
{
    int64_t k = 0, i, j, c;
    for (i = 0; i < n; i++) {
        tot[k] = y[i];
        cnt[k++] = 1;
        while (k > 1 && tot[k - 2] * (double)cnt[k - 1] >= tot[k - 1] * (double)cnt[k - 2]) {
            tot[k - 2] += tot[k - 1];
            cnt[k - 2] += cnt[k - 1];
            k--;
        }
    }
    for (i = 0, j = 0; j < k; j++) {
        double v = tot[j] / (double)cnt[j];
        for (c = 0; c < cnt[j]; c++)
            out[i++] = v;
    }
}

/* #{i : x - p_i < phi} over the points p_i below index s plus #{i : p_i -
 * x < phi} over the rest.  Float subtraction is monotone, so each set is a
 * run next to s, and a binary search on the test itself finds its end. */
static int64_t count_closer(const double *p, int64_t n, int64_t s, double x, double phi)
{
    int64_t lo = 0, hi = s, mid, j;
    while (lo < hi) {  /* the first i < s with x - p_i < phi, or s */
        mid = lo + (hi - lo) / 2;
        if (x - p[mid] < phi)
            hi = mid;
        else
            lo = mid + 1;
    }
    j = lo;
    hi = n;
    lo = s;
    while (lo < hi) {  /* the first i >= s with p_i - x >= phi, or n */
        mid = lo + (hi - lo) / 2;
        if (p[mid] - x < phi)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo - j;
}

/* The k-th smallest distance (1 <= k <= n): the split search of
 * EmpiricalSpread._kth_distance over how many of the k smallest lie below
 * s, and np.maximum's choice between its two candidates. */
static double kth_distance(const double *p, int64_t n, int64_t s, double x, int64_t k)
{
    int64_t lo = k - (n - s) > 0 ? k - (n - s) : 0, hi = k < s ? k : s, i;
    double left, right;
    while (lo < hi) {
        i = lo + (hi - lo) / 2;
        if (x - p[s - 1 - i] >= p[s + k - 1 - i] - x)
            hi = i;
        else
            lo = i + 1;
    }
    left = hi > 0 ? x - p[s - hi] : -INFINITY;
    right = hi < k ? p[s + k - 1 - hi] - x : -INFINITY;
    return left > right ? left : right;
}

/* EmpiricalSpread.at on the n sorted points p for each of the g points xs:
 * min(r_k*, sqrt(log n / (k* - 1))) with k* = min{k : r_k >= sqrt(log n /
 * k)} found by binary search, as EmpiricalSpread._search does.  log_n is
 * numpy's log(n), whose last bit libm's log need not share. */
void emp_spread(const double *p, int64_t n, double log_n, const double *xs, int64_t g,
                double *out)
{
    for (int64_t t = 0; t < g; t++) {
        double x = xs[t], r, cap;
        int64_t s = 0, e = n, mid, lo = 1, hi = n + 1, k;
        while (s < e) {  /* np.searchsorted(p, x): the first p_i >= x */
            mid = s + (e - s) / 2;
            if (p[mid] < x)
                s = mid + 1;
            else
                e = mid;
        }
        while (lo < hi) {  /* k* in [1, n + 1]; n + 1: r_k < sqrt(log n / k) for all k */
            k = lo + (hi - lo) / 2;
            if (k > n || count_closer(p, n, s, x, sqrt(log_n / (double)k)) < k)
                hi = k;
            else
                lo = k + 1;
        }
        r = hi <= n ? kth_distance(p, n, s, x, hi) : INFINITY;
        cap = hi >= 2 ? sqrt(log_n / (double)(hi - 1)) : INFINITY;
        out[t] = r < cap ? r : cap;
    }
}
