/* The two passes of the Lipschitz LSE, the isotonic fit, the empirical
 * spread, the designs' unit CDFs, a tabulated design's inverse CDF and the
 * t_n solve, which evaluates the design's unit CDF here too, in C.  Their
 * references in tests/kernel_reference.py (stack_roots and clip_roots,
 * pava, search, unit_cdf with power_cdf, pow_cdf, example3_cdf and
 * tabulated_cdf, tabulated_ppf, numpy_rounds) do the same float operations
 * in the same order, so that built with -O2 -std=c99 -ffp-contract=off (no
 * fused multiply-add, no fast-math) these give the references' bits.  An
 * integer power is a product of its base; any other power is libm's pow,
 * whose bits are Python's math.pow's; the solve's cbrt only steers its
 * secant (see tn_solve).
 *
 * The knots live in one buffer of 2n + 1 (position, value) pairs from the
 * caller: the left stack grows up from k[0], the right stack down from
 * k[2n], so the buffer holds the knots in order with a gap at the root.
 * A knot (p, q) on a stack with offsets o, b has position p + o and value
 * q + a p + b.  Nothing here allocates. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct { double p, q; } knot;  /* the layout of a complex128 */

/* Index hi of the deepest knot to move: knot j of a stack is s[j * dir],
 * top is its top index, and a knot moves while sign times its value is
 * > 0.  The galloping search of kernel_reference.cut, probe for probe. */
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

/* The backward pass of kernel_reference.clip_roots, in place on the n roots f. */
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
 * mean in out.  kernel_reference.pava, operation for operation. */
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
 * kernel_reference.kth_distance over how many of the k smallest lie below
 * s, and its choice `left if left > right else right` between the two
 * candidates. */
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
 * k)} found by binary search, as kernel_reference.search does.  log_n is
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

/* np.maximum and np.minimum: a NaN propagates, and a tie returns b; past
 * the NaN test each is one compare-and-select the compiler can emit as one
 * instruction */
static double np_max(double a, double b) { return a != a ? a : a > b ? a : b; }
static double np_min(double a, double b) { return a != a ? a : a < b ? a : b; }

/* A tabulated design's table tab holds four rows of m doubles: its grid g
 * (strictly ascending in [0, 1]), its renormalized node values v, the CDF
 * at each node cum, and each segment's slope (m - 1, then one unused).
 * Both searches count nodes as np.searchsorted does, by a bisection whose
 * steps select the next base instead of branching, which compilers emit
 * as conditional moves: which segment a point falls in is not
 * predictable. */

/* The unit CDF at x: the numpy body of kernel_reference.tabulated_cdf, x
 * clamped to [g[0], g[m - 1]], its segment np.searchsorted(g, x,
 * side="right") - 1 clipped to [0, m - 2], then the trapezoid integral
 * from the nearer node.  A NaN x stays NaN, and the search puts it past
 * every node, as numpy's sort order does. */
static double tab_at(const double *tab, int64_t m, double x)
{
    const double *g = tab, *v = tab + m, *cum = tab + 2 * m, *slope = tab + 3 * m, *b = g;
    double xi = np_min(g[m - 1], np_max(g[0], x)), dx, r;
    int64_t len = m, i;
    while (len > 1) {  /* b: the last node not above xi, or g */
        b = xi < b[len / 2] ? b : b + len / 2;
        len -= len / 2;
    }
    i = (b - g) + !(xi < *b) - 1;  /* the count of nodes not above xi, less one */
    i = i < 0 ? 0 : i > m - 2 ? m - 2 : i;
    dx = xi - g[i];
    r = g[i + 1] - xi;
    return r < dx ? cum[i + 1] - (v[i + 1] * r - 0.5 * slope[i] * (r * r))
                  : cum[i] + v[i] * dx + 0.5 * slope[i] * (dx * dx);
}

/* A design's unit CDF as a tree of nodes, written in one array of doubles
 * in prefix order: each node's kind, its numbers, then a mixture's two
 * components.  Each kind does the float operations of its numpy body in
 * kernel_reference.unit_cdf, in the same order:
 *   UNIFORM    the point itself;
 *   POWER      k (at most densities._POWER_MAX): the point times itself
 *              k - 1 times, left to right, a power design's x^(alpha + 1)
 *              for an integer alpha + 1;
 *   EXAMPLE3   phi, ramp, f14, f34: the left ramp, the level and the
 *              right ramp, split at 1/4 and 3/4;
 *   TABULATED  m, then the (4, m) table of tab_at;
 *   MIXTURE    w, then P's tree and Q's: w * F_P + (1.0 - w) * F_Q;
 *   POW        e: libm's pow(x, e), a power design's x^(alpha + 1) for
 *              any other alpha.
 * The tree is walked once per block of up to BLOCK points, so that each
 * node's loop runs over a block and a mixture holds its Q values in one
 * block on the stack.  densities numbers the kinds as this enum does. */
enum { UNIFORM, POWER, EXAMPLE3, TABULATED, MIXTURE, POW };
enum { BLOCK = 256 };

/* The unit CDF of the tree at *tree, which then points past it, at the n
 * <= BLOCK points x: the values in out, or where they already are (x for
 * a uniform node).  Returns where the values are. */
static const double *tree_cdf(const double **tree, const double *x, int64_t n, double *out)
{
    const double *c = *tree, *fp, *fq;
    /* a node's numbers in locals: the compiler cannot tell that out and c
     * do not overlap, and would read them again after each store */
    double q[BLOCK], v, w, phi, ramp, f14, f34;
    int64_t i, j, m;
    switch ((int)c[0]) {
    case UNIFORM:
        *tree = c + 1;
        return x;
    case POWER:  /* ((x x) x) ... x, as numpy's x * x * ... * x */
        m = (int64_t)c[1];
        *tree = c + 2;
        for (i = 0; i < n; i++) {
            v = w = x[i];
            for (j = 1; j < m; j++)
                w *= v;
            out[i] = w;
        }
        return out;
    case EXAMPLE3:  /* np.where(x <= 0.25, left, np.where(x <= 0.75, mid, right)) */
        phi = c[1];
        ramp = c[2];
        f14 = c[3];
        f34 = c[4];
        *tree = c + 5;
        for (i = 0; i < n; i++) {
            v = x[i];
            if (v <= 0.25)
                out[i] = phi * v + ramp * (v / 4.0 - v * v / 2.0);
            else if (v <= 0.75)
                out[i] = f14 + phi * (v - 0.25);
            else {
                v -= 0.75;
                out[i] = f34 + phi * v + ramp / 2.0 * (v * v);
            }
        }
        return out;
    case TABULATED:
        m = (int64_t)c[1];
        *tree = c + 2 + 4 * m;
        for (i = 0; i < n; i++)
            out[i] = tab_at(c + 2, m, x[i]);
        return out;
    case MIXTURE:  /* Q's values never land in out, which P's may fill */
        w = c[1];
        *tree = c + 2;
        fp = tree_cdf(tree, x, n, out);
        fq = tree_cdf(tree, x, n, q);
        for (i = 0; i < n; i++)
            out[i] = w * fp[i] + (1.0 - w) * fq[i];
        return out;
    default:  /* POW */
        v = c[1];
        *tree = c + 2;
        for (i = 0; i < n; i++)
            out[i] = pow(x[i], v);
        return out;
    }
}

/* The unit CDF of the given tree at the n points x, in place.  Each block
 * of points is copied out first, since a mixture reads its points again
 * after P's values. */
void unit_cdf(const double *tree, double *x, int64_t n)
{
    double in[BLOCK];
    for (int64_t t = 0; t < n; t += BLOCK) {
        const double *c = tree, *f;
        int64_t b = n - t < BLOCK ? n - t : BLOCK;
        memcpy(in, x + t, b * sizeof *in);
        f = tree_cdf(&c, in, b, x + t);
        if (f != x + t)
            memcpy(x + t, f, b * sizeof *x);
    }
}

/* The inverse CDF at the n levels u (each in [0, 1]) into out: the numpy
 * body of kernel_reference.tabulated_ppf, the segment
 * np.searchsorted(cum, u) - 1 clipped to [0, m - 2], then the root of the
 * segment's quadratic in the form that does not cancel. */
void tab_ppf(const double *tab, int64_t m, const double *u, int64_t n, double *out)
{
    const double *g = tab, *v = tab + m, *cum = tab + 2 * m, *slope = tab + 3 * m;
    for (int64_t t = 0; t < n; t++) {
        double du, den, dx;
        const double *b = cum;
        int64_t len = m, i;
        while (len > 1) {  /* b: the last node mass below u, or cum */
            b = b[len / 2] < u[t] ? b + len / 2 : b;
            len -= len / 2;
        }
        i = (b - cum) + (*b < u[t]) - 1;  /* the count of masses below u, less one */
        i = i < 0 ? 0 : i > m - 2 ? m - 2 : i;
        du = np_max(u[t] - cum[i], 0.0);
        den = v[i] + sqrt(np_max(v[i] * v[i] + 2.0 * slope[i] * du, 0.0));
        dx = den > 0.0 ? 2.0 * du / den : 0.0;
        out[t] = np_min(g[i] + dx, g[i + 1]);
    }
}

/* The t_n solve works on a buffer s that starts with six doubles: n, k
 * (the points still solving), the round, the threshold log n / n, its
 * cube root (the secant's target) and the first estimate (the cube root of
 * half the threshold).  So each call takes one argument, and ctypes
 * converts one.  Rows of n doubles follow, row r at s + 6 + r n.  X holds
 * the solve's points, and each solved t in place of its point.  The rows
 * from IDX to BEFORE hold, for each point still solving, compacted to the
 * row's front in order: its index in X (as a double), half, est, lo, hi
 * and before.  For the k points of a round, E (4 rows) holds the clipped
 * ends x + a, x + b, x - a, x - b, then g(a), g(b) (2k).  The tree of the
 * unit CDF (see tree_cdf) follows E.  The caller fills the header, X and
 * the tree. */
enum { X, IDX, HALF, EST, LO, HI, BEFORE, E, TREE = E + 4 };
#define ROW(r) (s + 6 + (r) * (int64_t)s[0])

/* kernel_reference.next_float: the neighbouring integer of x's bit pattern */
static double next_float(double x, int64_t step)
{
    int64_t i;
    memcpy(&i, &x, sizeof i);
    i += step;
    memcpy(&x, &i, sizeof x);
    return x;
}

/* The pair (a, b) of a round: est -/+ half, b at least est's next float,
 * both inside the bracket's inner floats.  A function of the state, so
 * each step recomputes it rather than storing it. */
static inline void pair(double lo, double hi, double est, double half, double *a, double *b)
{
    double in0 = next_float(lo, 1), in1 = next_float(hi, -1);
    *a = np_min(np_max(est - half, in0), in1);
    *b = np_min(np_max(np_max(est + half, next_float(est, 1)), in0), in1);
}

/* One round of kernel_reference.numpy_rounds on the k points still
 * solving.  Round 0 starts each bracket; a later round first moves it by
 * the signs of g(a), g(b) and takes the next estimate from the secant on
 * their cube roots, as the end of the previous round of the loop does.
 * Then a point whose midpoint rounds to lo or hi (every point at round
 * 200, the cap) is solved, the others move to the rows' fronts, and E gets
 * their clipped ends.  Returns the number still solving, the new k. */
static int64_t tn_round(double *s)
{
    int64_t k = (int64_t)s[1], round = (int64_t)s[2], i, j = 0;
    double thr = s[3], lev = s[4], *x = ROW(X), *idx = ROW(IDX), *lo = ROW(LO), *hi = ROW(HI);
    double *est = ROW(EST), *half = ROW(HALF), *before = ROW(BEFORE), *e = ROW(E);
    const double *g = e;  /* read before the ends overwrite e */
    double a, b, lo2, hi2, ca, sec, step, t, xi;
    int a_below, b_below, slow;
    for (i = 0; i < k; i++) {
        if (round == 0) {
            idx[i] = (double)i;
            lo[i] = sqrt(thr) * (1.0 - 1e-9);
            hi[i] = 1.0;
            est[i] = s[5];
            half[i] = 0.5 * s[5];
            before[i] = INFINITY;
        } else {
            pair(lo[i], hi[i], est[i], half[i], &a, &b);
            a_below = g[i] < thr;
            b_below = g[k + i] < thr;
            lo2 = a_below ? (b_below ? b : a) : lo[i];
            hi2 = a_below ? (b_below ? hi[i] : b) : a;
            slow = hi2 - lo2 > 0.5 * before[i];
            before[i] = hi[i] - lo[i];
            lo[i] = lo2;
            hi[i] = hi2;
            t = 0.5 * (lo2 + hi2);
            if (slow) {
                est[i] = np_min(np_max(t, lo2), hi2);
                half[i] = 0.25 * (hi2 - lo2);
            } else if (t != lo2 && t != hi2) {  /* the secant, for a point still solving */
                /* libm's cbrt, whose last bits differ from numpy's: it only
                 * steers the secant, and g itself certifies the result */
                ca = cbrt(g[i]);
                sec = a + (lev - ca) * (b - a) / (cbrt(g[k + i]) - ca);
                if (!(sec > lo2 && sec < hi2))  /* no usable secant: step past the pair */
                    sec = b_below ? b + 2.0 * (b - a) : a - 2.0 * (b - a);
                step = fabs(sec - est[i]);
                half[i] = a_below && !b_below ? 0.5 * step : 2.0 * np_max(half[i], step);
                est[i] = np_min(np_max(sec, lo2), hi2);
            }
        }
        t = 0.5 * (lo[i] + hi[i]);
        if (round == 200 || t == lo[i] || t == hi[i]) {
            x[(int64_t)idx[i]] = t;
            continue;
        }
        idx[j] = idx[i];
        half[j] = half[i];
        est[j] = est[i];
        lo[j] = lo[i];
        hi[j] = hi[i];
        before[j++] = before[i];
    }
    for (i = 0; i < j; i++) {  /* the ends, clipped as densities._clip01 does */
        pair(lo[i], hi[i], est[i], half[i], &a, &b);
        xi = x[(int64_t)idx[i]];
        e[i] = np_min(1.0, np_max(0.0, xi + a));
        e[j + i] = np_min(1.0, np_max(0.0, xi + b));
        e[2 * j + i] = np_min(1.0, np_max(0.0, xi - a));
        e[3 * j + i] = np_min(1.0, np_max(0.0, xi - b));
    }
    s[1] = (double)j;
    s[2] = (double)(round + 1);
    return j;
}

/* g = pair^2 max(F(x + pair) - F(x - pair), 0.0) for the k points' pairs,
 * the unit CDF F evaluated on the ends in E by its tree, a block of points
 * at a time, into E's first 2k: the loop's `interval_mass`.  A block's
 * ends are read before its entries are written. */
static void tn_mass(double *s)
{
    int64_t k = (int64_t)s[1], i, j, t, nb;
    const double *lo = ROW(LO), *hi = ROW(HI), *est = ROW(EST), *half = ROW(HALF);
    const double *tree = ROW(TREE), *c, *f[4];
    double *e = ROW(E), out[4][BLOCK], a, b;
    for (t = 0; t < k; t += BLOCK) {
        nb = k - t < BLOCK ? k - t : BLOCK;
        for (j = 0; j < 4; j++) {  /* F at x + a, x + b, x - a, x - b */
            c = tree;
            f[j] = tree_cdf(&c, e + j * k + t, nb, out[j]);
        }
        for (i = 0; i < nb; i++) {  /* f may point into e: each entry read before it is written */
            pair(lo[t + i], hi[t + i], est[t + i], half[t + i], &a, &b);
            e[t + i] = a * a * np_max(f[0][i] - f[2][i], 0.0);
            e[k + t + i] = b * b * np_max(f[1][i] - f[3][i], 0.0);
        }
    }
}

/* Every round of the solve on s, until every point is solved; returns the
 * number of rounds that evaluated g, one `interval_mass` call each in
 * kernel_reference.numpy_rounds. */
int64_t tn_solve(double *s)
{
    int64_t rounds = 0;
    for (; tn_round(s); rounds++)
        tn_mass(s);
    return rounds;
}
