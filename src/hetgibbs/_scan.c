/*
 * One systematic scan of exact coordinate draws from a cMLG density
 * proportional to exp(alpha' H x - kappa' exp(H x)), given as (HT, alpha,
 * kappa) with HT = H'; the curvature pass squares HT itself.
 *
 * Each coordinate's conditional exp(c_j t - sum_i kappa_i exp(H_ij t + ...))
 * is log-concave and is drawn by adaptive rejection sampling with the
 * envelope algorithm of hetgibbs.logconcave.sample_logconcave, step for
 * step: the current value's tangent and curvature from one pass over the
 * rows, one capped Newton step, seeds one curvature scale either side, the
 * walk-out, the underflow anchor and the rejection cap.  Uniforms come from
 * numpy's bit generator through next_double, in the order in which the
 * Python sampler calls rng.random(), so both consume the same stream.
 *
 * Built with -ffp-contract=off and without -ffast-math: every sum runs
 * serially in a fixed order.  The row terms exp(w_i + h_ij d) come from
 * hg_exp, an exponential made of IEEE adds, multiplies and selects only,
 * in a loop of their own that is compiled once per vector width and picked
 * at load time (target_clones).  Each lane of every width rounds exactly as
 * the scalar code does, so the draws depend neither on the CPU's vector
 * width nor on the libm's exp.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* status codes; hetgibbs/_scan.py maps each to its LogConcaveError message */
enum {
    SCAN_OK = 0,
    SCAN_NO_FINITE_REGION,
    SCAN_NO_TANGENT_LEFT,
    SCAN_NO_TANGENT_RIGHT,
    SCAN_NO_POINTS,
    SCAN_UNBOUNDED_LEFT,
    SCAN_UNBOUNDED_RIGHT,
    SCAN_EMPTY_ENVELOPE,
    SCAN_NO_ANCHOR,
    SCAN_TOO_MANY_REJECTIONS,
    SCAN_NO_MEMORY,
};

#define MAX_REJECTIONS 200
#define MAX_BRACKET_STEPS 200
#define NEWTON_CAP 3.0
#define SEED_GAP 0.3
/* at most 7 seed tangents, then at most one more per rejection */
#define MAX_TANGENTS 256

/* Python's max(a, b) and min(a, b): the first argument unless the second
   compares strictly greater (smaller) */
#define PYMAX(a, b) ((b) > (a) ? (b) : (a))
#define PYMIN(a, b) ((b) < (a) ? (b) : (a))

/* ---------------------------------------------------------- exponential */

/* one build of the exp loop per vector width, chosen when the library is
   loaded (an ifunc, hence glibc); the plain loop elsewhere, or with
   -DHG_NO_CLONES, gives the same bits */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute) && !defined(HG_NO_CLONES)
#if __has_attribute(target_clones)
#define HG_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef HG_CLONES
#define HG_CLONES
#endif

#define EXP_SHIFT 0x1.8p52          /* adding it rounds to an integer */
#define EXP_INV_LN2 0x1.71547652b82fep0
#define EXP_LN2_HI 0x1.62e42fee00000p-1 /* n * LN2_HI is exact for |n| < 2^21 */
#define EXP_LN2_LO 0x1.a39ef35793c76p-33
#define EXP_MAX 709.782712893384    /* log(DBL_MAX), rounded down */
#define EXP_MIN -745.2              /* below log(2^-1075): rounds to 0 */

static inline uint64_t as_u64(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u;
}

static inline double as_f64(uint64_t u)
{
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* 2^m for an integer-valued m with -1022 <= m <= 1023 */
static inline double pow2(double m)
{
    return as_f64(as_u64(m + (EXP_SHIFT + 1023.0)) << 52);
}

/*
 * exp(x) within 1 ulp of a correctly rounded one, from adds, multiplies
 * and selects alone.  x = n ln2 + r with |r| <= ln2/2 (Cody & Waite's
 * two-part ln2); exp(r) = 1 + r + r^2 q(r) with q a degree-9 near-minimax
 * (Chebyshev) fit to (e^r - 1 - r)/r^2 on |r| <= 0.35, relative error
 * 2e-17; 2^n is applied as two factors so that subnormal results round
 * once.  +inf above EXP_MAX, 0 below EXP_MIN, NaN in gives NaN out.
 */
static inline double hg_exp(double x)
{
    double n = (x * EXP_INV_LN2 + EXP_SHIFT) - EXP_SHIFT;
    double r = (x - n * EXP_LN2_HI) - n * EXP_LN2_LO;
    /* Estrin's scheme: shorter dependency chains than Horner's */
    double r2 = r * r, r4 = r2 * r2;
    double a0 = 0x1.0000000000001p-1 + 0x1.5555555555556p-3 * r;
    double a1 = 0x1.5555555553b72p-5 + 0x1.111111111091ap-7 * r;
    double a2 = 0x1.6c16c1794bd5cp-10 + 0x1.a01a01a83a3a3p-13 * r;
    double a3 = 0x1.a019b62aaa671p-16 + 0x1.71de0be80e7e8p-19 * r;
    double a4 = 0x1.2894eb03786e2p-22 + 0x1.af3cd7b3560d9p-26 * r;
    double q = ((a0 + a1 * r2) + (a2 + a3 * r2) * r4) + a4 * (r4 * r4);
    double p = 1.0 + (r + r2 * q);
    double n1 = (0.5 * n + EXP_SHIFT) - EXP_SHIFT;
    double y = p * pow2(n1) * pow2(n - n1);
    y = x > EXP_MAX ? INFINITY : y;
    y = x < EXP_MIN ? 0.0 : y;
    return y;
}

/* e_i = exp(w_i + hj_i d), or exp(w_i) when hj is NULL; e must not
   overlap w or hj */
HG_CLONES
static void exp_terms(long m, const double *restrict w, const double *restrict hj, double d,
                      double *restrict e)
{
    if (hj == NULL) {
        for (long i = 0; i < m; i++)
            e[i] = hg_exp(w[i]);
    } else {
        for (long i = 0; i < m; i++)
            e[i] = hg_exp(w[i] + hj[i] * d);
    }
}

/* out_i = exp(x_i) through the scan's own loop; out must not overlap x */
void hg_exp_array(long n, const double *x, double *out)
{
    exp_terms(n, x, NULL, 0.0, out);
}

typedef struct {
    double x, h, g;
} point_t;

typedef struct {
    double lower;
    int k;
    int stale;
    double x[MAX_TANGENTS], h[MAX_TANGENTS], g[MAX_TANGENTS];
    double z[MAX_TANGENTS + 1], logmass[MAX_TANGENTS], cdf[MAX_TANGENTS];
} hull_t;

/* one coordinate's conditional: exp(c t - sum_i exp(w_i + hj_i (t - t0))) */
typedef struct {
    long m;
    const double *hj;
    const double *w;   /* log kappa + H x at the current value of x */
    double *e;         /* the exp terms of the latest evaluation */
    double t0, cj;
    bitgen_t *rng;
    long long evals, proposals;
} coord_t;

static int finite3(double x, double h, double g)
{
    return isfinite(x) && isfinite(h) && isfinite(g);
}

static void evaluate(coord_t *c, double t, double *h, double *g)
{
    const double d = t - c->t0;
    const double *w = c->w, *hj = c->hj;
    double *e = c->e;
    double sum = 0.0, dot = 0.0;
    exp_terms(c->m, w, hj, d, e);
    for (long i = 0; i < c->m; i++) {
        sum += e[i];
        dot += e[i] * hj[i];
    }
    c->evals++;
    if (!isfinite(sum)) {
        *h = -INFINITY;
        *g = -INFINITY;
        return;
    }
    *h = c->cj * t - sum;
    *g = c->cj - dot;
}

/* ------------------------------------------------------------------ hull */

static void hull_insert(hull_t *hl, double x, double h, double g)
{
    if (!finite3(x, h, g) || hl->k >= MAX_TANGENTS)
        return;
    int i = 0;
    while (i < hl->k && hl->x[i] < x)
        i++;
    double tol = 1e-14 * (1.0 + fabs(x));
    if (i < hl->k && fabs(hl->x[i] - x) < tol)
        return;
    if (i > 0 && fabs(x - hl->x[i - 1]) < tol)
        return;
    size_t tail = (size_t)(hl->k - i) * sizeof(double);
    memmove(hl->x + i + 1, hl->x + i, tail);
    memmove(hl->h + i + 1, hl->h + i, tail);
    memmove(hl->g + i + 1, hl->g + i, tail);
    hl->x[i] = x;
    hl->h[i] = h;
    hl->g[i] = g;
    hl->k++;
    hl->stale = 1;
}

/* log of the integral of exp(linear) over a segment, from ua to ub */
static double log_segment_mass(double ua, double ub, double width)
{
    if (width <= 0.0)
        return -INFINITY;
    double d = ub - ua;
    double top = PYMAX(ua, ub);
    double ad = fabs(d);
    if (ad < 1e-12)
        return top + log(width) + log1p(-ad / 2.0);
    return top + log(width) + log(-expm1(-ad)) - log(ad);
}

static int hull_refresh(hull_t *hl)
{
    const int k = hl->k;
    double za = hl->lower;
    hl->z[0] = za;
    for (int i = 0; i < k; i++) {
        double xi = hl->x[i], hi = hl->h[i], gi = hl->g[i];
        double zb;
        if (i + 1 < k) {
            double xn = hl->x[i + 1], gn = hl->g[i + 1];
            double dg = gi - gn;
            if (dg <= 1e-13 * (fabs(gi) + fabs(gn) + 1.0))
                zb = 0.5 * (xi + xn);
            else
                zb = (hl->h[i + 1] - hi - xn * gn + xi * gi) / dg;
            zb = PYMAX(zb, xi);
            zb = PYMIN(zb, xn);
        } else {
            zb = INFINITY;
        }
        hl->z[i + 1] = zb;
        double lm;
        if (za >= zb) {
            lm = -INFINITY;
        } else if (za == -INFINITY) {
            if (gi <= 0.0)
                return SCAN_UNBOUNDED_LEFT;
            lm = hi + gi * (zb - xi) - log(gi);
        } else if (zb == INFINITY) {
            if (gi >= 0.0)
                return SCAN_UNBOUNDED_RIGHT;
            lm = hi + gi * (za - xi) - log(-gi);
        } else {
            double ua = hi + gi * (za - xi);
            double ub = hi + gi * (zb - xi);
            lm = log_segment_mass(ua, ub, zb - za);
        }
        hl->logmass[i] = lm;
        za = zb;
    }
    hl->stale = 0;
    return SCAN_OK;
}

/* draw x from the normalized envelope; *env is its log density there */
static int hull_sample(hull_t *hl, bitgen_t *rng, double *x_out, double *env)
{
    if (hl->stale) {
        int st = hull_refresh(hl);
        if (st != SCAN_OK)
            return st;
    }
    const int k = hl->k;
    double top = hl->logmass[0];
    for (int i = 1; i < k; i++)
        top = PYMAX(top, hl->logmass[i]);
    if (!isfinite(top))
        return SCAN_EMPTY_ENVELOPE;
    double acc = 0.0;
    for (int i = 0; i < k; i++) {
        acc += hg_exp(hl->logmass[i] - top);
        hl->cdf[i] = acc;
    }
    double target = rng->next_double(rng->state) * hl->cdf[k - 1];
    int i = 0;
    while (i < k && !(hl->cdf[i] > target))
        i++;
    if (i == k) { /* the product rounded up to the total */
        i = 0;
        while (hl->cdf[i] < hl->cdf[k - 1])
            i++;
    }
    double za = hl->z[i], zb = hl->z[i + 1];
    double xt = hl->x[i], h = hl->h[i], g = hl->g[i];
    double r = rng->next_double(rng->state);
    r = PYMAX(r, 1e-300);
    r = PYMIN(r, 1.0 - 1e-16);
    double x;
    if (za == -INFINITY) {
        x = zb + log(r) / g;
    } else if (zb == INFINITY) {
        x = za + log(r) / g;
    } else {
        double d = g * (zb - za);
        if (fabs(d) < 1e-12)
            x = za + r * (zb - za);
        else if (d > 0.0)
            x = za + (d + log(r + (1.0 - r) * hg_exp(-d))) / g;
        else
            x = za + log1p(r * expm1(d)) / g;
        x = PYMAX(x, za);
        x = PYMIN(x, zb);
    }
    *x_out = x;
    *env = h + g * (x - xt);
    return SCAN_OK;
}

/* --------------------------------------------------------- seed tangents */

/* tangent at x, pulled back toward x0 while the density underflows */
static int probe_finite(coord_t *c, double x, double x0, point_t *out)
{
    for (int it = 0; it < 120; it++) {
        double h, g;
        evaluate(c, x, &h, &g);
        if (isfinite(h) && isfinite(g)) {
            out->x = x;
            out->h = h;
            out->g = g;
            return SCAN_OK;
        }
        x = x0 + 0.5 * (x - x0);
        if (fabs(x - x0) < 1e-300)
            break;
    }
    return SCAN_NO_FINITE_REGION;
}

/* double the step from pt until the slope points back toward x0, then add
   an anchor beyond; appends one or two points to pts */
static int walk_out(coord_t *c, point_t pt, double direction, double scale, double x0,
                    point_t *pts, int *n)
{
    point_t p = pt;
    double step = scale;
    int found = 0;
    for (int it = 0; it < MAX_BRACKET_STEPS; it++) {
        int st = probe_finite(c, p.x + direction * step, x0, &p);
        if (st != SCAN_OK)
            return st;
        step *= 2.0;
        if (direction * p.g < 0.0) {
            found = 1;
            break;
        }
    }
    if (!found)
        return direction < 0.0 ? SCAN_NO_TANGENT_LEFT : SCAN_NO_TANGENT_RIGHT;
    pts[(*n)++] = p;
    double span = PYMAX(fabs(p.x - pt.x), scale);
    point_t anchor;
    if (probe_finite(c, p.x + direction * 4.0 * span, x0, &anchor) == SCAN_OK)
        pts[(*n)++] = anchor;
    return SCAN_OK;
}

/* Python's tuple order on (x, h, g) */
static int point_less(const point_t *a, const point_t *b)
{
    if (a->x != b->x)
        return a->x < b->x;
    if (a->h != b->h)
        return a->h < b->h;
    return a->g < b->g;
}

static int initial_points(coord_t *c, double lower, double x0, double scale,
                          int have_first, double h0, double g0, point_t *pts, int *n)
{
    int st;
    *n = 0;
    if (x0 < lower) {
        x0 = lower + scale;
        have_first = 0;
    }
    if (have_first && isfinite(h0) && isfinite(g0)) {
        pts[0].x = x0;
        pts[0].h = h0;
        pts[0].g = g0;
    } else if ((st = probe_finite(c, x0, x0, &pts[0])) != SCAN_OK) {
        return st;
    }
    *n = 1;
    double xc = pts[0].x, gc = pts[0].g;
    double cap = NEWTON_CAP * scale;
    double step = gc * scale * scale;
    step = PYMAX(step, -cap);
    step = PYMIN(step, cap);
    double m = xc + step;
    double seeds[2] = {m - scale, m + scale};
    if (seeds[0] <= lower) {
        seeds[0] = lower;
        seeds[1] = PYMAX(seeds[1], lower + scale);
    }
    for (int s = 0; s < 2; s++) {
        if (fabs(seeds[s] - xc) > SEED_GAP * scale) {
            if ((st = probe_finite(c, seeds[s], xc, &pts[*n])) != SCAN_OK)
                return st;
            (*n)++;
        }
    }
    point_t leftmost = pts[0], rightmost = pts[0];
    for (int i = 1; i < *n; i++) {
        if (point_less(&pts[i], &leftmost))
            leftmost = pts[i];
        if (point_less(&rightmost, &pts[i]))
            rightmost = pts[i];
    }
    if (lower == -INFINITY && !(leftmost.g > 0.0)) {
        if ((st = walk_out(c, leftmost, -1.0, scale, xc, pts, n)) != SCAN_OK)
            return st;
    }
    if (!(rightmost.g < 0.0)) {
        if ((st = walk_out(c, rightmost, 1.0, scale, xc, pts, n)) != SCAN_OK)
            return st;
    }
    return SCAN_OK;
}

/* ------------------------------------------------------------ one draw */

static int draw(coord_t *c, hull_t *hl, double lower, double x0, double scale,
                int have_first, double h0, double g0, double *out)
{
    point_t pts[7];
    int n, st;
    if (!(scale > 0.0) || !isfinite(scale))
        scale = 1.0;
    hl->lower = lower;
    hl->k = 0;
    hl->stale = 1;
    if ((st = initial_points(c, lower, x0, scale, have_first, h0, g0, pts, &n)) != SCAN_OK)
        return st;
    for (int i = 0; i < n; i++)
        hull_insert(hl, pts[i].x, pts[i].h, pts[i].g);
    if (hl->k == 0)
        return SCAN_NO_POINTS;

    for (int it = 0; it < MAX_REJECTIONS; it++) {
        double x, env, h, g;
        c->proposals++;
        if ((st = hull_sample(hl, c->rng, &x, &env)) != SCAN_OK)
            return st;
        evaluate(c, x, &h, &g);
        if (isfinite(h) && isfinite(g)) {
            double u = c->rng->next_double(c->rng->state);
            if (log(PYMAX(u, 1e-300)) <= h - env) {
                *out = x;
                return SCAN_OK;
            }
            hull_insert(hl, x, h, g);
            continue;
        }
        /* candidate in an underflowed region: walk back toward the nearest
           tangent until the density is finite and anchor the tail there */
        double xn = hl->x[0];
        for (int i = 1; i < hl->k; i++)
            if (fabs(hl->x[i] - x) < fabs(xn - x))
                xn = hl->x[i];
        double xx = x;
        int added = 0;
        for (int a = 0; a < 200; a++) {
            xx = xn + 0.5 * (xx - xn);
            if (fabs(xx - xn) < 1e-12 * (1.0 + fabs(xn)))
                break;
            double h2, g2;
            evaluate(c, xx, &h2, &g2);
            if (isfinite(h2) && isfinite(g2)) {
                hull_insert(hl, xx, h2, g2);
                added = 1;
                break;
            }
        }
        if (!added)
            return SCAN_NO_ANCHOR;
    }
    return SCAN_TOO_MANY_REJECTIONS;
}

/* ------------------------------------------------------------ the scan */

/*
 * HT is H', k x m, row-major; alpha and kappa have m entries.  x (k entries)
 * holds the current value on entry and the new draw on return.  info[0]
 * receives the failing coordinate; info[1], info[2] and info[3] are
 * incremented by the coordinate draws started, the log-density evaluations
 * made and the envelope proposals drawn.  Returns SCAN_OK or a failure code.
 */
int hg_scan_cmlg(long k, long m, const double *HT, const double *alpha, const double *kappa,
                 double *x, double lower, bitgen_t *rng, long long *info)
{
    double *w = malloc((size_t)m * sizeof(double));
    double *e = malloc((size_t)m * sizeof(double));
    hull_t *hl = malloc(sizeof(hull_t));
    int st = SCAN_OK;
    if (w == NULL || e == NULL || hl == NULL) {
        st = SCAN_NO_MEMORY;
        goto done;
    }
    for (long i = 0; i < m; i++)
        w[i] = 0.0;
    for (long j = 0; j < k; j++) {
        const double *hj = HT + j * m;
        for (long i = 0; i < m; i++)
            w[i] += x[j] * hj[i];
    }
    for (long i = 0; i < m; i++)
        w[i] = log(kappa[i]) + w[i];

    coord_t c = {.m = m, .w = w, .e = e, .rng = rng, .evals = 0, .proposals = 0};
    /* e holds exp(w) at the current x once a coordinate is accepted: the
       accepted candidate's terms exp(w_i + hj_i d) are bit for bit the
       terms at the updated w_i = w_i + hj_i d */
    int e_current = 0;
    for (long j = 0; j < k; j++) {
        const double *hj = HT + j * m;
        double cj = 0.0;
        for (long i = 0; i < m; i++)
            cj += hj[i] * alpha[i];
        if (!e_current)
            exp_terms(m, w, NULL, 0.0, e);
        double t0 = x[j];
        double s0 = 0.0, dot = 0.0, curv = 0.0;
        for (long i = 0; i < m; i++) {
            s0 += e[i];
            dot += e[i] * hj[i];
            curv += e[i] * (hj[i] * hj[i]);
        }
        double scale = (isfinite(curv) && curv > 0.0) ? 1.0 / sqrt(curv) : 1.0;
        scale = PYMIN(scale, 1e3);
        c.hj = hj;
        c.t0 = t0;
        c.cj = cj;
        info[1]++;
        double t_new;
        st = draw(&c, hl, lower, t0, scale, isfinite(s0), cj * t0 - s0, cj - dot, &t_new);
        if (st != SCAN_OK) {
            info[0] = j;
            break;
        }
        double d = t_new - t0;
        for (long i = 0; i < m; i++)
            w[i] = w[i] + hj[i] * d;
        x[j] = t_new;
        e_current = 1;
    }
    info[2] += c.evals;
    info[3] += c.proposals;
done:
    free(w);
    free(e);
    free(hl);
    return st;
}
