/*
 * The ``c`` kernel: Alg. 1's per-voxel chain (footprint gather, theta1 dot,
 * surrogate solve, delta scatter) for the full-image ICD sweep and for one
 * SuperVoxel visit, and the four preparation passes (the system matrix
 * build, the updater's fused products, the forward projection and the FBP
 * backprojection).  repro/core/kernels.py compiles this file on first use
 * and calls it through ctypes; it validates every array it passes here,
 * except a SuperVoxel's tables, which repro/core/supervoxel.py checks
 * against the matrix when it builds the SuperVoxel.  Nothing here keeps
 * static state, so two threads may run any entry point at once.
 *
 * The arithmetic is the NumPy or scipy code's it replaces, operation for
 * operation (the bit-exactness contract in kernels.py): every sum runs
 * strictly left to right from its first term, the q-GGMRF ratio calls libm
 * ``pow`` one scalar at a time, and float32 matrix values widen to double
 * before each product.  Built with -ffp-contract=off so no multiply-add is
 * fused.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define KIND_QUADRATIC 0
#define KIND_QGGMRF 1

/* Mirrors kernels.py's _CContext field for field. */
struct repro_ctx {
    int64_t n_voxels;
    const int32_t *indptr;  /* CSC column offsets, n_voxels + 1 */
    const int32_t *indices; /* CSC row indices into the error sinogram */
    const float *wa;        /* fused w * A products, CSC order */
    const float *a;         /* A values, CSC order */
    const int64_t *nb_idx;  /* (n_voxels, 8) neighbours, padded with the voxel itself */
    const double *nb_w;     /* (n_voxels, 8) neighbour weights, 0.0 in padded slots */
    const double *theta2;   /* per-voxel sum w * A^2 */
    uint64_t view_recip;    /* ceil(2^40 / n_channels), see svb_cell */
    int32_t kind;           /* KIND_QUADRATIC or KIND_QGGMRF */
    int32_t positivity;
    double tsig, c0, hq, p; /* QGGMRFPrior.surrogate_coeffs() */
    double qc;              /* QuadraticPrior's constant influence ratio */
};

/* Zero-skipping test (section 2.1): the voxel and all its neighbours are zero. */
static int skip_voxel(const struct repro_ctx *c, const double *x, int64_t j)
{
    const int64_t *nb = c->nb_idx + 8 * j;
    if (x[j] != 0.0)
        return 0;
    for (int k = 0; k < 8; k++)
        if (x[nb[k]] != 0.0)
            return 0;
    return 1;
}

/* theta1 = -sum wa * e over voxel j's footprint in the global error
 * sinogram e, where each entry sits at its own row. */
static double theta1(const struct repro_ctx *c, int64_t j, const double *e)
{
    const float *wa = c->wa + c->indptr[j];
    const int32_t *rows = c->indices + c->indptr[j];
    int64_t ln = c->indptr[j + 1] - c->indptr[j];
    double acc;
    if (ln == 0)
        return 0.0;
    acc = (double)wa[0] * e[rows[0]];
    for (int64_t k = 1; k < ln; k++)
        acc += (double)wa[k] * e[rows[k]];
    return -acc;
}

/* e -= A_j * delta over voxel j's footprint (same addressing as theta1). */
static void scatter(const struct repro_ctx *c, int64_t j, double *e, double delta)
{
    const float *a = c->a + c->indptr[j];
    const int32_t *rows = c->indices + c->indptr[j];
    int64_t ln = c->indptr[j + 1] - c->indptr[j];
    for (int64_t k = 0; k < ln; k++)
        e[rows[k]] = e[rows[k]] - (double)a[k] * delta;
}

/* A row's cell in an SV's flat SVB: the row minus its view's shift, the
 * view found as (row * recip) >> 40, which kernels.py checks equals
 * row / n_channels over every row of the matrix. */
static inline int64_t svb_cell(int64_t row, const int64_t *shift, uint64_t recip)
{
    return row - shift[((uint64_t)row * recip) >> 40];
}

/* theta1 over voxel j's footprint in an SVB with view shifts `shift`. */
static double theta1_svb(const struct repro_ctx *c, int64_t j, const int64_t *shift,
                         const double *svb)
{
    const float *wa = c->wa + c->indptr[j];
    const int32_t *rows = c->indices + c->indptr[j];
    int64_t ln = c->indptr[j + 1] - c->indptr[j];
    uint64_t recip = c->view_recip;
    double acc;
    if (ln == 0)
        return 0.0;
    acc = (double)wa[0] * svb[svb_cell(rows[0], shift, recip)];
    for (int64_t k = 1; k < ln; k++)
        acc += (double)wa[k] * svb[svb_cell(rows[k], shift, recip)];
    return -acc;
}

/* svb -= A_j * delta over voxel j's footprint (same addressing as theta1_svb). */
static void scatter_svb(const struct repro_ctx *c, int64_t j, const int64_t *shift,
                        double *svb, double delta)
{
    const float *a = c->a + c->indptr[j];
    const int32_t *rows = c->indices + c->indptr[j];
    int64_t ln = c->indptr[j + 1] - c->indptr[j];
    uint64_t recip = c->view_recip;
    for (int64_t k = 0; k < ln; k++) {
        int64_t i = svb_cell(rows[k], shift, recip);
        svb[i] = svb[i] - (double)a[k] * delta;
    }
}

/* The surrogate solve over the padded width-8 neighbourhood. */
static double solve(const struct repro_ctx *c, int64_t j, double v, double th1,
                    const double *x)
{
    const int64_t *nb = c->nb_idx + 8 * j;
    const double *w = c->nb_w + 8 * j;
    double s1 = 0.0, s2 = 0.0, denom, u;
    for (int k = 0; k < 8; k++) {
        double xk = x[nb[k]];
        double btl;
        if (c->kind == KIND_QGGMRF) {
            double r = fabs(v - xk) / c->tsig;
            double rq = pow(r, c->p);
            double t = 1.0 + rq;
            btl = w[k] * ((1.0 + c->hq * rq) / (c->c0 * (t * t)));
        } else {
            btl = w[k] * c->qc;
        }
        s1 += btl;
        s2 += btl * (xk - v);
    }
    denom = c->theta2[j] + 2.0 * s1;
    if (denom <= 0.0)
        return v;
    u = v + (-th1 + 2.0 * s2) / denom;
    if (c->positivity && u < 0.0)
        u = 0.0;
    return u;
}

/* Visit the voxels order[0..n) against the global error sinogram e.
 * Returns the number of updates (zero-skipped voxels excluded), or -1 if
 * an order entry is out of range, in which case nothing was touched. */
int64_t repro_sweep(const struct repro_ctx *c, const int64_t *order, int64_t n,
                    double *x, double *e, int32_t zero_skip)
{
    int64_t updates = 0;
    for (int64_t i = 0; i < n; i++)
        if (order[i] < 0 || order[i] >= c->n_voxels)
            return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = order[i];
        double v, u, delta;
        if (zero_skip && skip_voxel(c, x, j))
            continue;
        v = x[j];
        u = solve(c, j, v, theta1(c, j, e), x);
        updates++;
        delta = u - v;
        if (delta != 0.0) {
            x[j] = u;
            scatter(c, j, e, delta);
        }
    }
    return updates;
}

/* Visit a SuperVoxel's members order[0..n) against its flat SVB in
 * bulk-synchronous waves of `width`: every member of a wave proposes from
 * the pre-wave x and SVB, then the proposals apply in wave order.  Member m
 * is voxel voxels[m]; its column's row r of view v sits at SVB cell
 * r - shift[v] (the SV's view shift table, n_views entries).
 * Returns the number of updates and stores the skipped count and the sum of
 * |delta| (in apply order); -1 if width < 1 or an order entry is out of
 * range (nothing touched), -2 if scratch memory ran out. */
int64_t repro_sv_visit(const struct repro_ctx *c, const int64_t *voxels,
                       const int64_t *shift, int64_t n_members,
                       const int64_t *order, int64_t n, double *x, double *svb,
                       int32_t zero_skip, int64_t width, int64_t *skipped,
                       double *total_abs_delta)
{
    int64_t updates = 0, skips = 0, cap;
    double tad = 0.0;
    double *prop;
    int64_t *kept;
    if (width < 1)
        return -1;
    for (int64_t i = 0; i < n; i++)
        if (order[i] < 0 || order[i] >= n_members)
            return -1;
    cap = width < n ? width : (n > 0 ? n : 1);
    prop = malloc(cap * sizeof *prop);
    kept = malloc(cap * sizeof *kept);
    if (prop == NULL || kept == NULL) {
        free(prop);
        free(kept);
        return -2;
    }
    for (int64_t start = 0; start < n; start += width) {
        int64_t stop = n - start < width ? n : start + width;
        int64_t n_kept = 0;
        for (int64_t i = start; i < stop; i++) {
            int64_t m = order[i], j = voxels[m];
            if (zero_skip && skip_voxel(c, x, j)) {
                skips++;
                continue;
            }
            prop[n_kept] = solve(c, j, x[j], theta1_svb(c, j, shift, svb), x);
            kept[n_kept++] = m;
        }
        for (int64_t i = 0; i < n_kept; i++) {
            int64_t m = kept[i], j = voxels[m];
            double delta = prop[i] - x[j];
            tad += fabs(delta);
            updates++;
            if (delta != 0.0) {
                x[j] = prop[i];
                scatter_svb(c, j, shift, svb, delta);
            }
        }
    }
    free(prop);
    free(kept);
    *skipped = skips;
    *total_abs_delta = tad;
    return updates;
}

/* ------------------------------------------------------------------ */
/* Preparation: each pass reproduces the NumPy or scipy code that     */
/* stays its oracle where this library does not run.                  */
/* ------------------------------------------------------------------ */

/* One view's pixel footprint, trapezoid_cdf's scalars for widths w1, w2. */
struct footprint {
    double cos_t, sin_t, half_span, peak, m, big, ramp, wmin_sq;
    int64_t span; /* channels a footprint may touch from its first one */
};

/* trapezoid_cdf(t, w1, w2, h) at one offset t, where base = 0.5 * h * h:
 * the plateau part plus the ramp part (0.0 for a box), signed by t. */
static inline double footprint_cdf(const struct footprint *f, double t, double base)
{
    double u = fabs(t);
    double g = f->peak * (u <= f->m ? u : f->m), r = 0.0, sign;
    if (f->ramp != 0.0) {
        double s = u < f->m ? f->m : (u > f->big ? f->big : u);
        double d = f->big - s;
        r = f->ramp * (f->wmin_sq - d * d);
    }
    g = g + r;
    sign = t > 0.0 ? 1.0 : (t < 0.0 ? -1.0 : 0.0);
    return base + sign * g;
}

/* build_system_matrix's loop, written straight to CSC.  Column j is pixel
 * (j / n, j % n), centred at (xs[j % n], ys[j / n]); view v's cosine, sine,
 * box widths and channel span come from NumPy scalars.  A column holds, view
 * by view and each view's channels upward (the order coo.tocsc() gives),
 * every channel on the detector whose value
 * (trapezoid_cdf(hi - t) - trapezoid_cdf(lo - t)) / spacing exceeds tol, as
 * row v * n_chan + c and the value rounded to float32.  Fills indptr
 * (n * n + 1) and at most cap entries of indices and data; returns the
 * entry count, -1 past cap (nothing beyond it written), -2 for a view whose
 * widths are both zero (trapezoid_cdf's ValueError), -3 without memory. */
int64_t repro_build_csc(int64_t n, const double *xs, const double *ys, int64_t n_views,
                        const double *cos_v, const double *sin_v, const double *w1_v,
                        const double *w2_v, const int64_t *span_v, int64_t n_chan,
                        double spacing, double h, double tol, int64_t cap,
                        int32_t *indptr, int32_t *indices, float *data)
{
    double half_chan = (double)n_chan / 2.0, base = 0.5 * h * h;
    int64_t pos = 0;
    struct footprint *fp = malloc((n_views > 0 ? n_views : 1) * sizeof *fp);
    if (fp == NULL)
        return -3;
    for (int64_t v = 0; v < n_views; v++) {
        struct footprint *f = fp + v;
        double w1 = w1_v[v], w2 = w2_v[v];
        double wmax = w2 > w1 ? w2 : w1, wmin = w2 < w1 ? w2 : w1;
        if (wmax <= 0.0) {
            free(fp);
            return -2;
        }
        f->cos_t = cos_v[v];
        f->sin_t = sin_v[v];
        f->half_span = 0.5 * (w1 + w2);
        f->peak = h * h / wmax;
        f->m = 0.5 * (wmax - wmin);
        f->big = 0.5 * (wmax + wmin);
        if (wmin <= 1e-12 * wmax)
            wmin = 0.0;
        f->ramp = wmin > 0.0 ? f->peak / (2.0 * wmin) : 0.0;
        f->wmin_sq = wmin * wmin;
        f->span = span_v[v];
    }
    indptr[0] = 0;
    for (int64_t j = 0; j < n * n; j++) {
        double x = xs[j % n], y = ys[j / n];
        for (int64_t v = 0; v < n_views; v++) {
            const struct footprint *f = fp + v;
            double t = x * f->cos_t + y * f->sin_t;
            int64_t first = (int64_t)floor((t - f->half_span) / spacing + half_chan);
            if (f->span > cap - pos) {
                free(fp);
                return -1;
            }
            for (int64_t k = 0; k < f->span; k++) {
                int64_t c = first + k;
                double lo, hi, val;
                if (c < 0 || c >= n_chan)
                    continue;
                lo = ((double)c - half_chan) * spacing;
                hi = lo + spacing;
                val = (footprint_cdf(f, hi - t, base) - footprint_cdf(f, lo - t, base)) / spacing;
                if (val > tol) {
                    indices[pos] = (int32_t)(v * n_chan + c);
                    data[pos++] = (float)val;
                }
            }
        }
        indptr[j + 1] = (int32_t)pos;
    }
    free(fp);
    return pos;
}

/* One column block of SliceUpdater's build over n stored entries (rows,
 * a): p = w[row] * a, stored rounded to float32 as wa, and p * a, theta2's
 * term, stored in prod.  Returns 0, or -1 at the first row outside
 * w[0..n_rows) (the entries before it written). */
int64_t repro_fill_products(const int32_t *rows, const float *a, int64_t n,
                            const double *w, int64_t n_rows, float *wa, double *prod)
{
    for (int64_t k = 0; k < n; k++) {
        double p;
        if (rows[k] < 0 || rows[k] >= n_rows)
            return -1;
        p = w[rows[k]] * (double)a[k];
        wa[k] = (float)p;
        prod[k] = p * (double)a[k];
    }
    return 0;
}

/* y += A x for the CSC matrix (indptr, indices, a) of n_cols columns over
 * n_rows rows and nnz stored entries: column by column, down each column,
 * as scipy's csc_matvec runs over its float64 copy of a (y starts at
 * zero).  Returns 0, or -1 at the first column whose offsets or rows fall
 * outside the matrix (y then partly summed). */
int64_t repro_csc_matvec(int64_t n_cols, int64_t n_rows, int64_t nnz,
                         const int32_t *indptr, const int32_t *indices, const float *a,
                         const double *x, double *y)
{
    for (int64_t j = 0; j < n_cols; j++) {
        int64_t lo = indptr[j], hi = indptr[j + 1];
        double xj = x[j];
        if (lo < 0 || hi < lo || hi > nnz)
            return -1;
        for (int64_t k = lo; k < hi; k++) {
            int32_t i = indices[k];
            if (i < 0 || i >= n_rows)
                return -1;
            y[i] += (double)a[k] * xj;
        }
    }
    return 0;
}

/* np.interp(c, arange(n), f, left=0.0, right=0.0) at one point, branch for
 * branch as numpy's arr_interp runs it: on the integer grid every slope
 * (f[j+1] - f[j]) / (j + 1 - j) is f[j+1] - f[j], and j = floor(c). */
static double interp_grid(double c, const double *f, int64_t n)
{
    int64_t j;
    double slope, r;
    if (isnan(c))
        return n == 1 ? f[0] : c; /* numpy's one-point grid compares instead */
    if (c < 0.0 || c > (double)(n - 1))
        return 0.0;
    j = (int64_t)c;
    if (j == n - 1 || (double)j == c)
        return f[j];
    slope = f[j + 1] - f[j];
    r = slope * (c - (double)j) + f[j];
    if (isnan(r)) {
        r = slope * (c - (double)(j + 1)) + f[j + 1];
        if (isnan(r) && f[j] == f[j + 1])
            r = f[j];
    }
    return r;
}

/* fbp_reconstruct's backprojection: recon[p] is the sum, from 0.0 and in
 * view order, of view v's filtered row (filtered + v * n_chan) interpolated
 * at the pixel's channel coordinate (x[p] * cos_v[v] + y[p] * sin_v[v]) /
 * spacing + center. */
void repro_backproject(int64_t n_pix, const double *x, const double *y, int64_t n_views,
                       const double *cos_v, const double *sin_v, const double *filtered,
                       int64_t n_chan, double spacing, double center, double *recon)
{
    for (int64_t p = 0; p < n_pix; p++) {
        double acc = 0.0;
        for (int64_t v = 0; v < n_views; v++) {
            double c = (x[p] * cos_v[v] + y[p] * sin_v[v]) / spacing + center;
            acc += interp_grid(c, filtered + v * n_chan, n_chan);
        }
        recon[p] = acc;
    }
}
