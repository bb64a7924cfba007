/*
 * The three loops under repro's push kernels, in C99: the scan phase's
 * asynchronous sweep (also, active-only, SpeedPPR's refinement) and
 * epoch-end extrapolation (paper Algorithm 3), and the range scatter
 * under every local push.
 *
 * Built and loaded by repro/core/kernels.py on first import, with
 * -ffp-contract=off: every multiply and add below rounds on its own, so
 * the results are those of the same loop written in Python, bit for
 * bit, on every architecture.  Callers check dtypes, contiguity,
 * lengths and writability, and that every target index is inside the
 * vector it adds into; only repro_scatter_ranges checks anything here
 * (that its ranges lie inside the targets array).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/*
 * One asynchronous sweep: push every node holding residue, in ascending
 * id, each push reading the residues as the pushes before it left them.
 *
 * With threshold NULL a node v is pushed when r = residue[v] != 0
 * (either sign); otherwise only when r > threshold[v] (the active-only
 * scan, "push r > d_v * r_max").  A pushed node takes its residue off
 * first, so a self-loop re-deposits; settles settled[v] = alpha * r into
 * reserve[v]; and adds (1 - alpha) * r / deg to each out-neighbour in
 * CSR order.  A node without out-edges adds (1 - alpha) * r to the
 * returned dead-end mass instead, which the caller routes by policy.
 * settled[v] is 0 for every node not pushed.
 *
 * counts[0] receives the nodes pushed, counts[1] the sum of their
 * out-degrees.
 */
double repro_async_sweep(
    int64_t n,
    const int64_t *indptr,
    const int32_t *indices,
    double alpha,
    double *residue,
    double *reserve,
    double *settled,
    const double *threshold,
    int64_t *counts)
{
    const double scale = 1.0 - alpha;
    double dead_mass = 0.0;
    int64_t pushes = 0;
    int64_t edges = 0;
    for (int64_t v = 0; v < n; ++v) {
        const double r = residue[v];
        if (threshold == NULL ? r == 0.0 : !(r > threshold[v])) {
            settled[v] = 0.0;
            continue;
        }
        residue[v] = 0.0;
        settled[v] = alpha * r;
        reserve[v] += settled[v];
        const int64_t lo = indptr[v];
        const int64_t hi = indptr[v + 1];
        ++pushes;
        if (lo == hi) {
            dead_mass += scale * r;
            continue;
        }
        edges += hi - lo;
        const double share = (scale * r) / (double)(hi - lo);
        for (int64_t e = lo; e < hi; ++e) {
            residue[indices[e]] += share;
        }
    }
    counts[0] = pushes;
    counts[1] = edges;
    return dead_mass;
}

/*
 * The local push's one move: for j = 0 .. num - 1 in order, and each e
 * of [starts[j], starts[j] + counts[j]) in order,
 *
 *   out[targets[e]] += values[j].
 *
 * Duplicate targets accumulate, one add at a time in that order.
 * Returns 1, having written nothing, when some range has a negative
 * start or count or reaches past targets[size - 1]; 0 otherwise.
 */
int repro_scatter_ranges(
    int64_t num,
    const int64_t *starts,
    const int64_t *counts,
    int64_t size,
    const int32_t *targets,
    const double *values,
    double *out)
{
    for (int64_t j = 0; j < num; ++j) {
        if (starts[j] < 0 || counts[j] < 0 || starts[j] > size - counts[j]) {
            return 1;
        }
    }
    for (int64_t j = 0; j < num; ++j) {
        const double value = values[j];
        const int32_t *range = targets + starts[j];
        for (int64_t e = 0; e < counts[j]; ++e) {
            out[range[e]] += value;
        }
    }
    return 0;
}

/* The largest double below a positive finite x. */
static double step_towards_zero(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    --bits;
    memcpy(&x, &bits, sizeof bits);
    return x;
}

/*
 * Repeat a window of pushes k more times (see extrapolate_window in
 * kernels.py for why this is valid).  With fall = r_before - residue:
 *
 *   pass 1: k = the minimum of residue / fall over the entries that
 *           moved towards zero (the ratio is >= 0; inf and nan never
 *           bind), stepped one float towards zero, and the sign test
 *           sum(sign(residue) * fall) > 0;
 *   pass 2: residue -= k * fall, reserve += k * settled.
 *
 * Returns 1 when pass 2 ran, 0 when k is not positive or the sign test
 * fails (nothing is written).  settled and r_before are read only.
 */
int repro_extrapolate_window(
    int64_t n,
    double *reserve,
    double *residue,
    const double *settled,
    const double *r_before)
{
    double k = INFINITY;
    double signed_fall = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const double r = residue[i];
        const double fall = r_before[i] - r;
        const double ratio = r / fall;
        if (ratio >= 0.0 && ratio < k) {
            k = ratio;
        }
        if (r > 0.0) {
            signed_fall += fall;
        } else if (r < 0.0) {
            signed_fall -= fall;
        }
    }
    if (!(k > 0.0 && k < INFINITY)) {
        return 0;
    }
    k = step_towards_zero(k);
    if (!(k > 0.0 && signed_fall > 0.0)) {
        return 0;
    }
    for (int64_t i = 0; i < n; ++i) {
        const double fall = r_before[i] - residue[i];
        residue[i] -= k * fall;
        reserve[i] += k * settled[i];
    }
    return 1;
}
