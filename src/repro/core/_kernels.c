/*
 * The five loops under repro's push kernels, in C99: the scan phase's
 * asynchronous sweep and epoch-end extrapolation (paper Algorithm 3),
 * SpeedPPR's refinement (passes of the active-only scan), the range
 * scatter under every local push, and the walk-index read of Eq. 13.
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
 * Push node v, which holds r: take its residue off first, so a
 * self-loop re-deposits; settle alpha * r into reserve[v]; and add
 * (1 - alpha) * r / deg to each out-neighbour in CSR order.  A node
 * without out-edges adds (1 - alpha) * r to *dead_mass instead.
 * Returns v's out-degree.
 */
static inline int64_t push_node(
    const int64_t *indptr,
    const int32_t *indices,
    double alpha,
    double *residue,
    double *reserve,
    int64_t v,
    double r,
    double *dead_mass)
{
    const double scale = 1.0 - alpha;
    residue[v] = 0.0;
    reserve[v] += alpha * r;
    const int64_t lo = indptr[v];
    const int64_t hi = indptr[v + 1];
    if (lo == hi) {
        *dead_mass += scale * r;
        return 0;
    }
    const double share = (scale * r) / (double)(hi - lo);
    for (int64_t e = lo; e < hi; ++e) {
        residue[indices[e]] += share;
    }
    return hi - lo;
}

/*
 * One asynchronous sweep: push every node holding residue (either
 * sign), in ascending id, each push reading the residues as the pushes
 * before it left them.  settled[v] receives alpha * r for a pushed node
 * and 0 for every other.  Returns the dead-end mass, which the caller
 * routes by policy.
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
    int64_t *counts)
{
    double dead_mass = 0.0;
    int64_t pushes = 0;
    int64_t edges = 0;
    for (int64_t v = 0; v < n; ++v) {
        const double r = residue[v];
        if (r == 0.0) {
            settled[v] = 0.0;
            continue;
        }
        settled[v] = alpha * r;
        edges += push_node(indptr, indices, alpha, residue, reserve, v, r,
                           &dead_mass);
        ++pushes;
    }
    counts[0] = pushes;
    counts[1] = edges;
    return dead_mass;
}

/* Where repro_refine sends dead-end mass; the order of _DEAD_END_CODES
 * in kernels.py. */
enum { REDIRECT_TO_SOURCE = 0, UNIFORM_TELEPORT = 1, SELF_LOOP = 2 };

/*
 * SpeedPPR's refinement: passes of the active-only scan until a pass
 * pushes nothing, or until max_passes passes have pushed.  A pass
 * pushes, in ascending id, each node whose residue exceeds threshold[v]
 * when the pass reaches it, as repro_async_sweep pushes (nothing is
 * settled into a side array).  After a pass that pushed, its dead-end
 * mass m != 0 goes where the policy sends it: residue[source] += m, or
 * residue[i] += m / n for every i; under SELF_LOOP the graph has no
 * dead end, so mass there is an error.
 *
 * Returns the passes that pushed (max_passes when the budget ran out;
 * max_passes >= 1), or -1 on dead-end mass under SELF_LOOP.
 * counts[0] receives the nodes pushed over all passes, counts[1] the sum
 * of their out-degrees.
 */
int64_t repro_refine(
    int64_t n,
    const int64_t *indptr,
    const int32_t *indices,
    double alpha,
    double *residue,
    double *reserve,
    const double *threshold,
    int policy,
    int64_t source,
    int64_t max_passes,
    int64_t *counts)
{
    int64_t passes = 0;
    counts[0] = 0;
    counts[1] = 0;
    for (;;) {
        double dead_mass = 0.0;
        int64_t pushes = 0;
        for (int64_t v = 0; v < n; ++v) {
            const double r = residue[v];
            if (!(r > threshold[v])) {
                continue;
            }
            counts[1] += push_node(indptr, indices, alpha, residue, reserve,
                                   v, r, &dead_mass);
            ++pushes;
        }
        if (pushes == 0) {
            return passes;
        }
        counts[0] += pushes;
        if (dead_mass != 0.0) {
            if (policy == REDIRECT_TO_SOURCE) {
                residue[source] += dead_mass;
            } else if (policy == UNIFORM_TELEPORT) {
                const double share = dead_mass / (double)n;
                for (int64_t i = 0; i < n; ++i) {
                    residue[i] += share;
                }
            } else {
                return -1;
            }
        }
        if (++passes >= max_passes) {
            return passes;
        }
    }
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

/*
 * The walk-index read of Eq. 13: for each v in ascending id with
 * r = residue[v] > 0, node v is owed W_v = ceil(r * num_walks) walks and
 * the index holds K_v = indptr[v + 1] - indptr[v].  With cap set a short
 * node (W_v > K_v) reads K_v walks; each of v's first W_v stops u gets
 * out[u] += r / max(W_v, 1).  Without cap the read stops at the first
 * short node, out part-written.
 *
 * Returns the first short node, or -1; or -2, out part-written, when a
 * range to read is not inside stops[0 .. size).  counts[0] receives the
 * walks read, counts[1] the short nodes met.
 */
int64_t repro_index_read(
    int64_t n,
    const int64_t *indptr,
    int64_t size,
    const int32_t *stops,
    double num_walks,
    const double *residue,
    int cap,
    double *out,
    int64_t *counts)
{
    int64_t first_short = -1;
    int64_t walks = 0;
    int64_t capped = 0;
    for (int64_t v = 0; v < n; ++v) {
        const double r = residue[v];
        if (!(r > 0.0)) {
            continue;
        }
        const double needed = ceil(r * num_walks);
        const int64_t lo = indptr[v];
        const int64_t available = indptr[v + 1] - lo;
        int64_t w;
        if (needed > (double)available) {
            if (first_short < 0) {
                first_short = v;
            }
            ++capped;
            if (!cap) {
                break;
            }
            w = available;
        } else {
            w = (int64_t)needed;
        }
        if (lo < 0 || w < 0 || lo > size - w) {
            return -2;
        }
        const double weight = r / (double)(w > 1 ? w : 1);
        for (int64_t e = lo; e < lo + w; ++e) {
            out[stops[e]] += weight;
        }
        walks += w;
    }
    counts[0] = walks;
    counts[1] = capped;
    return first_short;
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
