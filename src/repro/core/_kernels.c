/*
 * The loops under repro's push kernels, in C99: PowerPush (paper
 * Algorithm 3) as two loops, its queue rounds and its scan epochs (the
 * asynchronous sweep, the dead-end routing, the r_sum recount and the
 * epoch-end extrapolation), which IncrementalPPR's certification also
 * runs, and FIFO-FwdPush (Algorithm 2) as the same queue rounds with
 * single sweeps in between; SpeedPPR's refinement (passes of the active-only scan); the range
 * scatter under every local push; the walk-index read of Eq. 13; and the
 * random-walk engine's two steps, halt and move.  The walk steps draw
 * nothing: per step the caller draws, in this order, one uniform per live
 * walk (halt), one jump per walk on a dead end under the uniform teleport,
 * and one uniform per walk that can move (move), so the stops follow the
 * seed and the generator's stream alone.  One loop is not a push: the
 * Chung-Lu sampler's endpoint draw, np.searchsorted over a CDF started
 * from a guide table, which also forms the edge keys of a batch of pairs.
 *
 * Built and loaded by repro/core/kernels.py on first import, with
 * -ffp-contract=off: every multiply and add below rounds on its own, so
 * the results are those of the same loop written in Python, bit for
 * bit, on every architecture; the sums PowerPush takes of a whole
 * vector are NumPy's pairwise summation, so they are the bits of
 * ndarray.sum().  Every argument's type, dtype, length, contiguity and
 * writability is stated once, in kernels.py's table _ENTRIES, and each
 * call is checked against it before a loop runs; that every target index
 * is inside the vector it adds into (for the walk steps: that every walk
 * id indexes stops and every position is a node id; for the draw, that
 * every guide entry is in [0, n]) is the callers' precondition.  The
 * loops check ranges only: repro_scatter_ranges (it returns 1) and
 * repro_index_read (it returns -2), that each range they read lies
 * inside targets or stops.
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

/* Where dead-end mass goes; the order of _DEAD_END_CODES in kernels.py. */
enum { REDIRECT_TO_SOURCE = 0, UNIFORM_TELEPORT = 1, SELF_LOOP = 2 };

/*
 * Route dead-end mass m != 0 where the policy sends it: residue[source]
 * += m, or residue[i] += m / n for every i.  Under SELF_LOOP the graph
 * has no dead end, so mass there is an error: returns -1, else 0.
 */
static int route_dead_mass(
    int64_t n, double *residue, int policy, int64_t source, double dead_mass)
{
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
    return 0;
}

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
        if (dead_mass != 0.0
            && route_dead_mass(n, residue, policy, source, dead_mass)) {
            return -1;
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
 * Repeat a window of pushes k more times (see repro.core.kernels,
 * "The PowerPush loop", for why this is valid).  With fall = r_before -
 * residue:
 *
 *   pass 1: k = the minimum of residue / fall over the entries that
 *           moved towards zero (the ratio is >= 0; inf and nan never
 *           bind), stepped one float towards zero, and the sign test
 *           sum(sign(residue) * fall) > 0;
 *   pass 2: residue -= k * fall, reserve += k * settled.
 *
 * Pass 1 has no branch: in the first epochs most entries are 0 / 0, and
 * a branch on each entry mispredicts.  The sign test adds sign(r) * fall
 * for every entry, a 0 where r is 0, which moves at most the sign of a
 * zero sum, and the test reads either zero as not positive.
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
        const double bound = ratio >= 0.0 ? ratio : INFINITY;
        k = bound < k ? bound : k;
        signed_fall += (double)((r > 0.0) - (r < 0.0)) * fall;
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

/*
 * NumPy's pairwise summation of a[0 .. n): what ndarray.sum() returns for
 * a C-contiguous float64 vector, bit for bit.  Under 8 terms a plain
 * loop; up to 128, eight running sums combined as a tree, then the tail;
 * above, the two halves, split at a multiple of 8.  LOAD(x) is the term
 * for entry x: x itself, or fabs(x) for the sum np.abs(a).sum().
 */
#define PAIRWISE_SUM(NAME, LOAD)                                           \
    static double NAME(const double *a, int64_t n)                         \
    {                                                                      \
        if (n < 8) {                                                       \
            double sum = 0.0;                                              \
            for (int64_t i = 0; i < n; ++i) {                              \
                sum += LOAD(a[i]);                                         \
            }                                                              \
            return sum;                                                    \
        }                                                                  \
        if (n <= 128) {                                                    \
            double r[8];                                                   \
            for (int j = 0; j < 8; ++j) {                                  \
                r[j] = LOAD(a[j]);                                         \
            }                                                              \
            int64_t i = 8;                                                 \
            for (; i < n - n % 8; i += 8) {                                \
                for (int j = 0; j < 8; ++j) {                              \
                    r[j] += LOAD(a[i + j]);                                \
                }                                                          \
            }                                                              \
            double sum = ((r[0] + r[1]) + (r[2] + r[3]))                   \
                         + ((r[4] + r[5]) + (r[6] + r[7]));                \
            for (; i < n; ++i) {                                           \
                sum += LOAD(a[i]);                                         \
            }                                                              \
            return sum;                                                    \
        }                                                                  \
        int64_t half = n / 2;                                              \
        half -= half % 8;                                                  \
        return NAME(a, half) + NAME(a + half, n - half);                   \
    }

#define IDENTITY(x) (x)
PAIRWISE_SUM(pairwise_sum, IDENTITY)
PAIRWISE_SUM(pairwise_abs_sum, fabs)

/*
 * ndarray.sum() of a[0 .. n), or np.abs(a).sum() when absolute is set:
 * the reduction starts from +0.0, as NumPy's does.
 */
double repro_sum(const double *a, int64_t n, int absolute)
{
    return 0.0 + (absolute ? pairwise_abs_sum(a, n) : pairwise_sum(a, n));
}

/* What repro_queue_rounds and repro_scan_epochs return. */
enum { LOOP_DONE = 0, LOOP_CAPPED = 1, LOOP_STEPPED = 2, LOOP_DEAD_END = -1 };

/*
 * The queue rounds of PowerPush and of FIFO-FwdPush: rounds of Section
 * 4.2's S(j) structure, while *r_sum > l1_threshold.  A round pushes,
 * simultaneously, the frontier: every node v, in ascending id, with
 * residue[v] > d_v * r_max, a dead end's d_v being dead_degree (its
 * conceptual out-degree).  The rounds stop at an empty frontier or at
 * one above scan_threshold, before pushing it.  A round
 *
 *   - stages each frontier node's residue r into pushed[] and zeroes it,
 *     all of them first, so a self-loop or a frontier neighbour
 *     re-deposits;
 *   - in frontier order, adds (1 - alpha) * r / d_v to each out-neighbour
 *     in CSR order, and alpha * r to reserve[v];
 *   - routes (1 - alpha) * (the sum of the dead ends' r) by policy;
 *   - lowers *r_sum by alpha * (the sum of every r).
 *
 * Both sums are pairwise, in frontier order.  frontier[] and pushed[]
 * hold n entries each.  counts[0] += the nodes pushed, counts[1] += the
 * residue updates (an edge, or a dead end, one each), counts[2] += the
 * rounds.
 *
 * Returns LOOP_DONE; LOOP_CAPPED after the round that takes counts[1]
 * above max_updates or counts[2] above max_rounds; LOOP_STEPPED after
 * max_steps rounds (0: no limit); LOOP_DEAD_END on dead-end mass under
 * SELF_LOOP.
 */
int repro_queue_rounds(
    int64_t n,
    const int64_t *indptr,
    const int32_t *indices,
    double alpha,
    double *residue,
    double *reserve,
    int policy,
    int64_t source,
    double dead_degree,
    double r_max,
    double l1_threshold,
    double scan_threshold,
    int64_t max_updates,
    int64_t max_rounds,
    int64_t max_steps,
    int64_t *frontier,
    double *pushed,
    double *r_sum,
    int64_t *counts)
{
    const double scale = 1.0 - alpha;
    for (int64_t steps = 0; *r_sum > l1_threshold;) {
        int64_t size = 0;
        for (int64_t v = 0; v < n && (double)size <= scan_threshold; ++v) {
            const int64_t degree = indptr[v + 1] - indptr[v];
            const double d = degree ? (double)degree : dead_degree;
            /* Without a branch: wide frontiers are unpredictable. */
            frontier[size] = v;
            size += residue[v] > d * r_max;
        }
        if (size == 0 || (double)size > scan_threshold) {
            return LOOP_DONE;
        }
        for (int64_t j = 0; j < size; ++j) {
            pushed[j] = residue[frontier[j]];
            residue[frontier[j]] = 0.0;
        }
        int64_t edges = 0;
        for (int64_t j = 0; j < size; ++j) {
            const int64_t v = frontier[j];
            const int64_t lo = indptr[v];
            const int64_t hi = indptr[v + 1];
            if (hi > lo) {
                const double share = (pushed[j] * scale) / (double)(hi - lo);
                for (int64_t e = lo; e < hi; ++e) {
                    residue[indices[e]] += share;
                }
            }
            reserve[v] += alpha * pushed[j];
            edges += hi - lo;
        }
        const double pushed_sum = repro_sum(pushed, size, 0);
        /* The dead ends' r, packed to the front of pushed[]. */
        int64_t dead = 0;
        for (int64_t j = 0; j < size; ++j) {
            if (indptr[frontier[j] + 1] == indptr[frontier[j]]) {
                pushed[dead++] = pushed[j];
            }
        }
        const double dead_mass = dead ? scale * repro_sum(pushed, dead, 0) : 0.0;
        counts[0] += size;
        counts[1] += edges + dead;
        counts[2] += 1;
        if (dead_mass != 0.0
            && route_dead_mass(n, residue, policy, source, dead_mass)) {
            return LOOP_DEAD_END;
        }
        *r_sum += -alpha * pushed_sum;
        if (counts[1] > max_updates || counts[2] > max_rounds) {
            return LOOP_CAPPED;
        }
        if (++steps == max_steps) {
            return LOOP_STEPPED;
        }
    }
    return LOOP_DONE;
}

/*
 * PowerPush's scan phase, from epoch progress[0]: epoch i sweeps while
 * the residue's sum (of |r| when absolute is set), recounted pairwise
 * after every sweep, exceeds targets[i].  A sweep copies residue into
 * r_before, runs repro_async_sweep (which writes settled) and routes the
 * dead-end mass by policy.  An epoch that swept ends, while the sum is
 * still above l1_threshold, in repro_extrapolate_window over its last
 * sweep, after which the sum is recounted.  progress[1] says whether
 * the current epoch swept, so a call can resume where the last one
 * returned; *measure receives the sum.  counts[0] += the nodes pushed,
 * counts[1] += the residue updates, counts[2] += the sweeps, counts[3]
 * += the windows extrapolated.
 *
 * Returns LOOP_DONE after the last epoch; LOOP_CAPPED after the sweep
 * that takes counts[1] above max_updates or counts[2] above max_sweeps;
 * LOOP_STEPPED after max_steps sweeps and extrapolations (0: no limit);
 * LOOP_DEAD_END on dead-end mass under SELF_LOOP.
 */
int repro_scan_epochs(
    int64_t n,
    const int64_t *indptr,
    const int32_t *indices,
    double alpha,
    double *residue,
    double *reserve,
    double *r_before,
    double *settled,
    int policy,
    int64_t source,
    int absolute,
    int64_t num_epochs,
    const double *targets,
    double l1_threshold,
    int64_t max_updates,
    int64_t max_sweeps,
    int64_t max_steps,
    int64_t *progress,
    double *measure,
    int64_t *counts)
{
    int64_t epoch = progress[0];
    int64_t swept = progress[1];
    int64_t steps = 0;
    int status = LOOP_DONE;
    double sum = repro_sum(residue, n, absolute);
    while (epoch < num_epochs) {
        if (sum > targets[epoch]) {
            int64_t sweep_counts[2];
            memcpy(r_before, residue, (size_t)n * sizeof(double));
            const double dead_mass = repro_async_sweep(
                n, indptr, indices, alpha, residue, reserve, settled,
                sweep_counts);
            counts[0] += sweep_counts[0];
            counts[1] += sweep_counts[1];
            counts[2] += 1;
            swept = 1;
            if (dead_mass != 0.0
                && route_dead_mass(n, residue, policy, source, dead_mass)) {
                status = LOOP_DEAD_END;
                break;
            }
            sum = repro_sum(residue, n, absolute);
            if (counts[1] > max_updates || counts[2] > max_sweeps) {
                status = LOOP_CAPPED;
                break;
            }
            if (++steps == max_steps) {
                status = LOOP_STEPPED;
                break;
            }
            continue;
        }
        const int extrapolated = swept && sum > l1_threshold
            && repro_extrapolate_window(n, reserve, residue, settled, r_before);
        ++epoch;
        swept = 0;
        if (extrapolated) {
            counts[3] += 1;
            sum = repro_sum(residue, n, absolute);
            if (++steps == max_steps) {
                status = LOOP_STEPPED;
                break;
            }
        }
    }
    progress[0] = epoch;
    progress[1] = swept;
    *measure = sum;
    return status;
}

/*
 * The walk engine's halt step over the live walks: walk walks[j], standing
 * on node positions[j], halts when uniforms[j] < alpha, and
 * stops[walks[j]] = positions[j] records where.  The survivors are
 * compacted, in order, to the front of walks[] and positions[].
 *
 * Returns the survivors; *stuck receives how many of them stand on a
 * dead end (indptr[v + 1] == indptr[v]).
 */
int64_t repro_walk_halt(
    int64_t live,
    int64_t *walks,
    int64_t *positions,
    const double *uniforms,
    double alpha,
    const int64_t *indptr,
    int64_t *stops,
    int64_t *stuck)
{
    int64_t kept = 0;
    int64_t dead = 0;
    for (int64_t j = 0; j < live; ++j) {
        const int64_t v = positions[j];
        if (uniforms[j] < alpha) {
            stops[walks[j]] = v;
            continue;
        }
        walks[kept] = walks[j];
        positions[kept] = v;
        ++kept;
        dead += indptr[v + 1] == indptr[v];
    }
    *stuck = dead;
    return kept;
}

/*
 * The walk engine's move step over the live walks, in order: the k-th
 * walk that stands on a node c with d_c = indptr[c + 1] - indptr[c] > 0
 * moves to indices[indptr[c] + (int64)(uniforms[k] * (double)d_c)]; the
 * t-th walk on a dead end moves to jumps[t] when jumps is given (the
 * uniform teleport's draws), else to source.
 */
void repro_walk_move(
    int64_t live,
    int64_t *positions,
    const int64_t *indptr,
    const int32_t *indices,
    const double *uniforms,
    const int64_t *jumps,
    int64_t source)
{
    int64_t k = 0;
    int64_t t = 0;
    for (int64_t j = 0; j < live; ++j) {
        const int64_t c = positions[j];
        const int64_t lo = indptr[c];
        const int64_t degree = indptr[c + 1] - lo;
        if (degree) {
            positions[j] = indices[lo + (int64_t)(uniforms[k++] * (double)degree)];
        } else {
            positions[j] = jumps ? jumps[t++] : source;
        }
    }
}

/*
 * The Chung-Lu sampler's endpoint draw: out[i] = the first j with
 * cdf[j] >= uniforms[i] (n when there is none), which is
 * np.searchsorted(cdf, uniforms[i]) on a non-decreasing cdf.  guide[b]
 * is that index for b / n; a uniform u starts at guide[floor(u * n)]
 * and steps back while cdf[j - 1] >= u (a product or a quotient that
 * rounded across a bucket edge) and forward while cdf[j] < u, so the
 * guide only sets where the search starts, and a search takes O(1)
 * steps on average over uniforms drawn from the cdf itself.  A u below
 * 0 starts in the first bucket, and a product that rounded up to n in
 * the last.
 *
 * With sources given (drawn first, through the other cdf), out[k] =
 * sources[i] * n + j_i instead, for the pairs (sources[i], j_i) that are
 * not self-loops, compacted in order: the edge keys.  out may be sources
 * itself, since k <= i.  Returns how many entries of out were written.
 */
int64_t repro_inverse_cdf(
    int64_t n,
    const double *cdf,
    const int64_t *guide,
    int64_t size,
    const double *uniforms,
    const int64_t *sources,
    int64_t *out)
{
    const double last = n ? cdf[n - 1] : 0.0;
    int64_t kept = 0;
    for (int64_t i = 0; i < size; ++i) {
        const double u = uniforms[i];
        int64_t j = n;
        if (n && u <= last) {
            const double x = u * (double)n;
            j = guide[x < 1.0 ? 0 : x < (double)n ? (int64_t)x : n - 1];
            while (j > 0 && cdf[j - 1] >= u) {
                --j;
            }
            while (cdf[j] < u) {
                ++j;
            }
        }
        if (!sources) {
            out[i] = j;
            continue;
        }
        const int64_t source = sources[i];
        if (source != j) {
            out[kept++] = source * n + j;
        }
    }
    return sources ? kept : size;
}
