/* Fused DP inner-loop kernel for the repro native backend.
 *
 * One call to repro_fold() advances every live column of a forward or
 * bottom-up DP fold in a single pass per column: part construction
 * (the "skip" scale and the per-constituent "take" shift/scale/tag
 * synthesis), the stable ascending k-way merge, the equal-score
 * reduction, the grid coalescing and the subnormal-mass drop — work
 * that costs 3-4 separate numpy kernel launches per _combine() on the
 * python backend.
 *
 * Bit-exactness contract (enforced by tests/test_kernel_backend.py and
 * the differential suites under REPRO_BACKEND=native):
 *
 *  - every elementwise float op (shift add, scale multiply, weighted
 *    product, division) is the same scalar IEEE-754 double op numpy
 *    performs, in the same order;
 *  - segment sums accumulate strictly left to right, matching
 *    repro.core.dp._segment_sums (np.bincount's scatter-add), which is
 *    why dp.py uses bincount rather than the SIMD-order-dependent
 *    np.add.reduceat;
 *  - merges are stable with earlier parts winning ties, the exact
 *    permutation of dp._stable_merge's stable argsort;
 *  - the equal-score / grid tie winner is the *last* line holding the
 *    segment's maximum probability (_segment_winners' stable lexsort);
 *  - the float->int64 grid-bucket cast reproduces numpy's x86
 *    behaviour on NaN/overflow (INT64_MIN).
 *
 * The file is plain C99 with no Python.h dependency: it is compiled
 * with `cc -O3 -fPIC -shared` by repro.core.kernels.build and driven
 * through ctypes with raw buffer addresses, so building it never
 * requires Python development headers.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef double f64;

#if defined(_WIN32)
#define REPRO_API __declspec(dllexport)
#else
#define REPRO_API __attribute__((visibility("default")))
#endif

/* numpy's float64 -> int64 astype on x86: NaN and out-of-range values
 * collapse to INT64_MIN (cvttsd2si invalid-operation result).  The
 * plain C cast is undefined there, so guard explicitly. */
static i64
grid_cast(f64 q)
{
    if (isnan(q) || q >= 9223372036854775808.0 ||
        q < -9223372036854775808.0)
        return INT64_MIN;
    return (i64)q;
}

#define SWAP_F(a, b)                                                        \
    do {                                                                    \
        f64 *swap_tmp_ = (a);                                               \
        (a) = (b);                                                          \
        (b) = swap_tmp_;                                                    \
    } while (0)
#define SWAP_I(a, b)                                                        \
    do {                                                                    \
        i64 *swap_tmp_ = (a);                                               \
        (a) = (b);                                                          \
        (b) = swap_tmp_;                                                    \
    } while (0)

/* repro_fold — fused combine over ncols DP columns of one unit.
 *
 * ihdr (int64):
 *   [0] ncols   [1] max_lines   [2] nconst (constituents)
 *   [3] out_slab index          [4] cap (probs live at off + cap)
 *   [5] out_base offset in the out slab
 *   then ncols blocks of 7:
 *     skip_slab (-1 = absent), skip_off, skip_m, skip_tag,
 *     take_slab (-1 = absent), take_off, take_m
 *   then ncols * nconst chunk base ids (tag values for take parts;
 *     line j of constituent q gets tag base[c][q] + j).
 *
 * fhdr (float64):
 *   [0] absent_prob   [1] min_cell_mass
 *   [2 .. 2+nconst)           constituent score shifts
 *   [2+nconst .. 2+2*nconst)  constituent probability scales
 *
 * slabs: base addresses of the f64 cell slabs, indexed by the header.
 * tags:  the shared int64 tag slab; input cells read their tag run at
 *        their tag offset, output tags are appended from tag_start on.
 * ws / wsi: f64 and i64 scratch, 6 (resp. 3) segments of ws_cap each.
 * out_lens: per column, the output line count, or -1 for a None cell
 *        (no parts: no skip cell and no take cell).
 *
 * Output cell c lands at out_base + c*2*cap in the out slab (scores,
 * then probs at +cap); tags are packed in column order at
 * tags[tag_start ...].  Returns the total tag count appended, or -1
 * when ws_cap is too small (caller grows the scratch and retries; no
 * output was committed that cannot simply be overwritten).
 */
REPRO_API i64
repro_fold(const i64 *ihdr, const f64 *fhdr, const i64 *slabs, i64 *tags,
           i64 tag_start, f64 *ws, i64 ws_cap, i64 *wsi, i64 *out_lens)
{
    const i64 ncols = ihdr[0];
    const i64 max_lines = ihdr[1];
    const i64 nconst = ihdr[2];
    const i64 out_slab = ihdr[3];
    const i64 cap = ihdr[4];
    const i64 out_base = ihdr[5];
    const i64 *cols = ihdr + 6;
    const i64 *cbases = cols + 7 * ncols;
    const f64 absent = fhdr[0];
    const f64 min_mass = fhdr[1];
    const f64 *cscore = fhdr + 2;
    const f64 *cprob = fhdr + 2 + nconst;
    f64 *outp = (f64 *)(intptr_t)slabs[out_slab];
    i64 appended = 0;

    f64 *sA = ws, *pA = ws + ws_cap;
    f64 *sB = ws + 2 * ws_cap, *pB = ws + 3 * ws_cap;
    f64 *sC = ws + 4 * ws_cap, *pC = ws + 5 * ws_cap;
    i64 *tA = wsi, *tB = wsi + ws_cap, *tC = wsi + 2 * ws_cap;

    for (i64 c = 0; c < ncols; c++) {
        const i64 *col = cols + 7 * c;
        const i64 skip_slab = col[0], skip_off = col[1];
        const i64 skip_m = col[2], skip_tag = col[3];
        const i64 take_slab = col[4], take_off = col[5], take_m = col[6];
        const int have_skip = (skip_slab >= 0 && absent > 0.0);
        const int have_take = (take_slab >= 0);
        i64 acc = 0;
        i64 m;

        if (!have_skip && !have_take) {
            out_lens[c] = -1;
            continue;
        }
        if (have_skip) {
            const f64 *ss = (const f64 *)(intptr_t)slabs[skip_slab] + skip_off;
            const f64 *sp = ss + cap;
            const i64 *st = tags + skip_tag;
            if (skip_m > ws_cap)
                return -1;
            for (i64 i = 0; i < skip_m; i++) {
                sA[i] = ss[i];
                pA[i] = sp[i] * absent;
                tA[i] = st[i];
            }
            acc = skip_m;
        }
        if (have_take) {
            const f64 *ts = (const f64 *)(intptr_t)slabs[take_slab] + take_off;
            const f64 *tp = ts + cap;
            for (i64 q = 0; q < nconst; q++) {
                const f64 cs = cscore[q];
                const f64 cp = cprob[q];
                const i64 base = cbases[c * nconst + q];
                if (take_m > ws_cap || acc + take_m > ws_cap)
                    return -1;
                for (i64 i = 0; i < take_m; i++) {
                    sB[i] = ts[i] + cs;
                    pB[i] = tp[i] * cp;
                    tB[i] = base + i;
                }
                if (acc == 0) {
                    SWAP_F(sA, sB);
                    SWAP_F(pA, pB);
                    SWAP_I(tA, tB);
                    acc = take_m;
                } else if (take_m > 0) {
                    /* Stable merge: the accumulated earlier parts (A)
                     * win ties, keeping part order like the stable
                     * argsort of dp._stable_merge. */
                    i64 i = 0, j = 0, o = 0;
                    while (i < acc && j < take_m) {
                        if (sA[i] <= sB[j]) {
                            sC[o] = sA[i];
                            pC[o] = pA[i];
                            tC[o] = tA[i];
                            i++;
                        } else {
                            sC[o] = sB[j];
                            pC[o] = pB[j];
                            tC[o] = tB[j];
                            j++;
                        }
                        o++;
                    }
                    for (; i < acc; i++, o++) {
                        sC[o] = sA[i];
                        pC[o] = pA[i];
                        tC[o] = tA[i];
                    }
                    for (; j < take_m; j++, o++) {
                        sC[o] = sB[j];
                        pC[o] = pB[j];
                        tC[o] = tB[j];
                    }
                    SWAP_F(sA, sC);
                    SWAP_F(pA, pC);
                    SWAP_I(tA, tC);
                    acc = o;
                }
            }
        }

        m = acc;
        /* Equal-score reduction: sum probabilities left to right, keep
         * the first score of the run and the last max-probability
         * line's tag.  Bit-identical to the no-dup case as well (every
         * run is then a singleton: no additions happen). */
        if (m > 1) {
            i64 o = 0;
            f64 score = sA[0], psum = pA[0], best = pA[0];
            i64 tag = tA[0];
            for (i64 i = 1; i < m; i++) {
                if (sA[i] == score) {
                    psum += pA[i];
                    if (pA[i] >= best) {
                        best = pA[i];
                        tag = tA[i];
                    }
                } else {
                    sB[o] = score;
                    pB[o] = psum;
                    tB[o] = tag;
                    o++;
                    score = sA[i];
                    psum = pA[i];
                    best = pA[i];
                    tag = tA[i];
                }
            }
            sB[o] = score;
            pB[o] = psum;
            tB[o] = tag;
            o++;
            SWAP_F(sA, sB);
            SWAP_F(pA, pB);
            SWAP_I(tA, tB);
            m = o;
        }

        /* Grid coalescing + subnormal-mass drop, only past the line
         * budget (the _reduce_cell grid branch). */
        if (m > max_lines) {
            const f64 low = sA[0];
            const f64 width = (sA[m - 1] - low) / (f64)max_lines;
            i64 o = 0;
            i64 prev = 0;
            f64 psum = 0.0, wsum = 0.0, best = 0.0;
            i64 tag = 0;
            for (i64 i = 0; i < m; i++) {
                f64 q = (sA[i] - low) / width;
                i64 b = grid_cast(q);
                if (b > max_lines - 1)
                    b = max_lines - 1;
                if (i == 0) {
                    prev = b;
                    psum = pA[i];
                    wsum = pA[i] * sA[i];
                    best = pA[i];
                    tag = tA[i];
                } else if (b != prev) {
                    f64 sc = wsum / psum;
                    if (!(psum < min_mass)) {
                        sB[o] = sc;
                        pB[o] = psum;
                        tB[o] = tag;
                        o++;
                    }
                    prev = b;
                    psum = pA[i];
                    wsum = pA[i] * sA[i];
                    best = pA[i];
                    tag = tA[i];
                } else {
                    psum += pA[i];
                    wsum += pA[i] * sA[i];
                    if (pA[i] >= best) {
                        best = pA[i];
                        tag = tA[i];
                    }
                }
            }
            {
                f64 sc = wsum / psum;
                if (!(psum < min_mass)) {
                    sB[o] = sc;
                    pB[o] = psum;
                    tB[o] = tag;
                    o++;
                }
            }
            SWAP_F(sA, sB);
            SWAP_F(pA, pB);
            SWAP_I(tA, tB);
            m = o;
        }

        {
            f64 *os = outp + out_base + c * 2 * cap;
            f64 *op = os + cap;
            i64 *ot = tags + tag_start + appended;
            memcpy(os, sA, (size_t)m * sizeof(f64));
            memcpy(op, pA, (size_t)m * sizeof(f64));
            memcpy(ot, tA, (size_t)m * sizeof(i64));
        }
        out_lens[c] = m;
        appended += m;
    }
    return appended;
}

/* repro_vectors — walk arena ids into rank-position rows.
 *
 * The native arena mirrors repro.core.dp._Arena: chunk `c` covers ids
 * [bases[c], bases[c] + len), adds rank position positions[c], and
 * keeps its per-line parent ids in the tag slab at offs[c]; id 0 is
 * the empty vector.  Each of the n ids names a vector of exactly k
 * picks; row i of the n x k output receives its positions, last pick
 * first.
 */
REPRO_API void
repro_vectors(const i64 *ids, i64 n, i64 k, const i64 *bases,
              const i64 *offs, const i64 *positions, i64 nchunks,
              const i64 *tags, i64 *out)
{
    for (i64 i = 0; i < n; i++) {
        i64 id = ids[i];
        for (i64 step = 0; step < k; step++) {
            /* bisect_right(bases, id) - 1 */
            i64 lo = 0, hi = nchunks;
            while (lo < hi) {
                i64 mid = (lo + hi) >> 1;
                if (bases[mid] <= id)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            const i64 chunk = lo - 1;
            out[i * k + step] = positions[chunk];
            id = tags[offs[chunk] + (id - bases[chunk])];
        }
    }
}
