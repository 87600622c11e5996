/* The native DP executor of the repro backend.
 *
 * Entry point: repro_run(ctx) runs one dynamic program that
 * repro.core.dp has lowered (dp._Program, whose docstring is the exact
 * contract); ctx is an int64 array of the program's and the buffers'
 * addresses and sizes plus the run state (the X_* fields below).  Each
 * step is six int32 fields:
 *
 *   FOLD    unit src dst lo hi   dst[j] = fold of `unit` over src[j]
 *                                (skip) and src[j-1] (take), lo <= j
 *                                <= hi; dst's other columns stay
 *   EMIT    slot col pos req     row `pos` taken last after slot[col]:
 *                                append the lines to request `req`
 *   EXPORT  slot col req         append slot[col]'s lines to `req`
 *   EXIT    slot on              slot[0] = {0.0: 1.0} if on, else none
 *   MARK    level                marks[level] = the tag and chunk tops
 *   RELEASE level                drop the tags and chunks made since
 *                                marks[level]
 *
 * A unit's constituents are rank positions (unit_pos[unit_off[u] ..],
 * unit_len[u] of them) whose scores and probs are read from the
 * prefix's columns.  A vector id is `chunk << LINE_BITS | line`: chunk
 * c is one take part of a fold (one constituent over one source
 * cell), adds rank position pos[c], and its line i's parent id is
 * tags[off[c] + i]; id 0 is the empty vector (chunk 0 is a sentinel).
 * No cell holds more than NATIVE_MAX_LINES = 1024 lines, so a line
 * fits in LINE_BITS, and walking a pick is two loads.  Tags and chunks
 * are stacks: the sweep marks one level per rule-chain level (and one
 * for the lead rows above them), and releasing a level drops what the
 * levels above it made too.  Output lines are walked into rank
 * positions (last pick first) before any RELEASE drops their ids.
 *
 * Buffer rule: a step first checks the room it may need in the tag
 * slab, the chunk registry, the workspace and the output.  When one is
 * short it writes nothing, stores the step and the size needed in ctx
 * and returns that buffer's GROW_* code; the caller grows the buffer,
 * keeping its live part, and calls again to resume at that step.  No
 * step writes past a buffer it was given.
 *
 * Bit-exactness contract (enforced by tests/test_kernel_backend.py and
 * the differential suites under REPRO_BACKEND=native): fold_column()
 * does what dp._combine does, op for op:
 *
 *  - every elementwise float op (shift add, scale multiply, weighted
 *    product, division) is the same scalar IEEE-754 double op numpy
 *    performs, in the same order;
 *  - segment sums accumulate strictly left to right, matching
 *    dp._segment_sums (np.bincount's scatter-add), which is why dp.py
 *    uses bincount rather than the SIMD-order-dependent np.add.reduceat;
 *  - merges are stable with earlier parts winning ties, the exact
 *    permutation of dp._stable_merge's stable argsort;
 *  - the equal-score / grid tie winner is the *last* line holding the
 *    segment's maximum probability (dp._segment_winners);
 *  - the float->int64 grid-bucket cast reproduces numpy's x86
 *    behaviour on NaN/overflow (INT64_MIN);
 *  - a coalesced line lighter than DBL_MIN (dp._MIN_CELL_MASS) drops.
 *
 * Plain C99 with no Python.h dependency: repro.core.kernels.build
 * compiles it with `cc -O3 -fPIC -shared` and binds it through ctypes.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int32_t i32;
typedef int64_t i64;
typedef double f64;

#if defined(_WIN32)
#define REPRO_API __declspec(dllexport)
#else
#define REPRO_API __attribute__((visibility("default")))
#endif

/* Step opcodes and width (mirrored by repro.core.dp). */
enum { OP_FOLD, OP_EMIT, OP_EXPORT, OP_EXIT, OP_MARK, OP_RELEASE };
#define STEP_WIDTH 6

/* Context fields (mirrored, in this order, by native._CONTEXT). */
enum {
    /* the program */
    X_STEPS, X_NSTEPS, X_UNIT_OFF, X_UNIT_LEN, X_UNIT_POS, X_UNIT_ABSENT,
    X_SCORES, X_PROBS, X_NCOLS, X_MAX_LINES, X_ROW_WIDTH,
    /* fixed buffers: slot cells, their (lines, tag offset) table, and
     * the (tag top, chunk top) mark of each level */
    X_SLABS, X_CELLS, X_MARKS,
    /* growable buffers: addresses, then capacity */
    X_TAGS, X_TAGS_CAP,
    X_CHUNK_OFF, X_CHUNK_POS, X_CHUNKS_CAP,
    X_WS, X_WSI, X_WS_CAP,
    X_OUT_SCORES, X_OUT_PROBS, X_OUT_REQ, X_OUT_ROWS, X_OUT_CAP,
    /* run state */
    X_STEP, X_BUMP, X_NCHUNKS, X_NOUT, X_NEED
};

/* repro_run's return codes: done, or which buffer to grow. */
enum { RUN_DONE, GROW_TAGS, GROW_CHUNKS, GROW_WS, GROW_OUT };

/* A vector id's line bits: every cell holds at most NATIVE_MAX_LINES
 * (1024) lines. */
#define LINE_BITS 11
#define LINE_MASK ((1 << LINE_BITS) - 1)

#define PTR(type, field) ((type *)(intptr_t)ctx[field])

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

/* A run of lines: scores, probabilities and vector ids. */
typedef struct {
    f64 *s;
    f64 *p;
    i64 *t;
} lines_t;

#define SWAP_LINES(a, b)                                                    \
    do {                                                                    \
        lines_t swap_tmp_ = (a);                                            \
        (a) = (b);                                                          \
        (b) = swap_tmp_;                                                    \
    } while (0)

/* One cell of a fold: the skip part (ss/sp/st, skip_m lines, scaled by
 * `absent`; skip_m < 0 for no cell), one take part per constituent
 * (ts/tp, take_m lines shifted and scaled by the constituent, the line
 * i of constituent q getting vector id (chunk + q) << LINE_BITS | i;
 * take_m < 0 for no cell), merged, reduced and coalesced to max_lines.  The
 * result is left in one of the three workspace runs `ws` (each at
 * least skip_m + nconst * take_m lines) and described by *out.
 * Returns its line count, or -1 when there is no part (no cell). */
static i64
fold_column(const f64 *ss, const f64 *sp, const i64 *st, i64 skip_m,
            const f64 *ts, const f64 *tp, i64 take_m, f64 absent,
            const i64 *cpos, i64 nconst, const f64 *scores,
            const f64 *probs, i64 chunk, i64 max_lines, const lines_t *ws,
            lines_t *out)
{
    lines_t A = ws[0], B = ws[1], C = ws[2];
    const int have_skip = (skip_m >= 0 && absent > 0.0);
    const int have_take = (take_m >= 0);
    i64 acc = 0;
    i64 m;

    if (!have_skip && !have_take)
        return -1;
    if (have_skip) {
        for (i64 i = 0; i < skip_m; i++) {
            A.s[i] = ss[i];
            A.p[i] = sp[i] * absent;
            A.t[i] = st[i];
        }
        acc = skip_m;
    }
    if (have_take) {
        for (i64 q = 0; q < nconst; q++) {
            const f64 cs = scores[cpos[q]];
            const f64 cp = probs[cpos[q]];
            const i64 qbase = (chunk + q) << LINE_BITS;
            for (i64 i = 0; i < take_m; i++) {
                B.s[i] = ts[i] + cs;
                B.p[i] = tp[i] * cp;
                B.t[i] = qbase | i;
            }
            if (acc == 0) {
                SWAP_LINES(A, B);
                acc = take_m;
            } else if (take_m > 0) {
                /* Stable merge: the accumulated earlier parts (A) win
                 * ties, keeping part order like the stable argsort of
                 * dp._stable_merge. */
                i64 i = 0, j = 0, o = 0;
                while (i < acc && j < take_m) {
                    if (A.s[i] <= B.s[j]) {
                        C.s[o] = A.s[i];
                        C.p[o] = A.p[i];
                        C.t[o] = A.t[i];
                        i++;
                    } else {
                        C.s[o] = B.s[j];
                        C.p[o] = B.p[j];
                        C.t[o] = B.t[j];
                        j++;
                    }
                    o++;
                }
                for (; i < acc; i++, o++) {
                    C.s[o] = A.s[i];
                    C.p[o] = A.p[i];
                    C.t[o] = A.t[i];
                }
                for (; j < take_m; j++, o++) {
                    C.s[o] = B.s[j];
                    C.p[o] = B.p[j];
                    C.t[o] = B.t[j];
                }
                SWAP_LINES(A, C);
                acc = o;
            }
        }
    }

    m = acc;
    /* Equal-score reduction: sum probabilities left to right, keep the
     * first score of the run and the last max-probability line's tag.
     * Bit-identical to the no-dup case as well (every run is then a
     * singleton: no additions happen). */
    if (m > 1) {
        i64 o = 0;
        f64 score = A.s[0], psum = A.p[0], best = A.p[0];
        i64 tag = A.t[0];
        for (i64 i = 1; i < m; i++) {
            if (A.s[i] == score) {
                psum += A.p[i];
                if (A.p[i] >= best) {
                    best = A.p[i];
                    tag = A.t[i];
                }
            } else {
                B.s[o] = score;
                B.p[o] = psum;
                B.t[o] = tag;
                o++;
                score = A.s[i];
                psum = A.p[i];
                best = A.p[i];
                tag = A.t[i];
            }
        }
        B.s[o] = score;
        B.p[o] = psum;
        B.t[o] = tag;
        o++;
        SWAP_LINES(A, B);
        m = o;
    }

    /* Grid coalescing + subnormal-mass drop, only past the line budget
     * (the _reduce_cell grid branch). */
    if (m > max_lines) {
        const f64 low = A.s[0];
        const f64 width = (A.s[m - 1] - low) / (f64)max_lines;
        i64 o = 0;
        i64 prev = 0;
        f64 psum = 0.0, wsum = 0.0, best = 0.0;
        i64 tag = 0;
        for (i64 i = 0; i < m; i++) {
            f64 q = (A.s[i] - low) / width;
            i64 b = grid_cast(q);
            if (b > max_lines - 1)
                b = max_lines - 1;
            if (i == 0) {
                prev = b;
                psum = A.p[i];
                wsum = A.p[i] * A.s[i];
                best = A.p[i];
                tag = A.t[i];
            } else if (b != prev) {
                f64 sc = wsum / psum;
                if (!(psum < DBL_MIN)) {
                    B.s[o] = sc;
                    B.p[o] = psum;
                    B.t[o] = tag;
                    o++;
                }
                prev = b;
                psum = A.p[i];
                wsum = A.p[i] * A.s[i];
                best = A.p[i];
                tag = A.t[i];
            } else {
                psum += A.p[i];
                wsum += A.p[i] * A.s[i];
                if (A.p[i] >= best) {
                    best = A.p[i];
                    tag = A.t[i];
                }
            }
        }
        {
            f64 sc = wsum / psum;
            if (!(psum < DBL_MIN)) {
                B.s[o] = sc;
                B.p[o] = psum;
                B.t[o] = tag;
                o++;
            }
        }
        SWAP_LINES(A, B);
        m = o;
    }
    *out = A;
    return m;
}

/* Walk vector id `id` through k picks into row[0 .. k), last pick
 * first. */
static void
walk(i64 id, i64 k, const i64 *offs, const i64 *pos, const i64 *tags,
     i32 *row)
{
    for (i64 step = 0; step < k; step++) {
        const i64 chunk = id >> LINE_BITS;
        row[step] = (i32)pos[chunk];
        id = tags[offs[chunk] + (id & LINE_MASK)];
    }
}

/* repro_run — run (or resume) the program described by ctx; returns
 * RUN_DONE or the GROW_* code of the buffer that must first reach
 * ctx[X_NEED] entries (lines, for the workspace and the output). */
REPRO_API i64
repro_run(i64 *ctx)
{
    const i32 *steps = PTR(const i32, X_STEPS);
    const i64 nsteps = ctx[X_NSTEPS];
    const i64 *unit_off = PTR(const i64, X_UNIT_OFF);
    const i64 *unit_len = PTR(const i64, X_UNIT_LEN);
    const i64 *unit_pos = PTR(const i64, X_UNIT_POS);
    const f64 *unit_absent = PTR(const f64, X_UNIT_ABSENT);
    const f64 *scores = PTR(const f64, X_SCORES);
    const f64 *probs = PTR(const f64, X_PROBS);
    const i64 ncols = ctx[X_NCOLS];
    const i64 max_lines = ctx[X_MAX_LINES];
    const i64 row_width = ctx[X_ROW_WIDTH];
    f64 *slabs = PTR(f64, X_SLABS);
    i64 *cells = PTR(i64, X_CELLS);
    i64 *marks = PTR(i64, X_MARKS);
    i64 *tags = PTR(i64, X_TAGS);
    i64 *offs = PTR(i64, X_CHUNK_OFF);
    i64 *cpos_of = PTR(i64, X_CHUNK_POS);
    f64 *wsf = PTR(f64, X_WS);
    i64 *wsi = PTR(i64, X_WSI);
    const i64 ws_cap = ctx[X_WS_CAP];
    f64 *out_s = PTR(f64, X_OUT_SCORES);
    f64 *out_p = PTR(f64, X_OUT_PROBS);
    i32 *out_req = PTR(i32, X_OUT_REQ);
    i32 *out_rows = PTR(i32, X_OUT_ROWS);
    const lines_t ws[3] = {
        {wsf, wsf + ws_cap, wsi},
        {wsf + 2 * ws_cap, wsf + 3 * ws_cap, wsi + ws_cap},
        {wsf + 4 * ws_cap, wsf + 5 * ws_cap, wsi + 2 * ws_cap},
    };
    i64 bump = ctx[X_BUMP];
    i64 nchunks = ctx[X_NCHUNKS];
    i64 nout = ctx[X_NOUT];
    i64 code = RUN_DONE;
    i64 at;

/* Cell (slot, col): its line count (-1 for no cell), its tag offset,
 * and its scores (probs follow at + max_lines). */
#define CELL_M(slot, col) cells[2 * ((slot) * ncols + (col))]
#define CELL_TAG(slot, col) cells[2 * ((slot) * ncols + (col)) + 1]
#define CELL_S(slot, col) (slabs + 2 * max_lines * ((slot) * ncols + (col)))
#define NEED(which, size)                                                   \
    do {                                                                    \
        code = (which);                                                     \
        ctx[X_NEED] = (size);                                               \
        goto suspend;                                                       \
    } while (0)

    for (at = ctx[X_STEP]; at < nsteps; at++) {
        const i32 *s = steps + STEP_WIDTH * at;
        /* An EMIT's or EXPORT's output: m lines of k picks for request
         * `req`. */
        lines_t res = {NULL, NULL, NULL};
        i64 m = 0, k = 0;
        i32 req = 0;
        switch (s[0]) {
        case OP_FOLD: {
            const i64 unit = s[1], src = s[2], dst = s[3];
            const i64 lo = s[4], hi = s[5];
            const i64 nconst = unit_len[unit];
            const i64 *cpos = unit_pos + unit_off[unit];
            const f64 absent = unit_absent[unit];
            const i64 cols = hi >= lo ? hi - lo + 1 : 0;
            i64 need_ws = 0;
            for (i64 j = lo; j <= hi; j++) {
                i64 total = 0;
                if (CELL_M(src, j) >= 0 && absent > 0.0)
                    total += CELL_M(src, j);
                if (j >= 1 && CELL_M(src, j - 1) >= 0)
                    total += nconst * CELL_M(src, j - 1);
                if (total > need_ws)
                    need_ws = total;
            }
            if (bump + cols * max_lines > ctx[X_TAGS_CAP])
                NEED(GROW_TAGS, bump + cols * max_lines);
            if (nchunks + cols * nconst > ctx[X_CHUNKS_CAP])
                NEED(GROW_CHUNKS, nchunks + cols * nconst);
            if (need_ws > ws_cap)
                NEED(GROW_WS, need_ws);
            for (i64 j = lo; j <= hi; j++) {
                const i64 skip_m = CELL_M(src, j);
                const i64 take_m = j >= 1 ? CELL_M(src, j - 1) : -1;
                const f64 *ss = CELL_S(src, j);
                const f64 *ts = j >= 1 ? CELL_S(src, j - 1) : NULL;
                const i64 chunk = nchunks;
                lines_t cell;
                i64 lines;
                if (take_m >= 0) {
                    for (i64 q = 0; q < nconst; q++, nchunks++) {
                        offs[nchunks] = CELL_TAG(src, j - 1);
                        cpos_of[nchunks] = cpos[q];
                    }
                }
                lines = fold_column(
                    ss, ss + max_lines,
                    skip_m >= 0 ? tags + CELL_TAG(src, j) : NULL, skip_m, ts,
                    ts ? ts + max_lines : NULL, take_m, absent, cpos, nconst,
                    scores, probs, chunk, max_lines, ws, &cell);
                CELL_M(dst, j) = lines;
                if (lines < 0)
                    continue;
                memcpy(CELL_S(dst, j), cell.s, (size_t)lines * sizeof(f64));
                memcpy(CELL_S(dst, j) + max_lines, cell.p,
                       (size_t)lines * sizeof(f64));
                memcpy(tags + bump, cell.t, (size_t)lines * sizeof(i64));
                CELL_TAG(dst, j) = bump;
                bump += lines;
            }
            break;
        }
        case OP_EMIT: {
            const i64 slot = s[1], col = s[2], pos = s[3];
            const i64 take_m = CELL_M(slot, col);
            const i64 most = take_m < max_lines ? take_m : max_lines;
            const f64 *ts = CELL_S(slot, col);
            if (take_m < 0)
                break;
            if (nchunks + 1 > ctx[X_CHUNKS_CAP])
                NEED(GROW_CHUNKS, nchunks + 1);
            if (take_m > ws_cap)
                NEED(GROW_WS, take_m);
            if (nout + most > ctx[X_OUT_CAP])
                NEED(GROW_OUT, nout + most);
            /* The ending's chunk lives only while its lines are walked. */
            offs[nchunks] = CELL_TAG(slot, col);
            cpos_of[nchunks] = pos;
            m = fold_column(NULL, NULL, NULL, -1, ts, ts + max_lines, take_m,
                            0.0, &pos, 1, scores, probs, nchunks, max_lines,
                            ws, &res);
            k = col + 1;
            req = s[4];
            break;
        }
        case OP_EXPORT: {
            const i64 slot = s[1], col = s[2];
            if (CELL_M(slot, col) < 0)
                break;
            if (nout + CELL_M(slot, col) > ctx[X_OUT_CAP])
                NEED(GROW_OUT, nout + CELL_M(slot, col));
            res.s = CELL_S(slot, col);
            res.p = res.s + max_lines;
            res.t = tags + CELL_TAG(slot, col);
            m = CELL_M(slot, col);
            k = col;
            req = s[3];
            break;
        }
        case OP_EXIT: {
            const i64 slot = s[1];
            if (s[2]) {
                CELL_S(slot, 0)[0] = 0.0;
                CELL_S(slot, 0)[max_lines] = 1.0;
                CELL_M(slot, 0) = 1;
                CELL_TAG(slot, 0) = 0; /* tags[0] = 0: the empty vector */
            } else {
                CELL_M(slot, 0) = -1;
            }
            break;
        }
        case OP_MARK:
            marks[2 * s[1]] = bump;
            marks[2 * s[1] + 1] = nchunks;
            break;
        default: /* OP_RELEASE */
            bump = marks[2 * s[1]];
            nchunks = marks[2 * s[1] + 1];
            break;
        }
        for (i64 i = 0; i < m; i++, nout++) {
            out_s[nout] = res.s[i];
            out_p[nout] = res.p[i];
            out_req[nout] = req;
            walk(res.t[i], k, offs, cpos_of, tags,
                 out_rows + row_width * nout);
        }
    }
suspend:
    ctx[X_STEP] = at;
    ctx[X_BUMP] = bump;
    ctx[X_NCHUNKS] = nchunks;
    ctx[X_NOUT] = nout;
    return code;
}
