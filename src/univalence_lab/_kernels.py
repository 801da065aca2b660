"""Hot numeric kernels, in plain numpy.

Polynomials are evaluated by the baby-step/giant-step scheme of Paterson
and Stockmeyer (SIAM J. Comput. 2(1), 1973): with block size B, the
coefficients are cut into blocks of B, every block is evaluated at once
against the powers 1, z, ..., z^{B-1} by one matrix product, and the block
values are combined by Horner in w = z^B.  That turns a degree-N Horner
loop of N array operations into ~sqrt(N) of them.  Below 64 coefficients
B = 1: plain Horner needs no more array operations there, and keeps the
results of the low-degree series bit for bit.  `polyval012` makes that
choice for every series it is given, and runs the Horner loop on a stack
of short series at once: on few points, where the cost of an array
operation is its call, a stack costs three array operations per
coefficient, whatever the number of series.  A `SeriesStack` holds that
choice and the coefficient tables of the loop, so a caller that evaluates
the same series many times (a criterion statement) prepares them once;
`polyval012` prepares one for each call on bare arrays.  `circle_rows`
takes series on whole circles at once instead, one FFT per row and
circle, from the derivative rows that the blocked product reads
(`series_rows`).

`g17_csv` writes CSV text with the bytes of CPython's '%.17g' % x: the
17 digits come from a double-double product and a 4-digit lookup table,
and any value whose rounding the arithmetic cannot certify goes through
the `%` operator itself.
"""

import functools
import math
import types

import numpy as np

_BLOCKED_MIN_TERMS = 64
_CHUNK_BYTES = 1 << 20
_HORNER_BYTES = 1 << 17
_STACK_POINTS = 256
_WINDING_CELLS = 8192
_G17_CELL_BYTES = 256  # working set per g17_csv cell: ~200 bytes under tracemalloc
_G17_TIE_MARGIN = 1e-9
_G17_EXPONENTS = 290  # layout tables cover decimal exponents -290..290


def _blocked_rows(rows, z, scale=1.0):
    """scale sum_k rows[j, k] z^k for every row j at every point of the
    1-d z, scale a power of two (see series_rows).

    Block size B = isqrt(n) for n coefficients per row; returns an
    (m, z.size) array for m rows.  Points are processed in chunks of about
    _CHUNK_BYTES of working set (powers plus block values), so the memory
    peak does not grow with the number of points.

    OpenBLAS rounds the columns of a matrix product's tail (the last
    columns of a width that is not a multiple of 4) differently, so every
    product here has a multiple of 4 columns: the chunk is a multiple of
    4, and a shorter last chunk is padded with copies of its last point,
    whose columns are dropped.  A point then gets the same bits alone as
    in any batch.
    """
    m, n = rows.shape
    b = math.isqrt(n)
    nb = -(-n // b)
    full = n // b
    # block-major: row i*m + j holds coefficients i*b .. i*b + b - 1 of row
    # j, formed in one buffer (a second temporary of a few hundred KiB
    # costs more in fresh pages than the copy)
    blocks = np.zeros((nb, m, b), dtype=np.complex128)
    blocks[:full] = rows[:, : full * b].reshape(m, full, b).transpose(1, 0, 2)
    blocks[full:, :, : n - full * b] = rows[:, full * b :]
    blocks = blocks.reshape(nb * m, b)
    out = np.empty((m, z.size), dtype=np.complex128)
    chunk = max(4, _CHUNK_BYTES // (16 * (b + (nb + 2) * m)) // 4 * 4)
    for s in range(0, z.size, chunk):
        zc = z[s : s + chunk]
        k = zc.size
        if k % 4:
            zc = np.concatenate((zc, np.repeat(zc[-1:], 4 - k % 4)))
        powers = np.empty((b, zc.size), dtype=np.complex128)
        powers[0] = 1.0
        powers[1:] = zc
        np.cumprod(powers, axis=0, out=powers)
        w = powers[-1] * zc
        vals = (blocks @ powers).reshape(nb, m, zc.size)
        acc = vals[-1]
        for i in range(nb - 2, -1, -1):
            acc *= w
            acc += vals[i]
        out[:, s : s + k] = acc[:, :k]
    if scale != 1.0:
        out *= scale
    return out


def _derivative_rows(c):
    """Rows of p, p', p'' for p = sum c_n z^n with c = [c_1..c_N], for
    _blocked_rows: the coefficient of z^k in row j is (k+j)!/k! c_{k+j}."""
    n = c.size + 1
    k = np.arange(1, n)
    rows = np.zeros((3, n), dtype=np.complex128)
    rows[0, 1:] = c
    rows[1, : n - 1] = k * c
    rows[2, : n - 2] = (k[1:] * k[:-1]) * c[1:]
    return rows


@functools.lru_cache(maxsize=64)
def series_rows(bits):
    """(rows, scale) of the coefficients c whose bytes are `bits`: the
    _derivative_rows of c / scale, read only, for _blocked_rows(rows, z,
    scale).  scale is 1 when the rows of c are finite, so they keep their
    bits, and else (a coefficient near the top of the double range, which
    (k + 1) k c_k overflows) the power of two 2^(2 bits(N + 1)) > N (N + 1),
    which keeps every row finite; dividing by it is exact but for
    coefficients it takes below the normal range.  Formed once per series,
    for the blocked product of polyval012 and the circle scan of the
    criterion alike."""
    c = np.frombuffer(bits, dtype=np.complex128)
    scale = 1.0
    with np.errstate(over="ignore"):
        rows = _derivative_rows(c)
    if not np.isfinite(rows).all():
        scale = 2.0 ** (2 * (c.size + 1).bit_length())
        rows = _derivative_rows(c / scale)
    rows.setflags(write=False)
    return rows, scale


class SeriesStack:
    """Series prepared for polyval012, for evaluation at many sets of points.

    A series of _BLOCKED_MIN_TERMS terms or more (c_0 = 0 included) is long
    and keeps its series_rows for the blocked product.  The short ones
    stand in the columns of one table, cols[k, i] = c_k of short series i,
    zero-padded at the high end to the largest degree among them.  The
    repeated coefficient table of a Horner pass on w points (see
    _horner012) is built on the first pass of that width and kept while the
    tables kept stay within _HORNER_BYTES, so a stack evaluated many times
    pays for each table once.  Nothing is shared between stacks.

    bits, when given, holds the complex128 bytes of each series, as
    SeriesFunction keeps them: a bytes object caches its hash, so keying
    series_rows on it costs nothing, where a fresh c.tobytes() is hashed
    whole."""

    def __init__(self, coeffs, bits=None):
        series = [np.ascontiguousarray(c, dtype=np.complex128) for c in coeffs]
        self.count = len(series)
        self.short = [j for j, c in enumerate(series) if c.size + 1 < _BLOCKED_MIN_TERMS]
        self.long = [
            (j, series_rows(c.tobytes() if bits is None else bits[j]))
            for j, c in enumerate(series)
            if c.size + 1 >= _BLOCKED_MIN_TERMS
        ]
        self.sizes = [series[j].size for j in self.short]
        self.top = max(self.sizes, default=0)
        self.cols = np.zeros((self.top + 1, len(self.short)), dtype=np.complex128)
        for i, j in enumerate(self.short):
            self.cols[1 : self.sizes[i] + 1, i] = series[j]
        self._tables = {}
        self._kept = 0

    def __len__(self):
        """The number of series, short and long, as a sequence of them."""
        return self.count

    def _table(self, w):
        """(steps, starts) of a Horner pass of every short series on w
        points: steps[k] holds c_k of each series repeated along its points,
        and starts {k: [(points of series i, c_k)]} the shorter series i of
        degree k."""
        if w in self._tables:
            return self._tables[w]
        table = np.repeat(self.cols, w, axis=1)
        starts = {}
        for i, n in enumerate(self.sizes):
            if n < self.top:
                starts.setdefault(n, []).append((slice(i * w, (i + 1) * w), self.cols[n, i]))
        steps = list(table)  # a list indexes faster than the array
        if self._kept + table.nbytes <= _HORNER_BYTES:
            self._tables[w] = steps, starts
            self._kept += table.nbytes
        return steps, starts


def polyval012(coeffs, z, bits=None):
    """(p, p', p'') of p(z) = sum c_n z^n with coeffs = [c_1..c_N].

    coeffs may also be a sequence of m such arrays, of any lengths, or a
    SeriesStack of them, prepared once for many calls: the values are then
    (m, z.size) arrays, each row with the bits of its series alone.  bits
    holds the bytes of each series as SeriesStack takes them (of the one
    series for a 1-d coeffs); a SeriesStack has its own, and takes none.  A long series goes through its own blocked
    product.  The short ones go through Horner: on at most _STACK_POINTS
    points together in one pass; on more one at a time, since a pass then
    costs by the element, and the padding of the shorter series and the
    repeated coefficients cost more than the calls saved (for f, g of
    degree 32 and phi = z, the crossover lies between 256 and 1024
    points)."""
    z = np.ascontiguousarray(z, dtype=np.complex128).ravel()
    one = isinstance(coeffs, np.ndarray) and coeffs.ndim == 1
    stack = coeffs
    if isinstance(coeffs, SeriesStack):
        if bits is not None:
            raise TypeError("a SeriesStack takes its bits when it is built")
    else:
        stack = SeriesStack((coeffs,), None if bits is None else (bits,)) if one else SeriesStack(coeffs, bits)
    out = np.empty((3, stack.count, z.size), dtype=np.complex128)
    short = stack.short
    if short and z.size <= _STACK_POINTS:
        # one pass, straight into out when every series is short
        part = out if len(short) == stack.count else np.empty((3, len(short), z.size), dtype=np.complex128)
        _horner012(stack, z, part)
        if part is not out:
            out[:, short] = part
    else:
        for i, j in enumerate(short):
            _horner012(stack, z, out[:, j : j + 1], i)
    for j, (rows, scale) in stack.long:
        out[:, j] = _blocked_rows(rows, z, scale)
    return tuple(out[:, 0] if one else out)


def _horner012(stack, z, out, i=None):
    """Fill out (3, m, z.size) with p, p', p'' of the short series of the
    stack by Horner, carrying the derivatives along: from (p, p', p''/2) =
    (c_N, 0, 0), each lower coefficient c_k takes every point through
    p''/2 <- p''/2 z + p', p' <- p' z + p and p <- p z + c_k, down to
    c_0 = 0.

    The series and the points advance together in one flat buffer of the
    rows [p; p'; p''/2] with z tiled to the same length, so a coefficient
    step is three array operations on contiguous views.  The coefficient
    operand of a step is the stack's repeated table for the width of the
    chunk (SeriesStack._table).  A shorter series waits at 0 and starts
    with p = 0 z + c_N, which is c_N but for the sign of a zero part, so p
    is set to c_N there.  With i given, short series i runs alone (m = 1)
    against its coefficients broadcast, which on many points costs less
    than a table.  A product never runs in place: numpy rounds an in-place
    complex product on one element differently.

    Points are processed in chunks that keep every temporary within
    _HORNER_BYTES = 128 KiB, glibc's default mmap threshold, above which
    malloc maps each buffer afresh and its pages are faulted in again on
    every call.  The state, the next state and the tiled z hold 3 m values
    per point, and a table (N + 1) m.  The values do not depend on the
    chunks."""
    if i is None:
        m, top = len(stack.sizes), stack.top
        chunk = max(1, _HORNER_BYTES // (16 * m * max(3, top + 1)))
    else:
        m, top = 1, stack.sizes[i]
        chunk = _HORNER_BYTES // (16 * 3)
        steps, starts = stack.cols[: top + 1, i : i + 1], {}
    for s in range(0, z.size, chunk):
        zc = z[s : s + chunk]
        w = zc.size
        if i is None:
            steps, starts = stack._table(w)
        mw = m * w
        tiled = np.empty(3 * mw, dtype=np.complex128)
        tiled.reshape(3 * m, w)[...] = zc
        a = np.zeros(3 * mw, dtype=np.complex128)
        a[:mw] = steps[top]
        b = np.empty_like(a)
        # (whole, p, [p; p'], [p'; p''/2]) of the current and the next state
        cur = (a, a[:mw], a[: 2 * mw], a[mw:])
        nxt = (b, b[:mw], b[: 2 * mw], b[mw:])
        multiply, add = np.multiply, np.add
        for k in range(top - 1, -1, -1):
            multiply(cur[0], tiled, nxt[0])
            add(nxt[3], cur[2], nxt[3])
            add(nxt[1], steps[k], nxt[1])
            if k in starts:
                for row, value in starts[k]:
                    nxt[1][row] = value
            cur, nxt = nxt, cur
        state = cur[0].reshape(3, m, w)
        out[:2, :, s : s + w] = state[:2]
        np.multiply(2.0, state[2], out=out[2, :, s : s + w])


def circle_rows(rows, radii, n):
    """The power series sum_k rows[j, k] z^k on the circles |z| = r of
    radii, each at its n points r e^{2 pi i l / n}: (values, sums, dsums).

    values (m, len(radii), n) comes from one inverse FFT per row and
    radius of the coefficients rows[j, k] r^k folded mod n (Cooley and
    Tukey, Math. Comp. 19, 1965).  sums holds sum_k |rows[j, k]| r^k and
    dsums sum_k k |rows[j, k]| r^(k-1), the absolute series of the row and
    of its derivative, per row and radius.

    A coefficient k = t n + l takes r^k as (r^n)^t r^l: the fold is one
    matrix product of the powers (r^n)^t with the coefficients cut into
    blocks of n, on the real and imaginary parts, and r^k carries the
    rounding of at most k + t + 1 products.  numpy.fft is imported on the
    first call, so importing the package does not load it."""
    from numpy import fft

    m, k = rows.shape
    folds = -(-k // n)
    radii = np.asarray(radii, dtype=np.float64)
    low = np.empty((n + 1, radii.size))  # r^l, l <= n
    low[0] = 1.0
    low[1:] = radii
    np.cumprod(low, axis=0, out=low)
    high = np.empty((radii.size, folds))  # (r^n)^t
    high[:, 0] = 1.0
    high[:, 1:] = low[-1][:, None]
    np.cumprod(high, axis=1, out=high)
    low = low[:-1]
    parts = np.zeros((m, folds, 2 * n))  # real and imaginary parts, interleaved
    parts.reshape(m, -1).view(np.complex128)[:, :k] = rows
    low2 = np.repeat(low.T, 2, axis=1)
    if folds == 1:  # a matrix product of inner size 1 is several times slower
        folded = parts * low2
    else:
        folded = np.matmul(high, parts)
        folded *= low2
    a = np.zeros((2, m, folds * n))  # |rows[j, k]| and (k + 1) |rows[j, k + 1]|
    a[0, :, :k] = np.abs(rows)
    a[1, :, : k - 1] = a[0, :, 1:k] * np.arange(1, k)
    sums = ((a.reshape(-1, n) @ low).reshape(2, m, folds, -1) * high.T).sum(axis=2)
    return fft.ifft(folded.view(np.complex128), axis=-1, norm="forward"), sums[0], sums[1]


def polyval(coeffs, z):
    """q(z) = sum a_n z^n with coeffs = [a_0..a_M]."""
    a = np.ascontiguousarray(coeffs, dtype=np.complex128)
    z = np.ascontiguousarray(z, dtype=np.complex128).ravel()
    if a.size >= _BLOCKED_MIN_TERMS:
        return _blocked_rows(a[None, :], z)[0]
    if a.size == 1:
        return np.full_like(z, a[0])
    # Horner, q = q z + a[k] from q = a[-1], the product into t and the sum
    # back into q: nothing runs in place, since numpy rounds an in-place
    # complex product on one element differently (and takes a slower loop),
    # so a point gets the same bits alone as in a batch
    q = z * a[-1] + a[-2]
    t = np.empty_like(q)
    for c in a[-3::-1].tolist():
        np.multiply(q, z, t)
        np.add(t, c, q)
    return q


def collision_scan(z, values, tol):
    """Lexicographically first pair (i, j), i < j, with
    |values_i - values_j| < tol and |z_i - z_j| > 10 tol, or None.

    The values are sorted by real part, and the candidates of the point at
    sorted position i are the later positions whose real part is below
    Re v_i + tol.  The candidate pairs are built with np.repeat in chunks
    of about _CHUNK_BYTES of working set (64 bytes per pair) and filtered
    with |dv|^2 < tol^2 and |dz|^2 > (10 tol)^2.
    """
    z = np.asarray(z, dtype=np.complex128).ravel()
    values = np.asarray(values, dtype=np.complex128).ravel()
    tol = float(tol)
    n = values.size
    order = np.argsort(values.real, kind="stable")
    v = values[order]
    z = z[order]
    tol2 = tol * tol
    sep2 = (10.0 * tol) ** 2
    start = np.arange(1, n + 1)
    ends = np.searchsorted(v.real, v.real + tol, side="left")
    count = np.maximum(ends - start, 0)
    cum = np.cumsum(count)
    budget = _CHUNK_BYTES // 64
    best = None
    s = 0
    while s < n:
        done = int(cum[s - 1]) if s else 0
        e = max(s + 1, int(np.searchsorted(cum, done + budget, side="right")))
        c = count[s:e]
        total = int(cum[e - 1]) - done
        if total:
            src = np.repeat(np.arange(s, e), c)
            dst = np.repeat(start[s:e] - (np.cumsum(c) - c), c) + np.arange(total)
            dv = v[dst] - v[src]
            near = np.flatnonzero(dv.real**2 + dv.imag**2 < tol2)
            if near.size:
                src = src[near]
                dst = dst[near]
                dz = z[dst] - z[src]
                far = dz.real**2 + dz.imag**2 > sep2
                if far.any():
                    a = order[src[far]]
                    b = order[dst[far]]
                    code = int((np.minimum(a, b) * n + np.maximum(a, b)).min())
                    best = code if best is None else min(best, code)
        s = e
    return None if best is None else divmod(best, n)


def winding_stats(curve, targets):
    """(total signed angle, min distance, max |arg increment|) per target.

    Sums the principal argument increments of the closed sampled curve
    around each target in fixed order.  Targets go in blocks of at most
    _WINDING_CELLS curve x target elements, each block one pass of
    elementwise operations and reductions along the curve, which gives
    the bits of one pass per target.

    An increment x is wrapped into [-pi, pi) in place, by one compare and
    one shift of 2 pi each way, with the bits of (x + pi) % (2 pi) - pi
    (numpy's floored remainder): both angles lie in [-pi, pi], so y = x +
    pi lies in [-pi, 3 pi].  On [2 pi, 3 pi] the remainder is fmod(y), which
    is exact, and so is y - 2 pi (Sterbenz).  Below 0 the remainder is
    fmod(y) + 2 pi = y + 2 pi, rounded once, the same operation.  At y = 0
    both give +0, and NaN stays NaN.  complex abs, not hypot, gives the
    distances: the two differ in the last bit on about a third of the
    elements."""
    c = np.asarray(curve, dtype=np.complex128)
    targets = np.asarray(targets, dtype=np.complex128)
    m = targets.shape[0]
    total = np.empty(m)
    mindist = np.empty(m)
    maxinc = np.empty(m)
    step = max(1, _WINDING_CELLS // max(c.size, 1))
    two_pi = 2.0 * np.pi
    for s in range(0, m, step):
        d = c[None, :] - targets[s : s + step, None]
        inc = np.diff(np.angle(d), axis=1)
        inc += np.pi
        np.subtract(inc, two_pi, out=inc, where=inc >= two_pi)
        np.add(inc, two_pi, out=inc, where=inc < 0.0)
        inc -= np.pi
        total[s : s + step] = inc.sum(axis=1)
        mindist[s : s + step] = np.abs(d).min(axis=1)
        maxinc[s : s + step] = np.abs(inc, out=inc).max(axis=1) if inc.shape[1] else 0.0
    return total, mindist, maxinc


def g17_csv(rows):
    """Yield the CSV body of the 2-d float64 array rows as uint8 blocks:
    every value as CPython's '%.17g' % x, cells joined by ',' and each row
    ended by '\n'.

    Rows are processed in chunks of about _CHUNK_BYTES of working set.  A
    chunk's cells are laid out in one buffer of 32 bytes per cell (see
    _g17_cells), the last byte the separator, with 0 wherever a cell has no
    character; the block is the buffer without its zeros."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n, c = rows.shape
    step = max(1, _CHUNK_BYTES // (_G17_CELL_BYTES * c))
    sep = np.full(c, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    sep <<= np.uint64(56)
    for s in range(0, n, step):
        cells = _g17_cells(rows[s : s + step].ravel())
        cells.reshape(-1, c, 4)[:, :, 3] |= sep
        flat = cells.view(np.uint8).ravel()
        yield flat[flat != 0]


def _g17_cells(x):
    """'%.17g' % x for every value of the 1-d float64 x, as an (x.size, 4)
    array of little-endian 64-bit words: 32 bytes per value, padded with
    zeros anywhere, the last byte 0.

    Word 0 holds the sign and, for -4 <= D < 0, the "0." and zeros of %g's
    fixed form.  Words 1-3 hold the 17 digits of _g17_round with trailing
    zeros stripped (but those of the integer part), the point after the
    first D + 1 digits in fixed form (-4 <= D < 17) or after the first
    digit in exponent form, and from byte 18 the exponent.  A value the
    fast path cannot certify is formatted by '%.17g' % x itself."""
    t = _g17_tables()
    n, d, fast = _g17_round(x)
    digits, nd = _g17_digits(n, t)
    d += _G17_EXPONENTS
    point = np.take(t.point, d)  # digits before the point
    keep = np.maximum(nd, np.take(t.whole, d))
    cells = np.empty((x.size, 4), dtype="<u8")
    cells[:, 0] = np.take(t.prefix, d) | np.signbit(x) * np.uint64(ord("-"))
    carry = 0
    for i, w in enumerate(digits):
        w &= np.take(t.mask[i], keep)
        # the digits from the point on move up one byte to make room for it
        shifted = (w << 8 | carry) & ~np.take(t.mask[i], point + 1)
        cells[:, 1 + i] = w & np.take(t.mask[i], point) | shifted
        carry = w >> 56
    cells[:, 3] |= np.take(t.exponent, d)
    text = cells.view(np.uint8)
    r = np.flatnonzero(nd > point)
    text[r, 8 + point[r]] = ord(".")
    for i in np.flatnonzero(~fast):
        value = ("%.17g" % float(x[i])).encode("ascii")
        text[i] = 0
        text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
    return cells


def _g17_round(x):
    """(N, D, certified) of the 1-d float64 x: D = floor(log10 |x|) and N
    the rounding of V = |x| 10^(16 - D) to an integer in [10^16, 10^17), so
    N carries the 17 significant digits of x.

    V is formed as a double-double from the exact (hi, lo) pair of
    10^(16 - D) and Dekker's two-product (Numer. Math. 18, 1971), with an
    error below 1e-14.  N is certified unless x is not finite, |x| lies
    outside [1e-280, 1e280], the fractional part of V lies within
    _G17_TIE_MARGIN of 1/2 (exact ties round half-even there) or N falls
    outside [10^16, 10^17) because log10 misjudged D.  Zeros are certified
    with N = 0 and D = 0."""
    a = np.abs(x)
    zero = a == 0.0
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    d = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - d
    kmin = int(k.min())
    table = np.array([_pow10(j) for j in range(kmin, int(k.max()) + 1)]).T
    k -= kmin
    hi, hi_hi, hi_lo, lo = (np.take(col, k) for col in table)
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    v = a * hi
    tail = (((a_hi * hi_hi - v) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(tail)
    tail -= whole
    n = v.astype(np.int64) + whole.astype(np.int64)  # floor(V): v >= 2^53 is an integer
    fast = ok & (np.abs(tail - 0.5) > _G17_TIE_MARGIN) & (n >= 10**16)
    n += tail > 0.5
    fast &= n < 10**17
    n[zero] = 0
    return n, d, fast | zero


def _g17_digits(n, t):
    """The 17 ASCII digits of 0 <= N < 10^17, zero-padded, as three words
    of a little-endian 24-byte string, and the number of digits up to the
    last nonzero one (1 for N = 0)."""
    top = n // 10**8
    low = n - top * 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    g1 = mid // 10**4
    g3 = low // 10**4
    groups = (g1, mid - g1 * 10**4, g3, low - g3 * 10**4)
    nd = np.ones(n.size, dtype=np.int64)
    for j, g in enumerate(groups):
        nd = np.where(g > 0, 1 + 4 * j + np.take(t.sig, g), nd)
    q = [np.take(t.quads, g) for g in groups]
    words = (
        (lead + ord("0")).astype(np.uint64) | q[0] << 8 | q[1] << 40,
        q[1] >> 24 | q[2] << 8 | q[3] << 40,
        q[3] >> 24,
    )
    return words, nd


@functools.cache
def _pow10(k):
    """(hi, hi split in 26-bit halves, lo) of the exact 10^k = hi + lo.

    hi and lo are correctly rounded quotients of Python integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    split = 134217729.0 * hi
    hi_hi = split - (split - hi)
    return hi, hi_hi, hi - hi_hi, (num * q - p * den) / (den * q)


@functools.cache
def _g17_tables():
    """The layout tables of _g17_cells, built on first use:

    quads     the 4 ASCII digits of 0..9999, the first in the low byte
    sig       the digits of a 4-digit group up to its last nonzero one
    mask      (3, 19): the words of 24 bytes whose first k are 0xFF
    point     by D: the digits before the point (17: none among them)
    whole     by D: the digits kept even when zero, the integer part's
    prefix    by D: word 0 of a cell, "0." and zeros for -4 <= D < 0
    exponent  by D: word 3 of a cell, "e+dd" from byte 2 in exponent form
    """
    i = np.arange(10000, dtype=np.uint64)
    quads = np.zeros(10000, dtype=np.uint64)
    sig = np.full(10000, 4, dtype=np.int64)
    for p in range(4):
        quads |= (ord("0") + i // np.uint64(10 ** (3 - p)) % np.uint64(10)) << np.uint64(8 * p)
        sig -= i % np.uint64(10 ** (p + 1)) == 0
    byte = np.arange(24)
    mask = (byte < np.arange(19)[:, None]).astype(np.uint8) * 0xFF
    d = np.arange(-_G17_EXPONENTS, _G17_EXPONENTS + 1)
    fixed = (d >= -4) & (d < 17)
    prefix = np.zeros((d.size, 8), dtype=np.uint8)
    exponent = np.zeros((d.size, 8), dtype=np.uint8)
    for j, e in enumerate(d.tolist()):
        if fixed[j] and e < 0:
            prefix[j, 1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)
        elif not fixed[j]:
            suffix = f"e{e:+03d}".encode("ascii")
            exponent[j, 2 : 2 + len(suffix)] = np.frombuffer(suffix, dtype=np.uint8)

    def words(b):
        return b.view("<u8").astype(np.uint64)

    return types.SimpleNamespace(
        quads=quads,
        sig=sig,
        mask=words(mask).T.copy(),
        point=np.where(fixed & (d >= 0), d + 1, np.where(fixed, 17, 1)),
        whole=np.where(fixed & (d >= 0), d + 1, 0),
        prefix=words(prefix).ravel(),
        exponent=words(exponent).ravel(),
    )
