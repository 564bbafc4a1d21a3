"""Layer-potential operators and Dirichlet-to-Neumann maps on a plane curve.

Nystrom discretization on the uniform parameter grid of a CurveSample. The
single-layer operator (S phi)(x) = (1/2pi) int log|x-y| phi(y) ds(y) is
assembled with the periodic log-singularity splitting quadrature (exact
Fourier weights for the log(2 sin) part, trapezoid for the smooth
remainder), which is spectrally accurate for smooth densities. The adjoint
double-layer kernel is smooth on smooth curves and keeps plain trapezoid
weights; its diagonal is the curvature limit.

Both Dirichlet-to-Neumann operators come from the bordered solve B: g -> phi
with S phi + c = g, <phi, 1>_w = 0. The function S phi + c is harmonic off
the curve with trace g and bounded at infinity, and c has no normal
derivative, so the jump relations give

    N- = (-1/2 I + K*) B,     N+ = (+1/2 I + K*) B.

Both operators annihilate constants. N- is positive semidefinite and N+
negative semidefinite on mean-zero data. The bordered system is invertible
whatever the logarithmic capacity, also at capacity 1, where S is singular.
On a weighted-mean-zero density phi they give N-+ g = (K* -+ 1/2) phi for
g = P S phi, P = I - 1 w^T / sum(w), without B; interior_data forms g and
N- g from the K* phi its caller holds, so work on densities (both spectrum
routes, the plane eigenvalue derivative) factors nothing.

A DtNPair is its list of DtNBlocks: the even and the odd block of a
mirrored sample (CurveSample.mirrored), assembled on the rows 0 to N/2
alone, else the one block of all N rows. The maps, the products with S and
K*, farfield_log_coefficient and spectrum2d's eigensolves all run per
block. The quadrature weights of <f, g> = sum f g w come only from the
sample.
"""

import functools
import math

import numpy as np
import scipy.linalg.lapack

from .errors import GeometryError, NumericalError

# Smallest accepted LAPACK reciprocal 1-norm condition estimate of a factored
# system. The bordered single-layer systems of resolved smooth curves read
# 1e-7 to 1e-3; a singular single layer (capacity 1) reads about 1e-16.
_RCOND_FLOOR = 1e-12

# Entries of one row block of build_dtn: 32 rows at N = 1024, whose offsets
# dx and dy (256 KB each) stay in L2; up to N = 181 the matrix is one block.
# On the kite (1 thread, median of 40 interleaved calls), N = 1024 took
# 16.6-17.1 ms at 16-48 rows, 18.8 ms at 8, 19.5 ms at 128 and 23.2 ms in
# whole-matrix passes; at N = 128 one block took 0.28 ms (whole-matrix
# passes 0.31 ms, 32 rows 0.37 ms).
_BLOCK_ENTRIES = 1 << 15
# The contract of the bordered systems behind the DtN maps
_BORDERED = ("bem2d", "build_dtn", "single-layer system must be invertible")


class DtNPair:
    """S and K* on one curve sample as its symmetry blocks, the even and odd
    DtNBlock of a mirrored sample (rows 0 to N/2) or the one block of all N
    rows, read-only, with N- and N+ applied block by block."""

    def __init__(self, sample):
        self.sample = sample
        if not sample.mirrored:
            self.blocks = [DtNBlock(sample.weights, _assemble(sample))]
            return
        m = sample.n // 2
        # one allocation of the whole pair's size, half filled: the heap
        # keeps one chunk for either kind of sample (smaller blocks cost up
        # to 10 MB more peak RSS on spectrum_large)
        flat = np.empty(2 * sample.n ** 2)
        even = flat[:2 * (m + 1) ** 2].reshape(2, m + 1, m + 1)
        odd = flat[even.size:even.size + 2 * (m - 1) ** 2].reshape(
            2, m - 1, m - 1)
        self.blocks = [DtNBlock(sample.weights, even, slice(0, m + 1), 1.0),
                       DtNBlock(sample.weights, odd, slice(1, m), -1.0)]
        _assemble(sample, self.blocks)
        for block in self.blocks:   # read-only, as the one block's pair
            for a in (block.pair, block.single_layer, block.np_adjoint):
                a.setflags(write=False)

    def apply(self, g):
        """(N- g, N+ g) = ((K* - 1/2) phi, (K* + 1/2) phi), phi = B g, for one
        vector g or a block of columns: one solve per block g has a part in."""
        if len(self.blocks) == 1:
            return self.blocks[0].apply(g)
        both = np.zeros((2,) + np.shape(g))
        for block in self.blocks:
            y = block.restrict(g)
            if y.any():
                for part, total in zip(block.apply(y), both):
                    block.extend(part, total)
        return both[0], both[1]

    def product(self, name, phi):
        """A phi for A = S (name "single_layer") or K* ("np_adjoint") and
        node-value densities phi, one per column, from the blocks: A commutes
        with the mirror, so A phi sums E A_b y over the blocks, y the block's
        part of phi. A block skips the columns it holds no part of (the
        eigendensities of the other parity)."""
        if len(self.blocks) == 1:
            return getattr(self.blocks[0], name) @ phi
        cols = np.reshape(phi, (len(phi), -1))
        out = np.zeros(cols.shape)
        for block in self.blocks:
            y = block.restrict(cols)
            held = np.any(y, axis=0)
            out[:, held] += block.extend(getattr(block, name) @ y[:, held])
        return out.reshape(np.shape(phi))

    def interior_data(self, phi, k_star_phi):
        """g = P S phi and N- g = (K* - 1/2) phi for weighted-mean-zero
        densities phi (one per column), given k_star_phi = K* phi, which a
        caller may already hold (the block Arnoldi step stores it)."""
        w = self.sample.weights
        g = self.product("single_layer", phi)
        g -= (w @ g) / w.sum()
        return g, k_star_phi - 0.5 * phi


class DtNBlock:
    """S, K* and weights on the node values v = s R v of one mirror parity s:
    coordinates y at nodes (0 to N/2 even, with the constants; 1 to N/2 - 1
    odd), v = E y, S and K* as F A E (F restricts to nodes; filled row
    panel by row panel by fold), weights E^T diag(w) E; without nodes the
    whole sample's pair, E the identity. Its M-orthonormal mean-zero basis
    is Q = D^{-1} H[:, 1:], D = diag(sqrt(w)), H the reflector taking
    sqrt(w) to the e1 axis; Q = D^{-1} on the odd block, whose densities all
    are mean-zero."""

    def __init__(self, weights, pair, nodes=None, sign=1.0):
        self.nodes, self.sign, self.n = nodes, sign, len(weights)
        # the nodes as an index of node values: all N without a mirror
        self.rows = slice(None) if nodes is None else nodes
        self._join = np.add if sign > 0 else np.subtract   # node and mirror
        if nodes is not None:
            index = np.arange(self.n)[nodes]
            mirror = -index % self.n
            # a node that is its own mirror (0 and N/2) counts once in E
            weights = (weights[nodes] + weights[mirror]) * np.where(
                index == mirror, 0.5, 1.0)
        self.pair = pair
        self.single_layer, self.np_adjoint = pair
        self.weights = weights
        # H's vector; a block with the constants drops H's first coordinate
        self._root, self._skip = np.sqrt(weights), int(sign > 0)
        self._v = self._root / np.linalg.norm(self._root)
        self._v[0] += 1.0   # weights are positive: no cancellation

    @functools.cached_property
    def _lu(self):
        """LU of [[S, 1], [w^T, 0]] on the block with the constants, where S
        is singular at capacity 1; of S on the odd block (an empty border)."""
        m = len(self.weights)
        mat = np.zeros((m + self._skip,) * 2, order="F")   # factored in place
        mat[:m, :m] = self.single_layer
        mat[:m, m:], mat[m:, :m] = 1.0, self.weights
        return _checked_lu(mat, _BORDERED)

    def apply(self, y):
        """((K* - 1/2) phi, (K* + 1/2) phi) for the coordinates y of data,
        phi the density of the bordered solve S phi + c = y, <phi, 1>_w = 0
        (S phi = y on the odd block)."""
        rhs = np.zeros((len(y) + self._skip,) + np.shape(y)[1:], order="F")
        rhs[:len(y)] = y
        phi = _lapack("dgetrs", _BORDERED, *self._lu, rhs,
                      overwrite_b=1)[:len(y)]
        kphi = self.np_adjoint @ phi
        phi *= 0.5
        return kphi - phi, kphi + phi

    def fold(self, start, panel):
        """Fold the block's rows of a panel of S and K* (panel[:, i] holds
        the rows of node start + i) into its own F A E. The mirrors N - 1,
        N - 2, ... of the nodes 1, 2, ... are one reversed view: a gathered
        copy faulted in a fresh temporary per panel."""
        lo, hi = self.nodes.start, self.nodes.stop
        first, last = max(start, lo), min(start + panel.shape[1], hi)
        a = panel[:, first - start:last - start]
        out = self.pair[:, first - lo:last - lo]
        self._join(a[..., 1:hi], a[..., -1:-hi:-1], out=out[..., 1 - lo:])
        if lo == 0:   # nodes 0 and N/2 are their own mirrors
            out[..., 0] = a[..., 0]
            out[..., -1] *= 0.5

    def _reflect(self, a):
        """H a, one rank-1 update; a itself on the odd block."""
        if not self._skip:
            return a
        v = self._v
        return a - np.outer(v, (2.0 / (v @ v)) * (v @ a))

    def _mean_zero_block(self, mat):
        """Q^T mat Q, symmetrized; O(N^2)."""
        c = self._reflect(self._reflect(mat / np.outer(self._root, self._root))
                          .T).T[self._skip:, self._skip:]
        return 0.5 * (c + c.T)

    def pencil(self):
        """(A-, A+), spectrum2d.solve_plasmonic's DtN pencil on Q (P S = S on
        the odd block); exactly symmetric and Fortran-ordered, so both reach
        LAPACK uncopied."""
        w, s = self.weights, self.single_layer
        if self._skip:
            s = s - (w @ s) / w.sum()
        form = s.T * w
        pair = self._mean_zero_block(form @ self.np_adjoint)
        mass = 0.5 * self._mean_zero_block(form)
        return (pair - mass).T, (-pair - mass).T

    def coordinates(self, phi):
        """Q^T M phi of node-value densities phi, one column each."""
        x = self.restrict(phi).reshape(len(self._root), -1)
        return self._reflect(self._root[:, None] * x)[self._skip:]

    def densities(self, y):
        """Node values E Q y of the columns of y."""
        # Fortran order, as eigh's y: the layout fixes how v @ x sums
        x = np.zeros((len(self._root), y.shape[1]), order="F")
        x[self._skip:] = y
        return self.extend(self._reflect(x) / self._root[:, None])

    def restrict(self, g):
        """Coordinates of the block's part (g + s R g) / 2 of node values g."""
        if self.nodes is None:
            return g
        lo, m = self.nodes.start, self.n // 2
        y = np.array(g[self.nodes], float, order="C")
        inner = y[1 - lo:m - lo]
        self._join(inner, g[:m:-1], out=inner)
        inner *= 0.5
        return y

    def extend(self, y, total=None):
        """Node values E y of coordinates y, or of each block of coordinates
        stacked in y (V y over K* V y) alike; added in place to total."""
        if self.nodes is None:
            return y
        lo, m, rows = self.nodes.start, self.n // 2, len(self.weights)
        part = y.reshape((len(y) // rows, rows) + y.shape[1:])
        shape = (len(part), self.n) + y.shape[1:]
        v = np.zeros(shape, y.dtype) if total is None else total.reshape(shape)
        mirror, inner = v[:, :m:-1], part[:, 1 - lo:m - lo]
        if total is None:
            v[:, self.nodes] = part
            np.multiply(inner, self.sign, out=mirror)
        else:
            v[:, self.nodes] += part
            self._join(mirror, inner, out=mirror)
        return v.reshape((len(part) * self.n,) + y.shape[1:])


def _log_quadrature_weights(n):
    """Weights w_d for int_0^{2pi} log(2 |sin((t - s)/2)|) f(s) ds.

    Exact for trigonometric polynomials of degree < n/2 on the uniform grid;
    the classical Kussmaul-Martensen construction. The weights are the real
    DFT -(2pi/n) sum_{m=1}^{n/2} c_m cos(m t_d) / m, with c_m = 1 below n/2
    and c_{n/2} = 1/2, so one inverse FFT of length n (even) gives them.
    """
    return -math.pi * np.fft.irfft(
        np.concatenate([[0.0], 1.0 / np.arange(1, n // 2 + 1)]), n)


def _lapack(routine, error, *args, **options):
    """The outputs, but info, of the scipy.linalg.lapack routine named
    routine (one output bare); a nonzero info raises NumericalError(*error)."""
    *out, info = getattr(scipy.linalg.lapack, routine)(*args, **options)
    if info != 0:
        raise NumericalError(*error, "%s info=%d" % (routine, info))
    return out[0] if len(out) == 1 else out


@functools.lru_cache(maxsize=8)
def _syevr_work(k):
    """syevr's optimal work sizes on k x k matrices, eigh's and eigvalsh's:
    the default ones pick another block size of the reduction and move the
    last bits."""
    lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(k, lower=1)
    return int(lwork), int(liwork)


@functools.lru_cache(maxsize=8)
def _log_circulant(n):
    """The circulant [c[(i - j) % n]] of S's log weights and its smooth
    remainder's circulant term, c = w / 2pi, as a read-only strided view
    (row i at n - 1 - i of c reversed twice over), not an (N, N) copy."""
    w = _log_quadrature_weights(n)
    w[1:] -= (2.0 * math.pi / n) * np.log(
        2.0 * np.sin(math.pi * np.arange(1, n) / n))
    c = w / (2.0 * math.pi)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate([c[::-1], c[:0:-1]]), n)[::-1]


def _checked_lu(mat, error):
    """getrf's LU of mat (in place if Fortran-ordered), refused by
    NumericalError(*error) when LAPACK's condition estimate is tiny.

    The reciprocal 1-norm condition number comes from gecon on the factors,
    O(N^2) on top of the O(N^3) factorization; lange sums each column in
    row order, as numpy's 1-norm of a C-ordered matrix does.
    """
    anorm = scipy.linalg.lapack.dlange("1", mat)
    lu, piv = _lapack("dgetrf", error, mat, overwrite_a=1)
    rcond = _lapack("dgecon", error, lu, anorm, norm="1")
    if not rcond >= _RCOND_FLOOR:
        raise NumericalError(*error, "rcond=%.3g < %.0e"
                             % (rcond, _RCOND_FLOOR))
    return lu, piv


def build_dtn(sample):
    """The DtNPair of a curve sample, its blocks assembled (_assemble);
    nothing is factored until the maps are first applied."""
    return DtNPair(sample)


def _assemble(sample, blocks=()):
    """S and K* of a curve sample from one set of node offsets x_i - x_j and
    r^2 = |x_i - x_j|^2: the read-only (2, N, N) pair, or, given the even
    and odd DtNBlock of a mirror-symmetric sample, only the rows 0 to N/2,
    each row panel folded into the blocks while it is in cache.

    S uses the log-split quadrature: the smooth remainder
    log(|x_i - x_j| / (2 |sin((t_i - t_j)/2)|)) is (1/2) log r^2 minus a
    circulant term, which joins the log weights; its diagonal limit is
    log(speed). On a circle of radius R constants map to R log R, so S is
    singular when the logarithmic capacity of the curve is 1.

    K* has the smooth kernel <x_i - x_j, n_i> / r^2 with the curvature
    diagonal; on the unit circle it maps constants to 1/2 and kills
    mean-zero densities. Both are written in place one panel of rows at a
    time; each panel's offsets are cache-sized temporaries, and r^2 lives
    in the panel's rows of S until their log replaces it. A row's entries
    do not depend on the panels, so the blocks are bitwise the fold of the
    whole pair's rows.

    S and K* are the two slices of one (2, N, N) array. glibc keeps up to
    twice its largest freed block in the heap, so the 16 MB pair stays for
    the next call (N = 1024), where two 8 MB arrays were trimmed and
    faulted in again: 2,000-2,600 minor faults per spectrum job, now none to
    N = 1448. The two blocks of a mirror-symmetric sample fill 8.4 MB of
    one allocation of the same 16 MB (DtNPair.blocks), and their rows pass
    through one reused (2, 32, N) panel.
    """
    n = sample.n
    (x0, x1), (n0, n1) = (np.ascontiguousarray(sample.nodes.T),
                          np.ascontiguousarray(sample.normals.T))
    speed = sample.speed
    circ = _log_circulant(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    stop = n // 2 + 1 if blocks else n
    pair = np.empty((2, min(rows, stop), n) if blocks else (2, n, n))
    for start in range(0, stop, rows):
        rs = slice(start, min(start + rows, stop))
        s, k = panel = pair[:, :rs.stop - start] if blocks else pair[:, rs]
        # x_i - x_j; a repeat and an in-place subtract outran
        # np.subtract.outer, which buffers its operands
        dx = np.repeat(x0[rs, None], n, axis=1)
        dx -= x0
        dy = np.repeat(x1[rs, None], n, axis=1)
        dy -= x1
        np.multiply(dy, n1[rs, None], out=k)
        dy *= dy
        np.multiply(dx, dx, out=s)
        s += dy
        dx *= n0[rs, None]
        k += dx
        np.fill_diagonal(s[:, rs], speed[rs] ** 2)
        k /= s
        np.log(s, out=s)
        s *= 0.5 / n
        s += circ[rs]
        s *= speed
        # kernel diagonal: limit is half the standard (counterclockwise)
        # curvature, i.e. minus half the signed curvature in the
        # outward-normal convention
        np.fill_diagonal(k[:, rs], -0.5 * sample.curvature[rs])
        k *= speed
        k /= n
        for block in blocks:
            block.fold(start, panel)
    pair.setflags(write=False)
    return pair


def _point_in_polygon(point, nodes):
    """Crossing-parity test against the sampled polygon."""
    x, y = point
    px = nodes[:, 0]
    py = nodes[:, 1]
    qx = np.roll(px, -1)
    qy = np.roll(py, -1)
    crosses = ((py > y) != (qy > y)) & (
        x < px + (y - py) * (qx - px) / np.where(qy != py, qy - py, 1.0))
    return int(np.count_nonzero(crosses)) % 2 == 1


def compute_g0(dtn, y0=None):
    """Boundary function characterizing decaying exterior data.

    g0 is the normal derivative of the unique exterior harmonic function that
    vanishes on the boundary and grows like (1/2pi) log|x|; a mean-zero datum
    g extends to a decaying exterior harmonic exactly when <g, g0> = 0.
    Built from the Newton potential of an interior point (default: node
    centroid) minus its bounded exterior extension, then normalized so the
    boundary integral of g0 is one. The result does not depend on the chosen
    interior point.
    """
    sample = dtn.sample
    if y0 is None:
        total = sample.weights.sum()
        y0 = (sample.nodes * sample.weights[:, None]).sum(axis=0) / total
    y0 = np.asarray(y0, dtype=float)
    if not _point_in_polygon(y0, sample.nodes):
        raise GeometryError("bem2d", "compute_g0",
                            "base point must lie inside the curve",
                            "y0=%s" % y0.tolist())
    diff = sample.nodes - y0[None, :]
    r2 = np.einsum("ij,ij->i", diff, diff)
    boundary_vals = 0.25 * np.log(r2) / math.pi
    dn_newton = np.einsum("ij,ij->i", sample.normals, diff) / (2.0 * math.pi * r2)
    g0 = dn_newton - dtn.apply(boundary_vals)[1]
    flux = float(np.dot(g0, sample.weights))
    if not abs(flux) >= 1e-8:   # a NaN flux is refused too
        raise NumericalError("bem2d", "compute_g0",
                             "total flux of the log-growing solution must be 1",
                             "flux=%.3g" % flux)
    return g0 / flux


def farfield_log_coefficient(dtn, g):
    """Coefficient of log|x| in the plain single-layer exterior extension.

    Vanishes (to quadrature accuracy) exactly when <g, g0> = 0; mean-zero
    densities produce bounded extensions. It also vanishes exactly when the
    constant c of the bordered solve S phi + c = g behind build_dtn does,
    since then both solves give the same density. Needs the plain single
    layer to be invertible, so it raises NumericalError on curves of
    logarithmic capacity 1. Solved on the block with the constants alone:
    the odd part of the density has no weighted mean.
    """
    block = dtn.blocks[0]
    error = ("bem2d", "farfield_log_coefficient", "plain single layer must "
             "be invertible; logarithmic capacity is 1")
    lu = _checked_lu(np.asfortranarray(block.single_layer), error)
    phi = _lapack("dgetrs", error, *lu,
                  block.restrict(np.asarray_chkfinite(g, dtype=float)))
    return float(np.dot(phi, block.weights)) / (2.0 * math.pi)
