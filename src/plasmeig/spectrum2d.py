"""Plasmonic eigenvalues of a plane curve.

Computes permittivities eps for which the transmission problem

    Laplace u = 0 off the curve,   u continuous,
    eps dn(u-) + dn(u+) = 0,       u bounded at infinity

has a nontrivial solution, i.e. (eps N- + N+) g = 0 on mean-zero boundary
data. Two routes are provided: the DtN route (on large symmetry blocks a
block Arnoldi step on K*, grown until it settles the selection; else, or
past its cap, a symmetric eigensolve of the DtN pencil on mean-zero
densities) and the classical Neumann-Poincare route through every
eigenvalue of K*. Every solve runs per symmetry block of
bem2d.DtNPair.blocks, the block step as one resumable run per block with
the selection made over their union. All find eigendensities phi from S
and K* alone and share one normalization of phi and g = P S phi.
Eigenvalues accumulate at 1 from both sides; the selected ones are the num
farthest from 1, reported in ascending order.
"""

import numpy as np
import scipy.linalg

from .bem2d import _BLOCK_ENTRIES, _lapack
from .errors import ConfigError, DegeneracyError, EInfinitySignal, NumericalError

_DENOM_TOL = 1e-12
_CRIT_STEP = 1e-5
_CRIT_DIRECTIONS = 20
_CLUSTER_TAIL = 20
_FLUX_COS = 1e-6
_TIE = 1e3 * np.finfo(float).eps
# The block step finds the k = share + margin K* eigenvalues of largest
# modulus of each symmetry block, share = ceil(num / blocks), in about
# k + 20 + excess passes over its r^2 entries plus a fixed cost; the dense
# pencil costs about r^3 per block. It runs where the largest block has
# r >= _ROWS_PER_VALUE (share + _ROWS_OFFSET) rows and _BLOCK_STEP_ROWS,
# the floor for one block or two. A failed selection guard grows a run's k
# by one block. The cap, the dimension k + 160 for the first k, comes from
# the spectrum: K*'s eigenvalues decay at a rate set by the curve, so a
# curve needs k plus an excess that does not grow with k. On ellipses at
# k = 13 to 52 the excess was 20-35 at aspect 2, 68-75 at 10, 104-108 at
# 20, 124-132 at 30 and 146-152 at 40; 160 covers them all.
_ARNOLDI_MARGIN = 12
_BLOCK_STEP_ROWS = (128, 160)
_ROWS_PER_VALUE = 2
_ROWS_OFFSET = 55
_BLOCK = 8
_BLOCK_TOL = 50.0
# follow_branch: the inverse-iteration solves before the dense pencil decides,
# and the accepted residual of the followed pair, relative to ||A- z|| +
# mu ||A+ z||. A Ritz value errs by about the squared residual over the gap,
# so 1e-11 leaves it at roundoff. On the 2D perturb test inputs at N = 128
# the pair got there in 2-4 solves (444 shifted curves; the residual floor is
# 2-4 u); 3 reached the cap, where the shift lay among the eigenvalues
# accumulating at 1.
_FOLLOW_SOLVES = 8
_FOLLOW_TOL = 1e-11
_FOLLOW_ROWS_PER_VALUE = 2.75


class PlasmonicSpectrum:
    """Selected plasmonic eigenvalues with eigenfunctions and diagnostics.

    eigenvalues are ascending; eigenfunctions has one column g per
    eigenvalue, normalized so <g, N- g> = 1, and densities the
    weighted-mean-zero phi with g = P S phi, normalized with them.
    residuals are the weighted norms ||(eps N- + N+) g||.
    """

    def __init__(self, eigenvalues, eigenfunctions, densities, residuals,
                 route, n):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenfunctions = np.asarray(eigenfunctions, dtype=float)
        self.densities = np.asarray(densities, dtype=float)
        self.residuals = np.asarray(residuals, dtype=float)
        self.route = route
        self.n = n

    def clustering_stats(self):
        """Tail statistics of |eps - 1| in decreasing order.

        The distances to 1 beyond index _CLUSTER_TAIL quantify how fast the
        computed spectrum accumulates at the limit point.
        """
        d = np.sort(np.abs(self.eigenvalues - 1.0))[::-1]
        tail = d[_CLUSTER_TAIL:]
        if len(tail) == 0:
            return {"tail_mean": 0.0, "tail_max": 0.0}
        return {"tail_mean": float(tail.mean()), "tail_max": float(tail.max())}

    def to_json_dict(self):
        return {
            "N": self.n,
            "route": self.route,
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "clustering": self.clustering_stats(),
        }

    def csv_text(self):
        lines = ["k,epsilon,residual"]
        for k, (e, r) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append("%d,%s,%s" % (k, repr(float(e)), repr(float(r))))
        return "\n".join(lines) + "\n"


def _pencil_eigh(aminus, aplus, operation, **options):
    """sygvd (eigh's driver) of a plasmonic pencil (A-, A+) or of its
    projection on a block, whose contracts are A+ positive definite and
    every mu = 1/eps positive (a NaN is refused)."""
    mu, y = _lapack("dsygvd", ("spectrum2d", operation,
                               "exterior energy form must be positive "
                               "definite on mean-zero data"),
                    aminus, aplus, uplo="L", **options)
    if not np.all(mu > 0.0):
        bad = int(np.count_nonzero(~(mu > 0.0)))
        raise NumericalError("spectrum2d", operation,
                             "pencil eigenvalues must be positive "
                             "(eps = 1/mu > 0)", "%d nonpositive or NaN" % bad)
    return mu, y


def check_num(num, n, operation):
    """Refuse a count num outside 1..n-1, the mean-zero subspace dimension."""
    if num < 1:
        raise ConfigError("spectrum2d", operation,
                          "num must be a positive integer", "num=%d" % num)
    if num > n - 1:
        raise ConfigError("spectrum2d", operation,
                          "num must not exceed the mean-zero subspace dimension",
                          "num=%d, N=%d" % (num, n))


def select_far_from_one(eps, num):
    """Indices of the num eps farthest from 1, ordered by ascending eps."""
    keep = np.argsort(-np.abs(eps - 1.0), kind="stable")[:num]
    return keep[np.argsort(eps[keep], kind="stable")]


def _real_parts(lam, vectors):
    """The vectors of K* eigenvalues lam as real densities: a
    complex-conjugate pair (a double eigenvalue split by roundoff) gives the
    real and imaginary parts of its vector."""
    return np.where(lam.imag < 0.0, vectors.imag, vectors.real)


def _k_star_pairs(sample, lam, phi, num, operation):
    """eps and densities of the num K* eigenpairs (lam, phi) farthest from 1,
    phi real (_real_parts), gathered once.

    The one density with a flux cosine above _FLUX_COS (eigenvalue 1/2, eps
    infinite) is dropped; every other lam must satisfy |lam| < 1/2, i.e.
    eps > 0. Rows of phi past N (K* phi, stacked below phi by the block
    step) are selected alike."""
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise NumericalError("spectrum2d", operation,
                             "K* spectrum must be real on smooth curves",
                             "max imag %.3g" % float(np.max(np.abs(lam.imag))))
    lam = lam.real
    w = sample.weights
    top = phi[:len(w)]
    flux = np.abs(w @ top) / (np.linalg.norm(w) * np.linalg.norm(top, axis=0))
    carrier = flux > _FLUX_COS
    if np.count_nonzero(carrier) != 1:
        raise NumericalError("spectrum2d", operation, "exactly one K* "
                             "eigendensity, that of 1/2, carries flux; extra "
                             "carriers mean N does not resolve the curve",
                             "found %d at N=%d, largest extra flux cosine %.3g"
                             % (np.count_nonzero(carrier), len(w),
                                np.sort(flux)[-2]))
    rest = np.flatnonzero(~carrier)
    lam = lam[rest]
    if np.any(np.abs(1.0 - 2.0 * lam) < _DENOM_TOL):
        raise DegeneracyError("spectrum2d", operation, "K* eigenvalue 1/2 "
                              "of multiplicity > 1 maps to no finite eps")
    if np.any(np.abs(lam) >= 0.5):
        raise NumericalError("spectrum2d", operation, "|lam| < 1/2 (eps > 0)",
                             "max |lam| %.17g" % np.max(np.abs(lam)))
    eps = (1.0 + 2.0 * lam) / (1.0 - 2.0 * lam)
    keep = select_far_from_one(eps, num)
    return eps[keep], phi[:, rest[keep]]


def _selection_complete(lam, eps):
    """Whether eps, selected from the largest-modulus K* eigenvalues lam, are
    the farthest from 1 of the whole spectrum: an eigenvalue not in lam has
    modulus m <= min |lam|, so |eps - 1| <= 4m / (1 - 2m), which must not
    pass the smallest selected |eps - 1| by more than _TIE (1 + |eps - 1|)
    (near-circle spectra tie at roundoff, lam about 1e-14)."""
    m = np.min(np.abs(lam))
    gap = np.min(np.abs(eps - 1.0))
    return 4.0 * m / (1.0 - 2.0 * m) <= gap + _TIE * (1.0 + gap)


def _project_out(basis, x):
    """One classical Gram-Schmidt pass: x minus its projection onto the
    orthonormal columns of basis, in place; the coefficients removed."""
    c = basis.T @ x
    x -= basis @ c
    return c


def _block_krylov(k_star, k, tol):
    """Block Arnoldi on k_star (fixed start block), run to be resumed: at
    each converged check it yields the k Ritz values lam of largest modulus
    and their vectors V y stacked over K* V y (2n x k, _real_parts);
    resumed, it grows k by one block. It ends past the dimension k + 160
    for the first k (at most n - 8, so V and its next block stay
    orthonormal). k_star is one symmetry block's K* (_block_step).

    K* V_j is formed in row panels of _BLOCK_ENTRIES entries and kept, raw,
    beside the basis V in one column-major allocation, so K* phi = (K* V) y
    costs no further pass over K*: one real product on y.view(float) gives
    V y over (K* V) y. Each column of K* V_j is orthogonalized twice (against
    the earlier blocks at once and within its block, then against all). A
    column that K* maps into the basis, to tol (K* has rank 1 on the
    circle), is deflated: a random direction replaces it, with a zero
    subdiagonal. Ritz pairs come from the block Hessenberg H from the
    dimension k + 20 on, from its Schur form H = Z T Z^T (permuted, not
    scaled, which would spoil the vectors of roundoff eigenvalues) and
    y = Z x for T x = x lam, and converge at residuals up to tol. A failed
    check at residual ratio r skips log10(r) / 2 blocks (residuals fell
    about two decades a block), a resumed run one block.
    """
    n, b = len(k_star), _BLOCK
    check = b * -(-(k + 20) // b)
    cap = b * min(-(-(k + 160) // b), n // b - 1)
    rows = max(1, _BLOCK_ENTRIES // n)
    rng = np.random.default_rng(0)
    krylov = np.empty((2 * n, cap + b), order="F")
    basis, products = krylov[:n], krylov[n:]
    hess = np.zeros((cap + b, cap))
    basis[:, :b] = np.linalg.qr(rng.standard_normal((n, b)))[0]
    for m in range(b, cap + 1, b):
        for r in range(0, n, rows):
            np.matmul(k_star[r:r + rows], basis[:, m - b:m],
                      out=products[r:r + rows, m - b:m])
        block = basis[:, m:m + b]
        block[...] = products[:, m - b:m]
        hess[:m, m - b:m] = _project_out(basis[:, :m], block)
        for i in range(b):
            x, col = block[:, i], hess[:, m - b + i]
            col[m:m + i] = _project_out(basis[:, m:m + i], x)
            col[:m + i] += _project_out(basis[:, :m + i], x)
            col[m + i] = np.linalg.norm(x)
            if col[m + i] <= tol:
                col[m + i] = 0.0
                x[...] = rng.standard_normal(n)
                for _ in range(2):
                    _project_out(basis[:, :m + i], x)
            x /= np.linalg.norm(x)
        if m == check:
            h = hess[:m, :m]
            t, z = scipy.linalg.schur(h)
            lam, x = scipy.linalg.eig(t)
            top = np.argsort(-np.abs(lam), kind="stable")[:k]
            lam, y = lam[top], z @ x[:, top]
            y /= np.linalg.norm(y, axis=0)
            worst = np.max(np.linalg.norm(
                hess[m:m + b, m - b:m] @ y[m - b:], axis=0)) / tol
            if worst <= 1.0 and np.all(
                    np.linalg.norm(h @ y - y * lam, axis=0) <= tol):
                y = np.ascontiguousarray(y)
                yield lam, _real_parts(lam, (krylov[:, :m] @ y.view(float))
                                       .view(y.dtype))
                k += b
            check += b * max(1, int(np.log10(max(worst, 1.0))) // 2)


def _block_step(dtn, num):
    """The num eps farthest from 1 and densities phi (2N x num, K* phi below
    phi) that _k_star_pairs selects over the union of one _block_krylov run
    per symmetry block, each from k = ceil(num / blocks) + margin; None once
    a run ends unconverged. Each run takes the tolerance _BLOCK_TOL u
    max_b ||K*_b||_1 (the odd block of a circle is roundoff), and a run
    whose smallest kept |lam| fails _selection_complete against the union's
    selection is resumed; the others keep their selection."""
    blocks = dtn.blocks
    norm = max(scipy.linalg.norm(b.np_adjoint, 1, check_finite=False)
               for b in blocks)
    k = -(-num // len(blocks)) + _ARNOLDI_MARGIN
    runs = [_block_krylov(b.np_adjoint, k,
                          _BLOCK_TOL * np.finfo(float).eps * norm)
            for b in blocks]

    found = [next(run, None) for run in runs]
    while all(f is not None for f in found):
        union = np.concatenate([lam for lam, _ in found])
        if len(blocks) == 1:   # uncopied: the step's largest array
            phi = found[0][1]
        else:   # node values of each run's vectors in turn, not all at once
            phi, end = np.empty((2 * dtn.sample.n, len(union))), 0
            for block, (_, v) in zip(blocks, found):
                end += v.shape[1]
                phi[:, end - v.shape[1]:end] = block.extend(v)
        eps, phi = _k_star_pairs(dtn.sample, union, phi, num,
                                 "solve_plasmonic")
        short = [not _selection_complete(lam, eps) for lam, _ in found]
        if not any(short):
            return eps, phi
        found = [next(run, None) if grow else f
                 for run, f, grow in zip(runs, found, short)]
    return None


def _takes_block_step(blocks, num, per_value=_ROWS_PER_VALUE):
    """Whether the block step pays for num values on the symmetry blocks."""
    return max(len(b.weights) for b in blocks) >= max(
        _BLOCK_STEP_ROWS[len(blocks) - 1],
        per_value * (-(-num // len(blocks)) + _ROWS_OFFSET))


def solve_plasmonic(dtn, num=20):
    """DtN route: the num eigenvalues eps farthest from 1, from S and K*.

    When _takes_block_step, _block_step finds as many K* eigenvalues lam
    of largest modulus as _selection_complete needs, one _block_krylov run
    per symmetry block, and maps them as np_route does (|lam| < 1/2 for
    each kept one); past a run's cap the pencil below solves.

    The pencil: a mean-zero density phi has the mean-zero datum g = P S phi,
    with P = I - 1 w^T / sum(w), and N-+ g = (K* -+ 1/2) phi. So eps = 1/mu
    for A- = Q^T (PS)^T M (K* - 1/2) Q, A+ = -Q^T (PS)^T M (K* + 1/2) Q on
    the M-orthonormal mean-zero basis Q (O(N^2), DtNBlock.pencil),
    congruent to the DtN pencil on mean-zero data, so A+ is positive
    definite and mu > 0; the discrete Calderon identity S K* = K S makes
    both forms symmetric. Each symmetry block solves its own pencil, and
    the selection is made over all blocks. Either way every
    eigenfunction must have positive interior energy, and nothing is
    factored."""
    check_num(num, dtn.sample.n, "solve_plasmonic")
    if _takes_block_step(dtn.blocks, num):
        pairs = _block_step(dtn, num)
        if pairs is not None:
            return _spectrum(dtn, pairs[0], *np.split(pairs[1], 2), "dtn")
    eps, phi = [], []
    for block in dtn.blocks:
        mu, y = _pencil_eigh(*block.pencil(), "solve_plasmonic",
                             overwrite_a=True, overwrite_b=True)
        # each block's num farthest from 1 hold its share of the selection
        keep = select_far_from_one(1.0 / mu, num)
        eps.append(1.0 / mu[keep])
        phi.append(block.densities(y[:, keep]))
    eps = np.concatenate(eps)
    keep = select_far_from_one(eps, num)
    phi = np.take(np.hstack(phi), keep, axis=1)   # C order, as one block
    return _spectrum(dtn, eps[keep], phi, dtn.product("np_adjoint", phi),
                     "dtn")


def follow_branch(dtn, eps, start, branch, num):
    """The eigenvalue of dtn's curve on the branch of the density branch,
    from a guess eps of it; start holds densities, one per column, whose
    span is near the branch and its neighbours.

    Where the block step on every block pays against one block's pencil,
    LU and solves (_FOLLOW_ROWS_PER_VALUE, fitted at 2.6-3.2), the num
    eigenpairs of solve_plasmonic are read by their A+-weighted overlap
    with branch, <x, y>+ = -<P S x, (K* + 1/2) y> on mean-zero densities.
    Else each block holding a nonzero part of branch follows it on its own
    pencil from its parts of start (_follow_in_block), by decreasing A+
    norm of that part, skipped once the best overlap found reaches it
    (Cauchy-Schwarz). The pair of largest overlap wins, not the value
    nearest eps, so branches that cross between the guess and the answer
    are told apart; A+ is block-diagonal, so the blocks' overlaps compare.

    The densities are node values; on a shifted sample whose nodes are the
    images of the base nodes (perturbed_sample), base densities carry over
    node for node."""
    blocks, w = dtn.blocks, dtn.sample.weights
    # densities on a mirrored sample have exact parity (DtNBlock.extend)
    held = [b for b in blocks if b.restrict(branch).any()]
    if not held:
        raise ConfigError("spectrum2d", "follow_branch",
                          "branch must be a nonzero density")
    if _takes_block_step(blocks, num, _FOLLOW_ROWS_PER_VALUE * len(blocks)):
        spec = solve_plasmonic(dtn, num)
        flux = w * (dtn.product("np_adjoint", branch) + 0.5 * branch)
        # at unit interior energy <phi, phi>+ = eps <g, N- g> = eps
        return float(spec.eigenvalues[np.argmax(
            np.abs(flux @ spec.eigenfunctions) / np.sqrt(spec.eigenvalues))])
    norms = [0.0] * len(held)
    if len(held) > 1:   # <x, x>+ = -<P S x, (K* + 1/2) x>, x each held part
        norms = []
        for b in held:   # P: the mean-zero projection, on the even block
            mean = b.weights * (b.sign > 0) / b.weights.sum()
            x = b.restrict(branch)
            x = x - mean @ x
            s = b.single_layer @ x
            norms.append(np.sqrt(max(0.0, -(b.weights * (s - mean @ s))
                                     @ (b.np_adjoint @ x + 0.5 * x))))
    best = (-np.inf, 0.0)
    for norm, b in sorted(zip(norms, held), key=lambda pair: -pair[0]):
        if norm > best[0]:
            best = max(best, _follow_in_block(b, eps, branch, start))
    return float(1.0 / best[1])


def _follow_in_block(home, eps, branch, start):
    """(overlap, mu) of the pair of home's pencil of largest A+-weighted
    overlap with the density branch, by block inverse iteration from the
    nonzero parts in home of the start densities: one LU of A- - A+ / eps,
    then up to _FOLLOW_SOLVES solves, with Rayleigh-Ritz on the block after
    each from the second on, until the pair's residual is below
    _FOLLOW_TOL; else, or with no start part, by the dense eigh of the same
    pencil."""
    aminus, aplus = home.pencil()
    target = aplus @ home.coordinates(branch)[:, 0]
    start = home.coordinates(start)
    start = np.compress(np.any(start, axis=0), start, 1)

    def closest(vectors, mu):
        # vectors are A+-orthonormal; (overlap, mu) of the pick, its index
        overlaps = np.abs(vectors.T @ target)
        pick = int(np.argmax(overlaps))
        return (overlaps[pick], mu[pick]), pick

    if start.size:
        error = ("spectrum2d", "follow_branch",
                 "shifted pencil must be invertible")
        lu = _lapack("dgetrf", error, aminus - aplus / eps, overwrite_a=1)
        block = aplus @ start
        for solve in range(_FOLLOW_SOLVES):
            y = np.linalg.qr(_lapack("dgetrs", error, *lu, block))[0]
            block = aplus @ y
            if solve == 0:
                # from a start block O(h) off and a guess O(h^2) off, one
                # solve leaves O(h^3 / gap): above _FOLLOW_TOL at
                # finite-difference h
                continue
            ay = aminus @ y
            mu, c = _pencil_eigh(y.T @ ay, y.T @ block, "follow_branch")
            found, pick = closest(y @ c, mu)
            az, bz = ay @ c[:, pick], block @ c[:, pick]
            if np.linalg.norm(az - mu[pick] * bz) <= _FOLLOW_TOL * (
                    np.linalg.norm(az) + mu[pick] * np.linalg.norm(bz)):
                return found
    mu, y = _pencil_eigh(aminus, aplus, "follow_branch", overwrite_a=True,
                         overwrite_b=True)
    return closest(y, mu)[0]


def np_route(dtn, num=20):
    """Neumann-Poincare route: eps = (1 + 2 lam) / (1 - 2 lam) from every
    eigenvalue lam of K* (dense eig per symmetry block). The K*
    eigendensities are mean-zero up to the quadrature error of the Gauss
    integral w^T K* = w^T / 2 and are normalized like the DtN route's, so
    nothing is factored here either."""
    check_num(num, dtn.sample.n, "np_route")
    lam, phi = zip(*(scipy.linalg.eig(b.np_adjoint) for b in dtn.blocks))
    lam = np.concatenate(lam)
    phi = _real_parts(lam, np.hstack([b.extend(p)
                                      for b, p in zip(dtn.blocks, phi)]))
    eps, phi = _k_star_pairs(dtn.sample, lam, phi, num, "np_route")
    return _spectrum(dtn, eps, phi, dtn.product("np_adjoint", phi), "np")


def _spectrum(dtn, eps, phi, k_star_phi, route):
    """The spectrum of eigendensities phi scaled to unit interior energy
    <g, N- g> = 1 of (g, N- g) = dtn.interior_data(phi, k_star_phi);
    (eps N- + N+) g = (eps + 1) N- g + phi."""
    w = dtn.sample.weights
    g, dng = dtn.interior_data(phi, k_star_phi)
    energy = w @ (g * dng)
    if not np.all(energy > 0.0):
        raise NumericalError(
            "spectrum2d", "solve_plasmonic" if route == "dtn" else "np_route",
            "interior energy of an eigenfunction must be positive",
            "got %.3g" % energy.min())
    scale = 1.0 / np.sqrt(energy)
    r = (dng * (eps + 1.0) + phi) * scale
    return PlasmonicSpectrum(eps, g * scale, phi * scale,
                             np.sqrt(w @ (r * r)), route, dtn.sample.n)


def rayleigh(dtn, g):
    """Rayleigh quotient -<g, N+ g> / <g, N- g> on mean-zero data g, or
    one per column of g, from one apply.

    Stationary points are the plasmonic eigenvalues. A vanishing interior
    energy <g, N- g> means g is constant, where the quotient degenerates;
    it is refused when small against <g, g> / |curve length|, a scale no
    rescaling of g or the curve moves.
    """
    w = dtn.sample.weights
    g = np.asarray(g, dtype=float)
    nminus, nplus = dtn.apply(g)
    wg = (w * g.T).T
    quotients = _quotient(np.sum(wg * nminus, axis=0),
                          np.sum(wg * nplus, axis=0),
                          np.sum(wg * g, axis=0), w.sum())
    return float(quotients) if g.ndim == 1 else quotients


def _quotient(minus, plus, mass, length):
    """rayleigh's -plus / minus from <g, N- g>, <g, N+ g> and <g, g>."""
    if np.any(np.abs(minus) * length <= _DENOM_TOL * mass):
        raise EInfinitySignal("spectrum2d", "rayleigh",
                              "quotient undefined on (near-)constant data "
                              "with zero interior energy",
                              "<g,N-g>=%.3g" % np.min(np.abs(minus)))
    return -plus / minus


def criticality_residual(dtn, g, seed=0):
    """Max first-order variation of the Rayleigh quotient at g, or one per
    column of g, the i-th probed from the seed seed + i.

    Probes _CRIT_DIRECTIONS random weighted-mean-zero directions v with
    central differences of step _CRIT_STEP, from one apply to every column
    and its directions: each form <p, M p> of p = g +- s v is expanded by
    bilinearity, with no symmetry of M assumed; near zero at eigenfunctions
    since they are critical points.
    """
    w = dtn.sample.weights
    base = np.asarray(g, dtype=float)
    cols = base.reshape(len(base), -1)
    k, step = cols.shape[1], _CRIT_STEP
    dirs = np.empty((len(base), k, _CRIT_DIRECTIONS))
    for i, col in enumerate(cols.T):
        scale = np.sqrt(float(col @ (w * col)))
        v = np.random.default_rng(seed + i).standard_normal(
            (_CRIT_DIRECTIONS, len(col))).T
        v -= (w @ v) / w.sum()
        v *= scale / np.sqrt(w @ (v * v))
        dirs[:, i] = v
    x = np.hstack([cols, dirs.reshape(len(base), -1)])
    wg, wv = w[:, None] * cols, w[:, None, None] * dirs
    probes = []   # [M][sign]: <p, M p> at p = g + sign s v, M = N-, N+, I
    for m in (*dtn.apply(x), x):
        mg, mv = m[:, :k], m[:, k:].reshape(dirs.shape)
        gg = np.sum(wg * mg, axis=0)[:, None]
        cross = (np.einsum("ik,ikd->kd", wg, mv)
                 + np.einsum("ikd,ik->kd", wv, mg))
        vv = np.einsum("ikd,ikd->kd", wv, mv)
        probes.append([gg + sign * step * cross + step * step * vv
                       for sign in (1.0, -1.0)])
    plus, minus = (_quotient(*forms, w.sum()) for forms in zip(*probes))
    worst = np.max(np.abs(plus - minus), axis=1) / (2.0 * step)
    return float(worst[0]) if base.ndim == 1 else worst
