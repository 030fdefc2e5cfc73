"""LDG spatial discretization on Cartesian meshes: one 1D operator per axis.

Each operator applies its 1D form along every grid line of every mesh axis
(mesh.axes).  All integrals collocate on the (k+1)-point Gauss nodes, so
mass matrices are diagonal and face integrals decouple per transverse node:
diffusion is the Kronecker sum of the per-axis 1D operators, convection a
sum over the axes with a flux.  Along an axis, interior faces take the
primal trace u~ from the left/lower cell and the gradient trace q~ from the
right/upper one.  At the low exterior face u~ is the Dirichlet datum; at
the high one u~ is again the datum while q~ = q^- + s (u^- - omega) adds a
penalty jump, s = 1/width of the other axis (of the axis itself in 1D).
A field is shaped (cells, nodes) per axis, x slowest: (n, p) in 1D and
(n, p, m, p) in 2D (Diffusion.shape).  That is the flat dof order the
operators act on, so a field's reshape(-1) is its flat vector and a flat
vector's reshape(Diffusion.shape) its field, both without a copy.

Each mesh axis gets one AxisOperator: its reference line matrices, which
the convective operator reads too, and its diffusion operator L with the
boundary map Gb, formed from the few distinct p x p cell blocks without a
loop over cells and without a sparse product.  The convective
operator reads the integrator's fields in place and accumulates every
axis term and the source into one output field.  Face data reach it as
the controllers give them: Python floats at the two ends of a 1D mesh,
arrays along the faces of a 2D one.  A 1D field is one line (cells,
nodes), and its own kernels (_linear_line, _flux_line) read the floats
as they are and build the field, with the arithmetic of the batch
kernels, so bitwise their result on one line, at a few numpy calls
fewer.  A 2D mesh loops over its axes with the batch kernels.  The
boundary vector (Diffusion.gb) reads only Gb's end blocks, which each
AxisOperator keeps as views (gb_low in cell 0, gb_high in the cells
from n - 2 on), and adds them in one order, each axis's low block then
its high one, x before y: on a 1D mesh the two floats scale them into
the flat vector, on a 2D mesh the face arrays do, broadcast over the
transverse lines.  Along y, the last axis in the flat order, the field is
(transverse lines, cells, nodes) with the node index last, so the p x p
blocks of its line operator apply from the right to nodal values laid
out as rows; along x it is (cells, nodes, transverse lines), and they
apply from the left.  A transverse line is ordered as the axis's face
data in both.  The general kernel of a callable flux takes (lines,
cells, nodes) only, so along x it reads a transposed view.

A flux given as a number c (problem.speeds) is linear, and so is its LLF
operator: block tridiagonal over the cells, three products with p x p
blocks (LineMatrices.llf_blocks) plus the outside states' rows, with no
flux call and no face-state vector.  When every flux is linear the LLF
bound is max |c| over the axes, read off the speeds without scanning the
states, so the blocks are built once per run; a callable flux on another
axis moves the bound, and with it the blocks, at every call.  At a bound
alpha = |c|, as on every axis of every builtin problem, the LLF flux is
the upwind flux: the block of the downwind neighbour and the outside
state on the downwind side vanish, and the kernel skips them.  Every
linear kernel sums an entry in one order: its own cell's product, then
the low side's (the product from the cell below, or the outside state's
row in the first cell), then the high side's.
"""

import math

import numpy as np
import scipy.sparse as sp


class LineMatrices:
    """Reference matrices of a cell line of width dx along one axis.

    S[m, q] = w_q phi_m'(xi_q) is the collocated stiffness matrix, winv
    the inverse of the diagonal mass matrix, r and l the trace rows
    phi_m(+1) and phi_m(-1).  The convective and diffusive operators both
    read them.  The convective kernel reads them scaled and stacked for
    nodal values laid out as rows: vol = (winv S)^T, traces = [r; l],
    winv_r = winv r and winv_l = winv l.
    """

    def __init__(self, basis, dx):
        w = basis.weights
        self.S = basis.diff_matrix.T * w
        self.winv = 2.0 / (dx * w)
        self.r, self.l = basis.phi_right, basis.phi_left
        self.vol = (self.winv[:, None] * self.S).T
        self.traces = np.array([self.r, self.l])
        self.winv_r = self.winv * self.r
        self.winv_l = self.winv * self.l
        self._llf_memo = (None, None)

    def llf_blocks(self, c, alpha):
        """Row blocks of the LLF operator of the linear flux c u with bound
        alpha: (m0, m_low, m_high, b_low, b_high), m0 acting on a cell's
        own rows, m_low on those of the cell below, m_high on those of the
        cell above, b_low and b_high the rows the outside states low and
        high add to the first and last cell.  m_low and b_low scale with
        c + alpha, m_high and b_high with c - alpha, so at alpha = |c| (the
        upwind flux) one pair is exactly zero.  Only the last (c, alpha) is
        kept: alpha changes every call when another axis's flux is not
        linear."""
        key, blocks = self._llf_memo
        if key != (c, alpha):
            # the face flux a_L u_low_side + a_R u_high_side
            a_l, a_r = 0.5 * (c + alpha), 0.5 * (c - alpha)
            blocks = (c * self.vol - a_l * np.outer(self.r, self.winv_r)
                      + a_r * np.outer(self.l, self.winv_l),
                      a_l * np.outer(self.r, self.winv_l),
                      -a_r * np.outer(self.l, self.winv_r),
                      a_l * self.winv_l, -a_r * self.winv_r)
            self._llf_memo = ((c, alpha), blocks)
        return blocks


def _ordered_product(a, b):
    """The products a[i] @ b[i] of stacked matrices, each entry summed
    from 0.0 over a's columns in increasing order, as a sparse product
    sums it (a BLAS matmul may not)."""
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    for j in range(a.shape[-1]):
        out += a[..., j, None] * b[..., None, j, :]
    return out


class AxisOperator(LineMatrices):
    """The 1D LDG diffusion operator along one mesh axis of n cells.

    L = d Ddiv K + P is the diffusive operator on the field coefficients
    and Gb = d Ddiv Kb + Pb its boundary map, g_b = Gb [low; high], for
    the face data low and high of the axis: K is the weak gradient with
    boundary map Kb, q = K u + Kb [low; high], and Ddiv the weak
    divergence of q.  The cells of an axis share their blocks, and only
    those next to the high exterior face differ:

        K:    diagonal winv(-S + rr), last winv(-S); below winv(-lr)
        Kb:   low column -winv l in cell 0, high column winv r in the last
        Ddiv: diagonal winv(-S - ll), last winv((-S - ll) + rr);
              above winv rl
        P:    last diagonal block -d s winv rr; Pb: high column d s winv r
              in the last cell

    with rr = r r^T, rl = r l^T and so on, and s = penalty.  Only L and
    Gb are kept, and neither is formed by a sparse product: L is block
    tridiagonal with a few distinct p x p blocks, each the block row
    [diagonal, above] of Ddiv times the blocks of K it meets, summed from
    0.0 over Ddiv's columns in increasing order, as the sparse product
    Ddiv @ K sums it, then scaled by d, with P added; Gb's nonzero rows
    (low: cell 0; high: the last two cells) likewise.  So L, in CSR with
    sorted columns and no stored zeros, and Gb are bitwise those of the
    sparse products over a cell-by-cell assembly (cell_loop_operator in
    tests/reference.py).

    Gb is nonzero only in those end blocks, which are kept as views of it:
    gb_low, low's column in cell 0 (p entries), and gb_high, high's column
    in the cells from high_start = max(n - 2, 0) on, flat.  Diffusion.gb
    reads nothing else of Gb.
    """

    def __init__(self, n, dx, basis, d_coef, penalty):
        super().__init__(basis, dx)
        p, S, winv, r, l = basis.p, self.S, self.winv, self.r, self.l

        def rows(mat):
            return winv[:, None] * mat

        rr, rl, lr, ll = (np.outer(r, r), np.outer(r, l),
                          np.outer(l, r), np.outer(l, l))
        # u~ is the left cell's right trace at interior faces: a cell's
        # east face reads its own (rr), its west face the left cell's (lr);
        # at the exterior faces u~ is the datum (Kb)
        k_diag, k_last, k_below = rows(-S + rr), rows(-S), rows(-lr)
        # q~ is the right cell's left trace at interior faces and the own
        # left trace at the west face (ll); at the exterior east face it is
        # the own right trace (rr) with the penalty jump s (u^- - omega),
        # oriented to dissipate energy (P, Pb)
        ddiag = -S - ll
        d_diag, d_last, d_above = rows(ddiag), rows(ddiag + rr), rows(rl)
        # Ddiv's block row [diagonal, above] of a cell before the last and
        # of the last cell, and the K blocks of the same two cells that each
        # block of L meets: below, on and above the diagonal, in an inner
        # cell row and in the last one (below, on) or the one before it
        # (above).  A zero block adds exact zeros, which change no sum: one
        # begun at 0.0 is never -0.0
        zero = np.zeros((p, p))
        inner, last = np.hstack((d_diag, d_above)), np.hstack((d_last, zero))
        (below, below_last, diag, diag_last, above,
         above_last) = _ordered_product(
            np.array([inner, last, inner, last, inner, inner]),
            np.array([[k_below, zero], [k_below, zero], [k_diag, k_below],
                      [k_last, zero], [zero, k_diag], [zero, k_last]])
            .reshape(6, 2 * p, p))
        bands = np.zeros((n, 3, p, p))
        bands[:, 0] = below
        bands[-1, 0] = below_last
        bands[0, 0] = 0.0               # cell 0 has no block below
        bands[:-1, 1] = diag
        bands[-1, 1] = diag_last
        bands[:-1, 2] = above
        bands[-2:-1, 2] = above_last    # none when n = 1
        bands *= d_coef
        bands[-1, 1] += -d_coef * penalty * rows(rr)
        # in CSR, rows (cell, node) with entries (block, column node): the
        # columns ascend, and the zeros, missing blocks among them, go, as
        # a cell-by-cell assembly stores it; SuperLU orders by structure,
        # so a stored zero would move its pivots
        data = bands.transpose(0, 2, 1, 3).reshape(n * p, 3 * p)
        cols = np.broadcast_to(
            np.arange(-p, (n - 1) * p, p, dtype=np.int32)[:, None, None]
            + np.arange(3 * p, dtype=np.int32),
            (n, p, 3 * p)).reshape(data.shape)
        keep = data != 0.0
        indptr = np.zeros(n * p + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        self.L = sp.csr_matrix((data[keep], cols[keep], indptr),
                               shape=(n * p, n * p))
        # Gb's nonzero rows: low reaches cell 0 only, high the last cell
        # and, through Ddiv's block above, the one before it
        kb = np.zeros((3, 2, p, 2))
        kb[0, 0, :, 0] = -winv * l
        kb[1, 0, :, 1] = kb[2, 1, :, 1] = winv * r
        first, high_last, high_before = _ordered_product(
            np.array([last if n == 1 else inner, last, inner]),
            kb.reshape(3, 2 * p, 2))
        gb = np.zeros((n, p, 2))
        gb[0] = first
        gb[-1] += high_last
        gb[-2:-1] += high_before
        self.Gb = d_coef * gb.reshape(n * p, 2)
        self.Gb[-p:, 1] += d_coef * penalty * winv * r
        self.high_start = max(n - 2, 0)
        self.gb_low = self.Gb[:p, 0]
        self.gb_high = self.Gb[self.high_start * p:, 1]

    def eigenbasis(self):
        """(lam, vec, vinv): L = vec diag(lam) vinv, lam real, ascending.

        L is self-adjoint in the mass inner product: with the diagonal
        mass M = 1/winv per cell, M L = -d (M K)^T M^-1 (M K) + M P, since
        S + S^T = rr - ll on the Gauss nodes.  So M^1/2 L M^-1/2 is
        symmetric up to roundoff; the eigh of its symmetric part gives lam
        and orthonormal Q, and vec = M^-1/2 Q, vinv = Q^T M^1/2, with
        cond(vec) = sqrt(w_max / w_min) whatever n is.
        """
        cells = self.L.shape[0] // len(self.winv)
        s = np.sqrt(np.tile(1.0 / self.winv, cells))     # M^1/2
        a = self.L.toarray() * (s[:, None] / s)
        lam, q = np.linalg.eigh(0.5 * (a + a.T))
        return lam, q / s[:, None], q.T * s


class Diffusion:
    """Diffusive operator RHS = L u + g_b(omega) on a 1D or 2D mesh.

    axes holds one AxisOperator per entry of mesh.axes, with penalty
    1/width of the other axis (of the axis itself in 1D).  L is their
    Kronecker sum, in 1D the axis's L itself; g_b adds each axis's Gb
    applied to its face data along every grid line.  shape is the field
    shape, (cells, nodes) per axis: L acts on the flat vector of a field.

    L is kept as shifted, L in a basis where every stage matrix I - c L
    is banded, with the maps into and out of that basis (to_basis,
    from_basis; matvec forms L v through them): in 1D the axis's L and the
    identity; in 2D the diagonal lam_x (+) lam_y, for each axis's L = vec
    diag(lam) vinv (AxisOperator.eigenbasis), with a flat v shaped V (x
    dofs, y dofs) mapping to W = vinv_x V vinv_y^T and back by V = vec_x W
    vec_y^T, x slowest in both orders.
    """

    def __init__(self, mesh, basis, d_coef):
        self.mesh = mesh
        self.basis = basis
        self.d_coef = d_coef
        axes = mesh.axes
        dim, p = len(axes), basis.p
        widths = [ax.dx for ax in axes][::-1]
        self.axes = tuple(AxisOperator(ax.n, ax.dx, basis, d_coef, 1.0 / w)
                          for ax, w in zip(axes, widths))
        if dim == 1:
            self.shifted, self._vec, self._vinv = self.axes[0].L, None, None
        else:
            # axes of equal (n, dx) have bitwise equal L, and one eigenbasis;
            # each keeps its own AxisOperator for its own LLF memo
            lx, vx, ix = self.axes[0].eigenbasis()
            same = (axes[0].n, axes[0].dx) == (axes[1].n, axes[1].dx)
            ly, vy, iy = (lx, vx, ix) if same else self.axes[1].eigenbasis()
            diag = np.arange(lx.size * ly.size + 1, dtype=np.int32)
            self.shifted = sp.csr_matrix(
                ((lx[:, None] + ly).ravel(), diag[:-1], diag))
            self._vec, self._vinv = (vx, vy.T), (ix, iy.T)
        self.shape = tuple(s for ax in axes for s in (ax.n, p))

    def to_basis(self, v):
        """The flat v in the basis of shifted."""
        if self._vinv is None:
            return v
        vinv_x, vinv_yt = self._vinv
        return (vinv_x @ v.reshape(len(vinv_x), -1) @ vinv_yt).ravel()

    def from_basis(self, w):
        """The flat w of the basis of shifted in the flat dof order."""
        if self._vec is None:
            return w
        vec_x, vec_yt = self._vec
        return (vec_x @ w.reshape(len(vec_x), -1) @ vec_yt).ravel()

    def matvec(self, v):
        """L v for the flat v."""
        return self.from_basis(self.shifted @ self.to_basis(v))

    def gb(self, bdata):
        """Boundary vector in the flat order: each axis's Gb @ [low; high]
        for the (low, high) face data pairs of bdata, one per axis, with
        only Gb's end blocks (AxisOperator.gb_low, gb_high) applied.

        Every mesh adds them in one order, an axis's low block then its
        high one, x before y, so blocks that meet (fewer than 3 cells
        along an axis) sum in that order.  A 1D mesh adds its two float
        face values into the flat vector; a 2D one adds each axis's
        blocks along its faces, broadcast over the transverse lines.
        """
        if self.mesh.dim == 1:
            (low, high), = bdata
            op, = self.axes
            p = self.basis.p
            g = np.zeros(self.shape[0] * p)
            g[:p] += op.gb_low * low
            g[op.high_start * p:] += op.gb_high * high
            return g
        (x_low, x_high), (y_low, y_high) = bdata
        ax, ay = self.axes
        nx, p = self.shape[:2]
        g = np.zeros(self.shape)
        g[0] += ax.gb_low[:, None, None] * x_low
        g[ax.high_start:] += ax.gb_high.reshape(-1, p, 1, 1) * x_high
        g[:, :, 0] += ay.gb_low * y_low.reshape(nx, p, 1)
        g[:, :, ay.high_start:] += (ay.gb_high.reshape(-1, p)
                                    * y_high.reshape(nx, p, 1, 1))
        return g.reshape(-1)


def build_diffusion(mesh, basis, problem):
    """Diffusion operator for the problem's (linear) diffusion coefficient."""
    return Diffusion(mesh, basis, problem.d_coef)


def _convection_lines(u, flux, alpha, low, high, mats, out, first):
    """Convective weak-form RHS of -d/dx F(u) for the (B, n, p) nodal
    values u of n cells on each of B lines, with outside states low and
    high, each (B,), the vectorized flux, the Lax-Friedrichs bound alpha
    and the axis's LineMatrices mats; added into out, shaped like u
    (written when first)."""
    count, n, p = u.shape
    rows = u.reshape(-1, p)
    vol = (flux(rows) @ mats.vol).reshape(u.shape)
    # the face states [low, r.u, l.u, high], face by face over the lines:
    # faces 0..n see the first half on their low side, the second half on
    # their high side
    traces = (mats.traces @ rows.T).reshape(2, count, n).transpose(0, 2, 1)
    states = np.concatenate((low, traces[0].ravel(), traces[1].ravel(),
                             high))
    fs = flux(states)
    half = (n + 1) * count
    fhat = (0.5 * (fs[:half] + fs[half:])
            - (0.5 * alpha) * (states[half:] - states[:half]))
    fhat = fhat.reshape(n + 1, count).T[:, :, None]
    if first:
        np.subtract(vol, fhat[:, 1:] * mats.winv_r, out=out)
        out += fhat[:, :-1] * mats.winv_l
    else:
        out += vol - fhat[:, 1:] * mats.winv_r + fhat[:, :-1] * mats.winv_l


def _linear_lines(u, c, alpha, low, high, mats, out, first, nodes_last):
    """_convection_lines for the linear flux c u, on (B, n, p) lines when
    nodes_last and on (n, p, B) ones otherwise: the LLF operator is block
    tridiagonal over the cells, so it is three products with the p x p
    blocks of mats.llf_blocks(c, alpha), applied from the right to nodal
    values laid out as rows and from the left to values laid out as
    columns, plus the outside states' rows.

    The cell below enters through c + alpha, the cell above through
    c - alpha: when one of them is 0 (alpha = |c|, the upwind flux) its
    neighbour block and outside-state row are exactly zero and are
    skipped.  Each entry sums in one order: its own cell's product, then
    the low side's term (the product from the cell below, or the outside
    state's row in the first cell), then the high side's.  On rows, a
    neighbour block multiplies the row array shifted by one row, into one
    buffer that holds that side's outside-state row at each line's end
    row, which the shifted product does not reach from inside the line,
    and is added to out in one pass."""
    m0, m_low, m_high, b_low, b_high = mats.llf_blocks(c, alpha)
    if nodes_last:
        n, p = u.shape[1:]
        rows, dest = u.reshape(-1, p), out.reshape(-1, p)
        if first:
            np.matmul(rows, m0, out=dest)
        else:
            dest += rows @ m0
        # neighbour[i] is added into row i: row i - 1's product (from the
        # cell below) or row i + 1's (from the cell above), and at each
        # line's first (last) row the outside state's row instead
        neighbour = np.empty(dest.shape)
        if c + alpha != 0.0:
            np.matmul(rows[:-1], m_low, out=neighbour[1:])
            neighbour[::n] = low[:, None] * b_low
            dest += neighbour
        if c - alpha != 0.0:
            np.matmul(rows[1:], m_high, out=neighbour[:-1])
            neighbour[n - 1::n] = high[:, None] * b_high
            dest += neighbour
        return
    if first:
        np.matmul(m0.T, u, out=out)
    else:
        out += m0.T @ u
    if c + alpha != 0.0:
        out[1:] += m_low.T @ u[:-1]
        out[0] += b_low[:, None] * low
    if c - alpha != 0.0:
        out[:-1] += m_high.T @ u[1:]
        out[-1] += b_high[:, None] * high


def llf_alpha(problem, u, bdata):
    """Global Lax-Friedrichs bound: max |f_a'| over all nodal and boundary
    states, taken over the axes a that carry a flux (0 when none does).

    When every flux is linear (no problem.speeds entry is None) the bound
    is max |c_a|, read off the speeds without touching u or bdata: f_a'
    is c_a at every state, so the value is the one the scan would give.
    Otherwise each flux scans the field and each axis's face pair apart,
    with no copy of the field: a max is exact, so the bound is the one
    scan of all the states would give, NaN when any state is.
    """
    speeds = problem.speeds
    if None not in speeds:
        return max(map(abs, speeds))
    states = [u] + [np.asarray(pair) for pair in bdata]
    peaks = [np.abs(fp(v)).max() for f, fp, _ in problem.fluxes
             if f is not None for v in states]
    # the peaks are >= 0 or NaN, so their sum is NaN exactly when one is
    total = sum(peaks)
    return float(max(peaks, default=0.0) if total == total else total)


def _linear_line(u, c, alpha, low, high, mats):
    """_linear_lines on the one (n, p) line of a 1D mesh, with float
    outside states: a new field.  Each side's neighbour product adds into
    the contiguous cell slice it reaches, followed by its outside row, in
    the order of _linear_lines, so the result is bitwise its result."""
    m0, m_low, m_high, b_low, b_high = mats.llf_blocks(c, alpha)
    out = u @ m0
    if c + alpha != 0.0:
        out[1:] += u[:-1] @ m_low
        out[0] += low * b_low
    if c - alpha != 0.0:
        out[:-1] += u[1:] @ m_high
        out[-1] += high * b_high
    return out


def _flux_line(u, flux, alpha, low, high, mats):
    """_convection_lines on the one (n, p) line of a 1D mesh, with float
    outside states: a new field, bitwise its result.  The face states
    [low, r.u, l.u, high] are written into one vector."""
    n = len(u)
    out = flux(u) @ mats.vol
    states = np.empty(2 * n + 2)
    states[0], states[-1] = low, high
    np.matmul(mats.traces, u.T, out=states[1:-1].reshape(2, n))
    fs = flux(states)
    fhat = (0.5 * (fs[:n + 1] + fs[n + 1:])
            - (0.5 * alpha) * (states[n + 1:] - states[:n + 1]))[:, None]
    out -= fhat[1:] * mats.winv_r
    out += fhat[:-1] * mats.winv_l
    return out


def _line_convection(u, bdata, problem, mats):
    """-div F(u) on a 1D mesh, a new field, or None without a flux."""
    (f, _, _), = problem.fluxes
    if f is None:
        return None
    alpha = llf_alpha(problem, u, bdata)
    (low, high), = bdata
    c, = problem.speeds
    if c is None:
        return _flux_line(u, f, alpha, low, high, mats)
    return _linear_line(u, c, alpha, low, high, mats)


def _convection(u, bdata, problem, axes):
    """-div F(u) on a 2D mesh, a new field, or None when no axis has a
    flux."""
    out = None
    nx, p, ny, _ = u.shape
    for a, (mats, (f, _, _), c, (low, high)) in enumerate(
            zip(axes, problem.fluxes, problem.speeds, bdata)):
        if f is None:
            continue
        first = out is None
        if first:
            alpha = llf_alpha(problem, u, bdata)
            out = np.empty(u.shape)
        # the axis's lines: (lines, cells, nodes) along y, the last axis
        # in the flat order, and (cells, nodes, lines) along x
        nodes_last = a == 1
        shape = (nx * p, ny, p) if nodes_last else (nx, p, ny * p)
        lines, dest = u.reshape(shape), out.reshape(shape)
        low, high = np.ravel(low), np.ravel(high)
        if c is not None:
            _linear_lines(lines, c, alpha, low, high, mats, dest, first,
                          nodes_last)
        elif nodes_last:
            _convection_lines(lines, f, alpha, low, high, mats, dest, first)
        else:
            _convection_lines(lines.transpose(2, 0, 1), f, alpha, low, high,
                              mats, dest.transpose(2, 0, 1), first)
    return out


def explicit_rhs(u, t, bdata, problem, mesh, coords, axes):
    """The xi part of the semidiscretization: -div F(u) + h(u, x, t).

    Each axis with a flux runs the 1D LLF operator on every grid line
    along it, with that axis's face data as the outside states; a number
    flux runs the linear kernel.  A 1D mesh has one line and its own
    kernels (_line_convection), a 2D mesh loops over its axes
    (_convection); llf_alpha is called once either way when some axis
    has a flux.  coords are the node coordinates (mesh.node_coords) and
    axes one LineMatrices per mesh axis, such as Diffusion.axes.  The
    convective term and the source accumulate in place into one new
    C-ordered field, which is returned, so its reshape(-1) is the flat xi
    without a copy.
    """
    u = np.asarray(u, dtype=float)
    if mesh.dim == 1:
        out = _line_convection(u, bdata, problem, axes[0])
    else:
        out = _convection(u, bdata, problem, axes)
    h = problem.h
    if h is None:
        return np.zeros(u.shape) if out is None else out
    source = h(u, *coords, t)
    if out is None:
        out = np.empty(u.shape)
        out[...] = source
    else:
        out += source
    return out


def norms(u, exact, mesh, basis, t):
    """(L1, L2, Linf) of u - exact over the mesh, by Gauss quadrature.

    The pointwise error is sampled at the quadrature nodes (which are also
    the nodal points), L1/L2 use the per-cell rule, Linf is the node max.
    """
    e = np.asarray(u, dtype=float) - exact(*mesh.node_coords(basis), t)
    # one weight vector and one half-width per axis: 'q,iq->' in 1D,
    # 'q,r,iqjr->' in 2D
    dim = len(mesh.axes)
    nodes = 'qr'[:dim]
    subscripts = (','.join(nodes) + ','
                  + ''.join(c + q for c, q in zip('ij', nodes)) + '->')
    weights = [basis.weights] * dim
    jac = math.prod(0.5 * ax.dx for ax in mesh.axes)
    l1 = jac * float(np.einsum(subscripts, *weights, np.abs(e)))
    l2 = float(np.sqrt(jac * np.einsum(subscripts, *weights, e * e)))
    return l1, l2, float(np.max(np.abs(e)))
