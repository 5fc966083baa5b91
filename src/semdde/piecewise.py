"""Continuous 1-periodic piecewise polynomials on a mesh of [0, 1].

Two representations live here.  ``PeriodicPiecewisePoly`` stores degree-m
polynomials per interval through values at Chebyshev-Lobatto nodes, and
only the m free ones of each interval (nodes 0..m-1): the right end of an
interval is the next interval's first node and the last interval closes
onto the first, so the function is continuous and 1-periodic by
construction.  ``PiecewiseProjection``, for users only, stores the
degree-(m-1) interpolation projection on m nodes per interval (the
Gauss-Legendre collocation nodes when built by ``project``), with no
continuity across breaks.

Evaluation and integration use the second ("true") barycentric
formula: each query gathers its interval's nodes, takes the terms
q_j = w_j / (t - x_j) from ``nodes.barycentric_terms``, contracts them
with the gathered values and divides once by their sum.  The basis rows
q / sum(q) are formed only where the basis itself is wanted: the rows
``eval_with_basis`` returns to the Jacobian, those of the collocation
points' basis, and the point rows of the constraints.  Every reduction
runs along one query's terms, so a query's result does not depend on
the rest of the batch, and querying a stored node time (a unit row of
terms, summing to 1) returns the stored value bitwise.  Interval lookup
follows the half-open convention: a break time belongs to the interval
starting there, and t = 1 wraps to 0.

Queries run in chunks of ``_CHUNK`` through workspaces allocated once
per call and reused by every chunk: a term buffer, into which the
chunk's node times are gathered and turned into terms in place, a
gather buffer for the chunk's values, and the terms' sums.  So a dense
grid makes no per-chunk temporaries, which the allocator would map and
unmap, page-faulting, on every chunk.  Terms held by the store and rows
handed to a caller never serve as a workspace.

A private store keeps what depends on the discretization (breaks and
node family) alone, for the latest one: what its fixed time sets need,
the Lagrange row of a point time (``_point``) and the Jacobian's
differentiation block.  Callers only name a fixed set, and
``PeriodicPiecewisePoly`` makes its times: ``COLLOCATION`` the
collocation points, an integer n >= 2 the n-point uniform grid of
[0, 1].  One rule holds for every object: it is recorded on its first
request, built once on its second and kept from then on, and a request
on another discretization empties the store.  A set keeps its times,
wrapped times, intervals, barycentric terms and their sums, which do
not depend on the rest of their batch: they give the chunked path's
bits, and a node time still returns its stored value bitwise.

An n-point grid that tiles a uniform mesh of L >= 2 intervals, L
dividing n - 1, keeps the basis rows of its offsets instead: its points
sit at the offsets j / per, per = (n - 1) / L, of every interval, so the
rows of the per + 1 offsets, contracted with every interval's values,
give the grid's values to roundoff of ``eval``, and its break points,
taken by the kernel, bitwise.  Whether a set tiles the mesh is decided
once, when the set is located, and per (0 for a set that does not tile)
is kept with its times.
"""

from __future__ import annotations

import csv
from functools import cached_property

import numpy as np

from .errors import (FormatVersionError, InvalidArgumentError,
                     _checked_int, _checked_real, _checked_reals, _is_integer)
from .nodes import (NodeFamily, NodeKind, barycentric_terms, gauss_rule,
                    interpolation_matrix, make_nodes)

#: version stamp carried by every file this package writes; readers
#: reject anything newer
FORMAT_VERSION = 1

#: queries per chunk in evaluation; the workspaces of one call hold this
#: many queries whatever the batch size
_CHUNK = 1024

#: the name of the fixed time set of the collocation points
COLLOCATION = "collocation points"


def check_format_version(version, what: str) -> None:
    """Reject a format_version that is not an integer >= 1 or is newer
    than this build reads."""
    if not _is_integer(version) or version < 1:
        raise FormatVersionError(f"bad format_version {version!r} in {what}")
    if version > FORMAT_VERSION:
        raise FormatVersionError(
            f"{what} declares format_version {version}; this build reads "
            f"up to {FORMAT_VERSION}")


def check_document_keys(doc, keys, what: str) -> None:
    """Reject a document that is not an object with exactly ``keys``."""
    got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
    if got != sorted(keys):
        raise InvalidArgumentError(
            f"{what} needs keys {sorted(keys)}, got {got}")


def csv_writer(stream, header):
    """The csv writer of a data file begun with the format-version line
    and the header; it writes a float as its repr, None as empty."""
    stream.write(f"# format_version={FORMAT_VERSION}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    return writer


class Mesh:
    """Strictly increasing break points 0 = t_0 < ... < t_L = 1 and the
    interval lengths, both read-only."""

    def __init__(self, breaks):
        breaks = _checked_reals(breaks, "breaks")
        if breaks.ndim != 1 or breaks.size < 2:
            raise InvalidArgumentError("mesh needs at least two break points")
        if breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise InvalidArgumentError("mesh must start at 0 and end at 1")
        lengths = np.diff(breaks)
        if not np.all(lengths > 0):
            raise InvalidArgumentError("mesh breaks must be strictly increasing")
        lengths.flags.writeable = False
        self.breaks, self.lengths = breaks, lengths

    @classmethod
    def uniform(cls, num_intervals: int) -> "Mesh":
        num_intervals = _checked_int(num_intervals, "interval count", 1)
        return cls(np.linspace(0.0, 1.0, num_intervals + 1))

    @property
    def num_intervals(self) -> int:
        return self.breaks.size - 1

    def node_times(self, nodes) -> np.ndarray:
        """Global times of reference nodes on every interval, shape
        (intervals, nodes).  Nodes at exactly 0 or 1 land on the breaks
        bitwise, which the affine map alone may miss by an ulp."""
        times = self.breaks[:-1, None] + self.lengths[:, None] * nodes
        times[:, nodes == 0.0] = self.breaks[:-1, None]
        times[:, nodes == 1.0] = self.breaks[1:, None]
        return times

    def interval_index(self, t):
        """Index of the half-open interval [t_i, t_{i+1}) containing t."""
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        # the integers of np.clip, without its Python wrapper
        return np.minimum(np.maximum(idx, 0), self.num_intervals - 1)

    def __eq__(self, other):
        return isinstance(other, Mesh) and np.array_equal(self.breaks,
                                                          other.breaks)

    def __repr__(self):
        return f"Mesh({self.breaks.tolist()})"


def _wrap_time(t: np.ndarray) -> np.ndarray:
    """Map times to [0, 1) by subtracting the floor (exact in binary)."""
    return t - np.floor(t)


class _Store:
    """Objects of the latest discretization by name, None for a name
    asked for once (see the module docstring); the key and its objects
    change in one assignment, so no thread gets another's objects."""

    def __init__(self):
        self.current = (None, {})

    def get(self, poly: "_PiecewiseBase", name, build):
        family = poly.node_family
        key = (family.kind, family.m, poly.mesh.breaks.tobytes())
        current = self.current
        if current[0] != key:
            current = self.current = (key, {})
        kept = current[1]
        if name not in kept:
            kept[name] = None
        elif kept[name] is None:
            kept[name] = build()
        return kept[name]


_STORE = _Store()


class _PiecewiseBase:
    """Shared evaluation and integration over per-interval nodal values."""

    mesh: Mesh
    node_family: NodeFamily
    values: np.ndarray      # (L, nodes per interval, dim)
    node_times: np.ndarray  # (L, nodes per interval), global times

    def _init_storage(self, mesh, node_family, data, per_interval):
        """Set the mesh, family and node times; return ``data`` checked
        to shape (L, per_interval, dim), finite and read-only."""
        data = _checked_reals(data, "values")
        if data.ndim != 3 or data.shape[2] < 1:
            raise InvalidArgumentError(
                f"values must have shape (intervals, nodes, dim) with dim "
                f">= 1, got {data.shape}")
        expect = (mesh.num_intervals, per_interval)
        if data.shape[:2] != expect:
            raise InvalidArgumentError(
                f"values shape {data.shape[:2]} does not match "
                f"(intervals, nodes) = {expect}")
        times = mesh.node_times(node_family.nodes)
        times.flags.writeable = False
        self.mesh = mesh
        self.node_family = node_family
        self.node_times = times
        return data

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @cached_property
    def _value_table(self) -> np.ndarray:
        # (L, dim, nodes): the node axis last and contiguous, so the
        # contraction over a query's nodes runs along one row of memory
        return np.ascontiguousarray(self.values.transpose(0, 2, 1))

    @cached_property
    def _deriv_table(self) -> np.ndarray:
        # derivative of each local polynomial at the same nodes; one degree
        # lower, so interpolating it on the full node set stays exact
        scaled = self.values / self.mesh.lengths[:, None, None]
        return np.ascontiguousarray(
            np.einsum("jk,iks->isj", self.node_family.diff_matrix, scaled))

    @cached_property
    def _both_table(self) -> np.ndarray:
        # values then derivatives: one pass of terms gives both
        return np.concatenate([self._value_table, self._deriv_table], axis=1)

    def _terms(self, idx, t, out=None):
        """Barycentric terms at times t in intervals idx, written into
        ``out`` (a C-contiguous (k, nodes) array) or one fresh array."""
        # the indices are in range; mode "clip" writes straight into out,
        # where "raise" would fill a buffer and copy it
        times = np.take(self.node_times, idx, axis=0, out=out, mode="clip")
        return barycentric_terms(t, times, self.node_family.bary_weights,
                                 out=times)

    def _interpolate(self, table, idx, t, terms=None, sums=None):
        """``table`` at times t in intervals idx, in chunks of ``_CHUNK``
        queries; the terms and their sums are built per chunk unless
        given.  One set of workspaces serves every chunk."""
        out = np.empty((t.size, table.shape[1]))
        size = min(t.size, _CHUNK)
        work = np.empty((size,) + table.shape[1:])
        den = np.empty(size)
        if terms is None:
            buf = np.empty((size, table.shape[2]))
        for lo in range(0, t.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            k = idx[part].size
            q = self._terms(idx[part], t[part], buf[:k]) \
                if terms is None else terms[part]
            np.take(table, idx[part], axis=0, out=work[:k], mode="clip")
            # per query, one sum and one dot product per channel along
            # its terms; with optimize off, einsum runs its own loops, not
            # BLAS, and on short rows they are faster than np.sum's
            d = np.einsum("kn->k", q, out=den[:k]) if sums is None \
                else sums[part]
            np.einsum("kdn,kn->kd", work[:k], q, out=out[part])
            out[part] /= d[:, None]
        return out

    def _eval_table(self, table, t):
        t_arr = np.asarray(t, dtype=float)
        flat = _wrap_time(t_arr.ravel())
        out = self._interpolate(table, self.mesh.interval_index(flat), flat)
        return out.reshape(t_arr.shape + (table.shape[1],))

    def eval(self, t):
        """Value at time t (any real; wrapped to [0,1) by periodicity).

        Scalar t gives shape (dim,), an array gives t.shape + (dim,).
        """
        return self._eval_table(self._value_table, t)

    def eval_deriv(self, t):
        """Derivative of the local polynomial at time t.

        At a break the right-interval one-sided derivative is returned,
        consistent with the half-open interval convention.
        """
        return self._eval_table(self._deriv_table, t)

    def integrate(self, a: float, b: float):
        """Exact integral over [a, b] within [0, 1], split at breaks."""
        a, b = _checked_real(a, "bound a"), _checked_real(b, "bound b")
        if not 0.0 <= a <= b <= 1.0:
            raise InvalidArgumentError(
                f"integration bounds need 0 <= a <= b <= 1, got [{a}, {b}]")
        quad_nodes, quad_wts = gauss_rule(self.node_family.m)
        breaks = self.mesh.breaks
        idx = np.arange(self.mesh.interval_index(a),
                        self.mesh.interval_index(b) + 1)
        lo = np.maximum(a, breaks[idx])
        span = np.minimum(b, breaks[idx + 1]) - lo
        keep = span > 0.0
        idx, lo, span = idx[keep], lo[keep], span[keep]
        pts = lo[:, None] + span[:, None] * quad_nodes
        vals = self._interpolate(self._value_table,
                                 np.repeat(idx, quad_nodes.size), pts.ravel())
        vals = vals.reshape(idx.size, quad_nodes.size, self.dim)
        return np.einsum("i,q,iqs->s", span, quad_wts, vals)


class PeriodicPiecewisePoly(_PiecewiseBase):
    """Continuous 1-periodic piecewise polynomial of degree m per interval.

    ``free_values[i, j, :]`` is the function value at the j-th
    Chebyshev-Lobatto representation node of interval i, j = 0..m-1; it has
    the (L, m, dim) layout of ``DiscreteState.flatten``.  The value at each
    interval's right end is the next interval's first value, the last
    interval closing onto the first, so continuity at the breaks and
    periodic closure hold by construction.
    """

    def __init__(self, mesh: Mesh, degree: int, free_values):
        family = _representation_nodes(degree)
        self.degree = family.m - 1
        self.free_values = self._init_storage(mesh, family, free_values,
                                              self.degree)

    @cached_property
    def _columns(self) -> np.ndarray:
        """Free-value index of nodes 0..m of each interval, (L, m+1): node
        m is node 0 of the next interval, the last closing onto the first.
        The one place the free-value layout is written."""
        L, m = self.free_values.shape[:2]
        return (np.arange(L)[:, None] * m + np.arange(m + 1)) % (L * m)

    @cached_property
    def values(self) -> np.ndarray:
        """Values at all m+1 nodes of each interval, shape (L, m+1, dim);
        read-only."""
        free = self.free_values
        values = free.reshape(-1, free.shape[2])[self._columns]
        values.flags.writeable = False
        return values

    def eval_with_basis(self, times):
        """``(eval(times), cols, rows)`` for 1-d times, the value bitwise
        ``eval``; the Lagrange rows and free-value columns are both
        (k, m+1), and the sum over j of rows[p, j] times free value
        cols[p, j] is value p to roundoff.  The rows are returned whole,
        so for collocation-sized batches only; the caller owns them."""
        t = _wrap_time(np.asarray(times, dtype=float))
        idx = self.mesh.interval_index(t)
        return self._basis(self._value_table, idx, t, self._terms(idx, t))

    def _basis(self, table, idx, t, terms, sums=None):
        """``table`` at wrapped times t in intervals idx from their
        barycentric terms (and their sums, if given), with the free-value
        columns and the Lagrange rows: the terms over their ``np.sum``,
        as ``nodes.interpolation_matrix`` forms them."""
        return self._interpolate(table, idx, t, terms, sums), \
            self._columns[idx], terms / np.sum(terms, axis=1, keepdims=True)

    def _point(self, time):
        """``(cols, row)``, kept, so only to be read: the free-value columns
        and Lagrange row of ``eval_with_basis(np.array([time]))`` row 0."""
        def basis():
            _, cols, rows = self.eval_with_basis(np.array([time]))
            return cols[0], rows[0]

        return _STORE.get(self, ("point", time), basis) or basis()

    def _collocation_basis(self):
        """``(times, values, cols, rows, derivatives)`` at the collocation
        points from one read of the store: the set's kept terms and sums,
        or terms built here on its first request (only recorded).  Values,
        columns and rows are bitwise ``eval_with_basis(times)``, the
        derivatives ``_on(COLLOCATION, deriv=True)[2]``."""
        times, t, idx, _, terms, sums = self._fixed(COLLOCATION)
        if terms is None:
            terms = self._terms(idx, t)
        both, cols, rows = self._basis(self._both_table, idx, t, terms, sums)
        return times, both[:, :self.dim], cols, rows, both[:, self.dim:]

    def _fixed(self, name):
        """``(times, t, idx, per, kept, sums)`` of the fixed time set
        ``name``: times as the rhs gets them (a grid ends at 1), wrapped
        times t and their intervals; per = (n - 1) / L when ``name`` is
        an n-point grid that tiles the mesh, holding its points at the
        offsets j / per of every interval (the mesh is uniform, breaks
        bitwise those of ``Mesh.uniform``, L >= 2 and L divides n - 1),
        else 0; the kept terms and their sums, or offset rows and None
        when per > 0, both None on the first request (only recorded)."""
        if name != COLLOCATION:
            name = _checked_int(name, "grid_points", 2)

        def located(build=False):
            if name == COLLOCATION:
                times, per = self.mesh.node_times(
                    gauss_rule(self.degree)[0]).ravel(), 0
            else:
                L = self.mesh.num_intervals
                times = np.linspace(0.0, 1.0, name)
                tiles = L >= 2 and (name - 1) % L == 0 \
                    and self.mesh == Mesh.uniform(L)
                per = (name - 1) // L if tiles else 0
            t = _wrap_time(times)
            idx = self.mesh.interval_index(t)
            if not build:
                return times, t, idx, per, None, None
            if per:
                return times, t, idx, per, interpolation_matrix(
                    self.node_family, np.arange(per + 1) / per), None
            terms = self._terms(idx, t)
            return times, t, idx, per, terms, np.einsum("kn->k", terms)

        return _STORE.get(self, name, lambda: located(True)) or located()

    def _tiled(self, table, t, idx, per, rows):
        """``table`` at the wrapped times t, in intervals idx, of a grid
        that tiles the mesh (per > 0 in ``_fixed``), from the basis rows
        of the per + 1 offsets: ``rows`` as kept, or None to build them
        ``_CHUNK`` offsets at a time.  Point k takes row
        j = (k mod (n - 1)) - idx * per.  The L + 1 points at the breaks,
        which linspace may round off them by an ulp, are then taken by
        the kernel, so each gives the bits of ``eval``: a break rounded
        into the left interval its left one-sided derivative."""
        offsets = np.arange(per + 1) / per
        L, c = table.shape[:2]
        # every offset on every interval, ``_CHUNK`` offsets at a time;
        # with optimize off, einsum runs its own loops, not BLAS
        shared = np.empty((per + 1, L, c))
        for lo in range(0, per + 1, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            chunk = interpolation_matrix(self.node_family, offsets[part]) \
                if rows is None else rows[part]
            np.einsum("jn,lcn->jlc", chunk, table, out=shared[part])
        j = np.arange(t.size) % (t.size - 1) - idx * per
        out = np.take(shared.reshape(-1, c), j * L + idx, axis=0)
        out[::per] = self._interpolate(table, idx[::per], t[::per])
        return out

    def _on(self, name, deriv=False):
        """``(times, eval(times))`` at the fixed time set ``name``, or
        with ``deriv`` ``(times, eval(times), eval_deriv(times))``.  Each
        is bitwise, except on a grid that tiles the mesh (per > 0):
        there, to roundoff of ``eval``."""
        table = self._both_table if deriv else self._value_table
        times, t, idx, per, kept, sums = self._fixed(name)
        out = self._tiled(table, t, idx, per, kept) if per \
            else self._interpolate(table, idx, t, kept, sums)
        return (times, out[:, :self.dim], out[:, self.dim:]) if deriv \
            else (times, out)

    def _jacobian_start(self, n):
        """A fresh n x n Jacobian holding only its exact differentiation
        block, kept under ``("jacobian start", dim, n)`` and then copied."""
        L, m, dim = self.free_values.shape
        family = self.node_family

        def differentiation_block():
            jac = np.zeros((n, n))
            basis = interpolation_matrix(family, gauss_rule(m)[0])
            deriv = np.sum(basis[:, None, :] * family.diff_matrix.T, axis=2)
            block = deriv / self.mesh.lengths[:, None, None]
            rows = np.arange(L * m * dim).reshape(L * m, dim)
            cols = self._columns[:, None, :] * dim
            for s in range(dim):
                np.add.at(jac, (rows[:, s].reshape(L, m, 1), cols + s), block)
            return jac

        start = _STORE.get(self, ("jacobian start", dim, n),
                           differentiation_block)
        return differentiation_block() if start is None else start.copy()


class PiecewiseProjection(_PiecewiseBase):
    """Interpolation projection: degree m-1 per interval on the m nodes
    of ``family``, generally discontinuous at breaks.
    """

    def __init__(self, mesh: Mesh, family: NodeFamily, values):
        self.values = self._init_storage(mesh, family, values, family.m)
        self.degree = family.m - 1


def _representation_nodes(degree) -> NodeFamily:
    """The Chebyshev-Lobatto family of a degree, an integer >= 1."""
    return make_nodes(NodeKind.CHEBYSHEV_LOBATTO,
                      _checked_int(degree, "degree", 1))


def _sample(f, mesh: Mesh, nodes) -> np.ndarray:
    """f on the given reference nodes of every interval, called once;
    shape (intervals, nodes, dim)."""
    times = mesh.node_times(nodes)
    return np.asarray(f(times.ravel()), dtype=float).reshape(
        times.shape + (-1,))


def sample_periodic(f, mesh: Mesh, degree: int) -> PeriodicPiecewisePoly:
    """Periodic piecewise polynomial through samples of a 1-periodic f.

    ``f`` is called once, on the L*m free representation times (nodes
    0..m-1 of each interval, all in [0, 1)); the polynomial derives each
    right-end value from the next interval's first sample, so shared
    breaks agree bitwise whatever rounding f does.
    """
    family = _representation_nodes(degree)
    return PeriodicPiecewisePoly(mesh, degree,
                                 _sample(f, mesh, family.nodes[:-1]))


def project(f, mesh: Mesh, m: int) -> PiecewiseProjection:
    """Interpolate a 1-periodic function on the m Gauss-Legendre
    collocation nodes of each interval.

    ``f`` maps an array of times to an array of values, one row per time;
    the result matches f exactly at the collocation points.
    """
    family = make_nodes(NodeKind.GAUSS_LEGENDRE, m)
    return PiecewiseProjection(mesh, family, _sample(f, mesh, family.nodes))


def poly_to_document(p: PeriodicPiecewisePoly) -> dict:
    """JSON-ready description of a periodic piecewise polynomial.

    Standard JSON float formatting round-trips doubles exactly, so
    serializing and reloading reproduces the values bitwise.
    """
    return {
        "breaks": p.mesh.breaks.tolist(),
        "degree": p.degree,
        "dim": p.dim,
        "rep_kind": p.node_family.kind.value,
        "values": p.values.tolist(),
    }


def poly_from_document(doc: dict) -> PeriodicPiecewisePoly:
    """Rebuild a periodic piecewise polynomial from its JSON document.

    The document lists the values at all m+1 nodes of each interval.  It
    comes from outside the program, so the two copies of each shared break
    value must agree bitwise and the last value must close onto the first
    before the free values are kept.
    """
    check_document_keys(doc, ("breaks", "degree", "dim", "rep_kind",
                              "values"), "polynomial document")
    degree = _checked_int(doc["degree"], "degree")
    dim = _checked_int(doc["dim"], "dim", 1)
    kind = NodeKind.from_name(doc["rep_kind"])
    if kind != NodeKind.CHEBYSHEV_LOBATTO:
        raise InvalidArgumentError(
            "representation nodes must include both interval endpoints; "
            f"got {kind.value}")
    mesh = Mesh(doc["breaks"])
    values = _checked_reals(doc["values"], "values")
    expect = (mesh.num_intervals, degree + 1, dim)
    if values.shape != expect:
        raise InvalidArgumentError(
            f"values shape {values.shape} does not match "
            f"(intervals, degree + 1, dim) = {expect}")
    if not np.array_equal(values[:-1, -1], values[1:, 0]):
        raise InvalidArgumentError(
            "values must match bitwise at interior breaks")
    if not np.array_equal(values[-1, -1], values[0, 0]):
        raise InvalidArgumentError(
            "periodic closure requires the last value to equal the first")
    return PeriodicPiecewisePoly(mesh, degree, values[:, :-1, :])

