"""Continuous 1-periodic piecewise polynomials on a mesh of [0, 1].

Two representations live here.  ``PeriodicPiecewisePoly`` stores degree-m
polynomials per interval through values at Chebyshev-Lobatto nodes, and
only the m free ones of each interval (nodes 0..m-1): the right end of an
interval is the next interval's first node and the last interval closes
onto the first, so the function is continuous and 1-periodic by
construction.  ``PiecewiseProjection`` stores the degree-(m-1)
interpolation projection on m nodes per interval (Gauss-Legendre, the
collocation nodes, when built by ``project``), with no continuity across
breaks.

Evaluation and integration gather each query's interval nodes and take
the barycentric basis rows from ``nodes.lagrange_rows``; every reduction
runs along one query's row, so a query's result does not depend on the
rest of the batch, and querying a stored node time returns the stored
value bitwise.  Interval lookup follows the half-open convention: a break
time belongs to the interval starting there, and t = 1 wraps to 0.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .errors import FormatVersionError, InvalidArgumentError
from .nodes import (NodeFamily, NodeKind, gauss_rule, lagrange_rows,
                    make_nodes)

#: version stamp carried by every file this package writes; readers
#: reject anything newer
FORMAT_VERSION = 1

#: query rows per gather in evaluation; bounds the temporaries at a few
#: (rows, nodes) arrays whatever the batch size
_CHUNK = 1024


def check_format_version(version, what: str) -> None:
    """Reject a format_version that is not an integer >= 1 or is newer
    than this build reads."""
    if (isinstance(version, bool) or not isinstance(version, int)
            or version < 1):
        raise FormatVersionError(f"bad format_version {version!r} in {what}")
    if version > FORMAT_VERSION:
        raise FormatVersionError(
            f"{what} declares format_version {version}; this build reads "
            f"up to {FORMAT_VERSION}")


class Mesh:
    """Strictly increasing break points 0 = t_0 < ... < t_L = 1."""

    def __init__(self, breaks):
        breaks = np.asarray(breaks, dtype=float).copy()
        if breaks.ndim != 1 or breaks.size < 2:
            raise InvalidArgumentError("mesh needs at least two break points")
        if breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise InvalidArgumentError("mesh must start at 0 and end at 1")
        if not np.all(np.diff(breaks) > 0):
            raise InvalidArgumentError("mesh breaks must be strictly increasing")
        breaks.flags.writeable = False
        self.breaks = breaks

    @classmethod
    def uniform(cls, num_intervals: int) -> "Mesh":
        if num_intervals < 1:
            raise InvalidArgumentError(
                f"interval count must be >= 1, got {num_intervals}")
        return cls(np.linspace(0.0, 1.0, num_intervals + 1))

    @property
    def num_intervals(self) -> int:
        return self.breaks.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breaks)

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
        return np.clip(idx, 0, self.num_intervals - 1)

    def __eq__(self, other):
        return isinstance(other, Mesh) and np.array_equal(self.breaks,
                                                          other.breaks)

    def __repr__(self):
        return f"Mesh({self.breaks.tolist()})"


def _wrap_time(t: np.ndarray) -> np.ndarray:
    """Map times to [0, 1) by subtracting the floor (exact in binary)."""
    return t - np.floor(t)


class _PiecewiseBase:
    """Shared evaluation and integration over per-interval nodal values."""

    mesh: Mesh
    node_family: NodeFamily
    values: np.ndarray      # (L, nodes per interval, dim)
    node_times: np.ndarray  # (L, nodes per interval), global times

    def _init_storage(self, mesh, node_family, data, per_interval):
        """Set the mesh, family and node times; return ``data`` checked
        to shape (L, per_interval, dim), finite and read-only."""
        data = np.array(data, dtype=float)
        if data.ndim != 3:
            raise InvalidArgumentError(
                f"values must have shape (intervals, nodes, dim), got "
                f"{data.shape}")
        expect = (mesh.num_intervals, per_interval)
        if data.shape[:2] != expect:
            raise InvalidArgumentError(
                f"values shape {data.shape[:2]} does not match "
                f"(intervals, nodes) = {expect}")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("values must be finite")
        times = mesh.node_times(node_family.nodes)
        data.flags.writeable = False
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
        # (L, dim, nodes): the node axis last and contiguous, so the sum
        # over a query's nodes runs along one row of memory
        return np.ascontiguousarray(self.values.transpose(0, 2, 1))

    @cached_property
    def _deriv_table(self) -> np.ndarray:
        # derivative of each local polynomial at the same nodes; one degree
        # lower, so interpolating it on the full node set stays exact
        scaled = self.values / self.mesh.lengths[:, None, None]
        return np.ascontiguousarray(
            np.einsum("jk,iks->isj", self.node_family.diff_matrix, scaled))

    def _contract(self, table, idx, t):
        """Values and Lagrange rows at times t in intervals idx; unchunked."""
        basis = lagrange_rows(t, self.node_times[idx],
                              self.node_family.bary_weights)
        return np.sum(basis[:, None, :] * table[idx], axis=2), basis

    def _interpolate(self, table, idx, t):
        """``_contract``'s values, in chunks of ``_CHUNK`` queries."""
        out = np.empty((t.size, table.shape[1]))
        for lo in range(0, t.size, _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            # `_` keeps the basis alive into the next chunk: fewer page faults
            out[rows], _ = self._contract(table, idx[rows], t[rows])
        return out

    def _eval_table(self, table, t):
        t_arr = np.asarray(t, dtype=float)
        flat = _wrap_time(np.atleast_1d(t_arr).ravel())
        out = self._interpolate(table, self.mesh.interval_index(flat), flat)
        if t_arr.ndim == 0:
            return out[0]
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

    def eval_with_deriv(self, t):
        """``(eval(t), eval_deriv(t))`` bitwise, from one pass of rows."""
        both = self._eval_table(
            np.concatenate([self._value_table, self._deriv_table], axis=1), t)
        return both[..., :self.dim], both[..., self.dim:]

    def integrate(self, a: float, b: float):
        """Exact integral over [a, b] within [0, 1], split at breaks."""
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
        if degree < 1:
            raise InvalidArgumentError(f"degree must be >= 1, got {degree}")
        family = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, degree)
        self.free_values = self._init_storage(mesh, family, free_values,
                                              degree)
        self.degree = degree

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
        """``(eval(times), cols, rows)`` for 1-d times, the value bitwise;
        value p is the sum over j of rows[p, j] times free value cols[p, j],
        both (k, m+1).  Unchunked, so for collocation-sized batches only."""
        t = _wrap_time(np.asarray(times, dtype=float))
        idx = self.mesh.interval_index(t)
        values, rows = self._contract(self._value_table, idx, t)
        return values, self._columns[idx], rows


class PiecewiseProjection(_PiecewiseBase):
    """Interpolation projection: degree m-1 per interval on the m nodes
    of ``family``, generally discontinuous at breaks.
    """

    def __init__(self, mesh: Mesh, family: NodeFamily, values):
        self.values = self._init_storage(mesh, family, values, family.m)
        self.degree = family.m - 1


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
    if degree < 1:
        raise InvalidArgumentError(f"degree must be >= 1, got {degree}")
    family = make_nodes(NodeKind.CHEBYSHEV_LOBATTO, degree)
    return PeriodicPiecewisePoly(mesh, degree,
                                 _sample(f, mesh, family.nodes[:-1]))


def project(f, mesh: Mesh, m: int) -> PiecewiseProjection:
    """Interpolate a 1-periodic function on the m Gauss-Legendre
    collocation nodes of each interval.

    ``f`` maps an array of times to an array of values, one row per time;
    the result matches f exactly at the collocation points.
    """
    if m < 1:
        raise InvalidArgumentError(f"node count must be >= 1, got {m}")
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


def _document_int(doc: dict, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{key} must be an integer, got {value!r}")
    return value


def _document_array(value, name: str) -> np.ndarray:
    """A numeric field of a document as a float array; strings, booleans,
    nulls and ragged nesting are rejected."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must be a numeric array")
    return arr.astype(float)


def poly_from_document(doc: dict) -> PeriodicPiecewisePoly:
    """Rebuild a periodic piecewise polynomial from its JSON document.

    The document lists the values at all m+1 nodes of each interval.  It
    comes from outside the program, so the two copies of each shared break
    value must agree bitwise and the last value must close onto the first
    before the free values are kept.
    """
    required = {"breaks", "degree", "dim", "rep_kind", "values"}
    if not isinstance(doc, dict) or set(doc) != required:
        keys = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise InvalidArgumentError(
            f"polynomial document needs keys {sorted(required)}, got {keys}")
    degree = _document_int(doc, "degree")
    dim = _document_int(doc, "dim")
    kind = NodeKind.from_name(doc["rep_kind"])
    if kind != NodeKind.CHEBYSHEV_LOBATTO:
        raise InvalidArgumentError(
            "representation nodes must include both interval endpoints; "
            f"got {kind.value}")
    mesh = Mesh(_document_array(doc["breaks"], "breaks"))
    values = _document_array(doc["values"], "values")
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


def poly_to_json(p: PeriodicPiecewisePoly) -> str:
    return json.dumps(poly_to_document(p), indent=2)


def poly_from_json(text: str) -> PeriodicPiecewisePoly:
    return poly_from_document(json.loads(text))
