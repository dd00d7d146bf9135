"""Centered square-box geometry: vertices, edges, boundaries, annuli, planar dual.

The box of side n is the set of integer points (x, y) with -n/2 <= x, y < n/2.
All orderings (vertices, edges, neighbors) are deterministic: vertices are
sorted lexicographically by coordinate, edges lexicographically by their
(smaller endpoint, larger endpoint) pair in vertex order.
"""

import operator
from functools import lru_cache

import numpy as np

Coord = tuple[int, int]


def box_range(n: int) -> tuple[int, int]:
    """Inclusive coordinate range [lo, hi] of the side-n box on each axis."""
    if n < 1:
        raise ValueError(f"box side must be >= 1, got {n}")
    return -(n // 2), (n - 1) // 2


def _checked_index(i, what: str) -> int:
    """`i` as an int, refused unless it is an integer (3.0 is not)."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {i!r}") from None


def _checked_ids(ids, stop: int, what: str) -> np.ndarray:
    """The ids of an iterable or array as int64, refused unless each is an
    integer in [0, stop); a boolean mask is not a list of ids."""
    arr = ids if isinstance(ids, np.ndarray) else np.array(list(ids))
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} ids must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() >= stop):
        raise ValueError(f"{what} id out of range")
    return arr


def _shifts(grid: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the (-x, -y, +y, +x) neighbours of a padded grid's core."""
    return grid[:-2, 1:-1], grid[1:-1, :-2], grid[1:-1, 2:], grid[2:, 1:-1]


class BoxGeometry:
    """Static geometry of the side-n box.

    Attributes
    ----------
    n : int
        Side length; the box has n^2 vertices.
    lo, hi : int
        Inclusive coordinate bounds on each axis.
    coords : (n^2, 2) int array
        Vertex coordinates in lexicographic order; row index = vertex id.
    edges : (E, 2) int array
        Nearest-neighbour pairs (a, b) with a < b in vertex-id order,
        sorted lexicographically; E = 2n(n-1).
    boundary_mask : (n^2,) bool array
        True for vertices with a nearest neighbour outside the box.
    interior_edge_mask : (E,) bool array
        True for edges not contained in the boundary ring.
    neighbors : (n^2, 4) int array
        Neighbour vertex ids in the fixed order (-x, -y, +y, +x), -1 where the
        neighbour falls outside the box.
    incident_edges : (n^2, 4) int array
        Edge ids parallel to `neighbors`, -1 padding.
    """

    def __init__(self, n: int):
        lo, hi = box_range(n)
        self.n, self.lo, self.hi = n, lo, hi
        axis = np.arange(lo, hi + 1)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        self.coords = np.stack([xs.ravel(), ys.ravel()], axis=1)

        nsq = n * n
        ids = np.arange(nsq)
        x, y = self.coords.T
        # vertex ids on the (n+2) x (n+2) grid padded with -1; its four
        # shifts are the neighbours in the order (-x, -y, +y, +x)
        grid = np.full((n + 2, n + 2), -1, dtype=np.int64)
        grid[1:-1, 1:-1] = ids.reshape(n, n)
        self.neighbors = np.stack(_shifts(grid), axis=-1).reshape(nsq, 4)
        # edges are the +y then +x steps read vertex by vertex, already in
        # (a, b) order; each endpoint row is contiguous, which is faster to
        # gather by, and edges is their transposed view
        fwd = self.neighbors[:, 2:]
        steps = fwd >= 0
        ends = np.stack([np.nonzero(steps)[0], fwd[steps]])
        self.edge_a, self.edge_b = ends
        self.edges = ends.T
        self.n_edges = len(self.edges)
        # the +y and +x edge ids of each vertex on the padded grid; the -x
        # edge of a vertex is the +x edge of its -x neighbour
        eid = np.full((n + 2, n + 2, 2), -1, dtype=np.int64)
        eid[1:-1, 1:-1][steps.reshape(n, n, 2)] = np.arange(self.n_edges)
        mx, my, _, _ = _shifts(eid)
        inc = [mx[..., 1], my[..., 0], eid[1:-1, 1:-1, 0], eid[1:-1, 1:-1, 1]]
        self.incident_edges = np.stack(inc, axis=-1).reshape(nsq, 4)

        self.boundary_mask = (x == lo) | (x == hi) | (y == lo) | (y == hi)
        self.boundary_ids = ids[self.boundary_mask]
        bm = self.boundary_mask
        self.interior_edge_mask = ~(bm[self.edge_a] & bm[self.edge_b])

        # vertices with all four neighbours inside, split by checkerboard color
        interior = ids[~bm]
        colors = (x[interior] + y[interior]) & 1
        self.interior_ids = interior
        self.interior_even = interior[colors == 0]
        self.interior_odd = interior[colors == 1]

        # interior half-grid used by the singleton count: even 1-norm
        self.halfgrid_mask = (~bm) & (((np.abs(x) + np.abs(y)) & 1) == 0)

    # -- basic lookups ----------------------------------------------------

    def contains(self, x: int, y: int) -> bool:
        return self.lo <= x <= self.hi and self.lo <= y <= self.hi

    def vertex_id(self, x: int, y: int) -> int:
        if not self.contains(x, y):
            raise ValueError(f"({x}, {y}) outside box of side {self.n}")
        return (x - self.lo) * self.n + (y - self.lo)

    def coord(self, v: int) -> Coord:
        return int(self.coords[v, 0]), int(self.coords[v, 1])

    def edge_id(self, a: int, b: int) -> int:
        """Id of the edge joining vertices a and b, given in either order."""
        a, b = sorted((int(a), int(b)))
        if 0 <= a < self.n * self.n:
            for slot in (2, 3):  # +y and +x: the steps to a larger id
                if self.neighbors[a, slot] == b:
                    return int(self.incident_edges[a, slot])
        raise ValueError(f"({a}, {b}) is not an edge of the box")

    def vertex_mask(self, vertices) -> np.ndarray:
        """Boolean vertex mask of an iterable of vertex ids."""
        mask = np.zeros(self.n * self.n, dtype=bool)
        mask[_checked_ids(vertices, mask.size, "vertex")] = True
        return mask

    def sub_box_mask(self, j: int) -> np.ndarray:
        """Boolean vertex mask of the centered side-j sub-box."""
        if j > self.n:
            raise ValueError(f"sub-box side {j} exceeds box side {self.n}")
        lo, hi = box_range(j)
        x, y = self.coords.T
        return (x >= lo) & (x <= hi) & (y >= lo) & (y <= hi)

    def annulus_edges(self, j: int) -> np.ndarray:
        """Edge ids of the exterior edge boundary of the side-j sub-box.

        These are the box edges with exactly one endpoint in the sub-box.  For
        j <= n-2 every such edge of the full lattice lies inside the box, so
        the set is the complete exterior boundary (4j edges); for j = n-1 the
        edges leaving the box are not representable and are omitted.
        """
        if not 1 <= j < self.n:
            raise ValueError(f"annulus index must be in [1, {self.n - 1}], got {j}")
        inside = self.sub_box_mask(j)
        return np.flatnonzero(inside[self.edge_a] ^ inside[self.edge_b])


@lru_cache(maxsize=None)
def build_box(n: int) -> BoxGeometry:
    """Construct (and cache) the side-n box geometry."""
    return BoxGeometry(n)


def as_box(g: BoxGeometry | int) -> BoxGeometry:
    """The geometry itself, or the box of side g when g is an integer."""
    return build_box(int(g)) if isinstance(g, (int, np.integer)) else g


_STEPS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _vertex_coords(vertices, g: BoxGeometry | None) -> list[Coord]:
    """Coordinates of an iterable of coordinates, or of vertex ids when `g`
    is given."""
    out = []
    for v in vertices:
        if g is not None and isinstance(v, (int, np.integer)):
            out.append(g.coord(int(v)))
        else:
            out.append((int(v[0]), int(v[1])))
    return out


def exterior_boundary_edges(
    vertices, g: BoxGeometry | None = None
) -> tuple[list[tuple[Coord, Coord]], list[bool]]:
    """Exterior edge boundary of a vertex set: lattice edges with exactly one
    endpoint in the set.

    `vertices` is an iterable of coordinates (or vertex ids when `g` is
    given).  Returns the edges as (inside endpoint, outside endpoint)
    coordinate pairs in lexicographic order, plus a parallel list flagging
    edges whose outside endpoint leaves the box (meaningless without `g`:
    all False then).
    """
    vs = set(_vertex_coords(vertices, g))
    out: list[tuple[Coord, Coord]] = []
    leaves: list[bool] = []
    for (x, y) in sorted(vs):
        for dx, dy in _STEPS:
            w = (x + dx, y + dy)
            if w not in vs:
                out.append(((x, y), w))
                leaves.append(False if g is None else not g.contains(*w))
    return out, leaves


def diameter(vertices, g: BoxGeometry | None = None) -> int:
    """l-infinity diameter of a nonempty vertex set (coordinates or ids)."""
    pts = _vertex_coords(vertices, g)
    if not pts:
        raise ValueError("diameter of an empty vertex set")
    xs, ys = zip(*pts)
    return max(max(xs) - min(xs), max(ys) - min(ys))


class DualGeometry:
    """Planar dual pairing between the side-n box and the side-(n-1) box.

    Each interior edge of the primal box is crossed by exactly one edge of the
    dual lattice; after the parity-dependent half-unit shift the dual vertices
    land on the side-(n-1) box.  `edge_map[e]` is the dual edge id for primal
    interior edge e (-1 for boundary-ring edges); `primal_of[d]` inverts it.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("dual pairing needs box side >= 2")
        self.primal = build_box(n)
        self.dual = build_box(n - 1)
        g, d = self.primal, self.dual
        # shift (0,0) for odd n, (1,1) for even n: the dual edge crossing e
        # ends at e's lower endpoint shifted by (s, s) and starts one step back
        # across e (a +y dual edge for a horizontal e, +x for a vertical one)
        s = 0 if n % 2 == 1 else 1
        interior = np.flatnonzero(g.interior_edge_mask)
        a = g.edge_a[interior]
        horiz = g.edge_b[interior] - a == n
        x = g.coords[a, 0] + s - ~horiz
        y = g.coords[a, 1] + s - horiz
        de = d.incident_edges[(x - d.lo) * d.n + (y - d.lo), np.where(horiz, 2, 3)]
        if not np.array_equal(np.sort(de), np.arange(d.n_edges)):
            raise AssertionError("interior and dual edges do not pair; pairing broken")
        self.edge_map = np.full(g.n_edges, -1, dtype=np.int64)
        self.edge_map[interior] = de
        self.primal_of = np.empty(d.n_edges, dtype=np.int64)
        self.primal_of[de] = interior


@lru_cache(maxsize=None)
def dual_geometry(n: int) -> DualGeometry:
    """Construct (and cache) the dual pairing for the side-n box."""
    return DualGeometry(n)
