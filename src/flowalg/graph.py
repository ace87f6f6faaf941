"""Finite multigraphs with loops, parallel edges and a reference orientation.

A graph stores an ordered edge list of ``(edge_id, tail, head)`` triples.
The ordered pair (tail, head) fixes the reference direction of every edge;
all signed quantities downstream (incidence rows, flows, circulations) are
expressed in these coordinates.  Edge ids are arbitrary distinct unsigned
integers; ascending edge id is the tie-breaking order everywhere a
deterministic choice is needed (forests, recursion pivots, bases).

All values are immutable; operations return new graphs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import InputError

Edge = tuple[int, int, int]  # (edge id, tail vertex, head vertex)


class Graph:
    def __init__(self, vertices: tuple[int, ...], edges: tuple[Edge, ...]):
        # as in _derived: writing through __dict__ gives each graph a dict
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("duplicate vertex id")
        seen = set()
        for eid, tail, head in self.edges:
            if eid in seen:
                raise InputError(f"duplicate edge id {eid}")
            seen.add(eid)
            if tail not in vset or head not in vset:
                raise InputError(f"edge {eid} references unknown vertex")

    @classmethod
    def _derived(cls, vertices: tuple[int, ...],
                 edges: tuple[Edge, ...]) -> "Graph":
        """A graph built from a valid one by an operation that keeps it
        valid (delete, contract, reorient): skips the input checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    # a value: immutable (``cached_property`` writes ``__dict__`` itself),
    # equal and hashed by its vertex and edge tuples
    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    # -- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.edges)

    @cached_property
    def _pos(self) -> dict[int, int]:
        """Edge id -> position in the edge list (bit position in masks)."""
        return {e[0]: i for i, e in enumerate(self.edges)}

    @cached_property
    def _by_id(self) -> dict[int, Edge]:
        return {e[0]: e for e in self.edges}

    def edge(self, eid: int) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid}") from None

    def position(self, eid: int) -> int:
        try:
            return self._pos[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid}") from None

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> list of (edge id, other endpoint); loops appear once."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for eid, tail, head in self.edges:
            adj[tail].append((eid, head))
            if tail != head:
                adj[head].append((eid, tail))
        return adj

    # -- edge subsets as bit masks ---------------------------------------

    def mask_of(self, edge_ids: Iterable[int]) -> int:
        mask = 0
        for eid in edge_ids:
            mask |= 1 << self.position(eid)
        return mask

    def _check_subset(self, sigma: Iterable[int]) -> frozenset[int]:
        sigma = frozenset(sigma)
        if not sigma <= self._by_id.keys():
            for eid in sigma:
                self.edge(eid)
        return sigma

    # -- structure -------------------------------------------------------

    def components(self) -> tuple[int, dict[int, int]]:
        """Connected components: ``(count, vertex -> minimum vertex id of
        its component)``.  Loops are irrelevant."""
        return _components(self.vertices, [(t, h) for _, t, h in self.edges])

    @cached_property
    def num_components(self) -> int:
        return self.components()[0]

    @cached_property
    def roots(self) -> frozenset[int]:
        """The least vertex of each component, its root.  The incidence
        rows of one component sum to zero, and so do the conservation rows
        of each component of a contraction, whose classes the roots still
        name; so a system grounded at the roots, without their rows
        (:meth:`grounded_incidence`), has the row lattice of the whole."""
        _, least = self.components()
        return frozenset(least.values())

    def delete(self, sigma: Iterable[int]) -> "Graph":
        """Remove the edges in sigma; the vertex set is unchanged."""
        sigma = self._check_subset(sigma)
        return Graph._derived(self.vertices,
                              tuple(e for e in self.edges if e[0] not in sigma))

    def contract(self, sigma: Iterable[int]) -> "Graph":
        """Collapse every edge of sigma to a point.

        Vertices of the image are the connected components of the spanning
        subgraph (V, sigma), each named by the minimum original vertex id it
        contains.  Edges outside sigma survive with their endpoints pushed
        through the quotient map and their direction inherited.
        """
        sigma = self._check_subset(sigma)
        _, comp = _components(
            self.vertices,
            [(t, h) for eid, t, h in self.edges if eid in sigma])
        new_vertices = tuple(sorted(set(comp.values())))
        new_edges = tuple((eid, comp[t], comp[h])
                          for eid, t, h in self.edges if eid not in sigma)
        return Graph._derived(new_vertices, new_edges)

    def is_cut_edge(self, eid: int) -> bool:
        """True iff deleting the edge increases the component count.
        Loops are never cut-edges."""
        self.edge(eid)
        return eid in self.cut_edges

    @cached_property
    def cut_edges(self) -> frozenset[int]:
        """The bridges: the edges whose deletion increases the component
        count, read from :attr:`blocks`.  Loops are never cut-edges."""
        return frozenset(self.blocks[0])

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(bridges, blocks)`` from one depth-first search (Hopcroft and
        Tarjan, "Efficient algorithms for graph manipulation", CACM 1973):
        the edge ids of the cut-edges, and of every 2-connected block of
        two or more edges, all in ascending order.  Loops are set aside, so
        bridges and blocks partition the non-loop edges.  Plain tuples keep
        the cached result small on the many graphs that only the Tutte
        recursion searches.

        The search skips the edge it arrived by, not the vertex it came
        from, so an edge parallel to a tree edge is a back edge and a
        parallel pair is a block.  Each tree edge and the back edges found
        below it wait on a stack; when no back edge from below the tree edge
        reaches above its upper end, they are popped as one block, and a
        block of that single edge is a bridge."""
        # built here, not read from the cached ``adjacency``, so that the
        # many graphs searched once keep only the result
        adjacency: dict[int, list[tuple[int, int]]] = {
            v: [] for v in self.vertices}
        for eid, tail, head in self.edges:
            if tail != head:
                adjacency[tail].append((eid, head))
                adjacency[head].append((eid, tail))
        order: dict[int, int] = {}   # vertex -> discovery index
        low: dict[int, int] = {}     # least discovery index reached below
        waiting: list[int] = []      # edge ids not yet assigned a block
        bridges: list[int] = []
        found: list[list[int]] = []
        for root in self.vertices:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            # (vertex, edge id it was reached by, its neighbours left to
            # scan, stack height before that edge)
            path = [(root, None, iter(adjacency[root]), 0)]
            while path:
                v, via, todo, height = path[-1]
                for eid, w in todo:
                    if eid == via:
                        continue
                    if w not in order:
                        order[w] = low[w] = len(order)
                        path.append((w, eid, iter(adjacency[w]),
                                     len(waiting)))
                        waiting.append(eid)
                        break
                    if order[w] < order[v]:
                        waiting.append(eid)
                        low[v] = min(low[v], order[w])
                else:
                    path.pop()
                    if not path:
                        continue
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= order[u]:
                        block = waiting[height:]
                        del waiting[height:]
                        if len(block) == 1:
                            bridges.append(via)
                        else:
                            found.append(block)
        return tuple(sorted(bridges)), tuple(tuple(sorted(b)) for b in found)

    @cached_property
    def normal_form(self) -> bytes:
        """Exact key of the graph up to relabeling and orientation: drop
        isolated vertices, relabel the rest 0..n-1 by ascending original
        id, and write each edge {i, j}, i <= j, as the code i * n + j.  The
        key is n, then the sorted codes, one byte each while n <= 16 (every
        code is then below 256).  Above that the first byte is 16 + w, and
        n and the codes follow in w bytes each, big-endian, w the fewest
        that hold n * n - 1.  The first byte alone tells the two layouts
        apart, so equal keys mean equal graphs up to relabeling.  Cached, so
        every use of one graph object shares one key object; the Tutte memo
        is keyed by it (see :func:`flowalg.tutte._normal_form`)."""
        used = sorted({v for _, t, h in self.edges for v in (t, h)})
        n = len(used)
        index = {v: i for i, v in enumerate(used)}
        codes = sorted(min(index[t], index[h]) * n + max(index[t], index[h])
                       for _, t, h in self.edges)
        if n <= 16:
            return bytes((n, *codes))
        width = ((n * n - 1).bit_length() + 7) // 8
        return bytes((16 + width,)) + b"".join(
            c.to_bytes(width, "big") for c in (n, *codes))

    def maximal_forest(self) -> frozenset[int]:
        """Deterministic spanning forest: greedy over ascending edge id,
        skipping loops and cycle-closing edges."""
        parent = {v: v for v in self.vertices}
        return frozenset(eid for eid, tail, head in sorted(self.edges)
                         if _union(parent, tail, head))

    def basic_flows(self) -> dict[int, tuple[int, ...]]:
        """Chord id -> basic flow of that chord, in ascending chord id
        order, for the chords of :meth:`maximal_forest`.  The basic flow of
        a chord c is the signed indicator of its fundamental cycle over the
        edge positions, +1 at c in reference coordinates; it satisfies every
        vertex conservation law (see :meth:`incidence_row`).  Every
        fundamental cycle is read from one rooted BFS tree of the forest:
        the chord's ends climb to their common ancestor."""
        forest = self.maximal_forest()
        adj: dict[int, list[tuple[int, int, int]]] = {
            v: [] for v in self.vertices}
        for eid, t, h in self.edges:
            if eid in forest:
                # sign of the edge when walked away from this end
                adj[t].append((eid, h, 1))
                adj[h].append((eid, t, -1))
        # vertex -> (parent, position of the tree edge, sign walked down
        # from the parent, depth); roots have no parent
        up: dict[int, tuple[int, int, int, int]] = {}
        for root in self.vertices:
            if root in up:
                continue
            up[root] = (root, -1, 0, 0)
            queue = [root]
            while queue:
                nxt = []
                for u in queue:
                    depth = up[u][3] + 1
                    for eid, other, sign in adj[u]:
                        if other not in up:
                            up[other] = (u, self._pos[eid], sign, depth)
                            nxt.append(other)
                queue = nxt
        flows = {}
        for c in sorted(set(self.edge_ids) - forest):
            _, tail_c, head_c = self._by_id[c]
            flow = [0] * self.num_edges
            flow[self._pos[c]] = 1
            # the cycle runs head_c -> tail_c through the tree: up from
            # head_c against each tree edge's downward sign, down to tail_c
            # with it
            a, b = head_c, tail_c
            while a != b:
                if up[a][3] >= up[b][3]:
                    a, i, sign, _ = up[a]
                    flow[i] = -sign
                else:
                    b, i, sign, _ = up[b]
                    flow[i] = sign
            flows[c] = tuple(flow)
        return flows

    def girth(self):
        """Length of a shortest cycle: 1 for a loop, 2 for a parallel pair;
        ``None`` for forests."""
        best = None
        for eid, tail, head in self.edges:
            if tail == head:
                return 1
            d = _dist_avoiding(self, tail, head, eid)
            if d is not None and (best is None or d + 1 < best):
                best = d + 1
        return best

    def incidence_row(self, v: int) -> tuple[int, ...]:
        """Signed vertex-edge incidence: entry for edge e is
        [head(e)=v] - [tail(e)=v]; loops contribute 0."""
        if v not in set(self.vertices):
            raise InputError(f"unknown vertex {v}")
        return tuple((head == v) - (tail == v) for _, tail, head in self.edges)

    def grounded_incidence(self) -> list[tuple[int, ...]]:
        """The incidence rows of the vertices that are not roots."""
        roots = self.roots
        return [self.incidence_row(v) for v in self.vertices if v not in roots]

    def reorient(self, edge_ids: Iterable[int]) -> "Graph":
        """Flip the stored direction of the given edges."""
        flip = self._check_subset(edge_ids)
        return Graph._derived(
            self.vertices,
            tuple((eid, head, tail) if eid in flip else (eid, tail, head)
                  for eid, tail, head in self.edges))


# -- internal helpers ----------------------------------------------------


def _union(parent: dict[int, int], t: int, h: int) -> bool:
    """Join the classes of t and h in a union-find forest; False if they
    were already one class.  The larger root always goes under the smaller,
    so every root is the minimum vertex id of its class."""
    while parent[t] != t:
        parent[t] = parent[parent[t]]
        t = parent[t]
    while parent[h] != h:
        parent[h] = parent[parent[h]]
        h = parent[h]
    if t < h:
        parent[h] = t
    elif h < t:
        parent[t] = h
    return t != h


def _components(vertices, pairs):
    """Connected components of the vertices under the given pairs:
    ``(count, vertex -> minimum vertex id of its component)``."""
    parent = {v: v for v in vertices}
    for t, h in pairs:
        _union(parent, t, h)
    comp = {}
    count = 0
    for v in vertices:
        r = parent[v]
        if r == v:
            count += 1
        else:
            while parent[r] != r:
                r = parent[r]
        comp[v] = r
    return count, comp


def _dist_avoiding(g: Graph, start, goal, avoid_eid):
    """Shortest edge count from start to goal not using the given edge."""
    if start == goal:
        return 0
    dist = {start: 0}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            for eid, other in g.adjacency[u]:
                if eid == avoid_eid or other in dist:
                    continue
                dist[other] = dist[u] + 1
                if other == goal:
                    return dist[other]
                nxt.append(other)
        queue = nxt
    return None


# -- constructors used throughout tests and the corpus -------------------


def build(edges: Iterable[tuple[int, int, int]],
          isolated: Iterable[int] = ()) -> Graph:
    """Graph from (edge id, tail, head) triples; the vertex set is the union
    of the endpoints and any extra isolated vertices."""
    edges = tuple(edges)
    vertices = set(isolated)
    for _, t, h in edges:
        vertices.add(t)
        vertices.add(h)
    return Graph(tuple(sorted(vertices)), edges)


def cycle_graph(n: int) -> Graph:
    """n-cycle on vertices 1..n; a single loop when n = 1."""
    if n < 1:
        raise InputError("cycle needs at least one vertex")
    if n == 1:
        return build([(1, 1, 1)])
    return build([(i, i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Graph:
    """Path with n vertices."""
    if n < 1:
        raise InputError("path needs at least one vertex")
    return build([(i, i, i + 1) for i in range(1, n)], isolated=[1])


def complete_graph(n: int) -> Graph:
    edges = []
    eid = 1
    for u in range(1, n + 1):
        for w in range(u + 1, n + 1):
            edges.append((eid, u, w))
            eid += 1
    return build(edges, isolated=range(1, n + 1))


def dipole_graph(n: int) -> Graph:
    """Two vertices joined by n parallel edges."""
    return build([(i, 1, 2) for i in range(1, n + 1)])


def bouquet_graph(n: int) -> Graph:
    """Single vertex with n loops."""
    return build([(i, 1, 1) for i in range(1, n + 1)], isolated=[1])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the second graph is relabeled above the first."""
    v_off = max(g1.vertices, default=0) + 1
    e_off = max(g1.edge_ids, default=0) + 1
    shifted = [(eid + e_off, t + v_off, h + v_off) for eid, t, h in g2.edges]
    vertices = tuple(sorted(set(g1.vertices) | {v + v_off for v in g2.vertices}))
    return Graph(vertices, g1.edges + tuple(shifted))


def one_point_union(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Glue two graphs by identifying one vertex of each."""
    v_off = max(g1.vertices, default=0) + 1
    e_off = max(g1.edge_ids, default=0) + 1

    def mv(v):
        return v1 if v == v2 else v + v_off

    shifted = [(eid + e_off, mv(t), mv(h)) for eid, t, h in g2.edges]
    vertices = set(g1.vertices) | {mv(v) for v in g2.vertices}
    return Graph(tuple(sorted(vertices)), g1.edges + tuple(shifted))
