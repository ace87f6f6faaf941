import pathlib
from fractions import Fraction

import pytest

from flowalg.cli import parse_graph
from flowalg.corpus import connected_multigraphs

GRAPH_DIR = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def rref(mat):
    """Reduced row echelon form and pivot column indices (copy; exact
    rational Gauss-Jordan elimination).  A reference for the integer
    routines of ``flowalg.linalg``; the library itself has no rational
    elimination."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if m[r][c] != 1:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * b for x, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


@pytest.fixture(scope="session")
def corpus4():
    return connected_multigraphs(4)


@pytest.fixture(scope="session")
def corpus5():
    return connected_multigraphs(5)


@pytest.fixture(scope="session")
def corpus7():
    return connected_multigraphs(7)


@pytest.fixture(scope="session")
def fig1_left():
    return parse_graph(str(GRAPH_DIR / "fig1_left.g"))


@pytest.fixture(scope="session")
def fig1_right():
    return parse_graph(str(GRAPH_DIR / "fig1_right.g"))


@pytest.fixture(scope="session")
def graph_dir():
    return GRAPH_DIR
