"""Every public function that takes a bound refuses a bad one through
``errors.require_bound``, in the same words."""

import re
from fractions import Fraction

import pytest

from flowalg.corpus import connected_multigraphs
from flowalg.errors import InputError
from flowalg.graph import cycle_graph
from flowalg.lattice import (codichromatic_compare, flows_of_norm,
                             theta_enumerate, theta_product)
from flowalg.linalg import enumerate_by_norm
from flowalg.series import QSeries, psi_series
from flowalg.verify import orientation_invariance, run_corpus, verify_graph

G = cycle_graph(3)

# (the name in the message, a call taking the bound; every other argument
# is valid).  These bounds are rational: a Fraction is a bound like any int.
RATIONAL_BOUNDS = [
    ("theta bound", lambda b: theta_product(G, b).terms),
    ("theta bound", lambda b: theta_enumerate(G, b).terms),
    ("norm", lambda b: flows_of_norm(G, b)),
    ("theta bound",
     lambda b: codichromatic_compare(G, G, b)["theta_left"].terms),
    ("norm bound", lambda b: enumerate_by_norm([[2]], b)),
    ("truncation bound", lambda b: psi_series(0, 1, b).terms),
    ("truncation bound", lambda b: QSeries.from_dict({0: 1, 3: 2}, b).terms),
    ("theta bound", lambda b: verify_graph(G, theta_bound=b).as_dicts()),
    ("theta bound", lambda b: orientation_invariance(G, 2, theta_bound=b)),
    ("theta bound", lambda b: run_corpus(1, theta_bound=b)),
]
COUNTS = [
    ("trial count", lambda b: verify_graph(G, trials=b)),
    ("trial count", lambda b: orientation_invariance(G, b)),
    ("trial count", lambda b: run_corpus(1, trials=b)),
    ("edge bound", lambda b: connected_multigraphs(b)),
]
IDS = ["theta_product", "theta_enumerate", "flows_of_norm",
       "codichromatic_compare", "enumerate_by_norm", "psi_series",
       "QSeries.from_dict", "verify_graph", "orientation_invariance",
       "run_corpus", "verify_graph-trials", "orientation_invariance-trials",
       "run_corpus-trials", "connected_multigraphs"]


@pytest.mark.parametrize("value, words", [
    (-1, "-1 is negative"),
    (Fraction(-1, 2), "-1/2 is negative"),
    (2.5, "2.5 is not an int or a Fraction"),
    ("3", "'3' is not an int or a Fraction"),
], ids=["negative", "negative-fraction", "float", "string"])
@pytest.mark.parametrize("name, call", RATIONAL_BOUNDS + COUNTS, ids=IDS)
def test_every_bound_is_refused_in_the_same_words(name, call, value, words):
    with pytest.raises(InputError, match=f"^{re.escape(name)} "
                                         f"{re.escape(words)}$"):
        call(value)


@pytest.mark.parametrize("name, call", RATIONAL_BOUNDS,
                         ids=IDS[:len(RATIONAL_BOUNDS)])
def test_a_fraction_bound_is_accepted(name, call):
    # no norm of the triangle's lattice, nor of [[2]], lies in (2, 5/2]
    assert call(Fraction(5, 2)) == call(2)
