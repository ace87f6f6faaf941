"""Every public function that takes a bound refuses a bad one through
``errors.require_bound``, and every one that takes a count through
``errors.require_count``, in the same words."""

import re
from fractions import Fraction

import pytest

import flowalg.corpus as corpus_mod
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


# (a bad value, the words for a rational bound, the words for a count)
@pytest.mark.parametrize("value, words, count_words", [
    (-1, "-1 is negative", "-1 is negative"),
    (Fraction(-1, 2), "-1/2 is negative", "Fraction(-1, 2) is not an int"),
    (2.5, "2.5 is not an int or a Fraction", "2.5 is not an int"),
    ("3", "'3' is not an int or a Fraction", "'3' is not an int"),
], ids=["negative", "negative-fraction", "float", "string"])
@pytest.mark.parametrize("name, call", RATIONAL_BOUNDS + COUNTS, ids=IDS)
def test_every_bound_is_refused_in_the_same_words(name, call, value, words,
                                                  count_words):
    if (name, call) in COUNTS:
        words = count_words
    with pytest.raises(InputError, match=f"^{re.escape(name)} "
                                         f"{re.escape(words)}$"):
        call(value)


@pytest.mark.parametrize("name, call", COUNTS,
                         ids=IDS[len(RATIONAL_BOUNDS):])
def test_an_integral_fraction_count_is_refused(name, call, monkeypatch):
    # with no corpus cached, as before a first corpus run
    monkeypatch.setattr(corpus_mod, "_cache", {})
    with pytest.raises(InputError,
                       match=f"^{name} Fraction\\(2, 1\\) is not an int$"):
        call(Fraction(2))


@pytest.mark.parametrize("name, call", RATIONAL_BOUNDS,
                         ids=IDS[:len(RATIONAL_BOUNDS)])
def test_a_fraction_bound_is_accepted(name, call):
    # no norm of the triangle's lattice, nor of [[2]], lies in (2, 5/2]
    assert call(Fraction(5, 2)) == call(2)
