"""Exception hierarchy shared by all flowalg modules."""


class FlowAlgError(Exception):
    """Base class for all flowalg errors."""


class InputError(FlowAlgError):
    """Malformed or inconsistent input: unknown ids, bad file syntax,
    ring mismatches, violated operation preconditions."""


class CapacityError(FlowAlgError):
    """Input exceeds a documented ceiling, checked before the work starts:
    more than ``MAX_SUBSET_EDGES`` edges for a subset-indexed operation,
    more than ``MAX_COSET_REPRESENTATIVES`` coset representatives, or a
    corpus of more than ``MAX_CORPUS_EDGES`` edges."""


class CheckError(FlowAlgError):
    """An internal cross-validation failed: two independent computations
    of the same quantity disagree.  Always indicates a bug or a corrupted
    input, never a user error."""


def check_failed(g, stage: str, detail: str) -> CheckError:
    """A ``CheckError`` naming the failed stage and the graph's edge list;
    ``detail`` gives the values that disagree."""
    return CheckError(f"{stage} check failed on the graph with edges "
                      f"{list(g.edges)}: {detail}")


MAX_SUBSET_EDGES = 20

# Above 170,800, the largest product of chord indices over all chord orders
# of the left Figure 1 graph, so every coset system of the sample graphs fits.
MAX_COSET_REPRESENTATIVES = 200_000

# Admits corpus 9: 26,363 graphs through 9 edges, generated in about 8 s
# and 39 MB (one core, Python 3.11.7).
MAX_CORPUS_EDGES = 9


def require_capacity(m: int) -> None:
    if m > MAX_SUBSET_EDGES:
        raise CapacityError(
            f"graph has {m} edges; subset-indexed operations support at most "
            f"{MAX_SUBSET_EDGES}"
        )


def require_bound(name: str, value) -> None:
    """Refuse a bound that is not an int or a ``Fraction``, or is negative."""
    if not hasattr(value, "denominator"):
        raise InputError(f"{name} {value!r} is not an int or a Fraction")
    if value < 0:
        raise InputError(f"{name} {value} is negative")
