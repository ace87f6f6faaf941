"""Exact invariants of finite multigraphs: Tutte and rank-sequence
polynomials, circulation algebras, integer flow lattices and their theta
functions, with every quantity cross-validated through at least two
independent computational routes."""

from .circulation import (Circulation, GF, QQ, Ring, ZZ, divided_power,
                          exponential, monomial_dimensions, nilpotence,
                          pseudopower, relation_membership_check,
                          verify_inequalities)
from .errors import CapacityError, CheckError, FlowAlgError, InputError
from .graph import (Graph, build, bouquet_graph, complete_graph,
                    cycle_graph, dipole_graph, disjoint_union,
                    one_point_union, path_graph)
from .lattice import (CharacteristicFlow, CosetSystem, FlowLattice,
                      characteristic_flow, codichromatic_compare,
                      coset_system, flows_of_norm, lattice, theta_enumerate,
                      theta_product)
from .relations import (RelationMatrix, integral_circulations, product_torsion,
                        rank_sequence, relation_matrix, torsion_check)
from .series import QSeries, psi_series
from .tutte import BiPoly, complexity, poincare, tutte

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CapacityError", "CharacteristicFlow", "CheckError",
    "Circulation", "CosetSystem", "FlowAlgError", "FlowLattice", "GF", "Graph",
    "InputError", "QQ", "QSeries", "RelationMatrix", "Ring", "ZZ",
    "bouquet_graph", "build", "characteristic_flow",
    "codichromatic_compare", "complete_graph", "complexity", "coset_system",
    "cycle_graph", "dipole_graph", "disjoint_union", "divided_power",
    "exponential", "flows_of_norm", "integral_circulations", "lattice",
    "monomial_dimensions", "nilpotence", "one_point_union", "path_graph",
    "poincare", "product_torsion", "pseudopower", "psi_series",
    "rank_sequence", "relation_matrix", "relation_membership_check",
    "theta_enumerate", "theta_product", "torsion_check", "tutte",
    "verify_inequalities",
]
