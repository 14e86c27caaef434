"""Graph braid groups of the subdivided circle-with-whisker graph and
Borsuk-Ulam decisions for free cyclic actions."""

from .complexes import (
    CubeComplex,
    QuotientComplex,
    act,
    build_dconf,
    build_quotient,
    components,
)
from .covering import EdgePath, express_loop, maximal_tree
from .decide import (
    ActionData,
    BUVerdict,
    GroupHom,
    Witness,
    adapt_basis,
    circle_solver,
    decide_circle,
    decide_interval,
    decide_tree,
    decide_wedge,
    kernel_basis,
    verify_diagram,
)
from .errors import InvalidParameterError, PreconditionError, StructuralError
from .fundgroup import BraidSystem, GeneratorId, get_system, type_tuple
from .graphs import (
    Edge,
    Graph,
    emit_graph_text,
    is_sufficiently_subdivided,
    make_cycle,
    make_lollipop,
    make_path,
    make_star,
    parse_graph_text,
)
from .morse import GradientField, build_field, classify_cell
from .oracle import Report, chi_oracle, morse_rank_check, run_suite
from .perms import Perm, all_perms, cyclic_canonical, sorting_permutation
from .words import FreeWord

__all__ = [name for name in dir() if not name.startswith("_")]
