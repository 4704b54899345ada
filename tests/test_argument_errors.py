"""Each public function refuses arguments outside its own contract with a
ValueError (or, for an algebra the construction is undefined on,
DegenerateAlgebra) and an exact message."""

import pytest
from test_compactification import identity_compactification

from stonecheck.algebra import compose_homs, fin_poset, hom_from_atom_function, powerset_algebra
from stonecheck.compactification import (
    beta_space,
    build_compactification,
    compactification_leq,
    extension_candidates,
)
from stonecheck.duality import compose_continuous, continuous_map, discrete_space
from stonecheck.errors import DegenerateAlgebra
from stonecheck.extension import sigma_extend


def homs_that_do_not_compose():
    two, four = powerset_algebra(1), powerset_algebra(2)
    outer = hom_from_atom_function(four, two, (0,))
    return compose_homs(outer, outer)


def maps_that_do_not_compose():
    one, two = discrete_space(("x",)), discrete_space(("p", "q"))
    inner = continuous_map(one, two, (0,))
    return compose_continuous(inner, inner)


CALLS = {
    "fin_poset": (
        lambda: fin_poset([[True, False], [True]]),
        ValueError,
        "relation matrix must be square",
    ),
    "continuous_map": (
        lambda: continuous_map(discrete_space(("x",)), discrete_space(("p", "q")), (2,)),
        ValueError,
        "table must map source points to target points",
    ),
    "extension_candidates": (
        lambda: extension_candidates(beta_space(("x",)), (1,), discrete_space(("p",))),
        ValueError,
        "map must send base points into the target",
    ),
    "build_compactification": (
        lambda: build_compactification(discrete_space(("x",)), discrete_space(("p",)), (1,)),
        ValueError,
        "embedding must map base points into the space",
    ),
    "hom_from_atom_function": (
        lambda: hom_from_atom_function(powerset_algebra(1), powerset_algebra(1), (1,)),
        ValueError,
        "atom function must map target atoms to source atoms",
    ),
    "compose_homs": (homs_that_do_not_compose, ValueError, "homomorphisms do not compose"),
    "compose_continuous": (maps_that_do_not_compose, ValueError, "maps do not compose"),
    "compactification_leq": (
        lambda: compactification_leq(
            identity_compactification(("x",)), identity_compactification(("y",))
        ),
        ValueError,
        "compactifications must share the base point set",
    ),
    "sigma_extend": (
        lambda: sigma_extend(
            hom_from_atom_function(powerset_algebra(0), powerset_algebra(0), ())
        ),
        DegenerateAlgebra,
        "extension needs nondegenerate algebras",
    ),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_public_function_refuses_arguments_outside_its_contract(name):
    call, error, message = CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
