"""Property tests for the one strongly-connected-components routine, through
both of its callers: bottom SCCs in verify and order constraints in pavcheck."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from popgames import (
    ConfigGraph,
    ConstraintSystem,
    UnsatCertificate,
    bottom_sccs,
    solve_order_constraints,
)
from popgames.core import strongly_connected_components


@st.composite
def adjacency_dicts(draw):
    """Up to 8 nodes; arcs may be self-loops, nodes may be sinks or have no
    arc into them."""
    n = draw(st.integers(1, 8))
    return {
        v: tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))
        for v in range(n)
    }


@settings(max_examples=300, deadline=None)
@given(adjacency_dicts())
def test_bottoms_match_reference(adjacency):
    got = bottom_sccs(ConfigGraph(list(adjacency), list(adjacency.values()), []))
    assert set(got) == set(oracles.bottom_sccs_of(adjacency))
    assert got == sorted(got, key=min)

    components = strongly_connected_components(list(adjacency.values()))
    assert sorted(v for comp in components for v in comp) == sorted(adjacency)
    position = {v: ci for ci, comp in enumerate(components) for v in comp}
    for v, succ in adjacency.items():
        assert all(position[w] <= position[v] for w in succ)


@st.composite
def constraint_systems(draw):
    n = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return ConstraintSystem(
        variables=tuple(range(n)),
        nonstrict=draw(st.sets(pairs, max_size=2 * n)),
        strict=draw(st.sets(pairs, max_size=n)),
    )


def strict_cycle_exists(system: ConstraintSystem) -> bool:
    """Transitive closure of the comparison graph: unsatisfiable iff some
    strict edge u < v has a path back from v to u."""
    n = len(system.variables)
    reach = [[False] * n for _ in range(n)]
    for u, v in system.nonstrict | system.strict:
        reach[u][v] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return any(u == v or reach[v][u] for u, v in system.strict)


@settings(max_examples=300, deadline=None)
@given(constraint_systems())
def test_order_constraints_certificate_or_assignment(system):
    result = solve_order_constraints(system)
    if isinstance(result, UnsatCertificate):
        assert result.check_against(system)
    else:
        assert system.satisfied_by(result)
    assert isinstance(result, UnsatCertificate) == strict_cycle_exists(system)
