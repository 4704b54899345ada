"""Row-at-a-time validators against element-by-element reference loops.

The ``ref_*`` functions below are the straightforward loop versions of
``fin_poset``, ``fin_lattice``, ``fin_bool_alg``, ``validate_hom``,
``hom_from_atom_function``, ``atom_function_of_hom`` and
``documents._closed_relation``: one Python step per element, pair or
triple, in index order.  Every input must give the same result from both:
the same exception class, witness and message, or identical tables.  Inputs
are seeded random relation matrices on 1-8 elements, 16- and 32-element
powersets (with shuffled carriers) carrying one corrupted entry, and the
atom functions between powersets and between shuffled presentations; for
the closure, also the shuffled cover relations of the 16- and 32-element
powersets, duplicate pairs and self-loops, and cycles of every length, each
in several pair orders.  ``algebra.atom_additive``, with which
``validate_hom`` accepts a table before any scan, must accept exactly the
tables ``ref_validate_hom`` does, on every raw table between small
powersets and shuffled presentations.
"""

import itertools
import random

import pytest

import stonecheck.algebra as algebra
import stonecheck.extension as extension
from helpers import replace, validate_boolean_algebra
from stonecheck.algebra import (
    MAX_ATOMS,
    atom_function_of_hom,
    fin_bool_alg,
    fin_lattice,
    fin_poset,
    hom_from_atom_function,
    powerset_algebra,
    validate_hom,
)
from stonecheck.documents import _closed_relation
from stonecheck.errors import (
    BoundExceeded,
    ComplementLawFails,
    InvariantViolation,
    NotALattice,
    NotAPoset,
    NotComplementPreserving,
    NotDistributive,
    NotJoinPreserving,
    NotMeetPreserving,
    StonecheckError,
)

# ---------------------------------------------------------------- references


def ref_fin_poset(rows):
    n = len(rows)
    leq = tuple(tuple(bool(x) for x in row) for row in rows)
    for i in range(n):
        if not leq[i][i]:
            raise NotAPoset("relation is not reflexive", ("reflexivity", i))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPoset("relation is not antisymmetric", ("antisymmetry", i, j))
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    raise NotAPoset("relation is not transitive", ("transitivity", i, j, k))
    return leq


def ref_fin_lattice(leq):
    n = len(leq)

    def least_upper(i, j):
        uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
        for u in uppers:
            if all(leq[u][k] for k in uppers):
                return u
        raise NotALattice("pair has no least upper bound", ("join", i, j))

    def greatest_lower(i, j):
        lowers = [k for k in range(n) if leq[k][i] and leq[k][j]]
        for g in lowers:
            if all(leq[k][g] for k in lowers):
                return g
        raise NotALattice("pair has no greatest lower bound", ("meet", i, j))

    join = tuple(tuple(least_upper(i, j) for j in range(n)) for i in range(n))
    meet = tuple(tuple(greatest_lower(i, j) for j in range(n)) for i in range(n))
    bottom = next(i for i in range(n) if all(leq[i][j] for j in range(n)))
    top = next(i for i in range(n) if all(leq[j][i] for j in range(n)))
    return meet, join, bottom, top


def ref_fin_bool_alg(leq, meet, join, bottom, top, complement):
    n = len(leq)
    comp = tuple(int(c) for c in complement)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    raise NotDistributive("distributive law fails", (x, y, z))
    for x in range(n):
        if meet[x][comp[x]] != bottom:
            raise ComplementLawFails("x and not-x do not meet to bottom", (x, comp[x]))
        if join[x][comp[x]] != top:
            raise ComplementLawFails("x and not-x do not join to top", (x, comp[x]))
    atoms = tuple(
        i
        for i in range(n)
        if i != bottom and all(j == bottom or j == i for j in range(n) if leq[j][i])
    )
    atom_mask = tuple(
        sum(1 << k for k, a in enumerate(atoms) if leq[a][i]) for i in range(n)
    )
    if len(set(atom_mask)) != n or n != 1 << len(atoms):
        raise InvariantViolation("atom encoding is not a bijection", (n, len(atoms)))
    for i in range(n):
        for j in range(n):
            if leq[i][j] != (atom_mask[i] & ~atom_mask[j] == 0):
                raise InvariantViolation("atom encoding does not match the order", (i, j))
    return comp, atoms, atom_mask


def ref_validate_hom(table, source, target):
    t = tuple(int(x) for x in table)
    src, dst = source.lattice, target.lattice
    if t[source.bottom] != target.bottom:
        raise NotMeetPreserving("bottom must map to bottom", ("bottom", source.bottom))
    for i in range(source.size):
        for j in range(source.size):
            if t[src.meet[i][j]] != dst.meet[t[i]][t[j]]:
                raise NotMeetPreserving("meet not preserved", (i, j))
    if t[source.top] != target.top:
        raise NotJoinPreserving("top must map to top", ("top", source.top))
    for i in range(source.size):
        for j in range(source.size):
            if t[src.join[i][j]] != dst.join[t[i]][t[j]]:
                raise NotJoinPreserving("join not preserved", (i, j))
    for i in range(source.size):
        if t[source.complement[i]] != target.complement[t[i]]:
            raise NotComplementPreserving("complement not preserved", (i,))
    return t


def ref_hom_table_from_atom_function(source, target, g):
    table = []
    for i in range(source.size):
        m1 = source.atom_mask[i]
        m2 = sum(1 << q for q in range(target.atom_count) if m1 >> g[q] & 1)
        table.append(target.atom_mask.index(m2))
    return tuple(table)


def ref_atom_function_of_hom(hom):
    src, dst = hom.source, hom.target
    out = []
    for q_atom in dst.atoms:
        preimage = [a for a in range(src.size) if dst.up[q_atom] >> hom.table[a] & 1]
        generator = src.lattice.meet_all(preimage)
        out.append(src.atoms.index(generator))
    return tuple(out)


def ref_closed_relation(size, pairs):
    rows = [[False] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = True
    for i, j in pairs:
        rows[i][j] = True
    changed = True
    while changed:
        changed = False
        for i in range(size):
            for j in range(size):
                if not rows[i][j]:
                    continue
                for k in range(size):
                    if rows[j][k] and not rows[i][k]:
                        rows[i][k] = True
                        changed = True
    return [(i, j) for i in range(size) for j in range(size) if rows[i][j]]


# ---------------------------------------------------------------- harness


def outcome(fn, *args):
    """("ok", result) or (exception class, witness, message)."""
    try:
        return ("ok", fn(*args))
    except StonecheckError as exc:
        return (type(exc), exc.witness, str(exc))


def reference_pipeline(rows, complement):
    leq = ref_fin_poset(rows)
    lattice = ref_fin_lattice(leq)
    return (leq, *lattice, *ref_fin_bool_alg(leq, *lattice, complement))


def leq_rows(poset):
    """The boolean order matrix of a poset, read off its up-set masks."""
    return tuple(tuple(bool(m >> j & 1) for j in range(poset.size)) for m in poset.up)


def library_pipeline(rows, complement):
    lattice = fin_lattice(fin_poset(rows))
    algebra = fin_bool_alg(lattice, complement)
    return (
        leq_rows(lattice.poset), lattice.meet, lattice.join, lattice.bottom, lattice.top,
        algebra.complement, algebra.atoms, algebra.atom_mask,
    )


def reference_bool_alg(lattice, complement):
    return ref_fin_bool_alg(
        leq_rows(lattice.poset), lattice.meet, lattice.join, lattice.bottom, lattice.top, complement
    )


def library_bool_alg(lattice, complement):
    algebra = fin_bool_alg(lattice, complement)
    return algebra.complement, algebra.atoms, algebra.atom_mask


def assert_same(ref, new):
    """Assert equal outcomes; return "ok" or (error name, witness tag or None)."""
    assert new == ref
    if ref[0] == "ok":
        return "ok"
    tag = ref[1][0] if isinstance(ref[1][0], str) else None
    return ref[0].__name__, tag


def relabeled_powerset(atoms, rng):
    """Order rows and complement table of the powerset on a shuffled carrier.

    Carrier index ``perm[m]`` holds the element with atom mask m.
    """
    size = 1 << atoms
    perm = list(range(size))
    rng.shuffle(perm)
    rows = [[False] * size for _ in range(size)]
    comp = [0] * size
    for m in range(size):
        comp[perm[m]] = perm[(size - 1) ^ m]
        for k in range(size):
            rows[perm[m]][perm[k]] = m & ~k == 0
    return rows, comp


def random_relation(n, rng):
    mode = rng.randrange(4)
    if mode == 0:
        rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    elif mode == 1:
        rows = [[i == j or rng.random() < 0.3 for j in range(n)] for i in range(n)]
    else:
        # the closure of a random acyclic relation, sometimes with one flip
        order = list(range(n))
        rng.shuffle(order)
        pairs = [
            (order[a], order[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        ]
        rows = [[False] * n for _ in range(n)]
        for i, j in ref_closed_relation(n, pairs):
            rows[i][j] = True
        if mode == 3:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = not rows[i][j]
    return rows


# ---------------------------------------------------------------- tests


def test_random_relations_match_reference():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 8)
        rows = random_relation(n, rng)
        comp = [rng.randrange(n) for _ in range(n)]
        seen.add(assert_same(outcome(reference_pipeline, rows, comp), outcome(library_pipeline, rows, comp)))
    for atoms in range(4):
        for _ in range(20):
            rows, comp = relabeled_powerset(atoms, rng)
            if rng.random() < 0.5:
                i = rng.randrange(len(comp))
                comp[i] = rng.randrange(len(comp))
            seen.add(assert_same(outcome(reference_pipeline, rows, comp), outcome(library_pipeline, rows, comp)))
    # every law and every stage was reached and named a witness
    assert seen >= {
        "ok",
        ("NotAPoset", "reflexivity"),
        ("NotAPoset", "antisymmetry"),
        ("NotAPoset", "transitivity"),
        ("NotALattice", "join"),
        ("NotALattice", "meet"),
        ("NotDistributive", None),
        ("ComplementLawFails", None),
    }


@pytest.mark.parametrize("atoms", [4, 5])
def test_powerset_with_one_corrupted_order_entry_matches_reference(atoms):
    rng = random.Random(atoms)
    seen = set()
    for _ in range(12):
        rows, comp = relabeled_powerset(atoms, rng)
        i, j = rng.sample(range(len(rows)), 2)
        rows[i][j] = not rows[i][j]
        seen.add(assert_same(outcome(reference_pipeline, rows, comp), outcome(library_pipeline, rows, comp)))
    assert ("NotAPoset", "transitivity") in seen or ("NotAPoset", "antisymmetry") in seen
    rows, comp = relabeled_powerset(atoms, rng)
    assert assert_same(outcome(reference_pipeline, rows, comp), outcome(library_pipeline, rows, comp)) == "ok"


@pytest.mark.parametrize("atoms", [4, 5])
@pytest.mark.parametrize("table", ["meet", "join"])
def test_powerset_with_one_corrupted_operation_entry_matches_reference(atoms, table):
    rng = random.Random(atoms * 7 + len(table))
    rows, comp = relabeled_powerset(atoms, rng)
    lattice = fin_lattice(fin_poset(rows))
    seen = set()
    for _ in range(8):
        size = lattice.size
        a, b = rng.randrange(size), rng.randrange(size)
        corrupted = [list(row) for row in getattr(lattice, table)]
        corrupted[a][b] = rng.choice([v for v in range(size) if v != corrupted[a][b]])
        broken = replace(lattice, **{table: tuple(map(tuple, corrupted))})
        seen.add(assert_same(outcome(reference_bool_alg, broken, comp), outcome(library_bool_alg, broken, comp)))
    assert ("NotDistributive", None) in seen


@pytest.mark.parametrize("atoms", [4, 5])
def test_powerset_with_one_corrupted_complement_matches_reference(atoms):
    rng = random.Random(100 + atoms)
    rows, comp = relabeled_powerset(atoms, rng)
    lattice = fin_lattice(fin_poset(rows))
    assert assert_same(outcome(reference_bool_alg, lattice, comp), outcome(library_bool_alg, lattice, comp)) == "ok"
    for _ in range(8):
        bad = list(comp)
        i = rng.randrange(len(bad))
        bad[i] = rng.choice([v for v in range(len(bad)) if v != bad[i]])
        assert assert_same(
            outcome(reference_bool_alg, lattice, bad), outcome(library_bool_alg, lattice, bad)
        ) == ("ComplementLawFails", None)


def shuffled_algebra(atoms, rng):
    rows, comp = relabeled_powerset(atoms, rng)
    n = len(rows)
    return validate_boolean_algebra(
        n, [(i, j) for i in range(n) for j in range(n) if rows[i][j]], comp
    )


@pytest.mark.parametrize("k1, k2", [(4, 4), (4, 5), (5, 4), (5, 5), (5, 1), (2, 5)])
def test_hom_with_one_corrupted_entry_matches_reference(k1, k2):
    rng = random.Random(k1 * 10 + k2)
    source, target = shuffled_algebra(k1, rng), shuffled_algebra(k2, rng)
    seen = set()
    for _ in range(10):
        g = [rng.randrange(k1) for _ in range(k2)]
        table = list(hom_from_atom_function(source, target, g).table)
        ref = outcome(ref_validate_hom, table, source, target)
        assert ref[0] == "ok"
        new = outcome(validate_hom, table, source, target)
        assert new[0] == "ok" and new[1].table == ref[1]
        i = rng.randrange(source.size)
        table[i] = rng.choice([v for v in range(target.size) if v != table[i]])
        ref = outcome(ref_validate_hom, table, source, target)
        new = outcome(validate_hom, table, source, target)
        assert new == ref
        seen.add(ref[0])
    assert seen <= {NotMeetPreserving, NotJoinPreserving, NotComplementPreserving}
    assert NotMeetPreserving in seen


def test_every_table_on_four_elements_matches_reference():
    # a table that preserves bottom, top, meets and joins preserves
    # complements too, so only the other laws can name a witness
    rng = random.Random(5)
    four = shuffled_algebra(2, rng)
    seen = set()
    for table in itertools.product(range(4), repeat=4):
        ref = outcome(ref_validate_hom, table, four, four)
        assert outcome(lambda t: validate_hom(t, four, four).table, table) == ref
        seen.add(ref[0])
    assert {"ok", NotMeetPreserving, NotJoinPreserving} <= seen


def assert_atom_function_expansions_match(source, target):
    for g in itertools.product(range(source.atom_count), repeat=target.atom_count):
        hom = hom_from_atom_function(source, target, g)
        assert hom.table == ref_hom_table_from_atom_function(source, target, g)
        assert atom_function_of_hom(hom) == ref_atom_function_of_hom(hom) == g


@pytest.mark.parametrize("k1, k2", list(itertools.product(range(4), repeat=2)))
def test_atom_function_expansions_match_reference(k1, k2):
    assert_atom_function_expansions_match(powerset_algebra(k1), powerset_algebra(k2))


def relabeled_algebra(atoms, rng):
    rows, comp = relabeled_powerset(atoms, rng)
    return fin_bool_alg(fin_lattice(fin_poset(rows)), comp)


def test_atom_function_expansions_match_reference_on_shuffled_carriers():
    # element index and atom mask differ, so an expansion that confuses
    # them gives a different table or atom function than the reference
    rng = random.Random(7)
    algebras = [relabeled_algebra(atoms, rng) for atoms in (1, 2, 2, 3, 3)]
    assert all(b.atom_mask != tuple(range(b.size)) for b in algebras[1:])
    for source, target in itertools.product(algebras, repeat=2):
        assert_atom_function_expansions_match(source, target)


def closure_cases(size, rng):
    """Pair lists beyond the random relations: on 16 and 32 elements the
    shuffled cover relation of the powerset, whose closure must be its
    order; a relation with duplicate pairs and self-loops; and a cycle of
    every length from 2 to ``size`` through random elements, among a few
    random pairs.  Yields each list with the expected rows, or None where
    only the reference gives them."""
    if size in (16, 32):
        atoms = size.bit_length() - 1
        label = rng.sample(range(size), size)
        covers = [
            (label[m], label[m | 1 << i]) for m in range(size) for i in range(atoms) if not m >> i & 1
        ]
        rng.shuffle(covers)
        expected = [0] * size
        for m, n in itertools.product(range(size), repeat=2):
            if m & ~n == 0:
                expected[label[m]] |= 1 << label[n]
        yield covers, expected
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(size)]
    pairs += rng.choices(pairs, k=size) + [(i, i) for i in rng.sample(range(size), size // 2)]
    rng.shuffle(pairs)
    yield pairs, None
    for length in range(2, size + 1):
        cycle = rng.sample(range(size), length)
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        pairs += [(rng.randrange(size), rng.randrange(size)) for _ in range(size // 4)]
        rng.shuffle(pairs)
        yield pairs, None


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 16, 32])
def test_closed_relation_matches_reference(size):
    rng = random.Random(size)
    for density in (0.0, 0.05, 0.2, 0.6):
        pairs = [
            (rng.randrange(size), rng.randrange(size))
            for _ in range(int(density * size * size))
        ]
        expected = [0] * size
        for i, j in ref_closed_relation(size, pairs):
            expected[i] |= 1 << j
        assert _closed_relation(size, pairs) == expected
    for pairs, expected in closure_cases(size, rng):
        if expected is None:
            expected = [0] * size
            for i, j in ref_closed_relation(size, pairs):
                expected[i] |= 1 << j
        assert _closed_relation(size, pairs) == expected
        # the same pairs in any order close to the same rows
        for _ in range(3):
            assert _closed_relation(size, rng.sample(pairs, len(pairs))) == expected


def test_boolean_algebras_are_capped_at_32_elements():
    size = 1 << (MAX_ATOMS + 1)
    rows = [[i & ~j == 0 for j in range(size)] for i in range(size)]
    lattice = fin_lattice(fin_poset(rows))
    with pytest.raises(BoundExceeded):
        fin_bool_alg(lattice, [(size - 1) ^ m for m in range(size)])


# ------------------------------------- the byte-split scans against the loops
# ``parent_validate_hom`` is the earlier validator, which rebuilt the flat
# source block and a row table per target value on every call, and
# ``reference_assert_complete`` the earlier completeness scan, which tested
# every subset in turn.  Both are kept literally.


def _byte_table(row):
    return bytes(row).ljust(256, b"\0")


def _first_difference(a, b):
    return next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)


def parent_validate_hom(table, source, target):
    t = tuple(int(x) for x in table)
    if len(t) != source.size or any(not 0 <= v < target.size for v in t):
        raise ValueError("table must map the source carrier into the target carrier")
    image = bytes(t)
    image_table = _byte_table(t)
    if t[source.bottom] != target.bottom:
        raise NotMeetPreserving("bottom must map to bottom", ("bottom", source.bottom))
    witness = parent_unpreserved(source.lattice.meet, target.lattice.meet, image, image_table)
    if witness is not None:
        raise NotMeetPreserving("meet not preserved", witness)
    if t[source.top] != target.top:
        raise NotJoinPreserving("top must map to top", ("top", source.top))
    witness = parent_unpreserved(source.lattice.join, target.lattice.join, image, image_table)
    if witness is not None:
        raise NotJoinPreserving("join not preserved", witness)
    lhs = bytes(source.complement).translate(image_table)
    rhs = image.translate(_byte_table(target.complement))
    if lhs != rhs:
        raise NotComplementPreserving("complement not preserved", (_first_difference(lhs, rhs),))
    return t


def parent_unpreserved(source_op, target_op, image, image_table):
    lhs = bytes(itertools.chain.from_iterable(source_op)).translate(image_table)
    tables = {v: _byte_table(target_op[v]) for v in set(image)}
    rhs = b"".join([image.translate(tables[v]) for v in image])
    if lhs == rhs:
        return None
    return divmod(_first_difference(lhs, rhs), len(image))


def reference_assert_complete(lattice):
    n = lattice.size
    full = (1 << n) - 1
    not_above = [full ^ up for up in lattice.poset.up]
    not_below = [full ^ down for down in lattice.poset.down]
    meets = bytearray([lattice.top])
    joins = bytearray([lattice.bottom])
    for high in range(n):
        meets += meets.translate(bytes(row[high] for row in lattice.meet).ljust(256, b"\0"))
        joins += joins.translate(bytes(row[high] for row in lattice.join).ljust(256, b"\0"))
    for bits, (m, j) in enumerate(zip(meets, joins)):
        if bits & not_above[m] or bits & not_below[j]:
            raise InvariantViolation("finite lattice lost a bound", bits)


def hom_outcome(fn, *args):
    """Like ``outcome``, with the range check's ValueError as an outcome too."""
    try:
        result = fn(*args)
    except (StonecheckError, ValueError) as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return "ok", getattr(result, "table", result)


def random_raw_tables(source, target, rng):
    """Uniform tables, hom tables with one or two entries changed, and
    tables with one entry outside the target."""
    for _ in range(15):
        yield [rng.randrange(target.size) for _ in range(source.size)]
    for _ in range(15):
        g = [rng.randrange(source.atom_count) for _ in range(target.atom_count)]
        table = list(hom_from_atom_function(source, target, g).table)
        for _ in range(rng.choice([0, 1, 1, 2])):
            table[rng.randrange(source.size)] = rng.randrange(target.size)
        yield table
    table = [rng.randrange(target.size) for _ in range(source.size)]
    table[rng.randrange(source.size)] = rng.choice([-1, target.size, 256])
    yield table


def test_validate_hom_matches_the_parent_scan_on_random_raw_tables():
    rng = random.Random(11)
    algebras = [powerset_algebra(k) for k in range(1, MAX_ATOMS + 1)]
    algebras += [shuffled_algebra(k, rng) for k in range(1, MAX_ATOMS + 1)]
    seen = set()
    for source, target in itertools.product(algebras, repeat=2):
        for table in random_raw_tables(source, target, rng):
            expected = hom_outcome(parent_validate_hom, table, source, target)
            assert hom_outcome(validate_hom, table, source, target) == expected
            seen.add(expected[0])
    # a table that preserves the bounds, meets and joins preserves
    # complements too, so no complement witness can come up here
    assert seen == {"ok", ValueError, NotMeetPreserving, NotJoinPreserving}


def test_a_hom_is_accepted_without_a_scan_and_nothing_is_kept_on_the_target():
    # the scans read both algebras' lattices, so a hom accepted between
    # fresh algebras, whose lattices are built on first read, ran none
    rng = random.Random(12)
    lattice_slot = algebra.FinBoolAlg.lattice.fget.slot
    for _ in range(3):
        source = shuffled_algebra(2, rng)
        target = shuffled_algebra(4, rng)
        g = [rng.randrange(source.atom_count) for _ in range(target.atom_count)]
        table = list(hom_from_atom_function(source, target, g).table)
        assert lattice_slot not in source._cache and lattice_slot not in target._cache
        # a hom with one entry changed, not a bound's, breaks a law that
        # only a scan names
        i = rng.choice([a for a in range(source.size) if a not in (source.bottom, source.top)])
        table[i] = rng.choice([v for v in range(target.size) if v != table[i]])
        expected = hom_outcome(ref_validate_hom, table, source, target)
        assert expected[0] in (NotMeetPreserving, NotJoinPreserving)
        assert hom_outcome(validate_hom, table, source, target) == expected


def test_a_hom_that_atom_additivity_rejects_is_a_library_bug(monkeypatch):
    # every law holds, so the scans name no witness: the two tests disagree
    monkeypatch.setattr(algebra, "atom_additive", lambda *args: False)
    four = powerset_algebra(2)
    with pytest.raises(InvariantViolation):
        validate_hom((0, 1, 2, 3), four, four)


def by_mask_table(table, source, target):
    """A table of elements as the target masks indexed by the source masks."""
    by_mask = [0] * source.size
    for a, v in enumerate(table):
        by_mask[source.atom_mask[a]] = target.atom_mask[v]
    return by_mask


@pytest.mark.parametrize(
    "k1, k2", [*itertools.product(range(3), repeat=2), (3, 2), (2, 3)]
)
def test_atom_additivity_is_the_pairwise_hom_laws_on_every_raw_table(k1, k2):
    # every table between the powersets and between shuffled presentations,
    # and for at most 2 atoms on each side between the mixed pairs too
    rng = random.Random(k1 * 10 + k2)
    sources = [powerset_algebra(k1), shuffled_algebra(k1, rng)]
    targets = [powerset_algebra(k2), shuffled_algebra(k2, rng)]
    pairs = list(zip(sources, targets))
    if max(k1, k2) <= 2:
        pairs = list(itertools.product(sources, targets))
    homs = 0
    for source, target in pairs:
        for table in itertools.product(range(target.size), repeat=source.size):
            expected = hom_outcome(ref_validate_hom, table, source, target)
            # read through the module, so that a mutant bound there runs
            additive = algebra.atom_additive(by_mask_table(table, source, target), k1, k2)
            assert additive == (expected[0] == "ok"), table
            assert hom_outcome(algebra.validate_hom, table, source, target) == expected
            homs += additive
    assert homs == len(pairs) * k1**k2


def corrupted_lattices(lattice, rng, limit=None):
    """The lattice with one meet or one join entry changed."""
    n = lattice.size
    changes = [
        (kind, i, j, v)
        for kind in ("meet", "join")
        for i in range(n)
        for j in range(n)
        for v in range(n)
        if v != getattr(lattice, kind)[i][j]
    ]
    if limit is not None:
        changes = rng.sample(changes, limit)
    for kind, i, j, v in changes:
        rows = [list(row) for row in getattr(lattice, kind)]
        rows[i][j] = v
        yield replace(lattice, **{kind: tuple(map(tuple, rows))})


@pytest.mark.parametrize("atoms, limit", [(1, None), (2, None), (3, None), (4, 40)])
def test_completeness_scan_names_the_loop_witness_on_corrupted_lattices(atoms, limit):
    rng = random.Random(atoms)
    lost = 0
    for lattice in corrupted_lattices(powerset_algebra(atoms).lattice, rng, limit):
        expected = hom_outcome(reference_assert_complete, lattice)
        assert hom_outcome(extension._assert_complete, lattice) == expected
        lost += expected[0] is InvariantViolation
    assert lost > 0
