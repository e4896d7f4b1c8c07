import io
import math

import numpy as np
import pytest

from corround.errors import CapExceeded
from corround import rounding
from corround.rounding import ParseError, guarantee_dilate, read_instance
from corround.setcover import (
    CoverOutcome,
    FractionalCover,
    InfeasibleFractional,
    SetCoverError,
    SetCoverInstance,
    batch_cover_usage,
    hard_instance,
    marginals_from_fractional_cover,
    read_cover_instance,
    round_cover,
    write_cover_instance,
)
from corround.streams import RandomStream


def test_single_full_weight_set():
    sc = SetCoverInstance(q=1, members=((0,),))
    m = marginals_from_fractional_cover(sc, FractionalCover(y=np.array([1.0])))
    assert np.array_equal(m.u, [[1.0]])


def test_water_fill_by_hand():
    sc = SetCoverInstance(q=1, members=((0,), (0,)))
    m = marginals_from_fractional_cover(sc, FractionalCover(y=np.array([0.7, 0.7])))
    assert np.allclose(m.u, [[0.7, 0.3]])


def test_infeasible_fractional():
    sc = SetCoverInstance(q=1, members=((0,), (0,)))
    with pytest.raises(InfeasibleFractional):
        marginals_from_fractional_cover(sc, FractionalCover(y=np.array([0.5, 0.4])))


def test_fractional_weights_validated():
    with pytest.raises(SetCoverError):
        FractionalCover(y=np.array([1.2]))
    with pytest.raises(SetCoverError):
        FractionalCover(y=np.array([-0.1]))
    with pytest.raises(SetCoverError):
        FractionalCover(y=np.array([np.nan, 0.5, 0.5]))


def test_uncovered_element_rejected():
    with pytest.raises(SetCoverError):
        SetCoverInstance(q=2, members=((0,),))


@pytest.mark.parametrize("elem", [0.5, 1.0, np.float64(1.0), "1", None])
def test_non_integer_element_rejected(elem):
    with pytest.raises(SetCoverError, match="set 1 has a non-integer element id"):
        SetCoverInstance(q=2, members=((0,), (elem,)))
    assert SetCoverInstance(q=2, members=((np.int64(0),), (1,))).K == 2


def test_repeated_element_rejected():
    # counted twice, it would make weights 0.5 look like a full cover
    with pytest.raises(SetCoverError, match="set 0 lists an element more than once"):
        SetCoverInstance(q=2, members=((0, 0), (1,)))


@pytest.mark.parametrize("q", [0, -1])
def test_instance_without_elements_rejected(q):
    with pytest.raises(SetCoverError, match="at least one element"):
        SetCoverInstance(q=q, members=())


def test_huge_q_is_checked_in_the_ids_listed():
    # one id listed, so element 1 (0-based) is the first uncovered one, and
    # no array of q flags is made
    with pytest.raises(SetCoverError, match="element 1 is covered by no set"):
        SetCoverInstance(q=10 ** 12, members=((0,),))


def test_reduction_never_increases_sparsity():
    gen = np.random.default_rng(9)
    for _ in range(10):
        q, K = int(gen.integers(2, 10)), int(gen.integers(2, 7))
        members = [set() for _ in range(K)]
        cover_count = np.zeros(q, dtype=int)
        for e in range(q):
            picks = gen.choice(K, size=int(gen.integers(1, K + 1)), replace=False)
            for k in picks:
                members[k].add(e)
                cover_count[e] += 1
        sc = SetCoverInstance(q=q, members=tuple(tuple(sorted(s)) for s in members))
        y = FractionalCover(y=np.full(K, 1.0 / cover_count.min()))
        m = marginals_from_fractional_cover(sc, y)
        d_cover = cover_count.max()
        assert m.sparsity <= d_cover


def test_round_cover_integral_weights():
    sc = SetCoverInstance(q=2, members=((0, 1), (0,)))
    fc = FractionalCover(y=np.array([1.0, 0.0]))
    for s in range(20):
        out = round_cover(sc, fc, "dilate", RandomStream(s))
        assert isinstance(out, CoverOutcome)
        assert np.array_equal(out.Y, [1, 0])


def test_round_cover_always_feasible():
    sc, fc = hard_instance(2, 4)
    for scheme in ("independent", "dilate", "force_open"):
        usage, feasible = batch_cover_usage(sc, fc, scheme, 20_000, RandomStream(3))
        assert feasible == 20_000


def test_round_cover_dilate_usage_bound():
    gen = np.random.default_rng(10)
    sc, fc = hard_instance(2, 5)
    n = 50_000
    usage, feasible = batch_cover_usage(sc, fc, "dilate", n, RandomStream(8))
    assert feasible == n
    bound = guarantee_dilate(sc.q) * fc.y + 4.0 * math.sqrt(0.25 / n)
    assert np.all(usage <= np.minimum(bound, 1.0 + 1e-12))


def test_batch_matches_single_round_cover():
    sc, fc = hard_instance(2, 4)
    n = 200
    for scheme in rounding.SCHEMES:
        r1, r2 = RandomStream(77), RandomStream(77)
        Ys = np.array([round_cover(sc, fc, scheme, r1).Y for _ in range(n)])
        usage, feasible = batch_cover_usage(sc, fc, scheme, n, r2)
        assert feasible == n
        assert np.array_equal(Ys.mean(axis=0), usage)
        assert r1.position == r2.position


def test_unknown_scheme_rejected():
    sc, fc = hard_instance(2, 4)
    with pytest.raises(rounding.DomainError):
        round_cover(sc, fc, "nope", RandomStream(0))
    with pytest.raises(rounding.DomainError):
        batch_cover_usage(sc, fc, "nope", 10, RandomStream(0))


def test_hard_instance_shapes():
    sc, fc = hard_instance(1, 3)
    assert sc.q == 3 and sc.K == 3
    assert np.allclose(fc.y, 1.0)
    assert all(len(ms) == 1 for ms in sc.members)

    sc, fc = hard_instance(2, 4)
    assert sc.q == 6
    assert fc.is_feasible(sc)
    # feasibility holds with equality: each element covered by exactly d sets
    mass = np.zeros(sc.q)
    for k, elems in enumerate(sc.members):
        for e in elems:
            mass[e] += fc.y[k]
    assert np.allclose(mass, 1.0)


def test_hard_instance_cap():
    with pytest.raises(CapExceeded):
        hard_instance(10, 40)
    with pytest.raises(SetCoverError):
        hard_instance(5, 3)


def test_cover_file_round_trip():
    sc, _ = hard_instance(2, 4)
    buf = io.StringIO()
    write_cover_instance(sc, buf)
    buf.seek(0)
    sc2 = read_cover_instance(buf)
    assert sc2.q == sc.q and sc2.members == sc.members
    assert np.allclose(sc2.costs, 1.0)
    # trailing blank lines are not sets
    sc3 = read_cover_instance(io.StringIO(buf.getvalue() + "\n  \n\n"))
    assert sc3.members == sc.members


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("a 2\n1.0 1 1\n1.0 1 2\n", 1),
        ("2 2\n1.0 2 1 2\n", 3),
        ("2 1\n1.0\n", 2),
        ("2 1\n1.0 x 1\n", 2),
        ("2 1\n1.0 2 1\n", 2),
        ("3 1\n1.0 2 1 2\n", 2),
        ("-1 0\n", 1),
        ("0 1\n1.0 0\n", 1),
        ("2 0\n", 1),
        ("2 1\n1.0 2 1 2\nextra\n", 3),
        ("2 1\n1.0 2 1 2\n\n \n1.0 1 1\n", 5),
        ("2 2\n1.0 1 1\nnan 1 2\n", 3),
        ("2 1\ninf 2 1 2\n", 2),
        ("2 1\n-inf 2 1 2\n", 2),
    ],
)
def test_cover_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_cover_instance(io.StringIO(text))
    assert err.value.line == line


# one valid body line per row of a "2 2" instance file and per set of a
# "2 2" cover file, so that only the shared "q K" layout can fail
SHARED_BODY = {"rows": ("0.5 0.5", "0.5 0.5"), "sets": ("1.0 1 1", "1.0 1 2")}


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("\n \n", 1),
        ("2\n", 1),
        ("2 2 2\n{0}\n{1}\n", 1),
        ("2 x\n{0}\n{1}\n", 1),
        ("0 2\n{0}\n{1}\n", 1),
        ("2 -1\n{0}\n{1}\n", 1),
        ("2 2\n", 2),
        ("2 2\n{0}\n", 3),
        ("2 2\n{0}\n{1}\nextra\n", 4),
        ("2 2\n{0}\n{1}\n\n  \nextra\n", 6),
    ],
)
def test_both_readers_share_the_q_k_layout(text, line):
    errors = {}
    for noun, read in (("rows", read_instance), ("sets", read_cover_instance)):
        with pytest.raises(ParseError) as err:
            read(io.StringIO(text.format(*SHARED_BODY[noun])))
        errors[noun] = err.value
    assert errors["rows"].line == errors["sets"].line == line
    assert errors["rows"].message.replace("rows", "sets") == errors["sets"].message


@pytest.mark.parametrize(
    "text,message",
    [
        # a bad id names its set's own line and reads as the file gives it
        ("3 3\n1.0 1 1\n1.0 1 2\n1.0 2 3 9\n", "line 4: unknown element 9: elements are 1..3"),
        ("3 2\n1.0 2 1 0\n1.0 2 2 3\n", "line 2: unknown element 0: elements are 1..3"),
        ("3 2\n1.0 1 1\n1.0 1 -2\n", "line 3: unknown element -2: elements are 1..3"),
        ("2 2\n1.0 2 1 1\n1.0 1 2\n", "line 2: set lists an element more than once"),
        # an element no set covers shows at the last set's line
        ("3 2\n1.0 1 1\n1.0 1 3\n", "line 3: element 2 of 3 is covered by no set"),
        # one id listed bounds the search, not q
        ("1000000000000 1\n1.0 1 1\n", "line 2: element 2 of 1000000000000 is covered by no set"),
    ],
)
def test_cover_element_errors_use_the_file_numbering(text, message):
    with pytest.raises(ParseError) as err:
        read_cover_instance(io.StringIO(text))
    assert str(err.value) == message
