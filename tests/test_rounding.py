import io
import math

import numpy as np
import pytest

from corround import rounding
from corround.rounding import (
    DomainError,
    EmptyInstance,
    NegativeEntry,
    ParseError,
    RowSumMismatch,
    dilate_round,
    force_open_round,
    guarantee_dilate,
    guarantee_force_open,
    guarantee_js,
    hiding_probability,
    independent_round,
    mc_estimate,
    read_instance,
    sample,
    select_scheme,
    sparsity_stats,
    usage_lower_bounds,
    validate,
    write_instance,
)
from corround.streams import RandomStream

from conftest import UnitUniforms, instance_battery

N_MC = 200_000


def slack(p, n=N_MC):
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_symmetric_row():
    m = validate([[0.5, 0.5]])
    assert (m.q, m.K) == (1, 2)


def test_validate_row_sum_mismatch():
    with pytest.raises(RowSumMismatch):
        validate([[0.6, 0.3]])


def test_validate_deterministic_rows():
    m = validate([[1.0, 0.0], [0.0, 1.0]])
    assert m.sparsity == 1


def test_validate_negative_entry():
    with pytest.raises(NegativeEntry):
        validate([[1.1, -0.1]])


def test_validate_empty():
    with pytest.raises(EmptyInstance):
        validate(np.empty((0, 3)))


def test_validate_silent_renormalization():
    m = validate([[0.5 + 2e-10, 0.5]])
    assert m.u.sum() == pytest.approx(1.0, abs=1e-15)


def test_matrix_is_read_only():
    m = validate([[0.5, 0.5]])
    with pytest.raises(ValueError):
        m.u[0, 0] = 0.9


def test_usage_lower_bounds():
    m = validate([[0.6, 0.4], [0.3, 0.7]])
    assert np.allclose(usage_lower_bounds(m).y, [0.6, 0.7])
    assert np.allclose(usage_lower_bounds(validate([[1.0]])).y, [1.0])
    uni = validate(np.full((4, 5), 0.2))
    assert np.allclose(usage_lower_bounds(uni).y, 0.2)


def test_sparsity_stats_ordering():
    for m in instance_battery(seed=5, count=12):
        s = sparsity_stats(m)
        assert 1.0 <= s.alpha_force <= s.d + 1e-12 <= m.K + 1e-12


# ---------------------------------------------------------------------------
# guarantees and hiding probability
# ---------------------------------------------------------------------------


def test_guarantee_dilate_values():
    assert guarantee_dilate(1) == 1.0
    assert guarantee_dilate(10) == pytest.approx(3.302585092994046, abs=1e-12)
    assert guarantee_dilate(3) == pytest.approx(2.09861228866811, abs=1e-10)
    with pytest.raises(DomainError):
        guarantee_dilate(0)


def test_guarantee_force_open_values():
    assert guarantee_force_open(validate([[1.0, 0.0], [0.0, 1.0]])) == 1.0
    pairs = validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert guarantee_force_open(pairs) == pytest.approx(2.0)
    assert guarantee_force_open(validate([[0.6, 0.4]])) == pytest.approx(1.0 / 0.6)


def test_guarantee_js_values():
    assert guarantee_js(2) == 1.0
    assert guarantee_js(1) == 1.0
    assert guarantee_js(3) == pytest.approx(4.0 / 3.0)
    assert guarantee_js(4) == pytest.approx(1.5)


def test_hiding_probability_reference_value():
    # direct evaluation of the closed form at u_m = 1/2
    expect = 0.5 / (0.5 + 0.5 * math.e ** 2 - math.e)
    assert hiding_probability(0.5) == pytest.approx(expect, abs=1e-15)
    assert hiding_probability(0.5) == pytest.approx(0.33870, abs=1e-5)


def test_hiding_probability_at_one_and_domain():
    assert hiding_probability(1.0) == 1.0
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(DomainError):
            hiding_probability(bad)


def test_hiding_probability_sweep_monotone_in_unit_interval():
    grid = np.linspace(1.0 / 10_000, 1.0, 10_000)
    vals = np.array([hiding_probability(u) for u in grid])
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert np.all(np.diff(vals) >= -1e-12)


def test_select_scheme():
    gen = np.random.default_rng(3)
    rows = np.zeros((100, 6))
    for i in range(100):
        ks = gen.choice(6, size=2, replace=False)
        rows[i, ks] = 0.5
    m = validate(rows)
    scheme, ratio = select_scheme(m)
    assert scheme == "force_open" and ratio == pytest.approx(2.0)

    m2 = validate([[0.55, 0.45], [0.45, 0.55]])  # alpha_force ~ 1.818
    scheme, ratio = select_scheme(m2)
    assert scheme == "dilate"
    assert ratio == pytest.approx(1.0)  # B(2) = 1 caps the reported ratio

    scheme, ratio = select_scheme(validate([[0.3, 0.7]]))
    assert scheme == "dilate" and ratio == 1.0


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def test_independent_deterministic_row():
    m = validate([[1.0, 0.0, 0.0]])
    for s in range(20):
        assert independent_round(m, RandomStream(s)).z[0] == 0


def test_independent_marginal():
    m = validate([[0.3, 0.7]])
    rep = mc_estimate(m, "independent", N_MC, RandomStream(21))
    assert abs(rep.marginals[0, 1] - 0.7) <= slack(0.7)


def test_independent_same_fc_probability():
    m = validate([[0.5, 0.5], [0.5, 0.5]])
    r = RandomStream(33)
    same = sum(len(set(independent_round(m, r).z)) == 1 for _ in range(50_000))
    assert abs(same / 50_000 - 0.5) <= slack(0.5, 50_000)


def test_dilate_symmetric_singleton():
    m = validate([np.full(3, 1.0 / 3.0)])
    rep = mc_estimate(m, "dilate", N_MC, RandomStream(4))
    assert np.all(np.abs(rep.marginals - 1.0 / 3.0) <= slack(1.0 / 3.0))


def test_dilate_identical_rows_couple():
    m = validate([[0.2, 0.5, 0.3]] * 4)
    for s in range(100):
        out, _ = dilate_round(m, RandomStream(s))
        assert len(set(out.z)) == 1


def test_dilate_marginal():
    m = validate([[0.3, 0.7]])
    rep = mc_estimate(m, "dilate", N_MC, RandomStream(8))
    assert abs(rep.marginals[0, 0] - 0.3) <= slack(0.3)


def test_dilate_trace_invariants():
    gen = np.random.default_rng(14)
    for m in instance_battery(seed=14, count=6):
        for s in range(30):
            out, tr = dilate_round(m, RandomStream(s))
            pos = m.u > 0.0
            assert np.all(tr.x[pos] >= np.broadcast_to(tr.e, tr.x.shape)[pos] - 1e-12)
            assert np.all(np.isinf(tr.x[~pos]))
            assert np.all(m.u[np.arange(m.q), out.z] > 0.0)
            assert tr.h is None and tr.m is None


def test_force_open_deterministic_instance():
    m = validate([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for s in range(20):
        out, tr = force_open_round(m, RandomStream(s))
        assert np.array_equal(out.z, [0, 0, 1])
    # y_k = 1 for both FCs: each used with probability exactly 1
    rep = mc_estimate(m, "force_open", 1000, RandomStream(1))
    assert np.allclose(rep.usage, [1.0, 1.0])


def test_force_open_marginal():
    m = validate([[0.3, 0.7]])
    rep = mc_estimate(m, "force_open", N_MC, RandomStream(12))
    assert np.all(np.abs(rep.marginals - [[0.3, 0.7]]) <= slack(0.7))


def test_force_open_pairs_usage_bound():
    m = validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    rep = mc_estimate(m, "force_open", N_MC, RandomStream(17))
    # guarantee alpha_force = 2 = sparsity: usage <= 2 * 0.5 = 1 trivially,
    # and marginals stay exact
    assert np.all(rep.usage <= 1.0)
    assert np.all(np.abs(rep.marginals - m.u) <= slack(0.5))


def test_force_open_termination_and_trace():
    for m in instance_battery(seed=31, count=6):
        bound = 1.0 / m.u.max(axis=1)
        fav = m.u.argmax(axis=1)
        nontarget = m.u > 0.0
        nontarget[np.arange(m.q), fav] = False
        for s in range(30):
            out, tr = force_open_round(m, RandomStream(s))
            assert tr.h is not None and tr.m is not None
            assert np.array_equal(tr.m, fav)
            assert np.all(tr.x.min(axis=1) <= bound + 1e-9)
            assert np.all(tr.x.min(axis=1) <= m.alpha_force + 1e-9)
            # only the forced target may open before its natural clock
            e_mat = np.broadcast_to(tr.e, tr.x.shape)
            assert np.all(tr.x[nontarget] >= e_mat[nontarget] - 1e-12)


def test_scheme_determinism():
    m = validate([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    for fn in (dilate_round, force_open_round):
        o1, t1 = fn(m, RandomStream(99))
        o2, t2 = fn(m, RandomStream(99))
        assert np.array_equal(o1.z, o2.z)
        assert np.array_equal(t1.e, t2.e)
        assert np.array_equal(t1.x, t2.x)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


def test_mc_exact_on_deterministic_instance():
    m = validate([[1.0, 0.0], [0.0, 1.0]])
    for scheme in rounding.SCHEMES:
        rep = mc_estimate(m, scheme, 5000, RandomStream(2))
        assert np.array_equal(rep.marginals, m.u)


SINGLE_CALLS = {
    "independent": lambda m, rng: independent_round(m, rng).z,
    "dilate": lambda m, rng: dilate_round(m, rng)[0].z,
    "force_open": lambda m, rng: force_open_round(m, rng)[0].z,
}


def _singles(m, scheme, n, rng):
    return np.array([SINGLE_CALLS[scheme](m, rng) for _ in range(n)])


def test_mc_batch_matches_single_calls(monkeypatch):
    # small blocks so that 700 draws cross many chunk boundaries
    monkeypatch.setattr(rounding, "CHUNK_ELEMS", 999)
    m = validate([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    for scheme in rounding.SCHEMES:
        r1, r2, r3 = RandomStream(6), RandomStream(6), RandomStream(6)
        singles = _singles(m, scheme, 700, r1)
        assert np.array_equal(sample(m, scheme, r2, 700), singles)
        rep = mc_estimate(m, scheme, 700, r3)
        assert r1.position == r2.position == r3.position
        counts = np.stack([np.bincount(singles[:, i], minlength=m.K) for i in range(m.q)])
        assert np.array_equal(rep.marginals, counts / 700)
        used = np.array([[k in row for k in range(m.K)] for row in singles.tolist()])
        assert np.array_equal(rep.usage, used.mean(axis=0))


# q=1, K=1, a y_k = 0 column, and a trailing zero column hit at U = 1.0
EDGE_INSTANCES = [
    [[0.3, 0.7]],
    [[1.0], [1.0], [1.0]],
    [[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]],
    [[0.34, 0.56, 0.10, 0.0], [0.0, 0.5, 0.5, 0.0]],
]


@pytest.mark.parametrize("rows", EDGE_INSTANCES)
@pytest.mark.parametrize("scheme", rounding.SCHEMES)
def test_sample_edge_instances_match_single_calls(rows, scheme):
    m = validate(rows)
    for stream in (RandomStream(12), UnitUniforms(0)):
        singles = _singles(m, scheme, 300, stream)
        z = sample(m, scheme, type(stream)(stream.seed), 300)
        assert np.array_equal(z, singles)
        assert np.all(m.u[np.arange(m.q), z] > 0.0)
    if scheme != "independent":
        # a y_k = 0 column never opens, even at U = 1.0
        draw = dilate_round if scheme == "dilate" else force_open_round
        trace = draw(m, UnitUniforms(0))[1]
        assert np.all(trace.e[m.y == 0.0] == np.inf)
        assert not np.isnan(trace.e).any()


@pytest.mark.parametrize("scheme", rounding.SCHEMES)
def test_mc_every_run_in_support(scheme):
    for rows in EDGE_INSTANCES:
        rep = mc_estimate(validate(rows), scheme, 5000, RandomStream(3))
        assert rep.in_support == 5000
    for t, m in enumerate(instance_battery(seed=5, count=8)):
        assert mc_estimate(m, scheme, 2000, RandomStream(t)).in_support == 2000


def test_sample_argument_errors():
    m = validate([[0.5, 0.5]])
    with pytest.raises(DomainError):
        sample(m, "nope", RandomStream(0), 3)
    with pytest.raises(DomainError):
        sample(m, "dilate", RandomStream(0), -1)
    assert sample(m, "dilate", RandomStream(0), 0).shape == (0, 1)


def test_draw_at_u_one_stays_on_support():
    # this row's cumulative sum ends one ulp under 1 before its zero column
    m = validate([[0.34, 0.56, 0.10, 0.0]])
    assert np.cumsum(m.u[0])[2] < 1.0
    assert independent_round(m, UnitUniforms(0)).z.tolist() == [2]
    rep = mc_estimate(m, "independent", 10, UnitUniforms(0))
    assert rep.marginals[0].tolist() == [0.0, 0.0, 1.0, 0.0]


def _searchsorted_per_row(cdf, u):
    """Reference inverse CDF: one searchsorted per row, clipped to K - 1."""
    z = np.stack([np.searchsorted(cdf[i], u[:, i], side="left") for i in range(cdf.shape[0])], axis=1)
    return np.minimum(z, cdf.shape[1] - 1)


def test_pinned_cdf_keeps_draws_below_one():
    # pinning each row's CDF to 1 moves no draw U < 1 that the plain
    # cumulative sum already sent to a positive entry
    for m in instance_battery(3, 60):
        u = RandomStream(9).uniform((500, m.q))
        plain = _searchsorted_per_row(np.cumsum(m.u, axis=1), u)
        assert np.all(m.u[np.arange(m.q), plain] > 0.0)
        assert np.array_equal(rounding.inverse_cdf(m.row_cdf, u), plain)
        assert np.array_equal(rounding.inverse_cdf(np.cumsum(m.u, axis=1), u), plain)


def test_mc_dilate_tail_bound():
    m = validate(np.full((4, 4), 0.25))
    rep = mc_estimate(m, "dilate", N_MC, RandomStream(40))
    assert rep.tail_grid is not None
    t2 = rep.tail[rep.tail_grid == 2.0][0]
    assert t2 <= 4.0 * math.exp(-2.0) + slack(0.5)
    bound = np.minimum(m.q * np.exp(-rep.tail_grid), 1.0)
    assert np.all(rep.tail <= bound + slack(0.5))


def test_mc_tail_absent_for_other_schemes():
    m = validate([[0.5, 0.5]])
    assert mc_estimate(m, "independent", 100, RandomStream(1)).tail is None
    assert mc_estimate(m, "force_open", 100, RandomStream(1)).tail is None


def test_mc_argument_errors():
    m = validate([[1.0]])
    with pytest.raises(DomainError):
        mc_estimate(m, "nope", 10, RandomStream(0))
    with pytest.raises(DomainError):
        mc_estimate(m, "dilate", 0, RandomStream(0))


def test_marginal_exactness_small_battery():
    # cheap version of the acceptance battery: 6 instances at N=2e5
    for t, m in enumerate(instance_battery(seed=77, count=6)):
        for scheme in ("dilate", "force_open"):
            rep = mc_estimate(m, scheme, N_MC, RandomStream(1000 + t))
            tol = 4.0 * np.sqrt(m.u * (1.0 - m.u) / N_MC)
            assert np.all(np.abs(rep.marginals - m.u) <= tol + 1e-12), (t, scheme)


def test_usage_bound_small_battery():
    for t, m in enumerate(instance_battery(seed=78, count=6)):
        for scheme in ("dilate", "force_open"):
            rep = mc_estimate(m, scheme, N_MC, RandomStream(2000 + t))
            g = rounding.scheme_guarantee(scheme, m)
            bound = np.minimum(g * m.y, 1.0) + slack(0.5)
            assert np.all(rep.usage <= bound), (t, scheme)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_instance_round_trip():
    m = validate([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    buf = io.StringIO()
    write_instance(m, buf)
    buf.seek(0)
    m2 = read_instance(buf)
    assert np.array_equal(m.u, m2.u)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("2 2\n0.5 0.5\n", 3),
        ("1 2\n0.5\n", 2),
        ("1 2\n0.5 x\n", 2),
        ("1 2\n0.6 0.3\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_instance(io.StringIO(text))
    assert err.value.line == line
