import io
import math

import numpy as np
import pytest

from corround import rounding
from corround.rounding import (
    DomainError,
    EmptyInstance,
    NegativeEntry,
    NonFiniteEntry,
    ParseError,
    RoundingTrace,
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
    validate,
    write_instance,
)
from corround.fulfillment import solve_dlp
from corround.instances import GeneratorConfig, build_instance
from corround.optimal import sample_optimal, solve_optimal_alpha
from corround.streams import RandomStream

from conftest import (
    SmallestUniforms,
    TinyUniforms,
    UnitUniforms,
    independent_usage,
    instance_battery,
    legacy_kernel,
    legacy_tables,
    random_instance,
)

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_entries(bad):
    with pytest.raises(NonFiniteEntry, match=r"u\[1,0\]"):
        validate([[0.3, 0.7], [bad, 1.0]])


def test_row_sum_mismatch_prints_a_plain_float():
    with pytest.raises(RowSumMismatch, match=r"row 0 sums to 0.5, not 1"):
        validate([[0.25, 0.25]])


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
    assert np.allclose(m.y, [0.6, 0.7])
    assert np.allclose(validate([[1.0]]).y, [1.0])
    uni = validate(np.full((4, 5), 0.2))
    assert np.allclose(uni.y, 0.2)
    assert validate([[0.5, 0.0, 0.5]]).y.tolist() == [0.5, 0.0, 0.5]


def test_sparsity_stats_ordering():
    for m in instance_battery(seed=5, count=12):
        assert m.sparsity == int((m.u > 0.0).sum(axis=1).max())
        assert 1.0 <= m.alpha_force <= m.sparsity + 1e-12 <= m.K + 1e-12


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


def test_records_are_immutable():
    m = validate([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    out, tr = force_open_round(m, RandomStream(4))
    single = independent_round(m, RandomStream(4))
    for record, field in ((out, "z"), (single, "z"), (tr, "x"), (tr, "m")):
        with pytest.raises(AttributeError):
            setattr(record, field, np.zeros(1))
    assert out[0] is out.z and tr[1] is tr.x
    # the trace hands out the matrix's own favorites, which nobody may write
    assert tr.m is m.favorite and not tr.m.flags.writeable
    with pytest.raises(ValueError):
        tr.m[0] = 1


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


# d = K (dense rows, and q = K = 1), d = 1, tied u (identical rows, equal
# entries), zero columns (inner and trailing), and sparse rows of mixed
# support sizes
_gen = np.random.default_rng(808)
SUPPORT_INSTANCES = [
    [[1.0]],
    random_instance(_gen, 6, 5).u,
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
    [[0.25, 0.25, 0.25, 0.25]] * 3,
    [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
    [[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]],
    [[0.34, 0.56, 0.10, 0.0], [0.0, 0.5, 0.5, 0.0]],
    [[0.2, 0.2, 0.2, 0.2, 0.2, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0, 0.0, 0.5]],
] + [random_instance(_gen, 7, 6, sparse=True).u for _ in range(3)]


def _full_width(m, scheme, u):
    """(z, first) of a scheme's kernel on its dense tables, which the single
    calls read."""
    return rounding._KERNELS[scheme](m.tables(scheme, False), u)


def _table_oracle(m, scheme, support):
    """The tables of `MarginalMatrix.tables`, built one cell at a time, by
    position (P, q) where a table has one entry per cell."""
    q, K = m.q, m.K
    y = [max(m.u[i, k] for i in range(q)) for k in range(K)]
    fav = [max(range(K), key=lambda k: (m.u[i, k], -k)) for i in range(q)]
    fcs = [[k for k in range(K) if m.u[i, k] > 0.0] for i in range(q)]
    d = max(len(f) for f in fcs)
    layout = np.array([[fcs[i][min(p, len(fcs[i]) - 1)] for i in range(q)] for p in range(d)])
    clock = (np.array([-yk if yk > 0.0 else -np.inf for yk in y]),
             np.array([-np.inf if yk > 0.0 else np.inf for yk in y]))
    forced = (np.array([1.0 / y[fav[i]] for i in range(q)]),
              np.array([hiding_probability(m.u[i, fav[i]]) for i in range(q)]))
    closed = K + q if scheme == "force_open" else K

    def column(i, k):
        if scheme == "force_open" and k == fav[i]:
            return K + i
        return k if m.u[i, k] > 0.0 else closed

    if support:
        at = [(i, int(layout[p, i])) for p in range(d) for i in range(q)]
        cells = lambda f: np.array([f(i, k) for i, k in at]).reshape(d, q)
        ratios = cells(lambda i, k: y[k] / m.u[i, k])
        if scheme == "independent":
            return cells(lambda i, k: m.row_cdf[i, k]), layout
        tables = clock + (cells(column), ratios, layout)
    else:
        if scheme == "independent":
            return rounding.pinned_cdf(m.u), None
        cols = np.array([[column(i, k) for i in range(q)] for k in range(K)])
        ratios = np.array([[y[k] / m.u[i, k] if m.u[i, k] > 0.0 else np.inf for i in range(q)] for k in range(K)])
        tables = clock + (cols, ratios, None)
    return tables if scheme == "dilate" else tables + (np.array(fav),) + forced


@pytest.mark.parametrize("rows", SUPPORT_INSTANCES)
@pytest.mark.parametrize("scheme", rounding.SCHEMES)
def test_tables_are_built_per_family(rows, scheme):
    # each family's tables against a per-cell oracle, bit for bit; only the
    # index tables that a kernel gathers by (columns, favorites) are
    # writeable; and a draw builds only the family it reads
    m = validate(rows)
    for support in (False, True):
        got = m.tables(scheme, support)
        assert m.tables(scheme, support) is got
        want = _table_oracle(m, scheme, support)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same(g, w)
            if g is not None:
                assert g.flags.writeable == (g.dtype.kind == "i" and g is not m.support)
    sampled, single = validate(rows), validate(rows)
    sample(sampled, scheme, RandomStream(1), 3)
    assert set(sampled._tables) == {(scheme, sampled.sparsity < sampled.K)}
    draw = {"independent": independent_round, "dilate": dilate_round, "force_open": force_open_round}[scheme]
    draw(single, RandomStream(1))
    assert (scheme, True) not in single._tables


def _sparse_battery(seed, count):
    """Seeded sparse matrices whose rows hold 1 to K - 1 positive entries
    at random FCs, so that most items repeat their last support position."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, K = int(gen.integers(1, 30)), int(gen.integers(2, 12))
        u = np.zeros((q, K))
        for row in u:
            cells = gen.choice(K, size=int(gen.integers(1, K)), replace=False)
            row[cells] = gen.dirichlet(np.ones(cells.size))
        out.append(u)
    return out


@pytest.mark.parametrize("rows", SUPPORT_INSTANCES + _sparse_battery(1019, 12))
def test_support_tables_skip_the_dense_tables(rows):
    # the support family's ratios and cdf, computed at the support cells,
    # are the dense tables' entries there bit for bit, and neither a
    # support table nor a support-only sample builds the dense ones
    m, sampled = validate(rows), validate(rows)
    got = {scheme: m.tables(scheme, True) for scheme in rounding.SCHEMES}
    assert "ratios" not in vars(m) and "row_cdf" not in vars(m)
    cells = m.support + np.arange(0, m.u.size, m.K)
    assert _same(got["independent"][0], m.row_cdf.take(cells))
    assert _same(got["dilate"][3], m.ratios.take(cells))
    assert _same(got["force_open"][3], m.ratios.take(cells))
    if sampled.sparsity < sampled.K:
        for scheme in rounding.SCHEMES:
            sample(sampled, scheme, RandomStream(1), 3)
        assert "ratios" not in vars(sampled) and "row_cdf" not in vars(sampled)


@pytest.mark.parametrize("rows", SUPPORT_INSTANCES)
@pytest.mark.parametrize("scheme", rounding.SCHEMES)
def test_support_kernels_match_full_width(rows, scheme):
    # the support kernels against the full-width ones, bit for bit, for
    # random draws, tied clocks (U = 1) and the smallest uniform (U = 2**-53)
    m = validate(rows)
    kernel = rounding._KERNELS[scheme]
    per = rounding.uniforms_per_draw(scheme, m.q, m.K)
    for stream in (RandomStream(5), UnitUniforms(0), SmallestUniforms(0)):
        u = stream.uniform((64, per))
        want = _full_width(m, scheme, u)
        got = kernel(m.tables(scheme, True), u)
        for w, g in zip(want, got):
            assert _same(g, w)
        assert np.all(m.u[np.arange(m.q), got[0]] > 0.0)


# ---------------------------------------------------------------------------
# differential oracle: the dilate and force_open draws as they were computed
# before the kernels were fused (openings, then the dilated view, then the
# forced favorites), kept to pin the fused kernels bit for bit
# ---------------------------------------------------------------------------


def _oracle_openings(m, u):
    closed = m.y == 0.0
    divisor, floor = np.where(closed, -np.inf, -m.y), np.where(closed, np.inf, -np.inf)
    return np.maximum(np.log(u) / divisor, floor)


def _oracle_dilated_view(m, e):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(m.u > 0.0, m.y[None, :] / m.u, np.inf)
        x = ratios * e[..., None, :]
    return np.where(m.u > 0.0, x, np.inf)


def _oracle_force_open_view(m, e, h):
    x = _oracle_dilated_view(m, e)
    fav = m.u.argmax(axis=1)
    idx = np.arange(m.q)
    um = m.u[idx, fav]
    nat = np.where(h, np.inf, e[..., fav])
    capped = np.minimum(nat, 1.0 / m.y[fav])
    x[..., idx, fav] = (m.y[fav] / um) * capped
    return np.argmin(x, axis=-1), x


def oracle_round(m, scheme, rng):
    """One draw as the unfused code made it: (z, RoundingTrace)."""
    e = _oracle_openings(m, rng.uniform(m.K))
    if scheme == "dilate":
        x = _oracle_dilated_view(m, e)
        return np.argmin(x, axis=-1), RoundingTrace(e=e, x=x)
    fav = m.u.argmax(axis=1)
    hide = np.array([hiding_probability(v) for v in m.u[np.arange(m.q), fav]])
    h = rng.uniform(m.q) <= hide
    z, x = _oracle_force_open_view(m, e, h)
    return z, RoundingTrace(e=e, x=x, h=h, m=fav)


def _same(a, b):
    """Equal arrays bit for bit (or both None)."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# q=1, K=1, a y_k = 0 column, a trailing zero column, an item with u_m = 1,
# then dense and sparse random rows
ORACLE_INSTANCES = EDGE_INSTANCES + [
    [[1.0, 0.0, 0.0], [0.3, 0.3, 0.4], [0.0, 0.0, 1.0]],
]
_gen = np.random.default_rng(606)
ORACLE_INSTANCES += [random_instance(_gen, 6, 5).u for _ in range(3)]
ORACLE_INSTANCES += [random_instance(_gen, 7, 6, sparse=True).u for _ in range(3)]


def _plan_rows():
    """Rows of a small seeded two-region DLP plan, as dispatch validates
    them, one per (item count, sparsity): the shapes a decision draws on."""
    inst = build_instance(GeneratorConfig(n=8, n_max=4, n_per=2, T=400, J=2, K=4, seed=3))
    picked = {}
    for _, a in sorted(solve_dlp(inst).u.items()):
        m = validate(a / a.sum(axis=1)[:, None])
        picked.setdefault((m.q, m.sparsity), m.u)
    return list(picked.values())


PLAN_ROWS = _plan_rows()
ORACLE_INSTANCES += PLAN_ROWS


def test_plan_rows_have_the_decision_shapes():
    shapes = [validate(u) for u in PLAN_ROWS]
    assert {m.sparsity for m in shapes} == {1, 2}
    assert max(m.q for m in shapes) <= 5 and len({m.q for m in shapes}) >= 3
    assert all(np.any(m.y == 0.0) for m in shapes)


@pytest.mark.parametrize("rows", ORACLE_INSTANCES)
@pytest.mark.parametrize("scheme", ("dilate", "force_open"))
def test_fused_kernels_match_unfused_oracle(rows, scheme):
    m = validate(rows)
    draw = dilate_round if scheme == "dilate" else force_open_round
    n = 40
    for stream in (RandomStream(17), UnitUniforms(0)):
        mk = lambda: type(stream)(stream.seed)  # noqa: E731
        ro, rn = mk(), mk()
        want = [oracle_round(m, scheme, ro) for _ in range(n)]
        for z_want, t_want in want:
            out, t_got = draw(m, rn)
            assert _same(out.z, z_want)
            for f in ("e", "x", "h", "m"):
                assert _same(getattr(t_got, f), getattr(t_want, f)), f
        assert rn.position == ro.position

        rs = mk()
        z_all = np.array([z for z, _ in want])
        assert _same(sample(m, scheme, rs, n), z_all)
        assert rs.position == ro.position

        rep = mc_estimate(m, scheme, n, mk())
        counts = np.stack([np.bincount(z_all[:, i], minlength=m.K) for i in range(m.q)])
        assert np.array_equal(rep.marginals, counts / n)
        used = np.zeros((n, m.K), dtype=bool)
        used[np.arange(n)[:, None], z_all] = True
        assert np.array_equal(rep.usage, used.mean(axis=0))
        assert rep.uniforms == ro.position
        if scheme == "dilate":
            wait = np.array([t.x.min(axis=1).max() for _, t in want])
            assert np.array_equal(rep.tail, (wait[:, None] >= rep.tail_grid).sum(axis=0) / n)


def _legacy_battery():
    """Seeded dense and sparse matrices, then closed (y = 0) columns,
    single-FC items, tied entries and a dense K = 300 matrix, whose counts
    of positions pass 255."""
    gen = np.random.default_rng(2110)
    out = [random_instance(gen, int(gen.integers(1, 12)), int(gen.integers(2, 9)), sparse=t % 2 == 1).u
           for t in range(8)]
    out += _sparse_battery(2111, 6)
    closed = np.zeros((4, 6))
    closed[:, [0, 2, 3]] = gen.dirichlet(np.ones(3), size=4)
    out += [closed, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]], [[0.25] * 4] * 3,
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]]
    return out + [gen.dirichlet(np.ones(300), size=2)]


@pytest.mark.parametrize("rows", _legacy_battery())
@pytest.mark.parametrize("scheme", ("dilate", "force_open"))
def test_position_major_kernels_match_the_item_major_ones(rows, scheme, monkeypatch):
    # both table families against conftest's item-major kernels, bit for
    # bit: the assignments, the dilate first-open times and the stream's
    # position, for random, tied (U = 1) and smallest uniforms, on one draw
    # and on one more than an mc_estimate chunk
    monkeypatch.setattr(rounding, "CHUNK_ELEMS", 4000)
    m = validate(rows)
    per = rounding.uniforms_per_draw(scheme, m.q, m.K)
    kernel = rounding._KERNELS[scheme]
    for n in (1, max(1, rounding.CHUNK_ELEMS // (m.q * m.K)) + 1):
        for stream in (RandomStream(n), UnitUniforms(0), SmallestUniforms(0)):
            mk = lambda: type(stream)(stream.seed)  # noqa: E731
            u = mk().uniform((n, per))
            for support in (False, True):
                z, first = legacy_kernel(scheme, support, legacy_tables(m, scheme, support), u)
                got = kernel(m.tables(scheme, support), u)
                assert _same(got[0], z) and _same(got[1], first)
            rs = mk()
            assert _same(sample(m, scheme, rs, n), z)
            assert rs.position == n * per

            rep = mc_estimate(m, scheme, n, mk())
            counts = np.stack([np.bincount(z[:, i], minlength=m.K) for i in range(m.q)])
            assert np.array_equal(rep.marginals, counts / n)
            used = np.zeros((n, m.K), dtype=bool)
            used[np.arange(n)[:, None], z] = True
            assert np.array_equal(rep.usage, used.mean(axis=0))
            assert (rep.in_support, rep.uniforms) == (n, n * per)
            if scheme == "dilate":
                wait = first.max(axis=1)
                assert np.array_equal(rep.tail, (wait[:, None] >= rep.tail_grid).sum(axis=0) / n)


def test_mc_in_support_counts_the_runs_off_the_support(monkeypatch):
    # a kernel that sends some items off their support: the chunk's counts
    # on cells with u = 0 send in_support to the per-run check
    m = validate([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    z = np.array([[0, 1], [1, 1], [2, 0], [1, 0], [2, 1]])
    monkeypatch.setitem(rounding._KERNELS, "independent", lambda tables, u: (z[:len(u)], None))
    assert mc_estimate(m, "independent", 5, RandomStream(0)).in_support == 2
    assert mc_estimate(m, "independent", 2, RandomStream(0)).in_support == 1


@pytest.mark.parametrize("rows", ([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
                                  [[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]]))
def test_mc_in_support_matches_the_per_run_check(rows, monkeypatch):
    # the chunk check counts on the support layout's cells where d < K (the
    # first matrix) and on the zero cells where d = K (the second); both
    # give the per-run count, for every one of the 9 draws of two items
    m = validate(rows)
    z = np.array([[a, b] for a in range(3) for b in range(3)])
    want = int(np.count_nonzero((m.u[np.arange(2), z] > 0.0).all(axis=1)))
    assert 0 < want < len(z)
    monkeypatch.setitem(rounding._KERNELS, "independent", lambda tables, u: (z[:len(u)], None))
    assert mc_estimate(m, "independent", len(z), RandomStream(0)).in_support == want
    for n in range(1, len(z)):
        assert mc_estimate(m, "independent", n, RandomStream(0)).in_support == \
            int(np.count_nonzero((m.u[np.arange(2), z[:n]] > 0.0).all(axis=1)))


@pytest.mark.parametrize("stream_type", (SmallestUniforms, TinyUniforms))
@pytest.mark.parametrize("rows", ORACLE_INSTANCES)
def test_smallest_uniforms_draw_in_support(rows, stream_type):
    # every uniform at the bottom of (0, 1]: the longest openings a draw can
    # see must stay finite on open FCs and every draw on the support
    m = validate(rows)
    for scheme in rounding.SCHEMES:
        n = 5
        singles = _singles(m, scheme, n, stream_type(0))
        assert np.array_equal(sample(m, scheme, stream_type(0), n), singles)
        assert np.all(m.u[np.arange(m.q), singles] > 0.0)
        if scheme != "independent":
            draw = dilate_round if scheme == "dilate" else force_open_round
            trace = draw(m, stream_type(0))[1]
            assert np.all(np.isfinite(trace.e[m.y > 0.0]))
            assert np.all(trace.e[m.y == 0.0] == np.inf)
            assert not np.isnan(trace.x).any()
    if m.q <= 3 and m.K <= 4:
        sol = solve_optimal_alpha(m)
        z = sample_optimal(sol, stream_type(0)).z
        assert np.all(m.u[np.arange(m.q), z] > 0.0)


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
    for scheme in rounding.SCHEMES:
        assert sample(m, scheme, RandomStream(0), 0).shape == (0, 1)
        # a sparse matrix draws over its support
        assert sample(validate([[0.5, 0.0, 0.5]] * 2), scheme, RandomStream(0), 0).shape == (0, 2)


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
        assert np.array_equal(rounding.inverse_cdf(m.tables("independent", False)[0], u), plain)
        assert np.array_equal(rounding.inverse_cdf(np.cumsum(m.u, axis=1), u), plain)


def _clipped_inverse_cdf(cdf, u):
    """The count over all K columns clipped to K - 1, the form inverse_cdf
    had before it counted over the first K - 1 columns only."""
    cols = cdf.T if u.ndim == 1 else cdf.T[:, :, None]
    return np.minimum(np.add.reduce(cols < u.T, axis=0), cdf.shape[-1] - 1).T


def test_inverse_cdf_matches_the_clipped_count():
    # same values, dtype and shape on pinned and plain cumulative sums, a
    # table shared by a block of draws or by one, U = 1 and K = 1
    gen = np.random.default_rng(20261019)
    for t in range(600):
        q, K, n = int(gen.integers(1, 7)), int(gen.integers(1, 9)), int(gen.integers(1, 5))
        w = gen.random((q, K)) * (gen.random((q, K)) < 0.6)
        w[:, gen.integers(K)] += 0.01
        w /= w.sum(axis=-1, keepdims=True)
        cdf = rounding.pinned_cdf(w) if t % 2 else np.cumsum(w, axis=-1)
        u = np.ones((n, q)) if t % 5 == 0 else gen.random((n, q))
        for table, draws in ((cdf, u), (cdf, u[0])):
            got, want = rounding.inverse_cdf(table, draws), _clipped_inverse_cdf(table, draws)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got, want)


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


def _dispatch_rows():
    """Every row of the seeded two-region plan behind PLAN_ROWS, as dispatch
    validates it."""
    inst = build_instance(GeneratorConfig(n=8, n_max=4, n_per=2, T=400, J=2, K=4, seed=3))
    return [validate(a / a.sum(axis=1)[:, None]) for _, a in sorted(solve_dlp(inst).u.items())]


def test_independent_usage_matches_the_exact_oracle():
    # under independent draws FC k is used with probability exactly
    # 1 - prod_i (1 - u_ki); the Monte Carlo usage lies within 5 binomial
    # sigmas of it (exactly on it where that is 0 or 1), and the exact usage
    # is within the scheme's guarantee q * y
    battery = instance_battery(seed=79, count=8) + _dispatch_rows()
    assert len(battery) > 8
    for t, m in enumerate(battery):
        p = independent_usage(m)
        assert np.all(p <= rounding.scheme_guarantee("independent", m) * m.y + 1e-12)
        rep = mc_estimate(m, "independent", N_MC, RandomStream(3000 + t))
        tol = 5.0 * np.sqrt(p * (1.0 - p) / N_MC)
        assert np.all(np.abs(rep.usage - p) <= tol + 1e-12), t


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_instance_round_trip():
    m = validate([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    buf = io.StringIO()
    write_instance(m, buf)
    m2 = read_instance(io.StringIO(buf.getvalue()))
    assert np.array_equal(m.u, m2.u)
    # trailing blank lines are not rows
    m3 = read_instance(io.StringIO(buf.getvalue() + "\n  \n\n"))
    assert np.array_equal(m.u, m3.u)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("2 2\n0.5 0.5\n", 3),
        ("1 2\n0.5\n", 2),
        ("1 2\n0.5 x\n", 2),
        ("1 2\n0.6 0.3\n", 2),
        ("2 2\n0.5 0.5\nnan 1.0\n", 3),
        ("2 2\ninf 0.0\n0.5 0.5\n", 2),
        ("1 2\n-inf 1.0\n", 2),
        # validate's row errors name the row's own line
        ("2 2\n0.5 0.5\n0.6 0.3\n", 3),
        ("3 2\n0.5 0.5\n0.5 0.5\n-0.5 1.5\n", 4),
        # rows past the header's q, and a header with q or K below 1
        ("1 2\n0.5 0.5\n0.1 0.9\n", 3),
        ("1 2\n0.5 0.5\n\n  \n0.1 0.9\n", 5),
        ("-1 2\n", 1),
        ("0 2\n0.5 0.5\n", 1),
        ("1 0\n\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_instance(io.StringIO(text))
    assert err.value.line == line
