import numpy as np

from corround.rounding import dilate_round, validate
from corround.streams import RandomStream, derive_seed


def test_same_seed_same_sequence():
    a = RandomStream(123)
    b = RandomStream(123)
    assert np.array_equal(a.uniform(1000), b.uniform(1000))
    assert a.position == b.position == 1000


def test_uniform_support_is_half_open_at_zero():
    u = RandomStream(7).uniform(200_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_uniform_is_one_minus_the_generator():
    # one array draw and a run of scalar draws give the same values, bit
    # for bit, as 1 - PCG64's doubles on [0, 1), and count every value
    ref = 1.0 - np.random.Generator(np.random.PCG64(9)).random(1001)
    r = RandomStream(9)
    u = r.uniform(1000)
    assert u.dtype == np.float64 and u.tobytes() == ref[:1000].tobytes()
    assert r.uniform() == ref[1000] and r.position == 1001
    s = RandomStream(9)
    assert [s.uniform() for _ in range(5)] == ref[:5].tolist() and s.position == 5
    assert RandomStream(9).uniform((2, 3)).tobytes() == ref[:6].tobytes()


def test_exponential_inverse_cdf():
    # the dilate clocks are exponentials of rate y_k by inverse CDF of the
    # stream's uniforms, E_k = -ln(U_k) / y_k
    m = validate([[0.6, 0.4], [0.3, 0.7]])
    e = dilate_round(m, RandomStream(9))[1].e
    assert np.array_equal(e, -np.log(RandomStream(9).uniform(m.K)) / m.y)


def test_exponential_zero_rate_is_inf():
    # a column with y_k = 0 never opens, even at U = 1
    m = validate([[1.0, 0.0]])
    assert m.y[1] == 0.0
    assert dilate_round(m, RandomStream(1))[1].e[1] == np.inf


def test_bernoulli_mean():
    # U <= p holds with probability exactly p, as force_open's hide flags use it
    hits = (RandomStream(11).uniform(200_000) <= 0.3).mean()
    assert abs(hits - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 200_000)


def test_derive_is_xor_and_independent():
    base = RandomStream(0xDEAD)
    child = base.derive(5)
    assert child.seed == derive_seed(0xDEAD, 5)
    assert base.position == 0  # deriving consumes nothing
    again = base.derive(5)
    assert np.array_equal(child.uniform(10), again.uniform(10))
