"""Workloads of the corround benchmark: inputs, timed phases and metrics.

Every workload runs the same three phases in one process, from one calling
thread, closed loop (the next call starts when the previous one returned):

* ``lp`` — solve the run's suite of DLPs with ``fulfillment.solve_dlp`` and
  of subset LPs with ``optimal.solve_optimal_alpha``, drawing from each
  solved scheme with ``optimal.sample_optimal``; the suite is built from
  the seed in set-up and solved over and over;
* ``dispatch`` — replay seeded arrival streams through
  ``fulfillment.simulate`` under every policy, and once more per scheme
  through a decision loop that times each ``rounding.*_round`` call;
* ``mc`` — ``rounding.mc_estimate`` for every scheme over a battery of
  matrices, and ``setcover.batch_cover_usage`` on two covers.

So every end-to-end metric exists on every workload. A workload gives some
phases their large inputs and most of the measuring time (``share``); the
others run small inputs. Short rounds of the phases interleave for
``--seconds``, each phase getting its share of the time. Exact counts come
from the first pass over each phase's inputs, so they do not depend on how
many rounds fit.

On a shared host the same work runs up to twice as slow from one second to
the next. Every timed sample is therefore taken between two readings of a
`gauge.Gauge` and scaled to the gauge's reference speed (see
perfbench/README.md, "Scaled times").
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import gauge
import spans
from corround import fulfillment, instances, optimal, rounding, setcover
from corround.streams import RandomStream

DEFAULT_SEED = 20250808
# not used while tuning the benchmark; claims must hold on it too
HELD_OUT_SEED = 4242424242

SETUPS = 3
SAMPLES = 200             # sample_optimal calls per solved scheme
BLOCK = 1000              # least decisions per block: ten beyond its p99
# The dispatch networks are fixed by this generator seed: a network is the
# workload's infrastructure, and the run seed drives the traffic over it.
# Across generator seeds the DLP gap and FCs per order change several-fold,
# which would drown any change in the code under test.
NETWORK_SEED = 3
COVER = (200, 30, 3)      # elements, sets, sets per element of the random cover
PHASES = ("lp", "dispatch", "mc")
DECIDE = ("auto", *rounding.SCHEMES)  # decision loops: select_scheme's pick, then each scheme
# phase tags keep the inputs of different phases independent
_TAG = {"lp": 1, "dispatch": 2, "mc": 3, "subset": 4}
ALPHA_GAP = 1e-6


def sub_seed(seed: int, *path: int) -> int:
    """Well-mixed 64-bit seed for a component of the workload's inputs."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *path])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# sizes


@dataclass(frozen=True)
class LPSize:
    dlp: dict             # GeneratorConfig fields except the seed
    dlp_count: int        # DLPs in the suite, each from its own seed
    subset: tuple         # (q, K, d) of the subset-LP instances
    subset_count: int


@dataclass(frozen=True)
class MCSize:
    battery: tuple        # (q, K, d) per matrix; d = 0 for dense rows
    elems: int            # samples * q * K per matrix and scheme
    cover_samples: int


DESK = dict(n=20, n_max=5, n_per=5, p_carry=0.75, z_safety=0.5, T=10_000, K=5)

# Pivot counts differ between instances of one size by 8 % (the desk
# DLP), 10 % (the small DLP) and 6 % (subset LPs), so the suites are large
# enough that their mean moves little from seed to seed. The large LPs are
# the one-region desk DLP (625 rows x 600 columns) and K=7 subset LPs (653
# rows): two regions (1150 x 1200) and K=8 solve in a second or more, too
# few solves in a run to average out the host's swings, and the two-region
# DLP's pivot count differs by 17 % between instances.
LP_LARGE = LPSize(dlp=dict(DESK, J=1), dlp_count=12, subset=(5, 7, 2), subset_count=6)
LP_SMALL = LPSize(dlp=dict(DESK, n=10, n_max=3, n_per=3, T=2000, J=1), dlp_count=12,
                  subset=(5, 5, 2), subset_count=6)

# GeneratorConfig fields of the dispatch networks. Two regions is the least
# that makes plan rows fractional, so that the schemes differ; with one
# region every item ships from its closest carrier.
DISPATCH_LARGE = dict(DESK, J=3)
DISPATCH_SMALL = dict(DESK, T=1500, J=2)

MC_LARGE = MCSize(
    battery=((10, 10, 0), (10, 10, 2), (40, 25, 0), (100, 40, 3),
             (300, 50, 0), (1000, 100, 0), (1000, 100, 4)),
    elems=2_000_000, cover_samples=2000,
)
MC_SMALL = MCSize(
    battery=((10, 10, 0), (10, 10, 2), (40, 25, 0), (100, 40, 3)),
    elems=500_000, cover_samples=500,
)


@dataclass(frozen=True)
class Workload:
    name: str
    lp: LPSize
    dispatch: dict        # GeneratorConfig fields of the network
    mc: MCSize
    share: dict           # phase -> fraction of --seconds


# Two workloads, each run long enough (45 s) to average over the speed
# swings of a shared host; with a third, the ten-run sets that check the
# benchmark's steadiness would take too long at that length. Together they
# give every phase its large inputs once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lp_solve", LP_LARGE, DISPATCH_SMALL, MC_SMALL,
                 {"lp": 0.6, "dispatch": 0.2, "mc": 0.2}),
        Workload("dispatch_mc", LP_SMALL, DISPATCH_LARGE, MC_LARGE,
                 {"lp": 0.2, "dispatch": 0.4, "mc": 0.4}),
    )
}


# ---------------------------------------------------------------------------
# input generation


def _sparse_rows(gen, u, rows, d):
    K = u.shape[1]
    for i in rows:
        support = gen.choice(K, size=d, replace=False)
        u[i, support] = gen.dirichlet(np.ones(d))


def triangle_instance(gen, q, K, d) -> rounding.MarginalMatrix:
    """Sparse matrix whose first three items pairwise share one of three FCs.

    The odd cycle usually forces alpha* > 1; the callers keep only
    instances for which it does.
    """
    u = np.zeros((q, K))
    a, b, c = gen.choice(K, size=3, replace=False)
    for i, (x, y) in enumerate(((a, b), (b, c), (a, c))):
        w = gen.uniform(0.3, 0.7)
        u[i, x], u[i, y] = w, 1.0 - w
    _sparse_rows(gen, u, range(3, q), d)
    return rounding.validate(u)


def warm(m: rounding.MarginalMatrix) -> rounding.MarginalMatrix:
    """Fill the matrix's per-draw caches, which the first draw would fill."""
    m.y, m.ratios, m.row_cdf, m.favorite, m.hide_prob
    return m


def battery_instance(gen, q, K, d) -> rounding.MarginalMatrix:
    if d == 0:
        return rounding.validate(gen.dirichlet(np.ones(K), size=q))
    u = np.zeros((q, K))
    _sparse_rows(gen, u, range(q), d)
    return rounding.validate(u)


def random_cover(gen, q, K, degree):
    members = [[] for _ in range(K)]
    for e in range(q):
        for k in gen.choice(K, size=degree, replace=False):
            members[int(k)].append(e)
    sc = setcover.SetCoverInstance(q=q, members=tuple(tuple(ms) for ms in members))
    y = gen.uniform(1.0 / degree, min(1.0, 2.0 / degree), size=K)
    return sc, setcover.FractionalCover(y=y)


@dataclass
class LPSuite:
    """The LPs one run solves, each solve once per pass over ``jobs``."""

    dlps: list
    subsets: list         # (matrix, HiGHS alpha*)
    seed: int
    dlp_refs: dict = field(default_factory=dict)  # index -> HiGHS optimum

    @property
    def jobs(self) -> list:
        """Every LP once, the two kinds interleaved evenly."""
        nd, ns = len(self.dlps), len(self.subsets)
        jobs = [((i + 0.5) / nd, "dlp", i) for i in range(nd)]
        jobs += [((i + 0.5) / ns, "subset", i) for i in range(ns)]
        return [(kind, i) for _, kind, i in sorted(jobs)]

    def dlp_ref(self, i: int) -> float:
        if i not in self.dlp_refs:
            self.dlp_refs[i] = checks.highs_objective(fulfillment.build_dlp(self.dlps[i])[0])
        return self.dlp_refs[i]


def lp_suite(size: LPSize, seed: int) -> LPSuite:
    dlps = [
        instances.build_instance(
            instances.GeneratorConfig(seed=sub_seed(seed, _TAG["lp"], i), **size.dlp))
        for i in range(size.dlp_count)
    ]
    gen = np.random.default_rng(sub_seed(seed, _TAG["subset"]))
    subsets = []
    while len(subsets) < size.subset_count:
        m = triangle_instance(gen, *size.subset)
        alpha = checks.highs_objective(optimal.build_lp(m)[0])
        if alpha > 1.0 + ALPHA_GAP:
            subsets.append((m, alpha))
    return LPSuite(dlps, subsets, sub_seed(seed, _TAG["lp"], 1 << 20))


@dataclass
class Network:
    inst: fulfillment.FulfillmentInstance
    plan: fulfillment.DLPlan
    matrices: dict        # flat (type, region) index -> validated plan row
    auto: dict            # flat index -> scheme chosen by select_scheme
    validate_us: list
    stream: "Stream | None" = None  # the arrival stream the dispatch rounds are on


def network(config: dict) -> Network:
    cfg = instances.GeneratorConfig(seed=NETWORK_SEED, **config)
    inst = instances.build_instance(cfg)
    plan = fulfillment.solve_dlp(inst)
    matrices, auto, validate_us = {}, {}, []
    for (t, j), raw in sorted(plan.u.items()):
        mat = np.clip(raw, 0.0, None)
        mat = mat / mat.sum(axis=1, keepdims=True)
        t0 = time.perf_counter()
        m = rounding.validate(mat)
        validate_us.append((time.perf_counter() - t0) * 1e6)
        flat = t * inst.J + j
        # simulate's own dispatchers fill their caches inside the timed
        # calls, as a user's would; the decision loop times draws alone
        matrices[flat] = warm(m)
        auto[flat] = rounding.select_scheme(m)[0]
    return Network(inst, plan, matrices, auto, validate_us)


@dataclass
class MCInputs:
    battery: list
    covers: list          # (SetCoverInstance, FractionalCover)
    seed: int


def mc_inputs(size: MCSize, seed: int, r: int, hard) -> MCInputs:
    gen = np.random.default_rng(sub_seed(seed, _TAG["mc"], r))
    battery = [warm(battery_instance(gen, *shape)) for shape in size.battery]
    covers = [hard, random_cover(gen, *COVER)]
    return MCInputs(battery, covers, sub_seed(seed, _TAG["mc"], r, 1 << 20))


def arrivals(inst: fulfillment.FulfillmentInstance, rng: RandomStream) -> np.ndarray:
    """Flat (type, region) index of each order, drawn exactly as simulate draws them."""
    arr = rng.derive(fulfillment.ARRIVAL_SUBSTREAM)
    cdf = np.cumsum(inst.rates.ravel())
    idx = np.searchsorted(cdf, arr.uniform(inst.T), side="left")
    return idx[idx < inst.rates.size]


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Record:
    """Raw measurements of one run; metrics are derived at the end.

    Timings are kept per sample of the same work: per LP of the suite its
    solve times, per policy its per-order time in each stream, per scheme
    the percentiles of each block of decisions, per kind of Monte Carlo
    call its time in each round.
    """

    attempted: int = 0
    failed: int = 0
    dlp_s: dict = field(default_factory=dict)     # suite index -> seconds per solve
    subset_s: dict = field(default_factory=dict)
    sample_s: float = 0.0
    sample_calls: int = 0
    sim_us: dict = field(default_factory=lambda: {p: [] for p in fulfillment.POLICIES})
    sim_orders: dict = field(default_factory=lambda: {p: 0 for p in fulfillment.POLICIES})
    sim_fcs: dict = field(default_factory=lambda: {p: 0.0 for p in fulfillment.POLICIES})
    sim_split: dict = field(default_factory=lambda: {p: 0 for p in fulfillment.POLICIES})
    sim_short: dict = field(default_factory=lambda: {p: 0 for p in fulfillment.POLICIES})
    sim_cost: dict = field(default_factory=lambda: {p: 0.0 for p in fulfillment.POLICIES})
    sim_dlp: dict = field(default_factory=lambda: {p: 0.0 for p in fulfillment.POLICIES})
    orders0: int = 0
    # scheme -> per block of decisions, its (p50, p99) in microseconds
    decision_us: dict = field(default_factory=lambda: {s: [] for s in DECIDE})
    uniforms0: dict = field(default_factory=dict)
    # (matrix index, scheme) -> seconds per round; the shapes, and so the
    # work (assignments, elements), are the same in every round
    mc_s: dict = field(default_factory=dict)
    mc_work: dict = field(default_factory=dict)
    mc_elems0: int = 0
    mc_bytes0: int = 0
    mc_uniforms0: int = 0
    cover_s: dict = field(default_factory=dict)
    cover_work: dict = field(default_factory=dict)
    validate_us: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)

    def fail(self, what: str, exc: BaseException, count: int = 1) -> None:
        self.failed += count
        print(f"perfbench: {what} failed: {exc!r}", file=sys.stderr)
        if not isinstance(exc, checks.CheckFailed):
            traceback.print_exception(exc, file=sys.stderr)


def run_lp(suite: LPSuite, r: int, rec: Record, g: gauge.Gauge) -> None:
    """Solve job ``r`` of the suite (cyclically) and check the result."""
    jobs = suite.jobs
    kind, i = jobs[r % len(jobs)]
    rec.attempted += 1
    if kind == "dlp":
        inst = suite.dlps[i]
        try:
            plan, dt, reading = g.timed(fulfillment.solve_dlp, inst)
            rec.dlp_s.setdefault(i, []).append((dt, reading))
        except Exception as exc:  # counted, and the run goes on
            rec.fail("solve_dlp", exc)
            return
        try:
            plan.check(inst)
            checks.same_optimum(plan.objective, suite.dlp_ref(i), "DLP")
        except Exception as exc:
            rec.fail("DLP check", exc)
        return

    m, alpha = suite.subsets[i]
    try:
        sol, dt, reading = g.timed(optimal.solve_optimal_alpha, m)
        rec.subset_s.setdefault(i, []).append((dt, reading))
    except Exception as exc:
        rec.fail("solve_optimal_alpha", exc)
        return
    rec.attempted += 1  # the batch of draws from this scheme
    rng = RandomStream(sub_seed(suite.seed, r))
    sample = optimal.sample_optimal
    try:
        t0 = time.perf_counter()
        zs = [sample(sol, rng).z for _ in range(SAMPLES)]
        rec.sample_s += time.perf_counter() - t0
        rec.sample_calls += SAMPLES
    except Exception as exc:
        rec.fail("sample_optimal", exc)
        zs = []
    try:
        sol.verify(m)
        checks.same_optimum(sol.alpha, alpha, "subset LP alpha*")
        if not all(checks.in_support(m.u, z) for z in zs):
            raise checks.CheckFailed("sample_optimal drew an FC outside an item's support")
    except Exception as exc:
        rec.fail("subset LP check", exc)


@dataclass
class Stream:
    """One seeded arrival stream and the dispatch rounds still to run on it."""

    index: int
    seed: int
    orders: np.ndarray
    # ("simulate", policy) or ("decide", scheme, first order, end)
    tasks: list
    rngs: dict            # scheme -> stream of its decision loop
    done: int = 0


def make_stream(net: Network, seed: int, index: int) -> Stream:
    """The stream's rounds: ``simulate`` under every policy, then the
    decision loop in blocks of about BLOCK orders, every scheme in turn on
    a block, so that each scheme's blocks spread over the run."""
    stream_seed = sub_seed(seed, _TAG["dispatch"], index)
    orders = arrivals(net.inst, RandomStream(stream_seed))
    blocks = np.array_split(np.arange(orders.size), max(1, orders.size // BLOCK))
    tasks = [("simulate", p) for p in fulfillment.POLICIES]
    tasks += [("decide", s, int(b[0]), int(b[-1]) + 1) for b in blocks for s in DECIDE]
    rngs = {s: RandomStream(sub_seed(stream_seed, p)) for p, s in enumerate(DECIDE)}
    return Stream(index, stream_seed, orders, tasks, rngs)


def decision_block(net: Network, orders: np.ndarray, scheme: str, rng: RandomStream, rec: Record,
                   g: gauge.Gauge) -> int:
    """Time one rounding call per order; returns the uniforms consumed."""
    fns = {s: getattr(rounding, f"{s}_round") for s in rounding.SCHEMES}
    times = np.empty(orders.size, dtype=np.int64)
    bad = 0
    start = rng.position
    clock = time.perf_counter_ns
    g0 = g.read()
    for o, flat in enumerate(orders.tolist()):
        m = net.matrices[flat]
        s = net.auto[flat] if scheme == "auto" else scheme
        fn = fns[s]
        t0 = clock()
        out = fn(m, rng)
        t1 = clock()
        times[o] = t1 - t0
        z = out.z if s == "independent" else out[0].z
        if not checks.in_support(m.u, z):
            bad += 1
    reading = (g0 + g.read()) / 2
    p50, p99 = np.percentile(times, (50, 99))
    rec.decision_us[scheme].append((p50 / 1e3, p99 / 1e3, reading))
    rec.attempted += orders.size
    if bad:
        rec.fail(f"{scheme} decisions", checks.CheckFailed(f"{bad} assignments outside the support"), bad)
    return rng.position - start


def run_dispatch(net: Network, seed: int, rec: Record, g: gauge.Gauge) -> None:
    """Run the next round of the current stream, moving to the next stream
    when it is done."""
    st = net.stream
    if st.done == len(st.tasks):
        st = net.stream = make_stream(net, seed, st.index + 1)
    task = st.tasks[st.done]
    st.done += 1
    if st.index == 0:
        rec.orders0 = int(st.orders.size)
    if task[0] == "decide":
        _, scheme, lo, hi = task
        used = decision_block(net, st.orders[lo:hi], scheme, st.rngs[scheme], rec, g)
        if st.index == 0:
            rec.uniforms0[scheme] = rec.uniforms0.get(scheme, 0) + used
        return
    policy = task[1]
    rec.attempted += 1
    try:
        rep, dt, reading = g.timed(fulfillment.simulate, net.inst, net.plan, policy, RandomStream(st.seed))
        if rep.orders != st.orders.size:
            raise checks.CheckFailed(
                f"{policy} simulated {rep.orders} orders, the stream has {st.orders.size}")
    except Exception as exc:
        rec.fail(f"simulate {policy}", exc)
        return
    rec.sim_us[policy].append((dt / rep.orders * 1e6, reading))
    rec.sim_orders[policy] += rep.orders
    rec.sim_fcs[policy] += rep.fcs_per_order * rep.orders
    rec.sim_split[policy] += rep.split_orders
    rec.sim_short[policy] += rep.short_orders
    rec.sim_cost[policy] += rep.total_cost
    rec.sim_dlp[policy] += rep.dlp_value


# float64 bytes written per sample by the batched sampler, from array sizes:
# two (q, K) arrays per dilate/force_open draw, q uniforms and q indices per
# independent draw
def _bytes_per_sample(scheme: str, q: int, K: int) -> int:
    return 16 * q if scheme == "independent" else 16 * q * K


def run_mc(inp: MCInputs, size: MCSize, r: int, rec: Record, g: gauge.Gauge) -> None:
    mc = rounding.mc_estimate
    for idx, m in enumerate(inp.battery):
        n = max(1, size.elems // (m.q * m.K))
        for s_idx, scheme in enumerate(rounding.SCHEMES):
            rec.attempted += 1
            rng = RandomStream(sub_seed(inp.seed, idx, s_idx))
            try:
                rep, dt, reading = g.timed(mc, m, scheme, n, rng)
            except Exception as exc:
                rec.fail(f"mc_estimate {scheme}", exc)
                continue
            rec.mc_s.setdefault((idx, scheme), []).append((dt, reading))
            rec.mc_work[(idx, scheme)] = (n * m.q, n * m.q * m.K)
            if r == 0:
                rec.mc_elems0 += n * m.q * m.K
                rec.mc_bytes0 += n * _bytes_per_sample(scheme, m.q, m.K)
                rec.mc_uniforms0 += rng.position
            try:
                checks.marginals_match(m, rep)
                checks.usage_bounded(m, rep)
            except Exception as exc:
                rec.fail(f"mc_estimate {scheme} check", exc)
    for c_idx, (sc, fc) in enumerate(inp.covers):
        for s_idx, scheme in enumerate(rounding.SCHEMES):
            rec.attempted += 1
            rng = RandomStream(sub_seed(inp.seed, 1 << 16, c_idx, s_idx))
            n = size.cover_samples
            try:
                (_, feasible), dt, reading = g.timed(setcover.batch_cover_usage, sc, fc, scheme, n, rng)
                if feasible != n:
                    raise checks.CheckFailed(f"{n - feasible} of {n} {scheme} covers infeasible")
            except Exception as exc:
                rec.fail(f"batch_cover_usage {scheme}", exc)
                continue
            rec.cover_s.setdefault((c_idx, scheme), []).append((dt, reading))
            rec.cover_work[(c_idx, scheme)] = (n, n * sc.q * sc.K)


@dataclass
class Setup:
    lp: LPSuite
    net: Network
    mc: MCInputs
    hard: tuple


def setup(w: Workload, seed: int) -> Setup:
    hard = setcover.hard_instance(2, 16)
    return Setup(
        lp=lp_suite(w.lp, seed),
        net=network(w.dispatch),
        mc=mc_inputs(w.mc, seed, 0, hard),
        hard=hard,
    )


def run(name: str, seed: int, seconds: float, tracer) -> tuple[Record, Setup]:
    """Set up SETUPS times, then run rounds of the phases for ``seconds``.

    Rounds of the three phases interleave: the next round goes to the
    phase furthest below its share of the time spent so far. Every phase
    thus samples the whole measuring window, and a slow spell of the
    machine hits all of them alike. The run goes on past ``seconds`` until
    every phase has made one pass over its inputs: every LP of the suite
    solved, the first stream through every round.
    """
    g = gauge.Gauge()
    w = WORKLOADS[name]
    rec = Record()
    for _ in range(SETUPS):
        with tracer.span("bench.setup"):
            env, dt, reading = g.timed(setup, w, seed)
            rec.setup_s.append((dt, reading))
    rec.validate_us = env.net.validate_us
    env.net.stream = make_stream(env.net, seed, 0)
    one_pass = {"lp": len(env.lp.jobs), "dispatch": len(env.net.stream.tasks), "mc": 1}
    spent = dict.fromkeys(PHASES, 0.0)
    rounds = dict.fromkeys(PHASES, 0)
    start = time.perf_counter()
    while True:
        todo = PHASES
        if time.perf_counter() - start >= seconds:
            todo = [p for p in PHASES if rounds[p] < one_pass[p]]
            if not todo:
                break
        phase = min(todo, key=lambda p: spent[p] / w.share[p])
        r = rounds[phase]
        t0 = time.perf_counter()
        with tracer.span(f"bench.{phase}", round=r, pass_=r // one_pass[phase]):
            if phase == "lp":
                run_lp(env.lp, r, rec, g)
            elif phase == "dispatch":
                run_dispatch(env.net, seed, rec, g)
            else:
                run_mc(env.mc if r == 0 else mc_inputs(w.mc, seed, r, env.hard), w.mc, r, rec, g)
        spent[phase] += time.perf_counter() - t0
        rounds[phase] = r + 1
    return rec, env


# ---------------------------------------------------------------------------
# metrics


# Helpers return None when nothing was measured (every call failed); the
# run then reports correct = false.


# the gauge figure that scales each phase's samples: the Python kernel for
# the per-order path and the simplex, all three kernels elsewhere
SCALE_BY = {"setup": "all", "lp": "py", "dispatch": "py", "mc": "all"}


def _at_ref(samples, phase: str, col: int = 0) -> list:
    """Sample values scaled to the gauge's reference speed."""
    return [v[col] / gauge.slowdown(v[-1], SCALE_BY[phase]) for v in samples]


def _mean(values):
    return float(np.mean(values)) if len(values) else None


def _block(blocks, col):
    """Median over blocks of decisions of each block's percentile (µs)."""
    return _median(_at_ref(blocks, "dispatch", col))


def _suite_mean(per_lp: dict):
    """Mean over the suite's LPs of each one's mean solve time."""
    return float(np.mean([_mean(_at_ref(v, "lp")) for v in per_lp.values()])) if per_lp else None


def _div(num, den):
    return num / den if den else None


def _median(values):
    return float(np.median(values)) if len(values) else None


def _scaled(value, factor):
    return None if value is None else value * factor


def _rate(times: dict, work: dict, col: int, keep=lambda key: True):
    """(sum of work, sum of seconds) over the kinds of call kept."""
    keys = [k for k in times if keep(k)]
    return sum(work[k][col] for k in keys), sum(_mean(_at_ref(times[k], "mc")) for k in keys)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _orders_per_s(rec: Record):
    """Orders per second over one pass of the stream under every policy."""
    per_order = [_mean(_at_ref(rec.sim_us[p], "dispatch")) for p in fulfillment.POLICIES]
    if None in per_order:
        return None
    return len(per_order) / sum(per_order) * 1e6


def end_to_end(rec: Record) -> dict:
    assign, mc_s = _rate(rec.mc_s, rec.mc_work, 0)
    covers, cover_s = _rate(rec.cover_s, rec.cover_work, 0)
    return {
        "setup_s": (_median(_at_ref(rec.setup_s, "setup")), "s"),
        "dlp_solve_s": (_suite_mean(rec.dlp_s), "s"),
        "subset_lp_s": (_suite_mean(rec.subset_s), "s"),
        "orders_per_s": (_orders_per_s(rec), "orders/s"),
        "decision_us_p50": (_block(rec.decision_us["auto"], 0), "us"),
        "decision_us_p99": (_block(rec.decision_us["auto"], 1), "us"),
        "fcs_per_order": (_div(rec.sim_fcs["auto"], rec.sim_orders["auto"]), "FC/order"),
        "mc_assignments_per_s": (_div(assign, mc_s), "assignments/s"),
        "cover_samples_per_s": (_div(covers, cover_s), "samples/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(rec: Record, tracer, span_ns: float) -> dict:
    out = {}
    callers = {"dlp": "fulfillment.solve_dlp", "subset": "optimal.solve_optimal_alpha"}
    for kind, caller in callers.items():
        ids, dur = tracer.durations("simplex.solve", parent=caller, within="bench.lp")
        attrs = [tracer.attrs[int(s)] for s in ids]
        first = [a for s, a in zip(ids, attrs)
                 if tracer.attrs[tracer.ancestor(int(s), "bench.lp")]["pass_"] == 0]
        out[f"simplex.{kind}.iterations"] = (sum(a["iterations"] for a in first), "count")
        out[f"simplex.{kind}.s"] = (_median(dur), "s")
        per_iter = [d / a["iterations"] for d, a in zip(dur, attrs) if a["iterations"]]
        out[f"simplex.{kind}.us_per_iter"] = (_scaled(_median(per_iter), 1e6), "us")
        for key in ("rows", "cols", "nnz"):
            out[f"simplex.{kind}.{key}"] = (sum(a[key] for a in first), "count")
        out[f"simplex.{kind}.max_violation"] = (max((a["max_violation"] for a in attrs), default=None), "1")

    _, build = tracer.durations("fulfillment.build_dlp", parent="fulfillment.solve_dlp", within="bench.lp")
    out["fulfillment.build_dlp.ms"] = (_scaled(_median(build), 1e3), "ms")
    ids, solve = tracer.durations("fulfillment.solve_dlp", within="bench.lp")
    _, inner = tracer.durations("simplex.solve", parent="fulfillment.solve_dlp", within="bench.lp")
    rest = float(solve.sum() - build.sum() - inner.sum())
    out["fulfillment.solve_dlp.rest_ms"] = (_scaled(_div(rest, ids.size), 1e3), "ms")
    for p in fulfillment.POLICIES:
        out[f"fulfillment.simulate.{p}.us_per_order"] = (_mean(_at_ref(rec.sim_us[p], "dispatch")), "us")
    out["fulfillment.simulate.orders"] = (rec.orders0, "count")
    for p in fulfillment.POLICIES:
        n = rec.sim_orders[p]
        out[f"fulfillment.{p}.split_share"] = (_div(rec.sim_split[p], n), "ratio")
        out[f"fulfillment.{p}.short_share"] = (_div(rec.sim_short[p], n), "ratio")
        out[f"fulfillment.{p}.fcs_per_order"] = (_div(rec.sim_fcs[p], n), "FC/order")
        loss = _div(rec.sim_cost[p] - rec.sim_dlp[p], rec.sim_dlp[p])
        out[f"fulfillment.{p}.loss_pct"] = (_scaled(loss, 100.0), "%")

    out["rounding.validate.us"] = (_median(rec.validate_us), "us")
    for s in rounding.SCHEMES:
        out[f"rounding.{s}.us_p50"] = (_block(rec.decision_us[s], 0), "us")
        out[f"rounding.{s}.us_p99"] = (_block(rec.decision_us[s], 1), "us")
    for s in rounding.SCHEMES:
        elems, secs = _rate(rec.mc_s, rec.mc_work, 1, keep=lambda key: key[1] == s)
        out[f"rounding.mc.{s}.ns_per_elem"] = (_scaled(_div(secs, elems), 1e9), "ns")
    out["rounding.mc.elems"] = (rec.mc_elems0, "count")
    out["rounding.mc.bytes_computed"] = (rec.mc_bytes0, "B")

    _, b = tracer.durations("optimal.build_lp", parent="optimal.solve_optimal_alpha", within="bench.lp")
    out["optimal.build_lp.ms"] = (_scaled(_median(b), 1e3), "ms")
    _, v = tracer.durations("optimal.verify", parent="optimal.solve_optimal_alpha", within="bench.lp")
    out["optimal.verify.ms"] = (_scaled(_median(v), 1e3), "ms")
    out["optimal.sample.us_per_call"] = (_scaled(_div(rec.sample_s, rec.sample_calls), 1e6), "us")

    _, mg = tracer.durations("setcover.marginals", parent="setcover.batch_cover_usage")
    out["setcover.marginals.ms"] = (_scaled(_median(mg), 1e3), "ms")
    elems, secs = _rate(rec.cover_s, rec.cover_work, 1)
    out["setcover.batch.ns_per_elem"] = (_scaled(_div(secs, elems), 1e9), "ns")

    _, bi = tracer.durations("instances.build_instance")
    out["instances.build_instance.ms"] = (_scaled(_median(bi), 1e3), "ms")

    for s in rounding.SCHEMES:
        out[f"streams.uniforms_per_decision.{s}"] = (_div(rec.uniforms0.get(s), rec.orders0), "count")
    out["streams.mc.uniforms"] = (rec.mc_uniforms0, "count")

    readings = [v[-1] for v in rec.setup_s]
    for per_kind in (rec.dlp_s, rec.subset_s, rec.sim_us, rec.decision_us, rec.mc_s, rec.cover_s):
        for samples in per_kind.values():
            readings.extend(v[-1] for v in samples)
    for which in ("py", "all"):
        out[f"gauge.slowdown.{which}"] = (_median([gauge.slowdown(g, which) for g in readings]), "ratio")

    self_s = tracer.self_times()
    for layer in ("bench", *spans.LAYERS):
        out[f"trace.self_s.{layer}"] = (self_s.get(layer, 0.0), "s")
    _, root = tracer.durations("bench.run")
    wall = float(root.sum())
    n_spans = len(tracer.parent)
    cost = n_spans * span_ns / 1e9
    out["trace.wall_s"] = (wall, "s")
    out["trace.spans"] = (n_spans, "count")
    out["trace.overhead_pct"] = (_scaled(_div(cost, wall - cost), 100.0), "%")
    return out
