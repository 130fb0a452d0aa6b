"""The admission sampler ``estimate_lipschitz_mg`` against its pair-by-pair reference."""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutraldde import (
    DomainSpec,
    FunctionalAffineTerm,
    InsufficientSamples,
    NeutralProblem,
    NumericalBlowup,
    PointDelayTerm,
    TimeFn,
    TimeForcingTerm,
    WindowFns,
    ZeroTerm,
    current_value_window,
    estimate_lipschitz_mg,
    full_history_window,
    make_dirichlet_laplacian,
)
from neutraldde import problem as problem_module
from neutraldde.config import build_run, parse_config
from neutraldde.scenarios import get_scenario, scenario_names

from lipschitz_reference import reference_estimate, reference_outcomes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

#: Every bundled scenario and benchmark workload (at seed 7), as config text.
CONFIGS = {name: get_scenario(name) for name in scenario_names()}
CONFIGS.update({name: make(7).config for name, make in workloads.GENERATORS.items()})
#: Band widths whose drawn targets overflow the sampled histories to inf,
#: so that differences, norms and functionals meet inf - inf and 0 * inf.
EXTREMES = {f"{name} l=1e308": CONFIGS[name].replace("\nl = 1.0\n", "\nl = 1e308\n")
            .replace("g_y_max = 1.0", "g_y_max = inf")
            for name in ("mass_growth", "parabolic_delay_mass", "parabolic_max")}
SAMPLE_COUNTS = (1, 2, 3, 150, 151)


def outcome(fn, *args):
    """What a call gives: its float's hex, or its exception's type and message."""
    try:
        return float.hex(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def reference_outcome(prefixes, n):
    # reference_estimate's result for n samples, from one pass over more
    got = prefixes[n - 1]
    if isinstance(got, Exception):
        return type(got).__name__, str(got)
    best, formed = got
    if formed == 0:
        return "InsufficientSamples", "all sampled history pairs were degenerate or inadmissible"
    return float.hex(best)


def test_reference_outcome_reads_the_reference():
    # the prefix reading is the reference itself at each count
    prob = build_run(parse_config(CONFIGS["parabolic_max"])).problem
    prefixes = reference_outcomes(prob, 7, 3)
    for n in range(1, 8):
        assert reference_outcome(prefixes, n) == outcome(reference_estimate, prob, n, 3)


@pytest.mark.parametrize("name", [*CONFIGS, *EXTREMES])
def test_estimate_is_the_reference_bitwise(name):
    prob = build_run(parse_config({**CONFIGS, **EXTREMES}[name])).problem
    for seed in range(10):
        prefixes = reference_outcomes(prob, max(SAMPLE_COUNTS), seed)
        for n in SAMPLE_COUNTS:
            assert outcome(estimate_lipschitz_mg, prob, n, seed) == reference_outcome(prefixes, n)


@st.composite
def small_problems(draw):
    """Small problems of every term family, functional and domain kind."""
    K = draw(st.integers(1, 12))
    op = make_dirichlet_laplacian(K, draw(st.sampled_from([1.0, math.pi])))
    h = draw(st.sampled_from([0.5, 1.0, 2.0]))
    kind = draw(st.sampled_from(["delay_mass", "sup_band", "time_only"]))
    l = None if kind == "time_only" else draw(st.sampled_from([1e-20, 0.5, 1.0, 10.0, 1e308]))
    family = draw(st.sampled_from(["zero", "integral", "max", "point_delay", "time_forcing"]))
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    if family == "zero":
        g = ZeroTerm()
    elif family == "point_delay":
        g = PointDelayTerm(draw(coeff))
    elif family == "time_forcing":
        # exp(800 t) overflows past t = 0.89: those pairs raise NumericalBlowup
        g = TimeForcingTerm([TimeFn("exp", (draw(coeff), draw(st.sampled_from([1.0, 800.0]))))
                             for _ in range(K)])
    else:
        window = None
        if family == "max":
            window = draw(st.sampled_from([None, full_history_window(h), current_value_window(),
                                           WindowFns(-0.7 * h, 1.0, -0.2 * h, 1.0)]))
        profile = draw(st.lists(coeff, min_size=K, max_size=K))
        g = FunctionalAffineTerm(draw(coeff), draw(coeff), profile, family, window=window,
                                 y_max=draw(st.sampled_from([None, 0.3, 1.0, 5.0])))
    return NeutralProblem(op, h, draw(st.sampled_from([0.5, 2.0])),
                          draw(st.sampled_from([0.25, 0.5, 1.0])), g, ZeroTerm(),
                          DomainSpec(kind, l), 0.5)


@settings(max_examples=80, deadline=None)
@given(prob=small_problems(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_estimate_is_the_reference_on_small_problems(prob, seed, n):
    prefixes = reference_outcomes(prob, n, seed)
    for count in sorted({1, 2, 3, n}):
        if count <= n:
            assert outcome(estimate_lipschitz_mg, prob, count, seed) == \
                reference_outcome(prefixes, count)


@pytest.mark.parametrize("name", CONFIGS)
def test_estimate_stays_under_the_analytic_bound(name):
    # a sampled lower bound on the constant cannot pass its analytic upper
    # bound, up to rounding (parabolic_max samples 0.05000000000000017 of 0.05)
    prob = build_run(parse_config(CONFIGS[name])).problem
    bound = prob.g_alpha_lipschitz() * (1.0 + 1e-12)
    for seed in range(10):
        assert estimate_lipschitz_mg(prob, 150, seed) <= bound


def parabolic(**keys):
    """parabolic_delay_mass with some [problem] keys replaced."""
    text = CONFIGS["parabolic_delay_mass"]
    for key, value in keys.items():
        line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        text = text.replace(line, f"{key} = {value}")
    return build_run(parse_config(text)).problem


def test_a_cap_skips_the_pairs_past_it():
    # functionals are drawn at 0.25..0.7 of l = 1: a cap of 0.4 admits some pairs
    prob = parabolic(g_y_max=0.4)
    best, formed = reference_outcomes(prob, 150, 0)[-1]
    assert 0 < formed < 150
    assert estimate_lipschitz_mg(prob, 150, 0) == best


@pytest.mark.parametrize("keys", [{"g_y_max": 1e-12}, {"l": 1e-20}],
                         ids=["no pair admitted", "no pair apart"])
def test_no_formed_pair_raises_insufficient_samples(keys):
    prob = parabolic(**keys)
    assert reference_outcomes(prob, 150, 0)[-1][1] == 0
    with pytest.raises(InsufficientSamples) as exc:
        estimate_lipschitz_mg(prob, 150, 0)
    assert outcome(estimate_lipschitz_mg, prob, 150, 0) == outcome(reference_estimate, prob, 150, 0)
    assert "degenerate or inadmissible" in str(exc.value)


def test_pairs_whose_difference_is_nan_still_form_ratios():
    # h = 1e-300 and l = 1e308: every drawn target overflows its history to
    # inf, so s1 - s2 is nan; the zero term's 0 / nan ratios count as formed
    prob = NeutralProblem(make_dirichlet_laplacian(2, math.pi), 1e-300, 1.0, 0.5, ZeroTerm(),
                          ZeroTerm(), DomainSpec("delay_mass", 1e308), 0.5)
    assert reference_outcomes(prob, 6, 0)[-1] == (0.0, 6)
    assert estimate_lipschitz_mg(prob, 6, 0) == 0.0


def test_an_overflowing_term_raises_numerical_blowup():
    # functionals of 2.5..7 (l = 10) times c1 = 1e308 overflow
    prob = parabolic(l=10.0, g_y_max=100.0, g_c1=1e308)
    with pytest.raises(NumericalBlowup, match="^neutral term produced non-finite coefficients$"):
        estimate_lipschitz_mg(prob, 150, 0)
    assert outcome(estimate_lipschitz_mg, prob, 150, 0) == outcome(reference_estimate, prob, 150, 0)


#: ``_BATCH_VALUES`` at its two ends: one pair a batch, and each kind's pairs in one batch.
BATCH_ENDS = {"one pair a batch": 1, "one batch a kind": 1 << 62}
#: Problems whose outcome is an exception or takes the range screen.
OUTCOMES = {
    "NumericalBlowup": {"l": 10.0, "g_y_max": 100.0, "g_c1": 1e308},
    "InsufficientSamples, no pair admitted": {"g_y_max": 1e-12},
    "InsufficientSamples, no pair apart": {"l": 1e-20},
    "cap skips some pairs": {"g_y_max": 0.4},
}


def batch_sizes(monkeypatch, values):
    """Set the sampler's batch size; the list it returns collects each batch's pair count."""
    monkeypatch.setattr(problem_module, "_BATCH_VALUES", values)
    sizes, pair_ratios = [], problem_module._Sampler.pair_ratios

    def counted(self, t, rows):
        sizes.append(t.size)
        return pair_ratios(self, t, rows)

    monkeypatch.setattr(problem_module._Sampler, "pair_ratios", counted)
    return sizes


def check_batches(sizes, values, n):
    # the batches the size asked for: n of one pair, or one of each kind
    # present (the wobbling pairs start at the third sample)
    assert sum(sizes) == n
    assert len(sizes) == (n if values == 1 else 1 + (n >= 3))


@pytest.mark.parametrize("values", BATCH_ENDS.values(), ids=BATCH_ENDS)
@pytest.mark.parametrize("name", ["modes_wide", "parabolic_max", *EXTREMES])
def test_estimate_does_not_depend_on_the_batch_size(name, values, monkeypatch):
    prob = build_run(parse_config({**CONFIGS, **EXTREMES}[name])).problem
    sizes = batch_sizes(monkeypatch, values)
    for seed in range(3):
        prefixes = reference_outcomes(prob, max(SAMPLE_COUNTS), seed)
        for n in SAMPLE_COUNTS:
            sizes.clear()
            assert outcome(estimate_lipschitz_mg, prob, n, seed) == reference_outcome(prefixes, n)
            if not isinstance(prefixes[n - 1], Exception):
                check_batches(sizes, values, n)


@pytest.mark.parametrize("values", BATCH_ENDS.values(), ids=BATCH_ENDS)
@pytest.mark.parametrize("keys", OUTCOMES.values(), ids=OUTCOMES)
def test_exceptions_do_not_depend_on_the_batch_size(keys, values, monkeypatch):
    prob = parabolic(**keys)
    want = outcome(reference_estimate, prob, 150, 0)
    batch_sizes(monkeypatch, values)
    assert outcome(estimate_lipschitz_mg, prob, 150, 0) == want
