"""Bundled, ready-to-run configurations.

Each scenario is a complete config text; ``get_scenario`` returns it and the
command line accepts the name wherever a config path is accepted.  The
manufactured scenario embeds its closed-form forcing amplitude so the exact
solution is exp(-t/2) per construction.
"""

from __future__ import annotations

import math

_HEAT_DECAY = """\
# pure decay: no delay terms, wide admissible band, runs to the horizon
[operator]
type = dirichlet_sine
n_modes = 4
length = 3.141592653589793

[problem]
h = 0.5
T = 2.0
alpha = 0.5
mg_bound = 0.0
domain = delay_mass
l = 10.0
g_family = zero
f_family = zero

[initial]
family = constant
coeffs = 1.0 0.5 0.25 0.125

[solver]
dt = 0.01
window = 0.1
tol = 1e-12
max_iter = 100

[output]
csv = heat_decay.csv
n_coeffs = 4
"""

_MASS_GROWTH = """\
# single growing mode: forcing twice the current norm gives u(t) = 0.1 e^t,
# whose delay mass 0.1 e^t (1 - e^-1) reaches the band edge l = 1
[operator]
type = explicit
mu = 1.0

[problem]
h = 1.0
T = 3.5
alpha = 0.5
mg_bound = 0.0
domain = delay_mass
l = 1.0
g_family = zero
f_family = affine
f_functional = max
f_window = current
f_c0 = 0.0
f_c1 = 2.0
f_profile = modes:1.0
f_y_max = 1e9

[initial]
family = constant
coeffs = 0.1

[solver]
dt = 0.001
window = 0.5

[output]
csv = mass_growth.csv
n_coeffs = 1
"""

_PARABOLIC_DELAY_MASS = """\
# heat equation on (0, pi) with both terms driven by the delay-mass
# functional through a sine profile; stays interior through the horizon
[operator]
type = dirichlet_sine
n_modes = 8
length = 3.141592653589793

[problem]
h = 1.0
T = 2.0
alpha = 0.5
mg_bound = 0.07
domain = delay_mass
l = 1.0
g_family = affine
g_functional = integral
g_c0 = 0.0
g_c1 = 0.05
g_profile = sine:1:1.0
g_y_max = 1.0
f_family = affine
f_functional = integral
f_c0 = 0.0
f_c1 = 0.2
f_profile = sine:1:1.0
f_y_max = 1.0

[initial]
family = constant
coeffs = 0.3 0 0 0 0 0 0 0

[solver]
dt = 0.01
window = 0.5
tol = 1e-11

[output]
csv = parabolic_delay_mass.csv
n_coeffs = 4
"""

_PARABOLIC_MAX = """\
# heat equation whose neutral term reads the running maximum of the
# history norm over a sliding window; constant forcing keeps the norm
# strictly inside the pointwise band
[operator]
type = dirichlet_sine
n_modes = 3
length = 3.141592653589793

[problem]
h = 1.0
T = 2.0
alpha = 0.5
mg_bound = 0.06
domain = sup_band
l = 1.0
g_family = affine
g_functional = max
g_window = full
g_c0 = 0.0
g_c1 = 0.05
g_profile = modes:1.0 0 0
g_y_max = 1.0
f_family = time_forcing
f_fns = const:0.3; const:0.0; const:0.0

[initial]
family = constant
coeffs = 0.25 0 0

[solver]
dt = 0.01
window = 0.5
tol = 1e-11

[output]
csv = parabolic_max.csv
n_coeffs = 3
"""


def _manufactured_decay() -> str:
    # forcing amplitude for u* = e^(-t/2), decay rate 1, point delay 0.25:
    # d/dt[u* + kappa u*(.-h)] + mu u* stays a single exponential
    amp, rate, mu, kappa, h = 1.0, -0.5, 1.0, 0.25, 1.0
    f_amp = amp * (rate + mu + kappa * rate * math.exp(-rate * h))
    return f"""\
# point-delay neutral problem with a known exact solution exp(-t/2)
[operator]
type = explicit
mu = 1.0

[problem]
h = 1.0
T = 3.0
alpha = 0.5
mg_bound = 0.25
domain = time_only
g_family = point_delay
g_kappa = 0.25
f_family = time_forcing
f_fns = exp:{f_amp!r},-0.5

[initial]
family = exp
amps = 1.0
rates = -0.5

[solver]
dt = 0.001
window = 0.5
tol = 1e-9

[output]
csv = manufactured_decay.csv
n_coeffs = 1
"""


_SCENARIOS: dict[str, tuple[str, str]] = {
    "heat_decay": ("decaying modes, no delay terms; reaches the horizon", _HEAT_DECAY),
    "mass_growth": ("single growing mode exiting through the delay-mass edge", _MASS_GROWTH),
    "parabolic_delay_mass": (
        "sine-profile delay-mass problem on (0, pi); interior to the horizon",
        _PARABOLIC_DELAY_MASS,
    ),
    "parabolic_max": (
        "running-maximum neutral problem in the pointwise norm band",
        _PARABOLIC_MAX,
    ),
    "manufactured_decay": (
        "point-delay case with exact solution exp(-t/2)",
        _manufactured_decay(),
    ),
}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def scenario_description(name: str) -> str:
    return _SCENARIOS[name][0]


def get_scenario(name: str) -> str:
    """Config text of a bundled scenario."""
    try:
        return _SCENARIOS[name][1]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
