"""Bounded fuzz of ``wavewalk oracle``, the way test_config_fuzz fuzzes simulate.

Each flag of ``oracle bessel|images|ctrw`` takes an ordinary value or, in
half the commands, now and then an edge value: NaN, ±inf, negative values,
0, the smallest subnormal, 1e300 and 1e308, a window past the site ceiling,
a launch site outside the window. The rate flag is left to its default half
the time. Whatever the flags, the command must exit 0, 2 or 3 with a
message, never with a traceback. The fuzz is derandomized and bounded: 200
examples, ordinary windows of at most 60 sites, a few seconds.
"""

import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavewalk.cli import main
from wavewalk.lattice import MAX_SITES

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.0, 5e-324, 1e300, 1e308]
EDGE_SITES = [-5, 0, 1, 2, MAX_SITES + 1, 10**30]
ORDINARY_FLOATS = st.integers(1, 100).map(lambda k: k / 50)
# the rate and time flags of each closed form
FLAGS = {"bessel": ("--c", "--z"), "images": ("--c", "--z"), "ctrw": ("--gamma", "--t")}


@st.composite
def oracle_argv(draw):
    rough = draw(st.integers(0, 1)) == 0  # half the commands

    def value(ordinary, edges):  # in a rough command, half the flags take an edge value
        return draw(st.sampled_from(edges) if rough and draw(st.booleans()) else ordinary)

    which = draw(st.sampled_from(sorted(FLAGS)))
    rate, time = FLAGS[which]
    n_sites = value(st.integers(2, 60), EDGE_SITES)
    # a site inside the window, in its middle third, or outside it
    inside = max(0, min(n_sites, 60) - 1)
    j0 = value(st.integers(inside // 3, inside - inside // 3),
               [-1, 0, inside, n_sites, n_sites + 1, 10**30])
    # --flag=value, so that argparse takes "-inf" as a value, not as a flag
    argv = ["oracle", which, f"--j0={j0}", f"--n-sites={n_sites}",
            f"{time}={value(ORDINARY_FLOATS, EDGE_FLOATS)!r}"]
    if draw(st.booleans()):  # the rate defaults to 1
        argv.append(f"{rate}={value(ORDINARY_FLOATS, EDGE_FLOATS)!r}")
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=oracle_argv())
def test_oracle_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code:
        assert err.getvalue().strip(), argv
    else:
        assert out.getvalue().startswith("site,"), argv
