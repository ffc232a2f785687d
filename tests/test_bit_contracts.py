"""The engine's bit contracts as properties, over drawn shapes.

The Chebyshev kernel and the ensemble fold promise exact bits, not bits to
rounding:
- each state of a block call has the bits of the same state called alone;
- a call's bits do not depend on the memory order of its inputs;
- ensemble statistics do not depend on the block size.

Fixed pins cover a few shapes (``BLOCK_SHAPES`` in test_kernels.py, a few
block sizes in test_ensembles.py); these properties draw the rest: R in
1..70 states of W in 2..300 sites, open or ring, one H shared by the block
or one per state, real or complex states, a table of 1..80 columns from
``_chebyshev_table``, and C- or F-ordered inputs. The profile is
derandomized and bounded, so each run draws the same examples in a few
seconds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavewalk import (
    Boundary,
    DephasingSpec,
    DisorderSpec,
    SeedPolicy,
    SingleSite,
    ZGrid,
    build_hamiltonian,
    kernels,
    make_initial_state,
    uniform_lattice,
)
from wavewalk.ensembles import _block_rows, _dephasing, _disorder, _reduce_ensemble
from wavewalk.propagators import _chebyshev_table

PROFILE = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
# |H - CENTER| <= 1.3 + 2 * 1.5 for the drawn H below, within HALFWIDTH
CENTER, HALFWIDTH = 0.3, 5.0


@st.composite
def block_calls(draw):
    """(diag, off, corner, table, psi) of one kernel call on a drawn block."""
    rows, sites = draw(st.integers(1, 70)), draw(st.integers(2, 300))
    ring, per_row, real = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    n_cols, zmax = draw(st.integers(1, 80)), draw(st.floats(0.0, 6.0))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = (rows,) if per_row else ()
    diag = r.uniform(-1.0, 1.0, size=lead + (sites,))
    off = r.uniform(0.5, 1.5, size=lead + (sites - 1,))
    if not ring:
        corner = 0.0
    else:
        corner = r.uniform(0.5, 1.5, size=rows) if per_row else 0.7
    psi = r.normal(size=(rows, sites))
    if not real:
        psi = psi + 1j * r.normal(size=(rows, sites))
    table = _chebyshev_table(HALFWIDTH * np.sort(r.uniform(0.0, zmax, size=n_cols)), 1e-12)
    return diag, off, corner, table, psi


def _call(diag, off, corner, table, psi):
    out = np.zeros((table.shape[1],) + psi.shape, dtype=np.complex128)
    kernels.chebyshev_apply(out, diag - CENTER, off, corner, HALFWIDTH, table, psi)
    return out


@PROFILE
@given(call=block_calls())
def test_each_state_of_a_block_has_the_bits_of_its_call_alone(call):
    diag, off, corner, table, psi = call
    block = _call(*call)
    for i in range(psi.shape[0]):
        if diag.ndim == 2:  # one H per state
            alone = (diag[i], off[i], corner[i] if np.ndim(corner) else corner)
        else:
            alone = (diag, off, corner)
        assert np.array_equal(block[:, i], _call(*alone, table, psi[i])), i


@PROFILE
@given(call=block_calls(), orders=st.lists(st.sampled_from("CF"), min_size=4, max_size=4))
def test_a_call_does_not_depend_on_its_inputs_memory_order(call, orders):
    diag, off, corner, table, psi = call
    d, o, t, p = (np.asarray(a, order=order) for a, order in zip((diag, off, table, psi), orders))
    assert np.array_equal(_call(d, o, corner, t, p), _call(*call))


@st.composite
def ensembles(draw):
    """(ensemble, psi0, zgrid, realizations, two block sizes) of a drawn
    disorder or dephasing ensemble."""
    n = draw(st.integers(2, 40))
    boundary = draw(st.sampled_from([Boundary.OPEN, Boundary.PERIODIC]))
    if boundary is Boundary.PERIODIC:
        n = max(n, 3)
    lat = uniform_lattice(n, boundary=boundary)
    policy = SeedPolicy(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        seg = draw(st.sampled_from([0.25, 0.5, 1.0]))
        stop = seg * draw(st.integers(1, 4))
        zgrid = ZGrid(np.linspace(0.0, stop, draw(st.integers(2, 12))))
        deph = DephasingSpec(seg, draw(st.floats(0.1, 4.0)))
        ensemble = _dephasing(build_hamiltonian(lat), deph, zgrid, policy)
    else:
        zgrid = ZGrid(np.linspace(0.0, draw(st.floats(0.5, 6.0)), draw(st.integers(2, 12))))
        d = DisorderSpec(draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 3.0)))
        ensemble = _disorder(lat, d, zgrid, policy)
    realizations = draw(st.integers(1, 70))
    sizes = draw(st.lists(st.integers(1, realizations), min_size=2, max_size=2))
    psi0 = make_initial_state(SingleSite(draw(st.integers(0, n - 1))), n)
    return ensemble, psi0, zgrid, realizations, sizes


@PROFILE
@given(case=ensembles())
def test_ensemble_statistics_do_not_depend_on_the_block_size(case):
    ensemble, psi0, zgrid, realizations, sizes = case
    a, b = (_reduce_ensemble(_block_rows(*ensemble, psi0), size, zgrid, realizations,
                             psi0.n_sites) for size in sizes)
    for name in ("mean_intensity", "sem_intensity", "variance_trace", "pr_trace"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (name, sizes)
