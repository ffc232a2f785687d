"""Bounded fuzz of ``wavewalk simulate``, drawn from the config schema table.

Every key of ``config._SCHEMA`` is drawn from its kind and bounds: edge values
(0, the smallest subnormal, 1e308, inf, nan, each bound one ulp either side),
ordinary values, values of the wrong type, or left out. Whatever the config, simulate
must exit 0, 2 or 3 with a message, never with a traceback. The fuzz is
derandomized and bounded: 200 examples, lattices of at most 12 sites, at most
3 realizations.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavewalk.cli import main
from wavewalk.config import READS, _REQUIRED, _SCHEMA

MAX_SITES = 12
# ordinary draws of the size keys stay small, so that every run takes a moment
INT_RANGE = {"n_sites": (2, MAX_SITES), "n_realizations": (1, 3), "steps": (1, 40)}
OUTPUT_DIR = "<output directory>"
JUNK = [None, True, "x", [], {}]


def _constant(bounds, ops, default=None):
    """The first constant bound of one of ``ops``, else ``default``."""
    return next((b for op, b in bounds if op in ops and not callable(b)), default)


def _floats(bounds, edge):
    if edge:  # 0, the smallest subnormal, 1e308 and each bound one ulp either side
        edges = [0.0, 5e-324, 1e308, -1e308, math.inf, math.nan]
        for op, b in bounds:
            if op in (">=", ">", "<=") and not callable(b):
                edges += [math.nextafter(b, -math.inf), float(b), math.nextafter(b, math.inf)]
        return st.sampled_from(edges)
    # ordinary values: a grid of 100 points inside the bounds, in (0, 10] if unbounded
    lo, hi = _constant(bounds, (">=", ">"), 0.0), _constant(bounds, ("<=",), 10.0)
    return st.integers(1, 100).map(lambda k: lo + (hi - lo) * k / 100)


def _ints(key, bounds, n_sites, edge):
    lo, hi = _constant(bounds, (">=",), 0), _constant(bounds, ("<=",))
    if edge:  # above a size key's ordinary range, only the refused value past its bound
        above = [] if key in INT_RANGE and hi is None else [2**64 if hi is None else hi + 1]
        return st.sampled_from([lo - 1, lo, lo + 1] + above)
    return st.integers(*INT_RANGE.get(key, (lo, lo + n_sites - 1)))


def _strategy(key, kind, bounds, n_sites, edge):
    """Values of ``kind`` for ``key``: ordinary ones within ``bounds``, or edge ones."""
    options = _constant(bounds, ("in",))
    if kind == "str":
        if key == "directory":
            return st.just("" if edge else OUTPUT_DIR)
        return st.just("bogus") if edge else st.sampled_from(options)
    if kind == "strs":
        return st.lists(st.sampled_from(options + ["hdf5"] if edge else options),
                        max_size=4, unique=not edge)
    if kind == "int":
        return _ints(key, bounds, n_sites, edge)
    if kind == "pair":
        return st.lists(_ints(key, bounds, n_sites, edge), min_size=2 - edge, max_size=2 + edge)
    if kind == "floats":  # mostly a scalar, else one entry per site or per open-chain bond
        lengths = [n_sites - 1, n_sites] if edge else [n_sites - (key != "beta")]
        vector = st.sampled_from(lengths).flatmap(
            lambda k: st.lists(_floats(bounds, edge), min_size=k, max_size=k))
        return st.one_of(*[_floats(bounds, edge)] * 3, vector)
    return _floats(bounds, edge)


# what a key gets: in a smooth config an ordinary value or its default; in a
# rough one, now and then an edge value or one of the wrong type as well
OUTCOMES = {False: ["value", "omit", "omit"],
            True: ["value"] * 13 + ["omit"] * 4 + ["edge"] * 2 + ["junk"]}


def _block(draw, name, n_sites, rough):
    """A draw of block ``name`` of the table; a kind key adds the keys of its
    variant. A required key is left out only in a rough config."""
    table, out = dict(_SCHEMA[name]), {}
    keys = list(table)
    for key in keys:
        kind, default, bounds = table[key]
        outcome = draw(st.sampled_from(OUTCOMES[rough]))
        if kind == "object" or (outcome == "omit" and (rough or default is not _REQUIRED)):
            continue
        if outcome == "junk":
            out[key] = draw(st.sampled_from(JUNK))
        else:
            out[key] = draw(_strategy(key, kind, bounds, n_sites, edge=outcome == "edge"))
        if key == "kind" and f"{name}.{out[key]}" in _SCHEMA:
            table.update(_SCHEMA[f"{name}.{out[key]}"])
            keys += _SCHEMA[f"{name}.{out[key]}"]
    return out


@st.composite
def configs(draw):
    rough = draw(st.integers(0, 2)) == 0  # a third of the configs
    top = _block(draw, "", MAX_SITES, rough)
    experiment = top.get("experiment")
    reads = READS.get(experiment, ()) if isinstance(experiment, str) else ()
    n_sites = draw(st.integers(2, MAX_SITES))
    raw = {key: value for key, value in top.items()  # a smooth config keeps to what is read
           if key in reads or key == "experiment" or (rough and draw(st.integers(0, 9)) == 0)}
    raw["lattice"] = _block(draw, "lattice", n_sites, rough)
    if not rough or draw(st.integers(0, 9)):
        raw["lattice"]["n_sites"] = n_sites
    for name in ("zgrid", "output", "initial_state", "propagator", "disorder", "dephasing",
                 "sweep", "classical"):
        if name in ("zgrid", "output") or (
                draw(st.integers(0, 9)) < (9 if name in reads else rough)):
            raw[name] = _block(draw, name, n_sites, rough)
    # a smooth config, and half the rough ones, keep to the two cross-field
    # rules a draw rarely meets by chance: z increasing, whole noise segments
    zgrid, deph = raw["zgrid"], raw.get("dephasing")
    start, stop = zgrid.get("start", 0.0), zgrid.get("stop")
    if not rough or draw(st.booleans()):
        if isinstance(start, float) and isinstance(stop, float):
            stop = zgrid["stop"] = start + stop
        if isinstance(deph, dict) and isinstance(stop, float):
            deph["segment_length"] = stop / draw(st.integers(1, 8))
    return raw


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(raw=configs())
@example(raw={"experiment": "dephasing", "lattice": {"n_sites": 10},
              "zgrid": {"stop": 10.0, "steps": 3}, "n_realizations": 3,
              "dephasing": {"segment_length": 10.0, "phase_strength": 1e308}})
@example(raw={"experiment": "ballistic", "lattice": {"n_sites": 9},
              "zgrid": {"stop": 1.0, "steps": 10**10}})
@example(raw={"experiment": "dephasing", "lattice": {"n_sites": 10},
              "zgrid": {"stop": 1.0, "steps": 3}, "n_realizations": 3,
              "dephasing": {"segment_length": 0.5, "phase_strength": 1e6}})
@example(raw={"experiment": "dephasing", "lattice": {"n_sites": 10}, "zgrid": {"stop": 1e6},
              "n_realizations": 3,
              "dephasing": {"segment_length": 31250.0, "phase_strength": 1.0}})
def test_simulate_exits_0_2_or_3(raw):
    with tempfile.TemporaryDirectory() as out:
        output = raw.get("output", {})
        if output.get("directory", OUTPUT_DIR) == OUTPUT_DIR:
            output = {**output, "directory": out}
        path = Path(out) / "config.json"
        path.write_text(json.dumps({**raw, "output": output}))
        assert main(["simulate", str(path)]) in (0, 2, 3)
