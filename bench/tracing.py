"""Span tracer that wraps the names under which wavewalk looks up its layers.

The program is not instrumented. Entering a ``Tracer`` replaces each module
attribute listed in ``WRAPPED`` with a wrapper that records a span (id,
layer, parent, start, end, thread, info); leaving it puts the originals
back, so untraced runs execute the program unchanged.

Parents: a span's parent is the innermost open span of its own thread. A
span opened by a worker thread with nothing open is a child of the innermost
open span of the thread that created the tracer: the call that started
the thread pool.

Counts are derived from the spans (one span per call), so they are exact
under threads without any lock.
"""

from __future__ import annotations

import itertools
import threading
import time

# (module, attribute, layer): every name under which the program looks up a
# layer function. Aliases of one function get one span per call, because each
# call site goes through exactly one of these names.
WRAPPED = (
    ("config", "validate_config", "config.resolve"),
    ("config", "load_config", "config.resolve"),
    ("cli", "build_hamiltonian", "lattice.build"),
    ("ensembles", "build_hamiltonian", "lattice.build"),
    ("ensembles", "sample_disordered_lattice", "ensembles.sample"),
    ("cli", "run_ensemble", "ensembles.run"),
    ("cli", "evolve_dephasing", "ensembles.run"),
    ("ensembles", "worker_count", "ensembles.worker_count"),
    ("cli", "decompose", "propagators.decompose"),
    ("ensembles", "decompose", "propagators.decompose"),
    ("propagators", "decompose", "propagators.decompose"),
    ("cli", "evolve_eigen", "propagators.evolve_eigen"),
    ("ensembles", "evolve_eigen", "propagators.evolve_eigen"),
    ("cli", "evolve_chebyshev", "propagators.evolve_chebyshev"),
    ("ensembles", "evolve_chebyshev", "propagators.evolve_chebyshev"),
    ("kernels", "chebyshev_apply", "kernels.chebyshev_apply"),
    ("kernels", "bessel_j_sequence", "kernels.bessel"),
    ("cli", "spread_variance", "observables.trace"),
    ("cli", "participation_ratio", "observables.trace"),
    ("ensembles", "spread_variance", "observables.trace"),
    ("ensembles", "participation_ratio", "observables.trace"),
    ("cli", "_write_matrix_csv", "cli.write"),
    ("cli", "_write_observables_csv", "cli.write"),
    ("cli", "_write_pgm", "cli.write"),
    ("cli", "run_experiment", "cli.run"),
)

# compulsory memory traffic of one Chebyshev recurrence step on n sites:
# read diag and offdiag (8 B per site each), T_{k-1}, T_{k-2} and the
# accumulator (16 B each), write T_k and the accumulator (16 B each)
BYTES_PER_SITE_PER_MATVEC = 96

PER_LAYER = (
    ("config.resolve_s", "s"),
    ("lattice.build_calls", "count"),
    ("lattice.build_s", "s"),
    ("ensembles.sample_calls", "count"),
    ("ensembles.sample_s", "s"),
    ("ensembles.self_s", "s"),
    ("ensembles.workers", "count"),
    ("propagators.decompose_calls", "count"),
    ("propagators.decompose_s", "s"),
    ("propagators.evolve_eigen_calls", "count"),
    ("propagators.evolve_eigen_s", "s"),
    ("propagators.evolve_chebyshev_s", "s"),
    ("propagators.chebyshev_terms", "count"),
    ("kernels.chebyshev_apply_s", "s"),
    ("kernels.matvecs", "count"),
    ("kernels.bytes_moved", "B"),
    ("kernels.bessel_s", "s"),
    ("observables.calls", "count"),
    ("observables.trace_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans around wavewalk's layer functions while entered."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._originals: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self.spans: list[tuple] = []

    def _wrap(self, fn, layer: str):
        stacks, spans, ids, main = self._stacks, self.spans, self._ids, self._main
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack and tid != main else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, layer, parent, start, end, tid, _info(layer, args, result)))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attr, layer in WRAPPED:
            module = self._modules[mod_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def _info(layer: str, args: tuple, result):
    """Exact work attached to a span: (terms, sites) of a Chebyshev
    application, or the worker count handed to the ensemble."""
    if layer == "kernels.chebyshev_apply":
        return (int(args[5].shape[0]), int(args[6].shape[0]))
    if layer == "ensembles.worker_count":
        return int(result)
    return None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times of one traced call (``trace.overhead_s`` excluded).

    A layer's time sums its outermost spans (a span nested in a span of the
    same layer adds nothing), across threads. A self time is a span's length
    minus the part of it that its child spans cover."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)

    def outermost(s) -> bool:
        parent = by_id.get(s[2])
        while parent is not None:
            if parent[1] == s[1]:
                return False
            parent = by_id.get(parent[2])
        return True

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s[1]] = calls.get(s[1], 0) + 1
        if outermost(s):
            busy[s[1]] = busy.get(s[1], 0.0) + (s[4] - s[3])
            kids = [(max(c[3], s[3]), min(c[4], s[4])) for c in children.get(s[0], [])]
            self_s[s[1]] = self_s.get(s[1], 0.0) + (s[4] - s[3]) - _union_length(kids)
    cheb = [s[6] for s in spans if s[1] == "kernels.chebyshev_apply"]
    workers = [s[6] for s in spans if s[1] == "ensembles.worker_count"]
    matvecs = sum(terms - 1 for terms, _ in cheb)
    return {
        "config.resolve_s": busy.get("config.resolve", 0.0),
        "lattice.build_calls": calls.get("lattice.build", 0),
        "lattice.build_s": busy.get("lattice.build", 0.0),
        "ensembles.sample_calls": calls.get("ensembles.sample", 0),
        "ensembles.sample_s": busy.get("ensembles.sample", 0.0),
        "ensembles.self_s": self_s.get("ensembles.run", 0.0),
        "ensembles.workers": max(workers, default=0),
        "propagators.decompose_calls": calls.get("propagators.decompose", 0),
        "propagators.decompose_s": busy.get("propagators.decompose", 0.0),
        "propagators.evolve_eigen_calls": calls.get("propagators.evolve_eigen", 0),
        "propagators.evolve_eigen_s": busy.get("propagators.evolve_eigen", 0.0),
        "propagators.evolve_chebyshev_s": busy.get("propagators.evolve_chebyshev", 0.0),
        "propagators.chebyshev_terms": sum(terms for terms, _ in cheb),
        "kernels.chebyshev_apply_s": busy.get("kernels.chebyshev_apply", 0.0),
        "kernels.matvecs": matvecs,
        "kernels.bytes_moved": sum((t - 1) * n * BYTES_PER_SITE_PER_MATVEC for t, n in cheb),
        "kernels.bessel_s": busy.get("kernels.bessel", 0.0),
        "observables.calls": calls.get("observables.trace", 0),
        "observables.trace_s": busy.get("observables.trace", 0.0),
        "cli.write_s": busy.get("cli.write", 0.0),
        "cli.self_s": self_s.get("cli.run", 0.0),
    }
