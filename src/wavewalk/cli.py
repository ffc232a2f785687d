"""Experiment runner CLI.

Subcommands:
  simulate <config.json>   run an experiment, write CSV/JSON/PGM artifacts
  validate <config.json>   resolve and print the config (defaults filled)
  oracle bessel|images|ctrw ...   dump a closed-form reference to stdout

Exit codes: 0 success, 2 config error, 3 numerical failure. All floats are
serialized with 17 significant digits, so identical configs and seeds give
byte-identical files on any machine with the same floating-point behavior.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .config import ConfigError, ExperimentConfig, validate_config
from .ensembles import ROW_SUM_TOL, DephasingSpec, DisorderSpec, evolve_dephasing, run_ensemble
from .errors import NumericalFailure
from .lattice import SingleSite, build_hamiltonian, make_initial_state
from .observables import participation_ratio, spread_variance
from .oracles import bessel_free_state, classical_ctrw_distribution, image_boundary_state
from .propagators import _times_real, decompose, evolve_chebyshev, evolve_eigen


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_matrix_csv(path: Path, first_header: str, first_col, rows: np.ndarray,
                      comment: str | None = None) -> None:
    n = rows.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(first_header + "," + ",".join(f"site_{j}" for j in range(n)) + "\n")
        for label, row in zip(first_col, rows):
            # only the span between the first and last nonzero entry is formatted;
            # the zeros around it are written as the "0" that _fmt gives them
            # (signbit keeps -0.0 in the span, so it still prints as -0)
            nonzero = np.flatnonzero((row != 0.0) | np.signbit(row))
            if nonzero.size == 0:
                body = "0" + ",0" * (n - 1)
            else:
                lo, hi = nonzero[0], nonzero[-1] + 1
                span = ",".join(map("{:.17g}".format, row[lo:hi].tolist()))
                body = "0," * lo + span + ",0" * (n - hi)
            fh.write(_fmt(label) + "," + body + "\n")


def _write_observables_csv(path: Path, zvals, var, pr, norm_err) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z,variance,participation_ratio,norm_error\n")
        for z, v, p, e in zip(zvals, var, pr, norm_err):
            fh.write(",".join((_fmt(z), _fmt(v), _fmt(p), _fmt(e))) + "\n")


def _write_pgm(path: Path, rows: np.ndarray) -> None:
    """8-bit ASCII PGM heatmap, per-file max normalization (linear scale;
    take logs offline if a log view is wanted)."""
    peak = float(np.max(rows))
    scaled = np.zeros_like(rows) if peak <= 0.0 else rows / peak
    pixels = np.clip(np.rint(scaled * 255.0), 0, 255).astype(int)
    h, w = pixels.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("P2\n")
        fh.write(f"# intensity scale: linear, max={_fmt(peak)}\n")
        fh.write(f"{w} {h}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")


def run_experiment(cfg: ExperimentConfig, output_dir: str | None = None) -> Path:
    """Execute the configured experiment and write its artifact files."""
    out = Path(output_dir if output_dir is not None else cfg.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    formats = cfg.output["formats"]
    lattice = cfg.lattice_spec()
    zgrid = cfg.zgrid_obj()
    zvals = zgrid.values
    carpet = None
    stats = None

    if cfg.experiment == "ballistic":
        h = build_hamiltonian(lattice)
        psi0 = make_initial_state(cfg.initial(), lattice.n_sites)
        # keep no reference to the complex states, or they stay alive through the writers
        if cfg.propagator["method"] == "chebyshev":
            intensities = evolve_chebyshev(h, psi0, zgrid, tol=cfg.propagator["tol"]).intensities()
        else:
            intensities = evolve_eigen(h, psi0, zgrid).intensities()
    elif cfg.experiment == "disorder":
        stats = run_ensemble(
            lattice, DisorderSpec(**cfg.disorder), cfg.initial(), zgrid,
            cfg.n_realizations, cfg.master_seed,
        )
        intensities = stats.mean_intensity
    elif cfg.experiment == "dephasing":
        stats = evolve_dephasing(
            lattice, DephasingSpec(**cfg.dephasing), cfg.initial(), zgrid,
            cfg.n_realizations, cfg.master_seed,
        )
        intensities = stats.mean_intensity
    elif cfg.experiment == "classical":
        j0 = cfg.initial_state["site"]
        gamma = cfg.classical["gamma"]
        intensities = np.empty((zvals.size, lattice.n_sites))
        for i, z in enumerate(zvals):
            intensities[i] = classical_ctrw_distribution(j0, gamma, z, lattice.n_sites).probs
    elif cfg.experiment == "boundary_sweep":
        # one eigendecomposition serves the carpet and the z-resolved rows;
        # carpet: the swept rows of the evolution operator at the final z,
        # U[lo:hi+1] = V[lo:hi+1] exp(-i Lambda z) V^T (U is symmetric)
        h = build_hamiltonian(lattice)
        dec = decompose(h)
        v = dec.eigenvectors
        lo, hi = cfg.sweep["input_min"], cfg.sweep["input_max"]
        amps = _times_real(v[lo : hi + 1] * np.exp(-1j * dec.eigenvalues * zvals[-1]), v.T)
        carpet = amps.real ** 2 + amps.imag ** 2
        # the z-resolved files track the input closest to the wall
        psi0 = make_initial_state(SingleSite(lo), lattice.n_sites)
        intensities = evolve_eigen(h, psi0, zgrid, decomp=dec).intensities()
    else:  # pragma: no cover - load_config guards the enum
        raise ConfigError(f"experiment: unknown experiment {cfg.experiment!r}")

    if stats is not None:
        # ensemble traces are means of per-realization observables, not
        # observables of the mean profile
        var, pr = stats.variance_trace, stats.pr_trace
    else:
        var, pr = spread_variance(intensities), participation_ratio(intensities)
    nerr = np.abs(np.sum(intensities, axis=1) - 1.0)

    if "csv" in formats:
        _write_matrix_csv(
            out / "intensity.csv", "z", zvals, intensities,
            comment=f"row probability sum tolerance: {ROW_SUM_TOL:g}",
        )
        _write_observables_csv(out / "observables.csv", zvals, var, pr, nerr)
        if carpet is not None:
            lo, hi = cfg.sweep["input_min"], cfg.sweep["input_max"]
            _write_matrix_csv(
                out / "carpet.csv", "input_site",
                np.arange(lo, hi + 1, dtype=float), carpet,
                comment=f"output intensity at z={_fmt(zvals[-1])} per input site",
            )
    if "pgm" in formats and carpet is not None:
        _write_pgm(out / "carpet.pgm", carpet)
    if "json" in formats:
        doc = cfg.to_dict()
        doc["version"] = __version__
        doc["backend"] = kernels.backend()
        with open(out / "run.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    tau = lattice.mean_coupling * zvals[-1]
    print(
        f"{cfg.experiment}: n_sites={lattice.n_sites} z_max={_fmt(zvals[-1])} "
        f"tau_max={_fmt(tau)} backend={kernels.backend()} -> {out}"
    )
    return out


def _cmd_simulate(args) -> int:
    cfg = validate_config(args.config)
    run_experiment(cfg, output_dir=args.output_dir)
    return 0


def _cmd_validate(args) -> int:
    cfg = validate_config(args.config)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    n = args.n_sites
    if args.which == "bessel":
        psi = bessel_free_state(args.j0, args.c, args.z, n).amps
    elif args.which == "images":
        psi = image_boundary_state(args.j0, args.c, args.z, n).amps
    else:
        probs = classical_ctrw_distribution(args.j0, args.gamma, args.t, n).probs
        print("site,probability")
        for j, p in enumerate(probs):
            print(f"{j},{_fmt(p)}")
        return 0
    print("site,re,im,intensity")
    for j, a in enumerate(psi):
        print(f"{j},{_fmt(a.real)},{_fmt(a.imag)},{_fmt(abs(a) ** 2)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavewalk",
        description="Quantum walks on 1-d waveguide lattices: ballistic spreading, "
        "Anderson localization, dephasing, and boundary reflection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment from a JSON config")
    p_sim.add_argument("config", help="path to the config file")
    p_sim.add_argument("--output-dir", default=None, help="override output.directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", help="check a config and print it resolved")
    p_val.add_argument("config", help="path to the config file")
    p_val.set_defaults(func=_cmd_validate)

    p_or = sub.add_parser("oracle", help="print a closed-form reference solution")
    or_sub = p_or.add_subparsers(dest="which", required=True)
    p_bessel = or_sub.add_parser("bessel", help="free-lattice single-site state")
    p_images = or_sub.add_parser("images", help="hard-wall state via mirror source")
    for p in (p_bessel, p_images):
        p.add_argument("--j0", type=int, required=True, help="input site")
        p.add_argument("--c", type=float, default=1.0, help="coupling")
        p.add_argument("--z", type=float, required=True, help="propagation distance")
        p.add_argument("--n-sites", type=int, required=True, help="window size")
        p.set_defaults(func=_cmd_oracle)
    p_ctrw = or_sub.add_parser("ctrw", help="classical continuous-time random walk")
    p_ctrw.add_argument("--j0", type=int, required=True, help="start site")
    p_ctrw.add_argument("--gamma", type=float, default=1.0, help="hop rate")
    p_ctrw.add_argument("--t", type=float, required=True, help="time")
    p_ctrw.add_argument("--n-sites", type=int, required=True, help="window size")
    p_ctrw.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
