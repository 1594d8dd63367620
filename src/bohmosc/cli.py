"""Command-line interface.

Subcommands wire the library together and emit reproducible data files:

    ermakov      scale-function table for a frequency profile
    bohm         Bohm/classical potential, amplitude, phase surface
    wavefunction psi samples (real, imaginary, probability density)
    verify       finite-difference residual report (JSON) per refinement level
    tdse-check   split-step propagation fidelity against the construction
    fig1         subcritical (b=1) Bohm-potential surface
    fig2         critical (b=2) Bohm-potential surface
    transition   subcritical-vs-critical values near the b=2 boundary

CSV output uses a header row, comma separators, and floats printed with 17
significant digits so doubles round-trip exactly; rerunning a subcommand
with the same flags reproduces byte-identical files.  A table is written
one block of rows at a time, each block formatted on its own as it was
given, so the writer keeps nothing from one block to the next.  Each cell
is the text of "%.17g" % value, made for whole chunks of cells by the
numpy kernel of bohmosc.floatfmt: exact by construction, it leaves to
"%.17g" only NaN, the infinities and values within 1e-9 of a rounding
tie.  Flag errors, argparse's included, print one line and exit 2.  Each
subcommand writes one --out file (verify prints its report when --out is
not given).  --manifest names a JSON record of that file's SHA-256, hashed
in chunks, and byte count and of the flags; main writes it after the
subcommand returns, at exit 0 or 3, and if that write fails, exits 2
without the --out file.  Every file a run writes, a CSV table, verify's
report or the manifest, follows one rule: a run that fails removes the
file it was writing, and only if that is a regular file, so a path such as
/dev/null or a link to it stays.  --manifest without --out or naming the
--out file itself, and an --out or --manifest path that names a directory
or lies in one that does not exist, are refused before any work.
verify's level l has (nx - 1) * 2^l + 1 grid points and time step
dt / 2^l.  Each subcommand's work and memory are bounded before any work,
with one line and exit 2 past the bound; peaks and times are those of a
2-core Xeon.  verify takes at most 2^22 + 1 points at its finest level
(820 MB) and 2^24 probe points, --nt times the points of every level
(7 s from the default --nx, 8-10 s from --nx 16); ermakov at most 2^21
samples and bohm and wavefunction 2^21 cells (under 70 MB and 8 s on a
numeric profile, since each block of rows is computed only when the CSV
writer reaches it); tdse-check at most 2^22 cells of --samples by --n
(440 MB) and 2^29 / max(n, 512) steps, about 15 s at n <= 4096 and
about a minute at n = 2^21.
Exit codes: 0 on success, 2 for flag or domain errors, 3 for
verification-threshold failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .frequency import FrequencyProfile, Regime, classify_rational
from .ermakov import ABS_TOL, REL_TOL, ermakov_residual
# Not called here: the benchmark's tracer wraps cli.solve_numeric by name.
from .ermakov import solve_numeric  # noqa: F401
from .madelung import (
    SpatialGrid,
    amplitude_gaussian,
    bohm_potential_critical,
    bohm_potential_gaussian,
    bohm_potential_subcritical,
    classical_potential,
    numeric_construction,
    rational_construction,
    wavefunction,
)
from .verify import build_residual_report
from .tdse import PropagatorConfig, fidelity, propagate

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_THRESHOLD = 3

_log = logging.getLogger(__name__)

# Cells formatted per block of rows, and bytes hashed per read.
_BLOCK_CELLS = 2**14
_HASH_CHUNK = 2**20

# verify's memory: points of its finest level, whose probes' (3, n_x)
# stacks set the peak, about 200 bytes a point (820 MB at the cap).
_MAX_LEVEL_POINTS = 2**22 + 1
# verify's work: probe times times the points summed over all levels,
# 7 s at the cap from the default --nx, 8-10 s from --nx 16.
_MAX_PROBE_POINTS = 2**24
# Samples of an ermakov table and cells of a bohm or wavefunction sweep.
# Their fields are computed one block of rows at a time, so a run holds
# its times, 8 bytes each, and one block: at the cap 36-37 MB for 2048
# times by 1024 positions and 56-63 MB for 2^21 times (ermakov, or
# --nx 1), a numeric profile's included; up to 8 s at the cap.
_MAX_TABLE_POINTS = 2**21
# Cells of tdse-check's (samples, n) stacks: 16 bytes each in the
# propagated and the reference stack, about 100 in all (440 MB at the cap).
_MAX_TDSE_CELLS = 2**22

_TRANSITION_DEFAULT_BS = [2.0 - 10.0**-k for k in range(2, 7)]

# Start and tolerances of a numeric solve, set by the flags of ermakov,
# the one subcommand that has them.  The closed-form family path does not
# use them: there, other values are refused.
_NUMERIC_DEFAULTS = {"rho0": 1.0, "rho_dot0": None, "rel_tol": REL_TOL, "abs_tol": ABS_TOL}


def _discard(path: str) -> None:
    """Remove path if it is a regular file: a device, a FIFO or a link to
    one (such as /dev/null) is left where it is."""
    if os.path.isfile(path):
        os.remove(path)


@contextlib.contextmanager
def _output(path: str, mode: str):
    """Open path for writing in mode, the one way a run writes a file: if
    anything raises before the file is closed, its close included, the
    file is discarded and the error re-raised."""
    handle = open(path, mode)
    try:
        with handle:
            yield handle
    except BaseException:
        _discard(path)
        raise


def _write_csv(path: str, header, blocks) -> None:
    """Write the header row, then each block of rows by _write_block, after
    the rows of the blocks before it.

    blocks may be a generator, so that a sweep computes the fields of a
    block when the writer reaches it and holds one block, never the whole
    table.  Each block is written as it is when it is yielded: nothing is
    kept from one block to the next but the counts of the DEBUG record.
    The first block is computed before the file is opened, through
    _output, so an error in a later block's fields removes the file.  One
    DEBUG record gives the rows, the bytes, the values "%.17g" printed and
    the seconds.
    """
    began = time.perf_counter()
    blocks = iter(blocks)
    # The first block is computed before the file is opened, so that an
    # error in it leaves a file at path as it was.  Each block is dropped
    # before the next is computed: pending holds at most one.
    pending = list(itertools.islice(blocks, 1))
    with _output(path, "wb") as handle:
        # rows, bytes and "%.17g" fallbacks
        counts = [0, handle.write((",".join(header) + "\n").encode()), 0]
        while pending:
            counts = [sum(pair) for pair in
                      zip(counts, _write_block(handle, pending.pop()))]
            pending.extend(itertools.islice(blocks, 1))
    _log.debug("write_csv: %d rows, %d bytes, %d values by the %%.17g fallback, "
               "%.3f s", *counts, time.perf_counter() - began)


def _write_block(handle, block) -> tuple[int, int, int]:
    """Write one block of rows, a list of columns broadcast to one shape and
    written as rows in C order; return its rows, its bytes and the values
    that "%.17g" printed.

    Every value is printed as "%.17g" prints it, by floatfmt.format_into,
    one numpy pass per column of a chunk of rows.  It scales each value by
    a double-double 2^E·10^(16-X) with Dekker's exact product, so the
    rounded 17-digit integer is known to better than 1e-14 of a unit; only
    values whose rounding remainder is within 1e-9 of 1/2, NaN and the
    infinities fall back to "%.17g" itself, so every cell is exact by
    construction.  A value that the broadcast repeats is formatted once.
    Repeats show as zero strides: a column constant along the trailing
    axis (the (n_t, 1) time column of a sweep) is formatted once per
    leading index, and one constant along the leading axis (the (1, n_x)
    position row) once per block; rows then gather their text.  The rows
    go out in equal chunks of at most _BLOCK_CELLS cells, one write each,
    so the text of the whole table is never held in memory at once.
    """
    # imported on the first write, so that importing the CLI does not load it
    from .floatfmt import CELL_WORDS, format_into

    columns = [np.atleast_2d(column) for column in np.broadcast_arrays(*block)]
    n_rows, width = columns[0].shape
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    fallbacks = written = 0
    # per column: ("slice" | "row", formatted canvas) or ("cell", values)
    sources = []
    for column, sep in zip(columns, seps):
        if width > 1 and column.strides[1] == 0:
            kind, values = "slice", column[:, 0]
        elif n_rows > 1 and column.strides[0] == 0:
            kind, values = "row", column[0]
        else:
            sources.append(("cell", column.reshape(-1)))
            continue
        formatted = np.empty((values.size, CELL_WORDS), np.uint64)
        fallbacks += format_into(formatted, values, sep)
        sources.append((kind, formatted))
    # The lines go out in equal chunks of at most _BLOCK_CELLS cells, not
    # in full ones and a short remainder: every chunk costs each column a
    # format_into call of fixed cost.
    lines = n_rows * width
    pieces = max(1, -(-lines * len(columns) // _BLOCK_CELLS))
    size = max(1, -(-lines // pieces))
    # The canvas lies over a bytearray, which deletes its NUL padding
    # without a copy: 32 bytes a cell for at most 25 of text, so the
    # translate pass scans about 1.6 bytes for each byte it writes.  Every
    # chunk reuses it; the few rows past the last chunk are zeroed, so they
    # print nothing.
    buffer = bytearray(8 * CELL_WORDS * len(columns) * size)
    canvas = np.frombuffer(buffer, np.uint64).reshape(size, len(columns), CELL_WORDS)
    for start in range(0, lines, size):
        stop = min(start + size, lines)
        chunk = canvas[:stop - start]
        canvas[stop - start:] = 0
        at = np.arange(start, stop)
        for j, (kind, source) in enumerate(sources):
            if kind == "slice":
                chunk[:, j] = np.take(source, at // width, axis=0)
            elif kind == "row":
                chunk[:, j] = np.take(source, at % width, axis=0)
            else:
                fallbacks += format_into(chunk[:, j], source[start:stop], seps[j])
        written += handle.write(buffer.translate(None, b"\0"))
    return lines, written, fallbacks


def _time_blocks(times, step: int, columns_at):
    """Blocks of rows for _write_csv: columns_at of each slice of step
    times.  Every column is evaluated pointwise, so a slice gives the
    values that the whole times array gives."""
    return (columns_at(times[start:start + step])
            for start in range(0, len(times), step))


def _sweep_blocks(t, x, fields_at):
    """Blocks of rows of a surface over the (n_t, 1) time column t and the
    (1, n_x) position row x: t, x and fields_at(x, t) on slices of t.
    The grid's cells over _BLOCK_CELLS, rounded, give the number of
    slices, at least one, of n_t // slices times each and a last one of
    the rest: a grid under 1.5 _BLOCK_CELLS cells is one block."""
    slices = max(1, round(t.size * x.size / _BLOCK_CELLS))
    return _time_blocks(t, max(1, t.size // slices),
                        lambda t: [t, x, *fields_at(x, t)])


def _count(value: int, flag: str, minimum: int = 1) -> int:
    if value < minimum:
        raise ValueError(f"{flag} needs at least {minimum}, got {value}")
    return value


def _write_manifest(args) -> None:
    """Write the --manifest record of a run's --out file and its flags.
    The file is hashed in chunks of _HASH_CHUNK bytes, never read whole."""
    parameters = {key: value for key, value in sorted(vars(args).items())
                  if key not in ("command", "func", "manifest")}
    digest, size = hashlib.sha256(), 0
    with open(args.out, "rb") as handle:
        for chunk in iter(functools.partial(handle.read, _HASH_CHUNK), b""):
            digest.update(chunk)
            size += len(chunk)
    manifest = {
        "tool": "bohmosc",
        "version": __version__,
        "subcommand": args.command,
        "parameters": parameters,
        "outputs": [{"path": args.out, "sha256": digest.hexdigest(), "bytes": size}],
    }
    with _output(args.manifest, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_table(path: str) -> FrequencyProfile:
    """The profile of an --omega-table file: rows of t, omega."""
    with open(path) as handle:
        rows = [line for line in handle if line.partition("#")[0].strip()]
    if not rows:
        raise ValueError(f"--omega-table {path} holds no samples")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    if table.shape[1] != 2:
        raise ValueError("--omega-table needs two columns: t, omega")
    return FrequencyProfile.from_table(table[:, 0], table[:, 1])


def _construction_from_args(args, t_max: float):
    """The Construction that a subcommand's profile flags name, solved on
    [0, t_max] where it is numeric.

    The flags are read in one order: --omega-table, which is the whole
    profile and so refused beside --a, --b or --critical; --a with --b;
    then the rational family's --b or --critical, in closed form unless
    --numeric is given.  A numeric solve takes the start and tolerances of
    _NUMERIC_DEFAULTS from the flags the subcommand has; rho'(0) defaults
    to 0, and on the family to the closed form's.
    """
    flags = vars(args)
    numeric = {key: flags.get(key, default) for key, default in _NUMERIC_DEFAULTS.items()}
    rho_dot0 = 0.0
    if flags.get("omega_table"):
        for key in ("a", "b", "critical"):
            value = flags.get(key)
            if value is not None and value is not False:
                raise ValueError(f"--omega-table and --{key} are mutually exclusive")
        profile = _read_table(args.omega_table)
    elif flags.get("a") is not None:
        if args.b is None:
            raise ValueError("--a requires --b (use --b 0 for a constant frequency)")
        profile = FrequencyProfile.rational(args.a, args.b)
    else:
        if flags.get("critical"):
            if args.b is not None:
                raise ValueError("--critical and --b are mutually exclusive")
            b = 2.0
        elif args.b is None:
            # the profile flags this subcommand defines
            offered = [text for key, text in (
                ("b", "--b"), ("a", "--a with --b"), ("critical", "--critical"),
                ("omega_table", "--omega-table")) if key in flags]
            raise ValueError(f"give {', '.join(offered[:-1])} or {offered[-1]}")
        else:
            b = args.b
        if not flags.get("numeric"):
            for key, default in _NUMERIC_DEFAULTS.items():
                if numeric[key] != default:
                    raise ValueError(f"--{key.replace('_', '-')} needs --numeric")
            return rational_construction(b)
        closed = rational_construction(b)
        profile, rho_dot0 = closed.profile, float(closed.solution.rho_dot(0.0))
    if numeric["rho_dot0"] is None:
        numeric["rho_dot0"] = rho_dot0
    return numeric_construction(profile, (0.0, t_max), **numeric)


# ----------------------------------------------------------------- ermakov

def _cmd_ermakov(args) -> None:
    if _count(args.samples, "--samples") > _MAX_TABLE_POINTS:
        raise ValueError(f"--samples {args.samples} is more than the cap of "
                         f"{_MAX_TABLE_POINTS}")
    times = np.linspace(0.0, args.t_max, args.samples)
    construction = _construction_from_args(args, args.t_max)
    solution = construction.solution

    def columns_at(t):
        return [t, solution.rho(t), solution.rho_dot(t), construction.nu(t),
                construction.nu_dot(t), construction.nu_ddot(t),
                ermakov_residual(solution, construction.profile, t)]

    # Blocks of _BLOCK_CELLS times made a numeric table of 2^21 samples
    # slower than the whole table at once (5.7-7.4 s against 5.3-5.5 s on
    # 2 cores, with ten times the page faults: each block's dense-output
    # transients were mapped afresh); blocks of four times that were not.
    _write_csv(args.out, ["t", "rho", "rho_dot", "nu", "nu_dot",
                          "nu_ddot", "residual"],
               _time_blocks(times, 4 * _BLOCK_CELLS, columns_at))


# -------------------------------------------------------------------- bohm

def _field_sweep(args):
    """Construction, (n_t, 1) time column and (1, n_x) position row of a
    bohm/wavefunction sweep."""
    n_t, n_x = _count(args.nt, "--nt"), _count(args.nx, "--nx")
    if n_t * n_x > _MAX_TABLE_POINTS:
        raise ValueError(f"--nt {n_t} by --nx {n_x} gives more than "
                         f"{_MAX_TABLE_POINTS} cells")
    construction = _construction_from_args(args, args.t_max)
    t = np.linspace(0.0, args.t_max, n_t)[:, None]
    x = np.linspace(args.x_min, args.x_max, n_x)[None, :]
    return construction, t, x


def _cmd_bohm(args) -> None:
    construction, t, x = _field_sweep(args)
    _write_csv(args.out, ["t", "x", "V_B", "V", "A", "S"], _sweep_blocks(
        t, x, lambda x, t: [bohm_potential_gaussian(x, t, construction),
                            classical_potential(construction.profile, x, t),
                            amplitude_gaussian(x, t, construction),
                            construction.S(x, t)]))


def _cmd_wavefunction(args) -> None:
    construction, t, x = _field_sweep(args)

    def fields_at(x, t):
        psi = wavefunction(x, t, construction)
        return [psi.real, psi.imag, np.abs(psi) ** 2]

    _write_csv(args.out, ["t", "x", "re_psi", "im_psi", "abs2_psi"],
               _sweep_blocks(t, x, fields_at))


# ------------------------------------------------------------------ verify

def _cmd_verify(args) -> str | None:
    _count(args.refine, "--refine")
    intervals = _count(args.nx, "--nx", 2) - 1
    # 2**64 intervals would be past any cap
    if intervals * 2**min(args.refine - 1, 64) + 1 > _MAX_LEVEL_POINTS:
        raise ValueError(f"--refine {args.refine} from --nx {args.nx} gives the "
                         f"finest level more than {_MAX_LEVEL_POINTS} points")
    n_probes = _count(args.nt, "--nt")
    # every probe samples every level, of (nx - 1) * 2^l + 1 points
    if n_probes * (intervals * (2**args.refine - 1) + args.refine) > _MAX_PROBE_POINTS:
        raise ValueError(f"--nt {args.nt} on --refine {args.refine} from --nx "
                         f"{args.nx} gives more than {_MAX_PROBE_POINTS} probe points")
    construction = _construction_from_args(args, args.t_max)
    if not args.x_max > args.x_min:
        raise ValueError(f"need --x-max > --x-min, got [{args.x_min}, {args.x_max}]")
    probes = np.linspace(args.t_max / n_probes, args.t_max, n_probes)

    def level_report(level: int) -> dict:
        # Each level halves h and dt, so the grids nest.
        grid = SpatialGrid(args.x_min, args.x_max, intervals * 2**level + 1)
        return build_residual_report(construction, grid, probes, args.dt / 2**level,
                                     space_order=args.order).to_dict()

    levels = [level_report(level) for level in range(args.refine)]
    orders = {}
    for key in ("se_residual_max", "continuity_residual_max", "qhje_residual_max"):
        pairs = zip(levels, levels[1:])
        orders[key] = [
            float(np.log2(lo[key] / hi[key])) if hi[key] > 0 and lo[key] > 0 else None
            for lo, hi in pairs
        ]
    # the helper has refused every flag set but --critical (b is None) or --b
    critical = args.b is None or classify_rational(args.b) is Regime.CRITICAL
    document = {
        "branch": "critical" if critical else f"subcritical b={args.b}",
        "t_probes": list(map(float, probes)),
        "space_order": args.order,
        "levels": levels,
        "observed_orders": orders,
    }
    blob = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        with _output(args.out, "w") as handle:
            handle.write(blob)
    else:
        sys.stdout.write(blob)

    if args.threshold is not None:
        finest = levels[-1]
        worst = max(finest["se_residual_max"], finest["continuity_residual_max"],
                    finest["qhje_residual_max"])
        if worst > args.threshold:
            return (f"verification failed: max residual {worst:.3e} > "
                    f"threshold {args.threshold:.3e}")
    return None


# -------------------------------------------------------------- tdse-check

def _auto_half_width(construction, t_max: float) -> float:
    # Keep the Gaussian truncation below ~1e-12: tails need |x| > 5.1 rho.
    rho_end = float(construction.solution.rho(t_max))
    return max(8.0, float(np.ceil(5.5 * rho_end)))


def _cmd_tdse_check(args) -> str | None:
    _count(args.samples, "--samples", 2)
    if args.samples * args.n > _MAX_TDSE_CELLS:
        raise ValueError(f"--samples {args.samples} at --n {args.n} give more than "
                         f"{_MAX_TDSE_CELLS} cells")
    construction = _construction_from_args(args, args.t_max)
    if args.x_max is None:
        half_width = _auto_half_width(construction, args.t_max)
    else:
        half_width = args.x_max
    grid = SpatialGrid(-half_width, half_width, args.n)
    config = PropagatorConfig(grid=grid, dt=args.dt, profile=construction.profile)

    times = np.linspace(0.0, args.t_max, args.samples)
    psi0 = construction.psi(grid, 0.0)
    propagated = propagate(psi0, config, args.t_max, sample_times=times[1:])
    reference = construction.psi(grid, times[1:])
    fidelities = fidelity(reference, propagated)
    norms = np.concatenate([psi0.norms(), propagated.norms()])

    _write_csv(args.out, ["t", "fidelity", "norm_error"],
               [[times, np.concatenate([[1.0], fidelities]), np.abs(norms - 1.0)]])

    if args.min_fidelity is not None:
        worst = float(np.min(fidelities))
        if worst < args.min_fidelity:
            return f"tdse check failed: fidelity {worst:.12f} < {args.min_fidelity}"
    return None


# ----------------------------------------------------------------- figures

def _figure_surface(args, values_at) -> None:
    t = np.linspace(0.0, 6.0, 121)[:, None]
    x = np.linspace(-5.0, 5.0, 201)[None, :]
    _write_csv(args.out, ["t", "x", "V_B"],
               _sweep_blocks(t, x, lambda x, t: [values_at(x, t)]))


def _cmd_fig1(args) -> None:
    _figure_surface(args, lambda x, t: bohm_potential_subcritical(1.0, x, t))


def _cmd_fig2(args) -> None:
    _figure_surface(args, bohm_potential_critical)


# -------------------------------------------------------------- transition

def _cmd_transition(args) -> None:
    if args.t_probe <= 0:
        raise ValueError("the two branches only separate for t > 0; "
                         "pick a positive --t-probe")
    if args.b_values:
        bs = [float(v) for v in args.b_values.split(",")]
    else:
        bs = _TRANSITION_DEFAULT_BS
    for b in bs:
        if classify_rational(b) is not Regime.SUBCRITICAL:
            raise ValueError(f"transition scan needs subcritical b values, got {b}")

    values = [float(bohm_potential_subcritical(b, args.x_probe, args.t_probe))
              for b in bs]
    values.append(float(bohm_potential_critical(args.x_probe, args.t_probe)))
    _write_csv(args.out, ["b", "V_B"], [[bs + [2.0], values]])


# ------------------------------------------------------------------ parser

def _add_common(parser, out_required=True):
    parser.add_argument("--out", required=out_required,
                        help="output file path")
    parser.add_argument("--manifest",
                        help="write a JSON record of the flags and of the "
                             "--out file's SHA-256")


def _add_branch(parser):
    parser.add_argument("--b", type=float, help="rational-family slope")
    parser.add_argument("--critical", action="store_true",
                        help="use the critical branch b=2")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one line, the program and the
    message, not the usage text; its subparsers are of the same class."""

    def error(self, message):
        self.exit(EXIT_DOMAIN, f"{self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    fills a new Namespace each call and leaves the parser as it was."""
    parser = _Parser(
        prog="bohmosc",
        description="Madelung-Bohm construction for time-dependent "
                    "harmonic oscillators, with verification oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ermakov", help="tabulate the Ermakov scale function")
    p.add_argument("--b", type=float, help="rational-family slope")
    p.add_argument("--a", type=float,
                   help="rational-family offset (forces the numeric path)")
    p.add_argument("--omega-table", help="CSV with t,omega samples")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--numeric", action="store_true",
                   help="force the ODE integrator over the closed form")
    for key, default in _NUMERIC_DEFAULTS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=float, default=default)
    _add_common(p)
    p.set_defaults(func=_cmd_ermakov)

    for name, help_text, func in (("bohm", "Bohm-potential surface data", _cmd_bohm),
                                  ("wavefunction", "wavefunction surface data",
                                   _cmd_wavefunction)):
        p = sub.add_parser(name, help=help_text)
        _add_branch(p)
        p.add_argument("--omega-table", help="CSV with t,omega samples")
        p.add_argument("--x-min", type=float, default=-8.0)
        p.add_argument("--x-max", type=float, default=8.0)
        p.add_argument("--nx", type=int, default=201)
        p.add_argument("--t-max", type=float, default=6.0)
        p.add_argument("--nt", type=int, default=121)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="finite-difference residual report")
    _add_branch(p)
    p.add_argument("--x-min", type=float, default=-8.0)
    p.add_argument("--x-max", type=float, default=8.0)
    p.add_argument("--t-max", type=float, default=2.0,
                   help="largest probe time")
    p.add_argument("--nt", type=int, default=1, help="number of probe times")
    p.add_argument("--nx", type=int, default=513,
                   help="grid points at the coarsest level")
    p.add_argument("--dt", type=float, default=1e-3,
                   help="time step at the coarsest level")
    p.add_argument("--refine", type=int, default=1,
                   help="number of refinement levels (halving h and dt)")
    p.add_argument("--order", type=int, choices=(2, 4), default=2,
                   help="spatial stencil order")
    p.add_argument("--threshold", type=float,
                   help="exit 3 if the finest-level max residual exceeds this")
    _add_common(p, out_required=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tdse-check", help="split-step fidelity check")
    _add_branch(p)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--n", type=int, default=512, help="grid points (power of two)")
    p.add_argument("--x-max", type=float,
                   help="half-width of the domain (default: auto-sized)")
    p.add_argument("--samples", type=int, default=11,
                   help="number of fidelity samples including t=0")
    p.add_argument("--min-fidelity", type=float,
                   help="exit 3 if any sampled fidelity falls below this")
    _add_common(p)
    p.set_defaults(func=_cmd_tdse_check)

    p = sub.add_parser("fig1", help="subcritical (b=1) Bohm-potential surface")
    _add_common(p)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="critical (b=2) Bohm-potential surface")
    _add_common(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("transition", help="Bohm potential across the b=2 boundary")
    p.add_argument("--t-probe", type=float, default=1.0)
    p.add_argument("--x-probe", type=float, default=0.0)
    p.add_argument("--b-values",
                   help="comma-separated subcritical slopes "
                        "(default: 2-10^-k for k=2..6)")
    _add_common(p)
    p.set_defaults(func=_cmd_transition)

    return parser


def _check_flags(args) -> None:
    """Refuse, before any work, a non-finite float flag, an --out or
    --manifest path that names a directory or lies in one that does not
    exist, and a --manifest that would be dropped or would overwrite the
    --out file."""
    for key, value in vars(args).items():
        if isinstance(value, float) and not np.isfinite(value):
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag} must be finite, got {value}")
    for key in ("out", "manifest"):
        path = getattr(args, key)
        if path and os.path.isdir(path):
            raise ValueError(f"--{key} {path}: is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"--{key} {path}: no such directory")
    if args.manifest:
        if not args.out:
            raise ValueError("--manifest needs --out")
        if os.path.realpath(args.manifest) == os.path.realpath(args.out):
            raise ValueError("--manifest and --out name the same file")


def main(argv=None) -> int:
    """Run one subcommand.  It writes its --out file and returns None, or
    the message of a failed threshold; main then writes the manifest, and
    discards the --out file if that write fails."""
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        # An overflow or a NaN would otherwise go on into the output as
        # inf/nan cells; underflow is left alone, since Gaussian tails
        # underflow to 0 by design.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            failure = args.func(args)
        if args.manifest:
            try:
                _write_manifest(args)
            except OSError:
                _discard(args.out)
                raise
    except (ValueError, RuntimeError, OSError, FloatingPointError) as error:
        print(f"bohmosc {args.command}: {error}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as error:
        print(f"bohmosc {args.command}: {str(error) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_DOMAIN
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
