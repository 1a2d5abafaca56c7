"""Command-line surface.

One structured JSON record per invocation on stdout; CSV (header
``a,n_k,K,K_over_a``) only for sweeps.  Exact-mode payloads carry only
"p/q" strings and {coeff, radicand} records; float payloads carry
17-significant-digit decimal literals.  Identical flags produce
byte-identical output.

The charge enters here once.  The kernels work at Z = 1, in aZ and Zr,
so a given focal distance a becomes aZ = a float(Z), rounded once, and is
refused if that is not a finite positive float; a is printed as given, and
K/a is K over it.  verify's distances are aZ and its radial points Zr, so
its record at any charge is its Z = 1 record but for the sector's Z.

Exit codes: 0 success, 2 validation (bad flags or quantum numbers), 3 numerical
failure, 4 internal-consistency breach, 141 (128 + SIGPIPE) if stdout closes early.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import coeffs, interbasis, sector, spheroidal, wavefield  # numpy loads where used
from .errors import InternalConsistencyError, Micz9Error, NumericalError, ValidationError

SCHEMA_VERSION = "1"

# points x N^2 eigenvector entries in one sweep's solve: 2^24 is 128 MB of float64.  This
# bounds the solve; the CSV text is bounded apart from it, by _CSV_CHUNK_ROWS.
SWEEP_MAX_ENTRIES = 1 << 24
# (point, branch) rows of sweep CSV text formatted at a time: about 250 KB of text, and
# more than any 200-point sweep up to N = 20 has in all
_CSV_CHUNK_ROWS = 1 << 12
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, the code of a shell command killed by a closed pipe


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_array(x):
    """_fmt of each entry of a float array, in one %-pass: "%.17g" % v is format(v, ".17g")."""
    import numpy as np
    text = "%.17g\n" * x.size % tuple(x.ravel().tolist())
    return np.array(text.splitlines(), dtype=object).reshape(x.shape)


def _fmt_root(square: Fraction) -> str:
    """sqrt(square) like _fmt, but in decimal, so no size overflows or underflows."""
    with decimal.localcontext() as ctx:
        ctx.prec = 17
        root = (decimal.Decimal(square.numerator) / square.denominator).sqrt()
    return format(root, ".17g")


def _sector_record(s: sector.Sector) -> dict:
    return {"n": s.n, "Q": s.Q, "L": s.L, "J": s.J, "Z": str(s.Z)}


_encode_str = json.encoder.encode_basestring_ascii  # json.dumps' default string encoder


def _render(x, pad: str = "") -> str:
    """json.dumps(x, indent=2), byte for byte, for dicts with str keys, lists and scalars.

    With an indent, json.dumps runs its pure-Python encoder; this does the
    same layout in one recursive pass.  pad is the indent x is nested at,
    and a callable value, like _exact_text's, renders itself at its pad.
    """
    if isinstance(x, str):
        return _encode_str(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_encode_str(k) + ": " + _render(v, inner) for k, v in x.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        inner = pad + "  "
        items = [_render(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if callable(x):
        return x(pad)
    raise TypeError(f"a record holds no {type(x).__name__}")


def _emit(command: str, s: sector.Sector, mode: str, payload: dict, fills=()) -> None:
    """Write the record; each NUL that a callable value renders is filled by fills' next chunks."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "sector": _sector_record(s),
        "mode": mode,
        "payload": payload,
    }
    head, *tails = _render(record).split("\0", len(fills))  # no scan of a record with none
    sys.stdout.write(head)
    for chunks, tail in zip(fills, tails):
        sys.stdout.writelines(chunks)
        sys.stdout.write(tail)
    sys.stdout.write("\n")


def _exact_text(rows):
    """An N x N exact matrix, a list of rows of (num, den, radicand), as a renderer for _render.

    At a pad it returns the text of the list of {coeff, radicand} records,
    coeff written like str(Fraction): one template, filled in one %-pass
    from the coeff cells and the radicand cells in alternate slots.
    """
    cells = [None] * (2 * len(rows) ** 2)
    cells[0::2] = [f"{n}/{d}" if d != 1 else n for row in rows for n, d, _ in row]
    cells[1::2] = [f for row in rows for _, _, f in row]

    def render(pad: str) -> str:
        i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
        entry = f'{{\n{i3}"coeff": "%s",\n{i3}"radicand": "%s"\n{i2}}}'
        row = "[\n" + i2 + (",\n" + i2).join([entry] * len(rows)) + "\n" + i1 + "]"
        return ("[\n" + i1 + (",\n" + i1).join([row] * len(rows)) + "\n" + pad + "]") % tuple(cells)

    return render


def _require_finite(**flags) -> None:
    """Reject infinite or NaN focal-distance flags (names given with _ for -)."""
    for name, value in flags.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"--{name.replace('_', '-')} = {value} must be finite")


def _to_aZ(a, s: sector.Sector):
    """a, float or array, as aZ, refused if subnormal; an a not finite and positive passes."""
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    ok = (a > 0) & (a < math.inf)
    with np.errstate(over="ignore"):  # checked just below
        aZ = np.where(ok, a * float(s.Z), a)
    bad = ok & ~((aZ >= sys.float_info.min) & (aZ < math.inf))
    if bad.any():
        raise ValidationError(f"focal distance a = {a[bad].flat[0]} at Z = {sector._short(s.Z)} "
                              f"gives aZ = {aZ[bad].flat[0]}, not a finite normal positive float")
    return aZ


def _parse_sector(args) -> sector.Sector:
    s = sector.validate_sector(args.n, args.Q, args.L, args.J, args.Z)  # Z parsed there
    try:  # float payloads print Z, the energy and alpha, and aZ reads float(Z)
        [num / den for num, den in sector.ratios(s)]  # alpha < Z
    except OverflowError as exc:
        raise ValidationError(
            f"Z = {sector._clip(args.Z)} is too large: Z or the energy overflows a float"
        ) from exc
    return s


def cmd_states(args, s) -> None:
    show = str if args.mode == "exact" else _fmt
    payload = {
        "N": s.size,
        "lambda_range": [show(l) for l in sector.lambda_range(s)],
        "np_range": list(range(s.size)),
        "energy": show(sector.energy(s)),
        "alpha": show(sector.alpha_scale(s)),
        "m9_eigenvalues": [show(Fraction(t, 2)) for t in coeffs.m9_twice_eigenvalues(s)],
    }
    _emit("states", s, args.mode, payload)


def cmd_wmatrix(args, s) -> None:
    W = interbasis.w_matrix(s)
    exact = args.mode == "exact"
    payload = {
        "row_index": "lambda_ascending",
        "col_index": "np_ascending",
        "matrix": _exact_text(W.printed) if exact else _fmt_array(W.to_float()).tolist(),
    }
    _emit("wmatrix", s, args.mode, payload)


def cmd_m9(args, s) -> None:
    mat = coeffs.m9_spherical_matrix(s)
    exact = args.mode == "exact"
    show = str if exact else _fmt
    payload = {
        "row_index": "lambda_ascending",
        "col_index": "lambda_ascending",
        "matrix": _exact_text(mat) if exact else _fmt_array(coeffs.matrix_to_float(mat)).tolist(),
        "trace": show(sum(coeffs.m9_tridiagonal(s)[0], Fraction(0))),
        "eigenvalues": [show(Fraction(t, 2)) for t in coeffs.m9_twice_eigenvalues(s)],
    }
    _emit("m9", s, args.mode, payload)


def _spectrum_at_a(args, s):
    """The spheroidal spectrum at --a for kspectrum and tcoeffs."""
    _require_finite(a=args.a)
    if args.a is None or not args.a > 0:
        raise ValidationError(f"{args.command} needs --a > 0")
    return spheroidal.separation_constants(s, _to_aZ(args.a, s))


def cmd_kspectrum(args, s) -> None:
    import numpy as np
    spectrum = _spectrum_at_a(args, s)
    T = spectrum.T
    resid = float(np.abs(spectrum.matrix.matvec(T) - T * spectrum.K).max())
    ortho = float(np.abs(T.T @ T - np.eye(s.size)).max())
    payload = {
        "a": _fmt(args.a),
        "K": _fmt_array(spectrum.K).tolist(),
        "T_columns_by_nk": _fmt_array(spectrum.T.T).tolist(),
        "residual_inf": _fmt(resid),
        "orthogonality_error": _fmt(ortho),
    }
    _emit("kspectrum", s, "float", payload)


def cmd_tcoeffs(args, s) -> None:
    spectrum = _spectrum_at_a(args, s)
    branches = []
    for n_k, col in enumerate(spheroidal.t_by_continuant(spectrum.matrix, spectrum.K).T):
        branches.append({
            "n_k": n_k,
            "K": _fmt(spectrum.K[n_k]),
            "T_continuant": _fmt_array(col).tolist(),
            # difference from the eigh column; the key is part of the output schema
            "max_diff_vs_inverse_iteration": _fmt(abs(col - spectrum.T[:, n_k]).max()),
        })
    _emit("tcoeffs", s, "float", {"a": _fmt(args.a), "branches": branches})


def _write_sweep_csv(grid, K, K_over_a) -> None:
    """The sweep's CSV on stdout, formatted and written a chunk of grid points at a time.

    A chunk holds at most _CSV_CHUNK_ROWS rows (one, if a single point has
    more), so the text and its cells stay bounded however long the grid.
    Each point's N rows are one template with each n_k written in, filled
    in one %-pass from three interleaved lists: the point's a text, repeated
    once per branch, K and K/a.
    """
    n = K.shape[1]
    step = max(1, _CSV_CHUNK_ROWS // n)
    point = "".join(f"%s,{k},%.17g,%.17g\n" for k in range(n))
    sys.stdout.write("a,n_k,K,K_over_a\n")
    for lo in range(0, len(grid), step):
        a_s = _fmt_array(grid[lo : lo + step]).tolist()
        cells = [None] * (3 * n * len(a_s))
        cells[0::3] = [a for a in a_s for _ in range(n)]
        cells[1::3] = K[lo : lo + step].ravel().tolist()
        cells[2::3] = K_over_a[lo : lo + step].ravel().tolist()
        sys.stdout.write(point * len(a_s) % tuple(cells))


def _sweep_points(pads, *columns):
    """One branch's points as _render writes them at pads[0], with _fmt's "%.17g", in chunks."""
    point, sep = _render(dict.fromkeys(("a", "K", "K_over_a"), "%.17g"), pads[0]), ",\n" + pads[0]
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = [x[lo : lo + _CSV_CHUNK_ROWS].tolist() for x in columns]
        cells = [None] * (3 * len(chunk[0]))
        cells[0::3], cells[1::3], cells[2::3] = chunk
        yield (sep if lo else "") + sep.join([point] * len(chunk[0])) % tuple(cells)


def cmd_sweep(args, s) -> None:
    import numpy as np
    if args.a_min is None or args.a_max is None:
        raise ValidationError("sweep needs --a-min and --a-max")
    _require_finite(a_min=args.a_min, a_max=args.a_max)
    if not (0 < args.a_min < args.a_max):
        raise ValidationError("sweep needs 0 < --a-min < --a-max")
    if args.points < 2:
        raise ValidationError("sweep needs --points >= 2")
    if args.points * s.size**2 > SWEEP_MAX_ENTRIES:  # checked before the grid is allocated
        raise ValidationError(f"--points x N^2 must be at most {SWEEP_MAX_ENTRIES} (N = {s.size})")
    with np.errstate(over="ignore"):  # checked just below
        if args.log:
            grid = np.logspace(np.log10(args.a_min), np.log10(args.a_max), args.points)
        else:
            grid = np.linspace(args.a_min, args.a_max, args.points)
    if not np.isfinite(grid).all():  # 10**log10(a_max) rounds past the largest float
        raise ValidationError(f"--a-max {args.a_max} gives grid points that overflow a float")
    aZ = _to_aZ(grid, s)
    if not (np.diff(aZ) > 0).all():  # --a-min and --a-max a few ulps apart
        raise ValidationError(
            f"--points {args.points} from --a-min {args.a_min} to --a-max {args.a_max} "
            "give repeated grid points: use fewer points or a wider range"
        )
    K, min_overlap = spheroidal.sweep_branches(s, aZ)
    with np.errstate(over="ignore"):  # checked just below
        K_over_a = K / grid[:, None]
    bad = ~np.isfinite(K_over_a).all(axis=1)
    if bad.any():
        raise ValidationError(f"K/a at a = {grid[bad][0]} leaves the float range")
    if args.format == "csv":
        _write_sweep_csv(grid, K, K_over_a)
        return
    pads = []  # each branch's points are rendered at pads[0]
    branches = [{"n_k": k, "points": [lambda pad: pads.append(pad) or "\0"]} for k in range(s.size)]
    payload = {"min_branch_overlap": _fmt(min_overlap), "branches": branches}
    fills = [_sweep_points(pads, grid, K[:, k], K_over_a[:, k]) for k in range(s.size)]
    _emit("sweep", s, "float", payload, fills)


def _limit_distance(s, W, which: str, given):
    """(a, aZ) of a limit: the given flag's, or the default aZ at a = aZ/Z, if finite."""
    if given is not None:
        return given, _to_aZ(given, s)
    aZ = spheroidal.SPHERICAL_AZ if which == "spherical" else spheroidal.parabolic_distance(W)
    if not (float(s.Z) and math.isfinite(aZ / float(s.Z))):
        raise ValidationError(
            f"the {which} limit distance at Z = {sector._short(s.Z)} is not finite")
    return aZ / float(s.Z), aZ


def cmd_limits(args, s) -> None:
    _require_finite(a_small=args.a_small, a_large=args.a_large)
    for flag, given in (("--a-small", args.a_small), ("--a-large", args.a_large)):
        if given is not None and not given > 0:  # in the user's a, as kspectrum refuses --a
            raise ValidationError(f"limits needs {flag} > 0")
    W = interbasis.w_matrix(s)
    a_small, aZ_small = _limit_distance(s, W, "spherical", args.a_small)
    a_large, aZ_large = _limit_distance(s, W, "parabolic", args.a_large)
    both = spheroidal.separation_constants(s, [aZ_small, aZ_large])
    sph = spheroidal.check_spherical_limit(both[0])
    if not aZ_large >= spheroidal.PARABOLIC_MIN_AZ:  # named in the user's a and Z
        raise ValidationError(f"a_large Z = {a_large} * {sector._short(s.Z)} must be at least 1e4")
    par = spheroidal.check_parabolic_limit(W, both[1])
    payload = {
        "spherical": {
            "a_small": _fmt(a_small),
            "value_errors": _fmt_array(sph.value_errors).tolist(),
            "raw_gaps": _fmt_array(sph.raw_gaps).tolist(),
            "vector_errors": _fmt_array(sph.vector_errors).tolist(),
        },
        "parabolic": {
            "a_large": _fmt(a_large),
            "branch_np": par.branch_np.tolist(),
            "set_errors": _fmt_array(par.set_errors).tolist(),
            "column_errors": _fmt_array(par.column_errors).tolist(),
        },
    }
    _emit("limits", s, "float", payload)


def _verify_checks(s: sector.Sector):
    """Run the per-sector cross-oracle suite; yields (name, ok, detail)."""
    import numpy as np
    n = s.size

    W = interbasis.w_matrix(s)  # raises OrthogonalityViolation on breach
    yield "w_orthogonality_exact", True, "identity verified exactly"

    resid = interbasis.w_recurrence_residual(W)
    worst = max((x.square() for row in resid for x in row if not x.is_zero), default=Fraction(0))
    yield "w_recurrence_exact", worst == 0, f"max residual {_fmt_root(worst)}"

    closed = coeffs.m9_spherical_matrix(s)
    same = closed == interbasis.m9_matrix_bruteforce(W)
    yield "m9_equivalence_exact", same, "closed form equals brute force"

    exact_eigs = np.array(coeffs.m9_twice_eigenvalues(s)[::-1]) / 2  # ascending, as eigvalsh's
    eig_err = float(np.abs(np.linalg.eigvalsh(coeffs.matrix_to_float(closed)) - exact_eigs).max())
    yield "m9_eigenvalues_float", eig_err <= 1e-12, f"max deviation {_fmt(eig_err)}"

    cg_bad = interbasis.w_via_cg(W)
    yield "cg_oracle_exact", not cg_bad, (
        f"{len(cg_bad)} entries differ, first at {cg_bad[0]}" if cg_bad
        else "single-coefficient form matches"
    )

    qworst = float(np.abs(wavefield.w_overlap_stable(s) - W.to_float()).max())
    yield "quadrature_overlap", qworst <= 1e-8, f"max |quad - exact| {_fmt(qworst)}"

    # one batch: the continuant at 6 distances aZ, whose middle 4 are the eigenproblem's
    # 0.1, 1, 10 and 100 bit for bit, then both limits
    aZ = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
          spheroidal.SPHERICAL_AZ, spheroidal.parabolic_distance(W)]
    solved = spheroidal.separation_constants(s, aZ)
    eig = solved[1:5]
    mat, K, T = eig.matrix, eig.K, eig.T
    resid = np.abs(mat.matvec(T) - T * K[:, None, :]).max(axis=(1, 2))
    worst_resid = float((resid / np.maximum(mat.norm(), 1e-300)).max())
    worst_ortho = float(np.abs(np.swapaxes(T, 1, 2) @ T - np.eye(n)).max())
    ok = worst_resid <= 1e-12 and worst_ortho <= 1e-12
    yield "spheroidal_eigenproblem", ok, (
        f"relative residual {_fmt(worst_resid)}, orthogonality {_fmt(worst_ortho)}"
    )

    cont = solved[:6]
    cont_worst = float(np.abs(spheroidal.t_by_continuant(cont.matrix, cont.K) - cont.T).max())
    yield "continuant_agreement", cont_worst <= 1e-8, f"max column diff {_fmt(cont_worst)}"

    sph = spheroidal.check_spherical_limit(solved[6])  # raises LimitMismatch
    yield "spherical_limit", True, (
        f"value error {_fmt(sph.max_value_error)}, vector error {_fmt(sph.max_vector_error)}"
    )

    par = spheroidal.check_parabolic_limit(W, solved[7])
    yield "parabolic_limit", True, (
        f"set error {_fmt(par.max_set_error)}, column error {_fmt(par.max_column_error)}"
    )

    rpts = np.array([0.5, 1.0, 2.0, 5.0])  # Zr
    cpts = np.array([-0.9, -0.3, 0.0, 0.4, 0.9])
    ode_worst = float(np.concatenate([  # one residual per lambda or n_p; one Laguerre run for three
        wavefield.ode_residuals(s, "angular", cpts),
        wavefield.ode_residuals(s, ("radial", "parabolic_u", "parabolic_v"), rpts),
    ]).max())
    yield "ode_residuals", ode_worst <= 1e-8, f"max relative residual {_fmt(ode_worst)}"


def cmd_verify(args, s) -> int | None:
    checks = [
        {"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in _verify_checks(s)
    ]
    failed = [c["name"] for c in checks if not c["ok"]]
    _emit("verify", s, "exact", {"ok": not failed, "checks": checks})
    if failed:  # a broken exact identity is an internal inconsistency
        exact = any(name.endswith("_exact") for name in failed)
        error = InternalConsistencyError if exact else NumericalError
        line = f"{error.__name__}: verify failed {' '.join(failed)}"
        print(line if len(line) <= 200 else line[:197] + "...", file=sys.stderr)
        return error.exit_code
    return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each command takes only the flags it reads."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, required=True, help="principal quantum number")
    shared.add_argument("--Q", type=int, required=True, help="monopole charge quantum number")
    shared.add_argument("--L", type=int, required=True, help="first angular eigenvalue label")
    shared.add_argument("--J", type=int, required=True, help="second angular eigenvalue label")
    shared.add_argument("--Z", default="1", help="electric charge, rational like 1 or 2/5")
    two_modes = argparse.ArgumentParser(add_help=False, parents=[shared])
    two_modes.add_argument("--mode", choices=("exact", "float"), default="exact")
    # K(a) has a real focal distance, so these commands are float only
    float_only = argparse.ArgumentParser(add_help=False, parents=[shared])
    float_only.add_argument("--mode", choices=("float",), default="float")

    parser = argparse.ArgumentParser(
        prog="micz9",
        description="Interbasis transformations and separation constants of the "
        "nine-dimensional MICZ-Kepler problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, parents, run, text):  # each command carries its handler, run(args, s)
        p = sub.add_parser(name, parents=[parents], help=text)
        p.set_defaults(run=run)
        return p

    command("states", two_modes, cmd_states, "sector constants and label ranges")
    command("wmatrix", two_modes, cmd_wmatrix, "spherical-parabolic transformation matrix")
    command("m9", two_modes, cmd_m9, "ninth Runge-Lenz matrix in the spherical basis")
    p = command("kspectrum", float_only, cmd_kspectrum, "spheroidal separation constants")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = command("tcoeffs", float_only, cmd_tcoeffs, "coefficient columns by continuant")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = command("sweep", float_only, cmd_sweep, "branch sweep over a grid of a values")
    p.add_argument("--a-min", dest="a_min", type=float)
    p.add_argument("--a-max", dest="a_max", type=float)
    p.add_argument("--points", type=int, default=2, help=f"2 to {SWEEP_MAX_ENTRIES} / N^2")
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.add_argument("--format", choices=("record", "csv"), default="record")
    p = command("limits", float_only, cmd_limits, "spherical and parabolic degenerations")
    p.add_argument("--a-small", dest="a_small", type=float, help="default: aZ = 1e-8")
    p.add_argument("--a-large", dest="a_large", type=float, help="default: parabolic_distance")
    command("verify", shared, cmd_verify, "full cross-oracle suite for one sector")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the sector first, then the command's own flags
        code = args.run(args, _parse_sector(args))  # None, or verify's failed-check code
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except Micz9Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # Python's SIGPIPE recipe: what is left goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
