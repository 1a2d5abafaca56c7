"""Command-line surface.

One structured JSON record per invocation on stdout; CSV (header
``a,n_k,K,K_over_a``) only for sweeps.  Exact-mode payloads carry only
"p/q" strings and {coeff, radicand} records; float payloads carry
17-significant-digit decimal literals.  Identical flags produce
byte-identical output.

Exit codes: 0 success, 2 validation (bad flags or quantum numbers),
3 numerical failure, 4 internal-consistency breach.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import coeffs, interbasis, sector, spheroidal, wavefield
from .errors import Micz9Error, ValidationError

SCHEMA_VERSION = "1"

# points x N^2 eigenvector entries in one sweep's solve: 2^24 is 128 MB of float64
SWEEP_MAX_ENTRIES = 1 << 24


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_array(x: np.ndarray) -> np.ndarray:
    """_fmt of each entry of a float array, in one %-pass: "%.17g" % v is format(v, ".17g")."""
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
    same layout in one recursive pass.  pad is the indent x is nested at.
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
    raise TypeError(f"a record holds no {type(x).__name__}")


def _emit(command: str, s: sector.Sector, mode: str, payload: dict) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "sector": _sector_record(s),
        "mode": mode,
        "payload": payload,
    }
    sys.stdout.write(_render(record) + "\n")


def _exact_matrix(mat) -> list:
    return [[x.as_record() for x in row] for row in mat]


def _float_matrix(mat) -> list:
    return _fmt_array(coeffs.matrix_to_float(mat)).tolist()


def _require_finite(**flags) -> None:
    """Reject infinite or NaN focal-distance flags (names given with _ for -)."""
    for name, value in flags.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"--{name.replace('_', '-')} = {value} must be finite")


def _parse_sector(args) -> sector.Sector:
    try:
        z = Fraction(args.Z)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse Z = {args.Z!r} as a rational") from exc
    s = sector.validate_sector(args.n, args.Q, args.L, args.J, z)
    try:  # float payloads print both, and the float K(a) scales with Z
        float(s.Z)
        float(sector.energy(s))
    except OverflowError as exc:
        raise ValidationError(f"Z = {args.Z} is too large: Z or the energy overflows a float") from exc
    return s


def cmd_states(args) -> None:
    s = _parse_sector(args)
    show = str if args.mode == "exact" else _fmt
    m9s = [sector.m9_parabolic_eigenvalue(s, n_p) for n_p in sector.np_range(s)]
    payload = {
        "N": s.size,
        "lambda_range": [show(l.fraction) for l in sector.lambda_range(s)],
        "np_range": sector.np_range(s),
        "energy": show(sector.energy(s)),
        "alpha": show(sector.alpha_scale(s)),
        "m9_eigenvalues": [show(v.fraction) for v in m9s],
    }
    _emit("states", s, args.mode, payload)


def cmd_wmatrix(args) -> None:
    s = _parse_sector(args)
    W = interbasis.w_matrix(s)
    payload = {
        "row_index": "lambda_ascending",
        "col_index": "np_ascending",
        "matrix": _exact_matrix(W.entries) if args.mode == "exact" else _float_matrix(W.entries),
    }
    _emit("wmatrix", s, args.mode, payload)


def cmd_m9(args) -> None:
    s = _parse_sector(args)
    mat = coeffs.m9_spherical_matrix(s)
    trace = sum((row[i].as_rational() for i, row in enumerate(mat)), Fraction(0))
    exact = args.mode == "exact"
    show = str if exact else _fmt
    payload = {
        "row_index": "lambda_ascending",
        "col_index": "lambda_ascending",
        "matrix": _exact_matrix(mat) if exact else _float_matrix(mat),
        "trace": show(trace),
        "eigenvalues": [show(v.fraction) for v in coeffs.m9_eigenvalues(s)],
    }
    _emit("m9", s, args.mode, payload)


def _spectrum_at_a(args) -> tuple[sector.Sector, spheroidal.SpheroidalSpectrum]:
    """Sector and spectrum at --a for kspectrum and tcoeffs."""
    s = _parse_sector(args)
    _require_finite(a=args.a)
    if args.a is None or not args.a > 0:
        raise ValidationError(f"{args.command} needs --a > 0")
    return s, spheroidal.separation_constants(s, args.a)


def cmd_kspectrum(args) -> None:
    s, spectrum = _spectrum_at_a(args)
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


def cmd_tcoeffs(args) -> None:
    s, spectrum = _spectrum_at_a(args)
    branches = []
    for n_k in range(s.size):
        col = spheroidal.t_by_continuant(spectrum.matrix, float(spectrum.K[n_k]))
        branches.append({
            "n_k": n_k,
            "K": _fmt(spectrum.K[n_k]),
            "T_continuant": _fmt_array(col).tolist(),
            # difference from the eigh column; the key is part of the output schema
            "max_diff_vs_inverse_iteration": _fmt(np.abs(col - spectrum.T[:, n_k]).max()),
        })
    _emit("tcoeffs", s, "float", {"a": _fmt(args.a), "branches": branches})


def cmd_sweep(args) -> None:
    s = _parse_sector(args)
    if args.a_min is None or args.a_max is None:
        raise ValidationError("sweep needs --a-min and --a-max")
    _require_finite(a_min=args.a_min, a_max=args.a_max)
    if not (0 < args.a_min < args.a_max):
        raise ValidationError("sweep needs 0 < --a-min < --a-max")
    if args.points < 2:
        raise ValidationError("sweep needs --points >= 2")
    if args.points * s.size**2 > SWEEP_MAX_ENTRIES:  # checked before the grid is allocated
        raise ValidationError(f"--points x N^2 must be at most {SWEEP_MAX_ENTRIES} (N = {s.size})")
    if args.log:
        grid = np.logspace(np.log10(args.a_min), np.log10(args.a_max), args.points)
    else:
        grid = np.linspace(args.a_min, args.a_max, args.points)
    sw = spheroidal.sweep_branches(s, grid)
    a_s = _fmt_array(grid)  # each point is printed once per branch
    if args.format == "csv":  # one template over all (point, branch) rows of the grid
        a_col, n_k = np.broadcast_arrays(a_s[:, None], np.arange(s.size))
        cells = np.stack([a_col, n_k, sw.K, sw.K_over_a], axis=-1).ravel().tolist()
        sys.stdout.write("a,n_k,K,K_over_a\n" + "%s,%d,%.17g,%.17g\n" * sw.K.size % tuple(cells))
        return
    K_s, K_over_a_s = _fmt_array(sw.K.T), _fmt_array(sw.K_over_a.T)  # branch-major
    branches = [
        {"n_k": k, "points": [
            {"a": a, "K": K, "K_over_a": r} for a, K, r in zip(a_s, K_s[k], K_over_a_s[k])
        ]}
        for k in range(s.size)
    ]
    _emit("sweep", s, "float", {"min_branch_overlap": _fmt(sw.min_overlap), "branches": branches})


def _limit_distances(s: sector.Sector, a_small=None, a_large=None) -> tuple[float, float]:
    """Focal distances of the two limit checks, 1e-8/Z and 1e6/Z unless given.

    K(a) depends on a and Z only through aZ, so these defaults check the
    same aZ at every charge.  A charge that rounds to 0.0 as a float raises
    ValidationError.
    """
    zf = float(s.Z)
    if not zf:
        raise ValidationError("Z rounds to 0.0 as a float: 1e-8/Z and 1e6/Z are undefined")
    return (1e-8 / zf if a_small is None else a_small, 1e6 / zf if a_large is None else a_large)


def cmd_limits(args) -> None:
    s = _parse_sector(args)
    _require_finite(a_small=args.a_small, a_large=args.a_large)
    small, large = spheroidal.spectra(s, _limit_distances(s, args.a_small, args.a_large))
    sph = spheroidal.check_spherical_limit(small)
    par = spheroidal.check_parabolic_limit(interbasis.w_matrix(s), large)
    payload = {
        "spherical": {
            "a_small": _fmt(sph.a_small),
            "value_errors": _fmt_array(sph.value_errors).tolist(),
            "raw_gaps": _fmt_array(sph.raw_gaps).tolist(),
            "vector_errors": _fmt_array(sph.vector_errors).tolist(),
        },
        "parabolic": {
            "a_large": _fmt(par.a_large),
            "branch_np": par.branch_np.tolist(),
            "set_errors": _fmt_array(par.set_errors).tolist(),
            "column_errors": _fmt_array(par.column_errors).tolist(),
        },
    }
    _emit("limits", s, "float", payload)


def _verify_checks(s: sector.Sector, n_q: int, tol_quad: float):
    """Run the per-sector cross-oracle suite; yields (name, ok, detail)."""
    n = s.size

    W = interbasis.w_matrix(s)  # raises OrthogonalityViolation on breach
    yield "w_orthogonality_exact", True, "identity verified exactly"

    resid = interbasis.w_recurrence_residual(W)
    worst = max((x.square() for row in resid for x in row if not x.is_zero), default=Fraction(0))
    yield "w_recurrence_exact", worst == 0, f"max residual {_fmt_root(worst)}"

    closed = coeffs.m9_spherical_matrix(s)
    brute = interbasis.m9_matrix_bruteforce(W)
    same = all(closed[i][j] == brute[i][j] for i in range(n) for j in range(n))
    yield "m9_equivalence_exact", same, "closed form equals brute force"

    float_eigs = np.sort(np.linalg.eigvalsh(coeffs.matrix_to_float(closed)))
    exact_eigs = np.sort([float(v.fraction) for v in coeffs.m9_eigenvalues(s)])
    eig_err = float(np.abs(float_eigs - exact_eigs).max())
    yield "m9_eigenvalues_float", eig_err <= 1e-12, f"max deviation {_fmt(eig_err)}"

    cg_bad = interbasis.w_via_cg(W)
    yield "cg_oracle_exact", not cg_bad, (
        f"{len(cg_bad)} entries differ, first at {cg_bad[0]}" if cg_bad
        else "single-coefficient form matches"
    )

    qworst = float(np.abs(wavefield.w_overlap_stable(s, n_q=n_q) - W.to_float()).max())
    yield "quadrature_overlap", qworst <= tol_quad, f"max |quad - exact| {_fmt(qworst)}"

    # one batch: the eigenproblem at 4 distances, the continuant at 6, then both limits
    solved = spheroidal.spectra(
        s, [0.1, 1.0, 10.0, 100.0, *np.logspace(-2, 3, 6), *_limit_distances(s)]
    )
    eigen, continuant, (small, large) = solved[:4], solved[4:10], solved[10:]
    worst_resid = 0.0
    worst_ortho = 0.0
    for spectrum in eigen:
        mat, T = spectrum.matrix, spectrum.T
        r = float(np.abs(mat.matvec(T) - T * spectrum.K).max())
        worst_resid = max(worst_resid, r / max(mat.norm(), 1e-300))
        worst_ortho = max(worst_ortho, float(np.abs(T.T @ T - np.eye(n)).max()))
    ok = worst_resid <= 1e-12 and worst_ortho <= 1e-12
    yield "spheroidal_eigenproblem", ok, (
        f"relative residual {_fmt(worst_resid)}, orthogonality {_fmt(worst_ortho)}"
    )

    cont_worst = 0.0
    for spectrum in continuant:
        for k in range(n):
            col = spheroidal.t_by_continuant(spectrum.matrix, float(spectrum.K[k]))
            cont_worst = max(cont_worst, float(np.abs(col - spectrum.T[:, k]).max()))
    yield "continuant_agreement", cont_worst <= 1e-8, f"max column diff {_fmt(cont_worst)}"

    sph = spheroidal.check_spherical_limit(small)  # raises LimitMismatch
    yield "spherical_limit", True, (
        f"value error {_fmt(sph.max_value_error)}, vector error {_fmt(sph.max_vector_error)}"
    )

    par = spheroidal.check_parabolic_limit(W, large)
    yield "parabolic_limit", True, (
        f"set error {_fmt(par.max_set_error)}, column error {_fmt(par.max_column_error)}"
    )

    rpts = np.array([0.5, 1.0, 2.0, 5.0])
    cpts = np.array([-0.9, -0.3, 0.0, 0.4, 0.9])
    ode_worst = float(np.concatenate([  # one residual per lambda or n_p
        wavefield.ode_residuals(s, which, cpts if which == "angular" else rpts)
        for which in ("radial", "angular", "parabolic_u", "parabolic_v")
    ]).max())
    yield "ode_residuals", ode_worst <= 1e-8, f"max relative residual {_fmt(ode_worst)}"


def cmd_verify(args) -> int | None:
    s = _parse_sector(args)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol = {args.tol} must be finite and positive")
    wavefield.check_node_count(args.nodes)
    checks = [
        {"name": name, "ok": bool(ok), "detail": detail}
        for name, ok, detail in _verify_checks(s, args.nodes, args.tol)
    ]
    failed = [c["name"] for c in checks if not c["ok"]]
    _emit("verify", s, "exact", {"ok": not failed, "checks": checks})
    if failed:  # a broken exact identity is an internal inconsistency
        return 4 if any(name.endswith("_exact") for name in failed) else 3
    return None


_COMMANDS = {
    "states": cmd_states,
    "wmatrix": cmd_wmatrix,
    "m9": cmd_m9,
    "kspectrum": cmd_kspectrum,
    "tcoeffs": cmd_tcoeffs,
    "sweep": cmd_sweep,
    "limits": cmd_limits,
    "verify": cmd_verify,
}


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
    sub.add_parser("states", parents=[two_modes], help="sector constants and label ranges")
    sub.add_parser("wmatrix", parents=[two_modes], help="spherical-parabolic transformation matrix")
    sub.add_parser("m9", parents=[two_modes], help="ninth Runge-Lenz matrix in the spherical basis")
    p = sub.add_parser("kspectrum", parents=[float_only], help="spheroidal separation constants")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = sub.add_parser("tcoeffs", parents=[float_only], help="coefficient columns by continuant")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = sub.add_parser("sweep", parents=[float_only], help="branch sweep over a grid of a values")
    p.add_argument("--a-min", dest="a_min", type=float)
    p.add_argument("--a-max", dest="a_max", type=float)
    p.add_argument("--points", type=int, default=2, help=f"2 to {SWEEP_MAX_ENTRIES} / N^2")
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.add_argument("--format", choices=("record", "csv"), default="record")
    p = sub.add_parser("limits", parents=[float_only], help="spherical and parabolic degenerations")
    p.add_argument("--a-small", dest="a_small", type=float, help="default 1e-8/Z")
    p.add_argument("--a-large", dest="a_large", type=float, help="default 1e6/Z")
    p = sub.add_parser("verify", parents=[shared], help="full cross-oracle suite for one sector")
    top = wavefield.MAX_RULE_NODES >> wavefield.OVERLAP_DOUBLINGS  # verify doubles --nodes
    p.add_argument("--nodes", type=int, default=48, help=f"quadrature node count, 1..{top}")
    p.add_argument("--tol", type=float, default=1e-8, help="quadrature overlap tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)  # None, or verify's failed-check code
    except Micz9Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
