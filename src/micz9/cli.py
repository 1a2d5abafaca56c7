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
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import coeffs, interbasis, sector, spheroidal, wavefield
from .errors import Micz9Error, ValidationError
from .exactscalar import format_rational

SCHEMA_VERSION = "1"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _sector_record(s: sector.Sector) -> dict:
    return {"n": s.n, "Q": s.Q, "L": s.L, "J": s.J, "Z": format_rational(s.Z)}


def _emit(command: str, s: sector.Sector, mode: str, payload: dict) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "sector": _sector_record(s),
        "mode": mode,
        "payload": payload,
    }
    sys.stdout.write(json.dumps(record, indent=2) + "\n")


def _exact_matrix(mat) -> list:
    return [[x.as_record() for x in row] for row in mat]


def _float_matrix(mat) -> list:
    return [[_fmt(x.to_float()) for x in row] for row in mat]


def _require_float_mode(args) -> None:
    if args.mode == "exact":
        raise ValidationError(f"{args.command} has no exact mode (real-valued focal distance)")


def _require_record_format(args) -> None:
    if args.format == "csv":
        raise ValidationError(f"{args.command} emits a record, not CSV (only sweep does)")


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
    _require_record_format(args)
    s = _parse_sector(args)
    lams = sector.lambda_range(s)
    e = sector.energy(s)
    al = sector.alpha_scale(s)
    m9s = [sector.m9_parabolic_eigenvalue(s, n_p).fraction for n_p in sector.np_range(s)]
    if args.mode == "exact":
        payload = {
            "N": s.size,
            "lambda_range": [str(l) for l in lams],
            "np_range": sector.np_range(s),
            "energy": format_rational(e),
            "alpha": format_rational(al),
            "m9_eigenvalues": [format_rational(v) for v in m9s],
        }
    else:
        payload = {
            "N": s.size,
            "lambda_range": [_fmt(l) for l in lams],
            "np_range": sector.np_range(s),
            "energy": _fmt(e),
            "alpha": _fmt(al),
            "m9_eigenvalues": [_fmt(v) for v in m9s],
        }
    _emit("states", s, args.mode, payload)


def cmd_wmatrix(args) -> None:
    _require_record_format(args)
    s = _parse_sector(args)
    W = interbasis.w_matrix(s)
    payload = {
        "row_index": "lambda_ascending",
        "col_index": "np_ascending",
        "matrix": _exact_matrix(W.entries) if args.mode == "exact" else _float_matrix(W.entries),
    }
    _emit("wmatrix", s, args.mode, payload)


def cmd_m9(args) -> None:
    _require_record_format(args)
    s = _parse_sector(args)
    mat = coeffs.m9_spherical_matrix(s)
    trace = sum((row[i].as_rational() for i, row in enumerate(mat)), Fraction(0))
    eigs = [v.fraction for v in coeffs.m9_eigenvalues(s)]
    if args.mode == "exact":
        payload = {
            "row_index": "lambda_ascending",
            "col_index": "lambda_ascending",
            "matrix": _exact_matrix(mat),
            "trace": format_rational(trace),
            "eigenvalues": [format_rational(v) for v in eigs],
        }
    else:
        payload = {
            "row_index": "lambda_ascending",
            "col_index": "lambda_ascending",
            "matrix": _float_matrix(mat),
            "trace": _fmt(trace),
            "eigenvalues": [_fmt(v) for v in eigs],
        }
    _emit("m9", s, args.mode, payload)


def _spectrum_payload(s: sector.Sector, a: float) -> tuple[dict, spheroidal.SpheroidalSpectrum]:
    spectrum = spheroidal.separation_constants(s, a)
    mat = spheroidal.build_k_matrix(s, a)
    resid = max(
        float(np.abs(mat.matvec(spectrum.T[:, k]) - spectrum.K[k] * spectrum.T[:, k]).max())
        for k in range(s.size)
    )
    ortho = float(np.abs(spectrum.T.T @ spectrum.T - np.eye(s.size)).max())
    payload = {
        "a": _fmt(a),
        "K": [_fmt(v) for v in spectrum.K],
        "T_columns_by_nk": [[_fmt(spectrum.T[i, k]) for i in range(s.size)] for k in range(s.size)],
        "residual_inf": _fmt(resid),
        "orthogonality_error": _fmt(ortho),
    }
    return payload, spectrum


def cmd_kspectrum(args) -> None:
    _require_float_mode(args)
    _require_record_format(args)
    s = _parse_sector(args)
    _require_finite(a=args.a)
    if args.a is None or not args.a > 0:
        raise ValidationError("kspectrum needs --a > 0")
    payload, _ = _spectrum_payload(s, args.a)
    _emit("kspectrum", s, "float", payload)


def cmd_tcoeffs(args) -> None:
    _require_float_mode(args)
    _require_record_format(args)
    s = _parse_sector(args)
    _require_finite(a=args.a)
    if args.a is None or not args.a > 0:
        raise ValidationError("tcoeffs needs --a > 0")
    spectrum = spheroidal.separation_constants(s, args.a)
    branches = []
    for n_k in range(s.size):
        col = spheroidal.t_by_continuant(s, args.a, s.Z, float(spectrum.K[n_k]))
        branches.append(
            {
                "n_k": n_k,
                "K": _fmt(spectrum.K[n_k]),
                "T_continuant": [_fmt(v) for v in col],
                "max_diff_vs_inverse_iteration": _fmt(np.abs(col - spectrum.T[:, n_k]).max()),
            }
        )
    _emit("tcoeffs", s, "float", {"a": _fmt(args.a), "branches": branches})


def cmd_sweep(args) -> None:
    _require_float_mode(args)
    s = _parse_sector(args)
    if args.a_min is None or args.a_max is None:
        raise ValidationError("sweep needs --a-min and --a-max")
    _require_finite(a_min=args.a_min, a_max=args.a_max)
    if not (0 < args.a_min < args.a_max):
        raise ValidationError("sweep needs 0 < --a-min < --a-max")
    if args.points < 2:
        raise ValidationError("sweep needs --points >= 2")
    if args.log:
        grid = np.logspace(np.log10(args.a_min), np.log10(args.a_max), args.points)
    else:
        grid = np.linspace(args.a_min, args.a_max, args.points)
    sw = spheroidal.sweep_branches(s, s.Z, grid)
    if args.format == "csv":
        lines = ["a,n_k,K,K_over_a"]
        for ip in range(grid.size):
            for n_k in range(s.size):
                lines.append(
                    f"{_fmt(grid[ip])},{n_k},{_fmt(sw.K[ip, n_k])},{_fmt(sw.K_over_a[ip, n_k])}"
                )
        sys.stdout.write("\n".join(lines) + "\n")
        return
    branches = []
    for n_k in range(s.size):
        branches.append(
            {
                "n_k": n_k,
                "points": [
                    {
                        "a": _fmt(grid[ip]),
                        "K": _fmt(sw.K[ip, n_k]),
                        "K_over_a": _fmt(sw.K_over_a[ip, n_k]),
                    }
                    for ip in range(grid.size)
                ],
            }
        )
    _emit(
        "sweep",
        s,
        "float",
        {"min_branch_overlap": _fmt(sw.min_overlap), "branches": branches},
    )


def cmd_limits(args) -> None:
    _require_float_mode(args)
    _require_record_format(args)
    s = _parse_sector(args)
    _require_finite(a_small=args.a_small, a_large=args.a_large)
    sph = spheroidal.check_spherical_limit(s, a_small=args.a_small)
    par = spheroidal.check_parabolic_limit(s, a_large=args.a_large)
    payload = {
        "spherical": {
            "a_small": _fmt(sph.a_small),
            "value_errors": [_fmt(v) for v in sph.value_errors],
            "raw_gaps": [_fmt(v) for v in sph.raw_gaps],
            "vector_errors": [_fmt(v) for v in sph.vector_errors],
        },
        "parabolic": {
            "a_large": _fmt(par.a_large),
            "branch_np": [int(v) for v in par.branch_np],
            "set_errors": [_fmt(v) for v in par.set_errors],
            "column_errors": [_fmt(v) for v in par.column_errors],
        },
    }
    _emit("limits", s, "float", payload)


def _verify_checks(s: sector.Sector, n_q: int, tol_quad: float):
    """Run the per-sector cross-oracle suite; yields (name, ok, detail)."""
    lams = sector.lambda_range(s)
    n = s.size

    W = interbasis.w_matrix(s)  # raises OrthogonalityViolation on breach
    yield "w_orthogonality_exact", True, "identity verified exactly"

    worst = max(
        (abs(interbasis.w_recurrence_residual(s, lam, n_p).to_float()) for lam in lams for n_p in range(n)),
        default=0.0,
    )
    yield "w_recurrence_exact", worst == 0.0, f"max residual {_fmt(worst)}"

    closed = coeffs.m9_spherical_matrix(s)
    brute = interbasis.m9_matrix_bruteforce(s)
    same = all(closed[i][j] == brute[i][j] for i in range(n) for j in range(n))
    yield "m9_equivalence_exact", same, "closed form equals brute force"

    eig_err = float(
        np.abs(
            np.sort(np.linalg.eigvalsh(coeffs.matrix_to_float(closed)))
            - np.sort(np.array([float(v.fraction) for v in coeffs.m9_eigenvalues(s)]))
        ).max()
    )
    yield "m9_eigenvalues_float", eig_err <= 1e-12, f"max deviation {_fmt(eig_err)}"

    cg_same = all(
        interbasis.w_via_cg(s, lam, n_p) == W.entry(i, n_p)
        for i, lam in enumerate(lams)
        for n_p in range(n)
    )
    yield "cg_oracle_exact", cg_same, "single-coefficient form matches"

    qworst = max(
        abs(wavefield.w_overlap_stable(s, lam, n_p, n_q=n_q) - W.entry(i, n_p).to_float())
        for i, lam in enumerate(lams)
        for n_p in range(n)
    )
    yield "quadrature_overlap", qworst <= tol_quad, f"max |quad - exact| {_fmt(qworst)}"

    worst_resid = 0.0
    worst_ortho = 0.0
    for spectrum in spheroidal.spectra(s, (0.1, 1.0, 10.0, 100.0)):
        mat = spheroidal.build_k_matrix(s, spectrum.a)
        scale = max(mat.norm(), 1e-300)
        for k in range(n):
            r = float(np.abs(mat.matvec(spectrum.T[:, k]) - spectrum.K[k] * spectrum.T[:, k]).max())
            worst_resid = max(worst_resid, r / scale)
        worst_ortho = max(
            worst_ortho, float(np.abs(spectrum.T.T @ spectrum.T - np.eye(n)).max())
        )
    ok = worst_resid <= 1e-12 and worst_ortho <= 1e-12
    yield "spheroidal_eigenproblem", ok, (
        f"relative residual {_fmt(worst_resid)}, orthogonality {_fmt(worst_ortho)}"
    )

    cont_worst = 0.0
    for spectrum in spheroidal.spectra(s, np.logspace(-2, 3, 6)):
        for k in range(n):
            col = spheroidal.t_by_continuant(s, spectrum.a, s.Z, float(spectrum.K[k]))
            cont_worst = max(cont_worst, float(np.abs(col - spectrum.T[:, k]).max()))
    yield "continuant_agreement", cont_worst <= 1e-8, f"max column diff {_fmt(cont_worst)}"

    sph = spheroidal.check_spherical_limit(s)  # raises LimitMismatch on failure
    yield "spherical_limit", True, (
        f"value error {_fmt(sph.max_value_error)}, vector error {_fmt(sph.max_vector_error)}"
    )

    par = spheroidal.check_parabolic_limit(s)
    yield "parabolic_limit", True, (
        f"set error {_fmt(par.max_set_error)}, column error {_fmt(par.max_column_error)}"
    )

    rpts = np.array([0.5, 1.0, 2.0, 5.0])
    cpts = np.array([-0.9, -0.3, 0.0, 0.4, 0.9])
    ode_worst = 0.0
    for lam in lams:
        ode_worst = max(ode_worst, wavefield.ode_residuals(s, "radial", lam, rpts))
        ode_worst = max(ode_worst, wavefield.ode_residuals(s, "angular", lam, cpts))
    for n_p in range(n):
        ode_worst = max(ode_worst, wavefield.ode_residuals(s, "parabolic_u", n_p, rpts))
        ode_worst = max(ode_worst, wavefield.ode_residuals(s, "parabolic_v", n_p, rpts))
    yield "ode_residuals", ode_worst <= 1e-8, f"max relative residual {_fmt(ode_worst)}"


def cmd_verify(args) -> int | None:
    _require_record_format(args)
    s = _parse_sector(args)
    tol_quad = args.tol if args.tol is not None else 1e-8
    if not (math.isfinite(tol_quad) and tol_quad > 0):
        raise ValidationError(f"--tol = {tol_quad} must be finite and positive")
    checks = [
        {"name": name, "ok": bool(ok), "detail": detail}
        for name, ok, detail in _verify_checks(s, args.nodes, tol_quad)
    ]
    failed = [c["name"] for c in checks if not c["ok"]]
    _emit("verify", s, args.mode, {"ok": not failed, "checks": checks})
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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, required=True, help="principal quantum number")
    shared.add_argument("--Q", type=int, required=True, help="monopole charge quantum number")
    shared.add_argument("--L", type=int, required=True, help="first angular eigenvalue label")
    shared.add_argument("--J", type=int, required=True, help="second angular eigenvalue label")
    shared.add_argument("--Z", default="1", help="electric charge, rational like 1 or 2/5")
    shared.add_argument("--mode", choices=("exact", "float"), default="exact")
    shared.add_argument("--format", choices=("record", "csv"), default="record")
    shared.add_argument("--nodes", type=int, default=48, help="quadrature node count")
    shared.add_argument("--tol", type=float, default=None, help="tolerance override")

    parser = argparse.ArgumentParser(
        prog="micz9",
        description="Interbasis transformations and separation constants of the "
        "nine-dimensional MICZ-Kepler problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("states", parents=[shared], help="sector constants and label ranges")
    sub.add_parser("wmatrix", parents=[shared], help="spherical-parabolic transformation matrix")
    sub.add_parser("m9", parents=[shared], help="ninth Runge-Lenz matrix in the spherical basis")
    p = sub.add_parser("kspectrum", parents=[shared], help="spheroidal separation constants")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = sub.add_parser("tcoeffs", parents=[shared], help="coefficient columns by continuant")
    p.add_argument("--a", type=float, help="focal distance (> 0)")
    p = sub.add_parser("sweep", parents=[shared], help="branch sweep over a grid of a values")
    p.add_argument("--a-min", dest="a_min", type=float)
    p.add_argument("--a-max", dest="a_max", type=float)
    p.add_argument("--points", type=int, default=2)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p = sub.add_parser("limits", parents=[shared], help="spherical and parabolic degenerations")
    p.add_argument("--a-small", dest="a_small", type=float, default=1e-8)
    p.add_argument("--a-large", dest="a_large", type=float, default=1e6)
    sub.add_parser("verify", parents=[shared], help="full cross-oracle suite for one sector")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)  # None, or verify's failed-check code
    except Micz9Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
