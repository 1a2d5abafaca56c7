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

Exit codes: 0 success or -h/--help, 2 validation (quantum numbers, or a bad flag as one named
ValidationError line), 3 numerical failure, 4 internal breach, 141 if stdout closes early.
A sweep on a grid too coarse to follow the eigenvectors is no failure: its branches are labelled
by ascending order and it reports its least overlap as min_branch_overlap, where an overlap of
0.9 or less once exited 3 (3 -> 0 for, e.g., a 200-point 0.01..1000 log sweep of n = 40).
"""

from __future__ import annotations

import decimal
import functools
import json
import math
import os
import sys
import types
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


@functools.cache
def _fmt_tables():
    """The constant tables of _fmt_fields, built at its first call."""
    import numpy as np
    v = np.arange(10000)
    groups = np.zeros((10000, 8), np.uint8)  # v's 4 digits, each followed by an empty slot
    groups[:, 0::2] = 48 + v[:, None] // [1000, 100, 10, 1] % 10
    zeros = (v % 10 == 0) * 1 + (v % 100 == 0) + (v % 1000 == 0) + (v == 0)  # v's trailing 0s
    head = np.zeros((20, 10, 8), np.uint8)  # word 0 by X = -4 .. 15 and d0 = 0 .. 9
    head[:, :, 6] = 48 + np.arange(10)
    for X in range(-4, 0):
        head[X + 4, :, 1 : 2 - X] = np.frombuffer(b"0.000"[: 1 - X], np.uint8)
    point = np.array([2] * 4 + [7 + 2 * X for X in range(16)])  # the point's byte by X + 4
    masks = np.array([[(1 << 8 * min(max(k + 1 - 8 * w, 0), 8)) - 1 for k in range(39)]
                      for w in range(5)], np.uint64)  # [w, k]: word w's bytes up to byte k
    pow10 = 10.0 ** np.arange(23)  # exact
    return pow10, groups.view("<u8").ravel(), zeros, head.view("<u8").ravel(), point, masks


def _fmt_product(a, e):
    """(p, err) with p + err = a 10^e exactly, 0 <= e <= 22: Dekker's product."""
    c = _fmt_tables()[0].take(e)
    (a_hi, a_lo), (c_hi, c_lo) = _split(a), _split(c)
    p = a * c
    return p, ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits, a = hi + lo."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _at_least(p, err, bound: float):
    """p + err >= bound exactly, for p the rounded sum and a float bound."""
    return (p > bound) | (p == bound) & (err >= 0)


def _fmt_fields(x):
    """An (n, 40) uint8 block whose row i, NULs dropped, is "%.17g" % x.flat[i]: _fmt's text.

    1e-4 <= |v| < 1e16 is the range %.17g writes in fixed notation, and
    there the text is built exactly.  X = floor(log10 |v|) is checked, and
    corrected if one off, by the exact product p + err = |v| 10^(16 - X),
    which must lie in [1e16, 1e17).  D = p + rint(err) is then the
    correctly rounded 17-digit integer, ties to even as p is even, and its
    digits come from a table of 4-digit groups.  The row is 5 little-endian
    words: the sign, "0.000" for X < 0 (cut to "0." and -X-1 zeros), then
    d0 .. d16, each with a slot after it, NUL but for the point after d_X.
    Where d16 is 0, the fraction's trailing zeros, and the point if nothing
    follows it, are masked to NUL.  Every other value (0, -0, subnormals,
    inf, nan and |v| outside the range) is written by "%.17g" % v itself.
    """
    import numpy as np
    _, groups, zeros, head, point, masks = _fmt_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)  # false at nan; the float 1e-4 is above 10^-4
    a[~fast] = 2.0  # a value whose D is no power of ten
    X = np.floor(np.log10(a)).astype(np.int64)
    p, err = _fmt_product(a, 16 - X)
    D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    odd = np.flatnonzero((D <= 10**16) | (D >= 10**17))
    if odd.size:  # X one off, or |v| at a power of ten
        p, err = p[odd], err[odd]
        X[odd] += _at_least(p, err, 1e17) * 1 - ~_at_least(p, err, 1e16)  # +1, 0 or -1
        p, err = _fmt_product(a[odd], 16 - X[odd])
        D[odd] = p.astype(np.int64) + np.rint(err).astype(np.int64)
        # in range now, and short of 10^17: no float here rounds up to 10^(X + 1) at 17 digits
        fast[odd] &= _at_least(p, err, 1e16) & ~_at_least(p, err, 1e17) & (D[odd] < 10**17)
    slow = np.flatnonzero(~fast)
    X[slow], D[slow] = 0, 10**16
    lead, rest = np.divmod(D, 10**16)
    hi, lo = np.divmod(rest, 10**8)
    g = np.divmod(hi, 10**4) + np.divmod(lo, 10**4)  # d1 .. d16 in four groups
    out = np.empty((x.size, 5), np.uint64)
    head.take(lead + 10 * (X + 4), out=out[:, 0], mode="clip")
    for w in range(4):
        groups.take(g[w], out=out[:, w + 1], mode="clip")
    block = out.view(np.uint8)
    block[:, 0] = np.signbit(x) * 45
    block.ravel()[point.take(X + 4) + np.arange(0, block.size, 40)] = 46
    trim = np.flatnonzero(g[3] % 10 == 0)
    if trim.size:  # d16 = 0: keep d0 .. d_max(L, X), L the last nonzero digit
        L = np.zeros(trim.size, np.int64)
        for w in range(4):
            gw = g[w][trim]
            L = np.where(gw != 0, 4 + 4 * w - zeros.take(gw), L)
        out[trim] &= masks.take(6 + 2 * np.maximum(L, X[trim]), axis=1).T  # NUL after d_max
    if slow.size:
        text = [b"%.17g" % v for v in x[slow].tolist()]
        block[slow] = np.array(text, dtype="S40").view(np.uint8).reshape(-1, 40)
    return block


def _joined(columns) -> str:
    """Rows of text, the columns side by side with their NULs dropped, in one bytes.translate.

    A str column is the same in every row.  An array column holds bytes
    on its last axis, and its other axes broadcast to the rows' shape.
    """
    import numpy as np
    columns = [np.frombuffer(c.encode(), np.uint8) if isinstance(c, str) else c for c in columns]
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    width = sum(c.shape[-1] for c in columns)
    text = bytearray(math.prod(shape) * width)
    rows, at = np.frombuffer(text, np.uint8).reshape(*shape, width), 0
    for c in columns:
        rows[..., at : at + c.shape[-1]] = c
        at += c.shape[-1]
    return text.translate(None, b"\0").decode("ascii")


def _fmt_array(x):
    """_fmt of each entry of a float array, an object array of str.

    These are the lines of _fmt_fields, which builds the text of
    1e-4 <= |v| < 1e16 itself and leaves any other value to "%.17g" % v.
    """
    import numpy as np
    lines = _joined([_fmt_fields(x), "\n"]).splitlines()
    return np.array(lines, dtype=object).reshape(np.shape(x))


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


def _to_aZ(a, s: sector.Sector):
    """a, float or array, finite and positive, as aZ, refused if that is subnormal or overflows."""
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):  # checked just below
        aZ = a * float(s.Z)
    bad = ~((aZ >= sys.float_info.min) & (aZ < math.inf))
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


def _eigen_errors(spectrum):
    """max |K(a) T - T diag(K)| and max |T^T T - 1| of a spectrum, or per matrix of a stack."""
    import numpy as np
    T = spectrum.T
    resid = np.abs(spectrum.matrix.matvec(T) - T * spectrum.K[..., None, :]).max(axis=(-2, -1))
    ortho = np.abs(np.swapaxes(T, -1, -2) @ T - np.eye(T.shape[-1])).max(axis=(-2, -1))
    return resid, ortho


def cmd_kspectrum(args, s) -> None:
    spectrum = spheroidal.separation_constants(s, _to_aZ(args.a, s))
    resid, ortho = _eigen_errors(spectrum)
    payload = {
        "a": _fmt(args.a),
        "K": _fmt_array(spectrum.K).tolist(),
        "T_columns_by_nk": _fmt_array(spectrum.T.T).tolist(),
        "residual_inf": _fmt(resid),
        "orthogonality_error": _fmt(ortho),
    }
    _emit("kspectrum", s, "float", payload)


def cmd_tcoeffs(args, s) -> None:
    spectrum = spheroidal.separation_constants(s, _to_aZ(args.a, s))
    T = spheroidal.t_by_continuant(spectrum.matrix, spectrum.K)
    # each field of every branch in one _fmt_array call: the K column, the T columns, and
    # each column's difference from the eigh column (the key is part of the output schema)
    fields = zip(_fmt_array(spectrum.K).tolist(), _fmt_array(T.T).tolist(),
                 _fmt_array(abs(T - spectrum.T).max(axis=0)).tolist())
    branches = [{"n_k": n_k, "K": K, "T_continuant": col, "max_diff_vs_inverse_iteration": diff}
                for n_k, (K, col, diff) in enumerate(fields)]
    _emit("tcoeffs", s, "float", {"a": _fmt(args.a), "branches": branches})


def _write_sweep_csv(grid, K, K_over_a) -> None:
    """The sweep's CSV on stdout, formatted and written a chunk of grid points at a time.

    A chunk holds at most _CSV_CHUNK_ROWS rows (one, if a single point has
    more), so the text stays bounded however long the grid.  One
    _fmt_fields call writes the chunk's a values, then its K and K/a
    interleaved (1e-4 <= |v| < 1e16 by its own exact digits, any other v
    by "%.17g" % v), and _joined lays each row out of the a field, ",n_k,",
    the K field, ",", the K/a field and a newline: 128 bytes before the
    NULs go.
    """
    import numpy as np
    n = K.shape[1]
    step = max(1, _CSV_CHUNK_ROWS // n)
    # n_k < 2896 as points x N^2 <= SWEEP_MAX_ENTRIES with 2 points, so ",n_k," fits 6 bytes
    labels = np.array([f",{k}," for k in range(n)], dtype="S6").view(np.uint8).reshape(n, 6)
    sys.stdout.write("a,n_k,K,K_over_a\n")
    for lo in range(0, len(grid), step):
        a = grid[lo : lo + step]
        pairs = np.stack([K[lo : lo + step], K_over_a[lo : lo + step]], axis=-1)
        fields = _fmt_fields(np.concatenate([a, pairs.ravel()]))
        K_s, ratio_s = np.moveaxis(fields[a.size :].reshape(a.size, n, 2, 40), 2, 0)
        sys.stdout.write(_joined([fields[: a.size, None], labels, K_s, ",", ratio_s, "\n"]))


def _sweep_points(pads, *columns):
    """One branch's points as _render writes them at pads[0], with _fmt's text, in chunks."""
    import numpy as np
    sep = ",\n" + pads[0]
    # the text around a point's three values, sep before it but for the first point
    pieces = (sep + _render(dict.fromkeys(("a", "K", "K_over_a"), "%s"), pads[0])).split("%s")
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        fields = _fmt_fields(np.stack([x[lo : lo + _CSV_CHUNK_ROWS] for x in columns], axis=1))
        a, K, ratio = fields.reshape(-1, 3, 40).swapaxes(0, 1)
        text = _joined([pieces[0], a, pieces[1], K, pieces[2], ratio, pieces[3]])
        yield text if lo else text[len(sep) :]


def cmd_sweep(args, s) -> None:
    import numpy as np
    if not args.a_min < args.a_max:
        raise ValidationError("sweep needs --a-min < --a-max")
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


def _limit_distance(s, which: str, given, default):
    """(a, aZ) of a limit: the given flag's, or the default aZ that default() gives, at a = aZ/Z."""
    if given is not None:
        aZ = _to_aZ(given, s)
        if which == "parabolic" and not aZ >= spheroidal.PARABOLIC_MIN_AZ:  # before any solve
            raise ValidationError(f"a_large Z = {given} * {sector._short(s.Z)} must be at least 1e4")
        return given, aZ
    aZ = default()
    if not (float(s.Z) and math.isfinite(aZ / float(s.Z))):
        raise ValidationError(
            f"the {which} limit distance at Z = {sector._short(s.Z)} is not finite")
    return aZ / float(s.Z), aZ


def cmd_limits(args, s) -> None:
    W = functools.cache(interbasis.w_matrix)  # built at first use: a refused flag builds no W
    a_small, aZ_small = _limit_distance(s, "spherical", args.a_small,
                                        lambda: spheroidal.SPHERICAL_AZ)
    a_large, aZ_large = _limit_distance(s, "parabolic", args.a_large,
                                        lambda: spheroidal.parabolic_distance(W(s)))
    both = spheroidal.separation_constants(s, [aZ_small, aZ_large])
    sph = spheroidal.check_spherical_limit(both[0])
    par = spheroidal.check_parabolic_limit(W(s), both[1])
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
    resid, ortho = _eigen_errors(eig)
    worst_resid = float((resid / np.maximum(eig.matrix.norm(), 1e-300)).max())
    worst_ortho = float(ortho.max())
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


_SECTOR = {  # flag: (dest, int, float, str or a tuple of choices, default or ... if required, help)
    "--n": ("n", int, ..., "principal quantum number"),
    "--Q": ("Q", int, ..., "monopole charge quantum number"),
    "--L": ("L", int, ..., "first angular eigenvalue label"),
    "--J": ("J", int, ..., "second angular eigenvalue label"),
    "--Z": ("Z", str, "1", "electric charge, rational like 1 or 2/5"),
}
_TWO_MODES = {**_SECTOR, "--mode": ("mode", ("exact", "float"), "exact", "")}
_FLOAT_ONLY = {**_SECTOR, "--mode": ("mode", ("float",), "float", "")}  # K(a) needs a real a
_AT_A = {**_FLOAT_ONLY, "--a": ("a", float, ..., "focal distance (> 0)")}
COMMANDS = {  # command: (handler run(args, s), help, the flags it reads)
    "states": (cmd_states, "sector constants and label ranges", _TWO_MODES),
    "wmatrix": (cmd_wmatrix, "spherical-parabolic transformation matrix", _TWO_MODES),
    "m9": (cmd_m9, "ninth Runge-Lenz matrix in the spherical basis", _TWO_MODES),
    "kspectrum": (cmd_kspectrum, "spheroidal separation constants", _AT_A),
    "tcoeffs": (cmd_tcoeffs, "coefficient columns by continuant", _AT_A),
    "sweep": (cmd_sweep, "branch sweep over a grid of a values", {
        **_FLOAT_ONLY, "--a-min": ("a_min", float, ..., ""), "--a-max": ("a_max", float, ..., ""),
        "--points": ("points", int, 2, f"2 to {SWEEP_MAX_ENTRIES} / N^2"),
        "--log": ("log", None, False, "logarithmic grid; takes no value"),
        "--format": ("format", ("record", "csv"), "record", "")}),
    "limits": (cmd_limits, "spherical and parabolic degenerations", {
        **_FLOAT_ONLY, "--a-small": ("a_small", float, None, "default: aZ = 1e-8"),
        "--a-large": ("a_large", float, None, "default: parabolic_distance")}),
    "verify": (cmd_verify, "full cross-oracle suite for one sector", _SECTOR),
}


def _help(command) -> str:
    """The command list, or a command's flags with their values, defaults and help texts."""
    if command not in COMMANDS:
        return "usage: micz9 COMMAND --n N --Q Q --L L --J J [--FLAG VALUE ...]\n\ncommands:\n" + \
            "".join(f"  {name:<10} {text}\n" for name, (_, text, _) in COMMANDS.items())
    lines = [f"usage: micz9 {command} --FLAG VALUE | --FLAG=VALUE ...\n\n{COMMANDS[command][1]}\n"]
    for flag, (dest, kind, default, text) in COMMANDS[command][2].items():
        value = dest.upper() if callable(kind) else "{%s}" % ",".join(kind) if kind else ""
        if default is not None:
            text += " (required)" if default is ... else f" (default: {default})"
        lines.append(f"  {flag:<9} {value:<14} {text.strip()}")
    return "\n".join(lines) + "\n"


def _parse(argv: list) -> types.SimpleNamespace:
    """argv against COMMANDS; a ValidationError names the command and the flag or value."""
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {sector._clip(repr(argv[0]))}" if argv else "no command"
        raise ValidationError(f"{given}: give one of {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    run, _, flags = COMMANDS[command]
    args = {dest: default for dest, _, default, _ in flags.values()}
    for token in tokens:  # --flag value or --flag=value; the last of a repeated flag wins
        flag, eq, value = token.partition("=")
        dest, kind, _, _ = flags.get(flag, (None,) * 4)
        if dest is None or kind is None and eq:  # not read, abbreviated, or --log=...
            raise ValidationError(f"{command} does not read {sector._clip(repr(token))}")
        if kind is None:  # --log
            args[dest] = True
            continue
        value = value if eq else next(tokens, None)  # taken as it is, even with a leading -
        if value is None:
            raise ValidationError(f"{command} {flag} needs a value")
        try:  # int, float or str, or one of a tuple of choices
            args[dest] = kind(value) if callable(kind) else kind[kind.index(value)]
        except ValueError:
            wanted = kind.__name__ if callable(kind) else f"one of {', '.join(kind)}"
            raise ValidationError(
                f"{command} cannot read {flag} {sector._clip(repr(value))} as {wanted}") from None
        if kind is float and not 0 < args[dest] < math.inf:  # every float flag is a focal distance
            raise ValidationError(f"{command} needs {flag} > 0" if math.isfinite(args[dest])
                                  else f"{command} {flag} = {args[dest]} must be finite")
    missing = [flag for flag, (dest, *_) in flags.items() if args[dest] is ...]
    if missing:
        raise ValidationError(f"{command} needs {' '.join(missing)}")
    return types.SimpleNamespace(command=command, run=run, **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:  # anywhere, even as a flag's value
            sys.stdout.write(_help(argv[0]))
            code = None
        else:  # the flags, then the sector, then the command's own checks
            args = _parse(argv)
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
