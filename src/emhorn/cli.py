"""Command-line front end.

Subcommands construct spaces, list levels, decide horns, run sweeps, and
reproduce the no-filler certificate over the naturals.  Output is plain
text or JSON; identical invocations produce byte-identical output.

Exit codes: 0 when a filler is found or a sweep passes (and for the
counterexample command, which asserts the negative); 1 when no filler
exists or a sweep finds a counterexample; 2 for usage and validation
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import em, horn, monoid
from .monoid import CommutativeMonoid, UndecidableError

DEFAULT_DIM = 4
DEFAULT_BOUND = 3


def parse_monoid(spec: str) -> CommutativeMonoid:
    if spec == "nat":
        return monoid.nat()
    if spec == "int":
        return monoid.int_group()
    if spec == "trivial":
        return monoid.trivial()
    cyclic = re.fullmatch(r"cyclic:([0-9]+)", spec)
    if cyclic:
        return monoid.cyclic(int(cyclic.group(1)))
    if spec.startswith("table:"):
        return monoid.load_table(spec.split(":", 1)[1])
    raise ValueError(
        f"unknown monoid spec {spec!r}; use nat, int, cyclic:m, trivial or table:<file>"
    )


def _parse_values(body: str, space: em.EMSpace) -> tuple:
    body = body.strip()
    return tuple(space.monoid.parse_element(tok.strip()) for tok in body.split(",")) if body else ()


_SIMPLEX_RE = re.compile(r"^level:(\d+)\s*\[(.*)\]$")


def parse_simplex(text: str, space: em.EMSpace) -> em.EMSimplex:
    m = _SIMPLEX_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed simplex literal {text!r}; expected 'level:k [v1,v2,...]'")
    return space.simplex(int(m.group(1)), _parse_values(m.group(2), space))


_FACE_RE = re.compile(r"^(\d+):\[(.*)\]$")


def parse_face(text: str, space: em.EMSpace, level: int) -> tuple[int, em.EMSimplex]:
    m = _FACE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed face literal {text!r}; expected 'i:[v1,v2,...]'")
    return int(m.group(1)), space.simplex(level, _parse_values(m.group(2), space))


def _emit_json(data: dict) -> None:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_enumerate(args) -> int:
    M = parse_monoid(args.monoid)
    dim, level = args.dim, args.level
    K = em.EMSpace(M, args.n, dim)
    levels = [level] if level is not None else list(range(dim + 1))
    sphere = args.n >= 1  # its level-k cells: the basepoint and K's level-k generators
    if args.format == "json":
        data = {
            "space": K.name,
            "dim": dim,
            "sphere": {str(k): ["*", *K.gen_names(k)] for k in levels} if sphere else None,
            "levels": [
                {
                    "level": k,
                    "monoid": M.name,
                    "rank": K.rank(k),
                    "generators": K.gen_names(k),
                }
                for k in levels
            ],
        }
        _emit_json(data)
        return 0
    if level is not None:
        k = level
        if sphere:
            print(f"S^{args.n}[{k}]: " + " ".join(["*", *K.gen_names(k)]))
        print(f"{K.name}[{k}] = {M.name}^{K.rank(k)}")
        print("generators: " + (" ".join(K.gen_names(k)) or "(none)"))
    else:
        if sphere:
            print(f"S^{args.n} levels up to dimension {dim}:")
            for k in range(dim + 1):
                print(f"{k}: " + " ".join(["*", *K.gen_names(k)]))
        print(f"{K.name} levels:")
        for k in range(dim + 1):
            gens = " ".join(K.gen_names(k))
            suffix = f"  generators: {gens}" if gens else ""
            print(f"{k}: {M.name}^{K.rank(k)}{suffix}")
    return 0


def cmd_faces(args) -> int:
    M = parse_monoid(args.monoid)
    K = em.EMSpace(M, args.n, args.dim)
    x = parse_simplex(args.simplex, K) if args.simplex is not None else None
    k = x.level if x is not None else args.level if args.level is not None else args.dim
    if not 1 <= k <= args.dim:
        raise ValueError(f"faces need a level in 1..{args.dim}, got {k}")
    if x is not None:
        results = {i: K.face(x.level, i, x) for i in range(x.level + 1)}
        if args.format == "json":
            _emit_json(
                {
                    "space": K.name,
                    "simplex": list(x.coords),
                    "level": x.level,
                    "faces": {str(i): list(y.coords) for i, y in results.items()},
                }
            )
        else:
            print(f"simplex: {K.render_simplex(x)}")
            for i, y in results.items():
                print(f"d{i} -> {K.render_simplex(y)}")
        return 0
    lower = K.gen_names(k - 1)
    upper = K.gen_names(k)
    table = {
        i: {
            lower[pos]: [upper[v] for v in vars_]
            for pos, vars_ in enumerate(K.face_fibers(k, i))
        }
        for i in range(k + 1)
    }
    if args.format == "json":
        _emit_json({"space": K.name, "level": k, "fibers": {str(i): t for i, t in table.items()}})
    else:
        print(f"faces at level {k} of {K.name}:")
        for i in range(k + 1):
            if not lower:
                print(f"d{i}: (trivial target level)")
                continue
            parts = [
                f"{g} <- " + (" + ".join(srcs) if srcs else "0")
                for g, srcs in table[i].items()
            ]
            print(f"d{i}: " + "; ".join(parts))
    return 0


def cmd_check_horn(args) -> int:
    if args.dim < 0:  # before max(args.dim, n) below can hide it
        raise ValueError("degree and dimension bound must be non-negative")
    M = parse_monoid(args.monoid)
    try:
        n_str, k_str = args.horn.split(",")
        hn, hk = int(n_str), int(k_str)
    except ValueError:
        raise ValueError(f"malformed --horn {args.horn!r}; expected 'n,k'") from None
    K = em.EMSpace(M, args.n, max(args.dim, hn))
    faces = {}
    for literal in args.faces:
        i, x = parse_face(literal, K, hn - 1)
        if i in faces:
            raise ValueError(f"face {i} given twice")
        faces[i] = x
    problem = horn.HornProblem(K, hn, hk, faces)
    result = horn.solve_em(horn.build_constraints(K, problem))
    if args.format == "json":
        _emit_json(horn.certificate_json(problem, result))
        return 0 if result.found else 1
    print(f"horn {problem.describe()}")
    for i, x in sorted(faces.items()):
        print(f"face {i}: {K.render_simplex(x)}")
    if result.found:
        y = result.filler
        print(f"filler: {K.render_simplex(y)}")
        for i, x in sorted(faces.items()):
            got = K.face(hn, i, y)
            print(f"verified: d{i} -> [{','.join(M.render(c) for c in got.coords)}] matches face {i}")
        return 0
    for step in result.steps:
        print(horn.step_line(step, M))
    print("no filler exists")
    return 1


def cmd_sweep(args) -> int:
    if args.unique and args.kind == "kan":
        raise ValueError("--unique applies to quasicategory sweeps only")
    K = em.EMSpace(parse_monoid(args.monoid), args.n, args.dim)
    if args.kind == "quasicategory":
        report = horn.sweep_quasicategory(K, args.dim, bound=args.bound, check_unique=args.unique)
    else:
        report = horn.sweep_kan(K, args.dim, bound=args.bound)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_counterexample(args) -> int:
    report = horn.quasicategory_counterexample(args.f0)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        for line in report.lines():
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emhorn",
        description="Eilenberg-MacLane simplicial monoids and horn filling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dim_default=DEFAULT_DIM):
        p.add_argument("--monoid", default="nat", help="nat | int | cyclic:m | trivial | table:<file>")
        p.add_argument("--n", type=int, default=2, help="degree of the space (default 2)")
        p.add_argument("--dim", type=int, default=dim_default, help=f"truncation dimension (default {dim_default})")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("enumerate", help="list sphere cells, generators and level monoids")
    common(p)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("faces", help="show face fibers, or evaluate faces of a simplex")
    common(p)
    what = p.add_mutually_exclusive_group()  # a simplex literal names its own level
    what.add_argument("--level", type=int, default=None)
    what.add_argument("--simplex", default=None, help="simplex literal 'level:k [v1,v2,...]'")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("check-horn", help="decide one horn-filling problem")
    common(p)
    p.add_argument("--horn", required=True, help="horn as 'n,k'")
    p.add_argument("--faces", required=True, nargs="+", help="face literals 'i:[v1,v2,...]'")
    p.set_defaults(func=cmd_check_horn)

    p = sub.add_parser("sweep", help="decide every compatible horn up to a dimension")
    common(p, dim_default=3)
    p.add_argument("--kind", choices=["quasicategory", "kan"], default="quasicategory")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND, help="coordinate bound for infinite monoids")
    p.add_argument("--unique", action="store_true", help="also check fillers are unique (quasicategory only)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "paper-counterexample",
        help="certify the inner 3-horn over the naturals that has no filler",
    )
    p.add_argument("--f0", type=int, default=0, help="value of the free 0-face")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, UndecidableError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
