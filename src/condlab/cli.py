"""Command-line front end: run the engines, persist reports, drive batches.

Exit codes are pinned for scripting: 0 success, 1 usage or parse error,
2 budget refusal, 3 internal invariant violation. All randomness flows
from the --seed flag through ``random.Random`` (Mersenne Twister), so
every command is reproducible. --threads is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys

from . import conductance as cond_mod
from . import condenser as condenser_mod
from .boxes import QBox, image_of_box, random_box
from .errors import BudgetError, CondlabError, TableFormatError, finite_at_least
from .gf2n import MAX_DEGREE, selfcheck
from .perms import (
    KINDS,
    TRIPLE_KINDS,
    PermutationSpec,
    WordVector,
    load_table_file,
    parse_header,
    parse_hex,
    random_table,
    verify_bijective,
    write_table_file,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the pinned code is 1
    def error(self, message):
        raise _UsageError(message)


def _collect_config(args, *, need_eps=()) -> None:
    """Validate ``args`` in place, aggregating every issue into one error.

    The flags a subcommand defines say what it needs: --q/--alpha-n a side
    size, --spec a spec, and --w without --spec a width. The derived values
    are filled in: ``q`` and ``alpha_n`` from each other, and ``w = 3`` for
    the triple kinds.
    """
    issues = []
    for name in need_eps:
        value = getattr(args, name)
        if value is None:
            issues.append(f"--{name} is required")
        elif not finite_at_least(value, 0):
            issues.append(f"--{name} must be nonnegative")

    n, w = args.n, getattr(args, "w", None)
    if n is not None and not 1 <= n <= MAX_DEGREE:
        issues.append(f"--n must be in 1..{MAX_DEGREE}, got {n}")
    if w is not None and w < 1:
        issues.append(f"--w must be at least 1, got {w}")
    threads = getattr(args, "threads", 1)
    if threads < 1:
        issues.append(f"--threads must be at least 1, got {threads}")
    for name in ("trials", "count", "budget"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            issues.append(f"--{name.replace('_', '-')} must be nonnegative, got {value}")

    if hasattr(args, "q"):
        q, alpha_n = args.q, args.alpha_n
        if q is None and alpha_n is None:
            issues.append("one of --q or --alpha-n is required")
        elif q is not None and alpha_n is not None:
            issues.append("--q and --alpha-n are mutually exclusive")
        else:
            if q is not None:
                if q < 1:
                    issues.append(f"--q must be at least 1, got {q}")
                else:
                    args.alpha_n = math.log2(q)
            else:
                size = condenser_mod.side_size(alpha_n)
                if math.isinf(size):
                    issues.append(f"--alpha-n {alpha_n} gives a side size 2^{alpha_n} out of range")
                elif not isinstance(size, int):
                    issues.append(f"--alpha-n {alpha_n} gives a non-integer side size 2^{alpha_n}")
                else:
                    args.q = size
            if args.q is not None and n is not None and args.q > (1 << n):
                issues.append(f"--q {args.q} exceeds the alphabet size 2^{n}")

    if hasattr(args, "spec"):
        kind = args.spec
        if kind == "table" and not args.table_file:
            issues.append("--table-file is required for table specs")
        if kind != "table" and n is None:
            issues.append(f"--n is required for --spec {kind}")
        if kind in TRIPLE_KINDS:
            if w not in (None, 3):
                issues.append(f"--spec {kind} requires --w 3")
            args.w = 3
        elif kind == "piw" and w is not None and w < 3:
            issues.append("--spec piw requires --w of at least 3")
        elif kind != "table" and w is None:
            issues.append(f"--w is required for --spec {kind}")
    elif hasattr(args, "w") and w is None:
        issues.append("--w is required")

    if issues:
        raise _UsageError("invalid configuration: " + "; ".join(issues))


def _build_spec(args) -> PermutationSpec:
    kind = args.spec
    if kind == "random":
        return random_table(args.seed, args.n, args.w)
    if kind == "table":
        spec = load_table_file(args.table_file)
        # the file fixes the shape; compare only the flags that were given
        flags = {k: v for k, v in (("n", args.n), ("w", args.w)) if v is not None}
        if any(getattr(spec, k) != v for k, v in flags.items()):
            said = ", ".join(f"{k}={v}" for k, v in flags.items())
            raise _UsageError(
                f"table file has shape (n={spec.n}, w={spec.w}), flags say ({said})"
            )
        q = getattr(args, "q", None)
        if q is not None and q > (1 << spec.n):
            raise _UsageError(
                f"invalid configuration: --q {q} exceeds the alphabet size 2^{spec.n}"
            )
        return spec
    return PermutationSpec(kind, args.n, args.w)


def _maybe_warn_composite(spec: PermutationSpec):
    if spec.assumes_prime_degree:
        print(
            f"note: {spec.kind} guarantees assume a prime degree; n={spec.n} "
            "is composite",
            file=sys.stderr,
        )


def _given(**flags) -> dict:
    """The flags that were given; the library holds the other defaults."""
    return {k: v for k, v in flags.items() if v is not None}


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_point(text: str, n: int, w: int) -> WordVector:
    try:
        words = tuple(map(parse_hex, text.split(",")))
    except ValueError:
        words = ()
    if len(words) != w:
        raise _UsageError(f"point needs {w} comma-separated hex words")
    return WordVector(words, n)


# --- box files --------------------------------------------------------------
#
# Format: header `condlab-box v1 n=<n> w=<w> q=<q>`, then w lines of q
# space-separated hex values (one line per side).


def write_box_file(box: QBox, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"condlab-box v1 n={box.n} w={box.w} q={box.q}\n")
        for side in box.sides:
            fh.write(" ".join(f"{v:x}" for v in side) + "\n")


def load_box_file(path) -> QBox:
    with open(path, errors="replace") as fh:
        n, w, q = parse_header(fh.readline().rstrip("\n"), "condlab-box", ("n", "w", "q"))
        sides = []
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text:
                continue
            try:
                values = [parse_hex(t) for t in text.split()]
            except ValueError:
                raise TableFormatError(f"not hex values: {text!r}", line=lineno)
            if len(values) != q:
                raise TableFormatError(
                    f"side has {len(values)} values, expected {q}", line=lineno
                )
            if len(set(values)) != q:
                raise TableFormatError("duplicate value in side", line=lineno)
            if max(values) >= 1 << n:  # hex digits carry no sign
                raise TableFormatError("side value out of range", line=lineno)
            sides.append(tuple(sorted(values)))
        if len(sides) != w:
            raise TableFormatError(f"expected {w} sides, found {len(sides)}")
    return QBox(tuple(sides), n)


# --- subcommands ------------------------------------------------------------


def cmd_field_selfcheck(args) -> int:
    _collect_config(args)
    report = selfcheck(args.n, seed=args.seed)
    print(
        f"field n={report['n']} poly={report['poly']:#x} mode={report['mode']} "
        f"triples={report['triples_checked']} inverses={report['inverses_checked']} ok=yes"
    )
    return EXIT_OK


def cmd_perm_verify(args) -> int:
    _collect_config(args)
    spec = _build_spec(args)
    _maybe_warn_composite(spec)
    report = verify_bijective(spec)
    if report.bijective:
        print(f"bijective=yes checked={report.checked}")
    else:
        a, b = report.collision
        print(f"bijective=no witness={a:#x},{b:#x} checked={report.checked}")
    if args.out:
        _write_json(args.out, dataclasses.asdict(report))
    return EXIT_OK


def cmd_perm_eval(args, inverse: bool = False) -> int:
    _collect_config(args)
    spec = _build_spec(args)
    point = _parse_point(args.point, spec.n, spec.w)
    result = spec.invert(point) if inverse else spec.eval(point)
    print(",".join(f"{wd:x}" for wd in result.words))
    return EXIT_OK


def cmd_perm_export(args) -> int:
    _collect_config(args)
    spec = _build_spec(args)
    write_table_file(spec, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cond(args) -> int:
    _collect_config(args)
    spec = _build_spec(args)
    _maybe_warn_composite(spec)
    if args.mode == "exact":
        report = cond_mod.exact_conductance(spec, args.q, **_given(
            outer_budget=args.budget, checkpoint_path=args.checkpoint))
    else:
        report = cond_mod.heuristic_lower_bound(spec, args.q, seed=args.seed,
                                                **_given(budget=args.budget))
    if args.out:
        _write_json(args.out, report.to_json_dict())
    print(f"condd={report.condd:.12g} mode={report.mode} witnesses=yes")
    return EXIT_OK


def cmd_decompose(args) -> int:
    _collect_config(args, need_eps=("eps1", "eps2", "eps3"))
    spec = _build_spec(args)
    _maybe_warn_composite(spec)

    if args.box_file:
        box = load_box_file(args.box_file)
        if (box.n, box.w, box.q) != (spec.n, spec.w, args.q):
            raise _UsageError(f"box file shape (n={box.n}, w={box.w}, q={box.q}) does "
                              "not match the requested parameters")
        boxes = [box]
    else:
        rng = random.Random(args.box_seed)
        boxes = [random_box(rng, spec.n, args.q, spec.w)[1] for _ in range(args.trials)]

    runs = []
    for box in boxes:
        img = image_of_box(spec, box)
        dec = condenser_mod.decompose(img, args.alpha_n, args.eps1, args.eps2)
        verdict = condenser_mod.verify_converse_bounds(dec, args.eps3)
        runs.append({
            "box": [list(s) for s in box.sides],
            "decomposition": dec.to_json_dict(),
            "bounds": verdict.to_json_dict(),
        })
    payload = {"spec": spec.digest(), "runs": runs}
    if args.out:
        _write_json(args.out, payload)
    print(f"decomposed {len(runs)} box(es)")
    return EXIT_OK


def cmd_condenser_profile(args) -> int:
    _collect_config(args, need_eps=("eps1", "eps2"))
    spec = _build_spec(args)
    _maybe_warn_composite(spec)
    profile = condenser_mod.empirical_condenser_profile(
        spec, args.alpha_n, args.eps1, args.eps2, args.trials, args.seed,
    )
    if args.out:
        _write_json(args.out, profile.to_json_dict())
    if profile.trials:
        met = profile.all_targets_met
        print(
            f"trials={len(profile.trials)} worst_gamma={profile.worst_gamma:.6g} "
            f"mean_gamma={profile.mean_gamma:.6g} "
            f"targets_met={'n/a' if met is None else 'yes' if met else 'no'}"
        )
    else:
        print("trials=0")
    return EXIT_OK


def cmd_bounds(args) -> int:
    _collect_config(args)
    sheet = cond_mod.bound_sheet(
        args.n, args.w, args.q, eps1=args.eps1, eps2=args.eps2, c=args.c
    )
    payload = sheet.to_json_dict()
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_experiment(args) -> int:
    _collect_config(args)
    try:
        w_list = [int(t) for t in args.w_list.split(",") if t]
    except ValueError:
        w_list = []
    if not w_list or any(w < 1 for w in w_list):
        raise _UsageError(f"bad --w-list {args.w_list!r}")

    header = [
        "row", "spec", "seed", "n", "w", "q", "alpha", "max_count", "condd",
        "condenser_bound", "repetition_bound", "random_perm_bound",
        "random_perm_precondition_ok", "precondition_agree",
        "min_condd", "mean_condd", "max_condd",
    ]
    lines = [",".join(header)]
    rng = random.Random(args.seed)
    for w in w_list:
        sheet = cond_mod.bound_sheet(args.n, w, args.q, eps1=args.eps1, eps2=args.eps2,
                                     c=args.c)
        shared = [
            _fmt(sheet.condenser_bound), _fmt(sheet.repetition_bound),
            _fmt(sheet.random_perm_bound),
            _fmt(sheet.random_perm_precondition_ok),
            _fmt(sheet.precondition_agree),
        ]
        degrees = []

        def emit(row, name, seed, report):
            degrees.append(report.condd)
            lines.append(",".join(
                [row, name, _fmt(seed), str(args.n), str(w), str(args.q),
                 _fmt(report.alpha), str(report.max_count), _fmt(report.condd)]
                + shared + ["", "", ""]
            ))

        control = cond_mod.exact_conductance(
            PermutationSpec.identity(args.n, w), args.q
        )
        emit("control", "identity", None, control)
        for _ in range(args.count):
            table_seed = rng.randrange(2 ** 32)
            spec = random_table(table_seed, args.n, w)
            report = cond_mod.exact_conductance(spec, args.q)
            emit("perm", "random", table_seed, report)
        lines.append(",".join(
            ["summary", "", "", str(args.n), str(w), str(args.q), "", "", ""]
            + [""] * 5
            + [_fmt(min(degrees)), _fmt(sum(degrees) / len(degrees)),
               _fmt(max(degrees))]
        ))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- parser wiring ------------------------------------------------------------


def _add_common(p, *, n=True, w=True, seed=False, threads=False, out=False, side=False):
    if n:
        p.add_argument("--n", type=int, required=True, help="field degree")
    if w:
        p.add_argument("--w", type=int, help="number of words")
    if side:
        p.add_argument("--q", type=int, help="side size")
        p.add_argument("--alpha-n", type=float, dest="alpha_n", help="log2 of the side size")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    if out:
        p.add_argument("--out", help="write a JSON report here")


def _add_spec_args(p):
    p.add_argument("--spec", required=True, choices=KINDS)
    p.add_argument("--table-file", help="permutation table file for --spec table")
    # required for every kind but table, whose file fixes n and w
    p.add_argument("--n", type=int, help="field degree")


def build_parser() -> _Parser:
    parser = _Parser(prog="condlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field arithmetic utilities")
    field_sub = p_field.add_subparsers(dest="field_command", required=True)
    p_check = field_sub.add_parser("selfcheck", help="run field axiom checks")
    _add_common(p_check, w=False, seed=True)
    p_check.set_defaults(handler=cmd_field_selfcheck)

    p_perm = sub.add_parser("perm", help="evaluate and verify permutations")
    perm_sub = p_perm.add_subparsers(dest="perm_command", required=True)
    p_verify = perm_sub.add_parser("verify", help="exhaustive bijectivity scan")
    _add_spec_args(p_verify)
    _add_common(p_verify, n=False, seed=True, out=True)
    p_verify.set_defaults(handler=cmd_perm_verify)
    for name, inverse in (("eval", False), ("invert", True)):
        p_e = perm_sub.add_parser(name, help=f"{name} one point")
        _add_spec_args(p_e)
        _add_common(p_e, n=False, seed=True)
        p_e.add_argument("--point", required=True,
                         help="comma-separated hex words")
        p_e.set_defaults(handler=lambda a, inv=inverse: cmd_perm_eval(a, inv))
    p_exp = perm_sub.add_parser("export-table", help="write a table file")
    _add_spec_args(p_exp)
    _add_common(p_exp, n=False, seed=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(handler=cmd_perm_export)

    p_cond = sub.add_parser("cond", help="conductance search")
    _add_spec_args(p_cond)
    _add_common(p_cond, n=False, seed=True, threads=True, out=True, side=True)
    p_cond.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p_cond.add_argument("--budget", type=int,
                        help="exact: the most prefixes C(2^n,q)^(w-1) walked and boxes "
                             "searched (default 10^6); heuristic: evaluations (default 200)")
    p_cond.add_argument("--checkpoint", help="checkpoint file path")
    p_cond.set_defaults(handler=cmd_cond)

    p_dec = sub.add_parser("decompose", help="partition a box image")
    _add_spec_args(p_dec)
    _add_common(p_dec, n=False, seed=True, out=True, side=True)
    p_dec.add_argument("--eps1", type=float)
    p_dec.add_argument("--eps2", type=float)
    p_dec.add_argument("--eps3", type=float)
    p_dec.add_argument("--box-seed", type=int, default=0)
    p_dec.add_argument("--box-file")
    p_dec.add_argument("--trials", type=int, default=1, help="number of seeded boxes")
    p_dec.set_defaults(handler=cmd_decompose)

    p_prof = sub.add_parser("condenser-profile",
                            help="decomposition statistics over random boxes")
    _add_spec_args(p_prof)
    _add_common(p_prof, n=False, seed=True, threads=True, out=True, side=True)
    p_prof.add_argument("--eps1", type=float)
    p_prof.add_argument("--eps2", type=float)
    p_prof.add_argument("--trials", type=int, required=True)
    p_prof.set_defaults(handler=cmd_condenser_profile)

    p_bounds = sub.add_parser("bounds", help="closed-form bound sheet")
    _add_common(p_bounds, out=True, side=True)
    p_bounds.add_argument("--eps1", type=float)
    p_bounds.add_argument("--eps2", type=float)
    p_bounds.add_argument("--c", type=float)
    p_bounds.set_defaults(handler=cmd_bounds)

    p_expm = sub.add_parser("experiment",
                            help="exact conductance of seeded random permutations")
    _add_common(p_expm, w=False, seed=True, threads=True, side=True)
    p_expm.add_argument("--w-list", default="2,3",
                        help="comma-separated word counts")
    p_expm.add_argument("--count", type=int, default=20,
                        help="random permutations per w")
    p_expm.add_argument("--eps1", type=float, default=0.5)
    p_expm.add_argument("--eps2", type=float, default=0.0625)
    p_expm.add_argument("--c", type=float, default=0.25)
    p_expm.add_argument("--out", help="write the CSV here (default stdout)")
    p_expm.set_defaults(handler=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        refused = f" (refused count: {exc.refused})" if exc.refused else ""
        print(f"budget refused: {exc}{refused}", file=sys.stderr)
        return EXIT_BUDGET
    except TableFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CondlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
