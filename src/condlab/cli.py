"""Command-line front end: run the engines, persist reports, drive batches.

Exit codes are pinned for scripting: 0 success, 1 usage or parse error,
2 budget refusal, 3 internal invariant violation. All randomness flows
from the --seed flag through ``random.Random`` (Mersenne Twister), so
every command is reproducible. --threads is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from math import comb

from . import conductance as cond_mod
from . import condenser as condenser_mod
from .boxes import QBox, image_of_box
from .errors import BudgetError, CondlabError, TableFormatError
from .gf2n import selfcheck
from .perms import (
    KINDS,
    TRIPLE_KINDS,
    PermutationSpec,
    WordVector,
    load_table_file,
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


@dataclass
class RunConfig:
    """Validated parameters of one command invocation."""

    spec_kind: str | None = None
    n: int | None = None
    w: int | None = None
    q: int | None = None
    alpha_n: float | None = None
    seed: int = 0
    mode: str = "exact"
    budget: int | None = None
    eps1: float | None = None
    eps2: float | None = None
    eps3: float | None = None
    c: float | None = None
    trials: int | None = None
    checkpoint: str | None = None
    checkpoint_every: int = 1000
    out: str | None = None


def _collect_config(args, *, need_q=False, need_eps=(), need_spec=False,
                    need_w=False) -> RunConfig:
    """Build a RunConfig, aggregating every validation issue into one error."""
    issues = []
    cfg = RunConfig()
    cfg.spec_kind = getattr(args, "spec", None)
    cfg.n = getattr(args, "n", None)
    cfg.w = getattr(args, "w", None)
    cfg.seed = getattr(args, "seed", 0) or 0
    cfg.mode = getattr(args, "mode", "exact")
    cfg.budget = getattr(args, "budget", None)
    cfg.trials = getattr(args, "trials", None)
    cfg.checkpoint = getattr(args, "checkpoint", None)
    cfg.checkpoint_every = getattr(args, "checkpoint_every", 1000)
    cfg.out = getattr(args, "out", None)
    cfg.c = getattr(args, "c", None)
    for name in ("eps1", "eps2", "eps3"):
        value = getattr(args, name, None)
        setattr(cfg, name, value)
        if name in need_eps:
            if value is None:
                issues.append(f"--{name} is required")
            elif value < 0:
                issues.append(f"--{name} must be nonnegative")

    if cfg.n is not None and not 1 <= cfg.n <= 64:
        issues.append(f"--n must be in 1..64, got {cfg.n}")
    if cfg.w is not None and cfg.w < 1:
        issues.append(f"--w must be at least 1, got {cfg.w}")
    threads = getattr(args, "threads", 1)
    if threads < 1:
        issues.append(f"--threads must be at least 1, got {threads}")

    q = getattr(args, "q", None)
    alpha_n = getattr(args, "alpha_n", None)
    if need_q:
        if q is None and alpha_n is None:
            issues.append("one of --q or --alpha-n is required")
        elif q is not None and alpha_n is not None:
            issues.append("--q and --alpha-n are mutually exclusive")
        elif q is not None:
            cfg.q = q
            cfg.alpha_n = math.log2(q) if q >= 1 else None
            if q < 1:
                issues.append(f"--q must be at least 1, got {q}")
        else:
            cfg.alpha_n = alpha_n
            exact = 2.0 ** alpha_n
            if abs(exact - round(exact)) > 1e-9:
                issues.append(
                    f"--alpha-n {alpha_n} gives a non-integer side size 2^{alpha_n}"
                )
            else:
                cfg.q = int(round(exact))
        if cfg.q is not None and cfg.n is not None and cfg.q > (1 << cfg.n):
            issues.append(f"--q {cfg.q} exceeds the alphabet size 2^{cfg.n}")

    if need_spec:
        if cfg.spec_kind == "table" and not getattr(args, "table_file", None):
            issues.append("--table-file is required for table specs")
        if cfg.spec_kind != "table" and cfg.n is None:
            issues.append(f"--n is required for --spec {cfg.spec_kind}")
        if cfg.spec_kind in TRIPLE_KINDS:
            if cfg.w not in (None, 3):
                issues.append(f"--spec {cfg.spec_kind} requires --w 3")
            cfg.w = 3
        elif cfg.spec_kind == "piw" and cfg.w is not None and cfg.w < 3:
            issues.append("--spec piw requires --w of at least 3")
        elif cfg.spec_kind not in ("table",) and cfg.w is None:
            issues.append(f"--w is required for --spec {cfg.spec_kind}")
    elif need_w and cfg.w is None:
        issues.append("--w is required")

    if issues:
        raise _UsageError("invalid configuration: " + "; ".join(issues))
    return cfg


def _build_spec(args, cfg: RunConfig) -> PermutationSpec:
    kind = cfg.spec_kind
    if kind == "random":
        return random_table(args.seed, cfg.n, cfg.w)
    if kind == "table":
        spec = load_table_file(args.table_file)
        # the file fixes the shape; compare only the flags that were given
        flags = {k: v for k, v in (("n", cfg.n), ("w", cfg.w)) if v is not None}
        if any(getattr(spec, k) != v for k, v in flags.items()):
            said = ", ".join(f"{k}={v}" for k, v in flags.items())
            raise _UsageError(
                f"table file has shape (n={spec.n}, w={spec.w}), flags say ({said})"
            )
        return spec
    return PermutationSpec(kind, cfg.n, cfg.w)


def _maybe_warn_composite(spec: PermutationSpec):
    if spec.assumes_prime_degree:
        print(
            f"note: {spec.kind} guarantees assume a prime degree; n={spec.n} "
            "is composite",
            file=sys.stderr,
        )


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_point(text: str, n: int, w: int) -> WordVector:
    words = tuple(int(t, 16) for t in text.split(","))
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
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if len(parts) != 5 or parts[:2] != ["condlab-box", "v1"]:
            raise TableFormatError(f"bad header {header!r}", line=1)
        try:
            n = int(parts[2].removeprefix("n="))
            w = int(parts[3].removeprefix("w="))
            q = int(parts[4].removeprefix("q="))
        except ValueError:
            raise TableFormatError(f"bad header fields in {header!r}", line=1)
        sides = []
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text:
                continue
            try:
                values = [int(t, 16) for t in text.split()]
            except ValueError:
                raise TableFormatError(f"not hex values: {text!r}", line=lineno)
            if len(values) != q:
                raise TableFormatError(
                    f"side has {len(values)} values, expected {q}", line=lineno
                )
            if len(set(values)) != q:
                raise TableFormatError(
                    "duplicate value in side", line=lineno
                )
            if any(v >= (1 << n) or v < 0 for v in values):
                raise TableFormatError("side value out of range", line=lineno)
            sides.append(tuple(sorted(values)))
        if len(sides) != w:
            raise TableFormatError(f"expected {w} sides, found {len(sides)}")
    return QBox(tuple(sides), n)


# --- subcommands ------------------------------------------------------------


def cmd_field_selfcheck(args) -> int:
    cfg = _collect_config(args)
    report = selfcheck(cfg.n, seed=cfg.seed)
    print(
        f"field n={report['n']} poly={report['poly']:#x} mode={report['mode']} "
        f"triples={report['triples_checked']} inverses={report['inverses_checked']} ok=yes"
    )
    return EXIT_OK


def cmd_perm_verify(args) -> int:
    cfg = _collect_config(args, need_spec=True)
    spec = _build_spec(args, cfg)
    _maybe_warn_composite(spec)
    report = verify_bijective(spec, budget_bits=args.budget_bits)
    if report.bijective:
        print(f"bijective=yes checked={report.checked}")
    else:
        a, b = report.collision
        print(f"bijective=no witness={a:#x},{b:#x} checked={report.checked}")
    if cfg.out:
        _write_json(cfg.out, {
            "bijective": report.bijective,
            "checked": report.checked,
            "collision": list(report.collision) if report.collision else None,
            "n": report.n,
            "w": report.w,
        })
    return EXIT_OK


def cmd_perm_eval(args, inverse: bool = False) -> int:
    cfg = _collect_config(args, need_spec=True)
    spec = _build_spec(args, cfg)
    point = _parse_point(args.point, spec.n, spec.w)
    result = spec.invert(point) if inverse else spec.eval(point)
    print(",".join(f"{wd:x}" for wd in result.words))
    return EXIT_OK


def cmd_perm_export(args) -> int:
    cfg = _collect_config(args, need_spec=True)
    spec = _build_spec(args, cfg)
    write_table_file(spec, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cond(args) -> int:
    cfg = _collect_config(args, need_q=True, need_spec=True)
    spec = _build_spec(args, cfg)
    _maybe_warn_composite(spec)
    if cfg.mode == "exact":
        kwargs = {}
        if cfg.budget is not None:
            kwargs["outer_budget"] = cfg.budget
        if cfg.checkpoint:
            kwargs["checkpoint_path"] = cfg.checkpoint
            kwargs["checkpoint_every"] = cfg.checkpoint_every
        report = cond_mod.exact_conductance(spec, cfg.q, **kwargs)
    else:
        budget = cfg.budget if cfg.budget is not None else 200
        report = cond_mod.heuristic_lower_bound(
            spec, cfg.q, budget=budget, seed=cfg.seed,
        )
    if cfg.out:
        _write_json(cfg.out, report.to_json_dict())
    print(f"condd={report.condd:.12g} mode={report.mode} witnesses=yes")
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = _collect_config(args, need_q=True, need_spec=True,
                          need_eps=("eps1", "eps2", "eps3"))
    spec = _build_spec(args, cfg)
    _maybe_warn_composite(spec)

    if args.box_file:
        boxes = [load_box_file(args.box_file)]
        for box in boxes:
            if box.n != spec.n or box.w != spec.w or box.q != cfg.q:
                raise _UsageError(
                    f"box file shape (n={box.n}, w={box.w}, q={box.q}) does "
                    "not match the requested parameters"
                )
    else:
        rng = random.Random(args.box_seed)
        radix = comb(1 << spec.n, cfg.q)
        count = cfg.trials if cfg.trials is not None else 1
        boxes = [
            QBox.from_ranks(
                [rng.randrange(radix) for _ in range(spec.w)], spec.n, cfg.q
            )
            for _ in range(count)
        ]

    runs = []
    for box in boxes:
        img = image_of_box(spec, box)
        dec = condenser_mod.decompose(img, cfg.alpha_n, cfg.eps1, cfg.eps2)
        verdict = condenser_mod.verify_converse_bounds(dec, cfg.eps3)
        runs.append({
            "box": [list(s) for s in box.sides],
            "decomposition": dec.to_json_dict(),
            "bounds": verdict.to_json_dict(),
        })
    payload = {"spec": spec.digest(), "runs": runs}
    if cfg.out:
        _write_json(cfg.out, payload)
    print(f"decomposed {len(runs)} box(es)")
    return EXIT_OK


def cmd_condenser_profile(args) -> int:
    cfg = _collect_config(args, need_q=True, need_spec=True,
                          need_eps=("eps1", "eps2"))
    spec = _build_spec(args, cfg)
    _maybe_warn_composite(spec)
    profile = condenser_mod.empirical_condenser_profile(
        spec, cfg.alpha_n, cfg.eps1, cfg.eps2, args.trials, cfg.seed,
    )
    if cfg.out:
        _write_json(cfg.out, profile.to_json_dict())
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
    cfg = _collect_config(args, need_q=True, need_w=True)
    sheet = cond_mod.bound_sheet(
        cfg.n, cfg.w, cfg.q, eps1=cfg.eps1, eps2=cfg.eps2, c=cfg.c
    )
    payload = sheet.to_json_dict()
    if cfg.out:
        _write_json(cfg.out, payload)
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
    cfg = _collect_config(args, need_q=True, need_eps=())
    w_list = [int(t) for t in args.w_list.split(",") if t]
    if not w_list or any(w < 1 for w in w_list):
        raise _UsageError(f"bad --w-list {args.w_list!r}")
    eps1 = cfg.eps1 if cfg.eps1 is not None else 0.5
    eps2 = cfg.eps2 if cfg.eps2 is not None else 0.0625
    c = cfg.c if cfg.c is not None else 0.25

    header = [
        "row", "spec", "seed", "n", "w", "q", "alpha", "max_count", "condd",
        "condenser_bound", "repetition_bound", "random_perm_bound",
        "random_perm_precondition_ok", "precondition_agree",
        "min_condd", "mean_condd", "max_condd",
    ]
    lines = [",".join(header)]
    rng = random.Random(cfg.seed)
    for w in w_list:
        sheet = cond_mod.bound_sheet(cfg.n, w, cfg.q, eps1=eps1, eps2=eps2, c=c)
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
                [row, name, _fmt(seed), str(cfg.n), str(w), str(cfg.q),
                 _fmt(report.alpha), str(report.max_count), _fmt(report.condd)]
                + shared + ["", "", ""]
            ))

        control = cond_mod.exact_conductance(
            PermutationSpec.identity(cfg.n, w), cfg.q
        )
        emit("control", "identity", None, control)
        for _ in range(args.count):
            table_seed = rng.randrange(2 ** 32)
            spec = random_table(table_seed, cfg.n, w)
            report = cond_mod.exact_conductance(spec, cfg.q)
            emit("perm", "random", table_seed, report)
        lines.append(",".join(
            ["summary", "", "", str(cfg.n), str(w), str(cfg.q), "", "", ""]
            + [""] * 5
            + [_fmt(min(degrees)), _fmt(sum(degrees) / len(degrees)),
               _fmt(max(degrees))]
        ))

    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- parser wiring ------------------------------------------------------------


def _add_common(p, *, n=True, w=True, seed=False, threads=False, out=False):
    if n:
        p.add_argument("--n", type=int, required=True, help="field degree")
    if w:
        p.add_argument("--w", type=int, help="number of words")
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
    p_verify.add_argument("--budget-bits", type=int, default=24)
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
    _add_common(p_cond, n=False, seed=True, threads=True, out=True)
    p_cond.add_argument("--q", type=int, help="side size")
    p_cond.add_argument("--alpha-n", type=float, dest="alpha_n",
                        help="log2 of the side size")
    p_cond.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p_cond.add_argument("--budget", type=int,
                        help="outer box budget (exact) or evaluations (heuristic)")
    p_cond.add_argument("--checkpoint", help="checkpoint file path")
    p_cond.add_argument("--checkpoint-every", type=int, default=1000)
    p_cond.set_defaults(handler=cmd_cond)

    p_dec = sub.add_parser("decompose", help="partition a box image")
    _add_spec_args(p_dec)
    _add_common(p_dec, n=False, seed=True, out=True)
    p_dec.add_argument("--q", type=int)
    p_dec.add_argument("--alpha-n", type=float, dest="alpha_n")
    p_dec.add_argument("--eps1", type=float)
    p_dec.add_argument("--eps2", type=float)
    p_dec.add_argument("--eps3", type=float)
    p_dec.add_argument("--box-seed", type=int, default=0)
    p_dec.add_argument("--box-file")
    p_dec.add_argument("--trials", type=int, help="number of seeded boxes")
    p_dec.set_defaults(handler=cmd_decompose)

    p_prof = sub.add_parser("condenser-profile",
                            help="decomposition statistics over random boxes")
    _add_spec_args(p_prof)
    _add_common(p_prof, n=False, seed=True, threads=True, out=True)
    p_prof.add_argument("--q", type=int)
    p_prof.add_argument("--alpha-n", type=float, dest="alpha_n")
    p_prof.add_argument("--eps1", type=float)
    p_prof.add_argument("--eps2", type=float)
    p_prof.add_argument("--trials", type=int, required=True)
    p_prof.set_defaults(handler=cmd_condenser_profile)

    p_bounds = sub.add_parser("bounds", help="closed-form bound sheet")
    _add_common(p_bounds, out=True)
    p_bounds.add_argument("--q", type=int)
    p_bounds.add_argument("--alpha-n", type=float, dest="alpha_n")
    p_bounds.add_argument("--eps1", type=float)
    p_bounds.add_argument("--eps2", type=float)
    p_bounds.add_argument("--c", type=float)
    p_bounds.set_defaults(handler=cmd_bounds)

    p_expm = sub.add_parser("experiment",
                            help="exact conductance of seeded random permutations")
    _add_common(p_expm, w=False, seed=True, threads=True)
    p_expm.add_argument("--w-list", default="2,3",
                        help="comma-separated word counts")
    p_expm.add_argument("--q", type=int)
    p_expm.add_argument("--alpha-n", type=float, dest="alpha_n")
    p_expm.add_argument("--count", type=int, default=20,
                        help="random permutations per w")
    p_expm.add_argument("--eps1", type=float)
    p_expm.add_argument("--eps2", type=float)
    p_expm.add_argument("--c", type=float)
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
    except CondlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
