"""Command-line front end.

Subcommands::

    measures   per-stratum RD/RR/OR/OP/eta plus the four interaction coordinates
    feasible   homogeneity completion and verdict for three known risks
    volume     Monte Carlo compatibility probabilities under a box prior
    power      repeated-sampling rejection rates of the Wald interaction tests
    convert    translate a point between coordinate systems

Output formats: ``plain`` (6 significant digits), ``csv`` and ``json`` (full
float precision).  Exit codes: 0 success, 2 usage or configuration error
(including an unreadable ``--config`` file), 3 domain error (including a
``--workers`` below 1), 4 internal failure, 130 interrupted by Ctrl-C (one
line on stderr, no traceback).  No user input exits 4.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import io
import json
import math
import re
import sys

from . import coords, power, table, volume
from .errors import ConfigError, EffectGeomError
from .homogeneity import (
    COMPAT_SYSTEMS,
    HomogeneityQuery,
    complete_table,
    completion_candidate,
)
from .table import MEASURES, RiskTable, StratumPair

def _field_names(system: str) -> list[str]:
    return [f.name for f in dataclasses.fields(coords.SYSTEMS[system].cls)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _render(fmt: str, payload, header: list[str], rows: list[list], lines: list[str]) -> str:
    """A command's result as ``fmt``: its json payload, csv table or plain lines."""
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row] for row in rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"


def _records(payload, records: list[dict], lines: list[str]) -> tuple:
    """A result whose csv rows are ``records``, with their keys as the header."""
    return payload, list(records[0]), [list(r.values()) for r in records], lines


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def _stratum_report(s: StratumPair) -> dict[str, float]:
    return {
        "rd": table.risk_difference(s),
        "rr": table.relative_risk(s),
        "or": table.odds_ratio(s),
        "op": table.odds_product(s),
        "eta": table.eta(s),
    }


def _interactions(r0: dict[str, float], r1: dict[str, float]) -> dict[str, float]:
    log_eta = (
        math.log(r1["eta"]) - math.log(r0["eta"])
        if r0["eta"] > 0.0 and r1["eta"] > 0.0
        else math.nan
    )
    return {
        "rd": r1["rd"] - r0["rd"],
        "log_rr": math.log(r1["rr"]) - math.log(r0["rr"]),
        "log_or": math.log(r1["or"]) - math.log(r0["or"]),
        "log_eta": log_eta,
    }


def cmd_measures(args) -> tuple:
    t = RiskTable(p00=args.p00, p01=args.p01, p10=args.p10, p11=args.p11)
    strata = [_stratum_report(t.stratum(v)) for v in (0, 1)]
    inter = _interactions(*strata)
    payload = {
        "table": {"p00": t.p00, "p01": t.p01, "p10": t.p10, "p11": t.p11},
        "strata": [{"stratum": v, **strata[v]} for v in (0, 1)],
        "interactions": inter,
    }
    rows = [[name, v, value] for v in (0, 1) for name, value in strata[v].items()]
    rows += [[f"interaction_{name}", None, value] for name, value in inter.items()]
    lines = [f"{name}({v}) = {_fmt(value)}" for v in (0, 1) for name, value in strata[v].items()]
    lines += [f"interaction.{name} = {_fmt(value)}" for name, value in inter.items()]
    return payload, ["quantity", "stratum", "value"], rows, lines


# ---------------------------------------------------------------------------
# feasible
# ---------------------------------------------------------------------------


def cmd_feasible(args) -> tuple:
    q = HomogeneityQuery(measure=args.measure, p00=args.p00, p10=args.p10, p01=args.p01)
    candidate = completion_candidate(q)
    feasible = complete_table(q) is not None
    record = {
        "measure": q.measure,
        "p00": q.p00,
        "p10": q.p10,
        "p01": q.p01,
        "candidate_p11": candidate,
        "feasible": feasible,
    }
    verdict = (
        f"feasible, p11 = {_fmt(candidate)}"
        if feasible
        else f"infeasible (candidate {_fmt(candidate)})"
    )
    line = (
        f"{q.measure}-homogeneity for (p00={_fmt(q.p00)}, p10={_fmt(q.p10)}, "
        f"p01={_fmt(q.p01)}): {verdict}"
    )
    return _records(record, [record], [line])


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def _parse_bounds(text: str, where: str) -> volume.Bounds:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"{where}: bound {part!r} is not of the form low:high")
        try:
            pairs.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ConfigError(f"{where}: bound {part!r} has a non-numeric endpoint") from None
    if len(pairs) != 3:
        raise ConfigError(f"{where}: expected 3 comma-separated bounds, got {len(pairs)}")
    return tuple(pairs)


def _parse_int(key: str, value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}") from None


#: configuration key -> parser(value, where); the keys are `volume.PriorSpec`'s fields.
_CONFIG_KEYS = {
    "system": lambda value, where: value,
    "seed": lambda value, where: _parse_int("seed", value, where),
    "n_samples": lambda value, where: _parse_int("n_samples", value, where),
    "bounds": _parse_bounds,
}


def parse_prior_config(text: str) -> tuple[dict, list[str]]:
    """Parse the volume configuration document.

    Flat ``key = value`` pairs (system, seed, n_samples, optional bounds)
    followed by one ``[target NAME]`` section per requested target.  The
    keys come back as keyword arguments of `volume.PriorSpec`.  Raises
    `ConfigError` with the offending line number.
    """
    keys: dict[str, object] = {}
    targets: list[str] = []
    in_sections = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {raw.strip()!r}")
            inner = line[1:-1].strip()
            parts = inner.split()
            if len(parts) != 2 or parts[0] != "target":
                raise ConfigError(f"line {lineno}: expected [target NAME], got {raw.strip()!r}")
            target = parts[1].lower()
            if target not in MEASURES:
                raise ConfigError(
                    f"line {lineno}: unknown target {parts[1]!r} (expected one of {MEASURES})"
                )
            targets.append(target)
            in_sections = True
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        if in_sections:
            raise ConfigError(f"line {lineno}: key = value not allowed inside a target section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        keys[key] = _CONFIG_KEYS[key](value.strip(), f"line {lineno}")
    for required in ("system", "seed", "n_samples"):
        if required not in keys:
            raise ConfigError(f"missing required key {required!r}")
    if not targets:
        raise ConfigError("no [target NAME] sections found")
    return keys, targets


def cmd_volume(args) -> tuple:
    prior_flags = ("system", "target", "n_samples", "seed", "bounds")
    given = [f"--{f.replace('_', '-')}" for f in prior_flags if getattr(args, f) is not None]
    if args.config is not None:
        if given:
            raise ConfigError(
                f"--config sets the prior and targets and clashes with {', '.join(given)}"
            )
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config!r}: {exc}") from None
        keys, targets = parse_prior_config(text)
    else:
        if not args.target:
            raise ConfigError("at least one --target is required without --config")
        defaults = {"system": "prob", "n_samples": 100_000, "seed": 0}
        keys = {k: v if getattr(args, k) is None else getattr(args, k) for k, v in defaults.items()}
        keys["bounds"] = None if args.bounds is None else _parse_bounds(args.bounds, "--bounds")
        targets = args.target
    prior = volume.PriorSpec(**keys)
    rows = []
    for target in targets:
        est = volume.estimate(prior, target, workers=args.workers)
        exact = volume.exact_probability(prior, target)
        rows.append(
            {
                "system": prior.system,
                "target": target,
                "n_samples": est.n_samples,
                "seed": prior.seed,
                "probability": est.probability,
                "std_error": est.std_error,
                "n_compatible": est.n_compatible,
                "analytic": None if exact is None else float(exact),
            }
        )
    lines = [
        f"{row['system']}/{row['target']}: probability = {_fmt(row['probability'])} "
        f"+- {_fmt(row['std_error'])}  [{row['n_compatible']}/{row['n_samples']} "
        f"compatible, seed {row['seed']}]"
        + ("" if row["analytic"] is None else f"  (analytic {_fmt(row['analytic'])})")
        for row in rows
    ]
    return _records(rows, rows, lines)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------


def cmd_power(args) -> tuple:
    truth = RiskTable(p00=args.p00, p01=args.p01, p10=args.p10, p11=args.p11)
    given = [f"--{f}" for f in ("n00", "n01", "n10", "n11") if getattr(args, f) is not None]
    if args.n is not None:
        if given:
            raise ConfigError(f"--n sets every cell and clashes with {', '.join(given)}")
        design = power.StudyDesign(args.n, args.n, args.n, args.n)
    else:
        missing = [f for f in ("n00", "n01", "n10", "n11") if getattr(args, f) is None]
        if missing:
            raise ConfigError(
                "provide either --n or all of --n00 --n01 --n10 --n11 "
                f"(missing: {', '.join('--' + m for m in missing)})"
            )
        design = power.StudyDesign(args.n00, args.n01, args.n10, args.n11)
    result = power.simulate_power(
        truth, design, alpha=args.alpha, reps=args.reps, seed=args.seed, workers=args.workers
    )
    rows = [
        {
            "scale": scale,
            "n_pattern": design.pattern(),
            "alpha": result.alpha,
            "reps": result.reps,
            "rejection_rate": sp.rate,
            "std_error": sp.std_error,
            "degenerate_count": sp.n_degenerate,
        }
        for scale, sp in result.by_scale.items()
    ]
    lines = [
        f"{row['scale']}: rejection rate = {_fmt(row['rejection_rate'])} "
        f"+- {_fmt(row['std_error'])}  (alpha {_fmt(row['alpha'])}, reps {row['reps']}, "
        f"n {row['n_pattern']}, degenerate {row['degenerate_count']})"
        for row in rows
    ]
    return _records(rows, rows, lines)


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def _coords_from_args(system: str, args) -> object:
    names = _field_names(system)
    missing = [f"--{f}" for f in names if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"system {system!r} requires flags: {', '.join(missing)}")
    return coords.SYSTEMS[system].cls(**{f: getattr(args, f) for f in names})


def _from_table(system: str, t: RiskTable) -> dict[str, float]:
    c = coords.SYSTEMS[system].forward(t)
    return {f: getattr(c, f) for f in _field_names(system)}


def cmd_convert(args) -> tuple:
    src = args.from_system
    dst = args.to_system
    tables = coords.SYSTEMS[src].inverse(_coords_from_args(src, args))
    solutions = [_from_table(dst, t) for t in tables]
    payload = {"from": src, "to": dst, "count": len(solutions), "solutions": solutions}
    rows = [[i, field, v] for i, sol in enumerate(solutions) for field, v in sol.items()]
    lines = [f"{src} -> {dst}: {len(solutions)} solution(s)"]
    lines += [
        f"[{i}] " + ", ".join(f"{field} = {_fmt(v)}" for field, v in sol.items())
        for i, sol in enumerate(solutions)
    ]
    return payload, ["solution", "field", "value"], rows, lines


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain", help="output format"
    )


def _add_table_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    for f in ("p00", "p01", "p10", "p11"):
        p.add_argument(f"--{f}", type=float, required=required, help=f"risk {f} (stratum, arm)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` runs ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="effectgeom",
        description="Geometry of binary-association effect measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="per-stratum measures and interactions")
    _add_table_flags(p)
    _add_format(p)

    p = sub.add_parser("feasible", help="homogeneity completion for three known risks")
    for f in ("p00", "p10", "p01"):
        p.add_argument(f"--{f}", type=float, required=True)
    p.add_argument("--measure", choices=MEASURES, required=True)
    _add_format(p)

    p = sub.add_parser("volume", help="Monte Carlo compatibility probability")
    p.add_argument("--config", help="path to a prior configuration document")
    p.add_argument("--system", choices=tuple(COMPAT_SYSTEMS))
    p.add_argument("--target", action="append", choices=MEASURES, help="repeatable")
    p.add_argument("--n-samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bounds", help='three low:high pairs, e.g. "0:1,0:1,0:1"')
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)

    p = sub.add_parser("power", help="Wald interaction-test power simulation")
    _add_table_flags(p)
    p.add_argument("--n", type=int, default=None, help="common per-cell sample size")
    for f in ("n00", "n01", "n10", "n11"):
        p.add_argument(f"--{f}", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_format(p)

    p = sub.add_parser("convert", help="translate between coordinate systems")
    p.add_argument("--from-system", choices=coords.SYSTEMS, required=True)
    p.add_argument("--to-system", choices=coords.SYSTEMS, required=True)
    _add_table_flags(p, required=False)
    coord_fields = (f for s in coords.SYSTEMS if s != "prob" for f in _field_names(s))
    for f in dict.fromkeys(coord_fields):
        p.add_argument(f"--{f}", type=float, default=None)
    _add_format(p)

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep the arrays a row block frees for the next block.

    Unmapped or trimmed, they fault back in on every block.  4 MiB is above
    every block array and 16 MiB above what one block frees; the trim
    threshold alone would switch off glibc's dynamic mmap threshold.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows has no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as "-1e-3" as a flag: a value that
    # starts with "-" and a digit or "." is joined to its flag as --flag=value
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-[0-9.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(_render(args.format, *globals()[f"cmd_{args.command}"](args)))
    except EffectGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
