"""Command-line front end: searches, lemma grids, and structured output.

json-lines is the canonical machine format. Integer payload fields are
rendered as decimal strings so downstream tooling never truncates them to
64-bit floats; csv and human are derived views. All wall-clock timing
lives in the header line, keeping the solution and summary lines
byte-identical across runs of the same config and version.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .exactint import DEFAULT_BIT_CAP, CrossCheckError, OperandSizeError, _guard_pow
from .primality import MAX_MERSENNE_BOUND, is_mersenne_prime_exponent, mersenne_exponents_upto
from .sigma import SpecialForm, sigma_k
from .valuations import LEMMA_TAGS, LemmaGrid

if TYPE_CHECKING:
    from .classify import ClassificationReport, SearchOutcome

ENV_CONFIG = "SIGMAPERFECT_CONFIG"
FORMATS = ("json-lines", "csv", "human")

_ALL_MERSENNE_PREFIX = "all-mersenne-upto-"


class _SearchConfigFields(NamedTuple):
    k: str = "5"
    alpha_max: int = 13
    beta_max: int = 16
    workers: int = 1
    bit_cap: int = DEFAULT_BIT_CAP
    output_path: str = ""
    format: str = "json-lines"


class SearchConfig(_SearchConfigFields):
    """Search parameters; k is a decimal exponent or 'all-mersenne-upto-K'."""

    def __new__(cls, *args, **kwargs) -> SearchConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.alpha_max < 2 or self.beta_max < 2:
            raise ValueError("alpha_max and beta_max must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}")
        # Selected once per config; also fails fast on an unparsable k.
        self._exponents = tuple(self._select_exponents())
        if not self._exponents:
            raise ValueError(f"k={self.k} selects no exponent > 2")
        return self

    @classmethod
    def _make(cls, iterable) -> SearchConfig:  # so _replace validates too
        return cls(*iterable)

    def _select_exponents(self) -> list[int]:
        if self.k.startswith(_ALL_MERSENNE_PREFIX):
            bound = int(self.k[len(_ALL_MERSENNE_PREFIX):])
            return [q for q in mersenne_exponents_upto(bound) if q > 2]
        return [int(self.k)]

    def exponents(self) -> list[int]:
        return list(self._exponents)

    @classmethod
    def from_strings(cls, values: dict[str, str | int]) -> "SearchConfig":
        """Build from field name -> text (or int); missing fields keep their defaults."""
        return cls(**{
            name: int(values[name]) if isinstance(default, int) else values[name]
            for name, default in cls._field_defaults.items()
            if name in values
        })


def _config_values(text: str) -> dict[str, str]:
    """Field name -> text from flat key=value config text."""
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line: {raw!r}")
        values[key.strip()] = value.strip()
    unknown = values.keys() - set(SearchConfig._fields)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


class RunRecord(NamedTuple):
    config: SearchConfig
    reports: list[ClassificationReport]
    tool_version: str
    started: str
    finished: str


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


def _report_fields(r: ClassificationReport) -> dict:
    return {
        "n": str(r.form.n()),
        "alpha": str(r.form.alpha),
        "p": str(r.form.p),
        "beta": str(r.form.beta),
        "k": str(r.form.k),
        "divides": r.divides,
        "perfect": r.perfect,
        "excluded_perfect": r.excluded_perfect,
        "pruned_by": r.pruned_by,
    }


def _report_from_fields(obj: dict) -> ClassificationReport:
    from .classify import ClassificationReport  # commands that scan nothing start without it

    form = SpecialForm(*(int(obj[name]) for name in ("alpha", "p", "beta", "k")))
    verdicts = ("divides", "perfect", "excluded_perfect", "pruned_by")
    return ClassificationReport(form, *(obj[name] for name in verdicts))


def render_json_lines(record: RunRecord, summaries: list[dict]) -> str:
    import json  # only search and parse_run_record use it

    header = {
        "record": "header",
        "tool_version": record.tool_version,
        "started": record.started,
        "finished": record.finished,
        "config": {name: str(value) for name, value in record.config._asdict().items()},
    }
    lines = [json.dumps(header, sort_keys=True)]
    for r in record.reports:
        lines.append(json.dumps({"record": "solution", **_report_fields(r)}, sort_keys=True))
    for summary in summaries:
        lines.append(json.dumps({"record": "summary", **summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_run_record(text: str) -> RunRecord:
    """Invert render_json_lines; summary lines carry no record state."""
    import json  # only search and parse_run_record use it

    header = None
    reports = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj.get("record")
        if kind == "header":
            header = obj
        elif kind == "solution":
            reports.append(_report_from_fields(obj))
    if header is None:
        raise ValueError("no header line found")
    return RunRecord(
        config=SearchConfig.from_strings(header["config"]),
        reports=reports,
        tool_version=header["tool_version"],
        started=header["started"],
        finished=header["finished"],
    )


_CSV_COLUMNS = ("n", "alpha", "p", "beta", "k", "divides", "perfect", "excluded_perfect", "pruned_by")


def render_csv(record: RunRecord) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in record.reports:
        row = _report_fields(r)
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_human(record: RunRecord, summaries: list[dict]) -> str:
    widths = {"n": 12, "alpha": 5, "p": 7, "beta": 4, "k": 3}
    head = "  ".join(name.rjust(w) for name, w in widths.items())
    lines = [head + "  divides  perfect  excluded  pruned_by"]
    for r in record.reports:
        row = _report_fields(r)
        cells = "  ".join(str(row[name]).rjust(w) for name, w in widths.items())
        lines.append(
            f"{cells}  {_yn(r.divides):>7}  {_yn(r.perfect):>7}  {_yn(r.excluded_perfect):>8}  "
            f"{r.pruned_by or '-'}"
        )
    for s in summaries:
        status = "MATCH" if s["matches_expected"] else "MISMATCH"
        lines.append(
            f"k={s['k']}: {len(s['solutions'])} solution(s), {s['mode']} mode, {status}; "
            f"points={s['points_scanned']} pruned={s['pruned_points']} "
            f"scenario1={s['scenario1_points']}"
        )
    return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sigma(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    if args.k < 1:
        raise ValueError(f"k must be >= 1, got {args.k}")
    # sigma_k(n) is a few bits wider than n**k at most: an n**k past the operand
    # cap is refused before factoring, and any value it admits is printed whole
    _guard_pow(args.n, args.k, None)
    value = sigma_k(args.n, args.k)
    residue = value % args.n
    try:
        text = str(value)
    except ValueError:  # past Python's int-to-str digit limit, which Decimal has not
        from decimal import Decimal
        text = str(Decimal(value))
    print(f"sigma_{args.k}({args.n}) = {text}")
    print(f"sigma_{args.k}({args.n}) mod {args.n} = {residue}")
    print(f"{args.n} divides sigma_{args.k}({args.n}): {_yn(residue == 0)}")
    return 0


def _load_search_config(args: argparse.Namespace) -> SearchConfig:
    """Defaults, then the config file, then flags, merged before the one
    SearchConfig is built, so its exponents are selected once."""
    values: dict[str, str | int] = {}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        with open(path, encoding="utf-8") as fh:
            values.update(_config_values(fh.read()))
    for name in SearchConfig._fields:
        value = getattr(args, "out" if name == "output_path" else name, None)
        if value is not None:
            values[name] = value
    return SearchConfig.from_strings(values)


def _summary(outcome: SearchOutcome) -> dict:
    return {
        "k": str(outcome.k),
        "solutions": [str(r.form.n()) for r in outcome.reports],
        "expected": [str(n) for n in outcome.expected],
        "matches_expected": outcome.matches,
        "mode": outcome.mode,
        "points_scanned": str(outcome.stats.points_scanned),
        "pruned_points": str(outcome.stats.pruned_points),
        "scenario1_points": str(outcome.stats.scenario1_points),
    }


def cmd_search(args: argparse.Namespace) -> int:
    from .classify import search  # commands that scan nothing start without it

    config = _load_search_config(args)
    started = _utcnow()
    # Open --out before scanning so a bad path fails fast; append mode
    # leaves an existing file intact until the record is ready.
    if config.output_path:
        sink = open(config.output_path, "a", encoding="utf-8")
    else:
        sink = nullcontext(sys.stdout)
    with sink as out:
        outcomes = [
            search(k, config.alpha_max, config.beta_max, config.workers, config.bit_cap)
            for k in config.exponents()
        ]
        record = RunRecord(
            config=config,
            reports=sorted(
                (r for o in outcomes for r in o.reports), key=lambda r: (r.form.n(), r.form.k)
            ),
            tool_version=__version__,
            started=started,
            finished=_utcnow(),
        )
        summaries = [_summary(o) for o in outcomes]
        if config.format == "json-lines":
            text = render_json_lines(record, summaries)
        elif config.format == "csv":
            text = render_csv(record)
        else:
            text = render_human(record, summaries)
        if config.output_path and out.seekable():  # a pipe cannot be truncated
            out.truncate(0)
        out.write(text)
    for s in summaries:
        if not s["matches_expected"]:
            blame = "implementation bug" if s["mode"] == "theorem" else "conjecture finding"
            print(
                f"discrepancy at k={s['k']} ({blame}): got {s['solutions']}, "
                f"expected {s['expected']}",
                file=sys.stderr,
            )
    return 0 if all(o.matches for o in outcomes) else 2


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    """search plus the theorem-mode assertion: the solutions must be
    exactly the predicted even perfect numbers, all flagged as such."""
    from .classify import search, search_mode  # commands that scan nothing start without it

    k, beta_max = args.k, args.beta_max
    if search_mode(k, beta_max) != "theorem":
        raise ValueError(
            f"the full-beta statement is only proved for k in (3, 5); "
            f"use 'search' to gather evidence for k={k}"
        )
    outcome = search(k, args.alpha_max, beta_max, workers=args.workers)
    got = [r.form.n() for r in outcome.reports]
    if not outcome.matches:
        raise CrossCheckError(
            f"solution set {got} differs from predicted even perfect set {outcome.expected} for k={k}"
        )
    for r in outcome.reports:
        if not r.perfect or r.excluded_perfect:
            raise CrossCheckError(f"non-perfect or excluded solution reported: {r}")
    if beta_max == 2:
        label = f"beta=2 classification at k={k}"
    else:
        label = f"full classification at k={k}, beta up to {beta_max}"
    print(f"verified: {label}; solutions = {{{', '.join(map(str, got))}}}")
    return 0


def cmd_check_lemma(args: argparse.Namespace) -> int:
    """Write a lemma grid block by block, each with one write, and count
    its passes as it goes; lemma_blocks refuses a grid before any row."""
    from .classify import lemma_blocks  # commands that scan nothing start without it

    tag = args.tag
    proved, blocks = lemma_blocks(tag, LemmaGrid(**{n: getattr(args, n) for n in LemmaGrid._fields}))
    write = sys.stdout.write
    rows = passed = 0
    for labels, outcomes, oks in blocks:
        write("".join([f"{tag}  {label}: {outcome}\n" for label, outcome in zip(labels, outcomes)]))
        rows, passed = rows + len(oks), passed + oks.count(True)
    if proved:
        print(f"{tag}: {passed}/{rows} pass")
        return 0 if passed == rows else 2
    print(f"{tag}: {rows} informational row(s)")
    return 0


def cmd_mersenne(args: argparse.Namespace) -> int:
    for k in mersenne_exponents_upto(args.upto):
        print(f"{k}  {(1 << k) - 1}")
    return 0


def cmd_perfect(args: argparse.Namespace) -> int:
    if args.exponent is not None and args.exponent > MAX_MERSENNE_BOUND:  # as for --upto
        raise ValueError(f"Mersenne exponent {args.exponent} is beyond the limit {MAX_MERSENNE_BOUND}")
    exponents = [args.exponent] if args.exponent is not None else mersenne_exponents_upto(args.upto)
    for q in exponents:
        if not is_mersenne_prime_exponent(q):
            raise ValueError(f"2**{q} - 1 is not prime")
        n = (1 << (q - 1)) * ((1 << q) - 1)
        verified = sigma_k(n, 1) == 2 * n
        print(f"q={q}  n={n}  sigma(n)=2n: {_yn(verified)}")
        if not verified:
            return 2
    return 0


def _utcnow() -> str:
    from datetime import datetime, timezone  # only search records a time

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


@functools.cache  # a build takes about 1.4 ms, as long as 15 sigma queries on a 10-digit n
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmaperfect",
        description="Exact classification of n = 2^(a-1) p^(b-1) against n | sigma_k(n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sigma = sub.add_parser("sigma", help="print sigma_k(n) and the divisibility verdict")
    p_sigma.add_argument("n", type=int)
    p_sigma.add_argument("k", type=int)
    p_sigma.set_defaults(func=cmd_sigma)

    p_search = sub.add_parser("search", help="exhaustive grid search with cross-checks")
    p_search.add_argument("--k", help="exponent, or all-mersenne-upto-K")
    p_search.add_argument("--alpha-max", dest="alpha_max", type=int)
    p_search.add_argument("--beta-max", dest="beta_max", type=int)
    p_search.add_argument("--workers", type=int)
    p_search.add_argument("--bit-cap", dest="bit_cap", type=int)
    p_search.add_argument("--out")
    p_search.add_argument("--format", choices=FORMATS)
    p_search.add_argument("--config", help=f"key=value config file (or ${ENV_CONFIG})")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify-theorem", help="search and assert the predicted solution set")
    p_verify.add_argument("--k", type=int, default=5)
    p_verify.add_argument("--alpha-max", dest="alpha_max", type=int, default=13)
    p_verify.add_argument("--beta-max", dest="beta_max", type=int, default=2)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify_theorem)

    p_lemma = sub.add_parser("check-lemma", help="run one lemma oracle over a parameter grid")
    p_lemma.add_argument("tag", choices=LEMMA_TAGS)
    for name, default in LemmaGrid._field_defaults.items():  # one flag per grid field
        flag = "--k" if name == "k_values" else "--" + name.replace("_", "-")
        p_lemma.add_argument(
            flag, dest=name, type=_csv_ints if flag == "--k" else int, default=default,
            metavar=flag[2:].upper().replace("-", "_"),
            help="comma-separated exponents" if flag == "--k" else None,
        )
    p_lemma.set_defaults(func=cmd_check_lemma)

    p_mersenne = sub.add_parser("mersenne", help="list exponents k with 2^k - 1 prime")
    p_mersenne.add_argument("--upto", type=int, default=31)
    p_mersenne.set_defaults(func=cmd_mersenne)

    p_perfect = sub.add_parser("perfect", help="construct and verify even perfect numbers")
    p_perfect.add_argument("--upto", type=int, default=13, help="exponent bound")
    p_perfect.add_argument("--exponent", type=int, default=None, help="single exponent q")
    p_perfect.set_defaults(func=cmd_perfect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 2
    except OperandSizeError as exc:
        print(f"operand size cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
