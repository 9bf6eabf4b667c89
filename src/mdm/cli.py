"""Command-line front door over the library.

Subcommands: solve (run a mechanism on an instance file), menu (one
applicant's menu under a chosen engine), verify (seeded self-check suites),
describe (plain-text personalized menu description), states (count the
outcome maps induced by single-institution reports on the cycle-grid
family), gen (write instance files with a parameter sidecar).

Output is JSON on standard output unless --format text is given; describe
defaults to text.  Exit codes: 0 success, 1 verification failure, 2 usage
or input error, 3 internal error (any other exception).  Exits 2 and 3
write one stderr line.  A fresh process imports only what its command runs:
no matching command loads dataclasses, traceback (exit 3 only) or mdm.auctions,
whose names this module's __getattr__ loads on first use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, NoReturn

from mdm import MECHANISM_TAGS, SUITE_NAMES
from mdm.market import (
    APPLICANT,
    INSTITUTION,
    InstanceError,
    Matching,
    Profile,
    _require_unit,
    parse_instance,
    serialize_instance,
)
from mdm.mechanisms import (
    CyclePolicy,
    ProposalPolicy,
    apda,
    ipda,
    ipda_without,
    receiver_optimal,
    serial_dictatorship,
    ttc,
)

_MATCHING_MECHANISMS = ("sd", "ttc", "apda", "ipda", "receiver-optimal")
_AUCTION_MECHANISMS = ("spa", "vcg-additive", "vcg-unit-demand")
_ENGINES = ("da", "da-ap", "da-id", "ttc", "sd", "oracle")
# Caps on size flags, so that no argv asks for unbounded memory: a random
# market holds 2n² list entries, and every verify trial builds an instance.
_MAX_GEN_N = 1000
_MAX_VERIFY_N = 200
_MAX_VERIFY_TRIALS = 100_000
# Cap on each side of a vcg-unit-demand file, checked before the solver runs. Each perturbed weight
# carries about n·log2(m+1) bits, so time and memory grow fast on either side: a fresh `mdm solve`
# took 1.0 s and 81 MB at 300×300, 2.3 s and 175 MB at 400×400 (Intel Xeon, Python 3.11).
_MAX_UNIT_DEMAND_SIDE = 300
_FAMILIES = (
    "random",
    "cycle-grid",
    "bit-probe",
    "nonlocal-menu",
    "nonlocal-outcome",
    "empty-menu",
    "budget-set",
)


# Names of mdm.auctions that __getattr__ loads on first use. The auction branches look them
# up through _this, the module object, so that a name bound here (a test's patch) wins.
_AUCTIONS = ("parse_auction", "serialize_auction", "spa_outcome", "vcg_additive", "vcg_unit_demand")
_this = sys.modules[__name__]


def __getattr__(name: str) -> object:
    if name not in _AUCTIONS:  # tested first: `from mdm.cli import main` probes __path__
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from mdm import auctions

    return getattr(auctions, name)


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _int_groups(flag: str, raw: str, rule: str, groups: Iterable[Iterable[str]]) -> tuple[tuple[int, ...], ...]:
    """Each group of strings cut from a flag's raw value, as ints; a string that is not one is an input error."""
    try:
        return tuple(tuple(int(x) for x in g) for g in groups)
    except ValueError:
        raise InstanceError(f"{flag} {rule}, got {raw!r}") from None


def _at_most(flag: str, value: int | None, cap: int) -> None:
    if value is not None and value > cap:
        raise InstanceError(f"{flag} must be at most {cap}, got {value}")


def _applicant_index(p: Profile, name: str) -> int:
    i = p.applicant_index.get(name)
    if i is None:
        raise InstanceError(f"unknown applicant {name!r}; have {', '.join(sorted(p.applicant_names))}")
    return i


def _parse_order(p: Profile, raw: str | None) -> tuple[int, ...]:
    if raw is None:
        return tuple(range(p.n_applicants))
    order = tuple(_applicant_index(p, name.strip()) for name in raw.split(","))
    if sorted(order) != list(range(p.n_applicants)):
        raise InstanceError("--order must list every applicant exactly once")
    return order


def _matching_payload(p: Profile, mu: Matching) -> dict[str, object]:
    by_d = mu.by_applicant
    matched = {
        p.applicant_names[d]: p.institution_names[h] for d, h in by_d.items()
    }
    unmatched = sorted(set(p.applicant_names) - set(matched))
    return {"matched": matched, "unmatched": unmatched}


def _matching_lines(payload: dict[str, object]) -> list[str]:
    """A matching payload's lines, for solve and describe: each matched pair by applicant name, then the unmatched."""
    lines = [f"{d} -> {h}" for d, h in sorted(payload["matched"].items())]
    return lines + [f"{d} unmatched" for d in payload["unmatched"]]


def _emit(payload: object, fmt: str, text: str) -> None:
    sys.stdout.write(text if fmt == "text" else _json(payload))


def cmd_solve(args: argparse.Namespace) -> int:
    mech = args.mechanism
    raw = _read(args.instance)
    if mech in _MATCHING_MECHANISMS:
        p = parse_instance(raw)
        if mech == "sd":
            mu = serial_dictatorship(p, _parse_order(p, args.order))
        elif mech == "ttc":
            mu = ttc(p, CyclePolicy(args.policy or "lowest-index-applicant-first", args.seed))
        elif mech == "apda":
            mu = apda(p, ProposalPolicy(args.policy or "by-index", args.seed))
        elif mech == "ipda":
            mu = ipda(p, ProposalPolicy(args.policy or "by-index", args.seed))
        else:
            mu = receiver_optimal(p, {"institutions": INSTITUTION, "applicants": APPLICANT}[args.proposing])
        payload = {"mechanism": mech, **_matching_payload(p, mu)}
        lines = _matching_lines(payload)
        _emit(payload, args.format, "\n".join(lines) + "\n" if lines else "(empty market)\n")
        return 0
    if mech in _AUCTION_MECHANISMS:
        v = _this.parse_auction(raw)
        if mech == "spa":
            if v.n_items != 1:
                raise InstanceError("a second-price auction instance needs exactly one item per bidder row")
            out = _this.spa_outcome(tuple(row[0] for row in v.values))
        elif mech == "vcg-additive":
            out = _this.vcg_additive(v)
        else:
            _at_most("vcg-unit-demand bidders", v.n_bidders, _MAX_UNIT_DEMAND_SIDE)
            _at_most("vcg-unit-demand items", v.n_items, _MAX_UNIT_DEMAND_SIDE)
            out = _this.vcg_unit_demand(v)
        allocation = [sorted(items) for items in out.allocation]
        text = "".join(
            f"bidder {i}: wins {', '.join(map(str, items)) or 'nothing'}, pays {price}\n"
            for i, (items, price) in enumerate(zip(allocation, out.prices))
        )
        _emit({"mechanism": mech, "allocation": allocation, "prices": list(out.prices)}, args.format, text)
        return 0
    from mdm.voting import median_outcome, parse_votes

    votes = parse_votes(raw)
    chosen = median_outcome(votes)
    _emit({"mechanism": mech, "outcome": chosen}, args.format, f"outcome: {chosen}\n")
    return 0


def cmd_menu(args: argparse.Namespace) -> int:
    from mdm import menus

    p = parse_instance(_read(args.instance))
    i = _applicant_index(p, args.applicant)
    engine = args.engine
    if engine == "da":
        menu = menus.menu_da(i, p)
    elif engine == "da-ap":
        menu = menus.menu_da_applicant_proposing(i, p)
    elif engine == "da-id":
        menu = menus.menu_da_plan(i, p).menu
    elif engine == "ttc":
        menu = menus.menu_ttc(i, p)
    elif engine == "sd":
        menu = menus.menu_sd(i, p, _parse_order(p, args.order))
    else:
        order = _parse_order(p, args.order) if args.mechanism == "sd" else None
        menu = menus.menu_oracle_exhaustive(args.mechanism, i, p, order)
    if p.applicant_prefs[i]:  # noted once the menu stands, so a failing run writes one stderr line
        sys.stderr.write(
            f"note: {args.applicant}'s submitted list is ignored; "
            "the menu quantifies over every list she could submit\n"
        )
    names = sorted(p.institution_names[h] for h in menu)
    payload = {"applicant": args.applicant, "engine": engine, "menu": names}
    text = f"menu of {args.applicant}: " + (", ".join(names) if names else "(empty)") + "\n"
    _emit(payload, args.format, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from mdm.verify import run_all, run_suite

    trials: int | str | None = args.trials
    if trials is not None and trials != "exhaustive":
        trials = _int_groups("--trials", trials, "must be an integer or 'exhaustive'", [[trials]])[0][0]
    if args.suite == "all":
        if trials is not None or args.n is not None:
            raise InstanceError("--suite all runs every suite at its default size and trial count")
        reports = run_all(seed=args.seed)
    else:
        _at_most("--n", args.n, _MAX_VERIFY_N)
        _at_most("--trials", trials if type(trials) is int else None, _MAX_VERIFY_TRIALS)
        reports = [run_suite(args.suite, trials=trials, size=args.n, seed=args.seed)]
    lines = []
    for r in reports:
        sys.stderr.write(r.summary() + "\n")
        lines.append(r.summary())
        for f in r.failures:
            instance = " ".join(f.instance.split())
            lines += [f"  expected: {f.expectation}", f"  observed: {f.observed}", f"  instance: {instance}"]
    docs = [r.as_dict() for r in reports]
    _emit(docs[0] if len(docs) == 1 else docs, args.format, "\n".join(lines) + "\n")
    return 0 if all(r.ok for r in reports) else 1


def cmd_describe(args: argparse.Namespace) -> int:
    p = parse_instance(_read(args.instance))
    i = _applicant_index(p, args.applicant)
    name = p.applicant_names[i]
    _require_unit(p)
    without, on_menu = ipda_without(i, p)
    hypothetical = _matching_payload(p, without)
    hypothetical["unmatched"] = [d for d in hypothetical["unmatched"] if d != name]
    menu = sorted(p.institution_names[h] for h in on_menu)
    lines = [f"Menu description for {name}", ""]
    lines.append("If your preference list is ignored, institutions propose and the others end up matched as:")
    lines += [f"  {line}" for line in _matching_lines(hypothetical)]
    lines.append("")
    if menu:
        lines.append("You have earned admission at: " + ", ".join(menu) + ".")
        lines.append(
            "You will be matched to whichever of these you rank highest; "
            "if you rank none of them, you will remain unmatched."
        )
    else:
        lines.append("You have not earned admission anywhere: you will remain unmatched whatever you submit.")
    text = "\n".join(lines) + "\n"
    _emit({"applicant": name, "menu": menu, "hypothetical": hypothetical, "text": text}, args.format, text)
    return 0


def cmd_states(args: argparse.Namespace) -> int:
    from mdm.descriptions import count_induced_functions

    observed = count_induced_functions(args.n)
    predicted = 2 ** ((args.n // 4) ** 2)
    ok = observed == predicted
    payload = {
        "family": args.family,
        "n": args.n,
        "observed": observed,
        "predicted": predicted,
        "ok": ok,
    }
    text = (
        f"family {args.family}, n={args.n}: {observed} outcome maps induced by "
        f"single-institution reports, predicted {predicted}: {'ok' if ok else 'MISMATCH'}\n"
    )
    _emit(payload, args.format, text)
    return 0 if ok else 1


def _gen_instance(args: argparse.Namespace) -> tuple[str, dict[str, object]]:
    from mdm.generators import (
        BitProbeParams,
        CycleGridParams,
        fixture_budget_set,
        fixture_empty_menu,
        fixture_nonlocal_menu,
        fixture_nonlocal_outcome,
        gen_bit_probe_auction,
        gen_cycle_grid,
        gen_random_market,
    )

    family = args.family
    if family in ("random", "cycle-grid") and args.n is None:
        raise InstanceError(f"--n is required for the {family} family")
    if family == "random":
        p = gen_random_market(args.n, args.seed, args.truncation_prob)
        meta: dict[str, object] = {
            "family": family,
            "n": args.n,
            "seed": args.seed,
            "truncation_prob": args.truncation_prob,
        }
        return serialize_instance(p), meta
    if family == "cycle-grid":
        k = args.n // 4
        subsets, truncate = ((),) * k, (False,) * k
        if args.subsets is not None:
            subsets = _int_groups("--subsets", args.subsets, "must be '/'-separated comma lists of integers",
                                  ([x for x in g.split(",") if x.strip() != ""] for g in args.subsets.split("/")))
        if args.truncate:
            (bits,) = _int_groups(
                "--truncate", args.truncate, "must be comma-separated 0/1 bits", [args.truncate.split(",")]
            )
            truncate = tuple(b != 0 for b in bits)
        params = CycleGridParams(args.n, subsets, truncate)
        meta = {
            "family": family,
            "n": args.n,
            "subsets": [list(s) for s in subsets],
            "truncate": [int(b) for b in truncate],
        }
        return serialize_instance(gen_cycle_grid(params)), meta
    if family == "bit-probe":
        if args.bits is None or args.probe is None:
            raise InstanceError("--bits and --probe are required for the bit-probe family")
        bits = _int_groups("--bits", args.bits, "rows must be strings of 0/1 separated by '/'", args.bits.split("/"))
        (pq,) = _int_groups("--probe", args.probe, "must be 'row,col'", [args.probe.split(",")])
        if len(pq) != 2:
            raise InstanceError(f"--probe must be 'row,col', got {args.probe!r}")
        params = BitProbeParams(len(bits), bits, (pq[0], pq[1]))
        meta = {
            "family": family,
            "k": len(bits),
            "bits": [list(r) for r in bits],
            "probe": list(pq),
        }
        return _this.serialize_auction(gen_bit_probe_auction(params)), meta
    if family in ("nonlocal-menu", "nonlocal-outcome"):
        fixture = fixture_nonlocal_menu if family == "nonlocal-menu" else fixture_nonlocal_outcome
        base, alt = fixture()
        p = base if args.variant == "base" else alt
        return serialize_instance(p), {"family": family, "variant": args.variant}
    p = fixture_empty_menu() if family == "empty-menu" else fixture_budget_set()
    return serialize_instance(p), {"family": family}


def cmd_gen(args: argparse.Namespace) -> int:
    _at_most("--n", args.n, _MAX_GEN_N)
    body, meta = _gen_instance(args)
    if args.out is None:
        sys.stdout.write(_json({"instance": json.loads(body), "metadata": meta}))
        return 0
    out = Path(args.out)
    try:
        out.write_text(body, encoding="utf-8")
        stem = out.name[: -len(".json")] if out.name.endswith(".json") else out.name
        sidecar = out.with_name(stem + ".meta.json")
        sidecar.write_text(_json(meta), encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc
    sys.stderr.write(f"wrote {out} and {sidecar}\n")
    return 0


def _add_format(sub: argparse.ArgumentParser, default: str = "json") -> None:
    sub.add_argument("--format", choices=("json", "text"), default=default)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose rejections write one stderr line; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdm", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run a mechanism on an instance file")
    solve.add_argument("--mechanism", required=True, choices=_MATCHING_MECHANISMS + _AUCTION_MECHANISMS + ("median",))
    solve.add_argument("--order", help="comma-separated applicant names (sd picking order)")
    solve.add_argument("--policy", help="tie-breaking policy for ttc/apda/ipda")
    solve.add_argument("--proposing", choices=("institutions", "applicants"), default="institutions",
                       help="proposing side for receiver-optimal")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("instance")
    _add_format(solve)
    solve.set_defaults(fn=cmd_solve)

    menu = commands.add_parser("menu", help="one applicant's menu under a chosen engine")
    menu.add_argument("--engine", required=True, choices=_ENGINES)
    menu.add_argument("--applicant", required=True)
    menu.add_argument("--mechanism", choices=MECHANISM_TAGS, default="apda",
                      help="mechanism probed by the oracle engine")
    menu.add_argument("--order", help="comma-separated applicant names (sd engine)")
    menu.add_argument("instance")
    _add_format(menu)
    menu.set_defaults(fn=cmd_menu)

    verify = commands.add_parser("verify", help="run seeded self-check suites")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    verify.add_argument("--n", type=int, help="agents per side for market suites, candidates for voting")
    verify.add_argument("--trials", help="trial count, or 'exhaustive' for strategyproofness")
    verify.add_argument("--seed", type=int, default=0)
    _add_format(verify)
    verify.set_defaults(fn=cmd_verify)

    describe = commands.add_parser("describe", help="personalized plain-text menu description")
    describe.add_argument("--applicant", required=True)
    describe.add_argument("instance")
    _add_format(describe, default="text")
    describe.set_defaults(fn=cmd_describe)

    states = commands.add_parser("states", help="count outcome maps induced on the cycle-grid family")
    states.add_argument("--family", choices=("cycle-grid",), default="cycle-grid")
    states.add_argument("--n", type=int, required=True, choices=(4, 8))
    _add_format(states)
    states.set_defaults(fn=cmd_states)

    gen = commands.add_parser("gen", help="write an instance file plus a parameter sidecar")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--truncation-prob", type=float, default=0.0)
    gen.add_argument("--subsets", help="cycle-grid: '/'-separated comma lists, one group per top cycle")
    gen.add_argument("--truncate", help="cycle-grid: comma-separated 0/1 bits, one per top cycle")
    gen.add_argument("--bits", help="bit-probe: '/'-separated rows of 0/1 characters")
    gen.add_argument("--probe", help="bit-probe: 'row,col', zero-based")
    gen.add_argument("--variant", choices=("base", "alt"), default="base",
                     help="which profile of a paired fixture to emit")
    gen.add_argument("--out", help="output path; omit to print instance and metadata together")
    gen.set_defaults(fn=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # an input error; a message listing several problems goes on one line
        sys.stderr.write(f"error: {'; '.join(str(exc).splitlines())}\n")
        return 2
    except Exception as exc:  # a fault in mdm itself, not in the input
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(
            f"error: internal error ({type(exc).__name__} at {Path(where.filename).name}:{where.lineno}): "
            f"{' '.join(str(exc).split())}\n"
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
