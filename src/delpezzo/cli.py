"""Command-line surface: enumeration, orbits, thresholds, counting, examples.

Each command returns its data and writes nothing; `main` parses the command
line with one argparse parser, built once per process from the command table
`_COMMANDS`, writes the result to stdout (a `(header, rows)` tuple as CSV,
anything else as JSON with sorted keys) and turns a ToolkitError into one
`error: ...` line on stderr.  Exit codes: 0 ok, 1 domain/cap error, 2 usage
error.  Every command is deterministic given its flags and seed.  Each command
imports the kernel modules it runs, so a process loads only what its command
needs: `lattice`, `count` and `fujita --hirzebruch` need no numpy, and `weyl`
refuses a known order past `--cap` before it loads the closure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import ToolkitError, _json_rational
from .picard import DEFAULT_CAP, WEYL_ORDERS, check_cap, make_lattice


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "+inf"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _rational(value: str) -> Fraction:
    """A rational number such as 2 or 5/2, parsed to an exact Fraction; a
    decimal exponent past the counting budget is a DomainError (exit 1)."""
    from .counting import COUNT_POWER_BITS

    try:
        return _json_rational(value, COUNT_POWER_BITS)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{value!r} is not a rational number") from None


def _opt(flag: str, **kw):
    """One option of a command: its flag and its argparse keywords; a default
    other than None is shown in its help."""
    if kw.get("default") is not None:
        kw["help"] = " ".join(filter(None, [kw.get("help"), "[default: %(default)s]"]))
    return flag, kw


# options shared by several commands
_FORMAT = _opt("--format", choices=["json", "csv"], default="json")
_Q_HELP = "counting base, rational > 1"
_DMAX = _opt("--dmax", type=int, default=12)
_DEGREE_KW = dict(type=int, choices=range(1, 10), metavar="1..9", help="fiber degree")
_DEGREE = _opt("--degree", required=True, **_DEGREE_KW)
_PROFILE_HELP = "shipped profile name or JSON path"


# class kind -> its enumerator in `curves`
_KINDS = {
    "lines": "enumerate_neg_one_curves",
    "conics": "enumerate_conic_classes",
    "cubics": "enumerate_cubic_classes",
}


def lattice(opts):
    """Picard lattice of a del Pezzo surface of the given degree."""
    lat = make_lattice(9 - opts.degree)
    return {
        "degree": lat.degree,
        "blowups": lat.n,
        "rank": lat.rank,
        "gram": lat.gram,
        "canonical": lat.canonical,
        "anticanonical": lat.anticanonical,
    }


def curves_cmd(opts):
    """Enumerate line, conic, or cubic classes on the fiber lattice."""
    from . import curves

    lat = make_lattice(9 - opts.degree)
    classes = getattr(curves, _KINDS[opts.kind])(lat)
    header = [f"c{k}" for k in range(lat.rank)]
    # cubic classes carry a kind tag alongside the coordinates
    if opts.format == "csv":
        if opts.kind == "cubics":
            return header + ["kind"], [list(c) + [k.value] for c, k in classes]
        return header, classes
    if opts.kind == "cubics":
        classes = [{"class": c, "kind": k.value} for c, k in classes]
    return {"degree": opts.degree, "kind": opts.kind, "count": len(classes), "classes": classes}


def weyl_cmd(opts):
    """Order of the lattice Weyl group, by Dimino's coset closure.  Refused
    at once when the group's known order passes the cap."""
    lat = make_lattice(9 - opts.degree)
    check_cap(WEYL_ORDERS[lat.n], opts.cap)
    from . import weyl

    gens = weyl.weyl_generators(lat)
    # no simple roots for n <= 1: the group is trivial
    group = weyl.generate_group(gens, cap=opts.cap) if gens else weyl.trivial_group(lat.rank)
    return {"degree": opts.degree, "blowups": lat.n, "generators": len(gens), "order": group.order}


def orbits(opts):
    """Orbit sizes of curve classes under the full Weyl group."""
    from . import curves, weyl

    lat = make_lattice(9 - opts.degree)
    vectors = getattr(curves, _KINDS[opts.classes])(lat)
    if opts.classes == "cubics":
        # orbits act on the classes, not on their kind tags
        vectors = [c for c, _ in vectors]
    gens = weyl.weyl_generators(lat)
    part = weyl.orbits_under_generators(gens, vectors)
    return {
        "degree": opts.degree,
        "classes": opts.classes,
        "count": len(vectors),
        "orbit_sizes": part.sizes,
        "orbit_representatives": part.representatives,
    }


def fujita_cmd(opts):
    """Fujita invariant of the anticanonical polarization."""
    from . import fujita

    if opts.degree is not None:
        lat = make_lattice(9 - opts.degree)
        surf = fujita.polarized_del_pezzo(lat)
        locus = fujita.larger_a_locus(lat)
        return {
            "surface": f"del Pezzo degree {opts.degree}",
            "a_invariant": fujita.a_invariant(surf),
            "larger_a_locus_size": len(locus),
        }
    surf = fujita.hirzebruch_polarized(opts.hirzebruch)
    return {"surface": f"Hirzebruch {opts.hirzebruch}", "a_invariant": fujita.a_invariant(surf)}


def thresholds_cmd(opts):
    """All scalar thresholds of a fibration profile."""
    from . import thresholds

    return thresholds.threshold_report(thresholds.load_profile(opts.profile))


def ruled_cmd(opts):
    """Randomized fiber-tree soundness harness: blow-ups, the second
    (-1)-component lemma, contraction back to the smooth model.  Refused
    before any trial unless trials x depth <= 32768."""
    from . import ruled

    return ruled.fuzz_blow_up_sequences(count=opts.trials, depth=opts.depth, seed=opts.seed)


def _report_or_table(fmt, report, convergence):
    """The whole report as JSON, or the rows of its convergence table as CSV."""
    if fmt == "json":
        return report
    return ["d", "exact", "asymptotic", "ratio"], (
        [r["d"], str(r["exact"]), str(r["asymptotic"]), str(r["ratio"])]
        for r in convergence["rows"]
    )


def count_cmd(opts):
    """Exact counting function vs the closed-form asymptotic.  Refused
    before the first slice unless the height slices count at most 1048576
    column-generator pairs (slices x columns of the top slice's box without
    its last coordinate x cone generators) and every power of q (exponents
    dmax and height + dim_rule) holds at most 4096 bits, counted as
    |exponent| x the bit length of q's numerator or denominator, whichever
    is longer: so dmax + dim_rule <= 2048 for q = 2."""
    from . import counting, thresholds

    if opts.model is not None:
        if opts.q is not None:
            opts.parser.error("--q applies to --profile only; a model file carries its own q")
        model = counting.load_model(opts.model)
    else:
        p = thresholds.load_profile(opts.profile)
        model = counting.default_model(p, Fraction(2) if opts.q is None else opts.q)
    report = counting.convergence_report(model, opts.dmax)
    return _report_or_table(opts.format, report, report)


def _monodromy_section(p) -> dict:
    from . import curves, weyl

    lat = make_lattice(9 - p.fiber_degree)
    gens = weyl.weyl_generators(lat)
    lines = curves.enumerate_neg_one_curves(lat)
    if p.name == "diagonal-cubic":
        full = weyl.generate_group(gens)
        sub = weyl.find_diagonal_cubic_subgroup(full, lat)
        conics = curves.enumerate_conic_classes(lat)
        invariant = weyl.invariant_sublattice(sub, lat)
        return {
            "kind": "diagonal-cubic subgroup search",
            "subgroup_order": sub.order,
            "line_orbit_sizes": weyl.orbits(sub, lines).sizes,
            "conic_orbit_sizes": weyl.orbits(sub, conics).sizes,
            "invariant_rank": len(invariant),
            "invariant_basis": invariant,
        }
    part = weyl.orbits_under_generators(gens, lines)
    return {
        "kind": "full Weyl group on lines",
        "line_count": len(lines),
        "line_orbit_sizes": part.sizes,
    }


def run_example(name: str, q: Fraction, dmax: int) -> dict:
    """Threshold report, monodromy verification, and convergence table for a
    shipped profile."""
    from . import counting, thresholds

    p = thresholds.load_profile(name)
    model = counting.default_model(p, q)
    return {
        "name": name,
        "thresholds": thresholds.threshold_report(p),
        "monodromy": _monodromy_section(p),
        "convergence": counting.convergence_report(model, dmax),
    }


def example_cmd(opts):
    """Reproduce the shipped worked examples end to end.  The convergence
    table is refused under the budget of `count`: at most 1048576
    column-generator pairs, and every power of q at most 4096 bits (dmax + 2
    <= 2048 for q = 2)."""
    report = run_example(opts.name, opts.q, opts.dmax)
    return _report_or_table(opts.format, report, report["convergence"])


# command -> (function of the parsed options, its options); a list of options
# is a choice of exactly one of them
_COMMANDS = {
    "lattice": (lattice, [_DEGREE]),
    "curves": (curves_cmd, [
        _DEGREE, _opt("--kind", choices=sorted(_KINDS), default="lines"), _FORMAT,
    ]),
    "weyl": (weyl_cmd, [_DEGREE, _opt("--cap", type=int, default=DEFAULT_CAP)]),
    "orbits": (orbits, [_DEGREE, _opt("--classes", choices=sorted(_KINDS), default="lines")]),
    "fujita": (fujita_cmd, [[
        _opt("--degree", **_DEGREE_KW),
        _opt("--hirzebruch", type=int, help="Hirzebruch parameter e >= 0"),
    ]]),
    "thresholds": (thresholds_cmd, [_opt("--profile", required=True, help=_PROFILE_HELP)]),
    "ruled": (ruled_cmd, [
        _opt("--seed", type=int, default=0), _opt("--trials", type=int, default=1000),
        _opt("--depth", type=int, default=8),
    ]),
    # --q defaults to None, not 2: a model file carries its own q, and --q
    # with one is refused
    "count": (count_cmd, [
        [_opt("--profile", help=_PROFILE_HELP), _opt("--model", help="counting model JSON path")],
        _opt("--q", type=_rational, help=f"{_Q_HELP} [default: 2]"), _DMAX, _FORMAT,
    ]),
    "example": (example_cmd, [
        _opt("--name", required=True,
             choices=["cubic-pencil", "x5-pencil", "hypersurface-23", "diagonal-cubic"]),
        _opt("--q", type=_rational, default="2", help=_Q_HELP), _DMAX, _FORMAT,
    ]),
}


@functools.cache
def _parser(prog_name: str) -> argparse.ArgumentParser:
    """The command-line parser, built once per process from `_COMMANDS`."""
    parser = argparse.ArgumentParser(prog=prog_name, allow_abbrev=False, description=(
        "Del Pezzo fibration toolkit: lattices, curve classes, monodromy orbits, Fujita "
        "invariants, thresholds, section counting."
    ))
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        doc = run.__doc__
        sub = commands.add_parser(
            name, allow_abbrev=False, help=doc.partition(".")[0], description=doc
        )
        sub.set_defaults(run=run, parser=sub)
        for option in options:
            group, members = sub, [option]
            if isinstance(option, list):
                group, members = sub.add_mutually_exclusive_group(required=True), option
            for flag, kw in members:
                group.add_argument(flag, **kw)
    return parser


def main(args=None, prog_name: str = "delpezzo") -> None:
    """Run one command, as `delpezzo ARGS`: the one parser, output and error
    boundary.  A ToolkitError, also one raised while an option is read, exits
    1 with one `error: ...` line on stderr; a usage error exits 2."""
    try:
        opts = _parser(prog_name).parse_args(args)
        result = opts.run(opts)
    except ToolkitError as ex:
        print(f"error: {ex}", file=sys.stderr)
        sys.exit(1)
    try:
        if isinstance(result, tuple):
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(result[0])
            writer.writerows(result[1])
        else:
            print(json.dumps(_jsonable(result), sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): exit quietly, and let the
        # flush at exit write what is left to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# `perfbench/tracecli.py` calls click's `main.main(args=..., prog_name=...)`;
# ROADMAP item 1b deletes this alias
main.main = main

if __name__ == "__main__":
    main()
