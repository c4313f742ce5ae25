"""Command-line surface: enumeration, orbits, thresholds, counting, examples.

Each command returns its data and writes nothing; the `main` group writes it
to stdout (a `(header, rows)` tuple as CSV, anything else as JSON with sorted
keys) and turns a ToolkitError into one `error: ...` line on stderr.  Exit
codes: 0 ok, 1 domain/cap error, 2 usage error.  Every command is
deterministic given its flags and seed.  Each command imports the kernel
modules it runs, so a process loads only what its command needs: `lattice`
needs no numpy, and `weyl` refuses a known order past `--cap` before it
loads the closure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

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


def _emit_csv(header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


class _Rational(click.ParamType):
    """A rational number such as 2 or 5/2, parsed to an exact Fraction; a
    decimal exponent past the counting budget is a DomainError (exit 1)."""

    name = "rational"

    def convert(self, value, param, ctx):
        from .counting import COUNT_POWER_BITS

        try:
            return _json_rational(str(value), COUNT_POWER_BITS)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational number", param, ctx)


# options shared by several commands
_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
_Q = click.option(
    "--q", type=_Rational(), default="2", show_default=True,
    help="counting base, rational > 1",
)
_DMAX = click.option("--dmax", type=int, default=12, show_default=True)
_DEGREE = click.option("--degree", type=int, required=True, help="fiber degree, 1..9")


def _lattice_for_degree(degree: int):
    if not (1 <= degree <= 9):
        raise click.BadParameter(f"fiber degree {degree} outside 1..9")
    return make_lattice(9 - degree)


# class kind -> its enumerator in `curves`
_KINDS = {
    "lines": "enumerate_neg_one_curves",
    "conics": "enumerate_conic_classes",
    "cubics": "enumerate_cubic_classes",
}


class _Toolkit(click.Group):
    """The one output and error boundary of every command."""

    def invoke(self, ctx):
        try:
            result = super().invoke(ctx)
        except ToolkitError as ex:
            click.echo(f"error: {ex}", err=True)
            sys.exit(1)
        if isinstance(result, tuple):
            _emit_csv(*result)
        else:
            click.echo(json.dumps(_jsonable(result), sort_keys=True, indent=2))


@click.group(cls=_Toolkit)
def main():
    """Del Pezzo fibration toolkit: lattices, curve classes, monodromy
    orbits, Fujita invariants, thresholds, section counting."""


@main.command()
@_DEGREE
def lattice(degree):
    """Picard lattice of a del Pezzo surface of the given degree."""
    lat = _lattice_for_degree(degree)
    return {
        "degree": lat.degree,
        "blowups": lat.n,
        "rank": lat.rank,
        "gram": lat.gram,
        "canonical": lat.canonical,
        "anticanonical": lat.anticanonical,
    }


@main.command(name="curves")
@_DEGREE
@click.option(
    "--kind",
    type=click.Choice(sorted(_KINDS)),
    default="lines",
    show_default=True,
)
@_FORMAT
def curves_cmd(degree, kind, fmt):
    """Enumerate line, conic, or cubic classes on the fiber lattice."""
    from . import curves

    lat = _lattice_for_degree(degree)
    classes = getattr(curves, _KINDS[kind])(lat)
    header = [f"c{k}" for k in range(lat.rank)]
    # cubic classes carry a kind tag alongside the coordinates
    if fmt == "csv":
        if kind == "cubics":
            return header + ["kind"], [list(c) + [k.value] for c, k in classes]
        return header, classes
    if kind == "cubics":
        classes = [{"class": c, "kind": k.value} for c, k in classes]
    return {"degree": degree, "kind": kind, "count": len(classes), "classes": classes}


@main.command(name="weyl")
@_DEGREE
@click.option("--cap", type=int, default=DEFAULT_CAP, show_default=True)
def weyl_cmd(degree, cap):
    """Order of the lattice Weyl group, by Dimino's coset closure; refused
    at once when the group's known order passes the cap."""
    lat = _lattice_for_degree(degree)
    check_cap(WEYL_ORDERS[lat.n], cap)
    from . import weyl

    gens = weyl.weyl_generators(lat)
    # no simple roots for n <= 1: the group is trivial
    group = weyl.generate_group(gens, cap=cap) if gens else weyl.trivial_group(lat.rank)
    return {"degree": degree, "blowups": lat.n, "generators": len(gens), "order": group.order}


@main.command()
@_DEGREE
@click.option(
    "--classes",
    type=click.Choice(sorted(_KINDS)),
    default="lines",
    show_default=True,
)
def orbits(degree, classes):
    """Orbit sizes of curve classes under the full Weyl group."""
    from . import curves, weyl

    lat = _lattice_for_degree(degree)
    vectors = getattr(curves, _KINDS[classes])(lat)
    if classes == "cubics":
        # orbits act on the classes, not on their kind tags
        vectors = [c for c, _ in vectors]
    gens = weyl.weyl_generators(lat)
    part = weyl.orbits_under_generators(gens, vectors)
    return {
        "degree": degree,
        "classes": classes,
        "count": len(vectors),
        "orbit_sizes": part.sizes,
        "orbit_representatives": part.representatives,
    }


@main.command(name="fujita")
@click.option("--degree", type=int, help="del Pezzo fiber degree, 1..9")
@click.option("--hirzebruch", type=int, help="Hirzebruch parameter e >= 0")
def fujita_cmd(degree, hirzebruch):
    """Fujita invariant of the anticanonical polarization."""
    if (degree is None) == (hirzebruch is None):
        raise click.UsageError("pass exactly one of --degree / --hirzebruch")
    from . import fujita

    if degree is not None:
        lat = _lattice_for_degree(degree)
        surf = fujita.polarized_del_pezzo(lat)
        locus = fujita.larger_a_locus(lat)
        return {
            "surface": f"del Pezzo degree {degree}",
            "a_invariant": fujita.a_invariant(surf),
            "larger_a_locus_size": len(locus),
        }
    surf = fujita.hirzebruch_polarized(hirzebruch)
    return {"surface": f"Hirzebruch {hirzebruch}", "a_invariant": fujita.a_invariant(surf)}


@main.command(name="thresholds")
@click.option("--profile", required=True, help="shipped profile name or JSON path")
def thresholds_cmd(profile):
    """All scalar thresholds of a fibration profile."""
    from . import thresholds

    return thresholds.threshold_report(thresholds.load_profile(profile))


@main.command(name="ruled")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--depth", type=int, default=8, show_default=True)
def ruled_cmd(seed, trials, depth):
    """Randomized fiber-tree soundness harness (blow-ups, the second
    (-1)-component lemma, contraction back to the smooth model).  Refused
    before any trial unless trials x depth <= 32768 and depth <= 64."""
    from . import ruled

    return ruled.fuzz_blow_up_sequences(count=trials, depth=depth, seed=seed)


def _report_or_table(fmt, report, convergence):
    """The whole report as JSON, or the rows of its convergence table as CSV."""
    if fmt == "json":
        return report
    return ["d", "exact", "asymptotic", "ratio"], (
        [r["d"], str(r["exact"]), str(r["asymptotic"]), str(r["ratio"])]
        for r in convergence["rows"]
    )


@main.command(name="count")
@click.option("--profile", help="shipped profile name or JSON path")
@click.option("--model", "model_path", help="counting model JSON path")
@_Q
@_DMAX
@_FORMAT
def count_cmd(profile, model_path, q, dmax, fmt):
    """Exact counting function vs the closed-form asymptotic.  Refused
    before the first slice unless the height slices count at most 1048576
    column-generator pairs (slices x columns of the top slice's box without
    its last coordinate x cone generators) and every power of q (exponents
    dmax and height + dim_rule) holds at most 4096 bits, counted as
    |exponent| x the bit length of q's numerator or denominator, whichever
    is longer: so dmax + dim_rule <= 2048 for q = 2."""
    if (profile is None) == (model_path is None):
        raise click.UsageError("pass exactly one of --profile / --model")
    from . import counting, thresholds

    if model_path is not None:
        if click.get_current_context().get_parameter_source("q") is ParameterSource.COMMANDLINE:
            raise click.UsageError("--q applies to --profile only; a model file carries its own q")
        model = counting.load_model(model_path)
    else:
        p = thresholds.load_profile(profile)
        model = counting.default_model(p, q)
    report = counting.convergence_report(model, dmax)
    return _report_or_table(fmt, report, report)


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


@main.command(name="example")
@click.option(
    "--name",
    type=click.Choice(
        ["cubic-pencil", "x5-pencil", "hypersurface-23", "diagonal-cubic"]
    ),
    required=True,
)
@_Q
@_DMAX
@_FORMAT
def example_cmd(name, q, dmax, fmt):
    """Reproduce the shipped worked examples end to end.  The convergence
    table is refused under the budget of `count`: at most 1048576
    column-generator pairs, and every power of q at most 4096 bits (dmax + 2
    <= 2048 for q = 2)."""
    report = run_example(name, q, dmax)
    return _report_or_table(fmt, report, report["convergence"])


if __name__ == "__main__":
    main()
