"""Command line front end: normal forms, foldings, projections, system
verification, and the seeded experiment runner."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from freefactor import (
    experiments as ex,
    factors as fc,
    farey,
    projections as pj,
    raag,
    serialize as se,
    stallings,
    systems as sy,
)
from freefactor.errors import FreefactorError, SchemaError, UndefinedProjection
from freefactor.words import Alphabet, automorphism, word_from_str, word_to_str


def _alphabet(letters: str) -> Alphabet:
    return Alphabet(tuple(s.strip() for s in letters.split(",")))


def _gamma(vertices: str, edges: str) -> raag.SimplicialGraph:
    vs = [v.strip() for v in vertices.split(",")]
    es = []
    if edges:
        for tok in edges.split(","):
            a, _, b = tok.strip().partition("-")
            es.append((a, b))
    return raag.simplicial_graph(vs, es)


def _words(alphabet: Alphabet, text: str):
    return [word_from_str(alphabet, t.strip()) for t in text.split(",") if t.strip()]


def _projection_factor(alphabet: Alphabet, text: str) -> fc.FreeFactorClass:
    """The rank-2 free factor spanned by comma-separated words: Farey
    projections are defined for nothing else."""
    A = fc.free_factor_class(alphabet, _words(alphabet, text))
    if A.rank != 2:
        raise UndefinedProjection(f"<{text}> has rank {A.rank}, not 2")
    if not fc.is_free_factor(A.graph):
        raise UndefinedProjection(f"<{text}> is not a free factor")
    return A


class _Main(click.Group):
    """A library error or a command line click cannot parse ends the command
    with one line on stderr and exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FreefactorError, click.UsageError) as exc:
            text = exc.format_message() if isinstance(exc, click.UsageError) else exc
            click.echo(f"error: {text}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Free-factor projections, foldings, and generator-system experiments."""


@main.command("normal-form")
@click.option("--vertices", required=True, help="comma-separated graph vertices")
@click.option("--edges", default="", help="comma-separated edges like a-b,b-c")
@click.argument("word")
def normal_form(vertices, edges, word):
    """Canonical syllable-minimal form of a word in the graph group."""
    g = _gamma(vertices, edges)
    click.echo(str(raag.normalize(g, raag.raag_word_from_str(g, word))))


@main.command("syl-order")
@click.option("--vertices", required=True)
@click.option("--edges", default="")
@click.argument("word")
def syl_order(vertices, edges, word):
    """The strict partial order on syllables of a normalized word."""
    g = _gamma(vertices, edges)
    order = raag.syllable_order(g, raag.raag_word_from_str(g, word))

    def show(sid):
        s = order.word.syllables[sid]
        return s.gen if s.exp == 1 else f"{s.gen}^{s.exp}"

    for i, j in sorted(order.precedes):
        click.echo(f"{show(i)} < {show(j)}")
    if not order.precedes:
        click.echo("(no forced order)")


@main.command("fold")
@click.option("--letters", required=True, help="ambient basis, e.g. a,b,c")
@click.argument("gens")
def fold(letters, gens):
    """Fold the subgroup generated by comma-separated words; print its core."""
    alphabet = _alphabet(letters)
    g = stallings.from_generators(alphabet, _words(alphabet, gens))
    click.echo(f"vertices: {g.num_vertices}")
    click.echo(f"rank: {g.rank}")
    click.echo("basis: " + ", ".join(word_to_str(w) for w in g.basis))


@main.command("intersect")
@click.option("--letters", required=True)
@click.argument("first")
@click.argument("second")
def intersect(letters, first, second):
    """Ranks of the intersection components of two subgroups (pullback)."""
    alphabet = _alphabet(letters)
    a = stallings.from_generators(alphabet, _words(alphabet, first))
    b = stallings.from_generators(alphabet, _words(alphabet, second))
    comps = stallings.pullback_components(a, b)
    if not comps:
        click.echo("trivial intersection")
    for c in comps:
        click.echo(
            "component basis: " + ", ".join(word_to_str(w) for w in c.subgroup.basis)
        )


@main.command("meet")
@click.option("--letters", required=True)
@click.argument("first")
@click.argument("second")
def meet(letters, first, second):
    """Meet classes of two free factors."""
    alphabet = _alphabet(letters)
    A = fc.free_factor_class(alphabet, _words(alphabet, first))
    B = fc.free_factor_class(alphabet, _words(alphabet, second))
    classes = fc.meet_projection(A, B)
    if not classes:
        click.echo("empty meet")
    for m in sorted(classes, key=lambda m: m.in_ambient.key):
        click.echo(
            "< " + ", ".join(word_to_str(w) for w in m.in_ambient.basis) + " >"
        )


@main.command("overlap")
@click.option("--letters", required=True)
@click.argument("first")
@click.argument("second")
def overlap(letters, first, second):
    """Overlap certificate for two free factors, if any."""
    alphabet = _alphabet(letters)
    A = fc.free_factor_class(alphabet, _words(alphabet, first))
    B = fc.free_factor_class(alphabet, _words(alphabet, second))
    cert = fc.overlap_check(A, B)
    if cert is None:
        click.echo("no overlap")
    else:
        mc, H = cert
        through = ", ".join(word_to_str(w) for w in mc.in_ambient.basis)
        click.echo(f"overlap certificate rank {H.rank} through < {through} >")


@main.command("support-graph")
@click.option("--vertices", required=True)
@click.option("--edges", default="")
def support_graph(vertices, edges):
    """Build the supporting graph-of-groups for a defining graph."""
    G = sy.build_support_graph(_gamma(vertices, edges))
    click.echo(f"ambient rank: {G.ambient_rank}")
    click.echo(f"vertices: {len(G.vertices)}  edges: {len(G.edges)}")
    for name, gens in zip(G.gamma.vertices, G.factor_words):
        click.echo(f"  {name}: " + ", ".join(word_to_str(w) for w in gens))


@main.command("complexity")
@click.option("--vertices", required=True)
@click.option("--edges", default="")
def complexity(vertices, edges):
    """Ambient rank required to support a defining graph."""
    click.echo(str(sy.complexity(_gamma(vertices, edges))))


@main.command("farey-dist")
@click.argument("u")
@click.argument("v")
def farey_dist(u, v):
    """Distance between two vertices p/q of the Farey graph."""
    click.echo(str(farey.farey_distance(farey.vertex_from_str(u), farey.vertex_from_str(v))))


def _marked_graph(letters: str, marking: str) -> pj.MarkedGraph:
    alphabet = _alphabet(letters)
    T = pj.rose(alphabet)
    if marking:
        images = _words(alphabet, marking)
        f = automorphism(alphabet, images)
        T = pj.transform_marked(f, T)
    return T


@main.command("project")
@click.option("--letters", required=True)
@click.option("--factor", required=True, help="comma-separated factor generators")
@click.option("--marking", default="", help="automorphism images defining the tree")
def project(letters, factor, marking):
    """Projection of a marked graph to a rank-2 factor's Farey graph."""
    A = _projection_factor(_alphabet(letters), factor)
    ps = pj.project_tree(A, _marked_graph(letters, marking))
    click.echo(" ".join(sorted(str(v) for v in ps.vertices)))


@main.command("dist")
@click.option("--letters", required=True)
@click.option("--factor", required=True)
@click.option("--marking", default="", help="first tree (default: rose)")
@click.option("--marking2", default="", help="second tree (default: rose)")
def dist(letters, factor, marking, marking2):
    """Projection distance d_A between two marked graphs."""
    A = _projection_factor(_alphabet(letters), factor)
    T1 = _marked_graph(letters, marking)
    T2 = _marked_graph(letters, marking2)
    click.echo(str(pj.projection_distance(A, T1, T2)))


def _system_json(path: Path):
    """The JSON of a system file; a file that cannot be read or is not JSON
    is a malformed system."""
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path} as JSON: {exc}") from None


@main.command("verify-system")
@click.argument("fixture")
def verify_system(fixture):
    """Recompute all admissibility and support certificates of a system.

    FIXTURE is a shipped fixture name; anything else is a path to a system
    JSON file (write ./NAME for a file named like a shipped fixture).
    """
    try:
        if fixture in se.list_fixtures():
            system = se.load_fixture(fixture, verify=True)
        else:
            system = se.system_from_json(_system_json(Path(fixture)), verify=True)
    except FreefactorError as exc:
        click.echo(f"FAIL: {exc}")
        sys.exit(1)
    coll = system.collection
    click.echo(
        f"OK: {len(coll.factors)} factors over rank {coll.factors[0].ambient.rank}, "
        f"power {system.power}"
    )


def _write_out(out: str, text: str, mode: str):
    """Write text to out, or end the command with one error line and exit 2."""
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc.strerror}", err=True)
        sys.exit(2)


@main.command("run")
@click.option("--mode", required=True, type=click.Choice(ex.MODES))
@click.option("--fixture", default="pentagon-f5", show_default=True)
@click.option("--seed", default=1, show_default=True)
@click.option("--samples", default=100, show_default=True)
@click.option("--power", default=None, type=int, help="override auto-escalation")
@click.option("--out", default=None, type=click.Path(), help="write report JSON here")
def run(mode, fixture, seed, samples, power, out):
    """Run one experiment mode and emit its deterministic report."""
    cfg = ex.ExperimentConfig(
        mode=mode, fixture=fixture, samples=samples, seed=seed, power=power
    )
    if out:
        _write_out(out, "", "a")  # refuse an unwritable path before the run
    report = ex.run_experiment(cfg)
    text = se.canonical_dumps(report)
    if out:
        _write_out(out, text, "w")
        click.echo(f"{report['verdict']}: report written to {out}")
    else:
        click.echo(text, nl=False)
    sys.exit({"pass": 0, "fail": 1, "power-insufficient": 3}[report["verdict"]])


if __name__ == "__main__":
    main()
